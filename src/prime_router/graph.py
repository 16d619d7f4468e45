"""Directed token multigraph built from a pool snapshot.

Every pool expands into one directed edge per ordered token pair it serves, so
an n-token pool contributes exactly n*(n-1) edges.  The graph is immutable
after construction and safe for concurrent read-only queries.

Edges have one order: a pair's parallel edges are kept best spot rate
first, ties on pool id (``spot_order``), sorted once at construction.  Every
reader wants that order: the path search's early-stop scan, stage 2's pick
of the best unused pools and shortcuts, the shortcut enumeration.  A graph
holds one map, token u -> ``{v: edges}``, tokens and neighbours in id
order: ``edges_between(u, v)`` reads one entry and ``out_items(u)`` is u's
row's items.  ``in_arcs(v)`` reads the map backward, one ``(u, best spot,
largest ceiling)`` per pair ``u -> v``: what the path search's bound rows
need of a pair.  A graph whose every pair has its reverse
(``pairs_reversed``) has its out-neighbours for in-neighbours: each token's
arcs are read from its own row when first asked for, and the shortcut
enumeration finds a token's pairs into the hubs in the hubs' rows.  Every
graph ``build_graph`` makes is one (each pool serves both directions) and
says so; any other graph finds out on the first call, and if not, indexes
every token's arcs at once with ``in_arcs_of``, which also reads an engine
overlay's added pairs backward.

``SwapGraph`` builds the map in one pass over the edges, without a second
copy of it: each pair's edges go straight into a tuple (most pairs of a
real market have one edge, which is then neither copied nor sorted), and
each token's scratch row is dropped as its sorted row is made.

An ``Edge`` derives its pool ids and float spot (``num / den`` of its
curve's ``spot_ratio()``) when built, in its hand-written constructor,
which sets its seven slots in one step: stage 0 reads both.  Nothing reads
the exact ratio, so no edge keeps it.  Two more derivations wait for the
path search, each a slot filled on its first read (``cfmm.lazy_slots``):
``ceiling``, the most the edge can ever put out plus one (its curve's
``output_ceiling``, which for a piecewise pool or a shortcut quotes the
curve), and ``closed``, the curve's real output as float Möbius pieces,
a table per leg, which the search folds for its closed-form bound
(``pathfind._closed_out``).  So stage 0 derives neither, and an edge no
search reads never holds one.

The value classes stage 0 builds per entry (``Token``, ``Pool``,
``PoolDirection``, ``Edge``, and the curves in ``cfmm``) are slotted frozen
dataclasses, without an instance ``__dict__``: stage 0 on the criterion-7
market holds about 177,000 of them.  The six it builds most of (``Token``,
``Pool``, ``PoolDirection``, ``Edge``, ``cfmm.Segment`` and
``cfmm.ConstantProduct``) have a hand-written constructor that sets the
slots through their own setters, in one step, where the generated frozen
one calls ``object.__setattr__`` per field.

Structure rules (unique ids, decimals 0..30, pool shape) live here, per entry
in ``add_token``/``add_pool``, and each entry passes them once.  ``io``
admits a loaded snapshot's entries with them and hands its pools on as an
``AdmittedPools``, which ``build_graph`` takes without a second pass; it
checks any other tokens and pools in full, as a hand-built ``Snapshot`` or
a direct call gives them.  The ``cfmm`` constructors own the curve rules
and run once per edge, in ``_expand_pool``.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, ItemsView, List, Optional, Set,
                    Tuple)

from .cfmm import (BPS_DENOM, ConstantProduct, PiecewiseLiquidity, Segment,
                   SequentialComposite, SwapFunction, lazy_slots)
from .errors import AmountOverflowError, MalformedSnapshotError

KIND_CONSTANT_PRODUCT = "constant_product"
KIND_PIECEWISE = "piecewise_liquidity"


def gc_paused(build: Callable) -> Callable:
    """Run ``build`` with the cyclic collector off, then restore its state.

    For the stage-0 builders (``io.load_snapshot``, ``io.loads_snapshot``,
    ``build_graph``, ``engine.prepare_routing``), which allocate hundreds of
    thousands of tracked objects and no reference cycle: the collections
    they would trigger walk the heap for nothing.  On resuming, what the
    build kept moves to the old generation, so whatever runs next (on the
    cold path, a query) does not walk it twice.  ``gc.freeze()`` then
    ``gc.unfreeze()`` moves it there in O(1), without walking it.  That pair
    would also thaw objects the caller froze, so while any are frozen one
    young-generation collection moves it instead.

    A caller that turned the collector off finds it off, with nothing moved;
    an exception restores the state the call found.  The switch is
    process-wide: a concurrent build on another thread changes only when
    collections run.
    """
    @functools.wraps(build)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()
                if gc.get_freeze_count():
                    gc.collect(1)
                else:
                    gc.freeze()
                    gc.unfreeze()
    return paused


@dataclass(frozen=True, slots=True, init=False)
class Token:
    id: str
    symbol: str
    decimals: int

    def __init__(self, id: str, symbol: str, decimals: int):
        """The generated frozen ``__init__`` in one step, through the
        slots' setters: stage 0 builds one per token entry."""
        _set_token_id(self, id)
        _set_symbol(self, symbol)
        _set_decimals(self, decimals)


@dataclass(frozen=True, slots=True, init=False)
class PoolDirection:
    """Per-direction curve parameters for a piecewise pool."""

    token_in: str
    token_out: str
    segments: Tuple[Segment, ...]

    def __init__(self, token_in: str, token_out: str,
                 segments: Tuple[Segment, ...]):
        """The generated frozen ``__init__`` in one step."""
        _set_direction_in(self, token_in)
        _set_direction_out(self, token_out)
        _set_segments(self, segments)


@dataclass(frozen=True, slots=True, init=False)
class Pool:
    id: str
    kind: str
    tokens: Tuple[str, ...]
    fee_bps: int
    reserves: Tuple[int, ...] = ()
    directions: Tuple[PoolDirection, ...] = ()

    def __init__(self, id: str, kind: str, tokens: Tuple[str, ...],
                 fee_bps: int, reserves: Tuple[int, ...] = (),
                 directions: Tuple[PoolDirection, ...] = ()):
        """The generated frozen ``__init__`` in one step: stage 0 builds
        one per pool entry."""
        _set_pool_entry_id(self, id)
        _set_kind(self, kind)
        _set_tokens(self, tokens)
        _set_fee(self, fee_bps)
        _set_reserves(self, reserves)
        _set_directions(self, directions)

    def reserve_of(self, token_id: str) -> int:
        """Liquidity mass attributed to one side; a ranking proxy only."""
        if self.kind == KIND_CONSTANT_PRODUCT:
            try:
                return self.reserves[self.tokens.index(token_id)]
            except ValueError:
                return 0
        total = 0
        for d in self.directions:
            if d.token_in == token_id:
                total += sum(s.virtual_reserve_in for s in d.segments)
        return total


# the slots' own setters, which the frozen ``__setattr__`` does not guard
_set_token_id, _set_symbol, _set_decimals = (
    getattr(Token, name).__set__ for name in ("id", "symbol", "decimals"))
_set_direction_in, _set_direction_out, _set_segments = (
    getattr(PoolDirection, name).__set__
    for name in ("token_in", "token_out", "segments"))
(_set_pool_entry_id, _set_kind, _set_tokens, _set_fee, _set_reserves,
 _set_directions) = (
    getattr(Pool, name).__set__ for name in (
        "id", "kind", "tokens", "fee_bps", "reserves", "directions"))


@dataclass(frozen=True, slots=True, init=False)
class Edge:
    pool_id: str
    token_in: str
    token_out: str
    fn: SwapFunction
    legs: Tuple["Edge", ...] = ()
    # derived, precomputed once: the search scans these in tight loops
    pool_ids: Tuple[str, ...] = field(init=False, compare=False, repr=False)
    spot: float = field(init=False, compare=False, repr=False)
    # derived on the first read, by the path search only
    ceiling: int = field(init=False, compare=False, repr=False)
    closed: Tuple[Tuple[Tuple[float, ...], ...], ...] = field(
        init=False, compare=False, repr=False)

    def __init__(self, pool_id: str, token_in: str, token_out: str,
                 fn: SwapFunction, legs: Tuple["Edge", ...] = ()):
        """The generated frozen ``__init__`` and the derivation of
        ``pool_ids`` and ``spot``, in one step: stage 0 builds about 57,000
        edges on the criterion-7 market."""
        num, den = fn.spot_ratio()
        _set_pool_id(self, pool_id)
        _set_token_in(self, token_in)
        _set_token_out(self, token_out)
        _set_fn(self, fn)
        _set_legs(self, legs)
        _set_pool_ids(self, tuple([leg.pool_id for leg in legs]) if legs
                      else (pool_id,))
        _set_spot(self, num / den)

    def _ceiling(self) -> int:
        """``ceiling``: the curve's ``output_ceiling``, a lazy slot."""
        return self.fn.output_ceiling()

    def _closed(self) -> Tuple[Tuple[Tuple[float, ...], ...], ...]:
        """``closed``: the curve's real output in floats, one table per leg
        (a composite's parts, else the curve), each a tuple of ``(hi, lo,
        a, b, c, d)``, one per Möbius piece ``lo + t -> (a*t + b) / (c*t +
        d)`` in input order, ``hi`` where the next piece starts (infinite
        on the last).

        A run of constant-product legs is one map ``x -> a*x / (c*x + d)``:
        each pool's matrix ``[[k*R_out, 0], [k, 10000*R_in]]`` (``k = 10000
        - fee_bps``) multiplies the run's exactly, and the run keeps one
        piece ``(inf, 0, a / c, 0.0, 1.0, d / c)``.  Any other leg keeps
        its own pieces.  A lazy slot: computed on the first read.
        """
        fn = self.fn
        parts = fn.parts if isinstance(fn, SequentialComposite) else (fn,)
        tables = []
        for run, legs in itertools.groupby(
                parts, lambda part: isinstance(part, ConstantProduct)):
            if run:
                a, c, d = 1, 0, 1
                for part in legs:
                    k = BPS_DENOM - part.fee_bps
                    r_in = BPS_DENOM * part.reserve_in
                    # [[k*R_out, 0], [k, r_in]] . [[a, 0], [c, d]]
                    a, c, d = (k * part.reserve_out * a, k * a + r_in * c,
                               r_in * d)
                # int true division rounds correctly however large a, c, d
                tables.append(((math.inf, 0, a / c, 0.0, 1.0, d / c),))
                continue
            for part in legs:
                pieces = part.pieces
                his = [p.lo for p in pieces[1:]] + [math.inf]
                tables.append(tuple(
                    (hi, p.lo, float(p.a), float(p.b), float(p.c),
                     float(p.d)) for hi, p in zip(his, pieces)))
        return tuple(tables)

    __getattr__ = lazy_slots(closed=_closed, ceiling=_ceiling)


# the slots' own setters, which the frozen ``__setattr__`` does not guard
(_set_pool_id, _set_token_in, _set_token_out, _set_fn, _set_legs,
 _set_pool_ids, _set_spot) = (
    getattr(Edge, name).__set__ for name in (
        "pool_id", "token_in", "token_out", "fn", "legs", "pool_ids", "spot"))


def spot_order(e: Edge) -> Tuple[float, str]:
    """The graph's one edge order: best spot rate first, then pool id."""
    return (-e.spot, e.pool_id)


class SwapGraph:
    """Immutable directed multigraph; vertices are tokens, edges swap legs."""

    def __init__(self, tokens: Dict[str, Token], pools: Dict[str, Pool],
                 edges: Iterable[Edge]):
        self._tokens = dict(tokens)
        self._pools = dict(pools)
        # each pair's edges are a tuple from the first: most pairs of a real
        # market have one edge, which is then neither copied nor sorted
        by_pair: Dict[str, Dict[str, Tuple[Edge, ...]]] = {}
        for e in edges:
            row = by_pair.get(e.token_in)
            if row is None:
                row = by_pair[e.token_in] = {}
            es = row.get(e.token_out)
            row[e.token_out] = (e,) if es is None else es + (e,)
        pairs: Dict[str, Dict[str, Tuple[Edge, ...]]] = {}
        for u in sorted(by_pair):
            # each scratch row is dropped as its sorted row is made
            pairs[u] = {v: es if len(es) == 1
                        else tuple(sorted(es, key=spot_order))
                        for v, es in sorted(by_pair.pop(u).items())}
        self._index(pairs)

    def _index(self, pairs: Dict[str, Dict[str, Tuple[Edge, ...]]]) -> None:
        """Keep ``pairs`` (tokens in id order, edges in spot order), count
        its edges, and sort the token ids once."""
        self._pairs = pairs
        self._edge_count = sum(sum(map(len, row.values()))
                               for row in pairs.values())
        self._token_ids = tuple(sorted(self._tokens))
        self._in_arcs: Dict[str, Tuple[Tuple[str, float, int], ...]] = {}
        self._symmetric: Optional[bool] = None

    @property
    def tokens(self) -> Dict[str, Token]:
        return self._tokens

    @property
    def pools(self) -> Dict[str, Pool]:
        return self._pools

    def token_ids(self) -> Tuple[str, ...]:
        return self._token_ids

    def has_token(self, token_id: str) -> bool:
        return token_id in self._tokens

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def edges_between(self, u: str, v: str) -> Tuple[Edge, ...]:
        """All directed edges u -> v, best spot rate first, ties on pool id:
        the tuple ``out_items(u)`` pairs with ``v``."""
        return self._pairs.get(u, {}).get(v, ())

    def out_items(self, u: str) -> ItemsView[str, Tuple[Edge, ...]]:
        """``u``'s row's items: (neighbour, ``edges_between(u, neighbour)``)
        pairs, neighbour-sorted."""
        return self._pairs.get(u, {}).items()

    def in_arcs(self, v: str) -> Tuple[Tuple[str, float, int], ...]:
        """``pair_arc`` of every pair u -> v, tokens u in id order.  Unless
        ``build_graph`` made the graph, the first call works out whether
        every pair has its reverse (``pairs_reversed``), as every pool's
        edges do.  If so, each token's arcs are read from its own row when
        first asked for (two threads may both read one, to the same arcs);
        if not, every token's arcs are indexed at once."""
        arcs = self._in_arcs.get(v)
        if arcs is None:
            pairs = self._pairs
            if not self.pairs_reversed():
                if not self._in_arcs:
                    self._in_arcs = in_arcs_of(pairs)
                return self._in_arcs.get(v, ())
            arcs = self._in_arcs[v] = tuple(
                [pair_arc(u, pairs[u][v]) for u in pairs.get(v, ())])
        return arcs

    def pairs_reversed(self) -> bool:
        """Whether every pair u -> v has its reverse v -> u, so that each
        token's out-neighbours are its in-neighbours: worked out on the
        first call, unless ``build_graph`` made the graph, which says so."""
        if self._symmetric is None:
            pairs = self._pairs
            self._symmetric = all(u in pairs.get(w, ())
                                  for u, row in pairs.items() for w in row)
        return self._symmetric


def in_arcs_of(pairs: Dict[str, Dict[str, Tuple[Edge, ...]]]
               ) -> Dict[str, Tuple[Tuple[str, float, int], ...]]:
    """The ``pair_arc`` of every pair ``u -> v`` in ``pairs`` (token u ->
    ``{v: edges}``), per token v, in the map's order of u."""
    into: Dict[str, List[Tuple[str, float, int]]] = {}
    for u, row in pairs.items():
        for v, candidates in row.items():
            into.setdefault(v, []).append(pair_arc(u, candidates))
    return {v: tuple(arcs) for v, arcs in into.items()}


def pair_arc(u: str, candidates: Tuple[Edge, ...]) -> Tuple[str, float, int]:
    """``(u, best spot, largest ceiling)`` of a pair's spot-ordered edges."""
    ceiling = candidates[0].ceiling
    for e in candidates[1:]:
        if e.ceiling > ceiling:
            ceiling = e.ceiling
    return u, candidates[0].spot, ceiling


def _expand_pool(pool: Pool) -> List[Edge]:
    """The pool's edges; its curves are built here only.  A broken curve rule
    is a MalformedSnapshotError naming the pool; an overflow keeps its class."""
    try:
        if pool.kind == KIND_CONSTANT_PRODUCT:
            r = pool.reserves
            return [Edge(pool.id, tin, tout, ConstantProduct(r[i], r[j], pool.fee_bps))
                    for i, tin in enumerate(pool.tokens)
                    for j, tout in enumerate(pool.tokens) if i != j]
        return [Edge(pool.id, d.token_in, d.token_out,
                     PiecewiseLiquidity(d.segments, pool.fee_bps))
                for d in pool.directions]
    except AmountOverflowError as exc:
        raise AmountOverflowError(f"pool {pool.id!r}: {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise MalformedSnapshotError(f"pool {pool.id!r}: {exc}") from exc


def add_token(token_map: Dict[str, Token], t: Token) -> None:
    """Admit one token entry: a new id, int decimals in 0..30."""
    if t.id in token_map:
        raise MalformedSnapshotError(f"duplicate token id {t.id!r}")
    if not isinstance(t.decimals, int) or isinstance(t.decimals, bool):
        raise MalformedSnapshotError(f"token {t.id!r}: decimals must be an int, "
                                     f"got {type(t.decimals).__name__}")
    if not (0 <= t.decimals <= 30):
        raise MalformedSnapshotError(f"token {t.id!r}: decimals out of range")
    token_map[t.id] = t


def add_pool(pool_map: Dict[str, Pool], token_map: Dict[str, Token], p: Pool) -> None:
    """Admit one pool entry: a new id and a shape ``_validate_pool`` accepts."""
    if p.id in pool_map:
        raise MalformedSnapshotError(f"duplicate pool id {p.id!r}")
    _validate_pool(p, token_map)
    pool_map[p.id] = p


def _validate_pool(pool: Pool, token_ids) -> None:
    error = _pool_shape_error(pool, token_ids)
    if error is not None:
        # the ``pool '...'`` prefix is built only for a pool that fails
        raise MalformedSnapshotError(f"pool {pool.id!r}: {error}")


def _pool_shape_error(pool: Pool, token_ids) -> Optional[str]:
    """What is wrong with ``pool``'s shape, or None when nothing is."""
    if len(pool.tokens) < 2:
        return "needs at least two tokens"
    if len(set(pool.tokens)) != len(pool.tokens):
        return "duplicate token in pool"
    for t in pool.tokens:
        if t not in token_ids:
            return f"dangling token id {t!r}"
    if pool.kind == KIND_CONSTANT_PRODUCT:
        if len(pool.reserves) != len(pool.tokens):
            return "reserves/tokens length mismatch"
    elif pool.kind == KIND_PIECEWISE:
        if len(pool.tokens) != 2:
            return "piecewise pools are two-token"
        pairs = {(d.token_in, d.token_out) for d in pool.directions}
        a, b = pool.tokens
        if len(pool.directions) != 2 or pairs != {(a, b), (b, a)}:
            return "needs both directions exactly once"
    else:
        return f"unknown pool kind {pool.kind!r}"
    return None


class AdmittedPools(tuple):
    """Pools that ``add_pool`` admitted, in order, against ``tokens``: the
    tuple of tokens ``add_token`` admitted, in order, before them.

    ``io.snapshot_from_dict`` makes one per snapshot.  ``build_graph``
    given one with its own ``tokens`` takes both as admitted; any other
    pools, or other tokens, it checks in full.  A slice or a concatenation
    is a plain tuple, so only the pools as admitted skip the checks.
    """

    def __new__(cls, pools: Iterable[Pool], tokens: Tuple[Token, ...]):
        self = super().__new__(cls, pools)
        self.tokens = tokens
        return self

    def __getnewargs__(self):
        return tuple(self), self.tokens


@gc_paused
def build_graph(tokens: Iterable[Token], pools: Iterable[Pool]) -> SwapGraph:
    """Expand a snapshot into the directed multigraph.

    Raises MalformedSnapshotError when an entry breaks a structure rule
    (``add_token``, ``add_pool``) or a curve rule (``_expand_pool``).  The
    structure rules are skipped for ``pools`` that are an ``AdmittedPools``
    admitted against ``tokens``: those passed them once.
    Deterministic: identical snapshots produce identical adjacency orderings.
    """
    admitted = isinstance(pools, AdmittedPools) and pools.tokens is tokens
    token_map: Dict[str, Token] = {}
    for t in tokens:
        if admitted:
            token_map[t.id] = t
        else:
            add_token(token_map, t)
    pool_map: Dict[str, Pool] = {}
    edges: List[Edge] = []
    # admitted entries fill the maps in the same loops and order as checked
    # ones: building the maps first, by comprehension, left the heap laid
    # out so that whale's peak RSS read about 2 MB higher
    for p in pools:
        if admitted:
            pool_map[p.id] = p
        else:
            add_pool(pool_map, token_map, p)
        edges.extend(_expand_pool(p))
    g = SwapGraph(token_map, pool_map, edges)
    # every pool serves every ordered pair of its tokens (``_validate_pool``
    # holds a piecewise pool to both directions), so every pair has its
    # reverse and ``in_arcs`` need not check
    g._symmetric = True
    return g


def _subgraph(g: SwapGraph, tokens: Set[str]) -> SwapGraph:
    """The part of ``g`` on ``tokens``, sharing its edge tuples and objects.

    Only valid when no pool has two tokens inside and one outside, so that an
    edge between kept tokens belongs to a kept pool.  Leaf pruning ensures it:
    every token of a live multi-token pool has two neighbours through it.
    The parent's map is sorted and filtering keeps it sorted, so every
    ordering matches what ``build_graph`` gives the kept tokens and pools.
    """
    sub = SwapGraph.__new__(SwapGraph)
    sub._tokens = {t: g._tokens[t] for t in sorted(tokens)}
    sub._pools = {pid: p for pid, p in g._pools.items()
                  if all(t in tokens for t in p.tokens)}
    pairs = {}
    for u, row in g._pairs.items():
        if u in tokens:
            kept = {v: es for v, es in row.items() if v in tokens}
            if kept:
                pairs[u] = kept
    sub._index(pairs)
    return sub


def prune_leaf_tokens(g: SwapGraph, protected: Iterable[str]) -> SwapGraph:
    """Drop tokens whose pools touch at most one other token, to a fixpoint.

    Protected tokens (the hubs, for ``PreparedRouting.pruned``) survive.  Pools lose
    all edges once any of their tokens is dropped, which is safe: a token in
    a multi-token pool always sees >= 2 neighbours through it.  A drop only
    lowers other tokens' neighbour counts, so the order in which a worklist
    drops tokens does not change the fixpoint.

    The result shares its ``Edge``, ``Pool`` and ``Token`` objects with
    ``g``; they are frozen, so sharing is safe.  Nothing is validated or
    expanded again, and the orderings are those ``build_graph`` would give
    the kept tokens and pools.
    """
    protected = set(protected)
    # links[t][u]: live pools that hold both t and u
    links: Dict[str, Dict[str, int]] = {t: {} for t in g.tokens}
    pools_of: Dict[str, List[Pool]] = {t: [] for t in g.tokens}
    for p in g.pools.values():
        for t in p.tokens:
            pools_of[t].append(p)
            row = links[t]
            for u in p.tokens:
                if u != t:
                    row[u] = row.get(u, 0) + 1
    dropped: Set[str] = set()
    work = [t for t, row in links.items()
            if len(row) <= 1 and t not in protected]
    while work:
        t = work.pop()
        if t in dropped:
            continue
        dropped.add(t)
        # with one neighbour at most, t is in no multi-token pool: each of
        # its pools joins it to a single token, which loses one link to t
        for p in pools_of[t]:
            for a in p.tokens:
                if a in dropped:
                    continue
                row = links[a]
                row[t] -= 1
                if row[t] == 0:
                    del row[t]
                    if len(row) <= 1 and a not in protected:
                        work.append(a)
    return _subgraph(g, set(g.tokens) - dropped)
