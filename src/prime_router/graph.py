"""Directed token multigraph built from a pool snapshot.

Every pool expands into one directed edge per ordered token pair it serves, so
an n-token pool contributes exactly n*(n-1) edges.  The graph is immutable
after construction and safe for concurrent read-only queries.

Edges have one order: a pair's parallel edges are kept best spot rate
first, ties on pool id (``spot_order``), sorted once at construction.  Every
reader wants that order: the path search's early-stop scan, stage 2's pick
of the best unused pools and shortcuts, the shortcut enumeration.  So
``out_items(u)`` and ``edges_between(u, v)`` return the same tuple object.
``in_arcs(v)`` reads the rows backward, one ``(u, best spot, largest
ceiling)`` per pair ``u -> v``: what the path search's bound rows need of a
pair.  A graph whose every pair has its reverse has its out-neighbours for
in-neighbours: each token's arcs are read from its own row when first asked
for.  Every graph ``build_graph`` makes is one (each pool serves both
directions) and says so; any other graph finds out on the first call, and
if not, indexes every token's arcs at once with ``in_arcs_of``, which also
reads an engine overlay's added pairs backward.

An ``Edge`` derives its pool ids, exact spot ratio and float spot when
built: stage 0 reads them all.  Two more derivations wait for the path
search, each a slot filled on its first read (``cfmm.lazy_slots``):
``ceiling``, the most the edge can ever put out plus one (its curve's
``output_ceiling``, which for a piecewise pool or a shortcut quotes the
curve), and ``mobius``, the two floats of a curve that is a single Möbius
map through the origin (a constant-product pool, or a shortcut whose legs
all are).  So stage 0 derives neither, and an edge no search reads never
holds one.

The value classes stage 0 builds per entry (``Token``, ``Pool``,
``PoolDirection``, ``Edge``, and the curves in ``cfmm``) are slotted frozen
dataclasses, without an instance ``__dict__``: stage 0 on the criterion-7
market holds about 177,000 of them.

Structure rules (unique ids, decimals 0..30, pool shape) live here, per entry
in ``add_token``/``add_pool``, which ``io`` also calls; the ``cfmm``
constructors own the curve rules and run once per edge, in ``_expand_pool``.
"""

from __future__ import annotations

import functools
import gc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

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


@dataclass(frozen=True, slots=True)
class Token:
    id: str
    symbol: str
    decimals: int


@dataclass(frozen=True, slots=True)
class PoolDirection:
    """Per-direction curve parameters for a piecewise pool."""

    token_in: str
    token_out: str
    segments: Tuple[Segment, ...]


@dataclass(frozen=True, slots=True)
class Pool:
    id: str
    kind: str
    tokens: Tuple[str, ...]
    fee_bps: int
    reserves: Tuple[int, ...] = ()
    directions: Tuple[PoolDirection, ...] = ()

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


@dataclass(frozen=True, slots=True)
class Edge:
    pool_id: str
    token_in: str
    token_out: str
    fn: SwapFunction
    legs: Tuple["Edge", ...] = ()
    # derived, precomputed once: the search scans these in tight loops
    pool_ids: Tuple[str, ...] = field(init=False, compare=False, repr=False)
    rate_num: int = field(init=False, compare=False, repr=False)
    rate_den: int = field(init=False, compare=False, repr=False)
    spot: float = field(init=False, compare=False, repr=False)
    # derived on the first read, by the path search only
    ceiling: int = field(init=False, compare=False, repr=False)
    mobius: Optional[Tuple[float, float]] = field(init=False, compare=False,
                                                  repr=False)

    def __post_init__(self):
        ids = tuple(leg.pool_id for leg in self.legs) if self.legs \
            else (self.pool_id,)
        num, den = self.fn.spot_ratio()
        object.__setattr__(self, "pool_ids", ids)
        object.__setattr__(self, "rate_num", num)
        object.__setattr__(self, "rate_den", den)
        object.__setattr__(self, "spot", num / den)

    def _ceiling(self) -> int:
        """``ceiling``: the curve's ``output_ceiling``, a lazy slot."""
        return self.fn.output_ceiling()

    def _mobius(self) -> Optional[Tuple[float, float]]:
        """``mobius``: ``(a / c, d / c)`` when the curve is one map ``x ->
        a*x / (c*x + d)``, whose real output at x is ``a/c * x / (x +
        d/c)``, else None.

        A constant-product pool is one, with matrix ``[[k*R_out, 0], [k,
        10000*R_in]]`` (``k = 10000 - fee_bps``), and so is a composite of
        them: the legs' matrices multiply to the same shape.  A lazy slot:
        computed on the first read and kept in the slot, None included.
        """
        fn = self.fn
        parts = fn.parts if isinstance(fn, SequentialComposite) else (fn,)
        a, c, d = 1, 0, 1
        for part in parts:
            if not isinstance(part, ConstantProduct):
                return None
            k = BPS_DENOM - part.fee_bps
            r_in = BPS_DENOM * part.reserve_in
            # [[k*R_out, 0], [k, r_in]] . [[a, 0], [c, d]]
            a, c, d = k * part.reserve_out * a, k * a + r_in * c, r_in * d
        # int true division rounds correctly however large the coefficients
        return a / c, d / c

    __getattr__ = lazy_slots(mobius=_mobius, ceiling=_ceiling)


def spot_order(e: Edge) -> Tuple[float, str]:
    """The graph's one edge order: best spot rate first, then pool id."""
    return (-e.spot, e.pool_id)


class SwapGraph:
    """Immutable directed multigraph; vertices are tokens, edges swap legs."""

    def __init__(self, tokens: Dict[str, Token], pools: Dict[str, Pool],
                 edges: Iterable[Edge]):
        self._tokens = dict(tokens)
        self._pools = dict(pools)
        by_pair: Dict[str, Dict[str, List[Edge]]] = {}
        for e in edges:
            by_pair.setdefault(e.token_in, {}).setdefault(e.token_out, []).append(e)
        # most pairs of a real market have one edge: nothing to sort
        self._index({u: tuple([(v, tuple(es) if len(es) == 1
                                else tuple(sorted(es, key=spot_order)))
                               for v, es in sorted(row.items())])
                     for u, row in sorted(by_pair.items())})

    def _index(self, rows: Dict[str, Tuple[Tuple[str, Tuple[Edge, ...]], ...]]
               ) -> None:
        """Keep ``rows`` (tokens in id order, edges in spot order), derive
        the pair lookup and the edge count, and sort the token ids once."""
        self._rows = rows
        self._pairs = {u: dict(items) for u, items in rows.items()}
        self._edge_count = sum(sum(map(len, pair_map.values()))
                               for pair_map in self._pairs.values())
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

    def out_items(self, u: str) -> Tuple[Tuple[str, Tuple[Edge, ...]], ...]:
        """(neighbour, ``edges_between(u, neighbour)``) pairs, neighbour-sorted."""
        return self._rows.get(u, ())

    def in_arcs(self, v: str) -> Tuple[Tuple[str, float, int], ...]:
        """``pair_arc`` of every pair u -> v, tokens u in id order.  Unless
        ``build_graph`` made the graph, the first call works out whether
        every pair has its reverse, as every pool's edges do.  If so, each
        token's arcs are read from its own row when first asked for (two
        threads may both read one, to the same arcs); if not, every token's
        arcs are indexed at once."""
        arcs = self._in_arcs.get(v)
        if arcs is None:
            pairs = self._pairs
            if self._symmetric is None:
                symmetric = all(u in pairs.get(w, ())
                                for u, row in pairs.items() for w in row)
                if not symmetric:
                    self._in_arcs = in_arcs_of(self._rows)
                self._symmetric = symmetric
            if not self._symmetric:
                return self._in_arcs.get(v, ())
            arcs = self._in_arcs[v] = tuple(
                [pair_arc(u, pairs[u][v]) for u, _ in self.out_items(v)])
        return arcs


def in_arcs_of(rows: Dict[str, Iterable[Tuple[str, Tuple[Edge, ...]]]]
               ) -> Dict[str, Tuple[Tuple[str, float, int], ...]]:
    """The ``pair_arc`` of every pair ``u -> v`` in ``rows`` (token u ->
    its ``(v, edges)`` pairs), per token v, in the rows' order of u."""
    into: Dict[str, List[Tuple[str, float, int]]] = {}
    for u, items in rows.items():
        for v, candidates in items:
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
    ctx = f"pool {pool.id!r}"
    if len(pool.tokens) < 2:
        raise MalformedSnapshotError(f"{ctx}: needs at least two tokens")
    if len(set(pool.tokens)) != len(pool.tokens):
        raise MalformedSnapshotError(f"{ctx}: duplicate token in pool")
    for t in pool.tokens:
        if t not in token_ids:
            raise MalformedSnapshotError(f"{ctx}: dangling token id {t!r}")
    if pool.kind == KIND_CONSTANT_PRODUCT:
        if len(pool.reserves) != len(pool.tokens):
            raise MalformedSnapshotError(f"{ctx}: reserves/tokens length mismatch")
    elif pool.kind == KIND_PIECEWISE:
        if len(pool.tokens) != 2:
            raise MalformedSnapshotError(f"{ctx}: piecewise pools are two-token")
        pairs = {(d.token_in, d.token_out) for d in pool.directions}
        a, b = pool.tokens
        if len(pool.directions) != 2 or pairs != {(a, b), (b, a)}:
            raise MalformedSnapshotError(f"{ctx}: needs both directions exactly once")
    else:
        raise MalformedSnapshotError(f"{ctx}: unknown pool kind {pool.kind!r}")


@gc_paused
def build_graph(tokens: Iterable[Token], pools: Iterable[Pool]) -> SwapGraph:
    """Expand a snapshot into the directed multigraph.

    Raises MalformedSnapshotError when an entry breaks a structure rule
    (``add_token``, ``add_pool``) or a curve rule (``_expand_pool``).
    Deterministic: identical snapshots produce identical adjacency orderings.
    """
    token_map: Dict[str, Token] = {}
    for t in tokens:
        add_token(token_map, t)
    pool_map: Dict[str, Pool] = {}
    edges: List[Edge] = []
    for p in pools:
        add_pool(pool_map, token_map, p)
        edges.extend(_expand_pool(p))
    g = SwapGraph(token_map, pool_map, edges)
    # every pool serves every ordered pair of its tokens (``_validate_pool``
    # holds a piecewise pool to both directions), so every pair has its
    # reverse and ``in_arcs`` need not check
    g._symmetric = True
    return g


def _subgraph(g: SwapGraph, tokens: Set[str]) -> SwapGraph:
    """The part of ``g`` on ``tokens``, sharing its rows and objects.

    Only valid when no pool has two tokens inside and one outside, so that an
    edge between kept tokens belongs to a kept pool.  Leaf pruning ensures it:
    every token of a live multi-token pool has two neighbours through it.
    The parent's rows are sorted and filtering keeps them sorted, so every
    ordering matches what ``build_graph`` gives the kept tokens and pools.
    """
    sub = SwapGraph.__new__(SwapGraph)
    sub._tokens = {t: g._tokens[t] for t in sorted(tokens)}
    sub._pools = {pid: p for pid, p in g._pools.items()
                  if all(t in tokens for t in p.tokens)}
    rows = {}
    for u, items in g._rows.items():
        if u in tokens:
            kept = tuple(item for item in items if item[0] in tokens)
            if kept:
                rows[u] = kept
    sub._index(rows)
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
