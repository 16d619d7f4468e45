"""Ground-truth oracles the tests check the engine against.

``enumerate_paths_oracle`` lists every simple pool-distinct path on a tiny
graph, the exhaustive reference for ``find_path``.  ``rate_table_oracle``
builds the search's bound rows forward, relaxing every arc of the view once
per row, the reference for their backward build.  ``unbounded_find_path``
is ``find_path`` with those rows' values all infinite, the reference for the
bound and for the search's order at any size.  ``grid_oracle``
exhaustively maximizes the exact integer objective over a simplex lattice;
because the objective is separable across pool-disjoint paths, the lattice
argmax is computed with a dynamic program over per-path value tables instead
of enumerating the whole lattice, which is what makes fine resolutions
affordable.  The enumerator and the grid oracle refuse inputs beyond their
size guards.  ``snapshot_text_oracle`` is a snapshot's canonical text made in
one ``json.dumps`` of a dict tree of every entry, the reference for the
streamed writer.  ``hubs_oracle`` and ``prune_oracle`` read a market's
pools, which the graph does not keep: the references for the hub ranking
and the leaf prune, which read the graph's rows.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import (Collection, Dict, FrozenSet, List, Optional, Sequence,
                    Tuple)
from unittest import mock

from prime_router.allocation import MultiEdgePath, objective, path_output
from prime_router.errors import InvalidParamsError, RoutingError
from prime_router.graph import (KIND_CONSTANT_PRODUCT, Edge, Pool, SwapGraph,
                                Token, build_graph)
from prime_router.io import Snapshot
from prime_router.pathfind import SearchContext, SinglePath, find_path

ORACLE_MAX_TOKENS = 16


class GraphTooLargeError(RoutingError):
    """Exhaustive oracle invoked on a graph beyond its hard size guard."""


class TooManyPathsError(RoutingError):
    """Grid oracle invoked with more paths than its combinatorial guard."""


def enumerate_paths_oracle(g: SwapGraph, source: str, target: str,
                           max_hops: int) -> Tuple[Tuple[Edge, ...], ...]:
    """All simple pool-distinct paths up to max_hops, deterministic order.

    Guarded to tiny graphs because the count explodes.
    """
    if len(g.tokens) > ORACLE_MAX_TOKENS:
        raise GraphTooLargeError(
            f"oracle limited to {ORACLE_MAX_TOKENS} tokens, got {len(g.tokens)}")
    if source == target:
        raise ValueError("source and target must differ")
    out: List[Tuple[Edge, ...]] = []

    def walk(token, edges, visited, pools):
        if token == target:
            out.append(edges)
            return
        if len(edges) >= max_hops:
            return
        for v, _ in g.out_items(token):
            if v in visited:
                continue
            for e in g.edges_between(token, v):
                if e.pool_id in pools:
                    continue
                walk(v, edges + (e,), visited | {v}, pools | {e.pool_id})

    walk(source, (), {source}, frozenset())
    return tuple(out)


def rate_table_oracle(view, target: str, max_hops: int
                      ) -> Tuple[List[Dict[str, float]], List[Dict[str, float]]]:
    """``pathfind._rate_table``'s ``(rate, cap)``, relaxed forward.

    Every arc ``u -> v`` of the view (``token_ids``, ``out_items``; none
    leaves the target) is relaxed once per row from the row before, so the
    rows come from the same float products as a backward build, in another
    order, and must equal it exactly.
    """
    tokens = view.token_ids()
    arcs = [(u, v, candidates[0].spot, max(e.ceiling for e in candidates))
            for u in tokens if u != target
            for v, candidates in view.out_items(u)]
    rate = [{target: 1.0}]
    cap = [{target: math.inf}]
    for _ in range(1, min(max_hops, len(tokens))):
        prev_rate, prev_cap = rate[-1], cap[-1]
        row_rate, row_cap = dict(prev_rate), dict(prev_cap)
        for u, v, spot, ceiling in arcs:
            tail = prev_rate.get(v)
            if tail is None:
                continue
            through = tail * spot
            if through > row_rate.get(u, 0.0):
                row_rate[u] = through
            bound = min(ceiling * tail, prev_cap[v])
            if bound > row_cap.get(u, -1.0):
                row_cap[u] = bound
        rate.append(row_rate)
        cap.append(row_cap)
    return rate, cap


def unbounded_find_path(view, source: str, target: str, amount: int,
                        tau: float, max_hops: int,
                        rows: Tuple[List[Dict[str, float]],
                                    List[Dict[str, float]]],
                        masked_pools: FrozenSet[str] = frozenset()
                        ) -> Optional[SinglePath]:
    """``find_path`` with no bound: ``rows``, the view's ``(rate, cap)`` for
    ``target`` and ``max_hops`` (``rate_table_oracle``'s), keep their keys
    (which tokens reach the target within r hops) and get every value set
    to infinity, so no rate or ceiling prunes a state.

    The last-hop bound (``pathfind._last_hop``) reads infinite too.  Every
    state's bound is then infinite, so the heap pops in push order and
    never stops early: this is the first-in-first-out search, kept as the
    reference for the bounded search's order."""
    context = SearchContext(view, target, max_hops)
    context._rows = tuple([dict.fromkeys(row, math.inf) for row in table]
                          for table in rows)
    with mock.patch("prime_router.pathfind._last_hop",
                    lambda *args: math.inf):
        return find_path(view, source, target, amount, tau, max_hops,
                         masked_pools, context=context)


@dataclass(frozen=True)
class GridSpec:
    step: float = 0.01
    max_paths: int = 4

    def __post_init__(self):
        if not (0.0 < self.step <= 0.1):
            raise InvalidParamsError("step must be in (0, 0.1]")
        n = round(1.0 / self.step)
        if abs(n * self.step - 1.0) > 1e-9:
            raise InvalidParamsError("1/step must be an integer")
        if not (1 <= self.max_paths <= 4):
            raise InvalidParamsError("max_paths must be in 1..4")

    @property
    def resolution(self) -> int:
        return round(1.0 / self.step)


@dataclass
class GridResult:
    weights: Tuple[float, ...]
    edge_weights: Tuple[Tuple[Tuple[float, ...], ...], ...]
    output: int


def _hop_weight_grids(path: MultiEdgePath, resolution: int):
    """Lattice of per-hop weight vectors for every multi-edge hop."""
    per_hop = []
    for hop in path.hops:
        if len(hop) == 1:
            per_hop.append([(1.0,)])
            continue
        combos = []
        for cuts in itertools.combinations_with_replacement(
                range(resolution + 1), len(hop) - 1):
            ks = []
            prev = 0
            for c in cuts:
                ks.append(c - prev)
                prev = c
            ks.append(resolution - prev)
            combos.append(tuple(k / resolution for k in ks))
        per_hop.append(combos)
    return per_hop


def _path_value_table(path: MultiEdgePath, x: int, spec: GridSpec
                      ) -> Tuple[List[int], List[Tuple[Tuple[float, ...], ...]]]:
    """Best exact output (and the hop weights achieving it) per share point."""
    n = spec.resolution
    values: List[int] = []
    choices: List[Tuple[Tuple[float, ...], ...]] = []
    multi = any(len(h) > 1 for h in path.hops)
    if not multi:
        hw = tuple((1.0,) for _ in path.hops)
        for k in range(n + 1):
            values.append(path_output(path, hw, x * k // n))
            choices.append(hw)
        return values, choices
    grids = _hop_weight_grids(path, n)
    for k in range(n + 1):
        share = x * k // n
        best = -1
        best_hw = None
        for combo in itertools.product(*grids):
            out = path_output(path, combo, share)
            if out > best:
                best, best_hw = out, combo
        values.append(best)
        choices.append(best_hw)
    return values, choices


def grid_oracle(paths: Sequence[MultiEdgePath], x: int,
                spec: GridSpec = GridSpec()) -> GridResult:
    """Exact-integer argmax over the simplex lattice of resolution ``step``.

    Separability across pool-disjoint paths turns the lattice search into a
    dynamic program over per-path value tables, run in exact integers at
    every output size; among equal sums it keeps the first (smallest) share
    for the newest path.  The winning lattice point is re-scored with
    the official objective (which routes the flooring remainder) over its
    +-1 lattice neighbourhood; ties prefer the lexicographically smallest
    weight vector.
    """
    if not paths:
        raise InvalidParamsError("need at least one path")
    if len(paths) > spec.max_paths:
        raise TooManyPathsError(
            f"{len(paths)} paths exceeds guard {spec.max_paths}")
    n = spec.resolution
    tables = []
    choices = []
    for p in paths:
        v, c = _path_value_table(p, x, spec)
        tables.append(v)
        choices.append(c)

    ks = _dp_argmax(tables, n)

    # Exact re-score around the DP point under the official remainder rule.
    best_key = None
    best = None
    for cand in _lattice_neighbourhood(ks, n):
        weights = tuple(k / n for k in cand)
        hw = tuple(choices[i][cand[i]] for i in range(len(paths)))
        out = objective(paths, weights, hw, x)
        key = (-out, weights)
        if best_key is None or key < best_key:
            best_key = key
            best = GridResult(weights, hw, out)
    return best


def _dp_argmax(tables: List[List[int]], n: int) -> List[int]:
    """Lattice shares ``ks`` (summing to ``n``) maximizing the table sum."""
    best = list(tables[0])
    parents = []
    for i in range(1, len(tables)):
        t = tables[i]
        new_best = [0] * (n + 1)
        parent = [0] * (n + 1)
        # the backtrack starts from j = n, so the last table needs only it
        for j in range(n + 1) if i + 1 < len(tables) else (n,):
            # sums[k] = best[j - k] + t[k]; index() takes the first maximum
            sums = [a + b for a, b in zip(best[j::-1], t)]
            new_best[j] = max(sums)
            parent[j] = sums.index(new_best[j])
        best = new_best
        parents.append(parent)
    ks = []
    j = n
    for parent in reversed(parents):
        k = parent[j]
        ks.append(k)
        j -= k
    ks.append(j)
    ks.reverse()
    return ks


def _lattice_neighbourhood(ks: List[int], n: int):
    yield tuple(ks)
    m = len(ks)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if ks[i] + 1 <= n and ks[j] - 1 >= 0:
                cand = list(ks)
                cand[i] += 1
                cand[j] -= 1
                yield tuple(cand)


def snapshot_text_oracle(s: Snapshot) -> str:
    """The canonical text of ``s``: one dict tree of every entry, dumped
    with sorted keys and compact separators, plus a newline."""
    pools = []
    for p in s.pools:
        entry = {"id": p.id, "kind": p.kind, "tokens": list(p.tokens),
                 "fee_bps": p.fee_bps}
        if p.kind == KIND_CONSTANT_PRODUCT:
            entry["reserves"] = [str(r) for r in p.reserves]
        else:
            entry["directions"] = [
                {"token_in": d.token_in, "token_out": d.token_out,
                 "segments": [
                     {"capacity_in": str(seg.capacity_in),
                      "virtual_reserve_in": str(seg.virtual_reserve_in),
                      "virtual_reserve_out": str(seg.virtual_reserve_out)}
                     for seg in d.segments]}
                for d in p.directions]
        pools.append(entry)
    tree = {"version": s.version, "block_ref": s.block_ref,
            "tokens": [{"id": t.id, "symbol": t.symbol, "decimals": t.decimals}
                       for t in s.tokens],
            "pools": pools}
    return json.dumps(tree, sort_keys=True, separators=(",", ":")) + "\n"


def hubs_oracle(pools: Sequence[Pool], token_ids: Collection[str], k: int
                ) -> Tuple[str, ...]:
    """The k tokens in the most pools, ties on token id."""
    count = dict.fromkeys(token_ids, 0)
    for p in pools:
        for t in p.tokens:
            count[t] += 1
    return tuple(sorted(count, key=lambda t: (-count[t], t))[:k])


def prune_oracle(tokens: Sequence[Token], pools: Sequence[Pool],
                 protected: Collection[str]) -> SwapGraph:
    """Round-based leaf pruning over the pools: each round drops every
    unprotected token that the pools among the survivors join to at most
    one other; the survivors are rebuilt with ``build_graph``."""
    alive = {t.id for t in tokens}
    while True:
        neighbors: Dict[str, set] = {t: set() for t in alive}
        for p in pools:
            if alive.issuperset(p.tokens):
                for t in p.tokens:
                    neighbors[t].update(u for u in p.tokens if u != t)
        drop = {t for t in alive
                if t not in protected and len(neighbors[t]) <= 1}
        if not drop:
            break
        alive -= drop
    return build_graph(sorted((t for t in tokens if t.id in alive),
                              key=lambda t: t.id),
                       [p for p in pools if alive.issuperset(p.tokens)])
