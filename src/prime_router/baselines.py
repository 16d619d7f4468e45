"""Comparison algorithms and ground-truth oracles.

``best_single_path`` routes everything down the one best route (the
no-splitting reference).  ``grid_oracle`` exhaustively maximizes the exact
integer objective over a simplex lattice; because the objective is separable
across pool-disjoint paths, the lattice argmax is computed with a dynamic
program over per-path value tables instead of enumerating the whole lattice,
which is what makes fine resolutions affordable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .allocation import (
    Allocation,
    MultiEdgePath,
    objective,
    path_marginal_real,
    path_output,
    single_to_multi,
)
from .engine import (
    RouteQuery,
    RouteSolution,
    RouteStats,
    build_execution_plan,
)
from .errors import InvalidParamsError, NoRouteError, TooManyPathsError
from .graph import SwapGraph, prune_leaf_tokens
from .pathfind import SearchStats, find_path


def best_single_path(g: SwapGraph, query: RouteQuery) -> RouteSolution:
    """Highest-output single route at the full amount, no splitting."""
    if not g.has_token(query.source) or not g.has_token(query.target):
        raise NoRouteError("source or target token not in graph")
    pruned = prune_leaf_tokens(g, protected={query.source, query.target})
    stats = SearchStats()
    found = find_path(pruned, query.source, query.target, query.amount,
                      0.0, query.max_hops, frozenset(), stats)
    if found is None:
        raise NoRouteError(
            f"no path from {query.source!r} to {query.target!r}")
    path = single_to_multi(found)
    allocation = Allocation((1.0,), (tuple((1.0,) for _ in path.hops),))
    plan, total = build_execution_plan([path], allocation, query.amount)
    tau = path_marginal_real(path, allocation.edge_weights[0],
                             float(query.amount))
    rstats = RouteStats(find_path_calls=1, queue_pushes=stats.pushes,
                        queue_pops=stats.pops, swap_evals=stats.swap_evals,
                        paths_discovered=1)
    return RouteSolution(source=query.source, target=query.target,
                         amount=query.amount, algorithm="osp",
                         paths=(path,), allocation=allocation,
                         total_output=total, tau=tau, execution_plan=plan,
                         stats=rstats, trace=[])


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
