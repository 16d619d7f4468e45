"""Comparison algorithms and ground-truth oracles.

``best_single_path`` routes everything down the one best route (the
no-splitting reference).  ``prime_flow`` relaxes pool-disjointness: it keeps a
mutable copy of the pool states, repeatedly finds the best augmenting route on
the residual market and ternary-searches the split ratio between the retained
flow and the newcomer.  ``grid_oracle`` exhaustively maximizes the exact
integer objective over a simplex lattice; because the objective is separable
across pool-disjoint paths, the lattice argmax is computed with a dynamic
program over per-path value tables instead of enumerating the whole lattice,
which is what makes fine resolutions affordable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

from .allocation import (
    Allocation,
    MultiEdgePath,
    PlanStep,
    integer_shares,
    objective,
    path_marginal_real,
    path_output,
    single_to_multi,
)
from .cfmm import PiecewiseLiquidity, Segment, cp_swap_out
from .engine import (
    RouteQuery,
    RouteSolution,
    RouteStats,
    build_execution_plan,
)
from .errors import InvalidParamsError, NoRouteError, TooManyPathsError
from .graph import (
    KIND_CONSTANT_PRODUCT,
    Pool,
    PoolDirection,
    SwapGraph,
    prune_leaf_tokens,
    replace_pools,
)
from .pathfind import SearchStats, SinglePath, find_path

TERNARY_TOL = 1e-6
TERNARY_MAX_ITERS = 100
FLOW_MAX_PATHS = 16


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
                        swap_evals=stats.swap_evals, paths_discovered=1)
    return RouteSolution(source=query.source, target=query.target,
                         amount=query.amount, algorithm="osp",
                         paths=(path,), allocation=allocation,
                         total_output=total, tau=tau, execution_plan=plan,
                         stats=rstats, trace=[], disjoint=True)


class _FlowState:
    """Mutable pool copies; flow execution shifts reserves like on-chain swaps.

    A pool is copied on its first swap, so a reset only drops the copies.
    A constant-product copy maps token to reserve; a piecewise copy maps each
    direction to its [capacity, virtual in, virtual out] segment rows.
    """

    def __init__(self, g: SwapGraph):
        self._graph = g
        self._copies: Dict[str, dict] = {}

    def reset(self) -> None:
        self._copies.clear()

    def _copy(self, pool: Pool) -> dict:
        state = self._copies.get(pool.id)
        if state is None:
            if pool.kind == KIND_CONSTANT_PRODUCT:
                state = dict(zip(pool.tokens, pool.reserves))
            else:
                state = {(d.token_in, d.token_out):
                         [[s.capacity_in, s.virtual_reserve_in,
                           s.virtual_reserve_out] for s in d.segments]
                         for d in pool.directions}
            self._copies[pool.id] = state
        return state

    def swap(self, pool_id: str, token_in: str, token_out: str, x: int) -> int:
        pool = self._graph.pools[pool_id]
        state = self._copy(pool)
        if pool.kind == KIND_CONSTANT_PRODUCT:
            out = cp_swap_out(state[token_in], state[token_out], pool.fee_bps, x)
            state[token_in] += x
            state[token_out] -= out
            return out
        segs = state[(token_in, token_out)]
        remaining = x
        out = 0
        for s in segs:
            if s[0] == 0:
                continue
            take = remaining if remaining < s[0] else s[0]
            got = cp_swap_out(s[1], s[2], pool.fee_bps, take)
            s[0] -= take
            s[1] += take
            s[2] -= got
            out += got
            remaining -= take
            if remaining == 0:
                return out
        # Residual beyond capacity stays unswapped; callers probe with
        # find_path first, which already skips capacity-starved edges.
        return out

    def graph_view(self) -> SwapGraph:
        """Materialize the current reserve state as a graph.

        Partially consumed piecewise curves can fail the strict stitching
        checks by a rounding sliver; offending tail segments are dropped from
        the view (execution runs on the raw state, never through this graph).
        Only the pools a flow has touched are validated and expanded again;
        the others keep their edges.
        """
        pools = []
        for pid, state in self._copies.items():
            pool = self._graph.pools[pid]
            if pool.kind == KIND_CONSTANT_PRODUCT:
                pools.append(Pool(pid, pool.kind, pool.tokens, pool.fee_bps,
                                  tuple(state[t] for t in pool.tokens)))
            else:
                directions = []
                for d in pool.directions:
                    segs = [Segment(c, vi, vo) for c, vi, vo
                            in state[(d.token_in, d.token_out)] if c > 0]
                    while segs:
                        try:
                            PiecewiseLiquidity(tuple(segs), pool.fee_bps)
                            break
                        except ValueError:
                            segs.pop()
                    if not segs:
                        segs = [Segment(1, max(1, d.segments[-1].virtual_reserve_in), 1)]
                    directions.append(PoolDirection(d.token_in, d.token_out,
                                                    tuple(segs)))
                pools.append(Pool(pid, pool.kind, pool.tokens, pool.fee_bps,
                                  directions=tuple(directions)))
        return replace_pools(self._graph, pools)


def _execute_fractions(state: _FlowState, flows: Sequence[SinglePath],
                       fractions: Sequence[float], x: int) -> int:
    """Reset the market and run every flow at its integer share, in order."""
    state.reset()
    shares = integer_shares(fractions, x)
    total = 0
    for path, share in zip(flows, shares):
        cur = share
        for e in path.edges:
            if cur == 0:
                break
            cur = state.swap(e.pool_id, e.token_in, e.token_out, cur)
        total += cur
    return total


def _ternary_max(total_at: Callable[[float], int]) -> Tuple[float, int, int]:
    """Ternary-search the ratio in [0, 1] maximizing ``total_at``.

    Returns (ratio, total at the ratio, number of evaluations).
    """
    lo, hi = 0.0, 1.0
    it = 0
    while hi - lo > TERNARY_TOL and it < TERNARY_MAX_ITERS:
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if total_at(m1) < total_at(m2):
            lo = m1
        else:
            hi = m2
        it += 1
    lam = (lo + hi) / 2.0
    return lam, total_at(lam), 2 * it + 1


def prime_flow(g: SwapGraph, query: RouteQuery) -> RouteSolution:
    """Flow-relaxed routing: overlapping paths allowed, split by ternary search.

    Repeatedly finds the best route on the residual pool state, then searches
    the ratio moved from the retained flow onto the new route.  Stops when the
    newcomer cannot improve the total output.  Pool states are private copies;
    the shared graph stays untouched.  The result is not pool-disjoint.
    """
    if not g.has_token(query.source) or not g.has_token(query.target):
        raise NoRouteError("source or target token not in graph")
    pruned = prune_leaf_tokens(g, protected={query.source, query.target})
    state = _FlowState(pruned)
    stats = RouteStats()
    flows: List[SinglePath] = []
    fractions: List[float] = []
    best_total = 0
    evaluations = 0
    while len(flows) < FLOW_MAX_PATHS:
        view = state.graph_view() if flows else pruned
        search = SearchStats()
        # the first route carries the whole amount; augmenting routes are
        # ranked by marginal price, so probe the residual market small
        probe = query.amount if not flows else max(1, query.amount // 1024)
        found = find_path(view, query.source, query.target, probe,
                          0.0, query.max_hops, frozenset(), search)
        stats.find_path_calls += 1
        stats.queue_pushes += search.pushes
        stats.swap_evals += search.swap_evals
        if found is None:
            break
        if not flows:
            flows.append(found)
            fractions.append(1.0)
            best_total = _execute_fractions(state, flows, fractions, query.amount)
            evaluations += 1
            continue

        def total_at(lam: float) -> int:
            trial = [f * (1.0 - lam) for f in fractions] + [lam]
            return _execute_fractions(state, flows + [found], trial,
                                      query.amount)

        lam, candidate, spent = _ternary_max(total_at)
        evaluations += spent
        if candidate <= best_total:
            break
        fractions = [f * (1.0 - lam) for f in fractions] + [lam]
        flows.append(found)
        best_total = candidate
        # leave the state at the accepted solution for the next residual probe
        _execute_fractions(state, flows, fractions, query.amount)
        evaluations += 1
    if not flows:
        raise NoRouteError(
            f"no path from {query.source!r} to {query.target!r}")

    # the greedy split ratios do not coordinate; re-apply the same ternary
    # operator to each retained flow until no reallocation improves
    for _ in range(3):
        improved = False
        for i in range(len(flows)):
            rest = 1.0 - fractions[i]
            if rest <= 0.0:
                continue

            def total_with(lam: float, _i=i, _rest=rest) -> int:
                trial = [f * (1.0 - lam) / _rest for f in fractions]
                trial[_i] = lam
                return _execute_fractions(state, flows, trial, query.amount)

            lam, candidate, spent = _ternary_max(total_with)
            evaluations += spent
            if candidate > best_total:
                fractions = [f * (1.0 - lam) / rest for f in fractions]
                fractions[i] = lam
                best_total = candidate
                improved = True
        if not improved:
            break

    stats.paths_discovered = len(flows)
    stats.asgm_iterations = evaluations
    total = _execute_fractions(state, flows, fractions, query.amount)
    norm = sum(fractions)
    weights = tuple(f / norm for f in fractions)
    shares = integer_shares(weights, query.amount)
    state.reset()
    steps: List[PlanStep] = []
    for path, share in zip(flows, shares):
        cur = share
        for e in path.edges:
            if cur == 0:
                break
            out = state.swap(e.pool_id, e.token_in, e.token_out, cur)
            steps.append(PlanStep(e.pool_id, e.token_in, e.token_out, cur, out))
            cur = out
    paths = tuple(single_to_multi(p) for p in flows)
    allocation = Allocation(weights,
                            tuple(tuple((1.0,) for _ in p.hops) for p in paths))
    return RouteSolution(source=query.source, target=query.target,
                         amount=query.amount, algorithm="flow", paths=paths,
                         allocation=allocation, total_output=total,
                         tau=0.0, execution_plan=tuple(steps), stats=stats,
                         trace=[], disjoint=False)


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
