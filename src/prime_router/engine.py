"""Query orchestration: iterative path discovery, merge/expand, final solve.

A query runs in three stages.  Stage 0 (reusable across queries) selects hub
tokens, prunes leaf tokens, builds the shortcut index and a merged search
adjacency over hubs.  Stage 1 repeatedly asks the path search for the best
remaining route at the current price threshold, masks its pools so later
routes stay pool-disjoint, and refreshes the threshold by re-allocating over
everything found so far.  Stage 2 merges paths that share a token sequence,
widens every hop with unused parallel pools and better-priced shortcuts, runs
the allocator at full tolerance and emits an exact integer execution plan.

The plan leaves no dust: every hop's integer outputs feed the next hop in
full, and replaying the plan reproduces the reported output exactly
(``verify_solution`` re-checks all of it).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .allocation import (
    Allocation,
    AsgmParams,
    AsgmResult,
    MultiEdgePath,
    PlanStep,
    TraceRow,
    asgm,
    hop_amounts,
    integer_shares,
    path_marginal_real,
    single_to_multi,
)
from .errors import InvalidParamsError, NoRouteError, RoutingError
from .graph import Edge, SwapGraph, prune_leaf_tokens
from .pathfind import SearchStats, SinglePath, find_path
from .preprocess import ShortcutIndex, build_shortcut_index, select_hubs

log = logging.getLogger("prime_router.engine")


@dataclass(frozen=True)
class ShortcutConfig:
    enabled: bool = True
    max_intermediates: int = 2
    top_s: int = 3


@dataclass(frozen=True)
class RouteQuery:
    source: str
    target: str
    amount: int
    max_hops: int = 3
    hub_count: int = 50
    hub_metric: str = "degree"
    numeraire: Optional[str] = None
    explicit_hubs: Optional[Tuple[str, ...]] = None
    asgm_params: AsgmParams = field(default_factory=AsgmParams)
    shortcuts: ShortcutConfig = field(default_factory=ShortcutConfig)
    n_expand: int = 2

    def __post_init__(self):
        if self.source == self.target:
            raise ValueError("source and target must differ")
        if self.amount <= 0:
            raise ValueError("amount must be positive")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")


@dataclass
class RouteStats:
    find_path_calls: int = 0
    queue_pushes: int = 0
    swap_evals: int = 0
    asgm_iterations: int = 0
    paths_discovered: int = 0
    degraded: bool = False
    stage1_taus: List[float] = field(default_factory=list)
    stage1_objectives: List[int] = field(default_factory=list)


@dataclass
class RouteSolution:
    source: str
    target: str
    amount: int
    algorithm: str
    paths: Tuple[MultiEdgePath, ...]
    allocation: Allocation
    total_output: int
    tau: float
    execution_plan: Tuple[PlanStep, ...]
    stats: RouteStats
    trace: List[TraceRow]
    disjoint: bool = True


class _Overlay:
    """Search adjacency: core rows plus per-query source/target attachments."""

    def __init__(self, rows: Dict[str, Tuple[Tuple[str, Tuple[Edge, ...]], ...]]):
        self._rows = rows

    def token_ids(self) -> Tuple[str, ...]:
        """Tokens with outgoing edges in this overlay."""
        return tuple(self._rows)

    def out_items(self, u: str):
        return self._rows.get(u, ())


def _merge_candidates(*groups: Sequence[Edge]) -> Tuple[Edge, ...]:
    merged: List[Edge] = []
    for g in groups:
        merged.extend(g)
    return tuple(sorted(merged, key=lambda e: (-e.spot, e.pool_id)))


# the RouteQuery fields that stage 0 is built from
_STAGE0_FIELDS = ("hub_count", "hub_metric", "numeraire", "explicit_hubs",
                  "shortcuts")


@dataclass
class PreparedRouting:
    """Stage-0 artifacts, reusable for every query with the same config."""

    graph: SwapGraph
    pruned: SwapGraph
    hubs: Tuple[str, ...]
    shortcut_index: Optional[ShortcutIndex]
    core_rows: Dict[str, Tuple[Tuple[str, Tuple[Edge, ...]], ...]]
    config: Dict[str, object]


def prepare_routing(g: SwapGraph, query: RouteQuery) -> PreparedRouting:
    """Build hub set, pruned graph, shortcut index and hub-core adjacency."""
    hubs = select_hubs(g, query.hub_count, query.hub_metric,
                       numeraire=query.numeraire, explicit=query.explicit_hubs)
    pruned = prune_leaf_tokens(g, protected=hubs)
    index = None
    if query.shortcuts.enabled:
        index = build_shortcut_index(pruned, hubs,
                                     query.shortcuts.max_intermediates,
                                     query.shortcuts.top_s)
    hub_set = set(hubs)
    rows: Dict[str, Tuple[Tuple[str, Tuple[Edge, ...]], ...]] = {}
    for u in hubs:
        items: List[Tuple[str, Tuple[Edge, ...]]] = []
        composite_pairs = set()
        if index is not None:
            composite_pairs = {pair[1] for pair in index.pairs() if pair[0] == u}
        for v, candidates in g.out_items(u):
            if v not in hub_set:
                continue
            if v in composite_pairs:
                extras = [sc.as_edge(rank) for rank, sc
                          in enumerate(index.get(u, v))]
                items.append((v, _merge_candidates(candidates, extras)))
                composite_pairs.discard(v)
            else:
                items.append((v, candidates))
        for v in sorted(composite_pairs):
            extras = [sc.as_edge(rank) for rank, sc in enumerate(index.get(u, v))]
            items.append((v, _merge_candidates(extras)))
        items.sort(key=lambda it: it[0])
        rows[u] = tuple(items)
    log.debug("prepared routing: %d hubs, %d shortcuts", len(hubs),
              len(index) if index is not None else 0)
    config = {f: getattr(query, f) for f in _STAGE0_FIELDS}
    return PreparedRouting(graph=g, pruned=pruned, hubs=hubs,
                           shortcut_index=index, core_rows=rows, config=config)


def _query_overlay(prep: PreparedRouting, source: str, target: str) -> _Overlay:
    g = prep.graph
    hub_set = set(prep.hubs)
    keep = hub_set | {target}
    rows = dict(prep.core_rows)
    if source not in hub_set:
        items = [(v, candidates) for v, candidates in g.out_items(source)
                 if v in keep]
        rows[source] = tuple(items)
    if target not in hub_set:
        # target gains inbound edges from every core vertex
        for u in list(hub_set | {source}):
            extra = g.edges_between(u, target)
            if not extra:
                continue
            existing = {v: c for v, c in rows.get(u, ())}
            existing[target] = _merge_candidates(extra)
            rows[u] = tuple(sorted(existing.items()))
    return _Overlay(rows)


def merge_and_expand(singles: Sequence[SinglePath],
                     stage1_weights: Sequence[float],
                     g: SwapGraph,
                     shortcut_index: Optional[ShortcutIndex],
                     used_pools: Set[str],
                     n_expand: int = 2
                     ) -> Tuple[List[MultiEdgePath], List[List[List[float]]]]:
    """Merge same-token-sequence paths; widen hops with unused liquidity.

    Merged hops keep the discovered edges' relative stage-1 weights; every
    edge added here (parallel pools ranked by spot price, plus shortcut
    replacements between hub pairs that beat every existing edge) starts at
    weight zero.  ``used_pools`` is extended with everything added so the
    solution stays pool-disjoint by construction.
    """
    groups: Dict[Tuple[str, ...], List[int]] = {}
    for i, sp in enumerate(singles):
        groups.setdefault(sp.tokens, []).append(i)

    hub_set = set(shortcut_index.hubs) if shortcut_index is not None else set()
    paths: List[MultiEdgePath] = []
    init_weights: List[List[List[float]]] = []
    for token_seq, members in groups.items():
        n_hops = len(token_seq) - 1
        hop_edges: List[List[Edge]] = [[] for _ in range(n_hops)]
        hop_w: List[List[float]] = [[] for _ in range(n_hops)]
        mass = [stage1_weights[i] for i in members]
        if sum(mass) <= 0.0:
            mass = [1.0] * len(members)
        total = sum(mass)
        for m, i in zip(mass, members):
            for j, e in enumerate(singles[i].edges):
                hop_edges[j].append(e)
                hop_w[j].append(m / total)
        for j in range(n_hops):
            u, v = token_seq[j], token_seq[j + 1]
            present = {pid for e in hop_edges[j] for pid in e.pool_ids}
            candidates = [e for e in g.edges_between(u, v)
                          if e.pool_id not in used_pools
                          and e.pool_id not in present]
            candidates.sort(key=lambda e: (-e.spot, e.pool_id))
            for e in candidates[:max(0, n_expand)]:
                hop_edges[j].append(e)
                hop_w[j].append(0.0)
                used_pools.add(e.pool_id)
            if shortcut_index is not None and u in hub_set and v in hub_set:
                # offer the best still-unused shortcut that beats every edge
                # already on the hop; one per hop bounds the simplex size the
                # same way n_expand does for parallel pools
                best_existing = max(e.spot for e in hop_edges[j])
                for rank, sc in enumerate(shortcut_index.get(u, v)):
                    if sc.spot_rate <= best_existing:
                        continue
                    if any(p in used_pools for p in sc.pool_ids):
                        continue
                    if any(tok in token_seq for tok in sc.interior):
                        continue
                    hop_edges[j].append(sc.as_edge(rank))
                    hop_w[j].append(0.0)
                    used_pools.update(sc.pool_ids)
                    break
        paths.append(MultiEdgePath(tuple(tuple(h) for h in hop_edges)))
        init_weights.append(hop_w)
    return paths, init_weights


def build_execution_plan(paths: Sequence[MultiEdgePath],
                         allocation: Allocation,
                         x: int) -> Tuple[Tuple[PlanStep, ...], int]:
    """Flatten the allocation into exact per-pool steps; returns total output.

    Shortcut composite edges expand into their member legs, chained so each
    leg consumes the previous leg's full output.
    """
    steps: List[PlanStep] = []
    total = 0
    shares = integer_shares(allocation.path_weights, x)
    for path, hop_w, share in zip(paths, allocation.edge_weights, shares):
        total += hop_amounts(path, hop_w, share, steps)[-1]
    return tuple(steps), total


def prime(g: SwapGraph, query: RouteQuery,
          prepared: Optional[PreparedRouting] = None) -> RouteSolution:
    """Full two-stage routing for one query.

    Raises NoRouteError when discovery accepts zero paths, and
    InvalidParamsError when ``prepared`` was built from a query whose stage-0
    fields differ from this one's.
    """
    if not g.has_token(query.source) or not g.has_token(query.target):
        raise NoRouteError("source or target token not in graph")
    prep = prepared if prepared is not None else prepare_routing(g, query)
    differ = [f for f, v in prep.config.items() if getattr(query, f) != v]
    if differ:
        raise InvalidParamsError("stage 0 was prepared with a different "
                                 + ", ".join(differ))
    overlay = _query_overlay(prep, query.source, query.target)
    params = query.asgm_params
    # the stage-1 refreshes only need tau at the precision that gates path
    # acceptance (basis points); full tolerance is reserved for stage 2
    stage1_params = replace(params,
                            eps_rel=max(params.eps_rel * 100.0, 1e-4),
                            t_max=min(params.t_max, 200))
    stats = RouteStats()
    used: Set[str] = set()
    singles: List[SinglePath] = []
    tau = 0.0
    stage1_result: Optional[AsgmResult] = None
    while True:
        search = SearchStats()
        found = find_path(overlay, query.source, query.target, query.amount,
                          tau, query.max_hops, frozenset(used), search)
        stats.find_path_calls += 1
        stats.queue_pushes += search.pushes
        stats.swap_evals += search.swap_evals
        if found is None:
            break
        if singles and found.spot_rate <= tau:
            break
        singles.append(found)
        used.update(found.pool_ids)
        # warm-start the refresh from the previous equilibrium with the
        # newcomer at weight zero: the start replays the old optimum exactly,
        # so the refreshed objective can only climb from there
        warm = None
        if stage1_result is not None:
            warm = list(stage1_result.allocation.path_weights) + [0.0]
        stage1_result = asgm([single_to_multi(p) for p in singles],
                             query.amount, stage1_params,
                             initial_path_weights=warm)
        stats.asgm_iterations += stage1_result.iterations
        tau = stage1_result.tau
        stats.stage1_taus.append(tau)
        stats.stage1_objectives.append(stage1_result.trace[-1].objective)
    if not singles:
        raise NoRouteError(
            f"no path from {query.source!r} to {query.target!r}")
    stats.paths_discovered = len(singles)

    stage1_w = list(stage1_result.allocation.path_weights) if stage1_result \
        else [1.0]
    multi, init_w = merge_and_expand(singles, stage1_w, prep.pruned,
                                     prep.shortcut_index, used, query.n_expand)
    final = asgm(multi, query.amount, params, initial_edge_weights=init_w)
    stats.asgm_iterations += final.iterations
    stats.degraded = final.degraded

    allocation = final.allocation
    plan, total = build_execution_plan(multi, allocation, query.amount)
    tau = final.tau

    # The allocator converges to a tolerance, not exactly; a discovered path
    # probed at the full amount is an exact lower bound, so fall back to it
    # when integer rounding leaves the relaxed solution behind.
    best_i = max(range(len(singles)), key=lambda i: singles[i].output)
    if singles[best_i].output > total:
        allocation, plan, total, tau = _degenerate_solution(
            multi, singles[best_i], query.amount)
        log.debug("fell back to single-path allocation (%d > %d)",
                  singles[best_i].output, total)

    return RouteSolution(source=query.source, target=query.target,
                         amount=query.amount, algorithm="prime", paths=tuple(multi),
                         allocation=allocation, total_output=total, tau=tau,
                         execution_plan=plan, stats=stats,
                         trace=final.trace, disjoint=True)


def _degenerate_solution(multi: Sequence[MultiEdgePath], single: SinglePath,
                         x: int):
    """Allocation putting the whole amount on one discovered path."""
    target_pools = single.pool_ids
    path_weights = []
    edge_weights = []
    chosen = None
    for p in multi:
        hops_w = []
        is_home = all(any(e.pool_ids == single.edges[j].pool_ids
                          for e in p.hops[j]) for j in range(len(p.hops))) \
            and p.tokens == single.tokens
        for j, hop in enumerate(p.hops):
            if is_home and chosen is None:
                w = [1.0 if e.pool_ids == single.edges[j].pool_ids else 0.0
                     for e in hop]
            else:
                w = [1.0 / len(hop)] * len(hop)
            hops_w.append(tuple(w))
        edge_weights.append(tuple(hops_w))
        if is_home and chosen is None:
            chosen = len(edge_weights) - 1
        path_weights.append(0.0)
    if chosen is None:
        raise RoutingError("discovered path lost during merge")
    path_weights[chosen] = 1.0
    allocation = Allocation(tuple(path_weights), tuple(edge_weights))
    plan, total = build_execution_plan(multi, allocation, x)
    tau = max(path_marginal_real(p, allocation.edge_weights[i],
                                 allocation.path_weights[i] * x)
              for i, p in enumerate(multi))
    return allocation, plan, total, tau


@dataclass
class AuditReport:
    violations: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_solution(sol: RouteSolution, g: SwapGraph) -> AuditReport:
    """Replay the plan with exact integers and audit the routing contracts.

    Checks pool-disjointness, full input conservation, zero residual at every
    intermediate token, per-step output agreement and the reported total.
    """
    violations: List[str] = []
    seen_pools: Set[str] = set()
    for step in sol.execution_plan:
        if step.pool_id in seen_pools:
            violations.append(f"pool {step.pool_id!r} used more than once")
        seen_pools.add(step.pool_id)

    balances: Dict[str, int] = {sol.source: sol.amount}
    for i, step in enumerate(sol.execution_plan):
        edge = None
        for e in g.edges_between(step.token_in, step.token_out):
            if e.pool_id == step.pool_id:
                edge = e
                break
        if edge is None:
            violations.append(f"step {i}: no edge {step.token_in}->"
                              f"{step.token_out} in pool {step.pool_id!r}")
            continue
        have = balances.get(step.token_in, 0)
        if step.amount_in > have:
            violations.append(f"step {i}: overdraft of {step.token_in!r} "
                              f"({step.amount_in} > {have})")
        balances[step.token_in] = have - step.amount_in
        out = edge.fn.swap_out(step.amount_in)
        if out != step.min_out:
            violations.append(f"step {i}: re-simulated output {out} != "
                              f"declared {step.min_out}")
        balances[step.token_out] = balances.get(step.token_out, 0) + out

    for token, bal in sorted(balances.items()):
        if token == sol.target:
            continue
        if bal != 0:
            violations.append(f"residual {bal} of {token!r} stranded")
    got = balances.get(sol.target, 0)
    if got != sol.total_output:
        violations.append(f"replayed output {got} != reported "
                          f"{sol.total_output}")
    return AuditReport(tuple(violations))
