"""Query orchestration: iterative path discovery, merge/expand, final solve.

A query runs in three stages.  Stage 0 (reusable across queries) selects hub
tokens, builds the shortcut edges and the hub core: a ``SwapGraph`` of the
hub-to-hub pool edges and the shortcuts, the one home of both, which each
query overlays with the rows its endpoints add.  Stage 0 prunes no leaf
tokens: a token the prune drops hangs off the rest by at most one
neighbour, so no shortcut or simple path passes through it, and neither
routing nor ``best_single_path`` reads the pruned graph.
``PreparedRouting.pruned`` builds it on first read, for benchmark queries.

Stage 1 repeatedly asks the path search for the best remaining route at the
current price threshold, masks its pools so later routes stay pool-disjoint,
and refreshes the threshold from the exact split of the amount over
everything found so far: every discovered path has one edge per hop, so its
output curve is its edges' curves composed, and one water-fill over those
curves equalizes their marginal prices.  Its one stop rule is the search's
own: ``find_path`` returns only a path whose exact average rate
``output / amount`` is above the threshold, and stage 1 ends when none is
left.  A concave curve's spot rate is at least its average rate, so a
returned path also clears the threshold at the spot price.  Stage 2 merges
paths that share a token sequence, widens every hop with unused parallel
pools and better-priced shortcuts (read from the hub core), runs the
allocator and emits an exact integer execution plan.

The plan leaves no dust: every hop's integer outputs feed the next hop in
full, and replaying the plan reproduces the reported output exactly
(``verify_solution`` re-checks all of it).
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .allocation import (
    Allocation,
    AsgmParams,
    MultiEdgePath,
    PlanStep,
    TraceRow,
    asgm,
    integer_shares,
    path_marginals_real,
    path_output,
    single_to_multi,
    water_fill,
)
from .cfmm import SequentialComposite
from .errors import InvalidParamsError, NoRouteError
from .graph import Edge, SwapGraph, gc_paused, in_arcs_of, prune_leaf_tokens
from .pathfind import SearchContext, SearchStats, SinglePath, find_path
from .preprocess import build_shortcut_index, select_hubs

log = logging.getLogger("prime_router.engine")


@dataclass(frozen=True)
class RouteQuery:
    """One trade to route; ``asgm_params`` tune the stage-2 allocator."""

    source: str
    target: str
    amount: int
    max_hops: int = 3
    hub_count: int = 50
    explicit_hubs: Optional[Tuple[str, ...]] = None
    asgm_params: AsgmParams = field(default_factory=AsgmParams)

    def __post_init__(self):
        for name in ("amount", "max_hops", "hub_count"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise TypeError(
                    f"{name} must be an int, got {type(value).__name__}")
        if self.source == self.target:
            raise ValueError("source and target must differ")
        if self.amount <= 0:
            raise ValueError("amount must be positive")
        if self.max_hops < 1:
            raise ValueError("max_hops must be >= 1")


@dataclass
class RouteStats:
    """Work counts and outcome flags of one query.

    ``swap_evals`` counts the curve evaluations the searches actually ran:
    the searches of one query share their quotes, so a quote repeated
    within the query counts once.  ``quotes_skipped`` counts the quotes the
    searches' closed-form bound ruled out instead; a skip is not
    remembered, so a later search that rules out the same quote counts it
    again.  ``asgm_iterations``, ``converged`` and ``degraded`` are the
    stage-2 allocator's (the flags are False when no allocator ran);
    ``fallback`` is set when the allocation lost to the best discovered
    single path and was replaced by it, so that the result lists only that
    path.  Stage 1 records one ``tau`` and the exact integer objective of
    its split per accepted path.
    """

    find_path_calls: int = 0
    queue_pushes: int = 0
    queue_pops: int = 0
    swap_evals: int = 0
    quotes_skipped: int = 0
    asgm_iterations: int = 0
    paths_discovered: int = 0
    converged: bool = False
    degraded: bool = False
    fallback: bool = False
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


class _Overlay:
    """Search adjacency: the hub core's rows merged, in neighbour order,
    with the ``(v, edges)`` pairs a query adds (``added``: token -> pairs),
    read forward (``out_items``) and backward (``in_arcs``: the core's
    stage-0 in-arcs, then the added pairs' own, in ``added`` order)."""

    def __init__(self, core: SwapGraph,
                 added: Dict[str, List[Tuple[str, Tuple[Edge, ...]]]]):
        # the core's tokens are the hubs, in rank order
        rows = {h: core.out_items(h) for h in core.tokens}
        for u, pairs in added.items():
            rows[u] = tuple(sorted(rows.get(u, ()) + tuple(pairs)))
        self._rows = rows
        self._core = core
        self._added_in = in_arcs_of(added)

    def token_ids(self) -> Tuple[str, ...]:
        """Tokens with outgoing edges in this overlay."""
        return tuple(self._rows)

    def out_items(self, u: str):
        return self._rows.get(u, ())

    def in_arcs(self, v: str) -> Tuple[Tuple[str, float, int], ...]:
        return self._core.in_arcs(v) + self._added_in.get(v, ())


# the RouteQuery fields that stage 0 is built from
_STAGE0_FIELDS = ("hub_count", "explicit_hubs")


@dataclass
class PreparedRouting:
    """Stage-0 artifacts, reusable for every query with the same config.

    ``shortcut_index`` holds the shortcut edges that ``core`` also holds.
    """

    graph: SwapGraph
    hubs: Tuple[str, ...]
    shortcut_index: Tuple[Edge, ...]
    core: SwapGraph
    config: Dict[str, object]

    @cached_property
    def pruned(self) -> SwapGraph:
        """The graph without the leaf tokens no hub needs, built once, on
        first read; neither routing nor the checker reads it."""
        return prune_leaf_tokens(self.graph, protected=self.hubs)


@gc_paused
def prepare_routing(g: SwapGraph, query: RouteQuery) -> PreparedRouting:
    """Build hub set, shortcut edges and hub core."""
    started = time.perf_counter()
    hubs = select_hubs(g, query.hub_count, explicit=query.explicit_hubs)
    hubs_done = time.perf_counter()
    shortcuts = build_shortcut_index(g, hubs)
    shortcuts_done = time.perf_counter()
    hub_set = set(hubs)
    core_edges = [e for u in hubs for v, candidates in g.out_items(u)
                  if v in hub_set for e in candidates]
    core_edges.extend(shortcuts)
    # every query's overlay reads the core's in-arcs, each built once
    core = SwapGraph({h: g.tokens[h] for h in hubs}, {}, core_edges)
    log.debug("prepared routing: %d hubs, %d shortcuts, %d core edges; "
              "hubs %.3fs, shortcuts %.3fs, core rows %.3fs", len(hubs),
              len(shortcuts), core.edge_count, hubs_done - started,
              shortcuts_done - hubs_done, time.perf_counter() - shortcuts_done)
    config = {f: getattr(query, f) for f in _STAGE0_FIELDS}
    return PreparedRouting(graph=g, hubs=hubs, shortcut_index=shortcuts,
                           core=core, config=config)


def _query_overlay(prep: PreparedRouting, source: str, target: str) -> _Overlay:
    """The core plus a non-hub source's row to the hubs and the target, and
    every hub's edges into a non-hub target, the source's pairs first."""
    g = prep.graph
    hub_set = set(prep.hubs)
    added: Dict[str, List[Tuple[str, Tuple[Edge, ...]]]] = {}
    if source not in hub_set:
        keep = hub_set | {target}
        added[source] = [(v, candidates) for v, candidates
                         in g.out_items(source) if v in keep]
    if target not in hub_set:
        for u in prep.hubs:
            into = g.edges_between(u, target)
            if into:
                added[u] = [(target, into)]
    return _Overlay(prep.core, added)


# unused parallel pools offered per hop in stage 2, best spot price first
_N_EXPAND = 2


def merge_and_expand(singles: Sequence[SinglePath],
                     stage1_weights: Sequence[float],
                     g: SwapGraph,
                     core: SwapGraph,
                     used_pools: Set[str]
                     ) -> Tuple[List[MultiEdgePath], List[List[List[float]]]]:
    """Merge same-token-sequence paths; widen hops with unused liquidity.

    Merged hops keep the discovered edges' relative stage-1 weights; every
    edge added here (the best-spot unused parallel pools, plus a shortcut
    replacement between hub pairs that beats every existing edge) starts at
    weight zero.  Both are read in the graphs' own edge order, best spot
    first.  Shortcuts come from the hub core ``core``, which has rows only
    between hubs.  ``used_pools`` gains the paths' pools and everything
    added, so the solution stays pool-disjoint by construction.
    """
    used_pools.update(*(sp.pool_ids for sp in singles))
    groups: Dict[Tuple[str, ...], List[int]] = {}
    for i, sp in enumerate(singles):
        groups.setdefault(sp.tokens, []).append(i)

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
            candidates = [e for e in g.edges_between(u, v)
                          if e.pool_id not in used_pools]
            for e in candidates[:_N_EXPAND]:
                hop_edges[j].append(e)
                hop_w[j].append(0.0)
                used_pools.add(e.pool_id)
            # offer the best still-unused shortcut that beats every edge
            # already on the hop, the first eligible one in the core's spot
            # order; one per hop bounds the simplex size the same way
            # _N_EXPAND does for parallel pools
            best_existing = max(e.spot for e in hop_edges[j])
            for sc in core.edges_between(u, v):
                if not sc.legs or sc.spot <= best_existing:
                    continue
                if any(p in used_pools for p in sc.pool_ids):
                    continue
                if any(leg.token_in in token_seq for leg in sc.legs[1:]):
                    continue
                hop_edges[j].append(sc)
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
        total += path_output(path, hop_w, share, steps)
    return tuple(steps), total


def prime(g: SwapGraph, query: RouteQuery,
          prepared: Optional[PreparedRouting] = None) -> RouteSolution:
    """Full two-stage routing for one query.

    Raises NoRouteError when discovery accepts zero paths, and
    InvalidParamsError when ``prepared`` was built from another graph or from
    a query whose stage-0 fields differ from this one's.
    """
    if prepared is not None and prepared.graph is not g:
        raise InvalidParamsError("stage 0 was prepared from another graph")
    if not g.has_token(query.source) or not g.has_token(query.target):
        raise NoRouteError("source or target token not in graph")
    prep = prepared if prepared is not None else prepare_routing(g, query)
    differ = [f for f, v in prep.config.items() if getattr(query, f) != v]
    if differ:
        raise InvalidParamsError("stage 0 was prepared with a different "
                                 + ", ".join(differ))
    overlay = _query_overlay(prep, query.source, query.target)
    stats = RouteStats()
    used: Set[str] = set()
    singles: List[SinglePath] = []
    # each accepted path as one composite curve, built once
    curves: List[SequentialComposite] = []
    tau = 0.0
    # every search below shares the rate table and the exact quotes
    context = SearchContext(overlay, query.target, query.max_hops)
    while True:
        search = SearchStats()
        found = find_path(overlay, query.source, query.target, query.amount,
                          tau, query.max_hops, frozenset(used), search,
                          context=context)
        stats.find_path_calls += 1
        stats.queue_pushes += search.pushes
        stats.queue_pops += search.pops
        stats.swap_evals += search.swap_evals
        stats.quotes_skipped += search.quotes_skipped
        if found is None:
            break
        singles.append(found)
        used.update(found.pool_ids)
        curves.append(SequentialComposite(tuple(e.fn for e in found.edges)))
        weights, tau, value = _stage1_fill(singles, curves, query.amount)
        stats.stage1_taus.append(tau)
        stats.stage1_objectives.append(value)
    if not singles:
        raise NoRouteError(
            f"no path from {query.source!r} to {query.target!r}")
    stats.paths_discovered = len(singles)

    # widen from the full graph, so a leaf endpoint's parallel pools count
    multi, init_w = merge_and_expand(singles, weights, prep.graph, prep.core,
                                     used)
    final = asgm(multi, query.amount, query.asgm_params,
                 initial_edge_weights=init_w)
    stats.asgm_iterations = final.iterations
    stats.converged = final.converged
    stats.degraded = final.degraded

    plan, total = build_execution_plan(multi, final.allocation, query.amount)

    # The allocator converges to a tolerance, not exactly; a discovered path
    # probed at the full amount is an exact lower bound, so fall back to it
    # when integer rounding leaves the relaxed solution behind.
    best = max(singles, key=lambda sp: sp.output)
    if best.output > total:
        stats.fallback = True
        log.debug("fell back to single-path allocation (%d > %d)",
                  best.output, total)
        return single_path_solution(best, query, "prime", stats, final.trace)

    return RouteSolution(source=query.source, target=query.target,
                         amount=query.amount, algorithm="prime", paths=tuple(multi),
                         allocation=final.allocation, total_output=total,
                         tau=final.tau, execution_plan=plan, stats=stats,
                         trace=final.trace)


def _stage1_fill(singles: Sequence[SinglePath],
                 curves: Sequence[SequentialComposite],
                 x: int) -> Tuple[List[float], float, int]:
    """Path weights, ``tau`` and exact objective of the stage-1 split.

    One water-fill over the paths' composite curves equalizes their marginal
    prices; ``tau`` is the largest, read from each composite's ``real``.  A
    composite chains its legs as ``path_output`` and ``path_marginals_real``
    chain a path's hops, so both values are the ones ``objective`` and
    ``asgm`` give.  If the fill fails, the best path, which its search
    showed can carry ``x``, takes all of it.
    """
    # a lone path takes the whole amount, and its curve's pieces stay unbuilt
    xs = water_fill(curves, float(x)) if len(curves) > 1 else [1.0]
    if xs is None:
        best = max(range(len(singles)), key=lambda i: singles[i].output)
        xs = [float(i == best) for i in range(len(singles))]
    total = sum(xs)
    weights = [v / total for v in xs]
    tau = max(c.real(w * x)[1] for c, w in zip(curves, weights))
    shares = integer_shares(weights, x)
    return weights, tau, sum(c.swap_out(s)
                             for c, s in zip(curves, shares) if s)


def single_path_solution(found: SinglePath, query: RouteQuery, algorithm: str,
                         stats: RouteStats, trace: Sequence[TraceRow] = ()
                         ) -> RouteSolution:
    """The whole amount down one discovered path, its only listed path.

    Every hop carries its one edge at weight 1.0, and ``tau`` is the path's
    marginal price at the full amount.
    """
    path = single_to_multi(found)
    allocation = Allocation((1.0,), (tuple((1.0,) for _ in path.hops),))
    plan, total = build_execution_plan([path], allocation, query.amount)
    tau = path_marginals_real(path, allocation.edge_weights[0],
                              float(query.amount))[1]
    return RouteSolution(source=query.source, target=query.target,
                         amount=query.amount, algorithm=algorithm,
                         paths=(path,), allocation=allocation,
                         total_output=total, tau=tau, execution_plan=plan,
                         stats=stats, trace=list(trace))


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
