"""The no-splitting reference: the whole amount down the one best route."""

from __future__ import annotations

from .engine import RouteQuery, RouteSolution, RouteStats, single_path_solution
from .errors import NoRouteError
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
    rstats = RouteStats(find_path_calls=1, queue_pushes=stats.pushes,
                        queue_pops=stats.pops, swap_evals=stats.swap_evals,
                        paths_discovered=1)
    return single_path_solution(found, query, "osp", rstats)
