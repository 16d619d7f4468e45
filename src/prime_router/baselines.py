"""The no-splitting reference: the whole amount down the one best route of
the graph as given.  A leaf token is a dead end for a simple path, so
pruning the leaves first could not change that route."""

from __future__ import annotations

from .engine import RouteQuery, RouteSolution, RouteStats, single_path_solution
from .errors import NoRouteError
# the benchmark's tracer wraps prune_leaf_tokens here; ROADMAP item 8 drops it
from .graph import SwapGraph, prune_leaf_tokens
from .pathfind import SearchStats, find_path


def best_single_path(g: SwapGraph, query: RouteQuery) -> RouteSolution:
    """Highest-output single route at the full amount, no splitting."""
    if not g.has_token(query.source) or not g.has_token(query.target):
        raise NoRouteError("source or target token not in graph")
    stats = SearchStats()
    found = find_path(g, query.source, query.target, query.amount,
                      0.0, query.max_hops, frozenset(), stats)
    if found is None:
        raise NoRouteError(
            f"no path from {query.source!r} to {query.target!r}")
    rstats = RouteStats(find_path_calls=1, queue_pushes=stats.pushes,
                        queue_pops=stats.pops, swap_evals=stats.swap_evals,
                        quotes_skipped=stats.quotes_skipped,
                        paths_discovered=1)
    return single_path_solution(found, query, "osp", rstats)
