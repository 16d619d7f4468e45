"""Offline routing preparation: hub selection and the shortcut edges.

The engine searches a core of hub tokens (plus the query endpoints), which is
where almost all viable routes live.  Better prices that detour through a
non-hub token are captured separately: for every ordered hub pair we
pre-enumerate paths with at most ``MAX_INTERMEDIATES`` interior vertices, all
non-hubs, and keep the ``TOP_S`` with the best zero-input rate.  Each kept
"shortcut" is built here, once, as a composite edge from hub to hub whose
legs are its pools' edges, with the pool id ``sc:<hub_in>><hub_out>:<rank>``
(rank 0 is the best).  The hub core is their one home: the path search walks
it, and stage 2's hop widening and the execution plan use the same edge
objects, in the core's spot order like any other edge.  Using one costs the
search one hop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .cfmm import SequentialComposite
from .errors import InvalidParamsError
from .graph import Edge, SwapGraph

# interior (non-hub) tokens a shortcut may pass through
MAX_INTERMEDIATES = 2
# shortcuts kept per ordered hub pair
TOP_S = 3


def select_hubs(g: SwapGraph, k: int,
                explicit: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """Pick the top-k hub tokens by incident pool count.

    An explicit list overrides the ranking.  Ties break on token id.
    """
    if explicit is not None:
        hubs = tuple(dict.fromkeys(explicit))
        for h in hubs:
            if not g.has_token(h):
                raise InvalidParamsError(f"explicit hub {h!r} not in graph")
        return hubs
    if k < 1:
        raise InvalidParamsError("hub count must be >= 1")
    degree: Dict[str, int] = {t: 0 for t in g.tokens}
    for p in g.pools.values():
        for t in p.tokens:
            degree[t] += 1
    ranked = sorted(g.tokens, key=lambda t: (-degree[t], t))
    return tuple(ranked[:min(k, len(ranked))])


def _extend(g: SwapGraph, exits, hub_set, found, h_in: str, node: str,
            edges: Tuple[Edge, ...], rate: float, seen: Tuple[str, ...],
            pools: Tuple[str, ...]) -> None:
    """Record every hub reached from ``node`` through non-hubs in ``found``.

    ``rate`` is the spot product of ``edges``, multiplied left to right.  At
    the depth limit only hub neighbours can finish a shortcut, so the scan
    reads ``exits[node]``, the hub part of ``node``'s row, in row order.  A
    module-level recursion, not a closure: a closure that calls itself sits
    in a reference cycle and would pin ``g`` and ``found`` until a full GC.
    """
    deeper = len(seen) < MAX_INTERMEDIATES
    for v, candidates in g.out_items(node) if deeper else exits[node]:
        if v == h_in or v in seen:
            continue
        is_hub = v in hub_set
        for e in candidates:
            if e.pool_id in pools:
                continue
            # all parallel candidates are explored: pool-distinctness
            # within a shortcut depends on which pool each leg uses
            if is_hub:
                bucket = found.setdefault((h_in, v), [])
                bucket.append((-(rate * e.spot), pools + (e.pool_id,),
                               edges + (e,)))
                if len(bucket) > 4 * TOP_S:
                    bucket.sort()
                    del bucket[TOP_S:]
            else:
                _extend(g, exits, hub_set, found, h_in, v, edges + (e,),
                        rate * e.spot, seen + (v,), pools + (e.pool_id,))


def build_shortcut_index(g: SwapGraph, hubs: Sequence[str]) -> Tuple[Edge, ...]:
    """Enumeration of hub-to-hub paths through at most ``MAX_INTERMEDIATES``
    non-hub tokens.

    Keeps the ``TOP_S`` candidates per ordered hub pair by the product of
    zero-input edge rates, ties broken on the pool-id sequence, each as its
    composite edge; a pair's edges are adjacent, in rank order.
    """
    hub_set = set(hubs)
    # each non-hub token's hub neighbours, split from its row once
    exits = {u: tuple(item for item in g.out_items(u) if item[0] in hub_set)
             for u in g.tokens if u not in hub_set}
    found: Dict[Tuple[str, str], List[Tuple[float, Tuple[str, ...], Tuple[Edge, ...]]]] = {}
    for h in hubs:
        for v, candidates in g.out_items(h):
            if v in hub_set:
                continue
            for e in candidates:
                _extend(g, exits, hub_set, found, h, v, (e,), e.spot, (v,),
                        (e.pool_id,))

    shortcuts: List[Edge] = []
    while found:
        # each bucket goes as its edges are built, which bounds the peak
        (h_in, h_out), bucket = found.popitem()
        bucket.sort()
        shortcuts.extend(
            Edge(f"sc:{h_in}>{h_out}:{rank}", h_in, h_out,
                 SequentialComposite(tuple(e.fn for e in legs)), legs=legs)
            for rank, (_, _, legs) in enumerate(bucket[:TOP_S]))
    return tuple(shortcuts)
