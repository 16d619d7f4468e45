"""Offline routing preparation: hub selection and the shortcut edges.

The engine searches a core of hub tokens (plus the query endpoints), which is
where almost all viable routes live.  Better prices that detour through a
non-hub token are captured separately: for every ordered hub pair we
pre-enumerate the paths whose interior is one or two non-hub tokens, and
keep the ``TOP_S`` with the best zero-input rate.  Each kept "shortcut" is
built here, once, as a composite edge from hub to hub whose legs are its
pools' edges, with the pool id ``sc:<hub_in>><hub_out>:<rank>``
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

# shortcuts kept per ordered hub pair
TOP_S = 3


def select_hubs(g: SwapGraph, k: int,
                explicit: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """Pick the top-k hub tokens by incident pool count.

    An explicit list overrides the ranking; it may not be empty.  Ties
    break on token id.
    """
    if explicit is not None:
        hubs = tuple(dict.fromkeys(explicit))
        if not hubs:
            raise InvalidParamsError("explicit hub list is empty")
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


def _keep(found, pair: Tuple[str, str], candidate: tuple) -> None:
    """Add ``(-rate, pools, interior tokens, legs)`` to ``pair``'s bucket,
    cut to its best ``TOP_S`` past ``4 * TOP_S``.  Candidates that tie on
    rate and pools differ in their interior, so legs are never compared."""
    bucket = found.setdefault(pair, [])
    bucket.append(candidate)
    if len(bucket) > 4 * TOP_S:
        bucket.sort()
        del bucket[TOP_S:]


def build_shortcut_index(g: SwapGraph, hubs: Sequence[str]) -> Tuple[Edge, ...]:
    """Enumeration of the pool-distinct paths ``h -> a -> H`` and
    ``h -> a -> b -> H`` between hubs, through one or two non-hubs.

    Keeps the ``TOP_S`` per ordered hub pair by the product of zero-input
    edge rates, multiplied left to right, ties broken on the pool-id
    sequence and then the interior tokens, each as its composite edge; a
    pair's edges are adjacent, in rank order.
    """
    hub_set = set(hubs)
    # each non-hub token's hub neighbours, split from its row once
    exits = {u: tuple(item for item in g.out_items(u) if item[0] in hub_set)
             for u in g.tokens if u not in hub_set}
    found: Dict[Tuple[str, str], List[tuple]] = {}
    for h in hubs:
        for a, firsts in g.out_items(h):
            if a in hub_set:
                continue
            one = (a,)
            for e1 in firsts:
                p1 = e1.pool_id
                for v, seconds in g.out_items(a):
                    if v == h:
                        continue
                    if v in hub_set:
                        for e2 in seconds:
                            if e2.pool_id != p1:
                                _keep(found, (h, v), (-(e1.spot * e2.spot),
                                      (p1, e2.pool_id), one, (e1, e2)))
                        continue
                    two = (a, v)
                    for e2 in seconds:
                        p2 = e2.pool_id
                        if p2 == p1:
                            continue
                        rate = e1.spot * e2.spot
                        for h_out, thirds in exits[v]:
                            if h_out == h:
                                continue
                            for e3 in thirds:
                                if e3.pool_id != p1 and e3.pool_id != p2:
                                    _keep(found, (h, h_out), (
                                        -(rate * e3.spot), (p1, p2, e3.pool_id),
                                        two, (e1, e2, e3)))

    shortcuts: List[Edge] = []
    while found:
        # each bucket goes as its edges are built, which bounds the peak
        (h_in, h_out), bucket = found.popitem()
        bucket.sort()
        shortcuts.extend(
            Edge(f"sc:{h_in}>{h_out}:{rank}", h_in, h_out,
                 SequentialComposite(tuple(e.fn for e in legs)), legs=legs)
            for rank, (*_, legs) in enumerate(bucket[:TOP_S]))
    return tuple(shortcuts)
