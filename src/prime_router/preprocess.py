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

from bisect import insort
from typing import Dict, List, Optional, Sequence, Set, Tuple

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


def _hub_exits(g: SwapGraph, hubs: Sequence[str], hub_set: Set[str]
               ) -> Dict[str, List[Tuple[str, Tuple[Edge, ...]]]]:
    """Each non-hub token's pairs into the hubs, ``(hub, edges)`` in hub id
    order, the order of its row; a token with none has no entry.

    Where every pair has its reverse (``SwapGraph.pairs_reversed``, as in
    every graph ``build_graph`` makes), a token with a pair into a hub is
    in that hub's row, so the hubs' rows name them all; any other
    graph's rows are read in full.
    """
    exits: Dict[str, List[Tuple[str, Tuple[Edge, ...]]]] = {}
    if g.pairs_reversed():
        for h in sorted(hubs):
            for v, _ in g.out_items(h):
                if v not in hub_set:
                    exits.setdefault(v, []).append((h, g.edges_between(v, h)))
        return exits
    for v in g.token_ids():
        if v not in hub_set:
            found = [item for item in g.out_items(v) if item[0] in hub_set]
            if found:
                exits[v] = found
    return exits


def build_shortcut_index(g: SwapGraph, hubs: Sequence[str]) -> Tuple[Edge, ...]:
    """Enumeration of the pool-distinct paths ``h -> a -> H`` and
    ``h -> a -> b -> H`` between hubs, through one or two non-hubs.

    Keeps the ``TOP_S`` per ordered hub pair by the product of zero-input
    edge rates, multiplied left to right, ties broken on the pool-id
    sequence and then the interior tokens, each as its composite edge; a
    pair's edges are adjacent, in rank order.

    Each pair's bucket holds its best ``TOP_S`` candidates so far, ``(-rate,
    pools, interior tokens, legs)`` in rank order.  Once it is full, the
    worst rate in it is the pair's floor, which the pair's final ``TOP_S``
    can only beat or tie.  A pair's last leg runs over a spot-ordered tuple
    of edges, and its rate is ``rate * spot`` with ``rate`` fixed, so the
    rate never rises along the tuple: the scan leaves the tuple at the
    first edge whose rate is below the floor, before it builds the tuples a
    candidate costs.  The test is strict, so a candidate that ties the
    floor still reaches the pool-id and interior tie-break.
    """
    hub_set = set(hubs)
    exits = _hub_exits(g, hubs, hub_set)
    found: Dict[Tuple[str, str], List[tuple]] = {}
    for h in hubs:
        # the buckets and floors of the pairs (h, H), by H
        buckets: Dict[str, List[tuple]] = {}
        floors: Dict[str, float] = {}

        def keep(h_out: str, candidate: tuple) -> float:
            """Rank ``candidate`` into ``(h, h_out)``'s bucket; the pair's
            floor, 0 while the bucket is not full.  Candidates that tie on
            rate and pools differ in their interior, so legs are never
            compared."""
            bucket = buckets.get(h_out)
            if bucket is None:
                bucket = buckets[h_out] = found[(h, h_out)] = []
            insort(bucket, candidate)
            if len(bucket) < TOP_S:
                return 0.0
            del bucket[TOP_S:]
            floor = floors[h_out] = -bucket[-1][0]
            return floor

        for a, firsts in g.out_items(h):
            if a in hub_set:
                continue
            one = (a,)
            for e1 in firsts:
                p1, s1 = e1.pool_id, e1.spot
                for v, seconds in g.out_items(a):
                    if v == h:
                        continue
                    if v in hub_set:
                        floor = floors.get(v, 0.0)
                        for e2 in seconds:
                            rate = s1 * e2.spot
                            if rate < floor:
                                break
                            if e2.pool_id != p1:
                                floor = keep(v, (-rate, (p1, e2.pool_id),
                                                 one, (e1, e2)))
                        continue
                    ends = exits.get(v)
                    if ends is None:
                        continue
                    two = (a, v)
                    for e2 in seconds:
                        p2 = e2.pool_id
                        if p2 == p1:
                            continue
                        rate = s1 * e2.spot
                        for h_out, thirds in ends:
                            if h_out == h:
                                continue
                            floor = floors.get(h_out, 0.0)
                            for e3 in thirds:
                                out = rate * e3.spot
                                if out < floor:
                                    break
                                p3 = e3.pool_id
                                if p3 != p1 and p3 != p2:
                                    floor = keep(h_out, (
                                        -out, (p1, p2, p3), two, (e1, e2, e3)))

    shortcuts: List[Edge] = []
    while found:
        # each bucket goes as its edges are built, which bounds the peak
        (h_in, h_out), bucket = found.popitem()
        shortcuts.extend(
            Edge(f"sc:{h_in}>{h_out}:{rank}", h_in, h_out,
                 SequentialComposite(tuple(e.fn for e in legs)), legs=legs)
            for rank, (*_, legs) in enumerate(bucket))
    return tuple(shortcuts)
