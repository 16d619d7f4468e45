"""Offline routing preparation: hub selection and the shortcut index.

The engine searches a core of hub tokens (plus the query endpoints), which is
where almost all viable routes live.  Better prices that detour through a
non-hub token are captured separately: for every ordered hub pair we
pre-enumerate short paths whose interior vertices are all non-hubs and keep
the few with the best zero-input rate.  Each kept "shortcut" is exposed to
the path search as a single composite edge, so using one costs one hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .cfmm import SequentialComposite
from .errors import InvalidParamsError
from .graph import Edge, SwapGraph

METRIC_DEGREE = "degree"
METRIC_RESERVE_MASS = "reserve_mass"


def select_hubs(g: SwapGraph, k: int, metric: str = METRIC_DEGREE,
                numeraire: Optional[str] = None,
                explicit: Optional[Sequence[str]] = None) -> Tuple[str, ...]:
    """Pick the top-k hub tokens; an explicit list overrides the metric.

    ``degree`` ranks by incident pool count, ``reserve_mass`` by the total
    reserve of ``numeraire`` across incident pools.  Ties break on token id.
    """
    if explicit is not None:
        hubs = tuple(dict.fromkeys(explicit))
        for h in hubs:
            if not g.has_token(h):
                raise InvalidParamsError(f"explicit hub {h!r} not in graph")
        return hubs
    if k < 1:
        raise InvalidParamsError("hub count must be >= 1")
    if metric == METRIC_DEGREE:
        score: Dict[str, float] = {t: 0 for t in g.tokens}
        for p in g.pools.values():
            for t in p.tokens:
                score[t] += 1
    elif metric == METRIC_RESERVE_MASS:
        if numeraire is None or not g.has_token(numeraire):
            raise InvalidParamsError("reserve_mass metric needs a graph token "
                                     "as numeraire")
        score = {t: 0 for t in g.tokens}
        for p in g.pools.values():
            if numeraire not in p.tokens:
                continue
            mass = p.reserve_of(numeraire)
            for t in p.tokens:
                score[t] += mass
    else:
        raise InvalidParamsError(f"unknown hub metric {metric!r}")
    ranked = sorted(g.tokens, key=lambda t: (-score[t], t))
    return tuple(ranked[:min(k, len(ranked))])


@dataclass(frozen=True)
class Shortcut:
    hub_in: str
    hub_out: str
    edges: Tuple[Edge, ...]
    spot_rate: float

    @property
    def interior(self) -> Tuple[str, ...]:
        return tuple(e.token_in for e in self.edges[1:])

    @property
    def pool_ids(self) -> Tuple[str, ...]:
        return tuple(e.pool_id for e in self.edges)

    def as_edge(self, rank: int) -> Edge:
        fn = SequentialComposite(tuple(e.fn for e in self.edges))
        pid = f"sc:{self.hub_in}>{self.hub_out}:{rank}"
        return Edge(pid, self.hub_in, self.hub_out, fn, legs=self.edges)


class ShortcutIndex:
    """Top-S shortcuts per ordered hub pair, ranked by spot rate."""

    def __init__(self, hubs: Tuple[str, ...], max_intermediates: int, top_s: int,
                 entries: Dict[Tuple[str, str], Tuple[Shortcut, ...]]):
        self.hubs = hubs
        self.max_intermediates = max_intermediates
        self.top_s = top_s
        self._entries = entries
        hub_set = set(hubs)
        for shortcuts in entries.values():
            for sc in shortcuts:
                if hub_set.intersection(sc.interior):
                    raise InvalidParamsError(
                        f"shortcut {sc.hub_in}->{sc.hub_out} passes through "
                        f"a hub: interior {sc.interior}")

    def get(self, hub_in: str, hub_out: str) -> Tuple[Shortcut, ...]:
        return self._entries.get((hub_in, hub_out), ())

    def pairs(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(sorted(self._entries))

    def __len__(self) -> int:
        return sum(len(v) for v in self._entries.values())


def _rate_key(edges: Sequence[Edge]) -> Tuple[float, Tuple[str, ...]]:
    rate = 1.0
    for e in edges:
        rate *= e.spot
    return rate, tuple(e.pool_id for e in edges)


def build_shortcut_index(g: SwapGraph, hubs: Sequence[str],
                         max_intermediates: int = 2,
                         top_s: int = 3) -> ShortcutIndex:
    """Depth-bounded enumeration of hub-to-hub paths through non-hub tokens.

    Keeps the top_s candidates per ordered hub pair by the product of
    zero-input edge rates; ties break on the pool-id sequence.
    """
    if max_intermediates < 1:
        raise InvalidParamsError("max_intermediates must be >= 1")
    if top_s < 1:
        raise InvalidParamsError("top_s must be >= 1")
    hub_set = set(hubs)
    found: Dict[Tuple[str, str], List[Tuple[float, Tuple[str, ...], Tuple[Edge, ...]]]] = {}

    def consider(h_in: str, h_out: str, edges: Tuple[Edge, ...]):
        rate, tie = _rate_key(edges)
        bucket = found.setdefault((h_in, h_out), [])
        bucket.append((-rate, tie, edges))
        if len(bucket) > 4 * top_s:
            bucket.sort()
            del bucket[top_s:]

    def extend(h_in: str, node: str, edges: Tuple[Edge, ...],
               seen: Tuple[str, ...], pools: Tuple[str, ...]):
        for v, candidates in g.out_items(node):
            if v == h_in or v in seen:
                continue
            for e in candidates:
                if e.pool_id in pools:
                    continue
                # all parallel candidates are explored: pool-distinctness
                # within a shortcut depends on which pool each leg uses
                if v in hub_set:
                    consider(h_in, v, edges + (e,))
                elif len(seen) < max_intermediates:
                    extend(h_in, v, edges + (e,), seen + (v,), pools + (e.pool_id,))

    for h in hubs:
        for v, candidates in g.out_items(h):
            if v in hub_set:
                continue
            for e in candidates:
                extend(h, v, (e,), (v,), (e.pool_id,))

    entries: Dict[Tuple[str, str], Tuple[Shortcut, ...]] = {}
    for pair, bucket in found.items():
        bucket.sort()
        kept = []
        for neg_rate, _, edges in bucket[:top_s]:
            kept.append(Shortcut(pair[0], pair[1], edges, -neg_rate))
        entries[pair] = tuple(kept)
    return ShortcutIndex(tuple(hubs), max_intermediates, top_s, entries)
