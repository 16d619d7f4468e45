"""Seeded query sets for the benchmark workloads.

Every pair is reachable by construction: the target is the end of a random
walk of 1 to ``max_hops`` hops from the source over the stage-0 pruned graph,
and the walk's own edge chain must carry the query amount to a positive
output.  So a best single path exists for every query, and a NoRoute answer
from the router is a defect to report, never an input to skip.  Pairs are
never filtered on what the router does with them.

Each workload routes a fixed set of queries, drawn once from
``POPULATION_SEED`` the way the market itself comes from a fixed seed; the
workload seed sets the order in which the client sends them.  Two measured
reasons keep the set fixed.  Per-query cost spans three orders of magnitude
on this market, so a fresh draw per seed moved the median of a 200-query run
by 15-25% between seeds.  And the allocator's iteration count is chaotic in
the amount: scaling a whale trade by 1.001 moved single queries from 27 to 39
iterations.  Either would swamp the changes a regression gate must catch.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from prime_router.graph import KIND_CONSTANT_PRODUCT, Edge, SwapGraph
from prime_router.pathfind import simulate_chain

# a whale trades this many times the direct pool's source-side reserve
WHALE_DEPTH_MULTIPLE = 3
# retail and dominance trades are this fraction of the drawn pool's reserve
RETAIL_DEPTH_DIVISOR = 100
POPULATION_SEED = 0xC7
_WALK_ATTEMPTS = 32


@dataclass(frozen=True)
class Query:
    qid: int
    source: str
    target: str
    amount: int
    shape: str  # endpoint shape, e.g. "hub>non": source is a hub, target not
    # the walk that proves reachability at ``amount``
    witness: Tuple[Edge, ...] = field(repr=False, compare=False)


def witness_output(q: Query) -> int:
    """Exact output of the query's witness walk at its amount."""
    return simulate_chain(q.witness, q.amount)


def endpoint_shape(hubs: Set[str], source: str, target: str) -> str:
    return ">".join("hub" if t in hubs else "non" for t in (source, target))


def _walk(rng: random.Random, g: SwapGraph, source: str, hops: int,
          amount: int) -> Optional[List[Edge]]:
    """Simple random walk whose edge chain carries ``amount`` end to end."""
    tokens = [source]
    edges: List[Edge] = []
    for _ in range(hops):
        options = [(v, c) for v, c in g.out_items(tokens[-1])
                   if v not in tokens]
        if not options:
            return None
        v, candidates = options[rng.randrange(len(options))]
        edges.append(candidates[rng.randrange(len(candidates))])
        tokens.append(v)
    out = simulate_chain(edges, amount)
    return edges if out else None


def _walk_target(rng: random.Random, g: SwapGraph, source: str, amount: int,
                 max_hops: int, hubs: Set[str],
                 want_non_hub: bool) -> Optional[List[Edge]]:
    for _ in range(_WALK_ATTEMPTS):
        edges = _walk(rng, g, source, rng.randint(1, max_hops), amount)
        if edges is None:
            continue
        if want_non_hub and edges[-1].token_out in hubs:
            continue
        return edges
    return None


def _cp_sides(pools, g: SwapGraph) -> List[Tuple[object, str]]:
    """(pool, source) for both sides of every constant-product pool.

    Drawing uniformly from this list picks a source with odds proportional
    to its constant-product degree.  Sources must survive leaf pruning so
    the walk can leave them over the pruned graph.
    """
    return [(p, t) for p in pools if p.kind == KIND_CONSTANT_PRODUCT
            for t in p.tokens if g.has_token(t)]


def walk_queries(pools: Sequence, pruned: SwapGraph, hubs: Sequence[str],
                 rng: random.Random, max_hops: int,
                 non_hub_endpoints: bool) -> Iterator[Query]:
    """Degree-weighted sources trading 1% of the drawn pool's reserve.

    With ``non_hub_endpoints`` both source and target are non-hub tokens.
    """
    hub_set = set(hubs)
    sides = _cp_sides(pools, pruned)
    if non_hub_endpoints:
        sides = [(p, t) for p, t in sides if t not in hub_set]
    if not sides:
        raise ValueError("market has no eligible source token")
    qid = 0
    while True:
        pool, source = sides[rng.randrange(len(sides))]
        amount = max(1, pool.reserve_of(source) // RETAIL_DEPTH_DIVISOR)
        edges = _walk_target(rng, pruned, source, amount, max_hops, hub_set,
                             non_hub_endpoints)
        if edges is None:
            continue
        target = edges[-1].token_out
        yield Query(qid, source, target, amount,
                    endpoint_shape(hub_set, source, target), tuple(edges))
        qid += 1


def whale_queries(pools: Sequence, pruned: SwapGraph, hubs: Sequence[str],
                  rng: random.Random) -> Iterator[Query]:
    """Hub-to-hub trades of a few times a direct pool's source reserve."""
    hub_set = set(hubs)
    direct = [p for p in pools if p.kind == KIND_CONSTANT_PRODUCT
              and all(t in hub_set for t in p.tokens)]
    if not direct:
        raise ValueError("market has no constant-product pool between hubs")
    qid = 0
    while True:
        pool = direct[rng.randrange(len(direct))]
        source, target = pool.tokens if rng.random() < 0.5 \
            else tuple(reversed(pool.tokens))
        amount = WHALE_DEPTH_MULTIPLE * pool.reserve_of(source)
        edge = next(e for e in pruned.edges_between(source, target)
                    if e.pool_id == pool.id)
        yield Query(qid, source, target, amount, "hub>hub", (edge,))
        qid += 1


def query_set(workload: str, pools: Sequence, pruned: SwapGraph,
              hubs: Sequence[str], max_hops: int, size: int,
              seed: int) -> List[Query]:
    """The workload's fixed ``size`` queries, in an order drawn from ``seed``.

    ``cold_route`` takes the first queries of the ``retail`` set.
    """
    population = random.Random(POPULATION_SEED)
    if workload in ("retail", "cold_route", "dominance"):
        pairs = walk_queries(pools, pruned, hubs, population, max_hops,
                             non_hub_endpoints=workload == "dominance")
    elif workload == "whale":
        pairs = whale_queries(pools, pruned, hubs, population)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    chosen = [next(pairs) for _ in range(size)]
    random.Random(seed).shuffle(chosen)
    return chosen
