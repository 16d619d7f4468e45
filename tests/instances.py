"""Shared builders for randomized and hand-made test instances."""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from prime_router.allocation import MultiEdgePath
from prime_router.cfmm import ConstantProduct, Segment
from prime_router.graph import (
    KIND_CONSTANT_PRODUCT,
    KIND_PIECEWISE,
    Edge,
    Pool,
    PoolDirection,
    SwapGraph,
    Token,
    build_graph,
)

WAD = 10**18


def tokens(n: int) -> List[Token]:
    return [Token(f"T{i}", f"TOK{i}", 18) for i in range(n)]


def cp_pool(pid: str, a: str, b: str, ra: int, rb: int, fee: int = 0) -> Pool:
    return Pool(pid, KIND_CONSTANT_PRODUCT, (a, b), fee, (ra, rb))


def by_pair(shortcuts: Sequence[Edge]
            ) -> Dict[Tuple[str, str], Tuple[Edge, ...]]:
    """Stage-0 shortcut edges per ordered hub pair, pairs sorted, each
    pair's edges in the order built."""
    rows: Dict[Tuple[str, str], List[Edge]] = {}
    for sc in shortcuts:
        rows.setdefault((sc.token_in, sc.token_out), []).append(sc)
    return {pair: tuple(rows[pair]) for pair in sorted(rows)}


def random_cp_graph(rng: random.Random, n_tokens: int, n_pools: int,
                    fee_choices: Sequence[int] = (0, 5, 30, 100),
                    lo: int = 10**6, hi: int = 10**12) -> SwapGraph:
    """Connected multigraph of two-token constant-product pools."""
    return build_graph(*random_cp_pools(rng, n_tokens, n_pools,
                                        fee_choices, lo, hi))


def random_cp_pools(rng: random.Random, n_tokens: int, n_pools: int,
                    fee_choices: Sequence[int] = (0, 5, 30, 100),
                    lo: int = 10**6, hi: int = 10**12
                    ) -> Tuple[List[Token], List[Pool]]:
    """The tokens and pools ``random_cp_graph`` builds, from the same
    draws."""
    assert n_tokens >= 2 and n_pools >= n_tokens - 1
    toks = tokens(n_tokens)
    pools = []
    for i in range(1, n_tokens):
        j = rng.randrange(i)
        pools.append(cp_pool(f"P{len(pools)}", toks[j].id, toks[i].id,
                             rng.randint(lo, hi), rng.randint(lo, hi),
                             rng.choice(fee_choices)))
    while len(pools) < n_pools:
        a, b = rng.sample(range(n_tokens), 2)
        pools.append(cp_pool(f"P{len(pools)}", toks[a].id, toks[b].id,
                             rng.randint(lo, hi), rng.randint(lo, hi),
                             rng.choice(fee_choices)))
    return toks, pools


def single_edge_path(pid: str, tin: str, tout: str, r_in: int, r_out: int,
                     fee: int = 0) -> MultiEdgePath:
    fn = ConstantProduct(r_in, r_out, fee)
    return MultiEdgePath(((Edge(pid, tin, tout, fn),),))


def random_disjoint_paths(rng: random.Random, n_paths: int,
                          lo: int = 10**9, hi: int = 3 * 10**13,
                          fee_choices: Sequence[int] = (0, 5, 30),
                          max_hops: int = 1) -> List[MultiEdgePath]:
    """Pool-disjoint paths of 1..max_hops single-edge hops from S to T."""
    paths = []
    for p in range(n_paths):
        hops = []
        n_hops = rng.randint(1, max_hops)
        chain = ["S"] + [f"M{p}_{h}" for h in range(n_hops - 1)] + ["T"]
        for h in range(n_hops):
            fn = ConstantProduct(rng.randint(lo, hi), rng.randint(lo, hi),
                                 rng.choice(fee_choices))
            hops.append((Edge(f"P{p}_{h}", chain[h], chain[h + 1], fn),))
        paths.append(MultiEdgePath(tuple(hops)))
    return paths


def closed_form_pair(scale: int = WAD) -> Tuple[MultiEdgePath, MultiEdgePath]:
    """Two no-fee pools (100, 100) and (200, 200) in raw 18-decimal units.

    Equal marginal prices at x = 30 units force 200 + b = 2(100 + a) with
    a + b = 30, i.e. a = 10, b = 20: the optimum is W = (1/3, 2/3).
    """
    a = single_edge_path("PA", "S", "T", 100 * scale, 100 * scale)
    b = single_edge_path("PB", "S", "T", 200 * scale, 200 * scale)
    return a, b


def _piecewise_pool(rng, pid, a, b):
    def direction(tin, tout):
        seg = Segment(rng.randint(10**6, 10**9), rng.randint(10**6, 10**9),
                      rng.randint(10**6, 10**9))
        return PoolDirection(tin, tout, (seg,))
    return Pool(pid, KIND_PIECEWISE, (a, b), rng.choice((0, 5, 30)),
                directions=(direction(a, b), direction(b, a)))


def random_mixed_market(rng):
    """Sparse market of 2- and 3-token CP, piecewise and parallel pools.

    Token and pool ids are drawn at random and inserted unsorted, so a
    prune that kept input order instead of sorted token order shows.
    """
    return build_graph(*random_mixed_pools(rng))


def random_mixed_pools(rng) -> Tuple[List[Token], List[Pool]]:
    """The tokens and pools ``random_mixed_market`` builds, from the same
    draws."""
    n = rng.randint(3, 14)
    toks = [Token(f"T{rng.getrandbits(24):06x}{i}", f"S{i}", 18)
            for i in range(n)]
    ids = [t.id for t in toks]
    pools = []

    def pid():
        return f"P{rng.getrandbits(20):05x}{len(pools)}"
    for _ in range(rng.randint(1, 2 * n)):
        roll = rng.random()
        if roll < 0.15 and n >= 3:
            trio = tuple(rng.sample(ids, 3))
            pools.append(Pool(pid(), KIND_CONSTANT_PRODUCT, trio,
                              rng.choice((0, 30)),
                              tuple(rng.randint(10**6, 10**12)
                                    for _ in trio)))
        elif roll < 0.35:
            pools.append(_piecewise_pool(rng, pid(), *rng.sample(ids, 2)))
        elif roll < 0.5 and pools:
            # a parallel pool on an existing pair
            a, b = rng.choice(pools).tokens[:2]
            pools.append(cp_pool(pid(), a, b, rng.randint(10**6, 10**12),
                                 rng.randint(10**6, 10**12), 5))
        else:
            a, b = rng.sample(ids, 2)
            pools.append(cp_pool(pid(), a, b, rng.randint(10**6, 10**12),
                                 rng.randint(10**6, 10**12),
                                 rng.choice((0, 5, 30, 100))))
    rng.shuffle(toks)
    return toks, pools
