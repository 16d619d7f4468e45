"""Shared builders for randomized and hand-made test instances."""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Tuple

from prime_router.allocation import MultiEdgePath
from prime_router.cfmm import ConstantProduct, Segment
from prime_router.graph import (
    KIND_CONSTANT_PRODUCT,
    Edge,
    Pool,
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
    return build_graph(toks, pools)


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
