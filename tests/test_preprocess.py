import itertools
import random

import pytest

from prime_router.errors import InvalidParamsError
from prime_router.graph import build_graph
from prime_router.preprocess import (
    Shortcut,
    ShortcutIndex,
    build_shortcut_index,
    select_hubs,
)

from instances import cp_pool, random_cp_graph, tokens


class TestSelectHubs:
    def test_degree_ranks_pool_count(self):
        toks = tokens(6)
        pools = [cp_pool(f"P{i}", "T0", f"T{i}", 10, 10) for i in range(1, 6)]
        g = build_graph(toks, pools)
        assert select_hubs(g, 1) == ("T0",)

    def test_k_clamps_to_vertex_count(self):
        g = build_graph(tokens(3), [cp_pool("P0", "T0", "T1", 1, 1),
                                    cp_pool("P1", "T1", "T2", 1, 1)])
        assert len(select_hubs(g, 99)) == 3

    def test_degree_tie_breaks_on_id(self):
        # T0 and T1 both carry three pools
        pools = [cp_pool("P0", "T0", "T1", 1, 1),
                 cp_pool("P1", "T0", "T1", 1, 1),
                 cp_pool("P2", "T0", "T2", 1, 1),
                 cp_pool("P3", "T1", "T2", 1, 1)]
        g = build_graph(tokens(3), pools)
        assert select_hubs(g, 1) == ("T0",)

    def test_reserve_mass_metric(self):
        # T2 sits in the deepest T0-pool even though degrees tie
        pools = [cp_pool("P0", "T0", "T1", 10, 10),
                 cp_pool("P1", "T0", "T2", 10**9, 10**9)]
        g = build_graph(tokens(3), pools)
        hubs = select_hubs(g, 1, metric="reserve_mass", numeraire="T0")
        assert hubs == ("T0",)
        hubs2 = select_hubs(g, 2, metric="reserve_mass", numeraire="T0")
        assert hubs2 == ("T0", "T2")

    def test_explicit_list_overrides(self):
        g = build_graph(tokens(3), [cp_pool("P0", "T0", "T1", 1, 1),
                                    cp_pool("P1", "T1", "T2", 1, 1)])
        assert select_hubs(g, 1, explicit=("T2", "T1")) == ("T2", "T1")
        with pytest.raises(InvalidParamsError):
            select_hubs(g, 1, explicit=("T9",))


def spot_product(edges):
    r = 1.0
    for e in edges:
        r *= e.spot
    return r


def exhaustive_shortcuts(g, hubs, max_intermediates):
    """All hub->hub paths through distinct non-hub interiors, by brute force."""
    hub_set = set(hubs)
    non_hubs = [t for t in g.token_ids() if t not in hub_set]
    found = {}
    for h_in in hubs:
        for n in range(1, max_intermediates + 1):
            for interior in itertools.permutations(non_hubs, n):
                seq = (h_in,) + interior
                for h_out in hubs:
                    if h_out == h_in:
                        continue
                    full = seq + (h_out,)
                    edge_lists = [g.edges_between(a, b)
                                  for a, b in zip(full, full[1:])]
                    if any(not el for el in edge_lists):
                        continue
                    for combo in itertools.product(*edge_lists):
                        pools = [e.pool_id for e in combo]
                        if len(set(pools)) != len(pools):
                            continue
                        found.setdefault((h_in, h_out), []).append(combo)
    return found


class TestShortcutIndex:
    def test_definitional_shortcut(self):
        toks = tokens(3)
        pools = [cp_pool("P0", "T0", "T2", 1, 1),
                 cp_pool("P1", "T2", "T1", 1, 1)]
        g = build_graph(toks, pools)
        idx = build_shortcut_index(g, ("T0", "T1"))
        (sc,) = idx.get("T0", "T1")
        assert sc.interior == ("T2",)
        assert [e.pool_id for e in sc.edges] == ["P0", "P1"]

    def test_no_intermediates_means_empty_index(self):
        g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 1, 1)])
        idx = build_shortcut_index(g, ("T0", "T1"))
        assert len(idx) == 0

    def test_top_s_by_spot_rate(self):
        # four parallel routes T0 -> T2 -> T1 with distinct rates
        toks = tokens(3)
        pools = []
        for i, r in enumerate((100, 400, 200, 300)):
            pools.append(cp_pool(f"A{i}", "T0", "T2", 100, r))
            pools.append(cp_pool(f"B{i}", "T2", "T1", 100, 100))
        g = build_graph(toks, pools)
        idx = build_shortcut_index(g, ("T0", "T1"), top_s=3)
        shortcuts = idx.get("T0", "T1")
        assert len(shortcuts) == 3
        # oracle: enumerate all bounded paths, rank by product of spot rates
        brute = exhaustive_shortcuts(g, ("T0", "T1"), 2)[("T0", "T1")]
        rates = sorted((spot_product(c) for c in brute), reverse=True)
        assert [s.spot_rate for s in shortcuts] == pytest.approx(rates[:3])
        assert shortcuts[0].edges[0].pool_id == "A1"

    def test_interiors_avoid_hubs(self):
        rng = random.Random(31)
        g = random_cp_graph(rng, 8, 14)
        hubs = select_hubs(g, 3)
        idx = build_shortcut_index(g, hubs)
        for pair in idx.pairs():
            for sc in idx.get(*pair):
                assert not set(sc.interior) & set(hubs)
                assert len(sc.edges) >= 2
                pools = sc.pool_ids
                assert len(set(pools)) == len(pools)

    def test_interior_hub_rejected(self):
        toks = tokens(3)
        pools = [cp_pool("P0", "T0", "T2", 1, 1),
                 cp_pool("P1", "T2", "T1", 1, 1)]
        g = build_graph(toks, pools)
        edges = (g.edges_between("T0", "T2")[0], g.edges_between("T2", "T1")[0])
        sc = Shortcut("T0", "T1", edges, 1.0)
        ShortcutIndex(("T0", "T1"), 2, 3, {("T0", "T1"): (sc,)})
        with pytest.raises(InvalidParamsError, match="passes through a hub"):
            ShortcutIndex(("T0", "T1", "T2"), 2, 3, {("T0", "T1"): (sc,)})

    def test_completeness_against_enumeration(self):
        rng = random.Random(47)
        for trial in range(20):
            n = rng.randint(4, 12)
            g = random_cp_graph(rng, n, rng.randint(n - 1, 18))
            hubs = select_hubs(g, rng.randint(2, 3))
            max_mid, top_s = 2, 3
            idx = build_shortcut_index(g, hubs, max_mid, top_s)
            brute = exhaustive_shortcuts(g, hubs, max_mid)
            for pair, combos in brute.items():
                ranked = sorted(
                    ((spot_product(c), tuple(e.pool_id for e in c)) for c in combos),
                    key=lambda item: (-item[0], item[1]))
                got = [(s.spot_rate, s.pool_ids) for s in idx.get(*pair)]
                want = ranked[:top_s]
                assert len(got) == len(want)
                for (gr, gp), (wr, wp) in zip(got, want):
                    assert gp == wp
                    assert gr == pytest.approx(wr)
