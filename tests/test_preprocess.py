import gc
import hashlib
import itertools
import random
from dataclasses import replace

import pytest

from prime_router import cli, engine, graph as graph_mod, io as io_mod
from prime_router.engine import RouteQuery, prepare_routing
from prime_router.errors import (
    InvalidParamsError,
    MalformedSnapshotError,
    ParseError,
)
from prime_router.graph import (
    KIND_CONSTANT_PRODUCT,
    Pool,
    build_graph,
    prune_leaf_tokens,
)
from prime_router.io import (
    dumps_snapshot,
    generate_synthetic,
    load_snapshot,
    loads_snapshot,
)
from prime_router.preprocess import TOP_S, build_shortcut_index, select_hubs

from instances import by_pair, cp_pool, random_cp_graph, tokens


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


def random_mixed_cp_graph(rng, n_tokens, n_pools):
    """Connected market of constant-product pools of two to four tokens."""
    toks = tokens(n_tokens)
    pools = []
    for i in range(1, n_tokens):
        members = [rng.randrange(i), i]
        if i > 1 and rng.random() < 0.4:
            members.insert(1, rng.choice([j for j in range(i)
                                          if j != members[0]]))
        pools.append(members)
    while len(pools) < n_pools:
        pools.append(rng.sample(range(n_tokens), rng.choice((2, 3, 4))))
    return build_graph(toks, [
        Pool(f"P{i}", KIND_CONSTANT_PRODUCT, tuple(toks[j].id for j in members),
             rng.choice((0, 5, 30)),
             tuple(rng.randint(10**6, 10**12) for _ in members))
        for i, members in enumerate(pools)])


def assert_matches_enumeration(g, hubs):
    """The built shortcuts are the TOP_S best of the brute-force ones per
    ordered hub pair, by spot product and then pool-id sequence."""
    built = by_pair(build_shortcut_index(g, hubs))
    brute = exhaustive_shortcuts(g, hubs, 2)
    assert set(built) <= set(brute)
    for pair, combos in brute.items():
        ranked = sorted(
            ((spot_product(c), tuple(e.pool_id for e in c)) for c in combos),
            key=lambda item: (-item[0], item[1]))
        got = [(s.spot, s.pool_ids) for s in built.get(pair, ())]
        want = ranked[:TOP_S]
        assert len(got) == len(want)
        for (gr, gp), (wr, wp) in zip(got, want):
            assert gp == wp
            assert gr == pytest.approx(wr)


class TestShortcutIndex:
    def test_definitional_shortcut(self):
        toks = tokens(3)
        pools = [cp_pool("P0", "T0", "T2", 1, 1),
                 cp_pool("P1", "T2", "T1", 1, 1)]
        g = build_graph(toks, pools)
        shortcuts = build_shortcut_index(g, ("T0", "T1"))
        assert list(by_pair(shortcuts)) == [("T0", "T1"), ("T1", "T0")]
        (sc,) = by_pair(shortcuts)[("T0", "T1")]
        assert sc.pool_id == "sc:T0>T1:0"
        assert [leg.token_in for leg in sc.legs[1:]] == ["T2"]
        assert [e.pool_id for e in sc.legs] == ["P0", "P1"]

    def test_no_intermediates_means_empty_index(self):
        g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 1, 1)])
        assert build_shortcut_index(g, ("T0", "T1")) == ()

    def test_top_s_by_spot_rate(self):
        # four parallel routes T0 -> T2 -> T1 with distinct rates
        toks = tokens(3)
        pools = []
        for i, r in enumerate((100, 400, 200, 300)):
            pools.append(cp_pool(f"A{i}", "T0", "T2", 100, r))
            pools.append(cp_pool(f"B{i}", "T2", "T1", 100, 100))
        g = build_graph(toks, pools)
        shortcuts = by_pair(build_shortcut_index(g, ("T0", "T1")))[
            ("T0", "T1")]
        assert len(shortcuts) == 3
        assert [s.pool_id for s in shortcuts] == [
            f"sc:T0>T1:{rank}" for rank in range(3)]
        # oracle: enumerate all bounded paths, rank by product of spot rates
        brute = exhaustive_shortcuts(g, ("T0", "T1"), 2)[("T0", "T1")]
        rates = sorted((spot_product(c) for c in brute), reverse=True)
        assert [s.spot for s in shortcuts] == pytest.approx(rates[:3])
        assert shortcuts[0].legs[0].pool_id == "A1"

    def test_interiors_avoid_hubs(self):
        # every built edge runs hub to hub, as a chain of distinct pools
        # through non-hub tokens only
        rng = random.Random(31)
        g = random_cp_graph(rng, 8, 14)
        hubs = select_hubs(g, 3)
        shortcuts = build_shortcut_index(g, hubs)
        assert shortcuts
        for sc in shortcuts:
            assert sc.token_in in hubs and sc.token_out in hubs
            assert sc.legs[0].token_in == sc.token_in
            assert sc.legs[-1].token_out == sc.token_out
            assert all(a.token_out == b.token_in
                       for a, b in zip(sc.legs, sc.legs[1:]))
            assert not {leg.token_in for leg in sc.legs[1:]} & set(hubs)
            assert len(sc.legs) >= 2
            pools = sc.pool_ids
            assert len(set(pools)) == len(pools)

    def test_completeness_against_enumeration(self):
        rng = random.Random(47)
        for trial in range(20):
            n = rng.randint(4, 12)
            g = random_cp_graph(rng, n, rng.randint(n - 1, 18))
            assert_matches_enumeration(g, select_hubs(g, rng.randint(2, 3)))
        # a pool of three tokens joins each pair of them, so a leg can reuse
        # the previous leg's pool; one of four can also rejoin the first leg
        rng = random.Random(53)
        for trial in range(40):
            n = rng.randint(4, 10)
            g = random_mixed_cp_graph(rng, n, rng.randint(n - 1, 14))
            assert_matches_enumeration(g, select_hubs(g, rng.randint(2, 3)))

    def test_tied_candidates_break_on_interior_tokens(self):
        # T0 -> T1 -> T3 and T0 -> T2 -> T3 use the same two pools at the
        # same spot product: the interior tokens order them
        pools = [Pool("P1", KIND_CONSTANT_PRODUCT, ("T0", "T1", "T2"), 0,
                      (10, 20, 20)),
                 Pool("P2", KIND_CONSTANT_PRODUCT, ("T1", "T2", "T3"), 0,
                      (20, 20, 10))]
        g = build_graph(tokens(4), pools)
        built = by_pair(build_shortcut_index(g, ("T0", "T3")))
        assert [[leg.token_out for leg in sc.legs[:-1]]
                for sc in built[("T0", "T3")]] == [["T1"], ["T2"]]
        assert [sc.pool_ids for sc in built[("T0", "T3")]] == [
            ("P1", "P2"), ("P1", "P2")]
        assert len({sc.spot for sc in built[("T0", "T3")]}) == 1

    @pytest.mark.parametrize("seed,n_tokens,n_pools,k,max_mid,top_s,digest", [
        (7, 400, 1200, 12, 2, 3,
         "31036ac780da8cd725f5058c6e71735eb41ce06fd606a7287094caf757e169e1"),
    ])
    def test_golden_index(self, seed, n_tokens, n_pools, k, max_mid, top_s,
                          digest):
        # digest of the pairs, pool ids and exact spot rates the shortcuts
        # had before the enumeration carried its rate down the search; it
        # holds only at the depth and count it was pinned at
        assert TOP_S == top_s
        g = generate_synthetic(seed, n_tokens, n_pools).build_graph()
        hubs = select_hubs(g, k)
        built = by_pair(build_shortcut_index(prune_leaf_tokens(g, hubs), hubs))
        h = hashlib.sha256()
        for pair, shortcuts in built.items():
            for sc in shortcuts:
                h.update(repr((pair, sc.pool_ids,
                               repr(spot_product(sc.legs)))).encode())
        assert h.hexdigest() == digest


@pytest.mark.parametrize("call,message", [
    (lambda g: select_hubs(g, 0), "hub count must be >= 1"),
    (lambda g: select_hubs(g, 1, explicit=()), "explicit hub list is empty"),
], ids=["no_hubs", "empty_explicit_hubs"])
def test_out_of_range_parameter_is_rejected(call, message):
    g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 10, 10)])
    with pytest.raises(InvalidParamsError, match=f"^{message}$"):
        call(g)


def _index_rows(shortcuts):
    return [(pair, [(sc.pool_id, sc.token_in, sc.token_out, sc.pool_ids,
                     sc.spot, tuple(map(id, sc.legs)))
                    for sc in row])
            for pair, row in by_pair(shortcuts).items()]


# (seed, tokens, pools, hubs); the first three markets sit near the
# spanning-tree floor, so most non-hub tokens are leaves
@pytest.mark.parametrize("seed,n_tokens,n_pools,k", [
    (1, 300, 330, 10), (2, 300, 320, 6), (4, 200, 230, 10),
    (7, 400, 1200, 12), (8, 200, 700, 8),
])
def test_index_ignores_leaf_tokens(seed, n_tokens, n_pools, k):
    # stage 0 builds the shortcuts over the full graph: a token the leaf
    # prune drops hangs off the rest by one neighbour, so no shortcut passes
    # through it, and the shortcuts are the same edge for edge
    g = generate_synthetic(seed, n_tokens, n_pools).build_graph()
    hubs = select_hubs(g, k)
    pruned = prune_leaf_tokens(g, hubs)
    assert len(pruned.tokens) < len(g.tokens)
    full = build_shortcut_index(g, hubs)
    assert len(full) > 0
    assert _index_rows(full) == _index_rows(build_shortcut_index(pruned, hubs))


def test_stage0_prunes_only_when_asked(monkeypatch):
    # the pruned graph is built on first read, through the module global
    # the tracer wraps, and kept
    calls = []
    prune = engine.prune_leaf_tokens

    def spy(g, protected):
        calls.append(tuple(protected))
        return prune(g, protected)

    monkeypatch.setattr(engine, "prune_leaf_tokens", spy)
    g = generate_synthetic(3, 60, 70).build_graph()
    ids = sorted(g.tokens)
    prepared = prepare_routing(g, RouteQuery(ids[0], ids[1], 1, hub_count=5))
    assert calls == []
    pruned = prepared.pruned
    assert calls == [prepared.hubs]
    assert prepared.pruned is pruned and len(calls) == 1
    assert len(pruned.tokens) < len(g.tokens)


def test_stage0_leaves_no_reference_cycles():
    # garbage in a cycle would pin stage 0 until a full collection
    snap = generate_synthetic(3, 60, 200, hub_fraction=0.2,
                              reserve_spread_orders=4)
    g = snap.build_graph()
    ids = sorted(g.tokens)
    gc.collect()
    gc.disable()
    try:
        prepared = prepare_routing(g, RouteQuery(ids[0], ids[1], 1,
                                                 hub_count=8))
        assert len(prepared.shortcut_index) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cold_path_leaves_no_reference_cycles():
    # the premise of pausing the cyclic collector over every stage-0 builder
    text = dumps_snapshot(generate_synthetic(3, 60, 200, hub_fraction=0.2,
                                             reserve_spread_orders=4))
    gc.collect()
    gc.disable()
    try:
        g = loads_snapshot(text).build_graph()
        ids = sorted(g.tokens)
        prepared = prepare_routing(g, RouteQuery(ids[0], ids[1], 1,
                                                 hub_count=8))
        assert len(prepared.shortcut_index) > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_repeated_cli_route_leaves_no_reference_cycles(tmp_path, capsys):
    # the parser is built once per process; a parser per call left 247
    # cyclic objects behind on every route
    snap = generate_synthetic(3, 60, 200)
    path = tmp_path / "snap.json"
    path.write_text(dumps_snapshot(snap))
    ids = sorted(t.id for t in snap.tokens)
    argv = ["route", "--snapshot", str(path), "--from", ids[0],
            "--to", ids[1], "--amount", "1000000"]
    assert cli.main(argv) == 0
    gc.collect()
    gc.disable()
    try:
        assert cli.main(argv) == 0
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


STAGE0_BUILDERS = ["load_snapshot", "loads_snapshot", "build_graph",
                   "prepare_routing"]


def _stage0_builders(tmp_path):
    """(builder, good args, bad args, error, a callee seen mid-build)."""
    snap = generate_synthetic(3, 30, 80, hub_fraction=0.2,
                              reserve_spread_orders=4)
    g = snap.build_graph()
    ids = sorted(g.tokens)
    query = RouteQuery(ids[0], ids[1], 1, hub_count=4)
    zero = cp_pool("P0", "T0", "T1", 0, 10)
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text(dumps_snapshot(snap))
    bad.write_text("{")
    return {
        "load_snapshot": (load_snapshot, (good,), (bad,), ParseError,
                          (io_mod, "snapshot_from_dict")),
        "loads_snapshot": (loads_snapshot, (dumps_snapshot(snap),),
                           ("{",), ParseError, (io_mod, "snapshot_from_dict")),
        "build_graph": (build_graph, (snap.tokens, snap.pools),
                        (tokens(2), [zero]), MalformedSnapshotError,
                        (graph_mod, "_expand_pool")),
        "prepare_routing": (prepare_routing, (g, query),
                            (g, replace(query, explicit_hubs=("nope",))),
                            InvalidParamsError, (engine, "select_hubs")),
    }


@pytest.mark.parametrize("fails", [False, True], ids=["returns", "raises"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
@pytest.mark.parametrize("name", STAGE0_BUILDERS)
def test_stage0_builders_restore_gc_state(monkeypatch, tmp_path, name,
                                          enabled, fails):
    build, good, bad, error, (owner, callee) = _stage0_builders(tmp_path)[name]
    during = []
    inner = getattr(owner, callee)

    def spy(*args, **kwargs):
        during.append(gc.isenabled())
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, callee, spy)
    if not enabled:
        gc.disable()
    try:
        if fails:
            with pytest.raises(error):
                build(*bad)
        else:
            built = build(*good)
            # with the collector on, the result leaves the young generations
            young = gc.get_objects(0) + gc.get_objects(1)
            assert any(o is built for o in young) is not enabled
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    # the collector stays off inside the build
    assert not any(during)
    assert during or fails


@pytest.mark.parametrize("name", STAGE0_BUILDERS)
def test_stage0_builders_keep_frozen_objects_frozen(tmp_path, name):
    # the O(1) promotion thaws the permanent generation, so it must not run
    # while the caller has objects frozen; with none frozen it leaves none
    build, good, _, _, _ = _stage0_builders(tmp_path)[name]
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        built = build(*good)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()
    assert not any(o is built for o in gc.get_objects(0) + gc.get_objects(1))
    build(*good)
    assert gc.get_freeze_count() == 0
