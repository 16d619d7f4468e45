import dataclasses
import gc
import pickle
import random
import tracemalloc
from unittest import mock

import pytest

from prime_router import graph as graph_mod
from prime_router.cfmm import (ConstantProduct, PiecewiseLiquidity, Segment,
                               SequentialComposite)
from prime_router.engine import RouteQuery, prepare_routing
from prime_router.errors import AmountOverflowError, MalformedSnapshotError
from prime_router.graph import (
    KIND_CONSTANT_PRODUCT,
    KIND_PIECEWISE,
    Edge,
    Pool,
    PoolDirection,
    SwapGraph,
    Token,
    build_graph,
    pair_arc,
    prune_leaf_tokens,
)
from prime_router.io import (Snapshot, dumps_snapshot, generate_synthetic,
                             load_snapshot, loads_snapshot, save_snapshot)
from prime_router.pathfind import SearchStats, find_path

from instances import (
    cp_pool,
    random_cp_graph,
    random_cp_pools,
    random_mixed_market,
    random_mixed_pools,
    tokens,
)
from oracles import prune_oracle


def test_two_token_pool_expands_bidirectionally():
    g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 100, 200)])
    assert g.edge_count == 2
    (e,) = g.edges_between("T0", "T1")
    assert e.fn.reserve_in == 100 and e.fn.reserve_out == 200
    (back,) = g.edges_between("T1", "T0")
    assert back.fn.reserve_in == 200 and back.fn.reserve_out == 100


def test_three_token_pool_expands_to_six_edges():
    pool = Pool("P0", KIND_CONSTANT_PRODUCT, ("T0", "T1", "T2"), 4,
                (100, 200, 300))
    g = build_graph(tokens(3), [pool])
    assert g.edge_count == 6
    assert len(g.edges_between("T2", "T0")) == 1


def test_parallel_pools_make_parallel_edges():
    pools = [cp_pool("P0", "T0", "T1", 100, 100),
             cp_pool("P1", "T0", "T1", 50, 50)]
    g = build_graph(tokens(2), pools)
    assert g.edge_count == 4
    assert [e.pool_id for e in g.edges_between("T0", "T1")] == ["P0", "P1"]


def test_adjacency_views_keep_their_orders():
    # P1 and P2 tie on spot 3, P3 has spot 2, P0 spot 1; given out of order
    pools = [cp_pool("P3", "T0", "T1", 100, 200),
             cp_pool("P2", "T0", "T1", 10, 30),
             cp_pool("P0", "T0", "T1", 100, 100),
             cp_pool("P1", "T0", "T1", 100, 300),
             cp_pool("P4", "T0", "T2", 100, 100)]
    g = build_graph(tokens(3), pools)
    rows = dict(g.out_items("T0"))
    # one order, spot first and ties on pool id, in one tuple both views share
    assert [e.pool_id for e in rows["T1"]] == ["P1", "P2", "P3", "P0"]
    assert rows["T1"] is g.edges_between("T0", "T1")
    assert rows["T2"] is g.edges_between("T0", "T2")
    assert [e.pool_id for e in rows["T2"]] == ["P4"]


def test_every_builder_keeps_one_map():
    # build_graph's graph, its leaf-pruned part (``_subgraph``) and
    # prepare_routing's core: out_items(u) pairs each neighbour, in id
    # order, with the tuple edges_between returns, and edge_count counts them
    g = generate_synthetic(5, 60, 200, hub_fraction=0.2,
                           reserve_spread_orders=4).build_graph()
    ids = sorted(g.tokens)
    prep = prepare_routing(g, RouteQuery(ids[0], ids[1], 1, hub_count=8))
    pruned = prune_leaf_tokens(g, prep.hubs)
    assert len(pruned.tokens) < len(g.tokens) and prep.shortcut_index
    for view in (g, pruned, prep.core):
        count = 0
        for u in view.token_ids():
            items = list(view.out_items(u))
            neighbours = [v for v, _ in items]
            assert neighbours == sorted(set(neighbours))
            for v, edges in items:
                assert edges is view.edges_between(u, v)
                count += len(edges)
        assert count > 0 and view.edge_count == count


def test_edge_count_matches_pool_arities():
    rng = random.Random(3)
    toks, pools = random_cp_pools(rng, 8, 15)
    g = build_graph(toks, pools)
    expected = sum(len(p.tokens) * (len(p.tokens) - 1) for p in pools)
    assert g.edge_count == expected
    assert g.pools == {p.id for p in pools}


def test_build_is_deterministic():
    rng = random.Random(5)
    toks = tokens(6)
    pools = [cp_pool(f"P{i}", *rng.sample([t.id for t in toks], 2),
                     rng.randint(10**6, 10**9), rng.randint(10**6, 10**9))
             for i in range(12)]
    g1 = build_graph(toks, pools)
    g2 = build_graph(list(toks), list(pools))
    for u in g1.token_ids():
        assert [(v, [e.pool_id for e in es]) for v, es in g1.out_items(u)] == \
               [(v, [e.pool_id for e in es]) for v, es in g2.out_items(u)]


def test_edges_between_unconnected_pair_is_empty():
    g = build_graph(tokens(3), [cp_pool("P0", "T0", "T1", 10, 10)])
    assert g.edges_between("T0", "T2") == ()


class TestValidation:
    def test_dangling_token(self):
        with pytest.raises(MalformedSnapshotError):
            build_graph(tokens(2), [cp_pool("P0", "T0", "T9", 10, 10)])

    def test_zero_reserve(self):
        with pytest.raises(MalformedSnapshotError):
            build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 0, 10)])

    def test_duplicate_pool_id(self):
        with pytest.raises(MalformedSnapshotError):
            build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 10, 10),
                                    cp_pool("P0", "T1", "T0", 10, 10)])

    def test_duplicate_token_in_pool(self):
        pool = Pool("P0", KIND_CONSTANT_PRODUCT, ("T0", "T0"), 0, (10, 10))
        with pytest.raises(MalformedSnapshotError):
            build_graph(tokens(1), [pool])

    def test_piecewise_needs_both_directions(self):
        seg = (Segment(10, 100, 100),)
        pool = Pool("P0", KIND_PIECEWISE, ("T0", "T1"), 0,
                    directions=(PoolDirection("T0", "T1", seg),))
        with pytest.raises(MalformedSnapshotError):
            build_graph(tokens(2), [pool])

    def test_piecewise_direction_given_twice(self):
        # two curves for one direction would put two edges of a pool on a pair
        seg = (Segment(10, 100, 100),)
        pool = Pool("P0", KIND_PIECEWISE, ("T0", "T1"), 0, directions=(
            PoolDirection("T0", "T1", seg), PoolDirection("T1", "T0", seg),
            PoolDirection("T0", "T1", seg)))
        with pytest.raises(MalformedSnapshotError):
            build_graph(tokens(2), [pool])

    @pytest.mark.parametrize("pool", [
        cp_pool("P0", "T0", "T1", 10, 10, True),
        cp_pool("P0", "T0", "T1", 10, 10, 1.5),
        cp_pool("P0", "T0", "T1", -1, 10),
        cp_pool("P0", "T0", "T1", 10.0, 10),
        cp_pool("P0", "T0", "T1", 10, 10, 10_000),
        # the first segment ends below the second's entry price
        Pool("P0", KIND_PIECEWISE, ("T0", "T1"), 0, directions=(
            PoolDirection("T0", "T1", (Segment(1000, 100, 100),
                                       Segment(10, 1000, 999))),
            PoolDirection("T1", "T0", (Segment(10, 100, 100),)))),
    ], ids=["bool_fee", "float_fee", "negative_reserve", "float_reserve",
            "fee_10000", "non_concave_segments"])
    def test_bad_curve_names_pool(self, pool):
        with pytest.raises(MalformedSnapshotError, match="^pool 'P0': "):
            build_graph(tokens(2), [pool])

    @pytest.mark.parametrize("pool,error,message", [
        (Pool("P0", KIND_PIECEWISE, ("T0", "T1", "T2"), 0),
         MalformedSnapshotError, "piecewise pools are two-token"),
        (Pool("P0", "stableswap", ("T0", "T1"), 0, (10, 10)),
         MalformedSnapshotError, "unknown pool kind 'stableswap'"),
        (cp_pool("P0", "T0", "T1", 2**256, 10), AmountOverflowError,
         "reserve_in exceeds 256-bit range"),
    ], ids=["three_token_piecewise", "unknown_kind", "reserve_2_256"])
    def test_bad_pool_is_rejected_by_name(self, pool, error, message):
        with pytest.raises(error, match=f"^pool 'P0': {message}$"):
            build_graph(tokens(3), [pool])

    @pytest.mark.parametrize("decimals", ["18", 18.0, True],
                             ids=["str", "float", "bool"])
    def test_non_int_decimals(self, decimals):
        toks = [Token("T0", "A", decimals), Token("T1", "B", 18)]
        with pytest.raises(MalformedSnapshotError,
                           match="^token 'T0': decimals must be an int"):
            build_graph(toks, [cp_pool("P0", "T0", "T1", 10, 10)])

    def test_each_piecewise_curve_built_once(self, monkeypatch):
        built = []
        real = graph_mod.PiecewiseLiquidity

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)
        monkeypatch.setattr(graph_mod, "PiecewiseLiquidity", counting)
        snap = generate_synthetic(11, 12, 24)
        snap.build_graph()
        directions = sum(len(p.directions) for p in snap.pools)
        assert directions > 0
        assert len(built) == directions


class TestEdgeConstructor:
    """``Edge``'s hand-written constructor is the generated frozen one."""

    def test_fields_are_frozen(self):
        e = Edge("P0", "T0", "T1", ConstantProduct(10, 20, 30))
        for name in ("pool_id", "token_in", "token_out", "fn", "legs",
                     "pool_ids", "spot", "ceiling"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e, name, None)

    def test_keyword_construction(self):
        fn = ConstantProduct(10, 20, 30)
        assert Edge(pool_id="P0", token_in="T0", token_out="T1", fn=fn) == \
            Edge("P0", "T0", "T1", fn, ())
        assert Edge(fn=fn, token_out="T1", pool_id="P0", token_in="T0",
                    legs=()).pool_ids == ("P0",)
        with pytest.raises(TypeError):
            Edge("P0", "T0", "T1")

    def test_equality_and_hash_read_the_five_fields(self):
        fn = ConstantProduct(10, 20, 30)
        a, b = Edge("P0", "T0", "T1", fn), Edge("P0", "T0", "T1",
                                                 ConstantProduct(10, 20, 30))
        assert a == b and hash(a) == hash(b)
        # the generated hash: of the tuple of the compared fields
        assert hash(a) == hash(("P0", "T0", "T1", fn, ()))
        assert a != Edge("P1", "T0", "T1", fn)
        assert a != Edge("P0", "T0", "T1", ConstantProduct(10, 21, 30))
        # the derived slots compare as nothing
        a.ceiling
        a.pool_ids
        assert a == b and hash(a) == hash(b)
        assert repr(a) == ("Edge(pool_id='P0', token_in='T0', token_out='T1', "
                           f"fn={fn!r}, legs=())")
        back = pickle.loads(pickle.dumps(b))
        assert back == b and hash(back) == hash(b)
        assert (back.pool_ids, back.spot) == (("P0",), b.spot)

    def test_pool_ids_and_spot(self):
        first = Edge("P0", "T0", "T1", ConstantProduct(10, 20, 30))
        second = Edge("P1", "T1", "T2", PiecewiseLiquidity(
            (Segment(50, 40, 10),), 5))
        assert first.spot == (9970 * 20) / (10_000 * 10)
        assert second.spot == (9995 * 10) / (10_000 * 40)
        legs = (first, second)
        shortcut = Edge("sc:T0>T2:0", "T0", "T2", SequentialComposite(
            (first.fn, second.fn)), legs=legs)
        assert shortcut.spot == (9970 * 20 * 9995 * 10) / (
            10_000 * 10 * 10_000 * 40)
        # the pool ids wait for their first read, which fills the slot once
        for e, want in [(first, ("P0",)), (second, ("P1",)),
                        (shortcut, ("P0", "P1"))]:
            assert not _slot_filled(e, "pool_ids")
            ids = e.pool_ids
            assert ids == want and _slot_filled(e, "pool_ids")
            assert e.pool_ids is ids

    def test_constant_product_constructor_is_the_generated_one(self):
        fn = ConstantProduct(fee_bps=30, reserve_out=20, reserve_in=10)
        assert fn == ConstantProduct(10, 20, 30)
        assert hash(fn) == hash((10, 20, 30))
        assert ConstantProduct(10, 20) == ConstantProduct(10, 20, 0)
        assert repr(fn) == \
            "ConstantProduct(reserve_in=10, reserve_out=20, fee_bps=30)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            fn.reserve_in = 1
        for args, error in [((0, 20), "reserves must be strictly positive"),
                            ((10, -1), "reserve_out must be non-negative"),
                            ((10, 20, 10_000), "fee_bps must be in")]:
            with pytest.raises(ValueError, match=error):
                ConstantProduct(*args)


# (class, positional arguments, their field names, keyword defaults):
# stage 0's other value classes with a hand-written constructor
VALUE_CLASSES = {
    "Token": (Token, ("T0", "SYM", 18), ("id", "symbol", "decimals"), {}),
    "PoolDirection": (PoolDirection, ("T0", "T1", (Segment(5, 6, 7),)),
                      ("token_in", "token_out", "segments"), {}),
    "Pool": (Pool, ("P0", KIND_CONSTANT_PRODUCT, ("T0", "T1"), 30, (10, 20),
                    ()),
             ("id", "kind", "tokens", "fee_bps", "reserves", "directions"),
             {"reserves": (), "directions": ()}),
    "Segment": (Segment, (5, 6, 7),
                ("capacity_in", "virtual_reserve_in", "virtual_reserve_out"),
                {}),
}


class TestValueConstructors:
    """``Token``, ``PoolDirection``, ``Pool`` and ``Segment``'s
    hand-written constructors are the generated frozen ones."""

    @pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
    def test_fields_are_frozen(self, name):
        cls, args, fields, _ = VALUE_CLASSES[name]
        value = cls(*args)
        assert [f.name for f in dataclasses.fields(cls)] == list(fields)
        for field_name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field_name, None)
        assert not hasattr(value, "__dict__")

    @pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
    def test_keyword_construction_and_defaults(self, name):
        cls, args, fields, defaults = VALUE_CLASSES[name]
        keywords = dict(zip(fields, args))
        assert cls(**dict(reversed(keywords.items()))) == cls(*args)
        assert [getattr(cls(*args), f) for f in fields] == list(args)
        required = [a for f, a in zip(fields, args) if f not in defaults]
        bare = cls(*required)
        assert all(getattr(bare, f) == v for f, v in defaults.items())
        with pytest.raises(TypeError):
            cls(*required[:-1])
        with pytest.raises(TypeError):
            cls(*args, no_such_field=1)

    @pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
    def test_equality_hash_and_repr(self, name):
        cls, args, fields, _ = VALUE_CLASSES[name]
        a, b = cls(*args), cls(*args)
        assert a == b and hash(a) == hash(b)
        # the generated hash: of the tuple of the fields
        assert hash(a) == hash(tuple(args))
        changed = dataclasses.replace(a, **{fields[0]: "other"})
        assert changed != a
        assert [getattr(changed, f) for f in fields[1:]] == list(args[1:])
        assert repr(a) == f"{name}(" + ", ".join(
            f"{f}={v!r}" for f, v in zip(fields, args)) + ")"
        assert pickle.loads(pickle.dumps(a)) == a

    def test_pool_directions_by_keyword(self):
        d = (PoolDirection("T0", "T1", (Segment(5, 6, 7),)),
             PoolDirection("T1", "T0", (Segment(5, 7, 6),)))
        pool = Pool("P1", KIND_PIECEWISE, ("T0", "T1"), 5, directions=d)
        assert pool.reserves == () and pool.directions == d
        assert pool == Pool("P1", KIND_PIECEWISE, ("T0", "T1"), 5, (), d)


def test_validate_pool_names_the_pool_only_on_failure():
    # the "pool '...'" prefix of a structure error is built on failure
    built = []

    class Id(str):
        def __repr__(self):
            built.append(str(self))
            return str.__repr__(self)

    toks = tokens(3)
    good = cp_pool(Id("P0"), "T0", "T1", 10, 20)
    build_graph(toks, [good])
    assert built == []
    with pytest.raises(MalformedSnapshotError,
                       match="^pool 'P1': dangling token id 'T9'$"):
        build_graph(toks, [good, cp_pool(Id("P1"), "T0", "T9", 10, 20)])
    assert built == ["P1"]


def _rows(g):
    """Every row of ``g``: its neighbours and their edges' pool ids, in
    order."""
    return [(u, [(v, [e.pool_id for e in es]) for v, es in g.out_items(u)])
            for u in g.token_ids()]


def test_swap_graph_builds_its_rows_without_a_second_copy():
    # each pair's edges go straight into a tuple, and each scratch row is
    # dropped as its sorted row is made: lists of every pair's edges next
    # to their tuples peaked at 1.05x what the graph holds, against 0.07x
    snap = generate_synthetic(5, 2000, 5000, 0.01, 6)
    g = snap.build_graph()
    token_map = dict(g.tokens)
    edges = [e for u in g.token_ids() for _, es in g.out_items(u)
             for e in es]
    random.Random(1).shuffle(edges)
    want = _rows(g)
    del g
    gc.collect()
    tracemalloc.start()
    try:
        rebuilt = SwapGraph(token_map, edges)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _rows(rebuilt) == want
    # halfway between the two
    assert peak - held < 0.55 * held


def _pool_objects():
    """How many ``Pool`` and ``PoolDirection`` objects are alive."""
    return sum(isinstance(o, (Pool, PoolDirection)) for o in gc.get_objects())


def test_stage0_keeps_no_pool_once_the_snapshot_is_dropped(tmp_path):
    # each edge's curve holds its pool's facts: once the snapshot is
    # dropped, as the CLI drops it, stage 0 (the pruned graph too) keeps
    # none of the snapshot's pools or directions
    path = tmp_path / "market.json"
    save_snapshot(generate_synthetic(7, 60, 200, hub_fraction=0.1,
                                     reserve_spread_orders=6), path)
    gc.collect()
    before = _pool_objects()
    snap = load_snapshot(path)
    assert any(p.directions for p in snap.pools)
    g = snap.build_graph()
    assert _pool_objects() - before > 200
    del snap
    ids = sorted(g.tokens)
    prepared = prepare_routing(g, RouteQuery(ids[0], ids[1], 1, max_hops=3,
                                             hub_count=8))
    assert prepared.pruned.pools
    gc.collect()
    assert _pool_objects() == before


def _forbid_admission(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("an admitted entry was checked again")
    for name in ("add_token", "add_pool", "_validate_pool"):
        monkeypatch.setattr(graph_mod, name, forbidden)


class TestAdmitOnce:
    """Entries ``io`` admitted reach the graph without a second check;
    every other snapshot's entries are checked in full."""

    @pytest.fixture
    def loaded(self):
        return loads_snapshot(dumps_snapshot(generate_synthetic(17, 30, 90)))

    def test_loaded_snapshot_is_not_checked_again(self, loaded, monkeypatch):
        want = graph_layout(loaded.build_graph())
        _forbid_admission(monkeypatch)
        assert graph_layout(loaded.build_graph()) == want
        # a pickled snapshot keeps its pools' tokens
        assert graph_layout(pickle.loads(pickle.dumps(loaded)).build_graph()) \
            == want

    def test_hand_built_snapshot_is_checked(self, loaded, monkeypatch):
        _forbid_admission(monkeypatch)
        # equal tokens, but another tuple of them
        tokens = tuple(list(loaded.tokens))
        for snap in (Snapshot(1, "x", loaded.tokens, tuple(loaded.pools)),
                     # admitted pools, but not against these tokens
                     Snapshot(1, "x", tokens, loaded.pools),
                     dataclasses.replace(loaded, pools=loaded.pools[1:])):
            with pytest.raises(AssertionError, match="checked again"):
                snap.build_graph()
        with pytest.raises(AssertionError, match="checked again"):
            build_graph(loaded.tokens, list(loaded.pools))

    @pytest.mark.parametrize("edit,message", [
        (lambda toks, pools: (toks, pools + pools[:1]),
         "duplicate pool id 'P000000'"),
        (lambda toks, pools: (toks[1:], pools),
         "pool 'P000000': dangling token id "),
        (lambda toks, pools: ((dataclasses.replace(toks[0], decimals=31),)
                              + toks[1:], pools),
         "token '[^']+': decimals out of range"),
        (lambda toks, pools: ((dataclasses.replace(toks[0], decimals="18"),)
                              + toks[1:], pools),
         "token '[^']+': decimals must be an int, got str"),
    ], ids=["duplicate_pool_id", "dangling_token", "decimals_31",
            "str_decimals"])
    def test_hand_built_snapshot_keeps_its_errors(self, loaded, edit,
                                                  message):
        toks, pools = edit(loaded.tokens, loaded.pools)
        with pytest.raises(MalformedSnapshotError, match=f"^{message}"):
            Snapshot(1, "x", toks, pools).build_graph()

    def test_loaded_and_hand_built_build_the_same(self, loaded):
        hand = Snapshot(loaded.version, loaded.block_ref,
                        tuple(loaded.tokens), tuple(loaded.pools))
        graphs = [loaded.build_graph(), hand.build_graph()]
        assert graph_layout(graphs[0]) == graph_layout(graphs[1])
        spots = [{(u, v): [e.spot for e in es] for u in g.token_ids()
                  for v, es in g.out_items(u)} for g in graphs]
        assert spots[0] == spots[1]
        ids = sorted(graphs[0].tokens)
        shortcuts = [[(e.pool_id, e.pool_ids, e.spot) for e in prepare_routing(
            g, RouteQuery(ids[0], ids[1], 1, hub_count=4)).shortcut_index]
            for g in graphs]
        assert shortcuts[0] and shortcuts[0] == shortcuts[1]


class TestPrune:
    def test_star_collapses_to_protected_hub(self):
        toks = tokens(6)
        pools = [cp_pool(f"P{i}", "T0", f"T{i}", 10, 10) for i in range(1, 6)]
        g = build_graph(toks, pools)
        pruned = prune_leaf_tokens(g, protected={"T0"})
        assert pruned.token_ids() == ("T0",)
        assert pruned.edge_count == 0

    def test_triangle_unchanged(self):
        pools = [cp_pool("P0", "T0", "T1", 10, 10),
                 cp_pool("P1", "T1", "T2", 10, 10),
                 cp_pool("P2", "T2", "T0", 10, 10)]
        g = build_graph(tokens(3), pools)
        pruned = prune_leaf_tokens(g, protected=set())
        assert pruned.token_ids() == ("T0", "T1", "T2")
        assert pruned.edge_count == 6

    def test_protected_leaf_survives_with_its_pool(self):
        toks = tokens(6)
        pools = [cp_pool(f"P{i}", "T0", f"T{i}", 10, 10) for i in range(1, 6)]
        g = build_graph(toks, pools)
        pruned = prune_leaf_tokens(g, protected={"T0", "T3"})
        assert pruned.token_ids() == ("T0", "T3")
        assert len(pruned.edges_between("T0", "T3")) == 1
        assert pruned.edges_between("T0", "T1") == ()

    def test_multi_pool_leaf_pruned(self):
        # several pools, all to the same counterparty: still a leaf
        toks = tokens(3)
        pools = [cp_pool("P0", "T0", "T1", 10, 10),
                 cp_pool("P1", "T0", "T1", 20, 20),
                 cp_pool("P2", "T0", "T2", 10, 10),
                 cp_pool("P3", "T1", "T2", 10, 10)]
        g = build_graph(toks, pools)
        pruned = prune_leaf_tokens(g, protected=set())
        assert pruned.token_ids() == ("T0", "T1", "T2")
        g2 = build_graph(toks, pools[:2] + [cp_pool("P9", "T1", "T2", 5, 5)])
        pruned2 = prune_leaf_tokens(g2, protected={"T1", "T2"})
        assert "T0" not in pruned2.token_ids()

    def test_never_removes_short_paths_between_protected(self):
        # enumerate: any token on a <=2-hop simple path between two protected
        # tokens keeps >= 2 neighbours, so pruning must spare it
        rng = random.Random(13)
        for trial in range(30):
            n = rng.randint(4, 10)
            g = random_cp_graph(rng, n, rng.randint(n - 1, 16))
            ids = sorted(g.tokens)
            s, t = rng.sample(ids, 2)
            pruned = prune_leaf_tokens(g, protected={s, t})
            via = set()
            for mid in ids:
                if mid in (s, t):
                    continue
                if g.edges_between(s, mid) and g.edges_between(mid, t):
                    via.add(mid)
            for mid in via:
                assert pruned.has_token(mid)


def graph_layout(g):
    """Everything a consumer can observe about a graph's structure."""
    return (list(g.tokens), sorted(g.pools), g.edge_count,
            {u: [(v, [e.pool_id for e in es]) for v, es in g.out_items(u)]
             for u in g.token_ids()},
            {(u, v): [e.pool_id for e in g.edges_between(u, v)]
             for u in g.token_ids() for v in g.token_ids()
             if g.edges_between(u, v)})


def in_arcs_oracle(g):
    """Every token's ``(u, best spot, largest ceiling)`` per pair u -> v,
    read off the rows forward."""
    into = {}
    for u in g.token_ids():
        for v, es in g.out_items(u):
            into.setdefault(v, []).append(
                (u, es[0].spot, max(e.ceiling for e in es)))
    return into


def test_in_arcs_read_the_rows_backward():
    # a built graph (every pair has its reverse), its leaf-pruned subgraph,
    # and the same edges with some pairs' reverse dropped
    rng = random.Random(0xA7C)
    one_way = 0
    for _ in range(80):
        g = random_mixed_market(rng)
        edges = [e for u in g.token_ids() for _, es in g.out_items(u)
                 for e in es]
        dropped = {(e.token_in, e.token_out) for e in edges
                   if rng.random() < 0.3}
        kept = [e for e in edges if (e.token_in, e.token_out) not in dropped]
        partial = SwapGraph(g.tokens, kept)
        pruned = prune_leaf_tokens(g, rng.sample(sorted(g.tokens), 1))
        for view in (g, pruned, partial):
            # the ids are sorted once per graph, not per call
            assert view.token_ids() == tuple(sorted(view.tokens))
            assert view.token_ids() is view.token_ids()
            want = in_arcs_oracle(view)
            for v in view.token_ids():
                assert list(view.in_arcs(v)) == want.get(v, [])
                assert view.in_arcs(v) is view.in_arcs(v)
        one_way += any((v, u) not in dropped for u, v in dropped)
    assert one_way > 40


class TestPruneEquivalence:
    def _markets(self):
        """``(rng, tokens, pools, graph)``: random markets with 3-token
        pools, then synthetic ones."""
        rng = random.Random(0x5EED)
        for trial in range(120):
            toks, pools = random_mixed_pools(rng)
            yield rng, toks, pools, build_graph(toks, pools)
        for trial in range(20):
            n = rng.randint(5, 30)
            snap = generate_synthetic(trial, n, rng.randint(n - 1, 2 * n),
                                      hub_fraction=0.2)
            yield rng, snap.tokens, snap.pools, snap.build_graph()

    def _protected_sets(self, rng, g):
        ids = sorted(g.tokens)
        yield set()
        yield set(rng.sample(ids, 1))
        yield set(rng.sample(ids, rng.randint(1, len(ids))))

    def test_matches_rebuild_oracle(self):
        # the prune reads neighbour counts off the rows; the oracle drops
        # leaves by their pools, round by round, and rebuilds the rest
        pruned_any = 0
        for rng, toks, pools, g in self._markets():
            arity = {p.id: len(p.tokens) for p in pools}
            for protected in self._protected_sets(rng, g):
                got = prune_leaf_tokens(g, protected)
                want = prune_oracle(toks, pools, protected)
                assert graph_layout(got) == graph_layout(want)
                assert got.edge_count == sum(
                    arity[pid] * (arity[pid] - 1) for pid in got.pools)
                pruned_any += len(got.tokens) < len(g.tokens)
        assert pruned_any > 100

    def test_shares_input_objects(self):
        for rng, _, _, g in self._markets():
            for protected in self._protected_sets(rng, g):
                got = prune_leaf_tokens(g, protected)
                for t, tok in got.tokens.items():
                    assert tok is g.tokens[t]
                assert got.pools <= g.pools
                for u in got.token_ids():
                    for v, es in got.out_items(u):
                        parent = g.edges_between(u, v)
                        for e in es:
                            assert any(e is p for p in parent)

    def test_one_way_pairs_join_neighbours_too(self):
        # where some pairs lack their reverse, a token's neighbours are the
        # tokens an edge joins it to either way, not its row's alone
        rng = random.Random(0x1EAF)
        one_way = pruned_any = 0
        for _ in range(150):
            g = random_mixed_market(rng)
            edges = [e for u in g.token_ids() for _, es in g.out_items(u)
                     for e in es]
            dropped = {(e.token_in, e.token_out) for e in edges
                       if rng.random() < 0.3}
            partial = SwapGraph(g.tokens, [
                e for e in edges if (e.token_in, e.token_out) not in dropped])
            protected = set(rng.sample(sorted(g.tokens), 1))
            alive = set(g.tokens)
            while True:
                near = {t: set() for t in alive}
                for u in partial.token_ids():
                    for v, _ in partial.out_items(u):
                        if u in alive and v in alive:
                            near[u].add(v)
                            near[v].add(u)
                drop = {t for t in alive
                        if t not in protected and len(near[t]) <= 1}
                if not drop:
                    break
                alive -= drop
            got = prune_leaf_tokens(partial, protected)
            assert got.token_ids() == tuple(sorted(alive))
            for u in got.token_ids():
                assert list(got.out_items(u)) == [
                    (v, es) for v, es in partial.out_items(u) if v in alive]
            one_way += not partial.pairs_reversed()
            pruned_any += len(alive) < len(g.tokens)
        assert one_way > 50 and pruned_any > 50

    def test_pruning_twice_changes_nothing(self):
        for rng, _, _, g in self._markets():
            for protected in self._protected_sets(rng, g):
                once = prune_leaf_tokens(g, protected)
                twice = prune_leaf_tokens(once, protected)
                assert graph_layout(twice) == graph_layout(once)

    def test_never_rebuilds_or_expands(self, monkeypatch):
        rng = random.Random(9)
        graphs = [random_mixed_market(rng) for _ in range(10)]

        def forbidden(*args, **kwargs):
            raise AssertionError("prune_leaf_tokens rebuilt the graph")
        monkeypatch.setattr(graph_mod, "build_graph", forbidden)
        monkeypatch.setattr(graph_mod, "_expand_pool", forbidden)
        monkeypatch.setattr(graph_mod, "_validate_pool", forbidden)
        for g in graphs:
            prune_leaf_tokens(g, set())


def _slot_filled(obj, name):
    """Whether ``obj``'s slot ``name`` holds a value, read without filling
    it (through the class's slot descriptor, not the lazy fill)."""
    try:
        getattr(type(obj), name).__get__(obj)
    except AttributeError:
        return False
    return True


class TestSlottedValues:
    """Stage 0's value classes hold no instance ``__dict__``, and what they
    derive lazily is computed on the first read only: a later field or a
    ``cached_property`` cannot quietly undo either."""

    @pytest.fixture
    def stage0(self):
        snap = loads_snapshot(dumps_snapshot(generate_synthetic(
            13, 40, 140, hub_fraction=0.1, reserve_spread_orders=6)))
        g = snap.build_graph()
        ids = sorted(g.tokens)
        prepared = prepare_routing(g, RouteQuery(ids[0], ids[1], 1,
                                                 max_hops=3, hub_count=8))
        return snap, g, prepared

    def test_no_instance_dict(self, stage0):
        snap, g, prepared = stage0
        pool = next(p for p in snap.pools if p.directions)
        edge = prepared.shortcut_index[0]
        values = [snap.tokens[0], pool, pool.directions[0],
                  pool.directions[0].segments[0], edge, edge.fn,
                  edge.fn.parts[0], g.edges_between(*pool.tokens)[0].fn,
                  edge.fn.pieces[0]]
        assert sorted(type(v).__name__ for v in values) == sorted([
            "Token", "Pool", "PoolDirection", "Segment", "Edge",
            "SequentialComposite", "ConstantProduct", "PiecewiseLiquidity",
            "Piece"])
        for v in values:
            assert not hasattr(v, "__dict__"), type(v).__name__
            with pytest.raises(AttributeError):
                v.no_such_field

    def test_stage0_derives_nothing_lazy(self, stage0):
        _, g, prepared = stage0
        edges = [e for graph in (g, prepared.core)
                 for u in graph.token_ids() for _, es in graph.out_items(u)
                 for e in es]
        assert set(prepared.shortcut_index) <= set(edges)
        assert prepared.shortcut_index
        for e in edges:
            assert not _slot_filled(e, "pool_ids")
            assert not _slot_filled(e, "closed")
            assert not _slot_filled(e, "ceiling")
            assert not _slot_filled(e.fn, "pieces")
            for part in getattr(e.fn, "parts", ()):
                assert not _slot_filled(part, "pieces")
        assert not any(_slot_filled(e.fn, "_capacity")
                       for e in prepared.shortcut_index)

    def test_each_derivation_computed_once(self):
        cp = ConstantProduct(10**9, 10**9, 30)
        pw = PiecewiseLiquidity((Segment(50, 100, 100),
                                 Segment(150, 150, 66)), 0)
        for fn in (cp, pw, SequentialComposite((cp, pw))):
            first = fn.pieces
            assert _slot_filled(fn, "pieces")
            assert fn.pieces is first
        for fn in (cp, pw, SequentialComposite((cp, pw))):
            e = Edge("P", "A", "B", fn)
            assert not _slot_filled(e, "closed")
            assert e.closed is e.closed
            assert _slot_filled(e, "closed")
        # a None derivation stays cached too: constant-product legs have
        # no capacity
        none = SequentialComposite((cp, cp))
        assert not _slot_filled(none, "_capacity")
        assert none.input_capacity() is None
        assert _slot_filled(none, "_capacity")
        # a shortcut's ceiling folds its legs once: cp's output overruns
        # pw's capacity, so pw's own ceiling bounds the chain
        shortcut = Edge("P", "A", "B", SequentialComposite((cp, pw)))
        assert not _slot_filled(shortcut, "ceiling")
        with mock.patch.object(SequentialComposite, "output_ceiling",
                               autospec=True,
                               side_effect=SequentialComposite.output_ceiling
                               ) as derive:
            assert shortcut.ceiling == shortcut.ceiling == 67
            assert derive.call_count == 1
        composite = SequentialComposite((pw, cp))
        with mock.patch.object(SequentialComposite, "_feasible",
                               autospec=True,
                               side_effect=SequentialComposite._feasible
                               ) as feasible:
            assert composite.input_capacity() == 200
            calls = feasible.call_count
            assert calls > 0
            assert composite.input_capacity() == 200
            assert feasible.call_count == calls

    def test_search_reads_a_filled_ceiling(self):
        def pair():
            # two equal pools: the second's quote ties the first's
            return build_graph(tokens(2), [
                cp_pool(pid, "T0", "T1", 10**9, 10**9, 30)
                for pid in ("P0", "P1")])

        g = pair()
        first, second = g.edges_between("T0", "T1")
        object.__setattr__(first, "ceiling", 5)
        object.__setattr__(second, "ceiling", 7)
        with mock.patch.object(ConstantProduct, "output_ceiling",
                               side_effect=AssertionError("curve read")):
            assert pair_arc("T0", (first, second)) == ("T0", first.spot, 7)
            assert g.in_arcs("T1") == (("T0", first.spot, 7),)
        # a second ceiling below the first's quote leaves it unquoted
        quoted = {}
        for filled in (False, True):
            g = pair()
            if filled:
                object.__setattr__(g.edges_between("T0", "T1")[1],
                                   "ceiling", 1)
            stats = SearchStats()
            res = find_path(g, "T0", "T1", 10**6, 0.0, 2, stats=stats)
            assert res.edges[0].pool_id == "P0"
            quoted[filled] = stats.swap_evals
        assert quoted == {False: 2, True: 1}

    def test_class_patch_reaches_filled_slots(self):
        e = Edge("P", "A", "B", ConstantProduct(10**9, 10**9, 30))
        closed = e.closed
        with mock.patch.object(Edge, "closed", None):
            assert e.closed is None
            assert Edge("P", "A", "B", e.fn).closed is None
        assert e.closed is closed
