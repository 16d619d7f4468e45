import hashlib
import itertools
import json
import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prime_router.baselines import best_single_path
from prime_router.engine import (
    RouteQuery,
    _query_overlay,
    prepare_routing,
    prime,
    verify_solution,
)
from prime_router.cfmm import (
    ConstantProduct,
    PiecewiseLiquidity,
    Segment,
    SequentialComposite,
)
from prime_router.errors import NoRouteError
from prime_router.graph import (
    KIND_CONSTANT_PRODUCT,
    KIND_PIECEWISE,
    Edge,
    Pool,
    SwapGraph,
    Token,
    build_graph,
    prune_leaf_tokens,
)
from prime_router.io import generate_synthetic, solution_to_dict
from prime_router.pathfind import (
    BOUND_SLACK,
    SearchContext,
    SearchStats,
    _closed_out,
    _rate_table,
    find_path,
    simulate_chain,
)

from instances import cp_pool, random_cp_graph, tokens
from oracles import (
    GraphTooLargeError,
    enumerate_paths_oracle,
    rate_table_oracle,
    unbounded_find_path,
)


def triangle_graph():
    toks = tokens(3)
    pools = [cp_pool("P0", "T0", "T1", 10**6, 10**6),
             cp_pool("P1", "T1", "T2", 10**6, 10**6),
             cp_pool("P2", "T0", "T2", 10**6, 10**6)]
    return build_graph(toks, pools)


class TestOracle:
    def test_triangle_two_hop_count(self):
        g = triangle_graph()
        paths = enumerate_paths_oracle(g, "T0", "T2", 2)
        assert len(paths) == 2

    def test_one_hop_restriction(self):
        g = triangle_graph()
        assert len(enumerate_paths_oracle(g, "T0", "T2", 1)) == 1

    def test_parallel_pools_are_distinct_paths(self):
        g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 10, 10),
                                    cp_pool("P1", "T0", "T1", 10, 10)])
        assert len(enumerate_paths_oracle(g, "T0", "T1", 1)) == 2

    def test_size_guard(self):
        rng = random.Random(0)
        g = random_cp_graph(rng, 17, 20)
        with pytest.raises(GraphTooLargeError):
            enumerate_paths_oracle(g, "T0", "T1", 2)


class TestFindPath:
    def test_single_edge(self):
        g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 10**6, 10**6)])
        res = find_path(g, "T0", "T1", 1000, 0.0, 3)
        assert res is not None
        assert [e.pool_id for e in res.edges] == ["P0"]
        assert res.output == g.edges_between("T0", "T1")[0].fn.swap_out(1000)

    def test_prefers_better_two_hop_route(self):
        # direct pool is shallow; the detour through T1 yields more
        toks = tokens(3)
        pools = [cp_pool("D", "T0", "T2", 10**3, 10**3),
                 cp_pool("A", "T0", "T1", 10**9, 10**9),
                 cp_pool("B", "T1", "T2", 10**9, 2 * 10**9)]
        g = build_graph(toks, pools)
        res = find_path(g, "T0", "T2", 10**4, 0.0, 3)
        assert [e.pool_id for e in res.edges] == ["A", "B"]
        # oracle: exhaustive enumeration picks the same maximum
        best = max(simulate_chain(p, 10**4)
                   for p in enumerate_paths_oracle(g, "T0", "T2", 3))
        assert res.output == best

    def test_threshold_gate_returns_null(self):
        g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 10**6, 10**6)])
        res = find_path(g, "T0", "T1", 10**5, 0.99, 3)
        assert res is None

    def test_threshold_soundness(self):
        rng = random.Random(9)
        for _ in range(50):
            n = rng.randint(3, 8)
            g = random_cp_graph(rng, n, rng.randint(n - 1, 14))
            tau = rng.choice((0.0, 0.3, 0.8, 0.95))
            x = rng.randint(10**3, 10**8)
            res = find_path(g, "T0", f"T{n-1}", x, tau, 3)
            if res is not None:
                assert res.output / x > tau

    @given(seed=st.integers(0, 2**32 - 1), overlay=st.booleans(),
           piecewise=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_result_clears_tau_at_average_and_spot_rate(self, seed, overlay,
                                                        piecewise):
        # stage 1's only stop rule: a returned path's exact average rate is
        # above tau, and concavity puts its spot rate at or above that, so
        # a spot-rate test at tau would never turn it away
        rng = random.Random(seed)
        n = rng.randint(4, 12)
        if piecewise:
            g = generate_synthetic(seed, n, rng.randint(n - 1, 2 * n + 4),
                                   hub_fraction=0.3,
                                   reserve_spread_orders=3).build_graph()
        else:
            g = random_cp_graph(rng, n, rng.randint(n - 1, 2 * n + 4))
        s, t = rng.sample(sorted(g.tokens), 2)
        view = g
        if overlay:
            prep = prepare_routing(g, RouteQuery(s, t, 1, hub_count=n // 3))
            view = _query_overlay(prep, s, t)
        x = 10**rng.randint(15, 24) if piecewise else rng.randint(10**3, 10**9)
        masked = frozenset(pid for pid in g.pools if rng.random() < 0.2)
        first = find_path(view, s, t, x, 0.0, 3, masked)
        if first is None:
            return
        for scale in (0.0, 0.5, 0.9, 0.99, 0.999999):
            tau = scale * first.output / x
            res = find_path(view, s, t, x, tau, 3, masked)
            assert res is not None and res.output / x > tau
            assert res.spot_rate >= res.output / x

    def test_respects_masked_pools(self):
        g = triangle_graph()
        res = find_path(g, "T0", "T2", 1000, 0.0, 3)
        first = set(res.pool_ids)
        res2 = find_path(g, "T0", "T2", 1000, 0.0, 3,
                         masked_pools=frozenset(first))
        assert res2 is not None
        assert not set(res2.pool_ids) & first

    def test_max_hops_respected(self):
        toks = tokens(4)
        pools = [cp_pool("P0", "T0", "T1", 10**9, 10**9),
                 cp_pool("P1", "T1", "T2", 10**9, 10**9),
                 cp_pool("P2", "T2", "T3", 10**9, 10**9)]
        g = build_graph(toks, pools)
        assert find_path(g, "T0", "T3", 1000, 0.0, 2) is None
        assert find_path(g, "T0", "T3", 1000, 0.0, 3) is not None

    def test_exact_against_enumeration_randomized(self):
        # dominance pruning must not change the discovered maximum
        rng = random.Random(1234)
        for trial in range(120):
            n = rng.randint(3, 10)
            m = rng.randint(n - 1, 20)
            g = random_cp_graph(rng, n, m)
            ids = sorted(g.tokens)
            s, t = rng.sample(ids, 2)
            x = rng.randint(10**2, 10**10)
            stats = SearchStats()
            res = find_path(g, s, t, x, 0.0, 3, stats=stats)
            sims = [simulate_chain(p, x)
                    for p in enumerate_paths_oracle(g, s, t, 3)]
            sims = [v for v in sims if v is not None]
            best = max(sims, default=0)
            if res is None:
                assert best == 0
            else:
                assert res.output == best
            assert stats.pushes <= n * g.edge_count

    def test_visit_bound_instrumented(self):
        rng = random.Random(77)
        for _ in range(20):
            n = rng.randint(4, 10)
            g = random_cp_graph(rng, n, rng.randint(n - 1, 20))
            stats = SearchStats()
            find_path(g, "T0", f"T{n-1}", 10**6, 0.0, 3, stats=stats)
            assert stats.pushes <= len(g.tokens) * g.edge_count

    @pytest.mark.parametrize("source,target,amount,max_hops,message", [
        ("T0", "T0", 10**5, 3, "source and target must differ"),
        ("T0", "T2", 0, 3, "probe amount must be positive"),
        ("T0", "T2", -1, 3, "probe amount must be positive"),
        ("T0", "T2", 10**5, 0, "max_hops must be >= 1"),
    ], ids=["same_endpoints", "zero_amount", "negative_amount", "no_hops"])
    def test_out_of_range_argument_is_rejected(self, source, target, amount,
                                               max_hops, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            find_path(triangle_graph(), source, target, amount, 0.0, max_hops)

    def test_misused_argument_is_rejected(self):
        # unchecked, a bool max_hops reads as 1 hop and a NaN tau as "no
        # route", both silently: this pair routes in 3 hops
        g = generate_synthetic(3, 40, 120).build_graph()
        ids = sorted(g.tokens)
        s, t = ids[5], ids[17]
        found = find_path(g, s, t, 10**18, 0.0, 3)
        assert found is not None and len(found.edges) == 3
        for max_hops, name in ((True, "bool"), (2.5, "float"), ("3", "str")):
            with pytest.raises(TypeError,
                               match=f"^max_hops must be an int, got {name}$"):
                find_path(g, s, t, 10**18, 0.0, max_hops)
        with pytest.raises(ValueError, match="^tau must not be NaN$"):
            find_path(g, s, t, 10**18, float("nan"), 3)

    def test_first_arrival_wins_ties(self):
        # two identical parallel pools: deterministic pick by pool id
        g = build_graph(tokens(2), [cp_pool("P1", "T0", "T1", 10**6, 10**6),
                                    cp_pool("P0", "T0", "T1", 10**6, 10**6)])
        res = find_path(g, "T0", "T1", 1000, 0.0, 3)
        assert res.edges[0].pool_id == "P0"


def _random_cp(rng):
    return ConstantProduct(10**rng.randint(3, 40) + rng.randrange(10**3),
                           10**rng.randint(3, 40) + rng.randrange(10**3),
                           rng.randint(0, 100))


def _whale_pair(rng, shallow=40):
    """A hub pair T0 -> T1 holding ``shallow`` shallower parallel pools
    next to one deep pool, and two 2-hop detours through T2 and T3, each
    hop with two pools; the amount is 3x the deep pool's depth, so a
    shallow pool's output ceiling can beat the deep pool's quote where its
    real output cannot."""
    depth = 10**15
    pools = [cp_pool("deep", "T0", "T1", depth, depth, 30)]
    for i in range(shallow):
        r = rng.randint(depth // 10, depth)
        pools.append(cp_pool(f"s{i:02}", "T0", "T1", r,
                             r * rng.randint(90, 110) // 100,
                             rng.choice((5, 30, 100))))
    for mid in ("T2", "T3"):
        for leg in range(2):
            for a, b in (("T0", mid), (mid, "T1")):
                r = rng.randint(depth // 10, depth)
                pools.append(cp_pool(f"{a}{b}{leg}", a, b, r, r,
                                     rng.choice((5, 30))))
    return build_graph(tokens(4), pools), 3 * depth


class TestClosedFormBound:
    def test_bounds_constant_product_pools_and_shortcuts(self):
        # no exact quote exceeds its closed form times the slack, from 1
        # unit to far past the reserves
        rng = random.Random(0xC1)
        for trial in range(3000):
            legs = 1 if trial % 3 == 0 else rng.randint(2, 3)
            parts = tuple(_random_cp(rng) for _ in range(legs))
            fn = parts[0] if legs == 1 else SequentialComposite(parts)
            e = Edge("P", "A", "B", fn)
            depth = max(p.reserve_in for p in parts)
            for x in (1, rng.randint(1, 10**6), rng.randint(1, depth),
                      rng.randint(depth, depth * 10**6)):
                out = fn.swap_out(x)
                real = _closed_out(e.closed, x)
                assert real >= out
                if legs == 1:
                    # and it is tight: a single pool floors once
                    assert real <= (out + 1) * (1 + 3e-9)

    def test_closed_is_a_piece_per_chain_else_per_segment(self):
        # a constant-product chain's closed form is its one Möbius map;
        # any other curve's is a table per leg, a piece per segment
        cp = ConstantProduct(10**9, 10**9, 30)
        pw = PiecewiseLiquidity((Segment(50, 100, 100),
                                 Segment(150, 150, 66)), 0)
        for fn in (cp, SequentialComposite((cp, cp))):
            (table,) = Edge("P", "A", "B", fn).closed
            assert len(table) == 1 and table[0][:2] == (math.inf, 0)
        (table,) = Edge("P", "A", "B", pw).closed
        assert [piece[:2] for piece in table] == [(50, 0), (math.inf, 50)]
        closed = Edge("P", "A", "B", SequentialComposite((cp, pw))).closed
        assert closed == (Edge("P", "A", "B", cp).closed[0], table)

    def test_whale_pair_skips_quotes_not_results(self):
        for seed in range(5):
            g, x = _whale_pair(random.Random(seed))
            stats = SearchStats()
            res = find_path(g, "T0", "T1", x, 0.0, 3, stats=stats)
            best = max(simulate_chain(p, x)
                       for p in enumerate_paths_oracle(g, "T0", "T1", 3))
            assert res.output == best
            assert stats.quotes_skipped > 0
            # the same search quoting every edge the other tests let through,
            # with no closed form on any curve
            plain = SearchStats()
            g, x = _whale_pair(random.Random(seed))
            with mock.patch("prime_router.pathfind._closed_out",
                            lambda closed, x: math.inf):
                again = find_path(g, "T0", "T1", x, 0.0, 3, stats=plain)
            assert again.edges == res.edges and again.output == res.output
            assert (plain.pushes, plain.pops, plain.quotes_skipped) \
                == (stats.pushes, stats.pops, 0)
            assert plain.swap_evals > stats.swap_evals


def _late_winner_pair(rng, shallow=12):
    """A hub pair T0 -> T1 whose ``shallow`` shallow pools all have a
    better spot rate than its one deep pool, which is therefore last in
    spot order, next to a 2-hop detour through T2; the amount is 3x the deep
    pool's depth, where every shallow pool's real output is below a tenth
    of the deep pool's quote."""
    depth = 10**15
    pools = [cp_pool("deep", "T0", "T1", depth, depth * 9 // 10, 30)]
    for i in range(shallow):
        r = rng.randint(depth // 100, depth // 10)
        pools.append(cp_pool(f"s{i:02}", "T0", "T1", r, r, 5))
    pools += [cp_pool("T0T2", "T0", "T2", depth, depth, 30),
              cp_pool("T2T1", "T2", "T1", depth, depth, 30)]
    return build_graph(tokens(3), pools), 3 * depth


class TestPairOrder:
    def test_whale_winner_last_in_spot_order_is_quoted_first(self):
        for seed in range(5):
            g, x = _late_winner_pair(random.Random(seed))
            pair = g.edges_between("T0", "T1")
            deep = pair[-1]
            assert deep.pool_id == "deep"
            stats = SearchStats()
            context = SearchContext(g, "T1", 3)
            res = find_path(g, "T0", "T1", x, 0.0, 3, stats=stats,
                            context=context)
            best = max(simulate_chain(p, x)
                       for p in enumerate_paths_oracle(g, "T0", "T1", 3))
            assert res.output == best and res.edges == (deep,)
            # the source's first neighbour is T1: its first quote is the
            # deep pool's, and no other edge of the pair is quoted
            assert next(iter(context.quotes)) == (id(deep), x)
            quoted = {key[0] for key in context.quotes}
            assert quoted & {id(e) for e in pair} == {id(deep)}
            # the shallow pools' closed forms ended the scan
            assert stats.quotes_skipped >= len(pair) - 1

    def test_equal_quotes_go_to_the_smaller_pool_id(self):
        # both pools put out 9, one below their ceilings, which key them
        # alike; "b" has the better spot, so it is quoted first, and "a"
        # must still be quoted and win the tie
        g = build_graph(tokens(2), [cp_pool("b", "T0", "T1", 10, 10),
                                    cp_pool("a", "T0", "T1", 20, 10)])
        x = 10**9
        assert [e.pool_id for e in g.edges_between("T0", "T1")] == ["b", "a"]
        assert [e.fn.swap_out(x) for e in g.edges_between("T0", "T1")] \
            == [9, 9]
        stats = SearchStats()
        res = find_path(g, "T0", "T1", x, 0.0, 1, stats=stats)
        assert [e.pool_id for e in res.edges] == ["a"] and res.output == 9
        assert stats.swap_evals == 2


def _shortcut_pair(rng):
    """A hub pair T0 -> T1 holding one deep pool and one shortcut T0 -> T2
    -> T3 -> T1 whose outer legs are as deep but whose middle leg is a
    shallow piecewise pool; the amount is 3x the deep pool's depth.  The
    piecewise leg takes all the first leg puts out at a spot of 0.3, so the
    shortcut's concavity bound, like its last leg's reserve, is above the
    deep pool's quote; but the piecewise leg puts out under 1% of that."""
    depth = 10**15
    r = rng.randint(depth, 2 * depth)
    s = depth // rng.randint(50, 200)
    deep = Edge("deep", "T0", "T1",
                ConstantProduct(depth, depth, rng.choice((5, 30))))
    # the first segment exits at a price near 0.075, the second enters at 0.05
    shallow = PiecewiseLiquidity((Segment(s, s, 3 * s // 10),
                                  Segment(4 * depth, s, s // 20)), 30)
    legs = (Edge("T0T2", "T0", "T2", ConstantProduct(r, r, 5)),
            Edge("T2T3", "T2", "T3", shallow),
            Edge("T3T1", "T3", "T1", ConstantProduct(r, r, 5)))
    shortcut = Edge("sc:T0>T1:0", "T0", "T1",
                    SequentialComposite(tuple(e.fn for e in legs)), legs)
    g = SwapGraph({t.id: t for t in tokens(4)}, {}, [deep, shortcut])
    return g, 3 * depth, shortcut


class TestExactCeiling:
    def test_whale_pair_leaves_a_piecewise_shortcut_unquoted(self):
        def reserve_sum(fn):
            return sum(s.virtual_reserve_out for s in fn.segments)

        def last_legs(fn):
            return fn.parts[-1].output_ceiling()

        for seed in range(5):
            g, x, shortcut = _shortcut_pair(random.Random(seed))
            stats = SearchStats()
            context = SearchContext(g, "T1", 3)
            res = find_path(g, "T0", "T1", x, 0.0, 3, stats=stats,
                            context=context)
            assert (id(shortcut), x) not in context.quotes
            assert stats.swap_evals == 1
            best = max(simulate_chain(p, x)
                       for p in enumerate_paths_oracle(g, "T0", "T1", 3))
            assert res.output == best
            # the ceilings before they were exact: a piecewise pool's sum of
            # out-reserves and a shortcut's last leg's, patched in before
            # any edge's ceiling is read, with the closed form switched off
            # so that the ceiling alone is tested
            g, x, _ = _shortcut_pair(random.Random(seed))
            old = SearchStats()
            with mock.patch.object(PiecewiseLiquidity, "output_ceiling",
                                   reserve_sum), \
                    mock.patch.object(SequentialComposite, "output_ceiling",
                                      last_legs), \
                    mock.patch("prime_router.pathfind._closed_out",
                               lambda closed, x: math.inf):
                again = find_path(g, "T0", "T1", x, 0.0, 3, stats=old)
            assert again.edges == res.edges and again.output == res.output
            assert old.swap_evals > stats.swap_evals


# sha256 of the stats-free results in test_golden_results; the routes are
# those the unbounded search that preceded the rate bound returned
GOLDEN_SHA256 = \
    "c73155ecb314e607ba53b7c9baa5bb8877514a2b24b539f51853f5bc8ac28cc9"


def _spot_product(path):
    rate = 1.0
    for e in path:
        rate *= e.spot
    return rate


def _best_output(paths, x, usable=lambda path: True):
    sims = (simulate_chain(p, x) for p in paths if usable(p))
    return max((v for v in sims if v is not None), default=0)


def _expected(paths, x, tau, usable):
    """What find_path must return: the best usable output, or None."""
    best = _best_output(paths, x, usable)
    return best if best and best / x > tau else None


def _pick_tau(rng, paths, x):
    """Thresholds around the best rate, so gating hits both ways."""
    best = _best_output(paths, x)
    return rng.choice((0.0, 0.5, 0.9, 0.99, 1.0, 1.001)) * best / x


def _pools_free(masked):
    def usable(path):
        ids = [pid for e in path for pid in e.pool_ids]
        return len(set(ids)) == len(ids) and not set(ids) & masked
    return usable


class TestBoundPruning:
    def test_exact_with_tau_masks_and_piecewise(self):
        rng = random.Random(0xB0)
        piecewise_seen = 0
        gated_none = 0
        for trial in range(150):
            n = rng.randint(4, 12)
            snap = generate_synthetic(trial, n, rng.randint(n - 1, 2 * n + 4),
                                      hub_fraction=0.25,
                                      reserve_spread_orders=3)
            g = snap.build_graph()
            piecewise_seen += sum(p.kind == KIND_PIECEWISE
                                  for p in g.pools.values())
            s, t = rng.sample(sorted(g.tokens), 2)
            x = 10**rng.randint(15, 24)
            paths = enumerate_paths_oracle(g, s, t, 3)
            tau = _pick_tau(rng, paths, x)
            masked = frozenset(pid for pid in g.pools if rng.random() < 0.3)
            res = find_path(g, s, t, x, tau, 3, masked)
            want = _expected(paths, x, tau, _pools_free(masked))
            assert (res.output if res else None) == want
            if res is not None:
                assert not set(res.pool_ids) & masked
            gated_none += tau > 0 and want is None
        assert piecewise_seen > 0 and gated_none > 0

    def test_exact_on_overlay_with_composite_edges(self):
        rng = random.Random(0xB1)
        composite_wins = 0
        for trial in range(60):
            snap = generate_synthetic(100 + trial, 14, 34, hub_fraction=0.3,
                                      reserve_spread_orders=3)
            g = snap.build_graph()
            s, t = rng.sample(sorted(g.tokens), 2)
            prep = prepare_routing(g, RouteQuery(s, t, 1, hub_count=4))
            overlay = _query_overlay(prep, s, t)
            edges = [e for u in overlay.token_ids()
                     for _, cands in overlay.out_items(u) for e in cands]
            # the overlay as a plain graph, so the oracle can enumerate it;
            # each composite edge is one "pool" there, its legs checked below
            flat = SwapGraph({tok: g.tokens[tok] for e in edges
                              for tok in (e.token_in, e.token_out)}, {}, edges)
            if not flat.has_token(s) or not flat.has_token(t):
                continue
            x = 10**rng.randint(15, 24)
            paths = enumerate_paths_oracle(flat, s, t, 3)
            tau = _pick_tau(rng, paths, x)
            masked = frozenset(pid for pid in g.pools if rng.random() < 0.2)
            free = _pools_free(masked)

            def usable(path):
                # a composite may not pass through a token already on the path
                seen = {s}
                for e in path:
                    if any(leg.token_in in seen for leg in e.legs[1:]):
                        return False
                    seen.add(e.token_out)
                return free(path)

            res = find_path(overlay, s, t, x, tau, 3, masked)
            assert (res.output if res else None) == \
                _expected(paths, x, tau, usable)
            composite_wins += res is not None and any(e.legs for e in res.edges)
        assert composite_wins > 0

    def test_tau_above_every_path_pushes_nothing(self):
        # prices agree across pools and every pool charges a fee, so every
        # cycle loses value and no walk beats the best simple path's rate
        rng = random.Random(0xB2)
        for _ in range(30):
            n = rng.randint(3, 9)
            value = [10**rng.randint(0, 4) for _ in range(n)]
            pools = []
            for i in range(1, n):
                j = rng.randrange(i)
                pools.append((j, i))
            while len(pools) < 2 * n:
                pools.append(tuple(rng.sample(range(n), 2)))
            g = build_graph(tokens(n), [
                cp_pool(f"P{k}", f"T{a}", f"T{b}", value[b] * 10**12,
                        value[a] * 10**12, rng.choice((5, 30, 100)))
                for k, (a, b) in enumerate(pools)])
            paths = enumerate_paths_oracle(g, "T0", f"T{n - 1}", 3)
            best_spot = max(_spot_product(p) for p in paths)
            stats = SearchStats()
            res = find_path(g, "T0", f"T{n - 1}", 10**9, 1.01 * best_spot, 3,
                            stats=stats)
            assert res is None
            assert stats.pushes == 0 and stats.swap_evals == 0
            assert stats.pops == 1

    def test_shallow_pool_not_evaluated_at_whale_amount(self):
        # the shallow pool quotes the best spot rate, but its whole output
        # reserve is far below what the direct pool already delivers
        evaluated = []

        class Shallow(ConstantProduct):
            def swap_out(self, x):
                evaluated.append(x)
                return super().swap_out(x)

        edges = [Edge("D0", "T0", "T1", ConstantProduct(10**24, 10**24, 30)),
                 Edge("D1", "T0", "T2", ConstantProduct(10**24, 10**24, 30)),
                 Edge("SH", "T1", "T2", Shallow(10**6, 3 * 10**6, 30))]
        g = SwapGraph({t.id: t for t in tokens(3)}, {}, edges)
        assert edges[2].spot > edges[1].spot
        # the target pair is scanned first, so D1's arrival is pushed before
        # T1, whose ceiling cannot beat it; at tau 0.5 the ceiling row drops
        # T1 itself: SH's reserve is all that T1 -> T2 can deliver, far
        # below half the amount
        for tau, pushes in ((0.0, 1), (0.5, 1)):
            stats = SearchStats()
            res = find_path(g, "T0", "T2", 10**18, tau, 3, stats=stats)
            assert [e.pool_id for e in res.edges] == ["D1"]
            assert stats.pushes == pushes
        assert evaluated == []

    def test_golden_results(self):
        # the bound may change how much work a search does, never a result
        snap = generate_synthetic(23, 40, 110, hub_fraction=0.2,
                                  reserve_spread_orders=4)
        g = snap.build_graph()
        ids = sorted(g.tokens)
        rng = random.Random(5)
        prep = prepare_routing(g, RouteQuery(ids[0], ids[1], 1, hub_count=8))
        digest = hashlib.sha256()
        for _ in range(8):
            s, t = rng.sample(ids, 2)
            q = RouteQuery(s, t, 10**rng.randint(16, 23), hub_count=8)
            for algo in (lambda: prime(g, q, prep),
                         lambda: best_single_path(g, q)):
                try:
                    d = solution_to_dict(algo())
                except NoRouteError:
                    d = {"no_route": [s, t]}
                d.pop("stats", None)
                digest.update(json.dumps(d, sort_keys=True,
                                         separators=(",", ":")).encode())
        assert digest.hexdigest() == GOLDEN_SHA256


def _bound_instance(seed, kind, endpoints):
    """A small market, read as a plain graph (``kind`` "cp" or "mixed", the
    latter with piecewise pools) or as an engine overlay with composite
    edges; the endpoints are both hubs, both non-hubs or one of each.
    Returns (graph, view, source, target); the view is the graph unless
    ``kind`` is "overlay"."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    if kind == "cp":
        g = random_cp_graph(rng, n, rng.randint(n - 1, 2 * n + 4))
    else:
        g = generate_synthetic(seed, n, rng.randint(n - 1, 2 * n + 4),
                               hub_fraction=0.3,
                               reserve_spread_orders=3).build_graph()
    ids = sorted(g.tokens)
    if kind != "overlay":
        s, t = rng.sample(ids, 2)
        return g, g, s, t
    # stage 0 reads no query endpoint
    prep = prepare_routing(g, RouteQuery(ids[0], ids[1], 1,
                                         hub_count=max(2, n // 3)))
    sides = {"hub": list(prep.hubs),
             "non-hub": [tok for tok in ids if tok not in prep.hubs]}
    s = rng.choice(sides[endpoints[0]])
    t = rng.choice([tok for tok in sides[endpoints[1]] if tok != s]
                   or [tok for tok in ids if tok != s])
    return g, _query_overlay(prep, s, t), s, t


def _flat(g, view):
    """An overlay's edges as one plain graph, for the path enumerator."""
    edges = [e for u in view.token_ids()
             for _, cands in view.out_items(u) for e in cands]
    return SwapGraph({tok: g.tokens[tok] for e in edges
                      for tok in (e.token_in, e.token_out)}, {}, edges)


_ENDPOINTS = st.sampled_from([("hub", "hub"), ("hub", "non-hub"),
                              ("non-hub", "hub"), ("non-hub", "non-hub")])


class TestBoundRows:
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["cp", "mixed", "overlay"]),
           endpoints=_ENDPOINTS, max_hops=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_backward_rows_equal_forward_relaxation(self, seed, kind,
                                                    endpoints, max_hops):
        _, view, _, t = _bound_instance(seed, kind, endpoints)
        rate, cap = _rate_table(view, t, max_hops)
        assert (rate, cap) == rate_table_oracle(view, t, max_hops)
        assert len(rate) == min(max_hops, len(view.token_ids()))
        for r in range(len(rate)):
            assert rate[r].keys() <= cap[r].keys()

    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["cp", "mixed", "overlay"]),
           endpoints=_ENDPOINTS)
    @settings(max_examples=100, deadline=None)
    def test_ceiling_row_is_admissible(self, seed, kind, endpoints):
        # every walk's exact output, at any input, stays within both rows:
        # below cap[r][v], and below the input times rate[r][v]
        g, view, _, t = _bound_instance(seed, kind, endpoints)
        flat = g if view is g else _flat(g, view)
        if not flat.has_token(t):
            return
        rate, cap = _rate_table(view, t, 4)
        rng = random.Random(seed)
        amounts = [10**rng.randint(2, 30) for _ in range(3)]
        for v in sorted(flat.tokens):
            if v == t:
                continue
            for path in enumerate_paths_oracle(flat, v, t, len(rate) - 1):
                r = len(path)
                assert v in rate[r]
                for x in amounts:
                    out = simulate_chain(path, x)
                    if out is None:
                        continue
                    assert out <= cap[r][v] * BOUND_SLACK
                    assert out <= x * rate[r][v] * BOUND_SLACK

    def test_ceiling_row_takes_the_deepest_parallel_pool(self):
        # the deep pool quotes the worse spot rate, so the rate row reads
        # the shallow one and the ceiling row must read the deep one
        toks = tokens(3)
        g = build_graph(toks, [
            cp_pool("S", "T1", "T2", 10**6, 2 * 10**6),
            cp_pool("D", "T1", "T2", 10**20, 10**20, 30),
            cp_pool("A", "T0", "T1", 10**20, 10**20)])
        rate, cap = _rate_table(g, "T2", 3)
        assert rate[1]["T1"] == g.edges_between("T1", "T2")[0].spot
        assert g.edges_between("T1", "T2")[0].pool_id == "S"
        assert cap[1]["T1"] == float(10**20)
        out = simulate_chain(g.edges_between("T1", "T2")[1:], 10**19)
        assert 2 * 10**6 < out <= cap[1]["T1"]
        assert cap[2]["T0"] == min(10**20 * rate[1]["T1"], cap[1]["T1"])

    def test_underflowed_spot_product_leaves_a_cap_and_no_rate(self):
        # each hop of the chain quotes 2**-200: six of them underflow to
        # 0.0, so T1 gets a cap in row 6 and no rate there, and row 7 must
        # not extend it to T0
        n = 8
        g = build_graph(
            [Token(f"T{i}", f"T{i}", 18) for i in range(n)],
            [Pool(f"P{i}", "constant_product", (f"T{i}", f"T{i + 1}"), 0,
                  (2**200, 1)) for i in range(n - 1)])
        rate, cap = _rate_table(g, "T7", n)
        assert (rate, cap) == rate_table_oracle(g, "T7", n)
        assert len(rate) == n and rate[5]["T2"] > 0.0
        assert "T1" in cap[6] and "T1" not in rate[6]
        assert "T0" not in cap[7]
        assert find_path(g, "T0", "T7", 10**20, 0.0, n) is None


class TestSearchOrder:
    @given(seed=st.integers(0, 2**32 - 1),
           kind=st.sampled_from(["cp", "mixed", "overlay"]),
           endpoints=_ENDPOINTS, max_hops=st.integers(1, 3),
           exponent=st.integers(2, 24),
           tau_share=st.sampled_from((0.0, 0.5, 0.9, 0.99, 1.0, 1.001)))
    @settings(max_examples=300, deadline=None)
    def test_best_bound_first_returns_the_first_in_first_out_result(
            self, seed, kind, endpoints, max_hops, exponent, tau_share):
        # the bounded search pops the largest bound first and stops early;
        # the unbounded one pops in push order and drains its heap: the
        # same output, and the same path unless another path ties with it
        g, view, s, t = _bound_instance(seed, kind, endpoints)
        rng = random.Random(seed)
        x = 10**exponent
        rows = _rate_table(view, t, max_hops)
        free = unbounded_find_path(view, s, t, x, 0.0, max_hops, rows)
        # thresholds around the best rate, so gating hits both ways
        tau = tau_share * free.output / x if free else 0.0
        masked = frozenset(pid for pid in g.pools if rng.random() < 0.2)
        got = find_path(view, s, t, x, tau, max_hops, masked)
        want = unbounded_find_path(view, s, t, x, tau, max_hops, rows, masked)
        assert (got and got.output) == (want and want.output)
        if got is not None and got.edges != want.edges:
            # a tie: each search keeps the equal arrival it pushed first,
            # and the orders push them differently (seen only at amounts
            # of 1000 or less, where outputs are small integers)
            assert simulate_chain(got.edges, x) == got.output
            assert got.output / x > tau
            assert len(got.edges) <= max_hops
            assert got.tokens[0] == s and got.tokens[-1] == t
            assert len(set(got.tokens)) == len(got.tokens)
            assert _pools_free(masked)(got.edges)

    def test_first_target_arrival_pushed_wins_ties(self):
        # two token-disjoint two-hop routes of identical pools: T1's state
        # is pushed first, so its arrival is, and T2's equal arrival cannot
        # beat it; the pool ids would pick T2's route
        g = build_graph(tokens(4), [
            cp_pool("P9", "T0", "T1", 10**12, 10**12, 30),
            cp_pool("P8", "T1", "T3", 10**12, 10**12, 30),
            cp_pool("P0", "T0", "T2", 10**12, 10**12, 30),
            cp_pool("P1", "T2", "T3", 10**12, 10**12, 30)])
        for max_hops in (2, 3):
            stats = SearchStats()
            res = find_path(g, "T0", "T3", 10**6, 0.0, max_hops, stats=stats)
            assert [e.pool_id for e in res.edges] == ["P9", "P8"]
            rows = _rate_table(g, "T3", max_hops)
            free = unbounded_find_path(g, "T0", "T3", 10**6, 0.0, max_hops,
                                       rows)
            assert (free.edges, free.output) == (res.edges, res.output)
            # the two middle states and the one arrival
            assert stats.pushes == 3


@pytest.fixture(scope="module")
def scale_market():
    """The criterion-7 market (10,000 tokens, 25,000 pools) and its 50-hub
    stage 0 over its graph, built once for the module."""
    snap = generate_synthetic(0xC7, 10_000, 25_000, hub_fraction=0.005,
                              reserve_spread_orders=11)
    g = snap.build_graph()
    ids = sorted(g.tokens)
    return snap, prepare_routing(g, RouteQuery(ids[0], ids[1], 1,
                                               hub_count=50))


@pytest.fixture(scope="module")
def scale_queries(scale_market):
    """200 seeded queries on the scale market, three in four endpoints
    non-hubs, at 1%, 10% and 300% of a source pool's input reserve:
    ``(source, target, amount, (source is a hub, target is a hub))``."""
    snap, prep = scale_market
    hubs = list(prep.hubs)
    pools_of = {}
    for p in snap.pools:
        for tok in p.tokens:
            pools_of.setdefault(tok, []).append(p)
    non_hubs = sorted(set(pools_of) - set(hubs))
    rng = random.Random(0xB0D)
    queries = []
    for i in range(200):
        kind = (rng.random() < 0.25, rng.random() < 0.25)
        s = rng.choice(hubs if kind[0] else non_hubs)
        t = s
        while t == s:
            t = rng.choice(hubs if kind[1] else non_hubs)
        pool = rng.choice(pools_of[s])
        x = max(1, pool.reserve_of(s) * (1, 10, 300)[i % 3] // 100)
        queries.append((s, t, x, kind))
    return queries


class TestBoundRowsAtScale:
    def test_overlay_rows_and_search_match_the_references(self, scale_market,
                                                          scale_queries):
        # every query's overlay rows equal the forward relaxation, and the
        # bounded search returns what the bound-free one does
        _, prep = scale_market
        routed = 0
        for s, t, x, _ in scale_queries:
            overlay = _query_overlay(prep, s, t)
            rows = rate_table_oracle(overlay, t, 3)
            assert _rate_table(overlay, t, 3) == rows
            got = find_path(overlay, s, t, x, 0.0, 3)
            want = unbounded_find_path(overlay, s, t, x, 0.0, 3, rows)
            assert (got and (got.edges, got.output)) == \
                (want and (want.edges, want.output))
            routed += got is not None
        assert len({kind for *_, kind in scale_queries}) == 4
        assert 0 < routed < 200

    def test_full_graph_search_matches_the_unbounded_search(
            self, scale_market, scale_queries):
        # the same queries on the whole market, as the checker searches it:
        # the backward rows read the full graph's in-arcs
        _, prep = scale_market
        g = prep.graph
        routed = 0
        for s, t, x, _ in scale_queries:
            got = find_path(g, s, t, x, 0.0, 3)
            want = unbounded_find_path(g, s, t, x, 0.0, 3,
                                       _rate_table(g, t, 3))
            assert (got and (got.edges, got.output)) == \
                (want and (want.edges, want.output))
            routed += got is not None
        assert 0 < routed < 200


class TestCheckerAtScale:
    def test_checker_matches_the_pruned_market_and_plans_audit(
            self, scale_market, scale_queries):
        # the checker searches the full market; one leaf-pruned copy of it,
        # kept around the hubs and every query's endpoints, gives the same
        # path and output; the checker's plans and prime's all audit clean
        _, prep = scale_market
        g = prep.graph
        endpoints = {tok for s, t, *_ in scale_queries for tok in (s, t)}
        pruned = prune_leaf_tokens(g, endpoints.union(prep.hubs))
        assert len(pruned.tokens) < len(g.tokens)
        checked = routed = 0
        for s, t, x, _ in scale_queries:
            q = RouteQuery(s, t, x, max_hops=3, hub_count=50)
            want = find_path(pruned, s, t, x, 0.0, 3)
            try:
                sol = best_single_path(g, q)
            except NoRouteError:
                assert want is None
            else:
                assert tuple(e for (e,) in sol.paths[0].hops) == want.edges
                assert sol.total_output == want.output
                assert verify_solution(sol, g).ok
                checked += 1
            try:
                sol = prime(g, q, prep)
            except NoRouteError:
                continue
            assert verify_solution(sol, g).ok
            routed += 1
        assert 0 < checked < 200 and 0 < routed < 200


class TestLastHopAtScale:
    def test_whale_probes_push_more_without_the_last_hop_bound(
            self, scale_market):
        # hub-to-hub probes at 3x a direct pool's reserve, as the whale
        # workload draws them: with the last-hop bound switched off, every
        # search returns the same path and output after more pushes
        snap, prep = scale_market
        hub_set = set(prep.hubs)
        direct = [p for p in snap.pools if p.kind == KIND_CONSTANT_PRODUCT
                  and all(tok in hub_set for tok in p.tokens)]
        rng = random.Random(0x1A57)
        pushes = {"bound": 0, "off": 0}
        for pool in rng.sample(direct, 8):
            s, t = pool.tokens if rng.random() < 0.5 else pool.tokens[::-1]
            x = 3 * pool.reserve_of(s)
            overlay = _query_overlay(prep, s, t)
            stats = SearchStats()
            res = find_path(overlay, s, t, x, 0.0, 3, stats=stats)
            off = SearchStats()
            with mock.patch("prime_router.pathfind._last_hop",
                            lambda *args: math.inf):
                again = find_path(overlay, s, t, x, 0.0, 3, stats=off)
            assert (again.edges, again.output) == (res.edges, res.output)
            pushes["bound"] += stats.pushes
            pushes["off"] += off.pushes
        assert pushes["off"] > pushes["bound"]


class TestOverlayPairs:
    def test_pair_lookup_reads_the_rows(self, scale_market, scale_queries):
        # every pair of an overlay's tokens, and of its endpoints, reads the
        # tuple its row pairs with the neighbour, or none: core pairs between
        # hubs, and the pairs a query adds from a non-hub source and into a
        # non-hub target
        snap, prep = scale_market
        hub_set = set(prep.hubs)
        chosen = [q[:2] for kind in itertools.product((True, False), repeat=2)
                  for q in [q for q in scale_queries if q[3] == kind][:3]]
        # and the two tokens of a pool between non-hubs
        chosen.append(next(p.tokens for p in snap.pools
                           if not hub_set.intersection(p.tokens)))
        seen = set()
        for s, t in chosen:
            overlay = _query_overlay(prep, s, t)
            toks = {*overlay.token_ids(), s, t}
            for u in toks:
                row = dict(overlay.out_items(u))
                for v in toks:
                    got = overlay.edges_between(u, v)
                    assert got == row.get(v, ())
                    if got:
                        seen.add((u in hub_set, v in hub_set, u == s, v == t))
        # hub -> hub core pairs, a non-hub source's added pairs to hubs and
        # to a non-hub target, and hubs' added pairs into a non-hub target
        assert {(True, True, False, False), (False, True, True, False),
                (False, False, True, True),
                (True, False, False, True)} <= seen


def _replay(g, s, t, x, taus, extra_masks, context=None):
    """A prime-like run: rising tau, each found path's pools masked after it.

    Every search gets ``context`` (None: each builds a fresh one).  Returns
    each search's (result, pushes, pops) and the summed swap_evals.
    """
    masked = frozenset()
    runs, evals = [], 0
    for tau, extra in zip(taus, extra_masks):
        stats = SearchStats()
        res = find_path(g, s, t, x, tau, 3, masked, stats, context=context)
        runs.append((res, stats.pushes, stats.pops))
        evals += stats.swap_evals
        masked |= extra
        if res is not None:
            masked |= frozenset(res.pool_ids)
    return runs, evals


class TestSearchContext:
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 9),
           extra=st.integers(0, 14), searches=st.integers(2, 6))
    @settings(max_examples=80, deadline=None)
    def test_shared_context_changes_only_the_eval_count(self, seed, n, extra,
                                                        searches):
        rng = random.Random(seed)
        g = random_cp_graph(rng, n, n - 1 + extra, lo=10**4, hi=10**9)
        s, t = rng.sample(sorted(g.tokens), 2)
        x = 10**rng.randint(3, 10)
        taus = sorted(rng.choice((0.0, 0.3, 0.9, 1.0)) * rng.random()
                      for _ in range(searches))
        taus[0] = 0.0
        extra_masks = [frozenset(pid for pid in g.pools if rng.random() < 0.1)
                       for _ in range(searches)]

        # every exact quote the fresh searches compute, by curve and input
        quoted = set()
        swap_out = ConstantProduct.swap_out

        def recording(fn, amount):
            out = swap_out(fn, amount)
            quoted.add((id(fn), amount))
            return out

        with mock.patch.object(ConstantProduct, "swap_out", recording):
            fresh, fresh_evals = _replay(g, s, t, x, taus, extra_masks)
        context = SearchContext(g, t, 3)
        shared, shared_evals = _replay(g, s, t, x, taus, extra_masks,
                                       context)
        assert shared == fresh
        assert shared_evals == len(quoted) <= fresh_evals
        assert shared_evals == sum(out is not None
                                   for out in context.quotes.values())

    def test_context_bound_elsewhere_is_rejected(self):
        g = random_cp_graph(random.Random(3), 5, 9)
        context = SearchContext(g, "T1", 3)
        other = random_cp_graph(random.Random(3), 5, 9)
        for view, target, max_hops in ((g, "T2", 3), (other, "T1", 3),
                                       (g, "T1", 2)):
            with pytest.raises(ValueError, match="search context is bound"):
                find_path(view, "T0", target, 1000, 0.0, max_hops,
                          context=context)
        assert find_path(g, "T0", "T1", 1000, 0.0, 3, context=context)

    def test_hop_limit_caps_at_token_count(self):
        # no simple path has more hops than the view has tokens, so a larger
        # max_hops gives the same search and builds no more table rows
        g = generate_synthetic(3, 40, 120).build_graph()
        n = len(g.tokens)
        s, t = sorted(g.tokens)[:2]
        runs = []
        for max_hops in (n, 10**9):
            context = SearchContext(g, t, max_hops)
            search = SearchStats()
            found = find_path(g, s, t, 10**15, 0.0, max_hops, stats=search,
                              context=context)
            assert len(context.rows[0]) <= n
            query = RouteQuery(s, t, 10**15, max_hops=max_hops, hub_count=8)
            runs.append((found, vars(search),
                         json.dumps(solution_to_dict(prime(g, query)))))
        assert runs[0][0] is not None
        assert runs[0] == runs[1]
