import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prime_router.allocation import (
    Allocation,
    AsgmParams,
    MultiEdgePath,
    asgm,
    integer_shares,
    objective,
    path_marginal_real,
    path_output,
)
from prime_router.cfmm import ConstantProduct, PiecewiseLiquidity, Segment
from prime_router.errors import InvalidParamsError
from prime_router.graph import Edge

from instances import WAD, closed_form_pair, random_disjoint_paths, single_edge_path


def two_pool_hop(r1=1000, r2=1000, fee=0):
    e1 = Edge("P0", "S", "T", ConstantProduct(r1, r1, fee))
    e2 = Edge("P1", "S", "T", ConstantProduct(r2, r2, fee))
    return MultiEdgePath(((e1, e2),))


class TestPathOutput:
    def test_single_edge_weight_one(self):
        p = single_edge_path("P0", "S", "T", 10**6, 2 * 10**6)
        fn = p.hops[0][0].fn
        assert path_output(p, [(1.0,)], 12345) == fn.swap_out(12345)

    def test_even_split_two_identical_pools(self):
        # frozen from two independent swap evaluations: floor(500*1000/1500)=333
        p = two_pool_hop()
        assert path_output(p, [(0.5, 0.5)], 1000) == 666

    def test_zero_input(self):
        p = two_pool_hop()
        assert path_output(p, [(0.5, 0.5)], 0) == 0

    def test_remainder_goes_to_largest_weight(self):
        p = two_pool_hop(10**6, 10**6)
        # shares floor to (333, 666), remainder unit lands on the 2/3 edge
        out = path_output(p, [(1 / 3, 2 / 3)], 1000)
        f = p.hops[0][0].fn
        assert out == f.swap_out(333) + f.swap_out(667)

    def test_pool_distinctness_enforced(self):
        e1 = Edge("P0", "S", "T", ConstantProduct(10, 10, 0))
        e2 = Edge("P0", "T", "U", ConstantProduct(10, 10, 0))
        with pytest.raises(ValueError):
            MultiEdgePath(((e1,), (e2,)))

    def test_hop_chaining_validated(self):
        e1 = Edge("P0", "S", "T", ConstantProduct(10, 10, 0))
        e2 = Edge("P1", "X", "U", ConstantProduct(10, 10, 0))
        with pytest.raises(ValueError):
            MultiEdgePath(((e1,), (e2,)))


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
       st.integers(min_value=0, max_value=10**24))
@settings(max_examples=300, deadline=None)
def test_integer_shares_conserve(raw, total):
    s = sum(raw)
    weights = [w / s for w in raw] if s > 0 else [1.0 / len(raw)] * len(raw)
    shares = integer_shares(weights, total)
    assert sum(shares) == total
    assert all(v >= 0 for v in shares)


class TestPathMarginal:
    def test_single_edge_equals_edge_marginal(self):
        p = single_edge_path("P0", "S", "T", 10**9, 10**9, fee=30)
        a = 10**6
        fn = p.hops[0][0].fn
        assert path_marginal_real(p, [(1.0,)], a) == fn.marginal_price(a)

    def test_unit_spot_chain_at_zero(self):
        e1 = Edge("P0", "S", "M", ConstantProduct(10**6, 10**6, 0))
        e2 = Edge("P1", "M", "T", ConstantProduct(10**6, 10**6, 0))
        p = MultiEdgePath(((e1,), (e2,)))
        assert path_marginal_real(p, [(1.0,), (1.0,)], 0) == pytest.approx(1.0)

    def test_matches_finite_difference(self):
        # oracle: central difference of the integer path output,
        # step max(1, a // 10^6)
        rng = random.Random(3)
        for _ in range(20):
            e1 = Edge("P0", "S", "M",
                      ConstantProduct(rng.randint(10**17, 10**19),
                                      rng.randint(10**17, 10**19),
                                      rng.choice((0, 30))))
            e2 = Edge("P1", "M", "T",
                      ConstantProduct(rng.randint(10**17, 10**19),
                                      rng.randint(10**17, 10**19),
                                      rng.choice((0, 30))))
            p = MultiEdgePath(((e1,), (e2,)))
            hw = [(1.0,), (1.0,)]
            a = rng.randint(10**14, 10**16)
            h = max(1, a // 10**6)
            fd = (path_output(p, hw, a + h) - path_output(p, hw, a - h)) / (2 * h)
            assert path_marginal_real(p, hw, a) == pytest.approx(fd, rel=1e-4)


class TestObjective:
    def test_degenerate_weight_vector(self):
        a, b = closed_form_pair()
        hw = [[(1.0,)], [(1.0,)]]
        x = 30 * WAD
        out_a = path_output(a, hw[0], x)
        assert objective([a, b], (1.0, 0.0), hw, x) == out_a

    def test_symmetric_split_is_two_half_swaps(self):
        p1 = single_edge_path("P0", "S", "T", 10**20, 10**20)
        p2 = single_edge_path("P1", "S", "T", 10**20, 10**20)
        x = 10**18
        hw = [[(1.0,)], [(1.0,)]]
        want = 2 * p1.hops[0][0].fn.swap_out(x // 2)
        assert objective([p1, p2], (0.5, 0.5), hw, x) == want

    def test_zero_amount(self):
        a, b = closed_form_pair()
        assert objective([a, b], (0.5, 0.5), [[(1.0,)], [(1.0,)]], 0) == 0


class TestAsgm:
    def test_identical_paths_split_evenly(self):
        p1 = single_edge_path("P0", "S", "T", 10**20, 10**20)
        p2 = single_edge_path("P1", "S", "T", 10**20, 10**20)
        res = asgm([p1, p2], 10**18)
        assert res.converged and not res.degraded
        assert res.allocation.path_weights == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_closed_form_split(self):
        # equal marginal prices: 200 + b = 2(100 + a) with a + b = 30
        a, b = closed_form_pair()
        res = asgm([a, b], 30 * WAD)
        assert res.converged
        assert res.allocation.path_weights[0] == pytest.approx(1 / 3, abs=1e-4)
        assert res.allocation.path_weights[1] == pytest.approx(2 / 3, abs=1e-4)

    def test_single_path_no_outer_iterations(self):
        p = single_edge_path("P0", "S", "T", 10**20, 10**20)
        res = asgm([p], 10**18)
        assert res.allocation.path_weights == (1.0,)
        assert res.iterations == 0
        assert res.converged

    def test_weights_stay_on_simplex(self):
        rng = random.Random(8)
        for _ in range(20):
            paths = random_disjoint_paths(rng, rng.randint(2, 4))
            res = asgm(paths, rng.randint(10**9, 10**12))
            w = res.allocation.path_weights
            assert abs(sum(w) - 1.0) <= 1e-9
            assert all(v >= 0.0 for v in w)

    def test_monotone_ascent_in_trace(self):
        a, b = closed_form_pair()
        res = asgm([a, b], 30 * WAD)
        objs = [row.objective for row in res.trace]
        assert objs == sorted(objs)

    def test_equilibrium_gap_at_termination(self):
        rng = random.Random(21)
        for _ in range(15):
            paths = random_disjoint_paths(rng, rng.randint(2, 4))
            x = rng.randint(10**10, 10**12)
            res = asgm(paths, x)
            assert res.converged, "instance failed to converge"
            last = res.trace[-1]
            g_all = _marginals(paths, res, x)
            positive = [gi for gi, wi in
                        zip(g_all, res.allocation.path_weights) if wi > 0.0]
            gap = max(g_all) - min(positive)
            assert gap <= 1.0000001e-6 * max(g_all)
            assert res.tau == pytest.approx(max(g_all))
            assert last.g_max >= last.g_min

    def test_zero_weight_path_stays_in_set(self):
        # one hopeless path: driven to zero weight but still present
        good = single_edge_path("P0", "S", "T", 10**20, 10**20)
        bad = single_edge_path("P1", "S", "T", 10**20, 10**16)  # rate 1e-4
        res = asgm([good, bad], 10**18)
        assert res.converged
        assert len(res.allocation.path_weights) == 2
        assert res.allocation.path_weights[1] == pytest.approx(0.0, abs=1e-9)

    def test_shared_pool_rejected(self):
        p1 = single_edge_path("P0", "S", "T", 10**9, 10**9)
        p2 = single_edge_path("P0", "S", "T", 10**9, 10**9)
        with pytest.raises(InvalidParamsError):
            asgm([p1, p2], 10**6)

    def test_capacity_pinned_path_converges_at_boundary(self):
        # the better-priced path sits exactly at capacity: it cannot receive
        # more, so the boundary allocation is the optimum and terminates clean
        x = 10**12
        seg = Segment(x // 2, 10**13, 2 * 10**13)
        capped = MultiEdgePath(
            ((Edge("PW", "S", "T", PiecewiseLiquidity((seg,), 0)),),))
        loose = single_edge_path("P1", "S", "T", 10**13, 10**13)
        res = asgm([capped, loose], x)
        assert res.converged
        assert not res.degraded
        w = res.allocation.path_weights
        assert w[0] == pytest.approx(0.5, abs=1e-9)
        assert abs(sum(w) - 1.0) <= 1e-9

    def test_step_floor_exhaustion_sets_degraded_flag(self):
        # delta_min above every feasible rung: the line search cannot move
        a, b = closed_form_pair()
        params = AsgmParams(delta0=0.25, delta_min=0.3)
        res = asgm([a, b], 30 * WAD, params)
        assert res.degraded
        assert not res.converged
        assert res.allocation.path_weights == (0.5, 0.5)

    def test_nested_edge_weights_equalize(self):
        # one path, one hop, asymmetric parallel pools
        e1 = Edge("P0", "S", "T", ConstantProduct(100 * WAD, 100 * WAD, 0))
        e2 = Edge("P1", "S", "T", ConstantProduct(200 * WAD, 200 * WAD, 0))
        p = MultiEdgePath(((e1, e2),))
        res = asgm([p], 30 * WAD)
        hop_w = res.allocation.edge_weights[0][0]
        assert hop_w[0] == pytest.approx(1 / 3, abs=1e-3)
        assert hop_w[1] == pytest.approx(2 / 3, abs=1e-3)

    def test_backtrack_bound_loose(self):
        a, b = closed_form_pair()
        res = asgm([a, b], 30 * WAD)
        assert res.max_backtracks < 200


def _marginals(paths, res, x):
    return [path_marginal_real(p, res.allocation.edge_weights[i],
                               res.allocation.path_weights[i] * x)
            for i, p in enumerate(paths)]


def test_linear_convergence_gap_series():
    # gap to a fine-grid reference falls geometrically on the standard pair
    from prime_router.baselines import GridSpec, grid_oracle

    a, b = closed_form_pair()
    x = 30 * WAD
    params = AsgmParams(eps_rel=1e-9)
    res = asgm([a, b], x, params)
    grid = grid_oracle([a, b], x, GridSpec(step=0.001))
    j_star = grid.output
    gaps = [j_star - row.objective for row in res.trace]
    assert gaps[0] > 0
    # reaches 1e-8 of the optimum well inside 500 iterations
    threshold = max(1, int(1e-8 * j_star))
    hit = [i for i, gap in enumerate(gaps) if gap <= threshold]
    assert hit and hit[0] <= 500
    # tail log-gap fit: negative slope, R^2 >= 0.9
    pts = [(i, math.log(gap)) for i, gap in enumerate(gaps) if gap > 0]
    pts = pts[1:]
    assert len(pts) >= 5
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    n = len(pts)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((v - mx) ** 2 for v in xs)
    sxy = sum((u - mx) * (v - my) for u, v in zip(xs, ys))
    slope = sxy / sxx
    ss_res = sum((v - (my + slope * (u - mx))) ** 2 for u, v in zip(xs, ys))
    ss_tot = sum((v - my) ** 2 for v in ys)
    r2 = 1.0 - ss_res / ss_tot
    assert slope < 0
    assert r2 >= 0.9
