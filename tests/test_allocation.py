import math
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prime_router import allocation
from prime_router.allocation import (
    Allocation,
    AsgmParams,
    DELTA0,
    MultiEdgePath,
    _hop_derivs,
    _hop_output,
    _lowest_funded,
    asgm,
    hop_shares,
    integer_shares,
    objective,
    optimize_path_edges,
    path_marginals_real,
    path_output,
    water_fill,
)
from prime_router.cfmm import (
    ConstantProduct,
    PiecewiseLiquidity,
    Segment,
    SequentialComposite,
    bounded_point,
)
from prime_router.errors import CapacityExceededError, InvalidParamsError
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


def capped_hop(cap):
    """A piecewise edge of input capacity ``cap``, then two uncapped CP
    edges of different depths."""
    seg = Segment(cap, 10**6, 2 * 10**6)
    return (Edge("PW", "S", "T", PiecewiseLiquidity((seg,), 0)),) + tuple(
        Edge(f"P{i}", "S", "T", ConstantProduct(r, r, 0))
        for i, r in enumerate((10**6, 4 * 10**6), 1))


class TestHopShares:
    def test_input_over_total_capacity_raises(self):
        seg = Segment(10, 10**6, 10**6)
        hop = tuple(Edge(f"P{i}", "S", "T", PiecewiseLiquidity((seg,), 0))
                    for i in range(2))
        with pytest.raises(CapacityExceededError,
                           match="^hop input exceeds total edge capacity$"):
            hop_shares(hop, (0.5, 0.5), 21)
        assert hop_shares(hop, (0.5, 0.5), 20) == [10, 10]

    def test_overflow_onto_zero_weight_edges_spreads_uniformly(self):
        # the funded edge takes 10 of 31; the 21 over spread 10/11 across the
        # two unfunded edges, the odd unit to the smaller pool id
        assert hop_shares(capped_hop(10), (1.0, 0.0, 0.0), 31) == [10, 11, 10]


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
        assert path_marginals_real(p, [(1.0,)], a)[1] == fn.real(a)[1]

    def test_unit_spot_chain_at_zero(self):
        e1 = Edge("P0", "S", "M", ConstantProduct(10**6, 10**6, 0))
        e2 = Edge("P1", "M", "T", ConstantProduct(10**6, 10**6, 0))
        p = MultiEdgePath(((e1,), (e2,)))
        assert path_marginals_real(p, [(1.0,), (1.0,)], 0)[1] == \
            pytest.approx(1.0)

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
            assert path_marginals_real(p, hw, a)[1] == \
                pytest.approx(fd, rel=1e-4)

    @pytest.mark.parametrize("n_hops", [2, 3])
    def test_composite_real_is_the_path_marginal(self, n_hops):
        # stage 1's tau reads a path's composite curve, and stage 2 and the
        # single-path tau read the path hop by hop: the two walks must give
        # the same float.  The first leg is piecewise, so the last point
        # saturates it
        rng = random.Random(f"chain-{n_hops}")
        for _ in range(20):
            fns = [_random_piecewise(rng, rng.choice((0, 5, 30)))] + [
                _random_curve(rng, rng.choice(("cp", "piecewise")))
                for _ in range(n_hops - 1)]
            tokens = [f"T{i}" for i in range(n_hops + 1)]
            path = MultiEdgePath(tuple(
                (Edge(f"P{i}", tokens[i], tokens[i + 1], fn),)
                for i, fn in enumerate(fns)))
            composite = SequentialComposite(tuple(fns))
            cap = float(fns[0].input_capacity())
            for x in (0.0, cap * rng.uniform(0.01, 0.99), cap, 3.0 * cap):
                assert composite.real(x)[1] == \
                    path_marginals_real(path, [(1.0,)] * n_hops, x)[1]

    def test_saturated_hop_receives_at_its_open_zero_weight_edges(self):
        # all the weight sits on a saturated edge, so one more input unit
        # reroutes onto the unfunded edges: their mean price at zero input
        hop = capped_hop(10**3)
        recv, give, _ = _hop_derivs(hop, (1.0, 0.0, 0.0), 2e3)
        open_prices = [e.fn.real(0.0)[1] for e in hop[1:]]
        assert recv == sum(open_prices) / 2
        assert give == hop[0].fn.real(1e3)[1]
        assert recv != give


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

    def test_step_over_capacity_backtracks_to_a_feasible_step(self,
                                                              monkeypatch):
        # the better-priced path holds 60% of the amount: the first trial
        # steps (75%, then 62.5%) overshoot its capacity and shrink
        x = 10**12
        seg = Segment(6 * x // 10, 10**13, 2 * 10**13)
        capped = MultiEdgePath(
            ((Edge("PW", "S", "T", PiecewiseLiquidity((seg,), 0)),),))
        loose = single_edge_path("P1", "S", "T", 10**13, 10**13)
        over = []
        evaluate = allocation.path_output

        def recording(path, hop_weights, x_in, steps=None):
            try:
                return evaluate(path, hop_weights, x_in, steps)
            except CapacityExceededError:
                over.append(x_in)
                raise

        monkeypatch.setattr(allocation, "path_output", recording)
        res = asgm([capped, loose], x)
        assert over[:2] == [75 * x // 100, 625 * x // 1000]
        w = res.allocation.path_weights
        assert w[0] == pytest.approx(0.6, abs=1e-9)
        assert integer_shares(w, x)[0] <= 6 * x // 10
        objectives = [row.objective for row in res.trace]
        assert objectives == sorted(objectives)

    def test_step_floor_exhaustion_sets_degraded_flag(self, monkeypatch):
        # the step floor above DELTA0, every feasible rung: the line search
        # cannot move
        a, b = closed_form_pair()
        monkeypatch.setattr(allocation, "DELTA_MIN", 0.3)
        res = asgm([a, b], 30 * WAD)
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

    @pytest.mark.parametrize("field", ["alpha", "beta"])
    @pytest.mark.parametrize("value", [True, "0.1", None])
    def test_non_real_float_field_is_a_type_error(self, field, value):
        # alpha="0.1" failed on an unlabelled comparison
        with pytest.raises(TypeError, match=f"^{field} must be a real number, "
                                            f"got {type(value).__name__}$"):
            AsgmParams(**{field: value})


def _cp_edge(pid, token_out="T"):
    return Edge(pid, "S", token_out, ConstantProduct(10**6, 10**6, 0))


# each misuse: the call, the error it raises and the whole message
MISUSE = {
    "asgm_no_paths": (lambda: asgm([], WAD), InvalidParamsError,
                      "need at least one path"),
    "asgm_zero_amount": (lambda: asgm(closed_form_pair(), 0), ValueError,
                         "input amount must be positive"),
    "asgm_weight_shape": (
        lambda: asgm(closed_form_pair(), WAD,
                     initial_edge_weights=[[[0.5, 0.5]], [[1.0]]]),
        InvalidParamsError, "initial edge weights shape mismatch"),
    "alpha_0": (lambda: AsgmParams(alpha=0.0), InvalidParamsError,
                "alpha must be in (0, 1)"),
    "alpha_1": (lambda: AsgmParams(alpha=1.0), InvalidParamsError,
                "alpha must be in (0, 1)"),
    "beta_0": (lambda: AsgmParams(beta=0.0), InvalidParamsError,
               "beta must be in (0, 1)"),
    "beta_1": (lambda: AsgmParams(beta=1.0), InvalidParamsError,
               "beta must be in (0, 1)"),
    "path_without_hops": (lambda: MultiEdgePath(()), ValueError,
                          "path needs at least one edge per hop"),
    "path_with_empty_hop": (
        lambda: MultiEdgePath(((_cp_edge("P0"),), ())), ValueError,
        "path needs at least one edge per hop"),
    "hop_of_two_pairs": (
        lambda: MultiEdgePath(((_cp_edge("P0"), _cp_edge("P1", "U")),)),
        ValueError, "parallel edges of a hop must share a token pair"),
    "no_path_weights": (lambda: Allocation((), ()), ValueError,
                        "path weights: empty simplex"),
    "no_hop_weights": (lambda: Allocation((1.0,), (((),),)), ValueError,
                       "hop weights: empty simplex"),
    "negative_hop_weight": (lambda: Allocation((1.0,), (((1.5, -0.5),),)),
                            ValueError, "hop weights: negative weight"),
    "path_weights_short_of_1": (
        lambda: Allocation((0.5, 0.25), (((1.0,),), ((1.0,),))), ValueError,
        "path weights: weights sum to 0.75, expected 1"),
}


@pytest.mark.parametrize("case", sorted(MISUSE))
def test_misuse_is_rejected(case):
    call, error, message = MISUSE[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def _marginals(paths, res, x):
    return [path_marginals_real(p, res.allocation.edge_weights[i],
                                res.allocation.path_weights[i] * x)[1]
            for i, p in enumerate(paths)]


def test_linear_convergence_gap_series(monkeypatch):
    # gap to a fine-grid reference falls geometrically on the standard pair
    from oracles import GridSpec, grid_oracle

    a, b = closed_form_pair()
    x = 30 * WAD
    monkeypatch.setattr(allocation, "EPS_REL", 1e-9)
    res = asgm([a, b], x)
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


# --- the per-hop split -----------------------------------------------------

def _renormalize(weights):
    """The simplex repair the deleted per-hop edge loop ran on every step."""
    for i, w in enumerate(weights):
        if w < 0.0:
            weights[i] = 0.0
    total = sum(weights)
    if abs(total - 1.0) > 1e-12 and total > 0.0:
        for i in range(len(weights)):
            weights[i] /= total


def _armijo_sign_step(weights, grads, j0, evaluate, params, plus_order,
                      delta_cap):
    """The Armijo sign step as the deleted per-hop edge loop ran it."""
    minus = _lowest_funded(weights, grads)
    for plus in plus_order:
        if plus == minus or grads[plus] <= grads[minus]:
            break
        delta = min(DELTA0, weights[minus])
        cap = delta_cap(plus)
        if cap is not None:
            if cap < allocation.DELTA_MIN:
                continue
            delta = min(delta, cap)
        saw_capacity = False
        while delta >= allocation.DELTA_MIN:
            trial = list(weights)
            trial[plus] += delta
            trial[minus] = max(0.0, trial[minus] - delta)
            try:
                j1 = evaluate(trial)
            except CapacityExceededError:
                saw_capacity = True
                delta *= params.beta
                continue
            if j1 >= j0 + int(params.alpha * delta *
                              (grads[plus] - grads[minus])):
                _renormalize(trial)
                return trial, j1
            delta *= params.beta
        if not saw_capacity:
            return None
    return None


def armijo_path_edges(path, hop_weights, x_path, params=AsgmParams()):
    """Oracle: the Armijo edge-weight loop that the water-fill replaced.

    Sign steps on each multi-edge hop's simplex with the exact path output
    as the objective, at the 10x looser inner tolerance and the 64-step
    budget it ran with.  Mutates hop_weights; returns the path output.
    """
    tol = 10.0 * allocation.EPS_REL
    out = path_output(path, hop_weights, x_path)
    budget = 64
    while budget > 0:
        gained = False
        for j, hop in enumerate(path.hops):
            if len(hop) == 1:
                continue
            caps = [e.fn.input_capacity() for e in hop]
            while budget > 0:
                amounts = [x_path]
                for hop_k, w_k in zip(path.hops, hop_weights):
                    amounts.append(_hop_output(hop_k, w_k, amounts[-1]))
                a_j = amounts[j]
                if a_j == 0:
                    break
                after = 1.0
                for k in range(len(path.hops) - 1, j, -1):
                    after *= _hop_derivs(path.hops[k], hop_weights[k],
                                         float(amounts[k]))[0]
                w = hop_weights[j]
                g = [e.fn.real(bounded_point(e.fn, wk * a_j)[0])[1]
                     for e, wk in zip(hop, w)]
                open_idx = [i for i in range(len(hop))
                            if caps[i] is None or w[i] * a_j + 1.0 <= caps[i]]
                minus = _lowest_funded(w, g)
                if not open_idx:
                    break
                g_top = max(g[i] for i in open_idx)
                if g_top <= 0.0 or g_top - g[minus] <= tol * g_top:
                    break

                def headroom(i, w=w, a_j=a_j):
                    if caps[i] is None:
                        return None
                    return (caps[i] - w[i] * a_j) / a_j

                def evaluate(trial, j=j):
                    saved = hop_weights[j]
                    hop_weights[j] = trial
                    try:
                        return path_output(path, hop_weights, x_path)
                    finally:
                        hop_weights[j] = saved

                stepped = _armijo_sign_step(
                    w, [a_j * after * gk for gk in g], out, evaluate, params,
                    sorted(open_idx, key=lambda i: (-g[i], i)), headroom)
                budget -= 1
                if stepped is None:
                    break
                hop_weights[j], new_out = stepped
                if new_out <= out:
                    out = new_out
                    break
                out = new_out
                gained = True
        if not gained:
            break
    return out


def _random_piecewise(rng, fee):
    """2-4 segments; each next entry price at or below the last exit price,
    so some hops sit on a kink between two segments."""
    k = 10_000 - fee
    vin, vout = rng.randint(10**19, 10**21), rng.randint(10**19, 10**21)
    segments = []
    for _ in range(rng.randint(2, 4)):
        cap = int(vin * rng.uniform(0.3, 2.0))
        segments.append(Segment(cap, vin, vout))
        exhausted = vin * 10_000 + k * cap
        next_vin = int(vin * rng.uniform(0.8, 2.0))
        next_vout = 10_000**2 * vin * vout * next_vin // exhausted**2
        vin, vout = next_vin, next_vout * rng.choice((10, 9, 5)) // 10
    return PiecewiseLiquidity(tuple(segments), fee)


def _random_curve(rng, kind):
    fee = rng.choice((0, 5, 30))
    if kind == "cp":
        return ConstantProduct(rng.randint(10**19, 10**22),
                               rng.randint(10**19, 10**22), fee)
    if kind == "piecewise":
        return _random_piecewise(rng, fee)
    return SequentialComposite(tuple(
        _random_curve(rng, rng.choice(("cp", "piecewise")))
        for _ in range(rng.randint(2, 3))))


def _random_hop(rng, kinds, tin="S", tout="T", tag=""):
    return tuple(Edge(f"P{tag}{i}", tin, tout, _random_curve(rng, kind))
                 for i, kind in enumerate(kinds))


HOP_KINDS = {
    "cp": ("cp", "cp", "cp"),
    "piecewise": ("piecewise", "piecewise", "cp"),
    "composite": ("composite", "composite", "cp"),
    # only capped curves, most of their capacity asked for
    "clamped": ("piecewise", "piecewise", "piecewise"),
}


def _hop_amount(rng, hop, kind):
    caps = [e.fn.input_capacity() for e in hop]
    if kind == "clamped":
        return int(sum(caps) * rng.uniform(0.5, 0.999))
    return 10**rng.randint(15, 22) * rng.randint(1, 9)


def _check_kkt(hop, xs, amount):
    """Open edges share one marginal price; the rest sit where it lies
    between their left and right marginal prices."""
    assert sum(xs) == pytest.approx(amount, rel=1e-9)
    open_prices, bounds = [], []
    for e, x in zip(hop, xs):
        fn = e.fn
        cap = fn.input_capacity()
        assert 0.0 <= x and (cap is None or x <= float(cap))
        if x == 0.0:
            bounds.append((math.inf, fn.real(0.0)[1]))
            continue
        if cap is not None and x >= float(cap) * (1 - 1e-12):
            bounds.append((fn.real(float(cap))[1], 0.0))
            continue
        left = fn.real(x * (1 - 1e-10))[1]
        right = fn.real(x * (1 + 1e-10))[1]
        if left > right * (1 + 1e-6):
            bounds.append((left, right))  # on a breakpoint
        else:
            open_prices.append(fn.real(x)[1])
    assert open_prices, "a hop always has an edge strictly inside a piece"
    price = open_prices[0]
    for m in open_prices:
        assert m == pytest.approx(price, rel=1e-9)
    for left, right in bounds:
        assert left >= price * (1 - 1e-9)
        assert right <= price * (1 + 1e-9)


class TestWaterFill:
    @pytest.mark.parametrize("kind", list(HOP_KINDS))
    def test_open_edges_share_one_marginal_price(self, kind):
        rng = random.Random(f"fill-{kind}")
        for _ in range(60):
            hop = _random_hop(rng, HOP_KINDS[kind])
            amount = _hop_amount(rng, hop, kind)
            xs = water_fill([e.fn for e in hop], float(amount))
            _check_kkt(hop, xs, amount)

    @pytest.mark.parametrize("kind", list(HOP_KINDS))
    def test_never_below_the_armijo_loop(self, kind):
        rng = random.Random(f"armijo-{kind}")
        for trial in range(25):
            hops = [_random_hop(rng, HOP_KINDS[kind], "S", "M", "a")]
            if trial % 2:
                # a second, multi-edge hop fed by the first
                hops.append(_random_hop(rng, ("cp", "cp"), "M", "T", "b"))
            path = MultiEdgePath(tuple(hops))
            x = _hop_amount(rng, hops[0], kind)
            start = [[1.0 / len(h)] * len(h) for h in path.hops]
            want = armijo_path_edges(path, [list(w) for w in start], x)
            hw = [list(w) for w in start]
            got = optimize_path_edges(path, hw, x)
            assert got == path_output(path, hw, x)
            assert got >= want

    @pytest.mark.parametrize("amount", [0.0, -1.0])
    def test_no_split_of_a_non_positive_amount(self, amount):
        hop = two_pool_hop(10**9, 4 * 10**9).hops[0]
        assert water_fill([e.fn for e in hop], amount) is None

    def test_no_split_past_the_curves_capacity(self):
        fns = [PiecewiseLiquidity((Segment(cap, 10**8, 10**8),), 0)
               for cap in (10**6, 2 * 10**6)]
        assert water_fill(fns, 5e6) is None
        # at exactly their total capacity both curves fill up
        assert water_fill(fns, 3e6) == [1e6, 2e6]

    def test_kept_weights_when_the_split_overruns_a_later_hop(self):
        # the equal split puts out more than the last pool can take, so
        # the path keeps the weights it was given
        x = 10**6
        first = (Edge("P0", "S", "M", ConstantProduct(10**7, 10**7, 0)),
                 Edge("P1", "S", "M", ConstantProduct(10**7, 10**7, 0)))
        skewed = path_output(MultiEdgePath((first,)), [[0.9, 0.1]], x)
        even = path_output(MultiEdgePath((first,)), [[0.5, 0.5]], x)
        assert skewed < even
        seg = Segment((skewed + even) // 2, 10**8, 10**8)
        last = Edge("PW", "M", "T", PiecewiseLiquidity((seg,), 0))
        path = MultiEdgePath((first, (last,)))
        with pytest.raises(CapacityExceededError):
            path_output(path, [[0.5, 0.5], [1.0]], x)
        hw = [[0.9, 0.1], [1.0]]
        out = path_output(path, hw, x)
        assert optimize_path_edges(path, hw, x) == out
        assert hw == [[0.9, 0.1], [1.0]]

    def test_dust_amount_against_deep_pools(self):
        # an amount 15 orders below the pools' depth still lands on the best
        # entry price instead of cancelling away against the pools' shift
        hop = (Edge("P0", "S", "T", ConstantProduct(10**28, 10**26, 30)),
               Edge("P1", "S", "T", ConstantProduct(10**28, 2 * 10**26, 30)))
        xs = water_fill([e.fn for e in hop], 1e12)
        assert xs == [0.0, pytest.approx(1e12, rel=1e-9)]


def _random_weights(rng, n):
    """A point of the n-simplex, some coordinates zero."""
    raw = [rng.random() if rng.random() < 0.8 else 0.0 for _ in range(n)]
    if not any(raw):
        raw[rng.randrange(n)] = 1.0
    return [w / sum(raw) for w in raw]


class TestStoredHopFacts:
    @pytest.mark.parametrize("kind", list(HOP_KINDS))
    def test_hop_shares_from_the_stored_facts(self, kind):
        # the pool ids and capacities a path keeps give the split a fresh
        # read of the edges gives, clamps and capacity failures included
        rng = random.Random(f"facts-{kind}")
        clamped = 0
        for _ in range(80):
            hop = _random_hop(rng, HOP_KINDS[kind])
            path = MultiEdgePath((hop,))
            assert path.hop_keys == (tuple(e.pool_id for e in hop),)
            assert path.hop_caps == (
                tuple(e.fn.input_capacity() for e in hop),)
            weights = _random_weights(rng, len(hop))
            amount = _hop_amount(rng, hop, kind)
            if kind == "clamped" and rng.random() < 0.2:
                # past the hop's total capacity
                amount = sum(path.hop_caps[0]) + rng.randint(1, 10**6)
            stored = (path.hop_keys[0], path.hop_caps[0])
            try:
                fresh = hop_shares(hop, weights, amount)
            except CapacityExceededError:
                with pytest.raises(CapacityExceededError):
                    hop_shares(hop, weights, amount, *stored)
                continue
            assert hop_shares(hop, weights, amount, *stored) == fresh
            clamped += fresh != integer_shares(weights, amount,
                                               path.hop_keys[0])
        # constant-product edges have no capacity to clamp at
        assert (clamped > 0) == (kind != "cp")

    def test_facts_stay_out_of_equality_and_repr(self):
        hop = two_pool_hop().hops[0]
        path = MultiEdgePath((hop,))
        assert path == MultiEdgePath((hop,))
        assert hash(path) == hash(MultiEdgePath((hop,)))
        assert "hop_keys" not in repr(path) and "hop_caps" not in repr(path)

    @pytest.mark.parametrize("kind", list(HOP_KINDS))
    def test_optimize_given_the_cached_output(self, kind):
        # handed the old weights' exact output, the relaxation walks only
        # the new weights and keeps what it keeps without it
        rng = random.Random(f"cached-{kind}")
        for trial in range(25):
            hops = [_random_hop(rng, HOP_KINDS[kind], "S", "M", "a")]
            if trial % 2:
                hops.append(_random_hop(rng, ("cp", "cp"), "M", "T", "b"))
            path = MultiEdgePath(tuple(hops))
            x = _hop_amount(rng, hops[0], kind)
            start = [_random_weights(rng, len(h)) for h in path.hops]
            try:
                out = path_output(path, start, x)
            except CapacityExceededError:
                continue
            walked = [list(w) for w in start]
            want = optimize_path_edges(path, walked, x)
            cached = [list(w) for w in start]
            with mock.patch.object(allocation, "path_output",
                                   wraps=allocation.path_output) as walks:
                got = optimize_path_edges(path, cached, x, out)
            assert (got, cached) == (want, walked)
            assert walks.call_count == 1

