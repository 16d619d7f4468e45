import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prime_router.cfmm import (
    MAX_UINT256,
    ConstantProduct,
    PiecewiseLiquidity,
    Segment,
    SequentialComposite,
    cp_marginal,
    cp_swap_out,
    output_upper_bound,
)
from prime_router.errors import AmountOverflowError, CapacityExceededError


def make_piecewise(fee=0):
    # spot 1.0; second segment enters at 0.44, below the first's exit price
    return PiecewiseLiquidity(
        (Segment(50, 100, 100), Segment(150, 150, 66)), fee)


class TestConstantProduct:
    def test_zero_input(self):
        assert ConstantProduct(1000, 1000, 0).swap_out(0) == 0

    def test_invariant_case(self):
        # (x+dx)(y-dy)=K forces 2000*500 = 10^6
        assert ConstantProduct(1000, 1000, 0).swap_out(1000) == 500

    def test_fee_formula_exact(self):
        # frozen from direct exact-integer evaluation of the fee formula
        out = ConstantProduct(10**9, 10**9, 30).swap_out(10**6)
        assert out == (10**6 * 9970 * 10**9) // (10**9 * 10**4 + 10**6 * 9970)
        assert out == 996006

    def test_spot_price_no_fee(self):
        assert ConstantProduct(1000, 1000, 0).marginal_price(0) == 1.0

    def test_marginal_price_at_reserve(self):
        # 100*100/200^2
        assert ConstantProduct(100, 100, 0).marginal_price(100) == 0.25

    def test_marginal_price_with_fee(self):
        assert ConstantProduct(10**9, 10**9, 30).marginal_price(0) == pytest.approx(0.997, abs=1e-12)

    def test_marginal_matches_finite_difference(self):
        # oracle: central difference (step 10^3) on the closed-form curve,
        # computed here independently of the library
        def curve(x):
            return 9970.0 * x * 10**9 / (10**9 * 10**4 + 9970.0 * x)

        h = 10**3
        fd = (curve(h) - curve(-h)) / (2 * h)
        f = ConstantProduct(10**9, 10**9, 30)
        assert f.marginal_price(0) == pytest.approx(fd, rel=1e-6)
        assert f.marginal_price(0) == pytest.approx(0.997, rel=1e-9)

    def test_spot_and_max_output(self):
        f = ConstantProduct(200, 100, 0)
        assert f.spot_price() == 0.5
        assert ConstantProduct(1, 7, 0).max_output() == 7

    def test_rejects_zero_reserves(self):
        with pytest.raises(ValueError):
            ConstantProduct(0, 10, 0)
        with pytest.raises(ValueError):
            ConstantProduct(10, 0, 0)

    def test_rejects_bad_fee(self):
        with pytest.raises(ValueError):
            ConstantProduct(10, 10, 10_000)
        with pytest.raises(ValueError):
            ConstantProduct(10, 10, -1)

    def test_overflow_detected(self):
        f = ConstantProduct(MAX_UINT256 - 5, 10**18, 0)
        with pytest.raises(AmountOverflowError):
            f.swap_out(10)
        with pytest.raises(AmountOverflowError):
            f.swap_out(MAX_UINT256 + 1)

    def test_amount_type_checked(self):
        with pytest.raises(TypeError):
            ConstantProduct(10, 10, 0).swap_out(1.5)


class TestPiecewise:
    def test_zero_input(self):
        assert make_piecewise().swap_out(0) == 0

    def test_spot_is_first_segment(self):
        assert make_piecewise().spot_price() == 1.0

    def test_greedy_fill_matches_manual(self):
        f = make_piecewise()
        # 80 in: 50 through segment 1, 30 through segment 2
        expected = cp_swap_out(100, 100, 0, 50) + cp_swap_out(150, 66, 0, 30)
        assert f.swap_out(80) == expected

    def test_capacity_exceeded(self):
        f = make_piecewise()
        assert f.input_capacity() == 200
        assert f.swap_out(200) > 0
        with pytest.raises(CapacityExceededError):
            f.swap_out(201)

    def test_marginal_at_boundary_enters_next_segment(self):
        f = make_piecewise()
        inside_first = f.marginal_price(49)
        at_boundary = f.marginal_price(50)
        # second segment spot: 66/150 = 0.44
        assert at_boundary == pytest.approx(0.44)
        assert inside_first > at_boundary

    def test_real_point_at_rounded_capacity(self):
        # float(a + b) - float(a) > float(b) for these capacities, so the
        # rounded segment offsets carry float(input_capacity()) past the end
        a, b = 161324352732870180864, 201206890577582882816
        f = PiecewiseLiquidity((Segment(a, 10**21, 10**21),
                                Segment(b, 2 * 10**21, 10**21)), 0)
        cap = f.input_capacity()
        assert float(cap) - float(a) > float(b)
        last = f.segments[-1]
        assert f.marginal_price(float(cap)) == cp_marginal(
            last.virtual_reserve_in, last.virtual_reserve_out, 0, float(b))
        assert f.marginal_price(cap) == f.marginal_price(float(cap))
        assert f.out_real(float(cap)) == pytest.approx(f.swap_out(cap),
                                                       rel=1e-12)
        beyond = float(cap) * (1 + 1e-12)
        for bad in (cap + 1, beyond):
            with pytest.raises(CapacityExceededError):
                f.marginal_price(bad)
        with pytest.raises(CapacityExceededError):
            f.out_real(beyond)

    def test_max_output_is_segment_sum(self):
        assert make_piecewise().max_output() == 100 + 66

    def test_rejects_increasing_prices(self):
        with pytest.raises(ValueError):
            PiecewiseLiquidity((Segment(10, 100, 50), Segment(10, 100, 100)), 0)

    def test_rejects_exit_below_next_entry(self):
        # first segment ends far below the second's entry price
        with pytest.raises(ValueError):
            PiecewiseLiquidity((Segment(1000, 100, 100), Segment(10, 1000, 999)), 0)


class TestComposite:
    def test_chains_integer_swaps(self):
        a = ConstantProduct(1000, 1000, 0)
        b = ConstantProduct(500, 500, 0)
        c = SequentialComposite((a, b))
        assert c.swap_out(100) == b.swap_out(a.swap_out(100))

    def test_spot_is_product(self):
        c = SequentialComposite((ConstantProduct(100, 200, 0),
                                 ConstantProduct(100, 300, 0)))
        assert c.spot_price() == pytest.approx(6.0)

    def test_marginal_chain_rule_at_zero(self):
        c = SequentialComposite((ConstantProduct(100, 200, 0),
                                 ConstantProduct(100, 300, 0)))
        assert c.marginal_price(0) == pytest.approx(6.0)


amounts = st.integers(min_value=0, max_value=10**24)
reserves = st.integers(min_value=10**3, max_value=10**24)
fees = st.integers(min_value=0, max_value=500)


@given(reserves, reserves, fees, amounts)
@settings(max_examples=300, deadline=None)
def test_zero_origin_and_bounds(r_in, r_out, fee, x):
    f = ConstantProduct(r_in, r_out, fee)
    out = f.swap_out(x)
    assert out >= 0
    assert out < r_out
    assert f.swap_out(0) == 0
    assert out <= output_upper_bound(f, x)


@given(reserves, reserves, fees, amounts, amounts)
@settings(max_examples=300, deadline=None)
def test_monotone(r_in, r_out, fee, x1, x2):
    f = ConstantProduct(r_in, r_out, fee)
    lo, hi = sorted((x1, x2))
    assert f.swap_out(lo) <= f.swap_out(hi)


@given(reserves, reserves, fees, amounts, st.integers(min_value=0, max_value=10**20))
@settings(max_examples=300, deadline=None)
def test_midpoint_concavity(r_in, r_out, fee, x1, delta):
    # even-spaced pair so the midpoint is integral; 1 unit of flooring slack
    f = ConstantProduct(r_in, r_out, fee)
    x2 = x1 + 2 * delta
    mid = (x1 + x2) // 2
    assert 2 * f.swap_out(mid) + 2 >= f.swap_out(x1) + f.swap_out(x2)


@given(reserves, reserves, fees, st.integers(min_value=1, max_value=10**22))
@settings(max_examples=300, deadline=None)
def test_slippage_nonincreasing(r_in, r_out, fee, x1):
    # average rate f(x)/x falls as x grows, tested at geometric spacings
    f = ConstantProduct(r_in, r_out, fee)
    for mult in (2, 4, 8):
        x2 = x1 * mult
        assert (f.swap_out(x1) + 1) * x2 >= f.swap_out(x2) * x1


def test_derivative_consistency_randomized():
    # analytic marginal price vs central finite differences of the exact
    # integer swap, where outputs are large enough to bound flooring noise
    rng = random.Random(7)
    checked = 0
    while checked < 200:
        r_in = rng.randint(10**12, 10**24)
        r_out = rng.randint(10**12, 10**24)
        fee = rng.choice((0, 1, 5, 30, 100))
        f = ConstantProduct(r_in, r_out, fee)
        x = rng.randint(max(1, r_in // 10**6), 10 * r_in)
        if f.swap_out(x) <= 10**6:
            continue
        h = min(max(1, (r_in + x) // 1000), x)
        fd = (f.swap_out(x + h) - f.swap_out(x - h)) / (2 * h)
        assert f.marginal_price(x) == pytest.approx(fd, rel=1e-5)
        checked += 1


def test_piecewise_concavity_properties():
    rng = random.Random(11)
    f = make_piecewise(fee=30)
    xs = sorted(rng.randint(0, 100) for _ in range(20))
    outs = [f.swap_out(x) for x in xs]
    assert outs == sorted(outs)
    for x1, x2 in zip(xs, xs[2:]):
        if (x1 + x2) % 2 == 0:
            assert 2 * f.swap_out((x1 + x2) // 2) + 2 >= f.swap_out(x1) + f.swap_out(x2)
