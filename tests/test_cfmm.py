import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prime_router.cfmm import (
    MAX_UINT256,
    ConstantProduct,
    PiecewiseLiquidity,
    Segment,
    SequentialComposite,
    cp_real,
    cp_swap_out,
)
from prime_router.errors import AmountOverflowError, CapacityExceededError
from prime_router.graph import Edge, spot_order
from prime_router.pathfind import _folded_bound, _last_hop


def edge(fn):
    return Edge("P", "A", "B", fn)


def output_bound(e, amount):
    """Concavity bound: e's quote at amount is below floor(spot * amount) + 1."""
    num, den = e.fn.spot_ratio()
    return amount * num // den + 1


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
        assert ConstantProduct(1000, 1000, 0).real(0)[1] == 1.0

    def test_marginal_price_at_reserve(self):
        # 100*100/200^2
        assert ConstantProduct(100, 100, 0).real(100)[1] == 0.25

    def test_marginal_price_with_fee(self):
        assert ConstantProduct(10**9, 10**9, 30).real(0)[1] == \
            pytest.approx(0.997, abs=1e-12)

    def test_marginal_matches_finite_difference(self):
        # oracle: central difference (step 10^3) on the closed-form curve,
        # computed here independently of the library
        def curve(x):
            return 9970.0 * x * 10**9 / (10**9 * 10**4 + 9970.0 * x)

        h = 10**3
        fd = (curve(h) - curve(-h)) / (2 * h)
        f = ConstantProduct(10**9, 10**9, 30)
        assert f.real(0)[1] == pytest.approx(fd, rel=1e-6)
        assert f.real(0)[1] == pytest.approx(0.997, rel=1e-9)

    def test_spot_and_max_output(self):
        f = ConstantProduct(200, 100, 0)
        assert f.spot_ratio() == (10_000 * 100, 10_000 * 200)
        assert edge(f).spot == 0.5 == f.real(0)[1]
        # the output approaches reserve_out but never reaches it
        g = ConstantProduct(1, 7, 0)
        assert g.swap_out(10**60) == 6
        assert output_bound(edge(g), 10**60) > 6

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
        f = make_piecewise(fee=30)
        assert f.spot_ratio() == (9_970 * 100, 10_000 * 100)
        assert edge(f).spot == pytest.approx(f.real(0)[1], rel=1e-15)

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
        inside_first = f.real(49)[1]
        at_boundary = f.real(50)[1]
        # second segment spot: 66/150 = 0.44
        assert at_boundary == pytest.approx(0.44)
        assert inside_first > at_boundary
        # one call pairs the first segment's full output with the second
        # segment's entry price
        for b in (50, 50.0):
            assert f.real(b) == (cp_real(100, 100, 0, 50.0)[0],
                                 cp_real(150, 66, 0, 0.0)[1])
        assert f.real(50)[0] == pytest.approx(f.swap_out(50), abs=1)

    def test_real_point_at_rounded_capacity(self):
        # float(a + b) - float(a) > float(b) for these capacities, so the
        # rounded segment offsets carry float(input_capacity()) past the end
        a, b = 161324352732870180864, 201206890577582882816
        f = PiecewiseLiquidity((Segment(a, 10**21, 10**21),
                                Segment(b, 2 * 10**21, 10**21)), 0)
        cap = f.input_capacity()
        assert float(cap) - float(a) > float(b)
        first, last = f.segments
        out, price = f.real(float(cap))
        assert price == cp_real(last.virtual_reserve_in,
                                last.virtual_reserve_out, 0, float(b))[1]
        assert out == (cp_real(first.virtual_reserve_in,
                               first.virtual_reserve_out, 0, float(a))[0]
                       + cp_real(last.virtual_reserve_in,
                                 last.virtual_reserve_out, 0, float(b))[0])
        assert out == pytest.approx(f.swap_out(cap), rel=1e-12)
        assert f.real(cap) == (out, price)
        beyond = float(cap) * (1 + 1e-12)
        for bad in (cap + 1, beyond):
            with pytest.raises(CapacityExceededError):
                f.real(bad)

    def test_max_output_is_segment_sum(self):
        # every input up to capacity stays under the spot bound and the sum
        # of the segments' output reserves
        f = make_piecewise()
        e = edge(f)
        for x in range(f.input_capacity() + 1):
            assert f.swap_out(x) <= output_bound(e, x)
        assert f.swap_out(f.input_capacity()) < 100 + 66

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
        assert c.spot_ratio() == (10_000**2 * 200 * 300, 10_000**2 * 100**2)
        assert edge(c).spot == 6.0
        assert output_bound(edge(c), 10) > c.swap_out(10)

    def test_marginal_chain_rule_at_zero(self):
        c = SequentialComposite((ConstantProduct(100, 200, 0),
                                 ConstantProduct(100, 300, 0)))
        assert c.real(0)[1] == pytest.approx(6.0)

    @pytest.mark.parametrize("fn", [
        ConstantProduct(100, 100, 0), make_piecewise(),
        SequentialComposite((ConstantProduct(100, 100, 0),))],
        ids=["cp", "piecewise", "composite"])
    def test_real_checks_an_int_point_as_an_amount(self, fn):
        with pytest.raises(TypeError):
            fn.real(True)
        with pytest.raises(AmountOverflowError):
            fn.real(MAX_UINT256 + 1)


@pytest.mark.parametrize("build,message", [
    (lambda: PiecewiseLiquidity((), 0), "need 1..16 segments, got 0"),
    (lambda: PiecewiseLiquidity((Segment(10, 100, 100),) * 17, 0),
     "need 1..16 segments, got 17"),
    (lambda: PiecewiseLiquidity((Segment(0, 100, 100),), 0),
     "segments[0] fields must be strictly positive"),
    (lambda: PiecewiseLiquidity((Segment(10, 100, 100), Segment(10, 0, 50)),
                                0),
     "segments[1] fields must be strictly positive"),
    (lambda: PiecewiseLiquidity((Segment(10, 100, 0),), 0),
     "segments[0] fields must be strictly positive"),
    (lambda: SequentialComposite(()), "composite needs at least one part"),
    (lambda: ConstantProduct(100, 100, 0).real(-1.0),
     "operating point must be non-negative"),
    (lambda: make_piecewise().real(-1.0),
     "operating point must be non-negative"),
    (lambda: SequentialComposite((make_piecewise(),)).real(-1e-300),
     "operating point must be non-negative"),
], ids=["no_segments", "17_segments", "zero_capacity", "zero_reserve_in",
        "zero_reserve_out", "empty_composite", "negative_point",
        "negative_point_piecewise", "negative_point_composite"])
def test_malformed_curve_is_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


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
    assert out <= output_bound(edge(f), x)


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
        assert f.real(x)[1] == pytest.approx(fd, rel=1e-5)
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


def _piece_at(fn, x):
    """(value, marginal price) of the curve's Möbius piece holding x."""
    for p in fn.pieces:
        if p.hi is None or x <= p.hi:
            t = x - p.lo
            return (p.a * t + p.b) / (p.c * t + p.d), p.price(float(t))
    raise AssertionError("x beyond the last piece")


class TestPieces:
    def curves(self):
        cp = ConstantProduct(10**21, 3 * 10**20, 30)
        pw = PiecewiseLiquidity((Segment(5 * 10**20, 10**21, 10**21),
                                 Segment(10**21, 3 * 10**21, 10**21)), 5)
        wide = ConstantProduct(10**21, 3 * 10**21, 0)
        return {"cp": cp, "piecewise": pw,
                # wide's output crosses pw's breakpoint and capacity
                "composite": SequentialComposite((wide, pw, cp)),
                "piecewise_first": SequentialComposite((pw, cp, pw))}

    @pytest.mark.parametrize("kind", ["cp", "piecewise", "composite",
                                      "piecewise_first"])
    def test_pieces_follow_the_curve(self, kind):
        fn = self.curves()[kind]
        cap = fn.input_capacity()
        rng = random.Random(kind)
        for x in [1, 10**6] + [rng.randint(1, cap or 10**22) for _ in range(200)]:
            value, price = _piece_at(fn, x)
            assert value == pytest.approx(fn.swap_out(x), rel=1e-12, abs=2)
            assert price == pytest.approx(fn.real(float(x))[1], rel=1e-9)

    def test_pieces_tile_the_domain(self):
        for kind, fn in self.curves().items():
            pieces = fn.pieces
            assert pieces[0].lo == 0
            for a, b in zip(pieces, pieces[1:]):
                assert a.hi == b.lo
                # concave: a piece exits at or above the next one's entry
                assert a.exit_price >= b.price(0.0) * (1 - 1e-12)
            assert pieces[-1].hi == fn.input_capacity()
        assert [len(fn.pieces) for fn in self.curves().values()] == [1, 2, 2, 2]

    def test_output_ceiling_is_strict(self):
        for fn in self.curves().values():
            cap = fn.input_capacity()
            x = cap if cap is not None else MAX_UINT256 // 2
            assert fn.swap_out(x) < fn.output_ceiling()
            assert edge(fn).ceiling == fn.output_ceiling()


def _random_cp(rng, spot_at_most_one=False):
    r_in = rng.randint(10**12, 10**24)
    r_out = (rng.randint(r_in // 10, r_in) if spot_at_most_one
             else rng.randint(10**12, 10**24))
    return ConstantProduct(r_in, r_out, rng.choice((0, 5, 30, 100)))


def _random_piecewise(rng, spot_at_most_one=False, scale=10**24):
    """1-4 concave segments: each next segment enters at a price between
    half and all of the previous one's exit price."""
    fee = rng.choice((0, 5, 30, 100))
    v_in = rng.randint(scale // 10**6, scale)
    v_out = (rng.randint(v_in // 10, v_in) if spot_at_most_one
             else rng.randint(scale // 10**6, scale))
    segments = []
    for _ in range(rng.randint(1, 4)):
        cap = rng.randint(max(1, v_in // 100), 2 * v_in)
        segments.append(Segment(cap, v_in, v_out))
        spent = v_in * 10_000 + (10_000 - fee) * cap
        nxt_in = rng.randint(scale // 10**6, scale)
        # the exit price is 10**8 * v_in * v_out / spent**2
        nxt_out = (10**8 * v_in * v_out * nxt_in // spent**2
                   * rng.randint(50, 100) // 100)
        if nxt_out == 0:
            break
        v_in, v_out = nxt_in, nxt_out
    return PiecewiseLiquidity(tuple(segments), fee)


def _random_composite(rng):
    legs = tuple(_random_cp(rng) if rng.random() < 0.5
                 else _random_piecewise(rng)
                 for _ in range(rng.randint(2, 3)))
    return SequentialComposite(legs)


def _binding_composite(rng):
    """A deep constant-product leg, then a piecewise leg whose capacity is
    far below the first leg's output, then maybe a third leg.  Every leg's
    spot is at most 1, so each upstream output steps by at most one unit and
    lands on the piecewise leg's capacity exactly."""
    legs = [_random_cp(rng, spot_at_most_one=True),
            _random_piecewise(rng, spot_at_most_one=True, scale=10**15)]
    if rng.random() < 0.7:
        legs.append(_random_cp(rng, spot_at_most_one=True)
                    if rng.random() < 0.5
                    else _random_piecewise(rng, spot_at_most_one=True))
    return SequentialComposite(tuple(legs))


class TestOutputCeiling:
    """Every curve's ``output_ceiling`` is a strict bound on its output and
    a tight one: no input reaches it, and the input capacity reaches one
    below it wherever the chain's outputs land on the capacity that binds."""

    def strict_at(self, fn, rng, draws=30):
        cap = fn.input_capacity()
        top = cap if cap is not None else MAX_UINT256 // 2
        ceiling = fn.output_ceiling()
        for x in [0, 1, top] + [rng.randint(1, min(top, 10**30))
                                for _ in range(draws)]:
            assert fn.swap_out(x) < ceiling
        return ceiling

    @pytest.mark.parametrize("kind", ["cp", "piecewise", "composite"])
    def test_strict_on_random_curves(self, kind):
        rng = random.Random(f"ceiling-{kind}")
        build = {"cp": _random_cp, "piecewise": _random_piecewise,
                 "composite": _random_composite}[kind]
        for _ in range(150):
            fn = build(rng)
            ceiling = self.strict_at(fn, rng)
            assert edge(fn).ceiling == ceiling

    def test_piecewise_ceiling_is_one_above_its_output_at_capacity(self):
        rng = random.Random(0xCE1)
        for _ in range(200):
            fn = _random_piecewise(rng)
            assert fn.output_ceiling() - 1 == fn.swap_out(fn.input_capacity())
            # at most the sum of the segments' out-reserves
            assert fn.output_ceiling() <= sum(s.virtual_reserve_out
                                              for s in fn.segments)
        # 33 units out of each segment; the out-reserves sum to 166
        assert make_piecewise().output_ceiling() == 67

    def test_composite_ceiling_is_at_most_its_last_legs(self):
        rng = random.Random(0xCE2)
        tighter = 0
        for _ in range(200):
            fn = _random_composite(rng)
            ceiling = fn.output_ceiling()
            assert ceiling <= fn.parts[-1].output_ceiling()
            tighter += ceiling < fn.parts[-1].output_ceiling()
            cap = fn.input_capacity()
            if cap is not None and cap == fn.parts[0].input_capacity():
                # the first leg's capacity binds: its output there is the
                # largest, and so is the chain's
                assert ceiling - 1 == fn.swap_out(cap)
        assert tighter > 150

    def test_a_later_legs_capacity_binds(self):
        rng = random.Random(0xCE3)
        for _ in range(150):
            fn = _binding_composite(rng)
            cap = fn.input_capacity()
            assert cap is not None
            with pytest.raises(CapacityExceededError):
                fn.swap_out(cap + 1)
            ceiling = self.strict_at(fn, rng)
            assert ceiling - 1 == fn.swap_out(cap)
            assert ceiling <= fn.parts[-1].output_ceiling()
        # by hand: deep 1:1 pools around a piecewise leg that takes 200
        # units and puts out 66
        deep = ConstantProduct(10**9, 10**9, 0)
        fn = SequentialComposite((deep, make_piecewise(), deep))
        assert deep.swap_out(fn.input_capacity()) == 200
        assert fn.output_ceiling() == fn.swap_out(fn.input_capacity()) + 1 \
            == deep.swap_out(66) + 1 == 66


class TestFoldedBound:
    """The search's closed form for a curve without one Möbius map, its
    real output folded over its legs' pieces, is at least the exact quote
    at every input the curve takes, and past the input capacity at least
    the quote at the capacity."""

    @pytest.mark.parametrize("kind", ["piecewise", "composite", "binding"])
    def test_at_least_the_quote(self, kind):
        rng = random.Random(f"fold-{kind}")
        build = {"piecewise": _random_piecewise,
                 "composite": _random_composite,
                 "binding": _binding_composite}[kind]
        for _ in range(150):
            fn = build(rng)
            cap = fn.input_capacity()
            top = cap if cap is not None else 10**30
            for x in [0, 1, top] + [rng.randint(1, top) for _ in range(10)]:
                out = fn.swap_out(x)
                bound = _folded_bound(fn, x)
                assert bound >= out
                if kind == "piecewise":
                    # and it is tight: each piece floors once
                    assert bound <= (out + 1) * (1 + 3e-9)
            if cap is None:
                continue
            at_cap = fn.swap_out(cap)
            for x in (cap + 1, 2 * cap, cap * 10**6):
                with pytest.raises(CapacityExceededError):
                    fn.swap_out(x)
                assert _folded_bound(fn, x) >= at_cap



class TestLastHop:
    """``_last_hop``, the bound the search puts on a state one hop from the
    target, is at least the exact quote of every edge of the pair into the
    target at every input up to its own, integer or float, and rises with
    its input."""

    @pytest.mark.parametrize("kind", ["constant_product", "piecewise",
                                      "mixed"])
    def test_at_least_every_quote_of_the_pair(self, kind):
        rng = random.Random(f"last-hop-{kind}")
        builders = {"constant_product": (_random_cp,),
                    "piecewise": (_random_piecewise,),
                    "mixed": (_random_cp, _random_piecewise,
                              _random_composite, _binding_composite)}[kind]
        for _ in range(80):
            pair = sorted((Edge(f"P{i}", "A", "B", rng.choice(builders)(rng))
                           for i in range(rng.randint(1, 5))), key=spot_order)
            caps = [e.fn.input_capacity() for e in pair]
            xs = [0, 1]
            for cap in caps:
                top = cap if cap is not None else 10**30
                xs += [top, rng.randint(1, top), rng.uniform(1, top)]
            folds = {}
            bounds = []
            for x in sorted(xs):
                bound = _last_hop(pair, x, folds)
                # a float input stands for any quote's input up to it
                whole = int(x)
                for e, cap in zip(pair, caps):
                    if cap is None or whole <= cap:
                        assert bound >= e.fn.swap_out(whole)
                bounds.append(bound)
            assert bounds == sorted(bounds)
            assert bounds[0] == 0.0
