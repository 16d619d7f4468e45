"""Exact swap-function evaluation and differentiation for supported pool kinds.

Amounts are plain Python ints in raw on-chain units (decimals-scaled) and must
stay inside the unsigned 256-bit range; violating that raises
``AmountOverflowError`` instead of wrapping.  Python's arbitrary-precision ints
make every intermediate product exact, so only results and post-trade reserves
need range checks.  Marginal prices are ordinary floats: they are only ever
compared and differenced, never fed back into amount arithmetic.

Two pool kinds are supported:

* ``ConstantProduct`` -- the classic x*y=K pool with the fee charged on the
  input side before the invariant (``amount_in_with_fee = x * (10000 - fee_bps)``).
* ``PiecewiseLiquidity`` -- concentrated liquidity approximated by up to 16
  constant-product segments with input capacities, applied greedily in order.
  Segment validation enforces a globally concave stitched curve.

``SequentialComposite`` chains swap functions back to back and is used for
shortcut edges that collapse a multi-pool leg sequence into one logical hop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple, Union

from .errors import AmountOverflowError, CapacityExceededError

MAX_UINT256 = 2**256 - 1
BPS_DENOM = 10_000

# Concavity is only guaranteed for a short stitched curve; mirrors on-chain
# router limits for tick-range batching.
MAX_SEGMENTS = 16


def check_amount(value: int, what: str = "amount") -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    if value > MAX_UINT256:
        raise AmountOverflowError(f"{what} exceeds 256-bit range")
    return value


def _check_fee(fee_bps: int) -> int:
    if not isinstance(fee_bps, int) or isinstance(fee_bps, bool):
        raise TypeError("fee_bps must be an int")
    if not (0 <= fee_bps < BPS_DENOM):
        raise ValueError(f"fee_bps must be in [0, {BPS_DENOM}), got {fee_bps}")
    return fee_bps


def cp_swap_out(reserve_in: int, reserve_out: int, fee_bps: int, x: int) -> int:
    """Exact-in constant-product quote with the fee applied to the input.

    Returns ``floor(x*k*R_out / (R_in*10000 + x*k))`` with ``k = 10000 - fee_bps``.
    """
    if x == 0:
        return 0
    if reserve_in + x > MAX_UINT256:
        raise AmountOverflowError("post-trade input reserve exceeds 256-bit range")
    net = x * (BPS_DENOM - fee_bps)
    return net * reserve_out // (reserve_in * BPS_DENOM + net)


def cp_out_real(reserve_in: int, reserve_out: int, fee_bps: int, x: float) -> float:
    """Real-valued (pre-floor) constant-product output, used for derivatives."""
    if x <= 0.0:
        return 0.0
    net = x * (BPS_DENOM - fee_bps)
    return net * reserve_out / (reserve_in * BPS_DENOM + net)


def cp_marginal(reserve_in: int, reserve_out: int, fee_bps: int, x: float) -> float:
    """Analytic derivative of the real-valued constant-product output at x."""
    k = BPS_DENOM - fee_bps
    den = reserve_in * BPS_DENOM + k * x
    return (k * BPS_DENOM * reserve_in * reserve_out) / (den * den)


@dataclass(frozen=True)
class ConstantProduct:
    reserve_in: int
    reserve_out: int
    fee_bps: int = 0

    def __post_init__(self):
        check_amount(self.reserve_in, "reserve_in")
        check_amount(self.reserve_out, "reserve_out")
        if self.reserve_in == 0 or self.reserve_out == 0:
            raise ValueError("reserves must be strictly positive")
        _check_fee(self.fee_bps)

    def swap_out(self, x: int) -> int:
        check_amount(x)
        return cp_swap_out(self.reserve_in, self.reserve_out, self.fee_bps, x)

    def out_real(self, x: float) -> float:
        return cp_out_real(self.reserve_in, self.reserve_out, self.fee_bps, x)

    def marginal_price(self, x) -> float:
        """f'(x); accepts an int or float operating point."""
        if isinstance(x, int):
            check_amount(x)
        elif x < 0.0:
            raise ValueError("operating point must be non-negative")
        return cp_marginal(self.reserve_in, self.reserve_out, self.fee_bps, float(x))

    def spot_price(self) -> float:
        return self.marginal_price(0)

    def spot_ratio(self) -> Tuple[int, int]:
        """Exact zero-input rate as a (numerator, denominator) pair."""
        return ((BPS_DENOM - self.fee_bps) * self.reserve_out,
                BPS_DENOM * self.reserve_in)

    def max_output(self) -> int:
        """Asymptotic output bound (never attained)."""
        return self.reserve_out

    def input_capacity(self):
        return None


@dataclass(frozen=True)
class Segment:
    """One constant-product slice of a concentrated-liquidity curve.

    ``capacity_in`` bounds the raw input routed through this slice; virtual
    reserves define its local price curve.
    """

    capacity_in: int
    virtual_reserve_in: int
    virtual_reserve_out: int


@dataclass(frozen=True)
class PiecewiseLiquidity:
    segments: Tuple[Segment, ...]
    fee_bps: int = 0

    def __post_init__(self):
        _check_fee(self.fee_bps)
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not 1 <= len(segs) <= MAX_SEGMENTS:
            raise ValueError(f"need 1..{MAX_SEGMENTS} segments, got {len(segs)}")
        for i, s in enumerate(segs):
            check_amount(s.capacity_in, f"segments[{i}].capacity_in")
            check_amount(s.virtual_reserve_in, f"segments[{i}].virtual_reserve_in")
            check_amount(s.virtual_reserve_out, f"segments[{i}].virtual_reserve_out")
            if s.capacity_in == 0 or s.virtual_reserve_in == 0 or s.virtual_reserve_out == 0:
                raise ValueError(f"segments[{i}] fields must be strictly positive")
        k = BPS_DENOM - self.fee_bps
        for i in range(len(segs) - 1):
            a, b = segs[i], segs[i + 1]
            # Entry marginal prices strictly decreasing (fee factor cancels).
            if a.virtual_reserve_out * b.virtual_reserve_in <= b.virtual_reserve_out * a.virtual_reserve_in:
                raise ValueError("segment entry prices must be strictly decreasing")
            # Exit price of a segment must not fall below the next entry price,
            # otherwise the stitched curve stops being concave.
            exhausted = a.virtual_reserve_in * BPS_DENOM + k * a.capacity_in
            lhs = BPS_DENOM**2 * a.virtual_reserve_in * a.virtual_reserve_out * b.virtual_reserve_in
            rhs = b.virtual_reserve_out * exhausted * exhausted
            if lhs < rhs:
                raise ValueError("segment exit price falls below the next entry price")

    def input_capacity(self) -> int:
        return sum(s.capacity_in for s in self.segments)

    def swap_out(self, x: int) -> int:
        check_amount(x)
        remaining = x
        out = 0
        for s in self.segments:
            take = remaining if remaining < s.capacity_in else s.capacity_in
            out += cp_swap_out(s.virtual_reserve_in, s.virtual_reserve_out, self.fee_bps, take)
            remaining -= take
            if remaining == 0:
                return out
        raise CapacityExceededError(
            f"input {x} exceeds total capacity {self.input_capacity()}")

    def out_real(self, x: float) -> float:
        """Real-valued output; as in marginal_price, a point at the rounded
        total capacity ends on the last segment."""
        if x > float(self.input_capacity()):
            raise CapacityExceededError("real input exceeds total capacity")
        remaining = float(x)
        out = 0.0
        for s in self.segments:
            take = min(remaining, float(s.capacity_in))
            out += cp_out_real(s.virtual_reserve_in, s.virtual_reserve_out, self.fee_bps, take)
            remaining -= take
            if remaining <= 0.0:
                break
        return out

    def marginal_price(self, x) -> float:
        """Derivative of the active segment at the local offset.

        An operating point sitting exactly on a boundary belongs to the next
        segment (the one the next input unit would enter).  A real point at
        the rounded total capacity belongs to the end of the last segment,
        even where the rounded segment offsets carry it past that end.
        Integer points beyond the exact capacity raise.
        """
        if isinstance(x, int):
            check_amount(x)
            cap = self.input_capacity()
        else:
            cap = float(self.input_capacity())
        if x > cap:
            raise CapacityExceededError("operating point beyond total capacity")
        offset = float(x)
        for s in self.segments[:-1]:
            cap = float(s.capacity_in)
            if offset < cap:
                return cp_marginal(s.virtual_reserve_in, s.virtual_reserve_out,
                                   self.fee_bps, offset)
            offset -= cap
        last = self.segments[-1]
        return cp_marginal(last.virtual_reserve_in, last.virtual_reserve_out,
                           self.fee_bps, min(offset, float(last.capacity_in)))

    def spot_price(self) -> float:
        first = self.segments[0]
        return cp_marginal(first.virtual_reserve_in, first.virtual_reserve_out,
                           self.fee_bps, 0.0)

    def spot_ratio(self) -> Tuple[int, int]:
        first = self.segments[0]
        return ((BPS_DENOM - self.fee_bps) * first.virtual_reserve_out,
                BPS_DENOM * first.virtual_reserve_in)

    def max_output(self) -> int:
        return sum(s.virtual_reserve_out for s in self.segments)


@dataclass(frozen=True)
class SequentialComposite:
    """Swap functions applied back to back: f = f_n o ... o f_1."""

    parts: Tuple["SwapFunction", ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composite needs at least one part")

    def swap_out(self, x: int) -> int:
        cur = x
        for fn in self.parts:
            cur = fn.swap_out(cur)
        return cur

    @staticmethod
    def _leg_point(fn, cur: float) -> float:
        # real-mode probes saturate at a leg's capacity instead of failing
        cap = fn.input_capacity()
        if cap is not None and cur > cap:
            return float(cap)
        return cur

    def out_real(self, x: float) -> float:
        cur = float(x)
        for fn in self.parts:
            cur = fn.out_real(self._leg_point(fn, cur))
        return cur

    def marginal_price(self, x) -> float:
        # Chain rule; the walk stays integer or real depending on the input,
        # matching how the output itself would be evaluated.
        deriv = 1.0
        if isinstance(x, int):
            cur = x
            for fn in self.parts:
                deriv *= fn.marginal_price(cur)
                cur = fn.swap_out(cur)
        else:
            cur = float(x)
            for fn in self.parts:
                cur = self._leg_point(fn, cur)
                deriv *= fn.marginal_price(cur)
                cur = fn.out_real(cur)
        return deriv

    def spot_price(self) -> float:
        return math.prod(fn.spot_price() for fn in self.parts)

    def spot_ratio(self) -> Tuple[int, int]:
        num, den = 1, 1
        for fn in self.parts:
            n, d = fn.spot_ratio()
            num *= n
            den *= d
        return num, den

    def max_output(self) -> int:
        return self.parts[-1].max_output()

    def input_capacity(self):
        """Largest input the whole chain can absorb (None when unbounded).

        A later leg's capacity binds through the upstream curves, so the
        bound is found by bisecting feasibility of the exact integer chain.
        Computed lazily and cached: composites are built en masse during
        preprocessing but only a handful ever carry flow.
        """
        try:
            return object.__getattribute__(self, "_capacity")
        except AttributeError:
            pass
        cap = self._bisect_capacity()
        object.__setattr__(self, "_capacity", cap)
        return cap

    def _feasible(self, x: int) -> bool:
        try:
            self.swap_out(x)
        except (CapacityExceededError, AmountOverflowError):
            return False
        return True

    def _bisect_capacity(self):
        if all(fn.input_capacity() is None for fn in self.parts):
            return None
        first = self.parts[0].input_capacity()
        if first is not None and self._feasible(first):
            return first
        if first is None and self._feasible(2**200):
            # downstream capacities never bind: upstream outputs saturate
            # below them on the whole representable range
            return None
        hi = first if first is not None else 2**200
        lo = 0
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self._feasible(mid):
                lo = mid
            else:
                hi = mid
        return lo


SwapFunction = Union[ConstantProduct, PiecewiseLiquidity, SequentialComposite]


def output_upper_bound(fn: SwapFunction, x: int) -> int:
    """Cheap exact bound ``f(x) <= floor(spot * x) + 1`` from concavity."""
    num, den = fn.spot_ratio()
    return x * num // den + 1
