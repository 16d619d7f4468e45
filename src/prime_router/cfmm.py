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

Each curve has one real-valued method, ``real(x) -> (output, marginal
price)``: one walk over the pre-floor curve (a piecewise pool's segments, a
composite's legs), so each boundary and rounded-capacity rule lives in one
place.

Every curve is a chain of Möbius pieces ``x -> (a*x + b) / (c*x + d)``: one
for a constant-product pool, one per segment for a piecewise pool, and the
2x2 matrix products of the legs' active pieces for a composite.  ``pieces``
exposes them with exact int coefficients, which is what lets the allocator
solve a hop's price-equalizing split in closed form.

The curve classes are slotted, one per edge; what only the curves that
carry flow need (``pieces``, a composite's capacity) is derived on the first
read, by ``lazy_slots``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple, Union

from .errors import AmountOverflowError, CapacityExceededError

MAX_UINT256 = 2**256 - 1
BPS_DENOM = 10_000

# Concavity is only guaranteed for a short stitched curve; mirrors on-chain
# router limits for tick-range batching.
MAX_SEGMENTS = 16


def lazy_slots(**derive: Callable[[object], object]) -> Callable:
    """A ``__getattr__`` that fills each slot named in ``derive`` on its
    first read, with ``derive[name](self)``.

    ``cached_property`` needs an instance ``__dict__``, which a slotted
    class lacks.  Here the derived value is a field declared with
    ``field(init=False, compare=False, repr=False)``: construction leaves
    its slot empty, so the first read misses and lands here, and every
    later read is a plain slot read.  None is cached like any other value.
    """
    def __getattr__(self, name: str):
        fill = derive.get(name)
        if fill is None:
            raise AttributeError(f"{type(self).__name__!r} object has no "
                                 f"attribute {name!r}")
        value = fill(self)
        object.__setattr__(self, name, value)
        return value
    return __getattr__


def check_amount(value: int, what: str = "amount") -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if value < 0:
        raise ValueError(f"{what} must be non-negative, got {value}")
    if value > MAX_UINT256:
        raise AmountOverflowError(f"{what} exceeds 256-bit range")
    return value


def _check_fee(fee_bps: int) -> None:
    if not isinstance(fee_bps, int) or isinstance(fee_bps, bool):
        raise TypeError("fee_bps must be an int")
    if not (0 <= fee_bps < BPS_DENOM):
        raise ValueError(f"fee_bps must be in [0, {BPS_DENOM}), got {fee_bps}")


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


def cp_real(reserve_in: int, reserve_out: int, fee_bps: int,
            x: float) -> Tuple[float, float]:
    """Real-valued (pre-floor) constant-product output at ``x`` and its
    analytic derivative, the marginal price."""
    k = BPS_DENOM - fee_bps
    net = x * k
    den = reserve_in * BPS_DENOM + net
    return (net * reserve_out / den,
            (k * BPS_DENOM * reserve_in * reserve_out) / (den * den))


def _real_point(x, cap: Optional[int] = None) -> float:
    """``x`` as a real operating point of a curve with input capacity ``cap``.

    An int point must be a valid amount and is checked against ``cap``
    exactly; a float point against ``cap`` rounded, so a real probe at the
    rounded capacity stays inside.  No point may be negative.
    """
    if isinstance(x, int):
        check_amount(x)
    elif x < 0.0:
        raise ValueError("operating point must be non-negative")
    elif cap is not None:
        cap = float(cap)
    if cap is not None and x > cap:
        raise CapacityExceededError("operating point beyond total capacity")
    return float(x)


@dataclass(frozen=True, slots=True)
class Piece:
    """One Möbius piece of a curve: ``lo + t -> (a*t + b) / (c*t + d)``.

    It holds for ``0 <= t <= width`` (``width`` is None on an unbounded last
    piece).  The coefficients are exact ints with ``c, d > 0`` and
    ``a*d - b*c > 0``, so the piece rises and is concave, with marginal price
    ``(a*d - b*c) / (c*t + d)**2``, in floats ``(root / (t + shift))**2``.
    """

    lo: int
    width: Optional[int]
    a: int
    b: int
    c: int
    d: int
    shift: float = field(init=False, compare=False, repr=False)
    root: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        # int true division rounds correctly however large the coefficients
        object.__setattr__(self, "shift", d / c)
        object.__setattr__(self, "root", math.sqrt((a * d - b * c) / (c * c)))

    @property
    def hi(self) -> Optional[int]:
        return None if self.width is None else self.lo + self.width

    def price(self, t: float) -> float:
        """Marginal price at local offset ``t``."""
        r = self.root / (t + self.shift)
        return r * r

    def offset_at(self, price: float) -> float:
        """Local offset whose marginal price is ``price`` (unclamped)."""
        return self.root / math.sqrt(price) - self.shift

    @property
    def exit_price(self) -> float:
        return 0.0 if self.width is None else self.price(float(self.width))


def _then(outer: Piece, inner: Piece, s: int) -> Tuple[int, int, int, int]:
    """Coefficients of ``outer`` after ``inner``, local to ``inner.lo + s``.

    The 2x2 product ``outer . T(-outer.lo) . inner . T(s)``, where ``T(u)``
    is the shift ``t -> t + u``.
    """
    qa, qb = outer.a, outer.b - outer.a * outer.lo
    qc, qd = outer.c, outer.d - outer.c * outer.lo
    pa, pb = inner.a, inner.a * s + inner.b
    pc, pd = inner.c, inner.c * s + inner.d
    return (qa * pa + qb * pc, qa * pb + qb * pd,
            qc * pa + qd * pc, qc * pb + qd * pd)


def _compose(inner: Tuple[Piece, ...], outer: Tuple[Piece, ...]) -> List[Piece]:
    """Pieces of ``outer`` after ``inner``: each inner piece splits where its
    output crosses an outer breakpoint, pulled back to the next integer
    input.  Stops where the output reaches the outer curve's capacity."""
    out: List[Piece] = []
    for p in inner:
        x = p.lo
        end = p.hi
        while end is None or x < end:
            s = x - p.lo
            num, den = p.a * s + p.b, p.c * s + p.d
            # the outer piece holding y = num / den; a point on a
            # breakpoint belongs to the piece it enters
            q = next((q for q in outer
                      if q.hi is None or num < q.hi * den), None)
            if q is None:
                return out
            nxt = end
            if q.hi is not None and p.a > p.c * q.hi:
                # inner output reaches q.hi at t = (d*y - b) / (a - c*y)
                t_num, t_den = p.d * q.hi - p.b, p.a - p.c * q.hi
                cross = p.lo - (-t_num // t_den)
                nxt = cross if end is None else min(cross, end)
            out.append(Piece(x, None if nxt is None else nxt - x,
                             *_then(q, p, s)))
            if nxt is None:
                return out
            x = nxt
    return out


@dataclass(frozen=True, slots=True, init=False)
class ConstantProduct:
    reserve_in: int
    reserve_out: int
    fee_bps: int = 0
    pieces: Tuple[Piece, ...] = field(init=False, compare=False, repr=False)

    def __init__(self, reserve_in: int, reserve_out: int, fee_bps: int = 0):
        """The generated frozen ``__init__`` and its checks, in one step:
        stage 0 builds two curves per pool."""
        _check_fee(fee_bps)
        if (check_amount(reserve_in, "reserve_in") == 0
                or check_amount(reserve_out, "reserve_out") == 0):
            raise ValueError("reserves must be strictly positive")
        _set_reserve_in(self, reserve_in)
        _set_reserve_out(self, reserve_out)
        _set_fee_bps(self, fee_bps)

    def swap_out(self, x: int) -> int:
        check_amount(x)
        return cp_swap_out(self.reserve_in, self.reserve_out, self.fee_bps, x)

    def real(self, x) -> Tuple[float, float]:
        """(real output, marginal price) at an int or float point."""
        return cp_real(self.reserve_in, self.reserve_out, self.fee_bps,
                       _real_point(x))

    def spot_ratio(self) -> Tuple[int, int]:
        """Exact zero-input rate as a (numerator, denominator) pair."""
        return ((BPS_DENOM - self.fee_bps) * self.reserve_out,
                BPS_DENOM * self.reserve_in)

    def input_capacity(self):
        return None

    def output_ceiling(self) -> int:
        """Strict upper bound on any output, and its supremum: the
        out-reserve, which the output approaches as the input grows."""
        return self.reserve_out

    def _pieces(self) -> Tuple[Piece, ...]:
        k = BPS_DENOM - self.fee_bps
        return (Piece(0, None, k * self.reserve_out, 0, k,
                      BPS_DENOM * self.reserve_in),)

    __getattr__ = lazy_slots(pieces=_pieces)


# the slots' own setters, which the frozen ``__setattr__`` does not guard
_set_reserve_in, _set_reserve_out, _set_fee_bps = (
    getattr(ConstantProduct, name).__set__
    for name in ("reserve_in", "reserve_out", "fee_bps"))


@dataclass(frozen=True, slots=True)
class Segment:
    """One constant-product slice of a concentrated-liquidity curve.

    ``capacity_in`` bounds the raw input routed through this slice; virtual
    reserves define its local price curve.
    """

    capacity_in: int
    virtual_reserve_in: int
    virtual_reserve_out: int


def _check_segment(i: int, s: Segment) -> None:
    """Raise the error of segment ``i``'s first bad field: each an amount
    (``check_amount``), and none of them zero."""
    check_amount(s.capacity_in, f"segments[{i}].capacity_in")
    check_amount(s.virtual_reserve_in, f"segments[{i}].virtual_reserve_in")
    check_amount(s.virtual_reserve_out, f"segments[{i}].virtual_reserve_out")
    if s.capacity_in == 0 or s.virtual_reserve_in == 0 or s.virtual_reserve_out == 0:
        raise ValueError(f"segments[{i}] fields must be strictly positive")


@dataclass(frozen=True, slots=True)
class PiecewiseLiquidity:
    segments: Tuple[Segment, ...]
    fee_bps: int = 0
    pieces: Tuple[Piece, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _check_fee(self.fee_bps)
        segs = tuple(self.segments)
        object.__setattr__(self, "segments", segs)
        if not 1 <= len(segs) <= MAX_SEGMENTS:
            raise ValueError(f"need 1..{MAX_SEGMENTS} segments, got {len(segs)}")
        for i, s in enumerate(segs):
            cap, v_in, v_out = (s.capacity_in, s.virtual_reserve_in,
                                s.virtual_reserve_out)
            # one combined test; only a segment that fails it is checked
            # field by field, so the error names the first bad field
            if not (type(cap) is int and type(v_in) is int
                    and type(v_out) is int and 0 < cap <= MAX_UINT256
                    and 0 < v_in <= MAX_UINT256 and 0 < v_out <= MAX_UINT256):
                _check_segment(i, s)
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

    def real(self, x) -> Tuple[float, float]:
        """(real output, marginal price) in one walk over the segments.

        A point sitting exactly on a boundary has the full output of the
        segments before it and the price of the next segment (the one the
        next input unit would enter).  A real point at the rounded total
        capacity ends on the last segment, even where the rounded segment
        offsets carry it past that end.
        """
        offset = _real_point(x, self.input_capacity())
        out = 0.0
        last = len(self.segments) - 1
        for i, s in enumerate(self.segments):
            width = float(s.capacity_in)
            if offset < width or i == last:
                seg_out, price = cp_real(s.virtual_reserve_in,
                                         s.virtual_reserve_out, self.fee_bps,
                                         min(offset, width))
                return out + seg_out, price
            out += cp_real(s.virtual_reserve_in, s.virtual_reserve_out,
                           self.fee_bps, width)[0]
            offset -= width

    def spot_ratio(self) -> Tuple[int, int]:
        first = self.segments[0]
        return ((BPS_DENOM - self.fee_bps) * first.virtual_reserve_out,
                BPS_DENOM * first.virtual_reserve_in)

    def output_ceiling(self) -> int:
        """Strict upper bound on any output, and the least one: one above
        the output at the input capacity, which no smaller input exceeds."""
        return self.swap_out(self.input_capacity()) + 1

    def _pieces(self) -> Tuple[Piece, ...]:
        """One piece per segment, with the earlier segments' exact output
        ``p`` folded in: ``p + k*V_out*t / (k*t + 10000*V_in)``."""
        k = BPS_DENOM - self.fee_bps
        out = []
        lo = done = 0
        for s in self.segments:
            d = BPS_DENOM * s.virtual_reserve_in
            out.append(Piece(lo, s.capacity_in, k * (done + s.virtual_reserve_out),
                             done * d, k, d))
            lo += s.capacity_in
            done += cp_swap_out(s.virtual_reserve_in, s.virtual_reserve_out,
                                self.fee_bps, s.capacity_in)
        return tuple(out)

    __getattr__ = lazy_slots(pieces=_pieces)


def bounded_point(fn: "SwapFunction", point: float) -> Tuple[float, bool]:
    """(operating point inside ``fn``'s domain, saturated?) of a real-mode
    probe: a point at or past the input capacity sits on it."""
    cap = fn.input_capacity()
    if cap is not None and point >= cap:
        return float(cap), True
    return point, False


@dataclass(frozen=True, slots=True)
class SequentialComposite:
    """Swap functions applied back to back: f = f_n o ... o f_1."""

    parts: Tuple["SwapFunction", ...]
    pieces: Tuple[Piece, ...] = field(init=False, compare=False, repr=False)
    _capacity: Optional[int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composite needs at least one part")

    def swap_out(self, x: int) -> int:
        cur = x
        for fn in self.parts:
            cur = fn.swap_out(cur)
        return cur

    def real(self, x) -> Tuple[float, float]:
        """(real output, marginal price) by the chain rule along one walk;
        a probe saturates at a leg's capacity instead of failing."""
        cur, price = _real_point(x), 1.0
        for fn in self.parts:
            cur, d = fn.real(bounded_point(fn, cur)[0])
            price *= d
        return cur, price

    def spot_ratio(self) -> Tuple[int, int]:
        num, den = 1, 1
        for fn in self.parts:
            n, d = fn.spot_ratio()
            num *= n
            den *= d
        return num, den

    def output_ceiling(self) -> int:
        """Strict upper bound on any output, folded from the first leg's.

        Every floored curve is non-decreasing, so a leg whose inputs stay
        below ``c`` puts out at most its output at ``c - 1``, which is below
        its own ceiling; where ``c - 1`` is past the leg's capacity, its own
        ceiling bounds it instead.
        """
        c = self.parts[0].output_ceiling()
        for fn in self.parts[1:]:
            try:
                c = fn.swap_out(c - 1) + 1
            except (CapacityExceededError, AmountOverflowError):
                c = fn.output_ceiling()
        return c

    def _pieces(self) -> Tuple[Piece, ...]:
        """The legs' pieces composed front to back, ending at the exact
        integer ``input_capacity``."""
        out = self.parts[0].pieces
        for fn in self.parts[1:]:
            out = tuple(_compose(out, fn.pieces))
        cap = self.input_capacity()
        if cap is not None:
            out = tuple(p for p in out if p.lo < cap)
        last = out[-1]
        width = None if cap is None else cap - last.lo
        return out[:-1] + (Piece(last.lo, width, last.a, last.b, last.c, last.d),)

    def input_capacity(self):
        """Largest input the whole chain can absorb (None when unbounded)."""
        return self._capacity

    def _feasible(self, x: int) -> bool:
        try:
            self.swap_out(x)
        except (CapacityExceededError, AmountOverflowError):
            return False
        return True

    def _find_capacity(self) -> Optional[int]:
        """``_capacity``: a later leg's capacity binds through the upstream
        curves, so the bound is found by bisecting feasibility of the exact
        integer chain.  A lazy slot, filled on first read: composites are
        built en masse during preprocessing but only a handful ever carry
        flow."""
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

    __getattr__ = lazy_slots(pieces=_pieces, _capacity=_find_capacity)


SwapFunction = Union[ConstantProduct, PiecewiseLiquidity, SequentialComposite]
