"""Multi-edge path evaluation, the per-hop water-fill and the path allocator.

The allocation problem is: split an input amount across pool-disjoint paths
(and, inside each path, across the parallel edges of every hop) to maximize
the summed output.  Every weight vector lives on a simplex.  The objective is
evaluated through exact integer swap math, so accepted optimizer steps never
lose a unit to drift; marginal prices live in double precision and are only
compared, never fed back into amounts.  One path walk computes every
integer path output and execution-plan step, so the allocator and the
emitted plan evaluate a path the same way.  One per-hop derivative
computes every real-mode marginal price, from one ``real`` call per edge
that gives the edge's real output and price together.

Inside a hop the split is solved exactly: the optimum equalizes the parallel
edges' marginal prices, and every curve is a chain of Möbius pieces whose
inverse marginal is closed form, so one search over the pieces' boundary
prices and one formula give it (the price-indexed subproblem of Diamandis et
al., FC 2023).  The same water-fill splits an amount across whole paths
whose hops each hold one edge, each path composed into one curve; the
engine's stage 1 sets its threshold that way.  Between paths with parallel
edges, the adaptive sign-gradient allocator moves mass from the
lowest-marginal-price path to the highest one, with the step found by
backtracking from a fixed fraction of the simplex until an Armijo-style
sufficient-increase test passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .cfmm import Piece, SwapFunction, bounded_point
from .errors import CapacityExceededError, InvalidParamsError
from .graph import Edge
from .pathfind import SinglePath


@dataclass(frozen=True)
class MultiEdgePath:
    """Ordered hops; each hop is a tuple of parallel edges for one token pair."""

    hops: Tuple[Tuple[Edge, ...], ...]

    def __post_init__(self):
        if not self.hops or any(not hop for hop in self.hops):
            raise ValueError("path needs at least one edge per hop")
        for hop in self.hops:
            tin, tout = hop[0].token_in, hop[0].token_out
            for e in hop:
                if e.token_in != tin or e.token_out != tout:
                    raise ValueError("parallel edges of a hop must share a token pair")
        for a, b in zip(self.hops, self.hops[1:]):
            if a[0].token_out != b[0].token_in:
                raise ValueError("consecutive hops must chain")
        pools = self.pool_ids
        if len(set(pools)) != len(pools):
            raise ValueError("pool ids must be distinct within a path")

    @property
    def tokens(self) -> Tuple[str, ...]:
        return (self.hops[0][0].token_in,) + tuple(h[0].token_out for h in self.hops)

    @property
    def pool_ids(self) -> Tuple[str, ...]:
        ids: List[str] = []
        for hop in self.hops:
            for e in hop:
                ids.extend(e.pool_ids)
        return tuple(ids)


def single_to_multi(path: SinglePath) -> MultiEdgePath:
    return MultiEdgePath(tuple((e,) for e in path.edges))


@dataclass(frozen=True)
class PlanStep:
    pool_id: str
    token_in: str
    token_out: str
    amount_in: int
    min_out: int


@dataclass(frozen=True)
class Allocation:
    path_weights: Tuple[float, ...]
    edge_weights: Tuple[Tuple[Tuple[float, ...], ...], ...]

    def __post_init__(self):
        _check_simplex(self.path_weights, "path weights")
        for hops in self.edge_weights:
            for w in hops:
                _check_simplex(w, "hop weights")


def _check_simplex(weights: Sequence[float], what: str) -> None:
    if not weights:
        raise ValueError(f"{what}: empty simplex")
    if any(w < 0.0 for w in weights):
        raise ValueError(f"{what}: negative weight")
    if abs(sum(weights) - 1.0) > 1e-9:
        raise ValueError(f"{what}: weights sum to {sum(weights)!r}, expected 1")


# the sign step's first trial step, as a fraction of the simplex
DELTA0 = 0.25
# sign steps per asgm call
T_MAX = 1000
# the smallest trial step; a step that backtracks below it fails
DELTA_MIN = 1e-12
# converged when the best receive price is within this relative distance of
# the lowest funded give price
EPS_REL = 1e-6


@dataclass(frozen=True)
class AsgmParams:
    """The Armijo fraction ``alpha`` and the backtracking factor ``beta``."""

    alpha: float = 1e-4
    beta: float = 0.5

    def __post_init__(self):
        # a bool would pass the range checks below as 0 or 1
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not isinstance(value, Real) or isinstance(value, bool):
                raise TypeError(f"{name} must be a real number, "
                                f"got {type(value).__name__}")
        if not (0.0 < self.alpha < 1.0):
            raise InvalidParamsError("alpha must be in (0, 1)")
        if not (0.0 < self.beta < 1.0):
            raise InvalidParamsError("beta must be in (0, 1)")


@dataclass(frozen=True)
class TraceRow:
    t: int
    objective: int
    g_max: float
    g_min: float
    delta: float


@dataclass
class AsgmResult:
    allocation: Allocation
    tau: float
    trace: List[TraceRow]
    converged: bool
    degraded: bool
    iterations: int


def floor_mul(amount: int, weight: float) -> int:
    """floor(weight * amount) computed exactly from the float's binary ratio."""
    if weight <= 0.0:
        return 0
    if weight >= 1.0:
        return amount
    num, den = weight.as_integer_ratio()
    return amount * num // den


def integer_shares(weights: Sequence[float], total: int,
                   tie_keys: Optional[Sequence] = None) -> List[int]:
    """Split ``total`` into integer shares, floor per weight.

    The rounding remainder goes to the largest-weight entry; ties break on
    ``tie_keys`` (smallest wins) or on index.  Conservation is exact.
    """
    shares = [floor_mul(total, w) for w in weights]
    remainder = total - sum(shares)
    if remainder:
        keys = range(len(weights)) if tie_keys is None else tie_keys
        recipient = min(range(len(weights)),
                        key=lambda i: (-weights[i], keys[i]))
        shares[recipient] += remainder
    return shares


def _hop_pool_keys(hop: Tuple[Edge, ...]) -> Tuple[str, ...]:
    return tuple(e.pool_id for e in hop)


def hop_shares(hop: Tuple[Edge, ...], weights: Sequence[float],
               amt: int) -> List[int]:
    """Integer split of a hop's input across its parallel edges.

    floor(w_e * amt) per edge, remainder to the largest-weight edge (ties to
    smallest pool id).  A share exceeding an edge's capacity is clamped and
    the overflow rerouted to edges that still have room, weight-proportional,
    so the hop consumes exactly its input whenever its total capacity allows;
    otherwise CapacityExceededError propagates up.
    """
    shares = integer_shares(weights, amt, _hop_pool_keys(hop))
    caps = [e.fn.input_capacity() for e in hop]
    if all(c is None or s <= c for s, c in zip(shares, caps)):
        return shares
    n = len(hop)
    for _ in range(n + 1):
        overflow = 0
        for i in range(n):
            if caps[i] is not None and shares[i] > caps[i]:
                overflow += shares[i] - caps[i]
                shares[i] = caps[i]
        if overflow == 0:
            return shares
        open_idx = [i for i in range(n)
                    if caps[i] is None or shares[i] < caps[i]]
        if not open_idx:
            raise CapacityExceededError("hop input exceeds total edge capacity")
        mass = sum(weights[i] for i in open_idx)
        if mass > 0.0:
            sub = [weights[i] / mass for i in open_idx]
        else:
            sub = [1.0 / len(open_idx)] * len(open_idx)
        extra = integer_shares(sub, overflow,
                               [hop[i].pool_id for i in open_idx])
        for i, add in zip(open_idx, extra):
            shares[i] += add
    raise CapacityExceededError("hop input exceeds total edge capacity")


def _hop_output(hop: Tuple[Edge, ...], weights: Sequence[float], amt: int,
                steps: Optional[List[PlanStep]] = None) -> int:
    """Exact integer output of one hop fed ``amt``.

    A single edge takes the whole amount; parallel edges split it with
    ``hop_shares``.  With ``steps``, one PlanStep per pool swap is appended:
    a shortcut composite edge expands into its member legs, chained so each
    leg consumes the previous leg's full output.
    """
    shares = [amt] if len(hop) == 1 else hop_shares(hop, weights, amt)
    out = 0
    for e, share in zip(hop, shares):
        if not share:
            continue
        if steps is None:
            out += e.fn.swap_out(share)
            continue
        for leg in e.legs or (e,):
            leg_out = leg.fn.swap_out(share)
            steps.append(PlanStep(leg.pool_id, leg.token_in, leg.token_out,
                                  share, leg_out))
            share = leg_out
        out += share
    return out


def path_output(path: MultiEdgePath, hop_weights: Sequence[Sequence[float]],
                x_in: int, steps: Optional[List[PlanStep]] = None) -> int:
    """Exact integer output of a path.

    Hops chain with zero residual; ``steps`` collects the pool swaps.
    """
    amt = x_in
    for hop, weights in zip(path.hops, hop_weights):
        amt = _hop_output(hop, weights, amt, steps)
    return amt


def _hop_derivs(hop: Tuple[Edge, ...], weights: Sequence[float],
                amt: float) -> Tuple[float, float, float]:
    """(receive, give, real output) of one hop fed the real amount ``amt``.

    One ``real`` call per edge gives its output and marginal price at its
    operating point, pulled back to its capacity boundary.  The give side
    is the weight-averaged edge marginal price.  The receive side is what
    one extra input unit would actually earn: a capacity-saturated edge
    takes none of it, so it spreads over the open edges by weight.
    """
    if len(hop) == 1:
        # a lone edge carries the whole amount whatever its weight, as in
        # _hop_output
        weights = (1.0,)
    recv = give = open_mass = out = 0.0
    open_derivs = []
    for e, w in zip(hop, weights):
        point, saturated = bounded_point(e.fn, w * amt)
        edge_out, d = e.fn.real(point)
        give += w * d
        if not saturated:
            recv += w * d
            open_mass += w
            open_derivs.append(d)
        out += edge_out
    if open_mass > 0.0:
        recv /= open_mass
    elif open_derivs:
        # extra input reroutes onto open zero-weight edges
        recv = sum(open_derivs) / len(open_derivs)
    return recv, give, out


def path_marginals_real(path: MultiEdgePath,
                        hop_weights: Sequence[Sequence[float]],
                        a: float) -> Tuple[float, float]:
    """(receive, give) chain-rule derivatives along the real composition.

    A capacity-saturated path receives at price zero, so a pinned path stops
    being selected to receive mass instead of advertising a boundary slope
    it cannot honour.
    """
    recv = give = 1.0
    amt = float(a)
    for hop, weights in zip(path.hops, hop_weights):
        hop_recv, hop_give, amt = _hop_derivs(hop, weights, amt)
        recv *= hop_recv
        give *= hop_give
    return recv, give


def objective(paths: Sequence[MultiEdgePath],
              path_weights: Sequence[float],
              edge_weights: Sequence[Sequence[Sequence[float]]],
              x: int) -> int:
    """Total integer output; input conservation across paths is exact."""
    shares = integer_shares(path_weights, x)
    return sum(path_output(p, hw, s)
               for p, hw, s in zip(paths, edge_weights, shares))


def _lowest_funded(weights: Sequence[float], grads: Sequence[float]) -> int:
    """The lowest-gradient coordinate among positive weights, the first on
    a tie; weights that sum to 1 always hold a positive one."""
    return min((i for i, w in enumerate(weights) if w > 0.0),
               key=grads.__getitem__)


def _sign_step(weights: List[float], gain_grads: Sequence[float],
               loss_grads: Sequence[float], minus: int, j0: int,
               evaluate: Callable[[List[float]], int],
               params: AsgmParams,
               delta_start: Optional[float] = None
               ) -> Optional[Tuple[List[float], int, float]]:
    """One rebalancing step: move mass from the worst coordinate to the best.

    ``minus`` is the coordinate that gives mass up: the funded one whose
    loss is priced lowest (``_lowest_funded``).  ``gain_grads`` price what a
    coordinate earns when receiving mass (zero for capacity-saturated ones);
    ``loss_grads`` price what giving mass up costs.  Backtracks the step
    from DELTA0 until the realized integer gain is at least the
    alpha-fraction of the predicted first-order gain (the predicted side is
    truncated toward zero before the comparison).  If the best-priced
    coordinate keeps tripping a capacity limit, the next-best one is tried.
    Returns the new weights, their objective and the accepted step, or None
    when no coordinate admits a feasible step.
    """
    plus_order = sorted(range(len(gain_grads)),
                        key=lambda i: (-gain_grads[i], i))
    top = DELTA0 if delta_start is None else delta_start
    for plus in plus_order:
        if plus == minus or gain_grads[plus] <= loss_grads[minus]:
            break
        delta = min(top, weights[minus])
        saw_capacity = False
        while delta >= DELTA_MIN:
            trial = list(weights)
            trial[plus] += delta
            trial[minus] = max(0.0, trial[minus] - delta)
            try:
                j1 = evaluate(trial)
            except CapacityExceededError:
                saw_capacity = True
                delta *= params.beta
                continue
            predicted = int(params.alpha * delta *
                            (gain_grads[plus] - loss_grads[minus]))
            if j1 >= j0 + predicted:
                return trial, j1, delta
            delta *= params.beta
        if not saw_capacity:
            return None
    return None


def _curve_point(pieces: Tuple[Piece, ...],
                 price: float) -> Tuple[float, Optional[Piece]]:
    """A curve's optimal input at marginal price ``price``.

    Returns ``(x, piece)``: ``piece`` is the one the price falls strictly
    inside, with ``x`` its unclamped inverse; otherwise ``piece`` is None and
    ``x`` a breakpoint, where the price sits between the exit price of one
    piece and the entry price of the next (or above the first entry price,
    or below the exit price at capacity).
    """
    for pc in pieces:
        if price >= pc.price(0.0):
            return float(pc.lo), None
        if pc.width is None or price > pc.exit_price:
            return pc.lo + pc.offset_at(price), pc
    return float(pieces[-1].hi), None


def water_fill(fns: Sequence[SwapFunction],
               amount: float) -> Optional[List[float]]:
    """Inputs that split ``amount`` across swap curves at one marginal price.

    Every curve takes what it would at a common price lambda (KKT of the
    concave split), and the inputs sum to ``amount``.  Total demand falls as
    lambda rises, so a binary search over the pieces' boundary prices finds
    the bracket holding lambda; inside it every curve either sits on a
    breakpoint or moves within one piece, and ``lambda**-1/2`` is closed
    form.  Returns None when the curves cannot absorb ``amount``.
    """
    if amount <= 0.0:
        return None
    curves = [fn.pieces for fn in fns]
    prices = sorted({q for pieces in curves for pc in pieces
                     for q in (pc.price(0.0), pc.exit_price) if q > 0.0})

    def demand(price: float) -> float:
        return sum(_curve_point(pieces, price)[0] for pieces in curves)

    # demand(prices[lo]) >= amount > demand(prices[hi]); index -1 stands for
    # a price of 0, and at the top price every curve takes nothing
    lo, hi = -1, len(prices) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if demand(prices[mid]) >= amount:
            lo = mid
        else:
            hi = mid
    probe = prices[hi] / 2.0 if lo < 0 else \
        math.sqrt(prices[lo] * prices[hi])
    points = [_curve_point(pieces, probe) for pieces in curves]
    free = [pc for _, pc in points if pc is not None]
    if not free:
        return None
    rest = amount - sum(x if pc is None else pc.lo for x, pc in points)
    # a free curve takes root * (s - shift / root) past its piece's start,
    # with s = lambda**-1/2.  Measuring s from the smallest shift / root (the
    # highest entry price) keeps every term positive, so an amount far below
    # the pools' depth does not cancel away
    ref = min(pc.shift / pc.root for pc in free)
    lags = [pc.root * (pc.shift / pc.root - ref) for pc in free]
    u = (rest + sum(lags)) / sum(pc.root for pc in free)
    lag = iter(lags)
    xs = []
    for x, pc in points:
        if pc is not None:
            x = pc.lo + max(0.0, pc.root * u - next(lag))
            if pc.width is not None:
                x = min(x, float(pc.hi))
        xs.append(x)
    return xs


def _pinned(fn, x: float) -> float:
    """A float weight cannot hit a large capacity exactly: a saturated edge
    asks for a hair more, so that ``hop_shares`` clamps it to the unit."""
    cap = fn.input_capacity()
    if cap is not None and x >= float(cap):
        return x * (1.0 + 1e-12) + 2.0
    return x


def optimize_path_edges(path: MultiEdgePath, hop_weights: List[List[float]],
                        x_path: int) -> int:
    """Split every multi-edge hop at equal marginal prices, front to back.

    Each hop is water-filled with the real output of the hops before it;
    every hop's output rises with its input, so the per-hop optimum is the
    path's.  The new weights are kept only when the exact integer output
    does not fall.  Mutates hop_weights in place; returns the path output.
    Called by ``asgm`` only on a multi-edge path with a positive share.
    """
    out = path_output(path, hop_weights, x_path)
    filled = []
    amt = float(x_path)
    for hop, weights in zip(path.hops, hop_weights):
        xs = water_fill([e.fn for e in hop], amt) if len(hop) > 1 else None
        if xs is None:
            xs = [amt] if len(hop) == 1 else [w * amt for w in weights]
        else:
            asks = [_pinned(e.fn, x) for e, x in zip(hop, xs)]
            total = sum(asks)
            weights = [x / total for x in asks]
        filled.append(list(weights))
        amt = sum(e.fn.real(bounded_point(e.fn, x)[0])[0]
                  for e, x in zip(hop, xs))
    try:
        new = path_output(path, filled, x_path)
    except CapacityExceededError:
        return out
    if new < out:
        return out
    hop_weights[:] = filled
    return new


def _init_edge_weights(paths: Sequence[MultiEdgePath],
                       initial: Optional[Sequence[Sequence[Sequence[float]]]]
                       ) -> List[List[List[float]]]:
    if initial is not None:
        out = [[list(w) for w in hops] for hops in initial]
        for p, hops in zip(paths, out):
            if len(hops) != len(p.hops) or any(len(w) != len(h)
                                               for w, h in zip(hops, p.hops)):
                raise InvalidParamsError("initial edge weights shape mismatch")
        return out
    return [[[1.0 / len(h)] * len(h) for h in p.hops] for p in paths]


def asgm(paths: Sequence[MultiEdgePath], x: int,
         params: AsgmParams = AsgmParams(),
         initial_edge_weights: Optional[Sequence] = None) -> AsgmResult:
    """Allocate ``x`` across pool-disjoint paths by adaptive sign gradients.

    Starts from the uniform path allocation, relaxes every path's internal
    edge weights each iteration, then rebalances mass between the paths with
    the highest and lowest marginal price until the relative price spread
    drops under EPS_REL, the step underflows (degraded), or T_MAX is hit.
    Returns the allocation, the equalized marginal price, and the trace.

    Relaxation and marginal prices are functions of a path's operating point
    alone, so both are recomputed only for paths whose share moved; a sign
    step touches two paths, which keeps iterations cheap on wide path sets.
    The engine calls it once per query, in stage 2.
    """
    n = len(paths)
    if n < 1:
        raise InvalidParamsError("need at least one path")
    if x <= 0:
        raise ValueError("input amount must be positive")
    seen_pools: Dict[str, int] = {}
    for i, p in enumerate(paths):
        for pid in p.pool_ids:
            if pid in seen_pools:
                raise InvalidParamsError(
                    f"paths {seen_pools[pid]} and {i} share pool {pid!r}")
            seen_pools[pid] = i

    weights = [1.0 / n] * n
    hop_w = _init_edge_weights(paths, initial_edge_weights)
    has_parallel = [any(len(h) > 1 for h in p.hops) for p in paths]
    cache: Dict[int, Tuple[int, int]] = {}

    def objective_at(w: Sequence[float]) -> int:
        shares = integer_shares(w, x)
        total = 0
        for i, s in enumerate(shares):
            hit = cache.get(i)
            if hit is None or hit[0] != s:
                hit = (s, path_output(paths[i], hop_w[i], s))
                cache[i] = hit
            total += hit[1]
        return total

    trace: List[TraceRow] = []
    g = [0.0] * n
    recv = [0.0] * n
    relaxed_at: List[Optional[int]] = [None] * n
    g_point: List[Optional[float]] = [None] * n
    converged = False
    degraded = False
    last_delta = 0.0
    anneal: Optional[float] = None
    t = 0
    while t < T_MAX:
        shares = integer_shares(weights, x)
        for i in range(n):
            if has_parallel[i] and shares[i] > 0 and shares[i] != relaxed_at[i]:
                optimize_path_edges(paths[i], hop_w[i], shares[i])
                relaxed_at[i] = shares[i]
                cache.pop(i, None)
                g_point[i] = None
        j0 = objective_at(weights)
        for i in range(n):
            if g_point[i] != weights[i]:
                recv[i], g[i] = path_marginals_real(paths[i], hop_w[i],
                                                    weights[i] * x)
                g_point[i] = weights[i]
        minus = _lowest_funded(weights, g)
        best_recv = max(recv)
        g_min = g[minus]
        trace.append(TraceRow(t, j0, max(g), g_min, last_delta))
        # optimal when nothing left to gain: the best price any path would
        # pay for one more unit is (within tolerance of) the worst price a
        # funded path is currently getting
        if best_recv <= 0.0 or best_recv - g_min <= EPS_REL * best_recv:
            converged = True
            break
        stepped = _sign_step(weights, [x * v for v in recv],
                             [x * v for v in g], minus, j0, objective_at,
                             params, delta_start=anneal)
        t += 1
        if stepped is None:
            degraded = True
            break
        weights, j1, last_delta = stepped
        # once integer flooring swallows the gains, full-size ladders just
        # bounce between mirror points; keep shrinking the step so the float
        # price gap closes instead of oscillating
        anneal = last_delta * params.beta if j1 == j0 else None

    tau = max(path_marginals_real(paths[i], hop_w[i], weights[i] * x)[1]
              for i in range(n))
    allocation = Allocation(tuple(weights),
                            tuple(tuple(tuple(w) for w in hops)
                                  for hops in hop_w))
    return AsgmResult(allocation=allocation, tau=tau, trace=trace,
                      converged=converged, degraded=degraded, iterations=t)
