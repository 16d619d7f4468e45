"""Multi-edge path evaluation and the adaptive sign-gradient allocator.

The allocation problem is: split an input amount across pool-disjoint paths
(and, inside each path, across the parallel edges of every hop) to maximize
the summed output.  Every weight vector lives on a simplex.  The objective is
evaluated through exact integer swap math, so accepted optimizer steps never
lose a unit to drift; marginal prices live in double precision and are only
compared, never fed back into amounts.  One per-hop evaluator computes every
integer path output, hop amount and execution-plan step, and one per-hop
derivative every real-mode marginal price, so the allocator and the emitted
plan evaluate a path the same way.

The optimizer moves mass from the lowest-marginal-price component to the
highest one, with the step found by backtracking from a fixed fraction of the
simplex until an Armijo-style sufficient-increase test passes.  The same
kernel drives both the outer path-weight loop and the nested per-hop
edge-weight relaxation; the nested pass runs at a 10x looser tolerance each
outer iteration since full inner convergence is wasted early on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import CapacityExceededError, InvalidParamsError
from .graph import Edge
from .pathfind import SinglePath

_SIMPLEX_DRIFT = 1e-12


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


@dataclass(frozen=True)
class AsgmParams:
    alpha: float = 1e-4
    beta: float = 0.5
    delta0: float = 0.25
    delta_min: float = 1e-12
    t_max: int = 1000
    eps_rel: float = 1e-6

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0):
            raise InvalidParamsError("alpha must be in (0, 1)")
        if not (0.0 < self.beta < 1.0):
            raise InvalidParamsError("beta must be in (0, 1)")
        if self.delta0 <= 0.0 or self.delta_min <= 0.0 or self.eps_rel <= 0.0:
            raise InvalidParamsError("delta0, delta_min and eps_rel must be positive")
        if self.t_max < 1:
            raise InvalidParamsError("t_max must be >= 1")


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
    max_backtracks: int = 0


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
        if tie_keys is None:
            recipient = min(range(len(weights)), key=lambda i: (-weights[i], i))
        else:
            recipient = min(range(len(weights)),
                            key=lambda i: (-weights[i], tie_keys[i]))
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


def hop_amounts(path: MultiEdgePath, hop_weights: Sequence[Sequence[float]],
                x_in: int, steps: Optional[List[PlanStep]] = None) -> List[int]:
    """Integer input of every hop plus the final output (length hops+1).

    Hops chain with zero residual; ``steps`` collects the pool swaps.
    """
    amounts = [x_in]
    for hop, weights in zip(path.hops, hop_weights):
        amounts.append(_hop_output(hop, weights, amounts[-1], steps))
    return amounts


def path_output(path: MultiEdgePath, hop_weights: Sequence[Sequence[float]],
                x_in: int) -> int:
    """Exact integer output of a path."""
    return hop_amounts(path, hop_weights, x_in)[-1]


def _bounded_point(fn, point: float):
    """(operating point inside the domain, saturated?) for real-mode probes."""
    cap = fn.input_capacity()
    if cap is not None and point >= cap:
        return float(cap), True
    return point, False


def _hop_derivs(hop: Tuple[Edge, ...], weights: Sequence[float],
                amt: float) -> Tuple[float, float, float]:
    """(receive, give, real output) of one hop fed the real amount ``amt``.

    The give side is the weight-averaged edge marginal price with operating
    points pulled back to capacity boundaries.  The receive side is what one
    extra input unit would actually earn: a capacity-saturated edge takes
    none of it, so it spreads over the open edges by weight.
    """
    if len(hop) == 1:
        # a lone edge carries the whole amount whatever its weight, as in
        # _hop_output
        weights = (1.0,)
    recv = give = open_mass = out = 0.0
    open_derivs = []
    for e, w in zip(hop, weights):
        point, saturated = _bounded_point(e.fn, w * amt)
        d = e.fn.marginal_price(point)
        give += w * d
        if not saturated:
            recv += w * d
            open_mass += w
            open_derivs.append(d)
        out += e.fn.out_real(point)
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


def path_marginal_real(path: MultiEdgePath,
                       hop_weights: Sequence[Sequence[float]],
                       a: float) -> float:
    """Give-side real-mode marginal price (see path_marginals_real)."""
    return path_marginals_real(path, hop_weights, a)[1]


def objective(paths: Sequence[MultiEdgePath],
              path_weights: Sequence[float],
              edge_weights: Sequence[Sequence[Sequence[float]]],
              x: int) -> int:
    """Total integer output; input conservation across paths is exact."""
    shares = integer_shares(path_weights, x)
    return sum(path_output(p, hw, s)
               for p, hw, s in zip(paths, edge_weights, shares))


def _renormalize(weights: List[float]) -> None:
    for i, w in enumerate(weights):
        if w < 0.0:
            weights[i] = 0.0
    total = sum(weights)
    if abs(total - 1.0) > _SIMPLEX_DRIFT and total > 0.0:
        for i in range(len(weights)):
            weights[i] /= total


def _select_extremes(weights: Sequence[float], grads: Sequence[float]):
    """Highest-gradient coordinate overall; lowest among positive weights."""
    plus = min(range(len(grads)), key=lambda i: (-grads[i], i))
    minus = None
    for i, w in enumerate(weights):
        if w > 0.0 and (minus is None or grads[i] < grads[minus]):
            minus = i
    return plus, minus


def _sign_step(weights: List[float], gain_grads: Sequence[float],
               loss_grads: Sequence[float], j0: int,
               evaluate: Callable[[List[float]], int],
               params: AsgmParams,
               plus_order: Optional[Sequence[int]] = None,
               delta_cap: Optional[Callable[[int], Optional[float]]] = None,
               delta_start: Optional[float] = None
               ) -> Optional[Tuple[List[float], int, float, int]]:
    """One rebalancing step: move mass from the worst coordinate to the best.

    ``gain_grads`` price what a coordinate earns when receiving mass (zero
    for capacity-saturated ones); ``loss_grads`` price what giving mass up
    costs.  Backtracks the step from delta0 until the realized integer gain
    is at least the alpha-fraction of the predicted first-order gain (the
    predicted side is truncated toward zero before the comparison).  If the
    best-priced coordinate keeps tripping a capacity limit, the next-best one
    is tried.  Returns None when no coordinate admits a feasible step.
    """
    _, minus = _select_extremes(weights, loss_grads)
    if minus is None:
        return None
    if plus_order is None:
        plus_order = sorted(range(len(gain_grads)),
                            key=lambda i: (-gain_grads[i], i))
    top = params.delta0 if delta_start is None else delta_start
    for plus in plus_order:
        if plus == minus or gain_grads[plus] <= loss_grads[minus]:
            break
        delta = min(top, weights[minus])
        if delta_cap is not None:
            cap = delta_cap(plus)
            if cap is not None:
                if cap < params.delta_min:
                    continue
                delta = min(delta, cap)
        saw_capacity = False
        backtracks = 0
        while delta >= params.delta_min:
            trial = list(weights)
            trial[plus] += delta
            trial[minus] = max(0.0, trial[minus] - delta)
            try:
                j1 = evaluate(trial)
            except CapacityExceededError:
                saw_capacity = True
                delta *= params.beta
                backtracks += 1
                continue
            predicted = int(params.alpha * delta *
                            (gain_grads[plus] - loss_grads[minus]))
            if j1 >= j0 + predicted:
                _renormalize(trial)
                return trial, j1, delta, backtracks
            delta *= params.beta
            backtracks += 1
        if not saw_capacity:
            return None
    return None


def _downstream_derivs(path: MultiEdgePath,
                       hop_weights: Sequence[Sequence[float]],
                       amounts: Sequence[int]) -> List[float]:
    """after[j] = d(final output)/d(hop j output), at integer points."""
    after = [1.0] * (len(path.hops) + 1)
    for j in range(len(path.hops) - 1, -1, -1):
        recv = _hop_derivs(path.hops[j], hop_weights[j], float(amounts[j]))[0]
        after[j] = recv * after[j + 1]
    return after


_EDGE_STEP_BUDGET = 64


def optimize_path_edges(path: MultiEdgePath, hop_weights: List[List[float]],
                        x_path: int, params: AsgmParams, tol: float) -> int:
    """Equalize marginal prices across the parallel edges of every hop.

    Runs the sign-rebalance kernel on each multi-edge hop's weight simplex,
    with the path's own exact output as the Armijo objective, sweeping until
    no hop can raise it.  A hop whose accepted step stops moving the integer
    output has hit flooring resolution (e.g. a dust-sized parallel pool at a
    huge operating amount) and is left alone until the next relaxation pass.
    Mutates hop_weights in place; returns the path output.
    """
    if x_path == 0 or all(len(h) == 1 for h in path.hops):
        return path_output(path, hop_weights, x_path)
    out = path_output(path, hop_weights, x_path)
    budget = _EDGE_STEP_BUDGET
    while budget > 0:
        gained = False
        for j, hop in enumerate(path.hops):
            if len(hop) == 1:
                continue
            caps = [e.fn.input_capacity() for e in hop]
            while budget > 0:
                amounts = hop_amounts(path, hop_weights, x_path)
                a_j = amounts[j]
                if a_j == 0:
                    break
                after = _downstream_derivs(path, hop_weights, amounts)
                w = hop_weights[j]
                g = [e.fn.marginal_price(_bounded_point(e.fn, wk * a_j)[0])
                     for e, wk in zip(hop, w)]
                # capacity-saturated edges cannot receive mass; they are
                # pinned at their boundary and excluded from the price target
                open_idx = [i for i in range(len(hop))
                            if caps[i] is None or w[i] * a_j + 1.0 <= caps[i]]
                _, minus = _select_extremes(w, g)
                if minus is None or not open_idx:
                    break
                g_top = max(g[i] for i in open_idx)
                if g_top <= 0.0 or g_top - g[minus] <= tol * g_top:
                    break
                scale = a_j * after[j + 1]
                grads = [scale * gk for gk in g]
                plus_order = sorted(open_idx, key=lambda i: (-g[i], i))

                def headroom(i):
                    if caps[i] is None:
                        return None
                    return (caps[i] - w[i] * a_j) / a_j

                def evaluate(trial, _j=j):
                    saved = hop_weights[_j]
                    hop_weights[_j] = trial
                    try:
                        return path_output(path, hop_weights, x_path)
                    finally:
                        hop_weights[_j] = saved

                stepped = _sign_step(w, grads, grads, out, evaluate, params,
                                     plus_order=plus_order,
                                     delta_cap=headroom)
                budget -= 1
                if stepped is None:
                    break
                new_w, new_out, _, _ = stepped
                hop_weights[j] = new_w
                if new_out <= out:
                    out = new_out
                    break
                out = new_out
                gained = True
        if not gained:
            break
    return out


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
         initial_edge_weights: Optional[Sequence] = None,
         initial_path_weights: Optional[Sequence[float]] = None) -> AsgmResult:
    """Allocate ``x`` across pool-disjoint paths by adaptive sign gradients.

    Starts from the uniform path allocation (callers that already hold a
    near-equilibrium split may pass one in), relaxes every path's internal
    edge weights each iteration, then rebalances mass between the paths with
    the highest and lowest marginal price until the relative price spread
    drops under eps_rel, the step underflows (degraded), or t_max is hit.
    Returns the allocation, the equalized marginal price, and the trace.

    Relaxation and marginal prices are functions of a path's operating point
    alone, so both are recomputed only for paths whose share moved; a sign
    step touches two paths, which keeps iterations cheap on wide path sets.
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

    if initial_path_weights is not None:
        if len(initial_path_weights) != n:
            raise InvalidParamsError("initial path weights length mismatch")
        weights = [max(0.0, float(w)) for w in initial_path_weights]
        total = sum(weights)
        if total <= 0.0:
            raise InvalidParamsError("initial path weights sum to zero")
        weights = [w / total for w in weights]
    else:
        weights = [1.0 / n] * n
    hop_w = _init_edge_weights(paths, initial_edge_weights)
    has_parallel = [any(len(h) > 1 for h in p.hops) for p in paths]
    inner_tol = 10.0 * params.eps_rel
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
    max_backtracks = 0
    anneal: Optional[float] = None
    t = 0
    while t < params.t_max:
        shares = integer_shares(weights, x)
        for i in range(n):
            if has_parallel[i] and shares[i] > 0 and shares[i] != relaxed_at[i]:
                optimize_path_edges(paths[i], hop_w[i], shares[i], params,
                                    inner_tol)
                relaxed_at[i] = shares[i]
                cache.pop(i, None)
                g_point[i] = None
        j0 = objective_at(weights)
        for i in range(n):
            if g_point[i] != weights[i]:
                recv[i], g[i] = path_marginals_real(paths[i], hop_w[i],
                                                    weights[i] * x)
                g_point[i] = weights[i]
        _, minus = _select_extremes(weights, g)
        best_recv = max(recv)
        g_max = max(g)
        g_min = g[minus] if minus is not None else g_max
        trace.append(TraceRow(t, j0, g_max, g_min, last_delta))
        # optimal when nothing left to gain: the best price any path would
        # pay for one more unit is (within tolerance of) the worst price a
        # funded path is currently getting
        if minus is None or best_recv <= 0.0 or \
                best_recv - g_min <= params.eps_rel * best_recv:
            converged = True
            break
        stepped = _sign_step(weights, [x * v for v in recv],
                             [x * v for v in g], j0, objective_at, params,
                             delta_start=anneal)
        t += 1
        if stepped is None:
            degraded = True
            break
        weights, j1, last_delta, steps_back = stepped
        max_backtracks = max(max_backtracks, steps_back)
        # once integer flooring swallows the gains, full-size ladders just
        # bounce between mirror points; keep shrinking the step so the float
        # price gap closes instead of oscillating
        anneal = last_delta * params.beta if j1 == j0 else None

    tau = max(
        path_marginal_real(paths[i], hop_w[i], weights[i] * x)
        for i in range(n))
    allocation = Allocation(tuple(weights),
                            tuple(tuple(tuple(w) for w in hops)
                                  for hops in hop_w))
    return AsgmResult(allocation=allocation, tau=tau, trace=trace,
                      converged=converged, degraded=degraded, iterations=t,
                      max_backtracks=max_backtracks)
