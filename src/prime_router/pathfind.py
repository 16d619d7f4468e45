"""Bound-pruned best-path search with dominance pruning.

``find_path`` runs a best-first traversal: states carry the exact integer
amount produced so far, and a successor is pushed only when it beats the
best amount already recorded at that token.  The recorded best is a small
per-hop-count frontier rather than one scalar: pruning a state is only sound
when a recorded state reached the same token with at least as much output
in at most as many hops, otherwise hop-budget interactions can hide the
optimum.  With that refinement the search is exact against exhaustive
enumeration on two-token-pool graphs (see tests).

Every curve is concave with ``f(x) <= spot * x``, so a path delivers at most
its input times the product of its edges' spot rates.  A ``SearchContext``
tabulates ``rate[r][v]``, the largest such product over walks of at most
``r`` hops from ``v`` to the target, taking each token pair at its best spot
rate and ignoring masks, visited tokens and pool-distinctness.  A state
holding ``out`` at ``v`` with ``r`` hops left can therefore deliver at most
``out * rate[r][v]``: an admissible bound in the sense of Hart, Nilsson &
Raphael (1968).  Every output also stays below the ceiling of each edge
it passed (``Edge.ceiling``, the most that edge can ever put out, plus
one), times the spot product of the edges after that one, whatever the
input; the second row, ``cap[r][v]``, is the largest such figure over the
same walks (infinite at the target itself).  A state's bound is
``min(out * rate[r][v], cap[r][v])``, and for a state one hop from the
target (r = 1) also its last hop's closed form (below).  A neighbour
whose ``cap`` cannot exceed ``max(best arrival, tau * amount)`` is skipped
before any of its edges is looked at, and a successor is dropped, before
its exact swap and again after it, once its bound cannot exceed that
floor.  An edge whose
own ceiling cannot clear the floor, or the frontier, is never evaluated: at
a whale amount the shallow pools, and the shortcuts through one, drop out
unswapped.

The bound also orders the search, as in A*: states pop largest bound
first, ties in push order.  A target arrival's bound is its exact output,
and the best arrival tends to come early, so the floor rises early and the
bound drops more successors.  Each expansion scans the pair into the
target first, so that its arrival raises the floor before any sibling is
quoted, then the rest of the row; a state with no hop left reads that pair
alone.  Bounds are fixed at push time and the floor
only rises, so once a popped state's bound cannot exceed the floor, no
state left in the heap can, and the search stops.  The best arrival pops
before that: its push set the floor to its output or found the floor below
it, and a bound that cannot exceed the floor is smaller.

Both rows are built backward from the target.  Row 0 holds the target
alone; row ``r`` extends row ``r - 1`` through the view's ``in_arcs(w)``,
one ``(u, best spot, largest ceiling)`` per token pair ``u -> w``, and only
from the tokens whose entry row ``r - 1`` changed: an unchanged entry
extends to nothing row ``r - 1`` does not already hold.  So the build reads
the arcs near the target, not every arc of the view once per row.

One scan per neighbour picks the successor from the pair's parallel edges,
its best output seeded at the gate the successor must beat (the frontier
entry at that token for one more hop, or the best arrival when the neighbour
is the target).  An edge is chosen only when its exact output beats the
running best, ties going to the smaller pool id, so a chosen edge always
clears the gate.  Three upper bounds on an edge's exact output, its quote,
rule edges out unquoted, each with one job:

* ``spot * amount``, by concavity, ends the walk.  The pair's edges are in
  spot order, so once an edge's concavity bound cannot beat the gate, or
  the floor (times the neighbour's rate), no later edge's can.
* The edge's ceiling minus one, the most it can ever put out, skips an
  edge that cannot beat them at any input: at a whale amount, the shallow
  pools and the shortcuts through one, before their closed form is read.
* Its closed-form real output, ``_closed_out``: the real output folded
  over the Möbius pieces of the curve's legs, compiled once per edge into
  floats (``Edge.closed``).  A run of constant-product legs is one map
  through the origin, ``x -> a*x / (c*x + d)``, and a piecewise leg has a
  piece per segment.  It is the edge's key: it skips an edge that cannot
  beat them, ranks the rest and stops the quotes.  At a whale amount it is
  far below ``spot * amount``.

The scan quotes the keyed edges largest key first and stops at the first
key below the running best, or whose product with the neighbour's rate
cannot beat the floor: no later edge can win then.  So at a whale amount a
pair's deep pool, wherever it sits in spot order, is quoted first, and its
quote leaves the shallow pools and the shortcuts through one unquoted.  The
pool-mask test, an ``any`` scan over the edge's pools and one over its
inner tokens (none for a pool), runs only on an edge about to be quoted.
``quotes_skipped`` counts the edges a closed form ruled out: those the walk
skips for it and those left at the stop.

A state one hop from the target can only finish on its pair into the
target, and at a whale amount that pair puts out far less than its spot
rate says.  ``_last_hop(pair, x)`` is the largest closed form over the pair
at input ``x``, walked in spot order while an edge's concavity bound can
still beat it: at least every edge's exact quote there, for every curve,
and rising with ``x``.  It caps the bound of such a successor, and the scan
that picks the successor stops at the first key whose ``_last_hop`` cannot
beat the floor: a later quote is no larger than that key, so its
successor's bound could not beat it either.

None of the three bounds changes a result.  An edge left unquoted has an
exact quote below the running best, which the scan could not choose, or one
whose successor the floor would drop, as it drops the successor of any lower
quote the scan chooses instead.  A key equal to the running best is still
quoted, so among equal quotes the smaller pool id wins in any order.  The
closed form bounds the quote because a floored chain of increasing curves
never exceeds its real chain: each leg's floored output is at most its real
output, at an input no larger than the real one, and the next leg rises.
The fold reads each leg's own pieces; a composite's would first search
its capacity.  The concavity bound and each leg of the fold are floats,
each raised by ``BOUND_SLACK``, far above the rounding of its few
operations and of the coefficients' conversion to floats; the exact
``floor(spot * amount)`` would cost a big-integer division per edge the
walk reaches.

Neither the bound nor the order changes the output.  A state is dropped for
one of two reasons, and neither depends on the order states pop in.  Either
a recorded state reached its token with at least its output in at most its
hops (whichever came first, the dominating state is pushed unless the two
are equal): that state's bound is no smaller, because both rows grow with
``r``, the last-hop cap applies only at r = 1, and every term grows with
``out``, so whatever drops it or stops the search before it pops would drop
the dominated state too.  Or its own bound cannot exceed the floor: no
completion could be accepted (average rate above tau) or beat the best
arrival.  So where the frontier's dominance holds (the tests check it
against exhaustive enumeration), the order decides only how soon the floor
rises, and the output is that of the unbounded search, whose bounds are all
infinite and whose heap pops first in, first out.  Scanning the target pair
first is such an order: within an expansion each neighbour is a different
token, so the scan order changes no gate, and the arrival only raises the
floor sooner.  Among equal outputs the first target arrival pushed wins: a
later one must beat it.  The bound is a float and carries a relative slack
of 1e-9, so rounding can never drop a state that reaches the result.

The rows depend on neither masks nor ``tau``, and an exact quote is a pure
function of the edge and its input, so the searches of one query (rising
``tau``, growing masks, same view and target) share one context: the rows
are built once, by the first search, and every quote is computed once,
with capacity failures remembered as failures.  A call given no context builds its own, so a lone search behaves
as it always did.

Paths are vertex-simple and pool-distinct.  The traversal never expands the
target, so every arrival there is terminal; the best arrival whose average
rate clears the threshold is returned once the heap drains or the search
stops.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import itemgetter
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import CapacityExceededError
from .graph import Edge

# relative slack on the float bound, far above the rounding error of a
# product of a few spot rates
BOUND_SLACK = 1.0 + 1e-9
# a quote not yet in a context's memo (None there means over capacity)
_UNQUOTED = object()
_first = itemgetter(0)


@dataclass(frozen=True)
class SinglePath:
    """A discovered source->target path with its probe-time economics."""

    edges: Tuple[Edge, ...]
    output: int
    spot_rate: float

    @property
    def tokens(self) -> Tuple[str, ...]:
        return (self.edges[0].token_in,) + tuple(e.token_out for e in self.edges)

    @property
    def pool_ids(self) -> Tuple[str, ...]:
        ids: List[str] = []
        for e in self.edges:
            ids.extend(e.pool_ids)
        return tuple(ids)


@dataclass
class SearchStats:
    pushes: int = 0
    pops: int = 0
    swap_evals: int = 0
    # edges a closed-form real output ruled out: skipped in the spot-order
    # walk, or left at the stop of the key-order quotes with one as key
    quotes_skipped: int = 0


class SearchContext:
    """What the searches of one query share: the bound rows and the exact
    quotes.

    Bound to one ``(view, target, max_hops)``; ``find_path`` raises
    ValueError when handed a context bound to anything else.  The view's
    edges must outlive the context (a SwapGraph's and an overlay's do):
    quotes are keyed on edge identity and the exact integer input.
    """

    __slots__ = ("view", "target", "max_hops", "quotes", "_rows")

    def __init__(self, view, target: str, max_hops: int):
        self.view = view
        self.target = target
        self.max_hops = max_hops
        # (id(edge), amount) -> exact output, or None when over capacity
        self.quotes: Dict[Tuple[int, int], Optional[int]] = {}
        self._rows: Optional[Tuple[List[Dict[str, float]],
                                   List[Dict[str, float]]]] = None

    @property
    def rows(self) -> Tuple[List[Dict[str, float]], List[Dict[str, float]]]:
        """``(rate, cap)`` (see ``_rate_table``), built on first use."""
        if self._rows is None:
            self._rows = _rate_table(self.view, self.target, self.max_hops)
        return self._rows


def _rate_table(view, target: str, max_hops: int
                ) -> Tuple[List[Dict[str, float]], List[Dict[str, float]]]:
    """``(rate, cap)``, the bound rows of the module docstring.

    ``cap[0][target]`` is infinite, and a pair ``u -> w`` offers ``u``
    ``min(ceiling(u, w) * rate[r-1][w], cap[r-1][w])`` in row r.  Rows run
    from r = 0 (the target alone) to ``limit - 1``, the most hops a
    successor of the source has left; ``limit`` is ``max_hops`` capped at
    the view's token count, which no simple path exceeds.  A token that
    cannot reach the target within r hops has no rate in row r, and no walk
    continues past the target.
    """
    rate = [{target: 1.0}]
    cap = [{target: math.inf}]
    changed = (target,)
    for _ in range(1, min(max_hops, len(view.token_ids()))):
        prev_rate, prev_cap = rate[-1], cap[-1]
        row_rate, row_cap = dict(prev_rate), dict(prev_cap)
        get_rate, get_cap = row_rate.get, row_cap.get
        touched = set()
        for w in changed:
            w_rate = prev_rate.get(w)
            if w_rate is None:
                # its spot product underflowed to 0.0: a cap and no rate
                continue
            w_cap = prev_cap[w]
            for u, spot, ceiling in view.in_arcs(w):
                through = w_rate * spot
                if through > get_rate(u, 0.0) and u != target:
                    row_rate[u] = through
                    touched.add(u)
                bound = ceiling * w_rate
                if bound > w_cap:
                    bound = w_cap
                # the target's cap is infinite; a token not in the row
                # reads as -1, below any bound
                if bound > get_cap(u, -1.0):
                    row_cap[u] = bound
                    touched.add(u)
        changed = touched
        rate.append(row_rate)
        cap.append(row_cap)
    return rate, cap


def find_path(view, source: str, target: str, amount: int, tau: float,
              max_hops: int, masked_pools: FrozenSet[str] = frozenset(),
              stats: Optional[SearchStats] = None, *,
              context: Optional[SearchContext] = None) -> Optional[SinglePath]:
    """Best simple pool-distinct path by exact simulated output.

    ``view`` is anything exposing ``token_ids()``, ``out_items(u)``,
    ``edges_between(u, v)`` (the tuple ``out_items(u)`` pairs with ``v``)
    and ``in_arcs(v)`` (a SwapGraph or an engine overlay).  Returns None
    when no arrival at the target has average rate output/amount strictly
    above ``tau``.  States pop largest bound first, ties in push order, and
    the search stops at the first popped state whose bound cannot exceed
    ``max(best arrival, tau * amount)``.  Each expansion scans its pair
    into the target first; a state one hop from the target is bounded by
    that pair's closed forms (``_last_hop``).  A pair's parallel edges are
    walked in spot order until ``spot * amount`` cannot beat the gate,
    skipped when the most they can ever put out cannot, and quoted largest
    closed-form real output first, only while that closed form can beat the
    pair's running best and that floor; the bounds never change the result
    (see the module docstring), and ``stats.quotes_skipped`` counts the
    edges a closed form ruled out.
    Amounts compare as exact integers; among equal outputs the first target
    arrival pushed wins, and among a pair's parallel edges the smaller pool
    id.  ``context`` carries the bound rows and the quotes across the
    searches of one query; without one the call builds its own.  A bool or
    non-int ``max_hops`` is a TypeError and a NaN ``tau`` a ValueError:
    either would otherwise read as another limit.
    """
    if not isinstance(max_hops, int) or isinstance(max_hops, bool):
        raise TypeError(
            f"max_hops must be an int, got {type(max_hops).__name__}")
    if math.isnan(tau):
        raise ValueError("tau must not be NaN")
    if source == target:
        raise ValueError("source and target must differ")
    if amount <= 0:
        raise ValueError("probe amount must be positive")
    if max_hops < 1:
        raise ValueError("max_hops must be >= 1")

    if stats is None:
        stats = SearchStats()
    if context is None:
        context = SearchContext(view, target, max_hops)
    elif (context.view is not view or context.target != target
          or context.max_hops != max_hops):
        raise ValueError("search context is bound to another view, target "
                         "or max_hops")
    rate, cap = context.rows
    quotes = context.quotes
    last_hop, closed_out = _last_hop, _closed_out
    limit = len(rate)  # max_hops, capped at the view's token count
    # frontier[v][h] = best amount recorded at v with at most h hops
    frontier = {}
    best_target = 0
    # a state whose bound cannot exceed lim = max(best_target, tau * amount)
    # cannot win
    lim = tau * amount
    best_state = None
    # a max-heap on each state's bound, ties in push order; the source's
    # key is -inf, so it pops first
    heap = [(-math.inf, 0, source, amount, (), (source,), ())]
    order = itertools.count(1)
    while heap:
        neg_bound, _, token, cur, edges, visited, pools = heappop(heap)
        stats.pops += 1
        if token == target:
            if cur / amount > tau and (best_state is None or cur > best_state[1]):
                best_state = (edges, cur)
            continue
        if -neg_bound * BOUND_SLACK <= lim:
            # bounds are fixed at push time and lim only rises: no state
            # left in the heap can win
            break
        hops = len(edges)
        # the hops a successor has left; row 0 holds only the target, so no
        # state past the limit is pushed
        left = limit - hops - 1
        reach, ceilings = rate[left], cap[left]
        # the target pair first (marked None, which no row reaches), so that
        # an arrival raises lim before any sibling is quoted; with no hop
        # left it is the only pair
        head = view.edges_between(token, target)
        head = ((None, head),) if head else ()
        row = view.out_items(token) if left else ()
        for v, candidates in itertools.chain(head, row):
            v_rate = reach.get(v)
            if v_rate is None:
                if v is not None:
                    continue
                v, v_rate, gate, v_into = target, 1.0, best_target, None
            elif (v in visited or ceilings[v] * BOUND_SLACK <= lim
                  or v == target):
                # the row's target pair was scanned first
                continue
            else:
                levels = frontier.get(v)
                gate = levels[hops + 1] if levels is not None else 0
                # v can only finish on its pair into the target
                v_into = view.edges_between(v, target) if left == 1 else None
            # every edge that can still win, keyed by its closed form (see
            # the module docstring)
            ranked = []
            for e in candidates:
                # concavity: the quote is at most spot * cur, raised past
                # float rounding, and no later edge's bound is larger
                spot_out = cur * e.spot * BOUND_SLACK
                if spot_out < gate or spot_out * v_rate * BOUND_SLACK <= lim:
                    break
                top = e.ceiling - 1
                if top < gate or top * v_rate * BOUND_SLACK <= lim:
                    continue
                real = closed_out(e.closed, cur)
                if real < gate or real * v_rate * BOUND_SLACK <= lim:
                    stats.quotes_skipped += 1
                    continue
                ranked.append((real, e))
            if not ranked:
                continue
            ranked.sort(key=_first, reverse=True)
            # quote best key first, from a running best seeded at the gate; a
            # quote already in ``quotes`` is not evaluated again
            edge, out = None, gate
            for i, (key, e) in enumerate(ranked):
                if (key < out or key * v_rate * BOUND_SLACK <= lim
                        or (v_into is not None and
                            last_hop(v_into, key) * BOUND_SLACK
                            <= lim)):
                    stats.quotes_skipped += len(ranked) - i
                    break
                if (any(p in masked_pools or p in pools for p in e.pool_ids)
                        or any(leg.token_in in visited
                               for leg in e.legs[1:])):
                    continue
                qkey = (id(e), cur)
                quote = quotes.get(qkey, _UNQUOTED)
                if quote is _UNQUOTED:
                    try:
                        quote = e.fn.swap_out(cur)
                    except CapacityExceededError:
                        quote = None
                    else:
                        stats.swap_evals += 1
                    quotes[qkey] = quote
                if quote is None:
                    continue
                if quote > out or (quote == out and edge is not None
                                   and e.pool_id < edge.pool_id):
                    edge, out = e, quote
            if edge is None:
                continue
            # the successor's bound, its key: a target arrival's is its exact
            # output (rate 1, cap infinite)
            bound = min(out * v_rate, ceilings[v])
            if v_into is not None:
                bound = min(bound, last_hop(v_into, out))
            if bound * BOUND_SLACK <= lim:
                continue
            if v == target:
                best_target = out
                if out > lim:
                    lim = out
            else:
                if levels is None:
                    levels = [0] * (limit + 1)
                    frontier[v] = levels
                for h in range(hops + 1, limit + 1):
                    if out > levels[h]:
                        levels[h] = out
            heappush(heap, (-bound, next(order), v, out, edges + (edge,),
                            visited + (v,), pools + edge.pool_ids))
            stats.pushes += 1
    if best_state is None:
        return None
    edges, out = best_state
    spot = 1.0
    for e in edges:
        spot *= e.spot
    return SinglePath(edges=edges, output=out, spot_rate=spot)


def _last_hop(edges: Sequence[Edge], x: float) -> float:
    """An upper bound on the exact output of every edge of a pair, here a
    token's pair into the target, at input ``x``: the largest closed form
    over the pair, the scan's key, a float raised by ``BOUND_SLACK``.

    The pair is in spot order, and every quote is at most its concavity
    bound ``spot * x``, so the first edge whose concavity bound cannot beat
    the best so far ends the walk, as in the scan.  Every closed form rises
    with ``x``, so the bound does.
    """
    best = 0.0
    for e in edges:
        if x * e.spot * BOUND_SLACK <= best:
            break
        real = _closed_out(e.closed, x)
        if real > best:
            best = real
    return best


def _closed_out(closed: tuple, x: float) -> float:
    """An upper bound on the exact output of the curve that ``closed``
    (``Edge.closed``) compiles, at input ``x``: the real output folded over
    its legs' tables.

    From ``u = x``, each leg sets ``u`` to ``(a*t + b) / (c*t + d)`` on its
    piece holding ``u`` (the first whose ``hi`` is above it, the last past
    the end), ``t = u - lo``, raised by ``BOUND_SLACK``.  A leg's floored
    output is at most its real output, and every real curve rises, so each
    ``u`` bounds the leg's exact output.
    """
    u = x
    for table in closed:
        for hi, lo, a, b, c, d in table:
            if u < hi:
                break
        t = u - lo
        u = (a * t + b) / (c * t + d) * BOUND_SLACK
    return u


def simulate_chain(edges: Sequence[Edge], amount: int) -> Optional[int]:
    """Exact output of pushing the full amount through an edge sequence."""
    cur = amount
    for e in edges:
        try:
            cur = e.fn.swap_out(cur)
        except CapacityExceededError:
            return None
    return cur
