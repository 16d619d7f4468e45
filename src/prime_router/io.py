"""Snapshot and result formats, plus the synthetic instance generator.

Snapshots are canonical JSON: sorted keys, compact separators, every amount a
decimal string (floats would silently corrupt 256-bit quantities).  The same
bytes always come back out: save(load(save(x))) is byte-identical, so a sha256
of them identifies a market state.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .allocation import TraceRow
from .engine import RouteSolution
from .errors import InvalidParamsError, ParseError, VersionUnsupportedError
from .graph import (
    KIND_CONSTANT_PRODUCT,
    KIND_PIECEWISE,
    Pool,
    PoolDirection,
    SwapGraph,
    Token,
    build_graph,
)
from .cfmm import Segment

SNAPSHOT_VERSION = 1

_AMOUNT_RE = re.compile(r"^(0|[1-9][0-9]*)$")


@dataclass(frozen=True)
class Snapshot:
    version: int
    block_ref: str
    tokens: Tuple[Token, ...]
    pools: Tuple[Pool, ...]

    def build_graph(self) -> SwapGraph:
        return build_graph(self.tokens, self.pools)


def _encode_amount(value: int) -> str:
    return str(value)


def _decode_amount(value, ctx: str) -> int:
    if not isinstance(value, str) or not _AMOUNT_RE.match(value):
        raise ParseError("amounts must be canonical decimal strings", ctx)
    return int(value)


def _require(obj, key, ctx, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise ParseError(f"missing field {key!r}", ctx)
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise ParseError(f"field {key!r} has wrong type", ctx)
    return value


def snapshot_to_dict(s: Snapshot) -> dict:
    pools = []
    for p in s.pools:
        entry = {
            "id": p.id,
            "kind": p.kind,
            "tokens": list(p.tokens),
            "fee_bps": p.fee_bps,
        }
        if p.kind == KIND_CONSTANT_PRODUCT:
            entry["reserves"] = [_encode_amount(r) for r in p.reserves]
        else:
            entry["directions"] = [
                {
                    "token_in": d.token_in,
                    "token_out": d.token_out,
                    "segments": [
                        {
                            "capacity_in": _encode_amount(seg.capacity_in),
                            "virtual_reserve_in": _encode_amount(seg.virtual_reserve_in),
                            "virtual_reserve_out": _encode_amount(seg.virtual_reserve_out),
                        }
                        for seg in d.segments
                    ],
                }
                for d in p.directions
            ]
        pools.append(entry)
    return {
        "version": s.version,
        "block_ref": s.block_ref,
        "tokens": [
            {"id": t.id, "symbol": t.symbol, "decimals": t.decimals}
            for t in s.tokens
        ],
        "pools": pools,
    }


def snapshot_from_dict(data: dict) -> Snapshot:
    version = _require(data, "version", "snapshot", int)
    if version != SNAPSHOT_VERSION:
        raise VersionUnsupportedError(
            f"snapshot version {version} unsupported", "snapshot")
    block_ref = _require(data, "block_ref", "snapshot", str)
    tokens = []
    ids = set()
    for i, entry in enumerate(_require(data, "tokens", "snapshot", list)):
        ctx = f"tokens[{i}]"
        tid = _require(entry, "id", ctx, str)
        symbol = _require(entry, "symbol", ctx, str)
        decimals = _require(entry, "decimals", ctx, int)
        if not (0 <= decimals <= 30):
            raise ParseError("decimals out of range", ctx)
        if tid in ids:
            raise ParseError(f"duplicate token id {tid!r}", ctx)
        ids.add(tid)
        tokens.append(Token(tid, symbol, decimals))
    pools = []
    pool_ids = set()
    for i, entry in enumerate(_require(data, "pools", "snapshot", list)):
        ctx = f"pools[{i}]"
        pid = _require(entry, "id", ctx, str)
        if pid in pool_ids:
            raise ParseError(f"duplicate pool id {pid!r}", ctx)
        pool_ids.add(pid)
        kind = _require(entry, "kind", ctx, str)
        ptokens = tuple(_require(entry, "tokens", ctx, list))
        for t in ptokens:
            if t not in ids:
                raise ParseError(f"unknown token {t!r}", ctx)
        fee = _require(entry, "fee_bps", ctx, int)
        if kind == KIND_CONSTANT_PRODUCT:
            raw = _require(entry, "reserves", ctx, list)
            reserves = tuple(_decode_amount(r, f"{ctx}.reserves[{j}]")
                             for j, r in enumerate(raw))
            if any(r == 0 for r in reserves):
                raise ParseError("zero reserve", ctx)
            pools.append(Pool(pid, kind, ptokens, fee, reserves))
        elif kind == KIND_PIECEWISE:
            directions = []
            for j, d in enumerate(_require(entry, "directions", ctx, list)):
                dctx = f"{ctx}.directions[{j}]"
                tin = _require(d, "token_in", dctx, str)
                tout = _require(d, "token_out", dctx, str)
                segs = []
                for m, seg in enumerate(_require(d, "segments", dctx, list)):
                    sctx = f"{dctx}.segments[{m}]"
                    segs.append(Segment(
                        _decode_amount(_require(seg, "capacity_in", sctx), sctx + ".capacity_in"),
                        _decode_amount(_require(seg, "virtual_reserve_in", sctx), sctx + ".virtual_reserve_in"),
                        _decode_amount(_require(seg, "virtual_reserve_out", sctx), sctx + ".virtual_reserve_out"),
                    ))
                directions.append(PoolDirection(tin, tout, tuple(segs)))
            pools.append(Pool(pid, kind, ptokens, fee,
                              directions=tuple(directions)))
        else:
            raise ParseError(f"unknown pool kind {kind!r}", ctx)
    return Snapshot(version, block_ref, tuple(tokens), tuple(pools))


def dumps_snapshot(s: Snapshot) -> str:
    return json.dumps(snapshot_to_dict(s), sort_keys=True,
                      separators=(",", ":")) + "\n"


def loads_snapshot(text: str) -> Snapshot:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, column {exc.colno}",
                         "snapshot") from exc
    return snapshot_from_dict(data)


def save_snapshot(s: Snapshot, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_snapshot(s))


def load_snapshot(path) -> Snapshot:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_snapshot(fh.read())


def snapshot_hash(s: Snapshot) -> str:
    return hashlib.sha256(dumps_snapshot(s).encode("utf-8")).hexdigest()


def solution_to_dict(sol: RouteSolution) -> dict:
    """Result schema shared by every algorithm; amounts are decimal strings."""
    paths = []
    for p, hop_w, w in zip(sol.paths, sol.allocation.edge_weights,
                           sol.allocation.path_weights):
        hops = []
        for hop, weights in zip(p.hops, hop_w):
            edges = []
            for e, ew in zip(hop, weights):
                entry = {"pool_id": e.pool_id, "weight": ew}
                if e.legs:
                    entry["legs"] = [
                        {"pool_id": leg.pool_id, "token_in": leg.token_in,
                         "token_out": leg.token_out}
                        for leg in e.legs
                    ]
                edges.append(entry)
            hops.append({"token_in": hop[0].token_in,
                         "token_out": hop[0].token_out, "edges": edges})
        paths.append({"tokens": list(p.tokens), "weight": w, "hops": hops})
    return {
        "source": sol.source,
        "target": sol.target,
        "amount": _encode_amount(sol.amount),
        "algorithm": sol.algorithm,
        "total_output": _encode_amount(sol.total_output),
        "tau": sol.tau,
        "disjoint": sol.disjoint,
        "paths": paths,
        "execution_plan": [
            {
                "pool_id": st.pool_id,
                "token_in": st.token_in,
                "token_out": st.token_out,
                "amount_in": _encode_amount(st.amount_in),
                "min_out": _encode_amount(st.min_out),
            }
            for st in sol.execution_plan
        ],
        "stats": {
            "find_path_calls": sol.stats.find_path_calls,
            "queue_pushes": sol.stats.queue_pushes,
            "swap_evals": sol.stats.swap_evals,
            "asgm_iterations": sol.stats.asgm_iterations,
            "paths_discovered": sol.stats.paths_discovered,
            "degraded": sol.stats.degraded,
        },
    }


def dumps_solution(sol: RouteSolution) -> str:
    return json.dumps(solution_to_dict(sol), sort_keys=True,
                      separators=(",", ":")) + "\n"


def write_trace_csv(trace: Sequence[TraceRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,J,g_max,g_min,delta\n")
        for row in trace:
            fh.write(f"{row.t},{row.objective},{row.g_max!r},{row.g_min!r},"
                     f"{row.delta!r}\n")


def generate_synthetic(seed: int, n_tokens: int, n_pools: int,
                       hub_fraction: float = 0.1,
                       reserve_spread_orders: int = 6) -> Snapshot:
    """Deterministic connected market with hub-clustered liquidity.

    A spanning tree guarantees connectivity; the remaining pools attach
    preferentially to hub tokens so degree mass follows the clustering seen
    in real markets.  Every token carries a latent value spanning
    ``reserve_spread_orders`` orders of magnitude and pool reserves are sized
    consistently with those values (cross rates agree within a few percent,
    like an arbitraged market), so the numerical spread stresses arithmetic
    without turning the market into a lattice of free profit.  Both value
    extremes are planted so the max/min reserve ratio is guaranteed.
    """
    if n_tokens < 2:
        raise InvalidParamsError("need at least two tokens")
    if n_pools < n_tokens - 1:
        raise InvalidParamsError("need at least n_tokens-1 pools for connectivity")
    if not (0.0 < hub_fraction <= 1.0):
        raise InvalidParamsError("hub_fraction must be in (0, 1]")
    if reserve_spread_orders < 1:
        raise InvalidParamsError("reserve_spread_orders must be >= 1")
    rng = random.Random(seed)
    n_hubs = max(1, round(hub_fraction * n_tokens))
    spread = float(reserve_spread_orders)

    tokens = []
    value_order: List[float] = []
    for i in range(n_tokens):
        addr = f"0x{rng.getrandbits(160):040x}"
        tokens.append(Token(addr, f"T{i:05d}", 18))
        value_order.append(rng.uniform(-spread / 2.0, spread / 2.0))
    # plant the value extremes on two fixed non-hub tokens (when they exist)
    if n_tokens > n_hubs + 1:
        value_order[n_hubs] = spread / 2.0
        value_order[n_hubs + 1] = -spread / 2.0

    # Preferential attachment via an endpoint bag: a token's draw odds grow
    # with its degree, hubs start with a large boost.  O(1) per draw.
    bag: List[int] = []
    for j in range(n_hubs):
        bag.extend([j] * 30)

    def admit(idx: int) -> None:
        bag.append(idx)

    pairs: List[Tuple[int, int]] = []
    admit(0)
    for i in range(1, n_tokens):
        j = bag[rng.randrange(len(bag))]
        while j >= i:
            j = bag[rng.randrange(len(bag))]
        pairs.append((j, i))
        admit(i)
        admit(j)
    while len(pairs) < n_pools:
        a = bag[rng.randrange(len(bag))]
        b = bag[rng.randrange(len(bag))]
        if a == b:
            continue
        pairs.append((a, b))
        admit(a)
        admit(b)

    def side_reserve(token_idx: int, depth_order: float) -> int:
        # reserves hold `depth` value units of a token priced 10^value_order;
        # the base exponent puts a mid-value token's pool at whole-token
        # scale once the 18-decimal scaling is accounted for
        noise = rng.uniform(0.98, 1.02)
        raw = 10.0**(22.0 + depth_order - value_order[token_idx]) * noise
        return max(1, int(raw))

    pools = []
    for idx, (a, b) in enumerate(pairs):
        pid = f"P{idx:06d}"
        fee = rng.choice((1, 5, 30, 30, 30, 100))
        ta, tb = tokens[a].id, tokens[b].id
        # hub-facing pools are deeper; planted extremes share one fixed depth
        deep = a < n_hubs or b < n_hubs
        if n_hubs in (a, b) or n_hubs + 1 in (a, b):
            depth = 2.0
        else:
            depth = rng.uniform(1.0, 4.0) if deep else rng.uniform(0.0, 2.5)
        if rng.random() < 0.15:
            pools.append(_synthetic_piecewise(rng, pid, (ta, a), (tb, b),
                                              fee, depth, side_reserve))
        else:
            pools.append(Pool(pid, KIND_CONSTANT_PRODUCT, (ta, tb), fee,
                              (side_reserve(a, depth), side_reserve(b, depth))))
    return Snapshot(SNAPSHOT_VERSION, f"synthetic:{seed}",
                    tuple(tokens), tuple(pools))


def _synthetic_piecewise(rng: random.Random, pid: str, side_a, side_b,
                         fee: int, depth: float, side_reserve) -> Pool:
    """Two/three continuous segments per direction, prices stitched smoothly."""
    (ta, a), (tb, b) = side_a, side_b
    directions = []
    for (tin, i_in), (tout, i_out) in (((ta, a), (tb, b)), ((tb, b), (ta, a))):
        vin = side_reserve(i_in, depth)
        vout = side_reserve(i_out, depth)
        segments = []
        k = 10_000 - fee
        for _ in range(rng.randint(2, 3)):
            # generous capacity keeps flow-state mutations concavity-safe
            cap = max(2, int(vin * rng.uniform(1.2, 3.0)))
            segments.append(Segment(cap, vin, vout))
            exhausted = vin * 10_000 + k * cap
            next_vin = max(1, int(vin * rng.uniform(0.8, 2.0)))
            next_vout = (10_000**2 * vin * vout * next_vin) // (exhausted * exhausted)
            if next_vout < 1:
                break
            vin, vout = next_vin, next_vout
        directions.append(PoolDirection(tin, tout, tuple(segments)))
    return Pool(pid, KIND_PIECEWISE, (ta, tb), fee,
                directions=tuple(directions))
