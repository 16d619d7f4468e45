"""Acceptance gate: every shipped guarantee, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints its verdict before asserting so the summary
survives a failure.
"""

import csv
import math
import random
import time
from unittest import mock

import pytest

from prime_router import allocation, engine
from prime_router.allocation import (
    asgm,
    objective,
    path_marginals_real,
)
from prime_router.baselines import best_single_path
from prime_router.cfmm import ConstantProduct, PiecewiseLiquidity, Segment
from prime_router.cli import main as cli_main
from prime_router.engine import (
    RouteQuery,
    prepare_routing,
    prime,
    verify_solution,
)
from prime_router.errors import NoRouteError
from prime_router.graph import build_graph
from prime_router.io import generate_synthetic, save_snapshot
from prime_router.pathfind import find_path, simulate_chain

from instances import (
    WAD,
    closed_form_pair,
    cp_pool,
    random_cp_graph,
    random_disjoint_paths,
    tokens,
)
from oracles import GridSpec, enumerate_paths_oracle, grid_oracle


def report(num, ok, text):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _random_piecewise(rng):
    fee = rng.choice((0, 5, 30, 100))
    k = 10_000 - fee
    vin = rng.randint(10**12, 10**20)
    vout = rng.randint(10**12, 10**20)
    segments = []
    for _ in range(rng.randint(1, 3)):
        cap = int(vin * rng.uniform(1.2, 3.0))
        segments.append(Segment(cap, vin, vout))
        exhausted = vin * 10_000 + k * cap
        vin = max(1, int(vin * rng.uniform(0.8, 2.0)))
        vout = (10_000**2 * segments[-1].virtual_reserve_in
                * segments[-1].virtual_reserve_out * vin) // (exhausted * exhausted)
        if vout < 1:
            break
    return PiecewiseLiquidity(tuple(segments), fee)


def test_criterion_1_cfmm_property_suite():
    rng = random.Random(0xC1)
    started = time.perf_counter()
    derivative_checks = 0
    for _ in range(10_000):
        r_in = rng.randint(10**12, 10**24)
        r_out = rng.randint(10**12, 10**24)
        fee = rng.choice((0, 1, 5, 30, 100))
        f = ConstantProduct(r_in, r_out, fee)
        x = rng.randint(max(1, r_in // 10**6), 10 * r_in)
        assert f.swap_out(0) == 0
        out = f.swap_out(x)
        dx = rng.randint(1, max(1, x // 3))
        assert out <= f.swap_out(x + dx)
        x2 = 2 * x
        assert (out + 1) * x2 >= f.swap_out(x2) * x
        if out > 10**6:
            h = min(max(1, (r_in + x) // 1000), x)
            fd = (f.swap_out(x + h) - f.swap_out(x - h)) / (2 * h)
            assert abs(f.real(x)[1] - fd) <= 1e-5 * abs(fd)
            derivative_checks += 1
    for _ in range(1_000):
        f = _random_piecewise(rng)
        total_cap = f.input_capacity()
        assert f.swap_out(0) == 0
        x = rng.randint(1, total_cap - 1) if total_cap > 1 else 1
        out = f.swap_out(x)
        dx = rng.randint(1, max(1, (total_cap - x) or 1))
        x2 = min(total_cap, x + dx)
        assert out <= f.swap_out(x2)
        half = x // 2
        if half:
            assert (f.swap_out(half) + 1) * x >= out * half
    elapsed = time.perf_counter() - started
    report(1, elapsed < 10.0 and derivative_checks > 5_000,
           f"11,000 randomized swap-property cases "
           f"({derivative_checks} derivative checks) in {elapsed:.1f}s (< 10s)")


def test_criterion_2_findpath_exactness():
    rng = random.Random(0xC2)
    started = time.perf_counter()
    exact = 0
    for _ in range(500):
        n = rng.randint(3, 10)
        m = rng.randint(n - 1, 20)
        g = random_cp_graph(rng, n, m)
        ids = sorted(g.tokens)
        s, t = rng.sample(ids, 2)
        x = rng.randint(10**2, 10**10)
        res = find_path(g, s, t, x, 0.0, 3)
        sims = [simulate_chain(p, x) for p in enumerate_paths_oracle(g, s, t, 3)]
        best = max((v for v in sims if v is not None), default=0)
        if res is None:
            assert best == 0
        else:
            assert res.output == best
        exact += 1
    elapsed = time.perf_counter() - started
    report(2, exact == 500 and elapsed < 30.0,
           f"search equals exhaustive enumeration on {exact}/500 graphs "
           f"in {elapsed:.1f}s (< 30s)")


def test_criterion_3_asgm_vs_grid_oracle():
    rng = random.Random(0xC3)
    started = time.perf_counter()
    worst_ratio = 1.0
    worst_spread = 0.0
    for case in range(200):
        n_paths = 2 + case % 3  # 2, 3, 4 in rotation
        paths = random_disjoint_paths(rng, n_paths)
        x = rng.randint(10**10, 10**12)
        res = asgm(paths, x)
        assert res.converged and not res.degraded
        got = objective(paths, res.allocation.path_weights,
                        res.allocation.edge_weights, x)
        ref = grid_oracle(paths, x, GridSpec(step=0.001)).output
        worst_ratio = min(worst_ratio, got / ref)
        assert got >= 0.9999 * ref
        g = [path_marginals_real(p, res.allocation.edge_weights[i],
                                 res.allocation.path_weights[i] * x)[1]
             for i, p in enumerate(paths)]
        funded = [gi for gi, wi in zip(g, res.allocation.path_weights)
                  if wi > 0.0]
        spread = (max(g) - min(funded)) / max(g)
        worst_spread = max(worst_spread, spread)
        assert spread <= 1.0000001e-6
    elapsed = time.perf_counter() - started
    report(3, elapsed < 60.0,
           f"allocator >= 0.9999x grid oracle on 200 instances "
           f"(worst ratio {worst_ratio:.6f}, worst spread {worst_spread:.2e}) "
           f"in {elapsed:.1f}s (< 60s)")


def test_criterion_4_closed_form_split():
    a, b = closed_form_pair()
    res = asgm([a, b], 30 * WAD)
    w = res.allocation.path_weights
    err = max(abs(w[0] - 1 / 3), abs(w[1] - 2 / 3))
    report(4, res.converged and err <= 1e-4,
           f"two-pool closed form converges to (1/3, 2/3) within {err:.2e} "
           f"(<= 1e-4)")


def test_criterion_5_linear_convergence(monkeypatch):
    a, b = closed_form_pair()
    x = 30 * WAD
    monkeypatch.setattr(allocation, "EPS_REL", 1e-9)
    res = asgm([a, b], x)
    objs = [row.objective for row in res.trace]
    assert objs == sorted(objs), "objective decreased within the trace"
    j_star = grid_oracle([a, b], x, GridSpec(step=0.001)).output
    gaps = [j_star - j for j in objs]
    threshold = 1e-8 * j_star
    hits = [i for i, gap in enumerate(gaps) if gap <= threshold]
    pts = [(i, math.log(gap)) for i, gap in enumerate(gaps) if gap > 0][1:]
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    n = len(pts)
    mx, my = sum(xs) / n, sum(ys) / n
    sxx = sum((v - mx) ** 2 for v in xs)
    slope = sum((u - mx) * (v - my) for u, v in zip(xs, ys)) / sxx
    ss_res = sum((v - (my + slope * (u - mx))) ** 2 for u, v in zip(xs, ys))
    ss_tot = sum((v - my) ** 2 for v in ys)
    r2 = 1.0 - ss_res / ss_tot
    ok = bool(hits) and hits[0] <= 500 and slope < 0 and r2 >= 0.9
    report(5, ok,
           f"gap under 1e-8*J* at iteration {hits[0] if hits else 'never'} "
           f"(<= 500), log-gap fit slope {slope:.3f} < 0, R^2 {r2:.3f} >= 0.9")


def test_criterion_6_prime_dominance_and_soundness():
    rng = random.Random(0xC6)
    checked = 0
    dominated = 0
    clean = 0
    while checked < 300:
        if checked % 2 == 0:
            n = rng.randint(3, 10)
            g = random_cp_graph(rng, n, rng.randint(n, 20))
        else:
            n = rng.randint(4, 14)
            snap = generate_synthetic(rng.randrange(2**31), n,
                                      rng.randint(n, n + 14),
                                      hub_fraction=0.3,
                                      reserve_spread_orders=rng.randint(2, 8))
            g = snap.build_graph()
        ids = sorted(g.tokens)
        s, t = rng.sample(ids, 2)
        x = rng.randint(10**6, 10**12)
        q = RouteQuery(source=s, target=t, amount=x)
        try:
            osp = best_single_path(g, q)
        except NoRouteError:
            continue
        sol = prime(g, q)
        checked += 1
        if sol.total_output >= osp.total_output:
            dominated += 1
        if verify_solution(sol, g).ok:
            clean += 1
    report(6, dominated == 300 and clean == 300,
           f"multi-path output >= best single path on {dominated}/300, "
           f"audit clean on {clean}/300 (pool-disjoint, dust-free)")


def test_criterion_7_scale_latency():
    snap = generate_synthetic(0xC7, 10_000, 25_000, hub_fraction=0.005,
                              reserve_spread_orders=11)
    g = snap.build_graph()
    base = RouteQuery(source=snap.tokens[0].id, target=snap.tokens[1].id,
                      amount=10**18, hub_count=50)
    prepared = prepare_routing(g, base)  # stage-0 artifacts, cached
    rng = random.Random(0xC7)
    pools = [p for p in snap.pools if p.kind == "constant_product"]
    timings = []
    while len(timings) < 5:
        p = pools[rng.randrange(len(pools))]
        amount = max(1, p.reserves[0] // 100)
        q = RouteQuery(source=p.tokens[0], target=p.tokens[1], amount=amount,
                       hub_count=50)
        started = time.perf_counter()
        try:
            sol = prime(g, q, prepared)
        except NoRouteError:
            continue
        timings.append((time.perf_counter() - started) * 1e3)
        assert sol.total_output > 0
    worst = max(timings)
    report(7, worst < 500.0,
           f"10,000 tokens / 25,000 pools, K=50 hubs: worst query "
           f"{worst:.0f} ms over {len(timings)} trades (< 500 ms), "
           f"stage-0 cached")


def _ablate_rows(tmp_path, snap_path, source, target, amount, alphas, betas):
    out_csv = tmp_path / f"ablate_{alphas}_{betas}.csv"
    code = cli_main([
        "bench", "--snapshot", str(snap_path), "--from", source,
        "--to", target, "--amounts", str(amount), "--ablate",
        "--alphas", alphas, "--betas", betas, "--repetitions", "3",
        "--out", str(out_csv),
    ])
    assert code == 0
    with open(out_csv) as fh:
        return list(csv.DictReader(fh))


def test_criterion_8_ablation(tmp_path):
    # two routes with distinct token sequences so they stay separate paths
    # and the sweep exercises the path-weight rebalancing loop
    w = 10**18
    toks = tokens(3)
    pools = [cp_pool("PA", "T0", "T1", 1000 * w, 1100 * w),
             cp_pool("PB", "T0", "T2", 3000 * w, 3000 * w),
             cp_pool("PC", "T2", "T1", 3000 * w, 3100 * w)]
    g = build_graph(toks, pools)
    from prime_router.io import SNAPSHOT_VERSION, Snapshot
    snap = Snapshot(SNAPSHOT_VERSION, "ablation-fixture", tuple(toks),
                    tuple(pools))
    snap_path = tmp_path / "ablate.json"
    save_snapshot(snap, snap_path)
    amount = 500 * w

    beta_rows = _ablate_rows(tmp_path, snap_path, "T0", "T1", amount,
                             "0.0001", "0.5,0.95")
    by_beta = {float(r["beta"]): r for r in beta_rows}
    t_05 = float(by_beta[0.5]["wall_time_ms"])
    t_95 = float(by_beta[0.95]["wall_time_ms"])
    outs = [int(r["output"]) for r in beta_rows]
    beta_gap_bp = 1e4 * (max(outs) - min(outs)) / max(outs)

    alpha_rows = _ablate_rows(tmp_path, snap_path, "T0", "T1", amount,
                              "0.01,0.3,0.9", "0.5")
    a_outs = [int(r["output"]) for r in alpha_rows]
    alpha_gap_bp = 1e4 * (max(a_outs) - min(a_outs)) / max(a_outs)

    ok = t_95 > t_05 and beta_gap_bp <= 0.2 and round(alpha_gap_bp, 2) == 0.0
    report(8, ok,
           f"beta sweep: wall {t_05:.2f} -> {t_95:.2f} ms (strictly up), "
           f"quality gap {beta_gap_bp:.4f} bp (<= 0.2); alpha sweep over "
           f"[0.01, 0.9] changes quality by {alpha_gap_bp:.4f} bp (0 bp)")


def test_criterion_9_shortcut_value():
    w = 10**18
    rng = random.Random(0xC9)
    wins = 0
    for trial in range(3):
        depth = rng.randint(400, 900)
        toks = tokens(3)
        pools = [cp_pool("DIRECT", "T0", "T1", 20 * w, 20 * w, 30),
                 cp_pool("LEG1", "T0", "T2", depth * w, depth * w, 5),
                 cp_pool("LEG2", "T2", "T1", depth * w, (depth + 5) * w, 5)]
        g = build_graph(toks, pools)
        q = dict(source="T0", target="T1", amount=2 * w,
                 explicit_hubs=("T0", "T1"))
        full = prime(g, RouteQuery(**q))
        with mock.patch.object(engine, "build_shortcut_index",
                               return_value=()):
            core = prime(g, RouteQuery(**q))
        assert verify_solution(full, g).ok
        if full.total_output > core.total_output:
            wins += 1
    report(9, wins == 3,
           f"shortcuts strictly out-yield the core-only engine on {wins}/3 "
           f"constructed detour markets")
