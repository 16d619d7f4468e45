import hashlib
import json
import logging
import os
import random
import re
import subprocess
import sys
from pathlib import Path

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prime_router import allocation, baselines, engine, pathfind
from prime_router.allocation import (
    asgm,
    objective,
    path_marginals_real,
    single_to_multi,
)
from prime_router.baselines import best_single_path
from prime_router.cfmm import Segment, SequentialComposite
from prime_router.engine import (
    PlanStep,
    RouteQuery,
    merge_and_expand,
    prepare_routing,
    prime,
    verify_solution,
)
from prime_router.errors import InvalidParamsError, NoRouteError
from prime_router.graph import (
    KIND_PIECEWISE,
    Pool,
    PoolDirection,
    SwapGraph,
    build_graph,
)
from prime_router.io import generate_synthetic, solution_to_dict
from prime_router.pathfind import find_path

from instances import by_pair, cp_pool, random_cp_graph, tokens


def query(s, t, x, **kw):
    return RouteQuery(source=s, target=t, amount=x, **kw)


def fallback_market():
    """Two routes: a deep pool and a deeper two-hop detour at a lower spot
    rate; an allocator stuck at the even split loses to the first."""
    w = 10**18
    g = build_graph(tokens(3), [
        cp_pool("A", "T0", "T1", 1000 * w, 1000 * w),
        cp_pool("B", "T0", "T2", 10**6 * w, 10**6 * w),
        cp_pool("C", "T2", "T1", 10**6 * w, 86 * 10**4 * w)])
    return g, 100 * w


class TestPrime:
    def test_single_route(self):
        g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 10**12, 10**12)])
        sol = prime(g, query("T0", "T1", 10**9))
        assert sol.total_output == g.edges_between("T0", "T1")[0].fn.swap_out(10**9)
        assert len(sol.paths) == 1
        assert sol.allocation.path_weights == (1.0,)
        assert verify_solution(sol, g).ok

    def test_symmetric_pools_split_evenly(self):
        g = build_graph(tokens(2), [cp_pool("A", "T0", "T1", 10**20, 10**20),
                                    cp_pool("B", "T0", "T1", 10**20, 10**20)])
        x = 10**18
        sol = prime(g, query("T0", "T1", x))
        # both pools execute half the input: they merged into one 2-edge hop
        assert len(sol.execution_plan) == 2
        amounts = sorted(st.amount_in for st in sol.execution_plan)
        assert amounts == [x // 2, x // 2]
        assert verify_solution(sol, g).ok

    def test_no_route(self):
        g = build_graph(tokens(3), [cp_pool("P0", "T0", "T1", 10, 10)])
        with pytest.raises(NoRouteError):
            prime(g, query("T0", "T2", 100))
        with pytest.raises(NoRouteError):
            prime(g, query("T0", "T9", 100))

    def test_dominates_single_path_randomized(self):
        rng = random.Random(42)
        for _ in range(40):
            n = rng.randint(3, 8)
            g = random_cp_graph(rng, n, rng.randint(n, 16))
            ids = sorted(g.tokens)
            s, t = rng.sample(ids, 2)
            x = rng.randint(10**4, 10**9)
            q = query(s, t, x)
            try:
                osp = best_single_path(g, q)
            except NoRouteError:
                with pytest.raises(NoRouteError):
                    prime(g, q)
                continue
            assert verify_solution(osp, g).ok
            sol = prime(g, q)
            assert sol.total_output >= osp.total_output
            report = verify_solution(sol, g)
            assert report.ok, report.violations

    def test_stage1_tau_monotone_on_splitting_market(self):
        # a trade deep into saturation admits several paths: the equalized
        # marginal falls quadratically with size while average rates fall
        # linearly, so successive candidates keep clearing the threshold
        w = 10**18
        toks = tokens(2)
        pools = [cp_pool("PA", "T0", "T1", 1000 * w, 1100 * w),
                 cp_pool("PB", "T0", "T1", 800 * w, 810 * w),
                 cp_pool("PC", "T0", "T1", 600 * w, 590 * w)]
        g = build_graph(toks, pools)
        sol = prime(g, query("T0", "T1", 10000 * w))
        taus = sol.stats.stage1_taus
        assert len(taus) == 3
        for a, b in zip(taus, taus[1:]):
            assert b >= a * (1.0 - 1e-9)
        objs = sol.stats.stage1_objectives
        assert objs == sorted(objs)
        assert verify_solution(sol, g).ok

    def test_stage1_bounds_randomized(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(4, 9)
            g = random_cp_graph(rng, n, rng.randint(n, 18))
            q = query("T0", f"T{n-1}", 10**9)
            try:
                sol = prime(g, q)
            except NoRouteError:
                continue
            assert sol.stats.paths_discovered >= 1
            # each accepted path consumes at least one pool
            assert sol.stats.find_path_calls <= len(g.pools) + 1
            bound = max(1, sol.stats.paths_discovered) * len(g.tokens) * g.edge_count
            assert sol.stats.queue_pushes <= bound
            taus = sol.stats.stage1_taus
            for a, b in zip(taus, taus[1:]):
                assert b >= a * (1.0 - 1e-9)

    def test_plan_replays_exactly(self):
        rng = random.Random(23)
        g = random_cp_graph(rng, 7, 14)
        sol = prime(g, query("T0", "T6", 10**9))
        total = 0
        balances = {"T0": 10**9}
        for step in sol.execution_plan:
            edge = next(e for e in g.edges_between(step.token_in, step.token_out)
                        if e.pool_id == step.pool_id)
            assert edge.fn.swap_out(step.amount_in) == step.min_out
            balances[step.token_in] = balances.get(step.token_in, 0) - step.amount_in
            balances[step.token_out] = balances.get(step.token_out, 0) + step.min_out
        assert balances["T6"] == sol.total_output
        for tok, bal in balances.items():
            if tok != "T6":
                assert bal == 0

    def test_reallocating_over_a_saturated_piecewise_pool(self):
        # the allocator probes the piecewise pool at float(input_capacity()),
        # which the rounded segment offsets carry past its last segment
        a, b = 161324352732870180864, 201206890577582882816
        segs = (Segment(a, 10**21, 10**21), Segment(b, 2 * 10**21, 10**21))
        pw = Pool("PW", KIND_PIECEWISE, ("T0", "T1"), 0, directions=(
            PoolDirection("T0", "T1", segs), PoolDirection("T1", "T0", segs)))
        g = build_graph(tokens(2), [pw, cp_pool("CP", "T0", "T1",
                                                10**24, 10**24)])
        x = 4 * (a + b)
        sol = prime(g, query("T0", "T1", x))
        assert verify_solution(sol, g).ok
        res = asgm(list(sol.paths), x)
        assert res.trace[-1].objective > 0

    def test_cold_reallocation_matches_the_warm_solve(self):
        # the market above: a cold allocator run over the final paths used
        # to stall, degraded, at 0.909x of the output of the warm solve,
        # because the parallel edges it could not move off were saturated
        a, b = 161324352732870180864, 201206890577582882816
        segs = (Segment(a, 10**21, 10**21), Segment(b, 2 * 10**21, 10**21))
        pw = Pool("PW", KIND_PIECEWISE, ("T0", "T1"), 0, directions=(
            PoolDirection("T0", "T1", segs), PoolDirection("T1", "T0", segs)))
        g = build_graph(tokens(2), [pw, cp_pool("CP", "T0", "T1",
                                                10**24, 10**24)])
        x = 4 * (a + b)
        sol = prime(g, query("T0", "T1", x))
        res = asgm(list(sol.paths), x)
        assert res.converged and not res.degraded
        assert res.trace[-1].objective == sol.total_output

    def test_stats_flag_convergence_and_fallback(self, monkeypatch):
        g, x = fallback_market()
        sol = prime(g, query("T0", "T1", x))
        assert sol.stats.paths_discovered == 2
        assert sol.stats.converged and not sol.stats.fallback
        monkeypatch.setattr(allocation, "DELTA_MIN", 0.3)
        stuck = prime(g, query("T0", "T1", x))
        assert stuck.stats.degraded and not stuck.stats.converged
        assert stuck.stats.fallback
        assert stuck.total_output == \
            g.edges_between("T0", "T1")[0].fn.swap_out(x) < sol.total_output
        assert verify_solution(stuck, g).ok

    def test_leaf_source_offers_its_parallel_pools(self):
        # leaf pruning drops T2, whose three pools all lead to hub T0; stage
        # 2 still widens that hop from the full graph
        w = 10**18
        g = build_graph(tokens(3), [
            *(cp_pool(f"L{i}", "T2", "T0", 10 * w, 10 * w) for i in range(3)),
            cp_pool("H", "T0", "T1", 10**6 * w, 10**6 * w)])
        q = query("T2", "T1", 10 * w, explicit_hubs=("T0", "T1"))
        prep = prepare_routing(g, q)
        assert not prep.pruned.has_token("T2")
        sol = prime(g, q, prep)
        assert {st.pool_id for st in sol.execution_plan} == \
            {"L0", "L1", "L2", "H"}
        assert sol.total_output > 1.4 * best_single_path(g, q).total_output
        assert verify_solution(sol, g).ok

    def test_fallback_is_the_single_path_solution(self, monkeypatch):
        g, x = fallback_market()
        monkeypatch.setattr(allocation, "DELTA_MIN", 0.3)
        q = query("T0", "T1", x)
        found = []
        search = engine.find_path

        def recording(*args, **kw):
            sp = search(*args, **kw)
            found.append(sp)
            return sp

        monkeypatch.setattr(engine, "find_path", recording)
        stuck = prime(g, q)
        assert stuck.stats.fallback
        best = max(found[:stuck.stats.paths_discovered],
                   key=lambda sp: sp.output)
        ref = engine.single_path_solution(best, q, "prime", stuck.stats)
        fields = ("paths", "allocation", "tau", "execution_plan",
                  "total_output")
        for name in fields:
            assert getattr(stuck, name) == getattr(ref, name), name
        # only the funded path is listed, at weight 1.0
        assert stuck.paths == (single_to_multi(best),)
        assert stuck.allocation.path_weights == (1.0,)
        assert verify_solution(stuck, g).ok

        # best_single_path builds its result through the same function
        built = []
        build = engine.single_path_solution

        def spy(*args, **kw):
            built.append(build(*args, **kw))
            return built[-1]

        monkeypatch.setattr(baselines, "single_path_solution", spy)
        osp = baselines.best_single_path(g, q)
        assert len(built) == 1 and built[0] is osp and osp.algorithm == "osp"
        for name in fields:
            assert getattr(osp, name) == getattr(stuck, name), name


def routed_with_stage1_fills(g, q):
    """prime's solution and each stage-1 refresh: (singles, result)."""
    fills = []
    fill = engine._stage1_fill

    def recording(singles, curves, x):
        result = fill(singles, curves, x)
        fills.append((list(singles), result))
        return result

    with mock.patch.object(engine, "_stage1_fill", recording):
        return prime(g, q), fills


def check_stage1_splits(g, q):
    """The stage-1 splits equalize the paths' marginals and are recorded."""
    sol, fills = routed_with_stage1_fills(g, q)
    stats, x = sol.stats, q.amount
    assert len(fills) == stats.paths_discovered == len(stats.stage1_taus) \
        == len(stats.stage1_objectives)
    for (singles, (weights, tau, _)), recorded_tau, recorded_obj in zip(
            fills, stats.stage1_taus, stats.stage1_objectives):
        paths = [single_to_multi(p) for p in singles]
        hop_w = [[(1.0,)] * len(p.hops) for p in paths]
        assert recorded_obj == objective(paths, weights, hop_w, x)
        assert recorded_tau == tau
        funded = [path_marginals_real(p, hw, w * x)[1]
                  for p, hw, w in zip(paths, hop_w, weights) if w > 0.0]
        assert max(funded) - min(funded) <= 1e-9 * max(funded)
        assert abs(tau - max(funded)) <= 1e-9 * tau
        for sp, w in zip(singles, weights):
            if w == 0.0:
                assert sp.spot_rate <= tau * (1.0 + 1e-9)
    # stage 1 solves the real objective exactly, so no cold allocator split
    # beats it there; on the integer objective, swap rounding can put a
    # nearby split a few units ahead
    singles, (weights, _, _) = fills[-1]
    curves = [SequentialComposite(tuple(e.fn for e in sp.edges))
              for sp in singles]
    res = asgm([single_to_multi(p) for p in singles], x)

    def real_output(path_weights):
        return sum(c.real(w * x)[0] for c, w in zip(curves, path_weights))

    assert real_output(weights) >= \
        real_output(res.allocation.path_weights) * (1.0 - 1e-9)
    assert verify_solution(sol, g).ok
    return sol


class TestStage1Split:
    # few tokens, many pools and trades near the pools' depth: about half
    # of these markets admit more than one path
    @given(st.integers(0, 2**32), st.integers(2, 5), st.integers(4, 16),
           st.integers(9, 12))
    # the cold allocator's integer objective came out 15 units (2.7e-9)
    # above stage 1's here
    @example(seed=53, n=5, extra=5, digits=9)
    @settings(max_examples=60, deadline=None)
    def test_split_equalizes_marginals(self, seed, n, extra, digits):
        g = random_cp_graph(random.Random(seed), n, n - 1 + extra)
        try:
            check_stage1_splits(g, query("T0", f"T{n - 1}", 10**digits))
        except NoRouteError:
            pass

    def test_piecewise_path(self):
        # a two-segment pool feeding a deep pool, next to a direct pool:
        # the split crosses into the piecewise pool's second segment
        w = 10**18
        segs = (Segment(100 * w, 1000 * w, 1000 * w),
                Segment(10**4 * w, 1000 * w, 800 * w))
        pw = Pool("PW", KIND_PIECEWISE, ("T0", "T1"), 0, directions=(
            PoolDirection("T0", "T1", segs), PoolDirection("T1", "T0", segs)))
        g = build_graph(tokens(3), [
            pw, cp_pool("D", "T1", "T2", 10**6 * w, 10**6 * w),
            cp_pool("A", "T0", "T2", 1000 * w, 950 * w)])
        sol = check_stage1_splits(g, query("T0", "T2", 300 * w))
        assert sol.stats.paths_discovered == 2

    def test_failed_fill_puts_the_amount_on_the_best_path(self, monkeypatch):
        # the splitting market of test_stage1_tau_monotone_on_splitting_market
        w = 10**18
        g = build_graph(tokens(2), [
            cp_pool("PA", "T0", "T1", 1000 * w, 1100 * w),
            cp_pool("PB", "T0", "T1", 800 * w, 810 * w),
            cp_pool("PC", "T0", "T1", 600 * w, 590 * w)])
        q = query("T0", "T1", 10000 * w)
        monkeypatch.setattr(engine, "water_fill", lambda hop, amount: None)
        sol = prime(g, q)
        best = best_single_path(g, q).total_output
        assert sol.stats.stage1_objectives == \
            [best] * sol.stats.paths_discovered
        assert sol.total_output >= best
        assert verify_solution(sol, g).ok

    def test_one_allocator_call_per_query(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            result = asgm(*args, **kwargs)
            calls.append(result.iterations)
            return result

        monkeypatch.setattr(engine, "asgm", counting)
        g, prep, queries = golden_queries()
        routed = 0
        for q in queries:
            calls.clear()
            try:
                sol = prime(g, q, prep)
            except NoRouteError:
                assert calls == []
                continue
            routed += 1
            assert calls == [sol.stats.asgm_iterations]
        assert routed > 0


# a hub core without edges: merge_and_expand offers no shortcut
EMPTY_CORE = SwapGraph({}, {}, ())


class TestMergeAndExpand:
    def _paths(self, g, s, t, x, count):
        used = set()
        singles = []
        for _ in range(count):
            found = find_path(g, s, t, x, 0.0, 3, frozenset(used))
            if found is None:
                break
            singles.append(found)
            used.update(found.pool_ids)
        return singles, used

    def test_identical_token_sequences_merge(self):
        toks = tokens(4)
        pools = [cp_pool("P1", "T0", "T2", 10**9, 10**9),
                 cp_pool("P2", "T0", "T2", 10**9, 10**9),
                 cp_pool("P3", "T2", "T1", 10**9, 10**9),
                 cp_pool("P4", "T2", "T1", 10**9, 10**9)]
        g = build_graph(toks, pools)
        singles, used = self._paths(g, "T0", "T1", 10**6, 2)
        assert len(singles) == 2
        paths, init_w = merge_and_expand(singles, [0.5, 0.5], g, EMPTY_CORE,
                                         used)
        assert len(paths) == 1
        assert {e.pool_id for e in paths[0].hops[0]} == {"P1", "P2"}
        assert {e.pool_id for e in paths[0].hops[1]} == {"P3", "P4"}

    def test_zero_stage1_weights_split_evenly(self):
        toks = tokens(4)
        pools = [cp_pool("P1", "T0", "T2", 10**9, 10**9),
                 cp_pool("P2", "T0", "T2", 10**9, 10**9),
                 cp_pool("P3", "T2", "T1", 10**9, 10**9),
                 cp_pool("P4", "T2", "T1", 10**9, 10**9)]
        g = build_graph(toks, pools)
        singles, used = self._paths(g, "T0", "T1", 10**6, 2)
        paths, init_w = merge_and_expand(singles, [0.0, 0.0], g, EMPTY_CORE,
                                         used)
        assert len(paths) == 1
        assert init_w == [[[0.5, 0.5], [0.5, 0.5]]]

    def test_expansion_appends_unused_pool_at_zero_weight(self):
        toks = tokens(2)
        pools = [cp_pool("A", "T0", "T1", 10**9, 10**9),
                 cp_pool("B", "T0", "T1", 10**6, 10**6)]
        g = build_graph(toks, pools)
        singles, used = self._paths(g, "T0", "T1", 10**5, 1)
        paths, init_w = merge_and_expand(singles, [1.0], g, EMPTY_CORE, used)
        hop = paths[0].hops[0]
        assert [e.pool_id for e in hop] == ["A", "B"]
        assert init_w[0][0] == [1.0, 0.0]
        assert "B" in used

    def test_used_pool_not_added(self):
        toks = tokens(2)
        pools = [cp_pool("A", "T0", "T1", 10**9, 10**9),
                 cp_pool("B", "T0", "T1", 10**6, 10**6)]
        g = build_graph(toks, pools)
        singles, used = self._paths(g, "T0", "T1", 10**5, 1)
        used.add("B")  # consumed elsewhere in the solution
        paths, _ = merge_and_expand(singles, [1.0], g, EMPTY_CORE, used)
        assert [e.pool_id for e in paths[0].hops[0]] == ["A"]


class TestVerifySolution:
    def test_flags_double_spent_pool(self):
        g = build_graph(tokens(2), [cp_pool("A", "T0", "T1", 10**9, 10**9)])
        sol = prime(g, query("T0", "T1", 10**6))
        bad_step = sol.execution_plan[0]
        object.__setattr__  # keep linters quiet; dataclass is frozen
        doubled = sol
        doubled.execution_plan = sol.execution_plan + (bad_step,)
        report = verify_solution(doubled, g)
        assert any("more than once" in v for v in report.violations)

    def test_flags_conservation_shortfall(self):
        g = build_graph(tokens(2), [cp_pool("A", "T0", "T1", 10**9, 10**9)])
        sol = prime(g, query("T0", "T1", 10**6))
        step = sol.execution_plan[0]
        short = PlanStep(step.pool_id, step.token_in, step.token_out,
                         step.amount_in - 1, step.min_out)
        sol.execution_plan = (short,)
        report = verify_solution(sol, g)
        assert not report.ok
        assert any("residual" in v for v in report.violations)

    def test_flags_wrong_min_out(self):
        g = build_graph(tokens(2), [cp_pool("A", "T0", "T1", 10**9, 10**9)])
        sol = prime(g, query("T0", "T1", 10**6))
        step = sol.execution_plan[0]
        sol.execution_plan = (PlanStep(step.pool_id, step.token_in,
                                       step.token_out, step.amount_in,
                                       step.min_out + 1),)
        report = verify_solution(sol, g)
        assert any("re-simulated" in v for v in report.violations)

    def test_flags_step_through_a_pool_off_its_pair(self):
        # pool B joins T0 and T2, not the step's T0 -> T1
        g = build_graph(tokens(3), [cp_pool("A", "T0", "T1", 10**9, 10**9),
                                    cp_pool("B", "T0", "T2", 10**9, 10**9)])
        sol = prime(g, query("T0", "T1", 10**6))
        step = sol.execution_plan[0]
        sol.execution_plan = (PlanStep("B", step.token_in, step.token_out,
                                       step.amount_in, step.min_out),)
        report = verify_solution(sol, g)
        assert report.violations == (
            "step 0: no edge T0->T1 in pool 'B'",
            "residual 1000000 of 'T0' stranded",
            f"replayed output 0 != reported {sol.total_output}")


class TestShortcuts:
    def build_detour_market(self):
        # direct hub pool is shallow; the best route detours via non-hub T2
        toks = tokens(3)
        pools = [cp_pool("DIRECT", "T0", "T1", 10**7, 10**7),
                 cp_pool("LEG1", "T0", "T2", 10**12, 10**12),
                 cp_pool("LEG2", "T2", "T1", 10**12, 10**12)]
        return build_graph(toks, pools)

    def test_shortcut_strictly_beats_core_only(self):
        g = self.build_detour_market()
        x = 10**6
        base = dict(explicit_hubs=("T0", "T1"), max_hops=3)
        with_sc = prime(g, query("T0", "T1", x, **base))
        with mock.patch.object(engine, "build_shortcut_index",
                               return_value=()):
            core_only = prime(g, query("T0", "T1", x, **base))
        assert with_sc.total_output > core_only.total_output
        assert verify_solution(with_sc, g).ok
        # the winning plan routes through the composite's member pools
        used = {st.pool_id for st in with_sc.execution_plan}
        assert {"LEG1", "LEG2"} & used

    @pytest.mark.parametrize("change", [
        dict(explicit_hubs=("T0", "T1", "T2")),
        dict(hub_count=2),
    ], ids=["change1", "change2"])
    def test_prepared_routing_rejects_other_stage0_config(self, change):
        # a stage 0 built on hubs T0, T1 would silently route a query that
        # asks for other hub settings over its own core
        g = self.build_detour_market()
        base = dict(explicit_hubs=("T0", "T1"))
        prep = prepare_routing(g, query("T0", "T1", 10**6, **base))
        q = query("T0", "T1", 10**6, **{**base, **change})
        with pytest.raises(InvalidParamsError, match="stage 0"):
            prime(g, q, prep)

    def test_prepared_routing_rejects_another_graph(self):
        # an equal copy of the market is still another graph: the plan
        # would name edges of the graph stage 0 was built from
        g = self.build_detour_market()
        q = query("T0", "T1", 10**6, explicit_hubs=("T0", "T1"))
        prep = prepare_routing(self.build_detour_market(), q)
        with pytest.raises(InvalidParamsError, match="another graph"):
            prime(g, q, prep)
        assert prime(g, q, prepare_routing(g, q)).total_output > 0

    def test_prepare_routing_logs_stage0(self, caplog):
        # the detour market plus a leaf token T3; stage 0 prunes nothing, so
        # the line reports no prune; the core is DIRECT both ways plus the
        # two shortcuts
        g = build_graph(tokens(4), list(self.build_detour_market().pools.values())
                        + [cp_pool("LEAF", "T0", "T3", 10**9, 10**9)])
        q = query("T0", "T1", 10**6, explicit_hubs=("T0", "T1"))
        with caplog.at_level(logging.DEBUG, logger="prime_router.engine"):
            prepare_routing(g, q)
        (msg,) = [r.getMessage() for r in caplog.records
                  if r.getMessage().startswith("prepared routing")]
        assert re.fullmatch(r"prepared routing: 2 hubs, 2 shortcuts, 4 core "
                            r"edges; hubs \d+\.\d{3}s, shortcuts "
                            r"\d+\.\d{3}s, core rows \d+\.\d{3}s", msg)

    def test_stage2_offers_the_index_shortcut_object(self):
        # DIRECT with a fee prices below the detour, so stage 2 offers the
        # shortcut on the hop DIRECT's path takes
        pools = dict(self.build_detour_market().pools)
        pools["DIRECT"] = cp_pool("DIRECT", "T0", "T1", 10**7, 10**7, fee=30)
        g = build_graph(tokens(3), list(pools.values()))
        x = 10**6
        prep = prepare_routing(g, query("T0", "T1", x,
                                        explicit_hubs=("T0", "T1")))
        (sc,) = by_pair(prep.shortcut_index)[("T0", "T1")]
        direct = find_path(g, "T0", "T1", x, 0.0, 1)
        used = set(direct.pool_ids)
        paths, _ = merge_and_expand([direct], [1.0], g, prep.core, used)
        (offered,) = [e for e in paths[0].hops[0] if e.legs]
        assert offered is sc
        # the hub core the search walks holds the same object
        assert any(e is sc for e in prep.core.edges_between("T0", "T1"))

    def test_stage2_offers_the_best_ranked_shortcut(self):
        # two detours beat DIRECT; the better one runs through the pools
        # whose ids sort last, so only the core's spot order picks it
        g = build_graph(tokens(4), [
            cp_pool("DIRECT", "T0", "T1", 10**7, 10**7, fee=30),
            cp_pool("A1", "T0", "T3", 10**12, 10**12, fee=5),
            cp_pool("A2", "T3", "T1", 10**12, 10**12),
            cp_pool("Z1", "T0", "T2", 10**12, 10**12),
            cp_pool("Z2", "T2", "T1", 10**12, 10**12)])
        x = 10**6
        prep = prepare_routing(g, query("T0", "T1", x,
                                        explicit_hubs=("T0", "T1")))
        ranked = [e for e in prep.core.edges_between("T0", "T1") if e.legs]
        assert [e.pool_id for e in ranked] == ["sc:T0>T1:0", "sc:T0>T1:1"]
        assert [e.pool_ids for e in ranked] == [("Z1", "Z2"), ("A1", "A2")]
        assert ranked[0].spot > ranked[1].spot > g.edges_between(
            "T0", "T1")[0].spot
        direct = find_path(g, "T0", "T1", x, 0.0, 1)
        paths, _ = merge_and_expand([direct], [1.0], g, prep.core,
                                    set(direct.pool_ids))
        (offered,) = [e for e in paths[0].hops[0] if e.legs]
        assert offered.pool_id == "sc:T0>T1:0"

    def test_stage2_skips_a_shortcut_through_a_token_on_the_path(self):
        # the path T0 -DIRECT-> T1 -EXIT-> T2 passes T2, the interior token
        # of the shortcut T0 -LEG1-> T2 -LEG2-> T1, so stage 2 must not
        # offer it on hop T0 -> T1, though it beats DIRECT and its pools are
        # free (the other shortcut through T2 runs through the used EXIT)
        pools = dict(self.build_detour_market().pools)
        pools["DIRECT"] = cp_pool("DIRECT", "T0", "T1", 10**7, 10**7, fee=30)
        pools["EXIT"] = cp_pool("EXIT", "T1", "T2", 10**9, 10**9)
        g = build_graph(tokens(3), list(pools.values()))
        x = 10**6
        prep = prepare_routing(g, query("T0", "T1", x,
                                        explicit_hubs=("T0", "T1")))
        detour = [e for e in prep.core.edges_between("T0", "T1")
                  if e.pool_ids == ("LEG1", "LEG2")]
        assert len(detour) == 1
        assert detour[0].spot > g.edges_between("T0", "T1")[0].spot
        through = find_path(g, "T0", "T2", x, 0.0, 2,
                            frozenset({"LEG1", "LEG2"}))
        assert through.tokens == ("T0", "T1", "T2")
        paths, _ = merge_and_expand([through], [1.0], g, prep.core,
                                    set(through.pool_ids))
        assert not any(e.legs for hop in paths[0].hops for e in hop)
        # the same hop on a path that ends at T1 is offered a shortcut
        direct = find_path(g, "T0", "T1", x, 0.0, 1)
        paths, _ = merge_and_expand([direct], [1.0], g, prep.core,
                                    set(direct.pool_ids))
        (offered,) = [e for e in paths[0].hops[0] if e.legs]
        assert offered.legs[1].token_in == "T2"

    @pytest.mark.parametrize("shortcuts", [True, False], ids=["sc", "no_sc"])
    @pytest.mark.parametrize("seed", [3, 13])
    def test_core_rows_are_hub_edges_and_shortcuts(self, seed, shortcuts,
                                                   monkeypatch):
        g = generate_synthetic(seed, 60, 200, hub_fraction=0.2,
                               reserve_spread_orders=4).build_graph()
        ids = sorted(g.tokens)
        if not shortcuts:
            monkeypatch.setattr(engine, "build_shortcut_index",
                                lambda g, hubs: ())
        prep = prepare_routing(g, query(ids[0], ids[1], 1, hub_count=8))
        built = by_pair(prep.shortcut_index)
        assert (len(built) > 0) == shortcuts
        mixed = 0
        for h in prep.hubs:
            want = []
            for v in sorted(set(prep.hubs) - {h}):
                edges = list(g.edges_between(h, v))
                edges.extend(built.get((h, v), ()))
                edges.sort(key=lambda e: (-e.spot, e.pool_id))
                if edges:
                    want.append((v, [id(e) for e in edges]))
                    mixed += len({bool(e.legs) for e in edges}) == 2
            got = [(v, [id(e) for e in c]) for v, c in prep.core.out_items(h)]
            assert got == want
        # some pair holds both pools and shortcuts
        assert (mixed > 0) == shortcuts

    def test_prepared_routing_reusable(self):
        g = self.build_detour_market()
        q = query("T0", "T1", 10**6, explicit_hubs=("T0", "T1"))
        prep = prepare_routing(g, q)
        a = prime(g, q, prep)
        b = prime(g, q, prep)
        assert a.total_output == b.total_output
        assert a.execution_plan == b.execution_plan


class TestRouteQuery:
    @pytest.mark.parametrize("name", ["amount", "max_hops", "hub_count"])
    @pytest.mark.parametrize("value", [True, 1.5, "3"])
    def test_non_int_count_is_a_type_error(self, name, value):
        fields = dict(source="T0", target="T1", amount=10**6)
        fields[name] = value
        with pytest.raises(TypeError, match=f"^{name} must be an int, got "
                                            f"{type(value).__name__}$"):
            RouteQuery(**fields)

    @pytest.mark.parametrize("change,message", [
        ({"target": "T0"}, "source and target must differ"),
        ({"amount": 0}, "amount must be positive"),
        ({"amount": -1}, "amount must be positive"),
        ({"max_hops": 0}, "max_hops must be >= 1"),
    ], ids=["same_endpoints", "zero_amount", "negative_amount", "no_hops"])
    def test_out_of_range_field_is_rejected(self, change, message):
        fields = {"source": "T0", "target": "T1", "amount": 10**6, **change}
        with pytest.raises(ValueError, match=f"^{message}$"):
            RouteQuery(**fields)


# sha256 of prime_results_digest's stats-free results, pinned when stage 2
# began widening hops from the full graph, so that a leaf endpoint's
# parallel pools are offered (3 of the 32 outputs rose, none fell): the
# work counters under "stats" may change, the routes may not
PRIME_GOLDEN_SHA256 = \
    "1593b79f9e730c58eb8cfb6db8ca86e097092e794d2ed6fc0913264683ab83eb"


def golden_queries():
    """A small market, its stage 0 and 32 seeded queries; several split."""
    snap = generate_synthetic(13, 40, 140, hub_fraction=0.2,
                              reserve_spread_orders=3)
    g = snap.build_graph()
    ids = sorted(g.tokens)
    prep = prepare_routing(g, query(ids[0], ids[1], 1, hub_count=8))
    rng = random.Random(9)
    queries = []
    for _ in range(32):
        s, t = rng.sample(ids, 2)
        queries.append(query(s, t, 10**rng.randint(22, 27), hub_count=8))
    return g, prep, queries


def prime_results_digest() -> str:
    g, prep, queries = golden_queries()
    digest = hashlib.sha256()
    for q in queries:
        try:
            d = solution_to_dict(prime(g, q, prep))
        except NoRouteError:
            d = {"no_route": [q.source, q.target]}
        d.pop("stats", None)
        digest.update(json.dumps(d, sort_keys=True,
                                 separators=(",", ":")).encode())
    return digest.hexdigest()


class TestQuerySearches:
    def test_one_rate_table_per_query(self, monkeypatch):
        built = []
        rate_table = pathfind._rate_table

        def counting(view, target, max_hops):
            built.append(target)
            return rate_table(view, target, max_hops)

        monkeypatch.setattr(pathfind, "_rate_table", counting)
        g, prep, queries = golden_queries()
        searches = []
        for q in queries:
            built.clear()
            try:
                sol = prime(g, q, prep)
            except NoRouteError:
                continue
            assert built == [q.target]
            searches.append(sol.stats.find_path_calls)
        assert min(searches) >= 2 and max(searches) >= 4

    @pytest.mark.parametrize("hash_seed", ["0", "4242"])
    def test_prime_results_golden(self, hash_seed):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), str(root / "tests"),
                        env.get("PYTHONPATH")) if p)
        code = "import test_engine; print(test_engine.prime_results_digest())"
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == PRIME_GOLDEN_SHA256
