import random

import pytest

from prime_router.allocation import asgm, single_to_multi
from prime_router.baselines import best_single_path
from prime_router.cfmm import Segment
from prime_router.engine import (
    PlanStep,
    RouteQuery,
    ShortcutConfig,
    _degenerate_solution,
    merge_and_expand,
    prepare_routing,
    prime,
    verify_solution,
)
from prime_router.errors import InvalidParamsError, NoRouteError, RoutingError
from prime_router.graph import KIND_PIECEWISE, Pool, PoolDirection, build_graph
from prime_router.pathfind import find_path

from instances import cp_pool, random_cp_graph, tokens


def query(s, t, x, **kw):
    return RouteQuery(source=s, target=t, amount=x, **kw)


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

    def test_lost_discovered_path_raises(self):
        # a real raise, not an assert: this also holds under python -O
        g = build_graph(tokens(2), [cp_pool("A", "T0", "T1", 10**9, 10**9),
                                    cp_pool("B", "T0", "T1", 10**9, 10**9)])
        a, b = (find_path(g, "T0", "T1", 10**6, 0.0, 1, frozenset({pid}))
                for pid in ("B", "A"))
        with pytest.raises(RoutingError, match="lost during merge"):
            _degenerate_solution([single_to_multi(a)], b, 10**6)


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
        paths, init_w = merge_and_expand(singles, [0.5, 0.5], g, None, used,
                                         n_expand=0)
        assert len(paths) == 1
        assert {e.pool_id for e in paths[0].hops[0]} == {"P1", "P2"}
        assert {e.pool_id for e in paths[0].hops[1]} == {"P3", "P4"}

    def test_expansion_appends_unused_pool_at_zero_weight(self):
        toks = tokens(2)
        pools = [cp_pool("A", "T0", "T1", 10**9, 10**9),
                 cp_pool("B", "T0", "T1", 10**6, 10**6)]
        g = build_graph(toks, pools)
        singles, used = self._paths(g, "T0", "T1", 10**5, 1)
        paths, init_w = merge_and_expand(singles, [1.0], g, None, used,
                                         n_expand=2)
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
        paths, _ = merge_and_expand(singles, [1.0], g, None, used, n_expand=2)
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
        core_only = prime(g, query("T0", "T1", x,
                                   shortcuts=ShortcutConfig(enabled=False),
                                   **base))
        assert with_sc.total_output > core_only.total_output
        assert verify_solution(with_sc, g).ok
        # the winning plan routes through the composite's member pools
        used = {st.pool_id for st in with_sc.execution_plan}
        assert {"LEG1", "LEG2"} & used

    @pytest.mark.parametrize("change", [
        dict(shortcuts=ShortcutConfig(enabled=False)),
        dict(explicit_hubs=("T0", "T1", "T2")),
        dict(hub_count=2),
        dict(hub_metric="reserve_mass", numeraire="T0"),
    ])
    def test_prepared_routing_rejects_other_stage0_config(self, change):
        # cold, shortcuts off routes DIRECT; a stage 0 built with shortcuts on
        # would silently route LEG1, LEG2 instead
        g = self.build_detour_market()
        base = dict(explicit_hubs=("T0", "T1"))
        prep = prepare_routing(g, query("T0", "T1", 10**6, **base))
        q = query("T0", "T1", 10**6, **{**base, **change})
        with pytest.raises(InvalidParamsError, match="stage 0"):
            prime(g, q, prep)

    def test_prepared_routing_reusable(self):
        g = self.build_detour_market()
        q = query("T0", "T1", 10**6, explicit_hubs=("T0", "T1"))
        prep = prepare_routing(g, q)
        a = prime(g, q, prep)
        b = prime(g, q, prep)
        assert a.total_output == b.total_output
        assert a.execution_plan == b.execution_plan
