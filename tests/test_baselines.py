import itertools
import random

import pytest

from prime_router.allocation import MultiEdgePath, asgm, objective
from prime_router.baselines import (
    GridSpec,
    _FlowState,
    best_single_path,
    grid_oracle,
    prime_flow,
)
from prime_router.cfmm import ConstantProduct
from prime_router.engine import RouteQuery
from prime_router.errors import (
    InvalidParamsError,
    NoRouteError,
    TooManyPathsError,
)
from prime_router.graph import Edge, build_graph

from instances import (
    WAD,
    closed_form_pair,
    cp_pool,
    random_cp_graph,
    random_disjoint_paths,
    single_edge_path,
    tokens,
)


def query(s="T0", t="T1", x=10**6, **kw):
    return RouteQuery(source=s, target=t, amount=x, **kw)


class TestBestSinglePath:
    def test_single_route_graph(self):
        g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 10**9, 10**9)])
        sol = best_single_path(g, query())
        assert sol.total_output == g.edges_between("T0", "T1")[0].fn.swap_out(10**6)
        assert sol.allocation.path_weights == (1.0,)
        assert len(sol.execution_plan) == 1

    def test_picks_larger_pool(self):
        # oracle: simulate both candidates
        g = build_graph(tokens(2), [cp_pool("A", "T0", "T1", 10**6, 10**6),
                                    cp_pool("B", "T0", "T1", 10**9, 10**9)])
        x = 10**5
        sol = best_single_path(g, query(x=x))
        best = max(e.fn.swap_out(x) for e in g.edges_between("T0", "T1"))
        assert sol.total_output == best
        assert sol.execution_plan[0].pool_id == "B"

    def test_disconnected_raises(self):
        g = build_graph(tokens(3), [cp_pool("P0", "T0", "T1", 10, 10)])
        with pytest.raises(NoRouteError):
            best_single_path(g, query(s="T0", t="T2"))


class TestGridOracle:
    def test_two_identical_paths(self):
        p1 = single_edge_path("P0", "S", "T", 10**12, 10**12)
        p2 = single_edge_path("P1", "S", "T", 10**12, 10**12)
        res = grid_oracle([p1, p2], 10**9, GridSpec(step=0.01))
        assert res.weights == (0.5, 0.5)

    def test_closed_form_within_one_grid_step(self):
        a, b = closed_form_pair(scale=10**12)  # keep outputs in exact-float range
        res = grid_oracle([a, b], 30 * 10**12, GridSpec(step=0.001))
        assert res.weights[0] == pytest.approx(1 / 3, abs=0.001 + 1e-9)
        assert res.weights[1] == pytest.approx(2 / 3, abs=0.001 + 1e-9)

    def test_single_path(self):
        p = single_edge_path("P0", "S", "T", 10**12, 10**12)
        res = grid_oracle([p], 10**9, GridSpec(step=0.01))
        assert res.weights == (1.0,)

    def test_matches_naive_enumeration(self):
        # independent oracle for the oracle: brute-force lattice scan
        rng = random.Random(5)
        for _ in range(10):
            paths = random_disjoint_paths(rng, rng.randint(2, 3))
            x = rng.randint(10**8, 10**10)
            spec = GridSpec(step=0.1)
            res = grid_oracle(paths, x, spec)
            n = spec.resolution
            best = None
            hw = [[(1.0,)] * len(p.hops) for p in paths]
            for ks in itertools.product(range(n + 1), repeat=len(paths) - 1):
                if sum(ks) > n:
                    continue
                full = list(ks) + [n - sum(ks)]
                w = tuple(k / n for k in full)
                out = objective(paths, w, hw, x)
                key = (-out, w)
                if best is None or key < best[0]:
                    best = (key, out)
            assert res.output == best[1]

    def test_refinement_never_hurts(self):
        rng = random.Random(6)
        paths = random_disjoint_paths(rng, 3)
        x = 10**10
        outs = [grid_oracle(paths, x, GridSpec(step=s)).output
                for s in (0.01, 0.005, 0.001)]
        assert outs[0] <= outs[1] <= outs[2]

    def test_interior_optimum_prices_nearly_equal(self):
        # empirical optimality condition at the grid optimum
        from prime_router.allocation import path_marginal_real
        a, b = closed_form_pair(scale=10**12)
        x = 30 * 10**12
        res = grid_oracle([a, b], x, GridSpec(step=0.001))
        g = [path_marginal_real(p, res.edge_weights[i], res.weights[i] * x)
             for i, p in enumerate((a, b))]
        # one grid step moves each share by x/1000; bound the price change
        assert abs(g[0] - g[1]) / max(g) < 0.01

    def test_too_many_paths_guard(self):
        rng = random.Random(7)
        paths = random_disjoint_paths(rng, 4)
        with pytest.raises(TooManyPathsError):
            grid_oracle(paths, 10**9, GridSpec(step=0.1, max_paths=3))

    def test_step_validation(self):
        with pytest.raises(InvalidParamsError):
            GridSpec(step=0.3)
        with pytest.raises(InvalidParamsError):
            GridSpec(step=0.00031)

    def test_asgm_beats_grid_with_margin(self):
        rng = random.Random(8)
        for _ in range(10):
            paths = random_disjoint_paths(rng, rng.randint(2, 4))
            x = rng.randint(10**9, 10**11)
            res = asgm(paths, x)
            got = objective(paths, res.allocation.path_weights,
                            res.allocation.edge_weights, x)
            ref = grid_oracle(paths, x, GridSpec(step=0.001)).output
            assert got >= 0.9999 * ref


class TestPrimeFlow:
    def test_single_route_matches_osp(self):
        g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 10**9, 10**9)])
        q = query()
        flow = prime_flow(g, q)
        osp = best_single_path(g, q)
        assert flow.total_output == osp.total_output
        assert flow.disjoint is False

    def test_symmetric_pools_split_evenly(self):
        g = build_graph(tokens(2), [cp_pool("A", "T0", "T1", 10**18, 10**18),
                                    cp_pool("B", "T0", "T1", 10**18, 10**18)])
        q = query(x=10**15)
        flow = prime_flow(g, q)
        assert len(flow.paths) == 2
        assert flow.allocation.path_weights[0] == pytest.approx(0.5, abs=1e-4)

    def test_never_below_single_path(self):
        rng = random.Random(9)
        for _ in range(15):
            n = rng.randint(3, 8)
            g = random_cp_graph(rng, n, rng.randint(n, 16))
            ids = sorted(g.tokens)
            s, t = rng.sample(ids, 2)
            x = rng.randint(10**4, 10**8)
            q = query(s=s, t=t, x=x)
            try:
                osp = best_single_path(g, q)
            except NoRouteError:
                continue
            flow = prime_flow(g, q)
            assert flow.total_output >= osp.total_output

    def test_disconnected_raises(self):
        g = build_graph(tokens(3), [cp_pool("P0", "T0", "T1", 10, 10)])
        with pytest.raises(NoRouteError):
            prime_flow(g, query(s="T0", t="T2"))

    def test_flow_state_copies_only_swapped_pools(self):
        g = build_graph(tokens(3), [cp_pool("A", "T0", "T1", 10**9, 10**9),
                                    cp_pool("B", "T1", "T2", 10**9, 10**9)])
        state = _FlowState(g)
        out = state.swap("A", "T0", "T1", 10**6)
        assert out == g.edges_between("T0", "T1")[0].fn.swap_out(10**6)
        view = state.graph_view()
        assert view.pools["B"] is g.pools["B"]
        assert view.pools["A"].reserves == (10**9 + 10**6, 10**9 - out)
        assert g.pools["A"].reserves == (10**9, 10**9)
        state.reset()
        assert state.graph_view().pools["A"] is g.pools["A"]

    def test_tracks_prime_within_basis_points_at_higher_cost(self):
        # oracle: direct comparison run.  On arbitraged markets (route rates
        # within a few bp of parity) the relaxed variant and the disjoint
        # engine agree to basis points, with the relaxed one burning far more
        # evaluations.  Badly mispriced markets are a different regime: the
        # marginal-price augmentation then hoovers up arbitrage the stricter
        # average-rate gate skips, so parity is only claimed near parity.
        from prime_router.engine import prime

        rng = random.Random(31)
        w = 10**18
        for trial in range(8):
            base = rng.randint(3000, 9000)
            toks = tokens(3)
            pools = [
                cp_pool("PA", "T0", "T1", base * w,
                        int(base * w * rng.uniform(1.000, 1.002)), 30),
                cp_pool("PB", "T0", "T1", 2 * base * w,
                        int(2 * base * w * rng.uniform(1.000, 1.002)), 30),
                cp_pool("PC", "T0", "T2", 4 * base * w,
                        int(4 * base * w * rng.uniform(1.000, 1.001)), 5),
                cp_pool("PD", "T2", "T1", 4 * base * w,
                        int(4 * base * w * rng.uniform(1.000, 1.001)), 5),
            ]
            g = build_graph(tokens(3), pools)
            q = query(s="T0", t="T1", x=base * w // 20)
            flow = prime_flow(g, q)
            full = prime(g, q)
            bp = 1e4 * (flow.total_output - full.total_output) / full.total_output
            assert abs(bp) <= 5.0, f"trial {trial}: diverged by {bp:.2f} bp"
            # flow's ternary evaluations dwarf the allocator's iterations
            assert flow.stats.asgm_iterations > full.stats.asgm_iterations
