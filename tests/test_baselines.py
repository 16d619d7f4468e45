import itertools
import random

import pytest

from prime_router.allocation import MultiEdgePath, asgm, objective
from prime_router.baselines import best_single_path
from prime_router.cfmm import ConstantProduct
from prime_router.engine import RouteQuery, verify_solution
from prime_router.errors import InvalidParamsError, NoRouteError
from prime_router.graph import Edge, build_graph, prune_leaf_tokens
from prime_router.pathfind import find_path

from instances import (
    WAD,
    closed_form_pair,
    cp_pool,
    random_cp_graph,
    random_disjoint_paths,
    random_mixed_market,
    single_edge_path,
    tokens,
)
from oracles import GridSpec, TooManyPathsError, grid_oracle


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

    @pytest.mark.parametrize("s,t", [("T9", "T1"), ("T0", "T9")],
                             ids=["source", "target"])
    def test_endpoint_not_in_graph_raises(self, s, t):
        g = build_graph(tokens(2), [cp_pool("P0", "T0", "T1", 10, 10)])
        with pytest.raises(NoRouteError,
                           match="^source or target token not in graph$"):
            best_single_path(g, query(s=s, t=t))


class TestCheckerSearchesTheGivenGraph:
    def test_same_route_as_on_the_leaf_pruned_graph(self):
        # a leaf token is a dead end for a simple path, so the checker,
        # which searches the graph as given, returns the path and output of
        # a search of the graph pruned around the query's endpoints; every
        # plan it returns audits clean
        rng = random.Random(0x05B)
        pruned_routes = no_routes = 0
        for trial in range(300):
            if trial % 2:
                g = random_mixed_market(rng)
            else:
                n = rng.randint(2, 12)
                g = random_cp_graph(rng, n, rng.randint(n - 1, 2 * n))
            s, t = rng.sample(sorted(g.tokens), 2)
            q = query(s, t, 10**rng.randint(3, 12),
                      max_hops=rng.randint(1, 4))
            pruned = prune_leaf_tokens(g, {s, t})
            want = find_path(pruned, s, t, q.amount, 0.0, q.max_hops)
            try:
                sol = best_single_path(g, q)
            except NoRouteError:
                assert want is None
                no_routes += 1
                continue
            assert tuple(e for (e,) in sol.paths[0].hops) == want.edges
            assert sol.total_output == want.output
            assert verify_solution(sol, g).ok
            pruned_routes += len(pruned.tokens) < len(g.tokens)
        assert pruned_routes > 80 and no_routes > 50


class TestGridOracle:
    def test_two_identical_paths(self):
        p1 = single_edge_path("P0", "S", "T", 10**12, 10**12)
        p2 = single_edge_path("P1", "S", "T", 10**12, 10**12)
        res = grid_oracle([p1, p2], 10**9, GridSpec(step=0.01))
        assert res.weights == (0.5, 0.5)

    def test_closed_form_within_one_grid_step(self):
        a, b = closed_form_pair(scale=10**12)  # optimum W = (1/3, 2/3)
        res = grid_oracle([a, b], 30 * 10**12, GridSpec(step=0.001))
        assert res.weights[0] == pytest.approx(1 / 3, abs=0.001 + 1e-9)
        assert res.weights[1] == pytest.approx(2 / 3, abs=0.001 + 1e-9)

    def test_single_path(self):
        p = single_edge_path("P0", "S", "T", 10**12, 10**12)
        res = grid_oracle([p], 10**9, GridSpec(step=0.01))
        assert res.weights == (1.0,)

    def test_matches_naive_enumeration(self):
        # independent oracle for the oracle: brute-force lattice scan; the
        # last input's table values exceed 2**50
        rng = random.Random(5)
        cases = [(random_disjoint_paths(rng, rng.randint(2, 3)),
                  rng.randint(10**8, 10**10)) for _ in range(10)]
        cases.append((random_disjoint_paths(rng, 3, lo=10**20, hi=10**22),
                      10**21))
        for paths, x in cases:
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
        assert res.output > 3 * 2**50

    def test_refinement_never_hurts(self):
        rng = random.Random(6)
        paths = random_disjoint_paths(rng, 3)
        x = 10**10
        outs = [grid_oracle(paths, x, GridSpec(step=s)).output
                for s in (0.01, 0.005, 0.001)]
        assert outs[0] <= outs[1] <= outs[2]

    def test_interior_optimum_prices_nearly_equal(self):
        # empirical optimality condition at the grid optimum
        from prime_router.allocation import path_marginals_real
        a, b = closed_form_pair(scale=10**12)
        x = 30 * 10**12
        res = grid_oracle([a, b], x, GridSpec(step=0.001))
        g = [path_marginals_real(p, res.edge_weights[i],
                                 res.weights[i] * x)[1]
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
