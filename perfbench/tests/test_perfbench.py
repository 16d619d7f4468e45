"""The benchmark's own tests: python3 -m pytest perfbench/tests"""

import json
import math
import os
import re
import shutil
import subprocess
import sys

import pytest

from prime_router import engine
from prime_router.pathfind import find_path, simulate_chain

from perfbench import queries as qgen
from perfbench import workloads
from perfbench.tracing import LAYER_METRICS, NO_PARENT, Span, Tracer, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
TINY = workloads.Market(seed=5, tokens=80, pools=220, hub_fraction=0.1,
                        spread_orders=6, hubs=8, max_hops=3)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("market") / "market.json")
    workloads.write_market(TINY, path)
    _, st = workloads.build_stage0(path, TINY)
    return path, st


def _key(queries):
    return [(q.qid, q.source, q.target, q.amount, q.shape) for q in queries]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_query_sets_are_deterministic_per_seed(tiny, name):
    _, st = tiny
    first = workloads.workload_queries(name, st, 7)
    assert len(first) == workloads.SET_SIZE[name]
    assert _key(first) == _key(workloads.workload_queries(name, st, 7))
    # the set is fixed; the seed only orders it
    others = [_key(workloads.workload_queries(name, st, s)) for s in range(8, 16)]
    assert all(sorted(o) == sorted(_key(first)) for o in others)
    assert any(o != _key(first) for o in others)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_pair_is_reachable_within_max_hops(tiny, name):
    _, st = tiny
    hubs = set(st.prepared.hubs)
    for q in workloads.workload_queries(name, st, 3):
        assert 1 <= len(q.witness) <= TINY.max_hops
        assert q.witness[0].token_in == q.source
        assert q.witness[-1].token_out == q.target
        assert simulate_chain(q.witness, q.amount) > 0
        found = find_path(st.prepared.pruned, q.source, q.target, q.amount,
                          0.0, TINY.max_hops)
        assert found is not None and found.output > 0
        if name == "whale":
            assert q.source in hubs and q.target in hubs
        if name == "dominance":
            assert q.source not in hubs and q.target not in hubs


def test_self_time_subtracts_the_direct_children():
    spans = [
        Span("root", 0.0, 10.0, NO_PARENT, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.x", 1.5, 2.0, 1, 1),
        Span("a.y", 2.5, 3.5, 1, 1),
        Span("b", 5.0, 8.0, 0, 1),
        Span("other", 11.0, 12.0, NO_PARENT, 2),
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 3, 3 - 0.5 - 1, 0.5,
                                               1.0, 3.0, 1.0])


def test_output_vs_witness_scores_failures_at_the_floor(tiny):
    _, st = tiny
    q0, q1 = workloads.workload_queries("retail", st, 1)[:2]
    matched = workloads.Outcome(q0, prime_out=qgen.witness_output(q0))
    doubled = workloads.Outcome(q1, prime_out=2 * qgen.witness_output(q1))
    failed = workloads.Outcome(q1, failure="no route on a reachable pair")
    assert workloads.output_vs_witness([matched, doubled]) == \
        pytest.approx(math.sqrt(2.0))
    assert workloads.output_vs_witness([matched, failed]) == \
        pytest.approx(math.sqrt(workloads.FAILED_WITNESS_SHARE))


def test_result_counts_queries_not_calls(tiny):
    _, st = tiny
    q0, q1 = workloads.workload_queries("retail", st, 1)[:2]
    calls = [workloads.Outcome(q0), workloads.Outcome(q1),
             workloads.Outcome(q0, failure="no route on a reachable pair"),
             workloads.Outcome(q0)]
    for passes in (calls[:2], calls):
        res = workloads.result(passes, {}, ())
        assert (res["attempted"], res["failed"]) == \
            (2, 1 if len(passes) > 2 else 0)


def test_metric_names_and_benchmark_json_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    gated = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert gated == list(workloads.GATED_METRICS)
    assert layers == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for name, _ in gated + layers:
        assert NAME.match(name), name


def test_tracer_restores_every_wrapped_call(tiny):
    original = engine.find_path
    with Tracer().installed():
        assert engine.find_path is not original
    assert engine.find_path is original


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tiny_market_smoke_run(tiny, tmp_path, name):
    path, _ = tiny
    result = workloads.run_untraced(name, 1, 0.05, path, TINY)
    assert result["correct"] and result["attempted"] >= 1
    assert 0 <= result["failed"] <= result["attempted"]
    assert [m for m, _ in workloads.GATED_METRICS] == list(result["metrics"])
    assert all(m["value"] > 0 for m in result["metrics"].values())

    spans = tmp_path / "spans.jsonl"
    traced = workloads.run_traced(name, 1, path, TINY, str(spans))
    assert traced["correct"]
    assert [m for m, _ in LAYER_METRICS] == list(traced["metrics"])
    assert all(math.isfinite(m["value"]) for m in traced["metrics"].values())
    assert spans.read_text().count("\n") > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "retail",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
