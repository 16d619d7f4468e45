"""Smoke tests for the scripts under ``scripts/``, so they cannot rot."""

import dataclasses
import importlib.util
import json
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_run_ablation_sweep(tmp_path, capsys):
    ablation = load_script("run_ablation")
    snap = tmp_path / "ablation_fixture.json"
    ablation.save_snapshot(ablation.fixture_snapshot(), snap)
    out = tmp_path / "sweep.csv"
    rows = ablation.run_sweep(snap, out, "0.01,0.1", "0.3,0.5", 1)
    assert out.exists()
    assert [(float(r["alpha"]), float(r["beta"])) for r in rows] == [
        (0.01, 0.3), (0.01, 0.5), (0.1, 0.3), (0.1, 0.5)]
    for r in rows:
        assert int(r["output"]) > 0
        assert float(r["gap_bp"]) >= 0
    ablation.show("sweep", rows)
    assert "alpha" in capsys.readouterr().out


def test_compare_outputs(tmp_path, capsys):
    compare = load_script("compare_outputs")
    compare._import_paths(str(SCRIPTS.parent / "src"))
    from perfbench import workloads
    from perfbench.workloads import Market

    # the market of generate_synthetic(13, 40, 140)
    market = Market(seed=13, tokens=40, pools=140, hub_fraction=0.1,
                    spread_orders=6, hubs=8)
    run = compare.record(market, multiples=(1, 3),
                         sizes={"retail": 5, "whale": 2, "dominance": 2})
    records = run["records"]
    assert len(records) == 2 * (5 + 2 + 2)
    routed = [r for r in records if r["output"] is not None]
    assert routed and all(r["audit"] == "ok" for r in routed)
    # the stage-0 digest is a function of the market alone
    path = tmp_path / "market.json"
    workloads.write_market(market, path)
    _, st = workloads.build_stage0(str(path), market)
    assert compare.stage0_digest(st.prepared) == run["stage0_sha256"]
    # it reads only the hubs and the core rows, which hold every shortcut
    # edge: stage 0 without shortcuts digests differently
    from prime_router import engine
    assert compare.stage0_digest(dataclasses.replace(
        st.prepared, shortcut_index=None)) == run["stage0_sha256"]
    assert len(st.prepared.shortcut_index) > 0
    ids = sorted(st.graph.tokens)
    with mock.patch.object(engine, "build_shortcut_index", return_value=()):
        bare = engine.prepare_routing(st.graph, engine.RouteQuery(
            ids[0], ids[1], 1, hub_count=market.hubs))
    assert bare.hubs == st.prepared.hubs
    assert compare.stage0_digest(bare) != run["stage0_sha256"]
    # each record holds the checker's output, and a digest exactly when it
    # routes
    from prime_router.baselines import best_single_path
    from prime_router.errors import NoRouteError
    for r in records:
        try:
            want = str(best_single_path(st.graph, engine.RouteQuery(
                r["source"], r["target"], int(r["amount"]),
                max_hops=market.max_hops, hub_count=market.hubs)
            ).total_output)
        except NoRouteError:
            want = None
        assert r["osp_output"] == want
        assert (r["osp_sha256"] is None) == (want is None)
    assert any(r["osp_output"] for r in records)
    # below the checker: no route or a lower output where the checker routes
    pairs = [(None, "5"), ("4", "5"), ("5", "5"), ("6", None), (None, None)]
    assert compare.below_osp([{"output": out, "osp_output": osp}
                              for out, osp in pairs]) == 2
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    new.write_text(json.dumps(run))
    assert compare.main(["--load", str(new), "--against", str(new)]) == 0
    out = capsys.readouterr().out
    assert f"equal={len(routed)} risen=0 fallen=0" in out
    assert " work_changed=0 stage0_changed=0 osp_changed=0 " \
        f"below_osp={compare.below_osp(records)} " in out
    # one work line per workload pooled over the multiples, then one per
    # workload and multiple, each the mean over that multiple's records
    lines = [line for line in out.splitlines() if "allocator_steps" in line]
    assert [line.split(":")[0] for line in lines] == [
        f"{name}{label}" for label in ("", " x1", " x3")
        for name in compare.WORKLOADS]
    for multiple in (1, 3):
        table = compare.work_table(records, multiple)
        chosen = [r for r in records
                  if r["key"].endswith(f":x{multiple}") and r["work"]]
        assert sum(t["routed"] for t in table.values()) == len(chosen)
        retail = [r["work"]["queue_pushes"] for r in chosen
                  if r["key"].startswith("retail:")]
        assert table["retail"]["pushes"] == sum(retail) / len(retail)
        pops = [r["work"]["queue_pops"] for r in chosen
                if r["key"].startswith("retail:")]
        assert table["retail"]["pops"] == sum(pops) / len(pops)
        pushes = f"{table['retail']['pushes']:.6g}"
        pops = f"{table['retail']['pops']:.6g}"
        assert f"retail x{multiple}: routed {len(retail)} -> {len(retail)}, " \
            in out and f"pushes {pushes} -> {pushes}, " \
            f"pops {pops} -> {pops}," in out
    assert compare.work_table(records) != compare.work_table(records, 1)
    routed[0]["output"] = str(int(routed[0]["output"]) + 1)
    routed[-1]["work"]["queue_pops"] += 1
    run["stage0_sha256"] = "0" * 64
    old.write_text(json.dumps(run))
    assert compare.main(["--load", str(new), "--against", str(old)]) == 1
    out = capsys.readouterr().out
    assert "fallen=1" in out
    assert " work_changed=1 stage0_changed=1 " in out
    # queue pops are not a count the benchmark bounds
    assert out.splitlines()[0].endswith(" missing=0 work_rose=0")
    # a work key only one side has is listed, not counted as a change
    for r in routed:
        r["work"]["added_count"] = 1
    new.write_text(json.dumps(run))
    for r in routed:
        del r["work"]["added_count"]
        r["work"]["dropped_count"] = 1
    old.write_text(json.dumps(run))
    assert compare.main(["--load", str(new), "--against", str(old)]) == 0
    out = capsys.readouterr().out
    assert " work_changed=0 " in out
    assert "work keys added: added_count; dropped: dropped_count\n" in out
    # a changed checker result fails the comparison
    routed[0]["osp_sha256"] = "0" * 64
    old.write_text(json.dumps(run))
    assert compare.main(["--load", str(new), "--against", str(old)]) == 1
    out = capsys.readouterr().out
    assert " fallen=0 " in out and " audit_failed=0 " in out
    assert " osp_changed=1 " in out
    # a rise in a gated work count is counted last, and fails nothing
    new.write_text(json.dumps(run))
    routed[0]["work"]["swap_evals"] -= 1
    old.write_text(json.dumps(run))
    assert compare.main(["--load", str(new), "--against", str(old)]) == 0
    out = capsys.readouterr().out
    assert " work_changed=1 " in out
    assert out.splitlines()[0].endswith(" missing=0 work_rose=1")


def test_compare_outputs_lists_the_work_rises(tmp_path, capsys):
    # each record behind work_rose gets a line: its key and every gated
    # count that rose, from what to what; a fall, an ungated count and an
    # unrouted record get none, and nothing fails
    compare = load_script("compare_outputs")

    def record(key, output, swap_evals, pushes, iterations, pops=0):
        work = None if output is None else {
            "swap_evals": swap_evals, "queue_pushes": pushes,
            "queue_pops": pops, "asgm_iterations": iterations,
            "stage1_taus": [1.0], "stage1_objectives": [output]}
        return {"key": key, "output": output, "audit": "ok",
                "result_sha256": "0" * 64, "work": work}

    old = {"stage0_sha256": "0" * 64, "records": [
        record("retail:0:x1", "5", 8, 10, 0),
        record("retail:1:x1", "5", 8, 10, 0),
        record("whale:0:x3", "5", 30, 40, 3),
        record("whale:1:x1", "5", 30, 40, 3, pops=1),
        record("dominance:0:x1", None, 0, 0, 0)]}
    new = {"stage0_sha256": "0" * 64, "records": [
        record("retail:0:x1", "5", 9, 8, 0),
        record("retail:1:x1", "5", 7, 9, 0),
        record("whale:0:x3", "5", 31, 41, 5),
        record("whale:1:x1", "5", 30, 40, 3, pops=9),
        record("dominance:0:x1", "5", 99, 99, 99)]}
    assert compare.work_rises(new, old) == [
        ("retail:0:x1", [("swap_evals", 8, 9)]),
        ("whale:0:x3", [("swap_evals", 30, 31), ("queue_pushes", 40, 41),
                        ("allocator_steps", 5, 7)])]
    paths = tmp_path / "new.json", tmp_path / "old.json"
    for path, run in zip(paths, (new, old)):
        path.write_text(json.dumps(run))
    assert compare.main(["--load", str(paths[0]),
                         "--against", str(paths[1])]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(" missing=0 work_rose=2")
    assert lines[2:4] == [
        "work rose on retail:0:x1: swap_evals 8 -> 9",
        "work rose on whale:0:x3: swap_evals 30 -> 31, "
        "queue_pushes 40 -> 41, allocator_steps 5 -> 7"]
    assert lines[4].startswith("retail: routed ")


@pytest.mark.parametrize("old_output,status", [("5", 0), ("6", 1)])
def test_compare_outputs_reader_leaving_early(tmp_path, old_output, status):
    # like ``| head -1``: the reader takes the first line and closes the
    # pipe; the new side's 10,000 work keys make the report overflow the
    # pipe, so the report is still writing when the reader leaves
    def run(output, extra_keys):
        work = {"swap_evals": 1, "queue_pushes": 1, "asgm_iterations": 0,
                "stage1_taus": [1.0], "stage1_objectives": [output]}
        work.update(dict.fromkeys(extra_keys, 0))
        return {"stage0_sha256": "0" * 64, "records": [
            {"key": "retail:0:x1", "output": output, "audit": "ok",
             "result_sha256": "0" * 64, "work": work}]}

    new, old = tmp_path / "new.json", tmp_path / "old.json"
    new.write_text(json.dumps(run("5", [f"pad{i:05}" for i in range(10**4)])))
    old.write_text(json.dumps(run(old_output, [])))
    proc = subprocess.Popen(
        [sys.executable, str(SCRIPTS / "compare_outputs.py"),
         "--load", str(new), "--against", str(old)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == status
    assert f" fallen={status} ".encode() in first
    assert err == b""


def test_ab_time_same_tree(capsys):
    # A/A: both sides import this checkout's sources, so hubs and outputs
    # agree, and the report exits 0
    ab_time = load_script("ab_time")
    ab_time._import_paths()
    import prime_router
    from perfbench.workloads import Market

    market = Market(seed=13, tokens=40, pools=140, hub_fraction=0.1,
                    spread_orders=6, hubs=8)
    result = ab_time.run(market, str(SCRIPTS.parent / "src"), 1,
                         {"retail": 5, "whale": 2, "dominance": 2})
    # side A is a second import of the tree, under its own name
    side_a = sys.modules[ab_time.SIDE_A]
    assert side_a is not prime_router
    assert Path(side_a.__file__).parent == Path(prime_router.__file__).parent
    assert result["hubs_equal"]
    assert {name: len(rows) for name, rows in result["workloads"].items()} \
        == {"retail": 5, "whale": 2, "dominance": 2}
    rows = [row for rows in result["workloads"].values() for row in rows]
    assert all(a > 0 and b > 0 and out_a == out_b
               for _, a, b, out_a, out_b in rows)
    assert any(out_a is not None for *_, out_a, _ in rows)
    assert ab_time.report(result) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == list(ab_time.WORKLOADS)
    assert lines[0].startswith("retail: 5 queries, B/A median ")
    # a differing output fails the report and names the query
    qid, a, b, out_a, out_b = result["workloads"]["whale"][1]
    result["workloads"]["whale"][1] = (qid, a, b, out_a, (out_b or 0) + 1)
    assert ab_time.report(result) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        f"outputs differ on 1 queries: whale:{qid}"
    assert ab_time.report({"hubs_equal": False, "workloads": {}}) == 1


def test_ab_time_stage0_same_tree(capsys):
    # A/A on a small market: every step timed on both sides, same hubs
    ab_time = load_script("ab_time")
    ab_time._import_paths()
    from perfbench.workloads import Market

    market = Market(seed=13, tokens=40, pools=140, hub_fraction=0.1,
                    spread_orders=6, hubs=8)
    result = ab_time.run_stage0(market, str(SCRIPTS.parent / "src"), 1)
    assert result["hubs_equal"]
    assert [step for step, *_ in result["steps"]] == \
        list(ab_time.STAGE0_STEPS)
    assert all(a > 0 and b > 0 for _, a, b in result["steps"])
    # one traced pass per side: held after each step, at most its peak
    assert [step for step, *_ in result["memory"]] == \
        list(ab_time.STAGE0_STEPS)
    for side in (1, 2):
        held = [m[side][0] for m in result["memory"]]
        assert all(0 < m[side][0] <= m[side][1] for m in result["memory"])
        assert held == sorted(held)
    assert ab_time.report_stage0(result) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == \
        list(ab_time.STAGE0_STEPS) + ["stage 0"]
    assert all("; held A " in line and "; peak A " in line for line in lines)
    held, peak = ab_time.stage0_mib(market)
    assert 0 < held <= peak
    result["hubs_equal"] = False
    assert ab_time.report_stage0(result) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("hubs differ")


def test_ab_time_stage0_peak_step():
    # held and peak with the step that sets the peak, for this checkout
    # and for a tree given by its path
    ab_time = load_script("ab_time")
    ab_time._import_paths()
    from perfbench.workloads import Market

    market = Market(seed=13, tokens=40, pools=140, hub_fraction=0.1,
                    spread_orders=6, hubs=8)
    for src in (None, str(SCRIPTS.parent / "src")):
        held, peak, step = ab_time.stage0_peak_step(market, src)
        assert 0 < held <= peak
        assert step in ab_time.STAGE0_STEPS


def test_ab_time_stage0_reports_per_round_ratios(capsys):
    # each step's line gives the median of its rounds' ratios B/A and
    # their quartiles, next to the ratio of the minima
    ab_time = load_script("ab_time")
    mib = 1 << 20
    steps = [(step, 1.0, 0.9) for step in ab_time.STAGE0_STEPS]
    ratios = [(step, [0.8, 0.9, 1.0, 0.95, 0.85])
              for step in ab_time.STAGE0_STEPS + ("stage 0",)]
    memory = [(step, (mib, 2 * mib), (mib, 2 * mib))
              for step in ab_time.STAGE0_STEPS]
    assert ab_time.report_stage0({"hubs_equal": True, "steps": steps,
                                  "ratios": ratios, "memory": memory}) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(ab_time.STAGE0_STEPS) + 1
    for line in lines:
        assert "B/A 0.900; per round B/A median 0.900 (q1 0.850, " \
            "q3 0.950, 5 rounds); held A 1.00 MiB" in line


def test_ab_time_save_snapshot_mib():
    # the streamed writer's peak is far below the small market's file
    ab_time = load_script("ab_time")
    ab_time._import_paths()
    from perfbench.workloads import Market

    market = Market(seed=13, tokens=400, pools=1400, hub_fraction=0.1,
                    spread_orders=6, hubs=8)
    assert 0 < ab_time.save_snapshot_mib(market) < 0.05


def test_ab_time_reload_peak_rss_mb():
    # a fresh process per tree, for this checkout and for a tree given by
    # its path; the process holds the interpreter and two stage 0s
    ab_time = load_script("ab_time")
    ab_time._import_paths()
    from perfbench.workloads import Market

    market = Market(seed=13, tokens=40, pools=140, hub_fraction=0.1,
                    spread_orders=6, hubs=8)
    for src in (None, str(SCRIPTS.parent / "src")):
        assert 1 < ab_time.reload_peak_rss_mb(src, market) < 1000


def test_ab_time_reload_reads_its_own_peak_not_its_callers():
    # the child starts in this process's memory (vfork), whose high-water
    # mark Linux carries across execve into the child's ru_maxrss; the
    # child's VmHWM is its own
    ab_time = load_script("ab_time")
    ab_time._import_paths()
    from perfbench.workloads import Market

    market = Market(seed=13, tokens=40, pools=140, hub_fraction=0.1,
                    spread_orders=6, hubs=8)
    ballast = b"\x01" * (128 << 20)
    del ballast
    assert ab_time.own_peak_rss_mb() >= 128
    # the interpreter, the imports and two stage 0s of 40 tokens
    assert 1 < ab_time.reload_peak_rss_mb(None, market) < 64


def test_ab_time_cold_route_peak_mib():
    # one in-process route per tree, for this checkout and for a tree
    # given by its path; the route exits 0, else the call raises
    ab_time = load_script("ab_time")
    ab_time._import_paths()
    from perfbench.workloads import Market

    market = Market(seed=13, tokens=40, pools=140, hub_fraction=0.1,
                    spread_orders=6, hubs=8)
    for src in (None, str(SCRIPTS.parent / "src")):
        assert 0 < ab_time.cold_route_peak_mib(src, market) < 5


def test_ab_time_alternates_and_keeps_minima():
    # a fake clock that each call advances by its next duration
    ab_time = load_script("ab_time")
    now = [0.0]
    order = []
    durations = {"A": iter([3.0, 1.0, 2.0, 5.0]),
                 "B": iter([4.0, 2.0, 0.5, 6.0])}

    def side(name):
        def call():
            order.append(name)
            now[0] += next(durations[name])
            return len(order)
        return call

    with mock.patch.object(ab_time.time, "perf_counter", lambda: now[0]):
        best, outputs = ab_time.min_times((side("A"), side("B")), 2)
    assert "".join(order) == "ABBAABBA"
    assert best == [1.0, 0.5]
    # each side's output is that of its last call
    assert outputs == [8, 7]
    assert ab_time.quartiles([2.0]) == (2.0, 2.0, 2.0)
    assert ab_time.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


SPLIT_PACKAGE = {
    "__init__.py": (
        '"""Package doc,\n'
        'over two lines."""\n'
        "\n"
        "# a comment\n"
        "import os  # a trailing comment is code\n"
        "\n"
        "\n"
        "def f(x):\n"
        '    """One line."""\n'
        '    s = """not a\n'
        'docstring"""\n'
        "    # an indented comment\n"
        "\n"
        "    return x\n"),
    # no newline at the end: the last line still counts
    "sub/mod.py": "x = 1\n# end",
    "sub/notes.txt": "not python\n",
}


def test_src_lines_splits_a_package(tmp_path, monkeypatch, capsys):
    src_lines = load_script("src_lines")
    for name, text in SPLIT_PACKAGE.items():
        path = tmp_path / "pkg" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    assert src_lines.file_split(SPLIT_PACKAGE["__init__.py"].encode()) == {
        "code": 5, "docstring": 3, "comment": 2, "blank": 4}
    counts = src_lines.split(str(tmp_path))
    assert counts == {"code": 6, "docstring": 3, "comment": 3, "blank": 4}
    # the parts sum to perfbench's count of the same tree
    monkeypatch.syspath_prepend(str(SCRIPTS.parent))
    from perfbench import run
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.src_line_count() == sum(counts.values()) == 16
    assert src_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.endswith(" lines: 16 (code 6, docstring 3, comment 3, "
                        "blank 4)\n")
    assert src_lines.main([str(tmp_path / "missing")]) == 2


def test_src_lines_sums_to_the_src_count(monkeypatch):
    src_lines = load_script("src_lines")
    monkeypatch.syspath_prepend(str(SCRIPTS.parent))
    from perfbench import run
    assert sum(src_lines.split(run.SRC).values()) == run.src_line_count()
