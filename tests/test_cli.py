import csv
import inspect
import io as io_mod
import json
import logging
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from prime_router import cli as cli_mod
from prime_router.allocation import AsgmParams
from prime_router.cli import main
from prime_router.engine import RouteQuery, RouteStats
from prime_router.io import generate_synthetic, save_snapshot


@pytest.fixture
def snapshot_path(tmp_path):
    snap = generate_synthetic(11, 12, 24, hub_fraction=0.25,
                              reserve_spread_orders=4)
    path = tmp_path / "snap.json"
    save_snapshot(snap, path)
    source = snap.tokens[0].id
    target = snap.tokens[1].id
    return str(path), source, target


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lonely_snapshot(tmp_path):
    """A synthetic market plus a token no pool touches: the path of its
    snapshot, a pooled token and the lonely token."""
    from prime_router.graph import Token
    from prime_router.io import Snapshot
    snap = generate_synthetic(5, 6, 6, 0.3, 3)
    lonely = Token("0x" + "ab" * 20, "LONELY", 18)
    snap = Snapshot(snap.version, snap.block_ref,
                    snap.tokens + (lonely,), snap.pools)
    path = tmp_path / "s.json"
    save_snapshot(snap, path)
    return str(path), snap.tokens[0].id, lonely.id


class TestRoute:
    def test_happy_path_prints_solution_json(self, snapshot_path, capsys):
        path, source, target = snapshot_path
        code, out, err = run_cli(capsys, "route", "--snapshot", path,
                                 "--from", source, "--to", target,
                                 "--amount", "1000000")
        assert code == 0
        payload = json.loads(out)
        assert payload["algorithm"] == "prime"
        assert int(payload["total_output"]) > 0
        assert isinstance(payload["total_output"], str)
        assert payload["paths"]
        assert "tau" in payload

    def test_stats_report_search_work(self, snapshot_path, capsys):
        path, source, target = snapshot_path
        code, out, _ = run_cli(capsys, "route", "--snapshot", path,
                               "--from", source, "--to", target,
                               "--amount", "1000000")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["find_path_calls"] >= 1
        assert stats["swap_evals"] >= stats["paths_discovered"] >= 1
        assert stats["queue_pushes"] >= 1

    def test_stats_report_outcome_flags(self, snapshot_path, capsys):
        path, source, target = snapshot_path
        code, out, _ = run_cli(capsys, "route", "--snapshot", path,
                               "--from", source, "--to", target,
                               "--amount", "1000000")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["converged"] is True
        assert stats["degraded"] is False
        assert stats["fallback"] is False

    def test_stats_hold_every_route_stats_field(self, snapshot_path, capsys):
        path, source, target = snapshot_path
        code, out, _ = run_cli(capsys, "route", "--snapshot", path,
                               "--from", source, "--to", target,
                               "--amount", "1000000")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert list(stats) == sorted(f.name for f in fields(RouteStats))
        assert len(stats) == 12
        # exact integers as decimal strings, like every amount
        objectives = stats["stage1_objectives"]
        assert objectives and all(v.isdigit() for v in objectives)
        assert all(isinstance(v, float) for v in stats["stage1_taus"])

    def test_unknown_token_exits_one(self, snapshot_path, capsys):
        path, source, _ = snapshot_path
        code, out, err = run_cli(capsys, "route", "--snapshot", path,
                                 "--from", source, "--to", "0xmissing",
                                 "--amount", "10")
        assert code == 1
        assert "unknown token" in err

    def test_boolean_fee_exits_one(self, snapshot_path, tmp_path, capsys):
        path, source, target = snapshot_path
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        data["pools"][0]["fee_bps"] = True
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "route", "--snapshot", str(bad),
                                 "--from", source, "--to", target,
                                 "--amount", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error: pools[0]: field 'fee_bps' has wrong type")

    def test_disconnected_exits_two(self, tmp_path, capsys):
        path, source, lonely = lonely_snapshot(tmp_path)
        code, out, err = run_cli(capsys, "route", "--snapshot", path,
                                 "--from", source, "--to", lonely,
                                 "--amount", "100")
        assert code == 2
        assert "no route" in err

    def test_bad_amount_exits_one(self, snapshot_path, capsys):
        path, source, target = snapshot_path
        code, _, err = run_cli(capsys, "route", "--snapshot", path,
                               "--from", source, "--to", target,
                               "--amount", "1e18")
        assert code == 1

    @pytest.mark.parametrize("amount", ["0", "000"])
    def test_zero_amount_exits_one(self, snapshot_path, capsys, amount):
        path, source, target = snapshot_path
        code, _, err = run_cli(capsys, "route", "--snapshot", path,
                               "--from", source, "--to", target,
                               "--amount", amount)
        assert code == 1
        assert err == "error: amount must be positive\n"

    def test_osp_and_flow_algos(self, snapshot_path, capsys):
        path, source, target = snapshot_path
        argv = ["route", "--snapshot", path, "--from", source, "--to", target,
                "--amount", "1000000", "--algo"]
        code, out, _ = run_cli(capsys, *argv, "osp")
        assert code == 0
        payload = json.loads(out)
        assert payload["algorithm"] == "osp"
        assert payload["stats"]["swap_evals"] > 0
        assert "disjoint" not in payload
        # "flow" is no algorithm: a usage error (exit 1), not "no route" (2)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["flow"])
        assert exc.value.code == 1

    @pytest.mark.parametrize("tail", [("--amount", "10", "--algo", "bogus"),
                                      ("--amount", "10", "--max-hops", "x"),
                                      ()])
    def test_usage_error_exits_one(self, snapshot_path, capsys, tail):
        # argparse would exit 2, which this CLI reserves for "no route"
        path, source, target = snapshot_path
        with pytest.raises(SystemExit) as exc:
            main(["route", "--snapshot", path, "--from", source,
                  "--to", target, *tail])
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_list_pool_token_exits_one(self, snapshot_path, tmp_path, capsys):
        path, source, target = snapshot_path
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        tokens = data["pools"][0]["tokens"]
        tokens[0] = [tokens[0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "route", "--snapshot", str(bad),
                                 "--from", source, "--to", target,
                                 "--amount", "10")
        assert code == 1
        assert out == ""
        assert err.startswith("error: pools[0]: field 'tokens' has wrong type")

    def test_zero_reserve_exits_one(self, snapshot_path, tmp_path, capsys):
        # a curve rule: it fires in build_graph, after the snapshot loaded
        path, source, target = snapshot_path
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        pool = next(p for p in data["pools"] if "reserves" in p)
        pool["reserves"][0] = "0"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "route", "--snapshot", str(bad),
                                 "--from", source, "--to", target,
                                 "--amount", "10")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: pool {pool['id']!r}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("field", ["reserve", "segment"])
    def test_overlong_amount_exits_one(self, snapshot_path, tmp_path, capsys,
                                       field):
        path, source, target = snapshot_path
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if field == "reserve":
            i = next(i for i, p in enumerate(data["pools"]) if "reserves" in p)
            data["pools"][i]["reserves"][0] = "1" * 5000
            where = f"pools[{i}].reserves[0]"
        else:
            i = next(i for i, p in enumerate(data["pools"])
                     if "directions" in p)
            data["pools"][i]["directions"][0]["segments"][0][
                "capacity_in"] = "1" * 5000
            where = f"pools[{i}].directions[0].segments[0].capacity_in"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, out, err = run_cli(capsys, "route", "--snapshot", str(bad),
                                 "--from", source, "--to", target,
                                 "--amount", "10")
        assert code == 1
        assert out == ""
        assert err == (f"error: {where}: 5000-digit amount exceeds 256-bit "
                       f"range\n")

    def test_explicit_hub_list_routes(self, snapshot_path, capsys):
        path, source, target = snapshot_path
        code, out, _ = run_cli(capsys, "route", "--snapshot", path,
                               "--from", source, "--to", target,
                               "--amount", "1000000",
                               "--hubs", f"{source}, {target}")
        assert code == 0
        assert int(json.loads(out)["total_output"]) > 0

    @pytest.mark.parametrize("hubs,message", [
        (",", "empty hub list"),
        (" , ,", "empty hub list"),
        ("0xnothub", "explicit hub '0xnothub' not in graph"),
    ])
    def test_bad_hub_list_exits_one(self, snapshot_path, capsys, hubs,
                                    message):
        path, source, target = snapshot_path
        code, out, err = run_cli(capsys, "route", "--snapshot", path,
                                 "--from", source, "--to", target,
                                 "--amount", "1000000", "--hubs", hubs)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"

    def test_trace_written(self, snapshot_path, tmp_path, capsys):
        path, source, target = snapshot_path
        trace = tmp_path / "trace.csv"
        code, _, _ = run_cli(capsys, "route", "--snapshot", path,
                             "--from", source, "--to", target,
                             "--amount", "1000000", "--trace", str(trace))
        assert code == 0
        rows = list(csv.DictReader(open(trace)))
        assert rows
        assert set(rows[0]) == {"t", "J", "g_max", "g_min", "delta"}
        objectives = [int(r["J"]) for r in rows]
        assert objectives == sorted(objectives)


class TestGen:
    def test_gen_writes_snapshot(self, tmp_path, capsys):
        out_path = tmp_path / "gen.json"
        code, out, _ = run_cli(capsys, "gen", "--seed", "3", "--tokens", "10",
                               "--pools", "15", "--out", str(out_path))
        assert code == 0
        assert out_path.exists()
        payload = json.loads(out_path.read_text())
        assert payload["version"] == 1
        assert len(payload["tokens"]) == 10


def test_parsed_defaults_are_the_library_defaults():
    parser = cli_mod.build_parser()
    route = parser.parse_args(["route", "--snapshot", "s.json", "--from", "A",
                               "--to", "B", "--amount", "7"])
    assert cli_mod._build_query(route, "A", "B", 7) == RouteQuery("A", "B", 7)
    bench = parser.parse_args(["bench", "--snapshot", "s.json", "--from", "A",
                               "--to", "B"])
    assert (float(bench.alphas), float(bench.betas)) == \
        (AsgmParams().alpha, AsgmParams().beta)
    gen = parser.parse_args(["gen", "--seed", "1", "--tokens", "4",
                             "--pools", "4", "--out", "g.json"])
    synthetic = inspect.signature(generate_synthetic).parameters
    assert (gen.hub_fraction, gen.spread_orders) == \
        (synthetic["hub_fraction"].default,
         synthetic["reserve_spread_orders"].default)


class TestBench:
    def test_report_rows_and_dominance(self, snapshot_path, tmp_path, capsys):
        path, source, target = snapshot_path
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench", "--snapshot", path,
                             "--from", source, "--to", target,
                             "--amounts", "1000,1000000",
                             "--algos", "prime,osp",
                             "--out", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert len(rows) == 4
        for row in rows:
            if row["algorithm"] == "prime":
                assert float(row["bp_vs_baseline"]) >= 0.0
            if row["algorithm"] == "osp":
                assert float(row["bp_vs_baseline"]) == 0.0

    def test_baseline_cell_reads_against_osp(self, snapshot_path, tmp_path,
                                             capsys):
        path, source, target = snapshot_path
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench", "--snapshot", path,
                             "--from", source, "--to", target,
                             "--amounts", "1000000", "--algos", "prime,osp",
                             "--out", str(out_csv))
        assert code == 0
        rows = {r["algorithm"]: r for r in csv.DictReader(open(out_csv))}
        prime_out = int(rows["prime"]["output"])
        osp_out = int(rows["osp"]["output"])
        assert rows["prime"]["bp_vs_baseline"] == \
            f"{1e4 * (prime_out - osp_out) / osp_out:.2f}"
        assert rows["osp"]["bp_vs_baseline"] == "0.00"

    def test_baseline_cell_empty_without_osp(self, snapshot_path, tmp_path,
                                             capsys):
        path, source, target = snapshot_path
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench", "--snapshot", path,
                             "--from", source, "--to", target,
                             "--amounts", "1000,1000000", "--algos", "prime",
                             "--out", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert len(rows) == 2
        # no osp result: the cell must not read as parity with it
        assert [r["bp_vs_baseline"] for r in rows] == ["", ""]

    def test_case_with_no_route_left_out(self, tmp_path, capsys):
        path, source, lonely = lonely_snapshot(tmp_path)
        out_csv = tmp_path / "bench.csv"
        code, out, err = run_cli(capsys, "bench", "--snapshot", path,
                                 "--from", source, "--to", lonely,
                                 "--amounts", "100,1000",
                                 "--algos", "prime,osp",
                                 "--out", str(out_csv))
        assert (code, out, err) == (0, "", "")
        with open(out_csv, newline="") as fh:
            reader = csv.DictReader(fh)
            assert list(reader) == []
            assert reader.fieldnames == (cli_mod._BENCH_COLUMNS
                                         + cli_mod._STAT_COLUMNS)

    def test_without_out_writes_csv_to_stdout(self, snapshot_path, tmp_path,
                                              capsys):
        path, source, target = snapshot_path
        argv = ["bench", "--snapshot", path, "--from", source, "--to",
                target, "--amounts", "1000,1000000", "--algos", "prime,osp"]
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, "")
        out_csv = tmp_path / "bench.csv"
        assert run_cli(capsys, *argv, "--out", str(out_csv))[0] == 0
        printed = list(csv.DictReader(io_mod.StringIO(out)))
        written = list(csv.DictReader(open(out_csv)))
        assert len(printed) == 4
        for row in printed + written:
            del row["wall_time_ms"]
        assert printed == written

    def test_report_outcome_flags(self, snapshot_path, tmp_path, capsys):
        path, source, target = snapshot_path
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench", "--snapshot", path,
                             "--from", source, "--to", target,
                             "--amounts", "1000000", "--algos", "prime,osp",
                             "--out", str(out_csv))
        assert code == 0
        flags = {r["algorithm"]: (r["converged"], r["fallback"])
                 for r in csv.DictReader(open(out_csv))}
        # best_single_path runs no allocator
        assert flags == {"prime": ("True", "False"), "osp": ("False", "False")}

    def test_header_holds_every_scalar_route_stats_field(self, snapshot_path,
                                                         tmp_path, capsys):
        path, source, target = snapshot_path
        out_csv = tmp_path / "bench.csv"
        code, _, _ = run_cli(capsys, "bench", "--snapshot", path,
                             "--from", source, "--to", target,
                             "--amounts", "1000000", "--algos", "prime",
                             "--out", str(out_csv))
        assert code == 0
        (row,) = csv.DictReader(open(out_csv))
        scalars = [f.name for f in fields(RouteStats)
                   if f.type in ("int", "bool")]
        assert len(scalars) == 10
        assert list(row)[-len(scalars):] == scalars
        assert int(row["find_path_calls"]) >= 1
        assert row["degraded"] == "False"

    def test_trace_dir_holds_one_csv_per_prime_case(self, snapshot_path,
                                                    tmp_path, capsys):
        path, source, target = snapshot_path
        out_csv, traces = tmp_path / "bench.csv", tmp_path / "traces"
        traces.mkdir()
        code, _, _ = run_cli(capsys, "bench", "--snapshot", path,
                             "--from", source, "--to", target,
                             "--amounts", "1000,1000000", "--algos", "prime,osp",
                             "--repetitions", "2", "--out", str(out_csv),
                             "--trace-dir", str(traces))
        assert code == 0
        rows = list(csv.DictReader(open(out_csv)))
        prime_cases = [(r["amount"], r["repetition"]) for r in rows
                       if r["algorithm"] == "prime"]
        assert len(prime_cases) == 4
        # best_single_path runs no allocator, so it leaves no trace
        snap = os.path.basename(path)
        assert sorted(p.name for p in traces.iterdir()) == sorted(
            f"trace_{snap}_prime_{amount}_{rep}.csv"
            for amount, rep in prime_cases)
        for trace in traces.iterdir():
            rows = list(csv.DictReader(open(trace)))
            assert rows and set(rows[0]) == {"t", "J", "g_max", "g_min",
                                             "delta"}

    def test_deterministic_apart_from_wall_time(self, snapshot_path, tmp_path,
                                                capsys):
        path, source, target = snapshot_path
        outs = []
        for name in ("a.csv", "b.csv"):
            out_csv = tmp_path / name
            code, _, _ = run_cli(capsys, "bench", "--snapshot", path,
                                 "--from", source, "--to", target,
                                 "--amounts", "12345", "--algos", "prime,osp",
                                 "--out", str(out_csv))
            assert code == 0
            rows = list(csv.DictReader(open(out_csv)))
            for r in rows:
                r.pop("wall_time_ms")
            outs.append(rows)
        assert outs[0] == outs[1]

    def test_serial_runs_same_report(self, snapshot_path, tmp_path, capsys):
        path, source, target = snapshot_path
        reports = []
        for name in ("first.csv", "second.csv"):
            out_csv = tmp_path / name
            code, _, _ = run_cli(capsys, "bench", "--snapshot", path,
                                 "--from", source, "--to", target,
                                 "--amounts", "1000,2000", "--algos",
                                 "prime,osp", "--repetitions", "2",
                                 "--out", str(out_csv))
            assert code == 0
            rows = list(csv.DictReader(open(out_csv)))
            for r in rows:
                r.pop("wall_time_ms")
            reports.append(rows)
        assert len(reports[0]) == 8
        assert all(int(r["swap_evals"]) > 0 for r in reports[0])
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("side", ["--from", "--to"])
    def test_unknown_token_exits_one_like_route(self, snapshot_path, capsys,
                                                side):
        path, source, target = snapshot_path
        ends = {"--from": source, "--to": target, side: "0xmissing"}
        argv = ["--snapshot", path, "--from", ends["--from"],
                "--to", ends["--to"]]
        route = run_cli(capsys, "route", *argv, "--amount", "10")
        bench = run_cli(capsys, "bench", *argv, "--amounts", "10")
        assert route[0] == bench[0] == 1
        assert route[1] == bench[1] == ""
        assert bench[2] == route[2] == "error: unknown token id '0xmissing'\n"

    @pytest.mark.parametrize("algos", ["", " , "])
    def test_empty_algorithm_list_exits_one(self, snapshot_path, capsys,
                                            algos):
        path, source, target = snapshot_path
        code, out, err = run_cli(capsys, "bench", "--snapshot", path,
                                 "--from", source, "--to", target,
                                 "--amounts", "10", "--algos", algos)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("mode", [(), ("--ablate",)])
    @pytest.mark.parametrize("repetitions", ["0", "-2"])
    def test_repetitions_below_one_exit_one(self, snapshot_path, capsys,
                                            repetitions, mode):
        path, source, target = snapshot_path
        code, out, err = run_cli(capsys, "bench", "--snapshot", path,
                                 "--from", source, "--to", target,
                                 "--amounts", "10", "--repetitions",
                                 repetitions, *mode)
        assert code == 1
        assert out == ""
        assert err == (f"error: --repetitions must be at least 1, "
                       f"got {repetitions}\n")

    def test_jobs_flag_removed(self, snapshot_path, capsys):
        path, source, target = snapshot_path
        with pytest.raises(SystemExit):
            main(["bench", "--snapshot", path, "--from", source, "--to",
                  target, "--amounts", "1000", "--jobs", "2"])

    def test_ablate_mode(self, snapshot_path, tmp_path, capsys):
        path, source, target = snapshot_path
        out_csv = tmp_path / "ablate.csv"
        code, _, _ = run_cli(capsys, "bench", "--snapshot", path,
                             "--from", source, "--to", target,
                             "--amounts", "1000000", "--ablate",
                             "--alphas", "0.0001,0.5", "--betas", "0.5",
                             "--out", str(out_csv))
        assert code == 0
        rows = list(csv.DictReader(open(out_csv)))
        assert len(rows) == 2
        assert all(r["converged"] == "True" for r in rows)
        assert {r["gap_bp"] for r in rows} == {"0.00"}


# fullwidth, Arabic-Indic and superscript digits pass str.isdigit()
@pytest.mark.parametrize("digits", ["\uff13", "\u0663", "\u00b2"])
@pytest.mark.parametrize("command,flag", [("route", "--amount"),
                                          ("route", "--hubs"),
                                          ("bench", "--amounts"),
                                          ("bench", "--unit-amounts"),
                                          ("bench", "--hubs")])
def test_non_ascii_digits_exit_one(snapshot_path, capsys, monkeypatch,
                                   command, flag, digits):
    path, source, target = snapshot_path
    solved = []
    for name in ("prime", "best_single_path", "prepare_routing"):
        monkeypatch.setattr(cli_mod, name,
                            lambda *a, _n=name, **k: solved.append(_n))
    argv = [command, "--snapshot", path, "--from", source, "--to", target,
            flag, digits]
    if flag == "--hubs":
        argv += ["--amount" if command == "route" else "--amounts", "10"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "must be a decimal integer" in err
    assert solved == []


def test_debug_log_names_stage0_steps(snapshot_path, capsys, caplog):
    path, source, target = snapshot_path
    caplog.set_level(logging.DEBUG, logger="prime_router")
    code, _, _ = run_cli(capsys, "route", "--snapshot", path, "--from", source,
                         "--to", target, "--amount", "1000000")
    assert code == 0
    lines = [r.getMessage() for r in caplog.records]
    assert any(m.startswith("loaded snapshot ") and " tokens, " in m
               for m in lines)
    assert any(m.startswith("built graph: ") and " edges in " in m
               for m in lines)
    assert any(m.startswith("prepared routing: ") for m in lines)


def test_package_import_loads_no_numpy():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, prime_router, prime_router.cli; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
