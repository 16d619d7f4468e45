#!/usr/bin/env python3
"""Hyperparameter sweep for the allocator's line search.

Writes the step-decay (beta) and acceptance-threshold (alpha) sweeps to CSV
via the bench harness and prints both tables.  Alpha and beta drive only the
path-level sign steps; each hop's split across parallel pools is solved in
closed form and does not depend on them.  Expected shape: quality is flat
across the whole grid while latency grows as beta approaches 1.
"""

import argparse
import csv
import sys
import tempfile
from pathlib import Path

from prime_router.cli import main as cli_main
from prime_router.graph import Token, build_graph
from prime_router.io import SNAPSHOT_VERSION, Snapshot, save_snapshot
from prime_router.graph import KIND_CONSTANT_PRODUCT, Pool

W = 10**18


def fixture_snapshot() -> Snapshot:
    tokens = tuple(Token(f"T{i}", f"TOK{i}", 18) for i in range(3))
    pools = (
        Pool("PA", KIND_CONSTANT_PRODUCT, ("T0", "T1"), 0,
             (1000 * W, 1100 * W)),
        Pool("PB", KIND_CONSTANT_PRODUCT, ("T0", "T2"), 0,
             (3000 * W, 3000 * W)),
        Pool("PC", KIND_CONSTANT_PRODUCT, ("T2", "T1"), 0,
             (3000 * W, 3100 * W)),
    )
    build_graph(tokens, pools)  # fail fast if the fixture is malformed
    return Snapshot(SNAPSHOT_VERSION, "ablation-fixture", tokens, pools)


def run_sweep(snap_path: Path, out: Path, alphas: str, betas: str,
              repetitions: int) -> list:
    code = cli_main([
        "bench", "--snapshot", str(snap_path), "--from", "T0", "--to", "T1",
        "--amounts", str(500 * W), "--ablate", "--alphas", alphas,
        "--betas", betas, "--repetitions", str(repetitions),
        "--out", str(out),
    ])
    if code != 0:
        sys.exit(code)
    with open(out) as fh:
        return list(csv.DictReader(fh))


def show(title: str, rows: list) -> None:
    print(f"\n{title}")
    print(f"{'alpha':>8} {'beta':>6} {'wall_ms':>9} {'iters':>6} {'gap_bp':>7}")
    for r in rows:
        print(f"{float(r['alpha']):>8g} {float(r['beta']):>6g} "
              f"{float(r['wall_time_ms']):>9.2f} {int(r['iterations']):>6d} "
              f"{r['gap_bp']:>7}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repetitions", type=int, default=3)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()

    out_dir = Path(args.out_dir) if args.out_dir else Path(tempfile.mkdtemp())
    out_dir.mkdir(parents=True, exist_ok=True)
    snap_path = out_dir / "ablation_fixture.json"
    save_snapshot(fixture_snapshot(), snap_path)

    beta_rows = run_sweep(snap_path, out_dir / "beta_sweep.csv",
                          "0.0001", "0.3,0.5,0.7,0.9,0.95", args.repetitions)
    alpha_rows = run_sweep(snap_path, out_dir / "alpha_sweep.csv",
                           "0.01,0.1,0.3,0.6,0.9", "0.5", args.repetitions)
    show("step decay sweep (alpha = 1e-4)", beta_rows)
    show("acceptance threshold sweep (beta = 0.5)", alpha_rows)
    print(f"\nCSV written under {out_dir}")


if __name__ == "__main__":
    main()
