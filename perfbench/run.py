#!/usr/bin/env python3
"""PRIME benchmark entry point.

    python3 perfbench/run.py --workload retail --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the engine is imported from its
``src/`` directory.  Human-readable metric lines come first; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``).  Scratch files (the market snapshot, span
dumps) go under ``.bench_build/perfbench`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="retail, whale, cold_route or dominance")
    ap.add_argument("--seed", type=int, required=True,
                    help="draws the query stream; the market is fixed")
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed closed loop; a traced run "
                         "makes one untraced and one traced pass instead")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: traced run reporting the per-layer metrics")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def src_line_count() -> int:
    """Lines of Python under src/, run metadata the ROADMAP tracks."""
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "prime_router", "engine.py")):
        print(f"error: no prime_router sources under {SRC}; run the benchmark "
              f"from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"prime_router src lines: {src_line_count()}")

    scratch = os.path.join(ROOT, ".bench_build", "perfbench")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        snapshot = os.path.join(tmp, "market.json")
        workloads.write_market(workloads.CRITERION_7_MARKET, snapshot)
        if args.trace:
            spans = os.path.join(
                scratch, f"spans-{args.workload}-seed{args.seed}.jsonl")
            result = workloads.run_traced(args.workload, args.seed, snapshot,
                                          workloads.CRITERION_7_MARKET, spans)
        else:
            result = workloads.run_untraced(args.workload, args.seed,
                                            args.seconds, snapshot,
                                            workloads.CRITERION_7_MARKET)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
