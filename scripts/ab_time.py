#!/usr/bin/env python3
"""Interleaved A/B timing of ``prime`` between two source trees, in one process.

The VM this project is measured on drifts in speed by 25-40% in phases, so
two timing runs in separate processes compare the phases as much as the
code.  This script imports both trees into one process instead: side B is
this checkout's ``src/``, imported as ``prime_router``; side A is
``--against``, imported as ``prime_router_a`` (``src/`` uses relative
imports only, so a tree imports under any name).  Each side builds its own
stage 0 from one snapshot of the criterion-7 market, and the script stops
if their hubs differ.  Every fixed query of
the retail, whale and dominance sets (the benchmark's, with a workload seed
that only reorders them) then runs A, B, B, A for ``ROUNDS`` rounds, and
each side keeps its minimum time per query.

Per workload it prints the median of the per-query ratios B/A with their
first and third quartiles, the ratio of the summed minima, and how many
queries ran faster on B.  There is no latency gate: a difference under
about 5% is within what an A/A run (both sides the same tree) reads.  It
exits 1 when the hubs or any query's output differ between the sides.

``--stage0`` times stage 0 instead of the queries: each side loads the
snapshot, builds the graph and prepares routing (``STAGE0_STEPS``), A, B,
B, A for ``STAGE0_ROUNDS`` rounds, and keeps its minimum per step.  The
minima alone read a 5% step as noise when the machine is in a slow phase,
so each round also gives a ratio B/A per step, the lesser of its two B
times over the lesser of its two A times.  After the timing rounds, one
untimed pass per side traces the memory of each step with
``tracemalloc``: the bytes held after the step and the peak within it.
It prints each step's minima with their ratio B/A, the median of the
per-round ratios with their quartiles, and held and peak memory with
their ratios B/A, then the same for the sums (for memory, what stage 0
holds at its end and its peak), and exits 1 when the hubs differ.
``stage0_mib`` reads this checkout's memory alone, and
``stage0_peak_step`` a tree's memory with the step that sets its peak,
for CI's job summary; ``save_snapshot_mib`` reads the traced peak of
writing the market's snapshot.  ``tracemalloc`` sees only Python's own
allocations, not mapped file pages or what the allocator keeps, so
``reload_peak_rss_mb`` reads a tree's peak RSS in a fresh process that
builds a second stage 0 next to its first, as a router reloading a new
snapshot does.

Both sides share one process, and with it glibc's allocator state, such
as its dynamic mmap threshold, which a freed large block raises: a
change to large transient allocations moves the other side's memory and
time as well.  Time such a change in separate processes too (the
benchmark's runs, or ``reload_peak_rss_mb`` for memory).

    python scripts/ab_time.py --against ../parent/src
    python scripts/ab_time.py --against ../parent/src --stage0
"""

from __future__ import annotations

import argparse
import gc
import importlib
import importlib.util
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("retail", "whale", "dominance")
SIDE_A = "prime_router_a"
# rounds of A, B, B, A per query: about 25 s on a 2-core VM
ROUNDS = 6
STAGE0_STEPS = ("load_snapshot", "build_graph", "prepare_routing")
# rounds of A, B, B, A for --stage0: about 40 s on a 2-core VM
STAGE0_ROUNDS = 10
MIB = 1 << 20


def _import_paths() -> None:
    for path in (ROOT, os.path.join(ROOT, "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def import_tree(src: str, name: str = SIDE_A) -> Dict[str, object]:
    """The ``engine``, ``errors`` and ``io`` modules of the ``prime_router``
    package under ``src``, imported as the package ``name``."""
    for module in [m for m in sys.modules
                   if m == name or m.startswith(name + ".")]:
        del sys.modules[module]
    package = os.path.join(os.path.abspath(src), "prime_router")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(package, "__init__.py"),
        submodule_search_locations=[package])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return {part: importlib.import_module(f"{name}.{part}")
            for part in ("engine", "errors", "io")}


def own_tree() -> Dict[str, object]:
    """The ``engine`` and ``io`` modules of this checkout's ``prime_router``."""
    return {part: importlib.import_module(f"prime_router.{part}")
            for part in ("engine", "io")}


@contextmanager
def market_file(market) -> Iterator[str]:
    """The path of a snapshot of ``market``, deleted on exit."""
    from perfbench import workloads

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "market.json")
        workloads.write_market(market, path)
        yield path


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile (one value: itself)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def min_times(calls: Sequence[Callable[[], Optional[int]]], rounds: int
              ) -> Tuple[List[float], List[Optional[int]]]:
    """Each side's minimum time over ``rounds`` rounds of A, B, B, A, and
    the output of its last call."""
    best = [math.inf, math.inf]
    outputs: List[Optional[int]] = [None, None]
    for _ in range(rounds):
        for side in (0, 1, 1, 0):
            started = time.perf_counter()
            outputs[side] = calls[side]()
            best[side] = min(best[side], time.perf_counter() - started)
    return best, outputs


def run(market, against: str, rounds: int,
        sizes: Optional[Dict[str, int]] = None) -> dict:
    """Time every query of the market's sets on both sides.

    Returns ``{"hubs_equal": bool, "workloads": {name: [(qid, time A,
    time B, output A, output B), ...]}}``; the workloads are empty when the
    hubs differ.
    """
    from perfbench import queries as qgen
    from perfbench import workloads
    from prime_router import engine as engine_b
    from prime_router.errors import NoRouteError as no_route_b

    sizes = sizes or workloads.SET_SIZE
    side_a = import_tree(against)
    engine_a = side_a["engine"]
    with market_file(market) as path:
        _, st = workloads.build_stage0(path, market)
        graph_a = side_a["io"].load_snapshot(path).build_graph()
    ids = sorted(graph_a.tokens)
    prepared_a = engine_a.prepare_routing(graph_a, engine_a.RouteQuery(
        ids[0], ids[1], 1, max_hops=market.max_hops, hub_count=market.hubs))
    result = {"hubs_equal": list(prepared_a.hubs) == list(st.prepared.hubs),
              "workloads": {}}
    if not result["hubs_equal"]:
        return result

    def caller(engine, no_route, graph, prepared, q):
        query = engine.RouteQuery(q.source, q.target, q.amount,
                                  max_hops=market.max_hops,
                                  hub_count=market.hubs)

        def call() -> Optional[int]:
            try:
                return engine.prime(graph, query, prepared).total_output
            except no_route:
                return None
        return call

    for name in WORKLOADS:
        chosen = qgen.query_set(name, st.snapshot.pools, st.prepared.pruned,
                                st.prepared.hubs, market.max_hops,
                                sizes[name], seed=0)
        rows = []
        for q in sorted(chosen, key=lambda q: q.qid):
            calls = (caller(engine_a, side_a["errors"].NoRouteError,
                            graph_a, prepared_a, q),
                     caller(engine_b, no_route_b, st.graph, st.prepared, q))
            (time_a, time_b), (out_a, out_b) = min_times(calls, rounds)
            rows.append((q.qid, time_a, time_b, out_a, out_b))
        result["workloads"][name] = rows
    return result


def stage0_times(modules: Dict[str, object], path: str, market
                 ) -> Tuple[List[float], List[str]]:
    """One side's seconds per ``STAGE0_STEPS`` step on the snapshot at
    ``path``, and its hubs.  Each build starts from a collected heap,
    untimed, as the benchmark's does."""
    io, engine = modules["io"], modules["engine"]
    gc.collect()
    marks = [time.perf_counter()]
    snap = io.load_snapshot(path)
    marks.append(time.perf_counter())
    graph = snap.build_graph()
    marks.append(time.perf_counter())
    ids = sorted(graph.tokens)
    prepared = engine.prepare_routing(graph, engine.RouteQuery(
        ids[0], ids[1], 1, max_hops=market.max_hops, hub_count=market.hubs))
    marks.append(time.perf_counter())
    return [b - a for a, b in zip(marks, marks[1:])], list(prepared.hubs)


def stage0_memory(modules: Dict[str, object], path: str, market
                  ) -> List[Tuple[int, int]]:
    """One side's traced ``(bytes held after, peak bytes within)`` per
    ``STAGE0_STEPS`` step, from a collected heap.  What a step holds
    includes what the steps before it built."""
    io, engine = modules["io"], modules["engine"]
    gc.collect()
    steps = []
    tracemalloc.start()
    try:
        snap = io.load_snapshot(path)
        steps.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        graph = snap.build_graph()
        steps.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        ids = sorted(graph.tokens)
        # held while read: stage 0 keeps the snapshot, graph and core
        prepared = engine.prepare_routing(graph, engine.RouteQuery(
            ids[0], ids[1], 1, max_hops=market.max_hops,
            hub_count=market.hubs))
        steps.append(tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return steps


def stage0_mib(market=None) -> Tuple[float, float]:
    """This checkout's traced stage 0 on ``market`` (criterion 7's by
    default), in MiB: what it holds after ``prepare_routing``, and its
    peak over the three steps."""
    held, peak, _ = stage0_peak_step(market)
    return held, peak


def stage0_peak_step(market=None, src: Optional[str] = None
                     ) -> Tuple[float, float, str]:
    """``stage0_mib`` of the tree under ``src`` (this checkout's by
    default), and the ``STAGE0_STEPS`` step whose peak is stage 0's: a
    change that moves the peak to another step shows on every push."""
    _import_paths()
    from perfbench import workloads

    market = market or workloads.CRITERION_7_MARKET
    modules = own_tree() if src is None else import_tree(src)
    with market_file(market) as path:
        steps = stage0_memory(modules, path, market)
    step, (_, peak) = max(zip(STAGE0_STEPS, steps), key=lambda s: s[1][1])
    return steps[-1][0] / MIB, peak / MIB, step


def save_snapshot_mib(market=None) -> float:
    """This checkout's traced peak, in MiB, while ``save_snapshot`` writes
    ``market`` (criterion 7's by default), generated before the trace."""
    _import_paths()
    from perfbench import workloads

    market = market or workloads.CRITERION_7_MARKET
    io = own_tree()["io"]
    snap = io.generate_synthetic(market.seed, market.tokens, market.pools,
                                 hub_fraction=market.hub_fraction,
                                 reserve_spread_orders=market.spread_orders)
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            io.save_snapshot(snap, os.path.join(tmp, "market.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / MIB


def reload_peak_rss_mb(src: Optional[str] = None, market=None) -> float:
    """The peak RSS, in MB, of a fresh process that builds stage 0 of the
    tree under ``src`` (this checkout's by default) from a snapshot of
    ``market`` (criterion 7's by default), then loads, builds and
    prepares a second stage 0 while keeping the first.  The snapshot is
    written by this process, so the reading is the reload's alone."""
    _import_paths()
    from perfbench import workloads

    market = market or workloads.CRITERION_7_MARKET
    code = (f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r});"
            f" import ab_time; ab_time._reload(*sys.argv[1:])")
    with market_file(market) as path:
        out = subprocess.run(
            [sys.executable, "-c", code, path, src or "",
             str(market.max_hops), str(market.hubs)],
            check=True, capture_output=True, text=True).stdout
    return float(out)


def _reload(path: str, src: str, max_hops: str, hubs: str) -> None:
    """``reload_peak_rss_mb``'s process: print its peak RSS in MB after
    two stage 0s of the tree under ``src`` (this checkout's when empty)
    from the snapshot at ``path``, both kept."""
    _import_paths()
    modules = import_tree(src) if src else own_tree()
    io, engine = modules["io"], modules["engine"]
    kept = []
    for _ in range(2):
        snap = io.load_snapshot(path)
        graph = snap.build_graph()
        ids = sorted(graph.tokens)
        kept.append((snap, engine.prepare_routing(graph, engine.RouteQuery(
            ids[0], ids[1], 1, max_hops=int(max_hops),
            hub_count=int(hubs)))))
    # ru_maxrss is in KiB on Linux
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def run_stage0(market, against: str, rounds: int) -> dict:
    """Time stage 0 on both sides, A, B, B, A for ``rounds`` rounds, then
    trace each side's memory in one untimed pass.

    Returns ``{"hubs_equal": bool, "steps": [(step, min A, min B), ...],
    "ratios": [(step, [B/A per round, ...]), ...], "memory": [(step,
    (held A, peak A), (held B, peak B)), ...]}``, memory in bytes.  A
    round's ratio is the lesser of its two B times over the lesser of its
    two A times: a build the machine slowed down is dropped, and a drift
    that spans rounds cancels.  The ratios end with stage 0's, over the
    sums of the steps.
    """
    sides = (import_tree(against), own_tree())
    best = [[math.inf] * len(STAGE0_STEPS) for _ in sides]
    hubs: List[List[str]] = [[], []]
    ratios: List[List[float]] = [[] for _ in range(len(STAGE0_STEPS) + 1)]
    with market_file(market) as path:
        for _ in range(rounds):
            # each side's least time per step, and per stage 0, this round
            least = [[math.inf] * len(ratios) for _ in sides]
            for side in (0, 1, 1, 0):
                times, hubs[side] = stage0_times(sides[side], path, market)
                best[side] = [min(pair) for pair in zip(best[side], times)]
                least[side] = [min(pair) for pair in zip(
                    least[side], times + [sum(times)])]
            for step, (a, b) in enumerate(zip(*least)):
                ratios[step].append(b / a)
        memory = [stage0_memory(side, path, market) for side in sides]
    return {"hubs_equal": hubs[0] == hubs[1],
            "steps": list(zip(STAGE0_STEPS, *best)),
            "ratios": list(zip(STAGE0_STEPS + ("stage 0",), ratios)),
            "memory": list(zip(STAGE0_STEPS, *memory))}


def report_stage0(result: dict) -> int:
    """Print each stage-0 step's minima and the ratio B/A of its minima, the
    median of its per-round ratios B/A with their quartiles, and its held
    and peak memory with their ratios; 1 when the hubs differ, else 0."""
    steps, memory = result["steps"], result["memory"]
    rows = steps + [("stage 0", sum(a for _, a, _ in steps),
                     sum(b for *_, b in steps))]
    # stage 0 holds what its last step holds, and peaks at its highest step
    total = [(memory[-1][side][0], max(m[side][1] for m in memory))
             for side in (1, 2)]
    memory = memory + [("stage 0", *total)]
    for (step, a, b), (_, ratios), (_, (held_a, peak_a), (held_b, peak_b)) \
            in zip(rows, result["ratios"], memory):
        q1, median, q3 = quartiles(ratios)
        print(f"{step}: A {a:.4f} s, B {b:.4f} s, B/A {b / a:.3f}; "
              f"per round B/A median {median:.3f} (q1 {q1:.3f}, q3 {q3:.3f}, "
              f"{len(ratios)} rounds); "
              f"held A {held_a / MIB:.2f} MiB, B {held_b / MIB:.2f} MiB, "
              f"B/A {held_b / held_a:.3f}; "
              f"peak A {peak_a / MIB:.2f} MiB, B {peak_b / MIB:.2f} MiB, "
              f"B/A {peak_b / peak_a:.3f}")
    if not result["hubs_equal"]:
        print("hubs differ: the two stage 0s would route different cores")
        return 1
    return 0


def report(result: dict) -> int:
    """Print the ratios; 1 when the hubs or any output differ, else 0."""
    if not result["hubs_equal"]:
        print("hubs differ: the two stage 0s would route different cores")
        return 1
    differing = []
    for name, rows in result["workloads"].items():
        ratios = [b / a for _, a, b, _, _ in rows]
        q1, median, q3 = quartiles(ratios)
        total_a = sum(a for _, a, _, _, _ in rows)
        total_b = sum(b for _, _, b, _, _ in rows)
        faster = sum(b < a for _, a, b, _, _ in rows)
        print(f"{name}: {len(rows)} queries, B/A median {median:.3f} "
              f"(q1 {q1:.3f}, q3 {q3:.3f}), total {total_b / total_a:.3f} "
              f"({1e3 * total_a:.1f} -> {1e3 * total_b:.1f} ms), "
              f"B faster on {faster}")
        differing += [f"{name}:{qid}" for qid, _, _, out_a, out_b in rows
                      if out_a != out_b]
    if differing:
        print(f"outputs differ on {len(differing)} queries: "
              + " ".join(differing))
        return 1
    return 0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", required=True,
                    help="prime_router sources of side A")
    ap.add_argument("--stage0", action="store_true",
                    help="time stage 0's steps instead of the queries")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    _import_paths()
    from perfbench import workloads

    market = workloads.CRITERION_7_MARKET
    if args.stage0:
        return report_stage0(run_stage0(market, args.against,
                                        STAGE0_ROUNDS))
    return report(run(market, args.against, ROUNDS))


if __name__ == "__main__":
    sys.exit(main())
