"""Span recording around the calls into each layer of prime_router.

The program itself carries no spans.  ``Tracer`` installs wrappers in the
namespace of the module that makes a call (``engine.find_path`` is the name
``prime`` looks up, ``baselines.find_path`` the one ``best_single_path``
looks up), so every call a layer makes into another layer is recorded.  Each
span holds its name, start, end, parent span and the query it served, plus a
few values read from the call's arguments and result.  The hottest functions
(``path_output`` and every curve's ``swap_out``) only get counters.

Spans stay in memory until the run ends; ``write_spans`` dumps them.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from prime_router import allocation, baselines, cfmm, cli, engine, io as pio

NO_PARENT = -1


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    qid: Optional[int]
    attrs: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self.query_id: Optional[int] = None
        self._stack: List[int] = []
        # swap_out / path_output calls count only inside a routing query,
        # not inside stage 0 or the benchmark's own checks
        self._counting = False

    def _span(self, name: str, fn: Callable,
              annotate: Optional[Callable] = None,
              counting: Optional[bool] = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, time.perf_counter(), 0.0,
                        tracer._stack[-1] if tracer._stack else NO_PARENT,
                        tracer.query_id)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            saved = tracer._counting
            if counting is not None:
                tracer._counting = counting
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._counting = saved
                tracer._stack.pop()
            if annotate is not None:
                span.attrs = annotate(args, kwargs, result)
            return result
        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        tracer = self
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._counting:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patches(self) -> List[Tuple[object, str, Callable]]:
        """(namespace, attribute, wrapper) for every traced call site."""
        s, c = self._span, self._counter
        traced_prime = s("engine.prime", engine.prime, _prime_attrs,
                         counting=True)
        return [
            (engine, "prime", traced_prime),
            (cli, "prime", traced_prime),
            (engine, "prepare_routing",
             s("engine.prepare_routing", engine.prepare_routing,
               _prepared_attrs, counting=False)),
            (engine, "select_hubs",
             s("preprocess.select_hubs", engine.select_hubs)),
            (engine, "prune_leaf_tokens",
             s("graph.prune_leaf_tokens", engine.prune_leaf_tokens)),
            (engine, "build_shortcut_index",
             s("preprocess.build_shortcut_index", engine.build_shortcut_index)),
            (engine, "find_path",
             s("pathfind.find_path", engine.find_path, _search_attrs)),
            (engine, "asgm", s("allocation.asgm", engine.asgm, _asgm_attrs)),
            (engine, "merge_and_expand",
             s("engine.merge_and_expand", engine.merge_and_expand)),
            (engine, "build_execution_plan",
             s("engine.build_execution_plan", engine.build_execution_plan)),
            (engine, "verify_solution",
             s("engine.verify_solution", engine.verify_solution,
               counting=False)),
            (allocation, "optimize_path_edges",
             s("allocation.optimize_path_edges",
               allocation.optimize_path_edges)),
            (allocation, "path_output",
             c("allocation.path_output", allocation.path_output)),
            (baselines, "best_single_path",
             s("baselines.best_single_path", baselines.best_single_path)),
            (baselines, "prune_leaf_tokens",
             s("baselines.prune_leaf_tokens", baselines.prune_leaf_tokens)),
            (baselines, "find_path",
             s("baselines.find_path", baselines.find_path)),
            (pio, "load_snapshot", s("io.load_snapshot", pio.load_snapshot)),
            (pio, "build_graph", s("graph.build_graph", pio.build_graph)),
            (pio, "dumps_solution",
             s("io.dumps_solution", pio.dumps_solution, counting=False)),
            (cli, "main", s("cli.main", cli.main)),
            (cfmm.ConstantProduct, "swap_out",
             c("cfmm.swap_out.constant_product", cfmm.ConstantProduct.swap_out)),
            (cfmm.PiecewiseLiquidity, "swap_out",
             c("cfmm.swap_out.piecewise", cfmm.PiecewiseLiquidity.swap_out)),
            (cfmm.SequentialComposite, "swap_out",
             c("cfmm.swap_out.composite", cfmm.SequentialComposite.swap_out)),
        ]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every traced call site; restore the originals on exit."""
        originals = []
        try:
            for owner, attr, wrapper in self._patches():
                originals.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

    @contextmanager
    def query(self, qid: int) -> Iterator[None]:
        self.query_id = qid
        try:
            yield
        finally:
            self.query_id = None


def _prime_attrs(args, kwargs, sol) -> Dict[str, float]:
    return {"paths": sol.stats.paths_discovered}


def _prepared_attrs(args, kwargs, prepared) -> Dict[str, float]:
    index = prepared.shortcut_index
    return {"pruned_pools": len(prepared.pruned.pools),
            "shortcuts": len(index) if index is not None else 0}


def _search_attrs(args, kwargs, found) -> Dict[str, float]:
    # engine calls find_path(view, source, target, amount, tau, max_hops,
    # masked, stats); stage 1 accepts a gated result only above tau
    tau, stats = args[4], args[7]
    return {"tau": tau, "found": float(found is not None),
            "accepted": float(found is not None and found.spot_rate > tau),
            "pushes": stats.pushes, "pops": stats.pops,
            "swap_evals": stats.swap_evals}


def _asgm_attrs(args, kwargs, result) -> Dict[str, float]:
    # stage 2 is the only caller seeding per-edge weights
    return {"stage": 2 if "initial_edge_weights" in kwargs else 1,
            "iterations": result.iterations,
            "degraded": float(result.degraded)}


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus its children's durations.

    The wrappers run synchronously on one thread, so a span's children
    never overlap each other or outlive their parent.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent != NO_PARENT:
            out[s.parent] -= s.duration
    return out


def write_spans(spans: List[Span], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent,
                                 "query": s.qid, **s.attrs}) + "\n")


# (metric, unit) in report order; the README maps each layer to the
# end-to-end metric and workload it should move
LAYER_METRICS: Tuple[Tuple[str, str], ...] = (
    ("pathfind.first.ms_per_query", "ms"),
    ("pathfind.gated.ms_per_query", "ms"),
    ("pathfind.gated.calls_per_query", "count"),
    ("pathfind.gated.accept_ratio", "ratio"),
    ("pathfind.pushes_per_query", "count"),
    ("pathfind.pops_per_query", "count"),
    ("pathfind.swap_evals_per_query", "count"),
    ("allocation.asgm.stage1.ms_per_query", "ms"),
    ("allocation.asgm.stage2.ms_per_query", "ms"),
    ("allocation.asgm.iterations_per_query", "count"),
    ("allocation.optimize_path_edges.ms_per_query", "ms"),
    ("allocation.path_output.calls_per_query", "count"),
    ("allocation.degraded_rate", "ratio"),
    ("engine.prime.self_ms_per_query", "ms"),
    ("engine.merge_and_expand.ms_per_query", "ms"),
    ("engine.build_execution_plan.ms_per_query", "ms"),
    ("engine.verify_solution.ms_per_query", "ms"),
    ("engine.paths_per_query", "count"),
    ("cfmm.swap_out.calls_per_query.constant_product", "count"),
    ("cfmm.swap_out.calls_per_query.piecewise", "count"),
    ("cfmm.swap_out.calls_per_query.composite", "count"),
    ("io.load_snapshot.s", "s"),
    ("graph.build_graph.s", "s"),
    ("graph.prune_leaf_tokens.s", "s"),
    ("preprocess.select_hubs.s", "s"),
    ("preprocess.build_shortcut_index.s", "s"),
    ("engine.prepare_routing.self_s", "s"),
    ("io.dumps_solution.ms", "ms"),
    ("cli.main.self_s", "s"),
    ("graph.pruned_pools", "count"),
    ("preprocess.shortcuts", "count"),
    ("baselines.best_single_path.self_ms_per_query", "ms"),
    ("baselines.prune_leaf_tokens.ms_per_query", "ms"),
    ("baselines.find_path.ms_per_query", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

# layer groups whose time adds up to a traced client call, for the shares
_SHARE_GROUPS = {
    "stage0": ("io.load_snapshot", "graph.build_graph",
               "engine.prepare_routing"),
    "pathfind": ("pathfind.find_path",),
    "allocation": ("allocation.asgm",),
    "baselines": ("baselines.best_single_path",),
}
_SELF_GROUPS = {"engine": ("engine.prime", "engine.merge_and_expand",
                           "engine.build_execution_plan"),
                "cli": ("cli.main",)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, n_queries: int,
                  overhead_ratio: float) -> Dict[str, float]:
    """Per-layer figures from the spans and counters of a traced run.

    ``*_per_query`` figures cover the spans recorded while a query was
    active, divided by ``n_queries``.  Stage-0 figures (``.s``) are means
    over every stage-0 call recorded, whether the benchmark's own set-up or
    a cold ``route`` call made it.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def queried(name: str) -> List[int]:
        return [i for i in by_name.get(name, ()) if spans[i].qid is not None]

    def per_query_ms(idx: List[int], self_time: bool = False) -> float:
        total = sum(selfs[i] if self_time else spans[i].duration for i in idx)
        return _ratio(1e3 * total, n_queries)

    def mean(name: str, self_time: bool = False) -> float:
        idx = by_name.get(name, [])
        total = sum(selfs[i] if self_time else spans[i].duration for i in idx)
        return _ratio(total, len(idx))

    def attr_per_query(idx: List[int], key: str) -> float:
        return _ratio(sum(spans[i].attrs.get(key, 0.0) for i in idx),
                      n_queries)

    # the first search of each prime call runs at tau = 0; the rest are
    # the threshold-gated ones
    first, gated, seen = [], [], set()
    for i in queried("pathfind.find_path"):
        (gated if spans[i].parent in seen else first).append(i)
        seen.add(spans[i].parent)
    searches = first + gated
    asgm_calls = queried("allocation.asgm")
    stage1 = [i for i in asgm_calls if spans[i].attrs.get("stage") == 1]
    stage2 = [i for i in asgm_calls if spans[i].attrs.get("stage") == 2]
    prepared = by_name.get("engine.prepare_routing", [])
    last_prep = spans[prepared[-1]].attrs if prepared else {}
    counts = {name: _ratio(n, n_queries) for name, n in tracer.counts.items()}

    return {
        "pathfind.first.ms_per_query": per_query_ms(first),
        "pathfind.gated.ms_per_query": per_query_ms(gated),
        "pathfind.gated.calls_per_query": _ratio(len(gated), n_queries),
        "pathfind.gated.accept_ratio": _ratio(
            sum(spans[i].attrs.get("accepted", 0.0) for i in gated),
            len(gated)),
        "pathfind.pushes_per_query": attr_per_query(searches, "pushes"),
        "pathfind.pops_per_query": attr_per_query(searches, "pops"),
        "pathfind.swap_evals_per_query": attr_per_query(searches, "swap_evals"),
        "allocation.asgm.stage1.ms_per_query": per_query_ms(stage1),
        "allocation.asgm.stage2.ms_per_query": per_query_ms(stage2),
        "allocation.asgm.iterations_per_query":
            attr_per_query(asgm_calls, "iterations"),
        "allocation.optimize_path_edges.ms_per_query":
            per_query_ms(queried("allocation.optimize_path_edges")),
        "allocation.path_output.calls_per_query":
            counts.get("allocation.path_output", 0.0),
        "allocation.degraded_rate": attr_per_query(stage2, "degraded"),
        "engine.prime.self_ms_per_query":
            per_query_ms(queried("engine.prime"), self_time=True),
        "engine.merge_and_expand.ms_per_query":
            per_query_ms(queried("engine.merge_and_expand")),
        "engine.build_execution_plan.ms_per_query":
            per_query_ms(queried("engine.build_execution_plan")),
        "engine.verify_solution.ms_per_query":
            per_query_ms(queried("engine.verify_solution")),
        "engine.paths_per_query": attr_per_query(queried("engine.prime"),
                                                 "paths"),
        "cfmm.swap_out.calls_per_query.constant_product":
            counts.get("cfmm.swap_out.constant_product", 0.0),
        "cfmm.swap_out.calls_per_query.piecewise":
            counts.get("cfmm.swap_out.piecewise", 0.0),
        "cfmm.swap_out.calls_per_query.composite":
            counts.get("cfmm.swap_out.composite", 0.0),
        "io.load_snapshot.s": mean("io.load_snapshot"),
        "graph.build_graph.s": mean("graph.build_graph"),
        "graph.prune_leaf_tokens.s": mean("graph.prune_leaf_tokens"),
        "preprocess.select_hubs.s": mean("preprocess.select_hubs"),
        "preprocess.build_shortcut_index.s":
            mean("preprocess.build_shortcut_index"),
        "engine.prepare_routing.self_s":
            mean("engine.prepare_routing", self_time=True),
        "io.dumps_solution.ms": 1e3 * mean("io.dumps_solution"),
        "cli.main.self_s": mean("cli.main", self_time=True),
        "graph.pruned_pools": float(last_prep.get("pruned_pools", 0)),
        "preprocess.shortcuts": float(last_prep.get("shortcuts", 0)),
        "baselines.best_single_path.self_ms_per_query":
            per_query_ms(queried("baselines.best_single_path"), self_time=True),
        "baselines.prune_leaf_tokens.ms_per_query":
            per_query_ms(queried("baselines.prune_leaf_tokens")),
        "baselines.find_path.ms_per_query":
            per_query_ms(queried("baselines.find_path")),
        "trace.overhead_ratio": overhead_ratio,
    }


def layer_shares(tracer: Tracer) -> Dict[str, float]:
    """Share of traced query time spent in each layer group.

    The groups partition the client call: stage 0, the searches, the
    allocator and the baseline by total time, the engine's own code and the
    CLI by self time.  Time in the benchmark's checks is left out.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    totals = {}
    for group, names in _SHARE_GROUPS.items():
        totals[group] = sum(s.duration for s in spans
                            if s.qid is not None and s.name in names)
    for group, names in _SELF_GROUPS.items():
        totals[group] = sum(selfs[i] for i, s in enumerate(spans)
                            if s.qid is not None and s.name in names)
    whole = sum(totals.values())
    return {group: _ratio(t, whole) for group, t in totals.items()}
