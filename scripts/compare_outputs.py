#!/usr/bin/env python3
"""Per-query comparison of prime's outputs between two source trees.

``--out FILE`` builds the criterion-7 market and its stage 0 through
``perfbench.workloads``, routes the fixed retail, whale and dominance query
sets (fixed: a workload seed only reorders them) at each of ``MULTIPLES``
times every query's amount, and writes one JSON record per
query: its output (null for no route), the audit of its plan, a sha256 of
its result JSON with ``stats`` removed, and its work counts, then the same
output and sha256 of the checker, ``baselines.best_single_path``: 92
queries at 1x, 3x and 10x, 276 in all.  Next to the records it writes a
sha256 of stage 0 itself: the hubs and every hub-core row, which holds
every shortcut edge.
``--src`` names the ``prime_router`` sources to route with, so a second
checkout can be recorded with this script too:

    python scripts/compare_outputs.py --src ../parent/src --out parent.json
    python scripts/compare_outputs.py --out new.json --against parent.json

``--against FILE`` compares the run (or, without ``--out``, the records in
``--load``) with FILE.  It prints how many outputs are equal, rose, fell or
are newly routed, how many routed results changed beyond their stats, how
many routed records' work counts (their ``stats``, over the keys both sides
have) changed, whether stage 0 changed (``stage0_changed``), how many
checker results changed (``osp_changed``), how many stage-1 objectives fell
at the same refresh, how many queries prime leaves below the checker
(``below_osp``: no route or a lower output where the checker routes), how
many routed records' gated work rose (``work_rose``: swap evals, queue
pushes or allocator steps, the counts the benchmark bounds), the work keys
only one side has, and the mean work counts per workload, pooled over the
multiples and then per multiple (the benchmark's gated counts are the 1x
ones).  It exits 1 when any output fell (a query that stops routing counts
as fallen), any plan failed its audit or any checker result changed; a rise
in work is reported, not failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("retail", "whale", "dominance")
MULTIPLES = (1, 3, 10)


def _import_paths(src: str) -> None:
    for path in (ROOT, src):
        if path not in sys.path:
            sys.path.insert(0, path)


def _record(st, name: str, q, multiple: int) -> dict:
    from prime_router import baselines, engine, io
    from prime_router.errors import NoRouteError

    amount = q.amount * multiple
    rec = {"key": f"{name}:{q.qid}:x{multiple}", "source": q.source,
           "target": q.target, "amount": str(amount), "output": None,
           "audit": None, "result_sha256": None, "work": None,
           "osp_output": None, "osp_sha256": None}
    query = engine.RouteQuery(source=q.source, target=q.target, amount=amount,
                              max_hops=st.market.max_hops,
                              hub_count=st.market.hubs)

    def solve(router, *args):
        """The solution, its ``stats`` and a sha256 of the rest of its
        result JSON, or None for no route."""
        try:
            sol = router(st.graph, query, *args)
        except NoRouteError:
            return None
        result = io.solution_to_dict(sol)
        work = result.pop("stats")
        digest = hashlib.sha256(json.dumps(result, sort_keys=True).encode())
        return sol, work, digest.hexdigest()

    routed = solve(engine.prime, st.prepared)
    if routed is not None:
        sol, work, digest = routed
        report = engine.verify_solution(sol, st.graph)
        rec.update(output=str(sol.total_output),
                   audit="; ".join(report.violations) or "ok",
                   result_sha256=digest, work=work)
    osp = solve(baselines.best_single_path)
    if osp is not None:
        sol, _, digest = osp
        rec.update(osp_output=str(sol.total_output), osp_sha256=digest)
    return rec


def stage0_digest(prepared) -> str:
    """sha256 of the hubs and every hub-core row: the neighbour, then each
    candidate's id, pool ids and exact spot.  The core holds every shortcut
    edge, and nothing else of stage 0 is read, so a checkout that kept its
    shortcuts in a separate index as well digests the same way."""
    core = [[h, [[v, [[e.pool_id, e.pool_ids, e.spot] for e in candidates]]
                 for v, candidates in prepared.core.out_items(h)]]
            for h in prepared.hubs]
    # json writes a float as its repr, which round-trips exactly
    payload = json.dumps([prepared.hubs, core])
    return hashlib.sha256(payload.encode()).hexdigest()


def record(market, multiples: Sequence[int],
           sizes: Optional[Dict[str, int]] = None) -> dict:
    """Route every query of the market's sets, one record per query, next
    to the stage-0 digest."""
    from perfbench import queries as qgen
    from perfbench import workloads

    sizes = sizes or workloads.SET_SIZE
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "market.json")
        workloads.write_market(market, path)
        _, st = workloads.build_stage0(path, market)
    records = []
    for name in WORKLOADS:
        chosen = qgen.query_set(name, st.snapshot.pools, st.prepared.pruned,
                                st.prepared.hubs, market.max_hops,
                                sizes[name], seed=0)
        for q in sorted(chosen, key=lambda q: q.qid):
            for m in multiples:
                records.append(_record(st, name, q, m))
    return {"stage0_sha256": stage0_digest(st.prepared), "records": records}


def allocator_steps(work: dict) -> int:
    """The benchmark's count: stage-2 iterations plus one per refresh and
    one for the stage-2 call."""
    return work["asgm_iterations"] + len(work["stage1_taus"]) + 1


def gated_work(work: dict) -> Tuple[int, int, int]:
    """A record's work counts that the benchmark bounds: swap evals, queue
    pushes and allocator steps."""
    return work["swap_evals"], work["queue_pushes"], allocator_steps(work)


def below_osp(records: Sequence[dict]) -> int:
    """Records where the checker routes and prime does not, or routes
    less."""
    return sum(r.get("osp_output") is not None
               and (r["output"] is None
                    or int(r["output"]) < int(r["osp_output"]))
               for r in records)


def compare(new: dict, old: dict) -> Dict[str, int]:
    """Counts of equal, risen, fallen, newly routed and unrouted queries,
    routed results that changed, failed audits, routed records whose work
    (their ``stats``, over the keys both records have) changed, a changed
    stage 0 (0 or 1), changed checker results, the new records below the
    checker (``below_osp``), stage-1 objectives below the old one's at the
    same refresh, and routed records whose ``gated_work`` rose in any count
    (``work_rose``)."""
    before = {r["key"]: r for r in old["records"]}
    counts = dict.fromkeys(("equal", "risen", "fallen", "newly_routed",
                            "unrouted", "result_changed", "audit_failed",
                            "work_changed", "stage0_changed", "osp_changed",
                            "below_osp", "stage1_compared", "stage1_fallen",
                            "missing", "work_rose"), 0)
    counts["stage0_changed"] = int(new["stage0_sha256"]
                                   != old["stage0_sha256"])
    counts["below_osp"] = below_osp(new["records"])
    for r in new["records"]:
        if r["audit"] not in (None, "ok"):
            counts["audit_failed"] += 1
        o = before.get(r["key"])
        if o is None:
            counts["missing"] += 1
            continue
        counts["osp_changed"] += r.get("osp_sha256") != o.get("osp_sha256")
        if r["output"] is None:
            counts["fallen" if o["output"] is not None else "unrouted"] += 1
            continue
        if o["output"] is None:
            counts["newly_routed"] += 1
            continue
        a, b = int(r["output"]), int(o["output"])
        counts["equal" if a == b else "risen" if a > b else "fallen"] += 1
        counts["result_changed"] += r["result_sha256"] != o["result_sha256"]
        shared = r["work"].keys() & o["work"].keys()
        counts["work_changed"] += any(r["work"][k] != o["work"][k]
                                      for k in shared)
        counts["work_rose"] += any(
            a > b for a, b in zip(gated_work(r["work"]), gated_work(o["work"])))
        for x, y in zip(r["work"]["stage1_objectives"],
                        o["work"]["stage1_objectives"]):
            counts["stage1_compared"] += 1
            counts["stage1_fallen"] += int(x) < int(y)
    return counts


def unshared_work_keys(new: dict, old: dict) -> Tuple[List[str], List[str]]:
    """The work keys that only the new records have, and only the old."""
    def keys(run: dict) -> set:
        return {k for r in run["records"] if r["work"] is not None
                for k in r["work"]}
    ours, theirs = keys(new), keys(old)
    return sorted(ours - theirs), sorted(theirs - ours)


def multiple_of(key: str) -> int:
    """The amount multiple a record key ends with (``retail:7:x3`` -> 3)."""
    return int(key.rsplit(":x", 1)[1])


def work_table(records: Sequence[dict], multiple: Optional[int] = None
               ) -> Dict[str, Dict[str, float]]:
    """Mean work per routed query of each workload, over every multiple or
    over the records of one."""
    table: Dict[str, Dict[str, float]] = {}
    for name in WORKLOADS:
        works = [r["work"] for r in records
                 if r["key"].startswith(name + ":") and r["work"] is not None
                 and multiple in (None, multiple_of(r["key"]))]
        if not works:
            continue
        n = len(works)
        table[name] = {
            "routed": n,
            "swap_evals": sum(w["swap_evals"] for w in works) / n,
            # records of a tree without the closed-form skip have no key
            "quotes_skipped": sum(w.get("quotes_skipped", 0)
                                  for w in works) / n,
            "pushes": sum(w["queue_pushes"] for w in works) / n,
            "allocator_steps": sum(allocator_steps(w) for w in works) / n,
        }
    return table


def report(new: dict, old: dict) -> int:
    """Print the comparison; 1 when an output fell, a plan failed its
    audit or a checker result changed, else 0.  A reader that leaves early
    (``| head -1``) cuts the printing short, not the status."""
    counts = compare(new, old)
    lines = [" ".join(f"{k}={v}" for k, v in counts.items())]
    added, dropped = unshared_work_keys(new, old)
    lines.append(f"work keys added: {' '.join(added) or '-'}; "
                 f"dropped: {' '.join(dropped) or '-'}")
    # pooled over the multiples, then per multiple: the benchmark's gated
    # work counts are the 1x ones
    multiples = sorted({multiple_of(r["key"])
                        for run in (new, old) for r in run["records"]})
    for label, multiple in [("", None)] + [(f" x{m}", m) for m in multiples]:
        tables = (work_table(old["records"], multiple),
                  work_table(new["records"], multiple))
        for name in WORKLOADS:
            was, now = (t.get(name, {}) for t in tables)
            cells = [f"{k} {was.get(k, 0):.6g} -> {now.get(k, 0):.6g}"
                     for k in ("routed", "swap_evals", "quotes_skipped",
                               "pushes", "allocator_steps")]
            lines.append(f"{name}{label}: " + ", ".join(cells))
    try:
        print("\n".join(lines), flush=True)
    except BrokenPipeError:
        # point stdout at devnull, or the flush at exit raises again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    failed = ("fallen", "audit_failed", "osp_changed")
    return 1 if any(counts[k] for k in failed) else 0


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="prime_router sources to route with")
    ap.add_argument("--out", help="route the queries and write the records")
    ap.add_argument("--load", help="records to compare instead of routing")
    ap.add_argument("--against", help="records to compare with")
    args = ap.parse_args(argv)
    if bool(args.out) == bool(args.load):
        ap.error("give exactly one of --out and --load")
    if args.load and not args.against:
        ap.error("--load needs --against")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.out:
        _import_paths(os.path.abspath(args.src))
        from perfbench import workloads

        run = record(workloads.CRITERION_7_MARKET, MULTIPLES)
        with open(args.out, "w") as fh:
            json.dump(run, fh, indent=1)
        print(f"wrote {len(run['records'])} records to {args.out}")
    else:
        with open(args.load) as fh:
            run = json.load(fh)
    if not args.against:
        return 0
    with open(args.against) as fh:
        return report(run, json.load(fh))


if __name__ == "__main__":
    sys.exit(main())
