"""Command-line entry points: route queries, benchmarking, instance generation.

Exit codes: 0 success, 1 input, configuration or usage error, 2 no route.
The env var PRIME_LOG selects the log level (DEBUG/INFO/WARNING/...).
"""

from __future__ import annotations

import argparse
import csv
import functools
import inspect
import logging
import os
import sys
import time
from typing import List, Optional, Sequence

from .allocation import AsgmParams, asgm, objective
from .baselines import best_single_path
from .engine import RouteQuery, RouteStats, prepare_routing, prime
from .errors import InvalidParamsError, NoRouteError, RoutingError
from . import io as pio

log = logging.getLogger("prime_router.cli")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NO_ROUTE = 2

ALGORITHMS = ("prime", "osp")

# the bench CSV's columns: these, then every scalar RouteStats field, named
# as in the result JSON's stats
_BENCH_COLUMNS = ["snapshot", "source", "target", "amount", "algorithm",
                  "repetition", "output", "bp_vs_baseline", "wall_time_ms"]
_STAT_COLUMNS = [name for name, value in vars(RouteStats()).items()
                 if not isinstance(value, list)]


def _setup_logging() -> None:
    level = os.environ.get("PRIME_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _parse_decimal(text: str, what: str) -> int:
    """ASCII digits only, as in snapshot amounts; ``str.isdigit`` alone also
    passes fullwidth, Arabic-Indic and superscript digits."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"{what} must be a decimal integer string, got {text!r}")
    return int(text)


def _parse_amount(text: str) -> int:
    value = _parse_decimal(text, "amount")
    if value <= 0:
        raise ValueError("amount must be positive")
    return value


def _parse_hubs(text: Optional[str]):
    """Either a hub count or an explicit comma-separated token-id list."""
    if text is None:
        return RouteQuery.hub_count, None
    if text.isdigit():
        return _parse_decimal(text, "hub count"), None
    hubs = tuple(h.strip() for h in text.split(",") if h.strip())
    if not hubs:
        raise ValueError("empty hub list")
    return len(hubs), hubs


def _build_query(args, source: str, target: str, amount: int) -> RouteQuery:
    hub_count, explicit = _parse_hubs(args.hubs)
    return RouteQuery(
        source=source, target=target, amount=amount,
        max_hops=args.max_hops, hub_count=hub_count, explicit_hubs=explicit,
        asgm_params=AsgmParams(alpha=args.alpha, beta=args.beta))


def _load_graph(path, args):
    """The graph at ``path``; an unknown --from/--to token is an error."""
    started = time.perf_counter()
    snapshot = pio.load_snapshot(path)
    loaded = time.perf_counter()
    log.debug("loaded snapshot %s: %d tokens, %d pools in %.3fs", path,
              len(snapshot.tokens), len(snapshot.pools), loaded - started)
    graph = snapshot.build_graph()
    log.debug("built graph: %d tokens, %d pools, %d edges in %.3fs",
              len(graph.tokens), len(graph.pools), graph.edge_count,
              time.perf_counter() - loaded)
    for token_id in (args.source, args.target):
        if not graph.has_token(token_id):
            raise InvalidParamsError(f"unknown token id {token_id!r}")
    return graph


def cmd_route(args) -> int:
    graph = _load_graph(args.snapshot, args)
    query = _build_query(args, args.source, args.target,
                         _parse_amount(args.amount))
    try:
        solution = _solve(args.algo, graph, query)
    except NoRouteError as exc:
        print(f"no route: {exc}", file=sys.stderr)
        return EXIT_NO_ROUTE
    sys.stdout.write(pio.dumps_solution(solution))
    if args.trace and solution.trace:
        pio.write_trace_csv(solution.trace, args.trace)
    return EXIT_OK


def _solve(algo: str, graph, query: RouteQuery, prepared=None):
    """Run one of ``ALGORITHMS``; ``prepared`` is prime's cached stage 0."""
    if algo == "prime":
        return prime(graph, query, prepared)
    return best_single_path(graph, query)


def _run_case(graph, prepared, args, source, target, amount, algo):
    query = _build_query(args, source, target, amount)
    started = time.perf_counter()
    try:
        sol = _solve(algo, graph, query, prepared)
    except NoRouteError:
        return None
    elapsed_ms = (time.perf_counter() - started) * 1e3
    return sol, elapsed_ms


def _bench_amounts(args, graph) -> List[int]:
    """Raw amounts for the ladder; --unit-amounts scales by source decimals."""
    if args.amounts is not None:
        return [_parse_amount(a.strip()) for a in args.amounts.split(",")]
    decimals = graph.tokens[args.source].decimals
    return [_parse_amount(a.strip()) * 10**decimals
            for a in args.unit_amounts.split(",")]


def cmd_bench(args) -> int:
    if args.repetitions < 1:
        raise InvalidParamsError(
            f"--repetitions must be at least 1, got {args.repetitions}")
    if args.ablate:
        return _cmd_ablate(args)
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    if not algos or not set(algos) <= set(ALGORITHMS):
        raise InvalidParamsError(f"--algos takes names from "
                                 f"{', '.join(ALGORITHMS)}, got {args.algos!r}")
    rows: List[dict] = []
    for snap_path in args.snapshot:
        graph = _load_graph(snap_path, args)
        amounts = _bench_amounts(args, graph)
        base_query = _build_query(args, args.source, args.target, amounts[0])
        prepared = prepare_routing(graph, base_query)
        results = [((amount, algo, rep),
                    _run_case(graph, prepared, args, args.source, args.target,
                              amount, algo))
                   for amount in amounts for algo in algos
                   for rep in range(args.repetitions)]

        baseline: dict = {}
        for (amount, algo, rep), result in results:
            if algo == "osp" and result is not None and rep == 0:
                baseline[amount] = result[0].total_output
        for (amount, algo, rep), result in results:
            if result is None:
                continue
            sol, elapsed = result
            base = baseline.get(amount)
            # no osp result at this amount: no baseline to read against
            bp = (f"{1e4 * (sol.total_output - base) / base:.2f}" if base
                  else "")
            rows.append({
                "snapshot": snap_path,
                "source": args.source,
                "target": args.target,
                "amount": str(amount),
                "algorithm": algo,
                "repetition": rep,
                "output": str(sol.total_output),
                "bp_vs_baseline": bp,
                "wall_time_ms": f"{elapsed:.3f}",
                **{name: getattr(sol.stats, name) for name in _STAT_COLUMNS},
            })
            if args.trace_dir and sol.trace:
                name = f"trace_{os.path.basename(snap_path)}_{algo}_{amount}_{rep}.csv"
                pio.write_trace_csv(sol.trace, os.path.join(args.trace_dir, name))
    _write_csv(rows, args.out, _BENCH_COLUMNS + _STAT_COLUMNS)
    return EXIT_OK


def _cmd_ablate(args) -> int:
    """Sweep the optimizer's (alpha, beta) grid on one fixed query.

    The path set is discovered once; each sweep point re-runs the allocator
    cold from the uniform start, isolating its latency/quality trade-off.
    """
    graph = _load_graph(args.snapshot[0], args)
    amount = _bench_amounts(args, graph)[0]
    query = _build_query(args, args.source, args.target, amount)
    prepared = prepare_routing(graph, query)
    solution = prime(graph, query, prepared)
    paths = list(solution.paths)

    alphas = [float(a) for a in args.alphas.split(",")]
    betas = [float(b) for b in args.betas.split(",")]
    rows = []
    outputs = []
    for alpha in alphas:
        for beta in betas:
            params = AsgmParams(alpha=alpha, beta=beta)
            best_ms = None
            result = None
            for _ in range(args.repetitions):
                started = time.perf_counter()
                result = asgm(paths, amount, params)
                elapsed = (time.perf_counter() - started) * 1e3
                best_ms = elapsed if best_ms is None else min(best_ms, elapsed)
            out = objective(paths, result.allocation.path_weights,
                            result.allocation.edge_weights, amount)
            outputs.append(out)
            rows.append({
                "alpha": alpha,
                "beta": beta,
                "output": str(out),
                "wall_time_ms": f"{best_ms:.3f}",
                "iterations": result.iterations,
                "converged": result.converged,
            })
    best = max(outputs)
    for row, out in zip(rows, outputs):
        row["gap_bp"] = f"{1e4 * (best - out) / best:.2f}" if best else "0.00"
    _write_csv(rows, args.out,
               ["alpha", "beta", "output", "gap_bp", "wall_time_ms",
                "iterations", "converged"])
    return EXIT_OK


def _write_csv(rows: List[dict], out_path: Optional[str],
               fields: List[str]) -> None:
    if out_path:
        fh = open(out_path, "w", newline="", encoding="utf-8")
    else:
        fh = sys.stdout
    try:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    finally:
        if out_path:
            fh.close()


def cmd_gen(args) -> int:
    snapshot = pio.generate_synthetic(args.seed, args.tokens, args.pools,
                                      args.hub_fraction, args.spread_orders)
    pio.save_snapshot(snapshot, args.out)
    print(f"wrote {args.out} ({args.tokens} tokens, {args.pools} pools, "
          f"hash {pio.snapshot_hash(snapshot)[:12]})")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 like other input errors, not argparse's 2.

    Exit 2 means "no route".  Subparsers are built from the parent's class,
    so they inherit this.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: a parser holds reference
    cycles, and ``parse_args`` keeps no state between calls."""
    parser = _Parser(prog="prime-router")
    sub = parser.add_subparsers(dest="command", required=True)
    # the query options route and bench share
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--max-hops", type=int, default=RouteQuery.max_hops)
    query.add_argument("--hubs", default=None,
                       help="hub count or explicit comma-separated token ids")
    query.add_argument("--alpha", type=float, default=AsgmParams.alpha)
    query.add_argument("--beta", type=float, default=AsgmParams.beta)

    route = sub.add_parser("route", parents=[query],
                           help="solve one routing query")
    route.add_argument("--snapshot", required=True)
    route.add_argument("--from", dest="source", required=True)
    route.add_argument("--to", dest="target", required=True)
    route.add_argument("--amount", required=True)
    route.add_argument("--algo", choices=ALGORITHMS, default="prime")
    route.add_argument("--trace", default=None,
                       help="write the allocator trace CSV here")
    route.set_defaults(func=cmd_route)

    bench = sub.add_parser("bench", parents=[query],
                           help="benchmark algorithms on snapshots")
    bench.add_argument("--snapshot", action="append", required=True)
    bench.add_argument("--from", dest="source", required=True)
    bench.add_argument("--to", dest="target", required=True)
    bench.add_argument("--amounts", default=None,
                       help="comma-separated raw amounts (overrides the "
                            "unit ladder)")
    bench.add_argument("--unit-amounts", default="1,10,100,1000",
                       help="ladder in whole source tokens, scaled by its "
                            "decimals")
    bench.add_argument("--algos", default="prime,osp")
    bench.add_argument("--repetitions", type=int, default=1)
    bench.add_argument("--out", default=None, help="CSV path (default stdout)")
    bench.add_argument("--trace-dir", default=None)
    bench.add_argument("--ablate", action="store_true",
                       help="sweep (alpha, beta) on a fixed path set")
    bench.add_argument("--alphas", default=str(AsgmParams.alpha))
    bench.add_argument("--betas", default=str(AsgmParams.beta))
    bench.set_defaults(func=cmd_bench)

    gen = sub.add_parser("gen", help="generate a synthetic snapshot")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--tokens", type=int, required=True)
    gen.add_argument("--pools", type=int, required=True)
    synthetic = inspect.signature(pio.generate_synthetic).parameters
    gen.add_argument("--hub-fraction", type=float,
                     default=synthetic["hub_fraction"].default)
    gen.add_argument("--spread-orders", type=int,
                     default=synthetic["reserve_spread_orders"].default)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RoutingError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
