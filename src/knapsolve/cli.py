"""Command line interface.

Subcommands:

    solve     read an instance file and print the optimal profit
    gen       emit a reproducible random instance
    bench     time solvers across a range of maximum weights, write CSV
    selftest  check every solver against exhaustive search on small instances

Instance file format: optional '#' comment lines; the first data line is
"n t"; each of the following n data lines is "w p" with weight and profit.

Exit codes: 0 success, 1 verification or selftest failure, 2 malformed
input, 3 refused resource budget, 4 benchmark solver disagreement, 5 internal
error (any other exception, reported on one line).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import statistics
import sys
import time

from .baselines import BudgetExceededError, solve_bellman, solve_exhaustive
from .gen import DISTRIBUTIONS, generate_instance
from .selftest import run_selftest
from .solver import (
    SolverConfig,
    Stats,
    VerificationError,
    solve_fast,
    solve_proximity_smawk,
)

BENCH_HEADER = "instance_id,n,w_max,t,solver,profit,wall_time_ns,peak_table_cells"


class InstanceParseError(ValueError):
    pass


def _checked(convert, valid, wanted: str):
    """An argparse type: ``convert`` the text, refusing values that fail ``valid``."""

    def parse(text: str):
        try:
            value = convert(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")

    return parse


_POSITIVE_INT = _checked(int, lambda v: v >= 1, "an integer >= 1")
# nan fails every compare, so this refuses it too
_FRACTION = _checked(float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]")


def parse_instance_text(text: str):
    """Parse "n t" plus n "w p" lines into (items, capacity)."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InstanceParseError(f"line {lineno}: expected two integers")
        try:
            rows.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise InstanceParseError(f"line {lineno}: expected two integers") from None
    if not rows:
        raise InstanceParseError("empty instance")
    n, capacity = rows[0]
    if n < 0 or capacity < 0:
        raise InstanceParseError("item count and capacity must be nonnegative")
    items = rows[1:]
    if len(items) != n:
        raise InstanceParseError(f"header says {n} items, found {len(items)}")
    for w, p in items:
        if w < 1 or p < 1:
            raise InstanceParseError("item weights and profits must be >= 1")
    return items, capacity


def format_instance(items, capacity: int) -> str:
    lines = [f"{len(items)} {capacity}"]
    lines += [f"{w} {p}" for w, p in items]
    return "\n".join(lines) + "\n"


def _exhaustive(items, capacity, config, stats):
    stats.engine = "exhaustive"  # the one solver that fills no Stats itself
    return solve_exhaustive(items, capacity)


# name -> solver(items, capacity, config, stats); each entry looks its
# solver up when called, so a patched module name is the one that runs
SOLVERS = {
    "fast": lambda items, t, config, stats: solve_fast(items, t, config, stats),
    "bellman": lambda items, t, config, stats: solve_bellman(items, t, stats=stats),
    "proximity": lambda items, t, config, stats: solve_proximity_smawk(items, t, stats=stats),
    "exhaustive": _exhaustive,
}


def cmd_solve(args) -> int:
    if args.solver != "fast":
        # the other solvers take neither option; refuse rather than ignore it
        for option, given in (("--verify", args.verify), ("--engine", args.engine != "auto")):
            if given:
                print(f"error: {option} applies only to --solver fast", file=sys.stderr)
                return 2
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    items, capacity = parse_instance_text(text)
    config = SolverConfig(engine=args.engine, verify=args.verify)
    stats = Stats()
    profit = SOLVERS[args.solver](items, capacity, config, stats)
    print(profit)
    if args.stats:
        print(json.dumps(dataclasses.asdict(stats)), file=sys.stderr)
    return 0


def cmd_gen(args) -> int:
    items, capacity = generate_instance(
        args.n, args.wmax, args.pmax, args.t_frac, args.seed, args.dist
    )
    text = format_instance(items, capacity)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    try:
        wmax_values = [_POSITIVE_INT(tok) for tok in args.wmax_list.split(",") if tok]
    except argparse.ArgumentTypeError as exc:
        print(f"error: --wmax-list: {exc}", file=sys.stderr)
        return 2
    solvers = [tok.strip() for tok in args.solvers.split(",") if tok.strip()]
    for option, values in (("--wmax-list", wmax_values), ("--solvers", solvers)):
        if not values:
            print(f"error: {option}: expected at least one value", file=sys.stderr)
            return 2
    for name in solvers:
        if name not in SOLVERS:
            print(f"error: unknown solver {name!r}", file=sys.stderr)
            return 2
    config = SolverConfig(engine=args.engine)
    rows = []
    times: dict[str, dict[int, list[int]]] = {name: {} for name in solvers}
    for w_max in wmax_values:
        n = args.n_per_w * w_max
        for rep in range(args.reps):
            seed = args.seed + 1_000_003 * w_max + rep
            items, capacity = generate_instance(
                n, w_max, args.pmax, args.t_frac, seed, args.dist
            )
            instance_id = f"{args.dist}-w{w_max}-n{n}-r{rep}"
            profits = {}
            for name in solvers:
                stats = Stats()
                t0 = time.perf_counter_ns()
                profit = SOLVERS[name](items, capacity, config, stats)
                elapsed = time.perf_counter_ns() - t0
                profits[name] = profit
                rows.append(
                    (
                        instance_id,
                        n,
                        w_max,
                        capacity,
                        name,
                        profit,
                        elapsed,
                        stats.peak_table_cells,
                    )
                )
                times[name].setdefault(w_max, []).append(elapsed)
            if len(set(profits.values())) > 1:
                print(
                    f"bench: solvers disagree on {instance_id}: {profits}",
                    file=sys.stderr,
                )
                return 4
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_HEADER.split(","))
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    for name in solvers:
        per_w = times[name]
        if len(per_w) >= 2:
            ws = sorted(per_w)
            logs_w = [math.log2(w) for w in ws]
            logs_t = [math.log2(statistics.median(per_w[w])) for w in ws]
            slope = statistics.linear_regression(logs_w, logs_t).slope
            print(f"{name}: log-log slope {slope:.2f} over w_max {ws[0]}..{ws[-1]}")
    return 0


def cmd_selftest(args) -> int:
    ok = run_selftest(quick=args.quick)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="knapsolve",
        description="0-1 knapsack solvers parameterized by the largest item weight",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("file", help="instance path, or - for stdin")
    p_solve.add_argument("--solver", choices=SOLVERS, default="fast")
    p_solve.add_argument("--engine", choices=("auto", "dense", "hinted"), default="auto")
    p_solve.add_argument(
        "--verify", action="store_true", help="cross-check against the capacity DP"
    )
    p_solve.add_argument("--stats", action="store_true", help="print work counters to stderr")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("gen", help="generate a reproducible instance")
    p_gen.add_argument("--n", type=_POSITIVE_INT, required=True)
    p_gen.add_argument("--wmax", type=_POSITIVE_INT, required=True)
    p_gen.add_argument("--pmax", type=_POSITIVE_INT, default=1000)
    p_gen.add_argument("--t-frac", dest="t_frac", type=_FRACTION, default=0.5)
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform")
    p_gen.add_argument("--out", default=None)
    p_gen.set_defaults(func=cmd_gen)

    p_bench = sub.add_parser("bench", help="time solvers across maximum weights")
    p_bench.add_argument("--wmax-list", dest="wmax_list", default="256,512,1024")
    p_bench.add_argument("--n-per-w", dest="n_per_w", type=_POSITIVE_INT, default=4)
    p_bench.add_argument("--solvers", default="fast,bellman")
    p_bench.add_argument("--reps", type=_POSITIVE_INT, default=1)
    p_bench.add_argument("--seed", type=int, default=12345)
    p_bench.add_argument("--pmax", type=_POSITIVE_INT, default=32)
    p_bench.add_argument("--t-frac", dest="t_frac", type=_FRACTION, default=0.5)
    p_bench.add_argument("--dist", choices=DISTRIBUTIONS, default="uniform")
    p_bench.add_argument("--engine", choices=("auto", "dense", "hinted"), default="auto")
    p_bench.add_argument("--out", default="bench.csv")
    p_bench.set_defaults(func=cmd_bench)

    p_self = sub.add_parser("selftest", help="check the solvers against exhaustive search")
    p_self.add_argument("--quick", action="store_true")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InstanceParseError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
