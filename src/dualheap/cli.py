"""Command-line harness.

Subcommands: ``select`` and ``sort`` mirror the library entry points on a
generated input; ``bench`` emits oracle-checked trial records as CSV;
``worstcase`` prospects for swapping-phase worst cases; ``fit`` estimates a
log-log growth slope from a previously emitted CSV.

Exit codes: 0 success, 1 usage error, 2 internal invariant violation
(oracle mismatch or step-budget breach).
"""

from __future__ import annotations

import argparse
import csv
import sys
from types import SimpleNamespace

from .bench import (
    ALGOS,
    DEFAULT_SIZES,
    DISTS,
    PIVOTS,
    AlgoSpec,
    BenchConfig,
    InputSpec,
    emit_csv,
    emit_worstcase_csv,
    fit_growth,
    generate,
    median_index,
    run_benchmark,
    worst_case_search_exhaustive,
    worst_case_search_random,
)
from .errors import InternalInvariantError
from .metrics import Metrics
from .select import PRESPLITS, SelectOptions, dh_sort, prepare_buffer
from .swaps import STRATEGIES


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this harness reserves 2
    # for internal invariant violations.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(_positive(part) for part in text.split(","))


def _dist_list(text: str) -> tuple[str, ...]:
    dists = tuple(text.split(","))
    for dist in dists:
        if dist not in DISTS:
            raise argparse.ArgumentTypeError(f"unknown dist {dist!r}")
    return dists


def _add_input_flags(sub):
    sub.add_argument("--n", type=_positive, default=1023, help="input size")
    sub.add_argument("--dist", default="random", choices=DISTS, help="input family")
    sub.add_argument("--seed", type=int, default=0, help="input seed")


def _add_dualheap_flags(sub):
    sub.add_argument("--swap", default="tree", choices=STRATEGIES, help="dualheap swap strategy")
    sub.add_argument("--presplit", type=int, default=1, choices=PRESPLITS)


def _add_algo_flags(sub):
    sub.add_argument("--algo", default="dhselect", choices=ALGOS)
    _add_dualheap_flags(sub)
    sub.add_argument("--pivot", default="first", choices=PIVOTS, help="quickselect pivot rule")


def _algo(args) -> AlgoSpec:
    return AlgoSpec(name=args.algo, strategy=args.swap, presplit=args.presplit, pivot=args.pivot)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dualheap", description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p_select = subs.add_parser("select", help="select the k-th smallest of a generated input")
    _add_input_flags(p_select)
    _add_algo_flags(p_select)
    p_select.add_argument("--k", type=_positive, default=None, help="selection index (default: median)")
    p_select.set_defaults(func=cmd_select)

    p_sort = subs.add_parser("sort", help="sort a generated input by recursive partitioning")
    _add_input_flags(p_sort)
    _add_dualheap_flags(p_sort)
    p_sort.add_argument("--out", default=None, help="write the sorted sequence to a file instead of stdout")
    p_sort.set_defaults(func=cmd_sort)

    p_bench = subs.add_parser("bench", help="run oracle-checked trials and emit CSV")
    p_bench.add_argument("--sizes", type=_int_list, default=DEFAULT_SIZES)
    p_bench.add_argument("--dist", type=_dist_list, default=("random",), help="comma-separated input families")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--k", type=_positive, default=None, help="selection index (default: median per size)")
    p_bench.add_argument("--trials", type=_positive, default=3)
    _add_algo_flags(p_bench)
    p_bench.add_argument("--timing", action="store_true", help="record real elapsed_ns (breaks byte-reproducibility)")
    p_bench.add_argument("--out", default=None, help="CSV destination (default: stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_worst = subs.add_parser("worstcase", help="search for swapping-phase worst cases")
    p_worst.add_argument("--mode", default="exhaustive", choices=("exhaustive", "random"))
    p_worst.add_argument("--max-n", type=_positive, default=8, help="exhaustive mode: largest size")
    p_worst.add_argument("--n", type=_int_list, default=(1023,), help="random mode: comma-separated sizes")
    p_worst.add_argument("--samples", type=_positive, default=1000, help="random mode: sample count")
    p_worst.add_argument("--seed", type=int, default=0)
    p_worst.add_argument("--k", type=_positive, default=None, help="random mode: fixed selection index (default: median)")
    _add_dualheap_flags(p_worst)
    p_worst.add_argument("--out", default=None, help="CSV destination (default: stdout)")
    p_worst.set_defaults(func=cmd_worstcase)

    p_fit = subs.add_parser("fit", help="fit a log-log growth slope from an emitted CSV")
    p_fit.add_argument("--in", dest="source", required=True, help="CSV produced by bench or worstcase")
    p_fit.add_argument("--metric", default="compares_total", help="CSV column to fit")
    p_fit.add_argument("--agg", default="mean", choices=("mean", "max"), help="per-size aggregate")
    p_fit.set_defaults(func=cmd_fit)

    return parser


def cmd_select(args) -> int:
    arr = prepare_buffer(generate(InputSpec(args.n, args.dist, args.seed)))
    k = args.k if args.k is not None else median_index(args.n)
    print(_algo(args).select(arr, k, args.seed, Metrics()))
    return 0


def cmd_sort(args) -> int:
    values = generate(InputSpec(args.n, args.dist, args.seed))
    line = " ".join(map(str, dh_sort(values, SelectOptions(args.swap, args.presplit))))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(line + "\n")
    else:
        print(line)
    return 0


def cmd_bench(args) -> int:
    config = BenchConfig(
        sizes=args.sizes,
        dists=args.dist,
        algos=(_algo(args),),
        trials=args.trials,
        seed=args.seed,
        k=args.k,
        timing=args.timing,
    )
    records = run_benchmark(config)
    emit_csv(records, args.out or sys.stdout)
    return 0


def cmd_worstcase(args) -> int:
    opts = SelectOptions(args.swap, args.presplit)
    if args.mode == "exhaustive":
        reports = worst_case_search_exhaustive(args.max_n, opts)
    else:
        reports = [worst_case_search_random(n, args.samples, args.seed, args.k, opts) for n in args.n]
    emit_worstcase_csv(reports, args.out or sys.stdout)
    return 0


def cmd_fit(args) -> int:
    with open(args.source, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None or "n" not in reader.fieldnames:
            raise ValueError(f"{args.source} has no 'n' column")
        if args.metric not in reader.fieldnames:
            raise ValueError(f"{args.source} has no {args.metric!r} column")
        rows = []
        for row in reader:
            fields = {"n": int(row["n"])}
            fields[args.metric] = float(row[args.metric])
            rows.append(SimpleNamespace(**fields))
    slope = fit_growth(rows, args.metric, args.agg)
    print(f"slope={slope:.6f}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"dualheap: internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError) as exc:
        print(f"dualheap: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"dualheap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
