"""Command-line harness.

Subcommands: ``select`` and ``sort`` mirror the library entry points on a
generated input; ``bench`` emits oracle-checked trial records as CSV;
``worstcase`` prospects for swapping-phase worst cases; ``fit`` estimates a
log-log growth slope from a previously emitted CSV.

Exit codes: 0 success, 1 usage error, 2 internal invariant violation
(oracle mismatch or step-budget breach).
"""

import argparse
import contextlib
import csv
import sys
from functools import cache
from itertools import chain

from .bench import (
    DEFAULT_SIZES,
    DISTS,
    EXHAUSTIVE_MAX_N,
    WORSTCASE_FIELDS,
    check_fit_point,
    check_k_fits,
    emit_csv,
    fit_growth,
    generate,
    median_index,
    run_algo,
    run_benchmark,
    worst_case_search_exhaustive,
    worst_case_search_random,
    write_csv,
)
from .core import check_index
from .errors import InternalInvariantError
from .metrics import Metrics
from .rng import MASK64, check_seed
from .select import PRESPLITS, SelectOptions, dh_sort, prepare_buffer
from .swaps import STRATEGIES


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this harness reserves 2
    # for internal invariant violations.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


# A converter raises ArgumentTypeError for text that is not an integer:
# argparse reports int()'s ValueError as "invalid <converter name> value".
def _positive(text: str) -> int:
    with contextlib.suppress(ValueError):
        if (value := int(text)) >= 1:
            return value
    raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a seed in 0..{MASK64}, got {text}") from None
    try:
        return check_seed(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


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
    sub.add_argument("--seed", type=_seed, default=0, help="input seed")


def _add_dualheap_flags(sub):
    sub.add_argument("--swap", choices=STRATEGIES, help="dualheap swap strategy")
    sub.add_argument("--presplit", type=int, choices=PRESPLITS)


# The flags that configure each choice of --algo and of worstcase --mode;
# giving any other is an error. A flag left out parses to None.
_ALGO_FLAGS = {"dhselect": ("--swap", "--presplit"), "quickselect": ("--pivot",), "quickselect-mom": ()}
_MODE_FLAGS = {"exhaustive": ("--max-n",), "random": ("--n", "--samples", "--seed", "--k")}


def _add_algo_flags(sub):
    sub.add_argument("--algo", default="dhselect", choices=_ALGO_FLAGS)
    _add_dualheap_flags(sub)
    sub.add_argument("--pivot", choices=("first", "random"), help="quickselect pivot rule")


def _check_flags(args, option: str, table: dict[str, tuple[str, ...]]) -> None:
    choice = getattr(args, option[2:])
    for flag in chain.from_iterable(table.values()):
        if getattr(args, flag[2:].replace("-", "_")) is not None and flag not in table[choice]:
            raise ValueError(f"{flag} does not apply to {option} {choice}")


def _options(args) -> SelectOptions:
    fields = {"strategy": args.swap, "presplit": args.presplit}
    return SelectOptions(**{name: value for name, value in fields.items() if value is not None})


def _algo(args):
    _check_flags(args, "--algo", _ALGO_FLAGS)
    if args.algo != "dhselect":
        return f"quickselect-{args.pivot or 'first'}" if args.algo == "quickselect" else args.algo
    return _options(args)


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
    p_bench.add_argument("--seed", type=_seed, default=0)
    p_bench.add_argument("--k", type=_positive, default=None, help="selection index (default: median per size)")
    p_bench.add_argument("--trials", type=_positive, default=3)
    _add_algo_flags(p_bench)
    p_bench.add_argument("--timing", action="store_true", help="record real elapsed_ns (breaks byte-reproducibility)")
    p_bench.add_argument("--out", default=None, help="CSV destination (default: stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_worst = subs.add_parser("worstcase", help="search for swapping-phase worst cases")
    p_worst.add_argument("--mode", default="exhaustive", choices=("exhaustive", "random"))
    # Mode flags parse to None when left out; cmd_worstcase fills in defaults.
    p_worst.add_argument(
        "--max-n", type=_positive, choices=range(1, EXHAUSTIVE_MAX_N + 1), help="exhaustive mode: largest size"
    )
    p_worst.add_argument("--n", type=_int_list, help="random mode: comma-separated sizes")
    p_worst.add_argument("--samples", type=_positive, help="random mode: sample count")
    p_worst.add_argument("--seed", type=_seed)
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
    algo = _algo(args)
    k = args.k if args.k is not None else median_index(args.n)
    check_index(args.n, k)
    arr = prepare_buffer(generate(args.n, args.dist, args.seed))
    print(run_algo(algo, arr, k, args.seed, Metrics()))
    return 0


def _output(path):
    """The destination of a command's output: the ``--out`` file, opened
    after the command's usage checks, so that a usage error leaves an
    existing file as it was, and before any input is generated, so that a
    path that cannot be opened fails at once; or stdout."""
    return open(path, "w", newline="") if path else contextlib.nullcontext(sys.stdout)


def cmd_sort(args) -> int:
    with _output(args.out) as dest:
        values = generate(args.n, args.dist, args.seed)
        print(" ".join(map(str, dh_sort(values, _options(args)))), file=dest)
    return 0


def cmd_bench(args) -> int:
    algos = (_algo(args),)
    check_k_fits(args.sizes, args.k)
    with _output(args.out) as dest:
        emit_csv(run_benchmark(args.sizes, args.dist, algos, args.trials, args.seed, args.k, args.timing), dest)
    return 0


def cmd_worstcase(args) -> int:
    _check_flags(args, "--mode", _MODE_FLAGS)
    opts = _options(args)
    sizes = args.n or (1023,)
    check_k_fits(sizes, args.k)
    with _output(args.out) as dest:
        if args.mode == "exhaustive":
            reports = worst_case_search_exhaustive(args.max_n or 8, opts)
        else:
            reports = [worst_case_search_random(n, args.samples or 1000, args.seed or 0, args.k, opts) for n in sizes]
        write_csv(WORSTCASE_FIELDS, reports, dest)
    return 0


def cmd_fit(args) -> int:
    with open(args.source, "rb") as handle:
        # decoded line by line, so that a line that is not UTF-8 can be named
        reader = csv.reader(line.decode() for line in handle.read().splitlines(keepends=True))
    try:
        header = next(reader, [])
        if "n" not in header:
            raise ValueError(f"{args.source} has no 'n' column")
        if args.metric not in header:
            raise ValueError(f"{args.source} has no {args.metric!r} column")
        n_column, metric_column = header.index("n"), header.index(args.metric)
        points = []
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) != len(header):
                raise ValueError(f"{args.source} line {reader.line_num}: expected {len(header)} cells, got {len(row)}")
            try:
                point = int(row[n_column]), float(row[metric_column])
                check_fit_point(*point, args.metric)
            except ValueError as exc:
                raise ValueError(f"{args.source} line {reader.line_num}: {exc}") from None
            points.append(point)
    except (csv.Error, UnicodeDecodeError) as exc:
        # the reader counts a line it has parsed, not one that did not decode
        raise ValueError(f"{args.source} line {reader.line_num + isinstance(exc, UnicodeDecodeError)}: {exc}") from None
    slope = fit_growth(points, args.metric, args.agg)
    print(f"slope={slope:.6f}")
    return 0


@cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built on the first call of main and reused: parsing leaves a parser
    # unchanged, and building one costs about a millisecond.
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantError as exc:
        print(f"dualheap: internal invariant violation: {exc}", file=sys.stderr)
        return 2
    except (ValueError, IndexError, OSError) as exc:
        print(f"dualheap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
