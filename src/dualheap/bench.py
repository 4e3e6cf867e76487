"""Benchmark harness: seeded input generators, an oracle-gated trial
runner, the worst-case prospector, and log-log growth fitting.

Everything here is deterministic given its arguments: the generators run a
fixed PRNG, trial seeds are drawn from one master stream in a fixed loop
order, and rows are emitted in that order. Wall-clock time is measured but
reported as zero unless explicitly requested, so identical configurations
produce byte-identical CSV.
"""

import csv
import itertools
import math
import operator
import time
from collections import namedtuple

from .baselines import oracle_select, quickselect
from .core import SentinelArray, check_index, check_int
from .errors import OracleMismatchError
from .metrics import Metrics
from .rng import SplitMix64, check_seed
from .select import SelectOptions, dh_select, prepare_buffer, verify_partition

DISTS = ("random", "sorted", "reverse", "organpipe", "allequal", "fewvalues")

DEFAULT_SIZES = (1023, 4095, 16383)


def _check_size(n: int) -> None:
    check_int("input size", n)
    if n < 1:
        raise ValueError(f"input size must be >= 1, got {n}")


def _check_dist(dist: str) -> None:
    if dist not in DISTS:
        raise ValueError(f"unknown dist {dist!r}, expected one of {DISTS}")


def generate(n: int, dist: str, seed: int = 0) -> list[int]:
    """Materialize an input: ``n`` values of the shape family ``dist``.

    Checked first, whatever the family: ``n`` must be an int of at least 1,
    ``dist`` one of ``DISTS`` and ``seed`` pass ``rng.check_seed``. A size
    or seed that is not an int raises ``TypeError``; a size below 1, an
    unknown dist or a seed outside 0..2**64 - 1 raises ``ValueError``.

    ``random`` is a Fisher-Yates shuffle of 1..n: walking i from n-1 down to
    1 (0-based), swap position i with position ``stream.below(i + 1)`` where
    the stream is splitmix64 seeded with ``seed``. This exact recipe is the
    reproducibility contract; the n-1 draws are taken from the stream in
    one block, which yields the same values. The other families ignore the
    seed.
    """
    _check_size(n)
    _check_dist(dist)
    check_seed(seed)
    if dist == "random":
        values = list(range(1, n + 1))
        draws = SplitMix64(seed).take(n - 1)
        for i, j in zip(range(n - 1, 0, -1), map(operator.mod, draws, range(n, 1, -1))):
            values[i], values[j] = values[j], values[i]
        return values
    if dist == "sorted":
        return list(range(1, n + 1))
    if dist == "reverse":
        return list(range(n, 0, -1))
    if dist == "organpipe":
        return list(range(1, (n + 1) // 2 + 1)) + list(range(n // 2, 0, -1))
    if dist == "allequal":
        return [1] * n
    return [(i % 4) + 1 for i in range(n)]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return " ".join(map(str, value))
    return str(value)


class ExperimentRecord(
    namedtuple(
        "ExperimentRecord",
        "algo swap_strategy presplit n k dist seed trial compares_construct moves_construct"
        " compares_swap moves_swap compares_total moves_total elapsed_ns correct",
    )
):
    """One benchmark trial row; its fields, in order, are the CSV columns.
    The runner oracle-checks every trial, so ``correct`` is true in every
    record that ever reaches a CSV."""

    __slots__ = ()


CSV_FIELDS = ExperimentRecord._fields


# The quickselect configurations under test, by the CSV algo cell each
# writes, with the pivot rule each runs; a dh_select one is a SelectOptions.
QUICKSELECT_PIVOTS = {"quickselect-first": "first", "quickselect-random": "random", "quickselect-mom": "median_of_medians"}


def run_algo(algo, arr: SentinelArray, k: int, seed: int, ctx: Metrics):
    """Run a configuration under test, a ``SelectOptions`` or a name in
    ``QUICKSELECT_PIVOTS``, on a prepared buffer and return the k-th
    smallest value. ``seed`` feeds the random quickselect pivot."""
    if isinstance(algo, SelectOptions):
        return dh_select(arr, k, algo, ctx).value
    return quickselect(arr, k, QUICKSELECT_PIVOTS[algo], ctx, seed=seed)


def median_index(n: int) -> int:
    return (n + 1) // 2


def check_k_fits(sizes, k: int | None) -> None:
    """Check a selection index against every size; None, the median of
    each, always fits."""
    if k is not None:
        for n in sizes:
            check_index(n, k)


def run_benchmark(
    sizes=DEFAULT_SIZES,
    dists=("random",),
    algos=(SelectOptions(),),
    trials=3,
    seed=0,
    k=None,
    timing=False,
) -> list[ExperimentRecord]:
    """Run sizes x dists x algos x trials from one master seed, one checked
    record per trial. ``sizes``, ``dists`` and ``algos`` are non-empty
    tuples; each algo is a ``SelectOptions`` or a name in
    ``QUICKSELECT_PIVOTS``. ``k`` None selects the median address
    ceil(n/2); any other k must fit every size. ``timing`` is opt-in,
    because a real elapsed_ns breaks byte-reproducibility. Every argument
    is checked before the first input is generated.

    Each (size, dist, trial) input is generated once, from a seed drawn off
    one master splitmix64 stream, and checked by the oracle once: every
    algorithm runs on its own copy and must return the oracle's value with
    the buffer partitioned about k. Rows are grouped by algorithm within
    each (size, dist); a mismatch aborts the run with a reproduction line."""
    for name, series in (("sizes", sizes), ("dists", dists), ("algos", algos)):
        # exactly a tuple: a namedtuple such as a SelectOptions would iterate its fields
        if type(series) is not tuple:
            raise TypeError(f"{name} must be a tuple, not {type(series).__name__} ({series!r})")
        if not series:
            raise ValueError(f"{name} must not be empty")
    for n in sizes:
        _check_size(n)
    check_k_fits(sizes, k)
    for dist in dists:
        _check_dist(dist)
    for algo in algos:
        if not isinstance(algo, (SelectOptions, str)):
            raise TypeError(f"each algo must be a SelectOptions or a name, not {type(algo).__name__} ({algo!r})")
        if isinstance(algo, str) and algo not in QUICKSELECT_PIVOTS:
            raise ValueError(f"unknown algo {algo!r}, expected a SelectOptions or one of {tuple(QUICKSELECT_PIVOTS)}")
    check_int("trials", trials)
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    check_seed(seed)
    if not isinstance(timing, bool):
        raise TypeError(f"timing must be a bool, not {type(timing).__name__} ({timing!r})")
    master = SplitMix64(seed)
    # each algorithm's algo, swap_strategy and presplit cells
    cells = [("dhselect", *algo) if isinstance(algo, SelectOptions) else (algo, "", None) for algo in algos]
    records = []
    for n in sizes:
        index = k if k is not None else median_index(n)
        for dist in dists:
            series = [[] for _ in algos]
            for trial, trial_seed in enumerate(master.take(trials)):
                values = generate(n, dist, trial_seed)
                expected = oracle_select(values, index)
                for algo, (label, strategy, presplit), rows in zip(algos, cells, series):
                    ctx = Metrics()
                    arr = prepare_buffer(values)
                    start = time.perf_counter_ns()
                    value = run_algo(algo, arr, index, trial_seed, ctx)
                    elapsed_ns = time.perf_counter_ns() - start
                    if not (value == expected and verify_partition(arr, index)):
                        raise OracleMismatchError(
                            f"oracle mismatch: algo={label} n={n} k={index} "
                            f"dist={dist} seed={trial_seed} got={value}"
                        )
                    rows.append(
                        ExperimentRecord(
                            algo=label,
                            swap_strategy=strategy,
                            presplit=presplit,
                            n=n,
                            k=index,
                            dist=dist,
                            seed=trial_seed,
                            trial=trial,
                            compares_construct=ctx.construct.compares,
                            moves_construct=ctx.construct.moves,
                            compares_swap=ctx.swap.compares,
                            moves_swap=ctx.swap.moves,
                            compares_total=ctx.compares_total,
                            moves_total=ctx.moves_total,
                            elapsed_ns=elapsed_ns if timing else 0,
                            correct=True,
                        )
                    )
            records += itertools.chain.from_iterable(series)
    return records


def write_csv(header, rows, dest) -> None:
    """Write a header and then each row, its values formatted by ``_cell``,
    with LF line endings, to a path or an open handle."""
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as handle:
            return write_csv(header, rows, handle)
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_cell, row) for row in rows)


def emit_csv(records, dest) -> None:
    """Write records with the pinned header, LF line endings."""
    write_csv(CSV_FIELDS, records, dest)


class WorstCaseReport(
    namedtuple(
        "WorstCaseReport",
        ("n", "instances_tested", "max_compares_swap", "argmax_k", "argmax_seed", "argmax_permutation"),
    )
):
    """Maximum swapping-phase comparisons observed for one size, with a
    witness; its fields, in order, are the CSV columns. Exhaustive mode
    records the witness permutation itself; random mode records the seed
    that regenerates it (plus the permutation when it is small enough to
    print)."""

    __slots__ = ()


WORSTCASE_FIELDS = WorstCaseReport._fields


EXHAUSTIVE_MAX_N = 9

# A witness above this size is reproduced from its seed rather than printed
# inline; only random mode reaches it.
_WITNESS_PRINT_LIMIT = 64


def _worst_case(n: int, instances, opts: SelectOptions | None) -> WorstCaseReport:
    """Run dh_select on each ``(permutation, k, seed)`` instance, a
    permutation of 1..n with a selection index and the seed that generated
    it (None if none did), and report the first one with the most
    swapping-phase comparisons. The witness permutation is reported only up
    to ``_WITNESS_PRINT_LIMIT`` elements; a larger one is left to its seed."""
    best = -1
    for count, (perm, k, seed) in enumerate(instances, 1):
        ctx = Metrics()
        # a permutation of 1..n has known extremes; skipping prepare_buffer's
        # scans took worst_case_search_exhaustive(8) from 3.18-4.21 s to
        # 2.26-2.53 s (6 runs each, CPython 3.11.7, 2 vCPUs)
        dh_select(SentinelArray([1, *perm, n]), k, opts, ctx)
        if ctx.swap.compares > best:
            best = ctx.swap.compares
            witness = perm, k, seed
    perm, k, seed = witness
    return WorstCaseReport(
        n=n,
        instances_tested=count,
        max_compares_swap=best,
        argmax_k=k,
        argmax_seed=seed,
        argmax_permutation=tuple(perm) if n <= _WITNESS_PRINT_LIMIT else (),
    )


def worst_case_search_exhaustive(max_n: int, opts: SelectOptions | None = None) -> list[WorstCaseReport]:
    """For each n up to max_n, run every (permutation of 1..n, k) pair and
    report the maximum swapping-phase comparison count with its witness.
    The enumeration order (lexicographic permutations, k ascending, first
    maximum kept) makes the witness deterministic."""
    check_int("max_n", max_n)
    if not 1 <= max_n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive mode is bounded to 1..{EXHAUSTIVE_MAX_N}, got {max_n}")
    reports = []
    for n in range(1, max_n + 1):
        instances = ((perm, k, None) for perm in itertools.permutations(range(1, n + 1)) for k in range(1, n + 1))
        reports.append(_worst_case(n, instances, opts))
    return reports


def worst_case_search_random(
    n: int,
    samples: int,
    seed: int,
    k: int | None = None,
    opts: SelectOptions | None = None,
) -> WorstCaseReport:
    """Sample random permutations (seeds drawn from a master stream) and
    report the worst swapping-phase comparison count. k defaults to the
    median address."""
    _check_size(n)
    check_int("samples", samples)
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if k is None:
        k = median_index(n)
    check_index(n, k)
    instances = ((generate(n, "random", sample_seed), k, sample_seed) for sample_seed in SplitMix64(seed).take(samples))
    return _worst_case(n, instances, opts)


def check_fit_point(n: int, value: float, metric: str) -> None:
    """Reject a point ``fit_growth`` cannot fit: n must be an int of at
    least 1 and the value of ``metric`` finite."""
    _check_size(n)
    # a nan or an inf would fit as slope=nan, and max() can pass over a nan
    if not math.isfinite(value):
        raise ValueError(f"metric {metric!r} must be finite to fit, got {value} at n={n}")


def fit_growth(points, metric: str, agg: str = "mean") -> float:
    """Least-squares slope of log(value) against log(n) over per-size
    aggregates (means, or maxima for worst-case style data) of ``(n, value)``
    points; ``metric`` names the values in error messages. Needs at least
    three distinct sizes; each n must be an int of at least 1, each value
    finite and each aggregate positive."""
    import statistics  # only fitting needs it, and it is slow to import
    if agg not in ("mean", "max"):
        raise ValueError(f"agg must be 'mean' or 'max', got {agg!r}")
    groups: dict[int, list[float]] = {}
    for n, value in points:
        check_fit_point(n, value, metric)
        groups.setdefault(n, []).append(value)
    if len(groups) < 3:
        raise ValueError(f"growth fitting needs >= 3 distinct sizes, got {len(groups)}")
    xs = []
    ys = []
    for n in sorted(groups):
        try:
            value = statistics.fmean(groups[n]) if agg == "mean" else max(groups[n])
        except OverflowError:
            # fmean's sum can overflow though every value is finite
            raise ValueError(f"metric {metric!r} is too large to average at n={n}") from None
        if value <= 0:
            raise ValueError(f"metric {metric!r} must be positive to fit, got {value} at n={n}")
        xs.append(math.log(n))
        ys.append(math.log(value))
    return statistics.linear_regression(xs, ys).slope
