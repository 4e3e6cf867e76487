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
ALGOS = ("dhselect", "quickselect", "quickselect-mom")
PIVOTS = ("first", "random")  # the pivot rules a "quickselect" series can name

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


def _to_row(record) -> list[str]:
    """The record's CSV cells, one per field, in column order."""
    return [_cell(value) for value in record]


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
    to_row = _to_row


CSV_FIELDS = ExperimentRecord._fields


class AlgoSpec(
    namedtuple("AlgoSpec", ("name", "strategy", "presplit", "pivot"), defaults=("dhselect", "tree", 1, "first"))
):
    """One algorithm configuration under test. The ``label`` qualifies
    quickselect with its pivot rule so series stay distinguishable in a
    single CSV."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace runs __new__'s checks

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.name not in ALGOS:
            raise ValueError(f"unknown algo {self.name!r}, expected one of {ALGOS}")
        if self.pivot not in PIVOTS:
            raise ValueError(f"pivot must be one of {PIVOTS}, got {self.pivot!r}")
        if SelectOptions(self.strategy, self.presplit) != SelectOptions() and self.name != "dhselect":
            raise ValueError(f"strategy and presplit apply only to dhselect, not to {self.name!r}")
        # AlgoSpec.pivot is the field's accessor; the default is in _field_defaults
        if self.pivot != self._field_defaults["pivot"] and self.name != "quickselect":
            raise ValueError(f"pivot applies only to quickselect, not to {self.name!r}")
        return self

    @property
    def label(self) -> str:
        if self.name == "quickselect":
            return f"quickselect-{self.pivot}"
        return self.name

    def select(self, arr: SentinelArray, k: int, seed: int, ctx: Metrics):
        """Run this configuration on a prepared buffer and return the k-th
        smallest value. ``seed`` feeds the random quickselect pivot."""
        if self.name == "dhselect":
            return dh_select(arr, k, SelectOptions(self.strategy, self.presplit), ctx).value
        if self.name == "quickselect":
            return quickselect(arr, k, self.pivot, ctx, seed=seed)
        return quickselect(arr, k, "median_of_medians", ctx)


class BenchConfig(
    namedtuple(
        "BenchConfig",
        ("sizes", "dists", "algos", "trials", "seed", "k", "timing"),
        defaults=(DEFAULT_SIZES, ("random",), (AlgoSpec(),), 3, 0, None, False),
    )
):
    """Sizes x dists x algos x trials from one master seed. ``sizes``,
    ``dists`` and ``algos`` are non-empty tuples. ``k`` None selects the
    median address ceil(n/2); any other k must fit every size. ``timing`` is
    opt-in, because a real elapsed_ns breaks byte-reproducibility."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # so that _replace runs __new__'s checks

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for field in ("sizes", "dists", "algos"):
            series = getattr(self, field)
            # exactly a tuple: a namedtuple such as an AlgoSpec would iterate its fields
            if type(series) is not tuple:
                raise TypeError(f"{field} must be a tuple, not {type(series).__name__} ({series!r})")
            if not series:
                raise ValueError(f"{field} must not be empty")
        for n in self.sizes:
            _check_size(n)
        if self.k is not None:
            for n in self.sizes:
                check_index(n, self.k)
        for dist in self.dists:
            _check_dist(dist)
        for algo in self.algos:
            if not isinstance(algo, AlgoSpec):
                raise TypeError(f"each algo must be an AlgoSpec, not {type(algo).__name__} ({algo!r})")
        check_int("trials", self.trials)
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        check_seed(self.seed)
        if not isinstance(self.timing, bool):
            raise TypeError(f"timing must be a bool, not {type(self.timing).__name__} ({self.timing!r})")
        return self


def median_index(n: int) -> int:
    return (n + 1) // 2


def _run_trial(algo: AlgoSpec, values: list[int], k: int, seed: int) -> tuple[int, Metrics, int, bool]:
    ctx = Metrics()
    arr = prepare_buffer(values)
    start = time.perf_counter_ns()
    value = algo.select(arr, k, seed, ctx)
    elapsed_ns = time.perf_counter_ns() - start
    correct = value == oracle_select(values, k) and verify_partition(arr, k)
    return value, ctx, elapsed_ns, correct


def run_benchmark(config: BenchConfig) -> list[ExperimentRecord]:
    """Run sizes x dists x algos x trials, one checked record per trial: the
    value must equal the oracle's and the buffer must be partitioned about
    k. Trial input seeds are drawn from a master splitmix64 stream per
    (size, dist, trial) so that every algorithm sees the same inputs; any
    oracle mismatch aborts the whole run with a reproduction line."""
    master = SplitMix64(config.seed)
    records = []
    for n in config.sizes:
        k = config.k if config.k is not None else median_index(n)
        for dist in config.dists:
            trial_seeds = master.take(config.trials)
            for algo in config.algos:
                for trial in range(config.trials):
                    seed = trial_seeds[trial]
                    values = generate(n, dist, seed)
                    value, ctx, elapsed_ns, correct = _run_trial(algo, values, k, seed)
                    if not correct:
                        raise OracleMismatchError(
                            f"oracle mismatch: algo={algo.label} n={n} k={k} "
                            f"dist={dist} seed={seed} got={value}"
                        )
                    records.append(
                        ExperimentRecord(
                            algo=algo.label,
                            swap_strategy=algo.strategy if algo.name == "dhselect" else "",
                            presplit=algo.presplit if algo.name == "dhselect" else None,
                            n=n,
                            k=k,
                            dist=dist,
                            seed=seed,
                            trial=trial,
                            compares_construct=ctx.construct.compares,
                            moves_construct=ctx.construct.moves,
                            compares_swap=ctx.swap.compares,
                            moves_swap=ctx.swap.moves,
                            compares_total=ctx.compares_total,
                            moves_total=ctx.moves_total,
                            elapsed_ns=elapsed_ns if config.timing else 0,
                            correct=True,
                        )
                    )
    return records


def _write_csv(header, records, dest) -> None:
    """Write a header and one row per record, LF line endings, to a path or
    an open handle."""
    if not hasattr(dest, "write"):
        with open(dest, "w", newline="") as handle:
            return _write_csv(header, records, handle)
    writer = csv.writer(dest, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(record.to_row() for record in records)


def emit_csv(records, dest) -> None:
    """Write records with the pinned header, LF line endings."""
    _write_csv(CSV_FIELDS, records, dest)


class WorstCaseReport(
    namedtuple(
        "WorstCaseReport",
        ("n", "instances_tested", "max_compares_swap", "argmax_k", "argmax_seed", "argmax_permutation"),
        defaults=(None, ()),
    )
):
    """Maximum swapping-phase comparisons observed for one size, with a
    witness; its fields, in order, are the CSV columns. Exhaustive mode
    records the witness permutation itself; random mode records the seed
    that regenerates it (plus the permutation when it is small enough to
    print)."""

    __slots__ = ()
    to_row = _to_row


WORSTCASE_FIELDS = WorstCaseReport._fields


EXHAUSTIVE_MAX_N = 9

# Random-mode witnesses above this size are reproduced from the seed rather
# than printed inline.
_WITNESS_PRINT_LIMIT = 64


def _worst_case(n: int, instances, opts: SelectOptions | None) -> WorstCaseReport:
    """Run dh_select on each ``(buffer, k, seed, permutation)`` instance and
    report the first one with the most swapping-phase comparisons."""
    best = -1
    for count, (arr, k, seed, perm) in enumerate(instances, 1):
        ctx = Metrics()
        dh_select(arr, k, opts, ctx)
        if ctx.swap.compares > best:
            best = ctx.swap.compares
            witness = k, seed, perm
    k, seed, perm = witness
    return WorstCaseReport(
        n=n,
        instances_tested=count,
        max_compares_swap=best,
        argmax_k=k,
        argmax_seed=seed,
        argmax_permutation=perm,
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
        # permutations of 1..n have known extremes; skip prepare_buffer's scans
        instances = (
            (SentinelArray([1, *perm, n]), k, None, perm)
            for perm in itertools.permutations(range(1, n + 1))
            for k in range(1, n + 1)
        )
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
    # each sample is a permutation of 1..n, as in exhaustive mode
    instances = (
        (SentinelArray([1, *values, n]), k, sample_seed, tuple(values) if n <= _WITNESS_PRINT_LIMIT else ())
        for sample_seed in SplitMix64(seed).take(samples)
        for values in [generate(n, "random", sample_seed)]
    )
    return _worst_case(n, instances, opts)


def emit_worstcase_csv(reports, dest) -> None:
    _write_csv(WORSTCASE_FIELDS, reports, dest)


def fit_growth(records, metric: str, agg: str = "mean") -> float:
    """Least-squares slope of log(metric) against log(n) over per-size
    aggregates (means, or maxima for worst-case style data). Needs at least
    three distinct sizes; each n must be an int of at least 1, each value
    finite and each aggregate positive."""
    import statistics  # only fitting needs it, and it is slow to import
    if agg not in ("mean", "max"):
        raise ValueError(f"agg must be 'mean' or 'max', got {agg!r}")
    groups: dict[int, list[float]] = {}
    for record in records:
        _check_size(record.n)
        value = float(getattr(record, metric))
        # a nan or an inf would fit as slope=nan, and max() can pass over a nan
        if not math.isfinite(value):
            raise ValueError(f"metric {metric!r} must be finite to fit, got {value} at n={record.n}")
        groups.setdefault(record.n, []).append(value)
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
