"""Benchmark harness: seeded input generators, an oracle-gated trial
runner, the worst-case prospector, and log-log growth fitting.

Everything here is deterministic given its arguments: the generators run a
fixed PRNG, trial seeds are drawn from one master stream in a fixed loop
order, and rows are emitted in that order. Wall-clock time is measured but
reported as zero unless explicitly requested, so identical configurations
produce byte-identical CSV.
"""

from __future__ import annotations

import csv
import itertools
import math
import statistics
import time
from dataclasses import dataclass, fields
from io import StringIO

from .baselines import PivotRule, oracle_select, quickselect
from .core import SentinelArray
from .errors import OracleMismatchError
from .metrics import Metrics
from .rng import SplitMix64
from .select import SelectOptions, dh_select, prepare_buffer, verify_partition

DISTS = ("random", "sorted", "reverse", "organpipe", "allequal", "fewvalues")
ALGOS = ("dhselect", "quickselect", "quickselect-mom")
PIVOTS = ("first", "random")  # the pivot rules a "quickselect" series can name

DEFAULT_SIZES = (1023, 4095, 16383)


@dataclass(frozen=True)
class InputSpec:
    """One generated input: size, shape family, and the seed that pins it."""

    n: int
    dist: str
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"input size must be >= 1, got {self.n}")
        if self.dist not in DISTS:
            raise ValueError(f"unknown dist {self.dist!r}, expected one of {DISTS}")


def generate(spec: InputSpec) -> list[int]:
    """Materialize the input sequence for a spec.

    ``random`` is a Fisher-Yates shuffle of 1..n: walking i from n-1 down to
    1 (0-based), swap position i with position ``stream.below(i + 1)`` where
    the stream is splitmix64 seeded with the spec's seed. This exact recipe
    is the reproducibility contract. The other families ignore the seed.
    """
    n = spec.n
    if spec.dist == "random":
        values = list(range(1, n + 1))
        stream = SplitMix64(spec.seed)
        for i in range(n - 1, 0, -1):
            j = stream.below(i + 1)
            values[i], values[j] = values[j], values[i]
        return values
    if spec.dist == "sorted":
        return list(range(1, n + 1))
    if spec.dist == "reverse":
        return list(range(n, 0, -1))
    if spec.dist == "organpipe":
        return list(range(1, (n + 1) // 2 + 1)) + list(range(n // 2, 0, -1))
    if spec.dist == "allequal":
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
    """The record's CSV cells, one per dataclass field, in field order."""
    return [_cell(getattr(record, field.name)) for field in fields(record)]


# Parsers for the annotations of ExperimentRecord's fields.
_PARSERS = {
    "str": str,
    "int": int,
    "int | None": lambda text: int(text) if text else None,
    "bool": "true".__eq__,
}


@dataclass
class ExperimentRecord:
    """One benchmark trial row; its fields, in order, are the CSV columns.
    The runner oracle-checks every trial, so ``correct`` is true in every
    record that ever reaches a CSV."""

    algo: str
    swap_strategy: str
    presplit: int | None
    n: int
    k: int
    dist: str
    seed: int
    trial: int
    compares_construct: int
    moves_construct: int
    compares_swap: int
    moves_swap: int
    compares_total: int
    moves_total: int
    elapsed_ns: int
    correct: bool

    to_row = _to_row

    @classmethod
    def from_row(cls, row: dict) -> "ExperimentRecord":
        return cls(**{field.name: _PARSERS[field.type](row[field.name]) for field in fields(cls)})


CSV_FIELDS = tuple(field.name for field in fields(ExperimentRecord))
CSV_HEADER = ",".join(CSV_FIELDS)


@dataclass(frozen=True)
class AlgoSpec:
    """One algorithm configuration under test. The ``label`` qualifies
    quickselect with its pivot rule so series stay distinguishable in a
    single CSV."""

    name: str = "dhselect"
    strategy: str = "tree"
    presplit: int = 1
    pivot: str = "first"

    def __post_init__(self):
        if self.name not in ALGOS:
            raise ValueError(f"unknown algo {self.name!r}, expected one of {ALGOS}")
        if self.pivot not in PIVOTS:
            raise ValueError(f"pivot must be one of {PIVOTS}, got {self.pivot!r}")

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
            return quickselect(arr, k, PivotRule(self.pivot, seed=seed), ctx)
        return quickselect(arr, k, PivotRule("median_of_medians"), ctx)


@dataclass(frozen=True)
class BenchConfig:
    sizes: tuple[int, ...] = DEFAULT_SIZES
    dists: tuple[str, ...] = ("random",)
    algos: tuple[AlgoSpec, ...] = (AlgoSpec(),)
    trials: int = 3
    seed: int = 0
    k: int | None = None  # None selects the median address ceil(n/2)
    timing: bool = False  # real elapsed_ns breaks byte-reproducibility, so opt-in


def median_index(n: int) -> int:
    return (n + 1) // 2


def _run_trial(algo: AlgoSpec, values: list[int], k: int, seed: int) -> tuple[int, Metrics, int, bool]:
    ctx = Metrics()
    arr = prepare_buffer(values)
    start = time.perf_counter_ns()
    value = algo.select(arr, k, seed, ctx)
    elapsed_ns = time.perf_counter_ns() - start
    correct = value == oracle_select(values, k)
    if correct and algo.name == "dhselect":
        correct = verify_partition(arr, k)
    return value, ctx, elapsed_ns, correct


def run_benchmark(config: BenchConfig) -> list[ExperimentRecord]:
    """Run sizes x dists x algos x trials, one oracle-checked record per
    trial. Trial input seeds are drawn from a master splitmix64 stream per
    (size, dist, trial) so that every algorithm sees the same inputs; any
    oracle mismatch aborts the whole run with a reproduction line."""
    master = SplitMix64(config.seed)
    records = []
    for n in config.sizes:
        k = config.k if config.k is not None else median_index(n)
        if not 1 <= k <= n:
            raise ValueError(f"selection index k={k} out of range 1..{n}")
        for dist in config.dists:
            trial_seeds = [master.next_u64() for _ in range(config.trials)]
            for algo in config.algos:
                for trial in range(config.trials):
                    seed = trial_seeds[trial]
                    values = generate(InputSpec(n, dist, seed))
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


def records_to_csv(records) -> str:
    out = StringIO()
    _write_csv(CSV_FIELDS, records, out)
    return out.getvalue()


def parse_csv(source) -> list[ExperimentRecord]:
    """Round-trip reader for files produced by emit_csv."""
    if not hasattr(source, "read"):
        with open(source, newline="") as handle:
            return parse_csv(handle)
    return [ExperimentRecord.from_row(row) for row in csv.DictReader(source)]


@dataclass
class WorstCaseReport:
    """Maximum swapping-phase comparisons observed for one size, with a
    witness; its fields, in order, are the CSV columns. Exhaustive mode
    records the witness permutation itself; random mode records the seed
    that regenerates it (plus the permutation when it is small enough to
    print)."""

    n: int
    instances_tested: int
    max_compares_swap: int
    argmax_k: int
    argmax_seed: int | None = None
    argmax_permutation: tuple[int, ...] = ()

    to_row = _to_row


WORSTCASE_FIELDS = tuple(field.name for field in fields(WorstCaseReport))


EXHAUSTIVE_MAX_N = 9

# Random-mode witnesses above this size are reproduced from the seed rather
# than printed inline.
_WITNESS_PRINT_LIMIT = 64


def worst_case_search_exhaustive(max_n: int, opts: SelectOptions | None = None) -> list[WorstCaseReport]:
    """For each n up to max_n, run every (permutation of 1..n, k) pair and
    report the maximum swapping-phase comparison count with its witness.
    The enumeration order (lexicographic permutations, k ascending, first
    maximum kept) makes the witness deterministic."""
    if not 1 <= max_n <= EXHAUSTIVE_MAX_N:
        raise ValueError(f"exhaustive mode is bounded to 1..{EXHAUSTIVE_MAX_N}, got {max_n}")
    if opts is None:
        opts = SelectOptions()
    reports = []
    for n in range(1, max_n + 1):
        best = -1
        arg_perm: tuple[int, ...] = ()
        arg_k = 1
        count = 0
        for perm in itertools.permutations(range(1, n + 1)):
            for k in range(1, n + 1):
                # permutations of 1..n have known extremes; skip the min/max scan
                arr = SentinelArray(buf=[1, *perm, n], n=n)
                ctx = Metrics()
                dh_select(arr, k, opts, ctx)
                count += 1
                if ctx.swap.compares > best:
                    best = ctx.swap.compares
                    arg_perm = perm
                    arg_k = k
        reports.append(
            WorstCaseReport(
                n=n,
                instances_tested=count,
                max_compares_swap=best,
                argmax_permutation=arg_perm,
                argmax_k=arg_k,
            )
        )
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
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if opts is None:
        opts = SelectOptions()
    if k is None:
        k = median_index(n)
    if not 1 <= k <= n:
        raise ValueError(f"selection index k={k} out of range 1..{n}")
    master = SplitMix64(seed)
    best = -1
    arg_seed = 0
    arg_perm: tuple[int, ...] = ()
    for _ in range(samples):
        sample_seed = master.next_u64()
        values = generate(InputSpec(n, "random", sample_seed))
        ctx = Metrics()
        dh_select(prepare_buffer(values), k, opts, ctx)
        if ctx.swap.compares > best:
            best = ctx.swap.compares
            arg_seed = sample_seed
            arg_perm = tuple(values) if n <= _WITNESS_PRINT_LIMIT else ()
    return WorstCaseReport(
        n=n,
        instances_tested=samples,
        max_compares_swap=best,
        argmax_permutation=arg_perm,
        argmax_k=k,
        argmax_seed=arg_seed,
    )


def emit_worstcase_csv(reports, dest) -> None:
    _write_csv(WORSTCASE_FIELDS, reports, dest)


def fit_growth(records, metric: str, agg: str = "mean") -> float:
    """Least-squares slope of log(metric) against log(n) over per-size
    aggregates (means, or maxima for worst-case style data). Needs at least
    three distinct sizes."""
    if agg not in ("mean", "max"):
        raise ValueError(f"agg must be 'mean' or 'max', got {agg!r}")
    groups: dict[int, list[float]] = {}
    for record in records:
        groups.setdefault(record.n, []).append(float(getattr(record, metric)))
    if len(groups) < 3:
        raise ValueError(f"growth fitting needs >= 3 distinct sizes, got {len(groups)}")
    xs = []
    ys = []
    for n in sorted(groups):
        value = statistics.fmean(groups[n]) if agg == "mean" else max(groups[n])
        if value <= 0:
            raise ValueError(f"metric {metric!r} must be positive to fit, got {value} at n={n}")
        xs.append(math.log(n))
        ys.append(math.log(value))
    return statistics.linear_regression(xs, ys).slope
