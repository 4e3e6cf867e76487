#!/usr/bin/env python3
"""Regenerate the four benchmark series the comparison plots are built
from, as CSV files plus a per-series summary table on stdout:

* swap_strategies.csv  - swapping-phase compares/moves for the tree,
  branch, and root exchange strategies;
* presplit.csv         - both-phase totals for zero, one, and two
  whole-array constructions before the split;
* selection_algorithms.csv - totals for dualheap select vs quickselect
  (first and random pivots) vs quickselect with the median-of-medians
  estimator;
* sorter.csv           - dh_sort's compares and moves per element at
  presplit 0, 1 and 2, the compares per element of a counted ``sorted()``,
  and the sorting bound log2(n!) per element, each a mean over the same
  random permutations.

Plotting is left to downstream tools (the CSVs are tidy long-format).
"""

import functools
import math
import statistics
from pathlib import Path

from dualheap import InternalInvariantError, Metrics, SelectOptions, dh_sort
from dualheap.bench import emit_csv, generate, run_benchmark, write_csv
from dualheap.cli import _int_list, _Parser, _positive, _seed
from dualheap.rng import SplitMix64

SERIES = {
    "swap_strategies": (
        SelectOptions(strategy="tree"),
        SelectOptions(strategy="branch"),
        SelectOptions(strategy="root"),
    ),
    "presplit": (
        SelectOptions(presplit=0),
        SelectOptions(presplit=1),
        SelectOptions(presplit=2),
    ),
    "selection_algorithms": (
        SelectOptions(),
        "quickselect-first",
        "quickselect-random",
        "quickselect-mom",
    ),
}


def series_key(record):
    if record.algo == "dhselect":
        return f"dhselect[{record.swap_strategy},presplit={record.presplit}]"
    return record.algo


def summarize(title, points, fmt):
    """Print one table per metric of ``(metric, series, n, value)`` points:
    a row per series, in the order first seen, and the mean of its values
    at each size, sizes ascending, formatted by ``fmt``."""
    tables = {}
    for metric, series, n, value in points:
        tables.setdefault(metric, {}).setdefault(series, {}).setdefault(n, []).append(value)
    sizes = sorted({point[2] for point in points})
    print(f"\n{title}")
    header = "series".ljust(36) + "".join(f"{f'n={n}':>14}" for n in sizes)
    for metric, rows in tables.items():
        print(f"  {metric}:")
        print("  " + header)
        for series, cells in rows.items():
            print("  " + series.ljust(36) + "".join(f"{statistics.fmean(cells[n]):>14{fmt}}" for n in sizes))


def counted_sorted(values):
    """``sorted(values)`` and the number of compares it made."""
    compares = 0

    def cmp(a, b):
        nonlocal compares
        compares += 1
        return (a > b) - (a < b)

    return sorted(values, key=functools.cmp_to_key(cmp)), compares


def sorter_series(sizes, trials, seed):
    """Rows of (n, series, compares per element, moves per element), each a
    mean over ``trials`` random permutations per size whose seeds come from
    one master stream, as ``run_benchmark`` draws them. ``dh_sort`` runs the
    tree strategy; its output must equal ``sorted()``'s."""
    master = SplitMix64(seed)
    rows = []
    for n in sizes:
        sums = {presplit: [0, 0] for presplit in (0, 1, 2)}
        sorted_compares = 0
        for trial_seed in master.take(trials):
            values = generate(n, "random", trial_seed)
            expected, compares = counted_sorted(values)
            sorted_compares += compares
            for presplit, total in sums.items():
                ctx = Metrics()
                if dh_sort(values, SelectOptions("tree", presplit), ctx) != expected:
                    raise InternalInvariantError(f"dh_sort disagrees with sorted() (n={n}, seed={trial_seed})")
                total[0] += ctx.compares_total
                total[1] += ctx.moves_total
        per_elem = trials * n
        for presplit, (compares, moves) in sums.items():
            rows.append((n, f"dh_sort[presplit={presplit}]", compares / per_elem, moves / per_elem))
        rows.append((n, "sorted()", sorted_compares / per_elem, None))
        rows.append((n, "log2(n!)", math.lgamma(n + 1) / math.log(2) / n, None))
    return rows


def main():
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=_int_list, default="1023,4095,16383")
    parser.add_argument("--trials", type=_positive, default=100)
    parser.add_argument("--seed", type=_seed, default=1)
    parser.add_argument("--out-dir", default="results")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for name, algos in SERIES.items():
        records = run_benchmark(args.sizes, ("random",), algos, args.trials, args.seed)
        path = out_dir / f"{name}.csv"
        emit_csv(records, path)
        print(f"wrote {path} ({len(records)} rows)")
        metrics = ("compares_swap", "moves_swap") if name == "swap_strategies" else ("compares_total", "moves_total")
        points = [(metric, series_key(r), r.n, getattr(r, metric)) for metric in metrics for r in records]
        summarize(f"{name} (mean over trials)", points, ".0f")

    rows = sorter_series(args.sizes, args.trials, args.seed)
    path = out_dir / "sorter.csv"
    metrics = ("compares_per_elem", "moves_per_elem")
    cells = [(n, series, f"{c:.4f}", None if m is None else f"{m:.4f}") for n, series, c, m in rows]
    write_csv(("n", "series", *metrics), cells, path)
    print(f"wrote {path} ({len(rows)} rows)")
    points = [(m, series, n, v) for n, series, *values in rows for m, v in zip(metrics, values) if v is not None]
    summarize("sorter (mean per element over trials)", points, ".2f")


if __name__ == "__main__":
    main()
