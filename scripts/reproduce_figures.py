#!/usr/bin/env python3
"""Regenerate the three benchmark series the comparison plots are built
from, as CSV files plus a per-series summary table on stdout:

* swap_strategies.csv  - swapping-phase compares/moves for the tree,
  branch, and root exchange strategies;
* presplit.csv         - both-phase totals for zero, one, and two
  whole-array constructions before the split;
* selection_algorithms.csv - totals for dualheap select vs quickselect
  (first and random pivots) vs quickselect with the median-of-medians
  estimator.

Plotting is left to downstream tools (the CSVs are tidy long-format).
"""

import statistics
from pathlib import Path

from dualheap import AlgoSpec, BenchConfig, emit_csv, run_benchmark
from dualheap.cli import _int_list, _Parser, _positive, _seed

SERIES = {
    "swap_strategies": (
        AlgoSpec(strategy="tree"),
        AlgoSpec(strategy="branch"),
        AlgoSpec(strategy="root"),
    ),
    "presplit": (
        AlgoSpec(presplit=0),
        AlgoSpec(presplit=1),
        AlgoSpec(presplit=2),
    ),
    "selection_algorithms": (
        AlgoSpec("dhselect"),
        AlgoSpec("quickselect", pivot="first"),
        AlgoSpec("quickselect", pivot="random"),
        AlgoSpec("quickselect-mom"),
    ),
}


def series_key(record):
    if record.algo == "dhselect":
        return f"dhselect[{record.swap_strategy},presplit={record.presplit}]"
    return record.algo


def summarize(name, records, metrics):
    print(f"\n{name} (mean over trials)")
    sizes = sorted({r.n for r in records})
    keys = list(dict.fromkeys(series_key(r) for r in records))
    header = "series".ljust(36) + "".join(f"{f'n={n}':>14}" for n in sizes)
    for metric in metrics:
        print(f"  {metric}:")
        print("  " + header)
        for key in keys:
            row = key.ljust(36)
            for n in sizes:
                values = [getattr(r, metric) for r in records if series_key(r) == key and r.n == n]
                row += f"{statistics.fmean(values):>14.0f}"
            print("  " + row)


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
        config = BenchConfig(
            sizes=args.sizes,
            dists=("random",),
            algos=algos,
            trials=args.trials,
            seed=args.seed,
        )
        records = run_benchmark(config)
        path = out_dir / f"{name}.csv"
        emit_csv(records, path)
        print(f"wrote {path} ({len(records)} rows)")
        if name == "swap_strategies":
            summarize(name, records, ("compares_swap", "moves_swap"))
        else:
            summarize(name, records, ("compares_total", "moves_total"))


if __name__ == "__main__":
    main()
