"""Golden outputs: the CLI's stdout and CSV bytes, and the library's
buffers and per-phase counts, pinned by sha256.

Every CLI digest was recorded before the schema, dispatch and flag
declarations were folded into single definitions; a refactor that changes
one byte of what ``select``, ``sort``, ``bench``, ``worstcase`` or ``fit``
prints fails here. The library digest was recorded before the counted
kernels were handed their phase's tally in place of the whole ``Metrics``.
"""

import contextlib
import hashlib
import io
import itertools

import pytest

from dualheap import (
    PRESPLITS,
    STRATEGIES,
    Metrics,
    SelectOptions,
    SentinelArray,
    SplitMix64,
    construct_dualheap,
    dh_select,
    dh_sort,
    prepare_buffer,
    quickselect,
)
from dualheap.cli import main


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


BENCH_COMMON = (
    "bench", "--sizes", "31,63,127", "--trials", "2", "--seed", "5",
    "--dist", "random,sorted,reverse,organpipe,allequal,fewvalues",
)
BENCH_FLAGS = (
    ("--swap", "tree", "--presplit", "0"),
    ("--swap", "branch", "--presplit", "2"),
    ("--swap", "root"),
    ("--algo", "quickselect", "--pivot", "first"),
    ("--algo", "quickselect", "--pivot", "random"),
    ("--algo", "quickselect-mom"),
)
SELECT_FLAGS = (
    ("--swap", "tree"),
    ("--swap", "branch", "--presplit", "2"),
    ("--swap", "root", "--presplit", "0", "--k", "17"),
    ("--algo", "quickselect", "--pivot", "random", "--k", "90"),
    ("--algo", "quickselect-mom"),
    ("--algo", "quickselect", "--dist", "sorted", "--k", "3"),
)
WORSTCASE_EXHAUSTIVE = ("worstcase", "--mode", "exhaustive", "--max-n", "5")


def test_bench_csv_bytes():
    text = "".join(_stdout(*BENCH_COMMON, *flags) for flags in BENCH_FLAGS)
    assert _digest(text) == "fdd80f3ea9ac9c41e76f90a5b1314d97d22e0e7e1e06ed960295a08a84e68ffe"


def test_worstcase_exhaustive_csv_bytes():
    text = _stdout(*WORSTCASE_EXHAUSTIVE)
    assert _digest(text) == "9357289ee531935208fcc21956569c363298aefb9c79449a7e4a25add4b2637c"


def test_worstcase_random_csv_bytes():
    text = _stdout("worstcase", "--mode", "random", "--n", "127", "--samples", "20", "--seed", "2")
    assert _digest(text) == "63130cac56fc8544ee4ed2fc24728b06f3bc6b5f23567bb6aa096fa39fcc6454"


def test_select_stdout_bytes():
    text = "".join(_stdout("select", "--n", "101", "--seed", "7", *flags) for flags in SELECT_FLAGS)
    assert _digest(text) == "ddf7cfe1af00b2893b9d846a526d29113bbdb3a236010e41f529aeba58844ce5"


def test_sort_stdout_bytes():
    text = "".join(
        _stdout("sort", "--n", "200", "--dist", dist, "--seed", "3", *flags)
        for dist in ("random", "organpipe", "fewvalues")
        for flags in (("--swap", "tree"), ("--swap", "root", "--presplit", "2"))
    )
    assert _digest(text) == "ba4d1c072a6f926d56573f1c2a45995f91191cf06f2f21025ee98846dc268b0f"


@pytest.mark.parametrize(
    "argv, metric, agg, expected",
    [
        ((*BENCH_COMMON, "--swap", "branch"), "compares_total", "mean", "slope=1.123741\n"),
        (WORSTCASE_EXHAUSTIVE, "max_compares_swap", "max", "slope=1.254664\n"),
    ],
)
def test_fit_stdout_bytes(argv, metric, agg, expected, tmp_path):
    path = tmp_path / "series.csv"
    assert main([*argv, "--out", str(path)]) == 0
    text = _stdout("fit", "--in", str(path), "--metric", metric, "--agg", agg)
    assert text == expected


def test_library_counts_digest():
    """Buffer, value, split and every per-phase counter of dh_select on every
    permutation for n <= 6 at every k, strategy and presplit, plus tie-heavy
    dh_sort, quickselect and construct_dualheap runs."""
    digest = hashlib.sha256()
    options = [SelectOptions(strategy, presplit) for strategy in STRATEGIES for presplit in PRESPLITS]
    for n in range(1, 7):
        for perm in itertools.permutations(range(1, n + 1)):
            for k in range(1, n + 1):
                for opts in options:
                    ctx = Metrics()
                    arr = SentinelArray([0, *perm, n + 1], n)
                    out = dh_select(arr, k, opts, ctx)
                    digest.update(repr((arr.buf, out.value, out.split, ctx.snapshot())).encode())
    stream = SplitMix64(13)
    for n in (7, 30, 255, 1000):
        values = [1 + v % 4 for v in stream.take(n)]
        for opts in options:
            ctx = Metrics()
            digest.update(repr((dh_sort(values, opts, ctx), ctx.snapshot())).encode())
        for k in (1, (n + 1) // 2, n):
            for pivot in ("first", "random", "median_of_medians"):
                ctx = Metrics()
                arr = prepare_buffer(values)
                value = quickselect(arr, k, pivot, ctx, seed=3)
                digest.update(repr((arr.buf, value, ctx.snapshot())).encode())
            ctx = Metrics()
            arr = prepare_buffer(values)
            shn = construct_dualheap(arr, k, 2, ctx)
            digest.update(repr((arr.buf, shn, ctx.snapshot())).encode())
    assert digest.hexdigest() == "1a1d16e51df1a296cf26206425e2f425830f5b9ad5855c619fd392aba72d5957"
