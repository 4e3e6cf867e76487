"""Golden outputs: the CLI's stdout and CSV bytes, pinned by sha256.

Every digest was recorded before the schema, dispatch and flag
declarations were folded into single definitions; a refactor that changes
one byte of what ``select``, ``sort``, ``bench``, ``worstcase`` or ``fit``
prints fails here.
"""

import contextlib
import hashlib
import io

import pytest

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
