import contextlib
import csv
import importlib.util
import io
import itertools
import math
import subprocess
import sys
import types
from pathlib import Path

import pytest

import dualheap.bench as bench
import dualheap.cli as cli
from dualheap import Metrics, SelectOptions, dh_sort
from dualheap.baselines import oracle_select
from dualheap.bench import CSV_FIELDS, generate
from dualheap.errors import OracleMismatchError
from dualheap.rng import SplitMix64

REPRODUCE_FIGURES = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_figures.py"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dualheap.cli", *args],
        capture_output=True,
        text=True,
    )


def test_select_prints_the_selected_value():
    result = run_cli("select", "--n", "101", "--dist", "random", "--seed", "7")
    assert result.returncode == 0
    values = generate(101, "random", 7)
    assert result.stdout.strip() == str(oracle_select(values, 51))


def test_select_explicit_k_and_algos_agree():
    answers = set()
    for algo_flags in (
        ("--algo", "dhselect", "--swap", "branch", "--presplit", "2"),
        ("--algo", "quickselect", "--pivot", "random"),
        ("--algo", "quickselect-mom"),
    ):
        result = run_cli("select", "--n", "64", "--seed", "3", "--k", "10", *algo_flags)
        assert result.returncode == 0
        answers.add(result.stdout.strip())
    assert len(answers) == 1


def test_sort_outputs_sorted_sequence():
    result = run_cli("sort", "--n", "12", "--dist", "organpipe")
    assert result.returncode == 0
    got = list(map(int, result.stdout.split()))
    assert got == sorted(generate(12, "organpipe"))


def test_bench_csv_on_stdout():
    result = run_cli("bench", "--sizes", "63", "--trials", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == ",".join(CSV_FIELDS)
    assert len(lines) == 3
    assert all(line.endswith("true") for line in lines[1:])


def test_bench_byte_identical_across_invocations(tmp_path):
    args = ("bench", "--sizes", "127,255", "--trials", "3", "--seed", "11", "--dist", "random,organpipe")
    first = run_cli(*args, "--out", str(tmp_path / "a.csv"))
    second = run_cli(*args, "--out", str(tmp_path / "b.csv"))
    assert first.returncode == second.returncode == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_worstcase_exhaustive_output():
    result = run_cli("worstcase", "--mode", "exhaustive", "--max-n", "3")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0].startswith("n,instances_tested,max_compares_swap")
    assert len(lines) == 4
    assert lines[3].split(",")[1] == "18"


def test_worstcase_random_mode_deterministic():
    a = run_cli("worstcase", "--mode", "random", "--n", "127", "--samples", "20", "--seed", "2")
    b = run_cli("worstcase", "--mode", "random", "--n", "127", "--samples", "20", "--seed", "2")
    assert a.returncode == 0
    assert a.stdout == b.stdout


def test_worstcase_random_takes_a_size_list(tmp_path):
    sizes = ("15", "31", "63")
    single = [run_cli("worstcase", "--mode", "random", "--n", n, "--samples", "5", "--seed", "3") for n in sizes]
    path = tmp_path / "w.csv"
    joined = run_cli("worstcase", "--mode", "random", "--n", ",".join(sizes), "--samples", "5", "--seed", "3", "--out", str(path))
    assert joined.returncode == 0
    lines = path.read_text().splitlines()
    assert lines == single[0].stdout.splitlines() + [r.stdout.splitlines()[1] for r in single[1:]]
    fit = run_cli("fit", "--in", str(path), "--metric", "max_compares_swap", "--agg", "max")
    assert fit.returncode == 0
    assert fit.stdout.startswith("slope=")


def test_fit_reads_bench_csv(tmp_path):
    path = tmp_path / "series.csv"
    result = run_cli(
        "bench", "--sizes", "255,511,1023", "--trials", "3", "--seed", "5", "--out", str(path)
    )
    assert result.returncode == 0
    fit = run_cli("fit", "--in", str(path), "--metric", "compares_total")
    assert fit.returncode == 0
    assert fit.stdout.startswith("slope=")
    slope = float(fit.stdout.split("=")[1])
    assert 0.8 <= slope <= 1.3
    # the size column against itself: it stays an int, and grows as itself
    itself = run_cli("fit", "--in", str(path), "--metric", "n")
    assert (itself.returncode, itself.stdout, itself.stderr) == (0, "slope=1.000000\n", "")


def test_fit_usage_error_on_missing_column(tmp_path):
    path = tmp_path / "series.csv"
    run_cli("bench", "--sizes", "63,127,255", "--trials", "1", "--out", str(path))
    result = run_cli("fit", "--in", str(path), "--metric", "zaps")
    assert result.returncode == 1
    # a header without n, and one without the --metric column
    for header, metric, missing in (
        ("size,compares_total", "compares_total", "n"),
        ("n,compares_total", "compares_swap", "compares_swap"),
    ):
        path.write_text(f"{header}\n63,10\n127,20\n255,40\n")
        message = f"dualheap: error: {path} has no {missing!r} column\n"
        assert _in_process("fit", "--in", str(path), "--metric", metric) == (1, "", message)


def test_usage_errors_exit_one(tmp_path):
    assert run_cli("select", "--dist", "bogus").returncode == 1
    assert run_cli("select", "--n", "5", "--k", "9").returncode == 1
    assert run_cli("bench", "--sizes", "0").returncode == 1
    assert run_cli("worstcase", "--max-n", "12").returncode == 1
    assert run_cli().returncode == 1
    # fit on finite values whose mean overflows ended in a traceback; the
    # mean comes from several lines, so no line is named
    path = tmp_path / "series.csv"
    path.write_text("n,compares_total\n63,1e308\n63,1e308\n127,10\n255,20\n")
    result = run_cli("fit", "--in", str(path))
    assert result.returncode == 1
    message = "metric 'compares_total' is too large to average at n=63"
    assert (result.stdout, result.stderr) == ("", f"dualheap: error: {message}\n")


@pytest.mark.parametrize("row", ["40", "40,20,99"], ids=["short", "long"])
def test_fit_rejects_a_row_whose_length_differs_from_the_header(tmp_path, row):
    # a one-cell row ended in a TypeError traceback; a three-cell row was fitted
    path = tmp_path / "series.csv"
    path.write_text(f"n,compares_total\n10,5\n\n20,10\n{row}\n80,40\n")
    result = run_cli("fit", "--in", str(path))
    cells = len(row.split(","))
    message = f"dualheap: error: {path} line 5: expected 2 cells, got {cells}\n"
    assert (result.returncode, result.stdout, result.stderr) == (1, "", message)
    # the blank line is skipped, as it always was
    path.write_text("n,compares_total\n10,5\n\n20,10\n40,20\n80,40\n")
    assert run_cli("fit", "--in", str(path)).stdout == "slope=1.000000\n"


@pytest.mark.parametrize(
    "row, error",
    [
        ("63.0,10", "invalid literal for int() with base 10: '63.0'"),
        ("40,x", "could not convert string to float: 'x'"),
        ("0,5", "input size must be >= 1, got 0"),
        ("-3,5", "input size must be >= 1, got -3"),
        ("40,nan", "metric 'compares_total' must be finite to fit, got nan at n=40"),
        ("40,inf", "metric 'compares_total' must be finite to fit, got inf at n=40"),
    ],
    ids=["n", "metric", "n-zero", "n-negative", "nan", "inf"],
)
def test_fit_names_the_line_of_a_cell_it_cannot_parse(tmp_path, row, error):
    # the parse error alone named neither the file nor the line; a size
    # below 1, a nan or an inf was rejected without either too (a nan or an
    # inf once printed slope=nan and exited 0)
    path = tmp_path / "series.csv"
    path.write_text(f"n,compares_total\n10,5\n\n20,10\n{row}\n80,40\n")
    result = run_cli("fit", "--in", str(path))
    message = f"dualheap: error: {path} line 5: {error}\n"
    assert (result.returncode, result.stdout, result.stderr) == (1, "", message)


# a text file is decoded 8 KiB at a time; the line named is still the one
# that holds the byte
_PAST_THE_FIRST_BLOCK = b"".join(b"%d,%d\n" % (n, n) for n in range(1, 3000))


@pytest.mark.parametrize(
    "data, line, error",
    [
        (b"n,compares_total\n10,5\n1," + b"9" * 200_000 + b"\n", 3, "field larger than field limit (131072)"),
        (b"\xfen,compares_total\n10,5\n", 1, "'utf-8' codec can't decode byte 0xfe in position 0: invalid start byte"),
        (b"n,compares_total\n" + _PAST_THE_FIRST_BLOCK + b"5,\xff\n", 3001, "'utf-8' codec can't decode byte 0xff in "
         "position 2: invalid start byte"),
    ],
    ids=["field-limit", "not-utf8-header", "not-utf8"],
)
def test_fit_names_the_line_the_csv_reader_cannot_read(tmp_path, data, line, error):
    # a field over the csv module's limit printed a traceback, and a byte
    # that is not UTF-8 was reported without the file or the line
    path = tmp_path / "series.csv"
    path.write_bytes(data)
    result = run_cli("fit", "--in", str(path))
    message = f"dualheap: error: {path} line {line}: {error}\n"
    assert (result.returncode, result.stdout, result.stderr) == (1, "", message)


@pytest.mark.parametrize(
    "argv",
    [("bench", "--sizes", "100", "--k", "101"), ("worstcase", "--mode", "random", "--n", "100", "--k", "101")],
    ids=["bench", "worstcase"],
)
def test_out_of_range_k_exits_one_with_the_index_message(argv):
    result = run_cli(*argv)
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr == "dualheap: error: selection index k=101 out of range 1..100\n"


def test_bench_rejects_non_positive_trials():
    for trials in ("0", "-2"):
        result = run_cli("bench", "--sizes", "63", "--trials", trials)
        assert result.returncode == 1
        assert result.stdout == ""


def test_unknown_workers_flag_exits_one():
    assert run_cli("select", "--n", "15", "--workers", "2").returncode == 1


@pytest.mark.parametrize(
    "argv, error",
    [
        (("select", "--n", "x"), "argument --n: expected a positive integer, got 'x'"),
        (("bench", "--sizes", "3,x"), "argument --sizes: expected a positive integer, got 'x'"),
        (("select", "--seed", "abc"), "argument --seed: expected a seed in 0..18446744073709551615, got 'abc'"),
        (("bench", "--sizes", "3,,4"), "argument --sizes: expected a positive integer, got ''"),
    ],
    ids=["positive", "int-list", "seed", "empty-item"],
)
def test_a_flag_that_is_not_an_integer_gets_the_flags_message(argv, error):
    # argparse named the private converter: "invalid _positive value: 'x'"
    code, out, err = _in_process(*argv)
    assert (code, out) == (1, "")
    assert err.endswith(f"dualheap {argv[0]}: error: {error}\n")


@pytest.mark.parametrize(
    "command",
    (
        ("select", "--n", "9"),
        ("sort", "--n", "9"),
        ("bench", "--sizes", "9", "--trials", "1"),
        ("worstcase", "--mode", "random", "--n", "9", "--samples", "2"),
    ),
)
def test_seed_outside_64_bits_exits_one(command):
    # the generator keeps only a seed's low 64 bits, so these would alias
    # 2**64 - 1 and 0
    for seed in ("-1", str(2**64)):
        result = run_cli(*command, "--seed", seed)
        assert result.returncode == 1
        assert result.stdout == ""
        assert "--seed" in result.stderr
    assert run_cli(*command, "--seed", str(2**64 - 1)).returncode == 0


@pytest.mark.parametrize(
    "argv",
    [
        ("sort", "--n", "100"),
        ("bench", "--sizes", "63", "--trials", "1"),
        ("worstcase", "--mode", "random", "--n", "63", "--samples", "3"),
    ],
    ids=["sort", "bench", "worstcase"],
)
def test_unopenable_out_fails_before_any_input_is_generated(argv, tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return generate(*args)

    monkeypatch.setattr(cli, "generate", counted)
    monkeypatch.setattr(bench, "generate", counted)
    out = tmp_path / "missing" / "x.out"
    code, stdout, stderr = _in_process(*argv, "--out", str(out))
    assert (code, stdout, calls) == (1, "", [])
    assert stderr == f"dualheap: error: [Errno 2] No such file or directory: '{out}'\n"


def test_a_run_that_fails_after_opening_out_leaves_it_empty(tmp_path, monkeypatch):
    def mismatch(*args):
        raise OracleMismatchError("oracle mismatch")

    monkeypatch.setattr(cli, "run_benchmark", mismatch)
    out = tmp_path / "series.csv"
    out.write_text("old\n")
    assert _in_process("bench", "--sizes", "100", "--out", str(out))[0] == 2
    assert out.read_text() == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("bench", "--sizes", "100", "--k", "101"),
        ("worstcase", "--max-n", "12"),
        # k fits the first size and not the second
        ("bench", "--sizes", "31,15", "--k", "20"),
    ],
    ids=["bench", "worstcase", "bench-later-size"],
)
def test_a_usage_error_leaves_out_as_it_was(argv, tmp_path):
    out = tmp_path / "series.csv"
    out.write_text("old\n")
    assert _in_process(*argv, "--out", str(out))[0] == 1
    assert out.read_text() == "old\n"


@pytest.mark.parametrize(
    "argv, error",
    [
        (("--algo", "quickselect", "--swap", "root"), "--swap does not apply to --algo quickselect"),
        (("--k", "51"), "selection index k=51 out of range 1..50"),
    ],
    ids=["flag", "k"],
)
def test_select_usage_error_exits_before_any_input_is_generated(argv, error, monkeypatch):
    def no_input_expected(*args):
        raise AssertionError(f"an input was generated for {args}")

    monkeypatch.setattr(cli, "generate", no_input_expected)
    assert _in_process("select", "--n", "50", *argv) == (1, "", f"dualheap: error: {error}\n")


def _in_process(*argv):
    """(exit code, stdout, stderr) of one in-process main call; argparse's
    own exits (--help, usage errors) count as returning their code."""
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


ONE_PROCESS = (
    ("select", "--n", "101", "--seed", "7", "--swap", "root", "--presplit", "2"),
    ("bench", "--sizes", "31,63", "--trials", "2", "--seed", "3", "--algo", "quickselect", "--pivot", "random"),
    ("worstcase", "--mode", "random", "--n", "31", "--samples", "5", "--seed", "2", "--swap", "branch"),
    ("select", "--n", "101", "--seed", "7"),
    ("select", "--help"),
    ("bench", "--trials", "0"),
)


def test_one_parser_serves_every_command_in_either_order(monkeypatch):
    # main reuses one parser; what it prints, usage errors and --help
    # included, must not depend on the commands parsed before.
    fresh = {}
    for argv in ONE_PROCESS:
        cli._shared_parser.cache_clear()
        fresh[argv] = _in_process(*argv)
    build = cli.build_parser
    builds = []

    def counted_build():
        builds.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    try:
        for order in (ONE_PROCESS, ONE_PROCESS[::-1]):
            cli._shared_parser.cache_clear()
            for argv in order:
                assert _in_process(*argv) == fresh[argv], argv
    finally:
        cli._shared_parser.cache_clear()
    assert len(builds) == 2  # once per order


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("select", "--algo", "quickselect", "--swap", "root"), "--swap"),
        (("select", "--algo", "quickselect-mom", "--presplit", "0"), "--presplit"),
        (("select", "--pivot", "random"), "--pivot"),
        (("select", "--algo", "dhselect", "--swap", "tree", "--pivot", "first"), "--pivot"),
        (("select", "--algo", "quickselect-mom", "--pivot", "random"), "--pivot"),
        (("bench", "--sizes", "9", "--trials", "1", "--algo", "quickselect", "--presplit", "1"), "--presplit"),
        (("bench", "--sizes", "9", "--trials", "1", "--pivot", "random"), "--pivot"),
    ],
)
def test_flag_that_does_not_apply_to_the_algo_exits_one(argv, flag):
    code, out, err = _in_process(*argv)
    assert code == 1
    assert out == ""
    assert f"{flag} does not apply to --algo" in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--mode", "exhaustive", "--max-n", "3", "--samples", "5", "--n", "9", "--seed", "4", "--k", "2"), "--n"),
        (("--mode", "exhaustive", "--max-n", "3", "--samples", "5"), "--samples"),
        (("--max-n", "3", "--seed", "0"), "--seed"),
        (("--mode", "exhaustive", "--k", "2"), "--k"),
        (("--mode", "random", "--n", "15", "--samples", "3", "--max-n", "4"), "--max-n"),
    ],
)
def test_flag_that_does_not_apply_to_the_worstcase_mode_exits_one(argv, flag):
    code, out, err = _in_process("worstcase", *argv)
    assert code == 1
    assert out == ""
    assert f"{flag} does not apply to --mode" in err


def test_reproduce_figures_series_specs_construct():
    spec = importlib.util.spec_from_file_location("reproduce_figures", REPRODUCE_FIGURES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # run_benchmark checks each algo of its series; one trial is one row per algo
    records = {name: bench.run_benchmark(sizes=(15,), algos=algos, trials=1) for name, algos in module.SERIES.items()}
    labels = {name: [record.algo for record in series] for name, series in records.items()}
    assert labels == {
        "swap_strategies": ["dhselect"] * 3,
        "presplit": ["dhselect"] * 3,
        "selection_algorithms": ["dhselect", "quickselect-first", "quickselect-random", "quickselect-mom"],
    }


def test_reproduce_figures_writes_the_sorter_series(tmp_path):
    result = subprocess.run(
        [sys.executable, str(REPRODUCE_FIGURES), "--sizes", "3,7", "--trials", "2", "--seed", "5"]
        + ["--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    with open(tmp_path / "sorter.csv", newline="") as handle:
        rows = {(int(row["n"]), row["series"]): row for row in csv.DictReader(handle)}
    series = ["dh_sort[presplit=0]", "dh_sort[presplit=1]", "dh_sort[presplit=2]", "sorted()", "log2(n!)"]
    assert list(rows) == [(n, name) for n in (3, 7) for name in series]
    for n in (3, 7):
        assert rows[n, "log2(n!)"]["compares_per_elem"] == f"{math.log2(math.factorial(n)) / n:.4f}"
        assert rows[n, "sorted()"]["moves_per_elem"] == rows[n, "log2(n!)"]["moves_per_elem"] == ""
    # the 7-element inputs are the master stream's third and fourth draws
    inputs = [generate(7, "random", seed) for seed in SplitMix64(5).take(4)[2:]]
    for presplit in (0, 1, 2):
        ctxs = [Metrics() for _ in inputs]
        for values, ctx in zip(inputs, ctxs):
            dh_sort(values, SelectOptions("tree", presplit), ctx)
        row = rows[7, f"dh_sort[presplit={presplit}]"]
        assert row["compares_per_elem"] == f"{sum(ctx.compares_total for ctx in ctxs) / 14:.4f}"
        assert row["moves_per_elem"] == f"{sum(ctx.moves_total for ctx in ctxs) / 14:.4f}"
    assert "sorter (mean per element over trials)" in result.stdout
    # every CSV has LF line endings; this one was the only one with CRLF
    assert b"\r" not in (tmp_path / "sorter.csv").read_bytes()


def test_reproduce_figures_summaries_list_sizes_ascending(tmp_path):
    # unsorted or repeated sizes once put the sorter's cells in the order
    # given, one per size given, under a header of the distinct sizes
    result = subprocess.run(
        [sys.executable, str(REPRODUCE_FIGURES), "--sizes", "15,7,15", "--trials", "1", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    headers = [i for i, line in enumerate(lines) if line.startswith("  series ")]
    assert len(headers) == 8  # two metrics in each of four series
    for i in headers:
        assert lines[i].split() == ["series", "n=7", "n=15"]
        rows = list(itertools.takewhile(lambda line: line.startswith("  ") and not line.endswith(":"), lines[i + 1 :]))
        assert rows
        assert all(len(row.split()) == 3 for row in rows)


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--seed", "-1"), "expected a seed in 0.."),
        (("--trials", "0"), "expected a positive integer"),
        (("--sizes", "63,0"), "expected a positive integer"),
    ],
)
def test_reproduce_figures_rejects_bad_arguments(flags, message, tmp_path):
    result = subprocess.run(
        [sys.executable, str(REPRODUCE_FIGURES), *flags, "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 1
    assert message in result.stderr
    assert not any(tmp_path.iterdir())


def test_import_does_not_load_statistics():
    # each takes milliseconds to import; only `fit` needs statistics
    code = (
        "import sys; bare = set(sys.modules); import dualheap, dualheap.cli; "
        "print(sorted({'statistics', 'dataclasses', 'inspect'} & (set(sys.modules) - bare)))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_import_loads_only_the_selection_algorithm():
    # the harness modules take about half of a fresh import to compile; the
    # selection algorithm uses none of them, and no module outside the
    # package either (not even __future__, whose import is not free)
    code = "import sys; bare = set(sys.modules); import dualheap; print(sorted(set(sys.modules) - bare))"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = ["dualheap", "dualheap.core", "dualheap.errors", "dualheap.metrics", "dualheap.select", "dualheap.swaps"]
    assert result.stdout == f"{loaded}\n"
    assert "__future__" not in result.stdout


def test_unknown_package_name_raises():
    import dualheap

    with pytest.raises(AttributeError, match="module 'dualheap' has no attribute 'no_such_name'"):
        dualheap.no_such_name
    with pytest.raises(ImportError, match="cannot import name 'no_such_name'"):
        from dualheap import no_such_name  # noqa: F401


# Every public name of the package root: an addition or a removal shows here
# as a one-line diff. The harness names live only in their own modules.
PUBLIC_NAMES = """
    InternalInvariantError Metrics PRESPLITS PhaseTally STRATEGIES
    SelectOptions SelectOutcome SentinelArray build_max_heap build_min_heap construct_dualheap
    dh_select dh_sort prepare_buffer run_swapping_phase split_indices swap_step_budget
    verify_partition
""".split()


def test_public_names_are_pinned():
    import dualheap

    names = {name for name, value in vars(dualheap).items() if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(names) == PUBLIC_NAMES
    # no module __getattr__: a name the root does not define is not found through it
    assert "__getattr__" not in vars(dualheap)
