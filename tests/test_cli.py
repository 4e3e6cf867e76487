import subprocess
import sys

from dualheap import CSV_HEADER, InputSpec, generate, oracle_select


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "dualheap.cli", *args],
        capture_output=True,
        text=True,
    )


def test_select_prints_the_selected_value():
    result = run_cli("select", "--n", "101", "--dist", "random", "--seed", "7")
    assert result.returncode == 0
    values = generate(InputSpec(101, "random", 7))
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
    assert got == sorted(generate(InputSpec(12, "organpipe")))


def test_bench_csv_on_stdout():
    result = run_cli("bench", "--sizes", "63", "--trials", "2")
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == CSV_HEADER
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


def test_fit_usage_error_on_missing_column(tmp_path):
    path = tmp_path / "series.csv"
    run_cli("bench", "--sizes", "63,127,255", "--trials", "1", "--out", str(path))
    result = run_cli("fit", "--in", str(path), "--metric", "zaps")
    assert result.returncode == 1


def test_usage_errors_exit_one():
    assert run_cli("select", "--dist", "bogus").returncode == 1
    assert run_cli("select", "--n", "5", "--k", "9").returncode == 1
    assert run_cli("bench", "--sizes", "0").returncode == 1
    assert run_cli("worstcase", "--max-n", "12").returncode == 1
    assert run_cli().returncode == 1


def test_bench_rejects_non_positive_trials():
    for trials in ("0", "-2"):
        result = run_cli("bench", "--sizes", "63", "--trials", trials)
        assert result.returncode == 1
        assert result.stdout == ""


def test_unknown_workers_flag_exits_one():
    assert run_cli("select", "--n", "15", "--workers", "2").returncode == 1
