import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RECORD_BENCH = Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"

# Stands in for perfbench/run.py: prints a report line and a result line
# whose latency is the checkout's own, and logs the call order. A checkout
# holding a FAIL file reports its odd seeds as incorrect, with 2 failed ops.
FAKE_RUN = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
with open(here.parent / "calls.log", "a") as log:
    log.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
env = {"git_commit": here.name, "python": "3.x", "implementation": "CPython", "cpu_count": 2}
print(json.dumps({"report": {"environment": env}}))
value = {"parent": 0.2, "change": 0.1}[here.name] + int(sys.argv[4]) / 1000
failed = 2 * (int(sys.argv[4]) % 2) if (here / "FAIL").exists() else 0
metrics = {"latency_tail_s": {"value": value, "unit": "s"}}
print(json.dumps({"correct": not failed, "attempted": 5, "failed": failed, "metrics": metrics}))
"""


def _fake_checkouts(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)


def _record(tmp_path, seeds, workloads="sort-mid", out_dir=None):
    return subprocess.run(
        [sys.executable, str(RECORD_BENCH), "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
         "--workloads", workloads, "--seeds", seeds, "--tag", "t", "--out-dir", str(out_dir or tmp_path)],
        capture_output=True,
        text=True,
    )


def test_record_bench_alternates_sides_and_keeps_every_result(tmp_path):
    _fake_checkouts(tmp_path)
    result = _record(tmp_path, "7-9")
    assert result.returncode == 0, result.stderr
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert [call.split()[0] for call in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    # every run gets BENCHMARK.json's run_seconds, which the record reports
    assert calls[0].split()[1:] == ["--workload", "sort-mid", "--seed", "7", "--seconds", "30", "--trace", "0"]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["seconds"] == 30
    entries = record["entries"]
    assert [(e["seed"], e["side"], e["order"]) for e in entries] == [
        (7, "parent", 0), (7, "change", 1), (8, "change", 0), (8, "parent", 1), (9, "parent", 0), (9, "change", 1),
    ]
    # the fake checkouts are not repositories, and the commit run.py reports is not read
    assert all(e["interpreter"] == "CPython 3.x" and e["cpu_count"] == 2 and e["commit"] == "unknown" for e in entries)
    summary = record["summary"]["sort-mid"]["latency_tail_s"]
    assert summary["parent_median"] == pytest.approx(0.208)
    assert summary["change_median"] == pytest.approx(0.108)
    assert summary["change_lower_pairs"] == summary["pairs"] == 3
    assert record["summary"]["sort-mid"]["failures"] == {
        side: {"incorrect_runs": 0, "failed_ops": 0} for side in ("parent", "change")
    }


def test_record_bench_summary_shows_a_failing_side(tmp_path):
    _fake_checkouts(tmp_path)
    (tmp_path / "change" / "FAIL").touch()
    result = _record(tmp_path, "7-9")
    assert result.returncode == 0, result.stderr
    failures = json.loads((tmp_path / "BENCH_t.json").read_text())["summary"]["sort-mid"]["failures"]
    assert failures == {
        "parent": {"incorrect_runs": 0, "failed_ops": 0},
        "change": {"incorrect_runs": 2, "failed_ops": 4},
    }


@pytest.mark.parametrize("flag, off", [("1", True), (None, False)])
def test_record_bench_records_whether_bytecode_writing_was_off(tmp_path, monkeypatch, flag, off):
    # with PYTHONDONTWRITEBYTECODE every import of a run compiles from source
    _fake_checkouts(tmp_path)
    if flag is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", flag)
    result = _record(tmp_path, "7")
    assert result.returncode == 0, result.stderr
    platform = json.loads((tmp_path / "BENCH_t.json").read_text())["platform"]
    assert platform["dont_write_bytecode"] is off
    assert platform["system"]


@pytest.mark.parametrize(
    "seeds, message",
    [
        ("5-3", "empty seed range '5-3'"),
        ("1,1", "seeds given more than once: [1]"),
        ("1-3,2", "[2]"),
        ("a", "argument --seeds: expected a seed or a range a-b, got 'a'"),
        ("-1", "argument --seeds: expected a seed or a range a-b, got '-1'"),
        ("3-a", "argument --seeds: expected a seed or a range a-b, got '3-a'"),
        ("1,,2", "argument --seeds: expected a seed or a range a-b, got ''"),
    ],
)
def test_record_bench_rejects_seeds_before_any_run(tmp_path, seeds, message):
    _fake_checkouts(tmp_path)
    result = _record(tmp_path, seeds)
    assert result.returncode == 1
    assert message in result.stderr
    assert not (tmp_path / "calls.log").exists()
    assert not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize(
    "workloads, message",
    [
        ("sort-mid,typo", "unknown workloads ['typo']"),
        ("sort-mid,figures,sort-mid", "workloads given more than once: ['sort-mid']"),
    ],
)
def test_record_bench_rejects_workloads_before_any_run(tmp_path, workloads, message):
    _fake_checkouts(tmp_path)
    result = _record(tmp_path, "7-9", workloads)
    assert result.returncode == 1
    assert message in result.stderr
    assert not (tmp_path / "calls.log").exists()
    assert not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize("side, remove", [("parent", "."), ("change", "perfbench/run.py")], ids=["no-dir", "no-run-py"])
def test_record_bench_rejects_a_checkout_before_any_run(tmp_path, side, remove):
    # a missing parent ended in a traceback; a missing change only after the
    # parent's first run
    _fake_checkouts(tmp_path)
    target = tmp_path / side / remove
    shutil.rmtree(target) if target.is_dir() else target.unlink()
    result = _record(tmp_path, "7-9")
    assert result.returncode == 1
    assert f"argument --{side}: {tmp_path / side} has no perfbench/run.py" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "calls.log").exists()
    assert not (tmp_path / "BENCH_t.json").exists()


@pytest.mark.parametrize("name, make", [("missing", None), ("a-file", Path.touch)], ids=["missing", "file"])
def test_record_bench_rejects_an_out_dir_before_any_run(tmp_path, name, make):
    # a missing directory would otherwise fail only when the record is
    # written, after every run
    _fake_checkouts(tmp_path)
    out_dir = tmp_path / name
    if make:
        make(out_dir)
    result = _record(tmp_path, "1-2", out_dir=out_dir)
    assert result.returncode == 1
    assert f"argument --out-dir: {out_dir} is not a directory" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "calls.log").exists()


def _load():
    spec = importlib.util.spec_from_file_location("record_bench", RECORD_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summarize(parent, change):
    module = _load()
    entries = [
        {"workload": "select-large", "pair": pair, "side": side,
         "result": {"correct": True, "failed": 0, "metrics": {"setup_s": {"value": value}}}}
        for pair, values in enumerate(zip(parent, change))
        for side, value in zip(("parent", "change"), values)
    ]
    return module.summarize(entries)["select-large"]["setup_s"]


PARENT = [0.020, 0.021, 0.022, 0.023, 0.024, 0.025, 0.026, 0.027, 0.028, 0.029]  # quartiles 0.02175, 0.02725


@pytest.mark.parametrize(
    "change, lower, shown",
    [
        # 9 lower and a tie, and the median falls by 0.008 against a quartile distance of 0.0055
        ([0.012, 0.013, 0.014, 0.015, 0.016, 0.017, 0.018, 0.019, 0.020, 0.029], 9, True),
        # the same medians, but 8 lower, a tie and one higher: too few pairs
        ([0.012, 0.013, 0.014, 0.015, 0.016, 0.017, 0.018, 0.019, 0.030, 0.029], 8, False),
        # lower in every pair, by less than the parent's quartile distance
        ([value - 0.005 for value in PARENT], 10, False),
    ],
)
def test_gain_shown_follows_the_claim_rule(change, lower, shown):
    # the rule that refused a sort-mid latency_tail_s claim at 0.1866 -> 0.1523 s
    summary = _summarize(PARENT, change)
    assert summary["change_lower_pairs"] == lower
    assert summary["gain_shown"] is shown


def _git(*args):
    return subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        capture_output=True, text=True, check=True,
    ).stdout.strip()


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_record_bench_asks_git_for_a_commit_run_py_reports_as_unknown(tmp_path, monkeypatch):
    # run.py reads .git itself and reports "unknown" for a worktree, whose
    # .git is a file; the record asks git for each checkout's commit instead
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").touch()
    (repo / ".gitignore").write_text("__pycache__/\n")
    _git("-C", str(repo), "init", "-q")
    _git("-C", str(repo), "add", ".")
    _git("-C", str(repo), "commit", "-q", "-m", "first")
    _git("-C", str(repo), "worktree", "add", "-q", "--detach", str(tmp_path / "parent"))
    # an ignored file leaves a checkout clean
    (tmp_path / "parent" / "perfbench" / "__pycache__").mkdir()
    (tmp_path / "parent" / "perfbench" / "__pycache__" / "run.pyc").touch()
    (tmp_path / "change" / "perfbench").mkdir(parents=True)
    (tmp_path / "change" / "perfbench" / "run.py").touch()
    (repo / "copy").mkdir()
    head = _git("-C", str(repo), "rev-parse", "HEAD")

    module = _load()
    env = {"git_commit": "unknown", "python": "3.x", "implementation": "CPython", "cpu_count": 2}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": {"latency_tail_s": {"value": 0.1}}}
    monkeypatch.setattr(module, "run_once", lambda checkout, workload, seed, seconds: (env, result))
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"), "--workloads", "sort-mid",
            "--seeds", "7-8", "--tag", "t", "--out-dir", str(tmp_path)]
    assert module.main(args) == 0
    entries = json.loads((tmp_path / "BENCH_t.json").read_text())["entries"]
    assert [(e["side"], e["commit"]) for e in entries] == [
        ("parent", head), ("change", "unknown"), ("change", "unknown"), ("parent", head),
    ]
    # a copy inside another repository is not that repository's HEAD
    assert module.checkout_commit(repo / "copy") == "unknown"


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
@pytest.mark.parametrize(
    "change, line", [("modified", " M perfbench/run.py"), ("untracked", "?? notes.txt")], ids=["modified", "untracked"]
)
def test_record_bench_rejects_a_checkout_that_differs_from_its_head_before_any_run(tmp_path, change, line):
    # its HEAD would name a commit the runs did not measure
    _fake_checkouts(tmp_path)
    parent = tmp_path / "parent"
    _git("-C", str(parent), "init", "-q")
    _git("-C", str(parent), "add", ".")
    _git("-C", str(parent), "commit", "-q", "-m", "first")
    head = _git("-C", str(parent), "rev-parse", "HEAD")
    if change == "modified":
        with open(parent / "perfbench" / "run.py", "a") as run_py:
            run_py.write("# edited\n")
    else:
        (parent / "notes.txt").touch()
    result = _record(tmp_path, "7-9")
    assert result.returncode == 1
    assert f"record_bench: {parent} differs from its HEAD {head}:\n{line}\n" in result.stderr
    assert "Traceback" not in result.stderr
    assert not (tmp_path / "calls.log").exists()
    assert not (tmp_path / "BENCH_t.json").exists()
