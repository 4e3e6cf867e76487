"""Self-tests of the benchmark: python3 -m pytest -q perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import dualheap  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_small_smoke_run_is_correct_and_emits_every_end_to_end_metric(name, tmp_path):
    out = run.run_workload(name, 3, 0.05, False, tmp_path, small=True)
    assert out.failed == 0
    assert out.attempted >= run.TAIL_OPS_BEYOND + 1
    assert {key: unit for key, (_, unit) in out.metrics.items()} == _names("end_to_end")
    assert all(value > 0 for value, _ in out.metrics.values())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_run_emits_every_per_layer_metric(name, tmp_path):
    out = run.run_workload(name, 3, 0.05, True, tmp_path, small=True)
    assert out.failed == 0
    assert out.report["absent"] == []
    assert {key: unit for key, (_, unit) in out.metrics.items()} == _names("per_layer")


def test_workload_names_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)


def _wrong_select(arr, k, opts=None, ctx=None, workers=1):
    return dualheap.SelectOutcome(value=arr.buf[k] + 1, split=0, metrics=ctx)


def _wrong_sort(values, opts=None, ctx=None):
    return sorted(values, reverse=True)


def _wrong_oracle(values, k):
    return -1


@pytest.mark.parametrize(
    "name, module, attr, wrong",
    [
        ("select-large", dualheap.select, "dh_select", _wrong_select),
        ("sort-mid", dualheap.select, "dh_sort", _wrong_sort),
        ("figures", dualheap.bench, "oracle_select", _wrong_oracle),
    ],
)
def test_injected_wrong_answer_raises_error_rate(name, module, attr, wrong, tmp_path, monkeypatch):
    monkeypatch.setattr(module, attr, wrong)
    out = run.run_workload(name, 3, 0.05, False, tmp_path, small=True)
    assert out.failed == out.attempted
    assert out.report["error_rate"] == 1.0


def test_figures_fails_an_op_whose_csv_changes(tmp_path, monkeypatch):
    workload = workloads.make("figures", 3, tmp_path, small=True)
    loop = run.Loop(workload, workloads.ZERO)
    loop.run(0, 1)
    real_main = dualheap.cli.main
    monkeypatch.setattr(dualheap.cli, "main", lambda argv: real_main([*argv, "--seed", "4"]))
    loop.run(0, 1)
    assert (loop.attempted, loop.failed) == (2, 1)


def test_traced_run_survives_a_missing_layer_function(tmp_path, monkeypatch):
    monkeypatch.delattr(dualheap.swaps, "run_swapping_phase")
    out = run.run_workload("select-large", 3, 0.05, True, tmp_path, small=True)
    assert out.failed == 0
    assert out.report["absent"] == ["swaps.run_swapping_phase"]
    assert set(out.metrics) == set(_names("per_layer"))
    assert out.metrics["swaps.run_swapping_phase.calls"][0] == 0


def test_tracer_puts_every_original_back():
    originals = {attr: getattr(dualheap.select, attr) for attr in ("build_min_heap", "dh_select", "prepare_buffer")}
    tracer = tracing.Tracer()
    tracer.install()
    assert dualheap.select.build_min_heap is not originals["build_min_heap"]
    tracer.uninstall()
    assert {attr: getattr(dualheap.select, attr) for attr in originals} == originals


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_counts_match_the_pins(name, tmp_path):
    workload = workloads.make(name, 1, tmp_path)
    loop = run.Loop(workload, workloads.ZERO)
    loop.run(0, workload.pool)
    assert loop.failed == 0
    assert run.check_pins(name, 1, loop.total())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [*SPEC["command"], "--workload", "figures", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
