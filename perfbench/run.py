#!/usr/bin/env python3
"""Benchmark driver for dualheap.

    python3 perfbench/run.py --workload select-large --seed 1 --seconds 30 --trace 0

Runs one workload closed-loop (one caller, one thread) for the given number
of seconds, checks every operation's output, and prints two JSON lines: a
report with the environment and the details behind each metric, then, as
the last line, the result. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` measures the per-layer metrics, alternating untraced blocks
with blocks traced by spans around the library's public functions (see
tracing.py). NOTES.md defines every metric.

The library is imported from ``src/`` next to this directory; without it the
driver exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_scratch"
PINS = HERE / "pinned_counts.json"

WORKLOAD_NAMES = ("select-large", "sort-mid", "figures")

# Ops beyond the tail percentile; the tail is the slowest op with this many
# slower ones, so a run needs one more op than this.
TAIL_OPS_BEYOND = 10

# Fresh-interpreter imports per run, spread evenly over the measured time.
# setup_s is their upper quartile: the host alternates between a fast and a
# slow state for seconds to minutes, and a median flips between the two from
# run to run while the upper quartile stays on the slow level (NOTES.md).
SETUP_SAMPLES = 16

_IMPORT_TIMER = """\
import importlib, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
for name in sys.argv[2:]:
    importlib.import_module(name)
print(time.perf_counter() - start)
"""


def _call(body, *args):
    return body(*args)


class Loop:
    """Closed-loop runner over one workload. Every op is timed and checked;
    an op fails on an exception, a wrong output, or counts that differ from
    an earlier op on the same input. ``pool_counts`` holds the counts of the
    first correct op on each pooled input."""

    def __init__(self, workload, zero):
        self.workload = workload
        self.zero = zero
        self.pool_counts = [None] * workload.pool
        self.attempted = 0
        self.failed = 0

    def run(self, seconds: float, min_ops: int, run_op=_call) -> list[float]:
        """Run ops until ``seconds`` have passed and at least ``min_ops`` are
        done; return their latencies."""
        workload = self.workload
        latencies = []
        deadline = time.perf_counter() + seconds
        while len(latencies) < min_ops or time.perf_counter() < deadline:
            i = self.attempted
            self.attempted += 1
            start = time.perf_counter_ns()
            try:
                result = run_op(workload.op, i)
            except Exception:
                latencies.append((time.perf_counter_ns() - start) / 1e9)
                self._fail(f"op {i} raised")
                continue
            latencies.append((time.perf_counter_ns() - start) / 1e9)
            try:
                counts = workload.check(i, result)
            except Exception:
                self._fail(f"check of op {i} raised")
                continue
            slot = i % workload.pool
            if counts is None:
                self._fail(f"op {i} gave a wrong output")
            elif self.pool_counts[slot] is None:
                self.pool_counts[slot] = counts
            elif counts != self.pool_counts[slot]:
                self._fail(f"op {i} counts {counts} differ from {self.pool_counts[slot]} on the same input")
        return latencies

    def total(self):
        """Exact counts over one pass of the input pool."""
        return sum((c for c in self.pool_counts if c is not None), self.zero)

    def _fail(self, message: str) -> None:
        self.failed += 1
        print(f"perfbench: {self.workload.name}: {message}", file=sys.stderr)
        if sys.exc_info()[0] is not None:
            traceback.print_exc(file=sys.stderr)


@dataclass
class Outcome:
    """What one run measured: metrics map name to (value, unit), counts are
    the exact totals over one pass of the input pool, and report holds what
    the metrics rest on."""

    metrics: dict
    report: dict
    attempted: int
    failed: int
    counts: object


def tail(latencies: list[float]) -> tuple[float, float]:
    """The slowest op with TAIL_OPS_BEYOND slower ones, and its percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_OPS_BEYOND - 1], 100.0 * (n - TAIL_OPS_BEYOND) / n


def per_elem(numerator: int, elements: int) -> float:
    return numerator / elements if elements else 0.0


def import_seconds(imports: tuple[str, ...]) -> float:
    """Import time of the workload's modules in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC), *imports],
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(out.stdout)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "numpy_importable": importlib.util.find_spec("numpy") is not None,
    }


def git_commit() -> str:
    """The checked-out commit, read from .git without running git;
    "unknown" outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def count_metrics(counts) -> dict[str, float]:
    return {
        "compares_per_elem": per_elem(counts.compares, counts.elements),
        "moves_per_elem": per_elem(counts.moves, counts.elements),
        "core.compares_per_elem": per_elem(counts.core_compares, counts.elements),
        "core.moves_per_elem": per_elem(counts.core_moves, counts.elements),
        "swaps.compares_per_elem": per_elem(counts.swaps_compares, counts.elements),
        "swaps.moves_per_elem": per_elem(counts.swaps_moves, counts.elements),
        "baselines.compares_per_elem": per_elem(counts.baselines_compares, counts.elements),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, scratch: Path, small: bool = False) -> Outcome:
    """Set up and run one workload; ``small`` shrinks its inputs for the
    self-tests."""
    import tracing
    import workloads

    workload = workloads.make(name, seed, scratch, small)
    loop = Loop(workload, workloads.ZERO)
    report = {"workload": name, "seed": seed, "elements_per_op": workload.elements_per_op}
    metrics = {}
    if not trace:
        setup_samples, latencies = [], []
        start = time.perf_counter()
        for i in range(1, SETUP_SAMPLES + 1):
            setup_samples.append(import_seconds(workload.imports))
            latencies += loop.run(start + seconds * i / SETUP_SAMPLES - time.perf_counter(), 0)
        latencies += loop.run(0, max(TAIL_OPS_BEYOND + 1, workload.pool) - len(latencies))
        tail_s, tail_pct = tail(latencies)
        op_seconds = sum(latencies)
        counts = count_metrics(loop.total())
        metrics = {
            "latency_tail_s": (tail_s, "s"),
            "compares_per_elem": (counts["compares_per_elem"], "compares/elem"),
            "moves_per_elem": (counts["moves_per_elem"], "moves/elem"),
            "setup_s": (statistics.quantiles(setup_samples, n=4)[2], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        # Reported, not gated: on a shared 2-core host these swing by 10-40%
        # between runs (see NOTES.md).
        report.update(
            latency_p50_s=statistics.median(latencies),
            setup_p50_s=statistics.median(setup_samples),
            throughput_elems_per_s=workload.elements_per_op * len(latencies) / op_seconds,
            ops=len(latencies),
            tail_percentile=round(tail_pct, 2),
            tail_ops_beyond=TAIL_OPS_BEYOND,
        )
    else:
        # Untraced and traced blocks alternate, one pass over the input pool
        # each, so both see the same host conditions and their difference
        # is the tracing overhead.
        tracer = tracing.Tracer()
        untraced, traced = [], []
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            untraced += loop.run(0, workload.pool)
            tracer.install()
            try:
                traced += loop.run(0, workload.pool, tracer.run_op)
            finally:
                tracer.uninstall()
        summary = tracer.summary(len(traced))
        for span, (self_s, calls) in summary.items():
            metrics[f"{span}.self_s"] = (self_s, "s")
            if span != tracing.OP_SPAN:
                metrics[f"{span}.calls"] = (calls, "count")
        for key, value in count_metrics(loop.total()).items():
            if "." in key:
                metrics[key] = (value, "count/elem")
        overhead = statistics.median(traced) - statistics.median(untraced)
        metrics["trace.overhead_p50_s"] = (overhead, "s")
        traced_total = sum(self_s for self_s, _ in summary.values())
        report.update(
            untraced_ops=len(untraced),
            traced_ops=len(traced),
            absent=tracer.absent,
            self_share={span: round(self_s / traced_total, 4) for span, (self_s, _) in summary.items() if self_s > 0},
        )
    counts = loop.total()
    report.update(
        attempted=loop.attempted,
        failed=loop.failed,
        error_rate=loop.failed / loop.attempted,
        counts=counts._asdict(),
    )
    return Outcome(metrics, report, loop.attempted, loop.failed, counts)


def check_pins(name: str, seed: int, counts) -> bool:
    """Compare the run's exact counts with the ones pinned for this seed.
    Seeds without a pin pass."""
    pinned = json.loads(PINS.read_text()).get(name, {}).get(str(seed))
    if pinned is None:
        return True
    if list(counts) != pinned:
        print(f"perfbench: {name} seed {seed}: counts {list(counts)} differ from pinned {pinned}", file=sys.stderr)
        return False
    return True


def load_program() -> bool:
    """Put src/ first on the import path and import dualheap from there."""
    if not (SRC / "dualheap" / "__init__.py").is_file():
        print(f"perfbench: no dualheap package under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import dualheap

    if Path(dualheap.__file__).resolve().parent != SRC / "dualheap":
        print(f"perfbench: dualheap imported from {dualheap.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not load_program():
        return 2

    SCRATCH.mkdir(exist_ok=True)
    try:
        out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), SCRATCH)
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    pins_ok = check_pins(args.workload, args.seed, out.counts)
    out.report.update(pinned_counts_match=pins_ok, environment=environment())
    print(json.dumps({"report": out.report}))
    result = {
        "correct": out.failed == 0 and pins_ok,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in out.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
