#!/usr/bin/env python3
"""Regenerate pinned_counts.json, the exact compare/move counts of every
workload for seeds 0..31 at full size.

    python3 perfbench/pin_counts.py

run.py fails a run whose counts differ from the pin for its seed. Speed work
must leave the counts unchanged; regenerate the pins only for a change that
is meant to alter them, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import run

SEEDS = range(32)


def main() -> int:
    if not run.load_program():
        return 2
    import workloads

    pins = {"fields": list(workloads.Counts._fields)}
    run.SCRATCH.mkdir(exist_ok=True)
    try:
        for name in run.WORKLOAD_NAMES:
            pins[name] = {}
            for seed in SEEDS:
                workload = workloads.make(name, seed, run.SCRATCH)
                loop = run.Loop(workload, workloads.ZERO)
                loop.run(0, workload.pool)
                if loop.failed:
                    print(f"pin_counts: {name} seed {seed} failed its checks", file=sys.stderr)
                    return 1
                pins[name][str(seed)] = list(loop.total())
    finally:
        shutil.rmtree(run.SCRATCH, ignore_errors=True)
    run.PINS.write_text(_format(pins))
    return 0


def _format(pins: dict) -> str:
    """JSON with one line per seed, so a diff shows which seeds moved."""
    blocks = []
    for key, value in pins.items():
        if key == "fields":
            blocks.append(f' "fields": {json.dumps(value)}')
        else:
            rows = ",\n".join(f"  {json.dumps(seed)}: {json.dumps(counts)}" for seed, counts in value.items())
            blocks.append(f" {json.dumps(key)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(blocks) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
