#!/usr/bin/env python3
"""Record alternating parent/change benchmark runs as ``BENCH_<tag>.json``.

    python3 scripts/record_bench.py --parent ../parent --workloads sort-mid \\
        --seeds 961-967 --tag mychange

For each workload and seed, ``perfbench/run.py`` runs once in the parent
checkout and once in the change checkout (this one by default), each run
for BENCHMARK.json's ``run_seconds``; the side that runs first alternates
from pair to pair, so a slow spell of the host does not land on one side
only. The result line of every run (the last line run.py prints) is kept as
it is, with the interpreter and core count that run.py reports and the
commit git gives for the checkout before the first run: "unknown" for a
checkout git does not know (a ``git archive`` copy), and none at all for
one that differs from its HEAD, which is refused. The record's platform
block says whether bytecode writing was off. A summary gives, per metric,
the median of each side, the parent's quartiles, the number of pairs in
which the change read lower and whether the pairs show a gain by the claim
rule (``gain_shown``); and per side, the number of runs that were not
``correct`` and the total of failed operations. Nothing here changes what
run.py measures or how its metrics are gated.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on a usage error; like the dualheap CLI, this script
    # exits 1 on one. It runs other checkouts, so it does not import the
    # package for the CLI's parser.
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _once_each(items: list, what: str) -> list:
    repeated = sorted({item for item in items if items.count(item) > 1})
    if repeated:
        raise argparse.ArgumentTypeError(f"{what} given more than once: {repeated}")
    return items


def _seeds(text: str) -> list[int]:
    """Comma-separated seeds, each a number or an inclusive range a-b. An
    empty range or a seed given twice is an error, not a shorter record."""
    seeds = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        try:
            span = range(int(first), int(last or first) + 1)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a seed or a range a-b, got {part!r}") from None
        if not span:
            raise argparse.ArgumentTypeError(f"empty seed range {part!r}")
        seeds += span
    return _once_each(seeds, "seeds")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _workloads(text: str) -> list[str]:
    """Comma-separated workload names, each declared once in BENCHMARK.json,
    so a typo fails before any run, not after the pairs before it."""
    known = [workload["name"] for workload in _benchmark()["workloads"]]
    names = text.split(",")
    unknown = [name for name in names if name not in known]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown workloads {unknown}, expected some of {known}")
    return _once_each(names, "workloads")


def _checkout(text: str) -> Path:
    """A checkout to run: a directory that holds perfbench/run.py."""
    path = Path(text).resolve()
    if not (path / "perfbench" / "run.py").is_file():
        raise argparse.ArgumentTypeError(f"{text} has no perfbench/run.py")
    return path


def _out_dir(text: str) -> Path:
    """Where the record goes: an existing directory, checked before the
    first run rather than when the record is written after the last."""
    path = Path(text)
    if not path.is_dir():
        raise argparse.ArgumentTypeError(f"{text} is not a directory")
    return path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced run.py run: (the environment it reports, its result
    line)."""
    out = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=checkout,
    )
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"record_bench: {checkout} {workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(lines[-2])["report"]["environment"], json.loads(lines[-1])


def checkout_commit(checkout: Path) -> str:
    """git's HEAD commit for a checkout, or "unknown" if git fails or finds
    a repository whose top is not the checkout (a copy unpacked inside
    another repository). A checkout whose files differ from its HEAD,
    untracked ones included, exits 1: no commit names what it would run."""
    git = ["git", "-C", str(checkout)]
    try:
        out = subprocess.run([*git, "rev-parse", "--show-toplevel", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    lines = out.stdout.splitlines()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != checkout.resolve():
        return "unknown"
    status = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True, check=True).stdout
    if status:
        raise SystemExit(f"record_bench: {checkout} differs from its HEAD {lines[1]}:\n{status}")
    return lines[1]


def gain_shown(parent: list[float], change: list[float], better: str) -> bool:
    """Whether the pairs carry a claimed gain: the change reads better
    (``better`` is "lower" or "higher") in at least nine tenths of the pairs,
    ties counting for neither, and its median is better than the parent's by
    more than the distance between the parent's quartiles."""
    if len(parent) < 2:
        return False
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, _, q3 = statistics.quantiles(parent, n=4)
    gain = sign * (statistics.median(parent) - statistics.median(change))
    return 10 * wins >= 9 * len(parent) and gain > q3 - q1


def summarize(entries: list[dict]) -> dict:
    """Per workload and metric: each side's median, the parent's quartiles,
    in how many pairs the change read lower than the parent, and
    ``gain_shown`` by the metric's ``better`` in BENCHMARK.json (None for a
    metric it does not declare). Under ``failures``, per side: the runs
    whose result is not ``correct`` and the failed operations summed over
    all runs."""
    spec = _benchmark()
    better = {metric["name"]: metric["better"] for metric in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for workload in dict.fromkeys(entry["workload"] for entry in entries):
        results = {(e["pair"], e["side"]): e["result"] for e in entries if e["workload"] == workload}
        runs = {key: result["metrics"] for key, result in results.items()}
        pairs = sorted({pair for pair, _ in runs})
        failures = {
            side: {
                "incorrect_runs": sum(not results[pair, side]["correct"] for pair in pairs),
                "failed_ops": sum(results[pair, side]["failed"] for pair in pairs),
            }
            for side in SIDES
        }
        metrics = {}
        for name in runs[pairs[0], "parent"]:
            values = {side: [runs[pair, side][name]["value"] for pair in pairs] for side in SIDES}
            metrics[name] = {
                "parent_median": statistics.median(values["parent"]),
                "change_median": statistics.median(values["change"]),
                "parent_quartiles": statistics.quantiles(values["parent"], n=4) if len(pairs) > 1 else None,
                "change_lower_pairs": sum(c < p for p, c in zip(values["parent"], values["change"])),
                "pairs": len(pairs),
                "gain_shown": gain_shown(values["parent"], values["change"], better[name]) if name in better else None,
            }
        summary[workload] = {"failures": failures, **metrics}
    return summary


def main(argv=None) -> int:
    parser = _Parser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=_checkout, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=_checkout, default=str(ROOT), help="checkout of the change (default: this one)")
    parser.add_argument("--workloads", type=_workloads, required=True, help="comma-separated workload names")
    parser.add_argument("--seeds", type=_seeds, required=True, help="seeds, e.g. 961-965 or 1,4,9")
    parser.add_argument("--tag", required=True, help="names the output, BENCH_<tag>.json")
    parser.add_argument("--out-dir", type=_out_dir, default=str(ROOT), help="where BENCH_<tag>.json goes")
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent, "change": args.change}
    commits = {side: checkout_commit(checkout) for side, checkout in checkouts.items()}
    seconds = _benchmark()["run_seconds"]
    entries = []
    for workload in args.workloads:
        for pair, seed in enumerate(args.seeds):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                env, result = run_once(checkouts[side], workload, seed, seconds)
                entries.append(
                    {
                        "workload": workload,
                        "pair": pair,
                        "seed": seed,
                        "side": side,
                        "order": position,
                        "commit": commits[side],
                        "interpreter": f"{env['implementation']} {env['python']}",
                        "cpu_count": env["cpu_count"],
                        "result": result,
                    }
                )
                print(f"{workload} seed {seed} {side}: {json.dumps(result['metrics'])}", file=sys.stderr)
    record = {
        "tag": args.tag,
        "platform": {
            "system": platform.platform(),
            # set by PYTHONDONTWRITEBYTECODE, which the runs inherit: each of
            # their imports then compiles from source, and setup_s about doubles
            "dont_write_bytecode": bool(sys.flags.dont_write_bytecode),
        },
        "seconds": seconds,
        "entries": entries,
        "summary": summarize(entries),
    }
    path = args.out_dir / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
