import json
import subprocess
import sys
from pathlib import Path

import pytest

RECORD_BENCH = Path(__file__).resolve().parent.parent / "scripts" / "record_bench.py"

# Stands in for perfbench/run.py: prints a report line and a result line
# whose latency is the checkout's own, and logs the call order.
FAKE_RUN = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parent.parent
with open(here.parent / "calls.log", "a") as log:
    log.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
env = {"git_commit": here.name, "python": "3.x", "implementation": "CPython", "cpu_count": 2}
print(json.dumps({"report": {"environment": env}}))
value = {"parent": 0.2, "change": 0.1}[here.name] + int(sys.argv[4]) / 1000
print(json.dumps({"correct": True, "metrics": {"latency_tail_s": {"value": value, "unit": "s"}}}))
"""


def test_record_bench_alternates_sides_and_keeps_every_result(tmp_path):
    for side in ("parent", "change"):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(FAKE_RUN)
    result = subprocess.run(
        [sys.executable, str(RECORD_BENCH), "--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
         "--workloads", "sort-mid", "--seeds", "7-9", "--seconds", "0.5", "--tag", "t", "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert [call.split()[0] for call in calls] == ["parent", "change", "change", "parent", "parent", "change"]
    assert calls[0].split()[1:] == ["--workload", "sort-mid", "--seed", "7", "--seconds", "0.5", "--trace", "0"]
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    entries = record["entries"]
    assert [(e["seed"], e["side"], e["order"]) for e in entries] == [
        (7, "parent", 0), (7, "change", 1), (8, "change", 0), (8, "parent", 1), (9, "parent", 0), (9, "change", 1),
    ]
    assert all(e["interpreter"] == "CPython 3.x" and e["cpu_count"] == 2 and e["commit"] == e["side"] for e in entries)
    summary = record["summary"]["sort-mid"]["latency_tail_s"]
    assert summary["parent_median"] == pytest.approx(0.208)
    assert summary["change_median"] == pytest.approx(0.108)
    assert summary["change_lower_pairs"] == summary["pairs"] == 3
