"""Self-test of the end-to-end benchmark harness (about a minute).

    PYTHONPATH=src python -m pytest benchmarks/e2e

Runs every workload untraced and traced with a one-second measured
phase and checks the result line against BENCHMARK.json, the traced
span coverage, and that no daemon outlives its run.  Not part of the
repository's tier-1 suite.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import compare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


def _daemons_of(pid: int):
    """Live processes whose command line names the run's work dir."""
    marker = f".bench_e2e/{{}}-{pid}"
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            cmdline = (entry / "cmdline").read_bytes().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if "repro serve" in cmdline and any(
            marker.format(w) in cmdline for w in WORKLOADS
        ):
            found.append(int(entry.name))
    return found


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_declared_metrics(workload, trace):
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
    )
    out, _ = proc.communicate(timeout=180)
    assert proc.returncode == 0, out
    assert _daemons_of(proc.pid) == []
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for spec in declared:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, spec["name"]
    if trace:
        assert result["metrics"]["span_coverage"]["value"] >= 0.9


def test_missing_source_exits_nonzero(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (copy / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, str(copy / "run.py"), "--workload", "ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, cwd=str(tmp_path), env=env, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


@pytest.mark.parametrize(
    "parent, change, expected",
    [
        ([100.0 + i % 3 for i in range(10)], [120.0 + i % 3 for i in range(10)], "improved"),
        ([100.0 + i % 3 for i in range(10)], [80.0 + i % 3 for i in range(10)], "worse"),
        ([100.0 + i % 3 for i in range(10)], [99.0 + i % 3 for i in range(10)], "within bound"),
        ([60.0, 140.0] * 5, [95.0, 105.0] * 5, "unresolved"),
    ],
)
def test_compare_verdicts(parent, change, expected):
    pairs = list(zip(parent, change))
    assert compare.verdict(parent, change, pairs, 0.1, higher_is_better=True) == expected
