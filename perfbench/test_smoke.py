"""Smoke test of the benchmark on its smallest case, C2 m=2 n=1.

Checks the output schema against BENCHMARK.json and that the work counters
repeat exactly, within a traced run (run.py reports "correct": false
otherwise) and across two traced runs.  There is no wall-clock gate.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300, cwd=cwd)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_schema(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in declared}
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_schema(workload):
    result = result_of(run(workload, 0))
    check_schema(result, SPEC["end_to_end"])
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_across_traced_runs(workload):
    first, second = (result_of(run(workload, 1)) for _ in range(2))
    check_schema(first, SPEC["per_layer"])
    counters = [m["name"] for m in SPEC["per_layer"]
                if m["unit"] != "s" and m["name"] != "serialize.identical_reports"]
    assert {n: first["metrics"][n]["value"] for n in counters} == \
        {n: second["metrics"][n]["value"] for n in counters}


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
