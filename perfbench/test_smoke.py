"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_smoke.py

Checks that every workload runs, that every metric BENCHMARK.json names is
printed with its unit, that the traced run's self times sum to no more than
its traced wall time, and that the command refuses to run without sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in want
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_self_times_fit_in_traced_wall(workload):
    proc = bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads((ROOT / ".perfbench" / f"spans_{workload}_seed3.json").read_text())
    assert spans["spans"], "the traced run recorded no spans"
    assert all(v >= -1e-6 for v in spans["self_s"].values())
    assert 0 < sum(spans["self_s"].values()) <= spans["wall_s"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("flow", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
