"""Smoke test of the benchmark harness: one short traced run per workload.

    python3 -m pytest perfbench/tests -q

Each run must print, as its last line, a result naming every per-layer
metric of BENCHMARK.json with its unit, and report no wrong output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd, workload, trace, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_traced_run_emits_every_layer_metric(workload):
    proc = run(ROOT, workload, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float)) and not isinstance(v["value"], bool)
               for v in result["metrics"].values())


def test_untraced_run_emits_every_end_to_end_metric():
    proc = run(ROOT, "verify-numerics", 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "optimize-default", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_strata_hold_every_converged_scenario_once():
    sys.path.insert(0, str(ROOT / "perfbench"))
    import env
    env.use_source()
    import workloads as wl
    catalogue = json.loads((ROOT / "perfbench" / "reference.json").read_text())[
        "scenarios"]["catalogue"]
    drawn = sorted(k for ids in wl.strata(catalogue) for k in ids)
    assert drawn == [k for k, e in enumerate(catalogue) if e["converged"]]
    assert wl.nonconvergent(catalogue) == [e["id"] for e in catalogue if not e["converged"]]
