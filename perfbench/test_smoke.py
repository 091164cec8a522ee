"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench

Kept out of the package's test suite, which collects only ``tests/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit_and_no_failed_job(trace, kind):
    done = run("--workload", "all", "--smoke", "--seconds", "1", "--seed", "0", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    results = json.loads(done.stdout.splitlines()[-1])
    assert list(results) == [w["name"] for w in BENCH["workloads"]]
    units = {m["name"]: m["unit"] for m in BENCH[kind]}
    for result in results.values():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == units
        assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_layer_map_covers_every_per_layer_metric():
    layers = json.loads((HERE / "layers.json").read_text())
    assert sorted(layers["metrics"]) == sorted(m["name"] for m in BENCH["per_layer"])
    workloads = {w["name"] for w in BENCH["workloads"]}
    end_to_end = {m["name"] for m in BENCH["end_to_end"]}
    for entry in layers["metrics"].values():
        assert set(entry.get("no_change", [])) <= workloads
        for workload, metrics in entry["moves"].items():
            assert workload in workloads and set(metrics) <= end_to_end


def test_fails_without_printing_a_result_when_the_package_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "compute_large", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
