"""The benchmark command end to end, on its lightest workload."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _run(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-requests", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_metric(trace):
    proc = _run(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["metrics"]) == sorted(names)
    for m in spec["end_to_end" if trace == 0 else "per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
