"""The benchmark's own calls into the library: every workload of
BENCHMARK.json runs at toy size and must pass all of its checks."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_toy_run(tmp_path, workload):
    # the benchmark reads the library from ./src and writes its records
    # under the working directory, so run it from a directory of its own
    os.symlink(ROOT / "src", tmp_path / "src")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", "0", "--toy"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, result
