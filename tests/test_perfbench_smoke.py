"""Smoke test of the benchmark: each workload, traced, at its tiny scale.

The traced runs call func.mapping_matrix, graph.IterationGraph and a
wrapped func.is_balanced directly, and check every output against the
benchmark's own references, so a library change that breaks what the
benchmark uses fails here rather than only in a benchmark run.
"""

import json
from pathlib import Path
import subprocess
import sys

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["stream", "wide", "battery", "search"])
def test_traced_tiny_run_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--scale", "tiny", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
