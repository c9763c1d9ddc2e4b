#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs with and without tracing, that every
metric BENCHMARK.json names is printed with its unit and nothing else,
that one deliberately corrupted output is counted as failed, and that
the benchmark exits nonzero, printing no result, where the package's
sources are missing.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, list[str]]:
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--seed", "7", "--seconds", "1",
                           "--scale", "tiny", *args], cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.splitlines()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for trace in (0, 1):
        for w in spec["workloads"]:
            code, lines = run(["--workload", w["name"], "--trace", str(trace)])
            if code != 0 or not lines:
                problems.append(f"{w['name']} trace {trace}: exit code {code}")
                continue
            res = json.loads(lines[-1])
            got = {k: m["unit"] for k, m in res["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{w['name']} trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(got.items()) ^ set(wanted[trace].items()))}")
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w['name']} trace {trace}: {res['failed']} of {res['attempted']} failed")
            print(f"ok {w['name']} trace {trace}: {res['attempted']} operations")

    code, lines = run(["--workload", "stream", "--corrupt"])
    res = json.loads(lines[-1]) if code == 0 and lines else {}
    if res.get("failed", 0) < 1 or res.get("correct", True):
        problems.append(f"a corrupted output was not caught: exit code {code}, result {res}")
    else:
        print(f"ok corrupted output caught: {res['failed']} of {res['attempted']} failed")

    bare = Path(tempfile.mkdtemp(dir=HERE / "out"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        code, lines = run(["--workload", "stream"], cwd=bare)
    finally:
        shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append(f"without the package sources: exit code {code}, output {lines[-1:]}")
    else:
        print(f"ok without the package sources: exit code {code}")

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
