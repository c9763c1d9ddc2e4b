#!/usr/bin/env python3
"""Benchmark of the ciprng toolkit: one workload, or all four, each in its own processes.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 12 --trace 0

For each workload this starts SETUPS child processes one after another:
SETUPS - 1 of them only set up, the last sets up, runs the timed passes
and checks every output.  `setup_s` is the median of the set-ups.  With
--trace 1 the last child runs half its time untraced and half traced
and reports per-layer metrics instead of end-to-end ones.

Prints every metric with its unit and base, then as the last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The full
result, with provenance, goes to perfbench/out/.  Exits 1 without that
line if the package cannot be found or a child fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("stream", "wide", "battery", "search")
SETUPS = 5
BUDGET_S = 170  # a run must end within 180 s
END_TO_END = ("setup_s", "wall_s", "ops_per_s", "op_p50_s", "op_p90_s", "peak_rss_mib")


def child(args, name: str, setup_only: bool, deadline: float) -> dict:
    tag = f"{name}-s{args.seed}-t{args.trace}"
    result = OUT / f"child-{tag}.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
           "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if args.corrupt:
        cmd.append("--corrupt")
    if args.trace:
        cmd += ["--spans", str(OUT / f"spans-{tag}.jsonl.gz")]
    started = time.monotonic()
    cmd += ["--started", repr(started)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL, timeout=max(deadline - started, 1))
    if proc.returncode != 0 or not result.exists():
        raise RuntimeError(f"{name}: child exited with code {proc.returncode}")
    data = json.loads(result.read_text(encoding="ascii"))
    result.unlink()
    return data


def run_workload(args, name: str, deadline: float) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUPS - 1):
            setups.append(child(args, name, True, deadline)["setup_s"])
    res = child(args, name, False, deadline)
    setups.append(res["setup_s"])
    metrics = dict(res["metrics"])
    bases = dict(res["bases"])
    if not args.trace:
        setups.sort()
        metrics["setup_s"] = {"value": setups[len(setups) // 2], "unit": "s"}
        metrics["peak_rss_mib"] = {"value": res["peak_rss_mib"], "unit": "MiB"}
        bases["setup_s"] = "median of " + ", ".join(f"{s:.4f}" for s in setups)
        bases["peak_rss_mib"] = "ru_maxrss of the measuring child before its checks"
    attempted, failed = res["attempted"], res["failed"]
    metrics["error_rate"] = {"value": failed / attempted, "unit": "ratio"}
    bases["error_rate"] = f"{failed} failed of {attempted} attempted"
    return {
        "workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scale": args.scale, "attempted": attempted, "failed": failed, "metrics": metrics,
        "bases": bases, "failures": res["messages"],
        "provenance": {"nproc": os.cpu_count(), **res["provenance"]},
    }


def show(r: dict) -> None:
    print(f"workload {r['workload']}  seed {r['seed']}  seconds {r['seconds']}  trace {r['trace']}")
    for key, m in r["metrics"].items():
        base = r["bases"].get(key, "")
        print(f"  {key:32s} {m['value']:>16.6g} {m['unit']:8s} {base}")
    if r["trace"]:
        print(f"  ({r['bases']['_per']})")
    for line in r["failures"]:
        print(f"  FAILED {line}", file=sys.stderr)
    print(f"  provenance {json.dumps(r['provenance'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for the self-test")
    parser.add_argument("--corrupt", action="store_true",
                        help="corrupt one output before checking (self-test of the checks)")
    args = parser.parse_args()

    if not (ROOT / "src" / "ciprng" / "__init__.py").is_file():
        print(f"error: no package sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + BUDGET_S * len(names)
    results = []
    try:
        for name in names:
            r = run_workload(args, name, deadline)
            show(r)
            results.append(r)
            tag = f"{name}-s{args.seed}-t{args.trace}"
            (OUT / f"result-{tag}.json").write_text(json.dumps(r, indent=1), encoding="ascii")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        names = [k for k in r["metrics"] if k != "error_rate"] if args.trace else END_TO_END
        metrics.update({prefix + k: r["metrics"][k] for k in names})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
