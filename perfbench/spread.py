#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over one or two sets of seeds.

    python3 perfbench/spread.py --seeds 1 2 3 4 5 --workloads battery
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 \\
        --second 11 12 13 14 15 16 17 18 19 20 --output perfbench/results/baseline.json

Runs the benchmark once per workload and seed, untraced, with the
run_seconds of BENCHMARK.json, and once traced on the first seed.  Prints,
for each metric, the median and the interquartile range as a share of
the median (statistics.quantiles, n=4) next to a third of the metric's
bound, and with --second the change of each median between the sets.
Writes the summary as JSON to --output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RATES = {"stream": "gen_mbit_per_s", "wide": "gen_mbit_per_s", "battery": "battery_mbit_per_s",
         "search": "search_functions_per_s"}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", str(trace)], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return json.loads((HERE / "out" / f"result-{workload}-s{seed}-t{trace}.json").read_text())


def summary(results: list[dict], names: list[str]) -> dict:
    out = {"seeds": [r["seed"] for r in results], "attempted": sum(r["attempted"] for r in results),
           "failed": sum(r["failed"] for r in results), "metrics": {}}
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out["metrics"][name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                                "spread": (q3 - q1) / med, "values": values}
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            return next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "unknown")
    except OSError:
        return "unknown"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--second", type=int, nargs="+", default=[], help="seeds of a second set")
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--output", type=Path, default=HERE / "out" / "spread.json")
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    result = {"about": f"Untraced runs of perfbench/run.py --seconds {seconds}, one per seed, and one traced "
                       "run on the first seed; spread is the interquartile range over the median "
                       "(statistics.quantiles, n=4).",
              "workloads": {}}
    worst = 0.0
    for w in args.workloads:
        names = list(bounds) + [RATES[w]]
        sets = [[run(w, seed, seconds, 0) for seed in seeds] for seeds in (args.seeds, args.second) if seeds]
        entry = {f"set{i + 1}": summary(rs, names) for i, rs in enumerate(sets)}
        traced = run(w, args.seeds[0], seconds, 1)["metrics"]
        entry[f"traced_seed{args.seeds[0]}"] = {k: v["value"] for k, v in traced.items()
                                                if k.endswith(".share") or k.startswith("trace.")}
        if len(sets) == 2:
            entry["median_change"] = {k: entry["set2"]["metrics"][k]["median"] / entry["set1"]["metrics"][k]["median"]
                                      - 1 for k in names}
        result["workloads"][w] = entry
        result["provenance"] = {**sets[0][0]["provenance"], "cpu": cpu_model()}

        print(f"{w}: {sum(s['failed'] for s in entry.values() if 'failed' in s)} failed operations")
        for name in names:
            spreads = [entry[k]["metrics"][name]["spread"] for k in ("set1", "set2") if k in entry]
            if name in bounds and name != "setup_s":
                worst = max(worst, max(spreads) / bounds[name])
            change = f"  median change {entry['median_change'][name]:+.4f}" if "median_change" in entry else ""
            third = f"  (a third of the bound: {bounds[name] / 3:.4f})" if name in bounds else ""
            print(f"  {name:22s} median {entry['set1']['metrics'][name]['median']:12.6g} spread "
                  + " ".join(f"{s:7.4f}" for s in spreads) + change + third)
        print("  traced: " + ", ".join(f"{k} {v:.4g}" for k, v in entry[f"traced_seed{args.seeds[0]}"].items()))
    args.output.parent.mkdir(exist_ok=True)
    args.output.write_text(json.dumps(result, indent=1) + "\n")
    print(f"largest spread as a share of its bound, setup_s aside: {worst:.3f}; summary in {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
