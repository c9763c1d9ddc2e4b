#!/usr/bin/env python3
"""Time the statistical battery test by test on one seeded 10^6-bit stream.

Each of the seven tests, `run_battery`, and `read_stream` in both file
formats is timed as the min of 15 calls, with the default battery
parameters.  The timings (ms) go into BENCH_battery.json under a label;
the other labels already in the file are kept, so two checkouts can be
compared in one file:

    python scripts/bench_battery.py --label change
    python scripts/bench_battery.py --label parent --src ../parent/src

`--src` picks the source tree the package is imported from (default:
this checkout's `src`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_battery.json"
BITS = 1_000_000
SEED = 18
REPEATS = 15


def best_ms(call) -> float:
    call()  # first use builds any lookup table and loads scipy.special
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3)


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key the timings are stored under")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to import ciprng from")
    args = parser.parse_args()

    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np
    import scipy

    from ciprng import stats

    bits = np.random.default_rng(SEED).integers(0, 2, BITS, dtype=np.uint8)
    cfg = stats.BatteryConfig()
    calls = {
        "frequency": lambda: stats.frequency_monobit(bits),
        "block-frequency": lambda: stats.block_frequency(bits, cfg.block_size),
        "cumulative-sums": lambda: stats.cumulative_sums(bits),
        "runs": lambda: stats.runs(bits),
        "longest-run": lambda: stats.longest_run_of_ones(bits),
        "serial": lambda: stats.serial(bits, cfg.serial_block),
        "approximate-entropy": lambda: stats.approximate_entropy(bits, cfg.apen_block),
        "run_battery": lambda: stats.run_battery(bits, cfg),
    }
    timings = {name: best_ms(call) for name, call in calls.items()}
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("ascii-01", "raw-bytes"):
            path = Path(tmp) / fmt
            stats.export_stream(bits, fmt, path)
            timings[f"read_stream:{fmt}"] = best_ms(lambda: stats.read_stream(path, fmt))

    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc.update(
        {
            "what": "min of `repeats` calls per entry, ms; default BatteryConfig",
            "bits": BITS,
            "seed": SEED,
            "repeats": REPEATS,
        }
    )
    doc.setdefault("runs", {})[args.label] = {
        "machine": f"{cpu_model()}, {len(os.sched_getaffinity(0))} cores",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "timings_ms": timings,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    for name, ms in timings.items():
        print(f"{name:<22} {ms:8.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
