#!/usr/bin/env python3
"""Time the xorshift array draws: words, bits and coordinates.

`words`, `bits`, and `coordinates` at N = 4, 12 and 16 are each timed at
407, 4096, 101000 and 262144 draws, as the min of 15 calls, every call on
a fresh source with one fixed seed.  The timings (ms) go into
BENCH_draws.json under a label; the other labels already in the file are
kept, so two checkouts can be compared in one file:

    python scripts/bench_draws.py --label change
    python scripts/bench_draws.py --label parent --src ../parent/src

`--src` picks the source tree the package is imported from (default:
this checkout's `src`).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from bench_battery import REPEATS, best_ms, cpu_model

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_draws.json"
SEED = 0x5EED
COUNTS = (407, 4096, 101000, 262144)
WIDTHS = (4, 12, 16)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="key the timings are stored under")
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="source tree to import ciprng from")
    args = parser.parse_args()

    sys.path.insert(0, str(args.src.resolve()))
    import numpy as np

    from ciprng.sources import Xorshift64

    calls = {}
    for count in COUNTS:
        calls[f"words({count})"] = lambda count=count: Xorshift64(SEED).words(count)
        calls[f"bits({count})"] = lambda count=count: Xorshift64(SEED).bits(count)
        for n in WIDTHS:
            calls[f"coordinates({count}, {n})"] = lambda count=count, n=n: Xorshift64(SEED).coordinates(count, n)
    timings = {name: best_ms(call) for name, call in calls.items()}

    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    doc.update(
        {
            "what": "min of `repeats` calls per entry, ms; each call on a fresh Xorshift64(seed)",
            "seed": SEED,
            "repeats": REPEATS,
        }
    )
    doc.setdefault("runs", {})[args.label] = {
        "machine": f"{cpu_model()}, {len(os.sched_getaffinity(0))} cores",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "timings_ms": timings,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    for name, ms in timings.items():
        print(f"{name:<26} {ms:8.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
