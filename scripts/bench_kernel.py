#!/usr/bin/env python3
"""Time the update kernel and a wide function's set-up, a parent tree against this checkout.

The entries, each the min of 15 calls:

* `states(N=n, negation|variant)`: a fresh generator over two Xorshift64
  sources runs `states()` for 4096 bytes of output at k = 3N + 1, the
  size of one `gen` in the benchmark's `wide` workload, at N = 4, 12 and
  16.  The variant is the negation after 16 seeded paired edits on
  disjoint pairs; at N=4, where 16 pairs do not fit, after 4.
* `parse_function(N=16)`: the variant's file text at N=16, parsed.
* `negation(16)`, and `mutate_pair x16 (N=16)`: the 16 edits that make
  the N=16 variant, applied to the negation one by one.
* `state_bits(2^21, N=4)`: the bits of 2^21 seeded N=4 states, 1 MiB of
  output; its tracemalloc peak (MiB) is recorded too.

Every entry is timed in `ROUNDS` fresh subprocesses per tree, the two
trees alternating entry by entry and round by round, so that drift of the
machine falls on both alike.  The median of the rounds (ms) and their
spread go into BENCH_kernel.json under one label per tree, in the format
of BENCH_battery.json; the labels already in the file are kept:

    python scripts/bench_kernel.py --parent ../parent/src --parent-label d75696c --label change

`--parent` is the source tree to compare against; the other tree is this
checkout's `src`.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path

from bench_battery import REPEATS, best_ms, cpu_model

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_kernel.json"
SEED = 22
ROUNDS = 5
WIDE_BYTES = 4096
STATE_BITS = 1 << 21
ENTRIES = tuple(
    f"states(N={n}, {kind})" for n in (4, 12, 16) for kind in ("negation", "variant")
) + ("parse_function(N=16)", "negation(16)", "mutate_pair x16 (N=16)", "state_bits(2^21, N=4)")
# run in each subprocess, with the tree under test first on PYTHONPATH
WORKER = "import sys, bench_kernel; from ciprng import func; print(*bench_kernel.time_entry(sys.argv[1]), func.__file__)"


def edits(n_bits: int, count: int) -> list[tuple[int, int]]:
    """`count` seeded paired edits (j, i) on disjoint pairs, as `mutate_pair` takes them."""
    rng = random.Random(SEED + n_bits)
    used, out = set(), []
    while len(out) < count:
        q, i = rng.randrange(1 << n_bits), rng.randint(1, n_bits)
        if not {q, q ^ (1 << (i - 1))} & used:
            used |= {q, q ^ (1 << (i - 1))}
            out.append((q + 1, i))
    return out


def time_entry(name: str) -> tuple[float, float]:
    """The best time of one entry (ms), and for `state_bits` its tracemalloc
    peak (MiB; nan for the other entries)."""
    import numpy as np

    from ciprng import bitops, func
    from ciprng.generator import CiGenerator, GeneratorConfig
    from ciprng.sources import Xorshift64

    def variant(n_bits):
        f = func.negation(n_bits)
        for j, i in edits(n_bits, 16 if n_bits > 4 else 4):
            f = func.mutate_pair(f, j, i)
        return f

    def states(f):
        n = f.n_bits
        config = GeneratorConfig(f, k=3 * n + 1, seed_state=SEED % f.size)
        gen = CiGenerator(config, Xorshift64(0x5EED), Xorshift64(0xC0FFEE))
        return gen.states(-(-8 * WIDE_BYTES // n))

    # only the entry's own inputs are built, so that no other entry's
    # functions sit in the process while it is timed
    if name.startswith("states"):
        n, kind = name[len("states(N="):-1].split(", ")
        f = func.negation(int(n)) if kind == "negation" else variant(int(n))
        call = lambda: states(f)
    elif name == "parse_function(N=16)":
        text = func.format_function(variant(16))
        call = lambda: func.parse_function(text)
    elif name == "negation(16)":
        call = lambda: func.negation(16)
    elif name == "mutate_pair x16 (N=16)":
        negation, pairs = func.negation(16), edits(16, 16)
        call = lambda: functools.reduce(lambda f, edit: func.mutate_pair(f, *edit), pairs, negation)
    else:
        seeded = np.random.default_rng(SEED).integers(0, 16, STATE_BITS, dtype=np.int64)
        call = lambda: bitops.state_bits(seeded, 4)
    ms = best_ms(call)
    if not name.startswith("state_bits"):
        return ms, float("nan")
    import tracemalloc

    tracemalloc.start()
    call()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return ms, round(peak / 2**20, 1)


def timed_in_subprocess(src: Path, name: str) -> tuple[float, float]:
    """Best ms of one entry in a fresh subprocess, and its peak MiB (or nan)."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "scripts")])}
    out = subprocess.run([sys.executable, "-c", WORKER, name], env=env, check=True, capture_output=True, text=True)
    ms, mib, imported = out.stdout.split(maxsplit=2)
    if not Path(imported.strip()).is_relative_to(src):
        sys.exit(f"ciprng was imported from {imported.strip()}, not from {src}")
    return float(ms), float(mib)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="source tree to compare against")
    parser.add_argument("--parent-label", required=True, help="key the parent's timings are stored under")
    parser.add_argument("--label", required=True, help="key this checkout's timings are stored under")
    args = parser.parse_args()

    doc = json.loads(OUT.read_text()) if OUT.exists() else {}
    if args.label == args.parent_label or {args.label, args.parent_label} & doc.get("runs", {}).keys():
        parser.error(f"the two labels must differ and be new to {OUT.name}")
    trees = {args.parent_label: args.parent.resolve(), args.label: (ROOT / "src").resolve()}
    import numpy as np

    rounds = {label: {name: [] for name in ENTRIES} for label in trees}
    peaks = {label: {} for label in trees}
    for r in range(ROUNDS):
        for i, name in enumerate(ENTRIES):
            order = list(trees) if (r + i) % 2 == 0 else list(trees)[::-1]
            for label in order:
                ms, mib = timed_in_subprocess(trees[label], name)
                rounds[label][name].append(ms)
                if mib == mib:  # not nan
                    peaks[label].setdefault(name, []).append(mib)
            print(f"round {r + 1}/{ROUNDS} {name:<26}", *(f"{label}: {rounds[label][name][-1]:.3f} ms" for label in trees))

    doc.update(
        {
            "what": (
                "min of `repeats` calls per entry, ms.  `states(N=n, f)` is a fresh generator's "
                "states() for `wide_bytes` bytes of output at k = 3N + 1; the variant is the negation "
                "after 16 seeded paired edits (4 at N=4).  A run with `rounds` timed each entry in that "
                "many subprocesses, alternating with the run `compared_with`; its `timings_ms` is the "
                "median of the rounds and `spread_ms` their max minus min.  `peak_mib` is the median "
                "tracemalloc peak of the state_bits call"
            ),
            "seed": SEED,
            "repeats": REPEATS,
            "wide_bytes": WIDE_BYTES,
        }
    )
    for label, other in zip(trees, list(trees)[::-1]):
        doc.setdefault("runs", {})[label] = {
            "machine": f"{cpu_model()}, {len(os.sched_getaffinity(0))} cores",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "rounds": ROUNDS,
            "compared_with": other,
            "timings_ms": {name: round(statistics.median(ms), 3) for name, ms in rounds[label].items()},
            "spread_ms": {name: round(max(ms) - min(ms), 3) for name, ms in rounds[label].items()},
            "peak_mib": {name: statistics.median(mib) for name, mib in peaks[label].items()},
        }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{'median ms':<26}", *(f"{label:>16}" for label in trees))
    for name in ENTRIES:
        print(f"{name:<26}", *(f"{doc['runs'][label]['timings_ms'][name]:16.3f}" for label in trees))
    for name in peaks[args.label]:
        print(f"{name + ' MiB':<26}", *(f"{doc['runs'][label]['peak_mib'][name]:16.1f}" for label in trees))
    return 0


if __name__ == "__main__":
    sys.exit(main())
