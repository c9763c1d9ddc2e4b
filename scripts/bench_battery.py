#!/usr/bin/env python3
"""Time the statistical battery test by test, a parent tree against this checkout.

Each of the seven tests, `run_battery`, and `read_stream` in both file
formats is timed on one seeded 10^6-bit stream with the default battery
parameters, as the min of 15 calls in a fresh subprocess.  The entry
`ciprng test` times the whole one-shot command instead: one child
process runs `python -m ciprng test` on that stream's raw-bytes file,
and its wall time and peak RSS (from `os.wait4`) are recorded.  Every
entry is timed in `ROUNDS` subprocesses per tree, the two trees
alternating entry by entry and round by round, so that drift of the
machine falls on both alike.  The median of the rounds (ms) and their
spread go into BENCH_battery.json under one label per tree, with the
per-child wall times and peak RSS of `ciprng test`; the labels already
in the file are kept:

    python scripts/bench_battery.py --parent ../parent/src --parent-label 44f98c5 --label change

`--parent` is the source tree to compare against; the other tree is this
checkout's `src`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_battery.json"
BITS = 1_000_000
SEED = 18
REPEATS = 15
ROUNDS = 5
ENTRIES = (
    "frequency",
    "block-frequency",
    "cumulative-sums",
    "runs",
    "longest-run",
    "serial",
    "approximate-entropy",
    "run_battery",
    "read_stream:ascii-01",
    "read_stream:raw-bytes",
    "ciprng test",
)
# run in each subprocess, with the tree under test first on PYTHONPATH
WORKER = "import sys, bench_battery; from ciprng import stats; print(bench_battery.time_entry(sys.argv[1]), stats.__file__)"


def best_ms(call) -> float:
    call()  # first use builds any lookup table
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


def seeded_bits():
    import numpy as np

    return np.random.default_rng(SEED).integers(0, 2, BITS, dtype=np.uint8)


def time_entry(name: str) -> float:
    """The best time of one entry, ms."""
    from ciprng import stats

    bits = seeded_bits()
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
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("ascii-01", "raw-bytes"):
            path = Path(tmp) / fmt
            stats.export_stream(bits, fmt, path)
            calls[f"read_stream:{fmt}"] = lambda path=path, fmt=fmt: stats.read_stream(path, fmt)
        return best_ms(calls[name])


def timed_in_subprocess(src: Path, name: str, raw: Path) -> tuple[float, float | None]:
    """Wall ms of one entry in a fresh subprocess, and for `ciprng test`
    the child's peak RSS in MiB."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "scripts")])}
    if name == "ciprng test":
        return run_test_command(raw, env)
    out = subprocess.run([sys.executable, "-c", WORKER, name], env=env, check=True, capture_output=True, text=True)
    ms, imported = out.stdout.split(maxsplit=1)
    if not Path(imported.strip()).is_relative_to(src):
        sys.exit(f"ciprng was imported from {imported.strip()}, not from {src}")
    return float(ms), None


def run_test_command(raw: Path, env: dict) -> tuple[float, float]:
    """Wall ms and peak RSS (MiB) of one `python -m ciprng test` child on `raw`.

    The child runs in the file's directory, so that the package comes from
    PYTHONPATH alone; its RSS is its own rusage, not the cumulative one of
    all children.
    """
    argv = [sys.executable, "-m", "ciprng", "test", str(raw), "--stream-format", "raw"]
    start = time.perf_counter()
    child = subprocess.Popen(argv, env=env, cwd=raw.parent, stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait for it again
    if child.returncode not in (0, 1):  # 1: a test failed, which the timing does not mind
        sys.exit(f"{' '.join(argv)} exited with {child.returncode}")
    return round(wall * 1e3, 3), round(usage.ru_maxrss / 1024, 1)  # ru_maxrss is in KiB


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
    rss = {label: [] for label in trees}
    with tempfile.TemporaryDirectory() as tmp:
        raw = Path(tmp) / "stream.bin"
        raw.write_bytes(np.packbits(seeded_bits()).tobytes())
        for r in range(ROUNDS):
            for i, name in enumerate(ENTRIES):
                order = list(trees) if (r + i) % 2 == 0 else list(trees)[::-1]
                for label in order:
                    ms, mib = timed_in_subprocess(trees[label], name, raw)
                    rounds[label][name].append(ms)
                    if mib is not None:
                        rss[label].append(mib)
                print(f"round {r + 1}/{ROUNDS} {name:<22}", *(f"{label}: {rounds[label][name][-1]:.3f} ms" for label in trees))

    import scipy

    doc.update(
        {
            "what": (
                "min of `repeats` calls per entry, ms; default BatteryConfig.  A run with `rounds` timed "
                "each entry in that many subprocesses, alternating with the run `compared_with`; its "
                "`timings_ms` is the median of the rounds and `spread_ms` their max minus min.  The "
                "entry `ciprng test` is one `python -m ciprng test --stream-format raw` child per round "
                "on the same stream, whole-process wall time; `test_children` lists each child's wall "
                "ms and peak RSS (MiB, from os.wait4)"
            ),
            "bits": BITS,
            "seed": SEED,
            "repeats": REPEATS,
        }
    )
    for label, other in zip(trees, list(trees)[::-1]):
        doc.setdefault("runs", {})[label] = {
            "machine": f"{cpu_model()}, {len(os.sched_getaffinity(0))} cores",
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "rounds": ROUNDS,
            "compared_with": other,
            "timings_ms": {name: round(statistics.median(ms), 3) for name, ms in rounds[label].items()},
            "spread_ms": {name: round(max(ms) - min(ms), 3) for name, ms in rounds[label].items()},
            "test_children": {"wall_ms": rounds[label]["ciprng test"], "peak_rss_mib": rss[label]},
        }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{'median ms':<22}", *(f"{label:>16}" for label in trees))
    for name in ENTRIES:
        print(f"{name:<22}", *(f"{doc['runs'][label]['timings_ms'][name]:16.3f}" for label in trees))
    print(f"{'ciprng test MiB':<22}", *(f"{statistics.median(rss[label]):16.1f}" for label in trees))
    return 0


if __name__ == "__main__":
    sys.exit(main())
