#!/usr/bin/env python3
"""Time one layer of ciprng on a parent tree and this checkout, alternating the two.

    python scripts/bench.py --layer draws|kernel|battery|e2e|verify|search --parent ../parent/src --parent-label 83e2b51 --label change

`--parent` is the `src` of the tree to compare against (the directory above
it is that tree's root); the other tree is this checkout's `src`.  An entry
of a layer is one of two kinds:

* a call, timed as the min of `REPEATS` calls after one warm-up call, in a
  worker process that imports ciprng from the tree under test; the worker
  also reports the tracemalloc peak of one more call;
* a command, one or more child processes run one after the other: their
  wall times are summed, and the peak RSS is the largest of their own
  (from `os.wait4`).

The layers:

* `draws`: `words`, `bits` and `coordinates` at N = 4, 12 and 16 of a fresh
  Xorshift64, at 407, 4096, 101000 and 262144 draws; and `bits(4096)` with
  the source's table caches cleared before each call, so that it times
  their build;
* `kernel`: `states()` of a fresh generator for 4096 bytes of output at
  k = 3N + 1, N = 4, 12 and 16, on the negation and on a variant made by 16
  seeded paired edits (4 at N=4), and at N = 12 and 16 on seeded random
  images, which run the scalar loop; the streams of as many bytes, rounds
  formatted as text, at N=4 on that variant (`byte_stream`, `bit_stream`),
  at N=12 on its variant (`byte_stream`) and at N=16 on the negation
  (`byte_stream`, `bit_stream`); the N=16 function's set-up (negation,
  the 16 edits, parsing its file text); `state_bits` of 2^21 N=4 states,
  and `pack_bits` and `bits_to_str` of its bits;
* `battery`: each of the seven tests, `run_battery` and `read_stream` in
  both formats on one seeded 10^6-bit stream; `run_battery` on a seeded
  stream of 1,000,003 bits, whose last packed word and window count's
  wrap-around end mid-byte; cumulative sums on 10^6 alternating bits,
  whose partial sums leave no word of the stream unopened; and the command
  `ciprng test` on the 10^6-bit stream's raw bytes;
* `e2e`: the north star's end-to-end commands: `gen` of 1 MiB at N=4; `gen`
  of 10^6 bits then `test` on its file; `search` at N=4, depth 8, with
  chaos; acceptance test 07, run by pytest in the tree's root, so that the
  tree's own `pythonpath` setting picks its `src`; and two whose peak RSS
  would grow with their output if it were held whole: `gen` of 16 MiB at
  N=4, and `graph` of the N=16 negation to a file;
* `verify`: the chaos check `is_strongly_connected` on a built graph of the
  negation at N=12, the variant of its 16 seeded paired edits, the Gray-code
  path at N=16 (balanced, 2^N - 1 reachability levels deep) and seeded
  random images at N=12 and 16 (not balanced); `mapping_matrix`,
  `is_balanced` and `balance_rule_check` of the variants at N=12 and 16;
  and the command `ciprng verify --porcelain` on that Gray path and on the
  N=12 random images;
* `search`: the paired-edit search `search_functions` at N=4, depth 8, with
  and without `require_chaos`, and at N=5, depth 3, each counted to its end.

Every entry runs in a fresh child process per tree in each of `ROUNDS`
rounds, the two trees alternating entry by entry and round by round, so
that drift of the machine falls on both alike.  Before any timing, a child
given each tree's environment must import ciprng from that tree's `src`.
The medians of the rounds and their spreads go into BENCH_<layer>.json
under one label per tree; the runs already in the file are kept, and a
label already there is refused.  This process imports neither ciprng nor
numpy.
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
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 15
ROUNDS = 5
BITS = 1_000_000
RAGGED_BITS = 1_000_003
RAGGED_BATTERY = f"run_battery({RAGGED_BITS} bits)"
FLAT_CUSUM = "cumulative-sums(alternating)"
BATTERY_SEED = 18
DRAWS_SEED = 0x5EED
KERNEL_SEED = 22
VERIFY_SEED = 24
WIDE_BYTES = 4096
STATE_BITS = 1 << 21
STATE_BITS_CALL = "state_bits(2^21, N=4)"
TABLES_COLD = ", tables cold"
CIPRNG = [sys.executable, "-m", "ciprng"]
# run in each worker, with the tree under test first on PYTHONPATH
WORKER = "import sys, bench; print(*bench.time_call(*sys.argv[1:]))"
IMPORT_GUARD = "import ciprng, numpy; print(ciprng.__file__, numpy.__version__)"
STREAM = "import sys, bench, numpy; open(sys.argv[1], 'wb').write(numpy.packbits(bench.seeded_bits()).tobytes())"

GEN = "gen --n-bits 4 --bytes 1048576"
GEN_16M = "gen --n-bits 4 --bytes 16777216"
GRAPH_16 = "graph --n-bits 16 --output <tmp>"
GEN_TEST = "gen --n-bits 4 --bytes 125000, test --stream-format raw"
SEARCH = "search --n-bits 4 --max-mutations 8 --require-chaos"
ACCEPTANCE_07 = "acceptance 07"
VERIFY_CALLS = ("negation(12)", "variant(12)", "gray_path(16)", "random(12)", "random(16)")
VERIFY_FILES = ("gray_path(16)", "random(12)")
BALANCE_CHECKS = ("mapping_matrix", "is_balanced", "balance_rule_check")
# entry -> (n_bits, max_mutations, require_chaos)
SEARCH_ARGS = {
    "search_functions(4, 8)": (4, 8, False),
    "search_functions(4, 8, require_chaos=True)": (4, 8, True),
    "search_functions(5, 3)": (5, 3, False),
}
ENTRIES = {
    "draws": tuple(
        name
        for count in (407, 4096, 101000, 262144)
        for name in (f"words({count})", f"bits({count})", *(f"coordinates({count}, {n})" for n in (4, 12, 16)))
    )
    + (f"bits(4096){TABLES_COLD}",),
    "kernel": tuple(f"states(N={n}, {kind})" for n in (4, 12, 16) for kind in ("negation", "variant"))
    + ("states(N=12, dense)", "states(N=16, dense)")
    + ("byte_stream(N=4, variant)", "bit_stream(N=4, variant)", "byte_stream(N=16, negation)")
    + ("bit_stream(N=16, negation)", "byte_stream(N=12, variant)")
    + ("parse_function(N=16)", "negation(16)", "mutate_pair x16 (N=16)", STATE_BITS_CALL)
    + tuple(f"{pack}({STATE_BITS_CALL})" for pack in ("pack_bits", "bits_to_str")),
    "battery": (
        "frequency",
        "block-frequency",
        "cumulative-sums",
        FLAT_CUSUM,
        "runs",
        "longest-run",
        "serial",
        "approximate-entropy",
        "run_battery",
        RAGGED_BATTERY,
        "read_stream:ascii-01",
        "read_stream:raw-bytes",
        "ciprng test",
    ),
    "e2e": (GEN, GEN_TEST, SEARCH, ACCEPTANCE_07, GEN_16M, GRAPH_16),
    "verify": tuple(f"is_strongly_connected({f})" for f in VERIFY_CALLS)
    + tuple(f"{check}(variant({n}))" for check in BALANCE_CHECKS for n in (12, 16))
    + tuple(f"ciprng verify --porcelain {f}" for f in VERIFY_FILES),
    "search": tuple(SEARCH_ARGS),
}
METHOD = (
    "  A call entry is the min of `repeats` calls (ms) after one warm-up call, and its `peak_mib` "
    "the tracemalloc peak of one more call.  A command entry is one or more child processes: its "
    "time is their summed wall time (ms), and `children` lists each round's wall ms and peak RSS "
    "(MiB, the largest child's own, from os.wait4).  A run with `rounds` ran every entry in that "
    "many fresh child processes per tree, alternating with the run `compared_with`; its "
    "`timings_ms` and `peak_mib` are the medians of the rounds and `spread_ms` their max minus "
    "min.  A run without `rounds` was timed one tree at a time, in one process."
)
HEADERS = {
    "draws": {
        "what": (
            "Xorshift64 array draws, each call on a fresh Xorshift64(seed).  An entry ending in "
            f"{TABLES_COLD!r} first clears every functools cache of ciprng.sources, so that it also "
            "times the build of the draws' lookup tables." + METHOD
        ),
        "seed": DRAWS_SEED,
        "repeats": REPEATS,
    },
    "kernel": {
        "what": (
            "The update kernel: `states(N=n, f)` is a fresh generator's states() for `wide_bytes` bytes of output at "
            "k = 3N + 1; the variant is the negation after 16 seeded paired edits (4 at N=4), and `dense` the "
            "function of `random(n)` in BENCH_verify.json, which runs the scalar loop.  `byte_stream(N=n, f)` "
            "and `bit_stream(N=n, f)` are that generator's streams of the same rounds, as `wide_bytes` bytes and as "
            "text.  Older runs lack the stream entries, and those before `one digit table` the N=16 `bit_stream` and "
            "N=12 `byte_stream`, and those before `one mask array` the `dense` entries.  "
            "`pack_bits` and `bits_to_str` take the bits that the `state_bits` entry gives.  "
            "Older runs record `peak_mib` of the state_bits call only." + METHOD
        ),
        "seed": KERNEL_SEED,
        "repeats": REPEATS,
        "wide_bytes": WIDE_BYTES,
    },
    "battery": {
        "what": (
            "The battery on one seeded stream of `bits` bits; default BatteryConfig.  The entry "
            f"{RAGGED_BATTERY!r} runs the battery on a seeded stream of that length instead, and {FLAT_CUSUM!r} the "
            "cumulative-sums test on `bits` alternating bits, whose every 64-bit word the partial-sum scan opens; most "
            "of its time is the p-values of an excursion of 1, and older runs lack it.  The command `ciprng test` is "
            "`python -m ciprng test --stream-format raw` on that stream's packed bytes; older runs "
            "list its rounds under `test_children`." + METHOD
        ),
        "bits": BITS,
        "seed": BATTERY_SEED,
        "repeats": REPEATS,
    },
    "e2e": {
        "what": (
            "The north star's end-to-end commands, every one a command entry.  The `gen`, `test` "
            "entry writes 10^6 bits and runs the battery on that file.  `acceptance 07` is that "
            "pytest test, 160 streams of 10^6 bits, run in the tree's root.  `<tmp>` is a file in "
            "a temporary directory.  Older runs lack the 16 MiB `gen` and the `graph` entries." + METHOD
        ),
    },
    "verify": {
        "what": (
            "The verify checks, each call entry `<check>(<function>)`: the chaos check "
            "`is_strongly_connected` on the function's built iteration graph, and the func checks "
            "`mapping_matrix`, `is_balanced` and `balance_rule_check` on the function itself; and "
            "`python -m ciprng verify --porcelain` on its function file.  `variant(n)` is the "
            "N=n negation after 16 seeded paired edits; `gray_path(16)` is the balanced function "
            "whose graph, loops aside, is the Gray-code Hamiltonian path; `random(n)` has "
            "random.Random(seed + n) images.  Older runs lack the func checks." + METHOD
        ),
        "seed": VERIFY_SEED,
        "repeats": REPEATS,
    },
    "search": {
        "what": (
            "The paired-edit search: each call runs `func.search_functions(n_bits, max_mutations, "
            "require_chaos=...)` to its end and counts the functions it yields (41,025 and 41,021 at "
            "N=4, depth 8; 62,041 at N=5, depth 3)." + METHOD
        ),
        "repeats": REPEATS,
    },
}


def commands(root: Path, tmp: Path) -> dict[str, list[tuple[list[str], Path]]]:
    """The command entries of every layer: name -> child processes, each with
    its working directory, for the tree whose root is `root`.

    ciprng runs in `tmp`, so that it is imported from PYTHONPATH alone;
    pytest runs in the tree's root.
    """
    out = str(tmp / "gen.bin")
    return {
        "ciprng test": [([*CIPRNG, "test", str(tmp / "stream.bin"), "--stream-format", "raw"], tmp)],
        GEN: [([*CIPRNG, "gen", "--n-bits", "4", "--bytes", "1048576", "--output", out], tmp)],
        GEN_16M: [([*CIPRNG, "gen", "--n-bits", "4", "--bytes", "16777216", "--output", out], tmp)],
        GRAPH_16: [([*CIPRNG, "graph", "--n-bits", "16", "--output", str(tmp / "graph.dot")], tmp)],
        GEN_TEST: [
            ([*CIPRNG, "gen", "--n-bits", "4", "--bytes", "125000", "--output", out], tmp),
            ([*CIPRNG, "test", out, "--stream-format", "raw"], tmp),
        ],
        SEARCH: [([*CIPRNG, "search", "--n-bits", "4", "--max-mutations", "8", "--require-chaos"], tmp)],
        **{
            f"ciprng verify --porcelain {f}": [([*CIPRNG, "verify", str(tmp / f"{f}.fn"), "--porcelain"], tmp)]
            for f in VERIFY_FILES
        },
        ACCEPTANCE_07: [
            (
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 "tests/test_acceptance.py::test_07_statistical_property_suite"],
                root,
            )
        ],
    }


def run_command(steps: list[tuple[list[str], Path]], env: dict) -> tuple[float, float]:
    """Summed wall ms of the steps, and the largest peak RSS (MiB) of any one of them.

    Each child's RSS is its own rusage from os.wait4, not the maximum over
    all children so far that RUSAGE_CHILDREN would give.  Linux counts in
    it the peak of this process too, whose memory the child shares until
    it execs, so this process stays a bare interpreter (no numpy), and a
    child that reads no more than that peak is refused.
    """
    floor = own_peak_kib()
    wall, peak = 0.0, 0
    for argv, cwd in steps:
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall += time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)  # reaped here: Popen must not wait for it again
        # 1 from `ciprng test` means a test failed, and from `ciprng verify`
        # that the function is not balanced or not chaotic, which the timing
        # does not mind; from anything else it is a failure, such as an import error
        if child.returncode not in ((0, 1) if argv[:3] == CIPRNG and argv[3] in ("test", "verify") else (0,)):
            sys.exit(f"{' '.join(argv)} exited with {child.returncode}")
        if usage.ru_maxrss <= floor:
            sys.exit(f"{' '.join(argv)} read no more peak RSS than the harness itself")
        peak = max(peak, usage.ru_maxrss)
    return round(wall * 1e3, 3), round(peak / 1024, 1)  # ru_maxrss is in KiB


def own_peak_kib() -> int:
    """This process's own peak RSS (KiB), VmHWM; its ru_maxrss may be the
    peak of the process that started it, by the same rule as above."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def seeded_bits(count: int = BITS):
    import numpy as np

    return np.random.default_rng(BATTERY_SEED).integers(0, 2, count, dtype=np.uint8)


def draws_call(name: str, tmp: Path):
    """The call of a `draws` entry: the Xorshift64 method and counts its name spells.

    A cold entry first clears every functools cache the module has, whatever
    their names, so that the call runs on any tree.
    """
    from ciprng import sources

    spec = name.removesuffix(TABLES_COLD)
    method, args = spec.rstrip(")").split("(")
    counts = tuple(map(int, args.split(", ")))
    caches = [f for f in vars(sources).values() if hasattr(f, "cache_clear")] if spec != name else []

    def call():
        for cache in caches:
            cache.cache_clear()
        return getattr(sources.Xorshift64(DRAWS_SEED), method)(*counts)

    return call


def edits(n_bits: int, count: int) -> list[tuple[int, int]]:
    """`count` seeded paired edits (j, i) on disjoint pairs, as `mutate_pair` takes them."""
    rng = random.Random(KERNEL_SEED + n_bits)
    used, out = set(), []
    while len(out) < count:
        q, i = rng.randrange(1 << n_bits), rng.randint(1, n_bits)
        if not {q, q ^ (1 << (i - 1))} & used:
            used |= {q, q ^ (1 << (i - 1))}
            out.append((q + 1, i))
    return out


def variant(n_bits: int):
    """The negation after 16 seeded paired edits (4 at N=4)."""
    from ciprng import func

    f = func.negation(n_bits)
    for j, i in edits(n_bits, 16 if n_bits > 4 else 4):
        f = func.mutate_pair(f, j, i)
    return f


def dense(n_bits: int):
    """The function of `random(n_bits)`: seeded random images, far from the negation."""
    from ciprng import func

    return func.VectorOfImages(*verify_images(f"random({n_bits})"))


def verify_images(name: str) -> tuple[int, list[int]]:
    """Width and images of a `verify` function, in pure Python.

    `gray_path(n)` flips, at each vertex, the bits of its edges on the
    Gray-code path g_j = j XOR (j >> 1), so its graph is that path with
    arcs both ways, plus loops; `random(n)` draws from random.Random(seed + n).
    """
    kind, n_bits = name.rstrip(")").split("(")
    size = 1 << int(n_bits)
    if kind == "random":
        rng = random.Random(VERIFY_SEED + int(n_bits))
        return int(n_bits), [rng.randrange(size) for _ in range(size)]
    order = [j ^ (j >> 1) for j in range(size)]
    flips = [0] * size
    for a, b in zip(order, order[1:]):
        flips[a] ^= a ^ b
        flips[b] ^= a ^ b
    return int(n_bits), [q ^ flips[q] for q in range(size)]


def verify_call(name: str, tmp: Path):
    """The call of a `verify` entry `<check>(<function>)`: the chaos check on
    a graph built beforehand, or the func check of that name on the function."""
    from ciprng import func, graph

    check, spec = name[:-1].split("(", 1)
    kind, n_bits = spec.rstrip(")").split("(")
    if kind == "negation":
        f = func.negation(int(n_bits))
    elif kind == "variant":
        f = variant(int(n_bits))
    else:
        f = func.VectorOfImages(*verify_images(spec))
    if check == "is_strongly_connected":
        g = graph.build_graph(f)
        return lambda: graph.is_strongly_connected(g)
    return functools.partial(getattr(func, check), f)


def search_call(name: str, tmp: Path):
    """The call of a `search` entry: the search its name spells, counted to its end."""
    from ciprng import func

    n_bits, depth, chaos = SEARCH_ARGS[name]
    return lambda: sum(1 for _ in func.search_functions(n_bits, depth, require_chaos=chaos))


def kernel_call(name: str, tmp: Path):
    """The call of a `kernel` entry."""
    import numpy as np

    from ciprng import bitops, func
    from ciprng.generator import CiGenerator, GeneratorConfig
    from ciprng.sources import Xorshift64

    def output(method, f):
        n = f.n_bits
        config = GeneratorConfig(f, k=3 * n + 1, seed_state=KERNEL_SEED % f.size)
        gen = CiGenerator(config, Xorshift64(0x5EED), Xorshift64(0xC0FFEE))
        return gen.byte_stream(WIDE_BYTES) if method == "byte_stream" else getattr(gen, method)(-(-8 * WIDE_BYTES // n))

    # only the entry's own inputs are built, so that no other entry's
    # functions sit in the process while it is timed
    if name.startswith(("states", "byte_stream", "bit_stream")):
        method, spec = name[:-1].split("(N=")
        n, kind = spec.split(", ")
        f = {"negation": func.negation, "variant": variant, "dense": dense}[kind](int(n))
        return lambda: output(method, f)
    if name == "parse_function(N=16)":
        text = func.format_function(variant(16))
        return lambda: func.parse_function(text)
    if name == "negation(16)":
        return lambda: func.negation(16)
    if name == "mutate_pair x16 (N=16)":
        negation, pairs = func.negation(16), edits(16, 16)
        return lambda: functools.reduce(lambda f, edit: func.mutate_pair(f, *edit), pairs, negation)
    seeded = np.random.default_rng(KERNEL_SEED).integers(0, 16, STATE_BITS, dtype=np.int64)
    if name == STATE_BITS_CALL:
        return lambda: bitops.state_bits(seeded, 4)
    bits = bitops.state_bits(seeded, 4)
    pack = getattr(bitops, name.split("(")[0])
    return lambda: pack(bits)


def battery_call(name: str, tmp: Path):
    """The call of a `battery` entry; `read_stream` reads a file written in `tmp`."""
    import numpy as np

    from ciprng import stats

    if name == RAGGED_BATTERY:
        ragged = seeded_bits(RAGGED_BITS)
        return lambda: stats.run_battery(ragged)
    if name == FLAT_CUSUM:
        alternating = np.arange(BITS, dtype=np.uint8) % 2
        return lambda: stats.cumulative_sums(alternating)
    bits = seeded_bits()
    if name.startswith("read_stream:"):
        fmt = name.split(":")[1]
        stats.export_stream(bits, fmt, tmp / fmt)
        return lambda: stats.read_stream(tmp / fmt, fmt)
    cfg = stats.BatteryConfig()
    return {
        "frequency": lambda: stats.frequency_monobit(bits),
        "block-frequency": lambda: stats.block_frequency(bits, cfg.block_size),
        "cumulative-sums": lambda: stats.cumulative_sums(bits),
        "runs": lambda: stats.runs(bits),
        "longest-run": lambda: stats.longest_run_of_ones(bits),
        "serial": lambda: stats.serial(bits, cfg.serial_block),
        "approximate-entropy": lambda: stats.approximate_entropy(bits, cfg.apen_block),
        "run_battery": lambda: stats.run_battery(bits, cfg),
    }[name]


def time_call(layer: str, name: str) -> tuple[float, float]:
    """The best ms of a call entry, and the tracemalloc peak (MiB) of one more call."""
    with tempfile.TemporaryDirectory() as tmp:
        calls = {
            "draws": draws_call,
            "kernel": kernel_call,
            "battery": battery_call,
            "verify": verify_call,
            "search": search_call,
        }
        call = calls[layer](name, Path(tmp))
        call()  # first use builds any lookup table
        best = float("inf")
        for _ in range(REPEATS):
            start = time.perf_counter()
            call()
            best = min(best, time.perf_counter() - start)
        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return round(best * 1e3, 3), round(peak / 2**20, 1)


def tree_env(src: Path) -> dict:
    """The environment of every child for the tree whose source is `src`."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(ROOT / "scripts")])}


def time_in_worker(env: dict, cwd: Path, layer: str, name: str) -> tuple[float, float]:
    """`time_call` in a fresh worker process given `env`."""
    argv = [sys.executable, "-c", WORKER, layer, name]
    out = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    if out.returncode:
        sys.exit(f"the worker for {layer} {name!r} failed:\n{out.stderr}")
    ms, mib = out.stdout.split()
    return float(ms), float(mib)


def check_import(src: Path, env: dict, cwd: Path) -> str:
    """numpy's version in a child given `env`; exits unless that child imports ciprng from `src`."""
    argv = [sys.executable, "-c", IMPORT_GUARD]
    out = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True)
    imported, _, numpy_version = out.stdout.strip().rpartition(" ")
    if not Path(imported).is_relative_to(src):
        sys.exit(f"a child for {src} did not import ciprng from it: {out.stdout.strip() or out.stderr.strip()}")
    return numpy_version


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(layer: str, trees: dict[str, Path]) -> dict[str, dict]:
    """One run per label of `trees` (label -> src), alternating the two trees."""
    names = ENTRIES[layer]
    width = max(map(len, names))
    times = {label: {name: [] for name in names} for label in trees}
    peaks = {label: {name: [] for name in names} for label in trees}
    envs = {label: tree_env(src) for label, src in trees.items()}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        steps = {label: commands(src.parent, tmp) for label, src in trees.items()}
        numpy_version = {label: check_import(src, envs[label], tmp) for label, src in trees.items()}
        subprocess.run([sys.executable, "-c", STREAM, tmp / "stream.bin"], env=tree_env(ROOT / "src"), check=True)
        for f in VERIFY_FILES:
            n_bits, images = verify_images(f)
            (tmp / f"{f}.fn").write_text(f"{n_bits}\n{' '.join(map(str, images))}\n", encoding="ascii")
        for r in range(ROUNDS):
            for i, name in enumerate(names):
                for label in list(trees)[:: 1 if (r + i) % 2 == 0 else -1]:
                    if name in steps[label]:
                        ms, mib = run_command(steps[label][name], envs[label])
                    else:
                        ms, mib = time_in_worker(envs[label], tmp, layer, name)
                    times[label][name].append(ms)
                    peaks[label][name].append(mib)
                print(f"round {r + 1}/{ROUNDS} {name:<{width}}", *(f"{label}: {times[label][name][-1]:.3f} ms" for label in trees), flush=True)
    runs = {}
    for label, other in zip(trees, list(trees)[::-1]):
        calls = [name for name in names if name not in steps[label]]
        run = {
            "machine": f"{cpu_model()}, {len(os.sched_getaffinity(0))} cores",
            "python": platform.python_version(),
            "numpy": numpy_version[label],
            "rounds": ROUNDS,
            "compared_with": other,
            "timings_ms": {name: round(statistics.median(ms), 3) for name, ms in times[label].items()},
            "spread_ms": {name: round(max(ms) - min(ms), 3) for name, ms in times[label].items()},
            "peak_mib": {name: statistics.median(peaks[label][name]) for name in calls},
            "children": {
                name: {"wall_ms": times[label][name], "peak_rss_mib": peaks[label][name]}
                for name in names
                if name not in calls
            },
        }
        runs[label] = {key: value for key, value in run.items() if value != {}}
    return runs


def load(path: Path, labels) -> dict:
    """The BENCH document at `path` ({} if there is none); ValueError if it has any of `labels`."""
    doc = json.loads(path.read_text()) if path.exists() else {}
    reused = set(labels) & doc.get("runs", {}).keys()
    if reused:
        raise ValueError(f"{path.name} already has runs labelled {sorted(reused)}")
    return doc


def merge(path: Path, layer: str, runs: dict[str, dict]) -> None:
    """Add `runs` (label -> run) to the BENCH file of `layer` at `path`, and
    refresh its header; the runs already there are written back unchanged."""
    doc = load(path, runs)
    doc.update(HEADERS[layer])
    doc.setdefault("runs", {}).update(runs)
    path.write_text(json.dumps(doc, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--layer", choices=ENTRIES, required=True, help="what to time")
    parser.add_argument("--parent", type=Path, required=True, help="src of the tree to compare against")
    parser.add_argument("--parent-label", required=True, help="key the parent's timings are stored under")
    parser.add_argument("--label", required=True, help="key this checkout's timings are stored under")
    args = parser.parse_args()

    out = ROOT / f"BENCH_{args.layer}.json"
    trees = {args.parent_label: args.parent.resolve(), args.label: (ROOT / "src").resolve()}
    if len(trees) < 2:
        parser.error("the two labels must differ")
    try:
        load(out, trees)
    except ValueError as error:
        parser.error(str(error))
    runs = measure(args.layer, trees)
    merge(out, args.layer, runs)
    width = max(map(len, ENTRIES[args.layer]))
    print(f"{'median ms':<{width}}", *(f"{label:>16}" for label in trees))
    for name in ENTRIES[args.layer]:
        print(f"{name:<{width}}", *(f"{runs[label]['timings_ms'][name]:16.3f}" for label in trees))
    return 0


if __name__ == "__main__":
    sys.exit(main())
