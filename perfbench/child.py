"""One workload in one process: set up, run timed passes, check the outputs.

Started by run.py, which passes the monotonic time at which it started
this process, so that `setup_s` covers interpreter start, imports,
function construction and input generation.  Writes one JSON object
to the file named by --result and nothing to stdout.

A pass is the workload's operation list run once, one operation after
another (a closed loop with one client).  Passes repeat until the timed
region is as near --seconds as whole passes allow, and until at least
MIN_OPS operations ran, so that ten latencies lie beyond the 90th
percentile.  Outputs are fingerprinted between passes and checked after
the last one, outside the timed region.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import platform
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from clock import Clock
from spans import LAYERS, Tracer, layer_summary

ROOT = Path(__file__).resolve().parent.parent
MIN_OPS = 100
WORK_RATES = {  # workload-specific throughput: metric, unit, operation kind, scale
    "stream": ("gen_mbit_per_s", "Mbit/s", "gen", 1e-6),
    "wide": ("gen_mbit_per_s", "Mbit/s", "gen", 1e-6),
    "battery": ("battery_mbit_per_s", "Mbit/s", "test", 1e-6),
    "search": ("search_functions_per_s", "1/s", "search", 1.0),
}


class Execution:
    __slots__ = ("op", "pass_no", "exec_id", "raw", "error", "t0", "t1", "marks", "fp")

    def __init__(self, op, pass_no, exec_id, raw, error, t0, t1):
        self.op, self.pass_no, self.exec_id = op, pass_no, exec_id
        self.raw, self.error, self.t0, self.t1 = raw, error, t0, t1
        self.marks = [t0, t1]  # clock times; sample i runs from marks[i] to marks[i + 1]
        self.fp = None

    @property
    def n_samples(self) -> int:
        return len(self.marks) - 1


def run_passes(ops, tracer, clock, seconds: float, min_ops: int, corrupt: bool, first_id: int):
    """Timed passes; returns the executions and the number of passes."""
    execs, passes = [], 0
    elapsed, n_ops = 0.0, 0
    while True:
        pass_execs = []
        clock.tick()
        start = clock.now()
        for op in ops:
            exec_id = first_id + len(execs) + len(pass_execs)
            if tracer is not None:
                tracer.op_id = exec_id
            clock.tick()
            t0 = clock.now()
            try:
                raw, error = op.run(tracer), None
            except Exception:  # an operation that raises counts as failed
                raw, error = None, traceback.format_exc(limit=3)
            pass_execs.append(Execution(op, passes, exec_id, raw, error, t0, clock.now()))
        end = clock.now()
        clock.probe()  # the reading after the last operation
        for ex in pass_execs:  # untimed: fingerprint the outputs, drop the raw results
            finish(ex, corrupt and not execs and ex is pass_execs[0])
            n_ops += ex.n_samples
        execs += pass_execs
        passes += 1
        elapsed += end - start
        if n_ops >= min_ops and elapsed + (end - start) / 2 >= seconds:
            return execs, passes


def finish(ex: Execution, corrupt: bool) -> None:
    if ex.error is None and ex.op.yields and ex.raw[-1]:
        ex.marks = [ex.marks[0]] + ex.raw[-1]
    if ex.error is None:
        try:
            ex.fp = ex.op.collect(ex.raw, corrupt)
        except Exception:
            ex.error = traceback.format_exc(limit=3)
    ex.raw = None


def check_all(execs, checks) -> dict:
    """Check every fingerprint and every set-up result; failures per layer."""
    attempted = failed = 0
    by_layer: dict[str, int] = {}
    messages = []
    for ex in execs:
        n = ex.n_samples
        attempted += n
        ok = ex.error is None
        if ok:
            try:
                ok = bool(ex.op.check(ex.fp))
            except Exception:
                ex.error = traceback.format_exc(limit=3)
                ok = False
            if not ok and ex.error is None:
                ex.error = "output differs from the reference"
        if not ok:
            failed += n
            by_layer[ex.op.layer] = by_layer.get(ex.op.layer, 0) + n
            messages.append(f"{ex.op.key} (pass {ex.pass_no}): {ex.error}")
    for name, check in checks:
        attempted += 1
        try:
            ok = bool(check())
            error = "differs from the reference"
        except Exception:
            ok, error = False, traceback.format_exc(limit=3)
        if not ok:
            failed += 1
            messages.append(f"check {name}: {error}")
    return {"attempted": attempted, "failed": failed, "failed_by_layer": by_layer, "messages": messages[:20]}


def percentile(sorted_values, q: float):
    """Nearest-rank percentile, with the number of samples above it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def median(values):
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def end_to_end(workload: str, execs, n_passes: int, clock) -> tuple[dict, dict]:
    """End-to-end metrics of untraced passes, and the base each was taken over.

    Every time is rescaled by the machine's speed when it was taken (see
    clock.py); the bases give the unscaled values too.  A pass's wall
    time is the sum of its operations' times, probes left out.
    """
    f = clock.scaled()
    lat, raw = [], []
    walls, raw_walls = [0.0] * n_passes, [0.0] * n_passes
    work_time = work = 0
    name, unit, kind, factor = WORK_RATES[workload]
    for ex in execs:
        marks = np.asarray(ex.marks)
        lat.append(np.diff(f(marks)))
        raw.append(np.diff(marks))
        took = float(f(ex.t1) - f(ex.t0))
        walls[ex.pass_no] += took
        raw_walls[ex.pass_no] += ex.t1 - ex.t0
        if ex.op.kind == kind:
            work_time += took
            work += ex.n_samples if ex.op.yields else ex.op.work
    lat = np.sort(np.concatenate(lat))
    raw = np.sort(np.concatenate(raw))
    p50, _ = percentile(lat, 0.5)
    p90, beyond = percentile(lat, 0.9)
    metrics = {
        "wall_s": (median(walls), "s"),
        "ops_per_s": (lat.size / sum(walls), "1/s"),
        "op_p50_s": (float(p50), "s"),
        "op_p90_s": (float(p90), "s"),
        name: (work * factor / work_time, unit),
    }
    bases = {
        "wall_s": f"median of {n_passes} passes of {len(execs) // n_passes} operations; "
                  f"unscaled {median(raw_walls):.6g}; median probe speed {median(clock.speeds):.4g} of nominal",
        "ops_per_s": f"{lat.size} operations in {sum(walls):.3f} s; unscaled {lat.size / sum(raw_walls):.6g}",
        "op_p50_s": f"{lat.size} samples; unscaled {percentile(raw, 0.5)[0]:.6g}",
        "op_p90_s": f"{lat.size} samples, {beyond} beyond; unscaled {percentile(raw, 0.9)[0]:.6g}",
        name: f"{work} {'functions' if kind == 'search' else 'bits'} in {work_time:.3f} s of {kind} operations",
    }
    return metrics, bases


def pass_walls(execs, f=float) -> list[float]:
    """Wall time of each pass, the sum of its operations' times; `f` maps clock times."""
    walls: dict[int, float] = {}
    for ex in execs:
        walls[ex.pass_no] = walls.get(ex.pass_no, 0.0) + float(f(ex.t1) - f(ex.t0))
    return list(walls.values())


def per_layer(tracer, execs, untraced, clock, failed_by_layer) -> tuple[dict, dict]:
    """Per-layer metrics of traced passes (per pass), with their bases.

    Spans read the same clock as the end-to-end times, so probe time is
    left out of them and they are rescaled the same way.
    """
    f = clock.scaled()
    walls = pass_walls(execs, f)
    passes = len(walls)
    by_key = {}
    twins = {}
    for ex in execs:
        by_key[(ex.pass_no, ex.op.key)] = ex.exec_id
    for ex in execs:
        if ex.op.twin is not None:
            twins[ex.exec_id] = by_key[(ex.pass_no, ex.op.twin)]
    wall = median(walls)
    summary = layer_summary(tracer, twins, f, passes, sum(walls) / passes)
    t = summary["by_name"]
    c = {k: v // passes for k, v in tracer.counts.items()}

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    draw_s = t.get("sources.draw", 0.0)
    states_s = t.get("generator.states", 0.0)
    m = {
        "sources.words": (c.get("sources.words", 0), "count"),
        "sources.draw_s": (draw_s, "s"),
        "sources.words_per_s": (rate(c.get("sources.words", 0), draw_s), "1/s"),
        "generator.rounds": (c.get("generator.rounds", 0), "count"),
        "generator.updates": (c.get("generator.updates", 0), "count"),
        "generator.states_s": (states_s, "s"),
        "generator.updates_per_s": (rate(c.get("generator.updates", 0), states_s - draw_s), "1/s"),
        "generator.buffer_bytes": (c.get("generator.buffer_bytes", 0), "B"),
        "bitops.bits": (c.get("bitops.bits", 0), "count"),
        "bitops.state_bits_s": (t.get("bitops.state_bits", 0.0), "s"),
        "bitops.pack_bits_s": (t.get("bitops.pack_bits", 0.0), "s"),
        "bitops.bits_to_str_s": (t.get("bitops.bits_to_str", 0.0), "s"),
        "bitops.bytes_moved": (c.get("bitops.bytes_moved", 0), "B"),
        "stats.bits_tested": (c.get("stats.bits_tested", 0), "count"),
        "stats.read_stream_s": (t.get("stats.read_stream", 0.0), "s"),
        "stats.battery_s": (t.get("stats.battery", 0.0), "s"),
    }
    for test in ("frequency", "block-frequency", "cumulative-sums", "runs", "longest-run", "serial",
                 "approximate-entropy"):
        m[f"stats.{test}_s"] = (t.get(f"stats.{test}", 0.0), "s")
    enumerated = c.get("func.search.enumerated", 0)
    yielded = c.get("func.search.yielded", 0)
    arcs = c.get("graph.arcs", 0)
    scc_s = t.get("graph.is_strongly_connected", 0.0)
    m.update({
        "func.search_s": (summary["self_by_name"].get("func.search", 0.0), "s"),
        "func.search.enumerated": (enumerated, "count"),
        "func.search.yielded": (yielded, "count"),
        "func.search.yield_ratio": (yielded / enumerated if enumerated else 0.0, "ratio"),
        "func.is_balanced_s": (t.get("func.is_balanced", 0.0), "s"),
        "func.balance_rule_s": (t.get("func.balance_rule_check", 0.0), "s"),
        "func.mapping_matrix_s": (t.get("func.mapping_matrix", 0.0), "s"),
        "graph.arcs": (arcs, "count"),
        "graph.build_graph_s": (t.get("graph.build_graph", 0.0), "s"),
        "graph.scc_s": (scc_s, "s"),
        "graph.arcs_per_s": (rate(arcs, scc_s), "1/s"),
        "graph.export_dot_s": (t.get("graph.export_dot", 0.0), "s"),
        "cli.main_s": (t.get("cli.main", 0.0), "s"),
        "cli.overhead_s": (summary["cli_overhead"], "s"),
        "cli.bytes_written": (c.get("cli.bytes_written", 0), "B"),
    })
    work = wall - summary["extra"]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (summary["layer_self"][layer], "s")
        m[f"{layer}.share"] = (summary["layer_self"][layer] / work, "ratio")
        m[f"{layer}.failed"] = (failed_by_layer.get(layer, 0), "count")
    untraced_wall = median(pass_walls(untraced, f))
    m.update({
        "trace.wall_s": (wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (wall - untraced_wall, "s"),
        "trace.extra_s": (summary["extra"], "s"),
        "trace.coverage": (summary["coverage"], "ratio"),
    })
    bases = {
        "sources.words_per_s": f"{c.get('sources.words', 0)} words in {draw_s:.4f} s",
        "generator.updates_per_s": f"{c.get('generator.updates', 0)} updates in {states_s - draw_s:.4f} s "
                                   "of states() not spent drawing",
        "func.search.enumerated": "calls search_functions made to func.is_balanced, one per distinct candidate",
        "func.search.yield_ratio": f"{yielded} yielded of {enumerated} enumerated",
        "graph.arcs_per_s": f"{arcs} arcs in {scc_s:.4f} s of is_strongly_connected",
        "generator.buffer_bytes": "computed from array sizes",
        "bitops.bytes_moved": "computed from array sizes",
        "trace.wall_s": f"median traced pass; unscaled {median(pass_walls(execs)):.6g}",
        "trace.untraced_wall_s": f"median untraced pass; unscaled {median(pass_walls(untraced)):.6g}",
        "trace.overhead_s": "trace.wall_s minus trace.untraced_wall_s",
        "trace.coverage": f"top-level spans over {passes} traced passes of {wall:.4f} s (median)",
    }
    for layer in LAYERS:
        bases[f"{layer}.share"] = f"self time over {work:.4f} s of traced work per pass"
    bases["_per"] = f"times and counts per pass, over {passes} traced passes"
    return m, bases


def provenance() -> dict:
    import numpy
    import scipy

    numba = importlib.util.find_spec("numba") is not None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": numba,
        # the package takes its compiled bulk path exactly when numba imports
        # and both sources are plain xorshift
        "generator_path": "bulk" if numba else "pure",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--corrupt", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--started", type=float, required=True, help="time.monotonic() at spawn")
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="write the traced run's spans here (gzip JSON lines)")
    args = parser.parse_args()

    clock = Clock()
    # the parent's time.monotonic() at spawn, as a time of `clock`, which
    # has left out only the probe's construction so far
    started = args.started + time.perf_counter() - time.monotonic()
    clock.probe()
    sys.path.insert(0, str(ROOT / "src"))
    import ciprng

    if not Path(ciprng.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ciprng imported from {ciprng.__file__}, not from this checkout")
    import workloads

    clock.tick()
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=Path(args.result).parent))
    try:
        wl = workloads.build(args.workload, args.seed, args.scale, tmp, clock)
        end = clock.now()
        clock.probe()
        f = clock.scaled()
        result = {"setup_s": float(f(end) - f(started)), "setup_unscaled_s": end - started}
        if not args.setup_only:
            clock.use(workloads.PROBE[args.workload])
            clock.probe()
            result.update(measure(wl, args, clock))
        result["provenance"] = provenance()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    Path(args.result).write_text(json.dumps(result), encoding="ascii")
    return 0


def measure(wl, args, clock) -> dict:
    untraced_seconds = args.seconds / 2 if args.trace else args.seconds
    execs, passes = run_passes(wl.ops, None, clock, untraced_seconds, 0 if args.trace else MIN_OPS,
                               args.corrupt, 0)
    traced, tracer = [], None
    if args.trace:
        tracer = Tracer(clock.now)
        traced, _ = run_passes(wl.ops, tracer, clock, args.seconds / 2, 0, False, len(execs))
    # before the checks, whose references take memory of their own
    out = {"peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    outcome = check_all(execs + traced, wl.checks)
    out.update((k, outcome[k]) for k in ("attempted", "failed", "messages"))
    if args.trace:
        metrics, bases = per_layer(tracer, traced, execs, clock, outcome["failed_by_layer"])
        if args.spans:
            tracer.write(args.spans)
    else:
        metrics, bases = end_to_end(wl.name, execs, passes, clock)
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out["bases"] = bases
    return out


if __name__ == "__main__":
    sys.exit(main())
