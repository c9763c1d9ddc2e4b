"""The benchmark's four workloads: their inputs, operations and output checks.

Each workload is built from a seed.  The seed picks every xorshift seed,
every function and the order of the operations; the package only ever
sees the inputs made from it.  An operation has a timed `run`, an
untimed `collect` that turns its raw result into a small fingerprint,
and an untimed `check` of that fingerprint against a reference.

Why these four:

* stream  - `gen` at N=4: the sources and the generator do nearly all
  the work; generator changes should move it most.
* wide    - the same layers at N=12 and N=16, where 2^N-wide tables
  outgrow the caches, plus verify, DOT export and balance checks; a
  kernel that wins at N=4 and loses here shows.
* battery - `test` on 10^6-bit streams: the statistics do nearly all
  the timed work; a generator change should move only `setup_s`.
* search  - paired-edit search at N=4, depth 8: tens of thousands of
  16-state functions, dominated by per-candidate overhead.
"""

from __future__ import annotations

import functools
import io
import json
import random
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from ciprng import bitops, cli, func, graph, stats
from ciprng.generator import CiGenerator, GeneratorConfig
from ciprng.sources import Xorshift64

import reference
from clock import Clock
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "nist_sts_golden.json"
SETUP_ROUNDS = 2048  # generator rounds per call while the battery's stream is made

SIZES = {
    "full": {
        "stream_bytes": 2048, "stream_functions": 9,
        "wide_widths": (12, 16), "wide_bytes": 4096, "wide_edits": 16,
        "battery_bits": 1_000_000, "search": (4, 8),
    },
    "tiny": {
        "stream_bytes": 64, "stream_functions": 3,
        "wide_widths": (6, 8), "wide_bytes": 64, "wide_edits": 4,
        "battery_bits": 100_000, "search": (3, 4),
    },
}


@dataclass
class Op:
    key: str
    layer: str  # the layer charged with a failure
    run: Callable[[Optional[Tracer]], Any]
    collect: Callable[[Any, bool], Any]  # (raw result, corrupt it?) -> fingerprint
    check: Callable[[Any], bool]
    kind: str  # gen, test, search, verify, graph, balance
    work: int = 0  # bits generated or tested by one run
    twin: Optional[str] = None  # for a cli operation: the direct one with the same inputs
    yields: bool = False  # the raw result ends with one timestamp per yielded function


@dataclass
class Workload:
    name: str
    ops: list[Op]
    checks: list[tuple[str, Callable[[], bool]]] = field(default_factory=list)


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


def call_cli(tr: Optional[Tracer], argv: list[str], out=None, output: Optional[Path] = None):
    """cli.main with stdout and stderr captured; returns (exit code, stdout sink)."""
    sink = io.StringIO() if out is None else out
    with redirect_stdout(sink), redirect_stderr(io.StringIO()):
        if tr is None:
            code = cli.main(argv)
        else:
            with tr.span("cli.main"):
                code = cli.main(argv)
    if tr is not None:
        written = output.stat().st_size if output is not None else sink.tell()
        tr.counts["cli.bytes_written"] += written
    return code, sink


def _traced_graph(tr: Tracer, f, extra: bool):
    # build_graph is the width check plus an IterationGraph over mapping_matrix;
    # split so that the matrix (func) and the graph object (graph) are timed apart
    with tr.span("func.mapping_matrix", extra):
        m = func.mapping_matrix(f)
    with tr.span("graph.build_graph", extra):
        g = graph.IterationGraph(f.n_bits, m)
    tr.counts["graph.arcs"] += f.n_bits << f.n_bits
    return g


def _traced_scc(tr: Tracer, f, extra: bool):
    g = _traced_graph(tr, f, extra)
    with tr.span("graph.is_strongly_connected", extra):
        return graph.is_strongly_connected(g)


# ---------------------------------------------------------------------------
# gen: one input, two output modes, two routes

@dataclass(frozen=True)
class GenInput:
    label: str
    f: func.VectorOfImages
    fn_args: tuple[str, ...]  # how the cli names the function
    k: int
    x0: int
    seed1: int
    seed2: int
    n_bytes: int

    @property
    def rounds(self) -> int:
        return -(-8 * self.n_bytes // self.f.n_bits)


def gen_input(label, f, fn_args, rng, n_bytes) -> GenInput:
    n = f.n_bits
    return GenInput(label, f, tuple(fn_args), 3 * n + 1, rng.randrange(1 << n),
                    rng.getrandbits(64) | 1, rng.getrandbits(64) | 1, n_bytes)


def gen_ops(inp: GenInput, tmp: Path) -> list[Op]:
    n = inp.f.n_bits
    rounds = inp.rounds
    bits = rounds * n

    run_reference = functools.cache(
        lambda: reference.ci_states(inp.f.images, n, inp.k, inp.x0, inp.seed1, inp.seed2, rounds))

    @functools.cache
    def expected(mode: str):
        states, s1, s2 = run_reference()
        text = reference.state_text(states, n)
        content = reference.pack_text(text[: 8 * inp.n_bytes]) if mode == "bytes" else text
        return reference.digest(content), reference.digest(text + "\n"), (s1, s2)

    def direct(mode):
        def run(tr):
            if tr is None:
                p1, p2 = Xorshift64(inp.seed1), Xorshift64(inp.seed2)
                gen = CiGenerator(GeneratorConfig(inp.f, k=inp.k, seed_state=inp.x0), p1, p2)
                out = gen.byte_stream(inp.n_bytes) if mode == "bytes" else gen.bit_stream(rounds)
                return out, (p1.state, p2.state)
            return _traced_gen(tr, inp, mode)

        def collect(raw, corrupt):
            out, states = raw
            data = out.encode("ascii") if isinstance(out, str) else out
            return reference.digest(_flip(data) if corrupt else data), states

        def check(fp):
            want = expected(mode)
            return fp == (want[0], want[2])

        return Op(f"gen:{inp.label}:{mode}:direct", "generator", run, collect, check, "gen",
                  work=8 * inp.n_bytes if mode == "bytes" else bits)

    def via_cli(mode):
        path = tmp / f"gen-{inp.label}-{mode}.out"
        count = ["--bytes", str(inp.n_bytes)] if mode == "bytes" else ["--rounds", str(rounds)]
        argv = ["gen", *inp.fn_args, "--k", str(inp.k), "--seed-state", str(inp.x0),
                "--prng1-seed", hex(inp.seed1), "--prng2-seed", hex(inp.seed2), *count,
                "--output", str(path)]

        def run(tr):
            return call_cli(tr, argv, output=path)[0]

        def collect(code, corrupt):
            data = path.read_bytes()
            return code, reference.digest(_flip(data) if corrupt else data)

        def check(fp):
            want = expected(mode)
            return fp == (0, want[0] if mode == "bytes" else want[1])

        return Op(f"gen:{inp.label}:{mode}:cli", "cli", run, collect, check, "gen",
                  work=8 * inp.n_bytes if mode == "bytes" else bits,
                  twin=f"gen:{inp.label}:{mode}:direct")

    return [make(mode) for mode in ("bytes", "rounds") for make in (direct, via_cli)]


def _traced_gen(tr: Tracer, inp: GenInput, mode: str):
    """byte_stream / bit_stream split into states, state_bits and the packing step.

    The draws inside states() are not timed one by one, which would slow
    them several-fold.  Instead the same draws are replayed afterwards on
    fresh sources (an extra span) and that time is recorded as the
    `sources.draw` part of `generator.states`.  The replay also counts
    the words exactly, and must end in the generator's source states.
    """
    n = inp.f.n_bits
    rounds = inp.rounds
    p1, p2 = Xorshift64(inp.seed1), Xorshift64(inp.seed2)
    with tr.span("generator.init"):
        gen = CiGenerator(GeneratorConfig(inp.f, k=inp.k, seed_state=inp.x0), p1, p2)
    with tr.span("generator.states") as states_span:
        states = gen.states(rounds)
    r1, r2 = Xorshift64(inp.seed1), Xorshift64(inp.seed2)
    with tr.span("sources.replay", extra=True):
        t0 = tr.now()
        updates = rounds * inp.k + sum(r1.next_bit() for _ in range(rounds))
        for _ in range(updates):
            r2.next_coordinate(n)
        tr.child_total(states_span, "sources.draw", tr.now() - t0)
    if (r1.state, r2.state) != (p1.state, p2.state):
        raise RuntimeError("replayed draws do not end in the generator's source states")
    with tr.span("bitops.state_bits"):
        bits = bitops.state_bits(states, n)
    if mode == "bytes":
        head = bits[: 8 * inp.n_bytes]
        with tr.span("bitops.pack_bits"):
            out = bitops.pack_bits(head)
        moved = head.size + len(out)
    else:
        with tr.span("bitops.bits_to_str"):
            out = bitops.bits_to_str(bits)
        moved = bits.size + len(out)
    c = tr.counts
    c["sources.words"] += rounds + updates
    c["generator.rounds"] += rounds
    c["generator.updates"] += updates
    c["generator.buffer_bytes"] += states.nbytes + bits.nbytes + len(out)
    c["bitops.bits"] += bits.size
    c["bitops.bytes_moved"] += states.nbytes + bits.nbytes + moved
    return out, (p1.state, p2.state)


def _function_file(f, tmp: Path, label: str) -> tuple[Path, list[str]]:
    """Write f for the cli; returns the file and how `gen` and `graph` name f."""
    path = tmp / f"fn-{label}.txt"
    func.write_function(f, path)
    if f == func.negation(f.n_bits):
        return path, ["--n-bits", str(f.n_bits)]
    return path, ["--function", str(path)]


def build_stream(rng: random.Random, size: dict, tmp: Path, clock: Clock) -> Workload:
    fns = [func.negation(4)] + [func.VectorOfImages(4, v) for v in reference.PUBLISHED_VARIANTS]
    ops = []
    for idx, f in enumerate(fns[: size["stream_functions"]]):
        label = f"n4f{idx}"
        ops += gen_ops(gen_input(label, f, _function_file(f, tmp, label)[1], rng, size["stream_bytes"]), tmp)
    checks = [(f"verify:published{i}", _published_verdict(tmp, i)) for i in range(len(reference.PUBLISHED_VARIANTS))]
    return Workload("stream", ops, checks)


def _published_verdict(tmp: Path, i: int) -> Callable[[], bool]:
    def check() -> bool:
        path = tmp / f"published-{i}.txt"
        func.write_function(func.VectorOfImages(4, reference.PUBLISHED_VARIANTS[i]), path)
        code, out = call_cli(None, ["verify", str(path), "--porcelain"])
        return code == 0 and out.getvalue() == "balanced\tyes\nbalance-rule\taccept\nchaotic\tyes\nscc-count\t1\n"
    return check


# ---------------------------------------------------------------------------
# wide

def paired_edit_variant(n_bits: int, edits: int, rng: random.Random):
    """The negation after `edits` seeded paired edits on disjoint pairs."""
    f = func.negation(n_bits)
    used = set()
    while len(used) < 2 * edits:
        q = rng.randrange(1 << n_bits)
        i = rng.randrange(1, n_bits + 1)
        partner = q ^ (1 << (i - 1))
        if q in used or partner in used:
            continue
        used.update((q, partner))
        f = func.mutate_pair(f, q + 1, i)
    return f


def verify_ops(f, label: str, path: Path) -> list[Op]:
    n = f.n_bits

    @functools.cache
    def expected():
        # every function here is the negation after paired edits, which the rule accepts
        return reference.is_balanced(f.images, n), True, reference.is_chaotic(f.images, n)

    def run(tr):
        if tr is None:
            rule = func.balance_rule_check(f).balanced
            oracle = func.is_balanced(f).balanced
            return oracle, rule, graph.is_strongly_connected(graph.build_graph(f)).strongly_connected
        with tr.span("func.balance_rule_check"):
            rule = func.balance_rule_check(f).balanced
        with tr.span("func.is_balanced"):
            oracle = func.is_balanced(f).balanced
        return oracle, rule, _traced_scc(tr, f, False).strongly_connected

    def collect(raw, corrupt):
        return (not raw[0],) + raw[1:] if corrupt else raw

    argv = ["verify", str(path), "--porcelain"]

    def run_cli(tr):
        code, out = call_cli(tr, argv)
        return code, out.getvalue()

    def collect_cli(raw, corrupt):
        code, text = raw
        lines = text.splitlines()[:3]
        return code, tuple(lines) if not corrupt else tuple(lines[1:])

    def check_cli(fp):
        balanced, rule, chaotic = expected()
        want = (f"balanced\t{'yes' if balanced else 'no'}", f"balance-rule\t{'accept' if rule else 'reject'}",
                f"chaotic\t{'yes' if chaotic else 'no'}")
        return fp == (0 if balanced and chaotic else 1, want)

    return [
        Op(f"verify:{label}:direct", "graph", run, collect, lambda fp: fp == expected(), "verify"),
        Op(f"verify:{label}:cli", "cli", run_cli, collect_cli, check_cli, "verify", twin=f"verify:{label}:direct"),
    ]


def graph_ops(f, label: str, fn_args: list[str], tmp: Path) -> list[Op]:
    want = functools.cache(lambda: reference.digest(reference.dot_text(f.images, f.n_bits)))

    def run(tr):
        if tr is None:
            return graph.export_dot(graph.build_graph(f))
        g = _traced_graph(tr, f, False)
        with tr.span("graph.export_dot"):
            return graph.export_dot(g)

    def collect(dot, corrupt):
        data = dot.encode("ascii")
        return reference.digest(_flip(data) if corrupt else data)

    path = tmp / f"graph-{label}.dot"
    argv = ["graph", *fn_args, "--output", str(path)]

    def collect_cli(code, corrupt):
        return code, collect(path.read_text(encoding="ascii"), corrupt)

    return [
        Op(f"graph:{label}:direct", "graph", run, collect, lambda fp: fp == want(), "graph"),
        Op(f"graph:{label}:cli", "cli", lambda tr: call_cli(tr, argv, output=path)[0], collect_cli,
           lambda fp: fp == (0, want()), "graph", twin=f"graph:{label}:direct"),
    ]


def balance_ops(f, label: str) -> list[Op]:
    balanced = functools.cache(lambda: reference.is_balanced(f.images, f.n_bits))

    def one(name, call):
        def run(tr):
            if tr is None:
                return call(f).balanced
            with tr.span(f"func.{name}"):
                return call(f).balanced

        # the rule accepts every paired-edit variant of the negation
        return Op(f"{name}:{label}", "func", run, lambda raw, corrupt: (not raw) if corrupt else raw,
                  lambda fp: fp == (balanced() if name == "is_balanced" else True), "balance")

    return [one("is_balanced", func.is_balanced), one("balance_rule_check", func.balance_rule_check)]


def build_wide(rng: random.Random, size: dict, tmp: Path, clock: Clock) -> Workload:
    small, large = size["wide_widths"]
    ops = []
    for n in (small, large):
        fns = [func.negation(n), paired_edit_variant(n, size["wide_edits"], rng)]
        for v, f in enumerate(fns):
            label = f"n{n}f{v}"
            path, fn_args = _function_file(f, tmp, label)
            ops += gen_ops(gen_input(label, f, fn_args, rng, size["wide_bytes"]), tmp)
            if n == small:
                ops += verify_ops(f, label, path) + graph_ops(f, label, fn_args, tmp)
    # balance checks on four functions: `is_balanced` at N=16 is the slowest
    # operation, and with four of them, more than a tenth of a pass,
    # op_p90_s falls among them and not on the edge between two kinds
    fns += [paired_edit_variant(large, size["wide_edits"], rng) for _ in range(2)]
    for v, f in enumerate(fns):
        ops += balance_ops(f, f"n{large}f{v}")
    return Workload("wide", ops)


# ---------------------------------------------------------------------------
# battery

def _flat(report) -> dict[str, float]:
    out = {}
    for r in report.results:
        for sub in r.sub_results:
            out[f"{r.name}/{sub.name}"] = sub.p_value
        if not r.sub_results:
            out[r.name] = r.p_value
    return out


def _traced_battery(tr: Tracer, bits, cfg) -> dict[str, float]:
    """run_battery split into its seven tests."""
    p = {}
    with tr.span("stats.battery"):
        with tr.span("stats.frequency"):
            p["frequency"] = stats.frequency_monobit(bits)
        with tr.span("stats.block-frequency"):
            p["block-frequency"] = stats.block_frequency(bits, block_size=cfg.block_size)
        with tr.span("stats.cumulative-sums"):
            p["cumulative-sums/forward"], p["cumulative-sums/backward"] = stats.cumulative_sums(bits)
        with tr.span("stats.runs"):
            p["runs"] = stats.runs(bits)
        with tr.span("stats.longest-run"):
            p["longest-run"] = stats.longest_run_of_ones(bits)
        with tr.span("stats.serial"):
            p["serial/delta1"], p["serial/delta2"] = stats.serial(bits, block=cfg.serial_block)
        with tr.span("stats.approximate-entropy"):
            p["approximate-entropy"] = stats.approximate_entropy(bits, block=cfg.apen_block)
    tr.counts["stats.bits_tested"] += bits.size
    return p


def battery_ops(label: str, paths: dict, cfg, cli_args: list[str], report: Callable,
                golden: Optional[dict]) -> list[Op]:
    """`test` on one stream: both formats, both routes.

    `report` gives the battery's report on the reference bits; `golden`,
    when given, holds published p-values the direct results must match.
    """
    ops = []
    for fmt, name in (("ascii", "ascii-01"), ("raw", "raw-bytes")):
        path = paths[fmt]

        def run(tr, path=path, name=name):
            if tr is None:
                return _flat(stats.run_battery(stats.read_stream(path, name), cfg))
            with tr.span("stats.read_stream"):
                bits = stats.read_stream(path, name)
            return _traced_battery(tr, bits, cfg)

        def collect(p, corrupt):
            return {k: v + (1e-3 if corrupt and k == "runs" else 0.0) for k, v in p.items()}

        def check(p):
            if p != _flat(report()):
                return False
            return golden is None or all(abs(p[k] - v) <= golden["tolerance"] for k, v in golden["p_values"].items())

        argv = ["test", str(path), "--stream-format", fmt, "--porcelain", *cli_args]

        def run_cli(tr, argv=argv):
            code, out = call_cli(tr, argv)
            return code, out.getvalue()

        def collect_cli(raw, corrupt):
            code, text = raw
            return code, text.replace("PASS", "FAIL", 1) if corrupt else text

        def check_cli(fp):
            rep = report()
            return fp == (0 if rep.all_passed else 1, rep.as_porcelain())

        key = f"test:{label}:{fmt}"
        bits = len(paths["text"])
        ops.append(Op(f"{key}:direct", "stats", run, collect, check, "test", work=bits))
        ops.append(Op(f"{key}:cli", "cli", run_cli, collect_cli, check_cli, "test", work=bits,
                      twin=f"{key}:direct"))
    return ops


def build_battery(rng: random.Random, size: dict, tmp: Path, clock: Clock) -> Workload:
    n_bits = size["battery_bits"]
    golden = json.loads(GOLDEN.read_text())
    golden_cfg = stats.BatteryConfig(**golden["battery_config"])
    default_cfg = stats.BatteryConfig()

    variant = rng.randrange(len(reference.PUBLISHED_VARIANTS))
    inp = gen_input("battery", func.VectorOfImages(4, reference.PUBLISHED_VARIANTS[variant]), (), rng,
                    n_bits // 8)
    p1, p2 = Xorshift64(inp.seed1), Xorshift64(inp.seed2)
    gen = CiGenerator(GeneratorConfig(inp.f, k=inp.k, seed_state=inp.x0), p1, p2)
    parts = []  # in short calls, so that the set-up clock can probe between them
    for done in range(0, n_bits // 4, SETUP_ROUNDS):
        parts.append(gen.bit_stream(min(SETUP_ROUNDS, n_bits // 4 - done)))
        clock.tick()
    gen_text = "".join(parts)
    gen_sources = (p1.state, p2.state)
    e_text = reference.e_bits(golden["stream"]["length"])
    clock.tick()

    streams = {}
    for label, text in (("gen", gen_text), ("e", e_text)):
        paths = {"text": text, "ascii": tmp / f"{label}.txt", "raw": tmp / f"{label}.bin"}
        stats.export_stream(text, "ascii-01", paths["ascii"])
        stats.export_stream(text, "raw-bytes", paths["raw"])
        streams[label] = paths

    @functools.cache
    def gen_reference():
        states, s1, s2 = reference.ci_states(inp.f.images, 4, inp.k, inp.x0, inp.seed1, inp.seed2, n_bits // 4)
        return reference.state_text(states, 4), (s1, s2)

    gen_report = functools.cache(lambda: stats.run_battery(gen_reference()[0], default_cfg))
    e_report = functools.cache(lambda: stats.run_battery(e_text, golden_cfg))
    ops = battery_ops("gen", streams["gen"], default_cfg, [], gen_report, None)
    ops += battery_ops("e", streams["e"], golden_cfg,
                       ["--block-size", str(golden_cfg.block_size), "--serial-block", str(golden_cfg.serial_block),
                        "--apen-block", str(golden_cfg.apen_block)], e_report, golden)
    checks = [
        ("stream:generator", lambda: (gen_text, gen_sources) == gen_reference()),
        ("stream:e", lambda: reference.digest(e_text) == golden["stream"]["sha256_ascii"]),
    ]
    return Workload("battery", ops, checks)


# ---------------------------------------------------------------------------
# search

@contextmanager
def _counting_calls(tr: Tracer, module, name: str, key: str):
    """Count in tr.counts[key] the calls made to module.name while the block runs.

    search_functions calls func.is_balanced once on each distinct
    candidate, so this counts the candidates it enumerates.
    """
    original = getattr(module, name)

    def counted(*args, **kwargs):
        tr.counts[key] += 1
        return original(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield
    finally:
        setattr(module, name, original)


class StampWriter:
    """A text sink that notes the time of every write: one per function found."""

    def __init__(self, fh, clock: Clock):
        self.fh = fh
        self.clock = clock
        self.stamps: list[float] = []

    def write(self, s: str) -> int:
        self.fh.write(s)
        self.clock.tick()
        self.stamps.append(self.clock.now())
        return len(s)

    def flush(self) -> None:
        self.fh.flush()

    def tell(self) -> int:
        return self.fh.tell()


def search_ops(n_bits: int, depth: int, chaos: bool, tmp: Path, clock: Clock) -> list[Op]:
    counts = reference.SEARCH_COUNTS[(n_bits, depth)]

    @functools.cache
    def expected():
        space = reference.search_space(n_bits, depth)
        if chaos:
            space = [f for f in space if reference.is_chaotic(f, n_bits)]
        return reference.digest(repr(sorted(space)))

    def fingerprint(found, corrupt):
        if corrupt:
            found = found[:-1]
        edits = [reference.edit_count(f, n_bits) for f in found]
        per_size = tuple(edits.count(d) for d in range(depth + 1))
        ordered = all(a <= b for a, b in zip(edits, edits[1:]))
        return per_size, len(found), ordered, reference.digest(repr(sorted(found)))

    def check(fp):
        per_size, total, ordered, space = fp
        if not ordered or space != expected():
            return False
        if chaos:
            return reference.SEARCH_CHAOTIC.get((n_bits, depth), total) == total
        return per_size == counts

    def run(tr):
        found, stamps = [], []
        if tr is None:
            for vec in func.search_functions(n_bits, depth, require_chaos=chaos):
                clock.tick()
                stamps.append(clock.now())
                found.append(vec.images)
            return found, stamps
        with tr.span("func.search"), _counting_calls(tr, func, "is_balanced", "func.search.enumerated"):
            for vec in func.search_functions(n_bits, depth, require_chaos=chaos):
                clock.tick()
                stamps.append(clock.now())
                found.append(vec)
        # the per-candidate checks come after the search, so that their span
        # bookkeeping stays out of the search's own time
        with tr.span("func.recheck", True):
            for vec in found:
                with tr.span("func.is_balanced", True):
                    func.is_balanced(vec)
                if chaos:
                    _traced_scc(tr, vec, True)
        tr.counts["func.search.yielded"] += len(found)
        return [vec.images for vec in found], stamps

    path = tmp / f"search-{int(chaos)}.out"
    argv = ["search", "--n-bits", str(n_bits), "--max-mutations", str(depth)] + (["--require-chaos"] if chaos else [])

    def run_cli(tr):
        with open(path, "w", encoding="ascii") as fh:
            sink = StampWriter(fh, clock)
            code = call_cli(tr, argv, out=sink)[0]
        return code, sink.stamps

    def collect_cli(raw, corrupt):
        lines = path.read_text(encoding="ascii").splitlines()
        return raw[0], fingerprint([tuple(map(int, line.split())) for line in lines], corrupt)

    key = f"search:{'chaos' if chaos else 'all'}"
    return [
        Op(f"{key}:direct", "func", run, lambda raw, corrupt: fingerprint(raw[0], corrupt), check, "search",
           yields=True),
        Op(f"{key}:cli", "cli", run_cli, collect_cli, lambda fp: fp[0] == 0 and check(fp[1]), "search",
           twin=f"{key}:direct", yields=True),
    ]


def build_search(rng: random.Random, size: dict, tmp: Path, clock: Clock) -> Workload:
    n_bits, depth = size["search"]
    return Workload("search", search_ops(n_bits, depth, False, tmp, clock) + search_ops(n_bits, depth, True, tmp, clock))


WORKLOADS = {"stream": build_stream, "wide": build_wide, "battery": build_battery, "search": build_search}
# the clock.py probe that tracks the timed work of each workload; set-up uses `objects`
PROBE = {"stream": "objects", "wide": "objects", "battery": "arrays", "search": "objects"}


def build(name: str, seed: int, scale: str, tmp: Path, clock: Clock) -> Workload:
    """Set the workload up: make its inputs and its operations, in seeded order."""
    rng = random.Random(f"{name}:{seed}")
    wl = WORKLOADS[name](rng, SIZES[scale], tmp, clock)
    rng.shuffle(wl.ops)
    return wl
