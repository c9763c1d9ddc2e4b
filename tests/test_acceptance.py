"""Acceptance suite.

One test per acceptance criterion; each prints a PASS line (visible with
`pytest -s`) after its assertions hold, including measured runtimes
where the criterion bounds them.
"""

import hashlib
import itertools
import json
import random
import time
from pathlib import Path

import mpmath
import numpy as np
import pytest

from ciprng import bitops, func, graph, stats
from ciprng.generator import CiGenerator, GeneratorConfig
from ciprng.sources import ScriptedSource, Xorshift64

from oracles import bfs_sccs, expansion_bits, interpret_updates
from reference_data import (
    KNOWN_CHAOTIC_VARIANTS,
    NEGATION4_MAPPING_ROWS,
    TRACE_BINARY_WITH_SEED,
    TRACE_BITS,
    TRACE_COORDS,
    TRACE_IMAGES,
    TRACE_K,
    TRACE_ROUND_OUTPUTS,
    TRACE_SEED_STATE,
)

GOLDEN_PATH = Path(__file__).parent / "data" / "nist_sts_golden.json"
MASK64 = (1 << 64) - 1


def report(line: str) -> None:
    print(f"\n{line}")


def test_01_golden_generator_trace():
    """Scripted worked run reproduces the published round outputs and bits."""
    f = func.VectorOfImages(4, TRACE_IMAGES)

    t0 = time.perf_counter()
    config = GeneratorConfig(f, k=TRACE_K, seed_state=TRACE_SEED_STATE, strict=False)
    gen = CiGenerator(config, ScriptedSource(TRACE_BITS), ScriptedSource(TRACE_COORDS))
    outputs = [gen.round() for _ in range(3)]
    gen2 = CiGenerator(
        GeneratorConfig(f, k=TRACE_K, seed_state=TRACE_SEED_STATE, strict=False),
        ScriptedSource(TRACE_BITS),
        ScriptedSource(TRACE_COORDS),
    )
    binary = gen2.bit_stream(3, include_seed=True)
    elapsed = time.perf_counter() - t0

    assert outputs == list(TRACE_ROUND_OUTPUTS)
    assert binary == TRACE_BINARY_WITH_SEED
    assert elapsed < 1e-3, f"golden trace took {elapsed * 1e3:.3f} ms"
    report(f"ACCEPTANCE 1 golden generator trace: PASS ({elapsed * 1e6:.0f} us)")


def test_02_negation_mapping_table():
    """The 4-bit negation's mapping table matches the published table cell
    for cell."""
    m = func.mapping_matrix(func.negation(4))
    assert m.shape == (4, 16)
    assert m.tolist() == [list(row) for row in NEGATION4_MAPPING_ROWS]
    assert [m[p - 1, 0] for p in (1, 2, 3, 4)] == [8, 4, 2, 1]
    assert [m[p - 1, 15] for p in (1, 2, 3, 4)] == [7, 11, 13, 14]
    assert m[3, :8].tolist() == [1, 0, 3, 2, 5, 4, 7, 6]
    report("ACCEPTANCE 2 negation mapping table: PASS")


def test_03_known_vectors_validate():
    """All eight published vectors are balanced, rule-accepted, and chaotic;
    the negation passes, the identity fails connectivity, a constant fails
    balance."""
    t0 = time.perf_counter()
    for images in KNOWN_CHAOTIC_VARIANTS:
        vec = func.VectorOfImages(4, images)
        assert func.is_balanced(vec).balanced, images
        assert func.balance_rule_check(vec).balanced, images
        assert graph.is_strongly_connected(graph.build_graph(vec)).strongly_connected, images

    neg = func.negation(4)
    assert func.is_balanced(neg).balanced
    assert func.balance_rule_check(neg).balanced
    assert graph.is_strongly_connected(graph.build_graph(neg)).strongly_connected

    ident = func.identity(4)
    assert not graph.is_strongly_connected(graph.build_graph(ident)).strongly_connected

    constant = func.VectorOfImages(4, (0,) * 16)
    assert not func.is_balanced(constant).balanced
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"validation took {elapsed:.2f} s"
    report(f"ACCEPTANCE 3 published vectors validate: PASS ({elapsed * 1e3:.0f} ms)")


def test_04_rule_soundness_exhaustive_width_2():
    """Every rule-accepted 2-bit vector of images is balanced per the
    row-permutation oracle (all 256 candidates)."""
    t0 = time.perf_counter()
    accepted = 0
    for images in itertools.product(range(4), repeat=4):
        vec = func.VectorOfImages(2, images)
        if func.balance_rule_check(vec).balanced:
            accepted += 1
            assert func.is_balanced(vec).balanced, images
    elapsed = time.perf_counter() - t0
    assert accepted == 7
    assert elapsed < 1.0, f"exhaustive check took {elapsed:.2f} s"
    report(
        f"ACCEPTANCE 4 rule soundness (256 vectors, width 2): PASS ({elapsed * 1e3:.0f} ms)"
    )


def test_05_scc_matches_bfs_oracle():
    """Linear-time SCC decomposition agrees with the per-vertex BFS oracle
    on 1000 random functions for each width 2..6."""
    t0 = time.perf_counter()
    rnd = random.Random(193)
    checked = 0
    for n_bits in (2, 3, 4, 5, 6):
        size = 1 << n_bits
        for _ in range(1000):
            images = tuple(rnd.randrange(size) for _ in range(size))
            g = graph.build_graph(func.VectorOfImages(n_bits, images))
            mine = {frozenset(c) for c in graph.strongly_connected_components(g)}
            adjacency = [g.out_arcs(x) for x in range(size)]
            oracle = set(bfs_sccs(adjacency))
            assert mine == oracle, images
            verdict = graph.is_strongly_connected(g)
            assert verdict.strongly_connected == (len(oracle) == 1)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert checked == 5000
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f} s"
    report(f"ACCEPTANCE 5 SCC vs BFS oracle (5000 functions): PASS ({elapsed:.1f} s)")


def test_06_round_matches_interpreter():
    """10,000 random scripted runs of at most 32 updates: the round
    implementation equals the definitional step interpreter."""
    t0 = time.perf_counter()
    rnd = random.Random(608)
    for _ in range(10_000):
        n_bits = rnd.randint(2, 4)
        size = 1 << n_bits
        images = tuple(rnd.randrange(size) for _ in range(size))
        x0 = rnd.randrange(size)
        bit = rnd.randint(0, 1)
        k = rnd.randint(1, 31)
        strategy = [rnd.randint(1, n_bits) for _ in range(bit + k)]
        config = GeneratorConfig(
            func.VectorOfImages(n_bits, images), k=k, seed_state=x0, strict=False
        )
        gen = CiGenerator(config, ScriptedSource([bit]), ScriptedSource(strategy))
        assert gen.round() == interpret_updates(images, n_bits, x0, strategy)[-1]
    elapsed = time.perf_counter() - t0
    report(f"ACCEPTANCE 6 round vs step interpreter (10,000 runs): PASS ({elapsed:.1f} s)")


def test_07_statistical_property_suite():
    """For each published vector, 20 independently seeded 10^6-bit streams
    pass every implemented test on at least 18 of 20 streams; degenerate
    streams fail as specified."""
    t0 = time.perf_counter()
    shortfall = []
    for v, images in enumerate(KNOWN_CHAOTIC_VARIANTS):
        f = func.VectorOfImages(4, images)
        passes = {}
        for s in range(20):
            idx = v * 20 + s
            seed1 = ((idx + 1) * 0x9E3779B97F4A7C15) & MASK64
            seed2 = ((idx + 1) * 0xD1B54A32D192ED03) & MASK64
            gen = CiGenerator(
                GeneratorConfig(f, k=13, seed_state=0), Xorshift64(seed1), Xorshift64(seed2)
            )
            bits = bitops.state_bits(gen.states(250_000), 4)
            assert bits.size == 1_000_000
            for result in stats.run_battery(bits).results:
                passes[result.name] = passes.get(result.name, 0) + result.passed
        for name, count in passes.items():
            if count < 18:
                shortfall.append((v + 1, name, count))
    assert not shortfall, f"stream families below 18/20: {shortfall}"

    # degenerate streams fail decisively
    assert stats.frequency_monobit("0" * 10_000) < 1e-10
    assert stats.frequency_monobit("01" * 5_000) == 1.0
    assert stats.runs("01" * 5_000) < 1e-10

    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"property suite took {elapsed:.0f} s"
    report(
        "ACCEPTANCE 7 statistical property suite (8 functions x 20 streams x 10^6 bits): "
        f"PASS ({elapsed:.0f} s)"
    )


def test_08_battery_matches_official_golden():
    """On the official suite's canonical 10^6-bit reference input (binary
    expansion of e), the implemented p-values match the official published
    reference-tool outputs within 1e-6 per test."""
    golden = json.loads(GOLDEN_PATH.read_text())

    count = golden["stream"]["length"]
    bits = expansion_bits(mpmath.e, count)
    assert bits.startswith(golden["stream"]["prefix"])
    assert hashlib.sha256(bits.encode()).hexdigest() == golden["stream"]["sha256_ascii"]

    cfg = stats.BatteryConfig(
        block_size=golden["battery_config"]["block_size"],
        serial_block=golden["battery_config"]["serial_block"],
        apen_block=golden["battery_config"]["apen_block"],
    )
    battery = stats.run_battery(bits, cfg)
    flat = {}
    for result in battery.results:
        if result.sub_results:
            for sub in result.sub_results:
                flat[f"{result.name}/{sub.name}"] = sub.p_value
        else:
            flat[result.name] = result.p_value

    tolerance = golden["tolerance"]
    for name, expected in golden["p_values"].items():
        assert abs(flat[name] - expected) <= tolerance, (
            f"{name}: computed {flat[name]:.8f} vs official {expected:.6f}"
        )
    report(
        f"ACCEPTANCE 8 battery vs official reference outputs ({len(golden['p_values'])} "
        f"p-values at {tolerance:g}): PASS"
    )
