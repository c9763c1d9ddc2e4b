from collections import Counter
import itertools
import os
from pathlib import Path
import random
import subprocess
import sys

import numpy as np
import pytest

import ciprng
from ciprng import func, graph
from ciprng.errors import ResourceLimitError

from oracles import bfs_reachable, bfs_sccs
from reference_data import KNOWN_CHAOTIC_VARIANTS


def adjacency_of(g):
    return [g.out_arcs(x) for x in range(g.n_vertices)]


class TestBuildGraph:
    def test_negation2_arcs_from_zero(self):
        g = graph.build_graph(func.negation(2))
        assert g.target(0, 1) == 2
        assert g.target(0, 2) == 1

    def test_negation4_arc_label1(self):
        g = graph.build_graph(func.negation(4))
        assert g.target(0, 1) == 8

    def test_identity_self_loops(self):
        g = graph.build_graph(func.identity(3))
        for x in range(8):
            assert g.out_arcs(x) == (x, x, x)

    def test_arc_count(self):
        g = graph.build_graph(func.negation(5))
        assert sum(len(g.out_arcs(x)) for x in range(g.n_vertices)) == 5 * 32

    def test_arcs_match_mapping_matrix(self):
        f = func.VectorOfImages(4, KNOWN_CHAOTIC_VARIANTS[3])
        g = graph.build_graph(f)
        m = func.mapping_matrix(f)
        for x in range(16):
            for label in range(1, 5):
                assert g.target(x, label) == m[label - 1, x]
        assert np.array_equal(g.matrix, m)
        assert not g.matrix.flags.writeable

    def test_size_limit(self):
        # graphs share the table limit: N=13 builds, N=17 is refused
        assert graph.build_graph(func.negation(13)).n_vertices == 1 << 13
        with pytest.raises(ResourceLimitError):
            list(func.search_functions(func.MAX_TABLE_BITS + 1, 1))


class TestStrongConnectivity:
    @pytest.mark.parametrize("n_bits", range(2, 9))
    def test_negation_strongly_connected(self, n_bits):
        verdict = graph.is_strongly_connected(graph.build_graph(func.negation(n_bits)))
        assert verdict.strongly_connected
        assert verdict.scc_count == 1
        assert verdict.witness is None

    def test_identity_not_connected(self):
        verdict = graph.is_strongly_connected(graph.build_graph(func.identity(3)))
        assert not verdict.strongly_connected
        assert verdict.scc_count == 8

    def test_witness_has_no_path(self):
        g = graph.build_graph(func.identity(2))
        verdict = graph.is_strongly_connected(g)
        u, v = verdict.witness
        assert not bfs_reachable(adjacency_of(g), u)[v]

    @pytest.mark.parametrize("images", KNOWN_CHAOTIC_VARIANTS)
    def test_known_variants_connected(self, images):
        f = func.VectorOfImages(4, images)
        assert graph.is_strongly_connected(graph.build_graph(f)).strongly_connected

    @pytest.mark.parametrize("n_bits", [2, 3, 4, 5, 6])
    def test_matches_bfs_oracle_on_random_functions(self, n_bits):
        rnd = random.Random(900 + n_bits)
        size = 1 << n_bits
        for _ in range(60):
            f = func.VectorOfImages(n_bits, tuple(rnd.randrange(size) for _ in range(size)))
            g = graph.build_graph(f)
            mine = {frozenset(c) for c in graph.strongly_connected_components(g)}
            oracle = set(bfs_sccs(adjacency_of(g)))
            assert mine == oracle
            verdict = graph.is_strongly_connected(g)
            assert verdict.strongly_connected == (len(oracle) == 1)
            assert verdict.scc_count == len(oracle)
            if not verdict.strongly_connected:
                u, v = verdict.witness
                assert not bfs_reachable(adjacency_of(g), u)[v]

    def test_relabel_invariance_for_negation(self):
        # XOR-relabeling vertices of the negation's graph permutes arcs onto
        # themselves, so connectivity verdicts agree for every constant
        for n_bits in (2, 3, 4):
            g = graph.build_graph(func.negation(n_bits))
            base = graph.is_strongly_connected(g).strongly_connected
            arcs = {(x, lab, g.target(x, lab)) for x in range(g.n_vertices) for lab in range(1, n_bits + 1)}
            for c in range(g.n_vertices):
                relabeled = {(x ^ c, lab, t ^ c) for x, lab, t in arcs}
                assert relabeled == arcs
            assert base


def assert_verdict_matches_oracle(g):
    adjacency = adjacency_of(g)
    oracle = bfs_sccs(adjacency)
    verdict = graph.is_strongly_connected(g)
    assert verdict.strongly_connected == (len(oracle) == 1)
    assert verdict.scc_count == len(oracle)
    if verdict.strongly_connected:
        assert verdict.witness is None
    else:
        u, v = verdict.witness
        assert not bfs_reachable(adjacency, u)[v]
    return verdict


def has_complete_direction(f):
    """True when the matching that f's paired edits make with the negation
    takes all 2^(N-1) edges of one direction of the N-cube.

    A vertex q matched along the edge of weight w has f(q) XOR q = mask XOR w,
    an unmatched one mask; a direction is complete when all 2^N vertices are
    matched along it.
    """
    mask = (1 << f.n_bits) - 1
    weights = Counter(y ^ q ^ mask for q, y in enumerate(f.images))
    return any(weights[1 << b] == 1 << f.n_bits for b in range(f.n_bits))


def gray_path(n_bits, cut=False):
    """The balanced function whose iteration graph, loops aside, is the
    Gray-code Hamiltonian path 0 = g_0 - g_1 - ... - g_(2^N - 1) of the
    N-cube, with g_j = j XOR (j >> 1); with `cut`, less its middle edge.

    Every arc of the path runs both ways, so each row of the mapping
    matrix is a permutation, and a sweep from vertex 0 meets one new
    vertex per level: 2^N - 1 levels.
    """
    size = 1 << n_bits
    order = [j ^ (j >> 1) for j in range(size)]
    flips = [0] * size
    for j in range(size - 1):
        if cut and j == size // 2 - 1:
            continue
        a, b = order[j], order[j + 1]
        flips[a] ^= a ^ b
        flips[b] ^= a ^ b
    return func.VectorOfImages(n_bits, tuple(q ^ flips[q] for q in range(size))), order


def apply_matching(n_bits, edges):
    """The negation with its images swapped across each edge of a matching."""
    images = list(func.negation(n_bits).images)
    for q, partner in edges:
        images[q], images[partner] = images[partner], images[q]
    return func.VectorOfImages(n_bits, tuple(images))


class TestReachabilityShortcut:
    """`is_strongly_connected` answers balanced graphs with one sweep from
    vertex 0 and leaves every other case to `strongly_connected_components`;
    the verdicts must be those of the BFS oracle either way."""

    def test_all_width2_functions(self):
        for images in itertools.product(range(4), repeat=4):
            assert_verdict_matches_oracle(graph.build_graph(func.VectorOfImages(2, images)))

    def test_all_width3_matchings(self):
        found = list(func.search_functions(3, 12))
        assert len(found) == 108
        for f in found:
            assert_verdict_matches_oracle(graph.build_graph(f))

    @pytest.mark.parametrize("n_bits", range(2, 7))
    def test_balanced_but_not_chaotic(self, n_bits):
        size = 1 << n_bits
        flip_last = func.VectorOfImages(n_bits, tuple(q ^ 1 for q in range(size)))
        for f in (func.identity(n_bits), flip_last):
            assert func.is_balanced(f).balanced
            assert not assert_verdict_matches_oracle(graph.build_graph(f)).strongly_connected

    def test_sink_reached_from_zero_is_not_chaotic(self):
        # 0 reaches every vertex of the constant function's graph, but 3 is
        # a sink: the sweep alone would call it strongly connected
        g = graph.build_graph(func.VectorOfImages(2, (3, 3, 3, 3)))
        assert all(bfs_reachable(adjacency_of(g), 0))
        verdict = assert_verdict_matches_oracle(g)
        assert not verdict.strongly_connected
        assert verdict.scc_count == len(graph.strongly_connected_components(g))

    @pytest.mark.parametrize("n_bits", [2, 3, 4])
    def test_matching_criterion_on_every_matching(self, n_bits, scipy_calls):
        # the graph of a matching is Q_N minus the matching, plus loops; it is
        # strongly connected exactly when no direction is complete, and
        # search_functions(require_chaos=True) drops exactly those matchings;
        # the sweep settles every chaotic one within its cap (2N levels at
        # most), so scipy sees the dropped ones alone
        depth = 1 << (n_bits - 1)
        chaotic, dropped = [], []
        for f in func.search_functions(n_bits, depth):
            verdict = graph.is_strongly_connected(graph.build_graph(f))
            assert verdict.strongly_connected != has_complete_direction(f)
            (chaotic if verdict.strongly_connected else dropped).append(f)
        assert len(chaotic) == {2: 7 - 2, 3: 108 - 3, 4: 41025 - 4}[n_bits]
        assert len(scipy_calls) == len(dropped)
        assert list(func.search_functions(n_bits, depth, require_chaos=True)) == chaotic
        mask = (1 << n_bits) - 1
        assert {f.images for f in dropped} == {
            tuple(mask ^ q ^ (1 << b) for q in range(1 << n_bits)) for b in range(n_bits)
        }

    @pytest.mark.parametrize("n_bits", range(5, 9))
    def test_matching_criterion_on_random_matchings(self, n_bits):
        rnd = random.Random(700 + n_bits)
        size = 1 << n_bits
        outcomes = Counter()
        for _ in range(60):
            # all of one direction's edges, all but one or two, or a random share
            b = rnd.randrange(n_bits)
            own = [(q, q | 1 << b) for q in range(size) if not q >> b & 1]
            rnd.shuffle(own)
            edges = own[: size // 2 - rnd.choice([0, 0, 1, 2, rnd.randrange(size // 2)])]
            used = {q for edge in edges for q in edge}
            others = [(q, q ^ 1 << c) for q in range(size) for c in range(n_bits) if q < q ^ 1 << c]
            rnd.shuffle(others)
            for q, partner in others:
                if q not in used and partner not in used and rnd.random() < 0.5:
                    edges.append((q, partner))
                    used.update((q, partner))
            f = apply_matching(n_bits, edges)
            complete = has_complete_direction(f)
            verdict = graph.is_strongly_connected(graph.build_graph(f))
            assert verdict.strongly_connected != complete
            outcomes[complete] += 1
        assert outcomes[True] and outcomes[False]

    @pytest.mark.parametrize("n_bits", range(2, 9))
    @pytest.mark.parametrize("cut", [False, True])
    def test_gray_code_path_needs_the_deepest_sweep(self, n_bits, cut):
        f, order = gray_path(n_bits, cut)
        g = graph.build_graph(f)
        path = set(zip(order, order[1:]))
        if cut:
            path.discard((order[len(order) // 2 - 1], order[len(order) // 2]))
        arcs = {(x, t) for x in range(g.n_vertices) for t in g.out_arcs(x) if t != x}
        assert arcs == path | {(b, a) for a, b in path}
        assert func.is_balanced(f).balanced
        verdict = assert_verdict_matches_oracle(g)
        assert verdict.strongly_connected != cut
        assert verdict.scc_count == (2 if cut else 1)

    @pytest.fixture
    def scipy_calls(self, monkeypatch):
        calls = []
        labels = graph._component_labels

        def counting(g):
            calls.append(g)
            return labels(g)

        monkeypatch.setattr(graph, "_component_labels", counting)
        return calls

    def test_chaotic_functions_skip_scipy(self, scipy_calls):
        for n_bits in range(2, 9):
            assert graph.is_strongly_connected(graph.build_graph(func.negation(n_bits)))
        for images in KNOWN_CHAOTIC_VARIANTS:
            assert graph.is_strongly_connected(graph.build_graph(func.VectorOfImages(4, images)))
        assert scipy_calls == []

    @pytest.mark.parametrize("n_bits", range(2, 9))
    def test_deep_sweep_is_left_to_scipy(self, scipy_calls, n_bits):
        # the Gray-code path takes 2^N - 1 levels; past 4N the sweep gives up
        f, _ = gray_path(n_bits)
        assert graph.is_strongly_connected(graph.build_graph(f))
        assert (len(scipy_calls) >= 1) == ((1 << n_bits) - 1 > 4 * n_bits)

    def test_identity_runs_scipy(self, scipy_calls):
        assert not graph.is_strongly_connected(graph.build_graph(func.identity(3)))
        assert len(scipy_calls) >= 1


def test_import_leaves_scipy_sparse_unloaded():
    # scipy's strong components import scipy.sparse when first needed, so
    # that `import ciprng` does not pay for it; a chaos search needs no
    # graph, and the sweep settles chaotic balanced graphs without scipy
    src = str(Path(ciprng.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    chaotic = f"(ciprng.negation(4), ciprng.VectorOfImages(4, {KNOWN_CHAOTIC_VARIANTS[5]}))"
    verify = f"assert all(ciprng.is_strongly_connected(ciprng.build_graph(f)) for f in {chaotic}); "
    for work in ["", "list(ciprng.search_functions(2, 4, require_chaos=True)); ", verify]:
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, ciprng; {work}print('scipy.sparse' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )
        assert proc.stdout == "False\n", work


class TestExportDot:
    def test_negation2_golden(self):
        dot = graph.export_dot(graph.build_graph(func.negation(2)))
        assert dot == (
            "digraph iteration_graph {\n"
            '  "00";\n  "01";\n  "10";\n  "11";\n'
            '  "00" -> "10" [label=1];\n'
            '  "00" -> "01" [label=2];\n'
            '  "01" -> "11" [label=1];\n'
            '  "01" -> "00" [label=2];\n'
            '  "10" -> "00" [label=1];\n'
            '  "10" -> "11" [label=2];\n'
            '  "11" -> "01" [label=1];\n'
            '  "11" -> "10" [label=2];\n'
            "}\n"
        )

    def test_vertex_and_arc_counts(self):
        dot = graph.export_dot(graph.build_graph(func.negation(2)))
        lines = dot.splitlines()
        assert sum(1 for ln in lines if '";' in ln) == 4
        assert sum(1 for ln in lines if "->" in ln) == 8

    def test_identity_arcs_are_self_loops(self):
        dot = graph.export_dot(graph.build_graph(func.identity(2)))
        for line in dot.splitlines():
            if "->" in line:
                head, _, rest = line.partition("->")
                assert head.strip() == rest.split("[")[0].strip()

    def test_deterministic(self):
        g = graph.build_graph(func.negation(3))
        assert graph.export_dot(g) == graph.export_dot(g)
