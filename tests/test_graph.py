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

from oracles import bfs_reachable, bfs_sccs, dot_lines
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
            assert_verdict_matches_oracle(graph.build_graph(f))

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
    """The verdict, the components, each vertex's label and the witness are
    the BFS oracle's: a label is the smallest vertex of its component, u the
    smallest vertex of any sink component and v the smallest outside it."""
    adjacency = adjacency_of(g)
    oracle = bfs_sccs(adjacency)
    assert graph.strongly_connected_components(g) == [sorted(c) for c in oracle]
    smallest = {x: min(c) for c in oracle for x in c}
    assert graph._component_labels(g)[1].tolist() == [smallest[x] for x in range(g.n_vertices)]
    verdict = graph.is_strongly_connected(g)
    assert verdict.strongly_connected == (len(oracle) == 1)
    assert verdict.scc_count == len(oracle)
    if verdict.strongly_connected:
        assert verdict.witness is None
    else:
        sinks = [c for c in oracle if all(w in c for x in c for w in adjacency[x])]
        u = min(min(c) for c in sinks)
        sink = next(c for c in sinks if u in c)
        assert verdict.witness == (u, min(x for x in range(len(adjacency)) if x not in sink))
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
    vertex per level: 2^N - 1 levels.  It also takes the union-find the
    most rounds.
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


def gray_cycle_removal(n_bits):
    """The negation less the arcs of the reflected Gray cycle: at g_j it
    keeps the bit that the step to g_(j+1) flips and complements the others.

    Every vertex trades its arc to its successor on the cycle for a loop
    and loses the arc in from its predecessor, so every in-degree stays N,
    but the function is not balanced.
    """
    size = 1 << n_bits
    order = [j ^ (j >> 1) for j in range(size)]
    images = [0] * size
    for j, q in enumerate(order):
        flip = q ^ order[(j + 1) % size]  # the bit the step from q flips
        images[q] = q ^ (size - 1) ^ flip
    return func.VectorOfImages(n_bits, tuple(images))


def apply_matching(n_bits, edges):
    """The negation with its images swapped across each edge of a matching."""
    images = list(func.negation(n_bits).images)
    for q, partner in edges:
        images[q], images[partner] = images[partner], images[q]
    return func.VectorOfImages(n_bits, tuple(images))


class TestReachabilityShortcut:
    """`is_strongly_connected` labels a graph whose every in-degree is N by
    union-find and leaves every other graph to Tarjan's algorithm; the
    verdicts must be those of the BFS oracle either way."""

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
    def test_matching_criterion_on_every_matching(self, n_bits, tarjan_calls):
        # the graph of a matching is Q_N minus the matching, plus loops; it is
        # strongly connected exactly when no direction is complete, and
        # search_functions(require_chaos=True) drops exactly those matchings;
        # every matching is balanced, so the union-find settles all of them
        depth = 1 << (n_bits - 1)
        chaotic, dropped = [], []
        for f in func.search_functions(n_bits, depth):
            verdict = graph.is_strongly_connected(graph.build_graph(f))
            assert verdict.strongly_connected != has_complete_direction(f)
            (chaotic if verdict.strongly_connected else dropped).append(f)
        assert len(chaotic) == {2: 7 - 2, 3: 108 - 3, 4: 41025 - 4}[n_bits]
        assert tarjan_calls == []
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

    @pytest.mark.parametrize("n_bits", range(2, 9))
    def test_gray_cycle_removal_is_in_degree_regular_and_chaotic(self, n_bits, tarjan_calls):
        f = gray_cycle_removal(n_bits)
        g = graph.build_graph(f)
        assert not func.is_balanced(f).balanced
        assert (np.bincount(g.matrix.ravel(), minlength=g.n_vertices) == n_bits).all()
        assert assert_verdict_matches_oracle(g).strongly_connected
        assert tarjan_calls == []

    def test_deep_non_regular_graph(self, tarjan_calls):
        # the Gray path at N=16 with a loop for every label at 2^15: that
        # vertex is a sink, entered from its path neighbour; Tarjan's depth-
        # first search runs 2^16 - 1 vertices deep
        f, _ = gray_path(16)
        images = list(f.images)
        images[1 << 15] = 1 << 15
        g = graph.build_graph(func.VectorOfImages(16, tuple(images)))
        verdict = graph.is_strongly_connected(g)
        assert len(tarjan_calls) == 1
        assert (verdict.scc_count, verdict.witness) == (2, (1 << 15, 0))
        assert [len(c) for c in graph.strongly_connected_components(g)] == [(1 << 16) - 1, 1]

    @pytest.fixture
    def tarjan_calls(self, monkeypatch):
        calls = []
        tarjan = graph._tarjan

        def counting(g):
            calls.append(g)
            return tarjan(g)

        monkeypatch.setattr(graph, "_tarjan", counting)
        return calls

    def test_chaotic_functions_skip_tarjan(self, tarjan_calls):
        for n_bits in range(2, 9):
            assert graph.is_strongly_connected(graph.build_graph(func.negation(n_bits)))
        for images in KNOWN_CHAOTIC_VARIANTS:
            assert graph.is_strongly_connected(graph.build_graph(func.VectorOfImages(4, images)))
        assert tarjan_calls == []

    @pytest.mark.parametrize("n_bits", range(2, 9))
    def test_gray_paths_skip_tarjan(self, tarjan_calls, n_bits):
        # a path 2^N - 1 arcs long, but balanced: the union-find answers
        for cut in (False, True):
            f, _ = gray_path(n_bits, cut)
            assert bool(graph.is_strongly_connected(graph.build_graph(f))) != cut
        assert tarjan_calls == []

    def test_identity_skips_tarjan(self, tarjan_calls):
        # N loops at every vertex: in-degree N, 8 singleton components
        assert graph.is_strongly_connected(graph.build_graph(func.identity(3))).scc_count == 8
        assert tarjan_calls == []

    def test_constant_and_random_images_run_tarjan(self, tarjan_calls):
        rnd = random.Random(24)
        fs = [func.VectorOfImages(4, (5,) * 16), func.VectorOfImages(6, tuple(rnd.randrange(64) for _ in range(64)))]
        for f in fs:
            assert not graph.is_strongly_connected(graph.build_graph(f))
        assert len(tarjan_calls) == len(fs)


def test_import_leaves_scipy_sparse_unloaded(tmp_path):
    # the package depends on numpy alone: neither importing it, nor a chaos
    # search, nor verifying a balanced, a deep or a non-regular function,
    # nor the `verify` command loads scipy
    src = str(Path(ciprng.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    gray8 = gray_path(8)[0]
    functions = [(4, KNOWN_CHAOTIC_VARIANTS[5]), (8, tuple(gray8.images)), (3, (7,) * 8)]
    verify = (
        "assert [bool(ciprng.is_strongly_connected(ciprng.build_graph(ciprng.VectorOfImages(*f))))"
        f" for f in {functions}] == [True, True, False]; "
    )
    func.write_function(gray8, tmp_path / "gray8.fn")
    cli = f"from ciprng import cli; assert cli.main(['verify', {str(tmp_path / 'gray8.fn')!r}]) == 0; "
    for work in ["", "list(ciprng.search_functions(2, 4, require_chaos=True)); ", verify, cli]:
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, ciprng; {work}print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )
        assert proc.stdout.splitlines()[-1] == "False", work


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

    @pytest.mark.parametrize("n_bits", range(2, 9))
    def test_matches_line_oracle(self, n_bits):
        rnd = random.Random(n_bits)
        size = 1 << n_bits
        variant = func.mutate_pair(func.negation(n_bits), rnd.randrange(size) + 1, rnd.randint(1, n_bits))
        images = tuple(rnd.randrange(size) for _ in range(size))
        fs = [func.negation(n_bits), variant, func.VectorOfImages(n_bits, images)]
        if n_bits == 4:
            fs += [func.VectorOfImages(4, v) for v in KNOWN_CHAOTIC_VARIANTS]
        for f in fs:
            g = graph.build_graph(f)
            assert graph.export_dot(g) == dot_lines(g)

    def test_matches_line_oracle_at_twelve_bits(self):
        g = graph.build_graph(func.mutate_pair(func.negation(12), 1000, 5))
        assert graph.export_dot(g) == dot_lines(g)
