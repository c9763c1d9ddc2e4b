"""Iteration graphs and the strong-connectivity chaos criterion.

The iteration graph of f has the 2^N states as vertices and, for each
state x and coordinate label i in [1, N], one arc from x to the state
obtained by replacing coordinate i of x with coordinate i of f(x).  That
arc's head is cell (i, x) of f's mapping matrix, so the graph is the
matrix itself: `IterationGraph` holds the (N, 2^N) array that
`func.mapping_matrix` returns and every routine here reads it.  The
generator built on f behaves chaotically exactly when this graph is
strongly connected.  When every row of the mapping matrix is a
permutation (f balanced), one reachability sweep from vertex 0 decides
it; any other graph, and any graph the sweep does not find connected
within 4N levels, goes to scipy's strong-components routine, which
alone gives the component count and a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .func import VectorOfImages, mapping_matrix


@dataclass(frozen=True, eq=False)
class IterationGraph:
    """Directed graph on [0, 2^N - 1] with N labeled arcs per vertex.

    `matrix` is the mapping matrix, an (N, 2^N) integer array made
    read-only here: the arc leaving x with label i targets matrix[i-1, x],
    so no separate adjacency structure is allocated.
    """

    n_bits: int
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix.flags.writeable = False

    @property
    def n_vertices(self) -> int:
        return 1 << self.n_bits

    def target(self, x: int, label: int) -> int:
        """Head of the arc leaving vertex x with label in [1, N]."""
        return int(self.matrix[label - 1, x])

    def out_arcs(self, x: int) -> tuple[int, ...]:
        """Arc targets from x for labels 1..N, in label order."""
        return tuple(self.matrix[:, x].tolist())


@dataclass(frozen=True)
class ChaosVerdict:
    """Strong-connectivity outcome for an iteration graph.

    When not strongly connected, `witness` holds a pair (u, v) of
    vertices with no directed path from u to v.
    """

    strongly_connected: bool
    scc_count: int
    witness: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.strongly_connected


def build_graph(f: VectorOfImages) -> IterationGraph:
    """The iteration graph of f, on a fresh array of its mapping matrix."""
    return IterationGraph(f.n_bits, mapping_matrix(f))


def _component_labels(g: IterationGraph) -> tuple[int, np.ndarray]:
    """The number of strongly connected components of g and each vertex's
    component label, from scipy's strong-components routine (Pearce's
    algorithm, in C)."""
    # imported here, not at module level: scipy.sparse adds about 0.12 s and
    # 11 MiB to every `import ciprng`, and only graphs the sweep cannot
    # settle need it
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    n = g.n_vertices
    heads = g.matrix.ravel()
    tails = np.tile(np.arange(n), g.n_bits)
    arcs = csr_array((np.ones(heads.size, dtype=np.int8), (tails, heads)), shape=(n, n))
    return connected_components(arcs, directed=True, connection="strong")


def strongly_connected_components(g: IterationGraph) -> list[list[int]]:
    """The strongly connected components of g.

    Components come in ascending order of their smallest vertex, and the
    vertices of each in ascending order.
    """
    _, labels = _component_labels(g)
    comps: dict[int, list[int]] = {}
    for x, label in enumerate(labels.tolist()):
        comps.setdefault(label, []).append(x)
    return list(comps.values())


def _permutations_reach_all(g: IterationGraph) -> bool:
    """True when every row of the mapping matrix is a permutation and a
    forward sweep from vertex 0 reaches every vertex within 4N levels.

    Cell (i, q) is q or q XOR w, w = 2^(N-1-i) being row i's digit, so
    row i maps each pair (q, q XOR w) into itself: it is a permutation
    exactly when the two cells of every pair differ, the test
    `func.is_balanced` makes.  The sweep gathers the heads of all arcs
    leaving one level's frontier at once.  A level costs 10-15 us of
    numpy calls however small its frontier, so a deep sweep gives up and
    leaves the graph to scipy: the negation and its paired-edit variants
    take N + 1 levels, but the Gray-code Hamiltonian path takes 2^N - 1
    (at N=16, 0.85 s against 39 ms in scipy).
    """
    rows = g.matrix
    for i, row in enumerate(rows):
        pairs = row.reshape(-1, 2, 1 << (g.n_bits - 1 - i))  # [b, 0, r] and [b, 1, r]: q and q XOR w
        if (pairs[:, 0] == pairs[:, 1]).any():
            return False
    seen = np.zeros(g.n_vertices, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=rows.dtype)
    for _ in range(4 * g.n_bits):
        heads = rows[:, frontier]
        frontier = np.unique(heads[~seen[heads]])
        if not frontier.size:
            break
        seen[frontier] = True
    return bool(seen.all())


def is_strongly_connected(g: IterationGraph) -> ChaosVerdict:
    """Decide the chaos criterion: one component covering all vertices.

    When every label i is a permutation sigma_i of the vertices, each arc
    x -> sigma_i(x) lies on a cycle of sigma_i, so the head reaches the
    tail back: the graph is a union of cycles, in which v reaches u
    whenever u reaches v.  There "vertex 0 reaches every vertex" is the
    same as strong connectivity, and one forward sweep settles it.
    scipy's strong components are computed only when a row is not a
    permutation or the sweep, capped at 4N levels, misses a vertex; they
    give the component count and the witness.

    The witness (u, v): u is the smallest vertex of any sink, a component
    that no arc leaves, and v is the smallest vertex outside u's
    component.  Nothing outside a sink is reachable from it, so there is
    no path from u to v.
    """
    # scipy alone would decide too, but on negation(12) its first call in a
    # process takes 0.39 s and 33 MiB more peak RSS (loading scipy.sparse),
    # the sweep 18 ms and 1.4 MiB (2-core Xeon)
    if _permutations_reach_all(g):
        return ChaosVerdict(True, 1)
    count, label = _component_labels(g)
    if count == 1:
        return ChaosVerdict(True, 1)
    # column x of the head labels holds the components x's arcs enter
    leaves = (label[g.matrix] != label).any(axis=0)
    is_sink = np.ones(count, dtype=bool)
    is_sink[label[leaves]] = False
    u = int(np.flatnonzero(is_sink[label])[0])
    v = int(np.flatnonzero(label != label[u])[0])
    return ChaosVerdict(False, count, (u, v))


def export_dot(g: IterationGraph) -> str:
    """Graph in DOT format; vertices as fixed-width bit strings, arcs labeled.

    Output is deterministic: vertices ascending, then arcs by (vertex,
    label) ascending.

    Every vertex's lines have one length, its arc labels being 1..N, so
    the text is built as one byte array: a per-vertex template of the
    vertex lines, then one of the arc lines, each tiled over the
    vertices, with the '0'/'1' digits of every tail and head written
    into their columns.
    """
    n = g.n_bits
    # '0'/'1' codes of every vertex's n digits, most significant first
    names = ((np.arange(g.n_vertices)[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
    names += ord("0")
    blank = "0" * n
    # a tail's column follows '  "', a head's '  "<tail>" -> "'; a column
    # holds the names of the vertices given, or with None of the vertex itself
    arcs, columns = "", []
    for label, heads in enumerate(g.matrix, 1):
        columns += [(len(arcs) + 3, None), (len(arcs) + n + 9, heads)]
        arcs += f'  "{blank}" -> "{blank}" [label={label}];\n'
    vertex = f'  "{blank}";\n'
    sections = [(vertex, [(3, None)]), (arcs, columns)]
    head, tail = b"digraph iteration_graph {\n", b"}\n"
    text = np.empty(len(head) + g.n_vertices * (len(vertex) + len(arcs)) + len(tail), dtype=np.uint8)
    text[: len(head)] = np.frombuffer(head, dtype=np.uint8)
    at = len(head)
    for template, cells in sections:
        block = text[at : at + g.n_vertices * len(template)].reshape(g.n_vertices, -1)
        block[:] = np.frombuffer(template.encode("ascii"), dtype=np.uint8)
        for column, vertices in cells:
            block[:, column : column + n] = names if vertices is None else names[vertices]
        at += block.size
    text[at:] = np.frombuffer(tail, dtype=np.uint8)
    return str(text, "ascii")
