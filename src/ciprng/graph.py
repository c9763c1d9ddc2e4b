"""Iteration graphs and the strong-connectivity chaos criterion.

The iteration graph of f has the 2^N states as vertices and, for each
state x and coordinate label i in [1, N], one arc from x to the state
obtained by replacing coordinate i of x with coordinate i of f(x).  The
generator built on f behaves chaotically exactly when this graph is
strongly connected.  When every row of the mapping matrix is a
permutation (f balanced), one reachability sweep from vertex 0 decides
it; any other graph, and any graph the sweep finds disconnected, goes to
scipy's strong-components routine, which alone gives the component count
and a witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ResourceLimitError
from .func import MAX_GRAPH_BITS, MappingMatrix, VectorOfImages, mapping_matrix


@dataclass(frozen=True)
class IterationGraph:
    """Directed graph on [0, 2^N - 1] with N labeled arcs per vertex.

    Stored implicitly through the mapping matrix: the arc leaving x with
    label i targets cell (i, x), so no separate adjacency structure is
    allocated.
    """

    n_bits: int
    matrix: MappingMatrix

    @property
    def n_vertices(self) -> int:
        return 1 << self.n_bits

    def target(self, x: int, label: int) -> int:
        """Head of the arc leaving vertex x with label in [1, N]."""
        return self.matrix.cell(label, x)

    def out_arcs(self, x: int) -> tuple[int, ...]:
        """Arc targets from x for labels 1..N, in label order."""
        return tuple(row[x] for row in self.matrix.cells)


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
    """Materialize the iteration graph of f (refuses n_bits > MAX_GRAPH_BITS)."""
    if f.n_bits > MAX_GRAPH_BITS:
        raise ResourceLimitError(
            f"n_bits={f.n_bits} exceeds the exhaustive-graph limit of {MAX_GRAPH_BITS}"
        )
    return IterationGraph(f.n_bits, mapping_matrix(f))


def strongly_connected_components(g: IterationGraph) -> list[list[int]]:
    """The strongly connected components of g, found by scipy's
    strong-components routine (Pearce's algorithm, in C).

    Components come in ascending order of their smallest vertex, and the
    vertices of each in ascending order.
    """
    # imported here, not at module level: scipy.sparse adds about 0.12 s and
    # 11 MiB to every `import ciprng`, and only graphs the sweep cannot
    # settle need it
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import connected_components

    n = g.n_vertices
    heads = np.array(g.matrix.cells).ravel()
    tails = np.tile(np.arange(n), g.n_bits)
    arcs = csr_array((np.ones(heads.size, dtype=np.int8), (tails, heads)), shape=(n, n))
    _, labels = connected_components(arcs, directed=True, connection="strong")
    comps: dict[int, list[int]] = {}
    for x, label in enumerate(labels.tolist()):
        comps.setdefault(label, []).append(x)
    return list(comps.values())


def _permutations_reach_all(g: IterationGraph) -> bool:
    """True when every row of the mapping matrix is a permutation and one
    forward sweep from vertex 0 reaches every vertex."""
    n = g.n_vertices
    rows = g.matrix.cells
    for row in rows:
        if len(set(row)) != n:
            return False
    seen = bytearray(n)
    seen[0] = 1
    stack = [0]
    reached = 1
    while stack:
        v = stack.pop()
        for row in rows:
            w = row[v]
            if not seen[w]:
                seen[w] = 1
                reached += 1
                stack.append(w)
    return reached == n


def is_strongly_connected(g: IterationGraph) -> ChaosVerdict:
    """Decide the chaos criterion: one component covering all vertices.

    When every label i is a permutation sigma_i of the vertices, each arc
    x -> sigma_i(x) lies on a cycle of sigma_i, so the head reaches the
    tail back: the graph is a union of cycles, in which v reaches u
    whenever u reaches v.  There "vertex 0 reaches every vertex" is the
    same as strong connectivity, and one forward sweep settles it.
    `strongly_connected_components` runs only when a row is not a
    permutation or the sweep misses a vertex; it gives the component
    count and the witness.

    The witness (u, v): u is the smallest vertex of any sink, a component
    that no arc leaves, and v is the smallest vertex outside u's
    component.  Nothing outside a sink is reachable from it, so there is
    no path from u to v.
    """
    if _permutations_reach_all(g):
        return ChaosVerdict(True, 1)
    comps = strongly_connected_components(g)
    if len(comps) == 1:
        return ChaosVerdict(True, 1)
    component_of = [0] * g.n_vertices
    for i, comp in enumerate(comps):
        for x in comp:
            component_of[x] = i
    label = np.array(component_of)
    # column x of the head labels holds the components x's arcs enter
    leaves = (label[np.array(g.matrix.cells)] != label).any(axis=0)
    is_sink = np.ones(len(comps), dtype=bool)
    is_sink[label[leaves]] = False
    u = int(np.flatnonzero(is_sink[label])[0])
    v = int(np.flatnonzero(label != label[u])[0])
    return ChaosVerdict(False, len(comps), (u, v))


def export_dot(g: IterationGraph) -> str:
    """Graph in DOT format; vertices as fixed-width bit strings, arcs labeled.

    Output is deterministic: vertices ascending, then arcs by (vertex,
    label) ascending.
    """
    n = g.n_bits
    lines = ["digraph iteration_graph {"]
    for x in range(g.n_vertices):
        lines.append(f'  "{x:0{n}b}";')
    for x in range(g.n_vertices):
        for label in range(1, n + 1):
            lines.append(f'  "{x:0{n}b}" -> "{g.target(x, label):0{n}b}" [label={label}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
