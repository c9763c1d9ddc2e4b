"""Iteration graphs and the strong-connectivity chaos criterion.

The iteration graph of f has the 2^N states as vertices and, for each
state x and coordinate label i in [1, N], one arc from x to the state
obtained by replacing coordinate i of x with coordinate i of f(x).  That
arc's head is cell (i, x) of f's mapping matrix, so the graph is the
matrix itself: `IterationGraph` holds the (N, 2^N) array that
`func.mapping_matrix` returns and every routine here reads it.  The
generator built on f behaves chaotically exactly when this graph is
strongly connected.  When every vertex has in-degree N, as in every
balanced f's graph, a numpy union-find labels the components; any other
graph goes to an iterative Tarjan's algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
import itertools
from typing import Optional

import numpy as np

from . import bitops
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
    """The number of strong components of g, and each vertex's label, the
    smallest vertex of its component.  When every vertex has in-degree N,
    every arc lies on a cycle, so `_union_find` finds the components."""
    regular = (np.bincount(g.matrix.ravel(), minlength=g.n_vertices) == g.n_bits).all()
    label = _union_find(g) if regular else _tarjan(g)
    return int(np.count_nonzero(label == np.arange(g.n_vertices))), label


def _union_find(g: IterationGraph) -> np.ndarray:
    """Component labels of a graph whose every arc lies on a cycle, by hooking
    and shortcutting roots (Shiloach and Vishkin, 1982): shortcut until every
    vertex points at a root, hook each root to the least root an arc from its
    tree enters, and repeat until nothing hooks.  Roots only fall, so none is
    above its vertex; at the end they never fall along an arc, so they are
    constant around every cycle: each is the smallest vertex of its component."""
    root, hooked = None, np.arange(g.n_vertices, dtype=g.matrix.dtype)
    while not np.array_equal(hooked, root):
        root = hooked
        while not np.array_equal(shortcut := root[root], root):
            root = shortcut
        hooked = root.copy()
        np.minimum.at(hooked, root, np.take(root, g.matrix).min(axis=0))  # a loop hooks nothing
    return root


def _tarjan(g: IterationGraph) -> np.ndarray:
    """Strong-component labels by Tarjan's algorithm (1972) on an explicit
    stack of (vertex, arc iterator) pairs, not recursion.  A vertex's place
    on the component stack is kept, so popping a component costs its size."""
    n, width = g.n_vertices, g.n_bits
    arcs = memoryview(np.ascontiguousarray(g.matrix.T).ravel())  # x's heads, as ints, at [x N, x N + N)
    order, low, at, label, stack = [-1] * n, [0] * n, [0] * n, [-1] * n, []
    tick = itertools.count()

    def enter(v):
        order[v] = low[v] = next(tick)
        at[v] = len(stack)
        stack.append(v)
        return v, iter(arcs[v * width : (v + 1) * width])

    for start in range(n):
        path = [enter(start)] if order[start] < 0 else []
        while path:
            v, heads = path[-1]
            least = low[v]
            for w in heads:
                if order[w] < 0:
                    low[v] = least
                    path.append(enter(w))
                    break
                if order[w] < least and label[w] < 0:  # w is still on the stack
                    least = order[w]
            else:
                low[v] = least
                path.pop()
                if least == order[v]:
                    component, stack[at[v] :] = stack[at[v] :], []
                    smallest = min(component)
                    for x in component:
                        label[x] = smallest
                else:  # v is no component's first vertex, so not the start
                    u = path[-1][0]
                    low[u] = min(low[u], least)
    return np.array(label)


def strongly_connected_components(g: IterationGraph) -> list[list[int]]:
    """The strongly connected components of g, in ascending order of their
    smallest vertex, and the vertices of each in ascending order."""
    _, labels = _component_labels(g)
    comps: dict[int, list[int]] = {}
    for x, label in enumerate(labels.tolist()):
        comps.setdefault(label, []).append(x)
    return list(comps.values())


def is_strongly_connected(g: IterationGraph) -> ChaosVerdict:
    """Decide the chaos criterion: one component covering all vertices.

    The witness (u, v): u is the smallest vertex of any sink, a component
    that no arc leaves, and v is the smallest vertex outside u's component.
    Nothing outside a sink is reachable from it: no path leads from u to v.
    """
    count, label = _component_labels(g)
    if count == 1:
        return ChaosVerdict(True, 1)
    # column x of the head labels holds the components x's arcs enter
    leaves = (label[g.matrix] != label).any(axis=0)
    is_sink = np.ones(g.n_vertices, dtype=bool)
    is_sink[label[leaves]] = False
    u = int(np.flatnonzero(is_sink[label])[0])
    v = int(np.flatnonzero(label != label[u])[0])
    return ChaosVerdict(False, count, (u, v))


def export_dot(g: IterationGraph) -> str:
    """Graph in DOT format; vertices as fixed-width bit strings, arcs labeled.

    Output is deterministic: vertices ascending, then arcs by (vertex,
    label) ascending.  It is the text of `dot_bytes`.
    """
    return str(dot_bytes(g), "ascii")


def dot_bytes(g: IterationGraph) -> np.ndarray:
    """The ASCII bytes of `export_dot`, as one uint8 array, for writing as they are.

    Every vertex's lines have one length, its arc labels being 1..N, so
    the text is built as one byte array: a per-vertex template of the
    vertex lines, then one of the arc lines, each tiled over the
    vertices, with the '0'/'1' digits of every tail and head written
    into their columns.
    """
    n = g.n_bits
    names = bitops.state_codes(n)  # every vertex's n digits, most significant first
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
    return text
