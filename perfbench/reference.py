"""Reference results the benchmark checks the package's outputs against.

Everything here is derived from first principles with plain loops: the
generator's update rule and its xorshift sources, the binary expansion
of e, reachability in iteration graphs, balance, the DOT layout and the
set of functions a paired-edit search must find.  None of it calls the
package's generator, sources, search or graph code.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

MASK64 = (1 << 64) - 1

# Eight published vectors of images obtained from the 4-bit negation by
# paired edits; each is balanced and chaotic.
PUBLISHED_VARIANTS = (
    (14, 15, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
    (14, 15, 13, 12, 9, 10, 11, 8, 7, 6, 5, 4, 3, 2, 1, 0),
    (14, 15, 9, 4, 11, 8, 13, 10, 7, 6, 5, 12, 3, 2, 1, 0),
    (14, 15, 9, 12, 3, 8, 13, 10, 7, 6, 5, 4, 11, 2, 1, 0),
    (14, 15, 9, 4, 11, 8, 13, 10, 7, 6, 5, 12, 3, 2, 0, 1),
    (14, 15, 9, 4, 11, 8, 13, 10, 3, 6, 5, 12, 7, 2, 0, 1),
    (14, 15, 9, 4, 3, 8, 13, 10, 5, 2, 7, 12, 11, 6, 1, 0),
    (14, 15, 5, 8, 9, 2, 11, 12, 3, 4, 13, 6, 7, 10, 0, 1),
)

# Functions within d paired edits of the N-bit negation, by edit count:
# the matchings of the hypercube Q_N by size.  Keyed by (N, d).
SEARCH_COUNTS = {
    (3, 4): (1, 12, 42, 44, 9),
    (4, 8): (1, 32, 400, 2496, 8256, 14208, 11648, 3712, 272),
}
# Of those, the ones whose iteration graph is strongly connected.
SEARCH_CHAOTIC = {(4, 8): 41021}


def negation(n_bits: int) -> tuple[int, ...]:
    mask = (1 << n_bits) - 1
    return tuple(mask ^ q for q in range(1 << n_bits))


def ci_states(images, n_bits, k, x, seed1, seed2, rounds):
    """Round outputs of the chaotic-iteration rule and the final source words.

    Each round steps the first xorshift64 (13, 7, 17) word once and does
    k + (its low bit) updates; each update steps the second word and
    replaces coordinate (word mod N) + 1 of x by that coordinate of f(x).
    """
    s1, s2 = seed1, seed2
    out = []
    for _ in range(rounds):
        s1 ^= (s1 << 13) & MASK64
        s1 ^= s1 >> 7
        s1 ^= (s1 << 17) & MASK64
        for _ in range(k + (s1 & 1)):
            s2 ^= (s2 << 13) & MASK64
            s2 ^= s2 >> 7
            s2 ^= (s2 << 17) & MASK64
            w = 1 << (n_bits - 1 - s2 % n_bits)
            x = (x & ~w) | (images[x] & w)
        out.append(x)
    return out, s1, s2


def state_text(states, n_bits: int) -> str:
    """States as concatenated big-endian n_bits-wide '0'/'1' strings."""
    return "".join(format(x, f"0{n_bits}b") for x in states)


def pack_text(bits: str) -> bytes:
    """'0'/'1' text, a multiple of 8 long, packed most significant bit first."""
    return int(bits, 2).to_bytes(len(bits) // 8, "big") if bits else b""


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("ascii")
    return hashlib.sha256(data).hexdigest()


def _series(a: int, b: int) -> tuple[int, int]:
    """(P, Q) with P / Q = sum over a < j <= b of a! / j! (binary splitting)."""
    if b - a == 1:
        return 1, b
    m = (a + b) // 2
    p1, q1 = _series(a, m)
    p2, q2 = _series(m, b)
    return p1 * q2 + p2, q1 * q2


def _reciprocal(q: int, bits: int) -> int:
    """About 2 ** (q.bit_length() + bits) / q, off by a few units (Newton)."""
    if bits <= 4096:
        return (1 << (q.bit_length() + bits)) // q
    half = bits // 2 + 64
    drop = max(q.bit_length() - half - 64, 0)
    x = _reciprocal(q >> drop, half) << (bits - half)
    top = q.bit_length() + bits
    return x + ((x * ((1 << top) - q * x)) >> top)


def e_bits(count: int) -> str:
    """First `count` bits of e, integer bits included, as '0'/'1' text.

    The series sum over j of 1/j! is carried 64 bits past `count`, and
    the division runs through a Newton reciprocal: plain big-integer
    division of million-bit numbers is quadratic.
    """
    guard = 64
    terms, log2_fact = 1, 0.0
    while log2_fact < count + guard:
        terms += 1
        log2_fact += math.log2(terms)
    p, q = _series(0, terms)
    p += q  # the j = 0 term
    frac_bits = count - 2 + guard  # e has two integer bits
    x = (p * _reciprocal(q, frac_bits + 2)) >> (q.bit_length() + 2)
    return bin(x)[2 : 2 + count]


def _arc_targets(images, n_bits):
    """targets[x] = the N states reached from x by single-coordinate updates."""
    size = 1 << n_bits
    out = []
    for x in range(size):
        fx = images[x]
        row = []
        for p in range(1, n_bits + 1):
            w = 1 << (n_bits - p)
            row.append((x & ~w) | (fx & w))
        out.append(row)
    return out


def is_chaotic(images, n_bits: int) -> bool:
    """Strong connectivity: every state reaches 0 and 0 reaches every state."""
    targets = _arc_targets(images, n_bits)
    size = 1 << n_bits
    back = [[] for _ in range(size)]
    for x, row in enumerate(targets):
        for y in row:
            back[y].append(x)
    for adjacency in (targets, back):
        seen = bytearray(size)
        seen[0] = 1
        todo = [0]
        while todo:
            for y in adjacency[todo.pop()]:
                if not seen[y]:
                    seen[y] = 1
                    todo.append(y)
        if not all(seen):
            return False
    return True


def is_balanced(images, n_bits: int) -> bool:
    """Every row of the mapping matrix is a permutation of the states."""
    q = np.arange(1 << n_bits, dtype=np.int64)
    f = np.asarray(images, dtype=np.int64)
    for p in range(1, n_bits + 1):
        w = 1 << (n_bits - p)
        row = (q & ~w) | (f & w)
        if np.unique(row).size != q.size:
            return False
    return True


def dot_text(images, n_bits: int) -> str:
    """The iteration graph in the package's documented DOT layout."""
    names = [format(x, f"0{n_bits}b") for x in range(1 << n_bits)]
    lines = ["digraph iteration_graph {"]
    lines += [f'  "{name}";' for name in names]
    for x, row in enumerate(_arc_targets(images, n_bits)):
        for label, y in enumerate(row, start=1):
            lines.append(f'  "{names[x]}" -> "{names[y]}" [label={label}];')
    return "\n".join(lines) + "\n}\n"


def edit_count(images, n_bits: int) -> int:
    """Number of paired edits separating `images` from the negation."""
    neg = negation(n_bits)
    return sum(1 for a, b in zip(images, neg) if a != b) // 2


def search_space(n_bits: int, max_edits: int) -> list[tuple[int, ...]]:
    """Every function within max_edits paired edits of the negation.

    A paired edit swaps the negation's images across one edge of the
    N-cube, and edits never share a vertex, so the functions are the
    matchings of the cube with at most max_edits edges.
    """
    size = 1 << n_bits
    edges = [(u, u ^ (1 << b)) for u in range(size) for b in range(n_bits) if u < u ^ (1 << b)]
    neg = negation(n_bits)
    out = []
    images = list(neg)
    used = bytearray(size)

    def extend(first: int, depth: int) -> None:
        out.append(tuple(images))
        if depth == max_edits:
            return
        for e in range(first, len(edges)):
            u, v = edges[e]
            if used[u] or used[v]:
                continue
            used[u] = used[v] = 1
            images[u], images[v] = neg[v], neg[u]
            extend(e + 1, depth + 1)
            images[u], images[v] = neg[u], neg[v]
            used[u] = used[v] = 0

    extend(0, 0)
    return out
