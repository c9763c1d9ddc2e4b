"""Independent brute-force oracles used to cross-check the library.

These deliberately re-derive results from first principles (explicit bit
vectors, per-vertex searches, exhaustive counting) instead of sharing
code with the implementations they check.
"""

from __future__ import annotations

import mpmath


def interpret_updates(images, n_bits, x0, strategy):
    """Definitional single-cell iteration over an explicit bit vector.

    At each step only the selected coordinate is recomputed from f of the
    previous state; every other coordinate is copied.  Returns the state
    after each update.
    """
    bits = [(x0 >> (n_bits - c)) & 1 for c in range(1, n_bits + 1)]
    trace = []
    for s in strategy:
        value = 0
        for b in bits:
            value = (value << 1) | b
        fx = images[value]
        new_bits = []
        for c in range(1, n_bits + 1):
            if s == c:
                new_bits.append((fx >> (n_bits - c)) & 1)
            else:
                new_bits.append(bits[c - 1])
        bits = new_bits
        value = 0
        for b in bits:
            value = (value << 1) | b
        trace.append(value)
    return trace


def first_repeat(images, n_bits):
    """Balance witness by definition: the first single-coordinate row, p
    in [1, N], whose successors of q = 0, 1, ... meet a state twice, with
    that state; None when every row is a permutation.  Successors come
    from `interpret_updates`, one update from each start state.
    """
    for p in range(1, n_bits + 1):
        seen = set()
        for q in range(1 << n_bits):
            (cell,) = interpret_updates(images, n_bits, q, [p])
            if cell in seen:
                return p, cell
            seen.add(cell)
    return None


def balance_rule_witness(images, n_bits):
    """The paired-edit balance rule, entry by entry in q order: None when
    every entry equals the negation's or sits in a consistently swapped
    single-bit pair, else (p, q) for the first entry q that breaks it,
    p being the row that the lowest bit of its difference updates.
    """
    mask = (1 << n_bits) - 1
    for q in range(1 << n_bits):
        want = mask ^ q  # the negation's image at q
        diff = images[q] ^ want
        if diff == 0:
            continue
        if diff & (diff - 1):
            # modified in more than one bit: not a single-bit paired edit
            return n_bits - (diff & -diff).bit_length() + 1, q
        # the edit at q forces the partner entry to take q's negated image
        if images[q ^ diff] != want:
            return n_bits - diff.bit_length() + 1, q
    return None


def bfs_reachable(adjacency, start):
    """Vertices reachable from start by a plain breadth-first search."""
    seen = bytearray(len(adjacency))
    seen[start] = 1
    queue = [start]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for w in adjacency[v]:
            if not seen[w]:
                seen[w] = 1
                queue.append(w)
    return seen


def bfs_sccs(adjacency):
    """SCCs via mutual reachability from per-vertex BFS sweeps."""
    n = len(adjacency)
    reach = [bfs_reachable(adjacency, v) for v in range(n)]
    assigned = bytearray(n)
    comps = []
    for v in range(n):
        if assigned[v]:
            continue
        comp = [u for u in range(n) if reach[v][u] and reach[u][v]]
        for u in comp:
            assigned[u] = 1
        comps.append(frozenset(comp))
    return comps


def count_max_run_le(n, v):
    """Number of n-bit strings whose longest run of ones is at most v."""
    if v >= n:
        return 2 ** n
    dp = [1] + [0] * v  # dp[r]: strings ending in a run of exactly r ones
    for _ in range(n):
        dp = [sum(dp)] + dp[:v]
    return sum(dp)


def longest_runs(bits, m):
    """Longest run of ones in each whole m-bit block of the bit list, bit by bit."""
    longest = []
    for start in range(0, len(bits) - m + 1, m):
        best = run = 0
        for b in bits[start : start + m]:
            run = run + 1 if b else 0
            best = max(best, run)
        longest.append(best)
    return longest


def window_counts(bits, m):
    """Counts of the n overlapping m-bit windows of the circular bit list,
    window by window and bit by bit, indexed by the window's value."""
    n = len(bits)
    counts = [0] * (1 << m)
    for start in range(n):
        value = 0
        for t in range(m):
            value = 2 * value + bits[(start + t) % n]
        counts[value] += 1
    return counts


def cusum_excursions(bits):
    """Largest |partial sum| of the +-1 steps, summed forward and then over
    the reversed steps."""

    def peak(steps):
        total = best = 0
        for s in steps:
            total += s
            best = max(best, abs(total))
        return best

    steps = [2 * b - 1 for b in bits]
    return peak(steps), peak(steps[::-1])


def expansion_bits(constant, count):
    """The first `count` bits of the binary expansion of an mpmath constant, as '0'/'1' text."""
    mpmath.mp.prec = count + 64
    _, mantissa, _, _ = mpmath.mpf(constant)._mpf_
    return bin(mantissa)[2:][:count]


def dot_lines(g):
    """An iteration graph's DOT text, one f-string per vertex and per arc."""
    n = g.n_bits
    names = [f'"{x:0{n}b}"' for x in range(g.n_vertices)]
    lines = ["digraph iteration_graph {"]
    lines += [f"  {name};" for name in names]
    for name, heads in zip(names, g.matrix.T.tolist()):
        lines += [f"  {name} -> {names[h]} [label={label}];" for label, h in enumerate(heads, 1)]
    lines.append("}")
    return "\n".join(lines) + "\n"
