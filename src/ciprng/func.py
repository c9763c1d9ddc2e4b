"""Boolean iteration functions stored as vectors of images.

Conventions used across the package:

* A state of width N is an integer in [0, 2^N - 1].  Coordinate p in
  [1, N] of a state is its binary digit of weight 2^(N-p); coordinate 1
  is the leftmost digit when the state is printed as a bit string.
* Bit i of a value counts from the right starting at 1, so bit i has
  weight 2^(i-1).  Coordinate p and bit i name the same digit when
  p = N - i + 1.
* A map f: B^N -> B^N is stored 0-based as the tuple of its images
  (f(0), ..., f(2^N - 1)).  Entry positions are also addressed 1-based
  (j = q + 1) by the operations that edit pairs of entries, matching the
  usual statement of the balance rule.

A function is *balanced* when every row of its mapping matrix is a
permutation of [0, 2^N - 1]; single-coordinate updates then preserve a
uniform state distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
import re
from typing import Iterator, Optional

from .errors import FunctionFormatError, MutationError, ResourceLimitError

# 2^N-entry tables must fit comfortably in memory.
MAX_TABLE_BITS = 16


@dataclass(frozen=True)
class VectorOfImages:
    """A Boolean map f: B^N -> B^N as the tuple (f(0), ..., f(2^N - 1))."""

    n_bits: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.n_bits < 2:
            raise ValueError(f"n_bits must be >= 2, got {self.n_bits}")
        size = 1 << self.n_bits
        if len(self.images) != size:
            raise ValueError(
                f"expected {size} images for n_bits={self.n_bits}, got {len(self.images)}"
            )
        for q, v in enumerate(self.images):
            if not 0 <= v < size:
                raise ValueError(f"image {v} at position {q} is outside [0, {size - 1}]")

    @property
    def size(self) -> int:
        return 1 << self.n_bits

    @property
    def mask(self) -> int:
        return (1 << self.n_bits) - 1

    def coordinate(self, value: int, p: int) -> int:
        """Digit p (in [1, N], weight 2^(N-p)) of `value`."""
        return (value >> (self.n_bits - p)) & 1


@dataclass(frozen=True)
class MappingMatrix:
    """Next states under single-coordinate updates.

    cells[p-1][q] is the state reached from q when coordinate p alone is
    replaced by coordinate p of f(q).
    """

    n_bits: int
    cells: tuple[tuple[int, ...], ...]

    def cell(self, p: int, q: int) -> int:
        return self.cells[p - 1][q]


@dataclass(frozen=True)
class BalanceVerdict:
    """Outcome of a balance check.

    `first_violation` is a (row p, value) witness: the first row of the
    mapping matrix that fails to be a permutation, with the value that
    would occur twice in it.  None when balanced.
    """

    balanced: bool
    first_violation: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.balanced


def negation(n_bits: int, max_bits: int = MAX_TABLE_BITS) -> VectorOfImages:
    """The map complementing every coordinate: images[q] = 2^N - 1 - q."""
    _check_width(n_bits, max_bits)
    mask = (1 << n_bits) - 1
    return VectorOfImages(n_bits, tuple(mask ^ q for q in range(1 << n_bits)))


def identity(n_bits: int, max_bits: int = MAX_TABLE_BITS) -> VectorOfImages:
    """The map leaving every state fixed: images[q] = q."""
    _check_width(n_bits, max_bits)
    return VectorOfImages(n_bits, tuple(range(1 << n_bits)))


def _check_width(n_bits: int, max_bits: int) -> None:
    if n_bits < 2:
        raise ValueError(f"n_bits must be >= 2, got {n_bits}")
    if n_bits > max_bits:
        raise ResourceLimitError(
            f"n_bits={n_bits} exceeds the exhaustive-table limit of {max_bits}"
        )


def mapping_matrix(f: VectorOfImages) -> MappingMatrix:
    """Build the N x 2^N table of single-coordinate successors of f."""
    n = f.n_bits
    rows = []
    for p in range(1, n + 1):
        w = 1 << (n - p)
        keep = ~w
        rows.append(tuple((q & keep) | (f.images[q] & w) for q in range(f.size)))
    return MappingMatrix(n, tuple(rows))


def is_balanced(f: VectorOfImages) -> BalanceVerdict:
    """Definitional balance check: every mapping-matrix row is a permutation."""
    n = f.n_bits
    size = f.size
    images = f.images
    for p in range(1, n + 1):
        w = 1 << (n - p)
        keep = ~w
        seen = bytearray(size)
        for q in range(size):
            cell = (q & keep) | (images[q] & w)
            if seen[cell]:
                return BalanceVerdict(False, (p, cell))
            seen[cell] = 1
    return BalanceVerdict(True)


def balance_rule_check(f: VectorOfImages) -> BalanceVerdict:
    """Check f against the paired-edit balance rule.

    Accepts exactly the vectors in which every entry either equals the
    negation's entry or differs from it in a single bit i, with the two
    entries of each edited pair swapped consistently: if the entry at
    1-based position j was changed to C, the entry at position 2^N - C
    must hold 2^N - j.  Entries further than one bit from the negation's
    are outside the rule's scope and are rejected.

    Acceptance implies balance; `is_balanced` remains the definitional
    oracle for arbitrary functions.
    """
    n = f.n_bits
    mask = f.mask
    images = f.images
    for q in range(f.size):
        want = mask ^ q  # the negation's image at q
        diff = images[q] ^ want
        if diff == 0:
            continue
        if diff & (diff - 1):
            # modified in more than one bit: not a single-bit paired edit
            return BalanceVerdict(False, (_row_of_weight(n, diff & -diff), q))
        partner = q ^ diff
        # the edit at q forces the partner entry to take q's negated image
        if images[partner] != want:
            return BalanceVerdict(False, (_row_of_weight(n, diff), q))
    return BalanceVerdict(True)


def _row_of_weight(n_bits: int, w: int) -> int:
    """Mapping-matrix row p updated by a change of the digit of weight w."""
    return n_bits - w.bit_length() + 1


def mutate_pair(f: VectorOfImages, j: int, i: int) -> VectorOfImages:
    """Apply one balance-preserving paired edit at 1-based position j, bit i.

    Flips bit i of the image at position j and writes the forced
    compensating value 2^N - j at position 2^N - C (C being the new image
    at j), which amounts to swapping the negation's images at the two
    positions q = j - 1 and q XOR 2^(i-1).  Applied to an already-edited
    pair the same call undoes it, so the operation is an involution.

    Raises MutationError when either entry of the pair was previously
    edited with a different bit: the compensating write would collide
    with that edit and balance could not be restored.
    """
    n = f.n_bits
    size = f.size
    mask = f.mask
    if not 1 <= j <= size:
        raise ValueError(f"position j={j} outside [1, {size}]")
    if not 1 <= i <= n:
        raise ValueError(f"bit i={i} outside [1, {n}]")
    q = j - 1
    w = 1 << (i - 1)
    partner = q ^ w
    a, b = f.images[q], f.images[partner]
    neg_q, neg_partner = mask ^ q, mask ^ partner
    if (a, b) != (neg_q, neg_partner) and (a, b) != (neg_partner, neg_q):
        raise MutationError(
            f"cannot flip bit {i} of entry {j}: the pair ({j}, {partner + 1}) "
            f"holds ({a}, {b}), already edited at another bit"
        )
    imgs = list(f.images)
    imgs[q], imgs[partner] = b, a
    return VectorOfImages(n, tuple(imgs))


def search_functions(
    n_bits: int,
    max_mutations: int,
    require_chaos: bool = False,
    max_candidates: int = 1_000_000,
) -> Iterator[VectorOfImages]:
    """Enumerate functions reachable from the negation by paired edits.

    A paired edit swaps the negation's images across one edge
    (q, q XOR 2^b) of the N-cube Q_N, and edits never share a vertex (see
    `mutate_pair`), so the candidates are exactly the matchings of Q_N
    with at most `max_mutations` edges.  They are enumerated by size, and
    within a size as sets of edges taken in ascending (q, q XOR 2^b)
    order; each matching is generated once, so no duplicate is ever
    produced and the output sequence is deterministic.  Enumeration stops
    at the first size that has no matching.

    Every candidate is confirmed balanced before being emitted; with
    `require_chaos` the candidate's iteration graph must additionally be
    strongly connected.  Raises ResourceLimitError, after the functions
    already emitted, on reaching a candidate beyond the first
    `max_candidates`; raises ValueError when `max_candidates` < 1.

    `max_mutations=0` yields exactly the negation.
    """
    from . import graph as _graph  # runtime import: graph builds on this module

    _check_width(n_bits, _graph.MAX_GRAPH_BITS)
    if max_mutations < 0:
        raise ValueError(f"max_mutations must be >= 0, got {max_mutations}")
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
    size = 1 << n_bits
    edges = [(q, q ^ (1 << b)) for q in range(size) for b in range(n_bits) if q < q ^ (1 << b)]
    images = list(negation(n_bits).images)
    used = bytearray(size)

    def matchings(first: int, left: int) -> Iterator[None]:
        """Yield once per vertex-disjoint choice of `left` edges from edges[first:],
        with `images` swapped across the chosen edges."""
        if left == 0:
            yield
            return
        for e in range(first, len(edges)):
            q, partner = edges[e]
            if used[q] or used[partner]:
                continue
            used[q] = used[partner] = 1
            images[q], images[partner] = images[partner], images[q]
            yield from matchings(e + 1, left - 1)
            images[q], images[partner] = images[partner], images[q]
            used[q] = used[partner] = 0

    count = 0
    for d in range(max_mutations + 1):
        before = count
        for _ in matchings(0, d):
            if count == max_candidates:
                raise ResourceLimitError(f"search exceeded the cap of {max_candidates} candidates")
            count += 1
            vec = VectorOfImages(n_bits, tuple(images))
            if not is_balanced(vec).balanced:
                continue
            if require_chaos:
                if not _graph.is_strongly_connected(_graph.build_graph(vec)).strongly_connected:
                    continue
            yield vec
        if count == before:
            break


# ---------------------------------------------------------------------------
# Function file format: line 1 holds N, line 2 the 2^N images as decimal
# integers separated by single spaces, newline-terminated.

def format_function(f: VectorOfImages) -> str:
    return f"{f.n_bits}\n{' '.join(str(v) for v in f.images)}\n"


def parse_function(text: str, max_bits: int = MAX_TABLE_BITS) -> VectorOfImages:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FunctionFormatError("missing width line", 1, 1)
    header = lines[0].strip()
    if not re.fullmatch(r"\d+", header):
        raise FunctionFormatError(f"width must be a decimal integer, got {header!r}", 1, 1)
    n_bits = int(header)
    if n_bits < 2 or n_bits > max_bits:
        raise FunctionFormatError(f"width {n_bits} outside [2, {max_bits}]", 1, 1)
    if len(lines) < 2:
        raise FunctionFormatError("missing images line", 2, 1)
    for extra in range(2, len(lines)):
        if lines[extra].strip():
            raise FunctionFormatError("unexpected trailing content", extra + 1, 1)

    size = 1 << n_bits
    tokens = list(re.finditer(r"\S+", lines[1]))
    if len(tokens) != size:
        column = tokens[size].start() + 1 if len(tokens) > size else len(lines[1]) + 1
        raise FunctionFormatError(
            f"expected {size} images, got {len(tokens)}", 2, column
        )
    images = []
    for tok in tokens:
        if not re.fullmatch(r"\d+", tok.group()):
            raise FunctionFormatError(
                f"image must be a decimal integer, got {tok.group()!r}", 2, tok.start() + 1
            )
        v = int(tok.group())
        if v >= size:
            raise FunctionFormatError(
                f"image {v} outside [0, {size - 1}]", 2, tok.start() + 1
            )
        images.append(v)
    return VectorOfImages(n_bits, tuple(images))


def read_function(path: str | Path, max_bits: int = MAX_TABLE_BITS) -> VectorOfImages:
    return parse_function(Path(path).read_text(encoding="ascii"), max_bits=max_bits)


def write_function(f: VectorOfImages, path: str | Path) -> None:
    Path(path).write_text(format_function(f), encoding="ascii")
