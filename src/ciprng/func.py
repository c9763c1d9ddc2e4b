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

* Every whole-table computation reads f's images as `f.array`, one
  read-only int32 array per VectorOfImages, built on first use;
  `parse_function` hands over the array it parsed.

The mapping matrix of f is the N x 2^N table whose cell (p, q) is the
state reached from q by one single-coordinate update: coordinate p
alone is replaced by coordinate p of f(q).  `mapping_matrix` is its one
definition and its one form, an (N, 2^N) int32 numpy array holding cell
(p, q) at [p - 1, q]; the iteration graph and the generator's composed
update tables read it.

A function is *balanced* when every row of its mapping matrix is a
permutation of [0, 2^N - 1]; single-coordinate updates then preserve a
uniform state distribution.  Cell (p, q) is q or q XOR w, w = 2^(N-p)
being row p's digit, so `is_balanced` checks each row pair by pair
without building the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
import functools
import operator
from pathlib import Path
import re
from typing import Iterator, Optional

import numpy as np

from .errors import FunctionFormatError, MutationError, ResourceLimitError

# 2^N-entry tables, and the N * 2^N cells of the mapping matrix, must fit
# comfortably in memory.
MAX_TABLE_BITS = 16


@dataclass(frozen=True)
class VectorOfImages:
    """A Boolean map f: B^N -> B^N as the tuple (f(0), ..., f(2^N - 1)).

    `images` may be given as any sequence of integers, numpy arrays
    included; it is stored as a tuple of Python ints, so equal maps
    compare equal and hash alike.  A non-integer image is a TypeError.

    `array` holds the same images as a read-only int32 numpy array.  It
    is built on first use and then kept; it is not a dataclass field, so
    equality, hashing and repr see `images` alone.
    """

    n_bits: int
    images: tuple[int, ...]

    def __post_init__(self):
        if self.n_bits < 2:
            raise ValueError(f"n_bits must be >= 2, got {self.n_bits}")
        images = tuple(map(operator.index, self.images))
        object.__setattr__(self, "images", images)
        size = 1 << self.n_bits
        if len(images) != size:
            raise ValueError(
                f"expected {size} images for n_bits={self.n_bits}, got {len(images)}"
            )
        if min(images) < 0 or max(images) >= size:
            q = next(q for q, v in enumerate(images) if not 0 <= v < size)
            raise ValueError(f"image {images[q]} at position {q} is outside [0, {size - 1}]")

    @property
    def size(self) -> int:
        return 1 << self.n_bits

    @property
    def mask(self) -> int:
        return (1 << self.n_bits) - 1

    def coordinate(self, value: int, p: int) -> int:
        """Digit p (in [1, N], weight 2^(N-p)) of `value`."""
        return (value >> (self.n_bits - p)) & 1

    @functools.cached_property
    def array(self) -> np.ndarray:
        """The images as a read-only int32 array, built on first use."""
        array = np.array(self.images, dtype=np.int32)
        array.flags.writeable = False
        return array


@dataclass(frozen=True)
class BalanceVerdict:
    """Outcome of a balance check.

    `first_violation` is None when balanced, and otherwise a pair whose
    first member is a mapping-matrix row p and whose second depends on
    the check:

    * `is_balanced` gives (p, value): the first row that fails to be a
      permutation, with the first value met twice in it in q order;
    * `balance_rule_check` gives (p, q): the 0-based position q of the
      first entry that breaks the paired-edit rule, with the row p its
      edited digit updates.
    """

    balanced: bool
    first_violation: Optional[tuple[int, int]] = None

    def __bool__(self) -> bool:
        return self.balanced


def negation(n_bits: int) -> VectorOfImages:
    """The map complementing every coordinate: images[q] = 2^N - 1 - q."""
    _check_width(n_bits)
    # mask ^ q = mask - q for q in [0, mask]
    mask = (1 << n_bits) - 1
    return _unchecked(n_bits, tuple(range(mask, -1, -1)), np.arange(mask, -1, -1, dtype=np.int32))


def identity(n_bits: int) -> VectorOfImages:
    """The map leaving every state fixed: images[q] = q."""
    _check_width(n_bits)
    return _unchecked(n_bits, tuple(range(1 << n_bits)), np.arange(1 << n_bits, dtype=np.int32))


def _check_width(n_bits: int) -> None:
    if n_bits < 2:
        raise ValueError(f"n_bits must be >= 2, got {n_bits}")
    if n_bits > MAX_TABLE_BITS:
        raise ResourceLimitError(
            f"n_bits={n_bits} exceeds the exhaustive-table limit of {MAX_TABLE_BITS}"
        )


@functools.cache
def _axes(n_bits: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only states [0, 2^N - 1] and the (N, 1) column of digit weights 2^(N-p)."""
    states = np.arange(1 << n_bits, dtype=np.int32)
    weights = (1 << np.arange(n_bits - 1, -1, -1, dtype=np.int32))[:, None]
    states.flags.writeable = weights.flags.writeable = False
    return states, weights


def mapping_matrix(f: VectorOfImages) -> np.ndarray:
    """The mapping matrix of f as a fresh (N, 2^N) int32 array.

    Entry [p-1, q] is the state reached from q when coordinate p alone
    is replaced by coordinate p of f(q).  This is the one definition of
    the single-coordinate update over a whole table.
    """
    states, weights = _axes(f.n_bits)
    table = (f.array ^ states) & weights
    table ^= states  # in place, to allocate one (N, 2^N) array rather than two
    return table


def is_balanced(f: VectorOfImages) -> BalanceVerdict:
    """Definitional balance check: every mapping-matrix row is a permutation.

    Cell (p, q) is q or q XOR w, w = 2^(N-p) being row p's digit, so row
    p maps each pair (q, q XOR w) into itself.  It is a permutation
    exactly when it maps every pair onto itself, that is when bit w of f
    differs between the two members of every pair.  In a pair where it
    does not, both members reach one state, met first at the member
    with bit w clear and again at the one with bit w set.  The witness
    of an unbalanced f is the first such row, with the state reached
    from the smallest pair member that has bit w set: the first value
    met twice in the row in q order.
    """
    n = f.n_bits
    for p in range(1, n + 1):
        w = 1 << (n - p)
        pairs = f.array.reshape(-1, 2, w)  # [b, 0, r] and [b, 1, r]: q = 2wb + r and q + w
        flips = (pairs[:, 0] ^ pairs[:, 1]) & w
        if np.count_nonzero(flips) < flips.size:
            i = int(flips.argmin())  # the first pair, in q order, that agrees in bit w
            q = i + (i // w + 1) * w
            return BalanceVerdict(False, (p, q ^ ((f.images[q] ^ q) & w)))
    return BalanceVerdict(True)


def balance_rule_check(f: VectorOfImages) -> BalanceVerdict:
    """Check f against the paired-edit balance rule.

    Accepts exactly the vectors in which every entry either equals the
    negation's entry or differs from it in a single bit i, with the two
    entries of each edited pair swapped consistently: if the entry at
    1-based position j was changed to C, the entry at position 2^N - C
    must hold 2^N - j.  Entries further than one bit from the negation's
    are outside the rule's scope and are rejected.

    With d = f(q) XOR (2^N - 1 - q), entry q breaks the rule when d has
    more than one bit, or when its partner q XOR d does not hold q's
    negated image (an unedited entry is its own partner).  The witness
    is the first such q, with the row updated by the lowest bit of d.

    Acceptance implies balance; `is_balanced` remains the definitional
    oracle for arbitrary functions.
    """
    states, _ = _axes(f.n_bits)
    negated = states ^ f.mask  # the negation's images
    diff = f.array ^ negated
    broken = np.flatnonzero((diff & (diff - 1)) | (f.array[states ^ diff] ^ negated))
    if not broken.size:
        return BalanceVerdict(True)
    q = int(broken[0])
    d = int(diff[q])
    return BalanceVerdict(False, (_row_of_weight(f.n_bits, d & -d), q))


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
    return _unchecked(n, tuple(imgs))  # a swap keeps f's images valid


def _unchecked(n_bits: int, images: tuple[int, ...], array: Optional[np.ndarray] = None) -> VectorOfImages:
    """A VectorOfImages from a tuple of ints already known to be valid.

    Skips the conversion and range check of `VectorOfImages.__post_init__`,
    which cost milliseconds at N=16.  An int32 `array` of the same images
    becomes f.array, made read-only.
    """
    f = object.__new__(VectorOfImages)
    object.__setattr__(f, "n_bits", n_bits)
    object.__setattr__(f, "images", images)
    if array is not None:
        array.flags.writeable = False
        object.__setattr__(f, "array", array)
    return f


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

    No candidate is checked.  Each is balanced by construction, as the
    negation swapped across a matching (`balance_rule_check` accepts it).
    Its iteration graph is Q_N minus the matching, plus loops; by the
    edge-isoperimetric inequality on Q_N it is disconnected exactly when
    the matching holds all 2^(N-1) edges of one direction b.  Those cover
    every vertex, so f(q) = NOT q XOR 2^b, whose coordinate b never
    changes: `require_chaos` drops exactly these N functions.

    Raises ResourceLimitError, after the functions already emitted, on
    reaching a candidate beyond the first `max_candidates`; raises
    ValueError when `max_candidates` < 1.

    `max_mutations=0` yields exactly the negation.
    """
    _check_width(n_bits)
    if max_mutations < 0:
        raise ValueError(f"max_mutations must be >= 0, got {max_mutations}")
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
    size = 1 << n_bits
    edges = [(q, q ^ (1 << b)) for q in range(size) for b in range(n_bits) if q < q ^ (1 << b)]
    images = list(negation(n_bits).images)
    used = bytearray(size)
    not_chaotic = {tuple(v ^ (1 << b) for v in images) for b in range(n_bits)} if require_chaos else ()

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
            vec = tuple(images)
            if vec not in not_chaotic:
                yield VectorOfImages(n_bits, vec)
        if count == before:
            break


# ---------------------------------------------------------------------------
# Function file format: line 1 holds N, line 2 the 2^N images as decimal
# integers separated by single spaces, newline-terminated.

# The bytes of an images line made ready for one numpy parse: ASCII digits
# stay, the whitespace that str.split() and \S+ see within a line (tab,
# \x1f, space) becomes a space, and any other byte becomes "x".
_IMAGE_BYTES = bytes(c if 48 <= c <= 57 else 32 if c in b"\t\x1f " else 120 for c in range(256))


def format_function(f: VectorOfImages) -> str:
    return f"{f.n_bits}\n{' '.join(str(v) for v in f.images)}\n"


def parse_function(text: str) -> VectorOfImages:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise FunctionFormatError("missing width line", 1, 1)
    header = lines[0].strip()
    if not re.fullmatch(r"\d+", header):
        raise FunctionFormatError(f"width must be a decimal integer, got {header!r}", 1, 1)
    n_bits = int(header)
    if n_bits < 2 or n_bits > MAX_TABLE_BITS:
        raise FunctionFormatError(f"width {n_bits} outside [2, {MAX_TABLE_BITS}]", 1, 1)
    if len(lines) < 2:
        raise FunctionFormatError("missing images line", 2, 1)
    for extra in range(2, len(lines)):
        if lines[extra].strip():
            raise FunctionFormatError("unexpected trailing content", extra + 1, 1)

    size = 1 << n_bits
    # one numpy pass over well-formed input: ASCII digits and whitespace
    # only, every value in range.  A token too long for int64 reads as
    # its largest value, and so out of range.  The per-token loop below
    # finds the first error, and accepts the non-ASCII digits that \d
    # matches.
    if lines[1].isascii():
        raw = lines[1].encode("ascii").translate(_IMAGE_BYTES)
        if b"x" not in raw:
            values = np.fromstring(raw, dtype=np.int64, sep=" ")
            if len(values) == size and values.max() < size:
                array = values.astype(np.int32)
                return _unchecked(n_bits, tuple(array.tolist()), array)
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
    return _unchecked(n_bits, tuple(images))


def read_function(path: str | Path) -> VectorOfImages:
    return parse_function(Path(path).read_text(encoding="ascii"))


def write_function(f: VectorOfImages, path: str | Path) -> None:
    Path(path).write_text(format_function(f), encoding="ascii")
