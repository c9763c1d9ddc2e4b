"""Boolean iteration functions stored as vectors of images.

Conventions used across the package:

* A state of width N is an integer in [0, 2^N - 1].  Coordinate p in
  [1, N] of a state is its binary digit of weight 2^(N-p); coordinate 1
  is the leftmost digit when the state is printed as a bit string.
* Bit i of a value counts from the right starting at 1, so bit i has
  weight 2^(i-1).  Coordinate p and bit i name the same digit when
  p = N - i + 1.
* A map f: B^N -> B^N is stored 0-based as the vector of its images
  (f(0), ..., f(2^N - 1)).  Entry positions are also addressed 1-based
  (j = q + 1) by the operations that edit pairs of entries, matching the
  usual statement of the balance rule.

* A VectorOfImages keeps its images in the form it was made in and
  builds the other once, on first read: the constructor keeps its
  validated tuple `images`; `parse_function`, `negation`, `identity` and
  `mutate_pair` keep only the read-only int32 array `array`.  Every
  whole-table computation, equality and hashing read `f.array`; the
  Python loops that walk images one at a time (the generator's round
  loop, the search) read `f.images`.

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

from dataclasses import FrozenInstanceError, dataclass
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


class VectorOfImages:
    """A Boolean map f: B^N -> B^N as the vector (f(0), ..., f(2^N - 1)).

    `images` may be given as any sequence of integers, numpy arrays
    included; it is kept as a tuple of Python ints.  A non-integer image
    is a TypeError.  `n_bits` is checked as `negation` checks it: below 2
    is a ValueError, above MAX_TABLE_BITS a ResourceLimitError.

    The images are held in two forms, each built from the other on
    first read and then kept:

    * `images`, a tuple of Python ints, which this constructor keeps;
    * `array`, a read-only int32 numpy array, which the functions of
      this module that build a map without checking it
      (`parse_function`, `negation`, `identity`, `mutate_pair`) keep
      alone, so that a wide map costs no 2^N-int tuple until one is read.

    Equality and hashing read `array`, so a map compares equal and
    hashes alike in either form; the repr shows `n_bits` and `images`.
    Instances are immutable.
    """

    n_bits: int

    def __init__(self, n_bits: int, images):
        n_bits = _check_width(n_bits)
        images = tuple(map(operator.index, images))
        size = 1 << n_bits
        if len(images) != size:
            raise ValueError(
                f"expected {size} images for n_bits={n_bits}, got {len(images)}"
            )
        if min(images) < 0 or max(images) >= size:
            q = next(q for q, v in enumerate(images) if not 0 <= v < size)
            raise ValueError(f"image {images[q]} at position {q} is outside [0, {size - 1}]")
        object.__setattr__(self, "n_bits", n_bits)
        object.__setattr__(self, "images", images)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n_bits == other.n_bits and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash((self.n_bits, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(n_bits={self.n_bits!r}, images={self.images!r})"

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
    def images(self) -> tuple[int, ...]:
        """The images as a tuple of Python ints, built on first read."""
        return tuple(self.array.tolist())

    @functools.cached_property
    def array(self) -> np.ndarray:
        """The images as a read-only int32 array, built on first read."""
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
    n_bits = _check_width(n_bits)
    # mask ^ q = mask - q for q in [0, mask]
    return _unchecked(n_bits, np.arange((1 << n_bits) - 1, -1, -1, dtype=np.int32))


def identity(n_bits: int) -> VectorOfImages:
    """The map leaving every state fixed: images[q] = q."""
    n_bits = _check_width(n_bits)
    return _unchecked(n_bits, np.arange(1 << n_bits, dtype=np.int32))


def _check_width(n_bits: int) -> int:
    """n_bits as an int, once it is a width that 2^N-entry tables allow."""
    n_bits = operator.index(n_bits)
    if n_bits < 2:
        raise ValueError(f"n_bits must be >= 2, got {n_bits}")
    if n_bits > MAX_TABLE_BITS:
        raise ResourceLimitError(
            f"n_bits={n_bits} exceeds the exhaustive-table limit of {MAX_TABLE_BITS}"
        )
    return n_bits


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
            return BalanceVerdict(False, (p, q ^ ((int(f.array[q]) ^ q) & w)))
    return BalanceVerdict(True)


def balance_rule_check(f: VectorOfImages) -> BalanceVerdict:
    """Check f against the paired-edit balance rule.

    Accepts exactly the vectors in which every entry either equals the
    negation's entry or differs from it in a single bit i, with the two
    entries of each edited pair swapped consistently: if the entry at
    1-based position j was changed to C, the entry at position 2^N - C
    must hold 2^N - j.  Entries further than one bit from the negation's
    are outside the rule's scope and are rejected.

    With d = `defects(f)`, entry q breaks the rule when d(q) has more
    than one bit, or when its partner q XOR d(q) does not hold q's
    negated image, that is when d differs between q and its partner (an
    unedited entry is its own partner).  The witness is the first such
    q, with the row updated by the lowest bit of d(q).

    Acceptance implies balance; `is_balanced` remains the definitional
    oracle for arbitrary functions.
    """
    states, _ = _axes(f.n_bits)
    d = defects(f)
    broken = np.flatnonzero((d & (d - 1)) | (d[states ^ d] ^ d))
    if not broken.size:
        return BalanceVerdict(True)
    q = int(broken[0])
    dq = int(d[q])
    return BalanceVerdict(False, (_row_of_weight(f.n_bits, dq & -dq), q))


def defects(f: VectorOfImages) -> np.ndarray:
    """f's departures from the negation, d(x) = f(x) XOR (2^N - 1 - x).

    A fresh read-only int32 array.  d(x) holds the digits that an
    update at x keeps instead of flipping, and is 0 everywhere for the
    negation; a paired edit across (q, q XOR w) sets w at both ends.
    """
    d = f.array ^ np.arange(f.mask, -1, -1, dtype=np.int32)
    d.flags.writeable = False
    return d


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
    a, b = f.array[[q, partner]].tolist()
    neg_q, neg_partner = mask ^ q, mask ^ partner
    if (a, b) != (neg_q, neg_partner) and (a, b) != (neg_partner, neg_q):
        raise MutationError(
            f"cannot flip bit {i} of entry {j}: the pair ({j}, {partner + 1}) "
            f"holds ({a}, {b}), already edited at another bit"
        )
    array = f.array.copy()
    array[q], array[partner] = b, a
    return _unchecked(n, array)  # a swap keeps f's images valid


def _unchecked(n_bits: int, array: np.ndarray) -> VectorOfImages:
    """A VectorOfImages holding `array`, int32 images already known to be valid.

    Skips the conversion and range check of the constructor, which cost
    milliseconds at N=16, and builds no tuple: `array` becomes f.array,
    made read-only, and f.images is built from it on first read.
    """
    f = object.__new__(VectorOfImages)
    object.__setattr__(f, "n_bits", n_bits)
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

    A vertex q is free exactly when images[q] is still the negation's
    2^N - 1 - q, so the list of images is the one record of a matching.

    No candidate is checked for balance or chaos; the constructor only
    range-checks its images.  Each is balanced by construction, as the
    negation swapped across a matching (`balance_rule_check` accepts it).
    Its iteration graph is Q_N minus the matching, plus loops; by the
    edge-isoperimetric inequality on Q_N it is disconnected exactly when
    the matching holds all 2^(N-1) edges of one direction b.  Such a
    matching is perfect and gives f(q) = NOT q XOR 2^b, whose coordinate
    b never changes: `require_chaos` drops exactly the N perfect
    matchings whose f(q) XOR q is one constant.

    `max_mutations` and `max_candidates` must be integers (a float is a
    TypeError).  Raises ResourceLimitError, after the functions already
    emitted, on reaching a candidate beyond the first `max_candidates`;
    raises ValueError when `max_candidates` < 1.

    `max_mutations=0` yields exactly the negation.
    """
    n_bits = _check_width(n_bits)
    max_mutations = operator.index(max_mutations)
    max_candidates = operator.index(max_candidates)
    if max_mutations < 0:
        raise ValueError(f"max_mutations must be >= 0, got {max_mutations}")
    if max_candidates < 1:
        raise ValueError(f"max_candidates must be >= 1, got {max_candidates}")
    size = 1 << n_bits
    mask = size - 1
    # each edge (q, q ^ w) with the negation's images at its two ends
    weights = [1 << b for b in range(n_bits)]
    edges = [(q, q ^ w, mask ^ q, mask ^ q ^ w) for q in range(size) for w in weights if q < q ^ w]
    images = list(range(mask, -1, -1))

    def matchings(first: int, left: int) -> Iterator[None]:
        """Yield once per vertex-disjoint choice of `left` edges from edges[first:],
        with `images` swapped across the chosen edges."""
        if left == 0:
            yield
            return
        for e in range(first, len(edges)):
            q, partner, a, b = edges[e]
            if images[q] != a or images[partner] != b:
                continue
            images[q], images[partner] = b, a
            yield from matchings(e + 1, left - 1)
            images[q], images[partner] = a, b

    count = 0
    for d in range(max_mutations + 1):
        before = count
        perfect = require_chaos and 2 * d == size
        for _ in matchings(0, d):
            if count == max_candidates:
                raise ResourceLimitError(f"search exceeded the cap of {max_candidates} candidates")
            count += 1
            if not (perfect and len(set(map(operator.xor, images, range(size)))) == 1):
                yield VectorOfImages(n_bits, images)
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
    return f"{f.n_bits}\n{' '.join(map(str, f.array.tolist()))}\n"


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
                return _unchecked(n_bits, values.astype(np.int32))
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
    return _unchecked(n_bits, np.array(images, dtype=np.int32))


def read_function(path: str | Path) -> VectorOfImages:
    return parse_function(Path(path).read_text(encoding="ascii"))


def write_function(f: VectorOfImages, path: str | Path) -> None:
    Path(path).write_text(format_function(f), encoding="ascii")
