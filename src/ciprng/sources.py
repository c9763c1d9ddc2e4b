"""Entropy sources feeding the generator.

Two kinds: a 64-bit xorshift used in production, and a scripted replay
source that plays back a fixed list of values for reproducing known
traces in tests.  Every source gives single draws, a bit or a
coordinate at a time.  Xorshift64 also gives arrays of draws, for the
generator's bulk blocks; an array draw of n values equals n single
draws and leaves the source where they would.

Every array draw starts from anchors, every 64th word, which come from
one gather over a cached table of the columns of M^(64 j), M being the
step's matrix over GF(2); the same call leaves the source at the draw's
last word, one gather over the rows M^b e_i of the step's walk on from
the last anchor (see Xorshift64._anchors), and nothing else moves it.
Words are built in lock-step lanes: the xorshift step itself moves all
anchors on at once, one row of the block of 64 words each lane holds at
a time (see Xorshift64._lanes).  bits() and coordinates at N = 2, 4, 8
and 16 skip the words: one byte-sliced pass over the stacked matrices
of the low bit planes gives those planes of the 64 words after each
anchor (see Xorshift64._low_bits).  The anchor table, the plane
matrices and the walk's rows are built once, from one walk of the step
(see _tables).  Coordinates, at most 16, come as uint8 at every width.
"""

from __future__ import annotations

import functools
import operator
from typing import Sequence

import numpy as np

from .errors import ScriptExhaustedError

_MASK64 = (1 << 64) - 1

# Array draws gather at most _ANCHOR_CHUNK anchors from one word (see
# Xorshift64._anchors), so the anchor table of _tables holds the columns of
# _ANCHOR_CHUNK + 1 matrices, about 0.5 MiB; a 2048-byte N=4 stream draws
# about 865 coordinate anchors, one chunk.
_ANCHOR_CHUNK = 1024
# bits() and coordinates() at n_bits = 2^j, j <= _MAX_PLANES, read only the
# low j bit planes of the words (see Xorshift64._low_bits).
_MAX_PLANES = 4
# the step's shift triple as numpy scalars, which the lane steps pass to
# ufuncs without converting a Python int on every call
_SHIFTS = np.uint64(13), np.uint64(7), np.uint64(17)

# arbitrary documented nonzero defaults (golden-ratio and Weyl-type words)
DEFAULT_BIT_SEED = 0x9E3779B97F4A7C15
DEFAULT_COORD_SEED = 0xD1B54A32D192ED03


class EntropySource:
    """Source interface: a bit stream and a coordinate stream.

    A source gives next_bit and next_coordinate.  CiGenerator draws from
    any source through these alone, one round at a time; only a pair of
    Xorshift64 sources runs its blocks in bulk.
    """

    def next_bit(self) -> int:
        raise NotImplementedError

    def next_coordinate(self, n_bits: int) -> int:
        raise NotImplementedError


class Xorshift64(EntropySource):
    """Marsaglia's 64-bit xorshift with shift triple (13, 7, 17): left, right, left.

    The state is a nonzero 64-bit word and stays nonzero forever (each
    step is a bijection on nonzero states).  Bits are taken from the low
    bit of each word; coordinates as (word mod N) + 1, accepting the
    negligible modulo bias for N <= 16.

    The array draws give the same values by other means.  words() and
    coordinates() at other N build whole words in lanes (see _lanes);
    bits() reads bit plane 0 alone, and coordinates() at N = 2, 4, 8 or
    16 reads the log2 N low planes in one pass, without building the
    words (see _low_bits).
    """

    def __init__(self, seed: int = DEFAULT_BIT_SEED):
        seed = operator.index(seed)
        if not 0 < seed <= _MASK64:
            raise ValueError(f"seed must be a nonzero 64-bit value, got {seed}")
        self.state = seed

    def next_word(self) -> int:
        x = self.state
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        self.state = x
        return x

    def next_bit(self) -> int:
        return self.next_word() & 1

    def next_coordinate(self, n_bits: int) -> int:
        n_bits = operator.index(n_bits)
        if n_bits < 2:
            raise ValueError(f"n_bits must be >= 2, got {n_bits}")
        return (self.next_word() % n_bits) + 1

    def words(self, count: int) -> np.ndarray:
        """The next `count` words as a uint64 array."""
        count = _count(count)
        return self._lanes(count).T.reshape(-1)[:count]

    def bits(self, count: int) -> np.ndarray:
        """The next `count` bits as a uint8 array."""
        return self._low_bits(_count(count), 1)

    def coordinates(self, count: int, n_bits: int) -> np.ndarray:
        """The next `count` coordinates in [1, n_bits] as a uint8 array, so
        n_bits is at most 255; a wider one is refused before any draw."""
        count, n_bits = _count(count), operator.index(n_bits)
        if not 2 <= n_bits <= 255:
            raise ValueError(f"n_bits must be in [2, 255] for a uint8 array, got {n_bits}")
        planes = n_bits.bit_length() - 1
        if n_bits == 1 << planes and planes <= _MAX_PLANES:
            return self._low_bits(count, planes) + np.uint8(1)
        block = self._lanes(count)
        # word mod n as word - (word // n) n: numpy divides by a scalar
        # with a multiply, and on 10^5 words its // took 0.05-0.07 ms
        # against 0.39-0.41 ms for % (2-core Xeon, min of 15 calls)
        n = np.uint64(n_bits)
        block -= block // n * n
        # the residues fit uint8: the transposing copy narrows them too
        coords = block.T.astype(np.uint8, order="C").reshape(-1)[:count]
        coords += np.uint8(1)
        return coords

    def _anchors(self, count: int) -> np.ndarray:
        """Words 0, 64, 128, ... of the next `count`, as a uint64 array.

        Word 0 is stepped.  Anchor j of a chunk is M^(64 j) applied to
        its first anchor a, which is the XOR of M^(64 j) e_i over the set
        bits i of a: one gather of the anchor table's rows (see _tables)
        at a's bits and one XOR reduction give a chunk of up to
        _ANCHOR_CHUNK anchors, and entry _ANCHOR_CHUNK gives the next
        chunk's first.

        This is the one place an array draw moves the source.  It is
        left at word count - 1, where count single draws leave it: that
        word is M^b applied to the last anchor, b = (count - 1) mod 64,
        one gather of step row b (see _tables) at the anchor's bits and
        one XOR reduction.  A count of 0 gives an empty array and steps
        nothing.
        """
        anchors = np.empty(-(-count // 64), dtype=np.uint64)
        if not count:
            return anchors
        table, _, steps = _tables()
        units = steps[0]  # M^0 e_i: the unit words 2^i
        first = self.next_word()
        for start in range(0, anchors.size, _ANCHOR_CHUNK):
            take = min(_ANCHOR_CHUNK, anchors.size - start)
            rows = table[(units & np.uint64(first)) != 0, : take + 1]
            chunk = np.bitwise_xor.reduce(rows, axis=0)
            anchors[start : start + take] = chunk[:take]
            first = int(chunk[take])
        rows = steps[(count - 1) % 64, (units & anchors[-1]) != 0]
        self.state = int(np.bitwise_xor.reduce(rows))
        return anchors

    def _lanes(self, count: int) -> np.ndarray:
        """The next `count` words as a (rows, lanes) uint64 block.

        Entry [j, l] is word 64 l + j; lane l starts at anchor l (see
        _anchors, which also places the source), and each later row is
        the xorshift step applied to the row before, all lanes at once.
        rows is min(count, 64), so a call of fewer than 64 words steps
        count - 1 times; the last lane may run past word count - 1.

        The up to 63 row steps are about 380 numpy calls, a fixed cost of
        0.15-0.3 ms whatever the count, which short calls feel: against a
        jump-ahead walk from one word, words(407) took 0.40 ms where the
        walk took 0.25 ms, and an 8-round N=12 states() 0.57 ms against
        0.41 ms, while coordinates(101000, 12) took 1.9 ms against 4.6 ms
        (2-core Xeon, min of 15 calls, one session).
        """
        anchors = self._anchors(count)
        block = np.empty((min(count, 64), anchors.size), dtype=np.uint64)
        block[:1] = anchors  # [:1], not [0]: a draw of 0 words has no row
        _step_rows(block)
        return block

    def _low_bits(self, count: int, planes: int) -> np.ndarray:
        """The low `planes` bits of each of the next `count` words, as uint8.

        Only the anchors are computed (see _anchors, which also places
        the source).  Plane p's matrix maps an anchor to one word whose
        bit b is bit p of the word b steps on, so one byte-sliced pass
        over the stacked matrices of every plane gives 64 words' bits of
        each.
        """
        images = _jump(_tables()[1][:planes], self._anchors(count))
        bits = np.unpackbits(images.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little")
        low = bits[0, :count]
        for p in range(1, planes):
            low |= bits[p, :count] << p
        return low


def _count(count: int) -> int:
    """An array draw's count as an int; a negative count is a ValueError,
    raised before any draw, so the source is left where it was."""
    count = operator.index(count)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return count


def _step_rows(block: np.ndarray) -> None:
    """Fill block[1:] in place, each row the xorshift step of the row before.

    block[0] is given, if block has a row; each word of a row moves alone.
    """
    step = np.empty(block.shape[1:], dtype=block.dtype)
    left, right, last = _SHIFTS
    for prev, row in zip(block, block[1:]):
        np.left_shift(prev, left, out=step)
        np.bitwise_xor(prev, step, out=row)
        np.right_shift(row, right, out=step)
        np.bitwise_xor(row, step, out=row)
        np.left_shift(row, last, out=step)
        np.bitwise_xor(row, step, out=row)


@functools.cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The anchor table, the plane tables and the step rows, read-only,
    from one walk of the step.

    The anchor table is (64, _ANCHOR_CHUNK + 1) uint64: entry [i, j] is
    M^(64 j) e_i, the unit word e_i = 2^i stepped 64 j times, so column j
    holds the 64 columns of M^(64 j).  The plane tables are the matrices
    of planes 0 to _MAX_PLANES - 1, byte-sliced as _byte_tables makes
    them: plane p's matrix maps a word w to the word whose bit b is bit
    p of M^b w, b in [0, 64).  The step rows are (64, 64) uint64: entry
    [b, i] is M^b e_i, so row b holds the 64 columns of M^b.

    The 64 unit words are stepped 64 times, so row b of the walk holds
    M^b e_i: rows 0-63 are the step rows and give the plane tables, and
    rows 0 and 64 anchor columns 0 and 1.  Once columns 0..d are known,
    the matrix of column d, M^(64 d), carries columns 1..d to d+1..2d.
    """
    walk = np.empty((65, 64), dtype=np.uint64)
    walk[0] = np.uint64(1) << np.arange(64, dtype=np.uint64)
    _step_rows(walk)
    steps = walk[:64]
    steps.flags.writeable = False
    planes = np.arange(_MAX_PLANES, dtype=np.uint64)[:, None, None]
    # bits[p, b, i] = bit p of M^b e_i; packing b gives column i of plane p
    bits = ((steps >> planes) & np.uint64(1)).astype(np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little").transpose(0, 2, 1)
    plane_tables = _byte_tables(np.ascontiguousarray(packed).view("<u8")[..., 0])

    columns = np.empty((_ANCHOR_CHUNK + 1, 64), dtype=np.uint64)
    columns[:2] = walk[::64]
    d = 1
    while d < _ANCHOR_CHUNK:
        take = min(d, _ANCHOR_CHUNK - d)
        columns[d + 1 : d + 1 + take] = _jump(_byte_tables(columns[d]), columns[1 : 1 + take])
        d += take
    anchor_table = np.ascontiguousarray(columns.T)
    anchor_table.flags.writeable = False
    return anchor_table, plane_tables, steps


def _byte_tables(columns: np.ndarray) -> np.ndarray:
    """Byte-sliced tables of the matrices with the given 64 columns (last axis).

    Entry [..., j, v] is the XOR of the columns 8j + b for each bit b set
    in the byte v.
    """
    columns = columns.reshape(*columns.shape[:-1], 8, 8)
    tables = np.zeros((*columns.shape[:-1], 256), dtype=np.uint64)
    for b in range(8):
        tables[..., 1 << b : 2 << b] = tables[..., : 1 << b] ^ columns[..., b : b + 1]
    tables.flags.writeable = False
    return tables


def _jump(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Apply each matrix held in byte-sliced `tables` (..., 8, 256) to each word.

    The result has shape tables.shape[:-2] + words.shape: one gather per
    byte of the words, whatever the number of matrices.
    """
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    out = tables[..., 0, :].take(octets[:, 0], axis=-1)
    part = np.empty_like(out)
    for j in range(1, 8):
        tables[..., j, :].take(octets[:, j], axis=-1, out=part)
        out ^= part
    return out.reshape(tables.shape[:-2] + words.shape)


class ScriptedSource(EntropySource):
    """Replays a fixed sequence of integers; a non-integer is a TypeError.

    Raises ScriptExhaustedError when the script runs out, unless `cycle`
    was set, in which case it wraps around; ValueError at a value out of
    range, with the cursor past it.  `_next` holds the one cursor rule
    and the single draws the one range check.
    """

    def __init__(self, values: Sequence[int], cycle: bool = False):
        self.values = tuple(map(operator.index, values))
        self.cycle = cycle
        self.cursor = 0

    def _next(self) -> int:
        if self.cursor >= len(self.values):
            if not self.cycle or not self.values:
                raise ScriptExhaustedError(
                    f"script exhausted after {len(self.values)} values"
                )
            self.cursor = 0
        v = self.values[self.cursor]
        self.cursor += 1
        return v

    def next_bit(self) -> int:
        v = self._next()
        if v not in (0, 1):
            raise ValueError(f"scripted bit source produced {v}, expected 0 or 1")
        return v

    def next_coordinate(self, n_bits: int) -> int:
        n_bits = operator.index(n_bits)
        if n_bits < 2:
            raise ValueError(f"n_bits must be >= 2, got {n_bits}")
        v = self._next()
        if not 1 <= v <= n_bits:
            raise ValueError(f"scripted coordinate {v} outside [1, {n_bits}]")
        return v


def parse_seed(text: str) -> int:
    """Parse a decimal or 0x-prefixed hexadecimal 64-bit seed."""
    value = int(text, 0)
    if not 0 < value <= _MASK64:
        raise ValueError(f"seed must be a nonzero 64-bit value, got {text!r}")
    return value


def parse_script(text: str) -> list[int]:
    """Parse a comma-separated integer list, e.g. "2,4,2,3"."""
    items = [part.strip() for part in text.split(",") if part.strip()]
    if not items:
        raise ValueError("empty script")
    return [int(part, 0) for part in items]
