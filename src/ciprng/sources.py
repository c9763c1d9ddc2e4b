"""Entropy sources feeding the generator.

Two kinds: a 64-bit xorshift used in production, and a scripted replay
source that plays back a fixed list of values for reproducing known
traces in tests.  Every source gives single draws, a bit or a
coordinate at a time.  Xorshift64 also gives arrays of draws, for the
generator's bulk blocks; an array draw of n values equals n single
draws and leaves the source where they would.

The xorshift step is linear over GF(2), so its array draws are matrix
products: words by jump-ahead over byte-sliced tables of the step's
powers, and bits and power-of-two coordinates from only the low bit
planes of the words they would read.
"""

from __future__ import annotations

import functools
import operator
from typing import Sequence

import numpy as np

from .errors import ScriptExhaustedError

_MASK64 = (1 << 64) - 1

# Xorshift64.words steps one word, then doubles the run by jump-ahead
# until blocks of _JUMP_WORDS words are derived from the block before (the
# plane draws walk their anchors the same way).  A power of two, and a cap
# that pays: with uncapped doubling words(2**18) took 8.0-8.3 ms against
# 5.0 ms (2-core Xeon, min of 15 calls).
_JUMP_WORDS = 8192
# bits() and coordinates() at n_bits = 2^j, j <= _MAX_PLANES, read only the
# low j bit planes of the words (see Xorshift64._low_bits).
_MAX_PLANES = 4

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

    The array draws give the same values by other means.  words()
    jumps ahead in blocks.  bits() reads bit plane 0 alone, and
    coordinates() at N = 2, 4, 8 or 16 reads the log2 N low planes,
    without building the words (see _low_bits); other N take
    words() mod N.
    """

    def __init__(self, seed: int = DEFAULT_BIT_SEED):
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
        if n_bits < 2:
            raise ValueError(f"n_bits must be >= 2, got {n_bits}")
        return (self.next_word() % n_bits) + 1

    def words(self, count: int) -> np.ndarray:
        """The next `count` words as a uint64 array.

        The step is linear over GF(2), so word i + d is M^d applied to
        word i, M being the 64x64 step matrix.  The first word is
        stepped; every later block is the jump M^d of the block d words
        before it (see _walk).
        """
        out = np.empty(count, dtype=np.uint64)
        if count:
            out[0] = self.next_word()
            _walk(out, 1)
            self.state = int(out[-1])
        return out

    def bits(self, count: int) -> np.ndarray:
        """The next `count` bits as a uint8 array."""
        return self._low_bits(count, 1)

    def coordinates(self, count: int, n_bits: int) -> np.ndarray:
        """The next `count` coordinates in [1, n_bits] as an int64 array."""
        if n_bits < 2:
            raise ValueError(f"n_bits must be >= 2, got {n_bits}")
        planes = n_bits.bit_length() - 1
        if n_bits == 1 << planes and planes <= _MAX_PLANES:
            return self._low_bits(count, planes).astype(np.int64) + 1
        return (self.words(count) % np.uint64(n_bits)).astype(np.int64) + 1

    def _low_bits(self, count: int, planes: int) -> np.ndarray:
        """The low `planes` bits of each of the next `count` words, as uint8.

        Only every 64th word, an anchor, is walked (by jump-ahead with
        M^64).  Plane p's matrix maps an anchor to one word whose bit b
        is bit p of the word b steps on, so one matrix product per plane
        gives 64 words' bits.  The state is then stepped from the last
        anchor to word count - 1, where count single draws leave it.
        """
        if not count:
            return np.zeros(0, dtype=np.uint8)
        anchors = np.empty(-(-count // 64), dtype=np.uint64)
        anchors[0] = self.next_word()
        _walk(anchors, 64)
        self.state = int(anchors[-1])
        for _ in range((count - 1) % 64):
            self.next_word()
        tables = _plane_tables()
        images = np.stack([_jump(tables[p], anchors) for p in range(planes)])
        bits = np.unpackbits(images.astype("<u8", copy=False).view(np.uint8), axis=1, bitorder="little")
        low = bits[0, :count]
        for p in range(1, planes):
            low |= bits[p, :count] << p
        return low


def _walk(out: np.ndarray, stride: int) -> None:
    """Fill out[1:] by jump-ahead, each entry stride steps past the one before.

    out[0] is given.  Each later block is the jump M^(d stride) of the
    block d entries before it, d doubling from 1 up to _JUMP_WORDS.  An
    entry may be a row of independent words: each word of it moves alone.
    """
    filled = 1
    while filled < len(out):
        span = min(filled, _JUMP_WORDS)
        take = min(span, len(out) - filled)
        out[filled : filled + take] = _jump(
            _jump_tables((span * stride).bit_length() - 1), out[filled - span : filled - span + take]
        )
        filled += take


@functools.cache
def _jump_tables(log_steps: int) -> np.ndarray:
    """M^(2^log_steps) as 8 byte-sliced tables: row j maps byte j of a word.

    Jumping a word is the XOR of its 8 bytes' rows (see _jump).  Each
    matrix is the square of the one before, whose columns (the images of
    the 64 unit words) sit at the rows' single-bit entries.
    """
    if log_steps == 0:
        columns = np.array([Xorshift64(1 << i).next_word() for i in range(64)], dtype=np.uint64)
    else:
        half = _jump_tables(log_steps - 1)
        columns = _jump(half, half[:, 1 << np.arange(8)].ravel())
    return _byte_tables(columns)


@functools.cache
def _plane_tables() -> np.ndarray:
    """The plane matrices of planes 0 to _MAX_PLANES - 1, byte-sliced as in _jump_tables.

    Plane p's matrix maps a word w to the word whose bit b is bit p of
    M^b w, b in [0, 64).  Its columns come from one walk of the 64 unit
    words: row b of the walk holds M^b of each.
    """
    walk = np.empty((64, 64), dtype=np.uint64)
    walk[0] = np.uint64(1) << np.arange(64, dtype=np.uint64)
    _walk(walk, 1)
    planes = np.arange(_MAX_PLANES, dtype=np.uint64)[:, None, None]
    # bits[p, b, i] = bit p of M^b e_i; packing b gives column i of plane p
    bits = ((walk >> planes) & np.uint64(1)).astype(np.uint8)
    packed = np.packbits(bits, axis=1, bitorder="little").transpose(0, 2, 1)
    columns = np.ascontiguousarray(packed).view("<u8")[..., 0]
    return _byte_tables(columns)


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
    """Apply the matrix held in byte-sliced `tables` to each word, keeping the shape."""
    octets = words.astype("<u8", copy=False).view(np.uint8).reshape(-1, 8)
    out = tables[0].take(octets[:, 0])
    part = np.empty_like(out)
    for j in range(1, 8):
        tables[j].take(octets[:, j], out=part)
        out ^= part
    return out.reshape(words.shape)


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
