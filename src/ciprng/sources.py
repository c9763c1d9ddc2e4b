"""Entropy sources feeding the generator.

Two kinds: a 64-bit xorshift used in production, and a scripted replay
source that plays back a fixed list of values for reproducing known
traces in tests.  Both give single draws and arrays of draws; an array
draw of n values equals n single draws, and leaves the source where
they would, also when it fails part way.  A scripted array draw is the
interface default, a replay of single draws.

The xorshift step is linear over GF(2), so its array draws are matrix
products: words by jump-ahead over byte-sliced tables of the step's
powers, and bits and power-of-two coordinates from only the low bit
planes of the words they would read.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .errors import ScriptExhaustedError

_MASK64 = (1 << 64) - 1

# Xorshift64.words steps this many words in Python, then doubles the run
# by jump-ahead until blocks of _JUMP_WORDS words are derived from the
# block before (the plane draws walk their anchors the same way, in blocks
# of _JUMP_WORDS anchors).  Both are powers of two.
_SEED_WORDS = 64
_JUMP_WORDS = 8192
# bits() and coordinates() at n_bits = 2^j, j <= _MAX_PLANES, read only the
# low j bit planes of the words (see Xorshift64._low_bits).
_MAX_PLANES = 4

# arbitrary documented nonzero defaults (golden-ratio and Weyl-type words)
DEFAULT_BIT_SEED = 0x9E3779B97F4A7C15
DEFAULT_COORD_SEED = 0xD1B54A32D192ED03


class EntropySource:
    """Source interface: a bit stream and a coordinate stream.

    A source must give next_bit and next_coordinate.  The array draws
    default to repeated single draws, so a failing one raises where the
    single draws would, leaving the values before it drawn.  A source
    may override them only with draws that give the same values and
    end in the same place.  getstate/setstate are optional:
    without them CiGenerator.states runs the round loop, since it can
    only draw a block in bulk from a source it can rewind.
    """

    def next_bit(self) -> int:
        raise NotImplementedError

    def next_coordinate(self, n_bits: int) -> int:
        raise NotImplementedError

    def bits(self, count: int) -> np.ndarray:
        """The next `count` bits as a uint8 array."""
        return np.array([self.next_bit() for _ in range(count)], dtype=np.uint8)

    def coordinates(self, count: int, n_bits: int) -> np.ndarray:
        """The next `count` coordinates in [1, n_bits] as an int64 array."""
        return np.array([self.next_coordinate(n_bits) for _ in range(count)], dtype=np.int64)

    def getstate(self):
        """An object that setstate() takes to return the source to this point."""
        raise NotImplementedError

    def setstate(self, state) -> None:
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
        word i, M being the 64x64 step matrix.  The first words are
        stepped one at a time; every later block is the jump M^d of the
        block d words before it (see _walk).
        """
        out = np.empty(count, dtype=np.uint64)
        head = [self.next_word() for _ in range(min(count, _SEED_WORDS))]
        out[: len(head)] = head
        _walk(out, len(head), 1)
        if count:
            self.state = int(out[-1])
        return out

    def bits(self, count: int) -> np.ndarray:
        return self._low_bits(count, 1)

    def coordinates(self, count: int, n_bits: int) -> np.ndarray:
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
        _walk(anchors, 1, 64)
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

    def getstate(self) -> int:
        return self.state

    def setstate(self, state: int) -> None:
        self.state = state


def _walk(out: np.ndarray, filled: int, stride: int) -> None:
    """Fill out[filled:] by jump-ahead, each entry stride steps past the one before.

    out[:filled] is given.  Each later block is the jump M^(d stride) of
    the block d entries before it, d doubling from `filled` up to
    _JUMP_WORDS; `filled` is a power of two or all of out.  An entry may
    be a row of independent words: each word of it moves alone.
    """
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
    _walk(walk, 1, 1)
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
    """Replays a fixed sequence of integers.

    Raises ScriptExhaustedError when the script runs out, unless `cycle`
    was set, in which case it wraps around; ValueError at a value out of
    range, with the cursor past it.  The array draws are the interface
    defaults, replays of single draws, so `_next` holds the one cursor
    rule and the single draws the one range check.
    """

    def __init__(self, values: Sequence[int], cycle: bool = False):
        self.values = tuple(int(v) for v in values)
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

    def getstate(self) -> int:
        return self.cursor

    def setstate(self, state: int) -> None:
        self.cursor = state


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
