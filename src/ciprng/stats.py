"""Statistical battery over bitstreams.

Seven significance tests of the NIST SP 800-22 family are implemented
here for desk-scale evaluation: frequency (monobit), block frequency,
runs, longest run of ones in a block, cumulative sums, serial, and
approximate entropy.  Streams can also be exported bit-exactly (raw
bytes or ASCII '0'/'1') for the official external suites, which cover
the remaining tests.

Each test returns a p-value in [0, 1]; a stream passes a test when its
p-value is at least the significance level (0.01 by default).

The p-values need no special-function library.  Frequency, runs and
cumulative sums use `math.erfc`; the chi-square tests use `_igamc`, the
regularized upper incomplete gamma function, computed here from its
power series and continued fraction, as the reference tool carries its
own.  The cumulative-sums p-value sums normal-CDF differences over k;
only the few k whose CDF arguments are not both above +8.3 nor both
below -40 are summed, as every other term is exactly 0 in double
(`_cusum_p`).

`run_battery` checks the stream once and packs it once, MSB first, into
a zero-padded buffer of whole 64-bit words (`_Packed`); every count reads
that buffer, or arrays of its words made from it once:

* frequency counts the ones by popcount, and runs counts the changes
  between neighbouring bits as the popcount of each 64-bit word XOR the
  word shifted left by one bit, topped up from the next word;
* block frequency takes each block's ones as the difference of the ones
  before its two ends: popcounts summed over whole words
  (`_Packed.ones_before`), plus those of a word's leading bits, the same
  for any block size (`_block_ones`);
* cumulative sums takes the partial sums at every word's end from those
  same summed popcounts, and opens only the words whose two end sums
  leave room for a sum beyond the extremes among them, reading their
  16-bit quarters through per-quarter tables of net step, highest and
  lowest prefix (`_cusum_excursions`);
* longest run reads 16-bit words through per-word tables of leading
  ones, trailing ones and longest inner run (`_run_tables`): its blocks
  of 128 or 10^4 bits are a prefix of the buffer's 16-bit words, and a
  block of 8 is one word, the block in its high byte and 0 in its low
  byte.  A block's longest run is its largest inner run or its largest
  trailing-plus-leading sum over adjacent words, exact once clipped to
  the top class, which is at most 16;
* serial and approximate entropy both read counts of the overlapping
  windows of the circular stream.  The battery counts once, at the wider
  of the two widths the tests need, and merges those counts down to each
  narrower width (`_marginal`).  Windows of every width m come from one
  histogram of the leading m + 3 bits of the words that start at every
  fourth bit, read from the buffer's bytes and the few bytes after them
  that hold the stream's start again; pairwise adds of halves sum them
  down to m bits.  The words are 16 bits wide up to m = 13, 32 up to
  m = 29 and 64 beyond (`_pattern_counts`).

The backward partial sums of cumulative sums are the total minus the
forward ones, so a single forward scan gives both excursions.  The tables
are built on first use.  Every count is an exact integer, the same as a
bit-by-bit count, so no p-value moves.

An ASCII stream that is '0'/'1' digits followed by trailing whitespace
only, as `export_stream` writes it, is read with one `np.frombuffer`;
any other text has its whitespace deleted first (`_parse_ascii_bits`).

Each standalone test packs its own copy and calls the same kernels, so a
p-value from `run_battery` equals, bit for bit, the one its test gives
alone.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import bitops
from .errors import StreamTooShortError


# ---------------------------------------------------------------------------
# the packed stream

class _Packed:
    """A checked bit stream, packed MSB first, once, into a zero-padded
    buffer of whole 64-bit words with at least one zero bit after the
    stream.  Every count reads this buffer, or arrays of its words made
    from it on first use.
    """

    def __init__(self, bits: np.ndarray):
        self.n = n = bits.size
        packed = np.packbits(bits)
        self.buffer = np.zeros(8 * (n // 64 + 1), dtype=np.uint8)
        self.buffer[: packed.size] = packed

    @functools.cached_property
    def words64(self) -> np.ndarray:
        """The buffer's big-endian 64-bit words, in native order."""
        return self.buffer.view(">u8").astype(np.uint64)

    @functools.cached_property
    def words16(self) -> np.ndarray:
        """The buffer's big-endian 16-bit words, as table indices."""
        return self.buffer.view(">u2").astype(np.intp)

    @functools.cached_property
    def ones(self) -> int:
        return int(np.bitwise_count(self.buffer.view(np.uint64)).sum())

    @functools.cached_property
    def ones_before(self) -> np.ndarray:
        """The ones in the words64 before each of them, then in all of them:
        a cumulative sum of popcounts, one longer than words64."""
        before = np.zeros(self.words64.size + 1, dtype=np.int64)
        np.cumsum(np.bitwise_count(self.words64), out=before[1:])
        return before


def _check_length(n: int, test: str, minimum: int) -> None:
    if n < minimum:
        raise StreamTooShortError(test, minimum, n)


def _packed(bits, test: str, minimum: int) -> _Packed:
    arr = bitops.as_bit_array(bits)
    _check_length(arr.size, test, minimum)
    return _Packed(arr)


# ---------------------------------------------------------------------------
# individual tests

def frequency_monobit(bits) -> float:
    """Balance of ones vs zeros over the whole stream."""
    return _frequency_p(_packed(bits, "frequency", 100))


def _frequency_p(stream: _Packed) -> float:
    s = abs(2 * stream.ones - stream.n)
    return math.erfc(s / math.sqrt(stream.n) / math.sqrt(2.0))


def block_frequency(bits, block_size: int = 128) -> float:
    """Balance of ones within fixed-size blocks."""
    block_size = operator.index(block_size)
    stream = _packed(bits, "block-frequency", 100)
    _check_blocks(stream.n, block_size)
    return _block_frequency_p(stream, block_size)


def _check_blocks(n: int, block_size: int) -> None:
    if block_size < 2:
        raise ValueError(f"block_size must be >= 2, got {block_size}")
    if n // block_size < 1:
        raise StreamTooShortError("block-frequency", block_size, n)


def _block_frequency_p(stream: _Packed, block_size: int) -> float:
    pi = _block_ones(stream, block_size) / block_size
    chi2 = 4.0 * block_size * float(((pi - 0.5) ** 2).sum())
    return _igamc(pi.size / 2.0, chi2 / 2.0)


def _block_ones(stream: _Packed, size: int) -> np.ndarray:
    """Ones in each whole `size`-bit block.

    The ones before bit p are the ones of the 64-bit words before word
    p // 64 (`_Packed.ones_before`) plus those of the leading p % 64 bits
    of that word; a block's ones are the difference of that count at its
    two ends.  Any block size reads the same words.
    """
    words = stream.words64
    ends = np.arange(0, stream.n // size * size + 1, size, dtype=np.uint64)
    at = ends >> 6
    lead = ~(np.uint64(0xFFFF_FFFF_FFFF_FFFF) >> (ends & 63))  # the leading p % 64 bits
    return np.diff(stream.ones_before[at] + np.bitwise_count(words[at] & lead))


def runs(bits) -> float:
    """Total number of maximal constant runs vs the expectation."""
    return _runs_p(_packed(bits, "runs", 100))


def _runs_p(stream: _Packed) -> float:
    n = stream.n
    pi = stream.ones / n
    if abs(pi - 0.5) >= 2.0 / math.sqrt(n):
        return 0.0  # frequency precondition failed; the test is decisive
    v = 1 + _transitions(stream)
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * math.sqrt(2.0 * n) * pi * (1.0 - pi)
    return math.erfc(num / den)


def _transitions(stream: _Packed) -> int:
    """Number of i < n - 1 with bit i unlike bit i + 1.

    Each 64-bit word, shifted left one bit and topped up with the next
    word's first bit, lines every bit up with the one after it, so the
    popcount of its XOR with the word counts the word's changes.  The
    padding is zeros, so past the stream only bit n - 1 against the zero
    after it can count, and it is taken off.
    """
    words = stream.words64
    shifted = words << 1
    shifted[:-1] |= words[1:] >> 63
    shifted ^= words
    last = stream.n - 1
    return int(np.bitwise_count(shifted).sum()) - (int(stream.buffer[last >> 3]) >> (7 - last % 8) & 1)


# per-regime constants: (minimum n, block size M, degrees K, run-length
# classes, class probabilities).  The M=8 and M=128 probabilities are the
# exact run-length distribution (verifiable by direct counting); the
# M=10000 row keeps the reference tool's published 4-decimal table, which
# that tool hardcodes, so p-values stay comparable with it.
_LONGEST_RUN_REGIMES = (
    (128, 8, 3, (1, 2, 3, 4), (0.21484375, 0.3671875, 0.23046875, 0.1875)),
    (
        6272,
        128,
        5,
        (4, 5, 6, 7, 8, 9),
        (0.1174035788, 0.2429559593, 0.2493634832, 0.1751770603, 0.1027010713, 0.1123988471),
    ),
    (
        750000,
        10000,
        6,
        (10, 11, 12, 13, 14, 15, 16),
        (0.0882, 0.2092, 0.2483, 0.1933, 0.1208, 0.0675, 0.0727),
    ),
)


def longest_run_of_ones(bits) -> float:
    """Distribution of the longest run of ones per block."""
    return _longest_run_p(_packed(bits, "longest-run", 128))


def _longest_run_p(stream: _Packed) -> float:
    n = stream.n
    _, m, k, classes, pi = [regime for regime in _LONGEST_RUN_REGIMES if n >= regime[0]][-1]
    n_blocks = n // m
    longest = _clipped_longest_runs(stream, m, classes[0], classes[-1])
    counts = np.bincount(longest - classes[0], minlength=k + 1)
    expected = n_blocks * np.asarray(pi)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return _igamc(k / 2.0, chi2 / 2.0)


def _clipped_longest_runs(stream: _Packed, m: int, lo: int, hi: int) -> np.ndarray:
    """Longest run of ones in each whole m-bit block, clipped to [lo, hi];
    m is 8 or a multiple of 16, and hi <= 16.

    Each block is read as 16-bit words: the stream's own, or for m = 8 one
    word per block, the block in its high byte and 0 in its low byte.  A
    run inside one word is that word's longest inner run; a run across one
    word boundary is the trailing ones of the word before it plus the
    leading ones of the word after it.  A run across two boundaries holds a
    whole word of ones, whose inner run of 16 already clips to hi, so the
    clipped block maximum is exact.  The leading ones of each block's first
    word are set to 0, so the last word of the block before adds only its
    trailing ones, which its inner run already covers.
    """
    per = -(-m // 16)  # words a block
    words = stream.words16 if m % 16 == 0 else stream.buffer.astype(np.intp) << 8
    words = words[: stream.n // m * per]
    lead, trail, inner = _run_tables()
    after = lead.take(words)
    after[::per] = 0
    longest = trail.take(words)
    longest[:-1] += after[1:]
    np.maximum(longest, inner.take(words), out=longest)
    return np.clip(longest.reshape(-1, per).max(axis=1), lo, hi)


@functools.cache
def _run_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per 16-bit word, its bits read MSB first: the number of leading
    ones, of trailing ones, and its longest run of ones, composed from the
    same three counts of each byte.
    """
    bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
    lead8 = np.cumprod(bits, axis=1).sum(axis=1, dtype=np.uint8)[:, None]
    trail8 = np.cumprod(bits[:, ::-1], axis=1).sum(axis=1, dtype=np.uint8)[:, None]
    run = inner8 = np.zeros((256, 1), dtype=np.uint8)
    for column in bits.T:
        run = (run + 1) * column[:, None]
        inner8 = np.maximum(inner8, run)
    # rows index the word's high byte, columns its low byte
    lead = np.where(lead8 == 8, 8 + lead8.T, lead8)
    trail = np.where(trail8.T == 8, 8 + trail8, trail8.T)
    inner = np.maximum(np.maximum(inner8, inner8.T), trail8 + lead8.T)
    return lead.ravel(), trail.ravel(), inner.ravel()


def cumulative_sums(bits) -> tuple[float, float]:
    """Maximal partial-sum excursion, scanned forward and backward."""
    return _cusum_ps(_packed(bits, "cumulative-sums", 100))


def _cusum_ps(stream: _Packed) -> tuple[float, float]:
    z_fwd, z_bwd = _cusum_excursions(stream)
    return _cusum_p(stream.n, z_fwd), _cusum_p(stream.n, z_bwd)


def _cusum_excursions(stream: _Packed) -> tuple[int, int]:
    """Largest |partial sum| of the +-1 steps, read forward and backward.

    Read backward, the partial sums are S_n - S_i for i = 0..n-1, with
    S_0 = 0, so their largest magnitude follows from the range of
    S_1..S_n widened to 0.

    The sums at the ends of the stream's whole 64-bit words come from
    their popcounts (`_Packed.ones_before`), and those in the partial word
    after them bit by bit.  Inside a word that starts at sum s and ends at
    sum e, the sum t bits in is at most s + t and at most e + 64 - t, so
    it lies within (s + e +- 64) / 2.  Only a word whose bound passes the
    highest or lowest of the sums already known can hold a sum beyond
    them, and only those words are opened, a 16-bit quarter at a time,
    through the per-quarter tables.  On random 10^6-bit streams that is 33
    to 147 of the 15,625 words (20 seeds); on a stream as flat as
    alternating bits it is every word, which then costs about what one
    table pass over the whole stream costs.
    """
    net, up, down = _cusum_tables()
    n = stream.n
    whole = n // 64
    # S at the start of every whole word, and at the end of the last one
    sums = 2 * stream.ones_before[: whole + 1] - np.arange(0, 64 * whole + 1, 64)
    last = np.unpackbits(stream.buffer[8 * whole :], count=n % 64).astype(np.int64)
    ends = np.concatenate([sums[1:], sums[-1] + np.cumsum(2 * last - 1)])
    top, bottom = int(ends.max()), int(ends.min())
    pair = sums[:-1] + sums[1:]  # s + e of each whole word
    words = np.flatnonzero((pair > 2 * top - 64) | (pair < 2 * bottom + 64))
    # the opened words' big-endian bytes, as four 16-bit quarters each;
    # the sums inside a word, less its start sum, lie within +-64
    quarters = stream.buffer.view(">u8")[words].view(">u2").reshape(-1, 4)
    inside = np.zeros(words.size, dtype=np.int8)
    high = np.full(words.size, -64, dtype=np.int8)
    low = np.full(words.size, 64, dtype=np.int8)
    for k in range(4):
        quarter = quarters[:, k].astype(np.intp)
        inside += net.take(quarter)  # at the quarter's end
        np.maximum(high, inside + up.take(quarter), out=high)
        np.minimum(low, inside + down.take(quarter), out=low)
    top = int((sums[words] + high).max(initial=top))
    bottom = int((sums[words] + low).min(initial=bottom))
    total = int(ends[-1])
    return max(top, -bottom), max(total - min(bottom, 0), max(top, 0) - total)


@functools.cache
def _cusum_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per 16-bit quarter of a 64-bit word, its bits read MSB first as +-1
    steps: the net step, and the highest and lowest partial sum within the
    quarter less that net step, as int8.  Composed from the same three
    numbers for each byte.
    """
    steps = 2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).astype(np.int8) - 1
    sums = np.cumsum(steps, axis=1, dtype=np.int8)
    net8, top8, bot8 = sums[:, -1:], sums.max(axis=1, keepdims=True), sums.min(axis=1, keepdims=True)
    # rows index the quarter's high byte, columns its low byte
    net = net8 + net8.T
    top = np.maximum(top8, net8 + top8.T)
    bot = np.minimum(bot8, net8 + bot8.T)
    return net.ravel(), (top - net).ravel(), (bot - net).ravel()


def _cusum_p(n: int, z: int) -> float:
    """p-value of a largest excursion z >= 1 over n steps.

    Each sum runs over the k whose two normal-CDF arguments are not both
    above +8.3 nor both below -40: from +8.2924 on the CDF is 1.0 in
    double and from -38.5 on it is 0.0, so every term left out is exactly
    0.  That leaves about 12 sqrt(n) / z of the n / (2z) terms in each
    sum: a dozen at a stream's usual z of about sqrt(n), and 12,000 at
    n = 10^6 for the z of 1 of alternating bits.
    """
    sqrt_n = math.sqrt(n)
    nz = n // z
    # 4k + c past these puts (4k + c) z / sqrt(n) above 8.3 or below -40
    high, low = 8.3 * sqrt_n / z, -40.0 * sqrt_n / z

    def phi_term(lo: int, hi: int, a: int, b: int) -> float:
        lo = max(lo, math.ceil((low - a) / 4))
        hi = min(hi, math.floor((high - b) / 4))
        return math.fsum(
            _ndtr((4 * k + a) * z / sqrt_n) - _ndtr((4 * k + b) * z / sqrt_n) for k in range(lo, hi + 1)
        )

    sum1 = phi_term(_c_div(-nz + 1, 4), _c_div(nz - 1, 4), 1, -1)
    sum2 = phi_term(_c_div(-nz - 3, 4), _c_div(nz - 1, 4), 3, 1)
    # with both sums near 0 (z small against sqrt(n)) rounding can carry
    # the difference a few ulps past 1
    return min(1.0, max(0.0, 1.0 - sum1 + sum2))


def _ndtr(x: float) -> float:
    """The standard normal CDF."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _c_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (C semantics)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def serial(bits, block: int = 10) -> tuple[float, float]:
    """Uniformity of overlapping block-bit patterns (two difference stats)."""
    block = operator.index(block)
    stream = _packed(bits, "serial", _window_minimum("serial", block))
    return _serial_p(_pattern_counts(stream, block), stream.n)


def _window_minimum(test: str, block: int) -> int:
    """The least stream the window test `test` takes at `block`:
    2^(block + 3) bits for serial, whose block is at least 2, and
    2^(block + 6) for approximate entropy, whose block is at least 1.  A
    smaller block is a ValueError, and so is one whose minimum no stream
    reaches (past sys.maxsize bits), decided before the power is built:
    at block 10^5 it has 30,000 digits, too many to print, and at 10^20
    too many to build."""
    least, extra = {"serial": (2, 3), "approximate-entropy": (1, 6)}[test]
    if block < least:
        raise ValueError(f"block must be >= {least}, got {block}")
    if block + extra >= sys.maxsize.bit_length():
        raise ValueError(f"{test}: block {block} is too large; no stream reaches 2^{block + extra} bits")
    return 1 << (block + extra)


def _serial_p(counts: np.ndarray, n: int) -> tuple[float, float]:
    """Serial p-values from the counts of the n overlapping block-bit windows."""
    block = counts.size.bit_length() - 1
    psi_m = _psi_sq(counts, n)
    counts = _marginal(counts)
    psi_m1 = _psi_sq(counts, n)
    psi_m2 = _psi_sq(_marginal(counts), n)
    del1 = psi_m - psi_m1
    del2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = _igamc(2.0 ** (block - 2), del1 / 2.0)
    p2 = _igamc(2.0 ** (block - 3), del2 / 2.0)
    return p1, p2


def approximate_entropy(bits, block: int = 10) -> float:
    """Entropy gap between block- and (block+1)-bit pattern frequencies."""
    block = operator.index(block)
    stream = _packed(bits, "approximate-entropy", _window_minimum("approximate-entropy", block))
    return _apen_p(_pattern_counts(stream, block + 1), stream.n)


def _apen_p(counts_up: np.ndarray, n: int) -> float:
    """Approximate-entropy p-value from the counts of the n (block+1)-bit windows."""
    block = counts_up.size.bit_length() - 2
    phi_up = _phi(counts_up, n)
    phi_lo = _phi(_marginal(counts_up), n)
    apen = phi_lo - phi_up
    chi2 = 2.0 * n * (np.log(2.0) - apen)
    return _igamc(2.0 ** (block - 1), chi2 / 2.0)


def _pattern_counts(stream: _Packed, m: int) -> np.ndarray:
    """Counts of the n overlapping m-bit windows of the circular stream.

    The stream is read as the big-endian words that start at bits 0, 4,
    8, ..., each of the narrowest width w of 16, 32 and 64 bits that holds
    m + 3 bits: the leading m + 3 bits of the word at bit 4j hold the
    windows starting at bits 4j..4j+3 whole, so one histogram of those
    (m + 3)-bit values, summed down to m bits at each of the four offsets,
    counts every window.  The stream holds at least 2^(m + 3) bits, as
    every caller checks, so the histogram has no more bins than the stream
    has bits.  The n % 4 windows after the last whole group of four are
    read one by one from the next word.  The words are made from
    the packed buffer's whole bytes and the few bytes after them that hold
    the stream's start again.
    """
    n = stream.n
    width = 16 if m <= 13 else 32 if m <= 29 else 64
    size = width // 8  # bytes per word
    groups = n // 4
    n_even = (groups + 1) // 2  # how many groups start at a byte
    # the bytes holding bits 0 .. 8 (n_even + size) - 1 of the circular
    # stream: the stream's whole bytes, then bits from 8 (n // 8) on, read
    # modulo n
    head = n // 8
    at = np.arange(8 * head, 8 * (n_even + size)) % n
    packed = np.empty(n_even + size, dtype=f"u{size}")
    packed[:head] = stream.buffer[:head]
    packed[head:] = np.packbits(stream.buffer[at >> 3] >> (7 - (at & 7)) & 1)
    even = packed[: n_even + 1]  # the words at bits 8k, shifted in a byte at a time
    for i in range(1, size):
        even = (even << 8) | packed[i : n_even + 1 + i]
    # the words at bits 8k + 4: the word at 8k shifted by a nibble, topped up from byte k + size
    odd = (even[:n_even] << 4) | (packed[size:] >> 4)
    # the order of the words does not matter to a histogram, so the two
    # kinds are placed one after the other rather than interleaved
    # the leading m + 3 bits of each word, as bincount's index type
    lead = np.empty(groups, dtype=np.intp)
    np.right_shift(even[:n_even], width - 3 - m, out=lead[:n_even])
    np.right_shift(odd[: groups // 2], width - 3 - m, out=lead[n_even:])
    # after pass j, `counts` holds the (m + 3 - j)-bit windows at offsets
    # 0..j of the words' leading m + 3 bits: dropping a leading bit moves
    # those at 0..j-1 to 1..j, and `trailing` adds the one at offset 0
    counts = trailing = np.bincount(lead, minlength=1 << (m + 3))
    for _ in range(3):
        half = counts.size // 2
        trailing = _marginal(trailing)
        counts = counts[:half] + counts[half:] + trailing
    # the word at bit 4 groups, which holds the n % 4 windows left
    last = int((odd if groups % 2 else even)[groups // 2])
    for offset in range(n % 4):
        counts[(last >> (width - offset - m)) & ((1 << m) - 1)] += 1
    return counts


def _marginal(counts: np.ndarray, drop: int = 1) -> np.ndarray:
    """Window counts `drop` bits shorter: merge the extensions of each prefix."""
    for _ in range(drop):
        counts = counts[0::2] + counts[1::2]
    return counts


def _psi_sq(counts: np.ndarray, n: int) -> float:
    m_size = counts.size  # 2^m
    return float((counts.astype(np.float64) ** 2).sum() * m_size / n - n)


def _phi(counts: np.ndarray, n: int) -> float:
    c = counts[counts > 0].astype(np.float64) / n
    return float((c * np.log(c)).sum())


def chi_square_symbols(states: Sequence[int], n_bits: int) -> float:
    """Chi-square uniformity of round outputs over [0, 2^N - 1]."""
    if n_bits + 3 > sys.maxsize.bit_length():  # 5 << n_bits past sys.maxsize: see _window_minimum
        raise ValueError(f"chi-square-symbols: n_bits {n_bits} is too large; no stream reaches 5 x 2^{n_bits} states")
    size = 1 << n_bits
    arr = np.asarray(states, dtype=np.int64)
    if arr.size < 5 * size:
        raise StreamTooShortError("chi-square-symbols", 5 * size, arr.size, unit="states")
    if arr.min() < 0 or arr.max() >= size:
        raise ValueError(f"states outside [0, {size - 1}]")
    counts = np.bincount(arr, minlength=size)
    expected = arr.size / size
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return _igamc((size - 1) / 2.0, chi2 / 2.0)


# the coefficients B_2k / (2k (2k - 1)) of Stirling's series for ln Gamma
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360, 1 / 156, -3617 / 122400)
_TINY = 1e-300


def _igamc(a: float, x: float) -> float:
    """The regularized upper incomplete gamma function Q(a, x), a > 0.

    Below x = a + 1 it is 1 - P(a, x), P from its power series; above,
    the modified Lentz evaluation of its continued fraction (Numerical
    Recipes, section 6.2).  Both scale the common factor
    x^a e^-x / Gamma(a), which is taken as
    sqrt(a / 2 pi) exp(a ln(x/a) - d - r(a)) with d = x - a and r the
    remainder of Stirling's formula, so that no two terms of size a ln a
    cancel; near x = a, ln(x/a) is log1p(d/a).  Edge values: Q(a, 0) = 1,
    Q(a, inf) = 0, and nan for x < 0, for a nan, and for a <= 0.
    """
    if not (a > 0.0 and x >= 0.0):
        return math.nan
    if x == 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    d = x - a
    log_ratio = math.log1p(d / a) if x > 0.5 * a else math.log(x) - math.log(a)
    lead = math.sqrt(a / (2.0 * math.pi)) * math.exp(a * log_ratio - d - _stirling_remainder(a))
    if x < a + 1.0:
        # the n-th term x^n / ((a+1)...(a+n)) is at most
        # exp(-n (n-1) / (2 (a+n))), under e^-45 from n = 91 + sqrt(90 a) on
        terms = np.cumprod(x / np.arange(a + 1.0, a + 91.5 + math.ceil(math.sqrt(90.0 * a))))
        return 1.0 - lead * (1.0 + float(terms.sum())) / a
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = h = 1.0 / b
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 2.0**-53:
            return lead * h


def _stirling_remainder(a: float) -> float:
    """ln Gamma(a) - ((a - 1/2) ln a - a + ln(2 pi) / 2)."""
    if a < 10.0:
        return math.lgamma(a) - (a - 0.5) * math.log(a) + a - 0.5 * math.log(2.0 * math.pi)
    inv_sq = 1.0 / (a * a)
    series = 0.0
    for coefficient in reversed(_STIRLING):
        series = series * inv_sq + coefficient
    return series / a


# ---------------------------------------------------------------------------
# battery and report

@dataclass(frozen=True)
class BatteryConfig:
    """Battery parameters; defaults suit 10^6-bit streams.  The three sizes
    are taken as ints (numpy integers too); any other type is a TypeError."""

    significance: float = 0.01
    block_size: int = 128
    serial_block: int = 10
    apen_block: int = 10

    def __post_init__(self):
        for name in ("block_size", "serial_block", "apen_block"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        if not 0.0 < self.significance < 1.0:
            raise ValueError(f"significance must be in (0, 1), got {self.significance}")


@dataclass(frozen=True)
class SubResult:
    name: str
    p_value: float
    passed: bool


@dataclass(frozen=True)
class TestResult:
    """One battery entry.

    Tests producing several p-values keep them in `sub_results`; the
    headline `p_value` is then their arithmetic mean (so labeled in the
    report) and `passed` compares that mean to the significance level.
    """

    name: str
    p_value: float
    passed: bool
    sub_results: tuple[SubResult, ...] = ()


@dataclass(frozen=True)
class TestReport:
    stream_length: int
    significance: float
    results: tuple[TestResult, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def as_text(self) -> str:
        lines = [
            f"stream length: {self.stream_length} bits, significance: {self.significance}"
        ]
        width = max(len(r.name) for r in self.results) + 14
        for r in self.results:
            label = r.name + (" (mean)" if r.sub_results else "")
            lines.append(f"{label:<{width}} {r.p_value:.6f}  {_verdict(r.passed)}")
            for sub in r.sub_results:
                lines.append(f"  {sub.name:<{width - 2}} {sub.p_value:.6f}  {_verdict(sub.passed)}")
        return "\n".join(lines) + "\n"

    def as_porcelain(self) -> str:
        lines = []
        for r in self.results:
            lines.append(f"{r.name}\t{r.p_value:.6f}\t{_verdict(r.passed)}")
            for sub in r.sub_results:
                lines.append(f"{r.name}/{sub.name}\t{sub.p_value:.6f}\t{_verdict(sub.passed)}")
        return "\n".join(lines) + "\n"


def _verdict(passed: bool) -> str:
    return "PASS" if passed else "FAIL"


def run_battery(bits, config: Optional[BatteryConfig] = None) -> TestReport:
    """Run all seven tests and report per-test p-values and verdicts."""
    cfg = config or BatteryConfig()
    arr = bitops.as_bit_array(bits)
    n = arr.size
    alpha = cfg.significance

    def single(name: str, p: float) -> TestResult:
        return TestResult(name, p, p >= alpha)

    def grouped(name: str, parts: Sequence[tuple[str, float]]) -> TestResult:
        subs = tuple(SubResult(sub, p, p >= alpha) for sub, p in parts)
        mean = float(np.mean([p for _, p in parts]))
        return TestResult(name, mean, mean >= alpha, subs)

    # inputs are checked in the order cumulative sums, serial, block
    # frequency, longest run, approximate entropy (frequency and runs need
    # what cumulative sums needs): a stream or block refused by several
    # tests raises the error of the first of them
    _check_length(n, "cumulative-sums", 100)
    _check_length(n, "serial", _window_minimum("serial", cfg.serial_block))
    _check_blocks(n, cfg.block_size)
    _check_length(n, "longest-run", 128)
    _check_length(n, "approximate-entropy", _window_minimum("approximate-entropy", cfg.apen_block))
    stream = _Packed(arr)
    width = max(cfg.serial_block, cfg.apen_block + 1)
    counts = _pattern_counts(stream, width)  # one count serves both window tests
    p1, p2 = _serial_p(_marginal(counts, width - cfg.serial_block), n)
    fwd, bwd = _cusum_ps(stream)
    return TestReport(n, alpha, (
        single("frequency", _frequency_p(stream)),
        single("block-frequency", _block_frequency_p(stream, cfg.block_size)),
        grouped("cumulative-sums", [("forward", fwd), ("backward", bwd)]),
        single("runs", _runs_p(stream)),
        single("longest-run", _longest_run_p(stream)),
        grouped("serial", [("delta1", p1), ("delta2", p2)]),
        single("approximate-entropy", _apen_p(_marginal(counts, width - cfg.apen_block - 1), n)),
    ))


# ---------------------------------------------------------------------------
# stream export for the official external suites

def export_stream(bits, fmt: str, path: str | Path) -> None:
    """Write a stream to disk: 'raw-bytes' (MSB-first) or 'ascii-01'."""
    arr = bitops.as_bit_array(bits)
    if fmt == "raw-bytes":
        Path(path).write_bytes(bitops.pack_bits(arr))
    elif fmt == "ascii-01":
        Path(path).write_text(bitops.bits_to_str(arr) + "\n", encoding="ascii")
    else:
        raise ValueError(f"unknown format {fmt!r}; use 'raw-bytes' or 'ascii-01'")


def read_stream(path: str | Path, fmt: str) -> np.ndarray:
    """Read a stream written by export_stream back into a bit array."""
    if fmt == "raw-bytes":
        return bitops.unpack_bits(Path(path).read_bytes())
    if fmt == "ascii-01":
        return _parse_ascii_bits(Path(path).read_bytes())
    raise ValueError(f"unknown format {fmt!r}; use 'raw-bytes' or 'ascii-01'")


# the ASCII characters str.split() splits at, which include \x1c-\x1f
_SPLIT_WHITESPACE = bytes(c for c in range(128) if chr(c).isspace())


def _parse_ascii_bits(data: bytes) -> np.ndarray:
    """The 0/1 characters of `data` as a bit array, whitespace dropped.

    Equal to decoding `data` as ASCII and passing the text, its
    whitespace removed, to bitops.as_bit_array, errors included, but
    without making the text and its pieces.  Digits followed by trailing
    whitespace only, as export_stream writes them, are read in place, up
    to the last digit; any other input has its whitespace deleted first.
    """
    end = len(data)
    while end and data[end - 1] in _SPLIT_WHITESPACE:
        end -= 1
    try:
        return bitops.as_bit_array(np.frombuffer(data, dtype=np.uint8, count=end) - ord("0"))
    except ValueError:
        pass  # a byte before the trailing whitespace is not '0' or '1'
    if not data.isascii():
        data.decode("ascii")  # raises the decoder's own UnicodeDecodeError
    digits = np.frombuffer(data.translate(None, _SPLIT_WHITESPACE), dtype=np.uint8)
    return bitops.as_bit_array(digits - ord("0"))
