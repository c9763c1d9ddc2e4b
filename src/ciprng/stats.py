"""Statistical battery over bitstreams.

Seven significance tests of the NIST SP 800-22 family are implemented
here for desk-scale evaluation: frequency (monobit), block frequency,
runs, longest run of ones in a block, cumulative sums, serial, and
approximate entropy.  Streams can also be exported bit-exactly (raw
bytes or ASCII '0'/'1') for the official external suites, which cover
the remaining tests.

Each test returns a p-value in [0, 1]; a stream passes a test when its
p-value is at least the significance level (0.01 by default).

`run_battery` shares the work of its two costliest steps:

* serial and approximate entropy both read counts of the overlapping
  windows of the stream.  The battery counts once, at the wider of the
  two widths the tests need, and merges those counts down to each
  narrower width (`_marginal`); the counts are integers, so each test
  sees the counts it would have made itself.
* cumulative sums reads the largest partial-sum excursion forward and
  backward.  The backward partial sums are the total minus the forward
  ones, so a single forward scan gives both excursions.

The standalone tests call the same helpers, so a p-value from
`run_battery` equals, bit for bit, the one its test gives alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
import scipy  # scipy.special loads on first use, not on every `import ciprng`

from . import bitops
from .errors import StreamTooShortError


# ---------------------------------------------------------------------------
# individual tests

def frequency_monobit(bits) -> float:
    """Balance of ones vs zeros over the whole stream."""
    arr = _require(bits, "frequency", 100)
    s = abs(2 * int(arr.sum()) - arr.size)
    return float(scipy.special.erfc(s / np.sqrt(arr.size) / np.sqrt(2.0)))


def block_frequency(bits, block_size: int = 128) -> float:
    """Balance of ones within fixed-size blocks."""
    arr = _require(bits, "block-frequency", 100)
    if block_size < 2:
        raise ValueError(f"block_size must be >= 2, got {block_size}")
    n_blocks = arr.size // block_size
    if n_blocks < 1:
        raise StreamTooShortError("block-frequency", block_size, arr.size)
    pi = arr[: n_blocks * block_size].reshape(n_blocks, block_size).mean(axis=1)
    chi2 = 4.0 * block_size * float(((pi - 0.5) ** 2).sum())
    return float(scipy.special.gammaincc(n_blocks / 2.0, chi2 / 2.0))


def runs(bits) -> float:
    """Total number of maximal constant runs vs the expectation."""
    arr = _require(bits, "runs", 100)
    n = arr.size
    pi = float(arr.mean())
    if abs(pi - 0.5) >= 2.0 / np.sqrt(n):
        return 0.0  # frequency precondition failed; the test is decisive
    v = 1 + int(np.count_nonzero(np.diff(arr)))
    num = abs(v - 2.0 * n * pi * (1.0 - pi))
    den = 2.0 * np.sqrt(2.0 * n) * pi * (1.0 - pi)
    return float(scipy.special.erfc(num / den))


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
    arr = _require(bits, "longest-run", 128)
    n = arr.size
    regime = _LONGEST_RUN_REGIMES[0]
    for candidate in _LONGEST_RUN_REGIMES:
        if n >= candidate[0]:
            regime = candidate
    _, m, k, classes, pi = regime
    n_blocks = n // m
    # each block between two zero columns, flattened: the steps alternate,
    # each run starting at one and ending at the next, within its block
    padded = np.zeros((n_blocks, m + 2), dtype=np.int8)
    padded[:, 1:-1] = arr[: n_blocks * m].reshape(n_blocks, m)
    steps = np.flatnonzero(np.diff(padded.ravel()) != 0)
    starts = steps[::2]
    longest = np.zeros(n_blocks, dtype=np.int64)
    np.maximum.at(longest, starts // (m + 2), steps[1::2] - starts)
    counts = np.bincount(np.clip(longest, classes[0], classes[-1]) - classes[0], minlength=k + 1)
    expected = n_blocks * np.asarray(pi)
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return float(scipy.special.gammaincc(k / 2.0, chi2 / 2.0))


def cumulative_sums(bits) -> tuple[float, float]:
    """Maximal partial-sum excursion, scanned forward and backward."""
    arr = _require(bits, "cumulative-sums", 100)
    z_fwd, z_bwd = _cusum_excursions(arr)
    return _cusum_p(arr.size, z_fwd), _cusum_p(arr.size, z_bwd)


def _cusum_excursions(arr: np.ndarray) -> tuple[int, int]:
    """Largest |partial sum| of the +-1 steps, read forward and backward.

    One scan gives the forward partial sums S_1..S_n.  Read backward,
    the partial sums are S_n - S_i for i = 0..n-1, with S_0 = 0, so their
    largest magnitude follows from the range of S_1..S_n widened to 0.
    """
    steps = arr.astype(np.int8)
    steps <<= 1
    steps -= 1
    # |S_k| <= n, so int32 holds every partial sum of a stream under 2^31 bits
    sums = np.cumsum(steps, dtype=np.int32 if arr.size < 1 << 31 else np.int64)
    hi, lo, total = int(sums.max()), int(sums.min()), int(sums[-1])
    return max(hi, -lo), max(total - min(lo, 0), max(hi, 0) - total)


def _cusum_p(n: int, z: int) -> float:
    """p-value of a largest excursion z >= 1 over n steps."""
    sqrt_n = np.sqrt(n)
    nz = n // z

    def phi_term(lo: int, hi: int, a: int, b: int) -> float:
        ks = np.arange(lo, hi + 1, dtype=np.float64)
        upper = scipy.special.ndtr((4 * ks + a) * z / sqrt_n)
        lower = scipy.special.ndtr((4 * ks + b) * z / sqrt_n)
        return float((upper - lower).sum())

    sum1 = phi_term(_c_div(-nz + 1, 4), _c_div(nz - 1, 4), 1, -1)
    sum2 = phi_term(_c_div(-nz - 3, 4), _c_div(nz - 1, 4), 3, 1)
    return 1.0 - sum1 + sum2


def _c_div(a: int, b: int) -> int:
    """Integer division truncating toward zero (C semantics)."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def serial(bits, block: int = 10) -> tuple[float, float]:
    """Uniformity of overlapping block-bit patterns (two difference stats)."""
    arr = _serial_input(bits, block)
    return _serial_p(_pattern_counts(arr, block), arr.size)


def _serial_input(bits, block: int) -> np.ndarray:
    if block < 2:
        raise ValueError(f"block must be >= 2, got {block}")
    return _require(bits, "serial", 1 << (block + 3))


def _serial_p(counts: np.ndarray, n: int) -> tuple[float, float]:
    """Serial p-values from the counts of the n overlapping block-bit windows."""
    block = counts.size.bit_length() - 1
    psi_m = _psi_sq(counts, n)
    counts = _marginal(counts)
    psi_m1 = _psi_sq(counts, n)
    psi_m2 = _psi_sq(_marginal(counts), n)
    del1 = psi_m - psi_m1
    del2 = psi_m - 2.0 * psi_m1 + psi_m2
    p1 = float(scipy.special.gammaincc(2 ** (block - 2), del1 / 2.0))
    p2 = float(scipy.special.gammaincc(2 ** (block - 3), del2 / 2.0))
    return p1, p2


def approximate_entropy(bits, block: int = 10) -> float:
    """Entropy gap between block- and (block+1)-bit pattern frequencies."""
    arr = _apen_input(bits, block)
    return _apen_p(_pattern_counts(arr, block + 1), arr.size)


def _apen_input(bits, block: int) -> np.ndarray:
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    return _require(bits, "approximate-entropy", 1 << (block + 6))


def _apen_p(counts_up: np.ndarray, n: int) -> float:
    """Approximate-entropy p-value from the counts of the n (block+1)-bit windows."""
    block = counts_up.size.bit_length() - 2
    phi_up = _phi(counts_up, n)
    phi_lo = _phi(_marginal(counts_up), n)
    apen = phi_lo - phi_up
    chi2 = 2.0 * n * (np.log(2.0) - apen)
    return float(scipy.special.gammaincc(2 ** (block - 1), chi2 / 2.0))


def _pattern_counts(arr: np.ndarray, m: int) -> np.ndarray:
    """Counts of the n overlapping m-bit windows of the circular stream.

    The windows are built in place in a uint16 accumulator when m <= 16,
    a quarter of the traffic of int64, which holds the wider ones.
    """
    n = arr.size
    ext = np.concatenate([arr, arr[: m - 1]]) if m > 1 else arr
    vals = ext[:n].astype(np.uint16 if m <= 16 else np.int64)
    for t in range(1, m):
        vals <<= 1
        vals |= ext[t : t + n]
    return np.bincount(vals, minlength=1 << m)


def _marginal(counts: np.ndarray, drop: int = 1) -> np.ndarray:
    """Window counts `drop` bits shorter: merge the extensions of each prefix."""
    return counts.reshape(-1, 1 << drop).sum(axis=1)


def _psi_sq(counts: np.ndarray, n: int) -> float:
    m_size = counts.size  # 2^m
    return float((counts.astype(np.float64) ** 2).sum() * m_size / n - n)


def _phi(counts: np.ndarray, n: int) -> float:
    c = counts[counts > 0].astype(np.float64) / n
    return float((c * np.log(c)).sum())


def chi_square_symbols(states: Sequence[int], n_bits: int) -> float:
    """Chi-square uniformity of round outputs over [0, 2^N - 1]."""
    size = 1 << n_bits
    arr = np.asarray(states, dtype=np.int64)
    if arr.size < 5 * size:
        raise StreamTooShortError("chi-square-symbols", 5 * size, arr.size)
    if arr.min() < 0 or arr.max() >= size:
        raise ValueError(f"states outside [0, {size - 1}]")
    counts = np.bincount(arr, minlength=size)
    expected = arr.size / size
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    return float(scipy.special.gammaincc((size - 1) / 2.0, chi2 / 2.0))


def _require(bits, test: str, minimum: int) -> np.ndarray:
    arr = bitops.as_bit_array(bits)
    if arr.size < minimum:
        raise StreamTooShortError(test, minimum, arr.size)
    return arr


# ---------------------------------------------------------------------------
# battery and report

@dataclass(frozen=True)
class BatteryConfig:
    """Battery parameters; defaults suit 10^6-bit streams."""

    significance: float = 0.01
    block_size: int = 128
    serial_block: int = 10
    apen_block: int = 10

    def __post_init__(self):
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
    alpha = cfg.significance

    def single(name: str, p: float) -> TestResult:
        return TestResult(name, p, p >= alpha)

    def grouped(name: str, parts: Sequence[tuple[str, float]]) -> TestResult:
        subs = tuple(SubResult(n, p, p >= alpha) for n, p in parts)
        mean = float(np.mean([p for _, p in parts]))
        return TestResult(name, mean, mean >= alpha, subs)

    # inputs are checked in the order cumulative sums, serial, the four
    # tests below, approximate entropy: a stream or block refused by
    # several tests raises the error of the first of them
    fwd, bwd = cumulative_sums(arr)
    _serial_input(arr, cfg.serial_block)
    results = (
        single("frequency", frequency_monobit(arr)),
        single("block-frequency", block_frequency(arr, block_size=cfg.block_size)),
        grouped("cumulative-sums", [("forward", fwd), ("backward", bwd)]),
        single("runs", runs(arr)),
        single("longest-run", longest_run_of_ones(arr)),
    )
    _apen_input(arr, cfg.apen_block)
    width = max(cfg.serial_block, cfg.apen_block + 1)
    counts = _pattern_counts(arr, width)  # one count serves both window tests
    p1, p2 = _serial_p(_marginal(counts, width - cfg.serial_block), arr.size)
    apen = _apen_p(_marginal(counts, width - cfg.apen_block - 1), arr.size)
    results += (
        grouped("serial", [("delta1", p1), ("delta2", p2)]),
        single("approximate-entropy", apen),
    )
    return TestReport(arr.size, alpha, results)


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
    without making the text and its pieces.
    """
    if not data.isascii():
        data.decode("ascii")  # raises the decoder's own UnicodeDecodeError
    digits = np.frombuffer(data.translate(None, _SPLIT_WHITESPACE), dtype=np.uint8)
    return bitops.as_bit_array(digits - ord("0"))
