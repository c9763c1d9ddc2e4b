"""Battery tests.

The expected p-values marked "published example" are reference values
from the public test-suite specification (NIST SP 800-22), reproduced
here as oracles for the implemented formulas.
"""

import functools
import importlib.util
import json
import math
import os
from pathlib import Path
import subprocess
import sys
import time

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy import special as sp

import ciprng
from ciprng import func, stats
from ciprng.errors import StreamTooShortError
from ciprng.generator import CiGenerator, GeneratorConfig
from ciprng.sources import Xorshift64

from oracles import (
    block_ones,
    count_max_run_le,
    cusum_excursions,
    cusum_p,
    cusum_terms,
    expansion_bits,
    longest_runs,
    window_counts,
)
from reference_data import KNOWN_CHAOTIC_VARIANTS


class TestPublishedExamples:
    """Official worked examples, small enough to check by hand."""

    def test_monobit_100_bits_of_pi(self):
        # published example: first 100 bits of pi's binary expansion
        p = stats.frequency_monobit(expansion_bits(mpmath.pi, 100))
        assert p == pytest.approx(0.109599, abs=5e-7)

    def test_monobit_ten_bits(self):
        arr = stats.bitops.as_bit_array("1011010101")
        s = abs(2 * int(arr.sum()) - arr.size)
        p = math.erfc(s / math.sqrt(arr.size) / math.sqrt(2))
        assert p == pytest.approx(0.527089, abs=5e-7)  # published example

    def test_longest_run_128_bits(self):
        # published example: the class counts are (4, 9, 3, 0)
        eps = (
            "11001100000101010110110001001100111000000000001001"
            "00110101010001000100111101011010000000110101111100"
            "1100111001101101100010110010"
        )
        assert stats.longest_run_of_ones(eps) == pytest.approx(0.180609, abs=5e-7)

    def test_serial_ten_bits(self):
        arr = stats.bitops.as_bit_array("0011011101")
        counts = stats._pattern_counts(stats._Packed(arr), 3)
        psi3 = stats._psi_sq(counts, 10)
        psi2 = stats._psi_sq(stats._marginal(counts), 10)
        psi1 = stats._psi_sq(stats._marginal(stats._marginal(counts)), 10)
        assert (psi3, psi2, psi1) == pytest.approx((2.8, 1.2, 0.4))
        p1 = stats._igamc(2, (psi3 - psi2) / 2)
        p2 = stats._igamc(1, (psi3 - 2 * psi2 + psi1) / 2)
        assert p1 == pytest.approx(0.808792, abs=5e-7)  # published example
        assert p2 == pytest.approx(0.670320, abs=5e-7)

    def test_approximate_entropy_ten_bits(self):
        arr = stats.bitops.as_bit_array("0100110101")
        counts_up = stats._pattern_counts(stats._Packed(arr), 4)
        apen = stats._phi(stats._marginal(counts_up), 10) - stats._phi(counts_up, 10)
        chi2 = 2 * 10 * (math.log(2) - apen)
        p = stats._igamc(4, chi2 / 2)
        assert p == pytest.approx(0.261961, abs=5e-7)  # published example

    def test_cumulative_sums_ten_bits(self):
        arr = stats.bitops.as_bit_array("1011010111")
        z, _ = stats._cusum_excursions(stats._Packed(arr))
        assert z == 4  # published example: the partial sums end 1, 2, 3, 4
        assert stats._cusum_p(arr.size, z) == pytest.approx(0.4116588, abs=1e-6)  # published example

    def test_block_frequency_ten_bits(self):
        arr = stats.bitops.as_bit_array("0110011010")
        n_blocks = 3
        pi = arr[:9].reshape(3, 3).mean(axis=1)
        chi2 = 4 * 3 * float(((pi - 0.5) ** 2).sum())
        p = stats._igamc(n_blocks / 2, chi2 / 2)
        assert p == pytest.approx(0.801252, abs=5e-7)  # published example

    def test_runs_ten_bits(self):
        arr = stats.bitops.as_bit_array("1001101011")
        n = arr.size
        pi = float(arr.mean())
        v = 1 + int(np.count_nonzero(np.diff(arr)))
        p = math.erfc(abs(v - 2 * n * pi * (1 - pi)) / (2 * math.sqrt(2 * n) * pi * (1 - pi)))
        assert p == pytest.approx(0.147232, abs=5e-7)  # published example


class TestDegenerateStreams:
    def test_all_zeros_fails_monobit(self):
        assert stats.frequency_monobit("0" * 10_000) < 1e-10

    def test_alternating_monobit_is_exactly_one(self):
        assert stats.frequency_monobit("01" * 5_000) == 1.0

    def test_alternating_fails_runs(self):
        assert stats.runs("01" * 5_000) < 1e-10

    def test_all_zeros_longest_run(self):
        assert stats.longest_run_of_ones("0" * 10_000) < 1e-10


class TestMinimumLengths:
    def test_monobit_minimum(self):
        with pytest.raises(StreamTooShortError) as exc:
            stats.frequency_monobit("01" * 49)
        assert exc.value.minimum == 100
        assert "frequency" in str(exc.value)

    def test_longest_run_minimum(self):
        with pytest.raises(StreamTooShortError):
            stats.longest_run_of_ones("01" * 63)

    def test_serial_minimum_depends_on_block(self):
        with pytest.raises(StreamTooShortError) as exc:
            stats.serial("01" * 100, block=10)
        assert exc.value.minimum == 1 << 13

    def test_apen_minimum_depends_on_block(self):
        with pytest.raises(StreamTooShortError) as exc:
            stats.approximate_entropy("01" * 100, block=10)
        assert exc.value.minimum == 1 << 16

    @pytest.mark.parametrize("block", [10**5, 10**20])
    @pytest.mark.parametrize(
        "test,call",
        [
            ("serial", stats.serial),
            ("approximate-entropy", stats.approximate_entropy),
            ("chi-square-symbols", stats.chi_square_symbols),
        ],
    )
    def test_a_minimum_no_stream_reaches_is_refused_at_once(self, test, call, block):
        # a minimum near 2^(10^5) has too many digits to print, and one near
        # 2^(10^20) too many to build: the block is refused before either
        bits = np.zeros(1 << 16, dtype=np.uint8)
        start = time.perf_counter()
        with pytest.raises(ValueError) as exc:
            call(bits, block)
        assert time.perf_counter() - start < 1.0
        assert type(exc.value) is ValueError
        assert str(exc.value).startswith(f"{test}: ") and f" {block} is too large" in str(exc.value)
        assert "\n" not in str(exc.value)

    def test_the_widest_reachable_minimums_are_still_lengths(self):
        # 2^62 bits and 5 x 2^60 states fit below sys.maxsize; one bit more does not
        with pytest.raises(StreamTooShortError) as exc:
            stats.serial("01" * 100, block=59)
        assert exc.value.minimum == 1 << 62
        with pytest.raises(ValueError, match="block 60 is too large"):
            stats.serial("01" * 100, block=60)
        with pytest.raises(StreamTooShortError) as exc:
            stats.chi_square_symbols([0], 60)
        assert exc.value.minimum == 5 << 60
        with pytest.raises(ValueError, match="n_bits 61 is too large"):
            stats.chi_square_symbols([0], 61)


class TestProperties:
    @given(st.integers(0, 2**200 - 1))
    def test_monobit_complement_invariance(self, value):
        bits = format(value, "0200b")
        flipped = bits.translate(str.maketrans("01", "10"))
        assert stats.frequency_monobit(bits) == stats.frequency_monobit(flipped)

    @given(st.integers(0, 2**256 - 1))
    def test_p_values_in_unit_interval(self, value):
        bits = format(value, "0256b")
        ps = [
            stats.frequency_monobit(bits),
            stats.block_frequency(bits, 16),
            stats.runs(bits),
            stats.longest_run_of_ones(bits),
            *stats.cumulative_sums(bits),
            *stats.serial(bits, 4),
            stats.approximate_entropy(bits, 2),
        ]
        assert all(0.0 <= p <= 1.0 for p in ps)

    def test_battery_deterministic(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2, 100_000, dtype=np.uint8)
        assert stats.run_battery(bits) == stats.run_battery(bits)


def packed(bits) -> stats._Packed:
    """A bit list or array, checked and packed as every test packs it."""
    return stats._Packed(stats.bitops.as_bit_array(bits))


# bit lists whose length is not a multiple of 8, so the packed helpers
# meet a partial last byte and, mostly, a partial last 16-bit word
ragged_streams = st.lists(st.integers(0, 1), min_size=1, max_size=700).filter(lambda b: len(b) % 8)


def residue_streams(base: int, seed: int) -> list[np.ndarray]:
    """A seeded stream of each length base + r, r = 0..63, so that the packed
    buffer ends at every bit of its last 64-bit word; then all-zeros,
    all-ones and both alternating streams at three of those lengths."""
    rng = np.random.default_rng(seed)
    streams = [rng.integers(0, 2, base + r, dtype=np.uint8) for r in range(64)]
    for n in (base, base + 7, base + 63):
        alternating = np.arange(n, dtype=np.uint8) % 2
        streams += [np.zeros(n, dtype=np.uint8), np.ones(n, dtype=np.uint8), alternating, 1 - alternating]
    return streams


# five whole 64-bit words and r bits; and, for blocks of 10^4 bits, two blocks and more
SHORT_STREAMS = residue_streams(320, 64)
LONG_STREAMS = residue_streams(20_000, 65)


class TestPackedKernels:
    """Every count read from the packed buffer equals the bit-by-bit one, at
    every length mod 64."""

    def test_ones_and_transitions(self):
        for arr in SHORT_STREAMS + LONG_STREAMS:
            stream = packed(arr)
            assert stream.ones == int(arr.sum()), arr.size
            assert stats._transitions(stream) == np.count_nonzero(np.diff(arr)), arr.size

    @pytest.mark.parametrize("size", [2, 3, 8, 100, 127, 128, 129, 10000])
    def test_block_ones(self, size):
        for arr in LONG_STREAMS if size == 10000 else SHORT_STREAMS:
            assert stats._block_ones(packed(arr), size).tolist() == block_ones(arr.tolist(), size), arr.size

    def test_cusum_excursions(self):
        for arr in SHORT_STREAMS:
            assert stats._cusum_excursions(packed(arr)) == cusum_excursions(arr.tolist()), arr.size

    @pytest.mark.parametrize("regime", stats._LONGEST_RUN_REGIMES)
    def test_clipped_longest_runs(self, regime):
        _, m, _, classes, _ = regime
        for arr in LONG_STREAMS if m == 10000 else SHORT_STREAMS:
            want = [min(max(run, classes[0]), classes[-1]) for run in longest_runs(arr.tolist(), m)]
            assert stats._clipped_longest_runs(packed(arr), m, classes[0], classes[-1]).tolist() == want, arr.size

    # 13 is the widest window read from 16-bit words, 14 the narrowest read from 32-bit words
    @pytest.mark.parametrize("m", [1, 2, 3, 11, 13, 14, 16])
    def test_pattern_counts(self, m):
        for arr in SHORT_STREAMS:
            assert stats._pattern_counts(packed(arr), m).tolist() == window_counts(arr.tolist(), m), arr.size


def cusum_shapes() -> dict[str, str]:
    """Streams whose extremes sit where the partial-sum scan treats them
    differently: inside the first word, at a word's end, in the tail bits
    after the last whole word, as far past the word-end sums as the scan's
    bound allows, and a low below the negated high."""
    flat = "01" * 320  # ten whole words, every partial sum 0 or -1
    return {
        "high inside the first word": "1" * 30 + "0" * 34 + flat,
        "low inside the first word": "0" * 30 + "1" * 34 + flat,
        "high at the first word's end": "1" * 64 + "0" * 64 + flat,
        "high at an inner word's end": flat + "1" * 64 + "0" * 64 + flat,
        "low at an inner word's end": flat + "0" * 64 + "1" * 64 + flat,
        "high inside the tail": flat + "1" * 20 + "0" * 3,
        "low at the last bit": flat + "0" * 63,
        "low beyond the high": "1" * 10 + "0" * 200 + flat,
        "high late inside an inner word": flat + "0" * 20 + "1" * 40 + "0" * 4 + flat,
        "low late inside an inner word": flat + "1" * 20 + "0" * 40 + "1" * 4 + flat,
        # the word-end sums span -64 to 64; a word from 34 to 32 peaks at
        # 65, the most its end sums allow: (34 + 32 + 64) / 2
        "high at the bound": "0" * 64 + "1" * 128 + "0" * 47 + "1" * 48 + "0" * 33 + flat,
        "low at the bound": "1" * 64 + "0" * 128 + "1" * 47 + "0" * 48 + "1" * 33 + flat,
    }


class TestCusumScan:
    """The partial-sum scan opens only the 64-bit words whose end sums leave
    room for a sum beyond the extremes; every placement of those extremes
    gives the bit-by-bit excursions."""

    @pytest.mark.parametrize("w", [0, 1, 2, 40])
    def test_every_length_mod_64(self, w):
        rng = np.random.default_rng(w)
        for r in range(0 if w else 1, 64):
            arr = rng.integers(0, 2, 64 * w + r, dtype=np.uint8)
            assert stats._cusum_excursions(packed(arr)) == cusum_excursions(arr.tolist()), arr.size

    # every word can hold an extreme: every word is opened
    @pytest.mark.parametrize("period", ["01", "10", "0011", "1100", "0110"])
    @pytest.mark.parametrize("n", [64, 100, 6400, 6463])
    def test_flat_streams(self, period, n):
        bits = (period * n)[:n]
        assert stats._cusum_excursions(packed(bits)) == cusum_excursions(stats.bitops.as_bit_array(bits).tolist())

    # about one word can hold an extreme
    @pytest.mark.parametrize("density", [0.1, 0.9])
    @pytest.mark.parametrize("n", [6400, 10_037])
    def test_biased_streams(self, density, n):
        arr = (np.random.default_rng(n).random(n) < density).astype(np.uint8)
        assert stats._cusum_excursions(packed(arr)) == cusum_excursions(arr.tolist())

    @pytest.mark.parametrize("bits", cusum_shapes().values(), ids=cusum_shapes().keys())
    def test_extreme_placements(self, bits):
        for tail in ("", "1", "0" * 17):
            arr = stats.bitops.as_bit_array(bits + tail)
            assert stats._cusum_excursions(packed(arr)) == cusum_excursions(arr.tolist()), tail

    @pytest.mark.parametrize("seed", range(3))
    def test_seeded_streams(self, seed):
        arr = np.random.default_rng(seed).integers(0, 2, 100_000 + seed, dtype=np.uint8)
        assert stats._cusum_excursions(packed(arr)) == cusum_excursions(arr.tolist())


class TestSharedWork:
    """The battery counts windows once and scans partial sums once."""

    # m = 13 is the widest window a 16-bit word holds four of; wider ones
    # are read from 32-bit words, up to m = 29 (2^32 histogram bins)
    @pytest.mark.parametrize("m", range(1, 21))
    def test_pattern_counts_match_window_oracle(self, m):
        rng = np.random.default_rng(m)
        streams = [rng.integers(0, 2, rng.integers(m, 301), dtype=np.uint8) for _ in range(5)]
        streams += [rng.integers(0, 2, m + extra, dtype=np.uint8) for extra in range(4)]
        streams += [np.ones(m + 37, dtype=np.uint8), np.zeros(m + 37, dtype=np.uint8)]
        for arr in streams:
            assert stats._pattern_counts(packed(arr), m).tolist() == window_counts(arr.tolist(), m)

    # every entry counts windows only on a stream of at least 2^(m + 3)
    # bits, so the (m + 3)-bit histogram never has more bins than bits
    @pytest.mark.parametrize(
        "least,call",
        [
            (1 << 5, lambda bits: stats.serial(bits, 2)),
            (1 << 13, lambda bits: stats.serial(bits, 10)),
            (1 << 7, lambda bits: stats.approximate_entropy(bits, 1)),
            (1 << 16, lambda bits: stats.approximate_entropy(bits, 10)),
            # serial wider than apen + 1, then the reverse
            (1 << 15, lambda bits: stats.run_battery(bits, stats.BatteryConfig(serial_block=12, apen_block=9))),
            (1 << 13, lambda bits: stats.run_battery(bits, stats.BatteryConfig(serial_block=3, apen_block=7))),
        ],
        ids=["serial 2", "serial 10", "apen 1", "apen 10", "battery serial wider", "battery apen wider"],
    )
    def test_window_counts_get_at_least_2_to_the_m_plus_3_bits(self, monkeypatch, least, call):
        calls = []
        pattern_counts = stats._pattern_counts

        def checked(stream, m):
            assert stream.n >= 1 << (m + 3), (stream.n, m)
            calls.append(m)
            return pattern_counts(stream, m)

        monkeypatch.setattr(stats, "_pattern_counts", checked)
        rng = np.random.default_rng(least)
        for n in (least, least + 1):
            call(rng.integers(0, 2, n, dtype=np.uint8))
        assert len(calls) == 2
        with pytest.raises(StreamTooShortError):
            call(np.zeros(least - 1, dtype=np.uint8))

    @given(ragged_streams, st.integers(1, 20))
    def test_pattern_counts_on_ragged_streams(self, bits, m):
        assert stats._pattern_counts(packed(bits), m).tolist() == window_counts(bits, m)

    @pytest.mark.parametrize(
        "bits",
        [
            "1" * 300,
            "0" * 300,
            "01" * 150,
            "10" * 150,
            "1" * 150 + "0" * 151,
            "1011010111",
            # the largest excursion inside, or at the end of, a partial last 16-bit word
            "01" * 8 + "1" * 15,
            "10" * 8 + "0" * 15,
            "1" * 16 + "0" * 17,
            "0" * 31,
            "1",
            "0" * 15,
            "01" * 56 + "111",
        ],
    )
    def test_cusum_excursions_match_reversed_oracle(self, bits):
        arr = stats.bitops.as_bit_array(bits)
        assert stats._cusum_excursions(packed(arr)) == cusum_excursions(arr.tolist())

    @given(ragged_streams)
    def test_cusum_excursions_on_ragged_streams(self, bits):
        assert stats._cusum_excursions(packed(bits)) == cusum_excursions(bits)

    @given(ragged_streams, st.sampled_from([10, 100, 128, 129]))
    @example([1] * 300, 129)  # whole blocks of ones: counts past int8
    @example([1] * 259, 128)
    def test_block_ones_match_oracle(self, bits, size):
        assert stats._block_ones(packed(bits), size).tolist() == block_ones(bits, size)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=400))
    def test_cusum_excursions_on_random_streams(self, bits):
        assert stats._cusum_excursions(packed(bits)) == cusum_excursions(bits)

    # (2, 10) with the default block size is the configuration of the NIST golden test
    @pytest.mark.parametrize("serial_block,apen_block", [(10, 10), (2, 10), (12, 4), (4, 3)])
    @pytest.mark.parametrize("n", [65536, 100003, 10**6, 1_000_003])
    def test_battery_equals_standalone_tests(self, n, serial_block, apen_block):
        bits = np.random.default_rng(n + serial_block).integers(0, 2, n, dtype=np.uint8)
        cfg = stats.BatteryConfig(serial_block=serial_block, apen_block=apen_block)
        got = {r.name: [r.p_value, *(s.p_value for s in r.sub_results)] for r in stats.run_battery(bits, cfg).results}
        # exact equality: the battery shares one packed copy and the counts
        # made from it, not results of another formula
        assert got == {
            "frequency": [stats.frequency_monobit(bits)],
            "block-frequency": [stats.block_frequency(bits, cfg.block_size)],
            "cumulative-sums": [got["cumulative-sums"][0], *stats.cumulative_sums(bits)],
            "runs": [stats.runs(bits)],
            "longest-run": [stats.longest_run_of_ones(bits)],
            "serial": [got["serial"][0], *stats.serial(bits, serial_block)],
            "approximate-entropy": [stats.approximate_entropy(bits, apen_block)],
        }

    @pytest.mark.parametrize(
        "n,config,error",
        [
            (99, {}, (StreamTooShortError, "cumulative-sums", 100)),
            (100, {}, (StreamTooShortError, "serial", 1 << 13)),
            (5000, {}, (StreamTooShortError, "serial", 1 << 13)),
            (10000, {}, (StreamTooShortError, "approximate-entropy", 1 << 16)),
            (100, {"serial_block": 2}, (StreamTooShortError, "block-frequency", 128)),
            (100, {"serial_block": 2, "block_size": 10}, (StreamTooShortError, "longest-run", 128)),
            (10000, {"serial_block": 1}, (ValueError, "block must be >= 2, got 1", None)),
            (99, {"serial_block": 1}, (StreamTooShortError, "cumulative-sums", 100)),
            (10000, {"block_size": 1}, (ValueError, "block_size must be >= 2, got 1", None)),
            (10000, {"block_size": 20000}, (StreamTooShortError, "block-frequency", 20000)),
            (10000, {"apen_block": 0}, (ValueError, "block must be >= 1, got 0", None)),
            (10000, {"serial_block": 10**20},
             (ValueError, f"serial: block {10**20} is too large; no stream reaches 2^{10**20 + 3} bits", None)),
            (10000, {"apen_block": 10**5},
             (ValueError, "approximate-entropy: block 100000 is too large; no stream reaches 2^100006 bits", None)),
            (99, {"serial_block": 10**5}, (StreamTooShortError, "cumulative-sums", 100)),
        ],
    )
    def test_battery_raises_the_first_failing_tests_error(self, n, config, error):
        bits = np.random.default_rng(n).integers(0, 2, n, dtype=np.uint8)
        kind, name, minimum = error
        with pytest.raises(kind) as exc:
            stats.run_battery(bits, stats.BatteryConfig(**config))
        assert type(exc.value) is kind
        if minimum is None:
            assert str(exc.value) == name
        else:
            assert (exc.value.test, exc.value.minimum, exc.value.actual) == (name, minimum, n)

    @pytest.mark.parametrize("field", ["block_size", "serial_block", "apen_block"])
    @pytest.mark.parametrize("size", [127.5, 10.0, "10"])
    def test_non_integer_sizes_are_refused(self, field, size):
        bits = np.random.default_rng(5).integers(0, 2, 100_000, dtype=np.uint8)
        test = {"block_size": stats.block_frequency, "serial_block": stats.serial,
                "apen_block": stats.approximate_entropy}[field]
        for call in (lambda: stats.BatteryConfig(**{field: size}), lambda: test(bits, size)):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                call()

    def test_numpy_integer_sizes_are_ints(self):
        bits = np.random.default_rng(5).integers(0, 2, 100_000, dtype=np.uint8)
        cfg = stats.BatteryConfig(block_size=np.int64(100), serial_block=np.uint8(4), apen_block=np.int32(3))
        assert (cfg.block_size, cfg.serial_block, cfg.apen_block) == (100, 4, 3)
        assert all(type(size) is int for size in (cfg.block_size, cfg.serial_block, cfg.apen_block))
        assert stats.run_battery(bits, cfg) == stats.run_battery(bits, stats.BatteryConfig(block_size=100, serial_block=4, apen_block=3))
        assert stats.block_frequency(bits, np.int64(100)) == stats.block_frequency(bits, 100)
        assert stats.serial(bits, np.uint8(4)) == stats.serial(bits, 4)
        assert stats.approximate_entropy(bits, np.int32(3)) == stats.approximate_entropy(bits, 3)


class TestSpecialFunctionAccuracy:
    """erfc and the regularized upper incomplete gamma vs mpmath references."""

    @pytest.mark.parametrize("x", [0.01, 0.3, 0.7071, 1.0, 2.5, 5.0, 8.0])
    def test_erfc(self, x):
        mpmath.mp.dps = 40
        assert abs(math.erfc(x) - float(mpmath.erfc(x))) <= 1e-10

    @pytest.mark.parametrize(
        "a,x",
        [(0.5, 0.2), (1.0, 1.0), (1.5, 2.44), (3.0, 0.8), (16.0, 15.0), (256.0, 250.0), (512.0, 530.0)],
    )
    def test_igamc(self, a, x):
        mpmath.mp.dps = 40
        ref = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        assert abs(stats._igamc(a, x) - ref) <= 1e-10


def upper_gamma(a: float, x: float):
    """Q(a, x) as an mpmath number with at least 40 significant digits for
    Q >= 1e-100: 1 - P(a, x) at 160 digits, P from its power series
    (mpmath's own upper incomplete gamma gives up on large a)."""
    with mpmath.workdps(160):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        lead = mpmath.exp(a * mpmath.log(x) - x - mpmath.loggamma(a + 1))
        return 1 - lead * mpmath.hyp1f1(1, a + 1, x, maxterms=10**6)


# every shape a the battery passes _igamc on streams of up to 2^22 bits:
# block frequency n_blocks / 2 (any half-integer; small ones, powers of two
# and 10^6 bits at a few block sizes), longest run K / 2, serial 2^(m-2)
# and 2^(m-3) for m = 2..19, approximate entropy 2^(m-1) for m = 1..16,
# and chi_square_symbols (2^N - 1) / 2 for N = 1..16
IGAMC_SHAPES = sorted(
    {j / 2 for j in range(1, 21)}
    | {1.5, 2.5, 3.0}
    | {2.0**k for k in range(-1, 21)}
    | {((1 << n) - 1) / 2 for n in range(1, 17)}
    | {10**6 // m / 2 for m in (3, 20, 128, 1000, 10**4)}
)


@pytest.mark.parametrize("a", IGAMC_SHAPES)
def test_igamc_on_the_battery_shapes(a):
    # x from 0 to 20 standard deviations past the mean a, both sides of the
    # switch from series to continued fraction at a + 1; Q(a, a + 20 sqrt(a))
    # is about 1e-88 at large a
    r = math.sqrt(a)
    xs = {a * 1e-12, a * 1e-6, a / 2, a - 3 * r, a - r, a, a + 1 - 1e-9, a + 1, a + r, a + 3 * r, a + 6 * r, a + 10 * r, a + 20 * r}
    assert stats._igamc(a, 0.0) == 1.0
    for x in sorted(x for x in xs if x > 0):
        q, ref = stats._igamc(a, x), upper_gamma(a, x)
        assert abs(q - float(ref)) <= 1e-13, x
        if ref < 1e-10:
            assert abs(q / ref - 1) <= 1e-11, x


@pytest.mark.parametrize("x", [0.0, -1e-300, -1.0, math.nan, math.inf])
@pytest.mark.parametrize("a", [0.5, 3.0, 3906.0])
def test_igamc_edge_values_are_scipys(a, x):
    # a slightly negative statistic from rounding gives nan, which fails
    assert stats._igamc(a, x) == pytest.approx(float(sp.gammaincc(a, x)), nan_ok=True)


def cusum_z_grid(n: int) -> list[int]:
    return sorted({1, 2, math.isqrt(n), n // 2, n})


@pytest.mark.parametrize("n", [100, 1000, 10_000, 1_000_000, 1_000_003])
def test_cusum_trim_drops_only_zero_terms(n):
    # the terms left out, both CDF arguments above +8.3 or both below -40,
    # are exactly 0.0 in double, so the trimmed sum equals the sum over
    # every k, clipped to [0, 1] alike: at every z up to n = 1000, and
    # wider on a grid that holds the flat streams' small z
    zs = range(1, n + 1) if n <= 1000 else {3, 7, *cusum_z_grid(n), *(round(n ** (i / 12)) for i in range(13))}
    for z in sorted(zs):
        assert stats._cusum_p(n, z) == cusum_p(n, z), z


@pytest.mark.parametrize("shape", ["alternating", "period 4", "seeded"])
def test_cusum_p_of_streams_equals_the_sum_over_every_k(shape):
    # alternating bits have excursions of 1, "0011" repeated of 2
    n = 100_003
    steps = np.arange(n)
    bits = {
        "alternating": steps % 2,
        "period 4": steps // 2 % 2,
        "seeded": np.random.default_rng(26).integers(0, 2, n),
    }[shape].astype(np.uint8)
    z_fwd, z_bwd = cusum_excursions(bits.tolist())
    assert stats.cumulative_sums(bits) == (cusum_p(n, z_fwd), cusum_p(n, z_bwd))


def test_cusum_p_clipped_to_unit_interval():
    # a small excursion leaves both sums near 0, where 1 - sum1 + sum2
    # can round a few ulps past 1
    assert stats.cumulative_sums("01" * 50000) == (1.0, 1.0)
    assert stats._cusum_p(10**6, 1) == 1.0
    rng = np.random.default_rng(21)
    streams = ["01" * 50000, "0011" * 25000, rng.integers(0, 2, 100_000, dtype=np.uint8), "1" * 100_000]
    for bits in streams:
        for result in stats.run_battery(bits).results:
            for p in (result.p_value, *(sub.p_value for sub in result.sub_results)):
                assert 0.0 <= p <= 1.0, (result.name, p)


@pytest.mark.parametrize("n", [100, 10_000])
def test_cusum_p_matches_mpmath(n):
    mpmath.mp.dps = 40
    for z in cusum_z_grid(n):
        sum1, sum2 = cusum_terms(n, z, lambda x: mpmath.ncdf(mpmath.mpf(x)))
        assert abs(stats._cusum_p(n, z) - float(1 - mpmath.fsum(sum1) + mpmath.fsum(sum2))) <= 1e-14, z


def test_import_leaves_scipy_special_unloaded():
    # the battery computes its own special functions: neither importing the
    # package nor running the battery loads scipy, which adds about 23 MiB
    # and 0.3 s to a process
    src = str(Path(ciprng.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for work in ["", "ciprng.run_battery('01' * 50000); "]:
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, ciprng; {work}print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )
        assert proc.stdout == "False\n", work


class TestLongestRunConstants:
    def test_class_probabilities_match_exact_counts(self):
        # the M=8 and M=128 tables are the exact run-length distribution
        for m, classes, pis in [
            (8, (1, 2, 3, 4), stats._LONGEST_RUN_REGIMES[0][4]),
            (128, (4, 5, 6, 7, 8, 9), stats._LONGEST_RUN_REGIMES[1][4]),
        ]:
            total = 2**m
            lo, hi = classes[0], classes[-1]
            exact = [count_max_run_le(m, lo) / total]
            for v in range(lo + 1, hi):
                exact.append((count_max_run_le(m, v) - count_max_run_le(m, v - 1)) / total)
            exact.append(1 - count_max_run_le(m, hi - 1) / total)
            assert exact == pytest.approx(list(pis), abs=5e-11)


class TestLongestRunBlocks:
    """All blocks' longest runs at once equal a plain loop over each block."""

    @given(st.lists(st.integers(0, 1), min_size=8, max_size=700), st.sampled_from(stats._LONGEST_RUN_REGIMES))
    def test_clipped_runs_match_block_loop_oracle(self, bits, regime):
        _, m, _, classes, _ = regime
        lo, hi = classes[0], classes[-1]
        want = [min(max(run, lo), hi) for run in longest_runs(bits, m)]
        assert stats._clipped_longest_runs(packed(bits), m, lo, hi).tolist() == want

    @pytest.mark.parametrize("m,lo,hi", [(r[1], r[3][0], r[3][-1]) for r in stats._LONGEST_RUN_REGIMES])
    def test_clipped_runs_at_each_run_length(self, m, lo, hi):
        # one block per run length 0..hi + 2 and m, each run once at the block's
        # start and once at its end
        lengths = [*range(min(hi + 3, m)), m]
        blocks = [[1] * length + [0] * (m - length) for length in lengths]
        blocks += [[0] * (m - length) + [1] * length for length in lengths]
        bits = [b for block in blocks for b in block]
        got = stats._clipped_longest_runs(packed(bits), m, lo, hi).tolist()
        assert got == [min(max(length, lo), hi) for length in lengths] * 2

    def test_run_tables_match_bit_count(self):
        lead, trail, inner = stats._run_tables()
        words = [format(w, "016b") for w in range(1 << 16)]
        assert lead.tolist() == [len(s) - len(s.lstrip("1")) for s in words]
        assert trail.tolist() == [len(s) - len(s.rstrip("1")) for s in words]
        assert inner.tolist() == [max(map(len, s.split("0"))) for s in words]

    def test_clipped_runs_across_word_boundaries(self):
        # M = 10000: one block per run length lo - 1..hi + 1 and start offset
        # 0..15 in a 16-bit word mid-block; every block also starts and ends
        # with lo - 1 ones, a run past hi only if counted across two blocks
        _, m, _, classes, _ = stats._LONGEST_RUN_REGIMES[2]
        lo, hi = classes[0], classes[-1]
        cases = [(length, offset) for length in range(lo - 1, hi + 2) for offset in range(16)]
        blocks = np.zeros((len(cases), m), dtype=np.uint8)
        blocks[:, : lo - 1] = blocks[:, m - lo + 1 :] = 1
        for row, (length, offset) in zip(blocks, cases):
            row[16 * 300 + offset : 16 * 300 + offset + length] = 1
        got = stats._clipped_longest_runs(packed(blocks.ravel()), m, lo, hi).tolist()
        assert got == [min(max(length, lo), hi) for length, _ in cases]

    @pytest.mark.parametrize("regime", stats._LONGEST_RUN_REGIMES)
    def test_clipped_runs_on_a_dense_stream(self, regime):
        # mostly runs past hi, many across two or more word boundaries
        _, m, _, classes, _ = regime
        bits = (np.random.default_rng(90).random(100_000) < 0.9).astype(np.uint8)
        want = [min(max(run, classes[0]), classes[-1]) for run in longest_runs(bits.tolist(), m)]
        assert stats._clipped_longest_runs(packed(bits), m, classes[0], classes[-1]).tolist() == want

    @pytest.mark.parametrize("n", [128, 6271, 6272, 749_999, 750_000])
    @pytest.mark.parametrize("ones", [0.5, 0.8])
    def test_p_value_matches_block_loop_oracle(self, n, ones):
        arr = (np.random.default_rng(n).random(n) < ones).astype(np.uint8)
        _, m, k, classes, pi = [r for r in stats._LONGEST_RUN_REGIMES if n >= r[0]][-1]
        counts = np.zeros(k + 1)
        for run in longest_runs(arr.tolist(), m):
            counts[min(max(run, classes[0]), classes[-1]) - classes[0]] += 1
        expected = (n // m) * np.asarray(pi)
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert stats.longest_run_of_ones(arr) == pytest.approx(float(sp.gammaincc(k / 2, chi2 / 2)), rel=1e-12)


@pytest.fixture(scope="module")
def report():
    rng = np.random.default_rng(2024)
    return stats.run_battery(rng.integers(0, 2, 200_000, dtype=np.uint8))


class TestBatteryReport:
    def test_seven_tests_in_fixed_order(self, report):
        assert [r.name for r in report.results] == [
            "frequency",
            "block-frequency",
            "cumulative-sums",
            "runs",
            "longest-run",
            "serial",
            "approximate-entropy",
        ]

    def test_pass_flag_matches_threshold(self, report):
        for r in report.results:
            assert r.passed == (r.p_value >= report.significance)
            for sub in r.sub_results:
                assert sub.passed == (sub.p_value >= report.significance)

    def test_grouped_tests_report_mean(self, report):
        for name in ("cumulative-sums", "serial"):
            entry = next(r for r in report.results if r.name == name)
            assert len(entry.sub_results) == 2
            assert entry.p_value == pytest.approx(
                np.mean([s.p_value for s in entry.sub_results])
            )

    def test_text_report_shape(self, report):
        text = report.as_text()
        assert "frequency" in text and "PASS" in text and "(mean)" in text

    def test_porcelain_lines(self, report):
        lines = report.as_porcelain().strip().split("\n")
        assert len(lines) == 7 + 4  # seven tests plus four sub-test lines
        for line in lines:
            name, p, verdict = line.split("\t")
            assert verdict in ("PASS", "FAIL")
            assert 0.0 <= float(p) <= 1.0

    def test_random_stream_passes(self, report):
        assert report.all_passed


class TestChiSquareSymbols:
    def test_uniform_histogram_gives_one(self):
        states = list(range(16)) * 10
        assert stats.chi_square_symbols(states, 4) == pytest.approx(1.0)

    def test_constant_outputs_fail(self):
        assert stats.chi_square_symbols([7] * 200, 4) < 1e-12

    def test_sample_minimum(self):
        # the test counts states, not bits
        with pytest.raises(StreamTooShortError) as exc:
            stats.chi_square_symbols(list(range(16)) * 4, 4)
        assert str(exc.value) == "chi-square-symbols: stream of 64 states is below the test minimum of 80"
        assert (exc.value.test, exc.value.minimum, exc.value.actual) == ("chi-square-symbols", 80, 64)

    def test_out_of_range_states(self):
        with pytest.raises(ValueError):
            stats.chi_square_symbols([16] * 100, 4)

    def test_generator_stream_is_uniform(self):
        # 10^5 rounds with a known chaotic variant stay chi-square uniform
        f = func.VectorOfImages(4, KNOWN_CHAOTIC_VARIANTS[0])
        gen = CiGenerator(
            GeneratorConfig(f, k=13, seed_state=0), Xorshift64(31337), Xorshift64(1999)
        )
        assert stats.chi_square_symbols(gen.states(100_000), 4) >= 0.01


class TestExport:
    def test_ascii_export(self, tmp_path):
        path = tmp_path / "bits.txt"
        stats.export_stream("0100011001110001", "ascii-01", path)
        assert path.read_text() == "0100011001110001\n"

    def test_raw_export(self, tmp_path):
        path = tmp_path / "bits.bin"
        stats.export_stream("0100011001110001", "raw-bytes", path)
        assert path.read_bytes() == b"\x46\x71"

    def test_round_trip_ascii(self, tmp_path):
        path = tmp_path / "s.txt"
        bits = "01101001" * 37
        stats.export_stream(bits, "ascii-01", path)
        assert stats.bitops.bits_to_str(stats.read_stream(path, "ascii-01")) == bits

    def test_round_trip_raw(self, tmp_path):
        path = tmp_path / "s.bin"
        bits = "10010110" * 41
        stats.export_stream(bits, "raw-bytes", path)
        assert stats.bitops.bits_to_str(stats.read_stream(path, "raw-bytes")) == bits

    def test_ascii_drops_all_split_whitespace(self, tmp_path):
        # str.split() also splits at the separators \x1c-\x1f
        path = tmp_path / "s.txt"
        path.write_bytes(b" 01\t1\r\n0\x0b\x0c1\x1c0\x1d0\x1e1\x1f \n")
        assert stats.bitops.bits_to_str(stats.read_stream(path, "ascii-01")) == "01101001"

    def test_ascii_rejects_non_ascii_bytes(self, tmp_path):
        path = tmp_path / "s.txt"
        path.write_bytes(b"0110\xa01")  # a no-break space in Latin-1
        with pytest.raises(UnicodeDecodeError, match="position 4"):
            stats.read_stream(path, "ascii-01")

    @pytest.mark.parametrize("char", [b"2", b"a", b"\x00", b"\x7f", b"/"])
    def test_ascii_rejects_other_characters(self, tmp_path, char):
        path = tmp_path / "s.txt"
        path.write_bytes(b"01 1" + char + b"0\n")
        with pytest.raises(ValueError, match="values other than 0 and 1"):
            stats.read_stream(path, "ascii-01")

    @given(st.binary(max_size=40) | st.lists(st.sampled_from(b"01 \t\n\r\x0b\x0c\x1c\x1f\x85")).map(bytes))
    # digits and trailing whitespace, the separators \x1c-\x1f that
    # str.split() drops included, are read up to the last digit
    @example(b"0101\r\n")
    @example(b"0101\x1c")
    @example(b"0110\x1f")
    @example(b"0110\r\n\x1f")
    @example(b"1\x1f\r\n")
    @example(b"01\r\n0\r\n")
    @example(b" \n")
    @example(b"")
    @example(b"0120\n")
    def test_ascii_parse_equals_text_split(self, data):
        def outcome(parse):
            try:
                return parse().tolist()
            except (UnicodeDecodeError, ValueError) as exc:
                return type(exc), str(exc)

        def text_split():
            return stats.bitops.as_bit_array("".join(data.decode("ascii").split()))

        assert outcome(lambda: stats._parse_ascii_bits(data)) == outcome(text_split)

    def test_raw_rejects_partial_byte(self, tmp_path):
        with pytest.raises(ValueError):
            stats.export_stream("0100", "raw-bytes", tmp_path / "x.bin")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            stats.export_stream("0100", "base64", tmp_path / "x")


class TestGoldenCheck:
    """`scripts/make_nist_golden.py --check` fails on a golden p-value that
    this package does not reproduce within the golden tolerance."""

    def test_check_exits_1_on_a_moved_p_value(self, tmp_path, monkeypatch, capsys):
        root = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location("make_nist_golden", root / "scripts" / "make_nist_golden.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        # the e expansion takes seconds to build: build it once for both runs
        monkeypatch.setattr(script, "e_expansion_bits", functools.cache(script.e_expansion_bits))
        monkeypatch.setattr(sys, "argv", ["make_nist_golden.py", "--check"])
        golden = json.loads(script.GOLDEN_PATH.read_text())
        with mpmath.workprec(mpmath.mp.prec):
            assert script.main() == 0
            golden["p_values"]["runs"] += 1e-5
            tampered = tmp_path / "golden.json"
            tampered.write_text(json.dumps(golden))
            monkeypatch.setattr(script, "GOLDEN_PATH", tampered)
            capsys.readouterr()
            assert script.main() == 1
        assert capsys.readouterr().err == "p-values beyond the tolerance of 1e-06: runs\n"
