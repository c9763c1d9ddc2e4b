"""Battery tests.

The expected p-values marked "published example" are reference values
from the public test-suite specification (NIST SP 800-22), reproduced
here as oracles for the implemented formulas.
"""

import math
import os
from pathlib import Path
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special as sp

import ciprng
from ciprng import func, stats
from ciprng.errors import StreamTooShortError
from ciprng.generator import CiGenerator, GeneratorConfig
from ciprng.sources import Xorshift64

from oracles import count_max_run_le, cusum_excursions, expansion_bits, longest_runs, window_counts
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
        p = float(sp.erfc(s / math.sqrt(arr.size) / math.sqrt(2)))
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
        counts = stats._pattern_counts(arr, 3)
        psi3 = stats._psi_sq(counts, 10)
        psi2 = stats._psi_sq(stats._marginal(counts), 10)
        psi1 = stats._psi_sq(stats._marginal(stats._marginal(counts)), 10)
        assert (psi3, psi2, psi1) == pytest.approx((2.8, 1.2, 0.4))
        p1 = float(sp.gammaincc(2, (psi3 - psi2) / 2))
        p2 = float(sp.gammaincc(1, (psi3 - 2 * psi2 + psi1) / 2))
        assert p1 == pytest.approx(0.808792, abs=5e-7)  # published example
        assert p2 == pytest.approx(0.670320, abs=5e-7)

    def test_approximate_entropy_ten_bits(self):
        arr = stats.bitops.as_bit_array("0100110101")
        counts_up = stats._pattern_counts(arr, 4)
        apen = stats._phi(stats._marginal(counts_up), 10) - stats._phi(counts_up, 10)
        chi2 = 2 * 10 * (math.log(2) - apen)
        p = float(sp.gammaincc(4, chi2 / 2))
        assert p == pytest.approx(0.261961, abs=5e-7)  # published example

    def test_cumulative_sums_ten_bits(self):
        arr = stats.bitops.as_bit_array("1011010111")
        z, _ = stats._cusum_excursions(arr)
        assert z == 4  # published example: the partial sums end 1, 2, 3, 4
        assert stats._cusum_p(arr.size, z) == pytest.approx(0.4116588, abs=1e-6)  # published example

    def test_block_frequency_ten_bits(self):
        arr = stats.bitops.as_bit_array("0110011010")
        n_blocks = 3
        pi = arr[:9].reshape(3, 3).mean(axis=1)
        chi2 = 4 * 3 * float(((pi - 0.5) ** 2).sum())
        p = float(sp.gammaincc(n_blocks / 2, chi2 / 2))
        assert p == pytest.approx(0.801252, abs=5e-7)  # published example

    def test_runs_ten_bits(self):
        arr = stats.bitops.as_bit_array("1001101011")
        n = arr.size
        pi = float(arr.mean())
        v = 1 + int(np.count_nonzero(np.diff(arr)))
        p = float(sp.erfc(abs(v - 2 * n * pi * (1 - pi)) / (2 * math.sqrt(2 * n) * pi * (1 - pi))))
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


class TestSharedWork:
    """The battery counts windows once and scans partial sums once."""

    @pytest.mark.parametrize("m", range(1, 13))
    def test_pattern_counts_match_window_oracle(self, m):
        rng = np.random.default_rng(m)
        streams = [rng.integers(0, 2, rng.integers(m, 301), dtype=np.uint8) for _ in range(5)]
        streams += [np.ones(m + 37, dtype=np.uint8), np.zeros(m + 37, dtype=np.uint8)]
        for arr in streams:
            assert stats._pattern_counts(arr, m).tolist() == window_counts(arr.tolist(), m)

    @pytest.mark.parametrize(
        "bits",
        ["1" * 300, "0" * 300, "01" * 150, "10" * 150, "1" * 150 + "0" * 151, "1011010111"],
    )
    def test_cusum_excursions_match_reversed_oracle(self, bits):
        arr = stats.bitops.as_bit_array(bits)
        assert stats._cusum_excursions(arr) == cusum_excursions(arr.tolist())

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=400))
    def test_cusum_excursions_on_random_streams(self, bits):
        arr = np.array(bits, dtype=np.uint8)
        assert stats._cusum_excursions(arr) == cusum_excursions(bits)

    @pytest.mark.parametrize("serial_block,apen_block", [(10, 10), (2, 10), (12, 4), (4, 3)])
    @pytest.mark.parametrize("n", [65536, 100003, 10**6])
    def test_battery_equals_standalone_tests(self, n, serial_block, apen_block):
        bits = np.random.default_rng(n + serial_block).integers(0, 2, n, dtype=np.uint8)
        cfg = stats.BatteryConfig(serial_block=serial_block, apen_block=apen_block)
        got = {r.name: [r.p_value, *(s.p_value for s in r.sub_results)] for r in stats.run_battery(bits, cfg).results}
        p1, p2 = stats.serial(bits, serial_block)
        fwd, bwd = stats.cumulative_sums(bits)
        # exact equality: the battery shares work, not results of another formula
        assert got["serial"][1:] == [p1, p2]
        assert got["cumulative-sums"][1:] == [fwd, bwd]
        assert got["approximate-entropy"] == [stats.approximate_entropy(bits, apen_block)]

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


class TestSpecialFunctionAccuracy:
    """scipy's erfc and regularized incomplete gamma vs mpmath references."""

    @pytest.mark.parametrize("x", [0.01, 0.3, 0.7071, 1.0, 2.5, 5.0, 8.0])
    def test_erfc(self, x):
        mpmath.mp.dps = 40
        assert abs(float(sp.erfc(x)) - float(mpmath.erfc(x))) <= 1e-10

    @pytest.mark.parametrize(
        "a,x",
        [(0.5, 0.2), (1.0, 1.0), (1.5, 2.44), (3.0, 0.8), (16.0, 15.0), (256.0, 250.0), (512.0, 530.0)],
    )
    def test_igamc(self, a, x):
        mpmath.mp.dps = 40
        ref = float(mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        assert abs(float(sp.gammaincc(a, x)) - ref) <= 1e-10


def test_import_leaves_scipy_special_unloaded():
    # scipy.special adds about 26 MiB and 0.3 s to a process; only the battery
    # needs it, so it loads at the first test that runs
    src = str(Path(ciprng.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for work, loaded in [("", False), ("ciprng.frequency_monobit('01' * 50); ", True)]:
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys, ciprng; {work}print('scipy.special' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            check=True,
        )
        assert proc.stdout == f"{loaded}\n", work


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
        with pytest.raises(StreamTooShortError):
            stats.chi_square_symbols(list(range(16)) * 4, 4)

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
