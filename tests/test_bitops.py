import numpy as np
import pytest
from hypothesis import given, strategies as st

from ciprng import bitops


class TestAsBitArray:
    def test_from_string(self):
        assert list(bitops.as_bit_array("0110")) == [0, 1, 1, 0]

    def test_from_list(self):
        assert list(bitops.as_bit_array([1, 0, 1])) == [1, 0, 1]

    def test_rejects_non_binary_chars(self):
        with pytest.raises(ValueError):
            bitops.as_bit_array("012")

    def test_rejects_raw_bytes(self):
        with pytest.raises(TypeError):
            bitops.as_bit_array(b"\x01")

    def test_rejects_non_binary_ints(self):
        with pytest.raises(ValueError):
            bitops.as_bit_array([0, 2])

    @pytest.mark.parametrize(
        "bits",
        [
            np.array([0, 1, 257]),
            np.array([0, 1, -255]),
            np.array([0.5, 1.7]),
            np.array([0, 1, 256], dtype=np.uint16),
            [0, 1, 256],
            [0, 1, -1],
            [0, 1, 2**70],
            [0.0, float("nan")],
            [None],
            ["0", "2"],
        ],
        ids=repr,
    )
    def test_rejects_values_that_narrowing_would_hide(self, bits):
        # checked before the uint8 narrowing, which would wrap 257 and -255 to 1
        with pytest.raises(ValueError, match="values other than 0 and 1"):
            bitops.as_bit_array(bits)

    @pytest.mark.parametrize(
        "bits",
        [[1, 0, 1], (1, 0, 1), np.array([1, 0, 1]), np.array([1.0, 0.0, 1.0]), ["1", "0", "1"], [True, False, True]],
        ids=repr,
    )
    def test_accepts_zeros_and_ones_of_any_type(self, bits):
        arr = bitops.as_bit_array(bits)
        assert arr.dtype == np.uint8 and arr.tolist() == [1, 0, 1]

    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_])
    def test_uint8_and_bool_arrays_are_not_copied(self, dtype):
        bits = np.array([1, 0, 1], dtype=dtype)
        assert np.shares_memory(bitops.as_bit_array(bits), bits)


class TestPacking:
    def test_pack_known_byte(self):
        assert bitops.pack_bits("01000110") == b"\x46"

    def test_pack_two_bytes(self):
        assert bitops.pack_bits("0100011001110001") == b"\x46\x71"

    def test_pack_rejects_partial_byte(self):
        with pytest.raises(ValueError):
            bitops.pack_bits("0100011")

    @given(st.binary(min_size=0, max_size=64))
    def test_round_trip(self, data):
        assert bitops.pack_bits(bitops.unpack_bits(data)) == data

    @given(st.lists(st.integers(0, 1), min_size=8, max_size=64).filter(lambda b: len(b) % 8 == 0))
    def test_round_trip_from_bits(self, bits):
        assert list(bitops.unpack_bits(bitops.pack_bits(bits))) == bits


class TestStateBits:
    def test_big_endian_layout(self):
        assert list(bitops.state_bits([4, 6], 4)) == [0, 1, 0, 0, 0, 1, 1, 0]

    def test_str_round_trip(self):
        s = "0100011001110001"
        assert bitops.bits_to_str(bitops.as_bit_array(s)) == s

    def test_width_one_per_state(self):
        assert list(bitops.state_bits([1, 0, 1], 1)) == [1, 0, 1]

    def test_matches_format_builtin(self):
        states = np.array([3, 9, 15])
        expected = "".join(format(int(s), "04b") for s in states)
        assert bitops.bits_to_str(bitops.state_bits(states, 4)) == expected

    @pytest.mark.parametrize("n_bits", range(2, 17))
    def test_matches_shift_formula(self, n_bits):
        # the formula state_bits had: one int64 shift per state and digit,
        # which reads the low n_bits of a larger or a negative state
        rng = np.random.default_rng(n_bits)
        states = np.concatenate([
            rng.integers(0, 1 << n_bits, 1000),
            [0, (1 << n_bits) - 1],
            rng.integers(-(2**40), 2**40, 100),
            [1 << n_bits, -1, -(1 << n_bits), -(2**63), 2**63 - 1],
        ])
        shifts = np.arange(n_bits - 1, -1, -1, dtype=np.int64)
        for given_states in (states, states.tolist(), states[:0], []):
            arr = np.asarray(given_states, dtype=np.int64)
            expected = ((arr[:, None] >> shifts) & 1).astype(np.uint8).ravel()
            got = bitops.state_bits(given_states, n_bits)
            assert got.dtype == np.uint8 and got.shape == expected.shape
            assert np.array_equal(got, expected)


class TestStateCodes:
    @pytest.mark.parametrize("n_bits", range(1, 17))
    def test_rows_equal_format_builtin(self, n_bits):
        codes = bitops.state_codes(n_bits)
        assert codes.dtype == np.uint8 and codes.shape == (1 << n_bits, n_bits)
        rows = range(1 << n_bits)
        if n_bits > 12:
            rows = np.random.default_rng(n_bits).integers(0, 1 << n_bits, 1000).tolist()
        for x in rows:
            assert codes[x].tobytes() == format(x, f"0{n_bits}b").encode("ascii"), x

    @pytest.mark.parametrize("n_bits", [1, 8, 16])
    def test_cached_read_only(self, n_bits):
        codes = bitops.state_codes(n_bits)
        assert bitops.state_codes(n_bits) is codes
        assert not codes.flags.writeable
        with pytest.raises(ValueError):
            codes[0, 0] = ord("1")

    @pytest.mark.parametrize("n_bits", [0, 17])
    def test_rejects_widths_outside_1_to_16(self, n_bits):
        with pytest.raises(ValueError, match="n_bits"):
            bitops.state_codes(n_bits)
        with pytest.raises(ValueError, match="n_bits"):
            bitops.state_bits([0], n_bits)
