import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ciprng import sources
from ciprng.errors import ScriptExhaustedError


# regression oracle: first words of the generator, frozen when the
# documented (13, 7, 17) left-right-left variant was first implemented
GOLDEN_WORDS_BIT_SEED = (
    15860402102123842989,
    7273575876580499574,
    8865281517519135030,
    3485510186621062260,
    3236705911238380268,
    10885233071271705465,
)
GOLDEN_WORDS_COORD_SEED = (
    10683642729870190617,
    5957422752901758857,
    18222307170241490486,
    6833095008762592234,
    1737472955440681629,
    1976115375378731640,
)
GOLDEN_WORDS_SEED_1 = (
    1082269761,
    1152992998833853505,
    11177516664432764457,
    17678023832001937445,
)
GOLDEN_BITS_BIT_SEED = "1000011010111011011111001011111100100110001010111011000001101011"


class TestXorshift64:
    def test_golden_words_default_bit_seed(self):
        x = sources.Xorshift64(sources.DEFAULT_BIT_SEED)
        assert tuple(x.next_word() for _ in range(6)) == GOLDEN_WORDS_BIT_SEED

    def test_golden_words_default_coord_seed(self):
        x = sources.Xorshift64(sources.DEFAULT_COORD_SEED)
        assert tuple(x.next_word() for _ in range(6)) == GOLDEN_WORDS_COORD_SEED

    def test_golden_words_seed_one(self):
        x = sources.Xorshift64(1)
        assert tuple(x.next_word() for _ in range(4)) == GOLDEN_WORDS_SEED_1

    def test_golden_bit_stream(self):
        x = sources.Xorshift64(sources.DEFAULT_BIT_SEED)
        assert "".join(str(x.next_bit()) for _ in range(64)) == GOLDEN_BITS_BIT_SEED

    def test_identical_seeds_identical_streams(self):
        a = sources.Xorshift64(987654321)
        b = sources.Xorshift64(987654321)
        assert [a.next_word() for _ in range(100)] == [b.next_word() for _ in range(100)]

    def test_rejects_zero_seed(self):
        with pytest.raises(ValueError):
            sources.Xorshift64(0)

    def test_rejects_oversized_seed(self):
        with pytest.raises(ValueError):
            sources.Xorshift64(1 << 64)

    def test_state_stays_nonzero_and_64_bit(self):
        x = sources.Xorshift64(0xFFFFFFFFFFFFFFFF)
        for _ in range(1000):
            w = x.next_word()
            assert 0 < w < (1 << 64)

    @pytest.mark.parametrize("n_bits", [2, 3, 4, 16])
    def test_coordinates_in_range(self, n_bits):
        x = sources.Xorshift64(42)
        for _ in range(500):
            assert 1 <= x.next_coordinate(n_bits) <= n_bits

    def test_coordinate_rejects_narrow_width(self):
        with pytest.raises(ValueError):
            sources.Xorshift64(42).next_coordinate(1)

    def test_coordinate_frequencies_near_uniform(self):
        # empirical run with a fixed seed: each of the two coordinates
        # should land within 49-51% over 10^5 draws
        x = sources.Xorshift64(sources.DEFAULT_COORD_SEED)
        draws = 100_000
        ones = sum(1 for _ in range(draws) if x.next_coordinate(2) == 1)
        assert 0.49 <= ones / draws <= 0.51


class TestXorshift64Arrays:
    """Array draws equal the same number of single draws, jump-ahead included."""

    # around the first doublings of the walk from one word, and the
    # steady jump of _JUMP_WORDS words, whose last block is partial
    @pytest.mark.parametrize(
        "count", [0, 1, 2, 3, 4, 5, 63, 64, 65, 200, 8192, 8193, 2 * sources._JUMP_WORDS + 1, 20_000]
    )
    def test_words_equal_single_steps(self, count):
        bulk, single = sources.Xorshift64(0xDEADBEEF), sources.Xorshift64(0xDEADBEEF)
        words = bulk.words(count)
        assert words.dtype == np.uint64
        assert [int(w) for w in words] == [single.next_word() for _ in range(count)]
        assert bulk.state == single.state

    def test_consecutive_calls_continue_the_stream(self):
        bulk, single = sources.Xorshift64(77), sources.Xorshift64(77)
        got = np.concatenate([bulk.words(100), bulk.words(9000), bulk.words(3)])
        assert [int(w) for w in got] == [single.next_word() for _ in range(9103)]

    @pytest.mark.parametrize("n_bits", [2, 3, 4, 16])
    def test_bits_and_coordinates_equal_single_draws(self, n_bits):
        bulk, single = sources.Xorshift64(42), sources.Xorshift64(42)
        assert list(bulk.bits(300)) == [single.next_bit() for _ in range(300)]
        assert list(bulk.coordinates(3000, n_bits)) == [
            single.next_coordinate(n_bits) for _ in range(3000)
        ]
        assert bulk.state == single.state

    def test_coordinates_reject_narrow_width(self):
        with pytest.raises(ValueError):
            sources.Xorshift64(42).coordinates(5, 1)


def brute_byte_tables(columns):
    """Byte-sliced tables of the matrix with these 64 columns, by plain XORs."""
    tables = [[0] * 256 for _ in range(8)]
    for j in range(8):
        for v in range(256):
            for b in range(8):
                if v >> b & 1:
                    tables[j][v] ^= columns[8 * j + b]
    return np.array(tables, dtype=np.uint64)


class TestMatrixTables:
    """The cached byte-sliced matrices equal matrices made by single steps."""

    @pytest.mark.parametrize("log_steps", [0, 1, 3, 6])
    def test_jump_tables(self, log_steps):
        columns = []
        for i in range(64):
            x = sources.Xorshift64(1 << i)
            for _ in range(1 << log_steps):
                x.next_word()
            columns.append(x.state)
        assert np.array_equal(sources._jump_tables(log_steps), brute_byte_tables(columns))

    def test_plane_tables(self):
        tables = sources._plane_tables()
        assert tables.shape == (sources._MAX_PLANES, 8, 256)
        # row b of the walk: M^b of each unit word, b = 0 being the word itself
        walk = []
        for i in range(64):
            x = sources.Xorshift64(1 << i)
            walk.append([1 << i] + [x.next_word() for _ in range(63)])
        for plane in range(sources._MAX_PLANES):
            # column i: bit b is bit `plane` of M^b e_i
            columns = [sum((w >> plane & 1) << b for b, w in enumerate(row)) for row in walk]
            assert np.array_equal(tables[plane], brute_byte_tables(columns)), plane


# widths read from bit planes, and widths read from whole words
PLANE_WIDTHS = (2, 4, 8, 16)
WORD_WIDTHS = (3, 5, 12)
# around each anchor stride and each doubling of the anchor walk, up to
# past its steady jump of 8192 anchors
PLANE_COUNTS = sorted(
    {0, 1, 63, 64, 65}
    | {64 * (1 << t) + d for t in range(15) for d in (-1, 1)}
)


def from_words(words, n_bits):
    return (words % np.uint64(n_bits)).astype(np.int64) + 1


class TestPlaneDraws:
    """bits() and coordinates() equal values derived from words(), state included."""

    @pytest.mark.parametrize("count", PLANE_COUNTS)
    def test_bits_and_coordinates_equal_words(self, count):
        ref = sources.Xorshift64(0x5EED)
        words = ref.words(count)
        x = sources.Xorshift64(0x5EED)
        bits = x.bits(count)
        assert bits.dtype == np.uint8
        assert np.array_equal(bits, (words & np.uint64(1)).astype(np.uint8))
        assert x.state == ref.state
        for n_bits in PLANE_WIDTHS + WORD_WIDTHS:
            x = sources.Xorshift64(0x5EED)
            coords = x.coordinates(count, n_bits)
            assert coords.dtype == np.int64
            assert np.array_equal(coords, from_words(words, n_bits)), n_bits
            assert x.state == ref.state, n_bits

    def test_consecutive_calls_continue_the_stream(self):
        ref, x = sources.Xorshift64(2024), sources.Xorshift64(2024)
        # (count, n_bits) of each call, n_bits 0 standing for bits()
        calls = [(1, 0), (63, 4), (64, 2), (0, 8), (65, 16), (129, 3), (4095, 4), (1, 16),
                 (8191, 8), (4097, 0), (3000, 12), (127, 2), (70000, 4), (5, 5)]
        for count, n_bits in calls:
            words = ref.words(count)
            if n_bits:
                assert np.array_equal(x.coordinates(count, n_bits), from_words(words, n_bits))
            else:
                assert np.array_equal(x.bits(count), (words & np.uint64(1)).astype(np.uint8))
            assert x.state == ref.state, (count, n_bits)

    @settings(max_examples=60)
    @given(
        seed=st.integers(1, (1 << 64) - 1),
        counts=st.lists(st.integers(0, 3000), min_size=1, max_size=4),
        n_bits=st.sampled_from(PLANE_WIDTHS + WORD_WIDTHS),
    )
    def test_draws_equal_words_for_any_seed(self, seed, counts, n_bits):
        ref, x = sources.Xorshift64(seed), sources.Xorshift64(seed)
        for i, count in enumerate(counts):
            words = ref.words(count)
            if i % 2:
                assert np.array_equal(x.bits(count), (words & np.uint64(1)).astype(np.uint8))
            else:
                assert np.array_equal(x.coordinates(count, n_bits), from_words(words, n_bits))
            assert x.state == ref.state


class TestScriptedSource:
    def test_replays_bits_in_order(self):
        s = sources.ScriptedSource([0, 1, 0])
        assert [s.next_bit() for _ in range(3)] == [0, 1, 0]

    def test_replays_coordinates_verbatim(self):
        s = sources.ScriptedSource([2, 4, 2, 3])
        assert [s.next_coordinate(4) for _ in range(4)] == [2, 4, 2, 3]

    def test_exhaustion_raises(self):
        s = sources.ScriptedSource([1])
        s.next_bit()
        with pytest.raises(ScriptExhaustedError):
            s.next_bit()

    def test_cycle_mode_wraps(self):
        s = sources.ScriptedSource([0, 1], cycle=True)
        assert [s.next_bit() for _ in range(5)] == [0, 1, 0, 1, 0]

    def test_bad_bit_value(self):
        with pytest.raises(ValueError):
            sources.ScriptedSource([2]).next_bit()

    def test_coordinate_out_of_range(self):
        with pytest.raises(ValueError):
            sources.ScriptedSource([5]).next_coordinate(4)

    @pytest.mark.parametrize("value", [1.7, "3"])
    def test_rejects_non_integer_value(self, value):
        with pytest.raises(TypeError):
            sources.ScriptedSource([value])

    def test_numpy_integers_are_stored_as_ints(self):
        s = sources.ScriptedSource(np.array([2, 4], dtype=np.uint8))
        assert s.values == (2, 4)
        assert all(type(v) is int for v in s.values)


class TestScriptedArrays:
    """Scripted single draws at the script's edges: wrap, exhaustion, bad values."""

    def test_cycle_wraps_like_single_draws(self):
        s = sources.ScriptedSource([1, 2, 3], cycle=True)
        assert [s.next_coordinate(3) for _ in range(7)] == [1, 2, 3, 1, 2, 3, 1]
        assert s.cursor == 1

    def test_exhaustion_stops_where_single_draws_stop(self):
        s = sources.ScriptedSource([0, 1, 1])
        assert [s.next_bit() for _ in range(3)] == [0, 1, 1]
        with pytest.raises(ScriptExhaustedError):
            s.next_bit()
        assert s.cursor == 3
        with pytest.raises(ScriptExhaustedError):
            s.next_coordinate(4)

    def test_out_of_range_values_raise_where_single_draws_stop(self):
        s = sources.ScriptedSource([1, 2, 5, 1])
        assert [s.next_coordinate(4) for _ in range(2)] == [1, 2]
        with pytest.raises(ValueError, match="5"):
            s.next_coordinate(4)
        assert s.cursor == 3
        assert s.next_coordinate(4) == 1
        with pytest.raises(ValueError):
            sources.ScriptedSource([1 << 70]).next_coordinate(4)

    def test_bad_bit_message_is_the_single_draws(self):
        s = sources.ScriptedSource([0, 2])
        assert s.next_bit() == 0
        with pytest.raises(ValueError, match=r"^scripted bit source produced 2, expected 0 or 1$"):
            s.next_bit()

    def test_empty_cycling_script_is_exhausted(self):
        with pytest.raises(ScriptExhaustedError):
            sources.ScriptedSource([], cycle=True).next_bit()
        with pytest.raises(ScriptExhaustedError):
            sources.ScriptedSource([], cycle=True).next_coordinate(4)


class TestParsing:
    def test_parse_seed_decimal(self):
        assert sources.parse_seed("12345") == 12345

    def test_parse_seed_hex(self):
        assert sources.parse_seed("0x9E3779B97F4A7C15") == 0x9E3779B97F4A7C15

    def test_parse_seed_rejects_zero(self):
        with pytest.raises(ValueError):
            sources.parse_seed("0")

    def test_parse_seed_rejects_oversized(self):
        with pytest.raises(ValueError):
            sources.parse_seed(str(1 << 64))

    def test_parse_script(self):
        assert sources.parse_script("2, 4,2,3") == [2, 4, 2, 3]

    def test_parse_script_rejects_empty(self):
        with pytest.raises(ValueError):
            sources.parse_script(" , ")
