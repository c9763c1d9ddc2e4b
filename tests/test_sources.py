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

    @pytest.mark.parametrize("seed", [5.0, "5"])
    def test_rejects_non_integer_seed(self, seed):
        with pytest.raises(TypeError):
            sources.Xorshift64(seed)

    @pytest.mark.parametrize("seed", [np.uint64(5), np.int64(5), np.uint8(5)])
    def test_numpy_seed_draws_python_ints(self, seed):
        x, ref = sources.Xorshift64(seed), sources.Xorshift64(5)
        assert type(x.state) is int
        words = [x.next_word() for _ in range(5)] + [x.next_bit(), x.next_coordinate(12)]
        assert words == [ref.next_word() for _ in range(5)] + [ref.next_bit(), ref.next_coordinate(12)]
        assert all(type(w) is int for w in words)
        assert x.state == ref.state

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

    @pytest.mark.parametrize("n_bits", [4.0, 2.5])
    def test_coordinate_rejects_non_integer_width_before_drawing(self, n_bits):
        # as the array draw coordinates(1, 4.0) does
        x = sources.Xorshift64(5)
        with pytest.raises(TypeError):
            x.next_coordinate(n_bits)
        assert x.state == 5

    @pytest.mark.parametrize("n_bits", [np.int64(4), np.uint8(12)])
    def test_numpy_width_draws_python_ints(self, n_bits):
        x, ref = sources.Xorshift64(5), sources.Xorshift64(5)
        got = [x.next_coordinate(n_bits) for _ in range(20)]
        assert got == [ref.next_coordinate(int(n_bits)) for _ in range(20)]
        assert all(type(c) is int for c in got)

    def test_coordinate_frequencies_near_uniform(self):
        # empirical run with a fixed seed: each of the two coordinates
        # should land within 49-51% over 10^5 draws
        x = sources.Xorshift64(sources.DEFAULT_COORD_SEED)
        draws = 100_000
        ones = sum(1 for _ in range(draws) if x.next_coordinate(2) == 1)
        assert 0.49 <= ones / draws <= 0.51


class TestXorshift64Arrays:
    """Array draws equal the same number of single draws, state included."""

    # short calls of fewer rows than 64, whole and partial lanes, and
    # around the anchor chunks of _ANCHOR_CHUNK anchors
    @pytest.mark.parametrize(
        "count",
        [0, 1, 2, 3, 4, 5, 63, 64, 65, 127, 128, 129, 200, 8192, 8193, 20_000,
         64 * sources._ANCHOR_CHUNK - 1, 64 * sources._ANCHOR_CHUNK + 1, 2 * 64 * sources._ANCHOR_CHUNK + 1],
    )
    def test_words_equal_single_steps(self, count):
        bulk, single = sources.Xorshift64(0xDEADBEEF), sources.Xorshift64(0xDEADBEEF)
        words = bulk.words(count)
        assert words.dtype == np.uint64
        assert [int(w) for w in words] == [single.next_word() for _ in range(count)]
        assert bulk.state == single.state

    @pytest.mark.parametrize("count", [1, 2, 63, 64, 65, 130, 200])
    def test_lane_block(self, count):
        # entry [j, l] is word 64 l + j, with no more rows than words
        x, single = sources.Xorshift64(0xC0FFEE), sources.Xorshift64(0xC0FFEE)
        block = x._lanes(count)
        assert block.shape == (min(count, 64), -(-count // 64))
        for i in range(count):
            assert int(block[i % 64, i // 64]) == single.next_word(), i
        assert x.state == single.state

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

    # widths whose coordinates come from whole words, at short calls,
    # lane edges and a partial last lane
    @pytest.mark.parametrize("n_bits", [3, 5, 6, 7, 9, 12, 15])
    def test_word_width_coordinates_equal_single_draws(self, n_bits):
        bulk, single = sources.Xorshift64(0xFACADE), sources.Xorshift64(0xFACADE)
        for count in (1, 5, 63, 64, 65, 128, 129, 4097):
            coords = bulk.coordinates(count, n_bits)
            assert coords.dtype == np.uint8
            assert coords.tolist() == [single.next_coordinate(n_bits) for _ in range(count)], count
            assert bulk.state == single.state, count

    def test_coordinates_reject_narrow_width(self):
        with pytest.raises(ValueError):
            sources.Xorshift64(42).coordinates(5, 1)

    @pytest.mark.parametrize("count", [-1, -64, -200])
    @pytest.mark.parametrize("draw", ["words", "bits", "coordinates(4)", "coordinates(12)"])
    def test_negative_count_is_refused_before_any_draw(self, draw, count):
        x = sources.Xorshift64(5)
        method, _, n_bits = draw.rstrip(")").partition("(")
        args = (count, int(n_bits)) if n_bits else (count,)
        with pytest.raises(ValueError, match=f"count must be >= 0, got {count}"):
            getattr(x, method)(*args)
        assert x.state == 5

    def test_non_integer_count_or_width_is_refused(self):
        x = sources.Xorshift64(5)
        for call in (lambda: x.words(3.0), lambda: x.bits(3.0), lambda: x.coordinates(3.0, 4),
                     lambda: x.coordinates(3, 4.0), lambda: x.coordinates(3, 12.0)):
            with pytest.raises(TypeError):
                call()
        assert x.state == 5

    def test_numpy_counts_and_widths_draw_as_ints(self):
        bulk, ref = sources.Xorshift64(5), sources.Xorshift64(5)
        assert np.array_equal(bulk.coordinates(np.int64(100), np.uint8(12)), ref.coordinates(100, 12))
        assert np.array_equal(bulk.bits(np.uint16(70)), ref.bits(70))
        assert bulk.state == ref.state


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

    def test_anchor_table(self):
        table = sources._tables()[0]
        assert table.shape == (64, sources._ANCHOR_CHUNK + 1)
        assert not table.flags.writeable
        # the columns on each side of every doubling seam up to 64 (the
        # build fills columns d + 1..2d from column d), by single steps
        seams = sorted({j for d in (1, 2, 4, 8, 16, 32, 64) for j in (d, d + 1)} | {0})
        for i in range(64):
            x = sources.Xorshift64(1 << i)
            walk = {0: 1 << i}
            for j in range(1, seams[-1] + 1):
                for _ in range(64):
                    x.next_word()
                walk[j] = x.state
            assert [int(table[i, j]) for j in seams] == [walk[j] for j in seams], i
        # the last entry, 2^16 steps on, from words()
        last = [int(sources.Xorshift64(1 << i).words(64 * sources._ANCHOR_CHUNK)[-1]) for i in range(64)]
        assert [int(w) for w in table[:, -1]] == last

    def test_plane_tables(self):
        tables = sources._tables()[1]
        assert tables.shape == (sources._MAX_PLANES, 8, 256)
        assert not tables.flags.writeable
        # row b of the walk: M^b of each unit word, b = 0 being the word itself
        walk = []
        for i in range(64):
            x = sources.Xorshift64(1 << i)
            walk.append([1 << i] + [x.next_word() for _ in range(63)])
        for plane in range(sources._MAX_PLANES):
            # column i: bit b is bit `plane` of M^b e_i
            columns = [sum((w >> plane & 1) << b for b, w in enumerate(row)) for row in walk]
            assert np.array_equal(tables[plane], brute_byte_tables(columns)), plane


def test_anchor_gather_makes_no_walk(monkeypatch):
    # the anchors come from one gather per chunk, not from a jump-ahead walk
    # whose length grows with the count: only the one pass over the planes jumps
    sources._tables()
    calls = []
    jump = sources._jump

    def counted(tables, words):
        calls.append(words.size)
        return jump(tables, words)

    monkeypatch.setattr(sources, "_jump", counted)
    counts = []
    for count in (4096, 1 << 18):
        calls.clear()
        sources.Xorshift64(9).coordinates(count, 4)
        counts.append(len(calls))
    assert counts == [1, 1]


# widths read from bit planes, and widths read from whole words in lanes
# (which TestXorshift64Arrays checks against single draws)
PLANE_WIDTHS = (2, 4, 8, 16)
WORD_WIDTHS = (3, 5, 12)
# around each anchor stride and each power of two of anchors, up to past
# 8192 anchors, so the anchor chunks of _ANCHOR_CHUNK end whole and partial
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
            assert coords.dtype == np.uint8
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

    def test_coordinate_width_is_an_integer(self):
        s = sources.ScriptedSource([3, 4])
        with pytest.raises(TypeError):
            s.next_coordinate(4.0)
        assert s.cursor == 0
        assert [s.next_coordinate(np.int64(4)), s.next_coordinate(np.uint8(4))] == [3, 4]

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
