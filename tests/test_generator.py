import itertools
import random
import re
import tracemalloc

from hypothesis import given, strategies as st

import numpy as np
import pytest

from ciprng import bitops, func, generator
from ciprng.errors import ScriptExhaustedError
from ciprng.generator import CiGenerator, GeneratorConfig
from ciprng.sources import EntropySource, ScriptedSource, Xorshift64

from oracles import interpret_updates, packed_text, state_text
from reference_data import (
    KNOWN_CHAOTIC_VARIANTS,
    TRACE_BINARY_WITH_SEED,
    TRACE_BITS,
    TRACE_COORDS,
    TRACE_IMAGES,
    TRACE_K,
    TRACE_ROUND_OUTPUTS,
    TRACE_SEED_STATE,
)


def trace_generator(cycle=False):
    f = func.VectorOfImages(4, TRACE_IMAGES)
    config = GeneratorConfig(f, k=TRACE_K, seed_state=TRACE_SEED_STATE, strict=False)
    return CiGenerator(
        config,
        ScriptedSource(TRACE_BITS, cycle=cycle),
        ScriptedSource(TRACE_COORDS, cycle=cycle),
    )


class TestConfig:
    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            GeneratorConfig(func.negation(4), k=0, seed_state=0, strict=False)

    def test_strict_mode_requires_k_above_3n(self):
        with pytest.raises(ValueError):
            GeneratorConfig(func.negation(4), k=12, seed_state=0)
        GeneratorConfig(func.negation(4), k=13, seed_state=0)  # boundary accepted

    def test_compat_mode_allows_small_k(self):
        GeneratorConfig(func.negation(4), k=4, seed_state=0, strict=False)

    def test_seed_state_range(self):
        with pytest.raises(ValueError):
            GeneratorConfig(func.negation(4), k=13, seed_state=16)
        with pytest.raises(ValueError):
            GeneratorConfig(func.negation(4), k=13, seed_state=-1)

    def test_rejects_non_integer_k(self):
        with pytest.raises(TypeError):
            GeneratorConfig(func.negation(4), k=13.0, seed_state=0)

    def test_rejects_non_integer_seed_state(self):
        with pytest.raises(TypeError):
            GeneratorConfig(func.negation(4), k=13, seed_state=2.0)

    def test_numpy_integers_are_stored_as_ints(self):
        config = GeneratorConfig(func.negation(4), k=np.int64(13), seed_state=np.uint8(2))
        assert (config.k, config.seed_state) == (13, 2)
        assert type(config.k) is int and type(config.seed_state) is int


class TestGoldenTrace:
    def test_round_outputs(self):
        gen = trace_generator()
        assert [gen.round() for _ in range(3)] == list(TRACE_ROUND_OUTPUTS)
        assert gen.rounds_emitted == 3

    def test_bit_stream_with_seed(self):
        assert trace_generator().bit_stream(3, include_seed=True) == TRACE_BINARY_WITH_SEED

    def test_bit_stream_without_seed(self):
        assert trace_generator().bit_stream(3) == TRACE_BINARY_WITH_SEED[4:]

    def test_first_byte_without_seed(self):
        assert trace_generator(cycle=True).byte_stream(1) == b"\x67"


class TestRound:
    def test_identity_function_returns_seed(self):
        f = func.identity(3)
        config = GeneratorConfig(f, k=2, seed_state=5, strict=False)
        gen = CiGenerator(config, ScriptedSource([1, 0, 1]), ScriptedSource([1, 2, 3] * 3))
        assert [gen.round() for _ in range(3)] == [5, 5, 5]

    def test_single_update_rounds_move_one_coordinate(self):
        f = func.negation(4)
        config = GeneratorConfig(f, k=1, seed_state=0, strict=False)
        gen = CiGenerator(
            config, ScriptedSource([0], cycle=True), ScriptedSource([1, 2, 3, 4], cycle=True)
        )
        prev = gen.x
        for _ in range(20):
            cur = gen.round()
            assert bin(cur ^ prev).count("1") <= 1
            prev = cur

    def test_script_exhaustion_propagates(self):
        gen = trace_generator()
        for _ in range(3):
            gen.round()
        with pytest.raises(ScriptExhaustedError):
            gen.round()

    def test_matches_interpreter_on_random_runs(self):
        rnd = random.Random(4242)
        for _ in range(1000):
            n_bits = rnd.randint(2, 4)
            size = 1 << n_bits
            images = tuple(rnd.randrange(size) for _ in range(size))
            x0 = rnd.randrange(size)
            bit = rnd.randint(0, 1)
            k = rnd.randint(1, 31)
            strategy = [rnd.randint(1, n_bits) for _ in range(bit + k)]
            config = GeneratorConfig(
                func.VectorOfImages(n_bits, images), k=k, seed_state=x0, strict=False
            )
            gen = CiGenerator(config, ScriptedSource([bit]), ScriptedSource(strategy))
            expected = interpret_updates(images, n_bits, x0, strategy)
            assert gen.round() == expected[-1]

    def test_multi_round_matches_interpreter(self):
        gen = trace_generator()
        strategy = list(TRACE_COORDS)
        trace = interpret_updates(TRACE_IMAGES, 4, TRACE_SEED_STATE, strategy)
        # round boundaries after 4, 9, and 13 updates
        assert [gen.round() for _ in range(3)] == [trace[3], trace[8], trace[12]]

    def test_full_state_coverage_by_single_updates(self):
        # any state reaches any other through single-coordinate rounds when
        # the function's graph is strongly connected (checked for N <= 4)
        for n_bits in (2, 3, 4):
            f = func.negation(n_bits)
            size = 1 << n_bits
            for start in range(size):
                seen = {start}
                frontier = [start]
                while frontier:
                    nxt = []
                    for x in frontier:
                        for coord in range(1, n_bits + 1):
                            config = GeneratorConfig(f, k=1, seed_state=x, strict=False)
                            gen = CiGenerator(
                                config, ScriptedSource([0]), ScriptedSource([coord])
                            )
                            y = gen.round()
                            if y not in seen:
                                seen.add(y)
                                nxt.append(y)
                    frontier = nxt
                assert seen == set(range(size))


class TestStreams:
    def test_byte_stream_length_exact(self):
        config = GeneratorConfig(func.negation(4), k=13, seed_state=0)
        gen = CiGenerator(config, Xorshift64(111), Xorshift64(222))
        assert len(gen.byte_stream(1000)) == 1000

    def test_byte_packing_msb_first(self):
        f = func.identity(4)
        config = GeneratorConfig(f, k=1, seed_state=0b0100, strict=False)
        gen = CiGenerator(
            config, ScriptedSource([0], cycle=True), ScriptedSource([1], cycle=True)
        )
        # identity keeps the state at 0100; two rounds pack as 01000100
        assert gen.byte_stream(1) == bytes([0b01000100])

    def test_replay_determinism(self):
        def make():
            config = GeneratorConfig(func.negation(4), k=13, seed_state=3)
            return CiGenerator(config, Xorshift64(777), Xorshift64(888))

        assert make().byte_stream(4096) == make().byte_stream(4096)

    def test_bit_stream_invalid_rounds(self):
        gen = trace_generator()
        with pytest.raises(ValueError):
            gen.bit_stream(0)

    def test_one_round_identity_without_seed_is_seed_bits(self):
        f = func.identity(4)
        config = GeneratorConfig(f, k=2, seed_state=0b1010, strict=False)
        gen = CiGenerator(config, ScriptedSource([0]), ScriptedSource([1, 2]))
        assert gen.bit_stream(1) == "1010"


class TestFastPath:
    """states() and byte_stream() equal round() loops on identically seeded
    fresh generators: outputs, final x, both source states, round count."""

    @staticmethod
    def make_pair(images, n_bits, k=None, seed_state=0, s1=314159, s2=271828):
        f = func.VectorOfImages(n_bits, images)
        k = 3 * n_bits + 1 if k is None else k

        def make():
            config = GeneratorConfig(f, k=k, seed_state=seed_state, strict=False)
            return CiGenerator(config, Xorshift64(s1), Xorshift64(s2))

        return make(), make()

    @staticmethod
    def assert_same_end(bulk, loop):
        assert bulk.x == loop.x
        assert bulk.prng1.state == loop.prng1.state
        assert bulk.prng2.state == loop.prng2.state
        assert bulk.rounds_emitted == loop.rounds_emitted

    def test_states_match(self):
        # more rounds than one bulk block, so blocks are chained too
        bulk, loop = self.make_pair(func.negation(4).images, 4)
        n_rounds = bulk.block_rounds + 100
        assert list(bulk.states(n_rounds)) == [loop.round() for _ in range(n_rounds)]
        self.assert_same_end(bulk, loop)

    def test_states_match_other_widths(self):
        # widths on both sides of the crossover from the group-table walk
        # to the scalar loop: the widest N whose one-update table fits in
        # _GROUP_ENTRIES, and the next
        rnd = random.Random(5)
        widest = max(n for n in range(2, 17) if composed(n))
        widths = {2, 3, 4, 5, 8, 12, 16, widest, widest + 1}
        for n_bits in sorted(widths):
            size = 1 << n_bits
            images = tuple(rnd.randrange(size) for _ in range(size))
            bulk, loop = self.make_pair(images, n_bits, seed_state=rnd.randrange(size))
            assert list(bulk.states(500)) == [loop.round() for _ in range(500)], n_bits
            # a short call takes the same path as a long one
            assert list(bulk.states(7)) == [loop.round() for _ in range(7)], n_bits
            self.assert_same_end(bulk, loop)

    @pytest.mark.parametrize("k", [1, 2, 255, 300])
    def test_states_match_any_k(self, k):
        # with k = 255 and 300 a round counts more updates than a uint8 holds
        for n_bits in (3, 6):
            for f in (func.negation(n_bits), dense(n_bits)):
                bulk, loop = self.make_pair(f.images, n_bits, k=k)
                assert list(bulk.states(300)) == [loop.round() for _ in range(300)]
                self.assert_same_end(bulk, loop)

    class MinimalSource(EntropySource):
        """Only the single draws of the interface."""

        def __init__(self, seed):
            self.inner = Xorshift64(seed)

        def next_bit(self):
            return self.inner.next_bit()

        def next_coordinate(self, n_bits):
            return self.inner.next_coordinate(n_bits)

    @pytest.mark.parametrize("kind", [MinimalSource])
    def test_states_match_with_any_source(self, kind):
        config = GeneratorConfig(func.negation(4), k=13, seed_state=0)
        bulk = CiGenerator(config, kind(314159), kind(271828))
        _, loop = self.make_pair(func.negation(4).images, 4, k=13)
        assert list(bulk.states(300)) == [loop.round() for _ in range(300)]
        assert bulk.byte_stream(64) == loop.byte_stream(64)
        assert bulk.prng1.inner.state == loop.prng1.state
        assert bulk.prng2.inner.state == loop.prng2.state
        assert (bulk.x, bulk.rounds_emitted) == (loop.x, loop.rounds_emitted)

    def test_chunked_calls_equal_one_call(self):
        # chunks around a whole block and the short ones below it; at
        # k = 5000 a block holds _BLOCK_UPDATES // 5001 rounds, under 64
        short = [1, 7, 63, 64, 65]
        cases = [(n_bits, 3 * n_bits + 1, short + whole_blocks(3 * n_bits + 1)) for n_bits in (2, 4, 5, 10, 12, 16)]
        cases += [(4, 5000, short), (12, 5000, short)]
        rnd = random.Random(9)
        for n_bits, k, chunks in cases:
            size = 1 << n_bits
            images = tuple(rnd.randrange(size) for _ in range(size))
            bulk, loop = self.make_pair(images, n_bits, k=k)
            one, _ = self.make_pair(images, n_bits, k=k)
            combined = np.concatenate([bulk.states(c) for c in chunks])
            assert list(combined) == [loop.round() for _ in range(sum(chunks))], (n_bits, k)
            assert list(combined) == list(one.states(sum(chunks))), (n_bits, k)
            self.assert_same_end(bulk, loop)

    def test_byte_stream_matches_pure(self):
        # N=5 drops tail bits: 4096 bits need 820 rounds of 5
        for n_bits in (4, 5):
            bulk, loop = self.make_pair(func.negation(n_bits).images, n_bits)
            rounds = -(-8 * 512 // n_bits)
            bits = bitops.state_bits([loop.round() for _ in range(rounds)], n_bits)
            assert bulk.byte_stream(512) == bitops.pack_bits(bits[: 8 * 512])
            self.assert_same_end(bulk, loop)


class TestScriptedBulk:
    """states() over scripted sources behaves as the round loop, failures included."""

    K = 4

    @classmethod
    def scripts(cls, n_rounds, seed=11):
        """Bits and coordinates for exactly n_rounds rounds."""
        rnd = random.Random(seed)
        bits = [rnd.randint(0, 1) for _ in range(n_rounds)]
        coords = [rnd.randint(1, 4) for _ in range(n_rounds * cls.K + sum(bits))]
        return bits, coords

    @classmethod
    def make_pair(cls, bits, coords, cycle_bits=False, cycle_coords=False):
        def make():
            config = GeneratorConfig(func.negation(4), k=cls.K, seed_state=0, strict=False)
            return CiGenerator(
                config,
                ScriptedSource(bits, cycle=cycle_bits),
                ScriptedSource(coords, cycle=cycle_coords),
            )

        return make(), make()

    @staticmethod
    def assert_same_end(bulk, loop):
        assert bulk.x == loop.x
        assert bulk.prng1.cursor == loop.prng1.cursor
        assert bulk.prng2.cursor == loop.prng2.cursor
        assert bulk.rounds_emitted == loop.rounds_emitted

    @staticmethod
    def round_loop_failure(loop, n_rounds, error):
        with pytest.raises(error) as caught:
            for _ in range(n_rounds):
                loop.round()
        return re.escape(str(caught.value))

    def test_exact_script_is_used_up(self):
        bulk, loop = self.make_pair(*self.scripts(300))
        assert list(bulk.states(300)) == [loop.round() for _ in range(300)]
        assert bulk.prng2.cursor == len(bulk.prng2.values)
        self.assert_same_end(bulk, loop)

    def test_cycle_wraps_like_round_loop(self):
        # script lengths share no factor with k or the block length
        bulk, loop = self.make_pair([0, 1, 1], [2, 4, 1, 3, 3, 1, 2], True, True)
        assert list(bulk.states(5000)) == [loop.round() for _ in range(5000)]
        self.assert_same_end(bulk, loop)

    @pytest.mark.parametrize("cut", ["bits", "coords"])
    def test_exhaustion_mid_call(self, cut):
        bits, coords = self.scripts(300)
        if cut == "bits":
            bits = bits[:250]  # round 251 finds no bit
        else:
            coords = coords[:-2]  # round 300 runs out of coordinates
        bulk, loop = self.make_pair(bits, coords)
        message = self.round_loop_failure(loop, 300, ScriptExhaustedError)
        with pytest.raises(ScriptExhaustedError, match=message):
            bulk.states(300)
        assert loop.rounds_emitted == (250 if cut == "bits" else 299)
        self.assert_same_end(bulk, loop)

    @pytest.mark.parametrize("case", ["bad bit", "bad coordinate", "exhaustion first"])
    def test_failures_surface_in_round_order(self, case):
        bits, coords = self.scripts(300)
        before_round_200 = 199 * self.K + sum(bits[:199])
        if case == "bad bit":
            bits[199] = 2
            error = ValueError
        elif case == "bad coordinate":
            coords[before_round_200] = 5
            error = ValueError
        else:
            # round 200 runs out of coordinates before round 201 reads its bad bit
            bits[200] = 2
            coords = coords[: before_round_200 + 1]
            error = ScriptExhaustedError
        bulk, loop = self.make_pair(bits, coords)
        message = self.round_loop_failure(loop, 300, error)
        with pytest.raises(error, match=message):
            bulk.states(300)
        assert loop.rounds_emitted == 199
        self.assert_same_end(bulk, loop)

    def test_failure_in_later_block_keeps_earlier_blocks(self):
        n_rounds = generator._BLOCK_UPDATES // (self.K + 1) + 300
        bits, coords = self.scripts(n_rounds)
        bulk, loop = self.make_pair(bits[:-100], coords)
        message = self.round_loop_failure(loop, n_rounds, ScriptExhaustedError)
        with pytest.raises(ScriptExhaustedError, match=message):
            bulk.states(n_rounds)
        assert bulk.rounds_emitted == n_rounds - 100
        self.assert_same_end(bulk, loop)


class TestSourceAliasing:
    def test_rejects_one_source_in_both_roles(self):
        source = Xorshift64(5)
        config = GeneratorConfig(func.negation(4), k=13, seed_state=0)
        with pytest.raises(ValueError, match="distinct"):
            CiGenerator(config, source, source)

    def test_equal_but_distinct_sources_are_accepted(self):
        config = GeneratorConfig(func.negation(4), k=13, seed_state=0)
        gen = CiGenerator(config, Xorshift64(5), Xorshift64(5))
        assert gen.states(10).size == 10


def composed(n_bits):
    """Whether a bulk generator of width n_bits over a dense f walks the group table."""
    return (n_bits + 1) << n_bits <= generator._GROUP_ENTRIES


def dense(n_bits):
    """A function far from the negation: a published variant at N=4, else random."""
    if n_bits == 4:
        return func.VectorOfImages(4, KNOWN_CHAOTIC_VARIANTS[2])
    rnd = random.Random(n_bits)
    return func.VectorOfImages(n_bits, [rnd.randrange(1 << n_bits) for _ in range(1 << n_bits)])


def paired_edits(n_bits, edits, seed=0):
    """The negation after `edits` seeded paired edits on disjoint pairs."""
    rnd = random.Random(seed)
    f = func.negation(n_bits)
    used = set()
    while len(used) < 2 * edits:
        q = rnd.randrange(1 << n_bits)
        i = rnd.randint(1, n_bits)
        if not {q, q ^ (1 << (i - 1))} & used:
            used |= {q, q ^ (1 << (i - 1))}
            f = func.mutate_pair(f, q + 1, i)
    return f


def trap(n_bits):
    """A balanced, non-chaotic f with a 2-state trap {0, 1}.

    From 0 and 1 only an update of coordinate N moves, to the other;
    from 0 ^ w and 1 ^ w the update of digit w is held instead, so that
    every row of the mapping matrix stays a permutation.  Every other
    state is the negation's.
    """
    mask = (1 << n_bits) - 1
    images = list(func.negation(n_bits).images)
    images[0], images[1] = 1, 0
    for b in range(1, n_bits):
        images[1 << b] = mask
        images[1 ^ (1 << b)] = mask ^ 1
    return func.VectorOfImages(n_bits, images)


ENGINES = {"flips": "_flip_rounds", "composed": "_compose_rounds", "scalar": "_scalar_rounds"}


def whole_blocks(k):
    """Chunks one round short of a whole block at k, and one round past it."""
    block = generator._BLOCK_UPDATES // (k + 1)
    return [block - 1, block + 1]


def engine_blocks(gen):
    """Sizes of the blocks gen.states() sends to its bulk engine from now on."""
    name = ENGINES[gen.path]
    engine = getattr(gen, name)
    sizes = []

    def counted(updates, coords, out):
        sizes.append(out.size)
        engine(updates, coords, out)

    setattr(gen, name, counted)
    return sizes


class TestBlockUpdateCap:
    """A bulk block holds at most _BLOCK_UPDATES updates; outputs do not change."""

    @pytest.mark.parametrize("n_bits", [4, 5])
    def test_capped_blocks_equal_round_loop(self, monkeypatch, n_bits):
        # k = 3N + 1 updates and one more for b: 100 rounds fill the cap
        k = 3 * n_bits + 1
        monkeypatch.setattr(generator, "_BLOCK_UPDATES", 100 * (k + 1))
        wide = "composed" if composed(n_bits) else "scalar"
        for f, path in ((dense(n_bits), wide), (func.negation(n_bits), "flips")):
            bulk, loop = TestFastPath.make_pair(f.images, n_bits, k=k)
            assert bulk.path == path
            blocks = engine_blocks(bulk)
            assert list(bulk.states(1050)) == [loop.round() for _ in range(1050)]
            TestFastPath.assert_same_end(bulk, loop)
            # ten full blocks, and the last 50 rounds in bulk too
            assert blocks == [100] * 10 + [50]

    def test_short_capped_blocks_run_bulk(self, monkeypatch):
        # a cap of 63 rounds: every block, the short tail too, runs in bulk
        k = 13
        monkeypatch.setattr(generator, "_BLOCK_UPDATES", 63 * (k + 1))
        for f in (dense(4), func.negation(4)):
            bulk, loop = TestFastPath.make_pair(f.images, 4, k=k)
            blocks = engine_blocks(bulk)
            assert list(bulk.states(300)) == [loop.round() for _ in range(300)]
            TestFastPath.assert_same_end(bulk, loop)
            assert blocks == [63] * 4 + [48]

    def test_cap_of_one_round_runs_bulk(self, monkeypatch):
        # k + 1 updates exactly fill the cap: one round a block
        monkeypatch.setattr(generator, "_BLOCK_UPDATES", 14)
        for f, path in ((dense(4), "composed"), (func.negation(4), "flips")):
            bulk, loop = TestFastPath.make_pair(f.images, 4, k=13)
            assert bulk.path == path
            blocks = engine_blocks(bulk)
            assert list(bulk.states(5)) == [loop.round() for _ in range(5)]
            TestFastPath.assert_same_end(bulk, loop)
            assert blocks == [1] * 5

    def test_cap_under_one_round_still_makes_progress(self, monkeypatch):
        # k + 1 updates exceed the cap: no block holds a round, so round() runs
        monkeypatch.setattr(generator, "_BLOCK_UPDATES", 3)
        bulk, loop = TestFastPath.make_pair(func.negation(4).images, 4, k=13)
        assert bulk.path == "round"
        assert list(bulk.states(5)) == [loop.round() for _ in range(5)]
        TestFastPath.assert_same_end(bulk, loop)

    def test_budget_alone_sizes_blocks_at_small_k(self):
        # at k = 13 a block holds as many rounds of 14 updates as the budget does
        bulk, _ = TestFastPath.make_pair(func.negation(4).images, 4, k=13)
        assert bulk.block_rounds == generator._BLOCK_UPDATES // 14
        blocks = engine_blocks(bulk)
        bulk.states(2 * bulk.block_rounds + 5)
        assert blocks == [generator._BLOCK_UPDATES // 14] * 2 + [5]


class TestPathBlocks:
    """A generator fixes the one path states() runs when it is built."""

    def test_long_narrow_call_is_composed(self):
        bulk, loop = TestFastPath.make_pair(dense(4).images, 4, k=13)
        assert bulk.path == "composed"
        blocks = engine_blocks(bulk)
        block = generator._BLOCK_UPDATES // (bulk.config.k + 1)
        n_rounds = block + 100
        assert list(bulk.states(n_rounds)) == [loop.round() for _ in range(n_rounds)]
        assert blocks == [block, 100]

    def test_wide_call_is_scalar(self):
        bulk, loop = TestFastPath.make_pair(dense(12).images, 12, k=37)
        assert bulk.path == "scalar"
        blocks = engine_blocks(bulk)
        assert list(bulk.states(200)) == [loop.round() for _ in range(200)]
        assert blocks == [200]

    @pytest.mark.parametrize("n_bits", [4, 12])
    def test_negation_call_flips(self, n_bits):
        bulk, loop = TestFastPath.make_pair(func.negation(n_bits).images, n_bits, k=3 * n_bits + 1)
        assert bulk.path == "flips"
        blocks = engine_blocks(bulk)
        block = generator._BLOCK_UPDATES // (bulk.config.k + 1)
        n_rounds = block + 100
        assert list(bulk.states(n_rounds)) == [loop.round() for _ in range(n_rounds)]
        assert blocks == [block, 100]

    def test_short_calls_run_bulk(self):
        for f in (dense(4), func.negation(4)):
            bulk, loop = TestFastPath.make_pair(f.images, 4, k=13)
            blocks = engine_blocks(bulk)
            for n_rounds in (1, 7, 63):
                assert list(bulk.states(n_rounds)) == [loop.round() for _ in range(n_rounds)]
            TestFastPath.assert_same_end(bulk, loop)
            assert blocks == [1, 7, 63]

    def test_failure_replay_runs_round(self):
        bits, coords = TestScriptedBulk.scripts(300)
        bulk, _ = TestScriptedBulk.make_pair(bits[:250], coords)
        assert bulk.path == "round"
        with pytest.raises(ScriptExhaustedError):
            bulk.states(300)

    @pytest.mark.parametrize("scripted", ["prng1", "prng2"])
    def test_scripted_source_runs_round_blocks_only(self, scripted):
        config = GeneratorConfig(func.negation(4), k=13, seed_state=0)

        def make():
            if scripted == "prng1":
                return CiGenerator(config, ScriptedSource([1, 0, 0, 1, 1], cycle=True), Xorshift64(99))
            return CiGenerator(config, Xorshift64(99), ScriptedSource([3, 1, 4, 2], cycle=True))

        bulk, loop = make(), make()
        assert bulk.path == "round"
        n_rounds = generator._BLOCK_UPDATES // 14 + 100
        assert list(bulk.states(n_rounds)) == [loop.round() for _ in range(n_rounds)]
        assert (bulk.x, bulk.rounds_emitted) == (loop.x, loop.rounds_emitted)

    def test_xorshift_subclass_runs_round_blocks_only(self):
        class Biased(Xorshift64):
            """Single draws that the inherited array draws do not match."""

            def next_bit(self):
                return 1

        config = GeneratorConfig(func.negation(4), k=13, seed_state=0)
        bulk = CiGenerator(config, Biased(5), Xorshift64(6))
        loop = CiGenerator(config, Biased(5), Xorshift64(6))
        assert bulk.path == "round"
        assert list(bulk.states(300)) == [loop.round() for _ in range(300)]
        assert (bulk.prng1.state, bulk.prng2.state) == (loop.prng1.state, loop.prng2.state)

    @pytest.mark.parametrize("n_bits", [4, 5, 10, 11, 12, 16])
    def test_xorshift_sources_run_no_round_blocks(self, n_bits):
        wide = "composed" if composed(n_bits) else "scalar"
        for f, path in ((dense(n_bits), wide), (func.negation(n_bits), "flips")):
            bulk, loop = TestFastPath.make_pair(f.images, n_bits, k=3 * n_bits + 1)
            assert bulk.path == path
            blocks = engine_blocks(bulk)
            got = np.concatenate([bulk.states(1), bulk.states(1000)])
            assert list(got) == [loop.round() for _ in range(1001)]
            TestFastPath.assert_same_end(bulk, loop)
            assert blocks == [1, 1000]


class TestGroupTableCache:
    """Generators over equal (f, k) share one read-only group table."""

    def test_equal_functions_share_one_table(self):
        images = tuple(random.Random(15).randrange(16) for _ in range(16))

        def make(k):
            config = GeneratorConfig(func.VectorOfImages(4, images), k=k, seed_state=3, strict=False)
            return CiGenerator(config, Xorshift64(41), Xorshift64(43))

        first, second, other_k = make(13), make(13), make(14)
        assert first.config.f is not second.config.f
        assert first._groups[0] is second._groups[0]
        assert other_k._groups[0] is not first._groups[0]
        table = first._groups[0]
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = table[1]
        loop = make(13)
        expected = [loop.round() for _ in range(300)]
        assert list(first.states(300)) == expected
        assert list(second.states(300)) == expected

    def test_mapping_matrix_runs_once_per_function_and_k(self, monkeypatch):
        calls = []
        mapping_matrix = generator.mapping_matrix

        def counted(f):
            calls.append(f)
            return mapping_matrix(f)

        monkeypatch.setattr(generator, "mapping_matrix", counted)
        generator._group_table.cache_clear()
        for _ in range(2):
            CiGenerator(GeneratorConfig(dense(4), k=13, seed_state=0), Xorshift64(1), Xorshift64(2))
        assert len(calls) == 1


class TestSequenceTable:
    """The composed walk's table of update sequences of 0 to g updates, and
    the walk over it, at every layout of a round's groups."""

    # (N, k, g): every group full but the last, which holds k + b - (per - 1) g
    LAYOUTS = [
        (4, 15, 4),  # per = 4, the same as at g = 5, which fits
        (8, 2, 2),  # per = 2: the last group holds b alone, empty when b = 0
        (2, 7, 8),  # per = 1: one group a round, g = k + 1
        (4, 1, 2),  # g = k + 1 at the smallest k
        (4, 255, 5),  # per = 52, 1024 rounds a block
        (3, 10, 6),  # per = 2, the same as at g = 7, which fits
        (5, 16, 4),
        (8, 25, 2),
        (10, 31, 1),
        (11, 34, 1),
        # per = 3, one walk iteration a round; the last group holds
        # k + b - 2g updates: 2-3, 3-4, 4-5, 4-5 and 6-7
        (4, 10, 4),
        (4, 13, 5),
        (4, 14, 5),
        (3, 14, 5),
        (2, 24, 9),
    ]

    @pytest.mark.parametrize("n_bits, k, g", LAYOUTS)
    def test_walk_equals_round_loop_over_chunks_and_seams(self, n_bits, k, g):
        f = dense(n_bits)
        per = -(-(k + 1) // g)
        assert generator._group_table(f, k)[1] == g and (per - 1) * g <= k
        bulk, loop = TestFastPath.make_pair(f.images, n_bits, k=k, seed_state=(7 * k) % f.size)
        one, _ = TestFastPath.make_pair(f.images, n_bits, k=k, seed_state=(7 * k) % f.size)
        assert bulk.path == "composed"
        block = generator._BLOCK_UPDATES // (k + 1)
        # short calls, a call one round short of a block, and one a round past it
        chunks = [1, 7, 64, block - 1, block + 1, 3]
        if (per - 1) * g == k:
            # rounds whose last group is empty (b = 0), and rounds whose last group holds b = 1
            bits = Xorshift64(314159).bits(sum(chunks))  # make_pair's first source
            assert 0 < bits.sum() < bits.size
        combined = np.concatenate([bulk.states(c) for c in chunks])
        assert list(combined) == [loop.round() for _ in range(sum(chunks))], (n_bits, k)
        assert list(combined) == list(one.states(sum(chunks))), (n_bits, k)
        TestFastPath.assert_same_end(bulk, loop)
        TestFastPath.assert_same_end(one, loop)

    def test_rows_are_compositions_of_mapping_matrix_rows(self):
        f = dense(4)
        table, g, offsets = generator._group_table(f, 13)
        assert g == 5 and len(table) == 1365
        assert offsets.tolist() == [0, 1, 5, 21, 85, 341]
        matrix = func.mapping_matrix(f).tolist()
        rnd = random.Random(26)
        for length in range(g + 1):
            for _ in range(25):
                sequence = [rnd.randrange(4) for _ in range(length)]  # coordinates from 0, first applied first
                row = int(offsets[length]) + sum(c * 4**i for i, c in enumerate(sequence))
                images = list(range(f.size))
                for c in sequence:
                    images = [matrix[c][y] for y in images]
                assert table[row] == tuple(images), sequence

    @pytest.mark.parametrize("images", KNOWN_CHAOTIC_VARIANTS[:3])
    def test_equal_rows_are_one_tuple(self, images):
        f = func.VectorOfImages(4, images)
        table, g, _ = generator._group_table(f, 13)
        # the table built level by level, one new tuple per row
        matrix = func.mapping_matrix(f).tolist()
        level = [tuple(range(f.size))]
        built = list(level)
        for _ in range(g):
            level = [tuple(row[y] for y in single) for row in level for single in matrix]
            built += level
        assert list(table) == built
        assert len({id(row) for row in table}) == len(set(built)) < len(built)

    def test_group_length_is_at_most_k_plus_one(self):
        f = dense(3)
        assert [generator._group_table(f, k)[1] for k in (1, 2, 5, 6, 7, 100)] == [2, 3, 6, 7, 4, 7]

    def test_composed_block_peak_bounded_against_scalar_loop(self, monkeypatch):
        # one full block at N=10, k=255: _BLOCK_UPDATES // 256 rounds.  On a
        # block of 2^18 updates the walk that padded every round to whole
        # groups peaked at 10.22 MiB, against 4.05 MiB for the scalar loop.
        def peak(entries):
            monkeypatch.setattr(generator, "_GROUP_ENTRIES", entries)
            config = GeneratorConfig(dense(10), k=255, seed_state=0)
            gen = CiGenerator(config, Xorshift64(1), Xorshift64(2))
            gen.states(1)  # the sources' cached tables
            tracemalloc.start()
            try:
                gen.states(generator._BLOCK_UPDATES // 256)
                return gen.path, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        walk, scalar = peak(generator._GROUP_ENTRIES), peak(0)
        assert (walk[0], scalar[0]) == ("composed", "scalar")
        assert walk[1] <= 10.22 / 4.05 * scalar[1]


class TestFlipEngine:
    """Generators near the negation ("flips") equal the round loop and the
    definitional interpreter, wherever their updates are held."""

    @staticmethod
    def draws(n_bits, k, n_rounds, s1=314159, s2=271828):
        """The update counts and coordinates of the first n_rounds rounds of make_pair's sources."""
        p1, p2 = Xorshift64(s1), Xorshift64(s2)
        updates = [p1.next_bit() + k for _ in range(n_rounds)]
        return updates, [p2.next_coordinate(n_bits) for _ in range(sum(updates))]

    @staticmethod
    def round_ends(images, n_bits, x0, updates, coords):
        trace = interpret_updates(images, n_bits, x0, coords)
        return [trace[e - 1] for e in itertools.accumulate(updates)]

    @pytest.mark.parametrize("k", ["1", "13", "3N+1", "255", "300"])
    @pytest.mark.parametrize("n_bits", [2, 3, 4, 5, 8, 11, 12, 16])
    def test_matches_round_loop_and_interpreter(self, monkeypatch, n_bits, k):
        # every function runs "flips" here, dense ones too, so the hand-off
        # to the scalar loop is covered as well
        monkeypatch.setattr(generator, "_FLIP_RATE", 1.0)
        k = 3 * n_bits + 1 if k == "3N+1" else int(k)
        n_rounds = max(4, 3000 // (k + 1))
        updates, coords = self.draws(n_bits, k, n_rounds)
        many = paired_edits(n_bits, min(16, 1 << (n_bits - 2)), seed=k)
        for f in (func.negation(n_bits), paired_edits(n_bits, 1, seed=n_bits), many):
            x0 = (5 * k) % f.size
            bulk, loop = TestFastPath.make_pair(f.images, n_bits, k=k, seed_state=x0)
            assert bulk.path == "flips"
            got = list(bulk.states(n_rounds))
            assert got == [loop.round() for _ in range(n_rounds)]
            assert got == self.round_ends(f.images, n_bits, x0, updates, coords)
            TestFastPath.assert_same_end(bulk, loop)

    def test_chunked_calls_equal_one_call(self, monkeypatch):
        # the N=4 edit is dense: it runs "flips" only here, handing off
        monkeypatch.setattr(generator, "_FLIP_RATE", 1 / 32)
        short = [1, 7, 63, 64, 65]
        cases = [(n_bits, 3 * n_bits + 1, short + whole_blocks(3 * n_bits + 1)) for n_bits in (4, 12, 16)]
        cases += [(12, 5000, short), (16, 5000, short)]
        for n_bits, k, chunks in cases:
            for f in (func.negation(n_bits), paired_edits(n_bits, 16 if n_bits > 4 else 1)):
                bulk, loop = TestFastPath.make_pair(f.images, n_bits, k=k)
                one, _ = TestFastPath.make_pair(f.images, n_bits, k=k)
                assert bulk.path == "flips", (n_bits, k)
                combined = np.concatenate([bulk.states(c) for c in chunks])
                assert list(combined) == [loop.round() for _ in range(sum(chunks))], (n_bits, k)
                assert list(combined) == list(one.states(sum(chunks))), (n_bits, k)
                TestFastPath.assert_same_end(bulk, loop)

    @pytest.mark.parametrize("where", ["first", "window end", "window start", "second window end",
                                       "third window start", "last"])
    def test_held_update_positions(self, where):
        # A Gray-code walk visits no state twice, so a defect at the state
        # before update p holds update p and no other.
        n_bits, k = 16, 49
        rnd = random.Random(3)
        updates = [k + rnd.randint(0, 1) for _ in range(20)]
        size = sum(updates)
        window = 256  # the generator's restart window, pinned below
        p = {"first": 0, "window end": window - 1, "window start": window,
             "second window end": 3 * window - 1, "third window start": 3 * window, "last": size - 1}[where]
        coords = [n_bits - ((t + 1) & -(t + 1)).bit_length() + 1 for t in range(size)]
        negation = func.negation(n_bits)
        x0 = 0b1011001110001111
        before = ([x0] + interpret_updates(negation.images, n_bits, x0, coords))[p]
        images = list(negation.images)
        images[before] ^= 1 << (n_bits - coords[p])
        f = func.VectorOfImages(n_bits, images)
        trace = interpret_updates(f.images, n_bits, x0, coords)
        assert [t for t in range(size) if trace[t] == ([x0] + trace)[t]] == [p]
        gen = CiGenerator(GeneratorConfig(f, k=k, seed_state=x0), Xorshift64(1), Xorshift64(2))
        assert gen.path == "flips"
        gen._window = window
        out = np.empty(len(updates), dtype=np.int64)
        gen._flip_rounds(np.array(updates), np.array(coords), out)
        assert list(out) == self.round_ends(f.images, n_bits, x0, updates, coords)

    @pytest.mark.parametrize("n_bits", range(2, func.MAX_TABLE_BITS + 1))
    def test_negation_chunked_calls_search_no_held_update(self, n_bits):
        # the negation holds no update, so no window reads its defect table:
        # without one, chunked calls still equal the round loop
        bulk, loop = TestFastPath.make_pair(func.negation(n_bits).images, n_bits)
        chunks = [1, 7, 63, 64, 65, bulk.block_rounds + 1]
        assert bulk.path == "flips" and not bulk._held
        bulk._defects = None
        combined = np.concatenate([bulk.states(c) for c in chunks])
        assert list(combined) == [loop.round() for _ in range(sum(chunks))]
        TestFastPath.assert_same_end(bulk, loop)

    @pytest.mark.parametrize("blocks", ["budget", "one round"])
    @pytest.mark.parametrize("k", ["1", "3N+1"])
    @pytest.mark.parametrize("n_bits", range(2, func.MAX_TABLE_BITS + 1))
    def test_negation_reduction_at_its_edges(self, monkeypatch, n_bits, k, blocks):
        # the negation XORs each round's masks in one reduction: at k = 1
        # its rounds hold one or two masks, and a budget of k + 1 updates
        # makes every block one round, whose running XOR is that round's
        k = 1 if k == "1" else 3 * n_bits + 1
        if blocks == "one round":
            monkeypatch.setattr(generator, "_BLOCK_UPDATES", k + 1)
        bulk, loop = TestFastPath.make_pair(func.negation(n_bits).images, n_bits, k=k, seed_state=(1 << n_bits) - 2)
        assert bulk.path == "flips" and not bulk._held
        sizes = engine_blocks(bulk)
        assert list(bulk.states(300)) == [loop.round() for _ in range(300)]
        assert sizes == ([1] * 300 if blocks == "one round" else [300])
        TestFastPath.assert_same_end(bulk, loop)

    @pytest.mark.parametrize("where", ["first, then last", "last, first, last"])
    def test_held_at_window_edges_over_chunked_calls(self, where):
        # After a held update at p the next window is [p + 1, p + 1 + W):
        # updates 0 and W are the first of one window and the last of the
        # next; W - 1, W and 2W the last of the first window, then the first
        # and the last of the next.  The defects sit on the states of the
        # last call's trajectory, so its block meets them there.
        window = 256  # the generator's restart window, pinned below
        positions = {"first, then last": [0, window], "last, first, last": [window - 1, window, 2 * window]}[where]
        n_bits, k, x0 = 16, 49, 12345
        chunks = [1, 7, 64, 200]
        updates, coords = self.draws(n_bits, k, sum(chunks))
        start = sum(updates[: sum(chunks[:-1])])  # the last call's first update
        images = list(func.negation(n_bits).images)
        for p in positions:
            trace = [x0] + interpret_updates(images, n_bits, x0, coords)
            images[trace[start + p]] ^= 1 << (n_bits - coords[start + p])
        trace = [x0] + interpret_updates(images, n_bits, x0, coords)
        assert [t - start for t in range(len(coords)) if trace[t + 1] == trace[t]] == positions
        bulk, loop = TestFastPath.make_pair(images, n_bits, k=k, seed_state=x0)
        assert bulk.path == "flips" and bulk._held
        bulk._window = window
        combined = np.concatenate([bulk.states(c) for c in chunks])
        assert list(combined) == [loop.round() for _ in range(sum(chunks))]
        assert list(combined) == self.round_ends(images, n_bits, x0, updates, coords)
        TestFastPath.assert_same_end(bulk, loop)

    @pytest.mark.parametrize("seed_state, handed_off", [(0, True), (1, True), (0b0110, False), (40000, False)])
    def test_trapped_seed_hands_off_to_scalar_loop(self, seed_state, handed_off):
        # inside the trap 15 updates in 16 are held; outside, the trap and
        # the defects around it are never reached
        f = trap(16)
        assert func.is_balanced(f) and np.bitwise_count(func.defects(f)).sum() / (16 << 16) <= generator._FLIP_RATE
        bulk, loop = TestFastPath.make_pair(f.images, 16, k=49, seed_state=seed_state)
        assert bulk.path == "flips"
        scalar = []
        run_scalar = bulk._scalar_rounds

        def counted(updates, coords, out):
            scalar.append(out.size)
            run_scalar(updates, coords, out)

        bulk._scalar_rounds = counted
        assert list(bulk.states(2048)) == [loop.round() for _ in range(2048)]
        TestFastPath.assert_same_end(bulk, loop)
        if handed_off:
            # the budget of held updates is spent within the first rounds
            assert len(scalar) == 1 and 0 < scalar[0] < 2048
        else:
            assert scalar == []

    @given(
        n_bits=st.integers(2, 6),
        data=st.data(),
    )
    def test_sparse_defects_match_interpreter(self, n_bits, data):
        size = 1 << n_bits
        defects = data.draw(st.dictionaries(st.integers(0, size - 1), st.integers(1, size - 1), max_size=4))
        updates = data.draw(st.lists(st.integers(1, 40), min_size=1, max_size=30))
        coords = data.draw(st.lists(st.integers(1, n_bits), min_size=sum(updates), max_size=sum(updates)))
        x0 = data.draw(st.integers(0, size - 1))
        images = [(size - 1 - x) ^ defects.get(x, 0) for x in range(size)]
        config = GeneratorConfig(func.VectorOfImages(n_bits, images), k=1, seed_state=x0, strict=False)
        gen = CiGenerator(config, Xorshift64(1), Xorshift64(2))
        out = np.empty(len(updates), dtype=np.int64)
        gen._flip_rounds(np.array(updates), np.array(coords), out)
        assert list(out) == self.round_ends(images, n_bits, x0, updates, coords)

    def test_windows_start_at_the_expected_gap_between_held_updates(self):
        def window(f):
            return CiGenerator(GeneratorConfig(f, k=3 * f.n_bits + 1, seed_state=0), Xorshift64(1), Xorshift64(2))._window

        # 16 paired edits keep 32 of the 12 * 4096 digits: one update in 1536 is held
        assert window(paired_edits(12, 16)) == 1536
        # one in 2^19, past the widest window, and none under the negation
        assert window(paired_edits(16, 1)) == window(func.negation(12)) == generator._FLIP_WINDOW_MAX

    def test_rate_is_mean_popcount_of_defects(self):
        fs = [func.negation(5), func.identity(5), paired_edits(8, 1), paired_edits(12, 16), trap(6), dense(7)]
        fs += [func.VectorOfImages(4, v) for v in KNOWN_CHAOTIC_VARIANTS]
        for f in fs:
            mask = f.mask
            d = [f.images[x] ^ (mask - x) for x in range(f.size)]
            table = func.defects(f)
            assert list(table) == d and table.dtype == np.int32
            assert not table.flags.writeable
            # the generator's rate sets its first window and whether it searches at all
            rate = sum(bin(v).count("1") for v in d) / (f.n_bits * f.size)
            gen = CiGenerator(GeneratorConfig(f, k=3 * f.n_bits + 1, seed_state=0), Xorshift64(1), Xorshift64(2))
            assert gen._held == (rate > 0)
            assert gen._window == (min(generator._FLIP_WINDOW_MAX, int(1 / rate)) if rate else generator._FLIP_WINDOW_MAX)

    def test_paths(self):
        cases = [(func.negation(n), "flips") for n in (2, 4, 12, 16)]
        cases += [(func.VectorOfImages(4, v), "composed") for v in KNOWN_CHAOTIC_VARIANTS]
        cases += [(paired_edits(4, 1), "composed"), (paired_edits(8, 1), "flips")]
        cases += [(paired_edits(8, 2), "composed")]
        cases += [(paired_edits(12, 16), "flips"), (paired_edits(16, 16), "flips"), (trap(16), "flips")]
        cases += [(paired_edits(12, 64), "scalar"), (dense(11), "composed"), (dense(16), "scalar")]
        for f, path in cases:
            config = GeneratorConfig(f, k=3 * f.n_bits + 1, seed_state=0)
            gen = CiGenerator(config, Xorshift64(1), Xorshift64(2))
            assert gen.path == path, (f.n_bits, np.bitwise_count(func.defects(f)).sum())

    def test_equal_functions_get_equal_defect_tables(self):
        # each bulk generator computes its own read-only table from f.array
        first, second = paired_edits(12, 16), func.parse_function(func.format_function(paired_edits(12, 16)))
        assert first is not second
        a = CiGenerator(GeneratorConfig(first, k=37, seed_state=0), Xorshift64(1), Xorshift64(2))
        b = CiGenerator(GeneratorConfig(second, k=40, seed_state=0), Xorshift64(1), Xorshift64(2))
        assert a._defects is not b._defects and np.array_equal(a._defects, b._defects)
        assert not a._defects.flags.writeable and not b._defects.flags.writeable

    def test_round_path_computes_no_defects(self, monkeypatch):
        monkeypatch.setattr(generator, "defects", None)
        gen = trace_generator()
        assert gen.path == "round" and not hasattr(gen, "_defects")

    def test_block_peaks_no_higher_than_scalar_loop(self, monkeypatch):
        # one full block at N=16, k=49: _BLOCK_UPDATES // 50 rounds, under
        # the negation and under a variant of 16 paired edits, whose block
        # searches for held updates.  Both engines keep the block's uint16
        # masks; the search keeps their prefix XOR too, one more such array
        def peak(f, rate):
            monkeypatch.setattr(generator, "_FLIP_RATE", rate)
            config = GeneratorConfig(f, k=49, seed_state=0)
            gen = CiGenerator(config, Xorshift64(1), Xorshift64(2))
            gen.states(1)  # the sources' cached tables
            tracemalloc.start()
            try:
                gen.states(gen.block_rounds)
                return gen.path, gen._held, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        rate = generator._FLIP_RATE
        for f, held in ((func.negation(16), False), (paired_edits(16, 16), True)):
            flips, scalar = peak(f, rate), peak(f, -1.0)
            assert (flips[:2], scalar[0]) == (("flips", held), "scalar")
            assert flips[2] <= scalar[2] + held * 2 * generator._BLOCK_UPDATES, held


class SingleDraws(Xorshift64):
    """Xorshift64 under another type: a generator over it takes the "round" path."""


def stream_pair(n_bits, path):
    """Two equal fresh generators on `path`: the negation runs "flips", a
    dense f the others.  "scalar" at a width that walks the group table
    needs _GROUP_ENTRIES patched to 0 beforehand."""
    f = func.negation(n_bits) if path == "flips" else dense(n_bits)
    source = SingleDraws if path == "round" else Xorshift64

    def make():
        config = GeneratorConfig(f, k=3 * n_bits + 1, seed_state=n_bits)
        return CiGenerator(config, source(314159), source(271828))

    return make(), make()


class TestStreamOutput:
    """byte_stream and bit_stream equal the pure-Python oracles' packing and
    formatting of states() at every width, on every path and over calls in
    a row."""

    @pytest.mark.parametrize(
        "n_bits, path",
        [(n, path) for n in range(2, 17) for path in ("flips", "composed", "scalar", "round")
         if path != "composed" or composed(n)],
    )
    def test_streams_equal_expanded_states(self, monkeypatch, n_bits, path):
        if path == "scalar":
            monkeypatch.setattr(generator, "_GROUP_ENTRIES", 0)
        gen, ref = stream_pair(n_bits, path)
        assert gen.path == path
        # a count that is not a whole number of states ends in part of one, which the stream drops
        for n_bytes in (1, 3, 64, 1001, 2):
            text = state_text(ref.states(-(-8 * n_bytes // n_bits)).tolist(), n_bits)
            assert gen.byte_stream(n_bytes) == packed_text(text[: 8 * n_bytes]), n_bytes
        for n_rounds, seed in ((1, True), (7, False), (300, True)):
            head = [ref.x] * seed
            expected = state_text(head + ref.states(n_rounds).tolist(), n_bits)
            assert gen.bit_stream(n_rounds, include_seed=seed) == expected, n_rounds
        TestFastPath.assert_same_end(gen, ref)
