import dataclasses
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ciprng import func
from ciprng.errors import (
    FunctionFormatError,
    MutationError,
    ResourceLimitError,
)

import oracles
from reference_data import KNOWN_CHAOTIC_VARIANTS


def variant(i):
    return func.VectorOfImages(4, KNOWN_CHAOTIC_VARIANTS[i - 1])


def paired_variant(n_bits, edits, rnd):
    """The negation after up to `edits` random paired edits (colliding ones skipped)."""
    f = func.negation(n_bits)
    for _ in range(edits):
        try:
            f = func.mutate_pair(f, rnd.randint(1, 1 << n_bits), rnd.randint(1, n_bits))
        except MutationError:
            pass
    return f


def random_function(n_bits, seed):
    rnd = random.Random(seed)
    return func.VectorOfImages(n_bits, [rnd.randrange(1 << n_bits) for _ in range(1 << n_bits)])


class TestVectorOfImages:
    def test_rejects_narrow_width(self):
        with pytest.raises(ValueError):
            func.VectorOfImages(1, (0, 1))

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            func.VectorOfImages(2, (0, 1, 2))

    def test_rejects_out_of_range_image(self):
        with pytest.raises(ValueError):
            func.VectorOfImages(2, (0, 1, 2, 4))

    def test_out_of_range_message_names_first_position(self):
        with pytest.raises(ValueError, match=r"image 7 at position 1 is outside \[0, 3\]"):
            func.VectorOfImages(2, (0, 7, -1, 3))

    def test_list_images_stored_as_tuple(self):
        f = func.VectorOfImages(2, [3, 2, 1, 0])
        assert f.images == (3, 2, 1, 0)
        assert f == func.negation(2)
        assert hash(f) == hash(func.negation(2))

    def test_array_images_stored_as_python_ints(self):
        f = func.VectorOfImages(2, np.array([3, 2, 1, 0], dtype=np.int64))
        assert f == func.negation(2)
        assert all(type(v) is int for v in f.images)
        assert {f, func.negation(2)} == {func.negation(2)}

    @pytest.mark.parametrize("images", [(3.0, 2, 1, 0), np.array([3.0, 2, 1, 0])])
    def test_rejects_float_images(self, images):
        with pytest.raises(TypeError):
            func.VectorOfImages(2, images)

    def test_coordinate_indexing(self):
        f = func.negation(4)
        # 0b1000 has coordinate 1 set and the rest clear
        assert [f.coordinate(8, p) for p in (1, 2, 3, 4)] == [1, 0, 0, 0]


class TestArray:
    def test_read_only_int32_copy_of_images(self):
        f = variant(2)
        assert f.array.dtype == np.int32 and f.array.tolist() == list(f.images)
        assert not f.array.flags.writeable and f.array is f.array
        with pytest.raises(ValueError):
            f.array[0] = 0

    def test_not_a_field(self):
        built, lazy = variant(2), variant(2)
        built.array
        assert "array" in vars(built) and "array" not in vars(lazy)
        assert [field.name for field in dataclasses.fields(func.VectorOfImages)] == ["n_bits", "images"]
        assert built == lazy and hash(built) == hash(lazy) and repr(built) == repr(lazy)
        assert "array" not in repr(built)

    @pytest.mark.parametrize("n_bits", [2, 4, 12, 16])
    def test_parse_hands_over_its_array(self, n_bits):
        # the separators that can sit within a line parse in the one numpy pass
        text = func.format_function(random_function(n_bits, n_bits)).replace(" ", "\t", 1).replace(" ", "\x1f ", 1)
        f = func.parse_function(text)
        assert f == random_function(n_bits, n_bits)
        assert "array" in vars(f)  # set by the parser, not built on first use
        assert not f.array.flags.writeable and f.array.dtype == np.int32
        assert f.array.tolist() == list(f.images)

    def test_mutate_pair_result_gets_its_own(self):
        f = func.negation(4)
        before = f.array.copy()
        g = func.mutate_pair(f, 1, 1)
        assert g.array is not f.array and g.array.tolist() == list(KNOWN_CHAOTIC_VARIANTS[0])
        assert np.array_equal(f.array, before)


class TestNegation:
    def test_width_4(self):
        assert func.negation(4).images == (15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)

    def test_width_2(self):
        assert func.negation(2).images == (3, 2, 1, 0)

    def test_first_entry(self):
        assert func.negation(4).images[0] == 15

    @pytest.mark.parametrize("n_bits", range(2, func.MAX_TABLE_BITS + 1))
    def test_negation_and_identity_equal_checked_builds(self, n_bits):
        # both skip VectorOfImages' checks; the checked build must agree
        size = 1 << n_bits
        for f, images in ((func.negation(n_bits), [(size - 1) ^ q for q in range(size)]),
                          (func.identity(n_bits), list(range(size)))):
            assert f == func.VectorOfImages(n_bits, images)
            assert type(f.images) is tuple and all(type(v) is int for v in f.images)
            # the array handed over is f.array: int32, read-only, the same images
            assert f.array.dtype == np.int32 and not f.array.flags.writeable
            assert f.array.tolist() == images

    def test_rejects_width_below_2(self):
        with pytest.raises(ValueError):
            func.negation(1)

    def test_rejects_width_above_table_limit(self):
        with pytest.raises(ResourceLimitError):
            func.negation(func.MAX_TABLE_BITS + 1)


class TestMappingMatrix:
    def test_negation_first_column(self):
        m = func.mapping_matrix(func.negation(4))
        assert m[:, 0].tolist() == [8, 4, 2, 1]

    def test_negation_last_column(self):
        m = func.mapping_matrix(func.negation(4))
        assert m[:, 15].tolist() == [7, 11, 13, 14]

    def test_identity_all_cells_fixed(self):
        f = func.identity(3)
        m = func.mapping_matrix(f)
        for p in range(1, 4):
            for q in range(8):
                assert m[p - 1, q] == q

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_single_coordinate_update_only(self, n_bits, rnd):
        size = 1 << n_bits
        images = tuple(rnd.randrange(size) for _ in range(size))
        f = func.VectorOfImages(n_bits, images)
        m = func.mapping_matrix(f)
        assert m.shape == (n_bits, size)
        assert m.dtype == np.int32
        for p in range(1, n_bits + 1):
            w = 1 << (n_bits - p)
            for q, cell in enumerate(m[p - 1].tolist()):
                assert cell ^ q in (0, w)
                assert cell == oracles.interpret_updates(images, n_bits, q, [p])[0]
        # each call returns a fresh, writable array
        again = func.mapping_matrix(f)
        assert again is not m and again.flags.writeable
        assert np.array_equal(again, m)


class TestIsBalanced:
    def test_negation_balanced(self):
        assert func.is_balanced(func.negation(4)).balanced

    @pytest.mark.parametrize("n_bits", range(2, 17))
    def test_negation_balanced_all_widths(self, n_bits):
        assert func.is_balanced(func.negation(n_bits)).balanced

    def test_constant_unbalanced_with_witness(self):
        verdict = func.is_balanced(func.VectorOfImages(2, (0, 0, 0, 0)))
        assert not verdict.balanced
        row, value = verdict.first_violation
        assert row == 1 and value == 0  # states 0 and 2 both update toward 0

    @pytest.mark.parametrize("images", KNOWN_CHAOTIC_VARIANTS)
    def test_known_variants_balanced(self, images):
        assert func.is_balanced(func.VectorOfImages(4, images)).balanced

    @given(st.integers(2, 6), st.randoms(use_true_random=False), st.booleans())
    def test_witness_matches_first_repeat_oracle(self, n_bits, rnd, near_balanced):
        size = 1 << n_bits
        if near_balanced:
            # q XOR c is balanced; one overwritten entry may break one row
            c = rnd.randrange(size)
            images = [q ^ c for q in range(size)]
            images[rnd.randrange(size)] = rnd.randrange(size)
        else:
            images = [rnd.randrange(size) for _ in range(size)]
        verdict = func.is_balanced(func.VectorOfImages(n_bits, images))
        expected = oracles.first_repeat(images, n_bits)
        assert verdict.balanced == (expected is None)
        assert verdict.first_violation == expected

    def test_witness_at_widest_width(self):
        # flipping the digit of coordinate 3 in f(0) makes q = 0 and
        # q = 2^13 both update to 0 in row 3; rows 1 and 2 stay permutations
        images = list(func.negation(16).images)
        images[0] ^= 1 << 13
        verdict = func.is_balanced(func.VectorOfImages(16, images))
        assert verdict == func.BalanceVerdict(False, (3, 0))
        assert verdict.first_violation == oracles.first_repeat(images, 16)

    @pytest.mark.parametrize("n_bits, p, seed", [(12, 7, 1), (12, 12, 2), (16, 2, 3)])
    def test_witness_matches_first_repeat_oracle_wide(self, n_bits, p, seed):
        # flipping digit w of one image breaks row p alone: its pair
        # (q, q XOR w) then agrees in bit w, and every other row reads
        # other digits
        rnd = random.Random(seed)
        images = list(paired_variant(n_bits, 16, rnd).images)
        images[rnd.randrange(1 << n_bits)] ^= 1 << (n_bits - p)
        verdict = func.is_balanced(func.VectorOfImages(n_bits, images))
        assert verdict.first_violation[0] == p
        assert verdict.first_violation == oracles.first_repeat(images, n_bits)

    def test_identity_balanced(self):
        # every row of the identity's table is the identity permutation
        assert func.is_balanced(func.identity(3)).balanced


class TestBalanceRuleCheck:
    def test_accepts_single_paired_edit(self):
        assert func.balance_rule_check(variant(1)).balanced

    def test_rejects_broken_pair(self):
        images = (14, 14) + func.negation(4).images[2:]
        verdict = func.balance_rule_check(func.VectorOfImages(4, images))
        assert not verdict.balanced

    @pytest.mark.parametrize("images", KNOWN_CHAOTIC_VARIANTS)
    def test_accepts_known_variants(self, images):
        assert func.balance_rule_check(func.VectorOfImages(4, images)).balanced

    def test_witness_is_row_and_position(self):
        # bit 2 of images[0] flipped, its partner images[2] left as the
        # negation's: position q = 0 breaks the rule, in row 3
        images = list(func.negation(4).images)
        images[0] ^= 2
        verdict = func.balance_rule_check(func.VectorOfImages(4, images))
        assert verdict == func.BalanceVerdict(False, (3, 0))

    def test_rejects_entry_more_than_one_bit_away(self):
        # identity entries are far from the negation: outside the rule's scope
        assert not func.balance_rule_check(func.identity(4)).balanced

    @given(st.integers(2, 8), st.randoms(use_true_random=False),
           st.sampled_from(["random", "paired", "multi-bit", "unpaired"]))
    def test_witness_matches_scalar_oracle(self, n_bits, rnd, kind):
        size = 1 << n_bits
        if kind == "random":
            images = [rnd.randrange(size) for _ in range(size)]
        else:
            images = list(paired_variant(n_bits, rnd.randrange(2 * n_bits), rnd).images)
        for _ in range(rnd.randint(1, 3) if kind in ("multi-bit", "unpaired") else 0):
            q = rnd.randrange(size)
            if kind == "multi-bit":
                images[q] ^= rnd.choice([d for d in range(3, size) if d & (d - 1)])
            else:
                images[q] ^= 1 << rnd.randrange(n_bits)
        verdict = func.balance_rule_check(func.VectorOfImages(n_bits, images))
        expected = oracles.balance_rule_witness(images, n_bits)
        assert verdict.balanced == (expected is None)
        assert verdict.first_violation == expected

    @pytest.mark.parametrize("seed", range(4))
    def test_witness_matches_scalar_oracle_at_sixteen_bits(self, seed):
        # a 16-edit variant with one of its edited pairs broken: the
        # partner put back to the negation's image, or given a second bit
        rnd = random.Random(seed)
        f = paired_variant(16, 16, rnd)
        assert func.balance_rule_check(f).balanced
        images = list(f.images)
        edited = [q for q in range(1 << 16) if images[q] != 0xFFFF ^ q]
        q = rnd.choice(edited)
        images[q] = 0xFFFF ^ q if seed % 2 else images[q] ^ (1 << rnd.randrange(16))
        verdict = func.balance_rule_check(func.VectorOfImages(16, images))
        expected = oracles.balance_rule_witness(images, 16)
        assert expected is not None and verdict.first_violation == expected

    def test_exhaustive_agreement_width_2(self):
        """Rule acceptance == (every entry within one bit of the negation
        AND balanced), over all 256 candidate vectors."""
        mask = 3
        accepted = []
        expected = []
        for images in itertools.product(range(4), repeat=4):
            vec = func.VectorOfImages(2, images)
            rule = func.balance_rule_check(vec).balanced
            one_bit_family = all(
                bin(v ^ (mask ^ q)).count("1") <= 1 for q, v in enumerate(images)
            )
            balanced = func.is_balanced(vec).balanced
            if rule:
                accepted.append(images)
                assert balanced, f"rule accepted unbalanced vector {images}"
            if one_bit_family and balanced:
                expected.append(images)
        assert accepted == expected
        assert len(accepted) == 7  # matchings of the 2-cube


class TestMutatePair:
    def test_reproduces_first_variant(self):
        mutated = func.mutate_pair(func.negation(4), 1, 1)
        assert mutated.images == KNOWN_CHAOTIC_VARIANTS[0]

    def test_second_edit_reaches_second_variant(self):
        mutated = func.mutate_pair(func.mutate_pair(func.negation(4), 1, 1), 5, 2)
        assert mutated.images == KNOWN_CHAOTIC_VARIANTS[1]

    def test_involution(self):
        f = func.mutate_pair(func.negation(4), 3, 3)
        assert func.mutate_pair(f, 3, 3) == func.negation(4)

    def test_collision_raises(self):
        f = func.mutate_pair(func.negation(4), 1, 1)
        with pytest.raises(MutationError):
            func.mutate_pair(f, 1, 2)  # entry 1 already edited at bit 1

    def test_position_and_bit_validation(self):
        with pytest.raises(ValueError):
            func.mutate_pair(func.negation(4), 0, 1)
        with pytest.raises(ValueError):
            func.mutate_pair(func.negation(4), 17, 1)
        with pytest.raises(ValueError):
            func.mutate_pair(func.negation(4), 1, 5)

    def test_result_equals_a_validated_vector(self):
        f = func.mutate_pair(func.mutate_pair(func.negation(4), 1, 1), 5, 2)
        checked = func.VectorOfImages(f.n_bits, f.images)
        assert f == checked and hash(f) == hash(checked)
        assert type(f.images) is tuple and all(type(v) is int for v in f.images)

    @given(st.data())
    def test_balance_preserved_along_random_edit_sequences(self, data):
        n_bits = data.draw(st.integers(2, 4))
        f = func.negation(n_bits)
        for _ in range(data.draw(st.integers(0, 6))):
            j = data.draw(st.integers(1, 1 << n_bits))
            i = data.draw(st.integers(1, n_bits))
            try:
                f = func.mutate_pair(f, j, i)
            except MutationError:
                continue
            assert func.is_balanced(f).balanced


class TestSearchFunctions:
    def test_zero_mutations_yields_negation_only(self):
        assert list(func.search_functions(4, 0)) == [func.negation(4)]

    def test_deterministic(self):
        a = list(func.search_functions(3, 3))
        b = list(func.search_functions(3, 3))
        assert a == b

    def test_breadth_first_order(self):
        found = list(func.search_functions(2, 2))
        # depth 0 first, then the four single edits, then deeper results
        assert found[0] == func.negation(2)
        edit_counts = [
            sum(1 for q, v in enumerate(vec.images) if v != 3 - q) // 2 for vec in found
        ]
        assert edit_counts == sorted(edit_counts)

    def test_exhaustive_width_2(self):
        """Search output equals brute force over all 256 vectors filtered by
        the one-bit-per-entry family and the balance oracle."""
        expected = set()
        for images in itertools.product(range(4), repeat=4):
            vec = func.VectorOfImages(2, images)
            family = all(bin(v ^ (3 ^ q)).count("1") <= 1 for q, v in enumerate(images))
            if family and func.is_balanced(vec).balanced:
                expected.add(images)
        found = {vec.images for vec in func.search_functions(2, 4)}
        assert found == expected

    def test_require_chaos_filters(self):
        plain = {v.images for v in func.search_functions(2, 4)}
        chaotic = {v.images for v in func.search_functions(2, 4, require_chaos=True)}
        assert chaotic < plain
        # the two perfect matchings of the square split the graph in two
        assert plain - chaotic == {(2, 3, 0, 1), (1, 0, 3, 2)}

    def test_candidate_cap(self):
        with pytest.raises(ResourceLimitError):
            list(func.search_functions(4, 8, max_candidates=100))

    def test_candidate_cap_boundary(self):
        # (2, 4) enumerates exactly 7 candidates, the negation included
        assert len(list(func.search_functions(2, 4, max_candidates=7))) == 7
        found = []
        with pytest.raises(ResourceLimitError):
            for vec in func.search_functions(2, 4, max_candidates=6):
                found.append(vec)
        # the cap is hit lazily, after the first six have been emitted
        assert len(found) == 6

    @pytest.mark.parametrize("depth", [0, 1])
    @pytest.mark.parametrize("cap", [0, -1])
    def test_rejects_cap_below_one(self, depth, cap):
        search = func.search_functions(2, depth, max_candidates=cap)
        with pytest.raises(ValueError):
            next(search)

    @pytest.mark.parametrize(
        "n_bits, depth, per_size",
        [
            (3, 4, [1, 12, 42, 44, 9]),
            (4, 8, [1, 32, 400, 2496, 8256, 14208, 11648, 3712, 272]),
        ],
    )
    def test_enumerates_the_matchings_of_the_cube(self, n_bits, depth, per_size):
        """Sizes of the matchings of Q_3 and Q_4 (OEIS A045310: 108 and 41025)."""
        found = list(func.search_functions(n_bits, depth))
        mask = (1 << n_bits) - 1
        edits = [sum(1 for q, v in enumerate(f.images) if v != mask ^ q) // 2 for f in found]
        assert edits == sorted(edits)
        assert [edits.count(d) for d in range(depth + 1)] == per_size
        assert len({f.images for f in found}) == len(found)

    def test_stops_past_the_largest_matching(self):
        # Q_2 has no matching of 3 edges, so depth 9 adds nothing to depth 4
        assert list(func.search_functions(2, 9)) == list(func.search_functions(2, 4))

    @pytest.mark.parametrize("n_bits, depth", [(3, 4), (4, 8)])
    def test_every_emitted_function_is_balanced(self, n_bits, depth):
        # the search checks nothing per candidate: balance holds by construction
        for f in func.search_functions(n_bits, depth):
            assert func.is_balanced(f).balanced
            assert func.balance_rule_check(f).balanced

    def test_depth_8_chaotic_search_contains_known_variants(self):
        found = {vec.images for vec in func.search_functions(4, 8, require_chaos=True)}
        assert found.issuperset(KNOWN_CHAOTIC_VARIANTS)
        assert func.negation(4).images in found

    def test_rejects_width_beyond_table_limit(self):
        # the search shares the table limit: N=13 starts, N=17 is refused
        assert next(func.search_functions(13, 1)) == func.negation(13)
        with pytest.raises(ResourceLimitError):
            list(func.search_functions(func.MAX_TABLE_BITS + 1, 1))


class TestFunctionFiles:
    def test_format_round_trip(self):
        f = variant(3)
        assert func.parse_function(func.format_function(f)) == f

    def test_format_is_exact(self):
        f = func.VectorOfImages(4, KNOWN_CHAOTIC_VARIANTS[0])
        assert func.format_function(f) == "4\n14 15 13 12 11 10 9 8 7 6 5 4 3 2 1 0\n"

    def test_read_write(self, tmp_path):
        path = tmp_path / "f.fn"
        func.write_function(variant(5), path)
        assert func.read_function(path) == variant(5)

    def test_missing_width(self):
        with pytest.raises(FunctionFormatError) as exc:
            func.parse_function("")
        assert exc.value.line == 1

    def test_bad_width_token(self):
        with pytest.raises(FunctionFormatError) as exc:
            func.parse_function("x\n0 1 2 3\n")
        assert (exc.value.line, exc.value.column) == (1, 1)

    def test_wrong_entry_count(self):
        with pytest.raises(FunctionFormatError) as exc:
            func.parse_function("2\n0 1 2\n")
        assert exc.value.line == 2

    def test_extra_entry_column(self):
        with pytest.raises(FunctionFormatError) as exc:
            func.parse_function("2\n0 1 2 3 1\n")
        assert (exc.value.line, exc.value.column) == (2, 9)

    def test_out_of_range_entry(self):
        with pytest.raises(FunctionFormatError) as exc:
            func.parse_function("2\n0 1 2 4\n")
        assert (exc.value.line, exc.value.column) == (2, 7)

    def test_non_integer_entry(self):
        with pytest.raises(FunctionFormatError) as exc:
            func.parse_function("2\n0 1 2 z\n")
        assert (exc.value.line, exc.value.column) == (2, 7)

    def test_trailing_garbage(self):
        with pytest.raises(FunctionFormatError) as exc:
            func.parse_function("2\n0 1 2 3\njunk\n")
        assert exc.value.line == 3

    @pytest.mark.parametrize(
        "text",
        [
            "2\n\u0663 2 1 0\n",  # an Arabic-Indic three: \d matches Unicode digits
            "2\n3\x1f2 1 0\n",  # \x1f and the no-break space are whitespace
            "2\n3\xa02 1 0\n",  # to str.split() and to \S+ alike
            "2\n 3\t2  1 0 \n",
            "2\n003 02 1 0\n",  # leading zeros
            "2\n" + "0" * 24 + "3 2 1 0\n",  # 25 digits, longer than any int64
            "2\n\uff13 2 \uff11 0\n",  # fullwidth digits
            "2\n3 2 1 0\x1c\n",  # \x1c-\x1e end a line: here an empty third one
        ],
    )
    def test_separators_and_unicode_digits(self, text):
        assert func.parse_function(text).images == (3, 2, 1, 0)

    @pytest.mark.parametrize(
        "text,column,message",
        [
            ("2\n\u0663 2 1 4\n", 7, "image 4 outside [0, 3]"),
            ("2\n3\xa02 \u0664 0\n", 5, "image 4 outside [0, 3]"),
            ("2\n3\x1f2 1 -0\n", 7, "image must be a decimal integer, got '-0'"),
            ("2\n3 \u00b2 1 0\n", 3, "image must be a decimal integer, got '\u00b2'"),
            ("2\n3\xa02 1\n", 6, "expected 4 images, got 3"),
            ("2\n3 2 1\n", 6, "expected 4 images, got 3"),
            ("2\n3 2 1 0 0\n", 9, "expected 4 images, got 5"),
            ("2\n4 2 1 0\n", 1, "image 4 outside [0, 3]"),
            ("2\n3 2 1 \uff14\n", 7, "image 4 outside [0, 3]"),
            ("2\n3 2 1 4294967299\n", 7, "image 4294967299 outside [0, 3]"),  # 2^32 + 3
            ("2\n3 2 1 9223372036854775808\n", 7, "image 9223372036854775808 outside [0, 3]"),  # 2^63
            ("2\n3 2 1 18446744073709551619\n", 7, "image 18446744073709551619 outside [0, 3]"),  # 2^64 + 3
            ("2\n+3 2 1 0\n", 1, "image must be a decimal integer, got '+3'"),
            ("2\n3 2 1 -1\n", 7, "image must be a decimal integer, got '-1'"),
            ("2\n3 2 1_0 0\n", 5, "image must be a decimal integer, got '1_0'"),
            ("2\n3 2 1 0x0\n", 7, "image must be a decimal integer, got '0x0'"),
        ],
    )
    def test_errors_past_the_one_pass_check(self, text, column, message):
        with pytest.raises(FunctionFormatError) as exc:
            func.parse_function(text)
        assert (exc.value.line, exc.value.column) == (2, column)
        assert str(exc.value) == f"line 2, column {column}: {message}"

    @pytest.mark.parametrize("sep", ["\x1c", "\x1d", "\x1e"])
    def test_line_separators_split_the_images_line(self, sep):
        with pytest.raises(FunctionFormatError) as exc:
            func.parse_function(f"2\n3{sep}2 1 0\n")
        assert (exc.value.line, exc.value.column) == (3, 1)
        assert str(exc.value) == "line 3, column 1: unexpected trailing content"

    @pytest.mark.parametrize("n_bits", [2, 4, 12, 16])
    def test_round_trip(self, n_bits):
        for f in (func.negation(n_bits), random_function(n_bits, n_bits)):
            assert func.parse_function(func.format_function(f)) == f

    @given(st.data())
    def test_numpy_pass_agrees_with_per_token_path(self, data):
        # the per-token path alone runs when every byte maps to "x"
        n_bits = data.draw(st.integers(2, 3))
        size = 1 << n_bits
        piece = st.one_of(
            st.integers(0, size).map(str),
            st.integers(0, size).map(lambda v: "0" * 20 + str(v)),
            st.sampled_from(["18446744073709551619", "4294967299", "+3", "-1", "1_0", "\uff13", "\u0663", "x"]),
        )
        tokens = data.draw(st.lists(piece, min_size=size - 1, max_size=size + 1))
        seps = data.draw(st.lists(st.sampled_from([" ", "  ", "\t", "\x1f", "\xa0", "\x1c"]),
                                  min_size=len(tokens) + 1, max_size=len(tokens) + 1))
        line = seps[0] + "".join(t + sep for t, sep in zip(tokens, seps[1:]))
        text = f"{n_bits}\n{line}\n"

        def outcome():
            try:
                return func.parse_function(text)
            except FunctionFormatError as exc:
                return str(exc), exc.line, exc.column

        fast = outcome()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(func, "_IMAGE_BYTES", b"x" * 256)
            assert outcome() == fast
