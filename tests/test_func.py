import itertools

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


class TestNegation:
    def test_width_4(self):
        assert func.negation(4).images == (15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0)

    def test_width_2(self):
        assert func.negation(2).images == (3, 2, 1, 0)

    def test_first_entry(self):
        assert func.negation(4).images[0] == 15

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
        ],
    )
    def test_errors_past_the_one_pass_check(self, text, column, message):
        with pytest.raises(FunctionFormatError) as exc:
            func.parse_function(text)
        assert (exc.value.line, exc.value.column) == (2, column)
        assert str(exc.value) == f"line 2, column {column}: {message}"
