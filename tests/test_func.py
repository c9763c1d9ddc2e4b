import itertools

import pytest
from hypothesis import given, strategies as st

from ciprng import func
from ciprng.errors import (
    FunctionFormatError,
    MutationError,
    ResourceLimitError,
)

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
        assert [m.cell(p, 0) for p in (1, 2, 3, 4)] == [8, 4, 2, 1]

    def test_negation_last_column(self):
        m = func.mapping_matrix(func.negation(4))
        assert [m.cell(p, 15) for p in (1, 2, 3, 4)] == [7, 11, 13, 14]

    def test_identity_all_cells_fixed(self):
        f = func.identity(3)
        m = func.mapping_matrix(f)
        for p in range(1, 4):
            for q in range(8):
                assert m.cell(p, q) == q

    @given(st.integers(2, 5), st.randoms(use_true_random=False))
    def test_single_coordinate_update_only(self, n_bits, rnd):
        size = 1 << n_bits
        images = tuple(rnd.randrange(size) for _ in range(size))
        m = func.mapping_matrix(func.VectorOfImages(n_bits, images))
        for p in range(1, n_bits + 1):
            w = 1 << (n_bits - p)
            for q in range(size):
                assert m.cell(p, q) ^ q in (0, w)


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

    def test_every_candidate_is_confirmed_balanced(self, monkeypatch):
        checked = []
        original = func.is_balanced

        def counting(f):
            checked.append(f.images)
            return original(f)

        monkeypatch.setattr(func, "is_balanced", counting)
        found = [f.images for f in func.search_functions(3, 4)]
        assert len(checked) == 108
        assert checked == found

        rejected = found[50]

        def rejecting(f):
            if f.images == rejected:
                return func.BalanceVerdict(False, (1, 0))
            return original(f)

        monkeypatch.setattr(func, "is_balanced", rejecting)
        kept = [f.images for f in func.search_functions(3, 4)]
        assert rejected not in kept
        assert kept == [images for images in found if images != rejected]

    def test_depth_8_chaotic_search_contains_known_variants(self):
        found = {vec.images for vec in func.search_functions(4, 8, require_chaos=True)}
        assert found.issuperset(KNOWN_CHAOTIC_VARIANTS)
        assert func.negation(4).images in found

    def test_rejects_width_beyond_graph_limit(self):
        with pytest.raises(ResourceLimitError):
            list(func.search_functions(13, 1))


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
