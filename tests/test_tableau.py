import json
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from gtmodules.tableau import (
    BaseVector,
    Family,
    Kind,
    Shift,
    TabKey,
    canonicalize,
    is_standard,
    singular_triple,
    standard_shifts,
)

from helpers import anchor_index, tau, weyl_dimension


class TestClassification:
    def test_fully_generic(self, v_gen3):
        assert v_gen3.classification.family is Family.GENERIC

    def test_one_singular_remark_pattern(self, v_rem):
        cls = v_rem.classification
        assert cls.family is Family.ONE_SINGULAR
        assert cls.singular == (2, 1, 2)

    def test_row1_anchor_change_still_singular(self):
        # (a, b, c | x, x | y): distinct bottom anchor, same singular pair
        v = BaseVector.from_rows([[F(1, 2), F(1, 3), F(1, 5)], [F(1, 7), F(1, 7)], [F(1, 11)]])
        assert v.classification.singular == (2, 1, 2)

    def test_two_pairs_unsupported(self):
        q = [F(k, 17) for k in range(1, 8)]
        v = BaseVector.from_rows([[q[0], q[1], q[2], q[3]], [q[4], q[4], q[4]], [q[5], q[6]], [q[0] + 2]])
        assert v.classification.family is Family.UNSUPPORTED

    def test_finite_family(self, v_fin2):
        assert v_fin2.classification.family is Family.FINITE_STANDARD

    def test_cross_row_sharing_stays_generic(self, v_gen3_chain):
        assert v_gen3_chain.classification.family is Family.GENERIC


class TestValidation:
    def test_anchors_need_distinct_fractional_parts(self):
        with pytest.raises(ValueError, match="fractional"):
            BaseVector(2, (F(1, 2), F(3, 2)), ((0,), (1, 0)), ((0,), (0, 0)))

    def test_same_row_integral_pair_must_be_equal(self):
        # row 2 entries x and x+1 share an anchor with unequal offsets
        with pytest.raises(ValueError, match="normalize"):
            BaseVector.from_rows([[F(1, 2), F(1, 3), F(1, 5)], [F(1, 7), F(8, 7)], [F(1, 11)]])

    def test_rank_cap(self):
        with pytest.raises(ValueError):
            BaseVector.finite(list(range(14, 0, -2)))

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            Shift(3, ((0,),))


class TestStandard:
    def test_gl2_weight_10(self, v_fin2):
        # entries (1, -1 | w11): standard exactly for w11 in {0, 1}
        assert is_standard(v_fin2, Shift(2, ((0,),)))
        assert is_standard(v_fin2, Shift(2, ((1,),)))
        assert not is_standard(v_fin2, Shift(2, ((-1,),)))
        assert not is_standard(v_fin2, Shift(2, ((2,),)))

    def test_generic_vector_never_standard(self, v_gen3):
        assert not is_standard(v_gen3, Shift.zero(3))

    def test_offset_translation_invariance(self, v_fin3_210):
        # adding one integer to every entry preserves all gap comparisons
        shifted = BaseVector(
            v_fin3_210.n,
            v_fin3_210.anchors,
            v_fin3_210.assignment,
            tuple(tuple(o + 5 for o in row) for row in v_fin3_210.offsets),
        )
        for w11 in range(-2, 3):
            for w21 in range(-2, 3):
                for w22 in range(-2, 3):
                    w = Shift(3, ((w11,), (w21, w22)))
                    assert is_standard(v_fin3_210, w) == is_standard(shifted, w)


def box_shifts(v):
    """Every shift whose entries lie between the top row's extremes."""
    lo, hi = min(v.offsets[-1]), max(v.offsets[-1])
    base = [o for row in v.offsets[:-1] for o in row]
    for flat in product(*(range(lo - o, hi - o + 1) for o in base)):
        it = iter(flat)
        yield Shift(v.n, tuple(tuple(next(it) for _ in range(r)) for r in range(1, v.n)))


class TestStandardShifts:
    WEIGHTS = [(1, 0), (3, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0), (3, 1, 0), (1, 0, 0, 0), (1, 1, 0, 0), (2, 1, 0, 0)]

    @pytest.mark.parametrize("weight", WEIGHTS, ids=str)
    def test_brute_force_and_weyl_dimension(self, weight):
        v = BaseVector.from_weight(weight)
        shifts = standard_shifts(v)
        assert shifts == [w for w in box_shifts(v) if is_standard(v, w)]
        assert len(shifts) == weyl_dimension(weight)
        assert shifts == sorted(shifts, key=lambda w: w.rows)

    def test_lower_rows_of_the_vector_are_subtracted(self):
        v = BaseVector.from_rows([[2, 0, -2], [1, -1], [0]])
        shifts = standard_shifts(v)
        assert shifts == [w for w in box_shifts(v) if is_standard(v, w)]
        assert len(shifts) == 8 and Shift.zero(3) in shifts

    @pytest.mark.parametrize("top", [(0, 1), (2, 2, 0), (3, 1, 2, 0)])
    def test_non_dominant_top_row_has_none(self, top):
        assert standard_shifts(BaseVector.finite(top)) == []

    def test_other_families_rejected(self, v_gen3, v_rem):
        for v in (v_gen3, v_rem):
            with pytest.raises(ValueError, match="finite family"):
                standard_shifts(v)


class TestTau:
    def test_swaps_singular_positions(self, v_rem):
        w = Shift(3, ((5,), (2, 0)))
        assert tau(v_rem, w) == Shift(3, ((5,), (0, 2)))

    def test_fixed_point(self, v_rem):
        w = Shift(3, ((1,), (3, 3)))
        assert tau(v_rem, w) == w

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-5, 5), min_size=3, max_size=3))
    def test_involution(self, entries):
        v = BaseVector.from_rows([[F(1, 2), F(1, 3), F(1, 5)], [F(1, 7), F(1, 7)], [F(1, 11)]])
        w = Shift(3, ((entries[0],), (entries[1], entries[2])))
        assert tau(v, tau(v, w)) == w

    def test_requires_singular(self, v_gen3):
        with pytest.raises(ValueError):
            tau(v_gen3, Shift.zero(3))


def old_bump(w, r, s, amount):
    """Shift.bump before it shared rows: every row copied."""
    rows = [list(row) for row in w.rows]
    rows[r - 1][s - 1] += amount
    return Shift(w.n, tuple(tuple(row) for row in rows))


def old_swap(w, k, i, j):
    """Shift.swap before it shared rows: every row copied."""
    rows = [list(row) for row in w.rows]
    rows[k - 1][i - 1], rows[k - 1][j - 1] = rows[k - 1][j - 1], rows[k - 1][i - 1]
    return Shift(w.n, tuple(tuple(row) for row in rows))


class TestSharedRows:
    W = Shift(4, ((1,), (0, -2), (3, 0, -1)))

    @pytest.mark.parametrize("r,s", [(r, s) for r in range(1, 4) for s in range(1, r + 1)])
    @pytest.mark.parametrize("amount", [1, -1])
    def test_bump_rebuilds_only_its_row(self, r, s, amount):
        out = self.W.bump(r, s, amount)
        assert out == old_bump(self.W, r, s, amount)
        assert [out.rows[q] is self.W.rows[q] for q in range(3)] == [q != r - 1 for q in range(3)]

    @pytest.mark.parametrize("k,i,j", [(2, 1, 2), (3, 1, 3), (3, 2, 3)])
    def test_swap_rebuilds_only_its_row(self, k, i, j):
        out = self.W.swap(k, i, j)
        assert out == old_swap(self.W, k, i, j)
        assert [out.rows[q] is self.W.rows[q] for q in range(3)] == [q != k - 1 for q in range(3)]

    @pytest.mark.parametrize("r,s", [(0, 1), (4, 1), (2, 3)])
    def test_bump_outside_the_lower_rows_rejected(self, r, s):
        with pytest.raises(ValueError, match="not shiftable"):
            self.W.bump(r, s, 1)


class TestCanonicalize:
    def test_regular_swaps_to_nonpositive_side(self, v_rem):
        key, sign = canonicalize(v_rem, Kind.REGULAR, Shift(3, ((0,), (3, 1))))
        assert key.shift.rows[1] == (1, 3) and sign == 1

    def test_derivative_swap_carries_sign(self, v_rem):
        key, sign = canonicalize(v_rem, Kind.DERIVATIVE, Shift(3, ((0,), (1, 3))))
        assert key.shift.rows[1] == (3, 1) and sign == -1

    def test_swap_fixed_derivative_vanishes(self, v_rem):
        _key, sign = canonicalize(v_rem, Kind.DERIVATIVE, Shift(3, ((0,), (2, 2))))
        assert sign == 0

    def test_idempotent(self, v_rem):
        for rows in [((0,), (3, 1)), ((1,), (-2, 4)), ((0,), (2, 2))]:
            for kind in Kind:
                key, sign = canonicalize(v_rem, kind, Shift(3, rows))
                if sign == 0:
                    continue
                key2, sign2 = canonicalize(v_rem, key.kind, key.shift)
                assert key2 == key and sign2 == 1

    def test_constant_on_swap_orbits(self, v_rem):
        # swapped references resolve to the same key; only the sign differs
        for rows in [((0,), (3, 1)), ((2,), (-1, 4)), ((0,), (0, 5))]:
            w = Shift(3, rows)
            wt = tau(v_rem, w)
            k1, s1 = canonicalize(v_rem, Kind.REGULAR, w)
            k2, s2 = canonicalize(v_rem, Kind.REGULAR, wt)
            assert k1 == k2 and s1 == s2 == 1
            d1, t1 = canonicalize(v_rem, Kind.DERIVATIVE, w)
            d2, t2 = canonicalize(v_rem, Kind.DERIVATIVE, wt)
            assert d1 == d2 and t1 == -t2 and abs(t1) == 1

    def test_nonsingular_context_regular_only(self, v_gen3):
        key, sign = canonicalize(v_gen3, Kind.REGULAR, Shift.zero(3))
        assert sign == 1 and key.kind is Kind.REGULAR
        with pytest.raises(ValueError):
            canonicalize(v_gen3, Kind.DERIVATIVE, Shift.zero(3))


class TestAnchorSoundness:
    @pytest.mark.parametrize("fixture", ["v_gen3", "v_gen3_chain", "v_rem", "v_sing4"])
    def test_integral_difference_iff_same_anchor(self, fixture, request):
        v = request.getfixturevalue(fixture)
        positions = [(r, s) for r in range(1, v.n + 1) for s in range(1, r + 1)]
        for p in positions:
            for q in positions:
                diff = v.entry(*p) - v.entry(*q)
                assert (diff.denominator == 1) == (anchor_index(v, *p) == anchor_index(v, *q))


class TestJson:
    def test_base_vector_roundtrip(self, v_rem):
        data = v_rem.to_json()
        again = BaseVector.from_json(json.loads(json.dumps(data)))
        assert again == v_rem
        assert again.to_json() == data

    def test_rows_input_normalizes(self, v_rem):
        data = {"rows": [["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"]]}
        assert BaseVector.from_json(data) == v_rem

    def test_shift_roundtrip(self):
        w = Shift(3, ((4,), (-1, 2)))
        assert Shift.from_json(3, w.to_json()) == w
        assert w.to_json() == [[-1, 2], [4]]

    def test_key_roundtrip(self):
        key = TabKey(Shift(3, ((0,), (2, 0))), Kind.DERIVATIVE)
        assert TabKey.from_json(3, key.to_json()) == key

    @pytest.mark.parametrize(
        "data,shown",
        [
            ({"shift": 5, "kind": "T"}, "field 'shift': a shift must be a list of integer rows"),
            ({"shift": [[0, 0], [0]]}, "field 'kind' is missing"),
            ({"shift": [[0, "1"], [0]], "kind": "T"}, "expected an integer, got '1'"),
            ({"shift": [[0, 0]], "kind": "T"}, "must have 2 rows"),
            (["T", [[0, 0], [0]]], "a basis key must be a JSON object, got list"),
        ],
        ids=["shift-number", "no-kind", "string-entry", "too-few-rows", "array"],
    )
    def test_key_json_shape_is_a_value_error(self, data, shown):
        with pytest.raises(ValueError) as exc:
            TabKey.from_json(3, data)
        assert shown in str(exc.value)


class TestSingularTriple:
    def test_reports_triple(self, v_sing4):
        assert singular_triple(v_sing4) == (2, 1, 2)

    def test_rejects_generic(self, v_gen3):
        with pytest.raises(ValueError):
            singular_triple(v_gen3)
