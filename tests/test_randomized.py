"""Randomized cross-checks over varying base vectors and labels."""

from fractions import Fraction as F
from itertools import combinations

import pytest

from hypothesis import given, settings, strategies as st

from gtmodules.action import ModVec, act_e, act_gamma, apply_casimir_pbw, apply_e
from gtmodules.tableau import BaseVector, Family, Kind, Shift, TabKey

from helpers import tau

offsets = st.integers(min_value=-3, max_value=3)


@st.composite
def singular_gl3(draw):
    """One-singular gl(3) vector with the usual anchors and random integer
    offsets (the singular pair stays equal by construction)."""
    o = [draw(offsets) for _ in range(5)]
    a, b, c, x, d = F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)
    return BaseVector.from_rows(
        [[a + o[0], b + o[1], c + o[2]], [x + o[3], x + o[3]], [d + o[4]]]
    )


@st.composite
def shifts_gl3(draw):
    return Shift(3, ((draw(offsets),), (draw(offsets), draw(offsets))))


def basis_key_of(v, w):
    from gtmodules.structure import basis_key

    return basis_key(v, w)


class TestRandomSingularVectors:
    @settings(max_examples=25, deadline=None)
    @given(singular_gl3(), shifts_gl3())
    def test_bracket_on_random_labels(self, v, w):
        assert v.singular == (2, 1, 2)
        vec = ModVec.single(basis_key_of(v, w))
        lhs = apply_e(v, 1, 2, apply_e(v, 2, 1, vec)) - apply_e(
            v, 2, 1, apply_e(v, 1, 2, vec)
        )
        rhs = apply_e(v, 1, 1, vec) - apply_e(v, 2, 2, vec)
        assert lhs == rhs

    @settings(max_examples=20, deadline=None)
    @given(singular_gl3(), shifts_gl3())
    def test_subalgebra_coherence_on_random_labels(self, v, w):
        key = basis_key_of(v, w)
        vec = ModVec.single(key)
        for (m, k) in [(2, 2), (3, 2)]:
            assert apply_casimir_pbw(v, m, k, vec) == act_gamma(v, m, k, key)

    @settings(max_examples=25, deadline=None)
    @given(singular_gl3(), shifts_gl3())
    def test_swap_relations_of_raw_labels(self, v, w):
        wt = tau(v, w)
        for (a, b) in [(2, 3), (3, 2)]:
            assert act_e(v, a, b, TabKey(w, Kind.REGULAR)) == act_e(
                v, a, b, TabKey(wt, Kind.REGULAR)
            )
            if w != wt:
                assert act_e(v, a, b, TabKey(w, Kind.DERIVATIVE)) == act_e(
                    v, a, b, TabKey(wt, Kind.DERIVATIVE)
                ).scale(-1)

    @settings(max_examples=25, deadline=None)
    @given(singular_gl3())
    def test_json_round_trip(self, v):
        assert BaseVector.from_json(v.to_json()) == v


@st.composite
def anchor_layouts(draw):
    """A gl(3) or gl(4) vector's anchors, assignment and offsets, rows
    ascending.  Few anchors make same-anchor pairs common; positions of one
    row sharing an anchor share its offset too, so every row is normalized."""
    n = draw(st.sampled_from([3, 4]))
    m = draw(st.integers(min_value=1, max_value=n + 1))
    arows, orows = [], []
    for r in range(1, n + 1):
        row = tuple(draw(st.integers(min_value=0, max_value=m - 1)) for _ in range(r))
        by_anchor = [draw(offsets) for _ in range(m)]
        arows.append(row)
        orows.append(tuple(by_anchor[a] for a in row))
    return n, tuple(F(k, 37) for k in range(1, m + 1)), tuple(arows), tuple(orows)


@settings(max_examples=150, deadline=None)
@given(anchor_layouts())
def test_family_decided_by_same_anchor_pairs(layout):
    n, _anchors, assignment, _offsets = layout
    pairs = [
        (r, s, u)
        for r in range(1, n)
        for s, u in combinations(range(1, r + 1), 2)
        if assignment[r - 1][s - 1] == assignment[r - 1][u - 1]
    ]
    if len({a for row in assignment for a in row}) == 1:
        family, singular = Family.FINITE_STANDARD, None
    elif len(pairs) >= 2:
        with pytest.raises(ValueError, match="at most one singular pair"):
            BaseVector(*layout)
        return
    else:
        family, singular = (Family.ONE_SINGULAR, pairs[0]) if pairs else (Family.GENERIC, None)
    v = BaseVector(*layout)
    assert (v.family, v.singular) == (family, singular)
    slopes = {(r, s): m for r, row in enumerate(v.deformed_rows, start=1) for s, (_c, m) in enumerate(row, start=1) if m}
    k, i, j = singular or (0, 0, 0)
    assert slopes == ({(k, i): 1, (k, j): -1} if singular else {})
