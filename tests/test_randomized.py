"""Randomized cross-checks over varying base vectors and labels."""

from fractions import Fraction as F

from hypothesis import given, settings, strategies as st

from gtmodules.action import ModVec, act_e, act_gamma, apply_casimir_pbw, apply_e
from gtmodules.tableau import BaseVector, Kind, Shift, TabKey

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
        assert v.classification.singular == (2, 1, 2)
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
