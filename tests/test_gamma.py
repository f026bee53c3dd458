from fractions import Fraction as F

import pytest

from gtmodules.action import (
    ModVec,
    act_gamma,
    apply_casimir_pbw,
    gamma_dvbar,
    gamma_eval,
)
from gtmodules.structure import Window
from gtmodules.tableau import Kind, Shift, TabKey, canonicalize

from helpers import tau


def key(n, rows, kind=Kind.REGULAR):
    return TabKey(Shift(n, tuple(tuple(r) for r in rows)), kind)


def brute_gamma(entries, power):
    """Independent evaluation of the symmetric eigenvalue sum on distinct
    rational entries, straight from the defining expression."""
    r = len(entries)
    total = F(0)
    for i, ei in enumerate(entries):
        term = (ei + r - 1) ** power
        for j, ej in enumerate(entries):
            if i != j:
                term *= 1 - F(1, 1) / (ei - ej)
        total += term
    return total


class TestGammaValues:
    def test_level_11_is_the_entry(self, v_gen3):
        for w11 in (-2, 0, 3):
            z = Shift(3, ((w11,), (0, 0)))
            assert gamma_eval(v_gen3, 1, 1, z) == v_gen3.entry(1, 1) + w11

    def test_level_21_linear_form(self, v_gen3):
        # the reciprocal terms cancel: value is entry sum plus one
        for rows in [((0,), (0, 0)), ((1,), (2, -1)), ((0,), (-3, 5))]:
            z = Shift(3, rows)
            e1 = v_gen3.entry(2, 1) + z.get(2, 1)
            e2 = v_gen3.entry(2, 2) + z.get(2, 2)
            assert gamma_eval(v_gen3, 2, 1, z) == e1 + e2 + 1

    def test_matches_brute_sum_on_distinct_entries(self, v_gen3):
        z = Shift(3, ((2,), (0, -1)))
        for (r, s) in [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
            entries = [v_gen3.entry(r, u) + z.get(r, u) for u in range(1, r + 1)]
            assert gamma_eval(v_gen3, r, s, z) == brute_gamma(entries, s)

    def test_removable_singularity_matches_perturbed_limit(self, v_rem):
        # at the coincident pair the defining sum is evaluated through the
        # deformation; derivative-key shifts give plain distinct entries
        z = Shift.zero(3)
        val = gamma_eval(v_rem, 2, 2, z)
        # brute force the limit: evaluate at x, x + eps symbolically in eps
        # via two sample points and the fact the function is a polynomial of
        # degree <= 1 in eps after removal... simplest honest check: compare
        # with the value forced by the finite-family coherence below.
        assert val == brute_gamma_limit_quadratic(v_rem, z)

    def test_gl2_eigenvalue_matches_pbw_on_finite_module(self, v_fin2):
        # c at level (2,1) equals the sum of the two diagonal weights
        for w11 in (0, 1):
            k = key(2, [(w11,)])
            vec = ModVec.single(k)
            out = apply_casimir_pbw(v_fin2, 2, 1, vec)
            g = gamma_eval(v_fin2, 2, 1, k.shift)
            assert out == ModVec.single(k, g)


def brute_gamma_limit_quadratic(v, z):
    """Oracle for the coincident-pair value: evaluate the sum at the pair
    split by a small rational and extrapolate the even polynomial part.

    For the level-(2, 2) sum at equal entries (x, x) the function of the
    split eps is a polynomial of degree 2 with no odd part on the deformed
    line, so averaging the evaluations at +eps and -eps and removing the
    known quadratic coefficient recovers the limit; three sample points pin
    it down without any reference to the deformation machinery.
    """
    x = v.entry(2, 1) + z.get(2, 1)
    samples = {}
    for eps in (F(1, 5), F(1, 7), F(1, 11)):
        entries = [x + eps, x - eps]
        samples[eps] = brute_gamma(entries, 2)
    # fit p(eps^2) = a + b eps^2 through two points, check with the third
    e1, e2, e3 = F(1, 5), F(1, 7), F(1, 11)
    y1, y2, y3 = samples[e1], samples[e2], samples[e3]
    b = (y1 - y2) / (e1 * e1 - e2 * e2)
    a = y1 - b * e1 * e1
    assert y3 == a + b * e3 * e3, "limit oracle inconsistent"
    return a


class TestGammaDerivative:
    def test_level_one_is_symmetric(self, v_rem):
        # linear symmetric polynomial in the row entries: derivative vanishes
        for rows in [((0,), (2, 0)), ((1,), (5, -1)), ((0,), (1, 0))]:
            assert gamma_dvbar(v_rem, 2, 1, Shift(3, rows)) == 0

    def test_rows_below_singular_are_constant(self, v_sing4):
        # singular row is 2: level (1, 1) never sees the deformed entries
        assert gamma_dvbar(v_sing4, 1, 1, Shift(4, ((3,), (1, 0), (0, 0, 0)))) == 0

    def test_level_k2_nonzero_off_the_fixed_locus(self, v_rem):
        for rows in [((0,), (2, 0)), ((0,), (1, -1)), ((2,), (3, 0))]:
            z = Shift(3, rows)
            assert z != tau(v_rem, z)
            assert gamma_dvbar(v_rem, 2, 2, z) != 0

    def test_requires_singular_context(self, v_gen3):
        with pytest.raises(ValueError):
            gamma_dvbar(v_gen3, 2, 2, Shift.zero(3))


class TestGammaAction:
    def test_recentred_annihilates_its_regular_tableau(self, v_rem):
        for rows in [((0,), (0, 0)), ((1,), (-1, 0)), ((0,), (0, 2))]:
            z = Shift(3, rows)
            reg, _ = canonicalize(v_rem, Kind.REGULAR, z)
            for r in range(1, 4):
                for s in range(1, r + 1):
                    assert act_gamma(v_rem, r, s, reg, shift=z).is_zero

    def test_level_k2_nilpotent_on_derivative(self, v_rem):
        z = Shift(3, ((0,), (2, 0)))
        kd = key(3, z.rows, Kind.DERIVATIVE)
        once = act_gamma(v_rem, 2, 2, kd, shift=z)
        assert not once.is_zero
        expected = ModVec.single(
            key(3, ((0,), (0, 2))), gamma_dvbar(v_rem, 2, 2, z)
        )
        assert once == expected
        assert act_gamma(v_rem, 2, 2, once, shift=z).is_zero

    def test_level_11_diagonal(self, v_rem):
        w = Shift(3, ((4,), (0, 1)))
        k = key(3, w.rows)
        out = act_gamma(v_rem, 1, 1, k)
        assert out == ModVec.single(k, v_rem.entry(1, 1) + 4)

    def test_derivative_key_correction_coefficient(self, v_rem):
        # the regular component of the subalgebra action on a derivative key
        # is exactly the eigenvalue derivative
        z = Shift(3, ((1,), (3, 0)))
        kd = key(3, z.rows, Kind.DERIVATIVE)
        for (r, s) in [(2, 2), (3, 2), (3, 3)]:
            out = act_gamma(v_rem, r, s, kd)
            reg, _ = canonicalize(v_rem, Kind.REGULAR, z)
            assert out.coeff(kd) == gamma_eval(v_rem, r, s, z)
            assert out.coeff(reg) == gamma_dvbar(v_rem, r, s, z)


class TestPBWCoherence:
    @pytest.mark.parametrize("level", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_sample_keys_all_families(self, level, v_fin3_210, v_gen3, v_rem):
        m, k = level
        cases = [
            (v_fin3_210, key(3, [(1,), (1, 0)])),
            (v_gen3, key(3, [(1,), (0, -1)])),
            (v_rem, key(3, [(0,), (0, 0)])),
            (v_rem, key(3, [(0,), (2, 0)], Kind.DERIVATIVE)),
        ]
        for v, kk in cases:
            vec = ModVec.single(kk)
            assert apply_casimir_pbw(v, m, k, vec) == act_gamma(v, m, k, kk)

    @pytest.mark.parametrize("level", [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize(
        "raw", [key(3, [(0,), (1, 0)]), key(3, [(0,), (0, 1)], Kind.DERIVATIVE), key(3, [(2,), (3, -1)])],
        ids=["T@1,0;0", "DT@0,1;0", "T@3,-1;2"],
    )
    def test_raw_labels_match_pbw(self, level, raw, v_rem):
        # a label that is not canonical names the same vector as its swap
        # (T) or minus it (DT); both routes must return canonical terms
        m, k = level
        assert apply_casimir_pbw(v_rem, m, k, ModVec.single(raw)) == act_gamma(v_rem, m, k, raw)

    @pytest.mark.parametrize("level", [(4, 1), (4, 2), (4, 4)])
    def test_level_above_n_rejected(self, level, v_rem):
        # gl(3) has no level-4 elements; the check comes before any action
        m, k = level
        with pytest.raises(ValueError, match=r"^need 1 <= k <= m <= n$"):
            apply_casimir_pbw(v_rem, m, k, ModVec.single(key(3, [(0,), (0, 0)])))

    def test_central_elements_commute(self, v_rem):
        # the tower is commutative: cross-apply two levels in both orders
        vec = ModVec.single(key(3, [(0,), (1, 0)], Kind.DERIVATIVE)) + ModVec.single(
            key(3, [(1,), (0, 0)]), F(3, 2)
        )
        for (m1, k1), (m2, k2) in [((2, 2), (3, 1)), ((2, 1), (3, 2)), ((3, 2), (3, 3))]:
            ab = apply_casimir_pbw(v_rem, m1, k1, apply_casimir_pbw(v_rem, m2, k2, vec))
            ba = apply_casimir_pbw(v_rem, m2, k2, apply_casimir_pbw(v_rem, m1, k1, vec))
            assert ab == ba


def pairing_oracle(v, shifts, char):
    """The character-pairing failures by a plain loop over ordered pairs,
    swap-relatedness read from ``tau``."""
    chars = {w: char(w) for w in shifts}
    failures = []
    for z in shifts:
        for w in shifts:
            same_char = chars[z] == chars[w]
            if same_char != (w == z or w == tau(v, z)):
                failures.append({"z": z.to_json(), "w": w.to_json(), "same_char": same_char})
    return failures


class TestCharacterPairing:
    def test_characters_separate_up_to_swap(self, v_rem, win3_r1):
        from gtmodules.checks import check_character_pairing

        assert check_character_pairing(v_rem, win3_r1.shifts()) == []

    @pytest.mark.parametrize(
        "fixture,shared,planted",
        [
            ("v_rem", ((0,), (1, 0)), ((1,), (0, 0))),
            ("v_sing4_row3", ((0,), (0, 0), (1, 0, 0)), ((0,), (1, 0), (0, 0, 0))),
        ],
        ids=["gl3", "gl4"],
    )
    def test_shared_character_fails_as_the_oracle(self, request, monkeypatch, fixture, shared, planted):
        # the planted label is given the character of a label it is not
        # swap-related to, so it pairs with that label and its swap
        import gtmodules.checks as checks

        v = request.getfixturevalue(fixture)
        n = v.n
        shared, planted = Shift(n, shared), Shift(n, planted)
        assert planted not in (shared, tau(v, shared)) and shared != tau(v, shared)
        # gl(3): the radius-1 window; gl(4): its slice with row 1 at the centre
        shifts = [w for w in Window(Shift.zero(n), 1).shifts() if n == 3 or w.rows[0] == (0,)]
        assert {shared, tau(v, shared), planted} <= set(shifts)
        monkeypatch.setattr(
            checks, "gamma_eval", lambda v, m, s, w: gamma_eval(v, m, s, shared if w == planted else w)
        )
        levels = [(m, s) for m in range(1, n + 1) for s in range(1, m + 1)]
        expected = pairing_oracle(v, shifts, lambda w: [checks.gamma_eval(v, m, s, w) for m, s in levels])
        assert len(expected) == 4
        assert checks.check_character_pairing(v, shifts) == expected
