import pytest

from gtmodules.action import ModVec, gamma_eval
from gtmodules.structure import basis_key, separator
from gtmodules.tableau import Kind, Shift, canonicalize, tau


def both_labels(v, z):
    """Canonical regular and (if present) derivative keys at the shift z."""
    reg, _ = canonicalize(v, Kind.REGULAR, z)
    der, sign = canonicalize(v, Kind.DERIVATIVE, z)
    return reg, (der if sign else None)


class TestSeparator:
    def test_rejects_swap_related_pair(self, v_rem):
        z = Shift(3, ((0,), (1, 0)))
        with pytest.raises(ValueError):
            separator(v_rem, z, z)
        with pytest.raises(ValueError):
            separator(v_rem, z, tau(v_rem, z))

    def test_annihilates_and_fixes(self, v_rem):
        z = Shift.zero(3)
        for rows in [((0,), (1, 0)), ((1,), (0, 0)), ((0,), (0, -2)), ((-1,), (2, 0))]:
            w = Shift(3, rows)
            recipe = separator(v_rem, z, w)
            reg, der = both_labels(v_rem, z)
            assert recipe.apply(v_rem, reg).is_zero
            if der is not None:
                assert recipe.apply(v_rem, der).is_zero
            wkey = basis_key(v_rem, w)
            assert recipe.apply(v_rem, wkey) == ModVec.single(wkey)

    def test_correction_term_cases(self, v_rem):
        # a pair whose first differing level is the singular-row square sum;
        # the derivative target then needs the corrective factor
        z = Shift.zero(3)
        w = Shift(3, ((0,), (1, -1)))
        recipe = separator(v_rem, z, w)
        assert (recipe.r, recipe.s) == (2, 2)
        assert recipe.beta != 0
        wkey = basis_key(v_rem, w)
        assert wkey.kind is Kind.DERIVATIVE
        assert recipe.apply(v_rem, wkey) == ModVec.single(wkey)

    def test_level_choice_first_lexicographic(self, v_rem):
        z = Shift.zero(3)
        w = Shift(3, ((2,), (0, 0)))
        recipe = separator(v_rem, z, w)
        assert (recipe.r, recipe.s) == (1, 1)
        assert recipe.a == gamma_eval(v_rem, 1, 1, w) - gamma_eval(v_rem, 1, 1, z)

    def test_atoms_describe_recipe(self, v_rem):
        recipe = separator(v_rem, Shift.zero(3), Shift(3, ((0,), (1, -1))))
        atoms = recipe.atoms()
        assert atoms[0]["kind"] == "C_power" and atoms[0]["power"] == 2
        assert len(atoms) == 2  # corrective factor present for this pair


class TestSubspaceInvariance:
    def test_recipes_preserve_label_subspaces(self, v_rem):
        # every recipe is a combination of recentred subalgebra elements, so
        # the two-dimensional label subspaces {T, DT at w'} are preserved
        z = Shift.zero(3)
        w = Shift(3, ((0,), (1, -1)))
        recipe = separator(v_rem, z, w)
        for rows in [((1,), (2, 0)), ((0,), (0, 1)), ((2,), (-1, 0))]:
            probe = Shift(3, rows)
            reg, der = both_labels(v_rem, probe)
            targets = {reg}
            if der is not None:
                targets.add(der)
            for start in list(targets):
                out = recipe.apply(v_rem, start)
                assert set(out.support()) <= targets


class TestFullWindowSweep:
    def test_radius_one_all_pairs(self, v_rem, win3_r1):
        from gtmodules.checks import check_separation

        assert check_separation(v_rem, win3_r1.shifts()) == []
