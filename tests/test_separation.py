import random
import tracemalloc
from collections import Counter

import pytest

import gtmodules.checks as checks
from gtmodules.action import ModVec, _clear_memo_caches, gamma_eval
from gtmodules.structure import Window, basis_key, separator
from gtmodules.tableau import Kind, Shift, canonicalize, singular_triple

from helpers import tau


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


def listed_pairs(v, shifts, sample, seed):
    """The pairs check_separation checked before it drew positions: every
    ordered pair listed, then sampled.  Kept as the oracle for its draw."""
    k, i, j = singular_triple(v)
    pairs = [
        (z, w)
        for z in shifts
        for w in shifts
        if w != z and w != z.swap(k, i, j)
    ]
    if sample is not None and sample < len(pairs):
        pairs = random.Random(seed).sample(pairs, sample)
    return pairs


class TestSampledPairs:
    @staticmethod
    def checked_pairs(monkeypatch, v, shifts, sample, seed):
        seen = []

        def recording(v, z, w):
            seen.append((z, w))
            return separator(v, z, w)

        monkeypatch.setattr(checks, "separator", recording)
        assert checks.check_separation(v, shifts, sample=sample, seed=seed) == []
        return seen

    @pytest.fixture
    def label_lists(self, v_rem, v_sing4_row3, win3_r1):
        """(vector, labels) cases for the draw: ten gl(3) labels with
        swap-related pairs and the first label listed three times (a swap
        class of size 3), and the first 40 labels of a gl(4) window with
        repeats."""
        r1 = win3_r1.shifts()
        gl4 = Window(center=Shift.zero(4), radius=1).shifts()[:40]
        return {
            "gl3-triple": (v_rem, r1[:10] + [r1[0], r1[0]]),
            "gl4-repeats": (v_sing4_row3, gl4 + gl4[3:6] + [gl4[0]]),
        }

    def test_label_lists_have_a_class_of_three(self, label_lists):
        for v, shifts in label_lists.values():
            assert max(Counter(canonicalize(v, Kind.REGULAR, w)[0] for w in shifts).values()) == 3

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("sample", [0, 1, 60])
    def test_draw_matches_listing_oracle(self, monkeypatch, v_rem, win3, sample, seed):
        shifts = win3.shifts()
        expected = listed_pairs(v_rem, shifts, sample, seed)
        assert len(expected) == sample
        assert self.checked_pairs(monkeypatch, v_rem, shifts, sample, seed) == expected

    @pytest.mark.parametrize(
        "sample, seed",
        [(0, 0), (1, 0), (1, 3), (60, 0), (60, 3), ("count-1", 0), ("count-1", 3), ("count", 0), ("count+5", 0), (None, 0)],
        ids=lambda x: str(x),
    )
    @pytest.mark.parametrize("case", ["gl3-triple", "gl4-repeats"])
    def test_draw_in_order_on_repeated_labels(self, monkeypatch, label_lists, case, sample, seed):
        v, shifts = label_lists[case]
        total = len(listed_pairs(v, shifts, None, seed))
        sample = {"count-1": total - 1, "count": total, "count+5": total + 5}.get(sample, sample)
        expected = listed_pairs(v, shifts, sample, seed)
        assert len(expected) == (total if sample is None else min(sample, total))
        assert self.checked_pairs(monkeypatch, v, shifts, sample, seed) == expected

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("extra", [None, 0, 5], ids=["all", "sample=count", "sample>count"])
    def test_all_pairs_in_order(self, monkeypatch, v_rem, win3_r1, extra, seed):
        # a label list with swap-related pairs and repeated labels
        shifts = win3_r1.shifts()[:10]
        shifts += shifts[2:5]
        expected = listed_pairs(v_rem, shifts, None, seed)
        sample = None if extra is None else len(expected) + extra
        assert self.checked_pairs(monkeypatch, v_rem, shifts, sample, seed) == expected

    def test_peak_memory_does_not_grow_with_pair_count(self, v_rem, win3):
        # 15,400 ordered pairs in the window; listing them all peaked at 1.0 MB
        shifts = win3.shifts()
        _clear_memo_caches()
        tracemalloc.start()
        try:
            assert checks.check_separation(v_rem, shifts, sample=5) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 400_000
