"""Planted defects, each against the suites that must catch it.

Every row plants one defect with ``monkeypatch`` and runs all six
``verify`` suites on the radius-1 window of ``v_rem`` (separation over all
pairs).  The failure count of each suite must match the row exactly: the
named suites fail, the others pass, and the unplanted run passes all six.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

import gtmodules.action as action
import gtmodules.checks as checks
from gtmodules.action import _clear_memo_caches
from gtmodules.structure import Window
from gtmodules.tableau import Shift

SUITES = ("relations", "gamma_coherence", "dpair_calculus", "character_pairing", "separation", "omega_drop_bound")


def suite_failures(v) -> dict[str, int]:
    """Failure count of each suite that verify runs on a one-singular vector."""
    keys = Window(center=Shift.zero(3), radius=1).keys(v)
    shifts = [key.shift for key in keys]
    levels = [(m, k) for m in range(1, v.n + 1) for k in range(1, min(m, 2) + 1)]
    found = {
        "relations": checks.check_relations(v, keys),
        "gamma_coherence": checks.check_gamma_coherence(v, keys, levels),
        "dpair_calculus": checks.check_dpair_properties(seed=0, count=100),
        "character_pairing": checks.check_character_pairing(v, shifts),
        "separation": checks.check_separation(v, shifts),
        "omega_drop_bound": checks.check_drop_bound(v, keys),
    }
    return {name: len(found[name]) for name in SUITES}


def zero_beta(monkeypatch):
    unplanted = checks.separator
    monkeypatch.setattr(checks, "separator", lambda v, z, w: unplanted(v, z, w)._replace(beta=Fraction(0), k=None))


def shift_level_22(monkeypatch):
    # the closed form only: separator and character_pairing keep their own
    # binding of gamma_eval
    unplanted = action.gamma_eval

    def planted(v, r, s, z):
        return unplanted(v, r, s, z) + ((r, s) == (2, 2))

    monkeypatch.setattr(action, "gamma_eval", planted)


def negate_half(*modules):
    def plant(monkeypatch):
        unplanted = checks.rf_d_pair

        def planted(f):
            value, half = unplanted(f)
            return value, -half

        for module in modules:
            monkeypatch.setattr(module, "rf_d_pair", planted)

    return plant


ROWS = {
    "beta=0": (zero_beta, {"separation": 3}),
    "level(2,2)+1": (shift_level_22, {"gamma_coherence": 27}),
    "half-derivative negated in checks": (negate_half(checks), {"dpair_calculus": 91}),
    "half-derivative negated everywhere": (
        negate_half(checks, action),
        {"relations": 58, "gamma_coherence": 33, "dpair_calculus": 91},
    ),
}


def test_unplanted_window_passes_every_suite(v_rem):
    assert suite_failures(v_rem) == dict.fromkeys(SUITES, 0)


@pytest.mark.parametrize("row", list(ROWS))
def test_planted_defect_fails_its_suites(monkeypatch, v_rem, row):
    plant, expected = ROWS[row]
    plant(monkeypatch)
    _clear_memo_caches()  # act_e results computed before the plant
    try:
        got = suite_failures(v_rem)
    finally:
        monkeypatch.undo()
        _clear_memo_caches()
    assert got == {name: expected.get(name, 0) for name in SUITES}
