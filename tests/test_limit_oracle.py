"""The one-singular action as the t -> 0 limit of a deformed generic module.

Let F_y be the generic tableau whose singular entries are x + t at (k, i)
and x - t at (k, j), shifted by y.  Its E(r, r+1) and E(r+1, r)
coefficients are computed here in the rational-function field of
``ratfun_oracle`` from the textbook Gelfand-Tsetlin formulas, written out
below and not read from ``coeff_e``, ``Jet`` or ``rf_d_pair``:

    E(r, r+1) F(L) = - sum_s prod_u (l_rs - l_{r+1,u}) / prod_{u != s} (l_rs - l_ru) F(L + d_rs)
    E(r+1, r) F(L) =   sum_s prod_u (l_rs - l_{r-1,u}) / prod_{u != s} (l_rs - l_ru) F(L - d_rs)

The one-singular basis is T(z) = lim (F_z + F_tz)/2 and
DT(z) = lim (F_z - F_tz)/(4t), with t the row-k swap.  A result
a F_y + b F_ty is (a + b) T(y) + 2t (a - b) DT(y); both coefficients are
evaluated at t = 0 and written through ``canonicalize``.  Only this limit
fixes the sign and scale of the derivative tableaux: a rescale or a
t -> -t flip that moves every derivative target and ``gamma_dvbar``
together passes every ``verify`` suite.
"""

from __future__ import annotations

import pytest

import gtmodules.action as action
from gtmodules.action import ModVec, _clear_memo_caches, act_e
from gtmodules.structure import Window
from gtmodules.tableau import BaseVector, Kind, Shift, TabKey, canonicalize, singular_triple

from helpers import old_entry, tau
from ratfun_oracle import RF_ONE, RF_ZERO, Poly, RatFun

TWO, TWO_T, FOUR_T = RatFun(2), RatFun(Poly([0, 2])), RatFun(Poly([0, 4]))


def deformed_entry(v: BaseVector, y: Shift, r: int, s: int) -> RatFun:
    """l_rs of F_y: the shifted entry, plus t at (k, i) and minus t at (k, j)."""
    k, i, j = singular_triple(v)
    slope = {(k, i): 1, (k, j): -1}.get((r, s), 0)
    return RatFun(Poly([old_entry(v, r, s) + y.get(r, s), slope]))


def generic_action(v: BaseVector, a: int, b: int, y: Shift) -> dict[Shift, RatFun]:
    """E(a, b) F_y, |a - b| = 1, as {target shift: coefficient in t}."""
    r, direction = (a, 1) if b == a + 1 else (b, -1)
    row = [deformed_entry(v, y, r, u) for u in range(1, r + 1)]
    nb = r + direction
    nb_row = [deformed_entry(v, y, nb, u) for u in range(1, nb + 1)] if nb else []
    out = {}
    for s, l in enumerate(row, start=1):
        c = RF_ONE if direction < 0 else -RF_ONE
        for m in nb_row:
            c = c * (l - m)
        for u, m in enumerate(row, start=1):
            if u != s:
                c = c / (l - m)
        out[y.bump(r, s, direction)] = c
    return out


def limit_action(v: BaseVector, a: int, b: int, key: TabKey) -> ModVec:
    """E(a, b) on the basis key through the t -> 0 limit of F."""
    z = key.shift
    plus, minus = generic_action(v, a, b, z), generic_action(v, a, b, tau(v, z))
    # T(z) = (F_z + F_tz) / 2 and DT(z) = (F_z - F_tz) / 4t
    sign, scale = (RF_ONE, TWO) if key.kind is Kind.REGULAR else (-RF_ONE, FOUR_T)
    coeff = {y: (plus.get(y, RF_ZERO) + sign * minus.get(y, RF_ZERO)) / scale for y in plus.keys() | minus.keys()}
    terms = []
    for y in {canonicalize(v, Kind.REGULAR, y)[0].shift for y in coeff}:
        alpha, ty = coeff.get(y, RF_ZERO), tau(v, y)
        if ty == y:  # F_y = T(y) and DT(y) = 0
            terms.append((TabKey(y, Kind.REGULAR), alpha(0)))
            continue
        beta = coeff.get(ty, RF_ZERO)
        terms.append((TabKey(y, Kind.REGULAR), (alpha + beta)(0)))
        dkey, sign = canonicalize(v, Kind.DERIVATIVE, y)
        terms.append((dkey, sign * (TWO_T * (alpha - beta))(0)))
    return ModVec(terms)


def generators(n: int):
    for r in range(1, n):
        yield r, r + 1
        yield r + 1, r


def limit_failures(v: BaseVector, keys) -> list[tuple]:
    return [
        (key, g)
        for key in keys
        for g in generators(v.n)
        if limit_action(v, *g, key) != act_e(v, *g, key)
    ]


@pytest.mark.parametrize("name", ["v_rem", "v_sing_irr"])
def test_limit_equals_act_e_on_gl3_windows(request, name):
    v = request.getfixturevalue(name)
    keys = Window(center=Shift.zero(3), radius=1).keys(v)
    assert len(keys) == 27
    assert {key.kind for key in keys} == {Kind.REGULAR, Kind.DERIVATIVE}
    assert limit_failures(v, keys) == []


def test_limit_equals_act_e_on_a_gl4_sample(v_sing4_row3):
    keys = Window(center=Shift.zero(4), radius=1).keys(v_sing4_row3)[::61]
    assert len(keys) == 12
    assert limit_failures(v_sing4_row3, keys) == []


def test_limit_fails_on_negated_slopes(v_rem):
    # both slopes of the singular pair negated (t -> -t) on a copy of v_rem:
    # no verify suite notices, the limit does; the copy equals v_rem, so the
    # memo caches are emptied around it
    v = BaseVector(v_rem.n, v_rem.anchors, v_rem.assignment, v_rem.offsets)
    rows = tuple(tuple((c, -m) for c, m in row) for row in v.deformed_rows)
    object.__setattr__(v, "deformed_rows", rows)
    keys = Window(center=Shift.zero(3), radius=1).keys(v)
    _clear_memo_caches()
    try:
        failed = limit_failures(v, keys)
    finally:
        _clear_memo_caches()
    assert len(failed) == 41  # of 108 (key, generator) cases
    assert all(act_e(v_rem, *g, key) == limit_action(v_rem, *g, key) for key, g in failed)


def test_limit_fails_on_negated_half_derivative(monkeypatch, v_rem):
    # rf_d_pair's half-derivative negated inside the action: every regular
    # target of a singular coefficient flips sign, and the limit disagrees
    unplanted = action.rf_d_pair

    def planted(f):
        value, half = unplanted(f)
        return value, -half

    monkeypatch.setattr(action, "rf_d_pair", planted)
    keys = Window(center=Shift.zero(3), radius=1).keys(v_rem)
    _clear_memo_caches()
    try:
        assert limit_failures(v_rem, keys)
    finally:
        monkeypatch.undo()
        _clear_memo_caches()
