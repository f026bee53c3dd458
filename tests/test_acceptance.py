"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an exact equality (of rationals, vectors or sets); the only
tolerances are the stated wall-clock budgets.  Run with ``-s`` to see one
PASS line per criterion.
"""

import time

from gtmodules.action import (
    ModVec,
    act_e,
    act_gamma,
    gamma_dvbar,
)
from gtmodules.checks import (
    check_dpair_properties,
    check_gamma_coherence,
    check_relations,
    check_separation,
)
from gtmodules.structure import (
    Window,
    basis_key,
    irreducibility_verdict,
    omega_classes,
    omega_k_plus,
    omega_plus,
    reach_closure,
    reach_scan,
)
from gtmodules.tableau import BaseVector, Kind, Shift, TabKey, canonicalize, standard_shifts

from helpers import tau, weyl_dimension


def report(line: str):
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_finite_correctness():
    t0 = time.time()
    cases = [([1, 0], 2), ([1, 0, 0], 3), ([1, 1, 0], 3), ([2, 1, 0], 8)]
    for weight, expected in cases:
        v = BaseVector.from_weight(weight)
        shifts = standard_shifts(v)
        assert len(shifts) == expected
        assert len(shifts) == weyl_dimension(weight)
        keys = [TabKey(w, Kind.REGULAR) for w in shifts]
        assert check_relations(v, keys) == []
    elapsed = time.time() - t0
    assert elapsed < 5.0
    report(f"1 PASS: finite dimensions (2,3,3,8) match the Weyl oracle and all "
           f"defining relations hold on every basis vector [{elapsed:.2f}s < 5s]")


def test_criterion_2_casimir_coherence(v_fin3_210, v_gen3, v_rem, win3):
    t0 = time.time()
    levels = [(m, k) for m in range(1, 4) for k in range(1, m + 1)]
    checked = 0
    for weight in ([1, 0, 0], [1, 1, 0], [2, 1, 0]):
        v = BaseVector.from_weight(weight)
        keys = [TabKey(w, Kind.REGULAR) for w in standard_shifts(v)]
        assert check_gamma_coherence(v, keys, levels) == []
        checked += len(keys)
    for v in (v_gen3, v_rem):
        keys = win3.keys(v)
        assert check_gamma_coherence(v, keys, levels) == []
        checked += len(keys)
    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(f"2 PASS: tuple-sum central elements equal the closed-form action at "
           f"all 6 levels on {checked} basis vectors [{elapsed:.1f}s < 120s]")


def test_criterion_3_dpair_calculus(v_rem, win3):
    failures = check_dpair_properties(seed=7, count=120)
    assert failures == []
    shifts = [w for w in win3.shifts() if w != tau(v_rem, w)]
    assert len(shifts) >= 50
    for z in shifts:
        reg, _ = canonicalize(v_rem, Kind.REGULAR, z)
        der, sg = canonicalize(v_rem, Kind.DERIVATIVE, z)
        assert sg != 0
        # recentred level (k,2): annihilates the regular tableau
        assert act_gamma(v_rem, 2, 2, reg, shift=z).is_zero
        # sends the derivative tableau to its regular partner with the
        # nonzero eigenvalue-derivative coefficient
        dg = gamma_dvbar(v_rem, 2, 2, z)
        assert dg != 0
        lhs = act_gamma(v_rem, 2, 2, der, shift=z).scale(sg)
        assert lhs == ModVec.single(reg, dg)
        # and squares to zero on it
        assert act_gamma(v_rem, 2, 2, act_gamma(v_rem, 2, 2, der, shift=z), shift=z).is_zero
    report(f"3 PASS: derivative-pair calculus on 120 random functions and the "
           f"recentred level-(k,2) identities on {len(shifts)} window labels")


def test_criterion_4_singular_module_axioms(v_rem, v_sing4, win3):
    t0 = time.time()
    keys3 = win3.keys(v_rem)
    assert check_relations(v_rem, keys3) == []
    win4 = Window(center=Shift.zero(4), radius=1, margin=1)
    keys4 = win4.keys(v_sing4)
    assert check_relations(v_sing4, keys4) == []
    elapsed = time.time() - t0
    assert elapsed < 300.0
    kinds3 = {k.kind for k in keys3}
    kinds4 = {k.kind for k in keys4}
    assert kinds3 == kinds4 == {Kind.REGULAR, Kind.DERIVATIVE}
    report(f"4 PASS: all defining relations hold exactly on {len(keys3)} gl(3) keys "
           f"(radius 2) and {len(keys4)} gl(4) keys (radius 1), both kinds "
           f"[{elapsed:.1f}s < 300s]")


def test_criterion_5_separation_suite(v_rem, win3_r1):
    shifts = win3_r1.shifts()
    failures = check_separation(v_rem, shifts, sample=None)
    assert failures == []
    k, i, j = 2, 1, 2
    pairs = sum(
        1
        for z in shifts
        for w in shifts
        if w != z and w != z.swap(k, i, j)
    )
    report(f"5 PASS: separator recipes annihilate both tableaux at z and fix "
           f"the target on all {pairs} ordered label pairs in the radius-1 window")


def test_criterion_6_omega_drop_bound(v_gen3_chain, v_rem, win3):
    rep_gen = reach_scan(v_gen3_chain, win3.keys(v_gen3_chain), audit=True)[1]
    assert rep_gen.ok
    assert rep_gen.drops == ()
    rep_sing = reach_scan(v_rem, win3.keys(v_rem), audit=True)[1]
    assert rep_sing.ok
    assert rep_sing.violations == () and rep_sing.unclassified == ()
    assert all(e.config in {"I", "II", "III", "IV", "V"} for e in rep_sing.drops)
    # the published example values: sizes 2 -> 1 one step down
    center = basis_key(v_rem, Shift.zero(3))
    out = act_e(v_rem, 3, 2, center)
    target = TabKey(Shift(3, ((0,), (-1, 0))), Kind.REGULAR)
    assert out == ModVec.single(target)
    assert len(omega_plus(v_rem, center)) == 2
    assert len(omega_plus(v_rem, target)) == 1
    report(f"6 PASS: no size-bound violations on {rep_gen.edges_scanned} generic and "
           f"{rep_sing.edges_scanned} singular edges; {len(rep_sing.drops)} drop-by-one "
           f"edges all match configurations I-V; published 2->1 edge reproduced")


def test_criterion_7_subquotient_bases(v_gen3_chain, v_rem, win3):
    # generic: closure equals the predicted submodule basis on the interior
    keys = win3.keys(v_gen3_chain)
    succ = reach_scan(v_gen3_chain, keys)[0]
    classes = omega_classes(v_gen3_chain, keys)
    interior = [k for k in keys if win3.is_interior(k.shift)]
    for key in interior:
        closure = [keys[i] for i in reach_closure(succ, keys.index(key))]
        cl_int = {t for t in closure if win3.is_interior(t.shift)}
        om = omega_plus(v_gen3_chain, key)
        n_int = {t for c, members in classes.items() if om <= c for t in members if win3.is_interior(t.shift)}
        assert cl_int == n_int
        assert {t for t in classes[om] if win3.is_interior(t.shift)} <= cl_int
    # singular satisfying the restricted-basis hypothesis: interior classes
    # are strongly connected
    keys_s = win3.keys(v_rem)
    succ_s = reach_scan(v_rem, keys_s)[0]
    interior_s = [k for k in keys_s if win3.is_interior(k.shift)]
    classes_s = omega_classes(v_rem, interior_s)
    closures = {k: {keys_s[i] for i in reach_closure(succ_s, keys_s.index(k))} for k in interior_s}
    for members in classes_s.values():
        for k1 in members:
            for k2 in members:
                assert k2 in closures[k1]
    # and the window prediction agrees with the class partition
    window_classes = omega_classes(v_rem, keys_s)
    for k in interior_s:
        cls = window_classes[omega_k_plus(v_rem, k)]
        assert [t for t in cls if win3.is_interior(t.shift)] == classes_s[omega_k_plus(v_rem, k)]
    report(f"7 PASS: generic interior closure equals the predicted submodule basis for "
           f"{len(interior)} keys; all {len(classes_s)} interior singular classes "
           f"strongly connected")


def _irreducible_vectors():
    return [
        BaseVector.from_rows([["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/11"]]),
        BaseVector.from_rows([["2/3", "1/5", "3/7"], ["5/9", "5/9"], ["1/2"]]),
        BaseVector.from_rows([["1/2", "4/3", "1/5"], ["15/7", "15/7"], ["1/11"]]),
        BaseVector.from_rows([["7/2", "1/3", "-4/5"], ["1/7", "1/7"], ["-10/11"]]),
        BaseVector.from_rows([["1/5", "1/3", "1/2"], ["-6/7", "-6/7"], ["1/13"]]),
    ]


def _reducible_vectors():
    return [
        BaseVector.from_rows([["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"]]),
        BaseVector.from_rows([["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["22/7"]]),
        BaseVector.from_rows([["8/7", "1/3", "1/5"], ["1/7", "1/7"], ["1/11"]]),
        BaseVector.from_rows([["-13/7", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"]]),
        BaseVector.from_rows([["1/2", "1/3", "15/7"], ["1/7", "1/7"], ["1/11"]]),
    ]


def _audit_radius(v, margin=1):
    """Radius big enough that the window interior reaches past every top-row
    alignment: only the top row is frozen, so misalignment there needs the
    free row shifted beyond the integral gap."""
    radius = 3
    n = v.n
    for (r, s, t) in v.integral_pairs:
        if r == n:
            gap = v.entry(n, s) - v.entry(n - 1, t)
            if gap >= 0:
                radius = max(radius, int(gap) + 1 + margin)
    return radius


def test_criterion_8_irreducibility_verdicts(win3):
    for v in _irreducible_vectors():
        verdict = irreducibility_verdict(v, win3)
        assert verdict.status == "irreducible"
        assert verdict.neighbor_integral_pairs == ()
        keys = win3.keys(v)
        succ = reach_scan(v, keys)[0]
        interior = [k for k in keys if win3.is_interior(k.shift)]
        for key in interior:
            closure = {keys[i] for i in reach_closure(succ, keys.index(key))}
            assert set(interior) <= closure
    # the audited omission sits past the alignment locus, so the reducible
    # direction is checked on a window wide enough to contain it
    for v in _reducible_vectors():
        win_red = Window(center=Shift.zero(3), radius=_audit_radius(v), margin=1)
        verdict = irreducibility_verdict(v, win_red)
        assert verdict.status == "reducible"
        assert verdict.witness is not None
        assert len(verdict.neighbor_integral_pairs) >= 1
        assert verdict.omitted_interior, "closure must omit an interior key"
    report("8 PASS: 5 clean vectors irreducible with full interior coverage; "
           "5 vectors with neighboring-row integral pairs reducible with audited "
           "proper submodules")
