"""Invariant suites: commutation relations, subalgebra coherence, the
derivative-pair calculus identities, character pairing, separation and the
triple-set drop bound.

Each check returns a list of failure descriptions (empty means the suite
passed) so the command-line ``verify`` report and the test suite share one
implementation.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .action import ModVec, act_gamma, apply_casimir_pbw, apply_e, gamma_eval
from .ratcalc import format_rat, rf_d_pair, rf_from_linear_factors
from .structure import basis_key, key_sort_key, reach_scan, separator
from .tableau import BaseVector, Family, Kind, Shift, TabKey, classify, singular_triple

__all__ = [
    "commutator",
    "check_relations",
    "check_gamma_coherence",
    "check_dpair_properties",
    "check_character_pairing",
    "check_separation",
    "check_drop_bound",
]


def _apply(v: BaseVector, label: tuple[int, int], vec: ModVec) -> ModVec:
    return apply_e(v, label[0], label[1], vec)


def commutator(v: BaseVector, g1: tuple[int, int], g2: tuple[int, int], vec: ModVec) -> ModVec:
    return _apply(v, g1, _apply(v, g2, vec)) - _apply(v, g2, _apply(v, g1, vec))


def _relation_cases(n: int):
    """Expected bracket values on the elementary generator set.

    Yields (g1, g2, expected) where expected is a list of (coeff, label)
    with label an (i, j) matrix-unit pair, or [] for a vanishing bracket.
    """
    raise_ = lambda r: (r, r + 1)
    lower = lambda r: (r + 1, r)
    diag = lambda r: (r, r)
    for r in range(1, n):
        for s in range(1, n):
            expected = []
            if r == s:
                expected = [(1, diag(r)), (-1, diag(r + 1))]
            yield raise_(r), lower(s), expected
            if abs(r - s) >= 2:
                yield raise_(r), raise_(s), []
                yield lower(r), lower(s), []
            elif s == r + 1:
                yield raise_(r), raise_(s), [(1, (r, s + 1))]
                yield lower(r), lower(s), [(-1, (s + 1, r))]
    for r in range(1, n + 1):
        for s in range(1, n):
            c = (1 if r == s else 0) - (1 if r == s + 1 else 0)
            yield diag(r), raise_(s), [(c, raise_(s))] if c else []
            yield diag(r), lower(s), [(-c, lower(s))] if c else []
        for s in range(1, n + 1):
            yield diag(r), diag(s), []


def check_relations(v: BaseVector, keys: Sequence[TabKey]) -> list[dict]:
    """Verify the defining bracket relations exactly on every given key."""
    failures = []
    for key in keys:
        vec = ModVec.single(key)
        for g1, g2, expected in _relation_cases(v.n):
            lhs = commutator(v, g1, g2, vec)
            rhs = ModVec.zero()
            for coeff, label in expected:
                rhs = rhs + _apply(v, label, vec).scale(coeff)
            if lhs != rhs:
                failures.append(
                    {
                        "key": key.to_json(),
                        "bracket": [list(g1), list(g2)],
                        "got": _modvec_json(lhs),
                        "expected": _modvec_json(rhs),
                    }
                )
    return failures


def _modvec_json(vec: ModVec) -> list:
    """[key, "p/q"] pairs in key order, the report form of a vector."""
    items = sorted(vec.items(), key=lambda kv: key_sort_key(kv[0]))
    return [[key.to_json(), format_rat(coeff)] for key, coeff in items]


def check_gamma_coherence(
    v: BaseVector, keys: Sequence[TabKey], levels: Sequence[tuple[int, int]] | None = None
) -> list[dict]:
    """Closed-form subalgebra action against the full index-tuple sum."""
    if levels is None:
        levels = [(m, k) for m in range(1, v.n + 1) for k in range(1, m + 1)]
    failures = []
    for key in keys:
        vec = ModVec.single(key)
        for m, k in levels:
            lhs = apply_casimir_pbw(v, m, k, vec)
            rhs = act_gamma(v, m, k, key)
            if lhs != rhs:
                failures.append(
                    {
                        "key": key.to_json(),
                        "level": [m, k],
                        "pbw": _modvec_json(lhs),
                        "closed_form": _modvec_json(rhs),
                    }
                )
    return failures


def _random_factors(rng: random.Random) -> tuple[list, list]:
    """Numerator and denominator factors (c, m) = c + m t of a random
    function that is smooth at t = 0."""

    def factor() -> tuple[Fraction, int]:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4)), rng.randint(-3, 3)

    num = [factor() for _ in range(rng.randint(0, 3))]
    den = [f for f in (factor() for _ in range(rng.randint(0, 3))) if f[0]]
    return num, den


def _flip(factors: list) -> list:
    """The factors of f(-t)."""
    return [(c, -m) for c, m in factors]


def check_dpair_properties(seed: int = 0, count: int = 100) -> list[dict]:
    """Randomized identities of the (value, half-derivative) pair at zero.

    Covers: clearing a simple zero (2t f has pair (0, f(0))), vanishing of
    the half-derivative on even functions, linearity, and the Leibniz rule.
    Functions are factor lists, so 2t f, f(-t), alpha f and f g are list
    edits and jet addition is the only arithmetic on the results.
    """
    rng = random.Random(seed)
    failures = []
    jet = rf_from_linear_factors
    for trial in range(count):
        f_num, f_den = _random_factors(rng)
        g_num, g_den = _random_factors(rng)
        f = jet(f_num, f_den)
        fv, fd = rf_d_pair(f)
        gv, gd = rf_d_pair(jet(g_num, g_den))
        alpha = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        beta = Fraction(rng.randint(-5, 5), rng.randint(1, 3))

        if rf_d_pair(jet(f_num + [(0, 2)], f_den)) != (Fraction(0), fv):
            failures.append({"trial": trial, "identity": "clear_simple_zero"})
        if rf_d_pair(f + jet(_flip(f_num), _flip(f_den)))[1] != 0:
            failures.append({"trial": trial, "identity": "even_function"})
        comb = jet(f_num + [(alpha, 0)], f_den) + jet(g_num + [(beta, 0)], g_den)
        if rf_d_pair(comb) != (alpha * fv + beta * gv, alpha * fd + beta * gd):
            failures.append({"trial": trial, "identity": "linearity"})
        if rf_d_pair(jet(f_num + g_num, f_den + g_den)) != (fv * gv, fd * gv + fv * gd):
            failures.append({"trial": trial, "identity": "leibniz"})
    return failures


def check_character_pairing(v: BaseVector, shifts: Sequence[Shift]) -> list[dict]:
    """Two of the given labels share every subalgebra eigenvalue iff they
    agree up to the singular swap."""
    k, i, j = singular_triple(v)
    levels = [(m, s) for m in range(1, v.n + 1) for s in range(1, m + 1)]
    failures = []
    chars = {w: tuple(gamma_eval(v, m, s, w) for m, s in levels) for w in shifts}
    for z in shifts:
        for w in shifts:
            same_char = chars[z] == chars[w]
            swap_related = w == z or w == z.swap(k, i, j)
            if same_char != swap_related:
                failures.append({"z": z.to_json(), "w": w.to_json(), "same_char": same_char})
    return failures


def check_separation(
    v: BaseVector, shifts: Sequence[Shift], sample: int | None = None, seed: int = 0
) -> list[dict]:
    """Separator recipes annihilate both tableaux at z and fix the basis
    element at w, for ordered pairs of the given labels that are not
    swap-related."""
    from .tableau import canonicalize

    k, i, j = singular_triple(v)
    pairs = [
        (z, w)
        for z in shifts
        for w in shifts
        if w != z and w != z.swap(k, i, j)
    ]
    if sample is not None and sample < len(pairs):
        pairs = random.Random(seed).sample(pairs, sample)
    failures = []
    for z, w in pairs:
        recipe = separator(v, z, w)
        reg_z, _ = canonicalize(v, Kind.REGULAR, z)
        der_z, sg = canonicalize(v, Kind.DERIVATIVE, z)
        wkey = basis_key(v, w)
        ok = recipe.apply(v, reg_z).is_zero
        if ok and sg:
            ok = recipe.apply(v, der_z).is_zero
        if ok:
            ok = recipe.apply(v, wkey) == ModVec.single(wkey)
        if not ok:
            failures.append({"z": z.to_json(), "w": w.to_json(), "level": [recipe.r, recipe.s]})
    return failures


def check_drop_bound(v: BaseVector, keys: Sequence[TabKey]) -> list[dict]:
    """Triple-set size bound along generator edges out of the given keys,
    with full classification of drop-by-one edges; the generic family
    admits no drops at all."""
    report = reach_scan(v, keys, audit=True)[1]
    failures = [{"type": "violation", **e.to_json()} for e in report.violations]
    failures.extend({"type": "unclassified", **e.to_json()} for e in report.unclassified)
    if classify(v).family is Family.GENERIC:
        failures.extend({"type": "generic_drop", **e.to_json()} for e in report.drops)
    return failures
