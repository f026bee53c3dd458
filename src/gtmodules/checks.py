"""Invariant suites: commutation relations, subalgebra coherence, the
derivative-pair calculus identities, character pairing, separation and the
triple-set drop bound.

Each check returns a list of failure descriptions (empty means the suite
passed) so the command-line ``verify`` report and the test suite share one
implementation.
"""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from typing import Sequence

from .action import ModVec, act_gamma, apply_casimir_pbw, apply_e, gamma_eval
from .ratcalc import rf_d_pair, rf_from_linear_factors
from .structure import basis_key, key_sort_key, reach_scan, separator
from .tableau import BaseVector, Kind, Shift, TabKey, canonicalize, singular_triple

__all__ = [
    "commutator",
    "check_relations",
    "check_gamma_coherence",
    "check_dpair_properties",
    "check_character_pairing",
    "check_separation",
    "check_drop_bound",
]


def commutator(v: BaseVector, g1: tuple[int, int], g2: tuple[int, int], vec: ModVec) -> ModVec:
    return apply_e(v, *g1, apply_e(v, *g2, vec)) - apply_e(v, *g2, apply_e(v, *g1, vec))


def _relation_cases(n: int):
    """The generator pairs (g1, g2) whose brackets are checked: each
    unordered pair once and no [g, g], which can fail only with a kept case;
    and E_ij, E_ji, j - i >= 3, split at j - 1, a second route beside the
    split at i + 1 that apply_e builds them by."""
    raise_ = lambda r: (r, r + 1)
    lower = lambda r: (r + 1, r)
    diag = lambda r: (r, r)
    for r in range(1, n):
        for s in range(1, n):
            yield raise_(r), lower(s)
            if s > r:
                yield raise_(r), raise_(s)
                yield lower(r), lower(s)
    for r in range(1, n + 1):
        for s in range(1, n):
            yield diag(r), raise_(s)
            yield diag(r), lower(s)
        for s in range(r + 1, n + 1):
            yield diag(r), diag(s)
    for i in range(1, n - 2):
        for j in range(i + 3, n + 1):
            yield (i, j - 1), (j - 1, j)
            yield (j, j - 1), (j - 1, i)


def _bracket(g1: tuple[int, int], g2: tuple[int, int]) -> list[tuple[int, tuple[int, int]]]:
    """[E_ij, E_kl] = delta_jk E_il - delta_li E_kj as (coeff, label) terms."""
    (i, j), (k, l) = g1, g2
    return [(1, (i, l))] * (j == k) + [(-1, (k, j))] * (l == i)


def check_relations(v: BaseVector, keys: Sequence[TabKey]) -> list[dict]:
    """Verify the defining bracket relations exactly on every given key."""
    failures = []
    for key in keys:
        vec = ModVec.single(key)
        for g1, g2 in _relation_cases(v.n):
            lhs = commutator(v, g1, g2, vec)
            rhs = ModVec((k, c * x) for c, label in _bracket(g1, g2) for k, x in apply_e(v, *label, vec).items())
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
    return [[key.to_json(), str(coeff)] for key, coeff in items]


def check_gamma_coherence(v: BaseVector, keys: Sequence[TabKey], levels: Sequence[tuple[int, int]]) -> list[dict]:
    """Closed-form subalgebra action against the full index-tuple sum."""
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
    singular_triple(v)
    levels = [(m, s) for m in range(1, v.n + 1) for s in range(1, m + 1)]
    labels = [
        (w, tuple(gamma_eval(v, m, s, w) for m, s in levels), canonicalize(v, Kind.REGULAR, w)[0]) for w in shifts
    ]
    failures = []
    for z, z_char, z_reg in labels:
        for w, w_char, w_reg in labels:
            same_char = z_char == w_char
            if same_char != (z_reg == w_reg):
                failures.append({"z": z.to_json(), "w": w.to_json(), "same_char": same_char})
    return failures


def check_separation(
    v: BaseVector, shifts: Sequence[Shift], sample: int | None = None, seed: int = 0
) -> list[dict]:
    """Separator recipes annihilate both tableaux at z and fix the basis
    element at w, for ordered pairs of the given labels that are not
    swap-related.

    With ``sample``, a seeded draw of that many pairs is checked, in draw
    order.  The draw is made on pair positions in z-major order; their count
    is N^2 minus the squared sizes of the swap classes, and one walk fills
    the drawn positions, so no list of all pairs is built and the draw picks
    the same pairs as sampling that list would.
    """
    singular_triple(v)
    labels = [(w, canonicalize(v, Kind.REGULAR, w)[0]) for w in shifts]
    pairs = ((z, z_reg, w) for z, z_reg in labels for w, w_reg in labels if w_reg != z_reg)
    if sample is not None:
        total = len(labels) ** 2 - sum(c * c for c in Counter(reg for _w, reg in labels).values())
        if sample < total:
            drawn = dict.fromkeys(random.Random(seed).sample(range(total), sample))
            for pos, pair in enumerate(pairs):
                if pos in drawn:
                    drawn[pos] = pair
            pairs = drawn.values()
    failures = []
    for z, reg_z, w in pairs:
        recipe = separator(v, z, w)
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
    """Triple-set size bound along generator edges out of the given keys:
    one failure per edge that fails the drop audit."""
    audit = reach_scan(v, keys, audit=True)[1].to_json()
    failures = [{"type": "violation", **e} for e in audit["violations"]]
    failures.extend({"type": "unclassified", **e} for e in audit["unclassified_drops"])
    return failures
