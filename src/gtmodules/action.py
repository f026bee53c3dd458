"""Generator and subalgebra actions on the three tableau module families.

The classical tableau formulas act on the finite-dimensional family (with
non-standard targets dropped) and, unfiltered, on the generic family.  In
the one-singular family every summand coefficient is deformed along the
line through the singular pair, with the slopes that the ``BaseVector``
docstring states and ``deformed_rows`` keeps; the regular-tableau action
multiplies by the vanishing difference (realized as 2t) first, and the
exact (value, half-derivative) pair at t = 0 then supplies the
derivative-tableau cross terms.

The commuting subalgebra acts in closed form through the symmetric
rational eigenvalue functions; the power-sum realization over all index
tuples is kept alongside as an independent cross-check route.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain, product
from typing import Iterator

from .ratcalc import Jet, rf_d_pair, rf_from_linear_factors
from .tableau import (
    BaseVector,
    Family,
    Kind,
    Shift,
    TabKey,
    canonicalize,
    is_standard,
    singular_triple,
)

__all__ = [
    "NotStandard",
    "ModVec",
    "coeff_e",
    "act_e",
    "apply_e",
    "act_gamma",
    "gamma_eval",
    "gamma_dvbar",
    "apply_casimir_pbw",
    "weight_eigenvalue",
]

_ZERO = Fraction(0)


class NotStandard(ValueError):
    """A finite-family action was requested on a non-standard tableau."""


class ModVec:
    """Finitely supported exact linear combination of basis keys.

    Never stores zero coefficients.  Treated as immutable: all operations
    return fresh instances.
    """

    __slots__ = ("_terms",)

    def __init__(self, pairs=()):
        """Sum (key, coefficient) pairs.

        This is the one fold that builds every vector.  Zero coefficients
        are skipped; a key seen first stores the given coefficient object;
        a key whose sum cancels is removed and, if seen again, goes to the
        end.  The library passes only ``Fraction`` coefficients.
        """
        terms: dict[TabKey, Fraction] = {}
        for key, coeff in pairs:
            if not coeff:
                continue
            old = terms.get(key)
            if old is None:
                terms[key] = coeff
            elif new := old + coeff:
                terms[key] = new
            else:
                del terms[key]
        self._terms = terms

    @classmethod
    def single(cls, key: TabKey, coeff: Fraction | int = 1) -> "ModVec":
        return cls([(key, Fraction(coeff))])

    def items(self) -> Iterator[tuple[TabKey, Fraction]]:
        return iter(self._terms.items())

    def coeff(self, key: TabKey) -> Fraction:
        return self._terms.get(key, _ZERO)

    def support(self):
        return self._terms.keys()

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, ModVec) and self._terms == other._terms

    def __hash__(self):
        raise TypeError("ModVec is not hashable")

    def __add__(self, other: "ModVec") -> "ModVec":
        return ModVec(chain(self._terms.items(), other._terms.items()))

    def __sub__(self, other: "ModVec") -> "ModVec":
        return ModVec(chain(self._terms.items(), ((k, -x) for k, x in other._terms.items())))

    def scale(self, c: Fraction | int) -> "ModVec":
        c = Fraction(c)
        return ModVec((k, c * x) for k, x in self._terms.items())

    def __repr__(self) -> str:
        if not self._terms:
            return "ModVec()"
        parts = [f"{c}*{k.kind.value}{[list(r) for r in k.shift.rows]}" for k, c in self._terms.items()]
        return "ModVec(" + " + ".join(parts) + ")"


def _row_entries(v: BaseVector, z: Shift, r: int) -> tuple[tuple[Fraction, int], ...]:
    """Row r of the shifted tableau as deformed entries (c, m) = c + m t,
    with the slopes of ``BaseVector.deformed_rows``; row 0 is empty."""
    return tuple((c + z.get(r, s), m) for s, (c, m) in enumerate(v.deformed_rows[r - 1] if r else (), start=1))


def weight_eigenvalue(v: BaseVector, r: int, z: Shift) -> Fraction:
    """Diagonal eigenvalue of E_rr on the tableau shifted by z: r - 1 plus
    the row-r sum minus the row-(r-1) sum of the shifted tableau."""
    upper = v.row_sums[r - 1] + (sum(z.rows[r - 1]) if r < v.n else 0)
    lower = v.row_sums[r - 2] + sum(z.rows[r - 2]) if r > 1 else 0
    return r - 1 + upper - lower


def _summand_spec(l: int, m: int) -> tuple[int, int]:
    """(shifted row, direction) for the off-diagonal generator E_{lm}."""
    if m == l + 1:
        return l, 1
    if l == m + 1:
        return m, -1
    raise ValueError(f"E({l},{m}) is not a raising or lowering generator E(r,r+1) or E(r+1,r)")


def coeff_e(v: BaseVector, l: int, m: int, s0: int, z: Shift) -> Jet:
    """Coefficient of the s0-th summand of the E_{lm} tableau formula at v+z.

    For E_{r,r+1} this is minus the product of differences against row r+1
    over the product of in-row differences, with the distinguished entry at
    (r, s0); for E_{r+1,r} the numerator runs over row r-1.  In the
    one-singular family the factors are linear in t; otherwise they are
    constants and a vanishing denominator difference raises DegenerateFactor.
    """
    r, direction = _summand_spec(l, m)
    if not (1 <= s0 <= r):
        raise ValueError(f"summand index {s0} out of range for row {r}")
    # Entry by entry: two row tuples per call cost 0.45 MB peak RSS on generic4-structure.
    nb = r + direction  # the neighbouring row of the numerator; row 0 is empty
    row, nb_row = v.deformed_rows[r - 1], v.deformed_rows[nb - 1] if nb else ()
    a, ma = row[s0 - 1]
    a += z.get(r, s0)
    num = [(a - (b + z.get(nb, u)), ma - mb) for u, (b, mb) in enumerate(nb_row, start=1)]
    den = [(a - (b + z.get(r, u)), ma - mb) for u, (b, mb) in enumerate(row, start=1) if u != s0]
    return rf_from_linear_factors(num, den, -direction)


def _summands(v: BaseVector, r: int, s: int, key: TabKey) -> Iterator[tuple[int, Kind, TabKey, Fraction]]:
    """Nonzero summands (s0, component kind, canonical target, signed
    coefficient) of E_{rs}, |r-s| = 1, on key.

    The finite and generic families read the undeformed coefficient, and
    the finite family drops targets that are not standard.  In the
    one-singular family a regular input multiplies the t-deformed summand
    by 2t (the vanishing singular difference) and a derivative input takes
    it as is, smooth because the canonical derivative shift keeps the
    singular entries apart; the half-derivative at zero then lands on the
    regular target and the value at zero on the derivative target, which
    are canonicalized with their sign (swap-fixed derivative targets are
    zero).
    """
    family = v.family
    singular = family is Family.ONE_SINGULAR
    z = key.shift
    row, direction = _summand_spec(r, s)
    for s0 in range(1, row + 1):
        target = z.bump(row, s0, direction)
        jet = coeff_e(v, r, s, s0, z)
        if not singular:  # undeformed: the jet is the constant coeffs[0]
            coeff = jet.coeffs[0]
            if coeff and (family is not Family.FINITE_STANDARD or is_standard(v, target)):
                yield s0, Kind.REGULAR, TabKey(target, Kind.REGULAR), coeff
            continue
        if key.kind is Kind.REGULAR:  # times 2t
            jet = Jet(jet.order + 1, tuple(2 * c for c in jet.coeffs))
        value, half = rf_d_pair(jet)
        for kind, coeff in ((Kind.REGULAR, half), (Kind.DERIVATIVE, value)):
            if coeff:
                tkey, sg = canonicalize(v, kind, target)
                if sg:
                    yield s0, kind, tkey, -coeff if sg < 0 else coeff


def _check_key(v: BaseVector, key: TabKey) -> None:
    """Raise NotStandard for a non-standard tableau of the finite family and
    ValueError for a derivative key outside the one-singular family
    (canonicalize's error) or a swap-fixed one."""
    if key.kind is Kind.DERIVATIVE and not canonicalize(v, key.kind, key.shift)[1]:
        raise ValueError("swap-fixed derivative labels are zero and not basis keys")
    if v.family is Family.FINITE_STANDARD and not is_standard(v, key.shift):
        raise NotStandard("input tableau is not standard")


@lru_cache(maxsize=None)
def _label(v: BaseVector, key: TabKey) -> TabKey:
    """The first key object seen equal to key: every generator result
    names a basis label through this one object, not a copy per term."""
    return key


@lru_cache(maxsize=None)
def act_e(v: BaseVector, r: int, s: int, key: TabKey) -> ModVec:
    """Raising or lowering generator E_{rs}, |r-s| = 1, on one basis key;
    a key that is not a basis key raises as in :func:`_check_key`."""
    _check_key(v, key)
    return ModVec((_label(v, tkey), coeff) for _s0, _kind, tkey, coeff in _summands(v, r, s, key))


def _apply_key(v: BaseVector, i: int, j: int, key: TabKey) -> ModVec:
    """E_ij, |i-j| <= 1, on one key.  The diagonal E_ii is the weight times
    the key, written through its canonical label and sign; act_e holds
    |i-j| = 1, and nothing else is cached."""
    if i == j:
        _check_key(v, key)
        tkey, sg = canonicalize(v, key.kind, key.shift)
        return ModVec.single(_label(v, tkey), sg * weight_eigenvalue(v, i, key.shift))
    return act_e(v, i, j, key)


@lru_cache(maxsize=0)
def _apply_e_key(v: BaseVector, i: int, j: int, vec: ModVec) -> ModVec:
    """E_ij on a whole vector for |i-j| >= 2 by the nested commutator route:
    E_ij = [E_iq, E_qj] with q between i and j.  The choice q = min + 1 is
    fixed for determinism; independence of the choice is property-tested,
    not assumed.  Each inner result is one folded vector before the next
    generator acts on it.  maxsize=0 stores and hashes nothing and counts
    every fold as a miss."""
    q = min(i, j) + 1
    return _apply_vec(v, i, q, _apply_vec(v, q, j, vec)) - _apply_vec(v, q, j, _apply_vec(v, i, q, vec))


def _apply_vec(v: BaseVector, i: int, j: int, vec: ModVec) -> ModVec:
    if abs(i - j) >= 2:
        return _apply_e_key(v, i, j, vec)
    return ModVec((key2, c * c2) for key, c in vec.items() for key2, c2 in _apply_key(v, i, j, key).items())


def apply_e(v: BaseVector, i: int, j: int, vec: ModVec) -> ModVec:
    """Action of any matrix unit E_ij, extended linearly to combinations.

    For |i-j| >= 2 the action is the recursive commutator through the fixed
    intermediate index min(i, j) + 1.  Indices outside 1..n raise ValueError.
    """
    if not (1 <= i <= v.n and 1 <= j <= v.n):
        raise ValueError(f"E({i},{j}) needs indices in 1..{v.n}")
    return _apply_vec(v, i, j, vec)


def apply_casimir_pbw(v: BaseVector, m: int, k: int, vec: ModVec) -> ModVec:
    """Central element of level (m, k) as the full sum over index tuples.

    Sums E_{i1 i2} E_{i2 i3} ... E_{ik i1} over all m^k tuples, composing
    right to left.  Deliberately formula-free: used as an independent
    oracle against the closed-form subalgebra action.
    """
    if not (1 <= k <= m <= v.n):
        raise ValueError("need 1 <= k <= m <= n")

    def tuple_terms():
        for idx in product(range(1, m + 1), repeat=k):
            cur = vec
            for a in reversed(range(k)):
                cur = _apply_vec(v, idx[a], idx[(a + 1) % k], cur)
                if cur.is_zero:
                    break
            yield from cur.items()

    return ModVec(tuple_terms())


@lru_cache(maxsize=None)
def _gamma_from_entries(
    entries: tuple[tuple[Fraction, int], ...], power: int
) -> tuple[Fraction, Fraction]:
    """(value, half-derivative) at t = 0 of the symmetric eigenvalue sum.

    The sum over i of y_i^power prod_{j != i} (y_i - y_j - 1)/(y_i - y_j),
    with y = e + r - 1 and e = c + m t, is minus the w^(power+1)
    coefficient of prod_j (1 - (y_j + 1) w)/(1 - y_j w) (partial fractions
    in w).  Each factor is 1 - w/(1 - y_j w), so the truncated series is
    built over (value, t-derivative) pairs with no division by entry
    differences: coincident entries, deformed or not, need no limit.
    """
    top = power + 1
    vals, ders = [Fraction(1)] + [_ZERO] * top, [_ZERO] * (top + 1)
    for c, m in entries:
        # S -= T, T = S w/(1 - y w): T_k = S_(k-1) + y T_(k-1) on the old S,
        # which is the new S_(k-1) + (y + 1) T_(k-1)
        y1 = c + len(entries)
        tv = td = _ZERO
        for k in range(1, top + 1):
            tv, td = vals[k - 1] + y1 * tv, ders[k - 1] + y1 * td + m * tv
            vals[k] -= tv
            ders[k] -= td
    return -vals[top], -ders[top] / 2


# Every module-level memo cache of the package.  All are keyed on values of
# one base vector, so the CLI empties them before each command.  The tuple
# holds the cache objects themselves: a wrapper rebound over a module name
# later (a tracer, a mock) must not hide a cache from the reset.
# _apply_e_key stores nothing; it is listed so that its counts reset too.
_MEMO_CACHES = (_label, act_e, _apply_e_key, _gamma_from_entries)


def _clear_memo_caches() -> None:
    """Empty every memo cache; this also resets its hit and miss counts."""
    for cache in _MEMO_CACHES:
        cache.cache_clear()


def gamma_eval(v: BaseVector, r: int, s: int, z: Shift) -> Fraction:
    """Exact subalgebra eigenvalue of level (r, s) at the shifted tableau."""
    if not (1 <= s <= r <= v.n):
        raise ValueError("need 1 <= s <= r <= n")
    return _gamma_from_entries(_row_entries(v, z, r), s)[0]


def gamma_dvbar(v: BaseVector, r: int, s: int, z: Shift) -> Fraction:
    """Half-difference derivative of the eigenvalue function at the shifted
    tableau; zero whenever the function is symmetric in the deformed pair
    or does not involve row k at all."""
    singular_triple(v)
    if not (1 <= s <= r <= v.n):
        raise ValueError("need 1 <= s <= r <= n")
    return _gamma_from_entries(_row_entries(v, z, r), s)[1]


def act_gamma(
    v: BaseVector,
    r: int,
    s: int,
    target: TabKey | ModVec,
    shift: Shift | None = None,
) -> ModVec:
    """Closed-form action of the commuting generator of level (r, s).

    Diagonal on regular keys; on derivative keys it adds the regular
    correction term weighted by the eigenvalue derivative.  A key need not
    be a canonical label: both terms are written through the canonical key
    with its sign.  With ``shift`` given, acts by the recentred element
    (generator minus its eigenvalue at that shift), which annihilates the
    tableaux living there.
    """
    vec = target if isinstance(target, ModVec) else ModVec.single(target)
    offset = gamma_eval(v, r, s, shift) if shift is not None else None

    def terms():
        for key, c in vec.items():
            g = gamma_eval(v, r, s, key.shift)
            if offset is not None:
                g -= offset
            tkey, sg = canonicalize(v, key.kind, key.shift)
            yield tkey, c * g * sg
            if key.kind is Kind.DERIVATIVE:
                dg = gamma_dvbar(v, r, s, key.shift)
                if dg:
                    tkey, sg = canonicalize(v, Kind.REGULAR, key.shift)
                    yield tkey, c * dg * sg

    return ModVec(terms())
