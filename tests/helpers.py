"""Small helpers that only the tests call; the library does not carry them."""

from gtmodules.action import _summand_spec
from gtmodules.ratcalc import Jet, rf_from_linear_factors
from gtmodules.tableau import BaseVector, Shift, singular_triple


def tau(v: BaseVector, w: Shift) -> Shift:
    """The involution exchanging the two singular positions of row k."""
    k, i, j = singular_triple(v)
    return w.swap(k, i, j)


def anchor_index(v: BaseVector, r: int, s: int) -> int:
    """The anchor carried by position (r, s)."""
    return v.assignment[r - 1][s - 1]


def old_entry(v: BaseVector, r: int, s: int):
    """entry(r, s) summed from its anchor and offset on each call, as before
    the base vector kept its deformed rows."""
    return v.anchors[v.assignment[r - 1][s - 1]] + v.offsets[r - 1][s - 1]


def old_slopes(singular: tuple[int, int, int] | None, r: int) -> list[int]:
    """Slope of the deformation variable at each position of row r (index
    s - 1): +t at (k, i), -t at (k, j) of the singular triple, else none."""
    out = [0] * r
    if singular is not None and singular[0] == r:
        out[singular[1] - 1], out[singular[2] - 1] = 1, -1
    return out


def old_deformed_rows(v: BaseVector) -> tuple:
    """Every row as (entry, slope) pairs, built per row as the action built
    them before the base vector kept them."""
    return tuple(
        tuple((old_entry(v, r, s), m) for s, m in enumerate(old_slopes(v.classification.singular, r), start=1))
        for r in range(1, v.n + 1)
    )


def old_coeff_e(v: BaseVector, l: int, m: int, s0: int, z: Shift) -> Jet:
    """The coeff_e body that summed each entry and built both slope lists
    on every call."""
    r, direction = _summand_spec(l, m)
    nb = r + direction
    singular = v.classification.singular
    row_m, nb_m = old_slopes(singular, r), old_slopes(singular, nb)
    a = old_entry(v, r, s0) + z.get(r, s0)
    ma = row_m[s0 - 1]
    num = [(a - (old_entry(v, nb, u) + z.get(nb, u)), ma - nb_m[u - 1]) for u in range(1, nb + 1)]
    den = [(a - (old_entry(v, r, u) + z.get(r, u)), ma - row_m[u - 1]) for u in range(1, r + 1) if u != s0]
    return rf_from_linear_factors(num, den, -direction)


def weyl_dimension(weight) -> int:
    """Independent oracle: product formula over positive roots."""
    lam = list(weight)
    n = len(lam)
    num = 1
    den = 1
    for i in range(n):
        for j in range(i + 1, n):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    assert num % den == 0
    return num // den
