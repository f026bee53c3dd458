"""Small helpers that only the tests call; the library does not carry them."""

from gtmodules.tableau import BaseVector, Shift, singular_triple


def tau(v: BaseVector, w: Shift) -> Shift:
    """The involution exchanging the two singular positions of row k."""
    k, i, j = singular_triple(v)
    return w.swap(k, i, j)


def anchor_index(v: BaseVector, r: int, s: int) -> int:
    """The anchor carried by position (r, s)."""
    return v.assignment[r - 1][s - 1]


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
