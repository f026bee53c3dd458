"""Exact rational numbers and truncated Laurent jets at t = 0.

Scalars are ``fractions.Fraction`` (aliased ``Rat``).  Every coefficient
in the tableau formulas is a signed product and quotient of linear factors
c + m t in the deformation variable t, and the actions read only its pair
``(f(0), f'(0)/2)``.  A :class:`Jet` ``t^order (a0 + a1 t)`` carries
exactly that, so the pair is read only from a jet with no pole.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

Rat = Fraction

__all__ = [
    "Rat", "Jet", "DegenerateFactor", "PoleAtZero",
    "rf_from_linear_factors", "rf_d_pair", "parse_rat",
]

_ZERO = Fraction(0)


class DegenerateFactor(ValueError):
    """A linear factor that is identically zero where that is forbidden."""


class PoleAtZero(ArithmeticError):
    """The function has a pole at t = 0 where a finite value was required."""


def parse_rat(text: str) -> Rat:
    """Parse an exact rational from a 'p' or 'p/q' string; ValueError names
    the value when it is not a string, is malformed or has a zero
    denominator."""
    if not isinstance(text, str):
        raise ValueError(f"expected a rational 'p/q' string, got {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


class Jet(NamedTuple):
    """t^order (a0 + a1 t) + O(t^(order + 2)), exactly.  The only operation
    is +, which keeps the lower order and that summand's precision."""

    order: int
    coeffs: tuple[Rat, Rat]

    def __add__(self, other: "Jet") -> "Jet":
        lo, hi = (self, other) if self.order <= other.order else (other, self)
        gap = hi.order - lo.order
        out = list(lo.coeffs)
        for idx in range(gap, 2):
            out[idx] += hi.coeffs[idx - gap]
        return Jet(lo.order, tuple(out))


def rf_from_linear_factors(
    factors_num: Sequence[tuple[Rat, int]],
    factors_den: Sequence[tuple[Rat, int]],
    sign: int = 1,
) -> Jet:
    """Jet at t = 0 of sign * prod(c + m t) / prod(c' + m' t).

    Empty products are 1.  A factor with m = 0 only scales and one with
    c = 0 only scales and moves the order; the rest, c (1 + u t), multiply
    the normalised series 1 + s1 t.  A denominator factor with
    c = 0 and m = 0 is rejected; such a numerator factor gives zero.
    """
    scalar = Fraction(sign)
    order = s1 = 0
    try:
        for c, m in factors_den:
            if not m:
                scalar /= c
            elif not c:
                order -= 1
                scalar /= m
            else:
                u = Fraction(m) / c
                scalar /= c
                s1 -= u
    except ZeroDivisionError:
        raise DegenerateFactor("identically zero factor in denominator") from None
    for c, m in factors_num:
        if not m:
            scalar *= c
        elif not c:
            order += 1
            scalar *= m
        else:
            u = Fraction(m) / c
            scalar *= c
            s1 += u
    if not scalar:
        order = 0  # an exact zero has no pole
    return Jet(order, (scalar, scalar * s1 if s1 else _ZERO))


def rf_d_pair(f: Jet) -> tuple[Rat, Rat]:
    """Return (f(0), f'(0)/2) exactly.

    Raises PoleAtZero for a negative order, which signals a formula applied
    outside its smoothness domain; a sum whose simple poles cancel raises
    too, since its t coefficient lies past the jet's precision.
    """
    order, (a0, a1) = f
    if order < 0:
        raise PoleAtZero("function has a pole at t = 0")
    if order == 0:
        return a0, a1 / 2
    return _ZERO, a0 / 2 if order == 1 else _ZERO
