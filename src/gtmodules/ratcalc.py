"""Exact rational numbers and truncated Laurent jets at t = 0.

Scalars are ``fractions.Fraction`` (aliased ``Rat``).  Every coefficient
in the tableau formulas is a signed product and quotient of linear factors
c + m t in the deformation variable t, and the actions read only its pair
``(f(0), f'(0)/2)``.  A :class:`Jet` ``t^order (a0 + a1 t + a2 t^2)``
carries exactly that; the t^2 coefficient lets a sum whose terms have
simple poles cancel them and keep its half-derivative.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

Rat = Fraction

__all__ = [
    "Rat", "Jet", "DegenerateFactor", "PoleAtZero",
    "rf_from_linear_factors", "rf_d_pair", "parse_rat", "format_rat",
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


def format_rat(x: Rat) -> str:
    return str(x)


class Jet(NamedTuple):
    """t^order (a0 + a1 t + a2 t^2) + O(t^(order + 3)), exactly.  The only
    operation is +, which keeps the lower order and that summand's precision."""

    order: int
    coeffs: tuple[Rat, Rat, Rat]

    def __add__(self, other: "Jet") -> "Jet":
        lo, hi = (self, other) if self.order <= other.order else (other, self)
        gap = hi.order - lo.order
        out = list(lo.coeffs)
        for idx in range(gap, 3):
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
    the normalised series 1 + s1 t + s2 t^2.  A denominator factor with
    c = 0 and m = 0 is rejected; such a numerator factor gives zero.
    """
    scalar = Fraction(sign)
    order = s1 = s2 = 0
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
                s1, s2 = s1 - u, s2 - u * s1 + u * u
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
            s1, s2 = s1 + u, s2 + u * s1
    if not scalar:
        order = 0  # an exact zero has no pole
    return Jet(order, (scalar, scalar * s1, scalar * s2) if s1 or s2 else (scalar, _ZERO, _ZERO))


def rf_d_pair(f: Jet) -> tuple[Rat, Rat]:
    """Return (f(0), f'(0)/2) exactly.

    Raises PoleAtZero when a negative power of t has a nonzero coefficient,
    or when the t coefficient lies past the jet's precision (order < -1);
    either signals a formula applied outside its smoothness domain.
    """
    order, coeffs = f.order, f.coeffs
    if order < -1:
        raise PoleAtZero("t coefficient lies past the jet's precision")
    if order == -1:
        if coeffs[0]:
            raise PoleAtZero("function has a pole at t = 0")
        coeffs = coeffs[1:]
    else:
        coeffs = (_ZERO,) * min(order, 2) + coeffs
    return coeffs[0], coeffs[1] / 2
