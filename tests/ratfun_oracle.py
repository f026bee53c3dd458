"""The reduced rational-function calculus in t, kept as a test oracle.

This is the exact field arithmetic (dense polynomials, Euclidean gcd,
reduced fractions with a monic denominator) that the library used before
coefficients became truncated Laurent jets.  Tests compare the jet pair
``(f(0), f'(0)/2)`` of ``gtmodules.ratcalc`` against it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from gtmodules.ratcalc import DegenerateFactor, PoleAtZero, Rat


class DivisionByZeroFunction(ZeroDivisionError):
    """Division by the identically-zero rational function."""


def _as_rat(value) -> Rat:
    return value if isinstance(value, Fraction) else Fraction(value)


class Poly:
    """Dense univariate polynomial with exact rational coefficients.

    Coefficients are stored lowest degree first with trailing zeros trimmed,
    so the zero polynomial is the empty tuple and the leading coefficient is
    otherwise nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat | int] = ()):
        cs = [_as_rat(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the convention that the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    def scale(self, c: Rat) -> "Poly":
        c = _as_rat(c)
        if not c:
            return Poly()
        return Poly(c * a for a in self.coeffs)

    def __call__(self, x: Rat) -> Rat:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def deriv(self) -> "Poly":
        return Poly(i * c for i, c in enumerate(self.coeffs) if i > 0)

    def monic(self) -> "Poly":
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        return self.scale(1 / self.coeffs[-1])

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        quot = [Fraction(0)] * max(len(self.coeffs) - len(other.coeffs) + 1, 0)
        rem = list(self.coeffs)
        dlead = other.coeffs[-1]
        dlen = len(other.coeffs)
        while len(rem) >= dlen:
            c = rem[-1] / dlead
            k = len(rem) - dlen
            quot[k] = c
            for i, d in enumerate(other.coeffs):
                rem[k + i] -= c * d
            while rem and not rem[-1]:
                rem.pop()
        return Poly(quot), Poly(rem)


POLY_ZERO = Poly()
POLY_ONE = Poly([1])


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm over exact rationals."""
    while not b.is_zero:
        a, b = b, a.divmod(b)[1]
    return a.monic()


class RatFun:
    """Reduced rational function num/den in the deformation variable t.

    Invariants: den is nonzero and monic, gcd(num, den) = 1, and the zero
    function is stored as 0/1.  Instances are immutable and hashable; all
    arithmetic returns new reduced values.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = num if isinstance(num, Poly) else Poly([num] if not isinstance(num, (list, tuple)) else num)
        if den is None:
            den = POLY_ONE
        else:
            den = den if isinstance(den, Poly) else Poly([den] if not isinstance(den, (list, tuple)) else den)
        if den.is_zero:
            raise DivisionByZeroFunction("denominator is the zero polynomial")
        if num.is_zero:
            object.__setattr__(self, "num", POLY_ZERO)
            object.__setattr__(self, "den", POLY_ONE)
            return
        g = poly_gcd(num, den)
        if g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.coeffs[-1]
        if lead != 1:
            den = den.scale(1 / lead)
            num = num.scale(1 / lead)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFun is immutable")

    @classmethod
    def constant(cls, c: Rat | int) -> "RatFun":
        return cls(Poly([c]))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFun) and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFun({self.num!r}, {self.den!r})"

    def __add__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFun":
        return RatFun(-self.num, self.den)

    def __mul__(self, other: "RatFun") -> "RatFun":
        return RatFun(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFun") -> "RatFun":
        if other.is_zero:
            raise DivisionByZeroFunction("division by the zero function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "RatFun":
        if k < 0:
            return RF_ONE / (self ** (-k))
        out = RF_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __call__(self, x: Rat) -> Rat:
        d = self.den(x)
        if d == 0:
            raise PoleAtZero(f"pole at t = {x}")
        return self.num(x) / d


RF_ZERO = RatFun(POLY_ZERO)
RF_ONE = RatFun(POLY_ONE)
RF_T = RatFun(Poly([0, 1]))


def rf_arith(a: RatFun, b: RatFun, op: str) -> RatFun:
    """Field arithmetic on reduced rational functions.

    op is one of 'add', 'sub', 'mul', 'div'; division by the zero function
    raises DivisionByZeroFunction.
    """
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def rf_from_linear_factors(
    factors_num: Sequence[tuple[Rat, int]],
    factors_den: Sequence[tuple[Rat, int]],
    sign: int = 1,
) -> RatFun:
    """Build sign * prod(c + m t) / prod(c' + m' t), fully reduced.

    Empty products are 1.  Proportional numerator/denominator factor pairs
    are cancelled before multiplying out, so matching t-factors never
    materialize a pole; a final gcd pass catches any remaining common
    divisor.  A denominator factor with c = 0 and m = 0 is rejected.
    """
    num = [(_as_rat(c), m) for c, m in factors_num]
    den = []
    for c, m in factors_den:
        c = _as_rat(c)
        if c == 0 and m == 0:
            raise DegenerateFactor("identically zero factor in denominator")
        den.append((c, m))
    if any(c == 0 and m == 0 for c, m in num):
        return RF_ZERO

    scalar = Fraction(sign)
    remaining_den = []
    for c, m in den:
        for idx, (c2, m2) in enumerate(num):
            # (c2, m2) proportional to (c, m) means the factors differ by a
            # nonzero scalar; identically-zero numerator factors were
            # handled above, so rho is never zero here.
            if c2 * m == c * m2:
                rho = c2 / c if c else Fraction(m2, m)
                scalar *= rho
                del num[idx]
                break
        else:
            remaining_den.append((c, m))

    num_poly = POLY_ONE
    for c, m in num:
        num_poly = num_poly * Poly([c, m])
    den_poly = POLY_ONE
    for c, m in remaining_den:
        den_poly = den_poly * Poly([c, m])
    return RatFun(num_poly.scale(scalar), den_poly)


def rf_pole_order0(f: RatFun) -> int:
    """Multiplicity of t = 0 as a root of the (reduced) denominator."""
    order = 0
    for c in f.den.coeffs:
        if c:
            break
        order += 1
    return order


def rf_d_pair(f: RatFun) -> tuple[Rat, Rat]:
    """Return (f(0), f'(0)/2) exactly.

    Raises PoleAtZero when f is not finite at t = 0, which signals a
    formula applied outside its smoothness domain.
    """
    if rf_pole_order0(f) != 0:
        raise PoleAtZero("function has a pole at t = 0")
    n0 = f.num(Fraction(0))
    d0 = f.den(Fraction(0))
    value = n0 / d0
    deriv = (f.num.deriv()(Fraction(0)) * d0 - n0 * f.den.deriv()(Fraction(0))) / (d0 * d0)
    return value, deriv / 2
