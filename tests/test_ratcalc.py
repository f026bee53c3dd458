import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import ratfun_oracle as oracle
from gtmodules.action import _gamma_from_entries, _row_entries
from gtmodules.ratcalc import (
    DegenerateFactor,
    Jet,
    PoleAtZero,
    rf_d_pair,
    rf_from_linear_factors,
)
from ratfun_oracle import (
    DivisionByZeroFunction,
    Poly,
    RatFun,
    RF_ONE,
    RF_ZERO,
    poly_gcd,
    rf_arith,
    rf_pole_order0,
)


def rf(num, den=(1,)):
    return RatFun(Poly(num), Poly(den))


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]).coeffs == (F(1), F(2))
        assert Poly([0, 0]).is_zero
        assert Poly().degree == -1

    def test_divmod(self):
        num = Poly([-1, 0, 1])  # t^2 - 1
        den = Poly([-1, 1])  # t - 1
        q, r = num.divmod(den)
        assert q == Poly([1, 1]) and r.is_zero

    def test_gcd_monic(self):
        a = Poly([-1, 0, 1])
        b = Poly([1, 1])
        assert poly_gcd(a, b) == Poly([1, 1])
        assert poly_gcd(a, Poly([2])) == Poly([1])


class TestArith:
    def test_add_to_constant(self):
        # t/(t+1) + 1/(t+1) = 1
        a = rf([0, 1], [1, 1])
        b = rf([1], [1, 1])
        assert rf_arith(a, b, "add") == RF_ONE

    def test_mul_inverse(self):
        # 2t * 1/(2t) = 1
        a = rf([0, 2])
        b = rf([1], [0, 2])
        assert rf_arith(a, b, "mul") == RF_ONE

    def test_reduction_cancels_factor(self):
        # (t^2 - 1)/(t - 1) = t + 1
        f = rf([-1, 0, 1], [-1, 1])
        assert f == rf([1, 1])

    def test_div_by_zero_function(self):
        with pytest.raises(DivisionByZeroFunction):
            rf_arith(RF_ONE, RF_ZERO, "div")

    def test_division_roundtrip(self):
        a = rf([1, 2], [3, 0, 1])
        b = rf([-1, 1], [2, 5])
        assert rf_arith(rf_arith(a, b, "div"), b, "mul") == a


def jet(num, den=(), sign=1):
    return rf_from_linear_factors([(F(c), m) for c, m in num], [(F(c), m) for c, m in den], sign)


class TestFromLinearFactors:
    def test_direct_construction(self):
        # -(1)(2t - 1)/(t + 1) = 1 - 3t + O(t^2)
        f = rf_from_linear_factors([(F(1), 0), (F(-1), 2)], [(F(1), 1)], sign=-1)
        assert f == Jet(0, (F(1), F(-3)))

    def test_empty_products_are_one(self):
        assert rf_from_linear_factors([], [], sign=1) == Jet(0, (F(1), F(0)))
        assert rf_from_linear_factors([], [], sign=-1) == Jet(0, (F(-1), F(0)))

    def test_matching_t_factors_cancel(self):
        # 2t / 2t = 1 with no pole materialized
        f = rf_from_linear_factors([(F(0), 2)], [(F(0), 2)], sign=1)
        assert f == Jet(0, (F(1), F(0)))

    def test_degenerate_denominator_rejected(self):
        with pytest.raises(DegenerateFactor):
            rf_from_linear_factors([], [(F(0), 0)], sign=1)

    def test_zero_numerator_factor_gives_zero(self):
        f = rf_from_linear_factors([(F(0), 0)], [(F(0), 1)], sign=1)
        assert f.coeffs == (0, 0) and rf_d_pair(f) == (0, 0)

    def test_proportional_cancellation_keeps_scalar(self):
        # (3 + 3t) / (1 + t) = 3
        f = rf_from_linear_factors([(F(3), 3)], [(F(1), 1)], sign=1)
        assert f == Jet(0, (F(3), F(0)))


class TestPoleOrder:
    def test_simple_pole(self):
        assert rf_pole_order0(rf([1], [0, 2])) == 1

    def test_no_pole(self):
        assert rf_pole_order0(rf([3, 1], [1, 1])) == 0

    def test_removable_singularity(self):
        # (2t * g) / (2t) with g(0) != 0
        g = rf([3, 1], [1, 1])
        f = rf([0, 2]) * g / rf([0, 2])
        assert rf_pole_order0(f) == 0

    def test_double_pole(self):
        assert rf_pole_order0(rf([1], [0, 0, 1])) == 2


class TestDPair:
    def test_clears_simple_zero(self):
        # pair of 2t is (0, 1): dividing out the vanishing difference
        assert rf_d_pair(jet([(0, 2)])) == (F(0), F(1))

    @pytest.mark.parametrize("a", [F(2), F(-3, 7), F(0), F(5, 2)])
    def test_symmetric_product(self, a):
        # (a + t)(a - t) is even, so the half-derivative vanishes
        f = rf_from_linear_factors([(a, 1), (a, -1)], [])
        assert rf_d_pair(f) == (a * a, F(0))

    def test_quotient_rule_value(self):
        # (3 + t)/(1 - t): value 3, derivative (1*1 + 3*1)/1 = 4, half = 2
        assert rf_d_pair(jet([(3, 1)], [(1, -1)])) == (F(3), F(2))

    def test_pole_raises(self):
        with pytest.raises(PoleAtZero):
            rf_d_pair(jet([(1, 0)], [(0, 2)]))

    def test_simple_poles_cancel_in_a_sum(self):
        # (1 + t)/t - 1/t = 1 is smooth, but its jet of order -1 ends at
        # t^0, so the t coefficient is not known
        f = jet([(1, 1)], [(0, 1)]) + jet([(1, 0)], [(0, 1)], sign=-1)
        assert f == Jet(-1, (F(0), F(1)))
        with pytest.raises(PoleAtZero):
            rf_d_pair(f)

    def test_precision_guard_below_order_minus_one(self):
        # (1 + t)/t^2 - 1/(t^2 (1 - t)) = -1/(1 - t) is smooth, but its jet of
        # order -2 ends at t^-1
        f = jet([(1, 1)], [(0, 1), (0, 1)]) + jet([], [(0, 1), (0, 1), (1, -1)], sign=-1)
        assert f == Jet(-2, (F(0), F(0)))
        with pytest.raises(PoleAtZero):
            rf_d_pair(f)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def ratfun_strategy(smooth: bool):
    def build(num_coeffs, den_coeffs, den_const):
        den = [den_const if smooth else den_coeffs[0]] + den_coeffs[1:]
        if all(c == 0 for c in den):
            den = [F(1)]
        return RatFun(Poly(num_coeffs), Poly(den))

    return st.builds(
        build,
        st.lists(rationals, min_size=1, max_size=4),
        st.lists(rationals, min_size=1, max_size=4),
        rationals.filter(lambda c: c != 0),
    )


class TestFieldProperties:
    @settings(max_examples=60, deadline=None)
    @given(ratfun_strategy(False), ratfun_strategy(False), ratfun_strategy(False))
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(ratfun_strategy(False), ratfun_strategy(False))
    def test_commutativity_and_subtraction(self, a, b):
        assert a + b == b + a
        assert a * b == b * a
        assert (a - b) + b == a


class TestDPairProperties:
    @settings(max_examples=60, deadline=None)
    @given(ratfun_strategy(True), ratfun_strategy(True), rationals, rationals)
    def test_linearity(self, f, g, alpha, beta):
        fv, fd = oracle.rf_d_pair(f)
        gv, gd = oracle.rf_d_pair(g)
        comb = f * RatFun.constant(alpha) + g * RatFun.constant(beta)
        assert oracle.rf_d_pair(comb) == (alpha * fv + beta * gv, alpha * fd + beta * gd)

    @settings(max_examples=60, deadline=None)
    @given(ratfun_strategy(True), ratfun_strategy(True))
    def test_leibniz(self, f, g):
        fv, fd = oracle.rf_d_pair(f)
        gv, gd = oracle.rf_d_pair(g)
        assert oracle.rf_d_pair(f * g) == (fv * gv, fd * gv + fv * gd)

    @settings(max_examples=60, deadline=None)
    @given(ratfun_strategy(True))
    def test_clearing_identity(self, f):
        fv, _fd = oracle.rf_d_pair(f)
        assert oracle.rf_d_pair(RatFun(Poly([0, 2])) * f) == (F(0), fv)

    @settings(max_examples=60, deadline=None)
    @given(ratfun_strategy(True))
    def test_even_part_has_zero_half_derivative(self, f):
        def flip(p):
            return Poly([c if i % 2 == 0 else -c for i, c in enumerate(p.coeffs)])

        even = f + RatFun(flip(f.num), flip(f.den))
        assert oracle.rf_d_pair(even)[1] == 0


def outcome(build, pair):
    """The pair of a built function, or the name of the error on the way."""
    try:
        return pair(build())
    except (DegenerateFactor, PoleAtZero) as exc:
        return type(exc).__name__


def random_factor(rng, zero_constant_weight=1):
    """(c, m) with c = 0 drawn at the given weight against 3, slopes in {0, +-1, +-2}."""
    zero = rng.randrange(3 + zero_constant_weight) < zero_constant_weight
    c = F(0) if zero else F(rng.randint(-6, 6), rng.randint(1, 4))
    return c, rng.choice((0, 1, -1, 2, -2))


def flipped(factors):
    return [(c, -m) for c, m in factors]


class TestJetAgainstOracle:
    """Seeded differential tests: the jet pair equals the reduced
    rational-function pair, or both routes raise the same error."""

    def test_random_factor_lists(self):
        rng = random.Random(20160)
        raised = 0
        for _ in range(3000):
            num = [random_factor(rng) for _ in range(rng.randint(0, 4))]
            den = [random_factor(rng) for _ in range(rng.randint(0, 3))]
            if rng.random() < 0.5:
                num.append((F(0), 2))  # the 2t multiplier
            sign = rng.choice((1, -1))
            got = outcome(lambda: rf_from_linear_factors(num, den, sign), rf_d_pair)
            want = outcome(lambda: oracle.rf_from_linear_factors(num, den, sign), oracle.rf_d_pair)
            assert got == want, (num, den, sign)
            raised += isinstance(got, str)
        assert 300 < raised < 2700  # both branches are exercised

    def test_sums_with_simple_poles(self):
        # a sum of order >= 0 has the oracle's pair; a sum of negative order
        # raises PoleAtZero, also where its simple poles cancel
        rng = random.Random(2008)
        smooth = raised = cancelled = 0
        for _ in range(800):
            terms, count = [], rng.randint(1, 4)
            while len(terms) < count:
                if terms and rng.random() < 0.5:
                    # the partner f(-t) of a term f with a simple pole 1/(m t)
                    # has the opposite residue, so the pair sums to a smooth function
                    num, den, sign = terms[-1]
                    terms.append((flipped(num), flipped(den), sign))
                    continue
                num = [random_factor(rng) for _ in range(rng.randint(0, 3))]
                den = [random_factor(rng, zero_constant_weight=0) for _ in range(rng.randint(0, 2))]
                if rng.random() < 0.7:
                    den.append((F(0), rng.choice((1, -1, 2, -2))))
                terms.append((num, den, rng.choice((1, -1))))

            def jet_sum():
                jets = [rf_from_linear_factors(*t) for t in terms]
                return sum(jets[1:], jets[0])

            def oracle_sum():
                total = oracle.RF_ZERO
                for t in terms:
                    total = total + oracle.rf_from_linear_factors(*t)
                return total

            got = outcome(jet_sum, rf_d_pair)
            want = outcome(oracle_sum, oracle.rf_d_pair)
            if got == "DegenerateFactor" or jet_sum().order >= 0:
                assert got == want, terms
                smooth += got != "DegenerateFactor"
            else:
                assert got == "PoleAtZero", terms
                raised += 1
                cancelled += want != "PoleAtZero"
        # both branches are exercised, the second also on smooth sums
        assert smooth > 50 and raised > 50 and cancelled > 50

    @pytest.mark.parametrize("vec", ["v_rem", "v_sing_top"])
    def test_gamma_from_entries(self, request, win3, vec):
        v = request.getfixturevalue(vec)
        for z in win3.shifts():
            for r in range(1, v.n + 1):
                entries = _row_entries(v, z, r)
                for power in range(1, r + 1):
                    total = oracle.RF_ZERO
                    for idx, (ci, mi) in enumerate(entries):
                        others = [e for jdx, e in enumerate(entries) if jdx != idx]
                        num = [(ci + r - 1, mi)] * power + [(ci - cj - 1, mi - mj) for cj, mj in others]
                        den = [(ci - cj, mi - mj) for cj, mj in others]
                        total = total + oracle.rf_from_linear_factors(num, den)
                    assert _gamma_from_entries(entries, power) == oracle.rf_d_pair(total)

    def test_gamma_from_entries_random_rows(self):
        # rows of gl(1)..gl(5) with distinct entries, some with a deformed
        # coincident pair c + t, c - t, against the defining sum; the same
        # row with the pair undeformed must give the same value, since the
        # eigenvalue is a polynomial in the entries
        rng = random.Random(1612)
        coincident = 0
        for _ in range(400):
            r = rng.randint(1, 5)
            values = rng.sample(sorted({F(a, b) for a in range(-6, 7) for b in (1, 3, 7)}), r)
            slopes = [0] * r
            if r >= 2 and rng.random() < 0.5:
                i, j = rng.sample(range(r), 2)
                values[j], slopes[i], slopes[j] = values[i], 1, -1
            entries = tuple(zip(values, slopes))
            power = rng.randint(1, r)
            total = oracle.RF_ZERO
            for idx, (ci, mi) in enumerate(entries):
                others = [e for jdx, e in enumerate(entries) if jdx != idx]
                num = [(ci + r - 1, mi)] * power + [(ci - cj - 1, mi - mj) for cj, mj in others]
                den = [(ci - cj, mi - mj) for cj, mj in others]
                total = total + oracle.rf_from_linear_factors(num, den)
            value, half = _gamma_from_entries(entries, power)
            assert (value, half) == oracle.rf_d_pair(total), entries
            if any(slopes):
                coincident += 1
                flat = tuple((c, 0) for c in values)
                assert _gamma_from_entries(flat, power) == (value, 0)
        assert coincident > 100
