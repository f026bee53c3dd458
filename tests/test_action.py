from fractions import Fraction as F

import pytest

from gtmodules.action import (
    ModVec,
    NotStandard,
    _apply_key,
    _check_key,
    _clear_memo_caches,
    _label,
    _row_entries,
    act_e,
    apply_e,
    coeff_e,
    weight_eigenvalue,
)
from gtmodules.ratcalc import DegenerateFactor, rf_d_pair
from gtmodules.structure import Window
from gtmodules.tableau import BaseVector, Family, Kind, Shift, TabKey, canonicalize, is_standard

from helpers import old_coeff_e, old_deformed_rows, old_entry, tau


def key(n, rows, kind=Kind.REGULAR):
    return TabKey(Shift(n, tuple(tuple(r) for r in rows)), kind)


def single(n, rows, kind=Kind.REGULAR):
    return ModVec.single(key(n, rows, kind))


class TestFiniteGl2:
    """Hand-computed table for the two-dimensional module with top row (1, -1)."""

    def test_raising_chain(self, v_fin2):
        assert act_e(v_fin2, 1, 2, key(2, [(0,)])) == single(2, [(1,)])
        assert act_e(v_fin2, 1, 2, key(2, [(1,)])).is_zero

    def test_lowering_chain(self, v_fin2):
        assert act_e(v_fin2, 2, 1, key(2, [(1,)])) == single(2, [(0,)])
        # coefficient of the summand is 1 (empty products) but the target is
        # dropped because it is not standard
        assert act_e(v_fin2, 2, 1, key(2, [(0,)])).is_zero

    def test_diagonal_eigenvalues(self, v_fin2):
        assert apply_e(v_fin2, 1, 1, single(2, [(0,)])).is_zero
        assert apply_e(v_fin2, 1, 1, single(2, [(1,)])) == single(2, [(1,)])
        assert apply_e(v_fin2, 2, 2, single(2, [(0,)])) == single(2, [(0,)])
        assert apply_e(v_fin2, 2, 2, single(2, [(1,)])).is_zero

    def test_not_standard_input_rejected(self, v_fin2):
        with pytest.raises(NotStandard):
            act_e(v_fin2, 1, 2, key(2, [(-1,)]))


@pytest.mark.parametrize(
    "vector, rows, kind, error, message",
    [
        ("v_fin2", [(0,)], Kind.DERIVATIVE, ValueError, "only in the one-singular family"),
        ("v_gen3", [(0,), (1, 0)], Kind.DERIVATIVE, ValueError, "only in the one-singular family"),
        ("v_fin2", [(-1,)], Kind.REGULAR, NotStandard, "not standard"),
        ("v_rem", [(0,), (1, 1)], Kind.DERIVATIVE, ValueError, "swap-fixed"),
    ],
)
def test_act_e_validates_input(request, vector, rows, kind, error, message):
    v = request.getfixturevalue(vector)
    with pytest.raises(error, match=message):
        act_e(v, 1, 2, key(v.n, rows, kind))


@pytest.mark.parametrize("i, j", [(0, 1), (0, 0), (4, 4), (1, 4)])
def test_apply_e_rejects_indices_outside_1_to_n(v_rem, i, j):
    with pytest.raises(ValueError, match=r"indices in 1\.\.3"):
        apply_e(v_rem, i, j, single(3, [(0,), (0, 0)]))


class TestCoeffE:
    def test_gl2_raising_coefficient(self, v_fin2):
        # top row (1, -1), entry 0: -(0-1)(0+1) = 1
        rf = coeff_e(v_fin2, 1, 2, 1, Shift.zero(2))
        assert rf_d_pair(rf) == (F(1), F(0))

    def test_diagonal_is_not_a_summand_generator(self, v_gen3):
        # the diagonal acts by weight_eigenvalue, not by a summand formula
        with pytest.raises(ValueError, match="not a raising or lowering generator"):
            coeff_e(v_gen3, 2, 2, 1, Shift.zero(3))

    def test_singular_denominator_carries_2t(self, v_rem):
        # z with equal singular components: in-row difference becomes 2t
        z = Shift.zero(3)
        jet = coeff_e(v_rem, 2, 3, 1, z)
        assert jet.order == -1

    def test_nondeformed_degenerate_raises(self, v_fin3_210):
        # row 2 of the finite vector is (0, 0) at the zero shift, and outside
        # the one-singular family no t separates the two entries
        with pytest.raises(DegenerateFactor):
            coeff_e(v_fin3_210, 2, 3, 1, Shift.zero(3))


class TestGeneric:
    def test_diagonal_eigenvalue_formula(self, v_gen3):
        z = Shift(3, ((1,), (0, 2)))
        out = apply_e(v_gen3, 2, 2, single(3, z.rows))
        expected = weight_eigenvalue(v_gen3, 2, z)
        assert out == ModVec.single(key(3, z.rows), expected)

    def test_term_counts(self, v_gen3):
        # one summand per row position; none vanish on a fully generic vector
        assert len(act_e(v_gen3, 2, 1, key(3, [(0,), (0, 0)]))) == 1
        assert len(act_e(v_gen3, 3, 2, key(3, [(0,), (0, 0)]))) == 2
        assert len(act_e(v_gen3, 2, 3, key(3, [(0,), (0, 0)]))) == 2

    def test_commutator_with_weight(self, v_gen3):
        # [E_11, E_12] = E_12, checked by brute force on a few keys
        for rows in [[(0,), (0, 0)], [(2,), (-1, 1)], [(-2,), (0, 3)]]:
            vec = single(3, rows)
            lhs = apply_e(v_gen3, 1, 1, apply_e(v_gen3, 1, 2, vec)) - apply_e(
                v_gen3, 1, 2, apply_e(v_gen3, 1, 1, vec)
            )
            assert lhs == apply_e(v_gen3, 1, 2, vec)


class TestSingular:
    def test_remark_lowering_identity(self, v_rem):
        # E_32 on the swap-fixed label lands on the canonical regular label
        # one step down with coefficient exactly 1
        out = act_e(v_rem, 3, 2, key(3, [(0,), (0, 0)]))
        assert out == single(3, [(0,), (-1, 0)])

    def test_classical_region_regular_keys(self, v_rem):
        # generators touching only rows at or below the singular row act by
        # the classical formulas on regular keys: no derivative terms appear
        for rows in [[(0,), (0, 0)], [(1,), (-1, 0)], [(-2,), (0, 1)]]:
            vec = single(3, rows)
            for (a, b) in [(1, 2), (2, 1), (1, 1), (2, 2)]:
                out = apply_e(v_rem, a, b, vec)
                assert all(t.kind is Kind.REGULAR for t in out.support())

    def test_classical_region_derivative_keys_gl4(self, v_sing4):
        # singular row is 2.  A raising generator with coefficient rows
        # {r, r+1} = {3, 4} and a lowering one with coefficient rows
        # {r-1, r} = {3, 4}, i.e. E_54 for gl(5) or here E_34, are t-free,
        # so derivative keys stay purely derivative with one-step targets.
        k = key(4, [(0,), (1, 0), (0, 0, 0)], Kind.DERIVATIVE)
        out = act_e(v_sing4, 3, 4, k)
        assert not out.is_zero
        assert all(t.kind is Kind.DERIVATIVE for t in out.support())
        for t, c in out.items():
            delta = [
                x - y
                for rt, rz in zip(t.shift.rows, k.shift.rows)
                for x, y in zip(rt, rz)
            ]
            assert sum(abs(d) for d in delta) == 1

    def test_lowering_through_singular_row_has_cross_terms(self, v_sing4):
        # E_43 lowers row 3 but its coefficient numerator runs over row 2,
        # the singular row, so derivative keys do emit regular components:
        # the index range of the classical-coefficient region depends on the
        # coefficient rows {r-1, r}, not on the generator labels {3, 4}
        k = key(4, [(0,), (1, 0), (0, 0, 0)], Kind.DERIVATIVE)
        out = act_e(v_sing4, 4, 3, k)
        kinds = {t.kind for t in out.support()}
        assert kinds == {Kind.REGULAR, Kind.DERIVATIVE}

    def test_boundary_cross_terms(self, v_rem, v_sing_top):
        # raising out of a swap-fixed regular label: the derivative component
        # survives exactly when no numerator factor vanishes
        out = act_e(v_rem, 2, 3, key(3, [(0,), (0, 0)]))
        assert any(t.kind is Kind.DERIVATIVE for t in out.support())
        # when the raised singular entry meets the matching top-row entry the
        # numerator contains a vanishing factor and the cross term dies
        out2 = act_e(v_sing_top, 2, 3, key(3, [(0,), (1, 1)]))
        assert all(t.kind is Kind.REGULAR for t in out2.support())

    def test_swap_fixed_derivative_rejected(self, v_rem):
        with pytest.raises(ValueError):
            act_e(v_rem, 1, 2, key(3, [(0,), (1, 1)], Kind.DERIVATIVE))

    def test_label_swap_equivariance(self, v_rem):
        # the regular tableau is swap-symmetric; the derivative one is
        # antisymmetric.  The formulas must respect both relations.
        z = Shift(3, ((1,), (-1, 2)))
        zt = tau(v_rem, z)
        for (a, b) in [(1, 2), (2, 1), (2, 3), (3, 2)]:
            reg = act_e(v_rem, a, b, TabKey(z, Kind.REGULAR))
            reg_t = act_e(v_rem, a, b, TabKey(zt, Kind.REGULAR))
            assert reg == reg_t
            der = act_e(v_rem, a, b, TabKey(z, Kind.DERIVATIVE))
            der_t = act_e(v_rem, a, b, TabKey(zt, Kind.DERIVATIVE))
            assert der == der_t.scale(-1)

    def test_weight_shift_by_one(self, v_rem, win3_r1):
        # eigenvalues of E_rr change by exactly +-1 along generator edges
        for k in win3_r1.keys(v_rem)[:9]:
            for r in (1, 2):
                out = act_e(v_rem, r, r + 1, k)
                for t in out.support():
                    for rr in range(1, 4):
                        before = weight_eigenvalue(v_rem, rr, k.shift)
                        after = weight_eigenvalue(v_rem, rr, t.shift)
                        expected = 1 if rr == r else (-1 if rr == r + 1 else 0)
                        assert after - before == expected


class TestNonAdjacentSingularPair:
    """The coincident pair need not sit in adjacent positions; here it is
    (3, 1, 3) of gl(4), exercising the swap and deformation bookkeeping away
    from the usual (k, 1, 2) layout."""

    def test_classification(self, v_sing4_row3):
        assert v_sing4_row3.singular == (3, 1, 3)

    def test_relations_hold(self, v_sing4_row3):
        from gtmodules.checks import check_relations

        win = Window(center=Shift.zero(4), radius=1, margin=1)
        keys = win.keys(v_sing4_row3)[::17]
        assert check_relations(v_sing4_row3, keys) == []

    def test_gamma_coherence(self, v_sing4_row3):
        from gtmodules.checks import check_gamma_coherence

        win = Window(center=Shift.zero(4), radius=1, margin=1)
        keys = win.keys(v_sing4_row3)[::61]
        levels = [(3, 2), (3, 3), (4, 1), (4, 2)]
        assert check_gamma_coherence(v_sing4_row3, keys, levels=levels) == []

    def test_canonicalization_swaps_outer_positions(self, v_sing4_row3):
        w = Shift(4, ((0,), (0, 0), (1, 5, 2)))
        key, sign = canonicalize(v_sing4_row3, Kind.DERIVATIVE, w)
        assert key.shift.rows[2] == (2, 5, 1) and sign == -1


class TestGeneralE:
    def test_e13_as_commutator(self, v_gen3):
        vec = single(3, [(0,), (0, 0)])
        direct = apply_e(v_gen3, 1, 3, vec)
        manual = apply_e(v_gen3, 1, 2, apply_e(v_gen3, 2, 3, vec)) - apply_e(
            v_gen3, 2, 3, apply_e(v_gen3, 1, 2, vec)
        )
        assert direct == manual

    def test_bracket_e13_e31(self, v_gen3, v_rem):
        # [E_13, E_31] = E_11 - E_33 on several keys in both families
        for v in (v_gen3, v_rem):
            for rows in [[(0,), (0, 0)], [(1,), (0, -1)], [(-1,), (2, 0)]]:
                vec = single(3, rows)
                lhs = apply_e(v, 1, 3, apply_e(v, 3, 1, vec)) - apply_e(
                    v, 3, 1, apply_e(v, 1, 3, vec)
                )
                rhs = apply_e(v, 1, 1, vec) - apply_e(v, 3, 3, vec)
                assert lhs == rhs

    def test_intermediate_choice_immaterial(self, v_sing4):
        # route through q = min + 1 against the route through q = max - 1,
        # on single keys, their sum and E(4,1)E(1,4) of a key
        ones = [single(4, rows) for rows in [[(0,), (0, 0), (0, 0, 0)], [(1,), (2, 0), (0, -1, 0)]]]
        vecs = [*ones, ones[0] + ones[1], apply_e(v_sing4, 4, 1, apply_e(v_sing4, 1, 4, ones[1]))]
        assert len(vecs[-1]) > 1
        for vec in vecs:
            for (a, b) in [(1, 4), (4, 1), (1, 3), (3, 1), (2, 4), (4, 2)]:
                fixed = apply_e(v_sing4, a, b, vec)
                q = max(a, b) - 1
                other = apply_e(v_sing4, a, q, apply_e(v_sing4, q, b, vec)) - apply_e(
                    v_sing4, q, b, apply_e(v_sing4, a, q, vec)
                )
                assert fixed == other

    def test_zero_vector_maps_to_zero(self, v_gen3):
        assert apply_e(v_gen3, 1, 3, ModVec()).is_zero


def per_key_e(v, i, j, key):
    """E_ij on one key as the per-key commutator route built it before deep
    generators acted on whole vectors: E(i,q) and E(q,j) on the key alone,
    then each other generator on every term, summed key by key."""
    if abs(i - j) <= 1:
        return _apply_key(v, i, j, key)
    q = min(i, j) + 1
    first = per_key_vec(v, q, j, per_key_e(v, i, q, key))
    second = per_key_vec(v, i, q, per_key_e(v, q, j, key))
    return second - first


def per_key_vec(v, i, j, vec):
    return ModVec((k2, c * c2) for k, c in vec.items() for k2, c2 in per_key_e(v, i, j, k).items())


DEEP = [(1, 3), (3, 1), (2, 4), (4, 2), (1, 4), (4, 1)]


class TestVectorFold:
    """Deep generators E_ij, |i-j| >= 2, fold whole vectors; the per-key
    commutator route is the oracle."""

    @pytest.mark.parametrize("vector", ["v_sing4_rem", "v_sing4_row3", "v_gen4_chain"])
    def test_single_keys_match_the_per_key_route(self, request, vector):
        v = request.getfixturevalue(vector)
        keys = Window(center=Shift.zero(4), radius=1, margin=1).keys(v)[::53]
        assert len(keys) == 14
        for k in keys:
            for i, j in DEEP:
                assert apply_e(v, i, j, ModVec.single(k)) == per_key_e(v, i, j, k), (k, i, j)

    @pytest.mark.parametrize("vector", ["v_sing4_rem", "v_sing4_row3", "v_gen4_chain"])
    def test_multi_key_vectors_match_the_per_key_route(self, request, vector):
        v = request.getfixturevalue(vector)
        keys = Window(center=Shift.zero(4), radius=1, margin=1).keys(v)[::91]
        cancelled = 0
        for k in keys:
            one = ModVec.single(k)
            vecs = [apply_e(v, 4, 1, apply_e(v, 1, 4, one)), apply_e(v, 2, 4, apply_e(v, 4, 2, one))]
            for i, j in DEEP:
                vec = cancelling_pair(v, i, j, k)
                if vec is not None:
                    vecs.append(vec)
                    cancelled += 1
            for vec in vecs:
                assert len(vec) > 1
                for i, j in DEEP:
                    assert apply_e(v, i, j, vec) == per_key_vec(v, i, j, vec), (k, i, j)
        assert cancelled > 0


def cancelling_pair(v, i, j, k):
    """c2 k - c1 k2 for a second key k2 whose E_ij image shares a target t
    with that of k, with c1, c2 the coefficients of t in the two images, so
    that t cancels in E_ij of the vector; None if no such key turns up."""
    image = per_key_e(v, i, j, k)
    for t, c1 in image.items():
        for k2 in apply_e(v, j, i, ModVec.single(t)).support():
            c2 = per_key_e(v, i, j, k2).coeff(t)
            if k2 != k and c2:
                vec = ModVec.single(k, c2) - ModVec.single(k2, c1)
                assert not apply_e(v, i, j, vec).coeff(t)
                return vec
    return None


class TestClassicalRegion:
    """Window-wide sweep of the classical-coefficient region.

    A coefficient is t-free exactly when the singular row is not among the
    rows it reads: {r, r+1} for a raising generator, {r-1, r} for a lowering
    one.  On derivative keys those generators act purely by derivative
    tableaux; on regular keys it is enough for the singular row to differ
    from the moving row (the coefficient stays smooth), and the output is
    then purely regular with the plain evaluated coefficients.
    """

    def test_gl4_window_sweep(self, v_sing4):
        win = Window(center=Shift.zero(4), radius=1, margin=1)
        k = 2
        tfree = []
        smooth_only = []
        for r in range(1, 4):
            if k not in (r, r + 1):
                tfree.append((r, r + 1))
            if k not in (r - 1, r):
                tfree.append((r + 1, r))
            if k != r:
                smooth_only.append((r, r + 1))
                smooth_only.append((r + 1, r))
        assert (3, 4) in tfree and (2, 1) in tfree and (4, 3) not in tfree
        for key in win.keys(v_sing4)[::31]:
            for (a, b) in tfree:
                out = act_e(v_sing4, a, b, key)
                assert all(t.kind is key.kind for t in out.support())
            if key.kind is Kind.REGULAR:
                for (a, b) in smooth_only:
                    out = act_e(v_sing4, a, b, key)
                    assert all(t.kind is Kind.REGULAR for t in out.support())
                    # coefficients agree with the plain evaluated summands
                    expected = {}
                    for coeff, target in _classical_oracle(v_sing4, a, b, key.shift):
                        tk, sg = canonicalize(v_sing4, Kind.REGULAR, target)
                        if coeff:
                            expected[tk] = expected.get(tk, 0) + sg * coeff
                    assert dict(out.items()) == {
                        t: c for t, c in expected.items() if c
                    }


def _classical_oracle(v, a, b, z):
    """Plain rational evaluation of the summand coefficients at the shifted
    entries, written independently of the action implementation."""
    from fractions import Fraction

    if a == b:
        total = Fraction(a - 1)
        for s in range(1, a + 1):
            total += v.entry(a, s) + z.get(a, s)
        for s in range(1, a):
            total -= v.entry(a - 1, s) + z.get(a - 1, s)
        return [(total, z)]
    row = min(a, b)
    direction = 1 if b == a + 1 else -1
    out = []
    for s0 in range(1, row + 1):
        x = v.entry(row, s0) + z.get(row, s0)
        if direction > 0:
            num = Fraction(-1)
            for jj in range(1, row + 2):
                num *= x - (v.entry(row + 1, jj) + z.get(row + 1, jj))
        else:
            num = Fraction(1)
            for jj in range(1, row):
                num *= x - (v.entry(row - 1, jj) + z.get(row - 1, jj))
        den = Fraction(1)
        for u in range(1, row + 1):
            if u != s0:
                den *= x - (v.entry(row, u) + z.get(row, u))
        out.append((num / den, z.bump(row, s0, direction)))
    return out


class TestCanonicalMerging:
    def test_opposite_derivative_emissions_cancel(self, v_rem):
        # acting on the boundary regular label emits swap-related derivative
        # targets whose coefficients merge with opposite signs
        out = act_e(v_rem, 2, 3, key(3, [(0,), (0, 0)]))
        for t, c in out.items():
            k2, sign = canonicalize(v_rem, t.kind, t.shift)
            assert k2 == t and sign == 1



class TestDeformedRows:
    """The deformed tableau kept on the base vector, against the per-call
    route the action took before (tests/helpers.py)."""

    @pytest.mark.parametrize("vector", [
        "v_fin2", "v_fin3_210", "v_gen3", "v_gen3_chain", "v_gen4_chain", "v_rem", "v_sing_irr",
        "v_sing_top", "v_sing4", "v_sing4_rem", "v_sing4_row3", "weight_2110",
    ])
    def test_stored_rows_match_the_per_call_route(self, request, vector):
        v = BaseVector.from_weight([2, 1, 1, 0]) if vector == "weight_2110" else request.getfixturevalue(vector)
        assert v.deformed_rows == old_deformed_rows(v)
        for r in range(1, v.n + 1):
            assert v.row_sums[r - 1] == sum(old_entry(v, r, s) for s in range(1, r + 1))
            for s in range(1, r + 1):
                assert v.entry(r, s) == old_entry(v, r, s)
        slopes = [m for row in v.deformed_rows for _c, m in row]
        if v.singular is None:  # finite and generic vectors are not deformed
            assert set(slopes) == {0}
        else:
            assert sorted(slopes) == [-1] + [0] * (len(slopes) - 2) + [1]

    # every summand: each row r, each s0 and both directions, so E(2,1)'s
    # numerator reads the empty row 0
    @pytest.mark.parametrize("vector,radius", [
        ("v_rem", 2), ("v_sing_top", 2), ("v_sing4_rem", 1), ("v_gen4_chain", 1),
    ])
    def test_coeff_e_matches_the_per_call_body(self, request, vector, radius):
        v = request.getfixturevalue(vector)
        shifts = dict.fromkeys(key.shift for key in Window(Shift.zero(v.n), radius).keys(v))
        compared = 0
        for z in shifts:
            for r in range(1, v.n):
                for l, m in ((r, r + 1), (r + 1, r)):
                    for s0 in range(1, r + 1):
                        assert coeff_e(v, l, m, s0, z) == old_coeff_e(v, l, m, s0, z)
                        compared += 1
        assert compared == len(shifts) * v.n * (v.n - 1)

    @pytest.mark.parametrize("vector", ["v_fin2", "v_rem", "v_sing4_rem"])
    def test_row_zero_is_empty(self, request, vector):
        v = request.getfixturevalue(vector)
        assert _row_entries(v, Shift.zero(v.n), 0) == ()


def old_weight_eigenvalue(v, r, z):
    """The E_rr eigenvalue summed from the deformed row entries, as before
    the base vector kept its row sums."""
    upper, lower = (sum(c for c, _m in _row_entries(v, z, q)) for q in (r, r - 1))
    return r - 1 + upper - lower


def old_diagonal(v, r, key):
    """E(r,r) on one key as the r == s branch of _summands gave it before
    _apply_key read the weight itself: the weight times the key, through
    the canonical label and sign in the one-singular family, and dropped
    on a finite-family target that is not standard."""
    _check_key(v, key)
    z = key.shift
    coeff = weight_eigenvalue(v, r, z)
    family = v.family
    if not coeff:
        return ModVec()
    if family is Family.ONE_SINGULAR:
        tkey, sg = canonicalize(v, key.kind, z)
        return ModVec([(tkey, -coeff if sg < 0 else coeff)]) if sg else ModVec()
    if family is not Family.FINITE_STANDARD or is_standard(v, z):
        return ModVec([(TabKey(z, key.kind), coeff)])
    return ModVec()


class TestDiagonal:
    # gl(3) radius-2 and gl(4) radius-1 windows in the three families
    @pytest.mark.parametrize("vector,radius", [
        ("v_fin3_210", 2), ("v_gen3_chain", 2), ("v_rem", 2),
        ("v_fin4", 1), ("v_gen4_chain", 1), ("v_sing4_rem", 1),
    ])
    def test_uncached_diagonal_matches_cached_act_e(self, request, vector, radius):
        # old_diagonal is the body that the cached act_e ran for E(r,r)
        v = BaseVector.from_weight([2, 1, 1, 0]) if vector == "v_fin4" else request.getfixturevalue(vector)
        n = v.n
        _clear_memo_caches()
        compared = 0
        for key in Window(Shift.zero(n), radius).keys(v):
            for r in range(1, n + 1):
                assert weight_eigenvalue(v, r, key.shift) == old_weight_eigenvalue(v, r, key.shift)
                try:
                    expected = old_diagonal(v, r, key)
                except NotStandard:
                    with pytest.raises(NotStandard):
                        _apply_key(v, r, r, key)
                    continue
                assert _apply_key(v, r, r, key) == expected
                compared += 1
        assert compared > 0
        # the diagonal fills no cache
        assert act_e.cache_info().currsize == 0

    def test_non_canonical_regular_label(self, v_rem):
        # a regular label with w_21 > w_22 names its swapped key with sign
        # +1, and a derivative label with w_21 < w_22 its swapped key with
        # sign -1
        z = Shift(3, ((1,), (2, 0)))
        zt = tau(v_rem, z)
        for label, canonical, sign in ((TabKey(z, Kind.REGULAR), TabKey(zt, Kind.REGULAR), 1),
                                       (TabKey(zt, Kind.DERIVATIVE), TabKey(z, Kind.DERIVATIVE), -1)):
            for r in range(1, 4):
                out = _apply_key(v_rem, r, r, label)
                assert out == old_diagonal(v_rem, r, label)
                assert dict(out.items()) == {canonical: sign * weight_eigenvalue(v_rem, r, z)}

    def test_act_e_rejects_the_diagonal(self, v_rem):
        _clear_memo_caches()
        k = key(3, [(0,), (1, 0)])
        act_e(v_rem, 1, 2, k)
        size = act_e.cache_info().currsize
        for r in range(1, 4):
            with pytest.raises(ValueError, match="not a raising or lowering generator"):
                act_e(v_rem, r, r, k)
        assert act_e.cache_info().currsize == size == 1
        _clear_memo_caches()


class TestOneLabelObject:
    # every cached generator result names a basis label through the one
    # object _label holds for it, not through a fresh key per result term
    @pytest.mark.parametrize("vector,radius", [("v_rem", 2), ("v_sing4_rem", 1)])
    def test_results_share_label_objects(self, request, monkeypatch, vector, radius):
        # on gl(4) the generators include the depth-2 commutator E(1,4)
        from gtmodules import action

        v = request.getfixturevalue(vector)
        n = v.n
        _clear_memo_caches()
        results = []
        unrecorded = action._apply_key

        def recorded(*args):
            out = unrecorded(*args)
            results.append(out)
            return out

        monkeypatch.setattr(action, "_apply_key", recorded)
        for key in Window(Shift.zero(n), radius).keys(v):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    apply_e(v, i, j, ModVec.single(key))
        labels = {k for out in results for k in out.support()}
        assert _label.cache_info().currsize == len(labels)
        # a key _label had not seen would come back as itself and add an entry
        assert all(k is _label(v, k) for out in results for k in out.support())
        assert _label.cache_info().currsize == len(labels)
        _clear_memo_caches()

    def test_diagonal_returns_the_label_object(self, v_rem):
        # canonicalize builds a fresh key on each call; the diagonal writes
        # the one label object instead, also for a non-canonical label
        _clear_memo_caches()
        z = Shift(3, ((1,), (2, 0)))
        zt = tau(v_rem, z)
        for label, canonical in ((TabKey(z, Kind.DERIVATIVE), TabKey(z, Kind.DERIVATIVE)),
                                 (TabKey(zt, Kind.DERIVATIVE), TabKey(z, Kind.DERIVATIVE)),
                                 (TabKey(z, Kind.REGULAR), TabKey(zt, Kind.REGULAR))):
            for r in range(1, 4):
                (out,) = _apply_key(v_rem, r, r, label).support()
                assert out == canonical
                assert out is _label(v_rem, canonical)
        assert _label.cache_info().currsize == 2
        _clear_memo_caches()


def test_each_generator_result_is_cached_once(v_rem):
    # adjacent results live in act_e only; a commutator E_ij, |i-j| >= 2,
    # is folded from them again on every call and held nowhere
    from gtmodules.action import _apply_e_key

    _clear_memo_caches()
    k0 = key(3, [(0,), (1, 0)])
    vec = ModVec.single(k0)
    apply_e(v_rem, 1, 2, vec)
    apply_e(v_rem, 1, 2, vec)
    info = act_e.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert _apply_e_key.cache_info().currsize == 0
    first = apply_e(v_rem, 1, 3, vec)
    held = act_e.cache_info()
    assert apply_e(v_rem, 1, 3, vec) == first
    info = _apply_e_key.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 2, 0)
    # the second E(1,3) found every adjacent result in act_e
    assert act_e.cache_info()[1:] == held[1:]
    # E(1,3) = E(1,2)E(2,3) - E(2,3)E(1,2): one entry per adjacent result
    adjacent = {(1, 2, k0), (2, 3, k0)}
    adjacent |= {(2, 3, k) for k in act_e(v_rem, 1, 2, k0).support()}
    adjacent |= {(1, 2, k) for k in act_e(v_rem, 2, 3, k0).support()}
    assert held.currsize == held.misses == len(adjacent)
    _clear_memo_caches()


def test_functools_caches_are_the_known_four():
    # every functools cache bound at module level anywhere in the package;
    # a new one has to be added here on purpose
    import importlib
    import pkgutil

    import gtmodules
    from gtmodules.action import _MEMO_CACHES

    found = set()
    for info in pkgutil.iter_modules(gtmodules.__path__):
        module = importlib.import_module(f"gtmodules.{info.name}")
        for obj in vars(module).values():
            if hasattr(obj, "cache_info"):
                found.add(f"{obj.__module__}.{obj.__qualname__}")
    known = {
        "gtmodules.action._label",
        "gtmodules.action.act_e",
        "gtmodules.action._apply_e_key",
        "gtmodules.action._gamma_from_entries",
    }
    assert found == known
    # the CLI empties exactly these before each command
    assert len(_MEMO_CACHES) == len(known)
    assert {f"{c.__module__}.{c.__qualname__}" for c in _MEMO_CACHES} == known
