"""The one-singular family: derivative tableaux and the t-calculus.

Shows the canonical labelling with its swap relations, the deformed
coefficient functions and their (value, half-derivative) pairs, the cross
terms between regular and derivative tableaux, and the nilpotent recentred
subalgebra element that links the two kinds.
"""

from fractions import Fraction as F

from gtmodules.action import act_e, act_gamma, coeff_e, gamma_dvbar, gamma_eval
from gtmodules.ratcalc import Jet, rf_d_pair
from gtmodules.structure import basis_key
from gtmodules.tableau import BaseVector, Kind, Shift, TabKey, canonicalize


def show(vec):
    return [
        (t.kind.value, t.shift.to_json(), str(c))
        for t, c in sorted(vec.items(), key=lambda kv: (kv[0].shift.rows, kv[0].kind.value))
    ]


def main():
    a, b, c, x = F(1, 2), F(1, 3), F(1, 5), F(1, 7)
    v = BaseVector.from_rows([[a, b, c], [x, x], [x]])
    print("family:", v.family.value, "singular pair:", v.singular)

    # canonical labels: the swap either folds (regular) or negates (derivative)
    z = Shift(3, ((0,), (1, 3)))
    reg, s1 = canonicalize(v, Kind.REGULAR, z)
    der, s2 = canonicalize(v, Kind.DERIVATIVE, z)
    print("\nregular label of", z.to_json(), "->", reg.shift.to_json(), "sign", s1)
    print("derivative label of", z.to_json(), "->", der.shift.to_json(), "sign", s2)

    # the deformed coefficient of a raising summand at the coincident pair
    z0 = Shift.zero(3)
    jet = coeff_e(v, 2, 3, 1, z0)
    print("\nraising summand coefficient at the coincident pair:")
    print("  pole order at t=0:", -jet.order)
    cleared = Jet(jet.order + 1, tuple(2 * c for c in jet.coeffs))
    print("  after multiplying by the vanishing difference 2t:", rf_d_pair(cleared))

    print("\nE(2,3) on the swap-fixed regular label:")
    out = act_e(v, 2, 3, TabKey(z0, Kind.REGULAR))
    for kind, rows, coeff in show(out):
        print(f"   {coeff} * {kind}{rows}")

    print("\nE(3,2) on the same label lands exactly one step down:")
    print("  ", show(act_e(v, 3, 2, TabKey(z0, Kind.REGULAR))))

    # the recentred level-(2,2) element: nilpotent of order two on the
    # derivative tableau, linking it to its regular partner
    zd = Shift(3, ((0,), (2, 0)))
    kd = basis_key(v, zd)
    print("\nderivative label", kd.shift.to_json())
    print("  eigenvalue:", gamma_eval(v, 2, 2, zd), " derivative:", gamma_dvbar(v, 2, 2, zd))
    once = act_gamma(v, 2, 2, kd, shift=zd)
    print("  recentred element applied once: ", show(once))
    twice = act_gamma(v, 2, 2, once, shift=zd)
    print("  applied twice:", show(twice), "(zero)")


if __name__ == "__main__":
    main()
