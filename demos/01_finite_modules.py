"""Finite-dimensional modules through tableaux.

Enumerates the standard basis for a dominant integral highest weight,
applies the raising and lowering generators, and checks the commuting
subalgebra eigenvalues against the brute-force tuple sum.
"""

from gtmodules.action import ModVec, act_gamma, apply_casimir_pbw, apply_e
from gtmodules.tableau import BaseVector, Kind, TabKey, standard_shifts


def main():
    weight = [2, 1, 0]
    v = BaseVector.from_weight(weight)
    print(f"highest weight {weight} -> top row {[str(x) for x in v.top_row()]}")

    shifts = standard_shifts(v)
    print(f"standard tableaux: {len(shifts)}")
    for w in shifts:
        print("   rows (top down):", w.to_json())

    key = TabKey(shifts[0], Kind.REGULAR)
    print("\nlowest enumerated tableau:", key.shift.to_json())
    for (a, b) in [(1, 2), (2, 3), (2, 1), (3, 2), (1, 1), (2, 2), (3, 3)]:
        out = apply_e(v, a, b, ModVec.single(key))
        print(f"E({a},{b}) ->", [(t.shift.to_json(), str(c)) for t, c in out.items()])

    print("\ncommuting subalgebra eigenvalues on that tableau:")
    for (m, k) in [(1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]:
        closed = act_gamma(v, m, k, key)
        brute = apply_casimir_pbw(v, m, k, ModVec.single(key))
        eig = closed.coeff(key)
        print(f"  level ({m},{k}): eigenvalue {eig}; tuple-sum agrees: {brute == closed}")


if __name__ == "__main__":
    main()
