"""Generic modules: unfiltered tableau formulas on an infinite basis.

Builds a generic base vector with one cross-row anchor chain, applies
generators, and walks the window structure: triple sets, the predicted
submodule and subquotient bases, and single-generator reachability.
"""

from fractions import Fraction as F

from gtmodules.action import act_e
from gtmodules.structure import (
    Window,
    basis_key,
    omega_classes,
    omega_plus,
    reach_closure,
    reach_scan,
)
from gtmodules.tableau import BaseVector, Shift


def main():
    x = F(1, 7)
    v = BaseVector.from_rows([[x, F(1, 3), F(1, 5)], [x - 1, F(1, 11)], [x + 1]])
    print("entries (top down):")
    for r in range(3, 0, -1):
        print("  ", [str(v.entry(r, s)) for s in range(1, r + 1)])

    key = basis_key(v, Shift.zero(3))
    print("\ngenerators on the center label:")
    for (a, b) in [(1, 2), (2, 1), (2, 3), (3, 2)]:
        out = act_e(v, a, b, key)
        print(f"E({a},{b}) -> {len(out)} terms")

    win = Window(center=Shift.zero(3), radius=2, margin=1)
    print(f"\nwindow: {len(win.shifts())} labels, radius {win.radius}")
    om = omega_plus(v, key)
    print("triple set of the center:", sorted(om))
    keys = win.keys(v)
    classes = omega_classes(v, keys)
    n_basis = [k for c, members in classes.items() if om <= c for k in members]
    print(f"predicted submodule basis in window: {len(n_basis)} labels")
    print(f"predicted irreducible subquotient:   {len(classes[om])} labels")

    closure = [keys[i] for i in reach_closure(reach_scan(v, keys)[0], keys.index(key))]
    print(f"reachability closure from the center: {len(closure)} labels")
    interior_cl = {k for k in closure if win.is_interior(k.shift)}
    interior_n = {k for k in n_basis if win.is_interior(k.shift)}
    print("interior closure equals interior prediction:", interior_cl == interior_n)


if __name__ == "__main__":
    main()
