"""Structure analysis: drop audit, separation and irreducibility verdicts.

Runs the triple-set size audit over a window with its five local drop
configurations, builds a separating subalgebra element for two labels, and
produces verdicts for a reducible and an irreducible one-singular module.
"""

from collections import Counter
from fractions import Fraction as F

from gtmodules.action import ModVec
from gtmodules.structure import (
    Window,
    basis_key,
    irreducibility_verdict,
    reach_scan,
    separator,
)
from gtmodules.tableau import BaseVector, Shift


def main():
    a, b, c, x, d = F(1, 2), F(1, 3), F(1, 5), F(1, 7), F(1, 11)
    v_red = BaseVector.from_rows([[a, b, c], [x, x], [x]])
    v_irr = BaseVector.from_rows([[a, b, c], [x, x], [d]])
    win = Window(center=Shift.zero(3), radius=2, margin=1)

    print("=== triple-set drop audit (reducible vector) ===")
    audit = reach_scan(v_red, win.keys(v_red), audit=True)[1]
    print(f"edges scanned: {audit.edges_scanned}")
    print(f"violations: {len(audit.violations)}  unclassified: {len(audit.unclassified)}")
    print("drop-by-one configurations:", dict(Counter(e.config for e in audit.drops)))

    print("\n=== separation ===")
    z = Shift.zero(3)
    w = Shift(3, ((0,), (1, -1)))
    recipe = separator(v_red, z, w)
    print(f"separating level ({recipe.r},{recipe.s}), eigenvalue gap {recipe.a}, "
          f"correction beta {recipe.beta}")
    wkey = basis_key(v_red, w)
    print("fixes the target:", recipe.apply(v_red, wkey) == ModVec.single(wkey))
    zkey = basis_key(v_red, z)
    print("kills the source:", recipe.apply(v_red, zkey).is_zero)

    print("\n=== verdicts ===")
    for name, v in [("aligned (reducible)", v_red), ("clean (irreducible)", v_irr)]:
        verdict = irreducibility_verdict(v, win)
        print(f"{name}: {verdict.status}")
        if verdict.status == "reducible":
            print(f"  witness shift {verdict.witness.to_json()} with triple-set size "
                  f"{verdict.witness_omega_size}")
            print(f"  closure covers {verdict.closure_size} of {verdict.window_size} labels; "
                  f"{len(verdict.omitted_interior)} interior labels omitted (proper submodule)")
        else:
            print(f"  reachability from the center covers the window interior: "
                  f"{verdict.interior_covered}")


if __name__ == "__main__":
    main()
