"""Small helpers that only the tests call; the library does not carry them."""

from typing import NamedTuple

from gtmodules.action import _summand_spec
from gtmodules.ratcalc import Jet, rf_from_linear_factors
from gtmodules.structure import Triple, Window, basis_key, key_sort_key, omega_plus, reach_closure, reach_scan
from gtmodules.tableau import BaseVector, Shift, TabKey, singular_triple


def tau(v: BaseVector, w: Shift) -> Shift:
    """The involution exchanging the two singular positions of row k."""
    k, i, j = singular_triple(v)
    return w.swap(k, i, j)


def anchor_index(v: BaseVector, r: int, s: int) -> int:
    """The anchor carried by position (r, s)."""
    return v.assignment[r - 1][s - 1]


def old_entry(v: BaseVector, r: int, s: int):
    """entry(r, s) summed from its anchor and offset on each call, as before
    the base vector kept its deformed rows."""
    return v.anchors[v.assignment[r - 1][s - 1]] + v.offsets[r - 1][s - 1]


def old_slopes(singular: tuple[int, int, int] | None, r: int) -> list[int]:
    """Slope of the deformation variable at each position of row r (index
    s - 1): +t at (k, i), -t at (k, j) of the singular triple, else none."""
    out = [0] * r
    if singular is not None and singular[0] == r:
        out[singular[1] - 1], out[singular[2] - 1] = 1, -1
    return out


def old_deformed_rows(v: BaseVector) -> tuple:
    """Every row as (entry, slope) pairs, built per row as the action built
    them before the base vector kept them."""
    return tuple(
        tuple((old_entry(v, r, s), m) for s, m in enumerate(old_slopes(v.singular, r), start=1))
        for r in range(1, v.n + 1)
    )


def old_coeff_e(v: BaseVector, l: int, m: int, s0: int, z: Shift) -> Jet:
    """The coeff_e body that summed each entry and built both slope lists
    on every call."""
    r, direction = _summand_spec(l, m)
    nb = r + direction
    singular = v.singular
    row_m, nb_m = old_slopes(singular, r), old_slopes(singular, nb)
    a = old_entry(v, r, s0) + z.get(r, s0)
    ma = row_m[s0 - 1]
    num = [(a - (old_entry(v, nb, u) + z.get(nb, u)), ma - nb_m[u - 1]) for u in range(1, nb + 1)]
    den = [(a - (old_entry(v, r, u) + z.get(r, u)), ma - row_m[u - 1]) for u in range(1, r + 1) if u != s0]
    return rf_from_linear_factors(num, den, -direction)


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


class OldVerdict(NamedTuple):
    """The verdict as it was built by two closure branches, with the
    irreducible branch's coverage stored as a field of its own."""

    status: str
    neighbor_integral_pairs: tuple[Triple, ...]
    witness: Shift | None = None
    witness_omega_size: int | None = None
    closure_size: int | None = None
    window_size: int | None = None
    omitted_interior: tuple[TabKey, ...] = ()
    interior_covered: bool | None = None

    def to_json(self) -> dict:
        out = {
            "status": self.status,
            "neighbor_integral_pairs": [list(t) for t in self.neighbor_integral_pairs],
        }
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
            out["witness_omega_plus_size"] = self.witness_omega_size
            out["closure_size"] = self.closure_size
            out["window_size"] = self.window_size
            out["omitted_interior_examples"] = [k.to_json() for k in self.omitted_interior[:5]]
            out["proper_submodule_audited"] = bool(self.omitted_interior)
        if self.interior_covered is not None:
            out["interior_covered_by_bfs"] = self.interior_covered
        return out


def old_irreducibility_verdict(v: BaseVector, win: Window) -> OldVerdict:
    """The verdict with one closure per status: the centre's in the
    irreducible case, the witness's (largest triple set, least rows) in the
    reducible case, whose omitted interior keys are sorted by key."""
    singular_triple(v)
    pairs = v.integral_pairs
    keys = win.keys(v)
    succ = reach_scan(v, keys)[0]
    interior = [i for i, k in enumerate(keys) if win.is_interior(k.shift)]
    if not pairs:
        closure = set(reach_closure(succ, keys.index(basis_key(v, win.center))))
        return OldVerdict(
            status="irreducible",
            neighbor_integral_pairs=(),
            interior_covered=set(interior) <= closure,
            closure_size=len(closure),
            window_size=len(keys),
        )
    witness = min(keys, key=lambda k: (-len(omega_plus(v, k)), k.shift.rows))
    closure = set(reach_closure(succ, keys.index(witness)))
    omitted = sorted((keys[i] for i in interior if i not in closure), key=key_sort_key)
    return OldVerdict(
        status="reducible",
        neighbor_integral_pairs=pairs,
        witness=witness.shift,
        witness_omega_size=len(omega_plus(v, witness)),
        closure_size=len(closure),
        window_size=len(keys),
        omitted_interior=tuple(omitted),
    )


def old_verdict_passes(report: dict) -> bool:
    """The verdict command's exit rule read back from its own report: exit
    0 unless a present audit field reads false."""
    return report.get("interior_covered_by_bfs", True) and report.get("proper_submodule_audited", True)
