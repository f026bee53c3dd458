"""Combinatorial structure of the tableau modules on finite windows.

The lattice of basis keys is infinite; every statement here is therefore
audited on an L-infinity window of shifts around a center, with an interior
margin so that boundary truncation can only under-approximate reachability.
The module provides the non-negative-integral-difference triple sets that
control submodule structure, the window keys grouped by triple set (every
predicted window basis of a submodule or irreducible subquotient is read
from :func:`omega_classes`), separating elements of the commuting
subalgebra, the irreducibility verdict with a reducibility witness, and the
window's single-generator edges.  One walk over the generator summands,
:func:`reach_scan`, gives both the reachability graph (read by its
transitive closure and strongly connected components) and the audit of how
the triple-set size can drop along those edges.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple

from .action import (
    ModVec,
    _check_key,
    _summands,
    act_gamma,
    gamma_dvbar,
    gamma_eval,
)
from .tableau import (
    BaseVector,
    Family,
    Kind,
    Shift,
    TabKey,
    canonicalize,
    singular_triple,
)

__all__ = [
    "HypothesisViolated",
    "NotSeparable",
    "Window",
    "Triple",
    "basis_key",
    "omega_plus",
    "omega_k_plus",
    "omega_classes",
    "SeparatorRecipe",
    "separator",
    "reach_scan",
    "reach_closure",
    "reach_components",
    "DropEdge",
    "DropAuditReport",
    "Verdict",
    "irreducibility_verdict",
    "key_sort_key",
]

Triple = tuple[int, int, int]


class HypothesisViolated(ValueError):
    """A neighboring-row integral pair exists above the singular row, so the
    restricted subquotient basis theorem does not apply."""


class NotSeparable(RuntimeError):
    """No separating subalgebra element was found; cannot happen for labels
    that are not swap-related."""


def key_sort_key(key: TabKey):
    return (key.shift.rows, key.kind.value)


def basis_key(v: BaseVector, w: Shift) -> TabKey:
    """The canonical basis element labelled by the shift w: the derivative
    tableau when w is its canonical label (sign +1), the regular one
    otherwise."""
    if v.family is Family.ONE_SINGULAR:
        key, sign = canonicalize(v, Kind.DERIVATIVE, w)
        if sign > 0:
            return key
    return TabKey(w, Kind.REGULAR)


class _WindowFields(NamedTuple):
    center: Shift
    radius: int
    margin: int = 1


class Window(_WindowFields):
    """L-infinity box of shifts around a center, with an interior margin."""

    __slots__ = ()

    def __new__(cls, center: Shift, radius: int, margin: int = 1) -> "Window":
        if radius < 1:
            raise ValueError("radius must be >= 1")
        if not (0 <= margin <= radius):
            raise ValueError("margin must lie between 0 and radius")
        return tuple.__new__(cls, (center, radius, margin))

    def shifts(self) -> list[Shift]:
        """Every shift of the box, ascending in ``rows`` (so the window keys
        come in :func:`key_sort_key` order); the shifts share row tuples."""
        R = self.radius
        rows = (product(*(range(c - R, c + R + 1) for c in row)) for row in self.center.rows)
        return [Shift(self.center.n, combo) for combo in product(*rows)]

    def is_interior(self, w: Shift) -> bool:
        bound = self.radius - self.margin
        return all(
            abs(x - c) <= bound for row, crow in zip(w.rows, self.center.rows) for x, c in zip(row, crow)
        )

    def keys(self, v: BaseVector) -> list[TabKey]:
        return [basis_key(v, w) for w in self.shifts()]


def _omega_triples(v: BaseVector, w: Shift) -> Iterator[Triple]:
    """The triples of Omega+ at the shift w, one at a time."""
    return ((r, s, t) for r, s, t in v.integral_pairs if v.int_diff(w, r, s, r - 1, t) >= 0)


def omega_plus(v: BaseVector, key: TabKey | Shift) -> frozenset[Triple]:
    """Triples (r, s, t) whose row-r entry exceeds the row-(r-1) entry by a
    non-negative integer; anchor equality decides integrality exactly."""
    return frozenset(_omega_triples(v, key.shift if isinstance(key, TabKey) else key))


def omega_k_plus(v: BaseVector, key: TabKey | Shift) -> frozenset[Triple]:
    """Restriction of the triple set to rows at most the singular row."""
    k, _i, _j = singular_triple(v)
    return frozenset(t for t in omega_plus(v, key) if t[0] <= k)


def omega_classes(v: BaseVector, keys: list[TabKey]) -> dict[frozenset[Triple], list[TabKey]]:
    """The window keys grouped by triple set, classes and members in
    first-seen key order: the predicted window bases of the irreducible
    subquotients.

    A generic vector groups by Omega+; the submodule generated by T has the
    union of the classes whose set contains Omega+(T) as its window basis.
    A one-singular vector groups by the restricted set Omega_k+, which is
    valid when no neighboring-row integral pair lies above the singular row.
    """
    omega = omega_plus
    if v.family is not Family.GENERIC:
        k, _i, _j = singular_triple(v)
        for r, s, t in v.integral_pairs:
            if r > k:
                raise HypothesisViolated(
                    f"rows {r} and {r - 1} carry an integral pair at positions "
                    f"({r},{s}) and ({r - 1},{t})"
                )
        omega = omega_k_plus
    classes: dict[frozenset[Triple], list[TabKey]] = {}
    for key in keys:
        classes.setdefault(omega(v, key), []).append(key)
    return classes


class SeparatorRecipe(NamedTuple):
    """Element of the commuting subalgebra that annihilates both tableaux at
    z and fixes the basis element at w.

    The element is (1/a^2) (1 - beta C_{k2}(w)) C_{rs}(z)^2 where a is the
    eigenvalue gap at the chosen level (r, s) and beta is zero unless the
    target is a derivative tableau whose eigenvalue derivative at level
    (r, s) is nonzero.
    """

    z: Shift
    w: Shift
    r: int
    s: int
    a: Fraction
    beta: Fraction
    k: int | None  # singular row, present when beta != 0

    def apply(self, v: BaseVector, target: TabKey | ModVec) -> ModVec:
        u = act_gamma(v, self.r, self.s, act_gamma(v, self.r, self.s, target, shift=self.z), shift=self.z)
        out = u.scale(1 / (self.a * self.a))
        if self.beta:
            corr = act_gamma(v, self.k, 2, u, shift=self.w)
            out = out - corr.scale(self.beta / (self.a * self.a))
        return out


def separator(v: BaseVector, z: Shift, w: Shift) -> SeparatorRecipe:
    """Separating subalgebra element for basis labels z and w.

    Chooses the lexicographically first level (r, s) whose eigenvalues at
    the two labels differ; such a level exists exactly because the labels
    are not swap-related.  When the target basis element is a derivative
    tableau with nonzero eigenvalue derivative at the chosen level, a
    correction through the level (k, 2) recentred element removes the
    regular component it would otherwise leak.
    """
    k = singular_triple(v)[0]
    if canonicalize(v, Kind.REGULAR, w)[0] == canonicalize(v, Kind.REGULAR, z)[0]:
        raise ValueError("labels coincide up to the singular swap; nothing to separate")
    found = None
    for r in range(1, v.n + 1):
        for s in range(1, r + 1):
            a = gamma_eval(v, r, s, w) - gamma_eval(v, r, s, z)
            if a:
                found = (r, s, a)
                break
        if found:
            break
    if found is None:  # pragma: no cover - excluded by the character pairing
        raise NotSeparable("all eigenvalues agree for non-swap-related labels")
    r, s, a = found
    target = basis_key(v, w)
    beta = Fraction(0)
    if target.kind is Kind.DERIVATIVE:
        drs = gamma_dvbar(v, r, s, w)
        if drs:
            dk2 = gamma_dvbar(v, k, 2, w)
            if not dk2:  # pragma: no cover - nonzero for any non-swap-fixed label
                raise NotSeparable("level (k,2) eigenvalue derivative vanished")
            beta = 2 * drs / (a * dk2)
    return SeparatorRecipe(z=z, w=w, r=r, s=s, a=a, beta=beta, k=k if beta else None)


def reach_scan(
    v: BaseVector, keys: list[TabKey], audit: bool = False
) -> tuple[list[list[int]], DropAuditReport | None]:
    """Reach graph on the window keys, and with ``audit`` their drop audit,
    from one pass over the generator summands.

    The graph is indexed by position in ``keys``: entry i lists the
    positions of the other window keys that receive a nonzero coefficient
    from one raising or lowering generator applied to key i, in first-seen
    order.  Each generator's summands are read once and summed into a
    vector, so targets whose summands cancel get no edge.  In the
    one-singular family a derivative key also reaches the support of the
    recentred level (k, 2) element, the only single element of the
    subalgebra that moves a basis vector.

    With ``audit``, every summand is also read by :func:`_drop_edge`, and
    the edges it returns are sorted by size into the
    :class:`DropAuditReport`.  An audited edge names the window's own key
    object for a target inside the window.
    """
    if audit and v.family is Family.FINITE_STANDARD:
        raise ValueError("audit requires a generic or one-singular vector")
    scanned = 0
    edges: list[DropEdge] = []
    position = {key: i for i, key in enumerate(keys)}
    # the raising and lowering generators; the diagonal E(r,r) maps a key
    # only to itself and moves nothing
    gens = [(a, b) for r in range(1, v.n) for a, b in ((r, r + 1), (r + 1, r))]

    def terms(key: TabKey, size_src: int, a: int, b: int):
        nonlocal scanned
        for s0, comp_kind, tkey, coeff in _summands(v, a, b, key):
            if audit:
                scanned += 1
                i = position.get(tkey)
                edge = _drop_edge(v, key, size_src, a, b, s0, comp_kind, tkey if i is None else keys[i])
                if edge is not None:
                    edges.append(edge)
            yield tkey, coeff

    succ: list[list[int]] = []
    for key in keys:
        _check_key(v, key)
        targets: dict[TabKey, None] = {}
        size_src = len(omega_plus(v, key)) if audit else 0
        for a, b in gens:
            targets.update(dict.fromkeys(ModVec(terms(key, size_src, a, b)).support()))
        if key.kind is Kind.DERIVATIVE:
            targets.update(dict.fromkeys(act_gamma(v, v.singular[0], 2, key, shift=key.shift).support()))
        succ.append([i for i in map(position.get, targets) if i is not None])
    if not audit:
        return succ, None
    drops = tuple(e for e in edges if e.source_size - e.target_size == 1)
    return succ, DropAuditReport(scanned, tuple(e for e in edges if e.source_size - e.target_size > 1), drops)


def reach_closure(succ: list[list[int]], start: int) -> list[int]:
    """Positions reachable from position ``start`` of the reach graph, start
    first and then in breadth-first order: the transitive closure of
    single-generator reachability from a window key.

    Every member is genuinely reachable by one enveloping-algebra element;
    boundary truncation can only omit keys, never add them.
    """
    seen = bytearray(len(succ))
    seen[start] = 1
    order = [start]
    for cur in order:  # grows while it is read
        for t in succ[cur]:
            if not seen[t]:
                seen[t] = 1
                order.append(t)
    return order


def reach_components(succ: list[list[int]]) -> list[list[int]]:
    """Strongly connected components of the reach graph (Tarjan), each a
    list of positions, largest first and then by their least position (on
    window keys, their least key under :func:`key_sort_key`).

    Boundary keys often form singletons because their outgoing edges leave
    the window; claims should therefore be read on interior keys only.
    """
    size = len(succ)
    index = [-1] * size
    low = [0] * size
    on_stack = bytearray(size)
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = 1
        # the DFS path, and the next edge to read at each of its positions
        path, offset = [root], [0]
        while path:
            node = path[-1]
            row = succ[node]
            e = offset[-1]
            while e < len(row):
                t = row[e]
                e += 1
                if index[t] < 0:
                    offset[-1] = e
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    on_stack[t] = 1
                    path.append(t)
                    offset.append(0)
                    break
                if on_stack[t] and index[t] < low[node]:
                    low[node] = index[t]
            else:
                path.pop()
                offset.pop()
                if path and low[node] < low[path[-1]]:
                    low[path[-1]] = low[node]
                if low[node] == index[node]:
                    comp = []
                    while True:
                        m = stack.pop()
                        on_stack[m] = 0
                        comp.append(m)
                        if m == node:
                            break
                    components.append(comp)
    return sorted(components, key=lambda c: (-len(c), min(c)))


class DropEdge(NamedTuple):
    source: TabKey
    generator: str
    target: TabKey
    source_size: int
    target_size: int
    config: str | None  # one of I..V for classified drop-by-one edges


class DropAuditReport(NamedTuple):
    """The triple-set size bound on every generator summand out of the
    window keys.  A size decrease of two or more is a violation; a decrease
    of exactly one is a drop and must match one of the five local
    configurations, of which the generic family has none.  The audit passes
    when there is no violation and no unclassified drop."""

    edges_scanned: int
    violations: tuple[DropEdge, ...]
    drops: tuple[DropEdge, ...]

    @property
    def unclassified(self) -> tuple[DropEdge, ...]:
        return tuple(e for e in self.drops if e.config is None)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unclassified

    def to_json(self) -> dict:
        """The report as JSON data.  Each distinct key's JSON object is built
        once and shared by every edge that names it, and equal rows share one
        list between those objects, so the data must not be mutated in
        place."""
        edges_all = self.violations + self.drops + self.unclassified
        rows: dict[tuple[int, ...], list[int]] = {}

        def key_json(k: TabKey) -> dict:
            shift = []
            for row in reversed(k.shift.rows):  # top down, as Shift.to_json
                if row not in rows:
                    rows[row] = list(row)
                shift.append(rows[row])
            return {"shift": shift, "kind": k.kind.value}

        keys = {k: key_json(k) for k in dict.fromkeys(k for e in edges_all for k in (e.source, e.target))}

        def edges(kept: list[DropEdge]) -> list[dict]:
            return [
                {
                    "source": keys[e.source],
                    "generator": e.generator,
                    "target": keys[e.target],
                    "sizes": [e.source_size, e.target_size],
                    "config": e.config,
                }
                for e in kept
            ]

        return {
            "edges_scanned": self.edges_scanned,
            "violations": edges(self.violations),
            "drop_by_one_edges": edges(self.drops),
            "unclassified_drops": edges(self.unclassified),
            "ok": self.ok,
        }


def _drop_edge(
    v: BaseVector, src: TabKey, size_src: int, a: int, b: int, s0: int, comp_kind: Kind, target: TabKey
) -> DropEdge | None:
    """The summand of E(a,b) on src at target as an audit edge, or None
    when the target's triple set has at least the source's size_src."""
    size_tgt = sum(1 for _ in _omega_triples(v, target.shift))
    if size_tgt >= size_src:
        return None
    config = _drop_config(v, src, min(a, b), b - a, s0, comp_kind) if size_tgt == size_src - 1 else None
    return DropEdge(src, f"E({a},{b})", target, size_src, size_tgt, config)


def _drop_config(
    v: BaseVector,
    src: TabKey,
    row: int,
    direction: int,
    s0: int,
    comp_kind: Kind,
) -> str | None:
    """Match a drop-by-one emission against the five local patterns around
    the singular row; outside the one-singular family there are none.

    Patterns are recognized on either singular position: the published
    displays fix one arrangement of the pair, but the swap symmetry of the
    basis produces the mirrored configurations with identical coefficient
    mechanics.  A derivative source matches I, or II/III when the moved
    singular entry (k, s0) equals an entry of the numerator row k +- 1; a
    regular source matches IV/V by the same test once its label is
    swap-fixed (the derivative tableau there is zero).
    """
    if v.singular is None or comp_kind is not Kind.REGULAR:
        return None
    k, i, j = v.singular
    z = src.shift

    def equal(r: int, s: int, q: int, t: int) -> bool:
        return v.int_diff(z, r, s, q, t) == 0

    derivative = src.kind is Kind.DERIVATIVE
    if not derivative and canonicalize(v, Kind.DERIVATIVE, z)[1]:
        return None
    if derivative and row == k - 1 and direction > 0 and (equal(k - 1, s0, k, i) or equal(k - 1, s0, k, j)):
        return "I"
    nb = k + direction
    if row == k and s0 in (i, j) and any(equal(nb, t, k, s0) for t in range(1, nb + 1)):
        if direction > 0:
            return "II" if derivative else "IV"
        return "III" if derivative else "V"
    return None


class Verdict(NamedTuple):
    """The status and its window evidence, the interior keys that one closure
    omits (in window order); the witness fields are set when reducible."""

    status: str  # "irreducible" or "reducible"
    neighbor_integral_pairs: tuple[Triple, ...]
    witness: Shift | None = None
    witness_omega_size: int | None = None
    closure_size: int | None = None
    window_size: int | None = None
    omitted_interior: tuple[TabKey, ...] = ()

    @property
    def interior_covered(self) -> bool:
        return not self.omitted_interior

    @property
    def ok(self) -> bool:
        """The closure omits an interior key exactly when the status is reducible."""
        return bool(self.omitted_interior) == (self.status == "reducible")

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
            out["proper_submodule_audited"] = not self.interior_covered
        else:
            out["interior_covered_by_bfs"] = self.interior_covered
        return out


def irreducibility_verdict(v: BaseVector, win: Window) -> Verdict:
    """Irreducibility of the one-singular module, with window evidence.

    The module is irreducible exactly when no two entries of neighboring
    rows differ by an integer.  The evidence is one reachability closure,
    from the witness (the first window key of largest triple set) when
    reducible and from the center's basis key otherwise.
    """
    singular_triple(v)
    pairs = v.integral_pairs
    keys = win.keys(v)
    start = max(keys, key=lambda k: len(omega_plus(v, k))) if pairs else basis_key(v, win.center)
    closure = set(reach_closure(reach_scan(v, keys)[0], keys.index(start)))
    omitted = tuple(k for i, k in enumerate(keys) if i not in closure and win.is_interior(k.shift))
    return Verdict(
        status="reducible" if pairs else "irreducible",
        neighbor_integral_pairs=pairs,
        witness=start.shift if pairs else None,
        witness_omega_size=len(omega_plus(v, start)) if pairs else None,
        closure_size=len(closure),
        window_size=len(keys),
        omitted_interior=omitted,
    )
