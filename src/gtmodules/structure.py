"""Combinatorial structure of the tableau modules on finite windows.

The lattice of basis keys is infinite; every statement here is therefore
audited on an L-infinity window of shifts around a center, with an interior
margin so that boundary truncation can only under-approximate reachability.
The module provides the non-negative-integral-difference triple sets that
control submodule structure, the predicted window bases of submodules and
irreducible subquotients, separating elements of the commuting subalgebra,
the irreducibility verdict with a reducibility witness, and the window's
single-generator edges.  One walk over the generator summands,
:func:`reach_scan`, gives both the reachability graph (read by its
transitive closure and strongly connected components) and the audit of how
the triple-set size can drop along those edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .action import (
    ModVec,
    _add_term,
    _apply_e_key,
    _check_key,
    _gamma_from_entries,
    _summands,
    act_e,
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
    classify,
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
    "basis_N_window",
    "basis_I_window",
    "basis_Ik_window",
    "SeparatorRecipe",
    "separator",
    "reach_graph",
    "reach_scan",
    "reach_closure",
    "reach_components",
    "DropEdge",
    "DropAuditReport",
    "Verdict",
    "irreducibility_verdict",
    "neighbor_integral_pairs",
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
    """The canonical basis element labelled by the shift w: regular when the
    singular components satisfy w_ki <= w_kj, derivative otherwise."""
    cls = classify(v)
    if cls.family is not Family.ONE_SINGULAR:
        return TabKey(w, Kind.REGULAR)
    k, i, j = cls.singular
    if w.get(k, i) - w.get(k, j) > 0:
        return TabKey(w, Kind.DERIVATIVE)
    return TabKey(w, Kind.REGULAR)


@dataclass(frozen=True)
class Window:
    """L-infinity box of shifts around a center, with an interior margin."""

    center: Shift
    radius: int
    margin: int = 1

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if not (0 <= self.margin <= self.radius):
            raise ValueError("margin must lie between 0 and radius")

    def shifts(self) -> list[Shift]:
        n = self.center.n
        positions = [(r, s) for r in range(1, n) for s in range(1, r + 1)]
        ranges = [
            range(self.center.get(r, s) - self.radius, self.center.get(r, s) + self.radius + 1)
            for (r, s) in positions
        ]
        out = []
        for combo in product(*ranges):
            rows = []
            idx = 0
            for r in range(1, n):
                rows.append(tuple(combo[idx : idx + r]))
                idx += r
            out.append(Shift(n, tuple(rows)))
        return out

    def contains(self, w: Shift) -> bool:
        return all(
            abs(w.get(r, s) - self.center.get(r, s)) <= self.radius
            for (r, s) in self.center.positions()
        )

    def is_interior(self, w: Shift) -> bool:
        return all(
            abs(w.get(r, s) - self.center.get(r, s)) <= self.radius - self.margin
            for (r, s) in self.center.positions()
        )

    def keys(self, v: BaseVector) -> list[TabKey]:
        return [basis_key(v, w) for w in self.shifts()]


@lru_cache(maxsize=None)
def _omega_plus_shift(v: BaseVector, w: Shift) -> frozenset[Triple]:
    return frozenset(
        (r, s, t)
        for r, s, t in neighbor_integral_pairs(v)
        if (v.entry(r, s) + w.get(r, s)) - (v.entry(r - 1, t) + w.get(r - 1, t)) >= 0
    )


# Every module-level memo cache of the package.  All are keyed on values of
# one base vector, so the CLI empties them before each command.  The tuple
# holds the cache objects themselves: a wrapper rebound over a module name
# later (a tracer, a mock) must not hide a cache from the reset.
_MEMO_CACHES = (act_e, _apply_e_key, _gamma_from_entries, _omega_plus_shift)


def _clear_memo_caches() -> None:
    """Empty every memo cache; this also resets its hit and miss counts."""
    for cache in _MEMO_CACHES:
        cache.cache_clear()


def omega_plus(v: BaseVector, key: TabKey | Shift) -> frozenset[Triple]:
    """Triples (r, s, t) whose row-r entry exceeds the row-(r-1) entry by a
    non-negative integer; anchor equality decides integrality exactly."""
    w = key.shift if isinstance(key, TabKey) else key
    return _omega_plus_shift(v, w)


def omega_k_plus(v: BaseVector, key: TabKey | Shift) -> frozenset[Triple]:
    """Restriction of the triple set to rows at most the singular row."""
    k, _i, _j = singular_triple(v)
    return frozenset(t for t in omega_plus(v, key) if t[0] <= k)


def basis_N_window(v: BaseVector, w0: Shift, keys: list[TabKey]) -> set[TabKey]:
    """Window part of the predicted basis of the submodule generated by the
    tableau at w0 (generic family): the window keys whose triple set
    contains that of w0."""
    if classify(v).family is not Family.GENERIC:
        raise ValueError("submodule basis prediction requires a generic vector")
    base = omega_plus(v, w0)
    return {k for k in keys if base <= omega_plus(v, k)}


def basis_I_window(v: BaseVector, w0: Shift, keys: list[TabKey]) -> set[TabKey]:
    """Window part of the predicted irreducible subquotient basis (generic
    family): the window keys with triple set equal to that of w0."""
    if classify(v).family is not Family.GENERIC:
        raise ValueError("subquotient basis prediction requires a generic vector")
    base = omega_plus(v, w0)
    return {k for k in keys if omega_plus(v, k) == base}


def basis_Ik_window(v: BaseVector, key0: TabKey, keys: list[TabKey]) -> set[TabKey]:
    """Window part of the irreducible subquotient basis through key0 in the
    one-singular family, among the given window keys; valid when no
    neighboring-row integral pair exists above the singular row."""
    k, _i, _j = singular_triple(v)
    for r, s, t in neighbor_integral_pairs(v):
        if r > k:
            raise HypothesisViolated(
                f"rows {r} and {r - 1} carry an integral pair at positions "
                f"({r},{s}) and ({r - 1},{t})"
            )
    base = omega_k_plus(v, key0)
    return {kk for kk in keys if omega_k_plus(v, kk) == base}


@dataclass(frozen=True)
class SeparatorRecipe:
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

    def atoms(self) -> list[dict]:
        scale = 1 / (self.a * self.a)
        out = [
            {"kind": "C_power", "level": [self.r, self.s], "at": self.z.to_json(), "power": 2, "scale": str(scale)}
        ]
        if self.beta:
            out.append(
                {
                    "kind": "C_power",
                    "level": [self.k, 2],
                    "at": self.w.to_json(),
                    "power": 1,
                    "compose_with_previous": True,
                    "scale": str(-self.beta * scale),
                }
            )
        return out

    def apply(self, v: BaseVector, target: TabKey | ModVec) -> ModVec:
        vec = target if isinstance(target, ModVec) else ModVec.single(target)
        u = act_gamma(v, self.r, self.s, act_gamma(v, self.r, self.s, vec, shift=self.z), shift=self.z)
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
    k, i, j = singular_triple(v)
    if w == z or w == z.swap(k, i, j):
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
) -> tuple[dict[TabKey, list[TabKey]], DropAuditReport | None]:
    """Reach graph on the window keys, and with ``audit`` their drop audit,
    from one pass over the generator summands.

    The graph maps each key, in the given order, to the other window keys
    that receive a nonzero coefficient from one raising or lowering
    generator applied to it, in first-seen order and stored as the window's
    own key objects.  Each generator's summands are read once and summed in
    a local dict, so targets whose summands cancel get no edge.  In the
    one-singular family a derivative key also reaches the support of the
    recentred level (k, 2) element, the only single element of the
    subalgebra that moves a basis vector.

    With ``audit``, every summand is also checked against the triple-set
    size bound.  A size decrease of two or more is a violation; a decrease
    of exactly one must match one of the five local configurations.  Both
    lists must come back empty for the audit to pass (the generic family
    admits no decrease at all).
    """
    cls = classify(v)
    if audit and cls.family not in (Family.GENERIC, Family.ONE_SINGULAR):
        raise ValueError("audit requires a generic or one-singular vector")
    report = DropAuditReport(vector=v) if audit else None
    window = {key: key for key in keys}
    # the raising and lowering generators; the diagonal E(r,r) maps a key
    # only to itself and moves nothing
    gens = [(a, b) for r in range(1, v.n) for a, b in ((r, r + 1), (r + 1, r))]
    graph: dict[TabKey, list[TabKey]] = {}
    for key in keys:
        _check_key(v, key)
        targets: dict[TabKey, None] = {}
        size_src = len(omega_plus(v, key)) if audit else 0
        for a, b in gens:
            acc: dict[TabKey, Fraction] = {}
            for s0, comp_kind, tkey, coeff in _summands(v, a, b, key):
                if report is not None:
                    report.scan(key, size_src, a, b, s0, comp_kind, tkey)
                _add_term(acc, tkey, coeff)
            targets.update(dict.fromkeys(acc))
        if cls.family is Family.ONE_SINGULAR and key.kind is Kind.DERIVATIVE:
            k = cls.singular[0]
            targets.update(dict.fromkeys(act_gamma(v, k, 2, key, shift=key.shift).support()))
        graph[key] = [window[tkey] for tkey in targets if tkey in window]
    return graph, report


def reach_graph(v: BaseVector, win: Window) -> dict[TabKey, list[TabKey]]:
    """Single-generator reachability digraph on the window keys, in window
    order: :func:`reach_scan` without the drop audit."""
    return reach_scan(v, win.keys(v))[0]


def reach_closure(graph: dict[TabKey, list[TabKey]], key: TabKey) -> frozenset[TabKey]:
    """Transitive closure of single-generator reachability from a window key,
    read off the window graph.

    Every member is genuinely reachable by one enveloping-algebra element;
    boundary truncation can only omit keys, never add them.
    """
    seen = {key}
    frontier = [key]
    while frontier:
        nxt = []
        for cur in frontier:
            for tkey in graph[cur]:
                if tkey not in seen:
                    seen.add(tkey)
                    nxt.append(tkey)
        frontier = nxt
    return frozenset(seen)


def reach_components(graph: dict[TabKey, list[TabKey]]) -> list[frozenset[TabKey]]:
    """Strongly connected components of the window reachability digraph,
    largest first.

    Boundary keys often form singletons because their outgoing edges leave
    the window; claims should therefore be read on interior keys only.
    """
    index: dict[TabKey, int] = {}
    low: dict[TabKey, int] = {}
    on_stack: set[TabKey] = set()
    stack: list[TabKey] = []
    components: list[frozenset[TabKey]] = []
    counter = [0]

    def strongconnect(root: TabKey):
        work = [(root, iter(graph[root]))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph[succ])))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    comp.add(member)
                    if member == node:
                        break
                components.append(frozenset(comp))

    for k in graph:
        if k not in index:
            strongconnect(k)
    return sorted(components, key=lambda c: (-len(c), min(key_sort_key(k) for k in c)))


@dataclass(frozen=True)
class DropEdge:
    source: TabKey
    generator: str
    target: TabKey
    source_size: int
    target_size: int
    config: str | None  # one of I..V for classified drop-by-one edges

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "generator": self.generator,
            "target": self.target.to_json(),
            "sizes": [self.source_size, self.target_size],
            "config": self.config,
        }


@dataclass
class DropAuditReport:
    vector: BaseVector
    edges_scanned: int = 0
    violations: list[DropEdge] = field(default_factory=list)
    drops: list[DropEdge] = field(default_factory=list)
    unclassified: list[DropEdge] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.unclassified

    def scan(
        self, src: TabKey, size_src: int, a: int, b: int, s0: int, comp_kind: Kind, target: TabKey
    ) -> None:
        """Check one summand of E(a,b) on src, whose triple set has size_src
        elements, against the size bound."""
        self.edges_scanned += 1
        size_tgt = len(omega_plus(self.vector, target))
        if size_tgt >= size_src:
            return
        drop_by_one = size_tgt == size_src - 1
        config = _drop_config(self.vector, src, min(a, b), b - a, s0, comp_kind) if drop_by_one else None
        edge = DropEdge(
            source=src,
            generator=f"E({a},{b})",
            target=target,
            source_size=size_src,
            target_size=size_tgt,
            config=config,
        )
        if not drop_by_one:
            self.violations.append(edge)
            return
        self.drops.append(edge)
        if config is None:
            self.unclassified.append(edge)

    def to_json(self) -> dict:
        return {
            "edges_scanned": self.edges_scanned,
            "violations": [e.to_json() for e in self.violations],
            "drop_by_one_edges": [e.to_json() for e in self.drops],
            "unclassified_drops": [e.to_json() for e in self.unclassified],
            "ok": self.ok,
        }


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
    mechanics.
    """
    cls = classify(v)
    if cls.family is not Family.ONE_SINGULAR or comp_kind is not Kind.REGULAR:
        return None
    k, i, j = cls.singular
    z = src.shift

    def ent(r: int, s: int) -> Fraction:
        return v.entry(r, s) + z.get(r, s)

    p, q = ent(k, i), ent(k, j)
    if src.kind is Kind.DERIVATIVE:
        if row == k - 1 and direction > 0 and ent(k - 1, s0) in (p, q):
            return "I"
        if row == k and direction > 0 and s0 in (i, j):
            if any(ent(k + 1, t) == ent(k, s0) for t in range(1, k + 2)):
                return "II"
        if row == k and direction < 0 and s0 in (i, j):
            if k >= 2 and any(ent(k - 1, t) == ent(k, s0) for t in range(1, k)):
                return "III"
        return None
    if p != q:
        return None
    if row == k and direction > 0 and s0 in (i, j):
        if any(ent(k + 1, t) == p for t in range(1, k + 2)):
            return "IV"
    if row == k and direction < 0 and s0 in (i, j):
        if k >= 2 and any(ent(k - 1, t) == p for t in range(1, k)):
            return "V"
    return None


@dataclass(frozen=True)
class Verdict:
    status: str  # "irreducible" or "reducible"
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


def neighbor_integral_pairs(v: BaseVector) -> tuple[Triple, ...]:
    out = []
    for r in range(2, v.n + 1):
        for s in range(1, r + 1):
            for t in range(1, r):
                if v.anchor_index(r, s) == v.anchor_index(r - 1, t):
                    out.append((r, s, t))
    return tuple(out)


def irreducibility_verdict(v: BaseVector, win: Window) -> Verdict:
    """Irreducibility of the one-singular module, with an audited witness.

    The module is irreducible exactly when no two entries of neighboring
    rows differ by an integer.  In the reducible case the witness shift
    maximizes the triple-set size over the window (lexicographic
    tie-break); the generated submodule is audited to be proper by checking
    that its reachability closure omits interior keys.
    """
    singular_triple(v)
    pairs = neighbor_integral_pairs(v)
    graph = reach_graph(v, win)
    interior = [k for k in graph if win.is_interior(k.shift)]
    if not pairs:
        closure = reach_closure(graph, basis_key(v, win.center))
        return Verdict(
            status="irreducible",
            neighbor_integral_pairs=(),
            interior_covered=set(interior) <= closure,
            closure_size=len(closure),
            window_size=len(graph),
        )
    witness = min(graph, key=lambda k: (-len(omega_plus(v, k)), k.shift.rows))
    closure = reach_closure(graph, witness)
    omitted = sorted((k for k in interior if k not in closure), key=key_sort_key)
    return Verdict(
        status="reducible",
        neighbor_integral_pairs=pairs,
        witness=witness.shift,
        witness_omega_size=len(omega_plus(v, witness)),
        closure_size=len(closure),
        window_size=len(graph),
        omitted_interior=tuple(omitted),
    )
