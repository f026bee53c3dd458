"""Gelfand-Tsetlin tableaux: base vectors, integer shifts and basis keys.

A base vector encodes a triangular array of rationals through *anchors*:
a short list of rationals with pairwise distinct fractional parts, an
anchor index per position, and an integer offset per position.  Two
entries differ by an integer exactly when they carry the same anchor, so
every "integral difference" question in the tableau combinatorics is
decided exactly by comparing anchor indices and offsets.

Basis elements are labelled by ``TabKey`` values: an integer shift of the
rows below the top together with the kind marker ``T`` (regular tableau)
or ``DT`` (derivative tableau, present only in the one-singular family).
The quotient relations between a shift and its row-k transposition are
folded into :func:`canonicalize`, so only canonical labels circulate.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from itertools import product
from typing import NamedTuple

from .ratcalc import parse_rat

# Row products in the action formulas grow factorially with n; the cap
# keeps exact arithmetic at desk scale.  Raise it deliberately if needed.
N_CAP = 6

__all__ = [
    "N_CAP",
    "Family",
    "Classification",
    "Kind",
    "Shift",
    "TabKey",
    "BaseVector",
    "singular_triple",
    "is_standard",
    "standard_shifts",
    "canonicalize",
]


class Family(enum.Enum):
    FINITE_STANDARD = "finite_standard"
    GENERIC = "generic"
    ONE_SINGULAR = "one_singular"
    UNSUPPORTED = "unsupported"


class Classification(NamedTuple):
    family: Family
    singular: tuple[int, int, int] | None = None  # (k, i, j), i < j, in row k


class Kind(enum.Enum):
    REGULAR = "T"
    DERIVATIVE = "DT"

    # members are singletons compared by identity, so the identity hash is
    # consistent with equality and skips Enum's Python-level __hash__
    __hash__ = object.__hash__


class _ShiftFields(NamedTuple):
    n: int
    rows: tuple[tuple[int, ...], ...]


class Shift(_ShiftFields):
    """Integer shift of the tableau rows 1..n-1; the top row never moves.

    rows[r-1] holds row r (length r), ordered bottom row last in the JSON
    form but stored here ascending by row index.
    """

    __slots__ = ()

    def __new__(cls, n: int, rows: tuple[tuple[int, ...], ...]) -> "Shift":
        if len(rows) != n - 1:
            raise ValueError(f"a gl({n}) shift must have {n - 1} rows (rows 1..{n - 1}), got {len(rows)}")
        for r, row in enumerate(rows, start=1):
            if len(row) != r:
                raise ValueError(f"row {r} of shift must have {r} entries")
        return tuple.__new__(cls, (n, rows))

    @classmethod
    def zero(cls, n: int) -> "Shift":
        return cls(n, tuple(tuple(0 for _ in range(r)) for r in range(1, n)))

    def get(self, r: int, s: int) -> int:
        if r == self.n:
            return 0
        return self.rows[r - 1][s - 1]

    def bump(self, r: int, s: int, amount: int) -> "Shift":
        """Add amount at (r, s); every other row is the same tuple object."""
        if not (1 <= s <= r <= self.n - 1):
            raise ValueError(f"position ({r},{s}) is not shiftable")
        row = list(self.rows[r - 1])
        row[s - 1] += amount
        return self._with_row(r, row)

    def swap(self, k: int, i: int, j: int) -> "Shift":
        """Exchange the entries at (k, i) and (k, j); every other row is the
        same tuple object."""
        row = list(self.rows[k - 1])
        row[i - 1], row[j - 1] = row[j - 1], row[i - 1]
        return self._with_row(k, row)

    def _with_row(self, r: int, row: list[int]) -> "Shift":
        return Shift(self.n, self.rows[: r - 1] + (tuple(row),) + self.rows[r:])

    def to_json(self) -> list[list[int]]:
        """Rows listed top down (row n-1 first), matching the vector layout."""
        return [list(row) for row in reversed(self.rows)]

    @classmethod
    def from_json(cls, n: int, data) -> "Shift":
        """Rows listed top down, each a JSON array of integers; any other
        JSON value raises ValueError naming it."""
        if not isinstance(data, list) or not all(isinstance(row, list) for row in data):
            raise ValueError(f"a shift must be a list of integer rows, got {data!r}")
        return cls(n, tuple(tuple(_json_int(x) for x in row) for row in reversed(data)))


class TabKey(NamedTuple):
    shift: Shift
    kind: Kind

    def to_json(self) -> dict:
        return {"shift": self.shift.to_json(), "kind": self.kind.value}

    @classmethod
    def from_json(cls, n: int, data) -> "TabKey":
        """A JSON object {"shift": rows, "kind": "T" or "DT"}; any other
        shape raises ValueError naming the field."""
        if not isinstance(data, dict):
            raise ValueError(f"a basis key must be a JSON object, got {type(data).__name__}")
        kinds = [kind.value for kind in Kind]
        if _json_field(data, "kind", "basis key") not in kinds:
            raise ValueError(f"basis key field 'kind' must be one of {kinds}, got {data['kind']!r}")
        try:
            shift = Shift.from_json(n, _json_field(data, "shift", "basis key"))
        except ValueError as exc:
            raise ValueError(f"basis key field 'shift': {exc}") from None
        return cls(shift, Kind(data["kind"]))


def _frac_part(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


class BaseVector:
    """The fixed vector of the module: anchored rationals at each position.

    ``assignment[r-1][s-1]`` is the anchor index of position (r, s) and
    ``offsets[r-1][s-1]`` the integer offset, for 1 <= s <= r <= n with rows
    stored ascending.  ``deformed_rows[r-1]`` keeps row r as pairs (entry,
    slope): entry(r, s) = anchors[assignment] + offset, deformed to entry +
    slope * t along the singular pair (k, i, j) with slope +1 at (k, i), -1
    at (k, j) and 0 elsewhere, so 0 everywhere outside the one-singular family.

    Within any row below the top, two positions may share an anchor only
    with equal offsets (the normalized singular configuration); the general
    integral pair is reached by shifting the basis label instead.

    The family the vector supports is decided once, on construction, and
    kept in ``classification``.  A single anchor shared by every position
    gives the finite standard family.  Otherwise the count of same-anchor
    pairs inside rows 1..n-1 decides: zero pairs is generic, exactly one is
    one-singular at (k, i, j), and two or more is unsupported.

    The neighbouring-row integral pairs are kept in ``integral_pairs``: the
    triples (r, s, t) whose positions (r, s) and (r-1, t) share an anchor.
    ``row_sums[r-1]`` is the sum of the entries of row r, and the hash of
    the four fields is taken once.  All of these are derived, so equality,
    hashing and repr read only the four fields; no attribute can be
    assigned after construction.
    """

    __slots__ = ("n", "anchors", "assignment", "offsets",
                 "classification", "deformed_rows", "integral_pairs", "row_sums", "_hash")
    classification: Classification
    deformed_rows: tuple[tuple[tuple[Fraction, int], ...], ...]
    integral_pairs: tuple[tuple[int, int, int], ...]
    row_sums: tuple[Fraction, ...]

    def __init__(self, n: int, anchors: tuple[Fraction, ...], assignment: tuple, offsets: tuple):
        for name, value in zip(self.__slots__, (n, anchors, assignment, offsets)):
            object.__setattr__(self, name, value)
        if not (2 <= self.n <= N_CAP):
            raise ValueError(f"n must be between 2 and {N_CAP}")
        if len(self.assignment) != self.n or len(self.offsets) != self.n:
            raise ValueError("assignment and offsets must cover rows 1..n")
        for r in range(1, self.n + 1):
            if len(self.assignment[r - 1]) != r or len(self.offsets[r - 1]) != r:
                raise ValueError(f"row {r} must have {r} entries")
        fracs = [_frac_part(a) for a in self.anchors]
        if len(set(fracs)) != len(fracs):
            raise ValueError("anchors must have pairwise distinct fractional parts")
        for row in self.assignment:
            for a in row:
                if not (0 <= a < len(self.anchors)):
                    raise ValueError("anchor index out of range")
        if len(set(a for row in self.assignment for a in row)) == 1:
            cls = Classification(Family.FINITE_STANDARD)
        else:
            # Mixed anchors: same-row anchor sharing below the top row is
            # only supported in the normalized form with equal entries.
            pairs = []
            for r in range(1, self.n):
                row = self.assignment[r - 1]
                offs = self.offsets[r - 1]
                for s in range(r):
                    for u in range(s + 1, r):
                        if row[s] == row[u] and offs[s] != offs[u]:
                            raise ValueError(
                                f"row {r} positions {s + 1},{u + 1} differ by a nonzero "
                                "integer; normalize to equal entries and shift the key"
                            )
                        if row[s] == row[u]:
                            pairs.append((r, s + 1, u + 1))
            if not pairs:
                cls = Classification(Family.GENERIC)
            elif len(pairs) == 1:
                cls = Classification(Family.ONE_SINGULAR, pairs[0])
            else:
                cls = Classification(Family.UNSUPPORTED)
        object.__setattr__(self, "classification", cls)
        k, i, j = cls.singular or (0, 0, 0)
        slopes = {(k, i): 1, (k, j): -1}
        object.__setattr__(self, "deformed_rows", tuple(
            tuple((self.anchors[a] + o, slopes.get((r, s), 0)) for s, (a, o) in enumerate(zip(arow, orow), start=1))
            for r, (arow, orow) in enumerate(zip(self.assignment, self.offsets), start=1)
        ))
        object.__setattr__(self, "integral_pairs", tuple(
            (r, s, t) for r in range(2, self.n + 1) for s in range(1, r + 1) for t in range(1, r)
            if self.assignment[r - 1][s - 1] == self.assignment[r - 2][t - 1]
        ))
        object.__setattr__(self, "row_sums", tuple(sum(c for c, _m in row) for row in self.deformed_rows))
        object.__setattr__(self, "_hash", hash(self._values()))

    def _values(self) -> tuple:
        return (self.n, self.anchors, self.assignment, self.offsets)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return "BaseVector(n={!r}, anchors={!r}, assignment={!r}, offsets={!r})".format(*self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"BaseVector is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def entry(self, r: int, s: int) -> Fraction:
        return self.deformed_rows[r - 1][s - 1][0]

    def int_diff(self, w: Shift, r: int, s: int, q: int, t: int) -> int | None:
        """entry(r, s) - entry(q, t) of the tableau shifted by w: an int when
        the two positions share an anchor, else None (not an integer)."""
        if self.assignment[r - 1][s - 1] != self.assignment[q - 1][t - 1]:
            return None
        return self.offsets[r - 1][s - 1] + w.get(r, s) - self.offsets[q - 1][t - 1] - w.get(q, t)

    def top_row(self) -> tuple[Fraction, ...]:
        return tuple(self.entry(self.n, s) for s in range(1, self.n + 1))

    @classmethod
    def from_rows(cls, rows) -> "BaseVector":
        """Build from explicit entries, rows listed top down (row n first).

        Anchors are derived from the distinct fractional parts; the first
        value seen with a given fractional part becomes the anchor.
        """
        rows = [[parse_rat(x) if isinstance(x, str) else Fraction(x) for x in row] for row in rows]
        n = len(rows)
        ascending = list(reversed(rows))
        anchors: list[Fraction] = []
        assignment = []
        offsets = []
        for r in range(1, n + 1):
            if len(ascending[r - 1]) != r:
                raise ValueError("rows must form a triangle (top row first)")
            arow = []
            orow = []
            for value in ascending[r - 1]:
                f = _frac_part(value)
                for idx, a in enumerate(anchors):
                    if _frac_part(a) == f:
                        break
                else:
                    anchors.append(value)
                    idx = len(anchors) - 1
                diff = value - anchors[idx]
                arow.append(idx)
                orow.append(int(diff))
            assignment.append(tuple(arow))
            offsets.append(tuple(orow))
        return cls(n, tuple(anchors), tuple(assignment), tuple(offsets))

    @classmethod
    def finite(cls, top_row) -> "BaseVector":
        """All-integral vector with the given top row and zeroed lower rows."""
        top = [int(x) for x in top_row]
        n = len(top)
        assignment = tuple(tuple(0 for _ in range(r)) for r in range(1, n + 1))
        offsets = tuple(
            tuple(top) if r == n else tuple(0 for _ in range(r)) for r in range(1, n + 1)
        )
        return cls(n, (Fraction(0),), assignment, offsets)

    @classmethod
    def from_weight(cls, weight) -> "BaseVector":
        """Finite-family vector for a dominant integral highest weight."""
        lam = [int(x) for x in weight]
        return cls.finite([lam[i] - i for i in range(len(lam))])

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "anchors": [str(a) for a in self.anchors],
            "assignment": [list(row) for row in reversed(self.assignment)],
            "offsets": [list(row) for row in reversed(self.offsets)],
        }

    @classmethod
    def from_json(cls, data) -> "BaseVector":
        """A JSON object whose rationals are "p/q" strings, indices and
        offsets integers, and rows lists; any other JSON value raises
        ValueError naming it or its field."""
        if not isinstance(data, dict):
            raise ValueError(f"a base vector must be a JSON object, got {type(data).__name__}")
        if "rows" in data:
            rows = _json_list(data, "rows", nested=True)
            return cls.from_rows([[parse_rat(x) for x in row] for row in rows])
        n = _json_int(_json_field(data, "n"))
        anchors = tuple(parse_rat(a) for a in _json_list(data, "anchors"))
        assignment = tuple(
            tuple(_json_int(x) for x in row) for row in reversed(_json_list(data, "assignment", nested=True))
        )
        offsets = tuple(
            tuple(_json_int(x) for x in row) for row in reversed(_json_list(data, "offsets", nested=True))
        )
        return cls(n, anchors, assignment, offsets)


def _json_field(data: dict, name: str, what: str = "base vector"):
    """data[name]; a missing field raises ValueError naming it."""
    if name not in data:
        raise ValueError(f"{what} field {name!r} is missing")
    return data[name]


def _json_list(data: dict, name: str, nested: bool = False) -> list:
    """data[name] as a JSON array, of arrays when nested."""
    value = _json_field(data, name)
    if not isinstance(value, list) or nested and not all(isinstance(row, list) for row in value):
        shape = "a list of lists" if nested else "a list"
        raise ValueError(f"base vector field {name!r} must be {shape}, got {value!r}")
    return value


def _json_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def singular_triple(v: BaseVector) -> tuple[int, int, int]:
    cls = v.classification
    if cls.family is not Family.ONE_SINGULAR:
        raise ValueError("base vector is not one-singular")
    return cls.singular


def is_standard(v: BaseVector, w: Shift) -> bool:
    """Interlacing test for the entries of the shifted tableau.

    Requires integral non-negative gaps down-left and integral positive
    gaps down-right between consecutive rows; a non-integral difference
    (distinct anchors) makes the condition false.
    """
    for k in range(2, v.n + 1):
        for i in range(1, k):
            d1 = v.int_diff(w, k, i, k - 1, i)
            if d1 is None or d1 < 0:
                return False
            d2 = v.int_diff(w, k - 1, i, k, i + 1)
            if d2 is None or d2 <= 0:
                return False
    return True


def standard_shifts(v: BaseVector) -> list[Shift]:
    """Every shift whose tableau is standard, sorted by rows, for a
    finite-family vector; none when the top row is not strictly decreasing.

    Rows are filled from the top down, each entry strictly above its
    down-right neighbor and at most its down-left one: exactly the
    interlacing condition.  All entries share one anchor, so the offsets
    interlace as the entries do.
    """
    if v.classification.family is not Family.FINITE_STANDARD:
        raise ValueError("standard shifts are enumerated only in the finite family")
    patterns = [(v.offsets[-1],)]  # offset rows, top down
    for _ in range(v.n - 1):
        patterns = [
            p + (row,) for p in patterns for row in product(*(range(b + 1, a + 1) for a, b in zip(p[-1], p[-1][1:])))
        ]
    shifts = [
        Shift(v.n, tuple(tuple(x - o for x, o in zip(row, base)) for row, base in zip(p[:0:-1], v.offsets)))
        for p in patterns
    ]
    return sorted(shifts, key=lambda w: w.rows)


def canonicalize(v: BaseVector, kind: Kind, w: Shift) -> tuple[TabKey, int]:
    """Resolve a (kind, shift) reference to the canonical basis key and sign.

    Regular tableaux are invariant under the row-k swap, so the canonical
    representative has w_ki - w_kj <= 0 with sign +1.  Derivative tableaux
    are antisymmetric: the canonical representative has w_ki - w_kj > 0,
    the swapped reference carries sign -1, and a swap-fixed shift is the
    zero vector (sign 0).
    """
    cls = v.classification
    if cls.family is not Family.ONE_SINGULAR:
        if kind is Kind.DERIVATIVE:
            raise ValueError("derivative tableaux exist only in the one-singular family")
        return TabKey(w, Kind.REGULAR), 1
    k, i, j = cls.singular
    d = w.get(k, i) - w.get(k, j)
    if kind is Kind.REGULAR:
        if d > 0:
            return TabKey(w.swap(k, i, j), Kind.REGULAR), 1
        return TabKey(w, Kind.REGULAR), 1
    if d == 0:
        return TabKey(w, Kind.DERIVATIVE), 0
    if d < 0:
        return TabKey(w.swap(k, i, j), Kind.DERIVATIVE), -1
    return TabKey(w, Kind.DERIVATIVE), 1
