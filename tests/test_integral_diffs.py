"""Integral differences read from the anchor encoding against the Fraction
route they replaced.

``BaseVector.int_diff`` decides every "differ by an integer" question from
anchor indices and offsets.  The functions below are the earlier bodies of
the ``integral_pairs`` scan, ``omega_plus``, ``is_standard`` and
``_drop_config``, which subtract the shifted entries as ``Fraction`` values
and test denominators and equality.  They are kept unchanged as the
independent route the library is compared with.
"""

from fractions import Fraction

import pytest

import gtmodules.structure
from gtmodules.structure import Window, _drop_config, _drop_edge, omega_plus, reach_scan
from gtmodules.tableau import BaseVector, Family, Kind, Shift, TabKey, is_standard

from helpers import anchor_index


def neighbor_integral_pairs_fraction(v: BaseVector):
    out = []
    for r in range(2, v.n + 1):
        for s in range(1, r + 1):
            for t in range(1, r):
                if anchor_index(v, r, s) == anchor_index(v, r - 1, t):
                    out.append((r, s, t))
    return tuple(out)


def omega_plus_fraction(v: BaseVector, key):
    w = key.shift if isinstance(key, TabKey) else key
    return frozenset(
        (r, s, t)
        for r, s, t in neighbor_integral_pairs_fraction(v)
        if (v.entry(r, s) + w.get(r, s)) - (v.entry(r - 1, t) + w.get(r - 1, t)) >= 0
    )


def is_standard_fraction(v: BaseVector, w: Shift) -> bool:
    for k in range(2, v.n + 1):
        for i in range(1, k):
            upper = v.entry(k, i) + w.get(k, i)
            lower = v.entry(k - 1, i) + w.get(k - 1, i)
            right = v.entry(k, i + 1) + w.get(k, i + 1)
            d1 = upper - lower
            if d1.denominator != 1 or d1 < 0:
                return False
            d2 = lower - right
            if d2.denominator != 1 or d2 <= 0:
                return False
    return True


def drop_config_fraction(
    v: BaseVector,
    src: TabKey,
    row: int,
    direction: int,
    s0: int,
    comp_kind: Kind,
) -> str | None:
    if v.family is not Family.ONE_SINGULAR or comp_kind is not Kind.REGULAR:
        return None
    k, i, j = v.singular
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


@pytest.fixture(scope="module")
def v_sing4_row3_below():
    """One-singular gl(4), pair (3,1,3), whose anchor recurs in row 2."""
    q = [Fraction(k, 23) for k in range(1, 11)]
    return BaseVector.from_rows([[q[0], q[1], q[2], q[3]], [q[4], q[5], q[4]], [q[4], q[6]], [q[7]]])


@pytest.fixture(scope="module")
def v_gen3_offsets():
    """Generic gl(3) whose offsets interlace across two anchors: entries
    (2, 0, -2 | 1, 1/2 | 0), so no shift makes it standard."""
    return BaseVector(3, (Fraction(0), Fraction(1, 2)), ((0,), (0, 1), (0, 0, 0)), ((0,), (1, 0), (2, 0, -2)))


# (vector, window radius, whether it has neighbouring-row integral pairs,
# whether its drop audit matches any local configuration)
CASES = [
    ("v_rem", 2, True, True),
    ("v_sing_top", 2, True, True),
    ("v_sing4", 1, False, False),
    ("v_sing4_row3", 1, False, False),
    ("v_sing4_row3_below", 1, True, True),
    ("v_gen3_chain", 2, True, False),
]


def window_keys(v: BaseVector, radius: int) -> list[TabKey]:
    return Window(center=Shift.zero(v.n), radius=radius).keys(v)


@pytest.mark.parametrize("vector", [c[0] for c in CASES] + ["v_gen3", "v_sing_irr", "v_fin3_210"])
def test_integral_pairs_match(request, vector):
    v = request.getfixturevalue(vector)
    assert v.integral_pairs == neighbor_integral_pairs_fraction(v)


@pytest.mark.parametrize("vector,radius,paired", [c[:3] for c in CASES])
def test_omega_plus_matches_on_every_window_key(request, vector, radius, paired):
    v = request.getfixturevalue(vector)
    sizes = set()
    for key in window_keys(v, radius):
        got = omega_plus(v, key)
        assert got == omega_plus_fraction(v, key), key
        sizes.add(len(got))
    assert (len(sizes) > 1) is paired  # the window sees the triple set change


@pytest.mark.parametrize("vector,radius,configured", [c[:2] + c[3:] for c in CASES])
def test_drop_config_matches_on_every_audited_summand(request, monkeypatch, vector, radius, configured):
    v = request.getfixturevalue(vector)
    scanned = []

    def record(v, src, size_src, a, b, s0, comp_kind, target):
        scanned.append((src, min(a, b), b - a, s0, comp_kind))
        return _drop_edge(v, src, size_src, a, b, s0, comp_kind, target)

    monkeypatch.setattr(gtmodules.structure, "_drop_edge", record)
    report = reach_scan(v, window_keys(v, radius), audit=True)[1]
    assert len(scanned) == report.edges_scanned > 0
    configs = set()
    for args in scanned:
        got = _drop_config(v, *args)
        assert got == drop_config_fraction(v, *args), args
        configs.add(got)
    assert (configs != {None}) is configured


@pytest.mark.parametrize(
    "vector,standard",
    [("v_fin3_210", 8), ("v_gen3", 0), ("v_gen3_chain", 0), ("v_gen3_offsets", 0)],
)
def test_is_standard_matches_on_a_box(request, vector, standard):
    v = request.getfixturevalue(vector)
    shifts = Window(center=Shift.zero(3), radius=2).shifts()
    got = [is_standard(v, w) for w in shifts]
    assert got == [is_standard_fraction(v, w) for w in shifts]
    assert sum(got) == standard
