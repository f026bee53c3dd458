"""Contracts of the value types, and what importing the CLI loads.

The value types are named tuples (Jet, Classification, Shift, TabKey,
Window, SeparatorRecipe, DropEdge, DropAuditReport, Verdict) or slotted
classes (BaseVector); their hashes equal the hash of their field tuple, so
set and dict orders, and with them every report, do not depend on how they
are built.
"""

import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from gtmodules.ratcalc import Jet
from gtmodules.structure import DropAuditReport, DropEdge, Window
from gtmodules.tableau import BaseVector, Kind, Shift, TabKey

SRC = Path(__file__).resolve().parent.parent / "src"
REMARK = [[F(1, 2), F(1, 3), F(1, 5)], [F(1, 7), F(1, 7)], [F(1, 7)]]


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import gtmodules.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", code, str(SRC)], capture_output=True, text=True, check=True, timeout=60
    )
    assert done.stdout.strip() == "[]"


def test_hash_is_hash_of_field_tuple():
    w = Shift(3, ((1,), (0, -1)))
    key = TabKey(w, Kind.DERIVATIVE)
    v = BaseVector.from_rows(REMARK)
    assert hash(w) == hash((3, ((1,), (0, -1))))
    assert hash(key) == hash((w, Kind.DERIVATIVE))
    assert hash(v) == hash((v.n, v.anchors, v.assignment, v.offsets))


def test_drop_audit_hash_is_hash_of_field_tuple():
    key = TabKey(Shift.zero(3), Kind.REGULAR)
    edge = DropEdge(key, "E(3,2)", key, 2, 1, "V")
    report = DropAuditReport(5, (), (edge,))
    assert hash(report) == hash((5, (), (edge,)))
    assert report == DropAuditReport(5, (), (DropEdge(key, "E(3,2)", key, 2, 1, "V"),))


def test_repr_keeps_field_form():
    key = TabKey(Shift(3, ((0,), (1, 0))), Kind.DERIVATIVE)
    assert repr(key) == "TabKey(shift=Shift(n=3, rows=((0,), (1, 0))), kind=<Kind.DERIVATIVE: 'DT'>)"
    # the derived classification, deformed rows and integral pairs stay out of the repr
    assert repr(BaseVector.from_weight([1, 0])) == (
        "BaseVector(n=2, anchors=(Fraction(0, 1),), assignment=((0,), (0, 0)), offsets=((0,), (1, -1)))"
    )


@pytest.mark.parametrize(
    "make,field",
    [
        (lambda: Jet(0, (F(1), F(0))), "order"),
        (lambda: Shift.zero(3), "rows"),
        (lambda: TabKey(Shift.zero(3), Kind.REGULAR), "kind"),
        (lambda: Window(Shift.zero(3), 1), "radius"),
        (lambda: DropAuditReport(0, (), ()), "drops"),
        (lambda: BaseVector.from_rows(REMARK), "n"),
        (lambda: BaseVector.from_rows(REMARK), "classification"),
        (lambda: BaseVector.from_rows(REMARK), "deformed_rows"),
        (lambda: BaseVector.from_rows(REMARK), "extra"),
    ],
    ids=["jet", "shift", "key", "window", "drop-audit", "vector", "vector-derived", "vector-deformed", "vector-new"],
)
def test_fields_cannot_be_assigned(make, field):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, field, None)


def test_vector_cannot_lose_a_field():
    v = BaseVector.from_rows(REMARK)
    with pytest.raises(AttributeError):
        del v.offsets
    assert v.offsets == ((0,), (0, 0), (0, 0, 0))


def test_vector_equality_ignores_derived_fields():
    v = BaseVector.from_rows(REMARK)
    u = BaseVector(v.n, v.anchors, v.assignment, v.offsets)
    object.__setattr__(u, "classification", None)
    object.__setattr__(u, "integral_pairs", ())
    object.__setattr__(u, "deformed_rows", ())
    assert u == v and hash(u) == hash(v)
    assert v != BaseVector(v.n, v.anchors, v.assignment, ((0,), (0, 0), (1, 0, 0)))


@pytest.mark.parametrize(
    "rows,shown",
    [
        (((0,),), "a gl(3) shift must have 2 rows (rows 1..2), got 1"),
        (((0,), (0, 0), (0, 0, 0)), "a gl(3) shift must have 2 rows (rows 1..2), got 3"),
        (((0,), (0,)), "row 2 of shift must have 2 entries"),
    ],
)
def test_shift_rejects_bad_sizes(rows, shown):
    with pytest.raises(ValueError) as exc:
        Shift(3, rows)
    assert str(exc.value) == shown


@pytest.mark.parametrize(
    "radius,margin,shown",
    [(0, 0, "radius must be >= 1"), (1, 2, "margin must lie between 0 and radius"), (2, -1, "margin must lie")],
)
def test_window_rejects_bad_bounds(radius, margin, shown):
    with pytest.raises(ValueError, match=shown):
        Window(Shift.zero(3), radius, margin)


def test_window_margin_defaults_to_one():
    assert Window(Shift.zero(3), 2) == Window(center=Shift.zero(3), radius=2, margin=1)
