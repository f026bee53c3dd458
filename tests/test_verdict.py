"""The verdict's one closure route, its pass rule, and the window order that
both rely on.

Window keys come in ``key_sort_key`` order, so the first key of largest
triple set is the old lexicographic tie-break, and the interior keys a
closure omits need no sort.  The verdict is compared with the two-branch
body it replaced (``helpers.old_irreducibility_verdict``) and ``Verdict.ok``
with the exit rule the CLI used to read off the report.
"""

import pytest

import gtmodules.structure
from gtmodules.structure import Verdict, Window, irreducibility_verdict, key_sort_key, reach_components
from gtmodules.tableau import Kind, Shift, TabKey

from helpers import old_irreducibility_verdict, old_verdict_passes
from test_acceptance import _audit_radius, _irreducible_vectors, _reducible_vectors

OFF_CENTER = Shift.from_json(3, [[1, 0], [0]])  # the compact centre 1,0;0


class TestWindowOrder:
    @pytest.mark.parametrize("case", ["v_rem", "v_sing_irr", "v_gen3_chain"])
    @pytest.mark.parametrize("center", [Shift.zero(3), OFF_CENTER], ids=["centred", "off-centre"])
    @pytest.mark.parametrize("radius", [1, 2])
    def test_gl3_window_keys_are_in_key_order(self, request, case, center, radius):
        keys = Window(center, radius).keys(request.getfixturevalue(case))
        assert keys == sorted(keys, key=key_sort_key)

    def test_gl4_window_keys_are_in_key_order(self, v_sing4_rem):
        keys = Window(Shift.zero(4), 1).keys(v_sing4_rem)
        assert any(key.kind is Kind.DERIVATIVE for key in keys)
        assert keys == sorted(keys, key=key_sort_key)


def test_components_of_equal_size_by_least_position():
    # {0, 3} and {1, 2}: ordered by least position, not by largest
    assert [sorted(c) for c in reach_components([[3], [2], [1], [0], []])] == [[0, 3], [1, 2], [4]]


def _criterion_8_cases():
    zero = Shift.zero(3)
    irreducible = [(v, Window(zero, 2, 1)) for v in _irreducible_vectors()]
    reducible = [(v, Window(zero, _audit_radius(v), 1)) for v in _reducible_vectors()]
    return irreducible + reducible


class TestVerdictRoute:
    def assert_same_as_old(self, v, win):
        new, old = irreducibility_verdict(v, win), old_irreducibility_verdict(v, win)
        assert new.to_json() == old.to_json()
        assert new.ok == old_verdict_passes(old.to_json())
        if old.witness is not None:  # the old irreducible branch kept no omitted keys
            assert new.omitted_interior == old.omitted_interior

    @pytest.mark.parametrize("i", range(10))
    def test_criterion_8_vectors(self, i):
        v, win = _criterion_8_cases()[i]
        self.assert_same_as_old(v, win)

    @pytest.mark.parametrize("case", ["v_rem", "v_sing_irr"])
    @pytest.mark.parametrize(
        "center,margin",
        [(Shift.zero(3), 0), (Shift.zero(3), 1), (Shift.zero(3), 2), (OFF_CENTER, 1)],
        ids=["margin-0", "margin-1", "margin-2", "off-centre"],
    )
    def test_golden_vectors(self, request, case, center, margin):
        self.assert_same_as_old(request.getfixturevalue(case), Window(center, 2, margin))

    def test_gl4_reducible(self, v_sing4_rem):
        self.assert_same_as_old(v_sing4_rem, Window(Shift.zero(4), 1))

    @pytest.mark.parametrize("case", ["v_rem", "v_sing_irr"])
    def test_one_closure_per_verdict(self, request, monkeypatch, case, win3):
        calls = []
        closure = gtmodules.structure.reach_closure

        def counted(succ, start):
            calls.append(start)
            return closure(succ, start)

        monkeypatch.setattr(gtmodules.structure, "reach_closure", counted)
        irreducibility_verdict(request.getfixturevalue(case), win3)
        assert len(calls) == 1


class TestVerdictOk:
    KEY = TabKey(Shift.zero(3), Kind.REGULAR)
    PAIRS = ((2, 1, 1),)

    @pytest.mark.parametrize(
        "verdict,ok",
        [
            (Verdict("irreducible", ()), True),
            (Verdict("irreducible", (), omitted_interior=(KEY,)), False),
            (Verdict("reducible", PAIRS, witness=Shift.zero(3), omitted_interior=(KEY,)), True),
            (Verdict("reducible", PAIRS, witness=Shift.zero(3)), False),
        ],
        ids=["irreducible-covered", "irreducible-omits", "reducible-omits", "reducible-covered"],
    )
    def test_pass_rule(self, verdict, ok):
        assert verdict.ok is ok
        assert old_verdict_passes(verdict.to_json()) is ok
