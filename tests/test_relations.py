"""The bracket relations that ``check_relations`` verifies.

The expected side of each bracket comes from the structure constants
[E_ij, E_kl] = delta_jk E_il - delta_li E_kj.  The hand-written case table
it replaced is kept here as the oracle, together with plain matrix-unit
arithmetic.
"""

import pytest

import gtmodules.checks as checks
from gtmodules.checks import _bracket, _relation_cases, check_relations
from gtmodules.structure import Window
from gtmodules.tableau import Shift


def old_relation_cases(n: int):
    """The former case table: (g1, g2, expected), expected a list of
    (coeff, label), or [] for a vanishing bracket."""
    raise_ = lambda r: (r, r + 1)
    lower = lambda r: (r + 1, r)
    diag = lambda r: (r, r)
    for r in range(1, n):
        for s in range(1, n):
            expected = []
            if r == s:
                expected = [(1, diag(r)), (-1, diag(r + 1))]
            yield raise_(r), lower(s), expected
            if abs(r - s) >= 2:
                yield raise_(r), raise_(s), []
                yield lower(r), lower(s), []
            elif s == r + 1:
                yield raise_(r), raise_(s), [(1, (r, s + 1))]
                yield lower(r), lower(s), [(-1, (s + 1, r))]
    for r in range(1, n + 1):
        for s in range(1, n):
            c = (1 if r == s else 0) - (1 if r == s + 1 else 0)
            yield diag(r), raise_(s), [(c, raise_(s))] if c else []
            yield diag(r), lower(s), [(-c, lower(s))] if c else []
        for s in range(1, n + 1):
            yield diag(r), diag(s), []


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_formula_gives_the_case_table(n):
    # same pairs in the same order, and the same terms in the same order, so
    # the same generators are applied for the expected side
    old = list(old_relation_cases(n))
    assert list(_relation_cases(n)) == [(g1, g2) for g1, g2, _ in old]
    assert [_bracket(g1, g2) for g1, g2, _ in old] == [expected for _, _, expected in old]


def unit(n, label):
    i, j = label
    return [[int((a, b) == (i - 1, j - 1)) for b in range(n)] for a in range(n)]


def matmul(x, y):
    return [[sum(x[a][c] * y[c][b] for c in range(len(y))) for b in range(len(y[0]))] for a in range(len(x))]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_formula_matches_matrix_units(n):
    labels = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    for g1 in labels:
        for g2 in labels:
            x, y = unit(n, g1), unit(n, g2)
            xy, yx = matmul(x, y), matmul(y, x)
            lhs = [[xy[a][b] - yx[a][b] for b in range(n)] for a in range(n)]
            rhs = [[0] * n for _ in range(n)]
            for c, label in _bracket(g1, g2):
                rhs = [[rhs[a][b] + c * e for b, e in enumerate(row)] for a, row in enumerate(unit(n, label))]
            assert lhs == rhs, (g1, g2)


def test_generator_applications_unchanged(monkeypatch, v_rem, win3_r1):
    # four applications per commutator and one per expected term of the
    # case table; [E_rr, E_rr] applies none
    calls = []
    apply_e = checks.apply_e

    def counted(*args):
        calls.append(args)
        return apply_e(*args)

    monkeypatch.setattr(checks, "apply_e", counted)
    keys = win3_r1.keys(v_rem)
    assert check_relations(v_rem, keys) == []
    per_key = sum(4 + len(expected) for _, _, expected in old_relation_cases(3))
    assert len(calls) == len(keys) * per_key == 3294



@pytest.mark.parametrize("vector,stride", [("v_rem", 1), ("v_sing4_rem", 61)], ids=["gl3", "gl4"])
def test_negated_deep_generator_fails_the_suite(request, monkeypatch, vector, stride):
    # a planted defect: E_ij, |i-j| >= 2, folds to minus its commutator
    from gtmodules import action

    v = request.getfixturevalue(vector)
    keys = Window(center=Shift.zero(v.n), radius=1, margin=1).keys(v)[::stride]
    assert check_relations(v, keys) == []
    unplanted = action._apply_e_key
    monkeypatch.setattr(action, "_apply_e_key", lambda v, i, j, vec: unplanted(v, i, j, vec).scale(-1))
    failed = check_relations(v, keys)
    # every key fails; on gl(3), [E12, E23] = E13 and [E32, E21] = E31 on each
    assert len({str(f["key"]) for f in failed}) == len(keys)
    if v.n == 3:
        assert len(keys) == 27 and len(failed) == 54
