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
from gtmodules.tableau import BaseVector, Shift


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


def once(cases):
    """The oracle's cases without [g, g] and without the later of each
    mirrored pair."""
    seen = set()
    for g1, g2, expected in cases:
        if g1 != g2 and frozenset((g1, g2)) not in seen:
            seen.add(frozenset((g1, g2)))
            yield g1, g2, expected


def deep_splits(n: int):
    """E_ij and E_ji, j - i >= 3, as brackets split at j - 1."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 3, n + 1)]
    return {((i, j - 1), (j - 1, j)) for i, j in pairs} | {((j, j - 1), (j - 1, i)) for i, j in pairs}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_formula_gives_the_case_table(n):
    old = list(old_relation_cases(n))
    new = list(_relation_cases(n))
    assert len(set(new)) == len(new)
    # a mirrored case applies its twin's products and subtracts them the
    # other way round, and [g, g] is X(Xv) - X(Xv), so neither can fail alone
    assert all((g1, g2) in new or (g2, g1) in new or g1 == g2 for g1, g2, _ in old)
    assert all((g2, g1) not in new and g1 != g2 for g1, g2 in new)
    assert set(new) - {(g1, g2) for g1, g2, _ in old} == deep_splits(n)
    assert [(g1, g2) for g1, g2 in new if (g1, g2) not in deep_splits(n)] == [(g1, g2) for g1, g2, _ in once(old)]
    # the structure constants agree with the table wherever it has terms
    assert [_bracket(g1, g2) for g1, g2, _ in once(old)] == [expected for _, _, expected in once(old)]
    assert all(_bracket(g1, g2) == [(1, (g1[0], g2[1]))] for g1, g2 in deep_splits(n))


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
    # case table once mirrors and [g, g] are gone; gl(3) has no deep split
    calls = []
    apply_e = checks.apply_e

    def counted(*args):
        calls.append(args)
        return apply_e(*args)

    monkeypatch.setattr(checks, "apply_e", counted)
    keys = win3_r1.keys(v_rem)
    assert check_relations(v_rem, keys) == []
    per_key = sum(4 + len(expected) for _, _, expected in once(old_relation_cases(3)))
    assert len(calls) == len(keys) * per_key == 2646


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


def test_zeroed_singular_slope_fails_relations_and_gamma_coherence(v_rem):
    # a planted defect: the slope at (2, 2), the -t of the singular pair, set
    # to 0 on a copy of v_rem; the copy equals v_rem, so the memo caches are
    # emptied around it
    from gtmodules.action import _clear_memo_caches

    v = BaseVector(v_rem.n, v_rem.anchors, v_rem.assignment, v_rem.offsets)
    (c1, m1), (c2, _m2) = v.deformed_rows[1]
    object.__setattr__(v, "deformed_rows", (v.deformed_rows[0], ((c1, m1), (c2, 0)), v.deformed_rows[2]))
    keys = Window(center=Shift.zero(3), radius=1, margin=1).keys(v)
    levels = [(m, k) for m in range(1, 4) for k in range(1, min(m, 2) + 1)]
    _clear_memo_caches()
    try:
        assert check_relations(v, keys)
        assert checks.check_gamma_coherence(v, keys, levels)
    finally:
        _clear_memo_caches()


def test_negated_depth_three_generator_fails_the_suite(monkeypatch, v_sing4_rem):
    # E_14 and E_41 alone negated: every old case still holds, since they
    # appear on neither side of one, and each deep split now fails
    from gtmodules import action

    keys = Window(center=Shift.zero(4), radius=1, margin=1).keys(v_sing4_rem)[::61]
    unplanted = action._apply_e_key

    def planted(v, i, j, vec):
        out = unplanted(v, i, j, vec)
        return out.scale(-1) if abs(i - j) == 3 else out

    monkeypatch.setattr(action, "_apply_e_key", planted)
    failed = check_relations(v_sing4_rem, keys)
    assert len(keys) == 12 and len(failed) == 24
    assert {tuple(map(tuple, f["bracket"])) for f in failed} == deep_splits(4)
    monkeypatch.setattr(checks, "_relation_cases", lambda n: ((g1, g2) for g1, g2, _ in old_relation_cases(n)))
    assert check_relations(v_sing4_rem, keys) == []
