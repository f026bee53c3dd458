import json
import random
from fractions import Fraction as F
from itertools import product

import pytest

import gtmodules.action
import gtmodules.structure
from gtmodules.action import ModVec, _summands, act_e, act_gamma, apply_e
from gtmodules.cli import main
from gtmodules.structure import (
    DropAuditReport,
    DropEdge,
    HypothesisViolated,
    Window,
    _drop_config,
    _drop_edge,
    _omega_triples,
    basis_key,
    irreducibility_verdict,
    omega_classes,
    omega_k_plus,
    omega_plus,
    reach_closure,
    reach_components,
    reach_scan,
    singular_triple,
)
from gtmodules.tableau import BaseVector, Family, Kind, Shift, TabKey, canonicalize

from helpers import tau
from reach_oracle import key_closure, key_components, key_graph


def reach_graph(v, win):
    """The window keys and the reach graph on their positions, without the
    drop audit."""
    keys = win.keys(v)
    return keys, reach_scan(v, keys)[0]


def closure_keys(keys, succ, key):
    """The closure from a window key, as the set of keys it reaches."""
    return {keys[i] for i in reach_closure(succ, keys.index(key))}


def component_keys(keys, succ):
    """The components in their order, each as a set of keys."""
    return [frozenset(keys[i] for i in c) for c in reach_components(succ)]


def shift3(rows):
    return Shift(3, tuple(tuple(r) for r in rows))


def old_positions(n):
    return [(r, s) for r in range(1, n) for s in range(1, r + 1)]


def old_shifts(win):
    """The window enumeration before it was stated per row: one range per
    flattened position, each combination sliced back into rows."""
    n = win.center.n
    ranges = [
        range(win.center.get(r, s) - win.radius, win.center.get(r, s) + win.radius + 1)
        for (r, s) in old_positions(n)
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


def old_contains(win, w):
    return all(abs(w.get(r, s) - win.center.get(r, s)) <= win.radius for (r, s) in old_positions(win.center.n))


def old_is_interior(win, w):
    return all(
        abs(w.get(r, s) - win.center.get(r, s)) <= win.radius - win.margin for (r, s) in old_positions(win.center.n)
    )


# gl(2)-gl(5) boxes, centred at zero and off centre
ORACLE_WINDOWS = [
    (Shift(2, ((0,),)), 3),
    (Shift(2, ((-4,),)), 2),
    (Shift.zero(3), 2),
    (Shift(3, ((2,), (-1, 3))), 2),
    (Shift.zero(4), 1),
    (Shift(4, ((1,), (0, -2), (3, 0, -1))), 2),
    (Shift(5, ((0,), (1, -1), (0, 2, 0), (-3, 0, 1, 1))), 1),
]
ORACLE_IDS = ["gl2", "gl2-off", "gl3", "gl3-off", "gl4", "gl4-off", "gl5-off"]


class TestWindow:
    @pytest.mark.parametrize("center,radius", ORACLE_WINDOWS, ids=ORACLE_IDS)
    def test_shifts_match_the_flattened_enumeration(self, center, radius):
        shifts = Window(center, radius).shifts()
        assert shifts == old_shifts(Window(center, radius))
        # each row tuple is built once and shared by every shift carrying it
        for r in range(center.n - 1):
            assert len({id(w.rows[r]) for w in shifts}) == (2 * radius + 1) ** (r + 1)

    @pytest.mark.parametrize("center,radius", ORACLE_WINDOWS, ids=ORACLE_IDS)
    def test_bounds_match_the_per_position_tests(self, center, radius):
        # seeded shifts of the box widened by 2, the centre and a stride of
        # the box, so the test sees both answers at every margin; margin 0
        # is the whole box
        rng = random.Random(radius)
        probe = [
            Shift(center.n, tuple(tuple(c + rng.randint(-radius - 2, radius + 2) for c in row) for row in center.rows))
            for _ in range(400)
        ]
        for margin in range(radius + 1):
            win = Window(center, radius, margin)
            for w in [*probe, center, *win.shifts()[::7]]:
                assert win.is_interior(w) == old_is_interior(win, w)

    def test_margin_bounds_checked(self):
        with pytest.raises(ValueError):
            Window(center=Shift.zero(3), radius=1, margin=2)
        with pytest.raises(ValueError):
            Window(center=Shift.zero(3), radius=0)

    def test_shift_count(self, v_rem, win3_r1):
        assert len(win3_r1.shifts()) == 27
        assert len(win3_r1.keys(v_rem)) == 27
        assert sum(win3_r1.is_interior(w) for w in win3_r1.shifts()) == 1


class TestBasisKey:
    @pytest.mark.parametrize(
        "fixture,radius", [("v_rem", 2), ("v_sing_top", 2), ("v_sing4_row3", 1)], ids=["rem", "top", "gl4"]
    )
    def test_one_singular_key_is_the_canonical_label(self, request, fixture, radius):
        v = request.getfixturevalue(fixture)
        k, i, j = singular_triple(v)
        kinds = set()
        for w in Window(Shift.zero(v.n), radius).shifts():
            key = basis_key(v, w)
            assert canonicalize(v, key.kind, w) == (key, 1)
            assert (key.kind is Kind.DERIVATIVE) == (w.get(k, i) > w.get(k, j))
            kinds.add(key.kind)
        assert kinds == set(Kind)

    @pytest.mark.parametrize("fixture", ["v_gen3", "v_fin3_210"])
    def test_other_families_key_is_regular(self, request, fixture):
        v = request.getfixturevalue(fixture)
        for w in Window(Shift.zero(3), 2).shifts():
            assert basis_key(v, w) == TabKey(w, Kind.REGULAR)


class TestOmegaSets:
    def test_remark_values(self, v_rem):
        assert omega_plus(v_rem, Shift.zero(3)) == frozenset({(2, 1, 1), (2, 2, 1)})
        assert omega_plus(v_rem, shift3([(0,), (-1, 0)])) == frozenset({(2, 2, 1)})

    def test_fully_generic_empty(self, v_gen3, win3):
        assert all(omega_plus(v_gen3, w) == frozenset() for w in win3.shifts())

    def test_restriction_to_singular_rows(self, v_rem, win3_r1):
        for key in win3_r1.keys(v_rem):
            omk = omega_k_plus(v_rem, key)
            om = omega_plus(v_rem, key)
            assert omk <= om
            assert all(t[0] <= 2 for t in omk)
            assert omk == frozenset(t for t in om if t[0] <= 2)

    def test_no_sharing_below_k_plus_one_gives_empty(self, v_sing_irr, win3_r1):
        assert all(
            omega_k_plus(v_sing_irr, key) == frozenset() for key in win3_r1.keys(v_sing_irr)
        )


def old_basis_N_window(v, w0, keys):
    """The submodule basis prediction before the window keys were grouped
    once: a rescan of the window per query."""
    if v.family is not Family.GENERIC:
        raise ValueError("submodule basis prediction requires a generic vector")
    base = omega_plus(v, w0)
    return {k for k in keys if base <= omega_plus(v, k)}


def old_basis_I_window(v, w0, keys):
    if v.family is not Family.GENERIC:
        raise ValueError("subquotient basis prediction requires a generic vector")
    base = omega_plus(v, w0)
    return {k for k in keys if omega_plus(v, k) == base}


def old_basis_Ik_window(v, key0, keys):
    k, _i, _j = singular_triple(v)
    for r, s, t in v.integral_pairs:
        if r > k:
            raise HypothesisViolated(
                f"rows {r} and {r - 1} carry an integral pair at positions "
                f"({r},{s}) and ({r - 1},{t})"
            )
    base = omega_k_plus(v, key0)
    return {kk for kk in keys if omega_k_plus(v, kk) == base}


def submodule_basis(classes, om):
    """The predicted submodule basis through a generic key with triple set
    om: the union of the classes whose triple set contains om."""
    return {k for c, members in classes.items() if om <= c for k in members}


class TestWindowBases:
    CASES = {
        "gen3_chain-r1": ("v_gen3_chain", 1),
        "gen3_chain-r2": ("v_gen3_chain", 2),
        "gen3-r1": ("v_gen3", 1),
        "gen4_chain-r1": ("v_gen4_chain", 1),
        "rem-r1": ("v_rem", 1),
        "rem-r2": ("v_rem", 2),
        "sing4_rem-r1": ("v_sing4_rem", 1),
        "sing_irr-r1": ("v_sing_irr", 1),
        "sing_irr-r2": ("v_sing_irr", 2),
        "sing4-r1": ("v_sing4", 1),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_classes_match_the_window_rescans(self, request, case):
        vector, radius = self.CASES[case]
        v = request.getfixturevalue(vector)
        keys = Window(center=Shift.zero(v.n), radius=radius).keys(v)
        classes = omega_classes(v, keys)
        generic = v.family is Family.GENERIC
        omega = omega_plus if generic else omega_k_plus
        assert list(classes) == list(dict.fromkeys(omega(v, k) for k in keys))
        for c, members in classes.items():
            assert members == [k for k in keys if omega(v, k) == c]
        for key in keys:
            if generic:
                assert set(classes[omega_plus(v, key)]) == old_basis_I_window(v, key.shift, keys)
                assert submodule_basis(classes, omega_plus(v, key)) == old_basis_N_window(v, key.shift, keys)
            else:
                assert set(classes[omega_k_plus(v, key)]) == old_basis_Ik_window(v, key, keys)

    def test_other_families_rejected(self, v_fin3_210):
        with pytest.raises(ValueError):
            omega_classes(v_fin3_210, [basis_key(v_fin3_210, Shift.zero(3))])

    def test_fully_generic_every_key(self, v_gen3, win3_r1):
        keys = win3_r1.keys(v_gen3)
        assert omega_classes(v_gen3, keys) == {frozenset(): keys}

    def test_subset_and_monotone(self, v_gen3_chain, win3_r1, win3):
        om = omega_plus(v_gen3_chain, Shift.zero(3))
        small = omega_classes(v_gen3_chain, win3_r1.keys(v_gen3_chain))
        n_small = submodule_basis(small, om)
        n_large = submodule_basis(omega_classes(v_gen3_chain, win3.keys(v_gen3_chain)), om)
        assert set(small[om]) <= n_small
        assert n_small <= n_large

    def test_equality_classes_partition(self, v_gen3_chain, win3_r1):
        keys = win3_r1.keys(v_gen3_chain)
        classes = omega_classes(v_gen3_chain, keys)
        for c, members in classes.items():
            assert all(omega_plus(v_gen3_chain, k) == c for k in members)
        flat = [k for members in classes.values() for k in members]
        assert len(flat) == len(keys) and set(flat) == set(keys)

    def test_remark_labels_in_different_classes(self, v_rem, win3):
        base = omega_k_plus(v_rem, basis_key(v_rem, Shift.zero(3)))
        other = omega_k_plus(v_rem, basis_key(v_rem, shift3([(0,), (-1, 0)])))
        assert base != other

    def test_maximal_class_in_window(self, v_gen3_chain, win3_r1):
        # a key whose triple set is maximal accepts only equal-or-larger sets
        keys = win3_r1.keys(v_gen3_chain)
        w0 = max(keys, key=lambda k: len(omega_plus(v_gen3_chain, k)))
        om = omega_plus(v_gen3_chain, w0)
        for member in submodule_basis(omega_classes(v_gen3_chain, keys), om):
            assert omega_plus(v_gen3_chain, member) >= om

    def test_ik_requires_hypothesis(self, v_sing_top, v_rem, win3_r1):
        # top row shares the singular anchor: rows 3 and 2 carry an integral
        # pair, which breaks the restricted-basis hypothesis
        with pytest.raises(HypothesisViolated, match=r"rows 3 and 2 .* \(3,1\) and \(2,1\)"):
            omega_classes(v_sing_top, win3_r1.keys(v_sing_top))
        key = basis_key(v_rem, Shift.zero(3))
        assert key in omega_classes(v_rem, win3_r1.keys(v_rem))[omega_k_plus(v_rem, key)]

    def test_ik_whole_window_when_no_alignment(self, v_sing_irr, win3):
        # empty restricted triple sets everywhere: one class, the whole window
        keys = win3.keys(v_sing_irr)
        assert omega_classes(v_sing_irr, keys) == {frozenset(): keys}

    def test_ik_classes_partition(self, v_rem, win3_r1):
        keys = win3_r1.keys(v_rem)
        classes = omega_classes(v_rem, keys)
        for c, members in classes.items():
            assert all(omega_k_plus(v_rem, k) == c for k in members)
        flat = [k for members in classes.values() for k in members]
        assert len(flat) == len(keys) and set(flat) == set(keys)


class TestReachability:
    def test_derivative_reaches_regular_partner(self, v_rem, win3):
        # the recentred level-(k,2) element maps each derivative tableau onto
        # its regular partner whenever the label is not swap-fixed
        keys, succ = reach_graph(v_rem, win3)
        for key, targets in zip(keys, succ):
            if key.kind is not Kind.DERIVATIVE:
                continue
            partner = TabKey(tau(v_rem, key.shift), Kind.REGULAR)
            assert partner in [keys[i] for i in targets]

    def test_diagonal_only_self_loops(self, v_rem, win3_r1):
        key = basis_key(v_rem, Shift.zero(3))
        out = apply_e(v_rem, 2, 2, ModVec.single(key))
        assert set(out.support()) <= {key}

    @pytest.mark.parametrize("vector", ["v_gen3", "v_rem"])
    def test_edges_never_return_source(self, request, vector, win3_r1):
        # generic keys, and regular and derivative one-singular keys, whose
        # C(k,2) edge recentres at the source and so annihilates it
        v = request.getfixturevalue(vector)
        keys, succ = reach_graph(v, win3_r1)
        beyond_e = set()
        for key, positions in zip(keys, succ):
            targets = [keys[i] for i in positions]
            assert key not in targets
            by_e = {t for a, b in ((1, 2), (2, 1), (2, 3), (3, 2)) for t in act_e(v, a, b, key).support()}
            beyond_e.update(t for t in targets if t not in by_e)
        # only the C(2,2) edge of a derivative key reaches past the generators
        assert bool(beyond_e) == (vector == "v_rem")

    def test_generic_edges_match_action_support(self, v_gen3, win3_r1):
        keys, succ = reach_graph(v_gen3, win3_r1)
        for key, targets in zip(keys[:9], succ):
            expected = set()
            for r in range(1, 3):
                for (a, b) in ((r, r + 1), (r + 1, r)):
                    for t in act_e(v_gen3, a, b, key).support():
                        if old_contains(win3_r1, t.shift):
                            expected.add(t)
            assert {keys[i] for i in targets} == expected

    def test_closure_reflexive_and_transitive(self, v_rem, win3_r1):
        key = basis_key(v_rem, Shift.zero(3))
        keys, succ = reach_graph(v_rem, win3_r1)
        reached = reach_closure(succ, keys.index(key))
        closure = {keys[i] for i in reached}
        assert key in closure
        for mid in reached[:6]:
            assert closure_keys(keys, succ, keys[mid]) <= closure

    def test_generic_class_strongly_connected(self, v_gen3_chain, win3):
        # inside an equality class fully interior to the window, every member
        # reaches every other
        interior = [k for k in win3.keys(v_gen3_chain) if win3.is_interior(k.shift)]
        members = max(omega_classes(v_gen3_chain, interior).values(), key=len)
        keys, succ = reach_graph(v_gen3_chain, win3)
        for k1 in members[:4]:
            closure = closure_keys(keys, succ, k1)
            assert all(k2 in closure for k2 in members)


def act_e_reach_edges(v, key, win):
    """Reach edges read off the support of the cached act_e, each generator
    in turn, then the C(k,2) edge of a derivative key: the route that the
    reach graph took before reach_scan summed the generator summands itself."""
    edges = {}
    for r in range(1, v.n):
        for a, b in ((r, r + 1), (r + 1, r)):
            for tkey in act_e(v, a, b, key).support():
                if old_contains(win, tkey.shift) and tkey not in edges:
                    edges[tkey] = f"E({a},{b})"
    if v.singular is not None and key.kind is Kind.DERIVATIVE:
        k = v.singular[0]
        for tkey in act_gamma(v, k, 2, key, shift=key.shift).support():
            if old_contains(win, tkey.shift) and tkey not in edges:
                edges[tkey] = f"C({k},2)"
    return edges


class TestPositionRoute:
    """The position-indexed closure and components against the key-dict
    walks of the oracle, on a graph built by the act_e route."""

    WINDOWS = {
        "v_rem": Window(center=Shift.zero(3), radius=2),
        "v_gen3_chain": Window(center=Shift.zero(3), radius=2),
        "v_sing_irr": Window(center=Shift.zero(3), radius=2),
        "v_sing4": Window(center=Shift.zero(4), radius=1),
    }

    @pytest.mark.parametrize("case", sorted(WINDOWS))
    def test_matches_the_key_dict_route(self, request, case):
        v = request.getfixturevalue(case)
        win = self.WINDOWS[case]
        keys, succ = reach_graph(v, win)
        graph = {key: list(act_e_reach_edges(v, key, win)) for key in keys}
        assert key_graph(succ, keys) == graph
        if v.n == 4:  # the C(k,2) edges of derivative keys are walked too
            assert any(key.kind is Kind.DERIVATIVE for key in keys)
        stride = 1 if v.n == 3 else 8  # a sample of the 729 gl(4) sources
        for i, key in list(enumerate(keys))[::stride]:
            reached = reach_closure(succ, i)
            assert reached[0] == i and len(set(reached)) == len(reached)
            assert {keys[j] for j in reached} == key_closure(graph, key)
        comps = reach_components(succ)
        assert sorted(j for c in comps for j in c) == list(range(len(keys)))
        # the same partition, in the same order
        assert [frozenset(keys[j] for j in c) for c in comps] == key_components(graph)


def omega_drop_audit(v, keys):
    """Scan every single-generator edge out of the given window keys and
    check the triple-set size bound.

    A size decrease of two or more is a violation; a decrease of exactly
    one must match one of the five local configurations.  Both lists must
    come back empty for the audit to pass (the generic family admits no
    decrease at all).

    The reference route for the audit of reach_scan: it walks the summands
    of each generator without summing them or building a graph.
    """
    scanned, violations, drops = 0, [], []
    for key in keys:
        size_src = len(omega_plus(v, key))
        for r in range(1, v.n):
            for a, b in ((r, r + 1), (r + 1, r)):
                for s0, comp_kind, tkey, _coeff in _summands(v, a, b, key):
                    scanned += 1
                    edge = _drop_edge(v, key, size_src, a, b, s0, comp_kind, tkey)
                    if edge is not None:
                        (drops if edge.target_size == size_src - 1 else violations).append(edge)
    return DropAuditReport(scanned, tuple(violations), tuple(drops))


def old_edge_json(e):
    """The per-edge JSON body before the audit report shared key objects
    between edges: each edge built both key objects afresh."""
    return {
        "source": e.source.to_json(),
        "generator": e.generator,
        "target": e.target.to_json(),
        "sizes": [e.source_size, e.target_size],
        "config": e.config,
    }


def fabricated_audit(v):
    """An audit report with an edge in each of its three lists."""
    keys = [basis_key(v, w) for w in Window(Shift.zero(3), 1).shifts()[:4]]
    violation = DropEdge(keys[0], "E(2,1)", keys[1], 3, 1, None)
    drops = (DropEdge(keys[1], "E(3,2)", keys[2], 2, 1, None), DropEdge(keys[2], "E(1,2)", keys[1], 2, 1, "I"))
    report = DropAuditReport(7, (violation,), drops)
    assert report.unclassified == drops[:1]
    return report


class TestOnePass:
    WINDOWS = {
        "v_rem": Window(center=Shift.zero(3), radius=2),
        "v_rem-offcentre": Window(center=shift3([(0,), (1, 0)]), radius=2),
        "v_sing_top": Window(center=Shift.zero(3), radius=2),
        "v_gen3_chain": Window(center=Shift.zero(3), radius=2),
        "v_sing4": Window(center=Shift.zero(4), radius=1),
    }

    @pytest.mark.parametrize("case", sorted(WINDOWS))
    def test_graph_and_audit_match_separate_routes(self, request, case):
        v = request.getfixturevalue(case.split("-")[0])
        win = self.WINDOWS[case]
        keys = win.keys(v)
        succ, report = reach_scan(v, keys, audit=True)
        assert len(succ) == len(keys)
        for key, targets in zip(keys, succ):
            assert [keys[i] for i in targets] == list(act_e_reach_edges(v, key, win))
        assert all(0 <= i < len(keys) for targets in succ for i in targets)
        # audited edges name the window's own key objects, inside the window
        own = {key: key for key in keys}
        edges = report.violations + report.drops + report.unclassified
        assert all(own[e.source] is e.source and own.get(e.target, e.target) is e.target for e in edges)
        # the same count and edge lists, in order
        assert report == omega_drop_audit(v, keys)

    def test_reach_scan_rejects_swap_fixed_derivative_key(self, v_rem):
        with pytest.raises(ValueError, match="swap-fixed"):
            reach_scan(v_rem, [TabKey(Shift.zero(3), Kind.DERIVATIVE)])

    @pytest.mark.parametrize("rows", [[["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"]],
                                      [["1/7", "1/3", "1/5"], ["-6/7", "1/11"], ["8/7"]]],
                             ids=["one-singular", "generic"])
    def test_structure_evaluates_each_summand_once(self, capsys, monkeypatch, rows):
        # a gl(3) key has 1 + 1 + 2 + 2 summands over E(1,2), E(2,1), E(2,3)
        # and E(3,2), each one coefficient
        calls = []
        coeff_e = gtmodules.action.coeff_e

        def counted(v, l, m, s0, z):
            calls.append((l, m, s0, z))
            return coeff_e(v, l, m, s0, z)

        monkeypatch.setattr(gtmodules.action, "coeff_e", counted)
        vector = json.dumps({"rows": rows})
        assert main(["structure", "--base-vector", vector, "--radius", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == len(set(calls)) == 6 * report["window_size"] == 6 * 27


class TestDropAudit:
    @pytest.mark.parametrize("case", sorted(TestOnePass.WINDOWS))
    def test_scan_counts_the_triple_set_of_each_target(self, request, monkeypatch, case):
        v = request.getfixturevalue(case.split("-")[0])
        targets = []

        def recorded(v, src, size_src, a, b, s0, comp_kind, target):
            targets.append(target)
            return _drop_edge(v, src, size_src, a, b, s0, comp_kind, target)

        monkeypatch.setattr(gtmodules.structure, "_drop_edge", recorded)
        report = reach_scan(v, TestOnePass.WINDOWS[case].keys(v), audit=True)[1]
        assert len(targets) == report.edges_scanned > 0
        for target in set(targets):
            assert sum(1 for _ in _omega_triples(v, target.shift)) == len(omega_plus(v, target))
        assert all(e.target_size == len(omega_plus(v, e.target)) for e in report.drops)

    @pytest.mark.parametrize("case,window", [
        ("v_rem", Window(Shift.zero(3), 2)),
        ("v_sing_top", Window(Shift.zero(3), 2)),
        ("v_sing4_rem", Window(Shift.zero(4), 1)),
    ], ids=["v_rem", "v_sing_top", "v_sing4_rem"])
    def test_to_json_matches_the_per_edge_bodies(self, request, case, window):
        v = request.getfixturevalue(case)
        report = reach_scan(v, window.keys(v), audit=True)[1]
        data = report.to_json()
        assert data == {
            "edges_scanned": report.edges_scanned,
            "violations": [old_edge_json(e) for e in report.violations],
            "drop_by_one_edges": [old_edge_json(e) for e in report.drops],
            "unclassified_drops": [old_edge_json(e) for e in report.unclassified],
            "ok": report.ok,
        }
        # one JSON object per distinct key, shared by every edge naming it
        shared = {}
        for e, out in zip(report.drops, data["drop_by_one_edges"]):
            for key, obj in ((e.source, out["source"]), (e.target, out["target"])):
                assert shared.setdefault(key, obj) is obj
        assert len(shared) == len({k for e in report.drops for k in (e.source, e.target)}) > 0
        assert len({id(obj) for obj in shared.values()}) == len(shared)
        # and one list per distinct row, shared by every key object holding it
        rows = {}
        for obj in shared.values():
            for row in obj["shift"]:
                assert rows.setdefault(tuple(row), row) is row
        assert len(rows) < sum(len(obj["shift"]) for obj in shared.values())

    def test_to_json_of_every_list_matches_the_per_edge_bodies(self, v_rem):
        report = fabricated_audit(v_rem)
        assert report.to_json() == {
            "edges_scanned": 7,
            "violations": [old_edge_json(e) for e in report.violations],
            "drop_by_one_edges": [old_edge_json(e) for e in report.drops],
            "unclassified_drops": [old_edge_json(e) for e in report.unclassified],
            "ok": False,
        }

    @pytest.mark.parametrize("family", [Family.ONE_SINGULAR, Family.GENERIC])
    def test_drop_bound_failures_match_the_per_edge_bodies(self, monkeypatch, v_rem, family):
        from gtmodules import checks

        report = fabricated_audit(v_rem)
        monkeypatch.setattr(checks, "reach_scan", lambda v, keys, audit: ([], report))
        v = v_rem if family is Family.ONE_SINGULAR else BaseVector.from_rows(
            [["1/2", "1/3", "1/5"], ["1/7", "1/11"], ["1/13"]]
        )
        # the edges that make the audit fail, each once, in either family
        expected = [{"type": "violation", **old_edge_json(e)} for e in report.violations]
        expected += [{"type": "unclassified", **old_edge_json(e)} for e in report.unclassified]
        assert checks.check_drop_bound(v, []) == expected

    def test_planted_generic_drops_fail_once_each(self, monkeypatch, v_gen3_chain, win3_r1):
        # every source counts one triple more, so each edge that keeps its
        # triple set reads as a drop by one, unclassified in the generic family
        from gtmodules import checks

        omega = gtmodules.structure.omega_plus
        monkeypatch.setattr(gtmodules.structure, "omega_plus", lambda v, key: omega(v, key) | {(0, 0, 0)})
        keys = win3_r1.keys(v_gen3_chain)
        report = reach_scan(v_gen3_chain, keys, audit=True)[1]
        assert len(report.drops) == len(report.unclassified) == 138 and not report.ok
        failures = checks.check_drop_bound(v_gen3_chain, keys)
        assert len(failures) == len(report.violations) + len(report.unclassified)
        assert len({json.dumps(f, sort_keys=True) for f in failures}) == len(failures)

    def test_target_counted_smaller_is_a_violation(self, monkeypatch, v_rem, win3_r1):
        # the planted defect: each target counts one triple fewer than it has
        drop_edge = gtmodules.structure._drop_edge

        def smaller(v, src, size_src, *rest):
            edge = drop_edge(v, src, size_src + 1, *rest)
            return edge and edge._replace(source_size=size_src, target_size=edge.target_size - 1)

        monkeypatch.setattr(gtmodules.structure, "_drop_edge", smaller)
        report = reach_scan(v_rem, win3_r1.keys(v_rem), audit=True)[1]
        assert report.violations and not report.ok

    # I, III and V fire on the remark vector, II and IV on the vector whose
    # top row shares the singular anchor
    REMARK = [["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"]]
    TOP = [["8/7", "1/3", "1/5"], ["1/7", "1/7"], ["1/11"]]

    @pytest.mark.parametrize("config,rows", [
        ("I", REMARK), ("II", TOP), ("III", REMARK), ("IV", TOP), ("V", REMARK),
    ], ids=["I", "II", "III", "IV", "V"])
    def test_unmatched_configuration_fails_verify(self, capsys, monkeypatch, config, rows):
        drop_config = gtmodules.structure._drop_config

        def without(*args):
            found = drop_config(*args)
            return None if found == config else found

        monkeypatch.setattr(gtmodules.structure, "_drop_config", without)
        assert main(["verify", "--radius", "1", "--base-vector", json.dumps({"rows": rows})]) == 1
        suites = json.loads(capsys.readouterr().out)["suites"]
        assert [name for name, suite in suites.items() if not suite["passed"]] == ["omega_drop_bound"]
        failures = suites["omega_drop_bound"]["failures"]
        assert failures and all(f["type"] == "unclassified" and f["config"] is None for f in failures)

    def test_generic_never_drops(self, v_gen3_chain, win3):
        report = reach_scan(v_gen3_chain, win3.keys(v_gen3_chain), audit=True)[1]
        assert report.ok
        assert report.drops == ()
        assert report.edges_scanned > 0

    def test_generic_edges_grow_triple_sets(self, v_gen3_chain, win3_r1):
        # stronger than the size bound: the triple set itself only grows
        for key in win3_r1.keys(v_gen3_chain):
            om = omega_plus(v_gen3_chain, key)
            for r in range(1, 3):
                for (a, b) in ((r, r + 1), (r + 1, r)):
                    for t in act_e(v_gen3_chain, a, b, key).support():
                        assert omega_plus(v_gen3_chain, t) >= om

    def test_remark_vector_classified(self, v_rem, win3):
        report = reach_scan(v_rem, win3.keys(v_rem), audit=True)[1]
        assert report.ok
        assert report.violations == () and report.unclassified == ()
        assert {e.config for e in report.drops} == {"I", "III", "V"}

    def test_top_sharing_vector_classified(self, v_sing_top, win3):
        # row 3 carries the matching anchor: the raising-side patterns fire
        report = reach_scan(v_sing_top, win3.keys(v_sing_top), audit=True)[1]
        assert report.ok
        configs = {e.config for e in report.drops}
        assert configs == {"II", "IV"}

    def test_remark_drop_edge_values(self, v_rem):
        # the explicit drop: size 2 at the center, size 1 one step down
        out = act_e(v_rem, 3, 2, basis_key(v_rem, Shift.zero(3)))
        target = TabKey(shift3([(0,), (-1, 0)]), Kind.REGULAR)
        assert out == ModVec.single(target)
        assert len(omega_plus(v_rem, Shift.zero(3))) == 2
        assert len(omega_plus(v_rem, target)) == 1

    def test_config_one_coefficient(self, v_rem):
        # derivative source with the matched pair one row down: the raising
        # edge to the regular tableau carries half the offset gap
        z = shift3([(0,), (2, 0)])
        kd = TabKey(z, Kind.DERIVATIVE)
        out = act_e(v_rem, 1, 2, kd)
        target = TabKey(shift3([(1,), (0, 2)]), Kind.REGULAR)
        assert out.coeff(target) != 0

    def test_config_one_literal_coefficient(self, v_rem):
        # neighbor matched with the larger singular entry at offset gap -1:
        # for gl(3) the residual factor is 1, so the cross coefficient is
        # exactly minus one half times the gap, here 1/2
        z = shift3([(1,), (1, 0)])
        kd = TabKey(z, Kind.DERIVATIVE)
        out = act_e(v_rem, 1, 2, kd)
        target = TabKey(shift3([(2,), (0, 1)]), Kind.REGULAR)
        assert out == ModVec.single(target, F(1, 2))
        assert len(omega_plus(v_rem, z)) - 1 == len(omega_plus(v_rem, target.shift))

    @pytest.mark.parametrize(
        "share_row,expected",
        [("below", {"I", "III", "V"}), ("above", {"II", "IV"})],
    )
    def test_gl4_row3_pair_classified(self, share_row, expected):
        # singular pair at (3,1,3) of gl(4), neighbor alignment below or
        # above the singular row; the audit must classify every drop edge
        q = [F(k, 23) for k in range(1, 11)]
        if share_row == "below":
            rows = [[q[0], q[1], q[2], q[3]], [q[4], q[5], q[4]], [q[4], q[6]], [q[7]]]
        else:
            rows = [[q[4], q[1], q[2], q[3]], [q[4], q[5], q[4]], [q[6], q[7]], [q[8]]]
        v = BaseVector.from_rows(rows)
        win = Window(center=Shift.zero(4), radius=1, margin=1)
        report = reach_scan(v, win.keys(v), audit=True)[1]
        assert report.ok
        assert {e.config for e in report.drops} == expected

    def test_config_four_edge_exists(self, v_sing_top):
        # swap-fixed regular label whose singular entries match a top-row
        # entry one step up: the raising edge drops the size by one
        z = shift3([(0,), (1, 1)])
        key = TabKey(z, Kind.REGULAR)
        out = act_e(v_sing_top, 2, 3, key)
        targets = [t for t in out.support() if t.kind is Kind.REGULAR and t.shift != z]
        assert targets
        assert any(
            len(omega_plus(v_sing_top, t)) == len(omega_plus(v_sing_top, z)) - 1
            for t in targets
        )


def drop_config_five_branch(v, src, row, direction, s0, comp_kind):
    """The drop-by-one matcher as five separate branches, one per
    configuration, each testing its own source kind and row pattern: the
    reference for the merged ``_drop_config``."""
    if v.family is not Family.ONE_SINGULAR or comp_kind is not Kind.REGULAR:
        return None
    k, i, j = v.singular
    z = src.shift

    def equal(r, s, q, t):
        return v.int_diff(z, r, s, q, t) == 0

    if src.kind is Kind.DERIVATIVE:
        if row == k - 1 and direction > 0 and (equal(k - 1, s0, k, i) or equal(k - 1, s0, k, j)):
            return "I"
        if row == k and direction > 0 and s0 in (i, j):
            if any(equal(k + 1, t, k, s0) for t in range(1, k + 2)):
                return "II"
        if row == k and direction < 0 and s0 in (i, j):
            if k >= 2 and any(equal(k - 1, t, k, s0) for t in range(1, k)):
                return "III"
        return None
    if not equal(k, i, k, j):
        return None
    if row == k and direction > 0 and s0 in (i, j):
        if any(equal(k + 1, t, k, i) for t in range(1, k + 2)):
            return "IV"
    if row == k and direction < 0 and s0 in (i, j):
        if k >= 2 and any(equal(k - 1, t, k, i) for t in range(1, k)):
            return "V"
    return None


# (vector, window radius, the labels its summands meet): the one-singular
# gl(3) vector of the golden corpus, the first vector of the
# singular4-structure benchmark at seed 0, and a gl(3) vector whose top row
# shares the singular anchor, the one that meets II and IV
DROP_CASES = {
    "singular3-r2": (BaseVector.from_rows([["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"]]), 2, {"I", "III", "V"}),
    "singular3-top-r2": (BaseVector.from_rows([["8/7", "1/3", "1/5"], ["1/7", "1/7"], ["1/11"]]), 2, {"II", "IV"}),
    "singular4-seed0-r1": (
        BaseVector.from_json({
            "n": 4,
            "anchors": [f"{k}/29" for k in (25, 14, 2, 9, 17, 16, 13, 10)],
            "assignment": [[0, 1, 2, 3], [4, 5, 6], [7, 7], [7]],
            "offsets": [[0, 0, 0, 0], [0, 0, 0], [0, 0], [0]],
        }),
        1,
        {"I", "III", "V"},
    ),
}


@pytest.mark.parametrize("case", sorted(DROP_CASES))
def test_merged_drop_config_matches_five_branches(case):
    # every summand of every window key, read with the source as a regular
    # and as a derivative tableau, so both halves of the matcher run on each
    v, radius, expected = DROP_CASES[case]
    labels = set()
    for key in Window(center=Shift.zero(v.n), radius=radius).keys(v):
        for r in range(1, v.n):
            for a, b in ((r, r + 1), (r + 1, r)):
                for s0, comp_kind, _target, _coeff in _summands(v, a, b, key):
                    for kind in Kind:
                        args = (TabKey(key.shift, kind), r, b - a, s0, comp_kind)
                        got = _drop_config(v, *args)
                        assert got == drop_config_five_branch(v, *args), args
                        labels.add(got)
    assert labels == {None} | expected


class TestWWStarInvariance:
    def test_drop_targets_are_local_minima(self, v_rem, win3):
        # out of any drop-by-one target, no single-generator edge decreases
        # the triple-set size further
        report = reach_scan(v_rem, win3.keys(v_rem), audit=True)[1]
        assert report.drops
        for edge in report.drops:
            w = edge.target
            size_w = len(omega_plus(v_rem, w))
            for r in range(1, 3):
                for (a, b) in ((r, r + 1), (r + 1, r)):
                    for t in act_e(v_rem, a, b, w).support():
                        assert len(omega_plus(v_rem, t)) >= size_w

    def test_equal_vs_strict_split(self, v_rem, win3):
        # for targets of the first configuration the split between staying
        # equal and strictly growing is decided entirely by the tracked
        # inequalities between the two singular entries and the matched
        # neighbor entry below them
        report = reach_scan(v_rem, win3.keys(v_rem), audit=True)[1]
        checked = 0
        for edge in (e for e in report.drops if e.config == "I"):
            w = edge.target
            size_w = len(omega_plus(v_rem, w))
            for r in range(1, 3):
                for (a, b) in ((r, r + 1), (r + 1, r)):
                    for t in act_e(v_rem, a, b, w).support():

                        def ent(rr, ss):
                            return v_rem.entry(rr, ss) + t.shift.get(rr, ss)

                        tracked = sum(
                            1
                            for s in (1, 2)
                            if ent(2, s) - ent(1, 1) >= 0
                        )
                        size_t = len(omega_plus(v_rem, t))
                        assert size_t == tracked
                        assert size_t >= size_w
                        assert (size_t > size_w) == (tracked > size_w)
                        checked += 1
        assert checked > 0


class TestTopPartLemma:
    def test_same_upper_rows_forces_mutual_reach_gl4(self, v_sing4):
        # two keys in one restricted class with identical rows above the
        # singular row must reach each other: their bottom parts generate one
        # another as in the generic case of the bottom subalgebra
        win = Window(center=Shift.zero(4), radius=1, margin=1)
        key0 = basis_key(v_sing4, Shift.zero(4))
        cls = omega_classes(v_sing4, win.keys(v_sing4))[omega_k_plus(v_sing4, key0)]
        same_top = sorted(
            (k for k in cls if k.shift.rows[2] == (0, 0, 0)),
            key=lambda k: k.shift.rows,
        )
        assert len(same_top) == 27
        probe = same_top[::7]
        keys, succ = reach_graph(v_sing4, win)
        for k1 in probe:
            closure = closure_keys(keys, succ, k1)
            for k2 in probe:
                assert k2 in closure


class TestReachComponents:
    def test_single_interior_component_when_clean(self, v_sing_irr, win3):
        comps = component_keys(*reach_graph(v_sing_irr, win3))
        interior = set(k for k in win3.keys(v_sing_irr) if win3.is_interior(k.shift))
        int_comps = [c & interior for c in comps if c & interior]
        assert len(int_comps) == 1 and len(int_comps[0]) == len(interior)

    def test_classes_refine_components(self, v_rem, win3):
        # mutual generation can merge distinct restricted classes (a
        # derivative-boundary round trip links them both ways), but never
        # splits one: each class sits inside a single component
        comps = component_keys(*reach_graph(v_rem, win3))
        interior = [k for k in win3.keys(v_rem) if win3.is_interior(k.shift)]
        int_comps = [c for c in comps]
        for members in omega_classes(v_rem, interior).values():
            containing = [c for c in int_comps if set(members) <= c]
            assert len(containing) == 1
        assert len([c for c in comps if set(c) & set(interior)]) == 2

    def test_witness_closure_omits_downstream_component(self, v_rem, win3):
        # the generated submodule covers exactly one interior component; the
        # other is only upstream of it and survives in the quotient
        verdict = irreducibility_verdict(v_rem, win3)
        comps = component_keys(*reach_graph(v_rem, win3))
        interior = set(k for k in win3.keys(v_rem) if win3.is_interior(k.shift))
        witness_key = basis_key(v_rem, verdict.witness)
        containing = next(c for c in comps if witness_key in c)
        omitted = set(verdict.omitted_interior)
        assert omitted
        assert omitted == interior - containing


class TestVerdict:
    def test_remark_vector_reducible_with_audit(self, v_rem, win3):
        verdict = irreducibility_verdict(v_rem, win3)
        assert verdict.status == "reducible"
        assert verdict.witness is not None
        assert verdict.witness_omega_size == 2
        assert verdict.omitted_interior  # proper submodule witnessed
        assert verdict.neighbor_integral_pairs == ((2, 1, 1), (2, 2, 1))

    def test_clean_vector_irreducible(self, v_sing_irr, win3):
        verdict = irreducibility_verdict(v_sing_irr, win3)
        assert verdict.status == "irreducible"
        assert verdict.interior_covered

    def test_requires_singular(self, v_gen3, win3):
        with pytest.raises(ValueError):
            irreducibility_verdict(v_gen3, win3)

    def test_report_shape(self, v_rem, win3):
        data = irreducibility_verdict(v_rem, win3).to_json()
        assert data["status"] == "reducible"
        assert data["proper_submodule_audited"] is True
        assert data["witness_omega_plus_size"] == 2
