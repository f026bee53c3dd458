import json
from collections import defaultdict
from fractions import Fraction as F

import pytest

import gtmodules.action
from gtmodules.action import ModVec, _summands, act_e, act_gamma
from gtmodules.cli import main
from gtmodules.structure import (
    DropAuditReport,
    HypothesisViolated,
    Window,
    basis_I_window,
    basis_Ik_window,
    basis_N_window,
    basis_key,
    irreducibility_verdict,
    omega_k_plus,
    omega_plus,
    reach_closure,
    reach_components,
    reach_graph,
    reach_scan,
)
from gtmodules.tableau import BaseVector, Kind, Shift, TabKey, tau


def shift3(rows):
    return Shift(3, tuple(tuple(r) for r in rows))


class TestWindow:
    def test_margin_bounds_checked(self):
        with pytest.raises(ValueError):
            Window(center=Shift.zero(3), radius=1, margin=2)
        with pytest.raises(ValueError):
            Window(center=Shift.zero(3), radius=0)

    def test_shift_count(self, v_rem, win3_r1):
        assert len(win3_r1.shifts()) == 27
        assert len(win3_r1.keys(v_rem)) == 27
        assert sum(win3_r1.is_interior(w) for w in win3_r1.shifts()) == 1


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


class TestWindowBases:
    def test_fully_generic_every_key(self, v_gen3, win3_r1):
        keys = win3_r1.keys(v_gen3)
        assert basis_N_window(v_gen3, Shift.zero(3), keys) == set(keys)
        assert basis_I_window(v_gen3, Shift.zero(3), keys) == set(keys)

    def test_subset_and_monotone(self, v_gen3_chain, win3_r1, win3):
        w0 = Shift.zero(3)
        n_small = basis_N_window(v_gen3_chain, w0, win3_r1.keys(v_gen3_chain))
        n_large = basis_N_window(v_gen3_chain, w0, win3.keys(v_gen3_chain))
        assert basis_I_window(v_gen3_chain, w0, win3_r1.keys(v_gen3_chain)) <= n_small
        assert n_small <= n_large

    def test_equality_classes_partition(self, v_gen3_chain, win3_r1):
        keys = win3_r1.keys(v_gen3_chain)
        seen = set()
        for key in keys:
            cls = frozenset(basis_I_window(v_gen3_chain, key.shift, keys))
            assert key in cls
            for other in cls:
                assert omega_plus(v_gen3_chain, other) == omega_plus(v_gen3_chain, key)
            seen.add(cls)
        assert sum(len(c) for c in seen) == len(keys)

    def test_remark_labels_in_different_classes(self, v_rem, win3):
        base = omega_k_plus(v_rem, basis_key(v_rem, Shift.zero(3)))
        other = omega_k_plus(v_rem, basis_key(v_rem, shift3([(0,), (-1, 0)])))
        assert base != other

    def test_maximal_class_in_window(self, v_gen3_chain, win3_r1):
        # a key whose triple set is maximal accepts only equal-or-larger sets
        keys = win3_r1.keys(v_gen3_chain)
        w0 = max(keys, key=lambda k: len(omega_plus(v_gen3_chain, k)))
        for member in basis_N_window(v_gen3_chain, w0.shift, keys):
            assert omega_plus(v_gen3_chain, member) >= omega_plus(v_gen3_chain, w0)

    def test_ik_requires_hypothesis(self, v_sing_top, v_rem, win3_r1):
        # top row shares the singular anchor: rows 3 and 2 carry an integral
        # pair, which breaks the restricted-basis hypothesis
        with pytest.raises(HypothesisViolated):
            basis_Ik_window(v_sing_top, basis_key(v_sing_top, Shift.zero(3)), win3_r1.keys(v_sing_top))
        classes = basis_Ik_window(v_rem, basis_key(v_rem, Shift.zero(3)), win3_r1.keys(v_rem))
        assert basis_key(v_rem, Shift.zero(3)) in classes

    def test_ik_whole_window_when_no_alignment(self, v_sing_irr, win3):
        # empty restricted triple sets everywhere: one class, the whole window
        cls = basis_Ik_window(v_sing_irr, basis_key(v_sing_irr, Shift.zero(3)), win3.keys(v_sing_irr))
        assert cls == set(win3.keys(v_sing_irr))

    def test_ik_classes_partition(self, v_rem, win3_r1):
        keys = win3_r1.keys(v_rem)
        total = 0
        seen = set()
        for key in keys:
            cls = frozenset(basis_Ik_window(v_rem, key, keys))
            if cls not in seen:
                seen.add(cls)
                total += len(cls)
        assert total == len(keys)


class TestReachability:
    def test_derivative_reaches_regular_partner(self, v_rem, win3):
        # the recentred level-(k,2) element maps each derivative tableau onto
        # its regular partner whenever the label is not swap-fixed
        graph = reach_graph(v_rem, win3)
        for key in graph:
            if key.kind is not Kind.DERIVATIVE:
                continue
            partner = TabKey(tau(v_rem, key.shift), Kind.REGULAR)
            assert partner in graph[key]

    def test_diagonal_only_self_loops(self, v_rem, win3_r1):
        key = basis_key(v_rem, Shift.zero(3))
        out = act_e(v_rem, 2, 2, key)
        assert set(out.support()) <= {key}

    @pytest.mark.parametrize("vector", ["v_gen3", "v_rem"])
    def test_edges_never_return_source(self, request, vector, win3_r1):
        # generic keys, and regular and derivative one-singular keys, whose
        # C(k,2) edge recentres at the source and so annihilates it
        v = request.getfixturevalue(vector)
        graph = reach_graph(v, win3_r1)
        beyond_e = set()
        for key, targets in graph.items():
            assert key not in targets
            by_e = {t for a, b in ((1, 2), (2, 1), (2, 3), (3, 2)) for t in act_e(v, a, b, key).support()}
            beyond_e.update(t for t in targets if t not in by_e)
        # only the C(2,2) edge of a derivative key reaches past the generators
        assert bool(beyond_e) == (vector == "v_rem")

    def test_generic_edges_match_action_support(self, v_gen3, win3_r1):
        graph = reach_graph(v_gen3, win3_r1)
        for key in win3_r1.keys(v_gen3)[:9]:
            expected = set()
            for r in range(1, 3):
                for (a, b) in ((r, r + 1), (r + 1, r)):
                    for t in act_e(v_gen3, a, b, key).support():
                        if win3_r1.contains(t.shift):
                            expected.add(t)
            assert set(graph[key]) == expected

    def test_closure_reflexive_and_transitive(self, v_rem, win3_r1):
        key = basis_key(v_rem, Shift.zero(3))
        graph = reach_graph(v_rem, win3_r1)
        closure = reach_closure(graph, key)
        assert key in closure
        for mid in list(closure)[:6]:
            assert reach_closure(graph, mid) <= closure

    def test_generic_class_strongly_connected(self, v_gen3_chain, win3):
        # inside an equality class fully interior to the window, every member
        # reaches every other
        interior = [k for k in win3.keys(v_gen3_chain) if win3.is_interior(k.shift)]
        classes = defaultdict(list)
        for k in interior:
            classes[omega_plus(v_gen3_chain, k)].append(k)
        om, members = max(classes.items(), key=lambda kv: len(kv[1]))
        graph = reach_graph(v_gen3_chain, win3)
        for k1 in members[:4]:
            closure = reach_closure(graph, k1)
            assert all(k2 in closure for k2 in members)


def act_e_reach_edges(v, key, win):
    """Reach edges read off the support of the cached act_e, each generator
    in turn, then the C(k,2) edge of a derivative key: the route that the
    reach graph took before reach_scan summed the generator summands itself."""
    edges = {}
    for r in range(1, v.n):
        for a, b in ((r, r + 1), (r + 1, r)):
            for tkey in act_e(v, a, b, key).support():
                if win.contains(tkey.shift) and tkey not in edges:
                    edges[tkey] = f"E({a},{b})"
    if v.classification.singular is not None and key.kind is Kind.DERIVATIVE:
        k = v.classification.singular[0]
        for tkey in act_gamma(v, k, 2, key, shift=key.shift).support():
            if win.contains(tkey.shift) and tkey not in edges:
                edges[tkey] = f"C({k},2)"
    return edges


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
    report = DropAuditReport(vector=v)
    for key in keys:
        size_src = len(omega_plus(v, key))
        for r in range(1, v.n):
            for a, b in ((r, r + 1), (r + 1, r)):
                for s0, comp_kind, tkey, _coeff in _summands(v, a, b, key):
                    report.scan(key, size_src, a, b, s0, comp_kind, tkey)
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
        graph, report = reach_scan(v, keys, audit=True)
        assert list(graph) == keys
        for key in keys:
            assert graph[key] == list(act_e_reach_edges(v, key, win))
        own = {key: key for key in keys}
        assert all(own[t] is t for targets in graph.values() for t in targets)
        # DropAuditReport compares its edge lists in order
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

        def counted(v, l, m, s0, z, deform=True):
            calls.append((l, m, s0, z))
            return coeff_e(v, l, m, s0, z, deform)

        monkeypatch.setattr(gtmodules.action, "coeff_e", counted)
        vector = json.dumps({"rows": rows})
        assert main(["structure", "--base-vector", vector, "--radius", "1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == len(set(calls)) == 6 * report["window_size"] == 6 * 27


class TestDropAudit:
    def test_generic_never_drops(self, v_gen3_chain, win3):
        report = reach_scan(v_gen3_chain, win3.keys(v_gen3_chain), audit=True)[1]
        assert report.ok
        assert report.drops == []
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
        assert report.violations == [] and report.unclassified == []
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
        cls = basis_Ik_window(v_sing4, key0, win.keys(v_sing4))
        same_top = sorted(
            (k for k in cls if k.shift.rows[2] == (0, 0, 0)),
            key=lambda k: k.shift.rows,
        )
        assert len(same_top) == 27
        probe = same_top[::7]
        graph = reach_graph(v_sing4, win)
        for k1 in probe:
            closure = reach_closure(graph, k1)
            for k2 in probe:
                assert k2 in closure


class TestReachComponents:
    def test_single_interior_component_when_clean(self, v_sing_irr, win3):
        comps = reach_components(reach_graph(v_sing_irr, win3))
        interior = set(k for k in win3.keys(v_sing_irr) if win3.is_interior(k.shift))
        int_comps = [c & interior for c in comps if c & interior]
        assert len(int_comps) == 1 and len(int_comps[0]) == len(interior)

    def test_classes_refine_components(self, v_rem, win3):
        # mutual generation can merge distinct restricted classes (a
        # derivative-boundary round trip links them both ways), but never
        # splits one: each class sits inside a single component
        comps = reach_components(reach_graph(v_rem, win3))
        interior = [k for k in win3.keys(v_rem) if win3.is_interior(k.shift)]
        classes = defaultdict(set)
        for k in interior:
            classes[omega_k_plus(v_rem, k)].add(k)
        int_comps = [c for c in comps]
        for members in classes.values():
            containing = [c for c in int_comps if members <= c]
            assert len(containing) == 1
        assert len([c for c in comps if set(c) & set(interior)]) == 2

    def test_witness_closure_omits_downstream_component(self, v_rem, win3):
        # the generated submodule covers exactly one interior component; the
        # other is only upstream of it and survives in the quotient
        verdict = irreducibility_verdict(v_rem, win3)
        comps = reach_components(reach_graph(v_rem, win3))
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
