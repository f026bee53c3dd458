import json

import pytest

from gtmodules.action import _gamma_from_entries, _row_entries, act_e
from gtmodules.cli import main
from gtmodules.structure import _MEMO_CACHES, _omega_plus_shift, basis_key
from gtmodules.tableau import BaseVector, Shift


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


REMARK_JSON = json.dumps(
    {"rows": [["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"]]}
)
IRR_JSON = json.dumps(
    {"rows": [["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/11"]]}
)
GENERIC_JSON = json.dumps(
    {"rows": [["1/2", "1/3", "1/5"], ["1/7", "1/11"], ["1/13"]]}
)


class TestFinite:
    @pytest.mark.parametrize(
        "weight,dim",
        [("1,0", 2), ("1,0,0", 3), ("1,1,0", 3), ("2,1,0", 8)],
    )
    def test_dimensions(self, capsys, weight, dim):
        code, report = run_cli(capsys, "finite", "--weight", weight)
        assert code == 0
        assert report["dimension"] == dim
        assert len(report["tableaux"]) == dim

    def test_top_row_equivalent(self, capsys):
        code1, rep1 = run_cli(capsys, "finite", "--weight", "2,1,0")
        code2, rep2 = run_cli(capsys, "finite", "--top-row", "2,0,-2")
        assert rep1["tableaux"] == rep2["tableaux"]

    def test_action_tables(self, capsys):
        code, report = run_cli(capsys, "finite", "--weight", "1,0", "--tables")
        assert code == 0
        table = report["action_tables"]["E(1,2)"]
        # raising the lower tableau gives the higher one with coefficient 1
        assert table[0][1] == [[{"shift": [[1]], "kind": "T"}, "1"]]
        assert table[1][1] == []

    def test_non_dominant_rejected(self, capsys):
        code, report = run_cli(capsys, "finite", "--weight", "0,1")
        assert code == 2
        assert "error" in report


class TestApplyCommands:
    def test_singular_remark_identity(self, capsys):
        code, report = run_cli(
            capsys,
            "singular",
            "--base-vector",
            REMARK_JSON,
            "--apply",
            "E(3,2)",
            "--key",
            "T@0,0;0",
        )
        assert code == 0
        result = report["results"][0]["result"]
        assert result == [[{"shift": [[-1, 0], [0]], "kind": "T"}, "1"]]

    def test_generic_requires_generic_vector(self, capsys):
        code, report = run_cli(
            capsys, "generic", "--base-vector", REMARK_JSON, "--apply", "E(1,2)"
        )
        assert code == 2

    def test_recentred_element(self, capsys):
        code, report = run_cli(
            capsys,
            "singular",
            "--base-vector",
            REMARK_JSON,
            "--apply",
            "C(2,2)@0,0;0",
            "--key",
            "T@0,0;0",
        )
        assert code == 0
        assert report["results"][0]["result"] == []

    def test_anchor_flags_build_vector(self, capsys):
        code, report = run_cli(
            capsys,
            "generic",
            "--anchors",
            "1/2,1/3,1/5,1/7,1/11,1/13",
            "--assignment",
            "0,1,2;3,4;5",
            "--apply",
            "E(2,1)",
        )
        assert code == 0
        assert len(report["results"][0]["result"]) == 1

    @pytest.mark.parametrize("generator", ["E(0,1)", "E(0,0)", "E(5,5)"])
    def test_generator_index_outside_1_to_n_exit_2(self, capsys, generator):
        code = main(["singular", "--base-vector", REMARK_JSON, "--apply", generator])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert "--apply" in report["message"]
        assert "1..3" in report["message"]
        assert "Traceback" not in captured.out + captured.err


class TestKeyInput:
    @pytest.mark.parametrize(
        "key,shown",
        [
            ('{"shift": 5, "kind": "T"}', "basis key field 'shift': a shift must be a list of integer rows, got 5"),
            ('{"shift": [[0, 0], [0]]}', "basis key field 'kind' is missing"),
            ('{"kind": "DT"}', "basis key field 'shift' is missing"),
            ('{"shift": [[0, 0], [0]], "kind": "X"}', "basis key field 'kind' must be one of ['T', 'DT'], got 'X'"),
            ('{"shift": [[0, 0.5], [0]], "kind": "T"}', "expected an integer, got 0.5"),
            ("T@0,0", "a gl(3) shift must have 2 rows (rows 1..2), got 1"),
            ("T@0,0,0;0", "row 2 of shift must have 2 entries"),
        ],
        ids=["shift-number", "no-kind", "no-shift", "bad-kind", "float-entry", "too-few-rows", "long-row"],
    )
    @pytest.mark.parametrize("command", ["singular", "structure"])
    def test_malformed_key_exit_2(self, capsys, command, key, shown):
        # a malformed basis key names --key and the field, never a traceback
        window = ["--radius", "1"] if command == "structure" else []
        code = main([command, "--base-vector", REMARK_JSON, *window, "--key", key])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "InputError"
        assert report["message"].startswith(f"--key {key!r}: ")
        assert shown in report["message"]
        assert "Traceback" not in captured.out + captured.err

    def test_center_names_flag(self, capsys):
        code, report = run_cli(capsys, "structure", "--base-vector", REMARK_JSON, "--radius", "1", "--center", "1,0")
        assert code == 2
        assert report["message"] == "--center '1,0': a gl(3) shift must have 2 rows (rows 1..2), got 1"


class TestEmptyField:
    # an empty field in a comma list is malformed input: skipping it would
    # read the value as a different, valid one
    ANCHORS = ["--anchors", "1/2,1/3,1/5,1/7,1/11,1/13"]

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["singular", "--base-vector", REMARK_JSON, "--key", "DT@1,,0;0"], "--key"),
            (["structure", "--base-vector", REMARK_JSON, "--radius", "1", "--center", "1,,0;0"], "--center"),
            (["structure", "--base-vector", REMARK_JSON, "--radius", "1", "--center", "1,0,;0"], "--center"),
            (["finite", "--weight", "2,,1,0"], "--weight"),
            (["finite", "--top-row", "2,,0"], "--top-row"),
            (["singular", "--base-vector", REMARK_JSON, "--apply", "E(1,,2)"], "--apply"),
            (["singular", "--base-vector", REMARK_JSON, "--apply", "C(2,2)@0,,0;0"], "--apply"),
            (["generic", *ANCHORS, "--assignment", "0,1,2;3,4,;5"], "--assignment"),
            (["generic", *ANCHORS, "--assignment", "0,1,2;3,4;5", "--offsets", "0,0,0;0,,0;0"], "--offsets"),
        ],
        ids=["key", "center-inner", "center-trailing", "weight", "top-row", "apply", "apply-shift",
             "assignment", "offsets"],
    )
    def test_empty_field_exit_2(self, capsys, argv, flag):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "InputError"
        assert report["message"].startswith(f"{flag} {argv[argv.index(flag) + 1]!r}: empty field in ")
        assert "Traceback" not in captured.out + captured.err


class TestStructureCommand:
    def test_remark_report(self, capsys):
        code, report = run_cli(
            capsys, "structure", "--base-vector", REMARK_JSON, "--radius", "2"
        )
        assert code == 0
        assert report["omega_plus"] == [[2, 1, 1], [2, 2, 1]]
        assert report["drop_audit"]["ok"] is True
        assert report["window_size"] == 125
        assert report["reach_components"]["count"] >= 2

    def test_focus_key_outside_window_rejected(self, capsys):
        code, report = run_cli(
            capsys, "structure", "--base-vector", REMARK_JSON, "--radius", "1", "--key", "T@3,3;3"
        )
        assert code == 2
        assert "not a basis key of the window" in report["message"]

    def test_finite_vector_rejected(self, capsys):
        finite = json.dumps({"rows": [["2", "0", "-2"], ["0", "0"], ["0"]]})
        code, report = run_cli(capsys, "structure", "--base-vector", finite)
        assert code == 2

    def test_generic_report_classes(self, capsys):
        code, report = run_cli(
            capsys, "structure", "--base-vector", GENERIC_JSON, "--radius", "1"
        )
        assert code == 0
        assert report["omega_plus"] == []
        assert report["basis_N_window_size"] == 27
        assert report["omega_classes"][0]["size"] == 27


class TestVerdictCommand:
    def test_reducible(self, capsys):
        code, report = run_cli(
            capsys, "verdict", "--base-vector", REMARK_JSON, "--radius", "2"
        )
        assert code == 0
        assert report["status"] == "reducible"
        assert report["witness_omega_plus_size"] == 2
        assert report["proper_submodule_audited"] is True

    def test_irreducible(self, capsys):
        code, report = run_cli(
            capsys, "verdict", "--base-vector", IRR_JSON, "--radius", "2"
        )
        assert code == 0
        assert report["status"] == "irreducible"
        assert report["interior_covered_by_bfs"] is True

    def test_malformed_vector_exit_2(self, capsys):
        code, report = run_cli(capsys, "verdict", "--base-vector", '{"rows": [["1/2"]]}')
        assert code == 2

    def test_generic_vector_rejected(self, capsys):
        code, report = run_cli(capsys, "verdict", "--base-vector", GENERIC_JSON)
        assert code == 2

    @pytest.mark.parametrize(
        "vector_args",
        [
            ["--anchors", "1/0,1/7", "--assignment", "0,0,0;1,1;1"],
            ["--base-vector", json.dumps({"rows": [["1/0", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"]]})],
        ],
        ids=["anchors", "rows"],
    )
    def test_zero_denominator_exit_2(self, capsys, vector_args):
        code = main(["verdict", *vector_args])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "ValueError"
        assert "'1/0'" in report["message"]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "field,row,col,value,shown",
        [
            ("anchors", None, 3, 1, "got 1"),
            ("anchors", None, 3, None, "got None"),
            ("rows", 0, 0, 0.1, "got 0.1"),
            ("rows", 2, 0, None, "got None"),
            ("assignment", 1, 1, None, "got None"),
            ("offsets", 0, 2, None, "got None"),
        ],
        ids=["anchors-number", "anchors-null", "rows-number", "rows-null", "assignment-null", "offsets-null"],
    )
    def test_non_string_rational_exit_2(self, capsys, field, row, col, value, shown):
        # JSON rationals are "p/q" strings; a number or null is malformed
        # input, never a float reading or a traceback
        data = json.loads(REMARK_JSON) if field == "rows" else {
            "n": 3,
            "anchors": ["1/2", "1/3", "1/5", "1/7"],
            "assignment": [[0, 1, 2], [3, 3], [3]],
            "offsets": [[0, 0, 0], [0, 0], [0]],
        }
        target = data[field] if row is None else data[field][row]
        target[col] = value
        code = main(["verdict", "--base-vector", json.dumps(data)])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "ValueError"
        assert shown in report["message"]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize(
        "field,value,shown",
        [
            ("rows", 5, "'rows' must be a list of lists"),
            ("rows", ["1/2", "1/3"], "'rows' must be a list of lists"),
            ("anchors", "1/2", "'anchors' must be a list"),
            ("assignment", [[0, 1, 2], [3, 3], 3], "'assignment' must be a list of lists"),
            ("offsets", [[0, 0, 0], [0, 0], 0], "'offsets' must be a list of lists"),
            (None, [["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"]], "must be a JSON object"),
        ],
        ids=["rows-number", "rows-flat", "anchors-string", "assignment-row-number", "offsets-row-number", "array"],
    )
    def test_json_shape_exit_2(self, capsys, tmp_path, field, value, shown):
        # a container of the wrong JSON type is malformed input naming its
        # field, never a traceback or a character-by-character reading
        if field is None:
            data = value
        elif field == "rows":
            data = {"rows": value}
        else:
            data = {
                "n": 3,
                "anchors": ["1/2", "1/3", "1/5", "1/7"],
                "assignment": [[0, 1, 2], [3, 3], [3]],
                "offsets": [[0, 0, 0], [0, 0], [0]],
                field: value,
            }
        path = tmp_path / "vector.json"
        path.write_text(json.dumps(data))
        code = main(["verdict", "--base-vector", f"@{path}"])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "ValueError"
        assert shown in report["message"]
        assert "Traceback" not in captured.out + captured.err


class TestMemoLifetime:
    # two one-singular gl(3) vectors with no entry in common; verify fills
    # all four memo caches
    FIRST = REMARK_JSON
    SECOND = json.dumps({"rows": [["2/3", "1/4", "1/6"], ["1/9", "1/9"], ["1/11"]]})

    @staticmethod
    def verify(capsys, vector):
        assert main(["verify", "--base-vector", vector, "--radius", "1"]) == 0
        capsys.readouterr()

    @staticmethod
    def cached(cache, *args) -> bool:
        hits = cache.cache_info().hits
        cache(*args)
        return cache.cache_info().hits > hits

    def test_each_command_starts_with_empty_caches(self, capsys):
        for cache in _MEMO_CACHES:
            cache.cache_clear()
        self.verify(capsys, self.SECOND)
        alone = [cache.cache_info().currsize for cache in _MEMO_CACHES]

        self.verify(capsys, self.FIRST)
        v = BaseVector.from_json(json.loads(self.FIRST))
        derivative = Shift(3, ((0,), (1, 0)))  # a derivative key of the window
        probes = [
            (act_e, (v, 1, 2, basis_key(v, Shift.zero(3)))),
            (_gamma_from_entries, (_row_entries(v, derivative, 2), 2)),
            (_omega_plus_shift, (v, derivative)),
        ]
        assert all(self.cached(cache, *args) for cache, args in probes)

        self.verify(capsys, self.SECOND)
        assert [cache.cache_info().currsize for cache in _MEMO_CACHES] == alone
        assert not any(self.cached(cache, *args) for cache, args in probes)

        # structure reads the generator summands directly, never through act_e
        assert main(["structure", "--base-vector", self.FIRST, "--radius", "1"]) == 0
        capsys.readouterr()
        assert act_e.cache_info().currsize == 0

    def test_reset_ignores_rebound_names(self, capsys, monkeypatch):
        # a wrapper bound over a cached function's module names (as a span
        # tracer does) has no cache_clear; the reset must still find the cache
        from gtmodules import action, structure

        def wrapper(*args):
            return act_e(*args)

        monkeypatch.setattr(action, "act_e", wrapper)
        monkeypatch.setattr(structure, "act_e", wrapper)
        self.verify(capsys, self.FIRST)
        assert act_e.cache_info().currsize > 0
        self.verify(capsys, self.SECOND)
        v = BaseVector.from_json(json.loads(self.FIRST))
        assert not self.cached(act_e, v, 1, 2, basis_key(v, Shift.zero(3)))


class TestVerify:
    def test_passes_on_remark_vector(self, capsys):
        code, report = run_cli(
            capsys,
            "verify",
            "--base-vector",
            REMARK_JSON,
            "--radius",
            "1",
            "--sample",
            "25",
        )
        assert code == 0
        assert report["passed"] is True
        assert set(report["suites"]) == {
            "relations",
            "gamma_coherence",
            "dpair_calculus",
            "character_pairing",
            "separation",
            "omega_drop_bound",
        }

    def test_generic_vector_suites(self, capsys):
        code, report = run_cli(
            capsys, "verify", "--base-vector", GENERIC_JSON, "--radius", "1"
        )
        assert code == 0
        assert report["passed"] is True
        assert "separation" not in report["suites"]

    @pytest.mark.parametrize(
        "vector_args",
        [
            ["--anchors", "0", "--assignment", "0,0,0;0,0;0", "--offsets", "2,1,0;1,0;0"],
            ["--base-vector", json.dumps({"rows": [["1/29", "2/29", "3/29", "4/29"], ["5/29", "5/29", "6/29"],
                                                   ["6/29", "6/29"], ["7/29"]]})],
        ],
        ids=["finite", "unsupported"],
    )
    def test_other_families_rejected_up_front(self, capsys, vector_args):
        code, report = run_cli(capsys, "verify", "--radius", "1", *vector_args)
        assert code == 2
        assert report == {"error": "InputError", "message": "verify requires a generic or one-singular vector"}

    def test_exit_code_1_on_suite_failure(self, capsys, monkeypatch):
        from gtmodules import checks

        monkeypatch.setattr(
            checks, "check_relations", lambda v, keys: [{"fabricated": True}]
        )
        code, report = run_cli(
            capsys, "verify", "--base-vector", GENERIC_JSON, "--radius", "1"
        )
        assert code == 1
        assert report["passed"] is False
        assert report["suites"]["relations"]["passed"] is False


class TestRoundTrip:
    def test_base_vector_normal_form_stable(self, capsys):
        code, report = run_cli(capsys, "structure", "--base-vector", REMARK_JSON, "--radius", "1")
        first = report["base_vector"]
        code2, report2 = run_cli(
            capsys, "structure", "--base-vector", json.dumps(first), "--radius", "1"
        )
        assert report2["base_vector"] == first

    def test_json_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, report = run_cli(
            capsys, "finite", "--weight", "1,0", "--json-out", str(path)
        )
        assert code == 0
        assert json.loads(path.read_text())["dimension"] == 2

    def test_reports_deterministic(self, capsys):
        def grab(*argv):
            main(list(argv))
            return capsys.readouterr().out

        args = ("structure", "--base-vector", REMARK_JSON, "--radius", "2")
        assert grab(*args) == grab(*args)
        args = ("verdict", "--base-vector", REMARK_JSON, "--radius", "2")
        assert grab(*args) == grab(*args)
