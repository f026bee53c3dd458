import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gtmodules.structure
from gtmodules.action import (
    _MEMO_CACHES,
    NotStandard,
    _apply_e_key,
    _gamma_from_entries,
    _label,
    _row_entries,
    act_e,
)
from gtmodules.cli import main
from gtmodules.ratcalc import DegenerateFactor, PoleAtZero
from gtmodules.structure import NotSeparable, Window, basis_key
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

    @pytest.mark.parametrize("argv", [["--weight", "1,2,0"], ["--top-row", "2,2,0"], ["--top-row", "3,1,2,0"]])
    def test_non_dominant_message(self, capsys, argv):
        code, report = run_cli(capsys, "finite", *argv)
        assert code == 2
        assert report["message"] == "top row is not dominant (must be strictly decreasing)"


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


    @pytest.mark.parametrize(
        "generator,shown",
        [
            ("c(3,5)", "a level (r,s) needs 1 <= s <= r <= 3"),
            ("c(2,3)", "a level (r,s) needs 1 <= s <= r <= 3"),
            ("C(0,0)@0,0;0", "a level (r,s) needs 1 <= s <= r <= 3"),
            ("E(1,2", "cannot parse generator"),
            ("E(1,2)))", "cannot parse generator"),
            ("C(2,2))@0,0;0", "cannot parse generator"),
        ],
        ids=["c-beyond-n", "c-power-above-row", "C-zero", "E-unclosed", "E-extra-parens", "C-extra-paren"],
    )
    def test_malformed_generator_names_apply(self, capsys, generator, shown):
        code = main(["singular", "--base-vector", REMARK_JSON, "--apply", generator])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "InputError"
        assert report["message"] == f"--apply {generator!r}: {shown}"
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


class TestDeepJson:
    # JSON nested past the decoder's recursion limit is malformed input
    # naming its flag, not a RecursionError read as exit 1
    DEEP = "[" * 50000 + "]" * 50000

    def run_deep(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert "Traceback" not in captured.out + captured.err
        return json.loads(captured.out)

    def test_base_vector_literal(self, capsys):
        report = self.run_deep(capsys, ["verdict", "--base-vector", '{"rows": ' + self.DEEP + "}"])
        assert report == {"error": "InputError", "message": "--base-vector: JSON nested too deeply to decode"}

    def test_base_vector_file(self, capsys, tmp_path):
        path = tmp_path / "vector.json"
        path.write_text('{"rows": ' + self.DEEP + "}")
        report = self.run_deep(capsys, ["verdict", "--base-vector", f"@{path}"])
        assert report == {"error": "InputError", "message": "--base-vector: JSON nested too deeply to decode"}

    def test_key(self, capsys):
        key = '{"shift": ' + self.DEEP + ', "kind": "T"}'
        report = self.run_deep(capsys, ["singular", "--base-vector", REMARK_JSON, "--key", key])
        assert report["error"] == "InputError"
        assert report["message"] == f"--key {key!r}: JSON nested too deeply to decode"


class TestApplyInputChecks:
    @pytest.mark.parametrize("generator", ["c(2,2)", "C(2,2)@0,0;0", "E(1,2)"])
    @pytest.mark.parametrize(
        "vector,key,shown",
        [
            (REMARK_JSON, "DT@0,0;0", "swap-fixed derivative labels are zero and not basis keys"),
            (GENERIC_JSON, "DT@1,0;0", "derivative tableaux exist only in the one-singular family"),
        ],
        ids=["swap-fixed", "generic-derivative"],
    )
    def test_key_checked_before_any_generator(self, capsys, generator, vector, key, shown):
        command = "singular" if vector == REMARK_JSON else "generic"
        code, report = run_cli(capsys, command, "--base-vector", vector, "--key", key, "--apply", generator)
        assert code == 2
        assert report == {"error": "InputError", "message": f"--key {key!r}: {shown}"}

    @pytest.mark.parametrize("apply", [[""], ["   "], ["E(1,2)", ""]], ids=["empty", "blank", "second-empty"])
    def test_empty_apply_exit_2(self, capsys, apply):
        argv = ["singular", "--base-vector", REMARK_JSON]
        for part in apply:
            argv += ["--apply", part]
        code, report = run_cli(capsys, *argv)
        assert code == 2
        assert report == {"error": "InputError", "message": f"--apply {apply[-1]!r}: no generator given"}


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
            (["finite", "--weight", ""], "--weight"),
            (["finite", "--top-row", ""], "--top-row"),
            (["singular", "--base-vector", REMARK_JSON, "--apply", "E(1,,2)"], "--apply"),
            (["singular", "--base-vector", REMARK_JSON, "--apply", "C(2,2)@0,,0;0"], "--apply"),
            (["generic", *ANCHORS, "--assignment", "0,1,2;3,4,;5"], "--assignment"),
            (["generic", *ANCHORS, "--assignment", "0,1,2;3,4;5", "--offsets", "0,0,0;0,,0;0"], "--offsets"),
            (["generic", "--anchors", "1/2,,1/5,1/7,1/11,1/13", "--assignment", "0,1,2;3,4;5"], "--anchors"),
            (["generic", "--anchors", "1/2,1/3,1/5,1/7,1/11,1/13,", "--assignment", "0,1,2;3,4;5"], "--anchors"),
            # a flag given an empty value is read, not taken as left out
            (["verdict", "--radius", "1", "--base-vector", ""], "--base-vector"),
            (["generic", "--anchors", "", "--assignment", "0,1,2;3,4;5"], "--anchors"),
            (["generic", *ANCHORS, "--assignment", ""], "--assignment"),
            (["generic", *ANCHORS, "--assignment", "0,1,2;3,4;5", "--offsets", ""], "--offsets"),
            (["structure", "--base-vector", REMARK_JSON, "--radius", "1", "--center", ""], "--center"),
        ],
        ids=["key", "center-inner", "center-trailing", "weight", "top-row", "weight-empty", "top-row-empty",
             "apply", "apply-shift",
             "assignment", "offsets", "anchors-inner", "anchors-trailing",
             "base-vector-empty", "anchors-empty", "assignment-empty", "offsets-empty", "center-empty"],
    )
    def test_empty_field_exit_2(self, capsys, argv, flag):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == "InputError"
        assert report["message"].startswith(f"{flag} {argv[argv.index(flag) + 1]!r}: empty field in ")
        assert "Traceback" not in captured.out + captured.err


class TestFlagChecks:
    @pytest.mark.parametrize(
        "extra,named",
        [
            (["--anchors", "1/3"], "--anchors"),
            (["--assignment", "9;9"], "--assignment"),
            (["--offsets", "junk"], "--offsets"),
            (["--anchors", "1/3", "--offsets", "junk", "--assignment", "9;9"], "--anchors, --assignment, --offsets"),
        ],
        ids=["anchors", "assignment", "offsets", "all"],
    )
    def test_base_vector_with_anchor_flags_exit_2(self, capsys, extra, named):
        # the JSON vector and the anchor flags are two answers to one
        # question: reading one and ignoring the other would hide a mistake
        code, report = run_cli(capsys, "verdict", "--radius", "1", "--base-vector", REMARK_JSON, *extra)
        assert code == 2
        assert report["error"] == "InputError"
        assert report["message"].startswith(f"--base-vector conflicts with {named};")

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["verify", "--radius", "1", "--sample", "-3"], "--sample -3: "),
            (["verify", "--radius", "0"], "--radius 0: "),
            (["verdict", "--radius", "0"], "--radius 0: "),
            (["verdict", "--radius", "1", "--margin", "3"], "--margin 3: "),
            (["verdict", "--radius", "2", "--margin", "-1"], "--margin -1: "),
        ],
        ids=["sample", "verify-radius", "verdict-radius", "margin-above", "margin-negative"],
    )
    def test_numeric_flags_checked_before_any_work(self, capsys, monkeypatch, argv, flag):
        def enumerated(self):
            raise AssertionError("the window was enumerated before the flags were checked")

        monkeypatch.setattr(Window, "shifts", enumerated)
        code, report = run_cli(capsys, *argv, "--base-vector", REMARK_JSON)
        assert code == 2
        assert report["error"] == "InputError"
        assert report["message"].startswith(flag)


class TestIgnoredFlags:
    # flags that a command used to drop without saying so

    def test_finite_weight_with_top_row_exit_2(self, capsys):
        code, report = run_cli(capsys, "finite", "--weight", "2,1,0", "--top-row", "5,0,-9")
        assert code == 2
        assert report["message"] == "--weight conflicts with --top-row; give one or the other"

    def test_finite_empty_weight_with_top_row_exit_2(self, capsys):
        # an empty --weight is still a given --weight, not an absent one
        code, report = run_cli(capsys, "finite", "--weight", "", "--top-row", "3,1,0")
        assert code == 2
        assert report["message"] == "--weight conflicts with --top-row; give one or the other"

    def test_verify_margin_is_not_a_flag(self, capsys):
        # no verify suite reads a margin, so --margin would change nothing
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--radius", "1", "--margin", "0", "--base-vector", REMARK_JSON])
        assert exc.value.code == 2
        assert "unrecognized arguments: --margin 0" in capsys.readouterr().err

    def test_structure_margin_is_not_a_flag(self, capsys):
        # no structure computation reads a margin; the report still echoes the
        # window default of 1
        with pytest.raises(SystemExit) as exc:
            main(["structure", "--radius", "1", "--margin", "0", "--base-vector", REMARK_JSON])
        assert exc.value.code == 2
        assert "unrecognized arguments: --margin 0" in capsys.readouterr().err

    @pytest.mark.parametrize("sample", ["0", "60"])
    def test_verify_sample_on_generic_exit_2(self, capsys, sample):
        # the separation suite, the only reader of --sample, runs only in the
        # one-singular family
        code, report = run_cli(capsys, "verify", "--radius", "1", "--sample", sample, "--base-vector", GENERIC_JSON)
        assert code == 2
        assert report["error"] == "InputError"
        assert report["message"].startswith(f"--sample {sample}: ")

    def test_structure_second_key_exit_2(self, capsys):
        code, report = run_cli(
            capsys, "structure", "--base-vector", REMARK_JSON, "--radius", "1", "--key", "T@0,0;0", "--key", "T@5,5;5"
        )
        assert code == 2
        assert report["message"] == "--key given 2 times; structure takes one focus key"


class TestClosedStdout:
    @staticmethod
    def run_closed(*argv):
        """Run the CLI in a child process whose stdout has no reader."""
        run = "import sys; sys.path.insert(0, sys.argv[1]); from gtmodules.cli import main; sys.exit(main(sys.argv[2:]))"
        src = Path(__file__).resolve().parent.parent / "src"
        r, w = os.pipe()
        os.close(r)
        try:
            return subprocess.run(
                [sys.executable, "-I", "-c", run, str(src), *argv],
                stdout=w, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(w)

    def test_exits_141_silently(self):
        # the reader of stdout is gone before the report is written, as in
        # `gtmodules finite --weight 2,1,0 | true`
        done = self.run_closed("finite", "--weight", "2,1,0")
        assert done.returncode == 141
        assert done.stderr == b""

    def test_multi_block_report_exits_141_silently(self):
        # a 31 KB report, written in more than one block
        done = self.run_closed("structure", "--radius", "2", "--center", "1,0;0", "--base-vector", REMARK_JSON)
        assert done.returncode == 141
        assert done.stderr == b""

    def test_json_out_keeps_what_was_written(self, capsys, tmp_path):
        # as with tee, the file is neither completed nor removed: it holds
        # the part of the report written before stdout failed
        argv = ["structure", "--radius", "2", "--center", "1,0;0", "--base-vector", REMARK_JSON]
        assert main(argv) == 0
        full = capsys.readouterr().out
        path = tmp_path / "report.json"
        path.write_text("an earlier report")
        done = self.run_closed(*argv, "--json-out", str(path))
        assert done.returncode == 141
        assert done.stderr == b""
        assert full.startswith(path.read_text(encoding="utf-8"))


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

    def test_focus_key_outside_window_rejected(self, capsys, monkeypatch):
        # before the reach scan walks the window
        from gtmodules import cli

        def scan(*args, **kwargs):
            raise AssertionError("reach_scan ran for a focus key outside the window")

        monkeypatch.setattr(cli, "reach_scan", scan)
        code, report = run_cli(
            capsys, "structure", "--base-vector", REMARK_JSON, "--radius", "1", "--key", "T@3,3;3"
        )
        assert code == 2
        assert report["message"] == "--key is not a basis key of the window"

    @pytest.mark.parametrize("given,canonical", [("T@1,0;0", "T@0,1;0"), ("DT@0,1;0", "DT@1,0;0")])
    def test_swapped_focus_key_reports_as_its_canonical_key(self, capsys, given, canonical):
        # a label and its row-2 swap name one basis key, up to sign for DT
        argv = ["structure", "--base-vector", REMARK_JSON, "--radius", "2", "--key"]
        code, report = run_cli(capsys, *argv, given)
        assert code == 0
        assert report == run_cli(capsys, *argv, canonical)[1]

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

    @pytest.mark.parametrize("vector,closure,field", [
        (IRR_JSON, lambda succ, start: [start], "interior_covered_by_bfs"),
        (REMARK_JSON, lambda succ, start: list(range(len(succ))), "proper_submodule_audited"),
    ], ids=["irreducible-uncovered", "reducible-unaudited"])
    def test_failed_audit_exit_1(self, capsys, monkeypatch, vector, closure, field):
        monkeypatch.setattr(gtmodules.structure, "reach_closure", closure)
        code, report = run_cli(capsys, "verdict", "--base-vector", vector, "--radius", "2")
        assert code == 1
        assert report[field] is False

    def test_structure_failed_drop_audit_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(gtmodules.structure, "_drop_config", lambda *args: None)
        code, report = run_cli(capsys, "structure", "--base-vector", REMARK_JSON, "--radius", "1")
        assert code == 1
        assert report["drop_audit"]["ok"] is False

    def test_malformed_vector_exit_2(self, capsys):
        code, report = run_cli(capsys, "verdict", "--base-vector", '{"rows": [["1/2"]]}')
        assert code == 2

    def test_generic_vector_rejected(self, capsys):
        code, report = run_cli(capsys, "verdict", "--base-vector", GENERIC_JSON)
        assert code == 2

    @pytest.mark.parametrize(
        "vector_args,error,prefix",
        [
            (["--anchors", "1/0,1/7", "--assignment", "0,0,0;1,1;1"], "InputError", "--anchors '1/0,1/7': "),
            (["--base-vector", json.dumps({"rows": [["1/0", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"]]})],
             "ValueError", ""),
        ],
        ids=["anchors", "rows"],
    )
    def test_zero_denominator_exit_2(self, capsys, vector_args, error, prefix):
        code = main(["verdict", *vector_args])
        captured = capsys.readouterr()
        assert code == 2
        report = json.loads(captured.out)
        assert report["error"] == error
        assert report["message"].startswith(prefix)
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
    # every memo cache but _apply_e_key, which stores nothing
    FIRST = REMARK_JSON
    SECOND = json.dumps({"rows": [["2/3", "1/4", "1/6"], ["1/9", "1/9"], ["1/11"]]})
    # the seed-0 vector of the singular3-verify benchmark workload
    BENCH = json.dumps({
        "n": 3, "anchors": ["25/29", "14/29", "2/29", "9/29"],
        "assignment": [[0, 1, 2], [3, 3], [3]], "offsets": [[0, 0, 0], [0, 0], [0]],
    })

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
            (_label, (v, basis_key(v, Shift.zero(3)))),
            (_gamma_from_entries, (_row_entries(v, derivative, 2), 2)),
        ]
        assert all(self.cached(cache, *args) for cache, args in probes)

        self.verify(capsys, self.SECOND)
        assert [cache.cache_info().currsize for cache in _MEMO_CACHES] == alone
        assert not any(self.cached(cache, *args) for cache, args in probes)

        # structure reads the generator summands directly, never through act_e
        assert main(["structure", "--base-vector", self.FIRST, "--radius", "1"]) == 0
        capsys.readouterr()
        assert act_e.cache_info().currsize == 0

    def test_verify_caches_no_diagonal_result(self, capsys):
        # the cache held 1,806 entries when E(r,r) results were cached as well
        assert main(["verify", "--radius", "2", "--base-vector", self.BENCH]) == 0
        capsys.readouterr()
        assert act_e.cache_info().currsize == 1011
        # one label object for each of the 328 distinct keys in those results
        assert _label.cache_info().currsize == 328

    def test_verify_caches_no_commutator_result(self, capsys):
        # E_ij, |i-j| >= 2, is folded on a whole vector from act_e results on
        # every call: the commutator memo held 387 results here when it stored
        # them, and folding key by key made 1,094 folds
        assert main(["verify", "--radius", "2", "--base-vector", self.BENCH]) == 0
        capsys.readouterr()
        info = _apply_e_key.cache_info()
        assert info.misses == 750
        assert (info.hits, info.currsize) == (0, 0)
        assert act_e.cache_info().currsize == 1011

    def test_verify_window_keys_are_labels(self, capsys, monkeypatch):
        # the window keys verify checks are the label objects its results name
        from gtmodules import checks

        seen = []
        unrecorded = checks.check_relations

        def recorded(v, keys):
            seen.append((v, keys))
            return unrecorded(v, keys)

        monkeypatch.setattr(checks, "check_relations", recorded)
        self.verify(capsys, self.FIRST)
        ((v, keys),) = seen
        labels = _label.cache_info().currsize
        assert all(k is _label(v, k) for k in keys)
        assert _label.cache_info().currsize == labels

    def test_reset_ignores_rebound_names(self, capsys, monkeypatch):
        # a wrapper bound over a cached function's module names (as a span
        # tracer does) has no cache_clear; the reset must still find the cache
        from gtmodules import action

        def wrapper(*args):
            return act_e(*args)

        monkeypatch.setattr(action, "act_e", wrapper)
        self.verify(capsys, self.FIRST)
        assert act_e.cache_info().currsize > 0
        self.verify(capsys, self.SECOND)
        v = BaseVector.from_json(json.loads(self.FIRST))
        assert not self.cached(act_e, v, 1, 2, basis_key(v, Shift.zero(3)))


class TestParserLifetime:
    # main builds its parser on the first call, reuses it, and picks the
    # command function by name at call time
    FINITE = ["finite", "--weight", "1,0"]

    def test_import_builds_no_parser(self):
        code = (
            "import argparse, sys; sys.path.insert(0, sys.argv[1]); built = []; "
            "init = argparse.ArgumentParser.__init__; "
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(init(self, *a, **k)); "
            "import gtmodules.cli; print(len(built), gtmodules.cli._PARSER)"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run(
            [sys.executable, "-I", "-c", code, str(src)], capture_output=True, text=True, check=True, timeout=60
        )
        assert done.stdout.split() == ["0", "None"]

    def test_built_once(self, capsys, monkeypatch):
        from gtmodules import cli

        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "_PARSER", None)
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        assert run_cli(capsys, *self.FINITE)[0] == 0
        assert run_cli(capsys, "finite", "--weight", "2,1,0")[1]["dimension"] == 8
        assert built == [1]

    def test_command_rebound_after_first_call(self, capsys, monkeypatch):
        from gtmodules import cli

        assert run_cli(capsys, *self.FINITE)[0] == 0
        assert cli._PARSER is not None
        monkeypatch.setattr(cli, "cmd_finite", lambda args: ({"rebound": args.weight}, 0))
        assert run_cli(capsys, *self.FINITE) == (0, {"rebound": "1,0"})

    def test_command_leaves_no_argparse_garbage(self, capsys):
        import gc
        import types

        argv = ["structure", "--base-vector", REMARK_JSON, "--radius", "1"]
        assert main(argv) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(argv) == 0
            gc.collect()
            left = [
                o for o in gc.garbage
                if type(o).__module__ == "argparse" or isinstance(o, types.FunctionType) and o.__module__ == "argparse"
            ]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        capsys.readouterr()
        assert left == []


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

    def test_equal_top_row_entries_pass(self, capsys):
        # the eigenvalues are polynomials in the row entries, so two equal
        # top-row entries are no pole for the gamma-coherence suite
        vector = json.dumps({"rows": [["1/2", "1/2", "1/5"], ["1/7", "1/7"], ["1/7"]]})
        code, report = run_cli(capsys, "verify", "--radius", "1", "--base-vector", vector)
        assert code == 0
        assert report["passed"] is True

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


class TestInternalErrors:
    @pytest.mark.parametrize(
        "exc",
        [
            PoleAtZero("function has a pole at t = 0"),
            NotSeparable("all eigenvalues agree"),
            NotStandard("input tableau is not standard"),
            DegenerateFactor("identically zero factor in denominator"),
        ],
        ids=["PoleAtZero", "NotSeparable", "NotStandard", "DegenerateFactor"],
    )
    def test_invariant_failure_exit_3_without_traceback(self, capsys, monkeypatch, exc):
        from gtmodules import cli

        def broken(args):
            raise exc

        monkeypatch.setattr(cli, "cmd_verdict", broken)
        code = main(["verdict", "--base-vector", REMARK_JSON])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out) == {"error": "InternalError", "message": f"{type(exc).__name__}: {exc}"}
        assert "Traceback" not in captured.out + captured.err


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

    def test_json_out_is_byte_identical_to_stdout(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        argv = ["structure", "--radius", "2", "--center", "1,0;0", "--base-vector", REMARK_JSON]
        assert main([*argv, "--json-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert len(out) > 20000  # more than one block
        assert path.read_text(encoding="utf-8") == out

    def test_unwritable_json_out_exit_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "report.json"
        code, report = run_cli(capsys, "finite", "--weight", "2,1,0", "--json-out", str(path))
        assert code == 2
        assert report["error"] == "InputError"
        assert report["message"].startswith("--json-out ")
        assert not path.parent.exists()

    def test_error_report_not_written_to_json_out(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, report = run_cli(
            capsys, "structure", "--radius", "0", "--base-vector", REMARK_JSON, "--json-out", str(path)
        )
        assert code == 2
        assert report["message"].startswith("--radius")
        assert not path.exists()

    def test_reports_deterministic(self, capsys):
        def grab(*argv):
            main(list(argv))
            return capsys.readouterr().out

        args = ("structure", "--base-vector", REMARK_JSON, "--radius", "2")
        assert grab(*args) == grab(*args)
        args = ("verdict", "--base-vector", REMARK_JSON, "--radius", "2")
        assert grab(*args) == grab(*args)
