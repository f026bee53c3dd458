"""Command-line front end: build modules, apply generators, run the
verification suites, analyze window structure and emit JSON reports.

JSON conventions
----------------
Rationals are exact "p/q" strings.  Base vectors:

    {"n": 3,
     "anchors": ["1/2", "1/7"],
     "assignment": [[0, 0, 0], [1, 1], [1]],
     "offsets":    [[2, 0, -1], [0, 0], [0]]}

with rows listed top row first; ``{"rows": [["1/2", ...], ...]}`` with
explicit entries is accepted on input and normalized.  Shifts are arrays of
rows from row n-1 down to row 1, e.g. ``[[0, 0], [1]]`` for gl(3); the
compact command-line form is semicolon-separated rows ``"0,0;1"``.  Basis
keys are ``{"shift": ..., "kind": "T"|"DT"}``.

Exit codes: 0 success, 1 failed verification, 2 malformed input, 3 an
internal invariant failure (a pole at t = 0, labels with no separating
element, a finite-family action on a non-standard tableau, a vanishing
coefficient factor outside the one-singular family), 141 when the reader
of stdout closed it before the report was written.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain

from . import checks
from .action import ModVec, NotStandard, _check_key, _clear_memo_caches, _label, act_gamma, apply_e
from .checks import _modvec_json
from .ratcalc import DegenerateFactor, PoleAtZero, parse_rat
from .structure import (
    HypothesisViolated,
    NotSeparable,
    Window,
    basis_key,
    irreducibility_verdict,
    omega_classes,
    omega_k_plus,
    omega_plus,
    reach_closure,
    reach_components,
    reach_scan,
)
from .tableau import (
    BaseVector,
    Family,
    Kind,
    Shift,
    TabKey,
    canonicalize,
    singular_triple,
    standard_shifts,
)


class InputError(ValueError):
    pass


def _parse_list(text: str, parse=int) -> list:
    """Comma-separated fields read by ``parse``; an empty field is an error,
    not skipped."""
    fields = text.split(",")
    if not all(x.strip() for x in fields):
        raise ValueError(f"empty field in {text!r}")
    return [parse(x) for x in fields]


def _parse_rows(text: str) -> list[list[int]]:
    return [_parse_list(part) for part in text.split(";")]


def _parse_shift(n: int, text: str) -> Shift:
    return Shift.from_json(n, _parse_rows(text))


def _parse_key(v: BaseVector, text: str) -> TabKey:
    """A basis key of v as JSON or as 'KIND@rows' (KIND T when omitted);
    bad input, or a label that is not a basis key, raises InputError naming
    --key."""
    stripped = text.strip()
    try:
        if stripped.startswith("{"):
            try:
                data = json.loads(stripped)
            except RecursionError:  # nested past the decoder's depth limit
                raise ValueError("JSON nested too deeply to decode") from None
            key = TabKey.from_json(v.n, data)
        else:
            kind, sep, rows = stripped.partition("@")
            if not sep:
                kind, rows = Kind.REGULAR.value, stripped
            key = TabKey.from_json(v.n, {"shift": _parse_rows(rows), "kind": kind.strip()})
        _check_key(v, key)
        return key
    except ValueError as exc:
        raise InputError(f"--key {text!r}: {exc}") from None


def _load_base_vector(args) -> BaseVector:
    """The base vector of --base-vector, or of --anchors, --assignment and
    --offsets.  A flag given is read even when its value is empty, so that an
    empty value is an error naming it rather than a flag left out."""
    if getattr(args, "base_vector", None) is not None:
        conflicts = [flag for flag in ("anchors", "assignment", "offsets") if getattr(args, flag, None) is not None]
        if conflicts:
            raise InputError(f"--base-vector conflicts with --{', --'.join(conflicts)}; give one or the other")
        text = args.base_vector
        if not text.strip():
            raise InputError(f"--base-vector {text!r}: empty field in {text!r}")
        if text.startswith("@") or not text.lstrip().startswith("{"):
            with open(text.removeprefix("@"), "r", encoding="utf-8") as fh:
                text = fh.read()
        try:
            data = json.loads(text)
        except RecursionError:  # nested past the decoder's depth limit
            raise InputError("--base-vector: JSON nested too deeply to decode") from None
        return BaseVector.from_json(data)
    if getattr(args, "anchors", None) is not None:
        if getattr(args, "assignment", None) is None:
            raise InputError("--anchors requires --assignment")
        flag, text = "--anchors", args.anchors
        try:
            anchors = _parse_list(text, parse_rat)
            flag, text = "--assignment", args.assignment
            assignment = _parse_rows(text)
            if getattr(args, "offsets", None) is not None:
                flag, text = "--offsets", args.offsets
                offsets = _parse_rows(text)
            else:
                offsets = [[0] * len(row) for row in assignment]
        except ValueError as exc:
            raise InputError(f"{flag} {text!r}: {exc}") from None
        return BaseVector.from_json(
            {"n": len(assignment), "anchors": [str(a) for a in anchors], "assignment": assignment, "offsets": offsets}
        )
    raise InputError("no base vector given (use --base-vector or --anchors/--assignment)")


def _window(args, n: int) -> Window:
    margin = getattr(args, "margin", 1)  # only verdict reads a margin
    if args.radius < 1:
        raise InputError(f"--radius {args.radius}: the window radius must be at least 1")
    if not 0 <= margin <= args.radius:
        raise InputError(f"--margin {margin}: the margin must lie between 0 and --radius {args.radius}")
    try:
        center = Shift.zero(n) if args.center is None else _parse_shift(n, args.center)
    except ValueError as exc:
        raise InputError(f"--center {args.center!r}: {exc}") from None
    return Window(center=center, radius=args.radius, margin=margin)


def cmd_finite(args) -> tuple[dict, int]:
    if args.weight is not None and args.top_row is not None:
        raise InputError("--weight conflicts with --top-row; give one or the other")
    flag, text = ("--weight", args.weight) if args.weight is not None else ("--top-row", args.top_row)
    if text is None:
        raise InputError("finite requires --weight or --top-row")
    try:
        entries = _parse_list(text)
    except ValueError as exc:
        raise InputError(f"{flag} {text!r}: {exc}") from None
    v = BaseVector.from_weight(entries) if flag == "--weight" else BaseVector.finite(entries)
    shifts = standard_shifts(v)
    if not shifts:
        raise InputError("top row is not dominant (must be strictly decreasing)")
    report = {
        "command": "finite",
        "base_vector": v.to_json(),
        "dimension": len(shifts),
        "tableaux": [w.to_json() for w in shifts],
    }
    if args.tables:
        tables = {}
        for r in range(1, v.n + 1):
            for s in range(1, v.n + 1):
                if abs(r - s) > 1:
                    continue
                entries = []
                for w in shifts:
                    out = apply_e(v, r, s, ModVec.single(TabKey(w, Kind.REGULAR)))
                    entries.append([w.to_json(), _modvec_json(out)])
                tables[f"E({r},{s})"] = entries
        report["action_tables"] = tables
    return report, 0


def _parse_generator(n: int, text: str):
    """'E(i,j)', 'c(r,s)' or 'C(r,s)@rows' as (head, i, j, shift or None);
    bad input raises InputError naming --apply."""
    text = text.strip()
    head, _, rest = text.partition("(")
    idx_text, close, tail = rest.partition(")")
    if not close or ")" in tail or (tail and not tail.startswith("@")):
        raise InputError(f"--apply {text!r}: cannot parse generator")
    try:
        indices = _parse_list(idx_text)
        shift = _parse_shift(n, tail[1:]) if tail else None
    except ValueError as exc:
        raise InputError(f"--apply {text!r}: {exc}") from None
    if head not in ("E", "c", "C") or len(indices) != 2:
        raise InputError(f"--apply {text!r}: cannot parse generator")
    if (head == "C") != (shift is not None):
        raise InputError(f"--apply {text!r}: C(r,s) needs a shift after '@', and E(i,j) and c(r,s) take none")
    i, j = indices
    if head == "E" and not (1 <= i <= n and 1 <= j <= n):
        raise InputError(f"--apply {text!r}: generator indices must lie in 1..{n}")
    if head != "E" and not 1 <= j <= i <= n:
        raise InputError(f"--apply {text!r}: a level (r,s) needs 1 <= s <= r <= {n}")
    return (head, i, j, shift)


def _cmd_apply(args, expected: Family) -> tuple[dict, int]:
    v = _load_base_vector(args)
    fam = v.family
    if fam is not expected:
        raise InputError(f"base vector classifies as {fam.value}, expected {expected.value}")
    keys = [_parse_key(v, k) for k in args.key] if args.key else [basis_key(v, Shift.zero(v.n))]
    parts = args.apply or ["E(1,2)"]
    for part in parts:
        if not part.strip():
            raise InputError(f"--apply {part!r}: no generator given")
    gens = [(gtext, _parse_generator(v.n, gtext)) for part in parts for gtext in part.split()]
    results = []
    for key in keys:
        for gtext, (gkind, gi, gj, gshift) in gens:
            if gkind == "E":
                out = apply_e(v, gi, gj, ModVec.single(key))
            else:
                out = act_gamma(v, gi, gj, key, shift=gshift)
            results.append(
                {
                    "generator": gtext,
                    "key": key.to_json(),
                    "result": _modvec_json(out),
                }
            )
    report = {
        "command": expected.value,
        "base_vector": v.to_json(),
        "classification": fam.value,
        "results": results,
    }
    return report, 0


def cmd_generic(args):
    return _cmd_apply(args, Family.GENERIC)


def cmd_singular(args):
    return _cmd_apply(args, Family.ONE_SINGULAR)


def cmd_structure(args) -> tuple[dict, int]:
    v = _load_base_vector(args)
    fam = v.family
    if fam is Family.FINITE_STANDARD:
        raise InputError("structure analysis requires a generic or one-singular vector")
    win = _window(args, v.n)
    if args.key and len(args.key) > 1:
        raise InputError(f"--key given {len(args.key)} times; structure takes one focus key")
    if args.key:  # a label and its row-k swap name one basis key, up to sign
        key = _parse_key(v, args.key[0])
        key = canonicalize(v, key.kind, key.shift)[0]
    else:
        key = basis_key(v, win.center)
    keys = win.keys(v)
    try:
        focus = keys.index(key)
    except ValueError:
        raise InputError("--key is not a basis key of the window") from None
    succ, audit = reach_scan(v, keys, audit=fam is Family.ONE_SINGULAR)
    report: dict = {
        "command": "structure",
        "base_vector": v.to_json(),
        "classification": fam.value,
        "window": {"center": win.center.to_json(), "radius": win.radius, "margin": win.margin},
        "key": key.to_json(),
        "omega_plus": sorted(list(t) for t in omega_plus(v, key)),
    }
    report["reach_closure_size"] = len(reach_closure(succ, focus))
    report["window_size"] = len(keys)
    components = reach_components(succ)
    report["reach_components"] = {
        "count": len(components),
        "sizes": [len(c) for c in components[:10]],
    }
    del succ, components  # read no further: freed before the audit JSON is built
    if fam is Family.GENERIC:
        classes = omega_classes(v, keys)
        om = omega_plus(v, key)
        report["basis_N_window_size"] = sum(len(members) for c, members in classes.items() if om <= c)
        report["basis_I_window_size"] = len(classes[om])
        report["omega_classes"] = [
            {"omega_plus": sorted(list(t) for t in c), "size": len(members)}
            for c, members in sorted(classes.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        ]
    else:
        k, i, j = singular_triple(v)
        report["singular"] = [k, i, j]
        report["omega_k_plus"] = sorted(list(t) for t in omega_k_plus(v, key))
        try:
            report["basis_Ik_window_size"] = len(omega_classes(v, keys)[omega_k_plus(v, key)])
        except HypothesisViolated as exc:
            report["basis_Ik_window_error"] = str(exc)
        report["drop_audit"] = audit.to_json()
    return report, 0 if audit is None or audit.ok else 1


def cmd_verdict(args) -> tuple[dict, int]:
    v = _load_base_vector(args)
    if v.family is not Family.ONE_SINGULAR:
        raise InputError("verdict requires a one-singular base vector")
    win = _window(args, v.n)
    verdict = irreducibility_verdict(v, win)
    report = {
        "command": "verdict",
        "base_vector": v.to_json(),
        "window": {"center": win.center.to_json(), "radius": win.radius, "margin": win.margin},
        **verdict.to_json(),
    }
    return report, 0 if verdict.ok else 1


def cmd_verify(args) -> tuple[dict, int]:
    if args.sample is not None and args.sample < 0:
        raise InputError(f"--sample {args.sample}: the number of sampled pairs must be at least 0")
    v = _load_base_vector(args)
    fam = v.family
    if fam is Family.FINITE_STANDARD:
        raise InputError("verify requires a generic or one-singular vector")
    if fam is Family.GENERIC and args.sample is not None:
        raise InputError(f"--sample {args.sample}: the separation suite runs only on one-singular vectors")
    sample = 60 if args.sample is None else args.sample
    win = _window(args, v.n)
    suites: dict[str, dict] = {}

    def run(name: str, failures: list, checked: str):
        suites[name] = {
            "passed": not failures,
            "checked": checked,
            "failures": failures[:10],
        }

    # the window keys are the label objects the generator results name
    keys = [_label(v, key) for key in win.keys(v)]
    shifts = [key.shift for key in keys]
    run("relations", checks.check_relations(v, keys), f"{len(keys)} keys")
    run(
        "gamma_coherence",
        checks.check_gamma_coherence(v, keys, levels=[(m, k) for m in range(1, v.n + 1) for k in range(1, min(m, 2) + 1)]),
        f"{len(keys)} keys, levels up to power 2",
    )
    run("dpair_calculus", checks.check_dpair_properties(seed=args.seed, count=100), "100 random functions")
    if fam is Family.ONE_SINGULAR:
        run("character_pairing", checks.check_character_pairing(v, shifts), f"{len(keys)}^2 label pairs")
        run(
            "separation",
            checks.check_separation(v, shifts, sample=sample, seed=args.seed),
            f"sampled pairs (limit {sample})",
        )
    run("omega_drop_bound", checks.check_drop_bound(v, keys), "all window edges")
    passed = all(s["passed"] for s in suites.values())
    report = {
        "command": "verify",
        "base_vector": v.to_json(),
        "classification": fam.value,
        "suites": suites,
        "passed": passed,
    }
    return report, 0 if passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gtmodules",
        description="Exact Gelfand-Tsetlin tableau modules: actions, verification and structure.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(q, window: bool = True):
        q.add_argument("--base-vector", help="JSON literal, path, or @path of the base vector")
        q.add_argument("--anchors", help="comma-separated anchor rationals, e.g. '1/2,1/7'")
        q.add_argument("--assignment", help="semicolon rows of anchor indices, top row first")
        q.add_argument("--offsets", help="semicolon rows of integer offsets, top row first")
        q.add_argument("--json-out", help="also write the JSON report to this path")
        if window:
            q.add_argument("--radius", type=int, default=2, help="window radius (default 2)")
            q.add_argument("--center", help="window center shift, e.g. '0,0;0'")

    q = sub.add_parser("finite", help="standard basis of a finite-dimensional module")
    q.add_argument("--weight", help="dominant integral highest weight, e.g. '2,1,0'")
    q.add_argument("--top-row", help="top row entries directly, e.g. '2,0,-2'")
    q.add_argument("--tables", action="store_true", help="include full action tables")
    q.add_argument("--json-out")

    q = sub.add_parser("generic", help="apply generators in the generic family")
    common(q, window=False)
    q.add_argument("--apply", action="append", help="space-separated generators, e.g. 'E(1,2) c(2,2)'")
    q.add_argument("--key", action="append", help="basis key 'T@0,0;0' or JSON")

    q = sub.add_parser("singular", help="apply generators in the one-singular family")
    common(q, window=False)
    q.add_argument("--apply", action="append", help="e.g. 'E(2,3) C(2,2)@0,0;0'")
    q.add_argument("--key", action="append", help="basis key 'DT@2,0;0' or JSON")

    q = sub.add_parser("verify", help="run the invariant suites")
    common(q)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--sample", type=int, help="separation pairs to sample, one-singular vectors only (default 60)")

    q = sub.add_parser("structure", help="window structure report")
    common(q)
    q.add_argument("--key", action="append", help="focus key (default: window center)")

    q = sub.add_parser("verdict", help="irreducibility verdict with witness audit")
    common(q)
    q.add_argument("--margin", type=int, default=1, help="interior margin (default 1)")
    return p


_ENCODER = json.JSONEncoder(indent=2)

# Characters per write.  The indenting encoder yields tens of thousands of
# short chunks for a large report.  Joining them all, as json.dumps does,
# holds every chunk and then the whole text; writing each chunk alone keeps
# them all alive in a capturing io.StringIO, which joins its writes only on
# getvalue().  Joined a block at a time, one block of text is held.
BLOCK_CHARS = 16384


def _write_report(report, sinks: list) -> None:
    """Write the report and a final newline to every sink, in blocks of at
    most BLOCK_CHARS characters (a single longer chunk goes out alone).

    The report is encoded while it is written, so it must hold only plain
    JSON data: a value the encoder rejects raises after earlier blocks went
    out, not before the first one as json.dumps would.
    """
    block: list[str] = []
    size = 0
    for chunk in chain(_ENCODER.iterencode(report), ["\n"]):
        if size + len(chunk) > BLOCK_CHARS and block:
            text = "".join(block)
            for out in sinks:
                out.write(text)
            block.clear()
            size = 0
        block.append(chunk)
        size += len(chunk)
    text = "".join(block)
    for out in sinks:
        out.write(text)
        out.flush()


# Built by the first main call, not at import, and reused: parse_args makes a
# fresh Namespace per call.  Commands are looked up by name at call time, so
# a cmd_* rebound after the first call still runs.
_PARSER = None


def main(argv=None) -> int:
    global _PARSER
    # Memo entries are keyed on one command's base vector.  Emptying them on
    # entry, not on exit, holds a long-lived caller to one command's entries
    # and leaves the last command's hit and miss counts readable.
    _clear_memo_caches()
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    sinks = [sys.stdout]
    try:
        report, code = globals()[f"cmd_{args.command}"](args)
        if getattr(args, "json_out", None):  # error reports go to stdout only
            # opened before stdout gets a byte, so that a bad path leaves
            # stdout with the error report alone
            try:
                sinks.append(open(args.json_out, "w", encoding="utf-8"))
            except OSError as exc:
                raise InputError(f"--json-out {args.json_out!r}: {exc.strerror}") from None
    except (PoleAtZero, NotSeparable, NotStandard, DegenerateFactor) as exc:
        # before ValueError, which the last two subclass: no command input
        # reaches them
        report, code = {"error": "InternalError", "message": f"{type(exc).__name__}: {exc}"}, 3
    except (ValueError, KeyError, OSError) as exc:
        report, code = {"error": type(exc).__name__, "message": str(exc)}, 2
    try:
        _write_report(report, sinks)
    except BrokenPipeError:
        # The reader closed stdout.  Point it at devnull so that the flush at
        # exit cannot fail again, and exit as a process killed by SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    finally:
        # on exit 141 the --json-out file keeps what was written to it, as
        # with tee
        for fh in sinks[1:]:
            fh.close()
    return code


if __name__ == "__main__":
    sys.exit(main())
