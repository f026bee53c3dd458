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

Exit codes: 0 success, 1 failed verification, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import checks
from .action import ModVec, act_gamma, apply_e
from .checks import _modvec_json
from .ratcalc import parse_rat
from .structure import (
    HypothesisViolated,
    Window,
    _clear_memo_caches,
    basis_I_window,
    basis_Ik_window,
    basis_N_window,
    basis_key,
    irreducibility_verdict,
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
    classify,
    singular_triple,
)


class InputError(ValueError):
    pass


def _parse_int_list(text: str) -> list[int]:
    """Comma-separated integers; an empty field is an error, not skipped."""
    fields = text.split(",")
    if not all(x.strip() for x in fields):
        raise ValueError(f"empty field in {text!r}")
    return [int(x) for x in fields]


def _parse_rows(text: str) -> list[list[int]]:
    return [_parse_int_list(part) for part in text.split(";")]


def _parse_shift(n: int, text: str) -> Shift:
    return Shift.from_json(n, _parse_rows(text))


def _parse_key(n: int, text: str) -> TabKey:
    """A basis key as JSON or as 'KIND@rows' (KIND T when omitted); bad
    input raises InputError naming --key."""
    stripped = text.strip()
    try:
        if stripped.startswith("{"):
            return TabKey.from_json(n, json.loads(stripped))
        kind, sep, rows = stripped.partition("@")
        if not sep:
            kind, rows = Kind.REGULAR.value, stripped
        return TabKey.from_json(n, {"shift": _parse_rows(rows), "kind": kind.strip()})
    except ValueError as exc:
        raise InputError(f"--key {text!r}: {exc}") from None


def _load_base_vector(args) -> BaseVector:
    if getattr(args, "base_vector", None):
        text = args.base_vector
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                data = json.load(fh)
        elif text.lstrip().startswith("{"):
            data = json.loads(text)
        else:
            with open(text, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        return BaseVector.from_json(data)
    if getattr(args, "anchors", None):
        anchors = [parse_rat(a) for a in args.anchors.split(",")]
        if not getattr(args, "assignment", None):
            raise InputError("--anchors requires --assignment")
        flag, text = "--assignment", args.assignment
        try:
            assignment = _parse_rows(text)
            if getattr(args, "offsets", None):
                flag, text = "--offsets", args.offsets
                offsets = _parse_rows(text)
            else:
                offsets = [[0] * len(row) for row in assignment]
        except ValueError as exc:
            raise InputError(f"{flag} {text!r}: {exc}") from None
        n = len(assignment)
        return BaseVector.from_json(
            {
                "n": n,
                "anchors": [str(a) for a in anchors],
                "assignment": assignment,
                "offsets": offsets,
            }
        )
    raise InputError("no base vector given (use --base-vector or --anchors/--assignment)")


def _window(args, n: int) -> Window:
    try:
        center = _parse_shift(n, args.center) if args.center else Shift.zero(n)
    except ValueError as exc:
        raise InputError(f"--center {args.center!r}: {exc}") from None
    return Window(center=center, radius=args.radius, margin=args.margin)


def _enumerate_standard(v: BaseVector) -> list[Shift]:
    """All shifts whose tableau is standard, for an all-integral vector with
    dominant top row.

    Rows are filled from the top down; each entry of the next row ranges
    over the integers strictly above its down-right neighbor and at most its
    down-left neighbor, which is exactly the interlacing condition.  The
    lower rows of the base vector are zero, so enumerated rows are shifts.
    """
    from itertools import product as _product

    n = v.n
    top = [int(v.entry(n, s)) for s in range(1, n + 1)]
    if any(top[idx] - top[idx + 1] < 1 for idx in range(n - 1)):
        raise InputError("top row is not dominant (must be strictly decreasing)")
    complete: list[list[tuple[int, ...]]] = []

    def rec(rows_desc: list[tuple[int, ...]]):
        upper = rows_desc[-1]
        m = len(upper) - 1
        if m == 0:
            complete.append(rows_desc)
            return
        choices = [range(upper[idx + 1] + 1, upper[idx] + 1) for idx in range(m)]
        for combo in _product(*choices):
            rec(rows_desc + [tuple(combo)])

    rec([tuple(top)])
    shifts = []
    for rows_desc in complete:
        lower = list(reversed(rows_desc[1:]))  # rows 1..n-1 ascending
        shifts.append(Shift(n, tuple(tuple(x) for x in lower)))
    return sorted(shifts, key=lambda w: w.rows)


def cmd_finite(args) -> tuple[dict, int]:
    flag, text = ("--weight", args.weight) if args.weight else ("--top-row", args.top_row)
    if not text:
        raise InputError("finite requires --weight or --top-row")
    try:
        entries = _parse_int_list(text)
    except ValueError as exc:
        raise InputError(f"{flag} {text!r}: {exc}") from None
    v = BaseVector.from_weight(entries) if args.weight else BaseVector.finite(entries)
    shifts = _enumerate_standard(v)
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
    text = text.strip()
    head, _, rest = text.partition("(")
    rest = rest.rstrip(")")
    idx_text, sep, shift_text = rest.partition(")@")
    if "@" in rest and not sep:
        raise InputError(f"cannot parse generator {text!r}")
    try:
        indices = _parse_int_list(idx_text)
        shift = _parse_shift(n, shift_text) if sep else None
    except ValueError as exc:
        raise InputError(f"--apply {text!r}: {exc}") from None
    if head in ("E", "c") and len(indices) == 2:
        if shift is not None:
            raise InputError(f"{head}(i,j) takes no shift argument: {text!r}")
        if head == "E" and not all(1 <= x <= n for x in indices):
            raise InputError(f"--apply {text!r}: generator indices must lie in 1..{n}")
        return (head, indices[0], indices[1], None)
    if head == "C" and len(indices) == 2:
        if shift is None:
            raise InputError("recentred generator needs a shift: C(r,s)@rows")
        return ("C", indices[0], indices[1], shift)
    raise InputError(f"cannot parse generator {text!r}")


def _cmd_apply(args, expected: Family) -> tuple[dict, int]:
    v = _load_base_vector(args)
    fam = classify(v).family
    if fam is not expected:
        raise InputError(f"base vector classifies as {fam.value}, expected {expected.value}")
    n = v.n
    keys = (
        [_parse_key(n, k) for k in args.key]
        if args.key
        else [basis_key(v, Shift.zero(n))]
    )
    gens = [g for part in (args.apply or ["E(1,2)"]) for g in part.split() if g.strip()]
    results = []
    for key in keys:
        for gtext in gens:
            gkind, gi, gj, gshift = _parse_generator(n, gtext)
            if gkind == "E":
                out = apply_e(v, gi, gj, ModVec.single(key))
            else:
                out = act_gamma(v, gi, gj, key, shift=gshift)
            results.append(
                {
                    "generator": gtext.strip(),
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
    fam = classify(v).family
    if fam not in (Family.GENERIC, Family.ONE_SINGULAR):
        raise InputError("structure analysis requires a generic or one-singular vector")
    win = _window(args, v.n)
    key = _parse_key(v.n, args.key[0]) if args.key else basis_key(v, win.center)
    keys = win.keys(v)
    graph, audit = reach_scan(v, keys, audit=fam is Family.ONE_SINGULAR)
    if key not in graph:
        raise InputError("--key is not a basis key of the window")
    report: dict = {
        "command": "structure",
        "base_vector": v.to_json(),
        "classification": fam.value,
        "window": {"center": win.center.to_json(), "radius": win.radius, "margin": win.margin},
        "key": key.to_json(),
        "omega_plus": sorted(list(t) for t in omega_plus(v, key)),
    }
    closure = reach_closure(graph, key)
    report["reach_closure_size"] = len(closure)
    report["window_size"] = len(graph)
    components = reach_components(graph)
    report["reach_components"] = {
        "count": len(components),
        "sizes": [len(c) for c in components[:10]],
    }
    if fam is Family.GENERIC:
        report["basis_N_window_size"] = len(basis_N_window(v, key.shift, keys))
        report["basis_I_window_size"] = len(basis_I_window(v, key.shift, keys))
        classes: dict[frozenset, int] = {}
        for kk in graph:
            om = omega_plus(v, kk)
            classes[om] = classes.get(om, 0) + 1
        report["omega_classes"] = [
            {"omega_plus": sorted(list(t) for t in om), "size": cnt}
            for om, cnt in sorted(classes.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
        ]
    else:
        k, i, j = singular_triple(v)
        report["singular"] = [k, i, j]
        report["omega_k_plus"] = sorted(list(t) for t in omega_k_plus(v, key))
        try:
            report["basis_Ik_window_size"] = len(basis_Ik_window(v, key, keys))
        except HypothesisViolated as exc:
            report["basis_Ik_window_error"] = str(exc)
        report["drop_audit"] = audit.to_json()
    return report, 0


def cmd_verdict(args) -> tuple[dict, int]:
    v = _load_base_vector(args)
    if classify(v).family is not Family.ONE_SINGULAR:
        raise InputError("verdict requires a one-singular base vector")
    win = _window(args, v.n)
    verdict = irreducibility_verdict(v, win)
    report = {
        "command": "verdict",
        "base_vector": v.to_json(),
        "window": {"center": win.center.to_json(), "radius": win.radius, "margin": win.margin},
        **verdict.to_json(),
    }
    return report, 0


def cmd_verify(args) -> tuple[dict, int]:
    v = _load_base_vector(args)
    fam = classify(v).family
    if fam not in (Family.GENERIC, Family.ONE_SINGULAR):
        raise InputError("verify requires a generic or one-singular vector")
    win = _window(args, v.n)
    suites: dict[str, dict] = {}

    def run(name: str, failures: list, checked: str):
        suites[name] = {
            "passed": not failures,
            "checked": checked,
            "failures": failures[:10],
        }

    keys = win.keys(v)
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
            checks.check_separation(v, shifts, sample=args.sample, seed=args.seed),
            f"sampled pairs (limit {args.sample})",
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
            q.add_argument("--margin", type=int, default=1, help="interior margin (default 1)")

    q = sub.add_parser("finite", help="standard basis of a finite-dimensional module")
    q.add_argument("--weight", help="dominant integral highest weight, e.g. '2,1,0'")
    q.add_argument("--top-row", help="top row entries directly, e.g. '2,0,-2'")
    q.add_argument("--tables", action="store_true", help="include full action tables")
    q.add_argument("--json-out")
    q.set_defaults(func=cmd_finite)

    q = sub.add_parser("generic", help="apply generators in the generic family")
    common(q, window=False)
    q.add_argument("--apply", action="append", help="space-separated generators, e.g. 'E(1,2) c(2,2)'")
    q.add_argument("--key", action="append", help="basis key 'T@0,0;0' or JSON")
    q.set_defaults(func=cmd_generic)

    q = sub.add_parser("singular", help="apply generators in the one-singular family")
    common(q, window=False)
    q.add_argument("--apply", action="append", help="e.g. 'E(2,3) C(2,2)@0,0;0'")
    q.add_argument("--key", action="append", help="basis key 'DT@2,0;0' or JSON")
    q.set_defaults(func=cmd_singular)

    q = sub.add_parser("verify", help="run the invariant suites")
    common(q)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--sample", type=int, default=60, help="separation pairs to sample")
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("structure", help="window structure report")
    common(q)
    q.add_argument("--key", action="append", help="focus key (default: window center)")
    q.set_defaults(func=cmd_structure)

    q = sub.add_parser("verdict", help="irreducibility verdict with witness audit")
    common(q)
    q.set_defaults(func=cmd_verdict)
    return p


def main(argv=None) -> int:
    # Memo entries are keyed on one command's base vector.  Emptying them on
    # entry, not on exit, holds a long-lived caller to one command's entries
    # and leaves the last command's hit and miss counts readable.
    _clear_memo_caches()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except (InputError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err, indent=2))
        return 2
    text = json.dumps(report, indent=2, sort_keys=False)
    print(text)
    if getattr(args, "json_out", None):
        with open(args.json_out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
