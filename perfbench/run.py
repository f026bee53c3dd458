#!/usr/bin/env python3
"""Benchmark of the gtmodules CLI: the time to one verified JSON report.

Run from the repository root:

    python3 perfbench/run.py --workload singular4-structure --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40

Load model: a closed loop with one client.  The process imports gtmodules
once, then sends the workload's ops one after another through
``gtmodules.cli.main(argv)`` with stdout captured; an op is one CLI command
on one freshly generated base vector.  Every op's report passes the
correctness gate in ``workloads.py`` or counts as failed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
runs each vector twice from cold caches, untraced and then traced, checks
the two reports are byte-identical, and reports the per-layer metrics; the
spans go to perfbench/out/.  The last stdout line is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import REFERENCE_SEED, WORKLOADS, Workload, gate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Fresh interpreters that import gtmodules.cli, timed per run for setup_s.
# They are spread evenly over the run's seconds, between ops, and setup_s is
# the fastest of them.  On a shared host, interference only adds time and
# comes and goes within seconds: over six minutes on a 2-vCPU VM, the median
# of 11 back-to-back imports had a spread (quartile distance over median) of
# 0.40, and the fastest of imports spread over 40 s one of 0.02-0.07.
SETUP_IMPORTS = 24
IMPORT_CLI = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import gtmodules.cli; print(time.perf_counter() - t)"
)


def import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-I", "-c", IMPORT_CLI, str(SRC)],
        capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
    )
    return float(done.stdout)


def timed_op(main, argv: list[str]) -> tuple[float, float, int | str, str]:
    """(wall s, cpu s, exit code, stdout) of one CLI call.  An exception
    becomes a failed op, with its traceback in place of the report."""
    buf = io.StringIO()
    wall, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(buf):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
        except Exception:
            code = "exception"
            print(traceback.format_exc())
    return time.perf_counter() - wall, time.process_time() - cpu, code, buf.getvalue()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def row(name: str, value: float, unit: str) -> str:
    return f"{name:<32} {value:>14.6g} {unit}"


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten values beyond it, as (percent, value)."""
    n = len(values)
    if n < 11:
        return None
    return 100 * (n - 10) / n, sorted(values)[n - 11]


class Run:
    """Op loop shared by both modes: stops once it has done ``min_ops`` and
    the next op would, at the median pace so far, end past ``seconds``."""

    def __init__(self, w: Workload, seed: int, seconds: float, min_ops: int):
        self.w, self.seed, self.seconds, self.min_ops = w, seed, seconds, min_ops
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def ops(self, pace: list[float]):
        start = time.perf_counter()
        for argv in map(self.w.argv, self.w.vectors(self.seed)):
            if self.attempted >= self.min_ops:
                if time.perf_counter() - start + statistics.median(pace) > self.seconds:
                    return
            self.attempted += 1
            yield self.attempted - 1, argv

    def check(self, op: int, code: int, text: str, extra: list[str] = ()) -> None:
        problems = gate(self.w, code, text) + list(extra)
        if op == 0 and self.seed == REFERENCE_SEED:
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest != self.w.reference_sha256:
                problems.append(f"reference report sha256 {digest} != recorded {self.w.reference_sha256}")
        if problems:
            self.failed += 1
            self.failures.append(f"op {op}: " + "; ".join(problems))


def run_untraced(w: Workload, args, cli) -> tuple[Run, dict, list[str]]:
    run = Run(w, args.seed, args.seconds, w.rss_after_ops)
    walls, cpus, setup = [], [], []
    rss = None
    import_seconds()  # untimed, so that bytecode compilation is not part of setup_s
    start = time.perf_counter()
    for op, argv in run.ops(walls):
        due = SETUP_IMPORTS * (time.perf_counter() - start) / args.seconds
        while len(setup) < min(due, SETUP_IMPORTS):
            setup.append(import_seconds())
        wall, cpu, code, text = timed_op(cli.main, argv)
        walls.append(wall)
        cpus.append(cpu)
        run.check(op, code, text)
        if op + 1 == w.rss_after_ops:
            rss = peak_rss_mb()
    while len(setup) < SETUP_IMPORTS:
        setup.append(import_seconds())
    metrics = {"peak_rss_mb": rss, "setup_s": min(setup)}
    t = tail(walls)
    # Not in BENCHMARK.json: on a shared host the spread of op times from run
    # to run is as wide as the widest bound allowed (see README.md).
    notes = [
        row("op_s.p50", statistics.median(walls), "s"),
        row("op_s.min", min(walls), "s"),
        row("op_cpu_s.p50", statistics.median(cpus), "s"),
        row("keys_per_s", w.keys_per_op * len(walls) / sum(walls), f"keys/s ({w.keys_per_op} keys per op)"),
        row("op_s.tail", t[1], f"s (p{t[0]:.0f} of {len(walls)} ops)") if t
        else f"{'op_s.tail':<32} {'n/a':>14} ({len(walls)} ops; a tail needs at least 11)",
        f"{'failed_ops':<32} {run.failed:>14} of {run.attempted} ops",
        f"{'peak_rss_mb at end of run':<32} {peak_rss_mb():>14.6g} MB (gated value: after op {w.rss_after_ops})",
        row("setup_s.p50", statistics.median(setup), f"s (median of {len(setup)} imports)"),
        "op_s in order: " + " ".join(f"{x:.3f}" for x in walls),
    ]
    return run, metrics, notes


def run_traced(w: Workload, args, cli) -> tuple[Run, dict, list[str]]:
    from tracer import Tracer, distinct_caches

    caches = distinct_caches()
    action = sys.modules["gtmodules.action"]
    act_e, apply_e_key = action.act_e, action._apply_e_key
    tracer = Tracer()
    main = tracer.wrap("cli.main", cli.main)
    run = Run(w, args.seed, args.seconds, 1)
    pace, untraced, traced, per_op = [], [], [], []

    def cold():
        for cache in caches:
            cache.cache_clear()
        gc.collect()

    for op, argv in run.ops(pace):
        tracer.op = op
        passes = {}
        # Alternate which pass runs first: the first pass after clearing the
        # caches also pays for growing the heap again.
        for traced_pass in (False, True) if op % 2 == 0 else (True, False):
            cold()
            if not traced_pass:
                passes[False] = timed_op(cli.main, argv)
                continue
            tracer.counters.clear()
            first = len(tracer.spans) // 5
            tracer.install()
            try:
                passes[True] = timed_op(main, argv)
            finally:
                tracer.uninstall()
            per_op.append(layer_metrics(w, tracer, first, passes[True][3], caches, act_e, apply_e_key))
        (wall_u, _, code_u, text_u), (wall_t, _, code_t, text_t) = passes[False], passes[True]
        untraced.append(wall_u)
        traced.append(wall_t)
        pace.append(wall_u + wall_t)
        same = [] if (code_t, text_t) == (code_u, text_u) else ["traced report differs from the untraced one"]
        run.check(op, code_u, text_u, same)
    # Times are medians over the traced ops.  Counts and ratios come from the
    # first traced op, so that they repeat exactly for a seed however many
    # ops the run fits in.
    metrics = {
        name: statistics.median(m[name] for m in per_op) if name.endswith("_s") else value
        for name, value in per_op[0].items()
    }
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{w.name}-seed{args.seed}"
    tracer.dump(path, {"workload": w.name, "seed": args.seed, "ops": len(per_op)})
    notes = [
        row("op_s.p50 untraced", statistics.median(untraced), "s"),
        row("op_s.p50 traced", statistics.median(traced), "s"),
        f"{'failed_ops':<32} {run.failed:>14} of {run.attempted} ops",
        f"spans of {len(per_op)} traced ops in {path.relative_to(ROOT)}.bin",
    ]
    return run, metrics, notes


def layer_metrics(w, tracer, first, text, caches, act_e, apply_e_key) -> dict:
    calls, inclusive, exclusive = tracer.profile(first)

    def count(*names):
        return sum(calls[n] for n in names)

    def layer_calls(layer):
        return sum(c for n, c in calls.items() if n.startswith(layer + "."))

    def layer_self(layer):
        return sum(ns for n, ns in exclusive.items() if n.startswith(layer + ".")) / 1e9

    def seconds(name):
        return inclusive[name] / 1e9

    act_e_calls = calls["action.act_e"]
    key_info = apply_e_key.cache_info()
    lookups = key_info.hits + key_info.misses
    return {
        "ratcalc.calls": layer_calls("ratcalc"),
        "ratcalc.self_s": layer_self("ratcalc"),
        "tableau.calls": layer_calls("tableau"),
        "tableau.self_s": layer_self("tableau"),
        "action.act_e.calls": act_e_calls,
        "action.act_e.misses": act_e.cache_info().misses,
        "action.act_e.diag_share": tracer.counters["action.act_e.diag"] / act_e_calls if act_e_calls else 0.0,
        "action.coeff_e.calls": count("action.coeff_e"),
        "action.emissions.calls": count("action._singular_emissions", "action._classical_terms"),
        "action.self_s": layer_self("action"),
        "action.apply_e_key.hit_ratio": key_info.hits / lookups if lookups else 0.0,
        "action.gamma.calls": count("action.gamma_eval", "action.gamma_dvbar"),
        "action.pbw.calls": count("action.apply_casimir_pbw"),
        "structure.reach_edges.per_key": count("structure.reach_edges") / w.keys_per_op,
        "structure.window_shifts.calls": count("structure.Window.shifts"),
        "structure.omega_plus.calls": count("structure.omega_plus"),
        "structure.edges_scanned": tracer.counters["structure.edges_scanned"],
        "structure.closure_s": seconds("structure.reach_closure"),
        "structure.components_s": seconds("structure.reach_components"),
        "structure.drop_audit_s": seconds("structure.omega_drop_audit"),
        "structure.self_s": layer_self("structure"),
        "checks.relations_s": seconds("checks.check_relations"),
        "checks.gamma_coherence_s": seconds("checks.check_gamma_coherence"),
        "checks.dpair_s": seconds("checks.check_dpair_properties"),
        "checks.character_pairing_s": seconds("checks.check_character_pairing"),
        "checks.separation_s": seconds("checks.check_separation"),
        "checks.drop_bound_s": seconds("checks.check_drop_bound"),
        "cli.self_s": layer_self("cli"),
        "cli.report_bytes": len(text.encode()),
        "cache.entries": sum(c.cache_info().currsize for c in caches),
    }


def run_all(args) -> int:
    """Run every workload, each in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "gtmodules" / "cli.py").is_file():
        print(f"gtmodules sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = WORKLOADS[args.workload]
    sys.path.insert(0, str(SRC))
    import gtmodules.cli as cli

    run, metrics, notes = (run_traced if args.trace else run_untraced)(w, args, cli)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    print(f"== {w.name}  seed {args.seed}  {'traced' if args.trace else 'untraced'}")
    for m in declared:
        print(row(m["name"], metrics[m["name"]], m["unit"]))
    print("-- not in BENCHMARK.json")
    for line in notes:
        print(line)
    for line in run.failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
