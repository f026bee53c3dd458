"""Smoke test of the traced benchmark.

``perfbench/run.py --trace 1`` rebinds library functions by name and reads
the memo caches, so a change in ``src/`` can break it without breaking any
library test.  One traced op of each workload, including the verify
workload, the only one that runs ``act_e`` and the vector-level commutator
fold ``_apply_e_key`` whose ``cache_info()`` the trace reads, shows it still
runs and still passes its correctness gate.  Each op's work counts are
pinned as well, and the verify op's counts also pin which generator
results the caches hold.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# Counts the trace reads on each seed-0 op.  They pin the work a refactor
# must keep identical: coefficient and calculus calls, the subalgebra and
# PBW routes and the triple-set scans, with no extra run.  On the verify op
# they also pin the memo policy: act_e holds the 1,011 adjacent results,
# _apply_e_key folds each commutator on a whole vector and holds none (its
# misses count the 750 folds, so none is ever a hit), and the caches end
# with those, 328 labels and 58 eigenvalue pairs.
MEMO_POLICY = {
    "generic4-structure": {
        "ratcalc.calls": 8748,
        "tableau.calls": 0,
        "action.coeff_e.calls": 8748,
        "action.gamma.calls": 0,
        "structure.omega_plus.calls": 731,
    },
    "singular4-structure": {
        "ratcalc.calls": 17496,
        "tableau.calls": 12340,
        "action.coeff_e.calls": 8748,
        "action.gamma.calls": 729,
        "structure.omega_plus.calls": 1461,
    },
    "singular3-verify": {
        "ratcalc.calls": 5748,
        "tableau.calls": 16248,
        "action.coeff_e.calls": 2224,
        "action.gamma.calls": 2602,
        "structure.omega_plus.calls": 125,
        "action.act_e.calls": 15267,
        "action.pbw.calls": 625,
        "action.apply_e_key.hit_ratio": 0.0,
        "action.act_e.misses": 1011,
        "cache.entries": 1397,
    },
}


@pytest.mark.parametrize("workload", sorted(MEMO_POLICY))
def test_traced_benchmark_runs_one_correct_op(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stdout + done.stderr
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert {name: metrics[name] for name in MEMO_POLICY[workload]} == MEMO_POLICY[workload]
