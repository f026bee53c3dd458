"""Smoke test of the traced benchmark.

``perfbench/run.py --trace 1`` rebinds library functions by name and reads
the memo caches, so a change in ``src/`` can break it without breaking any
library test.  One traced op of the cheapest structure workload (about 2 s)
and one of the verify workload, the only one that runs ``act_e`` and
``_apply_e_key`` whose ``cache_info()`` the trace reads (about 1 s), show it
still runs and still passes its correctness gate.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["generic4-structure", "singular3-verify"])
def test_traced_benchmark_runs_one_correct_op(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout + done.stderr
