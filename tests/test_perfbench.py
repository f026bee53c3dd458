"""Smoke test of the traced benchmark.

``perfbench/run.py --trace 1`` rebinds library functions by name and reads
the memo caches, so a change in ``src/`` can break it without breaking any
library test.  One traced op of the cheapest structure workload (about 2 s)
shows it still runs and still passes its correctness gate.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_benchmark_runs_one_correct_op():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generic4-structure", "--trace", "1", "--seconds", "0"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True, done.stdout + done.stderr
