"""Golden corpus: fixed CLI reports must stay byte-identical.

Each case runs ``gtmodules.cli.main`` in-process and compares the sha256 of
its stdout with the digest stored in ``golden_digests.json``; the demo
scripts' outputs are pinned in the same file by ``test_demos.py``.
Refactors of the library must leave every digest unchanged.  To record the
digest of a newly added case or demo, run

    PYTHONPATH=src python tests/test_golden.py

It writes only the cases missing from the file and prints the name of each
recorded case whose report no longer matches, without rewriting it.  A
deliberate change of report output is recorded by deleting the affected
entries first.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from gtmodules.cli import main

DIGESTS = Path(__file__).with_name("golden_digests.json")


def _rows(*rows):
    return json.dumps({"rows": [[str(x) for x in row] for row in rows]})


# gl(3) one-singular vector (1/2, 1/3, 1/5 | 1/7, 1/7 | 1/7)
SINGULAR3 = _rows(["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/7"])
# gl(3) irreducible one-singular vector: no neighboring-row integral pair
SINGULAR3_IRR = _rows(["1/2", "1/3", "1/5"], ["1/7", "1/7"], ["1/11"])
# gl(3) generic vector with a cross-row anchor chain (x, ., . | x-1, . | x+1)
GENERIC3_CHAIN = _rows(["1/7", "1/3", "1/5"], ["-6/7", "1/11"], ["8/7"])
# gl(4) one-singular vector with entries k/19 and the pair in row 2
SINGULAR4 = _rows(
    ["1/19", "2/19", "3/19", "4/19"], ["5/19", "6/19", "7/19"], ["8/19", "8/19"], ["9/19"]
)

CASES = {
    "finite-10-tables": ["finite", "--weight", "1,0", "--tables"],
    "finite-210-tables": ["finite", "--weight", "2,1,0", "--tables"],
    "finite-2100": ["finite", "--weight", "2,1,0,0"],
    "generic3-apply": [
        "generic", "--base-vector", GENERIC3_CHAIN, "--apply", "E(1,2) c(2,2)", "--key", "T@0,0;0",
    ],
    "singular3-apply": [
        "singular", "--base-vector", SINGULAR3, "--apply", "E(3,2) C(2,2)@0,0;0", "--key", "DT@2,0;0",
    ],
    "singular4-apply": [
        "singular", "--base-vector", SINGULAR4, "--apply", "E(1,3) E(3,2)", "--key", "DT@0,0,0;1,0;0",
    ],
    "singular3-verify-r1": ["verify", "--radius", "1", "--base-vector", SINGULAR3],
    "singular3-structure-r2": ["structure", "--radius", "2", "--base-vector", SINGULAR3],
    # off-centre window and a derivative focus key: targets are looked up in a
    # window that is not swap-symmetric
    "singular3-structure-r2-offcentre": [
        "structure", "--radius", "2", "--center", "1,0;0", "--key", "DT@1,0;0", "--base-vector", SINGULAR3,
    ],
    "singular3-verdict-r2": ["verdict", "--radius", "2", "--base-vector", SINGULAR3],
    "singular3-irr-verdict-r2": ["verdict", "--radius", "2", "--base-vector", SINGULAR3_IRR],
    "generic3-structure-r2": ["structure", "--radius", "2", "--base-vector", GENERIC3_CHAIN],
    "generic3-verify-r1": ["verify", "--radius", "1", "--base-vector", GENERIC3_CHAIN],
}


def report_digest(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_is_byte_identical(name):
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[name]
    code, digest = report_digest(CASES[name])
    assert code == 0
    assert digest == expected


def record_missing() -> None:
    from test_demos import DEMOS, demo_digest

    digests = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.exists() else {}
    added = []
    current = {name: report_digest(argv)[1] for name, argv in CASES.items()}
    current.update((f"demo:{script}", demo_digest(script)) for script in DEMOS)
    for name, digest in sorted(current.items()):
        if name not in digests:
            digests[name] = digest
            added.append(name)
        elif digests[name] != digest:
            print(f"changed, not rewritten: {name}")
    if added:
        DIGESTS.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n", encoding="utf-8")
    print(f"recorded {len(added)} new digests in {DIGESTS}: {', '.join(added) or 'none'}")


if __name__ == "__main__":
    record_missing()
