import contextlib
import hashlib
import io
import json
import pathlib
import runpy

import pytest

DEMO_DIR = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(p.name for p in DEMO_DIR.glob("0*.py"))
# the demo outputs are pinned beside the golden CLI reports
DIGESTS = pathlib.Path(__file__).with_name("golden_digests.json")


def demo_output(script: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(DEMO_DIR / script), run_name="__main__")
    return buf.getvalue()


def demo_digest(script: str) -> str:
    return hashlib.sha256(demo_output(script).encode()).hexdigest()


@pytest.mark.parametrize("script", DEMOS)
def test_demo_runs(script):
    out = demo_output(script)
    assert out.strip()
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[f"demo:{script}"]
    assert hashlib.sha256(out.encode()).hexdigest() == expected
