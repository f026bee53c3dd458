"""Every exported name resolves, and the row-k swap is stated once.

A deletion that leaves its name in a module's ``__all__`` breaks
``from gtmodules.<module> import *`` only when someone runs it, and a
package re-export of a name its module no longer lists goes unnoticed, so
both are checked here for every module of the package.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import gtmodules

MODULES = [info.name for info in pkgutil.iter_modules(gtmodules.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"gtmodules.{name}")
    listed = getattr(module, "__all__", [])
    assert len(set(listed)) == len(listed)
    assert [x for x in listed if not hasattr(module, x)] == []


def test_package_reexports_are_listed_by_their_modules():
    tree = ast.parse(Path(gtmodules.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"gtmodules.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"{node.module}.{alias.name}"
            assert getattr(gtmodules, alias.name) is getattr(module, alias.name)


def test_test_only_helpers_stay_out_of_the_library():
    # tests/helpers.py and the test files carry these; the library calls none
    from gtmodules.structure import DropAuditReport, DropEdge, Window
    from gtmodules.tableau import BaseVector

    assert not hasattr(importlib.import_module("gtmodules.tableau"), "tau")
    assert not hasattr(gtmodules, "tau")
    assert not hasattr(Window, "contains")
    assert not hasattr(BaseVector, "anchor_index")
    assert not hasattr(DropEdge, "to_json")
    # reports compare as tuples, with no equality of their own
    assert "__eq__" not in vars(DropAuditReport)


def swap_calls(node) -> int:
    return sum(
        isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and call.func.attr == "swap"
        for call in ast.walk(node)
    )


def test_only_canonicalize_swaps_the_singular_pair():
    # every other module reads the quotient by the row-k swap (which label
    # names the basis vector, swap-fixed labels, swap-related pairs) from
    # canonicalize, so the rule is not restated
    message = "derivative tableaux exist only in the one-singular family"
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(gtmodules.__file__).parent.glob("*.py"))
    }
    canon = [f for f in ast.walk(trees["tableau.py"]) if isinstance(f, ast.FunctionDef) and f.name == "canonicalize"]
    assert len(canon) == 1 and swap_calls(canon[0])
    counts = {name: swap_calls(tree) for name, tree in trees.items()}
    assert {name: c for name, c in counts.items() if c} == {"tableau.py": swap_calls(canon[0])}
    constants = [node.value for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Constant)]
    assert constants.count(message) == 1


def imports_cli(tree) -> bool:
    """Whether a module imports gtmodules.cli in any spelling; a relative
    import is read from inside the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(alias.name == "gtmodules.cli" for alias in node.names):
            return True
        if isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["gtmodules" if node.level else None, node.module]))
            if module == "gtmodules.cli" or module == "gtmodules" and any(a.name == "cli" for a in node.names):
                return True
    return False


def test_library_logic_stays_out_of_the_cli():
    # the CLI only parses, dispatches and reports: demos and library modules
    # reach the mathematics without it
    src = Path(gtmodules.__file__).parent
    demos = Path(__file__).resolve().parent.parent / "demos"
    paths = sorted(demos.glob("*.py")) + [p for p in sorted(src.glob("*.py")) if p.name != "cli.py"]
    assert len(paths) > 4
    assert [p.name for p in paths if imports_cli(ast.parse(p.read_text(encoding="utf-8")))] == []
    spellings = ["from gtmodules.cli import main", "from .cli import main", "from . import cli", "import gtmodules.cli"]
    assert all(imports_cli(ast.parse(text)) for text in spellings)
    assert not imports_cli(ast.parse("from . import checks\nfrom gtmodules.tableau import Shift"))
