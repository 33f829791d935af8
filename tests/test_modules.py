"""Module boundaries of the package source."""

import ast
from pathlib import Path

import distlab

SOURCE = Path(distlab.__file__).parent


def private_imports(path: Path) -> list[str]:
    """``module.name`` for every ``_``-prefixed, non-dunder name ``path`` imports from a distlab module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 0 and not (node.module or "").startswith("distlab"):
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"{'.' * node.level}{node.module or ''}.{name}")
    return found


def test_private_import_scan_sees_relative_and_absolute_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from . import __version__\n"
        "from .povm import Povm, _flatten\n"
        "from distlab.linalg import _party_list\n"
        "from numpy import _private\n"
    )
    assert private_imports(sample) == [".povm._flatten", "distlab.linalg._party_list"]


def test_no_module_imports_a_private_name_of_another():
    modules = sorted(SOURCE.rglob("*.py"))
    assert len(modules) >= 6
    assert {str(m.relative_to(SOURCE)): private_imports(m) for m in modules if private_imports(m)} == {}
