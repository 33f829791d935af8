"""Module boundaries of the package source."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import distlab
from distlab.discrimination import global_distinguishable, ppt_discrimination_problem
from distlab.povm import povm_to_json
from distlab.sdp import problem_to_json
from distlab.states import bell_states, state_set_to_json

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


# the package's functions and classes that nothing in it uses or exports, each kept on purpose
KEPT_UNREFERENCED = {
    "cli.parse_report": "the strict reader of the reports every command writes; schema-version checks will extend it",
    "sdp.problem_to_json": "writes the problem format that `distlab sdp --problem` reads",
}


def used_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def unreferenced(paths: list[Path]) -> list[str]:
    """``module.name`` for every module-level function and class of ``paths`` that no
    file among them uses (loads, reads as an attribute or imports) outside its own definition."""
    defined, used = [], set()
    for path in paths:
        for top in ast.parse(path.read_text(), str(path)).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
            if own:
                defined.append((path.stem, own))
            used.update(name for node in ast.walk(top) if (name := used_name(node)) and name != own)
    return [f"{module}.{name}" for module, name in defined if name not in used]


def test_unreferenced_scan_counts_uses_across_files_but_not_self_reference(tmp_path):
    a = tmp_path / "a.py"
    a.write_text(
        "def imported():\n    pass\n\n"
        "def helper():\n    pass\n\n"
        "def caller():\n    return helper()\n\n"
        "def recursive(n):\n    return recursive(n - 1)\n\n"
        "class Read:\n    pass\n\n"
        "class Assigned:\n    pass\n\n"
        "Assigned = None\n"
    )
    b = tmp_path / "b.py"
    b.write_text("from .a import imported\nfrom . import a\n\nx = a.Read\n")
    assert unreferenced([a, b]) == ["a.caller", "a.recursive", "a.Assigned"]


def test_every_function_and_class_is_used_or_exported():
    modules = [m for m in sorted(SOURCE.rglob("*.py")) if m.name != "__init__.py"]  # its imports are __all__'s
    unused = [name for name in unreferenced(modules) if name.split(".")[-1] not in distlab.__all__]
    assert sorted(unused) == sorted(KEPT_UNREFERENCED)


def test_every_exported_name_resolves_once():
    assert len(set(distlab.__all__)) == len(distlab.__all__)
    assert [name for name in distlab.__all__ if not hasattr(distlab, name)] == []


def test_exported_names_resolve_lazily_to_their_home_modules():
    for name in distlab.__all__:
        value = getattr(distlab, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("distlab.") and getattr(home, name) is value, name
    assert set(distlab.__all__) <= set(dir(distlab))
    assert {"linalg", "states", "povm", "sdp", "discrimination"} <= set(dir(distlab))
    with pytest.raises(AttributeError, match="no_such_name"):
        distlab.no_such_name


# the distlab modules each case leaves loaded in a fresh interpreter, besides distlab and distlab.cli
LOADED = {
    "import": set(),
    "gen": {"linalg", "states"},
    "verify": {"linalg", "povm"},
    "discriminate": {"linalg", "povm", "states", "discrimination"},
    "fuzz": {"linalg", "povm", "states", "discrimination"},
    "counterexample": {"linalg", "povm"},
    "sdp": {"linalg", "sdp"},
    "theorem1": {"linalg", "povm", "states", "discrimination", "sdp"},
}

MODULES_AFTER = """
import json, sys
from distlab.cli import run
argv = sys.argv[1:]
code = run(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "distlab")]))
"""


@pytest.mark.parametrize("case", sorted(LOADED))
def test_each_command_loads_only_the_modules_it_runs(case, tmp_path):
    def write(name, obj):
        (tmp_path / name).write_text(json.dumps(obj))
        return str(tmp_path / name)

    pair = bell_states().subset([0, 2])
    states = write("states.json", state_set_to_json(pair))
    povm = write("povm.json", povm_to_json(global_distinguishable(pair).witness))
    argv = {
        "import": [],
        "gen": ["gen", "--family", "gbell", "--dims", "3,3"],
        "verify": ["verify", "--povm", povm],
        "discriminate": ["discriminate", "--states", states, "--povm", povm],
        "fuzz": ["fuzz", "--kinds", "general,sep", "--trials", "2", "--seed", "1", "--states", states],
        "counterexample": ["counterexample"],
        "sdp": ["sdp", "--problem", write("problem.json", problem_to_json(ppt_discrimination_problem(pair)))],
        "theorem1": ["theorem1", "--states", states, "--new-dims", "3,3"],
    }[case]
    env = dict(os.environ, PYTHONPATH=str(SOURCE.resolve().parent))
    proc = subprocess.run([sys.executable, "-c", MODULES_AFTER, *argv], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0
    assert loaded == sorted({"distlab", "distlab.cli"} | {f"distlab.{m}" for m in LOADED[case]})
