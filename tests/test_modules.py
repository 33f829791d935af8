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


def imported_modules(path: Path) -> set[str]:
    """The absolute modules ``path`` imports: ``a.b`` for ``import a.b`` and for ``from a.b import c``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module)
    return found


def test_import_scan_sees_both_import_forms(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("import os.path, json\nfrom dataclasses import dataclass\nfrom . import linalg\n")
    assert imported_modules(sample) == {"os.path", "json", "dataclasses"}


def test_no_module_imports_dataclasses():
    # the domain types are plain classes: a dataclass costs about a millisecond to create in every process
    found = {str(m.relative_to(SOURCE)): imported_modules(m) for m in sorted(SOURCE.rglob("*.py"))}
    assert [name for name, modules in found.items() if "dataclasses" in modules] == []


def unused_imports(path: Path) -> list[str]:
    """Every name an import statement of ``path`` names (``numpy.random`` for ``import numpy.random``, the
    alias if there is one) whose bound name the file never loads, sorted; ``__future__`` imports are not names."""
    tree = ast.parse(path.read_text(), str(path))
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                if (alias.asname or alias.name.split(".")[0]) not in loaded:
                    found.append(alias.asname or alias.name)
    return sorted(found)


def test_unused_import_scan_sees_both_import_forms_aliases_and_nested_imports(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "from __future__ import annotations\n"
        "import os, sys\n"
        "import numpy.random\n"
        "import numpy as np\n"
        "from typing import TYPE_CHECKING, Sequence\n"
        "from .linalg import is_integer as whole, check_dims\n"
        "if TYPE_CHECKING:\n    from .sdp import SdpProblem\n\n"
        "def f(x: SdpProblem) -> Sequence[int]:\n    import json\n    check_dims = None\n"
        "    return np.zeros(os.cpu_count())\n"
    )
    assert unused_imports(sample) == ["check_dims", "json", "numpy.random", "sys", "whole"]


def test_no_module_imports_a_name_it_does_not_use():
    # numpy loads numpy.random on its first use; the fuzz imports it once before it forks its workers
    found = {str(m.relative_to(SOURCE)): unused_imports(m) for m in sorted(SOURCE.rglob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {"discrimination.py": ["numpy.random"]}


def call_sites(path: Path, name: str, first_arg: str = "") -> list[str]:
    """``module.scope`` for every call of ``name`` (such as ``os.fork``) in ``path`` whose first argument's source
    contains ``first_arg``, the scope being the dotted names of the classes and functions that enclose it."""
    found = []

    def visit(node: ast.AST, scope: list[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Call) and ast.unparse(child.func) == name:
                if not first_arg or child.args and first_arg in ast.unparse(child.args[0]):
                    found.append(".".join([path.stem, *scope]))
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), [])
    return found


def test_fork_call_scan_names_the_enclosing_scope(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "import os\n\n"
        "pid = os.fork()\n\n"
        "class Pool:\n    def start(self):\n        return [os.fork() for _ in range(2)]\n\n"
        "def outer():\n    def inner():\n        os.fork()\n    return os.getpid()\n"
    )
    assert call_sites(sample, "os.fork") == ["sample", "sample.Pool.start", "sample.outer.inner"]
    assert call_sites(sample, "os.getpid") == ["sample.outer"] and call_sites(sample, "fork") == []


def test_call_scan_can_require_a_first_argument(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "def f(p, witness):\n"
        "    return isinstance(p.witness, list), isinstance(witness, dict), isinstance(p, int), isinstance()\n\n"
        "def g(w):\n    return isinstance(w, list)\n"
    )
    assert call_sites(sample, "isinstance", first_arg="witness") == ["sample.f", "sample.f"]
    assert call_sites(sample, "isinstance") == ["sample.f"] * 4 + ["sample.g"]


def test_only_linalg_in_workers_forks():
    # one fork mechanism in the package: its pipes, reaping and WorkerLost are written once
    calls = [call for module in sorted(SOURCE.rglob("*.py")) for call in call_sites(module, "os.fork")]
    assert calls == ["linalg.in_workers"]


def test_only_the_fuzz_runs_in_workers():
    # the fuzz's blocks are the one stage that forks; every command loads its input files in one process
    calls = [call for module in sorted(SOURCE.rglob("*.py")) for call in call_sites(module, "in_workers")]
    assert calls == ["discrimination.local_global_fuzz"]


def test_the_solver_reaches_partial_transpose_through_one_function():
    # each cut's cone is one frame, made from the partial transpose's index map: the iteration, the residuals, the
    # infeasibility screen and the projections all see the cut through it
    assert call_sites(SOURCE / "sdp.py", "partial_transpose") == ["sdp._frame"]


def test_the_report_writer_reaches_matrix_lists_through_one_walk():
    # a matrix's text comes from matrix_json_text; only the walk that nulls a non-finite entry builds its lists
    assert call_sites(SOURCE / "cli.py", "matrix_to_json") == ["cli._pieces"]


def test_only_the_povm_constructor_tests_a_witness_type():
    # a tree witness becomes product terms and a witness's shape is checked where a Povm is built, so no other
    # function of povm.py branches on what a witness is
    assert set(call_sites(SOURCE / "povm.py", "isinstance", first_arg="witness")) == {"povm.Povm.__init__"}


def test_the_fuzz_rules_are_written_once():
    # trials and seed are checked where kinds and dims are, so local_global_fuzz and harness_from_json obey one set
    assert call_sites(SOURCE / "discrimination.py", "is_integer") == ["discrimination.HarnessReport.__init__"]


def masked_takes(path: Path) -> list[str]:
    """The source of every ``take_batch`` call in ``path`` whose index (second argument or ``index=``) is neither an
    integer literal nor an ``int(...)`` call, or that passes no index."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not (isinstance(node, ast.Call) and ast.unparse(node.func).split(".")[-1] == "take_batch"):
            continue
        index = node.args[1] if len(node.args) > 1 else next((k.value for k in node.keywords if k.arg == "index"), None)
        integer = isinstance(index, ast.Constant) and type(index.value) is int
        if not (integer or isinstance(index, ast.Call) and ast.unparse(index.func) == "int"):
            found.append(ast.unparse(node))
    return found


def test_take_batch_scan_accepts_only_integer_indices(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text(
        "one = take_batch(batch, 0)\n"
        "first = povm.take_batch(batch, index=int(np.flatnonzero(bad)[0]))\n"
        "kept = take_batch(batch, alive)\n"
        "flag = take_batch(batch, True)\n"
        "none = take_batch(batch)\n"
    )
    assert masked_takes(sample) == ["take_batch(batch, alive)", "take_batch(batch, True)", "take_batch(batch)"]


def test_no_module_takes_a_batch_subset():
    # each check runs on the whole batch and masks the members an earlier check failed; a batch is never sliced
    found = {str(m.relative_to(SOURCE)): masked_takes(m) for m in sorted(SOURCE.rglob("*.py"))}
    assert {name: calls for name, calls in found.items() if calls} == {}


# the package's functions and classes that nothing in it uses or exports, each kept on purpose
KEPT_UNREFERENCED = {
    "cli.parse_report": "the strict reader of the reports every command writes; schema-version checks will extend it",
    "sdp.problem_to_json": "writes the problem format that `distlab sdp --problem` reads",
    "povm.locc1_to_json": "writes the tree format that `verify --kind locc1` and `discriminate` read",
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
    "sdp": {"linalg", "sdp", "frames"},
    "theorem1": {"linalg", "povm", "states", "discrimination", "sdp", "frames"},
}

MODULES_AFTER = """
import json, sys
from distlab.cli import run
argv = sys.argv[1:]
code = run(argv) if argv else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "distlab"), "dataclasses" in sys.modules]))
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
    code, loaded, dataclasses_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert code == 0 and not dataclasses_loaded
    assert loaded == sorted({"distlab", "distlab.cli"} | {f"distlab.{m}" for m in LOADED[case]})
