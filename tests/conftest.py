"""Shared fuzz machinery, the acceptance-criteria reporting hook, and a check that no test leaves a child process."""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from distlab.discrimination import _sample_of_kind
from distlab.linalg import tensor
from distlab.povm import (
    Locc1Tree,
    Povm,
    SepDecomposition,
    flatten_locc1,
    is_ppt_povm,
    ppt_min_eigenvalue,
    restrict_locc1,
    restrict_povm,
    verify_locc1,
    verify_povm,
    verify_sep,
)
from distlab.states import State, StateSet, bell_states, pure_state, state_vector


def maximally_mixed(dims):
    side = int(np.prod(dims))
    return State(np.eye(side) / side, dims)


def bell_pair_three_party():
    """The Bell pair {0, 2} with a third qubit in |0>, on (2, 2, 2)."""
    out = []
    e0 = np.array([1, 0], dtype=complex)
    for s in bell_states().subset([0, 2]):
        out.append(pure_state(np.kron(state_vector(s), e0), (2, 2, 2), label=s.label + "|0>"))
    return StateSet(out)


def hadamard_sep_povm():
    """The (2,2) SEP POVM of the Hadamard product projectors |+-><+-| (x) |+-><+-|, each its own witness term."""
    plus = np.array([[0.5, 0.5], [0.5, 0.5]])
    minus = np.array([[0.5, -0.5], [-0.5, 0.5]])
    first, second = np.array([plus, plus, minus, minus]), np.array([plus, minus, plus, minus])
    return Povm(tensor(first, second), (2, 2), kind="sep", witness=SepDecomposition([first, second], np.arange(4)))


def with_scaled_root(restrict, factor=1.01):
    """``restrict`` made faulty: each restricted tree has its root level scaled by ``factor``,
    so the root family no longer sums to I."""

    def broken(tree, sub_dims):
        sub = restrict(tree, sub_dims)
        return Locc1Tree(sub.dims, sub.party_order, [factor * sub.levels[0], *sub.levels[1:]], sub.parents)

    return broken


FUZZ_DIM_CONFIGS = [
    ((3, 3), (2, 2)),
    ((4, 2), (2, 2)),
    ((3, 2, 3), (2, 2, 2)),
]


def restriction_defects(kind, big_dims, sub_dims, seed, tol=1e-9):
    """Check that restriction preserves the given POVM kind for one seed.

    Returns a list of (check-name, residual) pairs for every violated check;
    an empty list means the trial passed.
    """
    defects = []
    obj = _sample_of_kind(kind, big_dims, seed)

    if kind == "locc1":
        sub_tree = restrict_locc1(obj, sub_dims)
        if not verify_locc1(sub_tree, tol):  # flattening needs complete families: nothing more to check
            return [("locc1-tree-validity", np.nan)]
        flat_then_restrict = restrict_povm(flatten_locc1(obj), sub_dims)
        restrict_then_flat = flatten_locc1(sub_tree)
        commute = max(
            float(np.max(np.abs(a - b)))
            for a, b in zip(flat_then_restrict.elements, restrict_then_flat.elements)
        )
        if commute > 1e-12:
            defects.append(("flatten-restrict-commutation", commute))
        small = restrict_then_flat
    else:
        small = restrict_povm(obj, sub_dims)
        if len(small) != len(obj):
            defects.append(("element-count", float(abs(len(small) - len(obj)))))

    report = verify_povm(small, tol)
    if report.completeness_residual > tol:
        defects.append(("completeness", report.completeness_residual))
    worst = min(report.element_min_eigs)
    if worst < -tol:
        defects.append(("element-psd", worst))

    if kind == "ppt":
        if not is_ppt_povm(obj, tol=tol):
            defects.append(("ppt-input", np.nan))
        worst_pt = ppt_min_eigenvalue(small)
        if worst_pt < -tol:
            defects.append(("ppt-preserved", worst_pt))
    if kind == "sep":
        if not verify_sep(small, tol):
            defects.append(("sep-witness", np.nan))
    return defects


@pytest.fixture(autouse=True)
def no_child_left():
    """Fail a test after which this process still has a child, running or not yet reaped."""
    yield
    try:
        left = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process: waitpid(-1, WNOHANG) returned {left}")


ACCEPTANCE_LINES = []


@contextmanager
def criterion(number, description):
    """Record one acceptance criterion outcome for the terminal summary."""
    try:
        yield
    except BaseException:
        ACCEPTANCE_LINES.append(f"CRITERION {number}: FAIL - {description}")
        raise
    ACCEPTANCE_LINES.append(f"CRITERION {number}: PASS - {description}")


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
