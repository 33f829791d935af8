"""The per-trial fuzz loop, kept as the test oracle for the blocked ``local_global_fuzz``.

``reference_fuzz`` is the loop ``local_global_fuzz`` ran before it checked
its trials in blocks: one sample at a time, each through its own chain of
checks, which stops at the first failure.  It draws the same samples (the
fuzz's own ``_trial_seed`` and ``_sample_of_kind``) and restricts them and
checks the trace identity through the names the fuzz module looks up, so a
test that patches one of those names patches both.  Every other check is a
single-measurement call of the public API (no ``check_kind``, no batches),
and the perfect-discrimination verdict is the original outcome-by-outcome
hit assignment on an ``einsum`` hit table.
"""

import numpy as np

import distlab.discrimination as discrimination
from distlab.povm import (
    Locc1Tree,
    flatten_locc1,
    ppt_min_eigenvalue,
    require_valid,
    verify_locc1,
    verify_povm,
    verify_sep,
)
from distlab.states import embed_set


def reference_perfect(povm, states, tol):
    """Whether a valid POVM discriminates ``states`` perfectly."""
    table = np.einsum("iab,jba->ij", states.rhos, povm.elements).real
    live = np.trace(povm.elements, axis1=1, axis2=2).real > tol
    totals = np.zeros(table.shape[0])
    for j in np.flatnonzero(live):
        hits = [i for i in range(table.shape[0]) if table[i, j] > tol]
        if len(hits) > 1:
            return False
        if hits:
            totals[hits[0]] += table[hits[0], j]
    return all(abs(total - 1.0) <= tol for total in totals)


def reference_first_failure(obj, kind, states, embedded, tol):
    """One trial on the sample ``obj``: its first failed check as ``(check, residual)``, or None."""
    tree = isinstance(obj, Locc1Tree)
    small = (discrimination.restrict_locc1 if tree else discrimination.restrict_povm)(obj, states.dims)
    if tree:
        if not verify_locc1(small, tol):
            return "locc1-tree", float("nan")
        small = flatten_locc1(small, tol)
    report = verify_povm(small, tol)
    worst = min(report.element_min_eigs)
    if not report.completeness_residual <= tol:
        return "completeness", report.completeness_residual
    if not (worst >= -tol and report.hermiticity_defect <= tol):
        return "element-psd", worst
    if kind == "ppt":
        worst_pt = ppt_min_eigenvalue(small)
        if not worst_pt >= -tol:
            return "ppt", worst_pt
    if kind == "sep" and not verify_sep(small, tol):
        return "sep-witness", float("nan")
    big = flatten_locc1(obj, tol) if tree else obj  # raises for a sample with an incomplete family
    residual = discrimination.theorem1_trace_identity(states, big, states.dims)
    if residual > 1e-12:
        return "trace-identity", residual
    require_valid(big, tol)
    if reference_perfect(small, states, tol) and not reference_perfect(big, embedded, tol):
        return "discrimination-gained", float("nan")
    return None


def reference_fuzz(states, kinds, new_dims, trials, seed, tol=1e-9):
    """The failure records of ``local_global_fuzz`` with the same arguments, trial by trial."""
    embedded = embed_set(states, new_dims)
    failures = []
    for kind_index, kind in enumerate(kinds):
        for offset in range(trials):
            obj = discrimination._sample_of_kind(kind, new_dims, discrimination._trial_seed(seed, kind_index, offset))
            failed = reference_first_failure(obj, kind, states, embedded, tol)
            if failed is not None:
                failures.append({"seed_offset": offset, "kind": kind, "check": failed[0], "residual": failed[1]})
    return sorted(failures, key=lambda f: (f["kind"], f["seed_offset"]))
