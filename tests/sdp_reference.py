"""The per-matrix consensus ADMM solver that ``distlab.sdp.solve`` replaced.

Kept as an oracle: it loops over single matrices, one copy per (block, cone),
and always works in complex arithmetic.  ``tests/test_sdp.py`` asserts that
the stacked solver reproduces its statuses, iteration counts, histories,
optima and matrices.  The code is the earlier ``solve`` unchanged, except
that the random-initialisation branch went with ``SolveOptions.seed`` and the
penalty (1.0), over-relaxation (1.6) and checkpoint interval (25) are literals
here, as they are module constants there.  Its cones are read from the
problem's one ``dims`` and each block's ``pt_cuts``, and its screen visits the
cuts every block shares in block 0's order, as ``solve`` does.
"""

import numpy as np

from distlab.linalg import partial_transpose
from distlab.sdp import SdpProblem, SdpSolution, SolveOptions


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def _clip_psd(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(m)
    if w[0] >= 0.0:
        return m
    return _sym((v * np.maximum(w, 0.0)) @ v.conj().T)


def _negative_part(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(_sym(m))
    return float(max(0.0, -w[0]))


def _cone_violation(mat: np.ndarray, dims, cuts) -> float:
    worst = 0.0
    for cut in cuts:
        if cut is None:
            worst = max(worst, _negative_part(mat))
        else:
            worst = max(worst, _negative_part(partial_transpose(mat, dims, cut)))
    return worst


def _project_cone(mat: np.ndarray, dims, cut) -> np.ndarray:
    if cut is None:
        return _clip_psd(_sym(mat))
    pt = partial_transpose(mat, dims, cut)
    return _sym(partial_transpose(_clip_psd(_sym(pt)), dims, cut))


def _objective_value(problem: SdpProblem, mats) -> float:
    return float(sum(np.trace(c @ m).real for c, m in zip(problem.objective, mats)))


def reference_solve(problem: SdpProblem, opts: SolveOptions | None = None) -> SdpSolution:
    """Run the splitting iteration until the residuals settle below tolerance.

    The returned matrices satisfy the completeness constraint to machine
    precision (they come out of the affine projection); the cone residual
    reports how far they sit outside the PSD / transposed-PSD cones.
    """
    opts = opts or SolveOptions()
    n = problem.n_blocks
    side = problem.side
    f = problem.target.astype(complex)
    # cut list per block: None marks the plain PSD cone
    dims = problem.dims
    cones = [[None, *problem.pt_cuts[i]] for i in range(n)]
    m_counts = [len(cs) for cs in cones]
    inv_m_sum = sum(1.0 / mi for mi in m_counts)
    rho, alpha = 1.0, 1.6

    evidence = _infeasibility_evidence(problem)
    if evidence is not None:
        mats = tuple(_sym(f / n) for _ in range(n))
        return SdpSolution(
            matrices=mats,
            objective_value=_objective_value(problem, mats),
            status="infeasible-evidence",
            residuals={
                "affine": 0.0,
                "cone": max(_cone_violation(mi, dims, cones[i]) for i, mi in enumerate(mats)),
                "gap_estimate": float("nan"),
                "evidence": evidence,
            },
            iterations=0,
            history=(),
        )

    z = []
    u = []
    for i in range(n):
        zi, ui = [], []
        for _ in cones[i]:
            init = f / n
            zi.append(init.astype(complex))
            ui.append(np.zeros((side, side), dtype=complex))
        z.append(zi)
        u.append(ui)

    best: dict | None = None
    history: list[dict] = []
    prev_obj = None
    x = [f / n for _ in range(n)]

    for it in range(1, opts.max_iter + 1):
        checkpoint = it % 25 == 0 or it == opts.max_iter
        z_prev = [[zik.copy() for zik in zi] for zi in z] if checkpoint else None

        # affine step: weighted projection of the shifted consensus targets
        v = [
            sum(z[i][k] - u[i][k] for k in range(m_counts[i])) / m_counts[i]
            + problem.objective[i] / (rho * m_counts[i])
            for i in range(n)
        ]
        excess = (sum(v) - f) / inv_m_sum
        x = [_sym(v[i] - excess / m_counts[i]) for i in range(n)]

        # cone steps with over-relaxation
        for i in range(n):
            for k in range(m_counts[i]):
                xhat = alpha * x[i] + (1 - alpha) * z[i][k]
                znew = _project_cone(xhat + u[i][k], dims, cones[i][k])
                u[i][k] = u[i][k] + xhat - znew
                z[i][k] = znew

        if not checkpoint:
            continue

        affine = float(np.max(np.abs(sum(x) - f)))
        cone = max(_cone_violation(x[i], dims, cones[i]) for i in range(n))
        consensus = max(
            float(np.max(np.abs(x[i] - z[i][k])))
            for i in range(n)
            for k in range(m_counts[i])
        )
        dual = rho * max(
            float(np.max(np.abs(z[i][k] - z_prev[i][k])))
            for i in range(n)
            for k in range(m_counts[i])
        )
        obj = _objective_value(problem, x)
        zbar = [sum(z[i]) / m_counts[i] for i in range(n)]
        gap = abs(obj - _objective_value(problem, zbar))
        obj_change = abs(obj - prev_obj) if prev_obj is not None else float("inf")
        prev_obj = obj
        combined = max(affine, cone, consensus, dual, gap)

        if best is None or combined < best["combined"]:
            best = {
                "combined": combined,
                "matrices": [xi.copy() for xi in x],
                "affine": affine,
                "cone": cone,
                "gap": gap,
                "iteration": it,
            }
        history.append(
            {
                "iteration": it,
                "combined": best["combined"],
                "affine": best["affine"],
                "cone": best["cone"],
                "gap_estimate": best["gap"],
            }
        )
        if combined <= opts.tol and obj_change <= opts.tol * max(1.0, abs(obj)):
            break

    assert best is not None
    mats = tuple(best["matrices"])
    status = "optimal" if best["combined"] <= opts.tol else "max-iterations"
    if status != "optimal" and best["combined"] > np.sqrt(opts.tol) and len(history) >= 8:
        # a residual plateau far above tolerance is the strongest evidence
        # of an empty feasible set this first-order scheme can produce
        halfway = history[len(history) // 2]["combined"]
        if best["combined"] > 0.95 * halfway:
            status = "infeasible-evidence"
    return SdpSolution(
        matrices=mats,
        objective_value=_objective_value(problem, mats),
        status=status,
        residuals={
            "affine": best["affine"],
            "cone": best["cone"],
            "gap_estimate": best["gap"],
        },
        iterations=history[-1]["iteration"] if history else 0,
        history=tuple(history),
    )


def _infeasibility_evidence(problem: SdpProblem) -> str | None:
    """Necessary-condition screen: the target must lie in every shared cone."""
    neg = _negative_part(problem.target)
    if neg > 1e-9:
        return f"constraint target has negative eigenvalue {-neg:.3e}"
    # the cuts every block shares, in block 0's order
    shared = [cut for cut in problem.pt_cuts[0] if all(cut in cuts for cuts in problem.pt_cuts[1:])]
    for parties in shared:
        pt = partial_transpose(problem.target, problem.dims, parties)
        neg = _negative_part(pt)
        if neg > 1e-9:
            return (
                f"target transposed on {parties} has negative eigenvalue {-neg:.3e}"
            )
    return None
