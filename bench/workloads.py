"""The benchmark's workloads: input files, job argument lists and output checks.

Every input is built here with plain numpy and written in distlab's
documented JSON wire format (matrices as ``{rows, cols, re, im}``), never
through distlab's own serializers, so two commits under comparison read
byte-identical files.  Every check is an independent oracle: it recomputes
what it needs from the job's stdout with numpy and compares it against an
analytically known answer.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

ANCHOR_TOL = 1e-5  # PPT optima against d/k (the seed solver misses by at most 2.2e-7)
FEASIBLE_TOL = 1e-5  # completeness and cone residuals of a returned SDP point
EXACT_TOL = 1e-9  # Gram matrices and hit tables of orthonormal families

WORKLOADS = ("ppt-sdp", "restriction-fuzz", "report-io")


# ---------------------------------------------------------------- families


def gbell_vectors(d: int) -> np.ndarray:
    """Rows are the d^2 generalized Bell vectors of (d,d), (a,b) in row-major order.

    Vector (a,b) has amplitude omega^(m b)/sqrt(d) on |m>|m+a mod d>.
    """
    omega = np.exp(2j * np.pi / d)
    out = np.zeros((d * d, d * d), dtype=complex)
    for a in range(d):
        for b in range(d):
            for m in range(d):
                out[a * d + b, m * d + (m + a) % d] = omega ** (m * b) / np.sqrt(d)
    return out


def _basis(d: int, *terms) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    for i, w in terms:
        v[i] = w
    return v / np.linalg.norm(v)


DOMINO_TERMS = [  # (party 0 ket, party 1 ket) as (index, weight) terms
    (((0, 1),), ((0, 1), (1, 1))),
    (((0, 1),), ((0, 1), (1, -1))),
    (((0, 1), (1, 1)), ((2, 1),)),
    (((0, 1), (1, -1)), ((2, 1),)),
    (((2, 1),), ((1, 1), (2, 1))),
    (((2, 1),), ((1, 1), (2, -1))),
    (((1, 1), (2, 1)), ((0, 1),)),
    (((1, 1), (2, -1)), ((0, 1),)),
    (((1, 1),), ((1, 1),)),
]


def domino_vectors(m: int = 3, n: int = 3) -> np.ndarray:
    """The nine Domino product vectors zero-padded into (m,n), then |i>|j> for i>=3 or j>=3."""
    out = [np.kron(_basis(m, *a), _basis(n, *b)) for a, b in DOMINO_TERMS]
    for i in range(m):
        for j in range(n):
            if i >= 3 or j >= 3:
                out.append(np.kron(_basis(m, (i, 1)), _basis(n, (j, 1))))
    return np.array(out)


def projectors(vectors: np.ndarray) -> np.ndarray:
    return np.einsum("ni,nj->nij", vectors, vectors.conj())


# ---------------------------------------------------------------- wire format


def matrix_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": m.real.ravel().tolist(),
        "im": m.imag.ravel().tolist(),
    }


def matrix_of(obj: dict) -> np.ndarray:
    rows, cols = int(obj["rows"]), int(obj["cols"])
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj["im"], dtype=float)
    return (re + 1j * im).reshape(rows, cols)


def state_set_json(vectors: np.ndarray, dims) -> dict:
    return {
        "dims": list(dims),
        "states": [{"label": f"s{i}", "matrix": matrix_json(p)} for i, p in enumerate(projectors(vectors))],
    }


def povm_json(elements: np.ndarray, dims, kind: str) -> dict:
    return {"dims": list(dims), "elements": [matrix_json(e) for e in elements], "kind": kind}


def ppt_problem_json(vectors: np.ndarray, dims) -> dict:
    """Average-success SDP over PPT POVMs: maximize sum tr(rho_i M_i)/n, sum M_i = I."""
    n = len(vectors)
    side = vectors.shape[1]
    return {
        "target": matrix_json(np.eye(side)),
        "dims": list(dims),
        "blocks": [{"objective": matrix_json(p / n), "pt_cuts": [[0]]} for p in projectors(vectors)],
    }


# ---------------------------------------------------------------- checks


class CheckFailed(Exception):
    """A job's output disagrees with the benchmark's reference."""


def strict_report(stdout: str) -> dict:
    """The job's stdout must be exactly one strict-JSON object on one line."""
    if not stdout.endswith("\n") or "\n" in stdout[:-1]:
        raise CheckFailed("stdout is not exactly one line")

    def no_constant(name):
        raise CheckFailed(f"non-strict JSON constant {name}")

    try:
        obj = json.loads(stdout, parse_constant=no_constant)
    except json.JSONDecodeError as exc:
        raise CheckFailed(f"stdout is not JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("payload"), dict):
        raise CheckFailed("report is not an object with an object payload")
    return obj


def _payload(stdout: str, kind: str) -> dict:
    report = strict_report(stdout)
    if report.get("payload_kind") != kind:
        raise CheckFailed(f"payload kind {report.get('payload_kind')!r}, expected {kind!r}")
    return report["payload"]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_theorem1(stdout: str, anchor: float) -> float:
    """Both optima optimal and within ANCHOR_TOL of the anchor; returns the worst error."""
    p = _payload(stdout, "theorem1")
    _require(p["status_small"] == "optimal" and p["status_big"] == "optimal", "solver status not optimal")
    err = max(abs(p["opt_small"] - anchor), abs(p["opt_big"] - anchor))
    _require(err <= ANCHOR_TOL, f"optimum off the anchor {anchor:.6f} by {err:.3e}")
    expected = anchor == 1.0
    _require(
        p["distinguishable_small"] is expected and p["distinguishable_big"] is expected,
        f"distinguishable flags differ from {expected}",
    )
    return err


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])


def _partial_transpose_first(m: np.ndarray, dims) -> np.ndarray:
    a, b = dims
    return m.reshape(a, b, a, b).transpose(2, 1, 0, 3).reshape(a * b, a * b)


def check_ppt_solution(stdout: str, vectors: np.ndarray, dims, anchor: float) -> float:
    """A returned PPT POVM: complete, PSD, PPT, and its recomputed value on the anchor."""
    p = _payload(stdout, "sdp_solution")
    _require(p["status"] == "optimal", f"solver status {p['status']!r}")
    mats = [matrix_of(m) for m in p["matrices"]]
    _require(len(mats) == len(vectors), "one matrix per state expected")
    completeness = float(np.max(np.abs(sum(mats) - np.eye(vectors.shape[1]))))
    _require(completeness <= FEASIBLE_TOL, f"completeness residual {completeness:.3e}")
    worst = min(min(_min_eig(m), _min_eig(_partial_transpose_first(m, dims))) for m in mats)
    _require(worst >= -FEASIBLE_TOL, f"cone violation {worst:.3e}")
    value = float(np.mean([np.vdot(v, m @ v).real for v, m in zip(vectors, mats)]))
    err = max(abs(value - anchor), abs(p["objective_value"] - anchor))
    _require(err <= ANCHOR_TOL, f"optimum off the anchor {anchor:.6f} by {err:.3e}")
    return err


def check_fuzz(stdout: str, trials: int, kinds: list[str]) -> float:
    p = _payload(stdout, "harness")
    _require(p["failures"] == [] and p["passes"] is True, f"{len(p['failures'])} fuzz failures")
    _require(p["trials"] == trials and p["kinds"] == kinds, "fuzz ran other trials or kinds")
    return 0.0


def check_family(stdout: str, vectors: np.ndarray, dims) -> float:
    """Generated states: unit trace, Gram matrix I, and each one a state of the reference family."""
    p = _payload(stdout, "state_set")
    _require(list(p["dims"]) == list(dims), f"dims {p['dims']}, expected {list(dims)}")
    _require(len(p["states"]) == len(vectors), f"{len(p['states'])} states, expected {len(vectors)}")
    rhos = np.array([matrix_of(s["matrix"]) for s in p["states"]])
    flat = rhos.reshape(len(rhos), -1)
    gram = (flat.conj() @ flat.T).real  # tr(rho_i rho_j) for Hermitian rho
    traces = np.einsum("nii->n", rhos).real
    err = max(float(np.max(np.abs(gram - np.eye(len(rhos))))), float(np.max(np.abs(traces - 1.0))))
    _require(err <= EXACT_TOL, f"states are not an orthonormal family (error {err:.3e})")
    # <v_k|rho_n|v_k> must be a permutation matrix: the set is the reference family
    overlaps = np.einsum("ka,nak->nk", vectors.conj(), rhos @ vectors.T).real
    perm = np.round(overlaps)
    is_perm = np.all((perm == 0) | (perm == 1)) and np.all(perm.sum(0) == 1) and np.all(perm.sum(1) == 1)
    off = float(np.max(np.abs(overlaps - perm)))
    _require(bool(is_perm) and off <= EXACT_TOL, f"states are not the reference family (error {off:.3e})")
    return 0.0


def check_verify(stdout: str, kind: str) -> float:
    p = _payload(stdout, "verification")
    _require(p["kind"] == kind and p["passed"] is True, f"verify {kind} did not pass")
    return 0.0


def check_identity_table(stdout: str, n: int) -> float:
    p = _payload(stdout, "verdict")
    _require(p["passes"] is True, "discrimination did not pass")
    table = matrix_of(p["hit_table"])
    _require(table.shape == (n, n), f"hit table shape {table.shape}")
    err = float(np.max(np.abs(table - np.eye(n))))
    _require(err <= EXACT_TOL, f"hit table differs from I by {err:.3e}")
    return 0.0


# ---------------------------------------------------------------- jobs


@dataclass
class Job:
    """One whole distlab CLI run and the check its stdout must pass.

    ``check`` raises CheckFailed on a wrong output; otherwise it returns the
    distance of the job's PPT optima from their anchor (0 for jobs without).
    """

    name: str
    argv: list[str]
    check: Callable[[str], float]
    inputs: list[str] = field(default_factory=list)


def run_check(job: Job, code: int, stdout: str) -> tuple[bool, str, float]:
    """(ok, message, anchor error) for one finished job; every job must exit 0."""
    if code != 0:
        return False, f"exit code {code}", 0.0
    try:
        err = job.check(stdout)
    except CheckFailed as exc:
        return False, str(exc), 0.0
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return False, f"malformed payload: {exc!r}", 0.0
    return True, "", err


def fuzz_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


def _write(directory: str, name: str, obj: dict, digests: dict) -> str:
    path = os.path.join(directory, name)
    raw = json.dumps(obj, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(raw)
    digests[name] = hashlib.sha256(raw).hexdigest()
    return path


def build_jobs(workload: str, seed: int, directory: str) -> tuple[list[Job], dict]:
    """Write the workload's input files into ``directory``; return its jobs and input digests."""
    digests: dict = {}
    jobs: list[Job] = []
    bell = gbell_vectors(2)

    def add(name, argv, check, inputs=()):
        jobs.append(Job(name, argv, check, list(inputs)))

    if workload == "ppt-sdp":
        # (file, vectors, dims, new dims, anchor d/k; 1 for sets PPT-distinguishable)
        cases = [
            ("bell3", bell[[0, 1, 2]], (2, 2), "3,3", 2 / 3),
            ("bell2", bell[[0, 2]], (2, 2), "4,3", 1.0),
            ("gbell3x4", gbell_vectors(3)[:4], (3, 3), "4,4", 3 / 4),
            ("domino", domino_vectors(), (3, 3), "8,8", 1.0),
        ]
        for name, vecs, dims, new_dims, anchor in cases:
            path = _write(directory, f"{name}.json", state_set_json(vecs, dims), digests)
            add(
                f"theorem1-{name}-{new_dims.replace(',', 'x')}",
                ["theorem1", "--states", path, "--new-dims", new_dims],
                lambda out, a=anchor: check_theorem1(out, a),
                [path],
            )
        vecs = gbell_vectors(5)[:6]
        path = _write(directory, "gbell5x6-ppt.json", ppt_problem_json(vecs, (5, 5)), digests)
        add(
            "sdp-gbell5x6",
            ["sdp", "--problem", path],
            lambda out: check_ppt_solution(out, vecs, (5, 5), 5 / 6),
            [path],
        )
    elif workload == "restriction-fuzz":
        kinds = ["general", "ppt", "sep", "locc1"]
        pair = np.array([np.kron(v, [1.0, 0.0]) for v in bell[[0, 2]]])
        cases = [
            ("bell3", bell[[0, 1, 2]], (2, 2), "3,3", 300),
            ("bell2-ket0", pair, (2, 2, 2), "3,2,3", 60),
            ("domino", domino_vectors(), (3, 3), "6,6", 60),
        ]
        for (name, vecs, dims, new_dims, trials), fseed in zip(cases, fuzz_seeds(seed, len(cases))):
            path = _write(directory, f"{name}.json", state_set_json(vecs, dims), digests)
            argv = ["fuzz", "--kinds", ",".join(kinds), "--trials", str(trials), "--seed", str(fseed),
                    "--states", path, "--new-dims", new_dims]
            add(f"fuzz-{name}-{new_dims.replace(',', 'x')}", argv,
                lambda out, t=trials: check_fuzz(out, t, kinds), [path])
    elif workload == "report-io":
        ext = domino_vectors(10, 10)
        add("gen-domino-ext-10x10", ["gen", "--family", "domino-ext", "--dims", "10,10"],
            lambda out: check_family(out, ext, (10, 10)))
        gb = gbell_vectors(10)
        add("gen-gbell-10x10", ["gen", "--family", "gbell", "--dims", "10,10"],
            lambda out: check_family(out, gb, (10, 10)))
        states = _write(directory, "domino-ext-10x10.json", state_set_json(ext, (10, 10)), digests)
        povm = _write(directory, "domino-ext-10x10-povm.json", povm_json(projectors(ext), (10, 10), "projective"), digests)
        add("verify-projective-100", ["verify", "--povm", povm, "--kind", "projective"],
            lambda out: check_verify(out, "projective"), [povm])
        add("discriminate-perfect-100", ["discriminate", "--states", states, "--povm", povm, "--mode", "perfect"],
            lambda out: check_identity_table(out, len(ext)), [states, povm])
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return jobs, digests
