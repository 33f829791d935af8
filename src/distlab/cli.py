"""Command-line front door: generate, verify, discriminate, and report.

Every subcommand writes one JSON report to stdout (schema version "1") and a
one-line human summary to stderr.  Reports embed a run manifest with content
digests of the input files; with SOURCE_DATE_EPOCH set, repeated runs are
byte-identical.  Exit codes: 0 pass, 1 failed check, 2 usage or input error, a
stdout closed before the report was written, or a worker process that died
without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from datetime import datetime, timezone

import numpy as np

from . import __version__

# Each command imports the modules it runs inside its handler, so that one
# short-lived process loads and compiles only those (README, "Layout").

SCHEMA_VERSION = "1"

# per kind: the name of its own check in check_kind and the verify detail that reports it
KIND_CHECKS = {
    "locc1": ("locc1-tree", "tree_valid"),
    "projective": ("projective", "projective"),
    "ppt": ("ppt", "ppt"),
    "sep": ("sep-witness", "sep_witness_ok"),
}


class CliError(ValueError):
    """Usage or input problem; ``run`` maps it, like every ``ValueError``, to exit code 2."""


def _timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    moment = float(epoch) if epoch is not None else time.time()
    return datetime.fromtimestamp(moment, tz=timezone.utc).isoformat()


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise CliError(f"bad dimension list {text!r}") from exc
    if not dims or any(d < 1 for d in dims):
        raise CliError(f"bad dimension list {text!r}")
    return dims


def party_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def tolerance(text: str) -> float:
    """A tolerance option's value: a finite number above 0."""
    value = float(text)
    if not (np.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, got {text!r}")
    return value


def _load(digests: dict, *inputs):
    """Read, hash, decode and parse each ``(path, parse)`` input in order; return the parsed objects.

    Any defect in a file is an input error naming its path, raised for the first such input.  ``digests`` gets
    each path's SHA-256 digest, in the order of ``inputs``.
    """
    import hashlib

    from .linalg import read_json

    loaded = []
    for path, parse in inputs:
        try:
            with open(path, "rb") as fh:
                raw = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from exc
        digests[path] = hashlib.sha256(raw).hexdigest()
        try:
            loaded.append(parse(read_json(raw)))
        except (ValueError, TypeError, OverflowError, RecursionError) as exc:
            # foreign input: [] for a number, 1e400 for a count, arrays nested too deep to decode
            raise CliError(f"bad input file {path}: {exc}") from exc
    return loaded


def _report(args, argv: list[str], payload_kind: str, payload, digests: dict, started: str) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "payload_kind": payload_kind,
        "payload": payload,
        "manifest": {
            "command": args.command,
            "arguments": list(argv),
            "seed": getattr(args, "seed", None),
            "tool_version": __version__,
            "input_digests": digests,
            "started_at": started,
            "finished_at": _timestamp(),
        },
    }


def _payload_parsers() -> dict:
    """The parser of each payload kind, one per kind that a command writes."""
    from .discrimination import harness_from_json, verdict_from_json
    from .sdp import solution_from_json
    from .states import state_set_from_json

    return {
        "state_set": state_set_from_json,
        "verdict": verdict_from_json,
        "harness": harness_from_json,
        "sdp_solution": solution_from_json,
        "verification": dict,
        "theorem1": dict,
        "counterexample": dict,
    }


def parse_report(obj: dict):
    """Validate a report and parse the payload back into its domain type; any defect raises ``ValueError``."""
    from .linalg import strict_object

    parsers = _payload_parsers()
    strict_object(obj, "report", {"schema_version": str, "payload_kind": str, "payload": dict}, {"manifest": dict})
    if obj["schema_version"] != SCHEMA_VERSION:
        raise ValueError(f"unknown schema version {obj['schema_version']!r}")
    kind = obj["payload_kind"]
    if kind not in parsers:
        raise ValueError(f"unknown payload kind {kind!r}")
    try:
        return kind, parsers[kind](obj["payload"])
    except (TypeError, OverflowError) as exc:  # a value no payload reader anticipated is malformed input too
        raise ValueError(f"malformed {kind} payload: {exc}") from exc


def summarize(report: dict) -> str:
    """One deterministic human-readable line (6 significant digits)."""
    if report.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unknown schema version {report.get('schema_version')!r}")
    kind = report["payload_kind"]
    p = report["payload"]
    if kind == "state_set":
        return f"STATES: {len(p['states'])} states in ({', '.join(str(d) for d in p['dims'])})"
    if kind == "verdict":
        status = "PASS" if p["passes"] else "FAIL"
        return f"{p['mode'].upper()} DISCRIMINATION: {status} (success {p['success_probability']:.6f})"
    if kind == "harness":
        total = p["trials"] * len(p["kinds"])
        if p["passes"]:
            return f"FUZZ: {total}/{total} OK"
        return f"FUZZ: {len(p['failures'])} failures in {total} trials"
    if kind == "sdp_solution":
        return f"SDP: {p['status']} value {p['objective_value']:.6f} ({p['iterations']} iterations)"
    if kind == "verification":
        status = "PASS" if p["passed"] else "FAIL"
        res = p["completeness_residual"]
        res_text = f"{res:.6g}" if isinstance(res, (int, float)) and np.isfinite(res) else "n/a"
        return f"VERIFY {p['kind']}: {status} (completeness {res_text})"
    if kind == "theorem1":
        return (
            f"THEOREM1: opt {p['opt_small']:.6f} -> {p['opt_big']:.6f} "
            f"(delta {p['delta']:.6f})"
        )
    if kind == "counterexample":
        return (
            f"COUNTEREXAMPLE: projective={p['projective']}, "
            f"restriction projective={p['restriction_projective']}"
        )
    raise ValueError(f"unknown payload kind {kind!r}")


def _cmd_gen(args, digests):
    from .states import bell_states, domino_states, extended_domino_basis, generalized_bell_states, state_set_to_json

    family = args.family
    if family in ("bell", "domino"):
        states = bell_states() if family == "bell" else domino_states()
        if args.dims is not None and _parse_dims(args.dims) != states.dims:
            raise CliError(f"{family} lives in dims {','.join(map(str, states.dims))}, got --dims {args.dims}")
    elif family == "gbell":
        dims = _parse_dims(args.dims or "")
        if len(dims) != 2 or dims[0] != dims[1]:
            raise CliError("gbell needs square dims d,d")
        states = generalized_bell_states(dims[0])
    elif family == "domino-ext":
        dims = _parse_dims(args.dims or "")
        if len(dims) != 2:
            raise CliError("domino-ext needs dims m,n")
        states = extended_domino_basis(*dims)
    else:  # pragma: no cover - argparse restricts choices
        raise CliError(f"unknown family {family!r}")
    return 0, "state_set", state_set_to_json(states, matrix=np.asarray)


def _povm_or_tree(obj):
    from .povm import locc1_from_json, povm_from_json

    return locc1_from_json(obj) if isinstance(obj, dict) and "root" in obj else povm_from_json(obj)


def _cmd_verify(args, digests):
    from .povm import check_kind, ppt_min_eigenvalue

    (loaded,) = _load(digests, (args.povm, _povm_or_tree))
    checks, povm = check_kind(loaded, args.kind, args.tol, args.cut)
    ran = {name: (residual, ok) for name, residual, ok in checks}
    skipped = (float("nan"), False)
    details: dict = {}
    if args.kind in KIND_CHECKS:
        name, key = KIND_CHECKS[args.kind]
        residual, details[key] = ran.get(name, skipped)
        if args.kind == "ppt":  # the verdict is on the chosen cut, the reported minimum on every cut
            details["min_pt_eigenvalue"] = ppt_min_eigenvalue(povm) if args.cut and name in ran else residual
    payload = {
        "kind": args.kind,
        "passed": all(ok for _, _, ok in checks),
        "completeness_residual": ran.get("completeness", skipped)[0],
        "min_eigenvalue": ran.get("element-psd", skipped)[0],
        "details": details,
    }
    return (0 if payload["passed"] else 1), "verification", payload


def _cmd_discriminate(args, digests):
    from .discrimination import check_perfect, check_unambiguous, verdict_to_json
    from .povm import flatten_locc1
    from .states import state_set_from_json

    states, loaded = _load(digests, (args.states, state_set_from_json), (args.povm, _povm_or_tree))
    povm = flatten_locc1(loaded, args.tol) if not hasattr(loaded, "elements") else loaded
    if args.mode == "perfect":
        if args.inconclusive is not None:
            raise CliError("--inconclusive applies to --mode unambiguous only")
        verdict = check_perfect(povm, states, args.tol)
    else:
        inconclusive = [int(x) for x in args.inconclusive.split(",")] if args.inconclusive else []
        verdict = check_unambiguous(povm, states, inconclusive, args.tol)
    return (0 if verdict.passes else 1), "verdict", verdict_to_json(verdict)


def _cmd_sdp(args, digests):
    from .sdp import SolveOptions, problem_from_json, solution_to_json, solve

    (problem,) = _load(digests, (args.problem, problem_from_json))
    opts = SolveOptions(tol=args.tol, max_iter=args.max_iter)
    sol = solve(problem, opts)
    return (0 if sol.status == "optimal" else 1), "sdp_solution", solution_to_json(sol)


def _cmd_theorem1(args, digests):
    from .discrimination import theorem1_ppt_invariance
    from .states import state_set_from_json

    (states,) = _load(digests, (args.states, state_set_from_json))
    result = theorem1_ppt_invariance(states, _parse_dims(args.new_dims))
    ok = (
        result.small.solution.status == "optimal"
        and result.big.solution.status == "optimal"
        and abs(result.delta) <= args.delta_tol
    )
    payload = {
        "opt_small": result.opt_small,
        "opt_big": result.opt_big,
        "delta": result.delta,
        "delta_tol": args.delta_tol,
        "distinguishable_small": result.small.distinguishable,
        "distinguishable_big": result.big.distinguishable,
        "status_small": result.small.solution.status,
        "status_big": result.big.solution.status,
    }
    return (0 if ok else 1), "theorem1", payload


def _cmd_fuzz(args, digests):
    from .discrimination import harness_to_json, local_global_fuzz
    from .states import bell_states, state_set_from_json

    if args.states:
        (states,) = _load(digests, (args.states, state_set_from_json))
    else:
        states = bell_states().subset([0, 1, 2])
    new_dims = _parse_dims(args.new_dims)
    kinds = [k.strip() for k in args.kinds.split(",") if k.strip()]
    report = local_global_fuzz(states, kinds, new_dims, args.trials, args.seed, args.tol)
    return (0 if report.passes else 1), "harness", harness_to_json(report)


def _cmd_counterexample(args, digests):
    from .povm import counterexample_c4, is_projective, is_valid, povm_to_json, restrict_povm

    povm = counterexample_c4()
    projective = is_projective(povm, 1e-12)
    restriction = restrict_povm(povm, (3,))
    restriction_valid = is_valid(restriction, 1e-12)
    restriction_projective = is_projective(restriction, 1e-9)
    b1 = sorted(float(x) for x in np.linalg.eigvalsh(restriction.elements[0]))
    payload = {
        "povm": povm_to_json(povm),
        "projective": projective,
        "restriction": povm_to_json(restriction),
        "restriction_valid": restriction_valid,
        "restriction_projective": restriction_projective,
        "restriction_first_eigenvalues": b1,
    }
    ok = projective and restriction_valid and not restriction_projective
    return (0 if ok else 1), "counterexample", payload


def build_parser() -> argparse.ArgumentParser:
    from .linalg import DEFAULT_TOL

    parser = argparse.ArgumentParser(prog="distlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a state family")
    p.add_argument("--family", required=True, choices=["bell", "gbell", "domino", "domino-ext"])
    p.add_argument("--dims", help="comma-separated local dimensions, e.g. 3,3")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("verify", help="verify a POVM file against a kind")
    p.add_argument("--povm", required=True)
    p.add_argument("--kind", default="general", choices=["general", "projective", "ppt", "sep", "locc1"])
    p.add_argument("--cut", type=party_list, help="party subset for PPT, e.g. 0 or 0,2")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("discriminate", help="check a POVM against a state set")
    p.add_argument("--states", required=True)
    p.add_argument("--povm", required=True)
    p.add_argument("--mode", default="perfect", choices=["perfect", "unambiguous"])
    p.add_argument("--inconclusive", help="comma-separated outcome indices")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_discriminate)

    p = sub.add_parser("sdp", help="solve an SDP problem file")
    p.add_argument("--problem", required=True)
    p.add_argument("--tol", type=tolerance, default=1e-6)
    p.add_argument("--max-iter", type=int, default=50000)
    p.set_defaults(func=_cmd_sdp)

    p = sub.add_parser("theorem1", help="PPT optimum before and after embedding")
    p.add_argument("--states", required=True)
    p.add_argument("--new-dims", required=True)
    p.add_argument("--delta-tol", type=tolerance, default=2e-3)
    p.set_defaults(func=_cmd_theorem1)

    p = sub.add_parser("fuzz", help="sampled restriction harness")
    p.add_argument("--kinds", required=True, help="comma-separated kinds, each once: general, ppt, sep, locc1")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--states", help="state-set JSON (default: three Bell states)")
    p.add_argument("--new-dims", default="3,3")
    p.add_argument("--tol", type=tolerance, default=DEFAULT_TOL)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("counterexample", help="the projectivity-breaking restriction fixture")
    p.set_defaults(func=_cmd_counterexample)

    return parser


_encode = json.JSONEncoder(separators=(",", ":"), allow_nan=False).encode
_NESTED = (dict, list, tuple, np.ndarray)


def _pieces(obj, out: list) -> list:
    """Append to ``out`` the strict one-line JSON text of ``obj``, in pieces; return ``out``.

    Joined, the pieces are byte for byte ``json.dumps(obj, separators=(",", ":"), allow_nan=False)`` of
    ``obj`` with each numpy matrix m replaced by ``linalg.matrix_to_json(m)`` and each non-finite float by
    None.  A container that holds a dict, list or matrix is walked; any other value is encoded by that
    strict encoder in one call, and walked only if that call refuses it.  A matrix is written by
    ``linalg.matrix_json_text``, or, with a non-finite entry, as its ``matrix_to_json`` object.
    """
    if isinstance(obj, np.ndarray):
        from .linalg import matrix_json_text, matrix_to_json  # loaded already by whatever made the matrix

        try:
            out.append(matrix_json_text(obj))
        except ValueError:  # a non-finite entry
            _pieces(matrix_to_json(obj), out)
        return out
    values = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, (list, tuple)) else None
    if values is None or not any(isinstance(v, _NESTED) for v in values):
        try:
            out.append(_encode(obj))
            return out
        except ValueError:  # the strict encoder refuses only a non-finite float
            if values is None:
                out.append("null")
                return out
    if isinstance(obj, dict):
        for i, (k, v) in enumerate(obj.items()):
            out.append(("," if i else "{") + _encode({k: 0})[1:-3] + ":")  # the key as json writes it
            _pieces(v, out)
        out.append("}")
    else:
        for i, v in enumerate(obj):
            out.append("," if i else "[")
            _pieces(v, out)
        out.append("]")
    return out


def _write_report(report: dict) -> None:
    """Print ``report`` to stdout as one line of strict JSON, with null for each non-finite number.

    Nothing is written unless the whole line was encoded.  A reader that has
    closed stdout is an input error (``CliError``).
    """
    pieces = _pieces(report, [])
    try:
        for piece in pieces + ["\n"]:
            sys.stdout.write(piece)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # What is left in stdout's buffer would fail again in the flush at exit: send it nowhere instead.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise CliError(f"cannot write the report: {exc.strerror}") from exc


def run(argv: list[str]) -> int:
    """Execute one subcommand; print the JSON report to stdout, summary to stderr."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage diagnostic
        return int(exc.code or 0)
    digests: dict = {}
    started = _timestamp()
    try:
        code, payload_kind, payload = args.func(args, digests)
        report = _report(args, argv, payload_kind, payload, digests, started)
        _write_report(report)  # writes nothing unless every piece was encoded
    except ValueError as exc:  # CliError and the domain checks: usage or input errors
        print(f"distlab: error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        from .linalg import WorkerLost  # loaded already by whatever ran the worker

        if not isinstance(exc, WorkerLost):
            raise
        print(f"distlab: error: {exc}", file=sys.stderr)
        return 2
    print(summarize(report), file=sys.stderr)
    return code


def main() -> None:  # pragma: no cover - console entry point
    sys.exit(run(sys.argv[1:]))
