"""Tests for the command-line reporter."""

import contextlib
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import hadamard_sep_povm, with_scaled_root
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from report_reference import reference_encode, reference_report

import distlab
import distlab.linalg
from distlab.cli import build_parser, parse_report, run, summarize
from distlab.discrimination import check_perfect, harness_to_json, local_global_fuzz, verdict_to_json
from distlab.linalg import matrix_to_json
from distlab.povm import Povm, povm_to_json, locc1_to_json, random_locc1, counterexample_c4
from distlab.sdp import SdpProblem, SdpSolution, problem_to_json, solution_to_json
from distlab.states import StateSet, bell_states, domino_states, generalized_bell_states, pure_state, state_set_to_json


@pytest.fixture(autouse=True)
def fixed_epoch(monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")


def run_captured(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def bell_pair_file(tmp_path):
    return write_json(tmp_path / "bell2.json", state_set_to_json(bell_states().subset([0, 2])))


def test_counterexample_command(capsys):
    code, report, err = run_captured(capsys, ["counterexample"])
    assert code == 0
    assert report["schema_version"] == "1"
    assert report["payload"]["projective"] is True
    assert report["payload"]["restriction_projective"] is False
    assert report["payload"]["restriction_valid"] is True
    eigs = report["payload"]["restriction_first_eigenvalues"]
    assert max(abs(a - b) for a, b in zip(eigs, [0.0, 0.0, 0.75])) <= 1e-12
    assert "COUNTEREXAMPLE" in err


def test_counterexample_byte_identical(capsys):
    run(["counterexample"])
    out1 = capsys.readouterr().out
    run(["counterexample"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_gen_domino(capsys):
    code, report, _ = run_captured(capsys, ["gen", "--family", "domino"])
    assert code == 0
    kind, states = parse_report(report)
    assert kind == "state_set"
    assert len(states) == 9
    assert states.dims == (3, 3)


@pytest.mark.parametrize("family, dims", [("bell", (2, 2)), ("domino", (3, 3))])
def test_gen_fixed_family_takes_only_its_own_dims(capsys, family, dims):
    code, report, _ = run_captured(capsys, ["gen", "--family", family, "--dims", ",".join(map(str, dims))])
    assert code == 0
    assert parse_report(report)[1].dims == dims
    for other in ("7,7", "2,2,2", "3,2") if family == "domino" else ("7,7", "2", "3,3"):
        code, report, err = run_captured(capsys, ["gen", "--family", family, "--dims", other])
        assert (code, report) == (2, None), other
        assert err.startswith("distlab: error:") and "--dims" in err


def test_gen_gbell_needs_square_dims(capsys):
    code, _, err = run_captured(capsys, ["gen", "--family", "gbell", "--dims", "2,3"])
    assert code == 2
    assert "square" in err


def test_gen_domino_ext(capsys):
    code, report, _ = run_captured(capsys, ["gen", "--family", "domino-ext", "--dims", "4,4"])
    assert code == 0
    _, states = parse_report(report)
    assert len(states) == 16


def test_verify_projective_counterexample(tmp_path, capsys):
    path = write_json(tmp_path / "c4.json", povm_to_json(counterexample_c4()))
    code, report, err = run_captured(capsys, ["verify", "--povm", path, "--kind", "projective"])
    assert code == 0
    assert report["payload"]["passed"] is True
    assert report["manifest"]["input_digests"][path]
    assert "VERIFY projective: PASS" in err


def test_verify_ppt_rejects_entangled_projector(tmp_path, capsys):
    phi = np.zeros((4, 4), dtype=complex)
    phi[np.ix_([0, 3], [0, 3])] = 0.5
    from distlab.povm import Povm

    povm = Povm([phi, np.eye(4) - phi], (2, 2))
    path = write_json(tmp_path / "bellproj.json", povm_to_json(povm))
    code, report, _ = run_captured(capsys, ["verify", "--povm", path, "--kind", "ppt"])
    assert code == 1
    assert report["payload"]["details"]["ppt"] is False


def test_verify_ppt_cut_is_a_party_list_checked_against_the_dims(tmp_path, capsys):
    phi = np.zeros((4, 4), dtype=complex)
    phi[np.ix_([0, 3], [0, 3])] = 0.5
    bell = write_json(tmp_path / "bellproj.json", povm_to_json(Povm([phi, np.eye(4) - phi], (2, 2))))
    for cut in ("0", "1"):
        code, report, _ = run_captured(capsys, ["verify", "--povm", bell, "--kind", "ppt", "--cut", cut])
        assert code == 1
        assert report["payload"]["details"]["ppt"] is False
        assert report["payload"]["details"]["min_pt_eigenvalue"] == pytest.approx(-0.5, abs=1e-12)
    invalid = write_json(tmp_path / "invalid.json", povm_to_json(Povm([1.01 * phi, np.eye(4) - phi], (2, 2))))
    for path in (bell, invalid):
        for cut in ("", "0,1", "1,0", "0,0", "2", "-1", "5", "a", "0,"):  # empty, trivial, repeated, out of range
            code, report, err = run_captured(capsys, ["verify", "--povm", path, "--kind", "ppt", "--cut", cut])
            assert (code, report) == (2, None), cut
            assert "error: " in err


def test_verify_validates_once_with_the_public_answers(tmp_path, capsys, monkeypatch):
    """verify gives the payload the validating public checks give, with one validity check per run."""
    from distlab.povm import is_ppt_povm, is_projective, ppt_min_eigenvalue, verify_povm

    phi = np.zeros((4, 4), dtype=complex)
    phi[np.ix_([0, 3], [0, 3])] = 0.5
    ket0, ket1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    tri = Povm([np.kron(phi, ket0), np.kron(phi, ket1), np.kron(np.eye(4) - phi, np.eye(2))], (2, 2, 2))
    invalid = Povm(1.01 * tri.elements, tri.dims)
    calls = {"eigvalsh": 0, "eigh": 0}
    for name in calls:
        def counted(*args, _name=name, _f=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _f(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    cases = [  # (povm, kind, cut, eigvalsh calls: one validity check plus one per PT cut)
        (tri, "projective", None, 1),
        (tri, "ppt", None, 1 + 3),
        (tri, "ppt", (2,), 1 + 1 + 3),
        (tri, "ppt", (1, 2), 1 + 1 + 3),
        (invalid, "projective", None, 1),
        (invalid, "ppt", (2,), 1),
    ]
    for povm, kind, cut, eigvalsh_calls in cases:
        path = write_json(tmp_path / "povm.json", povm_to_json(povm))
        argv = ["verify", "--povm", path, "--kind", kind] + (["--cut", ",".join(map(str, cut))] if cut else [])
        calls.update(eigvalsh=0, eigh=0)
        code, report, _ = run_captured(capsys, argv)
        assert (calls["eigvalsh"], calls["eigh"]) == (eigvalsh_calls, int(kind == "projective" and povm is tri))
        valid = verify_povm(povm).passed
        if kind == "projective":
            expected = {"projective": valid and is_projective(povm)}
        else:
            expected = {
                "ppt": valid and is_ppt_povm(povm, partition=cut),
                "min_pt_eigenvalue": ppt_min_eigenvalue(povm) if valid else None,
            }
        assert report["payload"]["details"] == expected
        assert code == (0 if report["payload"]["passed"] else 1)
    assert report["payload"]["details"]["ppt"] is False


def test_verify_locc1_tree_file(tmp_path, capsys):
    tree = random_locc1((2, 2), 2, seed=5)
    path = write_json(tmp_path / "tree.json", locc1_to_json(tree))
    code, report, _ = run_captured(capsys, ["verify", "--povm", path, "--kind", "locc1"])
    assert code == 0
    assert report["payload"]["details"]["tree_valid"] is True


def test_verify_locc1_invalid_tree(tmp_path, capsys):
    # an incomplete conditional family: the only outcome does not sum to I
    tree_obj = {
        "dims": [2],
        "party_order": [0],
        "root": {
            "party": 0,
            "outcomes": [
                {"element": {"rows": 2, "cols": 2, "re": [1, 0, 0, 0], "im": [0, 0, 0, 0]}}
            ],
        },
    }
    path = write_json(tmp_path / "badtree.json", tree_obj)
    code, report, err = run_captured(capsys, ["verify", "--povm", path, "--kind", "locc1"])
    assert code == 1
    assert report["payload"]["details"]["tree_valid"] is False
    assert report["payload"]["completeness_residual"] is None
    assert "VERIFY locc1: FAIL (completeness n/a)" in err


def test_flatten_honours_the_tol_of_every_command(tmp_path, capsys):
    # Alice's first outcome is off by 1e-6: complete at --tol 1e-3, not at the default 1e-9
    alice = [np.diag([1 + 1e-6, 0.0]), np.diag([0.0, 1.0])]
    bob = {"party": 1, "outcomes": [{"element": matrix_to_json(np.eye(2))}]}
    root = {"party": 0, "outcomes": [{"element": matrix_to_json(a), "children": bob} for a in alice]}
    tree_obj = {"dims": [2, 2], "party_order": [0, 1], "root": root}
    tree_path = write_json(tmp_path / "tree.json", tree_obj)
    loose = ["--tol", "1e-3"]
    code, report, _ = run_captured(capsys, ["verify", "--povm", tree_path, "--kind", "locc1", *loose])
    assert code == 0
    assert report["payload"]["details"]["tree_valid"] is True
    states_path = write_json(tmp_path / "bell.json", state_set_to_json(bell_states()))
    argv = ["discriminate", "--states", states_path, "--povm", tree_path, "--mode", "unambiguous", *loose]
    code, report, _ = run_captured(capsys, argv)
    assert code == 1
    kind, verdict = parse_report(report)
    assert kind == "verdict" and not verdict.passes
    povm = Povm([np.kron(a, np.eye(2)) for a in alice], (2, 2), "locc1")
    povm_obj = {**povm_to_json(povm), "witness": {"type": "locc1", "tree": tree_obj}}
    povm_path = write_json(tmp_path / "povm.json", povm_obj)
    code, report, _ = run_captured(capsys, ["verify", "--povm", povm_path, "--kind", "sep", *loose])
    assert code == 0
    assert report["payload"]["details"]["sep_witness_ok"] is True


def test_a_tree_witness_is_judged_by_its_product_terms(tmp_path, capsys):
    # Alice's family {|0><0|, |1><1|/2} is incomplete; only the leaves' product terms can make a SEP witness
    def leaf(a, b):
        return {"element": matrix_to_json(a), "children": {"party": 1, "outcomes": [{"element": matrix_to_json(b)}]}}

    def verify_sep(elements, leaves):
        tree = {"dims": [2, 2], "party_order": [0, 1], "root": {"party": 0, "outcomes": leaves}}
        povm_obj = {**povm_to_json(Povm(elements, (2, 2))), "witness": {"type": "locc1", "tree": tree}}
        path = write_json(tmp_path / "povm.json", povm_obj)
        return run_captured(capsys, ["verify", "--povm", path, "--kind", "sep"])

    zero, one, eye = np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.eye(2)
    code, report, err = verify_sep([np.kron(zero, eye), np.kron(one, eye)], [leaf(zero, eye), leaf(one / 2, eye)])
    assert code == 1
    assert report["payload"]["details"]["sep_witness_ok"] is False
    assert "VERIFY sep: FAIL" in err
    # incomplete families whose product terms rebuild a valid POVM: the witness is good
    halves = [leaf(eye / 2, 1.5 * eye), leaf(eye / 2, eye / 2)]
    code, report, _ = verify_sep([0.75 * np.eye(4), 0.25 * np.eye(4)], halves)
    assert code == 0
    assert report["payload"]["details"]["sep_witness_ok"] is True


def test_discriminate_domino(tmp_path, capsys):
    dominoes = domino_states()
    states_path = write_json(tmp_path / "domino.json", state_set_to_json(dominoes))
    from distlab.povm import Povm

    povm = Povm([s.rho for s in dominoes], (3, 3), kind="projective")
    povm_path = write_json(tmp_path / "proj.json", povm_to_json(povm))
    code, report, err = run_captured(
        capsys, ["discriminate", "--states", states_path, "--povm", povm_path, "--mode", "perfect"]
    )
    assert code == 0
    kind, verdict = parse_report(report)
    assert kind == "verdict"
    assert verdict.passes
    assert "PERFECT DISCRIMINATION: PASS (success 1.000000)" in err


def test_a_real_input_and_its_phase_twin_get_the_same_verdicts(tmp_path, capsys):
    """The real domino-ext set, checked in float64, and its twin D rho D^H (D a local diagonal unitary: complex
    data, checked in complex arithmetic) get the same exit codes and verdicts from verify and discriminate.  Each
    report of the real input prints again byte for byte, and so does its copy read back through parse_report."""
    code, report, _ = run_captured(capsys, ["gen", "--family", "domino-ext", "--dims", "4,4"])
    assert code == 0
    _, states = parse_report(report)
    assert not np.any(states.rhos.imag)
    rng = np.random.default_rng(11)
    phases = np.kron(np.exp(2j * np.pi * rng.random(4)), np.exp(2j * np.pi * rng.random(4)))
    twin = phases[:, None] * states.rhos * phases.conj()[None, :]
    assert np.any(twin.imag)
    answers = {}
    for name, rhos in (("real", states.rhos), ("twin", twin)):
        stack = StateSet.from_stack(rhos, states.dims, states.labels)
        states_path = write_json(tmp_path / f"{name}-states.json", state_set_to_json(stack))
        povm_path = write_json(tmp_path / f"{name}-povm.json", povm_to_json(Povm(rhos, states.dims, "projective")))
        verify = ["verify", "--povm", povm_path, "--kind", "projective"]
        discriminate = ["discriminate", "--states", states_path, "--povm", povm_path, "--mode", "perfect"]
        for argv in (verify, discriminate):
            code = run(argv)
            out = capsys.readouterr().out
            kind, payload = parse_report(json.loads(out))
            if kind == "verdict":
                answers[name, argv[0]] = (code, payload.passes, payload.violations)
                payload = verdict_to_json(payload)
            else:
                answers[name, argv[0]] = (code, payload["passed"], payload["details"])
            if name == "real":
                assert run(argv) == code
                assert capsys.readouterr().out == out
                assert reference_encode({**json.loads(out), "payload": payload}) == out
    for command in ("verify", "discriminate"):
        assert answers["real", command] == answers["twin", command]
        assert answers["real", command][:2] == (0, True)


def test_discriminate_dimension_mismatch_is_usage_error(tmp_path, capsys):
    states_path = bell_pair_file(tmp_path)
    from distlab.povm import Povm

    povm_path = write_json(tmp_path / "p9.json", povm_to_json(Povm([np.eye(9)], (3, 3))))
    code, _, err = run_captured(
        capsys, ["discriminate", "--states", states_path, "--povm", povm_path]
    )
    assert code == 2
    assert "error" in err


def test_discriminate_failure_exit_code(tmp_path, capsys):
    states_path = bell_pair_file(tmp_path)
    from distlab.povm import Povm

    povm_path = write_json(tmp_path / "id.json", povm_to_json(Povm([np.eye(4)], (2, 2))))
    code, report, _ = run_captured(
        capsys, ["discriminate", "--states", states_path, "--povm", povm_path]
    )
    assert code == 1
    _, verdict = parse_report(report)
    assert not verdict.passes


def test_sdp_command(tmp_path, capsys):
    phi = np.zeros((4, 4), dtype=complex)
    phi[np.ix_([0, 3], [0, 3])] = 0.5
    psi = np.zeros((4, 4), dtype=complex)
    psi[np.ix_([1, 2], [1, 2])] = 0.5
    problem = SdpProblem([phi / 2, psi / 2], np.eye(4), (2, 2), [[(0,)], [(0,)]])
    path = write_json(tmp_path / "problem.json", problem_to_json(problem))
    code, report, err = run_captured(capsys, ["sdp", "--problem", path])
    assert code == 0
    kind, sol = parse_report(report)
    assert kind == "sdp_solution"
    assert sol.status == "optimal"
    assert abs(sol.objective_value - 1.0) <= 1e-4
    assert "SDP: optimal value 1.000000" in err


def test_sdp_summary_six_digits(tmp_path, capsys):
    # three Bell states render their optimum 2/3 as 0.666667
    from distlab.discrimination import ppt_discrimination_problem

    problem = ppt_discrimination_problem(bell_states().subset([0, 1, 2]))
    path = write_json(tmp_path / "bell3.json", problem_to_json(problem))
    code, _, err = run_captured(capsys, ["sdp", "--problem", path, "--tol", "1e-7"])
    assert code == 0
    assert "value 0.666667" in err


@pytest.mark.parametrize("max_iter", ["0", "-5"])
def test_sdp_nonpositive_max_iter_is_usage_error(tmp_path, max_iter):
    # a fresh interpreter, so an escaping exception would show as a traceback
    import os
    import subprocess
    import sys
    from pathlib import Path

    import distlab
    from distlab.discrimination import ppt_discrimination_problem

    problem = ppt_discrimination_problem(bell_states().subset([0, 2]))
    path = write_json(tmp_path / "bell2.json", problem_to_json(problem))
    env = dict(os.environ, PYTHONPATH=str(Path(distlab.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from distlab.cli import run; sys.exit(run(sys.argv[1:]))",
         "sdp", "--problem", path, "--max-iter", max_iter],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("distlab: error:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_sdp_dims_that_do_not_factor_the_side_exit_2_without_pt_cuts(tmp_path, capsys):
    # the dims were checked against the target's side only when some block had pt_cuts: this solved and exited 0
    problem = {
        "target": matrix_to_json(np.eye(2)),
        "dims": [3],
        "blocks": [{"objective": matrix_to_json(np.eye(2) / 2)}],
    }
    path = write_json(tmp_path / "q.json", problem)
    code = run(["sdp", "--problem", path])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"distlab: error: bad input file {path}: dims (3,) do not factor matrix side 2\n"


def test_theorem1_command(tmp_path, capsys):
    states_path = bell_pair_file(tmp_path)
    code, report, err = run_captured(
        capsys, ["theorem1", "--states", states_path, "--new-dims", "3,3"]
    )
    assert code == 0
    payload = report["payload"]
    assert abs(payload["opt_small"] - 1.0) <= 1e-4
    assert abs(payload["opt_big"] - 1.0) <= 1e-4
    assert abs(payload["delta"]) <= 2e-3
    assert err.startswith("THEOREM1: opt 1.000000 -> 1.000000")


def test_fuzz_command(capsys):
    code, report, err = run_captured(
        capsys, ["fuzz", "--kinds", "general,locc1", "--trials", "5", "--seed", "7"]
    )
    assert code == 0
    kind, harness = parse_report(report)
    assert kind == "harness"
    assert harness.passes
    assert report["manifest"]["seed"] == 7
    assert "FUZZ: 10/10 OK" in err


def test_fuzz_requires_seed(capsys):
    code = run(["fuzz", "--kinds", "general", "--trials", "5"])
    capsys.readouterr()
    assert code == 2


def test_fuzz_deterministic(capsys):
    run(["fuzz", "--kinds", "sep", "--trials", "3", "--seed", "11"])
    out1 = capsys.readouterr().out
    run(["fuzz", "--kinds", "sep", "--trials", "3", "--seed", "11"])
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_malformed_json_names_path(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_captured(capsys, ["verify", "--povm", str(bad)])
    assert code == 2
    assert str(bad) in err


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _, err = run_captured(capsys, ["verify", "--povm", str(tmp_path / "nope.json")])
    assert code == 2
    assert "nope.json" in err


def test_unknown_command_exit_2(capsys):
    code = run(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_report_round_trip_all_payloads(tmp_path, capsys):
    # every subcommand's report re-parses into its domain type
    states_path = write_json(tmp_path / "domino.json", state_set_to_json(domino_states()))
    povm_path = write_json(tmp_path / "c4.json", povm_to_json(counterexample_c4()))
    commands = [
        ["gen", "--family", "bell"],
        ["verify", "--povm", povm_path, "--kind", "projective"],
        ["counterexample"],
        ["fuzz", "--kinds", "general", "--trials", "2", "--seed", "3"],
    ]
    for argv in commands:
        code, report, _ = run_captured(capsys, argv)
        assert code == 0, argv
        kind, parsed = parse_report(report)
        assert parsed is not None


def test_the_commands_write_exactly_the_payload_kinds_parse_report_reads(tmp_path, capsys):
    # parse_report also read a "povm" kind that no command writes
    states = bell_pair_file(tmp_path)
    povm = write_json(tmp_path / "sep.json", sep_c4_obj())
    problem = write_json(tmp_path / "bell2-ppt.json", bell_pair_problem())
    commands = {
        "gen": ["--family", "bell"],
        "verify": ["--povm", povm, "--kind", "sep"],
        "discriminate": ["--states", states, "--povm", povm],
        "sdp": ["--problem", problem, "--max-iter", "25"],
        "theorem1": ["--states", states, "--new-dims", "3,3"],
        "fuzz": ["--kinds", "general", "--trials", "2", "--seed", "3"],
        "counterexample": [],
    }
    (subcommands,) = [action.choices for action in build_parser()._actions if action.dest == "command"]
    assert set(commands) == set(subcommands)
    written = set()
    for command, rest in commands.items():
        _, report, _ = run_captured(capsys, [command, *rest])
        written.add(report["payload_kind"])
    assert written == set(distlab.cli._payload_parsers())


def test_parse_report_rejects_unknown_fields_and_versions(capsys):
    _, report, _ = run_captured(capsys, ["gen", "--family", "bell"])
    with pytest.raises(ValueError):
        parse_report({**report, "extra": 1})
    with pytest.raises(ValueError):
        parse_report({**report, "schema_version": "2"})
    with pytest.raises(ValueError):
        summarize({**report, "schema_version": "2"})


def check_console_command(command):
    """Run `counterexample` and a malformed `gen` through a console command prefix."""
    # absolute, so the checkout is imported from any working directory
    env = dict(
        os.environ,
        PYTHONPATH=str(Path(distlab.__file__).resolve().parents[1]),
        SOURCE_DATE_EPOCH="1700000000",
    )

    def console(*argv):
        return subprocess.run(
            [*command, *argv], env=env, capture_output=True, text=True, timeout=120
        )

    proc = console("counterexample")
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["payload"]["projective"] is True

    # the exit code must pass through the entry point, not only run()
    proc = console("gen", "--family", "gbell", "--dims", "2,3")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("distlab: error:")
    assert "Traceback" not in proc.stderr


def test_console_script_smoke():
    # the [project.scripts] target, started in a fresh interpreter the way
    # pip's generated `distlab` wrapper starts it; no install needed
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["distlab"]
    module, func = target.split(":")
    wrapper = f"import sys; sys.argv[0] = 'distlab'; from {module} import {func}; sys.exit({func}())"
    check_console_command([sys.executable, "-c", wrapper])


def test_python_m_distlab():
    check_console_command([sys.executable, "-m", "distlab"])


@pytest.mark.skipif(shutil.which("distlab") is None, reason="distlab console script not installed")
def test_installed_console_script_smoke():
    check_console_command([shutil.which("distlab")])


def bell_pair_obj():
    return state_set_to_json(bell_states().subset([0, 2]))


def identity_povm_obj():
    return povm_to_json(Povm([np.eye(4)], (2, 2)))


def one_party_pair_obj():
    return state_set_to_json(StateSet([pure_state([1, 0], (2,)), pure_state([0, 1], (2,))]))


def povm_with_text_entries_and_fractional_rows():
    """The projective POVM {|0><0|, |1><1|} with the first element's entries as strings and rows 2.9 in the second."""
    obj = povm_to_json(Povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], (2,), kind="projective"))
    obj["elements"][0]["re"] = ["1", "0", "0", "0"]
    obj["elements"][1]["rows"] = 2.9
    return obj


def povm_with_negative_sizes():
    """The identity POVM on (2,) with its element's rows and cols both -2: their product still counts four entries."""
    obj = povm_to_json(Povm([np.eye(2)], (2,)))
    obj["elements"][0].update(rows=-2, cols=-2)
    return obj


def bell_projector_povm_obj():
    p = bell_states().rhos[0]
    return povm_to_json(Povm([p, np.eye(4) - p], (2, 2)))


def sep_c4_obj():
    return povm_to_json(hadamard_sep_povm())


def without(obj, key):
    return {k: v for k, v in obj.items() if k != key}


def doubled_trace():
    obj = bell_pair_obj()
    matrix = obj["states"][0]["matrix"]
    matrix["re"] = [2 * x for x in matrix["re"]]
    return obj


def state_matrix_without_re():
    obj = bell_pair_obj()
    obj["states"][0]["matrix"] = without(obj["states"][0]["matrix"], "re")
    return obj


def incomplete_tree():
    # Alice's only outcome is |0><0|, so her conditional family misses |1><1|
    def element(values):
        return {"rows": 2, "cols": 2, "re": values, "im": [0, 0, 0, 0]}

    leaf = {"party": 1, "outcomes": [{"element": element([1, 0, 0, 1])}]}
    root = {"party": 0, "outcomes": [{"element": element([1, 0, 0, 0]), "children": leaf}]}
    return {"dims": [2, 2], "party_order": [0, 1], "root": root}


def short_sep_witness():
    """The Hadamard SEP POVM with its last element's witness terms dropped: the witness covers 3 of its 4 elements."""
    obj = sep_c4_obj()
    obj["witness"]["terms"] = obj["witness"]["terms"][:3]
    return obj


def sep_witness_with_extra_field():
    obj = sep_c4_obj()
    obj["witness"]["extra"] = 1
    return obj


def nan_state():
    obj = bell_pair_obj()
    obj["states"][0]["matrix"]["re"][1] = float("nan")
    return obj


def infinite_sep_element():
    obj = sep_c4_obj()
    obj["elements"][0]["im"][0] = float("inf")
    return obj


def bell_pair_problem():
    from distlab.discrimination import ppt_discrimination_problem

    return problem_to_json(ppt_discrimination_problem(bell_states().subset([0, 2])))


def pt_cut_as_int():
    obj = bell_pair_problem()
    obj["blocks"][0]["pt_cuts"] = [0]  # each cut is a party list: [[0]]
    return obj


def pt_cut_with_party(party):
    obj = bell_pair_problem()
    obj["blocks"][0]["pt_cuts"] = [[party]]
    return obj


def with_pt_cuts(cuts):
    obj = bell_pair_problem()
    obj["blocks"][0]["pt_cuts"] = cuts
    return obj


def tree_obj():
    return locc1_to_json(random_locc1((2, 2), 2, seed=5))


def tree_with_root_party(party):
    obj = tree_obj()
    obj["root"]["party"] = party
    return obj


# dims that are no JSON integers, though int() takes each entry: text, a fraction, a bool
NOT_INTEGER_DIMS = {"text": ["2", "2"], "fractional": [2.9, 2], "boolean": [True, 4]}

# (files to write, argv with {name} placeholders for their paths)
CONTRACT_BREAKERS = {
    **{
        f"verify-{name}-dims": ({"p": {**identity_povm_obj(), "dims": dims}}, ["verify", "--povm", "{p}"])
        for name, dims in NOT_INTEGER_DIMS.items()
    },
    **{
        f"discriminate-{name}-dims": (
            {"s": {**bell_pair_obj(), "dims": dims}, "p": {**identity_povm_obj(), "dims": dims}},
            ["discriminate", "--states", "{s}", "--povm", "{p}"],
        )
        for name, dims in NOT_INTEGER_DIMS.items()
    },
    "tree-party-order-is-text": (
        {"p": {**tree_obj(), "party_order": ["0", "1"]}},
        ["verify", "--povm", "{p}", "--kind", "locc1"],
    ),
    "tree-party-order-is-boolean": (
        {"p": {**tree_obj(), "party_order": [False, True]}},
        ["verify", "--povm", "{p}", "--kind", "locc1"],
    ),
    "tree-node-party-is-fractional": (
        {"p": tree_with_root_party(0.0)},
        ["verify", "--povm", "{p}", "--kind", "locc1"],
    ),
    "state-file-without-states": (
        {"s": {"dims": [2, 2]}, "p": identity_povm_obj()},
        ["discriminate", "--states", "{s}", "--povm", "{p}"],
    ),
    "trace-2-state-discriminate": (
        {"s": doubled_trace(), "p": identity_povm_obj()},
        ["discriminate", "--states", "{s}", "--povm", "{p}"],
    ),
    "trace-2-state-theorem1": (
        {"s": doubled_trace()},
        ["theorem1", "--states", "{s}", "--new-dims", "3,3"],
    ),
    "state-entry-is-5": (
        {"s": {"dims": [2, 2], "states": [5]}, "p": identity_povm_obj()},
        ["discriminate", "--states", "{s}", "--povm", "{p}"],
    ),
    "matrix-without-re": (
        {"s": state_matrix_without_re(), "p": identity_povm_obj()},
        ["discriminate", "--states", "{s}", "--povm", "{p}"],
    ),
    "matrix-negative-rows": (
        {"p": povm_with_negative_sizes()},
        ["verify", "--povm", "{p}"],
    ),
    "witness-is-5": (
        {"p": {**sep_c4_obj(), "witness": 5}},
        ["verify", "--povm", "{p}", "--kind", "sep"],
    ),
    "incomplete-tree-discriminate": (
        {"s": bell_pair_obj(), "p": incomplete_tree()},
        ["discriminate", "--states", "{s}", "--povm", "{p}"],
    ),
    "sdp-without-target": (
        {"q": without(bell_pair_problem(), "target")},
        ["sdp", "--problem", "{q}"],
    ),
    "sdp-blocks-is-3": (
        {"q": {**bell_pair_problem(), "blocks": 3}},
        ["sdp", "--problem", "{q}"],
    ),
    "sdp-pt-cut-is-a-party-not-a-list": (
        {"q": pt_cut_as_int()},
        ["sdp", "--problem", "{q}"],
    ),
    # a block's pt_cuts is a list of party lists: {} and "" were read as a block with no cut
    "sdp-pt-cuts-is-an-object": (
        {"q": with_pt_cuts({})},
        ["sdp", "--problem", "{q}"],
    ),
    "sdp-pt-cuts-is-text": (
        {"q": with_pt_cuts("")},
        ["sdp", "--problem", "{q}"],
    ),
    "state-label-is-a-number": (
        {"s": {**bell_pair_obj(), "states": [{**e, "label": 5} for e in bell_pair_obj()["states"]]},
         "p": identity_povm_obj()},
        ["discriminate", "--states", "{s}", "--povm", "{p}"],
    ),
    "sep-witness-unknown-field": (
        {"p": sep_witness_with_extra_field()},
        ["verify", "--povm", "{p}", "--kind", "sep"],
    ),
    # the POVM is built, and its witness checked, as the file is read, whatever the command does with it
    "short-witness-verify-general": ({"p": short_sep_witness()}, ["verify", "--povm", "{p}"]),
    "short-witness-verify-sep": ({"p": short_sep_witness()}, ["verify", "--povm", "{p}", "--kind", "sep"]),
    "short-witness-discriminate": (
        {"s": bell_pair_obj(), "p": short_sep_witness()},
        ["discriminate", "--states", "{s}", "--povm", "{p}"],
    ),
    "dims-overflow": (
        {"p": {**identity_povm_obj(), "dims": [1e400]}},
        ["verify", "--povm", "{p}"],
    ),
    "nan-state-discriminate": (
        {"s": nan_state(), "p": identity_povm_obj()},
        ["discriminate", "--states", "{s}", "--povm", "{p}"],
    ),
    "infinity-povm-verify-sep": (
        {"p": infinite_sep_element()},
        ["verify", "--povm", "{p}", "--kind", "sep"],
    ),
    "fuzz-negative-trials": (
        {},
        ["fuzz", "--kinds", "general", "--trials", "-3", "--seed", "1"],
    ),
    "fuzz-zero-trials": (
        {},
        ["fuzz", "--kinds", "general", "--trials", "0", "--seed", "1"],
    ),
    "fuzz-negative-seed": (
        {},
        ["fuzz", "--kinds", "general", "--trials", "1", "--seed", "-1"],
    ),
    "fuzz-kind-without-sampler": (
        {},
        ["fuzz", "--kinds", "general,projective", "--trials", "1", "--seed", "1"],
    ),
    "fuzz-repeated-kind": (
        {},
        ["fuzz", "--kinds", "general,general", "--trials", "1", "--seed", "1"],
    ),
    "fuzz-ppt-on-one-party": (
        {"s": one_party_pair_obj()},
        ["fuzz", "--kinds", "general,ppt", "--trials", "200", "--seed", "1", "--states", "{s}", "--new-dims", "3"],
    ),
    "unambiguous-inconclusive-7": (
        {"s": bell_pair_obj(), "p": bell_projector_povm_obj()},
        ["discriminate", "--states", "{s}", "--povm", "{p}", "--mode", "unambiguous", "--inconclusive", "7"],
    ),
    "unambiguous-inconclusive-minus-1": (
        {"s": bell_pair_obj(), "p": bell_projector_povm_obj()},
        ["discriminate", "--states", "{s}", "--povm", "{p}", "--mode", "unambiguous", "--inconclusive=-1"],
    ),
    "gen-bell-in-7x7": (
        {},
        ["gen", "--family", "bell", "--dims", "7,7"],
    ),
    "gen-domino-in-2x2": (
        {},
        ["gen", "--family", "domino", "--dims", "2,2"],
    ),
    "perfect-with-inconclusive": (
        {"s": bell_pair_obj(), "p": bell_projector_povm_obj()},
        ["discriminate", "--states", "{s}", "--povm", "{p}", "--mode", "perfect", "--inconclusive", "1"],
    ),
    "default-mode-with-inconclusive": (
        {"s": bell_pair_obj(), "p": bell_projector_povm_obj()},
        ["discriminate", "--states", "{s}", "--povm", "{p}", "--inconclusive", "1"],
    ),
    "sdp-fractional-party": (
        {"q": pt_cut_with_party(0.7)},
        ["sdp", "--problem", "{q}"],
    ),
    "sdp-boolean-party": (
        {"q": pt_cut_with_party(True)},
        ["sdp", "--problem", "{q}"],
    ),
    "povm-entries-and-rows-not-numbers": (
        {"p": povm_with_text_entries_and_fractional_rows()},
        ["verify", "--povm", "{p}", "--kind", "projective"],
    ),
}


# non-finite matrix entries: the message names the file and the defect
NON_FINITE = {"nan-state-discriminate": "s", "infinity-povm-verify-sep": "p"}


@pytest.mark.parametrize("case", sorted(CONTRACT_BREAKERS))
def test_malformed_input_exits_2_without_traceback(tmp_path, capsys, case):
    # in-process, so any exception escaping run() fails the test
    files, argv = CONTRACT_BREAKERS[case]
    paths = {name: write_json(tmp_path / f"{name}.json", obj) for name, obj in files.items()}
    code = run([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("distlab: error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    if case in NON_FINITE:
        assert paths[NON_FINITE[case]] in captured.err
        assert "NaN or Infinity" in captured.err
    if case == "fuzz-negative-seed":
        assert "seed must be a non-negative integer, got -1" in captured.err
    if case == "matrix-negative-rows":
        assert "negative, got -2x-2" in captured.err
    if case.startswith("short-witness"):
        assert f"bad input file {paths['p']}: witness covers 3 elements, POVM has 4\n" in captured.err


def test_deeply_nested_input_exits_2_without_traceback(tmp_path, capsys):
    # in-process, so a RecursionError escaping run() fails the test
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code = run(["verify", "--povm", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"distlab: error: bad input file {path}: ")


def test_an_array_nested_500_deep_exits_2_without_traceback(tmp_path, capsys):
    # deeper than the Python scanner of linalg.read_json goes, within what the C scanner of json.loads takes
    text = "[" * 500 + "]" * 500
    json.loads(text)
    path = tmp_path / "deep500.json"
    path.write_text(text)
    code = run(["verify", "--povm", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith(f"distlab: error: bad input file {path}: ")


def test_an_invalid_state_is_named_by_its_label_verbatim(tmp_path, capsys):
    # the label holds what the reader looks for when it takes a flat number array in bulk
    label = "x[0.0,]{"
    obj = state_set_to_json(domino_states())
    obj["states"][4]["label"] = label
    obj["states"][4]["matrix"]["re"] = [2 * v for v in obj["states"][4]["matrix"]["re"]]
    code, report, err = run_captured(capsys, ["theorem1", "--states", write_json(tmp_path / "s.json", obj),
                                              "--new-dims", "4,4"])
    assert (code, report) == (2, None)
    assert f"state {label!r} has trace 2" in err


def test_pretty_printed_input_reads_as_the_compact_file(tmp_path, capsys):
    dominoes = domino_states()
    objs = {"s": state_set_to_json(dominoes), "p": povm_to_json(Povm(dominoes.rhos, (3, 3), kind="projective"))}
    objs["q"] = {**objs["p"], "elements": objs["p"]["elements"][1:]}  # incomplete
    objs["r"] = povm_to_json(Povm([np.eye(9) / 9] * 9, (3, 3)))  # tells no state apart
    results = {}
    compact, pretty = {"separators": (",", ":")}, {"indent": 2, "separators": (", ", ": ")}
    for form, options in [("compact", compact), ("pretty", pretty)]:
        paths = {}
        for name, obj in objs.items():
            paths[name] = str(tmp_path / f"{form}-{name}.json")
            Path(paths[name]).write_text(json.dumps(obj, **options))
        for argv in [
            ["verify", "--povm", "{p}", "--kind", "projective"],
            ["verify", "--povm", "{q}"],
            ["discriminate", "--states", "{s}", "--povm", "{p}", "--mode", "perfect"],
            ["discriminate", "--states", "{s}", "--povm", "{r}", "--mode", "perfect"],
        ]:
            code = run([arg.format(**paths) for arg in argv])
            out = capsys.readouterr().out
            for path in paths.values():  # the manifest names each file and its digest
                out = out.replace(path, "FILE").replace(hashlib.sha256(Path(path).read_bytes()).hexdigest(), "DIGEST")
            results.setdefault(" ".join(argv), []).append((code, out))
    assert [codes for codes, _ in (zip(*r) for r in results.values())] == [(0, 0), (1, 1), (0, 0), (1, 1)]
    for argv, (compact, pretty) in results.items():
        assert compact == pretty, argv


def test_tol_defaults_per_command(tmp_path, capsys):
    # complete within 1e-6 but not within the default 1e-9
    loose = write_json(tmp_path / "loose.json", povm_to_json(Povm([np.eye(4) * (1 + 1e-8)], (2, 2))))
    assert run_captured(capsys, ["verify", "--povm", loose])[0] == 1
    assert run_captured(capsys, ["verify", "--povm", loose, "--tol", "1e-6"])[0] == 0
    parser = build_parser()
    for argv, tol in [
        (["verify", "--povm", "p"], 1e-9),
        (["discriminate", "--states", "s", "--povm", "p"], 1e-9),
        (["fuzz", "--kinds", "general", "--trials", "1", "--seed", "1"], 1e-9),
        (["sdp", "--problem", "q"], 1e-6),
    ]:
        assert parser.parse_args(argv).tol == tol, argv[0]


@pytest.mark.parametrize("value", ["inf", "nan", "-1", "0", "1e-400", "tiny"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--povm", "p.json", "--kind", "ppt", "--tol"],
        ["discriminate", "--states", "s.json", "--povm", "p.json", "--tol"],
        ["fuzz", "--kinds", "general", "--trials", "1", "--seed", "1", "--tol"],
        ["sdp", "--problem", "q.json", "--tol"],
        ["theorem1", "--states", "s.json", "--new-dims", "3,3", "--delta-tol"],
    ],
    ids=["verify", "discriminate", "fuzz", "sdp", "theorem1"],
)
def test_tolerances_must_be_finite_and_positive(capsys, argv, value):
    # the files do not exist: the option is rejected before any input is read
    code = run(argv + [value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert f"argument {argv[-1]}: " in captured.err
    assert "Traceback" not in captured.err


def test_fuzz_single_trial_still_runs(capsys):
    code, report, err = run_captured(capsys, ["fuzz", "--kinds", "general", "--trials", "1", "--seed", "1"])
    assert code == 0
    assert report["payload"]["trials"] == 1
    assert "FUZZ: 1/1 OK" in err


def dict_paths(obj, path=()):
    """Every path (tuple of keys and indices) at which ``obj`` holds a JSON object."""
    if isinstance(obj, dict):
        yield path
        for key, value in obj.items():
            yield from dict_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from dict_paths(value, path + (i,))


def at(obj, path):
    for step in path:
        obj = obj[step]
    return obj


MUTATION_SOURCES = {
    "states": bell_pair_obj(),
    "sep": sep_c4_obj(),
    "tree": locc1_to_json(random_locc1((2, 2), 2, seed=5)),
    "problem": bell_pair_problem(),
}
# each mutated file goes through every command that reads it; the other files stay valid
MUTATION_COMMANDS = [
    ("states", ["discriminate", "--states", "{states}", "--povm", "{sep}"]),
    ("sep", ["verify", "--povm", "{sep}", "--kind", "sep"]),
    ("sep", ["discriminate", "--states", "{states}", "--povm", "{sep}"]),
    ("tree", ["verify", "--povm", "{tree}", "--kind", "locc1"]),
    ("tree", ["discriminate", "--states", "{states}", "--povm", "{tree}"]),
    # a mutated problem may be hard; 50 iterations bound the solver's work
    ("problem", ["sdp", "--problem", "{problem}", "--max-iter", "50"]),
]
REPLACEMENTS = [5, "x", [], {}, None]


def draw_mutation(data, source):
    """A deep copy of ``source`` with one key dropped, added or given a foreign value,
    in any of its objects; returns the copy and the operation."""
    mutated = json.loads(json.dumps(source))
    node = at(mutated, data.draw(st.sampled_from(list(dict_paths(mutated))), label="object"))
    op = data.draw(st.sampled_from(["drop", "add", "replace"] if node else ["add"]), label="mutation")
    if op == "add":
        node["unexpected"] = 0
    else:
        key = data.draw(st.sampled_from(sorted(node)), label="key")
        if op == "drop":
            del node[key]
        else:
            node[key] = data.draw(st.sampled_from(REPLACEMENTS), label="value")
    return mutated, op


@settings(
    max_examples=180,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys, data):
    target, argv = data.draw(st.sampled_from(MUTATION_COMMANDS), label="command")
    mutated, op = draw_mutation(data, MUTATION_SOURCES[target])
    files = {**MUTATION_SOURCES, target: mutated}
    paths = {name: write_json(tmp_path / f"{name}.json", obj) for name, obj in files.items()}

    code = run([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code in (0, 1, 2)
    assert "Traceback" not in captured.err
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("distlab: error:")
    else:
        parse_report(json.loads(captured.out))
    if op == "add":
        # unknown fields are rejected everywhere
        assert code == 2


def report_of(kind, payload):
    return {"schema_version": "1", "payload_kind": kind, "payload": payload}


# a failure record as the fuzz writes one: trial 0 of kind general failed its completeness check
FAILURE = {"seed_offset": 0, "kind": "general", "check": "completeness", "residual": 0.01}


def harness_payload(**changes):
    payload = harness_to_json(local_global_fuzz(bell_states().subset([0, 1, 2]), ["general"], (3, 3), 1, 3))
    return {**payload, **changes}


def verdict_payload(**changes):
    return {**verdict_to_json(check_perfect(hadamard_sep_povm(), bell_states())), **changes}


def solution_payload(**changes):
    solution = SdpSolution((np.eye(2),), 1.0, "optimal", {"primal": 0.0}, 25, ({"iteration": 25},))
    return {**solution_to_json(solution), **changes}


# reports whose foreign JSON types once escaped parse_report as TypeError
TYPE_BREAKING_REPORTS = {
    "payload-kind-list": lambda: report_of([], {}),
    "harness-kinds-int": lambda: report_of("harness", harness_payload(kinds=5)),
    "harness-trials-list": lambda: report_of("harness", harness_payload(trials=[])),
    "verdict-violations-int": lambda: report_of("verdict", verdict_payload(violations=5)),
    "solution-history-int-entry": lambda: report_of("sdp_solution", solution_payload(history=[5])),
    # reports whose foreign JSON types were coerced: trials 2.9 read as 2, kinds "general" as its letters
    "harness-trials-float": lambda: report_of("harness", harness_payload(trials=2.9)),
    "harness-trials-bool": lambda: report_of("harness", harness_payload(trials=True)),
    "harness-seed-text": lambda: report_of("harness", harness_payload(seed="7")),
    "harness-kinds-text": lambda: report_of("harness", harness_payload(kinds="general")),
    "harness-kinds-int-entry": lambda: report_of("harness", harness_payload(kinds=[5])),
    "harness-dims-text": lambda: report_of("harness", harness_payload(dims="33")),
    "harness-sub-dims-float": lambda: report_of("harness", harness_payload(sub_dims=[2.0, 2])),
    "harness-failures-object": lambda: report_of("harness", harness_payload(failures={})),
    "harness-passes-text": lambda: report_of("harness", harness_payload(passes="false")),
    "harness-passes-int": lambda: report_of("harness", harness_payload(passes=1)),
    "verdict-mode-int": lambda: report_of("verdict", verdict_payload(mode=5)),
    "verdict-povm-kind-list": lambda: report_of("verdict", verdict_payload(povm_kind=["sep"])),
    "verdict-passes-text": lambda: report_of("verdict", verdict_payload(passes="false")),
    "verdict-passes-int": lambda: report_of("verdict", verdict_payload(passes=0)),
    # pass flags that disagree with the violation list (the verdict fixture has violations)
    "verdict-fails-without-violations": lambda: report_of("verdict", verdict_payload(passes=False, violations=[])),
    "verdict-passes-with-violations": lambda: report_of("verdict", verdict_payload(passes=True)),
    "verdict-violations-object": lambda: report_of("verdict", verdict_payload(violations={})),
    "solution-status-int": lambda: report_of("sdp_solution", solution_payload(status=5)),
    "solution-iterations-float": lambda: report_of("sdp_solution", solution_payload(iterations=25.5)),
    "solution-iterations-text": lambda: report_of("sdp_solution", solution_payload(iterations="25")),
    "solution-residuals-list": lambda: report_of("sdp_solution", solution_payload(residuals=[])),
    "solution-history-object": lambda: report_of("sdp_solution", solution_payload(history={})),
    # numbers that float() read: "0.5" as 0.5, true as 1.0, "nan" as nan
    "verdict-success-probability-text": lambda: report_of("verdict", verdict_payload(success_probability="0.5")),
    "verdict-tol-bool": lambda: report_of("verdict", verdict_payload(tol=True)),
    "solution-objective-value-text": lambda: report_of("sdp_solution", solution_payload(objective_value="nan")),
}


@pytest.mark.parametrize("case", sorted(TYPE_BREAKING_REPORTS))
def test_parse_report_raises_only_value_error(case):
    with pytest.raises(ValueError):
        parse_report(TYPE_BREAKING_REPORTS[case]())


# reports of the right JSON kinds whose values no command writes, with the message refusing each; each once parsed
VALUE_BREAKING_REPORTS = {
    "harness-trials-negative": (
        lambda: report_of("harness", harness_payload(trials=-5)), "trials must be an integer of at least 1, got -5"
    ),
    "harness-seed-negative": (
        lambda: report_of("harness", harness_payload(seed=-2)), "seed must be a non-negative integer, got -2"
    ),
    "harness-kinds-empty": (lambda: report_of("harness", harness_payload(kinds=[])), "at least one kind required"),
    "harness-kinds-unknown-twice": (
        lambda: report_of("harness", harness_payload(kinds=["magic", "magic"])), "no sampler for kind 'magic'; .+"
    ),
    "harness-kinds-repeated": (
        lambda: report_of("harness", harness_payload(kinds=["general", "general"])),
        "each kind may be fuzzed once, got general, general",
    ),
    "harness-ppt-on-one-party": (
        lambda: report_of("harness", harness_payload(kinds=["ppt"], dims=[3], sub_dims=[2])),
        "PPT needs at least two parties",
    ),
    "harness-sub-dims-more-parties": (
        lambda: report_of("harness", harness_payload(sub_dims=[4, 4, 4])), "party count mismatch: 2 vs 3"
    ),
    "harness-sub-dims-larger": (
        lambda: report_of("harness", harness_payload(sub_dims=[4, 2])),
        r"sub_dims \(4, 2\) must not exceed dims \(3, 3\)",
    ),
    "verdict-mode-unknown": (
        lambda: report_of("verdict", verdict_payload(mode="banana")), "unknown discrimination mode 'banana'"
    ),
    "verdict-povm-kind-unknown": (
        lambda: report_of("verdict", verdict_payload(povm_kind="magic")), "unknown POVM kind 'magic'"
    ),
    "solution-status-unknown": (
        lambda: report_of("sdp_solution", solution_payload(status="banana")), "unknown solve status 'banana'"
    ),
    "solution-iterations-negative": (
        lambda: report_of("sdp_solution", solution_payload(iterations=-3)),
        "iterations must be a non-negative integer, got -3",
    ),
    "harness-passes-without-failures": (
        lambda: report_of("harness", harness_payload(passes=False)), "harness pass flag disagrees with failure list"
    ),
    "harness-failure-unknown-field": (
        lambda: report_of("harness", harness_payload(failures=[{"foo": 1}], passes=False)),
        r"unknown failure record fields \['foo'\]",
    ),
    "harness-failure-without-residual": (
        lambda: report_of("harness", harness_payload(failures=[without(FAILURE, "residual")], passes=False)),
        r"failure record JSON lacks fields \['residual'\]",
    ),
    "harness-failure-residual-text": (
        lambda: report_of("harness", harness_payload(failures=[{"seed_offset": 99, "kind": "sep", "check": "x",
                                                                "residual": "y"}], passes=False)),
        "failure record field 'residual' must be a JSON number or null",
    ),
    "harness-failure-seed-offset-float": (
        lambda: report_of("harness", harness_payload(failures=[{**FAILURE, "seed_offset": 0.0}], passes=False)),
        "failure record field 'seed_offset' must be a JSON integer",
    ),
    "harness-failure-check-number": (
        lambda: report_of("harness", harness_payload(failures=[{**FAILURE, "check": 5}], passes=False)),
        "failure record field 'check' must be a JSON string",
    ),
    "harness-failure-seed-offset-99": (
        lambda: report_of("harness", harness_payload(failures=[{**FAILURE, "seed_offset": 99}], passes=False)),
        r"failure seed_offset 99 lies outside \[0, 1\)",
    ),
    "harness-failure-kind-not-fuzzed": (
        lambda: report_of("harness", harness_payload(failures=[{**FAILURE, "kind": "sep"}], passes=False)),
        "failure kind 'sep' is not one of general",
    ),
    "harness-failure-twice": (
        lambda: report_of("harness", harness_payload(failures=[FAILURE, FAILURE], passes=False)),
        r"failure records must be sorted by \(kind, seed_offset\), each pair once",
    ),
    "harness-failures-out-of-order": (
        lambda: report_of("harness", harness_payload(trials=2, failures=[{**FAILURE, "seed_offset": 1}, FAILURE],
                                                     passes=False)),
        r"failure records must be sorted by \(kind, seed_offset\), each pair once",
    ),
    "verdict-success-probability-7.5": (
        lambda: report_of("verdict", verdict_payload(success_probability=7.5)),
        r"success probability 7.5 lies outside \[0, 1.0000000000000002\]",
    ),
    "verdict-success-probability-negative": (
        lambda: report_of("verdict", verdict_payload(success_probability=-0.25)),
        r"success probability -0.25 lies outside \[0, 1.0000000000000002\]",
    ),
    "verdict-tol-negative": (
        lambda: report_of("verdict", verdict_payload(tol=-1.0)), "tol must be a number of at least 0, got -1.0"
    ),
    "verdict-hit-table-empty": (
        lambda: report_of("verdict", verdict_payload(hit_table=matrix_to_json(np.zeros((0, 0))))),
        r"a hit table needs a state and an outcome, got shape \(0, 0\)",
    ),
}


@pytest.mark.parametrize("case", sorted(VALUE_BREAKING_REPORTS))
def test_parse_report_refuses_values_no_command_writes(case):
    build, message = VALUE_BREAKING_REPORTS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_report(build())


@pytest.fixture(scope="module")
def valid_reports(tmp_path_factory):
    """Reports of gen, verify, discriminate and fuzz, as the CLI prints them."""
    directory = tmp_path_factory.mktemp("reports")
    states = write_json(directory / "states.json", bell_pair_obj())
    sep = write_json(directory / "sep.json", sep_c4_obj())
    commands = [
        ["gen", "--family", "bell"],
        ["verify", "--povm", sep, "--kind", "sep"],
        ["discriminate", "--states", states, "--povm", sep],
        ["fuzz", "--kinds", "general,locc1", "--trials", "2", "--seed", "3"],
    ]
    reports = []
    for argv in commands:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            run(argv)
        reports.append(json.loads(out.getvalue()))
    return reports


@settings(
    max_examples=150,
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_mutated_reports_parse_or_raise_value_error(valid_reports, data):
    report = data.draw(st.sampled_from(valid_reports), label="report")
    mutated, _ = draw_mutation(data, report)
    try:
        parse_report(mutated)
    except ValueError:
        pass


def reject_constant(token):
    raise AssertionError(f"report holds the non-standard JSON token {token}")


@pytest.fixture
def built_reports(monkeypatch):
    """Every report ``run`` builds, recorded before it is written."""
    built = []
    build = distlab.cli._report

    def record(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(distlab.cli, "_report", record)
    return built


def run_against_reference(capsys, built_reports, argv):
    """Run ``argv``; assert it printed what the always-walking encoder prints for the same report."""
    built_reports.clear()
    code = run(argv)
    captured = capsys.readouterr()
    (report,) = built_reports
    assert captured.out == reference_encode(report)
    assert captured.err == summarize(reference_report(report)) + "\n"
    json.loads(captured.out, parse_constant=reject_constant)
    return code, captured.out, captured.err


def test_reports_match_the_always_walking_encoder(tmp_path, capsys, monkeypatch, built_reports):
    for family, dims in (("bell", []), ("gbell", ["--dims", "3,3"]), ("domino", []), ("domino-ext", ["--dims", "3,3"])):
        code, out, _ = run_against_reference(capsys, built_reports, ["gen", "--family", family, *dims])
        assert code == 0
        assert "-0.0," in out

    tree_path = write_json(tmp_path / "badtree.json", incomplete_tree())
    code, out, err = run_against_reference(capsys, built_reports, ["verify", "--povm", tree_path, "--kind", "locc1"])
    assert code == 1
    assert '"completeness_residual":null,"min_eigenvalue":null' in out
    assert "VERIFY locc1: FAIL (completeness n/a)" in err

    monkeypatch.setattr(distlab.discrimination, "restrict_locc1", with_scaled_root(distlab.discrimination.restrict_locc1))
    argv = ["fuzz", "--kinds", "general,locc1", "--trials", "3", "--seed", "4"]
    code, out, _ = run_against_reference(capsys, built_reports, argv)
    assert code == 1
    failures = json.loads(out)["payload"]["failures"]
    assert [(f["check"], f["residual"]) for f in failures] == [("locc1-tree", None)] * 3


def test_report_writer_nulls_non_finite_matrix_entries(capsys):
    matrix = {"rows": 1, "cols": 4, "re": [np.nan, np.inf, -np.inf, -0.0], "im": [0.0, np.float64(np.nan), 1.0, 2.0]}
    report = report_of("verification", {"kind": "general", "passed": False, "details": {"matrix": matrix}})
    report["manifest"] = {"command": "verify", "arguments": ("--kind", "general"), "seed": None}
    distlab.cli._write_report(report)
    out = capsys.readouterr().out
    assert out == reference_encode(report)
    assert json.loads(out, parse_constant=reject_constant)["payload"]["details"]["matrix"] == {
        "rows": 1, "cols": 4, "re": [None, None, None, -0.0], "im": [0.0, None, 1.0, 2.0]
    }


def test_report_writer_nulls_non_finite_entries_of_an_array_matrix(capsys):
    matrix = np.empty((2, 3), dtype=complex)
    matrix.real, matrix.imag = [[np.nan, 0.0, -0.0], [np.inf, 1.5, 0.0]], [[0.0, -np.inf, 2.0], [0.0, 0.0, -0.0]]
    report = report_of("state_set", {"dims": [2], "states": [{"label": "x", "matrix": matrix}]})
    report["manifest"] = {"command": "gen", "arguments": []}
    distlab.cli._write_report(report)
    out = capsys.readouterr().out
    assert out == reference_encode(report)
    assert json.loads(out, parse_constant=reject_constant)["payload"]["states"][0]["matrix"] == {
        "rows": 2, "cols": 3, "re": [None, 0.0, -0.0, None, 1.5, 0.0], "im": [0.0, None, 2.0, 0.0, 0.0, -0.0]
    }


def test_a_non_finite_number_leaves_a_finite_matrix_to_its_text(capsys, monkeypatch):
    calls = []
    to_json = distlab.linalg.matrix_to_json

    def recorded(m):
        calls.append(m)
        return to_json(m)

    monkeypatch.setattr(distlab.linalg, "matrix_to_json", recorded)
    matrix = np.array([[0.5, -0.0], [1j, -np.pi]])
    payload = {"kind": "general", "passed": False, "completeness_residual": float("nan"), "details": {"m": matrix}}
    report = report_of("verification", payload)
    report["manifest"] = {"command": "verify", "arguments": []}
    distlab.cli._write_report(report)
    out = capsys.readouterr().out
    assert out == reference_encode(report)
    assert calls == []  # the matrix was written from the array, not through its lists
    assert json.loads(out)["payload"]["completeness_residual"] is None
    assert summarize(report) == summarize(reference_report(report)) == "VERIFY general: FAIL (completeness n/a)"


def test_a_closed_stdout_is_one_error_line():
    env = dict(os.environ, PYTHONPATH=str(Path(distlab.__file__).resolve().parents[1]))
    for argv in (["gen", "--family", "gbell", "--dims", "10,10"], ["gen", "--family", "bell"]):
        read, write = os.pipe()
        os.close(read)  # the reader is gone before the report is written
        try:
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from distlab.cli import run; sys.exit(run(sys.argv[1:]))", *argv],
                env=env, stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2, argv
        assert proc.stderr == "distlab: error: cannot write the report: Broken pipe\n", argv


def test_finite_reports_are_encoded_without_the_walk(tmp_path, capsys, monkeypatch):
    def no_walk(obj):
        raise AssertionError("a finite matrix was written through its lists")

    monkeypatch.setattr(distlab.linalg, "matrix_to_json", no_walk)
    dominoes = domino_states()
    states_path = write_json(tmp_path / "domino.json", state_set_to_json(dominoes))
    povm_path = write_json(tmp_path / "proj.json", povm_to_json(Povm(dominoes.rhos, (3, 3), kind="projective")))
    for argv in (
        ["gen", "--family", "domino-ext", "--dims", "3,3"],
        ["verify", "--povm", povm_path, "--kind", "projective"],
        ["discriminate", "--states", states_path, "--povm", povm_path],
    ):
        code, report, _ = run_captured(capsys, argv)
        assert code == 0
        assert report["payload_kind"] in ("state_set", "verification", "verdict")


def _in_parallel(monkeypatch, workers):
    """Run the blocks of ``in_workers`` as on ``workers`` CPUs; return the list of the pids forked from here."""
    forked, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(distlab.linalg, "worker_count", lambda blocks: max(1, min(workers, blocks)))
    monkeypatch.setattr(os, "fork", counted)
    return forked


def _matrix(value):
    return {"rows": 1, "cols": 2, "re": [value, -0.0], "im": [0.0, 1e-300]}


LABELS = ['say "hi"\\', "\u0000\u001f\n", "ψ⊗φ — naïve ☃ \U0001d53c"]


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("count", [0, 1, 2, 3, 7])
def test_shared_encoder_prints_what_one_strict_encoding_prints(capsys, monkeypatch, workers, count):
    forked = _in_parallel(monkeypatch, workers)
    states = [{"label": LABELS[k % 3] * k, "matrix": _matrix(k / 3)} for k in range(count)]
    report = report_of("state_set", {"dims": [2], "states": states, "note": "a list, a key: [\"]"})
    report["manifest"] = {"command": "gen", "arguments": ["--family", 'q"uote'], "input_digests": {"ψ": "0"}}
    distlab.cli._write_report(report)
    assert capsys.readouterr().out == json.dumps(report, separators=(",", ":"), allow_nan=False) + "\n"
    assert forked == []  # the report is encoded in this process, whatever the CPU count


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_shared_encoder_writes_a_non_finite_entry_as_null(capsys, monkeypatch, workers):
    forked = _in_parallel(monkeypatch, workers)
    failures = [{"seed_offset": k, "check": "x", "residual": float("nan") if k == 4 else k / 7} for k in range(6)]
    report = report_of("harness", {"kinds": ["general"], "failures": failures, "passes": False})
    report["manifest"] = {"command": "fuzz", "arguments": []}
    distlab.cli._write_report(report)
    out = capsys.readouterr().out
    assert out == reference_encode(report)
    assert json.loads(out)["payload"]["failures"][4]["residual"] is None
    assert forked == []


def _bad_files(tmp_path):
    paths = {
        "s": write_json(tmp_path / "s.json", bell_pair_obj()),
        "p": write_json(tmp_path / "p.json", bell_projector_povm_obj()),
        "bad_s": str(tmp_path / "bad_s.json"),
        "bad_p": write_json(tmp_path / "bad_p.json", {**bell_projector_povm_obj(), "dims": "2,2"}),
    }
    Path(paths["bad_s"]).write_text('{"dims": [2, 2], "states": ')
    return paths


def _usage_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.startswith("distlab: error:") and "Traceback" not in captured.err
    return captured.err


def test_one_process_loads_keep_the_cli_contract(tmp_path, capsys, monkeypatch):
    forked = _in_parallel(monkeypatch, 2)  # as on two CPUs: the inputs still load in this process
    paths = _bad_files(tmp_path)
    err = _usage_error(capsys, ["discriminate", "--states", paths["bad_s"], "--povm", paths["bad_p"]])
    assert err.startswith(f"distlab: error: bad input file {paths['bad_s']}: ")
    err = _usage_error(capsys, ["discriminate", "--states", paths["s"], "--povm", paths["bad_p"]])
    assert err.startswith(f"distlab: error: bad input file {paths['bad_p']}: ")
    missing = str(tmp_path / "missing.json")
    err = _usage_error(capsys, ["discriminate", "--states", missing, "--povm", paths["bad_p"]])
    assert err.startswith(f"distlab: error: cannot read {missing}: ")

    code, report, _ = run_captured(capsys, ["discriminate", "--states", paths["s"], "--povm", paths["p"]])
    assert code == 0
    digests = report["manifest"]["input_digests"]
    assert list(digests) == [paths["s"], paths["p"]]
    for path, digest in digests.items():
        assert digest == hashlib.sha256(Path(path).read_bytes()).hexdigest()

    tree = write_json(tmp_path / "tree.json", locc1_to_json(random_locc1((2, 2), 2, seed=5)))
    argv = ["discriminate", "--states", paths["s"], "--povm", tree, "--mode", "unambiguous"]
    code, out = run(argv), capsys.readouterr().out
    assert code == 1 and json.loads(out)["payload"]["passes"] is False
    _in_parallel(monkeypatch, 1)
    assert (run(argv), capsys.readouterr().out) == (code, out)
    assert forked == []


def test_small_runs_fork_nothing(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(distlab.linalg, "worker_count", lambda blocks: max(1, min(2, blocks)))  # as on two CPUs
    monkeypatch.setattr(os, "fork", no_fork)
    states = bell_pair_file(tmp_path)
    povm = write_json(tmp_path / "p.json", bell_projector_povm_obj())
    problem = write_json(tmp_path / "q.json", bell_pair_problem())
    for argv in (
        ["fuzz", "--kinds", "general", "--trials", "5", "--seed", "1"],
        ["sdp", "--problem", problem],
        ["theorem1", "--states", states, "--new-dims", "3,3"],
        ["verify", "--povm", povm, "--kind", "projective"],
        ["gen", "--family", "bell"],
        ["gen", "--family", "gbell", "--dims", "3,3"],
        ["discriminate", "--states", states, "--povm", povm],
    ):
        assert run_captured(capsys, argv)[0] == 0, argv


def test_discriminate_loads_large_inputs_without_forking(tmp_path, capsys, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(distlab.linalg, "worker_count", lambda blocks: max(1, min(2, blocks)))  # as on two CPUs
    monkeypatch.setattr(os, "fork", no_fork)
    basis = generalized_bell_states(7)
    states = write_json(tmp_path / "s.json", state_set_to_json(basis))
    povm = write_json(tmp_path / "p.json", povm_to_json(Povm(basis.rhos, (7, 7), kind="projective")))
    assert min(os.path.getsize(states), os.path.getsize(povm)) > 1 << 20  # each over 1 MiB
    code, report, _ = run_captured(capsys, ["discriminate", "--states", states, "--povm", povm])
    assert code == 0 and report["payload"]["passes"] is True


def _killed_in_a_child(monkeypatch, module, name):
    """Make ``module.name`` SIGKILL the process that calls it, unless that is this one."""
    import signal

    parent, original = os.getpid(), getattr(module, name)

    def killed(*args, **kwargs):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, killed)
    return f"distlab: error: worker process {{}} was killed by signal {signal.SIGKILL.value} without a result\n"


def _worker_lost(capsys, argv, forked, message):
    code = run(argv)
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert len(forked) == 1 and captured.err == message.format(forked[0])


def test_a_fuzz_worker_that_dies_is_one_error_line(capsys, monkeypatch):
    forked = _in_parallel(monkeypatch, 2)
    message = _killed_in_a_child(monkeypatch, distlab.discrimination, "_sample_of_kind")
    _worker_lost(capsys, ["fuzz", "--kinds", "general,sep", "--trials", "2", "--seed", "1"], forked, message)


def test_an_unrelated_runtime_error_is_not_taken_for_a_lost_worker(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("not a worker")

    monkeypatch.setattr(distlab.discrimination, "local_global_fuzz", broken)
    with pytest.raises(RuntimeError, match="^not a worker$"):
        run(["fuzz", "--kinds", "general", "--trials", "2", "--seed", "1"])
    assert capsys.readouterr().out == ""
