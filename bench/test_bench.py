"""Tests of the benchmark's own code: output checks, span arithmetic, comparison rule.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import compare
import tracing
from workloads import (
    CheckFailed,
    Job,
    check_family,
    check_fuzz,
    check_theorem1,
    gbell_vectors,
    domino_vectors,
    run_check,
    state_set_json,
    strict_report,
)


def report(kind: str, payload: dict) -> str:
    return json.dumps({"schema_version": "1", "payload_kind": kind, "payload": payload, "manifest": {}}) + "\n"


def theorem1_report(opt: float, distinguishable: bool = False) -> str:
    return report("theorem1", {
        "opt_small": opt, "opt_big": opt, "delta": 0.0, "delta_tol": 2e-3,
        "distinguishable_small": distinguishable, "distinguishable_big": distinguishable,
        "status_small": "optimal", "status_big": "optimal",
    })


def fuzz_report(failures: list) -> str:
    return report("harness", {
        "trials": 300, "seed": 7, "kinds": ["general", "ppt"], "dims": [3, 3], "sub_dims": [2, 2],
        "failures": failures, "passes": not failures,
    })


# ---------------------------------------------------------------- output checks


def test_theorem1_check_accepts_anchor_and_rejects_bell_triple_at_070():
    assert check_theorem1(theorem1_report(2 / 3 + 3e-9), 2 / 3) == pytest.approx(3e-9)
    with pytest.raises(CheckFailed, match="anchor"):
        check_theorem1(theorem1_report(0.70), 2 / 3)


def test_theorem1_check_rejects_wrong_distinguishable_flag():
    with pytest.raises(CheckFailed, match="distinguishable"):
        check_theorem1(theorem1_report(1.0, distinguishable=False), 1.0)


def test_fuzz_check_rejects_one_failure():
    kinds = ["general", "ppt"]
    assert check_fuzz(fuzz_report([]), 300, kinds) == 0.0
    failure = {"seed_offset": 3, "kind": "ppt", "check": "ppt", "residual": -1e-3}
    with pytest.raises(CheckFailed, match="1 fuzz failures"):
        check_fuzz(fuzz_report([failure]), 300, kinds)


@pytest.mark.parametrize("vectors", [gbell_vectors(3), domino_vectors(4, 4)], ids=["gbell3", "domino-ext4"])
def test_gen_check_rejects_a_non_orthogonal_state(vectors):
    dims = (int(np.sqrt(vectors.shape[1])),) * 2
    good = state_set_json(vectors, dims)
    assert check_family(report("state_set", good), vectors, dims) == 0.0

    bad_vectors = vectors.copy()
    bad_vectors[1] = (vectors[0] + vectors[1]) / np.sqrt(2)  # pure, unit trace, overlaps state 0
    bad = state_set_json(bad_vectors, dims)
    with pytest.raises(CheckFailed, match="orthonormal"):
        check_family(report("state_set", bad), vectors, dims)


def test_gen_check_rejects_an_orthonormal_set_of_other_states():
    vectors = gbell_vectors(3)
    rotated = np.roll(np.eye(9, dtype=complex), 1, axis=1)  # computational basis, also orthonormal
    with pytest.raises(CheckFailed, match="reference family"):
        check_family(report("state_set", state_set_json(rotated, (3, 3))), vectors, (3, 3))


def test_strict_report_rejects_nan_and_extra_lines():
    with pytest.raises(CheckFailed, match="constant"):
        strict_report('{"payload": {"x": NaN}}\n')
    with pytest.raises(CheckFailed, match="one line"):
        strict_report(theorem1_report(0.5) + theorem1_report(0.5))


def test_run_check_counts_exit_codes_and_malformed_payloads():
    job = Job("t", [], lambda out: check_theorem1(out, 2 / 3))
    assert run_check(job, 0, theorem1_report(2 / 3))[0]
    assert run_check(job, 1, theorem1_report(2 / 3)) == (False, "exit code 1", 0.0)
    ok, message, _ = run_check(job, 0, report("theorem1", {"opt_small": 0.5}))
    assert not ok and "malformed" in message


# ---------------------------------------------------------------- spans


def span(name, start, end, parent, n=0):
    return [name, start, end, parent, n, 0]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cli.run", 0.0, 10.0, -1),
        span("sdp.solve", 1.0, 4.0, 0, n=30),
        span("sdp.solve", 5.0, 9.0, 0, n=10),
        span("numpy.eigh", 6.0, 7.0, 2, n=8),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 3.0, 3.0, 1.0])
    metrics = tracing.layer_metrics(spans)
    assert metrics["cli.run.self_s"] == pytest.approx(3.0)
    assert metrics["sdp.solve.calls"] == 2
    assert metrics["sdp.solve.s"] == pytest.approx(7.0)
    assert metrics["sdp.solve.self_s"] == pytest.approx(6.0)
    assert metrics["sdp.iterations"] == 40
    assert metrics["sdp.iter_s"] == pytest.approx(7.0 / 40)
    assert metrics["sdp.eig.calls"] == 1 and metrics["linalg.eig.n3"] == 8


def test_nested_spans_of_one_group_count_once():
    spans = [
        span("povm.is_projective", 0.0, 5.0, -1),
        span("povm.verify_povm", 1.0, 3.0, 0),
        span("povm.verify_povm", 6.0, 7.0, -1),
    ]
    metrics = tracing.layer_metrics(spans)
    assert metrics["povm.verify.calls"] == 2
    assert metrics["povm.verify.s"] == pytest.approx(6.0)


def test_tracer_links_parents_and_counts_work():
    tracer = tracing.Tracer()
    eig = tracer.wrap("numpy.eigvalsh", np.linalg.eigvalsh)
    outer = tracer.wrap("povm.verify_povm", lambda m: eig(np.stack([m, m])))
    outer(np.eye(3))
    names = [(s[0], s[3], s[4]) for s in tracer.spans]
    assert names == [("povm.verify_povm", -1, 0), ("numpy.eigvalsh", 0, 2 * 27)]
    assert tracer.stack == []


def test_layer_metrics_cover_every_per_layer_metric_of_the_spec():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in spec["per_layer"]]
    assert declared == list(tracing.PER_LAYER)
    filled_by_runner = {"sdp.anchor_err", "cli.bytes_in", "cli.bytes_out", "process.cpu_s", "trace.overhead_s"}
    assert set(tracing.layer_metrics([])) == set(tracing.PER_LAYER) - filled_by_runner
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {m: tracing.unit_of(m) for m in declared}


# ---------------------------------------------------------------- comparison rule


BASE = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_clear_gain_is_improved():
    head = [x * 0.8 for x in BASE]
    assert compare.verdict(BASE, head, bound=0.1) == "improved"


def test_gain_with_fewer_than_ten_pairs_or_more_failures_is_not_improved():
    head = [x * 0.8 for x in BASE]
    assert compare.verdict(BASE[:9], head[:9], bound=0.1) == "unchanged"
    assert compare.verdict(BASE, head, bound=0.1, base_failed=0, head_failed=1) == "unchanged"


def test_gain_inside_the_parent_spread_is_not_improved():
    base = [8.0, 12.0] * 5
    head = [x - 0.5 for x in base]  # wins every pair, gap 0.5 < interquartile range 4
    assert compare.verdict(base, head, bound=0.5) == "unchanged"


def test_worse_median_beyond_bound_is_regressed():
    assert compare.verdict(BASE, [x * 1.15 for x in BASE], bound=0.1) == "regressed"
    assert compare.verdict(BASE, [x * 1.05 for x in BASE], bound=0.1) == "unchanged"


def test_spread_wider_than_bound_is_unresolved():
    base = [10.0, 12.0, 8.0, 11.0, 9.0, 10.0, 12.5, 7.5, 10.0, 10.5]
    head = [x + 0.1 for x in reversed(base)]
    assert compare.verdict(base, head, bound=0.05) == "unresolved"


def test_higher_is_better_flips_the_rule():
    assert compare.verdict(BASE, [x * 1.3 for x in BASE], bound=0.1, better="higher") == "improved"
    assert compare.verdict(BASE, [x * 0.7 for x in BASE], bound=0.1, better="higher") == "regressed"
