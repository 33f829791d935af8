#!/usr/bin/env python3
"""Traced in-process replay of benchmark jobs, and the per-layer metrics of its spans.

    python3 bench/tracing.py SPEC.json

SPEC names the jobs' argument lists, one stdout file per job, whether to
trace, and where to write the spans and the result.  The replay runs every
job through ``distlab.cli.run`` in this one process.  With tracing on, each
public function listed in WRAPPED, and numpy's ``eigh``/``eigvalsh``, is
replaced by a wrapper under every name its callers look it up by; the
wrapper records a span (name, start, end, parent span, a work count) in
memory, and the spans are written out as JSON lines when the replay ends.
Nothing under ``src/`` is modified: the layers are measured from outside.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

# module -> public functions whose calls become spans named "<module>.<function>"
WRAPPED = {
    "distlab.linalg": ("partial_transpose", "embed_matrix", "restrict_matrix", "matrix_to_json", "matrix_from_json"),
    "distlab.sdp": ("solve",),
    "distlab.povm": (
        "random_povm", "random_ppt_povm", "random_sep_povm", "random_locc1",
        "verify_povm", "is_projective", "ppt_min_eigenvalue", "verify_sep", "verify_locc1",
        "restrict_povm", "restrict_locc1", "flatten_locc1",
        "povm_to_json", "povm_from_json", "locc1_to_json", "locc1_from_json",
    ),
    "distlab.discrimination": ("hit_table", "theorem1_trace_identity", "local_global_fuzz"),
    "distlab.states": (
        "generalized_bell_states", "bell_states", "domino_states", "extended_domino_basis",
        "embed_set", "state_set_to_json", "state_set_from_json",
    ),
    "distlab.cli": ("run",),
}
EIGEN = ("eigh", "eigvalsh")


def _n3(a) -> int:
    """Sum of side^3 over the matrices of a (possibly stacked) eigen problem."""
    shape = np.shape(a)
    return int(np.prod(shape[:-2], dtype=np.int64)) * int(shape[-1]) ** 3


# work counted per span from (args, kwargs, result)
COUNTS = {
    "numpy.eigh": lambda a, k, r: _n3(a[0]),
    "numpy.eigvalsh": lambda a, k, r: _n3(a[0]),
    "sdp.solve": lambda a, k, r: r.iterations,
    "discrimination.hit_table": lambda a, k, r: r.size,
    "discrimination.local_global_fuzz": lambda a, k, r: r.trials * len(r.kinds),
}

# metric group -> span names; a group's calls and inclusive time count only
# its outermost spans, so a grouped function calling another is not counted twice
GROUPS = {
    "sdp.solve": {"sdp.solve"},
    "linalg.eig": {"numpy.eigh", "numpy.eigvalsh"},
    "linalg.partial_transpose": {"linalg.partial_transpose"},
    "linalg.embed_matrix": {"linalg.embed_matrix"},
    "linalg.restrict_matrix": {"linalg.restrict_matrix"},
    "linalg.json": {"linalg.matrix_to_json", "linalg.matrix_from_json"},
    "povm.sample": {"povm.random_povm", "povm.random_ppt_povm", "povm.random_sep_povm", "povm.random_locc1"},
    "povm.verify": {
        "povm.verify_povm", "povm.is_projective", "povm.ppt_min_eigenvalue", "povm.verify_sep", "povm.verify_locc1",
    },
    "povm.restrict": {"povm.restrict_povm", "povm.restrict_locc1", "povm.flatten_locc1"},
    "povm.json": {"povm.povm_to_json", "povm.povm_from_json", "povm.locc1_to_json", "povm.locc1_from_json"},
    "discrimination.hit_table": {"discrimination.hit_table"},
    "discrimination.trace_identity": {"discrimination.theorem1_trace_identity"},
    "discrimination.fuzz": {"discrimination.local_global_fuzz"},
    "states.build": {
        "states.generalized_bell_states", "states.bell_states", "states.domino_states",
        "states.extended_domino_basis", "states.embed_set",
    },
    "states.embed_set": {"states.embed_set"},
    "states.json": {"states.state_set_to_json", "states.state_set_from_json"},
    "cli.run": {"cli.run"},
}

# per-layer metrics in report order; the last four are filled in by run.py
PER_LAYER = (
    "sdp.solve.calls", "sdp.solve.s", "sdp.solve.self_s", "sdp.iterations", "sdp.iter_s",
    "sdp.eig.calls", "sdp.eig.s", "sdp.anchor_err",
    "linalg.eig.calls", "linalg.eig.s", "linalg.eig.n3",
    "linalg.partial_transpose.calls", "linalg.partial_transpose.s",
    "linalg.embed_matrix.calls", "linalg.embed_matrix.s",
    "linalg.restrict_matrix.calls", "linalg.restrict_matrix.s",
    "linalg.json.calls", "linalg.json.s",
    "povm.sample.calls", "povm.sample.s", "povm.verify.calls", "povm.verify.s",
    "povm.restrict.calls", "povm.restrict.s", "povm.json.s",
    "discrimination.hit_table.calls", "discrimination.hit_table.pairs", "discrimination.hit_table.s",
    "discrimination.trace_identity.calls", "discrimination.trace_identity.s",
    "discrimination.fuzz_trial_s", "discrimination.fuzz.self_s",
    "states.build.s", "states.embed_set.calls", "states.json.s",
    "cli.run.calls", "cli.run.self_s", "cli.bytes_in", "cli.bytes_out",
    "process.cpu_s", "trace.overhead_s",
)


def unit_of(metric: str) -> str:
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.startswith("cli.bytes"):
        return "B"
    if metric == "sdp.anchor_err":
        return "prob"
    return "count"


# ---------------------------------------------------------------- recording


class Tracer:
    """In-memory span log.  A span is [name, start, end, parent index, work count, job index].

    A span's slot is taken when the call starts, so a parent always has a
    smaller index than its children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = -1

    def wrap(self, name: str, fn):
        spans, stack, clock, count = self.spans, self.stack, time.perf_counter, COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, 0, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every wrapped function wherever a distlab module looks it up, and numpy's eigensolvers."""
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for fname in names:
                original = getattr(module, fname, None)
                if original is None:
                    continue
                traced = self.wrap(f"{module_name.split('.')[-1]}.{fname}", original)
                for loaded in [m for n, m in sys.modules.items() if n == "distlab" or n.startswith("distlab.")]:
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, traced)
        for fname in EIGEN:
            setattr(np.linalg, fname, self.wrap(f"numpy.{fname}", getattr(np.linalg, fname)))

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, n, job) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "n": n, "job": job}) + "\n")


def read_spans(path) -> list[list]:
    with open(path) as fh:
        rows = [json.loads(line) for line in fh]
    return [[r["name"], r["start"], r["end"], r["parent"], r["n"], r["job"]] for r in rows]


# ---------------------------------------------------------------- analysis


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct child spans cover."""
    covered = [0.0] * len(spans)
    for _name, start, end, parent, _n, _job in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - c for (_name, start, end, *_), c in zip(spans, covered)]


def ancestor_names(spans: list[list]) -> list[frozenset]:
    """Names of every span enclosing each span."""
    out: list[frozenset] = []
    below: dict[int, frozenset] = {}
    for _name, _start, _end, parent, _n, _job in spans:
        if parent < 0:
            out.append(frozenset())
            continue
        if parent not in below:
            below[parent] = out[parent] | {spans[parent][0]}
        out.append(below[parent])
    return out


@dataclass
class GroupStats:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    n: int = 0


def group_stats(spans: list[list], ancestors: list[frozenset]) -> dict[str, GroupStats]:
    selfs = self_times(spans)
    stats = {group: GroupStats() for group in GROUPS}
    for i, (name, start, end, _parent, n, _job) in enumerate(spans):
        for group, members in GROUPS.items():
            if name not in members:
                continue
            g = stats[group]
            g.self_s += selfs[i]
            g.n += n
            if not ancestors[i] & members:
                g.calls += 1
                g.s += end - start
    return stats


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Every span-derived per-layer metric (all of PER_LAYER except those run.py measures)."""
    ancestors = ancestor_names(spans)
    g = group_stats(spans, ancestors)
    sdp_eig = [end - start for (name, start, end, *_), anc in zip(spans, ancestors)
               if name in GROUPS["linalg.eig"] and "sdp.solve" in anc]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    return {
        "sdp.solve.calls": g["sdp.solve"].calls,
        "sdp.solve.s": g["sdp.solve"].s,
        "sdp.solve.self_s": g["sdp.solve"].self_s,
        "sdp.iterations": g["sdp.solve"].n,
        "sdp.iter_s": ratio(g["sdp.solve"].s, g["sdp.solve"].n),
        "sdp.eig.calls": len(sdp_eig),
        "sdp.eig.s": sum(sdp_eig),
        "linalg.eig.calls": g["linalg.eig"].calls,
        "linalg.eig.s": g["linalg.eig"].s,
        "linalg.eig.n3": g["linalg.eig"].n,
        "linalg.partial_transpose.calls": g["linalg.partial_transpose"].calls,
        "linalg.partial_transpose.s": g["linalg.partial_transpose"].s,
        "linalg.embed_matrix.calls": g["linalg.embed_matrix"].calls,
        "linalg.embed_matrix.s": g["linalg.embed_matrix"].s,
        "linalg.restrict_matrix.calls": g["linalg.restrict_matrix"].calls,
        "linalg.restrict_matrix.s": g["linalg.restrict_matrix"].s,
        "linalg.json.calls": g["linalg.json"].calls,
        "linalg.json.s": g["linalg.json"].s,
        "povm.sample.calls": g["povm.sample"].calls,
        "povm.sample.s": g["povm.sample"].s,
        "povm.verify.calls": g["povm.verify"].calls,
        "povm.verify.s": g["povm.verify"].s,
        "povm.restrict.calls": g["povm.restrict"].calls,
        "povm.restrict.s": g["povm.restrict"].s,
        "povm.json.s": g["povm.json"].s,
        "discrimination.hit_table.calls": g["discrimination.hit_table"].calls,
        "discrimination.hit_table.pairs": g["discrimination.hit_table"].n,
        "discrimination.hit_table.s": g["discrimination.hit_table"].s,
        "discrimination.trace_identity.calls": g["discrimination.trace_identity"].calls,
        "discrimination.trace_identity.s": g["discrimination.trace_identity"].s,
        "discrimination.fuzz_trial_s": ratio(g["discrimination.fuzz"].s, g["discrimination.fuzz"].n),
        "discrimination.fuzz.self_s": g["discrimination.fuzz"].self_s,
        "states.build.s": g["states.build"].s,
        "states.embed_set.calls": g["states.embed_set"].calls,
        "states.json.s": g["states.json"].s,
        "cli.run.calls": g["cli.run"].calls,
        "cli.run.self_s": g["cli.run"].self_s,
    }


# ---------------------------------------------------------------- replay


def replay(spec: dict) -> dict:
    from distlab import cli

    tracer = Tracer() if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    walls, codes = [], []
    for i, (argv, stdout) in enumerate(zip(spec["jobs"], spec["stdout"])):
        if tracer is not None:
            tracer.job = i
        with open(stdout, "w") as out, contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            try:
                code = cli.run(argv)
            except Exception:  # a crashing job is a failed check, as in a subprocess
                traceback.print_exc(file=sys.__stderr__)
                code = 1
            walls.append(time.perf_counter() - start)
        codes.append(code)
    if tracer is not None:
        tracer.write(spec["spans"])
    return {"wall_s": walls, "codes": codes}


if __name__ == "__main__":
    with open(sys.argv[1]) as fh:
        job_spec = json.load(fh)
    result = replay(job_spec)
    with open(job_spec["result"], "w") as fh:
        json.dump(result, fh)
