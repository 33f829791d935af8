#!/usr/bin/env python3
"""Run one workload of the distlab benchmark and print its metrics.

    python3 bench/run.py --workload ppt-sdp --seed 1 --seconds 30 --trace 0

Each job is a whole ``distlab`` CLI run in a fresh interpreter, started with
``src`` on PYTHONPATH and one BLAS thread.  One client runs the workload's
job list back to back (a closed loop), pass after pass; ``--seconds`` fixes
the number of passes through the workload's nominal pass time, so the
sample count does not depend on the speed of the code under test.  Before
every job two more fresh interpreters are timed: one that imports
``distlab.cli`` and one that imports only numpy, the speed reference.
Every job's stdout is checked against a reference built by the
benchmark itself (see workloads.py).

With ``--trace 0`` the last stdout line reports the end-to-end metrics:

* ``wall_s``: the sum over jobs of each job's median over the passes of
  its wall time (launch to exit) divided by the reference time taken
  just before it, times REFERENCE_S.
* ``setup_s``: the median over the run of the wall time of an interpreter
  that imports distlab.cli, divided by the reference time taken next to
  it, times REFERENCE_S.
* ``peak_rss_mb``: the largest per-job median of max RSS.

The times are scaled because co-tenant load on a shared machine changes
the speed of every process by a third or more for minutes at a time; dividing
by an interpreter that only imports numpy, timed in the same moment,
cancels that while keeping every change to distlab's own work.  The
unscaled sums are kept in the run record.

With ``--trace 1`` it reports the per-layer metrics of one pass replayed
in-process under tracing (see tracing.py).  The full record of the run,
with its manifest, is appended to ``--out``.  The exit code is 0 when every
output checks out, 1 when one does not, and 2 when the benchmark cannot
run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracing import PER_LAYER, layer_metrics, read_spans, unit_of
from workloads import WORKLOADS, Job, build_jobs, run_check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
LAUNCH = "import sys; from distlab.cli import run; sys.exit(run(sys.argv[1:]))"
# The speed reference: an interpreter that only imports numpy, which no commit of
# distlab changes, timed right before every job.  REFERENCE_S is its median wall
# time on the machine the benchmark was built on (2-vCPU Xeon VM, quiet), so
# scaled times read as seconds on that machine.
REFERENCE = "numpy"
REFERENCE_S = 0.11
# Seed-commit time of one pass (jobs, import samples and checks) on the build
# machine in a quiet stretch; it turns --seconds into a pass count.
PASS_SECONDS = {"ppt-sdp": 10.0, "restriction-fuzz": 5.5, "report-io": 12.0}
JOB_TIMEOUT_S = 150.0
EPOCH = "1700000000"


@dataclass
class Finished:
    code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def child_env(workdir: Path) -> dict:
    env = dict(os.environ)
    for name in ("DISTLAB_TOL", "DISTLAB_TRACE"):
        env.pop(name, None)
    env.update(THREADS)
    env.update(PYTHONPATH=str(SRC), SOURCE_DATE_EPOCH=EPOCH, PYTHONHASHSEED="0", TMPDIR=str(workdir))
    return env


def spawn(args: list[str], env: dict, stdout: Path, stderr: Path) -> Finished:
    """Run ``python <args>`` to completion; wall time spans launch to reaped exit.

    A child still running after JOB_TIMEOUT_S is killed and reported with
    its signal as a negative exit code.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), flags, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        poller = select.poll()
        poller.register(pidfd, select.POLLIN)
        if not poller.poll(JOB_TIMEOUT_S * 1000):
            signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - start
    return Finished(os.waitstatus_to_exitcode(status), wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def import_wall(module: str, env: dict, workdir: Path) -> float:
    """Wall time of a fresh interpreter that imports ``module`` and exits."""
    err = workdir / "import.err"
    fin = spawn(["-c", f"import {module}"], env, workdir / "import.out", err)
    if fin.code != 0:
        raise RuntimeError(f"cannot import {module}: {err.read_text().strip()[-400:]}")
    return fin.wall_s


class JobLog:
    """Per-job samples and check outcomes across the passes of one run.

    Before every job the log times an interpreter importing distlab.cli
    (``setup_s``) and one importing only the reference (``ref_s``, kept per
    job in ``refs``).
    """

    def __init__(self, jobs: list[Job]):
        self.jobs = jobs
        self.samples = {job.name: [] for job in jobs}
        self.refs = {job.name: [] for job in jobs}
        self.failures: list[dict] = []
        self.anchor_err = 0.0
        self.attempted = 0
        self.setup_s: list[float] = []
        self.ref_s: list[float] = []
        self.replay_walls: dict = {}

    def check(self, job: Job, code: int, stdout: str, stage: str) -> None:
        ok, message, err = run_check(job, code, stdout)
        self.attempted += 1
        self.anchor_err = max(self.anchor_err, err)
        if not ok:
            self.failures.append({"job": job.name, "stage": stage, "error": message})
            print(f"CHECK FAILED [{stage}] {job.name}: {message}", file=sys.stderr)

    def run_pass(self, env: dict, workdir: Path, stage: str) -> None:
        for job in self.jobs:
            self.setup_s.append(import_wall("distlab.cli", env, workdir))
            self.ref_s.append(import_wall(REFERENCE, env, workdir))
            out, err = workdir / f"{job.name}.out", workdir / f"{job.name}.err"
            fin = spawn(["-c", LAUNCH, *job.argv], env, out, err)
            self.samples[job.name].append(fin)
            self.refs[job.name].append(self.ref_s[-1])
            self.check(job, fin.code, out.read_text(), stage)

    def per_job(self, field: str, stat) -> list[float]:
        return [stat([getattr(f, field) for f in runs]) for runs in self.samples.values()]

    def scaled_wall(self) -> float:
        """Sum over jobs of the median over passes of wall time per reference time, in REFERENCE_S units."""
        return REFERENCE_S * sum(
            statistics.median(f.wall_s / r for f, r in zip(self.samples[name], self.refs[name]))
            for name in self.samples
        )

    def scaled_setup(self) -> float:
        return REFERENCE_S * statistics.median(s / r for s, r in zip(self.setup_s, self.ref_s))

    def record(self) -> list[dict]:
        return [
            {
                "job": job.name,
                "argv": job.argv,
                "wall_s": [f.wall_s for f in self.samples[job.name]],
                "cpu_s": [f.cpu_s for f in self.samples[job.name]],
                "maxrss_mb": [f.maxrss_mb for f in self.samples[job.name]],
                "exit": [f.code for f in self.samples[job.name]],
                "ref_s": self.refs[job.name],
            }
            for job in self.jobs
        ]


def timed_run(log: JobLog, env: dict, workdir: Path, passes: int) -> dict:
    for i in range(passes):
        log.run_pass(env, workdir, f"pass{i}")
    return {
        "wall_s": log.scaled_wall(),
        "setup_s": log.scaled_setup(),
        "peak_rss_mb": max(log.per_job("maxrss_mb", statistics.median)),
    }


def replay(log: JobLog, env: dict, workdir: Path, trace: bool, spans: Path) -> list[float]:
    """Run every job once through distlab.cli.run in one fresh process; returns the job walls."""
    jobs = log.jobs
    spec = workdir / f"replay{int(trace)}.json"
    result = workdir / f"replay{int(trace)}.result.json"
    outputs = [str(workdir / f"{job.name}.replay{int(trace)}.out") for job in jobs]
    spec.write_text(json.dumps({
        "jobs": [job.argv for job in jobs],
        "stdout": outputs,
        "trace": trace,
        "spans": str(spans),
        "result": str(result),
    }))
    fin = spawn([str(BENCH / "tracing.py"), str(spec)], env, workdir / "replay.out", workdir / "replay.err")
    if fin.code != 0:
        raise RuntimeError(f"replay failed: {(workdir / 'replay.err').read_text().strip()[-400:]}")
    replayed = json.loads(result.read_text())
    for job, path, code in zip(jobs, outputs, replayed["codes"]):
        log.check(job, code, Path(path).read_text(), "traced" if trace else "replay")
    return replayed["wall_s"]


def traced_run(log: JobLog, env: dict, workdir: Path, spans: Path) -> dict:
    """One timed subprocess pass, then an untraced and a traced in-process replay of the same jobs."""
    log.run_pass(env, workdir, "pass0")
    plain = replay(log, env, workdir, False, spans)
    traced = replay(log, env, workdir, True, spans)
    log.replay_walls = {"untraced": plain, "traced": traced}
    metrics = layer_metrics(read_spans(spans))
    metrics["sdp.anchor_err"] = log.anchor_err
    metrics["cli.bytes_in"] = float(sum(os.path.getsize(p) for job in log.jobs for p in job.inputs))
    metrics["cli.bytes_out"] = float(
        sum(os.path.getsize(workdir / f"{job.name}.replay1.out") for job in log.jobs)
    )
    metrics["process.cpu_s"] = sum(log.per_job("cpu_s", statistics.median))
    metrics["trace.overhead_s"] = sum(traced) - sum(plain)
    return {name: metrics[name] for name in PER_LAYER}


def git_commit(root: Path) -> str:
    """HEAD of the repository holding the benchmark, read without running git."""
    head_file = root / ".git" / "HEAD"
    if not head_file.is_file():
        return "unknown"
    head = head_file.read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def blas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return f"{deps['blas']['name']} {deps['blas']['version']}"
    except (TypeError, KeyError):
        return "unknown"


def manifest(args, digests: dict, load_before) -> dict:
    return {
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": THREADS,
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_sha256": digests,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(WORK / "results.jsonl"), help="JSON-lines file the run record is appended to")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio",
         "unscaled wall_s": "s", "unscaled setup_s": "s", "unscaled ref_s": "s"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "distlab" / "cli.py").is_file():
        print(f"bench: no distlab sources under {SRC}", file=sys.stderr)
        return 2
    load_before = os.getloadavg()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spans = WORK / f"spans-{args.workload}-{args.seed}.jsonl"
    env = child_env(workdir)
    try:
        jobs, digests = build_jobs(args.workload, args.seed, str(workdir))
        log = JobLog(jobs)
        start = time.perf_counter()
        import_wall("distlab.cli", env, workdir)  # warms the file cache and writes bytecode; not reported
        if args.trace:
            metrics = traced_run(log, env, workdir, spans)
        else:
            metrics = timed_run(log, env, workdir, max(1, int(args.seconds // PASS_SECONDS[args.workload])))
        elapsed = time.perf_counter() - start
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(log.failures)
    error_rate = failed / log.attempted
    record = {
        "manifest": manifest(args, digests, load_before),
        "metrics": metrics,
        "error_rate": error_rate,
        "attempted": log.attempted,
        "failures": log.failures,
        "setup_s_samples": log.setup_s,
        "ref_s_samples": log.ref_s,
        "unscaled": {
            "wall_s": sum(log.per_job("wall_s", statistics.median)),
            "setup_s": statistics.median(log.setup_s),
            "ref_s": statistics.median(log.ref_s),
        },
        "elapsed_s": elapsed,
        "jobs": log.record(),
        "replay_wall_s": log.replay_walls,
    }
    with open(args.out, "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {log.attempted} jobs attempted, {failed} failed")
    shown = metrics if args.trace else dict(
        metrics, error_rate=error_rate, **{f"unscaled {k}": v for k, v in record["unscaled"].items()}
    )
    for name, value in shown.items():
        print(f"  {name:32s} {value:.6g} {UNITS.get(name) or unit_of(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": log.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS.get(name) or unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
