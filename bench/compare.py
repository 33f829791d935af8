#!/usr/bin/env python3
"""Compare the benchmark results of two commits, workload by workload.

    python3 bench/compare.py pairs --base PARENT_DIR --head CHANGE_DIR --seed 500 [--pairs 10] [--workload W ...]
    python3 bench/compare.py report BASE.jsonl HEAD.jsonl

``pairs`` runs ``bench/run.py --trace 0`` in two checkouts, alternating which
side runs first in each pair; pair i uses seed SEED+i on both sides, so a
claim can be re-checked on seeds not used while the change was written.  The
records are appended to ``--base-out`` and ``--head-out`` and then reported.

``report`` pairs the records of the two sides by workload and seed and labels
every workload x end-to-end metric of BENCHMARK.json:

* improved   - the change wins at least 9/10 of the pairs (ties count for
  neither), the medians differ by more than the parent's interquartile
  range, at least ten pairs were run, and no more jobs failed than at the
  parent;
* regressed  - the change's median is worse than the parent's by more than
  the metric's bound;
* unresolved - otherwise, when either side's interquartile range exceeds
  the bound (share of the median) and not every run of the change reads
  better than every run of the parent;
* unchanged  - otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: list[float], head: list[float], bound: float, better: str = "lower",
            base_failed: int = 0, head_failed: int = 0) -> str:
    """Label one workload x metric from paired samples (base[i] and head[i] ran as pair i)."""
    if len(base) != len(head) or not base:
        raise ValueError("need the same, nonzero number of samples on both sides")
    sign = 1.0 if better == "lower" else -1.0
    b = [sign * x for x in base]
    h = [sign * x for x in head]
    mb, mh = statistics.median(b), statistics.median(h)
    q1, _, q3 = quartiles(b)
    wins = sum(1 for x, y in zip(b, h) if y < x)
    if (len(b) >= MIN_PAIRS and wins >= WIN_SHARE * len(b) and mb - mh > q3 - q1
            and head_failed <= base_failed):
        return "improved"
    scale = abs(statistics.median(base))
    if mh - mb > bound * scale:
        return "regressed"
    spread = max(q3 - q1, quartiles(h)[2] - quartiles(h)[0])
    if spread > bound * scale and not max(h) < min(b):
        return "unresolved"
    return "unchanged"


def read_records(path: str) -> dict[str, dict[int, dict]]:
    """workload -> seed -> first untraced record with that seed."""
    out: dict[str, dict[int, dict]] = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            m = rec["manifest"]
            if not m["trace"]:
                out.setdefault(m["workload"], {}).setdefault(m["seed"], rec)
    return out


def report(base_path: str, head_path: str, spec: dict) -> list[dict]:
    base, head = read_records(base_path), read_records(head_path)
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        seeds = sorted(set(base.get(workload, {})) & set(head.get(workload, {})))
        if not seeds:
            continue
        b_recs = [base[workload][s] for s in seeds]
        h_recs = [head[workload][s] for s in seeds]
        b_failed = sum(len(r["failures"]) for r in b_recs)
        h_failed = sum(len(r["failures"]) for r in h_recs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in b_recs]
            h = [r["metrics"][name] for r in h_recs]
            sign = 1.0 if metric["better"] == "lower" else -1.0
            rows.append({
                "workload": workload,
                "metric": name,
                "unit": metric["unit"],
                "pairs": len(seeds),
                "base": quartiles(b),
                "head": quartiles(h),
                "wins": sum(1 for x, y in zip(b, h) if sign * y < sign * x),
                "failed": (b_failed, h_failed),
                "verdict": verdict(b, h, metric["bound"], metric["better"], b_failed, h_failed),
            })
    return rows


def print_rows(rows: list[dict]) -> None:
    print(f"{'workload':18s} {'metric':12s} {'n':>3s}  {'parent median [q1, q3]':32s} "
          f"{'change median [q1, q3]':32s} {'wins':>5s} {'failed':>7s}  verdict")
    for r in rows:
        def fmt(q):
            return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}] {r['unit']}"
        print(f"{r['workload']:18s} {r['metric']:12s} {r['pairs']:3d}  {fmt(r['base']):32s} {fmt(r['head']):32s} "
              f"{r['wins']:2d}/{r['pairs']:<2d} {r['failed'][0]:3d}/{r['failed'][1]:<3d}  {r['verdict']}")


def run_pairs(args, spec: dict) -> None:
    sides = {"base": Path(args.base).resolve(), "head": Path(args.head).resolve()}
    outs = {"base": str(Path(args.base_out).resolve()), "head": str(Path(args.head_out).resolve())}
    seconds = str(args.seconds or spec["run_seconds"])
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    for i in range(args.pairs):
        order = ("base", "head") if i % 2 == 0 else ("head", "base")
        for workload in workloads:
            for side in order:
                cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(args.seed + i),
                       "--seconds", seconds, "--trace", "0", "--out", outs[side]]
                print(f"pair {i} {side}: {workload} seed {args.seed + i}", file=sys.stderr)
                subprocess.run(cmd, cwd=sides[side], stdout=subprocess.DEVNULL, check=False)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="run alternating pairs in two checkouts, then report")
    p.add_argument("--base", required=True, help="checkout of the parent commit")
    p.add_argument("--head", required=True, help="checkout of the change")
    p.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--workload", action="append", help="repeat to pick workloads (default: all)")
    p.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--base-out", default=str(ROOT / ".bench_work" / "compare-base.jsonl"))
    p.add_argument("--head-out", default=str(ROOT / ".bench_work" / "compare-head.jsonl"))
    p = sub.add_parser("report", help="label each workload x metric from two result files")
    p.add_argument("base_results")
    p.add_argument("head_results")
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.command == "pairs":
        Path(args.base_out).parent.mkdir(parents=True, exist_ok=True)
        run_pairs(args, spec)
        rows = report(args.base_out, args.head_out, spec)
    else:
        rows = report(args.base_results, args.head_results, spec)
    print_rows(rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
