#!/usr/bin/env python3
"""Benchmark of the cryoforge data engine.

Run one workload (prints a human summary, then one JSON result line):

    python3 perfbench/run.py --workload tomo_accept --seed 1 --seconds 20 --trace 0

Compare two run logs, per workload and end-to-end metric:

    python3 perfbench/run.py --compare base.ndjson [--against perfbench/results/runs.ndjson]

A workload runs in a child process (bench.py) whose BLAS/OpenMP thread
caps are set to at most the CPU count; this process only relays the
child's report, so a child that fails or overruns leaves no result line
and a non-zero exit code. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_LOG = HERE / "results" / "runs.ndjson"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 175  # the whole run must end within 180 s
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def child_env() -> dict[str, str]:
    """This environment with every thread cap at most the CPU count."""
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            cap = min(nproc, int(env.get(var, nproc)))
        except ValueError:
            cap = nproc
        env[var] = str(max(cap, 1))
    return env


def _is_result(line: str) -> bool:
    try:
        return set(json.loads(line)) == RESULT_KEYS
    except (ValueError, TypeError):
        return False


def run_workload(args) -> int:
    cmd = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--log", str(args.log),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not _is_result(lines[-1]):
        sys.stderr.write(proc.stdout)
        print(f"error: benchmark child exited with code {proc.returncode}", file=sys.stderr)
        return proc.returncode or 1
    sys.stdout.write(proc.stdout)
    return 0


# -- compare mode --------------------------------------------------------------


def _load(path: Path) -> dict[str, list[dict]]:
    """Untraced run records of a log, by workload."""
    by_workload: dict[str, list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if rec["trace"] == 0:
                by_workload.setdefault(rec["workload"], []).append(rec)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _env_line(records: list[dict]) -> str:
    keys = ("git_rev", "nproc", "numpy", "scipy")
    parts = [
        f"{k}={','.join(sorted({str(r['env'][k])[:12] for r in records}))}" for k in keys
    ]
    caps = sorted({json.dumps(r["env"]["thread_caps"], sort_keys=True) for r in records})
    return " ".join(parts) + f" thread_caps={';'.join(caps)}"


def compare(base_path: Path, new_path: Path, spec: dict) -> int:
    base, new = _load(base_path), _load(new_path)
    for workload in (w["name"] for w in spec["workloads"]):
        b, n = base.get(workload, []), new.get(workload, [])
        print(f"== {workload}: {len(b)} base runs, {len(n)} new runs")
        if not b or not n:
            continue
        print(f"   base {_env_line(b)}")
        print(f"   new  {_env_line(n)}")
        print(f"   {'metric':<14} {'base median [q1, q3]':>30} {'new median [q1, q3]':>30} "
              f"{'delta':>8}  status")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            bv = [r["metrics"][name] for r in b]
            nv = [r["metrics"][name] for r in n]
            (bq1, bmed, bq3), (nq1, nmed, nq3) = quartiles(bv), quartiles(nv)
            sign = 1.0 if metric["better"] == "lower" else -1.0
            worse = sign * (nmed - bmed) / bmed
            spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
            all_better = all(sign * (x - y) < 0 for x in nv for y in bv)
            if spread > bound and not all_better:
                status = f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
            elif worse > bound:
                status = f"regressed (> bound {bound:.0%})"
            elif worse < -bound or all_better:
                status = "improved"
            else:
                status = "within bound"
            print(f"   {name:<14} {bmed:>12.4g} [{bq1:.4g}, {bq3:.4g}] "
                  f"{nmed:>12.4g} [{nq1:.4g}, {nq3:.4g}] {(nmed - bmed) / bmed:>+8.1%}  {status}")
        for key in sorted({k for r in b + n for k in r["quality"]}):
            bq = [r["quality"][key] for r in b if key in r["quality"]]
            nq = [r["quality"][key] for r in n if key in r["quality"]]
            if bq and nq:
                print(f"   quality {key:<22} base {statistics.median(bq):.4g}  "
                      f"new {statistics.median(nq):.4g}  (no bound)")
    return 0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="cryoforge benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=Path, default=DEFAULT_LOG,
                        help="run log to append to (default %(default)s)")
    parser.add_argument("--compare", type=Path, metavar="BASE",
                        help="compare the run log BASE with --against")
    parser.add_argument("--against", type=Path, default=DEFAULT_LOG, metavar="NEW")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(args.compare, args.against, spec)
    if not args.workload:
        parser.error("--workload or --compare is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
