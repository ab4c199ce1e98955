"""Benchmark child process: one workload as a closed loop, one result line.

run.py starts this with the BLAS/OpenMP thread caps in its environment.
It imports cryoforge from the checkout's ``src`` only, sets the workload
up, then runs ops back to back, one caller and one process, until
``--seconds`` have passed, then sets up again (setup_s is the median of
all set-ups). After each op, outside its timing, the outputs are checked;
an op that raises or fails a check counts as failed. With ``--trace 1`` a second loop of the
same length runs with the layer wrappers installed.

The last stdout line is the JSON result; the lines before it are a human
summary. Every run is also appended to results/runs.ndjson (for compare
mode), and a traced run writes its spans to results/spans-*.ndjson.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cryoforge  # noqa: E402

if Path(cryoforge.__file__).resolve().parent != (SRC / "cryoforge").resolve():
    raise SystemExit(f"cryoforge must come from {SRC}, not {cryoforge.__file__}")

from layers import Tracer, layer_metrics  # noqa: E402
from run import THREAD_VARS, quartiles  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Set-ups run before and again after the untraced ops, each time until both
# limits are met; setup_s is the median of all. A shared machine's speed
# drifts over seconds, so two windows apart give a steadier median than one.
SETUP_MIN_REPEATS, SETUP_MIN_SECONDS = 2, 0.5
PIPELINE_STAGES = (
    "densify", "place", "compose", "project", "align",
    "refine_axis", "reconstruct", "extract", "noise",
)
# quality key -> per-layer metric name
QUALITY_METRICS = {
    "align_rms_x_px": "quality.align_rms_x_px",
    "uncorrected_rms_x_px": "quality.uncorrected_rms_x_px",
    "tomo_corr": "quality.tomo_corr",
    "class_acc": "quality.class_acc",
    "snr_err": "quality.snr_err",
    "axis_err_deg": "tiltalign.axis_err_deg",
    "voxel_size_mismatch": "cli.voxel_size_mismatch",
}


class Refs:
    """Fingerprints of the first op per (workload, seed, program version).

    Kept on disk so that later runs at the same seed are checked against
    the first one, not only against ops of their own run.
    """

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def compare(self, fingerprint: dict) -> list[str]:
        ref = self.data.get(self.key)
        if ref is None:
            self.data[self.key] = fingerprint
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.data, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
            return []
        problems = []
        for name, value in fingerprint.items():
            want = ref.get(name)
            same = (
                want is not None and math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-12)
                if isinstance(value, float)
                else value == want
            )
            if not same:
                problems.append(f"{name} {value!r} differs from the first run's {want!r}")
        return problems


@dataclass
class Loop:
    walls: list[float] = field(default_factory=list)
    failed: int = 0
    quality: dict | None = None
    stages: dict = field(default_factory=lambda: defaultdict(list))


def time_setups(workload) -> list[float]:
    times: list[float] = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS:
        t0 = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - t0)
    return times


def run_loop(workload, seconds: float, refs: Refs, tracer: Tracer | None) -> Loop:
    """Ops back to back until ``seconds`` have passed (at least one op)."""
    loop = Loop()
    started = time.perf_counter()
    while not loop.walls or time.perf_counter() - started < seconds:
        workload.clear()
        try:
            if tracer is not None:
                tracer.op = len(loop.walls)
                tracer.install()
            t0 = time.perf_counter()
            try:
                workload.op()
            finally:
                loop.walls.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.remove()
            problems = refs.compare(workload.check())
            if loop.quality is None:
                loop.quality = workload.quality()
            if tracer is not None:
                for stage, elapsed in workload.provenance().items():
                    loop.stages[stage].append(elapsed)
        except Exception:  # an op's failure is counted, and the loop goes on
            traceback.print_exc()
            problems = ["op raised"]
        if problems:
            loop.failed += 1
            print(f"op {len(loop.walls)} failed: {'; '.join(problems)}", file=sys.stderr)
    return loop


def source_digest() -> str:
    """Digest of the program and of the benchmark code that makes its inputs."""
    h = hashlib.sha256()
    for path in sorted((SRC / "cryoforge").glob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    return {
        "git_rev": git_rev(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def summary_lines(args, attempted, failed, setup_times, untraced: Loop, peak_rss_mb, layer):
    q1, med, q3 = quartiles(untraced.walls)
    lines = [
        f"# {args.workload} seed {args.seed}: {attempted} ops attempted, {failed} failed "
        f"({failed / attempted:.0%})",
        f"#   run_s        {med:.4f} s  (median of {len(untraced.walls)} ops, "
        f"quartiles {q1:.4f} .. {q3:.4f})",
        f"#   setup_s      {statistics.median(setup_times):.4f} s  "
        f"(median of {len(setup_times)} set-ups)",
        f"#   peak_rss_mb  {peak_rss_mb:.1f} MB",
    ]
    quality = untraced.quality or {}
    for key in QUALITY_METRICS:
        value = f"{quality[key]:.4f}" if key in quality else "n/a"
        lines.append(f"#   {key:<22} {value}")
    if layer is not None:
        lines.append(
            f"#   tracing overhead {layer['trace.overhead_s']:+.4f} s per op, "
            f"uncovered share {layer['trace.uncovered_share']:.3f}"
        )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--log", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = args.log.parent
    results.mkdir(parents=True, exist_ok=True)
    work = results / f"work-{args.workload}-{os.getpid()}"
    env = environment()
    refs = Refs(
        results / "refs.json",
        f"{args.workload}:{args.seed}:{env['source_digest']}:{env['numpy']}:{env['scipy']}",
    )
    workload = WORKLOADS[args.workload](args.seed, work)
    tracer = Tracer() if args.trace else None
    try:
        setup_times = time_setups(workload)
        untraced = run_loop(workload, args.seconds, refs, None)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        setup_times += time_setups(workload)
        traced = run_loop(workload, args.seconds, refs, tracer) if tracer else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    end_to_end = {
        "run_s": statistics.median(untraced.walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    quality = untraced.quality or {}
    layer = None
    if traced is not None:
        layer = layer_metrics(tracer, traced.walls)
        layer["trace.overhead_s"] = statistics.median(traced.walls) - end_to_end["run_s"]
        for stage in PIPELINE_STAGES:
            elapsed = traced.stages.get(stage)
            layer[f"pipeline.{stage}.elapsed_s"] = statistics.mean(elapsed) if elapsed else 0.0
        for key, name in QUALITY_METRICS.items():
            layer[name] = quality.get(key, 0.0)
        tracer.write(results / f"spans-{args.workload}-s{args.seed}.ndjson")
        values, listed = layer, spec["per_layer"]
    else:
        values, listed = end_to_end, spec["end_to_end"]

    attempted = len(untraced.walls) + (len(traced.walls) if traced else 0)
    failed = untraced.failed + (traced.failed if traced else 0)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "run_s_ops": untraced.walls,
        "setup_s_reps": setup_times,
        "metrics": end_to_end,
        "quality": quality,
        "per_layer": layer,
        "env": env,
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(args.log, "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")

    for line in summary_lines(args, attempted, failed, setup_times, untraced, peak_rss_mb, layer):
        print(line)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        # a layer the workload never calls reads 0
        "metrics": {
            m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in listed
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
