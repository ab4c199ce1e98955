"""Command-line front end.

One subcommand per pipeline stage, an end-to-end `pipeline` command driven
by a JSON config, property-suite `verify`, and `nrcl-eval` for loss
evaluation over embedding files. Exit codes: 0 success, 1 validation
error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import io as cio
from .apt import SteerableSelectionNet, verify_equivariance
from .geometry import gso_to_matrix, rotation_error, svd_to_matrix
from .nrcl import EmbeddingBatch, LossConfig, infonce_loss, sinkhorn_wasserstein, sym_loss
from .pipeline import PipelineConfig, StageError, run_pipeline, snr_tag
from .recon import ReconConfig, wbp_reconstruct
from .scene import PlacementConfig, place_particles
from .structure import DensifyConfig, densify, parse_pdb
from .subtomo import ExtractionConfig, NoiseSpec, add_noise, extract
from .tiltalign import align_series, refine_axis
from .tiltsim import DEFAULT_JOBS_CAP, TiltGeometry, default_jobs, simulate_tilt_series
from .volume import DensityVolume

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _seed(args) -> int:
    return args.seed if args.seed is not None else 0


def _dims(text: str) -> tuple[int, int, int]:
    """A ``--dims D,H,W`` value as three integers."""
    try:
        dims = tuple(int(v) for v in text.split(","))
    except ValueError:
        dims = ()
    if len(dims) != 3:
        raise ValueError(f"--dims must be three integers D,H,W, got {text!r}")
    return dims


def _jobs(args) -> int:
    """Worker threads: ``--jobs``, else ``tiltsim.default_jobs()``."""
    if args.jobs is None:
        return default_jobs()
    if args.jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    return args.jobs


def cmd_densify(args) -> int:
    model = parse_pdb(Path(args.pdb).read_text(), source_id=Path(args.pdb).stem)
    cfg = DensifyConfig(voxel_size=args.voxel_size, target_resolution=args.resolution)
    vol = densify(model, cfg)
    cio.write_mrc(vol, args.out)
    print(f"densify: {args.pdb} -> {args.out} shape={vol.shape} max={vol.data.max():g}")
    return EXIT_OK


def cmd_place(args) -> int:
    labels = [s for s in args.labels.split(",") if s]
    if not labels:
        raise ValueError("--labels must name at least one class")
    cfg = PlacementConfig(volume_dims=_dims(args.dims), target_count=args.count, seed=_seed(args))
    instances = place_particles(labels, cfg)
    cio.write_instances(instances, args.out)
    print(f"place: {len(instances)} instances -> {args.out}")
    return EXIT_OK


def cmd_project(args) -> int:
    vol = cio.read_mrc(args.volume)
    series = simulate_tilt_series(vol, TiltGeometry(seed=_seed(args)), jobs=_jobs(args))
    cio.write_tilt_series(series, args.out)
    print(f"project: {len(series.projections)} tilts -> {args.out}")
    return EXIT_OK


def cmd_align(args) -> int:
    series = cio.read_tilt_series(args.tilts, args.angles)
    align = align_series(series)
    align.axis_angle, align.axis_offset, align.residual_mse = refine_axis(series, align.shifts)
    cio.write_alignment(align, args.out)
    print(
        f"align: axis {align.axis_angle:+.2f} deg "
        f"offset {align.axis_offset:+.2f} px -> {args.out}"
    )
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    dims = _dims(args.dims)
    series = cio.read_tilt_series(args.tilts, args.angles)
    align = cio.read_alignment(args.alignment)
    tomo = wbp_reconstruct(series, align, ReconConfig(output_dims=dims), jobs=_jobs(args))
    cio.write_mrc(tomo, args.out)
    print(f"reconstruct: {dims} tomogram -> {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    tomo = cio.read_mrc(args.tomogram)
    instances = cio.read_instances(args.instances)
    cfg = ExtractionConfig(seed=_seed(args))
    accepted, rejections = extract(tomo, instances, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = [
        cio.write_subtomogram(
            DensityVolume(sub.data, tomo.voxel_size), sub, out / f"{i:04d}.mrc", out, "clean"
        )
        for i, sub in enumerate(accepted)
    ]
    cio.write_metadata(records, out / "metadata.ndjson")
    cio.write_rejections(rejections, out / "rejections.ndjson")
    print(f"extract: {len(accepted)} accepted, {len(rejections)} rejected -> {out}")
    return EXIT_OK


def cmd_noise(args) -> int:
    vol = cio.read_mrc(args.volume)
    spec = NoiseSpec(snr_target=args.snr, seed=_seed(args))
    noisy = add_noise(vol, spec)
    cio.write_mrc(noisy, args.out)
    print(f"noise: SNR {snr_tag(args.snr)} -> {args.out}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    if not args.config:
        raise ValueError("pipeline requires --config FILE")
    overrides = {"seed": args.seed, "jobs": args.jobs}
    cfg = PipelineConfig.from_json(
        args.config, **{k: v for k, v in overrides.items() if v is not None}
    )
    result = run_pipeline(cfg)
    print(
        f"pipeline: placed={result.placed} accepted={result.accepted} "
        f"rejected={len(result.rejections)} -> {result.output_dir}"
    )
    return EXIT_OK


def _geometry_suite(rng) -> bool:
    R = gso_to_matrix(rng.normal(size=(200, 3)), rng.normal(size=(200, 3)))
    ok = float(np.abs(np.linalg.det(R) - 1.0).max()) < 1e-9
    ok &= float(np.abs(R.swapaxes(-1, -2) @ R - np.eye(3)).max()) < 1e-9
    R2 = svd_to_matrix(rng.normal(size=(200, 3, 3)))
    ok &= float(np.abs(svd_to_matrix(R2) - R2).max()) < 1e-9
    # arccos is ill-conditioned at zero angle; roundoff yields ~1e-6 deg
    ok &= all(rotation_error(r, r) < 1e-4 for r in R)
    return bool(ok)


def _loss_suite() -> bool:
    cfg = LossConfig(temperature=1.0)
    v = np.eye(4)[:2]
    z = EmbeddingBatch(v)
    ok = abs(infonce_loss(z, z, z, cfg) - np.log(2.0)) < 1e-12
    _, plan = sinkhorn_wasserstein(z, z, cfg)
    ok &= plan.marginal_violation() < cfg.sinkhorn_tol
    ok &= np.isfinite(sym_loss(z, z, cfg))
    return bool(ok)


def cmd_verify(args) -> int:
    rng = np.random.default_rng(_seed(args))
    net = SteerableSelectionNet.random(rng, break_rotation=args.break_rotation)
    report = verify_equivariance(net, trials=args.trials, seed=_seed(args))
    rows = [
        ("apt translation", report["translation"]["pass"]),
        ("apt rotation", report["rotation"]["pass"]),
        ("geometry properties", _geometry_suite(rng)),
        ("loss properties", _loss_suite()),
    ]
    width = max(len(name) for name, _ in rows)
    all_pass = True
    for name, passed in rows:
        print(f"{name:<{width}}  {'PASS' if passed else 'FAIL'}")
        all_pass &= passed
    return EXIT_OK if all_pass else EXIT_VALIDATION


def _read_embeddings(path) -> EmbeddingBatch:
    rows = cio.read_ndjson(path)
    try:
        return EmbeddingBatch(np.array([r["vector"] for r in rows], dtype=float))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def cmd_nrcl_eval(args) -> int:
    if (args.z_clean is None) != (args.z_noisy is None):
        missing = "--z-noisy" if args.z_noisy is None else "--z-clean"
        raise ValueError(f"infonce needs --z-clean and --z-noisy together; {missing} is missing")
    cfg = LossConfig(temperature=args.temperature)
    z = _read_embeddings(args.z)
    z_pos = _read_embeddings(args.z_pos)
    cost, plan = sinkhorn_wasserstein(z, z_pos, cfg)
    out = {
        "sym_loss": sym_loss(z, z_pos, cfg),
        "wasserstein": cost,
        "wasserstein_converged": plan.converged,
        "wasserstein_iterations": plan.iterations_used,
        "wasserstein_epsilon": plan.epsilon,
    }
    if args.z_clean is not None:
        out["infonce"] = infonce_loss(
            z, _read_embeddings(args.z_clean), _read_embeddings(args.z_noisy), cfg
        )
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; each ``parse_args`` fills a fresh
    namespace, so no option carries over from one ``main`` call to the next."""
    parser = argparse.ArgumentParser(
        prog="cryoforge",
        description="Simulated cryo-ET data factory: densities, tilt series, "
        "tomograms, and SNR-graded subtomograms.",
    )
    parser.add_argument("--config", help="JSON config file (pipeline)")
    parser.add_argument("--seed", type=int, default=None, help="global seed")
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker threads for project, reconstruct and pipeline (default: the "
        "pipeline config's jobs, else CRYOFORGE_JOBS, else the usable CPU count, at "
        f"most {DEFAULT_JOBS_CAP}; 1 runs serially)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("densify", help="PDB to density map")
    p.add_argument("--pdb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--voxel-size", type=float, default=10.0)
    p.add_argument("--resolution", type=float, default=30.0)

    p = sub.add_parser("place", help="sample particle placements")
    p.add_argument("--labels", required=True, help="comma-separated class labels")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--dims", default="200,500,500", help="volume D,H,W")
    p.add_argument("--out", required=True)

    p = sub.add_parser("project", help="simulate a tilt series")
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("align", help="recover tilt-series drifts")
    p.add_argument("--tilts", required=True)
    p.add_argument("--angles", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("reconstruct", help="weighted back-projection")
    p.add_argument("--tilts", required=True)
    p.add_argument("--angles", required=True)
    p.add_argument("--alignment", required=True)
    p.add_argument("--dims", required=True, help="output D,H,W")
    p.add_argument("--out", required=True)

    p = sub.add_parser("extract", help="crop subtomograms")
    p.add_argument("--tomogram", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("noise", help="add SNR-calibrated noise")
    p.add_argument("--volume", required=True)
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--out", required=True)

    sub.add_parser("pipeline", help="run all stages from a config")

    p = sub.add_parser("verify", help="equivariance and property suites")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument(
        "--break-rotation",
        action="store_true",
        help="inject a non-steerable kernel (negative control)",
    )

    p = sub.add_parser("nrcl-eval", help="losses over embedding NDJSON files")
    p.add_argument("--z", required=True)
    p.add_argument("--z-pos", required=True)
    p.add_argument("--z-clean", help="InfoNCE positives; needs --z-noisy")
    p.add_argument("--z-noisy", help="InfoNCE negatives; needs --z-clean")
    p.add_argument("--temperature", type=float, default=0.1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # looked up at call time, so a replaced cmd_* function is the one run
        return globals()[f"cmd_{args.command.replace('-', '_')}"](args)
    except (StageError, OSError, ValueError, KeyError) as exc:
        cause = exc.cause if isinstance(exc, StageError) else exc
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(cause, OSError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
