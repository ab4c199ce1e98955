"""Command-line front end.

One subcommand per pipeline stage, an end-to-end `pipeline` command driven
by a JSON config, property-suite `verify`, and `nrcl-eval` for loss
evaluation over embedding files. Exit codes: 0 success, 1 validation
error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import io as cio
from .apt import SteerableSelectionNet, verify_equivariance
from .geometry import gso_to_matrix, rotation_error, svd_to_matrix
from .nrcl import EmbeddingBatch, LossConfig, infonce_loss, sinkhorn_wasserstein, sym_loss
from .pipeline import PipelineConfig, StageError, run_pipeline, snr_tag
from .recon import ReconConfig, wbp_reconstruct
from .scene import PlacementConfig, ParticleInstance, place_particles
from .structure import DensifyConfig, densify, parse_pdb
from .subtomo import ExtractionConfig, NoiseSpec, add_noise, extract
from .tiltalign import AlignmentResult, align_series, refine_axis
from .tiltsim import TiltGeometry, TiltSeries, simulate_tilt_series
from .volume import DensityVolume

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_IO = 2


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input file not found: {p}")
    return p.read_text()


def _require(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"input file not found: {p}")
    return p


def _seed(args) -> int:
    return args.seed if args.seed is not None else 0


def _jobs(args) -> int:
    if args.jobs is not None:
        return args.jobs
    env = os.environ.get("CRYOFORGE_JOBS")
    return int(env) if env else 1


def cmd_densify(args) -> int:
    model = parse_pdb(_read_text(args.pdb), source_id=Path(args.pdb).stem)
    cfg = DensifyConfig(voxel_size=args.voxel_size, target_resolution=args.resolution)
    vol = densify(model, cfg)
    cio.write_mrc(vol, args.out)
    print(f"densify: {args.pdb} -> {args.out} shape={vol.shape} max={vol.data.max():g}")
    return EXIT_OK


def cmd_place(args) -> int:
    labels = [s for s in args.labels.split(",") if s]
    if not labels:
        raise ValueError("--labels must name at least one class")
    dims = tuple(int(v) for v in args.dims.split(","))
    if len(dims) != 3:
        raise ValueError("--dims must be D,H,W")
    cfg = PlacementConfig(volume_dims=dims, target_count=args.count, seed=_seed(args))
    instances = place_particles(labels, cfg)
    cio.write_ndjson(
        [
            {
                "class_label": inst.class_label,
                "center": [float(v) for v in inst.center],
                "orientation": [float(v) for v in inst.orientation],
            }
            for inst in instances
        ],
        args.out,
    )
    print(f"place: {len(instances)} instances -> {args.out}")
    return EXIT_OK


def _read_instances(path) -> list[ParticleInstance]:
    return [
        ParticleInstance(r["class_label"], r["center"], r["orientation"])
        for r in cio.read_ndjson(_require(path))
    ]


def cmd_project(args) -> int:
    vol = cio.read_mrc(_require(args.volume))
    geom = TiltGeometry(seed=_seed(args))
    series = simulate_tilt_series(vol, geom, jobs=_jobs(args))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stack = np.stack(series.projections).astype(np.float32)
    cio.write_mrc(DensityVolume(stack, vol.voxel_size), out / "tilts.mrc")
    cio.write_ndjson(
        [
            {"index": i, "angle_deg": a, "applied_shift": list(s)}
            for i, (a, s) in enumerate(zip(geom.angles, series.applied_shifts))
        ],
        out / "angles.ndjson",
    )
    print(f"project: {len(series.projections)} tilts -> {out}")
    return EXIT_OK


def _read_series(tilts_path, angles_path):
    stack = cio.read_mrc(_require(tilts_path))
    rows = cio.read_ndjson(_require(angles_path))
    geom = TiltGeometry(angles=[r["angle_deg"] for r in rows])
    return TiltSeries(
        geometry=geom,
        projections=[p for p in stack.data.astype(np.float64)],
        applied_shifts=[tuple(r["applied_shift"]) for r in rows],
        voxel_size=stack.voxel_size,
    )


def cmd_align(args) -> int:
    series = _read_series(args.tilts, args.angles)
    align = align_series(series)
    phi, off, mse = refine_axis(series, align.shifts)
    cio.write_ndjson(
        [
            {
                "shifts": [list(s) for s in align.shifts],
                "axis_angle_deg": phi,
                "axis_offset": off,
                "residual_mse": mse,
            }
        ],
        args.out,
    )
    print(f"align: axis {phi:+.2f} deg offset {off:+.2f} px -> {args.out}")
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    series = _read_series(args.tilts, args.angles)
    rows = cio.read_ndjson(_require(args.alignment))
    align = AlignmentResult(shifts=[tuple(s) for s in rows[0]["shifts"]])
    dims = tuple(int(v) for v in args.dims.split(","))
    if len(dims) != 3:
        raise ValueError("--dims must be D,H,W")
    tomo = wbp_reconstruct(series, align, ReconConfig(output_dims=dims))
    cio.write_mrc(tomo, args.out)
    print(f"reconstruct: {dims} tomogram -> {args.out}")
    return EXIT_OK


def cmd_extract(args) -> int:
    tomo = cio.read_mrc(_require(args.tomogram))
    instances = _read_instances(args.instances)
    cfg = ExtractionConfig(seed=_seed(args))
    accepted, rejections = extract(tomo, instances, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for i, sub in enumerate(accepted):
        path = out / f"{i:04d}.mrc"
        cio.write_mrc(DensityVolume(sub.data, tomo.voxel_size), path)
        records.append(
            cio.SubtomogramRecord(
                volume_path=path.name,
                class_label=sub.class_label,
                center_offset=tuple(float(v) for v in sub.center_offset),
                orientation=sub.orientation,
                snr_tag="clean",
            )
        )
    cio.write_metadata(records, out / "metadata.ndjson")
    cio.write_ndjson(
        [
            {"instance_index": r.instance_index, "class_label": r.class_label, "reason": r.reason}
            for r in rejections
        ],
        out / "rejections.ndjson",
    )
    print(f"extract: {len(accepted)} accepted, {len(rejections)} rejected -> {out}")
    return EXIT_OK


def cmd_noise(args) -> int:
    vol = cio.read_mrc(_require(args.volume))
    spec = NoiseSpec(snr_target=args.snr, seed=_seed(args))
    noisy = add_noise(vol, spec)
    cio.write_mrc(noisy, args.out)
    print(f"noise: SNR {snr_tag(args.snr)} -> {args.out}")
    return EXIT_OK


def cmd_pipeline(args) -> int:
    if not args.config:
        raise ValueError("pipeline requires --config FILE")
    cfg = PipelineConfig.from_json(_require(args.config))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.jobs is not None:
        cfg = dataclasses.replace(cfg, jobs=args.jobs)
    result = run_pipeline(cfg)
    print(
        f"pipeline: placed={result.placed} accepted={result.accepted} "
        f"rejected={len(result.rejections)} -> {result.output_dir}"
    )
    return EXIT_OK


def _geometry_suite(rng) -> bool:
    ok = True
    for _ in range(200):
        R = gso_to_matrix(rng.normal(size=3), rng.normal(size=3))
        ok &= abs(np.linalg.det(R) - 1.0) < 1e-9
        ok &= float(np.abs(R.T @ R - np.eye(3)).max()) < 1e-9
        R2 = svd_to_matrix(rng.normal(size=(3, 3)))
        ok &= float(np.abs(svd_to_matrix(R2) - R2).max()) < 1e-9
        # arccos is ill-conditioned at zero angle; roundoff yields ~1e-6 deg
        ok &= rotation_error(R, R) < 1e-4
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
    if args.trials < 1:
        print("verify: --trials must be >= 1", file=sys.stderr)
        return EXIT_VALIDATION
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
    rows = cio.read_ndjson(_require(path))
    return EmbeddingBatch(np.array([r["vector"] for r in rows], dtype=float))


def cmd_nrcl_eval(args) -> int:
    cfg = LossConfig(temperature=args.temperature)
    z = _read_embeddings(args.z)
    z_pos = _read_embeddings(args.z_pos)
    out = {
        "sym_loss": sym_loss(z, z_pos, cfg),
        "wasserstein": sinkhorn_wasserstein(z, z_pos, cfg)[0],
    }
    if args.z_clean and args.z_noisy:
        out["infonce"] = infonce_loss(
            z, _read_embeddings(args.z_clean), _read_embeddings(args.z_noisy), cfg
        )
    print(json.dumps(out, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cryoforge",
        description="Simulated cryo-ET data factory: densities, tilt series, "
        "tomograms, and SNR-graded subtomograms.",
    )
    parser.add_argument("--config", help="JSON config file (pipeline)")
    parser.add_argument("--seed", type=int, default=None, help="global seed")
    parser.add_argument("--jobs", type=int, default=None, help="parallel workers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("densify", help="PDB to density map")
    p.add_argument("--pdb", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--voxel-size", type=float, default=10.0)
    p.add_argument("--resolution", type=float, default=30.0)
    p.set_defaults(fn=cmd_densify)

    p = sub.add_parser("place", help="sample particle placements")
    p.add_argument("--labels", required=True, help="comma-separated class labels")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--dims", default="200,500,500", help="volume D,H,W")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_place)

    p = sub.add_parser("project", help="simulate a tilt series")
    p.add_argument("--volume", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_project)

    p = sub.add_parser("align", help="recover tilt-series drifts")
    p.add_argument("--tilts", required=True)
    p.add_argument("--angles", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_align)

    p = sub.add_parser("reconstruct", help="weighted back-projection")
    p.add_argument("--tilts", required=True)
    p.add_argument("--angles", required=True)
    p.add_argument("--alignment", required=True)
    p.add_argument("--dims", required=True, help="output D,H,W")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_reconstruct)

    p = sub.add_parser("extract", help="crop subtomograms")
    p.add_argument("--tomogram", required=True)
    p.add_argument("--instances", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_extract)

    p = sub.add_parser("noise", help="add SNR-calibrated noise")
    p.add_argument("--volume", required=True)
    p.add_argument("--snr", type=float, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_noise)

    p = sub.add_parser("pipeline", help="run all stages from a config")
    p.set_defaults(fn=cmd_pipeline)

    p = sub.add_parser("verify", help="equivariance and property suites")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument(
        "--break-rotation",
        action="store_true",
        help="inject a non-steerable kernel (negative control)",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("nrcl-eval", help="losses over embedding NDJSON files")
    p.add_argument("--z", required=True)
    p.add_argument("--z-pos", required=True)
    p.add_argument("--z-clean")
    p.add_argument("--z-noisy")
    p.add_argument("--temperature", type=float, default=0.1)
    p.set_defaults(fn=cmd_nrcl_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except StageError as exc:
        stream = sys.stderr
        print(f"error: {exc}", file=stream)
        return EXIT_IO if isinstance(exc.cause, OSError) else EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
