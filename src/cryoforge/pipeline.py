"""End-to-end batch orchestration.

Drives the stages densify -> place -> project -> align -> reconstruct ->
extract -> noise from a single JSON config, writing MRC volumes, NDJSON
ground-truth metadata, and NDJSON provenance (config hash, seed, timings)
into a per-run output directory. Metadata is deterministic for a fixed
seed; provenance carries wall-clock timings, peak memory and the
ground-truth quality of alignment (x-drift RMS error), reconstruction
(correlation with the composed sample) and noise (worst realized-SNR
error against the target), and lives in its own file so
reruns still produce byte-identical metadata.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as cio
from .recon import ReconConfig, wbp_reconstruct
from .scene import PlacementConfig, compose_sample, place_particles
from .structure import DensifyConfig, densify, parse_pdb
from .subtomo import ExtractionConfig, NoiseSpec, add_noise, extract, make_mask
from .tiltalign import align_series, refine_axis
from .tiltsim import TiltGeometry, default_angles, simulate_tilt_series
from .volume import DensityVolume

DEFAULT_SNR_TARGETS = (100.0, 0.1, 0.05, 0.03, 0.01)


class PipelineConfigError(ValueError):
    pass


class StageError(RuntimeError):
    """Wraps a stage failure with the stage name for fail-fast reporting."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


def snr_tag(target: float) -> str:
    """Directory/metadata tag for an SNR target (e.g. 0.05 -> '0.05')."""
    return f"{target:g}"


@dataclass
class PipelineConfig:
    structures: dict[str, str]  # class label -> PDB path
    output_dir: str
    seed: int = 0
    jobs: int = 1
    particles_per_class: int = 5
    snr_targets: tuple[float, ...] = DEFAULT_SNR_TARGETS
    densify: DensifyConfig = field(default_factory=DensifyConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    tilt: TiltGeometry = field(default_factory=lambda: TiltGeometry())
    recon: ReconConfig = field(default_factory=ReconConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)

    def __post_init__(self):
        if not self.structures:
            raise PipelineConfigError("at least one structure is required")
        if self.particles_per_class < 1:
            raise PipelineConfigError("particles_per_class must be >= 1")
        if self.jobs < 1:
            raise PipelineConfigError("jobs must be >= 1")
        for t in self.snr_targets:
            if not t > 0:
                raise PipelineConfigError(f"SNR target {t} must be positive")
            if snr_tag(t) not in cio.SNR_TAGS:
                raise PipelineConfigError(
                    f"SNR target {t} is not in the supported set {cio.SNR_TAGS[1:]}"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        raw = dict(raw)
        nested = {
            "densify": DensifyConfig,
            "placement": PlacementConfig,
            "tilt": TiltGeometry,
            "recon": ReconConfig,
            "extraction": ExtractionConfig,
        }
        kwargs = {}
        for key, ctor in nested.items():
            if key in raw:
                sub = raw.pop(key)
                for tup in ("volume_dims", "output_dims"):
                    if tup in sub:
                        sub[tup] = tuple(sub[tup])
                kwargs[key] = ctor(**sub)
        if "snr_targets" in raw:
            raw["snr_targets"] = tuple(raw["snr_targets"])
        try:
            return cls(**raw, **kwargs)
        except TypeError as exc:
            raise PipelineConfigError(str(exc)) from exc

    @classmethod
    def from_json(cls, path) -> "PipelineConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise PipelineConfigError(f"{path}: {exc}") from exc
        return cls.from_dict(raw)

    def canonical(self) -> dict:
        out = dataclasses.asdict(self)
        for cfg_key in ("densify", "placement", "tilt", "recon", "extraction"):
            sub = out[cfg_key]
            for k, v in list(sub.items()):
                if isinstance(v, tuple):
                    sub[k] = list(v)
        out["snr_targets"] = list(self.snr_targets)
        return out

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.canonical(), sort_keys=True).encode()
        ).hexdigest()


@dataclass
class PipelineResult:
    output_dir: Path
    placed: int
    accepted: int
    rejections: list
    metadata_path: Path


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (10^6 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


def _drift_rms_x(applied, estimated) -> dict[str, float]:
    """RMS x-drift error of the estimated shifts and of no correction,
    against the applied (dx, dy) per view. The common translation of all
    views is unobservable, so both are anchored to zero mean first."""
    a = np.asarray(applied, dtype=np.float64)[:, 0]
    e = np.asarray(estimated, dtype=np.float64)[:, 0]
    a, e = a - a.mean(), e - e.mean()
    return {
        "align_rms_x_px": float(np.sqrt(np.mean((e - a) ** 2))),
        "uncorrected_rms_x_px": float(np.sqrt(np.mean(a**2))),
    }


def _volume_correlation(a: DensityVolume, b: DensityVolume) -> float:
    """Pearson correlation of two equal-shape volumes.

    Two passes over d slabs, each cast to float64 on its own: the means,
    then the centred sums. No volume-sized temporary is formed.
    """
    if a.shape != b.shape:
        raise ValueError("volumes must have equal dimensions")
    n = a.data.size
    mean_a = sum(float(sa.sum(dtype=np.float64)) for sa in a.data) / n
    mean_b = sum(float(sb.sum(dtype=np.float64)) for sb in b.data) / n
    sab = saa = sbb = 0.0
    for sa, sb in zip(a.data, b.data):
        da = sa.astype(np.float64) - mean_a
        db = sb.astype(np.float64) - mean_b
        sab += float(np.vdot(da, db))
        saa += float(np.vdot(da, da))
        sbb += float(np.vdot(db, db))
    return sab / np.sqrt(saa * sbb)


def _snr_error(replicas) -> dict[str, float]:
    """max |realized SNR / target - 1| over (clean, [(noisy, target), ...])
    groups, with realized SNR = var(clean) / var(noisy - clean) in float64."""
    worst = 0.0
    for clean, noisy in replicas:
        c = clean.astype(np.float64)
        signal = np.var(c)
        for data, target in noisy:
            realized = signal / np.var(data - c)  # float32 - float64 is float64
            worst = max(worst, abs(realized / target - 1.0))
    return {"snr_err": float(worst)}


class _Provenance:
    """Collects one NDJSON row per completed stage."""

    def __init__(self, cfg: PipelineConfig):
        self.rows: list[dict] = []
        self.cfg_hash = cfg.config_hash()
        self.seed = cfg.seed

    def record(self, stage: str, inputs: list[str], started: float, **extra):
        self.rows.append(
            {
                "stage": stage,
                "inputs": inputs,
                "config_hash": self.cfg_hash,
                "seed": self.seed,
                "elapsed_s": round(time.perf_counter() - started, 4),
                "peak_rss_mb": round(_peak_rss_mb(), 1),
                **extra,
            }
        )

    def write(self, path: Path):
        cio.write_ndjson(self.rows, path)


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run every stage and write all artifacts under cfg.output_dir.

    Layout: densities/<label>.mrc, tilt_series/, tomogram.mrc,
    subtomograms/<label>/<tag>/NNNN.mrc (tag in clean + configured SNRs),
    masks/, metadata.ndjson, rejections.ndjson, provenance.ndjson.
    Fails fast with the stage name at the first error.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    prov = _Provenance(cfg)

    def _stage(name, fn, inputs=(), quality=None, **extra):
        """Run one stage; ``quality(result)`` adds ground-truth scores to
        its provenance row, outside the stage's elapsed time."""
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            raise StageError(name, exc) from exc
        prov.record(name, list(inputs), started, **extra)
        if quality is not None:
            prov.rows[-1].update(quality(result))
        return result

    # densify: one ground-truth density per class
    (out / "densities").mkdir(exist_ok=True)
    densities: dict[str, DensityVolume] = {}

    def _densify():
        for label, pdb_path in sorted(cfg.structures.items()):
            model = parse_pdb(Path(pdb_path).read_text(), source_id=label)
            densities[label] = densify(model, cfg.densify)
            cio.write_mrc(densities[label], out / "densities" / f"{label}.mrc")

    _stage("densify", _densify, inputs=sorted(cfg.structures.values()))

    # place: centers, labels, orientations, composed sample volume
    placement = dataclasses.replace(
        cfg.placement,
        seed=cfg.seed,
        target_count=cfg.particles_per_class * len(cfg.structures),
    )
    labels = sorted(cfg.structures)
    instances = _stage("place", lambda: place_particles(labels, placement))
    sample = _stage("compose", lambda: compose_sample(densities, instances, placement))

    # project: simulated tilt series with recorded drifts
    geom = dataclasses.replace(cfg.tilt, seed=cfg.seed)
    series = _stage(
        "project",
        lambda: simulate_tilt_series(sample, geom, jobs=cfg.jobs),
        jobs=cfg.jobs,
    )
    (out / "tilt_series").mkdir(exist_ok=True)
    cio.write_ndjson(
        [
            {"index": i, "angle_deg": a, "applied_shift": list(s)}
            for i, (a, s) in enumerate(zip(geom.angles, series.applied_shifts))
        ],
        out / "tilt_series" / "angles.ndjson",
    )

    # align + axis refinement
    align = _stage(
        "align",
        lambda: align_series(series),
        quality=lambda result: _drift_rms_x(series.applied_shifts, result.shifts),
    )
    axis_angle, axis_offset, axis_mse = _stage(
        "refine_axis", lambda: refine_axis(series, align.shifts)
    )
    align.axis_angle, align.axis_offset, align.residual_mse = (
        axis_angle,
        axis_offset,
        axis_mse,
    )
    cio.write_ndjson(
        [
            {
                "shifts": [list(s) for s in align.shifts],
                "axis_angle_deg": axis_angle,
                "axis_offset": axis_offset,
                "residual_mse": axis_mse,
            }
        ],
        out / "alignment.ndjson",
    )

    # reconstruct
    recon_cfg = dataclasses.replace(cfg.recon, output_dims=placement.volume_dims)
    dims = recon_cfg.output_dims
    tomo = _stage(
        "reconstruct",
        lambda: wbp_reconstruct(series, align, recon_cfg),
        quality=lambda result: {"tomo_corr": _volume_correlation(result, sample)},
        output_dims=list(dims),
        tomogram_mb=4 * math.prod(dims) / 1e6,  # float32 voxels
    )
    cio.write_mrc(tomo, out / "tomogram.mrc")

    # extract
    extraction = dataclasses.replace(cfg.extraction, seed=cfg.seed)
    accepted, rejections = _stage(
        "extract", lambda: extract(tomo, instances, extraction)
    )
    cio.write_ndjson(
        [
            {
                "instance_index": r.instance_index,
                "class_label": r.class_label,
                "reason": r.reason,
            }
            for r in rejections
        ],
        out / "rejections.ndjson",
    )

    # noise: clean references, masks, and per-SNR noisy replicas
    records: list[cio.SubtomogramRecord] = []

    def _noise():
        replicas = []  # (clean, [(noisy, target), ...]) for the realized-SNR check
        (out / "masks").mkdir(exist_ok=True)
        for i, sub in enumerate(accepted):
            clean = DensityVolume(sub.data, tomo.voxel_size)
            mask = make_mask(clean, extraction)
            mask_path = out / "masks" / f"{i:04d}.mrc"
            cio.write_mrc(
                DensityVolume(mask.astype(np.float32), tomo.voxel_size), mask_path
            )
            variants = [("clean", clean)]
            for j, target in enumerate(cfg.snr_targets):
                spec = NoiseSpec(snr_target=target, seed=(cfg.seed, i, j))
                variants.append((snr_tag(target), add_noise(clean, spec)))
            noisy = [(v.data, t) for (_, v), t in zip(variants[1:], cfg.snr_targets)]
            replicas.append((clean.data, noisy))
            for tag, vol in variants:
                vdir = out / "subtomograms" / sub.class_label / tag
                vdir.mkdir(parents=True, exist_ok=True)
                vpath = vdir / f"{i:04d}.mrc"
                cio.write_mrc(vol, vpath)
                records.append(
                    cio.SubtomogramRecord(
                        volume_path=str(vpath.relative_to(out)),
                        class_label=sub.class_label,
                        center_offset=tuple(float(v) for v in sub.center_offset),
                        orientation=sub.orientation,
                        snr_tag=tag,
                        mask_path=str(mask_path.relative_to(out)),
                    )
                )
        return replicas

    _stage(
        "noise",
        _noise,
        quality=_snr_error,
        extra_targets=[snr_tag(t) for t in cfg.snr_targets],
    )

    metadata_path = out / "metadata.ndjson"
    cio.write_metadata(records, metadata_path)
    prov.write(out / "provenance.ndjson")
    return PipelineResult(
        output_dir=out,
        placed=len(instances),
        accepted=len(accepted),
        rejections=rejections,
        metadata_path=metadata_path,
    )
