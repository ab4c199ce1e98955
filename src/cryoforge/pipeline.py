"""End-to-end batch orchestration.

Drives the stages densify -> place -> project -> align -> reconstruct ->
extract -> noise from a single JSON config, writing MRC volumes, NDJSON
ground-truth metadata, and NDJSON provenance (config hash, seed, timings)
into a per-run output directory. Metadata is deterministic for a fixed
seed; provenance carries wall-clock timings, peak memory, the worker
count of the threaded stages (project, reconstruct), the atom count and
density-map size of densify, the sizes of the composed sample, the
projection stack, the alignment spectra and the tomogram (arithmetic on
their shapes), the number of rows along the tilt axis the projector
projected, and the ground-truth quality of alignment (x-drift RMS
error), reconstruction (correlation with the composed sample) and noise
(worst realized-SNR error against the target), and lives in its own file
so reruns still produce byte-identical metadata. ``jobs`` defaults to
``tiltsim.default_jobs()``, the CLI's rule; no output depends on it.
``align`` and ``reconstruct`` run on the float32 stack ``tilts.mrc`` holds,
so the CLI reproduces their files from a run's ``tilt_series/`` byte for byte.
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
from .subtomo import (
    SNR_TARGETS, ExtractionConfig, NoiseSpec, add_noise, extract, make_mask, snr_tag,
)
from .tiltalign import align_series, refine_axis
from .tiltsim import TiltGeometry, default_jobs, simulate_tilt_series
from .volume import DensityVolume


class PipelineConfigError(ValueError):
    pass


class StageError(RuntimeError):
    """Wraps a stage failure with the stage name for fail-fast reporting."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class PipelineConfig:
    structures: dict[str, str]  # class label -> PDB path
    output_dir: str
    seed: int = 0
    jobs: int = field(default_factory=default_jobs)  # outputs do not depend on it
    particles_per_class: int = 5
    snr_targets: tuple[float, ...] = SNR_TARGETS
    densify: DensifyConfig = field(default_factory=DensifyConfig)
    placement: PlacementConfig = field(default_factory=PlacementConfig)
    tilt: TiltGeometry = field(default_factory=lambda: TiltGeometry())
    recon: ReconConfig = field(default_factory=ReconConfig)
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)

    def __post_init__(self):
        self.snr_targets = tuple(self.snr_targets)
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
        """Build a config from parsed JSON; ``raw`` is left unchanged."""
        nested = {
            "densify": DensifyConfig,
            "placement": PlacementConfig,
            "tilt": TiltGeometry,
            "recon": ReconConfig,
            "extraction": ExtractionConfig,
        }
        top, kwargs = dict(raw), {}
        for key, ctor in nested.items():
            if key in top:
                section = top.pop(key)
                if not isinstance(section, dict):
                    raise PipelineConfigError(f"{key} must be a JSON object, got {section!r}")
                try:
                    kwargs[key] = ctor(**section)
                except (TypeError, ValueError) as exc:
                    raise PipelineConfigError(f"{key}: {exc}") from exc
        try:
            cfg = cls(**top, **kwargs)
        except TypeError as exc:
            raise PipelineConfigError(str(exc)) from exc
        # run_pipeline overwrites these, so another value would be ignored
        for section, fields in cfg.derived().items():
            for name, value in fields.items():
                given = getattr(kwargs[section], name) if name in raw.get(section, {}) else value
                if given != value:
                    raise PipelineConfigError(
                        f"{section}.{name} is {given!r}, but the pipeline "
                        f"derives it as {value!r}; leave it out"
                    )
        return cfg

    @classmethod
    def from_json(cls, path, **overrides) -> "PipelineConfig":
        """Read a config file; ``overrides`` replace its top-level fields
        before ``from_dict`` checks them."""
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise PipelineConfigError(f"{path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise PipelineConfigError(f"{path}: the top level must be a JSON object")
        return cls.from_dict({**raw, **overrides})

    def derived(self) -> dict[str, dict]:
        """The nested fields run_pipeline sets from the top-level ones, by
        section: ``{section: {field: value}}``."""
        return {
            "placement": {
                "seed": self.seed,
                "target_count": self.particles_per_class * len(self.structures),
            },
            "tilt": {"seed": self.seed},
            "recon": {"output_dims": self.placement.volume_dims},
            "extraction": {"seed": self.seed},
        }

    def config_hash(self) -> str:
        """sha256 of the config as sorted-key JSON (tuples written as lists),
        without ``jobs``, which outputs do not depend on."""
        fields = {k: v for k, v in dataclasses.asdict(self).items() if k != "jobs"}
        return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


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

    Layout: densities/<label>.mrc, tilt_series/{tilts.mrc, angles.ndjson}
    (the files ``cryoforge align`` and ``reconstruct`` read),
    alignment.ndjson, tomogram.mrc, subtomograms/<label>/<tag>/NNNN.mrc
    (tag in clean + configured SNRs), masks/, metadata.ndjson,
    rejections.ndjson, provenance.ndjson.
    Each artifact is written inside the stage that produces it, so the
    run fails fast with that stage's name at the first error, a failed
    write included.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    prov = _Provenance(cfg)

    def _stage(name, fn, inputs=(), report=None, **extra):
        """Run one stage; ``report(result)`` adds fields measured on its
        result (array sizes, ground-truth scores) to its provenance row,
        outside the stage's elapsed time."""
        started = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            raise StageError(name, exc) from exc
        prov.record(name, list(inputs), started, **extra)
        if report is not None:
            prov.rows[-1].update(report(result))
        return result

    # densify: one ground-truth density per class
    (out / "densities").mkdir(exist_ok=True)
    densities: dict[str, DensityVolume] = {}

    def _densify():
        atoms = 0
        for label, pdb_path in sorted(cfg.structures.items()):
            model = parse_pdb(Path(pdb_path).read_text(), source_id=label)
            atoms += len(model.atoms)
            densities[label] = densify(model, cfg.densify)
            cio.write_mrc(densities[label], out / "densities" / f"{label}.mrc")
        return atoms

    _stage(
        "densify",
        _densify,
        inputs=sorted(cfg.structures.values()),
        report=lambda atoms: {
            "atoms": atoms,
            "density_mb": sum(4 * v.data.size for v in densities.values()) / 1e6,  # float32
        },
    )

    # place: centers, labels, orientations, composed sample volume
    derived = cfg.derived()
    placement = dataclasses.replace(cfg.placement, **derived["placement"])
    labels = sorted(cfg.structures)
    instances = _stage("place", lambda: place_particles(labels, placement))
    dims = placement.volume_dims
    sample = _stage(
        "compose",
        lambda: compose_sample(densities, instances, placement),
        sample_dims=list(dims),
        sample_mb=4 * math.prod(dims) / 1e6,  # float32 voxels
    )

    # project: simulated tilt series with recorded drifts
    geom = dataclasses.replace(cfg.tilt, **derived["tilt"])
    stack_shape = (len(geom.angles), dims[1], dims[2])

    def _project():
        series = simulate_tilt_series(sample, geom, jobs=cfg.jobs)
        cio.write_tilt_series(series, out / "tilt_series")
        return series

    series = _stage(
        "project",
        _project,
        report=lambda result: {"rows_projected": result.rows_projected},
        jobs=cfg.jobs,
        stack_shape=list(stack_shape),
        stack_mb=4 * math.prod(stack_shape) / 1e6,  # float32 projections, as in tilts.mrc
    )

    # align + axis refinement
    n_tilts, H, W = stack_shape
    align = _stage(
        "align",
        lambda: align_series(series),
        report=lambda result: _drift_rms_x(series.applied_shifts, result.shifts),
        spectra_mb=16 * n_tilts * H * (W // 2 + 1) / 1e6,  # complex128 rfft2 stack
    )

    def _refine_axis():
        align.axis_angle, align.axis_offset, align.residual_mse = refine_axis(
            series, align.shifts
        )
        cio.write_alignment(align, out / "alignment.ndjson")

    _stage("refine_axis", _refine_axis)

    # reconstruct
    recon_cfg = dataclasses.replace(cfg.recon, **derived["recon"])

    def _reconstruct():
        tomo = wbp_reconstruct(series, align, recon_cfg, jobs=cfg.jobs)
        cio.write_mrc(tomo, out / "tomogram.mrc")
        return tomo

    tomo = _stage(
        "reconstruct",
        _reconstruct,
        report=lambda result: {"tomo_corr": _volume_correlation(result, sample)},
        jobs=cfg.jobs,
        output_dims=list(recon_cfg.output_dims),
        tomogram_mb=4 * math.prod(recon_cfg.output_dims) / 1e6,  # float32 voxels
    )

    # extract
    extraction = dataclasses.replace(cfg.extraction, **derived["extraction"])

    def _extract():
        accepted, rejections = extract(tomo, instances, extraction)
        cio.write_rejections(rejections, out / "rejections.ndjson")
        return accepted, rejections

    accepted, rejections = _stage("extract", _extract)

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
                path = out / "subtomograms" / sub.class_label / tag / f"{i:04d}.mrc"
                records.append(cio.write_subtomogram(vol, sub, path, out, tag, mask_path))
        return replicas

    _stage(
        "noise",
        _noise,
        report=_snr_error,
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
