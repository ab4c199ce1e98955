"""End-to-end batch orchestration.

Drives the nine stages densify -> place -> compose -> project -> align ->
refine_axis -> reconstruct -> extract -> noise from a single JSON config,
writing MRC volumes, NDJSON ground-truth metadata, and NDJSON provenance
(config hash, seed, timings; one row per stage) into a per-run output
directory. The config hash covers every field but ``jobs``, so it covers
what ran: the seed, which project, extract and noise take as an argument,
and the seed and target count the placement section derives. Metadata is
deterministic for a fixed seed; provenance
carries wall-clock timings, peak memory, the worker count of the threaded
stages (project, reconstruct), the python, numpy and scipy versions and
the BLAS and OpenMP thread caps the run had, the atom count and
density-map size of densify, the particles placed against the target
count, the sizes of the composed sample, the
projection stack and the tomogram (read from the arrays) and of the
alignment spectra (arithmetic on the stack's shape), the number of rows
along the tilt axis the projector projected, the mass the composed sample
keeps of the placed maps, and the ground-truth quality of alignment
(x-drift RMS error), reconstruction (correlation with the composed
sample), extraction (correlation of each clean box with the same box of
the sample) and noise (worst realized-SNR error against the target),
and lives in its own file so reruns still produce byte-identical metadata.
A failed run writes the rows up to the failed stage's, which names the
error.
``jobs`` defaults to ``tiltsim.default_jobs()``, the CLI's rule; no output
depends on it. ``align`` and ``reconstruct`` run on the float32 stack
``tilts.mrc`` holds, so the CLI reproduces their files from a run's
``tilt_series/`` byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import io as cio
from .recon import MIN_TILTS, ReconConfig, wbp_reconstruct
from .scene import PlacementConfig, compose_sample, place_particles
from .structure import DensifyConfig, densify, parse_pdb
from .subtomo import (
    SNR_TARGETS, ExtractionConfig, add_noise, extract, make_mask, snr_tag,
)
from .tiltalign import AlignmentResult, align_series, refine_axis
from .tiltsim import TiltGeometry, default_jobs, simulate_tilt_series
from .volume import DensityVolume, centred_sums, float_in, int_at_least


# the BLAS and OpenMP thread caps the densify row reports, null when unset
_THREAD_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# the config's nested sections, each read by ``io.from_row``
_SECTIONS = {"densify": DensifyConfig, "placement": PlacementConfig, "tilt": TiltGeometry,
             "extraction": ExtractionConfig}


def _read(cls, row, prefix=""):
    """``io.from_row(cls, row)``, raising its error as a ValueError that
    starts with ``prefix``."""
    try:
        return cio.from_row(cls, row)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{prefix}{exc}") from exc


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
    extraction: ExtractionConfig = field(default_factory=ExtractionConfig)

    def __post_init__(self):
        if not isinstance(self.structures, dict) or not all(
            isinstance(v, str) for v in self.structures.values()
        ):
            raise ValueError(
                f"structures must map each label to a PDB path string, got {self.structures!r}"
            )
        if not self.structures:
            raise ValueError("at least one structure is required")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        if not isinstance(self.snr_targets, (list, tuple)):
            raise ValueError(f"snr_targets must be a list, got {self.snr_targets!r}")
        self.snr_targets = tuple(self.snr_targets)
        for name, low in (("seed", 0), ("particles_per_class", 1), ("jobs", 1)):
            setattr(self, name, int_at_least(getattr(self, name), name, low))
        tags = [snr_tag(float_in(t, "snr_targets", "(0, inf)")) for t in self.snr_targets]
        if len(self.tilt.angles) < MIN_TILTS:
            raise ValueError(
                f"tilt.angles must hold at least {MIN_TILTS} angles, got {self.tilt.angles}"
            )
        for t, tag in zip(self.snr_targets, tags):
            if tag not in cio.SNR_TAGS:
                raise ValueError(
                    f"SNR target {t} is not in the supported set {cio.SNR_TAGS[1:]}"
                )
            if tags.count(tag) > 1:  # both copies would be written to one file
                raise ValueError(f"SNR target {t} repeats the tag {tag!r}")
        for label in self.structures:
            # labels name files and directories under output_dir
            if label in ("", ".", "..") or any(
                sep in label for sep in ("/", os.sep, os.altsep, "\0") if sep
            ):
                raise ValueError(
                    f"structure label {label!r} must be one plain path component"
                )
        # the nested fields placement takes from the top-level ones
        self.placement = dataclasses.replace(
            self.placement,
            seed=self.seed,
            target_count=self.particles_per_class * len(self.structures),
        )

    @classmethod
    def from_dict(cls, raw: dict) -> "PipelineConfig":
        """Build a config from parsed JSON; ``raw`` is left unchanged. Each
        section, then the top level, is read by ``io.from_row``. The
        placement fields ``__post_init__`` sets are refused at any value."""
        placement = raw.get("placement")
        for name in ("seed", "target_count"):
            if isinstance(placement, dict) and name in placement:
                raise ValueError(f"placement.{name} is set by the pipeline; leave it out")
        sections = {k: _read(ctor, raw[k], f"{k}: ") for k, ctor in _SECTIONS.items() if k in raw}
        return _read(cls, {**raw, **sections})

    @classmethod
    def from_json(cls, path, **overrides) -> "PipelineConfig":
        """Read a config file; ``overrides`` replace its top-level fields
        before ``from_dict`` checks them."""
        try:
            raw = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{path}: the top level must be a JSON object")
        return cls.from_dict({**raw, **overrides})

    def config_hash(self) -> str:
        """sha256 of the config as sorted-key JSON (tuples written as lists),
        without ``jobs``, which outputs do not depend on. The seed and the
        placement fields derived from it are in it, so configs that run
        alike hash alike."""
        fields = {k: v for k, v in dataclasses.asdict(self).items() if k != "jobs"}
        return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()).hexdigest()


@dataclass
class PipelineResult:
    output_dir: Path
    placed: int
    accepted: int
    rejections: list
    metadata_path: Path


def _usage(started: float) -> dict[str, float]:
    """Wall time since ``started`` (a ``time.perf_counter()`` reading) and
    this process's peak resident set size so far, in MB (10^6 bytes)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in bytes on macOS and in KiB elsewhere
    peak_mb = peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6
    return {"elapsed_s": round(time.perf_counter() - started, 4), "peak_rss_mb": round(peak_mb, 1)}


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


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    """Pearson correlation of two equal-shape arrays."""
    saa, sbb, sab = centred_sums(a, b)
    return float(sab / np.sqrt(saa * sbb))


def _mass_ratio(sample: DensityVolume, densities, instances) -> float:
    """The composed sample's sum over the summed sums of the placed maps."""
    sums = {label: float(d.data.sum(dtype=np.float64)) for label, d in densities.items()}
    placed = sum(sums[i.class_label] for i in instances)
    return float(sample.data.sum(dtype=np.float64)) / placed


def _subtomo_corr(accepted, sample: DensityVolume) -> dict[str, float | None]:
    """Median and minimum Pearson correlation of each accepted clean box
    with the same box (``crop_corner``, box size) of the composed sample;
    None when no box was accepted."""
    corrs = []
    for sub in accepted:
        box = tuple(slice(c, c + n) for c, n in zip(sub.crop_corner, sub.data.shape))
        corrs.append(_pearson(sub.data, sample.data[box]))
    if not corrs:
        return {"subtomo_corr_median": None, "subtomo_corr_min": None}
    return {"subtomo_corr_median": float(np.median(corrs)), "subtomo_corr_min": min(corrs)}


def run_pipeline(cfg: PipelineConfig) -> PipelineResult:
    """Run every stage and write all artifacts under cfg.output_dir.

    Layout: densities/<label>.mrc, instances.ndjson (the file ``cryoforge
    extract`` reads), tilt_series/{tilts.mrc, angles.ndjson} (the files
    ``cryoforge align`` and ``reconstruct`` read), alignment.ndjson,
    tomogram.mrc, subtomograms/<label>/<tag>/NNNN.mrc (tag in clean +
    configured SNRs), masks/, metadata.ndjson, rejections.ndjson,
    provenance.ndjson. It first removes these, and nothing else, so a rerun
    into the same directory keeps none of an earlier run's outputs.
    Each artifact is written inside the stage that produces it, so the
    run fails fast with that stage's name at the first error, a failed
    write included; provenance.ndjson is then written with the rows up to
    the failed stage's. Every stage runs with the config's sections as
    they are; project, extract and noise also take ``cfg.seed``.
    """
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("densities", "tilt_series", "subtomograms", "masks"):
        if (out / name).is_dir():
            shutil.rmtree(out / name)
    for name in ("instances.ndjson", "alignment.ndjson", "tomogram.mrc", "rejections.ndjson",
                 "metadata.ndjson", "provenance.ndjson"):
        if (out / name).is_file():
            (out / name).unlink()
    cfg_hash = cfg.config_hash()
    provenance: list[dict] = []

    @contextmanager
    def _stage(name, inputs=(), **fields):
        """Run the block as stage ``name`` and yield its provenance row.
        Fields set on the row after the block (array sizes, ground-truth
        scores) stay outside its elapsed time. A failed block's row gains
        ``error``, and provenance.ndjson is written before the StageError."""
        row = {"stage": name, "inputs": list(inputs), "config_hash": cfg_hash, "seed": cfg.seed}
        row.update(fields)
        provenance.append(row)
        started = time.perf_counter()
        try:
            yield row
        except Exception as exc:
            row.update(_usage(started), error=str(exc))
            with suppress(OSError):  # the stage's failure is the one to report
                cio.write_ndjson(provenance, out / "provenance.ndjson")
            raise StageError(name, exc) from exc
        row.update(_usage(started))

    # densify: one ground-truth density per class
    densities: dict[str, DensityVolume] = {}
    atoms = 0
    with _stage(
        "densify",
        inputs=sorted(cfg.structures.values()),
        versions={
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        thread_caps={name: os.environ.get(name) for name in _THREAD_CAPS},
    ) as row:
        (out / "densities").mkdir(exist_ok=True)
        for label, pdb_path in sorted(cfg.structures.items()):
            model = parse_pdb(Path(pdb_path).read_text())
            atoms += len(model.positions)
            densities[label] = densify(model, cfg.densify)
            cio.write_mrc(densities[label], out / "densities" / f"{label}.mrc")
    row.update(atoms=atoms, density_mb=sum(v.data.nbytes for v in densities.values()) / 1e6)

    # place: centers, labels, orientations, composed sample volume
    # placement stops short of target_count after max_attempts straight rejections
    with _stage("place", target_count=cfg.placement.target_count) as row:
        instances = place_particles(sorted(cfg.structures), cfg.placement)
        cio.write_ndjson(instances, out / "instances.ndjson")
    row.update(placed=len(instances))
    with _stage("compose") as row:
        sample = compose_sample(densities, instances, cfg.placement)
    row.update(
        sample_dims=list(sample.shape),
        sample_mb=sample.data.nbytes / 1e6,
        mass_ratio=_mass_ratio(sample, densities, instances),
    )

    # project: simulated tilt series with recorded drifts
    with _stage("project", jobs=cfg.jobs) as row:
        series = simulate_tilt_series(sample, cfg.tilt, seed=cfg.seed, jobs=cfg.jobs)
        cio.write_tilt_series(series, out / "tilt_series")
    row.update(
        stack_shape=list(series.projections.shape),
        stack_mb=series.projections.nbytes / 1e6,
        rows_projected=series.rows_projected,
    )

    # align + axis refinement
    n_tilts, H, W = series.projections.shape
    spectra_mb = 16 * n_tilts * H * (W // 2 + 1) / 1e6  # complex128 rfft2 stack
    with _stage("align", spectra_mb=spectra_mb) as row:
        align = align_series(series)
    row.update(_drift_rms_x(series.applied_shifts, align.shifts))
    with _stage("refine_axis"):
        align = AlignmentResult(align.shifts, refine_axis(series, align.shifts))
        cio.write_ndjson([align], out / "alignment.ndjson")

    # reconstruct
    with _stage("reconstruct", jobs=cfg.jobs) as row:
        recon = ReconConfig(output_dims=cfg.placement.volume_dims)
        tomo = wbp_reconstruct(series, align.shifts, recon, jobs=cfg.jobs)
        cio.write_mrc(tomo, out / "tomogram.mrc")
    row.update(
        output_dims=list(tomo.shape),
        tomogram_mb=tomo.data.nbytes / 1e6,
        tomo_corr=_pearson(tomo.data, sample.data),
    )

    # extract
    with _stage("extract") as row:
        accepted, rejections = extract(tomo, instances, cfg.extraction, seed=cfg.seed)
        cio.write_ndjson(rejections, out / "rejections.ndjson")
    row.update(_subtomo_corr(accepted, sample))

    # noise: clean references, masks, and per-SNR noisy copies
    records: list[cio.SubtomogramRecord] = []
    tags = [snr_tag(t) for t in cfg.snr_targets]
    snr_err = 0.0  # max |realized SNR / target - 1| so far
    with _stage("noise", extra_targets=tags) as row:
        (out / "masks").mkdir(exist_ok=True)
        for i, sub in enumerate(accepted):
            clean = DensityVolume(sub.data, tomo.voxel_size)
            mask = make_mask(clean, cfg.extraction).astype(np.float32)
            mask_path = out / "masks" / f"{i:04d}.mrc"
            cio.write_mrc(DensityVolume(mask, tomo.voxel_size), mask_path)
            noisy = add_noise(clean, cfg.snr_targets, seed=cfg.seed, index=i)
            c = clean.data.astype(np.float64)  # realized SNR: var(clean) / var(noisy - clean)
            signal = np.var(c)
            for vol, target in zip(noisy, cfg.snr_targets):  # float32 - float64 is float64
                snr_err = max(snr_err, abs(signal / np.var(vol.data - c) / target - 1.0))
            for tag, vol in zip(["clean", *tags], [clean, *noisy]):
                path = out / "subtomograms" / sub.class_label / tag / f"{i:04d}.mrc"
                records.append(cio.write_subtomogram(vol, sub, path, out, tag, mask_path))
    row.update(snr_err=float(snr_err))

    metadata_path = out / "metadata.ndjson"
    cio.write_ndjson(records, metadata_path)
    cio.write_ndjson(provenance, out / "provenance.ndjson")
    return PipelineResult(
        output_dir=out,
        placed=len(instances),
        accepted=len(accepted),
        rejections=rejections,
        metadata_path=metadata_path,
    )
