"""Subtomogram extraction, particle masks, and SNR-calibrated noise.

Crops fixed-size cubes around known particle centers with integer jitter,
skipping candidates that exit the tomogram or sit too close to another
recorded center, and produces noisy replicas with sigma^2 = v_sig / SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import ParticleInstance
from .volume import DensityVolume

SNR_TARGETS = (100.0, 0.1, 0.05, 0.03, 0.01)  # the supported SNR grades


def snr_tag(target: float) -> str:
    """Directory/metadata tag for an SNR target (e.g. 0.05 -> '0.05')."""
    return f"{target:g}"


class DegenerateSignalError(ValueError):
    """Zero-variance input cannot be SNR-calibrated."""


@dataclass
class ExtractionConfig:
    box: int = 32
    jitter_range: int = 2  # +/- voxels, integer, per axis
    neighbor_exclusion: float = 17.0
    seed: int = 0
    mask_threshold: float = 0.05  # fraction of the particle peak

    def __post_init__(self):
        if self.box < 8:
            raise ValueError("box must be >= 8")
        if not 0 < self.neighbor_exclusion < np.inf:  # NaN would accept every neighbour
            raise ValueError(
                f"neighbor_exclusion must be finite and positive, got {self.neighbor_exclusion!r}"
            )
        if self.jitter_range < 0:
            raise ValueError("jitter_range must be >= 0")
        if not 0 < self.mask_threshold <= 1:  # NaN included
            raise ValueError(f"mask_threshold must be in (0, 1], got {self.mask_threshold!r}")


@dataclass
class NoiseSpec:
    snr_target: float
    seed: int = 0

    def __post_init__(self):
        if not self.snr_target > 0:
            raise ValueError("snr_target must be positive")


@dataclass
class ExtractedSubtomogram:
    data: np.ndarray  # (box, box, box) float32
    class_label: str
    center_offset: tuple[int, int, int]  # jitter actually applied (d, h, w)
    orientation: tuple[float, float, float, float]
    crop_corner: tuple[int, int, int]


@dataclass
class Rejection:
    instance_index: int
    class_label: str
    reason: str  # "boundary" or "neighbor"


def extract(
    tomo: DensityVolume,
    instances: list[ParticleInstance],
    cfg: ExtractionConfig,
) -> tuple[list[ExtractedSubtomogram], list[Rejection]]:
    """Crop one cube per accepted instance, in input order.

    Jitter is an independent integer draw per axis keyed by (seed, index).
    A candidate is skipped when the cube would exit the tomogram
    ("boundary") or when any other recorded center lies within the
    exclusion distance of the jittered crop center ("neighbor").
    """
    dims = np.array(tomo.shape)
    half = cfg.box // 2
    centers = np.array([inst.center for inst in instances]) if instances else np.zeros((0, 3))
    accepted: list[ExtractedSubtomogram] = []
    rejections: list[Rejection] = []
    for idx, inst in enumerate(instances):
        rng = np.random.default_rng((cfg.seed, idx))
        jitter = rng.integers(-cfg.jitter_range, cfg.jitter_range + 1, size=3)
        crop_center = np.round(inst.center).astype(int) + jitter
        corner = crop_center - half
        if np.any(corner < 0) or np.any(corner + cfg.box > dims):
            rejections.append(Rejection(idx, inst.class_label, "boundary"))
            continue
        if len(instances) > 1:
            others = np.delete(centers, idx, axis=0)
            if np.min(np.linalg.norm(others - crop_center, axis=1)) < cfg.neighbor_exclusion:
                rejections.append(Rejection(idx, inst.class_label, "neighbor"))
                continue
        sl = tuple(slice(corner[a], corner[a] + cfg.box) for a in range(3))
        accepted.append(
            ExtractedSubtomogram(
                data=tomo.data[sl].copy(),
                class_label=inst.class_label,
                center_offset=tuple(int(j) for j in jitter),
                orientation=tuple(float(v) for v in inst.orientation),
                crop_corner=tuple(int(c) for c in corner),
            )
        )
    return accepted, rejections


def make_mask(particle_density: DensityVolume, cfg: ExtractionConfig) -> np.ndarray:
    """Binary particle mask: 1 where density >= threshold * peak.

    An all-zero density yields an all-zero mask (no particle voxels).
    """
    data = particle_density.data
    peak = float(data.max())
    if peak <= 0:
        return np.zeros_like(data, dtype=np.uint8)
    return (data >= cfg.mask_threshold * peak).astype(np.uint8)


def signal_variance(clean: DensityVolume) -> float:
    """Population voxel variance of the clean signal over the full crop,
    background included."""
    v = float(np.var(clean.data.astype(np.float64)))
    if v <= 0:
        raise DegenerateSignalError("clean volume has zero variance")
    return v


def noise_field(shape: tuple[int, ...], sigma: float, seed) -> np.ndarray:
    """The exact Gaussian field add_noise draws for a given seed."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, sigma, size=shape)


def add_noise(clean: DensityVolume, spec: NoiseSpec) -> DensityVolume:
    """Add zero-mean Gaussian noise calibrated to the target SNR.

    sigma^2 = v_sig / snr_target with v_sig the voxel variance of the
    clean volume, so the realized SNR matches the target in expectation.
    Deterministic per spec.seed; the noise field is regenerable via
    :func:`noise_field`.
    """
    noise = noise_field(clean.data.shape, noise_sigma(clean, spec), spec.seed)
    noisy = clean.data.astype(np.float64) + noise
    return clean.with_data(noisy.astype(np.float32))


def noise_sigma(clean: DensityVolume, spec: NoiseSpec) -> float:
    """Noise standard deviation used for this clean volume and target."""
    return float(np.sqrt(signal_variance(clean) / spec.snr_target))
