"""Subtomogram extraction, particle masks, and SNR-calibrated noise.

Crops fixed-size cubes around known particle centers with integer jitter,
skipping candidates that exit the tomogram or sit too close to another
recorded center, and produces one noisy copy per SNR target with
sigma^2 = v_sig / SNR, v_sig computed once per box for all of its copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scene import ParticleInstance
from .volume import DensityVolume, float_in, int_at_least

SNR_TARGETS = (100.0, 0.1, 0.05, 0.03, 0.01)  # the supported SNR grades


def snr_tag(target: float) -> str:
    """Directory/metadata tag for an SNR target (e.g. 0.05 -> '0.05')."""
    return f"{target:g}"


@dataclass(frozen=True)
class ExtractionConfig:
    box: int = 32
    jitter_range: int = 2  # +/- voxels, integer, per axis
    neighbor_exclusion: float = 17.0
    mask_threshold: float = 0.05  # fraction of the particle peak

    def __post_init__(self):
        object.__setattr__(self, "box", int_at_least(self.box, "box", 8))
        float_in(self.neighbor_exclusion, "neighbor_exclusion", "(0, inf)")
        object.__setattr__(self, "jitter_range", int_at_least(self.jitter_range, "jitter_range", 0))
        float_in(self.mask_threshold, "mask_threshold", "(0, 1]")


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
    seed: int = 0,
) -> tuple[list[ExtractedSubtomogram], list[Rejection]]:
    """Crop one cube per accepted instance, in input order.

    Instance k's jitter is an independent integer draw per axis from the
    stream keyed by (seed, k).
    A candidate is skipped when the cube would exit the tomogram
    ("boundary") or when any other recorded center lies within the
    exclusion distance of the jittered crop center ("neighbor").
    """
    seed = int_at_least(seed, "seed", 0)
    dims = np.array(tomo.shape)
    half = cfg.box // 2
    centers = np.array([inst.center for inst in instances]) if instances else np.zeros((0, 3))
    accepted: list[ExtractedSubtomogram] = []
    rejections: list[Rejection] = []
    for idx, inst in enumerate(instances):
        rng = np.random.default_rng((seed, idx))
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
        raise ValueError("clean volume has zero variance")
    return v


def noise_field(shape: tuple[int, ...], sigma: float, seed) -> np.ndarray:
    """The exact Gaussian field add_noise draws for a given seed."""
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, sigma, size=shape)


def add_noise(
    clean: DensityVolume, snr_targets, seed: int = 0, index: int = 0
) -> list[DensityVolume]:
    """One copy of ``clean`` per SNR target, in order, plus zero-mean
    Gaussian noise calibrated to that target.

    sigma^2 = v_sig / target with v_sig the voxel variance of the clean
    volume, computed once per call, so the realized SNR matches the target
    in expectation. Copy j of box ``index`` draws from the stream keyed by
    (seed, index, j); ``SeedSequence`` drops trailing zero words, so copy 0
    of box 0 is the stream of ``seed`` alone. Its noise field is
    regenerable via :func:`noise_field`.
    """
    seed, index = int_at_least(seed, "seed", 0), int_at_least(index, "index", 0)
    targets = [float_in(t, "snr_target", "(0, inf)") for t in snr_targets]
    if not targets:
        return []
    v_sig = signal_variance(clean)
    copies = []
    for j, target in enumerate(targets):
        noise = noise_field(clean.shape, float(np.sqrt(v_sig / target)), (seed, index, j))
        noise += clean.data  # float64 + float32, exact as clean.data.astype(float64) + noise
        copies.append(clean.with_data(noise.astype(np.float32)))
    return copies
