"""Virtual sample construction: Poisson-disk particle placement with hard
exclusion spheres, uniform SO(3) orientations (Shoemake quaternions), and
composition of rotated particle densities into a simulation volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import quat_to_matrix, rigid_operator, unit_quaternion
from .volume import DensityVolume, float_in, int_at_least, three_ints


@dataclass(frozen=True)
class PlacementConfig:
    volume_dims: tuple[int, int, int] = (200, 500, 500)  # (D, H, W) voxels
    box_size: int = 32
    safety_margin: int = 3
    target_count: int = 1
    max_attempts: int = 10_000
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "volume_dims", three_ints(self.volume_dims, "volume_dims"))
        lows = {"box_size": 1, "safety_margin": 0, "target_count": 1, "max_attempts": 1, "seed": 0}
        for name, low in lows.items():
            object.__setattr__(self, name, int_at_least(getattr(self, name), name, low))

    @property
    def exclusion_radius(self) -> float:
        """Hard exclusion sphere radius: half the box plus the margin."""
        return self.box_size / 2.0 + self.safety_margin


@dataclass
class ParticleInstance:
    class_label: str
    center: np.ndarray  # (d, h, w) voxels, real-valued
    orientation: np.ndarray  # unit quaternion (w, x, y, z)

    def __post_init__(self):
        self.center = np.asarray(self.center, dtype=float).reshape(3)
        for v in self.center.tolist():
            float_in(v, "center", "(-inf, inf)")
        self.orientation = unit_quaternion(self.orientation)


def shoemake_quaternion(rng: np.random.Generator) -> np.ndarray:
    """Draw a uniform random rotation as a unit quaternion (w, x, y, z).

    From three uniform deviates u1, u2, u3 in [0, 1):
    (x, y, z, w) = (sqrt(1-u1) sin 2pi u2, sqrt(1-u1) cos 2pi u2,
                    sqrt(u1) sin 2pi u3,   sqrt(u1) cos 2pi u3).
    """
    u1, u2, u3 = rng.random(3)
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    t2, t3 = 2.0 * np.pi * u2, 2.0 * np.pi * u3
    x = a * np.sin(t2)
    y = a * np.cos(t2)
    z = b * np.sin(t3)
    w = b * np.cos(t3)
    return np.array([w, x, y, z])


def poisson_disk_sample(cfg: PlacementConfig) -> list[np.ndarray]:
    """Dart-throwing Poisson-disk centers inside the volume interior.

    Every accepted pair of centers is at least the exclusion radius apart
    and every center keeps the exclusion radius from each boundary face.
    Each candidate is checked against all accepted centers at once; a
    spatial grid pays off only at thousands of centers. Sampling stops at
    target_count or after max_attempts consecutive rejections.
    """
    r_ex = cfg.exclusion_radius
    dims = np.asarray(cfg.volume_dims, dtype=float)
    lo = np.full(3, r_ex)
    hi = dims - r_ex
    if np.any(hi < lo):
        raise ValueError(
            f"volume {cfg.volume_dims} too small for exclusion radius {r_ex}"
        )
    rng = np.random.default_rng(cfg.seed)
    accepted = np.empty((0, 3))
    rejections = 0
    while len(accepted) < cfg.target_count and rejections < cfg.max_attempts:
        candidate = lo + rng.random(3) * (hi - lo)
        if np.any(np.linalg.norm(accepted - candidate, axis=1) < r_ex):
            rejections += 1
            continue
        rejections = 0
        accepted = np.vstack([accepted, candidate])
    return list(accepted)


def place_particles(class_labels: list[str], cfg: PlacementConfig) -> list[ParticleInstance]:
    """Sample centers and pair each with a class label and random pose.

    Labels cycle through the provided list; the orientation stream shares
    the placement seed so the full instance list is reproducible.
    """
    centers = poisson_disk_sample(cfg)
    rng = np.random.default_rng((cfg.seed, 0x5E3D))
    instances = []
    for i, center in enumerate(centers):
        label = class_labels[i % len(class_labels)]
        instances.append(ParticleInstance(label, center, shoemake_quaternion(rng)))
    return instances


def compose_sample(
    density_by_class: dict[str, DensityVolume],
    instances: list[ParticleInstance],
    cfg: PlacementConfig,
) -> DensityVolume:
    """Sum rotated, translated particle densities into one volume.

    Each instance's class density is rotated by its quaternion about the
    density's geometric center and translated so that center lands on the
    instance center through ``geometry.rigid_operator`` (trilinear); voxels
    outside every particle stay 0, and the float64 sum, taken in instance
    order, is cast to float32 once. The sample takes the class maps' one
    voxel size; maps that differ raise ValueError.
    """
    labels = list(density_by_class)
    voxel_size = density_by_class[labels[0]].voxel_size if labels else 1.0
    for label in labels[1:]:
        if density_by_class[label].voxel_size != voxel_size:
            raise ValueError(
                f"class maps {labels[0]!r} and {label!r} have different voxel sizes: "
                f"{voxel_size} and {density_by_class[label].voxel_size}"
            )
    dims = cfg.volume_dims
    out = np.zeros(dims, dtype=np.float64)
    for idx, inst in enumerate(instances):
        if inst.class_label not in density_by_class:
            raise KeyError(f"no density registered for class {inst.class_label!r}")
        src = density_by_class[inst.class_label].data
        box = np.array(src.shape)
        # center voxel index; integer so integer-aligned placement is exact
        c_src = (box // 2).astype(float)
        corner = np.round(inst.center).astype(int) - box // 2
        if np.any(corner < 0) or np.any(corner + box > dims):
            raise ValueError(
                f"instance {idx} ({inst.class_label}) footprint exceeds the volume"
            )
        R_inv = quat_to_matrix(inst.orientation).T
        # local box coordinate o samples src at R^-1 (o + corner - center) + c_src
        offset = R_inv @ (corner - inst.center) + c_src
        patch = rigid_operator(src.shape, R_inv, offset).apply(src).reshape(src.shape)
        sl = tuple(slice(corner[a], corner[a] + box[a]) for a in range(3))
        out[sl] += patch
    return DensityVolume(out.astype(np.float32), voxel_size)
