"""SO(3)/SE(3) utilities: rotation parameterizations, conversions, rigid
volume transforms, and the geodesic rotation error.

Conventions used throughout the package:

- rotation matrices are 3x3, right-handed, column-vector (R @ v),
- quaternions are (w, x, y, z) with unit norm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .volume import float_in


def _check_rotation(R: np.ndarray, name: str) -> None:
    if R.shape != (3, 3):
        raise ValueError(f"{name} must be a 3x3 matrix, got shape {R.shape}")
    # "not (err <= 1e-6)": a NaN entry makes both errors NaN and fails it
    if not (np.abs(R.T @ R - np.eye(3)).max() <= 1e-6 and abs(np.linalg.det(R) - 1.0) <= 1e-6):
        raise ValueError(f"{name} is not a rotation (orthogonality/det check failed)")


def unit_quaternion(q) -> np.ndarray:
    """The orientation ``q`` as a float (4,) array; a ValueError unless it
    is a (w, x, y, z) quaternion of unit norm within 1e-9 (NaN and inf fail)."""
    q = np.asarray(q, dtype=float)
    if q.shape != (4,) or not abs(np.linalg.norm(q) - 1.0) <= 1e-9:
        raise ValueError(f"orientation must be a unit quaternion (w, x, y, z), got {q.tolist()}")
    return q


def gso_to_matrix(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Decode the 6D (two free vectors) representation by Gram-Schmidt,
    over any leading axes: (..., 3) vectors give (..., 3, 3) rotations.

    The first vector is normalized, the second has its projection on the
    first removed and is normalized, and the third column is their cross
    product, yielding a proper rotation. A row is degenerate when |v1| or
    |u2| / max(1, |v2|) is at most 1e-9, u2 being v2 minus its projection.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n1 = np.linalg.norm(v1, axis=-1, keepdims=True)
    if np.any(n1 <= 1e-9):
        raise ValueError("first vector is (near-)zero")
    e1 = v1 / n1
    u2 = v2 - np.sum(v2 * e1, axis=-1, keepdims=True) * e1
    n2 = np.linalg.norm(u2, axis=-1, keepdims=True)
    if np.any(n2 <= 1e-9 * np.maximum(1.0, np.linalg.norm(v2, axis=-1, keepdims=True))):
        raise ValueError("second vector is (near-)parallel to the first")
    e2 = u2 / n2
    e3 = np.cross(e1, e2)
    return np.stack([e1, e2, e3], axis=-1)


def svd_to_matrix(M: np.ndarray) -> np.ndarray:
    """Project unconstrained 3x3 matrices onto SO(3), over any leading
    axes (..., 3, 3).

    Uses U @ diag(1, 1, det(U V^T)) @ V^T, the Frobenius-closest rotation.
    Idempotent on rotation inputs and invariant to uniform positive scaling.
    """
    M = np.asarray(M, dtype=float)
    U, S, Vt = np.linalg.svd(M)
    if np.any(S[..., -1] <= 1e-9):
        raise ValueError("rank-deficient matrix: projection not unique")
    d = np.sign(np.linalg.det(U @ Vt))
    scale = np.ones(M.shape[:-2] + (3,))
    scale[..., 2] = d
    return (U * scale[..., None, :]) @ Vt


def quat_to_matrix(q: np.ndarray) -> np.ndarray:
    """Rotation matrix of a unit quaternion (w, x, y, z)."""
    q = np.asarray(q, dtype=float)
    w, x, y, z = q / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotation_error(R_est: np.ndarray, R_gt: np.ndarray) -> float:
    """Geodesic rotation error in degrees, bounded to [0, 180].

    arccos((trace(R_est^T R_gt) - 1) / 2), with the argument clamped so
    floating-point round-off cannot push it outside [-1, 1].
    """
    R_est = np.asarray(R_est, dtype=float)
    R_gt = np.asarray(R_gt, dtype=float)
    _check_rotation(R_est, "R_est")
    _check_rotation(R_gt, "R_gt")
    arg = (np.trace(R_est.T @ R_gt) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(arg, -1.0, 1.0))))


@dataclass
class RigidTransform:
    """Rotation about the volume center followed by a translation (voxels)."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        _check_rotation(self.rotation, "rotation")
        if self.translation.shape != (3,):
            raise ValueError(f"translation must have shape (3,), got {self.translation.shape}")
        for v in self.translation.tolist():
            float_in(v, "translation", "(-inf, inf)")


_TAP_PAD = 2  # zero border the taps read: a sample's lower node is clipped to [-2, size]


@dataclass(frozen=True)
class RigidOperator:
    """Trilinear taps of output(x) = input(R^-1 x + offset) on one (D, H, W)
    grid, built once by :func:`rigid_operator` (for :func:`apply_rigid` and
    ``scene.compose_sample``) and applied to any number of volumes on it.

    The taps read the volume zero-padded by ``_TAP_PAD`` on every side.
    Output voxel i's lower corner is padded voxel ``corner[i]`` (C-order
    flat index); its tap k = 4 bit_d + 2 bit_h + bit_w lies ``steps[k]``
    further on and has the axis weights ``weights[0, bit_d, i]``,
    ``weights[1, bit_h, i]`` and ``weights[2, bit_w, i]``.
    """

    shape: tuple[int, int, int]
    corner: np.ndarray  # intp (N,)
    steps: tuple[int, ...]  # 8 flat offsets
    weights: np.ndarray  # float64 (3, 2, N): lower and upper weight per axis

    def apply(self, volume: np.ndarray) -> np.ndarray:
        """Resample one (D, H, W) volume into a flat float64 (N,) array.

        Each tap's sample is multiplied by its d, h and w weight in turn
        and the taps are summed in order from 0.0: the arithmetic of
        ``ndimage.affine_transform(order=1, mode="grid-constant")``, so
        the result is bit-equal to it.
        """
        volume = np.asarray(volume)
        if volume.shape != self.shape:
            raise ValueError(f"volume has shape {volume.shape}, the operator {self.shape}")
        padded = np.zeros(tuple(size + 2 * _TAP_PAD for size in self.shape))
        padded[_TAP_PAD:-_TAP_PAD, _TAP_PAD:-_TAP_PAD, _TAP_PAD:-_TAP_PAD] = volume
        padded = padded.ravel()
        out = np.zeros(len(self.corner))
        tap = np.empty_like(out)
        for step, bits in zip(self.steps, itertools.product((0, 1), repeat=3)):
            # every tap lies in the padded grid (rigid_operator clips the
            # corners), so "clip" only skips the bounds check
            np.take(padded[step:], self.corner, out=tap, mode="clip")
            for axis, bit in enumerate(bits):
                tap *= self.weights[axis, bit]
            out += tap
        return out


def rigid_operator(
    shape: tuple[int, int, int], R_inv: np.ndarray, offset: np.ndarray
) -> RigidOperator:
    """Trilinear taps of output(x) = input(R_inv x + offset) on a (D, H, W) grid:
    :func:`apply_rigid` passes R^-1 and c - R^-1 c - t, c the grid center,
    and ``scene.compose_sample`` each particle's R^-1 and box offset.

    A tap outside the grid reads 0 (scipy's ``grid-constant`` mode), so a
    sample a hair outside the grid is interpolated against 0 instead of
    dropped, and right-angle rotations stay index-exact. The coordinates
    and weights are formed in scipy's order: the offset plus each column
    of R_inv times its grid index in turn, the lower weight as
    1 - frac and the upper one as 1 - lower.
    """
    D, H, W = shape
    n = D * H * W
    d, h, w = np.ogrid[:D, :H, :W]
    strides = ((H + 2 * _TAP_PAD) * (W + 2 * _TAP_PAD), W + 2 * _TAP_PAD, 1)
    weights = np.empty((3, 2, n))
    corner = np.zeros(n)  # padded flat index of the lower corner, exact in float64
    for axis, (size, stride) in enumerate(zip(shape, strides)):
        coord = ((offset[axis] + R_inv[axis, 0] * d) + R_inv[axis, 1] * h) + R_inv[axis, 2] * w
        coord = coord.ravel()
        node = np.floor(coord)
        frac = np.subtract(coord, node, out=coord)
        np.subtract(1.0, frac, out=weights[axis, 0])
        np.subtract(1.0, weights[axis, 0], out=weights[axis, 1])
        # clipped, a sample far outside the grid reads only the zero border
        np.clip(node, -_TAP_PAD, size, out=node)
        node += _TAP_PAD
        node *= stride
        corner += node
    steps = tuple(int(np.dot(bits, strides)) for bits in itertools.product((0, 1), repeat=3))
    return RigidOperator(tuple(shape), corner.astype(np.intp), steps, weights)


def apply_rigid(data: np.ndarray, transform: RigidTransform) -> np.ndarray:
    """Resample a (D, H, W) volume, or each volume of a (V, D, H, W) stack,
    under a rigid transform about the volume center.

    output(x) = input(R^-1 (x - c) + c - t), trilinear, out-of-bounds
    sampled as 0. The taps (:func:`rigid_operator`) are built once and
    applied to every volume in float64; the result is cast back to the
    input dtype.
    """
    data = np.asarray(data)
    if data.ndim not in (3, 4):
        raise ValueError(f"data must be (D, H, W) or (V, D, H, W), got shape {data.shape}")
    R_inv, center = transform.rotation.T, (np.array(data.shape[-3:]) - 1.0) / 2.0
    op = rigid_operator(data.shape[-3:], R_inv, center - R_inv @ center - transform.translation)
    out = np.stack([op.apply(volume) for volume in data.reshape((-1,) + op.shape)])
    return out.reshape(data.shape).astype(data.dtype, copy=False)
