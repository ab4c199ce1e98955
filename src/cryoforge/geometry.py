"""SO(3)/SE(3) utilities: rotation parameterizations, conversions, rigid
volume transforms, and alignment error metrics.

Conventions used throughout the package:

- rotation matrices are 3x3, right-handed, column-vector (R @ v),
- Euler angles (alpha, beta, gamma) compose extrinsically as
  R = Rz(gamma) @ Ry(beta) @ Rx(alpha),
- quaternions are (w, x, y, z) with unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage


class DegenerateRepresentationError(ValueError):
    """Raised when a rotation representation cannot be decoded uniquely."""


def _check_rotation(R: np.ndarray, tol: float = 1e-6) -> None:
    if np.abs(R.T @ R - np.eye(3)).max() > tol or abs(np.linalg.det(R) - 1.0) > tol:
        raise ValueError("matrix is not a rotation (orthogonality/det check failed)")


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def euler_to_matrix(alpha: float, beta: float, gamma: float) -> np.ndarray:
    """Build R = Rz(gamma) @ Ry(beta) @ Rx(alpha) (extrinsic x-y-z)."""
    return rot_z(gamma) @ rot_y(beta) @ rot_x(alpha)


def matrix_to_euler(R: np.ndarray) -> tuple[float, float, float]:
    """Inverse of :func:`euler_to_matrix` on the beta in [-pi/2, pi/2] branch.

    At gimbal lock (|cos beta| ~ 0) gamma is pinned to 0 so the inverse is
    deterministic; the returned angles always rebuild the same matrix even
    when they differ from the angles that produced it.
    """
    R = np.asarray(R, dtype=float)
    sb = np.clip(-R[2, 0], -1.0, 1.0)
    beta = float(np.arcsin(sb))
    if abs(np.cos(beta)) < 1e-9:
        # gimbal lock: only alpha -/+ gamma is determined; pin gamma = 0
        gamma = 0.0
        if sb > 0:
            alpha = float(np.arctan2(R[0, 1], R[0, 2]))
        else:
            alpha = float(np.arctan2(-R[0, 1], -R[0, 2]))
    else:
        alpha = float(np.arctan2(R[2, 1], R[2, 2]))
        gamma = float(np.arctan2(R[1, 0], R[0, 0]))
    return alpha, beta, gamma


def gso_to_matrix(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Decode one 6D representation: one row of :func:`gso_to_matrix_batch`."""
    return gso_to_matrix_batch([v1], [v2])[0]


def gso_to_matrix_batch(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    """Decode the 6D (two free vectors) representation by Gram-Schmidt,
    over leading batch axes (N, 3).

    The first vector is normalized, the second has its projection on the
    first removed and is normalized, and the third column is their cross
    product, yielding a proper rotation. A row is degenerate when |v1| or
    |u2| / max(1, |v2|) is at most 1e-9, u2 being v2 minus its projection.
    """
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n1 = np.linalg.norm(v1, axis=-1, keepdims=True)
    if np.any(n1 <= 1e-9):
        raise DegenerateRepresentationError("first vector is (near-)zero")
    e1 = v1 / n1
    u2 = v2 - np.sum(v2 * e1, axis=-1, keepdims=True) * e1
    n2 = np.linalg.norm(u2, axis=-1, keepdims=True)
    if np.any(n2 <= 1e-9 * np.maximum(1.0, np.linalg.norm(v2, axis=-1, keepdims=True))):
        raise DegenerateRepresentationError("second vector is (near-)parallel to the first")
    e2 = u2 / n2
    e3 = np.cross(e1, e2)
    return np.stack([e1, e2, e3], axis=-1)


def svd_to_matrix(M: np.ndarray) -> np.ndarray:
    """Project one 3x3 matrix onto SO(3): one matrix of :func:`svd_to_matrix_batch`."""
    return svd_to_matrix_batch([M])[0]


def svd_to_matrix_batch(M: np.ndarray) -> np.ndarray:
    """Project unconstrained 3x3 matrices onto SO(3), over a leading batch
    axis (N, 3, 3).

    Uses U @ diag(1, 1, det(U V^T)) @ V^T, the Frobenius-closest rotation.
    Idempotent on rotation inputs and invariant to uniform positive scaling.
    """
    M = np.asarray(M, dtype=float)
    U, S, Vt = np.linalg.svd(M)
    if np.any(S[..., -1] <= 1e-9):
        raise DegenerateRepresentationError("rank-deficient matrix: projection not unique")
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


def matrix_to_quat(R: np.ndarray) -> np.ndarray:
    """Unit quaternion (w, x, y, z) of a rotation matrix, w >= 0 branch."""
    R = np.asarray(R, dtype=float)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(R[i, i] - R[j, j] - R[k, k] + 1.0) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    if q[0] < 0:
        q = -q
    return q / np.linalg.norm(q)


def rotation_error(R_est: np.ndarray, R_gt: np.ndarray) -> float:
    """Geodesic rotation error in degrees, bounded to [0, 180].

    arccos((trace(R_est^T R_gt) - 1) / 2), with the argument clamped so
    floating-point round-off cannot push it outside [-1, 1].
    """
    R_est = np.asarray(R_est, dtype=float)
    R_gt = np.asarray(R_gt, dtype=float)
    _check_rotation(R_est)
    _check_rotation(R_gt)
    arg = (np.trace(R_est.T @ R_gt) - 1.0) / 2.0
    return float(np.degrees(np.arccos(np.clip(arg, -1.0, 1.0))))


def translation_error(t_est: np.ndarray, t_gt: np.ndarray) -> float:
    """Euclidean distance between estimated and ground-truth translations."""
    return float(np.linalg.norm(np.asarray(t_est, dtype=float) - np.asarray(t_gt, dtype=float)))


@dataclass
class RigidTransform:
    """Rotation about the volume center followed by a translation (voxels)."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        _check_rotation(self.rotation)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """self after other: applying the composite through apply_rigid matches
        applying other first and then self, sharing its about-center sampling
        convention output(x) = input(R^-1 (x - c) + c - t)."""
        return RigidTransform(
            rotation=self.rotation @ other.rotation,
            translation=other.translation + other.rotation.T @ self.translation,
        )


def apply_rigid(data: np.ndarray, transform: RigidTransform, order: int = 1) -> np.ndarray:
    """Resample a volume under a rigid transform about its center.

    output(x) = input(R^-1 (x - c) + c - t), trilinear by default,
    out-of-bounds sampled as 0.
    """
    data = np.asarray(data)
    R_inv = transform.rotation.T
    center = (np.array(data.shape, dtype=float) - 1.0) / 2.0
    offset = center - R_inv @ center - transform.translation
    out = ndimage.affine_transform(
        data.astype(np.float64),
        R_inv,
        offset=offset,
        order=order,
        # grid-constant keeps samples an epsilon outside the grid interpolated
        # against 0 instead of snapping the whole voxel to 0, so right-angle
        # rotations stay index-exact
        mode="grid-constant",
        cval=0.0,
        prefilter=(order > 1),
    )
    return out.astype(data.dtype, copy=False)
