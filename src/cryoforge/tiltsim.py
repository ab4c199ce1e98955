"""Tilt-series acquisition simulator.

The volume is projected with cubic B-spline interpolation along beams
rotated about the detector y-axis (the h-axis), sampled at an oversampled
step and summed; each projection is then perturbed by a random sub-pixel
in-plane shift applied in Fourier space so the ground-truth drift is
exactly recoverable.

The spline coefficients are computed once per series, prefiltered in
(d, w) only. The tilt axis is an identity axis and a cubic spline
reproduces its data at integer nodes (Unser, IEEE Signal Process. Mag.,
1999), so every detector row is the same linear functional of its own
(d, w) coefficient slice. Each angle therefore builds one sparse beam
operator, the spline tap weights of its beam samples summed per detector
column, and projects all rows with one sparse-dense product: no 3D
resampled grid is ever formed.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage, sparse

from .volume import DensityVolume

PAD = 4  # zero padding of d and w, at least the cubic B-spline's support


def default_angles(start: float = -60.0, stop: float = 60.0, step: float = 2.0) -> list[float]:
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


def pretraining_angles() -> list[float]:
    return default_angles(-90.0, 90.0, 2.0)


@dataclass
class TiltGeometry:
    angles: list[float] = field(default_factory=default_angles)
    oversample: int = 2
    shift_range: float = 1.0
    seed: int = 0
    noise_sigma: float = 0.0  # optional tilt-level noise hook, off by default

    def __post_init__(self):
        self.angles = [float(a) for a in self.angles]
        diffs = np.diff(self.angles)
        if len(self.angles) > 1:
            if np.any(diffs <= 0):
                raise ValueError("tilt angles must be strictly increasing")
            if np.ptp(diffs) > 1e-9:
                raise ValueError("tilt angle step must be uniform")
        if self.oversample < 1:
            raise ValueError("oversample must be >= 1")


@dataclass
class TiltSeries:
    geometry: TiltGeometry
    projections: list[np.ndarray]
    applied_shifts: list[tuple[float, float]]
    recovered_shifts: list[tuple[float, float]] | None = None
    voxel_size: float = 1.0  # Angstrom per detector pixel, as in the volume

    def __post_init__(self):
        n = len(self.geometry.angles)
        if len(self.projections) != n or len(self.applied_shifts) != n:
            raise ValueError("projections/applied_shifts must match the angle count")

    def zero_angle_index(self) -> int:
        return int(np.argmin(np.abs(self.geometry.angles)))


def _spline_coefficients(vol: DensityVolume) -> np.ndarray:
    """Cubic B-spline coefficients of the volume for `_beam_operator`.

    The volume is zero-padded by ``PAD`` in d and w, so the interpolant's
    compact support lies inside the sampled domain, and prefiltered along
    (d, w) only: the tilt axis h is sampled at its integer nodes, where a
    cubic spline reproduces its data, so h needs no filtering. The result
    is float64 laid out (d, w, h), so ``coeffs.reshape(-1, H)`` is a view
    whose rows are (d, w) nodes.
    """
    D, H, W = vol.shape
    coeffs = np.zeros((D + 2 * PAD, W + 2 * PAD, H))
    coeffs[PAD:-PAD, PAD:-PAD, :] = vol.data.transpose(0, 2, 1)
    for axis in (0, 1):
        ndimage.spline_filter1d(coeffs, order=3, axis=axis, output=coeffs, mode="constant")
    return coeffs


def _cubic_taps(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node indices and weights, each (len(x), 4), of the cubic B-spline
    taps at coordinates x in [0, n - 1]; taps past either end are mirrored
    onto the grid (period 2n - 2), as scipy does for ``mode="constant"``."""
    base = np.floor(x)
    t = (x - base)[:, None]
    idx = base.astype(np.int64)[:, None] + np.arange(-1, 3)
    idx = np.abs(idx)
    idx = np.where(idx > n - 1, 2 * (n - 1) - idx, idx)
    u = 1.0 - t
    weights = np.hstack(
        [u**3, 4.0 - 3.0 * t * t * (1.0 + u), 4.0 - 3.0 * u * u * (1.0 + t), t**3]
    ) / 6.0
    return idx, weights


def _beam_operator(shape: tuple[int, int, int], angle_deg: float, oversample: int):
    """Sparse beam-sum operator of one tilt for a (D, H, W) volume.

    Row w of the returned CSR matrix, shape (W, (D + 8)(W + 8)), holds for
    detector column w the 16 cubic B-spline tap weights on the padded
    (d, w) coefficient nodes of every beam sample, each divided by
    ``oversample``. Beam samples lie on the rotated box's full z-extent at
    an ``oversample``-times finer step; samples outside the padded grid
    contribute 0. The tilt axis h is an identity axis, so the same
    operator serves every detector row.
    """
    if abs(angle_deg) > 90.0:
        raise ValueError("tilt angle must satisfy |angle| <= 90 degrees")
    D, _, W = shape
    Dp, Wp = D + 2 * PAD, W + 2 * PAD
    os_ = oversample
    theta = np.radians(angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    cd, cw = (Dp - 1) / 2.0, (Wp - 1) / 2.0

    # beam extent of the rotated (padded) bounding box
    zhalf = abs(c) * (Dp - 1) / 2.0 + abs(s) * (Wp - 1) / 2.0
    n_fine = int(np.floor(2.0 * zhalf * os_)) + 1
    z0 = cd - zhalf

    # rotation about the h-axis in the (d, w) plane: the beam sample a of
    # detector column w sits at R(-theta) ((z0 + a/os, w + PAD) - center) + center
    cols = np.arange(W, dtype=np.float64)[:, None]
    a = np.arange(n_fine, dtype=np.float64)[None, :]
    d = (a * (c / os_) + cols * s) + (c * (z0 - cd) + s * (PAD - cw) + cd)
    w = (a * (-s / os_) + cols * c) + (-s * (z0 - cd) + c * (PAD - cw) + cw)
    # no tolerance: a sample a hair outside the grid is 0, as in scipy
    inside = (d >= 0.0) & (d <= Dp - 1) & (w >= 0.0) & (w <= Wp - 1)
    d_idx, d_wts = _cubic_taps(d[inside], Dp)
    w_idx, w_wts = _cubic_taps(w[inside], Wp)
    d_wts /= os_
    indices = (d_idx[:, :, None] * Wp + w_idx[:, None, :]).ravel()
    data = (d_wts[:, :, None] * w_wts[:, None, :]).ravel()
    # samples are row-major in (column, a), so each row's taps are contiguous
    indptr = np.concatenate([[0], np.cumsum(16 * inside.sum(axis=1))])
    op = sparse.csr_array((data, indices, indptr), shape=(W, Dp * Wp))
    op.sum_duplicates()
    return op


def _project(coeffs: np.ndarray, op) -> np.ndarray:
    """Apply a beam operator to (d, w, h) spline coefficients: an (H, W) image."""
    H = coeffs.shape[2]
    return np.ascontiguousarray((op @ coeffs.reshape(-1, H)).T)


def project_tilt(vol: DensityVolume, angle_deg: float, geom: TiltGeometry) -> np.ndarray:
    """Project a volume along the beam for one tilt angle.

    The tilt axis is the detector y-axis (the h-axis of the (d, h, w)
    grid); the beam runs along d. The rotated volume is sampled with a
    prefiltered cubic B-spline at the detector (h, w) pixel centers and at
    an oversample-times finer step along the beam, covering the full
    rotated z-extent; out-of-bounds samples are 0. The fine samples are
    summed with 1/oversample weight, so the zero-angle projection equals
    the plain z-sum of the volume: the uniform fine-grid sum of a
    zero-extended cubic B-spline interpolant equals its integral exactly
    (the B-spline spectrum vanishes at nonzero integers).

    One-shot path; ``simulate_tilt_series`` reuses the coefficients over
    all angles.
    """
    op = _beam_operator(vol.shape, angle_deg, geom.oversample)
    return _project(_spline_coefficients(vol), op)


def fourier_shift_2d(img: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Circularly shift image content by (+dx, +dy) via a Fourier phase ramp.

    dx moves content along the detector x (last axis), dy along y.
    """
    H, W = img.shape
    fy = np.fft.fftfreq(H)[:, None]
    fx = np.fft.fftfreq(W)[None, :]
    phase = np.exp(-2j * np.pi * (fy * dy + fx * dx))
    return np.fft.ifft2(np.fft.fft2(img) * phase).real


def simulate_tilt_series(
    vol: DensityVolume, geom: TiltGeometry, jobs: int = 1
) -> TiltSeries:
    """One projection per angle, each with an independent recorded drift.

    Per-angle RNG substreams are keyed by (seed, angle index) so results
    do not depend on the degree of parallelism. The spline coefficients
    are computed once and shared by every angle.
    """
    coeffs = _spline_coefficients(vol)

    def one(idx_angle):
        idx, angle = idx_angle
        rng = np.random.default_rng((geom.seed, idx))
        proj = _project(coeffs, _beam_operator(vol.shape, angle, geom.oversample))
        dx, dy = rng.uniform(-geom.shift_range, geom.shift_range, size=2)
        if geom.shift_range == 0:
            dx = dy = 0.0
        shifted = fourier_shift_2d(proj, dx, dy) if (dx or dy) else proj
        if geom.noise_sigma > 0:
            shifted = shifted + rng.normal(0.0, geom.noise_sigma, size=shifted.shape)
        return shifted, (float(dx), float(dy))

    tasks = list(enumerate(geom.angles))
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(one, tasks))
    else:
        results = [one(t) for t in tasks]
    projections = [r[0] for r in results]
    shifts = [r[1] for r in results]
    return TiltSeries(
        geometry=geom,
        projections=projections,
        applied_shifts=shifts,
        voxel_size=vol.voxel_size,
    )
