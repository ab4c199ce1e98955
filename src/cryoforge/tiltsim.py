"""Tilt-series acquisition simulator.

The volume is projected with cubic B-spline interpolation along beams
rotated about the detector y-axis (the h-axis), sampled at an oversampled
step and summed; each projection is then perturbed by a random sub-pixel
in-plane shift applied in Fourier space (one real-to-complex FFT round
trip, see ``shift_ramp``) so the ground-truth drift is exactly
recoverable.

The spline coefficients are computed once per series, prefiltered in
(d, w) only. The tilt axis is an identity axis and a cubic spline
reproduces its data at integer nodes (Unser, IEEE Signal Process. Mag.,
1999), so every detector row is the same linear functional of its own
(d, w) coefficient slice. Each angle therefore builds one sparse beam
operator, the spline tap weights of its beam samples summed per detector
column, and projects all rows with one sparse-dense product: no 3D
resampled grid is ever formed. For the same reason a row along h whose
(d, w) slice holds no nonzero voxel projects to exact zeros, so only the
rows that hold density are prefiltered and projected; the
others stay zero in the (H, W) image the drift shift is applied to.

A beam sample's 16 (d, w) tap products are the outer product of its 4
d-taps and its 4 w-taps, so the operator is built as a sparse product
of two 1-D tap matrices, U (detector column and d node by sample) and V
(sample by w node). Gustavson's row-accumulator product (ACM TOMS, 1978;
scipy's ``csr_matmat``) merges the taps that land on one node in a
single pass; no 16-tap expansion and no global sort are made.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage, sparse

from .volume import DensityVolume, float_in, int_at_least

PAD = 4  # zero padding of d and w, at least the cubic B-spline's support


def default_angles(start: float = -60.0, stop: float = 60.0, step: float = 2.0) -> list[float]:
    n = int(round((stop - start) / step)) + 1
    return [start + i * step for i in range(n)]


@dataclass(frozen=True)
class TiltGeometry:
    """Angles (strictly increasing, uniform step), beam oversampling and
    drift range; frozen, so no angle changes after ``TiltSeries`` checks."""

    angles: list[float] = field(default_factory=default_angles)
    oversample: int = 2
    shift_range: float = 1.0

    def __post_init__(self):
        angles = [float(float_in(a, "angles", "[-90, 90]")) for a in self.angles]
        object.__setattr__(self, "angles", angles)
        steps = np.diff(angles).tolist()
        for step in steps:  # the angles strictly increase
            float_in(step, "tilt angle step", "(0, inf)")
        if steps and max(steps) - min(steps) > 1e-9:
            raise ValueError("tilt angle step must be uniform")
        # a fractional step breaks project_tilt's exact zero-angle sum
        object.__setattr__(self, "oversample", int_at_least(self.oversample, "oversample", 1))
        float_in(self.shift_range, "shift_range", "[0, inf)")


@dataclass(frozen=True)
class TiltSeries:
    """One view per angle and its applied drift. ``projections`` has one
    form, fixed here: a C-contiguous float32 (n_tilts, H, W) stack, the
    payload of ``tilts.mrc`` (a list of 2-D views is stacked)."""

    geometry: TiltGeometry
    projections: np.ndarray  # float32 (n_tilts, H, W)
    applied_shifts: list[tuple[float, float]]
    voxel_size: float = 1.0  # Angstrom per detector pixel, as in the volume
    rows_projected: int | None = None  # rows along h projected; None when read from files

    def __post_init__(self):
        projections = np.ascontiguousarray(self.projections, dtype=np.float32)
        object.__setattr__(self, "projections", projections)
        if self.projections.ndim != 3:
            raise ValueError(f"projections must be (n_tilts, H, W), got {self.projections.shape}")
        n = len(self.geometry.angles)
        if len(self.projections) != n or len(self.applied_shifts) != n:
            raise ValueError("projections/applied_shifts must match the angle count")

    def zero_angle_index(self) -> int:
        return int(np.argmin(np.abs(self.geometry.angles)))


def _spline_coefficients(vol: DensityVolume) -> tuple[np.ndarray, np.ndarray]:
    """Cubic B-spline coefficients of the volume's rows along h that hold
    density, for `_beam_operator`, and the indices of those rows.

    A row holds density when its (d, w) slice has a nonzero voxel; the
    rows are found one d slice at a time, so no volume-sized
    temporary is made. The kept rows are zero-padded by ``PAD`` in d and
    w, so the interpolant's compact support lies inside the sampled
    domain, and prefiltered along (d, w) only: the tilt axis h is sampled
    at its integer nodes, where a cubic spline reproduces its data, so h
    needs no filtering. The result is float64 laid out (d, w, row), so
    ``coeffs.reshape(-1, len(rows))`` is a view whose rows are (d, w) nodes.
    """
    D, H, W = vol.shape
    held = np.zeros(H, dtype=bool)
    for plane in vol.data:
        held |= (plane != 0).any(axis=1)
    rows = np.flatnonzero(held)
    coeffs = np.zeros((D + 2 * PAD, W + 2 * PAD, len(rows)))
    for d, plane in enumerate(vol.data):
        coeffs[PAD + d, PAD:-PAD] = plane[rows].T
    for axis in (0, 1):
        ndimage.spline_filter1d(coeffs, order=3, axis=axis, output=coeffs, mode="constant")
    return coeffs, rows


def _cubic_taps(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Node indices and weights, each (len(x), 4), of the cubic B-spline
    taps at coordinates x in [0, n - 1]; taps past either end are mirrored
    onto the grid (period 2n - 2), as scipy does for ``mode="constant"``.
    Only coordinates with floor(x) < 1 or > n - 3 have such taps."""
    base = np.floor(x)
    t = x - base
    u = 1.0 - t
    tt, uu = t * t, u * u
    weights = np.empty((len(x), 4))
    weights[:, 0] = uu * u
    weights[:, 1] = 4.0 - 3.0 * tt * (1.0 + u)
    weights[:, 2] = 4.0 - 3.0 * uu * (1.0 + t)
    weights[:, 3] = tt * t
    weights /= 6.0
    idx = np.repeat(base.astype(np.int32), 4).reshape(-1, 4)
    idx += np.arange(-1, 3, dtype=np.int32)
    edge = np.flatnonzero((base < 1.0) | (base > n - 3))
    mirrored = np.abs(idx[edge])
    idx[edge] = np.minimum(mirrored, 2 * (n - 1) - mirrored)
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

    Assembly: U, shape (W * (D + 8), n_samples), holds each sample's 4
    d-tap weights (divided by ``oversample``) in the rows (its detector
    column, d node); V, shape (n_samples, W + 8), holds its 4 w-taps. U is
    written by sample as a CSC matrix, so its CSR form is one counting
    pass, and ``M = U @ V`` sums every sample's tap products per (column,
    d node, w node) without forming them one by one. The D + 8 rows of M
    that belong to one detector column, each offset by its d node times
    W + 8, are that column's operator row; M's short rows are sorted
    once, so the operator's indices are sorted. Exact zero sums are not
    stored.
    """
    float_in(angle_deg, "tilt angle", "[-90, 90]")
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
    column = np.nonzero(inside)[0]  # detector column of each sample, ascending
    d_idx, d_wts = _cubic_taps(d[inside], Dp)
    w_idx, w_wts = _cubic_taps(w[inside], Wp)
    d_wts /= os_
    n = len(column)
    taps = 4 * np.arange(n + 1)
    U = sparse.csc_array(
        (d_wts.ravel(), (d_idx + Dp * column[:, None]).ravel(), taps), shape=(W * Dp, n)
    ).tocsr()
    V = sparse.csr_array((w_wts.ravel(), w_idx.ravel(), taps), shape=(n, Wp))
    M = U @ V
    M.sort_indices()
    d_node = np.repeat(np.arange(W * Dp) % Dp, np.diff(M.indptr))
    op = sparse.csr_array(
        (M.data, M.indices + d_node * Wp, M.indptr[::Dp]), shape=(W, Dp * Wp)
    )
    op.has_sorted_indices = True
    return op


def _mirror(op, shape: tuple[int, int, int]):
    """The beam operator of -theta from ``op``, that of +theta, with its
    detector columns in reverse order.

    A tilt by -theta is the tilt by +theta seen in a mirror across the
    tilt axis: op(-theta) row W - 1 - w equals op(theta) row w with every
    (d, w') node moved to (d, Wp - 1 - w'), Wp = W + 8, because the padded
    grid and the spline taps are symmetric about its center column. The
    remap is one pass over the indices; data and indptr are shared. A view
    projected with it differs from one projected with a direct build by
    round-off, under 1e-14 of the view's largest value in the tests.
    """
    Wp = shape[2] + 2 * PAD
    indices = op.indices % Wp  # w', then d Wp + (Wp - 1 - w') in place
    indices *= -2
    indices += op.indices
    indices += Wp - 1
    return sparse.csr_array((op.data, indices, op.indptr), shape=op.shape)


def _project(coeffs: np.ndarray, rows: np.ndarray, height: int, op) -> np.ndarray:
    """Apply a beam operator to the spline coefficients of ``rows`` (see
    `_spline_coefficients`): an (height, W) image, zero in the other rows."""
    image = np.zeros((height, op.shape[0]))
    image[rows] = (op @ coeffs.reshape(op.shape[1], len(rows))).T
    return image


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
    return _project(*_spline_coefficients(vol), vol.shape[1], op)


def shift_ramp(shape: tuple[int, int], dx: float, dy: float) -> np.ndarray:
    """Phase ramp on the ``rfft2`` grid of a real (H, W) image that shifts
    its content by (+dx, +dy).

    The full-grid ramp exp(-2 pi i (fy dy + fx dx)) is not Hermitian at
    the Nyquist frequency of an even axis, which is its own mirror image:
    a real image's shifted spectrum keeps only the ramp's Hermitian part.
    That part is the ramp itself everywhere else, cos(pi dy) times the x
    ramp on the Nyquist row of an even H, cos(pi dx) times the y ramp on
    the Nyquist column of an even W, and cos(pi (dx + dy)) at the corner
    where both meet.
    """
    H, W = shape
    ramp_y = np.exp(-2j * np.pi * np.fft.fftfreq(H) * dy)
    ramp_x = np.exp(-2j * np.pi * np.fft.rfftfreq(W) * dx)
    if H % 2 == 0:
        ramp_y[H // 2] = np.cos(np.pi * dy)
    if W % 2 == 0:
        ramp_x[W // 2] = np.cos(np.pi * dx)
    ramp = ramp_y[:, None] * ramp_x[None, :]
    if H % 2 == 0 and W % 2 == 0:
        ramp[H // 2, W // 2] = np.cos(np.pi * (dx + dy))
    return ramp


def fourier_shift_2d(img: np.ndarray, dx: float, dy: float) -> np.ndarray:
    """Circularly shift image content by (+dx, +dy) via a Fourier phase ramp.

    dx moves content along the detector x (last axis), dy along y. One
    real-to-complex FFT round trip: the half spectrum is multiplied by
    ``shift_ramp``, the exact Hermitian part of the full-grid ramp, so
    the result equals the real part of the full complex shift.
    """
    return np.fft.irfft2(np.fft.rfft2(img) * shift_ramp(img.shape, dx, dy), s=img.shape)


DEFAULT_JOBS_CAP = 2  # run time and peak RSS are measured at 1 and 2 workers only


def default_jobs() -> int:
    """The usable CPU count, at most ``DEFAULT_JOBS_CAP``, for an unset ``jobs``."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(DEFAULT_JOBS_CAP, cpus or 1)


def build_then_run(items, build, run, jobs: int) -> None:
    """``run(item, build(item))`` for each item in order, with every ``build``
    on the calling thread and, with ``jobs > 1``, the runs on a pool of
    ``jobs`` threads (scipy's sparse kernels release the GIL).

    The projector and the back-projector apply one sparse operator per
    tilt or per slab this way. The caller builds the operators, not the
    workers, because each worker thread allocates from its own malloc
    arena and keeps what it freed resident: operator temporaries built
    there left tens of MB per worker, while a worker that only applies
    operators keeps about one result. Once ``jobs`` runs are in flight the
    oldest is waited on before the next build, so at most ``jobs``
    operators are alive at a time. Every run is waited on, so a worker's
    exception is raised here. ``jobs == 1`` runs inline: a one-thread pool
    would add a worker arena.
    """
    jobs = int_at_least(jobs, "jobs", 1)
    if jobs == 1:
        for item in items:
            run(item, build(item))
        return
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        in_flight: deque = deque()
        for item in items:
            if len(in_flight) == jobs:
                in_flight.popleft().result()
            in_flight.append(pool.submit(run, item, build(item)))
        for future in in_flight:
            future.result()


def simulate_tilt_series(
    vol: DensityVolume, geom: TiltGeometry, seed: int = 0, jobs: int = 1
) -> TiltSeries:
    """One projection per angle, each with an independent recorded drift.

    View k's drift is drawn from the stream keyed by (seed, k), so results
    do not depend on the degree of parallelism. The spline coefficients
    are computed once, for the rows along h that hold density, and shared
    by every angle. One beam operator is built per distinct |angle|, on
    the calling thread, and serves both signs: a negative angle projects
    with its mirror (`_mirror`, also made on the calling thread) and
    reverses the view's columns. The run that applies them also draws and
    applies the drift of each of their angles, and writes each view into
    its own row of the series' float32 stack. With ``jobs > 1`` at most
    ``jobs`` runs are in flight on a thread pool (see ``build_then_run``);
    the rows are disjoint, so the stack is byte-identical for every
    ``jobs``, and ``jobs`` is checked before any work.
    """
    seed = int_at_least(seed, "seed", 0)
    jobs = int_at_least(jobs, "jobs", 1)
    coeffs, rows = _spline_coefficients(vol)
    stack = np.empty((len(geom.angles), vol.shape[1], vol.shape[2]), dtype=np.float32)
    shifts = [None] * len(geom.angles)
    by_tilt: dict[float, list[int]] = {}  # |angle| -> angle indices, in angle order
    for idx, angle in enumerate(geom.angles):
        by_tilt.setdefault(abs(angle), []).append(idx)

    def operators(tilt: float) -> list:
        op = _beam_operator(vol.shape, tilt, geom.oversample)
        return [_mirror(op, vol.shape) if geom.angles[i] < 0 else op for i in by_tilt[tilt]]

    def project(tilt: float, ops: list) -> None:
        for idx, op in zip(by_tilt[tilt], ops):
            proj = _project(coeffs, rows, vol.shape[1], op)
            if geom.angles[idx] < 0:
                proj = proj[:, ::-1]
            rng = np.random.default_rng((seed, idx))
            dx, dy = rng.uniform(-geom.shift_range, geom.shift_range, size=2)
            stack[idx] = fourier_shift_2d(proj, dx, dy) if (dx or dy) else proj
            shifts[idx] = (float(dx), float(dy))

    build_then_run(by_tilt, operators, project, jobs)
    return TiltSeries(
        geometry=geom,
        projections=stack,
        applied_shifts=shifts,
        voxel_size=vol.voxel_size,
        rows_projected=len(rows),
    )
