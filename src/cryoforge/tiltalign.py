"""Translation recovery for simulated tilt series.

Iterative phase correlation against an evolving reference with quadratic
sub-pixel peak refinement, followed by a grid search for a single
in-plane tilt-axis rotation, scored jointly with a vertical offset, whose
scores all follow from four sums over the views (see ``refine_axis``).

Every shift and every correlation works on half spectra (``rfft2``).
``align_series`` transforms each view once per series; a view shifted by
its current estimate is its spectrum times ``tiltsim.shift_ramp``, and
the mean of the aligned views is, by linearity, the mean of those
shifted spectra. Each correlation is then one normalised cross-power
product and one ``irfft2``, as in registration against spectra computed
once (Guizar-Sicairos, Thurman & Fienup, Opt. Lett., 2008).

The shifts depend on the operand order of each complex product, which
numpy's temporary elision swaps: when the right operand of a commutative
product is a temporary of 256 KiB or more, numpy writes the result into
that temporary, multiplying it as the left operand, and the FMA complex
multiply is not bitwise commutative. At 256×256 (a 516 KiB half spectrum)
``spectra[i] * shift_ramp(…)`` equals ``np.multiply(ramp, spectra[i])``,
not ``np.multiply(spectra[i], ramp)``, and ``Fa * np.conj(Fb)`` equals
``np.multiply(np.conj(Fb), Fa)``; at 360×46 (135 KiB) and 128×128 both
keep the written order (numpy 2.4.6). On whitened, noiseless stacks such
last-bit changes can move the shifts by many pixels, so a rewrite of the
correlation loop (preallocated buffers, ``out=`` arguments) changes its
output unless it fixes each product's operand order explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tiltsim import TiltSeries, shift_ramp
from .volume import float_in, shift_pair

ITERATIONS = 3  # align_series' reference rounds
TOL_PX = 0.01  # align_series stops once every view's update is below this
# refine_axis' grid: in-plane axis angles (degrees) and offsets (voxels)
AXIS_ANGLES_DEG = np.arange(-50, 51) * 0.1
AXIS_OFFSETS = np.arange(-50, 51) * 0.1


@dataclass(frozen=True)
class AlignmentResult:
    """The row of ``alignment.ndjson``: its fields are the file's keys."""

    shifts: list[tuple[float, float]]  # estimated applied (dx, dy) per tilt
    axis_angle_deg: float = 0.0  # in-plane rotation from detector y

    def __post_init__(self):
        object.__setattr__(self, "shifts", [shift_pair(s, "shifts") for s in self.shifts])
        float_in(self.axis_angle_deg, "axis_angle_deg", "(-inf, inf)")


def _parabolic_offset(ym: float, y0: float, yp: float) -> float:
    """Sub-pixel offset of a parabola through three equally spaced points."""
    denom = ym - 2.0 * y0 + yp
    if abs(denom) < 1e-30:
        return 0.0
    return float(np.clip(0.5 * (ym - yp) / denom, -0.5, 0.5))


def _spectral_shift(
    Fa: np.ndarray, Fb: np.ndarray, shape: tuple[int, int]
) -> tuple[float, float]:
    """(dx, dy) that moves the image of half spectrum ``Fa`` onto that of
    ``Fb``, both ``rfft2`` spectra of real images of the given shape.

    The normalised cross-power spectrum is inverse-transformed, the
    integer peak located, and each axis refined by a 3-point parabola
    through the peak and its circular neighbors.
    """
    cross = Fa * np.conj(Fb)
    mag = np.abs(cross)
    # whitening; bins below the absolute floor 1e-12 stay 0
    spectrum = np.divide(cross, mag, out=np.zeros_like(cross), where=mag >= 1e-12)
    corr = np.fft.irfft2(spectrum, s=shape)
    H, W = shape
    iy, ix = np.unravel_index(np.argmax(corr), corr.shape)
    dy = iy + _parabolic_offset(
        corr[(iy - 1) % H, ix], corr[iy, ix], corr[(iy + 1) % H, ix]
    )
    dx = ix + _parabolic_offset(
        corr[iy, (ix - 1) % W], corr[iy, ix], corr[iy, (ix + 1) % W]
    )
    # peak sits at minus the applied shift; fold to the signed range
    if dy > H / 2:
        dy -= H
    if dx > W / 2:
        dx -= W
    return (-dx, -dy)


def phase_correlate(img_a: np.ndarray, img_b: np.ndarray) -> tuple[float, float]:
    """Sub-pixel translation of img_b's content relative to img_a.

    Returns (dx, dy) such that img_b is (circularly) img_a shifted by
    (+dx, +dy), from the peak of the inverse-transformed normalized
    cross-power spectrum (see ``_spectral_shift``).
    """
    a = np.asarray(img_a, dtype=np.float64)
    b = np.asarray(img_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("images must have equal dimensions")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise ValueError("constant image has no correlation peak")
    return _spectral_shift(np.fft.rfft2(a), np.fft.rfft2(b), a.shape)


def align_series(series: TiltSeries) -> AlignmentResult:
    """Recover per-view drifts by iterative correlation to a reference.

    Iteration 1 aligns every view to the nearest-to-0-degree view; later
    iterations align to the mean of the currently aligned views. Per-view
    estimates accumulate; stops after ``ITERATIONS`` rounds or when the
    largest shift update drops below ``TOL_PX`` pixels.

    Each float32 view of the stack is cast to float64 on its own and
    transformed once, into one (n, H, W // 2 + 1) complex128 stack of
    half spectra. A view aligned by its current estimate is its spectrum
    times ``shift_ramp`` of minus the estimate, formed when it is
    correlated and again, after its update, when it is added to a running
    sum; that sum over n is the next reference's spectrum, so the last
    iteration forms none. No aligned image is ever formed.
    """
    n, H, W = series.projections.shape
    shape = (H, W)
    spectra = np.empty((n, H, W // 2 + 1), dtype=np.complex128)
    for i, proj in enumerate(series.projections):
        proj = np.asarray(proj, dtype=np.float64)
        if np.ptp(proj) == 0:
            raise ValueError(f"tilt index {i}: constant image has no correlation peak")
        spectra[i] = np.fft.rfft2(proj)
    estimates = np.zeros((n, 2))  # (dx, dy) estimated applied drift
    reference = spectra[series.zero_angle_index()]
    for iteration in range(ITERATIONS):
        last = iteration == ITERATIONS - 1  # no later reference is read
        max_update = 0.0
        total = np.zeros_like(reference)
        for i in range(n):
            aligned = spectra[i] * shift_ramp(shape, -estimates[i, 0], -estimates[i, 1])
            dx, dy = _spectral_shift(reference, aligned, shape)
            estimates[i] += (dx, dy)
            if not last:
                total += spectra[i] * shift_ramp(shape, -estimates[i, 0], -estimates[i, 1])
            max_update = max(max_update, abs(dx), abs(dy))
        if last or max_update < TOL_PX:
            break
        reference = total / n
    # the common translation of all views is unobservable: anchor the
    # estimates to zero mean so the aligned stack stays centered
    estimates -= estimates.mean(axis=0)
    return AlignmentResult(shifts=[(float(dx), float(dy)) for dx, dy in estimates])


def refine_axis(series: TiltSeries, shifts: list[tuple[float, float]]) -> float:
    """Grid-search the tilt-axis in-plane angle, in degrees.

    Every (angle, offset) of ``AXIS_ANGLES_DEG`` × ``AXIS_OFFSETS`` is
    scored by the mean-squared error between the measured shift trajectory
    m and the rigid-axis drift model; ties break toward the smallest
    |angle| then smallest |offset|. Returns the winner's angle.

    A center offset by o voxels perpendicular to an axis rotated in-plane
    by φ from detector y drifts o·r·(cos φ, −sin φ), r = cos θ − 1. Expanding
    the square, the whole grid's scores follow from four sums over views:

        mse(φ, o) = (Σ|m|² − 2o·(cos φ·Σ m_x r − sin φ·Σ m_y r) + o²·Σ r²) / 2n

    so only an (angles, offsets) array is formed.
    """
    if len(shifts) < 3:
        raise ValueError("axis refinement needs at least 3 views")
    angles = np.asarray(series.geometry.angles)
    measured = np.asarray(shifts, dtype=float)
    r = np.cos(np.radians(angles)) - 1.0
    phi = np.radians(AXIS_ANGLES_DEG)
    cross = np.cos(phi) * (measured[:, 0] @ r) - np.sin(phi) * (measured[:, 1] @ r)
    mse = (
        np.sum(measured**2)
        - 2.0 * np.outer(cross, AXIS_OFFSETS)
        + (r @ r) * AXIS_OFFSETS**2
    ) / (2 * len(measured))
    # lexicographic (mse, |angle|, |offset|); a stable sort keeps the first
    # grid point of a full tie
    abs_phi = np.broadcast_to(np.abs(AXIS_ANGLES_DEG)[:, None], mse.shape)
    abs_off = np.broadcast_to(np.abs(AXIS_OFFSETS)[None, :], mse.shape)
    best = np.lexsort((abs_off.ravel(), abs_phi.ravel(), mse.ravel()))[0]
    return float(AXIS_ANGLES_DEG[best // len(AXIS_OFFSETS)])
