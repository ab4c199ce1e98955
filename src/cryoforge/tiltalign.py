"""Translation recovery for simulated tilt series.

Iterative phase correlation against an evolving reference with quadratic
sub-pixel peak refinement, followed by a grid search for a single
in-plane tilt-axis rotation and vertical offset whose scores all follow
from four sums over the views (see ``refine_axis``).

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
from .volume import float_in, int_at_least


class DegenerateImageError(ValueError):
    """Constant image: phase correlation has no defined peak."""


class UnderdeterminedError(ValueError):
    """Too few views to constrain the axis refinement."""


@dataclass(frozen=True)
class AlignmentResult:
    """The row of ``alignment.ndjson``: its fields are the file's keys."""

    shifts: list[tuple[float, float]]  # estimated applied (dx, dy) per tilt
    axis_angle_deg: float = 0.0  # in-plane rotation from detector y
    axis_offset: float = 0.0  # voxels
    residual_mse: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "shifts", [tuple(s) for s in self.shifts])
        for shift in self.shifts:
            if len(shift) != 2:
                raise ValueError(f"shifts must be (dx, dy) pairs, got {list(shift)!r}")
            for v in shift:
                float_in(v, "shifts", "(-inf, inf)")
        float_in(self.axis_angle_deg, "axis_angle_deg", "(-inf, inf)")
        float_in(self.axis_offset, "axis_offset", "(-inf, inf)")
        float_in(self.residual_mse, "residual_mse", "[0, inf)")


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
        raise DegenerateImageError("constant image has no correlation peak")
    return _spectral_shift(np.fft.rfft2(a), np.fft.rfft2(b), a.shape)


def align_series(
    series: TiltSeries, iterations: int = 3, tol: float = 0.01
) -> AlignmentResult:
    """Recover per-view drifts by iterative correlation to a reference.

    Iteration 1 aligns every view to the nearest-to-0-degree view; later
    iterations align to the mean of the currently aligned views. Per-view
    estimates accumulate; stops at the iteration budget or when the
    largest shift update drops below ``tol`` pixels.

    Each float32 view of the stack is cast to float64 on its own and
    transformed once, into one (n, H, W // 2 + 1) complex128 stack of
    half spectra. A view aligned by its current estimate is its spectrum
    times ``shift_ramp`` of minus the estimate, formed when it is
    correlated and again, after its update, when it is added to a running
    sum; that sum over n is the next reference's spectrum, so the last
    iteration forms none. No aligned image is ever formed.
    """
    iterations = int_at_least(iterations, "iterations", 1)
    n, H, W = series.projections.shape
    shape = (H, W)
    spectra = np.empty((n, H, W // 2 + 1), dtype=np.complex128)
    for i, proj in enumerate(series.projections):
        proj = np.asarray(proj, dtype=np.float64)
        if np.ptp(proj) == 0:
            raise DegenerateImageError(
                f"tilt index {i}: constant image has no correlation peak"
            )
        spectra[i] = np.fft.rfft2(proj)
    estimates = np.zeros((n, 2))  # (dx, dy) estimated applied drift
    reference = spectra[series.zero_angle_index()]
    for iteration in range(iterations):
        last = iteration == iterations - 1  # no later reference is read
        max_update = 0.0
        total = np.zeros_like(reference)
        for i in range(n):
            aligned = spectra[i] * shift_ramp(shape, -estimates[i, 0], -estimates[i, 1])
            dx, dy = _spectral_shift(reference, aligned, shape)
            estimates[i] += (dx, dy)
            if not last:
                total += spectra[i] * shift_ramp(shape, -estimates[i, 0], -estimates[i, 1])
            max_update = max(max_update, abs(dx), abs(dy))
        if last or max_update < tol:
            break
        reference = total / n
    # the common translation of all views is unobservable: anchor the
    # estimates to zero mean so the aligned stack stays centered
    estimates -= estimates.mean(axis=0)
    return AlignmentResult(shifts=[(float(dx), float(dy)) for dx, dy in estimates])


def refine_axis(
    series: TiltSeries,
    shifts: list[tuple[float, float]],
    angle_range: float = 5.0,
    angle_step: float = 0.1,
    offset_range: float = 5.0,
    offset_step: float = 0.1,
) -> tuple[float, float, float]:
    """Grid-search the tilt-axis in-plane angle and vertical offset.

    Scores mean-squared error between the measured shift trajectory m and
    the rigid-axis drift model over the full grid; ties break toward the
    smallest |angle| then smallest |offset|. Returns
    (axis_angle_deg, axis_offset, residual_mse).

    A center offset by o voxels perpendicular to an axis rotated in-plane
    by φ from detector y drifts o·r·(cos φ, −sin φ), r = cos θ − 1. Expanding
    the square, the whole grid's scores follow from four sums over views:

        mse(φ, o) = (Σ|m|² − 2o·(cos φ·Σ m_x r − sin φ·Σ m_y r) + o²·Σ r²) / 2n

    so only an (angles, offsets) array is formed. The winner's
    ``residual_mse`` is then evaluated directly from its model, so it is
    never negative by cancellation.
    """
    if len(shifts) < 3:
        raise UnderdeterminedError("axis refinement needs at least 3 views")
    angles = np.asarray(series.geometry.angles)
    measured = np.asarray(shifts, dtype=float)
    n_a = int(round(2 * angle_range / angle_step)) + 1
    n_o = int(round(2 * offset_range / offset_step)) + 1
    cand_angles = (np.arange(n_a) - n_a // 2) * angle_step
    cand_offsets = (np.arange(n_o) - n_o // 2) * offset_step
    r = np.cos(np.radians(angles)) - 1.0
    phi = np.radians(cand_angles)
    cross = np.cos(phi) * (measured[:, 0] @ r) - np.sin(phi) * (measured[:, 1] @ r)
    mse = (
        np.sum(measured**2)
        - 2.0 * np.outer(cross, cand_offsets)
        + (r @ r) * cand_offsets**2
    ) / (2 * len(measured))
    # lexicographic (mse, |angle|, |offset|); a stable sort keeps the first
    # grid point of a full tie
    abs_phi = np.broadcast_to(np.abs(cand_angles)[:, None], mse.shape)
    abs_off = np.broadcast_to(np.abs(cand_offsets)[None, :], mse.shape)
    best = np.lexsort((abs_off.ravel(), abs_phi.ravel(), mse.ravel()))[0]
    ia, io = np.unravel_index(best, mse.shape)
    radial = cand_offsets[io] * r
    model = np.stack([radial * np.cos(phi[ia]), -radial * np.sin(phi[ia])], axis=-1)
    return float(cand_angles[ia]), float(cand_offsets[io]), float(np.mean((measured - model) ** 2))
