import dataclasses
import tracemalloc

import numpy as np
import pytest

from conftest import SHIFT_SHAPES, band_limited_image, reference_fourier_shift_2d, shell_phantom
from cryoforge.tiltalign import (
    AlignmentResult,
    _parabolic_offset,
    align_series,
    phase_correlate,
    refine_axis,
)
from cryoforge.tiltsim import TiltGeometry, TiltSeries, fourier_shift_2d, simulate_tilt_series


def test_identical_images_give_zero_shift(rng):
    img = band_limited_image((32, 32), rng)
    dx, dy = phase_correlate(img, img)
    assert abs(dx) < 1e-12 and abs(dy) < 1e-12


def test_integer_circular_shift_recovered_exactly(rng):
    img = rng.normal(size=(32, 48))
    shifted = np.roll(np.roll(img, -3, axis=0), 5, axis=1)  # content moved by (+5, -3)
    dx, dy = phase_correlate(img, shifted)
    assert (dx, dy) == (5.0, -3.0)


def test_subpixel_shift_recovered(rng):
    img = band_limited_image((48, 48), rng)
    shifted = fourier_shift_2d(img, 2.30, -1.70)
    dx, dy = phase_correlate(img, shifted)
    assert abs(dx - 2.30) < 0.1 and abs(dy + 1.70) < 0.1


def test_phase_correlate_antisymmetry(rng):
    img = band_limited_image((40, 40), rng)
    shifted = fourier_shift_2d(img, 1.2, -0.7)
    fwd = phase_correlate(img, shifted)
    bwd = phase_correlate(shifted, img)
    assert abs(fwd[0] + bwd[0]) < 0.02 and abs(fwd[1] + bwd[1]) < 0.02


def test_constant_image_rejected():
    with pytest.raises(ValueError, match="^constant image has no correlation peak$"):
        phase_correlate(np.ones((8, 8)), np.ones((8, 8)))


def test_shape_mismatch_rejected(rng):
    with pytest.raises(ValueError):
        phase_correlate(rng.normal(size=(8, 8)), rng.normal(size=(8, 10)))


def test_alignment_result_validates():
    with pytest.raises(ValueError, match="axis_angle_deg must be finite"):
        AlignmentResult(shifts=[(0.0, 0.0)], axis_angle_deg=float("nan"))


def test_alignment_result_is_frozen_with_tuple_shifts():
    result = AlignmentResult(shifts=[[1.0, 2.0], np.array([3.0, 4.0])], axis_angle_deg=3.0)
    assert result.shifts == [(1.0, 2.0), (3.0, 4.0)]
    assert all(type(s) is tuple for s in result.shifts)
    with pytest.raises(dataclasses.FrozenInstanceError):
        result.axis_angle_deg = float("nan")  # would skip the finite check


def _series(shift_range, seed=13):
    geom = TiltGeometry(angles=[-20.0, -10.0, 0.0, 10.0, 20.0], shift_range=shift_range)
    return simulate_tilt_series(shell_phantom(40), geom, seed=seed)


def test_align_series_null_case():
    result = align_series(_series(shift_range=0.0))
    assert np.abs(np.asarray(result.shifts)).max() < 0.05


def test_align_series_recovers_applied_shifts():
    series = _series(shift_range=1.0)
    result = align_series(series)
    applied = np.asarray(series.applied_shifts)
    recovered = np.asarray(result.shifts)
    # the common offset of all views is unobservable: compare demeaned
    applied -= applied.mean(axis=0)
    assert np.abs(recovered - applied).max() <= 0.1


def _model_shifts(angles_deg, axis_angle_deg, offset):
    # drift of a specimen center displaced `offset` voxels from the axis,
    # with the axis rotated in-plane by axis_angle_deg from detector y
    theta = np.radians(np.asarray(angles_deg))
    phi = np.radians(axis_angle_deg)
    radial = offset * (np.cos(theta) - 1.0)
    return [(r * np.cos(phi), -r * np.sin(phi)) for r in radial]


def test_refine_axis_null_case():
    series = _series(0.0)
    assert refine_axis(series, [(0.0, 0.0)] * 5) == 0.0


def test_refine_axis_recovers_injected_axis():
    series = _series(0.0)
    shifts = _model_shifts(series.geometry.angles, 1.5, 3.0)
    assert refine_axis(series, shifts) == pytest.approx(1.5, abs=1e-9)


def test_refine_axis_is_exact_grid_argmin():
    # the returned angle is that of the grid point with the least error
    # over every (angle, offset), each scored from its model directly
    series = _series(0.0)
    shifts = _model_shifts(series.geometry.angles, -2.3, 1.1)
    phi = refine_axis(series, shifts)
    assert phi == pytest.approx(-2.3, abs=1e-9)
    angles = np.asarray(series.geometry.angles)
    measured = np.asarray(shifts)
    mse = {
        (cand_phi, cand_off): np.mean((measured - _model_shifts(angles, cand_phi, cand_off)) ** 2)
        for cand_phi in np.arange(-50, 51) * 0.1
        for cand_off in np.arange(-50, 51) * 0.1
    }
    assert min(mse, key=mse.get)[0] == phi


def test_refine_axis_underdetermined():
    series = _series(0.0)
    with pytest.raises(ValueError, match="^axis refinement needs at least 3 views$"):
        refine_axis(series, [(0.0, 0.0), (0.0, 0.0)])


def _reference_refine_axis(angles_deg, shifts, angle_range=5.0, angle_step=0.1,
                           offset_range=5.0, offset_step=0.1):
    """The broadcast grid search the closed form replaced: the rigid-axis
    model of every (angle, offset) as one (n_a, n_o, views, 2) array."""
    measured = np.asarray(shifts, dtype=float)
    n_a = int(round(2 * angle_range / angle_step)) + 1
    n_o = int(round(2 * offset_range / offset_step)) + 1
    cand_angles = (np.arange(n_a) - n_a // 2) * angle_step
    cand_offsets = (np.arange(n_o) - n_o // 2) * offset_step
    theta = np.radians(np.asarray(angles_deg))
    phi = np.radians(cand_angles)[:, None, None]
    radial = cand_offsets[None, :, None] * (np.cos(theta) - 1.0)
    model = np.stack([radial * np.cos(phi), -radial * np.sin(phi)], axis=-1)
    mse = np.mean((measured - model) ** 2, axis=(2, 3))
    abs_phi = np.broadcast_to(np.abs(cand_angles)[:, None], mse.shape)
    abs_off = np.broadcast_to(np.abs(cand_offsets)[None, :], mse.shape)
    best = np.lexsort((abs_off.ravel(), abs_phi.ravel(), mse.ravel()))[0]
    ia, io = np.unravel_index(best, mse.shape)
    return float(cand_angles[ia]), float(cand_offsets[io]), float(mse[ia, io])


def _geometry_series(angles_deg):
    n = len(angles_deg)
    return TiltSeries(TiltGeometry(angles=list(angles_deg)), np.zeros((n, 2, 2)), [(0.0, 0.0)] * n)


def _random_angles(rng, n):
    # TiltGeometry wants a uniform step: a random span, not centred on 0
    return np.linspace(rng.uniform(-70.0, -5.0), rng.uniform(5.0, 70.0), n)


@pytest.mark.parametrize("kind", ["random", "exact", "zero"])
def test_refine_axis_closed_form_matches_grid_reference(kind):
    rng = np.random.default_rng({"random": 1, "exact": 2, "zero": 3}[kind])
    for n in list(range(3, 71, 3)) + [70]:
        angles = _random_angles(rng, n)
        if kind == "random":
            shifts = rng.normal(0.0, rng.choice([0.01, 0.5, 3.0]), size=(n, 2))
        elif kind == "exact":
            phi, off = rng.integers(-50, 51, size=2) * 0.1
            shifts = np.asarray(_model_shifts(angles, phi, off))
        else:
            shifts = np.zeros((n, 2))
        got = refine_axis(_geometry_series(angles), [tuple(s) for s in shifts])
        want = _reference_refine_axis(angles, shifts)
        assert got == want[0], (n, got, want)


def test_refine_axis_allocates_no_views_by_grid_array(rng):
    angles = np.linspace(-60.0, 60.0, 61)
    series = _geometry_series(angles)
    shifts = [tuple(s) for s in rng.normal(0.0, 0.5, size=(61, 2))]
    refine_axis(series, shifts)
    tracemalloc.start()
    try:
        refine_axis(series, shifts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (101, 101, 61, 2) float64 model grid alone is 9.96 MB
    assert peak < 1_000_000


def _reference_phase_correlate(img_a, img_b):
    """The full-grid phase correlation the half-spectrum one replaced: two
    fft2, the normalized cross-power spectrum, ifft2, real part."""
    cross = np.fft.fft2(img_a) * np.conj(np.fft.fft2(img_b))
    mag = np.abs(cross)
    spectrum = np.where(mag < 1e-12, 0.0, cross / np.where(mag < 1e-12, 1.0, mag))
    corr = np.fft.ifft2(spectrum).real
    H, W = corr.shape
    iy, ix = np.unravel_index(np.argmax(corr), corr.shape)
    dy = iy + _parabolic_offset(corr[(iy - 1) % H, ix], corr[iy, ix], corr[(iy + 1) % H, ix])
    dx = ix + _parabolic_offset(corr[iy, (ix - 1) % W], corr[iy, ix], corr[iy, (ix + 1) % W])
    if dy > H / 2:
        dy -= H
    if dx > W / 2:
        dx -= W
    return (-dx, -dy)


def _reference_align_series(series, iterations=3, tol=0.01):
    """The image-domain alignment loop the cached-spectrum one replaced:
    every view re-shifted in full each iteration, the reference the mean
    of the aligned images."""
    n = len(series.projections)
    estimates = np.zeros((n, 2))
    aligned = [p.astype(np.float64) for p in series.projections]
    reference = aligned[series.zero_angle_index()]
    for _ in range(iterations):
        max_update = 0.0
        for i in range(n):
            dx, dy = _reference_phase_correlate(reference, aligned[i])
            estimates[i] += (dx, dy)
            aligned[i] = reference_fourier_shift_2d(
                series.projections[i].astype(np.float64), -estimates[i, 0], -estimates[i, 1]
            )
            max_update = max(max_update, abs(dx), abs(dy))
        reference = np.mean(aligned, axis=0)
        if max_update < tol:
            break
    return estimates - estimates.mean(axis=0)


def _noisy(img, rng, sigma=0.05):
    return img + rng.normal(0.0, sigma * img.std(), size=img.shape)


@pytest.mark.parametrize("shape", SHIFT_SHAPES)
def test_phase_correlate_matches_full_grid_reference(rng, shape):
    # band-limited content plus noise: every spectral bin is far above the
    # whitening threshold, so both paths see the same cross-power spectrum
    img = band_limited_image(shape, rng)
    shifts = [(0.5, -0.5), (-1.5, 0.5)] + [tuple(rng.uniform(-3.0, 3.0, size=2)) for _ in range(4)]
    for dx, dy in shifts:
        a = _noisy(img, rng)
        b = _noisy(fourier_shift_2d(img, dx, dy), rng)
        got = phase_correlate(a, b)
        assert np.abs(np.subtract(got, _reference_phase_correlate(a, b))).max() <= 1e-9


@pytest.mark.parametrize("shape", SHIFT_SHAPES)
def test_align_series_matches_image_domain_reference(rng, shape):
    base = band_limited_image(shape, rng)
    n = 7
    applied = [tuple(rng.uniform(-2.0, 2.0, size=2)) for _ in range(n)]
    projections = [_noisy(fourier_shift_2d(base, dx, dy), rng) for dx, dy in applied]
    geom = TiltGeometry(angles=[-30.0 + 10.0 * i for i in range(n)])
    series = TiltSeries(geom, projections, applied)
    got = np.asarray(align_series(series).shifts)
    assert np.abs(got - _reference_align_series(series)).max() <= 1e-9


def test_align_series_names_constant_view():
    series = _series(shift_range=1.0)
    series.projections[3] = np.full_like(series.projections[3], 2.0)
    with pytest.raises(ValueError, match="^tilt index 3: constant image has no correlation peak$"):
        align_series(series)
