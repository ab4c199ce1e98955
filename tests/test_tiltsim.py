import numpy as np
import pytest
from scipy import ndimage

from conftest import band_limited_image, gaussian_blob, multi_blob_volume
from cryoforge.tiltalign import phase_correlate
from cryoforge.tiltsim import (
    TiltGeometry,
    TiltSeries,
    default_angles,
    fourier_shift_2d,
    pretraining_angles,
    project_tilt,
    simulate_tilt_series,
)
from cryoforge.volume import DensityVolume


def test_angle_presets():
    assert len(default_angles()) == 61
    assert len(pretraining_angles()) == 91
    assert default_angles()[0] == -60.0 and default_angles()[-1] == 60.0


def test_geometry_rejects_bad_angles():
    with pytest.raises(ValueError):
        TiltGeometry(angles=[0.0, -2.0, 2.0])
    with pytest.raises(ValueError):
        TiltGeometry(angles=[0.0, 1.0, 3.0])
    with pytest.raises(ValueError):
        TiltGeometry(oversample=0)


def test_series_length_invariant():
    geom = TiltGeometry(angles=[-2.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        TiltSeries(geom, projections=[np.zeros((4, 4))] * 2, applied_shifts=[(0, 0)] * 3)


def reference_project_tilt(vol, angle_deg, geom):
    """The projector as a dense 3D resampling: the spline-prefiltered,
    zero-padded volume resampled by ``affine_transform`` onto the
    beam-aligned fine grid, then summed along the beam."""
    pad = 4
    data = np.pad(vol.data.astype(np.float64), ((pad, pad), (0, 0), (pad, pad)))
    D, H, W = data.shape
    os_ = geom.oversample
    theta = np.radians(angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    cd, ch, cw = (D - 1) / 2.0, (H - 1) / 2.0, (W - 1) / 2.0
    zhalf = abs(c) * (D - 1) / 2.0 + abs(s) * (W - 1) / 2.0
    n_fine = int(np.floor(2.0 * zhalf * os_)) + 1
    z0 = cd - zhalf
    R_inv = np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    matrix = R_inv @ np.diag([1.0 / os_, 1.0, 1.0])
    center = np.array([cd, ch, cw])
    offset = R_inv @ (np.array([z0, 0.0, pad]) - center) + center
    fine = ndimage.affine_transform(
        ndimage.spline_filter(data, order=3, mode="constant"),
        matrix,
        offset=offset,
        output_shape=(n_fine, H, W - 2 * pad),
        order=3,
        mode="constant",
        cval=0.0,
        prefilter=False,
    )
    return fine.sum(axis=0) / os_


@pytest.mark.parametrize("shape", [(5, 3, 40), (17, 9, 31)])
@pytest.mark.parametrize("oversample", [1, 2, 4])
def test_projection_matches_dense_resampling_reference(shape, oversample):
    rng = np.random.default_rng(sum(shape) + oversample)
    vol = DensityVolume(rng.random(shape).astype(np.float32))
    geom = TiltGeometry(oversample=oversample)
    for angle in (-90.0, -60.0, 0.0, 1e-7, 34.0, 89.9, 90.0):
        ref = reference_project_tilt(vol, angle, geom)
        proj = project_tilt(vol, angle, geom)
        assert proj.shape == ref.shape == (shape[1], shape[2])
        assert np.abs(proj - ref).max() <= 1e-12 * np.abs(ref).max(), angle


def test_fixture_projection_matches_dense_resampling_reference():
    vol = multi_blob_volume(24, blobs=3)
    geom = TiltGeometry()
    for angle in (-60.0, 0.0, 34.0):
        ref = reference_project_tilt(vol, angle, geom)
        assert np.abs(project_tilt(vol, angle, geom) - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("jobs", [1, 2])
def test_unshifted_series_equals_project_tilt(jobs):
    vol = multi_blob_volume(16, blobs=2)
    geom = TiltGeometry(angles=[-90.0, -45.0, 0.0, 45.0, 90.0], shift_range=0.0)
    series = simulate_tilt_series(vol, geom, jobs=jobs)
    for angle, proj in zip(geom.angles, series.projections):
        assert np.array_equal(proj, project_tilt(vol, angle, geom))


def test_zero_angle_projection_equals_z_sum():
    vol = multi_blob_volume(32, blobs=3)
    proj = project_tilt(vol, 0.0, TiltGeometry())
    z_sum = vol.data.astype(np.float64).sum(axis=0)
    assert np.abs(proj - z_sum).max() < 1e-4 * np.abs(z_sum).max()


def test_out_of_range_angle_rejected():
    with pytest.raises(ValueError):
        project_tilt(multi_blob_volume(16, blobs=1), 91.0, TiltGeometry())


def test_symmetric_blob_projections_match_at_opposite_angles():
    n = 32
    data = gaussian_blob((n, n, n), ((n - 1) / 2,) * 3, 4.0)
    vol = DensityVolume(data.astype(np.float32))
    p_minus = project_tilt(vol, -60.0, TiltGeometry())
    p_plus = project_tilt(vol, 60.0, TiltGeometry())
    assert np.abs(p_plus - p_minus).max() < 1e-3 * np.abs(p_plus).max()


def test_mass_conserved_for_interior_blob():
    n = 32
    data = gaussian_blob((n, n, n), ((n - 1) / 2,) * 3, 3.0)
    vol = DensityVolume(data.astype(np.float32))
    total = vol.data.astype(np.float64).sum()
    for angle in (0.0, 60.0, -60.0):
        proj = project_tilt(vol, angle, TiltGeometry())
        assert proj.sum() == pytest.approx(total, rel=0.02)


def test_projection_linearity(rng):
    geom = TiltGeometry()
    v1 = multi_blob_volume(24, blobs=2, seed=1)
    v2 = multi_blob_volume(24, blobs=2, seed=2)
    combo = DensityVolume(2.0 * v1.data + 3.0 * v2.data)
    lhs = project_tilt(combo, 34.0, geom)
    rhs = 2.0 * project_tilt(v1, 34.0, geom) + 3.0 * project_tilt(v2, 34.0, geom)
    assert np.abs(lhs - rhs).max() < 1e-5 * np.abs(rhs).max()


def test_oversample_convergence():
    vol = multi_blob_volume(24, blobs=3)
    p2 = project_tilt(vol, 30.0, TiltGeometry(oversample=2))
    p4 = project_tilt(vol, 30.0, TiltGeometry(oversample=4))
    assert np.abs(p2 - p4).max() < 0.01 * np.abs(p4).max()


def test_zero_shift_range():
    geom = TiltGeometry(angles=[-4.0, 0.0, 4.0], shift_range=0.0)
    series = simulate_tilt_series(multi_blob_volume(16, blobs=1), geom)
    assert series.applied_shifts == [(0.0, 0.0)] * 3


def test_series_deterministic_and_parallel_invariant():
    vol = multi_blob_volume(16, blobs=2)
    geom = TiltGeometry(angles=[-10.0, 0.0, 10.0], seed=9)
    a = simulate_tilt_series(vol, geom, jobs=1)
    b = simulate_tilt_series(vol, geom, jobs=1)
    c = simulate_tilt_series(vol, geom, jobs=3)
    assert a.applied_shifts == b.applied_shifts == c.applied_shifts
    for pa, pb, pc in zip(a.projections, b.projections, c.projections):
        assert np.array_equal(pa, pb)
        assert np.array_equal(pa, pc)


def test_applied_shift_recoverable_by_phase_correlation():
    vol = multi_blob_volume(32, blobs=4)
    geom = TiltGeometry(angles=[-2.0, 0.0, 2.0], seed=21)
    series = simulate_tilt_series(vol, geom)
    i = series.zero_angle_index()
    reference = project_tilt(vol, 0.0, geom)
    dx, dy = phase_correlate(reference, series.projections[i])
    adx, ady = series.applied_shifts[i]
    # full-band projections leave the whitened correlation peak sinc-like,
    # where the 3-point parabola carries a bias of up to ~0.13 px
    assert abs(dx - adx) < 0.15 and abs(dy - ady) < 0.15


def test_fourier_shift_round_trip(rng):
    # band-limited content round-trips exactly; Nyquist components of a
    # real image cannot carry a sub-pixel phase ramp and are excluded
    img = band_limited_image((16, 16), rng)
    back = fourier_shift_2d(fourier_shift_2d(img, 1.3, -0.4), -1.3, 0.4)
    assert np.abs(back - img).max() < 1e-10
