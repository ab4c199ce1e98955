import dataclasses
import math
import re
import threading

import numpy as np
import pytest
from scipy import ndimage, sparse

from conftest import (
    SHIFT_SHAPES,
    band_limited_image,
    gaussian_blob,
    make_blob_pdb,
    multi_blob_volume,
    reference_fourier_shift_2d,
)
from cryoforge import tiltsim
from cryoforge.pipeline import PipelineConfig, run_pipeline
from cryoforge.tiltalign import phase_correlate
from cryoforge.tiltsim import (
    PAD,
    TiltGeometry,
    TiltSeries,
    _beam_operator,
    _mirror,
    _project,
    _spline_coefficients,
    build_then_run,
    default_angles,
    fourier_shift_2d,
    project_tilt,
    simulate_tilt_series,
)
from cryoforge.volume import DensityVolume


def test_angle_presets():
    assert len(default_angles()) == 61
    assert default_angles()[0] == -60.0 and default_angles()[-1] == 60.0


def test_geometry_rejects_bad_angles():
    with pytest.raises(ValueError):
        TiltGeometry(angles=[0.0, -2.0, 2.0])
    with pytest.raises(ValueError):
        TiltGeometry(angles=[0.0, 1.0, 3.0])
    # NaN failed inside project; 1.5 ran and broke the exact zero-angle sum
    for oversample in (0, -1, 1.5, 2.0, math.nan, "2"):
        with pytest.raises(ValueError, match="oversample must be an integer >= 1"):
            TiltGeometry(oversample=oversample)
    assert type(TiltGeometry(oversample=np.int64(3)).oversample) is int
    # these used to fail inside simulate_tilt_series' uniform draw, unnamed
    for shift_range in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="shift_range must be finite and >= 0"):
            TiltGeometry(shift_range=shift_range)


@pytest.mark.parametrize(
    "angles",
    [[0.0, math.nan, 4.0], [-math.inf, 0.0], [0.0, math.inf], [-92.0, 0.0, 92.0], [88.0, 90.5]],
)
def test_geometry_rejects_non_finite_or_out_of_range_angles(angles):
    # a NaN angle used to pass and fail in simulate_tilt_series; |angle| > 90
    # failed only at projection
    with pytest.raises(ValueError, match="angles must be finite and within"):
        TiltGeometry(angles=angles)


def test_series_length_invariant():
    geom = TiltGeometry(angles=[-2.0, 0.0, 2.0])
    with pytest.raises(ValueError):
        TiltSeries(geom, projections=[np.zeros((4, 4))] * 2, applied_shifts=[(0, 0)] * 3)


def test_series_projections_are_one_float32_stack():
    geom = TiltGeometry(angles=[-2.0, 0.0, 2.0])
    views = [np.full((4, 5), float(i)) for i in range(3)]  # float64 2-D views
    series = TiltSeries(geom, projections=views, applied_shifts=[(0.0, 0.0)] * 3)
    assert isinstance(series.projections, np.ndarray)
    assert series.projections.dtype == np.float32 and series.projections.shape == (3, 4, 5)
    assert series.projections.flags.c_contiguous
    assert np.array_equal(series.projections[2], views[2])


def test_series_fields_cannot_be_reassigned():
    # a reassigned stack used to skip the count check and fail inside scipy
    geom = TiltGeometry(angles=[-2.0, 0.0, 2.0])
    series = TiltSeries(geom, projections=np.zeros((3, 4, 5)), applied_shifts=[(0.0, 0.0)] * 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        series.projections = np.zeros((2, 4, 5))
    assert series.projections.shape == (3, 4, 5)


def test_geometry_fields_cannot_be_reassigned():
    # a reassigned angle list used to skip the series' count check
    geom = TiltGeometry(angles=[-2.0, 0.0, 2.0])
    series = TiltSeries(geom, projections=np.zeros((3, 4, 5)), applied_shifts=[(0.0, 0.0)] * 3)
    with pytest.raises(dataclasses.FrozenInstanceError):
        series.geometry.angles = [-2.0, 0.0]
    assert series.geometry.angles == [-2.0, 0.0, 2.0]


@pytest.mark.parametrize("shape", [(3, 4), (3, 4, 5, 2)])
def test_series_rejects_a_stack_that_is_not_3d(shape):
    geom = TiltGeometry(angles=[-2.0, 0.0, 2.0])
    with pytest.raises(ValueError, match=re.escape(str(shape))):
        TiltSeries(geom, projections=np.zeros(shape), applied_shifts=[(0.0, 0.0)] * 3)


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


def _reference_cubic_taps(x, n):
    """Cubic B-spline tap nodes and weights as first written: taps of every
    coordinate mirrored through ``np.where``, weights stacked column-wise."""
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


def _reference_beam_operator(shape, angle_deg, oversample):
    """The beam operator assembled as 16 (d, w) tap products per beam
    sample, merged by ``sum_duplicates`` (a global sort of the indices)."""
    D, _, W = shape
    Dp, Wp = D + 2 * PAD, W + 2 * PAD
    os_ = oversample
    theta = np.radians(angle_deg)
    c, s = np.cos(theta), np.sin(theta)
    cd, cw = (Dp - 1) / 2.0, (Wp - 1) / 2.0
    zhalf = abs(c) * (Dp - 1) / 2.0 + abs(s) * (Wp - 1) / 2.0
    n_fine = int(np.floor(2.0 * zhalf * os_)) + 1
    z0 = cd - zhalf
    cols = np.arange(W, dtype=np.float64)[:, None]
    a = np.arange(n_fine, dtype=np.float64)[None, :]
    d = (a * (c / os_) + cols * s) + (c * (z0 - cd) + s * (PAD - cw) + cd)
    w = (a * (-s / os_) + cols * c) + (-s * (z0 - cd) + c * (PAD - cw) + cw)
    inside = (d >= 0.0) & (d <= Dp - 1) & (w >= 0.0) & (w <= Wp - 1)
    d_idx, d_wts = _reference_cubic_taps(d[inside], Dp)
    w_idx, w_wts = _reference_cubic_taps(w[inside], Wp)
    d_wts /= os_
    indices = (d_idx[:, :, None] * Wp + w_idx[:, None, :]).ravel()
    data = (d_wts[:, :, None] * w_wts[:, None, :]).ravel()
    indptr = np.concatenate([[0], np.cumsum(16 * inside.sum(axis=1))])
    op = sparse.csr_array((data, indices, indptr), shape=(W, Dp * Wp))
    op.sum_duplicates()
    return op


def _assert_operator_matches_reference(shape, angle, oversample):
    op = _beam_operator(shape, angle, oversample)
    ref = _reference_beam_operator(shape, angle, oversample)
    assert op.shape == ref.shape
    # sorted, duplicate-free indices, checked on a fresh copy of the arrays
    fresh = sparse.csr_array((op.data, op.indices, op.indptr), shape=op.shape)
    assert fresh.has_canonical_format
    # no entry stored where the reference stores none
    ref_stored = np.zeros(ref.shape, dtype=bool)
    ref_coo = ref.tocoo()
    ref_stored[ref_coo.row, ref_coo.col] = True
    op_coo = op.tocoo()
    assert ref_stored[op_coo.row, op_coo.col].all(), (shape, angle, oversample)
    scale = np.abs(ref.data).max()
    err = np.abs(op.toarray() - ref.toarray()).max()
    assert err <= 1e-12 * scale, (shape, angle, oversample, err / scale)


def test_beam_operator_matches_16_tap_reference_at_acceptance_angles():
    for angle in default_angles():
        _assert_operator_matches_reference((46, 360, 46), angle, 2)


@pytest.mark.parametrize("shape", [(46, 1, 46), (7, 1, 10), (10, 1, 7), (9, 1, 13)])
@pytest.mark.parametrize("oversample", [1, 2, 3, 4])
def test_beam_operator_matches_16_tap_reference(shape, oversample):
    for angle in (-90.0, 90.0, 1e-7, -1e-7, 45.0, -45.0, 34.0):
        _assert_operator_matches_reference(shape, angle, oversample)


def test_series_matches_16_tap_reference(monkeypatch):
    vol = multi_blob_volume(46, blobs=4)
    vol = DensityVolume(np.repeat(vol.data, 8, axis=1)[:, :360])  # 46 x 360 x 46
    geom = TiltGeometry()
    series = simulate_tilt_series(vol, geom, seed=4)
    monkeypatch.setattr(tiltsim, "_beam_operator", _reference_beam_operator)
    ref = simulate_tilt_series(vol, geom, seed=4)
    assert series.applied_shifts == ref.applied_shifts
    for proj, expected in zip(series.projections, ref.projections):
        assert np.abs(proj - expected).max() <= 1e-12 * np.abs(expected).max()


def test_pipeline_metadata_identical_with_16_tap_reference(tmp_path, monkeypatch):
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(np.random.default_rng(0), radius=60.0, n=400))
    raw = {
        "structures": {"blob": str(pdb)},
        "seed": 3,
        "particles_per_class": 2,
        "snr_targets": [0.1],
        "placement": {"volume_dims": [40, 80, 40]},
        "tilt": {"angles": [-20.0, -10.0, 0.0, 10.0, 20.0]},
    }
    out = run_pipeline(PipelineConfig.from_dict({**raw, "output_dir": str(tmp_path / "a")}))
    monkeypatch.setattr(tiltsim, "_beam_operator", _reference_beam_operator)
    ref = run_pipeline(PipelineConfig.from_dict({**raw, "output_dir": str(tmp_path / "b")}))
    assert out.metadata_path.read_bytes() == ref.metadata_path.read_bytes()
    assert out.accepted == ref.accepted > 0


def test_fixture_projection_matches_dense_resampling_reference():
    vol = multi_blob_volume(24, blobs=3)
    geom = TiltGeometry()
    for angle in (-60.0, 0.0, 34.0):
        ref = reference_project_tilt(vol, angle, geom)
        assert np.abs(project_tilt(vol, angle, geom) - ref).max() <= 1e-12 * np.abs(ref).max()


def reference_all_rows_coefficients(vol):
    """``tiltsim._spline_coefficients`` before it skipped empty rows: every
    row along h padded, prefiltered in (d, w) and projected."""
    D, H, W = vol.shape
    coeffs = np.zeros((D + 2 * PAD, W + 2 * PAD, H))
    coeffs[PAD:-PAD, PAD:-PAD, :] = vol.data.transpose(0, 2, 1)
    for axis in (0, 1):
        ndimage.spline_filter1d(coeffs, order=3, axis=axis, output=coeffs, mode="constant")
    return coeffs, np.arange(H)


def _rows_sample(kind):
    """A 20 x 24 x 22 sample whose rows along h hold density as ``kind`` says."""
    data = multi_blob_volume(24, blobs=4).data[2:22, :, 1:23]
    if kind == "gaps":  # empty rows at both ends and in the middle
        data[:, :4] = data[:, 11:14] = data[:, 21:] = 0.0
    elif kind == "full":
        data += 0.01
    elif kind in ("zero", "nan"):
        data[:] = 0.0
    vol = DensityVolume(data)
    if kind == "nan":  # DensityVolume rejects NaN, so it is set afterwards
        vol.data[7, 9, 5] = np.nan
    return vol


@pytest.mark.parametrize("kind, rows", [("gaps", 14), ("full", 24), ("zero", 0), ("nan", 1)])
@pytest.mark.parametrize("jobs", [1, 2])
def test_projection_identical_to_all_rows_reference(kind, rows, jobs, monkeypatch):
    vol = _rows_sample(kind)
    geom = TiltGeometry(angles=[-90.0, -56.0, -22.0, 12.0, 46.0, 80.0])
    series = simulate_tilt_series(vol, geom, seed=3, jobs=jobs)
    single = [project_tilt(vol, angle, geom) for angle in geom.angles]
    monkeypatch.setattr(tiltsim, "_spline_coefficients", reference_all_rows_coefficients)
    ref = simulate_tilt_series(vol, geom, seed=3, jobs=jobs)
    assert series.rows_projected == rows
    assert series.applied_shifts == ref.applied_shifts
    for angle, proj, expected, one in zip(geom.angles, series.projections, ref.projections, single):
        assert proj.tobytes() == expected.tobytes(), (kind, angle)
        assert one.tobytes() == project_tilt(vol, angle, geom).tobytes(), (kind, angle)


@pytest.mark.parametrize("jobs", [1, 2])
def test_unshifted_series_equals_project_tilt(jobs):
    vol = multi_blob_volume(16, blobs=2)
    geom = TiltGeometry(angles=[-90.0, -45.0, 0.0, 45.0, 90.0], shift_range=0.0)
    series = simulate_tilt_series(vol, geom, jobs=jobs)
    for angle, proj in zip(geom.angles, series.projections):
        assert np.array_equal(proj, project_tilt(vol, angle, geom).astype(np.float32))


def test_zero_angle_projection_equals_z_sum():
    vol = multi_blob_volume(32, blobs=3)
    proj = project_tilt(vol, 0.0, TiltGeometry())
    z_sum = vol.data.astype(np.float64).sum(axis=0)
    assert np.abs(proj - z_sum).max() < 1e-4 * np.abs(z_sum).max()


@pytest.mark.parametrize("sigma", [2.0, 3.0])
def test_projector_matches_exact_gaussian_line_integrals(sigma):
    """Six sampled Gaussians of peak 1 against their exact line integrals.

    The projector's cubic spline interpolates along d and w; h is sampled at
    its nodes, where the spline reproduces its data. Cubic-spline
    interpolation at node spacing h = 1 voxel errs by at most
    (5/384) h⁴ max|f⁗| (Hall & Meyer, J. Approx. Theory, 1976), and
    max|f⁗| = 3/σ⁴ along each axis of a Gaussian of peak 1, so the
    interpolant is within eps = 2 · (5/384) · 3/σ⁴ of the Gaussian: 4.9e-3
    at σ = 2 and 9.6e-4 at σ = 3. That error lives where the Gaussian does,
    so a beam gathers it along the stretch where it gathers the Gaussian's
    own integral, and each view's error stays within eps of the view's
    largest value.
    """
    rng = np.random.default_rng(3)
    dims = np.array([40, 48, 64])  # (D, H, W)
    margin = 4 * sigma  # the tails past the volume's faces are below 1e-3 of the peak
    centres = rng.uniform(margin, dims - 1 - margin, size=(6, 3))
    grids = [np.arange(n, dtype=float) for n in dims]
    data = np.zeros(dims)
    for centre in centres:
        axes = [np.exp(-((g - c) ** 2) / (2 * sigma**2)) for g, c in zip(grids, centre)]
        data += np.einsum("i,j,k->ijk", *axes)
    angles = default_angles(-60, 60, 2)
    geom = TiltGeometry(angles=angles, shift_range=0.0)
    views = simulate_tilt_series(DensityVolume(data.astype(np.float32)), geom).projections

    # the beam integral of exp(-r² / 2σ²) is sqrt(2π) σ times the Gaussian
    # in (x', h) about the projected centre
    D, _, W = dims
    theta = np.radians(angles)[:, None]
    d, h, w = centres.T
    x_det = np.sin(theta) * (d - (D - 1) / 2) + np.cos(theta) * (w - (W - 1) / 2) + (W - 1) / 2
    g_x = np.exp(-((grids[2] - x_det[..., None]) ** 2) / (2 * sigma**2))  # (tilt, centre, x)
    g_h = np.exp(-((grids[1] - h[:, None]) ** 2) / (2 * sigma**2))  # (centre, h)
    exact = np.sqrt(2 * np.pi) * sigma * np.einsum("ch,tcx->thx", g_h, g_x)

    eps = 2 * (5 / 384) * 3 / sigma**4
    largest = exact.max(axis=(1, 2))
    error = np.abs(views - exact).max(axis=(1, 2))
    assert np.all(error <= eps * largest), f"{(error / largest).max():.2e} of a view > {eps:.2e}"


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


def test_translated_sample_moves_each_view_by_the_detector_rule(rng):
    # x' = cos(theta) (w - c_w) + sin(theta) (d - c_d) + c_w, so a sample
    # moved by whole voxels (dw, dd) moves view theta by dw cos + dd sin
    angles = [-60.0, -30.0, 0.0, 30.0, 60.0]
    data = np.zeros((24, 8, 40), np.float32)
    data[6:-6, :, 6:-6] = rng.random((12, 8, 28))  # the margin is wider than the roll
    moved = np.roll(data, (-2, 3), axis=(0, 2))  # (dd, dw) = (-2, 3)
    geom = TiltGeometry(angles=angles, shift_range=0.0)

    def x_centroids(volume):
        views = simulate_tilt_series(DensityVolume(volume), geom).projections.astype(np.float64)
        return views.sum(axis=1) @ np.arange(views.shape[2]) / views.sum(axis=(1, 2))

    shift = x_centroids(moved) - x_centroids(data)
    theta = np.radians(angles)
    # off by 9.6e-5 px at most: the beam quadrature at oversample 2, not round-off
    assert np.abs(shift - (3 * np.cos(theta) - 2 * np.sin(theta))).max() < 1e-3
    assert np.abs(shift - (3 * np.cos(theta) + 2 * np.sin(theta))).max() > 1.0


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
    vol = multi_blob_volume(16, blobs=1)
    for shift_range in (0, 0.0):
        geom = TiltGeometry(angles=[-4.0, 0.0, 4.0], shift_range=shift_range)
        series = simulate_tilt_series(vol, geom)
        assert series.applied_shifts == [(0.0, 0.0)] * 3
        # +0.0, not -0.0: angles.ndjson records the sign
        signs = {math.copysign(1.0, v) for shift in series.applied_shifts for v in shift}
        assert signs == {1.0}, shift_range


def test_series_deterministic_and_parallel_invariant():
    vol = multi_blob_volume(16, blobs=2)
    geom = TiltGeometry(angles=[-10.0, 0.0, 10.0])
    runs = [simulate_tilt_series(vol, geom, seed=9, jobs=jobs) for jobs in (1, 1, 2, 3)]
    for series in runs:
        # one C-contiguous float32 stack, the payload of tilts.mrc
        assert series.projections.dtype == np.float32 and series.projections.shape == (3, 16, 16)
        assert series.projections.flags.c_contiguous
        assert series.applied_shifts == runs[0].applied_shifts
        assert series.projections.tobytes() == runs[0].projections.tobytes()


def test_series_builds_operators_on_calling_thread(monkeypatch):
    built_in = []

    def recording_operator(*args):
        built_in.append(threading.current_thread())
        return _beam_operator(*args)

    monkeypatch.setattr(tiltsim, "_beam_operator", recording_operator)
    geom = TiltGeometry(angles=[-20.0, -10.0, 0.0, 10.0, 20.0])
    simulate_tilt_series(multi_blob_volume(12, blobs=1), geom, jobs=2)
    # one build per distinct |angle|: 20, 10 and 0
    assert built_in == [threading.main_thread()] * 3


MIRROR_ANGLE_SETS = [
    [-20.0, -10.0, 0.0, 10.0, 20.0],  # symmetric, with 0
    [-15.0, -5.0, 5.0, 15.0],  # symmetric, without 0
    [-30.0, -20.0, -10.0, 0.0, 10.0],  # asymmetric, with 0
    [-9.0, -3.0, 3.0, 9.0, 15.0, 21.0],  # asymmetric, without 0
    [-90.0, -45.0, 0.0, 45.0, 90.0],
]


@pytest.mark.parametrize("angles", MIRROR_ANGLE_SETS)
@pytest.mark.parametrize("jobs", [1, 2])
def test_series_builds_one_operator_per_distinct_tilt(monkeypatch, angles, jobs):
    built = []

    def recording_operator(shape, angle, oversample):
        built.append((angle, threading.current_thread()))
        return _beam_operator(shape, angle, oversample)

    monkeypatch.setattr(tiltsim, "_beam_operator", recording_operator)
    simulate_tilt_series(multi_blob_volume(12, blobs=1), TiltGeometry(angles=angles), jobs=jobs)
    tilts = sorted(angle for angle, _ in built)
    assert tilts == sorted({abs(a) for a in angles})
    assert {thread for _, thread in built} == {threading.main_thread()}


@pytest.mark.parametrize("angles", MIRROR_ANGLE_SETS)
@pytest.mark.parametrize("jobs", [1, 2])
def test_unshifted_views_match_project_tilt(angles, jobs):
    # a negative angle's view comes from the mirrored +|angle| operator,
    # project_tilt builds the operator of the angle itself
    vol = multi_blob_volume(16, blobs=3)
    geom = TiltGeometry(angles=angles, shift_range=0.0)
    series = simulate_tilt_series(vol, geom, seed=2, jobs=jobs)
    for angle, view in zip(angles, series.projections):
        expected = project_tilt(vol, angle, geom).astype(np.float32)
        assert np.abs(view - expected).max() <= 1e-12 * np.abs(expected).max(), angle


@pytest.mark.parametrize("shape", [(46, 360, 46), (64, 12, 128), (7, 3, 10), (10, 2, 7)])
def test_mirrored_operator_projects_like_a_direct_build(shape):
    vol = DensityVolume(np.random.default_rng(1).random(shape).astype(np.float32))
    coeffs, rows = _spline_coefficients(vol)
    for angle in (2.0, 30.0, 45.0, 60.0, 90.0, 1e-7, 17.3):
        op = _beam_operator(shape, angle, 2)
        mirrored = _project(coeffs, rows, shape[1], _mirror(op, shape))[:, ::-1]
        direct = _project(coeffs, rows, shape[1], _beam_operator(shape, -angle, 2))
        assert np.abs(mirrored - direct).max() <= 1e-13 * np.abs(direct).max(), angle


def test_series_worker_exception_propagates(monkeypatch):
    failed_in = []

    def failing_project(*args):
        failed_in.append(threading.current_thread())
        raise RuntimeError("projection failed")

    monkeypatch.setattr(tiltsim, "_project", failing_project)
    geom = TiltGeometry(angles=[-10.0, 0.0, 10.0])
    with pytest.raises(RuntimeError, match="projection failed"):
        simulate_tilt_series(multi_blob_volume(8, blobs=1), geom, jobs=2)
    assert failed_in and threading.main_thread() not in failed_in


@pytest.mark.parametrize("jobs", [0, -3])
def test_series_rejects_jobs_below_one(monkeypatch, jobs):
    geom = TiltGeometry(angles=[-10.0, 0.0, 10.0])

    def never_called(vol):
        raise AssertionError("jobs is checked before the spline prefilter")

    monkeypatch.setattr(tiltsim, "_spline_coefficients", never_called)
    with pytest.raises(ValueError, match=f"jobs must be an integer >= 1, got {jobs}$"):
        simulate_tilt_series(multi_blob_volume(8, blobs=1), geom, jobs=jobs)


@pytest.mark.parametrize("jobs", [float("nan"), 2.5])
def test_build_then_run_rejects_jobs_that_is_not_an_integer(jobs):
    # a NaN pool never starts a worker, so the call runs on a thread with a
    # timeout: the failure must be a ValueError, not a hang
    raised = []

    def call():
        try:
            build_then_run([1, 2, 3], lambda item: item, lambda item, built: built, jobs)
        except ValueError as exc:
            raised.append(exc)

    worker = threading.Thread(target=call, daemon=True)
    worker.start()
    worker.join(timeout=10.0)
    assert not worker.is_alive(), f"build_then_run(jobs={jobs!r}) hung"
    assert raised and str(raised[0]) == f"jobs must be an integer >= 1, got {jobs!r}"


def test_applied_shift_recoverable_by_phase_correlation():
    vol = multi_blob_volume(32, blobs=4)
    geom = TiltGeometry(angles=[-2.0, 0.0, 2.0])
    series = simulate_tilt_series(vol, geom, seed=21)
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


@pytest.mark.parametrize("shape", SHIFT_SHAPES)
def test_fourier_shift_matches_complex_reference(rng, shape):
    # half-integer shifts put cos(pi d) = 0 or -1 on the Nyquist row,
    # column and corner of even axes, where the full ramp is not Hermitian
    img = rng.normal(size=shape)
    shifts = [(0.5, 0.5), (-0.5, 1.5), (1.5, -0.5), (0.5, 0.0), (0.0, -2.5)]
    shifts += [tuple(rng.uniform(-3.0, 3.0, size=2)) for _ in range(5)]
    for dx, dy in shifts:
        got = fourier_shift_2d(img, dx, dy)
        ref = reference_fourier_shift_2d(img, dx, dy)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

