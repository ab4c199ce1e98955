import re
import sys
import threading
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import SHIFT_SHAPES, gaussian_blob, reference_fourier_shift_2d
from cryoforge import recon
from cryoforge.recon import (
    ReconConfig,
    filter_projection,
    filter_response,
    reproject,
    wbp_reconstruct,
)
from cryoforge.tiltalign import align_series
from cryoforge.tiltsim import (
    TiltGeometry,
    TiltSeries,
    default_angles,
    simulate_tilt_series,
)
from cryoforge.volume import DensityVolume


def test_config_validation():
    with pytest.raises(ValueError):
        ReconConfig(output_dims=(0, 4, 4))
    with pytest.raises(ValueError):
        ReconConfig(weighting="cos2")


def test_filter_response_endpoints():
    H = filter_response(32)
    assert H[0] == 0.0  # ramp kills DC
    assert H[-1] == pytest.approx(0.0, abs=1e-15)  # Hann taper zeroes Nyquist


def test_constant_image_filters_to_zero():
    out = filter_projection(np.full((8, 16), 3.0))
    assert np.abs(out).max() < 1e-12


def test_impulse_row_matches_direct_dft_oracle():
    N = 32
    img = np.zeros((1, N))
    img[0, 7] = 1.0
    out = filter_projection(img)
    # oracle: evaluate H(f) from its formula and inverse-transform directly
    freqs = np.fft.rfftfreq(N)
    H = (freqs / 0.5) * (0.5 + 0.5 * np.cos(np.pi * freqs / 0.5))
    kernel = np.fft.irfft(H, n=N)
    assert np.abs(out[0] - np.roll(kernel, 7)).max() < 1e-6


def _blob_series(angles, n=32):
    data = gaussian_blob((n, n, n), ((n - 1) / 2,) * 3, 4.0)
    vol = DensityVolume(data.astype(np.float32))
    geom = TiltGeometry(angles=angles, shift_range=0.0)
    return vol, simulate_tilt_series(vol, geom)


def test_wbp_peak_near_true_center():
    n = 32
    vol, series = _blob_series(default_angles(-90, 90, 6), n)
    shifts = [(0.0, 0.0)] * len(series.projections)
    tomo = wbp_reconstruct(series, shifts, ReconConfig(output_dims=(n, n, n)))
    peak = np.unravel_index(np.argmax(tomo.data), tomo.shape)
    truth = np.unravel_index(np.argmax(vol.data), vol.shape)
    assert np.abs(np.array(peak) - np.array(truth)).max() <= 1


def test_wbp_linearity_in_projections():
    n = 24
    _, series = _blob_series(default_angles(-60, 60, 20), n)
    shifts = [(0.0, 0.0)] * len(series.projections)
    cfg = ReconConfig(output_dims=(n, n, n))
    base = wbp_reconstruct(series, shifts, cfg)
    scaled_series = type(series)(
        geometry=series.geometry,
        projections=[3.0 * p for p in series.projections],
        applied_shifts=series.applied_shifts,
    )
    scaled = wbp_reconstruct(scaled_series, shifts, cfg)
    assert np.abs(scaled.data - 3.0 * base.data).max() < 1e-5 * np.abs(base.data).max()


def test_wbp_applies_shift_correction():
    n = 24
    vol, clean = _blob_series(default_angles(-60, 60, 10), n)
    geom = TiltGeometry(angles=default_angles(-60, 60, 10), shift_range=1.0)
    drifted = simulate_tilt_series(vol, geom, seed=4)
    cfg = ReconConfig(output_dims=(n, n, n))
    corrected = wbp_reconstruct(drifted, align_series(drifted).shifts, cfg)
    reference = wbp_reconstruct(clean, [(0.0, 0.0)] * len(clean.projections), cfg)
    inner = (slice(4, -4),) * 3
    a, b = corrected.data[inner].ravel(), reference.data[inner].ravel()
    assert np.corrcoef(a, b)[0, 1] > 0.99


def test_wbp_requires_three_tilts():
    _, series = _blob_series([-10.0, 10.0], 16)
    with pytest.raises(ValueError):
        wbp_reconstruct(series, [(0.0, 0.0)] * 2, ReconConfig(output_dims=(16, 16, 16)))


@pytest.mark.parametrize("dims", [(6, 9, 13), (6, 10, 14)], ids=["H", "W"])
def test_wbp_refuses_a_grid_other_than_the_views(rng, dims):
    # the tomogram is on the views' own (h, w) grid; only its depth is free
    series, shifts = _random_series(rng, [-20.0, 0.0, 20.0], (10, 13))
    named = rf"^output_dims {re.escape(str(dims))}: H and W must match the \(3, 10, 13\) views$"
    with pytest.raises(ValueError, match=named):
        wbp_reconstruct(series, shifts, ReconConfig(output_dims=dims))


def test_wbp_corner_column_off_the_detector_gets_nothing_from_that_view(rng):
    # voxel column (d, w) = (0, 0) projects left of the detector at +60
    # degrees and (0, W - 1) right of it at -60; the other corner lands on it
    D, H, W = 9, 5, 9
    angles = [-60.0, 0.0, 60.0]
    for view, off, on in [(2, 0, W - 1), (0, W - 1, 0)]:
        theta = np.radians(angles[view])
        x_det = np.sin(theta) * -(D - 1) / 2 + np.cos(theta) * (np.array([off, on]) - (W - 1) / 2)
        x_det += (W - 1) / 2
        assert not 0.0 <= x_det[0] <= W - 1 and 0.0 <= x_det[1] <= W - 1
        projections = np.zeros((3, H, W), dtype=np.float32)
        projections[view] = rng.normal(size=(H, W))  # only this view carries data
        series = TiltSeries(TiltGeometry(angles=angles), projections, [(0.0, 0.0)] * 3)
        shifts = series.applied_shifts
        tomo = wbp_reconstruct(series, shifts, ReconConfig(output_dims=(D, H, W))).data
        assert not tomo[0, :, off].any() and tomo[0, :, on].all()


def test_wbp_shift_count_mismatch():
    # a library caller, such as an aligner, gets both counts, not a file name
    _, series = _blob_series([-10.0, 0.0, 10.0], 16)
    for n in (2, 4):
        with pytest.raises(ValueError, match=f"^{n} shifts for 3 views$"):
            wbp_reconstruct(series, [(0.0, 0.0)] * n, ReconConfig(output_dims=(16, 16, 16)))


def _reference_shift_filter(img, dx, dy):
    """Two round trips per tilt, as before the fused one: a complex
    full-grid shift, then the row filter as rfft/irfft along x."""
    img = np.asarray(img, dtype=np.float64)
    if dx or dy:
        img = reference_fourier_shift_2d(img, dx, dy)
    H = filter_response(img.shape[1])
    return np.fft.irfft(np.fft.rfft(img, axis=1) * H[None, :], n=img.shape[1], axis=1)


@pytest.mark.parametrize("shape", SHIFT_SHAPES)
def test_filter_projection_matches_two_round_trips(rng, shape):
    img = rng.normal(size=shape)
    for dx, dy in [(0.0, 0.0), (0.5, 0.5), (-0.5, 1.5), tuple(rng.uniform(-2.0, 2.0, size=2))]:
        got = filter_projection(img, dx, dy)
        ref = _reference_shift_filter(img, dx, dy)
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def _reference_wbp(series, shifts, cfg):
    """The per-tilt gather back-projector the slab operator replaced: every
    tilt gathers an (H, D, W) float64 contribution and adds it to a float64
    volume. Each tilt is shifted and filtered in two FFT round trips."""
    n_tilts, H, W = series.projections.shape
    D = cfg.output_dims[0]
    c = (W - 1) / 2.0
    zc = np.arange(D) - (D - 1) / 2.0
    xc = np.arange(W) - c
    out = np.zeros((D, H, W), dtype=np.float64)
    for i in range(n_tilts):
        theta = np.radians(series.geometry.angles[i])
        weight = abs(np.cos(theta))
        if weight == 0.0:
            continue
        dx, dy = shifts[i]
        rows = _reference_shift_filter(series.projections[i], -dx, -dy)
        xprime = np.sin(theta) * zc[:, None] + np.cos(theta) * xc[None, :] + c
        inside = (xprime >= 0.0) & (xprime <= W - 1)
        xcl = np.clip(xprime, 0.0, W - 1)
        i0 = np.floor(xcl).astype(int)
        i1 = np.minimum(i0 + 1, W - 1)
        tx = xcl - i0
        contrib = rows[:, i0] * (1.0 - tx)[None, :, :] + rows[:, i1] * tx[None, :, :]
        contrib *= inside[None, :, :]
        out += weight * np.transpose(contrib, (1, 0, 2))
    out *= np.pi / (2.0 * n_tilts)
    return DensityVolume(out.astype(np.float32), series.voxel_size)


def _random_series(rng, angles, det_shape):
    geom = TiltGeometry(angles=[0.0])
    # any order and spacing, past the uniform-step rule of a frozen geometry:
    # WBP reads only the angles
    object.__setattr__(geom, "angles", list(angles))
    projections = [rng.normal(size=det_shape).astype(np.float32) for _ in angles]
    series = TiltSeries(geom, projections, [(0.0, 0.0)] * len(angles), voxel_size=4.0)
    return series, [tuple(rng.uniform(-1.5, 1.5, size=2)) for _ in angles]


def _assert_within_one_ulp(got, ref):
    got, ref = got.astype(np.float64), ref.astype(np.float64)
    diff = np.abs(got - ref)
    ulp = np.spacing(np.abs(ref).astype(np.float32)).astype(np.float64)
    assert np.all((diff <= ulp) | (diff <= 1e-6 * np.abs(ref).max()))


@pytest.mark.parametrize("weighting", recon.WEIGHTINGS)
@pytest.mark.parametrize("H,W", [(7, 9), (8, 17), (15, 9), (16, 17)])
def test_wbp_matches_per_tilt_gather_reference(monkeypatch, rng, weighting, H, W):
    # detectors with odd and even H and W, so the volume centre falls on a
    # pixel and between two
    series, shifts = _random_series(rng, [-90.0, -60.0, 0.0, 1e-7, 34.0, 90.0], (H, W))
    # D = 11 is prime and 8000 bytes make slabs of 2 to 7 rows: the last slab is partial
    monkeypatch.setattr(recon, "SLAB_BYTES", 8000)
    cfg = ReconConfig(output_dims=(11, H, W), weighting=weighting)
    got = wbp_reconstruct(series, shifts, cfg)
    ref = _reference_wbp(series, shifts, cfg)
    assert got.data.dtype == np.float32 and got.shape == (11, H, W)
    assert got.voxel_size == 4.0
    _assert_within_one_ulp(got.data, ref.data)


# -60...60 degrees in 2 degree steps: the float32 product sums 122 taps per voxel
LONG_SERIES = default_angles(-60, 60, 2)


@pytest.mark.parametrize("weighting", recon.WEIGHTINGS)
def test_wbp_matches_per_tilt_gather_reference_at_61_tilts(monkeypatch, rng, weighting):
    series, shifts = _random_series(rng, LONG_SERIES, (14, 19))
    monkeypatch.setattr(recon, "SLAB_BYTES", 40_000)  # slabs of 2 rows, the last partial
    cfg = ReconConfig(output_dims=(11, 14, 19), weighting=weighting)
    got = wbp_reconstruct(series, shifts, cfg)
    _assert_within_one_ulp(got.data, _reference_wbp(series, shifts, cfg).data)


def test_wbp_threads_match_serial_at_61_tilts(monkeypatch, rng):
    series, shifts = _random_series(rng, LONG_SERIES, (14, 19))
    monkeypatch.setattr(recon, "SLAB_BYTES", 40_000)
    cfg = ReconConfig(output_dims=(11, 14, 19))
    serial = wbp_reconstruct(series, shifts, cfg, jobs=1)
    assert np.array_equal(wbp_reconstruct(series, shifts, cfg, jobs=2).data, serial.data)


def test_wbp_slab_height_does_not_change_output(monkeypatch, rng):
    series, shifts = _random_series(rng, default_angles(-60, 60, 6), (22, 18))
    cfg = ReconConfig(output_dims=(13, 22, 18))
    whole = wbp_reconstruct(series, shifts, cfg)  # one slab at the default SLAB_BYTES
    monkeypatch.setattr(recon, "SLAB_BYTES", 1)  # one d row per slab
    by_row = wbp_reconstruct(series, shifts, cfg)
    assert np.array_equal(by_row.data, whole.data)


@pytest.mark.parametrize("H,W", [(7, 9), (8, 17), (15, 9), (16, 17)])
def test_wbp_threads_match_serial(monkeypatch, rng, H, W):
    series, shifts = _random_series(rng, [-90.0, -60.0, 0.0, 1e-7, 34.0, 90.0], (H, W))
    cfg = ReconConfig(output_dims=(11, H, W))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so slabs interleave
    try:
        # 8000 bytes make serial slabs of 2 to 7 rows and threaded ones a
        # jobs-th of that, so D = 11 ends on a partial slab; 1 byte makes one
        # d row per slab, many more slabs than workers
        for slab_bytes in (8000, 1):
            monkeypatch.setattr(recon, "SLAB_BYTES", slab_bytes)
            serial = wbp_reconstruct(series, shifts, cfg, jobs=1)
            for jobs in (2, 3):
                threaded = wbp_reconstruct(series, shifts, cfg, jobs=jobs)
                assert np.array_equal(threaded.data, serial.data)
    finally:
        sys.setswitchinterval(interval)


def test_wbp_worker_exception_propagates(monkeypatch, rng):
    series, shifts = _random_series(rng, default_angles(-60, 60, 6), (12, 12))
    monkeypatch.setattr(recon, "SLAB_BYTES", 1)  # one slab per d row
    failed_in = []

    class FailingOperator:
        def __init__(self, arrays, shape):
            self.shape = shape

        def __matmul__(self, other):
            failed_in.append(threading.current_thread())
            raise RuntimeError("slab product failed")

    monkeypatch.setattr(recon, "sparse", SimpleNamespace(csr_array=FailingOperator))
    with pytest.raises(RuntimeError, match="slab product failed"):
        wbp_reconstruct(series, shifts, ReconConfig(output_dims=(9, 12, 12)), jobs=2)
    assert failed_in and threading.main_thread() not in failed_in


@pytest.mark.parametrize("jobs", [0, -3])
def test_wbp_rejects_jobs_below_one(rng, jobs):
    series, shifts = _random_series(rng, [-10.0, 0.0, 10.0], (8, 8))
    with pytest.raises(ValueError, match=f"jobs must be an integer >= 1, got {jobs}$"):
        wbp_reconstruct(series, shifts, ReconConfig(output_dims=(8, 8, 8)), jobs=jobs)


def test_wbp_rejects_jobs_that_is_not_an_integer(rng):
    series, shifts = _random_series(rng, [-10.0, 0.0, 10.0], (8, 8))
    with pytest.raises(ValueError, match="jobs must be an integer >= 1, got 2.5"):
        wbp_reconstruct(series, shifts, ReconConfig(output_dims=(8, 8, 8)), jobs=2.5)


@pytest.mark.parametrize(
    "angles,dims", [([-45.0, -15.0, 15.0, 45.0], (7, 5, 11)), (LONG_SERIES, (11, 6, 17))]
)
def test_reproject_is_the_adjoint_of_back_projection_on_one_grid(monkeypatch, rng, angles, dims):
    # with the filter the identity and zero shifts, wbp_reconstruct(y) is
    # (pi / 2N) sum_t |cos theta_t| A_t^T y_t, and reproject(x) is (A_t x)_t,
    # the views y and the volume x sharing one (h, w) grid
    monkeypatch.setattr(recon, "filter_projection", lambda img, dx, dy: img.astype(np.float64))
    x = rng.random(dims).astype(np.float32)  # positive: the inner products cannot cancel
    y = rng.random((len(angles), *dims[1:])).astype(np.float32)
    series = TiltSeries(TiltGeometry(angles=angles), y, [(0.0, 0.0)] * len(angles))
    back = wbp_reconstruct(series, series.applied_shifts, ReconConfig(output_dims=dims)).data
    views = reproject(DensityVolume(x), angles)
    weights = np.abs(np.cos(np.radians(angles)))[:, None, None]
    forward = np.pi / (2 * len(angles)) * np.sum(views * weights * y)
    adjoint = np.sum(x.astype(np.float64) * back)
    assert abs(forward - adjoint) <= 1e-5 * adjoint


def test_reproject_puts_a_point_source_at_its_detector_coordinate():
    D, H, W = 9, 5, 12
    d, h, w = 8, 3, 11
    data = np.zeros((D, H, W), dtype=np.float32)
    data[d, h, w] = 1.0
    views = reproject(DensityVolume(data), LONG_SERIES)
    theta = np.radians(LONG_SERIES)
    x_det = np.sin(theta) * (d - (D - 1) / 2) + np.cos(theta) * (w - (W - 1) / 2)
    x_det += (W - 1) / 2
    on = (x_det >= 0.0) & (x_det <= W - 1)
    assert 0 < on.sum() < len(on)  # the source leaves the detector at some tilts
    assert not views[~on].any()
    for i in np.flatnonzero(on):
        row = views[i, h]
        assert abs(row.sum() - 1.0) <= 1e-6
        assert abs(np.arange(W) @ row / row.sum() - x_det[i]) <= 1e-4
        assert not np.delete(views[i], h, axis=0).any()


def test_reproject_zero_degree_view_is_the_z_sum(rng):
    data = rng.normal(size=(12, 7, 10)).astype(np.float32)
    view = reproject(DensityVolume(data), [-30.0, 0.0, 30.0])[1]
    z_sum = data.astype(np.float64).sum(axis=0)
    # one float32 slab of 12 rows: each addition rounds by at most eps/2 of a
    # partial sum no larger than the column's sum of |values|
    assert np.abs(view - z_sum).max() <= 12 * np.finfo(np.float32).eps * np.abs(data).sum(0).max()


def test_reproject_slab_heights_agree(monkeypatch, rng):
    vol = DensityVolume(rng.random((13, 22, 18)).astype(np.float32))
    angles = default_angles(-60, 60, 6)
    whole = reproject(vol, angles)  # one slab at the default SLAB_BYTES
    monkeypatch.setattr(recon, "SLAB_BYTES", 20_000)  # slabs of 2 rows, the last partial
    slabs = reproject(vol, angles)
    # a slab's float32 product rounds its own partial sums, so slab heights agree to round-off
    largest = np.abs(whole).max(axis=(1, 2))
    assert np.all(np.abs(slabs - whole).max(axis=(1, 2)) <= 1e-6 * largest)


def test_reproject_memory_does_not_grow_with_the_slab_count(monkeypatch, rng):
    angles, (D, H, W) = default_angles(-60, 60, 6), (40, 64, 16)
    vol = DensityVolume(rng.random((D, H, W)).astype(np.float32))
    monkeypatch.setattr(recon, "SLAB_BYTES", 1)  # 40 slabs of one d row
    stack = len(angles) * H * W * 8  # bytes of the float64 views
    tracemalloc.start()
    try:
        reproject(vol, angles)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * stack
