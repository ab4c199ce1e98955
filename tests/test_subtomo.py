import numpy as np
import pytest

from conftest import gaussian_blob
from cryoforge.scene import ParticleInstance
from cryoforge.subtomo import (
    DegenerateSignalError,
    ExtractionConfig,
    NoiseSpec,
    add_noise,
    extract,
    make_mask,
    noise_field,
    noise_sigma,
    signal_variance,
)
from cryoforge.volume import DensityVolume

IDENTITY_Q = (1.0, 0.0, 0.0, 0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        ExtractionConfig(box=4)
    # a NaN distance accepted every neighbour, however close
    for distance in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="neighbor_exclusion must be finite and positive"):
            ExtractionConfig(neighbor_exclusion=distance)
    with pytest.raises(ValueError):
        ExtractionConfig(jitter_range=-1)
    # NaN or above 1 made an all-zero mask, 0 or below a full-box one
    for threshold in (0.0, -0.5, 1.5, float("nan")):
        with pytest.raises(ValueError, match="mask_threshold must be in"):
            ExtractionConfig(mask_threshold=threshold)
    with pytest.raises(ValueError):
        NoiseSpec(snr_target=0.0)


def _tomo(shape=(32, 32, 32), seed=0):
    rng = np.random.default_rng(seed)
    return DensityVolume(rng.random(shape).astype(np.float32))


def test_full_volume_crop():
    tomo = _tomo()
    inst = ParticleInstance("a", (16.0, 16.0, 16.0), IDENTITY_Q)
    accepted, rejections = extract(tomo, [inst], ExtractionConfig(jitter_range=0))
    assert rejections == []
    assert len(accepted) == 1
    assert np.array_equal(accepted[0].data, tomo.data)
    assert accepted[0].center_offset == (0, 0, 0)
    assert accepted[0].crop_corner == (0, 0, 0)


def test_boundary_rejection():
    tomo = _tomo((64, 64, 64))
    inst = ParticleInstance("a", (10.0, 32.0, 32.0), IDENTITY_Q)
    _, rejections = extract(tomo, [inst], ExtractionConfig(jitter_range=0))
    assert [r.reason for r in rejections] == ["boundary"]
    assert rejections[0].instance_index == 0


def test_neighbor_rejection_is_mutual():
    tomo = _tomo((64, 64, 64))
    a = ParticleInstance("a", (32.0, 32.0, 24.0), IDENTITY_Q)
    b = ParticleInstance("b", (32.0, 32.0, 40.0), IDENTITY_Q)  # 16 voxels apart
    accepted, rejections = extract(tomo, [a, b], ExtractionConfig(jitter_range=0))
    assert accepted == []
    assert [r.reason for r in rejections] == ["neighbor", "neighbor"]


def test_jitter_recorded_and_crop_consistent():
    tomo = _tomo((64, 64, 64))
    inst = ParticleInstance("a", (32.0, 32.0, 32.0), IDENTITY_Q)
    cfg = ExtractionConfig(jitter_range=2, seed=5)
    accepted, _ = extract(tomo, [inst], cfg)
    sub = accepted[0]
    assert all(-2 <= j <= 2 for j in sub.center_offset)
    corner = np.array(sub.crop_corner)
    assert np.array_equal(corner, 32 + np.array(sub.center_offset) - 16)
    sl = tuple(slice(c, c + 32) for c in corner)
    assert np.array_equal(sub.data, tomo.data[sl])


def test_extraction_deterministic():
    tomo = _tomo((64, 64, 64))
    insts = [
        ParticleInstance("a", (24.0, 24.0, 24.0), IDENTITY_Q),
        ParticleInstance("b", (42.0, 42.0, 42.0), IDENTITY_Q),
    ]
    cfg = ExtractionConfig(jitter_range=2, seed=11)
    first, _ = extract(tomo, insts, cfg)
    second, _ = extract(tomo, insts, cfg)
    assert [s.center_offset for s in first] == [s.center_offset for s in second]


def test_make_mask_definition():
    data = gaussian_blob((16, 16, 16), (7.5, 7.5, 7.5), 3.0).astype(np.float32)
    cfg = ExtractionConfig()
    mask = make_mask(DensityVolume(data), cfg)
    oracle = (data >= 0.05 * data.max()).astype(np.uint8)
    assert np.array_equal(mask, oracle)
    assert mask.dtype == np.uint8


def test_make_mask_all_zero():
    mask = make_mask(DensityVolume(np.zeros((8, 8, 8))), ExtractionConfig())
    assert not mask.any()


def test_noise_sigma_arithmetic():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(32, 32, 32))
    data = (data - data.mean()) / data.std()  # unit population variance
    vol = DensityVolume(data.astype(np.float32))
    v = signal_variance(vol)
    assert noise_sigma(vol, NoiseSpec(0.01)) == pytest.approx(np.sqrt(v * 100.0), rel=1e-6)
    assert noise_sigma(vol, NoiseSpec(100.0)) == pytest.approx(np.sqrt(v / 100.0), rel=1e-6)


def test_noise_field_regenerates_the_added_noise():
    clean = _tomo((16, 16, 16), seed=3)
    spec = NoiseSpec(snr_target=0.05, seed=(7, 1))
    noisy = add_noise(clean, spec)
    sigma = noise_sigma(clean, spec)
    recovered = noisy.data.astype(np.float64) - noise_field(clean.shape, sigma, spec.seed)
    # float32 storage rounds once; recovery is exact to storage precision
    assert np.abs(recovered - clean.data).max() < 1e-4 * sigma
    again = add_noise(clean, spec)
    assert np.array_equal(noisy.data, again.data)


def test_measured_snr_close_to_target():
    clean = _tomo((32, 32, 32), seed=5)
    v_sig = signal_variance(clean)
    target = 0.05
    pooled = []
    for seed in range(20):
        noisy = add_noise(clean, NoiseSpec(snr_target=target, seed=seed))
        pooled.append((noisy.data.astype(np.float64) - clean.data) ** 2)
    noise_var = np.mean(pooled)
    assert (v_sig / noise_var) / target == pytest.approx(1.0, abs=0.05)


def test_zero_variance_rejected():
    with pytest.raises(DegenerateSignalError):
        add_noise(DensityVolume(np.full((8, 8, 8), 2.0)), NoiseSpec(0.05))
