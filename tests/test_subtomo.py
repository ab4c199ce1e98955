import numpy as np
import pytest

from conftest import gaussian_blob
from cryoforge import subtomo
from cryoforge.scene import ParticleInstance
from cryoforge.subtomo import (
    ExtractionConfig,
    add_noise,
    extract,
    make_mask,
    noise_field,
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
    with pytest.raises(ValueError, match="snr_target must be finite and positive"):
        add_noise(_tomo((8, 8, 8)), [0.0])


# NaN and fractional boxes, and a NaN jitter, used to build and then fail
# inside extract with a TypeError or a ValueError naming no field
def test_box_must_be_an_integer_of_at_least_8():
    for bad in (float("nan"), 12.5, 7, -32):
        with pytest.raises(ValueError, match="box must be an integer >= 8"):
            ExtractionConfig(box=bad)
    cfg = ExtractionConfig(box=np.int64(16))
    assert cfg.box == 16 and type(cfg.box) is int


def test_jitter_range_must_be_a_non_negative_integer():
    for bad in (float("nan"), 1.5, -1):
        with pytest.raises(ValueError, match="jitter_range must be an integer >= 0"):
            ExtractionConfig(jitter_range=bad)
    cfg = ExtractionConfig(jitter_range=np.int32(0))
    assert cfg.jitter_range == 0 and type(cfg.jitter_range) is int


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
    accepted, _ = extract(tomo, [inst], ExtractionConfig(jitter_range=2), seed=5)
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
    cfg = ExtractionConfig(jitter_range=2)
    first, _ = extract(tomo, insts, cfg, seed=11)
    second, _ = extract(tomo, insts, cfg, seed=11)
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
    # noise_field(shape, sigma, seed) is sigma times the unit field of that seed
    unit = noise_field(vol.shape, 1.0, 0).ravel()
    low, high = (
        unit @ (noisy.data.astype(np.float64) - vol.data).ravel() / (unit @ unit)
        for target in (0.01, 100.0)
        for noisy in add_noise(vol, [target])
    )
    assert low == pytest.approx(np.sqrt(v * 100.0), rel=1e-6)
    assert high == pytest.approx(np.sqrt(v / 100.0), rel=1e-6)


def test_noise_field_regenerates_the_added_noise(monkeypatch):
    clean = _tomo((16, 16, 16), seed=3)
    targets = (0.05, 100.0, 0.01, 0.05)
    casts = []
    monkeypatch.setattr(
        subtomo, "signal_variance", lambda vol: casts.append(vol) or signal_variance(vol)
    )
    together = add_noise(clean, targets, seed=7, index=1)
    monkeypatch.undo()
    assert len(casts) == 1  # one float64 copy and one variance for all the copies
    assert len(together) == len(targets)
    for j, (target, noisy) in enumerate(zip(targets, together)):
        sigma = np.sqrt(signal_variance(clean) / target)
        recovered = noisy.data.astype(np.float64) - noise_field(clean.shape, sigma, (7, 1, j))
        # float32 storage rounds once; recovery is exact to storage precision
        assert np.abs(recovered - clean.data).max() < 1e-4 * sigma
        # copy j does not depend on the targets after it
        again = add_noise(clean, targets[: j + 1], seed=7, index=1)[-1]
        assert again.data.tobytes() == noisy.data.tobytes()
    assert together[0].data.tobytes() != together[3].data.tobytes()  # one stream per copy
    assert add_noise(clean, []) == []
    # SeedSequence drops trailing zero words, so copy 0 of box 0, the CLI's
    # one-target call, draws from the stream of the seed alone
    for seed in (0, 1, 5, 11, 2**40):
        assert np.array_equal(noise_field((4, 4, 4), 1.0, (seed, 0, 0)),
                              noise_field((4, 4, 4), 1.0, seed))


def test_measured_snr_close_to_target():
    clean = _tomo((32, 32, 32), seed=5)
    v_sig = signal_variance(clean)
    target = 0.05
    noisy = [add_noise(clean, [target], seed=seed)[0] for seed in range(20)]
    pooled = [(copy.data.astype(np.float64) - clean.data) ** 2 for copy in noisy]
    noise_var = np.mean(pooled)
    assert (v_sig / noise_var) / target == pytest.approx(1.0, abs=0.05)


def test_zero_variance_rejected():
    with pytest.raises(ValueError, match="^clean volume has zero variance$"):
        add_noise(DensityVolume(np.full((8, 8, 8), 2.0)), [0.05])
