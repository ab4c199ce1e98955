import numpy as np
import pytest
from scipy import ndimage

from cryoforge.geometry import quat_to_matrix
from cryoforge.scene import (
    ParticleInstance,
    PlacementConfig,
    compose_sample,
    place_particles,
    poisson_disk_sample,
    shoemake_quaternion,
)
from cryoforge.volume import DensityVolume


class _ZeroRng:
    def random(self, n):
        return np.zeros(n)


def test_exclusion_radius_default():
    assert PlacementConfig().exclusion_radius == 19.0


# NaN box_size or safety_margin placed all-NaN centres, NaN max_attempts
# placed none, box_size -40 made the exclusion radius -17 (centres outside
# the volume), and target_count 2.5 placed 3
def test_box_size_must_be_a_positive_integer():
    for bad in (float("nan"), -40, 0, 12.5):
        with pytest.raises(ValueError, match="box_size must be an integer >= 1"):
            PlacementConfig(box_size=bad)


def test_safety_margin_must_be_a_non_negative_integer():
    for bad in (float("nan"), -1, 2.5):
        with pytest.raises(ValueError, match="safety_margin must be an integer >= 0"):
            PlacementConfig(safety_margin=bad)
    assert PlacementConfig(box_size=20, safety_margin=0).exclusion_radius == 10.0


def test_target_count_must_be_a_positive_integer():
    for bad in (float("nan"), 0, 2.5):
        with pytest.raises(ValueError, match="target_count must be an integer >= 1"):
            PlacementConfig(target_count=bad)


def test_max_attempts_must_be_a_positive_integer():
    for bad in (float("nan"), 0, 2.5):
        with pytest.raises(ValueError, match="max_attempts must be an integer >= 1"):
            PlacementConfig(max_attempts=bad)


def test_placement_integer_fields_become_ints():
    cfg = PlacementConfig(box_size=np.int64(20), safety_margin=np.int32(2),
                          target_count=np.uint8(3), max_attempts=np.int16(50))
    fields = (cfg.box_size, cfg.safety_margin, cfg.target_count, cfg.max_attempts)
    assert fields == (20, 2, 3, 50) and all(type(v) is int for v in fields)


def test_tiny_volume_admits_single_center():
    cfg = PlacementConfig(volume_dims=(40, 40, 40), target_count=3, max_attempts=500)
    centers = poisson_disk_sample(cfg)
    assert len(centers) == 1  # the interior cube is only 2 voxels wide
    assert np.all(centers[0] >= 19.0) and np.all(centers[0] <= 21.0)


def test_infeasible_volume_raises():
    message = r"^volume \(30, 30, 30\) too small for exclusion radius 19\.0$"
    with pytest.raises(ValueError, match=message):
        poisson_disk_sample(PlacementConfig(volume_dims=(30, 30, 30)))


def test_pairwise_distances_and_boundary_margin():
    cfg = PlacementConfig(volume_dims=(100, 160, 160), target_count=40, seed=7)
    centers = poisson_disk_sample(cfg)
    assert len(centers) >= 2
    pts = np.stack(centers)
    # O(n^2) oracle for the exclusion sphere
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert np.linalg.norm(pts[i] - pts[j]) >= 19.0
    dims = np.array(cfg.volume_dims)
    assert np.all(pts >= 19.0) and np.all(pts <= dims - 19.0)


def test_sampling_deterministic():
    cfg = PlacementConfig(volume_dims=(80, 120, 120), target_count=10, seed=3)
    a = poisson_disk_sample(cfg)
    b = poisson_disk_sample(cfg)
    assert len(a) == len(b)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


def _hash_grid_sample(cfg):
    """Poisson-disk sampler with a spatial hash grid (cell = exclusion
    radius, 27-cell neighbour scan), the implementation the vectorised
    check replaced; test-only reference for the same candidate stream."""
    r_ex = cfg.exclusion_radius
    lo = np.full(3, r_ex)
    hi = np.asarray(cfg.volume_dims, dtype=float) - r_ex
    rng = np.random.default_rng(cfg.seed)
    accepted, grid = [], {}

    def cell_of(p):
        return tuple((p // r_ex).astype(int))

    def conflicts(p):
        cz, cy, cx = cell_of(p)
        for dz in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    for idx in grid.get((cz + dz, cy + dy, cx + dx), ()):
                        if np.linalg.norm(accepted[idx] - p) < r_ex:
                            return True
        return False

    rejections = 0
    while len(accepted) < cfg.target_count and rejections < cfg.max_attempts:
        candidate = lo + rng.random(3) * (hi - lo)
        if conflicts(candidate):
            rejections += 1
            continue
        rejections = 0
        grid.setdefault(cell_of(candidate), []).append(len(accepted))
        accepted.append(candidate)
    return accepted


def _assert_same_centers(cfg):
    got, want = poisson_disk_sample(cfg), _hash_grid_sample(cfg)
    assert len(got) == len(want)
    assert all(g.shape == (3,) and np.array_equal(g, w) for g, w in zip(got, want))


def test_sampler_matches_hash_grid_reference_on_criterion_9_configs():
    rng = np.random.default_rng(31)  # acceptance criterion 9's generator
    for _ in range(200):
        dims = tuple(int(d) for d in rng.integers(44, 90, size=3))
        _assert_same_centers(
            PlacementConfig(
                volume_dims=dims,
                target_count=int(rng.integers(1, 8)),
                max_attempts=200,
                seed=int(rng.integers(0, 2**31)),
            )
        )


@pytest.mark.parametrize("seed", [0, 1, 2, 11])
@pytest.mark.parametrize(
    "dims, count", [((46, 360, 46), 10), ((64, 192, 128), 16), ((96, 256, 256), 16)]
)
def test_sampler_matches_hash_grid_reference_on_workload_scenes(dims, count, seed):
    # the scenes of the benchmark's tomo_accept, slab_j2 and reprocess workloads
    _assert_same_centers(PlacementConfig(volume_dims=dims, target_count=count, seed=seed))


def test_sampler_matches_hash_grid_reference_in_a_crowded_volume():
    # more centers are asked for than fit, so sampling ends on max_attempts
    for seed in (0, 1):
        cfg = PlacementConfig(
            volume_dims=(100, 200, 200), target_count=200, max_attempts=300, seed=seed
        )
        _assert_same_centers(cfg)


def test_shoemake_zero_deviates():
    q = shoemake_quaternion(_ZeroRng())
    assert np.allclose(q, [0.0, 0.0, 1.0, 0.0])  # (w, x, y, z)


def test_shoemake_unit_norm(rng):
    norms = [np.linalg.norm(shoemake_quaternion(rng)) for _ in range(10_000)]
    assert np.abs(np.array(norms) - 1.0).max() < 1e-9


def test_place_particles_cycles_labels_and_is_deterministic():
    cfg = PlacementConfig(volume_dims=(90, 130, 130), target_count=6, seed=5)
    a = place_particles(["x", "y"], cfg)
    b = place_particles(["x", "y"], cfg)
    assert [i.class_label for i in a] == ["x", "y", "x", "y", "x", "y"]
    for ia, ib in zip(a, b):
        assert np.array_equal(ia.center, ib.center)
        assert np.array_equal(ia.orientation, ib.orientation)


def test_particle_instance_validates_quaternion():
    with pytest.raises(ValueError):
        ParticleInstance("a", (0, 0, 0), (1.0, 1.0, 0.0, 0.0))


def _blob_density(n=8, sigma=1.5):
    g = np.arange(n) - (n - 1) / 2.0
    r2 = g[:, None, None] ** 2 + g[None, :, None] ** 2 + g[None, None, :] ** 2
    return DensityVolume(np.exp(-r2 / (2 * sigma**2)).astype(np.float32))


def test_compose_identity_placement_is_exact():
    density = _blob_density(8)
    cfg = PlacementConfig(volume_dims=(24, 24, 24))
    inst = ParticleInstance("a", (12.0, 12.0, 12.0), (1.0, 0.0, 0.0, 0.0))
    out = compose_sample({"a": density}, [inst], cfg)
    assert np.allclose(out.data[8:16, 8:16, 8:16], density.data, atol=1e-6)


def test_compose_superposition():
    density = _blob_density(8)
    cfg = PlacementConfig(volume_dims=(24, 48, 24))
    q = (1.0, 0.0, 0.0, 0.0)
    one = compose_sample(
        {"a": density}, [ParticleInstance("a", (12, 12, 12), q)], cfg
    )
    two = compose_sample(
        {"a": density},
        [ParticleInstance("a", (12, 12, 12), q), ParticleInstance("a", (12, 36, 12), q)],
        cfg,
    )
    assert two.data.sum() == pytest.approx(2.0 * one.data.sum(), rel=1e-4)


def test_compose_right_angle_rotation_is_index_permutation(rng):
    # odd box so the geometric center is a grid point and the 90-degree
    # rotation about the w axis lands exactly on the index lattice
    src = rng.random((5, 5, 5)).astype(np.float32)
    density = DensityVolume(src)
    half = np.sqrt(0.5)
    inst = ParticleInstance("a", (10.0, 10.0, 10.0), (half, 0.0, 0.0, half))
    out = compose_sample({"a": density}, [inst], PlacementConfig(volume_dims=(21, 21, 21)))
    patch = out.data[8:13, 8:13, 8:13]
    assert np.allclose(patch, np.rot90(src, 1, axes=(0, 1)), atol=1e-6)


def _scipy_compose(density_by_class, instances, dims):
    """Test-only oracle: each particle through scipy's resampler, summed in
    float64 in instance order and cast once."""
    out = np.zeros(dims)
    for inst in instances:
        src = density_by_class[inst.class_label].data.astype(np.float64)
        box = np.array(src.shape)
        corner = np.round(inst.center).astype(int) - box // 2
        R_inv = quat_to_matrix(inst.orientation).T
        offset = R_inv @ (corner - inst.center) + (box // 2).astype(float)
        out[tuple(slice(c, c + n) for c, n in zip(corner, box))] += ndimage.affine_transform(
            src, R_inv, offset=offset, order=1, mode="grid-constant", cval=0.0, prefilter=False
        )
    return out.astype(np.float32)


def test_compose_bit_equal_to_scipy_oracle(rng):
    maps = {
        "a": DensityVolume(rng.random((16, 16, 16)).astype(np.float32), 5.0),
        "b": DensityVolume(rng.random((25, 25, 25)).astype(np.float32), 5.0),
    }
    eighth = (np.cos(np.pi / 8), 0.0, 0.0, np.sin(np.pi / 8))  # 45 degrees about w
    instances = [
        # two overlapping boxes, the second turned so its corners leave the box
        ParticleInstance("b", (20.3, 21.7, 22.1), shoemake_quaternion(rng)),
        ParticleInstance("a", (24.6, 23.2, 19.9), eighth),
    ] + [
        ParticleInstance(label, rng.uniform(13.0, 34.0, size=3), shoemake_quaternion(rng))
        for label in "abab"
    ]
    cfg = PlacementConfig(volume_dims=(48, 48, 48))
    out = compose_sample(maps, instances, cfg)
    assert out.voxel_size == 5.0
    assert out.data.tobytes() == _scipy_compose(maps, instances, cfg.volume_dims).tobytes()
    turned = compose_sample(maps, instances[1:2], cfg)
    assert turned.data.sum(dtype=np.float64) < 0.95 * maps["a"].data.sum(dtype=np.float64)


def test_compose_rejects_class_maps_of_different_voxel_sizes():
    blob = _blob_density().data
    maps = {"a": DensityVolume(blob, 5.0), "b": DensityVolume(blob, 10.0)}
    with pytest.raises(ValueError, match=r"'a' and 'b' .*: 5\.0 and 10\.0"):
        compose_sample(maps, [], PlacementConfig(volume_dims=(24, 24, 24)))


def test_compose_without_instances_takes_the_maps_voxel_size():
    blob = _blob_density().data
    maps = {"a": DensityVolume(blob, 7.5), "b": DensityVolume(blob, 7.5)}
    out = compose_sample(maps, [], PlacementConfig(volume_dims=(24, 24, 24)))
    assert out.voxel_size == 7.5 and not out.data.any()


def test_compose_missing_class_raises():
    inst = ParticleInstance("missing", (12, 12, 12), (1.0, 0, 0, 0))
    with pytest.raises(KeyError):
        compose_sample({"a": _blob_density()}, [inst], PlacementConfig(volume_dims=(24, 24, 24)))


def test_compose_footprint_outside_volume_raises():
    inst = ParticleInstance("a", (2.0, 12.0, 12.0), (1.0, 0, 0, 0))
    with pytest.raises(ValueError, match=r"^instance 0 \(a\) footprint exceeds the volume$"):
        compose_sample({"a": _blob_density()}, [inst], PlacementConfig(volume_dims=(24, 24, 24)))
