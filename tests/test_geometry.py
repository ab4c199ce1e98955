import re

import numpy as np
import pytest
from scipy import ndimage

from conftest import gaussian_blob, rot_z, translation_error
from cryoforge.geometry import (
    RigidTransform,
    apply_rigid,
    gso_to_matrix,
    quat_to_matrix,
    rigid_operator,
    rotation_error,
    svd_to_matrix,
)


ZERO = f"^{re.escape('first vector is (near-)zero')}$"
PARALLEL = f"^{re.escape('second vector is (near-)parallel to the first')}$"
RANK_DEFICIENT = f"^{re.escape('rank-deficient matrix: projection not unique')}$"


def _assert_rotation(R, tol=1e-9):
    assert np.abs(R.T @ R - np.eye(3)).max() < tol
    assert abs(np.linalg.det(R) - 1.0) < tol


def test_gso_identity_cases():
    assert np.allclose(gso_to_matrix([1, 0, 0], [0, 1, 0]), np.eye(3))
    # scale on v1 and shear of v2 along v1 are both removed
    assert np.allclose(gso_to_matrix([2, 0, 0], [1, 1, 0]), np.eye(3))


def test_gso_degenerate_inputs():
    with pytest.raises(ValueError, match=ZERO):
        gso_to_matrix([0, 0, 0], [1, 0, 0])
    with pytest.raises(ValueError, match=PARALLEL):
        gso_to_matrix([1, 0, 0], [2, 0, 0])


def test_gso_random_lands_in_rotation_group(rng):
    for _ in range(200):
        _assert_rotation(gso_to_matrix(rng.normal(size=3), rng.normal(size=3)))


def _gso_reference(v1, v2):
    """Per-row Gram-Schmidt decoder, the scalar implementation the batch
    decoder replaced; test-only reference."""
    v1 = np.asarray(v1, dtype=float)
    v2 = np.asarray(v2, dtype=float)
    n1 = np.linalg.norm(v1)
    if n1 <= 1e-9:
        raise ValueError("first vector is (near-)zero")
    e1 = v1 / n1
    u2 = v2 - (v2 @ e1) * e1
    n2 = np.linalg.norm(u2)
    if n2 <= 1e-9 * max(1.0, np.linalg.norm(v2)):
        raise ValueError("second vector is (near-)parallel to the first")
    e2 = u2 / n2
    return np.stack([e1, e2, np.cross(e1, e2)], axis=1)


def _svd_reference(M):
    """Per-matrix SO(3) projection, the scalar implementation the batch
    decoder replaced; test-only reference."""
    U, S, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    if S[-1] <= 1e-9:
        raise ValueError("rank-deficient matrix: projection not unique")
    d = np.sign(np.linalg.det(U @ Vt))
    return (U * np.array([1.0, 1.0, d])) @ Vt


def test_gso_batch_matches_scalar(rng):
    # a batch decodes row by row, over any leading axes; each row matches the reference
    v1 = rng.normal(size=(20, 25, 3))
    v2 = rng.normal(size=(20, 25, 3))
    batch = gso_to_matrix(v1, v2)
    assert batch.shape == (20, 25, 3, 3)
    for i in np.ndindex(v1.shape[:-1]):
        assert np.array_equal(gso_to_matrix(v1[i], v2[i]), batch[i])
        assert np.abs(batch[i] - _gso_reference(v1[i], v2[i])).max() <= 1e-14


def test_gso_parallel_rule_is_scale_aware():
    # |u2| = 5e-6 exceeds an absolute 1e-9 floor but not 1e-9 * |v2|
    v1, v2 = [1.0, 0.0, 0.0], [1e4, 5e-6, 0.0]
    for decode in (_gso_reference, gso_to_matrix):
        with pytest.raises(ValueError, match=PARALLEL):
            decode(v1, v2)
    with pytest.raises(ValueError, match=PARALLEL):
        gso_to_matrix([[0.0, 0.0, 1.0], v1], [[1.0, 0.0, 0.0], v2])


def test_svd_identity_and_scale_invariance(rng):
    assert np.allclose(svd_to_matrix(np.eye(3)), np.eye(3))
    R = gso_to_matrix(rng.normal(size=3), rng.normal(size=3))
    assert np.abs(svd_to_matrix(2.0 * R) - R).max() < 1e-12


def test_svd_idempotent(rng):
    for _ in range(100):
        R = svd_to_matrix(rng.normal(size=(3, 3)))
        assert np.abs(svd_to_matrix(R) - R).max() < 1e-9


def test_svd_frobenius_optimality(rng):
    M = rng.normal(size=(3, 3))
    best = np.linalg.norm(svd_to_matrix(M) - M)
    for _ in range(1000):
        Q = gso_to_matrix(rng.normal(size=3), rng.normal(size=3))
        assert best <= np.linalg.norm(Q - M) + 1e-12


def test_svd_rank_deficient_rejected():
    M = np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match=RANK_DEFICIENT):
        svd_to_matrix(M)


def test_svd_batch_matches_scalar(rng):
    # a batch projects matrix by matrix, over any leading axes; each matches the reference
    M = rng.normal(size=(20, 25, 3, 3))
    batch = svd_to_matrix(M)
    assert batch.shape == (20, 25, 3, 3)
    for i in np.ndindex(M.shape[:-2]):
        assert np.array_equal(svd_to_matrix(M[i]), batch[i])
        assert np.abs(batch[i] - _svd_reference(M[i])).max() <= 1e-14


def test_rotation_error_cases(rng):
    R = gso_to_matrix(rng.normal(size=3), rng.normal(size=3))
    # arccos is ill-conditioned at zero angle, so allow roundoff there
    assert rotation_error(R, R) < 1e-4
    assert rotation_error(rot_z(np.pi / 2), np.eye(3)) == pytest.approx(90.0)
    for _ in range(200):
        theta = rng.uniform(1e-3, np.pi - 1e-3)
        err = rotation_error(rot_z(theta) @ R, R)
        assert abs(err - np.degrees(theta)) < 1e-9


def test_rotation_error_rejects_non_rotations():
    with pytest.raises(ValueError):
        rotation_error(2.0 * np.eye(3), np.eye(3))


def test_translation_error():
    assert translation_error([1, 2, 3], [1, 2, 3]) == 0.0
    assert translation_error([3, 4, 0], [0, 0, 0]) == 5.0
    rng = np.random.default_rng(2)
    for _ in range(100):
        a, b = rng.normal(size=3), rng.normal(size=3)
        oracle = np.sqrt(np.sum((a - b) ** 2))
        assert abs(translation_error(a, b) - oracle) < 1e-12


def test_quaternion_double_cover_round_trip(rng):
    for _ in range(200):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        R = quat_to_matrix(q)
        _assert_rotation(R, tol=1e-12)
        assert np.array_equal(quat_to_matrix(-q), R)


def test_rigid_transform_validates_rotation():
    with pytest.raises(ValueError):
        RigidTransform(rotation=np.zeros((3, 3)))


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"rotation": np.full((3, 3), np.nan)}, "rotation"),
        ({"rotation": np.where(np.eye(3) > 0, np.nan, 0.0)}, "rotation"),
        ({"rotation": np.eye(2)}, "rotation"),
        ({"translation": [0.0, np.nan, 0.0]}, "translation"),
        ({"translation": [np.inf, 0.0, 0.0]}, "translation"),
        ({"translation": [1.0, 2.0]}, "translation"),
    ],
)
def test_rigid_transform_rejects_non_finite_or_misshapen_fields(kwargs, field):
    # NaN compares False, so a NaN rotation used to pass the orthogonality
    # check; a NaN translation made apply_rigid return an all-NaN volume
    with pytest.raises(ValueError, match=field):
        RigidTransform(**kwargs)


def test_rotation_error_rejects_nan_matrix():
    with pytest.raises(ValueError, match="R_est"):
        rotation_error(np.full((3, 3), np.nan), np.eye(3))


def test_apply_rigid_identity():
    data = gaussian_blob((12, 12, 12), (5.5, 5.5, 5.5), 2.0)
    out = apply_rigid(data, RigidTransform())
    assert np.abs(out - data).max() < 1e-6


def test_apply_rigid_integer_translation_is_exact(rng):
    data = rng.random((10, 10, 10))
    out = apply_rigid(data, RigidTransform(translation=np.array([2.0, 0.0, -3.0])))
    expected = np.zeros_like(data)
    expected[2:, :, :-3] = data[:-2, :, 3:]
    assert np.abs(out - expected).max() < 1e-12


def test_apply_rigid_composition(rng):
    data = gaussian_blob((16, 16, 16), (7.5, 7.5, 7.5), 3.0)
    T1 = RigidTransform(rot_z(0.3), np.array([0.5, -0.25, 0.75]))
    T2 = RigidTransform(rot_z(-0.2), np.array([-0.4, 0.6, 0.1]))
    twice = apply_rigid(apply_rigid(data, T1), T2)
    # T2 after T1 under apply_rigid's about-center map: R2 R1, t1 + R1^T t2
    T = RigidTransform(T2.rotation @ T1.rotation, T1.translation + T1.rotation.T @ T2.translation)
    once = apply_rigid(data, T)
    # trilinear error on a sigma-3 Gaussian is ~1.5% of peak per resampling;
    # chaining two roughly doubles it (measured ~2.9%)
    assert np.abs(twice - once).max() < 0.04 * data.max()


def _scipy_apply_rigid(volume, transform):
    """Test-only oracle: the map of apply_rigid through scipy's resampler."""
    R_inv = transform.rotation.T
    center = (np.array(volume.shape, dtype=float) - 1.0) / 2.0
    offset = center - R_inv @ center - transform.translation
    out = ndimage.affine_transform(
        volume.astype(np.float64), R_inv, offset=offset, order=1,
        mode="grid-constant", cval=0.0, prefilter=False,
    )
    return out.astype(volume.dtype, copy=False)


def _random_transform(rng, scale=3.0):
    rotation = gso_to_matrix(rng.normal(size=3), rng.normal(size=3))
    return RigidTransform(rotation, scale * rng.normal(size=3))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("shape", [(12, 12, 12), (7, 9, 11), (1, 5, 6)])
def test_apply_rigid_bit_equal_to_scipy_oracle(rng, dtype, shape):
    special = [
        RigidTransform(),
        RigidTransform(translation=[2.0, 0.0, -3.0]),
        RigidTransform(rot_z(np.pi / 2)),
        RigidTransform(rot_z(np.pi / 2), [0.5, -1.25, 2.0]),
        RigidTransform(translation=[100.0, 0.0, 0.0]),  # every sample outside
    ]
    for transform in special + [_random_transform(rng) for _ in range(12)]:
        stack = rng.normal(size=(3,) + shape).astype(dtype)
        expected = np.stack([_scipy_apply_rigid(v, transform) for v in stack])
        out = apply_rigid(stack, transform)
        assert out.dtype == dtype and out.shape == stack.shape
        assert out.tobytes() == expected.tobytes()
        assert apply_rigid(stack[1], transform).tobytes() == expected[1].tobytes()


def test_apply_rigid_interpolates_a_sample_a_hair_outside_against_zero(rng):
    # the first d plane samples d = -1e-12: its lower tap is outside the
    # grid and reads 0, its upper tap keeps weight 1 - 1e-12
    data = rng.random((6, 7, 8)) + 1.0
    transform = RigidTransform(translation=[1e-12, 0.0, 0.0])
    out = apply_rigid(data, transform)
    assert out.tobytes() == _scipy_apply_rigid(data, transform).tobytes()
    assert np.abs(out[0] - data[0]).max() < 1e-11


def test_rigid_operator_taps_stay_in_the_padded_grid(rng):
    shape = (5, 6, 7)
    padded = np.prod(np.array(shape) + 4)
    for transform in [RigidTransform(translation=[-1e9, 1e9, 3.5]), _random_transform(rng, 10.0)]:
        op = rigid_operator(shape, transform.rotation.T, -transform.translation)
        assert op.corner.shape == (np.prod(shape),) and len(op.steps) == 8
        assert op.corner.min() >= 0 and op.corner.max() + max(op.steps) < padded
        with pytest.raises(ValueError, match="shape"):
            op.apply(np.zeros((5, 6, 8)))


def test_apply_rigid_rejects_non_volume_data():
    with pytest.raises(ValueError, match="data"):
        apply_rigid(np.zeros((4, 4)), RigidTransform())
