import numpy as np
import pytest

from conftest import gaussian_blob
from cryoforge.geometry import (
    DegenerateRepresentationError,
    RigidTransform,
    apply_rigid,
    euler_to_matrix,
    gso_to_matrix,
    gso_to_matrix_batch,
    matrix_to_euler,
    matrix_to_quat,
    quat_to_matrix,
    rot_z,
    rotation_error,
    svd_to_matrix,
    svd_to_matrix_batch,
    translation_error,
)


def _assert_rotation(R, tol=1e-9):
    assert np.abs(R.T @ R - np.eye(3)).max() < tol
    assert abs(np.linalg.det(R) - 1.0) < tol


def test_euler_identity():
    assert np.allclose(euler_to_matrix(0.0, 0.0, 0.0), np.eye(3))


def test_euler_y_quarter_turn_maps_x_to_minus_z():
    R = euler_to_matrix(0.0, np.pi / 2, 0.0)
    assert np.allclose(R @ [1.0, 0.0, 0.0], [0.0, 0.0, -1.0], atol=1e-15)


def test_euler_round_trip_matrix_level(rng):
    for _ in range(200):
        angles = rng.uniform(-np.pi, np.pi, 3)
        R = euler_to_matrix(*angles)
        R2 = euler_to_matrix(*matrix_to_euler(R))
        assert np.abs(R - R2).max() < 1e-9


def test_euler_gimbal_lock_round_trip():
    for beta in (np.pi / 2, -np.pi / 2):
        R = euler_to_matrix(0.3, beta, -0.8)
        alpha, b, gamma = matrix_to_euler(R)
        assert gamma == 0.0
        assert np.abs(euler_to_matrix(alpha, b, gamma) - R).max() < 1e-9


def test_gso_identity_cases():
    assert np.allclose(gso_to_matrix([1, 0, 0], [0, 1, 0]), np.eye(3))
    # scale on v1 and shear of v2 along v1 are both removed
    assert np.allclose(gso_to_matrix([2, 0, 0], [1, 1, 0]), np.eye(3))


def test_gso_degenerate_inputs():
    with pytest.raises(DegenerateRepresentationError):
        gso_to_matrix([0, 0, 0], [1, 0, 0])
    with pytest.raises(DegenerateRepresentationError):
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
        raise DegenerateRepresentationError("first vector is (near-)zero")
    e1 = v1 / n1
    u2 = v2 - (v2 @ e1) * e1
    n2 = np.linalg.norm(u2)
    if n2 <= 1e-9 * max(1.0, np.linalg.norm(v2)):
        raise DegenerateRepresentationError("second vector is (near-)parallel to the first")
    e2 = u2 / n2
    return np.stack([e1, e2, np.cross(e1, e2)], axis=1)


def _svd_reference(M):
    """Per-matrix SO(3) projection, the scalar implementation the batch
    decoder replaced; test-only reference."""
    U, S, Vt = np.linalg.svd(np.asarray(M, dtype=float))
    if S[-1] <= 1e-9:
        raise DegenerateRepresentationError("rank-deficient matrix: projection not unique")
    d = np.sign(np.linalg.det(U @ Vt))
    return (U * np.array([1.0, 1.0, d])) @ Vt


def test_gso_batch_matches_scalar(rng):
    # the scalar decoder is one batch row; both match the per-row reference
    v1 = rng.normal(size=(500, 3))
    v2 = rng.normal(size=(500, 3))
    batch = gso_to_matrix_batch(v1, v2)
    for i in range(len(v1)):
        assert np.array_equal(gso_to_matrix(v1[i], v2[i]), batch[i])
        assert np.abs(batch[i] - _gso_reference(v1[i], v2[i])).max() <= 1e-14


def test_gso_parallel_rule_is_scale_aware():
    # |u2| = 5e-6 exceeds an absolute 1e-9 floor but not 1e-9 * |v2|
    v1, v2 = [1.0, 0.0, 0.0], [1e4, 5e-6, 0.0]
    for decode in (_gso_reference, gso_to_matrix):
        with pytest.raises(DegenerateRepresentationError):
            decode(v1, v2)
    with pytest.raises(DegenerateRepresentationError):
        gso_to_matrix_batch([[0.0, 0.0, 1.0], v1], [[1.0, 0.0, 0.0], v2])


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
    with pytest.raises(DegenerateRepresentationError):
        svd_to_matrix(M)


def test_svd_batch_matches_scalar(rng):
    # the scalar decoder is one batch matrix; both match the per-matrix reference
    M = rng.normal(size=(500, 3, 3))
    batch = svd_to_matrix_batch(M)
    for i in range(len(M)):
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
        q2 = matrix_to_quat(R)
        assert min(np.linalg.norm(q - q2), np.linalg.norm(q + q2)) < 1e-9


def test_rigid_transform_validates_rotation():
    with pytest.raises(ValueError):
        RigidTransform(rotation=np.zeros((3, 3)))


def test_rigid_compose_matches_chained_sampling_map(rng):
    # apply_rigid realizes the forward map x -> R(x - c + t) + c about the
    # volume center c; composing transforms must chain that exact map
    R1 = gso_to_matrix(rng.normal(size=3), rng.normal(size=3))
    R2 = gso_to_matrix(rng.normal(size=3), rng.normal(size=3))
    T1 = RigidTransform(R1, rng.normal(size=3))
    T2 = RigidTransform(R2, rng.normal(size=3))
    c = rng.normal(size=3)

    def forward(T, x):
        return T.rotation @ (x - c + T.translation) + c

    T = T2.compose(T1)
    x = rng.normal(size=3)
    assert np.allclose(forward(T2, forward(T1, x)), forward(T, x), atol=1e-12)


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
    once = apply_rigid(data, T2.compose(T1))
    # trilinear error on a sigma-3 Gaussian is ~1.5% of peak per resampling;
    # chaining two roughly doubles it (measured ~2.9%)
    assert np.abs(twice - once).max() < 0.04 * data.max()
