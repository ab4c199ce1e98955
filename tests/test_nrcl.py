import itertools

import numpy as np
import pytest

from cryoforge.geometry import RigidTransform
from cryoforge.nrcl import (
    EmbeddingBatch,
    EncoderContractError,
    InsufficientNegativesError,
    LinearProjectionEncoder,
    LossConfig,
    PairEncoder,
    PrecomputedEncoder,
    infonce_loss,
    momentum_update,
    nrcl_step,
    sinkhorn_wasserstein,
    sym_loss,
)


def _unit_batch(vectors):
    v = np.asarray(vectors, dtype=float)
    return EmbeddingBatch(v / np.linalg.norm(v, axis=1, keepdims=True))


def _random_batch(rng, B, d=6):
    return _unit_batch(rng.normal(size=(B, d)))


def test_embedding_batch_validation():
    with pytest.raises(ValueError):
        EmbeddingBatch(np.array([1.0, 0.0]))  # not 2D
    with pytest.raises(ValueError):
        EmbeddingBatch(np.array([[2.0, 0.0]]))  # off unit norm
    EmbeddingBatch(np.array([[2.0, 0.0]]), normalized=False)  # explicit opt-out


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(temperature=0.0)
    with pytest.raises(ValueError):
        LossConfig(rince_c=0.0)
    with pytest.raises(ValueError):
        LossConfig(rince_c=1.5)
    with pytest.raises(ValueError):
        LossConfig(cost_exponent=1)


def test_sym_loss_hand_case_orthogonal():
    # all cross-view similarities are 0, so positive and negative tie: per
    # anchor, loss = -e^0/c + (e^0 + e^0)^c / c
    cfg = LossConfig(temperature=1.0, rince_c=0.5)
    z = EmbeddingBatch(np.eye(4)[:2])
    z_pos = EmbeddingBatch(np.eye(4)[2:])
    expected = -1.0 / 0.5 + 2.0**0.5 / 0.5
    assert sym_loss(z, z_pos, cfg) == pytest.approx(expected, abs=1e-12)


def test_sym_loss_hand_case_shared_similarity():
    # both anchors see s+ = s- = s, so loss = -e^{cs}/c + (2 e^s)^c / c
    tau, c = 0.5, 0.3
    cfg = LossConfig(temperature=tau, rince_c=c)
    z = EmbeddingBatch(np.eye(4)[:2])
    mid = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2.0)
    z_pos = EmbeddingBatch(np.stack([mid, mid]))
    s = (1.0 / np.sqrt(2.0)) / tau
    expected = -np.exp(c * s) / c + (2.0 * np.exp(s)) ** c / c
    assert sym_loss(z, z_pos, cfg) == pytest.approx(expected, rel=1e-12)


def test_sym_loss_monotone_in_positive_similarity():
    cfg = LossConfig(temperature=1.0)
    e = np.eye(4)
    losses = []
    for alpha in (0.2, 0.5, 0.8):
        z = EmbeddingBatch(e[:2])
        pos0 = alpha * e[0] + np.sqrt(1 - alpha**2) * e[2]  # s+ for anchor 0 = alpha
        z_pos = EmbeddingBatch(np.stack([pos0, e[3]]))
        losses.append(sym_loss(z, z_pos, cfg))
    assert losses[0] > losses[1] > losses[2]


def test_sym_loss_c_to_zero_matches_infonce(rng):
    z = _random_batch(rng, 5)
    z_pos = _random_batch(rng, 5)
    cfg = LossConfig(temperature=0.1, rince_c=1e-6)
    sims = z.vectors @ z_pos.vectors.T / cfg.temperature
    m = sims.max(axis=1, keepdims=True)
    log_mass = (m + np.log(np.exp(sims - m).sum(axis=1, keepdims=True))).squeeze(1)
    infonce_reference = float(np.mean(-np.diag(sims) + log_mass))
    assert abs(sym_loss(z, z_pos, cfg) - infonce_reference) < 1e-3


def test_sym_loss_requires_two_samples():
    z = EmbeddingBatch(np.eye(3)[:1])
    with pytest.raises(InsufficientNegativesError):
        sym_loss(z, z, LossConfig())


def test_sym_loss_orthogonal_transform_invariance(rng):
    from cryoforge.geometry import svd_to_matrix

    z = _random_batch(rng, 4, d=3)
    z_pos = _random_batch(rng, 4, d=3)
    Q = svd_to_matrix(rng.normal(size=(3, 3)))
    cfg = LossConfig()
    rotated = sym_loss(
        EmbeddingBatch(z.vectors @ Q.T), EmbeddingBatch(z_pos.vectors @ Q.T), cfg
    )
    assert rotated == pytest.approx(sym_loss(z, z_pos, cfg), rel=1e-12)


def test_sinkhorn_identity_coupling(rng):
    z = _random_batch(rng, 4)
    cfg = LossConfig(sinkhorn_epsilon=0.001)
    cost, plan = sinkhorn_wasserstein(z, z, cfg)
    assert cost < 1e-3
    assert np.abs(plan.P - np.eye(4) / 4.0).max() < 1e-3
    assert plan.marginal_violation() < cfg.sinkhorn_tol


def test_sinkhorn_matches_lp_oracle(rng):
    B = 4
    z = _random_batch(rng, B)
    z_pos = _random_batch(rng, B)
    # small eps needs far more than the default 200 iterations to converge
    cfg = LossConfig(sinkhorn_epsilon=0.001, sinkhorn_max_iter=400_000)
    cost, plan = sinkhorn_wasserstein(z, z_pos, cfg)
    C = np.sum((z.vectors[:, None] - z_pos.vectors[None]) ** 2, axis=2)
    # uniform-marginal OT is minimized at a permutation coupling: enumerate
    lp = min(
        sum(C[i, perm[i]] for i in range(B)) / B
        for perm in itertools.permutations(range(B))
    )
    assert abs(cost - lp) < 1e-3
    assert plan.converged


def test_sinkhorn_cost_symmetry(rng):
    z = _random_batch(rng, 3)
    z_pos = _random_batch(rng, 3)
    # run to the marginal tolerance; residual asymmetry scales with it
    cfg = LossConfig(sinkhorn_max_iter=20_000)
    assert sinkhorn_wasserstein(z, z_pos, cfg)[0] == pytest.approx(
        sinkhorn_wasserstein(z_pos, z, cfg)[0], abs=1e-5
    )


def test_sinkhorn_permutation_invariance(rng):
    z = _random_batch(rng, 4)
    z_pos = _random_batch(rng, 4)
    perm = np.array([2, 0, 3, 1])
    cfg = LossConfig()
    a = sinkhorn_wasserstein(z, z_pos, cfg)[0]
    b = sinkhorn_wasserstein(
        EmbeddingBatch(z.vectors[perm]), EmbeddingBatch(z_pos.vectors[perm]), cfg
    )[0]
    assert a == pytest.approx(b, abs=1e-9)


def test_sinkhorn_reports_non_convergence(rng):
    z = _random_batch(rng, 4)
    z_pos = _random_batch(rng, 4)
    cfg = LossConfig(sinkhorn_epsilon=0.001, sinkhorn_max_iter=1)
    _, plan = sinkhorn_wasserstein(z, z_pos, cfg)
    assert not plan.converged
    assert plan.iterations_used == 1
    assert plan.P.shape == (4, 4)


def test_infonce_hand_case():
    e = np.eye(3)
    cfg = LossConfig(temperature=1.0)
    z = EmbeddingBatch(e[:1])
    loss = infonce_loss(z, EmbeddingBatch(e[:1]), EmbeddingBatch(e[1:2]), cfg)
    assert loss == pytest.approx(np.log(1.0 + np.exp(-1.0)), abs=1e-12)


def test_infonce_clean_equals_noisy_gives_log2(rng):
    z = _random_batch(rng, 3)
    other = _random_batch(rng, 3)
    assert infonce_loss(z, other, other, LossConfig()) == pytest.approx(np.log(2.0), abs=1e-15)


def test_infonce_monotonicity():
    cfg = LossConfig(temperature=1.0)
    e = np.eye(3)
    z = EmbeddingBatch(e[:1])

    def loss(a_clean, a_noisy):
        clean = EmbeddingBatch((a_clean * e[0] + np.sqrt(1 - a_clean**2) * e[1])[None])
        noisy = EmbeddingBatch((a_noisy * e[0] + np.sqrt(1 - a_noisy**2) * e[2])[None])
        return infonce_loss(z, clean, noisy, cfg)

    assert loss(0.9, 0.1) < loss(0.5, 0.1)  # better positive: lower loss
    assert loss(0.5, 0.8) > loss(0.5, 0.1)  # better negative: higher loss
    assert loss(0.5, 0.1) >= 0.0


def _step_inputs(rng, B=2, n=4):
    X = rng.normal(size=(B, n, n, n))
    identity = [RigidTransform() for _ in range(B)]
    return X, identity


def test_nrcl_step_breakdown_matches_standalone_ops(rng):
    X, identity = _step_inputs(rng)
    q_batch = _random_batch(rng, 2, d=4)
    k_batch = _random_batch(rng, 2, d=4)
    cfg = LossConfig()
    total, breakdown = nrcl_step(
        X, X, X, identity, identity,
        PrecomputedEncoder(q_batch), PrecomputedEncoder(k_batch), cfg,
    )
    # with fixed encoders every encode returns the same batch, so each term
    # must equal the standalone op on those embeddings
    sym = sym_loss(q_batch, k_batch, cfg)
    cost, plan = sinkhorn_wasserstein(q_batch, k_batch, cfg)
    wass = cfg.lambda_w * cost
    assert breakdown["sym_q1_k2"] == pytest.approx(sym, rel=1e-12)
    assert breakdown["sym_q2_k1"] == pytest.approx(sym, rel=1e-12)
    assert breakdown["wass_q1_k2"] == pytest.approx(wass, rel=1e-9)
    assert breakdown["noise"] == pytest.approx(np.log(2.0), abs=1e-12)
    assert breakdown["wass_converged"] is plan.converged
    components = (
        breakdown["sym_q1_k2"] + breakdown["sym_q2_k1"]
        + breakdown["wass_q1_k2"] + breakdown["wass_q2_k1"]
        + breakdown["noise"]
    )
    assert abs(total - components) < 1e-12
    assert breakdown["total"] == total


def test_nrcl_step_with_linear_encoder_is_deterministic(rng):
    X, identity = _step_inputs(rng, B=3)
    enc_q = LinearProjectionEncoder(input_voxels=64, dim=8, seed=1)
    enc_k = LinearProjectionEncoder(input_voxels=64, dim=8, seed=2)
    cfg = LossConfig()
    t1 = nrcl_step(X, X, X, identity, identity, enc_q, enc_k, cfg)
    t2 = nrcl_step(X, X, X, identity, identity, enc_q, enc_k, cfg)
    assert t1[0] == t2[0]
    assert np.isfinite(t1[0])


def test_nrcl_step_rejects_unnormalized_encoder(rng):
    class BadEncoder(PairEncoder):
        def encode(self, views, originals):
            return EmbeddingBatch(np.full((2, 4), 0.3), normalized=False)

    X, identity = _step_inputs(rng)
    with pytest.raises(EncoderContractError):
        nrcl_step(X, X, X, identity, identity, BadEncoder(), BadEncoder(), LossConfig())


def test_momentum_update():
    q = np.ones(5)
    k = np.zeros(5)
    assert np.array_equal(momentum_update(q, k, 1.0), k)
    assert np.array_equal(momentum_update(q, k, 0.0), q)
    assert np.allclose(momentum_update(q, k, 0.99), np.full(5, 0.01))
    with pytest.raises(ValueError):
        momentum_update(np.ones(3), np.ones(4), 0.5)
    with pytest.raises(ValueError):
        momentum_update(q, k, 1.5)
