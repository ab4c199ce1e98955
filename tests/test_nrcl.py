import itertools

import numpy as np
import pytest
from scipy import ndimage
from scipy.special import logsumexp

from conftest import PrecomputedEncoder
from cryoforge import nrcl
from cryoforge.geometry import RigidTransform, gso_to_matrix
from cryoforge.nrcl import (
    EmbeddingBatch,
    LinearProjectionEncoder,
    LossConfig,
    infonce_loss,
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
    # a NaN row used to pass (NaN > 1e-6 is False) and turn every loss NaN
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite and of unit norm"):
            EmbeddingBatch(np.array([[bad, 0.0], [0.0, 1.0]]))


def test_loss_config_validation():
    with pytest.raises(ValueError):
        LossConfig(temperature=0.0)
    with pytest.raises(ValueError):
        LossConfig(rince_c=0.0)
    with pytest.raises(ValueError):
        LossConfig(rince_c=1.5)
    # a NaN lambda_w made the total NaN, max_iter 0 returned an unconverged
    # plan, and a tol no residual can beat ran every Sinkhorn to its budget
    for name, value in [
        ("lambda_w", np.nan), ("lambda_w", np.inf), ("lambda_w", -0.1),
        ("sinkhorn_max_iter", 0), ("sinkhorn_max_iter", -5),
        ("sinkhorn_tol", 0.0), ("sinkhorn_tol", -1e-6), ("sinkhorn_tol", np.nan),
    ]:
        with pytest.raises(ValueError, match=f"^{name} must be"):
            LossConfig(**{name: value})
    LossConfig(lambda_w=0.0, sinkhorn_max_iter=1)


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
    with pytest.raises(ValueError, match="^sym_loss needs B >= 2 for in-batch negatives$"):
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
    # a cold start at small eps needs far more than the default 200 iterations
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
    # neither plan reaches the marginal tolerance: both stop at the
    # 20,000-iteration budget, with violations of 3.3e-6 and 3.5e-6, and
    # the residual asymmetry scales with them
    cfg = LossConfig(sinkhorn_max_iter=20_000)
    assert sinkhorn_wasserstein(z, z_pos, cfg)[0] == pytest.approx(
        sinkhorn_wasserstein(z_pos, z, cfg)[0], abs=1e-5
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the shipped 200-iteration budget is too small: these pairs need 269 and 2298 "
    "iterations (ROADMAP, NRCL Sinkhorn under the shipped budget)",
)
def test_sinkhorn_converges_within_the_shipped_budget():
    # B = 8 in 8-D at the default epsilon: both plans stop unconverged at 200
    # iterations, with marginal violations of 8.3e-6 and 1.4e-4
    for seed in (0, 1):
        rng = np.random.default_rng(seed)
        z, z_pos = _random_batch(rng, 8, d=8), _random_batch(rng, 8, d=8)
        cfg = LossConfig()
        plan = sinkhorn_wasserstein(z, z_pos, cfg)[1]
        assert plan.converged, f"seed {seed}: {plan.iterations_used} iterations"
        assert plan.marginal_violation() < cfg.sinkhorn_tol


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


def _reference_sinkhorn(z, z_pos, cfg):
    """The cold-started log-domain loop that epsilon-scaling replaced: every
    iteration at the target epsilon, both marginals checked on the full plan."""
    C = np.sum((z.vectors[:, None, :] - z_pos.vectors[None, :, :]) ** 2, axis=2)
    B, eps = C.shape[0], cfg.sinkhorn_epsilon
    log_mu = np.full(B, -np.log(B))
    f, g = np.zeros(B), np.zeros(B)
    for _ in range(cfg.sinkhorn_max_iter):
        f = eps * (log_mu - logsumexp((g[None, :] - C) / eps, axis=1))
        g = eps * (log_mu - logsumexp((f[:, None] - C) / eps, axis=0))
        P = np.exp((f[:, None] + g[None, :] - C) / eps)
        if max(np.abs(P.sum(axis=1) - 1 / B).max(), np.abs(P.sum(axis=0) - 1 / B).max()) < cfg.sinkhorn_tol:
            return float(np.sum(C * P)), P
    raise AssertionError("reference Sinkhorn did not converge")


@pytest.mark.parametrize("B", [4, 16])
def test_sinkhorn_scaling_matches_cold_start_reference(rng, B):
    # both stop within sinkhorn_tol of the marginals, so plans and costs
    # agree to that order; the last stage must not stop at STAGE_TOL
    cfg = LossConfig(sinkhorn_max_iter=2_000)
    for _ in range(3):
        z, z_pos = _random_batch(rng, B, d=16), _random_batch(rng, B, d=16)
        cost, plan = sinkhorn_wasserstein(z, z_pos, cfg)
        ref_cost, ref_P = _reference_sinkhorn(z, z_pos, cfg)
        assert plan.converged and plan.marginal_violation() < cfg.sinkhorn_tol
        assert np.abs(plan.P - ref_P).max() < 1e-5
        assert cost == pytest.approx(ref_cost, abs=1e-5)


def test_sinkhorn_rejects_non_finite_embeddings():
    # no epsilon schedule reaches an infinite cost, so the row is refused
    # when the batch is built, before Sinkhorn can see it
    with pytest.raises(ValueError, match="finite"):
        z = EmbeddingBatch(np.array([[0.0, 1.0], [np.inf, 0.0]]))
        sinkhorn_wasserstein(z, EmbeddingBatch(np.eye(2)), LossConfig())


def test_sinkhorn_reports_non_convergence(rng):
    z = _random_batch(rng, 4)
    z_pos = _random_batch(rng, 4)
    cfg = LossConfig(sinkhorn_epsilon=0.001, sinkhorn_max_iter=1)
    cost, plan = sinkhorn_wasserstein(z, z_pos, cfg)
    assert not plan.converged
    assert plan.iterations_used == 1
    assert plan.P.shape == (4, 4)
    # the budget ran out in the first stage: plan and cost are at its epsilon,
    # the first of sinkhorn_epsilon * 2**k that is at least max C
    C = np.sum((z.vectors[:, None, :] - z_pos.vectors[None, :, :]) ** 2, axis=2)
    k = np.log2(plan.epsilon / cfg.sinkhorn_epsilon)
    assert k == round(k) and C.max() <= plan.epsilon < 2 * C.max()
    assert cost == pytest.approx(float(np.sum(C * plan.P)), rel=1e-12)
    full = LossConfig(sinkhorn_epsilon=0.001, sinkhorn_max_iter=400_000)
    assert sinkhorn_wasserstein(z, z_pos, full)[1].epsilon == full.sinkhorn_epsilon


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


def _per_volume_apply_rigid(data, transform):
    """The resampling nrcl_step did before it shared taps: scipy's
    resampler, one volume at a time, each cast back to the input dtype."""
    R_inv = transform.rotation.T
    center = (np.array(data.shape[-3:], dtype=float) - 1.0) / 2.0
    offset = center - R_inv @ center - transform.translation
    volumes = [
        ndimage.affine_transform(
            v.astype(np.float64), R_inv, offset=offset, order=1,
            mode="grid-constant", cval=0.0, prefilter=False,
        ).astype(data.dtype, copy=False)
        for v in data.reshape((-1,) + data.shape[-3:])
    ]
    return np.stack(volumes).reshape(data.shape)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_nrcl_step_loss_bit_equal_to_per_volume_path(rng, dtype, monkeypatch):
    B, n = 4, 6
    X, X_clean, X_noisy = (rng.normal(size=(B, n, n, n)).astype(dtype) for _ in range(3))

    def transforms():
        rotations = [gso_to_matrix(rng.normal(size=3), rng.normal(size=3)) for _ in range(B)]
        return [RigidTransform(R, rng.normal(size=3)) for R in rotations]

    T, T_prime = transforms(), transforms()
    encoders = [LinearProjectionEncoder(input_voxels=n**3, dim=8, seed=k) for k in (1, 2)]
    shared = nrcl_step(X, X_clean, X_noisy, T, T_prime, *encoders, LossConfig())
    calls = []

    def per_volume(data, transform):
        calls.append(data.shape)
        return _per_volume_apply_rigid(data, transform)

    monkeypatch.setattr(nrcl, "apply_rigid", per_volume)
    reference = nrcl_step(X, X_clean, X_noisy, T, T_prime, *encoders, LossConfig())
    assert shared[0] == reference[0]
    assert shared[1] == reference[1]
    # one call per transform: B under T for the three stacked batches, B under T'
    assert calls == [(3, n, n, n)] * B + [(n, n, n)] * B


@pytest.mark.parametrize(
    "change, name",
    [
        (lambda a: a.update(X_clean=a["X_clean"][:, :3]), "X_clean"),
        (lambda a: a.update(X_noisy=a["X_noisy"][:2]), "X_noisy"),
        (lambda a: a.update(X=a["X"][0]), "X"),
        (lambda a: a.update(T=a["T"][:1]), "T"),
        (lambda a: a.update(T_prime=a["T_prime"] + [RigidTransform()]), "T_prime"),
    ],
)
def test_nrcl_step_rejects_mismatched_inputs(rng, change, name):
    X, identity = _step_inputs(rng, B=3)
    args = {
        "X": X, "X_clean": X.copy(), "X_noisy": X.copy(), "T": identity, "T_prime": list(identity)
    }
    change(args)
    encoder = LinearProjectionEncoder(input_voxels=64, dim=8, seed=1)
    with pytest.raises(ValueError, match=f"^{name} "):
        nrcl_step(**args, encoder_q=encoder, encoder_k=encoder, cfg=LossConfig())
