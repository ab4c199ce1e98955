"""Noise-resilient contrastive losses and the evaluation step workflow.

A symmetric exponential (RINCE-family) instance loss, an entropic
Sinkhorn-Wasserstein alignment term (epsilon-scaling, with the scalings
absorbed into log-domain potentials), a noise-aware InfoNCE with one clean
positive and one noisy negative per anchor, and a pure evaluation step that
wires them together over any object with ``encode(views, originals)``. A
deterministic linear-projection encoder lets the workflow run without a
learned backbone. Every loss reads ``EmbeddingBatch``es, whose rows are
checked once, when built, to be finite and of unit norm within 1e-6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RigidTransform, apply_rigid

EPS_SCALING = 0.5  # ratio of consecutive epsilons in sinkhorn_wasserstein
STAGE_TOL = 1e-3  # marginal tolerance of its intermediate epsilon stages


class InsufficientNegativesError(ValueError):
    """Instance losses need at least two samples per batch."""


@dataclass
class EmbeddingBatch:
    vectors: np.ndarray  # (B, d), finite rows of unit norm

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError("embedding batch must be a B x d array")
        norms = np.linalg.norm(self.vectors, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-6):  # NaN and inf fail too
            raise ValueError("embedding rows must be finite and of unit norm within 1e-6")


@dataclass
class LossConfig:
    temperature: float = 0.1
    rince_c: float = 0.5
    lambda_w: float = 0.1
    sinkhorn_epsilon: float = 0.1
    sinkhorn_max_iter: int = 200
    sinkhorn_tol: float = 1e-6

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if not 0.0 < self.rince_c <= 1.0:
            raise ValueError("rince_c must lie in (0, 1]")
        if not 0 <= self.lambda_w < np.inf:  # NaN included
            raise ValueError(f"lambda_w must be finite and >= 0, got {self.lambda_w!r}")
        if not self.sinkhorn_epsilon > 0:
            raise ValueError("sinkhorn_epsilon must be positive")
        if not self.sinkhorn_max_iter >= 1:
            raise ValueError(f"sinkhorn_max_iter must be >= 1, got {self.sinkhorn_max_iter!r}")
        if not self.sinkhorn_tol > 0:  # else no plan ever converges
            raise ValueError(f"sinkhorn_tol must be positive, got {self.sinkhorn_tol!r}")


@dataclass
class TransportPlan:
    P: np.ndarray  # (B, B), nonnegative
    converged: bool
    iterations_used: int
    # The epsilon P and the cost were computed at: sinkhorn_epsilon once
    # converged, a larger stage's epsilon if the budget ran out before it.
    epsilon: float

    def marginal_violation(self) -> float:
        B = self.P.shape[0]
        return float(
            max(
                np.abs(self.P.sum(axis=1) - 1.0 / B).max(),
                np.abs(self.P.sum(axis=0) - 1.0 / B).max(),
            )
        )


def _check_pair(z: EmbeddingBatch, z_pos: EmbeddingBatch) -> None:
    if z.vectors.shape != z_pos.vectors.shape:
        raise ValueError("embedding batches must have matching shapes")


def sym_loss(z: EmbeddingBatch, z_pos: EmbeddingBatch, cfg: LossConfig) -> float:
    """Symmetric exponential instance loss over cross-view similarities.

    With temperature-scaled similarities s_ij = z_i . z+_j / tau, each
    anchor contributes -e^{c s_ii}/c + (sum_j e^{s_ij})^c / c, where the
    sum runs over the positive and all in-batch cross-view negatives.
    The power form recovers the plain InfoNCE objective as c -> 0 while
    down-weighting hard (likely false) negatives at larger c.
    """
    _check_pair(z, z_pos)
    B = len(z.vectors)
    if B < 2:
        raise InsufficientNegativesError("sym_loss needs B >= 2 for in-batch negatives")
    c = cfg.rince_c
    sims = z.vectors @ z_pos.vectors.T / cfg.temperature  # (B, B)
    s_pos = np.diag(sims)
    # log-domain evaluation of (sum_j e^{s_ij})^c / c
    m = sims.max(axis=1)
    log_mass = m + np.log(np.exp(sims - m[:, None]).sum(axis=1))
    loss = -np.exp(c * s_pos) / c + np.exp(c * log_mass) / c
    return float(loss.mean())


def sinkhorn_wasserstein(
    z: EmbeddingBatch, z_pos: EmbeddingBatch, cfg: LossConfig
) -> tuple[float, TransportPlan]:
    """Entropic optimal-transport cost between two embedding batches.

    Squared-Euclidean cost, uniform 1/B marginals, Sinkhorn iterations
    with epsilon-scaling and log-domain absorption (Schmitzer, SIAM J. Sci.
    Comput., 2019; Peyre & Cuturi, Computational Optimal Transport, 2019,
    section 4). The potentials (f, g) are warm-started along the epsilons
    sinkhorn_epsilon / EPS_SCALING**k, k = n, ..., 1, 0, the first of them
    the smallest at least max C. Each stage starts from the kernel
    exp((f + g - C) / eps), the previous stage's plan re-weighted to the
    new epsilon, so its scalings (u, v) stay near 1 and are absorbed into
    (f, g) when it ends. After each column update the columns match 1/B
    to round-off, so the rows decide convergence: within
    max(sinkhorn_tol, STAGE_TOL) of 1/B for an intermediate stage, within
    sinkhorn_tol for the last. sinkhorn_max_iter bounds the iterations of
    all stages together, and iterations_used is their total. If the
    budget runs out first, the best-effort plan of the last iterate is
    still returned with converged=False, at the epsilon of the stage the
    budget ran out in, which may be far larger than sinkhorn_epsilon (up
    to twice max C); TransportPlan.epsilon records it, and the cost
    belongs to that blurrier problem.
    """
    _check_pair(z, z_pos)
    a, b = z.vectors, z_pos.vectors
    B = a.shape[0]
    C = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)  # in [0, 4] for unit rows
    target = cfg.sinkhorn_epsilon
    schedule = [target]
    while schedule[0] < C.max():
        schedule.insert(0, schedule[0] / EPS_SCALING)
    mu = 1.0 / B
    f = np.zeros(B)
    g = np.zeros(B)
    iterations = 0
    for eps in schedule:
        tol = cfg.sinkhorn_tol if eps == target else max(cfg.sinkhorn_tol, STAGE_TOL)
        K = np.exp((f[:, None] + g[None, :] - C) / eps)
        u = v = np.ones(B)
        Kv = K.sum(axis=1)
        converged = False
        while iterations < cfg.sinkhorn_max_iter:
            iterations += 1
            u = mu / Kv
            v = mu / (u @ K)
            Kv = K @ v
            if np.abs(u * Kv - mu).max() < tol:
                converged = True
                break
        f += eps * np.log(u)
        g += eps * np.log(v)
        if not converged:
            break
    P = np.exp((f[:, None] + g[None, :] - C) / eps)
    cost = float(np.sum(C * P))
    return cost, TransportPlan(
        P=P, converged=converged, iterations_used=iterations, epsilon=eps
    )


def infonce_loss(
    z: EmbeddingBatch,
    z_clean: EmbeddingBatch,
    z_noisy: EmbeddingBatch,
    cfg: LossConfig,
) -> float:
    """Noise-aware contrast: clean embedding positive, noisy one negative.

    Per anchor: -log( e^{s+} / (e^{s+} + e^{s-}) ) with temperature-scaled
    similarities; batch mean. Equals log 2 when clean and noisy coincide.
    """
    _check_pair(z, z_clean)
    _check_pair(z, z_noisy)
    s_pos = np.sum(z.vectors * z_clean.vectors, axis=1) / cfg.temperature
    s_neg = np.sum(z.vectors * z_noisy.vectors, axis=1) / cfg.temperature
    # -log sigmoid(s_pos - s_neg), stably
    x = s_pos - s_neg
    loss = np.logaddexp(0.0, -x)
    return float(loss.mean())


class LinearProjectionEncoder:
    """Deterministic test encoder: project concatenated flattened pairs.

    The projection matrix is drawn once from a seeded generator, so two
    encoders built with the same seed and input shape agree exactly.
    Outputs are L2-normalized.
    """

    def __init__(self, input_voxels: int, dim: int = 16, seed: int = 0):
        rng = np.random.default_rng(seed)
        self.weight = rng.normal(0.0, 1.0, size=(dim, 2 * input_voxels)) / np.sqrt(
            2.0 * input_voxels
        )

    def encode(self, views: np.ndarray, originals: np.ndarray) -> EmbeddingBatch:
        B = views.shape[0]
        flat = np.concatenate(
            [views.reshape(B, -1), originals.reshape(B, -1)], axis=1, dtype=np.float64
        )
        out = flat @ self.weight.T
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return EmbeddingBatch(out / norms)


@dataclass
class PrecomputedEncoder:
    """Test fixture returning fixed embeddings regardless of input."""

    batch: EmbeddingBatch

    def encode(self, views: np.ndarray, originals: np.ndarray) -> EmbeddingBatch:
        return self.batch


def _transform_batch(volumes: np.ndarray, transforms: list[RigidTransform]) -> np.ndarray:
    """Entry b of ``volumes`` (one volume, or a stack of them) under ``transforms[b]``."""
    return np.stack([apply_rigid(v, t) for v, t in zip(volumes, transforms)])


def _check_batch(X, X_clean, X_noisy, T, T_prime) -> None:
    if X.ndim != 4:
        raise ValueError(f"X must be a (B, D, H, W) batch, got shape {X.shape}")
    for name, other in (("X_clean", X_clean), ("X_noisy", X_noisy)):
        if other.shape != X.shape:
            raise ValueError(f"{name} has shape {other.shape}, X has {X.shape}")
    for name, transforms in (("T", T), ("T_prime", T_prime)):
        if len(transforms) != len(X):
            raise ValueError(f"{name} has {len(transforms)} transforms for a batch of {len(X)}")


def nrcl_step(
    X: np.ndarray,
    X_clean: np.ndarray,
    X_noisy: np.ndarray,
    T: list[RigidTransform],
    T_prime: list[RigidTransform],
    encoder_q,
    encoder_k,
    cfg: LossConfig,
) -> tuple[float, dict]:
    """One pure evaluation of the full contrastive objective.

    Builds the two transformed views plus transformed clean/noisy
    variants, encodes queries with ``encoder_q`` and keys with
    ``encoder_k``, and returns
    total = sym(q1,k2) + lw*wass(q1,k2) + sym(q2,k1) + lw*wass(q2,k1)
          + infonce(q1, k_clean, k_noisy)
    together with the per-term breakdown; ``wass_converged`` is true only
    if both Sinkhorn plans converged. No parameters are updated.

    X, X_clean and X_noisy are (B, D, H, W) batches of one shape, and T
    and T_prime hold B transforms each. Under T the three share each
    transform's resampling taps: one ``apply_rigid`` call per entry
    resamples all three, each cast back to its own dtype.
    """
    X, X_clean, X_noisy = (np.asarray(a) for a in (X, X_clean, X_noisy))
    _check_batch(X, X_clean, X_noisy, T, T_prime)
    shared = _transform_batch(np.stack([X, X_clean, X_noisy], axis=1), T)
    X1, X1_clean, X1_noisy = (
        shared[:, i].astype(a.dtype, copy=False) for i, a in enumerate((X, X_clean, X_noisy))
    )
    X2 = _transform_batch(X, T_prime)

    q1 = encoder_q.encode(X1, X)
    q2 = encoder_q.encode(X2, X)
    k1 = encoder_k.encode(X1, X)
    k2 = encoder_k.encode(X2, X)
    k_clean = encoder_k.encode(X1_clean, X)
    k_noisy = encoder_k.encode(X1_noisy, X)

    sym12 = sym_loss(q1, k2, cfg)
    sym21 = sym_loss(q2, k1, cfg)
    wass12, plan12 = sinkhorn_wasserstein(q1, k2, cfg)
    wass21, plan21 = sinkhorn_wasserstein(q2, k1, cfg)
    noise = infonce_loss(q1, k_clean, k_noisy, cfg)

    breakdown = {
        "sym_q1_k2": sym12,
        "sym_q2_k1": sym21,
        "wass_q1_k2": cfg.lambda_w * wass12,
        "wass_q2_k1": cfg.lambda_w * wass21,
        "instance": sym12 + sym21 + cfg.lambda_w * (wass12 + wass21),
        "noise": noise,
        "wass_converged": plan12.converged and plan21.converged,
    }
    total = breakdown["instance"] + breakdown["noise"]
    breakdown["total"] = total
    return total, breakdown
