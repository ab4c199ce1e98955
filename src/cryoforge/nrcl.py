"""Noise-resilient contrastive losses and the evaluation step workflow.

A symmetric exponential (RINCE-family) instance loss, an entropic
Sinkhorn-Wasserstein alignment term computed in the log domain, a
noise-aware InfoNCE with one clean positive and one noisy negative per
anchor, and a pure evaluation step that wires them together over a
pluggable pair encoder. A deterministic linear-projection encoder is
provided so the workflow can be exercised without a learned backbone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import RigidTransform, apply_rigid


class EncoderContractError(ValueError):
    """Encoder returned embeddings that are not unit-normalized."""


class InsufficientNegativesError(ValueError):
    """Instance losses need at least two samples per batch."""


@dataclass
class EmbeddingBatch:
    vectors: np.ndarray  # (B, d)
    normalized: bool = True

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise ValueError("embedding batch must be a B x d array")
        if self.normalized:
            norms = np.linalg.norm(self.vectors, axis=1)
            if np.any(np.abs(norms - 1.0) > 1e-6):
                raise ValueError("normalized batch has rows off unit norm by > 1e-6")

    @property
    def batch_size(self) -> int:
        return self.vectors.shape[0]


@dataclass
class LossConfig:
    temperature: float = 0.1
    rince_c: float = 0.5
    lambda_w: float = 0.1
    sinkhorn_epsilon: float = 0.1
    sinkhorn_max_iter: int = 200
    sinkhorn_tol: float = 1e-6
    cost_exponent: int = 2  # squared Euclidean; fixed

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError("temperature must be positive")
        if not 0.0 < self.rince_c <= 1.0:
            raise ValueError("rince_c must lie in (0, 1]")
        if self.lambda_w < 0:
            raise ValueError("lambda_w must be >= 0")
        if not self.sinkhorn_epsilon > 0:
            raise ValueError("sinkhorn_epsilon must be positive")
        if self.cost_exponent != 2:
            raise ValueError("cost_exponent is fixed at 2")


@dataclass
class TransportPlan:
    P: np.ndarray  # (B, B), nonnegative
    converged: bool
    iterations_used: int

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
    B = z.batch_size
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

    Squared-Euclidean cost, uniform 1/B marginals, log-domain Sinkhorn
    updates; stops when both marginals are within sinkhorn_tol of 1/B or
    the iteration budget runs out (the best-effort plan is still returned
    with converged=False).
    """
    _check_pair(z, z_pos)
    a, b = z.vectors, z_pos.vectors
    B = a.shape[0]
    C = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    eps = cfg.sinkhorn_epsilon
    log_mu = np.full(B, -np.log(B))
    f = np.zeros(B)
    g = np.zeros(B)
    K = -C / eps  # log kernel
    iterations = 0
    converged = False
    for iterations in range(1, cfg.sinkhorn_max_iter + 1):
        f = eps * (log_mu - _logsumexp(K + g[None, :] / eps, axis=1))
        g = eps * (log_mu - _logsumexp(K + f[:, None] / eps, axis=0))
        P = np.exp(K + f[:, None] / eps + g[None, :] / eps)
        violation = max(
            np.abs(P.sum(axis=1) - 1.0 / B).max(),
            np.abs(P.sum(axis=0) - 1.0 / B).max(),
        )
        if violation < cfg.sinkhorn_tol:
            converged = True
            break
    P = np.exp(K + f[:, None] / eps + g[None, :] / eps)
    cost = float(np.sum(C * P))
    return cost, TransportPlan(P=P, converged=converged, iterations_used=iterations)


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    m = x.max(axis=axis, keepdims=True)
    return (m + np.log(np.exp(x - m).sum(axis=axis, keepdims=True))).squeeze(axis)


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


class PairEncoder:
    """Interface: (transformed batch, original batch) -> EmbeddingBatch."""

    def encode(self, views: np.ndarray, originals: np.ndarray) -> EmbeddingBatch:
        raise NotImplementedError


class LinearProjectionEncoder(PairEncoder):
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
            [views.reshape(B, -1), originals.reshape(B, -1)], axis=1
        ).astype(np.float64)
        out = flat @ self.weight.T
        norms = np.linalg.norm(out, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return EmbeddingBatch(out / norms)


@dataclass
class PrecomputedEncoder(PairEncoder):
    """Test fixture returning fixed embeddings regardless of input."""

    batch: EmbeddingBatch

    def encode(self, views: np.ndarray, originals: np.ndarray) -> EmbeddingBatch:
        return self.batch


def _transform_batch(volumes: np.ndarray, transforms: list[RigidTransform]) -> np.ndarray:
    if len(transforms) != volumes.shape[0]:
        raise ValueError("transform batch must match the volume batch")
    return np.stack([apply_rigid(v, t) for v, t in zip(volumes, transforms)])


def _checked(encoded: EmbeddingBatch, name: str) -> EmbeddingBatch:
    norms = np.linalg.norm(encoded.vectors, axis=1)
    if np.any(np.abs(norms - 1.0) > 1e-6):
        raise EncoderContractError(f"{name} embeddings are not unit-normalized")
    return encoded


def nrcl_step(
    X: np.ndarray,
    X_clean: np.ndarray,
    X_noisy: np.ndarray,
    T: list[RigidTransform],
    T_prime: list[RigidTransform],
    encoder_q: PairEncoder,
    encoder_k: PairEncoder,
    cfg: LossConfig,
) -> tuple[float, dict]:
    """One pure evaluation of the full contrastive objective.

    Builds the two transformed views plus transformed clean/noisy
    variants, encodes queries and momentum keys, and returns
    total = sym(q1,k2) + lw*wass(q1,k2) + sym(q2,k1) + lw*wass(q2,k1)
          + infonce(q1, k_clean, k_noisy)
    together with the per-term breakdown; ``wass_converged`` is true only
    if both Sinkhorn plans converged. No parameters are updated.
    """
    X1 = _transform_batch(X, T)
    X2 = _transform_batch(X, T_prime)
    X1_clean = _transform_batch(X_clean, T)
    X1_noisy = _transform_batch(X_noisy, T)

    q1 = _checked(encoder_q.encode(X1, X), "encoder_q")
    q2 = _checked(encoder_q.encode(X2, X), "encoder_q")
    k1 = _checked(encoder_k.encode(X1, X), "encoder_k")
    k2 = _checked(encoder_k.encode(X2, X), "encoder_k")
    k_clean = _checked(encoder_k.encode(X1_clean, X), "encoder_k")
    k_noisy = _checked(encoder_k.encode(X1_noisy, X), "encoder_k")

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


def momentum_update(params_q: np.ndarray, params_k: np.ndarray, m: float) -> np.ndarray:
    """Exponential-moving-average key update: k <- m k + (1 - m) q."""
    q = np.asarray(params_q, dtype=np.float64)
    k = np.asarray(params_k, dtype=np.float64)
    if q.shape != k.shape:
        raise ValueError("parameter vectors must have equal lengths")
    if not 0.0 <= m <= 1.0:
        raise ValueError("momentum coefficient must lie in [0, 1]")
    return m * k + (1.0 - m) * q
