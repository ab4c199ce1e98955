"""Adaptive phase tokenization.

Polyphase decomposition of a volume under a patch grid, a rotation-aware
selection network built from spherical steerable filters, Gumbel-Softmax
phase sampling, the full tokenization forward pass, and a property-test
harness for its translation/rotation equivariance.

The selection network scores each phase component f (N voxels) with a
bank of kernels k_Jmb = R_b(r) * Y_J^m(x/r), capped per radius at
J_max(r) = floor(pi r / dx) and at a global degree cap, applied as
circular convolutions. The degree-0 channel enters the pooled logit
linearly; higher degrees enter through their rotation-invariant
per-degree energies (sum over m of squared responses), so pooled logits
are invariant under grid-exact rotations while remaining sensitive to
anisotropic structure.

The pooled logit is evaluated in closed form rather than by convolving.
With F = FFT(f) and K the FFT of a kernel wrapped onto the component
grid, the scalar channel's mean response is mean(f) * K_b(0) (the kernel
mass), and by Parseval the energy of degree J is
(1/N) sum_xi |F(xi)|^2 sum_m |K_Jmb(xi)|^2. So

    logit = mean(f) * sum_b w_scalar[b] K_b(0) + <|F|^2, W> / N^2,
    W = sum_J sum_b w_energy[J-1, b] sum_m |K_Jmb|^2,

one forward FFT per component and no convolution fields. The
weight-free spectra (masses and sum_m |K_Jmb|^2) are cached on the net
per component shape; the weights are read on every call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

# real spherical harmonics up to degree 2, arguments are unit vectors;
# the degree-0 term is left unnormalized (1.0) so the scalar channel is the
# bare radial profile — per-degree constants are absorbed by the weights
_Y00 = 1.0
_Y1 = 0.4886025119029199
_Y2A = 1.0925484305920792
_Y20 = 0.31539156525252005
_Y22 = 0.5462742152960396


def _real_sph_harm(J: int, m: int, x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    if J == 0:
        return np.full_like(x, _Y00)
    if J == 1:
        return _Y1 * {-1: y, 0: z, 1: x}[m]
    if J == 2:
        if m == -2:
            return _Y2A * x * y
        if m == -1:
            return _Y2A * y * z
        if m == 0:
            return _Y20 * (3.0 * z * z - 1.0)
        if m == 1:
            return _Y2A * x * z
        return _Y22 * (x * x - y * y)
    raise ValueError(f"degree {J} not supported")


@dataclass
class PatchSize:
    s_d: int = 4
    s_h: int = 4
    s_w: int = 4

    def __post_init__(self):
        if min(self.s_d, self.s_h, self.s_w) < 1:
            raise ValueError("patch dimensions must be positive")

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.s_d, self.s_h, self.s_w)

    @property
    def count(self) -> int:
        return self.s_d * self.s_h * self.s_w


@dataclass
class PolyphaseSet:
    """Phase components indexed (p, q, r); axes 0-2 are the phase grid."""

    components: np.ndarray  # (s_d, s_h, s_w, D/s_d, H/s_h, W/s_w)
    patch: PatchSize

    @property
    def count(self) -> int:
        return self.patch.count


def polyphase_decompose(data: np.ndarray, patch: PatchSize) -> PolyphaseSet:
    """Split a volume into its interleaved phase components.

    Component (p, q, r) holds the samples at indices
    (i s_d + p, j s_h + q, k s_w + r); the inverse interleave is exact.
    """
    data = np.asarray(data)
    s = patch.as_tuple()
    if any(dim % si != 0 for dim, si in zip(data.shape, s)):
        raise ValueError(f"volume shape {data.shape} not divisible by patch {s}")
    sd, sh, sw = s
    comps = np.empty(
        (sd, sh, sw, data.shape[0] // sd, data.shape[1] // sh, data.shape[2] // sw),
        dtype=data.dtype,
    )
    for p in range(sd):
        for q in range(sh):
            for r in range(sw):
                comps[p, q, r] = data[p::sd, q::sh, r::sw]
    return PolyphaseSet(comps, patch)


def interleave(ps: PolyphaseSet) -> np.ndarray:
    """Exact inverse of :func:`polyphase_decompose`."""
    sd, sh, sw, nd, nh, nw = ps.components.shape
    out = np.empty((sd * nd, sh * nh, sw * nw), dtype=ps.components.dtype)
    for p in range(sd):
        for q in range(sh):
            for r in range(sw):
                out[p::sd, q::sh, r::sw] = ps.components[p, q, r]
    return out


@dataclass
class SteerableSelectionNet:
    """Steerable-filter scoring network shared across phase components."""

    j_max_cap: int = 2
    radial_centers: tuple[float, ...] = (1.0, 2.0, 3.0)
    radial_width: float = 0.75
    kernel_extent: int = 7
    grid_spacing: float = 1.0
    w_scalar: np.ndarray = field(default=None)  # (n_radial,) degree-0 weights
    w_energy: np.ndarray = field(default=None)  # (j_max_cap, n_radial) energy weights
    break_rotation: bool = False  # test fixture: adds a non-steerable term

    def __post_init__(self):
        if self.kernel_extent % 2 != 1:
            raise ValueError("kernel_extent must be odd")
        nb = len(self.radial_centers)
        if self.w_scalar is None:
            self.w_scalar = np.zeros(nb)
            self.w_scalar[0] = 1.0
        if self.w_energy is None:
            self.w_energy = np.full((self.j_max_cap, nb), 0.1)
        self.w_scalar = np.asarray(self.w_scalar, dtype=float).reshape(nb)
        self.w_energy = np.asarray(self.w_energy, dtype=float).reshape(self.j_max_cap, nb)
        self._kernels = self._build_kernels()
        self._spectra: dict[tuple[int, int, int], tuple] = {}

    @classmethod
    def random(cls, rng: np.random.Generator, **kwargs) -> "SteerableSelectionNet":
        net = cls(**kwargs)
        net.w_scalar = rng.normal(0.0, 1.0, size=net.w_scalar.shape)
        net.w_energy = rng.normal(0.0, 1.0, size=net.w_energy.shape)
        return net

    def _build_kernels(self):
        """Kernel stacks per degree: {J: array (2J+1, n_radial, K, K, K)}."""
        K = self.kernel_extent
        half = K // 2
        grid = np.arange(-half, half + 1, dtype=float)
        od, oh, ow = np.meshgrid(grid, grid, grid, indexing="ij")
        # physical axes: x <- w, y <- h, z <- d
        x, y, z = ow, oh, od
        r = np.sqrt(x * x + y * y + z * z)
        with np.errstate(invalid="ignore", divide="ignore"):
            xu, yu, zu = (np.where(r > 0, v / np.where(r > 0, r, 1.0), 0.0) for v in (x, y, z))
        j_max_r = np.floor(np.pi * r / self.grid_spacing).astype(int)
        j_max_r = np.minimum(j_max_r, self.j_max_cap)
        j_max_r[r == 0] = 0  # center point carries only the scalar term
        radial = np.stack(
            [np.exp(-((r - c) ** 2) / (2.0 * self.radial_width**2)) for c in self.radial_centers]
        )  # (n_b, K, K, K)
        kernels = {}
        for J in range(self.j_max_cap + 1):
            allowed = (j_max_r >= J).astype(float)
            ms = range(-J, J + 1)
            bank = np.stack(
                [
                    radial * (_real_sph_harm(J, m, xu, yu, zu) * allowed)[None]
                    for m in ms
                ]
            )  # (2J+1, n_b, K, K, K)
            kernels[J] = bank
        return kernels

    def kernel_sum(self, J: int = 0, m_index: int = 0, radial_index: int = 0) -> float:
        """Total mass of one kernel; handy for closed-form checks."""
        return float(self._kernels[J][m_index, radial_index].sum())


    def _kernel_spectra(self, shape: tuple[int, int, int]):
        """Weight-free kernel spectra for components of one shape, cached.

        Returns the scalar masses K_b(0) (n_b,), the degree powers
        sum_m |K_Jmb|^2 (j_max_cap, n_b, *half) and the negative control's
        |K_{1, m-index 2, b 0}|^2 (*half, None without degree 1), on the
        rfftn half grid with the Hermitian multiplicities folded in.
        """
        spectra = self._spectra.get(shape)
        if spectra is None:
            half = shape[:2] + (shape[2] // 2 + 1,)
            hermitian = np.full(half[2], 2.0)
            hermitian[0] = 1.0
            if shape[2] % 2 == 0:
                hermitian[-1] = 1.0
            mass = self._kernels[0][0].sum(axis=(-3, -2, -1))
            power = np.empty((self.j_max_cap, len(self.radial_centers)) + half)
            control = None
            for J in range(1, self.j_max_cap + 1):
                bank = np.abs(_wrap_kernel_rfft(self._kernels[J], shape)) ** 2
                power[J - 1] = bank.sum(axis=0) * hermitian
                if J == 1:
                    control = bank[2, 0] * hermitian
            spectra = self._spectra[shape] = (mass, power, control)
        return spectra


def _wrap_kernel_rfft(kernel: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Half-grid FFT of small kernels embedded circularly into a shape."""
    half = kernel.shape[-1] // 2
    wrapped = np.zeros(kernel.shape[:-3] + shape)
    taps = np.ix_(*(np.arange(-half, half + 1) % n for n in shape))
    np.add.at(wrapped, (Ellipsis, *taps), kernel)
    return np.fft.rfftn(wrapped, axes=(-3, -2, -1))


def _logit_fields(comps: np.ndarray, net: SteerableSelectionNet) -> np.ndarray:
    """Pooled logits for a stack of components (..., n_d, n_h, n_w).

    Closed form of the pooled convolution responses: one batched rfftn of
    the components, then the scalar term mean(f) * sum_b w_scalar[b]
    K_b(0) plus <|F|^2, W> / N^2 with the weight spectrum W formed from
    the net's cached per-shape kernel powers and its current weights.
    """
    lead = comps.shape[:-3]
    shape = comps.shape[-3:]
    n = math.prod(shape)
    flat = comps.reshape(-1, *shape).astype(np.float64)
    F = np.fft.rfftn(flat, axes=(-3, -2, -1))
    mass, power, control = net._kernel_spectra(shape)
    W = np.tensordot(net.w_energy, power, axes=2)
    if net.break_rotation and control is not None:
        # single-m squared channel: shift-invariant, not rotation-invariant
        W = W + control
    spectrum = (F.real**2 + F.imag**2).reshape(F.shape[0], -1)
    logits = F[:, 0, 0, 0].real / n * float(net.w_scalar @ mass) + spectrum @ W.ravel() / n**2
    return logits.reshape(lead) if lead else logits


def steerable_features(component: np.ndarray, net: SteerableSelectionNet) -> float:
    """Pooled scalar logit of one phase component, in the closed form of
    :func:`_logit_fields` (cached kernel spectra for its shape)."""
    return float(_logit_fields(np.asarray(component)[None], net)[0])


@dataclass
class SelectionProbabilities:
    probs: np.ndarray  # (s_d, s_h, s_w), sums to 1
    temperature: float = 1.0
    mode: str = "inference"

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=float)
        if self.mode not in ("training", "inference"):
            raise ValueError("mode must be 'training' or 'inference'")
        if abs(self.probs.sum() - 1.0) > 1e-6:
            raise ValueError("probabilities must sum to 1 within 1e-6")
        if self.mode == "training" and not self.temperature > 0:
            raise ValueError("training mode requires temperature > 0")


def selection_probs(
    ps: PolyphaseSet,
    net: SteerableSelectionNet,
    temperature: float = 1.0,
    mode: str = "inference",
) -> SelectionProbabilities:
    """Softmax over the per-component pooled logits."""
    return _softmax(component_logits(ps, net), temperature, mode)


def _softmax(
    logits: np.ndarray, temperature: float = 1.0, mode: str = "inference"
) -> SelectionProbabilities:
    """Selection probabilities from logits already computed."""
    z = logits - logits.max()
    e = np.exp(z)
    return SelectionProbabilities(e / e.sum(), temperature, mode)


def component_logits(ps: PolyphaseSet, net: SteerableSelectionNet) -> np.ndarray:
    """Pooled logit per phase component, shaped like the phase grid."""
    return _logit_fields(ps.components, net)


def gumbel_select(
    probs: SelectionProbabilities, rng: np.random.Generator | None = None
) -> tuple[int, int, int]:
    """Pick a phase index from the selection probabilities.

    Training mode adds i.i.d. Gumbel(0, 1) noise to the log-probabilities,
    divides by the temperature, and takes the argmax of the softmax (the
    relaxation's hard sample); inference mode is the deterministic argmax
    with lexicographically-smallest tie-breaking.
    """
    p = probs.probs
    if probs.mode == "training":
        if rng is None:
            raise ValueError("training mode requires an RNG")
        with np.errstate(divide="ignore"):
            logp = np.log(p)
        gumbel = -np.log(-np.log(rng.random(p.shape)))
        scores = (logp + gumbel) / probs.temperature
    else:
        scores = p
    flat = int(np.argmax(scores))  # np.argmax returns the first (lexicographic) maximum
    return np.unravel_index(flat, p.shape)  # type: ignore[return-value]


def apt_forward(
    data: np.ndarray,
    patch: PatchSize,
    net: SteerableSelectionNet,
    mode: str = "inference",
    rng: np.random.Generator | None = None,
    temperature: float = 1.0,
) -> tuple[np.ndarray, tuple[int, int, int], SelectionProbabilities]:
    """Full tokenization pass: decompose, score, select, extract."""
    ps = polyphase_decompose(data, patch)
    probs = selection_probs(ps, net, temperature=temperature, mode=mode)
    index = gumbel_select(probs, rng)
    return ps.components[index], index, probs


# -- equivariance harness ----------------------------------------------------


def octahedral_rotations():
    """The 24 proper rotations of the cube as array operations.

    Each entry is (name, fn) with fn acting on a 3D array the way the
    rotation acts on index vectors about the array center.
    """
    ops = []
    for perm in itertools.permutations(range(3)):
        parity = ((perm[0], perm[1], perm[2]) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)))
        for flips in itertools.product((1, -1), repeat=3):
            det = (1 if parity else -1) * flips[0] * flips[1] * flips[2]
            if det != 1:
                continue
            axes = tuple(a for a, f in zip(range(3), flips) if f == -1)

            def fn(arr, perm=perm, axes=axes):
                out = np.transpose(arr, perm)
                return np.flip(out, axis=axes) if axes else out

            ops.append((f"perm{perm}flip{axes}", fn))
    return ops


def _shift_component_map(index, g, s):
    """Phase index and internal roll that a circular shift g induces."""
    new_index = tuple((index[a] + g[a]) % s[a] for a in range(3))
    inner = tuple((index[a] + g[a]) // s[a] for a in range(3))
    return new_index, inner


def verify_equivariance(
    net: SteerableSelectionNet,
    trials: int = 20,
    seed: int = 0,
    volume_shape: tuple[int, int, int] = (16, 16, 16),
    patch: PatchSize | None = None,
    shifts_per_trial: int | None = None,
) -> dict:
    """Property suite for translation and rotation equivariance.

    Runs random periodic volumes through the tokenizer and checks, per
    trial: probability shift-permutation (tolerance 1e-5), voxel-exact
    translated extraction, pooled-logit rotation invariance (1e-6),
    probability rotation invariance (1e-5), and voxel-exact rotated
    extraction under the 24 octahedral rotations.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    patch = patch or PatchSize()
    rng = np.random.default_rng(seed)
    s = patch.as_tuple()
    max_prob_dev_shift = 0.0
    max_logit_dev_rot = 0.0
    max_prob_dev_rot = 0.0
    shift_exact = True
    rot_exact = True
    rotations = octahedral_rotations()
    all_shifts = list(itertools.product(*(range(si) for si in s)))
    for _ in range(trials):
        vol = rng.normal(size=volume_shape)
        ps = polyphase_decompose(vol, patch)
        logits = component_logits(ps, net)
        probs = _softmax(logits)
        sel = gumbel_select(probs)
        selected = ps.components[sel]

        shifts = all_shifts
        if shifts_per_trial is not None:
            picks = rng.choice(len(all_shifts), size=shifts_per_trial, replace=False)
            shifts = [all_shifts[i] for i in picks]
        for g in shifts:
            shifted = np.roll(vol, g, axis=(0, 1, 2))
            ps_g = polyphase_decompose(shifted, patch)
            probs_g = selection_probs(ps_g, net)
            # probs of the shifted volume are the index-mapped originals
            expected = np.roll(probs.probs, g, axis=(0, 1, 2))
            max_prob_dev_shift = max(
                max_prob_dev_shift, float(np.abs(probs_g.probs - expected).max())
            )
            sel_g = gumbel_select(probs_g)
            exp_index, inner = _shift_component_map(sel, g, s)
            if sel_g != exp_index or not np.array_equal(
                ps_g.components[sel_g], np.roll(selected, inner, axis=(0, 1, 2))
            ):
                shift_exact = False

        if volume_shape[0] == volume_shape[1] == volume_shape[2] and s[0] == s[1] == s[2]:
            for _, rot in rotations:
                rvol = rot(vol)
                ps_r = polyphase_decompose(np.ascontiguousarray(rvol), patch)
                logits_r = component_logits(ps_r, net)
                probs_r = _softmax(logits_r)
                # the phase grid transforms by the same array operation
                max_logit_dev_rot = max(
                    max_logit_dev_rot, float(np.abs(logits_r - rot(logits)).max())
                )
                max_prob_dev_rot = max(
                    max_prob_dev_rot, float(np.abs(probs_r.probs - rot(probs.probs)).max())
                )
                sel_r = gumbel_select(probs_r)
                if not np.array_equal(ps_r.components[sel_r], rot(selected)):
                    rot_exact = False

    report = {
        "trials": trials,
        "translation": {
            "max_probability_deviation": max_prob_dev_shift,
            "extraction_voxel_exact": shift_exact,
            "pass": bool(max_prob_dev_shift < 1e-5 and shift_exact),
        },
        "rotation": {
            "max_logit_deviation": max_logit_dev_rot,
            "max_probability_deviation": max_prob_dev_rot,
            "extraction_voxel_exact": rot_exact,
            "pass": bool(
                max_logit_dev_rot < 1e-6 and max_prob_dev_rot < 1e-5 and rot_exact
            ),
        },
    }
    report["pass"] = bool(report["translation"]["pass"] and report["rotation"]["pass"])
    return report
