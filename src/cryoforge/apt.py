"""Adaptive phase tokenization.

Polyphase decomposition of a volume under a patch grid, a rotation-aware
selection network built from spherical steerable filters, Gumbel-Softmax
phase sampling, the full tokenization forward pass, and a property-test
harness for its translation/rotation equivariance.

The selection network scores each phase component f (N voxels) with a
fixed bank of 7^3 kernels k_Jmb = R_b(r) * Y_J^m(x/r), degrees J <= 2 over
three Gaussian radial shells R_b, applied as circular convolutions. Degrees
J >= 1 vanish at the centre, where the direction x/r is undefined; that is
the only cap that binds, because the smallest nonzero radius on the
integer grid is 1 and the band limit floor(pi r) of a steerable filter is
already 3 > 2 there. The degree-0 channel enters the pooled logit
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
weight-free spectra (masses and sum_m |K_Jmb|^2) depend only on the
fixed kernel bank, so they are computed once per component shape for
every net; the net holds only its weights, read on every call.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .volume import float_in, int_at_least

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


@dataclass(frozen=True)
class PatchSize:
    s_d: int = 4
    s_h: int = 4
    s_w: int = 4

    def __post_init__(self):
        for name in ("s_d", "s_h", "s_w"):
            object.__setattr__(self, name, int_at_least(getattr(self, name), name, 1))

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.s_d, self.s_h, self.s_w)


def polyphase_decompose(data: np.ndarray, patch: PatchSize) -> np.ndarray:
    """Split a volume into its interleaved phase components, an
    (s_d, s_h, s_w, D/s_d, H/s_h, W/s_w) array whose axes 0-2 are the
    phase grid.

    Component (p, q, r) holds the samples at indices
    (i s_d + p, j s_h + q, k s_w + r), so each sample lies in exactly one.
    """
    data = np.asarray(data)
    s = patch.as_tuple()
    if any(dim % si != 0 for dim, si in zip(data.shape, s)):
        raise ValueError(f"volume shape {data.shape} not divisible by patch {s}")
    sd, sh, sw = s
    D, H, W = data.shape
    # axis (i, p) of the reshape is index i * s + p, so moving the phase
    # axes first puts sample (i s_d + p, j s_h + q, k s_w + r) at [p, q, r, i, j, k]
    comps = data.reshape(D // sd, sd, H // sh, sh, W // sw, sw).transpose(1, 3, 5, 0, 2, 4)
    return comps.copy()


# the selection net's fixed shape: degrees up to J_MAX on Gaussian radial
# shells (grid units) over a KERNEL_EXTENT^3 integer grid
J_MAX = 2
RADIAL_CENTERS = (1.0, 2.0, 3.0)
RADIAL_WIDTH = 0.75
KERNEL_EXTENT = 7


def _build_kernels():
    """Kernel stacks per degree: {J: array (2J+1, n_radial, K, K, K)}."""
    half = KERNEL_EXTENT // 2
    grid = np.arange(-half, half + 1, dtype=float)
    od, oh, ow = np.meshgrid(grid, grid, grid, indexing="ij")
    # physical axes: x <- w, y <- h, z <- d
    x, y, z = ow, oh, od
    r = np.sqrt(x * x + y * y + z * z)
    with np.errstate(invalid="ignore", divide="ignore"):
        xu, yu, zu = (np.where(r > 0, v / np.where(r > 0, r, 1.0), 0.0) for v in (x, y, z))
    # degrees >= 1 vanish at the centre only: the band limit floor(pi r) is
    # at least 3 > J_MAX at every nonzero radius of the integer grid
    off_centre = (r > 0).astype(float)
    radial = np.stack(
        [np.exp(-((r - c) ** 2) / (2.0 * RADIAL_WIDTH**2)) for c in RADIAL_CENTERS]
    )  # (n_b, K, K, K)
    kernels = {}
    for J in range(J_MAX + 1):
        mask = off_centre if J else 1.0
        kernels[J] = np.stack(
            [radial * (_real_sph_harm(J, m, xu, yu, zu) * mask)[None] for m in range(-J, J + 1)]
        )  # (2J+1, n_b, K, K, K)
    return kernels


_KERNELS = _build_kernels()


@dataclass
class SteerableSelectionNet:
    """Weights of the steerable-filter scoring network shared across phase
    components; the kernels are the module's fixed bank."""

    w_scalar: np.ndarray = None  # (n_radial,) degree-0 weights
    w_energy: np.ndarray = None  # (J_MAX, n_radial) energy weights
    break_rotation: bool = False  # test fixture: adds a non-steerable term

    def __post_init__(self):
        nb = len(RADIAL_CENTERS)
        if self.w_scalar is None:
            self.w_scalar = np.zeros(nb)
            self.w_scalar[0] = 1.0
        if self.w_energy is None:
            self.w_energy = np.full((J_MAX, nb), 0.1)
        self.w_scalar = np.asarray(self.w_scalar, dtype=float).reshape(nb)
        self.w_energy = np.asarray(self.w_energy, dtype=float).reshape(J_MAX, nb)

    @classmethod
    def random(cls, rng: np.random.Generator, **kwargs) -> "SteerableSelectionNet":
        net = cls(**kwargs)
        net.w_scalar = rng.normal(0.0, 1.0, size=net.w_scalar.shape)
        net.w_energy = rng.normal(0.0, 1.0, size=net.w_energy.shape)
        return net


@functools.cache
def _kernel_spectra(shape: tuple[int, int, int]):
    """Weight-free kernel spectra for components of one shape, computed
    once per shape from the module's fixed bank (a run tokenizes a
    handful of shapes, so the cache stays small).

    Returns the scalar masses K_b(0) (n_b,), the degree powers
    sum_m |K_Jmb|^2 (J_MAX, n_b, *half) and the negative control's
    |K_{1, m-index 2, b 0}|^2 (*half), on the rfftn half grid with the
    Hermitian multiplicities folded in.
    """
    half = shape[:2] + (shape[2] // 2 + 1,)
    hermitian = np.full(half[2], 2.0)
    hermitian[0] = 1.0
    if shape[2] % 2 == 0:
        hermitian[-1] = 1.0
    mass = _KERNELS[0][0].sum(axis=(-3, -2, -1))
    banks = [np.abs(_wrap_kernel_rfft(_KERNELS[J], shape)) ** 2 for J in range(1, J_MAX + 1)]
    power = np.stack([bank.sum(axis=0) for bank in banks]) * hermitian
    spectra = (mass, power, banks[0][2, 0] * hermitian)
    for array in spectra:
        array.flags.writeable = False  # one copy is shared by every caller
    return spectra


def _wrap_kernel_rfft(kernel: np.ndarray, shape: tuple[int, int, int]) -> np.ndarray:
    """Half-grid FFT of small kernels embedded circularly into a shape."""
    half = kernel.shape[-1] // 2
    wrapped = np.zeros(kernel.shape[:-3] + shape)
    taps = np.ix_(*(np.arange(-half, half + 1) % n for n in shape))
    np.add.at(wrapped, (Ellipsis, *taps), kernel)
    return np.fft.rfftn(wrapped, axes=(-3, -2, -1))


def component_logits(components: np.ndarray, net: SteerableSelectionNet) -> np.ndarray:
    """Pooled logit per component of a stack (..., n_d, n_h, n_w), shaped
    like its leading axes (the phase grid of :func:`polyphase_decompose`).

    Closed form of the pooled convolution responses: one batched rfftn of
    the components, then the scalar term mean(f) * sum_b w_scalar[b]
    K_b(0) plus <|F|^2, W> / N^2 with the weight spectrum W formed from
    the cached per-shape kernel powers and the net's current weights.
    """
    lead = components.shape[:-3]
    shape = components.shape[-3:]
    n = math.prod(shape)
    flat = components.reshape(-1, *shape).astype(np.float64, copy=False)
    F = np.fft.rfftn(flat, axes=(-3, -2, -1))
    mass, power, control = _kernel_spectra(shape)
    W = np.tensordot(net.w_energy, power, axes=2)
    if net.break_rotation:
        # single-m squared channel: shift-invariant, not rotation-invariant
        W = W + control
    spectrum = (F.real**2 + F.imag**2).reshape(F.shape[0], -1)
    logits = F[:, 0, 0, 0].real / n * float(net.w_scalar @ mass) + spectrum @ W.ravel() / n**2
    return logits.reshape(lead) if lead else logits


def softmax(logits: np.ndarray) -> np.ndarray:
    """Selection probabilities from the per-component pooled logits."""
    e = np.exp(logits - logits.max())
    return e / e.sum()


def gumbel_select(
    probs: np.ndarray, rng: np.random.Generator | None = None
) -> tuple[int, int, int]:
    """Pick a phase index from selection probabilities that sum to 1.

    With an rng, the Gumbel-max sample argmax(log p - log(-log u)), u drawn
    uniform once per call: the hard sample of the Gumbel-softmax relaxation,
    the same for every temperature. Without one, the argmax of p, ties
    broken toward the lexicographically smallest index.
    """
    p = np.asarray(probs, dtype=float)
    if abs(float_in(float(p.sum()), "probability sum", "(-inf, inf)") - 1.0) > 1e-6:
        raise ValueError("probabilities must sum to 1 within 1e-6")
    scores = p
    if rng is not None:
        with np.errstate(divide="ignore"):
            logp = np.log(p)
        scores = logp - np.log(-np.log(rng.random(p.shape)))
    flat = int(np.argmax(scores))  # np.argmax returns the first (lexicographic) maximum
    return np.unravel_index(flat, p.shape)  # type: ignore[return-value]


def apt_forward(
    data: np.ndarray,
    patch: PatchSize,
    net: SteerableSelectionNet,
    mode: str = "inference",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, tuple[int, int, int], np.ndarray]:
    """Full tokenization pass: decompose, score, select, extract.

    Returns the selected component, its phase index and the selection
    probabilities. Training mode samples the index with ``rng``; inference
    mode takes the argmax and ignores ``rng``.
    """
    if mode not in ("training", "inference"):
        raise ValueError("mode must be 'training' or 'inference'")
    if mode == "training" and rng is None:
        raise ValueError("training mode requires an RNG")
    components = polyphase_decompose(data, patch)
    probs = softmax(component_logits(components, net))
    index = gumbel_select(probs, rng if mode == "training" else None)
    return components[index], index, probs


# -- equivariance harness ----------------------------------------------------


def octahedral_rotations():
    """The 24 proper rotations of the cube as array operations, each acting
    on a 3D array the way the rotation acts on index vectors about the
    array center: an axis permutation then flips, kept when that signed
    permutation has determinant +1."""
    ops = []
    for perm in itertools.permutations(range(3)):
        for flips in itertools.product((1, -1), repeat=3):
            if np.linalg.det(np.eye(3)[list(perm)] * flips) > 0:
                axes = tuple(a for a in range(3) if flips[a] == -1)
                ops.append(lambda arr, p=perm, a=axes: np.flip(np.transpose(arr, p), a))
    return ops


def verify_equivariance(
    net: SteerableSelectionNet, trials: int = 20, seed: int = 0, size: int = 16
) -> dict:
    """Property suite for translation and rotation equivariance.

    Runs random periodic size^3 volumes through the tokenizer at the
    default :class:`PatchSize` and checks, per trial, under every circular
    shift within one patch: probability shift-permutation (tolerance 1e-5)
    and voxel-exact translated extraction; under the 24 octahedral
    rotations: pooled-logit invariance (1e-6), probability invariance
    (1e-5) and voxel-exact rotated extraction.
    """
    trials = int_at_least(trials, "trials", 1)
    rng = np.random.default_rng(int_at_least(seed, "seed", 0))
    size = int_at_least(size, "size", 1)
    patch = PatchSize()
    s = patch.as_tuple()
    axes = (0, 1, 2)
    rotations = octahedral_rotations()

    def tokenize(vol):
        comps = polyphase_decompose(vol, patch)
        logits = component_logits(comps, net)
        probs = softmax(logits)
        index = gumbel_select(probs)
        return logits, probs, index, comps[index]

    max_prob_dev_shift = max_logit_dev_rot = max_prob_dev_rot = 0.0
    shift_exact = rot_exact = True
    for _ in range(trials):
        vol = rng.normal(size=(size, size, size))
        logits, probs, index, selected = tokenize(vol)
        for g in itertools.product(*map(range, s)):
            shifted = np.roll(vol, g, axis=axes)
            _, probs_g, index_g, selected_g = tokenize(shifted)
            # probs of the shifted volume are the index-mapped originals
            dev = float(np.abs(probs_g - np.roll(probs, g, axis=axes)).max())
            max_prob_dev_shift = max(max_prob_dev_shift, dev)
            # phase p moves to (p + g) mod s and rolls by (p + g) // s inside it
            inner, expected = zip(*map(divmod, np.add(index, g), s))
            shift_exact &= index_g == expected and np.array_equal(
                selected_g, np.roll(selected, inner, axis=axes)
            )
        for rot in rotations:
            rotated = rot(vol)
            logits_r, probs_r, _, selected_r = tokenize(rotated)
            # the phase grid transforms by the same array operation
            max_logit_dev_rot = max(max_logit_dev_rot, float(np.abs(logits_r - rot(logits)).max()))
            max_prob_dev_rot = max(max_prob_dev_rot, float(np.abs(probs_r - rot(probs)).max()))
            rot_exact &= np.array_equal(selected_r, rot(selected))

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
            "pass": bool(max_logit_dev_rot < 1e-6 and max_prob_dev_rot < 1e-5 and rot_exact),
        },
    }
    report["pass"] = bool(report["translation"]["pass"] and report["rotation"]["pass"])
    return report
