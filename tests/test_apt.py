import numpy as np
import pytest

from cryoforge import apt
from cryoforge.apt import (
    PatchSize,
    SteerableSelectionNet,
    apt_forward,
    component_logits,
    gumbel_select,
    octahedral_rotations,
    polyphase_decompose,
    softmax,
    verify_equivariance,
)


def test_patch_size_validation():
    with pytest.raises(ValueError):
        PatchSize(0, 4, 4)
    assert PatchSize(2, 3, 4).as_tuple() == (2, 3, 4)


def _interleave(components):
    """Test-only oracle: the inverse of polyphase_decompose."""
    sd, sh, sw, nd, nh, nw = components.shape
    return components.transpose(3, 0, 4, 1, 5, 2).reshape(nd * sd, nh * sh, nw * sw)


def test_decompose_shapes_and_exact_interleave(rng):
    data = rng.normal(size=(4, 4, 4))
    comps = polyphase_decompose(data, PatchSize(2, 2, 2))
    assert comps.shape == (2, 2, 2, 2, 2, 2)
    assert np.array_equal(_interleave(comps), data)


def test_decompose_indexing_follows_strides(rng):
    data = rng.normal(size=(8, 8, 8))
    comps = polyphase_decompose(data, PatchSize(4, 4, 4))
    assert np.array_equal(comps[1, 2, 3], data[1::4, 2::4, 3::4])


@pytest.mark.parametrize(
    "shape, patch", [((16, 16, 16), (4, 4, 4)), ((12, 20, 8), (2, 4, 2)), ((9, 15, 7), (3, 5, 7))]
)
def test_decompose_and_interleave_match_stride_loops(rng, shape, patch):
    data = rng.normal(size=shape)
    comps = polyphase_decompose(data, PatchSize(*patch))
    sd, sh, sw = patch
    expected = np.empty(comps.shape)
    rebuilt = np.empty(shape)
    for p in range(sd):
        for q in range(sh):
            for r in range(sw):
                expected[p, q, r] = data[p::sd, q::sh, r::sw]
                rebuilt[p::sd, q::sh, r::sw] = comps[p, q, r]
    assert comps.shape == (sd, sh, sw, shape[0] // sd, shape[1] // sh, shape[2] // sw)
    assert np.array_equal(comps, expected)
    assert np.array_equal(_interleave(comps), rebuilt)


def test_decompose_constant_volume():
    comps = polyphase_decompose(np.full((8, 8, 8), 2.5), PatchSize(4, 4, 4))
    assert np.ptp(comps) == 0.0


def test_decompose_rejects_non_divisible():
    with pytest.raises(ValueError):
        polyphase_decompose(np.zeros((7, 8, 8)), PatchSize(4, 4, 4))


def test_shift_maps_components(rng):
    # Circular shift by (1,0,0) sends component (p,q,r) to ((p+1) mod 4, q, r)
    data = rng.normal(size=(16, 16, 16))
    comps = polyphase_decompose(data, PatchSize())
    shifted = polyphase_decompose(np.roll(data, 1, axis=0), PatchSize())
    for p in range(4):
        for q in range(4):
            for r in range(4):
                expect = np.roll(comps[p, q, r], (p + 1) // 4, axis=0)
                assert np.array_equal(shifted[(p + 1) % 4, q, r], expect)


def test_constant_component_logit_is_kernel_mass():
    nb = 3
    net = SteerableSelectionNet(
        w_scalar=np.array([1.0, 0.0, 0.0]), w_energy=np.zeros((2, nb))
    )
    (logit,) = component_logits(np.full((1, 8, 8, 8), 2.0), net)
    assert logit == pytest.approx(2.0 * apt._KERNELS[0][0, 0].sum(), rel=1e-9)


def test_zero_weights_zero_logit(rng):
    net = SteerableSelectionNet(w_scalar=np.zeros(3), w_energy=np.zeros((2, 3)))
    assert np.array_equal(component_logits(rng.normal(size=(1, 8, 8, 8)), net), [0.0])


def test_logit_rotation_invariance(rng):
    net = SteerableSelectionNet.random(rng)
    comp = rng.normal(size=(8, 8, 8))
    (base,) = component_logits(comp[None], net)
    scale = max(1.0, abs(base))
    for rot in octahedral_rotations():
        (rotated,) = component_logits(np.ascontiguousarray(rot(comp))[None], net)
        assert abs(rotated - base) < 1e-6 * scale


def test_kernel_support_is_the_steerable_band_limit():
    # degree J lives where J <= floor(pi r); on the integer grid that removes
    # only the centre of each degree >= 1
    g = np.arange(apt.KERNEL_EXTENT) - apt.KERNEL_EXTENT // 2
    r = np.sqrt(g[:, None, None] ** 2 + g[None, :, None] ** 2 + g[None, None, :] ** 2)
    for J in range(apt.J_MAX + 1):
        support = np.abs(apt._KERNELS[J]).sum(axis=(0, 1)) > 0
        assert np.array_equal(support, np.floor(np.pi * r) >= J)
        assert np.count_nonzero(support) == r.size - (J > 0)


def test_uniform_probs_for_constant_volume():
    net = SteerableSelectionNet()
    comps = polyphase_decompose(np.full((16, 16, 16), 1.0), PatchSize())
    probs = softmax(component_logits(comps, net))
    assert np.abs(probs - 1.0 / 64).max() < 1e-9
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_apt_forward_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode"):
        apt_forward(np.zeros((8, 8, 8)), PatchSize(), SteerableSelectionNet(), mode="sampling")


def test_gumbel_training_requires_rng():
    with pytest.raises(ValueError, match="RNG"):
        apt_forward(np.zeros((8, 8, 8)), PatchSize(), SteerableSelectionNet(), mode="training")


def test_gumbel_select_rejects_unnormalized_probabilities(rng):
    for probs in (np.array([0.5, 0.4]), np.array([0.5, 0.5 + 2e-6])):
        with pytest.raises(ValueError, match="sum to 1"):
            gumbel_select(probs)
        with pytest.raises(ValueError, match="sum to 1"):
            gumbel_select(probs, rng)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_gumbel_select_rejects_a_non_finite_probability_sum(rng, value):
    # a NaN sum used to pass the tolerance check and select (0, 0, 0)
    probs = np.full((2, 2, 2), 0.125)
    probs[1, 0, 1] = value
    for draw in (None, rng):
        with pytest.raises(ValueError, match=f"probability sum must be finite, got {value}"):
            gumbel_select(probs, draw)


def test_gumbel_inference_argmax_and_tie_break():
    probs = np.array([[0.2, 0.7], [0.1, 0.0]]).reshape(2, 2, 1)
    assert gumbel_select(probs) == (0, 1, 0)
    assert gumbel_select(np.full((2, 2, 1), 0.25)) == (0, 0, 0)  # lexicographic tie-break


def test_gumbel_sample_is_gumbel_max_of_one_uniform_draw():
    p = np.array([0.1, 0.2, 0.3, 0.4]).reshape(2, 2, 1)
    for seed in range(20):
        u = np.random.default_rng(seed).random(p.shape)
        expected = np.unravel_index(np.argmax(np.log(p) - np.log(-np.log(u))), p.shape)
        rng = np.random.default_rng(seed)
        assert gumbel_select(p, rng) == expected
        # exactly one draw of the phase-grid shape per call
        assert rng.random() == np.random.default_rng(seed).random(p.size + 1)[-1]


def test_gumbel_training_sharp_logits(rng):
    p = np.exp([10.0, 0.0, 0.0])
    probs = (p / p.sum()).reshape(3, 1, 1)
    hits = sum(gumbel_select(probs, rng) == (0, 0, 0) for _ in range(10_000))
    assert hits / 10_000 >= 0.999


def test_gumbel_training_uniform_frequencies(rng):
    probs = np.full((3, 1, 1), 1.0 / 3)
    n = 30_000
    counts = np.zeros(3)
    for _ in range(n):
        counts[gumbel_select(probs, rng)[0]] += 1
    # chi-square goodness of fit, df=2; 13.8 is the p~0.001 cutoff
    chi2 = float(np.sum((counts - n / 3) ** 2 / (n / 3)))
    assert chi2 < 13.8


def test_apt_forward_constant_volume():
    component, index, probs = apt_forward(
        np.full((16, 16, 16), 3.0), PatchSize(), SteerableSelectionNet()
    )
    assert index == (0, 0, 0)
    assert np.ptp(component) == 0.0
    assert probs.shape == (4, 4, 4)


def test_octahedral_rotation_group_has_24_distinct_ops(rng):
    vol = rng.normal(size=(6, 6, 6))
    ops = octahedral_rotations()
    assert len(ops) == 24
    images = [rot(vol).tobytes() for rot in ops]
    assert len(set(images)) == 24


def _signed_permutation(rot, n=5):
    """The matrix M of ``rot`` on index vectors about the centre of an n^3
    grid, read off where it sends one off-centre voxel per axis."""
    c = n // 2
    columns = []
    for axis in range(3):
        probe = np.zeros((n, n, n))
        probe[tuple(c + (a == axis) for a in range(3))] = 1.0
        (landed,) = np.argwhere(rot(probe) == 1.0)
        columns.append(landed - c)
    return np.stack(columns, axis=1)


def test_octahedral_rotations_are_the_proper_rotation_group(rng):
    ops = octahedral_rotations()
    matrices = [_signed_permutation(rot) for rot in ops]
    vol = rng.normal(size=(5, 5, 5))
    grid = np.indices(vol.shape).reshape(3, -1)
    for rot, m in zip(ops, matrices):
        # a signed permutation of determinant +1, acting on every voxel
        assert np.array_equal(np.abs(m).sum(axis=0), [1, 1, 1])
        assert round(np.linalg.det(m)) == 1
        moved = m @ (grid - 2) + 2
        assert np.array_equal(rot(vol)[tuple(moved)], vol[tuple(grid)])
    keys = {m.tobytes() for m in matrices}
    assert len(keys) == 24 and np.eye(3, dtype=int).tobytes() in keys
    assert all((a @ b).tobytes() in keys for a in matrices for b in matrices)


def test_verify_equivariance_passes():
    rng = np.random.default_rng(4)
    net = SteerableSelectionNet.random(rng)
    report = verify_equivariance(net, trials=2, seed=4)
    assert report["pass"]
    assert report["translation"]["extraction_voxel_exact"]
    assert report["rotation"]["max_logit_deviation"] < 1e-6


def test_verify_equivariance_negative_control():
    rng = np.random.default_rng(4)
    net = SteerableSelectionNet.random(rng, break_rotation=True)
    report = verify_equivariance(net, trials=2, seed=4)
    assert report["translation"]["pass"]
    assert not report["rotation"]["pass"]
    assert not report["pass"]


def test_verify_equivariance_trials_guard():
    with pytest.raises(ValueError):
        verify_equivariance(SteerableSelectionNet(), trials=0)


@pytest.mark.parametrize(
    "kwargs,message",
    [({"seed": -1}, "seed must be an integer >= 0, got -1"),
     ({"size": 0}, "size must be an integer >= 1, got 0")],
)
def test_verify_equivariance_names_a_bad_seed_or_size(kwargs, message):
    with pytest.raises(ValueError, match=message):
        verify_equivariance(SteerableSelectionNet(), trials=1, **kwargs)


def test_verify_equivariance_fails_a_selection_blind_to_shifts(monkeypatch):
    # negative control: a selector that always picks phase (0, 0, 0) cannot
    # follow a shift into the next phase
    monkeypatch.setattr(apt, "gumbel_select", lambda probs: (0, 0, 0))
    net = SteerableSelectionNet.random(np.random.default_rng(4))
    translation = verify_equivariance(net, trials=2, seed=4)["translation"]
    assert not translation["extraction_voxel_exact"]
    assert not translation["pass"]


def test_verify_equivariance_fails_logits_pinned_to_the_phase_grid(monkeypatch):
    # negative control: a bias tied to phase index, not content, does not
    # move with a shift, so the probabilities stop permuting
    logits = apt.component_logits
    bias = np.arange(64.0).reshape(4, 4, 4)
    monkeypatch.setattr(apt, "component_logits", lambda comps, net: logits(comps, net) + bias)
    net = SteerableSelectionNet.random(np.random.default_rng(4))
    translation = verify_equivariance(net, trials=2, seed=4)["translation"]
    assert translation["max_probability_deviation"] >= 1e-5
    assert not translation["pass"]


def test_component_logits_shape(rng):
    comps = polyphase_decompose(rng.normal(size=(8, 8, 8)), PatchSize(2, 2, 2))
    logits = component_logits(comps, SteerableSelectionNet.random(rng))
    assert logits.shape == (2, 2, 2)


# -- test-only reference: the pooled logits by explicit circular convolution --


def _reference_wrap_kernel_fft(kernel, shape):
    """FFT of a small kernel embedded circularly into an arbitrary shape."""
    K = kernel.shape[-1]
    half = K // 2
    lead = kernel.shape[:-3]
    wrapped = np.zeros(lead + shape, dtype=float)
    idx_d = (np.arange(-half, half + 1)) % shape[0]
    idx_h = (np.arange(-half, half + 1)) % shape[1]
    idx_w = (np.arange(-half, half + 1)) % shape[2]
    flat = wrapped.reshape(-1, *shape)
    kflat = kernel.reshape(-1, K, K, K)
    for i in range(flat.shape[0]):
        np.add.at(flat[i], np.ix_(idx_d, idx_h, idx_w), kflat[i])
    return np.fft.fftn(wrapped, axes=(-3, -2, -1))


def _reference_logits(comps, net):
    """Convolve every component with every kernel, pool the scalar field
    and the per-degree energies (and the control's single-m channel)."""
    lead = comps.shape[:-3]
    shape = comps.shape[-3:]
    flat = comps.reshape(-1, *shape).astype(np.float64)
    F = np.fft.fftn(flat, axes=(-3, -2, -1))
    logits = np.zeros(flat.shape[0])

    scalar_fft = _reference_wrap_kernel_fft(apt._KERNELS[0][0], shape)
    scalar_fields = np.fft.ifftn(F[:, None] * scalar_fft[None], axes=(-3, -2, -1)).real
    logits += np.einsum("b,cbzyx->c", net.w_scalar, scalar_fields) / np.prod(shape)

    for J in range(1, apt.J_MAX + 1):
        bank_fft = _reference_wrap_kernel_fft(apt._KERNELS[J], shape)
        fields = np.fft.ifftn(F[:, None, None] * bank_fft[None], axes=(-3, -2, -1)).real
        energy = np.sum(fields**2, axis=1)
        logits += np.einsum("b,cbzyx->c", net.w_energy[J - 1], energy) / np.prod(shape)
        if net.break_rotation and J == 1:
            logits += np.sum(fields[:, 2, 0] ** 2, axis=(-3, -2, -1)) / np.prod(shape)
    return logits.reshape(lead) if lead else logits


def _assert_logits_match(got, want):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("break_rotation", [False, True])
@pytest.mark.parametrize(
    "volume_shape, patch",
    [
        ((32, 32, 32), (4, 4, 4)),
        ((16, 16, 16), (4, 4, 4)),  # 4^3 components: the 7^3 kernel wraps
        ((12, 20, 8), (2, 4, 2)),
    ],
)
def test_component_logits_match_convolution_reference(volume_shape, patch, break_rotation):
    rng = np.random.default_rng(sum(volume_shape) + break_rotation)
    net = SteerableSelectionNet.random(rng, break_rotation=break_rotation)
    comps = polyphase_decompose(rng.normal(size=volume_shape), PatchSize(*patch))
    _assert_logits_match(component_logits(comps, net), _reference_logits(comps, net))


def test_component_logits_follow_reassigned_weights(rng):
    net = SteerableSelectionNet.random(rng)
    comps = polyphase_decompose(rng.normal(size=(16, 16, 16)), PatchSize())
    first = component_logits(comps, net)
    _assert_logits_match(first, _reference_logits(comps, net))
    net.w_energy = rng.normal(size=net.w_energy.shape)
    net.w_scalar = rng.normal(size=net.w_scalar.shape)
    second = component_logits(comps, net)
    _assert_logits_match(second, _reference_logits(comps, net))
    assert np.abs(second - first).max() > 1e-3 * np.abs(first).max()


def test_tokens_are_pinned_for_a_fixed_seed():
    # the draw order that perfbench's tokens_sha256 depends on: the net's
    # weights first, then one uniform draw of the phase-grid shape per
    # training-mode call
    rng = np.random.default_rng(21)
    net = SteerableSelectionNet.random(rng)
    assert net.w_scalar.tolist() == [0.35877340800391416, 1.5106773081434572, -1.7863312373111822]
    assert net.w_energy.tolist() == [
        [1.686613508665752, -0.047317212156137566, -0.7999785843751532],
        [-0.802956718390362, -1.082816516582591, -0.22364535840745078],
    ]
    vols = rng.normal(scale=0.1, size=(8, 16, 16, 16)).astype(np.float32)
    inference = [tuple(map(int, apt_forward(v, PatchSize(), net)[1])) for v in vols]
    training = [
        tuple(map(int, apt_forward(v, PatchSize(), net, mode="training", rng=rng)[1]))
        for v in vols
    ]
    assert inference == [
        (3, 2, 2), (2, 0, 2), (0, 0, 2), (1, 2, 3), (3, 2, 3), (2, 0, 3), (1, 1, 1), (0, 1, 0)
    ]
    assert training == [
        (3, 2, 2), (2, 0, 2), (2, 2, 1), (1, 3, 0), (1, 1, 1), (1, 1, 1), (1, 1, 1), (0, 1, 0)
    ]
    assert rng.random() == 0.9676919237775016
