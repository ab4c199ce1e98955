import numpy as np
import pytest

from cryoforge.apt import (
    PatchSize,
    SelectionProbabilities,
    SteerableSelectionNet,
    apt_forward,
    component_logits,
    gumbel_select,
    interleave,
    octahedral_rotations,
    polyphase_decompose,
    selection_probs,
    steerable_features,
    verify_equivariance,
)


def test_patch_size_validation():
    with pytest.raises(ValueError):
        PatchSize(0, 4, 4)
    assert PatchSize(2, 3, 4).count == 24


def test_decompose_shapes_and_exact_interleave(rng):
    data = rng.normal(size=(4, 4, 4))
    ps = polyphase_decompose(data, PatchSize(2, 2, 2))
    assert ps.components.shape == (2, 2, 2, 2, 2, 2)
    assert ps.count == 8
    assert np.array_equal(interleave(ps), data)


def test_decompose_indexing_follows_strides(rng):
    data = rng.normal(size=(8, 8, 8))
    ps = polyphase_decompose(data, PatchSize(4, 4, 4))
    assert np.array_equal(ps.components[1, 2, 3], data[1::4, 2::4, 3::4])


def test_decompose_constant_volume():
    ps = polyphase_decompose(np.full((8, 8, 8), 2.5), PatchSize(4, 4, 4))
    assert np.ptp(ps.components) == 0.0


def test_decompose_rejects_non_divisible():
    with pytest.raises(ValueError):
        polyphase_decompose(np.zeros((7, 8, 8)), PatchSize(4, 4, 4))


def test_shift_maps_components(rng):
    # Circular shift by (1,0,0) sends component (p,q,r) to ((p+1) mod 4, q, r)
    data = rng.normal(size=(16, 16, 16))
    ps = polyphase_decompose(data, PatchSize())
    shifted = polyphase_decompose(np.roll(data, 1, axis=0), PatchSize())
    for p in range(4):
        for q in range(4):
            for r in range(4):
                expect = np.roll(ps.components[p, q, r], (p + 1) // 4, axis=0)
                assert np.array_equal(shifted.components[(p + 1) % 4, q, r], expect)


def test_constant_component_logit_is_kernel_mass():
    nb = 3
    net = SteerableSelectionNet(
        w_scalar=np.array([1.0, 0.0, 0.0]), w_energy=np.zeros((2, nb))
    )
    logit = steerable_features(np.full((8, 8, 8), 2.0), net)
    assert logit == pytest.approx(2.0 * net.kernel_sum(J=0, m_index=0, radial_index=0), rel=1e-9)


def test_zero_weights_zero_logit(rng):
    net = SteerableSelectionNet(w_scalar=np.zeros(3), w_energy=np.zeros((2, 3)))
    assert steerable_features(rng.normal(size=(8, 8, 8)), net) == 0.0


def test_logit_rotation_invariance(rng):
    net = SteerableSelectionNet.random(rng)
    comp = rng.normal(size=(8, 8, 8))
    base = steerable_features(comp, net)
    scale = max(1.0, abs(base))
    for _, rot in octahedral_rotations():
        rotated = steerable_features(np.ascontiguousarray(rot(comp)), net)
        assert abs(rotated - base) < 1e-6 * scale


def test_net_requires_odd_kernel():
    with pytest.raises(ValueError):
        SteerableSelectionNet(kernel_extent=6)


def test_uniform_probs_for_constant_volume():
    net = SteerableSelectionNet()
    ps = polyphase_decompose(np.full((16, 16, 16), 1.0), PatchSize())
    probs = selection_probs(ps, net)
    assert np.abs(probs.probs - 1.0 / 64).max() < 1e-9
    assert probs.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_selection_probabilities_validation():
    with pytest.raises(ValueError):
        SelectionProbabilities(np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        SelectionProbabilities(np.array([0.5, 0.5]), mode="sampling")
    with pytest.raises(ValueError):
        SelectionProbabilities(np.array([0.5, 0.5]), temperature=0.0, mode="training")


def test_gumbel_inference_argmax_and_tie_break():
    probs = SelectionProbabilities(np.array([[0.2, 0.7], [0.1, 0.0]]).reshape(2, 2, 1))
    assert gumbel_select(probs) == (0, 1, 0)
    uniform = SelectionProbabilities(np.full((2, 2, 1), 0.25))
    assert gumbel_select(uniform) == (0, 0, 0)  # lexicographic tie-break


def test_gumbel_training_requires_rng():
    probs = SelectionProbabilities(np.full((2, 2, 1), 0.25), temperature=1.0, mode="training")
    with pytest.raises(ValueError):
        gumbel_select(probs)


def test_gumbel_training_sharp_logits(rng):
    p = np.exp([10.0, 0.0, 0.0])
    probs = SelectionProbabilities((p / p.sum()).reshape(3, 1, 1), temperature=0.1, mode="training")
    hits = sum(gumbel_select(probs, rng) == (0, 0, 0) for _ in range(10_000))
    assert hits / 10_000 >= 0.999


def test_gumbel_training_uniform_frequencies(rng):
    probs = SelectionProbabilities(np.full((3, 1, 1), 1.0 / 3), temperature=1.0, mode="training")
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
    assert probs.probs.shape == (4, 4, 4)


def test_octahedral_rotation_group_has_24_distinct_ops(rng):
    vol = rng.normal(size=(6, 6, 6))
    ops = octahedral_rotations()
    assert len(ops) == 24
    images = [rot(vol).tobytes() for _, rot in ops]
    assert len(set(images)) == 24


def test_verify_equivariance_passes():
    rng = np.random.default_rng(4)
    net = SteerableSelectionNet.random(rng)
    report = verify_equivariance(net, trials=2, seed=4, shifts_per_trial=8)
    assert report["pass"]
    assert report["translation"]["extraction_voxel_exact"]
    assert report["rotation"]["max_logit_deviation"] < 1e-6


def test_verify_equivariance_negative_control():
    rng = np.random.default_rng(4)
    net = SteerableSelectionNet.random(rng, break_rotation=True)
    report = verify_equivariance(net, trials=2, seed=4, shifts_per_trial=8)
    assert report["translation"]["pass"]
    assert not report["rotation"]["pass"]
    assert not report["pass"]


def test_verify_equivariance_trials_guard():
    with pytest.raises(ValueError):
        verify_equivariance(SteerableSelectionNet(), trials=0)


def test_component_logits_shape(rng):
    ps = polyphase_decompose(rng.normal(size=(8, 8, 8)), PatchSize(2, 2, 2))
    logits = component_logits(ps, SteerableSelectionNet.random(rng))
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

    scalar_fft = _reference_wrap_kernel_fft(net._kernels[0][0], shape)
    scalar_fields = np.fft.ifftn(F[:, None] * scalar_fft[None], axes=(-3, -2, -1)).real
    logits += np.einsum("b,cbzyx->c", net.w_scalar, scalar_fields) / np.prod(shape)

    for J in range(1, net.j_max_cap + 1):
        bank_fft = _reference_wrap_kernel_fft(net._kernels[J], shape)
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
    ps = polyphase_decompose(rng.normal(size=volume_shape), PatchSize(*patch))
    _assert_logits_match(component_logits(ps, net), _reference_logits(ps.components, net))


def test_component_logits_follow_reassigned_weights(rng):
    net = SteerableSelectionNet.random(rng)
    ps = polyphase_decompose(rng.normal(size=(16, 16, 16)), PatchSize())
    first = component_logits(ps, net)
    _assert_logits_match(first, _reference_logits(ps.components, net))
    net.w_energy = rng.normal(size=net.w_energy.shape)
    net.w_scalar = rng.normal(size=net.w_scalar.shape)
    second = component_logits(ps, net)
    _assert_logits_match(second, _reference_logits(ps.components, net))
    assert np.abs(second - first).max() > 1e-3 * np.abs(first).max()
