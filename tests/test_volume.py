import tracemalloc

import numpy as np
import pytest

from cryoforge.volume import centred_sums


def test_centred_sums_match_float64_references_across_chunks(rng):
    n = 2 * (1 << 16) + 7  # two full float64 chunks and a short one
    a = (rng.normal(size=n) * 3.0 + 100.0).astype(np.float32)
    b = (0.5 * a + rng.normal(size=n)).astype(np.float32)
    da = a.astype(np.float64) - a.mean(dtype=np.float64)
    db = b.astype(np.float64) - b.mean(dtype=np.float64)
    saa, sbb, sab = centred_sums(a, b)
    assert saa == pytest.approx(np.sum(da * da), rel=1e-12)
    assert sbb == pytest.approx(np.sum(db * db), rel=1e-12)
    assert sab == pytest.approx(np.sum(da * db), rel=1e-12)
    assert sab / np.sqrt(saa * sbb) == pytest.approx(np.corrcoef(a, b)[0, 1], rel=1e-12)
    assert centred_sums(a) == (saa, saa, saa)


def test_centred_sums_take_a_strided_box(rng):
    volume = rng.normal(size=(20, 30, 40)).astype(np.float32)
    box = volume[2:10, 5:13, 7:15]
    other = rng.normal(size=box.shape).astype(np.float32)
    saa, _, sab = centred_sums(box, other)
    assert saa == pytest.approx(np.var(box.astype(np.float64)) * box.size, rel=1e-12)
    assert sab / np.sqrt(saa * centred_sums(other)[0]) == pytest.approx(
        np.corrcoef(box.ravel(), other.ravel())[0, 1], rel=1e-12
    )


def test_centred_sums_reject_unequal_shapes():
    with pytest.raises(ValueError, match="equal shapes"):
        centred_sums(np.zeros((2, 3), np.float32), np.zeros((3, 2), np.float32))


def test_centred_sums_allocate_two_chunks_not_the_arrays(rng):
    a, b = (rng.normal(size=(46, 360, 46)).astype(np.float32) for _ in range(2))
    centred_sums(a, b)
    tracemalloc.start()
    try:
        centred_sums(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one 512 KB float64 buffer per array; each array is 3 MB
    assert peak < a.nbytes / 2
