import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest

from cryoforge.apt import PatchSize
from cryoforge.nrcl import LossConfig
from cryoforge.pipeline import PipelineConfig
from cryoforge.recon import ReconConfig
from cryoforge.scene import PlacementConfig
from cryoforge.structure import DensifyConfig
from cryoforge.subtomo import ExtractionConfig, add_noise, extract
from cryoforge.tiltsim import TiltGeometry, simulate_tilt_series
from cryoforge.volume import DensityVolume, centred_sums, float_in, int_at_least, three_ints


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


# Every numeric field of every config dataclass, with the values just
# outside its range; NaN, ±inf and True are tried on each, and 2.5 on each
# int field. test_every_numeric_config_field_has_a_row keeps the table whole.
TINY = 5e-324  # the float just above 0
RANGE_EDGES = [
    (DensifyConfig, "voxel_size", [0.0]),
    (DensifyConfig, "target_resolution", [-TINY]),
    (DensifyConfig, "solvent_margin_factor", [-TINY]),
    (DensifyConfig, "peak_threshold_fraction", [-TINY, 1.0]),
    (PlacementConfig, "box_size", [0]),
    (PlacementConfig, "safety_margin", [-1]),
    (PlacementConfig, "target_count", [0]),
    (PlacementConfig, "max_attempts", [0]),
    (PlacementConfig, "seed", [-1]),
    (TiltGeometry, "oversample", [0]),
    (TiltGeometry, "shift_range", [-TINY]),
    (ExtractionConfig, "box", [7]),
    (ExtractionConfig, "jitter_range", [-1]),
    (ExtractionConfig, "neighbor_exclusion", [0.0]),
    (ExtractionConfig, "mask_threshold", [0.0, math.nextafter(1.0, 2.0)]),
    (LossConfig, "temperature", [0.0]),
    (LossConfig, "rince_c", [0.0, math.nextafter(1.0, 2.0)]),
    (LossConfig, "lambda_w", [-TINY]),
    (LossConfig, "sinkhorn_epsilon", [0.0]),
    (LossConfig, "sinkhorn_max_iter", [0]),
    (LossConfig, "sinkhorn_tol", [0.0]),
    (PatchSize, "s_d", [0]),
    (PatchSize, "s_h", [0]),
    (PatchSize, "s_w", [0]),
    (PipelineConfig, "seed", [-1]),
    (PipelineConfig, "jobs", [0]),
    (PipelineConfig, "particles_per_class", [0]),
    (DensityVolume, "voxel_size", [0.0]),
]
REQUIRED = {
    PipelineConfig: {"structures": {"a": "a.pdb"}, "output_dir": "out"},
    DensityVolume: {"data": np.zeros((2, 2, 2))},
}


def _numeric_fields(ctor) -> dict[str, str]:
    return {f.name: f.type for f in dataclasses.fields(ctor) if f.type in ("int", "float")}


@pytest.mark.parametrize(
    "ctor, name, outside", RANGE_EDGES, ids=[f"{c.__name__}.{n}" for c, n, _ in RANGE_EDGES]
)
def test_config_fields_reject_values_outside_their_range_by_name(ctor, name, outside):
    extra = [2.5] if _numeric_fields(ctor)[name] == "int" else []
    for value in [math.nan, math.inf, -math.inf, True, *extra, *outside]:
        with pytest.raises(ValueError, match=rf"^{name} must be .*, got "):
            ctor(**{**REQUIRED.get(ctor, {}), name: value})


@pytest.mark.parametrize(
    "ctor",
    [DensifyConfig, PlacementConfig, ExtractionConfig, ReconConfig, LossConfig, PatchSize],
    ids=lambda ctor: ctor.__name__,
)
def test_config_section_fields_cannot_be_reassigned(ctor):
    # a reassigned field skipped __post_init__'s checks: ExtractionConfig().box = 3
    # cropped 3 x 3 x 3 boxes, though ExtractionConfig(box=3) is refused
    cfg = ctor()
    for f in dataclasses.fields(ctor):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, f.name, getattr(cfg, f.name))
    assert cfg == ctor()


# The run seed and the box index reach the stages that draw from them as
# arguments, not config fields; each is checked by name where it is used.
_VOL = DensityVolume(np.arange(8.0).reshape(2, 2, 2))
STAGE_ARGUMENTS = [
    ("seed", [-1, "x"], lambda v: simulate_tilt_series(_VOL, TiltGeometry(angles=[0.0]), seed=v)),
    ("seed", [-1, "x"], lambda v: extract(_VOL, [], ExtractionConfig(), seed=v)),
    ("seed", [-1, "x"], lambda v: add_noise(_VOL, [0.1], seed=v)),
    ("index", [-1, "x"], lambda v: add_noise(_VOL, [0.1], index=v)),
    ("snr_target", [0.0, "x"], lambda v: add_noise(_VOL, [v])),
]


@pytest.mark.parametrize(
    "name, outside, call",
    STAGE_ARGUMENTS,
    ids=["simulate_tilt_series.seed", "extract.seed", "add_noise.seed", "add_noise.index",
         "add_noise.snr_target"],
)
def test_stage_arguments_reject_values_by_name(name, outside, call):
    extra = [2.5] if name != "snr_target" else []
    for value in [math.nan, math.inf, -math.inf, True, *extra, *outside]:
        named = rf"^{name} must be .*, got {re.escape(repr(value))}$"
        with pytest.raises(ValueError, match=named):
            call(value)


def test_every_numeric_config_field_has_a_row():
    ctors = {ctor for ctor, _, _ in RANGE_EDGES} | {ReconConfig}
    fields = {(ctor, name) for ctor in ctors for name in _numeric_fields(ctor)}
    assert fields == {(ctor, name) for ctor, name, _ in RANGE_EDGES}


def test_float_in_keeps_each_end_of_its_interval():
    assert float_in(0.0, "x", "[0, 1)") == 0.0 and float_in(1, "x", "(0, 1]") == 1
    assert float_in(np.float32(-2.5), "x", "(-inf, inf)") == np.float32(-2.5)
    for value, interval in [(0.0, "(0, 1]"), (1.0, "[0, 1)"), ("0.5", "(0, 1)"),
                            (np.bool_(True), "[0, 1]"), (None, "(-inf, inf)")]:
        with pytest.raises(ValueError, match=rf"^x must be .*, got {re.escape(repr(value))}$"):
            float_in(value, "x", interval)


def test_integer_helpers_refuse_bools():
    assert int_at_least(np.int64(3), "n", 0) == 3
    for value in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="^n must be an integer >= 0"):
            int_at_least(value, "n", 0)
    with pytest.raises(ValueError, match="^dims must be three integers"):
        three_ints((True, 4, 4), "dims")
    with pytest.raises(ValueError, match=re.escape("dims must be positive, got (0, 4, 4)")):
        three_ints((0, 4, 4), "dims")
