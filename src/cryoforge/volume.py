"""Core volumetric container shared by every pipeline stage."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np


def three_ints(value, name: str) -> tuple[int, int, int]:
    """``value`` as a (D, H, W) tuple of three ints; a ValueError naming
    ``name`` if it is not a sequence of three integers or one is below 1."""
    try:  # a bool is dropped, so the count falls short of three
        dims = tuple(operator.index(v) for v in value if not isinstance(v, bool))
    except TypeError:
        dims = ()
    if len(dims) != 3:
        raise ValueError(f"{name} must be three integers D,H,W, got {value!r}")
    if min(dims) < 1:
        raise ValueError(f"{name} must be positive, got {dims}")
    return dims


def int_at_least(value, name: str, low: int) -> int:
    """``value`` as an int; a ValueError naming ``name`` if it is not an
    integer (NaN, 2.5 and bools included) or is below ``low``."""
    try:
        number = low - 1 if isinstance(value, bool) else operator.index(value)
    except TypeError:
        number = low - 1
    if number < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return number


# how a message words an interval; any other reads "in <interval>"
_WORDS = {
    "(0, inf)": "finite and positive",
    "[0, inf)": "finite and >= 0",
    "(-inf, inf)": "finite",
    "[-90, 90]": "finite and within ±90",
}


def float_in(value, name: str, interval: str):
    """``value`` itself if it is a real number in ``interval``, such as
    "(0, 1]" ("inf" for an unbounded side); else a ValueError naming
    ``name`` and the value. NaN, ±inf, bools and non-numbers are in none."""
    low, high = map(float, interval[1:-1].split(","))
    real = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if real and math.isfinite(value):
        if (low < value if interval[0] == "(" else low <= value) and (
            value < high if interval[-1] == ")" else value <= high
        ):
            return value
    raise ValueError(f"{name} must be {_WORDS.get(interval, 'in ' + interval)}, got {value!r}")


def shift_pair(value, name: str) -> tuple:
    """``value`` as a (dx, dy) tuple; a ValueError naming ``name`` if it is
    not two items, or either is not a finite number."""
    try:
        pair = tuple(value)
    except TypeError:
        pair = ()
    if len(pair) != 2:
        raise ValueError(f"{name} must be a (dx, dy) pair, got {value!r}")
    for v in pair:
        float_in(v, name, "(-inf, inf)")
    return pair


_CHUNK = 1 << 16  # values per float64 buffer (512 KB)


def centred_sums(a: np.ndarray, b: np.ndarray | None = None) -> tuple[float, float, float]:
    """Σ(a−ā)², Σ(b−b̄)² and Σ(a−ā)(b−b̄) in float64 for equal-shape arrays,
    ``b`` defaulting to ``a``. Each flat chunk is cast into one reused
    float64 buffer per array and summed by ``np.einsum``, numpy's own loop:
    a BLAS reduction (``np.vdot``) over more than about 10,000 values leaves
    an OpenBLAS thread spinning a second core for about 0.1 s."""
    if b is not None and a.shape != b.shape:
        raise ValueError(f"arrays must have equal shapes, got {a.shape} and {b.shape}")
    n = a.size
    a = a.reshape(-1)
    mean_a, buf_a = float(a.sum(dtype=np.float64)) / n, np.empty(min(n, _CHUNK))
    if b is not None:
        b = b.reshape(-1)
        mean_b, buf_b = float(b.sum(dtype=np.float64)) / n, np.empty_like(buf_a)
    saa = sbb = sab = 0.0
    for i in range(0, n, _CHUNK):
        j = min(i + _CHUNK, n)
        da = np.subtract(a[i:j], mean_a, out=buf_a[: j - i], dtype=np.float64)
        saa += float(np.einsum("i,i->", da, da))
        if b is not None:
            db = np.subtract(b[i:j], mean_b, out=buf_b[: j - i], dtype=np.float64)
            sbb += float(np.einsum("i,i->", db, db))
            sab += float(np.einsum("i,i->", da, db))
    return (saa, saa, saa) if b is None else (saa, sbb, sab)


@dataclass
class DensityVolume:
    """3D scalar grid with physical voxel spacing.

    Axis order is (d, h, w) with w fastest in memory and on disk, matching
    the column-fastest MRC layout. ``voxel_size`` is Angstrom per voxel and
    ``origin`` is an Angstrom offset of the first voxel.
    """

    data: np.ndarray
    voxel_size: float = 1.0
    origin: np.ndarray = field(default_factory=lambda: np.zeros(3, dtype=np.float32))

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        three_ints(self.data.shape, "volume data shape")
        float_in(self.voxel_size, "voxel_size", "(0, inf)")
        self.origin = np.asarray(self.origin, dtype=np.float32).reshape(3)
        for v in self.origin.tolist():
            float_in(v, "origin", "(-inf, inf)")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("volume contains NaN/Inf values")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def with_data(self, data: np.ndarray) -> "DensityVolume":
        """Same spacing/origin, new payload."""
        return DensityVolume(data, self.voxel_size, self.origin.copy())
