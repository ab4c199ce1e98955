"""Core volumetric container shared by every pipeline stage."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np


def three_ints(value, name: str) -> tuple[int, int, int]:
    """``value`` as a (D, H, W) tuple of three ints; a ValueError naming
    ``name`` if it is not a sequence of three integers."""
    try:
        dims = tuple(operator.index(v) for v in value)
    except TypeError:
        dims = ()
    if len(dims) != 3:
        raise ValueError(f"{name} must be three integers D,H,W, got {value!r}")
    return dims


def int_at_least(value, name: str, low: int) -> int:
    """``value`` as an int; a ValueError naming ``name`` if it is not an
    integer (NaN and 2.5 included) or is below ``low``."""
    try:
        number = operator.index(value)
    except TypeError:
        number = low - 1
    if number < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
    return number


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
        if self.data.ndim != 3 or min(self.data.shape) < 1:
            raise ValueError("volume data must be 3D with all dimensions >= 1")
        if not self.voxel_size > 0:
            raise ValueError("voxel_size must be positive")
        self.origin = np.asarray(self.origin, dtype=np.float32).reshape(3)
        if not np.all(np.isfinite(self.data)):
            raise ValueError("volume contains NaN/Inf values")

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    def with_data(self, data: np.ndarray) -> "DensityVolume":
        """Same spacing/origin, new payload."""
        return DensityVolume(data, self.voxel_size, self.origin.copy())
