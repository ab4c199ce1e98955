"""Atomic models to ground-truth density volumes.

Parses fixed-column PDB text into per-atom arrays and synthesizes
electron-density maps: each atom is an element-specific Gaussian, blurred
to the target resolution in closed form (a Gaussian low-pass of a Gaussian
is a Gaussian) and averaged over each voxel's cell; the map is normalized
to unit maximum and its near-zero voxels are suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .volume import DensityVolume, float_in

# sigma (Angstrom) of the per-element splat kernel; amplitudes scale with
# atomic number so heavier atoms contribute broader, taller densities
ELEMENT_SIGMA = {
    "H": 0.25,
    "C": 0.35,
    "N": 0.33,
    "O": 0.31,
    "P": 0.42,
    "S": 0.44,
}
DEFAULT_SIGMA = 0.38

ELEMENT_NUMBER = {"H": 1, "C": 6, "N": 7, "O": 8, "P": 15, "S": 16}
DEFAULT_NUMBER = 6

VDW_RADIUS = {"H": 1.2, "C": 1.7, "N": 1.55, "O": 1.52, "P": 1.8, "S": 1.8}
DEFAULT_VDW = 1.7


class InvalidAtomError(ValueError):
    """Row ``index`` holds a non-finite coordinate or a non-finite or negative occupancy."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"atom {index}: {reason}")
        self.index, self.reason = index, reason


@dataclass
class AtomicModel:
    """One row per atom: ``positions`` (n, 3) float64 Angstrom (x, y, z),
    ``elements`` (n,) symbols and ``occupancy`` (n,) float64."""

    positions: np.ndarray
    elements: np.ndarray
    occupancy: np.ndarray

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.elements = np.asarray(self.elements, dtype=str)
        self.occupancy = np.asarray(self.occupancy, dtype=np.float64)
        n = len(self.elements)
        if n == 0:
            raise ValueError("no atoms: the model holds no ATOM/HETATM records")
        if self.positions.shape != (n, 3) or self.occupancy.shape != (n,):
            raise ValueError("positions, elements and occupancy must be (n, 3), (n,) and (n,)")
        finite = np.isfinite(self.positions).all(axis=1)
        # NaN fails both occupancy comparisons
        bad = np.flatnonzero(~finite | ~(self.occupancy >= 0) | ~(self.occupancy < np.inf))
        if bad.size:
            i = int(bad[0])
            raise InvalidAtomError(i, "coordinates must be finite" if not finite[i] else
                                   f"occupancy {self.occupancy[i]:g} must be finite and >= 0")


@dataclass(frozen=True)
class DensifyConfig:
    voxel_size: float = 10.0
    target_resolution: float = 30.0
    solvent_margin_factor: float = 2.0
    peak_threshold_fraction: float = 0.005

    def __post_init__(self):
        float_in(self.voxel_size, "voxel_size", "(0, inf)")
        float_in(self.target_resolution, "target_resolution", "[0, inf)")
        float_in(self.solvent_margin_factor, "solvent_margin_factor", "[0, inf)")
        float_in(self.peak_threshold_fraction, "peak_threshold_fraction", "[0, 1)")

    @staticmethod
    def sigma_for(element: str) -> float:
        return ELEMENT_SIGMA.get(element, DEFAULT_SIGMA)

    @staticmethod
    def amplitude_for(element: str) -> float:
        return float(ELEMENT_NUMBER.get(element, DEFAULT_NUMBER))


def _element_from_line(line: str) -> str:
    elem = line[76:78].strip() if len(line) >= 78 else ""
    if not elem:
        # fall back on the atom-name field; strip leading digits (e.g. 1HB)
        name = line[12:16].strip()
        elem = name.lstrip("0123456789")[:1]
    return elem.capitalize()


def parse_pdb(text: str) -> AtomicModel:
    """Parse ATOM/HETATM records from fixed-column PDB text.

    Only the first MODEL block is honored and water (HOH) residues are
    skipped. Coordinates come from columns 31-54, occupancy from 55-60
    (defaulting to 1.0 when blank), element from columns 77-78 with an
    atom-name fallback. An unparseable field, a non-finite coordinate and a
    non-finite or negative occupancy raise a ValueError naming the line.
    """
    rows: list[tuple[float, ...]] = []  # x, y, z, occupancy, line number
    elements: list[str] = []
    in_model = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        rec = line[:6].strip()
        if rec in ("MODEL", "ENDMDL"):
            if in_model:  # the first MODEL block ends here
                break
            in_model = rec == "MODEL"
            continue
        if rec not in ("ATOM", "HETATM") or line[17:20].strip() == "HOH":
            continue
        try:
            x, y, z = float(line[30:38]), float(line[38:46]), float(line[46:54])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"line {lineno}: unparseable coordinate field") from exc
        occ_field = line[54:60].strip()
        try:
            rows.append((x, y, z, float(occ_field) if occ_field else 1.0, lineno))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: unparseable occupancy field") from exc
        elements.append(_element_from_line(line))
    table = np.array(rows).reshape(-1, 5)
    try:
        return AtomicModel(table[:, :3], elements, table[:, 3])
    except InvalidAtomError as exc:
        raise ValueError(f"line {table[exc.index, 4]:.0f}: {exc.reason}") from exc


def splat_atoms(model: AtomicModel, cfg: DensifyConfig) -> DensityVolume:
    """Each atom's Gaussian, blurred to the target resolution and averaged
    over each voxel's cell, summed on a grid sized to the model plus margin.

    An atom of amplitude amp (times its occupancy) and width sigma holds
    mass amp * (2 pi sigma^2)^(3/2). A Gaussian low-pass of width
    target_resolution / 2 makes it a Gaussian of the same mass and width
    sigma_t = sqrt(sigma^2 + (target_resolution / 2)^2). A voxel holds that
    Gaussian's mean over its cell: mass / voxel^3 times, per axis, the
    difference of the normal CDF at the cell's faces. No cutoff is applied,
    so the map holds each atom's mass wherever the grid holds its blur. The
    grid extent is the atom bounding box expanded per axis by the solvent
    margin (margin factor times the largest van der Waals radius present).

    The per-axis factors are (atoms, n) matrices; the grid is formed one d
    plane at a time as a product over atoms, never as (atoms, H, W).
    """
    positions = model.positions
    kinds, kind = np.unique(model.elements, return_inverse=True)
    max_vdw = max(VDW_RADIUS.get(e, DEFAULT_VDW) for e in kinds)
    margin = cfg.solvent_margin_factor * max_vdw
    lo = positions.min(axis=0) - margin
    hi = positions.max(axis=0) + margin
    dims = np.maximum(np.ceil((hi - lo) / cfg.voxel_size).astype(int), 1)

    sigma = np.array([cfg.sigma_for(e) for e in kinds])[kind]
    amp = np.array([cfg.amplitude_for(e) for e in kinds])[kind] * model.occupancy
    w = amp * (2.0 * np.pi * sigma**2) ** 1.5 / cfg.voxel_size**3  # mass per voxel volume
    sigma_t = np.sqrt(sigma**2 + (cfg.target_resolution / 2.0) ** 2)[:, None]
    # per axis (x, y, z): the fraction of each atom's mass in each cell, (atoms, n);
    # voxel i is centred on lo + i * voxel_size
    gx, gy, gz = (
        np.diff(ndtr((lo[a] + (np.arange(n + 1) - 0.5) * cfg.voxel_size - positions[:, a, None])
                     / sigma_t), axis=1)
        for a, n in enumerate(dims)
    )
    grid = np.empty(tuple(dims[::-1]), dtype=np.float32)  # (d, h, w) = (z, y, x)
    for d in range(len(grid)):
        grid[d] = (gy * (w * gz[:, d])[:, None]).T @ gx
    # origin records the (x, y, z) Angstrom position of voxel (0, 0, 0)
    return DensityVolume(grid, cfg.voxel_size, lo.astype(np.float32))


def densify(model: AtomicModel, cfg: DensifyConfig | None = None) -> DensityVolume:
    """Full density synthesis: the closed-form blurred splat, normalized to
    unit maximum, with voxels below the peak threshold set to 0."""
    cfg = cfg or DensifyConfig()
    vol = splat_atoms(model, cfg)
    peak = vol.data.max()
    if peak <= 0:
        raise ValueError("density synthesis produced a non-positive map")
    grid = vol.data / peak
    grid[grid < cfg.peak_threshold_fraction] = 0.0
    return DensityVolume(grid, cfg.voxel_size, vol.origin)
