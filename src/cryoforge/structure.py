"""Atomic models to ground-truth density volumes.

Parses fixed-column PDB text and synthesizes electron-density maps: each
atom is an element-specific Gaussian, blurred to the target resolution in
closed form (a Gaussian low-pass of a Gaussian is a Gaussian) and averaged
over each voxel's cell; the map is normalized to unit maximum and its
near-zero voxels are suppressed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .volume import DensityVolume

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


class PdbParseError(ValueError):
    pass


class EmptyModelError(PdbParseError):
    pass


class ConfigError(ValueError):
    pass


@dataclass
class Atom:
    element: str
    position: np.ndarray  # Angstrom
    occupancy: float = 1.0


@dataclass
class AtomicModel:
    atoms: list[Atom]
    source_id: str = ""

    def __post_init__(self):
        if not self.atoms:
            raise EmptyModelError("atomic model must contain at least one atom")
        for atom in self.atoms:
            atom.position = np.asarray(atom.position, dtype=float).reshape(3)
            if not np.all(np.isfinite(atom.position)):
                raise ValueError("atom positions must be finite")

    def positions(self) -> np.ndarray:
        return np.stack([a.position for a in self.atoms])


@dataclass
class DensifyConfig:
    voxel_size: float = 10.0
    target_resolution: float = 30.0
    solvent_margin_factor: float = 2.0
    peak_threshold_fraction: float = 0.005

    def __post_init__(self):
        if not 0 < self.voxel_size < np.inf:
            raise ConfigError(f"voxel_size must be positive and finite, got {self.voxel_size!r}")
        for name in ("target_resolution", "solvent_margin_factor"):
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        if not 0 <= self.peak_threshold_fraction < 1:
            raise ConfigError("peak_threshold_fraction must be in [0, 1)")

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


def parse_pdb(text: str, source_id: str = "") -> AtomicModel:
    """Parse ATOM/HETATM records from fixed-column PDB text.

    Only the first MODEL block is honored and water (HOH) residues are
    skipped. Coordinates come from columns 31-54, occupancy from 55-60
    (defaulting to 1.0 when blank), element from columns 77-78 with an
    atom-name fallback.
    """
    atoms: list[Atom] = []
    in_model = False
    model_seen = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        rec = line[:6].strip()
        if rec == "MODEL":
            if model_seen:
                break
            model_seen = True
            in_model = True
            continue
        if rec == "ENDMDL":
            if in_model:
                break
            continue
        if rec not in ("ATOM", "HETATM"):
            continue
        if line[17:20].strip() == "HOH":
            continue
        try:
            x = float(line[30:38])
            y = float(line[38:46])
            z = float(line[46:54])
        except (ValueError, IndexError) as exc:
            raise PdbParseError(f"line {lineno}: unparseable coordinate field") from exc
        occ_field = line[54:60].strip()
        try:
            occupancy = float(occ_field) if occ_field else 1.0
        except ValueError as exc:
            raise PdbParseError(f"line {lineno}: unparseable occupancy field") from exc
        atoms.append(Atom(_element_from_line(line), np.array([x, y, z]), occupancy))
    if not atoms:
        raise EmptyModelError("no ATOM/HETATM records found")
    return AtomicModel(atoms, source_id=source_id)


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
    positions = model.positions()
    elements = [a.element for a in model.atoms]
    max_vdw = max(VDW_RADIUS.get(e, DEFAULT_VDW) for e in set(elements))
    margin = cfg.solvent_margin_factor * max_vdw
    lo = positions.min(axis=0) - margin
    hi = positions.max(axis=0) + margin
    dims = np.maximum(np.ceil((hi - lo) / cfg.voxel_size).astype(int), 1)

    kinds, kind = np.unique(elements, return_inverse=True)
    sigma = np.array([cfg.sigma_for(e) for e in kinds])[kind]
    amp = np.array([cfg.amplitude_for(e) for e in kinds])[kind] * np.array(
        [a.occupancy for a in model.atoms], dtype=np.float64
    )
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
