"""Atomic models to ground-truth density volumes.

Parses fixed-column PDB text and synthesizes electron-density maps by
element-specific Gaussian splatting, Fourier low-pass filtering,
normalization to unit maximum, and suppression of near-zero voxels.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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

SPLAT_CUTOFF_SIGMAS = 4.0
SPLAT_BYTES = 4_000_000  # temporaries of one block of atoms in splat_atoms


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
    element_sigma: dict = field(default_factory=lambda: dict(ELEMENT_SIGMA))
    element_amplitude: dict = field(default_factory=lambda: dict(ELEMENT_NUMBER))

    def __post_init__(self):
        if not self.voxel_size > 0:
            raise ConfigError("voxel_size must be positive")
        if self.target_resolution < 0:
            raise ConfigError("target_resolution must be >= 0 (0 disables low-pass)")
        if not 0 <= self.peak_threshold_fraction < 1:
            raise ConfigError("peak_threshold_fraction must be in [0, 1)")
        for elem, amp in self.element_amplitude.items():
            if amp == 0:
                raise ConfigError(f"zero amplitude configured for element {elem!r}")
        for elem, sigma in self.element_sigma.items():
            if not 0 < sigma < np.inf:
                raise ConfigError(
                    f"sigma for element {elem!r} must be positive and finite, got {sigma!r}"
                )

    def sigma_for(self, element: str) -> float:
        return self.element_sigma.get(element, DEFAULT_SIGMA)

    def amplitude_for(self, element: str) -> float:
        return float(self.element_amplitude.get(element, DEFAULT_NUMBER))


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


def _lowpass_gaussian_fft(grid: np.ndarray, sigma_vox: float) -> np.ndarray:
    """Gaussian low-pass via zero-padded FFT (pad >= 4 sigma per side)."""
    pad = int(np.ceil(SPLAT_CUTOFF_SIGMAS * sigma_vox)) + 1
    padded = np.pad(grid, pad, mode="constant")
    out = np.array(padded, dtype=np.float64)
    for axis, n in enumerate(padded.shape):
        freq = np.fft.fftfreq(n)
        kernel = np.exp(-2.0 * (np.pi * freq * sigma_vox) ** 2)
        shape = [1, 1, 1]
        shape[axis] = n
        out = np.fft.ifft(np.fft.fft(out, axis=axis) * kernel.reshape(shape), axis=axis).real
    sl = tuple(slice(pad, pad + n) for n in grid.shape)
    return out[sl]


def splat_atoms(model: AtomicModel, cfg: DensifyConfig) -> DensityVolume:
    """Sum per-atom Gaussians on a grid sized to the model plus margin.

    Each atom contributes amplitude * exp(-r^2 / (2 sigma^2)) within a
    4-sigma cutoff; the grid extent is the atom bounding box expanded per
    axis by the solvent margin (margin factor times the largest van der
    Waals radius present).

    One array pass over blocks of consecutive atoms: every atom's voxel
    window is padded to the largest window, the padding and the voxels
    past the cutoff are masked out, and the rest are accumulated with
    ``np.add.at`` in atom order, so each voxel's float64 sum is formed in
    the order of the atom list. A block's temporaries stay within
    ``SPLAT_BYTES`` (a block holds at least one atom).
    """
    positions = model.positions()
    elements = [a.element for a in model.atoms]
    max_vdw = max(VDW_RADIUS.get(e, DEFAULT_VDW) for e in set(elements))
    margin = cfg.solvent_margin_factor * max_vdw
    lo = positions.min(axis=0) - margin
    hi = positions.max(axis=0) + margin
    dims = np.maximum(np.ceil((hi - lo) / cfg.voxel_size).astype(int), 1)
    grid = np.zeros(tuple(dims[::-1]), dtype=np.float64)  # (d, h, w) = (z, y, x)
    _, H, W = grid.shape

    kinds, kind = np.unique(elements, return_inverse=True)
    sigma = np.array([cfg.sigma_for(e) for e in kinds])[kind]
    amp = np.array([cfg.amplitude_for(e) for e in kinds])[kind] * np.array(
        [a.occupancy for a in model.atoms], dtype=np.float64
    )
    cutoff = SPLAT_CUTOFF_SIGMAS * sigma
    # voxel-index window covering each atom's cutoff sphere, (x, y, z)
    pos_vox = (positions - lo) / cfg.voxel_size
    r_vox = (cutoff / cfg.voxel_size)[:, None]
    lo_idx = np.maximum(np.floor(pos_vox - r_vox).astype(int), 0)
    hi_idx = np.minimum(np.ceil(pos_vox + r_vox).astype(int) + 1, dims)
    kept = np.all(lo_idx < hi_idx, axis=1)
    positions, lo_idx, hi_idx = positions[kept], lo_idx[kept], hi_idx[kept]
    cut2, den, amp = cutoff[kept] ** 2, 2.0 * sigma[kept] * sigma[kept], amp[kept]
    window = (hi_idx - lo_idx).max(axis=0, initial=1)
    # a padded window voxel costs at most 48 bytes of temporaries
    block = max(1, SPLAT_BYTES // (48 * int(np.prod(window))))
    flat = grid.reshape(-1)
    for a in range(0, len(positions), block):
        b = slice(a, a + block)
        # per axis: node indices, their validity and squared distances, (atoms, window)
        idx, valid, dist2 = [], [], []
        for axis in range(3):
            nodes = lo_idx[b, axis, None] + np.arange(window[axis])
            idx.append(nodes)
            valid.append(nodes < hi_idx[b, axis, None])
            dist2.append(((nodes * cfg.voxel_size + lo[axis]) - positions[b, axis, None]) ** 2)
        x2, y2, z2 = dist2
        r2 = (z2[:, :, None, None] + y2[:, None, :, None]) + x2[:, None, None, :]
        inside = r2 <= cut2[b, None, None, None]
        inside &= valid[2][:, :, None, None] & valid[1][:, None, :, None]
        inside &= valid[0][:, None, None, :]
        voxel = (idx[2][:, :, None, None] * H + idx[1][:, None, :, None]) * W
        voxel = (voxel + idx[0][:, None, None, :])[inside]
        counts = np.count_nonzero(inside.reshape(len(inside), -1), axis=1)
        r2 = r2[inside]
        del inside
        blob = np.exp(-r2 / np.repeat(den[b], counts))
        blob *= np.repeat(amp[b], counts)
        np.add.at(flat, voxel, blob)
    # origin records the (x, y, z) Angstrom position of voxel (0, 0, 0)
    return DensityVolume(grid.astype(np.float32), cfg.voxel_size, lo.astype(np.float32))


def densify(model: AtomicModel, cfg: DensifyConfig | None = None) -> DensityVolume:
    """Full density synthesis: splat, low-pass, normalize, threshold."""
    cfg = cfg or DensifyConfig()
    vol = splat_atoms(model, cfg)
    grid = vol.data.astype(np.float64)
    if cfg.target_resolution > 0:
        sigma_vox = (cfg.target_resolution / 2.0) / cfg.voxel_size
        grid = _lowpass_gaussian_fft(grid, sigma_vox)
    peak = grid.max()
    if peak <= 0:
        raise ValueError("density synthesis produced a non-positive map")
    grid = grid / peak
    grid[grid < cfg.peak_threshold_fraction] = 0.0
    return DensityVolume(grid.astype(np.float32), cfg.voxel_size, vol.origin)
