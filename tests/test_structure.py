import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from cryoforge import structure
from cryoforge.structure import (
    DEFAULT_VDW,
    SPLAT_CUTOFF_SIGMAS,
    VDW_RADIUS,
    Atom,
    AtomicModel,
    ConfigError,
    DensifyConfig,
    EmptyModelError,
    PdbParseError,
    _lowpass_gaussian_fft,
    densify,
    parse_pdb,
    splat_atoms,
)

SINGLE_CARBON = "ATOM      1  CA  ALA A   1       1.000   2.000   3.000  1.00  0.00           C\n"


def _atom_line(serial, x, y, z, element="C", res="ALA"):
    return (
        f"ATOM  {serial:5d}  CA  {res} A{serial:4d}    "
        f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           {element}"
    )


def test_parse_single_atom():
    model = parse_pdb(SINGLE_CARBON)
    assert len(model.atoms) == 1
    atom = model.atoms[0]
    assert atom.element == "C"
    assert np.allclose(atom.position, [1.0, 2.0, 3.0])
    assert atom.occupancy == 1.0


def test_parse_honors_first_model_only():
    block1 = "\n".join(_atom_line(i, i, 0, 0) for i in range(1, 11))
    block2 = "\n".join(_atom_line(i, 0, i, 0) for i in range(1, 11))
    text = f"MODEL     1\n{block1}\nENDMDL\nMODEL     2\n{block2}\nENDMDL\n"
    model = parse_pdb(text)
    assert len(model.atoms) == 10
    assert model.atoms[0].position[0] == 1.0  # from the first block


def test_parse_skips_water():
    text = _atom_line(1, 0, 0, 0) + "\n" + _atom_line(2, 5, 0, 0, element="O", res="HOH")
    assert len(parse_pdb(text).atoms) == 1


def test_parse_empty_raises():
    with pytest.raises(EmptyModelError):
        parse_pdb("REMARK nothing here\n")


def test_parse_bad_coordinate_reports_line():
    text = _atom_line(1, 0, 0, 0) + "\nATOM      2  CA  ALA A   2      bad bad bad\n"
    with pytest.raises(PdbParseError, match="line 2"):
        parse_pdb(text)


def test_parse_element_fallback_from_atom_name():
    # short line without the element columns: fall back on the atom name
    line = "ATOM      1  N   ALA A   1       0.000   0.000   0.000  1.00  0.00"
    assert parse_pdb(line).atoms[0].element == "N"


def test_parse_blank_occupancy_defaults_to_one():
    line = "ATOM      1  CA  ALA A   1       0.000   0.000   0.000"
    assert parse_pdb(line).atoms[0].occupancy == 1.0


def test_densify_single_atom_no_lowpass():
    cfg = DensifyConfig(voxel_size=1.0, target_resolution=0.0)
    vol = densify(parse_pdb(SINGLE_CARBON), cfg)
    assert vol.data.max() == pytest.approx(1.0)
    # the peak voxel is the grid point nearest the atom
    peak = np.unravel_index(np.argmax(vol.data), vol.shape)
    atom_vox = (np.array([3.0, 2.0, 1.0]) - vol.origin[::-1]) / cfg.voxel_size
    assert np.all(np.abs(np.array(peak) - atom_vox) <= 0.5 + 1e-9)


def test_densify_threshold_contract():
    cfg = DensifyConfig(voxel_size=2.0)
    vol = densify(parse_pdb(SINGLE_CARBON), cfg)
    data = vol.data
    assert data.min() >= 0.0
    assert data.max() == pytest.approx(1.0)
    assert not np.any((data > 0) & (data < cfg.peak_threshold_fraction))


def test_splat_matches_brute_force_oracle():
    # two carbons; recompute every voxel of the splat directly
    text = _atom_line(1, 0.0, 0.0, 0.0) + "\n" + _atom_line(2, 2.0, 0.5, -1.0)
    cfg = DensifyConfig(voxel_size=1.0)
    model = parse_pdb(text)
    vol = splat_atoms(model, cfg)
    d, h, w = vol.data.shape
    zs = vol.origin[2] + np.arange(d) * cfg.voxel_size
    ys = vol.origin[1] + np.arange(h) * cfg.voxel_size
    xs = vol.origin[0] + np.arange(w) * cfg.voxel_size
    sigma, cutoff = 0.35, 4.0 * 0.35
    expected = np.zeros((d, h, w))
    for atom in model.atoms:
        ax, ay, az = atom.position
        r2 = (
            (zs[:, None, None] - az) ** 2
            + (ys[None, :, None] - ay) ** 2
            + (xs[None, None, :] - ax) ** 2
        )
        expected += np.where(r2 <= cutoff**2, 6.0 * np.exp(-r2 / (2 * sigma**2)), 0.0)
    assert np.abs(vol.data - expected).max() < 1e-6


def test_lowpass_matches_direct_space_oracle(rng):
    grid = rng.random((12, 12, 12))
    sigma = 1.5
    got = _lowpass_gaussian_fft(grid, sigma)
    want = ndimage.gaussian_filter(grid, sigma, mode="constant", truncate=8.0)
    assert np.abs(got - want).max() < 1e-4


def test_splat_monotone_in_atoms():
    cfg = DensifyConfig(voxel_size=1.0)
    one = parse_pdb(_atom_line(1, 0, 0, 0))
    two = parse_pdb(_atom_line(1, 0, 0, 0) + "\n" + _atom_line(2, 1.0, 0.5, 0.0))
    v1 = splat_atoms(one, cfg)
    v2 = splat_atoms(two, cfg)
    # grid extents differ, so compare total mass, which adding an atom must raise
    assert v2.data.sum() > v1.data.sum()


def test_heavier_element_broader_response():
    cfg = DensifyConfig(voxel_size=0.05, target_resolution=0.0)

    def fwhm(element):
        vol = densify(parse_pdb(_atom_line(1, 0, 0, 0, element=element)), cfg)
        profile = vol.data.max(axis=(0, 1))
        return np.count_nonzero(profile >= 0.5)

    assert fwhm("S") > fwhm("C") > fwhm("H")


def test_coincident_atoms_succeed():
    text = _atom_line(1, 0, 0, 0) + "\n" + _atom_line(2, 0, 0, 0)
    vol = densify(parse_pdb(text), DensifyConfig(voxel_size=1.0))
    assert vol.data.max() == pytest.approx(1.0)


def test_config_rejects_zero_amplitude():
    with pytest.raises(ConfigError):
        DensifyConfig(element_amplitude={"C": 0})


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        DensifyConfig(voxel_size=0.0)
    with pytest.raises(ConfigError):
        DensifyConfig(peak_threshold_fraction=1.0)


@pytest.mark.parametrize("sigma", [0.0, -0.33, float("nan"), float("inf")])
def test_config_rejects_bad_element_sigma(sigma):
    with pytest.raises(ConfigError, match="'N'"):
        DensifyConfig(element_sigma={"C": 0.35, "N": sigma})


def reference_splat_atoms(model, cfg):
    """The per-atom loop ``splat_atoms`` replaced: each atom's Gaussian,
    zeroed past the cutoff, added to its voxel window in atom order."""
    positions = model.positions()
    max_vdw = max(VDW_RADIUS.get(a.element, DEFAULT_VDW) for a in model.atoms)
    margin = cfg.solvent_margin_factor * max_vdw
    lo = positions.min(axis=0) - margin
    hi = positions.max(axis=0) + margin
    dims = np.maximum(np.ceil((hi - lo) / cfg.voxel_size).astype(int), 1)
    grid = np.zeros(tuple(dims[::-1]), dtype=np.float64)
    for atom in model.atoms:
        sigma = cfg.sigma_for(atom.element)
        amp = cfg.amplitude_for(atom.element) * atom.occupancy
        cutoff = SPLAT_CUTOFF_SIGMAS * sigma
        pos_vox = (atom.position - lo) / cfg.voxel_size
        r_vox = cutoff / cfg.voxel_size
        lo_idx = np.maximum(np.floor(pos_vox - r_vox).astype(int), 0)
        hi_idx = np.minimum(np.ceil(pos_vox + r_vox).astype(int) + 1, dims)
        if np.any(lo_idx >= hi_idx):
            continue
        xs = (np.arange(lo_idx[0], hi_idx[0]) * cfg.voxel_size + lo[0]) - atom.position[0]
        ys = (np.arange(lo_idx[1], hi_idx[1]) * cfg.voxel_size + lo[1]) - atom.position[1]
        zs = (np.arange(lo_idx[2], hi_idx[2]) * cfg.voxel_size + lo[2]) - atom.position[2]
        r2 = zs[:, None, None] ** 2 + ys[None, :, None] ** 2 + xs[None, None, :] ** 2
        blob = amp * np.exp(-r2 / (2.0 * sigma * sigma))
        blob[r2 > cutoff * cutoff] = 0.0
        grid[lo_idx[2] : hi_idx[2], lo_idx[1] : hi_idx[1], lo_idx[0] : hi_idx[0]] += blob
    return grid.astype(np.float32), lo.astype(np.float32)


def _mixed_model(rng, n, voxel_size):
    """Mixed elements (one unknown to the tables) and occupancies; a third
    of the atoms sit on grid nodes of the model's corner atom, and two
    pairs coincide."""
    elements = rng.choice(["C", "N", "O", "H", "S", "P", "Se"], size=n)
    pos = rng.uniform(-12.0, 12.0, size=(n, 3))
    pos[: n // 3] = pos.min(axis=0) + voxel_size * rng.integers(0, 4, size=(n // 3, 3))
    pos[n - 1], pos[n - 2] = pos[0], pos[n // 2]
    occupancy = rng.choice([1.0, 0.5, 0.37, 2.0], size=n)
    return AtomicModel([Atom(str(e), p, float(o)) for e, p, o in zip(elements, pos, occupancy)])


@pytest.mark.parametrize("voxel_size", [0.5, 0.8, 1.0, 2.0, 3.3, 10.0])
@pytest.mark.parametrize("margin", [2.0, 0.0])  # 0: atoms on the grid's faces
def test_splat_identical_to_loop_reference(voxel_size, margin, monkeypatch):
    rng = np.random.default_rng(int(voxel_size * 10) + int(margin))
    cfg = DensifyConfig(voxel_size=voxel_size, solvent_margin_factor=margin)
    for n in (1, 2, 7, 40):
        model = _mixed_model(rng, n, voxel_size)
        grid, origin = reference_splat_atoms(model, cfg)
        vol = splat_atoms(model, cfg)
        assert np.array_equal(vol.origin, origin)
        assert vol.data.tobytes() == grid.tobytes(), (voxel_size, margin, n)
        # one atom per block: the same sums in the same order
        with monkeypatch.context() as m:
            m.setattr(structure, "SPLAT_BYTES", 1)
            assert splat_atoms(model, cfg).data.tobytes() == grid.tobytes()


@pytest.mark.parametrize("budget", [1, 4_000_000])
def test_splat_sums_each_voxel_in_atom_order(budget, monkeypatch):
    # +A and -A cancel exactly only when added before the carbon: in any
    # other order the carbon's density is lost in A's rounding
    monkeypatch.setattr(structure, "SPLAT_BYTES", budget)
    cfg = DensifyConfig(voxel_size=0.5, element_amplitude={"C": 6, "Xp": 1e17, "Xm": -1e17})
    at = np.array([0.1, 0.2, 0.3])
    atoms = [Atom("Xp", at), Atom("Xm", at), Atom("C", at), Atom("C", at + 8.0)]
    got = splat_atoms(AtomicModel(atoms), cfg).data
    assert got.tobytes() == reference_splat_atoms(AtomicModel(atoms), cfg)[0].tobytes()
    carbons = splat_atoms(AtomicModel(atoms[2:]), DensifyConfig(voxel_size=0.5)).data
    assert got.shape == carbons.shape and np.array_equal(got, carbons)


def test_splat_temporaries_stay_within_block_budget(monkeypatch):
    rng = np.random.default_rng(3)
    model = _mixed_model(rng, 2000, 1.0)
    cfg = DensifyConfig(voxel_size=1.0)
    budget = 200_000
    monkeypatch.setattr(structure, "SPLAT_BYTES", budget)
    grid = splat_atoms(model, cfg).data
    tracemalloc.start()
    try:
        splat_atoms(model, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the float64 grid and its float32 copy, per-atom arrays, and one block;
    # (all 2000 windows at once peak at about 9 MB)
    assert peak <= 3 * grid.nbytes + 400 * 2000 + budget
