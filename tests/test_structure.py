import re
import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from scipy.special import ndtr

from cryoforge.structure import (
    DEFAULT_VDW,
    VDW_RADIUS,
    AtomicModel,
    DensifyConfig,
    densify,
    parse_pdb,
    splat_atoms,
)

SINGLE_CARBON = "ATOM      1  CA  ALA A   1       1.000   2.000   3.000  1.00  0.00           C\n"


def _atom_line(serial, x, y, z, element="C", res="ALA", occupancy=1.0):
    return (
        f"ATOM  {serial:5d}  CA  {res} A{serial:4d}    "
        f"{x:8.3f}{y:8.3f}{z:8.3f}{occupancy:6.2f}  0.00           {element}"
    )


def test_parse_single_atom():
    model = parse_pdb(SINGLE_CARBON)
    assert len(model.positions) == 1
    assert model.elements[0] == "C"
    assert np.allclose(model.positions[0], [1.0, 2.0, 3.0])
    assert model.occupancy[0] == 1.0


def test_parse_honors_first_model_only():
    block1 = "\n".join(_atom_line(i, i, 0, 0) for i in range(1, 11))
    block2 = "\n".join(_atom_line(i, 0, i, 0) for i in range(1, 11))
    text = f"MODEL     1\n{block1}\nENDMDL\nMODEL     2\n{block2}\nENDMDL\n"
    model = parse_pdb(text)
    assert len(model.positions) == 10
    assert model.positions[0, 0] == 1.0  # from the first block


def test_parse_skips_water():
    text = _atom_line(1, 0, 0, 0) + "\n" + _atom_line(2, 5, 0, 0, element="O", res="HOH")
    assert len(parse_pdb(text).positions) == 1


def test_parse_empty_raises():
    with pytest.raises(ValueError, match="^no atoms: the model holds no ATOM/HETATM records$"):
        parse_pdb("REMARK nothing here\n")


def test_parse_bad_coordinate_reports_line():
    # a NaN occupancy used to parse and fail later in densify, and a negative
    # one subtracted mass; both, and non-finite coordinates, name their line
    for bad, reason in [
        ("ATOM      2  CA  ALA A   2      bad bad bad", "unparseable coordinate field"),
        (_atom_line(2, float("nan"), 0, 0), "coordinates must be finite"),
        (_atom_line(2, 0, float("inf"), 0), "coordinates must be finite"),
        (_atom_line(2, 0, 0, float("-inf")), "coordinates must be finite"),
        (_atom_line(2, 0, 0, 0, occupancy=float("nan")), "occupancy nan must be finite and >= 0"),
        (_atom_line(2, 0, 0, 0, occupancy=float("inf")), "occupancy inf must be finite and >= 0"),
        (_atom_line(2, 0, 0, 0, occupancy=-0.5), "occupancy -0.5 must be finite and >= 0"),
    ]:
        text = _atom_line(1, 0, 0, 0) + "\n" + bad + "\n" + _atom_line(3, 1, 0, 0)
        with pytest.raises(ValueError, match=f"^line 2: {re.escape(reason)}$"):
            parse_pdb(text)


def test_parse_element_fallback_from_atom_name():
    # short line without the element columns: fall back on the atom name
    line = "ATOM      1  N   ALA A   1       0.000   0.000   0.000  1.00  0.00"
    assert parse_pdb(line).elements[0] == "N"


def test_parse_blank_occupancy_defaults_to_one():
    line = "ATOM      1  CA  ALA A   1       0.000   0.000   0.000"
    assert parse_pdb(line).occupancy[0] == 1.0


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
    # two carbons; each voxel is the mean of the blurred Gaussians over its
    # cell, integrated directly in 3-D by Gauss-Legendre quadrature
    text = _atom_line(1, 0.0, 0.0, 0.0) + "\n" + _atom_line(2, 2.0, 0.5, -1.0)
    model = parse_pdb(text)
    nodes, weights = np.polynomial.legendre.leggauss(12)  # on [-1, 1], weights sum to 2
    w3 = (weights[:, None, None] * weights[:, None] * weights / 8)[None, :, None, :, None, :]
    sigma = 0.35
    for resolution in (0.0, 2.0):
        cfg = DensifyConfig(voxel_size=1.0, target_resolution=resolution)
        vol = splat_atoms(model, cfg)
        sigma_t = np.sqrt(sigma**2 + (resolution / 2) ** 2)
        peak = 6.0 * (sigma / sigma_t) ** 3  # the blurred Gaussian keeps the atom's mass
        # per axis: (cells, nodes) coordinates of the quadrature points
        z, y, x = (
            vol.origin[a] + (np.arange(n)[:, None] + nodes / 2) * cfg.voxel_size
            for a, n in zip((2, 1, 0), vol.shape)
        )
        expected = np.zeros(vol.shape)
        for ax, ay, az in model.positions:
            r2 = (
                (z[:, :, None, None, None, None] - az) ** 2
                + (y[None, None, :, :, None, None] - ay) ** 2
                + (x[None, None, None, None, :, :] - ax) ** 2
            )
            expected += (peak * np.exp(-r2 / (2 * sigma_t**2)) * w3).sum(axis=(1, 3, 5))
        assert np.abs(vol.data - expected).max() < 1e-6 * expected.max(), resolution


@pytest.mark.xfail(
    strict=True,
    reason="the grid's margin (solvent_margin_factor times the largest vdW radius, 3.4 A) "
    "is smaller than the 15 A blur of target_resolution 30, so the map crops each "
    "atom's blurred Gaussian and keeps about 85% of the mass; see the FOUND line on "
    "the densify grid in CHANGES.md",
)
def test_splat_conserves_atom_mass():
    # each atom integrates to amp * (2 pi sigma^2)^(3/2); the map's summed
    # density times the voxel volume should hold the total
    cfg = DensifyConfig()
    sigma, amp = cfg.sigma_for("C"), cfg.amplitude_for("C")
    ratios = []
    for seed in range(5):
        positions = np.random.default_rng(seed).uniform(0.0, 150.0, size=(900, 3))
        model = AtomicModel(positions, ["C"] * len(positions), np.ones(len(positions)))
        vol = splat_atoms(model, cfg)
        mass = vol.data.sum(dtype=np.float64) * cfg.voxel_size**3
        ratios.append(mass / (len(positions) * amp * (2 * np.pi * sigma**2) ** 1.5))
    assert ratios == pytest.approx([1.0] * 5, rel=0.05)


# voxel i's cell ends (i + 1/2) voxels past the origin, so the last cell can end
# up to half a voxel short of the margin; these margins hold the blur regardless
@pytest.mark.parametrize(
    "voxel_size, resolution, margin",
    [(10.0, 0.0, 5.0), (0.5, 0.0, 2.0), (3.3, 8.0, 15.0)],
)
def test_splat_conserves_mass_when_the_grid_holds_the_blur(voxel_size, resolution, margin):
    model = _mixed_model(np.random.default_rng(7), 40, voxel_size)
    cfg = DensifyConfig(
        voxel_size=voxel_size, target_resolution=resolution, solvent_margin_factor=margin
    )
    vol = splat_atoms(model, cfg)
    atoms = sum(
        cfg.amplitude_for(e) * o * (2 * np.pi * cfg.sigma_for(e) ** 2) ** 1.5
        for e, o in zip(model.elements, model.occupancy)
    )
    mass = vol.data.sum(dtype=np.float64) * voxel_size**3
    assert mass == pytest.approx(atoms, rel=1e-6)


def test_lowpass_matches_direct_space_oracle():
    # the closed-form blur equals filtering the unblurred map in direct space;
    # 0.25 A voxels sample the unblurred atom (sigma 0.35 A) without aliasing,
    # and the 6.8 A margin holds the filter's 0.75 A sigma
    model = parse_pdb(_atom_line(1, 0.3, -0.2, 0.1))
    sharp = DensifyConfig(voxel_size=0.25, target_resolution=0.0, solvent_margin_factor=4.0)
    blurred = DensifyConfig(voxel_size=0.25, target_resolution=1.5, solvent_margin_factor=4.0)
    got = splat_atoms(model, blurred).data
    want = ndimage.gaussian_filter(
        splat_atoms(model, sharp).data.astype(np.float64), 3.0, mode="constant", truncate=8.0
    )
    assert np.abs(got - want).max() <= 1e-6 * got.max()


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


def test_config_rejects_bad_values():
    with pytest.raises(ValueError, match="voxel_size"):
        DensifyConfig(voxel_size=0.0)
    with pytest.raises(ValueError, match="peak_threshold_fraction"):
        DensifyConfig(peak_threshold_fraction=1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("voxel_size", float("inf")),
        ("voxel_size", float("nan")),
        ("target_resolution", float("nan")),
        ("target_resolution", float("inf")),
        ("target_resolution", -1.0),
        ("solvent_margin_factor", float("nan")),
        ("solvent_margin_factor", float("inf")),
        ("solvent_margin_factor", -1.0),
    ],
)
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=field):
        DensifyConfig(**{field: value})


def reference_splat_atoms(model, cfg):
    """The closed form as a per-atom loop: each atom's mass, blurred to
    sigma_t, is spread over the whole grid by the product of its per-axis
    cell fractions (normal-CDF differences) and added in atom order."""
    positions = model.positions
    max_vdw = max(VDW_RADIUS.get(e, DEFAULT_VDW) for e in model.elements)
    margin = cfg.solvent_margin_factor * max_vdw
    lo = positions.min(axis=0) - margin
    hi = positions.max(axis=0) + margin
    dims = np.maximum(np.ceil((hi - lo) / cfg.voxel_size).astype(int), 1)
    grid = np.zeros(tuple(dims[::-1]), dtype=np.float64)
    for element, position, occupancy in zip(model.elements, positions, model.occupancy):
        sigma = cfg.sigma_for(element)
        mass = cfg.amplitude_for(element) * occupancy * (2 * np.pi * sigma**2) ** 1.5
        sigma_t = np.sqrt(sigma**2 + (cfg.target_resolution / 2) ** 2)
        fx, fy, fz = (
            np.diff(ndtr((lo[a] + (np.arange(n + 1) - 0.5) * cfg.voxel_size - position[a])
                         / sigma_t))
            for a, n in enumerate(dims)
        )
        grid += mass / cfg.voxel_size**3 * fz[:, None, None] * fy[None, :, None] * fx
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
    return AtomicModel(pos, elements, occupancy)


@pytest.mark.parametrize("voxel_size", [0.5, 0.8, 1.0, 2.0, 3.3, 10.0])
@pytest.mark.parametrize("margin", [2.0, 0.0])  # 0: atoms on the grid's faces
def test_splat_identical_to_loop_reference(voxel_size, margin):
    rng = np.random.default_rng(int(voxel_size * 10) + int(margin))
    cfg = DensifyConfig(voxel_size=voxel_size, solvent_margin_factor=margin)
    for n in (1, 2, 7, 40):
        model = _mixed_model(rng, n, voxel_size)
        grid, origin = reference_splat_atoms(model, cfg)
        vol = splat_atoms(model, cfg)
        assert np.array_equal(vol.origin, origin)
        assert vol.shape == grid.shape
        assert np.abs(vol.data - grid).max() <= 1e-6 * grid.max(), (voxel_size, margin, n)


def test_splat_forms_no_atoms_by_plane_temporary():
    rng = np.random.default_rng(3)
    model = _mixed_model(rng, 2000, 1.0)
    cfg = DensifyConfig(voxel_size=1.0)
    grid = splat_atoms(model, cfg).data
    tracemalloc.start()
    try:
        splat_atoms(model, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    atoms, (d, h, w) = len(model.positions), grid.shape
    # the float32 grid, per-atom arrays and a few (atoms, n + 1) float64
    # factor matrices; one (atoms, H, W) float64 temporary alone is 8.4 MB
    assert peak <= grid.nbytes + 8 * atoms * (40 + 6 * (max(d, h, w) + 1))
    assert peak < 8 * atoms * h * w / 2
