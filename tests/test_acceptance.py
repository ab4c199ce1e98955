"""Acceptance suite: one test per release criterion.

Run with ``pytest -v tests/test_acceptance.py`` — the verbose listing gives
one PASS/FAIL line per criterion. Each test also prints its measured
values, shown on failure (or with ``-s``). Further tests check the
criterion-10 run against its ground truth, the CLI and the output digests
pinned in ``pipeline_digests.json``, on the same run.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from conftest import (
    PrecomputedEncoder,
    band_limited_image,
    gaussian_blob,
    make_blob_pdb,
    make_shell_pdb,
    rot_z,
    shell_phantom,
    translation_error,
)
from cryoforge import io as cio
from cryoforge.apt import SteerableSelectionNet, verify_equivariance
from cryoforge.cli import main
from cryoforge.geometry import gso_to_matrix, rotation_error, svd_to_matrix
from cryoforge.nrcl import EmbeddingBatch, LossConfig, infonce_loss, nrcl_step, sinkhorn_wasserstein, sym_loss
from cryoforge.pipeline import PipelineConfig, run_pipeline
from cryoforge.recon import ReconConfig, reproject, wbp_reconstruct
from cryoforge.scene import (
    ParticleInstance,
    PlacementConfig,
    compose_sample,
    poisson_disk_sample,
    quat_to_matrix,
    shoemake_quaternion,
)
from cryoforge.subtomo import Rejection, add_noise, signal_variance
from cryoforge.tiltalign import AlignmentResult, align_series, phase_correlate
from cryoforge.tiltsim import TiltGeometry, default_angles, fourier_shift_2d, simulate_tilt_series
from cryoforge.volume import DensityVolume


@pytest.fixture(scope="module")
def equivariance_report():
    """Shared harness run for criteria 1-3: 20 random 32^3 volumes, random
    weights, all 64 shifts with s=(4,4,4) and all 24 octahedral rotations."""
    rng = np.random.default_rng(2024)
    net = SteerableSelectionNet.random(rng)
    return verify_equivariance(net, trials=20, seed=2024, size=32)


def test_criterion_01_translation_equivariant_extraction(equivariance_report):
    t = equivariance_report["translation"]
    print(f"criterion 1: extraction voxel-exact over all shifts = {t['extraction_voxel_exact']}")
    assert t["extraction_voxel_exact"]


def test_criterion_02_selection_probability_shift_permutation(equivariance_report):
    dev = equivariance_report["translation"]["max_probability_deviation"]
    print(f"criterion 2: max probability deviation under shifts = {dev:.3e} (< 1e-5)")
    assert dev < 1e-5


def test_criterion_03_rotation_invariance(equivariance_report):
    r = equivariance_report["rotation"]
    print(
        f"criterion 3: logit dev = {r['max_logit_deviation']:.3e} (< 1e-6), "
        f"prob dev = {r['max_probability_deviation']:.3e} (< 1e-5), "
        f"extraction exact = {r['extraction_voxel_exact']}"
    )
    assert r["max_logit_deviation"] < 1e-6
    assert r["max_probability_deviation"] < 1e-5
    assert r["extraction_voxel_exact"]


def test_criterion_04_noise_calibration():
    rng = np.random.default_rng(7)
    clean = DensityVolume(rng.random((32, 32, 32)).astype(np.float32))
    v_sig = signal_variance(clean)
    for target in (100.0, 0.1, 0.05, 0.03, 0.01):
        pooled = []
        for seed in range(10):
            (noisy,) = add_noise(clean, [target], seed=seed)
            pooled.append((noisy.data.astype(np.float64) - clean.data) ** 2)
        measured = v_sig / np.mean(pooled)
        print(f"criterion 4: target {target:g} -> measured SNR {measured:.4g}")
        assert measured == pytest.approx(target, rel=0.05)


def test_criterion_05_phase_correlation_and_alignment():
    rng = np.random.default_rng(11)
    img = rng.normal(size=(48, 48))
    rolled = np.roll(np.roll(img, -3, axis=0), 5, axis=1)
    assert phase_correlate(img, rolled) == (5.0, -3.0)

    smooth = band_limited_image((64, 64), rng)
    worst = 0.0
    for _ in range(10):
        dx, dy = rng.uniform(-3.0, 3.0, 2)
        ex, ey = phase_correlate(smooth, fourier_shift_2d(smooth, dx, dy))
        worst = max(worst, abs(ex - dx), abs(ey - dy))
    print(f"criterion 5: worst sub-pixel recovery error = {worst:.4f} px (<= 0.1)")
    assert worst <= 0.1

    geom = TiltGeometry(angles=default_angles(-60, 60, 3), shift_range=1.0)
    series = simulate_tilt_series(shell_phantom(48), geom, seed=5)
    result = align_series(series)
    applied = np.asarray(series.applied_shifts)
    applied -= applied.mean(axis=0)  # common drift of all views is unobservable
    residual = np.abs(np.asarray(result.shifts) - applied).max()
    print(f"criterion 5: worst per-view alignment residual = {residual:.4f} px (<= 0.1)")
    assert residual <= 0.1


def test_criterion_06_wbp_fidelity_and_missing_wedge():
    n = 64
    rng = np.random.default_rng(3)
    data = np.zeros((n, n, n))
    for _ in range(5):
        data += gaussian_blob((n, n, n), rng.uniform(0.35 * n, 0.65 * n, 3), rng.uniform(3.0, 5.0))
    vol = DensityVolume(data.astype(np.float32))
    inner = (slice(4, -4),) * 3
    truth = vol.data[inner].ravel().astype(np.float64)

    def reconstruct(angles):
        geom = TiltGeometry(angles=angles, shift_range=0.0)
        series = simulate_tilt_series(vol, geom)
        shifts = [(0.0, 0.0)] * len(angles)
        tomo = wbp_reconstruct(series, shifts, ReconConfig(output_dims=(n, n, n)))
        return float(np.corrcoef(tomo.data[inner].ravel(), truth)[0, 1])

    corr_full = reconstruct(default_angles(-90, 90, 2))
    corr_wedge = reconstruct(default_angles(-60, 60, 2))
    print(f"criterion 6: full-range corr = {corr_full:.4f} (>= 0.90), "
          f"missing-wedge corr = {corr_wedge:.4f} (>= 0.70, strictly lower)")
    assert corr_full >= 0.90
    assert corr_wedge >= 0.70
    assert corr_wedge < corr_full


def test_criterion_07_rotation_representations():
    rng = np.random.default_rng(17)
    N = 100_000
    R6 = gso_to_matrix(rng.normal(size=(N, 3)), rng.normal(size=(N, 3)))
    R9 = svd_to_matrix(rng.normal(size=(N, 3, 3)))
    for name, R in (("six-vector", R6), ("nine-matrix", R9)):
        ortho = np.abs(np.einsum("nij,nik->njk", R, R) - np.eye(3)).max()
        det = np.abs(np.linalg.det(R) - 1.0).max()
        print(f"criterion 7: {name} ortho dev {ortho:.2e}, det dev {det:.2e} (< 1e-9)")
        assert ortho < 1e-9 and det < 1e-9
    idem = np.abs(svd_to_matrix(R9[:1000]) - R9[:1000]).max()
    assert idem < 1e-9

    base = R6[0]
    for theta in rng.uniform(1e-3, np.pi - 1e-3, size=200):
        err = rotation_error(rot_z(theta) @ base, base)
        assert abs(err - np.degrees(theta)) < 1e-9
    assert translation_error([3.0, 4.0, 0.0], [0.0, 0.0, 0.0]) == 5.0


def test_criterion_08_contrastive_losses():
    e = np.eye(4)
    cfg1 = LossConfig(temperature=1.0)
    hand = infonce_loss(
        EmbeddingBatch(e[:1]), EmbeddingBatch(e[:1]), EmbeddingBatch(e[1:2]), cfg1
    )
    assert abs(hand - np.log(1.0 + np.exp(-1.0))) < 1e-9
    z2 = EmbeddingBatch(e[:2])
    assert infonce_loss(z2, z2, z2, cfg1) == np.log(2.0)

    rng = np.random.default_rng(23)
    B = 4
    v = rng.normal(size=(B, 5))
    z = EmbeddingBatch(v / np.linalg.norm(v, axis=1, keepdims=True))
    w = rng.normal(size=(B, 5))
    z_pos = EmbeddingBatch(w / np.linalg.norm(w, axis=1, keepdims=True))
    # at eps=0.001 a cold start needs ~250k iterations to reach 1e-6; epsilon-scaling ~50
    cost, plan = sinkhorn_wasserstein(
        z, z_pos, LossConfig(sinkhorn_epsilon=0.001, sinkhorn_max_iter=400_000)
    )
    assert plan.converged
    assert plan.marginal_violation() < 1e-6
    C = np.sum((z.vectors[:, None] - z_pos.vectors[None]) ** 2, axis=2)
    lp = min(
        sum(C[i, p[i]] for i in range(B)) / B for p in itertools.permutations(range(B))
    )
    print(f"criterion 8: sinkhorn cost {cost:.6f} vs LP oracle {lp:.6f}")
    assert abs(cost - lp) < 1e-3

    cfg_small_c = LossConfig(temperature=0.1, rince_c=1e-4)
    sims = z.vectors @ z_pos.vectors.T / 0.1
    m = sims.max(axis=1, keepdims=True)
    infonce_ref = float(
        np.mean(-np.diag(sims) + (m + np.log(np.exp(sims - m).sum(axis=1, keepdims=True))).squeeze(1))
    )
    assert abs(sym_loss(z, z_pos, cfg_small_c) - infonce_ref) < 1e-3

    from cryoforge.geometry import RigidTransform

    X = rng.normal(size=(B, 4, 4, 4))
    identity = [RigidTransform() for _ in range(B)]
    total, breakdown = nrcl_step(
        X, X, X, identity, identity,
        PrecomputedEncoder(z), PrecomputedEncoder(z_pos), LossConfig(),
    )
    parts = (
        breakdown["sym_q1_k2"] + breakdown["sym_q2_k1"]
        + breakdown["wass_q1_k2"] + breakdown["wass_q2_k1"] + breakdown["noise"]
    )
    assert abs(total - parts) < 1e-12


def test_criterion_09_placement_and_orientations():
    rng = np.random.default_rng(31)
    violations = 0
    for run in range(1000):
        dims = tuple(int(d) for d in rng.integers(44, 90, size=3))
        cfg = PlacementConfig(
            volume_dims=dims,
            target_count=int(rng.integers(1, 8)),
            max_attempts=200,
            seed=int(rng.integers(0, 2**31)),
        )
        centers = poisson_disk_sample(cfg)
        pts = np.stack(centers) if centers else np.zeros((0, 3))
        for i in range(len(pts)):
            if np.any(pts[i] < 19.0) or np.any(pts[i] > np.array(dims) - 19.0):
                violations += 1
            for j in range(i + 1, len(pts)):
                if np.linalg.norm(pts[i] - pts[j]) < 19.0:
                    violations += 1
    print(f"criterion 9: exclusion/boundary violations over 1000 runs = {violations}")
    assert violations == 0

    draws = 50_000
    quats = np.stack([shoemake_quaternion(rng) for _ in range(draws)])
    assert np.abs(np.linalg.norm(quats, axis=1) - 1.0).max() < 1e-9
    mats = np.stack([quat_to_matrix(q) for q in quats])
    entry_means = mats.mean(axis=0)
    # each entry of a uniform rotation matrix has mean 0 and variance 1/3
    limit = 3.0 * np.sqrt(1.0 / 3.0 / draws)
    print(f"criterion 9: max |entry mean| = {np.abs(entry_means).max():.5f} (3 SE = {limit:.5f})")
    assert np.abs(entry_means).max() < limit


PIPELINE_DIMS = (46, 360, 46)  # the pipeline_runs sample's (D, H, W)


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    """Desk-scale two-class pipeline, run twice with the same seed.

    The scene is a thin column with particles spread along the tilt axis,
    where mean-reference drift alignment is well conditioned.
    """
    root = tmp_path_factory.mktemp("pipeline")
    rng = np.random.default_rng(101)
    blob = root / "blob.pdb"
    shell = root / "shell.pdb"
    blob.write_text(make_blob_pdb(rng))
    shell.write_text(make_shell_pdb(rng))

    def config(out):
        return PipelineConfig.from_dict(
            {
                "structures": {"blob": str(blob), "shell": str(shell)},
                "output_dir": str(out),
                "seed": 11,
                "particles_per_class": 5,
                "snr_targets": [100.0],
                "placement": {"volume_dims": list(PIPELINE_DIMS)},
                "tilt": {"shift_range": 1.0},
            }
        )

    first = run_pipeline(config(root / "run1"))
    second = run_pipeline(config(root / "run2"))
    return first, second


def test_criterion_10_pipeline_classification_and_determinism(pipeline_runs):
    first, second = pipeline_runs
    assert first.placed == 10
    assert first.accepted + len(first.rejections) == 10

    records = [
        r for r in cio.read_metadata(first.metadata_path) if r.snr_tag == "clean"
    ]
    volumes, labels = [], []
    for rec in records:
        vol = cio.read_mrc(first.output_dir / rec.volume_path)
        v = vol.data.astype(np.float64).ravel()
        volumes.append((v - v.mean()) / (v.std() + 1e-12))
        labels.append(rec.class_label)
    volumes = np.stack(volumes)
    labels = np.array(labels)
    classes = sorted(set(labels))
    centroids = np.stack([volumes[labels == c].mean(axis=0) for c in classes])
    scores = volumes @ centroids.T  # correlation against each class centroid
    predicted = np.array(classes)[np.argmax(scores, axis=1)]
    accuracy = float(np.mean(predicted == labels))
    print(f"criterion 10: {len(records)} clean subtomograms, "
          f"nearest-centroid accuracy = {accuracy:.2f} (>= 0.90)")
    assert accuracy >= 0.90

    meta1 = first.metadata_path.read_bytes()
    meta2 = second.metadata_path.read_bytes()
    assert meta1 == meta2  # same seed: byte-identical ground truth


def test_pipeline_subtomograms_match_the_composed_sample(pipeline_runs):
    # ground truth at the product: each clean box against the same box of the
    # composed sample, as the extract row of provenance.ndjson reports it
    first, _ = pipeline_runs
    rows = {r["stage"]: r for r in cio.read_ndjson(first.output_dir / "provenance.ndjson")}
    extract_row = rows["extract"]
    print(f"subtomogram correlation with the sample: median "
          f"{extract_row['subtomo_corr_median']:.3f}, min {extract_row['subtomo_corr_min']:.3f} "
          f"(median >= 0.7); compose mass ratio {rows['compose']['mass_ratio']:.3f}")
    assert extract_row["subtomo_corr_median"] >= 0.7


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the mean-reference aligner reads parallax as drift, so it leaves this scene worse "
    "than no correction (0.973 px against 0.600 px); projection matching, ROADMAP item 2b, mends it",
)
def test_pipeline_alignment_is_no_worse_than_no_correction(pipeline_runs):
    first, _ = pipeline_runs
    _assert_alignment_is_no_worse_than_no_correction(first.output_dir)


def _assert_alignment_is_no_worse_than_no_correction(out):
    # a stage that makes its output worse than doing nothing is a bug
    rows = {r["stage"]: r for r in cio.read_ndjson(out / "provenance.ndjson")}
    align_row = rows["align"]
    print(f"alignment x RMS {align_row['align_rms_x_px']:.3f} px, "
          f"uncorrected {align_row['uncorrected_rms_x_px']:.3f} px")
    assert align_row["align_rms_x_px"] <= align_row["uncorrected_rms_x_px"]


@pytest.fixture(scope="module")
def wide_run(tmp_path_factory):
    """A wide slab (the benchmark's slab_j2 scene): 64x192x128 voxels, 13
    tilts, 8 particles per class, seed 1. Unlike the thin column of
    ``pipeline_runs``, it fails alignment as the default config does."""
    root = tmp_path_factory.mktemp("wide")
    rng = np.random.default_rng(1)
    structures = {}
    for label, recipe in (("blob", make_blob_pdb), ("shell", make_shell_pdb)):
        (root / f"{label}.pdb").write_text(recipe(rng))
        structures[label] = str(root / f"{label}.pdb")
    return run_pipeline(
        PipelineConfig.from_dict(
            {
                "structures": structures,
                "output_dir": str(root / "run"),
                "seed": 1,
                "jobs": 2,
                "particles_per_class": 8,
                "snr_targets": [100.0],
                "placement": {"volume_dims": [64, 192, 128]},
                "tilt": {"angles": default_angles(-60, 60, 10), "shift_range": 1.0},
            }
        )
    )


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the mean-reference aligner reads parallax as drift; on a wide slab it leaves the "
    "views far worse than no correction (7.661 px against 0.458 px); projection matching, "
    "ROADMAP item 2b, mends it",
)
def test_wide_scene_alignment_is_no_worse_than_no_correction(wide_run):
    _assert_alignment_is_no_worse_than_no_correction(wide_run.output_dir)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="SeedSequence drops trailing zero words, so placement's stream (seed) is view 0's "
    "drift stream (seed, 0): the drift repeats the uniforms that placed instance 0 (ROADMAP "
    "item 18)",
)
def test_view_drift_is_not_drawn_from_the_placement_stream(pipeline_runs):
    # instance 0 is placed at r + u (dims - 2r) by placement's first three
    # uniforms u, and view 0 drifts by shift_range (2v - 1) for the first two
    # uniforms v of its own stream; distinct streams make v unrelated to u
    first, _ = pipeline_runs
    instance = cio.read_ndjson(first.output_dir / "instances.ndjson", ParticleInstance)[0]
    view = cio.read_ndjson(first.output_dir / "tilt_series" / "angles.ndjson", cio.TiltRow)[0]
    r = PlacementConfig().exclusion_radius
    u = (instance.center - r) / (np.array(PIPELINE_DIMS) - 2 * r)
    shared = 1.0 * (2 * u - 1)[:2]  # the fixture's shift_range is 1.0
    print(f"view 0 drift {view.applied_shift}, placement's uniforms as a drift {shared}")
    assert not np.allclose(view.applied_shift, shared, rtol=0, atol=1e-9)


def test_pipeline_sample_projects_alike_through_both_projectors(pipeline_runs):
    # the spline projector and the back-projector's transpose share one
    # geometry: linear interpolation and the cubic B-spline interpolant both
    # reproduce constants and linear functions exactly, so each view's sum
    # and its centroids in x and h agree, whatever else the kernels smooth
    first, _ = pipeline_runs
    out = first.output_dir
    densities = {path.stem: cio.read_mrc(path) for path in (out / "densities").glob("*.mrc")}
    instances = cio.read_ndjson(out / "instances.ndjson", ParticleInstance)
    sample = compose_sample(densities, instances, PlacementConfig(volume_dims=PIPELINE_DIMS))
    angles = default_angles()
    spline = simulate_tilt_series(sample, TiltGeometry(angles=angles, shift_range=0.0)).projections
    linear = reproject(sample, angles)
    h, x = np.arange(sample.shape[1]), np.arange(sample.shape[2])
    for a, b in zip(spline.astype(np.float64), linear):
        assert abs(b.sum() / a.sum() - 1.0) <= 1e-5
        assert abs(h @ b.sum(1) / b.sum() - h @ a.sum(1) / a.sum()) <= 1e-3
        assert abs(x @ b.sum(0) / b.sum() - x @ a.sum(0) / a.sum()) <= 1e-3


def test_pipeline_outputs_match_their_pinned_digests(pipeline_runs):
    # every file but provenance.ndjson, against tests/pipeline_digests.json;
    # a change that moves an output on purpose updates the pin
    first, _ = pipeline_runs
    pinned = json.loads(Path(__file__).with_name("pipeline_digests.json").read_text())
    versions = {"numpy": np.__version__, "scipy": scipy.__version__}
    assert versions == pinned["versions"], (
        f"digests pinned with {pinned['versions']}, running {versions}"
    )
    out = first.output_dir
    found = {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in out.rglob("*")
        if path.is_file() and path.name != "provenance.ndjson"
    }
    expected = pinned["sha256"]
    moved = {
        name: (expected.get(name), found.get(name))
        for name in sorted(expected.keys() | found.keys())
        if expected.get(name) != found.get(name)
    }
    assert not moved, f"{len(moved)} outputs moved (pinned, found): {moved}"


@pytest.mark.parametrize(
    "name, cls",
    [
        ("instances.ndjson", ParticleInstance),
        ("tilt_series/angles.ndjson", cio.TiltRow),
        ("alignment.ndjson", AlignmentResult),
        ("metadata.ndjson", cio.SubtomogramRecord),
        ("rejections.ndjson", Rejection),
    ],
)
def test_pipeline_ndjson_round_trips_through_its_dataclass(pipeline_runs, tmp_path, name, cls):
    # each artifact row is its dataclass's fields: read into it and written
    # back, every file is the same bytes (this run rejects no particle, so
    # its rejections file is empty)
    first, _ = pipeline_runs
    path = first.output_dir / name
    rows = cio.read_ndjson(path, cls)
    assert all(isinstance(row, cls) for row in rows)
    cio.write_ndjson(rows, tmp_path / "back.ndjson")
    assert (tmp_path / "back.ndjson").read_bytes() == path.read_bytes()


def test_cli_densify_reproduces_the_pipeline_densities(pipeline_runs, tmp_path):
    first, _ = pipeline_runs
    for label in ("blob", "shell"):
        out = tmp_path / f"{label}.mrc"
        pdb = first.output_dir.parent / f"{label}.pdb"
        assert main(["densify", "--pdb", str(pdb), "--out", str(out)]) == 0
        assert out.read_bytes() == (first.output_dir / "densities" / f"{label}.mrc").read_bytes()


def test_criterion_11_io_round_trips(tmp_path):
    rng = np.random.default_rng(41)
    shapes = [(200, 500, 500)] + [
        tuple(int(d) for d in rng.integers(4, 48, size=3)) for _ in range(9)
    ]
    for i, shape in enumerate(shapes):
        vol = DensityVolume(
            rng.normal(size=shape).astype(np.float32), voxel_size=float(rng.uniform(1, 12))
        )
        path = tmp_path / f"{i}.mrc"
        cio.write_mrc(vol, path)
        back = cio.read_mrc(path)
        assert np.array_equal(back.data, vol.data)  # bit-exact payload
        assert back.voxel_size == pytest.approx(vol.voxel_size, rel=1e-6)
    print(f"criterion 11: {len(shapes)} volumes round-tripped bit-exactly")

    records = []
    for i in range(200):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        records.append(
            cio.SubtomogramRecord(
                volume_path=f"{i}.mrc",
                class_label="shell",
                center_offset=tuple(rng.integers(-2, 3, size=3).astype(float)),
                orientation=tuple(q),
                snr_tag="0.05",
                mask_path=None,
            )
        )
    meta = tmp_path / "meta.ndjson"
    cio.write_ndjson(records, meta)
    assert cio.read_metadata(meta) == records
