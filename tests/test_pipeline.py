import dataclasses
import json

import numpy as np
import pytest

from conftest import make_blob_pdb
from cryoforge import io as cio
from cryoforge.scene import compose_sample, place_particles
from cryoforge.pipeline import (
    PipelineConfig,
    PipelineConfigError,
    StageError,
    run_pipeline,
    snr_tag,
)


def test_snr_tag_formatting():
    assert snr_tag(100.0) == "100"
    assert snr_tag(0.05) == "0.05"
    assert snr_tag(0.1) == "0.1"


def _raw_config(tmp_path, **overrides):
    pdb = tmp_path / "a.pdb"
    pdb.write_text("ATOM      1  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C\n")
    raw = {
        "structures": {"a": str(pdb)},
        "output_dir": str(tmp_path / "out"),
        "seed": 3,
        "placement": {"volume_dims": [40, 40, 40]},
    }
    raw.update(overrides)
    return raw


def test_config_from_dict_and_json(tmp_path):
    raw = _raw_config(tmp_path)
    cfg = PipelineConfig.from_dict(raw)
    assert cfg.placement.volume_dims == (40, 40, 40)
    assert cfg.seed == 3
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert PipelineConfig.from_json(path).config_hash() == cfg.config_hash()


def test_config_hash_tracks_content(tmp_path):
    a = PipelineConfig.from_dict(_raw_config(tmp_path))
    b = PipelineConfig.from_dict(_raw_config(tmp_path, seed=4))
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == PipelineConfig.from_dict(_raw_config(tmp_path)).config_hash()


def test_config_validation(tmp_path):
    with pytest.raises(PipelineConfigError):
        PipelineConfig.from_dict(_raw_config(tmp_path, structures={}))
    with pytest.raises(PipelineConfigError):
        PipelineConfig.from_dict(_raw_config(tmp_path, particles_per_class=0))
    with pytest.raises(PipelineConfigError):
        PipelineConfig.from_dict(_raw_config(tmp_path, snr_targets=[0.02]))
    with pytest.raises(PipelineConfigError):
        PipelineConfig.from_dict(_raw_config(tmp_path, unknown_key=1))


def test_bad_json_reports_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(PipelineConfigError):
        PipelineConfig.from_json(path)


def test_stage_error_names_failing_stage(tmp_path):
    raw = _raw_config(tmp_path)
    raw["structures"] = {"a": str(tmp_path / "missing.pdb")}
    cfg = PipelineConfig.from_dict(raw)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "densify"
    assert isinstance(err.value.cause, OSError)


def test_provenance_reports_peak_rss_and_jobs(tmp_path):
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(np.random.default_rng(0), radius=60.0, n=400))
    raw = _raw_config(
        tmp_path,
        structures={"blob": str(pdb)},
        jobs=2,
        particles_per_class=2,
        snr_targets=[0.1],
        placement={"volume_dims": [40, 80, 40]},
        tilt={"angles": [-20.0, 0.0, 20.0]},
    )
    result = run_pipeline(PipelineConfig.from_dict(raw))
    rows = cio.read_ndjson(result.output_dir / "provenance.ndjson")
    assert [r["stage"] for r in rows] == [
        "densify", "place", "compose", "project", "align",
        "refine_axis", "reconstruct", "extract", "noise",
    ]
    peaks = [r["peak_rss_mb"] for r in rows]
    assert peaks[0] > 0 and peaks == sorted(peaks)
    assert [(r["stage"], r["jobs"]) for r in rows if "jobs" in r] == [("project", 2)]
    density = cio.read_mrc(result.output_dir / "densities" / "blob.mrc")
    tomogram = cio.read_mrc(result.output_dir / "tomogram.mrc")
    assert tomogram.voxel_size == pytest.approx(density.voxel_size)
    (recon_row,) = [r for r in rows if "output_dims" in r]
    assert recon_row["stage"] == "reconstruct"
    assert recon_row["output_dims"] == [40, 80, 40] == list(tomogram.shape)
    assert recon_row["tomogram_mb"] == pytest.approx(tomogram.data.nbytes / 1e6)


def test_provenance_reports_alignment_and_tomogram_quality(tmp_path):
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(np.random.default_rng(0), radius=60.0, n=400))
    raw = _raw_config(
        tmp_path,
        structures={"blob": str(pdb)},
        particles_per_class=2,
        snr_targets=[0.1],
        placement={"volume_dims": [40, 80, 40]},
        tilt={"angles": [-20.0, -10.0, 0.0, 10.0, 20.0]},
    )
    cfg = PipelineConfig.from_dict(raw)
    result = run_pipeline(cfg)
    out = result.output_dir
    rows = {r["stage"]: r for r in cio.read_ndjson(out / "provenance.ndjson")}

    # alignment error against the applied drift, both anchored to zero mean
    angles = cio.read_ndjson(out / "tilt_series" / "angles.ndjson")
    applied = np.array([r["applied_shift"] for r in angles])
    estimated = np.array(cio.read_ndjson(out / "alignment.ndjson")[0]["shifts"])
    a = applied[:, 0] - applied[:, 0].mean()
    e = estimated[:, 0] - estimated[:, 0].mean()
    align_row = rows["align"]
    assert align_row["align_rms_x_px"] == pytest.approx(np.sqrt(np.mean((e - a) ** 2)), rel=1e-12)
    assert align_row["uncorrected_rms_x_px"] == pytest.approx(np.sqrt(np.mean(a**2)), rel=1e-12)
    assert align_row["uncorrected_rms_x_px"] > 0

    # correlation of the written tomogram with the composed sample, rebuilt
    # from the written densities and the placement the pipeline used
    placement = dataclasses.replace(cfg.placement, seed=cfg.seed, target_count=2)
    densities = {"blob": cio.read_mrc(out / "densities" / "blob.mrc")}
    sample = compose_sample(densities, place_particles(["blob"], placement), placement)
    tomogram = cio.read_mrc(out / "tomogram.mrc")
    expected = np.corrcoef(tomogram.data.ravel(), sample.data.ravel())[0, 1]
    assert rows["reconstruct"]["tomo_corr"] == pytest.approx(expected, abs=1e-9)
    assert 0.0 < rows["reconstruct"]["tomo_corr"] <= 1.0

    # worst realized SNR against its target, from the written subtomograms
    records = cio.read_metadata(out / "metadata.ndjson")
    clean = {
        (r.class_label, r.mask_path): cio.read_mrc(out / r.volume_path).data.astype(np.float64)
        for r in records
        if r.snr_tag == "clean"
    }
    errors = []
    for r in records:
        if r.snr_tag != "clean":
            c = clean[(r.class_label, r.mask_path)]
            noisy = cio.read_mrc(out / r.volume_path).data.astype(np.float64)
            errors.append(abs(np.var(c) / np.var(noisy - c) / float(r.snr_tag) - 1.0))
    assert len(errors) == len(clean) == result.accepted > 0
    assert rows["noise"]["snr_err"] == pytest.approx(max(errors), rel=1e-12)
