import copy
import json
import platform
import re
import time
from pathlib import Path

import numpy as np
import pytest
import scipy

from conftest import make_blob_pdb
from cryoforge import io as cio, pipeline, tiltsim
from cryoforge.cli import main
from cryoforge.recon import MIN_TILTS
from cryoforge.scene import PlacementConfig, compose_sample, place_particles
from cryoforge.subtomo import ExtractionConfig, extract
from cryoforge.tiltsim import TiltGeometry
from cryoforge.pipeline import (
    PipelineConfig,
    StageError,
    _pearson,
    run_pipeline,
    snr_tag,
)
from cryoforge.volume import DensityVolume, centred_sums


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
    by_jobs = {PipelineConfig.from_dict(_raw_config(tmp_path, jobs=j)).config_hash() for j in (1, 2)}
    assert by_jobs == {a.config_hash()}  # jobs is left out


def test_config_hash_is_pinned(tmp_path):
    # sha256 of the sorted-key JSON of every field but jobs, which outputs do
    # not depend on and whose default depends on the machine; the value
    # changed when jobs left the hash, and again when the nested sections
    # began to hold the seeds, target_count and output_dims the run uses, and
    # again when densify.element_sigma, densify.element_amplitude and
    # recon.filter were removed, and again when tilt.seed and extraction.seed
    # were removed, and again when the recon section was removed
    raw = _raw_config(tmp_path, structures={"a": "a.pdb"}, output_dir="out")
    cfg = PipelineConfig.from_dict(raw)
    assert cfg.config_hash() == "9dc5905c8e660e5e33238c5b82916fb4afdc95a7c6e58f3b027860cadb15721d"


def _assert_holds_derived_values(cfg):
    assert cfg.placement.seed == cfg.seed
    assert cfg.placement.target_count == cfg.particles_per_class * len(cfg.structures)


def test_config_holds_the_values_the_stages_run_with(tmp_path):
    raw = _raw_config(tmp_path, particles_per_class=2, structures={"a": "a.pdb", "b": "b.pdb"})
    cfg = PipelineConfig.from_dict(raw)
    _assert_holds_derived_values(cfg)
    assert cfg.placement.target_count == 4

    sections = {
        "placement": PlacementConfig(volume_dims=(40, 60, 50)),
        "tilt": TiltGeometry(angles=[-10.0, 0.0, 10.0]),
        "extraction": ExtractionConfig(),
    }
    before = copy.deepcopy(sections)
    cfg = PipelineConfig(structures={"a": "a.pdb"}, output_dir="out", seed=7, **sections)
    _assert_holds_derived_values(cfg)
    assert cfg.placement.volume_dims == (40, 60, 50) and cfg.tilt.angles == [-10.0, 0.0, 10.0]
    for name, section in sections.items():  # the caller's objects are left as they were
        assert section == before[name]
    assert cfg.placement is not sections["placement"]  # it holds the derived copies


def test_config_from_dict_leaves_its_argument_unchanged(tmp_path):
    raw = _raw_config(tmp_path, snr_targets=[0.1], extraction={"box": 16}, tilt={"oversample": 1})
    before = copy.deepcopy(raw)
    PipelineConfig.from_dict(raw)
    assert raw == before


def test_readme_example_config_builds():
    # the JSON block under "A pipeline config is plain JSON", so a removed
    # key cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("A pipeline config is plain JSON:", 1)[1]
    raw = json.loads(block.split("```json\n", 1)[1].split("```", 1)[0])
    cfg = PipelineConfig.from_dict(raw)
    assert cfg.placement.target_count == cfg.particles_per_class * len(raw["structures"])


def test_config_jobs_defaults_to_the_cli_rule(tmp_path, monkeypatch):
    raw = _raw_config(tmp_path)
    monkeypatch.setattr(tiltsim.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert PipelineConfig.from_dict(raw).jobs == 1  # usable CPUs
    monkeypatch.setattr(tiltsim.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert PipelineConfig.from_dict(raw).jobs == 2  # capped
    monkeypatch.setenv("CRYOFORGE_JOBS", "3")
    assert PipelineConfig.from_dict(raw).jobs == 3  # the variable beats affinity
    assert PipelineConfig.from_dict({**raw, "jobs": 1}).jobs == 1  # the file beats both


@pytest.mark.parametrize(
    "text, named",
    [
        ("[1, 2]", "cfg.json: the top level must be a JSON object"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": "out", "placement": [1]}',
         "placement: must be a JSON object, got [1]"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": "out", "placement": {"volume_dims": 5}}',
         "placement: volume_dims must be three integers D,H,W, got 5"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": "out", '
         '"placement": {"volume_dims": [0, 40, 40]}}',
         "placement: volume_dims must be positive, got (0, 40, 40)"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": "out", "tilt": {"shift_range": -1}}',
         "tilt: shift_range must be finite and >= 0, got -1"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": "out", '
         '"extraction": {"mask_threshold": 2.0}}',
         "extraction: mask_threshold must be in (0, 1], got 2.0"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": "out", '
         '"extraction": {"neighbor_exclusion": NaN}}',
         "extraction: neighbor_exclusion must be finite and positive, got nan"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": "out", '
         '"extraction": {"neighbor_exclusion": Infinity}}',
         "extraction: neighbor_exclusion must be finite and positive, got inf"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": "out", "tilt": {"oversample": 1.5}}',
         "tilt: oversample must be an integer >= 1, got 1.5"),
        ('{"structures": ["a.pdb"], "output_dir": "out"}',
         "structures must map each label to a PDB path string, got ['a.pdb']"),
        ('{"structures": {"a": 5}, "output_dir": "out"}',
         "structures must map each label to a PDB path string, got {'a': 5}"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": 5}', "output_dir must be a string, got 5"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": "out", "snr_targets": 0.1}',
         "snr_targets must be a list, got 0.1"),
        ('{"structures": {"a": "a.pdb"}, "output_dir": "out", "bogus": 1}',
         "unknown field 'bogus'"),
        ('{"output_dir": "out"}', "missing field 'structures'"),
    ],
    ids=["top_level_list", "section_list", "dims_int", "dims_zero", "shift_range_negative",
         "mask_threshold_above_one", "neighbor_exclusion_nan", "neighbor_exclusion_inf",
         "oversample_fractional", "structures_list", "structure_path_int", "output_dir_int",
         "snr_targets_float", "top_level_unknown", "structures_missing"],
)
def test_malformed_config_shape_exits_1(tmp_path, capsys, monkeypatch, text, named):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(text)
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        PipelineConfig.from_json("cfg.json")
    assert main(["--config", "cfg.json", "pipeline"]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_naming_removed_tilt_noise_exits_1(tmp_path, capsys):
    raw = _raw_config(tmp_path, tilt={"noise_sigma": 0.0})
    with pytest.raises(ValueError, match="^tilt: unknown field 'noise_sigma'$"):
        PipelineConfig.from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "pipeline"]) == 1
    assert "noise_sigma" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, name, value, refused",
    [
        ("densify", "element_sigma", {"C": 0.35}, "densify: unknown field 'element_sigma'"),
        ("densify", "element_amplitude", {"C": 6}, "densify: unknown field 'element_amplitude'"),
        # the whole recon section went, so it is refused as an unknown field
        ("recon", "filter", "hann_ramp", "unknown field 'recon'"),
        ("tilt", "seed", 3, "tilt: unknown field 'seed'"),
        ("extraction", "seed", 3, "extraction: unknown field 'seed'"),
    ],
    ids=["densify.element_sigma", "densify.element_amplitude", "recon.filter", "tilt.seed",
         "extraction.seed"],
)
def test_config_naming_removed_key_exits_1(tmp_path, capsys, section, name, value, refused):
    raw = _raw_config(tmp_path, **{section: {name: value}})
    with pytest.raises(ValueError, match=f"^{re.escape(refused)}$"):
        PipelineConfig.from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "pipeline"]) == 1
    assert refused in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("angles", [[], [0.0], [-10.0, 10.0]], ids=["none", "one", "two"])
def test_config_with_too_few_tilt_angles_exits_1(tmp_path, capsys, angles):
    raw = _raw_config(tmp_path, tilt={"angles": angles})
    named = f"tilt.angles must hold at least {MIN_TILTS} angles, got {angles}"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        PipelineConfig.from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "pipeline"]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "section, name, value, named",
    [
        ("placement", "seed", 4, None),
        ("placement", "target_count", 2, None),
        # the recon section, which held output_dims, is gone as a whole
        ("recon", "output_dims", [10, 10, 10], "unknown field 'recon'"),
        # the values the pipeline derives (seed 3, five particles of one structure)
        ("placement", "seed", 3, None),
        ("placement", "target_count", 5, None),
    ],
    ids=["placement-seed-4", "placement-target_count-2", "recon-output_dims-value4",
         "placement-seed-3", "placement-target_count-5"],
)
def test_config_rejects_fields_the_pipeline_overwrites(tmp_path, section, name, value, named):
    raw = _raw_config(tmp_path)
    raw.setdefault(section, {})[name] = value
    named = named or f"{section}.{name} is set by the pipeline; leave it out"
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        PipelineConfig.from_dict(raw)


def test_config_with_ignored_output_dims_exits_1(tmp_path, capsys):
    # the tomogram's dims are placement.volume_dims; the recon section is gone
    raw = _raw_config(tmp_path, recon={"output_dims": [40, 40, 40]})
    with pytest.raises(ValueError, match="^unknown field 'recon'$"):
        PipelineConfig.from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "pipeline"]) == 1
    assert "unknown field 'recon'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "flags, pinned, named",
    [
        # tilt.seed is no longer a field; --seed does not hide it from the checks
        (["--seed", "5"], {"seed": 11, "tilt": {"seed": 11}}, "tilt: unknown field 'seed'"),
        (["--jobs", "0"], {}, "jobs"),
        (["--seed", "5"], {"seed": 11, "placement": {"volume_dims": [40, 40, 40], "seed": 11}},
         "placement.seed"),
    ],
    ids=["flags0-pinned0-tilt.seed", "flags1-pinned1-jobs", "flags2-pinned2-placement.seed"],
)
def test_cli_overrides_pass_the_config_checks(tmp_path, capsys, flags, pinned, named):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_raw_config(tmp_path, **pinned)))
    assert main(["--config", str(path), *flags, "pipeline"]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_seed_overrides_an_unpinned_config(tmp_path):
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(np.random.default_rng(0), radius=60.0, n=400))
    angles = {}
    for name, seed, flags in (("cli", 11, ["--seed", "5"]), ("file", 5, [])):
        raw = _raw_config(
            tmp_path,
            structures={"blob": str(pdb)},
            seed=seed,
            output_dir=str(tmp_path / name),
            particles_per_class=2,
            snr_targets=[0.1],
            placement={"volume_dims": [40, 80, 40]},
            tilt={"angles": [-20.0, 0.0, 20.0]},
        )
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        assert main(["--config", str(path), *flags, "pipeline"]) == 0
        angles[name] = (tmp_path / name / "tilt_series" / "angles.ndjson").read_bytes()
        assert cio.read_ndjson(tmp_path / name / "provenance.ndjson")[0]["seed"] == 5
    assert angles["cli"] == angles["file"]


@pytest.mark.parametrize(
    "label",
    ["", ".", "..", "../../escaped", "a/b", "/abs", "nul\0byte"],
    ids=["empty", "dot", "dotdot", "escaping", "slash", "absolute", "nul"],
)
def test_config_rejects_a_label_that_is_not_one_path_component(tmp_path, capsys, label):
    out = tmp_path / "run" / "out"
    raw = _raw_config(tmp_path, structures={label: str(tmp_path / "a.pdb")}, output_dir=str(out))
    message = f"structure label {label!r} must be one plain path component"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PipelineConfig.from_dict(raw)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "pipeline"]) == 1
    assert repr(label) in capsys.readouterr().err
    assert not (tmp_path / "run").exists() and not (tmp_path / "escaped.mrc").exists()


def test_config_validation(tmp_path):
    for fields, message in [
        ({"structures": {}}, "at least one structure is required"),
        ({"particles_per_class": 0}, "particles_per_class must be an integer >= 1, got 0"),
        ({"snr_targets": [0.02]},
         "SNR target 0.02 is not in the supported set ('100', '0.1', '0.05', '0.03', '0.01')"),
        ({"unknown_key": 1}, "unknown field 'unknown_key'"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PipelineConfig.from_dict(_raw_config(tmp_path, **fields))


@pytest.mark.parametrize("targets", [[0.1, 0.1], [0.05, 0.1, 0.1000001]])
def test_config_rejects_snr_targets_whose_tags_repeat(tmp_path, targets):
    # both copies of a box went to one file, the second over the first, and
    # metadata.ndjson listed the file twice
    with pytest.raises(ValueError, match=r"^SNR target 0\.1 repeats the tag '0\.1'$"):
        PipelineConfig.from_dict(_raw_config(tmp_path, snr_targets=targets))


@pytest.mark.parametrize("field", ["jobs", "particles_per_class"])
@pytest.mark.parametrize("value", ["NaN", "2.5"])
def test_config_rejects_a_count_that_is_not_an_integer_by_name(tmp_path, field, value):
    # Python's json reads NaN; a NaN jobs used to leave the projector's
    # thread pool without a worker, and the run hung
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_raw_config(tmp_path))[:-1] + f', "{field}": {value}}}')
    message = f"{field} must be an integer >= 1, got {float(value)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PipelineConfig.from_json(path)


def test_a_serial_write_or_score_leaves_no_thread_spinning(tmp_path, rng):
    # a BLAS reduction (np.vdot, np.corrcoef) over more than about 10,000
    # values wakes an OpenBLAS worker that spins a second core for about
    # 0.1 s after the call returns; process CPU time over a sleep shows it
    time.sleep(0.2)  # a spinner left by an earlier test expires
    cio.write_mrc(DensityVolume(rng.normal(size=(32, 32, 32))), tmp_path / "v.mrc")
    a, b = (rng.normal(size=(46, 360, 46)).astype(np.float32) for _ in range(2))
    centred_sums(a)
    assert -1.0 < _pearson(a, b) < 1.0
    start = time.process_time()
    time.sleep(0.15)
    assert time.process_time() - start < 0.03


def test_bad_json_reports_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    message = f"{path}: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
    assert [(r["stage"], r["jobs"]) for r in rows if "jobs" in r] == [
        ("project", 2), ("reconstruct", 2)
    ]
    common = {"stage", "inputs", "config_hash", "seed", "elapsed_s", "peak_rss_mb"}
    assert {r["stage"]: set(r) - common for r in rows} == {
        "densify": {"versions", "thread_caps", "atoms", "density_mb"},
        "place": {"target_count", "placed"},
        "compose": {"sample_dims", "sample_mb", "mass_ratio"},
        "project": {"jobs", "stack_shape", "stack_mb", "rows_projected"},
        "align": {"spectra_mb", "align_rms_x_px", "uncorrected_rms_x_px"},
        "refine_axis": set(),
        "reconstruct": {"jobs", "output_dims", "tomogram_mb", "tomo_corr"},
        "extract": {"subtomo_corr_median", "subtomo_corr_min"},
        "noise": {"extra_targets", "snr_err"},
    }
    assert all(common <= set(r) for r in rows)
    density = cio.read_mrc(result.output_dir / "densities" / "blob.mrc")
    tomogram = cio.read_mrc(result.output_dir / "tomogram.mrc")
    assert tomogram.voxel_size == pytest.approx(density.voxel_size)
    (recon_row,) = [r for r in rows if "output_dims" in r]
    assert recon_row["stage"] == "reconstruct"
    assert recon_row["output_dims"] == [40, 80, 40] == list(tomogram.shape)
    assert recon_row["tomogram_mb"] == pytest.approx(tomogram.data.nbytes / 1e6)


def _blob_config(tmp_path) -> PipelineConfig:
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(np.random.default_rng(0), radius=60.0, n=400))
    raw = _raw_config(
        tmp_path,
        structures={"blob": str(pdb)},
        particles_per_class=2,
        snr_targets=[0.1],
        placement={"volume_dims": [40, 80, 40]},
        tilt={"angles": [-20.0, 0.0, 20.0]},
    )
    return PipelineConfig.from_dict(raw)


def test_provenance_reports_versions_and_thread_caps(tmp_path, monkeypatch):
    monkeypatch.setenv("OMP_NUM_THREADS", "1")
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = run_pipeline(_blob_config(tmp_path)).output_dir
    rows = cio.read_ndjson(out / "provenance.ndjson")
    assert rows[0]["stage"] == "densify"
    assert rows[0]["versions"] == {
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__
    }
    assert rows[0]["thread_caps"] == {
        "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": None
    }
    # once per run, and never in the deterministic metadata
    assert not any({"versions", "thread_caps"} & set(r) for r in rows[1:])
    for record in cio.read_ndjson(out / "metadata.ndjson"):
        assert not {"versions", "thread_caps", "python", "numpy", "OMP_NUM_THREADS"} & set(record)


def test_a_failed_run_writes_its_provenance(tmp_path, monkeypatch):
    cfg = _blob_config(tmp_path)
    out = run_pipeline(cfg).output_dir

    def fail(*args, **kwargs):
        raise RuntimeError("no room for the tomogram")

    # a rerun into the same directory that fails replaces the complete rows
    monkeypatch.setattr(pipeline, "wbp_reconstruct", fail)
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "reconstruct"
    rows = cio.read_ndjson(out / "provenance.ndjson")
    assert [r["stage"] for r in rows] == [
        "densify", "place", "compose", "project", "align", "refine_axis", "reconstruct",
    ]
    failed = rows[-1]
    assert failed["error"] == "no room for the tomogram"
    assert failed["elapsed_s"] >= 0 and failed["peak_rss_mb"] > 0
    assert failed["jobs"] == cfg.jobs and "tomo_corr" not in failed
    assert not any("error" in r for r in rows[:-1])

    # a provenance file that cannot be written leaves the stage's failure to report
    (out / "provenance.ndjson").unlink()
    (out / "provenance.ndjson").mkdir()
    with pytest.raises(StageError) as err:
        run_pipeline(cfg)
    assert err.value.stage == "reconstruct"
    assert str(err.value.cause) == "no room for the tomogram"


def test_a_rerun_keeps_none_of_the_earlier_runs_files(tmp_path, monkeypatch):
    cfg = _blob_config(tmp_path)
    out = run_pipeline(cfg).output_dir
    written = {p.name for p in out.iterdir()}
    assert {"tomogram.mrc", "subtomograms", "masks", "metadata.ndjson"} <= written
    (out / "densities" / "old_label.mrc").write_bytes(b"")  # from another config
    (out / "notes.txt").write_text("mine")  # not a path the run writes

    def fail(*args, **kwargs):
        raise RuntimeError("no room for the tomogram")

    monkeypatch.setattr(pipeline, "wbp_reconstruct", fail)
    with pytest.raises(StageError):
        run_pipeline(cfg)
    # only what this run wrote before reconstruct failed, and the user's file
    assert sorted(p.name for p in out.iterdir()) == [
        "alignment.ndjson", "densities", "instances.ndjson", "notes.txt",
        "provenance.ndjson", "tilt_series",
    ]
    assert [p.name for p in (out / "densities").iterdir()] == ["blob.mrc"]
    assert (out / "notes.txt").read_text() == "mine"
    assert cio.read_ndjson(out / "provenance.ndjson")[-1]["stage"] == "reconstruct"


def test_ground_truth_scores_stay_outside_the_stage_time(tmp_path, monkeypatch):
    cfg = _blob_config(tmp_path)
    pearson, slept = pipeline._pearson, []

    def slow_pearson(a, b):
        if a.shape == cfg.placement.volume_dims:  # tomo_corr, not an extracted box
            slept.append(a.shape)
            time.sleep(0.5)
        return pearson(a, b)

    monkeypatch.setattr(pipeline, "_pearson", slow_pearson)
    out = run_pipeline(cfg).output_dir
    rows = {r["stage"]: r for r in cio.read_ndjson(out / "provenance.ndjson")}
    assert slept == [(40, 80, 40)]
    assert rows["reconstruct"]["elapsed_s"] < 0.5


def test_cli_pipeline_takes_jobs_from_the_variable(tmp_path, monkeypatch):
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(np.random.default_rng(0), radius=60.0, n=400))
    raw = _raw_config(
        tmp_path,
        structures={"blob": str(pdb)},
        particles_per_class=2,
        snr_targets=[0.1],
        placement={"volume_dims": [40, 80, 40]},
        tilt={"angles": [-20.0, 0.0, 20.0]},
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    monkeypatch.setattr(tiltsim.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setenv("CRYOFORGE_JOBS", "2")
    assert main(["--config", str(path), "pipeline"]) == 0
    rows = cio.read_ndjson(tmp_path / "out" / "provenance.ndjson")
    assert [(r["stage"], r["jobs"]) for r in rows if "jobs" in r] == [
        ("project", 2), ("reconstruct", 2)
    ]


def test_provenance_reports_a_short_placement(tmp_path):
    # the 40^3 interior holds one center at the default exclusion radius 19
    raw = _raw_config(
        tmp_path,
        particles_per_class=3,
        snr_targets=[0.1],
        placement={"volume_dims": [40, 40, 40], "max_attempts": 100},
        tilt={"angles": [-20.0, 0.0, 20.0]},
    )
    out = run_pipeline(PipelineConfig.from_dict(raw)).output_dir
    rows = {r["stage"]: r for r in cio.read_ndjson(out / "provenance.ndjson")}
    assert (rows["place"]["placed"], rows["place"]["target_count"]) == (1, 3)
    assert len(cio.read_ndjson(out / "instances.ndjson")) == 1


def test_provenance_reports_array_sizes(tmp_path):
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(np.random.default_rng(0), radius=60.0, n=400))
    raw = _raw_config(
        tmp_path,
        structures={"blob": str(pdb)},
        particles_per_class=2,
        snr_targets=[0.1],
        placement={"volume_dims": [40, 80, 42]},
        tilt={"angles": [-20.0, 0.0, 20.0]},
    )
    cfg = PipelineConfig.from_dict(raw)
    out = run_pipeline(cfg).output_dir
    rows = {r["stage"]: r for r in cio.read_ndjson(out / "provenance.ndjson")}
    density = cio.read_mrc(out / "densities" / "blob.mrc")
    assert rows["densify"]["atoms"] == 400
    assert rows["densify"]["density_mb"] == pytest.approx(density.data.nbytes / 1e6)
    assert rows["compose"]["sample_dims"] == [40, 80, 42]
    assert rows["compose"]["sample_mb"] == pytest.approx(4 * 40 * 80 * 42 / 1e6)
    assert rows["project"]["stack_shape"] == [3, 80, 42]
    assert rows["project"]["stack_mb"] == pytest.approx(4 * 3 * 80 * 42 / 1e6)
    assert rows["align"]["spectra_mb"] == pytest.approx(16 * 3 * 80 * 22 / 1e6)
    # the sizes are those of the arrays the stages made
    stack = cio.read_mrc(out / "tilt_series" / "tilts.mrc")
    assert list(stack.shape) == rows["project"]["stack_shape"]
    assert stack.data.nbytes / 1e6 == pytest.approx(rows["project"]["stack_mb"])
    spectra = np.fft.rfft2(stack.data.astype(np.float64))
    assert spectra.nbytes / 1e6 == pytest.approx(rows["align"]["spectra_mb"])
    # the projector skips the rows along h of the composed sample that hold
    # no density; the sample is rebuilt from the placement the pipeline used
    instances = place_particles(["blob"], cfg.placement)
    sample = compose_sample({"blob": density}, instances, cfg.placement)
    held = np.count_nonzero((sample.data != 0).any(axis=(0, 2)))
    assert rows["project"]["rows_projected"] == held < 80
    # sizes stay out of the deterministic metadata
    for record in cio.read_ndjson(out / "metadata.ndjson"):
        assert not {
            "atoms", "density_mb", "rows_projected", "mass_ratio", "subtomo_corr_median"
        } & set(record)


def test_failed_artifact_write_names_its_stage(tmp_path, capsys):
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(np.random.default_rng(0), radius=60.0, n=400))
    raw = _raw_config(
        tmp_path,
        structures={"blob": str(pdb)},
        particles_per_class=2,
        placement={"volume_dims": [40, 80, 40]},
        tilt={"angles": [-20.0, 0.0, 20.0]},
    )
    out = tmp_path / "out"
    out.mkdir()
    (out / "tilt_series").write_text("not a directory")
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert main(["--config", str(path), "pipeline"]) == 2
    err = capsys.readouterr().err
    assert "stage 'project' failed" in err and "tilt_series" in err
    assert not (out / "alignment.ndjson").exists()
    with pytest.raises(StageError) as exc:
        run_pipeline(PipelineConfig.from_dict(raw))
    assert exc.value.stage == "project"
    assert isinstance(exc.value.cause, OSError)


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
    densities = {"blob": cio.read_mrc(out / "densities" / "blob.mrc")}
    sample = compose_sample(densities, place_particles(["blob"], cfg.placement), cfg.placement)
    tomogram = cio.read_mrc(out / "tomogram.mrc")
    expected = np.corrcoef(tomogram.data.ravel(), sample.data.ravel())[0, 1]
    assert rows["reconstruct"]["tomo_corr"] == pytest.approx(expected, abs=1e-9)
    assert 0.0 < rows["reconstruct"]["tomo_corr"] <= 1.0

    # the mass the sample keeps of the placed maps
    placed = densities["blob"].data.sum(dtype=np.float64) * cfg.placement.target_count
    expected = sample.data.sum(dtype=np.float64) / placed
    assert rows["compose"]["mass_ratio"] == pytest.approx(expected, rel=1e-9)
    assert 0.5 < rows["compose"]["mass_ratio"] <= 1.0

    # each accepted clean box of the written tomogram against the same box
    # of the sample
    instances = place_particles(["blob"], cfg.placement)
    accepted, _ = extract(tomogram, instances, cfg.extraction, seed=cfg.seed)
    assert len(accepted) == result.accepted > 0
    corrs = [
        np.corrcoef(
            sub.data.ravel(),
            sample.data[tuple(slice(c, c + cfg.extraction.box) for c in sub.crop_corner)].ravel(),
        )[0, 1]
        for sub in accepted
    ]
    assert rows["extract"]["subtomo_corr_median"] == pytest.approx(np.median(corrs), abs=1e-12)
    assert rows["extract"]["subtomo_corr_min"] == pytest.approx(min(corrs), abs=1e-12)

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


def test_pipeline_output_feeds_cli_stages(tmp_path):
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(np.random.default_rng(0), radius=60.0, n=400))
    # a 20-voxel placement box packs three particles close enough that
    # extract's 32-voxel box rejects two: one at a face, one at a neighbour
    raw = _raw_config(
        tmp_path,
        structures={"blob": str(pdb)},
        particles_per_class=3,
        snr_targets=[0.1],
        placement={"volume_dims": [40, 80, 40], "box_size": 20},
        tilt={"angles": [-20.0, -10.0, 0.0, 10.0, 20.0]},
    )
    result = run_pipeline(PipelineConfig.from_dict(raw))
    out = result.output_dir
    assert {r.reason for r in result.rejections} == {"boundary", "neighbor"}
    assert result.accepted > 0
    series = out / "tilt_series"
    inputs = ["--tilts", str(series / "tilts.mrc"), "--angles", str(series / "angles.ndjson")]
    assert main(["align", *inputs, "--out", str(tmp_path / "alignment.ndjson")]) == 0
    assert main(["reconstruct", *inputs, "--alignment", str(out / "alignment.ndjson"),
                 "--dims", "40,80,40", "--out", str(tmp_path / "tomo.mrc")]) == 0
    assert main(["--seed", "3", "extract", "--tomogram", str(out / "tomogram.mrc"),
                 "--instances", str(out / "instances.ndjson"),
                 "--out", str(tmp_path / "extract")]) == 0

    # the pipeline aligns and reconstructs the stack tilts.mrc holds
    assert (tmp_path / "alignment.ndjson").read_bytes() == (out / "alignment.ndjson").read_bytes()
    assert (tmp_path / "tomo.mrc").read_bytes() == (out / "tomogram.mrc").read_bytes()
    # and extracts from the instances it wrote, with the run's seed
    rejections = (tmp_path / "extract" / "rejections.ndjson").read_bytes()
    assert rejections == (out / "rejections.ndjson").read_bytes()
    clean = [r for r in cio.read_metadata(out / "metadata.ndjson") if r.snr_tag == "clean"]
    redone = cio.read_metadata(tmp_path / "extract" / "metadata.ndjson")
    assert len(redone) == len(clean) == result.accepted
    for a, b in zip(redone, clean):
        payload = cio.read_mrc(tmp_path / "extract" / a.volume_path).data
        assert payload.tobytes() == cio.read_mrc(out / b.volume_path).data.tobytes()
