import json

import numpy as np
import pytest

from conftest import make_blob_pdb
from cryoforge import io as cio
from cryoforge.cli import main
from cryoforge.volume import DensityVolume

SINGLE_CARBON = "ATOM      1  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C\n"


def test_densify_command(tmp_path, capsys):
    pdb = tmp_path / "one.pdb"
    pdb.write_text(SINGLE_CARBON)
    out = tmp_path / "one.mrc"
    # fine enough grid that a single atom's 4-sigma splat hits voxel centers
    assert main(["densify", "--pdb", str(pdb), "--out", str(out),
                 "--voxel-size", "0.5", "--resolution", "2.0"]) == 0
    vol = cio.read_mrc(out)
    assert vol.data.max() == pytest.approx(1.0)
    assert "densify" in capsys.readouterr().out


def test_missing_input_exits_2(tmp_path, capsys):
    code = main(["densify", "--pdb", str(tmp_path / "nope.pdb"), "--out", str(tmp_path / "x.mrc")])
    assert code == 2
    assert "nope.pdb" in capsys.readouterr().err


def test_place_command(tmp_path):
    out = tmp_path / "instances.ndjson"
    code = main(
        ["--seed", "4", "place", "--labels", "a,b", "--count", "4",
         "--dims", "90,130,130", "--out", str(out)]
    )
    assert code == 0
    rows = cio.read_ndjson(out)
    assert len(rows) == 4
    assert {r["class_label"] for r in rows} == {"a", "b"}


def test_place_rejects_bad_dims(tmp_path, capsys):
    code = main(["place", "--labels", "a", "--count", "1", "--dims", "90,130",
                 "--out", str(tmp_path / "i.ndjson")])
    assert code == 1
    assert "dims" in capsys.readouterr().err


def test_noise_command(tmp_path):
    rng = np.random.default_rng(0)
    clean_path = tmp_path / "clean.mrc"
    clean = DensityVolume(rng.random((32, 32, 32)).astype(np.float32))
    cio.write_mrc(clean, clean_path)
    out = tmp_path / "noisy.mrc"
    assert main(["--seed", "1", "noise", "--volume", str(clean_path),
                 "--snr", "0.05", "--out", str(out)]) == 0
    noisy = cio.read_mrc(out)
    v_sig = float(np.var(clean.data.astype(np.float64)))
    noise_var = float(np.var(noisy.data.astype(np.float64) - clean.data))
    assert v_sig / noise_var == pytest.approx(0.05, rel=0.15)


def test_stage_chain_project_align_reconstruct_extract(tmp_path, rng):
    # densify a blob structure, then drive the remaining stage commands on it
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(rng, radius=60.0, n=400))
    vol_path = tmp_path / "density.mrc"
    assert main(["densify", "--pdb", str(pdb), "--out", str(vol_path)]) == 0

    proj_dir = tmp_path / "proj"
    assert main(["--seed", "2", "project", "--volume", str(vol_path),
                 "--out", str(proj_dir)]) == 0
    assert (proj_dir / "tilts.mrc").exists()
    angles = cio.read_ndjson(proj_dir / "angles.ndjson")
    assert len(angles) == 61

    align_path = tmp_path / "alignment.ndjson"
    assert main(["align", "--tilts", str(proj_dir / "tilts.mrc"),
                 "--angles", str(proj_dir / "angles.ndjson"),
                 "--out", str(align_path)]) == 0

    vol = cio.read_mrc(vol_path)
    dims = ",".join(str(d) for d in vol.shape)
    tomo_path = tmp_path / "tomo.mrc"
    assert main(["reconstruct", "--tilts", str(proj_dir / "tilts.mrc"),
                 "--angles", str(proj_dir / "angles.ndjson"),
                 "--alignment", str(align_path),
                 "--dims", dims, "--out", str(tomo_path)]) == 0
    tomo = cio.read_mrc(tomo_path)
    assert tomo.shape == vol.shape

    instances = tmp_path / "instances.ndjson"
    center = [d / 2.0 for d in vol.shape]
    cio.write_ndjson(
        [{"class_label": "blob", "center": center, "orientation": [1.0, 0, 0, 0]}],
        instances,
    )
    out_dir = tmp_path / "subs"
    assert main(["--seed", "0", "extract", "--tomogram", str(tomo_path),
                 "--instances", str(instances), "--out", str(out_dir)]) == 0
    records = cio.read_metadata(out_dir / "metadata.ndjson")
    rejections = cio.read_ndjson(out_dir / "rejections.ndjson")
    assert len(records) + len(rejections) == 1


def test_reconstruct_keeps_stack_voxel_size(tmp_path, rng):
    angles = [-20.0, 0.0, 20.0]
    stack = DensityVolume(rng.random((3, 12, 16)).astype(np.float32), voxel_size=7.5)
    cio.write_mrc(stack, tmp_path / "tilts.mrc")
    cio.write_ndjson(
        [{"index": i, "angle_deg": a, "applied_shift": [0.0, 0.0]} for i, a in enumerate(angles)],
        tmp_path / "angles.ndjson",
    )
    cio.write_ndjson([{"shifts": [[0.0, 0.0]] * 3}], tmp_path / "alignment.ndjson")
    tomo_path = tmp_path / "tomo.mrc"
    assert main(["reconstruct", "--tilts", str(tmp_path / "tilts.mrc"),
                 "--angles", str(tmp_path / "angles.ndjson"),
                 "--alignment", str(tmp_path / "alignment.ndjson"),
                 "--dims", "8,12,16", "--out", str(tomo_path)]) == 0
    assert cio.read_mrc(tomo_path).voxel_size == pytest.approx(7.5)


def test_pipeline_requires_config(capsys):
    assert main(["pipeline"]) == 1
    assert "config" in capsys.readouterr().err


def test_pipeline_missing_config_file_exits_2(tmp_path):
    assert main(["--config", str(tmp_path / "no.json"), "pipeline"]) == 2


def test_verify_passes(capsys):
    assert main(["--seed", "3", "verify", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert "apt translation" in out and "FAIL" not in out


def test_verify_negative_control(capsys):
    assert main(["--seed", "3", "verify", "--trials", "1", "--break-rotation"]) == 1
    out = capsys.readouterr().out
    assert "apt rotation" in out and "FAIL" in out


def test_verify_trials_guard(capsys):
    assert main(["verify", "--trials", "0"]) == 1
    assert "trials" in capsys.readouterr().err


def _write_embeddings(path, vectors):
    cio.write_ndjson([{"vector": list(map(float, v))} for v in vectors], path)


def test_nrcl_eval_command(tmp_path, capsys):
    e = np.eye(4)
    _write_embeddings(tmp_path / "z.ndjson", e[:2])
    _write_embeddings(tmp_path / "zp.ndjson", e[2:])
    code = main(["nrcl-eval", "--z", str(tmp_path / "z.ndjson"),
                 "--z-pos", str(tmp_path / "zp.ndjson"),
                 "--z-clean", str(tmp_path / "zp.ndjson"),
                 "--z-noisy", str(tmp_path / "zp.ndjson"),
                 "--temperature", "1.0"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out) == {"sym_loss", "wasserstein", "infonce"}
    assert out["infonce"] == pytest.approx(np.log(2.0))
