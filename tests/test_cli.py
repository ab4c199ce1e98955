import json
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import make_blob_pdb
from cryoforge import cli, io as cio, tiltsim
from cryoforge.cli import main
from cryoforge.nrcl import LossConfig
from cryoforge.pipeline import PipelineConfig
from cryoforge.volume import DensityVolume

SINGLE_CARBON = "ATOM      1  CA  ALA A   1       0.000   0.000   0.000  1.00  0.00           C\n"


def test_densify_command(tmp_path, capsys):
    pdb = tmp_path / "one.pdb"
    pdb.write_text(SINGLE_CARBON)
    out = tmp_path / "one.mrc"
    assert main(["densify", "--pdb", str(pdb), "--out", str(out),
                 "--voxel-size", "0.5", "--resolution", "2.0"]) == 0
    vol = cio.read_mrc(out)
    assert vol.data.max() == pytest.approx(1.0)
    assert "densify" in capsys.readouterr().out


@pytest.mark.parametrize("resolution", ["nan", "inf"])
def test_densify_non_finite_resolution_exits_1(tmp_path, capsys, resolution):
    pdb = tmp_path / "one.pdb"
    pdb.write_text(SINGLE_CARBON)
    out = tmp_path / "one.mrc"
    assert main(["densify", "--pdb", str(pdb), "--out", str(out), "--resolution", resolution]) == 1
    assert "target_resolution must be finite" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["place", "reconstruct"])
def test_non_integer_dims_exits_1(tmp_path, rng, capsys, command):
    if command == "place":
        argv = ["place", "--labels", "a", "--count", "1", "--dims", "90,x,130",
                "--out", str(tmp_path / "i.ndjson")]
        out = tmp_path / "i.ndjson"
    else:
        argv = _reconstruct_args(tmp_path, rng)
        argv[argv.index("--dims") + 1] = "8,x,16"
        out = tmp_path / "tomo.mrc"
    assert main(argv) == 1
    assert "--dims" in capsys.readouterr().err
    assert not out.exists()


def test_extract_names_a_non_finite_centre_and_exits_1(tmp_path, capsys):
    # a NaN or inf centre used to be cast to INT_MIN behind a numpy warning
    # and the particle rejected as "boundary"
    tomo = tmp_path / "tomo.mrc"
    cio.write_mrc(DensityVolume(np.ones((32, 32, 32))), tomo)
    instances = tmp_path / "instances.ndjson"
    for bad in (float("nan"), float("inf")):
        cio.write_ndjson(
            [{"class_label": "a", "center": c, "orientation": [1.0, 0.0, 0.0, 0.0]}
             for c in ([16.0, 16.0, 16.0], [16.0, bad, 16.0])],
            instances,
        )
        out = tmp_path / "subs"
        assert main(["extract", "--tomogram", str(tomo), "--instances", str(instances),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{instances}: line 2: center must be finite, got" in err
        assert not out.exists()


def _error_argv(tmp_path, case):
    """``case``'s arguments; every input it reads is under ``tmp_path``, and
    ``tmp_path / "out"`` is its output."""
    out = str(tmp_path / "out")
    pdb, mrc = tmp_path / "in.pdb", tmp_path / "in.mrc"
    if case.startswith("densify"):
        pdb.write_text("REMARK no atoms\n" if case == "densify-empty"
                       else SINGLE_CARBON.replace("0.000   0.000", "x.000   0.000", 1))
        return ["densify", "--pdb", str(pdb), "--out", out]
    if case == "place-infeasible":
        return ["place", "--labels", "a", "--count", "1", "--dims", "10,10,10", "--out", out]
    if case.startswith("noise"):  # an 8^3 volume: 3072 bytes with its header
        cio.write_mrc(DensityVolume(np.zeros((8, 8, 8), np.float32)), mrc)
        with open(mrc, "r+b") as fh:
            if case == "noise-mode-1":
                fh.seek(12)
                fh.write((1).to_bytes(4, "little"))
            elif case == "noise-truncated":
                fh.truncate(1500)
        return ["noise", "--volume", str(mrc), "--snr", "0.1", "--out", out]
    if case.startswith("pipeline"):
        pdb.write_text(SINGLE_CARBON)
        config = tmp_path / "config.json"
        raw = {"structures": {"a": str(pdb)}, "output_dir": out}
        if case == "pipeline-unknown-key":
            raw["bogus"] = 1
        config.write_text(json.dumps(raw))
        flags = {"pipeline-jobs-0": ["--jobs", "0"], "pipeline-seed-negative": ["--seed", "-1"]}
        return [*flags.get(case, []), "--config", str(config), "pipeline"]
    z = tmp_path / "z.ndjson"
    rows = {"nrcl-eval-not-object": "5\n", "nrcl-eval-no-vector": '{"vec": [1, 0]}\n',
            "nrcl-eval-vector-of-objects": '{"vector": [{}, 0]}\n'}
    if case in rows:
        z.write_text(rows[case])
    else:
        _write_embeddings(z, np.eye(4)[: 2 if case == "nrcl-eval-overflow" else 1])
    argv = ["nrcl-eval", "--z", str(z), "--z-pos", str(z)]
    return [*argv, "--temperature", "1e-6"] if case == "nrcl-eval-overflow" else argv


# each CLI error path and the message of its one "error:" line
ERRORS = [
    ("densify-empty", "no atoms: the model holds no ATOM/HETATM records"),
    ("densify-coordinate", "line 1: unparseable coordinate field"),
    ("place-infeasible", "volume (10, 10, 10) too small for exclusion radius 19.0"),
    ("noise-constant", "clean volume has zero variance"),
    ("noise-mode-1", "{mrc}: mode 1 unsupported, only mode 2 is handled"),
    ("noise-truncated", "{mrc}: truncated data section, expected 3072 bytes, found 1500"),
    ("pipeline-unknown-key", "unknown field 'bogus'"),
    ("pipeline-jobs-0", "--jobs must be an integer >= 1, got 0"),
    ("pipeline-seed-negative", "--seed must be an integer >= 0, got -1"),
    ("nrcl-eval-one-row", "sym_loss needs B >= 2 for in-batch negatives"),
    ("nrcl-eval-not-object", "{z}: line 1: must be a JSON object, got 5"),
    ("nrcl-eval-no-vector", "{z}: line 1: missing field 'vector'"),
    ("nrcl-eval-vector-of-objects", "{z}: float() argument must be a string or a real number, not 'dict'"),
    ("nrcl-eval-overflow", "sym_loss is nan at temperature 1e-06 and rince_c 0.5"),
]


@pytest.mark.parametrize("case, message", ERRORS, ids=[case for case, _ in ERRORS])
def test_error_exits_1_with_its_one_line(tmp_path, capsys, case, message):
    # no traceback, nothing on stdout and no output file
    assert main(_error_argv(tmp_path, case)) == 1
    captured = capsys.readouterr()
    paths = {"mrc": tmp_path / "in.mrc", "z": tmp_path / "z.ndjson"}
    assert captured.err == f"error: {message.format(**paths)}\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


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


@pytest.mark.parametrize("snr", ["inf", "nan", "0"])
def test_noise_snr_outside_its_range_exits_1(tmp_path, capsys, snr):
    # --snr inf used to write the clean volume as a "noisy" copy
    clean_path = tmp_path / "clean.mrc"
    cio.write_mrc(DensityVolume(np.random.default_rng(0).random((8, 8, 8))), clean_path)
    out = tmp_path / "noisy.mrc"
    assert main(["noise", "--volume", str(clean_path), "--snr", snr, "--out", str(out)]) == 1
    assert "snr_target must be finite and positive" in capsys.readouterr().err
    assert not out.exists()


def test_main_carries_no_option_between_calls(tmp_path):
    clean_path = tmp_path / "clean.mrc"
    cio.write_mrc(DensityVolume(np.random.default_rng(0).random((8, 8, 8))), clean_path)
    args = ["noise", "--volume", str(clean_path), "--snr", "0.05", "--out"]
    assert main(["--seed", "5", *args, str(tmp_path / "seed5.mrc")]) == 0
    assert main([*args, str(tmp_path / "unseeded.mrc")]) == 0
    assert main(["--seed", "0", *args, str(tmp_path / "seed0.mrc")]) == 0
    assert cli.build_parser() is cli.build_parser()  # built once per process
    unseeded = (tmp_path / "unseeded.mrc").read_bytes()
    assert unseeded == (tmp_path / "seed0.mrc").read_bytes()
    assert unseeded != (tmp_path / "seed5.mrc").read_bytes()


@pytest.mark.parametrize("command", ["noise", "verify"])
def test_negative_seed_is_named_and_exits_1(tmp_path, capsys, command):
    clean_path = tmp_path / "clean.mrc"
    cio.write_mrc(DensityVolume(np.random.default_rng(0).random((8, 8, 8))), clean_path)
    out = tmp_path / "noisy.mrc"
    args = {"noise": ["noise", "--volume", str(clean_path), "--snr", "0.1", "--out", str(out)],
            "verify": ["verify", "--trials", "1"]}[command]
    assert main(["--seed", "-1", *args]) == 1
    assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"
    assert not out.exists()


def test_main_runs_the_current_command_function(tmp_path, monkeypatch):
    # the parser outlives a main call; a cmd_* function replaced afterwards
    # (as the benchmark's tracer does) is still the one main runs
    assert main(["verify", "--trials", "1"]) == 0
    called = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: called.append(args.trials) or 0)
    assert main(["verify", "--trials", "2"]) == 0
    assert called == [2]


def test_stage_chain_project_align_reconstruct_extract(tmp_path, rng, capsys):
    # densify a blob structure at 7.5 A, then drive the remaining stage
    # commands on it; every volume the chain writes keeps that voxel size
    pdb = tmp_path / "blob.pdb"
    pdb.write_text(make_blob_pdb(rng, radius=60.0, n=400))
    vol_path = tmp_path / "density.mrc"
    assert main(["densify", "--pdb", str(pdb), "--out", str(vol_path),
                 "--voxel-size", "7.5"]) == 0

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
    printed = capsys.readouterr().out.splitlines()[-1]
    assert re.fullmatch(rf"align: axis [+-]\d+\.\d\d deg -> {re.escape(str(align_path))}", printed)

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
    assert not records and [r["reason"] for r in rejections] == ["boundary"]

    # the 16-voxel density is smaller than the 32-voxel box, so the tomogram
    # itself is the volume the noise stage gets
    noisy_path = tmp_path / "noisy.mrc"
    assert main(["--seed", "1", "noise", "--volume", str(tomo_path),
                 "--snr", "0.1", "--out", str(noisy_path)]) == 0

    for path in (vol_path, proj_dir / "tilts.mrc", tomo_path, noisy_path):
        assert cio.read_mrc(path).voxel_size == pytest.approx(7.5), path


def _write_tilts(tmp_path, rng, views, angles):
    """A ``views``-view 12 x 16 stack at 7.5 A and its angle rows, as
    ``tilts.mrc`` and ``angles.ndjson`` in ``tmp_path``; their paths."""
    stack = DensityVolume(rng.random((views, 12, 16)).astype(np.float32), voxel_size=7.5)
    cio.write_mrc(stack, tmp_path / "tilts.mrc")
    cio.write_ndjson(
        [{"index": i, "angle_deg": a, "applied_shift": [0.0, 0.0]} for i, a in enumerate(angles)],
        tmp_path / "angles.ndjson",
    )
    return tmp_path / "tilts.mrc", tmp_path / "angles.ndjson"


def _reconstruct_args(tmp_path, rng):
    """Arguments of ``reconstruct`` on a 3-tilt 12 x 16 stack at 7.5 A."""
    _write_tilts(tmp_path, rng, 3, [-20.0, 0.0, 20.0])
    cio.write_ndjson([{"shifts": [[0.0, 0.0]] * 3}], tmp_path / "alignment.ndjson")
    return ["reconstruct", "--tilts", str(tmp_path / "tilts.mrc"),
            "--angles", str(tmp_path / "angles.ndjson"),
            "--alignment", str(tmp_path / "alignment.ndjson"),
            "--dims", "8,12,16", "--out", str(tmp_path / "tomo.mrc")]


def _missing_input_args(tmp_path, rng, command):
    """``command``'s arguments with every input present but one, the
    missing path and the output path."""
    argv = _reconstruct_args(tmp_path, rng)
    files = {flag: argv[argv.index(flag) + 1] for flag in ("--tilts", "--angles", "--alignment")}
    volume = tmp_path / "volume.mrc"
    cio.write_mrc(DensityVolume(rng.random((8, 12, 16)).astype(np.float32)), volume)
    missing = str(tmp_path / "missing.file")
    out = str(tmp_path / "out")
    argv = {
        "project": ["project", "--volume", missing, "--out", out],
        "align": ["align", "--tilts", files["--tilts"], "--angles", missing, "--out", out],
        "reconstruct": ["reconstruct", "--tilts", files["--tilts"], "--angles", files["--angles"],
                        "--alignment", missing, "--dims", "8,12,16", "--out", out],
        "extract": ["extract", "--tomogram", str(volume), "--instances", missing, "--out", out],
        "noise": ["noise", "--volume", missing, "--snr", "0.1", "--out", out],
    }[command]
    return argv, missing, out


@pytest.mark.parametrize("command", ["project", "align", "reconstruct", "extract", "noise"])
def test_stage_missing_input_exits_2(tmp_path, rng, capsys, command):
    argv, missing, out = _missing_input_args(tmp_path, rng, command)
    assert main(argv) == 2
    assert missing in capsys.readouterr().err
    assert not Path(out).exists()


def test_reconstruct_names_malformed_alignment_file(tmp_path, rng, capsys):
    argv = _reconstruct_args(tmp_path, rng)
    alignment = tmp_path / "alignment.ndjson"
    cio.write_ndjson([{"shift": [[0.0, 0.0]] * 3}], alignment)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert f"{alignment}: line 1: missing field 'shifts'" in err
    assert not (tmp_path / "tomo.mrc").exists()


def test_reconstruct_names_a_non_finite_alignment_shift(tmp_path, rng, capsys):
    argv = _reconstruct_args(tmp_path, rng)
    alignment = tmp_path / "alignment.ndjson"
    cio.write_ndjson([{"shifts": [[0.0, 0.0], [float("nan"), 0.0], [0.0, 0.0]]}], alignment)
    assert main(argv) == 1
    assert f"{alignment}: line 1: shifts must be finite, got nan" in capsys.readouterr().err
    assert not (tmp_path / "tomo.mrc").exists()


def test_align_names_both_tilt_files_when_their_counts_differ(tmp_path, rng, capsys):
    tilts, angles = _write_tilts(tmp_path, rng, 4, [-20.0, 0.0, 20.0])
    assert main(["align", "--tilts", str(tilts), "--angles", str(angles),
                 "--out", str(tmp_path / "alignment.ndjson")]) == 1
    assert f"error: {tilts}: 4 views, {angles}: 3 angles" in capsys.readouterr().err
    assert not (tmp_path / "alignment.ndjson").exists()


def test_align_names_an_angles_file_with_a_non_uniform_step(tmp_path, rng, capsys):
    tilts, angles = _write_tilts(tmp_path, rng, 3, [-20.0, 0.0, 30.0])
    assert main(["align", "--tilts", str(tilts), "--angles", str(angles),
                 "--out", str(tmp_path / "alignment.ndjson")]) == 1
    assert f"error: {angles}: tilt angle step must be uniform" in capsys.readouterr().err
    assert not (tmp_path / "alignment.ndjson").exists()


def test_align_names_a_malformed_angles_row(tmp_path, rng, capsys):
    # an applied_shift of 5 used to end the command in a TypeError traceback
    tilts, angles = _write_tilts(tmp_path, rng, 3, [-20.0, 0.0, 20.0])
    rows = cio.read_ndjson(angles)
    rows[1]["applied_shift"] = 5
    cio.write_ndjson(rows, angles)
    assert main(["align", "--tilts", str(tilts), "--angles", str(angles),
                 "--out", str(tmp_path / "alignment.ndjson")]) == 1
    err = capsys.readouterr().err
    assert f"error: {angles}: line 2: applied_shift must be a (dx, dy) pair, got 5" in err
    assert not (tmp_path / "alignment.ndjson").exists()


def test_align_names_an_angles_row_out_of_its_index(tmp_path, rng, capsys):
    # three rows that all said index 0 used to align and exit 0
    tilts, angles = _write_tilts(tmp_path, rng, 3, [-20.0, 0.0, 20.0])
    cio.write_ndjson([{**row, "index": 0} for row in cio.read_ndjson(angles)], angles)
    assert main(["align", "--tilts", str(tilts), "--angles", str(angles),
                 "--out", str(tmp_path / "alignment.ndjson")]) == 1
    assert capsys.readouterr().err == f"error: {angles}: row 1 has index 0, expected 1\n"
    assert not (tmp_path / "alignment.ndjson").exists()


def test_reconstruct_reads_an_alignment_file_with_the_older_keys(tmp_path, rng):
    # a row that still carries axis_offset and residual_mse reconstructs the
    # same tomogram as the row without them
    argv = _reconstruct_args(tmp_path, rng)
    alignment, tomo = tmp_path / "alignment.ndjson", tmp_path / "tomo.mrc"
    row = {"axis_angle_deg": 0.3, "shifts": [[0.25, -0.5], [0.0, 0.0], [-0.25, 0.5]]}
    tomograms = []
    for extra in ({}, {"axis_offset": 1.2, "residual_mse": 0.01}):
        cio.write_ndjson([{**row, **extra}], alignment)
        assert main(argv) == 0
        tomograms.append(tomo.read_bytes())
    assert tomograms[0] == tomograms[1]


def test_reconstruct_names_an_alignment_file_short_of_shifts(tmp_path, rng, capsys):
    argv = _reconstruct_args(tmp_path, rng)
    tilts, _ = _write_tilts(tmp_path, rng, 4, [-30.0, -10.0, 10.0, 30.0])
    alignment = tmp_path / "alignment.ndjson"
    assert main(argv) == 1
    assert f"error: {alignment}: 3 shifts, {tilts}: 4 views" in capsys.readouterr().err
    assert not (tmp_path / "tomo.mrc").exists()


def test_reconstruct_names_dims_off_the_stack_grid(tmp_path, rng, capsys):
    # the tomogram is on the stack's own (h, w) grid; only D is free
    argv = _reconstruct_args(tmp_path, rng)
    argv[argv.index("--dims") + 1] = "8,13,16"
    tilts = argv[argv.index("--tilts") + 1]
    assert main(argv) == 1
    named = f"error: --dims (8, 13, 16): H and W must be those of {tilts}, a (3, 12, 16) stack"
    assert named in capsys.readouterr().err
    assert not (tmp_path / "tomo.mrc").exists()


def test_reconstruct_keeps_stack_voxel_size(tmp_path, rng):
    assert main(_reconstruct_args(tmp_path, rng)) == 0
    assert cio.read_mrc(tmp_path / "tomo.mrc").voxel_size == pytest.approx(7.5)


def test_jobs_resolution_order(monkeypatch):
    parser = cli.build_parser()
    monkeypatch.setattr(tiltsim.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli._jobs(parser.parse_args(["verify"])) == 1  # usable CPUs
    monkeypatch.setattr(tiltsim.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli._jobs(parser.parse_args(["verify"])) == tiltsim.DEFAULT_JOBS_CAP == 2  # capped
    assert cli._jobs(parser.parse_args(["--jobs", "5", "verify"])) == 5  # the flag beats the CPUs
    assert cli._jobs(parser.parse_args(["--jobs", "1", "verify"])) == 1


# stable ids: the flag, no other source of the count (None) and the option named
@pytest.mark.parametrize("flag", ["0", "-3"], ids=["0-None---jobs", "-3-None---jobs"])
def test_jobs_below_one_exits_1(tmp_path, rng, capsys, flag):
    assert main(["--jobs", flag, *_reconstruct_args(tmp_path, rng)]) == 1
    assert "--jobs" in capsys.readouterr().err
    assert not (tmp_path / "tomo.mrc").exists()


@pytest.mark.parametrize("value", ["0", "two", "5"])
def test_the_environment_does_not_set_jobs(tmp_path, rng, monkeypatch, value):
    # the worker count comes from --jobs, the config or the CPUs; no
    # environment variable is read, so CRYOFORGE_JOBS changes nothing
    argv = _reconstruct_args(tmp_path, rng)
    assert main(argv) == 0
    unset = (tmp_path / "tomo.mrc").read_bytes()
    monkeypatch.setenv("CRYOFORGE_JOBS", value)
    monkeypatch.setattr(tiltsim.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli._jobs(cli.build_parser().parse_args(["verify"])) == 2
    assert PipelineConfig(structures={"a": "a.pdb"}, output_dir="out").jobs == 2
    assert main(argv) == 0
    assert (tmp_path / "tomo.mrc").read_bytes() == unset


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
    assert set(out) == {
        "sym_loss", "wasserstein", "wasserstein_converged", "wasserstein_iterations",
        "wasserstein_epsilon", "infonce",
    }
    assert out["infonce"] == pytest.approx(np.log(2.0))
    assert out["wasserstein_converged"] is True


@pytest.mark.parametrize("given, missing", [("--z-clean", "--z-noisy"), ("--z-noisy", "--z-clean")])
def test_nrcl_eval_needs_both_infonce_files(tmp_path, capsys, given, missing):
    # one of the two used to exit 0 with no infonce in the output
    _write_embeddings(tmp_path / "z.ndjson", np.eye(4)[:2])
    z = str(tmp_path / "z.ndjson")
    assert main(["nrcl-eval", "--z", z, "--z-pos", z, given, z]) == 1
    captured = capsys.readouterr()
    assert f"{missing} is missing" in captured.err and captured.out == ""


@pytest.mark.parametrize("bad", [np.nan, 2.0])
def test_nrcl_eval_names_a_file_with_bad_rows(tmp_path, capsys, bad):
    _write_embeddings(tmp_path / "z.ndjson", np.eye(4)[:2])
    _write_embeddings(tmp_path / "zp.ndjson", [[bad, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
    code = main(["nrcl-eval", "--z", str(tmp_path / "z.ndjson"),
                 "--z-pos", str(tmp_path / "zp.ndjson")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{tmp_path / 'zp.ndjson'}: embedding rows must be finite" in err


def test_nrcl_eval_reports_unconverged_sinkhorn(tmp_path, capsys):
    # B = 8 random unit vectors in 8-D need about 2300 iterations at the
    # shipped epsilon, far beyond the shipped 200-iteration budget
    rng = np.random.default_rng(1)
    for name in ("z", "zp"):
        v = rng.normal(size=(8, 8))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        _write_embeddings(tmp_path / f"{name}.ndjson", v)
    code = main(["nrcl-eval", "--z", str(tmp_path / "z.ndjson"),
                 "--z-pos", str(tmp_path / "zp.ndjson")])
    assert code == 0
    text = capsys.readouterr().out
    assert '"wasserstein_converged": false' in text
    out = json.loads(text)
    assert out["wasserstein_iterations"] == LossConfig().sinkhorn_max_iter
    assert out["wasserstein_epsilon"] == LossConfig().sinkhorn_epsilon
