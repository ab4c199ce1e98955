"""The benchmark's tracer wraps functions by the names ``cli`` and
``pipeline`` look them up under, and its workloads read fields of the
files and provenance rows a run writes. Small copies of the workloads run
here, so a rename or a dropped field fails these tests, not every
benchmark op."""

import math
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_and_restores_every_patch(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    tracer = layers.Tracer()
    tracer.install()
    patches = list(tracer._patches)
    try:
        assert len(patches) >= 41
        assert all(getattr(owner, attr) is not original for owner, attr, original in patches)
    finally:
        tracer.remove()
    assert [(owner, attr) for owner, attr, original in patches
            if getattr(owner, attr) is not original] == []


def _run_contract(workload, expected_fingerprint, expected_quality):
    """The benchmark's own setup -> clear -> op -> check -> quality, with
    every fingerprint and quality field it reads present, and quality finite."""
    workload.setup()
    workload.clear()
    workload.op()
    assert set(workload.check()) == expected_fingerprint
    quality = workload.quality()
    assert set(quality) == expected_quality
    assert all(math.isfinite(v) for v in quality.values())


PIPELINE_QUALITY = {
    "align_rms_x_px", "uncorrected_rms_x_px", "axis_err_deg", "tomo_corr", "class_acc",
    "snr_err",
}


def test_pipeline_workload_contract(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    import workloads

    class Small(workloads.PipelineWorkload):
        dims = (46, 96, 46)
        angles = [-30.0, -15.0, 0.0, 15.0, 30.0]
        per_class = 2
        snr_targets = workloads.SNR_TARGETS
        jobs = 1

    assert PIPELINE_QUALITY <= set(bench.QUALITY_METRICS)
    workload = Small(1, tmp_path)
    _run_contract(workload, {"metadata_sha256"}, PIPELINE_QUALITY)
    assert set(workload.provenance()) == set(bench.PIPELINE_STAGES)


def test_reprocess_workload_contract(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import bench
    import workloads

    class Small(workloads.Reprocess):
        dims = (40, 96, 96)
        per_class = 2

    assert set(bench.QUALITY_METRICS) == PIPELINE_QUALITY | {"voxel_size_mismatch"}
    _run_contract(
        Small(1, tmp_path),
        {"metadata_sha256", "loss", "tokens_sha256"},
        set(bench.QUALITY_METRICS),
    )
