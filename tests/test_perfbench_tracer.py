"""The benchmark's tracer wraps functions by the names ``cli`` and
``pipeline`` look them up under; a rename there would otherwise only break
traced benchmark runs."""

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
