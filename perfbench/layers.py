"""Layer spans recorded from outside the program.

Each traced function is replaced, on the module or class where its caller
looks it up, by a wrapper that records a span (name, start, end, parent,
thread, op) and, for some functions, work counts derived from the call's
arguments or result. Spans are kept in memory for the whole run and
written out when it ends. Nothing inside ``cryoforge`` is edited: the
wrappers are installed before a traced op and removed after it.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

from cryoforge import (
    apt,
    cli,
    io as cio,
    nrcl,
    pipeline,
    recon,
    tiltalign,
    tiltsim,
)

@dataclass(slots=True)
class Span:
    id: int
    name: str
    parent: int | None
    op: int
    thread: int
    start: float
    end: float = 0.0


class _NdimageView:
    """Stands in for ``scipy.ndimage`` as one module sees it, so its calls
    can be wrapped without touching other callers of scipy."""

    def __init__(self, module):
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Span and count recorder; ``install`` wraps the layer table."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)  # summed over ops
        self.peaks: dict[str, float] = defaultdict(float)  # max over calls
        self.op = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, observe=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span belongs to the span its
            # submitter (the main thread) has open
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None
            )
            with self._lock:
                span = Span(
                    len(self.spans),
                    name,
                    parent.id if parent is not None else None,
                    self.op,
                    threading.get_ident(),
                    time.perf_counter(),
                )
                self.spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if observe is not None:
                with self._lock:
                    observe(self, args, kwargs, result)
            return result

        self._patch(owner, attr, traced)

    def install(self) -> None:
        ndimage_view = _NdimageView(tiltsim.ndimage)
        self._patch(tiltsim, "ndimage", ndimage_view)
        # (metric name, [(owner the caller looks the function up on, attr)], observer)
        table = [
            ("structure.parse_pdb", [(pipeline, "parse_pdb")], None),
            ("structure.densify", [(pipeline, "densify")], None),
            ("scene.place_particles", [(pipeline, "place_particles")], None),
            ("scene.compose_sample", [(pipeline, "compose_sample")], None),
            ("tiltsim.simulate_tilt_series", [(pipeline, "simulate_tilt_series")], _fine_grid),
            ("tiltsim.project_tilt", [(tiltsim, "project_tilt")], None),
            ("tiltsim.fourier_shift_2d", [(tiltsim, "fourier_shift_2d")], None),
            ("tiltsim.prefilter", [(ndimage_view, "spline_filter")], None),
            ("tiltsim.resample", [(ndimage_view, "affine_transform")], None),
            ("tiltalign.align_series", [(pipeline, "align_series"), (cli, "align_series")], None),
            ("tiltalign.phase_correlate", [(tiltalign, "phase_correlate")], None),
            ("tiltalign.refine_axis", [(pipeline, "refine_axis"), (cli, "refine_axis")], None),
            ("recon.wbp_reconstruct", [(pipeline, "wbp_reconstruct"), (cli, "wbp_reconstruct")], _wbp_work),
            ("recon.filter", [(recon, "filter_projection")], None),
            ("recon.shift", [(recon, "fourier_shift_2d")], None),
            ("subtomo.extract", [(pipeline, "extract"), (cli, "extract")], None),
            ("subtomo.make_mask", [(pipeline, "make_mask")], None),
            ("subtomo.add_noise", [(pipeline, "add_noise"), (cli, "add_noise")], None),
            ("io.write_mrc", [(cio, "write_mrc")], _write_bytes),
            ("io.read_mrc", [(cio, "read_mrc")], _read_bytes),
            ("io.write_ndjson", [(cio, "write_ndjson")], None),
            ("cli.align", [(cli, "cmd_align")], None),
            ("cli.reconstruct", [(cli, "cmd_reconstruct")], None),
            ("cli.extract", [(cli, "cmd_extract")], None),
            ("cli.noise", [(cli, "cmd_noise")], None),
            ("apt.apt_forward", [(apt, "apt_forward")], None),
            ("apt.polyphase_decompose", [(apt, "polyphase_decompose")], None),
            ("apt.component_logits", [(apt, "component_logits")], None),
            ("apt.gumbel_select", [(apt, "gumbel_select")], None),
            ("nrcl.nrcl_step", [(nrcl, "nrcl_step")], None),
            ("geometry.apply_rigid", [(nrcl, "apply_rigid")], None),
            ("nrcl.encode", [(nrcl.LinearProjectionEncoder, "encode")], None),
            ("nrcl.sinkhorn_wasserstein", [(nrcl, "sinkhorn_wasserstein")], _sinkhorn),
            ("nrcl.sym_loss", [(nrcl, "sym_loss")], None),
            ("nrcl.infonce_loss", [(nrcl, "infonce_loss")], None),
        ]
        for name, sites, observe in table:
            for owner, attr in sites:
                self.wrap(owner, attr, name, observe)

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# -- computed work counts ----------------------------------------------------
# These are derived from array sizes, not measured: they say how much work
# and memory a layer was asked for, so a change in run_s or peak_rss_mb can
# be attributed to it.

MB = 1e6


def _fine_grid(tracer: Tracer, args, kwargs, result) -> None:
    """Samples of project_tilt's beam-aligned fine grid (same extent rule:
    the volume zero-padded by 4 in d and w, the rotated box's beam extent
    sampled ``oversample`` times per voxel), and the float64 grid size of
    one tilt times the number of tilts projected at once."""
    vol, geom = args[0], args[1]
    jobs = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    D, H, W = (n + p for n, p in zip(vol.shape, (8, 0, 8)))
    biggest = 0
    for angle in geom.angles:
        theta = np.radians(angle)
        zhalf = abs(np.cos(theta)) * (D - 1) / 2.0 + abs(np.sin(theta)) * (W - 1) / 2.0
        samples = (int(np.floor(2.0 * zhalf * geom.oversample)) + 1) * H * (W - 8)
        tracer.counts["tiltsim.fine_samples"] += samples
        biggest = max(biggest, samples)
    tracer.peaks["tiltsim.fine_grid_mb"] = max(
        tracer.peaks["tiltsim.fine_grid_mb"], 8 * biggest * min(jobs, len(geom.angles)) / MB
    )


def _wbp_work(tracer: Tracer, args, kwargs, result) -> None:
    """Voxel updates of the gather (every tilt touches every output voxel)
    and the three (H, D, W) float64 temporaries live at its peak."""
    series, cfg = args[0], args[2]
    voxels = int(np.prod(cfg.output_dims))
    weighted = sum(
        1
        for a in series.geometry.angles
        if cfg.weighting != "abs_cos" or abs(np.cos(np.radians(a))) > 0
    )
    tracer.counts["recon.voxel_updates"] += weighted * voxels
    tracer.peaks["recon.temp_mb"] = max(tracer.peaks["recon.temp_mb"], 3 * 8 * voxels / MB)


def _write_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["io.write_mrc.bytes"] += 1024 + 4 * args[0].data.size


def _read_bytes(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["io.read_mrc.bytes"] += 1024 + 4 * result.data.size


def _sinkhorn(tracer: Tracer, args, kwargs, result) -> None:
    plan = result[1]
    tracer.counts["nrcl.sinkhorn.iterations_total"] += plan.iterations_used
    tracer.counts["nrcl.sinkhorn.converged_total"] += bool(plan.converged)


# -- span reduction ----------------------------------------------------------


def _union_length(intervals, lo: float, hi: float) -> float:
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(tracer: Tracer, op_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics averaged per traced op.

    ``<name>.s`` is busy time (sum of span durations, children included),
    ``<name>.calls`` the call count, ``.self_s``/``beam_sum``/``gather`` self
    time (span time no child span covers), ``<module>.share`` the module's
    self time over the traced ops' wall time (above 1 when threads overlap),
    and ``trace.uncovered_share`` the wall time no span covers.
    """
    n_ops = max(len(op_walls), 1)
    wall = sum(op_walls) or 1.0
    children = defaultdict(list)
    for s in tracer.spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    busy, calls, own = defaultdict(float), defaultdict(int), defaultdict(float)
    roots = defaultdict(list)
    for s in tracer.spans:
        busy[s.name] += s.end - s.start
        calls[s.name] += 1
        own[s.name] += (s.end - s.start) - _union_length(children[s.id], s.start, s.end)
        if s.parent is None:
            roots[s.op].append((s.start, s.end))
    covered = sum(_union_length(iv, -np.inf, np.inf) for iv in roots.values())

    m: dict[str, float] = {}
    for name in busy:
        m[f"{name}.s"] = busy[name] / n_ops
        m[f"{name}.calls"] = calls[name] / n_ops
    for cmd in ("align", "reconstruct", "extract", "noise"):
        m[f"cli.{cmd}.self_s"] = own[f"cli.{cmd}"] / n_ops
    m["tiltsim.beam_sum.s"] = own["tiltsim.project_tilt"] / n_ops
    m["recon.gather.s"] = own["recon.wbp_reconstruct"] / n_ops
    for name, t in own.items():
        share = f"{name.split('.')[0]}.share"
        m[share] = m.get(share, 0.0) + t / wall
    for key, value in tracer.counts.items():
        m[key] = value / n_ops
    m.update(tracer.peaks)
    n_sinkhorn = calls["nrcl.sinkhorn_wasserstein"]
    if n_sinkhorn:
        m["nrcl.sinkhorn.iterations"] = m.pop("nrcl.sinkhorn.iterations_total") * n_ops / n_sinkhorn
        m["nrcl.sinkhorn.converged_frac"] = m.pop("nrcl.sinkhorn.converged_total") * n_ops / n_sinkhorn
    m["trace.uncovered_share"] = 1.0 - covered / wall
    return m
