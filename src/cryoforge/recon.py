"""Filtered weighted back-projection, and its transpose, the reprojector.

Projections are shift-corrected and multiplied row-wise in Fourier space
by a Hann-tapered ramp filter (perpendicular to the tilt axis) in one
real-to-complex FFT round trip per tilt: the shift's phase ramp and the
row filter are both diagonal on the ``rfft2`` grid, so they commute and
multiply into one spectrum. Each tilt is rescaled by |cos theta| and
smeared back along its beam directions with linear interpolation of the
projection pixels, onto the views' own (h, w) grid, the one ``tiltsim`` uses.

Back-projection is the adjoint of a sparse line-integral operator, as in
the ASTRA toolbox (van Aarle et al., Ultramicroscopy, 2015). The tilt axis
h is an identity axis, so the interpolation taps of a voxel column (d, w)
are the same for every h: each slab of d rows is one ``slab_operator``, two
taps per tilt per voxel column, applied to all filtered detector rows with
one sparse-dense product. ``reproject`` is the exact transpose of the
unweighted back-projector on that grid. It builds the same operators with
unit taps, multiplies each slab of the volume by its operator's transpose
and adds each product into one float64 stack of views. However many slabs
there are, it holds that stack, one float32 product of its size, about
``SLAB_BYTES`` of operator taps and, at the end, the returned copy. The
filtered rows, the volume and the taps are float32, as in ASTRA's
single-precision projectors, so the memory-bound products move half the
bytes of float64 ones.

With ``jobs > 1`` the back-projector's sparse products run on a thread
pool, each writing its own disjoint d rows of the tomogram, so it is
bit-identical for every ``jobs``; the operators are built on the calling
thread (see ``tiltsim.build_then_run``). ``reproject`` runs on the calling
thread alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .tiltsim import TiltSeries, build_then_run, shift_ramp
from .tiltsim import fourier_shift_2d  # noqa: F401  perfbench traces recon.fourier_shift_2d
from .volume import DensityVolume, int_at_least, three_ints

WEIGHTINGS = ("abs_cos",)
MIN_TILTS = 3  # the fewest views a reconstruction takes
SLAB_BYTES = 4_000_000  # float32 product and operator taps (value + int32 index) of one d slab


@dataclass(frozen=True)
class ReconConfig:
    output_dims: tuple[int, int, int] = (200, 500, 500)  # (D, H, W)
    weighting: str = "abs_cos"  # the one weighting, read by perfbench's tracer

    def __post_init__(self):
        object.__setattr__(self, "output_dims", three_ints(self.output_dims, "output_dims"))
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")


def filter_response(n: int) -> np.ndarray:
    """Hann-tapered ramp H(f) on the rfft grid of an n-sample row:
    |f/f_N| * (0.5 + 0.5 cos(pi f / f_N)) up to Nyquist f_N."""
    freqs = np.fft.rfftfreq(n)  # cycles/pixel, f_N = 0.5
    return freqs / 0.5 * (0.5 + 0.5 * np.cos(np.pi * freqs / 0.5))


def filter_projection(img: np.ndarray, dx: float = 0.0, dy: float = 0.0) -> np.ndarray:
    """Apply the Hann ramp along the detector x-axis and shift the content
    by (+dx, +dy), in one ``rfft2`` round trip.

    Rows run perpendicular to the tilt axis (the detector y-axis), which
    stays unfiltered. The filter response and ``shift_ramp`` multiply the
    same half spectrum.
    """
    img = np.asarray(img, dtype=np.float64)
    spectrum = np.fft.rfft2(img) * filter_response(img.shape[1])[None, :]
    if dx or dy:
        spectrum *= shift_ramp(img.shape, dx, dy)
    return np.fft.irfft2(spectrum, s=img.shape)


def slab_operator(
    d_rows: range, D: int, W: int, theta: np.ndarray, tap_weights: np.ndarray
) -> sparse.csr_array:
    """Float32 CSR back-projection operator of the d rows ``d_rows`` of a
    (D, *, W) volume on a detector W columns wide: row j * W + w, voxel
    column (d_rows[j], w), holds two linear taps per tilt, by tilt then tap,
    on the len(theta) * W detector columns, at x' = sin(theta) (d - (D - 1) / 2)
    + cos(theta) (w - (W - 1) / 2) + (W - 1) / 2 for tilt theta (radians), each
    times its tilt's tap weight; none where x' is off the detector."""
    z, x = np.asarray(d_rows) - (D - 1) / 2.0, np.arange(W) - (W - 1) / 2.0
    sin_t, cos_t, n_tilts = np.sin(theta), np.cos(theta), len(theta)
    # (n_d, W, n_tilts) detector x of every voxel column per tilt
    xprime = sin_t * z[:, None, None] + cos_t * x[None, :, None] + (W - 1) / 2.0
    inside = (xprime >= 0.0) & (xprime <= W - 1)
    xcl = np.clip(xprime, 0.0, W - 1)
    i0 = np.floor(xcl).astype(np.int32)
    tx = xcl - i0
    data = np.stack(
        [tap_weights * (1.0 - tx) * inside, tap_weights * tx * inside], axis=-1, dtype=np.float32
    )
    col0 = (np.arange(n_tilts) * W).astype(np.int32)
    indices = np.stack([col0 + i0, col0 + np.minimum(i0 + 1, W - 1)], axis=-1)
    rows = len(z) * W
    indptr = np.arange(0, rows * 2 * n_tilts + 1, 2 * n_tilts, dtype=np.int32)
    return sparse.csr_array((data.ravel(), indices.ravel(), indptr), shape=(rows, n_tilts * W))


def slabs(D: int, W: int, H: int, n_tilts: int, jobs: int = 1) -> list[range]:
    """The d rows of each slab of a (D, H, W) volume over n_tilts views. A d row
    costs its float32 product (W * H) and its taps (W * 2 * n_tilts), each a
    float32 value and an int32 index; ``jobs`` slabs are in flight at once, so
    each gets a jobs-th of ``SLAB_BYTES``."""
    n = max(1, SLAB_BYTES // jobs // (4 * W * (H + 4 * n_tilts)))
    return [range(d0, min(d0 + n, D)) for d0 in range(0, D, n)]


def wbp_reconstruct(series: TiltSeries, shifts, cfg: ReconConfig, jobs: int = 1) -> DensityVolume:
    """Back-project a filtered, angle-weighted tilt series, each view moved
    by minus its (dx, dy) in ``shifts``, one pair per view, onto the views'
    (h, w) grid: ``cfg.output_dims`` sets D, and its H and W must be the views'.

    Each output voxel (d, h, w) samples row h of every projection at its
    detector x' = sin(theta) z + cos(theta) x about the volume center, with
    linear interpolation, and a sample off the detector contributes 0; the
    sum over tilts is scaled by pi / (2 N_tilts). The tomogram keeps the
    series' voxel size.

    The x interpolation weights depend on (tilt, d, w) only, never on h.
    Every tilt's float32 view is shifted and filtered in float64 in one FFT
    round trip (``filter_projection``, called once per tilt), and its
    transposed rows are stored, cast once to float32, in one (n_tilts * W, H)
    matrix R. The output is filled one slab of d rows at a time: the slab's
    ``slab_operator``, with the tilt weights as its tap weights, times R in
    one float32 sparse-dense product gives the slab laid out (d, w, h). No
    (H, D, W) array is formed. The tomogram agrees with a float64 product to
    float32 round-off.

    The calling thread builds each slab's operator, and ``build_then_run``
    forms its product, with at most ``jobs`` slabs in flight on a thread
    pool when ``jobs > 1``. Slabs are a ``jobs``-th of the serial slab, so
    besides R and the float32 output the temporaries stay about
    ``SLAB_BYTES``. Every slab's arithmetic is the same whichever thread
    runs it, so the output is bit-identical for every ``jobs``. A worker's
    exception is raised here.
    """
    n_tilts, H, W = series.projections.shape
    if n_tilts < MIN_TILTS:
        raise ValueError(f"reconstruction needs at least {MIN_TILTS} tilts")
    if len(shifts) != n_tilts:
        raise ValueError(f"{len(shifts)} shifts for {n_tilts} views")
    D = cfg.output_dims[0]
    if cfg.output_dims[1:] != (H, W):
        shape = series.projections.shape
        raise ValueError(f"output_dims {cfg.output_dims}: H and W must match the {shape} views")

    # R[i * W + x, h]: filtered row h of tilt i
    R = np.empty((n_tilts, W, H), dtype=np.float32)
    for i, proj in enumerate(series.projections):
        dx, dy = shifts[i]
        R[i] = filter_projection(proj, -dx, -dy).T
    R = R.reshape(n_tilts * W, H)

    theta = np.radians(np.asarray(series.geometry.angles, dtype=np.float64))
    w_t = np.abs(np.cos(theta))
    scale = np.pi / (2.0 * n_tilts)
    jobs = int_at_least(jobs, "jobs", 1)
    out = np.empty((D, H, W), dtype=np.float32)

    def operator(rows: range) -> sparse.csr_array:
        return slab_operator(rows, D, W, theta, w_t)

    def fill(rows: range, op: sparse.csr_array) -> None:
        part = op @ R
        part *= scale
        out[rows.start : rows.stop] = part.reshape(len(rows), W, H).transpose(0, 2, 1)

    build_then_run(slabs(D, W, H, n_tilts, jobs), operator, fill, jobs)
    return DensityVolume(out, series.voxel_size)


def reproject(volume: DensityVolume, angles) -> np.ndarray:
    """The float64 (n_tilts, H, W) line integrals of a (D, H, W) ``volume``
    at each tilt angle (degrees): every slab of d rows, laid out (d, w, h),
    times its ``slab_operator`` transposed, with unit tap weights and no
    filter or pi / (2 N_tilts) scale, added into one stack."""
    D, H, W = volume.shape
    theta = np.radians(np.asarray(angles, dtype=np.float64))
    taps = np.ones(len(theta))
    out = np.zeros((len(theta) * W, H))
    for rows in slabs(D, W, H, len(theta)):
        op = slab_operator(rows, D, W, theta, taps)
        out += op.T @ volume.data[rows.start : rows.stop].transpose(0, 2, 1).reshape(-1, H)
    return np.ascontiguousarray(out.reshape(len(theta), W, H).transpose(0, 2, 1))
