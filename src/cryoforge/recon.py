"""Filtered weighted back-projection.

Projections are shift-corrected, multiplied row-wise in Fourier space by a
Hann-tapered ramp filter (perpendicular to the tilt axis), rescaled by
|cos theta|, and smeared back along their beam directions with linear
interpolation of the projection pixels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tiltalign import AlignmentResult
from .tiltsim import TiltSeries, fourier_shift_2d
from .volume import DensityVolume

FILTERS = ("hann_ramp", "ramp", "none")
WEIGHTINGS = ("abs_cos", "uniform")


@dataclass
class ReconConfig:
    output_dims: tuple[int, int, int] = (200, 500, 500)  # (D, H, W)
    filter: str = "hann_ramp"
    weighting: str = "abs_cos"

    def __post_init__(self):
        if min(self.output_dims) < 1:
            raise ValueError("output_dims must be positive")
        if self.filter not in FILTERS:
            raise ValueError(f"filter must be one of {FILTERS}")
        if self.weighting not in WEIGHTINGS:
            raise ValueError(f"weighting must be one of {WEIGHTINGS}")


def filter_response(n: int, kind: str) -> np.ndarray:
    """Frequency response H(f) on the rfft grid of an n-sample row.

    hann_ramp: |f/f_N| * (0.5 + 0.5 cos(pi f / f_N)) up to Nyquist f_N.
    """
    freqs = np.fft.rfftfreq(n)  # cycles/pixel, f_N = 0.5
    ramp = freqs / 0.5
    if kind == "none":
        return np.ones_like(freqs)
    if kind == "ramp":
        return ramp
    if kind == "hann_ramp":
        return ramp * (0.5 + 0.5 * np.cos(np.pi * freqs / 0.5))
    raise ValueError(f"unknown filter {kind!r}")


def filter_projection(img: np.ndarray, cfg: ReconConfig) -> np.ndarray:
    """Apply the 1D reconstruction filter along the detector x-axis.

    Rows run perpendicular to the tilt axis (the detector y-axis), which
    stays unfiltered; "none" returns the input unchanged.
    """
    img = np.asarray(img, dtype=np.float64)
    if cfg.filter == "none":
        return img.copy()
    H = filter_response(img.shape[1], cfg.filter)
    return np.fft.irfft(np.fft.rfft(img, axis=1) * H[None, :], n=img.shape[1], axis=1)


def wbp_reconstruct(
    series: TiltSeries, align: AlignmentResult, cfg: ReconConfig
) -> DensityVolume:
    """Back-project a shift-corrected, filtered, angle-weighted tilt series.

    Each output voxel samples every projection at its projected detector
    coordinate (beam geometry: x' = sin(theta) z + cos(theta) x about the
    volume center) with bilinear interpolation; the sum over tilts is
    scaled by pi / (2 N_tilts). The tomogram keeps the series' voxel size.
    """
    n_tilts = len(series.projections)
    if n_tilts < 3:
        raise ValueError("reconstruction needs at least 3 tilts")
    Hdet, Wdet = series.projections[0].shape
    if len(align.shifts) != n_tilts:
        raise ValueError("alignment shifts do not match the projection count")
    D, Hout, Wout = cfg.output_dims

    cd, cw = (D - 1) / 2.0, (Wout - 1) / 2.0
    ch_out, ch_det, cw_det = (Hout - 1) / 2.0, (Hdet - 1) / 2.0, (Wdet - 1) / 2.0
    zc = np.arange(D) - cd
    xc = np.arange(Wout) - cw

    # detector y per output row: integer-aligned when Hout == Hdet
    y_coords = (np.arange(Hout) - ch_out) + ch_det
    y0 = np.clip(np.floor(y_coords).astype(int), 0, Hdet - 1)
    y1 = np.clip(y0 + 1, 0, Hdet - 1)
    ty = np.clip(y_coords - y0, 0.0, 1.0)

    out = np.zeros((D, Hout, Wout), dtype=np.float64)
    for i in range(n_tilts):
        theta = np.radians(series.geometry.angles[i])
        weight = abs(np.cos(theta)) if cfg.weighting == "abs_cos" else 1.0
        if weight == 0.0:
            continue
        proj = series.projections[i].astype(np.float64)
        dx, dy = align.shifts[i]
        if dx or dy:
            proj = fourier_shift_2d(proj, -dx, -dy)
        proj = filter_projection(proj, cfg)
        # resample rows onto the output y grid
        rows = proj[y0, :] * (1.0 - ty)[:, None] + proj[y1, :] * ty[:, None]

        xprime = np.sin(theta) * zc[:, None] + np.cos(theta) * xc[None, :] + cw_det
        inside = (xprime >= 0.0) & (xprime <= Wdet - 1)
        xcl = np.clip(xprime, 0.0, Wdet - 1)
        i0 = np.floor(xcl).astype(int)
        i1 = np.minimum(i0 + 1, Wdet - 1)
        tx = xcl - i0
        # rows: (Hout, Wdet); gather per (d, w) then broadcast over h
        contrib = (
            rows[:, i0] * (1.0 - tx)[None, :, :] + rows[:, i1] * tx[None, :, :]
        )  # (Hout, D, Wout)
        contrib *= inside[None, :, :]
        out += weight * np.transpose(contrib, (1, 0, 2))
    out *= np.pi / (2.0 * n_tilts)
    return DensityVolume(out.astype(np.float32), series.voxel_size)
