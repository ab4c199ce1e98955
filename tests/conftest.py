from dataclasses import dataclass

import numpy as np
import pytest

from cryoforge.nrcl import EmbeddingBatch
from cryoforge.volume import DensityVolume


def make_blob_pdb(rng: np.random.Generator, radius: float = 75.0, n: int = 900) -> str:
    """Solid ball of carbon atoms: a compact, featureless test structure."""
    pts = rng.uniform(-radius, radius, size=(5 * n, 3))
    pts = pts[np.linalg.norm(pts, axis=1) < radius][:n]
    return _pdb_from_points(pts)


def make_shell_pdb(rng: np.random.Generator, radius: float = 115.0, n: int = 900) -> str:
    """Hollow spherical shell of carbon atoms: visually distinct from the blob."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius + rng.normal(0.0, 3.0, size=(n, 1))
    return _pdb_from_points(r * v)


def _pdb_from_points(pts) -> str:
    lines = []
    for i, (x, y, z) in enumerate(pts, start=1):
        lines.append(
            f"ATOM  {i:5d}  CA  ALA A{(i % 9999):4d}    "
            f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
        )
    return "\n".join(lines) + "\nEND\n"


def gaussian_blob(shape, center, sigma, amplitude=1.0) -> np.ndarray:
    grids = np.meshgrid(*(np.arange(n, dtype=float) for n in shape), indexing="ij")
    r2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return amplitude * np.exp(-r2 / (2.0 * sigma**2))


def multi_blob_volume(n=64, blobs=6, seed=5) -> DensityVolume:
    """Several random Gaussian blobs away from the faces; recon test phantom."""
    rng = np.random.default_rng(seed)
    data = np.zeros((n, n, n))
    for _ in range(blobs):
        c = rng.uniform(0.3 * n, 0.7 * n, 3)
        data += gaussian_blob((n, n, n), c, rng.uniform(2.5, 4.5))
    return DensityVolume(data.astype(np.float32))


def shell_phantom(n=64) -> DensityVolume:
    """Spherically symmetric, high-contrast: projections are angle-independent."""
    grids = np.meshgrid(*(np.arange(n) - (n - 1) / 2.0,) * 3, indexing="ij")
    r2 = sum(g**2 for g in grids)
    data = np.exp(-r2 / (2 * 5.0**2)) + 0.6 * np.exp(
        -((np.sqrt(r2) - 14.0) ** 2) / (2 * 2.0**2)
    )
    return DensityVolume(data.astype(np.float32))


def band_limited_image(shape, rng, cutoff=0.15) -> np.ndarray:
    """Smooth random image: white noise low-passed well below Nyquist."""
    spec = np.fft.fft2(rng.normal(size=shape))
    fy = np.fft.fftfreq(shape[0])[:, None]
    fx = np.fft.fftfreq(shape[1])[None, :]
    spec[np.sqrt(fy**2 + fx**2) > cutoff] = 0.0
    return np.fft.ifft2(spec).real


def reference_fourier_shift_2d(img, dx, dy) -> np.ndarray:
    """The complex full-grid shift ``tiltsim.fourier_shift_2d`` replaced:
    fft2, the ramp exp(-2 pi i (fy dy + fx dx)), ifft2, real part."""
    H, W = img.shape
    fy = np.fft.fftfreq(H)[:, None]
    fx = np.fft.fftfreq(W)[None, :]
    phase = np.exp(-2j * np.pi * (fy * dy + fx * dx))
    return np.fft.ifft2(np.fft.fft2(img) * phase).real


def rot_z(angle: float) -> np.ndarray:
    """Rotation by ``angle`` radians about z."""
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def translation_error(t_est, t_gt) -> float:
    """Euclidean distance between estimated and ground-truth translations."""
    return float(np.linalg.norm(np.asarray(t_est, dtype=float) - np.asarray(t_gt, dtype=float)))


@dataclass
class PrecomputedEncoder:
    """An ``nrcl_step`` encoder that returns fixed embeddings whatever its input."""

    batch: EmbeddingBatch

    def encode(self, views: np.ndarray, originals: np.ndarray) -> EmbeddingBatch:
        return self.batch


SHIFT_SHAPES = [(64, 64), (63, 65), (64, 65), (40, 31)]  # even/odd on each axis


@pytest.fixture(autouse=True)
def _no_jobs_variable(monkeypatch):
    """The CLI and PipelineConfig read CRYOFORGE_JOBS; a test that needs it sets it."""
    monkeypatch.delenv("CRYOFORGE_JOBS", raising=False)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
