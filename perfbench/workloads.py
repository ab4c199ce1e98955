"""The benchmark's workloads and their ground-truth quality metrics.

Each workload makes its inputs from the benchmark seed in ``setup``, runs
one user-visible unit of work in ``op`` (the timed region), and afterwards
checks and scores the op's outputs against the truth the generator knows.
Top-level calls go through module attributes (``pipeline.run_pipeline``,
``cli.main``, ``apt.apt_forward``, ``nrcl.nrcl_step``) so a traced run can
wrap them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import shutil
from pathlib import Path

import numpy as np

from cryoforge import apt, cli, geometry, io as cio, nrcl, pipeline, scene
from cryoforge.volume import DensityVolume

SNR_TARGETS = (100.0, 0.1, 0.05, 0.03, 0.01)
BOX = 32  # ExtractionConfig.box, the subtomogram edge every workload uses


# -- input generators ----------------------------------------------------------


def blob_pdb(rng: np.random.Generator, radius: float = 75.0, n: int = 900) -> str:
    """Solid ball of carbon atoms (the acceptance suite's blob recipe)."""
    pts = rng.uniform(-radius, radius, size=(5 * n, 3))
    pts = pts[np.linalg.norm(pts, axis=1) < radius][:n]
    return _pdb_from_points(pts)


def shell_pdb(rng: np.random.Generator, radius: float = 115.0, n: int = 900) -> str:
    """Hollow spherical shell of carbon atoms (the acceptance suite's shell recipe)."""
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    r = radius + rng.normal(0.0, 3.0, size=(n, 1))
    return _pdb_from_points(r * v)


def _pdb_from_points(pts) -> str:
    lines = [
        f"ATOM  {i:5d}  CA  ALA A{(i % 9999):4d}    "
        f"{x:8.3f}{y:8.3f}{z:8.3f}  1.00  0.00           C"
        for i, (x, y, z) in enumerate(pts, start=1)
    ]
    return "\n".join(lines) + "\nEND\n"


# Closed-form particles: class "a" is one isotropic Gaussian, class "b" a
# dimer of two, separated along the particle's rotated w axis. The line
# integral of amp * exp(-r^2 / 2 s^2) is amp * s * sqrt(2 pi) times a 2D
# Gaussian of the same width, so tilt images need no projector.
SIGMA_A, SIGMA_B, DIMER_HALF_GAP = 3.0, 2.5, 4.0


def particle_gaussians(instances) -> np.ndarray:
    """Rows (d, h, w, sigma, amplitude) for each Gaussian of each instance."""
    rows = []
    for inst in instances:
        if inst.class_label == "a":
            rows.append((*inst.center, SIGMA_A, 1.0))
        else:
            axis = geometry.quat_to_matrix(inst.orientation)[:, 2]
            for sign in (-1.0, 1.0):
                rows.append((*(inst.center + sign * DIMER_HALF_GAP * axis), SIGMA_B, 1.0))
    return np.array(rows)


def gaussian_volume(shape, gaussians: np.ndarray) -> np.ndarray:
    """Sum of the Gaussians sampled at voxel centres, each within 5 sigma."""
    out = np.zeros(shape)
    for d, h, w, s, amp in gaussians:
        lo = [max(int(np.floor(c - 5 * s)), 0) for c in (d, h, w)]
        hi = [min(int(np.ceil(c + 5 * s)) + 1, n) for c, n in zip((d, h, w), shape)]
        axes = [
            np.exp(-((np.arange(a, b) - c) ** 2) / (2 * s * s))
            for a, b, c in zip(lo, hi, (d, h, w))
        ]
        out[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] += amp * np.einsum(
            "i,j,k->ijk", *axes
        )
    return out


def gaussian_tilt_stack(dims, gaussians, angles_deg, shifts) -> np.ndarray:
    """Tilt images of the Gaussians, drifted by ``shifts`` (dx, dy) per tilt.

    Same geometry as ``tiltsim.project_tilt``: tilt axis along h, detector
    x' = cos(t) (w - cw) + sin(t) (d - cd) + cw, detector y = h.
    """
    D, H, W = dims
    cd, cw = (D - 1) / 2.0, (W - 1) / 2.0
    d, h, w, s, amp = gaussians.T
    ys, xs = np.arange(H, dtype=float), np.arange(W, dtype=float)
    stack = np.empty((len(angles_deg), H, W))
    for i, (angle, (dx, dy)) in enumerate(zip(angles_deg, shifts)):
        t = np.radians(angle)
        xc = np.cos(t) * (w - cw) + np.sin(t) * (d - cd) + cw + dx
        gy = np.exp(-((ys[None, :] - (h + dy)[:, None]) ** 2) / (2 * s[:, None] ** 2))
        gx = np.exp(-((xs[None, :] - xc[:, None]) ** 2) / (2 * s[:, None] ** 2))
        stack[i] = gy.T @ ((amp * s * np.sqrt(2 * np.pi))[:, None] * gx)
    return stack


# -- quality against ground truth ---------------------------------------------


def drift_errors(applied, estimated) -> dict[str, float]:
    """x-drift RMS error of the estimate and of no correction at all.

    The common translation is unobservable, so both series are anchored
    to zero mean first (as align_series anchors its estimate).
    """
    a = np.asarray(applied, dtype=float)[:, 0]
    e = np.asarray(estimated, dtype=float)[:, 0]
    a, e = a - a.mean(), e - e.mean()
    return {
        "align_rms_x_px": float(np.sqrt(np.mean((e - a) ** 2))),
        "uncorrected_rms_x_px": float(np.sqrt(np.mean(a**2))),
    }


def pearson(a: np.ndarray, b: np.ndarray) -> float:
    a = a.astype(np.float64).ravel()
    b = b.astype(np.float64).ravel()
    a, b = a - a.mean(), b - b.mean()
    return float(a @ b / np.sqrt((a @ a) * (b @ b)))


def nearest_centroid_accuracy(volumes, labels) -> float:
    """Acceptance criterion 10's classifier on standardized volumes."""
    v = np.stack([(x.ravel() - x.mean()) / (x.std() + 1e-12) for x in volumes])
    labels = np.array(labels)
    classes = sorted(set(labels))
    centroids = np.stack([v[labels == c].mean(axis=0) for c in classes])
    predicted = np.array(classes)[np.argmax(v @ centroids.T, axis=1)]
    return float(np.mean(predicted == labels))


def snr_error(pairs) -> float:
    """max |realized SNR / target - 1| over (clean, noisy, target) triples."""
    worst = 0.0
    for clean, noisy, target in pairs:
        c = clean.astype(np.float64)
        realized = np.var(c) / np.var(noisy.astype(np.float64) - c)
        worst = max(worst, abs(realized / target - 1.0))
    return worst


def _read_subtomogram(path) -> np.ndarray:
    """A subtomogram read back through io.read_mrc, checked finite and box^3."""
    data = cio.read_mrc(path).data
    if data.shape != (BOX,) * 3 or not np.all(np.isfinite(data)):
        raise ValueError(f"{path}: expected a finite {BOX}^3 volume, got {data.shape}")
    return data


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# -- workloads -----------------------------------------------------------------


class Workload:
    """Base: inputs under work/inputs, op outputs under work/out."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> None:
        raise NotImplementedError

    def clear(self) -> None:
        """Remove the previous op's outputs (not timed)."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def check(self) -> dict:
        """Validate the op's outputs; return the fingerprint that must match
        the first op at this seed. Raises on an invalid output."""
        raise NotImplementedError

    def quality(self) -> dict[str, float]:
        return {}

    def provenance(self) -> dict[str, float]:
        return {}


class PipelineWorkload(Workload):
    """``run_pipeline`` on a two-class blob/shell scene."""

    dims: tuple[int, int, int]
    angles: list[float]
    per_class: int
    snr_targets: tuple[float, ...]
    jobs: int

    def scene_seed(self) -> int:
        return self.seed

    def setup(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        structures = {}
        for label, recipe in (("blob", blob_pdb), ("shell", shell_pdb)):
            path = self.inputs / f"{label}.pdb"
            path.write_text(recipe(rng))
            structures[label] = str(path)
        self.cfg = pipeline.PipelineConfig.from_dict(
            {
                "structures": structures,
                "output_dir": str(self.out),
                "seed": self.scene_seed(),
                "jobs": self.jobs,
                "particles_per_class": self.per_class,
                "snr_targets": list(self.snr_targets),
                "placement": {"volume_dims": list(self.dims)},
                "tilt": {"angles": self.angles, "shift_range": 1.0},
            }
        )

    def op(self) -> None:
        pipeline.run_pipeline(self.cfg)

    def _records(self):
        return cio.read_metadata(self.out / "metadata.ndjson")

    def check(self) -> dict:
        for rec in self._records():
            _read_subtomogram(self.out / rec.volume_path)
        return {"metadata_sha256": _digest(self.out / "metadata.ndjson")}

    def quality(self) -> dict[str, float]:
        out, cfg = self.out, self.cfg
        applied = [r["applied_shift"] for r in cio.read_ndjson(out / "tilt_series" / "angles.ndjson")]
        alignment = cio.read_ndjson(out / "alignment.ndjson")[0]
        q = drift_errors(applied, alignment["shifts"])
        q["axis_err_deg"] = abs(alignment["axis_angle_deg"])  # no axis error is simulated

        labels = sorted(cfg.structures)
        densities = {label: cio.read_mrc(out / "densities" / f"{label}.mrc") for label in labels}
        placement = dataclasses.replace(
            cfg.placement, seed=cfg.seed, target_count=cfg.particles_per_class * len(labels)
        )
        sample = scene.compose_sample(
            densities, scene.place_particles(labels, placement), placement
        )
        q["tomo_corr"] = pearson(cio.read_mrc(out / "tomogram.mrc").data, sample.data)

        records = self._records()
        clean = {
            r.volume_path: _read_subtomogram(out / r.volume_path)
            for r in records
            if r.snr_tag == "clean"
        }
        q["class_acc"] = nearest_centroid_accuracy(
            list(clean.values()), [r.class_label for r in records if r.snr_tag == "clean"]
        )
        pairs = []
        for r in records:
            if r.snr_tag != "clean":
                path = Path(r.volume_path)
                clean_path = str(path.parent.parent / "clean" / path.name)
                pairs.append((clean[clean_path], _read_subtomogram(out / path), float(r.snr_tag)))
        q["snr_err"] = snr_error(pairs)
        return q

    def provenance(self) -> dict[str, float]:
        rows = cio.read_ndjson(self.out / "provenance.ndjson")
        return {row["stage"]: row["elapsed_s"] for row in rows}


class TomoAccept(PipelineWorkload):
    """Acceptance criterion 10's scene, serial. Placement, drift and noise
    stay at the criterion's seed 11 so the ground-truth numbers compare
    with the test's; the benchmark seed draws the two PDB models' atoms
    (seed 101 gives the criterion's exact models)."""

    dims = (46, 360, 46)
    angles = [float(a) for a in np.arange(-60, 61, 2)]
    per_class = 5
    snr_targets = (100.0,)
    jobs = 1

    def scene_seed(self) -> int:
        return 11


class SlabJ2(PipelineWorkload):
    """A wider slab projected with two tilt threads, all five SNR targets."""

    dims = (64, 192, 128)
    angles = [float(a) for a in np.arange(-60, 61, 10)]
    per_class = 8
    snr_targets = SNR_TARGETS
    jobs = 2


class Reprocess(Workload):
    """The CLI chain align -> reconstruct -> extract -> noise, in process,
    on a closed-form tilt stack written at 10 A per voxel, then one
    training step on the subtomograms it wrote: APT tokenization of each
    SNR-0.1 copy and ``nrcl_step`` with the clean copy as positive, the
    SNR-0.05 copy as noisy negative and the shipped LossConfig."""

    dims = (96, 256, 256)
    per_class = 8
    voxel_size = 10.0

    def setup(self) -> None:
        self.inputs.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(self.seed)
        placement = scene.PlacementConfig(
            volume_dims=self.dims, target_count=2 * self.per_class, seed=self.seed
        )
        self.instances = scene.place_particles(["a", "b"], placement)
        self.gaussians = particle_gaussians(self.instances)
        angles = [float(a) for a in np.arange(-60, 61, 2)]
        self.shifts = rng.uniform(-1.0, 1.0, size=(len(angles), 2))
        stack = gaussian_tilt_stack(self.dims, self.gaussians, angles, self.shifts)
        cio.write_mrc(DensityVolume(stack, self.voxel_size), self.inputs / "tilts.mrc")
        cio.write_ndjson(
            [
                {"index": i, "angle_deg": a, "applied_shift": list(map(float, s))}
                for i, (a, s) in enumerate(zip(angles, self.shifts))
            ],
            self.inputs / "angles.ndjson",
        )
        cio.write_ndjson(
            [
                {
                    "class_label": inst.class_label,
                    "center": [float(v) for v in inst.center],
                    "orientation": [float(v) for v in inst.orientation],
                }
                for inst in self.instances
            ],
            self.inputs / "instances.ndjson",
        )
        self.net = apt.SteerableSelectionNet.random(rng)
        self.encoders = [
            nrcl.LinearProjectionEncoder(BOX**3, dim=16, seed=self.seed + k) for k in (0, 1)
        ]
        self.transforms = [
            [
                geometry.RigidTransform(
                    geometry.quat_to_matrix(scene.shoemake_quaternion(rng)),
                    rng.uniform(-2, 2, 3),
                )
                for _ in self.instances
            ]
            for _ in range(2)
        ]

    def clear(self) -> None:
        self.tokens, self.loss = None, None
        super().clear()
        for target in SNR_TARGETS:
            (self.out / "noisy" / f"{target:g}").mkdir(parents=True)

    def _cli(self, *argv: str) -> None:
        code = cli.main(list(argv))
        if code != 0:
            raise RuntimeError(f"cryoforge {' '.join(argv)} exited {code}")

    def op(self) -> None:
        inp, out = self.inputs, self.out
        tilts, angles = str(inp / "tilts.mrc"), str(inp / "angles.ndjson")
        with contextlib.redirect_stdout(io.StringIO()):
            self._cli("align", "--tilts", tilts, "--angles", angles,
                      "--out", str(out / "alignment.ndjson"))
            self._cli("reconstruct", "--tilts", tilts, "--angles", angles,
                      "--alignment", str(out / "alignment.ndjson"),
                      "--dims", ",".join(map(str, self.dims)), "--out", str(out / "tomo.mrc"))
            self._cli("--seed", str(self.seed), "extract", "--tomogram", str(out / "tomo.mrc"),
                      "--instances", str(inp / "instances.ndjson"), "--out", str(out / "sub"))
            names = [r.volume_path for r in cio.read_metadata(out / "sub" / "metadata.ndjson")]
            for i, name in enumerate(names):
                for j, target in enumerate(SNR_TARGETS):
                    tag = f"{target:g}"
                    self._cli("--seed", str(1000 * self.seed + 10 * i + j), "noise",
                              "--volume", str(out / "sub" / name), "--snr", tag,
                              "--out", str(out / "noisy" / tag / name))
        self._learn(names)

    def _learn(self, names: list[str]) -> None:
        def batch(folder: Path) -> np.ndarray:
            return np.stack([cio.read_mrc(folder / name).data for name in names])

        X, X_clean = batch(self.out / "noisy" / "0.1"), batch(self.out / "sub")
        X_noisy = batch(self.out / "noisy" / "0.05")
        rng = np.random.default_rng((self.seed, 1))
        self.tokens = [
            apt.apt_forward(v, apt.PatchSize(), self.net, mode="training", rng=rng)[1] for v in X
        ]
        T, T_prime = (t[: len(names)] for t in self.transforms)
        self.loss, _ = nrcl.nrcl_step(
            X, X_clean, X_noisy, T, T_prime, *self.encoders, nrcl.LossConfig()
        )

    def _subtomograms(self):
        """(record, clean, {tag: noisy}) per extracted subtomogram."""
        for rec in cio.read_metadata(self.out / "sub" / "metadata.ndjson"):
            clean = _read_subtomogram(self.out / "sub" / rec.volume_path)
            noisy = {
                f"{t:g}": _read_subtomogram(self.out / "noisy" / f"{t:g}" / rec.volume_path)
                for t in SNR_TARGETS
            }
            yield rec, clean, noisy

    def check(self) -> dict:
        list(self._subtomograms())
        if not np.isfinite(self.loss):
            raise ValueError(f"total loss {self.loss} is not finite")
        tokens = np.array(self.tokens, dtype=np.int64).tobytes()
        return {
            "metadata_sha256": _digest(self.out / "sub" / "metadata.ndjson"),
            "loss": float(self.loss),
            "tokens_sha256": hashlib.sha256(tokens).hexdigest(),
        }

    def quality(self) -> dict[str, float]:
        alignment = cio.read_ndjson(self.out / "alignment.ndjson")[0]
        q = drift_errors(self.shifts, alignment["shifts"])
        q["axis_err_deg"] = abs(alignment["axis_angle_deg"])
        tomo = cio.read_mrc(self.out / "tomo.mrc")
        q["tomo_corr"] = pearson(tomo.data, gaussian_volume(self.dims, self.gaussians))
        volumes, labels, pairs = [], [], []
        for rec, clean, noisy in self._subtomograms():
            volumes.append(clean)
            labels.append(rec.class_label)
            pairs += [(clean, noisy[f"{t:g}"], t) for t in SNR_TARGETS]
        q["class_acc"] = nearest_centroid_accuracy(volumes, labels)
        q["snr_err"] = snr_error(pairs)
        # reconstruct drops the stack's voxel size; every later file inherits it
        sizes = [tomo.voxel_size] + [
            cio.read_mrc(p).voxel_size
            for p in sorted(self.out.glob("sub/*.mrc")) + sorted(self.out.glob("noisy/*/*.mrc"))
        ]
        q["voxel_size_mismatch"] = float(
            sum(abs(v - self.voxel_size) > 1e-3 * self.voxel_size for v in sizes)
        )
        return q


WORKLOADS = {
    "tomo_accept": TomoAccept,
    "slab_j2": SlabJ2,
    "reprocess": Reprocess,
}
