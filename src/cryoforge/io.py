"""MRC2014 volume I/O (mode 2 only), NDJSON ground-truth sidecars, and the
stage artifacts the CLI and the pipeline share.

The writer emits a standard 1024-byte MRC2014 header followed by the raw
float32 payload, little-endian, machine stamp 0x44 0x44 0x00 0x00. Only
mode 2 (32-bit float) is supported; everything the pipeline produces is a
float density and keeping a single mode makes round-trips bit-exact.

Ground-truth metadata travels in newline-delimited JSON sidecars, one
record per line, so it stays human-inspectable and streamable. One codec
writes and reads them all: a row is a dict (provenance) or a dataclass
whose fields are the row's keys (``SubtomogramRecord``, ``TiltRow``,
``AlignmentResult``, ``scene.ParticleInstance``, ``subtomo.Rejection``);
``from_row`` reads a row into a dataclass, and ``pipeline`` reads its
config the same way: the row must be an object that carries every required
field and no other. A malformed MRC file fails as a ValueError naming the
file, and a malformed NDJSON row as a ValueError naming the file and the
line (``<path>: line N: ...``).
The tilt series (``tilts.mrc`` + ``angles.ndjson``) and the subtomograms
have their own writer and reader. The CLI subcommands and
``run_pipeline`` both go through them, so a pipeline run's files feed the
CLI stages.

Every writer fills a hidden temporary sibling of its target and renames
it onto the target only once the write is complete, so a failed write
leaves any previous file intact and no partial file behind.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .geometry import unit_quaternion
from .subtomo import SNR_TARGETS, ExtractedSubtomogram, snr_tag
from .tiltalign import AlignmentResult
from .tiltsim import TiltGeometry, TiltSeries
from .volume import DensityVolume, centred_sums, float_in, int_at_least, shift_pair, three_ints

HEADER_SIZE = 1024
MODE_FLOAT32 = 2
_MACHINE_STAMP_LE = b"\x44\x44\x00\x00"

SNR_TAGS = ("clean",) + tuple(snr_tag(t) for t in SNR_TARGETS)


@dataclass
class SubtomogramRecord:
    """Per-subtomogram ground truth carried alongside the MRC files."""

    volume_path: str
    class_label: str
    center_offset: tuple[float, float, float]
    orientation: tuple[float, float, float, float]  # unit quaternion (w, x, y, z)
    snr_tag: str
    mask_path: str | None = None

    def __post_init__(self):
        self.center_offset = tuple(float(v) for v in self.center_offset)
        self.orientation = tuple(unit_quaternion(self.orientation).tolist())
        if len(self.center_offset) != 3:
            raise ValueError("center_offset must have 3 components")
        if self.snr_tag not in SNR_TAGS:
            raise ValueError(f"snr_tag must be one of {SNR_TAGS}, got {self.snr_tag!r}")


@dataclass(frozen=True)
class TiltRow:
    """One row of ``angles.ndjson``: a view's index, tilt angle and the
    drift applied to it."""

    index: int
    angle_deg: float
    applied_shift: tuple[float, float]

    def __post_init__(self):
        int_at_least(self.index, "index", 0)
        object.__setattr__(self, "applied_shift", shift_pair(self.applied_shift, "applied_shift"))


@contextmanager
def _replacing(path, mode: str):
    """Open a temporary sibling of ``path`` for writing; on a clean exit
    rename it onto ``path``, on an exception delete it."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_mrc(vol: DensityVolume, path) -> None:
    """Write a volume as an MRC2014 mode-2 file.

    nx/ny/nz map to (W, H, D) of the (d, h, w) data array; cella is the
    voxel size times the grid dimensions; dmin/dmax/dmean/rms are computed
    from the payload, rms (its standard deviation) in float64 by
    ``volume.centred_sums``, without a payload-sized temporary.
    """
    data = vol.data
    nz, ny, nx = data.shape  # (d, h, w) -> nz, ny, nx
    header = bytearray(HEADER_SIZE)
    struct.pack_into("<3i", header, 0, nx, ny, nz)
    struct.pack_into("<i", header, 12, MODE_FLOAT32)
    struct.pack_into("<3i", header, 16, 0, 0, 0)  # nxstart/nystart/nzstart
    struct.pack_into("<3i", header, 28, nx, ny, nz)  # mx/my/mz
    struct.pack_into(
        "<3f", header, 40, nx * vol.voxel_size, ny * vol.voxel_size, nz * vol.voxel_size
    )
    struct.pack_into("<3f", header, 52, 90.0, 90.0, 90.0)  # cell angles
    struct.pack_into("<3i", header, 64, 1, 2, 3)  # mapc/mapr/maps
    struct.pack_into(
        "<3f", header, 76, float(data.min()), float(data.max()), float(data.mean())
    )
    struct.pack_into("<i", header, 88, 1)  # ispg: 3D volume
    struct.pack_into("<i", header, 92, 0)  # nsymbt
    struct.pack_into("<3f", header, 196, *vol.origin.tolist())
    header[208:212] = b"MAP "
    header[212:216] = _MACHINE_STAMP_LE
    struct.pack_into("<f", header, 216, np.sqrt(centred_sums(data)[0] / data.size))
    struct.pack_into("<i", header, 220, 0)  # nlabl
    with _replacing(path, "wb") as fh:
        fh.write(bytes(header))
        fh.write(np.ascontiguousarray(data, dtype="<f4").data)


def read_mrc(path) -> DensityVolume:
    """Read an MRC2014 mode-2 file written by :func:`write_mrc` or peers,
    header and payload from one handle, the payload once, into the array."""
    path = Path(path)
    with open(path, "rb") as fh:
        header = fh.read(HEADER_SIZE)
        size = os.fstat(fh.fileno()).st_size
        if len(header) < HEADER_SIZE:
            raise ValueError(f"{path}: file shorter than the 1024-byte MRC header")
        nx, ny, nz = struct.unpack_from("<3i", header, 0)
        (mode,) = struct.unpack_from("<i", header, 12)
        if header[208:212] != b"MAP ":
            raise ValueError(f"{path}: missing 'MAP ' magic at byte 208")
        if mode != MODE_FLOAT32:
            raise ValueError(f"{path}: mode {mode} unsupported, only mode 2 is handled")
        mx, my, mz = struct.unpack_from("<3i", header, 28)
        cella = struct.unpack_from("<3f", header, 40)
        (nsymbt,) = struct.unpack_from("<i", header, 92)
        origin = np.array(struct.unpack_from("<3f", header, 196), dtype=np.float32)
        try:
            three_ints((nx, ny, nz), "dimensions nx,ny,nz")
            three_ints((mx, my, mz), "sampling grid mx,my,mz")
            for v in cella:
                float_in(v, "cella", "(0, inf)")
            int_at_least(nsymbt, "nsymbt", 0)
            for v in origin.tolist():
                float_in(v, "origin", "(-inf, inf)")
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        voxel_sizes = np.array(cella, dtype=np.float64) / np.array([mx, my, mz], dtype=np.float64)
        if np.ptp(voxel_sizes) > 1e-4 * voxel_sizes.mean():
            raise ValueError(f"{path}: anisotropic voxels {tuple(voxel_sizes)} unsupported")
        n_values = nx * ny * nz
        expected = HEADER_SIZE + nsymbt + 4 * n_values
        if size < expected:
            raise ValueError(
                f"{path}: truncated data section, expected {expected} bytes, found {size}"
            )
        # offset counts from the handle's position, the end of the header
        data = np.fromfile(fh, dtype="<f4", count=n_values, offset=nsymbt)
    data = data.reshape(nz, ny, nx)  # x fastest on disk -> (d, h, w)
    return DensityVolume(data, float(voxel_sizes.mean()), origin)


def _jsonable(value):
    """``json.dumps`` hook: a numpy array as its list; anything else that
    json cannot write stays a TypeError."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_ndjson(rows, path) -> None:
    """Write rows as NDJSON, one per line with sorted keys: a dict as it is
    (provenance, embeddings...), a dataclass as its fields."""
    with _replacing(path, "w") as fh:
        for row in rows:
            row = row if isinstance(row, dict) else asdict(row)
            fh.write(json.dumps(row, sort_keys=True, default=_jsonable))
            fh.write("\n")


def from_row(cls, row):
    """``cls(**row)``, once ``row`` is a JSON object that holds every
    required field of the dataclass ``cls`` and no key that is not one of
    its fields. Every NDJSON row and every section of a pipeline config is
    read through it."""
    if not isinstance(row, dict):
        raise ValueError(f"must be a JSON object, got {row!r}")
    names = {f.name for f in fields(cls)}
    for f in fields(cls):
        if f.name not in row and f.default is MISSING and f.default_factory is MISSING:
            raise ValueError(f"missing field {f.name!r}")
    for key in row:
        if key not in names:
            raise ValueError(f"unknown field {key!r}")
    return cls(**row)


def read_ndjson(path, cls=None, ignore=()) -> list:
    """NDJSON rows of ``path``: dicts, or ``cls(**row)`` per line for a
    dataclass ``cls``, once the keys named in ``ignore`` are dropped. A
    line that is not JSON, or that ``from_row`` refuses, raises a
    ValueError that reads ``<path>: line N: ...``."""
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if isinstance(row, dict):
                for key in ignore:
                    row.pop(key, None)
            try:
                rows.append(row if cls is None else from_row(cls, row))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def write_subtomogram(
    vol: DensityVolume, sub: ExtractedSubtomogram, path, root, snr_tag: str, mask_path=None
) -> SubtomogramRecord:
    """Write one copy of an extracted subtomogram to ``path`` (creating its
    directory) and return its record: the label, jitter and pose of
    ``sub``, the copy's ``snr_tag``, and ``path`` and ``mask_path``
    relative to ``root``."""
    path, root = Path(path), Path(root)
    path.parent.mkdir(parents=True, exist_ok=True)
    write_mrc(vol, path)
    return SubtomogramRecord(
        volume_path=str(path.relative_to(root)),
        class_label=sub.class_label,
        center_offset=sub.center_offset,
        orientation=sub.orientation,
        snr_tag=snr_tag,
        mask_path=None if mask_path is None else str(Path(mask_path).relative_to(root)),
    )


def read_metadata(path) -> list[SubtomogramRecord]:
    return read_ndjson(path, SubtomogramRecord)


def write_tilt_series(series: TiltSeries, directory) -> None:
    """Write ``directory/tilts.mrc``, the series' float32 stack as it is,
    at the series' voxel size, and ``directory/angles.ndjson``, one
    TiltRow per tilt."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    write_mrc(DensityVolume(series.projections, series.voxel_size), directory / "tilts.mrc")
    views = zip(series.geometry.angles, series.applied_shifts)
    write_ndjson([TiltRow(i, a, s) for i, (a, s) in enumerate(views)], directory / "angles.ndjson")


def read_tilt_series(tilts_path, angles_path) -> TiltSeries:
    """Read a stack and its angle rows back as a TiltSeries whose
    ``projections`` is the stack's float32 payload itself. Row i of the
    angles file must carry index i."""
    stack = read_mrc(tilts_path)
    rows = read_ndjson(angles_path, TiltRow)
    views = len(stack.data)
    if len(rows) != views:
        raise ValueError(f"{tilts_path}: {views} views, {angles_path}: {len(rows)} angles")
    try:
        for i, row in enumerate(rows):
            if row.index != i:
                raise ValueError(f"row {i} has index {row.index}, expected {i}")
        geometry = TiltGeometry(angles=[row.angle_deg for row in rows])
    except ValueError as exc:
        raise ValueError(f"{angles_path}: {exc}") from exc
    return TiltSeries(
        geometry=geometry,
        projections=stack.data,
        applied_shifts=[row.applied_shift for row in rows],
        voxel_size=stack.voxel_size,
    )


def read_alignment(path) -> AlignmentResult:
    """Read the one alignment row. Only ``shifts`` is required (it is all
    that reconstruction uses); an absent axis angle reads as 0. The keys
    ``axis_offset`` and ``residual_mse``, which older files carry and
    nothing reads, are dropped."""
    rows = read_ndjson(path, AlignmentResult, ignore=("axis_offset", "residual_mse"))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one alignment row, found {len(rows)}")
    return rows[0]
