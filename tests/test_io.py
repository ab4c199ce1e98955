import io
import json
import os
import re
import struct
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from cryoforge import io as cio
from cryoforge.io import (
    SubtomogramRecord,
    read_alignment,
    read_metadata,
    read_mrc,
    read_ndjson,
    write_mrc,
    write_ndjson,
)
from cryoforge.scene import ParticleInstance
from cryoforge.subtomo import ExtractedSubtomogram
from cryoforge.tiltalign import AlignmentResult
from cryoforge.volume import DensityVolume


def test_round_trip_zero_volume(tmp_path):
    vol = DensityVolume(np.zeros((4, 4, 4)), voxel_size=2.5)
    path = tmp_path / "z.mrc"
    write_mrc(vol, path)
    back = read_mrc(path)
    assert back.shape == (4, 4, 4)
    assert np.array_equal(back.data, vol.data)
    assert back.voxel_size == pytest.approx(2.5, abs=1e-6)


def test_round_trip_is_byte_stable(tmp_path, rng):
    vol = DensityVolume(rng.normal(size=(32, 32, 32)).astype(np.float32), voxel_size=10.0)
    p1, p2 = tmp_path / "a.mrc", tmp_path / "b.mrc"
    write_mrc(vol, p1)
    back = read_mrc(p1)
    assert np.array_equal(back.data, vol.data)  # bit-exact payload
    write_mrc(back, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_stats_zero_volume(tmp_path):
    path = tmp_path / "z.mrc"
    write_mrc(DensityVolume(np.zeros((3, 3, 3))), path)
    dmin, dmax, dmean = struct.unpack_from("<3f", path.read_bytes(), 76)
    assert (dmin, dmax, dmean) == (0.0, 0.0, 0.0)


def test_header_stats_single_hot_voxel(tmp_path):
    data = np.zeros((2, 2, 2), dtype=np.float32)
    data[0, 0, 0] = 1.0
    path = tmp_path / "h.mrc"
    write_mrc(DensityVolume(data), path)
    _, dmax, dmean = struct.unpack_from("<3f", path.read_bytes(), 76)
    assert dmax == 1.0
    assert dmean == pytest.approx(0.125)


def test_header_rms_is_float64_std_of_payload(tmp_path, rng):
    data = (rng.normal(size=(7, 9, 11)) * 3.0 + 100.0).astype(np.float32)
    path = tmp_path / "r.mrc"
    write_mrc(DensityVolume(data), path)
    (rms,) = struct.unpack_from("<f", path.read_bytes(), 216)
    ref = np.std(data.astype(np.float64))
    assert abs(rms - ref) <= np.spacing(np.float32(ref))  # float32 rounding of the float64 std


def test_write_mrc_allocates_less_than_the_payload(tmp_path, rng):
    vol = DensityVolume(rng.normal(size=(16, 128, 128)).astype(np.float32))
    write_mrc(vol, tmp_path / "warm.mrc")
    tracemalloc.start()
    try:
        write_mrc(vol, tmp_path / "v.mrc")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rms temporary, one float64 chunk, is half of this 1 MB payload
    assert peak < vol.data.nbytes


def test_read_mrc_takes_the_payload_from_the_file_whose_header_it_read(
    tmp_path, rng, monkeypatch
):
    path, other = tmp_path / "v.mrc", tmp_path / "other.mrc"
    first = DensityVolume(rng.normal(size=(4, 5, 6)).astype(np.float32))
    write_mrc(first, path)
    write_mrc(DensityVolume(first.data + 1.0), other)

    class SwapAfterFirstRead(io.FileIO):
        """A handle that renames ``other`` onto ``path`` as soon as its first
        read, the header's, has returned."""

        def read(self, size=-1):
            data = super().read(size)
            if other.exists():
                os.replace(other, path)
            return data

    monkeypatch.setattr(cio, "open", SwapAfterFirstRead, raising=False)
    back = read_mrc(path)
    assert not other.exists()  # the rename happened mid-read
    assert np.array_equal(back.data, first.data)


def test_header_dims_and_magic(tmp_path):
    path = tmp_path / "d.mrc"
    write_mrc(DensityVolume(np.zeros((2, 3, 4)), voxel_size=10.0), path)
    raw = path.read_bytes()
    nx, ny, nz = struct.unpack_from("<3i", raw, 0)
    assert (nx, ny, nz) == (4, 3, 2)  # w fastest on disk
    assert raw[208:212] == b"MAP "
    assert raw[212:216] == b"\x44\x44\x00\x00"
    cella = struct.unpack_from("<3f", raw, 40)
    assert cella == pytest.approx((40.0, 30.0, 20.0))


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.mrc"
    write_mrc(DensityVolume(np.ones((4, 4, 4))), path)
    path.write_bytes(path.read_bytes()[:-10])
    message = f"{path}: truncated data section, expected 1280 bytes, found 1270"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_mrc(path)


def test_short_header_rejected(tmp_path):
    path = tmp_path / "s.mrc"
    path.write_bytes(b"\x00" * 100)
    message = f"{path}: file shorter than the 1024-byte MRC header"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_mrc(path)


def test_unsupported_mode_rejected(tmp_path):
    path = tmp_path / "m.mrc"
    write_mrc(DensityVolume(np.ones((2, 2, 2))), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<i", raw, 12, 1)  # mode 1: 16-bit int
    path.write_bytes(bytes(raw))
    message = f"{path}: mode 1 unsupported, only mode 2 is handled"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_mrc(path)


def test_missing_magic_rejected(tmp_path):
    path = tmp_path / "g.mrc"
    write_mrc(DensityVolume(np.ones((2, 2, 2))), path)
    raw = bytearray(path.read_bytes())
    raw[208:212] = b"XXXX"
    path.write_bytes(bytes(raw))
    message = f"{path}: missing 'MAP ' magic at byte 208"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_mrc(path)


def _with_header_floats(tmp_path, offset, values):
    """An MRC file whose three header floats at ``offset`` are ``values``."""
    path = tmp_path / "h.mrc"
    write_mrc(DensityVolume(np.ones((2, 2, 2)), voxel_size=5.0), path)
    raw = bytearray(path.read_bytes())
    struct.pack_into("<3f", raw, offset, *values)
    path.write_bytes(bytes(raw))
    return path


# an inf cella read as voxel size inf behind a numpy RuntimeWarning, and a
# NaN one failed in DensityVolume without naming the file
@pytest.mark.parametrize("bad", [np.inf, np.nan, -np.inf])
def test_non_finite_cella_is_rejected_naming_the_file(tmp_path, bad):
    path = _with_header_floats(tmp_path, 40, (10.0, bad, 10.0))
    message = f"{path}: cella must be finite and positive, got {float(bad)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_mrc(path)


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_non_finite_origin_is_rejected_naming_the_file(tmp_path, bad):
    path = _with_header_floats(tmp_path, 196, (0.0, 0.0, bad))
    message = f"{path}: origin must be finite, got {float(bad)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_mrc(path)


def _record(i=0, q=(1.0, 0.0, 0.0, 0.0)):
    return SubtomogramRecord(
        volume_path=f"sub/{i}.mrc",
        class_label="6drv",
        center_offset=(1.0, -2.0, 0.0),
        orientation=q,
        snr_tag="clean",
        mask_path=f"masks/{i}.mrc",
    )


def test_write_subtomogram_writes_volume_and_relative_record(tmp_path):
    sub = ExtractedSubtomogram(
        data=np.ones((8, 8, 8), dtype=np.float32),
        class_label="6drv",
        center_offset=(1, -2, 0),
        orientation=(1.0, 0.0, 0.0, 0.0),
        crop_corner=(0, 0, 0),
    )
    vol = DensityVolume(sub.data, voxel_size=2.0)
    path = tmp_path / "sub" / "0.1" / "0000.mrc"
    rec = cio.write_subtomogram(vol, sub, path, tmp_path, "0.1", tmp_path / "masks" / "0000.mrc")
    assert rec == SubtomogramRecord(
        "sub/0.1/0000.mrc", "6drv", (1.0, -2.0, 0.0), (1.0, 0.0, 0.0, 0.0), "0.1",
        "masks/0000.mrc",
    )
    assert np.array_equal(read_mrc(path).data, sub.data)
    assert cio.write_subtomogram(vol, sub, path, path.parent, "clean").mask_path is None


def test_metadata_empty_round_trip(tmp_path):
    path = tmp_path / "m.ndjson"
    write_ndjson([], path)
    assert path.read_text() == ""
    assert read_metadata(path) == []


def test_metadata_identity_quaternion_round_trip(tmp_path):
    path = tmp_path / "m.ndjson"
    rec = _record()
    write_ndjson([rec], path)
    assert read_metadata(path) == [rec]


def test_metadata_many_random_quaternions_round_trip(tmp_path, rng):
    records = []
    for i in range(1000):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        records.append(_record(i, tuple(q)))
    path = tmp_path / "m.ndjson"
    write_ndjson(records, path)
    assert read_metadata(path) == records


def test_metadata_bad_line_reports_line_number(tmp_path):
    path = tmp_path / "m.ndjson"
    write_ndjson([_record()], path)
    path.write_text(path.read_text() + "not json\n")
    message = f"{path}: line 2: invalid JSON: Expecting value: line 1 column 1 (char 0)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_metadata(path)


def test_metadata_invalid_record_rejected(tmp_path):
    path = tmp_path / "m.ndjson"
    path.write_text('{"volume_path": "a", "class_label": "x"}\n')
    message = f"{path}: line 1: missing field 'center_offset'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_metadata(path)


def test_record_validates_quaternion_and_tag():
    with pytest.raises(ValueError):
        _record(q=(1.0, 0.5, 0.0, 0.0))
    for q in [(np.nan, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0)]:  # the NaN one used to pass
        with pytest.raises(ValueError, match="orientation"):
            _record(q=q)
    with pytest.raises(ValueError):
        SubtomogramRecord("a", "b", (0, 0, 0), (1, 0, 0, 0), snr_tag="0.02")


@pytest.mark.parametrize(
    "row, message",
    [
        ({"shifts": [[0.0, 0.0], [float("nan"), 0.0]]}, "shifts must be finite, got nan$"),
        ({"shifts": [[0.0, 0.0]], "axis_angle_deg": float("inf")}, "axis_angle_deg must be finite, got inf$"),
        ({"shifts": [[0.0, 0.0], [1.0, 2.0, 3.0]]}, r"shifts must be a \(dx, dy\) pair, got \[1\.0, 2\.0, 3\.0\]$"),
        # a shift that is no list used to read as "'int' object is not iterable"
        ({"shifts": [5, [0.0, 0.0]]}, r"shifts must be a \(dx, dy\) pair, got 5$"),
    ],
)
def test_read_alignment_rejects_bad_values_naming_the_line(tmp_path, row, message):
    # a NaN shift used to be back-projected and fail later as a NaN volume
    path = tmp_path / "alignment.ndjson"
    write_ndjson([row], path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: {message}"):
        read_alignment(path)


@pytest.mark.parametrize(
    "read, row, message",
    [
        (read_alignment, {"shift": [[0.0, 0.0]]}, "missing field 'shifts'"),
        (read_alignment, {"shifts": [[0.0, 0.0]], "axis_angle": 1.0}, "unknown field 'axis_angle'"),
        (read_metadata, {**asdict(_record()), "snr": 0.1}, "unknown field 'snr'"),
    ],
)
def test_read_into_a_dataclass_names_a_missing_or_unknown_field(tmp_path, read, row, message):
    # an unknown key used to be dropped without a word
    path = tmp_path / "rows.ndjson"
    write_ndjson([row], path)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 1: {message}')}$"):
        read(path)


@pytest.mark.parametrize("line", ["5", "[1, 2]", '"index"'])
def test_read_into_a_dataclass_names_a_row_that_is_not_an_object(tmp_path, line):
    # a 5 used to read as "argument of type 'int' is not iterable", and
    # [1, 2] as "missing field 'index'"
    path = tmp_path / "angles.ndjson"
    path.write_text(line + "\n")
    message = f"{path}: line 1: must be a JSON object, got {json.loads(line)!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_ndjson(path, cio.TiltRow)


def test_read_alignment_drops_only_the_keys_older_files_carry(tmp_path):
    # files written before axis_offset and residual_mse were dropped from
    # the row still read, as the row they hold today
    old = {"axis_angle_deg": -0.4, "axis_offset": 1.3, "residual_mse": 0.02,
           "shifts": [[0.5, -0.25], [0.0, 0.0]]}
    write_ndjson([old], tmp_path / "old.ndjson")
    assert read_alignment(tmp_path / "old.ndjson") == AlignmentResult(
        shifts=[(0.5, -0.25), (0.0, 0.0)], axis_angle_deg=-0.4
    )
    path = tmp_path / "bogus.ndjson"
    write_ndjson([{**old, "residual": 0.02}], path)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: line 1: unknown field 'residual'$"):
        read_alignment(path)


@pytest.mark.parametrize(
    "row, message",
    [
        # the first used to fail in read_tilt_series as "'int' object is not
        # iterable", and the other two passed
        ({"index": 0, "angle_deg": -10.0, "applied_shift": 5}, "applied_shift must be a (dx, dy) pair, got 5"),
        ({"index": "x", "angle_deg": -10.0, "applied_shift": [0.0, 0.0]}, "index must be an integer >= 0, got 'x'"),
        ({"index": 0, "angle_deg": -10.0, "applied_shift": [float("nan"), 0.0]}, "applied_shift must be finite, got nan"),
    ],
)
def test_tilt_row_names_a_bad_index_or_shift(tmp_path, row, message):
    path = tmp_path / "angles.ndjson"
    write_ndjson([row], path)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 1: {message}')}$"):
        read_ndjson(path, cio.TiltRow)


def test_write_ndjson_writes_a_dataclass_as_its_fields_and_arrays_as_lists(tmp_path):
    path = tmp_path / "r.ndjson"
    write_ndjson([ParticleInstance("a", [1, 2, 3], [1, 0, 0, 0])], path)
    assert path.read_text() == (
        '{"center": [1.0, 2.0, 3.0], "class_label": "a", "orientation": [1.0, 0.0, 0.0, 0.0]}\n'
    )


def test_ndjson_round_trip(tmp_path):
    rows = [{"a": 1, "b": [1.5, 2.5]}, {"a": 2, "b": []}]
    path = tmp_path / "r.ndjson"
    write_ndjson(rows, path)
    assert read_ndjson(path) == rows


def _failing_mrc_write(monkeypatch, path):
    def boom(*args, **kwargs):
        raise OSError("disk full")

    # the header is already written when the payload conversion fails
    monkeypatch.setattr(cio.np, "ascontiguousarray", boom)
    write_mrc(DensityVolume(np.ones((2, 2, 2), dtype=np.float32)), path)


def _failing_metadata_write(monkeypatch, path):
    write_ndjson([_record(), object()], path)  # the second record is no dataclass


def _failing_ndjson_write(monkeypatch, path):
    write_ndjson([{"a": 1}, {"b": object()}], path)  # the second row is not JSON


@pytest.mark.parametrize(
    "failing_write", [_failing_mrc_write, _failing_metadata_write, _failing_ndjson_write]
)
def test_failed_write_keeps_previous_file_and_leaves_no_temporary(
    monkeypatch, tmp_path, failing_write
):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous")
    with pytest.raises((OSError, TypeError)):
        failing_write(monkeypatch, path)
    assert path.read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]
