"""Scan loaders either round-trip exactly or raise a located FormatError.

A broken ``bin`` record is named by its byte offset, a broken ``xyz`` or
``ply`` record or ``ply`` header line by its line number.
"""

from __future__ import annotations

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from voxmi import FormatError, PointCloud, load_scan, save_scan

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# KITTI records are float32
FINITE32 = st.floats(allow_nan=False, allow_infinity=False, width=32)
RECORD_CORRUPTIONS = ("truncated", "non-finite", "token", "count")


@st.composite
def clouds(draw, elements) -> PointCloud:
    n = draw(st.integers(1, 12))
    intensity = draw(st.one_of(st.none(), arrays(np.float64, n,
                                                 elements=elements)))
    return PointCloud(draw(arrays(np.float64, (n, 3), elements=elements)),
                      intensity=intensity)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["bin", "xyz", "ply"]))
def test_scans_round_trip_bit_for_bit(data, fmt):
    cloud = data.draw(clouds(FINITE32 if fmt == "bin" else FINITE))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"scan.{fmt}"
        save_scan(cloud, path)
        back = load_scan(path)
    assert back.points.tobytes() == cloud.points.tobytes()
    intensity = cloud.intensity
    if intensity is None and fmt == "bin":
        intensity = np.zeros(len(cloud))  # every KITTI record has one
    if intensity is None:
        assert back.intensity is None
    else:
        assert back.intensity.tobytes() == intensity.tobytes()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), kind=st.sampled_from(["truncated", "non-finite"]))
def test_corrupt_bin_scan_names_the_byte(data, kind):
    cloud = data.draw(clouds(FINITE32))
    k = data.draw(st.integers(0, len(cloud) - 1))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scan.bin"
        save_scan(cloud, path)
        raw = bytearray(path.read_bytes())
        if kind == "truncated":
            raw = raw[:16 * k + data.draw(st.integers(1, 15))]
        else:
            struct.pack_into("<f", raw, 16 * k + 4 * data.draw(
                st.integers(0, 3)), data.draw(st.sampled_from(
                    [math.nan, math.inf, -math.inf])))
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError) as err:
            load_scan(path)
    assert err.value.byte_offset == 16 * k
    assert str(err.value).startswith(f"{path}, byte {16 * k}: ")


def broken_header_line(data, lines: list[str], at: int) -> str:
    """Header line ``at`` of a saved PLY file, broken."""
    if at == 0:
        return "plyx"
    if at == 1:
        return "format binary_little_endian 1.0"
    if lines[at].startswith("element"):
        return data.draw(st.sampled_from(["element vertex many",
                                          "element vertex -1",
                                          "element vertex"]))
    return lines[at].replace("double", "uchar")


def broken_record(data, fields: list[str], kind: str) -> list[str]:
    """The fields of one saved record, broken one way; each way leaves a
    record that no file of the format accepts."""
    i = data.draw(st.integers(0, len(fields) - 1))
    if kind == "truncated":
        return fields[:data.draw(st.integers(1, 2))]
    if kind == "non-finite":
        fields[i] = data.draw(st.sampled_from(["nan", "inf", "-inf",
                                               "1e999"]))
    elif kind == "token":
        fields[i] = data.draw(st.sampled_from(["x", "1,5", "--1", "1e",
                                               "one"]))
    elif len(fields) == 3:  # "count": 2 or 5 fields
        del fields[i]
    else:
        fields.insert(i, "0")
    return fields


@settings(max_examples=300, deadline=None)
@given(data=st.data(), fmt=st.sampled_from(["xyz", "ply"]))
def test_corrupt_text_scan_names_the_line(data, fmt):
    cloud = data.draw(clouds(FINITE))
    kinds = RECORD_CORRUPTIONS + (("header",) if fmt == "ply" else ())
    kind = data.draw(st.sampled_from(kinds))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"scan.{fmt}"
        save_scan(cloud, path)
        lines = path.read_text().splitlines()
        first = lines.index("end_header") + 1 if fmt == "ply" else 0
        if kind == "header":
            at = data.draw(st.integers(0, first - 2))
            lines[at] = broken_header_line(data, lines, at)
        else:
            # a truncated file ends inside its last record
            at = (len(lines) - 1 if kind == "truncated"
                  else data.draw(st.integers(first, len(lines) - 1)))
            lines[at] = " ".join(broken_record(data, lines[at].split(),
                                               kind))
        path.write_text("\n".join(lines)
                        + ("" if kind == "truncated" else "\n"))
        with pytest.raises(FormatError) as err:
            load_scan(path)
    assert err.value.line == at + 1
    assert str(err.value).startswith(f"{path}, line {at + 1}: ")
