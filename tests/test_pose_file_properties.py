"""Pose-file loaders either round-trip exactly or raise a located FormatError.

``load_kitti_poses`` reads one 12-number record per line; ``load_transform``
reads one 12- or 16-number record from a whole file.  Both go through one
record parser, so one set of corruptions is checked against both.
"""

from __future__ import annotations

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxmi import (
    EulerPose,
    FormatError,
    euler_to_transform,
    load_kitti_poses,
    load_transform,
    save_kitti_poses,
)

COORD = st.floats(-1e6, 1e6)
ANGLE = st.floats(-math.pi, math.pi)
TRANSFORMS = st.builds(EulerPose, COORD, COORD, COORD, ANGLE, ANGLE,
                       ANGLE).map(euler_to_transform)
CORRUPTIONS = ("token", "non-finite", "count", "drift", "last row")


def fields_of(t: np.ndarray, size: int) -> list[str]:
    """The first ``size`` matrix entries, row-major, as exact text."""
    return [repr(float(v)) for v in t.ravel()[:size]]


@st.composite
def corrupted_record(draw, size: int) -> list[str]:
    """The fields of one valid ``size``-number record, broken one way."""
    t = draw(TRANSFORMS)
    kind = draw(st.sampled_from(
        CORRUPTIONS if size == 16 else CORRUPTIONS[:-1]))
    if kind == "drift":
        t[:3, :3] *= draw(st.sampled_from([1.0, -1.0])) * (
            1.0 + draw(st.floats(1e-5, 0.5)))
    elif kind == "last row":
        col = draw(st.integers(0, 3))
        t[3, col] += draw(st.floats(1e-9, 1e3)) * draw(
            st.sampled_from([1.0, -1.0]))
    fields = fields_of(t, size)
    i = draw(st.integers(0, size - 1))
    if kind == "token":
        fields[i] = draw(st.sampled_from(["x", "1,5", "--1", "1e", "one"]))
    elif kind == "non-finite":
        fields[i] = draw(st.sampled_from(["nan", "inf", "-inf", "1e999"]))
    elif kind == "count":
        if draw(st.booleans()):
            del fields[i]
        else:
            fields.insert(i, "0")
    return fields


@settings(max_examples=100, deadline=None)
@given(track=st.lists(TRANSFORMS, min_size=1, max_size=8))
def test_pose_tracks_round_trip_bit_for_bit(track):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "poses.txt"
        save_kitti_poses(track, path)
        back = load_kitti_poses(path)
    assert back.matrices.tobytes() == np.stack(track).tobytes()


@settings(max_examples=100, deadline=None)
@given(t=TRANSFORMS, size=st.sampled_from([12, 16]))
def test_transform_files_round_trip_bit_for_bit(t, size):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "init.txt"
        path.write_text(" ".join(fields_of(t, size)) + "\n")
        back = load_transform(path)
    assert back.tobytes() == t.tobytes()


@settings(max_examples=200, deadline=None)
@given(data=st.data(), track=st.lists(TRANSFORMS, min_size=1, max_size=6))
def test_corrupt_pose_line_names_the_file_and_line(data, track):
    lines = [" ".join(fields_of(t, 12)) for t in track]
    k = data.draw(st.integers(0, len(lines) - 1))
    lines[k] = " ".join(data.draw(corrupted_record(12)))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "poses.txt"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            load_kitti_poses(path)
    assert err.value.line == k + 1
    assert str(err.value).startswith(f"{path}, line {k + 1}: ")


@settings(max_examples=200, deadline=None)
@given(data=st.data(), size=st.sampled_from([12, 16]))
def test_corrupt_transform_file_names_the_file(data, size):
    fields = data.draw(corrupted_record(size))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "init.txt"
        path.write_text(" ".join(fields) + "\n")
        with pytest.raises(FormatError) as err:
            load_transform(path)
    assert str(err.value).startswith(f"{path}: ")
