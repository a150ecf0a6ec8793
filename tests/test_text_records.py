"""Every text reader checks a record of numbers the same way, and PLY
refuses data past its declared vertices."""

from __future__ import annotations

import numpy as np
import pytest

from voxmi import (
    FormatError,
    load_kitti_poses,
    load_ply_ascii,
    load_transform,
    load_xyz_text,
)

PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty double x\n"
              "property double y\nproperty double z\nend_header\n")
IDENTITY = "1 0 0 0 0 1 0 0 0 0 1 0"

# reader, file name, text around the record, a valid record, the counts
# the reader allows there, the line of the record (None: a whole file)
READERS = {
    "xyz row": (load_xyz_text, "scan.xyz", "# note\n1 2 3\n{}\n",
                "4 5 6", "3", 3),
    "ply vertex": (load_ply_ascii, "scan.ply", PLY_HEADER + "1 2 3\n{}\n",
                   "4 5 6", "3", 9),
    "pose-track line": (load_kitti_poses, "poses.txt", IDENTITY + "\n{}\n",
                        IDENTITY, "12", 2),
    "transform file": (load_transform, "init.txt", "{}\n",
                       IDENTITY, "12 or 16", None),
}


def broken(record: str, fault: str, counts: str) -> tuple[str, str]:
    """The record broken one way, and the reason a reader must give."""
    fields = record.split()
    if fault == "count":
        return (" ".join(fields[:-1]),
                f"expected {counts} fields, got {len(fields) - 1}")
    if fault == "non-numeric":
        fields[1] = "1,5"
        return " ".join(fields), "non-numeric field '1,5'"
    fields[1] = "-inf"
    return " ".join(fields), "non-finite value '-inf'"


@pytest.mark.parametrize("fault", ["count", "non-numeric", "non-finite"])
@pytest.mark.parametrize("reader", list(READERS))
def test_bad_record_fails_with_one_message_shape(tmp_path, reader, fault):
    load, name, template, record, counts, line = READERS[reader]
    bad, reason = broken(record, fault, counts)
    path = tmp_path / name
    path.write_text(template.format(bad))
    with pytest.raises(FormatError) as err:
        load(path)
    where = "" if line is None else f", line {line}"
    assert str(err.value) == f"{path}{where}: {reason}"
    assert err.value.line == line


class TestPlyVertexCount:
    def test_data_past_the_declared_vertices_names_its_line(self, tmp_path):
        path = tmp_path / "extra.ply"
        path.write_text(PLY_HEADER + "1 2 3\n4 5 6\n\n7 8 9\n")
        with pytest.raises(FormatError) as err:
            load_ply_ascii(path)
        assert err.value.line == 11
        assert str(err.value) == (f"{path}, line 11: data past the 2 "
                                  "declared vertices")

    def test_trailing_blank_lines_are_allowed(self, tmp_path):
        path = tmp_path / "blank.ply"
        path.write_text(PLY_HEADER + "1 2 3\n4 5 6\n\n  \n")
        cloud = load_ply_ascii(path)
        np.testing.assert_array_equal(cloud.points, [[1, 2, 3], [4, 5, 6]])

    def test_a_bad_vertex_is_reported_before_extra_data(self, tmp_path):
        path = tmp_path / "both.ply"
        path.write_text(PLY_HEADER + "1 2 x\n4 5 6\n7 8 9\n")
        with pytest.raises(FormatError) as err:
            load_ply_ascii(path)
        assert err.value.line == 8
