"""Text scans split into rows at universal newlines only, in both formats.

``str.splitlines`` also splits at a form feed, a vertical tab, the file,
group and record separators, NEL and the Unicode line and paragraph
separators.  Reading a file in text mode does not, so each of these is
whitespace inside a row, for the xyz rows and the PLY vertices alike, and
a bad row is named by the same line number either way.
"""

from __future__ import annotations

import pytest

from voxmi import FormatError, load_scan

PLY_HEADER = ("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
              "property float y\nproperty float z\nend_header\n")
SEPARATORS = ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
# the line of the second row: after the seven header lines for PLY
SECOND_ROW = {"xyz": 2, "ply": 9}


def scan_file(tmp_path, fmt: str, separator: str, second_row: str):
    path = tmp_path / f"scan.{fmt}"
    body = f"1 2 3{separator}\n{second_row}\n"
    path.write_text((PLY_HEADER if fmt == "ply" else "") + body,
                    encoding="utf-8")
    return path


@pytest.mark.parametrize("separator", SEPARATORS, ids=ascii)
@pytest.mark.parametrize("fmt", sorted(SECOND_ROW))
def test_a_separator_is_whitespace_within_a_row(tmp_path, fmt, separator):
    cloud = load_scan(scan_file(tmp_path, fmt, separator, "4 5 6"))
    assert cloud.points.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]


@pytest.mark.parametrize("separator", SEPARATORS, ids=ascii)
@pytest.mark.parametrize("fmt", sorted(SECOND_ROW))
def test_a_short_row_after_a_separator_names_its_own_line(tmp_path, fmt,
                                                          separator):
    path = scan_file(tmp_path, fmt, separator, "4 5")
    with pytest.raises(FormatError) as err:
        load_scan(path)
    line = SECOND_ROW[fmt]
    assert err.value.line == line
    assert str(err.value) == f"{path}, line {line}: expected 3 fields, got 2"
