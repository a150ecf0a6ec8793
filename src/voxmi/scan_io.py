"""Scan and pose-track I/O.

Supported scan formats:

* KITTI ``.bin`` -- packed little-endian float32 quadruples
  ``(x, y, z, intensity)``, no header.
* XYZ text -- whitespace-separated ``x y z [intensity]`` rows, ``#`` comments.
* ASCII PLY -- ``format ascii 1.0`` with a vertex element exposing float
  ``x``/``y``/``z`` properties and optionally ``intensity``.

Pose tracks use the KITTI odometry convention: one line per scan, twelve
floats forming the row-major top 3x4 of a world-from-sensor transform.
A single-transform file holds one such record or a full 4x4 matrix
(sixteen numbers).  Bad records raise FormatError naming the file.
All writers format floats with ``repr`` so save/load round trips are exact.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import FormatError
from .geometry import PointCloud, compose, inverse, validate_transform

_PLY_FLOAT_TYPES = {"float", "float32", "double", "float64"}


@dataclass(frozen=True)
class PoseTrack:
    """World-from-sensor transforms for a sequence of scans."""

    matrices: np.ndarray  # (M, 4, 4) float64

    def __post_init__(self):
        mats = np.ascontiguousarray(np.asarray(self.matrices,
                                               dtype=np.float64))
        if mats.ndim != 3 or mats.shape[1:] != (4, 4):
            raise ValueError(f"expected (M, 4, 4) pose array, got "
                             f"{np.asarray(self.matrices).shape}")
        for m in mats:
            validate_transform(m)
        object.__setattr__(self, "matrices", mats)

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def __getitem__(self, index: int) -> np.ndarray:
        return self.matrices[index]


def _warn(message: str) -> None:
    """Warn on behalf of the first caller outside this module, so that the
    warning names the line that called the public loader."""
    frame, level = sys._getframe(1), 2
    while frame.f_globals.get("__name__") == __name__:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def _float_repr(value: float) -> str:
    return repr(float(value))


def load_kitti_bin(path) -> PointCloud:
    """Read a packed float32 (x, y, z, intensity) scan."""
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) % 16 != 0:
        raise FormatError(
            path, f"file size {len(raw)} is not a multiple of 16 bytes "
            "(x, y, z, intensity float32 records)",
            byte_offset=len(raw) - len(raw) % 16)
    if len(raw) == 0:
        _warn(f"{path}: empty scan file")
        return PointCloud(np.zeros((0, 3)), intensity=np.zeros(0))
    data = np.frombuffer(raw, dtype="<f4").reshape(-1, 4)
    if not np.isfinite(data).all():
        bad = int(np.flatnonzero(~np.isfinite(data).all(axis=1))[0])
        raise FormatError(path, f"non-finite value in record {bad}",
                          byte_offset=bad * 16)
    return PointCloud(data[:, :3].astype(np.float64),
                      intensity=data[:, 3].astype(np.float64))


def save_kitti_bin(cloud: PointCloud, path) -> None:
    intensity = cloud.intensity
    if intensity is None:
        intensity = np.zeros(len(cloud))
    data = np.empty((len(cloud), 4), dtype="<f4")
    data[:, :3] = cloud.points
    data[:, 3] = intensity
    Path(path).write_bytes(data.tobytes())


def load_xyz_text(path) -> PointCloud:
    """Read whitespace-separated ``x y z [intensity]`` rows, all of one
    width."""
    path = Path(path)
    rows: list[list[float]] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split("#", 1)[0].split()
            if not fields:
                continue
            widths = (len(rows[0]),) if rows else (3, 4)
            if len(fields) not in widths:
                raise FormatError(
                    path, f"expected {' or '.join(map(str, widths))} fields, "
                    f"got {len(fields)}", line=lineno)
            try:
                values = [float(f) for f in fields]
            except ValueError:
                raise FormatError(path, f"non-numeric field in {fields!r}",
                                  line=lineno) from None
            if not all(np.isfinite(values)):
                raise FormatError(path, "non-finite value", line=lineno)
            rows.append(values)
    width = len(rows[0]) if rows else 3
    data = np.array(rows, dtype=np.float64).reshape(-1, width)
    return PointCloud(data[:, :3].copy(),
                      intensity=data[:, 3].copy() if width == 4 else None)


def save_xyz_text(cloud: PointCloud, path) -> None:
    with open(path, "w", newline="\n") as fh:
        for i in range(len(cloud)):
            fields = [_float_repr(v) for v in cloud.points[i]]
            if cloud.intensity is not None:
                fields.append(_float_repr(cloud.intensity[i]))
            fh.write(" ".join(fields) + "\n")


def _parse_ply_header(lines: list[str], path):
    """Return (vertex_count, property names, first data line index)."""
    if not lines or lines[0].strip() != "ply":
        raise FormatError(path, "missing 'ply' magic line", line=1)
    if len(lines) < 2 or lines[1].split() != ["format", "ascii", "1.0"]:
        raise FormatError(path, "only 'format ascii 1.0' is supported",
                          line=2)
    vertex_count = None
    properties: list[str] = []
    in_vertex_element = False
    for lineno, line in enumerate(lines[2:], start=3):
        fields = line.split()
        if not fields or fields[0] == "comment":
            continue
        if fields[0] == "element":
            if len(fields) != 3 or not fields[2].isdecimal():
                raise FormatError(path, f"malformed element: {line.strip()!r}",
                                  line=lineno)
            in_vertex_element = fields[1] == "vertex"
            if in_vertex_element:
                vertex_count = int(fields[2])
            elif int(fields[2]) != 0:
                raise FormatError(
                    path, f"unsupported non-empty element {fields[1]!r}",
                    line=lineno)
        elif fields[0] == "property" and in_vertex_element:
            if len(fields) != 3 or fields[1] not in _PLY_FLOAT_TYPES:
                raise FormatError(
                    path, f"unsupported vertex property: {line.strip()!r}",
                    line=lineno)
            properties.append(fields[2])
        elif fields[0] == "end_header":
            if vertex_count is None:
                raise FormatError(path, "no vertex element declared",
                                  line=lineno)
            for axis in ("x", "y", "z"):
                if axis not in properties:
                    raise FormatError(
                        path, f"vertex element lacks property {axis!r}",
                        line=lineno)
            return vertex_count, properties, lineno
    raise FormatError(path, "header never terminated with end_header",
                      line=len(lines) + 1)


def load_ply_ascii(path) -> PointCloud:
    path = Path(path)
    lines = path.read_text().splitlines()
    count, properties, header_end = _parse_ply_header(lines, path)
    data_lines = lines[header_end:]
    if len(data_lines) < count:
        raise FormatError(
            path, f"declared {count} vertices but found {len(data_lines)}",
            line=len(lines) + 1)
    rows = np.empty((count, len(properties)))
    for i in range(count):
        lineno = header_end + 1 + i
        fields = data_lines[i].split()
        if len(fields) != len(properties):
            raise FormatError(
                path, f"expected {len(properties)} fields, got {len(fields)}",
                line=lineno)
        try:
            rows[i] = [float(f) for f in fields]
        except ValueError:
            raise FormatError(path, f"non-numeric field in {fields!r}",
                              line=lineno) from None
        if not np.isfinite(rows[i]).all():
            raise FormatError(path, "non-finite value", line=lineno)
    cols = {name: rows[:, i] for i, name in enumerate(properties)}
    pts = np.column_stack([cols["x"], cols["y"], cols["z"]])
    return PointCloud(pts, intensity=cols.get("intensity"))


def save_ply_ascii(cloud: PointCloud, path) -> None:
    names = ["x", "y", "z"]
    if cloud.intensity is not None:
        names.append("intensity")
    header = ["ply", "format ascii 1.0", f"element vertex {len(cloud)}"]
    header += [f"property double {n}" for n in names]
    header.append("end_header")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(header) + "\n")
        for i in range(len(cloud)):
            fields = [_float_repr(v) for v in cloud.points[i]]
            if cloud.intensity is not None:
                fields.append(_float_repr(cloud.intensity[i]))
            fh.write(" ".join(fields) + "\n")


# name: (extensions, loader, saver)
_FORMATS = {
    "bin": ((".bin",), load_kitti_bin, save_kitti_bin),
    "xyz": ((".xyz", ".txt"), load_xyz_text, save_xyz_text),
    "ply": ((".ply",), load_ply_ascii, save_ply_ascii),
}
SCAN_FORMATS = tuple(_FORMATS)


def _scan_format(path: Path, fmt: str | None):
    """The table entry for ``fmt``, or for the extension when it is None."""
    if fmt is not None:
        if fmt not in _FORMATS:
            raise FormatError(path, f"unknown scan format {fmt!r}")
        return _FORMATS[fmt]
    for entry in _FORMATS.values():
        if path.suffix.lower() in entry[0]:
            return entry
    raise FormatError(
        path, f"cannot infer format from extension {path.suffix!r}; "
        "pass fmt explicitly")


def load_scan(path, fmt: str | None = None) -> PointCloud:
    """Load a scan, dispatching on extension unless ``fmt`` overrides it."""
    path = Path(path)
    _, loader, _ = _scan_format(path, fmt)
    return loader(path)


def save_scan(cloud: PointCloud, path, fmt: str | None = None) -> None:
    """Save a scan, dispatching on extension unless ``fmt`` overrides it."""
    path = Path(path)
    _, _, saver = _scan_format(path, fmt)
    saver(cloud, path)


def _parse_transform(fields: list[str], path, sizes: tuple[int, ...],
                     line: int | None = None) -> np.ndarray:
    """One pose record: 12 (row-major 3x4) or 16 (4x4) numbers as a 4x4.

    Rotation blocks that drift from orthonormality by at most 1e-6 are
    re-orthonormalized via SVD; anything worse, and any other broken
    rigid-transform invariant, is a format error naming ``path``/``line``.
    """
    if len(fields) not in sizes:
        raise FormatError(
            path, f"expected {' or '.join(map(str, sizes))} numbers, got "
            f"{len(fields)}", line=line)
    try:
        values = np.array([float(f) for f in fields])
    except ValueError:
        raise FormatError(path, "non-numeric field", line=line) from None
    if not np.isfinite(values).all():
        raise FormatError(path, "non-finite value", line=line)
    t = np.eye(4)
    t[:values.size // 4] = values.reshape(-1, 4)
    r = t[:3, :3]
    drift = float(np.abs(r.T @ r - np.eye(3)).max())
    if drift > 1e-6:
        raise FormatError(
            path, f"rotation block departs from orthonormal by "
            f"{drift:.3e} (> 1e-06)", line=line)
    if drift > 1e-9:
        u, _, vt = np.linalg.svd(r)
        t[:3, :3] = u @ vt
    try:
        return validate_transform(t)
    except ValueError as exc:
        raise FormatError(path, str(exc), line=line) from None


def load_transform(path) -> np.ndarray:
    """Read one transform: 12 or 16 whitespace-separated numbers in a file.

    Twelve numbers are the row-major top 3x4 of the transform (one KITTI
    pose line); sixteen are the full 4x4 matrix.  Records are checked as in
    :func:`load_kitti_poses`.
    """
    path = Path(path)
    return _parse_transform(path.read_text().split(), path, (12, 16))


def load_kitti_poses(path) -> PoseTrack:
    """Read a KITTI pose file (twelve floats per line, row-major 3x4).

    Rotation blocks that drift from orthonormality by at most 1e-6 are
    re-orthonormalized via SVD; anything worse is a format error.
    """
    path = Path(path)
    matrices = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if fields:
                matrices.append(_parse_transform(fields, path, (12,), lineno))
    if not matrices:
        raise FormatError(path, "pose file contains no poses")
    return PoseTrack(np.stack(matrices))


def save_kitti_poses(track, path) -> None:
    """Write a PoseTrack (or any iterable of 4x4 matrices) as pose lines."""
    matrices = track.matrices if isinstance(track, PoseTrack) else track
    with open(path, "w", newline="\n") as fh:
        for t in matrices:
            fh.write(" ".join(_float_repr(v) for v in t[:3, :4].ravel())
                     + "\n")


def relative_ground_truth(track: PoseTrack, i: int, j: int) -> np.ndarray:
    """Transform mapping scan ``j``'s frame into scan ``i``'s frame."""
    n = len(track)
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"pose indices ({i}, {j}) out of range for "
                         f"{n} poses")
    return compose(inverse(track[i]), track[j])
