"""Voxelization, per-voxel scalar features, and overlap-region arithmetic.

A scan is dropped onto a shared cubic grid anchored at the frame origin;
each occupied voxel gets one scalar feature (z-height variance or point
count).  An index box is a (2, 3) [mins; maxs] of inclusive voxel index
ranges, an int64 array or a (mins, maxs) tuple of int tuples; a histogram
counts any region in either form cell by cell, and only an evaluation's own
region takes a faster route.  A point's voxel is a linear (C-order,
x-major) cell index inside a box of cells: the scan's occupied box, or for
a scan being scored (:class:`voxmi.mi.PreparedScan`) the other scan's
occupied box padded by one cell per side.  One ``np.bincount`` over the box
finds the occupied cells; per-voxel sums are then ``np.bincount`` over each
point's slot among those cells, in point order.  The slots are written
over the cell indices, in the one point array that held them (for a scan
being scored, a row of its (3, N) float block viewed as ints).  A cell
with no points carries the no-feature value.  A box of more than ``MAX_BOX_CELLS`` cells
is refused with BoxTooLargeError before any dense array is allocated.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoxTooLargeError, OutOfBoundsError
from .geometry import PointCloud

# Signed voxel index range per axis; a point beyond it has left the grid.
INDEX_MIN = -(1 << 20)
INDEX_MAX = (1 << 20) - 1
# Most cells a dense box may have; an 8-byte array over it takes 128 MiB.
MAX_BOX_CELLS = 1 << 24


class FeatureKind(enum.Enum):
    """Scalar feature computed per occupied voxel."""

    VARZ = "varz"    # population variance of member z-heights, m^2
    COUNT = "count"  # number of member points

    @classmethod
    def from_name(cls, name: str) -> "FeatureKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(
                f"unknown feature kind {name!r}; expected 'varz' or 'count'"
            ) from None


@dataclass(frozen=True)
class GridSpec:
    """Cubic voxel grid anchored at the frame origin: edge length in metres."""

    resolution: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"grid resolution must be > 0, got {self.resolution}")


def _corners(box) -> tuple:
    """An index box as a (mins, maxs) tuple of int tuples; a tuple is one."""
    if type(box) is not tuple:
        box = np.asarray(box, dtype=np.int64)
        if box.shape != (2, 3):
            raise ValueError("bounds must be (2, 3) [mins; maxs] arrays")
        box = tuple(map(tuple, box.tolist()))
    return box


def box_shape(bounds) -> tuple[int, int, int]:
    """Cells per axis of an inclusive (2, 3) [mins; maxs] index box.

    Raises BoxTooLargeError, naming the extents, when the box has more than
    MAX_BOX_CELLS cells.
    """
    nx, ny, nz = [hi - lo + 1 for lo, hi in zip(*_corners(bounds))]
    if nx * ny * nz > MAX_BOX_CELLS:
        raise BoxTooLargeError(
            f"voxel box of {nx} x {ny} x {nz} = {nx * ny * nz} cells exceeds "
            f"the dense-grid limit of {MAX_BOX_CELLS} cells"
        )
    return nx, ny, nz


@dataclass(frozen=True)
class VoxelIndexMap:
    """Points of one cloud assigned to the occupied cells of a box.

    ``bounds`` is the integer [mins; maxs] box: the tight box over occupied
    voxel indices, or for a scan being scored the other scan's padded box.
    ``occupied`` holds the ascending linear (C-order) indices of the cells
    with at least one point, ``counts`` their point counts and ``slot`` each
    point's position in ``occupied`` (None when not needed).
    """

    slot: np.ndarray | None
    occupied: np.ndarray
    counts: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return self.occupied.shape[0]


@dataclass(frozen=True)
class FeatureMap:
    """Per-voxel scalar features over the occupied cells of a box.

    ``bounds`` is a [mins; maxs] box holding every occupied cell
    (the tight occupied box, for a whole scan), ``cells`` the
    ascending linear (C-order) indices of the occupied cells inside it and
    ``values`` their features.  Every other cell carries the no-feature
    value.  ``binned`` caches, per binning spec, the raster over the box
    that a :class:`voxmi.mi.PreparedScan` makes of scan A: each cell's bin
    times ``bin_count + 1``.
    """

    kind: FeatureKind
    cells: np.ndarray
    values: np.ndarray
    bounds: np.ndarray
    binned: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        if self.cells.shape != self.values.shape:
            raise ValueError("cells and values must have matching shapes")
        # two reductions: a nan fails either comparison
        values = self.values
        if values.size and not (values.min() >= 0 and values.max() < np.inf):
            self._refuse_in(self.bounds)

    def _refuse_in(self, box) -> None:
        """Raise ValueError naming the first voxel of the index ``box``
        whose feature is not finite and >= 0; return if there is none."""
        values, ijk = self.values, self.voxels()
        lo, hi = _corners(box)
        bad = ~((values >= 0) & (values < np.inf))
        bad &= ((ijk >= lo) & (ijk <= hi)).all(axis=1)
        if bad.any():
            k = int(np.flatnonzero(bad)[0])
            raise ValueError(f"features must be finite and >= 0; voxel "
                             f"{tuple(ijk[k].tolist())} has {float(values[k])}")

    def __len__(self) -> int:
        return self.cells.shape[0]

    def voxels(self) -> np.ndarray:
        """(n, 3) voxel indices of the occupied cells, in ``cells`` order."""
        lo, hi = np.array(_corners(self.bounds))
        return np.stack(np.unravel_index(self.cells, hi - lo + 1), axis=1) + lo

    def value_for(self, ijk) -> float | None:
        """Feature of one voxel, or None for an unoccupied (no-feature) voxel."""
        ijk = np.ravel(ijk).astype(np.int64)
        lo, hi = np.array(_corners(self.bounds))
        if ijk.shape != (3,) or (ijk < lo).any() or (ijk > hi).any():
            return None
        cell = np.ravel_multi_index(tuple(ijk - lo), tuple(hi - lo + 1))
        k = int(np.searchsorted(self.cells, cell))
        if k < len(self.cells) and self.cells[k] == cell:
            return float(self.values[k])
        return None

    def as_dict(self) -> dict[tuple[int, int, int], float]:
        return {tuple(int(i) for i in ijk): float(v)
                for ijk, v in zip(self.voxels(), self.values)}


def _floor_rows(rows: np.ndarray, point, first: int = 0
                ) -> tuple[list[int], list[int]]:
    """Floor (3, N) grid coordinates in place and return their integer
    (mins, maxs).  Raises OutOfBoundsError naming the first point whose
    index leaves [INDEX_MIN, INDEX_MAX]: ``first`` plus its column, at
    ``point(column)`` in metres; only the bounds are checked unless one
    does."""
    np.floor(rows, out=rows)
    lo = np.minimum.reduce(rows, axis=1).tolist()
    hi = np.maximum.reduce(rows, axis=1).tolist()
    if min(lo) < INDEX_MIN or max(hi) > INDEX_MAX:
        ijk = rows.T.astype(np.int64)
        i = int(np.flatnonzero((ijk < INDEX_MIN) | (ijk > INDEX_MAX))[0]) // 3
        raise OutOfBoundsError(
            f"point {first + i} at {point(i)} maps to voxel index "
            f"{ijk[i]} outside [{INDEX_MIN}, {INDEX_MAX}]"
        )
    return [int(v) for v in lo], [int(v) for v in hi]


def _xy_index(x: np.ndarray, y: np.ndarray, box) -> None:
    """Turn floored ``x`` into ``x * ny * nz + y * nz``, the part of the
    linear cells in ``box`` that floored ``y`` completes; ``y`` is used up."""
    (_, y0, z0), (_, y1, z1) = _corners(box)
    nz = z1 - z0 + 1
    # every term is an integer below 2**44, so the float arithmetic is exact
    np.multiply(x, (y1 - y0 + 1) * nz, out=x)
    np.multiply(y, nz, out=y)
    np.add(x, y, out=x)


def _cell_index(xy: np.ndarray, z: np.ndarray, box, cell: np.ndarray) -> None:
    """Write the linear cells in ``box`` of :func:`_xy_index`'s ``xy`` and
    floored ``z`` into ``cell``; ``xy`` is used up, and ``cell`` may be
    ``z``'s own memory."""
    (x0, y0, z0), (_, y1, z1) = _corners(box)
    np.add(xy, z, out=xy)
    np.subtract(xy, (x0 * (y1 - y0 + 1) + y0) * (z1 - z0 + 1) + z0, out=cell,
                casting="unsafe")


def _count_cells(cell: np.ndarray, box, size: int,
                 slot: np.ndarray | None) -> VoxelIndexMap:
    """Count points per cell of ``box``, of ``size`` cells, from their
    ``cell``; ``slot`` (None: no slots) is filled in place."""
    per_cell = np.bincount(cell, minlength=size)
    occupied = np.flatnonzero(per_cell > 0)
    counts = per_cell[occupied]
    if slot is not None:
        # reuse the one box-sized array as the cell -> slot table; ``take``
        # reads each index before writing its slot, so ``slot`` may be
        # ``cell`` itself
        per_cell[occupied] = np.arange(occupied.size)
        np.take(per_cell, cell, out=slot, mode="clip")
    return VoxelIndexMap(slot=slot, occupied=occupied, counts=counts,
                         bounds=box)


def _floored(cloud: PointCloud, grid: GridSpec) -> tuple[np.ndarray, tuple]:
    """Floored grid coordinates as (3, N) floats, one contiguous row per
    axis, and their integer (mins, maxs)."""
    rows = np.empty((3, len(cloud)))
    np.divide(cloud.points.T, grid.resolution, out=rows)
    return rows, _floor_rows(rows, lambda i: cloud.points[i])


def voxel_indices(cloud: PointCloud, grid: GridSpec) -> np.ndarray:
    """Floor-indexed voxel coordinates, (N, 3) int64.

    Points exactly on a voxel boundary belong to the higher-index voxel.
    Raises OutOfBoundsError naming the first offending point if any index
    leaves [INDEX_MIN, INDEX_MAX].
    """
    if len(cloud) == 0:
        return np.empty((0, 3), dtype=np.int64)
    return _floored(cloud, grid)[0].T.astype(np.int64, order="C")


def voxelize(cloud: PointCloud, grid: GridSpec) -> VoxelIndexMap:
    """Assign every point of a non-empty cloud to a cell of its occupied box."""
    n = len(cloud)
    if n == 0:
        raise ValueError("cannot voxelize an empty cloud")
    rows, bounds = _floored(cloud, grid)
    nx, ny, nz = box_shape(bounds)  # refuses a box past the dense-grid limit
    cell = np.empty(n, dtype=np.intp)
    _xy_index(rows[0], rows[1], bounds)
    _cell_index(rows[0], rows[2], bounds, cell)
    # the slots are written over the cells, which are then spent
    return _count_cells(cell, np.array(bounds, dtype=np.int64), nx * ny * nz,
                        cell)


def _feature_map(voxel_map: VoxelIndexMap, z: np.ndarray, kind: FeatureKind,
                 dev: np.ndarray, box) -> FeatureMap:
    """Feature map of the points at heights ``z`` (``dev``: scratch as long),
    run through the constructor's check only where it can fail, overflow,
    and only on the voxels of the index ``box``."""
    counts, slot = voxel_map.counts, voxel_map.slot
    if kind is FeatureKind.COUNT:
        values = counts.astype(np.float64)
    else:
        with np.errstate(over="ignore"):  # context-local, so thread-safe
            means = np.bincount(slot, weights=z, minlength=counts.size) / counts
            np.take(means, slot, out=dev, mode="clip")
            np.subtract(z, dev, out=dev)
            np.square(dev, out=dev)
            values = np.bincount(slot, weights=dev, minlength=counts.size)
            values /= counts
    feat = object.__new__(FeatureMap)
    feat.__dict__.update(kind=kind, cells=voxel_map.occupied, values=values,
                         bounds=voxel_map.bounds, binned={})
    if kind is FeatureKind.VARZ and not np.maximum.reduce(values) < np.inf:
        feat._refuse_in(box)
    return feat


def compute_feature_map(voxel_map: VoxelIndexMap, cloud: PointCloud,
                        kind: FeatureKind) -> FeatureMap:
    """Reduce each voxel's member points to one scalar feature.

    VARZ is the population variance (divisor n) of member z-heights, so a
    single-point voxel yields 0 rather than an undefined value.  It takes
    two passes, the means first, each summing a voxel's points in cloud
    order; a variance past the largest float raises ValueError naming the
    voxel.  COUNT is the member count.
    """
    if voxel_map.slot.size != len(cloud):
        raise ValueError(
            f"voxel map covers {voxel_map.slot.size} points, cloud has {len(cloud)}"
        )
    return _feature_map(voxel_map, cloud.points[:, 2], kind,
                        np.empty(len(cloud)), voxel_map.bounds)


def compute_overlap(bounds_a, bounds_b) -> np.ndarray:
    """Intersect two (2, 3) [mins; maxs] index boxes: per-axis max of minima,
    min of maxima.  The box is empty when any min exceeds its max."""
    return np.array(_overlap(bounds_a, bounds_b), dtype=np.int64)


def _overlap(bounds_a, bounds_b) -> tuple:
    """:func:`compute_overlap` as a (mins, maxs) tuple of int tuples."""
    (lo_a, hi_a), (lo_b, hi_b) = _corners(bounds_a), _corners(bounds_b)
    return tuple(map(max, lo_a, lo_b)), tuple(map(min, hi_a, hi_b))


def overlap_voxel_count(box) -> int:
    """Total voxels (occupied or not) inside an index box; 0 if it is empty."""
    return math.prod(max(int(hi) - int(lo) + 1, 0) for lo, hi in zip(*box))
