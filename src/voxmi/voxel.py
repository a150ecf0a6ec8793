"""Voxelization, per-voxel scalar features, and overlap-region arithmetic.

A scan is dropped onto a shared cubic grid anchored at the frame origin;
each occupied voxel gets one scalar feature (z-height variance or point
count).  An index box is always a (2, 3) int64 [mins; maxs] array of
inclusive voxel index ranges.  A point's voxel is a linear (C-order,
x-major) cell index inside a box of cells: the scan's occupied box, the
tight integer box around its voxels, or for a scan being scored
(:class:`voxmi.mi.PreparedScan`) its overlap with the other scan.
One ``np.bincount`` over the box finds the occupied cells; per-voxel sums
are then ``np.bincount`` over each point's slot among those cells, in point
order.  A cell with no points carries the no-feature value.  A box of more
than ``MAX_BOX_CELLS`` cells is refused with BoxTooLargeError before any
dense array is allocated.
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


def box_shape(bounds) -> tuple[int, int, int]:
    """Cells per axis of an inclusive (2, 3) [mins; maxs] index box.

    Raises BoxTooLargeError, naming the extents, when the box has more than
    MAX_BOX_CELLS cells.
    """
    nx, ny, nz = (int(hi) - int(lo) + 1 for lo, hi in zip(*bounds))
    if nx * ny * nz > MAX_BOX_CELLS:
        raise BoxTooLargeError(
            f"voxel box of {nx} x {ny} x {nz} = {nx * ny * nz} cells exceeds "
            f"the dense-grid limit of {MAX_BOX_CELLS} cells"
        )
    return nx, ny, nz


@dataclass(frozen=True)
class VoxelIndexMap:
    """Points of one cloud assigned to the occupied cells of a box.

    ``bounds`` is the integer box, shaped (2, 3) as [mins; maxs]: the tight
    box over occupied voxel indices, or for a scan being scored an overlap
    region with its guard shell.  ``occupied`` holds the ascending linear
    (C-order) indices of the cells with at least one point, ``counts``
    their point counts and ``slot`` each point's position in ``occupied``
    (None when not needed).
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

    ``bounds`` is a (2, 3) [mins; maxs] box holding every occupied cell
    (the tight occupied box, for a whole scan), ``cells`` the
    ascending linear (C-order) indices of the occupied cells inside it and
    ``values`` their features.  Every other cell carries the no-feature
    value.  ``binned`` caches, per binning spec, the raster over the box
    that :func:`voxmi.mi.build_joint_histogram` makes of scan A: each
    cell's bin times ``bin_count + 1``.
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
            raise ValueError("features must be finite and >= 0")

    def __len__(self) -> int:
        return self.cells.shape[0]

    def voxels(self) -> np.ndarray:
        """(n, 3) voxel indices of the occupied cells, in ``cells`` order."""
        shape = tuple(self.bounds[1] - self.bounds[0] + 1)
        return np.stack(np.unravel_index(self.cells, shape), axis=1) + self.bounds[0]

    def value_for(self, ijk) -> float | None:
        """Feature of one voxel, or None for an unoccupied (no-feature) voxel."""
        return self.as_dict().get(tuple(int(i) for i in np.ravel(ijk)))

    def as_dict(self) -> dict[tuple[int, int, int], float]:
        return {tuple(int(i) for i in ijk): float(v)
                for ijk, v in zip(self.voxels(), self.values)}


def _floor_rows(rows: np.ndarray, point) -> np.ndarray:
    """Floor (3, N) grid coordinates in place and return their (2, 3)
    integer bounds.  Raises OutOfBoundsError naming the first point,
    ``point(i)`` in metres, whose index leaves [INDEX_MIN, INDEX_MAX]; only
    the bounds are checked unless one does."""
    np.floor(rows, out=rows)
    lo, hi = rows.min(axis=1), rows.max(axis=1)
    if (lo < INDEX_MIN).any() or (hi > INDEX_MAX).any():
        ijk = rows.T.astype(np.int64)
        bad = (ijk < INDEX_MIN) | (ijk > INDEX_MAX)
        i = int(np.nonzero(bad.any(axis=1))[0][0])
        raise OutOfBoundsError(
            f"point {i} at {point(i)} maps to voxel index "
            f"{ijk[i]} outside [{INDEX_MIN}, {INDEX_MAX}]"
        )
    return np.array((lo, hi), dtype=np.int64)


def _bin_cells(rows: np.ndarray, box: np.ndarray, cell: np.ndarray,
               slot: np.ndarray | None) -> VoxelIndexMap:
    """Count floored (3, N) ``rows``, all inside ``box``, per cell of it.

    The cell index is summed in place in ``rows``, which it uses up;
    ``cell`` and ``slot`` (None: no slots) are filled in place.
    """
    nx, ny, nz = (int(n) for n in box[1] - box[0] + 1)
    # every term is an integer below 2**44, so the float arithmetic is exact
    rows[0] *= ny * nz
    rows[1] *= nz
    rows[0] += rows[1]
    rows[0] += rows[2]
    lo = box[0]
    np.subtract(rows[0], (lo[0] * ny + lo[1]) * nz + lo[2], out=cell,
                casting="unsafe")
    per_cell = np.bincount(cell, minlength=nx * ny * nz)
    occupied = np.flatnonzero(per_cell > 0)
    counts = per_cell[occupied]
    if slot is not None:
        # reuse the one box-sized array as the cell -> slot table
        per_cell[occupied] = np.arange(occupied.size)
        np.take(per_cell, cell, out=slot, mode="clip")
    return VoxelIndexMap(slot=slot, occupied=occupied, counts=counts,
                         bounds=box)


def _floored(cloud: PointCloud, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Floored grid coordinates as (3, N) floats, one contiguous row per
    axis, and their (2, 3) integer bounds."""
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
    box_shape(bounds)  # refuses a box past the dense-grid limit
    return _bin_cells(rows, bounds, np.empty(n, dtype=np.intp),
                      np.empty(n, dtype=np.intp))


def _feature_values(voxel_map: VoxelIndexMap, z: np.ndarray,
                    kind: FeatureKind, dev: np.ndarray) -> np.ndarray:
    counts = voxel_map.counts
    if kind is FeatureKind.COUNT:
        return counts.astype(np.float64)
    slot = voxel_map.slot
    means = np.bincount(slot, weights=z, minlength=counts.size) / counts
    np.take(means, slot, out=dev, mode="clip")
    np.subtract(z, dev, out=dev)
    np.square(dev, out=dev)
    values = np.bincount(slot, weights=dev, minlength=counts.size)
    values /= counts
    return values


def compute_feature_map(voxel_map: VoxelIndexMap, cloud: PointCloud,
                        kind: FeatureKind) -> FeatureMap:
    """Reduce each voxel's member points to one scalar feature.

    VARZ is the population variance (divisor n) of member z-heights, so a
    single-point voxel yields 0 rather than an undefined value.  It takes
    two passes, the means first, each summing a voxel's points in cloud
    order.  COUNT is the member count.
    """
    if voxel_map.slot.size != len(cloud):
        raise ValueError(
            f"voxel map covers {voxel_map.slot.size} points, cloud has {len(cloud)}"
        )
    values = _feature_values(voxel_map, cloud.points[:, 2], kind,
                             np.empty(len(cloud)))
    return FeatureMap(kind=kind, cells=voxel_map.occupied, values=values,
                      bounds=voxel_map.bounds)


def compute_overlap(bounds_a: np.ndarray, bounds_b: np.ndarray) -> np.ndarray:
    """Intersect two (2, 3) [mins; maxs] index boxes: per-axis max of minima,
    min of maxima.  The box is empty when any min exceeds its max."""
    bounds_a = np.asarray(bounds_a, dtype=np.int64)
    bounds_b = np.asarray(bounds_b, dtype=np.int64)
    if bounds_a.shape != (2, 3) or bounds_b.shape != (2, 3):
        raise ValueError("bounds must be (2, 3) [mins; maxs] arrays")
    box = np.maximum(bounds_a, bounds_b)
    np.minimum(bounds_a[1], bounds_b[1], out=box[1])
    return box


def overlap_voxel_count(box) -> int:
    """Total voxels (occupied or not) inside an index box; 0 if it is empty."""
    return math.prod(max(int(hi) - int(lo) + 1, 0) for lo, hi in zip(*box))
