"""Voxelization, per-voxel scalar features, and overlap-region arithmetic.

A scan is dropped onto a shared cubic grid; each occupied voxel gets one
scalar feature (z-height variance or point count).  A point's voxel is a
linear (C-order, x-major) cell index inside the scan's occupied box, the
tight integer box around its voxels.  One ``np.bincount`` over the box finds
the occupied cells; per-voxel sums are then ``np.bincount`` over each
point's slot among those cells, in point order.  A cell with no points
carries the no-feature value.  A box of more than ``MAX_BOX_CELLS`` cells is
refused with BoxTooLargeError before any dense array is allocated.
"""

from __future__ import annotations

import csv
import enum
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
    """Cubic voxel grid: anchor point in meters and edge length per voxel."""

    origin: np.ndarray = field(default_factory=lambda: np.zeros(3))
    resolution: float = 1.0

    def __post_init__(self):
        origin = np.asarray(self.origin, dtype=np.float64)
        if origin.shape != (3,) or not np.isfinite(origin).all():
            raise ValueError(f"grid origin must be 3 finite floats, got {self.origin}")
        object.__setattr__(self, "origin", origin)
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
    """Points of one cloud assigned to the occupied cells of its box.

    ``bounds`` is the tight integer box over occupied voxel indices, shaped
    (2, 3) as [mins; maxs].  ``occupied`` holds the ascending linear
    (C-order) indices of the cells with at least one point, ``counts``
    their point counts and ``slot`` each point's position in ``occupied``.
    """

    slot: np.ndarray
    occupied: np.ndarray
    counts: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return self.occupied.shape[0]


@dataclass(frozen=True)
class FeatureMap:
    """Per-voxel scalar features over the occupied cells of a box.

    ``bounds`` is the occupied box as (2, 3) [mins; maxs], ``cells`` the
    ascending linear (C-order) indices of the occupied cells inside it and
    ``values`` their features.  Every other cell carries the no-feature
    value.  ``binned`` caches, per binning spec, the box's bin raster that
    :func:`voxmi.mi.build_joint_histogram` makes.
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
        if self.values.size and (
            not np.isfinite(self.values).all() or (self.values < 0).any()
        ):
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


@dataclass(frozen=True)
class OverlapRegion:
    """Inclusive integer voxel-index box where two occupied AABBs intersect."""

    x_min: int
    x_max: int
    y_min: int
    y_max: int
    z_min: int
    z_max: int

    @property
    def is_empty(self) -> bool:
        return (self.x_min > self.x_max or self.y_min > self.y_max
                or self.z_min > self.z_max)

    @property
    def mins(self) -> np.ndarray:
        return np.array([self.x_min, self.y_min, self.z_min], dtype=np.int64)

    @property
    def maxs(self) -> np.ndarray:
        return np.array([self.x_max, self.y_max, self.z_max], dtype=np.int64)


def _floored(cloud: PointCloud, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Floored grid coordinates as (3, N) floats, one contiguous row per
    axis, and their (2, 3) integer bounds.  The range check reads only the
    bounds; the first offending point is looked for only when it fails."""
    scaled = np.empty((3, len(cloud)))
    for axis in range(3):
        np.subtract(cloud.points[:, axis], grid.origin[axis], out=scaled[axis])
    scaled /= grid.resolution
    np.floor(scaled, out=scaled)
    lo, hi = scaled.min(axis=1), scaled.max(axis=1)
    if (lo < INDEX_MIN).any() or (hi > INDEX_MAX).any():
        ijk = scaled.T.astype(np.int64)
        bad = (ijk < INDEX_MIN) | (ijk > INDEX_MAX)
        idx = int(np.nonzero(bad.any(axis=1))[0][0])
        raise OutOfBoundsError(
            f"point {idx} at {cloud.points[idx]} maps to voxel index "
            f"{ijk[idx]} outside [{INDEX_MIN}, {INDEX_MAX}]"
        )
    return scaled, np.stack([lo, hi]).astype(np.int64)


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
    if len(cloud) == 0:
        raise ValueError("cannot voxelize an empty cloud")
    scaled, bounds = _floored(cloud, grid)
    nx, ny, nz = box_shape(bounds)
    # every term is an integer below 2**44, so the float products are exact
    strides = np.array([ny * nz, nz, 1], dtype=np.float64)
    cell = np.empty(len(cloud), dtype=np.int64)
    np.subtract(strides @ scaled, strides @ bounds[0], out=cell,
                casting="unsafe")
    per_cell = np.bincount(cell, minlength=nx * ny * nz)
    occupied = np.flatnonzero(per_cell)
    counts = per_cell[occupied]
    # reuse the one box-sized array as the cell -> slot table
    per_cell[occupied] = np.arange(occupied.size)
    return VoxelIndexMap(slot=per_cell[cell], occupied=occupied,
                         counts=counts, bounds=bounds)


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
    counts = voxel_map.counts
    if kind is FeatureKind.COUNT:
        values = counts.astype(np.float64)
    else:
        slot = voxel_map.slot
        z = cloud.points[:, 2]
        means = np.bincount(slot, weights=z, minlength=counts.size) / counts
        sq_dev = means[slot]
        np.subtract(z, sq_dev, out=sq_dev)
        np.square(sq_dev, out=sq_dev)
        values = np.bincount(slot, weights=sq_dev, minlength=counts.size)
        values /= counts
    return FeatureMap(kind=kind, cells=voxel_map.occupied, values=values,
                      bounds=voxel_map.bounds)


def compute_overlap(bounds_a: np.ndarray, bounds_b: np.ndarray) -> OverlapRegion:
    """Intersect two occupied AABBs: per-axis max of minima, min of maxima."""
    bounds_a = np.asarray(bounds_a, dtype=np.int64)
    bounds_b = np.asarray(bounds_b, dtype=np.int64)
    if bounds_a.shape != (2, 3) or bounds_b.shape != (2, 3):
        raise ValueError("bounds must be (2, 3) [mins; maxs] arrays")
    mins = np.maximum(bounds_a[0], bounds_b[0])
    maxs = np.minimum(bounds_a[1], bounds_b[1])
    return OverlapRegion(int(mins[0]), int(maxs[0]), int(mins[1]),
                         int(maxs[1]), int(mins[2]), int(maxs[2]))


def overlap_voxel_count(region: OverlapRegion) -> int:
    """Total voxels (occupied or not) inside an overlap region; 0 if empty."""
    if region.is_empty:
        return 0
    return int(
        (region.x_max - region.x_min + 1)
        * (region.y_max - region.y_min + 1)
        * (region.z_max - region.z_min + 1)
    )


def dump_feature_csv(feat: FeatureMap, path) -> None:
    """Debug dump: one "ix,iy,iz,feature" row per occupied voxel."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ix", "iy", "iz", "feature"])
        for ijk, value in zip(feat.voxels(), feat.values):
            writer.writerow([int(ijk[0]), int(ijk[1]), int(ijk[2]),
                             repr(float(value))])
