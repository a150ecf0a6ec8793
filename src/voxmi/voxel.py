"""Voxelization, per-voxel scalar features, and overlap-region arithmetic.

A scan is dropped onto a shared cubic grid; each occupied voxel gets one
scalar feature (z-height variance or point count).  Unoccupied voxels are
never stored: absence of a key means the voxel carries the no-feature value,
and their populations are recovered by subtraction from the overlap-region
voxel count.

Voxel keys are packed into a single int64 (21 bits per signed axis index),
which keeps grouping and set intersection to cheap integer array ops.
"""

from __future__ import annotations

import csv
import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import OutOfBoundsError
from .geometry import PointCloud

# Signed 21-bit axis index range: collision-free packing of 3 axes in 63 bits.
KEY_INDEX_MIN = -(1 << 20)
KEY_INDEX_MAX = (1 << 20) - 1
_KEY_OFFSET = 1 << 20
_KEY_FIELD_BITS = 21
_KEY_FIELD_MASK = (1 << _KEY_FIELD_BITS) - 1


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


def pack_keys(ijk: np.ndarray) -> np.ndarray:
    """Pack (N, 3) signed voxel indices into (N,) int64 keys."""
    ijk = np.asarray(ijk, dtype=np.int64)
    shifted = ijk + _KEY_OFFSET
    return (
        (shifted[..., 0] << (2 * _KEY_FIELD_BITS))
        | (shifted[..., 1] << _KEY_FIELD_BITS)
        | shifted[..., 2]
    )


def unpack_keys(keys: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pack_keys`: (N,) int64 keys to (N, 3) indices."""
    keys = np.asarray(keys, dtype=np.int64)
    out = np.empty(keys.shape + (3,), dtype=np.int64)
    out[..., 0] = (keys >> (2 * _KEY_FIELD_BITS)) & _KEY_FIELD_MASK
    out[..., 1] = (keys >> _KEY_FIELD_BITS) & _KEY_FIELD_MASK
    out[..., 2] = keys & _KEY_FIELD_MASK
    return out - _KEY_OFFSET


@dataclass(frozen=True)
class VoxelIndexMap:
    """Sparse voxel-to-point mapping in grouped (CSR-like) form.

    ``keys`` are the occupied packed voxel keys, sorted ascending.
    ``point_indices[offsets[k]:offsets[k + 1]]`` are the member point indices
    of ``keys[k]``, ascending (i.e. in original cloud order).
    ``bounds`` is the tight integer AABB over occupied voxel indices,
    shaped (2, 3) as [mins; maxs].
    """

    keys: np.ndarray
    offsets: np.ndarray
    point_indices: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return self.keys.shape[0]

    @property
    def n_points(self) -> int:
        return self.point_indices.shape[0]

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    def indices_for(self, ijk) -> np.ndarray:
        """Member point indices of one voxel; empty array if unoccupied."""
        key = pack_keys(np.asarray(ijk).reshape(1, 3))[0]
        pos = np.searchsorted(self.keys, key)
        if pos == len(self.keys) or self.keys[pos] != key:
            return np.empty(0, dtype=np.int64)
        return self.point_indices[self.offsets[pos]:self.offsets[pos + 1]]

    def as_dict(self) -> dict[tuple[int, int, int], np.ndarray]:
        ijk = unpack_keys(self.keys)
        return {
            tuple(ijk[k]): self.point_indices[self.offsets[k]:self.offsets[k + 1]]
            for k in range(len(self.keys))
        }


@dataclass(frozen=True)
class FeatureMap:
    """Per-voxel scalar features over the occupied subset of a grid.

    Absent keys carry the no-feature value.  ``keys`` are sorted packed
    voxel keys, ``values`` the matching features, ``bounds`` the occupied
    AABB as (2, 3) [mins; maxs].
    """

    kind: FeatureKind
    keys: np.ndarray
    values: np.ndarray
    bounds: np.ndarray

    def __post_init__(self):
        if self.keys.shape != self.values.shape:
            raise ValueError("keys and values must have matching shapes")
        if self.values.size and (
            not np.isfinite(self.values).all() or (self.values < 0).any()
        ):
            raise ValueError("features must be finite and >= 0")

    def __len__(self) -> int:
        return self.keys.shape[0]

    def value_for(self, ijk) -> float | None:
        """Feature of one voxel, or None for an unoccupied (no-feature) voxel."""
        key = pack_keys(np.asarray(ijk).reshape(1, 3))[0]
        pos = np.searchsorted(self.keys, key)
        if pos == len(self.keys) or self.keys[pos] != key:
            return None
        return float(self.values[pos])

    def as_dict(self) -> dict[tuple[int, int, int], float]:
        ijk = unpack_keys(self.keys)
        return {tuple(ijk[k]): float(self.values[k]) for k in range(len(self.keys))}


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


def voxel_indices(cloud: PointCloud, grid: GridSpec) -> np.ndarray:
    """Floor-indexed voxel coordinates, (N, 3) int64.

    Points exactly on a voxel boundary belong to the higher-index voxel.
    Raises OutOfBoundsError naming the first offending point if any index
    leaves the packable range.
    """
    ijk = np.floor((cloud.points - grid.origin) / grid.resolution).astype(np.int64)
    bad = (ijk < KEY_INDEX_MIN) | (ijk > KEY_INDEX_MAX)
    if bad.any():
        idx = int(np.nonzero(bad.any(axis=1))[0][0])
        raise OutOfBoundsError(
            f"point {idx} at {cloud.points[idx]} maps to voxel index "
            f"{ijk[idx]} outside [{KEY_INDEX_MIN}, {KEY_INDEX_MAX}]"
        )
    return ijk


def voxelize(cloud: PointCloud, grid: GridSpec) -> VoxelIndexMap:
    """Group every point of a non-empty cloud into its voxel."""
    if len(cloud) == 0:
        raise ValueError("cannot voxelize an empty cloud")
    ijk = voxel_indices(cloud, grid)
    packed = pack_keys(ijk)
    order = np.argsort(packed, kind="stable")
    sorted_keys = packed[order]
    keys, start = np.unique(sorted_keys, return_index=True)
    offsets = np.append(start, packed.shape[0]).astype(np.int64)
    bounds = np.stack([ijk.min(axis=0), ijk.max(axis=0)])
    return VoxelIndexMap(keys=keys, offsets=offsets,
                         point_indices=order.astype(np.int64), bounds=bounds)


def _segment_sums(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-group sums over a grouped array, summed in stored order."""
    if values.size == 0:
        return np.zeros(len(offsets) - 1)
    return np.add.reduceat(values, offsets[:-1])


def compute_feature_map(voxel_map: VoxelIndexMap, cloud: PointCloud,
                        kind: FeatureKind) -> FeatureMap:
    """Reduce each voxel's member points to one scalar feature.

    VARZ is the population variance (divisor n) of member z-heights, so a
    single-point voxel yields 0 rather than an undefined value.  COUNT is the
    member count.
    """
    if voxel_map.n_points != len(cloud):
        raise ValueError(
            f"voxel map covers {voxel_map.n_points} points, cloud has {len(cloud)}"
        )
    counts = voxel_map.counts
    if kind is FeatureKind.COUNT:
        values = counts.astype(np.float64)
    else:
        z = cloud.points[voxel_map.point_indices, 2]
        means = _segment_sums(z, voxel_map.offsets) / counts
        sq_dev = (z - np.repeat(means, counts)) ** 2
        ssd = _segment_sums(sq_dev, voxel_map.offsets)
        # guard tiny negative rounding residue on constant-z voxels
        values = np.maximum(ssd, 0.0) / counts
    return FeatureMap(kind=kind, keys=voxel_map.keys, values=values,
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


def keys_in_region(keys: np.ndarray, region: OverlapRegion) -> np.ndarray:
    """Boolean mask of packed keys whose voxel lies inside the region."""
    if region.is_empty or keys.size == 0:
        return np.zeros(keys.shape, dtype=bool)
    ijk = unpack_keys(keys)
    return ((ijk >= region.mins) & (ijk <= region.maxs)).all(axis=1)


def dump_feature_csv(feat: FeatureMap, path) -> None:
    """Debug dump: one "ix,iy,iz,feature" row per occupied voxel."""
    ijk = unpack_keys(feat.keys)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ix", "iy", "iz", "feature"])
        for k in range(len(feat.keys)):
            writer.writerow([int(ijk[k, 0]), int(ijk[k, 1]), int(ijk[k, 2]),
                             repr(float(feat.values[k]))])
