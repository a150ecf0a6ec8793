"""Joint/marginal histograms over the overlap region and the MI objective.

Features of both scans inside the overlap region are binned into a 2D
histogram whose bin 0 on each axis is reserved for the no-feature value of
unoccupied voxels.  Each scan's bins form a dense raster over its occupied
box; both are sliced over the region and every cell is counted, so voxels
empty in both scans land in cell (0, 0) and empty space contributes
alignment evidence.  Mutual information is H(X) + H(Y) - H(X, Y) in nats.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import EmptyOverlapError, OutOfBoundsError
from .geometry import EulerPose, PointCloud, apply_transform, euler_to_transform
from .voxel import (
    FeatureKind,
    FeatureMap,
    GridSpec,
    OverlapRegion,
    box_shape,
    compute_feature_map,
    compute_overlap,
    voxelize,
)

# Worst-possible objective value: returned for candidate poses with no
# overlap so the optimizer retreats instead of aborting mid-run.
NO_OVERLAP_SENTINEL = -1e300

DEFAULT_BIN_COUNT = 32
DEFAULT_UPPER_CLAMP = {FeatureKind.VARZ: 2.0, FeatureKind.COUNT: 64.0}


@dataclass(frozen=True)
class BinningSpec:
    """Linear binning of occupied-voxel features.

    ``bin_count`` occupied bins of width ``upper_clamp / bin_count``; values
    at or above ``upper_clamp`` land in the top bin.  Bin 0 is reserved for
    the no-feature value.
    """

    kind: FeatureKind
    bin_count: int = DEFAULT_BIN_COUNT
    upper_clamp: float = 0.0

    def __post_init__(self):
        if self.bin_count < 2:
            raise ValueError(f"bin_count must be >= 2, got {self.bin_count}")
        if self.upper_clamp == 0.0:
            object.__setattr__(self, "upper_clamp", DEFAULT_UPPER_CLAMP[self.kind])
        if not self.upper_clamp > 0:
            raise ValueError(f"upper_clamp must be > 0, got {self.upper_clamp}")


def bin_feature(value: float | None, spec: BinningSpec) -> int:
    """Bin a single feature value; None (no-feature) maps to bin 0."""
    if value is None:
        return 0
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"feature value must be finite and >= 0, got {value}")
    b = spec.bin_count
    return 1 + min(b - 1, int(value / spec.upper_clamp * b))


def bin_features(values: np.ndarray, spec: BinningSpec) -> np.ndarray:
    """Vectorized :func:`bin_feature` for occupied values only."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and (not np.isfinite(values).all() or (values < 0).any()):
        raise ValueError("feature values must be finite and >= 0")
    b = spec.bin_count
    raw = np.floor(values / spec.upper_clamp * b).astype(np.int64)
    return 1 + np.minimum(b - 1, raw)


@dataclass(frozen=True)
class JointHistogram:
    """(B+1) x (B+1) joint counts; row = scan A bin, column = scan B bin.

    Index 0 on each axis is the no-feature bin.  ``total`` always equals the
    voxel count of the overlap region the histogram was built from.
    """

    counts: np.ndarray
    total: int
    spec: BinningSpec

    def row_marginal(self) -> np.ndarray:
        return self.counts.sum(axis=1)

    def col_marginal(self) -> np.ndarray:
        return self.counts.sum(axis=0)


@dataclass(frozen=True)
class MIResult:
    """Entropy breakdown of one histogram, all in nats."""

    mi: float
    h_x: float
    h_y: float
    h_xy: float


def _region_bins(feat: FeatureMap, region: OverlapRegion, shape,
                 spec: BinningSpec) -> np.ndarray:
    """Bins of ``feat`` on every cell of the region; 0 outside its box.

    The bin raster of the whole box is made once per spec and cached on the
    feature map, so scan A is binned once per run.
    """
    raster = feat.binned.get(spec)
    if raster is None:
        raster = np.zeros(box_shape(feat.bounds),
                          dtype=np.min_scalar_type(spec.bin_count))
        raster.reshape(-1)[feat.cells] = bin_features(feat.values, spec)
        feat.binned[spec] = raster
    lo = np.maximum(region.mins, feat.bounds[0])
    hi = np.maximum(np.minimum(region.maxs, feat.bounds[1]) + 1, lo)
    out = np.zeros(shape, dtype=raster.dtype)
    out[tuple(slice(a - m, b - m) for a, b, m in zip(lo, hi, region.mins))] = \
        raster[tuple(slice(a - m, b - m)
                     for a, b, m in zip(lo, hi, feat.bounds[0]))]
    return out


def build_joint_histogram(feat_a: FeatureMap, feat_b: FeatureMap,
                          region: OverlapRegion,
                          spec: BinningSpec) -> JointHistogram:
    """Count co-located feature-bin pairs over every voxel of the region.

    Voxels occupied in one scan only pair with bin 0 on the other axis, and
    voxels occupied in neither land in cell (0, 0).  Region cells outside a
    map's occupied box are unoccupied in that map.
    """
    if feat_a.kind is not spec.kind or feat_b.kind is not spec.kind:
        raise ValueError("feature maps and binning spec must share one kind")
    if region.is_empty:
        raise EmptyOverlapError("overlap region is empty")
    shape = box_shape(np.stack([region.mins, region.maxs]))
    width = spec.bin_count + 1
    pairs = np.multiply(_region_bins(feat_a, region, shape, spec), width,
                        dtype=np.intp)
    pairs += _region_bins(feat_b, region, shape, spec)
    counts = np.bincount(pairs.reshape(-1), minlength=width * width)
    return JointHistogram(counts=counts.reshape(width, width),
                          total=pairs.size, spec=spec)


def entropy(counts) -> float:
    """Shannon entropy in nats of a non-negative count array (any shape)."""
    arr = np.asarray(counts, dtype=np.float64).ravel()
    if arr.size and (arr < 0).any():
        raise ValueError("counts must be non-negative")
    total = arr.sum()
    if not total > 0:
        raise ValueError("entropy of an all-zero distribution is undefined")
    p = arr[arr > 0] / total
    # summing in sorted order makes the result independent of cell order,
    # so transposed histograms give bit-identical entropies
    return float(-np.sort(p * np.log(p)).sum())


def mutual_information(hist: JointHistogram,
                       include_phi: bool = True) -> MIResult:
    """MI = H(X) + H(Y) - H(X, Y) over the joint histogram.

    With ``include_phi=False`` the no-feature row and column are dropped and
    MI is computed over voxels occupied in both scans only.  Raises
    EmptyOverlapError when the scored counts have no mass: with phi off,
    when no voxel is occupied in both scans.
    """
    m = hist.counts if include_phi else hist.counts[1:, 1:]
    if not m.any():
        raise EmptyOverlapError(
            "overlap region is empty" if include_phi else
            "no voxel is occupied in both scans, so MI without the "
            "no-feature bin is undefined")
    h_x = entropy(m.sum(axis=1))
    h_y = entropy(m.sum(axis=0))
    h_xy = entropy(m)
    mi = h_x + h_y - h_xy
    if -1e-12 <= mi < 0.0:
        mi = 0.0
    return MIResult(mi=mi, h_x=h_x, h_y=h_y, h_xy=h_xy)


def joint_histogram_at(feat_a: FeatureMap, cloud_b: PointCloud,
                       transform: np.ndarray, grid: GridSpec,
                       spec: BinningSpec) -> JointHistogram:
    """Joint histogram of scan A against scan B moved by ``transform``.

    The one evaluation pipeline: transform B, voxelize it on the shared
    grid, featurize it, take the overlap box with A and bin both feature
    maps over it.  Raises OutOfBoundsError when moved points leave the
    grid's index range, BoxTooLargeError when moved B's occupied box has
    too many cells, and EmptyOverlapError when the occupied boxes miss.
    """
    if feat_a.kind is not spec.kind:
        raise ValueError("feature map and binning spec must share one kind")
    moved = apply_transform(cloud_b, transform)
    feat_b = compute_feature_map(voxelize(moved, grid), moved, spec.kind)
    region = compute_overlap(feat_a.bounds, feat_b.bounds)
    if region.is_empty:
        raise EmptyOverlapError("scans do not overlap at this pose")
    return build_joint_histogram(feat_a, feat_b, region, spec)


def mi_objective(feat_a: FeatureMap, cloud_b: PointCloud, pose: EulerPose,
                 grid: GridSpec, spec: BinningSpec,
                 include_phi: bool = True) -> float:
    """One objective evaluation: MI of the joint histogram at ``pose``.

    Scan A's feature map is precomputed once per run and passed in.  Returns
    the worst-possible sentinel, so the optimizer retreats, for candidate
    poses that push points off the representable grid (OutOfBoundsError) or
    leave no usable overlap (EmptyOverlapError: the occupied boxes miss, or
    phi is off and no voxel is occupied in both scans).  Any other error,
    such as a kind mismatch or an empty scan B, propagates.
    """
    try:
        hist = joint_histogram_at(feat_a, cloud_b, euler_to_transform(pose),
                                  grid, spec)
        return mutual_information(hist, include_phi=include_phi).mi
    except (OutOfBoundsError, EmptyOverlapError):
        return NO_OVERLAP_SENTINEL


def occupied_correlation(counts: np.ndarray) -> float:
    """Pearson correlation of bin indices over the occupied-bin joint mass.

    Rows/columns 0 (no-feature) are excluded.  Approaches 1 as the histogram
    collapses onto the diagonal; nan when either marginal has no spread.
    """
    counts = np.asarray(counts, dtype=np.float64)
    w = counts[1:, 1:]
    total = w.sum()
    if total <= 0:
        return float("nan")
    i = np.arange(w.shape[0], dtype=np.float64)[:, None]
    j = np.arange(w.shape[1], dtype=np.float64)[None, :]
    mu_i = (w * i).sum() / total
    mu_j = (w * j).sum() / total
    cov = (w * (i - mu_i) * (j - mu_j)).sum() / total
    var_i = (w * (i - mu_i) ** 2).sum() / total
    var_j = (w * (j - mu_j) ** 2).sum() / total
    if var_i <= 0 or var_j <= 0:
        return float("nan")
    return float(cov / np.sqrt(var_i * var_j))


def dump_histogram_csv(hist: JointHistogram, path,
                       include_phi: bool = True) -> None:
    """Write the joint counts as CSV, headed by a line naming the binning.

    With ``include_phi=False`` the first row and column (no-feature bin) are
    omitted, matching the on-screen convention for occupied-only plots.
    """
    m = hist.counts if include_phi else hist.counts[1:, 1:]
    with open(path, "w", newline="") as fh:
        fh.write(
            f"# feature={hist.spec.kind.value} bins={hist.spec.bin_count}"
            f" upper_clamp={hist.spec.upper_clamp!r}"
            f" phi={'included' if include_phi else 'excluded'}"
            f" total={hist.total}\n"
        )
        writer = csv.writer(fh)
        for row in m:
            writer.writerow([int(c) for c in row])


def read_histogram_csv(path) -> tuple[np.ndarray, dict[str, str]]:
    """Parse a histogram dump back into (counts, header metadata)."""
    with open(path, newline="") as fh:
        header = fh.readline().strip()
        if not header.startswith("# "):
            raise ValueError(f"{path}: missing histogram header line")
        meta = dict(item.split("=", 1) for item in header[2:].split())
        rows = [[int(c) for c in row] for row in csv.reader(fh) if row]
    return np.asarray(rows, dtype=np.int64), meta
