"""Joint/marginal histograms over the overlap region and the MI objective.

Features of both scans inside the overlap region are binned into a 2D
histogram whose bin 0 on each axis is reserved for the no-feature value of
unoccupied voxels.  Each scan's bins form a dense raster over its box; both
are sliced over the region and every cell is counted, so voxels empty in
both scans land in cell (0, 0) and empty space contributes alignment
evidence.  Mutual information is H(X) + H(Y) - H(X, Y) in nats.
An evaluation runs on a :class:`PreparedScan`, which bins scan B over the
overlap region only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import EmptyOverlapError, OutOfBoundsError
from .geometry import EulerPose, PointCloud, euler_to_transform, validate_transform
from .voxel import (
    FeatureKind,
    FeatureMap,
    GridSpec,
    VoxelIndexMap,
    _bin_cells,
    _feature_values,
    _floor_rows,
    box_shape,
    compute_overlap,
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
    # clamped as a float: a huge value scales to inf, which int() refuses
    return 1 + int(min(b - 1, value / spec.upper_clamp * b))


def bin_features(values: np.ndarray, spec: BinningSpec) -> np.ndarray:
    """Vectorized :func:`bin_feature` for occupied values only."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and (not np.isfinite(values).all() or (values < 0).any()):
        raise ValueError("feature values must be finite and >= 0")
    return _bins(values, spec, np.int64)


def _bins(values: np.ndarray, spec: BinningSpec, dtype) -> np.ndarray:
    """:func:`bin_features` of values known finite and >= 0, as ``dtype``."""
    b = spec.bin_count
    with np.errstate(over="ignore"):  # a huge value scales to inf: top bin
        scaled = np.divide(values, spec.upper_clamp, dtype=np.float64)
        scaled *= b
    bins = np.minimum(scaled, b - 1, out=scaled).astype(dtype)
    bins += 1
    return bins


@dataclass(frozen=True)
class JointHistogram:
    """(B+1) x (B+1) joint counts; row = scan A bin, column = scan B bin.

    Index 0 on each axis is the no-feature bin.  ``total`` always equals the
    voxel count of the overlap region the histogram was built from.
    """

    counts: np.ndarray
    total: int
    spec: BinningSpec


@dataclass(frozen=True)
class MIResult:
    """Entropy breakdown of one histogram, all in nats."""

    mi: float
    h_x: float
    h_y: float
    h_xy: float


def _raster(feat: FeatureMap, spec: BinningSpec) -> np.ndarray:
    """Bins of ``feat`` over its box, 0 on unoccupied cells."""
    # voxelize checks a scan's box against the dense-grid limit, and
    # PreparedScan scan A's box, which bounds an evaluation's boxes
    raster = np.zeros(feat.bounds[1] - feat.bounds[0] + 1,
                      dtype=np.min_scalar_type(spec.bin_count))
    # a feature map holds finite values >= 0 only, so they bin unchecked
    raster.reshape(-1)[feat.cells] = _bins(feat.values, spec, raster.dtype)
    return raster


def _pair_raster(feat: FeatureMap, spec: BinningSpec) -> np.ndarray:
    """Bins of ``feat`` times ``bin_count + 1`` over its box, so that adding
    the other scan's bin gives a cell's pair index.

    Made once per spec and cached on the feature map, so scan A is binned
    once per run.
    """
    raster = feat.binned.get(spec)
    if raster is None:
        width = spec.bin_count + 1
        raster = feat.binned[spec] = np.multiply(
            _raster(feat, spec), width,
            dtype=np.min_scalar_type(spec.bin_count * width))
    return raster


def _region_view(raster: np.ndarray, bounds: np.ndarray, region: np.ndarray,
                 shape) -> np.ndarray:
    """``raster`` over the box ``bounds`` on every cell of the region; 0
    outside the box.  A region inside the box gets a view, not a copy."""
    (r0, r1), (b0, b1) = region.tolist(), bounds.tolist()
    lo = [max(r, b) for r, b in zip(r0, b0)]
    hi = [max(min(r, b) + 1, m) for r, b, m in zip(r1, b1, lo)]
    inner = raster[tuple(slice(a - m, b - m) for a, b, m in zip(lo, hi, b0))]
    if inner.shape == shape:
        return inner
    out = np.zeros(shape, dtype=raster.dtype)
    out[tuple(slice(a - m, b - m) for a, b, m in zip(lo, hi, r0))] = inner
    return out


def build_joint_histogram(feat_a: FeatureMap, feat_b: FeatureMap,
                          region: np.ndarray,
                          spec: BinningSpec) -> JointHistogram:
    """Count co-located feature-bin pairs over every voxel of the region,
    a (2, 3) [mins; maxs] index box.

    Voxels occupied in one scan only pair with bin 0 on the other axis, and
    voxels occupied in neither land in cell (0, 0).  Region cells outside a
    map's occupied box are unoccupied in that map.
    """
    if feat_a.kind is not spec.kind or feat_b.kind is not spec.kind:
        raise ValueError("feature maps and binning spec must share one kind")
    region = np.asarray(region, dtype=np.int64)
    if (region[0] > region[1]).any():
        raise EmptyOverlapError("overlap region is empty")
    shape = box_shape(region)
    width = spec.bin_count + 1
    # a cell's pair index is A's bin times the width plus B's bin
    pairs = np.add(
        _region_view(_pair_raster(feat_a, spec), feat_a.bounds, region, shape),
        _region_view(_raster(feat_b, spec), feat_b.bounds, region, shape),
        dtype=np.intp)
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
    return _entropy(arr, total)


def _entropy(counts: np.ndarray, total) -> float:
    """:func:`entropy` of counts known non-negative with sum ``total`` > 0."""
    p = counts[counts > 0] / total
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
    if m.size and m.min() < 0:
        raise ValueError("counts must be non-negative")
    # the marginals and the joint share this total
    total = m.sum()
    if not total > 0:
        raise EmptyOverlapError(
            "overlap region is empty" if include_phi else
            "no voxel is occupied in both scans, so MI without the "
            "no-feature bin is undefined")
    h_x = _entropy(m.sum(axis=1), total)
    h_y = _entropy(m.sum(axis=0), total)
    h_xy = _entropy(m, total)
    mi = h_x + h_y - h_xy
    if -1e-12 <= mi < 0.0:
        mi = 0.0
    return MIResult(mi=mi, h_x=h_x, h_y=h_y, h_xy=h_xy)


class PreparedScan:
    """Scan B laid out once for evaluations against scan A's feature map.

    ``points`` is B as a (3, N) view of its own (N, 3) array, not a copy.
    Every evaluation refills the same per-point buffers ``rows``, ``cell``,
    ``z`` and ``slot`` (the last two for VARZ only), so concurrent
    evaluations each need their own prepared scan.  An evaluation bins B
    over the overlap region, which lies in A's box, plus a guard shell of
    at most one cell per side; only A's box is checked against the
    dense-grid limit, so no pose of B can raise BoxTooLargeError.
    """

    def __init__(self, feat_a: FeatureMap, cloud_b: PointCloud,
                 grid: GridSpec, spec: BinningSpec):
        if feat_a.kind is not spec.kind:
            raise ValueError("feature map and binning spec must share one kind")
        n = len(cloud_b)
        if n == 0:
            raise ValueError("cannot voxelize an empty cloud")
        box_shape(feat_a.bounds)
        self.feat_a, self.grid, self.spec = feat_a, grid, spec
        self.points = cloud_b.points.T
        self.rows, self.cell = np.empty((3, n)), np.empty(n, dtype=np.intp)
        self.z, self.slot = ((np.empty(n), np.empty(n, dtype=np.intp))
                             if spec.kind is FeatureKind.VARZ else (None, None))

    def __len__(self) -> int:
        return self.points.shape[1]

    def apply_transform(self, t: np.ndarray) -> None:
        """Move B by the rigid transform ``t`` (not validated) and floor it
        onto the grid: ``R @ p``, ``+ t``, ``/ resolution``, a division
        skipped at resolution 1; ``bounds`` becomes moved B's (2, 3)
        index box."""
        rows = self.rows
        # a GEMM on the transposed view, bit for bit the product that
        # ``geometry.apply_transform`` makes, with no copy of the scan
        np.matmul(t[:3, :3], self.points, out=rows)
        for axis in range(3):
            rows[axis] += t[axis, 3]
        if self.z is not None:
            self.z[:] = rows[2]
        if self.grid.resolution != 1.0:
            rows /= self.grid.resolution
        self.bounds = _floor_rows(
            rows, lambda i: t[:3, :3] @ self.points[:, i] + t[:3, 3])

    def voxelize(self, region: np.ndarray) -> VoxelIndexMap:
        """Bin moved B over the (2, 3) index box ``region`` and a guard
        shell one cell wide on the sides B passes it.  Points outside the
        region are clamped into the shell, which no histogram reads, so a
        region voxel holds the same points, in the same order, as in B's
        own box."""
        below = self.bounds[0] < region[0]
        above = self.bounds[1] > region[1]
        box = np.array((region[0] - below, region[1] + above))
        (lo, hi), rows = box.tolist(), self.rows
        for axis in range(3):
            if below[axis]:
                np.maximum(rows[axis], lo[axis], out=rows[axis])
            if above[axis]:
                np.minimum(rows[axis], hi[axis], out=rows[axis])
        return _bin_cells(rows, box, self.cell, self.slot)

    def compute_feature_map(self, voxel_map: VoxelIndexMap) -> FeatureMap:
        """Features of the voxels of the last :meth:`voxelize`; its spent
        ``rows[0]`` holds the deviations."""
        values = _feature_values(voxel_map, self.z, self.spec.kind,
                                 self.rows[0])
        return FeatureMap(kind=self.spec.kind, cells=voxel_map.occupied,
                          values=values, bounds=voxel_map.bounds)

    def histogram(self, transform: np.ndarray) -> JointHistogram:
        """Joint histogram at the rigid ``transform`` (not validated).
        Raises OutOfBoundsError when moved points leave the grid's index
        range and EmptyOverlapError when the boxes miss."""
        apply_transform(self, transform)
        region = compute_overlap(self.feat_a.bounds, self.bounds)
        if (region[0] > region[1]).any():
            raise EmptyOverlapError("scans do not overlap at this pose")
        feat_b = compute_feature_map(self, voxelize(self, region))
        return build_joint_histogram(self.feat_a, feat_b, region, self.spec)


# The stages of one evaluation, PreparedScan's methods.  Each is a module
# global called once per evaluation, so that a tracer can time it by name.
apply_transform = PreparedScan.apply_transform
voxelize = PreparedScan.voxelize
compute_feature_map = PreparedScan.compute_feature_map


def joint_histogram_at(feat_a: FeatureMap, cloud_b: PointCloud,
                       transform: np.ndarray, grid: GridSpec,
                       spec: BinningSpec) -> JointHistogram:
    """Joint histogram of scan A against scan B moved by ``transform``.

    One evaluation on a one-shot :class:`PreparedScan`.  Raises
    OutOfBoundsError when moved points leave the grid's index range,
    BoxTooLargeError when A's own box is too large, and EmptyOverlapError
    when the occupied boxes miss.
    """
    prepared = PreparedScan(feat_a, cloud_b, grid, spec)
    return prepared.histogram(validate_transform(transform))


def mi_objective(feat_a: FeatureMap, cloud_b: PointCloud | PreparedScan,
                 pose: EulerPose, grid: GridSpec, spec: BinningSpec,
                 include_phi: bool = True) -> float:
    """One objective evaluation: MI of the joint histogram at ``pose``.

    Scan A's feature map is precomputed once per run and passed in.
    ``cloud_b`` is scan B, or a :class:`PreparedScan` made from ``feat_a``,
    ``grid`` and ``spec`` (ValueError otherwise), which callers scoring
    many poses pass to reuse its buffers.  Returns the worst-possible
    sentinel, so the optimizer retreats, for candidate poses that push
    points off the representable grid (OutOfBoundsError) or leave no usable
    overlap (EmptyOverlapError: the occupied boxes miss, or phi is off and
    no voxel is occupied in both scans).  Any other error, such as a kind
    mismatch or an empty scan B, propagates.
    """
    if not isinstance(cloud_b, PreparedScan):
        cloud_b = PreparedScan(feat_a, cloud_b, grid, spec)
    elif (cloud_b.feat_a is not feat_a or cloud_b.spec != spec
          or cloud_b.grid != grid):
        raise ValueError("the prepared scan was made from another feature "
                         "map, grid or binning")
    try:
        hist = cloud_b.histogram(euler_to_transform(pose))
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
