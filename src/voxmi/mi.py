"""Joint/marginal histograms over the overlap region and the MI objective.

Features of both scans inside the overlap region are binned into a 2D
histogram whose bin 0 on each axis is reserved for the no-feature value of
unoccupied voxels.  Every cell of the region is counted, so voxels empty in
both scans land in cell (0, 0) and empty space contributes alignment
evidence.  A caller's region is counted cell by cell.  An evaluation's
own region, on a :class:`PreparedScan` that bins scan B over A's box padded
by one cell per side, reads a raster of A's bins over that box straight at
B's cells, with A's counts cached per region.  Mutual information is
H(X) + H(Y) - H(X, Y) in nats.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from operator import gt

import numpy as np

from .errors import EmptyOverlapError, OutOfBoundsError
from .geometry import EulerPose, PointCloud, euler_to_transform, validate_transform
from .voxel import (
    INDEX_MAX,
    INDEX_MIN,
    FeatureKind,
    FeatureMap,
    GridSpec,
    VoxelIndexMap,
    _cell_index,
    _corners,
    _count_cells,
    _feature_map,
    _floor_rows,
    _overlap,
    _xy_index,
    box_shape,
    overlap_voxel_count,
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
        if not (np.isfinite(self.upper_clamp) and self.upper_clamp > 0):
            raise ValueError(
                f"upper_clamp must be in (0, inf), got {self.upper_clamp}")


def bin_feature(value: float | None, spec: BinningSpec) -> int:
    """Bin a single feature value; None (no-feature) maps to bin 0."""
    if value is None:
        return 0
    if not np.isfinite(value) or value < 0:
        raise ValueError(f"feature value must be finite and >= 0, got {value}")
    return int(_bins(np.array([value], dtype=np.float64), spec, np.int64)[0])


def bin_features(values: np.ndarray, spec: BinningSpec) -> np.ndarray:
    """Vectorized :func:`bin_feature` for occupied values only."""
    values = np.asarray(values, dtype=np.float64)
    if values.size and (not np.isfinite(values).all() or (values < 0).any()):
        raise ValueError("feature values must be finite and >= 0")
    return _bins(values, spec, np.int64)


def _bins(values: np.ndarray, spec: BinningSpec, dtype) -> np.ndarray:
    """:func:`bin_features` of values known finite and >= 0, as ``dtype``."""
    b, clamp = spec.bin_count, spec.upper_clamp
    scaled = np.minimum(values, clamp)  # bins alike, and none overflows
    scaled /= clamp
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


class _OwnRegion(tuple):
    """An evaluation's (mins, maxs) region, A's box cut by moved B's box
    before the clamp; only :meth:`PreparedScan.histogram` makes one."""


def _pair_raster(feat: FeatureMap, spec: BinningSpec) -> tuple:
    """Scan A's bins times ``bin_count + 1`` over its box padded by one cell
    per side, so that adding the other scan's bin gives a cell's pair index;
    the pad holds ``(bin_count + 1) ** 2``, so its pairs land past every
    histogram cell, and an evaluation's B cells index it as they are.
    Returned as ``(raster, padded, regions)``, with the padded box and A's
    counts per region already counted, keyed by the region's mins and maxs.

    Made once per spec and cached on the feature map, so scan A is binned
    once per run; only a :class:`PreparedScan` makes it, up front.
    """
    entry = feat.binned.get(spec)
    if entry is None:
        width = spec.bin_count + 1
        box = _corners(feat.bounds)
        padded = (tuple(v - 1 for v in box[0]), tuple(v + 1 for v in box[1]))
        # no limit check: PreparedScan checks A's own box
        dtype = np.min_scalar_type(width * width + spec.bin_count)
        core = np.zeros([hi - lo + 1 for lo, hi in zip(*box)], dtype=dtype)
        # a feature map holds finite values >= 0 only, so they bin unchecked
        bins = _bins(feat.values, spec, dtype)
        core.ravel()[feat.cells] = bins
        core *= width
        raster = np.full([n + 2 for n in core.shape], width * width, dtype)
        raster[1:-1, 1:-1, 1:-1] = core
        # A's counts over its own box, the most common region
        counts = np.bincount(bins, minlength=width)
        counts[0] = core.size - bins.size
        entry = feat.binned[spec] = (raster, padded,
                                     {(*box[0], *box[1]): counts})
    return entry


def _region_counts(entry: tuple, region: tuple, width: int) -> np.ndarray:
    """Scan A's bin counts over every cell of an evaluation's ``region``, in
    A's box; cached per region in ``entry``, :func:`_pair_raster`'s."""
    raster, padded, regions = entry
    key = (*region[0], *region[1])
    counts = regions.get(key)
    if counts is None:  # two threads may both count it: the counts agree
        view = raster[tuple(slice(lo - p, hi - p + 1)
                            for lo, hi, p in zip(*region, padded[0]))]
        counts = np.bincount(view.ravel(),
                             minlength=width * width)[::width].copy()
        regions[key] = counts
    return counts


def build_joint_histogram(feat_a: FeatureMap, feat_b: FeatureMap,
                          region, spec: BinningSpec) -> JointHistogram:
    """Count co-located feature-bin pairs over every voxel of the region,
    a (2, 3) [mins; maxs] index box.

    Voxels occupied in one scan only pair with bin 0 on the other axis, and
    voxels occupied in neither land in cell (0, 0).  Region cells outside a
    map's box are unoccupied in that map.  A region, array or tuple, is
    counted cell by cell, each cell's pair index A's bin times
    ``bin_count + 1`` plus B's bin.  Only an evaluation's own region
    (:class:`PreparedScan`) reads A's cached raster at B's cells instead,
    with column 0 A's cached counts over the region less each row's B voxels.
    """
    if feat_a.kind is not spec.kind or feat_b.kind is not spec.kind:
        raise ValueError("feature maps and binning spec must share one kind")
    width = spec.bin_count + 1
    if type(region) is _OwnRegion:
        entry = _pair_raster(feat_a, spec)
        raster = entry[0]
        pairs = _bins(feat_b.values, spec, raster.dtype)
        pairs += raster.ravel()[feat_b.cells]
    else:
        region = _corners(region)
        if any(map(gt, *region)):
            raise EmptyOverlapError("overlap region is empty")
        cells = np.zeros(box_shape(region), dtype=np.int64)
        for feat, scale in ((feat_a, width), (feat_b, 1)):
            ijk = feat.voxels()
            keep = ((ijk >= region[0]) & (ijk <= region[1])).all(axis=1)
            bins = _bins(feat.values[keep], spec, np.int64)
            cells[tuple((ijk[keep] - region[0]).T)] += bins * scale
        pairs = cells.ravel()
    counts = np.bincount(pairs, minlength=width * width)[:width * width]
    counts = counts.reshape(width, width)
    if type(region) is _OwnRegion:
        # every B bin is >= 1, so column 0 holds no B voxel yet
        counts[:, 0] = _region_counts(entry, region, width) - counts.sum(axis=1)
    return JointHistogram(counts=counts, total=overlap_voxel_count(region),
                          spec=spec)


def entropy(counts) -> float:
    """Shannon entropy in nats of a non-negative count array (any shape)."""
    arr = np.asarray(counts, dtype=np.float64).ravel()
    if arr.size and (arr < 0).any():
        raise ValueError("counts must be non-negative")
    total = arr.sum()
    if not total > 0:
        raise ValueError("entropy of an all-zero distribution is undefined")
    return _entropies(total, arr)[0]


def _entropies(total, *parts: np.ndarray) -> list[float]:
    """:func:`entropy` of each of ``parts``, counts >= 0 summing to ``total``
    > 0.  Their ``p * log(p)`` terms come from one run of numpy calls, each
    as its own would; summed sorted, transposes give the same entropies."""
    counts = np.concatenate(parts, axis=None)
    p = counts[counts > 0] / total
    terms = np.log(p)
    terms *= p
    spans, start = [], 0
    for part in parts:
        span = terms[start:start + np.count_nonzero(part)]
        span.sort()
        spans.append(span)
        start += span.size
    return [-float(np.add.reduce(span)) for span in spans]


def mutual_information(hist: JointHistogram,
                       include_phi: bool = True) -> MIResult:
    """MI = H(X) + H(Y) - H(X, Y) over the joint histogram.

    With ``include_phi=False`` the no-feature row and column are dropped and
    MI is computed over voxels occupied in both scans only.  Raises
    EmptyOverlapError when the scored counts have no mass: with phi off,
    when no voxel is occupied in both scans.
    """
    m = hist.counts if include_phi else hist.counts[1:, 1:]
    if m.size and np.minimum.reduce(m, axis=None) < 0:
        raise ValueError("counts must be non-negative")
    # the marginals and the joint share this total
    total = np.add.reduce(m, axis=None)
    if not total > 0:
        raise EmptyOverlapError(
            "overlap region is empty" if include_phi else
            "no voxel is occupied in both scans, so MI without the "
            "no-feature bin is undefined")
    h_x, h_y, h_xy = _entropies(total, np.add.reduce(m, axis=1),
                                np.add.reduce(m, axis=0), m)
    mi = h_x + h_y - h_xy
    if -1e-12 <= mi < 0.0:
        mi = 0.0
    return MIResult(mi=mi, h_x=h_x, h_y=h_y, h_xy=h_xy)


def _clamp(rows, lo, hi, mins, maxs) -> None:
    """Clamp each of the floored ``rows``, whose bounds are ``lo`` and
    ``hi``, into its range of ``mins`` to ``maxs``, where it leaves it."""
    for row, low, high, p, q in zip(rows, lo, hi, mins, maxs):
        if low < p:
            np.maximum(row, p, out=row)
        if high > q:
            np.minimum(row, q, out=row)


class PreparedScan:
    """Scan B laid out once for evaluations against scan A's feature map.

    ``points`` is B as a (3, N) view of its own (N, 3) array, not a copy.
    Every evaluation refills one (3, N) float64 block, ``rows``: 24 bytes a
    point of B, for either feature kind.  Row 2 holds moved z in metres.
    Row 0 holds x, then the x and y part of each cell index, then VARZ's
    deviations.  Row 1 holds y, then floor(z / resolution), then, as the
    int view ``cell``, each point's cell, over which VARZ's slots are
    written.  So concurrent evaluations each need their own prepared scan.
    They may share ``feat_a``: its pair raster is cached here, so no
    evaluation writes it.  An evaluation bins B over A's box padded by one
    cell per side, ``box``, fixed for the scan's life, so B's cells index
    A's pair raster directly; only A's box is checked against the
    dense-grid limit, so no pose of B can raise BoxTooLargeError.  Its own
    region, A's box cut by B's box before the clamp, holds every B voxel of
    A's box and the clamp puts the rest in the pad, so the histogram reads
    A's raster at B's cells with no region test.  After :meth:`split`, the
    one thread of an executor moves the second half of B's points.

    After :meth:`shift_along`, poses that share the rotation block and two
    translations move B by a shift along the third axis: the product, and
    the floor, clamp and index of the two other axes, run once, and a pose
    costs an add, a floor, a clamp, a multiply and an add per point, not a
    GEMM and about 13 passes.  The rotated row and the summed terms are
    kept in a (2, N) block of their own, 40 bytes a point in all.
    """

    def __init__(self, feat_a: FeatureMap, cloud_b: PointCloud,
                 grid: GridSpec, spec: BinningSpec):
        if feat_a.kind is not spec.kind:
            raise ValueError("feature map and binning spec must share one kind")
        n = len(cloud_b)
        if n == 0:
            raise ValueError("cannot voxelize an empty cloud")
        box_shape(feat_a.bounds)
        raster, self.box, _ = _pair_raster(feat_a, spec)
        self.size = raster.size
        self.feat_a, self.grid, self.spec = feat_a, grid, spec
        self.a_box = _corners(feat_a.bounds)
        self.points = cloud_b.points.T
        self.rows = np.empty((3, n))
        self.row = tuple(self.rows)  # its rows as views, made once
        self.cell = self.row[1].view(np.intp)
        self.whole, self.halves, self.helper = self._part(0, n), None, None
        self.shift_along(None)

    def __len__(self) -> int:
        return self.points.shape[1]

    def _part(self, lo: int, hi: int) -> tuple:
        """Views of points ``lo`` to ``hi`` in the points and ``rows``."""
        rows = self.rows[:, lo:hi]
        return (lo, self.points[:, lo:hi], rows, rows[:2], tuple(rows),
                self.cell[lo:hi])

    def split(self, helper) -> None:
        """From now on, while ``helper`` is set, let the one thread of that
        executor move the second half of B's points as the caller moves the
        first.  Each half needs 2 points or more: NumPy multiplies a
        one-column matrix on another path, which rounds differently."""
        n = len(self)
        if n < 4:
            raise ValueError(
                f"cannot split {n} points into halves of 2 or more")
        self.halves = self._part(0, n // 2), self._part(n // 2, n)
        self.helper = helper

    def _move(self, t: np.ndarray, part: tuple) -> tuple[list, list]:
        """:meth:`apply_transform` of the points of one :meth:`_part`;
        returns their index box before the clamp."""
        first, points, rows, xy, (x, y, z), cell = part
        # a GEMM on the transposed view, bit for bit the product that
        # ``geometry.apply_transform`` makes, with no copy of the scan
        np.matmul(t[:3, :3], points, out=rows)
        rows += t[:3, 3:]
        resolution = self.grid.resolution
        if resolution != 1.0:
            xy /= resolution
        # floor and division by the resolution keep the order of values, so
        # the bounds of the floored rows are the floored bounds
        lo = np.minimum.reduce(rows, axis=1).tolist()
        hi = np.maximum.reduce(rows, axis=1).tolist()
        lo[2] /= resolution
        hi[2] /= resolution
        # floor(v) leaves [INDEX_MIN, INDEX_MAX] iff v does [INDEX_MIN,
        # INDEX_MAX + 1)
        if min(lo) < INDEX_MIN or max(hi) >= INDEX_MAX + 1:
            # nothing is spent yet: with z divided too, the rows are the
            # grid coordinates, which name the first offending point
            if resolution != 1.0:
                z /= resolution
            _floor_rows(
                rows, lambda i: t[:3, :3] @ points[:, i] + t[:3, 3], first)
        lo, hi = list(map(math.floor, lo)), list(map(math.floor, hi))
        np.floor(xy, out=xy)
        _clamp((x, y), lo, hi, *self.box)
        _xy_index(x, y, self.box)
        # y is spent: it takes z's floor, then the cells
        np.floor(np.divide(z, resolution, out=y) if resolution != 1.0 else z,
                 out=y)
        _clamp((y,), lo[2:], hi[2:], self.box[0][2:], self.box[1][2:])
        _cell_index(x, y, self.box, cell)
        return lo, hi

    def shift_along(self, axis: int | None) -> None:
        """From now on, while ``axis`` (0, 1 or 2 for x, y or z) is set,
        rotate B once for each run of poses that share the rotation block
        and the other two translations, and move it to each pose of the run
        by a shift along ``axis`` alone, with cells bit for bit the full
        move's.  A pose off the index range takes the full move, whose
        error names the first offending point.  ``None`` returns every
        pose to the full move, split or not, and frees what shifts keep."""
        self.axis, self.key, self.kept = axis, None, None
        self.fixed = [i for i in range(3) if i != axis]

    def _hold(self, t: np.ndarray) -> None:
        """Rotate B by ``t`` and keep, in a (2, N) block, what every shift
        of it along ``axis`` shares: the rotated row of that axis with its
        bounds, and the cell index terms of the other two axes, floored,
        clamped and summed, with their bounds.  ``rows`` 2 keeps the moved
        heights when z is not swept."""
        a, rows, res = self.axis, self.rows, self.grid.resolution
        (x0, y0, z0), (_, y1, z1) = self.box
        nz = z1 - z0 + 1
        scale = ((y1 - y0 + 1) * nz, nz, 1)  # as _xy_index and _cell_index
        if self.kept is None:
            swept, terms = np.empty((2, len(self)))
        else:
            swept, terms = self.kept[:2]
        np.matmul(t[:3, :3], self.points, out=rows)
        lo, hi = [0.0] * 3, [0.0] * 3  # in voxels, before the floor
        for i, out in zip(self.fixed, (terms, swept)):  # swept: scratch
            row = rows[i]
            row += t[i, 3]
            # a min or max of rounded values is the rounded min or max
            lo[i] = float(np.minimum.reduce(row)) / res
            hi[i] = float(np.maximum.reduce(row)) / res
            np.floor(np.divide(row, res, out=out) if res != 1.0 else row,
                     out=out)
            _clamp((out,), [math.floor(lo[i])], [math.floor(hi[i])],
                   self.box[0][i:i + 1], self.box[1][i:i + 1])
            if scale[i] != 1:
                out *= scale[i]
        # integers below 2**46 in any order: the sums are exact
        terms += swept
        terms -= (x0 * (y1 - y0 + 1) + y0) * nz + z0
        np.copyto(swept, rows[a])
        self.kept = (swept, terms, float(np.minimum.reduce(swept)),
                     float(np.maximum.reduce(swept)), scale[a], lo, hi)

    def _shift(self, t: np.ndarray) -> tuple[list, list]:
        """:meth:`_move` of all of B by ``t``, as a shift of what
        :meth:`_hold` kept when ``t`` shares its key, the rotation block and
        the translations off ``axis``: an add, a floor, a clamp, a multiply
        and an add into the cells, with the bounds from the kept ones."""
        a, res = self.axis, self.grid.resolution
        key = t[:3, :3].tobytes() + t[self.fixed, 3].tobytes()
        if key != self.key:
            self._hold(t)
            self.key = key
        swept, terms, low, high, scale, lo, hi = self.kept
        v = t[a, 3]
        lo, hi = lo.copy(), hi.copy()
        lo[a], hi[a] = (low + v) / res, (high + v) / res
        if min(lo) < INDEX_MIN or max(hi) >= INDEX_MAX + 1:
            self.key = None  # the full move, which raises, spends ``rows``
            return self._move(t, self.whole)
        lo, hi = list(map(math.floor, lo)), list(map(math.floor, hi))
        work = self.row[1]
        # the moved row, in its own row of ``rows``: row 2 is VARZ's heights
        moved = np.add(swept, v, out=self.row[a])
        np.floor(np.divide(moved, res, out=work) if res != 1.0 else moved,
                 out=work)
        _clamp((work,), lo[a:a + 1], hi[a:a + 1], self.box[0][a:a + 1],
               self.box[1][a:a + 1])
        if scale != 1:
            work *= scale
        work += terms
        np.copyto(self.cell, work, casting="unsafe")  # in place, no copy
        return lo, hi

    def apply_transform(self, t: np.ndarray) -> None:
        """Move B by the rigid transform ``t`` (not validated), floor it
        onto the grid (``R @ p``, ``+ t``, ``/ resolution``, a division
        skipped at resolution 1), clamp it into ``box`` and index its cells
        there; ``bounds`` becomes moved B's index box before the clamp.
        Points past A's box land in the pad, which no histogram reads, so a
        voxel of A's box holds the same points as in B's own box."""
        if self.axis is not None:
            self.bounds = self._shift(t)
            return
        if self.helper is None:
            self.bounds = self._move(t, self.whole)
            return
        first, second = self.halves
        job = self.helper.submit(self._move, t, second)
        try:
            lo, hi = self._move(t, first)
        except BaseException:
            job.exception()  # the helper still fills the buffers
            raise
        lo2, hi2 = job.result()  # its error names a later point
        self.bounds = list(map(min, lo, lo2)), list(map(max, hi, hi2))

    def voxelize(self) -> VoxelIndexMap:
        """Count moved B's points per cell of ``box``, from the cells of the
        last :meth:`apply_transform`; a cell's points are in point order.
        VARZ's slots are written over the cells, which no later stage
        reads."""
        varz = self.spec.kind is FeatureKind.VARZ
        return _count_cells(self.cell, self.box, self.size,
                            self.cell if varz else None)

    def compute_feature_map(self, voxel_map: VoxelIndexMap) -> FeatureMap:
        """Features of the voxels of the last :meth:`voxelize`, at the
        moved heights ``rows[2]``; the spent ``rows[0]`` holds the
        deviations.  A variance past the largest float raises ValueError
        naming the voxel only inside A's box: no histogram reads a pad
        cell's feature."""
        return _feature_map(voxel_map, self.row[2], self.spec.kind,
                            self.row[0], self.feat_a.bounds)

    def histogram(self, transform: np.ndarray) -> JointHistogram:
        """Joint histogram at the rigid ``transform`` (not validated).
        Raises OutOfBoundsError when moved points leave the grid's index
        range and EmptyOverlapError when the boxes miss."""
        apply_transform(self, transform)
        region = _OwnRegion(compute_overlap(self.a_box, self.bounds))
        if any(map(gt, *region)):
            raise EmptyOverlapError("scans do not overlap at this pose")
        feat_b = compute_feature_map(self, voxelize(self))
        return build_joint_histogram(self.feat_a, feat_b, region, self.spec)


# The stages of one evaluation, PreparedScan's methods.  Each is a module
# global called once per evaluation, so that a tracer can time it by name.
apply_transform = PreparedScan.apply_transform
voxelize = PreparedScan.voxelize
compute_feature_map = PreparedScan.compute_feature_map
# the region as int tuples, where ``voxmi.voxel``'s returns an array
compute_overlap = _overlap


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
    ``grid`` and ``spec`` (ValueError otherwise), whose buffers the
    evaluation reuses; ``voxmi.align`` passes its objective.  Returns the
    worst-possible sentinel, so the optimizer retreats, for candidate poses
    that push points off the representable grid (OutOfBoundsError) or leave
    no usable overlap (EmptyOverlapError: the occupied boxes miss, or phi is
    off and no voxel is occupied in both scans).  Any other error, such as a
    kind mismatch or an empty scan B, propagates.
    """
    if not isinstance(cloud_b, PreparedScan):
        cloud_b = PreparedScan(feat_a, cloud_b, grid, spec)
    elif (cloud_b.feat_a is not feat_a  # a tuple compares identity first
          or (cloud_b.spec, cloud_b.grid) != (spec, grid)):
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
