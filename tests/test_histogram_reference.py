"""The dense joint histogram against a per-voxel Python reference.

The reference groups points by floor index in a dict, takes each voxel's
two-pass population variance (or point count) in cloud order with plain
float arithmetic, bins it with ``bin_feature`` and counts every cell of the
region one by one, the no-feature cell (0, 0) included.
"""

from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from voxmi import (
    NO_OVERLAP_SENTINEL,
    BinningSpec,
    EmptyOverlapError,
    EulerPose,
    FeatureKind,
    GridSpec,
    OutOfBoundsError,
    PointCloud,
    apply_transform,
    bin_feature,
    build_joint_histogram,
    compute_feature_map,
    compute_overlap,
    euler_to_transform,
    joint_histogram_at,
    mi_objective,
    mutual_information,
    overlap_voxel_count,
    voxelize,
)
from voxmi.voxel import INDEX_MAX, INDEX_MIN

NEAR = st.floats(-6.0, 6.0)
ANGLE = st.floats(-math.pi, math.pi)
POSES = st.builds(EulerPose, st.one_of(NEAR, st.floats(-1e7, 1e7)), NEAR,
                  st.floats(-2.0, 2.0), ANGLE, ANGLE, ANGLE)
# 1.0, where a prepared move skips the division by the resolution, and
# four where it divides
GRIDS = st.builds(GridSpec, st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]))


def lattice_cloud(rng: np.random.Generator, n: int) -> PointCloud:
    """n points on the 1/64 m lattice inside a 10 x 10 x 2 m block."""
    lo, hi = np.array([-320, -320, 0]), np.array([320, 320, 128])
    return PointCloud(rng.integers(lo, hi + 1, size=(n, 3)) / 64.0)


def reference_features(cloud: PointCloud, grid: GridSpec,
                       kind: FeatureKind) -> dict[tuple, float]:
    members: dict[tuple, list[float]] = {}
    res = grid.resolution
    for p in cloud.points.tolist():
        key = tuple(math.floor(c / res) for c in p)
        members.setdefault(key, []).append(p[2])
    feats = {}
    for key, zs in members.items():
        if kind is FeatureKind.COUNT:
            feats[key] = float(len(zs))
            continue
        total = 0.0
        for z in zs:
            total += z
        mean = total / len(zs)
        ssd = 0.0
        for z in zs:
            ssd += (z - mean) * (z - mean)
        feats[key] = ssd / len(zs)
    return feats


def reference_counts(feats_a: dict, feats_b: dict, region: np.ndarray,
                     spec: BinningSpec) -> np.ndarray:
    counts = np.zeros((spec.bin_count + 1,) * 2, dtype=np.int64)
    (x_min, y_min, z_min), (x_max, y_max, z_max) = region.tolist()
    for i in range(x_min, x_max + 1):
        for j in range(y_min, y_max + 1):
            for k in range(z_min, z_max + 1):
                counts[bin_feature(feats_a.get((i, j, k)), spec),
                       bin_feature(feats_b.get((i, j, k)), spec)] += 1
    return counts


def box(feats: dict) -> np.ndarray:
    ijk = np.array(list(feats), dtype=np.int64)
    return np.array([ijk.min(axis=0), ijk.max(axis=0)])


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_a=st.integers(1, 150),
       n_b=st.integers(1, 150), pose=POSES, grid=GRIDS,
       kind=st.sampled_from(list(FeatureKind)), phi=st.booleans(),
       margin=st.tuples(*[st.integers(0, 2)] * 6),
       shift=st.tuples(st.integers(-4, 4), st.integers(-4, 4)))
def test_histogram_matches_per_voxel_reference(seed, n_a, n_b, pose, grid,
                                               kind, phi, margin, shift):
    rng = np.random.default_rng(seed)
    scan_a, scan_b = lattice_cloud(rng, n_a), lattice_cloud(rng, n_b)
    spec = BinningSpec(kind=kind)
    transform = euler_to_transform(pose)
    feat_a = compute_feature_map(voxelize(scan_a, grid), scan_a, kind)
    ref_a = reference_features(scan_a, grid, kind)
    ref_b = reference_features(apply_transform(scan_b, transform), grid, kind)
    assert feat_a.as_dict() == ref_a
    score = mi_objective(feat_a, scan_b, pose, grid, spec, phi)

    if (box(ref_b) < INDEX_MIN).any() or (box(ref_b) > INDEX_MAX).any():
        try:
            joint_histogram_at(feat_a, scan_b, transform, grid, spec)
        except OutOfBoundsError:
            assert score == NO_OVERLAP_SENTINEL
            return
        raise AssertionError("a voxel index beyond the range was accepted")
    region = compute_overlap(box(ref_a), box(ref_b))
    if (region[0] > region[1]).any():
        try:
            joint_histogram_at(feat_a, scan_b, transform, grid, spec)
        except EmptyOverlapError:
            assert score == NO_OVERLAP_SENTINEL
            return
        raise AssertionError("disjoint boxes gave a histogram")

    hist = joint_histogram_at(feat_a, scan_b, transform, grid, spec)
    expected = reference_counts(ref_a, ref_b, region, spec)
    np.testing.assert_array_equal(hist.counts, expected)
    assert hist.total == overlap_voxel_count(region) == expected.sum()
    if phi or expected[1:, 1:].any():
        assert score == mutual_information(hist, include_phi=phi).mi
    else:
        assert score == NO_OVERLAP_SENTINEL

    # a region reaching past either box: cells outside a box are unoccupied
    mins = np.minimum(box(ref_a)[0], box(ref_b)[0]) - margin[:3]
    maxs = np.maximum(box(ref_a)[1], box(ref_b)[1]) + margin[3:]
    hull = np.stack([mins, maxs])
    moved_b = apply_transform(scan_b, transform)
    feat_b = compute_feature_map(voxelize(moved_b, grid), moved_b, kind)
    wide = build_joint_histogram(feat_a, feat_b, hull, spec)
    np.testing.assert_array_equal(wide.counts,
                                  reference_counts(ref_a, ref_b, hull, spec))
    assert wide.total == overlap_voxel_count(hull)

    # Whole-voxel shifts of both scans leave every count unchanged.  B is
    # snapped back onto the lattice so that each shifted coordinate is
    # exact, and z stays put so that the VARZ sums round as before.
    snapped_b = np.round(moved_b.points * 64) / 64
    offset = np.array([shift[0], shift[1], 0.0]) * grid.resolution

    def counts_at(points_a, points_b):
        cloud_a = PointCloud(points_a)
        feat = compute_feature_map(voxelize(cloud_a, grid), cloud_a, kind)
        try:
            return joint_histogram_at(feat, PointCloud(points_b), np.eye(4),
                                      grid, spec).counts
        except EmptyOverlapError:
            return None

    before = counts_at(scan_a.points, snapped_b)
    after = counts_at(scan_a.points + offset, snapped_b + offset)
    if before is None:
        assert after is None
    else:
        np.testing.assert_array_equal(after, before)
