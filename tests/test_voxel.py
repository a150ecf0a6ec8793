"""Voxelization, per-voxel features, dense boxes, and overlap boxes."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from voxmi import (
    BinningSpec,
    BoxTooLargeError,
    FeatureKind,
    FeatureMap,
    GridSpec,
    OutOfBoundsError,
    PointCloud,
    build_joint_histogram,
    compute_feature_map,
    compute_overlap,
    overlap_voxel_count,
    voxel_indices,
    voxelize,
)
from voxmi.voxel import INDEX_MAX, INDEX_MIN, MAX_BOX_CELLS, box_shape


def bounds(mins, maxs):
    return np.array([mins, maxs], dtype=np.int64)


class TestVoxelIndices:
    def test_unit_cell_contains_its_interior(self):
        cloud = PointCloud(np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]))
        ijk = voxel_indices(cloud, GridSpec())
        np.testing.assert_array_equal(ijk, [[0, 0, 0], [0, 0, 0]])

    def test_negative_coordinates_floor_downward(self):
        cloud = PointCloud(np.array([[-0.5, 0.0, 0.0]]))
        ijk = voxel_indices(cloud, GridSpec())
        np.testing.assert_array_equal(ijk, [[-1, 0, 0]])

    def test_resolution_scales_indices(self):
        cloud = PointCloud(np.array([[5.0, 5.0, 5.0]]))
        np.testing.assert_array_equal(
            voxel_indices(cloud, GridSpec(resolution=2.0)), [[2, 2, 2]])

    def test_out_of_range_point_named_in_error(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [3e6, 0.0, 0.0]]))
        with pytest.raises(OutOfBoundsError, match="point 1"):
            voxel_indices(cloud, GridSpec())

    def test_corners_of_the_index_range(self):
        corners = np.array([
            [INDEX_MIN] * 3,
            [INDEX_MAX] * 3,
            [INDEX_MIN, INDEX_MAX, 0],
            [0, 0, 0],
        ])
        cloud = PointCloud(corners + 0.5)
        np.testing.assert_array_equal(voxel_indices(cloud, GridSpec()), corners)

    def test_first_offending_point_is_named(self):
        """Bounds flag the failure; the message still names the first point."""
        pts = np.zeros((6, 3))
        pts[2, 1] = INDEX_MIN - 0.5
        pts[4, 2] = INDEX_MAX + 1.0
        with pytest.raises(OutOfBoundsError, match="point 2 "):
            voxel_indices(PointCloud(pts), GridSpec())
        with pytest.raises(OutOfBoundsError, match="point 2 "):
            voxelize(PointCloud(pts), GridSpec())


class TestVoxelize:
    def test_every_point_lands_in_exactly_one_voxel(self):
        rng = np.random.default_rng(42)
        cloud = PointCloud(rng.uniform(-30, 30, size=(1000, 3)))
        vmap = voxelize(cloud, GridSpec())
        assert vmap.counts.sum() == 1000
        assert (vmap.counts > 0).all()
        np.testing.assert_array_equal(np.bincount(vmap.slot), vmap.counts)
        assert len(vmap) == vmap.occupied.size == vmap.counts.size

    def test_groups_match_a_dict_oracle(self):
        rng = np.random.default_rng(43)
        cloud = PointCloud(rng.uniform(-5, 5, size=(300, 3)))
        vmap = voxelize(cloud, GridSpec())
        oracle: dict[tuple, int] = {}
        for key in map(tuple, np.floor(cloud.points).astype(np.int64)):
            oracle[key] = oracle.get(key, 0) + 1
        shape = tuple(vmap.bounds[1] - vmap.bounds[0] + 1)
        voxels = np.stack(np.unravel_index(vmap.occupied, shape), axis=1)
        got = {tuple(ijk): int(n) for ijk, n in
               zip(voxels + vmap.bounds[0], vmap.counts)}
        assert got == oracle

    def test_cell_index_round_trips_to_voxel_indices(self):
        rng = np.random.default_rng(40)
        cloud = PointCloud(rng.uniform(-40, 25, size=(5000, 3)))
        grid = GridSpec(resolution=0.75)
        vmap = voxelize(cloud, grid)
        shape = tuple(vmap.bounds[1] - vmap.bounds[0] + 1)
        cell = vmap.occupied[vmap.slot]
        ijk = np.stack(np.unravel_index(cell, shape), axis=1)
        np.testing.assert_array_equal(ijk + vmap.bounds[0],
                                      voxel_indices(cloud, grid))

    def test_cell_index_is_injective_on_distinct_voxels(self):
        rng = np.random.default_rng(41)
        cloud = PointCloud(rng.uniform(-50, 50, size=(20000, 3)))
        vmap = voxelize(cloud, GridSpec())
        ijk = voxel_indices(cloud, GridSpec())
        cell = vmap.occupied[vmap.slot]
        assert np.unique(ijk, axis=0).shape[0] == np.unique(cell).size

    def test_cells_are_ordered_x_major(self):
        """Occupied cells sort by x index first, then y, then z."""
        cloud = PointCloud(np.array([[1.5, -4.5, -8.5], [0.5, 5.5, 9.5]]))
        feat = compute_feature_map(voxelize(cloud, GridSpec()), cloud,
                                   FeatureKind.COUNT)
        assert feat.voxels().tolist() == [[0, 5, 9], [1, -5, -9]]

    def test_bounds_are_tight(self):
        cloud = PointCloud(np.array([[0.5, -3.5, 2.5], [7.5, 1.5, -1.5]]))
        vmap = voxelize(cloud, GridSpec())
        np.testing.assert_array_equal(vmap.bounds, [[0, -4, -2], [7, 1, 2]])

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            voxelize(PointCloud(np.zeros((0, 3))), GridSpec())

    def test_empty_cloud_has_no_indices(self):
        ijk = voxel_indices(PointCloud(np.zeros((0, 3))), GridSpec())
        assert ijk.shape == (0, 3) and ijk.dtype == np.int64


class TestInputChecks:
    def test_unknown_feature_kind_is_named(self):
        with pytest.raises(ValueError, match="^unknown feature kind 'var'; "
                           "expected 'varz' or 'count'$"):
            FeatureKind.from_name("var")

    @pytest.mark.parametrize("resolution", [0.0, -0.5])
    def test_resolution_must_be_positive(self, resolution):
        with pytest.raises(ValueError, match=f"^grid resolution must be > 0, "
                           f"got {resolution}$"):
            GridSpec(resolution)

    def test_box_must_be_two_by_three(self):
        with pytest.raises(ValueError, match=r"^bounds must be \(2, 3\) "
                           r"\[mins; maxs\] arrays$"):
            box_shape(np.zeros((3, 2), dtype=np.int64))

    def test_feature_map_cells_and_values_must_match(self):
        with pytest.raises(ValueError, match="^cells and values must have "
                           "matching shapes$"):
            FeatureMap(FeatureKind.COUNT, np.arange(3), np.ones(2),
                       bounds([0] * 3, [2, 0, 0]))

    def test_feature_map_of_another_clouds_voxel_map_is_refused(self):
        cloud = PointCloud(np.random.default_rng(47).uniform(size=(5, 3)))
        vmap = voxelize(PointCloud(cloud.points[:4]), GridSpec())
        with pytest.raises(ValueError, match="^voxel map covers 4 points, "
                           "cloud has 5$"):
            compute_feature_map(vmap, cloud, FeatureKind.COUNT)


class TestFeatureMaps:
    def test_two_point_variance(self):
        cloud = PointCloud(np.array([[0.1, 0.1, 1.0], [0.2, 0.2, 3.0]]))
        grid = GridSpec(resolution=8.0)
        feat = compute_feature_map(voxelize(cloud, grid), cloud,
                                   FeatureKind.VARZ)
        assert feat.values.tolist() == [1.0]

    def test_single_point_variance_is_zero(self):
        cloud = PointCloud(np.array([[0.3, 0.3, 0.7]]))
        feat = compute_feature_map(voxelize(cloud, GridSpec()), cloud,
                                   FeatureKind.VARZ)
        assert feat.values.tolist() == [0.0]

    def test_count_of_seven(self):
        cloud = PointCloud(np.tile([[0.5, 0.5, 0.5]], (7, 1)))
        feat = compute_feature_map(voxelize(cloud, GridSpec()), cloud,
                                   FeatureKind.COUNT)
        assert feat.values.tolist() == [7.0]

    def test_varz_matches_numpy_population_variance(self):
        rng = np.random.default_rng(44)
        cloud = PointCloud(rng.uniform(-10, 10, size=(4000, 3)))
        feat = compute_feature_map(voxelize(cloud, GridSpec()), cloud,
                                   FeatureKind.VARZ)
        members: dict[tuple, list[float]] = {}
        for key, z in zip(map(tuple, voxel_indices(cloud, GridSpec())),
                          cloud.points[:, 2]):
            members.setdefault(key, []).append(z)
        got = feat.as_dict()
        assert set(got) == set(members)
        for key, zs in members.items():
            np.testing.assert_allclose(got[key], np.var(zs), atol=1e-12)
            assert feat.value_for(key) == got[key]
        assert feat.value_for(feat.bounds[1] + 1) is None
        assert feat.value_for(feat.bounds[0] - [0, 1, 0]) is None
        lo, hi = feat.bounds.tolist()
        cells = itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))
        empty = next(ijk for ijk in cells if ijk not in members)
        assert feat.value_for(empty) is None

    def test_varz_never_negative_on_tight_clusters(self):
        rng = np.random.default_rng(45)
        base = rng.uniform(-20, 20, size=(50, 3))
        pts = np.repeat(base, 40, axis=0)
        pts[:, 2] += rng.normal(scale=1e-9, size=len(pts))
        cloud = PointCloud(pts)
        feat = compute_feature_map(voxelize(cloud, GridSpec()), cloud,
                                   FeatureKind.VARZ)
        assert (feat.values >= 0).all()

    def test_feature_bounds_equal_voxel_bounds(self):
        rng = np.random.default_rng(46)
        cloud = PointCloud(rng.uniform(-9, 9, size=(500, 3)))
        vmap = voxelize(cloud, GridSpec())
        feat = compute_feature_map(vmap, cloud, FeatureKind.COUNT)
        np.testing.assert_array_equal(feat.bounds, vmap.bounds)


class TestOverlap:
    def test_partial_intersection(self):
        region = compute_overlap(bounds([0] * 3, [10] * 3),
                                 bounds([5] * 3, [15] * 3))
        assert region.tolist() == [[5, 5, 5], [10, 10, 10]]

    def test_disjoint_is_empty(self):
        region = compute_overlap(bounds([0] * 3, [2] * 3),
                                 bounds([5] * 3, [7] * 3))
        assert (region[0] > region[1]).any()
        assert overlap_voxel_count(region) == 0

    def test_identical_bounds_overlap_fully(self):
        b = bounds([-3, 0, 2], [4, 9, 5])
        region = compute_overlap(b, b)
        assert region.tolist() == [[-3, 0, 2], [4, 9, 5]]

    def test_single_voxel_region_counts_one(self):
        assert overlap_voxel_count(bounds([0] * 3, [0] * 3)) == 1

    def test_cube_region_counts_six_cubed(self):
        assert overlap_voxel_count(bounds([5] * 3, [10] * 3)) == 216


class TestBoxLimit:
    def test_spread_cloud_raises_naming_the_extents(self):
        cloud = PointCloud(np.array([[-1e5] * 3, [1e5] * 3]))
        tracemalloc.start()
        try:
            with pytest.raises(BoxTooLargeError,
                               match="200001 x 200001 x 200001"):
                voxelize(cloud, GridSpec())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_limit_is_inclusive(self):
        assert box_shape(np.array([[0, 0, 0], [MAX_BOX_CELLS - 1, 0, 0]])) \
            == (MAX_BOX_CELLS, 1, 1)
        with pytest.raises(BoxTooLargeError):
            box_shape(np.array([[0, 0, 0], [MAX_BOX_CELLS, 0, 0]]))

    def test_histogram_region_above_the_limit_raises(self):
        cloud = PointCloud(np.array([[0.5, 0.5, 0.5]]))
        feat = compute_feature_map(voxelize(cloud, GridSpec()), cloud,
                                   FeatureKind.COUNT)
        region = bounds([0] * 3, [1 << 10] * 3)
        with pytest.raises(BoxTooLargeError):
            build_joint_histogram(feat, feat, region,
                                  BinningSpec(kind=FeatureKind.COUNT))
