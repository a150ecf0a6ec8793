"""Voxelization, per-voxel features, key packing, and overlap regions."""

from __future__ import annotations

import numpy as np
import pytest

from voxmi import (
    FeatureKind,
    GridSpec,
    OutOfBoundsError,
    OverlapRegion,
    PointCloud,
    compute_feature_map,
    compute_overlap,
    keys_in_region,
    overlap_voxel_count,
    pack_keys,
    unpack_keys,
    voxel_indices,
    voxelize,
)
from voxmi.voxel import KEY_INDEX_MAX, KEY_INDEX_MIN


def bounds(mins, maxs):
    return np.array([mins, maxs], dtype=np.int64)


class TestKeyPacking:
    def test_round_trip_over_full_range(self):
        rng = np.random.default_rng(40)
        ijk = rng.integers(KEY_INDEX_MIN, KEY_INDEX_MAX + 1, size=(5000, 3))
        np.testing.assert_array_equal(unpack_keys(pack_keys(ijk)), ijk)

    def test_corners_of_the_range(self):
        corners = np.array([
            [KEY_INDEX_MIN] * 3,
            [KEY_INDEX_MAX] * 3,
            [KEY_INDEX_MIN, KEY_INDEX_MAX, 0],
            [0, 0, 0],
        ])
        np.testing.assert_array_equal(unpack_keys(pack_keys(corners)), corners)

    def test_packing_is_injective_on_distinct_triples(self):
        rng = np.random.default_rng(41)
        ijk = rng.integers(-500, 500, size=(20000, 3))
        uniq_triples = np.unique(ijk, axis=0).shape[0]
        uniq_keys = np.unique(pack_keys(ijk)).shape[0]
        assert uniq_triples == uniq_keys

    def test_key_order_matches_zyx_lexicographic_x_major(self):
        """Packed order sorts by x index first, then y, then z."""
        a = pack_keys(np.array([[0, 5, 9]]))[0]
        b = pack_keys(np.array([[1, -5, -9]]))[0]
        assert a < b


class TestVoxelIndices:
    def test_unit_cell_contains_its_interior(self):
        cloud = PointCloud(np.array([[0.1, 0.1, 0.1], [0.9, 0.9, 0.9]]))
        ijk = voxel_indices(cloud, GridSpec())
        np.testing.assert_array_equal(ijk, [[0, 0, 0], [0, 0, 0]])

    def test_negative_coordinates_floor_downward(self):
        cloud = PointCloud(np.array([[-0.5, 0.0, 0.0]]))
        ijk = voxel_indices(cloud, GridSpec())
        np.testing.assert_array_equal(ijk, [[-1, 0, 0]])

    def test_origin_shifts_indices(self):
        cloud = PointCloud(np.array([[0.5, 0.5, 0.5]]))
        grid = GridSpec(origin=np.array([1.0, 0.0, 0.0]))
        np.testing.assert_array_equal(voxel_indices(cloud, grid),
                                      [[-1, 0, 0]])

    def test_resolution_scales_indices(self):
        cloud = PointCloud(np.array([[5.0, 5.0, 5.0]]))
        np.testing.assert_array_equal(
            voxel_indices(cloud, GridSpec(resolution=2.0)), [[2, 2, 2]])

    def test_out_of_range_point_named_in_error(self):
        cloud = PointCloud(np.array([[0.0, 0.0, 0.0], [3e6, 0.0, 0.0]]))
        with pytest.raises(OutOfBoundsError, match="point 1"):
            voxel_indices(cloud, GridSpec())


class TestVoxelize:
    def test_every_point_lands_in_exactly_one_voxel(self):
        rng = np.random.default_rng(42)
        cloud = PointCloud(rng.uniform(-30, 30, size=(1000, 3)))
        vmap = voxelize(cloud, GridSpec())
        assert vmap.counts.sum() == 1000
        assert np.array_equal(np.sort(vmap.point_indices), np.arange(1000))

    def test_groups_match_a_dict_oracle(self):
        rng = np.random.default_rng(43)
        cloud = PointCloud(rng.uniform(-5, 5, size=(300, 3)))
        vmap = voxelize(cloud, GridSpec())
        oracle: dict[tuple, list[int]] = {}
        ijk = np.floor(cloud.points).astype(np.int64)
        for idx, key in enumerate(map(tuple, ijk)):
            oracle.setdefault(key, []).append(idx)
        got = vmap.as_dict()
        assert set(got) == set(oracle)
        for key, members in oracle.items():
            np.testing.assert_array_equal(np.sort(got[key]), members)

    def test_bounds_are_tight(self):
        cloud = PointCloud(np.array([[0.5, -3.5, 2.5], [7.5, 1.5, -1.5]]))
        vmap = voxelize(cloud, GridSpec())
        np.testing.assert_array_equal(vmap.bounds, [[0, -4, -2], [7, 1, 2]])

    def test_empty_cloud_rejected(self):
        with pytest.raises(ValueError):
            voxelize(PointCloud(np.zeros((0, 3))), GridSpec())


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
        vmap = voxelize(cloud, GridSpec())
        feat = compute_feature_map(vmap, cloud, FeatureKind.VARZ)
        for i, ijk in enumerate(unpack_keys(vmap.keys)):
            z = cloud.points[vmap.indices_for(ijk), 2]
            np.testing.assert_allclose(feat.values[i], np.var(z), atol=1e-12)

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
        assert region.mins.tolist() == [5, 5, 5]
        assert region.maxs.tolist() == [10, 10, 10]

    def test_disjoint_is_empty(self):
        region = compute_overlap(bounds([0] * 3, [2] * 3),
                                 bounds([5] * 3, [7] * 3))
        assert region.is_empty
        assert overlap_voxel_count(region) == 0

    def test_identical_bounds_overlap_fully(self):
        b = bounds([-3, 0, 2], [4, 9, 5])
        region = compute_overlap(b, b)
        assert region.mins.tolist() == [-3, 0, 2]
        assert region.maxs.tolist() == [4, 9, 5]

    def test_single_voxel_region_counts_one(self):
        assert overlap_voxel_count(OverlapRegion(0, 0, 0, 0, 0, 0)) == 1

    def test_cube_region_counts_six_cubed(self):
        assert overlap_voxel_count(OverlapRegion(5, 10, 5, 10, 5, 10)) == 216

    def test_keys_in_region_matches_brute_force(self):
        rng = np.random.default_rng(49)
        ijk = rng.integers(-6, 7, size=(400, 3))
        keys = pack_keys(ijk)
        region = OverlapRegion(-2, 3, -1, 4, 0, 2)
        mask = keys_in_region(keys, region)
        expected = ((ijk[:, 0] >= -2) & (ijk[:, 0] <= 3)
                    & (ijk[:, 1] >= -1) & (ijk[:, 1] <= 4)
                    & (ijk[:, 2] >= 0) & (ijk[:, 2] <= 2))
        np.testing.assert_array_equal(mask, expected)
