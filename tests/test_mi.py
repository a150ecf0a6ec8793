"""Feature binning, joint histograms, and mutual information."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from voxmi import (
    NO_OVERLAP_SENTINEL,
    BinningSpec,
    EulerPose,
    FeatureKind,
    FeatureMap,
    GridSpec,
    JointHistogram,
    PointCloud,
    apply_transform,
    bin_feature,
    bin_features,
    build_joint_histogram,
    compute_feature_map,
    compute_overlap,
    dump_histogram_csv,
    entropy,
    euler_to_transform,
    mi_objective,
    mutual_information,
    occupied_correlation,
    read_histogram_csv,
    voxelize,
)
from voxmi.errors import EmptyOverlapError


def feature_map(cells: dict[tuple, float], kind=FeatureKind.VARZ) -> FeatureMap:
    """Build a FeatureMap straight from a non-empty {(i, j, k): value}."""
    ijk = np.array(sorted(cells), dtype=np.int64)
    bounds = np.array([ijk.min(axis=0), ijk.max(axis=0)])
    flat = np.ravel_multi_index(tuple((ijk - bounds[0]).T),
                                tuple(bounds[1] - bounds[0] + 1))
    values = np.array([cells[tuple(t)] for t in ijk], dtype=np.float64)
    return FeatureMap(kind=kind, cells=flat, values=values, bounds=bounds)


def box(mins, maxs) -> np.ndarray:
    return np.array([mins, maxs], dtype=np.int64)


VARZ_SPEC = BinningSpec(kind=FeatureKind.VARZ)


class TestBinning:
    def test_no_feature_maps_to_bin_zero(self):
        assert bin_feature(None, VARZ_SPEC) == 0

    def test_zero_value_maps_to_first_occupied_bin(self):
        assert bin_feature(0.0, VARZ_SPEC) == 1

    def test_clamp_value_maps_to_top_bin(self):
        assert bin_feature(2.0, VARZ_SPEC) == 32
        assert bin_feature(999.0, VARZ_SPEC) == 32

    def test_linear_interior_bins(self):
        # width = 2.0 / 32 = 0.0625
        assert bin_feature(0.0624, VARZ_SPEC) == 1
        assert bin_feature(0.0625, VARZ_SPEC) == 2
        assert bin_feature(1.0, VARZ_SPEC) == 17

    def test_count_spec_default_clamp(self):
        spec = BinningSpec(kind=FeatureKind.COUNT)
        assert spec.upper_clamp == 64.0
        assert bin_feature(63.9, spec) == 32
        assert bin_feature(2.0, spec) == 2

    @pytest.mark.parametrize("kind", list(FeatureKind))
    def test_scalar_bin_is_the_linear_formula(self, kind):
        """``1 + int(min(b - 1, v / clamp * b))`` at 0, on both sides of
        every bin edge, at the clamp, above it and at 1e308."""
        spec = BinningSpec(kind=kind)
        b, clamp = spec.bin_count, spec.upper_clamp
        values = [0.0, clamp, 1.5 * clamp, 1e308]
        for k in range(1, b + 1):
            edge = k * clamp / b
            values += [float(np.nextafter(edge, 0.0)), edge,
                       float(np.nextafter(edge, np.inf))]
        for v in values:
            assert bin_feature(v, spec) == 1 + int(min(b - 1, v / clamp * b))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(50)
        values = rng.uniform(0, 3, size=500)
        got = bin_features(values, VARZ_SPEC)
        expected = [bin_feature(float(v), VARZ_SPEC) for v in values]
        np.testing.assert_array_equal(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(value=st.floats(min_value=0.0, allow_infinity=False),
           clamp=st.floats(1e-300, 1e300), bins=st.integers(2, 300))
    @example(value=1.7e308, clamp=2.0, bins=32)
    @example(value=1e300, clamp=2.0, bins=32)
    def test_every_finite_value_bins_alike_in_range(self, value, clamp, bins):
        """Both binners give the linear formula, computed apart from them
        in Python floats, whose quotient may overflow to inf."""
        spec = BinningSpec(FeatureKind.VARZ, bin_count=bins,
                           upper_clamp=clamp)
        expected = 1 + int(min(bins - 1, value / clamp * bins))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = bin_feature(value, spec)
            assert bin_features(np.array([value]), spec).tolist() == [expected]
        assert scalar == expected
        assert 1 <= scalar <= bins

    def test_huge_feature_lands_in_the_top_bin(self):
        spec = BinningSpec(kind=FeatureKind.COUNT)
        feat = feature_map({(0, 0, 0): 1e300, (1, 0, 0): 1.0},
                           kind=FeatureKind.COUNT)
        hist = build_joint_histogram(feat, feat, feat.bounds, spec)
        assert hist.counts[spec.bin_count, spec.bin_count] == 1
        assert hist.counts[1, 1] == 1

    def test_negative_and_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            bin_feature(-0.1, VARZ_SPEC)
        with pytest.raises(ValueError):
            bin_feature(float("nan"), VARZ_SPEC)
        with pytest.raises(ValueError):
            bin_features(np.array([0.5, -1.0]), VARZ_SPEC)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            BinningSpec(kind=FeatureKind.VARZ, bin_count=1)
        with pytest.raises(ValueError):
            BinningSpec(kind=FeatureKind.VARZ, upper_clamp=-2.0)


class TestEntropy:
    def test_single_cell_has_zero_entropy(self):
        assert entropy(np.array([7])) == 0.0

    def test_two_equal_cells_give_ln_two(self):
        assert entropy(np.array([5, 5])) == pytest.approx(np.log(2), abs=1e-15)

    def test_counts_one_two_three(self):
        # -(1/6 ln 1/6 + 2/6 ln 2/6 + 3/6 ln 3/6), computed by hand
        assert entropy(np.array([1, 2, 3])) == pytest.approx(
            1.0114042647073518, abs=1e-12)

    def test_zero_cells_are_ignored(self):
        assert entropy(np.array([0, 4, 0, 4])) == pytest.approx(
            np.log(2), abs=1e-15)

    def test_uniform_is_maximal(self):
        rng = np.random.default_rng(51)
        counts = rng.integers(1, 100, size=64)
        assert entropy(counts) <= np.log(64) + 1e-12
        assert entropy(np.ones(64)) == pytest.approx(np.log(64), abs=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            entropy(np.zeros(4))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            entropy(np.array([3, -1]))

    def test_order_independent_to_the_bit(self):
        rng = np.random.default_rng(52)
        counts = rng.integers(0, 50, size=200)
        shuffled = counts.copy()
        rng.shuffle(shuffled)
        assert entropy(counts) == entropy(shuffled)


def hist_from_counts(counts) -> JointHistogram:
    counts = np.asarray(counts, dtype=np.int64)
    return JointHistogram(counts=counts, total=int(counts.sum()),
                          spec=VARZ_SPEC)


class TestMutualInformation:
    def test_diagonal_histogram_reaches_h_x(self):
        res = mutual_information(hist_from_counts(np.diag([4, 3, 2, 1])))
        assert res.mi == pytest.approx(res.h_x, abs=1e-15)
        assert res.h_x == pytest.approx(res.h_y, abs=1e-15)

    def test_independent_histogram_has_zero_mi(self):
        row = np.array([1, 2, 3, 4], dtype=np.float64)
        col = np.array([4, 3, 2, 1], dtype=np.float64)
        res = mutual_information(hist_from_counts(np.outer(row, col)))
        assert abs(res.mi) <= 1e-12

    def test_matches_double_sum_formula(self):
        rng = np.random.default_rng(53)
        counts = rng.integers(0, 30, size=(5, 5))
        counts[0, 0] += 1  # keep the total positive
        res = mutual_information(hist_from_counts(counts))
        p = counts / counts.sum()
        px = p.sum(axis=1, keepdims=True)
        py = p.sum(axis=0, keepdims=True)
        mask = p > 0
        direct = (p[mask] * np.log(p[mask] / (px @ py)[mask])).sum()
        assert res.mi == pytest.approx(direct, abs=1e-12)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(54)
        counts = rng.integers(0, 20, size=(33, 33))
        res = mutual_information(hist_from_counts(counts))
        assert res.mi == pytest.approx(res.h_x + res.h_y - res.h_xy,
                                       abs=1e-15)

    def test_transpose_symmetry_is_exact(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            counts = rng.integers(0, 25, size=(9, 9))
            counts[1, 1] += 1
            a = mutual_information(hist_from_counts(counts))
            b = mutual_information(hist_from_counts(counts.T))
            assert a.mi == b.mi
            assert a.h_x == b.h_y and a.h_y == b.h_x and a.h_xy == b.h_xy

    def test_mi_bounded_by_min_marginal_entropy(self):
        rng = np.random.default_rng(56)
        for _ in range(50):
            counts = rng.integers(0, 25, size=(7, 7))
            counts[2, 3] += 1
            res = mutual_information(hist_from_counts(counts))
            assert res.mi >= 0.0
            assert res.mi <= min(res.h_x, res.h_y) + 1e-12

    def test_phi_excluded_drops_first_row_and_column(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 100
        counts[1, 1] = counts[2, 2] = counts[3, 3] = 5
        with_phi = mutual_information(hist_from_counts(counts))
        occupied = mutual_information(hist_from_counts(counts),
                                      include_phi=False)
        # occupied-only: three equal diagonal cells
        assert occupied.h_xy == pytest.approx(np.log(3), abs=1e-12)
        assert occupied.mi == pytest.approx(np.log(3), abs=1e-12)
        # the dominant phi cell concentrates the full joint, shrinking H
        assert with_phi.h_xy < occupied.h_xy

    def test_phi_excluded_without_co_occupied_mass_raises(self):
        counts = np.zeros((4, 4), dtype=np.int64)
        counts[0, 0] = 10
        counts[0, 2] = counts[3, 0] = 4
        assert mutual_information(hist_from_counts(counts)).mi >= 0.0
        with pytest.raises(EmptyOverlapError, match="occupied in both"):
            mutual_information(hist_from_counts(counts), include_phi=False)

    def test_negative_count_rejected(self):
        counts = np.ones((3, 3), dtype=np.int64)
        counts[2, 1] = -1
        with pytest.raises(ValueError, match="^counts must be non-negative$"):
            mutual_information(hist_from_counts(counts))


class TestBuildJointHistogram:
    def test_region_with_no_occupied_voxels_is_all_phi(self):
        feat_a = feature_map({(10, 10, 10): 0.5})
        feat_b = feature_map({(-10, -10, -10): 0.5})
        region = box([0, 0, 0], [1, 1, 1])
        hist = build_joint_histogram(feat_a, feat_b, region, VARZ_SPEC)
        assert hist.counts[0, 0] == 8
        assert hist.counts.sum() == hist.total == 8

    def test_identical_maps_fill_only_the_diagonal(self):
        cells = {(0, 0, 0): 0.01, (1, 0, 0): 0.5, (2, 0, 0): 1.9}
        feat = feature_map(cells)
        region = compute_overlap(feat.bounds, feat.bounds)
        hist = build_joint_histogram(feat, feat, region, VARZ_SPEC)
        off_diag = hist.counts - np.diag(np.diag(hist.counts))
        assert off_diag.sum() == 0
        assert hist.counts[0, 0] == 0  # region is exactly the occupied set

    def test_one_sided_voxels_pair_with_phi(self):
        feat_a = feature_map({(0, 0, 0): 0.0, (1, 0, 0): 1.0})
        feat_b = feature_map({(0, 0, 0): 0.0, (2, 0, 0): 1.0})
        region = box([0, 0, 0], [2, 0, 0])
        hist = build_joint_histogram(feat_a, feat_b, region, VARZ_SPEC)
        assert hist.counts[1, 1] == 1          # shared voxel, value 0.0
        assert hist.counts[17, 0] == 1         # A-only voxel, value 1.0
        assert hist.counts[0, 17] == 1         # B-only voxel
        assert hist.counts[0, 0] == 0
        assert hist.total == 3

    def test_matches_cell_by_cell_enumeration(self):
        rng = np.random.default_rng(57)
        for _ in range(10):
            n_a, n_b = rng.integers(1, 11, size=2)
            ijk_a = rng.integers(0, 4, size=(n_a, 3))
            ijk_b = rng.integers(0, 4, size=(n_b, 3))
            cells_a = {tuple(t): float(v) for t, v in
                       zip(ijk_a, rng.uniform(0, 2.5, size=n_a))}
            cells_b = {tuple(t): float(v) for t, v in
                       zip(ijk_b, rng.uniform(0, 2.5, size=n_b))}
            feat_a, feat_b = feature_map(cells_a), feature_map(cells_b)
            region = box([0, 0, 0], [3, 3, 3])
            hist = build_joint_histogram(feat_a, feat_b, region, VARZ_SPEC)
            expected = np.zeros_like(hist.counts)
            for i in range(4):
                for j in range(4):
                    for k in range(4):
                        x = bin_feature(cells_a.get((i, j, k)), VARZ_SPEC)
                        y = bin_feature(cells_b.get((i, j, k)), VARZ_SPEC)
                        expected[x, y] += 1
            np.testing.assert_array_equal(hist.counts, expected)
            assert hist.total == 64

    def test_total_always_equals_region_size(self):
        rng = np.random.default_rng(58)
        cloud_a = PointCloud(rng.uniform(-12, 12, size=(2000, 3)))
        cloud_b = PointCloud(rng.uniform(-8, 16, size=(2000, 3)))
        grid = GridSpec()
        fa = compute_feature_map(voxelize(cloud_a, grid), cloud_a,
                                 FeatureKind.VARZ)
        fb = compute_feature_map(voxelize(cloud_b, grid), cloud_b,
                                 FeatureKind.VARZ)
        region = compute_overlap(fa.bounds, fb.bounds)
        hist = build_joint_histogram(fa, fb, region, VARZ_SPEC)
        from voxmi import overlap_voxel_count
        assert hist.total == overlap_voxel_count(region)
        assert hist.counts.sum() == hist.total

    def test_a_callers_region_caches_nothing_on_scan_a(self):
        feat_a = feature_map({(0, 0, 0): 0.5, (2, 1, 0): 1.0})
        feat_b = feature_map({(1, 0, 0): 0.5})
        for region in (box([0, 0, 0], [2, 1, 0]), ((0, 0, 0), (1, 1, 0))):
            build_joint_histogram(feat_a, feat_b, region, VARZ_SPEC)
        assert feat_a.binned == {}

    def test_empty_region_raises(self):
        feat = feature_map({(0, 0, 0): 1.0})
        with pytest.raises(EmptyOverlapError):
            build_joint_histogram(feat, feat, box([1, 0, 0], [0, 0, 0]),
                                  VARZ_SPEC)

    def test_kind_mismatch_rejected(self):
        feat = feature_map({(0, 0, 0): 1.0}, kind=FeatureKind.COUNT)
        region = box([0, 0, 0], [0, 0, 0])
        with pytest.raises(ValueError):
            build_joint_histogram(feat, feat, region, VARZ_SPEC)


class TestMIObjective:
    def make_scene(self, seed=60, n=5000):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-15, 15, size=(n, 3))
        pts[:, 2] = rng.uniform(0, 4, size=n) * (pts[:, 0] > 0)
        return PointCloud(pts)

    def test_self_alignment_equals_marginal_entropy(self):
        cloud = self.make_scene()
        grid = GridSpec()
        feat = compute_feature_map(voxelize(cloud, grid), cloud,
                                   FeatureKind.VARZ)
        mi = mi_objective(feat, cloud, EulerPose(), grid, VARZ_SPEC)
        region = compute_overlap(feat.bounds, feat.bounds)
        hist = build_joint_histogram(feat, feat, region, VARZ_SPEC)
        res = mutual_information(hist)
        assert mi == pytest.approx(res.h_x, abs=1e-12)

    def test_truth_scores_higher_than_offset(self):
        cloud = self.make_scene(seed=61)
        grid = GridSpec()
        feat = compute_feature_map(voxelize(cloud, grid), cloud,
                                   FeatureKind.VARZ)
        at_truth = mi_objective(feat, cloud, EulerPose(), grid, VARZ_SPEC)
        offset = mi_objective(feat, cloud, EulerPose(tx=3.0, ty=-2.0, rz=0.2),
                              grid, VARZ_SPEC)
        assert at_truth > offset

    def test_disjoint_pose_returns_sentinel(self):
        cloud = self.make_scene(seed=62, n=500)
        grid = GridSpec()
        feat = compute_feature_map(voxelize(cloud, grid), cloud,
                                   FeatureKind.VARZ)
        mi = mi_objective(feat, cloud, EulerPose(tx=1e4), grid, VARZ_SPEC)
        assert mi == NO_OVERLAP_SENTINEL

    def test_pose_beyond_key_range_returns_sentinel(self):
        cloud = self.make_scene(seed=63, n=500)
        grid = GridSpec()
        feat = compute_feature_map(voxelize(cloud, grid), cloud,
                                   FeatureKind.VARZ)
        mi = mi_objective(feat, cloud, EulerPose(tx=3e6), grid, VARZ_SPEC)
        assert mi == NO_OVERLAP_SENTINEL

    def test_empty_scan_b_propagates(self):
        cloud = self.make_scene(seed=64, n=500)
        grid = GridSpec()
        feat = compute_feature_map(voxelize(cloud, grid), cloud,
                                   FeatureKind.VARZ)
        with pytest.raises(ValueError, match="cannot voxelize an empty cloud"):
            mi_objective(feat, PointCloud(np.zeros((0, 3))), EulerPose(),
                         grid, VARZ_SPEC)


class TestOccupiedCorrelation:
    def test_diagonal_mass_correlates_perfectly(self):
        counts = np.zeros((5, 5))
        counts[0, 0] = 99  # phi cell must be ignored
        np.fill_diagonal(counts[1:, 1:], [3, 7, 2, 5])
        assert occupied_correlation(counts) == pytest.approx(1.0, abs=1e-12)

    def test_anti_diagonal_mass_correlates_negatively(self):
        counts = np.zeros((5, 5))
        counts[1:, 1:] = np.fliplr(np.diag([1, 1, 1, 1]))
        assert occupied_correlation(counts) == pytest.approx(-1.0, abs=1e-12)

    def test_no_spread_gives_nan(self):
        counts = np.zeros((5, 5))
        counts[2, 2] = 10
        assert np.isnan(occupied_correlation(counts))

    def test_no_occupied_mass_gives_nan(self):
        counts = np.zeros((5, 5))
        counts[0, 0] = 4
        assert np.isnan(occupied_correlation(counts))


class TestHistogramCsv:
    def test_round_trip_with_phi(self, tmp_path):
        rng = np.random.default_rng(64)
        counts = rng.integers(0, 9, size=(33, 33))
        hist = JointHistogram(counts=counts, total=int(counts.sum()),
                              spec=VARZ_SPEC)
        path = tmp_path / "hist.csv"
        dump_histogram_csv(hist, path)
        back, meta = read_histogram_csv(path)
        np.testing.assert_array_equal(back, counts)
        assert meta["feature"] == "varz"
        assert meta["bins"] == "32"
        assert meta["phi"] == "included"

    def test_phi_excluded_drops_row_and_column(self, tmp_path):
        counts = np.arange(16).reshape(4, 4)
        hist = JointHistogram(counts=counts, total=int(counts.sum()),
                              spec=VARZ_SPEC)
        path = tmp_path / "hist.csv"
        dump_histogram_csv(hist, path, include_phi=False)
        back, meta = read_histogram_csv(path)
        np.testing.assert_array_equal(back, counts[1:, 1:])
        assert meta["phi"] == "excluded"

    def test_file_without_a_header_line_is_refused(self, tmp_path):
        path = tmp_path / "hist.csv"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError) as exc:
            read_histogram_csv(path)
        assert str(exc.value) == f"{path}: missing histogram header line"
