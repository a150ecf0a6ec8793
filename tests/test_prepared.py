"""The prepared evaluator: scan B laid out once, binned over the overlap box.

``align``, ``sweep_axis`` and ``mi_at`` score every pose on one
``PreparedScan`` whose buffers each evaluation reuses.  These tests pin what
that promises: the histogram of binning B's whole moved box at every pose,
in any order; the box limit held on scan A's own box only, so no pose can
end a run with BoxTooLargeError; a prepared scan refused for other
settings; no per-point allocation per evaluation; and buffers that belong
to one call.
"""

from __future__ import annotations

import json
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import voxmi.voxel
from voxmi import (
    NO_OVERLAP_SENTINEL,
    AlignmentConfig,
    BinningSpec,
    BoxTooLargeError,
    EmptyOverlapError,
    EulerPose,
    FeatureKind,
    GridSpec,
    OutOfBoundsError,
    PointCloud,
    SceneSpec,
    SimplexConfig,
    align,
    apply_transform,
    build_joint_histogram,
    compute_feature_map,
    compute_overlap,
    euler_to_transform,
    inverse,
    mi_at,
    mi_objective,
    sweep_axis,
    synth_scene_pair,
    voxel_indices,
    voxelize,
)


def whole_box_histogram(feat_a, scan_b, transform, cfg):
    """B moved as a PointCloud and voxelized over its whole occupied box."""
    moved = apply_transform(scan_b, transform)
    feat_b = compute_feature_map(voxelize(moved, cfg.grid), moved, cfg.feature)
    # an empty overlap box raises EmptyOverlapError
    region = compute_overlap(feat_a.bounds, feat_b.bounds)
    return build_joint_histogram(feat_a, feat_b, region, cfg.binning)


@pytest.mark.parametrize("kind", list(FeatureKind))
def test_reused_scan_matches_whole_box_binning_in_any_order(kind,
                                                            align_module):
    """At resolution 1, where the move skips the division, and at 0.5, 2.0
    and 0.75, where it divides."""
    scan_a, scan_b = synth_scene_pair(SceneSpec(seed=4, n_points=6000,
                                                n_structures=20))
    rng = np.random.default_rng(40)
    # near poses, partial overlaps past every face of A's box, a pose whose
    # boxes miss and one that leaves the index range
    poses = [EulerPose(*rng.uniform(-25, 25, 2), rng.uniform(-4, 4),
                       *rng.uniform(-0.4, 0.4, 3)) for _ in range(40)]
    poses += [EulerPose(tx=1e4), EulerPose(ty=-1e7)]
    for resolution in (1.0, 0.5, 2.0, 0.75):
        cfg = AlignmentConfig(feature=kind, grid=GridSpec(resolution))
        prepared = align_module._prepare(scan_a, scan_b, cfg)
        for k in [*rng.permutation(len(poses)), *rng.permutation(len(poses))]:
            transform = euler_to_transform(poses[k])
            try:
                expected = whole_box_histogram(prepared.feat_a, scan_b,
                                               transform, cfg)
            except (EmptyOverlapError, OutOfBoundsError) as exc:
                with pytest.raises(type(exc)):
                    prepared.histogram(transform)
                continue
            hist = prepared.histogram(transform)
            np.testing.assert_array_equal(hist.counts, expected.counts)
            assert hist.total == expected.total


@pytest.mark.filterwarnings("ignore:overflow encountered in square")
def test_overflowing_variance_is_refused(align_module):
    """Two z-heights 1e160 apart in one 1e200 m voxel have a variance past
    the largest float; B's feature map refuses it as a public one does."""
    scan_a = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    scan_b = PointCloud(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e160]]))
    cfg = AlignmentConfig(grid=GridSpec(resolution=1e200))
    with pytest.raises(ValueError, match="features must be finite and >= 0"):
        compute_feature_map(voxelize(scan_b, cfg.grid), scan_b, cfg.feature)
    prepared = align_module._prepare(scan_a, scan_b, cfg)
    with pytest.raises(ValueError, match="features must be finite and >= 0"):
        prepared.histogram(np.eye(4))
    with pytest.raises(ValueError, match="features must be finite and >= 0"):
        mi_at(scan_a, scan_b, EulerPose(), cfg)


@pytest.mark.parametrize("n", [1, 2, 50])
def test_scans_are_left_untouched(n):
    """One point makes ``points.T`` contiguous already, so it is no copy."""
    points = np.random.default_rng(n).uniform(-3, 3, size=(n, 3))
    scan_a, scan_b = PointCloud(points.copy()), PointCloud(points.copy())
    cfg = AlignmentConfig(grid=GridSpec(resolution=0.5))
    voxel_indices(scan_a, cfg.grid)
    voxelize(scan_a, cfg.grid)
    mi_at(scan_a, scan_b, EulerPose(tx=0.3, rz=0.1), cfg)
    np.testing.assert_array_equal(scan_a.points, points)
    np.testing.assert_array_equal(scan_b.points, points)


def spread_pair() -> tuple[PointCloud, PointCloud]:
    """A 10 m block against a flat scan with four corners 2 km out.

    B's own box is just under the dense-grid limit at the identity and far
    past it once tilted, while its overlap with A stays A's small box.
    """
    rng = np.random.default_rng(9)
    scan_a = PointCloud(rng.uniform((-5, -5, 0), (5, 5, 3), size=(400, 3)))
    corners = [(x, y, 0.5) for x in (-2000.0, 2000.0) for y in (-2000.0, 2000.0)]
    block = rng.uniform((-5, -5, 0), (5, 5, 0.99), size=(400, 3))
    return scan_a, PointCloud(np.vstack([block, corners]))


def test_tilted_box_past_the_limit_still_scores():
    scan_a, scan_b = spread_pair()
    cfg = AlignmentConfig()
    tilted = EulerPose(rx=0.3, rz=0.2)
    moved = apply_transform(scan_b, euler_to_transform(tilted))
    with pytest.raises(BoxTooLargeError):
        voxelize(moved, cfg.grid)
    feat_a = compute_feature_map(voxelize(scan_a, cfg.grid), scan_a,
                                 cfg.feature)
    score = mi_objective(feat_a, scan_b, tilted, cfg.grid, cfg.binning)
    assert score == NO_OVERLAP_SENTINEL or math.isfinite(score)

    curve = sweep_axis(scan_a, scan_b, EulerPose(rz=0.2), "rx",
                       np.linspace(-0.6, 0.6, 7), cfg)
    assert all(mi == NO_OVERLAP_SENTINEL or math.isfinite(mi)
               for _, mi in curve)
    assert curve[3][1] > NO_OVERLAP_SENTINEL


def test_scan_a_at_the_limit_still_scores(monkeypatch):
    """A's box is exactly at the limit and B passes it on every side, so
    every evaluation bins the 6 x 6 x 6 box of A's and the guard shell."""
    monkeypatch.setattr(voxmi.voxel, "MAX_BOX_CELLS", 64)
    rng = np.random.default_rng(5)
    corners = np.array([(x, y, z) for x in (0.5, 3.5) for y in (0.5, 3.5)
                        for z in (0.5, 3.5)])
    scan_a = PointCloud(np.vstack([corners, rng.uniform(0, 4, (300, 3))]))
    outside = np.array([(-1.5, 2, 2), (5.5, 2, 2), (2, -1.5, 2),
                        (2, 5.5, 2), (2, 2, -1.5), (2, 2, 5.5)])
    scan_b = PointCloud(np.vstack([scan_a.points, outside]))
    cfg = AlignmentConfig(simplex=SimplexConfig(max_iterations=20))
    assert np.all(np.diff(voxelize(scan_a, cfg.grid).bounds, axis=0) == 3)
    with pytest.raises(BoxTooLargeError):
        voxelize(scan_b, cfg.grid)
    assert mi_at(scan_a, scan_b, EulerPose(), cfg).mi > 0.0
    report = align(scan_a, scan_b, np.eye(4), cfg)
    assert math.isfinite(report.final_mi) and report.final_mi > 0.0


def test_prepared_scan_of_other_settings_is_refused(align_module):
    scan_a, scan_b = spread_pair()
    cfg = AlignmentConfig()
    prepared = align_module._prepare(scan_a, scan_b, cfg)
    feat_a = prepared.feat_a
    assert mi_objective(feat_a, prepared, EulerPose(), GridSpec(),
                        BinningSpec(kind=cfg.feature)) > NO_OVERLAP_SENTINEL
    other_feat = compute_feature_map(voxelize(scan_a, cfg.grid), scan_a,
                                     cfg.feature)
    for args in [(other_feat, cfg.grid, cfg.binning),
                 (feat_a, GridSpec(resolution=0.5), cfg.binning),
                 (feat_a, cfg.grid, BinningSpec(cfg.feature, bin_count=16))]:
        with pytest.raises(ValueError, match="prepared scan"):
            mi_objective(args[0], prepared, EulerPose(), *args[1:])


NEAR = st.floats(-20.0, 20.0)
FAR = st.floats(-1e7, 1e7)
ANGLE = st.floats(-math.pi, math.pi)
POSES = st.builds(EulerPose, st.one_of(NEAR, FAR), NEAR,
                  st.floats(-3.0, 3.0), ANGLE, ANGLE, ANGLE)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300),
       outlier=st.booleans(), pose=POSES,
       kind=st.sampled_from(list(FeatureKind)), phi=st.booleans())
def test_every_finite_pose_scores_or_gets_the_sentinel(seed, n, outlier, pose,
                                                       kind, phi):
    """With or without a point 3 km out in B, so that B's own box can pass
    the dense-grid limit at any pose."""
    rng = np.random.default_rng(seed)
    lo, hi = (-10.0, -10.0, 0.0), (10.0, 10.0, 3.0)
    scan_a = PointCloud(rng.uniform(lo, hi, size=(n, 3)))
    points_b = rng.uniform(lo, hi, size=(n, 3))
    if outlier:
        points_b = np.vstack([points_b, [3000.0, -3000.0, 1.5]])
    cfg = AlignmentConfig(feature=kind, phi_enabled=phi)
    feat_a = compute_feature_map(voxelize(scan_a, cfg.grid), scan_a, kind)
    score = mi_objective(feat_a, PointCloud(points_b), pose, cfg.grid,
                         cfg.binning, phi)
    assert score == NO_OVERLAP_SENTINEL or (math.isfinite(score)
                                            and score >= 0.0)


@pytest.mark.parametrize("kind", list(FeatureKind))
def test_one_evaluation_allocates_less_than_one_point_array(kind,
                                                            align_module):
    scan_a, scan_b = synth_scene_pair(SceneSpec(seed=11))
    assert len(scan_b) == 50_000
    cfg = AlignmentConfig(feature=kind)
    prepared = align_module._prepare(scan_a, scan_b, cfg)

    def evaluate(pose):
        return mi_objective(prepared.feat_a, prepared, pose, cfg.grid,
                            cfg.binning)

    assert evaluate(EulerPose(tx=1.0, ty=-0.5, rz=0.05)) > NO_OVERLAP_SENTINEL
    tracemalloc.start()
    try:
        assert evaluate(EulerPose(tx=1.5, ty=-4.0, rz=0.2)) \
            > NO_OVERLAP_SENTINEL
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(scan_b)


def test_concurrent_aligns_match_serial_runs():
    scan_a, b_world = synth_scene_pair(SceneSpec(seed=12, n_points=6000,
                                                 n_structures=20))
    truth = euler_to_transform(EulerPose(tx=1.0, ty=0.5, rz=0.05))
    scan_b = apply_transform(b_world, inverse(truth))
    cfg = AlignmentConfig(simplex=SimplexConfig(
        initial_steps=(2.0, 2.0, 0.5, 0.05, 0.05, 0.2), max_iterations=60))
    starts = [np.eye(4), euler_to_transform(EulerPose(tx=2.0, rz=-0.1))]

    def run(t0) -> str:
        report = align(scan_a, scan_b, t0, cfg).to_dict()
        del report["wall_time"]
        return json.dumps(report)

    serial = [run(t0) for t0 in starts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to interleave calls
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(run, starts * 2, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 2
