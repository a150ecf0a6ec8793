"""The prepared evaluator: scan B laid out once, binned over the overlap box.

Every caller (``align``, ``sweep_axis``, ``mi_at`` and ``voxmi histogram``)
scores its poses through ``voxmi.align._Objective``, a ``PreparedScan``
whose buffers each evaluation reuses; a pooled sweep gives each thread its
own prepared scan.  These tests pin what that promises: the histogram of
binning B's whole moved box at every pose, in any order; the box limit
held on scan A's own box only, so no pose can end a run with
BoxTooLargeError; a prepared scan refused for other settings; no per-point
allocation per evaluation; and buffers that belong to one call.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
import tracemalloc
import warnings
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
    SWEEP_AXES,
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
    mutual_information,
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
        prepared = align_module._Objective(scan_a, scan_b, cfg)
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


@pytest.mark.parametrize("phi", [True, False], ids=["phi-on", "phi-off"])
@pytest.mark.parametrize("kind", list(FeatureKind))
def test_scores_are_the_mi_of_whole_box_binning(kind, phi, align_module):
    """Bit for bit, at the poses and resolutions of the test above: what
    ``_Objective`` scores, one pose at a time and pooled, is
    ``mutual_information`` of B's whole moved box; a pose whose boxes miss,
    that leaves the index range, or (phi off) with no voxel occupied in
    both scans scores the sentinel."""
    scan_a, scan_b = synth_scene_pair(SceneSpec(seed=4, n_points=6000,
                                                n_structures=20))
    rng = np.random.default_rng(40)
    poses = [EulerPose(*rng.uniform(-25, 25, 2), rng.uniform(-4, 4),
                       *rng.uniform(-0.4, 0.4, 3)) for _ in range(40)]
    poses += [EulerPose(tx=1e4), EulerPose(ty=-1e7)]
    for resolution in (1.0, 0.5, 2.0, 0.75):
        cfg = AlignmentConfig(feature=kind, grid=GridSpec(resolution),
                              phi_enabled=phi)
        objective = align_module._Objective(scan_a, scan_b, cfg)
        expected = []
        for pose in poses:
            try:
                hist = whole_box_histogram(objective.feat_a, scan_b,
                                           euler_to_transform(pose), cfg)
                expected.append(mutual_information(hist, phi).mi.hex())
            except (EmptyOverlapError, OutOfBoundsError):
                expected.append(NO_OVERLAP_SENTINEL.hex())
        assert expected[-2:] == [NO_OVERLAP_SENTINEL.hex()] * 2
        assert [objective(pose.as_vector()).hex()
                for pose in poses] == expected
        assert [mi.hex() for mi in objective.score_all(poses)] == expected


def test_overflowing_variance_is_refused(align_module):
    """Two z-heights 1e160 apart in one 1e200 m voxel have a variance past
    the largest float; B's feature map refuses it as a public one does."""
    scan_a = PointCloud(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    scan_b = PointCloud(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e160]]))
    cfg = AlignmentConfig(grid=GridSpec(resolution=1e200))
    with pytest.raises(ValueError, match="features must be finite and >= 0"):
        compute_feature_map(voxelize(scan_b, cfg.grid), scan_b, cfg.feature)
    prepared = align_module._Objective(scan_a, scan_b, cfg)
    with pytest.raises(ValueError, match="features must be finite and >= 0"):
        prepared.histogram(np.eye(4))
    with pytest.raises(ValueError, match="features must be finite and >= 0"):
        mi_at(scan_a, scan_b, EulerPose(), cfg)


def test_overflowing_variance_names_the_voxel_without_a_warning():
    """The bad voxel is (2, -1, 0), not the first cell of B's box.  It lies
    outside A's box, whose y runs from 0 to 0, so in an evaluation it is a
    pad cell, which no histogram reads: the score is finite."""
    scan_a = PointCloud(np.array([[0.0, 0.0, 0.0], [3.5e200, 0.5e200, 0.0]]))
    scan_b = PointCloud(np.array([[0.0, 0.0, 0.0], [3.5e200, 0.5e200, 0.0],
                                  [2.5e200, -0.5e200, 0.0],
                                  [2.5e200, -0.5e200, 1e160]]))
    cfg = AlignmentConfig(grid=GridSpec(resolution=1e200))
    message = r"features must be finite and >= 0; voxel \(2, -1, 0\) has inf"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            compute_feature_map(voxelize(scan_b, cfg.grid), scan_b,
                                cfg.feature)
        assert np.isfinite(mi_at(scan_a, scan_b, EulerPose(), cfg).mi)


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
    prepared = align_module._Objective(scan_a, scan_b, cfg)
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


def test_prepared_scan_of_another_kind_is_refused():
    from voxmi.mi import PreparedScan
    scan_a, scan_b = spread_pair()
    feat_a = compute_feature_map(voxelize(scan_a, GridSpec()), scan_a,
                                 FeatureKind.VARZ)
    with pytest.raises(ValueError, match="^feature map and binning spec "
                       "must share one kind$"):
        PreparedScan(feat_a, scan_b, GridSpec(),
                     BinningSpec(FeatureKind.COUNT))


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
    prepared = align_module._Objective(scan_a, scan_b, cfg)

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


@pytest.mark.parametrize("kind", list(FeatureKind))
def test_a_prepared_scan_holds_24_bytes_per_point(kind):
    """Guards the layout of scan B's per-point state: one (3, N) float64
    block, whose rows an evaluation reuses for the moved coordinates, the
    cells, the slots and the deviations, for either feature kind.  With
    A's raster already cached, making a prepared scan allocates 24 bytes
    per point of B and a small constant, not one more point array."""
    from voxmi.mi import PreparedScan

    scan_a, scan_b = synth_scene_pair(SceneSpec(seed=11))
    cfg = AlignmentConfig(feature=kind)
    feat_a = compute_feature_map(voxelize(scan_a, cfg.grid), scan_a, kind)
    PreparedScan(feat_a, scan_b, cfg.grid, cfg.binning)  # caches A's raster
    tracemalloc.start()
    try:
        prepared = PreparedScan(feat_a, scan_b, cfg.grid, cfg.binning)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prepared) == len(scan_b) == 50_000
    assert peak <= 24 * len(scan_b) + 4096


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


def serial_curve(scan_a, scan_b, base, axis, values, cfg, align_module):
    """A sweep's curve from a plain loop of ``mi_objective``, the reference."""
    prepared = align_module._Objective(scan_a, scan_b, cfg)
    curve = []
    for v in values:
        x = base.as_vector()
        x[SWEEP_AXES.index(axis)] = v
        curve.append((float(v), mi_objective(
            prepared.feat_a, prepared, EulerPose.from_vector(x), cfg.grid,
            cfg.binning, include_phi=cfg.phi_enabled)))
    return curve


def hexed(curve):
    return [(v.hex(), mi.hex()) for v, mi in curve]


def record_threads(monkeypatch, align_module) -> set:
    """Idents of the threads that call ``voxmi.align.mi_objective``."""
    threads = set()
    objective = align_module.mi_objective

    def recorded(*args, **kwargs):
        threads.add(threading.get_ident())
        return objective(*args, **kwargs)

    monkeypatch.setattr(align_module, "mi_objective", recorded)
    return threads


# overlapping poses, out of order, mixed with poses whose boxes miss A's
# (tx 1e4) and poses off the grid's index range (tx 1e7)
SWEEP_VALUES = [-3.0, 1e4, -1.5, -0.75, 1e7, 0.0, 0.25, 0.5, 1e4, 1.0, 2.0,
                3.5, 1e7, -0.25]
# rz values, out of order
TURN_VALUES = [0.2, -0.1, 0.05, -0.3, 0.0, 0.15, -0.05, 0.3, 0.1, -0.2]


@pytest.mark.parametrize("kind", list(FeatureKind))
def test_pooled_sweep_matches_a_serial_loop(kind, monkeypatch, align_module):
    """On four usable CPUs, whatever this machine has, with threads
    switching often; the curve stays in the order of the values.  A
    rotation sweep shares its poses with the worker; a translation sweep,
    B shifted to each pose, stays on the calling thread."""
    scan_a, scan_b = synth_scene_pair(SceneSpec(seed=6, n_points=6000,
                                                n_structures=20))
    cfg = AlignmentConfig(feature=kind)
    base = EulerPose(ty=0.4, rz=0.03)
    sweeps = [("tx", SWEEP_VALUES, 1), ("rz", TURN_VALUES, 2)]
    expected = {axis: serial_curve(scan_a, scan_b, base, axis, values, cfg,
                                   align_module)
                for axis, values, _ in sweeps}
    mis = [mi for _, mi in expected["tx"]]
    assert mis.count(NO_OVERLAP_SENTINEL) == 4
    assert all(mi > 0.0 for mi in mis if mi != NO_OVERLAP_SENTINEL)
    assert all(mi > 0.0 for _, mi in expected["rz"])

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    threads = record_threads(monkeypatch, align_module)
    before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, to interleave calls
    # threads are counted per call: a call's worker can get a new ident
    # while the last call's worker, already joined, is still exiting
    curves, counts, wanted = [], [], []
    try:
        for axis, values, n_threads in sweeps:
            for _ in range(3):
                threads.clear()
                curves.append((axis, sweep_axis(scan_a, scan_b, base, axis,
                                                values, cfg)))
                counts.append(len(threads))
                wanted.append(n_threads)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    assert counts == wanted
    for axis, curve in curves:
        assert hexed(curve) == hexed(expected[axis]), axis


@pytest.mark.parametrize("affinity", [True, False],
                         ids=["one-cpu-affinity", "no-affinity-one-cpu"])
def test_one_usable_cpu_starts_no_thread(affinity, monkeypatch,
                                         align_module):
    scan_a, scan_b = synth_scene_pair(SceneSpec(seed=6, n_points=6000,
                                                n_structures=20))
    cfg = AlignmentConfig(feature=FeatureKind.COUNT)
    expected = serial_curve(scan_a, scan_b, EulerPose(), "rz",
                            np.linspace(-0.2, 0.2, 9), cfg, align_module)
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was made on one CPU")

    monkeypatch.setattr(align_module, "ThreadPoolExecutor", no_pool)
    threads = record_threads(monkeypatch, align_module)
    curve = sweep_axis(scan_a, scan_b, EulerPose(), "rz",
                       np.linspace(-0.2, 0.2, 9), cfg)
    assert threads == {threading.get_ident()}
    assert hexed(curve) == hexed(expected)


@pytest.mark.parametrize("values, turns, voxel", [
    ([1e210, 1.5e200, 2.5e200, 5e201], [math.pi, 0.3, 0.0, math.pi],
     "(1, 0, 0)"),
    ([5e201, 1e210, 2.5e200, 1.5e200], [math.pi, math.pi, 0.0, 0.3],
     "(2, 0, 0)"),
], ids=["worker-fails-first", "caller-fails-first"])
def test_pooled_sweep_raises_the_serial_loops_first_error(values, turns,
                                                          voxel,
                                                          monkeypatch,
                                                          align_module):
    """B's two points, 1e160 m apart in z, share a 1e200 m voxel whose
    variance overflows wherever they overlap A's row of four voxels, and
    the error names that voxel.  tx 1e210 leaves the index range and
    5e201 misses A's box: both score the sentinel.  Moved 2e200 m along
    x, B lands in voxel (2, 0, 0) at rz 0, in (1, 0, 0) at rz 0.3, and
    misses A's box at rz pi.  With two threads, the rz sweep's caller
    scores the values at even positions and a worker the odd ones; the tx
    sweep, shifted, stays on the calling thread."""
    scan_a = PointCloud(np.array([[x, 0.0, 0.0]
                                  for x in (0.0, 1.5e200, 2.5e200, 3.5e200)]))
    scan_b = PointCloud(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1e160]]))
    scan_b_off = PointCloud(scan_b.points + [2e200, 0.0, 0.0])
    cfg = AlignmentConfig(grid=GridSpec(resolution=1e200))
    sweeps = [(scan_b, "tx", values, 1), (scan_b_off, "rz", turns, 2)]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    threads = record_threads(monkeypatch, align_module)
    for b, axis, axis_values, n_threads in sweeps:
        with pytest.raises(ValueError) as serial:
            serial_curve(scan_a, b, EulerPose(), axis, axis_values, cfg,
                         align_module)
        assert f"voxel {voxel} has inf" in str(serial.value), axis

        threads.clear()
        before = threading.active_count()
        with pytest.raises(ValueError) as pooled:
            sweep_axis(scan_a, b, EulerPose(), axis, axis_values, cfg)
        assert str(pooled.value) == str(serial.value), axis
        assert threading.active_count() == before
        assert len(threads) == n_threads, axis
