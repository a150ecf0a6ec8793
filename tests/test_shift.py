"""Translation sweeps: scan B rotated once, then shifted to each pose.

``PreparedScan.shift_along`` keeps B's rotated row of the swept axis and
the summed cell-index terms of the other two axes while the poses share
the rotation block and those two translations; ``sweep_axis`` turns it
on for a tx, ty or tz sweep.  These tests pin what that
promises: every histogram, score and error of a shifted pose is the one a
fresh prepared scan gives at that pose, bit for bit, at any resolution and
feature kind; a pose off the index range or with no overlap is scored and
reported as before; a new rotation or translation is never served from
what an earlier pose kept; the sweep runs on the calling thread, also
for a B large enough to split its moves; and a shift allocates no
per-point array.
"""

from __future__ import annotations

import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from voxmi import (
    NO_OVERLAP_SENTINEL,
    AlignmentConfig,
    EmptyOverlapError,
    EulerPose,
    FeatureKind,
    GridSpec,
    OutOfBoundsError,
    PointCloud,
    SceneSpec,
    euler_to_transform,
    mutual_information,
    sweep_axis,
    synth_scene_pair,
)
from voxmi.mi import PreparedScan

AXES = ("tx", "ty", "tz")
BASE = EulerPose(tx=0.3, ty=-0.2, tz=0.1, rx=0.02, ry=-0.01, rz=0.15)
# overlapping values, out of order, mixed with values whose boxes miss A's
# (1e4 m) and values off the grid's index range (1e7 m)
VALUES = [-4.0, -2.5, 1e7, -0.75, 0.0, 0.4, 1e4, 1.0, 3.25, -1e7, 0.5]
OFF_RANGE = 2


def scene(n_points: int = 4000):
    return synth_scene_pair(SceneSpec(seed=21, n_points=n_points,
                                      n_structures=12))


def outcome(scan: PreparedScan, pose: EulerPose, phi: bool = True):
    """Histogram counts, total and MI bits at ``pose``, or the error."""
    try:
        hist = scan.histogram(euler_to_transform(pose))
    except (OutOfBoundsError, EmptyOverlapError) as exc:
        return type(exc), str(exc)
    return (hist.counts.tolist(), hist.total,
            mutual_information(hist, phi).mi.hex())


def fresh(objective, pose: EulerPose):
    """:func:`outcome` on a prepared scan made for this pose alone."""
    return outcome(PreparedScan(objective.feat_a,
                                PointCloud(objective.points.T),
                                objective.grid, objective.spec), pose,
                   objective.phi)


def score(result) -> str:
    """The objective's score of an :func:`outcome`, as hex."""
    return (NO_OVERLAP_SENTINEL if isinstance(result[0], type)
            else float.fromhex(result[2])).hex()


def counted_moves(monkeypatch) -> list:
    """One entry per full move of B, shifted or not."""
    moves = []
    move = PreparedScan._move

    def counted(self, t, part):
        moves.append(1)
        return move(self, t, part)

    monkeypatch.setattr(PreparedScan, "_move", counted)
    return moves


@pytest.mark.parametrize("resolution", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("kind", list(FeatureKind))
def test_a_translation_sweep_scores_each_pose_as_a_fresh_scan(
        kind, axis, resolution, monkeypatch, align_module):
    scan_a, scan_b = scene()
    cfg = AlignmentConfig(feature=kind, grid=GridSpec(resolution))
    poses = [replace(BASE, **{axis: v}) for v in VALUES]
    with align_module._Objective(scan_a, scan_b, cfg) as objective:
        expected = [fresh(objective, pose) for pose in poses]
    errors = [result[0] for result in expected
              if isinstance(result[0], type)]
    assert errors.count(OutOfBoundsError) == OFF_RANGE
    assert EmptyOverlapError in errors

    moves = counted_moves(monkeypatch)
    curve = sweep_axis(scan_a, scan_b, BASE, axis, VALUES, cfg)
    assert [mi.hex() for _, mi in curve] == [score(r) for r in expected]
    # B is only shifted, but at the poses off the index range, whose
    # error the full move names
    assert len(moves) == OFF_RANGE


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("kind", list(FeatureKind))
def test_shifted_histograms_and_errors_are_a_fresh_scans(kind, axis,
                                                         align_module):
    """Through ``breakdown``: the counts, the total and the MI of each
    pose, and for a pose off the index range or with no overlap the type
    and text of the error."""
    scan_a, scan_b = scene()
    cfg = AlignmentConfig(feature=kind, grid=GridSpec(0.75))
    with align_module._Objective(scan_a, scan_b, cfg) as objective:
        objective.shift_along(AXES.index(axis))
        for v in VALUES:
            pose = replace(BASE, **{axis: v})
            try:
                hist, mi = objective.breakdown(euler_to_transform(pose))
                got = hist.counts.tolist(), hist.total, mi.mi.hex()
            except (OutOfBoundsError, EmptyOverlapError) as exc:
                got = type(exc), str(exc)
            assert got == fresh(objective, pose), v


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("kind", list(FeatureKind))
def test_a_shift_leaves_the_full_moves_cells_and_heights(kind, axis,
                                                         align_module):
    """After each shifted move, B's cells, its index box and the moved
    heights that VARZ's features read are the full move's, bit for bit;
    VARZ's variance hides a stale shift of the heights from a histogram."""
    scan_a, scan_b = scene()
    cfg = AlignmentConfig(feature=kind, grid=GridSpec(0.75))
    with align_module._Objective(scan_a, scan_b, cfg) as objective:
        full = PreparedScan(objective.feat_a, scan_b, cfg.grid, cfg.binning)
        objective.shift_along(AXES.index(axis))
        for v in VALUES:
            if abs(v) > 1e6:  # off the index range: the full move raises
                continue
            t = euler_to_transform(replace(BASE, **{axis: v}))
            objective.apply_transform(t)
            full.apply_transform(t)
            assert objective.bounds == full.bounds, v
            assert np.array_equal(objective.cell, full.cell), v
            if kind is FeatureKind.VARZ:
                assert np.array_equal(objective.row[2], full.row[2]), v


@pytest.mark.parametrize("kind", list(FeatureKind))
def test_a_new_rotation_or_translation_is_never_served_stale(kind,
                                                             align_module):
    """Poses that alternate between a kept rotation and new ones, and that
    move the two translations the shifts keep, on one prepared scan held
    on x: each is what a fresh scan gives, and no two neighbours agree."""
    scan_a, scan_b = scene()
    cfg = AlignmentConfig(feature=kind)
    turned = replace(BASE, rz=BASE.rz + 0.1)
    poses = [BASE, replace(BASE, tx=1.0), turned, replace(BASE, tx=2.0),
             replace(turned, tx=2.0), replace(BASE, tx=2.0, ty=0.7),
             replace(BASE, tx=-1.0), replace(BASE, tx=-1.0, tz=-0.6),
             replace(BASE, tx=-1.0, rx=-0.02), replace(BASE, tx=0.5),
             replace(BASE, tx=1e7), replace(BASE, tx=0.5)]
    with align_module._Objective(scan_a, scan_b, cfg) as objective:
        objective.shift_along(0)
        got = [outcome(objective, pose) for pose in poses]
        objective.shift_along(None)
        expected = [fresh(objective, pose) for pose in poses]
    assert got == expected
    assert all(a != b for a, b in zip(expected, expected[1:]))


@pytest.mark.parametrize("kind", list(FeatureKind))
def test_a_split_scans_translation_sweep_stays_on_the_calling_thread(
        kind, monkeypatch, align_module):
    """Shifted poses hold the GIL for most of their time, so a translation
    sweep starts no thread, even for a B that splits its moves (here with
    ``SPLIT_POINTS`` lowered), and scores each pose as a fresh scan; so
    does a rotation sweep, whose full moves split."""
    scan_a, scan_b = scene()
    cfg = AlignmentConfig(feature=kind)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(align_module, "SPLIT_POINTS", 0)
    threads = []
    objective = align_module.mi_objective

    def recorded(*args, **kwargs):
        threads.append(threading.get_ident())
        return objective(*args, **kwargs)

    monkeypatch.setattr(align_module, "mi_objective", recorded)
    with align_module._Objective(scan_a, scan_b, cfg) as split:
        assert split.helper is not None
        for axis in AXES:
            expected = [score(fresh(split, replace(BASE, **{axis: v})))
                        for v in VALUES]
            curve = sweep_axis(scan_a, scan_b, BASE, axis, VALUES, cfg)
            assert [mi.hex() for _, mi in curve] == expected, axis
    assert set(threads) == {threading.get_ident()}
    assert len(threads) == 3 * len(VALUES)
    threads.clear()
    sweep_axis(scan_a, scan_b, BASE, "rz", [0.0, 0.05, 0.1], cfg)
    assert threads == [threading.get_ident()] * 3


@pytest.mark.parametrize("axis", AXES)
@pytest.mark.parametrize("kind", list(FeatureKind))
def test_a_shift_allocates_less_than_one_point_array(kind, axis,
                                                     align_module):
    """The (2, N) block of what shifts keep is allocated once, when the
    first pose is held.  After that a pose allocates no per-point array."""
    scan_a, scan_b = scene(50_000)
    n = len(scan_b)
    cfg = AlignmentConfig(feature=kind)
    with align_module._Objective(scan_a, scan_b, cfg) as objective:
        objective.histogram(np.eye(4))  # A's counts and caches made
        objective.shift_along(AXES.index(axis))
        peaks = []
        for v in (0.0, 0.5, -1.25):
            tracemalloc.start()
            try:
                objective.histogram(euler_to_transform(
                    replace(BASE, **{axis: v})))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        objective.shift_along(None)
        assert objective.kept is None
    assert peaks[0] < 16 * n + 8 * n
    assert max(peaks[1:]) < 8 * n
