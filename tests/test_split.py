"""One large pose scored on two threads, and the threads an objective keeps.

For a scan B of at least ``SPLIT_POINTS`` points, when the process has two
usable CPUs or more, ``voxmi.align._Objective`` holds a one-thread executor
for its life, and each full move of B, in an align or a rotation sweep,
hands the second half of B's points to that thread for the move, floor,
clamp and cell index.  These tests lower the constant so that small scans
split, and pin what that promises: every score, curve, report and error message is the
serial run's, bit for bit; each stage global is still called once per
evaluation on the calling thread; no per-point buffer is added; and no
thread outlives the call that started it, whether it returns or raises.
"""

from __future__ import annotations

import importlib
import json
import os
import threading
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from voxmi import (
    AlignmentConfig,
    EmptyOverlapError,
    EulerPose,
    FeatureKind,
    GridSpec,
    NoOverlapError,
    OutOfBoundsError,
    PointCloud,
    SceneSpec,
    SimplexConfig,
    align,
    mi_at,
    mi_objective,
    sweep_axis,
    synth_scene_pair,
)
from voxmi.mi import MIResult, PreparedScan
from voxmi.voxel import INDEX_MAX, INDEX_MIN

STAGES = ("apply_transform", "voxelize", "compute_feature_map",
          "compute_overlap", "build_joint_histogram", "mutual_information")
SHORT = SimplexConfig(initial_steps=(1.0, 1.0, 0.3, 0.05, 0.05, 0.2),
                      max_iterations=25)


def cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def counted_pools(monkeypatch, align_module) -> list:
    """Every executor ``voxmi.align`` makes, with its submit count."""
    made = []

    class Counted(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.submits = 0
            made.append(self)

        def submit(self, *args, **kwargs):
            self.submits += 1
            return super().submit(*args, **kwargs)

    monkeypatch.setattr(align_module, "ThreadPoolExecutor", Counted)
    return made


def run_both(monkeypatch, align_module, call, split_cpus: int = 4):
    """``call()`` on one usable CPU, then split on ``split_cpus``; both
    outcomes (a value, or the type and message of the error) and the split
    run's executors."""
    outcomes = []
    for n_cpus, split_points in ((1, 10 ** 9), (split_cpus, 0)):
        cpus(monkeypatch, n_cpus)
        monkeypatch.setattr(align_module, "SPLIT_POINTS", split_points)
        pools = counted_pools(monkeypatch, align_module)
        try:
            outcomes.append(call())
        except (OutOfBoundsError, NoOverlapError, ValueError) as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes, pools


def block(n: int, seed: int) -> PointCloud:
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform((-4, -4, 0), (4, 4, 2), size=(n, 3)))


def report(scan_a, scan_b, t0, cfg) -> str:
    result = align(scan_a, scan_b, t0, cfg).to_dict()
    del result["wall_time"]
    return json.dumps(result)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 9, 301])
@pytest.mark.parametrize("kind", list(FeatureKind))
def test_split_aligns_and_sweeps_match_the_serial_run(n, kind, monkeypatch,
                                                      align_module):
    """Reports and curves bit for bit, with one handoff per evaluation."""
    scan_a, scan_b = block(400, 1), block(n, n)
    t0 = np.eye(4)
    t0[:3, 3] = (0.4, -0.3, 0.1)
    for resolution in (1.0, 0.75):
        cfg = AlignmentConfig(feature=kind, grid=GridSpec(resolution),
                              simplex=SHORT)
        evaluations = []
        objective = align_module.mi_objective

        def counted(*args, **kwargs):
            evaluations.append(1)
            return objective(*args, **kwargs)

        monkeypatch.setattr(align_module, "mi_objective", counted)
        (serial, split), pools = run_both(
            monkeypatch, align_module,
            lambda: report(scan_a, scan_b, t0, cfg))
        monkeypatch.setattr(align_module, "mi_objective", objective)
        assert split == serial
        # one handoff per evaluation of the split run, the second half
        assert len(pools) == 1 and 2 * pools[0].submits == len(evaluations)

        values = np.linspace(-1.5, 1.5, 7)
        (serial, split), pools = run_both(
            monkeypatch, align_module,
            lambda: [(v.hex(), mi.hex()) for v, mi in sweep_axis(
                scan_a, scan_b, EulerPose(ty=0.2), "rz", values, cfg)])
        assert split == serial
        # one handoff per pose, the second half of its full move
        assert len(pools) == 1 and pools[0].submits == len(values)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 9, 10])
def test_each_half_has_two_points_or_more(n, monkeypatch, align_module):
    """NumPy multiplies a one-column matrix on its matrix-vector path,
    which rounds differently, so a scan too small to give both halves two
    points is never split."""
    cpus(monkeypatch, 2)
    monkeypatch.setattr(align_module, "SPLIT_POINTS", 0)
    with align_module._Objective(block(50, 0), block(n, n),
                                 AlignmentConfig()) as objective:
        if n < 4:
            assert objective.helper is None and objective.halves is None
        else:
            widths = [part[1].shape[1] for part in objective.halves]
            assert objective.helper is not None
            assert sum(widths) == n and min(widths) >= 2
    with pytest.raises(ValueError, match="halves of 2 or more"):
        PreparedScan(objective.feat_a, block(3, 3), objective.grid,
                     objective.spec).split(objective.helper)


@pytest.mark.parametrize("n", [4, 5, 9, 301])
@pytest.mark.parametrize("far", [[0], [-1], [1, -2]],
                         ids=["first-half", "second-half", "both-halves"])
def test_split_out_of_bounds_errors_name_the_serial_point(n, far,
                                                          monkeypatch,
                                                          align_module):
    """Points 1e6 m out leave the index range at tx 1e5 m, the others do
    not; the error names the first of them, whichever thread found it."""
    points = block(n, n).points.copy()
    points[far, 0] = 1e6
    scan_b = PointCloud(points)
    pose = EulerPose(tx=1e5, rz=0.01)
    (serial, split), pools = run_both(
        monkeypatch, align_module,
        lambda: mi_at(block(50, 0), scan_b, pose, AlignmentConfig()))
    assert serial[0] is OutOfBoundsError
    assert f"point {far[0] % n} at" in serial[1]
    assert split == serial
    assert pools[0].submits == 1


def grid_points(n: int) -> np.ndarray:
    """``n`` points on short steps of 0.5, 0.25 and 0.125 m, so that an
    error message prints them exactly."""
    i = np.arange(n)
    return np.stack([0.5 * (i % 5) - 1.0, 0.25 * (i % 7) - 0.5,
                     0.125 * (i % 3)], axis=1)


# id: (points, pose, resolution, feature, {point: (axis, metres)}, message);
# the messages were recorded when each point was moved and floored on all
# three axes before any was checked
ACROSS_AXES = {
    "z-only-first": (
        9, EulerPose(tz=1e5), 1.0, "varz", {0: (2, 1e6)},
        "point 0 at [-1.0e+00 -5.0e-01  1.1e+06] maps to voxel index "
        "[     -1      -1 1100000] outside [-1048576, 1048575]"),
    "z-only-second-half": (
        9, EulerPose(tz=1e5), 1.0, "varz", {7: (2, 1e6)},
        "point 7 at [ 0.0e+00 -5.0e-01  1.1e+06] maps to voxel index "
        "[      0      -1 1100000] outside [-1048576, 1048575]"),
    "z-only-below-count": (
        301, EulerPose(tz=-1e5), 1.0, "count", {200: (2, -1e6)},
        "point 200 at [-1.0e+00  5.0e-01 -1.1e+06] maps to voxel index "
        "[      -1        0 -1100000] outside [-1048576, 1048575]"),
    "z-then-x-across-halves": (
        9, EulerPose(tx=1e5, tz=1e5), 1.0, "varz",
        {1: (2, 1e6), 6: (0, 1e6)},
        "point 1 at [ 9.99995e+04 -2.50000e-01  1.10000e+06] maps to voxel "
        "index [  99999      -1 1100000] outside [-1048576, 1048575]"),
    "z-then-x-first-half-count": (
        9, EulerPose(tx=1e5, tz=1e5), 1.0, "count",
        {0: (2, 1e6), 2: (0, 1e6)},
        "point 0 at [ 9.9999e+04 -5.0000e-01  1.1000e+06] maps to voxel "
        "index [  99999      -1 1100000] outside [-1048576, 1048575]"),
    "z-then-x-second-half-rolled": (
        301, EulerPose(tx=1e5, tz=1e5, rx=0.01), 1.0, "varz",
        {160: (2, 1e6), 290: (0, 1e6)},
        "point 160 at [  99999.           -9998.83338417 1099950.0104165 ] "
        "maps to voxel index [  99999   -9999 1099950] outside "
        "[-1048576, 1048575]"),
    "x-then-z": (
        9, EulerPose(tx=1e5, tz=1e5), 1.0, "varz",
        {1: (0, 1e6), 6: (2, 1e6)},
        "point 1 at [ 1.10000000e+06 -2.50000000e-01  1.00000125e+05] maps "
        "to voxel index [1100000      -1  100000] outside "
        "[-1048576, 1048575]"),
    "varz-half-metre": (
        9, EulerPose(), 0.5, "varz", {3: (2, 6e5), 7: (0, 6e5)},
        "point 3 at [5.0e-01 2.5e-01 6.0e+05] maps to voxel index "
        "[      1       0 1200000] outside [-1048576, 1048575]"),
    "z-on-the-upper-edge": (
        9, EulerPose(), 1.0, "varz", {4: (2, 1048576.0)},
        "point 4 at [1.000000e+00 5.000000e-01 1.048576e+06] maps to voxel "
        "index [      1       0 1048576] outside [-1048576, 1048575]"),
    "x-below-the-lower-edge-count": (
        9, EulerPose(), 1.0, "count", {5: (0, -1048576.5)},
        "point 5 at [-1.0485765e+06  7.5000000e-01  2.5000000e-01] maps to "
        "voxel index [-1048577        0        0] outside "
        "[-1048576, 1048575]"),
}


@pytest.mark.parametrize("case", list(ACROSS_AXES))
def test_out_of_bounds_errors_name_the_first_point_on_any_axis(
        case, monkeypatch, align_module):
    """z leaving the index range alone, before x leaves at a later point,
    after it, and only once divided by a 0.5 m voxel: serial and split on
    two CPUs, the error names the first offending point in point order,
    with its pinned message."""
    n, pose, resolution, kind, far, message = ACROSS_AXES[case]
    points = grid_points(n)
    for k, (axis, metres) in far.items():
        points[k, axis] = metres
    cfg = AlignmentConfig(feature=FeatureKind(kind),
                          grid=GridSpec(resolution))
    (serial, split), pools = run_both(
        monkeypatch, align_module,
        lambda: mi_at(block(50, 0), PointCloud(points), pose, cfg),
        split_cpus=2)
    assert serial == (OutOfBoundsError, message)
    assert split == serial
    assert pools[0].submits == 1


@pytest.mark.parametrize("resolution", [1.0, 0.5])
def test_points_on_the_index_edges_are_scored(resolution, monkeypatch,
                                              align_module):
    """A point whose z floors to INDEX_MAX and one whose x is INDEX_MIN
    voxels exactly stay on the grid, serial and split on two CPUs."""
    points = grid_points(9)
    points[4, 2] = (INDEX_MAX + 0.5) * resolution
    points[5, 0] = INDEX_MIN * resolution
    cfg = AlignmentConfig(grid=GridSpec(resolution))
    (serial, split), _ = run_both(
        monkeypatch, align_module,
        lambda: mi_at(block(50, 0), PointCloud(points), EulerPose(), cfg),
        split_cpus=2)
    assert isinstance(serial, MIResult) and serial.mi > 0.0
    assert split == serial


@pytest.mark.parametrize("n", [4, 7, 9])
def test_split_overflow_names_the_serial_voxel(n, monkeypatch, align_module):
    """B's first and last points, 1e160 m apart in z and so one in each
    half, share a 1e200 m voxel of A's box whose variance overflows; the
    others overlap A's box."""
    cfg = AlignmentConfig(grid=GridSpec(resolution=1e200))
    scan_a = PointCloud(np.array([[0.0, 0.0, 0.0], [3.5e200, 0.5e200, 0.0],
                                  [0.0, -0.5e200, 0.0]]))
    points = np.zeros((n, 3))
    points[1::2] = (3.5e200, 0.5e200, 0.0)
    points[[0, -1]] = [(2.5e200, -0.5e200, 0.0), (2.5e200, -0.5e200, 1e160)]
    scan_b = PointCloud(points)
    (serial, split), _ = run_both(
        monkeypatch, align_module,
        lambda: mi_at(scan_a, scan_b, EulerPose(), cfg))
    assert serial == (ValueError, "features must be finite and >= 0; "
                                  "voxel (2, -1, 0) has inf")
    assert split == serial


def test_split_stages_run_once_per_evaluation_on_the_calling_thread(
        monkeypatch, align_module):
    """The helper thread calls none of the six stage globals."""
    mi_module = importlib.import_module("voxmi.mi")
    calls = []
    for name in STAGES:
        def counted(*args, _name=name, _real=getattr(mi_module, name),
                    **kwargs):
            calls.append((_name, threading.get_ident()))
            return _real(*args, **kwargs)
        monkeypatch.setattr(mi_module, name, counted)
    cpus(monkeypatch, 2)
    monkeypatch.setattr(align_module, "SPLIT_POINTS", 0)
    with align_module._Objective(block(400, 1), block(301, 2),
                                 AlignmentConfig()) as objective:
        assert objective.helper is not None
        for k in range(5):
            objective(EulerPose(tx=0.1 * k, rz=0.01 * k).as_vector())
    assert Counter(name for name, _ in calls) == dict.fromkeys(STAGES, 5)
    assert {thread for _, thread in calls} == {threading.get_ident()}


@pytest.mark.parametrize("kind", list(FeatureKind))
def test_a_split_evaluation_allocates_less_than_one_point_array(
        kind, monkeypatch, align_module):
    scan_a, scan_b = synth_scene_pair(SceneSpec(seed=11))
    cpus(monkeypatch, 2)
    monkeypatch.setattr(align_module, "SPLIT_POINTS", 0)
    cfg = AlignmentConfig(feature=kind)
    with align_module._Objective(scan_a, scan_b, cfg) as objective:
        assert objective.helper is not None

        def evaluate(pose):
            return mi_objective(objective.feat_a, objective, pose, cfg.grid,
                                cfg.binning)

        evaluate(EulerPose(tx=1.0, ty=-0.5, rz=0.05))
        tracemalloc.start()
        try:
            evaluate(EulerPose(tx=1.5, ty=-4.0, rz=0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < 8 * len(scan_b)


def overflowing_pair() -> tuple[PointCloud, PointCloud, AlignmentConfig]:
    """At the identity B's 2 x 3 points share one 1e200 m voxel with A,
    and two of them, 1e160 m apart in z, overflow its variance."""
    scan_a = PointCloud(np.array([[0.0, 0.0, 0.0], [3.5e200, 0.5e200, 0.0]]))
    points = np.zeros((6, 3))
    points[:, 0] = 1e199
    points[-1, 2] = 1e160
    return scan_a, PointCloud(points), AlignmentConfig(
        grid=GridSpec(resolution=1e200), simplex=SHORT)


def far_pair() -> tuple[PointCloud, PointCloud, AlignmentConfig]:
    return block(100, 3), PointCloud(block(100, 4).points + 500.0), \
        AlignmentConfig(simplex=SHORT)


CALLS = {
    "align": lambda a, b, cfg: align(a, b, np.eye(4), cfg),
    # a rotation sweep, whose full moves split: a translation sweep's
    # shifts stay whole
    "sweep_axis": lambda a, b, cfg: sweep_axis(a, b, EulerPose(), "rz",
                                               [0.0, 0.5, 1.0], cfg),
    "mi_at": lambda a, b, cfg: mi_at(a, b, EulerPose(), cfg),
}


@pytest.mark.parametrize("call", list(CALLS))
@pytest.mark.parametrize("pair, error", [
    (lambda: (block(400, 1), block(301, 2), AlignmentConfig(simplex=SHORT)),
     None),
    (far_pair, (NoOverlapError, EmptyOverlapError)),
    (overflowing_pair, ValueError),
], ids=["returns", "no-overlap", "overflow"])
def test_no_thread_outlives_the_call(call, pair, error, monkeypatch,
                                     align_module):
    """Whether the call returns or raises mid-run, the threads alive
    afterwards are the ones alive before, and the call did start one.
    (Far apart, ``align`` raises NoOverlapError, ``mi_at``
    EmptyOverlapError, and ``sweep_axis`` scores the sentinel.)"""
    scan_a, scan_b, cfg = pair()
    cpus(monkeypatch, 2)
    monkeypatch.setattr(align_module, "SPLIT_POINTS", 0)
    pools = counted_pools(monkeypatch, align_module)
    before = set(threading.enumerate())
    count = threading.active_count()
    if error is None or (call == "sweep_axis" and pair is far_pair):
        CALLS[call](scan_a, scan_b, cfg)
    else:
        with pytest.raises(error):
            CALLS[call](scan_a, scan_b, cfg)
    assert set(threading.enumerate()) <= before
    assert threading.active_count() <= count
    assert len(pools) == 1 and pools[0].submits >= 1


@pytest.mark.parametrize("affinity", [True, False],
                         ids=["one-cpu-affinity", "no-affinity-one-cpu"])
def test_one_usable_cpu_makes_no_executor_for_a_large_scan(
        affinity, monkeypatch, align_module):
    if affinity:
        cpus(monkeypatch, 1)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(align_module, "SPLIT_POINTS", 0)

    def no_pool(*args, **kwargs):
        raise AssertionError("a thread pool was made on one CPU")

    monkeypatch.setattr(align_module, "ThreadPoolExecutor", no_pool)
    scan_a, scan_b, cfg = block(400, 1), block(301, 2), AlignmentConfig(
        simplex=SHORT)
    before = set(threading.enumerate())
    align(scan_a, scan_b, np.eye(4), cfg)
    sweep_axis(scan_a, scan_b, EulerPose(), "rz", [0.0, 0.1], cfg)
    mi_at(scan_a, scan_b, EulerPose(), cfg)
    assert set(threading.enumerate()) <= before
