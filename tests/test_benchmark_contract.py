"""The library names that the benchmark in ``perfbench/`` wraps.

A traced benchmark run reports a renamed or moved name only as an
``absent`` line and still exits 0, so these tests trace the library the
way a ``--trace 1`` run does and fail on any name it could not wrap or any
stage it timed at zero.  A ``--trace 0`` run counts evaluations as calls
of ``voxmi.align.mi_objective``, so they also count those calls the way it
does, and fail unless each scored pose is exactly one.  The benchmark's
modules are imported, never changed.
"""

from __future__ import annotations

import importlib
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from voxmi import (
    AlignmentConfig,
    EulerPose,
    SceneSpec,
    SimplexConfig,
    align,
    apply_transform,
    euler_to_transform,
    inverse,
    sweep_axis,
    synth_scene_pair,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TRUTH = EulerPose(tx=0.5, ty=-0.3, rz=0.05)
CFG = AlignmentConfig(simplex=SimplexConfig(max_iterations=10))


def small_pair() -> tuple:
    scan_a, world_b = synth_scene_pair(SceneSpec(seed=12, n_points=3000,
                                                 n_structures=10))
    return scan_a, apply_transform(world_b,
                                   inverse(euler_to_transform(TRUTH)))


def test_every_wrapped_name_exists_and_every_stage_is_timed():
    scan_a, scan_b = small_pair()
    tracer = tracing.Tracer()
    try:
        layers.install(tracer)
        assert tracer.missing == []
        with tracer.span("call"):
            align(scan_a, scan_b, np.eye(4), CFG)
        with tracer.span("call"):
            sweep_axis(scan_a, scan_b, TRUTH, "rz", [0.0, 0.05, 0.1], CFG)
    finally:
        tracer.restore()
    metrics = layers.metrics(tracer, panel=2)
    for _, _, name in layers.STAGES:
        assert metrics[f"{name}.ms"][0] > 0.0, name


def test_trace_overhead_is_a_positive_ratio():
    scan_a, scan_b = small_pair()
    pair = workloads.Pair(scan_a, scan_b, TRUTH, setup_s=[], info={})
    ratio = workloads.trace_overhead(pair, CFG, layers.install)
    assert ratio > 0.0


@pytest.mark.parametrize("cpus", [1, 2])
def test_each_scored_pose_is_one_counted_objective_call(cpus, monkeypatch):
    """On two CPUs with ``SPLIT_POINTS`` lowered, every path runs: a pooled
    rotation sweep, shifted translation sweeps and split moves."""
    align_module = importlib.import_module("voxmi.align")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    if cpus > 1:
        monkeypatch.setattr(align_module, "SPLIT_POINTS", 0)
    scored = []
    score_all = align_module._Objective.score_all

    def recorded(self, poses, shift=None):
        scored.append(len(poses))
        return score_all(self, poses, shift)

    monkeypatch.setattr(align_module._Objective, "score_all", recorded)
    scan_a, scan_b = small_pair()
    values = np.linspace(-1.0, 1.0, 9)
    for axis in ("rz", "tx", "tz"):
        with tracing.counting("voxmi.align", "mi_objective") as box:
            curve = sweep_axis(scan_a, scan_b, TRUTH, axis, values, CFG)
        assert box[0] == len(curve) == len(values), axis
    scored.clear()
    with tracing.counting("voxmi.align", "mi_objective") as box:
        report = align(scan_a, scan_b, np.eye(4), CFG)
    assert box[0] == sum(scored) > len(report.mi_trace)
