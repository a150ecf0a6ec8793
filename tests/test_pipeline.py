"""The three callers of the evaluation pipeline agree on every finite pose.

``mi_objective`` (the optimizer's score), ``mi_at`` (the library's checked
evaluation) and ``voxmi histogram`` (the CLI) all bin scan B on a
``PreparedScan``: ``mi_objective`` on its own, the other two through
``voxmi.align``'s one evaluation owner.  They differ only in how they
report a pose with no usable overlap.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
import os
import tempfile
import threading
from collections import Counter
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from voxmi import (
    NO_OVERLAP_SENTINEL,
    AlignmentConfig,
    EmptyOverlapError,
    EulerPose,
    FeatureKind,
    OutOfBoundsError,
    PointCloud,
    compute_feature_map,
    euler_to_transform,
    joint_histogram_at,
    mi_at,
    mi_objective,
    read_histogram_csv,
    save_scan,
    voxelize,
)
from voxmi.cli import main

NEAR = st.floats(-20.0, 20.0)
# beyond about 20 m the boxes miss; beyond 2**20 m B leaves the index range
FAR = st.floats(-1e7, 1e7)
ANGLE = st.floats(-math.pi, math.pi)
POSES = st.builds(EulerPose, st.one_of(NEAR, FAR), NEAR,
                  st.floats(-3.0, 3.0), ANGLE, ANGLE, ANGLE)


def scene(seed: int, n: int) -> tuple[PointCloud, PointCloud]:
    """Two n-point samplings of one seeded 20 x 20 x 3 m block of clutter."""
    rng = np.random.default_rng(seed)
    lo, hi = (-10.0, -10.0, 0.0), (10.0, 10.0, 3.0)
    return (PointCloud(rng.uniform(lo, hi, size=(n, 3))),
            PointCloud(rng.uniform(lo, hi, size=(n, 3))))


def run_cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 400), pose=POSES,
       kind=st.sampled_from(list(FeatureKind)), phi=st.booleans())
def test_callers_agree(seed, n, pose, kind, phi):
    scan_a, scan_b = scene(seed, n)
    cfg = AlignmentConfig(feature=kind, phi_enabled=phi)
    feat_a = compute_feature_map(voxelize(scan_a, cfg.grid), scan_a, kind)
    transform = euler_to_transform(pose)
    score = mi_objective(feat_a, scan_b, pose, cfg.grid, cfg.binning, phi)

    try:
        result = mi_at(scan_a, scan_b, pose, cfg)
    except (OutOfBoundsError, EmptyOverlapError) as exc:
        result = None
        expected_code = 2 if isinstance(exc, EmptyOverlapError) else 1

    if result is None:
        assert score == NO_OVERLAP_SENTINEL
    else:
        assert score.hex() == result.mi.hex()
        assert 0.0 <= result.mi <= min(result.h_x, result.h_y) + 1e-12

    with tempfile.TemporaryDirectory() as tmp:
        paths = [str(Path(tmp) / name) for name in
                 ("a.xyz", "b.xyz", "pose.txt", "hist.csv")]
        save_scan(scan_a, paths[0])
        save_scan(scan_b, paths[1])
        Path(paths[2]).write_text(
            " ".join(repr(float(v)) for v in transform.ravel()) + "\n")
        code, out = run_cli(["histogram", paths[0], paths[1],
                             "--init", paths[2], "--feature", kind.value,
                             "--phi", "on" if phi else "off",
                             "--out", paths[3]])
        if result is None:
            assert code == expected_code
            assert not Path(paths[3]).exists()
            return
        assert code == 0
        hist = joint_histogram_at(feat_a, scan_b, transform, cfg.grid,
                                  cfg.binning)
        counts, meta = read_histogram_csv(paths[3])
    np.testing.assert_array_equal(
        counts, hist.counts if phi else hist.counts[1:, 1:])
    assert int(meta["total"]) == hist.total
    assert f"MI = {result.mi:.6f} nats" in out.splitlines()


STAGES = ("apply_transform", "voxelize", "compute_feature_map",
          "compute_overlap", "build_joint_histogram", "mutual_information")


def test_one_call_per_stage_per_evaluation(monkeypatch):
    """Each stage of one evaluation is a ``voxmi.mi`` global called once.

    Tracers that time evaluations stage by stage wrap exactly these names,
    so a stage that is inlined, renamed or imported under another name
    drops out of their per-stage times.
    """
    mi_module = importlib.import_module("voxmi.mi")
    calls = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        def counted(*args, _name=name, _real=getattr(mi_module, name),
                    **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(mi_module, name, counted)

    scan_a, scan_b = scene(5, 300)
    cfg = AlignmentConfig()
    feat_a = compute_feature_map(voxelize(scan_a, cfg.grid), scan_a,
                                 cfg.feature)
    score = mi_objective(feat_a, scan_b, EulerPose(tx=0.3, rz=0.02),
                         cfg.grid, cfg.binning)
    assert score > NO_OVERLAP_SENTINEL
    assert calls == dict.fromkeys(STAGES, 1)


def test_one_call_per_stage_per_pose_on_the_paths_that_are_timed(
        monkeypatch, align_module):
    """``_Objective.__call__``, which ``align`` hands the optimizer, and
    ``_Objective.score_all``, which ``sweep_axis`` runs, call each stage
    global once per pose, on the calling thread, with two usable CPUs."""
    mi_module = importlib.import_module("voxmi.mi")
    calls = []  # (stage, thread); a list append is atomic across threads
    for name in STAGES:
        def counted(*args, _name=name, _real=getattr(mi_module, name),
                    **kwargs):
            calls.append((_name, threading.get_ident()))
            return _real(*args, **kwargs)
        monkeypatch.setattr(mi_module, name, counted)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

    scan_a, scan_b = scene(5, 300)
    objective = align_module._Objective(scan_a, scan_b, AlignmentConfig())
    poses = [EulerPose(tx=0.1 * k, ty=-0.05 * k, rz=0.01 * k)
             for k in range(6)]
    scores = [objective(pose.as_vector()) for pose in poses]
    assert all(score > NO_OVERLAP_SENTINEL for score in scores)
    assert Counter(name for name, _ in calls) == dict.fromkeys(STAGES, 6)
    assert {thread for _, thread in calls} == {threading.get_ident()}

    calls.clear()
    assert objective.score_all(poses) == scores
    assert Counter(name for name, _ in calls) == dict.fromkeys(STAGES, 6)
    assert len({thread for _, thread in calls}) == 1
