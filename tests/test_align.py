"""End-to-end alignment: recovery, stability, reports, and sweeps."""

from __future__ import annotations

import json
from collections import Counter

import numpy as np
import pytest

from voxmi import (
    NO_OVERLAP_SENTINEL,
    AlignmentConfig,
    BinningSpec,
    EulerPose,
    FeatureKind,
    NoOverlapError,
    PointCloud,
    SceneSpec,
    SimplexConfig,
    align,
    apply_transform,
    euler_to_transform,
    inverse,
    mi_at,
    rotation_error,
    save_scan,
    sweep_axis,
    synth_scene_pair,
    translation_error,
)
from voxmi.cli import main
from voxmi.errors import EmptyOverlapError

ACC_SIMPLEX = SimplexConfig(initial_steps=(4.0, 4.0, 0.5, 0.05, 0.05, 0.2),
                            max_iterations=400, restarts=3)
ACC_CFG = AlignmentConfig(simplex=ACC_SIMPLEX)

TRUTH_POSE = EulerPose(tx=4.0, ty=2.0, rz=np.radians(10.0))
TRUTH = euler_to_transform(TRUTH_POSE)


@pytest.fixture(scope="module")
def scene():
    spec = SceneSpec(seed=0, n_structures=20, n_points=20_000)
    scan_a, b_world = synth_scene_pair(spec)
    scan_b = apply_transform(b_world, inverse(TRUTH))
    return scan_a, scan_b


@pytest.fixture(scope="module")
def offset_report(scene):
    scan_a, scan_b = scene
    return align(scan_a, scan_b, np.eye(4), ACC_CFG)


class TestConfig:
    def test_binning_defaults_to_the_feature_kind(self):
        cfg = AlignmentConfig(feature=FeatureKind.COUNT)
        assert cfg.binning.kind is FeatureKind.COUNT
        assert cfg.binning.upper_clamp == 64.0

    def test_kind_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AlignmentConfig(feature=FeatureKind.VARZ,
                            binning=BinningSpec(kind=FeatureKind.COUNT))

    def test_simplex_must_cover_six_coordinates(self):
        with pytest.raises(ValueError):
            AlignmentConfig(simplex=SimplexConfig(initial_steps=(1.0, 1.0)))


class TestSelfAlignment:
    def test_identity_recovered(self, scene):
        scan_a, _ = scene
        report = align(scan_a, scan_a, np.eye(4), ACC_CFG)
        assert translation_error(report.estimated, np.eye(4)) <= 0.05
        assert rotation_error(report.estimated, np.eye(4)).geodesic_deg <= 0.5
        assert report.termination.startswith("converged")


class TestOffsetRecovery:
    def test_pose_recovered_from_identity_start(self, offset_report):
        assert translation_error(offset_report.estimated, TRUTH) <= 0.5
        assert rotation_error(offset_report.estimated,
                              TRUTH).geodesic_deg <= 2.0

    def test_alignment_improves_on_the_initial_guess(self, offset_report):
        initial_err = translation_error(np.eye(4), TRUTH)
        final_err = translation_error(offset_report.estimated, TRUTH)
        assert final_err < initial_err

    def test_estimated_matrix_matches_the_pose(self, offset_report):
        rebuilt = euler_to_transform(offset_report.estimated_pose)
        np.testing.assert_allclose(offset_report.estimated, rebuilt,
                                   atol=1e-9)

    def test_final_mi_is_the_trace_maximum(self, offset_report):
        trace = np.asarray(offset_report.mi_trace)
        assert offset_report.final_mi == trace.max()
        assert trace[-1] == offset_report.final_mi

    def test_trace_is_monotone_nondecreasing(self, offset_report):
        assert (np.diff(np.asarray(offset_report.mi_trace)) >= 0).all()

    def test_initial_pose_is_preserved(self, offset_report):
        assert offset_report.initial_pose.as_vector().tolist() == [0.0] * 6

    def test_kitti_line_has_twelve_floats(self, offset_report):
        fields = offset_report.kitti_line().split()
        assert len(fields) == 12
        top = np.array([float(v) for v in fields]).reshape(3, 4)
        np.testing.assert_array_equal(top, offset_report.estimated[:3, :])

    def test_json_report_round_trips(self, offset_report, tmp_path):
        path = tmp_path / "report.json"
        offset_report.write_json(path)
        data = json.loads(path.read_text())
        assert data["final_mi"] == offset_report.final_mi
        assert data["iterations"] == offset_report.iterations
        assert data["estimated_pose"]["tx"] == offset_report.estimated_pose.tx
        assert len(data["mi_trace"]) == len(offset_report.mi_trace)
        np.testing.assert_array_equal(np.array(data["estimated_matrix"]),
                                      offset_report.estimated)


class TestStabilityAtTruth:
    def test_start_at_truth_stays_at_truth(self, scene):
        scan_a, scan_b = scene
        report = align(scan_a, scan_b, TRUTH, ACC_CFG)
        assert translation_error(report.estimated, TRUTH) <= 0.25
        assert rotation_error(report.estimated, TRUTH).geodesic_deg <= 1.0
        assert (np.diff(np.asarray(report.mi_trace)) >= 0).all()
        assert report.final_mi >= mi_at(scan_a, scan_b, TRUTH_POSE,
                                        ACC_CFG).mi


class TestMiAt:
    def test_identical_scans_at_identity(self, scene):
        scan_a, _ = scene
        res = mi_at(scan_a, scan_a, EulerPose(), ACC_CFG)
        assert res.mi == pytest.approx(res.h_x, abs=1e-12)
        assert res.h_x == res.h_y

    def test_distant_pose_raises(self, scene):
        scan_a, scan_b = scene
        with pytest.raises(EmptyOverlapError):
            mi_at(scan_a, scan_b, EulerPose(tx=1e4), ACC_CFG)


class TestNoOverlap:
    def test_unbridgeable_scans_raise(self):
        rng = np.random.default_rng(70)
        near = PointCloud(rng.uniform(0, 3, size=(100, 3)))
        far = PointCloud(rng.uniform(500, 503, size=(100, 3)))
        cfg = AlignmentConfig(
            simplex=SimplexConfig(initial_steps=(1.0,) * 6, max_iterations=20)
        )
        with pytest.raises(NoOverlapError):
            align(near, far, np.eye(4), cfg)

    def test_error_names_why_the_initial_pose_scored_nothing(self):
        """Phi off, boxes overlapping, no voxel occupied in both scans."""
        a = PointCloud(np.array([[0.5, 0.5, 0.5], [2.5, 0.5, 0.5]]))
        b = PointCloud(np.array([[1.5, 0.5, 0.5]]))
        with pytest.raises(NoOverlapError, match="occupied in both scans"):
            align(a, b, np.eye(4), AlignmentConfig(phi_enabled=False))
        far = PointCloud(np.array([[500.5, 0.5, 0.5]]))
        with pytest.raises(NoOverlapError, match="do not overlap"):
            align(a, far, np.eye(4), AlignmentConfig(phi_enabled=False))

    def test_empty_scan_rejected(self, scene):
        scan_a, _ = scene
        with pytest.raises(ValueError):
            align(scan_a, PointCloud(np.zeros((0, 3))), np.eye(4), ACC_CFG)

    def test_invalid_t0_rejected(self, scene):
        scan_a, _ = scene
        with pytest.raises(ValueError):
            align(scan_a, scan_a, np.zeros((4, 4)), ACC_CFG)


class TestSweepAxis:
    def test_tx_sweep_on_identical_scans_peaks_at_zero(self, scene):
        scan_a, _ = scene
        values = np.linspace(-2.0, 2.0, 17)
        curve = sweep_axis(scan_a, scan_a, EulerPose(), "tx", values)
        xs, mis = zip(*curve)
        assert xs == tuple(float(v) for v in values)
        assert xs[int(np.argmax(mis))] == 0.0

    def test_yaw_sweep_peaks_at_the_true_yaw(self, scene):
        scan_a, scan_b = scene
        base = EulerPose(tx=TRUTH_POSE.tx, ty=TRUTH_POSE.ty)
        values = np.radians(np.linspace(0.0, 20.0, 41))  # 0.5 deg steps
        curve = sweep_axis(scan_a, scan_b, base, "rz", values)
        xs, mis = zip(*curve)
        best = np.degrees(xs[int(np.argmax(mis))])
        assert abs(best - 10.0) <= 0.5

    def test_no_overlap_values_score_the_sentinel(self, scene):
        scan_a, _ = scene
        curve = sweep_axis(scan_a, scan_a, EulerPose(), "tx", [0.0, 1e4])
        assert curve[0][1] > curve[1][1]
        assert curve[1][1] == NO_OVERLAP_SENTINEL

    def test_one_module_objective_call_per_value(self, scene, monkeypatch,
                                                 align_module):
        """Evaluation counters wrap ``voxmi.align.mi_objective``: a sweep
        must go through that name once per value, and ``mi_at`` never.
        A sweep's threads interleave their calls, so only the multiset of
        the calls is fixed."""
        calls = []
        objective = align_module.mi_objective

        def counted(*args, **kwargs):
            calls.append(args[2])
            return objective(*args, **kwargs)

        monkeypatch.setattr(align_module, "mi_objective", counted)
        scan_a, scan_b = scene
        values = np.linspace(-1.0, 1.0, 7)
        sweep_axis(scan_a, scan_b, TRUTH_POSE, "ty", values)
        assert (Counter(pose.ty for pose in calls)
                == Counter(float(v) for v in values))
        mi_at(scan_a, scan_b, TRUTH_POSE)
        assert len(calls) == len(values)

    def test_one_module_objective_call_per_align_evaluation(
            self, scene, monkeypatch, align_module, tmp_path):
        """``evals_per_s`` counts ``voxmi.align.mi_objective`` calls: an
        ``align`` makes one per pose the optimizer asks for, in order, and
        one more for ``final_mi``; ``mi_at`` and ``voxmi histogram`` make
        none."""
        calls, asked, results = [], [], []
        objective = align_module.mi_objective
        optimizer = align_module.nelder_mead_maximize

        def counted(*args, **kwargs):
            calls.append(args[2])
            return objective(*args, **kwargs)

        def optimize(f, x0, cfg):
            def recorded(x):
                asked.append(EulerPose.from_vector(x))
                return f(x)
            results.append(optimizer(recorded, x0, cfg))
            return results[-1]

        monkeypatch.setattr(align_module, "mi_objective", counted)
        monkeypatch.setattr(align_module, "nelder_mead_maximize", optimize)
        scan_a, scan_b = scene
        cfg = AlignmentConfig(simplex=SimplexConfig(max_iterations=30))
        report = align(scan_a, scan_b, np.eye(4), cfg)
        assert len(calls) == results[0].n_evaluations + 1
        assert calls == [*asked, report.estimated_pose]

        calls.clear()
        mi_at(scan_a, scan_b, TRUTH_POSE, cfg)
        paths = [str(tmp_path / name) for name in ("a.bin", "b.bin")]
        save_scan(scan_a, paths[0])
        save_scan(scan_b, paths[1])
        assert main(["histogram", *paths]) == 0
        assert calls == []

    def test_unknown_axis_rejected(self, scene):
        scan_a, _ = scene
        with pytest.raises(ValueError):
            sweep_axis(scan_a, scan_a, EulerPose(), "qx", [0.0])
