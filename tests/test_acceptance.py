"""Acceptance suite: ten end-to-end criteria, one test per criterion.

Criteria 3, 4, and 6 share one batch of ten 50k-point scenes (session
fixture); everything else builds its own inputs.  Runtime limits are
asserted alongside the quality thresholds.
"""

from __future__ import annotations

import struct
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from voxmi import (
    AlignmentConfig,
    BinningSpec,
    EulerPose,
    FeatureKind,
    GridSpec,
    JointHistogram,
    OverlapRegion,
    PerturbationSpec,
    PointCloud,
    PoseTrack,
    SceneSpec,
    SimplexConfig,
    align,
    apply_transform,
    bin_feature,
    build_joint_histogram,
    compute_feature_map,
    euler_to_transform,
    inverse,
    joint_histogram_at,
    load_kitti_poses,
    load_scan,
    mutual_information,
    nelder_mead_maximize,
    occupied_correlation,
    perturb_pose,
    rotation_error,
    run_benchmark,
    runtime_invariance_check,
    save_kitti_poses,
    save_scan,
    synth_scene_pair,
    translation_error,
    voxelize,
)

ACC_SIMPLEX = SimplexConfig(initial_steps=(4.0, 4.0, 0.5, 0.05, 0.05, 0.2),
                            max_iterations=400, restarts=3)
VARZ_CFG = AlignmentConfig(simplex=ACC_SIMPLEX)
COUNT_CFG = AlignmentConfig(feature=FeatureKind.COUNT, simplex=ACC_SIMPLEX)

N_SCENES = 10
MAGNITUDES = (1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0, 4.0, 5.0, 5.0)
YAW_MAG_DEG = 10.0


def correlation_at(feat_a, scan_b, pose, cfg) -> float:
    hist = joint_histogram_at(feat_a, scan_b, euler_to_transform(pose),
                              cfg.grid, cfg.binning)
    return occupied_correlation(hist.counts)


def run_scene(k: int, cfg: AlignmentConfig, with_corr: bool) -> dict:
    scan_a, b_world = synth_scene_pair(SceneSpec(seed=k))
    rng = np.random.default_rng(500 + k)
    truth_pose = EulerPose(
        rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0),
        rng.uniform(-0.2, 0.2), rng.uniform(-0.02, 0.02),
        rng.uniform(-0.02, 0.02), rng.uniform(-0.5, 0.5),
    )
    truth = euler_to_transform(truth_pose)
    scan_b = apply_transform(b_world, inverse(truth))
    t0_pose = perturb_pose(truth_pose, MAGNITUDES[k], YAW_MAG_DEG,
                           seed=1000 + k)
    t0 = euler_to_transform(t0_pose)
    report = align(scan_a, scan_b, t0, cfg)
    out = {
        "init_terr": translation_error(t0, truth),
        "final_terr": translation_error(report.estimated, truth),
        "init_rerr": rotation_error(t0, truth).euler_deg,
        "final_rerr": rotation_error(report.estimated, truth).euler_deg,
    }
    if with_corr:
        feat_a = compute_feature_map(voxelize(scan_a, cfg.grid), scan_a,
                                     cfg.feature)
        out["corr_before"] = correlation_at(feat_a, scan_b, t0_pose, cfg)
        out["corr_after"] = correlation_at(feat_a, scan_b,
                                           report.estimated_pose, cfg)
    return out


@pytest.fixture(scope="session")
def recovery_batch():
    """Ten-scene perturb-and-align batch, VARZ and COUNT variants."""
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=4) as pool:
        varz = list(pool.map(
            lambda k: run_scene(k, VARZ_CFG, with_corr=True),
            range(N_SCENES)))
    varz_elapsed = time.perf_counter() - start
    with ThreadPoolExecutor(max_workers=4) as pool:
        count = list(pool.map(
            lambda k: run_scene(k, COUNT_CFG, with_corr=False),
            range(N_SCENES)))
    return {"varz": varz, "count": count, "varz_elapsed": varz_elapsed}


def test_criterion_01_histogram_mi_identities():
    """1000 seeded histograms: bounds, decomposition, exact symmetry."""
    start = time.perf_counter()
    rng = np.random.default_rng(2026)
    spec = BinningSpec(kind=FeatureKind.VARZ)
    for _ in range(1000):
        counts = rng.integers(0, 50, size=(33, 33))
        counts[rng.integers(0, 33), rng.integers(0, 33)] += 1
        hist = JointHistogram(counts=counts, total=int(counts.sum()),
                              spec=spec)
        res = mutual_information(hist)
        assert res.mi >= 0.0
        assert res.mi <= min(res.h_x, res.h_y) + 1e-12
        assert abs(res.mi - (res.h_x + res.h_y - res.h_xy)) <= 1e-12
        flipped = mutual_information(JointHistogram(
            counts=counts.T, total=hist.total, spec=spec))
        assert flipped.mi == res.mi
        assert flipped.h_x == res.h_y and flipped.h_y == res.h_x
        assert flipped.h_xy == res.h_xy
    assert time.perf_counter() - start < 5.0


def test_criterion_02_histogram_matches_brute_force():
    """20 seeded sparse 4x4x4 scenes counted cell-for-cell, phi included."""
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    grid = GridSpec()
    spec = BinningSpec(kind=FeatureKind.VARZ)
    region = OverlapRegion(0, 3, 0, 3, 0, 3)
    for _ in range(20):
        clouds = []
        for _side in range(2):
            n_voxels = rng.integers(1, 11)
            cells = rng.integers(0, 4, size=(n_voxels, 3))
            pts = np.concatenate([
                cell + rng.uniform(0, 1, size=(rng.integers(1, 4), 3))
                for cell in cells
            ])
            clouds.append(PointCloud(pts))
        feats = [
            compute_feature_map(voxelize(c, grid), c, FeatureKind.VARZ)
            for c in clouds
        ]
        assert all(len(f) <= 10 for f in feats)
        hist = build_joint_histogram(feats[0], feats[1], region, spec)
        lookup_a, lookup_b = feats[0].as_dict(), feats[1].as_dict()
        expected = np.zeros((33, 33), dtype=np.int64)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    x = bin_feature(lookup_a.get((i, j, k)), spec)
                    y = bin_feature(lookup_b.get((i, j, k)), spec)
                    expected[x, y] += 1
        np.testing.assert_array_equal(hist.counts, expected)
        assert hist.total == 64
    assert time.perf_counter() - start < 1.0


def test_criterion_03_recovery_from_perturbed_starts(recovery_batch):
    """Ten 50k scenes, 1-5 m + 10 deg off: sub-voxel mean recovery."""
    records = recovery_batch["varz"]
    final_terr = np.array([r["final_terr"] for r in records])
    final_rerr = np.array([r["final_rerr"] for r in records])
    improved = sum(r["final_terr"] < r["init_terr"] for r in records)
    assert final_terr.mean() < 0.5
    assert final_rerr.mean() < 2.0
    assert improved >= 0.9 * N_SCENES
    assert recovery_batch["varz_elapsed"] < 600.0


def test_criterion_04_varz_at_least_as_accurate_as_count(recovery_batch):
    varz_mean = np.mean([r["final_terr"] for r in recovery_batch["varz"]])
    count_mean = np.mean([r["final_terr"] for r in recovery_batch["count"]])
    assert varz_mean <= count_mean + 0.1


def test_criterion_05_sweeps_peak_uniquely_at_the_truth():
    """Yaw and tx MI sweeps: unique global max within one step of truth."""
    from voxmi import sweep_axis

    start = time.perf_counter()
    scan_a, b_world = synth_scene_pair(SceneSpec(seed=5))
    truth_pose = EulerPose(tx=0.4, ty=-0.3, tz=0.02, rx=0.005, ry=-0.007,
                           rz=0.15)
    truth = euler_to_transform(truth_pose)
    scan_b = apply_transform(b_world, inverse(truth))

    yaw_values = truth_pose.rz + np.radians(np.arange(-20.0, 20.5, 0.5))
    curve = sweep_axis(scan_a, scan_b, truth_pose, "rz", yaw_values)
    mis = np.array([mi for _, mi in curve])
    best = int(np.argmax(mis))
    assert (mis == mis[best]).sum() == 1  # unique global maximum
    assert abs(yaw_values[best] - truth_pose.rz) <= np.radians(0.5) + 1e-12

    tx_values = truth_pose.tx + np.arange(-10.0, 10.25, 0.25)
    curve = sweep_axis(scan_a, scan_b, truth_pose, "tx", tx_values)
    mis = np.array([mi for _, mi in curve])
    best = int(np.argmax(mis))
    assert (mis == mis[best]).sum() == 1
    assert abs(tx_values[best] - truth_pose.tx) <= 0.25 + 1e-12
    assert time.perf_counter() - start < 120.0


def test_criterion_06_correlation_rises_after_alignment(recovery_batch):
    records = recovery_batch["varz"]
    rises = sum(r["corr_after"] > r["corr_before"] for r in records)
    assert rises >= 9


def test_criterion_07_runtime_does_not_depend_on_initial_error():
    """Mean align wall time is flat across 1, 5, and 9 m initial errors."""
    pert = PerturbationSpec(translation_magnitudes=(1.0, 5.0, 9.0),
                            trials_per_magnitude=3, seed=2026)
    records = run_benchmark(pert, cfg=VARZ_CFG, scene=SceneSpec(), jobs=1)
    result = runtime_invariance_check(records)
    assert result.ratio <= 1.5


def test_criterion_08_optimizer_reference_problems():
    """Quadratic and embedded Rosenbrock maxima, deterministic across runs."""
    start = time.perf_counter()
    center = np.array([1.0, -2.0, 0.5, 0.1, -0.1, 2.0])

    def neg_quadratic(x):
        return -float(((x - center) ** 2).sum())

    def neg_rosenbrock_embedded(x):
        head = 100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2
        tail = ((x[2:] - 1.0) ** 2).sum()
        return -float(head + tail)

    quad_cfg = SimplexConfig(initial_steps=(0.5,) * 6, max_iterations=5000,
                             f_tol=1e-14, x_tol=1e-8)
    res_q = nelder_mead_maximize(neg_quadratic, np.zeros(6), quad_cfg)
    assert float(np.abs(res_q.best_x - center).max()) <= 1e-4

    rosen_cfg = SimplexConfig(initial_steps=(0.5,) * 6, max_iterations=20000,
                              f_tol=1e-14, x_tol=1e-8)
    res_r = nelder_mead_maximize(neg_rosenbrock_embedded, np.zeros(6),
                                 rosen_cfg)
    assert float(np.abs(res_r.best_x - 1.0).max()) <= 1e-3

    for _ in range(5):
        rerun = nelder_mead_maximize(neg_rosenbrock_embedded, np.zeros(6),
                                     rosen_cfg)
        np.testing.assert_array_equal(rerun.best_x, res_r.best_x)
        assert rerun.best_value == res_r.best_value
        assert rerun.n_evaluations == res_r.n_evaluations
    assert time.perf_counter() - start < 5.0


def test_criterion_09_parallel_matches_serial():
    """50 seeded scenes evaluated in a serial loop and on 4 worker threads,
    as ``run_benchmark(jobs > 1)`` runs trials: identical counts, entropies
    within 1e-12."""
    spec = BinningSpec(kind=FeatureKind.VARZ)
    grid = GridSpec()

    def evaluate(seed):
        rng = np.random.default_rng(seed)
        cloud_a = PointCloud(rng.uniform(-15, 15, size=(2000, 3)))
        cloud_b = PointCloud(rng.uniform(-12, 18, size=(2000, 3)))
        fa = compute_feature_map(voxelize(cloud_a, grid), cloud_a,
                                 FeatureKind.VARZ)
        hist = joint_histogram_at(fa, cloud_b, np.eye(4), grid, spec)
        return fa, hist, mutual_information(hist)

    serial = [evaluate(seed) for seed in range(50)]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(evaluate, range(50)))
    for (fa_s, hist_s, mi_s), (fa_t, hist_t, mi_t) in zip(serial, threaded):
        np.testing.assert_array_equal(hist_s.counts, hist_t.counts)
        np.testing.assert_allclose(fa_t.values, fa_s.values, atol=1e-12)
        assert abs(mi_s.mi - mi_t.mi) <= 1e-12
        assert abs(mi_s.h_xy - mi_t.h_xy) <= 1e-12


def test_criterion_10_io_round_trips(tmp_path):
    """Scan formats round trip float32-exact; 100 pose tracks exactly."""
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(1, 500))
        pts = rng.uniform(-100, 100, size=(n, 3))
        intensity = rng.uniform(0, 1, size=n)
        cloud = PointCloud(pts, intensity)

        path = tmp_path / f"scan_{trial}.bin"
        save_scan(cloud, path)
        back = load_scan(path)
        np.testing.assert_array_equal(
            back.points, pts.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(
            back.intensity, intensity.astype(np.float32).astype(np.float64))
        raw = path.read_bytes()
        assert len(raw) == n * 16
        first = struct.unpack("<4f", raw[:16])
        assert first[0] == np.float32(pts[0, 0])

        for ext in ("xyz", "ply"):
            path = tmp_path / f"scan_{trial}.{ext}"
            save_scan(cloud, path)
            back = load_scan(path)
            np.testing.assert_array_equal(back.points, pts)
            np.testing.assert_array_equal(back.intensity, intensity)

    for seed in range(100):
        rng = np.random.default_rng(seed)
        matrices = []
        for _ in range(rng.integers(1, 8)):
            pose = EulerPose(*rng.uniform(-1, 1, size=3),
                             *rng.uniform(-0.5, 0.5, size=3))
            matrices.append(euler_to_transform(pose))
        track = PoseTrack(np.stack(matrices))
        path = tmp_path / f"poses_{seed}.txt"
        save_kitti_poses(track, path)
        back = load_kitti_poses(path)
        assert len(back) == len(track)
        np.testing.assert_array_equal(back.matrices, track.matrices)
