"""Synthetic scenes, perturbation protocol, and the benchmark harness."""

from __future__ import annotations

import csv
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxmi import (
    TRIAL_CSV_HEADER,
    AlignmentConfig,
    EulerPose,
    PerturbationSpec,
    SceneSpec,
    SimplexConfig,
    TrialRecord,
    euler_to_transform,
    perturb_pose,
    rotation_error,
    run_benchmark,
    runtime_invariance_check,
    synth_scene,
    synth_scene_pair,
    translation_error,
    write_summary_csv,
    write_trials_csv,
)
from voxmi.bench import _cdf_index, _scene_surfaces, _surface_counts

FAST_CFG = AlignmentConfig(
    simplex=SimplexConfig(initial_steps=(4.0, 4.0, 0.5, 0.05, 0.05, 0.2),
                          max_iterations=400, restarts=3)
)


class TestSceneSynthesis:
    def test_deterministic_for_a_given_seed(self):
        spec = SceneSpec(seed=11, n_points=2000)
        a = synth_scene(spec)
        b = synth_scene(spec)
        np.testing.assert_array_equal(a.points, b.points)

    def test_point_budget_is_exact(self):
        assert len(synth_scene(SceneSpec(seed=1, n_points=12345))) == 12345

    def test_bare_ground_noise_is_clipped(self):
        spec = SceneSpec(seed=2, n_points=5000, n_structures=0,
                         noise_sigma=0.05)
        cloud = synth_scene(spec)
        assert np.abs(cloud.points[:, 2]).max() <= 4 * 0.05 + 1e-12

    def test_points_stay_inside_the_extent(self):
        spec = SceneSpec(seed=3, n_points=5000, extent=30.0)
        cloud = synth_scene(spec)
        assert np.abs(cloud.points[:, :2]).max() <= 30.0 / 2 + 0.5

    def test_structures_add_height(self):
        flat = synth_scene(SceneSpec(seed=4, n_points=5000, n_structures=0))
        built = synth_scene(SceneSpec(seed=4, n_points=5000, n_structures=30))
        assert built.points[:, 2].max() > flat.points[:, 2].max() + 0.5

    def test_pair_shares_layout_but_not_samples(self):
        spec = SceneSpec(seed=5, n_points=3000)
        cloud_a, cloud_b = synth_scene_pair(spec)
        np.testing.assert_array_equal(cloud_a.points,
                                      synth_scene(spec).points)
        assert cloud_a.points.shape == cloud_b.points.shape
        assert not np.array_equal(cloud_a.points, cloud_b.points)
        assert abs(cloud_a.points[:, 2].max()
                   - cloud_b.points[:, 2].max()) < 1.0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SceneSpec(extent=0.0)
        with pytest.raises(ValueError):
            SceneSpec(n_points=0)
        with pytest.raises(ValueError):
            SceneSpec(noise_sigma=-0.1)


def reference_surfaces(spec: SceneSpec, rng: np.random.Generator):
    """The scene's rectangles (origin, u, v, normal, area), one structure
    at a time."""
    e = spec.extent
    surfaces = [(np.array([-e / 2, -e / 2, 0.0]), np.array([e, 0.0, 0.0]),
                 np.array([0.0, e, 0.0]), np.array([0.0, 0.0, 1.0]), e * e)]
    for _ in range(spec.n_structures):
        cx, cy = rng.uniform(-0.4 * e, 0.4 * e, size=2)
        hw, hd = rng.uniform(0.75, 3.0, size=2)
        h = rng.uniform(1.0, 3.5)
        lo = np.array([cx - hw, cy - hd, 0.0])
        up = np.array([0.0, 0.0, h])
        ex = np.array([2 * hw, 0.0, 0.0])
        ey = np.array([0.0, 2 * hd, 0.0])
        surfaces += [
            (lo, ey, up, np.array([-1.0, 0.0, 0.0]), 2 * hd * h),
            (np.array([cx + hw, cy - hd, 0.0]), ey, up,
             np.array([1.0, 0.0, 0.0]), 2 * hd * h),
            (lo, ex, up, np.array([0.0, -1.0, 0.0]), 2 * hw * h),
            (np.array([cx - hw, cy + hd, 0.0]), ex, up,
             np.array([0.0, 1.0, 0.0]), 2 * hw * h),
            (lo + up, ex, ey, np.array([0.0, 0.0, 1.0]), 4 * hw * hd),
        ]
    return surfaces


def reference_sample(surfaces, spec: SceneSpec,
                     rng: np.random.Generator) -> np.ndarray:
    """The scene's points, drawn and placed one surface at a time."""
    areas = np.array([s[4] for s in surfaces])
    picks = rng.choice(len(surfaces), size=spec.n_points,
                       p=areas / areas.sum())
    parts = []
    for (origin, u, v, normal, _), m in zip(
            surfaces, np.bincount(picks, minlength=len(surfaces))):
        if m == 0:
            continue
        a = rng.random(m)[:, None]
        b = rng.random(m)[:, None]
        sigma = spec.noise_sigma
        noise = np.clip(rng.normal(0.0, sigma, size=m),
                        -4 * sigma, 4 * sigma)[:, None]
        parts.append(origin + a * u + b * v + noise * normal)
    return np.concatenate(parts)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       # up to 61 surfaces, so the short budgets leave some without points
       n_points=st.one_of(st.integers(1, 60), st.integers(1, 3000)),
       n_structures=st.integers(0, 12),
       noise_sigma=st.sampled_from([0.0, 0.03, 0.2]),
       extent=st.floats(5.0, 200.0))
def test_scenes_match_the_per_surface_reference_bit_for_bit(
        seed, n_points, n_structures, noise_sigma, extent):
    spec = SceneSpec(seed=seed, extent=extent, n_points=n_points,
                     n_structures=n_structures, noise_sigma=noise_sigma)
    layout, sample_a, sample_b = np.random.SeedSequence(seed).spawn(3)
    surfaces = reference_surfaces(spec, np.random.default_rng(layout))
    want_a, want_b = (reference_sample(surfaces, spec,
                                       np.random.default_rng(s))
                      for s in (sample_a, sample_b))
    clouds = (synth_scene(spec).points,) + tuple(
        c.points for c in synth_scene_pair(spec))
    for got, want in zip(clouds, (want_a, want_a, want_b)):
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == (n_points, 3)
        np.testing.assert_array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def cdf_of(area) -> np.ndarray:
    """The normalized cdf ``Generator.choice`` searches for ``p=area /
    area.sum()``."""
    area = np.asarray(area, dtype=np.float64)
    cdf = (area / area.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf


def scene_area(spec: SceneSpec) -> np.ndarray:
    layout = np.random.SeedSequence(spec.seed).spawn(3)[0]
    return _scene_surfaces(spec, np.random.default_rng(layout))[-1]


def around(values: np.ndarray) -> np.ndarray:
    """Each value and its float neighbours, kept inside [0, 1)."""
    values = np.asarray(values, dtype=np.float64)
    out = np.concatenate([values, np.nextafter(values, -np.inf),
                          np.nextafter(values, np.inf)])
    return out[(out >= 0.0) & (out < 1.0)]


# Every bucket edge j / K of every power-of-two table size K <= 2**17 is a
# multiple of 2**-17; scene tables stay below that.
BUCKET_EDGES = np.arange(2**17) / 2**17
CHOSEN_CDFS = {
    "urban": cdf_of(scene_area(SceneSpec(seed=0))),
    "wide": cdf_of(scene_area(SceneSpec(seed=0, extent=160.0,
                                        n_points=120_000,
                                        n_structures=640))),
    "ground only": cdf_of([1600.0]),
    "zero areas": cdf_of([0.0, 0.0, 3.0, 0.0, 0.0, 2.0, 0.0, 1.0, 0.0]),
    "a zero-area tail": cdf_of([5.0, 1.0, 0.0, 0.0]),
    "equal thirds": cdf_of([1.0, 1.0, 1.0]),
    "one tiny surface": cdf_of([1.0, 1e-12, 1.0]),
    # ten entries in one bucket: ten steps, under the cutoff of 12
    "a crowd the step-up takes": cdf_of([1e12] + [2.0] * 10),
    # more entries in one bucket than the step-up takes
    "tiny surfaces beside a huge one": cdf_of([1e12] + [2.0] * 100),
}


@pytest.mark.parametrize("name", sorted(CHOSEN_CDFS))
def test_cdf_index_matches_searchsorted_at_every_boundary(name):
    cdf = CHOSEN_CDFS[name]
    assert len(cdf) * 8 <= 2**17
    u = np.concatenate([around(cdf), around(BUCKET_EDGES),
                        [0.0, np.nextafter(1.0, 0.0)]])
    got = _cdf_index(cdf, u)
    np.testing.assert_array_equal(got, np.searchsorted(cdf, u, side="right"))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       n_points=st.integers(1, 2000),
       area=st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)),
                     min_size=1, max_size=300)
       .filter(lambda a: sum(a) > 0))
def test_surface_counts_equal_choice_and_leave_the_stream_in_step(
        seed, n_points, area):
    area = np.array(area)
    mine, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _surface_counts(area, n_points, mine)
    want = np.bincount(theirs.choice(len(area), size=n_points,
                                     p=area / area.sum()),
                       minlength=len(area))
    np.testing.assert_array_equal(got, want)
    assert mine.random() == theirs.random()


def test_a_scene_whose_area_overflows_is_refused():
    with pytest.raises(ValueError, match="surface areas"):
        synth_scene(SceneSpec(extent=1e200, n_points=10))


# sha256 of both clouds' point bytes, recorded with the per-surface
# ``rng.choice`` and ``rng.normal`` sampler; every panel digest rests on them
SCENE_SHA256 = [
    ({"seed": 0},
     "8eff826cb87a38f3c0b47601870990ab8ec3e6c33953a77d44aaf0315673f9f1"),
    ({"seed": 0, "extent": 160.0, "n_points": 120_000, "n_structures": 640},
     "79b5b25acee5e3a8d82e8bddd575e6bcc4e34e7c3db49825ce37df7284a1220b"),
    ({"seed": 3, "n_points": 300, "n_structures": 4, "noise_sigma": 0.0},
     "a4d1062973b294fbea82a6fb7eead3c76aeaab8a07971b93b074b72bdc5e67e4"),
]


@pytest.mark.parametrize("fields,digest", SCENE_SHA256)
def test_scene_pair_bytes_are_pinned(fields, digest):
    h = hashlib.sha256()
    for cloud in synth_scene_pair(SceneSpec(**fields)):
        h.update(cloud.points.tobytes())
    assert h.hexdigest() == digest


class TestPerturbPose:
    TRUTH = EulerPose(tx=1.0, ty=-2.0, tz=0.1, rx=0.01, ry=-0.01, rz=0.3)

    def test_zero_magnitudes_leave_the_pose_unchanged(self):
        got = perturb_pose(self.TRUTH, 0.0, 0.0, seed=9)
        assert got == self.TRUTH

    def test_planar_displacement_is_exact(self):
        for seed in range(20):
            got = perturb_pose(self.TRUTH, 5.0, 0.0, seed=seed)
            planar = np.hypot(got.tx - self.TRUTH.tx, got.ty - self.TRUTH.ty)
            assert planar == pytest.approx(5.0, abs=1e-9)

    def test_yaw_offset_magnitude_is_exact(self):
        for seed in range(20):
            got = perturb_pose(self.TRUTH, 0.0, 10.0, seed=seed)
            assert abs(got.rz - self.TRUTH.rz) == pytest.approx(
                np.radians(10.0), abs=1e-12)

    def test_vertical_leakage_is_five_percent(self):
        dt = 4.0
        offs = [perturb_pose(self.TRUTH, dt, 0.0, seed=s).tz - self.TRUTH.tz
                for s in range(100)]
        std = float(np.std(offs))
        assert 0.7 * 0.05 * dt <= std <= 1.3 * 0.05 * dt

    def test_negative_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            perturb_pose(self.TRUTH, -1.0, 0.0, seed=0)


class TestErrorMetrics:
    def test_translation_error_is_euclidean(self):
        est = euler_to_transform(EulerPose(tx=3.0, ty=4.0))
        assert translation_error(est, np.eye(4)) == 5.0

    def test_pure_yaw_rotation_error(self):
        est = euler_to_transform(EulerPose(rz=np.radians(10.0)))
        err = rotation_error(est, np.eye(4))
        assert err.euler_deg == pytest.approx(10.0, abs=1e-6)
        assert err.geodesic_deg == pytest.approx(10.0, abs=1e-6)
        assert not err.degenerate

    def test_exact_match_scores_zero(self):
        t = euler_to_transform(EulerPose(tx=1.0, rz=0.5))
        assert translation_error(t, t) == 0.0
        assert rotation_error(t, t).euler_deg == pytest.approx(0.0, abs=1e-9)

    def test_error_is_relative_not_absolute(self):
        base = EulerPose(tx=100.0, rz=1.0)
        wiggle = EulerPose(tx=100.0, rz=1.0 + np.radians(2.0))
        err = rotation_error(euler_to_transform(wiggle),
                             euler_to_transform(base))
        assert err.euler_deg == pytest.approx(2.0, abs=1e-6)

    def test_gimbal_pitch_falls_back_to_geodesic(self):
        est = euler_to_transform(EulerPose(ry=np.pi / 2))
        err = rotation_error(est, np.eye(4))
        assert err.degenerate
        assert err.euler_deg == err.geodesic_deg == pytest.approx(
            90.0, abs=1e-6)


class TestPerturbationSpec:
    def test_default_classes(self):
        assert PerturbationSpec().classes() == [
            (1.0, 1.0, 0.0), (3.0, 3.0, 0.0), (5.0, 5.0, 0.0)]

    def test_rotation_magnitudes_cycle_with_translation(self):
        spec = PerturbationSpec(translation_magnitudes=(1.0, 2.0, 3.0),
                                rotation_magnitudes=(5.0, 10.0))
        assert spec.classes() == [
            (1.0, 1.0, 5.0), (2.0, 2.0, 10.0), (3.0, 3.0, 5.0)]

    def test_rotation_only_schedule(self):
        spec = PerturbationSpec(translation_magnitudes=(),
                                rotation_magnitudes=(10.0, 20.0))
        assert spec.classes() == [(10.0, 0.0, 10.0), (20.0, 0.0, 20.0)]

    def test_validation(self):
        with pytest.raises(ValueError):
            PerturbationSpec(translation_magnitudes=(0.0,))
        with pytest.raises(ValueError):
            PerturbationSpec(trials_per_magnitude=0)


def fake_record(magnitude, trial, wall_s, final_terr=0.1) -> TrialRecord:
    return TrialRecord(magnitude=magnitude, trial=trial, init_terr=magnitude,
                       final_terr=final_terr, init_rerr=0.0, final_rerr=0.05,
                       geodesic_rerr=0.05, iters=50, wall_s=wall_s,
                       converged=True)


class TestRunBenchmark:
    def test_requires_exactly_one_source(self):
        pert = PerturbationSpec(trials_per_magnitude=1)
        with pytest.raises(ValueError):
            run_benchmark(pert)
        with pytest.raises(ValueError):
            run_benchmark(pert, scene=SceneSpec(), pairs=[])

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_is_refused(self, jobs):
        pert = PerturbationSpec(translation_magnitudes=(1.0,),
                                trials_per_magnitude=1)
        scene = SceneSpec(n_points=2000, n_structures=5)
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            run_benchmark(pert, scene=scene, jobs=jobs)

    def test_self_align_pairs_recover(self, tmp_path):
        scan = synth_scene(SceneSpec(seed=6, n_points=10_000,
                                     n_structures=20))
        pert = PerturbationSpec(translation_magnitudes=(1.0,),
                                trials_per_magnitude=3, seed=1)
        records = run_benchmark(pert, cfg=FAST_CFG,
                                pairs=[(scan, scan, np.eye(4))],
                                out_dir=tmp_path)
        assert len(records) == 3
        for r in records:
            assert r.magnitude == 1.0
            assert 0.5 <= r.init_terr <= 1.5  # ~1 m planar + 5% z leakage
            assert r.final_terr < 0.5
            assert r.converged
        assert (tmp_path / "trials.csv").exists()
        assert (tmp_path / "summary.csv").exists()

    def test_synthetic_mode_produces_sane_records(self):
        pert = PerturbationSpec(translation_magnitudes=(2.0,),
                                trials_per_magnitude=1, seed=3)
        scene = SceneSpec(n_points=8000, n_structures=20)
        records = run_benchmark(pert, cfg=FAST_CFG, scene=scene)
        (r,) = records
        assert 1.0 <= r.init_terr <= 3.0
        assert r.iters > 0
        assert r.wall_s > 0.0
        assert r.final_terr < r.init_terr

    def test_records_sorted_and_deterministic_across_jobs(self):
        scan = synth_scene(SceneSpec(seed=7, n_points=6000, n_structures=15))
        pert = PerturbationSpec(translation_magnitudes=(1.0, 2.0),
                                trials_per_magnitude=2, seed=5)
        cfg = AlignmentConfig(simplex=SimplexConfig(
            initial_steps=(2.0, 2.0, 0.5, 0.05, 0.05, 0.2),
            max_iterations=60))
        serial = run_benchmark(pert, cfg=cfg, pairs=[(scan, scan, np.eye(4))])
        threaded = run_benchmark(pert, cfg=cfg, jobs=3,
                                 pairs=[(scan, scan, np.eye(4))])
        keys = [(r.magnitude, r.trial) for r in serial]
        assert keys == sorted(keys)
        for a, b in zip(serial, threaded):
            assert (a.magnitude, a.trial) == (b.magnitude, b.trial)
            assert a.init_terr == b.init_terr
            assert a.final_terr == b.final_terr
            assert a.final_rerr == b.final_rerr
            assert a.iters == b.iters
            assert a.converged == b.converged

    def test_verbose_prints_one_line_per_trial(self, capsys):
        scan = synth_scene(SceneSpec(seed=7, n_points=2000, n_structures=5))
        pert = PerturbationSpec(translation_magnitudes=(1.0, 2.0),
                                trials_per_magnitude=2, seed=5)
        cfg = AlignmentConfig(simplex=SimplexConfig(max_iterations=5))
        records = run_benchmark(pert, cfg=cfg, pairs=[(scan, scan, np.eye(4))],
                                verbose=True)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(records) == 4
        for line, r in zip(lines, records):
            assert line.startswith(f"magnitude {r.magnitude:g} trial "
                                   f"{r.trial}: terr ")
            assert f" {r.iters} iters, " in line

    def test_empty_schedule_writes_header_only_csvs(self, tmp_path):
        pert = PerturbationSpec(translation_magnitudes=(),
                                rotation_magnitudes=())
        records = run_benchmark(pert, scene=SceneSpec(), out_dir=tmp_path)
        assert records == []
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert lines == [TRIAL_CSV_HEADER]
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert len(summary) == 1


class TestCsvOutput:
    RECORDS = [fake_record(1.0, 0, 2.0, final_terr=0.2),
               fake_record(1.0, 1, 2.2, final_terr=0.4),
               fake_record(3.0, 0, 2.1, final_terr=0.3)]

    def test_trials_csv_header_and_rows(self, tmp_path):
        path = tmp_path / "trials.csv"
        write_trials_csv(self.RECORDS, path)
        lines = path.read_text().splitlines()
        assert lines[0] == TRIAL_CSV_HEADER
        assert len(lines) == 4
        row = lines[1].split(",")
        assert float(row[0]) == 1.0
        assert int(row[1]) == 0
        assert float(row[3]) == 0.2
        assert row[-1] == "1"

    def test_summary_means_match_the_records(self, tmp_path):
        path = tmp_path / "summary.csv"
        write_summary_csv(self.RECORDS, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["magnitude"]) for r in rows] == [1.0, 3.0]
        assert float(rows[0]["final_terr_m_mean"]) == pytest.approx(0.3)
        assert float(rows[0]["final_terr_m_median"]) == pytest.approx(0.3)
        assert int(rows[0]["n_trials"]) == 2
        assert float(rows[0]["converged_rate"]) == 1.0
        assert float(rows[1]["final_terr_m_mean"]) == pytest.approx(0.3)
        assert float(rows[0]["mean_wall_s"]) == pytest.approx(2.1)


class TestRuntimeInvariance:
    def test_needs_three_magnitude_classes(self):
        records = [fake_record(1.0, 0, 2.0), fake_record(3.0, 0, 2.0)]
        with pytest.raises(ValueError, match="insufficient magnitude classes"):
            runtime_invariance_check(records)

    def test_identical_timings_give_unit_ratio(self):
        records = [fake_record(m, t, 2.0)
                   for m in (1.0, 5.0, 9.0) for t in range(3)]
        result = runtime_invariance_check(records)
        assert result.ratio == 1.0
        assert result.class_means == {1.0: 2.0, 5.0: 2.0, 9.0: 2.0}

    def test_ratio_uses_class_means(self):
        records = [fake_record(1.0, 0, 1.0), fake_record(1.0, 1, 3.0),
                   fake_record(5.0, 0, 4.0), fake_record(9.0, 0, 3.0)]
        result = runtime_invariance_check(records)
        assert result.class_means[1.0] == 2.0
        assert result.ratio == 2.0
