"""Nelder-Mead maximizer: convergence, determinism, simplex geometry."""

from __future__ import annotations

import numpy as np
import pytest

from voxmi import (
    DEFAULT_INITIAL_STEPS,
    OptimResult,
    SimplexConfig,
    nelder_mead_maximize,
)

TIGHT = dict(max_iterations=5000, f_tol=1e-14, x_tol=1e-10)


def neg_quadratic(center):
    center = np.asarray(center, dtype=np.float64)
    return lambda x: -float(((x - center) ** 2).sum())


def neg_rosenbrock(x):
    return -float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)


class TestConvergence:
    def test_quadratic_two_dim(self):
        cfg = SimplexConfig(initial_steps=(1.0, 1.0), **TIGHT)
        res = nelder_mead_maximize(neg_quadratic([3.0, -2.0]),
                                   np.zeros(2), cfg)
        np.testing.assert_allclose(res.best_x, [3.0, -2.0], atol=1e-5)
        assert res.best_value == pytest.approx(0.0, abs=1e-9)
        assert res.termination in ("converged_f", "converged_x")

    def test_quadratic_six_dim(self):
        center = np.array([1.0, -2.0, 0.5, 0.1, -0.1, 2.0])
        cfg = SimplexConfig(initial_steps=(0.5,) * 6, **TIGHT)
        res = nelder_mead_maximize(neg_quadratic(center), np.zeros(6), cfg)
        np.testing.assert_allclose(res.best_x, center, atol=1e-4)

    def test_rosenbrock_classic_start(self):
        cfg = SimplexConfig(initial_steps=(0.5, 0.5), max_iterations=20000,
                            f_tol=1e-14, x_tol=1e-10)
        res = nelder_mead_maximize(neg_rosenbrock,
                                   np.array([-1.2, 1.0]), cfg)
        np.testing.assert_allclose(res.best_x, [1.0, 1.0], atol=1e-3)

    def test_constant_objective_stops_immediately(self):
        cfg = SimplexConfig(initial_steps=(1.0, 1.0, 1.0))
        res = nelder_mead_maximize(lambda x: 4.5, np.zeros(3), cfg)
        assert res.termination == "converged_f"
        assert res.iterations <= 2
        assert res.best_value == 4.5

    def test_max_iterations_is_honored(self):
        cfg = SimplexConfig(initial_steps=(1.0, 1.0), max_iterations=3,
                            f_tol=1e-300, x_tol=1e-300)
        res = nelder_mead_maximize(neg_quadratic([9.0, 9.0]),
                                   np.zeros(2), cfg)
        assert res.termination == "max_iter"
        assert res.iterations == 3


class TestResultInvariants:
    def run(self, restarts=0):
        cfg = SimplexConfig(initial_steps=(2.0, 2.0), max_iterations=500,
                            f_tol=1e-10, x_tol=1e-8, restarts=restarts)
        return nelder_mead_maximize(neg_quadratic([1.5, 0.5]),
                                    np.zeros(2), cfg)

    def test_trace_is_monotone_nondecreasing(self):
        res = self.run()
        trace = np.asarray(res.trace)
        assert (np.diff(trace) >= 0).all()

    def test_best_value_matches_the_final_trace_entry(self):
        res = self.run()
        assert res.best_value == res.trace[-1]

    def test_best_x_reproduces_best_value(self):
        res = self.run()
        assert neg_quadratic([1.5, 0.5])(res.best_x) == res.best_value

    def test_evaluation_count_matches_calls(self):
        calls = {"n": 0}

        def counted(x):
            calls["n"] += 1
            return -float((x ** 2).sum())

        cfg = SimplexConfig(initial_steps=(1.0, 1.0), max_iterations=100)
        res = nelder_mead_maximize(counted, np.array([2.0, -1.0]), cfg)
        assert res.n_evaluations == calls["n"]

    def test_restarts_never_hurt_the_best_value(self):
        assert self.run(restarts=2).best_value >= self.run().best_value

    def test_deterministic_across_repeat_runs(self):
        runs = [self.run() for _ in range(5)]
        for res in runs[1:]:
            np.testing.assert_array_equal(res.best_x, runs[0].best_x)
            assert res.best_value == runs[0].best_value
            assert res.n_evaluations == runs[0].n_evaluations
            assert res.trace == runs[0].trace

    def test_scale_equivariance(self):
        c = 10.0
        f1 = neg_quadratic([1.0, -2.0])
        cfg1 = SimplexConfig(initial_steps=(0.5, 0.5), **TIGHT)
        cfg2 = SimplexConfig(initial_steps=(0.5 * c, 0.5 * c), **TIGHT)
        res1 = nelder_mead_maximize(f1, np.zeros(2), cfg1)
        res2 = nelder_mead_maximize(lambda x: f1(x / c), np.zeros(2), cfg2)
        np.testing.assert_allclose(res2.best_x / c, res1.best_x, atol=1e-5)


class TestSimplexGeometry:
    def test_initial_vertices_offset_one_coordinate_each(self):
        seen = []

        def recording(x):
            seen.append(x.copy())
            return 0.0 if len(seen) > 4 else -float(len(seen))

        steps = (0.25, 2.0, 8.0)
        cfg = SimplexConfig(initial_steps=steps, max_iterations=1)
        x0 = np.array([1.0, -1.0, 0.5])
        nelder_mead_maximize(recording, x0, cfg)
        np.testing.assert_array_equal(seen[0], x0)
        for i, step in enumerate(steps):
            expected = x0.copy()
            expected[i] += step
            np.testing.assert_array_equal(seen[i + 1], expected)

    def test_default_steps_are_wide_in_plane_and_yaw(self):
        assert DEFAULT_INITIAL_STEPS == (8.0, 8.0, 1.0, 0.1, 0.1, 0.8)


class TestValidation:
    def test_non_finite_x0_rejected(self):
        cfg = SimplexConfig(initial_steps=(1.0,))
        with pytest.raises(ValueError):
            nelder_mead_maximize(lambda x: 0.0, np.array([np.nan]), cfg)

    def test_step_dimension_mismatch_rejected(self):
        cfg = SimplexConfig(initial_steps=(1.0, 1.0))
        with pytest.raises(ValueError):
            nelder_mead_maximize(lambda x: 0.0, np.zeros(3), cfg)

    def test_bad_config_values_rejected(self):
        with pytest.raises(ValueError):
            SimplexConfig(initial_steps=())
        with pytest.raises(ValueError):
            SimplexConfig(initial_steps=(0.0, 1.0))
        with pytest.raises(ValueError):
            SimplexConfig(initial_steps=(1.0,), max_iterations=0)
        with pytest.raises(ValueError):
            SimplexConfig(initial_steps=(1.0,), f_tol=0.0)
        with pytest.raises(ValueError):
            SimplexConfig(initial_steps=(1.0,), restarts=-1)
