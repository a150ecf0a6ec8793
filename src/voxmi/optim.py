"""Derivative-free Nelder-Mead simplex maximization with anisotropic start.

The initial simplex is x0 plus one vertex per coordinate, offset by that
coordinate's entry in ``initial_steps``.  For pose search the default steps
are wide in (x, y, yaw) and narrow in (z, roll, pitch), matching how error
accumulates on wheeled platforms.  Maximization runs as minimization of the
negated objective through one canonical reflect/expand/contract/shrink loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Canonical Nelder-Mead coefficients.
REFLECTION = 1.0
EXPANSION = 2.0
CONTRACTION = 0.5
SHRINK = 0.5

DEFAULT_INITIAL_STEPS = (8.0, 8.0, 1.0, 0.1, 0.1, 0.8)


@dataclass(frozen=True)
class SimplexConfig:
    """Initial simplex steps (one per coordinate) and stopping rules."""

    initial_steps: tuple[float, ...] = DEFAULT_INITIAL_STEPS
    max_iterations: int = 300
    f_tol: float = 1e-5
    x_tol: float = 1e-3
    restarts: int = 0

    def __post_init__(self):
        steps = tuple(float(s) for s in self.initial_steps)
        if not steps or not all(np.isfinite(s) and s > 0 for s in steps):
            raise ValueError(f"initial_steps must be in (0, inf), got {steps}")
        object.__setattr__(self, "initial_steps", steps)
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        for name in ("f_tol", "x_tol"):
            tol = getattr(self, name)
            if not (np.isfinite(tol) and tol > 0):
                raise ValueError(f"{name} must be in (0, inf), got {tol}")
        if self.restarts < 0:
            raise ValueError("restarts must be >= 0")


@dataclass
class OptimResult:
    """Outcome of one maximization run."""

    best_x: np.ndarray
    best_value: float
    iterations: int
    termination: str  # converged_f | converged_x | max_iter
    trace: list[float] = field(default_factory=list)
    n_evaluations: int = 0


def nelder_mead_maximize(f, x0, cfg: SimplexConfig) -> OptimResult:
    """Maximize ``f`` from ``x0`` with the configured initial simplex.

    Stops when the objective spread across vertices falls below ``f_tol``,
    every vertex is within ``x_tol`` of the best one, or ``max_iterations``
    update steps have run.  Returns the best point ever evaluated.  The
    method is deterministic: identical inputs give identical results.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.ndim != 1 or not np.isfinite(x0).all():
        raise ValueError(f"x0 must be a finite vector, got {x0}")
    n = x0.size
    if len(cfg.initial_steps) != n:
        raise ValueError(
            f"{len(cfg.initial_steps)} initial steps for a {n}-dim problem"
        )

    state = {"best_x": None, "best_g": np.inf, "n_eval": 0}

    def g(x: np.ndarray) -> float:
        value = -f(x)
        state["n_eval"] += 1
        if value < state["best_g"]:
            state["best_g"] = value
            state["best_x"] = x.copy()
        return value

    def initial_simplex(center: np.ndarray, steps) -> np.ndarray:
        simplex = np.tile(center, (n + 1, 1))
        for i in range(n):
            simplex[i + 1, i] += steps[i]
        return simplex

    steps = np.asarray(cfg.initial_steps, dtype=np.float64)
    simplex = initial_simplex(x0, steps)
    values = np.array([g(v) for v in simplex])

    iteration = 0
    restarts_left = cfg.restarts
    trace: list[float] = []
    termination = "max_iter"

    while True:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        f_spread = float(values[-1] - values[0])
        x_spread = float(np.linalg.norm(simplex - simplex[0], axis=1).max())
        trace.append(-float(values[0]))

        converged = None
        if f_spread < cfg.f_tol:
            converged = "converged_f"
        elif x_spread < cfg.x_tol:
            converged = "converged_x"
        if converged is not None:
            if restarts_left > 0 and iteration < cfg.max_iterations:
                restarts_left -= 1
                steps = steps * 0.5
                simplex = initial_simplex(simplex[0], steps)
                values = np.concatenate(
                    [values[:1], [g(v) for v in simplex[1:]]]
                )
                continue
            termination = converged
            break
        if iteration >= cfg.max_iterations:
            termination = "max_iter"
            break
        iteration += 1

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + REFLECTION * (centroid - worst)
        g_reflected = g(reflected)

        if g_reflected < values[0]:
            expanded = centroid + EXPANSION * (centroid - worst)
            g_expanded = g(expanded)
            if g_expanded < g_reflected:
                simplex[-1], values[-1] = expanded, g_expanded
            else:
                simplex[-1], values[-1] = reflected, g_reflected
            continue
        if g_reflected < values[-2]:
            simplex[-1], values[-1] = reflected, g_reflected
            continue
        if g_reflected < values[-1]:
            contracted = centroid + CONTRACTION * (reflected - centroid)
            g_contracted = g(contracted)
            if g_contracted <= g_reflected:
                simplex[-1], values[-1] = contracted, g_contracted
                continue
        else:
            contracted = centroid - CONTRACTION * (centroid - worst)
            g_contracted = g(contracted)
            if g_contracted < values[-1]:
                simplex[-1], values[-1] = contracted, g_contracted
                continue
        # shrink every vertex toward the best
        for i in range(1, n + 1):
            simplex[i] = simplex[0] + SHRINK * (simplex[i] - simplex[0])
            values[i] = g(simplex[i])

    return OptimResult(
        best_x=state["best_x"],
        best_value=-state["best_g"],
        iterations=iteration,
        termination=termination,
        trace=trace,
        n_evaluations=state["n_eval"],
    )

