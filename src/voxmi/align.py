"""End-to-end alignment: feature map of scan A once, then MI maximization.

The reference scan A is voxelized and featurized a single time, and scan B
is laid out once as a prepared scan; every objective evaluation transforms
scan B by the candidate pose, re-voxelizes it on the shared grid (anchored
at scan A's frame origin) over A's padded box, and scores mutual
information.  A Nelder-Mead search over the 6-DOF pose drives the loop.
Every pose is scored on the calling thread.  A sweep along tx, ty or tz
rotates scan B once and shifts it to each pose.  With two usable CPUs, one
worker thread, held for the whole call, moves half of a large scan B in
each full move.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .errors import EmptyOverlapError, NoOverlapError, OutOfBoundsError
from .geometry import (
    EulerPose,
    PointCloud,
    euler_to_transform,
    transform_to_euler,
)
from .mi import (
    NO_OVERLAP_SENTINEL,
    BinningSpec,
    JointHistogram,
    MIResult,
    PreparedScan,
    mi_objective,
    mutual_information,
)
from .optim import OptimResult, SimplexConfig, nelder_mead_maximize
from .voxel import FeatureKind, GridSpec, compute_feature_map, voxelize

SWEEP_AXES = ("tx", "ty", "tz", "rx", "ry", "rz")
# Fewest points of scan B for which one evaluation moves half of them on the
# second thread.  On 2 cores (one BLAS thread) a handoff, two thread wake-ups,
# costs about 0.3 ms, so a split evaluation lost below 60k points and won
# x1.2-1.3 from 80k (synthetic 40 m scenes, varz and count, 60 poses).
SPLIT_POINTS = 70_000


@dataclass(frozen=True)
class AlignmentConfig:
    """All knobs of one alignment run; defaults reproduce the standard setup."""

    feature: FeatureKind = FeatureKind.VARZ
    grid: GridSpec = field(default_factory=GridSpec)
    binning: BinningSpec | None = None
    simplex: SimplexConfig = field(default_factory=SimplexConfig)
    phi_enabled: bool = True

    def __post_init__(self):
        binning = self.binning
        if binning is None:
            binning = BinningSpec(kind=self.feature)
        elif binning.kind is not self.feature:
            raise ValueError(
                f"binning kind {binning.kind} does not match feature {self.feature}"
            )
        object.__setattr__(self, "binning", binning)
        if len(self.simplex.initial_steps) != 6:
            raise ValueError("simplex initial_steps must have 6 entries")


@dataclass
class AlignmentReport:
    """Estimated transform plus diagnostics of the optimization run."""

    estimated: np.ndarray
    estimated_pose: EulerPose
    initial_pose: EulerPose
    final_mi: float
    mi_trace: list[float]
    iterations: int
    wall_time: float
    termination: str

    def to_dict(self) -> dict:
        return {
            "estimated_matrix": [[float(v) for v in row] for row in self.estimated],
            "estimated_pose": asdict(self.estimated_pose),
            "initial_pose": asdict(self.initial_pose),
            "final_mi": self.final_mi,
            "mi_trace": list(self.mi_trace),
            "iterations": self.iterations,
            "wall_time": self.wall_time,
            "termination": self.termination,
            "kitti_line": self.kitti_line(),
        }

    def kitti_line(self) -> str:
        """The 4x4 matrix as the usual 12-float row-major 3x4 pose line."""
        return " ".join(repr(float(v)) for v in self.estimated[:3, :].ravel())

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


class _Objective(PreparedScan):
    """Scan B prepared against scan A's feature map, made by this module's
    ``voxelize`` and ``compute_feature_map``: :meth:`score_all` scores every
    pose of ``align`` and ``sweep_axis``, :meth:`breakdown` the rest.

    Every pose is scored on the calling thread.  For a scan B of
    ``SPLIT_POINTS`` points or more, with two usable CPUs or more, it holds
    until :meth:`close` a one-thread executor, whose thread starts on first
    use and moves the second half of B's points in each full move
    (:meth:`PreparedScan.split`); a translation sweep's shifts stay whole.
    """

    def __init__(self, scan_a: PointCloud, scan_b: PointCloud,
                 cfg: AlignmentConfig):
        if len(scan_a) == 0 or len(scan_b) == 0:
            raise ValueError("both scans must be non-empty")
        feat_a = compute_feature_map(voxelize(scan_a, cfg.grid), scan_a,
                                     cfg.feature)
        super().__init__(feat_a, scan_b, cfg.grid, cfg.binning)
        self.phi = cfg.phi_enabled
        if len(self) >= max(SPLIT_POINTS, 4) and _usable_cpus() > 1:
            self.split(ThreadPoolExecutor(1))

    def close(self) -> None:
        """Join the executor's thread, if it started."""
        if self.helper is not None:
            self.helper.shutdown()

    def __enter__(self) -> "_Objective":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __call__(self, x: np.ndarray) -> float:
        """MI at the pose vector ``x``, the optimizer's objective, scored
        by :meth:`score_all` as a one-pose call."""
        return self.score_all([EulerPose.from_vector(x)])[0]

    def breakdown(self, transform: np.ndarray
                  ) -> tuple[JointHistogram, MIResult]:
        """Joint histogram and MI at ``transform``; raises where
        :meth:`score_all` scores the no-overlap sentinel."""
        hist = self.histogram(transform)
        return hist, mutual_information(hist, include_phi=self.phi)

    def score_all(self, poses: list[EulerPose]) -> list[float]:
        """``mi_objective`` of each pose, in order, on the calling thread:
        the one scoring path of every pose."""
        return [mi_objective(self.feat_a, self, pose, self.grid, self.spec,
                             include_phi=self.phi)
                for pose in poses]


def align(scan_a: PointCloud, scan_b: PointCloud, t0: np.ndarray,
          cfg: AlignmentConfig | None = None) -> AlignmentReport:
    """Estimate the transform that projects scan B onto scan A.

    ``t0`` is the initial guess for that transform.  Raises NoOverlapError
    when no probed pose gives a usable overlap, with the reason the initial
    pose gave none.
    """
    cfg = cfg or AlignmentConfig()
    initial_pose = transform_to_euler(t0)
    with _Objective(scan_a, scan_b, cfg) as objective:
        start = time.perf_counter()
        result: OptimResult = nelder_mead_maximize(
            objective, initial_pose.as_vector(), cfg.simplex
        )
        wall = time.perf_counter() - start

        if result.best_value <= NO_OVERLAP_SENTINEL:
            # the initial pose scored the sentinel too, so this raises
            try:
                objective.breakdown(euler_to_transform(initial_pose))
            except (OutOfBoundsError, EmptyOverlapError) as exc:
                raise NoOverlapError(
                    "no candidate pose gave a usable overlap; "
                    f"at the initial pose: {exc}") from exc
        estimated_pose = EulerPose.from_vector(result.best_x).normalized()
        final_mi = objective(estimated_pose.as_vector())
    return AlignmentReport(
        estimated=euler_to_transform(estimated_pose),
        estimated_pose=estimated_pose,
        initial_pose=initial_pose,
        final_mi=final_mi,
        mi_trace=[*result.trace, final_mi],
        iterations=result.iterations,
        wall_time=wall,
        termination=result.termination,
    )


def mi_at(scan_a: PointCloud, scan_b: PointCloud, pose: EulerPose,
          cfg: AlignmentConfig | None = None) -> MIResult:
    """Single objective evaluation with the full entropy breakdown.

    Unlike :func:`mi_objective` it raises instead of scoring the sentinel:
    OutOfBoundsError when moved points leave the grid, and EmptyOverlapError
    when the occupied boxes miss or, with ``phi_enabled`` off, when no voxel
    is occupied in both scans.
    """
    cfg = cfg or AlignmentConfig()
    with _Objective(scan_a, scan_b, cfg) as objective:
        return objective.breakdown(euler_to_transform(pose))[1]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


def sweep_axis(scan_a: PointCloud, scan_b: PointCloud, base_pose: EulerPose,
               axis: str, values, cfg: AlignmentConfig | None = None
               ) -> list[tuple[float, float]]:
    """MI along one pose axis, all other parameters held at ``base_pose``.

    Returns (axis value, MI) pairs in the order of ``values``; poses without
    overlap score the no-overlap sentinel so the curve stays total.  The
    poses are scored together on the calling thread: a tx, ty or tz sweep
    rotates B once and shifts it to each value
    (:meth:`PreparedScan.shift_along`), with the scores of a loop of full
    moves, and an rx, ry or rz sweep moves B in full at each value.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    cfg = cfg or AlignmentConfig()
    values = [float(v) for v in values]
    poses = [replace(base_pose, **{axis: v}) for v in values]
    shift = SWEEP_AXES.index(axis)  # tx, ty and tz come first
    with _Objective(scan_a, scan_b, cfg) as objective:
        objective.shift_along(shift if shift < 3 else None)
        return list(zip(values, objective.score_all(poses)))
