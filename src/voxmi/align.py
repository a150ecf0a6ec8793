"""End-to-end alignment: feature map of scan A once, then MI maximization.

The reference scan A is voxelized and featurized a single time, and scan B
is laid out once as a prepared scan; every objective evaluation transforms
scan B by the candidate pose, re-voxelizes it on the shared grid (anchored
at scan A's frame origin) over its overlap with A, and scores mutual
information.  A Nelder-Mead search over the 6-DOF pose drives the loop.
"""

from __future__ import annotations

import json
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import EmptyOverlapError, NoOverlapError, OutOfBoundsError
from .geometry import (
    EulerPose,
    PointCloud,
    euler_to_transform,
    transform_to_euler,
    validate_transform,
)
from .mi import (
    NO_OVERLAP_SENTINEL,
    BinningSpec,
    MIResult,
    PreparedScan,
    mi_objective,
    mutual_information,
)
from .optim import OptimResult, SimplexConfig, nelder_mead_maximize
from .voxel import FeatureKind, GridSpec, compute_feature_map, voxelize

SWEEP_AXES = ("tx", "ty", "tz", "rx", "ry", "rz")
# Most threads a sweep scores its poses on, the calling thread included.
# About 60% of a count evaluation holds the GIL, so a third thread adds
# little, and each thread costs its own copy of scan B's per-point buffers.
SWEEP_THREADS = 2


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


def _prepare(scan_a: PointCloud, scan_b: PointCloud,
             cfg: AlignmentConfig) -> PreparedScan:
    if len(scan_a) == 0 or len(scan_b) == 0:
        raise ValueError("both scans must be non-empty")
    vox_a = voxelize(scan_a, cfg.grid)
    feat_a = compute_feature_map(vox_a, scan_a, cfg.feature)
    return PreparedScan(feat_a, scan_b, cfg.grid, cfg.binning)


def _score(prepared: PreparedScan, pose: EulerPose,
           cfg: AlignmentConfig) -> MIResult:
    hist = prepared.histogram(euler_to_transform(pose))
    return mutual_information(hist, include_phi=cfg.phi_enabled)


def align(scan_a: PointCloud, scan_b: PointCloud, t0: np.ndarray,
          cfg: AlignmentConfig | None = None) -> AlignmentReport:
    """Estimate the transform that projects scan B onto scan A.

    ``t0`` is the initial guess for that transform.  Raises NoOverlapError
    when no probed pose gives a usable overlap, with the reason the initial
    pose gave none.
    """
    cfg = cfg or AlignmentConfig()
    t0 = validate_transform(t0)
    prepared = _prepare(scan_a, scan_b, cfg)
    initial_pose = transform_to_euler(t0)

    def objective(x: np.ndarray) -> float:
        return mi_objective(prepared.feat_a, prepared,
                            EulerPose.from_vector(x), cfg.grid, cfg.binning,
                            include_phi=cfg.phi_enabled)

    start = time.perf_counter()
    result: OptimResult = nelder_mead_maximize(
        objective, initial_pose.as_vector(), cfg.simplex
    )
    wall = time.perf_counter() - start

    if result.best_value <= NO_OVERLAP_SENTINEL:
        # the initial pose scored the sentinel too, so this raises
        try:
            _score(prepared, initial_pose, cfg)
        except (OutOfBoundsError, EmptyOverlapError) as exc:
            raise NoOverlapError("no candidate pose gave a usable overlap; "
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
    return _score(_prepare(scan_a, scan_b, cfg), pose, cfg)


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
    poses are scored on up to ``SWEEP_THREADS`` threads, the calling thread
    and pool workers joined before the call returns, each with its own
    prepared scan B over one shared feature map of scan A; the curve is bit
    for bit the serial one, and any other error is the one the serial loop
    would raise first.  With one usable CPU no thread is started.
    """
    if axis not in SWEEP_AXES:
        raise ValueError(f"axis must be one of {SWEEP_AXES}, got {axis!r}")
    cfg = cfg or AlignmentConfig()
    prepared = _prepare(scan_a, scan_b, cfg)
    values = [float(v) for v in values]
    idx = SWEEP_AXES.index(axis)
    poses = []
    for v in values:
        x = base_pose.as_vector()
        x[idx] = v
        poses.append(EulerPose.from_vector(x))

    def score(scan: PreparedScan, share: range):
        """MIs of the poses in ``share`` in order, and the error that ended
        them early, if one did."""
        mis = []
        try:
            for i in share:
                mis.append(mi_objective(prepared.feat_a, scan, poses[i],
                                        cfg.grid, cfg.binning,
                                        include_phi=cfg.phi_enabled))
        except Exception as exc:  # raised below, if no earlier pose failed
            return mis, exc
        return mis, None

    threads = max(1, min(_usable_cpus(), SWEEP_THREADS, len(poses)))
    # thread k takes every threads-th pose from pose k, so neighbouring
    # poses, which cost about the same, are spread over the threads
    shares = [range(k, len(poses), threads) for k in range(threads)]
    if threads == 1:
        results = [score(prepared, shares[0])]
    else:
        with ThreadPoolExecutor(threads - 1) as pool:
            futures = [pool.submit(score, PreparedScan(prepared.feat_a,
                                                       scan_b, cfg.grid,
                                                       cfg.binning), share)
                       for share in shares[1:]]
            results = [score(prepared, shares[0])]
        results += [future.result() for future in futures]
    # a thread stops at its first error only, so every pose before the
    # earliest failing one was scored, as in the serial loop
    failed = [(k + threads * len(mis), exc)
              for k, (mis, exc) in enumerate(results) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    curve = [0.0] * len(poses)
    for k, (mis, _) in enumerate(results):
        curve[k::threads] = mis
    return list(zip(values, curve))
