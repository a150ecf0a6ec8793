"""Desk-scale benchmark harness: synthetic scenes, perturbed starts, errors.

Reproduces the error-versus-initial-error methodology on generated scenes:
sample a scene pair, displace the query scan by a known truth transform,
perturb that truth by a controlled magnitude to fake an odometry prior, then
align and record initial/final errors, iteration counts, and wall time.
Perturbations concentrate in (tx, ty, yaw) with 5% leakage into the
remaining axes, matching how error accumulates on wheeled platforms.
"""

from __future__ import annotations

import csv
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple, dataclass, replace
from pathlib import Path

import numpy as np

from .align import AlignmentConfig, align
from .errors import DegenerateOrientationError, VoxmiError
from .geometry import (
    EulerPose,
    PointCloud,
    apply_transform,
    compose,
    euler_to_transform,
    inverse,
    transform_to_euler,
)

TRIAL_CSV_HEADER = (
    "magnitude,trial,init_terr_m,final_terr_m,init_rerr_deg,final_rerr_deg,"
    "geodesic_rerr_deg,iters,wall_s,converged"
)
ERROR_COLUMNS = ("init_terr_m", "final_terr_m", "init_rerr_deg",
                 "final_rerr_deg", "geodesic_rerr_deg")


@dataclass(frozen=True)
class SceneSpec:
    """Synthetic scene: ground plane plus box structures, surface-sampled.

    The default density (40 structures on a 40 m square) leaves enough
    occupancy texture that alignment recovers from 5 m / 10 deg initial
    error; sparser scenes flatten the MI landscape at large offsets.
    """

    seed: int = 0
    extent: float = 40.0
    n_points: int = 50_000
    n_structures: int = 40
    noise_sigma: float = 0.03

    def __post_init__(self):
        for name in ("seed", "n_points", "n_structures"):
            value = getattr(self, name)
            if (isinstance(value, bool)
                    or not isinstance(value, numbers.Integral)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.extent) and self.extent > 0):
            raise ValueError(f"extent must be in (0, inf), got {self.extent}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(
                f"noise_sigma must be in [0, inf), got {self.noise_sigma}")
        if self.n_points <= 0:
            raise ValueError(f"n_points must be >= 1, got {self.n_points}")
        if self.n_structures < 0:
            raise ValueError(
                f"n_structures must be >= 0, got {self.n_structures}")


@dataclass(frozen=True)
class PerturbationSpec:
    """Initial-estimate perturbation schedule for a benchmark batch."""

    translation_magnitudes: tuple[float, ...] = (1.0, 3.0, 5.0)
    rotation_magnitudes: tuple[float, ...] = ()  # degrees
    trials_per_magnitude: int = 3
    seed: int = 0

    def __post_init__(self):
        for name in ("translation_magnitudes", "rotation_magnitudes"):
            mags = tuple(float(m) for m in getattr(self, name))
            if not all(math.isfinite(m) and m > 0 for m in mags):
                raise ValueError(f"{name} must be in (0, inf), got {mags}")
            object.__setattr__(self, name, mags)
        if self.trials_per_magnitude < 1:
            raise ValueError("trials_per_magnitude must be >= 1")

    def classes(self) -> list[tuple[float, float, float]]:
        """(label, dt meters, dtheta degrees) per magnitude class.

        Translation magnitudes drive the classes; rotation magnitudes cycle
        alongside them.  With no translation magnitudes the rotation list
        drives the classes instead (pure-rotation benchmark).
        """
        tmags, rmags = self.translation_magnitudes, self.rotation_magnitudes
        if tmags:
            return [
                (t, t, rmags[i % len(rmags)] if rmags else 0.0)
                for i, t in enumerate(tmags)
            ]
        return [(r, 0.0, r) for r in rmags]


@dataclass
class TrialRecord:
    """One perturb-and-align trial; the fields are the ``trials.csv`` columns.
    ``wall_s`` times the whole ``align`` call, featurizing scan A included,
    whether it returns or raises.  A failed align ends at its start
    transform after 0 iterations."""

    magnitude: float
    trial: int
    init_terr: float
    final_terr: float
    init_rerr: float
    final_rerr: float
    geodesic_rerr: float
    iters: int
    wall_s: float
    converged: bool

    def csv_row(self) -> list[str]:
        return [repr(v) if isinstance(v, float) else str(int(v))
                for v in astuple(self)]


@dataclass(frozen=True)
class RotationError:
    """Euler-difference and geodesic rotation errors, both in degrees."""

    euler_deg: float
    geodesic_deg: float
    degenerate: bool = False


def _scene_surfaces(spec: SceneSpec, rng: np.random.Generator):
    """The scene's rectangles as (S, 3) origins, edges u and v and unit
    normals, and (S,) areas: the ground, then five per structure."""
    e = spec.extent
    n = spec.n_structures
    # one call, drawn in each structure's order: centre, half sizes, height
    cx, cy, hw, hd, h = rng.uniform([-0.4 * e, -0.4 * e, 0.75, 0.75, 1.0],
                                    [0.4 * e, 0.4 * e, 3.0, 3.0, 3.5],
                                    size=(n, 5)).T
    zero = np.zeros(n)
    lo = [cx - hw, cy - hd, zero]
    up, ex, ey = [zero, zero, h], [2 * hw, zero, zero], [zero, 2 * hd, zero]
    # (5, 3, n): the walls facing -x, +x, -y and +y, then the roof
    boxes = (
        np.array([lo, [cx + hw, cy - hd, zero], lo, [cx - hw, cy + hd, zero],
                  [cx - hw, cy - hd, h]]),
        np.array([ey, ey, ex, ex, ex]),
        np.array([up, up, up, up, ey]),
        np.broadcast_to(np.array([[-1.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                  [0.0, -1.0, 0.0], [0.0, 1.0, 0.0],
                                  [0.0, 0.0, 1.0]])[:, :, None], (5, 3, n)),
    )
    area = np.array([2 * hd * h, 2 * hd * h, 2 * hw * h, 2 * hw * h,
                     4 * hw * hd])
    ground = ([-e / 2, -e / 2, 0.0], [e, 0.0, 0.0], [0.0, e, 0.0],
              [0.0, 0.0, 1.0])
    return (*(np.concatenate([[g], box.transpose(2, 0, 1).reshape(-1, 3)])
              for g, box in zip(ground, boxes)),
            np.concatenate([[e * e], area.T.ravel()]))


def _cdf_index(cdf: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")``: for each ``u`` in [0, 1),
    the number of entries of ``cdf`` <= it.  ``cdf`` is sorted and ends at
    1.0.

    A table over K equal buckets of [0, 1) gives each sample a lower bound,
    the number of entries <= its bucket's low edge; the sample then steps
    up past each entry <= it.  K is a power of two, so ``cdf * K`` and
    ``u * K`` are exact.  ``steps`` is the most entries inside one bucket,
    so after that many steps every sample is exact; cdf[-1] = 1.0 > u stops
    each one before the end.  Past 3 steps per bit of ``len(cdf)`` it is
    ``np.searchsorted``.
    """
    out = np.empty(len(u), dtype=np.intp)
    k = 1 << (8 * len(cdf) - 1).bit_length()  # about 8 buckets an entry
    scaled = cdf * k
    # entries <= j / K, and entries < (j + 1) / K, for each bucket j
    lower = np.bincount(np.ceil(scaled).astype(np.intp), minlength=k + 1)
    upper = np.bincount(np.floor(scaled).astype(np.intp), minlength=k + 1)
    lower, upper = lower[:k].cumsum(), upper[:k].cumsum()
    steps = int((upper - lower).max())
    if steps > 3 * len(cdf).bit_length():
        # Tiny surfaces beside a huge one crowd into a few buckets, and a
        # step is a pass over every draw.  One searchsorted cost as much as
        # 11-14 steps at 6 entries, 27 at 51, 30-42 at 201 and 39-63 at
        # 3201 (50k and 120k draws, 2-core x86 VM): 3.3-5 steps per bit
        # of len(cdf).
        return np.searchsorted(cdf, u, side="right")
    np.multiply(u, k, out=out, casting="unsafe")  # truncates to the bucket
    # every bucket is in range, so "clip" clips nothing: it only lets take
    # write in place, each slot after reading its own index
    np.take(lower, out, out=out, mode="clip")
    for _ in range(steps):
        out += cdf[out] <= u
    return out


def _surface_counts(area: np.ndarray, n_points: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Points per surface, area-weighted: ``np.bincount(rng.choice(
    len(area), size=n_points, p=area / area.sum()), minlength=len(area))``,
    from the same words of ``rng``.  ``choice`` draws ``rng.random(n_points)``
    and searches its normalized cdf with them, and so does this."""
    total = area.sum()
    if not 0.0 < total < math.inf:
        raise ValueError(
            f"surface areas must have a finite positive sum, got {total}")
    cdf = (area / total).cumsum()
    cdf /= cdf[-1]
    u = rng.random(n_points)
    return np.bincount(_cdf_index(cdf, u), minlength=len(area))


def _sample_surfaces(surfaces, n_points: int, noise_sigma: float,
                     rng: np.random.Generator) -> PointCloud:
    origin, u, v, normal, area = surfaces
    counts = _surface_counts(area, n_points, rng)
    # Two (3, N) blocks: a scratch that sums the axes, then the block that
    # becomes the points, into which a, b and noise are drawn; the axes are
    # stored once every term is in.  Either order peaks at 7N floats, but
    # with the scratch made first the allocator hands its pages back, where
    # the other order kept up to 0.6 MB more resident in a benchmark run.
    axes = np.empty((3, n_points))
    buf = np.empty(3 * n_points)
    a, b, noise = buf.reshape(3, n_points)
    start = 0
    # each surface draws a, b and noise in turn
    for m in counts[counts > 0].tolist():
        stop = start + m
        rng.random(out=a[start:stop])
        rng.random(out=b[start:stop])
        rng.standard_normal(out=noise[start:stop])
        start = stop
    # normal(0.0, s) is 0.0 + s * z; adding the 0.0 turns -0.0 into 0.0
    noise *= noise_sigma
    noise += 0.0
    # clip keeps every sample within 4 sigma of its surface
    np.clip(noise, -4 * noise_sigma, 4 * noise_sigma, out=noise)
    # ((origin + a * u) + b * v) + noise * normal, one repeated column at a
    # time; a float sum or product is the same either way round, so the
    # first term is a * u + origin
    for k, col in enumerate(axes):
        np.multiply(np.repeat(u[:, k], counts), a, out=col)
        col += np.repeat(origin[:, k], counts)
        for w, edge in ((b, v), (noise, normal)):
            term = np.repeat(edge[:, k], counts)
            term *= w
            col += term
            del term  # before the next repeat
    points = buf.reshape(n_points, 3)
    for k, col in enumerate(axes):
        points[:, k] = col
    return PointCloud(points)


def _synth_clouds(spec: SceneSpec, count: int) -> list[PointCloud]:
    """The first ``count`` (1 or 2) samplings of the scene ``spec`` lays
    out, each from its own stream of the seed."""
    layout_seq, *sample_seqs = np.random.SeedSequence(spec.seed).spawn(3)
    surfaces = _scene_surfaces(spec, np.random.default_rng(layout_seq))
    return [_sample_surfaces(surfaces, spec.n_points, spec.noise_sigma,
                             np.random.default_rng(seq))
            for seq in sample_seqs[:count]]


def synth_scene(spec: SceneSpec) -> PointCloud:
    """Deterministic synthetic scan of the scene described by ``spec``."""
    return _synth_clouds(spec, 1)[0]


def synth_scene_pair(spec: SceneSpec) -> tuple[PointCloud, PointCloud]:
    """Two independent samplings of one scene (same structures, new points).

    The first cloud equals ``synth_scene(spec)``; the second stands in for a
    scan of the same environment from another vantage.
    """
    return tuple(_synth_clouds(spec, 2))


def perturb_pose(truth: EulerPose, dt: float, dtheta_deg: float,
                 seed: int) -> EulerPose:
    """Displace a pose by exactly ``dt`` meters in a random planar direction
    and ``dtheta_deg`` degrees of yaw (random sign), with 5% leakage into
    z, roll, and pitch."""
    if dt < 0 or dtheta_deg < 0:
        raise ValueError("perturbation magnitudes must be >= 0")
    rng = np.random.default_rng(seed)
    heading = rng.uniform(0.0, 2.0 * math.pi)
    yaw_sign = 1.0 if rng.random() < 0.5 else -1.0
    dtheta = math.radians(dtheta_deg)
    tz_off = rng.normal(0.0, 0.05 * dt)
    roll_off = rng.normal(0.0, 0.05 * dtheta)
    pitch_off = rng.normal(0.0, 0.05 * dtheta)
    return EulerPose(
        truth.tx + dt * math.cos(heading),
        truth.ty + dt * math.sin(heading),
        truth.tz + tz_off,
        truth.rx + roll_off,
        truth.ry + pitch_off,
        truth.rz + yaw_sign * dtheta,
    )


def translation_error(est: np.ndarray, truth: np.ndarray) -> float:
    """L2 distance between the two translation columns, meters."""
    est = np.asarray(est, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    return float(np.linalg.norm(est[:3, 3] - truth[:3, 3]))


def rotation_error(est: np.ndarray, truth: np.ndarray) -> RotationError:
    """Rotation error of the relative rotation inverse(truth) @ est.

    Primary metric: L2 norm of the relative Euler angles, degrees.  The
    geodesic angle arccos((tr(R) - 1) / 2) is always reported alongside;
    when the relative rotation sits at the Euler degeneracy the geodesic
    value substitutes for the Euler metric and the record is flagged.
    """
    rel = compose(inverse(truth), est)
    r = rel[:3, :3]
    cos_angle = max(-1.0, min(1.0, (float(np.trace(r)) - 1.0) / 2.0))
    geodesic = math.degrees(math.acos(cos_angle))
    try:
        pose = transform_to_euler(rel)
        euler = math.degrees(math.sqrt(pose.rx**2 + pose.ry**2 + pose.rz**2))
        return RotationError(euler_deg=euler, geodesic_deg=geodesic)
    except DegenerateOrientationError:
        return RotationError(euler_deg=geodesic, geodesic_deg=geodesic,
                             degenerate=True)


def _random_truth(rng: np.random.Generator) -> EulerPose:
    """Modest ground-truth offset so the grid never aligns by accident."""
    return EulerPose(
        rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0), rng.uniform(-0.2, 0.2),
        rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02),
        rng.uniform(-0.5, 0.5),
    )


def _run_trial(magnitude: float, trial: int, dt: float, dtheta: float,
               scan_a: PointCloud, scan_b: PointCloud, truth_t: np.ndarray,
               perturb_seed: int, cfg: AlignmentConfig) -> TrialRecord:
    init_pose = perturb_pose(transform_to_euler(truth_t), dt, dtheta,
                             perturb_seed)
    t0 = euler_to_transform(init_pose)
    start = time.perf_counter()
    try:
        report = align(scan_a, scan_b, t0, cfg)
    except VoxmiError:
        final_t, iters, converged = t0, 0, False
    else:
        final_t, iters = report.estimated, report.iterations
        converged = report.termination in ("converged_f", "converged_x")
    wall_s = time.perf_counter() - start
    init_rot = rotation_error(t0, truth_t)
    final_rot = rotation_error(final_t, truth_t)
    return TrialRecord(
        magnitude=magnitude, trial=trial,
        init_terr=translation_error(t0, truth_t),
        final_terr=translation_error(final_t, truth_t),
        init_rerr=init_rot.euler_deg, final_rerr=final_rot.euler_deg,
        geodesic_rerr=final_rot.geodesic_deg, iters=iters, wall_s=wall_s,
        converged=converged,
    )


def run_benchmark(pert: PerturbationSpec, cfg: AlignmentConfig | None = None,
                  scene: SceneSpec | None = None, pairs=None,
                  jobs: int = 1, out_dir=None, verbose: bool = False
                  ) -> list[TrialRecord]:
    """Run every magnitude x trial combination and collect records.

    Exactly one of ``scene`` (synthetic mode: a fresh seeded scene pair per
    trial) or ``pairs`` (a list of ``(scan_a, scan_b, truth_transform)``
    tuples, cycled across trials) must be given.  Failing trials become
    non-converged rows; the batch never aborts.  Records come back sorted
    by (magnitude class, trial); CSVs are written when ``out_dir`` is set.
    ``jobs`` (at least 1) trials run at once on threads.
    """
    if (scene is None) == (pairs is None):
        raise ValueError("provide exactly one of scene= or pairs=")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    cfg = cfg or AlignmentConfig()
    tasks = []
    for class_idx, (label, dt, dtheta) in enumerate(pert.classes()):
        for trial in range(pert.trials_per_magnitude):
            seq = np.random.SeedSequence(pert.seed,
                                         spawn_key=(class_idx, trial))
            scene_seed, truth_seed, perturb_seed = (
                int(s) for s in seq.generate_state(3)
            )
            if pairs is not None:
                scan_a, scan_b, truth_t = pairs[len(tasks) % len(pairs)]
            else:
                pair_spec = replace(scene, seed=scene_seed)
                scan_a, cloud_b_world = synth_scene_pair(pair_spec)
                truth = _random_truth(np.random.default_rng(truth_seed))
                truth_t = euler_to_transform(truth)
                scan_b = apply_transform(cloud_b_world, inverse(truth_t))
            tasks.append((label, trial, dt, dtheta, scan_a, scan_b, truth_t,
                          perturb_seed))

    def runner(task) -> TrialRecord:
        record = _run_trial(*task, cfg)
        if verbose:
            print(f"magnitude {record.magnitude:g} trial {record.trial}: "
                  f"terr {record.init_terr:.2f} -> {record.final_terr:.3f} m, "
                  f"{record.iters} iters, {record.wall_s:.2f} s")
        return record

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(runner, tasks))
    else:
        records = [runner(t) for t in tasks]
    records.sort(key=lambda r: (r.magnitude, r.trial))

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_trials_csv(records, out / "trials.csv")
        write_summary_csv(records, out / "summary.csv")
    return records


def write_trials_csv(records: list[TrialRecord], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(TRIAL_CSV_HEADER + "\n")
        writer = csv.writer(fh)
        for r in records:
            writer.writerow(r.csv_row())


def _by_magnitude(records: list[TrialRecord]) -> list[tuple[float, list]]:
    """(magnitude, its records in their order) per class, ascending."""
    groups: dict[float, list[TrialRecord]] = {}
    for r in records:
        groups.setdefault(r.magnitude, []).append(r)
    return sorted(groups.items())


def write_summary_csv(records: list[TrialRecord], path) -> None:
    """Per-magnitude mean/median/quartiles of every error column."""
    header = ["magnitude", "n_trials"]
    for col in ERROR_COLUMNS:
        header += [f"{col}_mean", f"{col}_median", f"{col}_q25", f"{col}_q75"]
    header += ["mean_wall_s", "converged_rate"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for mag, group in _by_magnitude(records):
            cols = dict(zip(TRIAL_CSV_HEADER.split(","), np.array(
                [astuple(r) for r in group], dtype=np.float64).T))
            row = [repr(mag), str(len(group))]
            for col in ERROR_COLUMNS:
                vals = cols[col]
                row += [repr(float(np.mean(vals))),
                        repr(float(np.median(vals))),
                        repr(float(np.percentile(vals, 25))),
                        repr(float(np.percentile(vals, 75)))]
            row.append(repr(float(np.mean(cols["wall_s"]))))
            row.append(repr(float(np.mean(cols["converged"]))))
            writer.writerow(row)


@dataclass(frozen=True)
class RuntimeInvariance:
    """Mean wall time per magnitude class and the max/min class-mean ratio."""

    class_means: dict[float, float]
    ratio: float


def runtime_invariance_check(records: list[TrialRecord]) -> RuntimeInvariance:
    """Compare mean align wall time across initial-error classes."""
    groups = _by_magnitude(records)
    if len(groups) < 3:
        raise ValueError(
            f"insufficient magnitude classes: need >= 3, got {len(groups)}"
        )
    means = {mag: float(np.mean([r.wall_s for r in group]))
             for mag, group in groups}
    return RuntimeInvariance(class_means=means,
                             ratio=max(means.values()) / min(means.values()))
