"""Command-line front end.

Angles cross this boundary in DEGREES; internally everything is radians.
Pose arguments are either six comma-separated numbers
``tx,ty,tz,roll,pitch,yaw`` (meters / degrees, rotations applied yaw about
z, then pitch about y, then roll about x) or a path to a text file holding
one 12-float row-major 3x4 transform line or a full 16-float 4x4 matrix.

Exit codes: 0 success (alignment converged), 1 I/O or format problem,
2 no usable overlap or the optimizer hit its iteration budget.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from .align import SWEEP_AXES, AlignmentConfig, _Objective, align, sweep_axis
from .bench import (
    PerturbationSpec,
    SceneSpec,
    _by_magnitude,
    run_benchmark,
    synth_scene,
    synth_scene_pair,
)
from .errors import (
    EmptyOverlapError,
    FormatError,
    NoOverlapError,
    VoxmiError,
)
from .geometry import EulerPose, euler_to_transform, transform_to_euler
from .mi import (
    DEFAULT_UPPER_CLAMP,
    NO_OVERLAP_SENTINEL,
    BinningSpec,
    dump_histogram_csv,
    occupied_correlation,
)
from .optim import SimplexConfig
from .scan_io import (
    SCAN_FORMATS,
    load_kitti_poses,
    load_scan,
    load_transform,
    relative_ground_truth,
    save_scan,
)
from .voxel import FeatureKind, GridSpec


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


def _count(text: str) -> int:
    """An integer of at least 1; argparse names the option it belongs to."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


def _parse_pose_arg(text: str) -> np.ndarray:
    """A 4x4 transform from either inline numbers or a matrix file."""
    if Path(text).exists():
        return load_transform(text)
    parts = text.replace(",", " ").split()
    if len(parts) != 6:
        raise ValueError(
            f"--init wants 'tx ty tz roll pitch yaw' (meters / degrees) or "
            f"a pose file path; got {text!r}")
    tx, ty, tz, roll, pitch, yaw = (float(p) for p in parts)
    pose = EulerPose(tx, ty, tz, math.radians(roll), math.radians(pitch),
                     math.radians(yaw))
    return euler_to_transform(pose)


def _format_pose(pose: EulerPose) -> str:
    return (f"tx={pose.tx:.4f} ty={pose.ty:.4f} tz={pose.tz:.4f} m  "
            f"roll={math.degrees(pose.rx):.4f} "
            f"pitch={math.degrees(pose.ry):.4f} "
            f"yaw={math.degrees(pose.rz):.4f} deg")


def _add_common_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--feature", choices=["varz", "count"],
                     default=AlignmentConfig.feature.value,
                     help="voxel feature: z-variance or point count")
    sub.add_argument("--resolution", type=float, default=GridSpec.resolution,
                     help="voxel edge length in meters (default %(default)s)")
    sub.add_argument("--bins", type=int, default=BinningSpec.bin_count,
                     help="occupied-feature bins (default %(default)s)")
    sub.add_argument("--clamp", type=float, default=BinningSpec.upper_clamp,
                     help="feature value mapped to the last bin (default "
                     + ", ".join(f"{v:g} for {kind.value}" for kind, v
                                 in DEFAULT_UPPER_CLAMP.items()) + ")")
    sub.add_argument("--phi", choices=["on", "off"],
                     default="on" if AlignmentConfig.phi_enabled else "off",
                     help="empty-voxel bin in MI (default %(default)s)")
    sub.add_argument("--format", choices=SCAN_FORMATS, default=None,
                     help="scan format override (default: by file extension)")


def _add_simplex_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--simplex", type=_csv_floats,
                     default=SimplexConfig.initial_steps, metavar="S1,...,S6",
                     help="initial simplex steps for tx,ty,tz [m] and "
                     "roll,pitch,yaw [rad] (default %(default)s)")
    sub.add_argument("--max-iterations", type=_count,
                     default=SimplexConfig.max_iterations)
    sub.add_argument("--f-tol", type=float, default=SimplexConfig.f_tol,
                     help="stop when the simplex MI spread drops below this")
    sub.add_argument("--x-tol", type=float, default=SimplexConfig.x_tol,
                     help="stop when the simplex collapses below this size")


def _build_config(args) -> AlignmentConfig:
    kind = FeatureKind.from_name(args.feature)
    binning = BinningSpec(kind=kind, bin_count=args.bins,
                          upper_clamp=args.clamp)
    simplex = SimplexConfig(
        initial_steps=tuple(args.simplex),
        max_iterations=args.max_iterations,
        f_tol=args.f_tol, x_tol=args.x_tol,
    ) if hasattr(args, "simplex") else SimplexConfig()
    return AlignmentConfig(
        feature=kind, grid=GridSpec(resolution=args.resolution),
        binning=binning, simplex=simplex, phi_enabled=args.phi == "on")


def _load_pair(args):
    """Scans A and B; an empty one is refused, naming its file."""
    scans = []
    for which, path in (("A", args.scan_a), ("B", args.scan_b)):
        scan = load_scan(path, args.format)
        if len(scan) == 0:
            raise ValueError(f"{path}: scan {which} is empty; both scans "
                             "must be non-empty")
        scans.append(scan)
    return scans


def _cmd_align(args) -> int:
    scan_a, scan_b = _load_pair(args)
    t0 = _parse_pose_arg(args.init) if args.init else np.eye(4)
    cfg = _build_config(args)
    report = align(scan_a, scan_b, t0, cfg)
    print(f"feature: {cfg.feature.value}  resolution: "
          f"{cfg.grid.resolution:g} m  bins: {cfg.binning.bin_count}")
    print(f"initial  pose: {_format_pose(report.initial_pose)}")
    print(f"estimated pose: {_format_pose(report.estimated_pose)}")
    print(f"final MI: {report.final_mi:.6f} nats")
    print(f"iterations: {report.iterations}  termination: "
          f"{report.termination}  wall: {report.wall_time:.2f} s")
    print(f"kitti: {report.kitti_line()}")
    if args.out:
        report.write_json(args.out)
        print(f"report written to {args.out}")
    return 0 if report.termination.startswith("converged") else 2


def _cmd_sweep(args) -> int:
    scan_a, scan_b = _load_pair(args)
    cfg = _build_config(args)
    base_t = _parse_pose_arg(args.init) if args.init else np.eye(4)
    base_pose = transform_to_euler(base_t)
    lo, hi = args.range
    cli_values = np.linspace(lo, hi, args.steps)
    rotational = args.axis in SWEEP_AXES[3:]
    values = np.radians(cli_values) if rotational else cli_values
    curve = sweep_axis(scan_a, scan_b, base_pose, args.axis, values, cfg)
    unit = "deg" if rotational else "m"
    best_idx = int(np.argmax([mi for _, mi in curve]))
    if curve[best_idx][1] <= NO_OVERLAP_SENTINEL:
        raise NoOverlapError(f"no {args.axis} value in [{lo:g}, {hi:g}] "
                             f"{unit} gives a usable overlap")
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(f"# axis={args.axis} units={unit}\n")
            fh.write("value,mi\n")
            for cli_v, (_, mi) in zip(cli_values, curve):
                fh.write(f"{float(cli_v)!r},{float(mi)!r}\n")
        print(f"sweep written to {args.out}")
    print(f"max MI {curve[best_idx][1]:.6f} at {args.axis} = "
          f"{cli_values[best_idx]:g} {unit}")
    return 0


def _cmd_histogram(args) -> int:
    scan_a, scan_b = _load_pair(args)
    cfg = _build_config(args)
    t = _parse_pose_arg(args.init) if args.init else np.eye(4)
    with _Objective(scan_a, scan_b, cfg) as objective:
        hist, result = objective.breakdown(t)
    corr = occupied_correlation(hist.counts)
    print(f"voxels in overlap region: {hist.total}")
    print(f"H(A) = {result.h_x:.6f}  H(B) = {result.h_y:.6f}  "
          f"H(A,B) = {result.h_xy:.6f} nats")
    print(f"MI = {result.mi:.6f} nats")
    print(f"occupied-bin correlation: {corr:.6f}")
    if args.out:
        dump_histogram_csv(hist, args.out, include_phi=cfg.phi_enabled)
        print(f"histogram written to {args.out}")
    return 0


def _kitti_pairs(args):
    if not args.poses:
        raise ValueError("--kitti-dir requires --poses")
    track = load_kitti_poses(args.poses)
    files = sorted(Path(args.kitti_dir).glob("*.bin"))
    if not files:
        raise FormatError(args.kitti_dir, "no .bin scans found")
    n = len(files)
    counts = (f"{args.kitti_dir}: {n} .bin scans and {len(track)} poses in "
              f"{args.poses}, at stride {args.stride}")
    if n != len(track):
        raise ValueError(f"{counts}: each scan needs its own pose")
    if n <= args.stride:
        raise ValueError(f"{counts}: no pair of scans fits")
    pairs = []
    for i in range(0, n - args.stride, args.stride):
        if len(pairs) >= args.max_pairs:
            break
        j = i + args.stride
        pairs.append((load_scan(files[i]), load_scan(files[j]),
                      relative_ground_truth(track, i, j)))
    return pairs


def _cmd_benchmark(args) -> int:
    cfg = _build_config(args)
    pert = PerturbationSpec(translation_magnitudes=args.tmags,
                            rotation_magnitudes=args.rmags,
                            trials_per_magnitude=args.trials, seed=args.seed)
    pairs = _kitti_pairs(args) if args.kitti_dir else None
    records = run_benchmark(
        pert, cfg, scene=None if args.kitti_dir else _scene_spec(args),
        pairs=pairs, jobs=args.jobs, out_dir=args.out_dir,
        verbose=args.verbose)
    print(f"{'magnitude':>9}  {'trials':>6}  {'init terr':>9}  "
          f"{'final terr':>10}  {'final rerr':>10}  {'conv':>5}  "
          f"{'wall s':>7}")
    for mag, group in _by_magnitude(records):
        print(f"{mag:9g}  {len(group):6d}  "
              f"{np.mean([r.init_terr for r in group]):9.3f}  "
              f"{np.mean([r.final_terr for r in group]):10.3f}  "
              f"{np.mean([r.final_rerr for r in group]):10.3f}  "
              f"{np.mean([r.converged for r in group]):5.0%}  "
              f"{np.mean([r.wall_s for r in group]):7.2f}")
    if args.out_dir:
        print(f"trials.csv and summary.csv written to {args.out_dir}")
    return 0


def _scene_spec(args) -> SceneSpec:
    return SceneSpec(seed=args.seed, extent=args.extent,
                     n_points=args.points, n_structures=args.structures,
                     noise_sigma=args.noise)


def _cmd_synth(args) -> int:
    spec = _scene_spec(args)
    if args.pair_out:
        cloud_a, cloud_b = synth_scene_pair(spec)
        save_scan(cloud_a, args.out, args.format)
        save_scan(cloud_b, args.pair_out, args.format)
        print(f"wrote {len(cloud_a)} points to {args.out} and "
              f"{len(cloud_b)} to {args.pair_out}")
    else:
        cloud = synth_scene(spec)
        save_scan(cloud, args.out, args.format)
        print(f"wrote {len(cloud)} points to {args.out}")
    return 0


def _add_scene_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--points", type=_count, default=SceneSpec.n_points)
    sub.add_argument("--structures", type=int, default=SceneSpec.n_structures)
    sub.add_argument("--noise", type=float, default=SceneSpec.noise_sigma,
                     help="noise sigma in meters (default %(default)s)")
    sub.add_argument("--extent", type=float, default=SceneSpec.extent,
                     help="scene side length in meters (default %(default)s)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxmi",
        description="Rigid alignment of 3D scans by maximizing mutual "
        "information between voxel features.",
        epilog="Angles on the command line are degrees; rotations apply "
        "yaw (z), then pitch (y), then roll (x).")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="estimate the transform that maps "
                       "scan B onto scan A")
    p.add_argument("scan_a")
    p.add_argument("scan_b")
    p.add_argument("--init", default=None,
                   help="initial transform guess (pose string or file)")
    p.add_argument("--out", default=None, help="write a JSON report here")
    _add_common_options(p)
    _add_simplex_options(p)
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("sweep", help="MI curve along one pose axis")
    p.add_argument("scan_a")
    p.add_argument("scan_b")
    p.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p.add_argument("--range", type=float, nargs=2, required=True,
                   metavar=("MIN", "MAX"),
                   help="sweep bounds (meters, or degrees for rx/ry/rz)")
    p.add_argument("--steps", type=_count, default=81)
    p.add_argument("--init", default=None,
                   help="pose holding the non-swept parameters")
    p.add_argument("--out", default=None, help="write value,mi CSV here")
    _add_common_options(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("histogram", help="joint feature histogram and MI "
                       "at a fixed pose")
    p.add_argument("scan_a")
    p.add_argument("scan_b")
    p.add_argument("--init", default=None,
                   help="transform applied to scan B (default identity)")
    p.add_argument("--out", default=None, help="write the histogram CSV here")
    _add_common_options(p)
    p.set_defaults(func=_cmd_histogram)

    p = sub.add_parser("benchmark", help="error-vs-initial-error batches on "
                       "synthetic scenes or a scan directory")
    p.add_argument("--tmags", type=_csv_floats,
                   default=PerturbationSpec.translation_magnitudes,
                   metavar="M1,M2,...",
                   help="initial translation offsets in meters (default "
                   "%(default)s)")
    p.add_argument("--rmags", type=_csv_floats, default=(),
                   metavar="D1,D2,...",
                   help="initial yaw offsets in degrees, cycled across "
                   "translation classes (default none)")
    p.add_argument("--trials", type=_count,
                   default=PerturbationSpec.trials_per_magnitude,
                   help="trials per magnitude class (default %(default)s)")
    p.add_argument("--seed", type=int, default=PerturbationSpec.seed)
    p.add_argument("--jobs", type=_count, default=1,
                   help="trials to run concurrently on threads (default 1; "
                   "above 1, each trial's wall_s includes thread contention)")
    p.add_argument("--out-dir", default=None,
                   help="directory for trials.csv and summary.csv")
    p.add_argument("--kitti-dir", default=None,
                   help="directory of .bin scans; pairs replace synthetic "
                   "scenes")
    p.add_argument("--poses", default=None,
                   help="pose file matching --kitti-dir scans")
    p.add_argument("--stride", type=_count, default=1,
                   help="scan index spacing between pair members")
    p.add_argument("--max-pairs", type=_count, default=5)
    p.add_argument("--verbose", action="store_true")
    _add_scene_options(p)
    _add_common_options(p)
    _add_simplex_options(p)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("synth", help="generate a synthetic scan (or pair)")
    p.add_argument("--out", required=True)
    p.add_argument("--pair-out", default=None,
                   help="also write a second sampling of the same scene")
    p.add_argument("--seed", type=int, default=SceneSpec.seed)
    p.add_argument("--format", choices=SCAN_FORMATS, default=None)
    _add_scene_options(p)
    p.set_defaults(func=_cmd_synth)
    return parser


def _print_warning(message, category, filename, lineno, file=None,
                   line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    with warnings.catch_warnings():
        # a warning is about the user's input, not a line of voxmi
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (VoxmiError, OSError, ValueError, IndexError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return (2 if isinstance(exc, (NoOverlapError, EmptyOverlapError))
                    else 1)


if __name__ == "__main__":
    sys.exit(main())
