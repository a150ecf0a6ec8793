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

from .align import SWEEP_AXES, AlignmentConfig, align, sweep_axis
from .bench import (
    PerturbationSpec,
    SceneSpec,
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
    NO_OVERLAP_SENTINEL,
    BinningSpec,
    dump_histogram_csv,
    joint_histogram_at,
    mutual_information,
    occupied_correlation,
)
from .optim import DEFAULT_INITIAL_STEPS, SimplexConfig
from .scan_io import (
    SCAN_FORMATS,
    load_kitti_poses,
    load_scan,
    load_transform,
    relative_ground_truth,
    save_scan,
)
from .voxel import FeatureKind, GridSpec, compute_feature_map, voxelize

_ROTATION_AXES = ("rx", "ry", "rz")


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(f) for f in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}") from None


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
    sub.add_argument("--feature", choices=["varz", "count"], default="varz",
                     help="voxel feature: z-variance or point count")
    sub.add_argument("--resolution", type=float, default=1.0,
                     help="voxel edge length in meters (default 1.0)")
    sub.add_argument("--bins", type=int, default=32,
                     help="occupied-feature histogram bins (default 32)")
    sub.add_argument("--clamp", type=float, default=None,
                     help="feature value mapped to the last bin "
                     "(default 2.0 m^2 for varz, 64 for count)")
    sub.add_argument("--phi", choices=["on", "off"], default="on",
                     help="include the empty-voxel bin in MI (default on)")
    sub.add_argument("--format", choices=SCAN_FORMATS, default=None,
                     help="scan format override (default: by file extension)")


def _add_simplex_options(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--simplex", type=_csv_floats,
                     default=DEFAULT_INITIAL_STEPS, metavar="S1,...,S6",
                     help="initial simplex steps for tx,ty,tz [m] and "
                     "roll,pitch,yaw [rad] (default 8,8,1,0.1,0.1,0.8)")
    sub.add_argument("--max-iterations", type=int, default=300)
    sub.add_argument("--f-tol", type=float, default=1e-5,
                     help="stop when the simplex MI spread drops below this")
    sub.add_argument("--x-tol", type=float, default=1e-3,
                     help="stop when the simplex collapses below this size")


def _build_config(args) -> AlignmentConfig:
    kind = FeatureKind.from_name(args.feature)
    binning = BinningSpec(
        kind=kind, bin_count=args.bins,
        upper_clamp=args.clamp if args.clamp is not None else 0.0)
    simplex = SimplexConfig(
        initial_steps=tuple(args.simplex),
        max_iterations=args.max_iterations,
        f_tol=args.f_tol, x_tol=args.x_tol,
    ) if hasattr(args, "simplex") else SimplexConfig()
    return AlignmentConfig(
        feature=kind, grid=GridSpec(resolution=args.resolution),
        binning=binning, simplex=simplex, phi_enabled=args.phi == "on")


def _cmd_align(args) -> int:
    scan_a = load_scan(args.scan_a, args.format)
    scan_b = load_scan(args.scan_b, args.format)
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
    scan_a = load_scan(args.scan_a, args.format)
    scan_b = load_scan(args.scan_b, args.format)
    cfg = _build_config(args)
    base_t = _parse_pose_arg(args.init) if args.init else np.eye(4)
    base_pose = transform_to_euler(base_t)
    lo, hi = args.range
    cli_values = np.linspace(lo, hi, args.steps)
    rotational = args.axis in _ROTATION_AXES
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
    scan_a = load_scan(args.scan_a, args.format)
    scan_b = load_scan(args.scan_b, args.format)
    cfg = _build_config(args)
    t = _parse_pose_arg(args.init) if args.init else np.eye(4)
    feat_a = compute_feature_map(voxelize(scan_a, cfg.grid), scan_a,
                                 cfg.feature)
    hist = joint_histogram_at(feat_a, scan_b, t, cfg.grid, cfg.binning)
    result = mutual_information(hist, include_phi=cfg.phi_enabled)
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
    n = min(len(files), len(track))
    pairs = []
    for i in range(0, n - args.stride, args.stride):
        if len(pairs) >= args.max_pairs:
            break
        j = i + args.stride
        pairs.append((load_scan(files[i]), load_scan(files[j]),
                      relative_ground_truth(track, i, j)))
    if not pairs:
        raise ValueError("not enough scans for a single pair")
    return pairs


def _cmd_benchmark(args) -> int:
    cfg = _build_config(args)
    pert = PerturbationSpec(
        translation_magnitudes=tuple(args.tmags),
        rotation_magnitudes=tuple(args.rmags) if args.rmags else (),
        trials_per_magnitude=args.trials,
        seed=args.seed,
    )
    if args.kitti_dir:
        records = run_benchmark(pert, cfg, pairs=_kitti_pairs(args),
                                jobs=args.jobs, out_dir=args.out_dir,
                                verbose=args.verbose)
    else:
        scene = SceneSpec(seed=args.seed, extent=args.extent,
                          n_points=args.points,
                          n_structures=args.structures,
                          noise_sigma=args.noise)
        records = run_benchmark(pert, cfg, scene=scene, jobs=args.jobs,
                                out_dir=args.out_dir, verbose=args.verbose)
    print(f"{'magnitude':>9}  {'trials':>6}  {'init terr':>9}  "
          f"{'final terr':>10}  {'final rerr':>10}  {'conv':>5}  "
          f"{'wall s':>7}")
    for mag in sorted({r.magnitude for r in records}):
        group = [r for r in records if r.magnitude == mag]
        print(f"{mag:9g}  {len(group):6d}  "
              f"{np.mean([r.init_terr for r in group]):9.3f}  "
              f"{np.mean([r.final_terr for r in group]):10.3f}  "
              f"{np.mean([r.final_rerr for r in group]):10.3f}  "
              f"{np.mean([r.converged for r in group]):5.0%}  "
              f"{np.mean([r.wall_s for r in group]):7.2f}")
    if args.out_dir:
        print(f"trials.csv and summary.csv written to {args.out_dir}")
    return 0


def _cmd_synth(args) -> int:
    spec = SceneSpec(seed=args.seed, extent=args.extent,
                     n_points=args.points, n_structures=args.structures,
                     noise_sigma=args.noise)
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
    sub.add_argument("--points", type=int, default=50_000)
    sub.add_argument("--structures", type=int, default=40)
    sub.add_argument("--noise", type=float, default=0.03,
                     help="surface noise sigma in meters (default 0.03)")
    sub.add_argument("--extent", type=float, default=40.0,
                     help="scene side length in meters (default 40)")


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
    p.add_argument("--steps", type=int, default=81)
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
    p.add_argument("--tmags", type=_csv_floats, default=(1.0, 3.0, 5.0),
                   metavar="M1,M2,...",
                   help="initial translation offsets in meters (default "
                   "1,3,5)")
    p.add_argument("--rmags", type=_csv_floats, default=(),
                   metavar="D1,D2,...",
                   help="initial yaw offsets in degrees, cycled across "
                   "translation classes (default none)")
    p.add_argument("--trials", type=int, default=3,
                   help="trials per magnitude class (default 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="trials to run concurrently on threads (default 1; "
                   "above 1, each trial's wall_s includes thread contention)")
    p.add_argument("--out-dir", default=None,
                   help="directory for trials.csv and summary.csv")
    p.add_argument("--kitti-dir", default=None,
                   help="directory of .bin scans; pairs replace synthetic "
                   "scenes")
    p.add_argument("--poses", default=None,
                   help="pose file matching --kitti-dir scans")
    p.add_argument("--stride", type=int, default=1,
                   help="scan index spacing between pair members")
    p.add_argument("--max-pairs", type=int, default=5)
    p.add_argument("--verbose", action="store_true")
    _add_scene_options(p)
    _add_common_options(p)
    _add_simplex_options(p)
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("synth", help="generate a synthetic scan (or pair)")
    p.add_argument("--out", required=True)
    p.add_argument("--pair-out", default=None,
                   help="also write a second sampling of the same scene")
    p.add_argument("--seed", type=int, default=0)
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
