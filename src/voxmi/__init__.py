"""Rigid 3D scan alignment by maximizing mutual information between
voxelized scalar features (z-height variance or point count)."""

import numpy as _np

from .align import (
    SWEEP_AXES,
    AlignmentConfig,
    AlignmentReport,
    align,
    mi_at,
    sweep_axis,
)
from .bench import (
    TRIAL_CSV_HEADER,
    PerturbationSpec,
    RotationError,
    RuntimeInvariance,
    SceneSpec,
    TrialRecord,
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
from .errors import (
    BoxTooLargeError,
    DegenerateOrientationError,
    EmptyOverlapError,
    FormatError,
    NoOverlapError,
    OutOfBoundsError,
    VoxmiError,
)
from .geometry import (
    EulerPose,
    PointCloud,
    apply_transform,
    compose,
    euler_to_transform,
    inverse,
    transform_to_euler,
    validate_transform,
)
from .mi import (
    NO_OVERLAP_SENTINEL,
    BinningSpec,
    JointHistogram,
    MIResult,
    bin_feature,
    bin_features,
    build_joint_histogram,
    dump_histogram_csv,
    entropy,
    joint_histogram_at,
    mi_objective,
    mutual_information,
    occupied_correlation,
    read_histogram_csv,
)
from .optim import (
    DEFAULT_INITIAL_STEPS,
    OptimResult,
    SimplexConfig,
    nelder_mead_maximize,
)
from .scan_io import (
    PoseTrack,
    load_kitti_bin,
    load_kitti_poses,
    load_ply_ascii,
    load_scan,
    load_transform,
    load_xyz_text,
    relative_ground_truth,
    save_kitti_bin,
    save_kitti_poses,
    save_ply_ascii,
    save_scan,
    save_xyz_text,
)
from .voxel import (
    FeatureKind,
    FeatureMap,
    GridSpec,
    VoxelIndexMap,
    compute_feature_map,
    compute_overlap,
    overlap_voxel_count,
    voxel_indices,
    voxelize,
)

__version__ = "0.1.0"


def OverlapRegion(x_min, x_max, y_min, y_max, z_min, z_max):  # noqa: N802
    """The (2, 3) int64 [mins; maxs] index box of these inclusive ranges.

    The former spelling of a box, kept importable but outside ``__all__``
    so that code written against it still runs.
    """
    return _np.array([[x_min, y_min, z_min], [x_max, y_max, z_max]],
                     dtype=_np.int64)


__all__ = [
    "AlignmentConfig", "AlignmentReport", "BinningSpec", "BoxTooLargeError",
    "DegenerateOrientationError", "DEFAULT_INITIAL_STEPS", "EmptyOverlapError",
    "EulerPose", "FeatureKind", "FeatureMap", "FormatError", "GridSpec",
    "JointHistogram", "MIResult", "NO_OVERLAP_SENTINEL", "NoOverlapError",
    "OptimResult", "OutOfBoundsError", "PerturbationSpec",
    "PointCloud", "PoseTrack", "RotationError", "RuntimeInvariance",
    "SceneSpec", "SimplexConfig", "SWEEP_AXES", "TRIAL_CSV_HEADER",
    "TrialRecord", "VoxelIndexMap",
    "VoxmiError", "align", "apply_transform", "bin_feature", "bin_features",
    "build_joint_histogram", "compose", "compute_feature_map",
    "compute_overlap", "dump_histogram_csv", "entropy", "euler_to_transform",
    "inverse", "joint_histogram_at",
    "load_kitti_bin",
    "load_kitti_poses", "load_ply_ascii", "load_scan", "load_transform",
    "load_xyz_text",
    "mi_at", "mi_objective", "mutual_information", "nelder_mead_maximize",
    "occupied_correlation", "overlap_voxel_count",
    "perturb_pose", "read_histogram_csv", "relative_ground_truth",
    "rotation_error", "run_benchmark", "runtime_invariance_check",
    "save_kitti_bin", "save_kitti_poses", "save_ply_ascii", "save_scan",
    "save_xyz_text", "sweep_axis", "synth_scene", "synth_scene_pair",
    "transform_to_euler", "translation_error",
    "validate_transform", "voxel_indices", "voxelize", "write_summary_csv",
    "write_trials_csv",
]
