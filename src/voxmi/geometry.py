"""SE(3) rigid transforms, Euler-angle conversion, and point-cloud transformation.

Conventions used throughout the package:

* A rigid transform is a 4x4 numpy array with an orthonormal 3x3 rotation
  block and last row exactly ``[0, 0, 0, 1]``.
* Euler angles are radians, rotation order ``R = Rz(rz) @ Ry(ry) @ Rx(rx)``
  (yaw-outermost, the natural choice for wheeled platforms where heading
  error dominates).
* Rotations act about the sensor origin, on raw point coordinates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOrientationError

ORTHONORMAL_TOL = 1e-9
GIMBAL_GUARD = math.pi / 2 - 1e-6


def _wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]; exact no-op if already in range."""
    if -math.pi < a <= math.pi:
        return a
    w = math.remainder(a, math.tau)
    if w <= -math.pi:
        w += math.tau
    return w


@dataclass(frozen=True)
class PointCloud:
    """An ordered set of 3D points in meters, with optional per-point intensity.

    ``points`` is an (N, 3) float64 array.  ``intensity`` is an (N,) array or
    None.  Empty clouds are representable but rejected by registration entry
    points.
    """

    points: np.ndarray
    intensity: np.ndarray | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (N, 3), got shape {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("points contain non-finite coordinates")
        object.__setattr__(self, "points", pts)
        if self.intensity is not None:
            inten = np.asarray(self.intensity, dtype=np.float64)
            if inten.shape != (pts.shape[0],):
                raise ValueError(
                    f"intensity length {inten.shape} does not match "
                    f"{pts.shape[0]} points"
                )
            object.__setattr__(self, "intensity", inten)

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass(frozen=True)
class EulerPose:
    """6-DOF pose: translation in meters, rotations in radians.

    Angles are stored unwrapped; use :meth:`normalized` to wrap into
    (-pi, pi] for reporting.
    """

    tx: float = 0.0
    ty: float = 0.0
    tz: float = 0.0
    rx: float = 0.0
    ry: float = 0.0
    rz: float = 0.0

    def __post_init__(self):
        vals = (self.tx, self.ty, self.tz, self.rx, self.ry, self.rz)
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"pose has non-finite component: {vals}")

    def as_vector(self) -> np.ndarray:
        return np.array([self.tx, self.ty, self.tz, self.rx, self.ry, self.rz])

    @classmethod
    def from_vector(cls, v) -> "EulerPose":
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (6,):
            raise ValueError(f"pose vector must have 6 entries, got {v.shape}")
        return cls(*v.tolist())

    def normalized(self) -> "EulerPose":
        """Return the same pose with angles wrapped into (-pi, pi]."""
        return EulerPose(self.tx, self.ty, self.tz,
                         _wrap_angle(self.rx), _wrap_angle(self.ry),
                         _wrap_angle(self.rz))


def validate_transform(t: np.ndarray) -> np.ndarray:
    """Check rigid-transform invariants; returns the input as float64."""
    t = np.asarray(t, dtype=np.float64)
    if t.shape != (4, 4):
        raise ValueError(f"transform must be 4x4, got {t.shape}")
    if not np.isfinite(t).all():
        raise ValueError("transform contains non-finite entries")
    if not np.array_equal(t[3], [0.0, 0.0, 0.0, 1.0]):
        raise ValueError(f"last row must be [0, 0, 0, 1], got {t[3]}")
    r = t[:3, :3]
    if np.abs(r.T @ r - np.eye(3)).max() > ORTHONORMAL_TOL:
        raise ValueError("rotation block is not orthonormal within 1e-9")
    if abs(np.linalg.det(r) - 1.0) > ORTHONORMAL_TOL:
        raise ValueError("rotation block determinant is not +1")
    return t


def euler_to_transform(pose: EulerPose) -> np.ndarray:
    """Build the 4x4 transform for a pose, R = Rz(rz) @ Ry(ry) @ Rx(rx)."""
    sr, cr = math.sin(pose.rx), math.cos(pose.rx)
    sp, cp = math.sin(pose.ry), math.cos(pose.ry)
    sy, cy = math.sin(pose.rz), math.cos(pose.rz)
    return np.array([
        [cy * cp, cy * sp * sr - sy * cr, cy * sp * cr + sy * sr, pose.tx],
        [sy * cp, sy * sp * sr + cy * cr, sy * sp * cr - cy * sr, pose.ty],
        [-sp, cp * sr, cp * cr, pose.tz],
        [0.0, 0.0, 0.0, 1.0]], dtype=np.float64)


def transform_to_euler(t: np.ndarray) -> EulerPose:
    """Recover the EulerPose of a transform.

    Raises DegenerateOrientationError when |pitch| >= pi/2 - 1e-6, where the
    roll/yaw split is no longer unique.
    """
    t = validate_transform(t)
    r = t[:3, :3]
    sp = -float(r[2, 0])
    sp = max(-1.0, min(1.0, sp))
    ry = math.asin(sp)
    if abs(ry) >= GIMBAL_GUARD:
        raise DegenerateOrientationError(
            f"pitch {ry:.6f} rad is within 1e-6 of +/-pi/2"
        )
    rx = math.atan2(r[2, 1], r[2, 2])
    rz = math.atan2(r[1, 0], r[0, 0])
    return EulerPose(float(t[0, 3]), float(t[1, 3]), float(t[2, 3]),
                     rx, ry, rz)


def apply_transform(cloud: PointCloud, t: np.ndarray) -> PointCloud:
    """Map every point through ``p -> R @ p + t``; intensity is carried over."""
    t = validate_transform(t)
    pts = cloud.points @ t[:3, :3].T
    for axis in range(3):
        # column by column: broadcasting a (3,) row over (N, 3) is slow
        pts[:, axis] += t[axis, 3]
    return PointCloud(pts, cloud.intensity)


def compose(t1: np.ndarray, t2: np.ndarray) -> np.ndarray:
    """Matrix product t1 @ t2: apply t2 first, then t1."""
    return validate_transform(t1) @ validate_transform(t2)


def inverse(t: np.ndarray) -> np.ndarray:
    """SE(3) inverse: transpose the rotation, counter-rotate the translation."""
    t = validate_transform(t)
    r = t[:3, :3]
    out = np.eye(4)
    out[:3, :3] = r.T
    out[:3, 3] = -r.T @ t[:3, 3]
    return out
