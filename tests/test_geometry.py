"""Transform and pose utilities: construction, round trips, invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest

from voxmi import (
    DegenerateOrientationError,
    EulerPose,
    PointCloud,
    apply_transform,
    compose,
    euler_to_transform,
    inverse,
    transform_to_euler,
    validate_transform,
)


def random_pose(rng, max_angle=1.0):
    return EulerPose(
        tx=rng.uniform(-50, 50), ty=rng.uniform(-50, 50),
        tz=rng.uniform(-50, 50),
        rx=rng.uniform(-max_angle, max_angle),
        ry=rng.uniform(-max_angle, max_angle),
        rz=rng.uniform(-max_angle, max_angle),
    )


class TestEulerToTransform:
    def test_zero_pose_is_identity(self):
        np.testing.assert_array_equal(
            euler_to_transform(EulerPose()), np.eye(4))

    def test_pure_translation(self):
        t = euler_to_transform(EulerPose(1.0, 2.0, 3.0))
        np.testing.assert_array_equal(t[:3, :3], np.eye(3))
        np.testing.assert_array_equal(t[:3, 3], [1.0, 2.0, 3.0])

    def test_quarter_turn_yaw_swaps_axes(self):
        t = euler_to_transform(EulerPose(rz=math.pi / 2))
        np.testing.assert_allclose(t[:3, :3] @ [1.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0], atol=1e-15)

    def test_rotation_order_is_z_then_y_then_x(self):
        """R must equal Rz @ Ry @ Rx built from the individual angles."""
        rx, ry, rz = 0.3, -0.2, 0.7
        cx, sx = math.cos(rx), math.sin(rx)
        cy, sy = math.cos(ry), math.sin(ry)
        cz, sz = math.cos(rz), math.sin(rz)
        mx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
        my = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
        mz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
        t = euler_to_transform(EulerPose(rx=rx, ry=ry, rz=rz))
        np.testing.assert_allclose(t[:3, :3], mz @ my @ mx, atol=1e-15)

    def test_result_always_validates(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            t = euler_to_transform(random_pose(rng, max_angle=math.pi))
            validate_transform(t)


class TestTransformToEuler:
    def test_identity_gives_zero_pose(self):
        assert transform_to_euler(np.eye(4)) == EulerPose()

    def test_pure_yaw(self):
        pose = transform_to_euler(euler_to_transform(EulerPose(rz=math.pi / 4)))
        np.testing.assert_allclose(pose.as_vector(),
                                   [0, 0, 0, 0, 0, math.pi / 4], atol=1e-15)

    def test_round_trip_over_seeded_poses(self):
        """1000 random poses with |pitch| < 1 round-trip within 1e-9."""
        rng = np.random.default_rng(123)
        for _ in range(1000):
            pose = random_pose(rng, max_angle=1.0)
            back = transform_to_euler(euler_to_transform(pose))
            np.testing.assert_allclose(back.as_vector(), pose.as_vector(),
                                       atol=1e-9)

    def test_gimbal_degenerate_pitch_raises(self):
        t = euler_to_transform(EulerPose(ry=math.pi / 2))
        with pytest.raises(DegenerateOrientationError):
            transform_to_euler(t)


class TestValidateTransform:
    def test_accepts_identity(self):
        validate_transform(np.eye(4))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_transform(np.eye(3))

    def test_rejects_non_orthonormal_rotation(self):
        t = np.eye(4)
        t[0, 0] = 1.0 + 1e-6
        with pytest.raises(ValueError):
            validate_transform(t)

    def test_rejects_reflection(self):
        t = np.eye(4)
        t[0, 0] = -1.0  # det = -1, orthonormal
        with pytest.raises(ValueError):
            validate_transform(t)

    def test_rejects_bad_last_row(self):
        t = np.eye(4)
        t[3, 0] = 1e-12
        with pytest.raises(ValueError):
            validate_transform(t)

    def test_tolerates_orthonormality_within_1e9(self):
        t = np.eye(4)
        t[0, 0] = 1.0 + 4e-10
        validate_transform(t)

    def test_rejects_non_finite_entry(self):
        t = np.eye(4)
        t[1, 3] = np.nan
        with pytest.raises(ValueError,
                           match="^transform contains non-finite entries$"):
            validate_transform(t)


class TestApplyTransform:
    def test_identity_preserves_cloud(self):
        rng = np.random.default_rng(3)
        cloud = PointCloud(rng.normal(size=(50, 3)))
        out = apply_transform(cloud, np.eye(4))
        np.testing.assert_array_equal(out.points, cloud.points)

    def test_yaw_quarter_turn_on_unit_x(self):
        cloud = PointCloud(np.array([[1.0, 0.0, 0.0]]))
        out = apply_transform(cloud, euler_to_transform(EulerPose(rz=math.pi / 2)))
        np.testing.assert_allclose(out.points[0], [0.0, 1.0, 0.0], atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            cloud = PointCloud(rng.normal(scale=10.0, size=(64, 3)))
            t = euler_to_transform(random_pose(rng, max_angle=math.pi))
            back = apply_transform(apply_transform(cloud, t), inverse(t))
            np.testing.assert_allclose(back.points, cloud.points, atol=1e-9)

    def test_intensity_carried_through(self):
        cloud = PointCloud(np.zeros((3, 3)), intensity=np.array([1.0, 2.0, 3.0]))
        out = apply_transform(cloud, euler_to_transform(EulerPose(1, 2, 3)))
        np.testing.assert_array_equal(out.intensity, cloud.intensity)


class TestComposeInverse:
    def test_compose_with_identity(self):
        rng = np.random.default_rng(5)
        t = euler_to_transform(random_pose(rng))
        np.testing.assert_array_equal(compose(np.eye(4), t), t)

    def test_inverse_of_identity(self):
        np.testing.assert_array_equal(inverse(np.eye(4)), np.eye(4))

    def test_inverse_of_pure_translation(self):
        t = euler_to_transform(EulerPose(1.0, 2.0, 3.0))
        np.testing.assert_allclose(inverse(t)[:3, 3], [-1.0, -2.0, -3.0])

    def test_compose_then_inverse_is_identity(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            t = euler_to_transform(random_pose(rng, max_angle=math.pi))
            np.testing.assert_allclose(compose(t, inverse(t)), np.eye(4),
                                       atol=1e-12)

    def test_apply_compose_matches_sequential_apply(self):
        rng = np.random.default_rng(31)
        cloud = PointCloud(rng.normal(size=(32, 3)))
        t1 = euler_to_transform(random_pose(rng))
        t2 = euler_to_transform(random_pose(rng))
        a = apply_transform(apply_transform(cloud, t2), t1)
        b = apply_transform(cloud, compose(t1, t2))
        np.testing.assert_allclose(a.points, b.points, atol=1e-9)


class TestPointCloud:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((4, 2)))

    def test_rejects_non_finite(self):
        pts = np.zeros((2, 3))
        pts[1, 1] = np.nan
        with pytest.raises(ValueError):
            PointCloud(pts)

    def test_rejects_mismatched_intensity(self):
        with pytest.raises(ValueError):
            PointCloud(np.zeros((3, 3)), intensity=np.zeros(2))

    def test_len_and_empty_cloud_allowed(self):
        assert len(PointCloud(np.zeros((0, 3)))) == 0
        assert len(PointCloud(np.zeros((7, 3)))) == 7


class TestEulerPose:
    def test_vector_round_trip(self):
        pose = EulerPose(1, 2, 3, 0.1, 0.2, 0.3)
        assert EulerPose.from_vector(pose.as_vector()) == pose

    def test_normalized_wraps_angles(self):
        pose = EulerPose(rz=2 * math.pi + 0.25).normalized()
        assert pose.rz == pytest.approx(0.25, abs=1e-12)

    def test_normalized_wraps_an_odd_half_turn_to_pi(self):
        # remainder gives -pi, which lies outside (-pi, pi]
        assert EulerPose(rx=3 * math.pi).normalized().rx == math.pi

    def test_normalized_is_noop_in_range(self):
        pose = EulerPose(1.5, -2.0, 0.1, -3.0, 0.5, 3.1)
        assert pose.normalized() == pose

    def test_rejects_non_finite_component(self):
        with pytest.raises(ValueError, match=r"^pose has non-finite "
                           r"component: \(0\.0, 0\.0, 0\.0, 0\.0, inf, "
                           r"0\.0\)$"):
            EulerPose(ry=math.inf)

    def test_from_vector_rejects_a_wrong_length(self):
        with pytest.raises(ValueError, match=r"^pose vector must have 6 "
                           r"entries, got \(5,\)$"):
            EulerPose.from_vector(np.zeros(5))
