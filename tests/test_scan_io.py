"""Scan/pose file formats: hand-built fixtures, round trips, error paths."""

from __future__ import annotations

import struct

import numpy as np
import pytest

from voxmi import (
    EulerPose,
    FormatError,
    PointCloud,
    PoseTrack,
    compose,
    euler_to_transform,
    load_kitti_bin,
    load_kitti_poses,
    load_ply_ascii,
    load_scan,
    load_xyz_text,
    relative_ground_truth,
    save_kitti_bin,
    save_kitti_poses,
    save_ply_ascii,
    save_scan,
    save_xyz_text,
)


def random_cloud(rng, n=20, intensity=True):
    inten = rng.random(n) if intensity else None
    return PointCloud(rng.normal(scale=15.0, size=(n, 3)), intensity=inten)


class TestKittiBin:
    def test_hand_built_two_point_file(self, tmp_path):
        path = tmp_path / "scan.bin"
        path.write_bytes(struct.pack("<8f", 1, 2, 3, 0.5, 4, 5, 6, 0.1))
        cloud = load_kitti_bin(path)
        np.testing.assert_allclose(cloud.points, [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_allclose(cloud.intensity,
                                   np.array([0.5, 0.1], dtype=np.float32))

    def test_empty_file_warns_and_returns_empty_cloud(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.warns(UserWarning, match="empty"):
            cloud = load_kitti_bin(path)
        assert len(cloud) == 0

    @pytest.mark.parametrize("load", [load_kitti_bin, load_scan])
    def test_empty_file_warning_names_the_caller(self, tmp_path, load):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.warns(UserWarning, match="empty") as record:
            load(path)
        assert [w.filename for w in record] == [__file__]

    def test_misaligned_file_is_a_format_error(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"\x00" * 17)
        with pytest.raises(FormatError) as err:
            load_kitti_bin(path)
        assert err.value.byte_offset == 16
        assert "short.bin" in str(err.value)

    def test_round_trip_exact_in_float32(self, tmp_path):
        rng = np.random.default_rng(8)
        cloud = random_cloud(rng, n=57)
        path = tmp_path / "rt.bin"
        save_kitti_bin(cloud, path)
        back = load_kitti_bin(path)
        np.testing.assert_array_equal(
            back.points, cloud.points.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(
            back.intensity,
            cloud.intensity.astype(np.float32).astype(np.float64))


class TestXyzText:
    def test_basic_two_points(self, tmp_path):
        path = tmp_path / "two.xyz"
        path.write_text("0 0 0\n1 1 1\n")
        cloud = load_xyz_text(path)
        assert len(cloud) == 2
        assert cloud.intensity is None

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "c.xyz"
        path.write_text("# header\n\n1 2 3  # trailing note\n")
        cloud = load_xyz_text(path)
        np.testing.assert_array_equal(cloud.points, [[1.0, 2.0, 3.0]])

    def test_non_numeric_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.xyz"
        path.write_text("a b c\n")
        with pytest.raises(FormatError) as err:
            load_xyz_text(path)
        assert err.value.line == 1

    def test_wrong_field_count_reports_line_number(self, tmp_path):
        path = tmp_path / "bad2.xyz"
        path.write_text("1 2 3\n1 2\n")
        with pytest.raises(FormatError) as err:
            load_xyz_text(path)
        assert err.value.line == 2

    def test_intensity_on_some_rows_only_reports_line_number(self, tmp_path):
        path = tmp_path / "mixed.xyz"
        path.write_text("1 2 3 0.5\n# note\n1 2 3\n")
        with pytest.raises(FormatError, match="expected 4 fields") as err:
            load_xyz_text(path)
        assert err.value.line == 3

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        cloud = random_cloud(rng, n=33)
        path = tmp_path / "rt.xyz"
        save_xyz_text(cloud, path)
        back = load_xyz_text(path)
        np.testing.assert_array_equal(back.points, cloud.points)
        np.testing.assert_array_equal(back.intensity, cloud.intensity)

    def test_save_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(10)
        cloud = random_cloud(rng)
        p1, p2 = tmp_path / "a.xyz", tmp_path / "b.xyz"
        save_xyz_text(cloud, p1)
        save_xyz_text(cloud, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestPlyAscii:
    def test_round_trip_three_vertices(self, tmp_path):
        cloud = PointCloud(np.array([[0.5, -1.25, 3.0],
                                     [1.0, 2.0, 3.0],
                                     [-4.5, 0.125, 9.75]]))
        path = tmp_path / "tri.ply"
        save_ply_ascii(cloud, path)
        back = load_ply_ascii(path)
        np.testing.assert_array_equal(back.points, cloud.points)
        assert back.intensity is None

    def test_round_trip_with_intensity(self, tmp_path):
        rng = np.random.default_rng(12)
        cloud = random_cloud(rng, n=11)
        path = tmp_path / "i.ply"
        save_ply_ascii(cloud, path)
        back = load_ply_ascii(path)
        np.testing.assert_array_equal(back.points, cloud.points)
        np.testing.assert_array_equal(back.intensity, cloud.intensity)

    def test_missing_magic_is_a_format_error(self, tmp_path):
        path = tmp_path / "not.ply"
        path.write_text("plyx\nformat ascii 1.0\nend_header\n")
        with pytest.raises(FormatError):
            load_ply_ascii(path)

    def test_binary_ply_rejected(self, tmp_path):
        path = tmp_path / "bin.ply"
        path.write_text("ply\nformat binary_little_endian 1.0\nend_header\n")
        with pytest.raises(FormatError) as err:
            load_ply_ascii(path)
        assert "ascii" in str(err.value)

    def test_vertex_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "c.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 2\n"
                        "property float x\nproperty float y\n"
                        "property float z\nend_header\n0 0 0\n")
        with pytest.raises(FormatError):
            load_ply_ascii(path)


class TestScanDispatch:
    def test_extension_dispatch(self, tmp_path):
        rng = np.random.default_rng(14)
        cloud = random_cloud(rng, intensity=False)
        for name in ("s.bin", "s.xyz", "s.txt", "s.ply"):
            path = tmp_path / name
            save_scan(cloud, path)
            back = load_scan(path)
            np.testing.assert_allclose(back.points, cloud.points, rtol=1e-7)

    def test_format_override_beats_extension(self, tmp_path):
        rng = np.random.default_rng(15)
        cloud = random_cloud(rng, intensity=False)
        path = tmp_path / "scan.dat"
        save_scan(cloud, path, fmt="xyz")
        back = load_scan(path, fmt="xyz")
        np.testing.assert_array_equal(back.points, cloud.points)

    def test_unknown_extension_is_a_format_error(self, tmp_path):
        path = tmp_path / "scan.weird"
        path.write_text("")
        with pytest.raises(FormatError):
            load_scan(path)


class TestKittiPoses:
    def test_identity_line(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1 0\n")
        track = load_kitti_poses(path)
        assert len(track) == 1
        np.testing.assert_array_equal(track[0], np.eye(4))

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 0 0 1 0 0 0 0 1\n")
        with pytest.raises(FormatError) as err:
            load_kitti_poses(path)
        assert err.value.line == 1

    def test_translation_only_pose_is_stable(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1 0 0 5 0 1 0 0 0 0 1 0\n")
        track = load_kitti_poses(path)
        expected = np.eye(4)
        expected[0, 3] = 5.0
        np.testing.assert_array_equal(track[0], expected)

    def test_small_drift_reorthonormalized(self, tmp_path):
        t = euler_to_transform(EulerPose(rz=0.4, ty=2.0))
        t[0, 0] += 5e-7  # within the 1e-6 repair budget
        line = " ".join(repr(float(v)) for v in t[:3, :4].ravel())
        path = tmp_path / "poses.txt"
        path.write_text(line + "\n")
        track = load_kitti_poses(path)
        r = track[0][:3, :3]
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12

    def test_large_drift_rejected(self, tmp_path):
        path = tmp_path / "poses.txt"
        path.write_text("1.1 0 0 0 0 1 0 0 0 0 1 0\n")
        with pytest.raises(FormatError):
            load_kitti_poses(path)

    def test_save_load_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        mats = np.stack([
            euler_to_transform(EulerPose(
                rng.uniform(-10, 10), rng.uniform(-10, 10), rng.uniform(-1, 1),
                rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1),
                rng.uniform(-3, 3)))
            for _ in range(12)
        ])
        track = PoseTrack(mats)
        path = tmp_path / "poses.txt"
        save_kitti_poses(track, path)
        back = load_kitti_poses(path)
        np.testing.assert_array_equal(back.matrices, track.matrices)


class TestRelativeGroundTruth:
    def test_same_index_is_identity(self):
        rng = np.random.default_rng(22)
        track = PoseTrack(np.stack([
            euler_to_transform(EulerPose(rng.uniform(-5, 5), 0, 0, rz=0.3))
            for _ in range(4)
        ]))
        np.testing.assert_allclose(relative_ground_truth(track, 2, 2),
                                   np.eye(4), atol=1e-12)

    def test_identity_to_translation(self):
        shifted = euler_to_transform(EulerPose(3.0, 0.0, 0.0))
        track = PoseTrack(np.stack([np.eye(4), shifted]))
        np.testing.assert_allclose(relative_ground_truth(track, 0, 1), shifted,
                                   atol=1e-12)

    def test_composes_through_intermediate_frame(self):
        rng = np.random.default_rng(23)
        track = PoseTrack(np.stack([
            euler_to_transform(EulerPose(
                rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-1, 1),
                rng.uniform(-0.2, 0.2), rng.uniform(-0.2, 0.2),
                rng.uniform(-2, 2)))
            for _ in range(5)
        ]))
        direct = relative_ground_truth(track, 0, 4)
        via_2 = compose(relative_ground_truth(track, 0, 2),
                        relative_ground_truth(track, 2, 4))
        np.testing.assert_allclose(direct, via_2, atol=1e-9)

    def test_out_of_range_raises_index_error(self):
        track = PoseTrack(np.eye(4)[None])
        with pytest.raises(IndexError):
            relative_ground_truth(track, 0, 1)
