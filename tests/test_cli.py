"""Command-line interface: exit codes, output files, and stdout contract."""

from __future__ import annotations

import json

import numpy as np
import pytest

from voxmi import (
    EulerPose,
    PointCloud,
    SceneSpec,
    apply_transform,
    euler_to_transform,
    inverse,
    read_histogram_csv,
    save_kitti_poses,
    save_scan,
    synth_scene,
    synth_scene_pair,
)
from voxmi.cli import _kitti_pairs, build_parser, main

TRUE_YAW_DEG = 10.0
SMALL_SIMPLEX = "2,2,0.5,0.05,0.05,0.2"


@pytest.fixture(scope="module")
def scans(tmp_path_factory):
    """Small scan files reused by every CLI test."""
    root = tmp_path_factory.mktemp("scans")
    spec = SceneSpec(seed=8, n_points=8000, n_structures=20)
    scan_a, b_world = synth_scene_pair(spec)
    truth = euler_to_transform(EulerPose(tx=2.0, ty=1.0,
                                         rz=np.radians(TRUE_YAW_DEG)))
    scan_b = apply_transform(b_world, inverse(truth))

    paths = {
        "a": root / "a.bin",
        "b": root / "b.bin",
        "far": root / "far.bin",
    }
    save_scan(scan_a, paths["a"])
    save_scan(scan_b, paths["b"])
    rng = np.random.default_rng(80)
    save_scan(PointCloud(rng.uniform(500, 503, size=(200, 3))), paths["far"])
    return {k: str(v) for k, v in paths.items()}


class TestAlign:
    def test_self_alignment_exits_zero(self, scans, capsys):
        code = main(["align", scans["a"], scans["a"],
                     "--init", "0 0 0 0 0 0",
                     "--simplex", SMALL_SIMPLEX, "--max-iterations", "200"])
        out = capsys.readouterr().out
        assert code == 0
        assert "estimated pose" in out
        assert "final MI" in out
        assert "kitti:" in out

    def test_missing_file_exits_one_and_names_the_path(self, scans, capsys):
        code = main(["align", "/nonexistent/scan.bin", scans["a"]])
        assert code == 1
        assert "/nonexistent/scan.bin" in capsys.readouterr().err

    def test_disjoint_scans_exit_two(self, scans, capsys):
        code = main(["align", scans["a"], scans["far"],
                     "--simplex", "1,1,1,0.1,0.1,0.1",
                     "--max-iterations", "20"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_json_report_carries_the_mi_trace(self, scans, tmp_path,
                                              capsys):
        report_path = tmp_path / "report.json"
        code = main(["align", scans["a"], scans["a"],
                     "--simplex", SMALL_SIMPLEX, "--max-iterations", "200",
                     "--out", str(report_path)])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert len(report["mi_trace"]) > 2
        capsys.readouterr()

    def test_pose_file_init(self, scans, tmp_path, capsys):
        pose_file = tmp_path / "init.txt"
        pose_file.write_text(
            "1 0 0 0 0 1 0 0 0 0 1 0\n")
        code = main(["align", scans["a"], scans["a"],
                     "--init", str(pose_file),
                     "--simplex", SMALL_SIMPLEX, "--max-iterations", "200"])
        assert code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("text, reason", [
        ("1 0 0 0 0 1 0 0 0 0 1 nan\n", "non-finite value"),
        ("1 0 0 0 0 1 0 0 0 0 1 0 0 0 0 2\n", "last row must be"),
    ])
    def test_bad_pose_file_exits_one_and_names_the_path(self, scans, tmp_path,
                                                        capsys, text, reason):
        pose_file = tmp_path / "init.txt"
        pose_file.write_text(text)
        code = main(["align", scans["a"], scans["a"],
                     "--init", str(pose_file)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {pose_file}: ")
        assert reason in err

    def test_malformed_pose_literal_exits_one(self, scans, capsys):
        code = main(["align", scans["a"], scans["a"], "--init", "1 2 3 4 5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_simplex_step_exits_one(self, scans, capsys):
        code = main(["align", scans["a"], scans["a"], "--simplex", "1,x"])
        assert code == 1
        assert ("expected comma-separated numbers, got '1,x'"
                in capsys.readouterr().err)

    def test_phi_off_without_co_occupied_voxels_names_the_reason(
            self, tmp_path, capsys):
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        save_scan(PointCloud(np.array([[0.5, 0.5, 0.5], [2.5, 0.5, 0.5]])), a)
        save_scan(PointCloud(np.array([[1.5, 0.5, 0.5]])), b)
        code = main(["align", str(a), str(b), "--phi", "off"])
        assert code == 2
        err = capsys.readouterr().err
        assert "occupied in both scans" in err
        assert "overlapping occupied bounds" not in err


class TestSweep:
    def test_yaw_sweep_peaks_at_the_true_yaw(self, scans, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", scans["a"], scans["b"], "--axis", "rz",
                     "--range", "0", "20", "--steps", "41",
                     "--init", "2 1 0 0 0 0", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "# axis=rz units=deg"
        assert lines[1] == "value,mi"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
        assert len(rows) == 41
        best_deg = max(rows, key=lambda r: r[1])[0]
        assert abs(best_deg - TRUE_YAW_DEG) <= 0.5
        assert f"{best_deg:g} deg" in capsys.readouterr().out

    def test_tx_sweep_on_identical_scans_peaks_at_zero(self, scans, tmp_path):
        out_csv = tmp_path / "tx.csv"
        code = main(["sweep", scans["a"], scans["a"], "--axis", "tx",
                     "--range", "-2", "2", "--steps", "17",
                     "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "# axis=tx units=m"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[2:]]
        assert max(rows, key=lambda r: r[1])[0] == 0.0

    def test_single_step_sweep_writes_one_row(self, scans, tmp_path, capsys):
        out_csv = tmp_path / "one.csv"
        code = main(["sweep", scans["a"], scans["a"], "--axis", "ty",
                     "--range", "0.5", "3", "--steps", "1",
                     "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 3
        assert float(lines[2].split(",")[0]) == 0.5
        capsys.readouterr()

    def test_no_overlapping_pose_exits_two_without_a_csv(self, scans,
                                                         tmp_path, capsys):
        out_csv = tmp_path / "none.csv"
        code = main(["sweep", scans["a"], scans["far"], "--axis", "tx",
                     "--range", "-1", "1", "--steps", "3",
                     "--out", str(out_csv)])
        assert code == 2
        assert not out_csv.exists()
        out, err = capsys.readouterr()
        assert "max MI" not in out
        assert "usable overlap" in err

    def test_missing_axis_is_a_usage_error(self, scans, capsys):
        code = main(["sweep", scans["a"], scans["a"],
                     "--range", "0", "1"])
        assert code == 1
        capsys.readouterr()


class TestHistogram:
    def test_empty_scan_warning_names_no_source_line(self, scans, tmp_path,
                                                     capsys):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        code = main(["histogram", str(empty), scans["a"]])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[0] == f"warning: {empty}: empty scan file"
        assert ".py" not in err

    @pytest.mark.parametrize("command", [
        ["histogram"], ["align"],
        ["sweep", "--axis", "tx", "--range", "0", "1"],
    ], ids=lambda c: c[0])
    @pytest.mark.parametrize("which", ["A", "B"])
    def test_empty_scan_error_names_the_file_and_the_scan(
            self, scans, tmp_path, capsys, command, which):
        empty = tmp_path / "empty.bin"
        empty.write_bytes(b"")
        files = [str(empty), scans["a"]][::1 if which == "A" else -1]
        code = main([command[0], *files, *command[1:]])
        err = capsys.readouterr().err
        assert code == 1
        assert err.splitlines()[-1] == (f"error: {empty}: scan {which} is "
                                        "empty; both scans must be non-empty")

    def test_identical_scans_have_no_off_diagonal_mass(self, scans, tmp_path,
                                                       capsys):
        out_csv = tmp_path / "hist.csv"
        code = main(["histogram", scans["a"], scans["a"],
                     "--out", str(out_csv)])
        assert code == 0
        assert "MI =" in capsys.readouterr().out
        counts, meta = read_histogram_csv(out_csv)
        assert counts.shape == (33, 33)
        assert meta["phi"] == "included"
        occupied = counts[1:, 1:]
        off_diag = occupied - np.diag(np.diag(occupied))
        assert off_diag.sum() == 0

    def test_phi_off_drops_the_first_row_and_column(self, scans, tmp_path,
                                                    capsys):
        out_csv = tmp_path / "hist.csv"
        code = main(["histogram", scans["a"], scans["a"], "--phi", "off",
                     "--out", str(out_csv)])
        assert code == 0
        counts, meta = read_histogram_csv(out_csv)
        assert counts.shape == (32, 32)
        assert meta["phi"] == "excluded"
        capsys.readouterr()

    def test_correlation_rises_from_identity_to_truth(self, scans, capsys):
        def corr_at(init: str) -> float:
            assert main(["histogram", scans["a"], scans["b"],
                         "--init", init]) == 0
            out = capsys.readouterr().out
            for line in out.splitlines():
                if line.startswith("occupied-bin correlation:"):
                    return float(line.split(":")[1])
            raise AssertionError(f"correlation line missing in {out!r}")

        before = corr_at("0 0 0 0 0 0")
        after = corr_at(f"2 1 0 0 0 {TRUE_YAW_DEG}")
        assert after > before

    def test_comma_separated_pose_accepted(self, scans, capsys):
        code = main(["histogram", scans["a"], scans["b"],
                     "--init", f"2,1,0,0,0,{TRUE_YAW_DEG}"])
        assert code == 0
        capsys.readouterr()

    def test_disjoint_scans_exit_two(self, scans, capsys):
        code = main(["histogram", scans["a"], scans["far"]])
        assert code == 2
        capsys.readouterr()

    def test_phi_off_without_co_occupied_voxels_exits_two(self, tmp_path,
                                                          capsys):
        """Boxes overlap, but no voxel is occupied in both scans."""
        a, b = tmp_path / "a.xyz", tmp_path / "b.xyz"
        save_scan(PointCloud(np.array([[0.5, 0.5, 0.5], [2.5, 0.5, 0.5]])), a)
        save_scan(PointCloud(np.array([[1.5, 0.5, 0.5]])), b)
        assert main(["histogram", str(a), str(b)]) == 0
        capsys.readouterr()
        code = main(["histogram", str(a), str(b), "--phi", "off"])
        assert code == 2
        assert "occupied in both scans" in capsys.readouterr().err

    def test_box_above_the_dense_limit_exits_one(self, tmp_path, capsys):
        path = tmp_path / "spread.xyz"
        save_scan(PointCloud(np.array([[-1e5] * 3, [1e5] * 3])), path)
        code = main(["histogram", str(path), str(path)])
        assert code == 1
        assert "200001 x 200001 x 200001" in capsys.readouterr().err


class TestSynth:
    def test_same_seed_gives_byte_identical_output(self, tmp_path, capsys):
        p1, p2 = tmp_path / "s1.bin", tmp_path / "s2.bin"
        for p in (p1, p2):
            assert main(["synth", "--out", str(p), "--seed", "3",
                         "--points", "2000", "--structures", "10"]) == 0
        assert p1.read_bytes() == p2.read_bytes()
        capsys.readouterr()

    def test_pair_output_writes_two_files(self, tmp_path, capsys):
        pa, pb = tmp_path / "a.xyz", tmp_path / "b.xyz"
        code = main(["synth", "--out", str(pa), "--pair-out", str(pb),
                     "--seed", "4", "--points", "1000",
                     "--structures", "5"])
        assert code == 0
        assert pa.exists() and pb.exists()
        assert pa.read_text() != pb.read_text()
        capsys.readouterr()


class TestBenchmark:
    def test_two_magnitudes_two_trials_makes_four_rows(self, tmp_path,
                                                       capsys):
        out_dir = tmp_path / "bench"
        code = main(["benchmark", "--tmags", "1,3", "--trials", "2",
                     "--points", "4000", "--structures", "10",
                     "--simplex", SMALL_SIMPLEX, "--max-iterations", "40",
                     "--jobs", "2", "--out-dir", str(out_dir)])
        assert code == 0
        lines = (out_dir / "trials.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 2 magnitudes x 2 trials
        mags = sorted({float(ln.split(",")[0]) for ln in lines[1:]})
        assert mags == [1.0, 3.0]
        out = capsys.readouterr().out
        assert "magnitude" in out
        assert "trials.csv and summary.csv" in out

    def test_kitti_directory_mode(self, scans, tmp_path, capsys):
        scan_dir = tmp_path / "kitti"
        scan_dir.mkdir()
        cloud = synth_scene(SceneSpec(seed=9, n_points=4000,
                                      n_structures=10))
        save_scan(cloud, scan_dir / "000000.bin")
        save_scan(cloud, scan_dir / "000001.bin")
        save_kitti_poses([np.eye(4), np.eye(4)], tmp_path / "poses.txt")
        code = main(["benchmark", "--kitti-dir", str(scan_dir),
                     "--poses", str(tmp_path / "poses.txt"),
                     "--tmags", "1", "--trials", "1", "--max-pairs", "1",
                     "--simplex", SMALL_SIMPLEX, "--max-iterations", "30",
                     "--jobs", "1"])
        assert code == 0
        capsys.readouterr()

    def test_kitti_dir_without_poses_is_an_error(self, tmp_path, capsys):
        code = main(["benchmark", "--kitti-dir", str(tmp_path),
                     "--tmags", "1", "--trials", "1"])
        assert code == 1
        assert "--poses" in capsys.readouterr().err

    def test_kitti_dir_without_scans_is_an_error(self, tmp_path, capsys):
        scan_dir = tmp_path / "kitti"
        scan_dir.mkdir()
        save_kitti_poses([np.eye(4), np.eye(4)], tmp_path / "poses.txt")
        code = main(["benchmark", "--kitti-dir", str(scan_dir),
                     "--poses", str(tmp_path / "poses.txt")])
        assert code == 1
        assert (capsys.readouterr().err
                == f"error: {scan_dir}: no .bin scans found\n")

    def test_kitti_dir_with_one_scan_is_an_error(self, tmp_path, capsys):
        scan_dir = tmp_path / "kitti"
        scan_dir.mkdir()
        save_scan(PointCloud(np.zeros((3, 3))), scan_dir / "000000.bin")
        save_kitti_poses([np.eye(4), np.eye(4)], tmp_path / "poses.txt")
        code = main(["benchmark", "--kitti-dir", str(scan_dir),
                     "--poses", str(tmp_path / "poses.txt")])
        assert code == 1
        assert (capsys.readouterr().err
                == f"error: {scan_dir}: 1 .bin scans and 2 poses in "
                f"{tmp_path / 'poses.txt'}, at stride 1: each scan needs its "
                "own pose\n")

    @pytest.mark.parametrize("scans, poses, stride, reason", [
        (3, 4, 1, "each scan needs its own pose"),
        (4, 3, 1, "each scan needs its own pose"),
        (1, 1, 1, "no pair of scans fits"),
        (3, 3, 3, "no pair of scans fits"),
        (3, 3, 5, "no pair of scans fits"),
    ])
    def test_kitti_dir_counts_that_give_no_pairing_are_named(
            self, scans, poses, stride, reason, tmp_path, capsys):
        """A pose file of another sequence, or a stride past the last
        scan, is refused with the directory, both counts and the stride,
        not paired on the shorter list or reported as too few scans."""
        scan_dir = tmp_path / "kitti"
        scan_dir.mkdir()
        for i in range(scans):
            save_scan(PointCloud(np.full((3, 3), float(i))),
                      scan_dir / f"{i:06d}.bin")
        save_kitti_poses([np.eye(4)] * poses, tmp_path / "poses.txt")
        code = main(["benchmark", "--kitti-dir", str(scan_dir),
                     "--poses", str(tmp_path / "poses.txt"),
                     "--stride", str(stride)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {scan_dir}: {scans} .bin scans and {poses} poses in "
            f"{tmp_path / 'poses.txt'}, at stride {stride}: {reason}\n")

    def test_stride_one_short_of_the_scans_gives_one_pair(self, tmp_path):
        scan_dir = tmp_path / "kitti"
        scan_dir.mkdir()
        for i in range(3):
            save_scan(PointCloud(np.full((3, 3), float(i))),
                      scan_dir / f"{i:06d}.bin")
        save_kitti_poses([np.eye(4)] * 3, tmp_path / "poses.txt")
        args = build_parser().parse_args(
            ["benchmark", "--kitti-dir", str(scan_dir),
             "--poses", str(tmp_path / "poses.txt"), "--stride", "2"])
        assert [(a.points[0, 0], b.points[0, 0])
                for a, b, _ in _kitti_pairs(args)] == [(0.0, 2.0)]

    def test_max_pairs_below_the_pairs_available_stops_early(self, tmp_path):
        scan_dir = tmp_path / "kitti"
        scan_dir.mkdir()
        poses = []
        for i in range(4):
            save_scan(PointCloud(np.full((3, 3), float(i))),
                      scan_dir / f"{i:06d}.bin")
            poses.append(euler_to_transform(EulerPose(tx=float(i * i))))
        save_kitti_poses(poses, tmp_path / "poses.txt")
        args = build_parser().parse_args(
            ["benchmark", "--kitti-dir", str(scan_dir),
             "--poses", str(tmp_path / "poses.txt"), "--max-pairs", "2"])
        pairs = _kitti_pairs(args)
        assert [(a.points[0, 0], b.points[0, 0], t[0, 3])
                for a, b, t in pairs] == [(0.0, 1.0, 1.0), (1.0, 2.0, 3.0)]


class TestParser:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "voxmi" in capsys.readouterr().out

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["align", "--bogus"]) == 1
        capsys.readouterr()

    def test_missing_subcommand_exits_one(self, capsys):
        assert main([]) == 1
        capsys.readouterr()
