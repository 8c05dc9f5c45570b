import numpy as np
import pytest

from posefusion.pose import Pose, RelativePose, Trajectory
from posefusion.sim import GpsTrack
from posefusion.trajio import (
    TrajectoryFormatError,
    read_gps,
    read_trajectory,
    read_vo,
    write_gps,
    write_trajectory,
    write_vo,
)

from conftest import random_pose


class TestTrajectoryFormat:
    def test_round_trip(self, tmp_path, rng):
        poses = tuple(random_pose(rng, scale=100.0) for _ in range(50))
        traj = Trajectory(np.sort(rng.uniform(0, 1000, size=50)), poses)
        path = tmp_path / "traj.txt"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        assert np.max(np.abs(back.timestamps - traj.timestamps)) < 1e-12
        for a, b in zip(back.poses, traj.poses):
            assert np.max(np.abs(a.t - b.t)) < 1e-12
            assert np.max(np.abs(a.q - b.q)) < 1e-12

    def test_comment_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n\n# still nothing\n")
        assert len(read_trajectory(path)) == 0

    def test_identity_pose_line(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0 0 0 0 1 0 0 0\n")
        traj = read_trajectory(path)
        assert len(traj) == 1 and traj.timestamps[0] == 0.0
        assert np.array_equal(traj.poses[0].t, np.zeros(3))
        assert np.array_equal(traj.poses[0].q, [1.0, 0, 0, 0])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0 0 0 0 1 0 0 0\n1 0 0 0 1 0 0\n")
        with pytest.raises(TrajectoryFormatError) as exc:
            read_trajectory(path)
        assert exc.value.lineno == 3
        assert "3" in str(exc.value)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 zero 1 0 0 0\n")
        with pytest.raises(TrajectoryFormatError) as exc:
            read_trajectory(path)
        assert exc.value.lineno == 1

    def test_non_unit_quaternion_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 0 1.002 0 0 0\n")
        with pytest.raises(TrajectoryFormatError):
            read_trajectory(path)

    def test_mildly_off_unit_quaternion_renormalized(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text(f"0 0 0 0 {1.0 + 5e-4} 0 0 0\n")
        traj = read_trajectory(path)
        assert abs(np.linalg.norm(traj.poses[0].q) - 1.0) < 1e-15

    @pytest.mark.parametrize("reader, line", [
        (read_trajectory, "1 0 0 {} 1 0 0 0"),
        (read_trajectory, "1 0 0 0 1 0 0 {}"),
        (read_trajectory, "{} 0 0 0 1 0 0 0"),
        (read_vo, "1 0 {} 0 0 0 0"),
        (read_gps, "1 {} 0"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_rejected(self, tmp_path, reader, line, value):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n" + line.format(0) + "\n" + line.format(value) + "\n")
        with pytest.raises(TrajectoryFormatError) as exc:
            reader(path)
        assert exc.value.lineno == 3 and "non-finite" in str(exc.value)

    def test_unsorted_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0 1 0 0 0\n0 0 0 0 1 0 0 0\n")
        with pytest.raises(TrajectoryFormatError):
            read_trajectory(path)


class TestVoFormat:
    def test_round_trip(self, tmp_path, rng):
        rels = [RelativePose(rng.normal(size=3), 0.9 * rng.normal(size=3) / 3)
                for _ in range(30)]
        ts = np.arange(30, dtype=float) + 0.5
        path = tmp_path / "vo.txt"
        write_vo(rels, ts, path)
        back = read_vo(path)
        assert len(back) == 30
        for a, b in zip(back, rels):
            assert np.max(np.abs(a.t - b.t)) < 1e-12
            assert np.max(np.abs(a.w - b.w)) < 1e-12

    def test_zero_motion_line(self, tmp_path):
        path = tmp_path / "vo.txt"
        path.write_text("1 0 0 0 0 0 0\n")
        rels = read_vo(path)
        assert np.array_equal(rels[0].t, np.zeros(3))
        assert np.array_equal(rels[0].w, np.zeros(3))

    def test_timestamp_count_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_vo([RelativePose.identity()], [0.0, 1.0], tmp_path / "vo.txt")

    def test_oversized_log_rotation_rejected(self, tmp_path):
        path = tmp_path / "vo.txt"
        path.write_text("0 0 0 0 4 0 0\n")
        with pytest.raises(TrajectoryFormatError) as exc:
            read_vo(path)
        assert exc.value.lineno == 1


class TestGpsFormat:
    def test_round_trip(self, tmp_path, rng):
        track = GpsTrack(np.sort(rng.uniform(0, 100, size=20)),
                         rng.normal(size=(20, 2)) * 50)
        path = tmp_path / "gps.txt"
        write_gps(track, path)
        back = read_gps(path)
        assert np.max(np.abs(back.timestamps - track.timestamps)) < 1e-12
        assert np.max(np.abs(back.positions - track.positions)) < 1e-12

    def test_two_line_file(self, tmp_path):
        path = tmp_path / "gps.txt"
        path.write_text("0 1 2\n1 3 4\n")
        track = read_gps(path)
        assert len(track) == 2
        assert np.array_equal(track.positions, [[1.0, 2.0], [3.0, 4.0]])

    def test_field_count_error(self, tmp_path):
        path = tmp_path / "gps.txt"
        path.write_text("0 1 2 3\n")
        with pytest.raises(TrajectoryFormatError):
            read_gps(path)
