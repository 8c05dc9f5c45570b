import numpy as np
import pytest

from posefusion import trajio
from posefusion.cli import DATA_ERROR, NUMERICAL_ERROR, USAGE_ERROR, main
from posefusion.metrics import parse_report


def _simulate(tmp_path, extra=(), frames=60, seed=0):
    gt = tmp_path / "gt.txt"
    abs_path = tmp_path / "abs.txt"
    vo = tmp_path / "vo.txt"
    args = ["simulate", "--frames", str(frames), "--seed", str(seed),
            "--out-gt", str(gt), "--out-abs", str(abs_path), "--out-vo", str(vo),
            *extra]
    assert main(args) == 0
    return gt, abs_path, vo


class TestSimulate:
    def test_zero_noise_abs_equals_gt(self, tmp_path):
        gt, abs_path, _ = _simulate(tmp_path)
        assert gt.read_bytes() != b""
        assert abs_path.read_text() == gt.read_text()

    def test_seeded_determinism_byte_identical(self, tmp_path):
        noise = ["--abs-t-sigma", "0.5", "--vo-t-sigma", "0.01",
                 "--vo-t-bias", "0.01", "--abs-r-sigma", "3"]
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        a = _simulate(tmp_path / "a", noise, seed=5)
        b = _simulate(tmp_path / "b", noise, seed=5)
        for fa, fb in zip(a, b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_gps_output(self, tmp_path):
        gt = tmp_path / "gt.txt"
        args = ["simulate", "--frames", "40",
                "--out-gt", str(gt), "--out-abs", str(tmp_path / "a.txt"),
                "--out-vo", str(tmp_path / "v.txt"),
                "--out-gps", str(tmp_path / "g.txt"), "--gps-every", "10"]
        assert main(args) == 0
        track = trajio.read_gps(tmp_path / "g.txt")
        assert len(track) == 4

    def test_usage_errors(self, tmp_path):
        base = ["--out-gt", str(tmp_path / "g"), "--out-abs", str(tmp_path / "a"),
                "--out-vo", str(tmp_path / "v")]
        assert main(["simulate", "--frames", "1", *base]) == USAGE_ERROR
        assert main(["simulate", "--step", "0", *base]) == USAGE_ERROR
        assert main(["simulate", "--out-gps", str(tmp_path / "p"),
                     "--gps-every", "0", *base]) == USAGE_ERROR


class TestFuse:
    def test_pipeline_smoke(self, tmp_path, capsys):
        noise = ["--abs-t-sigma", "0.3", "--abs-r-sigma", "3",
                 "--vo-t-sigma", "0.005", "--vo-r-sigma", "0.05",
                 "--vo-t-bias", "0.005"]
        gt, abs_path, vo = _simulate(tmp_path, noise, frames=200, seed=1)
        fused = tmp_path / "fused.txt"
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(fused), "--spacing", "10"]) == 0
        report = tmp_path / "report.txt"
        assert main(["eval", "--est", str(fused), "--gt", str(gt),
                     "--out-report", str(report)]) == 0
        out = capsys.readouterr().out
        assert "median" in out and "mean" in out
        rep = parse_report(report.read_text())
        base_report = tmp_path / "base.txt"
        assert main(["eval", "--est", str(abs_path), "--gt", str(gt),
                     "--out-report", str(base_report)]) == 0
        base = parse_report(base_report.read_text())
        assert rep.mean_t < base.mean_t

    def test_two_pose_file_with_window_two(self, tmp_path):
        gt, abs_path, vo = _simulate(tmp_path, frames=2)
        fused = tmp_path / "fused.txt"
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(fused), "--window", "2", "--spacing", "1"]) == 0
        assert len(trajio.read_trajectory(fused)) == 2

    def test_median_window_flag_default_51(self, tmp_path):
        gt, abs_path, vo = _simulate(tmp_path, frames=60)
        out_plain = tmp_path / "plain.txt"
        out_med = tmp_path / "med.txt"
        base = ["fuse", "--abs", str(abs_path), "--vo", str(vo), "--spacing", "5"]
        assert main([*base, "--out", str(out_plain)]) == 0
        assert main([*base, "--out", str(out_med), "--median-window"]) == 0
        assert main([*base, "--out", str(tmp_path / "m51.txt"),
                     "--median-window", "51"]) == 0
        # bare flag means window 51
        assert (tmp_path / "m51.txt").read_bytes() == out_med.read_bytes()

    def test_even_median_window_is_usage_error(self, tmp_path):
        gt, abs_path, vo = _simulate(tmp_path)
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(tmp_path / "o"), "--median-window", "4"]) == USAGE_ERROR

    def test_bad_config_is_usage_error(self, tmp_path):
        gt, abs_path, vo = _simulate(tmp_path)
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(tmp_path / "o"), "--window", "1"]) == USAGE_ERROR

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["fuse", "--abs", str(tmp_path / "no.txt"),
                     "--vo", str(tmp_path / "no2.txt"),
                     "--out", str(tmp_path / "o")]) == DATA_ERROR

    def test_malformed_file_is_data_error(self, tmp_path):
        gt, abs_path, vo = _simulate(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0 0 0 1 0 0\n")
        assert main(["fuse", "--abs", str(bad), "--vo", str(vo),
                     "--out", str(tmp_path / "o")]) == DATA_ERROR

    def test_vo_frame_mismatch_is_data_error(self, tmp_path):
        gt, abs_path, vo = _simulate(tmp_path, frames=60)
        short = tmp_path / "short_vo.txt"
        lines = vo.read_text().splitlines()
        short.write_text("\n".join(lines[:-5]) + "\n")
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(short),
                     "--out", str(tmp_path / "o")]) == DATA_ERROR

    @pytest.mark.parametrize("which", ["abs", "vo"])
    @pytest.mark.parametrize("frame", [20, 25])  # on the --spacing 10 grid, and off it
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_input_is_data_error(self, tmp_path, capsys, which, frame, value):
        gt, abs_path, vo = _simulate(tmp_path, frames=60)
        path = abs_path if which == "abs" else vo
        lines = path.read_text().splitlines()
        lineno = frame + 2  # line 1 is the header comment
        fields = lines[lineno - 1].split()
        fields[2] = value
        lines[lineno - 1] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(tmp_path / "o"), "--spacing", "10"]) == DATA_ERROR
        assert f"{path}:{lineno}:" in capsys.readouterr().err

    def test_byte_identical_reruns(self, tmp_path):
        gt, abs_path, vo = _simulate(
            tmp_path, ["--abs-t-sigma", "0.3", "--vo-t-bias", "0.01"], frames=100)
        out1, out2 = tmp_path / "f1.txt", tmp_path / "f2.txt"
        args = ["fuse", "--abs", str(abs_path), "--vo", str(vo), "--spacing", "10"]
        assert main([*args, "--out", str(out1)]) == 0
        assert main([*args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestEval:
    def test_est_equals_gt_zero_report(self, tmp_path, capsys):
        gt, _, _ = _simulate(tmp_path)
        report = tmp_path / "report.txt"
        assert main(["eval", "--est", str(gt), "--gt", str(gt),
                     "--out-report", str(report)]) == 0
        rep = parse_report(report.read_text())
        assert rep.median_t == 0.0 and rep.mean_t == 0.0
        assert rep.median_r == 0.0 and rep.mean_r == 0.0

    def test_cdf_points_flag(self, tmp_path):
        gt, abs_path, _ = _simulate(tmp_path, ["--abs-t-sigma", "0.2"])
        report = tmp_path / "report.txt"
        assert main(["eval", "--est", str(abs_path), "--gt", str(gt),
                     "--out-report", str(report), "--cdf-points", "11"]) == 0
        rep = parse_report(report.read_text())
        assert len(rep.cdf) == 11
        fracs = [f for _, f in rep.cdf]
        assert all(b >= a for a, b in zip(fracs, fracs[1:])) and fracs[-1] == 1.0
        assert main(["eval", "--est", str(abs_path), "--gt", str(gt),
                     "--out-report", str(report), "--cdf-points", "1"]) == USAGE_ERROR

    def test_mismatched_files_is_data_error(self, tmp_path):
        gt, _, _ = _simulate(tmp_path, frames=60)
        (tmp_path / "other").mkdir()
        gt2, _, _ = _simulate(tmp_path / "other", frames=50)
        assert main(["eval", "--est", str(gt2), "--gt", str(gt),
                     "--out-report", str(tmp_path / "r")]) == DATA_ERROR


class TestExitCodes:
    def test_numerical_error_code_is_distinct(self):
        assert {0, USAGE_ERROR, DATA_ERROR, NUMERICAL_ERROR} == {0, 2, 3, 4}
