import argparse
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import posefusion
from posefusion import pgo, sim, trajio
from posefusion.cli import DATA_ERROR, NUMERICAL_ERROR, USAGE_ERROR, _build_parser, main
from posefusion.metrics import parse_report

from conftest import package_env


# the README's noise model
README_NOISE = ["--abs-t-sigma", "0.5", "--abs-r-sigma", "5", "--vo-t-sigma", "0.01",
                "--vo-r-sigma", "0.1", "--vo-t-bias", "0.01"]


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

    def test_usage_errors(self, tmp_path):
        base = ["--out-gt", str(tmp_path / "g"), "--out-abs", str(tmp_path / "a"),
                "--out-vo", str(tmp_path / "v")]
        assert main(["simulate", "--frames", "1", *base]) == USAGE_ERROR
        assert main(["simulate", "--step", "0", *base]) == USAGE_ERROR

    @pytest.mark.parametrize("flag", ["--step", "--abs-t-sigma", "--abs-r-sigma",
                                      "--vo-t-sigma", "--vo-r-sigma", "--vo-t-bias"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_option_is_usage_error(self, tmp_path, capsys, flag, value):
        out = [tmp_path / "g", tmp_path / "a", tmp_path / "v"]
        assert main(["simulate", "--frames", "50", f"{flag}={value}",
                     "--out-gt", str(out[0]), "--out-abs", str(out[1]),
                     "--out-vo", str(out[2])]) == USAGE_ERROR
        assert "finite" in capsys.readouterr().err
        assert not any(p.exists() for p in out)

    def test_negative_sigma_is_usage_error(self, tmp_path):
        assert main(["simulate", "--abs-t-sigma", "-1", "--out-gt", str(tmp_path / "g"),
                     "--out-abs", str(tmp_path / "a"),
                     "--out-vo", str(tmp_path / "v")]) == USAGE_ERROR

    @pytest.mark.parametrize("bad, message", [
        (["--seed", "-1"], "seed must be >= 0"),
        (["--frames", "2"], "loop needs n >= 3"),
        # wider rotation noise overflowed the quaternion norm after gt was written
        (["--abs-r-sigma", "1e300"], "abs_r_sigma must be <= 1e6 degrees"),
        (["--abs-r-sigma", "1.7976931348623157e308"], "abs_r_sigma must be <= 1e6 degrees"),
        (["--vo-r-sigma", "1e300"], "vo_r_sigma must be <= 1e6 degrees"),
        (["--vo-r-sigma", "1.7976931348623157e308"], "vo_r_sigma must be <= 1e6 degrees"),
        # translation noise this wide overflows to inf; gt (and abs) were written first
        (["--frames", "50", "--abs-t-sigma", "1e308"], "non-finite value (NaN or inf) in t"),
        (["--frames", "50", "--vo-t-sigma", "1e308"], "non-finite value (NaN or inf) in t"),
        # a step this long overflows the positions of every shape
        (["--shape", "loop", "--frames", "50", "--step", "1e308"], "non-finite value (NaN or inf) in t"),
        (["--shape", "random-walk", "--frames", "50", "--step", "1e308"],
         "non-finite value (NaN or inf) in t"),
    ])
    def test_bad_option_is_usage_error_before_any_write(self, tmp_path, capsys, bad, message):
        out = [tmp_path / "g", tmp_path / "a", tmp_path / "v"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy RuntimeWarning may reach stderr
            assert main(["simulate", *bad, "--out-gt", str(out[0]), "--out-abs", str(out[1]),
                         "--out-vo", str(out[2])]) == USAGE_ERROR
        assert message in capsys.readouterr().err
        assert not any(p.exists() for p in out)

    def test_too_many_frames_is_usage_error_before_any_write(self, tmp_path, capsys):
        # 10^15 frames need 7 PiB, past the address space: numpy fails before
        # it allocates anything. A count that fits in memory must not be tried.
        out = [tmp_path / "g", tmp_path / "a", tmp_path / "v"]
        assert main(["simulate", "--frames", "1000000000000000", "--out-gt", str(out[0]),
                     "--out-abs", str(out[1]), "--out-vo", str(out[2])]) == USAGE_ERROR
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("simulate: Unable to allocate")
        assert not any(p.exists() for p in out)

    def test_shape_choices_are_sim_shapes(self, tmp_path, capsys):
        sub = next(a for a in _build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)).choices["simulate"]
        assert next(a for a in sub._actions if a.dest == "shape").choices == sim.SHAPES
        out = [tmp_path / "g", tmp_path / "a", tmp_path / "v"]
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--shape", "figure-eight", "--frames", "50", "--out-gt", str(out[0]),
                  "--out-abs", str(out[1]), "--out-vo", str(out[2])])
        assert exc.value.code == USAGE_ERROR
        assert "invalid choice: 'figure-eight'" in capsys.readouterr().err
        assert not any(p.exists() for p in out)

    @pytest.mark.parametrize("bad, error", [
        ("dir", "[Errno 21] Is a directory"),
        ("missing/vo.txt", "[Errno 2] No such file or directory"),
    ], ids=["directory", "missing-parent"])
    def test_bad_output_path_is_data_error_before_any_write(self, tmp_path, capsys, bad, error):
        (tmp_path / "dir").mkdir()
        out = [tmp_path / "g", tmp_path / "a", tmp_path / bad]
        assert main(["simulate", "--frames", "50", "--out-gt", str(out[0]),
                     "--out-abs", str(out[1]), "--out-vo", str(out[2])]) == DATA_ERROR
        assert capsys.readouterr().err == f"simulate: {error}: '{out[2]}'\n"
        assert not out[0].exists() and not out[1].exists()


class TestFuse:
    def test_defaults_come_from_pgo_config(self):
        args = _build_parser().parse_args(["fuse", "--abs", "a", "--vo", "v", "--out", "o"])
        assert (args.window, args.spacing) == (7, 150)

    @pytest.mark.parametrize("shape", sim.SHAPES)
    def test_pipeline_smoke(self, tmp_path, capsys, shape):
        noise = ["--shape", shape, "--abs-t-sigma", "0.3", "--abs-r-sigma", "3",
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
        gt, abs_path, vo = _simulate(tmp_path, ["--shape", "random-walk"], frames=2)
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

    # blocks: more frames than BLOCK_ROWS, so the carry and the file I/O run
    # in blocks; wider-than-the-trajectory: each window holds every frame
    @pytest.mark.parametrize("frames, window", [(pgo.BLOCK_ROWS + 500, 51), (300, 601)],
                             ids=["blocks", "wider-than-the-trajectory"])
    def test_median_window_output_matches_library_calls(self, tmp_path, frames, window):
        gt, abs_path, vo = _simulate(tmp_path, README_NOISE, frames=frames)
        out = tmp_path / "fused.txt"
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo), "--out", str(out),
                     "--median-window", str(window)]) == 0
        fused = pgo.fuse_trajectory(trajio.read_trajectory(abs_path), trajio.read_vo(vo),
                                    pgo.PgoConfig())
        trajio.write_trajectory(pgo.temporal_median_filter(fused, window), tmp_path / "ref.txt")
        assert out.read_bytes() == (tmp_path / "ref.txt").read_bytes()
        assert len(trajio.read_trajectory(out)) == frames

    def test_even_median_window_is_usage_error(self, tmp_path):
        gt, abs_path, vo = _simulate(tmp_path)
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(tmp_path / "o"), "--median-window", "4"]) == USAGE_ERROR

    @pytest.mark.parametrize("option", [["--window", "1"], ["--spacing", "0"]], ids="=".join)
    def test_bad_config_is_usage_error(self, tmp_path, capsys, option):
        gt, abs_path, vo = _simulate(tmp_path)
        out = tmp_path / "o"
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(out), *option]) == USAGE_ERROR
        assert "must be >=" in capsys.readouterr().err
        assert not out.exists()

    def test_sigma_rot_is_usage_error(self, tmp_path, capsys):
        # the rotation weight is the constant pgo.ROT_WEIGHT, not an option
        gt, abs_path, vo = _simulate(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main(["fuse", "--abs", str(abs_path), "--vo", str(vo), "--out", str(out),
                  "--spacing", "10", "--sigma-rot", "10"])
        assert exc.value.code == USAGE_ERROR
        assert "unrecognized arguments: --sigma-rot 10" in capsys.readouterr().err
        assert not out.exists()

    def test_rank_deficient_window_is_numerical_error(self, tmp_path, capsys, monkeypatch):
        # a rotation weight of 1e-6: roll, which the relative translations
        # along the loop do not see, is observed only through that weight
        monkeypatch.setattr(pgo, "ROT_WEIGHT", float(np.sqrt(1e-12)))
        gt, abs_path, vo = _simulate(tmp_path, README_NOISE, frames=300)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo), "--out", str(out),
                         "--spacing", "10"]) == NUMERICAL_ERROR
        err = capsys.readouterr().err
        prefix = "fuse: rank-deficient system; offending manifold columns ["
        assert err.startswith(prefix + "9, 10, 11, 15, ")
        columns = [int(c) for c in err[len(prefix):err.index("]")].split(",")]
        assert all(c % 6 >= 3 for c in columns)  # rotation columns only
        assert not out.exists()

    def test_unconverged_windows_are_reported(self, tmp_path, capsys, monkeypatch):
        gt, abs_path, vo = _simulate(tmp_path, README_NOISE, frames=300)
        args = ["fuse", "--abs", str(abs_path), "--vo", str(vo), "--spacing", "10"]
        assert main([*args, "--out", str(tmp_path / "fused.txt")]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(pgo.PgoConfig, "max_iters", 1)
        out = tmp_path / "capped.txt"
        assert main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            "fuse: 9 of 9 windows stopped at 1 steps without converging\n")
        assert len(trajio.read_trajectory(out)) == 300

    def test_missing_file_is_data_error(self, tmp_path):
        assert main(["fuse", "--abs", str(tmp_path / "no.txt"),
                     "--vo", str(tmp_path / "no2.txt"),
                     "--out", str(tmp_path / "o")]) == DATA_ERROR

    def test_directory_input_is_data_error(self, tmp_path, capsys):
        gt, abs_path, vo = _simulate(tmp_path)
        assert main(["fuse", "--abs", str(tmp_path), "--vo", str(vo),
                     "--out", str(tmp_path / "o")]) == DATA_ERROR
        assert capsys.readouterr().err == f"fuse: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_directory_output_is_data_error_before_the_solve(self, tmp_path, capsys,
                                                             monkeypatch):
        gt, abs_path, vo = _simulate(tmp_path)

        def no_solve(*args, **kwargs):
            raise AssertionError("fuse_trajectory called")

        monkeypatch.setattr(pgo, "fuse_trajectory", no_solve)
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(tmp_path)]) == DATA_ERROR
        assert capsys.readouterr().err == f"fuse: [Errno 21] Is a directory: '{tmp_path}'\n"

    @staticmethod
    def _fuse_with_abs_tx(tmp_path, tx):
        """The fuse CLI, run with RuntimeWarnings as errors, on the 300-frame
        README-noise loop whose frame 100, on the --spacing 10 grid, has abs
        translation x = tx. Returns the finished process and the output path."""
        gt, abs_path, vo = _simulate(tmp_path, README_NOISE, frames=300)
        lines = abs_path.read_text().splitlines()
        fields = lines[101].split()  # line 102: frame 100
        fields[1] = tx
        lines[101] = " ".join(fields)
        abs_path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "posefusion.cli",
                              "fuse", "--abs", str(abs_path), "--vo", str(vo), "--out", str(out),
                              "--spacing", "10"], env=package_env(), capture_output=True, text=True)
        return run, out

    def test_huge_finite_translation_is_data_error_without_warnings(self, tmp_path):
        # one abs translation of 1e200 m: the normal matrix overflows, which
        # the solver reports as a non-finite step, not as a numpy warning
        run, out = self._fuse_with_abs_tx(tmp_path, "1e200")
        assert run.returncode == DATA_ERROR
        assert run.stderr == ("fuse: solver step is not finite: NaN or inf in the observations or "
                              "the starting poses, or values so large that the normal matrix "
                              "overflows\n")
        assert not out.exists()

    def test_far_outlier_is_numerical_error_without_warnings(self, tmp_path):
        # one abs translation of 1e9 m: the normal matrix stays finite, but
        # relative translations 1e9 m long dwarf the rotation observations,
        # and the window's rotation columns fail the pivot rule
        run, out = self._fuse_with_abs_tx(tmp_path, "1e9")
        assert run.returncode == NUMERICAL_ERROR
        prefix = "fuse: rank-deficient system; offending manifold columns ["
        assert run.stderr.startswith(prefix) and run.stderr.count("\n") == 1
        columns = [int(c) for c in run.stderr[len(prefix):run.stderr.index("]")].split(",")]
        assert all(c % 6 >= 3 for c in columns)  # rotation columns only
        assert not out.exists()

    def test_malformed_file_is_data_error(self, tmp_path):
        gt, abs_path, vo = _simulate(tmp_path)
        bad = tmp_path / "bad.txt"
        bad.write_text("0 0 0 0 1 0 0\n")
        assert main(["fuse", "--abs", str(bad), "--vo", str(vo),
                     "--out", str(tmp_path / "o")]) == DATA_ERROR

    @pytest.mark.parametrize("poses", [0, 1])
    def test_too_short_abs_file_is_named(self, tmp_path, capsys, poses):
        gt, abs_path, vo = _simulate(tmp_path, frames=60)
        # the first poses without the header comment (no bytes at all for 0
        # poses); the VO file is untouched
        lines = abs_path.read_text().splitlines()[1:1 + poses]
        abs_path.write_text("".join(line + "\n" for line in lines))
        out = tmp_path / "o"
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(out), "--spacing", "10"]) == DATA_ERROR
        err = capsys.readouterr().err
        assert f"{abs_path}: {poses} poses, need at least 2 to fuse" in err
        assert str(vo) not in err
        assert not out.exists()

    def test_bad_byte_in_vo_file_is_named(self, tmp_path, capsys):
        gt, abs_path, vo = _simulate(tmp_path, frames=60)
        vo.write_bytes(b"\xff" + vo.read_bytes())  # line 1, the header, is now a data line
        out = tmp_path / "o"
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(out), "--spacing", "10"]) == DATA_ERROR
        assert capsys.readouterr().err.startswith(f"fuse: {vo}:1: ")
        assert not out.exists()

    def test_vo_frame_mismatch_is_data_error(self, tmp_path):
        gt, abs_path, vo = _simulate(tmp_path, frames=60)
        short = tmp_path / "short_vo.txt"
        lines = vo.read_text().splitlines()
        short.write_text("\n".join(lines[:-5]) + "\n")
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(short),
                     "--out", str(tmp_path / "o")]) == DATA_ERROR

    def test_vo_timestamp_mismatch_is_data_error(self, tmp_path, capsys):
        gt, abs_path, vo = _simulate(tmp_path, frames=60)
        lines = vo.read_text().splitlines()
        fields = lines[10].split()  # line 11: the relative pose stamped 10
        fields[0] = "10.5"  # still increasing, but not the trajectory's timestamp
        lines[10] = " ".join(fields)
        vo.write_text("\n".join(lines) + "\n")
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(tmp_path / "o"), "--spacing", "10"]) == DATA_ERROR
        assert f"{vo}:11: timestamp 10.5 differs from the trajectory's 10.0" in capsys.readouterr().err

    def test_decreasing_abs_timestamp_is_data_error(self, tmp_path, capsys):
        gt, abs_path, vo = _simulate(tmp_path, frames=60)
        lines = abs_path.read_text().splitlines()
        fields = lines[3].split()  # line 4: the third pose, stamped 2
        fields[0] = "0.5"  # older than the second pose, stamped 1
        lines[3] = " ".join(fields)
        abs_path.write_text("\n".join(lines) + "\n")
        assert main(["fuse", "--abs", str(abs_path), "--vo", str(vo),
                     "--out", str(tmp_path / "o"), "--spacing", "10"]) == DATA_ERROR
        assert (f"{abs_path}:4: timestamps must be strictly increasing"
                in capsys.readouterr().err)

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

    def test_mismatched_files_is_data_error(self, tmp_path):
        gt, _, _ = _simulate(tmp_path, frames=60)
        (tmp_path / "other").mkdir()
        gt2, _, _ = _simulate(tmp_path / "other", frames=50)
        assert main(["eval", "--est", str(gt2), "--gt", str(gt),
                     "--out-report", str(tmp_path / "r")]) == DATA_ERROR

    def test_directory_output_is_data_error(self, tmp_path, capsys):
        gt, _, _ = _simulate(tmp_path)
        assert main(["eval", "--est", str(gt), "--gt", str(gt),
                     "--out-report", str(tmp_path)]) == DATA_ERROR
        assert capsys.readouterr().err == f"eval: [Errno 21] Is a directory: '{tmp_path}'\n"

    def test_zero_frame_files_are_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# timestamp tx ty tz qu qv1 qv2 qv3\n# no poses\n")
        report = tmp_path / "r"
        assert main(["eval", "--est", str(empty), "--gt", str(empty),
                     "--out-report", str(report)]) == DATA_ERROR
        assert "no frames" in capsys.readouterr().err
        assert not report.exists()


@pytest.mark.parametrize("command, option, other", [
    ("simulate", "--out-gt", "--out-abs"),
    ("simulate", "--out-gt", "--out-vo"),
    ("simulate", "--out-abs", "--out-vo"),
    ("fuse", "--out", "--abs"),
    ("fuse", "--out", "--vo"),
    ("eval", "--out-report", "--est"),
    ("eval", "--out-report", "--gt"),
], ids=lambda v: v.lstrip("-"))
def test_colliding_paths_are_usage_error(tmp_path, capsys, command, option, other):
    # an output written over another output or over an input lost the
    # ground truth, or let eval report 0 m against itself
    (tmp_path / "in").mkdir()
    gt, abs_path, vo = _simulate(tmp_path / "in", README_NOISE)
    paths = {
        "simulate": {"--out-gt": tmp_path / "g", "--out-abs": tmp_path / "a",
                     "--out-vo": tmp_path / "v"},
        "fuse": {"--abs": abs_path, "--vo": vo, "--out": tmp_path / "o"},
        "eval": {"--est": abs_path, "--gt": gt, "--out-report": tmp_path / "r"},
    }[command]
    # the same file, spelled another way
    paths[option] = paths[other].parent / ".." / paths[other].parent.name / paths[other].name
    inputs = {p: p.read_bytes() for p in (gt, abs_path, vo)}
    argv = [command, *(str(a) for pair in paths.items() for a in pair)]
    assert main(argv + (["--frames", "50"] if command == "simulate" else [])) == USAGE_ERROR
    err = capsys.readouterr().err.splitlines()
    assert err == [f"{command}: {option} and {other} name the same file: {paths[option]}"]
    assert {p: p.read_bytes() for p in inputs} == inputs
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in"]


class TestExitCodes:
    def test_numerical_error_code_is_distinct(self):
        assert {0, USAGE_ERROR, DATA_ERROR, NUMERICAL_ERROR} == {0, 2, 3, 4}


@pytest.mark.parametrize("argv", [
    ["fuse", "--abs", "a", "--vo", "v", "--out", "o", "--tol", "1e-8"],
    ["eval", "--est", "e", "--gt", "g", "--out-report", "r", "--cdf-points", "11"],
    ["fuse", "--abs", "a", "--vo", "v", "--out", "o", "--max-iters", "50"],
], ids=["tol", "cdf-points", "max-iters"])
def test_removed_options_are_unknown(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == USAGE_ERROR
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


def test_cli_import_loads_no_scipy():
    # SciPy is a test-only dependency, and importing it would take most of
    # the CLI's start-up time.
    code = "import sys, posefusion.cli; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    subprocess.run([sys.executable, "-c", code], env=package_env(), check=True)


def test_package_exports():
    assert sorted(posefusion.__all__) == ["ConstraintKind", "NoiseModel", "PgoConfig",
                                          "Trajectory", "fuse_trajectory"]
    assert all(hasattr(posefusion, name) for name in posefusion.__all__)


def test_fusion_demo_runs_every_shape_and_rejects_others(capsys):
    demo = runpy.run_path(str(Path(__file__).resolve().parents[1] / "scripts" / "fusion_demo.py"))
    for shape in sim.SHAPES:
        assert demo["main"](["--shape", shape, "--frames", "60", "--median-window", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"{shape}, 60 frames") and "fused / absolute" in out
    # noiseless absolute poses give no ratio to print
    assert demo["main"](["--frames", "60", "--abs-t-sigma", "0", "--abs-r-sigma", "0"]) == 0
    assert "fused / absolute" not in capsys.readouterr().out
    # a rank-deficient window, as in TestFuse::test_far_outlier_is_numerical_error_without_warnings
    assert demo["main"](["--frames", "50", "--abs-t-sigma", "1e9"]) == NUMERICAL_ERROR
    assert len(capsys.readouterr().err.splitlines()) == 1
    # a non-finite solver step, one stderr line and no usage, as in
    # TestFuse::test_huge_finite_translation_is_data_error_without_warnings
    assert demo["main"](["--frames", "50", "--abs-t-sigma", "1e200"]) == DATA_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].endswith(": solver step is not finite: NaN or inf in the "
                                             "observations or the starting poses, or values so "
                                             "large that the normal matrix overflows")
    # a bad --median-window is named before a 2-frame loop is simulated
    median_message = "--median-window must be odd and >= 1"
    for argv, message in [(["--shape", "figure-eight"], "invalid choice: 'figure-eight'"),
                          (["--frames", "2", "--median-window", "4"], median_message),
                          (["--frames", "2", "--median-window", "0"], median_message),
                          (["--frames", "2"], "loop needs n >= 3"),
                          # 7 PiB, past the address space, as in
                          # TestSimulate::test_too_many_frames_is_usage_error_before_any_write
                          (["--frames", "1000000000000000"], "Unable to allocate")]:
        with pytest.raises(SystemExit) as exc:
            demo["main"](argv)
        assert exc.value.code == USAGE_ERROR
        # argparse's usage, then one error line
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "error:" in line] == [err[-1]] and message in err[-1]
