import subprocess
import sys

import numpy as np
import pytest

from posefusion import quat
from posefusion.metrics import compare, parse_report, render_report
from posefusion.pose import Trajectory
from posefusion.trajio import write_trajectory

from conftest import package_env, random_poses


def _traj(t, q):
    return Trajectory(np.arange(len(t), dtype=float), t, q)


def _random_traj(rng, n):
    return _traj(*random_poses(rng, n))


def _shifted(gt, offsets):
    return _traj(gt.t + np.column_stack([offsets, np.zeros((len(offsets), 2))]), gt.q)


class TestCompare:
    def test_identical_trajectories(self, rng):
        gt = _random_traj(rng, 10)
        rep = compare(gt, gt)
        assert rep.median_t == 0.0 and rep.mean_t == 0.0
        assert rep.median_r == 0.0 and rep.mean_r == 0.0

    def test_known_errors_one_two_three(self, rng):
        gt = _random_traj(rng, 3)
        rep = compare(_shifted(gt, [1.0, 2.0, 3.0]), gt)
        assert rep.median_t == pytest.approx(2.0, abs=1e-12)
        assert rep.mean_t == pytest.approx(2.0, abs=1e-12)

    def test_even_count_median_is_midpoint(self, rng):
        gt = _random_traj(rng, 4)
        rep = compare(_shifted(gt, [1.0, 2.0, 4.0, 8.0]), gt)
        assert rep.median_t == pytest.approx(3.0, abs=1e-12)

    def test_matches_sort_and_count_oracle(self, rng):
        gt = _random_traj(rng, 25)
        est = _random_traj(rng, 25)
        rep = compare(est, gt)
        t_err = sorted(np.linalg.norm(e - g) for e, g in zip(est.t, gt.t))
        assert rep.median_t == pytest.approx(t_err[12], abs=1e-12)
        assert rep.mean_t == pytest.approx(np.mean(t_err), abs=1e-12)
        for m, (te, _) in enumerate(rep.per_frame):
            assert te == pytest.approx(
                np.linalg.norm(est.t[m] - gt.t[m]), abs=1e-12)
        # CDF: fraction of errors at or below each sorted threshold
        for thr, frac in rep.cdf:
            expected = sum(1 for e in t_err if e <= thr + 1e-15) / 25
            assert frac == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 25, 26, 1001, 1000])
    def test_medians_are_np_median_bit_for_bit(self, rng, n):
        gt = _random_traj(rng, n)
        rep = compare(_random_traj(rng, n), gt)
        assert rep.median_t == float(np.median(rep.per_frame[:, 0]))
        assert rep.median_r == float(np.median(rep.per_frame[:, 1]))

    def test_compare_does_not_import_numpy_ma(self, rng, tmp_path):
        # np.median imports numpy.ma on first use: 14 ms and 1.3 MB per eval.
        # numpy 1.x imports numpy.ma with numpy itself; then there is nothing to check.
        # compare alone, then the whole eval command through cli.main.
        est, gt = tmp_path / "est.txt", tmp_path / "gt.txt"
        write_trajectory(_random_traj(rng, 30), est)
        write_trajectory(_random_traj(rng, 30), gt)
        argv = ["eval", "--est", str(est), "--gt", str(gt), "--out-report", str(tmp_path / "r")]
        code = ("import sys, numpy as np; had = 'numpy.ma' in sys.modules; "
                "from posefusion.cli import main; from posefusion.metrics import compare; "
                "from posefusion.pose import Trajectory; "
                "a = Trajectory(np.arange(4.0), np.eye(4)[:, :3], np.eye(4)[[0] * 4]); "
                "compare(a, a); assert had or 'numpy.ma' not in sys.modules; "
                f"assert main({argv!r}) == 0; assert had or 'numpy.ma' not in sys.modules")
        subprocess.run([sys.executable, "-c", code], env=package_env(), check=True)

    def test_cdf_monotone_and_ends_at_one(self, rng):
        gt = _random_traj(rng, 30)
        est = _random_traj(rng, 30)
        fracs = [f for _, f in compare(est, gt).cdf]
        assert all(b >= a for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 1.0

    def test_quaternion_sign_flip_invariance(self, rng):
        gt = _random_traj(rng, 8)
        est = _random_traj(rng, 8)
        flipped = _traj(est.t, -est.q)
        a, b = compare(est, gt), compare(flipped, gt)
        assert a.median_r == b.median_r and a.mean_r == b.mean_r

    def test_mismatched_inputs_rejected(self, rng):
        gt = _random_traj(rng, 4)
        with pytest.raises(ValueError):
            compare(_random_traj(rng, 3), gt)
        other = Trajectory(np.arange(4) + 0.5, *random_poses(rng, 4))
        with pytest.raises(ValueError):
            compare(other, gt)

    def test_zero_frames_rejected(self):
        empty = Trajectory(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 4)))
        with pytest.raises(ValueError, match="no frames"):
            compare(empty, empty)

    def test_rotation_errors_in_degrees(self):
        q90 = quat.qexp(np.array([0.0, 0.0, np.pi / 4]))
        gt = _traj(np.zeros((2, 3)), np.tile(quat.IDENTITY, (2, 1)))
        est = _traj(np.zeros((2, 3)), np.stack([q90, quat.IDENTITY]))
        rep = compare(est, gt)
        assert rep.mean_r == pytest.approx(45.0, abs=1e-9)


class TestReportFormat:
    def test_round_trip(self, rng):
        gt = _random_traj(rng, 12)
        est = _random_traj(rng, 12)
        rep = compare(est, gt)
        back = parse_report(render_report(rep))
        assert back.median_t == rep.median_t and back.median_r == rep.median_r
        assert back.mean_t == rep.mean_t and back.mean_r == rep.mean_r
        assert np.array_equal(back.per_frame, rep.per_frame)
        assert np.array_equal(back.cdf, rep.cdf)

    def test_rendered_schema(self, rng):
        gt = _random_traj(rng, 3)
        text = render_report(compare(gt, gt))
        lines = text.splitlines()
        assert lines[0].startswith("#")
        keys = [ln.split()[0] for ln in lines[1:]]
        assert keys[:5] == ["median_t_m", "median_r_deg", "mean_t_m", "mean_r_deg",
                            "frames"]
        assert keys.count("frame") == 3 and keys.count("cdf_t") == 3


def _edit_line(text, prefix, new):
    """text with its first line starting with prefix replaced by new, or dropped if None."""
    lines = text.splitlines()
    idx = next(i for i, ln in enumerate(lines) if ln.startswith(prefix))
    lines[idx:idx + 1] = [] if new is None else [new]
    return "\n".join(lines) + "\n"


class TestParseMalformed:
    """Each malformed document raises a class perfbench/validate.py catches."""

    @pytest.fixture
    def text(self, rng):
        gt = _random_traj(rng, 4)
        return render_report(compare(_random_traj(rng, 4), gt))

    @pytest.mark.parametrize("prefix, new, error", [
        ("frame 2 ", "frame 2 0.5", ValueError),            # short frame line
        ("frame 2 ", "frame 2 0.5 1.0 2.0", ValueError),    # long frame line
        ("cdf_t ", "cdf_t 0.5", ValueError),                # short cdf_t line
        ("frame 1 ", "frame 1 abc 1.0", ValueError),        # non-numeric per-frame value
        ("cdf_t ", "cdf_t 0.5 half", ValueError),           # non-numeric cdf value
        ("mean_t_m", "mean_t_m abc", ValueError),           # non-numeric scalar
        ("median_r_deg", None, KeyError),                   # missing scalar key
        ("frames ", None, KeyError),                        # missing frame count
        ("frame 2 ", None, ValueError),                     # fewer frame lines than frames
        ("cdf_t ", None, ValueError),                       # fewer cdf_t lines than frames
        ("frame 2 ", "frame 2 0.5 1.0\nframe 2 0.5 1.0", ValueError),  # more frame lines
        ("frames ", "frames 5", ValueError),                # frames above the row count
        ("frames ", "frames 4.5", ValueError),              # frames not a whole number
        ("mean_r_deg", "mean_r_deg", IndexError),           # scalar key without value
    ])
    def test_raises(self, text, prefix, new, error):
        with pytest.raises(error):
            parse_report(_edit_line(text, prefix, new))

    def test_uniformly_short_rows_are_not_reshaped(self, text):
        # every frame line loses its rotation error: 4 x 1 values must not
        # come back as a (2, 2) array
        short = "".join(" ".join(ln.split()[:3]) + "\n" if ln.startswith("frame ") else ln + "\n"
                        for ln in text.splitlines())
        with pytest.raises(ValueError):
            parse_report(short)

    def test_tables_may_be_empty(self, text):
        kept = "".join(ln + "\n" for ln in text.splitlines()
                       if not ln.startswith(("frame ", "cdf_t ")))
        back = parse_report(_edit_line(kept, "frames ", "frames 0"))
        assert back.per_frame.shape == (0, 2) and back.cdf.shape == (0, 2)
