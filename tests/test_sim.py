import dataclasses

import numpy as np
import pytest

from posefusion import quat
from posefusion.pose import Trajectory, integrate, relative_pose, rotation_error_deg
from posefusion.sim import (
    SHAPES,
    NoiseModel,
    corrupt_absolute,
    corrupt_vo,
    generate_trajectory,
)


class TestGenerateTrajectory:
    def test_loop_closure(self):
        traj = generate_trajectory("loop", 4, 2.0 * np.sin(np.pi / 3))
        # 3 chords of a unit circle; the last pose returns to the first
        assert np.allclose(np.linalg.norm(traj.t[0]), 1.0, atol=1e-9)
        assert np.max(np.abs(traj.t[-1] - traj.t[0])) < 1e-6

    def test_three_frame_loop_goes_out_and_back(self):
        # the smallest loop: two chords along one diameter, 0.05 m from the centre
        traj = generate_trajectory("loop", 3, 0.1)
        assert np.allclose(traj.t[:, 0], [0.05, -0.05, 0.05], rtol=0, atol=1e-15)
        assert np.allclose(traj.t[:, 1:], 0.0, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [40, 50])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_equal_steps(self, shape, n):
        traj = generate_trajectory(shape, n, 0.25, seed=3)
        for i in range(n - 1):
            d = np.linalg.norm(traj.t[i + 1] - traj.t[i])
            assert abs(d - 0.25) < 1e-9

    def test_random_walk_deterministic(self):
        a = generate_trajectory("random-walk", 30, 0.1, seed=7)
        b = generate_trajectory("random-walk", 30, 0.1, seed=7)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.q, b.q)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            generate_trajectory("loop", 1, 0.1)
        with pytest.raises(ValueError):
            generate_trajectory("loop", 10, 0.0)
        for step in (np.nan, np.inf):
            with pytest.raises(ValueError):
                generate_trajectory("loop", 10, step)
        with pytest.raises(ValueError):
            generate_trajectory("helix", 10, 0.1)
        # one chord: a circle of radius step / (2 sin pi), 4e14 m at step 0.1
        with pytest.raises(ValueError, match="loop needs n >= 3"):
            generate_trajectory("loop", 2, 0.1)


class TestCorruptAbsolute:
    def test_zero_noise_is_identity(self):
        traj = generate_trajectory("loop", 20, 0.1)
        out = corrupt_absolute(traj, NoiseModel(seed=1))
        assert np.array_equal(out.t, traj.t) and np.array_equal(out.q, traj.q)

    def test_translation_error_folded_normal_statistics(self):
        # |e| for e ~ N(0, sigma^2 I3) has mean sigma*sqrt(2/pi)*sqrt(2)*G(2)/G(1.5),
        # i.e. the chi distribution with 3 dof: mean = sigma * 2 sqrt(2/pi).
        sigma = 0.5
        traj = generate_trajectory("loop", 10000, 0.1)
        out = corrupt_absolute(traj, NoiseModel(abs_t_sigma=sigma, seed=9))
        errs = np.linalg.norm(out.t - traj.t, axis=1)
        expected = sigma * 2.0 * np.sqrt(2.0 / np.pi)
        assert abs(np.mean(errs) - expected) / expected < 0.05

    def test_error_is_stationary_over_index(self):
        traj = generate_trajectory("loop", 10000, 0.1)
        out = corrupt_absolute(traj, NoiseModel(abs_t_sigma=0.5, seed=2))
        errs = np.linalg.norm(out.t - traj.t, axis=1)
        windows = errs.reshape(10, 1000).mean(axis=1)
        slope = np.polyfit(np.arange(10), windows, 1)[0]
        assert abs(slope) < 0.01  # Monte-Carlo tolerance, no trend

    def test_deterministic(self):
        traj = generate_trajectory("loop", 25, 0.1)
        nm = NoiseModel(abs_t_sigma=0.3, abs_r_sigma=2.0, seed=11)
        a = corrupt_absolute(traj, nm)
        b = corrupt_absolute(traj, nm)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.q, b.q)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NoiseModel(abs_t_sigma=-1.0)

    @pytest.mark.parametrize("field", ["abs_t_sigma", "abs_r_sigma", "vo_t_sigma",
                                       "vo_r_sigma", "vo_t_bias"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_noise_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            NoiseModel(**{field: value})

    @pytest.mark.parametrize("field", ["abs_r_sigma", "vo_r_sigma"])
    def test_rotation_sigma_above_1e6_degrees_rejected(self, field):
        NoiseModel(**{field: 1e6})
        with pytest.raises(ValueError, match=field):
            NoiseModel(**{field: np.nextafter(1e6, np.inf)})

    def test_translation_sigma_has_no_upper_bound(self):
        NoiseModel(abs_t_sigma=1e300, vo_t_sigma=1e300)

    @pytest.mark.parametrize("field, value", [("abs_r_sigma", -1.0), ("seed", -1)])
    def test_fields_cannot_change_after_validation(self, field, value):
        nm = NoiseModel()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(nm, field, value)
        assert nm == NoiseModel()


class TestCorruptVo:
    @pytest.mark.parametrize("frames", [41, 2000])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_noiseless_integration_reproduces_truth(self, shape, frames):
        traj = generate_trajectory(shape, frames, 0.2)
        rels = corrupt_vo(traj, NoiseModel(seed=0))
        integrated_t, integrated_q = integrate(traj.t[0], traj.q[0], rels)
        assert np.max(np.abs(integrated_t - traj.t)) < 1e-11
        assert np.max(rotation_error_deg(integrated_q, traj.q)) < 1e-11

    def test_true_relatives_match_relative_pose(self):
        traj = generate_trajectory("random-walk", 15, 0.1, seed=4)
        rels = corrupt_vo(traj, NoiseModel(seed=0))
        assert np.array_equal(rels.timestamps, traj.timestamps[1:])
        for i, (t, q) in enumerate(zip(rels.t, rels.q)):
            ref_t, ref_q = relative_pose(traj.t[i], traj.q[i], traj.t[i + 1], traj.q[i + 1])
            assert np.max(np.abs(t - ref_t)) < 1e-12
            assert np.max(np.abs(q - quat.canonicalize(ref_q))) < 1e-12

    def test_bias_drift_magnitude_straight_line(self):
        # on a straight path 0.01 m bias per step accumulates to exactly 10 m
        t = np.column_stack([0.1 * np.arange(1001), np.zeros((1001, 2))])
        traj = Trajectory(np.arange(1001, dtype=float), t, np.tile(quat.IDENTITY, (1001, 1)))
        rels = corrupt_vo(traj, NoiseModel(vo_t_bias=0.01, seed=0))
        integrated_t, _ = integrate(traj.t[0], traj.q[0], rels)
        drift = integrated_t[-1] - traj.t[-1]
        assert np.allclose(drift, [-10.0, 0.0, 0.0], atol=1e-9)

    def test_bias_drift_matches_integration_oracle(self):
        # drift is the rotated per-step bias accumulated through the headings
        traj = generate_trajectory("random-walk", 1001, 0.1, seed=3)
        rels = corrupt_vo(traj, NoiseModel(vo_t_bias=0.01, seed=0))
        integrated_t, _ = integrate(traj.t[0], traj.q[0], rels)
        bias = np.array([0.01, 0.0, 0.0])
        expected = -sum(quat.qrotate(quat.qinv(q), bias) for q in traj.q[1:])
        drift = integrated_t[-1] - traj.t[-1]
        assert np.max(np.abs(drift - expected)) < 1e-9
        assert np.linalg.norm(drift) > 1.0

    def test_integrated_error_trends_upward_with_bias(self):
        traj = generate_trajectory("random-walk", 500, 0.1, seed=6)
        rels = corrupt_vo(traj, NoiseModel(vo_t_bias=0.02, seed=0))
        integrated_t, _ = integrate(traj.t[0], traj.q[0], rels)
        errs = np.linalg.norm(integrated_t - traj.t, axis=1)
        windows = errs.reshape(10, 50).mean(axis=1)
        assert np.all(np.diff(windows) > 0)

    def test_noise_independent_of_absolute_noise(self):
        # one seed drives both sensors; their translation noises must not
        # be scaled copies of each other
        traj = generate_trajectory("loop", 2001, 0.1)
        nm = NoiseModel(abs_t_sigma=0.5, vo_t_sigma=0.01, seed=3)
        abs_noise = corrupt_absolute(traj, nm).t - traj.t
        rel_t, _ = relative_pose(traj.t[:-1], traj.q[:-1], traj.t[1:], traj.q[1:])
        vo_noise = corrupt_vo(traj, nm).t - rel_t
        for axis in range(3):
            rho = np.corrcoef(abs_noise[:-1, axis], vo_noise[:, axis])[0, 1]
            assert abs(rho) < 0.1

    def test_deterministic(self):
        traj = generate_trajectory("loop", 30, 0.1)
        nm = NoiseModel(vo_t_sigma=0.05, vo_r_sigma=0.5, vo_t_bias=0.01, seed=8)
        a = corrupt_vo(traj, nm)
        b = corrupt_vo(traj, nm)
        assert np.array_equal(a.t, b.t) and np.array_equal(a.q, b.q)

