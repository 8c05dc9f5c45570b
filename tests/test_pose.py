import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posefusion import quat
from posefusion.pose import (
    LossConfig,
    Pose,
    RelativePose,
    Trajectory,
    VoChain,
    compose,
    mapnet_loss,
    pose_distance,
    relative_pose,
    relative_pose_delta,
    rotation_error_deg,
    sample_pairs,
)

from conftest import random_pose, random_unit_quat


class TestPoseType:
    def test_canonicalizes_on_construction(self):
        p = Pose(np.zeros(3), np.array([-1.0, 0, 0, 0]))
        assert p.q[0] == 1.0

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            Pose(np.zeros(3), np.array([1.0, 1.0, 0, 0]))

    def test_relative_rejects_long_log(self):
        with pytest.raises(ValueError):
            RelativePose(np.zeros(3), np.array([4.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_pose_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            Pose(np.array([bad, 0.0, 0.0]), quat.IDENTITY)
        with pytest.raises(ValueError):
            Pose(np.zeros(3), np.array([bad, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_relative_pose_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            RelativePose(np.array([0.0, bad, 0.0]), np.zeros(3))
        with pytest.raises(ValueError, match="non-finite"):
            RelativePose(np.zeros(3), np.array([0.0, 0.0, bad]))


def _arrays(rng, n):
    t = rng.normal(size=(n, 3))
    q = rng.normal(size=(n, 4))
    return np.arange(n, dtype=float), t, q / np.linalg.norm(q, axis=1, keepdims=True)


class TestTrajectoryType:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["timestamps", "t", "q"])
    def test_rejects_non_finite(self, rng, field, bad):
        arrays = dict(zip(("timestamps", "t", "q"), _arrays(rng, 6)))
        arrays[field].reshape(6, -1)[3, 0] = bad  # a view of the array
        with pytest.raises(ValueError):
            Trajectory(**arrays)

    def test_rejects_bad_shapes_order_and_norm(self, rng):
        ts, t, q = _arrays(rng, 5)
        for args in ((ts, t[:4], q), (ts, t, q[:, :3]), (ts[::-1], t, q), (ts, t, 2 * q)):
            with pytest.raises(ValueError):
                Trajectory(*args)

    def test_canonical_read_only_copies(self, rng):
        ts, t, q = _arrays(rng, 50)
        traj = Trajectory(ts, t, q)
        assert np.array_equal(traj.q, quat.canonicalize(q)) and np.all(traj.q[:, 0] >= 0)
        t[0] = 99.0  # the trajectory keeps its own copy
        assert traj.t[0, 0] != 99.0
        for a in (traj.timestamps, traj.t, traj.q):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_poses_are_row_views(self, rng):
        ts, t, q = _arrays(rng, 20)
        traj = Trajectory(ts, t, q)
        poses = traj.poses
        assert len(poses) == 20 and isinstance(poses[3], Pose)
        assert np.array_equal(poses[-1].t, traj.t[-1]) and np.array_equal(poses[5].q, traj.q[5])
        assert [p.t[0] for p in poses[2:8:3]] == list(traj.t[2:8:3, 0])
        back = Trajectory.from_poses(ts, list(poses))
        assert np.array_equal(back.t, traj.t) and np.array_equal(back.q, traj.q)
        with pytest.raises(ValueError):
            poses[0].t[0] = 1.0

    def test_empty_and_single(self):
        assert len(Trajectory.from_poses([], [])) == 0
        one = Trajectory.from_poses([2.0], [Pose(np.ones(3), -quat.IDENTITY)])
        assert np.array_equal(one.q, [quat.IDENTITY])


class TestVoChainType:
    def test_from_relative_round_trip(self, rng):
        rels = [RelativePose(rng.normal(size=3), 0.3 * rng.normal(size=3)) for _ in range(7)]
        vo = VoChain.from_relative(np.arange(1.0, 8.0), rels)
        assert len(vo) == 7
        assert np.array_equal(vo.t, [r.t for r in rels]) and np.array_equal(vo.w, [r.w for r in rels])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["timestamps", "t", "w"])
    def test_rejects_non_finite(self, rng, field, bad):
        arrays = {"timestamps": np.arange(4.0), "t": rng.normal(size=(4, 3)),
                  "w": 0.1 * rng.normal(size=(4, 3))}
        arrays[field].reshape(4, -1)[2, 0] = bad  # a view of the array
        with pytest.raises(ValueError, match="non-finite"):
            VoChain(**arrays)

    def test_rejects_long_log_order_and_shapes(self):
        ts, t, w = np.arange(3.0), np.zeros((3, 3)), np.zeros((3, 3))
        long_w = w.copy()
        long_w[1, 0] = 4.0
        for args in ((ts, t, long_w), (ts[::-1], t, w), (ts, t[:2], w)):
            with pytest.raises(ValueError):
                VoChain(*args)


class TestRelativePose:
    def test_identity_case(self, rng):
        p = random_pose(rng)
        rel = relative_pose(p, p)
        assert np.allclose(rel.t, 0, atol=1e-12)
        assert np.allclose(rel.w, 0, atol=1e-12)

    def test_observer_identity(self, rng):
        p = random_pose(rng)
        rel = relative_pose(p, Pose.identity())
        assert np.allclose(rel.t, p.t)
        assert np.allclose(rel.w, quat.qlog(p.q))

    def test_compose_roundtrip(self, rng):
        for _ in range(100):
            p_i, p_j = random_pose(rng), random_pose(rng)
            back = compose(p_j, relative_pose(p_i, p_j))
            assert np.max(np.abs(back.t - p_i.t)) < 1e-10
            assert rotation_error_deg(back.q, p_i.q) < 1e-10


class TestPoseDistance:
    def test_equal_poses_leave_constants(self, rng):
        cfg = LossConfig(beta=0.0, gamma=-3.0)
        for _ in range(20):
            p = random_pose(rng)
            assert pose_distance(p, p, cfg) == -3.0

    def test_unit_translation_offset(self):
        cfg = LossConfig(beta=0.0, gamma=-3.0)
        p = Pose.identity()
        p2 = Pose(np.array([1.0, 0, 0]), quat.IDENTITY)
        assert pose_distance(p2, p, cfg) == pytest.approx(-2.0, abs=1e-14)

    def test_matches_direct_formula(self, rng):
        for _ in range(50):
            a, b = random_pose(rng), random_pose(rng)
            beta, gamma = rng.normal(), rng.normal()
            cfg = LossConfig(beta=beta, gamma=gamma)
            expected = (np.sum(np.abs(a.t - b.t)) * np.exp(-beta) + beta
                        + np.sum(np.abs(quat.qlog(a.q) - quat.qlog(b.q))) * np.exp(-gamma)
                        + gamma)
            assert pose_distance(a, b, cfg) == pytest.approx(expected, abs=1e-12)

    def test_mixed_kinds_rejected(self, rng):
        with pytest.raises(ValueError):
            pose_distance(random_pose(rng), RelativePose.identity(), LossConfig())


class TestMapnetLoss:
    def test_zero_residual_pair_count(self, rng):
        # 21 frames, tuples of 3 spaced 10 apart: a single tuple with 2 pairs
        poses = [random_pose(rng) for _ in range(21)]
        cfg = LossConfig(beta=0.0, gamma=-3.0, alpha=1.0, s=3, k=10)
        n_pairs = len(sample_pairs(21, 3, 10))
        assert n_pairs == 2
        assert mapnet_loss(poses, poses, cfg) == pytest.approx((21 + n_pairs) * -3.0)

    def test_alpha_zero_reduces_to_absolute(self, rng):
        pred = [random_pose(rng) for _ in range(21)]
        gt = [random_pose(rng) for _ in range(21)]
        cfg0 = LossConfig(alpha=0.0, s=3, k=10)
        expected = sum(pose_distance(p, g, cfg0) for p, g in zip(pred, gt))
        assert mapnet_loss(pred, gt, cfg0) == pytest.approx(expected, abs=1e-12)

    def test_brute_force_enumeration(self, rng):
        # independent oracle: enumerate tuples/pairs by hand for N=5, s=2, k=1
        pred = [random_pose(rng) for _ in range(5)]
        gt = [random_pose(rng) for _ in range(5)]
        cfg = LossConfig(beta=0.1, gamma=-1.0, alpha=0.7, s=2, k=1)
        expected = sum(pose_distance(p, g, cfg) for p, g in zip(pred, gt))
        for i in range(4):  # tuples (i, i+1), one pair each
            v = relative_pose_delta(pred[i], pred[i + 1])
            v_star = relative_pose_delta(gt[i], gt[i + 1])
            expected += 0.7 * pose_distance(v, v_star, cfg)
        assert mapnet_loss(pred, gt, cfg) == pytest.approx(expected, abs=1e-12)

    def test_hemisphere_invariance_exact(self, rng):
        pred = [random_pose(rng) for _ in range(6)]
        gt = [random_pose(rng) for _ in range(6)]
        cfg = LossConfig(s=2, k=1)
        flipped = [Pose(p.t, -p.q) for p in pred]
        assert mapnet_loss(pred, gt, cfg) == mapnet_loss(flipped, gt, cfg)

    def test_too_short_rejected(self, rng):
        poses = [random_pose(rng) for _ in range(5)]
        with pytest.raises(ValueError):
            mapnet_loss(poses, poses, LossConfig(s=3, k=10))
        with pytest.raises(ValueError):
            mapnet_loss(poses, poses[:-1], LossConfig(s=2, k=1))


class TestRotationError:
    def test_zero_for_equal(self, rng):
        q = random_unit_quat(rng)
        assert rotation_error_deg(q, q) == 0.0

    def test_zero_for_negated(self, rng):
        q = random_unit_quat(rng)
        assert rotation_error_deg(q, -q) == 0.0

    def test_quarter_turn(self, rng):
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        q = quat.qexp(axis * np.pi / 4)
        assert rotation_error_deg(q, quat.IDENTITY) == pytest.approx(90.0, abs=1e-9)

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(100):
            a, b, c = (random_unit_quat(rng) for _ in range(3))
            assert rotation_error_deg(a, b) == pytest.approx(
                rotation_error_deg(b, a), abs=1e-9)
            assert (rotation_error_deg(a, c)
                    <= rotation_error_deg(a, b) + rotation_error_deg(b, c) + 1e-9)
