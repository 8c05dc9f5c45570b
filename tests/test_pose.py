import numpy as np
import pytest

from posefusion import quat
from posefusion.pose import (
    BLOCK_ROWS,
    LossConfig,
    Trajectory,
    VoChain,
    compose,
    integrate,
    mapnet_loss,
    pose_distance,
    relative_pose,
    rotation_error_deg,
    sample_pairs,
)

from conftest import random_pose, random_poses, random_unit_quat


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

    def test_empty_and_single(self):
        assert len(Trajectory(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 4)))) == 0
        one = Trajectory([2.0], np.ones((1, 3)), -quat.IDENTITY[None])
        assert np.array_equal(one.q, [quat.IDENTITY])


class TestVoChainType:
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

    def test_keeps_read_only_copies(self, rng):
        ts, t, w = np.arange(4.0), rng.normal(size=(4, 3)), 0.1 * rng.normal(size=(4, 3))
        vo = VoChain(ts, t, w)
        ts[0], t[0, 0], w[0, 0] = -1.0, 99.0, 0.5  # the chain keeps its own copies
        assert vo.timestamps[0] == 0.0 and vo.t[0, 0] != 99.0 and vo.w[0, 0] != 0.5
        for a in (vo.timestamps, vo.t, vo.w):
            with pytest.raises(ValueError):
                a[0] = 0.0


def _integrate_one_list(t0, q0, vo):
    """integrate with its rotation chain in one list over all rows,
    canonicalized at the end, and its translations in one accumulate."""
    u, x, y, z = np.asarray(q0, dtype=float).tolist()
    rows = [(u, x, y, z)]
    for bu, bx, by, bz in quat.qinv(quat.qexp(vo.w)).tolist():
        u, x, y, z = (u * bu - x * bx - y * by - z * bz,
                      u * bx + bu * x + y * bz - z * by,
                      u * by + bu * y + z * bx - x * bz,
                      u * bz + bu * z + x * by - y * bx)
        rows.append((u, x, y, z))
    q = quat.canonicalize(np.array(rows))
    steps = quat.qrotate(quat.qinv(q[1:]), vo.t)
    t = np.subtract.accumulate(np.concatenate((np.asarray(t0, dtype=float)[None], steps)), axis=0)
    return t, q


class TestIntegrate:
    @pytest.mark.parametrize("m", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1])
    def test_blocks_match_one_list_chain(self, rng, m):
        # steps of up to 100 degrees cross the hemisphere boundary often, and
        # the start has a negative scalar part
        vo = VoChain(np.arange(1.0, m + 1), rng.normal(size=(m, 3)),
                     rng.uniform(-0.5, 0.5, size=(m, 3)))
        t0, q0 = rng.normal(size=3), -quat.canonicalize(random_unit_quat(rng))
        t, q = integrate(t0, q0, vo)
        ref_t, ref_q = _integrate_one_list(t0, q0, vo)
        for got, ref in ((t, ref_t), (q, ref_q)):
            assert got.shape == ref.shape
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


class TestRelativePose:
    def test_identity_case(self, rng):
        t, q = random_pose(rng)
        rel_t, rel_w = relative_pose(t, q, t, q)
        assert np.allclose(rel_t, 0, atol=1e-12)
        assert np.allclose(rel_w, 0, atol=1e-12)

    def test_observer_identity(self, rng):
        t, q = random_pose(rng)
        rel_t, rel_w = relative_pose(t, q, np.zeros(3), quat.IDENTITY)
        assert np.allclose(rel_t, t)
        assert np.allclose(rel_w, quat.qlog(q))

    def test_compose_roundtrip(self, rng):
        for _ in range(100):
            (t_i, q_i), (t_j, q_j) = random_pose(rng), random_pose(rng)
            back_t, back_q = compose(t_j, q_j, *relative_pose(t_i, q_i, t_j, q_j))
            assert np.max(np.abs(back_t - t_i)) < 1e-10
            assert rotation_error_deg(back_q, q_i) < 1e-10


class TestPoseDistance:
    def test_equal_poses_leave_constants(self, rng):
        cfg = LossConfig(beta=0.0, gamma=-3.0)
        for _ in range(20):
            t, q = random_pose(rng)
            assert pose_distance(t, q, t, q, cfg) == -3.0
        t, q = random_poses(rng, 20)
        assert np.all(pose_distance(t, q, t, q, cfg) == -3.0)

    def test_unit_translation_offset(self):
        cfg = LossConfig(beta=0.0, gamma=-3.0)
        d = pose_distance(np.array([1.0, 0, 0]), quat.IDENTITY, np.zeros(3), quat.IDENTITY, cfg)
        assert d == pytest.approx(-2.0, abs=1e-14)

    def test_matches_direct_formula(self, rng):
        for _ in range(50):
            (a_t, a_q), (b_t, b_q) = random_pose(rng), random_pose(rng)
            beta, gamma = rng.normal(), rng.normal()
            cfg = LossConfig(beta=beta, gamma=gamma)
            expected = (np.sum(np.abs(a_t - b_t)) * np.exp(-beta) + beta
                        + np.sum(np.abs(quat.qlog(a_q) - quat.qlog(b_q))) * np.exp(-gamma)
                        + gamma)
            assert pose_distance(a_t, a_q, b_t, b_q, cfg) == pytest.approx(expected, abs=1e-12)

    def test_rows_match_single_poses(self, rng):
        (a_t, a_q), (b_t, b_q) = random_poses(rng, 30), random_poses(rng, 30)
        cfg = LossConfig(beta=0.3, gamma=-1.0)
        rows = pose_distance(a_t, a_q, b_t, b_q, cfg)
        assert rows.shape == (30,)
        assert np.array_equal(rows, [pose_distance(*p, cfg) for p in zip(a_t, a_q, b_t, b_q)])


def _subtraction_form(t, q, i, j):
    """The relative pose of rows i and j in subtraction form: (t_i - t_j, w_i - w_j)."""
    return t[i] - t[j], quat.qlog(q[i]) - quat.qlog(q[j])


class TestMapnetLoss:
    def test_zero_residual_pair_count(self, rng):
        # 21 frames, tuples of 3 spaced 10 apart: a single tuple with 2 pairs
        t, q = random_poses(rng, 21)
        cfg = LossConfig(beta=0.0, gamma=-3.0, alpha=1.0, s=3, k=10)
        n_pairs = len(sample_pairs(21, 3, 10))
        assert n_pairs == 2
        assert mapnet_loss(t, q, t, q, cfg) == pytest.approx((21 + n_pairs) * -3.0)

    def test_alpha_zero_reduces_to_absolute(self, rng):
        pred, gt = random_poses(rng, 21), random_poses(rng, 21)
        cfg0 = LossConfig(alpha=0.0, s=3, k=10)
        expected = sum(pose_distance(*p, cfg0) for p in zip(*pred, *gt))
        assert mapnet_loss(*pred, *gt, cfg0) == pytest.approx(expected, abs=1e-12)

    def test_brute_force_enumeration(self, rng):
        # independent oracle: enumerate tuples/pairs by hand for N=5, s=2, k=1
        pred, gt = random_poses(rng, 5), random_poses(rng, 5)
        cfg = LossConfig(beta=0.1, gamma=-1.0, alpha=0.7, s=2, k=1)
        expected = sum(pose_distance(*p, cfg) for p in zip(*pred, *gt))
        for i in range(4):  # tuples (i, i+1), one pair each
            v_t, v_w = _subtraction_form(*pred, i, i + 1)
            v_star_t, v_star_w = _subtraction_form(*gt, i, i + 1)
            expected += 0.7 * (np.sum(np.abs(v_t - v_star_t)) * np.exp(-cfg.beta) + cfg.beta
                               + np.sum(np.abs(v_w - v_star_w)) * np.exp(-cfg.gamma) + cfg.gamma)
        assert mapnet_loss(*pred, *gt, cfg) == pytest.approx(expected, abs=1e-12)

    def test_hemisphere_invariance_exact(self, rng):
        (pred_t, pred_q), gt = random_poses(rng, 6), random_poses(rng, 6)
        cfg = LossConfig(s=2, k=1)
        assert mapnet_loss(pred_t, pred_q, *gt, cfg) == mapnet_loss(pred_t, -pred_q, *gt, cfg)

    def test_too_short_rejected(self, rng):
        t, q = random_poses(rng, 5)
        with pytest.raises(ValueError):
            mapnet_loss(t, q, t, q, LossConfig(s=3, k=10))
        with pytest.raises(ValueError):
            mapnet_loss(t, q, t[:-1], q[:-1], LossConfig(s=2, k=1))


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
