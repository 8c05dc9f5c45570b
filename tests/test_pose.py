import numpy as np
import pytest

from posefusion import quat
from posefusion.pose import (
    Trajectory,
    compose,
    not_increasing,
    relative_pose,
    rotation_error_deg,
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
        # a non-finite q fails the unit-norm check
        with pytest.raises(ValueError, match="non-finite" if field != "q" else "quaternion norm"):
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
        # the trajectory keeps its own copies
        ts[0], t[0, 0], q[0] = -1.0, 99.0, [0.0, 1.0, 0.0, 0.0]
        assert traj.timestamps[0] == 0.0 and traj.t[0, 0] != 99.0 and traj.q[0, 1] != 1.0
        for a in (traj.timestamps, traj.t, traj.q):
            with pytest.raises(ValueError):
                a[0] = 0.0

    def test_empty_and_single(self):
        assert len(Trajectory(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 4)))) == 0
        one = Trajectory([2.0], np.ones((1, 3)), -quat.IDENTITY[None])
        assert np.array_equal(one.q, [quat.IDENTITY])


@pytest.mark.parametrize("timestamps, mask", [
    ([], []),
    ([1.0], [False]),
    ([0.0, 1.0, 2.5], [False, False, False]),
    ([0.0, 1.0, 1.0, 2.0], [False, False, True, False]),  # a repeat marks the second row
    ([0.0, 2.0, 1.0, 3.0], [False, False, True, False]),  # a step back marks its row only
    ([3.0, 2.0, 1.0], [False, True, True]),
])
def test_not_increasing_marks_each_offending_row(rng, timestamps, mask):
    ts = np.array(timestamps, dtype=float)
    assert np.array_equal(not_increasing(ts), np.array(mask, dtype=bool))
    _, t, q = _arrays(rng, len(ts))
    if any(mask):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(ts, t, q)
    else:
        assert np.array_equal(Trajectory(ts, t, q).timestamps, ts)


class TestRelativePose:
    def test_identity_case(self, rng):
        t, q = random_pose(rng)
        rel_t, rel_q = relative_pose(t, q, t, q)
        assert np.allclose(rel_t, 0, atol=1e-12)
        assert np.allclose(rel_q, quat.IDENTITY, atol=1e-12)

    def test_observer_identity(self, rng):
        t, q = random_pose(rng)
        rel_t, rel_q = relative_pose(t, q, np.zeros(3), quat.IDENTITY)
        assert np.allclose(rel_t, t)
        assert np.allclose(rel_q, q)

    def test_compose_roundtrip(self, rng):
        for _ in range(100):
            (t_i, q_i), (t_j, q_j) = random_pose(rng), random_pose(rng)
            back_t, back_q = compose(t_j, q_j, *relative_pose(t_i, q_i, t_j, q_j))
            assert np.max(np.abs(back_t - t_i)) < 1e-10
            assert rotation_error_deg(back_q, q_i) < 1e-10

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 15")
    def test_group_chain_rule(self, rng):
        # compose(rel(j, k), rel(i, j)) == rel(i, k), for random 3-D poses
        # i, j, k with half-angles up to 1.5 rad
        def poses(n):
            axis = rng.normal(size=(n, 3))
            axis /= np.linalg.norm(axis, axis=1, keepdims=True)
            return rng.normal(size=(n, 3)), quat.qexp(axis * rng.uniform(0.0, 1.5, (n, 1)))

        (t_i, q_i), (t_j, q_j), (t_k, q_k) = poses(2000), poses(2000), poses(2000)
        chain_t, chain_q = compose(*relative_pose(t_j, q_j, t_k, q_k),
                                   *relative_pose(t_i, q_i, t_j, q_j))
        direct_t, direct_q = relative_pose(t_i, q_i, t_k, q_k)
        assert np.max(np.abs(quat.canonicalize(chain_q) - quat.canonicalize(direct_q))) <= 1e-12
        assert np.max(np.abs(chain_t - direct_t)) <= 1e-12

    def test_batch_axes_match_single_rows(self, rng):
        (t_i, q_i), (t_j, q_j) = (random_poses(rng, 12) for _ in range(2))
        rel_t, rel_q = relative_pose(*(a.reshape(3, 4, -1) for a in (t_i, q_i, t_j, q_j)))
        back_t, back_q = compose(t_j.reshape(3, 4, 3), q_j.reshape(3, 4, 4), rel_t, rel_q)
        assert rel_t.shape == back_t.shape == (3, 4, 3)
        assert rel_q.shape == back_q.shape == (3, 4, 4)
        for r, row in enumerate(zip(t_i, q_i, t_j, q_j)):
            one_t, one_q = relative_pose(*row)
            assert np.array_equal(rel_t[r // 4, r % 4], one_t)
            assert np.array_equal(rel_q[r // 4, r % 4], one_q)
            one_back = compose(t_j[r], q_j[r], one_t, one_q)
            assert np.array_equal(back_t[r // 4, r % 4], one_back[0])
            assert np.array_equal(back_q[r // 4, r % 4], one_back[1])


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

    @pytest.mark.parametrize("deg", [1e-8, 1e-4, 0.5, 90.0, 179.5])
    def test_angle_about_a_random_axis(self, rng, deg):
        # 2 * acos(|u|) reads 0 below about 1e-6 degrees; the atan2 form does not
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        q = quat.qexp(axis * np.radians(deg) / 2)
        assert rotation_error_deg(quat.IDENTITY, q) == pytest.approx(deg, rel=1e-9)

    def test_rows_and_one_pair(self, rng):
        (_, a), (_, b) = random_poses(rng, 20), random_poses(rng, 20)
        rows = rotation_error_deg(a, b)
        assert rows.shape == (20,)
        for row, qa, qb in zip(rows, a, b):
            one = rotation_error_deg(qa, qb)
            assert isinstance(one, float) and one == row

    def test_symmetry_and_triangle_inequality(self, rng):
        for _ in range(100):
            a, b, c = (random_unit_quat(rng) for _ in range(3))
            assert rotation_error_deg(a, b) == pytest.approx(
                rotation_error_deg(b, a), abs=1e-9)
            assert (rotation_error_deg(a, c)
                    <= rotation_error_deg(a, b) + rotation_error_deg(b, c) + 1e-9)
