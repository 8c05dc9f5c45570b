"""The array code against per-pose reference loops.

The references are the per-pose loops the array code replaced: the
`advance` chain of VO integration, the relative_pose + compose carry of
off-grid frames, the per-window median filter, the step-by-step
random-walk positions and the per-line error report with its list-built
CDF. They run one row at a time on the same array functions,
canonicalizing as the per-pose code did, and the array code keeps their
arithmetic, so every comparison here is exact.
"""

import numpy as np
import pytest

from posefusion import pgo, quat
from posefusion.metrics import compare, parse_report, render_report
from posefusion.pgo import PgoConfig, fuse_trajectory, temporal_median_filter
from posefusion.pose import (BLOCK_ROWS, Trajectory, compose, integrate, relative_pose,
                             rotation_error_deg)
from posefusion.sim import NoiseModel, corrupt_absolute, corrupt_vo, generate_trajectory


def advance(t_i, q_i, rel_t, rel_q):
    """The observer pose (t_j, q_j) from pose i and a VO row (rel_t, rel_q),
    relative_pose(i, j)."""
    q_j = quat.qmul(q_i, quat.qinv(rel_q))
    t_j = t_i - quat.qrotate(quat.qinv(q_j), rel_t)
    return t_j, quat.canonicalize(q_j)


def integrate_reference(t0, q0, vo):
    out = [(t0, quat.canonicalize(q0))]
    for rel_t, rel_q in zip(vo.t, vo.q):
        out.append(advance(*out[-1], rel_t, rel_q))
    return out


def carry_reference(fused: Trajectory, vo_poses, k: int):
    """Every off-grid frame composed from its nearest grid frame of fused
    (ties lower); grid frames are fused's own."""
    n = len(fused)
    grid = list(range(0, n, k))
    out = []
    for f in range(n):
        g = min(grid, key=lambda frame: abs(frame - f))
        if f == g:
            out.append((fused.t[g], fused.q[g]))
            continue
        rel = relative_pose(*vo_poses[f], *vo_poses[g])
        t, q = compose(fused.t[g], fused.q[g], *rel)
        out.append((t, quat.canonicalize(q)))
    return out


def median_reference(traj: Trajectory, window: int):
    """Each window's median on its own. Its angles are pgo._pairwise_angles'
    over the window's frames, which test_pgo.py referees against
    rotation_error_deg; this loop referees the windows, sums and ties."""
    half = window // 2
    n = len(traj)
    out = []
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        t_med = np.median(traj.t[lo:hi], axis=0)
        block = traj.q[lo:hi]
        cost = np.sum(pgo._pairwise_angles(block), axis=1)
        out.append((t_med, block[int(np.argmin(cost))]))
    return out


def random_walk_reference(n, step, seed):
    """The random-walk positions, advanced one step at a time."""
    rng = np.random.default_rng(seed)
    turns = rng.normal(0.0, 0.15, size=n - 1)
    yaw = np.concatenate([[0.0], np.cumsum(turns)])
    positions = np.zeros((n, 3))
    for i in range(1, n):
        positions[i] = positions[i - 1] + step * np.array(
            [np.cos(yaw[i - 1]), np.sin(yaw[i - 1]), 0.0])
    return positions


def cdf_reference(t_err):
    """The CDF rows as a list: every sorted error, and its rank over n."""
    n = len(t_err)
    srt = np.sort(t_err)
    return [(float(srt[i]), (i + 1) / n) for i in range(n)]


def render_reference(report, per_frame, cdf):
    """The report document, one f-string line at a time."""
    lines = [
        "# trajectory error report",
        f"median_t_m {report.median_t:.17g}",
        f"median_r_deg {report.median_r:.17g}",
        f"mean_t_m {report.mean_t:.17g}",
        f"mean_r_deg {report.mean_r:.17g}",
        f"frames {len(per_frame)}",
    ]
    for idx, (te, re_) in enumerate(per_frame):
        lines.append(f"frame {idx} {te:.17g} {re_:.17g}")
    for thr, frac in cdf:
        lines.append(f"cdf_t {thr:.17g} {frac:.17g}")
    return "\n".join(lines) + "\n"


def _noisy_loop(n, seed, abs_r_sigma=5.0):
    # A closed loop turns through every heading, so yaw crosses 180 degrees
    # and the canonical quaternion's scalar part passes through zero.
    # A loop needs n >= 3 frames; below that, the first n of a 3-frame loop.
    gt = generate_trajectory("loop", max(n, 3), 0.1)
    gt = Trajectory(gt.timestamps[:n], gt.t[:n], gt.q[:n])
    nm = NoiseModel(abs_t_sigma=0.5, abs_r_sigma=abs_r_sigma, vo_t_sigma=0.01,
                    vo_r_sigma=0.1, vo_t_bias=0.01, seed=seed)
    return gt, corrupt_absolute(gt, nm), corrupt_vo(gt, nm)


def _assert_rows_equal(traj_t, traj_q, poses):
    for got, ref in ((traj_t, [t for t, _ in poses]), (traj_q, [q for _, q in poses])):
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


@pytest.mark.parametrize("n, seed", [(2, 0), (40, 1), (701, 2), (1500, 3)])
def test_integrate_matches_advance_chain(n, seed):
    gt, abs_traj, vo = _noisy_loop(n, seed)
    t, q = integrate(abs_traj.t[0], abs_traj.q[0], vo)
    _assert_rows_equal(t, q, integrate_reference(abs_traj.t[0], abs_traj.q[0], vo))
    if n > 2:  # the heading wraps from +180 to -180 degrees
        yaw = 2 * np.arctan2(gt.q[:, 3], gt.q[:, 0])
        assert np.abs(np.diff(yaw)).max() > np.pi


@pytest.mark.parametrize("m", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                               2 * BLOCK_ROWS + 1])
def test_integrate_random_steps_match_advance_chain(m):
    # steps of up to 100 degrees cross the hemisphere boundary often, and
    # the start has a negative scalar part
    rng = np.random.default_rng(m)
    vo = Trajectory(np.arange(1.0, m + 1), rng.normal(size=(m, 3)),
                    quat.qexp(rng.uniform(-0.5, 0.5, size=(m, 3))))
    t0, q0 = rng.normal(size=3), -quat.canonicalize(quat.qexp(rng.normal(size=3)))
    assert q0[0] < 0.0
    t, q = integrate(t0, q0, vo)
    _assert_rows_equal(t, q, integrate_reference(t0, q0, vo))


@pytest.mark.parametrize("n, k, T", [
    (200, 7, 5),    # frames 197-199 lie past the last grid frame
    (201, 10, 7),   # the last frame is a grid frame
    (300, 4, 7),    # even k: frames halfway between grid frames go to the lower one
    (9, 150, 7),    # shorter than k: one window over frames 0 and n - 1
    (2, 1, 2),
    (2 * BLOCK_ROWS + 101, 150, 7),  # three blocks of the carry
    # the nearest grid frame where (n - 1) % k is 0, k - 1 or in between,
    # halfway at even k, with two grid frames, and with fewer grid frames than T
    (100, 10, 7), (101, 10, 7), (96, 4, 7), (95, 7, 5), (13, 12, 7), (7, 2, 7),
])
def test_off_grid_carry_matches_relative_pose_compose(n, k, T):
    _assert_carry_matches_reference(n, k, T)


@pytest.mark.parametrize("n, k, T", [(300, 7, 5), (301, 10, 7)])
def test_off_grid_carry_across_blocks_matches_relative_pose_compose(monkeypatch, n, k, T):
    # k does not divide the 64-row blocks, so frames near a block's edges
    # carry from grid frames of the blocks before and after it
    monkeypatch.setattr(pgo, "BLOCK_ROWS", 64)
    _assert_carry_matches_reference(n, k, T)


def _assert_carry_matches_reference(n, k, T):
    _, abs_traj, vo = _noisy_loop(n, seed=n)
    fused = fuse_trajectory(abs_traj, vo, PgoConfig(window_T=T, spacing_k=k))
    vo_poses = integrate_reference(abs_traj.t[0], abs_traj.q[0], vo)
    _assert_rows_equal(fused.t, fused.q, carry_reference(fused, vo_poses, min(k, n - 1)))


@pytest.mark.parametrize("n, window", [
    (1, 51), (2, 3), (20, 51),  # n smaller than the window: only truncated windows
    (30, 51),                   # truncated windows from both ends overlap
    (51, 51),                   # n equal to the window: one full window
    (52, 51), (300, 51),        # full windows in several chunks
    (700, 5), (64 + 10, 11),
    (40, 101), (300, 1001),     # n <= half: every window holds all n frames
    (30, 100001),               # half far above n: windows clamped to the trajectory
    (400, 601),                 # half < n: nested windows of distinct sizes at both ends
    (1000, 129), (200, 65),     # full windows wider than MEDIAN_CHUNK
    (1000, 301),                # rotation chunks of half // 2 + 1 > MEDIAN_CHUNK rows
])
def test_median_filter_matches_per_window_loop(n, window):
    _, traj, _ = _noisy_loop(n, seed=window, abs_r_sigma=60.0)
    out = temporal_median_filter(traj, window)
    _assert_rows_equal(out.t, out.q, median_reference(traj, window))
    assert np.array_equal(out.timestamps, traj.timestamps)


@pytest.mark.parametrize("n, window", [(60, 11), (60, 5), (60, 33), (23, 11), (11, 11), (8, 11)])
def test_median_filter_across_chunks_matches_per_window_loop(monkeypatch, n, window):
    # chunks of 7 windows (of max(7, half // 2 + 1) for rotations, 9 at
    # window 33): several full chunks and a partial one, on rotations drawn
    # from all headings
    monkeypatch.setattr(pgo, "MEDIAN_CHUNK", 7)
    rng = np.random.default_rng(n + window)
    traj = Trajectory(np.arange(float(n)), rng.normal(size=(n, 3)),
                      quat.qexp(rng.normal(size=(n, 3))))
    out = temporal_median_filter(traj, window)
    _assert_rows_equal(out.t, out.q, median_reference(traj, window))


@pytest.mark.parametrize("n, window", [(10, 7), (12, 5)])
def test_median_filter_ties_go_to_the_earliest_frame(n, window):
    # Four half-turn quaternions, cycled: every pair of distinct frames is
    # exactly 90 degrees apart, so a window holding each rotation equally
    # often ties exactly, in any summation order, and the first frame wins.
    q = np.eye(4)[np.arange(n) % 4]
    traj = Trajectory(np.arange(float(n)), np.zeros((n, 3)), q)
    out = temporal_median_filter(traj, window)
    _assert_rows_equal(out.t, out.q, median_reference(traj, window))
    assert np.array_equal(out.q[0], q[0]) and np.array_equal(out.q[-1], q[n - window // 2 - 1])


@pytest.mark.parametrize("n", [2, 3, 1000, 16000])
@pytest.mark.parametrize("seed", range(5))
def test_random_walk_matches_step_loop(n, seed):
    traj = generate_trajectory("random-walk", n, 0.1, seed=seed)
    assert np.array_equal(traj.t, random_walk_reference(n, 0.1, seed))


@pytest.mark.parametrize("n", [1, 2, 25, 16000])
def test_report_matches_per_line_rendering(n):
    rng = np.random.default_rng(n)
    gt = generate_trajectory("loop", max(n, 3), 0.1)
    gt = Trajectory(gt.timestamps[:n], gt.t[:n], gt.q[:n])
    # offsets on a 0.1 m grid, so many frames tie on their translation error
    est = Trajectory(gt.timestamps, gt.t + np.round(rng.normal(0.0, 0.2, (n, 3)), 1),
                     corrupt_absolute(gt, NoiseModel(abs_r_sigma=5.0, seed=n)).q)
    t_err = np.array([quat.row_norm(a - b) for a, b in zip(est.t, gt.t)])
    per_frame = [(float(te), float(rotation_error_deg(a, b)))
                 for te, a, b in zip(t_err, est.q, gt.q)]
    rep = compare(est, gt)
    cdf = cdf_reference(t_err)
    assert rep.per_frame.shape == (n, 2) and rep.cdf.shape == (len(cdf), 2)
    assert np.array_equal(rep.per_frame, per_frame) and np.array_equal(rep.cdf, cdf)
    text = render_report(rep)
    assert text == render_reference(rep, per_frame, cdf)
    back = parse_report(text)
    assert (back.median_t, back.median_r, back.mean_t, back.mean_r) == (
        rep.median_t, rep.median_r, rep.mean_t, rep.mean_r)
    assert back.per_frame.dtype == back.cdf.dtype == np.float64
    assert np.array_equal(back.per_frame, rep.per_frame)
    assert np.array_equal(back.cdf, rep.cdf)
