"""End-to-end acceptance checks for the fusion toolkit.

One test per headline guarantee; each prints a single pass line so the
suite doubles as a checklist when run with ``pytest -s tests/test_acceptance.py``.
"""

import time

import numpy as np
import pytest
import scipy.optimize

from posefusion import pgo, quat, trajio
from posefusion.pose import Trajectory, integrate, rotation_error_deg
from posefusion.pgo import (
    ConstraintKind,
    FusionStats,
    PgoConfig,
    fuse_trajectory,
    gauss_newton_solve,
    temporal_median_filter,
)
from posefusion.sim import NoiseModel, corrupt_absolute, corrupt_vo, generate_trajectory

from conftest import (chain_vo, fd_jacobian, linearize, near_sign_flip, objective,
                      random_unit_quat, safe_random_poses, single_block, stack_poses,
                      window_graph)


def _passed(name):
    print(f"PASS {name}")


def _mean_t_error(t, gt_t):
    return float(np.mean(np.linalg.norm(t - gt_t, axis=1)))


def test_quaternion_round_trips():
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        q = random_unit_quat(rng, positive_scalar=True)
        worst = max(worst, float(np.max(np.abs(quat.qexp(quat.qlog(q)) - q))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-12
    assert elapsed < 1.0
    _passed(f"quaternion round trips: max error {worst:.2e} in {elapsed:.2f} s")


def test_jacobian_finite_difference_oracle():
    start = time.perf_counter()
    worst = 0.0
    for kind in ConstraintKind:
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 200:
            t, q = safe_random_poses(rng, 2)
            # translation and rotation rows, weighted 1 and 2
            b = single_block(kind, rng.normal(size=3), random_unit_quat(rng, positive_scalar=True),
                             1.0, 2.0)
            t, q = t[None], q[None]
            # off the sign rule's flip boundary <f, obs> = 0, by far more than h
            if near_sign_flip(b, q):
                continue
            _, jac = linearize([b], t, q)
            fd = fd_jacobian([b], t, q)
            scale = max(1.0, float(np.max(np.abs(fd))))
            worst = max(worst, float(np.max(np.abs(jac[0] - fd))) / scale)
            checked += 1
    elapsed = time.perf_counter() - start
    assert worst < 1e-5
    assert elapsed < 5.0
    _passed(f"constraint Jacobians vs finite differences: worst rel error "
            f"{worst:.2e} over 2x200 instances in {elapsed:.2f} s")


def test_solver_matches_derivative_free_minimizer():
    rng = np.random.default_rng(21)
    gt_t, gt_q = safe_random_poses(rng, 3)
    blocks = window_graph(gt_t, gt_q, *chain_vo(gt_t, gt_q))
    t0, q0 = stack_poses([(t + 0.2 * rng.normal(size=3),
                           quat.qmul(q, quat.qexp(0.2 * rng.normal(size=3))))
                          for t, q in zip(gt_t, gt_q)])
    t0, q0 = t0[None], quat.canonicalize(q0)[None]
    t, q, *_ = gauss_newton_solve(blocks, t0, q0)

    def energy(x):
        z = x.reshape(1, 3, 6)
        return objective(blocks, z[..., :3], quat.qexp(z[..., 3:]))

    x0 = np.concatenate([t0, quat.qlog(q0)], axis=-1).ravel()
    res = scipy.optimize.minimize(energy, x0, method="Powell",
                                  options={"maxiter": 100000, "maxfev": 400000,
                                           "xtol": 1e-12, "ftol": 1e-14})
    gap = abs(objective(blocks, t, q) - res.fun)
    assert gap < 1e-6
    _passed(f"solver vs derivative-free minimizer: objective gap {gap:.2e}")


def test_solver_pure_translation_closed_form(monkeypatch):
    # identity rotations and zero relative-translation observations make
    # the translation block an exactly linear weighted least-squares problem
    monkeypatch.setattr(pgo, "STEP_TOL", 1e-14)
    rng = np.random.default_rng(22)
    n = 3
    abs_obs = [rng.normal(size=3) for _ in range(n)]
    monkeypatch.setattr(PgoConfig, "max_iters", 100)
    identities = np.tile(quat.IDENTITY, (n, 1))
    blocks = window_graph(np.array(abs_obs), identities, np.zeros((n - 1, 3)), identities[1:])
    t0 = np.array([abs_obs[i] + 0.2 * rng.normal(size=3) for i in range(n)])
    t, q, *_ = gauss_newton_solve(blocks, t0[None], identities[None])

    rows_a, rows_b = [], []
    for i in range(n):
        sel = np.zeros((3, 3 * n))
        sel[:, 3 * i:3 * i + 3] = np.eye(3)
        rows_a.append(sel)
        rows_b.append(abs_obs[i])
    for i in range(n - 1):
        sel = np.zeros((3, 3 * n))
        sel[:, 3 * i:3 * i + 3] = np.eye(3)
        sel[:, 3 * (i + 1):3 * (i + 1) + 3] = -np.eye(3)
        rows_a.append(sel)
        rows_b.append(np.zeros(3))
    a = np.vstack(rows_a)
    b = np.concatenate(rows_b)
    expected = np.linalg.solve(a.T @ a, a.T @ b)
    err = float(np.max(np.abs(t.ravel() - expected)))
    assert err < 1e-9
    # the rotations stay at the identity they start and are observed at
    assert np.max(rotation_error_deg(q[0], quat.IDENTITY)) < 1e-9
    _passed(f"pure-translation solve vs normal equations: max error {err:.2e}")


@pytest.mark.parametrize("n, window_T, spacing_k", [(300, 7, 10), (200, 5, 7)],
                         ids=["n300-T7-k10", "n200-T5-k7"])
def test_zero_noise_fuse_is_fixed_point(n, window_T, spacing_k):
    gt = generate_trajectory("loop", n, 0.1)
    nm = NoiseModel(seed=0)
    abs_traj = corrupt_absolute(gt, nm)
    vo = corrupt_vo(gt, nm)
    stats = FusionStats()
    fused = fuse_trajectory(abs_traj, vo, PgoConfig(window_T=window_T, spacing_k=spacing_k), stats)
    worst_t = float(np.max(np.abs(fused.t - gt.t)))
    worst_r = float(np.max(rotation_error_deg(fused.q, gt.q)))
    assert worst_t < 1e-9 and worst_r < 1e-9
    assert all(it == 1 for it in stats.window_iterations)
    _passed(f"zero-noise fixed point: max drift {worst_t:.2e} m, "
            f"1 iteration in each of {len(stats.window_iterations)} windows")


def test_fusion_beats_both_inputs_over_five_seeds():
    start = time.perf_counter()
    cfg = PgoConfig(window_T=7, spacing_k=10)
    ratios = []
    for seed in range(5):
        gt = generate_trajectory("loop", 1000, 0.1)
        nm = NoiseModel(abs_t_sigma=0.5, abs_r_sigma=5.0,
                        vo_t_sigma=0.01, vo_r_sigma=0.1, vo_t_bias=0.01, seed=seed)
        abs_traj = corrupt_absolute(gt, nm)
        vo = corrupt_vo(gt, nm)
        fused = fuse_trajectory(abs_traj, vo, cfg)
        e_fused = _mean_t_error(fused.t, gt.t)
        e_abs = _mean_t_error(abs_traj.t, gt.t)
        e_vo = _mean_t_error(integrate(abs_traj.t[0], abs_traj.q[0], vo)[0], gt.t)
        assert e_fused < e_abs
        assert e_fused < e_vo
        assert e_fused <= 0.8 * e_abs
        ratios.append(e_fused / e_abs)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _passed(f"fused error beats noisy-absolute and drifty-VO inputs on 5 seeds "
            f"(error ratios {min(ratios):.2f}-{max(ratios):.2f}) in {elapsed:.1f} s")


def test_every_window_converges_over_five_seeds():
    # the loop turns through 180 degrees of heading, where quaternion signs
    # flip; no window may stop at max_iters there
    start = time.perf_counter()
    cfg = PgoConfig(window_T=7, spacing_k=10)
    windows, worst = 0, 0
    for n in (1000, 16000):
        gt = generate_trajectory("loop", n, 0.1)
        for seed in range(5):
            nm = NoiseModel(abs_t_sigma=0.5, abs_r_sigma=5.0,
                            vo_t_sigma=0.01, vo_r_sigma=0.1, vo_t_bias=0.01, seed=seed)
            stats = FusionStats()
            fuse_trajectory(corrupt_absolute(gt, nm), corrupt_vo(gt, nm), cfg, stats)
            assert len(stats.window_converged) == len(stats.window_iterations)
            assert all(stats.window_converged), (n, seed, stats.window_converged.count(False))
            # one Gauss-Newton step, then exact-Hessian steps that converge
            # quadratically
            assert max(stats.window_iterations) <= 6, (n, seed, max(stats.window_iterations))
            windows += len(stats.window_converged)
            worst = max(worst, max(stats.window_iterations))
    elapsed = time.perf_counter() - start
    _passed(f"every one of {windows} windows converged at k=10 (n=1000 and 16000, "
            f"5 seeds each), at most {worst} iterations, in {elapsed:.1f} s")


def _gauss_newton_to_the_optimum(blocks, t, q):
    """Gauss-Newton steps alone, run far past the solver's stopping rule:
    until every window's step is below 1e-14, or 200 steps."""
    t, q = t.copy(), q.copy()
    active = np.arange(len(t))
    for _ in range(200):
        dz = pgo._gn_step([b.windows(active) for b in blocks], t[active], q[active])
        step = dz.reshape(len(active), -1, 6)
        t[active] += step[..., :3]
        q[active] = quat.qmul(q[active], quat.qexp(step[..., 3:]))
        active = active[np.linalg.norm(dz, axis=-1) >= 1e-14]
        if not active.size:
            break
    return t, q, None, None, None


def test_solver_reaches_the_optimum(monkeypatch):
    # each window's optimum, as Gauss-Newton approaches it linearly; the
    # solver's exact steps must land there, not stop short at STEP_TOL
    start = time.perf_counter()
    worst_t = worst_r = 0.0
    gt = generate_trajectory("loop", 1000, 0.1)
    for k in (10, 150):
        cfg = PgoConfig(window_T=7, spacing_k=k)
        for seed in range(3):
            nm = NoiseModel(abs_t_sigma=0.5, abs_r_sigma=5.0,
                            vo_t_sigma=0.01, vo_r_sigma=0.1, vo_t_bias=0.01, seed=seed)
            abs_traj, vo = corrupt_absolute(gt, nm), corrupt_vo(gt, nm)
            fused = fuse_trajectory(abs_traj, vo, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(pgo, "gauss_newton_solve", _gauss_newton_to_the_optimum)
                optimum = fuse_trajectory(abs_traj, vo, cfg)
            grid = np.arange(0, len(gt), k)
            worst_t = max(worst_t, float(np.max(np.abs(fused.t[grid] - optimum.t[grid]))))
            worst_r = max(worst_r, float(np.max(rotation_error_deg(fused.q[grid],
                                                                   optimum.q[grid]))))
    elapsed = time.perf_counter() - start
    assert worst_t < 1e-11 and worst_r < 1e-9
    _passed(f"fused grid poses within {worst_t:.1e} m / {worst_r:.1e} deg of the optimum "
            f"(n=1000, k=10 and 150, 3 seeds) in {elapsed:.1f} s")


def _readme_noise_inputs(n, seed):
    gt = generate_trajectory("loop", n, 0.1)
    nm = NoiseModel(abs_t_sigma=0.5, abs_r_sigma=5.0,
                    vo_t_sigma=0.01, vo_r_sigma=0.1, vo_t_bias=0.01, seed=seed)
    return gt, corrupt_absolute(gt, nm), corrupt_vo(gt, nm)


def test_windows_match_the_whole_trajectory_optimum():
    # the referee of the window stride: one window over all G grid poses,
    # built and solved directly, holds every observation a grid pose has
    start = time.perf_counter()
    worst_t = worst_r = 0.0
    for n, k in ((1000, 10), (4000, 150)):
        for seed in range(3):
            gt, abs_traj, vo = _readme_noise_inputs(n, seed)
            fused = fuse_trajectory(abs_traj, vo, PgoConfig(window_T=7, spacing_k=k))
            grid = np.arange(0, n, k)
            vo_t, vo_q = integrate(abs_traj.t[0], abs_traj.q[0], vo)
            step_t, step_q = chain_vo(vo_t[grid], vo_q[grid])
            blocks = window_graph(abs_traj.t[grid], abs_traj.q[grid], step_t, step_q)
            t, q, _, _, converged = gauss_newton_solve(blocks, abs_traj.t[grid][None],
                                                       abs_traj.q[grid][None])
            assert converged[0]
            mean_t = _mean_t_error(fused.t[grid], t[0])
            mean_r = float(np.mean(rotation_error_deg(fused.q[grid], q[0])))
            assert mean_t < 0.1 and mean_r < 1.0, (n, k, seed, mean_t, mean_r)
            worst_t, worst_r = max(worst_t, mean_t), max(worst_r, mean_r)
    elapsed = time.perf_counter() - start
    _passed(f"fused grid poses within a mean of {worst_t:.3f} m / {worst_r:.2f} deg of the "
            f"whole-trajectory optimum (n=1000, k=10 and n=4000, k=150, 3 seeds) "
            f"in {elapsed:.1f} s")


def test_fused_rotation_beats_abs_over_five_seeds():
    ratios = []
    for seed in range(5):
        gt, abs_traj, vo = _readme_noise_inputs(1000, seed)
        fused = fuse_trajectory(abs_traj, vo, PgoConfig(window_T=7, spacing_k=10))
        r_fused = float(np.mean(rotation_error_deg(fused.q, gt.q)))
        r_abs = float(np.mean(rotation_error_deg(abs_traj.q, gt.q)))
        assert r_fused < r_abs, (seed, r_fused, r_abs)
        ratios.append(r_fused / r_abs)
    _passed(f"fused mean rotation error below the abs input's on 5 seeds "
            f"(ratios {min(ratios):.2f}-{max(ratios):.2f})")


@pytest.mark.parametrize("n, step, nm, cfg", [
    (300, 0.1, NoiseModel(abs_t_sigma=0.3, abs_r_sigma=3.0, vo_t_sigma=0.005,
                          vo_r_sigma=0.05, vo_t_bias=0.005, seed=4),
     PgoConfig(window_T=7, spacing_k=10)),
    (120, 0.2, NoiseModel(abs_t_sigma=0.2, abs_r_sigma=3.0, vo_t_sigma=0.01,
                          vo_r_sigma=0.1, seed=5),  # no VO bias
     PgoConfig(window_T=5, spacing_k=6)),
], ids=["n300-k10-vo-bias", "n120-k6"])
def test_quaternion_sign_robustness_through_fuse(n, step, nm, cfg):
    gt = generate_trajectory("loop", n, step)
    inputs = corrupt_absolute(gt, nm), corrupt_vo(gt, nm)
    # a seeded random half of the abs rows and of the VO rows negated
    rng = np.random.default_rng(n)
    flipped = []
    for traj in inputs:
        q = traj.q.copy()
        q[rng.choice(len(q), len(q) // 2, replace=False)] *= -1.0
        flipped.append(Trajectory(traj.timestamps, traj.t, q))
    # Trajectory keeps the signs it is given, so the two runs see different rows
    for traj, flip in zip(inputs, flipped):
        assert not np.array_equal(flip.q, traj.q)
    a = fuse_trajectory(*inputs, cfg)
    b = fuse_trajectory(*flipped, cfg)
    for x, y in ((a, b), (temporal_median_filter(a, 51), temporal_median_filter(b, 51))):
        assert np.array_equal(x.t, y.t)
        assert np.array_equal(quat.canonicalize(x.q), quat.canonicalize(y.q))
    _passed(f"sign robustness: negating half the abs and VO quaternions leaves the fused "
            f"and median-filtered poses bit for bit, up to q's sign, on a {n}-frame loop")


def test_median_filter_restores_outliers():
    n = 300
    base_t = np.tile([1.0, -2.0, 0.5], (n, 1))
    base_q = np.tile(quat.canonicalize(quat.qexp(np.array([0.1, 0.2, -0.3]))), (n, 1))
    spikes = np.arange(n) % 100 == 50
    t, q = base_t.copy(), base_q.copy()
    t[spikes], q[spikes] = [50.0, 50.0, 50.0], quat.qexp(np.array([1.0, 0.0, 0.0]))
    out = temporal_median_filter(Trajectory(np.arange(n, dtype=float), t, q), 51)
    assert np.array_equal(out.t, base_t)
    assert np.array_equal(out.q, base_q)
    _passed("median filter: window 51 removes 1 outlier per 100 frames exactly")


def test_fuse_performance_and_determinism(tmp_path):
    gt = generate_trajectory("loop", 1000, 0.1)
    nm = NoiseModel(abs_t_sigma=0.5, abs_r_sigma=5.0,
                    vo_t_sigma=0.01, vo_r_sigma=0.1, vo_t_bias=0.01, seed=2)
    abs_traj = corrupt_absolute(gt, nm)
    vo = corrupt_vo(gt, nm)
    cfg = PgoConfig()  # T=7, k=150 defaults
    start = time.perf_counter()
    fused = fuse_trajectory(abs_traj, vo, cfg)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    trajio.write_trajectory(fused, tmp_path / "run1.txt")
    trajio.write_trajectory(fuse_trajectory(abs_traj, vo, cfg), tmp_path / "run2.txt")
    assert (tmp_path / "run1.txt").read_bytes() == (tmp_path / "run2.txt").read_bytes()
    _passed(f"performance: 1000-pose fuse in {elapsed:.3f} s, "
            f"repeat runs byte-identical")
