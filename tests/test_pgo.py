import numpy as np
import pytest
import scipy.optimize

from posefusion import pgo, quat
from posefusion.pose import Pose, RelativePose, Trajectory, integrate, relative_pose, rotation_error_deg, transform, transform_relative
from posefusion.pgo import (
    Constraint,
    ConstraintKind,
    FusionStats,
    PgoConfig,
    RankDeficientError,
    SolveStats,
    _nearest_grid_index,
    build_window_graph,
    fuse_trajectory,
    gauss_newton_solve,
    objective,
    residual_and_jacobian,
    temporal_median_filter,
)
from posefusion.sim import NoiseModel, corrupt_absolute, corrupt_vo, generate_trajectory

from conftest import random_pose, random_unit_quat


def perturb_state(z, dz):
    """Manifold step used by the finite-difference oracles."""
    out = []
    for idx, p in enumerate(z):
        dt = dz[6 * idx:6 * idx + 3]
        dw = dz[6 * idx + 3:6 * idx + 6]
        out.append(Pose(p.t + dt, quat.qmul(p.q, quat.qexp(dw))))
    return out


def fd_jacobian(c, z, h=1e-6):
    """-d(residual)/d(manifold coords) by central differences."""
    n = 6 * len(z)
    cols = []
    for m in range(n):
        e = np.zeros(n)
        e[m] = h
        r_plus, _ = residual_and_jacobian(c, perturb_state(z, e))
        r_minus, _ = residual_and_jacobian(c, perturb_state(z, -e))
        cols.append(-(r_plus - r_minus) / (2 * h))
    return np.column_stack(cols)


def safe_random_pose(rng):
    """Pose away from the hemisphere boundary, where the log chart is smooth."""
    while True:
        p = random_pose(rng)
        if p.q[0] > 1e-2:
            return p


def random_constraint(kind, rng, sigma=4.0):
    if kind is ConstraintKind.ABS_TRANSLATION:
        return Constraint(kind, 0, None, rng.normal(size=3), np.eye(3))
    if kind is ConstraintKind.ABS_ROTATION:
        return Constraint(kind, 0, None, random_unit_quat(rng, positive_scalar=True),
                          sigma * np.eye(4))
    if kind is ConstraintKind.REL_TRANSLATION:
        return Constraint(kind, 0, 1, rng.normal(size=3), np.eye(3))
    return Constraint(kind, 0, 1, random_unit_quat(rng, positive_scalar=True),
                      sigma * np.eye(4))


class TestBuildWindowGraph:
    def test_counts(self, rng):
        for T, expected in [(2, 6), (7, 26)]:
            poses = [random_pose(rng) for _ in range(T)]
            vo = [relative_pose(poses[i], poses[i + 1]) for i in range(T - 1)]
            cons = build_window_graph(poses, vo, PgoConfig(window_T=T))
            assert len(cons) == expected

    def test_covariances(self, rng):
        poses = [random_pose(rng) for _ in range(3)]
        vo = [relative_pose(poses[i], poses[i + 1]) for i in range(2)]
        cons = build_window_graph(poses, vo, PgoConfig(sigma_rot=20.0))
        for c in cons:
            if c.kind in (ConstraintKind.ABS_TRANSLATION, ConstraintKind.REL_TRANSLATION):
                assert np.array_equal(c.covariance, np.eye(3))
            else:
                assert np.array_equal(c.covariance, 20.0 * np.eye(4))

    def test_length_mismatch(self, rng):
        poses = [random_pose(rng) for _ in range(3)]
        with pytest.raises(ValueError):
            build_window_graph(poses, [], PgoConfig())


class TestConstraintType:
    def test_j_required_iff_relative(self, rng):
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.ABS_TRANSLATION, 0, 1, np.zeros(3), np.eye(3))
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.REL_TRANSLATION, 0, None, np.zeros(3), np.eye(3))

    def test_non_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            Constraint(ConstraintKind.ABS_TRANSLATION, 0, None, np.zeros(3),
                       -np.eye(3))


class TestResidualAndJacobian:
    def test_zero_residual_at_consistent_state(self, rng):
        poses = [safe_random_pose(rng) for _ in range(3)]
        vo = [relative_pose(poses[i], poses[i + 1]) for i in range(2)]
        for c in build_window_graph(poses, vo, PgoConfig()):
            r, _ = residual_and_jacobian(c, poses)
            assert np.max(np.abs(r)) < 1e-12

    def test_identity_covariance_whitening_noop(self, rng):
        p = safe_random_pose(rng)
        c = Constraint(ConstraintKind.ABS_TRANSLATION, 0, None, rng.normal(size=3), np.eye(3))
        r, _ = residual_and_jacobian(c, [p])
        assert np.allclose(r, c.observation - p.t)

    @pytest.mark.parametrize("kind", list(ConstraintKind))
    def test_jacobian_matches_finite_differences(self, kind):
        rng = np.random.default_rng(hash(kind.value) % 2**32)
        for _ in range(200):
            z = [safe_random_pose(rng), safe_random_pose(rng)]
            c = random_constraint(kind, rng)
            if kind is ConstraintKind.REL_ROTATION:
                # keep the linearization off the hemisphere flip boundary
                f_raw = quat.qmul(quat.qinv(z[1].q), z[0].q)
                if abs(f_raw[0]) < 1e-2:
                    continue
            _, jac = residual_and_jacobian(c, z)
            fd = fd_jacobian(c, z)
            scale = max(1.0, np.max(np.abs(fd)))
            assert np.max(np.abs(jac - fd)) / scale < 1e-5


def energy_over_chart(constraints, base_t, x):
    """E(z) with z parameterized by 6 free numbers per pose (t and log q)."""
    n = len(base_t)
    poses = []
    for idx in range(n):
        t = x[6 * idx:6 * idx + 3]
        w = x[6 * idx + 3:6 * idx + 6]
        poses.append(Pose(t, quat.qexp(w)))
    return objective(constraints, poses)


class TestGaussNewton:
    def _toy_problem(self, rng, n=3, noise=0.2):
        gt = [safe_random_pose(rng) for _ in range(n)]
        vo = [relative_pose(gt[i], gt[i + 1]) for i in range(n - 1)]
        cfg = PgoConfig(window_T=n, sigma_rot=10.0)
        constraints = build_window_graph(gt, vo, cfg)
        z0 = [Pose(p.t + noise * rng.normal(size=3),
                   quat.qmul(p.q, quat.qexp(noise * rng.normal(size=3))))
              for p in gt]
        return constraints, z0, cfg

    def test_consistent_state_is_fixed_point(self, rng):
        poses = [safe_random_pose(rng) for _ in range(3)]
        vo = [relative_pose(poses[i], poses[i + 1]) for i in range(2)]
        cfg = PgoConfig(window_T=3)
        stats = SolveStats()
        z = gauss_newton_solve(build_window_graph(poses, vo, cfg), poses, cfg, stats)
        assert stats.iterations == 1
        assert stats.final_step_norm < 1e-12
        for a, b in zip(z, poses):
            assert np.max(np.abs(a.t - b.t)) < 1e-12

    def test_matches_derivative_free_minimizer(self, rng):
        constraints, z0, cfg = self._toy_problem(rng)
        stats = SolveStats()
        gauss_newton_solve(constraints, z0, cfg, stats)

        x0 = np.concatenate([np.concatenate([p.t, quat.qlog(p.q)]) for p in z0])
        base_t = [p.t for p in z0]
        res = scipy.optimize.minimize(
            lambda x: energy_over_chart(constraints, base_t, x), x0,
            method="L-BFGS-B",
            options={"maxiter": 5000, "maxfun": 200000, "ftol": 1e-16, "gtol": 1e-12})
        assert abs(stats.final_objective - res.fun) < 1e-6

    def test_objective_never_increases_over_corpus(self, rng):
        for _ in range(20):
            constraints, z0, cfg = self._toy_problem(rng, noise=0.1)
            stats = SolveStats()
            gauss_newton_solve(constraints, z0, cfg, stats)
            assert stats.final_objective <= objective(constraints, z0) + 1e-12

    def test_pure_translation_closed_form(self, rng):
        # All rotations identity and zero relative-translation observations:
        # the relative cost |R(q)(t_i - t_j)|^2 is rotation-independent, so
        # the translation subproblem is exactly the linear weighted least
        # squares solved by a hand-built normal-equation oracle.
        n = 3
        abs_obs = [rng.normal(size=3) for _ in range(n)]
        cfg = PgoConfig(window_T=n, sigma_rot=10.0, step_tol=1e-14, max_iters=100)
        constraints = build_window_graph(
            [Pose(t, quat.IDENTITY) for t in abs_obs],
            [RelativePose.identity() for _ in range(n - 1)], cfg)

        z0 = [Pose(abs_obs[i] + 0.2 * rng.normal(size=3), quat.IDENTITY)
              for i in range(n)]
        z = gauss_newton_solve(constraints, z0, cfg)

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
        got = np.concatenate([p.t for p in z])
        assert np.max(np.abs(got - expected)) < 1e-9
        for p in z:
            assert rotation_error_deg(p.q, quat.IDENTITY) < 1e-9

    def test_quaternions_stay_unit_without_renormalization(self, rng):
        constraints, z0, cfg = self._toy_problem(rng, noise=0.3)
        cfg.max_iters = 200
        cfg.step_tol = 0.0  # force every iteration to run
        z = gauss_newton_solve(constraints, z0, cfg)
        for p in z:
            assert abs(np.linalg.norm(p.q) - 1.0) < 1e-9

    def test_rank_deficiency_reported(self, rng):
        # relative constraints only: the global gauge is unobservable
        poses = [safe_random_pose(rng) for _ in range(2)]
        vo = [relative_pose(poses[0], poses[1])]
        cons = [
            Constraint(ConstraintKind.REL_TRANSLATION, 0, 1, vo[0].t, np.eye(3)),
            Constraint(ConstraintKind.REL_ROTATION, 0, 1, vo[0].q, np.eye(4)),
        ]
        z0 = [Pose(p.t + 0.1, p.q) for p in poses]
        with pytest.raises(RankDeficientError) as err:
            gauss_newton_solve(cons, z0, PgoConfig(window_T=2))
        assert len(err.value.columns) > 0

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_step_raises(self, rng):
        poses = [safe_random_pose(rng) for _ in range(3)]
        vo = [relative_pose(poses[i], poses[i + 1]) for i in range(2)]
        cfg = PgoConfig(window_T=3)
        for bad in (np.nan, np.inf):
            cons = build_window_graph(poses, vo, cfg)
            cons[0].observation = np.array([bad, 0.0, 0.0])
            with pytest.raises(np.linalg.LinAlgError):
                gauss_newton_solve(cons, poses, cfg)


def mean_translation_error(poses, gt_poses):
    return float(np.mean([np.linalg.norm(a.t - b.t) for a, b in zip(poses, gt_poses)]))


class TestFuseTrajectory:
    def test_zero_noise_fixed_point(self):
        gt = generate_trajectory("loop", 200, 0.1)
        nm = NoiseModel(seed=0)
        abs_traj = corrupt_absolute(gt, nm)
        vo = corrupt_vo(gt, nm)
        stats = FusionStats()
        fused = fuse_trajectory(abs_traj, vo, PgoConfig(window_T=5, spacing_k=7), stats)
        for a, b in zip(fused.poses, gt.poses):
            assert np.max(np.abs(a.t - b.t)) < 1e-9
            assert rotation_error_deg(a.q, b.q) < 1e-9
        assert max(stats.window_iterations) == 1

    def test_default_window_parameters(self):
        cfg = PgoConfig()
        assert cfg.window_T == 7
        assert cfg.spacing_k == 150
        assert cfg.sigma_rot == 10.0

    def test_short_trajectory_single_window(self):
        gt = generate_trajectory("random-walk", 5, 0.5, seed=3)
        vo = corrupt_vo(gt, NoiseModel(seed=1))
        fused = fuse_trajectory(gt, vo, PgoConfig(window_T=7, spacing_k=150))
        assert len(fused) == 5

    def test_fusion_beats_both_inputs(self):
        gt = generate_trajectory("loop", 600, 0.1)
        nm = NoiseModel(abs_t_sigma=0.4, abs_r_sigma=4, vo_t_sigma=0.01,
                        vo_r_sigma=0.1, vo_t_bias=0.01, seed=7)
        abs_traj = corrupt_absolute(gt, nm)
        vo = corrupt_vo(gt, nm)
        fused = fuse_trajectory(abs_traj, vo, PgoConfig(window_T=7, spacing_k=10))
        vo_integ = integrate(gt.poses[0], vo)
        err_fused = mean_translation_error(fused.poses, gt.poses)
        assert err_fused < mean_translation_error(abs_traj.poses, gt.poses)
        assert err_fused < mean_translation_error(vo_integ, gt.poses)

    def test_rigid_transform_equivariance(self, rng):
        gt = generate_trajectory("loop", 120, 0.2)
        nm = NoiseModel(abs_t_sigma=0.2, abs_r_sigma=3, vo_t_sigma=0.01,
                        vo_r_sigma=0.1, vo_t_bias=0.005, seed=11)
        abs_traj = corrupt_absolute(gt, nm)
        vo = corrupt_vo(gt, nm)
        cfg = PgoConfig(window_T=5, spacing_k=6)
        fused = fuse_trajectory(abs_traj, vo, cfg)

        g_t = rng.normal(size=3)
        g_q = random_unit_quat(rng)
        abs2 = Trajectory(abs_traj.timestamps,
                          tuple(transform(p, g_t, g_q) for p in abs_traj.poses))
        vo2 = [transform_relative(r, g_q) for r in vo]
        fused2 = fuse_trajectory(abs2, vo2, cfg)
        for a, b in zip(fused.poses, fused2.poses):
            moved = transform(a, g_t, g_q)
            assert np.max(np.abs(moved.t - b.t)) < 1e-8
            assert rotation_error_deg(moved.q, b.q) < 1e-8

    def test_quaternion_negation_invariance(self):
        gt = generate_trajectory("loop", 120, 0.2)
        nm = NoiseModel(abs_t_sigma=0.2, abs_r_sigma=3, vo_t_sigma=0.01,
                        vo_r_sigma=0.1, seed=5)
        abs_traj = corrupt_absolute(gt, nm)
        vo = corrupt_vo(gt, nm)
        flipped = Trajectory(abs_traj.timestamps,
                             tuple(Pose(p.t, -p.q) for p in abs_traj.poses))
        cfg = PgoConfig(window_T=5, spacing_k=6)
        a = fuse_trajectory(abs_traj, vo, cfg)
        b = fuse_trajectory(flipped, vo, cfg)
        for p, q in zip(a.poses, b.poses):
            assert rotation_error_deg(p.q, q.q) < 1e-9

    def _noisy_loop(self, n=200, seed=3):
        gt = generate_trajectory("loop", n, 0.1)
        nm = NoiseModel(abs_t_sigma=0.3, abs_r_sigma=3, vo_t_sigma=0.01,
                        vo_r_sigma=0.1, vo_t_bias=0.01, seed=seed)
        return corrupt_absolute(gt, nm), corrupt_vo(gt, nm)

    def test_batches_match_single_window_solver(self, monkeypatch):
        # 20 grid poses give 16 windows: five batches of 3 and a partial one
        monkeypatch.setattr(pgo, "FUSE_BATCH", 3)
        abs_traj, vo = self._noisy_loop()
        cfg = PgoConfig(window_T=5, spacing_k=10)
        stats = FusionStats()
        fused = fuse_trajectory(abs_traj, vo, cfg, stats)

        grid = list(range(0, len(abs_traj), cfg.spacing_k))
        vo_traj = integrate(abs_traj.poses[0], vo)
        grid_vo = [relative_pose(vo_traj[a], vo_traj[b]) for a, b in zip(grid, grid[1:])]
        T = cfg.window_T
        iterations = []
        for w in range(len(grid) - T + 1):
            abs_window = [abs_traj.poses[f] for f in grid[w:w + T]]
            solve_stats = SolveStats()
            z = gauss_newton_solve(build_window_graph(abs_window, grid_vo[w:w + T - 1], cfg),
                                   abs_window, cfg, solve_stats)
            iterations.append(solve_stats.iterations)
            for offset in (range(T) if w == 0 else [T - 1]):
                got = fused.poses[grid[w + offset]]
                assert np.max(np.abs(got.t - z[offset].t)) < 1e-12
                assert np.max(np.abs(got.q - z[offset].q)) < 1e-12
        assert stats.window_iterations == iterations

    def test_output_independent_of_batch_size(self, monkeypatch):
        abs_traj, vo = self._noisy_loop()
        cfg = PgoConfig(window_T=5, spacing_k=10)
        runs = []
        for batch in (1, 3, 16, 100):
            monkeypatch.setattr(pgo, "FUSE_BATCH", batch)
            stats = FusionStats()
            runs.append((fuse_trajectory(abs_traj, vo, cfg, stats), stats.window_iterations))
        ref, ref_iterations = runs[0]
        for fused, iterations in runs[1:]:
            assert iterations == ref_iterations
            for a, b in zip(fused.poses, ref.poses):
                assert np.max(np.abs(a.t - b.t)) < 1e-12
                assert np.max(np.abs(a.q - b.q)) < 1e-12

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("frame", [0, 10, 15])  # grid frame, off-grid frame
    def test_non_finite_grid_pose_raises_off_grid_ignored(self, frame):
        abs_traj, vo = self._noisy_loop()
        cfg = PgoConfig(window_T=5, spacing_k=10)
        for bad in (np.nan, np.inf):
            poses = list(abs_traj.poses)
            poses[frame] = Pose(np.array([bad, 0.0, 0.0]), poses[frame].q)
            broken = Trajectory(abs_traj.timestamps, tuple(poses))
            if frame % cfg.spacing_k == 0:
                with pytest.raises(np.linalg.LinAlgError):
                    fuse_trajectory(broken, vo, cfg)
            else:
                # only grid frames are observed; off-grid frames are carried from VO
                clean = fuse_trajectory(abs_traj, vo, cfg)
                for a, b in zip(fuse_trajectory(broken, vo, cfg).poses, clean.poses):
                    assert np.array_equal(a.t, b.t) and np.array_equal(a.q, b.q)

    def test_too_short_rejected(self):
        gt = generate_trajectory("random-walk", 2, 0.5)
        with pytest.raises(ValueError):
            fuse_trajectory(gt, [], PgoConfig())


class TestTemporalMedianFilter:
    def test_window_one_is_identity(self):
        traj = generate_trajectory("loop", 20, 0.3)
        out = temporal_median_filter(traj, 1)
        assert out is traj

    def test_even_window_rejected(self):
        traj = generate_trajectory("loop", 20, 0.3)
        with pytest.raises(ValueError):
            temporal_median_filter(traj, 4)

    def test_single_spike_removed(self):
        base = Pose(np.array([1.0, 2.0, 3.0]), quat.qexp(np.array([0.2, 0, 0])))
        poses = [base] * 20
        poses[10] = Pose(np.array([50.0, 2.0, 3.0]), quat.qexp(np.array([0, 1.0, 0])))
        traj = Trajectory(np.arange(20.0), tuple(poses))
        out = temporal_median_filter(traj, 5)
        for p in out.poses:
            assert np.array_equal(p.t, base.t)
            assert rotation_error_deg(p.q, base.q) == 0.0


@pytest.mark.parametrize("n, k", [(100, 10), (101, 10), (96, 4), (95, 7), (13, 12), (7, 2), (2, 1)])
def test_nearest_grid_index_matches_brute_force(n, k):
    # even k puts frames halfway between grid frames; the lower index wins
    grid = list(range(0, n, k))
    for f in range(n):
        expected = min(range(len(grid)), key=lambda g: abs(grid[g] - f))
        assert _nearest_grid_index(f, k, len(grid)) == expected
