import sys

import numpy as np
import pytest
import scipy.optimize

from posefusion import pgo, quat
from posefusion.pose import (BLOCK_ROWS, Trajectory, VoChain, compose, integrate, relative_pose,
                             rotation_error_deg)
from posefusion.pgo import (
    ConstraintKind,
    FusionStats,
    PgoConfig,
    RankDeficientError,
    _nearest_grid_index,
    build_window_graph,
    fuse_trajectory,
    gauss_newton_solve,
    linearize,
    temporal_median_filter,
)
from posefusion.sim import NoiseModel, corrupt_absolute, corrupt_vo, generate_trajectory

from conftest import (chain_vo, objective, perturb_state, random_poses, random_unit_quat,
                      safe_random_poses, single_block, stack_poses, window_graph)


def fd_jacobian(blocks, t, q, h=1e-6):
    """-d(residual)/d(manifold coords) of a one-window state by central differences."""
    n = 6 * t.shape[1]
    cols = []
    for m in range(n):
        e = np.zeros(n)
        e[m] = h
        r_plus, _ = linearize(blocks, *perturb_state(t, q, e), jacobian=False)
        r_minus, _ = linearize(blocks, *perturb_state(t, q, -e), jacobian=False)
        cols.append(-(r_plus[0] - r_minus[0]) / (2 * h))
    return np.column_stack(cols)


def random_block(kind, rng, weight=2.0):
    if kind in (ConstraintKind.ABS_TRANSLATION, ConstraintKind.REL_TRANSLATION):
        return single_block(kind, rng.normal(size=3), 1.0)
    return single_block(kind, random_unit_quat(rng, positive_scalar=True), weight)


class TestPgoConfig:
    @pytest.mark.parametrize("field, value", [
        ("sigma_rot", 0.0), ("sigma_rot", -1.0), ("sigma_rot", np.nan), ("sigma_rot", np.inf),
        ("step_tol", -1e-8), ("step_tol", np.nan), ("step_tol", np.inf),
    ])
    def test_rejects_bad_solver_options(self, field, value):
        with pytest.raises(ValueError, match=field):
            PgoConfig(**{field: value})

    def test_accepts_zero_step_tol(self):
        assert PgoConfig(step_tol=0.0).step_tol == 0.0


class TestBuildWindowGraph:
    def test_counts(self, rng):
        for T, expected in [(2, 6), (7, 26)]:
            t, q = random_poses(rng, T)
            blocks = window_graph(t, q, *chain_vo(t, q), PgoConfig(window_T=T))
            assert sum(b.obs.shape[1] for b in blocks) == expected

    def test_covariances(self, rng):
        t, q = random_poses(rng, 3)
        for b in window_graph(t, q, *chain_vo(t, q), PgoConfig(sigma_rot=20.0)):
            # the weight is the square root of the kind's information: 1 for
            # translations, sigma_rot for rotations
            if b.kind in (ConstraintKind.ABS_TRANSLATION, ConstraintKind.REL_TRANSLATION):
                assert b.weight == 1.0
            else:
                assert b.weight == np.sqrt(20.0)

    def test_length_mismatch(self, rng):
        t, q = random_poses(rng, 3)
        with pytest.raises(ValueError):
            window_graph(t, q, [], [], PgoConfig())


class TestResidualAndJacobian:
    def test_zero_residual_at_consistent_state(self, rng):
        t, q = safe_random_poses(rng, 3)
        r, _ = linearize(window_graph(t, q, *chain_vo(t, q), PgoConfig()), t[None], q[None])
        assert np.max(np.abs(r)) < 1e-12

    def test_identity_covariance_whitening_noop(self, rng):
        t, q = safe_random_poses(rng, 1)
        b = single_block(ConstraintKind.ABS_TRANSLATION, rng.normal(size=3), 1.0)
        r, _ = linearize([b], t[None], q[None])
        assert np.allclose(r[0], b.obs[0, 0] - t[0])

    @pytest.mark.parametrize("kind", list(ConstraintKind))
    def test_jacobian_matches_finite_differences(self, kind):
        # a fixed seed per kind, so every run checks the same instances
        rng = np.random.default_rng(list(ConstraintKind).index(kind))
        for _ in range(200):
            t, q = safe_random_poses(rng, 2)
            b = random_block(kind, rng)
            if kind is ConstraintKind.REL_ROTATION:
                # keep the linearization off the hemisphere flip boundary
                f_raw = quat.qmul(quat.qinv(q[1]), q[0])
                if abs(f_raw[0]) < 1e-2:
                    continue
            t, q = t[None], q[None]
            _, jac = linearize([b], t, q)
            fd = fd_jacobian([b], t, q)
            scale = max(1.0, np.max(np.abs(fd)))
            assert np.max(np.abs(jac[0] - fd)) / scale < 1e-5


def energy_over_chart(blocks, x):
    """E(z) with z parameterized by 6 free numbers per pose (t and log q)."""
    z = x.reshape(1, -1, 6)
    return objective(blocks, z[..., :3], quat.qexp(z[..., 3:]))


class TestGaussNewton:
    def _toy_problem(self, rng, n=3, noise=0.2):
        gt_t, gt_q = safe_random_poses(rng, n)
        cfg = PgoConfig(window_T=n, sigma_rot=10.0)
        blocks = window_graph(gt_t, gt_q, *chain_vo(gt_t, gt_q), cfg)
        z0 = stack_poses([(t + noise * rng.normal(size=3),
                           quat.qmul(q, quat.qexp(noise * rng.normal(size=3))))
                          for t, q in zip(gt_t, gt_q)])
        return blocks, (z0[0][None], quat.canonicalize(z0[1])[None]), cfg

    def test_consistent_state_is_fixed_point(self, rng):
        t0, q0 = safe_random_poses(rng, 3)
        cfg = PgoConfig(window_T=3)
        blocks = window_graph(t0, q0, *chain_vo(t0, q0), cfg)
        t0, q0 = t0[None], q0[None]
        t, _, iterations, step_norm = gauss_newton_solve(blocks, t0, q0, cfg)
        assert iterations[0] == 1
        assert step_norm[0] < 1e-12
        assert np.max(np.abs(t - t0)) < 1e-12

    def test_matches_derivative_free_minimizer(self, rng):
        blocks, (t0, q0), cfg = self._toy_problem(rng)
        t, q, _, _ = gauss_newton_solve(blocks, t0, q0, cfg)

        x0 = np.concatenate([t0, quat.qlog(q0)], axis=-1).ravel()
        res = scipy.optimize.minimize(
            lambda x: energy_over_chart(blocks, x), x0,
            method="L-BFGS-B",
            options={"maxiter": 5000, "maxfun": 200000, "ftol": 1e-16, "gtol": 1e-12})
        assert abs(objective(blocks, t, q) - res.fun) < 1e-6

    def test_objective_never_increases_over_corpus(self, rng):
        for _ in range(20):
            blocks, (t0, q0), cfg = self._toy_problem(rng, noise=0.1)
            t, q, _, _ = gauss_newton_solve(blocks, t0, q0, cfg)
            assert objective(blocks, t, q) <= objective(blocks, t0, q0) + 1e-12

    def test_pure_translation_closed_form(self, rng):
        # All rotations identity and zero relative-translation observations:
        # the relative cost |R(q)(t_i - t_j)|^2 is rotation-independent, so
        # the translation subproblem is exactly the linear weighted least
        # squares solved by a hand-built normal-equation oracle.
        n = 3
        abs_obs = [rng.normal(size=3) for _ in range(n)]
        cfg = PgoConfig(window_T=n, sigma_rot=10.0, step_tol=1e-14, max_iters=100)
        identities = np.tile(quat.IDENTITY, (n, 1))
        blocks = window_graph(np.array(abs_obs), identities,
                              np.zeros((n - 1, 3)), np.zeros((n - 1, 3)), cfg)

        t0 = np.array([abs_obs[i] + 0.2 * rng.normal(size=3) for i in range(n)])
        t, q, _, _ = gauss_newton_solve(blocks, t0[None], identities[None], cfg)

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
        assert np.max(np.abs(t.ravel() - expected)) < 1e-9
        for qi in q[0]:
            assert rotation_error_deg(qi, quat.IDENTITY) < 1e-9

    def test_quaternions_stay_unit_without_renormalization(self, rng):
        blocks, (t0, q0), cfg = self._toy_problem(rng, noise=0.3)
        cfg.max_iters = 200
        cfg.step_tol = 0.0  # force every iteration to run
        _, q, _, _ = gauss_newton_solve(blocks, t0, q0, cfg)
        for qi in q[0]:
            assert abs(np.linalg.norm(qi) - 1.0) < 1e-9

    def test_rank_deficiency_reported(self, rng):
        # relative constraints only: the global gauge is unobservable
        t, q = safe_random_poses(rng, 2)
        cfg = PgoConfig(window_T=2, sigma_rot=1.0)
        blocks = [b for b in window_graph(t, q, *chain_vo(t, q), cfg)
                  if b.kind in (ConstraintKind.REL_TRANSLATION, ConstraintKind.REL_ROTATION)]
        with pytest.raises(RankDeficientError) as err:
            gauss_newton_solve(blocks, t[None] + 0.1, q[None], cfg)
        assert len(err.value.columns) > 0

    @staticmethod
    def _straight_chain_columns(kinds):
        """Columns RankDeficientError names for the blocks of kinds on a T=4
        chain along x with identity rotations."""
        T = 4
        t = np.zeros((T, 3))
        t[:, 0] = np.arange(T)
        q = np.tile(quat.IDENTITY, (T, 1))
        cfg = PgoConfig(window_T=T)
        blocks = [b for b in window_graph(t, q, *chain_vo(t, q), cfg) if b.kind in kinds]
        with pytest.raises(RankDeficientError) as err:
            gauss_newton_solve(blocks, t[None] + 0.1, q[None], cfg)
        return err.value

    @pytest.mark.parametrize("kinds, columns", [
        # no rotation observed: every rotation column
        ((ConstraintKind.ABS_TRANSLATION,), [3, 4, 5, 9, 10, 11, 15, 16, 17, 21, 22, 23]),
        # rel-t turns along x: it sees pitch and yaw of its observer poses 1-3, never roll
        ((ConstraintKind.ABS_TRANSLATION, ConstraintKind.REL_TRANSLATION),
         [3, 4, 5, 9, 15, 21]),
        # no absolute constraint: the gauge moves every column
        ((ConstraintKind.REL_TRANSLATION, ConstraintKind.REL_ROTATION), list(range(24))),
    ])
    def test_rank_deficiency_names_every_unobserved_column(self, kinds, columns):
        err = self._straight_chain_columns(kinds)
        assert err.columns == columns
        assert all(type(c) is int for c in err.columns)
        assert str(columns) in str(err)

    def test_rank_deficiency_needs_no_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy", None)
        err = self._straight_chain_columns((ConstraintKind.ABS_TRANSLATION,))
        assert err.columns == [3, 4, 5, 9, 10, 11, 15, 16, 17, 21, 22, 23]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_step_raises(self, rng):
        t, q = safe_random_poses(rng, 3)
        cfg = PgoConfig(window_T=3)
        for bad in (np.nan, np.inf):
            blocks = window_graph(t, q, *chain_vo(t, q), cfg)
            obs = blocks[0].obs.copy()  # absolute translation of pose 0
            obs[0, 0] = [bad, 0.0, 0.0]
            blocks[0] = blocks[0]._replace(obs=obs)
            with pytest.raises(np.linalg.LinAlgError):
                gauss_newton_solve(blocks, t[None], q[None], cfg)


def noisy_window_stack(rng, T, n_win=4):
    """Blocks of a stack of n_win windows of T poses, and its starting state.

    Observations are ground truth plus noise, and the state starts at the
    absolute observations, as fuse_trajectory starts it. Window 0 heads
    near 180 degrees, where the scalar parts of its rotations are about 0
    and canonicalization flips their signs.
    """
    gt_t = rng.normal(size=(n_win, T, 3))
    yaw = rng.uniform(-np.pi, np.pi, size=(n_win, T))
    yaw[0] = np.pi + 0.02 * rng.normal(size=T)
    tilt = 0.1 * rng.normal(size=(n_win, T, 3))
    gt_q = quat.qmul(quat.qexp(np.stack([0 * yaw, 0 * yaw, yaw / 2], axis=-1)), quat.qexp(tilt))
    abs_t = gt_t + 0.3 * rng.normal(size=gt_t.shape)
    abs_q = quat.qmul(gt_q, quat.qexp(0.05 * rng.normal(size=gt_t.shape)))
    vo_t, vo_w = relative_pose(gt_t[:, :-1], gt_q[:, :-1], gt_t[:, 1:], gt_q[:, 1:])
    vo_q = quat.qmul(quat.qexp(vo_w), quat.qexp(0.01 * rng.normal(size=vo_w.shape)))
    blocks = build_window_graph(abs_t, abs_q, vo_t + 0.01 * rng.normal(size=vo_t.shape),
                                vo_q, PgoConfig(window_T=T))
    return blocks, abs_t, abs_q


def dense_normal_equations(blocks, t, q):
    """J^T J (W, 6T, 6T) and J^T r (W, 6T) from linearize's dense Jacobian."""
    r, jac = linearize(blocks, t, q)
    jac_t = jac.transpose(0, 2, 1)
    return jac_t @ jac, (jac_t @ r[..., None])[..., 0]


def pose_blocks(h):
    """The 6x6 blocks of normal matrices h (W, 6T, 6T), indexed [w, a, b] by
    the poses a and b, with their diagonal (W, T, 6, 6) and super-diagonal
    (W, T-1, 6, 6)."""
    T = h.shape[-1] // 6
    blocks = h.reshape(len(h), T, 6, T, 6).transpose(0, 1, 3, 2, 4)
    k = np.arange(T)
    return blocks, blocks[:, k, k], blocks[:, k[:-1], k[1:]]


class TestBlockCholesky:
    @pytest.mark.parametrize("T", [2, 3, 7])
    def test_step_matches_dense_solve(self, rng, T):
        blocks, t, q = noisy_window_stack(rng, T)
        h, g = dense_normal_equations(blocks, t, q)
        expected = np.linalg.solve(h, g[..., None])[..., 0]
        dz = pgo._gn_step(blocks, t, q)
        err = np.linalg.norm(dz - expected, axis=-1) / np.linalg.norm(expected, axis=-1)
        assert np.max(err) < 1e-10

    @pytest.mark.parametrize("T", [2, 3, 7])
    def test_pivots_are_dense_cholesky_diagonal(self, rng, T):
        blocks, t, q = noisy_window_stack(rng, T)
        h, g = dense_normal_equations(blocks, t, q)
        h_blocks, diag, upper = pose_blocks(h)
        # a chain couples only neighbours: every block off the three middle
        # diagonals is 0
        k = np.arange(T)
        assert np.all(h_blocks[:, np.abs(k[:, None] - k) > 1] == 0.0)
        _, piv, ok = pgo._block_cholesky_solve(diag, upper, g.reshape(len(h), T, 6))
        assert ok.all()
        expected = np.diagonal(np.linalg.cholesky(h), axis1=-2, axis2=-1)
        assert np.max(np.abs(piv.reshape(len(h), -1) - expected) / expected) < 1e-10

    def test_low_pivot_ratio_takes_least_squares(self, rng):
        # absolute translations weighted 1e-7: the window stays full rank,
        # but its smallest pivot falls below MIN_PIVOT_RATIO of its largest
        blocks, t, q = noisy_window_stack(rng, 3, n_win=2)
        blocks[0] = blocks[0]._replace(weight=1e-7 * blocks[0].weight)
        h, g = dense_normal_equations(blocks, t, q)
        _, diag, upper = pose_blocks(h)
        _, piv, ok = pgo._block_cholesky_solve(diag, upper, g.reshape(2, 3, 6))
        assert not ok.any()
        assert np.all(piv.min(axis=(1, 2)) < pgo.MIN_PIVOT_RATIO * piv.max(axis=(1, 2)))
        dz = pgo._gn_step(blocks, t, q)
        r, jac = linearize(blocks, t, q)
        for w in range(2):
            assert np.array_equal(dz[w], np.linalg.lstsq(jac[w], r[w], rcond=None)[0])

    def test_not_positive_definite_window_untrusts_its_stack(self, rng, monkeypatch):
        blocks, t, q = noisy_window_stack(rng, 3, n_win=2)
        solve = pgo._block_cholesky_solve

        def not_positive_definite(diag, upper, g):
            diag = diag.copy()
            diag[0, 1, 0, 0] = -1.0  # window 0, pose 1
            return solve(diag, upper, g)

        h, g = dense_normal_equations(blocks, t, q)
        _, diag, upper = pose_blocks(h)
        _, _, ok = not_positive_definite(diag, upper, g.reshape(2, 3, 6))
        assert not ok.any()
        monkeypatch.setattr(pgo, "_block_cholesky_solve", not_positive_definite)
        dz = pgo._gn_step(blocks, t, q)
        r, jac = linearize(blocks, t, q)
        for w in range(2):
            assert np.array_equal(dz[w], np.linalg.lstsq(jac[w], r[w], rcond=None)[0])


class TestSolverStacks:
    def test_stacks_hold_at_most_fuse_batch_windows(self, rng, monkeypatch):
        monkeypatch.setattr(pgo, "FUSE_BATCH", 3)
        n_win = 2 * pgo.FUSE_BATCH + 1
        blocks, t0, q0 = noisy_window_stack(rng, 4, n_win=n_win)
        cfg = PgoConfig(window_T=4)
        single = [gauss_newton_solve([b.windows([w]) for b in blocks], t0[[w]], q0[[w]], cfg)
                  for w in range(n_win)]
        stacks = []
        gn_step = pgo._gn_step

        def recorded(blocks, t, q):
            stacks.append(len(t))
            return gn_step(blocks, t, q)

        monkeypatch.setattr(pgo, "_gn_step", recorded)
        t, q, iterations, step_norm = gauss_newton_solve(blocks, t0, q0, cfg)
        assert max(stacks) == pgo.FUSE_BATCH
        assert sum(stacks) == iterations.sum()
        for w, (t_w, q_w, iterations_w, step_norm_w) in enumerate(single):
            assert np.array_equal(t[w], t_w[0]) and np.array_equal(q[w], q_w[0])
            assert iterations[w] == iterations_w[0] and step_norm[w] == step_norm_w[0]


def mean_translation_error(t, gt_t):
    return float(np.mean(np.linalg.norm(t - gt_t, axis=1)))


def transform(t, q, g_t, g_q):
    """A global rigid transform of poses: t -> R(g_q) t + g_t, q -> q * g_q^-1."""
    return quat.qrotate(g_q, t) + g_t, quat.qmul(q, quat.qinv(g_q))


class TestFuseTrajectory:
    def test_zero_noise_fixed_point(self):
        gt = generate_trajectory("loop", 200, 0.1)
        nm = NoiseModel(seed=0)
        abs_traj = corrupt_absolute(gt, nm)
        vo = corrupt_vo(gt, nm)
        stats = FusionStats()
        fused = fuse_trajectory(abs_traj, vo, PgoConfig(window_T=5, spacing_k=7), stats)
        assert np.max(np.abs(fused.t - gt.t)) < 1e-9
        assert np.max(rotation_error_deg(fused.q, gt.q)) < 1e-9
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
        vo_integ_t, _ = integrate(gt.t[0], gt.q[0], vo)
        err_fused = mean_translation_error(fused.t, gt.t)
        assert err_fused < mean_translation_error(abs_traj.t, gt.t)
        assert err_fused < mean_translation_error(vo_integ_t, gt.t)

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
        abs2 = Trajectory(abs_traj.timestamps, *transform(abs_traj.t, abs_traj.q, g_t, g_q))
        # relative translations live in the observer frame; the log rotation's axis turns
        vo2 = VoChain(vo.timestamps, vo.t, quat.qrotate(g_q, vo.w))
        fused2 = fuse_trajectory(abs2, vo2, cfg)
        moved_t, moved_q = transform(fused.t, fused.q, g_t, g_q)
        assert np.max(np.abs(moved_t - fused2.t)) < 1e-8
        assert np.max(rotation_error_deg(moved_q, fused2.q)) < 1e-8

    def test_quaternion_negation_invariance(self):
        gt = generate_trajectory("loop", 120, 0.2)
        nm = NoiseModel(abs_t_sigma=0.2, abs_r_sigma=3, vo_t_sigma=0.01,
                        vo_r_sigma=0.1, seed=5)
        abs_traj = corrupt_absolute(gt, nm)
        vo = corrupt_vo(gt, nm)
        flipped = Trajectory(abs_traj.timestamps, abs_traj.t, -abs_traj.q)
        cfg = PgoConfig(window_T=5, spacing_k=6)
        a = fuse_trajectory(abs_traj, vo, cfg)
        b = fuse_trajectory(flipped, vo, cfg)
        assert np.max(rotation_error_deg(a.q, b.q)) < 1e-9

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
        vo_t, vo_q = integrate(abs_traj.t[0], abs_traj.q[0], vo)
        grid_t, grid_w = chain_vo(vo_t[grid], vo_q[grid])
        T = cfg.window_T
        iterations = []
        for w in range(len(grid) - T + 1):
            frames = grid[w:w + T]
            abs_t, abs_q = abs_traj.t[frames], abs_traj.q[frames]
            blocks = window_graph(abs_t, abs_q, grid_t[w:w + T - 1], grid_w[w:w + T - 1], cfg)
            t, q, its, _ = gauss_newton_solve(blocks, abs_t[None], abs_q[None], cfg)
            iterations.append(int(its[0]))
            for offset in (range(T) if w == 0 else [T - 1]):
                frame = grid[w + offset]
                assert np.max(np.abs(fused.t[frame] - t[0, offset])) < 1e-12
                assert np.max(np.abs(fused.q[frame] - quat.canonicalize(q[0, offset]))) < 1e-12
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
            assert np.max(np.abs(fused.t - ref.t)) < 1e-12
            assert np.max(np.abs(fused.q - ref.q)) < 1e-12

    @pytest.mark.parametrize("k", [10, 150])
    def test_blocked_carry_matches_one_shot(self, k):
        n = 2 * BLOCK_ROWS + 101
        abs_traj, vo = self._noisy_loop(n)
        fused = fuse_trajectory(abs_traj, vo, PgoConfig(window_T=7, spacing_k=k))
        # every off-grid frame in one relative_pose and one compose call; the
        # grid poses are the fused ones, and compose is exact under q -> -q
        vo_t, vo_q = integrate(abs_traj.t[0], abs_traj.q[0], vo)
        grid = np.arange(0, n, k)
        off = np.setdiff1d(np.arange(n), grid)
        near = grid[np.minimum((off + (k - 1) // 2) // k, len(grid) - 1)]
        rel_t, rel_w = relative_pose(vo_t[off], vo_q[off], vo_t[near], vo_q[near])
        t, q = compose(fused.t[near], fused.q[near], rel_t, rel_w)
        for got, ref in ((fused.t[off], t), (fused.q[off], quat.canonicalize(q))):
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("frame", [0, 10, 15])  # grid frame, off-grid frame
    def test_non_finite_pose_rejected_before_fuse(self, frame):
        # a non-finite pose cannot reach fuse_trajectory, grid frame or not:
        # the trajectory refuses it when built
        abs_traj, vo = self._noisy_loop()
        for bad in (np.nan, np.inf):
            t = abs_traj.t.copy()
            t[frame, 0] = bad
            with pytest.raises(ValueError, match="non-finite"):
                Trajectory(abs_traj.timestamps, t, abs_traj.q)
            w = vo.w.copy()
            w[frame, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                VoChain(vo.timestamps, vo.t, w)

    def test_too_short_rejected(self):
        gt = generate_trajectory("random-walk", 2, 0.5)
        with pytest.raises(ValueError):
            fuse_trajectory(gt, VoChain(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3))),
                            PgoConfig())

    def test_vo_timestamps_must_match(self):
        abs_traj, vo = self._noisy_loop(n=40)
        cfg = PgoConfig(window_T=3, spacing_k=5)
        fuse_trajectory(abs_traj, vo, cfg)
        for ts in (vo.timestamps + 0.5, np.append(vo.timestamps[:-1], 100.0)):
            with pytest.raises(ValueError, match="timestamps"):
                fuse_trajectory(abs_traj, VoChain(ts, vo.t, vo.w), cfg)
        with pytest.raises(ValueError, match="timestamps"):
            fuse_trajectory(abs_traj, VoChain(vo.timestamps[:-1], vo.t[:-1], vo.w[:-1]), cfg)


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
        base_t, base_q = np.array([1.0, 2.0, 3.0]), quat.qexp(np.array([0.2, 0, 0]))
        t, q = np.tile(base_t, (20, 1)), np.tile(base_q, (20, 1))
        t[10], q[10] = [50.0, 2.0, 3.0], quat.qexp(np.array([0, 1.0, 0]))
        out = temporal_median_filter(Trajectory(np.arange(20.0), t, q), 5)
        assert np.array_equal(out.t, np.tile(base_t, (20, 1)))
        assert np.all(rotation_error_deg(out.q, base_q) == 0.0)

    @pytest.mark.parametrize("n, window", [(60, 11), (23, 11), (11, 11), (8, 11)])
    def test_rotations_match_brute_force_medoid(self, monkeypatch, rng, n, window):
        # chunks of 7 windows: several full chunks and a partial one
        monkeypatch.setattr(pgo, "MEDIAN_CHUNK", 7)
        q = quat.canonicalize(quat.qexp(rng.normal(size=(n, 3))))
        out = temporal_median_filter(Trajectory(np.arange(float(n)), rng.normal(size=(n, 3)), q),
                                     window)
        half = window // 2
        for i in range(n):
            frames = q[max(0, i - half):i + half + 1]
            summed = np.arccos(np.clip(np.abs(frames @ frames.T), 0.0, 1.0)).sum(axis=1)
            chosen = np.flatnonzero((frames == out.q[i]).all(axis=1))
            assert len(chosen) == 1
            assert summed[chosen[0]] - summed.min() < 1e-12


@pytest.mark.parametrize("n, k", [(100, 10), (101, 10), (96, 4), (95, 7), (13, 12), (7, 2), (2, 1)])
def test_nearest_grid_index_matches_brute_force(n, k):
    # even k puts frames halfway between grid frames; the lower index wins
    grid = list(range(0, n, k))
    for f in range(n):
        expected = min(range(len(grid)), key=lambda g: abs(grid[g] - f))
        assert _nearest_grid_index(f, k, len(grid)) == expected
