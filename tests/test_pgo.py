import dataclasses
import sys

import numpy as np
import pytest

from posefusion import pgo, quat
from posefusion.pose import Trajectory, VoChain, integrate, relative_pose, rotation_error_deg
from posefusion.pgo import (
    ConstraintKind,
    FusionStats,
    PgoConfig,
    RankDeficientError,
    build_window_graph,
    fuse_trajectory,
    gauss_newton_solve,
    temporal_median_filter,
)
from posefusion.sim import NoiseModel, corrupt_absolute, corrupt_vo, generate_trajectory

from conftest import (chain_vo, fd_jacobian, linearize, objective, perturb_state, random_poses,
                      random_unit_quat, rotation_observables, safe_random_poses, single_block,
                      stack_poses, window_graph)


class TestPgoConfig:
    @pytest.mark.parametrize("field, value", [("window_T", 1), ("spacing_k", 0)])
    def test_rejects_bad_solver_options(self, field, value):
        with pytest.raises(ValueError, match=field):
            PgoConfig(**{field: value})

    def test_iteration_cap_is_not_a_constructor_field(self):
        assert PgoConfig.max_iters == PgoConfig().max_iters == 50
        with pytest.raises(TypeError, match="max_iters"):
            PgoConfig(max_iters=5)

    def test_rotation_weight_is_not_a_constructor_field(self):
        assert [f.name for f in dataclasses.fields(PgoConfig)] == ["window_T", "spacing_k"]
        with pytest.raises(TypeError, match="sigma_rot"):
            PgoConfig(sigma_rot=10.0)

    @pytest.mark.parametrize("field, value", [("spacing_k", 0), ("max_iters", 0)])
    def test_fields_cannot_change_after_validation(self, field, value):
        cfg = PgoConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cfg, field, value)
        assert cfg == PgoConfig()


class TestBuildWindowGraph:
    def test_counts(self, rng):
        for T, expected in [(2, 6), (7, 26)]:
            t, q = random_poses(rng, T)
            blocks = window_graph(t, q, *chain_vo(t, q))
            assert sum(b.obs.shape[1] for b in blocks) == expected

    def test_covariances(self, rng):
        t, q = random_poses(rng, 3)
        for b in window_graph(t, q, *chain_vo(t, q)):
            # the weight is the square root of the kind's information: 1 for
            # translations, 10 for rotations
            if b.kind in (ConstraintKind.ABS_TRANSLATION, ConstraintKind.REL_TRANSLATION):
                assert b.weight == 1.0
            else:
                assert b.weight == pgo.ROT_WEIGHT == np.sqrt(10.0)

    def test_length_mismatch(self, rng):
        t, q = random_poses(rng, 3)
        with pytest.raises(ValueError, match=r"got vo_t \(1, 0\) and vo_q \(1, 0\)"):
            window_graph(t, q, [], [])
        t, q = random_poses(rng, 14)
        t, q = t.reshape(2, 7, 3), q.reshape(2, 7, 4)
        vo_t, vo_w = relative_pose(t[:, :-1], q[:, :-1], t[:, 1:], q[:, 1:])
        vo_q = quat.qexp(vo_w)
        build_window_graph(t, q, vo_t, vo_q)
        expected = r"expected vo_t and vo_q of \(W, T - 1\) = \(2, 6\) relative poses, got "
        # a vo_q with 5 rows per window
        with pytest.raises(ValueError, match=expected + r"vo_t \(2, 6\) and vo_q \(2, 5\)$"):
            build_window_graph(t, q, vo_t, vo_q[:, :5])
        # a vo_t with 3 windows against 2
        with pytest.raises(ValueError, match=expected + r"vo_t \(3, 6\) and vo_q \(2, 6\)$"):
            build_window_graph(t, q, vo_t[[0, 1, 1]], vo_q)


class TestResidualAndJacobian:
    def test_zero_residual_at_consistent_state(self, rng):
        t, q = safe_random_poses(rng, 3)
        r, _ = linearize(window_graph(t, q, *chain_vo(t, q)), t[None], q[None])
        assert np.max(np.abs(r)) < 1e-12

    def test_identity_covariance_whitening_noop(self, rng):
        t, q = safe_random_poses(rng, 1)
        b = single_block(ConstraintKind.ABS_TRANSLATION, rng.normal(size=3), 1.0)
        r, _ = linearize([b], t[None], q[None])
        assert np.allclose(r[0], b.obs[0, 0] - t[0])

def half_turn_window(rng):
    """One window of 7 poses whose rotation observables are all near 180
    degrees, its blocks, and a state 0.05 rad from its observations.

    Window 0 of noisy_window_stack heads near 180 degrees; turning every
    other pose by a further 180 degrees puts the relative rotations near
    180 degrees too. There the scalar parts are about 0, so some observables
    and their observations lie in opposite canonical hemispheres.
    """
    _, t, q = noisy_window_stack(rng, 7)
    t, q = t[:1], q[:1].copy()
    q[:, 1::2] = quat.qmul(q[:, 1::2], quat.qexp(np.array([0.0, 0.0, np.pi / 2])))
    vo_t, vo_w = relative_pose(t[:, :-1], q[:, :-1], t[:, 1:], q[:, 1:])
    blocks = build_window_graph(t, q, vo_t, quat.qexp(vo_w))
    return blocks, t, quat.qmul(q, quat.qexp(0.05 * rng.normal(size=(1, 7, 3))))


class TestRotationSign:
    ROTATION_KINDS = [ConstraintKind.ABS_ROTATION, ConstraintKind.REL_ROTATION]

    @pytest.mark.parametrize("kind", ROTATION_KINDS)
    def test_residual_takes_the_observations_hemisphere(self, rng, kind):
        blocks, t, q = half_turn_window(rng)
        b = blocks[list(ConstraintKind).index(kind)]
        f = rotation_observables(kind, q)
        # the premise: canonicalization would compare opposite hemispheres
        assert np.any(np.sum(quat.canonicalize(f) * quat.canonicalize(b.obs), axis=-1) < 0)
        r = linearize([b], t, q)[0]
        nearest = np.minimum(np.linalg.norm(b.obs - f, axis=-1),
                             np.linalg.norm(b.obs + f, axis=-1))
        assert np.allclose(np.linalg.norm(r.reshape(nearest.shape + (4,)), axis=-1),
                           b.weight * nearest, rtol=1e-12, atol=0)
        assert np.max(nearest) < 0.2

    @pytest.mark.parametrize("kind", ROTATION_KINDS)
    def test_jacobian_matches_finite_differences_across_hemispheres(self, rng, kind):
        blocks, t, q = half_turn_window(rng)
        b = blocks[list(ConstraintKind).index(kind)]
        _, jac = linearize([b], t, q)
        fd = fd_jacobian([b], t, q)
        assert np.max(np.abs(jac[0] - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-5

    @pytest.mark.parametrize("kind", ROTATION_KINDS)
    def test_residual_is_the_same_for_q_and_minus_q(self, rng, kind):
        blocks, t, q = noisy_window_stack(rng, 5)
        b = blocks[list(ConstraintKind).index(kind)]
        r = linearize([b], t, q)[0]
        signs = rng.choice([-1.0, 1.0], size=q.shape[:-1] + (1,))
        r_flipped = linearize([b], t, signs * q)[0]
        assert np.array_equal(r_flipped, r)
        assert np.array_equal(r_flipped, linearize([b], t, -q)[0])
        # a negated observation negates the residual, so E is unchanged
        r_obs = linearize([b._replace(obs=-b.obs)], t, q)[0]
        assert np.array_equal(r_obs, -r)


class TestGaussNewton:
    def _toy_problem(self, rng, n=3, noise=0.2):
        gt_t, gt_q = safe_random_poses(rng, n)
        blocks = window_graph(gt_t, gt_q, *chain_vo(gt_t, gt_q))
        z0 = stack_poses([(t + noise * rng.normal(size=3),
                           quat.qmul(q, quat.qexp(noise * rng.normal(size=3))))
                          for t, q in zip(gt_t, gt_q)])
        return blocks, (z0[0][None], quat.canonicalize(z0[1])[None])

    def test_consistent_state_is_fixed_point(self, rng):
        t0, q0 = safe_random_poses(rng, 3)
        blocks = window_graph(t0, q0, *chain_vo(t0, q0))
        t0, q0 = t0[None], q0[None]
        t, _, iterations, step_norm, converged = gauss_newton_solve(blocks, t0, q0)
        assert iterations[0] == 1
        assert step_norm[0] < 1e-12
        assert converged[0]
        assert np.max(np.abs(t - t0)) < 1e-12

    def test_objective_never_increases_over_corpus(self, rng):
        for _ in range(20):
            blocks, (t0, q0) = self._toy_problem(rng, noise=0.1)
            t, q, *_ = gauss_newton_solve(blocks, t0, q0)
            assert objective(blocks, t, q) <= objective(blocks, t0, q0) + 1e-12

    def test_capped_window_is_not_converged(self, rng, monkeypatch):
        blocks, t0, q0 = noisy_window_stack(rng, 4)
        with monkeypatch.context() as m:
            m.setattr(PgoConfig, "max_iters", 1)
            _, _, iterations, _, converged = gauss_newton_solve(blocks, t0, q0)
        assert np.all(iterations == 1) and not converged.any()
        *_, converged = gauss_newton_solve(blocks, t0, q0)
        assert converged.all()

    def test_quaternions_stay_unit_without_renormalization(self, rng, monkeypatch):
        blocks, (t0, q0) = self._toy_problem(rng, noise=0.3)
        monkeypatch.setattr(pgo, "STEP_TOL", 0.0)  # force every iteration to run
        monkeypatch.setattr(PgoConfig, "max_iters", 200)
        _, q, *_ = gauss_newton_solve(blocks, t0, q0)
        for qi in q[0]:
            assert abs(np.linalg.norm(qi) - 1.0) < 1e-9

    def test_rank_deficiency_reported(self, rng):
        # relative constraints only: the global gauge is unobservable
        t, q = safe_random_poses(rng, 2)
        blocks = [b for b in window_graph(t, q, *chain_vo(t, q))
                  if b.kind in (ConstraintKind.REL_TRANSLATION, ConstraintKind.REL_ROTATION)]
        with pytest.raises(RankDeficientError) as err:
            gauss_newton_solve(blocks, t[None] + 0.1, q[None])
        assert len(err.value.columns) > 0

    @staticmethod
    def _straight_chain_columns(kinds):
        """Columns RankDeficientError names for the blocks of kinds on a T=4
        chain along x with identity rotations."""
        T = 4
        t = np.zeros((T, 3))
        t[:, 0] = np.arange(T)
        q = np.tile(quat.IDENTITY, (T, 1))
        blocks = [b for b in window_graph(t, q, *chain_vo(t, q)) if b.kind in kinds]
        with pytest.raises(RankDeficientError) as err:
            gauss_newton_solve(blocks, t[None] + 0.1, q[None])
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

    def test_non_finite_step_raises(self, rng):
        t, q = safe_random_poses(rng, 3)
        for bad in (np.nan, np.inf):
            blocks = window_graph(t, q, *chain_vo(t, q))
            obs = blocks[0].obs.copy()  # absolute translation of pose 0
            obs[0, 0] = [bad, 0.0, 0.0]
            blocks[0] = blocks[0]._replace(obs=obs)
            with pytest.raises(np.linalg.LinAlgError):
                gauss_newton_solve(blocks, t[None], q[None])


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
                                vo_q)
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


def assert_nan_from_failing_pivot_on(piv):
    """The pivots (T, 6) of a window whose factorization fails are finite up
    to the failing one and NaN from it on, through the remaining poses."""
    nan = np.isnan(piv.reshape(-1))
    first = np.argmax(nan)
    assert nan[first] and nan[first:].all() and np.isfinite(piv.reshape(-1)[:first]).all()


def fd_hessian(blocks, t, q, h=3e-4):
    """Hessians (W, 6T, 6T) of 1/2 |r|^2 of a window stack over the chart
    t + dt, q * qexp(e), by central second differences of the objective.

    Every perturbed state of every window is one window of a stacked
    linearize call, 1024 states to a call: linearize also builds their
    dense Jacobians."""
    n_win, T = t.shape[:2]
    n = 6 * T
    a, b = np.triu_indices(n)
    pair = np.arange(len(a))
    dz = np.zeros((4, len(a), n))
    for s, (sa, sb) in enumerate([(1, 1), (1, -1), (-1, 1), (-1, -1)]):
        dz[s, pair, a] += sa * h
        dz[s, pair, b] += sb * h
    per = dz.size // n  # perturbed states per window
    stacked = [blk._replace(obs=np.repeat(blk.obs, per, axis=0)) for blk in blocks]
    moved = perturb_state(np.repeat(t, per, axis=0), np.repeat(q, per, axis=0),
                          np.tile(dz.reshape(-1, n), (n_win, 1)))
    chunks = [slice(lo, lo + 1024) for lo in range(0, n_win * per, 1024)]
    r = np.concatenate([linearize([blk.windows(c) for blk in stacked], moved[0][c], moved[1][c])[0]
                        for c in chunks])
    e = 0.5 * np.sum(r * r, axis=-1).reshape(n_win, 4, len(a))
    hess = np.zeros((n_win, n, n))
    hess[:, a, b] = hess[:, b, a] = (e[:, 0] - e[:, 1] - e[:, 2] + e[:, 3]) / (4 * h * h)
    return hess


def first_step_state(rng, T, outlier=False):
    """noisy_window_stack's blocks and its state after one Gauss-Newton step,
    where a solver's second step starts. With outlier, window 1's absolute
    translation of its middle pose is 30 m off."""
    blocks, t, q = noisy_window_stack(rng, T)
    if outlier:
        obs = blocks[0].obs.copy()
        obs[1, T // 2] += 30.0
        blocks[0] = blocks[0]._replace(obs=obs)
    return (blocks, *perturb_state(t, q, pgo._gn_step(blocks, t, q)))


def solved_blocks(blocks, t, q, exact, monkeypatch):
    """The blocks diag and upper _gn_step hands _block_cholesky_solve."""
    got = []

    def record(diag, upper, g):
        got.append((diag, upper))
        # trust every window: a lone block can be rank-deficient
        return np.zeros_like(g), np.ones_like(g), np.ones(len(g), dtype=bool)

    with monkeypatch.context() as patch:
        patch.setattr(pgo, "_block_cholesky_solve", record)
        pgo._gn_step(blocks, t, q, exact=exact)
    return got[0]


class TestExactHessian:
    @pytest.mark.parametrize("kind", list(ConstraintKind))
    @pytest.mark.parametrize("T, outlier", [(2, False), (3, False), (7, False), (7, True)])
    def test_blocks_match_finite_difference_hessian(self, rng, monkeypatch, kind, T, outlier):
        blocks, t, q = first_step_state(rng, T, outlier)
        b = [blocks[list(ConstraintKind).index(kind)]]
        diag, upper = solved_blocks(b, t, q, True, monkeypatch)
        _, fd_diag, fd_upper = pose_blocks(fd_hessian(b, t, q))
        scale = np.max(np.abs(fd_diag))
        assert np.max(np.abs(diag - fd_diag)) / scale < 1e-5
        assert np.max(np.abs(upper - fd_upper)) / scale < 1e-5
        gn_diag, gn_upper = solved_blocks(b, t, q, False, monkeypatch)
        if kind is ConstraintKind.ABS_TRANSLATION:
            # linear in the state: the exact Hessian is J^T J
            assert np.array_equal(diag, gn_diag) and np.array_equal(upper, gn_upper)
        else:
            # the premise: the state's residual curvature is well above the tolerance
            assert np.max(np.abs(gn_diag - fd_diag)) / scale > 1e-4


class TestBlockCholesky:
    @pytest.mark.parametrize("T", [2, 3, 7])
    def test_step_matches_dense_solve(self, rng, T):
        blocks, t, q = noisy_window_stack(rng, T)
        h, g = dense_normal_equations(blocks, t, q)
        expected = np.linalg.solve(h, g[..., None])[..., 0]
        dz = pgo._gn_step(blocks, t, q)
        err = np.linalg.norm(dz - expected, axis=-1) / np.linalg.norm(expected, axis=-1)
        assert np.max(err) < 1e-10
        # an exact step solves the finite-difference Hessian's system
        t, q = perturb_state(t, q, dz)
        _, g = dense_normal_equations(blocks, t, q)
        expected = np.linalg.solve(fd_hessian(blocks, t, q), g[..., None])[..., 0]
        dz = pgo._gn_step(blocks, t, q, exact=True)
        err = np.linalg.norm(dz - expected, axis=-1) / np.linalg.norm(expected, axis=-1)
        assert np.max(err) < 1e-6

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

    def test_low_pivot_ratio_is_trusted(self, rng):
        # rotation rows weighted 1e8 more: the smallest pivot falls far below
        # MIN_PIVOT_RATIO of the largest, but every pivot stays near the root
        # of its own diagonal entry, so the window is trusted
        blocks, t, q = noisy_window_stack(rng, 3, n_win=2)
        for k in (1, 3):
            blocks[k] = blocks[k]._replace(weight=1e8 * blocks[k].weight)
        h, g = dense_normal_equations(blocks, t, q)
        _, diag, upper = pose_blocks(h)
        _, piv, ok = pgo._block_cholesky_solve(diag, upper, g.reshape(2, 3, 6))
        assert np.all(piv.min(axis=(1, 2)) < pgo.MIN_PIVOT_RATIO * piv.max(axis=(1, 2)))
        assert ok.all()
        step = pgo._gn_step(blocks, t, q)
        # the normal equations equilibrated to a unit diagonal: an SVD of J
        # itself loses about 1e-8 of the step to this spread of weights
        d = np.sqrt(np.diagonal(h, axis1=-2, axis2=-1))
        y = np.linalg.solve(h / d[:, :, None] / d[:, None, :], (g / d)[..., None])[..., 0]
        expected = y / d
        err = np.linalg.norm(step - expected, axis=-1) / np.linalg.norm(expected, axis=-1)
        assert np.max(err) < 1e-10

    def test_weakly_observed_gauge_is_rank_deficient(self, rng):
        # absolute translations weighted 1e-7: the window's translation
        # gauge is observed only through them, its block step is no longer
        # accurate, and no pivot ratio of J^T J says otherwise
        blocks, t, q = noisy_window_stack(rng, 3, n_win=2)
        blocks[0] = blocks[0]._replace(weight=1e-7 * blocks[0].weight)
        h, g = dense_normal_equations(blocks, t, q)
        _, diag, upper = pose_blocks(h)
        _, _, ok = pgo._block_cholesky_solve(diag, upper, g.reshape(2, 3, 6))
        assert not ok.any()
        with pytest.raises(RankDeficientError) as err:
            pgo._gn_step(blocks, t, q)
        assert err.value.columns == [0, 1, 2, 6, 7, 8, 12, 13, 14]

    def test_not_positive_definite_window_is_untrusted_alone(self, rng, monkeypatch):
        blocks, t, q = noisy_window_stack(rng, 3, n_win=3)
        solve = pgo._block_cholesky_solve

        def not_positive_definite(diag, upper, g):
            diag = diag.copy()
            diag[0, 1, 0, 0] = -1.0  # window 0, pose 1
            return solve(diag, upper, g)

        h, g = dense_normal_equations(blocks, t, q)
        _, diag, upper = pose_blocks(h)
        g = g.reshape(3, 3, 6)
        dz, piv, ok = not_positive_definite(diag, upper, g)
        assert ok.tolist() == [False, True, True]
        assert np.isnan(dz[0]).all()
        assert_nan_from_failing_pivot_on(piv[0])
        assert np.isfinite(piv[0, 0]).all()  # pose 0 factors before pose 1 fails
        # the other windows get the bits they get without window 0
        dz_rest, piv_rest, ok_rest = solve(diag[1:], upper[1:], g[1:])
        assert ok_rest.all()
        assert np.array_equal(dz[1:], dz_rest) and np.array_equal(piv[1:], piv_rest)

        gauss_newton = pgo._gn_step([b.windows([0]) for b in blocks], t[:1], q[:1])
        rest = pgo._gn_step([b.windows([1, 2]) for b in blocks], t[1:], q[1:], exact=True)
        calls = []

        def exact_not_positive_definite(diag, upper, g):
            # only the exact step's matrix: the Gauss-Newton re-solve is not
            # touched
            calls.append(len(g))
            return (not_positive_definite if len(calls) == 1 else solve)(diag, upper, g)

        with monkeypatch.context() as patch:
            patch.setattr(pgo, "_block_cholesky_solve", exact_not_positive_definite)
            dz = pgo._gn_step(blocks, t, q, exact=True)
        assert calls == [3, 1]
        assert np.array_equal(dz[0], gauss_newton[0])
        assert np.array_equal(dz[1:], rest)
        monkeypatch.setattr(pgo, "_block_cholesky_solve", not_positive_definite)
        with pytest.raises(RankDeficientError):
            pgo._gn_step(blocks, t, q)

    @pytest.mark.parametrize("seed", range(5))
    def test_indefinite_exact_hessian_takes_gauss_newton_step(self, monkeypatch, seed):
        blocks, t, q = first_step_state(np.random.default_rng(seed), 7, outlier=True)
        rest = [pgo._gn_step([b.windows([w]) for b in blocks], t[[w]], q[[w]], exact=True)[0]
                for w in (0, 2, 3)]
        alone = [b.windows([1]) for b in blocks]
        gauss_newton = pgo._gn_step(alone, t[[1]], q[[1]])[0]
        solve, solved = pgo._block_cholesky_solve, []

        def recorded(diag, upper, g):
            solved.append(solve(diag, upper, g))
            return solved[-1]

        monkeypatch.setattr(pgo, "_block_cholesky_solve", recorded)
        dz = pgo._gn_step(blocks, t, q, exact=True)
        # the premise: the 30 m outlier leaves window 1's exact Hessian
        # indefinite, and only window 1's
        _, piv, ok = solved[0]
        assert ok.tolist() == [True, False, True, True]
        assert_nan_from_failing_pivot_on(piv[1])
        assert np.array_equal(dz[1], gauss_newton)
        r, jac = linearize(alone, t[[1]], q[[1]])
        expected = np.linalg.lstsq(jac[0], r[0], rcond=None)[0]
        assert np.linalg.norm(dz[1] - expected) / np.linalg.norm(expected) < 1e-10
        assert np.array_equal(dz[[0, 2, 3]], rest)

    def test_windows_failing_at_different_poses_are_untrusted_alone(self, rng):
        blocks, t, q = noisy_window_stack(rng, 4, n_win=6)
        h, g = dense_normal_equations(blocks, t, q)
        _, diag, upper = pose_blocks(h)
        g = g.reshape(6, 4, 6)
        # window: (pose, coordinate) of a diagonal entry made negative
        failing = {0: (0, 0), 2: (1, 4), 3: (3, 5), 5: (2, 2)}
        diag = diag.copy()
        for w, (k, c) in failing.items():
            diag[w, k, c, c] = -1.0
        dz, piv, ok = pgo._block_cholesky_solve(diag, upper, g)
        assert ok.tolist() == [w not in failing for w in range(6)]
        for w, (k, c) in failing.items():
            assert np.isnan(dz[w]).all()
            assert_nan_from_failing_pivot_on(piv[w])
            # the factorization fails at that entry, not before
            assert np.argmax(np.isnan(piv[w].reshape(-1))) == 6 * k + c
        for w in set(range(6)) - set(failing):
            alone = pgo._block_cholesky_solve(diag[[w]], upper[[w]], g[[w]])
            assert np.array_equal(dz[w], alone[0][0]) and np.array_equal(piv[w], alone[1][0])

    def test_zero_pivot_is_untrusted(self):
        # J^T J whose last column is zero: that last pivot is 0, as is its
        # diagonal entry, so only a pivot that must be positive fails it
        h = np.diag([1.0, 1.0, 1.0, 1.0, 1.0, 0.0])[None, None]
        dz, piv, ok = pgo._block_cholesky_solve(h, np.zeros((1, 0, 6, 6)), np.ones((1, 1, 6)))
        assert not ok.any()
        assert np.array_equal(piv[0, 0, :5], np.ones(5)) and np.isnan(piv[0, 0, 5])
        assert np.isnan(dz).all()


class TestCholeskyInverse:
    def test_matches_numpy_inverse(self, rng):
        a = rng.normal(size=(50, 6, 6))
        s = a @ a.swapaxes(-1, -2) + 0.1 * np.eye(6)
        inv, piv = pgo._cholesky_inverse(s)
        low = np.linalg.cholesky(s)
        assert np.array_equal(np.triu(inv, 1), np.zeros_like(inv))
        assert np.max(np.abs(inv - np.linalg.inv(low))) / np.max(np.abs(inv)) < 1e-13
        k = np.arange(6)
        assert np.max(np.abs(piv - low[:, k, k]) / low[:, k, k]) < 1e-13

    def test_widely_scaled_factors_are_trusted(self, rng):
        # S M S with M well conditioned and S scaling the poses' coordinates
        # from 1 down to 1e-150: each pivot stays near the root of its own
        # diagonal entry, so every window is trusted
        a = rng.normal(size=(20, 6, 6))
        m = a @ a.swapaxes(-1, -2) / 6 + np.eye(6)
        s = np.array([rng.permutation(np.geomspace(1.0, 1e-150, 6)) for _ in range(20)])
        h = s[:, :, None] * m * s[:, None, :]
        no_upper, g = np.zeros((20, 0, 6, 6)), np.ones((20, 1, 6))
        assert pgo._block_cholesky_solve(h[:, None], no_upper, g)[2].all()
        low = np.linalg.cholesky(h)
        k = np.arange(6)
        inv, piv = pgo._cholesky_inverse(h)
        ref = np.linalg.inv(low)
        assert np.array_equal(inv[:, k, k], 1.0 / piv)
        assert np.max(np.abs(piv - low[:, k, k]) / low[:, k, k]) < 1e-13
        # relative to each column of L^-1, which scales with 1 / its pivot
        column = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(inv - ref) / column) < 1e-12
        assert np.max(np.abs(inv @ low - np.eye(6))) < 1e-12

    @pytest.mark.parametrize("ratio", [0.5, 2.0])
    def test_pivot_ratio_near_the_trust_bound(self, rng, ratio):
        # coordinate columns 0 and 1 of J ratio * MIN_PIVOT_RATIO rad apart:
        # pivot 1 over the root of its diagonal entry is the sine of that
        # angle, so the window is trusted only when ratio > 1
        j = np.linalg.qr(rng.normal(size=(20, 12, 6)))[0]
        angle = ratio * pgo.MIN_PIVOT_RATIO
        j[..., 1] = np.cos(angle) * j[..., 0] + np.sin(angle) * j[..., 1]
        h = j.swapaxes(-1, -2) @ j
        no_upper, g = np.zeros((20, 0, 6, 6)), np.ones((20, 1, 6))
        ok = pgo._block_cholesky_solve(h[:, None], no_upper, g)[2]
        assert np.all(ok == (ratio > 1.0))


class TestSolverStacks:
    def test_stacks_hold_at_most_fuse_batch_windows(self, rng, monkeypatch):
        monkeypatch.setattr(pgo, "FUSE_BATCH", 3)
        n_win = 2 * pgo.FUSE_BATCH + 1
        blocks, t0, q0 = noisy_window_stack(rng, 4, n_win=n_win)
        single = [gauss_newton_solve([b.windows([w]) for b in blocks], t0[[w]], q0[[w]])
                  for w in range(n_win)]
        stacks = []
        gn_step = pgo._gn_step

        def recorded(blocks, t, q, exact=False):
            stacks.append(len(t))
            return gn_step(blocks, t, q, exact)

        monkeypatch.setattr(pgo, "_gn_step", recorded)
        t, q, iterations, step_norm, converged = gauss_newton_solve(blocks, t0, q0)
        assert max(stacks) == pgo.FUSE_BATCH
        assert sum(stacks) == iterations.sum()
        for w, (t_w, q_w, iterations_w, step_norm_w, converged_w) in enumerate(single):
            assert np.array_equal(t[w], t_w[0]) and np.array_equal(q[w], q_w[0])
            assert iterations[w] == iterations_w[0] and step_norm[w] == step_norm_w[0]
            assert converged[w] == converged_w[0]


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

    def test_heavy_rotation_weight_converges(self, monkeypatch):
        # a rotation weight of 1e10 spreads each window's pivots over ten
        # orders of magnitude; every window still converges in a few steps
        monkeypatch.setattr(pgo, "ROT_WEIGHT", 1e10)
        gt = generate_trajectory("loop", 1000, 0.1)
        nm = NoiseModel(abs_t_sigma=0.5, abs_r_sigma=5, vo_t_sigma=0.01,
                        vo_r_sigma=0.1, vo_t_bias=0.01, seed=0)
        stats = FusionStats()
        fuse_trajectory(corrupt_absolute(gt, nm), corrupt_vo(gt, nm),
                        PgoConfig(spacing_k=10), stats)
        # 100 grid poses: windows start at 0, 3, ..., 90 and 93
        assert len(stats.window_converged) == 32
        assert all(stats.window_converged)
        assert max(stats.window_iterations) <= 4

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

    def _noisy_loop(self, n=200, seed=3):
        gt = generate_trajectory("loop", n, 0.1)
        nm = NoiseModel(abs_t_sigma=0.3, abs_r_sigma=3, vo_t_sigma=0.01,
                        vo_r_sigma=0.1, vo_t_bias=0.01, seed=seed)
        return corrupt_absolute(gt, nm), corrupt_vo(gt, nm)

    def test_batches_match_single_window_solver(self, monkeypatch):
        # 20 grid poses give 6 windows at stride T - 4 = 3, starting at 0, 3,
        # 6, 9, 12 and 13: a batch of 4 and a partial one
        monkeypatch.setattr(pgo, "FUSE_BATCH", 4)
        abs_traj, vo = self._noisy_loop()
        cfg = PgoConfig(window_T=7, spacing_k=10)
        stats = FusionStats()
        fused = fuse_trajectory(abs_traj, vo, cfg, stats)

        grid = list(range(0, len(abs_traj), cfg.spacing_k))
        vo_t, vo_q = integrate(abs_traj.t[0], abs_traj.q[0], vo)
        grid_t, grid_w = chain_vo(vo_t[grid], vo_q[grid])
        T = cfg.window_T
        starts = [0, 3, 6, 9, 12, 13]
        solved, iterations = [], []
        for a in starts:
            frames = grid[a:a + T]
            abs_t, abs_q = abs_traj.t[frames], abs_traj.q[frames]
            blocks = window_graph(abs_t, abs_q, grid_t[a:a + T - 1], grid_w[a:a + T - 1])
            t, q, its, *_ = gauss_newton_solve(blocks, abs_t[None], abs_q[None])
            solved.append((t[0], q[0]))
            iterations.append(int(its[0]))
        assert stats.window_iterations == iterations
        # each grid pose from the window whose centre a + (T - 1) / 2 is
        # nearest it; min takes the earlier of two equally near windows
        for g, frame in enumerate(grid):
            w = min(range(len(starts)), key=lambda w: abs(starts[w] + (T - 1) / 2 - g))
            t, q = solved[w]
            assert np.max(np.abs(fused.t[frame] - t[g - starts[w]])) < 1e-12
            assert np.max(np.abs(fused.q[frame] - quat.canonicalize(q[g - starts[w]]))) < 1e-12

    @pytest.mark.parametrize("G, T", [
        (7, 7),                       # G == T: one window
        (5, 7),                       # fewer grid poses than window_T: one window
        (8, 7),                       # G = T + 1: windows at 0 and 1
        (9, 7),                       # windows at 0 and 2: pose 4 ties, goes to 0
        (27, 7), (100, 7),            # stride 3, last window 1 and 0 after the one before
        (20, 6), (21, 6),             # even T: stride 2
        (20, 5), (20, 4), (20, 3), (20, 2), (2, 2),  # T <= 5: stride 1
    ])
    def test_window_starts_and_emission(self, monkeypatch, G, T):
        # grid pose g has abs translation (g, 0, 0), which tells the solver
        # each window's start; it returns (w, i, 0) as pose i of window w, so
        # each fused grid pose names the window and the offset it came from
        starts = []

        def marking_solve(blocks, t, q):
            starts.extend(t[:, 0, 0].astype(int).tolist())
            marks = np.zeros(t.shape)
            marks[..., 0] = np.arange(t.shape[0])[:, None]
            marks[..., 1] = np.arange(t.shape[1])
            steps = np.ones(len(t), dtype=int)
            return marks, q, steps, np.zeros(len(t)), steps == 1

        monkeypatch.setattr(pgo, "gauss_newton_solve", marking_solve)
        timestamps = np.arange(G, dtype=float)
        t = np.zeros((G, 3))
        t[:, 0] = np.arange(G)
        abs_traj = Trajectory(timestamps, t, np.tile([1.0, 0.0, 0.0, 0.0], (G, 1)))
        vo = VoChain(timestamps[1:], np.zeros((G - 1, 3)), np.zeros((G - 1, 3)))
        fused = fuse_trajectory(abs_traj, vo, PgoConfig(window_T=T, spacing_k=1))

        T = min(T, G)
        assert starts == list(range(0, G - T, max(1, T - 4))) + [G - T]
        window, offset = fused.t[:, 0].astype(int), fused.t[:, 1].astype(int)
        # every grid pose comes from its own place in one window
        assert np.array_equal(np.asarray(starts)[window] + offset, np.arange(G))
        assert set(window.tolist()) == set(range(len(starts)))
        context = min(2, (T - 1) // 2)
        for g in range(G):
            # doubled distances to the centres; argmin takes the earlier of a tie
            assert window[g] == np.argmin(np.abs(2 * np.asarray(starts) + T - 1 - 2 * g))
            assert offset[g] >= min(context, g)
            assert T - 1 - offset[g] >= min(context, G - 1 - g)

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

    @pytest.mark.parametrize("n, message", [
        (0, "need at least 2 poses"),
        (1, "need at least 2 poses"),
        (2, "expected 1 per-frame relative poses"),  # two poses need one relative pose
    ])
    def test_too_short_rejected(self, n, message):
        gt = generate_trajectory("random-walk", 2, 0.5)
        with pytest.raises(ValueError, match=message):
            fuse_trajectory(Trajectory(gt.timestamps[:n], gt.t[:n], gt.q[:n]),
                            VoChain(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 3))),
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

    def test_empty_trajectory_passes_through(self):
        traj = Trajectory(np.zeros(0), np.zeros((0, 3)), np.zeros((0, 4)))
        assert len(temporal_median_filter(traj, 51)) == 0

    def test_single_spike_removed(self):
        base_t, base_q = np.array([1.0, 2.0, 3.0]), quat.qexp(np.array([0.2, 0, 0]))
        t, q = np.tile(base_t, (20, 1)), np.tile(base_q, (20, 1))
        t[10], q[10] = [50.0, 2.0, 3.0], quat.qexp(np.array([0, 1.0, 0]))
        out = temporal_median_filter(Trajectory(np.arange(20.0), t, q), 5)
        assert np.array_equal(out.t, np.tile(base_t, (20, 1)))
        assert np.all(rotation_error_deg(out.q, base_q) == 0.0)

    def test_angle_of_a_frame_to_itself_is_zero(self, rng):
        # x * x rounds to 1 - 2^-52 for x, the largest float below 1: a unit
        # quaternion within rounding whose self-dot is below 1 in any order
        x = np.nextafter(1.0, 0.0)
        q = np.concatenate(([[x, 0.0, 0.0, 0.0]], quat.qexp(rng.normal(size=(40, 3)))))
        assert q[0] @ q[0] < 1.0
        assert np.all(np.diagonal(pgo._pairwise_angles(q)) == 0.0)

    @pytest.mark.parametrize("angle", [1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 0.1, 3.0])
    def test_angles_match_rotation_error(self, rng, angle):
        # half the angle between the rotations, for pairs from 1e-9 rad to
        # 3 rad apart: arccos |<a, b>| alone reads 1e-9 rad as 0 and is
        # still 0.05% high at 1e-6 rad. Either sign of b gives the same angle.
        axes = rng.normal(size=(4, 3))
        a = quat.qexp(rng.normal(size=(4, 3)))
        b = quat.qmul(a, quat.qexp(axes * (angle / 2 / np.linalg.norm(axes, axis=1))[:, None]))
        for qa, qb in zip(a, b * np.array([[1.0], [-1.0], [1.0], [-1.0]])):
            pair = pgo._pairwise_angles(np.stack([qa, qb]))
            assert pair[0, 1] == pair[1, 0]
            assert pair[0, 1] == pytest.approx(np.radians(rotation_error_deg(qa, qb)) / 2,
                                               rel=1e-6)
