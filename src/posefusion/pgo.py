"""On-manifold Gauss-Newton pose-graph optimization and window fusion.

The state is a stack of windows of poses, t (W, T, 3) and q (W, T, 4); each
pose contributes 6 manifold coordinates (3 translation + 3 rotation) while
being stored as 7 numbers. Constraints are grouped per kind into arrays of
observations, whiteners and pose indices shared by every window of the
stack, and one kernel linearizes them all: each yields a whitened residual
r = L^T (k - f(z)) and Jacobian J = L^T df/d(manifold coords), where the
covariance S = L L^T. Rotation blocks are chained through the
quaternion-product derivative and the constant derivative of the
exponential map at zero, and the update is z ⊞ dz: translations add,
rotations right-multiply by qexp(dw). The windows of a stack are solved
independently, each stopping on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np
import scipy.linalg

from . import quat
from .pose import Pose, RelativePose, Trajectory, compose, integrate, relative_pose


class ConstraintKind(Enum):
    ABS_TRANSLATION = "abs-t"
    ABS_ROTATION = "abs-r"
    REL_TRANSLATION = "rel-t"
    REL_ROTATION = "rel-r"


_RELATIVE_KINDS = (ConstraintKind.REL_TRANSLATION, ConstraintKind.REL_ROTATION)

# Windows that fuse_trajectory linearizes and solves together. The dense
# per-batch Jacobian grows with it: solving all 394 windows of a
# 4000-frame k=10 fuse in one batch raised peak RSS by 59% over solving one
# window at a time, batches of 32 by 2%.
FUSE_BATCH = 32

# Smallest accepted ratio of the smallest to the largest diagonal entry of a
# window's Cholesky factor. A window below it, or whose normal matrix is not
# positive-definite, is solved by lstsq, whose SVD rank check decides
# whether the window is rank-deficient.
MIN_PIVOT_RATIO = 1e-6


def _whitener(covariance: np.ndarray) -> np.ndarray:
    """Upper-triangular L^T from covariance = L L^T."""
    return np.linalg.cholesky(covariance).T


@dataclass
class Constraint:
    """One residual block of the pose graph.

    observation is a 3-vector for translations and a 4-vector quaternion
    for rotations; covariance must be symmetric positive-definite.
    """

    kind: ConstraintKind
    i: int
    j: int | None
    observation: np.ndarray
    covariance: np.ndarray
    # Upper-triangular whitener L^T from covariance = L L^T, cached.
    _lt: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.observation = np.asarray(self.observation, dtype=float)
        self.covariance = np.asarray(self.covariance, dtype=float)
        if (self.j is not None) != (self.kind in _RELATIVE_KINDS):
            raise ValueError("second index j must be present iff the kind is relative")
        dim = 3 if self.kind in (ConstraintKind.ABS_TRANSLATION,
                                 ConstraintKind.REL_TRANSLATION) else 4
        if self.observation.shape != (dim,):
            raise ValueError(f"{self.kind.value} observation must have shape ({dim},)")
        if self.covariance.shape != (dim, dim):
            raise ValueError(f"{self.kind.value} covariance must be {dim}x{dim}")
        try:
            self._lt = _whitener(self.covariance)
        except np.linalg.LinAlgError as exc:
            raise ValueError("covariance is not positive-definite") from exc


@dataclass
class PgoConfig:
    """Window size, frame spacing, covariance tuning and solver controls."""

    window_T: int = 7
    spacing_k: int = 150
    sigma_rot: float = 10.0
    max_iters: int = 50
    step_tol: float = 1e-8

    def __post_init__(self):
        if self.window_T < 2:
            raise ValueError("window_T must be >= 2")
        if self.spacing_k < 1:
            raise ValueError("spacing_k must be >= 1")
        if self.sigma_rot <= 0:
            raise ValueError("sigma_rot must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


class RankDeficientError(RuntimeError):
    """Stacked Jacobian lost full column rank."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"rank-deficient system; offending manifold columns {self.columns}")


class _Block(NamedTuple):
    """Every constraint of one kind, in a stack of identically built windows."""

    kind: ConstraintKind
    i: np.ndarray  # (m,) pose index within the window
    j: np.ndarray | None  # (m,) second pose index, relative kinds only
    obs: np.ndarray  # (W, m, d) observations
    lt: np.ndarray  # (m, d, d) whiteners L^T

    def windows(self, sel) -> "_Block":
        """The same constraints in the windows sel of the stack."""
        return self._replace(obs=self.obs[sel])


def _blocks(constraints: list[Constraint]) -> list[_Block]:
    """A constraint list as per-kind blocks of a stack of one window."""
    groups: dict[ConstraintKind, list[Constraint]] = {}
    for c in constraints:
        groups.setdefault(c.kind, []).append(c)
    return [_Block(kind, np.array([c.i for c in group]),
                   np.array([c.j for c in group]) if kind in _RELATIVE_KINDS else None,
                   np.array([[c.observation for c in group]]),
                   np.array([c._lt for c in group]))
            for kind in ConstraintKind if (group := groups.get(kind))]


def _linearize(blocks: list[_Block], t: np.ndarray, q: np.ndarray,
               jacobian: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Whitened residuals (W, M) and Jacobians (W, M, 6T) of a window stack.

    Rows run block by block, constraint by constraint. The first-order
    change of the residual along dz is -J dz. Rotation observables are
    hemisphere-canonicalized (scalar part >= 0) before the comparison, with
    the sign folded into the Jacobian. With jacobian=False only the
    residuals are computed, and None stands in for the Jacobians.
    """
    n_win, T = t.shape[:2]
    residuals, jacobians = [], []
    for b in blocks:
        m, d = b.obs.shape[1:]
        c = np.arange(m)
        # Derivative rows of constraint c over the 6 coordinates of each
        # window pose; jac[:, c, b.i] is the block of its pose i. Rotation
        # columns chain through quat.EXP_DERIV_AT_ZERO = [0; I3], i.e. they
        # keep the last three columns of the 4x4 derivative.
        jac = np.zeros((n_win, m, T, d, 6)) if jacobian else None
        if b.kind is ConstraintKind.ABS_TRANSLATION:
            f = t[:, b.i]
            if jacobian:
                jac[:, c, b.i, :, :3] = np.eye(3)
        elif b.kind is ConstraintKind.ABS_ROTATION:
            f = quat.canonicalize(q[:, b.i])
            if jacobian:
                jac[:, c, b.i, :, 3:] = quat.dqmul_left(f)[..., 1:]
        elif b.kind is ConstraintKind.REL_TRANSLATION:
            qj = q[:, b.j]
            dt = t[:, b.i] - t[:, b.j]
            f = quat.qrotate(qj, dt)
            if jacobian:
                rot = quat.to_matrix(qj)
                jac[:, c, b.i, :, :3] = rot
                jac[:, c, b.j, :, :3] = -rot
                jac[:, c, b.j, :, 3:] = quat.drotate_dq(qj, dt) @ quat.dqmul_left(qj)[..., 1:]
        else:  # REL_ROTATION
            f_raw = quat.qmul(quat.qinv(q[:, b.j]), q[:, b.i])
            sign = np.where(f_raw[..., :1] < 0.0, -1.0, 1.0)
            f = sign * f_raw
            if jacobian:
                jac[:, c, b.i, :, 3:] = sign[..., None] * quat.dqmul_left(f_raw)[..., 1:]
                # d(conj(qj * e) * qi)/de: the conjugation negates the vector part
                jac[:, c, b.j, :, 3:] = -sign[..., None] * quat.dqmul_right(f_raw)[..., 1:]
        residuals.append((b.lt @ (b.obs - f)[..., None]).reshape(n_win, -1))
        if jacobian:
            jac = jac.transpose(0, 1, 3, 2, 4).reshape(n_win, m, d, 6 * T)
            jacobians.append((b.lt @ jac).reshape(n_win, -1, 6 * T))
    r = np.concatenate(residuals, axis=1)
    return r, np.concatenate(jacobians, axis=1) if jacobian else None


def _state(z: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """A pose list as a stack of one window."""
    return np.array([[p.t for p in z]]), np.array([[p.q for p in z]])


def build_window_graph(abs_poses: list[Pose], vo: list[RelativePose],
                       cfg: PgoConfig) -> list[Constraint]:
    """Constraints for one window: per-pose absolute + consecutive relative.

    Absolute translations carry identity covariance; rotation constraints
    carry sigma_rot * I4. Total 2T + 2(T-1) constraints, grouped per pose
    with absolute before relative.
    """
    T = len(abs_poses)
    if len(vo) != T - 1:
        raise ValueError(f"expected {T - 1} relative poses for {T} absolute poses, got {len(vo)}")
    eye3 = np.eye(3)
    sig4 = cfg.sigma_rot * np.eye(4)
    constraints: list[Constraint] = []
    for i, p in enumerate(abs_poses):
        constraints.append(Constraint(ConstraintKind.ABS_TRANSLATION, i, None, p.t, eye3))
        constraints.append(Constraint(ConstraintKind.ABS_ROTATION, i, None,
                                      quat.canonicalize(p.q), sig4))
        if i < T - 1:
            constraints.append(Constraint(ConstraintKind.REL_TRANSLATION, i, i + 1,
                                          vo[i].t, eye3))
            constraints.append(Constraint(ConstraintKind.REL_ROTATION, i, i + 1,
                                          quat.canonicalize(vo[i].q), sig4))
    return constraints


def residual_and_jacobian(c: Constraint, z: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """Whitened residual and Jacobian rows over the 6T manifold coordinates.

    The residual is L^T (k - f(z)); the Jacobian is L^T df/d(dz) so that
    the first-order change of the residual along dz is -J dz. Rotation
    observables are hemisphere-canonicalized (scalar part >= 0) before the
    comparison, with the sign folded into the Jacobian.
    """
    r, jac = _linearize(_blocks([c]), *_state(z))
    return r[0], jac[0]


def objective(constraints: list[Constraint], z: list[Pose]) -> float:
    """Total whitened squared error E(z) = sum_c (k - f)^T S (k - f)."""
    r, _ = _linearize(_blocks(constraints), *_state(z), jacobian=False)
    return float(r[0] @ r[0])


def _cho_solve(low: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve L L^T x = b for a stack of lower-triangular factors L (W, n, n)."""
    n = b.shape[-1]
    y = np.empty_like(b)
    for k in range(n):
        y[:, k] = (b[:, k] - np.einsum("wi,wi->w", low[:, k, :k], y[:, :k])) / low[:, k, k]
    x = np.empty_like(b)
    for k in reversed(range(n)):
        x[:, k] = (y[:, k] - np.einsum("wi,wi->w", low[:, k + 1:, k], x[:, k + 1:])) / low[:, k, k]
    return x


def _certified_cholesky(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cholesky factors of a stack of normal matrices, and which to trust.

    A factor is trusted when the factorization succeeds and its smallest
    diagonal entry is at least MIN_PIVOT_RATIO times its largest.
    """
    try:
        low = np.linalg.cholesky(h)
        ok = np.ones(len(h), dtype=bool)
    except np.linalg.LinAlgError:
        # some window is not positive-definite; find it one window at a time
        low = np.zeros_like(h)
        ok = np.zeros(len(h), dtype=bool)
        for w in range(len(h)):
            try:
                low[w] = np.linalg.cholesky(h[w])
                ok[w] = True
            except np.linalg.LinAlgError:
                pass
    piv = np.diagonal(low, axis1=-2, axis2=-1)
    ok &= piv.min(axis=-1) >= MIN_PIVOT_RATIO * piv.max(axis=-1)
    return low, ok


def _gn_step(blocks: list[_Block], t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One Gauss-Newton step dz (W, 6T) for every window of the stack.

    Each window solves its normal equations J^T J dz = J^T r through a
    certified Cholesky factor; a window without one is solved by least
    squares on J itself, and raises RankDeficientError when J has lost
    full column rank.
    """
    r, jac = _linearize(blocks, t, q)
    jac_t = jac.transpose(0, 2, 1)
    h = jac_t @ jac
    g = (jac_t @ r[..., None])[..., 0]
    if not (np.isfinite(h).all() and np.isfinite(g).all()):
        raise np.linalg.LinAlgError("Gauss-Newton step is not finite: NaN or inf in the "
                                    "observations or the starting poses")
    low, ok = _certified_cholesky(h)
    dz = np.empty_like(g)
    dz[ok] = _cho_solve(low[ok], g[ok])
    n_cols = jac.shape[-1]
    for w in np.flatnonzero(~ok):
        dz[w], _, rank, _ = np.linalg.lstsq(jac[w], r[w], rcond=None)
        if rank < n_cols:
            _, rmat, piv = scipy.linalg.qr(jac[w], mode="economic", pivoting=True)
            diag = np.abs(np.diag(rmat))
            bad = sorted(int(piv[k]) for k in range(len(diag)) if diag[k] <= diag[0] * 1e-12)
            raise RankDeficientError(bad or list(piv[rank:]))
    return dz


def _solve_windows(blocks: list[_Block], t: np.ndarray, q: np.ndarray, cfg: PgoConfig):
    """Gauss-Newton over a stack of windows from the state (t, q).

    Every window iterates until its own step norm drops below step_tol or
    it has taken max_iters steps; windows still iterating are linearized
    together. Returns the final t and q, and per window the number of
    steps taken and the norm of the last one.
    """
    t, q = t.copy(), q.copy()
    n_win, T = t.shape[:2]
    iterations = np.zeros(n_win, dtype=int)
    step_norm = np.full(n_win, np.inf)
    active = np.arange(n_win)
    for _ in range(cfg.max_iters):
        sub = [b.windows(active) for b in blocks]
        dz = _gn_step(sub, t[active], q[active])
        step = dz.reshape(len(active), T, 6)
        t[active] += step[..., :3]
        q[active] = quat.qmul(q[active], quat.qexp(step[..., 3:]))
        iterations[active] += 1
        step_norm[active] = np.linalg.norm(dz, axis=-1)
        active = active[step_norm[active] >= cfg.step_tol]
        if not active.size:
            break
    return t, q, iterations, step_norm


@dataclass
class SolveStats:
    iterations: int = 0
    final_objective: float = 0.0
    final_step_norm: float = 0.0


def gauss_newton_solve(constraints: list[Constraint], z0: list[Pose],
                       cfg: PgoConfig, stats: SolveStats | None = None) -> list[Pose]:
    """Iterate stacked linearization until the step norm drops below tol.

    The constraints form a stack of one window, solved by the same kernel
    that fuse_trajectory runs on batches of windows: each iteration solves
    min ||J dz - r||^2 through the normal equations (see _gn_step), then
    applies the manifold update. Raises RankDeficientError when the
    Jacobian loses full column rank, and numpy.linalg.LinAlgError when a
    step is not finite.
    """
    blocks = _blocks(constraints)
    t, q, iterations, step_norm = _solve_windows(blocks, *_state(z0), cfg)
    if stats is not None:
        stats.iterations = int(iterations[0])
        stats.final_step_norm = float(step_norm[0])
        r, _ = _linearize(blocks, t, q, jacobian=False)
        stats.final_objective = float(r[0] @ r[0])
    return [Pose(ti, qi) for ti, qi in zip(t[0], q[0])]


@dataclass
class FusionStats:
    """Per-window diagnostics collected by fuse_trajectory when requested."""

    window_iterations: list[int] = field(default_factory=list)


def _grid_indices(n: int, k: int) -> list[int]:
    return list(range(0, n, k))


def _nearest_grid_index(frame: int, k: int, n_grid: int) -> int:
    """Index into the grid 0, k, 2k, ... of the grid frame nearest to frame.

    Ties go to the lower index; frames past the last grid frame map to it.
    """
    return min((frame + (k - 1) // 2) // k, n_grid - 1)


def _window_blocks(abs_t: np.ndarray, abs_q: np.ndarray, vo_t: np.ndarray,
                   vo_q: np.ndarray, cfg: PgoConfig) -> list[_Block]:
    """Per-kind blocks of a window stack, as build_window_graph would make them.

    abs_t (W, T, 3) and abs_q (W, T, 4) are each window's absolute
    observations, vo_t (W, T-1, 3) and vo_q (W, T-1, 4) its relative ones
    between consecutive poses; quaternions must be canonical.
    """
    T = abs_t.shape[1]
    idx = np.arange(T)
    lt3 = np.broadcast_to(_whitener(np.eye(3)), (T, 3, 3))
    lt4 = np.broadcast_to(_whitener(cfg.sigma_rot * np.eye(4)), (T, 4, 4))
    return [
        _Block(ConstraintKind.ABS_TRANSLATION, idx, None, abs_t, lt3),
        _Block(ConstraintKind.ABS_ROTATION, idx, None, abs_q, lt4),
        _Block(ConstraintKind.REL_TRANSLATION, idx[:-1], idx[1:], vo_t, lt3[:-1]),
        _Block(ConstraintKind.REL_ROTATION, idx[:-1], idx[1:], vo_q, lt4[:-1]),
    ]


def fuse_trajectory(abs_traj: Trajectory, vo: list[RelativePose], cfg: PgoConfig,
                    stats: FusionStats | None = None) -> Trajectory:
    """Refine absolute poses with per-frame VO via moving-window optimization.

    Grid frames spaced spacing_k apart are optimized in overlapping windows
    of window_T poses (stride 1, newest pose emitted; the first window
    emits all of its poses). Each window's optimum depends only on its own
    observations, so every window starts from its absolute poses and the
    windows are solved independently, FUSE_BATCH at a time. Grid-step VO
    observations come from the integrated VO trajectory, and frames off the
    grid are carried through by composing the nearest refined grid pose
    with the intermediate VO.
    """
    n = len(abs_traj)
    if n < 2:
        raise ValueError("need at least 2 poses to fuse")
    if len(vo) != n - 1:
        raise ValueError(f"expected {n - 1} per-frame relative poses, got {len(vo)}")

    k = cfg.spacing_k
    if (n - 1) // k < 1:
        # Too short for the requested spacing: single window over all frames
        # reachable at the widest spacing that still yields 2 grid poses.
        k = n - 1
    grid = _grid_indices(n, k)
    if len(grid) < 2:
        raise ValueError("trajectory too short for any window")
    T = min(cfg.window_T, len(grid))

    # Smooth-but-drifty trajectory from integrating the VO chain; grid-step
    # relative observations are taken between its samples.
    vo_traj = integrate(abs_traj.poses[0], vo)
    grid_vo = [relative_pose(vo_traj[grid[g]], vo_traj[grid[g + 1]])
               for g in range(len(grid) - 1)]

    # Window w holds grid poses w .. w + T - 1.
    windows = np.arange(len(grid) - T + 1)[:, None] + np.arange(T)
    abs_t = np.array([abs_traj.poses[f].t for f in grid])[windows]
    abs_q = np.array([abs_traj.poses[f].q for f in grid])[windows]
    vo_t = np.array([r.t for r in grid_vo])[windows[:, :-1]]
    vo_q = quat.canonicalize(quat.qexp(np.array([r.w for r in grid_vo])))[windows[:, :-1]]
    blocks = _window_blocks(abs_t, abs_q, vo_t, vo_q, cfg)  # Pose.q is canonical
    t, q = abs_t.copy(), abs_q.copy()
    iterations = np.zeros(len(windows), dtype=int)
    for lo in range(0, len(windows), FUSE_BATCH):
        batch = slice(lo, lo + FUSE_BATCH)
        t[batch], q[batch], iterations[batch], _ = _solve_windows(
            [b.windows(batch) for b in blocks], t[batch], q[batch], cfg)
    if stats is not None:
        stats.window_iterations.extend(iterations.tolist())

    # The first window emits all of its poses, every later one its newest.
    fused_t = np.concatenate((t[0, :-1], t[:, -1]))
    fused_q = np.concatenate((q[0, :-1], q[:, -1]))
    fused_grid = [Pose(ti, qi) for ti, qi in zip(fused_t, fused_q)]

    # Carry non-grid frames through the VO chain from the nearest grid pose.
    out: list[Pose | None] = [None] * n
    for g, frame in enumerate(grid):
        out[frame] = fused_grid[g]
    for f in range(n):
        if out[f] is not None:
            continue
        g = _nearest_grid_index(f, k, len(grid))
        rel = relative_pose(vo_traj[f], vo_traj[grid[g]])
        out[f] = compose(fused_grid[g], rel)
    return Trajectory(abs_traj.timestamps, tuple(out))


def temporal_median_filter(traj: Trajectory, window: int = 51) -> Trajectory:
    """Sliding-window median smoothing; edges use truncated windows.

    Translations take a per-coordinate median; rotations take the window
    element minimizing the summed angular distance to all others.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    if window == 1:
        return traj
    half = window // 2
    n = len(traj)
    ts = np.array([p.t for p in traj.poses])
    qs = np.array([p.q for p in traj.poses])
    out = []
    for i in range(n):
        lo, hi = max(0, i - half), min(n, i + half + 1)
        t_med = np.median(ts[lo:hi], axis=0)
        block = qs[lo:hi]
        # geometric medoid via pairwise quaternion angles
        dots = np.clip(np.abs(block @ block.T), 0.0, 1.0)
        cost = np.sum(np.arccos(dots), axis=1)
        q_med = block[int(np.argmin(cost))]
        out.append(Pose(t_med, q_med))
    return Trajectory(traj.timestamps, tuple(out))
