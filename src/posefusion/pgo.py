"""On-manifold Gauss-Newton pose-graph optimization and window fusion.

The state is a stack of windows of poses, t (W, T, 3) and q (W, T, 4); each
pose contributes 6 manifold coordinates (3 translation + 3 rotation) while
being stored as 7 numbers. build_window_graph groups the constraints per
kind into Blocks: arrays of observations, whiteners and pose indices shared
by every window of the stack. One kernel, linearize, evaluates them all:
each constraint yields a whitened residual r = L^T (k - f(z)) and Jacobian
J = L^T df/d(manifold coords), where the covariance S = L L^T. Rotation
blocks are chained through the quaternion-product derivative and the
constant derivative of the exponential map at zero, and the update is
z ⊞ dz: translations add, rotations right-multiply by qexp(dw).
gauss_newton_solve solves the windows of a stack independently, each
stopping on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import quat
from .pose import Trajectory, VoChain, compose, integrate, relative_pose


class ConstraintKind(Enum):
    ABS_TRANSLATION = "abs-t"
    ABS_ROTATION = "abs-r"
    REL_TRANSLATION = "rel-t"
    REL_ROTATION = "rel-r"


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

# Full windows whose rotation medoids temporal_median_filter picks together.
# Their pairwise-angle temporaries are MEDIAN_CHUNK x window x window
# doubles: about 1.3 MB at the default window of 51.
MEDIAN_CHUNK = 64


def _whitener(covariance: np.ndarray) -> np.ndarray:
    """Upper-triangular L^T from covariance = L L^T."""
    return np.linalg.cholesky(covariance).T


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


class Block(NamedTuple):
    """Every constraint of one kind, in a stack of identically built windows."""

    kind: ConstraintKind
    i: np.ndarray  # (m,) pose index within the window
    j: np.ndarray | None  # (m,) second pose index, relative kinds only
    obs: np.ndarray  # (W, m, d) observations
    lt: np.ndarray  # (m, d, d) whiteners L^T

    def windows(self, sel) -> "Block":
        """The same constraints in the windows sel of the stack."""
        return self._replace(obs=self.obs[sel])


def linearize(blocks: list[Block], t: np.ndarray, q: np.ndarray,
              jacobian: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Whitened residuals (W, M) and Jacobians (W, M, 6T) of a window stack.

    Rows run block by block, constraint by constraint; a window's objective
    E(z) is the squared norm of its residual row, r[w] @ r[w]. The
    first-order change of the residual along dz is -J dz. Rotation
    observables are hemisphere-canonicalized (scalar part >= 0) before the
    comparison, with the sign folded into the Jacobian. With jacobian=False
    only the residuals are computed, and None stands in for the Jacobians.
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


def build_window_graph(abs_t: np.ndarray, abs_q: np.ndarray, vo_t: np.ndarray,
                       vo_q: np.ndarray, cfg: PgoConfig) -> list[Block]:
    """Constraints of a window stack: per-pose absolute + consecutive relative.

    abs_t (W, T, 3) and abs_q (W, T, 4) are each window's absolute
    observations; vo_t (W, T-1, 3) and vo_q (W, T-1, 4) its relative ones,
    pose i as seen from pose i + 1. Rotation observations are canonicalized.
    Translations carry identity covariance, rotations sigma_rot * I4. One
    block per kind, in ConstraintKind order: 2T + 2(T-1) constraints per
    window.
    """
    n_win, T = abs_t.shape[:2]
    if vo_t.shape[:2] != (n_win, T - 1) or vo_q.shape[:2] != (n_win, T - 1):
        raise ValueError(f"expected {T - 1} relative poses per window of {T} absolute "
                         f"poses, got {vo_t.shape[1]}")
    idx = np.arange(T)
    lt3 = np.broadcast_to(_whitener(np.eye(3)), (T, 3, 3))
    lt4 = np.broadcast_to(_whitener(cfg.sigma_rot * np.eye(4)), (T, 4, 4))
    return [
        Block(ConstraintKind.ABS_TRANSLATION, idx, None, abs_t, lt3),
        Block(ConstraintKind.ABS_ROTATION, idx, None, quat.canonicalize(abs_q), lt4),
        Block(ConstraintKind.REL_TRANSLATION, idx[:-1], idx[1:], vo_t, lt3[:-1]),
        Block(ConstraintKind.REL_ROTATION, idx[:-1], idx[1:], quat.canonicalize(vo_q), lt4[:-1]),
    ]


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


def _gn_step(blocks: list[Block], t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One Gauss-Newton step dz (W, 6T) for every window of the stack.

    Each window solves its normal equations J^T J dz = J^T r through a
    certified Cholesky factor; a window without one is solved by least
    squares on J itself, and raises RankDeficientError when J has lost
    full column rank.
    """
    r, jac = linearize(blocks, t, q)
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
            import scipy.linalg  # here, not at module level: its import dominates CLI start-up

            _, rmat, piv = scipy.linalg.qr(jac[w], mode="economic", pivoting=True)
            diag = np.abs(np.diag(rmat))
            bad = sorted(int(piv[k]) for k in range(len(diag)) if diag[k] <= diag[0] * 1e-12)
            raise RankDeficientError(bad or list(piv[rank:]))
    return dz


def gauss_newton_solve(blocks: list[Block], t: np.ndarray, q: np.ndarray, cfg: PgoConfig):
    """Gauss-Newton over a stack of windows from the state (t, q).

    Each iteration solves min ||J dz - r||^2 per window through the normal
    equations (see _gn_step), then applies the manifold update. Every
    window iterates until its own step norm drops below step_tol or it has
    taken max_iters steps; windows still iterating are linearized together.
    Returns the final t and q, and per window the number of steps taken
    and the norm of the last one. Raises RankDeficientError when a window's
    Jacobian loses full column rank, and numpy.linalg.LinAlgError when a
    step is not finite.
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
class FusionStats:
    """Per-window diagnostics collected by fuse_trajectory when requested."""

    window_iterations: list[int] = field(default_factory=list)


def _nearest_grid_index(frame, k: int, n_grid: int):
    """Index into the grid 0, k, 2k, ... of the grid frame nearest to frame.

    Takes one frame or an array of them. Ties go to the lower index; frames
    past the last grid frame map to it.
    """
    return np.minimum((frame + (k - 1) // 2) // k, n_grid - 1)


def fuse_trajectory(abs_traj: Trajectory, vo: VoChain, cfg: PgoConfig,
                    stats: FusionStats | None = None) -> Trajectory:
    """Refine absolute poses with per-frame VO via moving-window optimization.

    vo holds one relative pose per frame after the first, stamped with that
    frame's timestamp. Grid frames spaced spacing_k apart are optimized in
    overlapping windows of window_T poses (stride 1, newest pose emitted;
    the first window emits all of its poses). Each window's optimum depends
    only on its own observations, so every window starts from its absolute
    poses and the windows are solved independently, FUSE_BATCH at a time.
    Grid-step VO observations come from the integrated VO trajectory, and
    frames off the grid are carried through by composing the nearest
    refined grid pose with the intermediate VO.
    """
    n = len(abs_traj)
    if n < 2:
        raise ValueError("need at least 2 poses to fuse")
    if not np.array_equal(vo.timestamps, abs_traj.timestamps[1:]):
        raise ValueError(f"expected {n - 1} per-frame relative poses at the trajectory's "
                         f"timestamps after the first, got {len(vo)} at other timestamps")

    k = cfg.spacing_k
    if (n - 1) // k < 1:
        # Too short for the requested spacing: single window over all frames
        # reachable at the widest spacing that still yields 2 grid poses.
        k = n - 1
    grid = np.arange(0, n, k)
    if len(grid) < 2:
        raise ValueError("trajectory too short for any window")
    T = min(cfg.window_T, len(grid))

    # Smooth-but-drifty trajectory from integrating the VO chain; grid-step
    # relative observations are taken between its samples.
    vo_t, vo_q = integrate(abs_traj.t[0], abs_traj.q[0], vo)
    step_t, step_w = relative_pose(vo_t[grid[:-1]], vo_q[grid[:-1]], vo_t[grid[1:]], vo_q[grid[1:]])

    # Window w holds grid poses w .. w + T - 1.
    windows = np.arange(len(grid) - T + 1)[:, None] + np.arange(T)
    abs_t = abs_traj.t[grid][windows]
    abs_q = abs_traj.q[grid][windows]
    blocks = build_window_graph(abs_t, abs_q, step_t[windows[:, :-1]],
                                quat.qexp(step_w)[windows[:, :-1]], cfg)
    t, q = abs_t.copy(), abs_q.copy()
    iterations = np.zeros(len(windows), dtype=int)
    for lo in range(0, len(windows), FUSE_BATCH):
        batch = slice(lo, lo + FUSE_BATCH)
        t[batch], q[batch], iterations[batch], _ = gauss_newton_solve(
            [b.windows(batch) for b in blocks], t[batch], q[batch], cfg)
    if stats is not None:
        stats.window_iterations.extend(iterations.tolist())

    # The first window emits all of its poses, every later one its newest.
    out_t, out_q = np.empty((n, 3)), np.empty((n, 4))
    out_t[grid] = np.concatenate((t[0, :-1], t[:, -1]))
    out_q[grid] = quat.canonicalize(np.concatenate((q[0, :-1], q[:, -1])))

    # Carry non-grid frames through the VO chain from the nearest grid pose.
    off = np.setdiff1d(np.arange(n), grid)
    near = grid[_nearest_grid_index(off, k, len(grid))]
    rel_t, rel_w = relative_pose(vo_t[off], vo_q[off], vo_t[near], vo_q[near])
    out_t[off], out_q[off] = compose(out_t[near], out_q[near], rel_t, rel_w)
    return Trajectory(abs_traj.timestamps, out_t, out_q)


def _medoid_index(blocks: np.ndarray) -> np.ndarray:
    """Per block of quaternions (B, m, 4), the row minimizing the summed
    angular distance to all rows of its block."""
    dots = np.clip(np.abs(blocks @ blocks.transpose(0, 2, 1)), 0.0, 1.0)
    return np.argmin(np.sum(np.arccos(dots), axis=-1), axis=-1)


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
    out_t, out_q = np.empty((n, 3)), np.empty((n, 4))
    # Frames closer than half to an end: truncated windows, one at a time.
    for i in [i for i in range(n) if i < half or i >= n - half]:
        lo, hi = max(0, i - half), min(n, i + half + 1)
        out_t[i] = np.median(traj.t[lo:hi], axis=0)
        out_q[i] = traj.q[lo + _medoid_index(traj.q[None, lo:hi])[0]]
    # Full windows, MEDIAN_CHUNK at a time: window c is centred on frame half + c.
    if n >= window:
        win_t = sliding_window_view(traj.t, window, axis=0)  # (n - 2 half, 3, window)
        win_q = sliding_window_view(traj.q, window, axis=0).transpose(0, 2, 1)
        for lo in range(0, len(win_t), MEDIAN_CHUNK):
            blocks = win_q[lo:lo + MEDIAN_CHUNK]
            centre = slice(half + lo, half + lo + len(blocks))
            out_t[centre] = np.median(win_t[lo:lo + MEDIAN_CHUNK], axis=-1)
            out_q[centre] = blocks[np.arange(len(blocks)), _medoid_index(blocks)]
    return Trajectory(traj.timestamps, out_t, out_q)
