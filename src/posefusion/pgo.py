"""On-manifold Gauss-Newton pose-graph optimization and window fusion.

The state is a stack of windows of poses, t (W, T, 3) and q (W, T, 4); each
pose contributes 6 manifold coordinates (3 translation + 3 rotation) while
being stored as 7 numbers. A window is a chain: build_window_graph gives
one Block per constraint kind, an absolute observation of every pose and a
relative one of every consecutive pair, with one scalar weight per kind.
One kernel, _linearize_block, evaluates a block: each constraint yields a
weighted residual r = weight * (k - f(z)) and Jacobian blocks
J = weight * df/d(manifold coords) for the one or two poses it touches.
The update is z ⊞ dz: translations add, rotations right-multiply by
qexp(dw). Rotation columns are closed forms in quat's helpers: the vector
columns of the quaternion-product derivative (dqmul_left, dqmul_right) for
the rotation kinds, and 2 (R e_k) x f from the rotation matrix (to_matrix)
for the relative translation. Both rotation kinds compare quaternions in
the hemisphere quat.canonicalize picks. The normal matrix J^T J is
block-tridiagonal with 6x6 blocks; gauss_newton_solve accumulates those
blocks and solves each window by block Cholesky, up to FUSE_BATCH windows
at a time, each stopping on its own. linearize scatters the same
Jacobian blocks into a dense Jacobian for the least-squares fallback and
for tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import quat
from .pose import BLOCK_ROWS, Trajectory, VoChain, compose, integrate, relative_pose


class ConstraintKind(Enum):
    ABS_TRANSLATION = "abs-t"
    ABS_ROTATION = "abs-r"
    REL_TRANSLATION = "rel-t"
    REL_ROTATION = "rel-r"


# Most windows that gauss_newton_solve linearizes and solves together.
# Per-stack temporaries grow with it: on a 4000-frame k=10 fuse (394
# windows), peak CLI RSS was 33.5 MB solving one window at a time, 34.8 MB
# in stacks of 128 and 39.5 MB in one stack of all windows: +13%, past the
# benchmark's 10% bound on fuse peak RSS.
FUSE_BATCH = 128

# Smallest accepted ratio of the smallest to the largest pivot (diagonal
# entry of the Cholesky factor) of a window's normal matrix. A window below
# it is solved by lstsq, whose SVD rank check decides whether the window is
# rank-deficient; so is every window of a stack with a normal matrix that is
# not positive-definite, which fuse_trajectory's windows never have: each
# pose is observed absolutely, so J^T J >= blockdiag(I_3, sigma_rot I_3, ...).
MIN_PIVOT_RATIO = 1e-6

# Full windows whose rotation medoids temporal_median_filter picks together.
# Their pairwise angles are one matrix over the MEDIAN_CHUNK + window - 1
# frames they span: about 0.1 MB at the default window of 51.
MEDIAN_CHUNK = 64


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
        if not (np.isfinite(self.sigma_rot) and self.sigma_rot > 0):
            raise ValueError("sigma_rot must be finite and > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not (np.isfinite(self.step_tol) and self.step_tol >= 0):
            raise ValueError("step_tol must be finite and >= 0")


class RankDeficientError(RuntimeError):
    """Stacked Jacobian lost full column rank."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"rank-deficient system; offending manifold columns {self.columns}")


class Block(NamedTuple):
    """Every constraint of one kind, in a stack of identically built windows.

    Constraint i of an absolute block observes pose i; of a relative block,
    pose i as seen from pose i + 1. Its residual is weight * (obs - f).
    """

    kind: ConstraintKind
    obs: np.ndarray  # (W, m, d) observations
    weight: float

    def windows(self, sel) -> "Block":
        """The same constraints in the windows sel of the stack."""
        return self._replace(obs=self.obs[sel])


def _linearize_block(b: Block, t: np.ndarray, q: np.ndarray, jacobian: bool = True):
    """Weighted residuals (W, m, d) of one block and its Jacobian blocks.

    The Jacobian blocks are (W, m, d, 6): one for each constraint's pose i,
    and for the relative kinds one for its pose i + 1 (None otherwise, and
    both None when jacobian is False). Their columns are the 6 manifold
    coordinates of that pose. A rotation moves as q * exp(e), and to first
    order exp(e) = (1, e), so a rotation column is the derivative along a
    vector component: the slice [..., 1:] of the 4x4 product derivative.
    Rotation observables are compared as quat.canonicalize leaves them;
    since L(-f) = -L(f), the derivative at the canonical f needs no sign.
    """
    n_win = t.shape[0]
    m, d = b.obs.shape[1:]
    relative = b.kind in (ConstraintKind.REL_TRANSLATION, ConstraintKind.REL_ROTATION)
    if jacobian:
        ji = np.zeros((n_win, m, d, 6))
        jj = np.zeros((n_win, m, d, 6)) if relative else None
    if b.kind is ConstraintKind.ABS_TRANSLATION:
        f = t[:, :m]
        if jacobian:
            ji[..., :3] = np.eye(3)
    elif b.kind is ConstraintKind.ABS_ROTATION:
        f = quat.canonicalize(q[:, :m])
        if jacobian:
            ji[..., 3:] = quat.dqmul_left(f)[..., 1:]
    elif b.kind is ConstraintKind.REL_TRANSLATION:
        qj = q[:, 1:m + 1]
        f = quat.qrotate(qj, t[:, :m] - t[:, 1:m + 1])
        if jacobian:
            rot = quat.to_matrix(qj)
            ji[..., :3] = rot
            jj[..., :3] = -rot
            # R(qj * exp e) dt = f + 2 R(qj) (e x dt): column k is 2 (R e_k) x f
            jj[..., 3:] = 2.0 * np.cross(rot, f[..., None, :], axisa=-2, axisc=-2)
    else:  # REL_ROTATION
        f = quat.canonicalize(quat.qmul(quat.qinv(q[:, 1:m + 1]), q[:, :m]))
        if jacobian:
            ji[..., 3:] = quat.dqmul_left(f)[..., 1:]
            # d(conj(qj * e) * qi)/de: the conjugation negates the vector part
            jj[..., 3:] = -quat.dqmul_right(f)[..., 1:]
    r = b.weight * (b.obs - f)
    if not jacobian:
        return r, None, None
    return r, b.weight * ji, (b.weight * jj if relative else None)


def linearize(blocks: list[Block], t: np.ndarray, q: np.ndarray,
              jacobian: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Weighted residuals (W, M) and dense Jacobians (W, M, 6T) of a window stack.

    Rows run block by block, constraint by constraint; a window's objective
    E(z) is the squared norm of its residual row, r[w] @ r[w]. The
    first-order change of the residual along dz is -J dz. Rotation
    observables are canonicalized (quat.canonicalize) before the
    comparison. The dense Jacobian is scattered from the per-pose blocks of
    _linearize_block; the solver builds it only for its least-squares
    fallback. With jacobian=False only the residuals are computed, and None
    stands in for the Jacobians.
    """
    n_win, T = t.shape[:2]
    residuals, jacobians = [], []
    for b in blocks:
        r, ji, jj = _linearize_block(b, t, q, jacobian)
        residuals.append(r.reshape(n_win, -1))
        if jacobian:
            m, d = r.shape[1:]
            c = np.arange(m)
            jac = np.zeros((n_win, m, T, d, 6))
            jac[:, c, c] = ji
            if jj is not None:
                jac[:, c, c + 1] = jj
            jacobians.append(jac.transpose(0, 1, 3, 2, 4).reshape(n_win, m * d, 6 * T))
    r = np.concatenate(residuals, axis=1)
    return r, np.concatenate(jacobians, axis=1) if jacobian else None


def build_window_graph(abs_t: np.ndarray, abs_q: np.ndarray, vo_t: np.ndarray,
                       vo_q: np.ndarray, cfg: PgoConfig) -> list[Block]:
    """Constraints of a window stack: per-pose absolute + consecutive relative.

    abs_t (W, T, 3) and abs_q (W, T, 4) are each window's absolute
    observations; vo_t (W, T-1, 3) and vo_q (W, T-1, 4) its relative ones,
    pose i as seen from pose i + 1. Rotation observations are canonicalized.
    Translations have weight 1 and rotations sqrt(sigma_rot), so sigma_rot
    scales the squared norm of every rotation residual. One block per kind,
    in ConstraintKind order: 2T + 2(T-1) constraints per window.
    """
    n_win, T = abs_t.shape[:2]
    if vo_t.shape[:2] != (n_win, T - 1) or vo_q.shape[:2] != (n_win, T - 1):
        raise ValueError(f"expected {T - 1} relative poses per window of {T} absolute "
                         f"poses, got {vo_t.shape[1]}")
    w_rot = float(np.sqrt(cfg.sigma_rot))
    return [
        Block(ConstraintKind.ABS_TRANSLATION, abs_t, 1.0),
        Block(ConstraintKind.ABS_ROTATION, quat.canonicalize(abs_q), w_rot),
        Block(ConstraintKind.REL_TRANSLATION, vo_t, 1.0),
        Block(ConstraintKind.REL_ROTATION, quat.canonicalize(vo_q), w_rot),
    ]


def _transpose(a: np.ndarray) -> np.ndarray:
    """a with its last two axes swapped, as a copy: numpy's stacked matmul
    is several times slower on a transposed view."""
    return np.ascontiguousarray(a.swapaxes(-1, -2))


def _block_cholesky_solve(diag: np.ndarray, upper: np.ndarray, g: np.ndarray):
    """Solve H dz = g for a stack of block-tridiagonal normal matrices.

    H has the diagonal blocks diag (W, T, 6, 6) and the super-diagonal
    blocks upper (W, T-1, 6, 6). Block Cholesky: pose k's factor L_k is the
    Cholesky factor of the Schur complement S_k = D_k - C_k^T C_k, with
    C_k = L_{k-1}^-1 U_{k-1}, followed by forward and back substitution
    through the inverse factors. The L_k are the diagonal blocks of H's
    dense Cholesky factor, so their diagonals are its pivots. Returns dz
    (W, T, 6), the pivots (W, T, 6) and which windows to trust: those whose
    smallest pivot is at least MIN_PIVOT_RATIO times the largest, and none
    (with NaN dz and pivots) if any window is not positive-definite.
    """
    n_win, T = g.shape[:2]
    inv_low = np.empty_like(diag)  # L_k^-1
    cross = np.empty_like(upper)   # C_{k+1} = L_k^-1 U_k
    y = np.empty_like(g)           # forward-substituted right-hand side
    piv = np.empty_like(g)
    s, rhs = diag[:, 0], g[:, 0]
    for k in range(T):
        try:
            low = np.linalg.cholesky(s)
        except np.linalg.LinAlgError:
            return np.full_like(g, np.nan), np.full_like(g, np.nan), np.zeros(n_win, dtype=bool)
        piv[:, k] = np.diagonal(low, axis1=-2, axis2=-1)
        inv_low[:, k] = np.linalg.inv(low)
        y[:, k] = (inv_low[:, k] @ rhs[..., None])[..., 0]
        if k < T - 1:
            cross[:, k] = inv_low[:, k] @ upper[:, k]
            cross_t = _transpose(cross[:, k])
            s = diag[:, k + 1] - cross_t @ cross[:, k]
            rhs = g[:, k + 1] - (cross_t @ y[:, k, :, None])[..., 0]
    ok = piv.min(axis=(1, 2)) >= MIN_PIVOT_RATIO * piv.max(axis=(1, 2))
    dz = np.empty_like(g)
    for k in reversed(range(T)):
        if k < T - 1:
            y[:, k] -= (cross[:, k] @ dz[:, k + 1, :, None])[..., 0]
        dz[:, k] = (inv_low[:, k].swapaxes(-1, -2) @ y[:, k, :, None])[..., 0]
    return dz, piv, ok


def _gn_step(blocks: list[Block], t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One Gauss-Newton step dz (W, 6T) for every window of the stack.

    Each window solves its normal equations J^T J dz = J^T r. A window is a
    chain, so J^T J is block-tridiagonal: the blocks and the gradient are
    accumulated kind by kind from _linearize_block and solved by
    _block_cholesky_solve. Untrusted windows (all of the stack if one is not
    positive-definite) are solved by least squares on their dense J, and
    raise RankDeficientError when J has lost full column rank.
    """
    n_win, T = t.shape[:2]
    diag = np.zeros((n_win, T, 6, 6))
    upper = np.zeros((n_win, T - 1, 6, 6))
    g = np.zeros((n_win, T, 6))
    for b in blocks:
        # constraint c couples pose c and, for a relative kind, pose c + 1
        r, ji, jj = _linearize_block(b, t, q)
        m = r.shape[1]
        ji_t = _transpose(ji)
        diag[:, :m] += ji_t @ ji
        g[:, :m] += (ji_t @ r[..., None])[..., 0]
        if jj is not None:
            jj_t = _transpose(jj)
            diag[:, 1:m + 1] += jj_t @ jj
            g[:, 1:m + 1] += (jj_t @ r[..., None])[..., 0]
            upper[:, :m] += ji_t @ jj
    if not (np.isfinite(diag).all() and np.isfinite(upper).all() and np.isfinite(g).all()):
        raise np.linalg.LinAlgError("Gauss-Newton step is not finite: NaN or inf in the "
                                    "observations or the starting poses")
    dz, _, ok = _block_cholesky_solve(diag, upper, g)
    dz = dz.reshape(n_win, 6 * T)
    bad = np.flatnonzero(~ok)
    if bad.size:
        r, jac = linearize([b.windows(bad) for b in blocks], t[bad], q[bad])
        for w, r_w, jac_w in zip(bad, r, jac):
            dz[w], _, rank, _ = np.linalg.lstsq(jac_w, r_w, rcond=None)
            if rank < 6 * T:
                # the columns the null space reaches: the nonzero diagonal
                # of its projector
                null = np.linalg.svd(jac_w)[2][rank:]
                raise RankDeficientError(np.flatnonzero((null ** 2).sum(0) > 1e-12).tolist())
    return dz


def gauss_newton_solve(blocks: list[Block], t: np.ndarray, q: np.ndarray, cfg: PgoConfig):
    """Gauss-Newton over a stack of windows from the state (t, q).

    Each iteration solves min ||J dz - r||^2 per window through the normal
    equations (see _gn_step), then applies the manifold update. Every
    window iterates until its own step norm drops below step_tol or it has
    taken max_iters steps; windows still iterating are linearized together,
    FUSE_BATCH at a time. Returns the final t and q, and per window the
    number of steps taken and the norm of the last one. Raises
    RankDeficientError when a window's Jacobian loses full column rank and
    numpy.linalg.LinAlgError when a step is not finite.
    """
    t, q = t.copy(), q.copy()
    n_win, T = t.shape[:2]
    iterations = np.zeros(n_win, dtype=int)
    step_norm = np.full(n_win, np.inf)
    active = np.arange(n_win)
    for _ in range(cfg.max_iters):
        for lo in range(0, len(active), FUSE_BATCH):
            stack = active[lo:lo + FUSE_BATCH]
            dz = _gn_step([b.windows(stack) for b in blocks], t[stack], q[stack])
            step = dz.reshape(len(stack), T, 6)
            t[stack] += step[..., :3]
            q[stack] = quat.qmul(q[stack], quat.qexp(step[..., 3:]))
            step_norm[stack] = np.linalg.norm(dz, axis=-1)
        iterations[active] += 1
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
    poses, and one gauss_newton_solve call solves all windows independently.
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
    t, q, iterations, _ = gauss_newton_solve(blocks, abs_t, abs_q, cfg)
    if stats is not None:
        stats.window_iterations.extend(iterations.tolist())

    # The first window emits all of its poses, every later one its newest.
    out_t, out_q = np.empty((n, 3)), np.empty((n, 4))
    out_t[grid] = np.concatenate((t[0, :-1], t[:, -1]))
    out_q[grid] = np.concatenate((q[0, :-1], q[:, -1]))

    # Carry non-grid frames through the VO chain from the nearest grid pose,
    # BLOCK_ROWS frames at a time.
    for lo in range(0, n, BLOCK_ROWS):
        frames = np.arange(lo, min(lo + BLOCK_ROWS, n))
        off = frames[frames % k != 0]
        near = grid[_nearest_grid_index(off, k, len(grid))]
        rel_t, rel_w = relative_pose(vo_t[off], vo_q[off], vo_t[near], vo_q[near])
        out_t[off], out_q[off] = compose(out_t[near], out_q[near], rel_t, rel_w)
    return Trajectory(abs_traj.timestamps, out_t, out_q)


def _pairwise_angles(q: np.ndarray) -> np.ndarray:
    """Angular distances (m, m) between the unit quaternions q (m, 4), up to
    sign, as arccos |<q_a, q_b>|."""
    return np.arccos(np.clip(np.abs(q @ q.T), 0.0, 1.0))


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
    # Their sizes can be even, and np.median then averages the middle two.
    # Each end's windows are nested (all start at frame 0, or all stop at
    # n), so their angles are sub-blocks of one matrix per end.
    for ends in (range(min(half, n)), range(max(half, n - half), n)):
        if not ends:
            continue
        first = max(0, ends[0] - half)
        angles = _pairwise_angles(traj.q[first:min(n, ends[-1] + half + 1)])
        for i in ends:
            lo, hi = max(0, i - half), min(n, i + half + 1)
            out_t[i] = np.median(traj.t[lo:hi], axis=0)
            block = angles[lo - first:hi - first, lo - first:hi - first]
            out_q[i] = traj.q[lo + np.argmin(np.sum(block, axis=-1))]
    # Full windows, MEDIAN_CHUNK at a time: window c is centred on frame
    # half + c. The windows of a chunk share their frames, so each angle
    # between those frames is computed once, and window c's angles are the
    # diagonal block [c, c + window) of the chunk's matrix. A full window
    # is odd, so its translation median is its middle element after a
    # partition: np.median's value, without np.median's NaN partition and
    # mean (trajectories are finite). Partitioning the whole view at once
    # would copy all n x 3 windows (about 19.5 MB at n = 16000, window 51);
    # a chunk copies MEDIAN_CHUNK of them.
    if n >= window:
        win_t = sliding_window_view(traj.t, window, axis=0)  # (n - 2 half, 3, window)
        for lo in range(0, len(win_t), MEDIAN_CHUNK):
            frames = traj.q[lo:lo + MEDIAN_CHUNK + window - 1]
            blocks = np.diagonal(sliding_window_view(_pairwise_angles(frames), (window, window)),
                                 axis1=0, axis2=1)  # (window, window, chunk), a view
            first = np.arange(blocks.shape[-1])
            centre = slice(half + lo, half + lo + len(first))
            out_t[centre] = np.partition(win_t[lo:lo + MEDIAN_CHUNK], half, axis=-1)[..., half]
            out_q[centre] = frames[first + np.argmin(np.sum(blocks, axis=1), axis=0)]
    return Trajectory(traj.timestamps, out_t, out_q)
