"""On-manifold pose-graph optimization and window fusion.

The state is a stack of windows of poses, t (W, T, 3) and q (W, T, 4); each
pose contributes 6 manifold coordinates (3 translation + 3 rotation) while
being stored as 7 numbers. A window is a chain: build_window_graph gives
two Blocks, an absolute observation of every pose and a relative one of
every consecutive pair, each a pose of 7 rows with a weight per row.
One kernel, _linearize_block, evaluates a block: each constraint yields a
weighted residual r = weight * (k - f(z)) and Jacobian blocks
J = weight * df/d(manifold coords) for the one or two poses it touches;
f is the pose, or for a relative block pose.relative_pose as for the VO.
The update is z ⊞ dz: translations add, rotations right-multiply by
qexp(dw). Rotation columns are closed forms in quat's helpers: for the
rotation rows the product's derivatives dqmul_left and dqmul_right, which
quat builds from qmul's own formula, and for the relative translation
2 (R e_k) x f, with R e_k = qrotate(q_j, e_k). q and -q are the same
rotation, so the rotation rows compare the observation with whichever of
f and -f lies in its hemisphere (<f, obs> >= 0): the residual is then the
same for either sign of a pose or an observation, and it stays small across
the 180-degree heading where quaternions change sign.

gauss_newton_solve takes one Gauss-Newton step per window, with the normal
matrix J^T J, then steps with the exact Hessian of the window objective:
J^T J plus each block's residual-curvature term (_add_curvature), also in
closed form. Both matrices are block-tridiagonal with 6x6 blocks;
the solver accumulates those blocks and solves each window by block
Cholesky, up to FUSE_BATCH windows at a time, each stopping on its own and
reporting whether it converged. Those blocks are the one representation of
a window: the columns of a rank-deficient window are named from the
eigenvectors of its J^T J, assembled from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import quat
from .pose import BLOCK_ROWS, Trajectory, compose, integrate, relative_pose


class ConstraintKind(Enum):
    ABSOLUTE = "absolute"
    RELATIVE = "relative"


# Most windows that gauss_newton_solve linearizes and solves together.
# Per-stack temporaries grow with it, so it bounds the solver's peak memory
# on long trajectories. No one count suits every size: larger stacks raise
# that peak, and smaller ones slow the solve.
FUSE_BATCH = 128

# Smallest accepted ratio of each pivot (diagonal entry of the Cholesky
# factor) of a window's step matrix H to the root of its own diagonal entry
# H_ii. For J^T J that ratio is the sine of the angle between column i of J
# and the span of the columns before it, so no constraint weight changes
# it. A window below it, or whose matrix is not positive-definite, is
# untrusted (see _gn_step). The exact Hessian adds the residual curvature
# to J^T J, and large residuals (an absolute outlier of tens of metres) can
# make it indefinite.
MIN_PIVOT_RATIO = 1e-6

# Windows whose medians temporal_median_filter takes together. It sorts
# MEDIAN_CHUNK translation windows at once, a copy of MEDIAN_CHUNK x 3 x
# window values. Rotation chunks of max(MEDIAN_CHUNK, half // 2 + 1) windows
# share one matrix of pairwise angles over the frames they span: about 0.1 MB
# at the default window of 51. Wider chunks would compute each angle in fewer
# chunks but grow that matrix and the masked sums.
MEDIAN_CHUNK = 64

# Step norm below which a window has converged. The norm spans the metres
# and radians of all of a window's poses, so no pose then moves by more than
# 1e-8 m or rad, far below the noise of any observation.
STEP_TOL = 1e-8

# Weight of every rotation residual row; translation rows have weight 1. Its
# square, 10, is the information of a rotation residual relative to a translation one.
ROT_WEIGHT = float(np.sqrt(10.0))


@dataclass(frozen=True)
class PgoConfig:
    """Window size and frame spacing, fixed once validated; the iteration
    cap max_iters is a class constant, not a field."""

    window_T: int = 7
    spacing_k: int = 150
    max_iters: ClassVar[int] = 50

    def __post_init__(self):
        if self.window_T < 2:
            raise ValueError("window_T must be >= 2")
        if self.spacing_k < 1:
            raise ValueError("spacing_k must be >= 1")


class RankDeficientError(RuntimeError):
    """A window's Gauss-Newton matrix J^T J fails the trust rule: some
    column of J lies within MIN_PIVOT_RATIO rad of the span of the others.
    J may still have full rank; it is too ill-conditioned for the normal
    equations, so its step would not be trustworthy. columns are those the
    null space of the column-normalized J reaches: the eigenvectors of
    J^T J, scaled to a unit diagonal, whose eigenvalues are at most
    MIN_PIVOT_RATIO^2."""

    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"rank-deficient system; offending manifold columns {self.columns}")


class Block(NamedTuple):
    """Every constraint of one kind, in a stack of identically built windows.

    Constraint i of an absolute block observes pose i; of a relative block,
    pose i as seen from pose i + 1. Its residual is weight * (obs - f), row
    by row; a row of weight 0, such as a GPS fix's rotation, is not observed.
    """

    kind: ConstraintKind
    obs: np.ndarray     # (W, m, 7) observations: translation, then quaternion
    weight: np.ndarray  # (7,) weight of each residual row

    def windows(self, sel) -> "Block":
        """The same constraints in the windows sel of the stack."""
        return self._replace(obs=self.obs[sel])


def _toward(f: np.ndarray, obs: np.ndarray) -> np.ndarray:
    """The rotations f, each negated where it points away from its
    observation (<f, obs> < 0), so that each lies in obs's hemisphere."""
    return f * np.where(np.sum(f * obs, axis=-1, keepdims=True) < 0.0, -1.0, 1.0)


def _linearize_block(b: Block, t: np.ndarray, q: np.ndarray):
    """Weighted residuals (W, m, 7) of one block, its Jacobian blocks and
    its observables f (W, m, 7).

    The Jacobian blocks are (W, m, 7, 6): one for each constraint's pose i,
    and for a relative block one for its pose i + 1 (None otherwise). Their
    columns are the 6 manifold coordinates of that pose. A rotation moves as
    q * exp(e), and to first order exp(e) = (1, e), so a rotation column is
    the derivative along a vector component: dqmul_left and dqmul_right give
    those columns of the product derivative. The rotation observable is
    flipped to -f where <f, obs> < 0 (see _toward); since L(-f) = -L(f), the
    derivative at the flipped f needs no other sign.
    """
    m = b.obs.shape[1]
    absolute = b.kind is ConstraintKind.ABSOLUTE
    # pose i, or pose i as seen from pose i + 1: the function the graph's VO observes
    f_t, f_q = (t[:, :m], q[:, :m]) if absolute else relative_pose(
        t[:, :m], q[:, :m], t[:, 1:m + 1], q[:, 1:m + 1])
    f = np.concatenate([f_t, _toward(f_q, b.obs[..., 3:])], axis=-1)
    ji = np.zeros((len(t), m, 7, 6))
    ji[..., 3:, 3:] = quat.dqmul_left(f[..., 3:])
    jj = None
    if absolute:
        ji[..., :3, :3] = np.eye(3)
    else:
        rot = quat.qrotate(q[:, 1:m + 1, None], np.eye(3)).swapaxes(-1, -2)  # column k: R(qj) e_k
        ji[..., :3, :3] = rot
        jj = np.zeros_like(ji)
        jj[..., :3, :3] = -rot
        # R(qj * exp e) dt = f + 2 R(qj) (e x dt): column k is 2 (R e_k) x f
        jj[..., :3, 3:] = 2.0 * np.cross(rot, f_t[..., None, :], axisa=-2, axisc=-2)
        # d(conj(qj * e) * qi)/de: the conjugation negates the vector part
        jj[..., 3:, 3:] = -quat.dqmul_right(f[..., 3:])
        jj *= b.weight[..., None]
    ji *= b.weight[..., None]
    return b.weight * (b.obs - f), ji, jj, f


def build_window_graph(abs_t: np.ndarray, abs_q: np.ndarray, vo_t: np.ndarray,
                       vo_q: np.ndarray) -> list[Block]:
    """Constraints of a window stack: per-pose absolute + consecutive relative.

    abs_t (W, T, 3) and abs_q (W, T, 4) are each window's absolute
    observations; vo_t (W, T-1, 3) and vo_q (W, T-1, 4) its relative ones,
    pose i as seen from pose i + 1. Rotation observations are kept with the
    sign they come with: the residual takes each one's hemisphere. Both
    blocks, in ConstraintKind order, weight translation rows 1 and rotation
    rows ROT_WEIGHT, read when the graph is built.
    """
    n_win, T = abs_t.shape[:2]
    if vo_t.shape[:2] != (n_win, T - 1) or vo_q.shape[:2] != (n_win, T - 1):
        raise ValueError(f"expected vo_t and vo_q of (W, T - 1) = {(n_win, T - 1)} relative "
                         f"poses, got vo_t {vo_t.shape[:2]} and vo_q {vo_q.shape[:2]}")
    weight = np.repeat([1.0, ROT_WEIGHT], [3, 4])
    return [Block(ConstraintKind.ABSOLUTE, np.concatenate([abs_t, abs_q], axis=-1), weight),
            Block(ConstraintKind.RELATIVE, np.concatenate([vo_t, vo_q], axis=-1), weight)]


def _transpose(a: np.ndarray) -> np.ndarray:
    """a with its last two axes swapped, as a copy: numpy's stacked matmul
    is several times slower on a transposed view."""
    return np.ascontiguousarray(a.swapaxes(-1, -2))


def _cholesky_inverse(s: np.ndarray):
    """L^-1 and the pivots diag(L) (..., n) of the Cholesky factors L of a
    stack of symmetric matrices s (..., n, n).

    One stacked pass over the rows, each matrix on its own: row i of L is
    L[:i, :i]^-1 s[:i, i], its pivot L[i, i] the root of s_ii - |L[i, :i]|^2,
    and row i of X = L^-1 follows by forward substitution over the rows of
    L X = I: X[i, i] = 1 / L[i, i], X[i, :i] = -L[i, :i] X[:i, :i] / L[i, i].
    Where s is not positive-definite, that root's argument is not positive
    at some row, and the pivot is NaN there; NaN then spreads through the
    rest of that matrix's X and pivots.
    """
    inv = np.zeros_like(s)
    piv = np.empty(s.shape[:-1])
    for i in range(s.shape[-1]):
        row = (inv[..., :i, :i] @ s[..., :i, i, None])[..., 0]  # L[i, :i]
        square = s[..., i, i] - np.sum(row * row, axis=-1)
        piv[..., i] = np.sqrt(np.where(square > 0.0, square, np.nan))
        inv[..., i, i] = 1.0 / piv[..., i]
        inv[..., i, :i] = -(row[..., None, :] @ inv[..., :i, :i])[..., 0, :] / piv[..., i, None]
    return inv, piv


def _block_cholesky_solve(diag: np.ndarray, upper: np.ndarray, g: np.ndarray):
    """Solve H dz = g for a stack of block-tridiagonal symmetric matrices.

    H has the diagonal blocks diag (W, T, 6, 6) and the super-diagonal
    blocks upper (W, T-1, 6, 6). Block Cholesky: pose k's factor L_k is the
    Cholesky factor of the Schur complement S_k = D_k - C_k^T C_k, with
    C_k = L_{k-1}^-1 U_{k-1}, followed by forward and back substitution
    through the inverse factors, which _cholesky_inverse gives with the
    pivots. The L_k are the diagonal blocks of H's dense Cholesky factor,
    so their diagonals are its pivots. Returns dz (W, T, 6), the pivots
    (W, T, 6) and which windows to trust: those whose every pivot squared
    is at least MIN_PIVOT_RATIO^2 times its diagonal entry of H. A window
    that is not positive-definite gets NaN pivots from the one where its
    factorization fails on, and NaN dz, which fail that test. Each window
    is solved by its own arithmetic, so every other window gets the same
    bits as when solved alone.
    """
    T = g.shape[1]
    inv_low = np.empty_like(diag)  # L_k^-1
    cross = np.empty_like(upper)   # C_{k+1} = L_k^-1 U_k
    y = np.empty_like(g)           # forward-substituted right-hand side
    piv = np.empty_like(g)
    s, rhs = diag[:, 0], g[:, 0]
    for k in range(T):
        inv_low[:, k], piv[:, k] = _cholesky_inverse(s)
        y[:, k] = (inv_low[:, k] @ rhs[..., None])[..., 0]
        if k < T - 1:
            cross[:, k] = inv_low[:, k] @ upper[:, k]
            cross_t = _transpose(cross[:, k])
            s = diag[:, k + 1] - cross_t @ cross[:, k]
            rhs = g[:, k + 1] - (cross_t @ y[:, k, :, None])[..., 0]
    dz = np.empty_like(g)
    for k in reversed(range(T)):
        if k < T - 1:
            y[:, k] -= (cross[:, k] @ dz[:, k + 1, :, None])[..., 0]
        dz[:, k] = (inv_low[:, k].swapaxes(-1, -2) @ y[:, k, :, None])[..., 0]
    h_ii = np.diagonal(diag, axis1=-2, axis2=-1)
    ok = np.all(piv * piv >= MIN_PIVOT_RATIO ** 2 * h_ii, axis=(1, 2))
    return dz, piv, ok


_ROT = np.arange(3, 6)  # a pose's rotation coordinates, for the diagonal of its rotation block


def _add_curvature(b: Block, t: np.ndarray, q: np.ndarray, r: np.ndarray, f: np.ndarray,
                   diag: np.ndarray, upper: np.ndarray) -> None:
    """Add block b's residual-curvature term S = -sum_rows r d2(w f) to the
    normal-matrix blocks diag (W, T, 6, 6) and upper (W, T-1, 6, 6), in place.

    With S, J^T J becomes the exact Hessian of the objective 1/2 |r|^2 over
    the chart t + dt, q * qexp(e). r and f are the block's weighted
    residuals and (hemisphere-flipped) observables, and v = w r. To second
    order qexp(e) = (1 - |e|^2 / 2, e) and R(qexp(e)) = I + 2 [e]x + 2 [e]x^2:
    - rotation, f * qexp(e_i): <v, f> I_3 in pose i's rotation block; a
      relative one, qexp(-e_j) * f * qexp(e_i), adds the same in pose j's and
      <v, e_l * f * e_k> at row k, column l of their (rotation i, rotation j) block.
    - relative translation, R_j R(qexp(e_j)) (d + dt_i - dt_j) with d = t_i - t_j:
      with u = R_j^T v, -2 (d u^T + u d^T - 2 <u, d> I_3) in pose j's
      rotation block, 2 [u]x in its (translation, rotation) block and the
      transpose in its (rotation, translation) block, and -2 [u]x in the
      (translation i, rotation j) block. Absolute translation is linear.
    """
    m, v = r.shape[1], b.weight * r
    along = np.sum(v[..., 3:] * f[..., 3:], axis=-1, keepdims=True)
    diag[:, :m, _ROT, _ROT] += along
    if b.kind is ConstraintKind.RELATIVE:
        diag[:, 1:m + 1, _ROT, _ROT] += along
        # <v, e_l * f * e_k> = -<e_l * v, f * e_k>: e_l's left product is
        # orthogonal and conj(e_l) = -e_l
        upper[:, :m, 3:, 3:] -= (_transpose(quat.dqmul_left(f[..., 3:]))
                                 @ quat.dqmul_right(v[..., 3:]))
        u = quat.qrotate(quat.qinv(q[:, 1:m + 1]), v[..., :3])
        d = t[:, :m] - t[:, 1:m + 1]
        ud = u[..., :, None] * d[..., None, :]
        skew = np.cross(np.eye(3), u[..., None, :])  # [u]x: row k is e_k x u
        diag[:, 1:m + 1, 3:, 3:] -= 2.0 * (ud + _transpose(ud))
        diag[:, 1:m + 1, _ROT, _ROT] += 4.0 * np.sum(u * d, axis=-1, keepdims=True)
        diag[:, 1:m + 1, :3, 3:] += 2.0 * skew
        diag[:, 1:m + 1, 3:, :3] -= 2.0 * skew
        upper[:, :m, :3, 3:] -= 2.0 * skew


def _gn_step(blocks: list[Block], t: np.ndarray, q: np.ndarray, exact: bool = False) -> np.ndarray:
    """One solver step dz (W, 6T) for every window of the stack.

    A Gauss-Newton step solves the normal equations J^T J dz = J^T r; with
    exact=True the step solves H dz = J^T r instead, where H = J^T J + S is
    the exact Hessian of the window objective (see _add_curvature). Where
    residuals stay large at the optimum, as biased VO against noisy
    absolute poses leaves them, Gauss-Newton converges only linearly and
    the exact step quadratically. A window is a chain, so both matrices are
    block-tridiagonal: the blocks and the gradient are accumulated kind by
    kind from _linearize_block and solved by _block_cholesky_solve, the
    only solver. Windows whose exact step is untrusted (see
    MIN_PIVOT_RATIO; far from the optimum H can be indefinite) take a
    Gauss-Newton step instead, solved the same way; an untrusted
    Gauss-Newton step raises RankDeficientError, naming the columns that
    the null space of the window's column-normalized J reaches, from the
    eigenvectors of its J^T J blocks.
    """
    n_win, T = t.shape[:2]
    diag = np.zeros((n_win, T, 6, 6))
    upper = np.zeros((n_win, T - 1, 6, 6))
    g = np.zeros((n_win, T, 6))
    # an entry that overflows is inf, or NaN once infs cancel: the finite
    # check below reports both
    with np.errstate(over="ignore", invalid="ignore"):
        for b in blocks:
            # constraint c couples pose c and, for a relative kind, pose c + 1
            r, ji, jj, f = _linearize_block(b, t, q)
            m = r.shape[1]
            ji_t = _transpose(ji)
            diag[:, :m] += ji_t @ ji
            g[:, :m] += (ji_t @ r[..., None])[..., 0]
            if jj is not None:
                jj_t = _transpose(jj)
                diag[:, 1:m + 1] += jj_t @ jj
                g[:, 1:m + 1] += (jj_t @ r[..., None])[..., 0]
                upper[:, :m] += ji_t @ jj
                del jj_t
            if exact:
                _add_curvature(b, t, q, r, f, diag, upper)
            del r, ji, jj, f, ji_t  # freed before the next kind is linearized
    if not (np.isfinite(diag).all() and np.isfinite(upper).all() and np.isfinite(g).all()):
        raise np.linalg.LinAlgError("solver step is not finite: NaN or inf in the observations or "
                                    "the starting poses, or values so large that the normal "
                                    "matrix overflows")
    dz, _, ok = _block_cholesky_solve(diag, upper, g)
    dz = dz.reshape(n_win, 6 * T)
    bad = np.flatnonzero(~ok)
    if bad.size and exact:
        dz[bad] = _gn_step([b.windows(bad) for b in blocks], t[bad], q[bad])
    elif bad.size:
        # the first bad window's J^T J, scaled to a unit diagonal by J's
        # column norms: its eigenvalues are the squared singular values of
        # the column-normalized J, and the columns its null space reaches
        # are the nonzero diagonal of the null space's projector
        k = np.arange(T)
        h = np.zeros((T, T, 6, 6))
        h[k, k] = diag[bad[0]]
        h[k[:-1], k[1:]] = upper[bad[0]]
        h[k[1:], k[:-1]] = _transpose(upper[bad[0]])
        h = h.transpose(0, 2, 1, 3).reshape(6 * T, 6 * T)
        norm = np.sqrt(np.diagonal(h))
        norm = np.where(norm > 0.0, norm, 1.0)
        eigenvalues, vectors = np.linalg.eigh(h / norm[:, None] / norm)
        null = vectors[:, eigenvalues <= MIN_PIVOT_RATIO ** 2]
        raise RankDeficientError(np.flatnonzero((null ** 2).sum(1) > 1e-12).tolist())
    return dz


def gauss_newton_solve(blocks: list[Block], t: np.ndarray, q: np.ndarray):
    """Solve a stack of windows from the state (t, q): a Gauss-Newton step,
    then exact-Hessian steps.

    Each iteration takes one _gn_step per window, then applies the manifold
    update. A window's first step, from its starting state, is a
    Gauss-Newton step; every later one uses the exact Hessian, which
    converges quadratically near the optimum. (From the absolute poses of
    k=150 loops H is often indefinite: exact first steps reach the same
    optimum, but over half are untrusted and windows take more steps.) Every
    window iterates until its own step norm drops below STEP_TOL or it has
    taken PgoConfig.max_iters steps; windows still iterating are linearized
    together, FUSE_BATCH at a time. Returns the final t and q, and per
    window the number of steps taken, the norm of the last one and whether
    the window converged: whether that norm fell below STEP_TOL. Raises
    RankDeficientError when a window's Jacobian loses full column rank and
    numpy.linalg.LinAlgError when a step is not finite.
    """
    t, q = t.copy(), q.copy()
    n_win, T = t.shape[:2]
    iterations = np.zeros(n_win, dtype=int)
    step_norm = np.full(n_win, np.inf)
    active = np.arange(n_win)
    for i in range(PgoConfig.max_iters):
        for lo in range(0, len(active), FUSE_BATCH):
            stack = active[lo:lo + FUSE_BATCH]
            dz = _gn_step([b.windows(stack) for b in blocks], t[stack], q[stack], exact=i > 0)
            step = dz.reshape(len(stack), T, 6)
            t[stack] += step[..., :3]
            q[stack] = quat.qmul(q[stack], quat.qexp(step[..., 3:]))
            step_norm[stack] = np.linalg.norm(dz, axis=-1)
        iterations[active] += 1
        active = active[step_norm[active] >= STEP_TOL]
        if not active.size:
            break
    return t, q, iterations, step_norm, step_norm < STEP_TOL


@dataclass
class FusionStats:
    """Per-window diagnostics collected by fuse_trajectory when requested,
    one record per window of its stride, in order of their first grid pose:
    solver steps taken (one Gauss-Newton step, then exact-Hessian steps),
    and whether the window converged (its last step was shorter than
    STEP_TOL) rather than stopping at max_iters."""

    window_iterations: list[int] = field(default_factory=list)
    window_converged: list[bool] = field(default_factory=list)


def fuse_trajectory(abs_traj: Trajectory, vo: Trajectory, cfg: PgoConfig,
                    stats: FusionStats | None = None) -> Trajectory:
    """Refine absolute poses with per-frame VO via moving-window optimization.

    vo is a Trajectory of one relative pose per frame after the first,
    stamped with that frame's timestamp (see pose.integrate). Grid frames
    spaced spacing_k apart are optimized in overlapping windows of
    T = window_T poses, which start every max(1, T - 4) grid poses, the
    last at G - T for G grid poses. Each grid pose is taken from the window
    whose centre is nearest it (a tie goes to the earlier window), so it has
    at least two poses of context on each side unless it lies within two of
    an end or T < 5. Each window's optimum depends only on its own
    observations, so every window starts from its absolute poses, and one
    gauss_newton_solve call solves all windows independently.
    Grid-step VO observations come from the integrated VO trajectory, and
    frames off the grid are carried through by composing the nearest
    refined grid pose with the intermediate VO. The carry writes over the
    integrated VO once the window stack is freed, so beside its inputs a
    fuse holds one per-frame pose array until the output copies it.
    """
    n = len(abs_traj)
    if n < 2:
        raise ValueError("need at least 2 poses to fuse")
    if not np.array_equal(vo.timestamps, abs_traj.timestamps[1:]):
        raise ValueError(f"expected {n - 1} per-frame relative poses at the trajectory's "
                         f"timestamps after the first, got {len(vo)} at other timestamps")

    k = min(cfg.spacing_k, n - 1)
    grid = np.arange(0, n, k)
    T = min(cfg.window_T, len(grid))

    # Smooth-but-drifty trajectory from integrating the VO chain; grid-step
    # relative observations are taken between its samples.
    vo_t, vo_q = integrate(abs_traj.t[0], abs_traj.q[0], vo)
    step_t, step_q = relative_pose(vo_t[grid[:-1]], vo_q[grid[:-1]], vo_t[grid[1:]], vo_q[grid[1:]])

    # A stride of T - 4 leaves each emitted pose two grid poses of context on
    # each side; a wider one lost accuracy (T = 7 at stride 5). The last
    # window ends at the last grid pose.
    starts = np.append(np.arange(0, len(grid) - T, max(1, T - 4)), len(grid) - T)
    windows = starts[:, None] + np.arange(T)
    abs_t = abs_traj.t[grid][windows]
    abs_q = abs_traj.q[grid][windows]
    blocks = build_window_graph(abs_t, abs_q, step_t[windows[:, :-1]], step_q[windows[:, :-1]])
    t, q, iterations, _, converged = gauss_newton_solve(blocks, abs_t, abs_q)
    if stats is not None:
        stats.window_iterations.extend(iterations.tolist())
        stats.window_converged.extend(converged.tolist())

    # Each grid pose comes from the window whose centre, start + (T - 1) / 2,
    # is nearest it; a tie goes to the earlier window. In doubled units the
    # boundaries are the midpoints between consecutive centres.
    pose = np.arange(len(grid))
    win = np.searchsorted(starts[:-1] + starts[1:] + T - 1, 2 * pose)
    fused_t, fused_q = t[win, pose - starts[win]], q[win, pose - starts[win]]
    del blocks, abs_t, abs_q, t, q  # the window stack and the solver state

    # Carry non-grid frames through the VO chain from the nearest grid pose,
    # BLOCK_ROWS frames at a time, into the integrated VO: grid frames are
    # never in off, so theirs stay valid until the fused ones go in last.
    # As for the windows above, the nearest is found among the doubled
    # midpoints between grid frames; a tie goes to the earlier one.
    for lo in range(0, n, BLOCK_ROWS):
        frames = np.arange(lo, min(lo + BLOCK_ROWS, n))
        off = frames[frames % k != 0]
        near = np.searchsorted(grid[:-1] + grid[1:], 2 * off)
        rel_t, rel_q = relative_pose(vo_t[off], vo_q[off], vo_t[grid[near]], vo_q[grid[near]])
        vo_t[off], vo_q[off] = compose(fused_t[near], fused_q[near], rel_t, rel_q)
    vo_t[grid], vo_q[grid] = fused_t, fused_q
    return Trajectory(abs_traj.timestamps, vo_t, vo_q)


def _pairwise_angles(q: np.ndarray) -> np.ndarray:
    """Angular distances (m, m) between the unit quaternions q (m, 4), up to
    sign: arccos |<q_a, q_b>|, half the angle between the rotations. arccos
    loses small distances, where the dot product rounds towards 1, so those
    below 1e-4 rad are 2 atan2(|a - b|, |a + b|) with b in a's hemisphere:
    exact there, and exactly 0 from a frame to itself. Above 1e-4 rad arccos
    is accurate to about 1e-8 relative."""
    cos = q @ q.T  # then in place: one (m, m) matrix at a time
    np.arccos(np.clip(np.abs(cos, out=cos), 0.0, 1.0, out=cos), out=cos)
    # np.nonzero of the 2-d mask takes several times longer
    a, b = np.divmod(np.flatnonzero(cos < 1e-4), len(q))  # the diagonal among them
    qa, qb = q[a], _toward(q[b], q[a])
    cos[a, b] = 2.0 * np.arctan2(quat.row_norm(qa - qb), quat.row_norm(qa + qb))
    return cos


def temporal_median_filter(traj: Trajectory, window: int) -> Trajectory:
    """Sliding-window median smoothing; edges use truncated windows.

    Translations take a per-coordinate median; rotations take the window
    element minimizing the summed angular distance to all others. A window
    truncated at an end can hold an even number of frames; its translation
    median is then the mean of its middle two values, as np.median's is.
    A rotation tie goes to the earliest frame.
    """
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be odd and >= 1")
    n = len(traj)
    if window == 1 or n < 2:
        return traj
    half = min(window // 2, n - 1)  # at n - 1 each window holds all n frames
    out_t, out_q = np.empty((n, 3)), np.empty((n, 4))
    # Frame i's window is row i of the translations padded with half NaN
    # rows at each end. Sorting puts a truncated window's NaNs last, so its
    # middle values sit at the ranks of its true size.
    padded = np.full((n + 2 * half, 3), np.nan)
    padded[half:half + n] = traj.t
    win_t = sliding_window_view(padded, 2 * half + 1, axis=0)  # (n, 3, 2 half + 1)
    for lo in range(0, n, MEDIAN_CHUNK):
        centre = np.arange(lo, min(lo + MEDIAN_CHUNK, n))
        size = np.minimum(centre + half + 1, n) - np.maximum(centre - half, 0)
        ranked = np.sort(win_t[lo:lo + MEDIAN_CHUNK], axis=-1)
        rows = centre - lo
        mid = ranked[rows, :, (size - 1) // 2]
        even = size % 2 == 0
        mid[even] = (mid[even] + ranked[rows[even], :, size[even] // 2]) / 2
        out_t[centre] = mid
    # A window's summed angles add up the rows of the chunk's angle matrix
    # that lie inside it. Frames outside it read inf, and argmin takes the
    # earliest of tied frames. first + last grows from window to window, bar
    # the equal ones cut at both ends, so each distinct window is summed once.
    chunk = max(MEDIAN_CHUNK, half // 2 + 1)  # two chunks at half = n - 1
    for lo in range(0, n, chunk):
        centre = np.arange(lo, min(lo + chunk, n))
        first, last = np.maximum(centre - half, 0), np.minimum(centre + half, n - 1)
        _, keep, row = np.unique(first + last, return_index=True, return_inverse=True)
        frames = np.arange(first[0], last[-1] + 1)
        inside = (frames >= first[keep, None]) & (frames <= last[keep, None])
        sums = inside @ _pairwise_angles(traj.q[frames])
        sums[~inside] = np.inf
        out_q[centre] = traj.q[frames[np.argmin(sums, axis=1)[row]]]
    return Trajectory(traj.timestamps, out_t, out_q)
