import numpy as np
import pytest

from posefusion import quat
from posefusion.pgo import Block, ConstraintKind, _linearize_block, build_window_graph
from posefusion.pose import relative_pose


def random_unit_quat(rng, positive_scalar=False):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return quat.canonicalize(q) if positive_scalar else q


def random_pose(rng, scale=1.0):
    """One random pose: translation t (3,) and canonical unit quaternion q (4,)."""
    t = scale * rng.normal(size=3)
    return t, quat.canonicalize(random_unit_quat(rng))


def stack_poses(poses):
    """A list of (t, q) poses as arrays t (n, 3) and q (n, 4)."""
    return (np.array([t for t, _ in poses]).reshape(-1, 3),
            np.array([q for _, q in poses]).reshape(-1, 4))


def random_poses(rng, n, scale=1.0):
    """n random poses, drawn one after another, as t (n, 3) and q (n, 4)."""
    return stack_poses([random_pose(rng, scale) for _ in range(n)])


def safe_random_poses(rng, n):
    """n random poses whose scalar parts exceed 1e-2, away from the hemisphere
    boundary where the log chart is not smooth."""
    poses = []
    while len(poses) < n:
        t, q = random_pose(rng)
        if q[0] > 1e-2:
            poses.append((t, q))
    return stack_poses(poses)


def chain_vo(t, q):
    """Consecutive relative poses (t, w): pose i as seen from pose i + 1."""
    return relative_pose(t[:-1], q[:-1], t[1:], q[1:])


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def window_graph(t, q, vo_t, vo_w):
    """pgo.build_window_graph of one window: poses t (T, 3), q (T, 4) and
    relative poses vo_t (T-1, 3), vo_w (T-1, 3)."""
    return build_window_graph(t[None], q[None], np.reshape(vo_t, (1, -1, 3)),
                              quat.qexp(np.reshape(vo_w, (1, -1, 3))))


def single_block(kind, observation, weight):
    """One constraint of kind on pose 0 (seen from pose 1 if relative) of one window."""
    return Block(kind, np.asarray(observation, dtype=float)[None, None], weight)


def rotation_observables(kind, q):
    """The rotations a block of kind compares with its observations, raw."""
    if kind is ConstraintKind.ABS_ROTATION:
        return q
    return quat.qmul(quat.qinv(q[:, 1:]), q[:, :-1])


def near_sign_flip(b, q, margin=1e-2):
    """Whether b is a rotation block whose first constraint lies within
    margin of the sign rule's flip boundary <f, obs> = 0 at the state q."""
    if b.kind not in (ConstraintKind.ABS_ROTATION, ConstraintKind.REL_ROTATION):
        return False
    return abs(rotation_observables(b.kind, q)[0, 0] @ b.obs[0, 0]) < margin


def perturb_state(t, q, dz):
    """Manifold step of a window stack (t, q) by dz (W, 6T), or of one window
    by dz (6T,)."""
    step = dz.reshape(t.shape[:2] + (6,))
    return t + step[..., :3], quat.qmul(q, quat.qexp(step[..., 3:]))


def linearize(blocks, t, q):
    """Weighted residuals (W, M) and dense Jacobians (W, M, 6T) of a window
    stack: the dense referee of pgo._linearize_block.

    Rows run block by block, constraint by constraint; a window's objective
    E(z) is the squared norm of its residual row, r[w] @ r[w]. The
    first-order change of the residual along dz is -J dz. The dense
    Jacobian is scattered from the per-pose blocks of _linearize_block.
    """
    n_win, T = t.shape[:2]
    residuals, jacobians = [], []
    for b in blocks:
        r, ji, jj, _ = _linearize_block(b, t, q)
        residuals.append(r.reshape(n_win, -1))
        m, d = r.shape[1:]
        c = np.arange(m)
        jac = np.zeros((n_win, m, T, d, 6))
        jac[:, c, c] = ji
        if jj is not None:
            jac[:, c, c + 1] = jj
        jacobians.append(jac.transpose(0, 1, 3, 2, 4).reshape(n_win, m * d, 6 * T))
    return np.concatenate(residuals, axis=1), np.concatenate(jacobians, axis=1)


def fd_jacobian(blocks, t, q, h=1e-6):
    """-d(residual)/d(manifold coords) of a one-window state by central differences."""
    n = 6 * t.shape[1]
    cols = []
    for m in range(n):
        e = np.zeros(n)
        e[m] = h
        r_plus = linearize(blocks, *perturb_state(t, q, e))[0]
        r_minus = linearize(blocks, *perturb_state(t, q, -e))[0]
        cols.append(-(r_plus[0] - r_minus[0]) / (2 * h))
    return np.column_stack(cols)


def objective(blocks, t, q):
    """Whitened squared error E(z) of a one-window state."""
    r = linearize(blocks, t, q)[0]
    return float(r[0] @ r[0])
