import numpy as np
import pytest

from posefusion import quat
from posefusion.pgo import Block, ConstraintKind, build_window_graph, linearize
from posefusion.pose import Pose


def random_unit_quat(rng, positive_scalar=False):
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return quat.canonicalize(q) if positive_scalar else q


def random_pose(rng, scale=1.0):
    return Pose(scale * rng.normal(size=3), random_unit_quat(rng))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def stack_window(poses):
    """A Pose list as a stack of one window: t (1, T, 3) and q (1, T, 4)."""
    return np.array([[p.t for p in poses]]), np.array([[p.q for p in poses]])


def window_graph(poses, vo, cfg):
    """pgo.build_window_graph of one window given as Pose and RelativePose lists."""
    t, q = stack_window(poses)
    vo_t = np.array([r.t for r in vo]).reshape(1, -1, 3)
    vo_q = np.array([r.q for r in vo]).reshape(1, -1, 4)
    return build_window_graph(t, q, vo_t, vo_q, cfg)


def single_block(kind, observation, covariance):
    """One constraint of kind on pose 0 (seen from pose 1 if relative) of one window."""
    relative = kind in (ConstraintKind.REL_TRANSLATION, ConstraintKind.REL_ROTATION)
    return Block(kind, np.array([0]), np.array([1]) if relative else None,
                 np.asarray(observation, dtype=float)[None, None],
                 np.linalg.cholesky(covariance).T[None])


def perturb_state(t, q, dz):
    """Manifold step of a one-window state (t, q) by dz (6T,), for finite differences."""
    step = dz.reshape(1, -1, 6)
    return t + step[..., :3], quat.qmul(q, quat.qexp(step[..., 3:]))


def objective(blocks, t, q):
    """Whitened squared error E(z) of a one-window state."""
    r, _ = linearize(blocks, t, q, jacobian=False)
    return float(r[0] @ r[0])
