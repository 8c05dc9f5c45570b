"""Pose value types, relative-pose geometry, and the geometric loss.

A Pose is a 3-d translation in meters plus a unit quaternion. A
RelativePose stores the translation in the observer frame and the rotation
as a log quaternion. Sequences are stored as arrays: a Trajectory holds n
timestamped poses as t (n, 3) and q (n, 4), a VoChain m timestamped
relative poses as t (m, 3) and w (m, 3). Both validate their arrays once,
in bulk, and keep read-only copies. Two flavours of relative pose coexist:

* ``relative_pose`` -- the observer-frame form used by the VO comparison
  and the pose-graph constraints: t = R(q_j)(t_i - t_j), q = q_j^-1 * q_i.
* ``relative_pose_delta`` -- the elementwise-subtraction form used inside
  the pairwise training loss: (t_i - t_j, w_i - w_j).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import quat

# Largest accepted norm of a log quaternion: the half angle of a full turn,
# with room for rounding.
MAX_LOG_NORM = np.pi + 1e-9
LOG_NORM_ERROR = "log-quaternion norm exceeds pi"


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only copy, so no caller can change a validated array."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _check_finite(**arrays: np.ndarray) -> None:
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite value (NaN or inf) in {name}")


def _check_log_norm(w: np.ndarray) -> None:
    if np.any(quat.row_norm(w) > MAX_LOG_NORM):
        raise ValueError(LOG_NORM_ERROR)


def _check_increasing(timestamps: np.ndarray) -> None:
    if not np.all(np.diff(timestamps) > 0):
        raise ValueError("timestamps must be strictly increasing")


@dataclass(frozen=True)
class Pose:
    """One trajectory sample: translation t (m) and unit quaternion q."""

    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if t.shape != (3,) or q.shape != (4,):
            raise ValueError(f"bad pose shapes t{t.shape} q{q.shape}")
        _check_finite(t=t)
        quat.check_unit(q)
        object.__setattr__(self, "t", _freeze(t))
        object.__setattr__(self, "q", _freeze(quat.canonicalize(q)))

    @classmethod
    def _row(cls, t: np.ndarray, q: np.ndarray) -> "Pose":
        """A Pose over validated read-only rows of a Trajectory, not copied."""
        pose = object.__new__(cls)
        object.__setattr__(pose, "t", t)
        object.__setattr__(pose, "q", q)
        return pose

    @staticmethod
    def identity() -> "Pose":
        return Pose(np.zeros(3), quat.IDENTITY)

    @property
    def w(self) -> np.ndarray:
        """Rotation as a log quaternion."""
        return quat.qlog(self.q)


@dataclass(frozen=True)
class RelativePose:
    """Observer-frame translation (m) + log-quaternion rotation."""

    t: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if t.shape != (3,) or w.shape != (3,):
            raise ValueError(f"bad relative-pose shapes t{t.shape} w{w.shape}")
        _check_finite(t=t, w=w)
        _check_log_norm(w)
        object.__setattr__(self, "t", _freeze(t))
        object.__setattr__(self, "w", _freeze(w))

    @staticmethod
    def identity() -> "RelativePose":
        return RelativePose(np.zeros(3), np.zeros(3))

    @property
    def q(self) -> np.ndarray:
        return quat.qexp(self.w)


class _PoseRows(Sequence):
    """The rows of a trajectory's t and q arrays as read-only Poses."""

    def __init__(self, t: np.ndarray, q: np.ndarray):
        self._t, self._q = t, q

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _PoseRows(self._t[i], self._q[i])
        return Pose._row(self._t[i], self._q[i])


@dataclass(frozen=True)
class Trajectory:
    """Timestamped poses as arrays: t (n, 3) in meters, unit q (n, 4).

    Construction checks, over the whole arrays at once, that every value
    is finite, every quaternion unit-norm (quat.check_unit) and the
    timestamps strictly increasing; quaternions are then canonicalized.
    """

    timestamps: np.ndarray
    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        t = np.asarray(self.t, dtype=float)
        q = np.asarray(self.q, dtype=float)
        if ts.ndim != 1 or t.shape != (len(ts), 3) or q.shape != (len(ts), 4):
            raise ValueError(f"need timestamps (n,), t (n, 3) and q (n, 4); "
                             f"got {ts.shape}, {t.shape}, {q.shape}")
        _check_finite(timestamps=ts, t=t)
        quat.check_unit(q)
        _check_increasing(ts)
        object.__setattr__(self, "timestamps", _freeze(ts))
        object.__setattr__(self, "t", _freeze(t))
        object.__setattr__(self, "q", _freeze(quat.canonicalize(q)))

    @classmethod
    def from_poses(cls, timestamps, poses) -> "Trajectory":
        """A trajectory from one Pose per timestamp."""
        poses = list(poses)
        return cls(timestamps, np.array([p.t for p in poses]).reshape(-1, 3),
                   np.array([p.q for p in poses]).reshape(-1, 4))

    @property
    def poses(self) -> Sequence[Pose]:
        """Row i as a read-only Pose; rows are made on access."""
        return _PoseRows(self.t, self.q)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class VoChain:
    """Per-frame visual odometry as arrays: m consecutive relative poses.

    Row r is the relative pose of frame r observed from frame r + 1 (see
    relative_pose): observer-frame translation t (m, 3) in meters and log
    rotation w (m, 3), stamped with the observer frame's timestamp. Fused
    with a trajectory of n frames, m = n - 1 and the timestamps are the
    trajectory's after the first. Construction checks finite values,
    |w| <= MAX_LOG_NORM and strictly increasing timestamps.
    """

    timestamps: np.ndarray
    t: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=float)
        t = np.asarray(self.t, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if ts.ndim != 1 or t.shape != (len(ts), 3) or w.shape != (len(ts), 3):
            raise ValueError(f"need timestamps (m,), t (m, 3) and w (m, 3); "
                             f"got {ts.shape}, {t.shape}, {w.shape}")
        _check_finite(timestamps=ts, t=t, w=w)
        _check_log_norm(w)
        _check_increasing(ts)
        object.__setattr__(self, "timestamps", _freeze(ts))
        object.__setattr__(self, "t", _freeze(t))
        object.__setattr__(self, "w", _freeze(w))

    @classmethod
    def from_relative(cls, timestamps, rels) -> "VoChain":
        """A chain from one RelativePose per timestamp."""
        rels = list(rels)
        return cls(timestamps, np.array([r.t for r in rels]).reshape(-1, 3),
                   np.array([r.w for r in rels]).reshape(-1, 3))

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass
class LossConfig:
    """Weights and pair-sampling parameters for the training-style loss."""

    beta: float = 0.0
    gamma: float = -3.0
    alpha: float = 1.0
    s: int = 3
    k: int = 10

    def __post_init__(self):
        if self.s < 2:
            raise ValueError("tuple size s must be >= 2")
        if self.k < 1:
            raise ValueError("frame spacing k must be >= 1")
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")


def relative_pose_arrays(t_i, q_i, t_j, q_j) -> tuple[np.ndarray, np.ndarray]:
    """relative_pose over stacks of poses: (t, w) with leading batch axes."""
    t = quat.qrotate(q_j, t_i - t_j)
    w = quat.qlog(quat.qmul(quat.qinv(q_j), q_i))
    return t, w


def relative_pose(p_i: Pose, p_j: Pose) -> RelativePose:
    """Relative pose of p_i as seen from observer p_j.

    t = R(q_j)(t_i - t_j), w = log(q_j^-1 * q_i).
    """
    return RelativePose(*relative_pose_arrays(p_i.t, p_i.q, p_j.t, p_j.q))


def relative_pose_delta(p_i: Pose, p_j: Pose) -> RelativePose:
    """Subtraction-form relative pose: (t_i - t_j, w_i - w_j)."""
    return RelativePose(p_i.t - p_j.t, p_i.w - p_j.w)


def compose_arrays(t_j, q_j, rel_t, rel_w) -> tuple[np.ndarray, np.ndarray]:
    """compose over stacks of poses: (t, q) with leading batch axes.

    The quaternions are not canonicalized.
    """
    q_i = quat.qmul(q_j, quat.qexp(rel_w))
    t_i = t_j + quat.qrotate(quat.qinv(q_j), rel_t)
    return t_i, q_i


def compose(p_j: Pose, rel: RelativePose) -> Pose:
    """Recover p_i from the observer pose p_j and rel = relative_pose(p_i, p_j)."""
    return Pose(*compose_arrays(p_j.t, p_j.q, rel.t, rel.w))


def integrate(start: Pose, vo: VoChain) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the VO chain forward from start.

    Returns t (m + 1, 3) and canonical q (m + 1, 4) for the m relative poses
    of vo, row 0 being start. Frame r + 1 is the observer of vo row r
    (translation d_r, log rotation w_r): q_{r+1} = q_r * exp(w_r)^-1 and
    t_{r+1} = t_r - R(q_{r+1})^-1 d_r.
    """
    # Only the rotations form a sequential chain. It runs on Python floats,
    # with the arithmetic of quat.qmul and quat.canonicalize on one row.
    u, x, y, z = start.q.tolist()
    rows = [(u, x, y, z)]
    for bu, bx, by, bz in quat.qinv(quat.qexp(vo.w)).tolist():
        u, x, y, z = (u * bu - x * bx - y * by - z * bz,
                      u * bx + bu * x + y * bz - z * by,
                      u * by + bu * y + z * bx - x * bz,
                      u * bz + bu * z + x * by - y * bx)
        if (u or x or y or z) < 0.0:
            u, x, y, z = -u, -x, -y, -z
        rows.append((u, x, y, z))
    q = np.array(rows)
    # Translations subtract the rotated steps one after another, in the
    # order of the chain; a cumsum would re-associate the sum.
    steps = quat.qrotate(quat.qinv(q[1:]), vo.t)
    t = np.subtract.accumulate(np.concatenate((start.t[None], steps)), axis=0)
    return t, q


def pose_distance(p, p_star, cfg: LossConfig) -> float:
    """Weighted L1 pose distance: |t-t*|_1 e^-beta + beta + |w-w*|_1 e^-gamma + gamma.

    Accepts two Pose or two RelativePose; rotations are compared in log form.
    """
    if isinstance(p, Pose) != isinstance(p_star, Pose):
        raise ValueError("operands must be of matching kind")
    w = p.w
    w_star = p_star.w
    dt = float(np.sum(np.abs(p.t - p_star.t)))
    dw = float(np.sum(np.abs(w - w_star)))
    return dt * np.exp(-cfg.beta) + cfg.beta + dw * np.exp(-cfg.gamma) + cfg.gamma


def sample_pairs(n: int, s: int, k: int) -> list[tuple[int, int]]:
    """Index pairs from tuples (i, i+k, ..., i+k(s-1)) for every valid start.

    Neighboring elements of each tuple form a pair; tuples start at every
    index (stride 1), so overlapping tuples repeat pairs. Indices are
    0-based.
    """
    span = k * (s - 1)
    pairs = []
    for i in range(n - span):
        for m in range(s - 1):
            pairs.append((i + k * m, i + k * (m + 1)))
    return pairs


def mapnet_loss(pred: list[Pose], gt: list[Pose], cfg: LossConfig) -> float:
    """Absolute-pose loss plus alpha-weighted pairwise relative-pose loss.

    Relative terms use the subtraction form over pairs sampled from
    k-spaced tuples of size s.
    """
    if len(pred) != len(gt):
        raise ValueError("pred and gt must have equal length")
    n = len(pred)
    needed = cfg.k * (cfg.s - 1) + 1  # shortest sequence holding one tuple
    if n < needed:
        raise ValueError(f"need at least {needed} poses to form one tuple, got {n}")
    total = sum(pose_distance(p, p_star, cfg) for p, p_star in zip(pred, gt))
    for i, j in sample_pairs(n, cfg.s, cfg.k):
        v = relative_pose_delta(pred[i], pred[j])
        v_star = relative_pose_delta(gt[i], gt[j])
        total += cfg.alpha * pose_distance(v, v_star, cfg)
    return float(total)


def rotation_error_deg(q_a: np.ndarray, q_b: np.ndarray):
    """Angle between two rotations in degrees, insensitive to q vs -q.

    Equal to 2*acos(|<q_a, q_b>|) but computed through the relative
    quaternion with atan2, which stays accurate near zero. Takes leading
    batch axes; one pair of rows gives a float.
    """
    r = quat.qmul(quat.qinv(q_a), q_b)
    angle = np.degrees(2.0 * np.arctan2(quat.row_norm(r[..., 1:]), np.abs(r[..., 0])))
    return angle if np.ndim(angle) else float(angle)


def transform(p: Pose, g_t: np.ndarray, g_q: np.ndarray) -> Pose:
    """Apply a global rigid transform: t -> R(g_q) t + g_t, q -> q * g_q^-1."""
    return Pose(quat.qrotate(g_q, p.t) + np.asarray(g_t, dtype=float),
                quat.qmul(p.q, quat.qinv(g_q)))


def transform_relative(rel: RelativePose, g_q: np.ndarray) -> RelativePose:
    """Relative pose under the same global transform: axis of w rotates."""
    return RelativePose(rel.t, quat.qrotate(g_q, rel.w))
