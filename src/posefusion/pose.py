"""Pose geometry on arrays, the two sequence types, and the geometric loss.

A pose is a translation t (..., 3) in meters and a unit quaternion
q (..., 4); a relative pose is an observer-frame translation t (..., 3)
and a log-quaternion rotation w (..., 3). Every function here takes such
arrays with leading batch axes. A Trajectory holds n timestamped poses as
t (n, 3) and q (n, 4), a VoChain m timestamped relative poses as t (m, 3)
and w (m, 3); both validate their arrays once, in bulk, and keep
read-only copies. Two flavours of relative pose coexist:

* ``relative_pose`` -- the observer-frame form used by the VO comparison
  and the pose-graph constraints: t = R(q_j)(t_i - t_j), q = q_j^-1 * q_i.
* the elementwise-subtraction form (t_i - t_j, w_i - w_j), used inside the
  pairwise training loss ``mapnet_loss``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat

# Rows that each per-frame stage takes at a time: file reads and writes, VO
# integration and the off-grid carry. A block's temporaries, Python floats
# and text take under 1 MB, so those stages add no whole-sequence copies.
BLOCK_ROWS = 2048

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
        q = quat.canonicalize(q)  # a new array: read-only without a copy
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

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


def relative_pose(t_i, q_i, t_j, q_j) -> tuple[np.ndarray, np.ndarray]:
    """Relative pose (t, w) of poses i as seen from observer poses j.

    t = R(q_j)(t_i - t_j), w = log(q_j^-1 * q_i); leading batch axes.
    """
    t = quat.qrotate(q_j, t_i - t_j)
    w = quat.qlog(quat.qmul(quat.qinv(q_j), q_i))
    return t, w


def compose(t_j, q_j, rel_t, rel_w) -> tuple[np.ndarray, np.ndarray]:
    """Recover (t_i, q_i) from observer poses j and (rel_t, rel_w) = relative_pose(i, j).

    Takes leading batch axes. The quaternions are not canonicalized.
    """
    q_i = quat.qmul(q_j, quat.qexp(rel_w))
    t_i = t_j + quat.qrotate(quat.qinv(q_j), rel_t)
    return t_i, q_i


def integrate(t0, q0, vo: VoChain) -> tuple[np.ndarray, np.ndarray]:
    """Integrate the VO chain forward from the start pose (t0 (3,), q0 (4,)).

    Returns t (m + 1, 3) and canonical q (m + 1, 4) for the m relative poses
    of vo, row 0 being the start. Frame r + 1 is the observer of vo row r
    (translation d_r, log rotation w_r): q_{r+1} = q_r * exp(w_r)^-1 and
    t_{r+1} = t_r - R(q_{r+1})^-1 d_r.
    """
    # Only the rotations form a sequential chain. It runs on Python floats,
    # with the arithmetic of quat.qmul on one row, BLOCK_ROWS rows at a time
    # into the preallocated output. Negating a factor negates the product
    # exactly, so canonicalizing each block as it is stored gives the rows
    # that canonicalizing every step would. Translations subtract the rotated
    # steps one after another, in the order of the chain, carried from block
    # to block; a cumsum would re-associate the sum.
    m = len(vo)
    t, q = np.empty((m + 1, 3)), np.empty((m + 1, 4))
    t[0], q[0] = t0, quat.canonicalize(q0)
    u, x, y, z = np.asarray(q0, dtype=float).tolist()
    for lo in range(0, m, BLOCK_ROWS):
        rows = []
        for bu, bx, by, bz in quat.qinv(quat.qexp(vo.w[lo:lo + BLOCK_ROWS])).tolist():
            u, x, y, z = (u * bu - x * bx - y * by - z * bz,
                          u * bx + bu * x + y * bz - z * by,
                          u * by + bu * y + z * bx - x * bz,
                          u * bz + bu * z + x * by - y * bx)
            rows.append((u, x, y, z))
        block = slice(lo + 1, lo + 1 + len(rows))
        q[block] = quat.canonicalize(np.array(rows))
        steps = quat.qrotate(quat.qinv(q[block]), vo.t[lo:lo + BLOCK_ROWS])
        t[block] = np.subtract.accumulate(np.concatenate((t[lo:lo + 1], steps)), axis=0)[1:]
    return t, q


def _weighted_l1(dt: np.ndarray, dw: np.ndarray, cfg: LossConfig) -> np.ndarray:
    """Per row: |dt|_1 e^-beta + beta + |dw|_1 e^-gamma + gamma."""
    return (np.sum(np.abs(dt), axis=-1) * np.exp(-cfg.beta) + cfg.beta
            + np.sum(np.abs(dw), axis=-1) * np.exp(-cfg.gamma) + cfg.gamma)


def pose_distance(t, q, t_star, q_star, cfg: LossConfig) -> np.ndarray:
    """Weighted L1 distance of each pose row to its reference row.

    |t-t*|_1 e^-beta + beta + |w-w*|_1 e^-gamma + gamma, with rotations
    compared in log form w = qlog(q); leading batch axes.
    """
    return _weighted_l1(np.subtract(t, t_star), quat.qlog(q) - quat.qlog(q_star), cfg)


def sample_pairs(n: int, s: int, k: int) -> np.ndarray:
    """Index pairs (P, 2) from tuples (i, i+k, ..., i+k(s-1)) for every valid start.

    Neighboring elements of each tuple form a pair; tuples start at every
    index (stride 1), so overlapping tuples repeat pairs. Rows run over the
    starts, and within a start over its tuple's pairs in order. Indices are
    0-based; with n <= k(s-1) there is no tuple and the array is (0, 2).
    """
    starts = np.arange(max(n - k * (s - 1), 0))
    first = starts[:, None] + k * np.arange(s - 1)  # (starts, s - 1)
    return np.stack((first, first + k), axis=-1).reshape(-1, 2)


def mapnet_loss(pred_t, pred_q, gt_t, gt_q, cfg: LossConfig) -> float:
    """Absolute-pose loss plus alpha-weighted pairwise relative-pose loss.

    Takes predicted and ground-truth poses as t (n, 3) and q (n, 4).
    Relative terms use the subtraction form (t_i - t_j, w_i - w_j) over the
    pairs of sample_pairs: k-spaced tuples of size s.
    """
    if not len(pred_t) == len(pred_q) == len(gt_t) == len(gt_q):
        raise ValueError("pred and gt must have equal length")
    n = len(pred_t)
    needed = cfg.k * (cfg.s - 1) + 1  # shortest sequence holding one tuple
    if n < needed:
        raise ValueError(f"need at least {needed} poses to form one tuple, got {n}")
    pred_t, gt_t = np.asarray(pred_t, dtype=float), np.asarray(gt_t, dtype=float)
    pred_w, gt_w = quat.qlog(pred_q), quat.qlog(gt_q)
    i, j = sample_pairs(n, cfg.s, cfg.k).T
    rel = _weighted_l1((pred_t[i] - pred_t[j]) - (gt_t[i] - gt_t[j]),
                       (pred_w[i] - pred_w[j]) - (gt_w[i] - gt_w[j]), cfg)
    return float(np.sum(_weighted_l1(pred_t - gt_t, pred_w - gt_w, cfg)) + cfg.alpha * np.sum(rel))


def rotation_error_deg(q_a: np.ndarray, q_b: np.ndarray):
    """Angle between two rotations in degrees, insensitive to q vs -q.

    Equal to 2*acos(|<q_a, q_b>|) but computed through the relative
    quaternion with atan2, which stays accurate near zero. Takes leading
    batch axes; one pair of rows gives an np.float64, which is a float.
    """
    r = quat.qmul(quat.qinv(q_a), q_b)
    return np.degrees(2.0 * np.arctan2(quat.row_norm(r[..., 1:]), np.abs(r[..., 0])))
