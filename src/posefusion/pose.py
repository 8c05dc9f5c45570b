"""Pose geometry on arrays and the two sequence types.

A pose is a translation t (..., 3) in meters and a unit quaternion
q (..., 4); a relative pose is a translation t (..., 3) and a unit
quaternion q (..., 4) too: pose i seen from pose j is
(R(q_j)(t_i - t_j), q_j^-1 * q_i). The two halves do not read q the same
way, so relative poses do not chain: composing i-from-j with j-from-k
misses i-from-k (ROADMAP item 15). Every function here takes such arrays
with leading batch axes. A Trajectory holds n timestamped poses as
t (n, 3) and q (n, 4), a VoChain m timestamped relative poses as t (m, 3)
and, as the VO file format stores them, log rotations w (m, 3); one
validator checks both in bulk and keeps read-only copies. Rules trajio's
readers share are stated once here: a mask function and a message each.
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
NOT_INCREASING_ERROR = "timestamps must be strictly increasing"


def log_norm_too_large(w: np.ndarray) -> np.ndarray:
    """Mask of the log rotations w (m, 3) whose norm exceeds MAX_LOG_NORM."""
    return quat.row_norm(w) > MAX_LOG_NORM


def not_increasing(timestamps: np.ndarray) -> np.ndarray:
    """Mask of the timestamps (n,) that do not exceed the one before."""
    mask = np.zeros(len(timestamps), dtype=bool)
    mask[1:] = timestamps[1:] <= timestamps[:-1]
    return mask


def _freeze(a: np.ndarray) -> np.ndarray:
    """A read-only copy, so no caller can change a validated array."""
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


def _check_finite(**arrays: np.ndarray) -> None:
    for name, a in arrays.items():
        if not np.isfinite(a).all():
            raise ValueError(f"non-finite value (NaN or inf) in {name}")


def _validate(seq, rot: str, width: int, size: str) -> np.ndarray:
    """Check seq's shapes, finite timestamps and t, and increasing timestamps.

    Stores read-only timestamps and t on seq; returns its field rot as floats.
    """
    ts, t, r = (np.asarray(getattr(seq, f), dtype=float) for f in ("timestamps", "t", rot))
    if ts.ndim != 1 or t.shape != (len(ts), 3) or r.shape != (len(ts), width):
        raise ValueError(f"need timestamps ({size},), t ({size}, 3) and {rot} ({size}, {width}); "
                         f"got {ts.shape}, {t.shape}, {r.shape}")
    _check_finite(timestamps=ts, t=t)
    if not_increasing(ts).any():
        raise ValueError(NOT_INCREASING_ERROR)
    object.__setattr__(seq, "timestamps", _freeze(ts))
    object.__setattr__(seq, "t", _freeze(t))
    return r


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
        q = _validate(self, "q", 4, "n")
        quat.check_unit(q)
        q = quat.canonicalize(q)  # a new array: read-only without a copy
        q.flags.writeable = False
        object.__setattr__(self, "q", q)

    def __len__(self) -> int:
        return len(self.timestamps)


@dataclass(frozen=True)
class VoChain:
    """Per-frame visual odometry as arrays: m consecutive relative poses.

    Row r is the relative pose of frame r observed from frame r + 1 (see
    relative_pose): translation t (m, 3) = R(q_{r+1})(t_r - t_{r+1}) in
    meters and the log w (m, 3) of its rotation q_{r+1}^-1 * q_r, as the VO
    file stores it, stamped with the observer frame's timestamp. Fused with
    a trajectory of n frames, m = n - 1 and the timestamps are the
    trajectory's after the first.
    Construction checks finite values, |w| <= MAX_LOG_NORM and strictly
    increasing timestamps.
    """

    timestamps: np.ndarray
    t: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        w = _validate(self, "w", 3, "m")
        _check_finite(w=w)
        if log_norm_too_large(w).any():
            raise ValueError(LOG_NORM_ERROR)
        object.__setattr__(self, "w", _freeze(w))

    def __len__(self) -> int:
        return len(self.timestamps)


def relative_pose(t_i, q_i, t_j, q_j) -> tuple[np.ndarray, np.ndarray]:
    """Relative pose (t, q) of poses i as seen from observer poses j.

    t = R(q_j)(t_i - t_j), q = q_j^-1 * q_i; leading batch axes. The
    quaternions are not canonicalized.
    """
    return quat.qrotate(q_j, t_i - t_j), quat.qmul(quat.qinv(q_j), q_i)


def compose(t_j, q_j, rel_t, rel_q) -> tuple[np.ndarray, np.ndarray]:
    """Recover (t_i, q_i) from observer poses j and (rel_t, rel_q) = relative_pose(i, j).

    q_i = q_j * rel_q; leading batch axes. The quaternions are not
    canonicalized.
    """
    return t_j + quat.qrotate(quat.qinv(q_j), rel_t), quat.qmul(q_j, rel_q)


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


def rotation_error_deg(q_a: np.ndarray, q_b: np.ndarray):
    """Angle between two rotations in degrees, insensitive to q vs -q.

    Equal to 2*acos(|<q_a, q_b>|) but computed through the relative
    quaternion with atan2, which stays accurate near zero. Takes leading
    batch axes; one pair of rows gives an np.float64, which is a float.
    """
    r = quat.qmul(quat.qinv(q_a), q_b)
    return np.degrees(2.0 * np.arctan2(quat.row_norm(r[..., 1:]), np.abs(r[..., 0])))
