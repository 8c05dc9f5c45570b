"""Pose geometry on arrays and the trajectory type.

A pose is a translation t (..., 3) in meters and a unit quaternion
q (..., 4); a relative pose is a translation t (..., 3) and a unit
quaternion q (..., 4) too: pose i seen from pose j is
(R(q_j)(t_i - t_j), q_j^-1 * q_i). The two halves do not read q the same
way, so relative poses do not chain: composing i-from-j with j-from-k
misses i-from-k (ROADMAP item 15). Every function here takes such arrays
with leading batch axes. A Trajectory holds n timestamped poses as
t (n, 3) and q (n, 4), checked in bulk and kept read-only, q with the signs
it is given: q and -q are one rotation, and only trajio's writers pick a
sign. It keeps an array that is already read-only, float64 and owns its
data, as the producers in pgo and trajio freeze theirs, and copies any
other; a writeable view made before such an array was frozen could still
write into it, and no producer keeps one. Per-frame VO is a Trajectory of
relative poses; only its file format, in trajio, stores their rotations as
logs. The timestamp rule that trajio's readers share is stated once here: a
mask function and its message; so is the integer check (_index) of the
integer parameters of pgo and sim.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from . import quat

# Rows that each per-frame stage takes at a time: file reads and writes, VO
# integration and the off-grid carry. A block's temporaries, Python floats
# and text take under 1 MB, so those stages add no whole-sequence copies.
BLOCK_ROWS = 2048

NOT_INCREASING_ERROR = "timestamps must be strictly increasing"


def not_increasing(timestamps: np.ndarray) -> np.ndarray:
    """Mask of the timestamps (n,) that do not exceed the one before."""
    mask = np.zeros(len(timestamps), dtype=bool)
    mask[1:] = timestamps[1:] <= timestamps[:-1]
    return mask


def _index(name: str, value) -> int:
    """value as operator.index gives it (numpy integers too), else a TypeError naming it."""
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None


def _freeze(a: np.ndarray) -> np.ndarray:
    """The float64 array a, read-only, so no caller can change it once it is
    validated: a itself when it is read-only and owns its data, else a
    read-only copy. A writeable view taken before a was frozen still could."""
    if a.flags.owndata and not a.flags.writeable:
        return a
    a = np.array(a, dtype=float)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Trajectory:
    """Timestamped poses as arrays: t (n, 3) in meters, unit q (n, 4).

    Construction checks, over the whole arrays at once, that every value
    is finite, every quaternion unit-norm (quat.check_unit) and the
    timestamps strictly increasing; q keeps the signs it is given. Each
    array is kept read-only, as given when it already is read-only, float64
    and owns its data, else as a copy.
    """

    timestamps: np.ndarray
    t: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        ts, t, q = (np.asarray(a, dtype=float) for a in (self.timestamps, self.t, self.q))
        if ts.ndim != 1 or t.shape != (len(ts), 3) or q.shape != (len(ts), 4):
            raise ValueError(f"need timestamps (n,), t (n, 3) and q (n, 4); "
                             f"got {ts.shape}, {t.shape}, {q.shape}")
        for name, a in (("timestamps", ts), ("t", t)):
            if not np.isfinite(a).all():
                raise ValueError(f"non-finite value (NaN or inf) in {name}")
        if not_increasing(ts).any():
            raise ValueError(NOT_INCREASING_ERROR)
        quat.check_unit(q)
        for name, a in (("timestamps", ts), ("t", t), ("q", q)):
            object.__setattr__(self, name, _freeze(a))

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


def integrate(t0, q0, vo: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """Integrate per-frame VO forward from the start pose (t0 (3,), q0 (4,)).

    vo holds m relative poses, row r being frame r seen from frame r + 1
    (translation d_r, rotation p_r). Returns t (m + 1, 3) and q (m + 1, 4),
    row 0 being the start: q_{r+1} = q_r * p_r^-1, with the sign that
    product gives, and t_{r+1} = t_r - R(q_{r+1})^-1 d_r.
    """
    # Only the rotations form a sequential chain: itertools.accumulate of
    # quat._hamilton, qmul's formula on one row of Python floats, BLOCK_ROWS
    # rows at a time from the last row written; a block's steps are freed
    # before its rows are stored. Translations subtract the rotated steps in
    # chain order, carried from block to block; a cumsum would re-associate.
    m = len(vo)
    t, q = np.empty((m + 1, 3)), np.empty((m + 1, 4))
    t[0], q[0] = t0, q0
    for lo in range(0, m, BLOCK_ROWS):
        block = slice(lo + 1, min(lo + BLOCK_ROWS, m) + 1)
        q[block] = list(itertools.accumulate(quat.qinv(vo.q[lo:lo + BLOCK_ROWS]).tolist(),
                                             quat._hamilton, initial=q[lo].tolist()))[1:]
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
