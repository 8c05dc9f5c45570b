"""Unit-quaternion algebra and the manifold calculus built on it.

Quaternions are numpy arrays of shape (..., 4), scalar first: q = (u, x, y, z),
Hamilton convention (i*j = k); 3-vectors have shape (..., 3). Every function
takes any number of leading batch axes (broadcast between arguments) and
acts row by row, so one call serves a single pose and a stack of windows
alike. The log/exp maps use the half-angle form

    log q = (v / |v|) * acos(u),      exp w = (cos |w|, (w / |w|) sin |w|)

so exp(w) rotates by an angle of 2*|w| about w. All analytic derivatives
here are plain Jacobians of these expressions and are checked against
central finite differences in the test suite.
"""

from __future__ import annotations

import math

import numpy as np

# Below this norm the closed forms divide by a near-zero value; switch to
# 2-term Taylor expansions.
SMALL_ANGLE = 1e-8

# Tolerated deviation from unit norm before an input is rejected.
UNIT_TOL = 1e-6

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])

# Derivative of the exponential map at w = 0: the scalar part is stationary,
# the vector part is the identity.
EXP_DERIV_AT_ZERO = np.array([
    [0.0, 0.0, 0.0],
    [1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0],
])


def _split(x: np.ndarray) -> tuple[list, tuple]:
    """Components along the last axis, and the leading (batch) shape.

    A single row, whatever its leading shape, yields Python floats, whose
    arithmetic costs a fraction of a numpy scalar's and rounds the same; a
    stack yields one array per component.
    """
    x = np.asarray(x, dtype=float)
    lead = x.shape[:-1]
    if x.ndim == 1:
        return x.tolist(), lead
    if x.size == x.shape[-1]:
        return x.ravel().tolist(), lead
    return [x[..., k] for k in range(x.shape[-1])], lead


def _broadcast(a: tuple, b: tuple) -> tuple:
    return a if a == b else np.broadcast_shapes(a, b)


def _join(parts, lead: tuple, depth: int = 1) -> np.ndarray:
    """Inverse of _split: (nested lists of) components onto the last depth axes."""
    out = np.array(parts)
    if out.ndim > depth:  # one array per component: move the components last
        out = np.ascontiguousarray(out.transpose((*range(depth, out.ndim), *range(depth))))
    return out.reshape(lead + out.shape[out.ndim - depth:]) if lead else out


def _ndim(x) -> int:
    # np.ndim costs a microsecond; numpy scalars carry ndim, Python floats not
    return getattr(x, "ndim", 0)


def _where(cond, a, b):
    """np.where that skips array dispatch for a single scalar condition."""
    if _ndim(cond) == 0:
        return a if cond else b
    return np.where(cond, a, b)


def _norm(v: np.ndarray) -> np.ndarray:
    # Componentwise, so a row gives the same bits alone as inside a stack
    # (np.linalg.norm rounds differently with and without an axis).
    # math.sqrt rounds like np.sqrt and skips array dispatch for one row.
    sq = sum([c * c for c in _split(v)[0]])
    return math.sqrt(sq) if isinstance(sq, float) else np.sqrt(sq)


def check_unit(q: np.ndarray) -> None:
    """Raise ValueError unless every quaternion is unit-norm within UNIT_TOL."""
    n = _norm(q)
    ok = abs(n - 1.0) <= UNIT_TOL  # False for NaN as well
    if not (ok.all() if _ndim(ok) else ok):
        worst = np.ravel(n)[np.argmin(np.ravel(ok))]
        raise ValueError(f"quaternion norm {worst!r} deviates from 1 by more than {UNIT_TOL}")


def canonicalize(q: np.ndarray) -> np.ndarray:
    """Flip sign so the scalar part is >= 0; q and -q are the same rotation.

    When the scalar part is exactly zero the tie is broken on the first
    nonzero vector component, so canonicalize(q) == canonicalize(-q) always.
    """
    q = np.asarray(q, dtype=float)
    (u, x, y, z), _ = _split(q)
    if isinstance(u, float):  # one row: `or` picks the first nonzero component
        return -q if (u or x or y or z) < 0.0 else q.copy()
    first = np.where(u != 0.0, u, np.where(x != 0.0, x, np.where(y != 0.0, y, z)))
    return np.where(first[..., None] < 0.0, -q, q)


def qlog(q: np.ndarray) -> np.ndarray:
    """Logarithm of a unit quaternion as a 3-vector (half-angle times axis).

    The input is canonicalized to u >= 0 first, so the result norm is at
    most pi/2.
    """
    q = np.asarray(q, dtype=float)
    check_unit(q)
    q = canonicalize(q)
    u, v = _split(q)[0][0], q[..., 1:]
    vn = _norm(v)
    small = vn < SMALL_ANGLE
    # acos(u)/|v| = 1 + |v|^2/6 + O(|v|^4) for u = sqrt(1 - |v|^2); u >= 0 here
    scale = _where(small, 1.0 + vn * vn / 6.0,
                   np.arccos(_where(u < 1.0, u, 1.0)) / _where(small, 1.0, vn))
    parts, lead = _split(v)
    return _join([c * scale for c in parts], lead)


def qexp(w: np.ndarray) -> np.ndarray:
    """Exponential map: 3-vector to unit quaternion (inverse of qlog)."""
    w = np.asarray(w, dtype=float)
    n = _norm(w)
    small = n < SMALL_ANGLE
    n2 = n * n
    # cos n = 1 - n^2/2, sin(n)/n = 1 - n^2/6 to second order
    u = _where(small, 1.0 - n2 / 2.0, np.cos(n))
    sinc = _where(small, 1.0 - n2 / 6.0, np.sin(n) / _where(small, 1.0, n))
    parts, lead = _split(w)
    return _join([u, *(c * sinc for c in parts)], lead)


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b."""
    (au, ax, ay, az), lead_a = _split(a)
    (bu, bx, by, bz), lead_b = _split(b)
    return _join([
        au * bu - ax * bx - ay * by - az * bz,
        au * bx + bu * ax + ay * bz - az * by,
        au * by + bu * ay + az * bx - ax * bz,
        au * bz + bu * az + ax * by - ay * bx,
    ], _broadcast(lead_a, lead_b))


def qinv(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion: the conjugate (u, -v)."""
    out = np.array(q, dtype=float)
    out[..., 1:] = -out[..., 1:]
    return out


def qrotate(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rotate 3-vector t by q: the vector part of q * (0, t) * q^-1."""
    (u, x, y, z), lead_q = _split(q)
    (t0, t1, t2), lead_t = _split(t)
    # t + 2 v x (v x t + u t), algebraically equal to the conjugation
    a0 = y * t2 - z * t1 + u * t0
    a1 = z * t0 - x * t2 + u * t1
    a2 = x * t1 - y * t0 + u * t2
    return _join([
        t0 + 2.0 * (y * a2 - z * a1),
        t1 + 2.0 * (z * a0 - x * a2),
        t2 + 2.0 * (x * a1 - y * a0),
    ], _broadcast(lead_q, lead_t))


def to_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix R with R @ t == qrotate(q, t)."""
    (u, x, y, z), lead = _split(q)
    return _join([
        [1 - 2 * (y * y + z * z), 2 * (x * y - u * z), 2 * (x * z + u * y)],
        [2 * (x * y + u * z), 1 - 2 * (x * x + z * z), 2 * (y * z - u * x)],
        [2 * (x * z - u * y), 2 * (y * z + u * x), 1 - 2 * (x * x + y * y)],
    ], lead, depth=2)


def dqmul_left(a: np.ndarray) -> np.ndarray:
    """4x4 matrix L(a) with a * b == L(a) @ b, i.e. d(a*b)/db."""
    (u, x, y, z), lead = _split(a)
    return _join([
        [u, -x, -y, -z],
        [x, u, -z, y],
        [y, z, u, -x],
        [z, -y, x, u],
    ], lead, depth=2)


def dqmul_right(b: np.ndarray) -> np.ndarray:
    """4x4 matrix R(b) with a * b == R(b) @ a, i.e. d(a*b)/da."""
    (u, x, y, z), lead = _split(b)
    return _join([
        [u, -x, -y, -z],
        [x, u, z, -y],
        [y, -z, u, x],
        [z, y, -x, u],
    ], lead, depth=2)


def drotate_dt(q: np.ndarray) -> np.ndarray:
    """d(qrotate(q, t))/dt: the rotation matrix of q."""
    return to_matrix(q)


def drotate_dq(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """d(qrotate(q, t))/dq as a 3x4 matrix over the raw components of q.

    Differentiates the conjugation q * (0, t) * conj(q), which for free
    components (u, v) is (u^2 - v.v) t + 2 (v.t) v + 2u v x t: the columns
    are 2(u t + v x t) and 2((v.t) I + v t^T - t v^T - u [t]x).
    """
    (u, x, y, z), lead_q = _split(q)
    (t0, t1, t2), lead_t = _split(t)
    vt = x * t0 + y * t1 + z * t2
    return _join([
        [2 * (u * t0 + y * t2 - z * t1), 2 * vt, 2 * (x * t1 - t0 * y + u * t2),
         2 * (x * t2 - t0 * z - u * t1)],
        [2 * (u * t1 + z * t0 - x * t2), 2 * (y * t0 - t1 * x - u * t2), 2 * vt,
         2 * (y * t2 - t1 * z + u * t0)],
        [2 * (u * t2 + x * t1 - y * t0), 2 * (z * t0 - t2 * x + u * t1),
         2 * (z * t1 - t2 * y - u * t0), 2 * vt],
    ], _broadcast(lead_q, lead_t), depth=2)


def exp_map_derivative_at_zero() -> np.ndarray:
    """The constant 4x3 derivative of qexp at w = 0."""
    return EXP_DERIV_AT_ZERO.copy()
