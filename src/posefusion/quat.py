"""Unit-quaternion algebra and the manifold calculus built on it.

Quaternions are numpy arrays of shape (..., 4), scalar first: q = (u, x, y, z),
Hamilton convention (i*j = k); 3-vectors have shape (..., 3). Every function
takes any number of leading batch axes (broadcast between arguments) and
is plain numpy arithmetic over the components x[..., k], so a single pose
of shape (4,) and a stack of windows (W, T, 4) run the same code. The
log/exp maps use the half-angle form

    log q = (v / |v|) atan2(|v|, u),      exp w = (cos |w|, (w / |w|) sin |w|)

so exp(w) rotates by an angle of 2*|w| about w. Each job has one helper:
row_norm is the Euclidean norm, canonicalize the sign convention of stored
rows (scalar part >= 0) and qrotate the rotation of vectors, also of the
basis vectors that give the pose-graph solver its rotation matrices; its
rotation Jacobians are built from dqmul_left and dqmul_right. The Hamilton
product is written out once, in _hamilton; qmul, pose.integrate and the
constant coefficients of the linear maps dqmul_left and dqmul_right use it.
"""

from __future__ import annotations

import numpy as np

# Tolerated deviation from unit norm before an input is rejected.
UNIT_TOL = 1e-6

IDENTITY = np.array([1.0, 0.0, 0.0, 0.0])


def _split(x: np.ndarray) -> list[np.ndarray]:
    """The components of x along its last axis, one array each."""
    x = np.asarray(x, dtype=float)
    return [x[..., k] for k in range(x.shape[-1])]


def _join(parts) -> np.ndarray:
    """Inverse of _split: a list of components onto the last axis."""
    return np.ascontiguousarray(np.moveaxis(np.array(parts), 0, -1))


def row_norm(x: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis.

    Componentwise, so a row gives the same bits alone as inside a stack
    (np.linalg.norm rounds differently with and without an axis).
    """
    return np.sqrt(sum([c * c for c in _split(x)]))


def check_unit(q: np.ndarray) -> None:
    """Raise ValueError unless every quaternion is unit-norm within UNIT_TOL."""
    n = row_norm(q)
    ok = np.abs(n - 1.0) <= UNIT_TOL  # False for NaN as well
    if not ok.all():
        worst = float(np.ravel(n)[np.argmin(np.ravel(ok))])
        raise ValueError(f"quaternion norm {worst!r} deviates from 1 by more than {UNIT_TOL}")


def canonicalize(q: np.ndarray) -> np.ndarray:
    """Flip sign so the scalar part is >= 0; q and -q are the same rotation.

    When the scalar part is exactly zero the tie is broken on the first
    nonzero vector component, so canonicalize(q) == canonicalize(-q) always.
    """
    q = np.asarray(q, dtype=float)
    u, x, y, z = _split(q)
    first = np.where(u != 0.0, u, np.where(x != 0.0, x, np.where(y != 0.0, y, z)))
    # a sign column spares a (..., 4) -q; x * -1.0 is -x bit for bit
    return q * np.where(first[..., None] < 0.0, -1.0, 1.0)


def qlog(q: np.ndarray) -> np.ndarray:
    """Logarithm of a unit quaternion as a 3-vector (half-angle times axis).

    The input is canonicalized to u >= 0 first, so the result norm is at
    most pi/2.
    """
    check_unit(q)
    q = canonicalize(q)
    u, v = q[..., 0], q[..., 1:]
    vn = row_norm(v)
    # the limit 1 where |v| is 0 or its norm underflows (below about 1e-154)
    scale = np.divide(np.arctan2(vn, u), vn, out=np.ones_like(vn), where=vn > 0.0)
    return v * scale[..., None]


def qexp(w: np.ndarray) -> np.ndarray:
    """Exponential map: 3-vector to unit quaternion (inverse of qlog)."""
    n = row_norm(w)
    sinc = np.divide(np.sin(n), n, out=np.ones_like(n), where=n > 0.0)
    return _join([np.cos(n), *(c * sinc for c in _split(w))])


def _hamilton(a, b) -> tuple:
    """Components (u, x, y, z) of the Hamilton product a * b, from the
    components of a and b: arrays from _split, or one row of Python floats."""
    au, ax, ay, az = a
    bu, bx, by, bz = b
    return (au * bu - ax * bx - ay * by - az * bz,
            au * bx + bu * ax + ay * bz - az * by,
            au * by + bu * ay + az * bx - ax * bz,
            au * bz + bu * az + ax * by - ay * bx)


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b."""
    return _join(_hamilton(_split(a), _split(b)))


def qinv(q: np.ndarray) -> np.ndarray:
    """Inverse of a unit quaternion: the conjugate (u, -v)."""
    out = np.array(q, dtype=float)
    out[..., 1:] = -out[..., 1:]
    return out


def qrotate(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Rotate 3-vector t by q: the vector part of q * (0, t) * q^-1."""
    u, x, y, z = _split(q)
    t0, t1, t2 = _split(t)
    # t + 2 v x (v x t + u t), algebraically equal to the conjugation
    a0 = y * t2 - z * t1 + u * t0
    a1 = z * t0 - x * t2 + u * t1
    a2 = x * t1 - y * t0 + u * t2
    return _join([
        t0 + 2.0 * (y * a2 - z * a1),
        t1 + 2.0 * (z * a0 - x * a2),
        t2 + 2.0 * (x * a1 - y * a0),
    ])


# a * b is linear in each factor: a * (0, e_k) = sum_i a_i (e_i * (0, e_k)).
# The coefficients, indexed (i, component, k), are _hamilton on the unit
# quaternions e_i (axis 0) and the pure basis (0, e_k) (axis 1).
_UNIT, _PURE = _split(np.eye(4)[:, None]), _split(np.eye(4)[None, 1:])
_DQMUL_LEFT = np.moveaxis(_join(_hamilton(_UNIT, _PURE)), -1, 1)
_DQMUL_RIGHT = np.moveaxis(_join(_hamilton(_PURE, _UNIT)), -1, 1)


def dqmul_left(a: np.ndarray) -> np.ndarray:
    """4x3 matrix with a * (0, v) == dqmul_left(a) @ v: d(a*b)/db along the
    vector part of b. Column k is qmul(a, (0, e_k))."""
    return np.tensordot(a, _DQMUL_LEFT, axes=1)


def dqmul_right(b: np.ndarray) -> np.ndarray:
    """4x3 matrix with (0, v) * b == dqmul_right(b) @ v: d(a*b)/da along the
    vector part of a. Column k is qmul((0, e_k), b)."""
    return np.tensordot(b, _DQMUL_RIGHT, axes=1)
