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
rows (scalar part >= 0), and to_matrix, dqmul_left and dqmul_right are what
the pose-graph solver builds its rotation Jacobians from. The derivatives
are plain Jacobians of these expressions and are checked against central
finite differences in the test suite.
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


def _join(parts, depth: int = 1) -> np.ndarray:
    """Inverse of _split: (nested lists of) components onto the last depth axes."""
    out = np.array(parts)
    return np.ascontiguousarray(out.transpose((*range(depth, out.ndim), *range(depth))))


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


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b."""
    au, ax, ay, az = _split(a)
    bu, bx, by, bz = _split(b)
    return _join([
        au * bu - ax * bx - ay * by - az * bz,
        au * bx + bu * ax + ay * bz - az * by,
        au * by + bu * ay + az * bx - ax * bz,
        au * bz + bu * az + ax * by - ay * bx,
    ])


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


def to_matrix(q: np.ndarray) -> np.ndarray:
    """3x3 rotation matrix R with R @ t == qrotate(q, t)."""
    u, x, y, z = _split(q)
    return _join([
        [1 - 2 * (y * y + z * z), 2 * (x * y - u * z), 2 * (x * z + u * y)],
        [2 * (x * y + u * z), 1 - 2 * (x * x + z * z), 2 * (y * z - u * x)],
        [2 * (x * z - u * y), 2 * (y * z + u * x), 1 - 2 * (x * x + y * y)],
    ], depth=2)


def dqmul_left(a: np.ndarray) -> np.ndarray:
    """4x4 matrix L(a) with a * b == L(a) @ b, i.e. d(a*b)/db."""
    u, x, y, z = _split(a)
    return _join([
        [u, -x, -y, -z],
        [x, u, -z, y],
        [y, z, u, -x],
        [z, -y, x, u],
    ], depth=2)


def dqmul_right(b: np.ndarray) -> np.ndarray:
    """4x4 matrix R(b) with a * b == R(b) @ a, i.e. d(a*b)/da."""
    u, x, y, z = _split(b)
    return _join([
        [u, -x, -y, -z],
        [x, u, z, -y],
        [y, -z, u, x],
        [z, y, -x, u],
    ], depth=2)
