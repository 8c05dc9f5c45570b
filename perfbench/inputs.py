"""Benchmark input generator: a noisy planar loop in posefusion's text formats.

Uses numpy only, so a refactor of ``posefusion.sim`` that reorders its
random draws cannot change the benchmark's inputs. The noise model is the
README's: per-frame absolute noise (translation sigma in meters, rotation
angle sigma in degrees about a uniform axis) and per-step VO noise plus a
constant observer-frame x bias. Quaternions are scalar first, Hamilton
convention; VO rotations are half-angle log quaternions.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass

import numpy as np

STEP_M = 0.1
ABS_T_SIGMA = 0.5
ABS_R_SIGMA_DEG = 5.0
VO_T_SIGMA = 0.01
VO_R_SIGMA_DEG = 0.1
VO_T_BIAS = 0.01

GT_FILE = "gt.txt"
ABS_FILE = "abs.txt"
VO_FILE = "vo.txt"


@dataclass
class Inputs:
    """Ground truth, absolute measurements and per-step VO as arrays."""

    timestamps: np.ndarray  # (n,)
    gt_t: np.ndarray        # (n, 3)
    gt_q: np.ndarray        # (n, 4)
    abs_t: np.ndarray       # (n, 3)
    abs_q: np.ndarray       # (n, 4)
    vo_t: np.ndarray        # (n-1, 3), frame m seen from frame m+1
    vo_w: np.ndarray        # (n-1, 3)


def qmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    au, ax, ay, az = np.moveaxis(a, -1, 0)
    bu, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        au * bu - ax * bx - ay * by - az * bz,
        au * bx + bu * ax + ay * bz - az * by,
        au * by + bu * ay + az * bx - ax * bz,
        au * bz + bu * az + ax * by - ay * bx,
    ], axis=-1)


def qconj(q: np.ndarray) -> np.ndarray:
    return q * np.array([1.0, -1.0, -1.0, -1.0])


def qrotate(q: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Vector part of q * (0, t) * conj(q)."""
    t4 = np.concatenate([np.zeros(t.shape[:-1] + (1,)), t], axis=-1)
    return qmul(qmul(q, t4), qconj(q))[..., 1:]


def canonical(q: np.ndarray) -> np.ndarray:
    return np.where(q[..., :1] < 0.0, -q, q)


def qlog(q: np.ndarray) -> np.ndarray:
    q = canonical(q)
    v = q[..., 1:]
    vn = np.linalg.norm(v, axis=-1, keepdims=True)
    safe = np.where(vn < 1e-8, 1.0, vn)
    scale = np.where(vn < 1e-8, 1.0 + vn * vn / 6.0,
                     np.arccos(np.clip(q[..., :1], -1.0, 1.0)) / safe)
    return v * scale


def random_rotations(rng: np.random.Generator, count: int, sigma_deg: float) -> np.ndarray:
    """Uniform axis, Gaussian angle (degrees): rotation by that angle."""
    axis = rng.normal(size=(count, 3))
    axis /= np.linalg.norm(axis, axis=1, keepdims=True)
    half = np.radians(rng.normal(0.0, sigma_deg, size=(count, 1))) / 2.0
    return np.concatenate([np.cos(half), axis * np.sin(half)], axis=1)


def make_inputs(frames: int, seed: int, dataset: int = 0) -> Inputs:
    """Closed circular loop of `frames` poses, heading along the path.

    (seed, dataset) selects the noise draws; the ground truth depends on
    `frames` only.
    """
    if frames < 3:
        raise ValueError("need at least 3 frames")
    m = frames - 1
    radius = STEP_M / (2.0 * np.sin(np.pi / m))
    theta = 2.0 * np.pi * np.arange(frames) / m
    gt_t = np.column_stack([radius * np.cos(theta), radius * np.sin(theta), np.zeros(frames)])
    d = np.diff(gt_t[:, :2], axis=0)
    yaw = np.append(np.arctan2(d[:, 1], d[:, 0]), np.arctan2(d[-1, 1], d[-1, 0]))
    gt_q = np.column_stack([np.cos(yaw / 2), np.zeros(frames), np.zeros(frames), np.sin(yaw / 2)])

    rng = np.random.default_rng([seed, dataset])
    abs_t = gt_t + rng.normal(0.0, ABS_T_SIGMA, size=(frames, 3))
    abs_q = canonical(qmul(gt_q, random_rotations(rng, frames, ABS_R_SIGMA_DEG)))

    q_i, q_j = gt_q[:-1], gt_q[1:]
    vo_t = (qrotate(q_j, gt_t[:-1] - gt_t[1:]) + np.array([VO_T_BIAS, 0.0, 0.0])
            + rng.normal(0.0, VO_T_SIGMA, size=(m, 3)))
    vo_q = qmul(qmul(qconj(q_j), q_i), random_rotations(rng, m, VO_R_SIGMA_DEG))
    return Inputs(np.arange(frames, dtype=float), gt_t, gt_q, abs_t, abs_q, vo_t, qlog(vo_q))


def _write(path: str, header: str, columns: list[np.ndarray]) -> None:
    np.savetxt(path, np.column_stack(columns), fmt="%.17g", header=header,
               comments="# ", encoding="utf-8")


def write_inputs(inp: Inputs, out_dir: str) -> str:
    """Write gt/abs/vo files into out_dir; return the sha256 of all three."""
    ts = inp.timestamps
    _write(os.path.join(out_dir, GT_FILE), "timestamp tx ty tz qu qv1 qv2 qv3",
           [ts, inp.gt_t, inp.gt_q])
    _write(os.path.join(out_dir, ABS_FILE), "timestamp tx ty tz qu qv1 qv2 qv3",
           [ts, inp.abs_t, inp.abs_q])
    _write(os.path.join(out_dir, VO_FILE), "timestamp tx ty tz w1 w2 w3",
           [ts[1:], inp.vo_t, inp.vo_w])
    digest = hashlib.sha256()
    for name in (GT_FILE, ABS_FILE, VO_FILE):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def rotation_error_deg(q_a: np.ndarray, q_b: np.ndarray) -> np.ndarray:
    """Per-row rotation angle between two quaternion arrays, sign-insensitive."""
    r = qmul(qconj(q_a), q_b)
    return np.degrees(2.0 * np.arctan2(np.linalg.norm(r[:, 1:], axis=1), np.abs(r[:, 0])))

