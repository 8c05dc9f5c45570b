"""Synthetic trajectories and the two sensor-corruption regimes.

Absolute measurements get per-frame independent noise (noisy but
drift-free); relative measurements get per-step noise plus a constant
translation bias, so integrating them drifts. Both come out as a Trajectory
with quaternion rotations; only the VO file format (trajio) stores logs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat
from .pose import Trajectory, relative_pose


@dataclass(frozen=True)
class NoiseModel:
    """Noise magnitudes for the two sensor regimes; deterministic per seed,
    and fixed once validated."""

    abs_t_sigma: float = 0.0   # meters, i.i.d. per axis
    abs_r_sigma: float = 0.0   # degrees, axis-angle
    vo_t_sigma: float = 0.0    # meters per step
    vo_r_sigma: float = 0.0    # degrees per step
    vo_t_bias: float = 0.0     # meters per step, constant drift
    seed: int = 0

    def __post_init__(self):
        for name in ("abs_t_sigma", "abs_r_sigma", "vo_t_sigma", "vo_r_sigma"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0")
            # Wider noise is already uniform; quat.row_norm overflows from ~1e155 deg.
            if name.endswith("r_sigma") and value > 1e6:
                raise ValueError(f"{name} must be <= 1e6 degrees")
        if not np.isfinite(self.vo_t_bias):
            raise ValueError("vo_t_bias must be finite")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


SHAPES = ("loop", "random-walk")


def _headings_from_positions(positions: np.ndarray) -> np.ndarray:
    diffs = np.diff(positions[:, :2], axis=0)
    yaws = np.arctan2(diffs[:, 1], diffs[:, 0])
    return np.append(yaws, yaws[-1])


# a step near the float maximum overflows the positions to inf and NaN, which
# Trajectory rejects; numpy's RuntimeWarning would only repeat that on stderr
@np.errstate(over="ignore", invalid="ignore")
def generate_trajectory(shape: str, n: int, step: float, seed: int = 0) -> Trajectory:
    """Planar trajectory with heading along the path; steps all equal `step`.

    Shapes (SHAPES): "loop" (closed circle, last sample returns to the
    first; n >= 3, since one chord closes on no circle) and "random-walk"
    (seeded random heading drift).
    """
    if n < 2:
        raise ValueError("need n >= 2 frames")
    if not (np.isfinite(step) and step > 0):
        raise ValueError("step must be finite and > 0")

    if shape == "loop":
        if n < 3:
            raise ValueError("loop needs n >= 3")
        m = n - 1  # chords around the circle; pose n-1 closes onto pose 0
        radius = step / (2.0 * np.sin(np.pi / m))
        theta = 2.0 * np.pi * np.arange(n) / m
        positions = np.column_stack([radius * np.cos(theta),
                                     radius * np.sin(theta),
                                     np.zeros(n)])
    elif shape == "random-walk":
        rng = np.random.default_rng(seed)
        turns = rng.normal(0.0, 0.15, size=n - 1)
        yaw = np.concatenate([[0.0], np.cumsum(turns)])
        steps = step * np.column_stack([np.cos(yaw[:-1]), np.sin(yaw[:-1]), np.zeros(n - 1)])
        positions = np.concatenate([np.zeros((1, 3)), np.cumsum(steps, axis=0)])
    else:
        raise ValueError(f"unknown shape {shape!r}")

    half_yaw = _headings_from_positions(positions) / 2
    zeros = np.zeros(n)
    q = np.column_stack([np.cos(half_yaw), zeros, zeros, np.sin(half_yaw)])
    return Trajectory(np.arange(n, dtype=float), positions, q)


def _draws(rng: np.random.Generator, steps: int, t_sigma: float, r_sigma: float):
    """Per-step translation noise (steps, 3) and noise rotations (steps, 4).

    Each step draws, in this order, 3 standard normals for the translation
    if t_sigma > 0, then 3 for a uniform rotation axis and 1 for a Gaussian
    rotation angle in degrees if r_sigma > 0; one bulk draw gives the same
    stream as drawing step by step. A zero sigma draws nothing: the
    translation noise is None, the rotations are identities.
    """
    z = rng.standard_normal((steps, 3 * (t_sigma > 0) + 4 * (r_sigma > 0)))
    dt = t_sigma * z[:, :3] if t_sigma > 0 else None
    if not r_sigma > 0:
        return dt, np.tile(quat.IDENTITY, (steps, 1))
    axis = z[:, -4:-1] / quat.row_norm(z[:, -4:-1])[:, None]
    angle = np.radians(r_sigma * z[:, -1:])
    return dt, quat.qexp(axis * angle / 2.0)


def corrupt_absolute(traj: Trajectory, nm: NoiseModel) -> Trajectory:
    """Per-pose independent noise: noisy but drift-free by construction."""
    rng = np.random.default_rng(nm.seed)
    with np.errstate(over="ignore"):  # a translation that overflows is inf; Trajectory rejects it
        dt, rot = _draws(rng, len(traj), nm.abs_t_sigma, nm.abs_r_sigma)
        t = traj.t if dt is None else traj.t + dt
    return Trajectory(traj.timestamps, t, quat.qmul(traj.q, rot))


def corrupt_vo(traj: Trajectory, nm: NoiseModel) -> Trajectory:
    """Per-step relative poses with noise and a constant translation bias.

    Row r is frame r seen from frame r + 1 (see relative_pose), its rotation
    a quaternion, stamped with frame r + 1's timestamp. The bias is added to
    the x component of each relative translation R(q_{r+1})(t_r - t_{r+1}),
    so integrating the output drifts when vo_t_bias > 0. Its noise comes
    from a stream of its own, so it is independent of corrupt_absolute's
    with the same seed.
    """
    rng = np.random.default_rng([nm.seed, 1])
    rel_t, rel_q = relative_pose(traj.t[:-1], traj.q[:-1], traj.t[1:], traj.q[1:])
    # a translation that overflows is inf; Trajectory rejects it
    with np.errstate(over="ignore"):
        dt, rot = _draws(rng, len(rel_t), nm.vo_t_sigma, nm.vo_r_sigma)
        t = rel_t + np.array([nm.vo_t_bias, 0.0, 0.0])
        if dt is not None:
            t = t + dt
    return Trajectory(traj.timestamps[1:], t, quat.qmul(rel_q, rot))

