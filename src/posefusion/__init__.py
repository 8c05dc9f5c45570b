"""Pose-trajectory fusion toolkit.

Refines noisy drift-free absolute poses with smooth-but-drifty relative
measurements via moving-window on-manifold pose-graph optimization.
"""

from .pose import Trajectory
from .pgo import ConstraintKind, PgoConfig, fuse_trajectory
from .sim import NoiseModel

__all__ = [
    "ConstraintKind",
    "NoiseModel",
    "PgoConfig",
    "Trajectory",
    "fuse_trajectory",
]
