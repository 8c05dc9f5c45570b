"""Plain-text file formats for trajectories, VO chains and GPS tracks.

All three are whitespace-separated UTF-8 with LF line endings and `#`
comment lines:

* trajectory: ``timestamp tx ty tz qu qv1 qv2 qv3`` (scalar-first quaternion)
* VO:         ``timestamp tx ty tz w1 w2 w3`` (log-quaternion rotation)
* GPS:        ``timestamp x y``

Values are written with 17 significant digits so a write/read round trip
reproduces the numbers exactly. Readers reject NaN and inf.
"""

from __future__ import annotations

import math

import numpy as np

from .pose import Pose, RelativePose, Trajectory
from .sim import GpsTrack

QUAT_NORM_TOL = 1e-3


class TrajectoryFormatError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, lineno: int, message: str):
        self.path = str(path)
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}")


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            yield lineno, line


def _parse_floats(path, lineno: int, line: str, count: int) -> list[float]:
    parts = line.split()
    if len(parts) != count:
        raise TrajectoryFormatError(path, lineno, f"expected {count} fields, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise TrajectoryFormatError(path, lineno, f"non-numeric field: {exc}") from None
    if not all(map(math.isfinite, vals)):
        raise TrajectoryFormatError(path, lineno, "non-finite field (NaN or inf)")
    return vals


def read_trajectory(path) -> Trajectory:
    timestamps = []
    poses = []
    for lineno, line in _data_lines(path):
        vals = _parse_floats(path, lineno, line, 8)
        q = np.array(vals[4:8])
        if abs(np.linalg.norm(q) - 1.0) > QUAT_NORM_TOL:
            raise TrajectoryFormatError(path, lineno, "quaternion is not unit-norm")
        timestamps.append(vals[0])
        poses.append(Pose(np.array(vals[1:4]), q / np.linalg.norm(q)))
    try:
        return Trajectory(np.array(timestamps), tuple(poses))
    except ValueError as exc:
        raise TrajectoryFormatError(path, 0, str(exc)) from None


def write_trajectory(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# timestamp tx ty tz qu qv1 qv2 qv3\n")
        for ts, p in zip(traj.timestamps, traj.poses):
            fields = [ts, *p.t, *p.q]
            fh.write(" ".join(f"{v:.17g}" for v in fields) + "\n")


def read_vo(path) -> list[RelativePose]:
    rels = []
    last_ts = None
    for lineno, line in _data_lines(path):
        vals = _parse_floats(path, lineno, line, 7)
        if last_ts is not None and vals[0] <= last_ts:
            raise TrajectoryFormatError(path, lineno, "timestamps must be strictly increasing")
        last_ts = vals[0]
        try:
            rels.append(RelativePose(np.array(vals[1:4]), np.array(vals[4:7])))
        except ValueError as exc:
            raise TrajectoryFormatError(path, lineno, str(exc)) from None
    return rels


def write_vo(rels: list[RelativePose], timestamps, path) -> None:
    timestamps = np.asarray(timestamps, dtype=float)
    if len(timestamps) != len(rels):
        raise ValueError("one timestamp per relative pose required")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# timestamp tx ty tz w1 w2 w3\n")
        for ts, rel in zip(timestamps, rels):
            fields = [ts, *rel.t, *rel.w]
            fh.write(" ".join(f"{v:.17g}" for v in fields) + "\n")


def read_gps(path) -> GpsTrack:
    timestamps = []
    positions = []
    for lineno, line in _data_lines(path):
        vals = _parse_floats(path, lineno, line, 3)
        timestamps.append(vals[0])
        positions.append(vals[1:3])
    try:
        return GpsTrack(np.array(timestamps), np.array(positions).reshape(-1, 2))
    except ValueError as exc:
        raise TrajectoryFormatError(path, 0, str(exc)) from None


def write_gps(track: GpsTrack, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# timestamp x y\n")
        for ts, xy in zip(track.timestamps, track.positions):
            fh.write(f"{ts:.17g} {xy[0]:.17g} {xy[1]:.17g}\n")
