"""Trajectory error metrics and the text report format.

Translation error is the Euclidean distance per frame; rotation error is
the quaternion angle in degrees. Reports carry medians, means, per-frame
errors (n, 2) and the translation-error CDF (n, 2) as float arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat
from .pose import Trajectory, rotation_error_deg


@dataclass
class ErrorReport:
    """Summary errors and two float arrays of per-frame and CDF rows."""

    median_t: float
    median_r: float
    mean_t: float
    mean_r: float
    per_frame: np.ndarray  # (n, 2): translation error in m, rotation error in deg
    cdf: np.ndarray  # (n, 2): sorted translation error in m, fraction of frames


def _median(a: np.ndarray) -> float:
    """np.median of a non-empty 1-d array, bit for bit: the middle value, or
    the mean of the middle two. np.median imports numpy.ma on first use."""
    half = len(a) // 2
    if len(a) % 2:
        return float(np.partition(a, half)[half])
    low, high = np.partition(a, (half - 1, half))[half - 1:half + 1]
    return float((low + high) / 2)


def compare(est: Trajectory, gt: Trajectory) -> ErrorReport:
    """Per-frame errors between two trajectories on identical timestamps.

    The CDF has one row per frame: each sorted translation error, and the
    fraction of frames up to and including that row.
    """
    if len(est) != len(gt):
        raise ValueError(f"length mismatch: {len(est)} vs {len(gt)}")
    if not np.array_equal(est.timestamps, gt.timestamps):
        raise ValueError("timestamps do not match")
    if not len(gt):
        raise ValueError("no frames to compare")
    t_err = quat.row_norm(est.t - gt.t)
    r_err = rotation_error_deg(est.q, gt.q)
    n = len(t_err)
    return ErrorReport(
        median_t=_median(t_err),
        median_r=_median(r_err),
        mean_t=float(np.mean(t_err)),
        mean_r=float(np.mean(r_err)),
        per_frame=np.column_stack((t_err, r_err)),
        cdf=np.column_stack((np.sort(t_err), np.arange(1, n + 1) / n)),
    )


def render_report(report: ErrorReport) -> str:
    """Key-value text document; see README for the schema."""
    n, m = len(report.per_frame), len(report.cdf)
    frames = np.column_stack((np.arange(n), report.per_frame))
    return (
        "# trajectory error report\n"
        f"median_t_m {report.median_t:.17g}\n"
        f"median_r_deg {report.median_r:.17g}\n"
        f"mean_t_m {report.mean_t:.17g}\n"
        f"mean_r_deg {report.mean_r:.17g}\n"
        f"frames {n}\n"
        + ("frame %d %.17g %.17g\n" * n) % tuple(frames.ravel().tolist())
        + ("cdf_t %.17g %.17g\n" * m) % tuple(np.ravel(report.cdf).tolist()))


def parse_report(text: str) -> ErrorReport:
    """Inverse of render_report; KeyError, IndexError or ValueError if malformed,
    ValueError too if the frame or cdf_t lines are not as many as frames says."""
    scalars: dict[str, float] = {}
    fields = {"frame": 4, "cdf_t": 3}
    rows: dict[str, list[list[str]]] = {key: [] for key in fields}
    for line in text.splitlines():
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] in rows:
            if len(parts) != fields[parts[0]]:
                raise ValueError(f"{parts[0]} line needs {fields[parts[0]]} fields: {line!r}")
            rows[parts[0]].append(parts[-2:])
        else:
            scalars[parts[0]] = float(parts[1])
    for key in fields:
        if len(rows[key]) != scalars["frames"]:
            raise ValueError(f"{len(rows[key])} {key} lines, but frames is {scalars['frames']:g}")
    per_frame, cdf = (np.array(rows[key], dtype=float).reshape(-1, 2) for key in fields)
    return ErrorReport(
        median_t=scalars["median_t_m"], median_r=scalars["median_r_deg"],
        mean_t=scalars["mean_t_m"], mean_r=scalars["mean_r_deg"],
        per_frame=per_frame, cdf=cdf,
    )
