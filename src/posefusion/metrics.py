"""Trajectory error metrics and the text report format.

Translation error is the Euclidean distance per frame; rotation error is
the quaternion angle in degrees. Reports carry medians, means, per-frame
errors and the cumulative distribution of translation errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quat
from .pose import Trajectory, rotation_error_deg


@dataclass
class ErrorReport:
    median_t: float
    median_r: float
    mean_t: float
    mean_r: float
    per_frame: list[tuple[float, float]]
    cdf: list[tuple[float, float]]


def compare(est: Trajectory, gt: Trajectory, cdf_points: int | None = None) -> ErrorReport:
    """Per-frame errors between two trajectories on identical timestamps."""
    if len(est) != len(gt):
        raise ValueError(f"length mismatch: {len(est)} vs {len(gt)}")
    if not np.array_equal(est.timestamps, gt.timestamps):
        raise ValueError("timestamps do not match")
    if not len(gt):
        raise ValueError("no frames to compare")
    t_err = quat.row_norm(est.t - gt.t)
    r_err = rotation_error_deg(est.q, gt.q)
    n = len(t_err)
    srt = np.sort(t_err)
    if cdf_points is None:
        cdf = [(float(srt[i]), (i + 1) / n) for i in range(n)]
    else:
        thresholds = np.linspace(0.0, float(srt[-1]), cdf_points)
        cdf = [(float(thr), float(np.searchsorted(srt, thr, side="right")) / n)
               for thr in thresholds]
    return ErrorReport(
        median_t=float(np.median(t_err)),
        median_r=float(np.median(r_err)),
        mean_t=float(np.mean(t_err)),
        mean_r=float(np.mean(r_err)),
        per_frame=list(zip(t_err.tolist(), r_err.tolist())),
        cdf=cdf,
    )


def render_report(report: ErrorReport) -> str:
    """Key-value text document; see README for the schema."""
    lines = [
        "# trajectory error report",
        f"median_t_m {report.median_t:.17g}",
        f"median_r_deg {report.median_r:.17g}",
        f"mean_t_m {report.mean_t:.17g}",
        f"mean_r_deg {report.mean_r:.17g}",
        f"frames {len(report.per_frame)}",
    ]
    for idx, (te, re_) in enumerate(report.per_frame):
        lines.append(f"frame {idx} {te:.17g} {re_:.17g}")
    for thr, frac in report.cdf:
        lines.append(f"cdf_t {thr:.17g} {frac:.17g}")
    return "\n".join(lines) + "\n"


def parse_report(text: str) -> ErrorReport:
    """Inverse of render_report."""
    scalars: dict[str, float] = {}
    per_frame: list[tuple[float, float]] = []
    cdf: list[tuple[float, float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "frame":
            per_frame.append((float(parts[2]), float(parts[3])))
        elif parts[0] == "cdf_t":
            cdf.append((float(parts[1]), float(parts[2])))
        else:
            scalars[parts[0]] = float(parts[1])
    return ErrorReport(
        median_t=scalars["median_t_m"], median_r=scalars["median_r_deg"],
        mean_t=scalars["mean_t_m"], mean_r=scalars["mean_r_deg"],
        per_frame=per_frame, cdf=cdf,
    )
