"""Checks on the files the posefusion CLI writes.

Each check returns a list of problems; an empty list means the output is
valid. The parsing here is the benchmark's own, so a defect in the
program's reader cannot hide the same defect in its writer.
"""

from __future__ import annotations

import math

import numpy as np

from inputs import rotation_error_deg

UNIT_TOL = 1e-9


def read_rows(path: str) -> list[list[str]]:
    """Whitespace-split data lines, skipping blank and '#' comment lines."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.split() for line in fh]
    return [r for r in rows if r and not r[0].startswith("#")]


def check_line_counts(expected: dict[str, int]) -> list[str]:
    """Each path must hold exactly the given number of data lines."""
    problems = []
    for path, n in expected.items():
        try:
            got = len(read_rows(path))
        except OSError as exc:
            problems.append(f"{path}: unreadable: {exc}")
            continue
        if got != n:
            problems.append(f"{path}: {got} data lines, expected {n}")
    return problems


def check_trajectory(path: str, timestamps: list[float]) -> list[str]:
    """n lines of 8 finite fields, the given timestamps, unit quaternions."""
    try:
        rows = read_rows(path)
    except OSError as exc:
        return [f"{path}: unreadable: {exc}"]
    if len(rows) != len(timestamps):
        return [f"{path}: {len(rows)} poses, expected {len(timestamps)}"]
    for lineno, (row, ts) in enumerate(zip(rows, timestamps), start=1):
        if len(row) != 8:
            return [f"{path}: pose {lineno} has {len(row)} fields, expected 8"]
        try:
            vals = [float(v) for v in row]
        except ValueError:
            return [f"{path}: pose {lineno} has a non-numeric field"]
        if not all(math.isfinite(v) for v in vals):
            return [f"{path}: pose {lineno} has a non-finite value"]
        if vals[0] != ts:
            return [f"{path}: pose {lineno} timestamp {vals[0]!r}, expected {ts!r}"]
        norm = math.sqrt(sum(v * v for v in vals[4:]))
        if abs(norm - 1.0) > UNIT_TOL:
            return [f"{path}: pose {lineno} quaternion norm {norm!r} is not unit within {UNIT_TOL}"]
    return []


def check_report(path: str, frames: int, parse_report):
    """Parse with the program's parse_report; frames must equal n.

    Returns (problems, report); report is None when it could not be parsed.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        report = parse_report(text)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"{path}: report does not parse: {exc!r}"], None
    declared = [r for r in (line.split() for line in text.splitlines())
                if len(r) == 2 and r[0] == "frames"]
    problems = []
    if [r[1] for r in declared] != [str(frames)]:
        problems.append(f"{path}: 'frames' line is {declared}, expected {frames}")
    if len(report.per_frame) != frames:
        problems.append(f"{path}: {len(report.per_frame)} frame rows, expected {frames}")
    values = (report.mean_t, report.median_t, report.mean_r, report.median_r)
    if not all(math.isfinite(v) for v in values):
        problems.append(f"{path}: non-finite summary value")
    return problems, (report if not problems else None)


def check_errors(report, est_path: str, gt_t: np.ndarray, gt_q: np.ndarray) -> list[str]:
    """The report's summary figures must match errors computed here from the files."""
    est = np.array(read_rows(est_path), dtype=float)
    t_err = np.linalg.norm(est[:, 1:4] - gt_t, axis=1)
    r_err = rotation_error_deg(est[:, 4:8], gt_q)
    expected = {"mean_t": np.mean(t_err), "median_t": np.median(t_err),
                "mean_r": np.mean(r_err), "median_r": np.median(r_err)}
    return [f"{est_path}: report {name} {getattr(report, name)!r}, computed {float(want)!r}"
            for name, want in expected.items()
            if not math.isclose(getattr(report, name), want, rel_tol=1e-9, abs_tol=1e-12)]
