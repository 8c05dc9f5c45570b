"""Plain-text file formats for trajectories and per-frame VO.

Both are whitespace-separated UTF-8 with LF line endings and `#`
comment lines. Readers skip a leading byte-order mark and read a byte that
is not UTF-8 as U+FFFD, which fails its data line as a non-numeric field;
comment lines are not read.

* trajectory: ``timestamp tx ty tz qu qv1 qv2 qv3`` (scalar-first quaternion)
* VO:         ``timestamp tx ty tz w1 w2 w3`` (log-quaternion rotation)

Both read into a Trajectory, VO as relative poses (see pose.integrate).
The VO file is the one place that stores rotations as logs: read_vo
exponentiates them and write_vo takes the logs, BLOCK_ROWS rows at a time.
Quaternion sign is a file rule: readers keep the signs a file gives,
write_trajectory stores u >= 0 and write_vo's logs lie in qlog's chart.
Values are written with 17 significant digits, so a file's numbers read
back exactly; exp and log each round, so a VO rotation need not. Readers
reject NaN and inf and apply pose's timestamp rule, with its message. Two
rules are file policies: trajectory quaternions must be unit-norm within
QUAT_NORM_TOL, and are renormalized, and VO log rotations must have a norm
of at most MAX_LOG_NORM.

A file is read BLOCK_ROWS lines at a time. Each block's data lines go to
numpy's C reader (`np.loadtxt`) in one call. When that call fails, returns
another shape, or gives a value that is not finite, that block's lines are
parsed again one by one with `str.split` and `float`. That line-by-line
path decides what the file holds: it accepts spellings `float` accepts and
the C reader does not (such as `1_0`), and it names the first offending
line, numbered over the whole file, with the error a reader stopping there
would raise. Reading stops after that block. Writers stack and format
BLOCK_ROWS rows at a time. So neither holds the whole file's text, lines
or Python floats at once: only the table of values.
"""

from __future__ import annotations

import math
from itertools import compress, islice

import numpy as np

from . import quat
from .pose import BLOCK_ROWS, NOT_INCREASING_ERROR, Trajectory, not_increasing

QUAT_NORM_TOL = 1e-3
# Largest accepted norm of a VO log rotation: the half angle of a full turn,
# with room for rounding.
MAX_LOG_NORM = np.pi + 1e-9


class TrajectoryFormatError(ValueError):
    """Malformed input file; carries the path and 1-based line number."""

    def __init__(self, path, lineno: int, message: str):
        self.path = str(path)
        self.lineno = lineno
        super().__init__(f"{path}:{lineno}: {message}")


def _parse_floats(path, lineno: int, parts: list[str], count: int) -> list[float]:
    if len(parts) != count:
        raise TrajectoryFormatError(path, lineno, f"expected {count} fields, got {len(parts)}")
    try:
        vals = [float(p) for p in parts]
    except ValueError as exc:
        raise TrajectoryFormatError(path, lineno, f"non-numeric field: {exc}") from None
    if not all(map(math.isfinite, vals)):
        raise TrajectoryFormatError(path, lineno, "non-finite field (NaN or inf)")
    return vals


def _parse_lines(path, lines: list[str], linenos: np.ndarray,
                 count: int) -> tuple[np.ndarray, TrajectoryFormatError | None]:
    """Data lines (at linenos in path) as a (len(lines), count) array of finite values.

    Returns the rows before the first line that is not `count` finite
    numbers and that line's error; (all rows, None) when every line is.
    """
    # comments=None: with loadtxt's default, "... # note" after the fields
    # would parse.
    try:
        table = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
    except ValueError:
        pass
    else:
        if table.shape == (len(lines), count) and np.isfinite(table).all():
            return table, None
    rows = []
    for lineno, line in zip(linenos.tolist(), lines):
        try:
            rows.append(_parse_floats(path, lineno, line.split(), count))
        except TrajectoryFormatError as exc:
            return np.array(rows).reshape(-1, count), exc
    return np.array(rows).reshape(-1, count), None


def _parse(path, count: int) -> tuple[np.ndarray, np.ndarray, TrajectoryFormatError | None]:
    """The data lines of path as an (n, count) array of finite values.

    Reads BLOCK_ROWS lines at a time, and stops after the block holding
    the first line that is not `count` finite numbers. Returns the rows
    before that line, the line numbers of the data lines read, and that
    line's error; (all rows, line numbers, None) for a valid file.
    """
    # the empty first entries stand for a file without data lines
    tables, linenos = [np.empty((0, count))], [np.empty(0, dtype=int)]
    error, first = None, 1  # first: the line number of the block's first line
    with open(path, "r", encoding="utf-8-sig", errors="replace") as fh:
        while error is None and (lines := list(islice(fh, BLOCK_ROWS))):
            data = [bool(s) and s[0] != "#" for s in map(str.lstrip, lines)]
            linenos.append(np.flatnonzero(data) + first)
            first += len(lines)
            # a block without data is skipped: loadtxt warns on an empty list
            if linenos[-1].size:
                table, error = _parse_lines(path, list(compress(lines, data)), linenos[-1], count)
                tables.append(table)
    return np.concatenate(tables), np.concatenate(linenos), error


def _read_table(path, count: int, row_checks) -> tuple[np.ndarray, np.ndarray]:
    """The data lines of path as an (n, count) array, checked row by row.

    Column 0 is a timestamp, which must be strictly increasing. row_checks
    are further (message, predicate) pairs, applied in order after that
    one; a predicate maps the array to a boolean mask of the rows it
    rejects, and a message is a string or a function of the array and the
    row that returns one. Raises TrajectoryFormatError at the first line
    that fails to parse or that a check rejects. Also returns n + 1 line
    numbers: those of the n rows, then the line after the last row.
    """
    table, linenos, error = _parse(path, count)
    row_checks = [(NOT_INCREASING_ERROR, lambda r: not_increasing(r[:, 0])), *row_checks]
    if len(table):
        bad = np.column_stack([check(table) for _, check in row_checks])
        if bad.any():
            row = int(np.argmax(bad.any(axis=1)))
            message = row_checks[int(np.argmax(bad[row]))][0]
            if callable(message):
                message = message(table, row)
            raise TrajectoryFormatError(path, int(linenos[row]), message)
    if error is not None:
        raise error
    return table, np.append(linenos, linenos[-1] + 1 if len(linenos) else 1)


def _write_table(path, header: str, seq: Trajectory, rotation) -> None:
    """Write seq under header, BLOCK_ROWS rows at a time; rotation maps a
    block of its quaternions to the rotation columns the file stores."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# {header}\n")
        for lo in range(0, len(seq), BLOCK_ROWS):
            rows = slice(lo, lo + BLOCK_ROWS)
            block = np.column_stack([seq.timestamps[rows], seq.t[rows], rotation(seq.q[rows])])
            row = " ".join(["%.17g"] * block.shape[1]) + "\n"
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def read_trajectory(path) -> Trajectory:
    table, _ = _read_table(path, 8, [
        ("quaternion is not unit-norm",
         lambda r: np.abs(quat.row_norm(r[:, 4:]) - 1.0) > QUAT_NORM_TOL)])
    q = table[:, 4:]
    q /= quat.row_norm(q)[:, None]  # in place: the table is ours
    return Trajectory(table[:, 0], table[:, 1:4], q)


def write_trajectory(traj: Trajectory, path) -> None:
    """Write traj, each quaternion row as quat.canonicalize(q) gives it: u >= 0."""
    _write_table(path, "timestamp tx ty tz qu qv1 qv2 qv3", traj, quat.canonicalize)


def read_vo(path, *, timestamps=None) -> Trajectory:
    """Read a VO file as a Trajectory of relative poses, q = exp(w) for each
    row's log rotation w; with timestamps given, its rows must carry exactly
    those.

    A fused trajectory's VO carries the trajectory's timestamps after the
    first. TrajectoryFormatError names the first offending line, a differing
    timestamp like any other fault; or, when every row is valid, the first
    extra row, or the line after the last row of a file that is too short.
    """
    row_checks = [("log-quaternion norm exceeds pi",
                   lambda r: quat.row_norm(r[:, 4:]) > MAX_LOG_NORM)]
    if timestamps is not None:
        expected = np.asarray(timestamps, dtype=float)

        def differs(r):
            mask = np.zeros(len(r), dtype=bool)
            mask[:len(expected)] = r[:len(expected), 0] != expected[:len(r)]
            return mask

        row_checks.append((lambda r, row: f"timestamp {float(r[row, 0])!r} differs from the "
                                          f"trajectory's {float(expected[row])!r}", differs))
    table, linenos = _read_table(path, 7, row_checks)
    if timestamps is not None and len(table) != len(expected):
        raise TrajectoryFormatError(path, int(linenos[min(len(expected), len(table))]),
                                    f"{len(table)} relative poses, expected {len(expected)}")
    del linenos  # before the Trajectory's copies of timestamps and t
    q = np.empty((len(table), 4))
    for lo in range(0, len(table), BLOCK_ROWS):
        q[lo:lo + BLOCK_ROWS] = quat.qexp(table[lo:lo + BLOCK_ROWS, 4:])
    q.flags.writeable = False  # the Trajectory keeps q
    return Trajectory(table[:, 0], table[:, 1:4], q)


def write_vo(vo: Trajectory, path) -> None:
    _write_table(path, "timestamp tx ty tz w1 w2 w3", vo, quat.qlog)

