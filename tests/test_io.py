import tracemalloc
import warnings

import numpy as np
import pytest

from posefusion import quat
from posefusion.pose import Trajectory
from posefusion.trajio import (
    BLOCK_ROWS,
    MAX_LOG_NORM,
    TrajectoryFormatError,
    read_trajectory,
    read_vo,
    write_trajectory,
    write_vo,
)

from conftest import random_poses


class TestTrajectoryFormat:
    @pytest.mark.parametrize("n, span", [(50, 1000.0), (40, 100.0)])
    def test_round_trip(self, tmp_path, rng, n, span):
        t, q = random_poses(rng, n, scale=100.0)
        traj = Trajectory(np.sort(rng.uniform(0, span, size=n)), t, q)
        path = tmp_path / "traj.txt"
        write_trajectory(traj, path)
        back = read_trajectory(path)
        assert np.max(np.abs(back.timestamps - traj.timestamps)) < 1e-12
        assert np.max(np.abs(back.t - traj.t)) < 1e-12
        assert np.max(np.abs(back.q - traj.q)) < 1e-12

    def test_comment_only_file_is_empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing here\n\n# still nothing\n")
        assert len(read_trajectory(path)) == 0

    def test_identity_pose_line(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("0 0 0 0 1 0 0 0\n")
        traj = read_trajectory(path)
        assert len(traj) == 1 and traj.timestamps[0] == 0.0
        assert np.array_equal(traj.t, np.zeros((1, 3)))
        assert np.array_equal(traj.q, [[1.0, 0, 0, 0]])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0 0 0 0 1 0 0 0\n1 0 0 0 1 0 0\n")
        with pytest.raises(TrajectoryFormatError) as exc:
            read_trajectory(path)
        assert exc.value.lineno == 3
        assert "3" in str(exc.value)

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 zero 1 0 0 0\n")
        with pytest.raises(TrajectoryFormatError) as exc:
            read_trajectory(path)
        assert exc.value.lineno == 1

    def test_non_unit_quaternion_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 0 0 1.002 0 0 0\n")
        with pytest.raises(TrajectoryFormatError):
            read_trajectory(path)

    def test_mildly_off_unit_quaternion_renormalized(self, tmp_path):
        path = tmp_path / "ok.txt"
        path.write_text(f"0 0 0 0 {1.0 + 5e-4} 0 0 0\n")
        traj = read_trajectory(path)
        assert abs(np.linalg.norm(traj.q[0]) - 1.0) < 1e-15

    @pytest.mark.parametrize("reader, line", [
        (read_trajectory, "1 0 0 {} 1 0 0 0"),
        (read_trajectory, "1 0 0 0 1 0 0 {}"),
        (read_trajectory, "{} 0 0 0 1 0 0 0"),
        (read_vo, "1 0 {} 0 0 0 0"),
        (read_vo, "1 0 0 0 0 {} 0"),
        (read_vo, "{} 0 0 0 0 0 0"),
    ])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_field_rejected(self, tmp_path, reader, line, value):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n" + line.format(0) + "\n" + line.format(value) + "\n")
        with pytest.raises(TrajectoryFormatError) as exc:
            reader(path)
        assert exc.value.lineno == 3 and "non-finite" in str(exc.value)

    def test_unsorted_timestamps_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 0 0 0 1 0 0 0\n0 0 0 0 1 0 0 0\n")
        with pytest.raises(TrajectoryFormatError) as exc:
            read_trajectory(path)
        assert str(exc.value) == f"{path}:2: timestamps must be strictly increasing"


VO_HEADER = "timestamp tx ty tz w1 w2 w3"


class TestVoFormat:
    # the last case spans two blocks, which read_vo exponentiates one at a time
    @pytest.mark.parametrize("n, t0", [(30, 0.5), (40, 0.0), (BLOCK_ROWS + 3, 0.5)])
    def test_round_trip(self, tmp_path, rng, n, t0):
        # log rotations of every norm up to pi: past pi/2, exp(w) has a
        # negative scalar part and the reader canonicalizes it
        w = rng.normal(size=(n, 3))
        w *= rng.uniform(0.0, np.pi, size=(n, 1)) / np.linalg.norm(w, axis=1, keepdims=True)
        ts, t = np.arange(n, dtype=float) + t0, rng.normal(size=(n, 3))
        path = tmp_path / "vo.txt"
        path.write_text(_one_shot_text(VO_HEADER, [ts, t, w]))
        vo = read_vo(path)
        assert np.array_equal(vo.timestamps, ts) and np.array_equal(vo.t, t)
        assert np.array_equal(vo.q, quat.canonicalize(quat.qexp(w)))
        # a write takes the logs again; exp then log need not give w back bit for bit
        write_vo(vo, tmp_path / "back.txt")
        assert (tmp_path / "back.txt").read_text() == _one_shot_text(
            VO_HEADER, [ts, t, quat.qlog(vo.q)])

    # A written log has norm at most pi/2. Exp and log each round, so a row
    # comes back within a few ulp; at a half turn the scalar part rounds to
    # either side of 0, and the row may come back as -q, the same rotation.
    @pytest.mark.parametrize("angle", ["near-identity", "random", "near-half-turn", "half-turn"])
    def test_write_then_read_keeps_each_rotation(self, tmp_path, rng, angle):
        n = 2000
        axis = rng.normal(size=(n, 3))
        axis /= np.linalg.norm(axis, axis=1, keepdims=True)
        half = {"near-identity": rng.uniform(0.0, 1e-6, n),
                "random": rng.uniform(0.0, np.pi / 2, n),
                "near-half-turn": np.pi / 2 - rng.uniform(0.0, 1e-6, n),
                "half-turn": np.full(n, np.pi / 2)}[angle]  # half the rotation angle
        q = np.column_stack([np.cos(half), np.sin(half)[:, None] * axis])
        if angle == "half-turn":
            q[:, 0] = 0.0
        vo = Trajectory(np.arange(n, dtype=float), rng.normal(size=(n, 3)), q)
        write_vo(vo, tmp_path / "vo.txt")
        back = read_vo(tmp_path / "vo.txt")
        assert np.array_equal(back.timestamps, vo.timestamps) and np.array_equal(back.t, vo.t)
        moved = np.minimum(np.abs(back.q - vo.q).max(axis=1), np.abs(back.q + vo.q).max(axis=1))
        assert moved.max() <= 4 * np.finfo(float).eps

    def test_zero_motion_line(self, tmp_path):
        path = tmp_path / "vo.txt"
        path.write_text("1 0 0 0 0 0 0\n")
        vo = read_vo(path)
        assert np.array_equal(vo.t, np.zeros((1, 3)))
        assert np.array_equal(vo.q, [quat.IDENTITY])

    @pytest.mark.parametrize("expected, lineno, message", [
        ([1.0, 2.0, 3.0], None, None),
        ([1.0, 2.5, 3.0], 3, "timestamp 2.0 differs from the trajectory's 2.5"),
        ([1.0, 2.0], 4, "3 relative poses, expected 2"),
        ([1.0, 2.0, 3.0, 4.0], 5, "3 relative poses, expected 4"),
    ])
    def test_expected_timestamps(self, tmp_path, expected, lineno, message):
        path = tmp_path / "vo.txt"
        path.write_text("# header\n1 0 0 0 0 0 0\n2 0 0 0 0 0 0\n3 0 0 0 0 0 0\n")
        if lineno is None:
            assert len(read_vo(path, timestamps=expected)) == 3
            return
        with pytest.raises(TrajectoryFormatError) as exc:
            read_vo(path, timestamps=expected)
        assert str(exc.value) == f"{path}:{lineno}: {message}"

    @pytest.mark.parametrize("line_nine", ["9 0 0 0 0 0", "9 0 0 0 4 0 0", "9 0 0 0 x 0 0",
                                           "9 nan 0 0 0 0 0", "7 0 0 0 0 0 0"])
    def test_differing_timestamp_reported_before_later_faults(self, tmp_path, line_nine):
        # line 4 carries 4.5 where the trajectory has 4, still increasing;
        # whatever is wrong with line 9 comes later
        rows = ["%d 0 0 0 0 0 0" % s for s in range(1, 9)]
        rows[3] = "4.5 0 0 0 0 0 0"
        path = tmp_path / "vo.txt"
        path.write_text("\n".join([*rows, line_nine, "10 0 0 0 0 0 0"]) + "\n")
        with pytest.raises(TrajectoryFormatError) as exc:
            read_vo(path, timestamps=np.arange(1.0, 11.0))
        assert str(exc.value) == f"{path}:4: timestamp 4.5 differs from the trajectory's 4.0"

    def test_decreasing_timestamp_rejected_at_its_line(self, tmp_path):
        path = tmp_path / "vo.txt"
        path.write_text("1 0 0 0 0 0 0\n\n3 0 0 0 0 0 0\n2 0 0 0 0 0 0\n")
        with pytest.raises(TrajectoryFormatError) as exc:
            read_vo(path)
        assert str(exc.value) == f"{path}:4: timestamps must be strictly increasing"

    @pytest.mark.parametrize("norm, too_large", [
        (np.pi, False),                              # a full turn's half angle
        (MAX_LOG_NORM, False),                       # the bound itself
        (np.nextafter(MAX_LOG_NORM, np.inf), True),  # the next float above it
        (4.0, True),
    ])
    def test_oversized_log_rotation_rejected(self, tmp_path, norm, too_large):
        # w along one axis, so its row norm is exactly norm
        w = [0.0, 0.0, -float(norm)]
        path = tmp_path / "vo.txt"
        path.write_text(f"# header\n1 0 0 0 0 0 0\n2 0 0 0 0 0 {w[2]!r}\n3 0 0 0 0 0 0\n")
        if too_large:
            with pytest.raises(TrajectoryFormatError) as exc:
                read_vo(path)
            assert str(exc.value) == f"{path}:3: log-quaternion norm exceeds pi"
        else:
            assert np.array_equal(read_vo(path).q[1], quat.canonicalize(quat.qexp(w)))

    # the bound is on the norm of the whole row: each of these components is under pi
    @pytest.mark.parametrize("component, too_large", [(1.8, False), (1.82, True)])
    def test_log_norm_is_the_norm_of_the_row(self, tmp_path, component, too_large):
        path = tmp_path / "vo.txt"
        path.write_text(f"1 0 0 0 0 0 0\n2 0 0 0 {component} {-component} {component}\n")
        if too_large:
            with pytest.raises(TrajectoryFormatError) as exc:
                read_vo(path)
            assert str(exc.value) == f"{path}:2: log-quaternion norm exceeds pi"
        else:
            assert len(read_vo(path)) == 2


POSE = [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]  # t and an identity q
STEP = [0.1, 0.0, 0.0, 0.0, 0.0, 0.1]       # t and a small w


class TestReadersApplyTheTypesRules:
    """A reader rejects the row that Trajectory rejects, at its line, with
    Trajectory's message: both apply the rule pose states once."""

    @pytest.mark.parametrize("reader, rows, lineno", [
        (read_trajectory, [[0.0, *POSE], [1.0, *POSE], [1.0, *POSE]], 4),
        (read_trajectory, [[0.0, *POSE], [2.0, *POSE], [1.0, *POSE]], 4),
        (read_vo, [[1.0, *STEP], [2.0, *STEP], [2.0, *STEP]], 4),
        (read_vo, [[1.0, *STEP], [3.0, *STEP], [2.0, *STEP]], 4),
    ], ids=["trajectory-repeated", "trajectory-decreasing", "vo-repeated", "vo-decreasing"])
    def test_reader_error_ends_with_the_types_message(self, tmp_path, reader, rows, lineno):
        path = tmp_path / "rows.txt"
        path.write_text("# header\n" + "".join(" ".join(map(repr, r)) + "\n" for r in rows))
        table = np.array(rows)
        q = table[:, 4:] if reader is read_trajectory else quat.qexp(table[:, 4:])
        with pytest.raises(ValueError) as type_exc:
            Trajectory(table[:, 0], table[:, 1:4], q)
        assert type(type_exc.value) is ValueError
        with pytest.raises(TrajectoryFormatError) as read_exc:
            reader(path)
        assert read_exc.value.lineno == lineno
        assert str(read_exc.value) == f"{path}:{lineno}: {type_exc.value}"


ENCODING_FILES = [
    (read_trajectory, "# timestamp tx ty tz qu qv1 qv2 qv3\n0 1 2 3 1 0 0 0\n1 1 2 3 0 1 0 0\n"),
    (read_vo, "# timestamp tx ty tz w1 w2 w3\n1 0.5 0 0 0 0 0.1\n2 0.5 0 0 0.1 0 0\n"),
]


class TestEncoding:
    """Readers skip a leading byte-order mark and report a byte that is not
    UTF-8 as a fault of its line."""

    @pytest.mark.parametrize("reader, text", ENCODING_FILES, ids=["trajectory", "vo"])
    def test_byte_order_mark_is_skipped(self, tmp_path, reader, text):
        plain, marked = tmp_path / "plain.txt", tmp_path / "bom.txt"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        a, b = reader(plain), reader(marked)
        assert len(b) == 2
        for name in ("timestamps", "t", "q"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("reader, text", ENCODING_FILES, ids=["trajectory", "vo"])
    @pytest.mark.parametrize("lineno", [1, 3])
    def test_bad_byte_is_reported_at_its_line(self, tmp_path, reader, text, lineno):
        lines = text.encode().splitlines(keepends=True)
        lines[lineno - 1] = b"\xff" + lines[lineno - 1]
        path = tmp_path / "bad.txt"
        path.write_bytes(b"".join(lines))
        with pytest.raises(TrajectoryFormatError) as exc:
            reader(path)
        assert exc.value.lineno == lineno and str(exc.value).startswith(f"{path}:{lineno}: ")

    @pytest.mark.parametrize("reader, text", ENCODING_FILES, ids=["trajectory", "vo"])
    def test_bad_byte_in_a_comment_is_not_read(self, tmp_path, reader, text):
        path = tmp_path / "comment.txt"
        path.write_bytes(text.encode().replace(b"# ", b"# \xff", 1))
        assert len(reader(path)) == 2


def _reference_read(path, count, row_error):
    """Line-by-line reader: the first line that is not count finite numbers,
    or for which row_error(previous row, row) returns a message, raises."""
    previous = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != count:
                raise TrajectoryFormatError(path, lineno, f"expected {count} fields, got {len(parts)}")
            try:
                vals = [float(p) for p in parts]
            except ValueError as exc:
                raise TrajectoryFormatError(path, lineno, f"non-numeric field: {exc}") from None
            if not np.isfinite(vals).all():
                raise TrajectoryFormatError(path, lineno, "non-finite field (NaN or inf)")
            message = row_error(previous, vals)
            if message:
                raise TrajectoryFormatError(path, lineno, message)
            rows.append(vals)
            previous = vals
    return np.array(rows).reshape(-1, count)


def _trajectory_row_error(previous, vals):
    if previous is not None and vals[0] <= previous[0]:
        return "timestamps must be strictly increasing"
    if abs(np.linalg.norm(vals[4:]) - 1.0) > 1e-3:
        return "quaternion is not unit-norm"
    return None


def _vo_row_error(previous, vals):
    if previous is not None and vals[0] <= previous[0]:
        return "timestamps must be strictly increasing"
    if np.linalg.norm(vals[4:]) > np.pi + 1e-9:
        return "log-quaternion norm exceeds pi"
    return None


class TestBulkReadMatchesLineByLine:
    """The bulk readers raise the error a line-by-line reader raises first."""

    GOOD = {8: "{ts} 1.5 -2 3e2 0.5 0.5 0.5 0.5", 7: "{ts} 1.5 -2 3e2 0.1 0.2 -0.3"}
    BAD = {8: ["{ts} 1 2 3 1 0 0", "{ts} 1 2 x 1 0 0 0", "{ts} 1 2 3 nan 0 0 0",
               "{ts} 1 2 3 1.1 0 0 0", "-1 0 0 0 1 0 0 0"],
           7: ["{ts} 1 2 3 0 0", "{ts} 1 2 3 0 0 zero", "{ts} inf 2 3 0 0 0",
               "-1 0 0 0 0 0 0", "{ts} 0 0 0 4 0 0"]}

    @staticmethod
    def _check(path, count, text):
        """path holding text reads as _reference_read reads it, or raises its error."""
        path.write_bytes(text.encode("utf-8"))
        reader = read_trajectory if count == 8 else read_vo
        row_error = _trajectory_row_error if count == 8 else _vo_row_error
        try:
            expected = _reference_read(path, count, row_error)
        except TrajectoryFormatError as exc:
            with pytest.raises(TrajectoryFormatError) as got:
                reader(path)
            assert str(got.value) == str(exc)
            return
        back = reader(path)
        assert np.array_equal(back.timestamps, expected[:, 0])
        assert np.array_equal(back.t, expected[:, 1:4])
        assert np.array_equal(np.signbit(back.t), np.signbit(expected[:, 1:4]))
        rotation = expected[:, 4:]
        if count == 8:
            rotation = rotation / quat.row_norm(rotation)[:, None]
        else:
            rotation = quat.qexp(rotation)
        assert np.array_equal(back.q, quat.canonicalize(rotation))

    def _lines(self, count, rows=3):
        return [self.GOOD[count].format(ts=i) for i in range(rows)]

    @pytest.mark.parametrize("count", [8, 7])
    def test_random_files(self, tmp_path, count):
        rng = np.random.default_rng(count)
        for trial in range(60):
            lines = ["# header"]
            for i in range(int(rng.integers(1, 12))):
                kind = rng.random()
                if kind < 0.1:
                    lines.append("" if rng.random() < 0.5 else "  # note")
                elif kind < 0.8 or trial % 4 == 0:
                    lines.append(self.GOOD[count].format(ts=i))
                else:
                    lines.append(rng.choice(self.BAD[count]).format(ts=i))
            self._check(tmp_path / "f.txt", count, "\n".join(lines) + "\n")

    # Spellings where numpy's C reader and float() disagree (1_0 and the
    # full-width digit parse only with float()), and ones both accept.
    @pytest.mark.parametrize("count", [8, 7])
    @pytest.mark.parametrize("field", ["1_0", "\uff11", "1\u200b", "+.5", "5.", "1E5", "-0",
                                       "1e400"])
    def test_field_spellings(self, tmp_path, count, field):
        lines = self._lines(count)
        parts = lines[1].split()
        parts[1] = field
        lines[1] = " ".join(parts)
        self._check(tmp_path / "f.txt", count, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("count", [8, 7])
    @pytest.mark.parametrize("sep", ["\t", "\x0c", "\x1f", "\u2003", "\u200b"])
    def test_separators(self, tmp_path, count, sep):
        lines = self._lines(count)
        lines[1] = sep.join(lines[1].split())
        self._check(tmp_path / "f.txt", count, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("count", [8, 7])
    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_line_ends(self, tmp_path, count, end):
        self._check(tmp_path / "f.txt", count, end.join(["# header", *self._lines(count)]) + end)

    @pytest.mark.parametrize("count", [8, 7])
    def test_trailing_comment_rejected(self, tmp_path, count):
        lines = self._lines(count)
        lines[1] += " # note"
        self._check(tmp_path / "f.txt", count, "\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError, match=f":2: expected {count} fields"):
            (read_trajectory if count == 8 else read_vo)(tmp_path / "f.txt")

    # numpy's loadtxt warns on input without data; the readers must never
    # hand it an empty file, and a one-row file must not warn either.
    @pytest.mark.parametrize("count", [8, 7])
    @pytest.mark.parametrize("rows", [1, 0])
    def test_one_row_and_comment_only_files_do_not_warn(self, tmp_path, count, rows):
        text = "\n".join(["# header", *self._lines(count, rows), "  # note"]) + "\n"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self._check(tmp_path / "f.txt", count, text)

    # Readers take BLOCK_ROWS lines of the file at a time: lines 1..B form
    # the first block, B+1..2B the second, and so on.
    @pytest.mark.parametrize("count", [8, 7])
    @pytest.mark.parametrize("rows", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                      2 * BLOCK_ROWS + 1])
    def test_rows_around_block_size(self, tmp_path, count, rows):
        self._check(tmp_path / "f.txt", count, "\n".join(self._lines(count, rows)) + "\n")
        assert len((read_trajectory if count == 8 else read_vo)(tmp_path / "f.txt")) == rows

    @pytest.mark.parametrize("count", [8, 7])
    @pytest.mark.parametrize("last", ["good", "bad"])
    def test_comment_and_blank_lines_across_blocks(self, tmp_path, count, last):
        B = BLOCK_ROWS
        lines = self._lines(count, 2 * B + 1)
        lines[B - 2:B - 2] = ["", "  # note", "\t", "#"]  # lines B-1 .. B+2
        lines[2 * B:2 * B] = ["# note"] * B  # the whole third block
        if last == "bad":  # its line number counts every line before it
            lines[-1] = self.BAD[count][1].format(ts=2 * B)
        self._check(tmp_path / "f.txt", count, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("count", [8, 7])
    @pytest.mark.parametrize("index", [BLOCK_ROWS, 2 * BLOCK_ROWS - 1])  # second block's edges
    @pytest.mark.parametrize("bad", range(5))
    def test_bad_line_at_block_edge(self, tmp_path, count, index, bad):
        lines = self._lines(count, 2 * BLOCK_ROWS + 1)
        lines[index] = self.BAD[count][bad].format(ts=index)
        self._check(tmp_path / "f.txt", count, "\n".join(lines) + "\n")

    @pytest.mark.parametrize("count", [8, 7])
    @pytest.mark.parametrize("back", [0, 1])
    def test_non_increasing_timestamp_across_blocks(self, tmp_path, count, back):
        lines = self._lines(count, 2 * BLOCK_ROWS + 1)
        # the first line of the second block repeats or precedes the last of the first
        lines[BLOCK_ROWS] = self.GOOD[count].format(ts=BLOCK_ROWS - 1 - back)
        self._check(tmp_path / "f.txt", count, "\n".join(lines) + "\n")
        with pytest.raises(TrajectoryFormatError,
                           match=f":{BLOCK_ROWS + 1}: timestamps must be strictly increasing"):
            (read_trajectory if count == 8 else read_vo)(tmp_path / "f.txt")


def _one_shot_text(header, columns):
    """The whole file formatted in one % operation."""
    table = np.column_stack(columns)
    row = " ".join(["%.17g"] * table.shape[1]) + "\n"
    return f"# {header}\n" + (row * len(table)) % tuple(table.ravel().tolist())


def _trajectory(rng, n):
    q = rng.normal(size=(n, 4))
    return Trajectory(np.arange(n, dtype=float) + rng.random(), 100.0 * rng.normal(size=(n, 3)),
                      q / np.linalg.norm(q, axis=1, keepdims=True))


class TestBlockWrites:
    """Writers format BLOCK_ROWS rows at a time into the one-shot file."""

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   2 * BLOCK_ROWS + 1])
    def test_bytes_match_one_shot_format(self, tmp_path, rng, n):
        traj = _trajectory(rng, n)
        write_trajectory(traj, tmp_path / "traj.txt")
        assert (tmp_path / "traj.txt").read_text() == _one_shot_text(
            "timestamp tx ty tz qu qv1 qv2 qv3", [traj.timestamps, traj.t, traj.q])
        write_vo(traj, tmp_path / "vo.txt")  # traj's poses as relative ones
        assert (tmp_path / "vo.txt").read_text() == _one_shot_text(
            VO_HEADER, [traj.timestamps, traj.t, quat.qlog(traj.q)])

    # write_vo takes its logs a block at a time as well
    @pytest.mark.parametrize("write", [write_trajectory, write_vo], ids=["trajectory", "vo"])
    def test_memory_does_not_grow_with_rows(self, tmp_path, rng, write):
        peaks = []
        for n in (8000, 64000):
            traj = _trajectory(rng, n)
            tracemalloc.start()
            try:
                write(traj, tmp_path / "out.txt")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0]

