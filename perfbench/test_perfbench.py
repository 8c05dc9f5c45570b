"""Self-tests of the benchmark's generator, validator and span arithmetic.

Run from the root of the repository: python3 -m pytest perfbench
"""

import math
import os
from types import SimpleNamespace

import numpy as np

import inputs
import spans
import validate


def _read_bytes(directory):
    return {name: open(os.path.join(directory, name), "rb").read()
            for name in (inputs.GT_FILE, inputs.ABS_FILE, inputs.VO_FILE)}


def test_same_seed_gives_identical_inputs(tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "c")]
    for d in dirs:
        d.mkdir()
    sha_a = inputs.write_inputs(inputs.make_inputs(50, seed=7), str(dirs[0]))
    sha_b = inputs.write_inputs(inputs.make_inputs(50, seed=7), str(dirs[1]))
    sha_c = inputs.write_inputs(inputs.make_inputs(50, seed=8), str(dirs[2]))
    assert _read_bytes(dirs[0]) == _read_bytes(dirs[1])
    assert sha_a == sha_b
    assert _read_bytes(dirs[0])[inputs.GT_FILE] == _read_bytes(dirs[2])[inputs.GT_FILE]
    assert _read_bytes(dirs[0])[inputs.ABS_FILE] != _read_bytes(dirs[2])[inputs.ABS_FILE]
    assert _read_bytes(dirs[0])[inputs.VO_FILE] != _read_bytes(dirs[2])[inputs.VO_FILE]
    assert sha_a != sha_c


def _write_trajectory(path, n):
    inp = inputs.make_inputs(n, seed=0)
    rows = np.column_stack([inp.timestamps, inp.gt_t, inp.gt_q])
    np.savetxt(path, rows, fmt="%.17g", header="timestamp tx ty tz qu qv1 qv2 qv3")
    return inp.timestamps.tolist()


def test_validator_accepts_a_valid_trajectory(tmp_path):
    path = str(tmp_path / "fused.txt")
    timestamps = _write_trajectory(path, 20)
    assert validate.check_trajectory(path, timestamps) == []
    assert validate.check_line_counts({path: 20}) == []


def test_validator_flags_truncated_file(tmp_path):
    path = str(tmp_path / "fused.txt")
    timestamps = _write_trajectory(path, 20)
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text[: len(text) * 2 // 3])  # ends part-way through a line
    assert validate.check_trajectory(path, timestamps)
    assert validate.check_line_counts({path: 20})


def test_validator_flags_nan(tmp_path):
    path = str(tmp_path / "fused.txt")
    timestamps = _write_trajectory(path, 20)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    fields = lines[5].split()
    fields[2] = "nan"
    lines[5] = " ".join(fields) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    problems = validate.check_trajectory(path, timestamps)
    assert problems and "non-finite" in problems[0]


def test_validator_recomputes_report_errors(tmp_path):
    path = str(tmp_path / "fused.txt")
    _write_trajectory(path, 20)
    gt = inputs.make_inputs(20, seed=0)
    exact = SimpleNamespace(mean_t=0.0, median_t=0.0, mean_r=0.0, median_r=0.0)
    assert validate.check_errors(exact, path, gt.gt_t, gt.gt_q) == []
    moved = gt.gt_t + np.array([0.0, 0.3, 0.4])  # every frame 0.5 m off
    off = SimpleNamespace(mean_t=0.5, median_t=0.5, mean_r=0.0, median_r=0.0)
    assert validate.check_errors(off, path, moved, gt.gt_q) == []
    assert len(validate.check_errors(exact, path, moved, gt.gt_q)) == 2


def test_self_time_subtracts_children_on_a_synthetic_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None),
        spans.Span("a", 1.0, 4.0, 0),
        spans.Span("a.x", 1.5, 2.0, 1),
        spans.Span("b", 5.0, 9.0, 0),
        spans.Span("b.x", 6.0, 7.0, 3),
        spans.Span("b.y", 6.5, 8.0, 3),  # overlaps b.x: the union is counted once
        spans.Span("c", 9.5, 12.0, 0),   # runs past its parent: only 0.5 s covered
    ]
    expected = [10.0 - 3.0 - 4.0 - 0.5, 2.5, 0.5, 4.0 - 2.0, 1.0, 1.5, 2.5]
    got = spans.self_times(tree)
    assert all(math.isclose(g, e) for g, e in zip(got, expected)), got


def test_tracer_records_nesting_and_reports_absent_names():
    class Module:
        pass

    mod = Module()
    mod.__name__ = "fake"
    ticks = iter(range(100))
    mod.inner = lambda: None
    mod.outer = lambda: mod.inner()
    with spans.Tracer(clock=lambda: float(next(ticks))) as tracer:
        assert tracer.trace("fake.outer", mod, "outer")
        assert tracer.trace("fake.inner", mod, "inner")
        assert not tracer.trace("fake.gone", mod, "gone")
        mod.outer()
    summary = tracer.summary()
    assert summary["fake.outer"] == {"total_s": 3.0, "self_s": 2.0, "calls": 1}
    assert summary["fake.inner"]["calls"] == 1
    assert tracer.absent == ["fake.gone"]
    assert not hasattr(mod.outer, "__wrapped__")
