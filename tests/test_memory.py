"""Peak traced memory per frame of the per-frame stages, at 64,000 frames.

Each stage takes BLOCK_ROWS rows at a time, so apart from its inputs and
outputs it holds no whole-sequence temporaries. tracemalloc traces numpy's
buffers as well as Python objects. Each bound is about 1.2 times what the
blocked code takes. Reading, integrating and carrying the whole sequence at
once took 340-420 bytes per frame in every one of these stages. Building a
Trajectory keeps 64 bytes per frame, one copy of its arrays, and peaks at
81 with canonicalization's temporaries.
"""

import tracemalloc

import pytest

from posefusion.pgo import PgoConfig, fuse_trajectory
from posefusion.pose import Trajectory, integrate
from posefusion.sim import NoiseModel, corrupt_absolute, corrupt_vo, generate_trajectory
from posefusion.trajio import read_trajectory, read_vo, write_trajectory, write_vo

FRAMES = 64000


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths of an abs and a VO file of FRAMES frames, and their contents."""
    gt = generate_trajectory("loop", FRAMES, 0.1)
    nm = NoiseModel(abs_t_sigma=0.5, abs_r_sigma=5, vo_t_sigma=0.01, vo_r_sigma=0.1,
                    vo_t_bias=0.01)
    abs_traj, vo = corrupt_absolute(gt, nm), corrupt_vo(gt, nm)
    root = tmp_path_factory.mktemp("memory")
    write_trajectory(abs_traj, root / "abs.txt")
    write_vo(vo, root / "vo.txt")
    return root / "abs.txt", root / "vo.txt", abs_traj, vo


def _peak_bytes_per_frame(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / FRAMES
    finally:
        tracemalloc.stop()


def test_read_trajectory(inputs):
    assert _peak_bytes_per_frame(lambda: read_trajectory(inputs[0])) < 250


def test_read_vo(inputs):
    assert _peak_bytes_per_frame(lambda: read_vo(inputs[1])) < 155


def test_integrate(inputs):
    abs_traj, vo = inputs[2:]
    assert _peak_bytes_per_frame(lambda: integrate(abs_traj.t[0], abs_traj.q[0], vo)) < 82


def test_fuse_trajectory(inputs):
    abs_traj, vo = inputs[2:]
    assert _peak_bytes_per_frame(lambda: fuse_trajectory(abs_traj, vo, PgoConfig())) < 276


def test_trajectory(inputs):
    abs_traj = inputs[2]
    ts, t, q = abs_traj.timestamps, abs_traj.t, abs_traj.q
    assert _peak_bytes_per_frame(lambda: Trajectory(ts, t, q)) < 97
