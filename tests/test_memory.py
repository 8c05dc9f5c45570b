"""Peak traced memory per frame of the per-frame stages, at 64,000 frames.

Each stage takes BLOCK_ROWS rows at a time, so apart from its inputs and
outputs it holds no whole-sequence temporaries. tracemalloc traces numpy's
buffers as well as Python objects. Each bound was about 1.2 times what the
blocked code took when it was set. Reading, integrating and carrying the whole sequence at
once took 340-420 bytes per frame in every one of these stages. Building a
Trajectory from writeable arrays keeps 64 bytes per frame, one copy of its
arrays, q with the signs it is given; its checks' temporaries are freed
before the copies, which are the peak. It keeps arrays that are read-only,
float64 and own their data, and then peaks at 24 bytes per frame, in the
unit-norm check. fuse_trajectory, the median filter and read_vo freeze the
arrays they build, so their Trajectory keeps them. The median filter takes
its windows a chunk at a time and peaks at 106 bytes per frame at window
51, against 146 when its Trajectory copied the arrays it built. Reading a trajectory normalizes its
quaternions in the table it parsed: 144 bytes per frame, against 168 with a
normalized copy. Reading a VO file exponentiates its log rotations a block
at a time into one (n, 4) array, which the Trajectory keeps, and frees its
line numbers before it builds the Trajectory: 128 bytes per frame, against
168 with a whole-table exp and 152 with a copy of q.

fuse_trajectory carries the off-grid frames into its integrated VO, and
builds, solves and frees its windows one stack of at most 896 poses at a
time, so the solve holds one stack, not every window: 84 bytes per frame at
spacing 150, and 109 at spacing 10 with windows of 7 or of 25 poses, against
96, 153 and 219 when every window was built at once and solved 128 windows
at a time, 204 and 323 with a separate output and the stack kept to the
end, and 125 at spacing 150 when the output copied the carried arrays.
Windows start every T - 4 grid poses; with a window at every grid pose,
spacing 10 took 213. The CLI fuse frees its inputs before the median filter
and peaks at 215 bytes per frame, against 227 with every window built at
once, 353 when it kept its inputs to the write and 256 when each Trajectory
copied its arrays.

quat's products stack their components into the result once: corrupting
ground truth peaks at 216 bytes per frame for the absolute poses and 272
for the VO, and comparing two trajectories at 104, against 248, 304 and 136
when each product made a second, transposed copy of its result.
"""

import tracemalloc

import pytest

from posefusion.cli import main
from posefusion.metrics import compare
from posefusion.pgo import PgoConfig, fuse_trajectory, temporal_median_filter
from posefusion.pose import Trajectory, integrate
from posefusion.sim import NoiseModel, corrupt_absolute, corrupt_vo, generate_trajectory
from posefusion.trajio import read_trajectory, read_vo, write_trajectory, write_vo

FRAMES = 64000


@pytest.fixture(scope="module")
def truth():
    """Ground truth of FRAMES frames and the README's noise model."""
    nm = NoiseModel(abs_t_sigma=0.5, abs_r_sigma=5, vo_t_sigma=0.01, vo_r_sigma=0.1,
                    vo_t_bias=0.01)
    return generate_trajectory("loop", FRAMES, 0.1), nm


@pytest.fixture(scope="module")
def inputs(truth, tmp_path_factory):
    """Paths of an abs and a VO file of FRAMES frames, and their contents."""
    gt, nm = truth
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
    assert _peak_bytes_per_frame(lambda: read_trajectory(inputs[0])) < 185


def test_read_vo(inputs):
    assert _peak_bytes_per_frame(lambda: read_vo(inputs[1])) < 154


def test_integrate(inputs):
    abs_traj, vo = inputs[2:]
    assert _peak_bytes_per_frame(lambda: integrate(abs_traj.t[0], abs_traj.q[0], vo)) < 82


def test_fuse_trajectory(inputs):
    abs_traj, vo = inputs[2:]
    assert _peak_bytes_per_frame(lambda: fuse_trajectory(abs_traj, vo, PgoConfig())) < 101


def test_fuse_trajectory_spacing_10(inputs):
    abs_traj, vo = inputs[2:]
    cfg = PgoConfig(spacing_k=10)
    assert _peak_bytes_per_frame(lambda: fuse_trajectory(abs_traj, vo, cfg)) < 131


def test_fuse_trajectory_window_25(inputs):
    abs_traj, vo = inputs[2:]
    cfg = PgoConfig(window_T=25, spacing_k=10)
    assert _peak_bytes_per_frame(lambda: fuse_trajectory(abs_traj, vo, cfg)) < 131


def test_cli_fuse(inputs, tmp_path):
    argv = ["fuse", "--abs", str(inputs[0]), "--vo", str(inputs[1]),
            "--out", str(tmp_path / "fused.txt"), "--median-window", "51"]
    assert _peak_bytes_per_frame(lambda: main(argv)) < 259


def test_trajectory(inputs):
    abs_traj = inputs[2]
    ts, t, q = (a.copy() for a in (abs_traj.timestamps, abs_traj.t, abs_traj.q))
    assert _peak_bytes_per_frame(lambda: Trajectory(ts, t, q)) < 77


def test_trajectory_keeps_frozen_arrays(inputs):
    abs_traj = inputs[2]
    ts, t, q = abs_traj.timestamps, abs_traj.t, abs_traj.q
    assert _peak_bytes_per_frame(lambda: Trajectory(ts, t, q)) < 29


def test_temporal_median_filter(inputs):
    abs_traj = inputs[2]
    assert _peak_bytes_per_frame(lambda: temporal_median_filter(abs_traj, 51)) < 128


def test_corrupt_absolute(truth):
    assert _peak_bytes_per_frame(lambda: corrupt_absolute(*truth)) < 260


def test_corrupt_vo(truth):
    assert _peak_bytes_per_frame(lambda: corrupt_vo(*truth)) < 327


def test_compare(inputs, truth):
    assert _peak_bytes_per_frame(lambda: compare(inputs[2], truth[0])) < 125
