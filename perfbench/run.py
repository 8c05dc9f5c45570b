"""Benchmark of posefusion's simulate -> fuse -> eval pipeline.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload loop-k10 --seed 0 --seconds 40 --trace 0

With --trace 0 it drives the CLI (`python -m posefusion.cli`) as a user
would: a closed loop with one client, one child process at a time, each
iteration running simulate, fuse and eval on the same workload. fuse and
eval read inputs from the benchmark's own generator (inputs.py); simulate
writes into a separate directory. Every output is validated, and an
operation that exits non-zero or fails a check counts as failed. Timings
are medians over the iterations that fit in --seconds.

With --trace 1 it runs the same call sequence in-process through
`posefusion.cli.main`, once plain and once with spans around the public
functions of each module, and reports the per-layer split.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The line before it carries run
metadata and the sha256 of the generated inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

import inputs
import spans
import validate


@dataclass(frozen=True)
class Workload:
    frames: int
    spacing: int
    median_window: int | None


# Why each workload exists, and what it measured when sized, is in
# perfbench/README.md.
WORKLOADS = {
    "loop-k10": Workload(frames=4000, spacing=10, median_window=None),
    "loop-k150-median": Workload(frames=16000, spacing=150, median_window=51),
}
WINDOW_T = 7
# Each run cycles through this many input sets drawn from its seed. Fused
# rotation error on loop-k150-median is bimodal across inputs (a window at
# the 180-degree heading crossing either converges or flips), so a single
# input set per run cannot give a steady accuracy figure.
DATASETS = 3
# The whole run must end within 180 s; a child still running at this
# point after the start is killed and counted as failed.
DEADLINE_S = 165.0
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "simulate_s": "s", "fuse_s": "s", "eval_s": "s",
    "fuse_peak_rss_mb": "MB",
    "fused_mean_t_m": "m", "fused_median_t_m": "m",
    "fused_mean_r_deg": "deg", "fused_median_r_deg": "deg",
}
PER_LAYER_UNITS = {
    "pgo.gauss_newton_solve_s": "s", "pgo.build_window_graph_s": "s",
    "pgo.windows": "count", "pgo.gn_iterations": "count",
    "pgo.capped_windows": "count", "pgo.converged_ratio": "ratio",
    "pgo.fuse_trajectory_s": "s", "pgo.fuse_trajectory_self_s": "s",
    "pgo.temporal_median_filter_s": "s",
    "quat.calls": "count",
    "pose.integrate_s": "s", "pose.relative_pose_s": "s", "pose.relative_pose_calls": "count",
    "pose.compose_s": "s", "pose.compose_calls": "count",
    "trajio.read_trajectory_s": "s", "trajio.read_vo_s": "s",
    "trajio.write_trajectory_s": "s", "trajio.write_vo_s": "s",
    "trajio.bytes_read": "bytes", "trajio.bytes_written": "bytes",
    "metrics.compare_s": "s", "metrics.render_report_s": "s",
    "sim.generate_trajectory_s": "s", "sim.corrupt_absolute_s": "s", "sim.corrupt_vo_s": "s",
    "input.abs_mean_t_m": "m", "input.abs_mean_r_deg": "deg",
    "trace.overhead_ratio": "ratio",
}
# Per-layer metrics read from span totals: metric -> (span name, field).
SPAN_METRICS = {
    "pgo.gauss_newton_solve_s": ("pgo.gauss_newton_solve", "total_s"),
    "pgo.build_window_graph_s": ("pgo.build_window_graph", "total_s"),
    "pgo.fuse_trajectory_s": ("pgo.fuse_trajectory", "total_s"),
    "pgo.fuse_trajectory_self_s": ("pgo.fuse_trajectory", "self_s"),
    "pgo.temporal_median_filter_s": ("pgo.temporal_median_filter", "total_s"),
    "pose.integrate_s": ("pose.integrate", "total_s"),
    "pose.relative_pose_s": ("pose.relative_pose", "total_s"),
    "pose.relative_pose_calls": ("pose.relative_pose", "calls"),
    "pose.compose_s": ("pose.compose", "total_s"),
    "pose.compose_calls": ("pose.compose", "calls"),
    "trajio.read_trajectory_s": ("trajio.read_trajectory", "total_s"),
    "trajio.read_vo_s": ("trajio.read_vo", "total_s"),
    "trajio.write_trajectory_s": ("trajio.write_trajectory", "total_s"),
    "trajio.write_vo_s": ("trajio.write_vo", "total_s"),
    "metrics.compare_s": ("metrics.compare", "total_s"),
    "metrics.render_report_s": ("metrics.render_report", "total_s"),
    "sim.generate_trajectory_s": ("sim.generate_trajectory", "total_s"),
    "sim.corrupt_absolute_s": ("sim.corrupt_absolute", "total_s"),
    "sim.corrupt_vo_s": ("sim.corrupt_vo", "total_s"),
}


class Run:
    """Inputs, paths, deadline and failure tally of one benchmark run."""

    def __init__(self, root: str, workload: Workload, seed: int, work: str,
                 input_sets: int, parse_report):
        self.root = root
        self.wl = workload
        self.seed = seed
        self.parse_report = parse_report
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.in_dirs = [os.path.join(work, f"in{j}") for j in range(input_sets)]
        self.sim_dir = os.path.join(work, "sim")
        self.out_dir = os.path.join(work, "out")
        for d in (*self.in_dirs, self.sim_dir, self.out_dir):
            os.makedirs(d)
        self.sets = [inputs.make_inputs(workload.frames, seed, j) for j in range(input_sets)]
        self.sha256 = [inputs.write_inputs(inp, d) for inp, d in zip(self.sets, self.in_dirs)]
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def argv(self, dataset: int) -> dict[str, list[str]]:
        """CLI arguments of the three operations of one iteration."""
        wl = self.wl
        in_dir = self.in_dirs[dataset]
        fuse = ["fuse", "--abs", os.path.join(in_dir, inputs.ABS_FILE),
                "--vo", os.path.join(in_dir, inputs.VO_FILE),
                "--out", os.path.join(self.out_dir, "fused.txt"),
                "--window", str(WINDOW_T), "--spacing", str(wl.spacing)]
        if wl.median_window is not None:
            fuse += ["--median-window", str(wl.median_window)]
        return {
            "simulate": [
                "simulate", "--shape", "loop", "--frames", str(wl.frames),
                "--seed", str(self.seed), "--step", repr(inputs.STEP_M),
                "--abs-t-sigma", repr(inputs.ABS_T_SIGMA),
                "--abs-r-sigma", repr(inputs.ABS_R_SIGMA_DEG),
                "--vo-t-sigma", repr(inputs.VO_T_SIGMA),
                "--vo-r-sigma", repr(inputs.VO_R_SIGMA_DEG),
                "--vo-t-bias", repr(inputs.VO_T_BIAS),
                "--out-gt", os.path.join(self.sim_dir, "gt.txt"),
                "--out-abs", os.path.join(self.sim_dir, "abs.txt"),
                "--out-vo", os.path.join(self.sim_dir, "vo.txt")],
            "fuse": fuse,
            "eval": ["eval", "--est", os.path.join(self.out_dir, "fused.txt"),
                     "--gt", os.path.join(in_dir, inputs.GT_FILE),
                     "--out-report", os.path.join(self.out_dir, "report.txt")],
        }

    def clear_outputs(self) -> None:
        for d in (self.sim_dir, self.out_dir):
            for name in os.listdir(d):
                os.remove(os.path.join(d, name))

    def record(self, op: str, ok: bool, problems: list[str]) -> None:
        """Count one operation; print why it failed, if it did."""
        self.attempted += 1
        if not ok or problems:
            self.failed += 1
            for p in problems or ["exited non-zero"]:
                print(f"FAILED {op}: {p}", file=sys.stderr)

    def check(self, op: str, dataset: int):
        """Validate what op wrote. Returns (problems, parsed report or None)."""
        n = self.wl.frames
        inp = self.sets[dataset]
        fused = os.path.join(self.out_dir, "fused.txt")
        if op == "simulate":
            return validate.check_line_counts({
                os.path.join(self.sim_dir, "gt.txt"): n,
                os.path.join(self.sim_dir, "abs.txt"): n,
                os.path.join(self.sim_dir, "vo.txt"): n - 1}), None
        if op == "fuse":
            return validate.check_trajectory(fused, inp.timestamps.tolist()), None
        problems, report = validate.check_report(
            os.path.join(self.out_dir, "report.txt"), n, self.parse_report)
        if report is not None:
            problems += validate.check_errors(report, fused, inp.gt_t, inp.gt_q)
        return problems, (report if not problems else None)


# Runs `python -m posefusion.cli` and then writes the peak RSS of this
# process image (VmHWM, in kB) to the file named by PERFBENCH_HWM_FILE.
# ru_maxrss from wait4 cannot be used: on Linux it also counts the parent's
# memory, which the child shares between fork and exec.
CLI_CHILD = """
import os, runpy
try:
    runpy.run_module("posefusion.cli", run_name="__main__", alter_sys=True)
finally:
    try:
        with open("/proc/self/status") as src, open(os.environ["PERFBENCH_HWM_FILE"], "w") as dst:
            dst.write(next(line for line in src if line.startswith("VmHWM:")).split()[1])
    except OSError:
        pass
"""


def run_child(run: Run, argv: list[str], log_path: str, env: dict[str, str]) -> tuple[int, float]:
    """Run one child to completion; return (exit code, wall seconds).

    A child still running at the run's deadline is killed.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=run.root)

    def _kill(signum, frame):
        if proc.returncode is None:
            os.kill(proc.pid, signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, _kill)
    signal.setitimer(signal.ITIMER_REAL, max(1.0, DEADLINE_S - run.elapsed()))
    try:
        code = proc.wait()
    except BaseException:  # interrupted or terminated: do not leave the child behind
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    if code != 0:
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            sys.stderr.write(fh.read()[-2000:])
    return code, wall


def run_cli(run: Run, op: str, args: list[str]) -> tuple[int, float, float | None]:
    """One `python -m posefusion.cli` operation: (exit code, wall s, peak RSS MB)."""
    hwm_file = os.path.join(run.out_dir, f"{op}.hwm")
    env = {**run.env, "PERFBENCH_HWM_FILE": hwm_file}
    code, wall = run_child(run, [sys.executable, "-c", CLI_CHILD, *args],
                           os.path.join(run.out_dir, f"{op}.log"), env)
    try:
        with open(hwm_file, encoding="utf-8") as fh:
            rss = int(fh.read()) / 1024.0
    except (OSError, ValueError):
        rss = None
    return code, wall, rss


def time_import(run: Run) -> float:
    """Wall time of a fresh interpreter running `import posefusion.cli`."""
    argv = [sys.executable, "-c", "import posefusion.cli"]
    code, wall = run_child(run, argv, os.path.join(run.out_dir, "setup.log"), run.env)
    if code != 0:
        run.record("setup", False, [])
    return wall


def end_to_end(run: Run, seconds: float):
    """Closed loop of CLI iterations; returns (metrics, raw samples).

    Iteration i runs on input set i % DATASETS, and the loop runs at least
    once over every set. Timings are medians over iterations; accuracy is
    the mean over input sets of each eval report figure. An import is timed
    before every operation, so that setup_s samples the whole run rather
    than one moment of it.
    """
    time_import(run)  # warms the file cache; not a sample
    samples = {"setup_s": [], "simulate_s": [], "fuse_s": [], "eval_s": [],
               "fuse_peak_rss_mb": []}
    reports = {}
    loop_start = time.perf_counter()
    while len(samples["fuse_s"]) < DATASETS or time.perf_counter() - loop_start < seconds:
        iteration_start = time.perf_counter()
        dataset = len(samples["fuse_s"]) % DATASETS
        run.clear_outputs()
        for op, args in run.argv(dataset).items():
            samples["setup_s"].append(time_import(run))
            code, wall, rss = run_cli(run, op, args)
            problems, parsed = run.check(op, dataset) if code == 0 else ([], None)
            run.record(op, code == 0, problems)
            samples[f"{op}_s"].append(wall)
            if op == "fuse" and rss is not None:
                samples["fuse_peak_rss_mb"].append(rss)
            if parsed is not None:
                reports[dataset] = parsed
        if run.elapsed() + (time.perf_counter() - iteration_start) > DEADLINE_S:
            break
    values = {name: statistics.median(v) if v else None for name, v in samples.items()}
    if len(reports) == DATASETS:
        for name, field in (("fused_mean_t_m", "mean_t"), ("fused_median_t_m", "median_t"),
                            ("fused_mean_r_deg", "mean_r"), ("fused_median_r_deg", "median_r")):
            values[name] = statistics.fmean(getattr(r, field) for r in reports.values())
    return values, samples


def install_tracing(tracer: spans.Tracer, fusion_stats: list) -> None:
    """Spans around each layer's public functions, patched from outside.

    pgo binds integrate, relative_pose and compose by name at import, so
    those are patched in pgo as well as in pose. sim's own relative_pose
    binding is left alone: its calls count as sim time, not pose time.
    """
    from posefusion import metrics as pf_metrics
    from posefusion import pgo, pose, quat, sim, trajio

    for attr in ("integrate", "relative_pose", "compose"):
        tracer.trace(f"pose.{attr}", pose, attr, also_in=(pgo,))
    for attr in ("build_window_graph", "gauss_newton_solve", "temporal_median_filter"):
        tracer.trace(f"pgo.{attr}", pgo, attr)
    for attr in ("generate_trajectory", "corrupt_absolute", "corrupt_vo"):
        tracer.trace(f"sim.{attr}", sim, attr)
    for attr in ("compare", "render_report"):
        tracer.trace(f"metrics.{attr}", pf_metrics, attr)
    for attr in ("read_trajectory", "read_vo", "write_trajectory", "write_vo"):
        if tracer.trace(f"trajio.{attr}", trajio, attr):
            key = "trajio.bytes_read" if attr.startswith("read") else "trajio.bytes_written"
            tracer.patch(trajio, attr, _count_bytes(tracer, key, getattr(trajio, attr)))

    # fuse_trajectory reports GN iterations per window through the public
    # FusionStats; ask for them when the caller did not.
    fuse, stats_cls = getattr(pgo, "fuse_trajectory", None), getattr(pgo, "FusionStats", None)
    if (fuse is not None and stats_cls is not None
            and "stats" in inspect.signature(fuse).parameters):
        def fuse_with_stats(abs_traj, vo, cfg, **kwargs):
            if kwargs.get("stats") is None:
                kwargs["stats"] = stats_cls()
            fusion_stats.append((kwargs["stats"], cfg))
            return fuse(abs_traj, vo, cfg, **kwargs)
        tracer.patch(pgo, "fuse_trajectory", fuse_with_stats)
    else:
        tracer.absent.append("pgo.FusionStats")
    tracer.trace("pgo.fuse_trajectory", pgo, "fuse_trajectory")
    tracer.count_module("quat.calls", quat)


def _count_bytes(tracer: spans.Tracer, key: str, fn):
    """Add the size of the file named by the last positional argument."""
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        path = kwargs.get("path", args[-1] if args else None)
        if isinstance(path, (str, os.PathLike)):
            tracer.counts[key] += os.path.getsize(path)
        return out
    return wrapper


def run_in_process(run: Run) -> float:
    """One simulate/fuse/eval sequence through posefusion.cli.main.

    Returns the seconds spent inside cli.main; validation is not timed.
    """
    from posefusion import cli

    run.clear_outputs()
    wall = 0.0
    for op, args in run.argv(0).items():
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(args)
        wall += time.perf_counter() - start
        problems, _ = run.check(op, 0) if code == 0 else ([], None)
        run.record(op, code == 0, problems)
    return wall


def per_layer(run: Run, seconds: float):
    """Pairs of plain and traced in-process passes on input set 0.

    Which pass of a pair goes first alternates from pair to pair.
    Each per-layer metric is the median over the traced passes;
    trace.overhead_ratio is the median of traced / plain wall time per pair.
    """
    passes: list[dict[str, float | None]] = []
    ratios = []
    absent: list[str] = []
    loop_start = time.perf_counter()
    while not passes or time.perf_counter() - loop_start < seconds:
        pair_start = time.perf_counter()
        walls = {}
        for traced in ((True, False) if len(passes) % 2 else (False, True)):
            if not traced:
                walls[traced] = run_in_process(run)
                continue
            fusion_stats: list = []
            with spans.Tracer() as tracer:
                install_tracing(tracer, fusion_stats)
                walls[traced] = run_in_process(run)
            passes.append(layer_metrics(tracer, fusion_stats))
            absent = tracer.absent
        ratios.append(walls[True] / walls[False])
        if run.elapsed() + (time.perf_counter() - pair_start) > DEADLINE_S:
            break
    values = {name: _median_or_none([p.get(name) for p in passes], PER_LAYER_UNITS[name])
              for name in PER_LAYER_UNITS}
    inp = run.sets[0]
    values["input.abs_mean_t_m"] = float(np.mean(np.linalg.norm(inp.abs_t - inp.gt_t, axis=1)))
    values["input.abs_mean_r_deg"] = float(np.mean(inputs.rotation_error_deg(inp.abs_q, inp.gt_q)))
    values["trace.overhead_ratio"] = statistics.median(ratios)
    return values, {"overhead_ratios": ratios, "absent": absent, "traced_passes": len(passes)}


def _median_or_none(values, unit: str):
    """Median of the values present; a count stays a whole number."""
    present = [v for v in values if v is not None]
    if not present:
        return None
    return statistics.median_low(present) if unit == "count" else statistics.median(present)


def layer_metrics(tracer: spans.Tracer, fusion_stats: list) -> dict[str, float | None]:
    """Per-layer metrics of one traced pass; None for a name the program lacks."""
    summary = tracer.summary()
    out: dict[str, float | None] = {}
    for name, (span, field) in SPAN_METRICS.items():
        if span in tracer.absent:
            out[name] = None
        else:  # a function that exists but was not called on this workload reads 0
            out[name] = summary.get(span, {}).get(field, 0)
    for name in ("quat.calls", "trajio.bytes_read", "trajio.bytes_written"):
        out[name] = None if name in tracer.absent else tracer.counts[name]
    iterations, capped = [], 0
    for stats, cfg in fusion_stats:
        iterations += stats.window_iterations
        capped += sum(it >= cfg.max_iters for it in stats.window_iterations)
    if iterations:
        out["pgo.windows"] = len(iterations)
        out["pgo.gn_iterations"] = sum(iterations)
        out["pgo.capped_windows"] = capped
        out["pgo.converged_ratio"] = (len(iterations) - capped) / len(iterations)
    return out


def git_commit(root: str) -> str | None:
    """HEAD of the checkout's .git directory, if there is one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def metadata(root: str, sha: list[str], args, extra: dict) -> dict:
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs_sha256": sha, "git_commit": git_commit(root),
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        **extra,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description="posefusion pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so children are killed and .bench_work removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "posefusion", "cli.py")):
        print(f"no posefusion source under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from posefusion import metrics as pf_metrics
    if os.path.dirname(os.path.dirname(os.path.abspath(pf_metrics.__file__))) != src:
        print(f"posefusion imported from {pf_metrics.__file__}, not {src}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    work_root = os.path.join(root, ".bench_work")
    work = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        run = Run(root, wl, args.seed, work, 1 if args.trace else DATASETS,
                  pf_metrics.parse_report)
        if args.trace:
            values, extra = per_layer(run, args.seconds)
            units = PER_LAYER_UNITS
        else:
            values, samples = end_to_end(run, args.seconds)
            extra = {"samples": samples}
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)

    for name, unit in units.items():
        print(f"{name} = {values.get(name)} {unit}")
    failed_ratio = run.failed / run.attempted if run.attempted else None
    print(f"failed_ratio = {failed_ratio} ({run.failed} of {run.attempted} operations)")
    print(json.dumps({"meta": metadata(root, run.sha256, args, extra)}))
    result = {
        "correct": run.failed == 0 and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
