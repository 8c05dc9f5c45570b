"""Command-line pipeline: simulate -> fuse -> eval.

Exit codes: 0 success, 2 usage error, 3 data error, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from . import metrics, pgo, sim, trajio

USAGE_ERROR = 2
DATA_ERROR = 3
NUMERICAL_ERROR = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="posefusion",
        description="Fuse noisy drift-free absolute poses with drifty VO.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate synthetic ground truth and sensor files")
    p_sim.add_argument("--shape", choices=sim.SHAPES, default="loop")
    p_sim.add_argument("--frames", type=int, default=1000)
    p_sim.add_argument("--step", type=float, default=0.1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--abs-t-sigma", type=float, default=0.0)
    p_sim.add_argument("--abs-r-sigma", type=float, default=0.0)
    p_sim.add_argument("--vo-t-sigma", type=float, default=0.0)
    p_sim.add_argument("--vo-r-sigma", type=float, default=0.0)
    p_sim.add_argument("--vo-t-bias", type=float, default=0.0)
    p_sim.add_argument("--out-gt", required=True)
    p_sim.add_argument("--out-abs", required=True)
    p_sim.add_argument("--out-vo", required=True)

    p_fuse = sub.add_parser("fuse", help="refine an absolute trajectory with VO")
    p_fuse.add_argument("--abs", required=True, dest="abs_path")
    p_fuse.add_argument("--vo", required=True)
    p_fuse.add_argument("--out", required=True)
    p_fuse.add_argument("--window", type=int, default=pgo.PgoConfig.window_T)
    p_fuse.add_argument("--spacing", type=int, default=pgo.PgoConfig.spacing_k)
    p_fuse.add_argument("--median-window", type=int, nargs="?", const=51, default=None)

    p_eval = sub.add_parser("eval", help="compare an estimate against ground truth")
    p_eval.add_argument("--est", required=True)
    p_eval.add_argument("--gt", required=True)
    p_eval.add_argument("--out-report", required=True)

    return parser


def _check_outputs(outputs: dict, inputs: dict) -> None:
    """Raise ArgumentError where an output path names another output's or an
    input's file (the same file, or where one is missing the same resolved
    path), and the OSError open(path, "w") would on a directory or a missing
    parent; called first, so a bad output path costs no work and no file."""
    named = [*outputs.items(), *inputs.items()]
    for (option, out), (other, path) in itertools.combinations(named, 2):
        try:
            same = os.path.samefile(out, path)
        except OSError:  # one of them does not exist yet
            same = os.path.realpath(out) == os.path.realpath(path)
        if same and option in outputs:
            raise argparse.ArgumentError(None, f"{option} and {other} name the same file: {out}")
    for path in outputs.values():
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            open(path, "w")  # fails there, before it could create a file


def _cmd_simulate(args) -> int:
    outputs = {"--out-gt": args.out_gt, "--out-abs": args.out_abs, "--out-vo": args.out_vo}
    _check_outputs(outputs, {})
    # every option is checked, and every output built, before the first file is written
    try:
        nm = sim.NoiseModel(abs_t_sigma=args.abs_t_sigma, abs_r_sigma=args.abs_r_sigma,
                            vo_t_sigma=args.vo_t_sigma, vo_r_sigma=args.vo_r_sigma,
                            vo_t_bias=args.vo_t_bias, seed=args.seed)
        gt = sim.generate_trajectory(args.shape, args.frames, args.step, seed=args.seed)
        abs_traj, vo = sim.corrupt_absolute(gt, nm), sim.corrupt_vo(gt, nm)
    except (MemoryError, ValueError) as exc:  # MemoryError: too many --frames
        print(f"simulate: {exc}", file=sys.stderr)
        return USAGE_ERROR
    trajio.write_trajectory(gt, args.out_gt)
    trajio.write_trajectory(abs_traj, args.out_abs)
    trajio.write_vo(vo, args.out_vo)
    return 0


def _cmd_fuse(args) -> int:
    _check_outputs({"--out": args.out}, {"--abs": args.abs_path, "--vo": args.vo})
    if args.median_window is not None and (args.median_window < 1 or args.median_window % 2 == 0):
        print("fuse: --median-window must be odd and >= 1", file=sys.stderr)
        return USAGE_ERROR
    try:
        cfg = pgo.PgoConfig(window_T=args.window, spacing_k=args.spacing)
    except ValueError as exc:
        print(f"fuse: {exc}", file=sys.stderr)
        return USAGE_ERROR
    abs_traj = trajio.read_trajectory(args.abs_path)
    if len(abs_traj) < 2:  # before the VO file is read against its timestamps
        print(f"fuse: {args.abs_path}: {len(abs_traj)} poses, need at least 2 to fuse",
              file=sys.stderr)
        return DATA_ERROR
    vo = trajio.read_vo(args.vo, timestamps=abs_traj.timestamps[1:])
    stats = pgo.FusionStats()
    fused = pgo.fuse_trajectory(abs_traj, vo, cfg, stats=stats)
    capped = stats.window_converged.count(False)
    if capped:
        print(f"fuse: {capped} of {len(stats.window_converged)} windows stopped at "
              f"{cfg.max_iters} steps without converging", file=sys.stderr)
    del abs_traj, vo  # the median filter and the write read only fused
    if args.median_window is not None:
        fused = pgo.temporal_median_filter(fused, args.median_window)
    trajio.write_trajectory(fused, args.out)
    return 0


def _cmd_eval(args) -> int:
    _check_outputs({"--out-report": args.out_report}, {"--est": args.est, "--gt": args.gt})
    est = trajio.read_trajectory(args.est)
    gt = trajio.read_trajectory(args.gt)
    report = metrics.compare(est, gt)
    with open(args.out_report, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(metrics.render_report(report))
    print(f"median {report.median_t:.4f} m / {report.median_r:.4f} deg, "
          f"mean {report.mean_t:.4f} m / {report.mean_r:.4f} deg")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {"simulate": _cmd_simulate, "fuse": _cmd_fuse, "eval": _cmd_eval}[args.command]
    try:
        return handler(args)
    except argparse.ArgumentError as exc:  # paths that one command cannot use together
        print(f"{args.command}: {exc}", file=sys.stderr)
        return USAGE_ERROR
    # OSError: a missing, unreadable or directory path; ValueError:
    # TrajectoryFormatError among them
    except (OSError, ValueError) as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return DATA_ERROR
    except pgo.RankDeficientError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
