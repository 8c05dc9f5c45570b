"""End-to-end synthetic fusion experiment.

Generates a ground-truth loop, corrupts it into a noisy drift-free absolute
trajectory and a drifty VO chain, fuses the two with moving-window pose-graph
optimization, and prints an error table for every stage. Optionally applies
the temporal median filter on top.
"""

import argparse
import sys
import time

import numpy as np

from posefusion.cli import DATA_ERROR, NUMERICAL_ERROR
from posefusion.metrics import compare
from posefusion.pgo import PgoConfig, RankDeficientError, fuse_trajectory, temporal_median_filter
from posefusion.pose import Trajectory, integrate
from posefusion.sim import (SHAPES, NoiseModel, corrupt_absolute, corrupt_vo,
                            generate_trajectory)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", choices=SHAPES, default="loop")
    parser.add_argument("--frames", type=int, default=1000)
    parser.add_argument("--step", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--abs-t-sigma", type=float, default=0.5)
    parser.add_argument("--abs-r-sigma", type=float, default=5.0)
    parser.add_argument("--vo-t-sigma", type=float, default=0.01)
    parser.add_argument("--vo-r-sigma", type=float, default=0.1)
    parser.add_argument("--vo-t-bias", type=float, default=0.01)
    parser.add_argument("--window", type=int, default=PgoConfig.window_T)
    parser.add_argument("--spacing", type=int, default=10)
    parser.add_argument("--median-window", type=int, default=None)
    args = parser.parse_args(argv)
    if args.median_window is not None and (args.median_window < 1 or args.median_window % 2 == 0):
        parser.error("--median-window must be odd and >= 1")

    # an option out of range (too few or too many frames, a window below 2,
    # ...) is a usage error
    try:
        gt = generate_trajectory(args.shape, args.frames, args.step, seed=args.seed)
        nm = NoiseModel(abs_t_sigma=args.abs_t_sigma, abs_r_sigma=args.abs_r_sigma,
                        vo_t_sigma=args.vo_t_sigma, vo_r_sigma=args.vo_r_sigma,
                        vo_t_bias=args.vo_t_bias, seed=args.seed)
        abs_traj = corrupt_absolute(gt, nm)
        vo = corrupt_vo(gt, nm)
        vo_traj = Trajectory(gt.timestamps, *integrate(abs_traj.t[0], abs_traj.q[0], vo))

        cfg = PgoConfig(window_T=args.window, spacing_k=args.spacing)
        start = time.perf_counter()
        fused = fuse_trajectory(abs_traj, vo, cfg)
        elapsed = time.perf_counter() - start

        rows = [("absolute (noisy)", abs_traj),
                ("VO (integrated)", vo_traj),
                ("fused", fused)]
        if args.median_window is not None:
            rows.append((f"fused + median {args.median_window}",
                         temporal_median_filter(fused, args.median_window)))
    # a non-finite solver step (a ValueError) and a rank-deficient window
    # exit as posefusion fuse does
    except (np.linalg.LinAlgError, RankDeficientError) as exc:
        print(f"{parser.prog}: {exc}", file=sys.stderr)
        return NUMERICAL_ERROR if isinstance(exc, RankDeficientError) else DATA_ERROR
    except (MemoryError, ValueError) as exc:  # MemoryError: too many --frames
        parser.error(str(exc))

    print(f"{args.shape}, {args.frames} frames, seed {args.seed}; "
          f"fuse took {elapsed:.3f} s (T={args.window}, k={args.spacing})")
    print(f"{'trajectory':<22} {'median t (m)':>12} {'mean t (m)':>12} "
          f"{'median r (deg)':>14} {'mean r (deg)':>13}")
    for name, traj in rows:
        rep = compare(traj, gt)
        print(f"{name:<22} {rep.median_t:>12.4f} {rep.mean_t:>12.4f} "
              f"{rep.median_r:>14.4f} {rep.mean_r:>13.4f}")

    abs_mean = compare(abs_traj, gt).mean_t
    if abs_mean > 0:  # no ratio to noiseless absolute poses
        print(f"\nfused / absolute mean translation error: "
              f"{compare(fused, gt).mean_t / abs_mean:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
