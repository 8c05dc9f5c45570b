"""End-to-end synthetic fusion experiment.

Generates a ground-truth loop, corrupts it into a noisy drift-free absolute
trajectory and a drifty VO chain, fuses the two with moving-window pose-graph
optimization, and prints an error table for every stage. Optionally applies
the temporal median filter on top.
"""

import argparse
import sys
import time

from posefusion.metrics import compare
from posefusion.pgo import PgoConfig, fuse_trajectory, temporal_median_filter
from posefusion.pose import Trajectory, integrate
from posefusion.sim import NoiseModel, corrupt_absolute, corrupt_vo, generate_trajectory


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", choices=["loop", "figure-eight", "random-walk"],
                        default="loop")
    parser.add_argument("--frames", type=int, default=1000)
    parser.add_argument("--step", type=float, default=0.1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--abs-t-sigma", type=float, default=0.5)
    parser.add_argument("--abs-r-sigma", type=float, default=5.0)
    parser.add_argument("--vo-t-sigma", type=float, default=0.01)
    parser.add_argument("--vo-r-sigma", type=float, default=0.1)
    parser.add_argument("--vo-t-bias", type=float, default=0.01)
    parser.add_argument("--window", type=int, default=7)
    parser.add_argument("--spacing", type=int, default=10)
    parser.add_argument("--median-window", type=int, default=None)
    args = parser.parse_args(argv)

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

    print(f"{args.shape}, {args.frames} frames, seed {args.seed}; "
          f"fuse took {elapsed:.3f} s (T={args.window}, k={args.spacing})")
    print(f"{'trajectory':<22} {'median t (m)':>12} {'mean t (m)':>12} "
          f"{'median r (deg)':>14} {'mean r (deg)':>13}")
    for name, traj in rows:
        rep = compare(traj, gt)
        print(f"{name:<22} {rep.median_t:>12.4f} {rep.mean_t:>12.4f} "
              f"{rep.median_r:>14.4f} {rep.mean_r:>13.4f}")

    fused_mean = compare(fused, gt).mean_t
    abs_mean = compare(abs_traj, gt).mean_t
    print(f"\nfused / absolute mean translation error: {fused_mean / abs_mean:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
