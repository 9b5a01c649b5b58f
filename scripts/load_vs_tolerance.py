#!/usr/bin/env python3
"""Sweep the maximum tolerance of the nested scheme and report how the mean
per-worker computation load and the latency quantiles respond.

A fixed-tolerance code always computes sigma + 1 tasks per worker; the nested
scheme only pays for the stragglers that actually occur, so its mean load
stays well below s_max + 1 while the latency keeps improving.
"""
import argparse
import sys

import numpy as np

from ngcodes.latency import ClusterParams, Scheme
from ngcodes.simulator import run_experiment


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=20_000)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--pe", type=float, default=0.0)
    args = parser.parse_args(argv)

    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=args.pe, n=8)
    grid = np.linspace(2.0, 18.0, 200)
    print(f"n=8, lambda={p.lam}, rho={p.rho}, eps={p.eps}, p_e={p.p_e}, "
          f"{args.trials} trials per row")
    print(f"{'s_max':>5} {'fixed load':>10} {'mean load':>10} {'p95 load':>9} "
          f"{'median T':>9} {'p90 T':>9} {'undecodable':>11}")
    for s_max in range(8):
        result = run_experiment(Scheme("ngc", s_max), args.trials, args.seed, p, grid)
        values = result.curve.values
        median = grid[np.searchsorted(values, 0.5)] if values[-1] >= 0.5 else float("inf")
        p90 = grid[np.searchsorted(values, 0.9)] if values[-1] >= 0.9 else float("inf")
        print(f"{s_max:>5} {s_max + 1:>10} {result.mean_load:>10.3f} "
              f"{result.p95_load:>9.1f} {median:>9.2f} {p90:>9.2f} "
              f"{result.undecodable / args.trials:>11.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
