#!/usr/bin/env python3
"""Run the three simulation studies at desk scale and write plot-ready CSVs.

Outputs one reproduction bundle (CSV + resolved config + manifest) per study:
  <out>/sample-paths/     three runs from random initial points, one channel
  <out>/hitting-time/     mean-magnitude hitting time vs n_s, alpha sweep
  <out>/avg-convergence/  mean first-passage time vs n_s, alpha sweep
"""

import argparse
import sys

from distbeam.cli import parse_and_dispatch


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--trials", type=int, default=100)
    args = ap.parse_args()

    grid = ",".join(str(n) for n in range(10, 101, 10))
    common = ["--seed", str(args.seed)]
    jobs = [
        ["sample-path", "--n-s", "10", "--delta0", "pi/30", "--trials", "3",
         "--init-mode", "uniform", "--channel-policy", "fixed-across-trials",
         "--horizon", "6000", "--out", f"{args.out}/sample-paths"],
        ["hitting-time", "--n-s", grid, "--alpha", "0.5,0.7,0.9",
         "--delta0", "pi/90", "--trials", str(args.trials),
         "--out", f"{args.out}/hitting-time"],
        ["avg-convergence", "--n-s", grid, "--alpha", "0.5,0.7,0.9",
         "--delta0", "pi/90", "--trials", str(args.trials),
         "--out", f"{args.out}/avg-convergence"],
    ]
    status = 0
    for argv in jobs:
        print("$ distbeam " + " ".join(argv + common))
        status = max(status, parse_and_dispatch(argv + common))
    return status


if __name__ == "__main__":
    sys.exit(main())
