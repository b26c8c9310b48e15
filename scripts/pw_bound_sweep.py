#!/usr/bin/env python3
"""Sweep the per-block stability bound over random piecewise-constant pairs
and mesh resolutions, recording the worst ratio lhs/rhs per m.

The ratio stays below 1 up to solver tolerance because the discrete problem
satisfies the same inequality as the continuum one.
Each row is one sweep_pw_bound report: its worst ratio, its slack
1 + SLACK_COEF/m and its pass flag; the script exits 1 when any row fails.

With the defaults (2x2 blocks, 25 trials, seed 0) the worst ratio settles
well inside the slack as m grows:

    m             16      32      64      128     256     512
    worst ratio   0.6835  0.6923  0.6944  0.6948  0.6949  0.6949
    1 + 5/m       1.3125  1.1562  1.0781  1.0391  1.0195  1.0098

Usage:
    python scripts/pw_bound_sweep.py --trials 25 --out ratios.csv
"""

import argparse

from coeffid.grids import CoefficientBounds
from coeffid.pw2d import Partition2D, sweep_pw_bound


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--nx", type=int, default=2)
    ap.add_argument("--ny", type=int, default=2)
    ap.add_argument("--out", type=str, default=None)
    args = ap.parse_args()
    if args.trials < 1:
        ap.error("--trials must be at least 1")

    part = Partition2D(args.nx, args.ny)
    bounds = CoefficientBounds(0.5, 2.0)
    rows = []
    all_passed = True
    for m in (16, 32, 64, 128, 256, 512):
        rep = sweep_pw_bound(part, 1.0, m, bounds, args.trials, args.seed)
        worst, slack = rep.metrics["worst_ratio"], rep.metrics["slack"]
        rows.append((m, worst, slack))
        all_passed = all_passed and rep.passed
        print(f"m={m:4d}  worst ratio {worst:.4f}  slack {slack:.4f}  "
              f"{'ok' if rep.passed else 'FAIL'}")

    if args.out:
        with open(args.out, "w") as fh:
            fh.write("m,worst_ratio,slack\n")
            for m, worst, slack in rows:
                fh.write(f"{m},{worst:.17g},{slack:.17g}\n")
        print(f"wrote {args.out}")
    return 0 if all_passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
