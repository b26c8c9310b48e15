#!/usr/bin/env python3
"""Measure multiscale stability rates over a grid of (alpha_d, beta_d, p).

For each configuration the script fits the log-log slope of the coefficient
gap against the energy gap and compares it with the predicted rate
gamma = (1/p - beta_d)/(alpha_d - 1/2 - beta_d). Large alpha_d demonstrates
arbitrarily small rates.

Usage:
    python scripts/dyadic_rates.py --n 65536 --jmin 4 --jmax 10
"""

import argparse

from coeffid.stability import DyadicFamily, dyadic_rate


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2**16)
    ap.add_argument("--jmin", type=int, default=4)
    ap.add_argument("--jmax", type=int, default=10)
    args = ap.parse_args()

    configs = [
        (2.0, 0.0, 1.0),
        (1.0, 0.0, 1.0),
        (4.0, 0.0, 2.0),
        (3.0, -0.5, 1.0),
        (6.0, 0.0, 2.0),
    ]
    print(f"{'alpha_d':>8} {'beta_d':>7} {'p':>4} {'gamma':>9} {'slope':>9} {'dev':>8}")
    for alpha_d, beta_d, p in configs:
        fam = DyadicFamily(alpha_d=alpha_d, beta_d=beta_d)
        rep = dyadic_rate(fam, p, range(args.jmin, args.jmax + 1), args.n)
        print(
            f"{alpha_d:8.2f} {beta_d:7.2f} {p:4.1f} "
            f"{rep.metrics['gamma']:9.4f} {rep.metrics['slope']:9.4f} "
            f"{rep.metrics['rel_deviation']:7.2%}"
        )


if __name__ == "__main__":
    main()
