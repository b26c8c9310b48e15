#!/usr/bin/env python3
"""Check coeffid.text, the renderer of every float in the reports and CSV
files, against CPython's "%.17g" on a sweep of doubles.

The sweep holds N random bit patterns (the finite ones), every power of ten
from 1e-323 to 1e308 with both neighbours, subnormals, +-0, the integers
near 2^53, odd * 2^-s values whose 17-digit rounding is an exact tie, doubles
within 1e-15 of such a tie, and np.linspace(0, 1, 65537). Each value must render to the bytes of
"%.17g" % v, in a ", "-joined array, in two-column CSV rows and in the
", "-joined text that text.csv returns for each column. The script
prints the number of values and of uncertified ones (formatted by "%.17g"
itself) and exits 1 on any mismatch. The reference is the "%.17g" of the
Python that runs it.

Usage:
    PYTHONPATH=src python scripts/float_text_sweep.py --random 1000000
"""

import argparse
import sys

import numpy as np

from coeffid import text


# doubles whose 17-digit scaled value lies within 1e-15 of a half-integer
# without being one (found by a lattice search over binary and decimal
# exponents): the double-double scaling rounds each of them the wrong way, so
# the kernel must leave them uncertified and format them by "%.17g"
NEAR_TIES = tuple(float.fromhex(h) for h in (
    "0x1.a999ddec72acap+599", "0x1.90529a37b7e22p+924", "0x1.1b96458445d07p-346",
    "0x1.f20399a0ecbc2p+391", "0x1.43c9879f1e128p-488", "0x1.ca3d5805b5046p-790",
    "0x1.578e44a736f77p+203", "0x1.9c66a51210441p-813", "0x1.46ccc8929990dp+320",
    "0x1.ac64a6da0eaf8p+576", "0x1.0384c86fa4263p+531", "0x1.865dab811736fp+856",
    "0x1.fc7b7a9fa7532p+949", "0x1.b537e5a55ab09p+458", "0x1.4d5e8d072ca3ap+437",
    "0x1.e6ff3f9d280dep-858", "0x1.37b07123fa1f6p-650", "0x1.e7946db147f48p-858",
    "0x1.368c7f399747bp+251", "0x1.29fb9de1be2ecp+322", "0x1.b4a1732a82727p-440",
    "0x1.ec8b19fabc306p+693", "0x1.873fa4720db8bp-207", "0x1.fddbde365aa32p-370",
))


def exact_ties(rng: np.random.Generator, per_scale: int = 500) -> np.ndarray:
    """Doubles odd * 2^-s whose exact decimal, odd * 5^s / 10^s, has 18
    significant digits ending in 5, so rounding it to 17 is a tie. Such
    doubles exist for s = 2..25 (3e-8 < x < 1e17); below 1e-6 they take the
    inexact scaling."""
    ties = []
    for s in range(2, 26):
        lo, hi = -(-10**17 // 5**s), min(10**18 // 5**s, 2**53)
        odd = 2 * rng.integers(lo // 2, (hi - 2) // 2, per_scale, endpoint=True) + 1
        ties.append(odd * 2.0 ** -s)
    return np.concatenate(ties)


def sweep_values(n_random: int, seed: int = 0) -> dict:
    """The sweep's named groups of float64 values."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=n_random, dtype=np.uint64, endpoint=False)
    random = bits.view(np.float64)
    powers = np.array([float(f"1e{j}") for j in range(-323, 309)])
    subnormal = rng.integers(1, 2**52, size=2000, dtype=np.uint64).view(np.float64)
    near_2_53 = 2.0**53 + np.arange(-64, 65, dtype=np.float64)
    ties = exact_ties(rng)
    return {
        "random bit patterns": random[np.isfinite(random)],
        "powers of ten and neighbours": np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]),
        "subnormals": np.concatenate([subnormal, [5e-324, 2.225073858507201e-308]]),
        "zeros": np.array([0.0, -0.0]),
        "integers near 2^53": np.concatenate([near_2_53, -near_2_53]),
        "exact 17-digit ties": np.concatenate([ties, -ties]),
        "near 17-digit ties": np.array(NEAR_TIES + tuple(-x for x in NEAR_TIES)),
        "linspace(0, 1, 65537)": np.linspace(0.0, 1.0, 65537),
    }


def uncertified(values: np.ndarray) -> int:
    """How many values the kernel cannot certify and formats per element."""
    a = np.abs(values[np.isfinite(values) & (values != 0)])
    return int(np.count_nonzero(~text._decimal(a)[2]))


def drain(gen) -> tuple:
    """The chunks a generator yields, joined, and the value it returns."""
    chunks = []
    while True:
        try:
            chunks.append(next(gen))
        except StopIteration as stop:
            return b"".join(chunks), stop.value


def mismatches(values: np.ndarray) -> list:
    """Values whose rendering differs from "%.17g", alone, joined by ", " or
    in CSV rows beside the reversed column, and a note for each joined text
    of the CSV pass that differs."""
    ref = [b"%.17g" % v for v in values.tolist()]
    got = text.join(values).split(b", ")
    bad = [v for v, g, r in zip(values.tolist(), got, ref) if g != r]
    if len(got) != len(ref):
        bad.append("joined length")
    rows, joined = drain(text.csv([values, values[::-1]], end=b"\r\n", joined=[0, 1]))
    if rows != b"".join(b"%s,%s\r\n" % pair for pair in zip(ref, ref[::-1])):
        bad.append("csv rows")
    if joined != [b", ".join(ref), b", ".join(ref[::-1])]:
        bad.append("csv joined text")
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--random", type=int, default=100_000, help="random bit patterns")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    failed = False
    for name, values in sweep_values(args.random, args.seed).items():
        bad = mismatches(values)
        print(f"{name}: {values.size} values, {uncertified(values)} uncertified, "
              f"{len(bad)} mismatches {bad[:5]}")
        failed |= bool(bad)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
