"""Discrete geometric-measure utilities: total variation, level-set
perimeter, the coarea identity, and selection of good levels.

All operations act on the piecewise-linear interpolant of a grid function,
for which total variation, perimeters of superlevel sets E_t = {h > t}, and
the coarea integral int P(E_t) dt are all computable exactly: P(E_t) is
piecewise constant in t between nodal values, so event-driven integration
over the sorted nodal values reproduces the integral to rounding. Band
perimeters are counted over sorted cell endpoints, in O(n log n) overall.
"""

from __future__ import annotations

import math

import numpy as np

from .grids import GridFunction1D
from .report import ExperimentReport

__all__ = [
    "total_variation",
    "level_perimeter",
    "coarea_integral",
    "coarea_check",
    "good_levels",
]

LEVEL_FLOOR = 1e-9


def total_variation(h: GridFunction1D) -> float:
    """Sum of |increments|: the exact TV of the piecewise-linear interpolant."""
    return float(np.abs(np.diff(h.values)).sum())


def level_perimeter(h: GridFunction1D, t: float) -> int:
    """Number of transversal crossings of level t inside the open interval.

    Nodes sitting exactly at the level are resolved by the signs of the
    nearest off-level neighbors, so grazing touches do not count.
    """
    s = np.sign(h.values - t)
    s = s[s != 0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(s[:-1] != s[1:]))


def _perimeters_between_events(h: GridFunction1D, events: np.ndarray) -> np.ndarray:
    """P(E_t) for t in each open band (events[k], events[k+1]).

    Every nodal value is an event, so cell (lo, hi) spans band k exactly when
    lo <= e_k < hi: the count #(lo <= e_k) - #(hi <= e_k) over sorted cell
    endpoints is exact and costs O(n log n); flat cells cancel.
    """
    v = h.values
    lo = np.sort(np.minimum(v[:-1], v[1:]))
    hi = np.sort(np.maximum(v[:-1], v[1:]))
    e = events[:-1]
    return np.searchsorted(lo, e, "right") - np.searchsorted(hi, e, "right")


def coarea_integral(h: GridFunction1D) -> float:
    """Exact event-driven evaluation of int_R P({h > t}) dt."""
    events = np.unique(h.values)
    if events.size < 2:
        return 0.0
    counts = _perimeters_between_events(h, events)
    return float((counts * np.diff(events)).sum())


def coarea_check(h: GridFunction1D, nlevels: int = 64) -> ExperimentReport:
    """Verify int P(E_t) dt = TV(h) and report a sampled level-set profile.

    The profile is two curves: t, the sampled levels, strictly increasing
    (np.unique sorts and dedups them), and perimeter, the crossing count
    level_perimeter(h, t) at each, a nonnegative whole number.
    """
    if nlevels < 16:
        raise ValueError("nlevels must be at least 16")
    tv = total_variation(h)
    integral = coarea_integral(h)
    scale = max(tv, abs(integral), 1e-300)
    rel_err = abs(integral - tv) / scale

    vmin, vmax = float(h.values.min()), float(h.values.max())
    if vmax > vmin:
        levels = np.linspace(vmin, vmax, nlevels + 2)[1:-1]
    else:
        levels = np.linspace(vmin - 1.0, vmin + 1.0, nlevels)
    # a range a few ulps wide holds fewer than nlevels distinct floats
    levels = np.unique(levels)
    perimeters = np.array([level_perimeter(h, t) for t in levels], dtype=float)

    return ExperimentReport(
        name="coarea_check",
        inputs={"n": h.n, "nlevels": nlevels},
        metrics={"total_variation": tv, "coarea_integral": integral, "rel_error": rel_err},
        curves={"t": list(levels), "perimeter": list(perimeters)},
        passed=bool(rel_err < 1e-12),
    )


def good_levels(h: GridFunction1D, t_start: float) -> list:
    """Scan a dyadic level grid from t_start in (LEVEL_FLOOR, 1) downward to
    LEVEL_FLOOR and keep levels t with P({h > t}) <= 1/(t |ln t|).

    For TV-bounded h the averaging bound guarantees such levels exist; an
    empty result therefore signals a bug and raises.
    """
    if not LEVEL_FLOOR < t_start < 1.0:
        raise ValueError(f"t_start must lie in ({LEVEL_FLOOR:g}, 1), got {t_start}")
    if not np.any(h.values >= 0.0):
        raise ValueError("h must be nonnegative somewhere")
    out = []
    t = float(t_start)
    while t > LEVEL_FLOOR:
        budget = 1.0 / (t * abs(math.log(t)))
        if level_perimeter(h, t) <= budget:
            out.append(t)
        t *= 0.5
    if not out:
        raise RuntimeError("TV budget violated: no admissible level above the floor")
    return out
