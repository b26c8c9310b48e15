"""Coefficient recovery from (u', f) through the flux identity.

Rearranging a u' = C - F gives a = (C - F)/u' wherever u' does not vanish.
With homogeneous Dirichlet data, u' integrates to zero and therefore has a
zero in the open interval; evaluating F there identifies C without any
optimization. Nodes where |u'| falls below a threshold carry no information
about a (genuine non-uniqueness lives exactly there), so they are masked,
filled by nearest-neighbor values, and reported.

Recovery works in place: C - F is formed once and divided by u' only where
u' is not masked, with the same operations in the same order as the
textbook (C - F_i)/u'_i, so the recovered values keep their bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .forward import _max_abs, primitive
from .grids import CoefficientBounds, GridFunction1D, require_same_grid

__all__ = [
    "RecoveryResult",
    "default_threshold",
    "recover",
    "recover_from_primitive",
]


@dataclass(frozen=True, eq=False)
class RecoveryResult:
    """Recovered coefficient plus diagnostics.

    degenerate_mask marks nodes where |u'| < threshold; their values are
    nearest-neighbor infill and must not be trusted in error norms. candidates
    is a read-only sorted float64 array of every location where u' crosses or
    touches zero, since the choice of zero is not unique when u' has several
    near-zeros.
    """

    a: GridFunction1D
    C: float
    degenerate_mask: np.ndarray
    fraction_degenerate: float
    threshold: float
    candidates: np.ndarray
    n_clamped: int


def default_threshold(du: GridFunction1D) -> float:
    """Resolution-scaled cutoff sqrt(h) * max|du| / 100 below which u' is
    treated as vanishing."""
    t = math.sqrt(du.h) * _max_abs(du.values) * 1e-2
    return max(t, 1e-300)


def recover_from_primitive(
    du: GridFunction1D,
    F: GridFunction1D,
    bounds: CoefficientBounds,
    threshold: float | None = None,
) -> RecoveryResult:
    """Recover a = (C - F)/u' with the source supplied via its primitive F.

    C is F at a zero of u': the zero is taken at the interior node minimizing
    |u'|, refined by linear interpolation when u' changes sign across an
    adjacent cell. Raises when u' is strictly one-signed above the threshold,
    which is inconsistent with homogeneous boundary values, and when u'
    vanishes at every node.
    """
    require_same_grid(du, F)
    if threshold is None:
        threshold = default_threshold(du)
    if not threshold > 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    if du.n < 2:
        raise ValueError("grid too coarse")

    v = du.values
    abs_v = np.abs(v)
    # one scan for strict sign changes of u' serves both C and the candidates:
    # cell c holds the zero x_c + t h. Signs are compared, not multiplied: the
    # product of two tiny values underflows to zero and hides the change
    cells = np.nonzero((v[:-1] < 0.0) & (v[1:] > 0.0) | (v[:-1] > 0.0) & (v[1:] < 0.0))[0]
    t = v[cells] / (v[cells] - v[cells + 1])
    zeros = du.nodes(cells) + t * du.h
    i_min = 1 + int(np.argmin(abs_v[1:-1]))
    if not cells.size and abs_v[i_min] > threshold:
        raise ValueError(
            "no zero of u': data inconsistent with homogeneous boundary values"
        )

    Fv = F.values
    k = int(np.searchsorted(cells, i_min - 1))
    if k < cells.size and cells[k] <= i_min:
        c = cells[k]
        C = float(Fv[c] + t[k] * (Fv[c + 1] - Fv[c]))
    else:
        C = float(Fv[i_min])

    mask = abs_v < threshold
    # every plausible zero of u': refined sign changes plus below-threshold nodes
    candidates = np.union1d(zeros, du.nodes(np.nonzero(abs_v <= threshold)[0]))
    candidates.flags.writeable = False
    # |u'| takes 8 bytes a node: free it before the arrays below
    del abs_v
    if mask.all():
        raise ValueError("gradient vanishes everywhere")

    good = ~mask
    # masked nodes keep C - F here; the infill below overwrites them
    raw = np.subtract(C, Fv)
    np.divide(raw, v, out=raw, where=good)
    clipped = np.clip(raw, bounds.lam, bounds.Lam)
    clamped = np.not_equal(clipped, raw)
    del raw
    n_clamped = int(np.count_nonzero(np.logical_and(clamped, good, out=clamped)))

    # nearest-unmasked infill; ties break to the left for determinism
    bad_idx = np.nonzero(mask)[0]
    if bad_idx.size:
        good_idx = np.nonzero(good)[0]
        pos = np.searchsorted(good_idx, bad_idx)
        left = good_idx[np.clip(pos - 1, 0, good_idx.size - 1)]
        right = good_idx[np.clip(pos, 0, good_idx.size - 1)]
        take_left = np.abs(bad_idx - left) <= np.abs(right - bad_idx)
        src = np.where(take_left, left, right)
        clipped[bad_idx] = clipped[src]

    return RecoveryResult(
        a=du.with_values(clipped),
        C=C,
        degenerate_mask=mask,
        fraction_degenerate=float(np.count_nonzero(mask)) / (du.n + 1),
        threshold=float(threshold),
        candidates=candidates,
        n_clamped=n_clamped,
    )


def recover(
    du: GridFunction1D,
    f: GridFunction1D,
    bounds: CoefficientBounds,
    threshold: float | None = None,
) -> RecoveryResult:
    """Recover the coefficient from u' and the source density f."""
    require_same_grid(du, f)
    return recover_from_primitive(du, primitive(f), bounds, threshold)
