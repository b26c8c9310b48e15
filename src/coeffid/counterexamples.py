"""Constructive non-identifiability witnesses.

volterra_pair builds a fat-Cantor-set counterexample: on the complement of a
finite-level Smith-Volterra-Cantor approximant S it places smooth two-lobe
bumps w with zero integral per gap, so that w and w' vanish on S while the
source f = -w' is nonzero inside every gap. Any two coefficients that agree
off S (here a = 1 and b = 1 + amp on S) then produce the identical solution
u = W = integral of w: the flux b u' equals u' because u' = w = 0 wherever
b differs from 1. The pair carries machine-checked weak-form residuals as a
non-identifiability certificate.

inhomogeneous_pair shows the same failure driven by boundary data instead:
u = -1/2 (x + 1/2)^2 with a = 1 + 1/(x + 1/2) and b = 1 both satisfy
-(a u')' = -(b u')' = 1, an exact polynomial identity of the fluxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grids import GridFunction1D, Interval, derivative, indicator_values
from .forward import _cumtrapz

__all__ = [
    "IntervalSet",
    "CounterexamplePair",
    "svc_set",
    "volterra_pair",
    "inhomogeneous_pair",
    "weak_form_residual",
]


@dataclass(frozen=True, eq=False)
class IntervalSet:
    """Disjoint sorted closed intervals inside [0, 1], held as a read-only
    (k, 2) float64 array of endpoints. The fat-Cantor endpoints are dyadic
    rationals that binary64 holds exactly, and so are their sums."""

    intervals: np.ndarray

    def __post_init__(self):
        iv = np.array(self.intervals, dtype=float)
        if iv.ndim != 2 or iv.shape[1] != 2:
            raise ValueError("intervals must be a (k, 2) array of endpoints")
        a, b = iv.T
        if not np.all((0.0 <= a) & (a < b) & (b <= 1.0)):
            raise ValueError("intervals must be nondegenerate and inside [0, 1]")
        if np.any(a[1:] < b[:-1]):
            raise ValueError("intervals must be sorted and disjoint")
        iv.flags.writeable = False
        object.__setattr__(self, "intervals", iv)

    @property
    def measure(self) -> float:
        return float(np.sum(self.intervals[:, 1] - self.intervals[:, 0]))

    def gaps(self) -> np.ndarray:
        """Open intervals of [0, 1] between the members, as a (g, 2) array."""
        lo = np.append(0.0, self.intervals[:, 1])
        hi = np.append(self.intervals[:, 0], 1.0)
        keep = lo < hi
        return np.stack([lo[keep], hi[keep]], axis=1)

    def indicator(self, x: np.ndarray) -> np.ndarray:
        """Nodal indicator of the union on the sorted grid x: the members'
        indicator_values summed and clipped to [0, 1]. Each member is sampled
        only on the nodes within twice the edge tolerance of it, found by
        np.searchsorted, so the cost is linear in the grid size; every other
        node would get 0 from it. The windows of all members are gathered
        into one index array and evaluated together."""
        lo, hi = self.intervals.T
        pad = 2e-13 * (x[-1] - x[0])
        start = np.searchsorted(x, lo - pad)
        count = np.searchsorted(x, hi + pad, side="right") - start
        member = np.repeat(np.arange(lo.size), count)
        # the grid index of each (member, window node) pair
        node = np.arange(member.size) + np.repeat(start - (np.cumsum(count) - count), count)
        v = indicator_values(x[node], lo[member], hi[member], (x[0], x[-1]))
        return np.clip(np.bincount(node, weights=v, minlength=x.size), 0.0, 1.0)


def svc_set(level: int) -> IntervalSet:
    """Level-n approximant of the Smith-Volterra-Cantor set.

    Stage k removes the open middle interval of length 4^{-k} from each of the
    2^{k-1} pieces, leaving measure 1/2 + 2^{-(level+1)}; the limit set is
    nowhere dense with measure 1/2. Every endpoint up to level 20 is a dyadic
    rational with at most 41 bits after the binary point, so the float
    arithmetic below is exact.
    """
    if not 1 <= level <= 20:
        raise ValueError("level must lie in [1, 20]")
    pieces = np.array([[0.0, 1.0]])
    for k in range(1, level + 1):
        a, b = pieces.T
        c = 0.5 * (a + b)
        half = 0.5 / 4**k
        pieces = np.stack([a, c - half, c + half, b], axis=1).reshape(-1, 2)
    return IntervalSet(pieces)


@dataclass(frozen=True, eq=False)
class CounterexamplePair:
    """Two admissible coefficients, one solution, one source: residual_a and
    residual_b certify that both coefficient choices satisfy the equation
    while coeff_gap bounds their L1 distance away from zero. The pair passes
    when both residuals are below tol and the coefficients differ."""

    a: GridFunction1D
    b: GridFunction1D
    u: GridFunction1D
    du: GridFunction1D
    f: GridFunction1D
    residual_a: float
    residual_b: float
    coeff_gap: float
    tol: float
    kept_set: IntervalSet | None = None

    @property
    def passed(self) -> bool:
        return self.residual_a < self.tol and self.residual_b < self.tol and self.coeff_gap > 0.0


def weak_form_residual(a: GridFunction1D, du: GridFunction1D, F: GridFunction1D) -> float:
    """max over interior hat functions phi_i of
    |int a du phi_i' - f(phi_i)|, with f applied distributionally through its
    primitive: f(phi_i) = -int F phi_i'. Exact nodal formulas for piecewise
    linears, no quadrature beyond them."""
    flux = a.values * du.values
    Fv = F.values
    r = 0.5 * (flux[:-2] - flux[2:]) - 0.5 * (Fv[2:] - Fv[:-2])
    return float(np.abs(r).max())


def _phi_d1(t: np.ndarray) -> np.ndarray:
    g = t * (1.0 - t)
    return np.exp(-1.0 / g) * (1.0 - 2.0 * t) / (g * g)


def _phi_d2(t: np.ndarray) -> np.ndarray:
    g = t * (1.0 - t)
    gp = 1.0 - 2.0 * t
    return np.exp(-1.0 / g) * (gp * gp / g**4 - 2.0 * gp * gp / g**3 - 2.0 / g**2)


def volterra_pair(level: int, n: int, bump_amp: float) -> CounterexamplePair:
    """Build the fat-Cantor non-identifiability pair at the given level.

    Each removed gap (al, be) of length L carries w = L^2 phi'((x - al)/L): a
    positive then negative lobe with zero integral, vanishing to all orders at
    the gap ends, so W = integral of w returns to zero after every gap and
    W(1) = 0 holds by construction. The L^2 amplitude scaling keeps w' bounded
    uniformly in the level, as for the classical Volterra function. The
    residuals are scaled by sup |w| and the pair's tolerance is 1e-8; a pair
    above it is returned with passed False.
    """
    if n < 8 * 4**level:
        raise ValueError(f"n must be at least {8 * 4**level} to resolve level {level} gaps")
    if not 0.0 < bump_amp <= 1.0:
        raise ValueError("bump_amp must lie in (0, 1] to keep b within [1, 2]")
    S = svc_set(level)

    iv = Interval(0.0, 1.0)
    x = np.linspace(0.0, 1.0, n + 1)
    w = np.zeros_like(x)
    f_vals = np.zeros_like(x)
    gaps = S.gaps()
    # the nodes strictly inside each gap, a slice of the sorted grid
    start = np.searchsorted(x, gaps[:, 0], side="right").tolist()
    stop = np.searchsorted(x, gaps[:, 1]).tolist()
    for (al_f, be_f), i, j in zip(gaps.tolist(), start, stop):
        L = be_f - al_f
        m = slice(i, j)
        t = (x[m] - al_f) / L
        w[m] = (L * L) * _phi_d1(t)
        f_vals[m] = -L * _phi_d2(t)
        if not np.any(f_vals[m] != 0.0):
            raise RuntimeError("source vanishes identically inside a gap")

    du = GridFunction1D(iv, w)
    u = GridFunction1D(iv, _cumtrapz(w, du.h))
    f = GridFunction1D(iv, f_vals)
    a = GridFunction1D(iv, np.ones_like(x))
    b = GridFunction1D(iv, 1.0 + bump_amp * S.indicator(x))

    F = du.with_values(-w + w[0])
    w_sup = float(np.abs(w).max())
    res_a = weak_form_residual(a, du, F) / w_sup
    res_b = weak_form_residual(b, du, F) / w_sup
    return CounterexamplePair(
        a=a, b=b, u=u, du=du, f=f, residual_a=res_a, residual_b=res_b,
        coeff_gap=bump_amp * S.measure, tol=1e-8, kept_set=S,
    )


def inhomogeneous_pair(n: int) -> CounterexamplePair:
    """The boundary-data counterexample on (0, 1).

    With u = -1/2 (x + 1/2)^2 the fluxes a u' = -(x + 1/2) - 1 and
    b u' = -(x + 1/2) are both affine with slope -1, so both coefficients
    satisfy -(coef u')' = 1 identically. The strong-form residuals are exact
    polynomial identities up to rounding. coeff_gap is the exact integral
    log 3 of a - b = 1/(x + 1/2). The pair's tolerance is 1e-9.
    """
    if n < 16:
        raise ValueError("n must be at least 16")
    iv = Interval(0.0, 1.0)
    x = np.linspace(0.0, 1.0, n + 1)
    u = GridFunction1D(iv, -0.5 * (x + 0.5) ** 2)
    du = GridFunction1D(iv, -(x + 0.5))
    a = GridFunction1D(iv, 1.0 + 1.0 / (x + 0.5))
    b = GridFunction1D(iv, np.ones_like(x))
    f = GridFunction1D(iv, np.ones_like(x))

    res_a = float(np.abs(derivative(a * du).values + 1.0).max())
    res_b = float(np.abs(derivative(b * du).values + 1.0).max())

    return CounterexamplePair(
        a=a, b=b, u=u, du=du, f=f,
        residual_a=res_a, residual_b=res_b, coeff_gap=math.log(3.0), tol=1e-9,
    )
