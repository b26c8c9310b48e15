"""Exact 1D forward solver for -(a u')' = f with homogeneous Dirichlet data.

Integrating the equation once shows that the flux a u' is absolutely
continuous and satisfies the identity

    a(x) u'(x) = C - F(x),        F(x) = integral of f from lo to x,

where the constant C = (int F/a) / (int 1/a) is pinned by u(lo) = u(hi) = 0.
The solver realizes this identity nodally: du = (C - F)/a, u = cumulative
integral of du. Because C is computed with the same trapezoid rule as the
cumulative integral, u(hi) = 0 holds to rounding, and the flux identity holds
nodewise by construction. F always satisfies min F < C < max F when f is not
identically zero.

The kernels work in place on as few full-length buffers as they can, but
every floating-point operation is the textbook one, on the same operands in
the same order: (h/2)(v_i + v_{i+1}) summed left to right, (C - F)/a, and
(a du + F) - C. So every value keeps its bits whatever the buffering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import (
    CoefficientBounds,
    GridFunction1D,
    require_same_grid,
)

__all__ = ["ForwardSolution", "primitive", "flux_constant", "solve", "solve_from_primitive"]

FLUX_TOL = 1e-10
BOUNDARY_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ForwardSolution:
    """Solution bundle: u, its derivative du, the flux constant Ca, and the
    source primitive F, all on one grid.

    flux_residual is max |a*du + F - Ca| over the nodes and boundary_residual
    is |u(hi)|; the solver raises when either exceeds FLUX_TOL or
    BOUNDARY_TOL, scaled by the size of the data.
    """

    u: GridFunction1D
    du: GridFunction1D
    Ca: float
    F: GridFunction1D
    flux_residual: float
    boundary_residual: float


def _max_abs(values: np.ndarray) -> float:
    """max |v| with no |v| temporary: max(max v, -min v) is the same value."""
    return max(float(values.max()), -float(values.min()))


def _cumtrapz(values: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(values)
    out[0] = 0.0
    steps = out[1:]
    np.add(values[:-1], values[1:], out=steps)
    steps *= h * 0.5
    np.cumsum(steps, out=steps)
    return out


def primitive(f: GridFunction1D) -> GridFunction1D:
    """Cumulative trapezoid integral F of f with F(lo) = 0."""
    return f.with_values(_cumtrapz(f.values, f.h))


def flux_constant(a: GridFunction1D, F: GridFunction1D) -> float:
    """The constant C = (int F/a) / (int 1/a), a weighted average of F.

    Lies strictly between min F and max F for nonconstant F.
    """
    require_same_grid(a, F)
    if a.values.min() <= 0.0:
        raise ValueError("coefficient must be strictly positive")
    w = 1.0 / a.values
    w[0] *= 0.5
    w[-1] *= 0.5
    total = w.sum()
    w *= F.values
    return float(w.sum() / total)


def solve_from_primitive(
    a: GridFunction1D,
    F: GridFunction1D,
    bounds: CoefficientBounds | None = None,
) -> ForwardSolution:
    """Solve given the source primitive F directly.

    This entry point lets callers supply distributional sources for which no
    nodal density exists; solve() is the convenience wrapper that integrates a
    density first.
    """
    require_same_grid(a, F)
    if bounds is not None and not bounds.admits(a.values):
        raise ValueError(f"coefficient outside [{bounds.lam}, {bounds.Lam}]")

    Ca = flux_constant(a, F)
    du_vals = np.subtract(Ca, F.values)
    du_vals /= a.values
    u_vals = _cumtrapz(du_vals, a.h)

    res = np.multiply(a.values, du_vals)
    res += F.values
    res -= Ca
    flux_res = float(np.abs(res, out=res).max())
    flux_scale = 1.0 + abs(Ca) + _max_abs(F.values)
    if flux_res > FLUX_TOL * flux_scale:
        raise RuntimeError(f"flux identity residual {flux_res:.3e} exceeds tolerance")

    boundary_res = float(abs(u_vals[-1]))
    u_scale = 1.0 + _max_abs(u_vals)
    if boundary_res > BOUNDARY_TOL * u_scale:
        raise RuntimeError(
            f"boundary closure failed: |u(hi)| = {boundary_res:.3e} "
            f"(tolerance {BOUNDARY_TOL * u_scale:.3e})"
        )

    return ForwardSolution(
        u=a.with_values(u_vals),
        du=a.with_values(du_vals),
        Ca=Ca,
        F=F,
        flux_residual=flux_res,
        boundary_residual=boundary_res,
    )


def solve(
    a: GridFunction1D,
    f: GridFunction1D,
    bounds: CoefficientBounds | None = None,
) -> ForwardSolution:
    """Solve -(a u')' = f on the shared grid of a and f, u = 0 at both ends."""
    require_same_grid(a, f)
    return solve_from_primitive(a, primitive(f), bounds)
