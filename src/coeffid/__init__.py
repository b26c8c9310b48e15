"""Identifiability and stability toolkit for the diffusion coefficient
inverse problem -(a u')' = f (1D exact solvers) and -div(a grad u) = f with
piecewise-constant a on the unit square (P1 FEM)."""

__version__ = "0.1.0"

from .grids import (
    CoefficientBounds,
    GridFunction1D,
    Interval,
    derivative,
    lp_norm,
    quadrature,
)
from .forward import ForwardSolution, flux_constant, primitive, solve, solve_from_primitive
from .inverse import RecoveryResult, recover, recover_from_primitive
from .gmt import coarea_check, good_levels, level_perimeter, total_variation
from .stability import (
    DyadicFamily,
    ExponentFit,
    dyadic_rate,
    fit_exponents,
    holder_exponent,
    k_rho_measure,
    verify_holder,
)
from .counterexamples import CounterexamplePair, IntervalSet, inhomogeneous_pair, svc_set, volterra_pair
from .pw2d import (
    Partition2D,
    PwConstCoefficient,
    PwRecovery,
    fem_solve,
    hminus1_norm,
    recover_pw,
    sweep_pw_bound,
    verify_pw_bound,
)
from .report import ExperimentReport

__all__ = [
    "__version__",
    "Interval",
    "GridFunction1D",
    "CoefficientBounds",
    "quadrature",
    "lp_norm",
    "derivative",
    "ForwardSolution",
    "primitive",
    "flux_constant",
    "solve",
    "solve_from_primitive",
    "RecoveryResult",
    "recover",
    "recover_from_primitive",
    "total_variation",
    "level_perimeter",
    "coarea_check",
    "good_levels",
    "ExponentFit",
    "DyadicFamily",
    "k_rho_measure",
    "fit_exponents",
    "holder_exponent",
    "verify_holder",
    "dyadic_rate",
    "IntervalSet",
    "CounterexamplePair",
    "svc_set",
    "volterra_pair",
    "inhomogeneous_pair",
    "Partition2D",
    "PwConstCoefficient",
    "PwRecovery",
    "fem_solve",
    "hminus1_norm",
    "verify_pw_bound",
    "sweep_pw_bound",
    "recover_pw",
    "ExperimentReport",
]
