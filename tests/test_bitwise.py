"""The 1D flux-identity kernels against their one-array-per-step references,
compared bit for bit.

Bytes, not np.array_equal: array_equal takes -0.0 and +0.0 as equal, and the
dyadic derivative holds -0.0 (sign(x) times a zero scale on the left half).
"""

import numpy as np
import pytest

from coeffid.forward import _cumtrapz, flux_constant, primitive, solve_from_primitive
from coeffid.grids import CoefficientBounds, GridFunction1D, Interval
from coeffid.inverse import default_threshold, recover_from_primitive
from coeffid.stability import DyadicFamily, dyadic_coefficient, dyadic_profile

import oracles

UNIT = Interval(0.0, 1.0)


def same_bits(got, want) -> None:
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_solution(sol, a, F) -> None:
    ref = oracles.flux_solve(a, F)
    same_bits(sol.u.values, ref["u"])
    same_bits(sol.du.values, ref["du"])
    same_bits(sol.F.values, F.values)
    for name in ("Ca", "flux_residual", "boundary_residual"):
        same_bits(getattr(sol, name), ref[name])


def problem(n: int):
    """A smooth coefficient, the sign-changing source cos(3 pi x) + x/2, whose
    flux C - F has several zeros, and its primitive."""
    a = GridFunction1D.from_callable(lambda x: 1.2 + 0.3 * np.sin(5.0 * x), UNIT, n)
    f = GridFunction1D.from_callable(lambda x: np.cos(3.0 * np.pi * x) + 0.5 * x, UNIT, n)
    return a, f, primitive(f)


@pytest.mark.parametrize("n", [7, 1001, 4096, 2**16 + 1])
def test_forward_kernels_bitwise(n):
    a, f, F = problem(n)
    same_bits(F.values, oracles.cumtrapz(f.values, f.h))
    same_bits(_cumtrapz(a.values, a.h), oracles.cumtrapz(a.values, a.h))
    same_bits(flux_constant(a, F), oracles.flux_constant(a, F))
    check_solution(solve_from_primitive(a, F), a, F)


def check_recovery(du, F, bounds, threshold):
    res = recover_from_primitive(du, F, bounds, threshold)
    ref = oracles.flux_recover(du, F, bounds.lam, bounds.Lam, res.threshold)
    same_bits(res.a.values, ref["a"])
    same_bits(res.C, ref["C"])
    same_bits(res.degenerate_mask, ref["mask"])
    assert res.n_clamped == ref["n_clamped"]
    same_bits(np.array(res.candidates), np.array(ref["candidates"]))
    return res


@pytest.mark.parametrize("n", [1001, 4096, 2**16 + 1])
def test_recovery_default_threshold_bitwise(n):
    a, _, F = problem(n)
    du = solve_from_primitive(a, F).du
    same_bits(default_threshold(du), oracles.default_threshold(du))
    check_recovery(du, F, CoefficientBounds(0.5, 2.0), None)


@pytest.mark.parametrize("n", [1001, 2**16])
def test_recovery_masked_and_clamped_bitwise(n):
    a, _, F = problem(n)
    du = solve_from_primitive(a, F).du
    threshold = 0.05 * float(np.abs(du.values).max())
    res = check_recovery(du, F, CoefficientBounds(1.0, 1.35), threshold)
    assert 0.05 < res.fraction_degenerate < 0.5
    assert 0 < res.n_clamped < np.count_nonzero(~res.degenerate_mask)


@pytest.mark.parametrize("n", [1000, 4096, 2**16])
@pytest.mark.parametrize("beta_d", [0.0, -0.3])
@pytest.mark.parametrize("alpha_d", [0.55, 1.0, 2.0, 4.0])
def test_dyadic_profile_and_solve_bitwise(alpha_d, beta_d, n):
    fam = DyadicFamily(alpha_d=alpha_d, beta_d=beta_d)
    u, du = dyadic_profile(fam, n)
    # scales past the loop's last one add only +0.0
    u_ref, du_ref = oracles.dyadic_profile(alpha_d, n.bit_length() + 8, n)
    same_bits(u.values, u_ref)
    same_bits(du.values, du_ref)
    assert np.any(np.signbit(du_ref) & (du_ref == 0.0))
    a_j = dyadic_coefficient(fam, 4, n)
    F = du.with_values(-du.values + du.values[0])
    check_solution(solve_from_primitive(a_j, F), a_j, F)
