"""Recovery a = (C - F)/u': constant identification, masking, roundtrips."""

import math

import numpy as np
import pytest

from coeffid.forward import primitive, solve
from coeffid.grids import CoefficientBounds, GridFunction1D, Interval, quadrature
from coeffid.inverse import default_threshold, recover, recover_from_primitive

UNIT = Interval(0.0, 1.0)
BOUNDS = CoefficientBounds(0.5, 2.0)


def from_fn(fn, n, interval=UNIT):
    return GridFunction1D.from_callable(fn, interval, n)


def unmasked_l1_error(result, truth):
    diff = np.where(result.degenerate_mask, 0.0, result.a.values - truth.values)
    return quadrature(truth.with_values(np.abs(diff)))


@pytest.mark.parametrize("n", [100, 101])
def test_recover_constant_linear_case(n):
    du = from_fn(lambda x: 0.5 - x, n)
    F = from_fn(lambda x: x, n)
    assert recover_from_primitive(du, F, BOUNDS).C == pytest.approx(0.5, abs=1e-12)


def test_recover_constant_matches_forward_constant_cosine():
    n = 4096
    a = GridFunction1D.const(1.0, UNIT, n)
    f = from_fn(lambda x: np.cos(2 * np.pi * x), n)
    sol = solve(a, f)
    C = recover_from_primitive(sol.du, sol.F, BOUNDS).C
    assert C == pytest.approx(sol.Ca, abs=1e-6)


def test_recover_constant_roundtrip_variable_coefficient():
    n = 4096
    a = from_fn(lambda x: 1.0 + x, n)
    f = GridFunction1D.const(1.0, UNIT, n)
    sol = solve(a, f)
    C = recover_from_primitive(sol.du, sol.F, BOUNDS).C
    assert abs(C - sol.Ca) < 1e-6 * (1.0 + abs(sol.Ca))


def test_recover_constant_one_signed_raises():
    n = 128
    du = GridFunction1D.const(1.0, UNIT, n)
    F = from_fn(lambda x: x, n)
    with pytest.raises(ValueError, match="no zero"):
        recover_from_primitive(du, F, BOUNDS)


def test_candidates_are_a_sorted_read_only_array():
    # three sign changes plus the masked nodes around them
    du = from_fn(lambda x: np.cos(3.0 * np.pi * x), 999)
    res = recover_from_primitive(du, from_fn(lambda x: x, 999), BOUNDS, threshold=0.05)
    cand = res.candidates
    assert cand.dtype == np.float64 and cand.ndim == 1 and cand.size > 3
    assert np.all(np.diff(cand) > 0.0)
    assert not cand.flags.writeable


def test_recover_linear_gradient():
    n = 512
    du = from_fn(lambda x: 0.5 - x, n)
    f = GridFunction1D.const(1.0, UNIT, n)
    res = recover(du, f, BOUNDS, threshold=1e-6)
    off = ~res.degenerate_mask
    assert np.abs(res.a.values[off] - 1.0).max() < 1e-9
    assert res.fraction_degenerate <= 2.0 / (n + 1)


def test_recover_roundtrip_smooth():
    n = 4096
    a = from_fn(lambda x: 1.0 + 0.5 * np.sin(3 * np.pi * x), n)
    f = from_fn(lambda x: 1.0 - 2.0 * x, n)
    sol = solve(a, f)
    res = recover(sol.du, f, BOUNDS)
    assert unmasked_l1_error(res, a) < 1e-3
    assert abs(res.C - sol.Ca) < 1e-6 * (1.0 + abs(sol.Ca))


def test_recover_refines_under_grid_refinement():
    errs = []
    for n in (512, 2048, 8192):
        a = from_fn(lambda x: 1.2 + 0.4 * np.cos(2 * np.pi * x), n)
        f = from_fn(lambda x: 1.0 - 2.0 * x, n)
        sol = solve(a, f)
        errs.append(unmasked_l1_error(recover(sol.du, f, BOUNDS), a))
    assert errs[2] < errs[0]
    assert errs[2] < 1e-4


def test_recover_gradient_vanishes_everywhere():
    n = 256
    du = GridFunction1D.const(0.0, UNIT, n)
    f = GridFunction1D.const(0.0, UNIT, n)
    with pytest.raises(ValueError, match="vanishes everywhere"):
        recover(du, f, BOUNDS)


def test_no_clamping_on_interior_smooth_data():
    n = 4096
    a = from_fn(lambda x: 1.2 + 0.5 * np.sin(2 * np.pi * x), n)
    f = from_fn(lambda x: np.where(x < 0.35, 1.0, -0.6), n)
    sol = solve(a, f)
    res = recover(sol.du, f, BOUNDS)
    assert res.n_clamped == 0


def test_threshold_reported_and_scaled():
    n = 1024
    du = from_fn(lambda x: 0.5 - x, n)
    f = GridFunction1D.const(1.0, UNIT, n)
    res = recover(du, f, BOUNDS)
    assert res.threshold == pytest.approx(default_threshold(du))
    assert res.threshold == pytest.approx(math.sqrt(du.h) * 0.5 * 1e-2)


def test_recover_from_primitive_exact_data():
    n = 2048
    a = from_fn(lambda x: 1.0 + 0.3 * x, n)
    f = GridFunction1D.const(1.0, UNIT, n)
    sol = solve(a, f)
    res = recover_from_primitive(sol.du, sol.F, BOUNDS)
    assert unmasked_l1_error(res, a) < 5e-4


def test_nearest_neighbor_infill_deterministic():
    n = 16
    x = np.linspace(0.0, 1.0, n + 1)
    v = x - 0.5
    v[6:9] = 0.0
    du = GridFunction1D(UNIT, v)
    F = from_fn(lambda x: x, n)
    res = recover_from_primitive(du, F, CoefficientBounds(0.01, 100.0), threshold=1e-12)
    filled = res.a.values[res.degenerate_mask]
    neighbors = res.a.values[~res.degenerate_mask]
    assert np.all(np.isin(filled, neighbors))


def test_roundtrip_on_shifted_interval():
    # nothing in the flux identity is tied to (0, 1)
    iv = Interval(2.0, 5.0)
    n = 4096
    a = GridFunction1D.from_callable(lambda x: 1.0 + 0.4 * np.sin(2 * np.pi * x / 3.0), iv, n)
    f = GridFunction1D.from_callable(lambda x: 3.5 - x, iv, n)
    sol = solve(a, f, bounds=BOUNDS)
    assert abs(sol.u.values[-1]) < 1e-8 * (1.0 + np.abs(sol.u.values).max())
    res = recover(sol.du, f, BOUNDS)
    diff = np.where(res.degenerate_mask, 0.0, res.a.values - a.values)
    assert quadrature(a.with_values(np.abs(diff))) < 1e-3 * (iv.hi - iv.lo)


def test_reflection_maps_solution_constant_and_recovery():
    # x -> lo + hi - x on a and f: u reflects, Ca maps to F(hi) - Ca, and
    # recovery returns the reflected coefficient
    n = 4096
    iv = Interval(-0.5, 1.5)
    a = from_fn(lambda x: 1.0 + 0.5 * np.sin(3.0 * x) ** 2, n, iv)
    f = from_fn(lambda x: np.cos(2.0 * x) + 0.3 * x, n, iv)
    a_r = a.with_values(a.values[::-1])
    f_r = f.with_values(f.values[::-1])
    sol, sol_r = solve(a, f), solve(a_r, f_r)
    u = sol.u.values
    assert np.abs(sol_r.u.values - u[::-1]).max() <= 1e-12 * np.abs(u).max()
    assert sol_r.Ca == pytest.approx(sol.F.values[-1] - sol.Ca, rel=1e-12)

    res, res_r = recover(sol.du, f, BOUNDS), recover(sol_r.du, f_r, BOUNDS)
    assert np.array_equal(res_r.degenerate_mask, res.degenerate_mask[::-1])
    assert res_r.C == pytest.approx(sol.F.values[-1] - res.C, rel=1e-12)
    rec = res.a.values
    assert np.abs(res_r.a.values - rec[::-1]).max() <= 1e-12 * np.abs(rec).max()


@pytest.mark.parametrize("a_fn, f_fn, n", [
    (lambda x: 1.2 + 0.3 * np.sin(5.0 * x), lambda x: 1.0, 1000),
    (lambda x: 1.25 + 0.5 * np.sin(6.0 * x), lambda x: 1.0 + 0.5 * np.cos(9.0 * x), 2**20),
])
def test_recovery_invariant_under_tiny_data_scale(a_fn, f_fn, n):
    # scaling u' and f by a power of two scales every step of the recovery
    # exactly, so a and C/s keep their bits; the products of neighbouring
    # values of u' near its zeros would underflow at this scale
    s = 2.0**-530
    f = from_fn(f_fn, n)
    du = solve(from_fn(a_fn, n), f).du
    ref = recover(du, f, BOUNDS)
    got = recover(du.with_values(s * du.values), f.with_values(s * f.values), BOUNDS)
    assert got.a.values.tobytes() == ref.a.values.tobytes()
    assert got.C / s == ref.C
