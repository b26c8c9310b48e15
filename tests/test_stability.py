"""Band measures, exponent fits, stability-exponent arithmetic, and the
dyadic multiscale family."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coeffid import stability
from coeffid.forward import primitive, solve_from_primitive
from coeffid.grids import CoefficientBounds, GridFunction1D, Interval, lp_norm
from coeffid.stability import (
    DyadicFamily,
    dyadic_coefficient,
    dyadic_profile,
    dyadic_rate,
    fit_exponents,
    holder_exponent,
    k_rho_measure,
    verify_holder,
)

from oracles import band_measure_per_cell, quadratic_band_measure
from oracles import dyadic_profile as dyadic_profile_oracle

UNIT = Interval(0.0, 1.0)


def from_fn(fn, n, interval=UNIT):
    return GridFunction1D.from_callable(fn, interval, n)


# -- k_rho_measure -----------------------------------------------------------


def test_band_measure_slope_one():
    F = from_fn(lambda x: x, 512)
    assert k_rho_measure(F, 0.5, 0.1) == pytest.approx(0.2, abs=1e-14)


def test_band_measure_clipped_at_endpoint():
    F = from_fn(lambda x: x, 512)
    assert k_rho_measure(F, 0.05, 0.1) == pytest.approx(0.15, abs=1e-14)


def test_band_measure_parabola_against_root_oracle():
    n = 2**14
    F = from_fn(lambda x: x - x * x, n)
    got = k_rho_measure(F, 0.12, 0.01)
    want = quadratic_band_measure(0.12, 0.01)
    assert got == pytest.approx(want, abs=1e-8)


@settings(max_examples=30)
@given(
    M=st.floats(min_value=0.05, max_value=0.95),
    r1=st.floats(min_value=1e-4, max_value=0.2),
    r2=st.floats(min_value=1e-4, max_value=0.2),
)
def test_band_measure_monotone_in_rho(M, r1, r2):
    F = from_fn(lambda x: np.sin(3 * x) + 0.5 * x, 256)
    lo, hi = sorted((r1, r2))
    assert k_rho_measure(F, M, lo) <= k_rho_measure(F, M, hi) + 1e-15


def test_band_measure_vanishes_off_range():
    F = from_fn(lambda x: x, 128)
    assert k_rho_measure(F, 5.0, 0.1) == 0.0
    assert k_rho_measure(F, -3.0, 0.1) == 0.0
    with pytest.raises(ValueError):
        k_rho_measure(F, 0.5, 0.0)


def test_band_measure_limit_is_flat_set_size():
    # F flat at level 1 on the middle third: measure -> 1/3 as rho -> 0
    n = 3 * 256
    x = np.linspace(0.0, 1.0, n + 1)
    F = GridFunction1D(UNIT, np.minimum(3 * x, np.minimum(1.0, 3 * (1 - x))))
    for rho in (1e-3, 1e-6, 1e-9):
        assert k_rho_measure(F, 1.0, rho) == pytest.approx(1.0 / 3.0, abs=3 * rho)


def _assert_matches_per_cell_oracle(F, M, rho):
    got = k_rho_measure(F, M, rho)
    assert got.shape == np.shape(M)
    M, rho = np.ravel(M), np.ravel(rho)
    # a scalar band comes back as a float
    scalar = k_rho_measure(F, float(M[0]), float(rho[0]))
    assert type(scalar) is float
    for m, r, g in zip(np.r_[M[0], M], np.r_[rho[0], rho], [scalar, *got.ravel()]):
        want = band_measure_per_cell(F, float(m), float(r))
        if want == 0.0:
            assert g == 0.0
        else:
            assert abs(g - want) <= 1e-14 * want


# node values on a 1/8 lattice, so plateaus and repeated values are common and
# M +- rho lands exactly on node values when rho is drawn from the lattice too
_LATTICE = [k / 8.0 for k in range(-8, 9)]


@settings(max_examples=60, deadline=None)
@given(
    values=st.lists(st.one_of(st.sampled_from(_LATTICE), st.floats(-1.0, 1.0)),
                    min_size=2, max_size=300),
    bands=st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_LATTICE), st.floats(-3.0, 3.0)),
            st.one_of(st.sampled_from(_LATTICE[9:]), st.floats(1e-9, 2.0)),
        ),
        min_size=1, max_size=40,
    ),
)
# plateaus at 1/4 and 1/2 with band ends exactly on them, from below and above
@example(values=[0.0, 0.25, 0.25, 0.5, 0.5, 0.5, 1.0],
         bands=[(0.5, 0.25), (0.0, 0.25), (0.75, 0.25), (0.375, 0.125)])
# bands wholly below and above the range of F
@example(values=[0.0, 0.5, -0.5, 1.0], bands=[(-5.0, 0.25), (5.0, 0.25), (-1.5, 0.25)])
def test_band_measures_batched_match_per_cell_oracle(values, bands):
    F = GridFunction1D(UNIT, np.array(values))
    M, rho = (np.array(column) for column in zip(*bands))
    _assert_matches_per_cell_oracle(F, M, rho)
    _assert_matches_per_cell_oracle(F, M.reshape(-1, 1), rho.reshape(-1, 1))


@settings(max_examples=4, deadline=None)
@given(
    nbands=st.integers(32, 64),
    extra=st.integers(1, 2000),
    seed=st.integers(0, 2**32 - 1),
)
def test_band_measures_zigzag_across_pair_slices(nbands, extra, seed):
    # every cell of a 0-1 zigzag crosses every band end inside (0, 1), so the
    # (cell, band end) pairs overflow one slice
    n = stability._PAIR_SLICE // (2 * nbands) + extra
    assert 2 * nbands * n > stability._PAIR_SLICE
    F = GridFunction1D(UNIT, np.arange(n + 1) % 2.0)
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.3, 0.7, nbands)
    rho = rng.uniform(1e-6, 0.29, nbands)
    _assert_matches_per_cell_oracle(F, M, rho)


@pytest.mark.parametrize("bad", [0.0, -0.1, np.nan])
def test_band_measures_array_with_nonpositive_rho_raises(bad):
    F = from_fn(lambda x: x, 64)
    with pytest.raises(ValueError, match="rho must be positive"):
        k_rho_measure(F, np.array([0.5, 0.5, 0.5]), np.array([0.1, bad, 0.2]))


# -- fit_exponents ------------------------------------------------------------


def test_fit_exponents_uniform_source():
    F = primitive(GridFunction1D.const(1.0, UNIT, 2048))
    fit = fit_exponents(F, np.geomspace(2.0**-3, 2.0**-12, 10), 32)
    assert abs(fit.alpha - 1.0) < 0.05
    assert abs(fit.beta - 1.0) < 0.05
    assert not fit.beta_degenerate


def test_fit_exponents_flat_middle_third():
    n = 3 * 1024
    x = np.linspace(0.0, 1.0, n + 1)
    f = np.where(x < 1.0 / 3.0, 1.0, 0.0) - np.where(x > 2.0 / 3.0, 1.0, 0.0)
    F = primitive(GridFunction1D(UNIT, f))
    span = float(F.values.max() - F.values.min())
    fit = fit_exponents(F, np.geomspace(span / 4, span / 2048, 10), 32)
    assert fit.beta_degenerate
    assert min(fit.sup_curve) >= 1.0 / 3.0 - 1e-9


def test_fit_exponents_descriptive_invariant_holds_on_grid():
    F = primitive(from_fn(lambda x: 1.0 - 2.0 * x, 4096))
    span = float(F.values.max() - F.values.min())
    rho = np.geomspace(span / 4, span / 2048, 12)
    fit = fit_exponents(F, rho, 32)
    inf_c = np.asarray(fit.inf_curve)
    sup_c = np.asarray(fit.sup_curve)
    r = np.asarray(fit.rho_grid)
    assert np.all(fit.C1 * r**fit.alpha <= inf_c * (1 + 1e-12))
    assert np.all(inf_c <= sup_c)
    assert np.all(sup_c <= fit.C2 * r**fit.beta * (1 + 1e-12))
    assert fit.alpha >= fit.beta - 1e-9


def test_fit_exponents_curves_match_per_cell_oracle():
    # the power-cusp primitives of the 1D benchmark study: the inf and sup
    # curves are those of the per-cell sums to within 4 ulp
    x = np.linspace(0.0, 1.0, 2**12 + 1)
    for q, x0 in ((0.25, 0.3), (0.6, 0.55), (1.0, 0.7)):
        F = GridFunction1D(UNIT, (np.abs(x - x0) ** (q + 1.0) - x0 ** (q + 1.0)) / (q + 1.0))
        fmin, fmax = float(F.values.min()), float(F.values.max())
        rho = np.geomspace((fmax - fmin) / 4.0, (fmax - fmin) / 2048.0, 10)
        fit = fit_exponents(F, rho, 32)
        meas = np.array([[band_measure_per_cell(F, float(M), float(r))
                          for M in np.linspace(fmin + r, fmax - r, 32)] for r in rho])
        for got, want in ((fit.inf_curve, meas.min(axis=1)), (fit.sup_curve, meas.max(axis=1))):
            assert np.all(np.abs(np.array(got) - want) <= 4 * np.spacing(want))


def test_fit_exponents_constant_F_rejected():
    F = GridFunction1D.const(1.0, UNIT, 64)
    with pytest.raises(ValueError, match="vanishes identically"):
        fit_exponents(F, np.geomspace(0.1, 0.01, 5), 16)


@pytest.mark.parametrize("scale", [1e-14, 2.0**-50, 1e-300])
def test_fit_exponents_is_scale_free(scale):
    # the band measures are lengths in x: scaling f scales F, rho and M
    # together and leaves the exponents as they are
    for fn in (lambda x: 1.0 - 2.0 * x, lambda x: np.cos(2.0 * np.pi * x), lambda x: 1.0 + 0.0 * x):
        fits = []
        for c in (1.0, scale):
            F = primitive(from_fn(lambda x: c * fn(x), 2048))
            span = float(F.values.max() - F.values.min())
            fits.append(fit_exponents(F, np.geomspace(span / 4.0, span / 2048.0, 10), 32))
        assert fits[1].alpha == pytest.approx(fits[0].alpha, rel=1e-12)
        assert fits[1].beta == pytest.approx(fits[0].beta, rel=1e-12, abs=1e-12)


def test_fit_exponents_validation():
    F = from_fn(lambda x: x, 64)
    with pytest.raises(ValueError, match="decreasing"):
        fit_exponents(F, [0.01, 0.1], 16)
    with pytest.raises(ValueError, match="M_grid_size"):
        fit_exponents(F, [0.1, 0.01], 4)


# -- holder_exponent ------------------------------------------------------------


def test_holder_exponent_exact_rationals():
    assert holder_exponent(Fraction(2), Fraction(1), Fraction(1)) == Fraction(2, 9)
    assert holder_exponent(Fraction(1), Fraction(1), Fraction(1)) == Fraction(1, 4)
    assert holder_exponent(Fraction(4), Fraction(1), Fraction(1)) == Fraction(1, 9)


def test_holder_exponent_branch_switch():
    # max picks the p-branch when 2p >= alpha*beta
    assert holder_exponent(1.0, 1.0, 1.0) == pytest.approx(0.25)
    assert holder_exponent(2.0, 1.0, 1.0) == pytest.approx(2.0 / 9.0)


def test_holder_exponent_monotonicity_grid():
    alphas = np.linspace(0.0, 3.0, 13)
    betas = np.linspace(0.1, 3.0, 13)
    for p in (1.0, 1.5, 2.0):
        for b in betas:
            vals = [holder_exponent(p, a, b) for a in alphas]
            assert all(v1 >= v2 - 1e-15 for v1, v2 in zip(vals, vals[1:]))
        for a in alphas:
            vals = [holder_exponent(p, a, b) for b in betas]
            assert all(v1 <= v2 + 1e-15 for v1, v2 in zip(vals, vals[1:]))


def test_holder_exponent_validation():
    with pytest.raises(ValueError):
        holder_exponent(0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        holder_exponent(2.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        holder_exponent(2.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        holder_exponent(math.nan, 1.0, 1.0)
    with pytest.raises(ValueError):
        holder_exponent(2.0, math.nan, 1.0)
    with pytest.raises(ValueError):
        holder_exponent(math.inf, 1.0, 1.0)


# -- verify_holder ---------------------------------------------------------------


def _unit_fit():
    F = primitive(GridFunction1D.const(1.0, UNIT, 1024))
    return fit_exponents(F, np.geomspace(2.0**-3, 2.0**-10, 8), 16)


def test_verify_holder_identical_pair():
    n = 1024
    a = GridFunction1D.const(1.0, UNIT, n)
    f = GridFunction1D.const(1.0, UNIT, n)
    fit = _unit_fit()
    rep = verify_holder(a, a, f, 2.0, fit.alpha, fit.beta)
    assert rep.metrics["lhs"] == 0.0
    assert rep.metrics["constant_needed"] == 0.0


def test_verify_holder_returns_a_holder_report():
    n = 256
    a = GridFunction1D.const(1.0, UNIT, n)
    b = GridFunction1D.const(1.5, UNIT, n)
    f = GridFunction1D.const(1.0, UNIT, n)
    rep = verify_holder(a, b, f, 2, 1, 1)
    assert rep.name == "holder" and rep.passed and rep.notes == ""
    assert rep.inputs == {"p": 2.0, "alpha": 1.0, "beta": 1.0}
    assert list(rep.metrics) == ["lhs", "rhs_norm", "exponent", "constant_needed", "eta",
                                 "c0_implied"]
    assert rep.metrics["exponent"] == pytest.approx(2.0 / 9.0)


def test_verify_holder_constant_pair():
    n = 2048
    a = GridFunction1D.const(1.0, UNIT, n)
    b = GridFunction1D.const(1.5, UNIT, n)
    f = GridFunction1D.const(1.0, UNIT, n)
    fit = _unit_fit()
    rep = verify_holder(a, b, f, 2.0, fit.alpha, fit.beta)
    assert rep.metrics["exponent"] == pytest.approx(2.0 / 9.0, abs=0.02)
    assert np.isfinite(rep.metrics["constant_needed"]) and rep.metrics["constant_needed"] > 0
    assert rep.metrics["eta"] > 0


def test_verify_holder_bounded_over_random_pairs():
    n = 1024
    rng = np.random.default_rng(42)
    f = GridFunction1D.const(1.0, UNIT, n)
    fit = _unit_fit()
    x = np.linspace(0.0, 1.0, n + 1)
    bounds = CoefficientBounds(0.5, 2.0)
    consts = []
    for _ in range(25):
        ca = rng.uniform(0.6, 1.9, 3)
        cb = rng.uniform(0.6, 1.9, 3)
        a = GridFunction1D(UNIT, np.interp(x, [0.0, 0.5, 1.0], ca))
        b = GridFunction1D(UNIT, np.interp(x, [0.0, 0.5, 1.0], cb))
        assert bounds.admits(a.values) and bounds.admits(b.values)
        rep = verify_holder(a, b, f, 2.0, fit.alpha, fit.beta)
        consts.append(rep.metrics["constant_needed"])
    assert np.isfinite(max(consts))


def test_verify_holder_flags_violation_on_degenerate_source():
    # f = 0 makes u' identically zero for every coefficient: a != b with
    # rhs = 0 must raise
    n = 256
    a = GridFunction1D.const(1.0, UNIT, n)
    b = GridFunction1D.const(1.5, UNIT, n)
    f = GridFunction1D.const(0.0, UNIT, n)
    fit = _unit_fit()
    with pytest.raises(RuntimeError, match="identifiability violation"):
        verify_holder(a, b, f, 2.0, fit.alpha, fit.beta)


def test_verify_holder_tiny_source_scales_like_a_unit_one():
    # u' scales with f and the zero test is relative to |u'|: f = 1e-14 is
    # measured, and the constant needed grows by (1e14)^exponent
    n = 2048
    a = GridFunction1D.const(1.0, UNIT, n)
    b = GridFunction1D.const(1.5, UNIT, n)
    fit = _unit_fit()
    unit, tiny = (verify_holder(a, b, GridFunction1D.const(c, UNIT, n), 2.0, fit.alpha,
                                fit.beta).metrics for c in (1.0, 1e-14))
    assert tiny["lhs"] == unit["lhs"]
    assert tiny["rhs_norm"] == pytest.approx(1e-14 * unit["rhs_norm"], rel=1e-9)
    assert tiny["constant_needed"] == \
        pytest.approx(unit["constant_needed"] * 1e14 ** unit["exponent"], rel=1e-9)


# -- dyadic family ---------------------------------------------------------------


def test_dyadic_family_tail_bound_enforced():
    # no tail is dropped: eight scales past the profile's loop, each summed
    # over every node, change no bit of u or du
    for alpha_d in (0.55, 4.0, 6.0):
        fam = DyadicFamily(alpha_d=alpha_d, beta_d=0.0)
        for n in (1000, 2**16):
            u, du = dyadic_profile(fam, n)
            u_ref, du_ref = dyadic_profile_oracle(alpha_d, n.bit_length() + 8, n)
            assert u.values.tobytes() == u_ref.tobytes()
            assert du.values.tobytes() == du_ref.tobytes()
    with pytest.raises(ValueError, match="alpha_d"):
        DyadicFamily(alpha_d=0.5, beta_d=0.0)


@pytest.mark.parametrize("beta_d", [0.5, math.nan])
def test_dyadic_family_rejects_beta_above_zero_or_nan(beta_d):
    with pytest.raises(ValueError, match="beta_d must be <= 0"):
        DyadicFamily(alpha_d=2.0, beta_d=beta_d)


def test_dyadic_profile_even_with_zero_boundary():
    fam = DyadicFamily(alpha_d=2.0, beta_d=0.0)
    u, du = dyadic_profile(fam, 2**10)
    assert u.values[0] == 0.0 and u.values[-1] == 0.0
    assert np.array_equal(u.values, u.values[::-1])
    assert np.array_equal(du.values, -du.values[::-1])


def _dyadic_levels(fam, js, n):
    """Per j, a_j and the V gap |u_j' - u'|_{L2}, where u_j solves the problem
    with coefficient a_j and the profile's source f = -u'', given to the
    solver as its primitive F = -du + du(-1), as dyadic_rate does."""
    _, du = dyadic_profile(fam, n)
    F = du.with_values(-du.values + du.values[0])
    for j in js:
        a_j = dyadic_coefficient(fam, int(j), n)
        sol = solve_from_primitive(a_j, F, bounds=CoefficientBounds(1.0, 2.0))
        yield a_j, lp_norm(sol.du - du, 2.0)


def test_dyadic_j0_constant_coefficient_scaling():
    fam = DyadicFamily(alpha_d=2.0, beta_d=0.0)
    _, du = dyadic_profile(fam, 2**12)
    a_0 = dyadic_coefficient(fam, 0, 2**12)
    sol = solve_from_primitive(a_0, du.with_values(-du.values + du.values[0]),
                               bounds=CoefficientBounds(1.0, 2.0))
    assert np.all(a_0.values == 2.0)
    assert lp_norm(sol.du - du * 0.5, 2.0) < 1e-8


def test_dyadic_v_gap_slope():
    fam = DyadicFamily(alpha_d=2.0, beta_d=0.0)
    n = 2**14
    js = np.arange(4, 9)
    gaps = [gap for _, gap in _dyadic_levels(fam, js, n)]
    slope = np.polyfit(js, np.log2(gaps), 1)[0]
    assert slope == pytest.approx(-1.5, abs=0.1)


def test_dyadic_coefficient_l1_slope():
    fam = DyadicFamily(alpha_d=2.0, beta_d=0.0)
    n = 2**14
    js = np.arange(4, 9)
    norms = [lp_norm(dyadic_coefficient(fam, int(j), n) - 1.0, 1.0) for j in js]
    slope = np.polyfit(js, np.log2(norms), 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.02)


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=1.0, max_value=3.5))
def test_dyadic_geometric_decay_ratio(alpha_d):
    fam = DyadicFamily(alpha_d=alpha_d, beta_d=0.0)
    n = 2**14
    gaps = [gap for _, gap in _dyadic_levels(fam, range(4, 9), n)]
    expected = 2.0 ** (-(alpha_d - 0.5))
    for g1, g2 in zip(gaps, gaps[1:]):
        assert g2 / g1 == pytest.approx(expected, rel=0.1)


def test_dyadic_rate_reproduces_gamma():
    fam = DyadicFamily(alpha_d=2.0, beta_d=0.0)
    rep = dyadic_rate(fam, 1.0, range(4, 9), 2**14)
    assert rep.passed
    assert rep.metrics["gamma"] == pytest.approx(2.0 / 3.0)
    assert abs(rep.metrics["slope"] - 2.0 / 3.0) / (2.0 / 3.0) < 0.15


def test_dyadic_rate_needs_three_points():
    fam = DyadicFamily(alpha_d=2.0, beta_d=0.0)
    with pytest.raises(ValueError, match="fewer than 3"):
        dyadic_rate(fam, 1.0, range(4, 6), 2**12)


def test_dyadic_linf_gap_is_one():
    fam = DyadicFamily(alpha_d=1.0, beta_d=0.0)
    for j in (4, 6, 8):
        a_j = dyadic_coefficient(fam, j, 2**14)
        assert lp_norm(a_j - 1.0, np.inf) == pytest.approx(1.0, abs=1e-12)


def test_dyadic_constant_bounded_only_at_measured_rate():
    # c_j = |a - a_j|_p / |u - u_j|_V^e stays bounded for e = gamma and
    # diverges for any larger exponent
    fam = DyadicFamily(alpha_d=2.0, beta_d=0.0)
    p = 1.0
    gamma = 2.0 / 3.0
    n = 2**14
    xs, ys = [], []
    for a_j, gap in _dyadic_levels(fam, range(4, 10), n):
        xs.append(gap)
        ys.append(lp_norm(a_j - 1.0, p))
    at_gamma = [y / x**gamma for x, y in zip(xs, ys)]
    too_big = [y / x ** (1.5 * gamma) for x, y in zip(xs, ys)]
    assert max(at_gamma) / min(at_gamma) < 1.5
    assert too_big[-1] > 5.0 * too_big[0]
    assert all(c2 > c1 for c1, c2 in zip(too_big, too_big[1:]))
