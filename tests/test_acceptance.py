"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line each. Tests are ordered and share the forward-solve corpus
built by criterion 1 (criterion 2 checks the flux identity across it)."""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from coeffid.cli import main as cli_main
from coeffid.counterexamples import inhomogeneous_pair, volterra_pair
from coeffid.forward import solve, solve_from_primitive
from coeffid.gmt import coarea_check, good_levels, level_perimeter
from coeffid.grids import (
    CoefficientBounds,
    GridFunction1D,
    Interval,
    lp_norm,
    quadrature,
)
from coeffid.inverse import recover
from coeffid.pw2d import (
    Partition2D,
    PwConstCoefficient,
    fem_solve,
    hminus1_norm,
    recover_pw,
    verify_pw_bound,
)
from coeffid.stability import (
    DyadicFamily,
    dyadic_coefficient,
    dyadic_profile,
    dyadic_rate,
    holder_exponent,
    verify_holder,
)

UNIT = Interval(0.0, 1.0)
BOUNDS = CoefficientBounds(0.5, 2.0)

_solve_corpus = []


def _report(num, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {detail} ({elapsed:.2f}s)")


def _random_smooth_admissible(rng, n):
    x = np.linspace(0.0, 1.0, n + 1)
    g = np.zeros_like(x)
    for k in range(1, 5):
        g += rng.uniform(-1.0, 1.0) * np.sin(k * np.pi * x)
        g += rng.uniform(-1.0, 1.0) * np.cos(k * np.pi * x)
    sup = max(np.abs(g).max(), 1e-12)
    return GridFunction1D(UNIT, 1.25 + 0.55 * g / sup)


def test_criterion_01_roundtrip_identifiability():
    t0 = time.perf_counter()
    n = 4096
    rng = np.random.default_rng(2024)
    f = GridFunction1D.from_callable(lambda x: 1.0 - 2.0 * x, UNIT, n)
    worst = 0.0
    for _ in range(20):
        a = _random_smooth_admissible(rng, n)
        sol = solve(a, f, bounds=BOUNDS)
        _solve_corpus.append((a, sol))
        res = recover(sol.du, f, BOUNDS)
        diff = np.where(res.degenerate_mask, 0.0, res.a.values - a.values)
        err = quadrature(a.with_values(np.abs(diff)))
        worst = max(worst, err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-3 and elapsed < 5.0
    _report(1, ok, f"worst unmasked L1 error {worst:.2e} over 20 roundtrips", elapsed)
    assert worst < 1e-3
    assert elapsed < 5.0


def test_criterion_02_flux_identity_everywhere():
    t0 = time.perf_counter()
    assert _solve_corpus, "criterion 1 must run first"
    worst_rel = 0.0
    for a, sol in _solve_corpus:
        scale = 1.0 + abs(sol.Ca) + float(np.abs(sol.F.values).max())
        resid = float(np.abs(a.values * sol.du.values + sol.F.values - sol.Ca).max())
        worst_rel = max(worst_rel, resid / scale)
        assert resid < 1e-10 * scale
    elapsed = time.perf_counter() - t0
    _report(2, True, f"worst normalized flux residual {worst_rel:.2e} on {len(_solve_corpus)} solves", elapsed)


def test_criterion_03_holder_exponents_and_constants():
    t0 = time.perf_counter()
    assert holder_exponent(Fraction(2), Fraction(1), Fraction(1)) == Fraction(2, 9)
    assert holder_exponent(Fraction(1), Fraction(1), Fraction(1)) == Fraction(1, 4)

    n = 1024
    rng = np.random.default_rng(7)
    f = GridFunction1D.const(1.0, UNIT, n)
    x = np.linspace(0.0, 1.0, n + 1)
    consts = []
    for _ in range(100):
        knots = np.linspace(0.0, 1.0, 5)
        a = GridFunction1D(UNIT, np.interp(x, knots, rng.uniform(0.6, 1.9, 5)))
        b = GridFunction1D(UNIT, np.interp(x, knots, rng.uniform(0.6, 1.9, 5)))
        assert BOUNDS.admits(a.values) and BOUNDS.admits(b.values)
        rep = verify_holder(a, b, f, 2.0, 1.0, 1.0)
        assert rep.metrics["exponent"] == pytest.approx(2.0 / 9.0)
        consts.append(rep.metrics["constant_needed"])
    baseline = max(consts)
    elapsed = time.perf_counter() - t0
    ok = np.isfinite(baseline) and elapsed < 30.0
    _report(3, ok, f"exact exponents 2/9 and 1/4; regression baseline max constant {baseline:.4f}", elapsed)
    assert np.isfinite(baseline)
    assert elapsed < 30.0


def test_criterion_04_dyadic_rates():
    t0 = time.perf_counter()
    n = 2**16
    targets = [(2.0, 0.0, 1.0, 2.0 / 3.0), (1.0, 0.0, 1.0, 2.0), (4.0, 0.0, 2.0, 1.0 / 7.0)]
    details = []
    for alpha_d, beta_d, p, gamma in targets:
        fam = DyadicFamily(alpha_d=alpha_d, beta_d=beta_d)
        rep = dyadic_rate(fam, p, range(4, 11), n)
        assert rep.metrics["gamma"] == pytest.approx(gamma, rel=1e-12)
        assert rep.metrics["rel_deviation"] <= 0.15
        details.append(f"({alpha_d:g},{beta_d:g},p={p:g}): slope {rep.metrics['slope']:.3f} vs {gamma:.3f}")
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    _report(4, ok, "; ".join(details), elapsed)
    assert elapsed < 60.0


def test_criterion_05_linf_failure():
    t0 = time.perf_counter()
    fam = DyadicFamily(alpha_d=1.0, beta_d=0.0)
    n = 2**16
    _, du = dyadic_profile(fam, n)
    F = du.with_values(-du.values + du.values[0])
    gaps = []
    for j in range(4, 11):
        a_j = dyadic_coefficient(fam, j, n)
        sol = solve_from_primitive(a_j, F, bounds=CoefficientBounds(1.0, 2.0))
        gaps.append(lp_norm(sol.du - du, 2.0))
        linf = lp_norm(a_j - 1.0, np.inf)
        assert abs(linf - 1.0) <= 1e-12
    for g1, g2 in zip(gaps, gaps[1:]):
        assert g2 <= 0.75 * g1
    elapsed = time.perf_counter() - t0
    _report(5, True, f"V gaps fall {gaps[0]:.2e} -> {gaps[-1]:.2e} while Linf gap stays 1", elapsed)


def test_criterion_06_coarea_and_good_levels():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst = 0.0
    x = np.linspace(0.0, 1.0, 513)
    for _ in range(50):
        xb = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, 50)), [1.0]])
        yb = rng.uniform(-2.0, 2.0, xb.size)
        h = GridFunction1D(UNIT, np.interp(x, xb, yb))
        rep = coarea_check(h)
        worst = max(worst, rep.metrics["rel_error"])
        assert rep.metrics["rel_error"] < 1e-12
        levels = good_levels(h, 0.5)
        assert levels
        for t in levels:
            assert level_perimeter(h, t) <= 1.0 / (t * abs(np.log(t)))
    elapsed = time.perf_counter() - t0
    _report(6, True, f"worst coarea relative error {worst:.2e} over 50 profiles", elapsed)


def test_criterion_07_nonidentifiability_certificates():
    t0 = time.perf_counter()
    pair = volterra_pair(3, 2**15, 0.5)
    assert pair.residual_a < 1e-8
    assert pair.residual_b < 1e-8
    assert pair.coeff_gap >= 0.28
    assert pair.coeff_gap == pytest.approx(0.5 * (0.5 + 2.0**-4), abs=1e-6)

    ip = inhomogeneous_pair(512)
    assert ip.residual_a < 1e-12
    assert ip.residual_b < 1e-12
    elapsed = time.perf_counter() - t0
    _report(
        7, True,
        f"volterra residuals ({pair.residual_a:.1e}, {pair.residual_b:.1e}), gap {pair.coeff_gap:.5f}; "
        f"boundary-pair residuals ({ip.residual_a:.1e}, {ip.residual_b:.1e})",
        elapsed,
    )


def test_criterion_08_pw_bound():
    t0 = time.perf_counter()
    m = 64
    one = Partition2D(1, 1)
    rep = verify_pw_bound(
        PwConstCoefficient(one, np.array([1.0])),
        PwConstCoefficient(one, np.array([2.0])),
        1.0, m,
    )
    analytic_ratio = rep.metrics["max_ratio"]
    assert analytic_ratio == pytest.approx(0.5, abs=0.02)

    part = Partition2D(2, 2)
    rng = np.random.default_rng(31)
    hm = np.array([hminus1_norm(1.0, part, i, m) for i in range(4)])
    slack = 1.0 + 5.0 / m
    worst = 0.0
    for _ in range(50):
        a = PwConstCoefficient(part, rng.uniform(0.5, 2.0, 4))
        b = PwConstCoefficient(part, rng.uniform(0.5, 2.0, 4))
        r = verify_pw_bound(a, b, 1.0, m, bounds=BOUNDS, block_hminus1=hm)
        worst = max(worst, r.metrics["max_ratio"])
        assert r.passed
    elapsed = time.perf_counter() - t0
    ok = worst <= slack and elapsed < 120.0
    _report(8, ok, f"analytic ratio {analytic_ratio:.3f}; worst random-block ratio {worst:.3f} <= {slack:.3f}", elapsed)
    assert worst <= slack
    assert elapsed < 120.0


def test_criterion_09_pw_recovery_roundtrip():
    t0 = time.perf_counter()
    part = Partition2D(2, 2)
    truth = PwConstCoefficient(part, np.array([1.0, 1.5, 0.8, 1.2]))
    m = 64
    u_meas = fem_solve(truth, 1.0, m)
    res = recover_pw(u_meas, 1.0, part, BOUNDS, m)
    err = float(np.abs(res.coeff.coeffs - truth.coeffs).max())
    assert res.converged
    assert err < 1e-3

    degenerate = recover_pw(np.zeros((m + 1, m + 1)), 0.0, part, BOUNDS, m)
    assert degenerate.warning is not None
    elapsed = time.perf_counter() - t0
    _report(9, True, f"4-block recovery max error {err:.2e}; zero-source case warns", elapsed)


def test_criterion_10_determinism(tmp_path):
    t0 = time.perf_counter()
    args = ["pw2d", "verify", "--nx", "2", "--ny", "2", "--m", "32",
            "--trials", "5", "--seed", "123"]
    outs = []
    for tag in ("r1", "r2"):
        out = tmp_path / tag
        assert cli_main(args + ["--out", str(out)]) == 0
        outs.append(out)
    for name in ("pw2d_verify.json", "pw2d_verify.csv", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    for tag in ("d1", "d2"):
        out = tmp_path / tag
        assert cli_main(["dyadic", "--alpha", "2", "--beta", "0", "--p", "1",
                         "--jmax", "7", "--n", str(2**13), "--out", str(out)]) == 0
    assert (tmp_path / "d1" / "dyadic.json").read_bytes() == (tmp_path / "d2" / "dyadic.json").read_bytes()
    elapsed = time.perf_counter() - t0
    _report(10, True, "seeded sweeps and deterministic runs emit byte-identical reports", elapsed)
