import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from coeffid import counterexamples
from coeffid.counterexamples import (
    IntervalSet,
    inhomogeneous_pair,
    svc_set,
    volterra_pair,
    weak_form_residual,
)
from coeffid.grids import CoefficientBounds, quadrature
from coeffid.inverse import recover


def test_svc_level_one_intervals():
    s = svc_set(1)
    assert s.intervals.tolist() == [[Fraction(0), Fraction(3, 8)], [Fraction(5, 8), Fraction(1)]]
    assert s.measure == Fraction(3, 4)


def _svc_fractions(level):
    """The level-n Smith-Volterra-Cantor intervals in exact rationals."""
    pieces = [(Fraction(0), Fraction(1))]
    for k in range(1, level + 1):
        half = Fraction(1, 2 * 4**k)
        pieces = [piece for a, b in pieces
                  for piece in ((a, (a + b) / 2 - half), ((a + b) / 2 + half, b))]
    return pieces


def test_svc_intervals_equal_the_rational_construction():
    for level in range(1, 13):
        iv = svc_set(level).intervals
        assert iv.dtype == np.float64 and iv.shape == (2**level, 2)
        assert not iv.flags.writeable
        # Fraction == float compares exact values: no endpoint was rounded
        assert iv.tolist() == [list(p) for p in _svc_fractions(level)]


def test_svc_measure_formula_exact():
    for level in range(1, 12):
        assert svc_set(level).measure == Fraction(1, 2) + Fraction(1, 2 ** (level + 1))


def test_svc_measure_monotone_limit_one_half():
    measures = [float(svc_set(k).measure) for k in range(1, 16)]
    assert all(m1 > m2 for m1, m2 in zip(measures, measures[1:]))
    assert measures[-1] == pytest.approx(0.5, abs=2.0**-16)


def test_svc_level_out_of_range():
    with pytest.raises(ValueError):
        svc_set(0)
    with pytest.raises(ValueError):
        svc_set(21)


def test_interval_set_validation():
    with pytest.raises(ValueError):
        IntervalSet(((Fraction(1, 2), Fraction(1, 4)),))
    with pytest.raises(ValueError):
        IntervalSet(((Fraction(0), Fraction(3, 4)), (Fraction(1, 2), Fraction(1)),))
    for rows, match in [
        ([[-0.25, 0.5]], "inside"),
        ([[0.5, 1.25]], "inside"),
        ([[0.25, 0.25]], "nondegenerate"),
        ([[np.nan, 0.5]], "inside"),
        ([[0.25, np.nan]], "inside"),
        ([[0.5, 0.75], [0.0, 0.25]], "sorted"),
        ([[0.0, 0.5], [0.25, 0.75]], "disjoint"),
        ([0.0, 0.5], r"\(k, 2\)"),
        ([[0.0, 0.25, 0.5]], r"\(k, 2\)"),
    ]:
        with pytest.raises(ValueError, match=match):
            IntervalSet(rows)
    # members may touch
    touching = IntervalSet([[0.0, 0.5], [0.5, 1.0]])
    assert touching.measure == 1.0 and touching.gaps().shape == (0, 2)


def test_svc_gaps_partition_complement():
    s = svc_set(3)
    total = s.measure + sum(b - a for a, b in s.gaps())
    assert total == 1


def test_volterra_certificate_level3():
    pair = volterra_pair(3, 2**15, 0.5)
    assert pair.residual_a < 1e-8
    assert pair.residual_b < 1e-8
    assert pair.coeff_gap == pytest.approx(0.5 * (0.5 + 2.0**-4), abs=1e-6)
    assert pair.coeff_gap >= 0.28


def test_volterra_w_vanishes_on_kept_set():
    pair = volterra_pair(2, 2**13, 0.5)
    x = pair.du.x
    on_kept = pair.kept_set.indicator(x) >= 1.0
    assert np.all(pair.du.values[on_kept] == 0.0)
    assert abs(pair.u.values[-1]) < 1e-15


def test_volterra_solution_matches_closed_form():
    # integrating w = L^2 phi'((x - al)/L) gives u = L^3 phi(t) inside each
    # gap; agreement is limited by the pointwise O(h^2) cumulative trapezoid
    pair = volterra_pair(2, 2**14, 0.5)
    x = pair.u.x
    expected = np.zeros_like(x)
    for al, be in pair.kept_set.gaps():
        al_f, be_f = float(al), float(be)
        L = be_f - al_f
        m = (x > al_f) & (x < be_f)
        t = (x[m] - al_f) / L
        expected[m] = L**3 * np.exp(-1.0 / (t * (1.0 - t)))
    assert np.abs(pair.u.values - expected).max() < pair.u.h ** 2
    assert np.abs(pair.u.values - expected).max() < 1e-6 * np.abs(expected).max()


def test_volterra_source_nonzero_on_every_gap():
    pair = volterra_pair(3, 2**15, 0.5)
    x = pair.f.x
    for al, be in pair.kept_set.gaps():
        inside = (x > float(al)) & (x < float(be))
        assert np.abs(pair.f.values[inside]).max() > 0.0
    # and f = 0 on the interior of every kept component
    for al, be in pair.kept_set.intervals:
        inside = (x > float(al)) & (x < float(be))
        assert np.all(pair.f.values[inside] == 0.0)


def test_pair_passes_only_below_its_tolerance_with_distinct_coefficients():
    pair = volterra_pair(2, 2**12, 0.5)
    assert pair.tol == 1e-8 and pair.passed
    assert inhomogeneous_pair(64).tol == 1e-9 and inhomogeneous_pair(64).passed
    for change in [{"residual_a": 2e-8}, {"residual_b": 1e-8}, {"residual_b": math.nan},
                   {"coeff_gap": 0.0}]:
        assert not dataclasses.replace(pair, **change).passed


def test_volterra_amp_zero_rejected_small_amp_ok():
    with pytest.raises(ValueError):
        volterra_pair(3, 2**15, 0.0)
    pair = volterra_pair(3, 2**15, 1e-3)
    assert pair.coeff_gap == pytest.approx(1e-3 * 0.5625)
    assert pair.residual_a == pair.residual_b == 0.0


def test_volterra_under_resolved_grid_rejected():
    with pytest.raises(ValueError, match="resolve"):
        volterra_pair(3, 128, 0.5)


@pytest.mark.parametrize("level, n, amp, match", [
    (16, 2**15, 0.5, "resolve"),
    (3, 2**15, 1.5, "bump_amp"),
    (3, 2**15, 0.0, "bump_amp"),
])
def test_volterra_rejects_bad_input_before_building_the_set(level, n, amp, match, monkeypatch):
    def unbuilt(level):
        raise AssertionError("svc_set called")

    monkeypatch.setattr(counterexamples, "svc_set", unbuilt)
    with pytest.raises(ValueError, match=match):
        volterra_pair(level, n, amp)


def _nudged_grid(lo, hi, n):
    """linspace(lo, hi, n + 1) with the interior nodes moved by up to 2e-13:
    nodes land within and just outside the edge tolerance of the members."""
    x = np.linspace(lo, hi, n + 1)
    x[1:-1] += np.resize([-1.9e-13, -0.9e-13, 0.0, 0.9e-13, 1.9e-13], n - 1)
    return x


@pytest.mark.parametrize("level", [3, 4, 5, 6])
def test_indicator_matches_full_grid_passes(level):
    S = svc_set(level)
    m = 8 * 4**level
    grids = [np.linspace(0.0, 1.0, m + 1), np.linspace(0.0, 1.0, 3 * m + 1),
             np.linspace(0.0, 1.0, m + 4), np.linspace(-0.25, 1.25, 2 * m + 1),
             _nudged_grid(0.0, 1.0, m), _nudged_grid(-0.5, 1.0, 3 * m)]
    for x in grids:
        assert S.indicator(x).tobytes() == oracles.interval_set_indicator(S, x).tobytes()


def test_volterra_b_is_the_full_grid_indicator():
    pair = volterra_pair(4, 8 * 4**4, 0.5)
    ref = 1.0 + 0.5 * oracles.interval_set_indicator(svc_set(4), pair.b.x)
    assert pair.b.values.tobytes() == ref.tobytes()


def test_volterra_recovery_masks_kept_set():
    pair = volterra_pair(3, 2**15, 0.5)
    bounds = CoefficientBounds(0.5, 2.0)
    res = recover(pair.du, pair.f, bounds, threshold=0.25 * np.abs(pair.du.values).max())
    assert res.fraction_degenerate >= float(pair.kept_set.measure)
    off = ~res.degenerate_mask
    assert np.abs(res.a.values[off] - 1.0).max() < 1e-6


def test_volterra_recovery_exact_with_primitive_source():
    # supplying F = -w directly removes the quadrature error of primitive(f),
    # so the recovered coefficient is exactly 1 off the mask
    from coeffid.inverse import recover_from_primitive

    pair = volterra_pair(3, 2**15, 0.5)
    F = pair.du.with_values(-pair.du.values + pair.du.values[0])
    res = recover_from_primitive(pair.du, F, CoefficientBounds(0.5, 2.0))
    off = ~res.degenerate_mask
    assert np.abs(res.a.values[off] - 1.0).max() < 1e-12
    assert res.fraction_degenerate >= float(pair.kept_set.measure)


def test_volterra_weak_residual_detects_broken_pair():
    # sanity of the certificate itself: a coefficient jump off the kept set
    # must produce a nonzero residual
    pair = volterra_pair(2, 2**12, 0.5)
    x = pair.a.x
    bad = pair.a.with_values(np.where(x > 0.5, 1.7, 1.0))
    F = pair.du.with_values(-pair.du.values + pair.du.values[0])
    assert weak_form_residual(bad, pair.du, F) > 1e-6


def test_inhomogeneous_flux_identities():
    pair = inhomogeneous_pair(512)
    assert pair.residual_a < 1e-12
    assert pair.residual_b < 1e-12
    assert pair.a.values[0] == pytest.approx(3.0)
    assert pair.a.values[-1] == pytest.approx(5.0 / 3.0)
    assert pair.coeff_gap == pytest.approx(math.log(3.0), abs=1e-12)


def test_inhomogeneous_gap_matches_quadrature():
    pair = inhomogeneous_pair(4096)
    assert quadrature(abs(pair.a - pair.b)) == pytest.approx(math.log(3.0), abs=1e-6)


def test_inhomogeneous_boundary_values_nonzero():
    pair = inhomogeneous_pair(64)
    assert pair.u.values[0] < 0.0
    assert pair.u.values[-1] < 0.0
    assert pair.u.values[0] != pair.u.values[-1]


def test_inhomogeneous_n_validation():
    with pytest.raises(ValueError):
        inhomogeneous_pair(8)
