import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coeffid.gmt import (
    LEVEL_FLOOR,
    _perimeters_between_events,
    coarea_check,
    coarea_integral,
    good_levels,
    level_perimeter,
    total_variation,
)
from coeffid.grids import GridFunction1D, Interval, indicator_values

UNIT = Interval(0.0, 1.0)


def from_fn(fn, n, interval=UNIT):
    return GridFunction1D.from_callable(fn, interval, n)


def random_piecewise_linear(rng, n_break=50, n=512):
    xb = np.sort(rng.uniform(0.0, 1.0, n_break))
    xb = np.concatenate([[0.0], xb, [1.0]])
    yb = rng.uniform(-2.0, 2.0, xb.size)
    x = np.linspace(0.0, 1.0, n + 1)
    return GridFunction1D(UNIT, np.interp(x, xb, yb))


def test_tv_identity():
    assert total_variation(from_fn(lambda x: x, 64)) == pytest.approx(1.0, abs=1e-14)


def test_tv_indicator_jumps():
    g = GridFunction1D.const(0.0, UNIT, 64)
    h = g.with_values(indicator_values(g.x, 0.25, 0.75))
    assert total_variation(h) == pytest.approx(2.0, abs=1e-14)


def test_tv_sine_monotone_pieces():
    h = from_fn(lambda x: np.sin(2 * np.pi * x), 4096)
    assert total_variation(h) == pytest.approx(4.0, abs=1e-4)


def test_level_perimeter_examples():
    assert level_perimeter(from_fn(lambda x: x, 64), 0.5) == 1
    assert level_perimeter(from_fn(lambda x: np.sin(2 * np.pi * x), 256), 0.0) == 1
    assert level_perimeter(GridFunction1D.const(3.0, UNIT, 16), 1.0) == 0


def test_level_perimeter_grazing_touch_not_counted():
    # parabola touching the level from below: no transversal crossing
    h = from_fn(lambda x: -((x - 0.5) ** 2), 64)
    assert level_perimeter(h, 0.0) == 0


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=200))
def test_level_perimeter_monotone_function(k):
    h = from_fn(lambda x: x**1.0, k + 1)
    for t in np.linspace(-0.5, 1.5, 11):
        assert level_perimeter(h, float(t)) in (0, 1)


def test_coarea_identity_linear():
    rep = coarea_check(from_fn(lambda x: x, 128))
    assert rep.metrics["rel_error"] == 0.0
    assert rep.passed


def test_coarea_exact_on_random_piecewise_linear():
    rng = np.random.default_rng(11)
    for _ in range(20):
        h = random_piecewise_linear(rng)
        rep = coarea_check(h)
        assert rep.metrics["rel_error"] < 1e-12


def test_coarea_on_indicator_profile():
    # two jumps of size amp: TV = 2 amp, and the band integral matches
    amp = 0.125
    g = GridFunction1D.const(0.0, Interval(-1.0, 1.0), 256)
    h = g.with_values(amp * indicator_values(g.x, -0.25, 0.25))
    assert total_variation(h) == pytest.approx(2 * amp, abs=1e-15)
    assert coarea_integral(h) == pytest.approx(2 * amp, abs=1e-15)


def test_coarea_adjacent_float_events():
    # consecutive events one ulp apart: a band midpoint would round onto an
    # event and lose the band
    up = np.nextafter(0.5, 1.0)
    h = GridFunction1D(UNIT, np.array([0.5, up, 0.5, up, np.nextafter(up, 1.0), 0.5]))
    assert total_variation(h) > 0.0
    assert coarea_integral(h) == total_variation(h)
    assert coarea_check(h).passed


def test_coarea_check_constant_profile_at_large_magnitude():
    # vmin -+ 1 rounds to vmin itself, so the level grid collapses
    rep = coarea_check(GridFunction1D.const(1e17, UNIT, 16))
    assert rep.passed
    assert rep.curves["t"] == [1e17]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(-100, 100), st.integers(1, 4)), min_size=2, max_size=60))
def test_band_counts_match_level_perimeter(runs):
    # plateaus and repeated values, two decimals: each band's count is the
    # crossing count at a level strictly inside it
    values = np.repeat([k / 100.0 for k, _ in runs], [r for _, r in runs])
    h = GridFunction1D(UNIT, values)
    events = np.unique(values)
    counts = _perimeters_between_events(h, events)
    for k, c in enumerate(counts):
        t = 0.5 * (events[k] + events[k + 1])
        assert events[k] < t < events[k + 1]
        assert c == level_perimeter(h, t)


def test_coarea_check_large_profile():
    # n = 2^18 is minutes for a cell-by-band scan; sorted counting is O(n log n)
    rng = np.random.default_rng(3)
    h = random_piecewise_linear(rng, n_break=200, n=2**18)
    assert coarea_check(h).metrics["rel_error"] < 1e-12


def test_coarea_nlevels_validation():
    with pytest.raises(ValueError):
        coarea_check(from_fn(lambda x: x, 32), nlevels=4)


def test_good_levels_linear_profile():
    h = from_fn(lambda x: x, 256)
    levels = good_levels(h, 0.5)
    assert levels
    assert all(l2 < l1 for l1, l2 in zip(levels, levels[1:]))
    for t in levels:
        assert level_perimeter(h, t) <= 1.0 / (t * abs(math.log(t)))


def test_good_levels_zero_function():
    h = GridFunction1D.const(0.0, UNIT, 64)
    # empty superlevel sets have zero perimeter: every level qualifies
    levels = good_levels(h, 0.5)
    assert len(levels) == 29


def test_good_levels_oscillatory_tail_nonempty_per_decade():
    # the budget 1/(t |ln t|) grows as t -> 0, so every tail decade is covered
    # even for a profile with an oscillatory graph
    h = from_fn(lambda x: np.where(x > 0, x * np.sin(1.0 / np.maximum(x, 1e-9)) ** 2, 0.0), 8192)
    levels = good_levels(h, 0.5)
    assert min(levels) < 1e-6
    decades = {math.floor(math.log10(t)) for t in levels}
    for d in range(-4, -9, -1):
        assert d in decades


def test_good_levels_validation():
    h = from_fn(lambda x: x, 64)
    with pytest.raises(ValueError):
        good_levels(h, 1.5)
    with pytest.raises(ValueError):
        good_levels(GridFunction1D.const(-1.0, UNIT, 16), 0.5)


def test_good_levels_rejects_start_at_or_below_floor():
    # the scan runs only while t > LEVEL_FLOOR: such a start scans no level
    h = from_fn(lambda x: x, 64)
    for t_start in (LEVEL_FLOOR, 1e-10, 0.0, math.nan):
        with pytest.raises(ValueError, match="t_start"):
            good_levels(h, t_start)
    assert good_levels(h, 2.0 * LEVEL_FLOOR) == [2.0 * LEVEL_FLOOR]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_coarea_identity_property(seed):
    rng = np.random.default_rng(seed)
    h = random_piecewise_linear(rng, n_break=rng.integers(2, 80), n=256)
    tv = total_variation(h)
    ci = coarea_integral(h)
    assert abs(ci - tv) <= 1e-12 * max(tv, 1.0)


def test_tv_lower_semicontinuity_under_nodal_perturbation():
    rng = np.random.default_rng(5)
    h = random_piecewise_linear(rng, n_break=30, n=200)
    noise = rng.standard_normal(h.values.size)
    tvs = []
    for k in range(4, 16):
        hk = h.with_values(h.values + 2.0**-k * noise)
        tvs.append(total_variation(hk))
    tail = min(tvs[-4:])
    assert total_variation(h) <= tail + 1e-10 + 2.0**-12 * np.abs(np.diff(noise)).sum()
