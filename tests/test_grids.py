import csv
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coeffid.grids import (
    CoefficientBounds,
    GridFunction1D,
    Interval,
    derivative,
    indicator_values,
    lp_norm,
    quadrature,
)
from coeffid.report import json_chunks

UNIT = Interval(0.0, 1.0)

finite_vals = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
grid_values = st.lists(finite_vals, min_size=3, max_size=60)


def gf(values, interval=UNIT):
    return GridFunction1D(interval, np.asarray(values, dtype=float))


def linspace_gf(fn, n, interval=UNIT):
    return GridFunction1D.from_callable(fn, interval, n)


# -- construction and validation ------------------------------------------


def test_interval_rejects_degenerate():
    with pytest.raises(ValueError):
        Interval(1.0, 1.0)
    with pytest.raises(ValueError):
        Interval(0.0, math.inf)


def test_grid_function_requires_finite_values():
    with pytest.raises(ValueError):
        gf([0.0, np.nan, 1.0])


def test_grid_function_values_frozen():
    g = gf([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        g.values[0] = 5.0


def test_bounds_validation():
    with pytest.raises(ValueError):
        CoefficientBounds(2.0, 0.5)
    with pytest.raises(ValueError):
        CoefficientBounds(0.0, 1.0)
    with pytest.raises(ValueError):
        lp_norm(GridFunction1D.const(1.0, UNIT, 8), 0.5)


@given(st.floats(min_value=-1e6, max_value=1e6), st.floats(min_value=1e-6, max_value=1e6),
       st.integers(min_value=1, max_value=5000), st.lists(st.integers(0, 5000), max_size=8))
def test_nodes_follow_linspace_bit_for_bit(lo, width, n, idx):
    g = GridFunction1D.const(0.0, Interval(lo, lo + width), n)
    x = np.linspace(lo, lo + width, n + 1)
    assert np.array_equal(g.x, x)
    idx = np.array([min(i, n) for i in idx] + [0, n], dtype=np.intp)
    assert np.array_equal(g.nodes(idx), x[idx])


# -- quadrature -------------------------------------------------------------


def test_quadrature_constant():
    assert quadrature(GridFunction1D.const(1.0, UNIT, 10)) == pytest.approx(1.0, abs=1e-15)


def test_quadrature_linear_exact():
    for n in (1, 7, 64):
        g = linspace_gf(lambda x: x, n)
        assert quadrature(g) == pytest.approx(0.5, abs=1e-15)


def test_quadrature_square_antiderivative_oracle():
    g = linspace_gf(lambda x: x * x, 1000)
    assert quadrature(g) == pytest.approx(1.0 / 3.0, abs=1e-6)


@given(grid_values, grid_values, finite_vals, finite_vals)
@example([-736990.4742800442, 239149.00631081732, 303129.85622487194, 712832.0, -865559.0,
          -42180.0], [0.0, 0.0, 0.0], 77.0, 0.0)
def test_quadrature_linearity(v1, v2, al, be):
    if len(v1) != len(v2):
        v2 = (v2 * ((len(v1) // len(v2)) + 1))[: len(v1)]
    g1, g2 = gf(v1), gf(v2)
    combo = gf(al * g1.values + be * g2.values)
    lhs = quadrature(combo)
    rhs = al * quadrature(g1) + be * quadrature(g2)
    # rounding scales with the terms, not with lhs or rhs, which cancellation
    # can make small
    scale = 1.0 + quadrature(gf(np.abs(al * g1.values) + np.abs(be * g2.values)))
    assert abs(lhs - rhs) <= 1e-12 * scale


# -- norms -------------------------------------------------------------------


def test_lp_norm_examples():
    assert lp_norm(GridFunction1D.const(2.0, UNIT, 16), 1.0) == pytest.approx(2.0, abs=1e-14)
    assert lp_norm(linspace_gf(lambda x: x, 32), math.inf) == pytest.approx(1.0)
    g = linspace_gf(lambda x: 0.5 - x, 2000)
    assert lp_norm(g, 2.0) == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-6)


@given(grid_values, grid_values)
def test_lp_triangle_inequality(v1, v2):
    if len(v1) != len(v2):
        v2 = (v2 * ((len(v1) // len(v2)) + 1))[: len(v1)]
    g1, g2 = gf(v1), gf(v2)
    for p in (1.0, 2.0, 3.5, math.inf):
        lhs = lp_norm(g1.with_values(g1.values + g2.values), p)
        rhs = lp_norm(g1, p) + lp_norm(g2, p)
        assert lhs <= rhs + 1e-12 * (1.0 + rhs)


# -- derivative ---------------------------------------------------------------


def test_derivative_linear_exact():
    d = derivative(linspace_gf(lambda x: x, 50))
    assert np.allclose(d.values, 1.0, atol=1e-13)


@given(finite_vals, st.integers(min_value=2, max_value=50))
def test_derivative_constant_is_zero(c, n):
    d = derivative(GridFunction1D.const(c, UNIT, n))
    assert np.all(d.values == 0.0)


def test_derivative_square():
    g = linspace_gf(lambda x: x * x, 100)
    d = derivative(g)
    assert np.abs(d.values - 2.0 * g.x).max() < 1e-3


def test_derivative_too_coarse():
    with pytest.raises(ValueError, match="too coarse"):
        derivative(gf([0.0, 1.0]))


def test_fundamental_theorem_quadratic_exact():
    # affine and quadratic data: endpoint stencils and interior telescoping
    # reproduce g(hi) - g(lo) to rounding
    for fn, jump in ((lambda x: 3.0 * x - 1.0, 3.0), (lambda x: x * x, 1.0)):
        g = linspace_gf(fn, 128)
        assert quadrature(derivative(g)) == pytest.approx(jump, rel=1e-12)


def test_fundamental_theorem_smooth_second_order():
    # for generic smooth data the mismatch is O(h^2) from the one-sided ends
    errs = []
    for n in (100, 200, 400):
        g = linspace_gf(lambda x: np.sin(x), n)
        errs.append(abs(quadrature(derivative(g)) - (math.sin(1.0) - math.sin(0.0))))
    assert errs[0] < 1e-4
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
    assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)


# -- admissibility -------------------------------------------------------------


@pytest.mark.parametrize(
    "c,lam,Lam,ok",
    [(1.0, 0.5, 2.0, True), (3.0, 0.5, 2.0, False), (0.25, 0.5, 2.0, False)],
)
def test_admissible_constants(c, lam, Lam, ok):
    a = GridFunction1D.const(c, UNIT, 8)
    assert CoefficientBounds(lam, Lam).admits(a.values) is ok


def test_admissible_linear_range():
    a = linspace_gf(lambda x: 1.0 + x, 128)
    assert CoefficientBounds(1.0, 2.0).admits(a.values)
    assert not CoefficientBounds(1.0, 1.5).admits(a.values)


# -- indicator sampling ---------------------------------------------------------


def test_indicator_trapezoid_exact_mass():
    g = GridFunction1D.const(0.0, UNIT, 64)
    vals = indicator_values(g.x, 0.25, 0.75)
    assert vals[g.x == 0.25] == 0.5
    assert quadrature(g.with_values(vals)) == pytest.approx(0.5, abs=1e-15)


# -- serialization ---------------------------------------------------------------


def test_csv_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    g = gf(rng.standard_normal(33) * 1e3, Interval(-1.0, 2.0))
    path = tmp_path / "g.csv"
    g.to_csv(path)
    back = GridFunction1D.from_csv(path)
    assert back.interval == g.interval
    assert np.array_equal(back.values, g.values)


def test_csv_roundtrip_bit_exact_across_magnitudes(tmp_path):
    # np.loadtxt parses each field to the double float() gives
    values = np.random.default_rng(4).standard_normal(257) * 10.0 ** np.arange(-128, 129)
    g = gf(values)
    g.to_csv(tmp_path / "g.csv")
    assert GridFunction1D.from_csv(tmp_path / "g.csv").values.tobytes() == g.values.tobytes()


@settings(max_examples=50)
@given(grid_values)
def test_json_roundtrip_bit_exact(vals):
    g = gf(vals)
    back = GridFunction1D.from_json_dict(json.loads(b"".join(json_chunks(g.to_json_dict(), {}))))
    assert back.same_grid(g)
    assert np.array_equal(back.values, g.values)


def test_csv_rejects_bad_header(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("a,b\n0,1\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        GridFunction1D.from_csv(p)


def test_csv_rejects_nonuniform_x(tmp_path):
    p = tmp_path / "skewed.csv"
    p.write_text("x,value\n0,1\n0.1,2\n0.9,3\n1,4\n")
    with pytest.raises(ValueError, match="uniformly spaced"):
        GridFunction1D.from_csv(p)


def test_csv_accepts_decimal_uniform_x(tmp_path):
    p = tmp_path / "decimal.csv"
    p.write_text("x,value\n" + "".join(f"{i / 10},{i}\n" for i in range(11)))
    g = GridFunction1D.from_csv(p)
    assert g.interval == UNIT
    assert g.n == 10
    assert np.array_equal(g.values, np.arange(11.0))


@pytest.mark.parametrize("body", [
    'x,value\n"0","1"\n0.5,"2"\n1,3\n',           # quoted fields
    "x,value\n\n0,1\n\n0.5,2\n1,3\n\n",           # blank lines
    "x,value\r\n0,1\r\n0.5,2\r\n1,3\r\n",         # CRLF line ends
    '"x","value"\n 0 , 1 \n0.5,2\n1,3',           # quoted header, spaces, no final newline
])
def test_csv_accepts_quotes_blank_lines_and_crlf(tmp_path, body):
    p = tmp_path / "g.csv"
    p.write_bytes(body.encode())
    g = GridFunction1D.from_csv(p)
    assert g.interval == UNIT
    assert np.array_equal(g.values, [1.0, 2.0, 3.0])


@pytest.mark.parametrize("body, line", [
    ("x,value\n0,1\n# note\n0.5,2\n1,3\n", 3),     # comment lines are not skipped
    ("x,value\n0,1\n0.5,2 # note\n1,3\n", 3),
    ("x,value\n0,1,\n0.5,2,\n1,3,\n", 2),         # trailing commas
    ("x,value\n0,1\n\n0.5\n1,3\n", 4),            # a 1-field row after a blank line
    ("x,value\n0,1\n0.5,2,9\n1,3\n", 3),          # a 3-field row
    ("x,value\r\n0,1\r\n\r\n0.5,abc\r\n1,3\r\n", 4),
    ('x,value\n0,1\n"0.5\n",2\n1,x\n', 5),      # after a quoted field spanning lines
    ('x,value\n0,1\n"0.5\n",abc\n1,3\n', 3),    # a row that starts on line 3
])
def test_csv_rejects_malformed_rows_naming_line(tmp_path, body, line):
    p = tmp_path / "bad.csv"
    p.write_bytes(body.encode())
    with pytest.raises(ValueError) as exc:
        GridFunction1D.from_csv(p)
    assert str(exc.value).startswith(f"{p} line {line}: ")


def test_csv_line_unknown_where_the_reader_cannot_split(tmp_path):
    # a field over csv.field_size_limit stops csv.reader, not np.loadtxt
    p = tmp_path / "bad.csv"
    p.write_text('x,value\n0,1\n"' + "a" * (csv.field_size_limit() + 1) + '",2\n1,3\n')
    with pytest.raises(ValueError) as exc:
        GridFunction1D.from_csv(p)
    assert str(exc.value).startswith(f"{p} line ?: ")


@pytest.mark.parametrize("body", ["x,value\n0\n0.5\n1\n", "x,value\n0,1,9\n0.5,1,9\n1,1,9\n"])
def test_csv_rejects_uniform_rows_of_one_or_three_fields(tmp_path, body):
    p = tmp_path / "bad.csv"
    p.write_text(body)
    with pytest.raises(ValueError, match="expected 2 fields"):
        GridFunction1D.from_csv(p)
