"""Column rendering in coeffid.report against the element-by-element oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from coeffid.grids import GridFunction1D, Interval
from coeffid.report import ExperimentReport, canonical_json

MAX = 1.7976931348623157e308
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
           MAX, -MAX, 1.0, -3.0, 2.0**53, 2.0**53 + 2.0, 1e16, 1e17, -1e22, 0.1]
NONFINITE = [np.nan, np.inf, -np.inf]

finite = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=False, allow_infinity=False))
any_float = st.one_of(finite, st.sampled_from(NONFINITE))


def columns(n):
    """One curve of length n: a float64 array (finite or with nan/inf), an
    int or bool array, or a list of Python floats."""
    return st.one_of(
        arrays(np.float64, n, elements=finite),
        arrays(np.float64, n, elements=any_float),
        arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1)),
        arrays(np.bool_, n),
        st.lists(any_float, min_size=n, max_size=n),
    )


curve_sets = st.integers(0, 40).flatmap(
    lambda n: st.dictionaries(st.sampled_from(["x", "u", "du", "a", "m"]), columns(n),
                              min_size=1, max_size=5))


@settings(max_examples=200)
@given(curve_sets, st.floats(allow_nan=True), st.integers(-2**70, 2**70))
def test_report_matches_oracle(curves, scalar, big):
    rep = ExperimentReport(name="r", inputs={"n": big, "f": "const:1"},
                           metrics={"m": scalar, "ok": True, "none": None}, curves=curves)
    json_ref = oracles.canonical_json({"name": "r", "inputs": rep.inputs, "metrics": rep.metrics,
                                       "curves": curves, "passed": True, "notes": ""})
    csv_ref = oracles.curves_csv(curves)
    memo: dict = {}
    # one memo for the JSON, the CSV and a second file holding the same arrays
    assert rep.to_json(memo) == json_ref
    assert rep.curves_csv(memo) == csv_ref
    assert canonical_json({"again": list(curves.values())}, memo) == \
        oracles.canonical_json({"again": list(curves.values())})
    assert rep.curves_csv() == csv_ref


@settings(max_examples=100)
@given(st.integers(1, 6).flatmap(lambda r: arrays(np.float64, (r, 3), elements=any_float)))
def test_nested_arrays_match_oracle(arr):
    obj = {"field": arr, "row": arr[0], "tuple": tuple(arr[:, 0])}
    assert canonical_json(obj) == oracles.canonical_json(obj)


def test_unequal_curves_rejected():
    rep = ExperimentReport(name="r", curves={"a": np.zeros(3), "b": np.zeros(4)})
    with pytest.raises(ValueError, match="equal length"):
        rep.curves_csv()


@settings(max_examples=50)
@given(arrays(np.float64, st.integers(2, 60), elements=finite),
       st.sampled_from([(0.0, 1.0), (-1.0, 2.0), (1e-3, 1e-3 + 1e-9)]))
def test_to_csv_matches_csv_writer(tmp_path_factory, values, interval):
    g = GridFunction1D(Interval(*interval), values)
    d = tmp_path_factory.mktemp("csv")
    g.to_csv(d / "new.csv")
    oracles.grid_csv(g, d / "ref.csv")
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()


def test_csv_writers_match_oracles_across_chunks(tmp_path):
    # more rows than one chunk holds, with the special values mixed in
    rng = np.random.default_rng(5)
    values = rng.standard_normal(3 * 4096 + 7) * 10.0 ** rng.integers(-300, 300, 3 * 4096 + 7)
    values[::97] = np.resize(SPECIAL, values[::97].size)
    g = GridFunction1D(Interval(-1.0, 2.0), values)
    g.to_csv(tmp_path / "new.csv")
    oracles.grid_csv(g, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    curves = {"x": g.x, "value": g.values, "sign": g.values > 0, "k": np.arange(values.size)}
    assert ExperimentReport(name="r", curves=curves).curves_csv() == oracles.curves_csv(curves)
