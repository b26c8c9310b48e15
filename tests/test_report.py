"""Column rendering in coeffid.report against the element-by-element oracles,
and coeffid.text against "%.17g"."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from coeffid import text
from coeffid.grids import GridFunction1D, Interval
from coeffid.report import ExperimentReport, json_chunks

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
    assert rep.to_json() == json_ref
    # one memo for the CSV rows, the JSON and a second file holding the same
    # arrays, filled by the CSV rows or by the JSON, whichever comes first
    for csv_first in (True, False):
        memo: dict = {}
        if csv_first:
            assert b"".join(rep.csv_chunks(memo)).decode() == csv_ref
            # the CSV pass holds the joined text of every finite float curve
            assert memo.keys() == {id(c) for c in curves.values() if isinstance(c, np.ndarray)
                                   and c.dtype == np.float64 and np.isfinite(c).all()}
        assert b"".join(json_chunks(rep.json_dict(), memo)) == json_ref.encode()
        assert b"".join(rep.csv_chunks(memo)).decode() == csv_ref
        assert b"".join(json_chunks({"again": list(curves.values())}, memo)).decode() == \
            oracles.canonical_json({"again": list(curves.values())})


@settings(max_examples=100)
@given(st.integers(1, 6).flatmap(lambda r: arrays(np.float64, (r, 3), elements=any_float)))
def test_nested_arrays_match_oracle(arr):
    obj = {"field": arr, "row": arr[0], "tuple": tuple(arr[:, 0])}
    assert b"".join(json_chunks(obj, {})) == oracles.canonical_json(obj).encode()


def test_json_chunks_share_the_memo_column():
    # the report and an extra file of one run print the same column: both
    # hold the memo's one bytes object, and the pieces are ASCII bytes
    g = GridFunction1D(Interval(0.0, 1.0), np.linspace(0.0, 1.0, 65) ** 3)
    rep = ExperimentReport(name="r", inputs={"f": "const:1", "big": 2**70},
                           metrics={"nan": np.nan, "inf": -np.inf, "ok": True, "no": np.bool_(0)},
                           curves={"x": g.x, "u": g.values, "k": np.arange(65),
                                   "nested": [[1.5, [2, None]], ("a", np.float64(3.0))]})
    memo: dict = {}
    report_pieces = json_chunks(rep.json_dict(), memo)
    file_pieces = json_chunks(g.to_json_dict(), memo)
    column = memo[id(g.values)][1]
    assert any(piece is column for piece in report_pieces)
    assert any(piece is column for piece in file_pieces)
    assert all(type(piece) is bytes and piece.isascii() for piece in report_pieces)
    assert b"".join(report_pieces) == rep.to_json().encode()
    assert b"".join(file_pieces) == oracles.canonical_json(g.to_json_dict()).encode()


@pytest.mark.parametrize("fmt, names", [("both", ["r.csv", "r.json", "g.json"]),
                                         ("csv", ["r.csv", "g.json"]),
                                         ("json", ["r.json", "g.json"])])
def test_files_yield_the_csv_first_and_render_each_column_once(fmt, names, monkeypatch):
    # the CSV rows give each float curve its JSON text, so x and the values
    # of g pass through the float text kernel once for all three files
    g = GridFunction1D(Interval(0.0, 1.0), np.linspace(0.0, 1.0, 65) ** 3)
    rep = ExperimentReport(name="r", curves={"x": g.x, "u": g.values})
    want = {"r.csv": b"".join(rep.csv_chunks({})), "r.json": rep.to_json().encode(),
            "g.json": oracles.canonical_json(g.to_json_dict()).encode()}
    words = text._words
    seen = []

    def counted(x, out):
        seen.append(x.size)
        return words(x, out)

    monkeypatch.setattr(text, "_words", counted)
    files = [(name, b"".join(chunks)) for name, chunks in
             rep.files("r", fmt, {"g.json": g.to_json_dict()})]
    assert [name for name, _ in files] == names
    assert sum(seen) == 2 * 65
    assert all(data == want[name] for name, data in files)
    assert [name for name, _ in ExperimentReport(name="r").files("r", "both", {})] == ["r.json"]


def test_unequal_curves_rejected():
    rep = ExperimentReport(name="r", curves={"a": np.zeros(3), "b": np.zeros(4)})
    with pytest.raises(ValueError, match="equal length"):
        b"".join(rep.csv_chunks({}))


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
    rep = ExperimentReport(name="r", curves=curves)
    assert b"".join(rep.csv_chunks({})).decode() == oracles.curves_csv(curves)


def test_csv_joined_text_matches_join_across_chunks():
    # three columns of 3 * 4096 + 7 rows take three chunks; the joined text
    # text.csv returns for the requested columns is text.join's, and the rows
    # are the oracle's, special and non-finite values included
    rng = np.random.default_rng(6)
    n = 3 * 4096 + 7
    cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n) for _ in range(3)]
    cols[0][::89] = np.resize(SPECIAL, cols[0][::89].size)
    cols[2][::53] = np.resize(SPECIAL + NONFINITE, cols[2][::53].size)
    assert sum(1 for _ in text.csv(cols)) == 3
    rows, joined = sweep.drain(text.csv(cols, joined=[2, 0]))
    assert joined == [text.join(cols[2]), text.join(cols[0])]
    assert joined[0] == ", ".join(map(oracles.fmt_float, cols[2])).encode()
    curves = {"a": cols[0], "b": cols[1], "c": cols[2]}
    assert b"a,b,c\n" + rows == oracles.curves_csv(curves).encode()


def _load_sweep():
    """scripts/float_text_sweep.py, the sweep CI also runs at 10^6 doubles."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "float_text_sweep.py"
    spec = importlib.util.spec_from_file_location("float_text_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


sweep = _load_sweep()


@pytest.mark.parametrize("group, values", sweep.sweep_values(10**5).items())
def test_sweep_matches_percent_17g(group, values):
    # random bit patterns, powers of ten and their neighbours, subnormals,
    # +-0, integers near 2^53, exact ties, linspace: the bytes of "%.17g"
    assert sweep.mismatches(values) == []


def test_only_uncertified_values_are_formatted_per_element():
    # ordinary data never takes the per-element path
    assert sweep.uncertified(np.linspace(0.0, 1.0, 65537)) == 0
    assert sweep.uncertified(np.random.default_rng(1).uniform(0.0, 3.0, 10**5)) == 0
    # exact 17-digit ties below 1e-6 are scaled inexactly, so they are not
    # certified; the per-element path renders them
    ties = sweep.exact_ties(np.random.default_rng(2), per_scale=50)
    assert sweep.uncertified(ties) == np.count_nonzero(ties < 1e-6) > 0
    assert sweep.mismatches(ties) == []
    # near ties that the double-double scaling rounds the wrong way
    assert sweep.uncertified(np.array(sweep.NEAR_TIES)) == len(sweep.NEAR_TIES)


def test_uncertified_values_are_written_by_percent_17g(monkeypatch):
    # whatever digits the vectorised path holds for a value it cannot
    # certify, the value's slot ends up holding "%.17g" % v
    decimal = text._decimal

    def garbled(a):
        D, X, certified = decimal(a)
        return np.full_like(D, 10**16), X - 3, np.zeros_like(certified)

    monkeypatch.setattr(text, "_decimal", garbled)
    values = np.concatenate([SPECIAL, NONFINITE, np.random.default_rng(3).standard_normal(50)])
    assert sweep.mismatches(values) == []
