"""Fuzzing the input loaders through the CLI: whatever a csv:/json: file or a
function literal holds, main either runs or exits 2 with one stderr line
(naming the file when the loader rejects it), never a traceback."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coeffid.cli import main
from coeffid.grids import GridFunction1D, read_json
from coeffid.pw2d import PwConstCoefficient

FUZZ = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# CSV: arbitrary text, or rows built from fields that are numbers, quoted,
# blank, commented or junk, with any line end
field = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["", " ", "#", "# c", '"', '"1"', "nan", "1e999", "1_0", "0x10"]),
    st.text(max_size=4),
)
row = st.lists(field, min_size=0, max_size=3).map(",".join)
csv_text = st.one_of(
    st.text(),
    st.tuples(st.sampled_from(["x,value", '"x","value"', "x, value", "x", "value,x", ""]),
              st.lists(row, max_size=6),
              st.sampled_from(["\n", "\r\n", "\r"]))
    .map(lambda t: t[2].join([t[0], *t[1]])),
)

# JSON: arbitrary text, or objects with the keys the loaders read holding
# arbitrary JSON values
json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3)
    | st.sampled_from([10**400, -(10**400)]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                  max_size=3),
    max_leaves=8)
keys = st.sampled_from(["interval", "n", "values", "nx", "ny", "coeffs"])
json_text = st.one_of(
    st.text(),
    st.dictionaries(keys, json_value, max_size=6).map(json.dumps),
    json_value.map(json.dumps),
)


def _check(argv, path, load, capsys):
    """main on argv exits 0, 1 or 2; on 2 with one stderr line, and if load
    rejects path, with exit 2 and the path in that line."""
    try:
        load(path)
        rejected = False
    except ValueError as exc:
        assert str(path) in str(exc) and "\n" not in str(exc)
        rejected = True
    code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    if rejected:
        assert code == 2 and str(path) in err


@FUZZ
@given(st.one_of(csv_text.map(str.encode), st.binary()))
def test_csv_file_fuzz(tmp_path, capsys, data):
    p = tmp_path / "du.csv"
    p.write_bytes(data)
    _check(["recover", "--f=const:1", f"--du=csv:{p}"], p, GridFunction1D.from_csv, capsys)


@FUZZ
@given(st.one_of(json_text.map(str.encode), st.binary()))
def test_json_file_fuzz(tmp_path, capsys, data):
    p = tmp_path / "du.json"
    p.write_bytes(data)
    _check(["recover", "--f=const:1", f"--du=json:{p}"], p,
           lambda q: read_json(q, GridFunction1D.from_json_dict), capsys)
    _check(["pw2d", "recover", "--m=4", f"--truth={p}"], p,
           lambda q: read_json(q, PwConstCoefficient.from_json_dict), capsys)


@FUZZ
@given(st.one_of(
    st.text(),
    st.tuples(st.sampled_from(["const", "linear", "csv", "json", "cos"]),
              st.one_of(st.text(), st.lists(field, max_size=3).map(",".join)))
    .map(":".join)))
def test_literal_fuzz(tmp_path, capsys, monkeypatch, literal):
    monkeypatch.chdir(tmp_path)
    code = main(["forward", "--n=8", f"--a={literal}", "--f=const:1"])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("literal", ["const:1e-320", "linear:1e308,1e308", "const:nan",
                                     "linear:1", "csv:", "json:.", "csv:\0",
                                     "csv:\n\0", "json:a\u2028b"])
def test_edge_literals_exit_2_with_one_line(literal, capsys):
    assert main(["forward", "--n=8", f"--a={literal}", "--f=const:1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("text", [
    "[" * 100_000 + "]" * 100_000,                               # nesting too deep
    '{"interval": [0, 1], "n": 2, "values": %d}' % 10**400,      # beyond float range
    '{"interval": [%d, 1], "n": 1, "values": [1, 1]}' % 10**400,
])
def test_json_beyond_the_decoder_is_a_malformed_file(tmp_path, capsys, text):
    p = tmp_path / "edge.json"
    p.write_text(text)
    assert main(["recover", "--f=const:1", f"--du=json:{p}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(p) in err

