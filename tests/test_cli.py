import dataclasses
import json
import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from coeffid import text
from coeffid.cli import build_parser, main
from coeffid.grids import GridFunction1D, Interval


def run(argv):
    return main(argv)


def test_forward_textbook_case(tmp_path, capsys):
    out = tmp_path / "fwd"
    code = run(["forward", "--a", "const:1", "--f", "const:1", "--n", "1024",
                "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "forward.json").read_text())
    assert abs(rep["metrics"]["u_mid"] - 0.125) < 1e-8
    sol = json.loads((out / "solution.json").read_text())
    assert abs(sol["Ca"] - 0.5) < 1e-12
    assert (out / "forward.csv").read_text().splitlines()[0] == "x,u,du,F"


def test_forward_stdout_without_out(capsys):
    assert run(["forward", "--a", "const:1", "--f", "const:1", "--n", "64"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["name"] == "forward"


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run(["forward", "--a", "const:1"])
    assert exc.value.code == 2


def test_bad_function_spec_exit_2(capsys):
    assert run(["forward", "--a", "sin:1", "--f", "const:1", "--n", "64"]) == 2
    assert "error" in capsys.readouterr().err


def test_recover_requires_gradient_input():
    with pytest.raises(SystemExit) as exc:
        run(["recover", "--f", "const:1"])
    assert exc.value.code == 2


def test_recover_roundtrip_via_csv(tmp_path):
    n = 2048
    iv = Interval(0.0, 1.0)
    a = GridFunction1D.from_callable(lambda x: 1.0 + 0.4 * np.sin(2 * np.pi * x), iv, n)
    f = GridFunction1D.from_callable(lambda x: 1.0 - 2.0 * x, iv, n)
    from coeffid.forward import solve

    sol = solve(a, f)
    du_path = tmp_path / "du.csv"
    f_path = tmp_path / "f.csv"
    sol.du.to_csv(du_path)
    f.to_csv(f_path)
    out = tmp_path / "rec"
    code = run(["recover", "--du", f"csv:{du_path}", "--f", f"csv:{f_path}",
                "--lambda", "0.5", "--Lambda", "2", "--out", str(out)])
    assert code == 0
    coeff = GridFunction1D.from_json_dict(json.loads((out / "coefficient.json").read_text()))
    rep = json.loads((out / "recover.json").read_text())
    masked = np.array(rep["curves"]["masked"], dtype=bool)
    err = np.abs(coeff.values - a.values)[~masked].max()
    assert err < 5e-3


def test_recover_rejects_nonuniform_csv_grid(tmp_path, capsys):
    du_path = tmp_path / "du.csv"
    du_path.write_text("x,value\n0,1\n0.1,1\n0.9,1\n1,1\n")
    code = run(["recover", "--du", f"csv:{du_path}", "--f", "const:1",
                "--lambda", "0.5", "--Lambda", "2"])
    assert code == 2
    assert "uniformly spaced" in capsys.readouterr().err


def test_exponents_uniform_source(tmp_path):
    out = tmp_path / "exp"
    assert run(["exponents", "--f", "const:1", "--n", "2048", "--out", str(out)]) == 0
    rep = json.loads((out / "exponents.json").read_text())
    assert abs(rep["metrics"]["alpha"] - 1.0) < 0.05
    assert abs(rep["metrics"]["beta"] - 1.0) < 0.05


def test_holder_subcommand(tmp_path):
    out = tmp_path / "h"
    assert run(["holder", "--a", "const:1", "--b", "const:1.5", "--f", "const:1",
                "--p", "2", "--alpha", "1", "--beta", "1", "--n", "1024",
                "--out", str(out)]) == 0
    rep = json.loads((out / "holder.json").read_text())
    assert rep["metrics"]["exponent"] == pytest.approx(2.0 / 9.0)
    assert rep["metrics"]["constant_needed"] > 0


def test_dyadic_subcommand(tmp_path):
    out = tmp_path / "dy"
    code = run(["dyadic", "--alpha", "2", "--beta", "0", "--p", "1",
                "--jmax", "8", "--n", str(2**14), "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "dyadic.json").read_text())
    assert abs(rep["metrics"]["slope"] - 2.0 / 3.0) < 0.1
    assert rep["passed"] is True


def test_counterexample_volterra(tmp_path):
    out = tmp_path / "v"
    code = run(["counterexample", "volterra", "--level", "2", "--n", str(2**13),
                "--amp", "0.5", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "counterexample_volterra.json").read_text())
    assert rep["metrics"]["residual_a"] < 1e-8
    assert rep["metrics"]["coeff_gap"] > 0.28


def test_counterexample_passes_on_a_small_coefficient_gap(capsys):
    # the certificate holds for any amp in (0, 1]: residuals 0, gap 0.05625
    assert run(["counterexample", "volterra", "--amp", "0.1"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["passed"] is True
    assert rep["metrics"]["coeff_gap"] == 0.1 * 0.5625


def test_counterexample_failing_pair_writes_its_report_and_exits_1(tmp_path, monkeypatch):
    from coeffid import cli

    real = cli.volterra_pair
    monkeypatch.setattr(cli, "volterra_pair",
                        lambda *a: dataclasses.replace(real(*a), residual_b=1e-7))
    out = tmp_path / "v"
    assert run(["counterexample", "volterra", "--level", "2", "--n", "512",
                "--out", str(out)]) == 1
    rep = json.loads((out / "counterexample_volterra.json").read_text())
    assert rep["passed"] is False and rep["metrics"]["residual_b"] == 1e-7
    assert (out / "manifest.json").exists()


def test_counterexample_inhomogeneous(capsys):
    assert run(["counterexample", "inhomogeneous", "--n", "512"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["metrics"]["residual_a"] < 1e-12


def test_coarea_subcommand(tmp_path):
    out = tmp_path / "c"
    assert run(["coarea", "--h", "linear:0,1", "--n", "512", "--t-start", "0.5",
                "--out", str(out)]) == 0
    rep = json.loads((out / "coarea.json").read_text())
    assert rep["metrics"]["rel_error"] < 1e-12
    assert rep["metrics"]["n_good_levels"] > 0


def test_coarea_start_below_level_floor_exit_2(tmp_path, capsys):
    # a start at or below the 1e-9 floor scans no level: a usage error, not a
    # violated TV budget
    out = tmp_path / "c"
    assert run(["coarea", "--h", "linear:0,1", "--n", "64", "--t-start", "1e-10",
                "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: t_start")
    assert not out.exists()


def test_pw2d_verify_subcommand(tmp_path):
    out = tmp_path / "pw"
    code = run(["pw2d", "verify", "--nx", "2", "--ny", "2", "--m", "16",
                "--trials", "3", "--seed", "7", "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "pw2d_verify.json").read_text())
    assert rep["metrics"]["worst_ratio"] <= rep["metrics"]["slack"]


def test_pw2d_recover_subcommand(tmp_path):
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(json.dumps({"nx": 2, "ny": 2, "coeffs": [1.0, 1.4, 0.9, 1.1]}))
    out = tmp_path / "rec2d"
    code = run(["pw2d", "recover", "--truth", str(truth_path), "--m", "16",
                "--out", str(out)])
    assert code == 0
    rep = json.loads((out / "pw2d_recover.json").read_text())
    assert rep["metrics"]["max_abs_error"] < 1e-3


def test_seeded_reports_byte_identical(tmp_path):
    args = ["pw2d", "verify", "--nx", "2", "--ny", "2", "--m", "16",
            "--trials", "3", "--seed", "11"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "pw2d_verify.json").read_bytes()
    b2 = (out2 / "pw2d_verify.json").read_bytes()
    assert b1 == b2
    assert (out1 / "pw2d_verify.csv").read_bytes() == (out2 / "pw2d_verify.csv").read_bytes()


def test_seedless_verify_reruns_byte_identical(tmp_path):
    args = ["pw2d", "verify", "--nx", "1", "--ny", "1", "--m", "16", "--trials", "2"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files == sorted(p.name for p in out2.iterdir())
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert json.loads((out1 / "manifest.json").read_text())["seed"] == 0


def test_manifest_checksums(tmp_path):
    out = tmp_path / "m"
    assert run(["forward", "--a", "const:1", "--f", "const:1", "--n", "64",
                "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_format_flag_json_only(tmp_path):
    out = tmp_path / "jo"
    assert run(["forward", "--a", "const:1", "--f", "const:1", "--n", "64",
                "--format", "json", "--out", str(out)]) == 0
    assert (out / "forward.json").exists()
    assert not (out / "forward.csv").exists()


_FORMAT_RUNS = {
    "forward": ["forward", "--n", "512", "--a", "linear:1.2,0.3", "--f", "const:1.7"],
    "recover": ["recover", "--du", "csv:du.csv", "--f", "csv:f.csv"],
    "volterra": ["counterexample", "volterra", "--level", "2", "--n", "1024", "--amp", "0.6"],
}


@pytest.mark.parametrize("cmd", _FORMAT_RUNS)
def test_formats_write_identical_bytes_where_they_overlap(cmd, tmp_path, monkeypatch):
    # --format csv fills the memo from the CSV rows, json from the JSON
    # report, both from the CSV rows first: every shared file must match
    monkeypatch.chdir(tmp_path)
    iv = Interval(0.0, 1.0)
    GridFunction1D.from_callable(lambda x: (0.5 - x) / (1.25 + 0.25 * x), iv, 512).to_csv("du.csv")
    GridFunction1D.from_callable(lambda x: 1.0 + x * x, iv, 512).to_csv("f.csv")
    files = {}
    for fmt in ("json", "csv", "both"):
        assert run(_FORMAT_RUNS[cmd] + ["--format", fmt, "--out", fmt]) == 0
        files[fmt] = {p.name: p.read_bytes() for p in (tmp_path / fmt).iterdir()
                      if p.name != "manifest.json"}
    assert files["json"].keys() | files["csv"].keys() == files["both"].keys()
    assert files["json"].keys() < files["both"].keys() and files["csv"].keys() < files["both"].keys()
    for fmt in ("json", "csv"):
        for name, data in files[fmt].items():
            assert data == files["both"][name], (fmt, name)


def test_forward_renders_each_float_column_once(tmp_path, monkeypatch):
    # x, u, du and F go to forward.csv and forward.json, and all but x to
    # solution.json; each passes through the float text kernel once
    words = text._words
    seen = []

    def counted(x, out):
        seen.append(x.size)
        return words(x, out)

    monkeypatch.setattr(text, "_words", counted)
    n = 300
    assert run(["forward", "--n", str(n), "--a", "linear:1.2,0.3", "--f", "const:1.7",
                "--out", str(tmp_path / "o")]) == 0
    assert sorted(p.name for p in (tmp_path / "o").iterdir()) == \
        ["forward.csv", "forward.json", "manifest.json", "solution.json"]
    assert sum(seen) == 4 * (n + 1)


def test_forward_csv_renders_each_float_column_once(tmp_path, monkeypatch):
    # --format csv writes forward.csv and solution.json: x, u, du and F each
    # pass through the float text kernel once, and the files match those of
    # a --format both run byte for byte
    n = 300
    argv = ["forward", "--n", str(n), "--a", "linear:1.2,0.3", "--f", "const:1.7"]
    assert run(argv + ["--out", str(tmp_path / "both")]) == 0
    words = text._words
    seen = []

    def counted(x, out):
        seen.append(x.size)
        return words(x, out)

    monkeypatch.setattr(text, "_words", counted)
    assert run(argv + ["--format", "csv", "--out", str(tmp_path / "csv")]) == 0
    assert sum(seen) == 4 * (n + 1)
    for name in ("forward.csv", "solution.json"):
        assert (tmp_path / "csv" / name).read_bytes() == (tmp_path / "both" / name).read_bytes()


def test_extreme_literal_prints_one_stderr_line():
    # 1/a overflows for a = 1e-320; the numpy warnings must not reach stderr
    # ahead of the one-line error, even with every warning shown
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-W", "always", "-m", "coeffid.cli", "forward",
                           "--n", "8", "--a", "const:1e-320", "--f", "const:1"],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: nodal values must be finite"]


def test_recover_from_u_differentiates_first(tmp_path):
    n = 2048
    from coeffid.forward import solve
    from coeffid.grids import GridFunction1D as GF

    iv = Interval(0.0, 1.0)
    a = GF.const(1.0, iv, n)
    f = GF.from_callable(lambda x: 1.0 - 2.0 * x, iv, n)
    sol = solve(a, f)
    u_path = tmp_path / "u.csv"
    f_path = tmp_path / "f.csv"
    sol.u.to_csv(u_path)
    f.to_csv(f_path)
    out = tmp_path / "rec_u"
    assert run(["recover", "--u", f"csv:{u_path}", "--f", f"csv:{f_path}",
                "--out", str(out)]) == 0
    coeff = GF.from_json_dict(json.loads((out / "coefficient.json").read_text()))
    rep = json.loads((out / "recover.json").read_text())
    masked = np.array(rep["curves"]["masked"], dtype=bool)
    assert np.abs(coeff.values - 1.0)[~masked].max() < 5e-2


def test_holder_samples_later_literals_on_the_first_ones_grid(tmp_path, monkeypatch):
    # a file literal brings its own grid, and b and f are sampled on it:
    # --n, --lo and --hi change no byte of the report
    from coeffid.grids import GridFunction1D as GF
    from coeffid.stability import verify_holder

    monkeypatch.chdir(tmp_path)
    iv = Interval(-1.0, 2.0)
    a = GF.from_callable(lambda x: 1.0 + 0.1 * x, iv, 96)
    a.to_csv("a.csv")
    argv = ["holder", "--a", "csv:a.csv", "--b", "const:1.5", "--f", "const:1", "--p", "2"]
    assert run(argv + ["--out", "d1"]) == 0
    assert run(argv + ["--n", "4096", "--lo", "5", "--hi", "7", "--out", "d2"]) == 0
    report = (tmp_path / "d1" / "holder.json").read_bytes()
    assert report == (tmp_path / "d2" / "holder.json").read_bytes()
    rep = json.loads(report)
    hr = verify_holder(a, GF.const(1.5, iv, 96), GF.const(1.0, iv, 96), 2.0,
                       rep["inputs"]["alpha"], rep["inputs"]["beta"])
    assert [rep["metrics"]["lhs"], rep["metrics"]["rhs_norm"]] == \
        [hr.metrics["lhs"], hr.metrics["rhs_norm"]]


def test_tiny_source_gives_the_exponents_of_a_unit_one(tmp_path):
    # the band-measure fit is scale-free and the Hoelder zero test is
    # relative to |u'|: f = 1e-14 is fitted and checked like f = 1
    metrics = {}
    for c in ("1", "1e-14"):
        for cmd, argv in (("exponents", ["exponents", "--f", f"const:{c}"]),
                          ("holder", ["holder", "--a", "const:1", "--b", "const:1.5",
                                      "--f", f"const:{c}", "--p", "2"])):
            out = tmp_path / f"{cmd}{c}"
            assert run(argv + ["--n", "4096", "--out", str(out)]) == 0
            metrics[cmd, c] = json.loads((out / f"{cmd}.json").read_text())["metrics"]
    for key in ("alpha", "beta"):
        assert metrics["exponents", "1e-14"][key] == \
            pytest.approx(metrics["exponents", "1"][key], rel=1e-12)
    unit, tiny = metrics["holder", "1"], metrics["holder", "1e-14"]
    assert tiny["exponent"] == pytest.approx(unit["exponent"], rel=1e-12)
    assert tiny["constant_needed"] == \
        pytest.approx(unit["constant_needed"] * 1e14 ** unit["exponent"], rel=1e-9)


def test_exponents_accepts_primitive_directly(tmp_path):
    out = tmp_path / "expF"
    assert run(["exponents", "--F", "linear:0,1", "--n", "1024", "--out", str(out)]) == 0
    rep = json.loads((out / "exponents.json").read_text())
    assert abs(rep["metrics"]["alpha"] - 1.0) < 0.05


def test_holder_flat_source_reports_no_rate(tmp_path):
    n = 3 * 512
    x = np.linspace(0.0, 1.0, n + 1)
    f = np.where(x < 1 / 3, 1.0, 0.0) - np.where(x > 2 / 3, 1.0, 0.0)
    f_path = tmp_path / "flat.csv"
    GridFunction1D(Interval(0.0, 1.0), f).to_csv(f_path)
    out = tmp_path / "hf"
    code = run(["holder", "--a", "const:1", "--b", "const:1.5",
                "--f", f"csv:{f_path}", "--p", "2", "--out", str(out)])
    assert code == 1
    rep = json.loads((out / "holder.json").read_text())
    assert rep["passed"] is False
    assert "no positive stability exponent" in rep["notes"]


def test_manifest_records_no_threads(tmp_path):
    out = tmp_path / "thr"
    assert run(["forward", "--a", "const:1", "--f", "const:1", "--n", "64",
                "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "threads" not in manifest
    assert manifest["argv"][0] == "forward"
    assert "--out" not in manifest["argv"]


_BASE_ARGV = {
    "forward": ["forward", "--a", "const:1", "--f", "const:1"],
    "recover": ["recover", "--du", "const:1", "--f", "const:1"],
    "exponents": ["exponents", "--f", "const:1"],
    "holder": ["holder", "--a", "const:1", "--b", "const:1", "--f", "const:1", "--p", "2"],
    "dyadic": ["dyadic", "--alpha", "2", "--beta", "0", "--p", "1"],
    "volterra": ["counterexample", "volterra"],
    "inhomogeneous": ["counterexample", "inhomogeneous"],
    "coarea": ["coarea", "--h", "linear:0,1"],
    "pw2d verify": ["pw2d", "verify"],
    "pw2d recover": ["pw2d", "recover", "--truth", "t.json"],
}
_UNREAD_FLAGS = (
    [(cmd, "--seed") for cmd in ("forward", "recover", "exponents", "holder", "coarea")]
    + [(cmd, flag) for cmd in ("dyadic", "volterra", "inhomogeneous")
       for flag in ("--lo", "--hi", "--seed")]
    + [("pw2d verify", flag) for flag in ("--n", "--lo", "--hi")]
    + [("pw2d recover", flag) for flag in ("--n", "--lo", "--hi", "--seed")]
)


@pytest.mark.parametrize("cmd,flag", _UNREAD_FLAGS)
def test_flag_the_handler_does_not_read_exits_2(cmd, flag):
    parser = build_parser()
    parser.parse_args(_BASE_ARGV[cmd])
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(_BASE_ARGV[cmd] + [flag, "1"])
    assert exc.value.code == 2


def test_pw2d_recover_rejects_inadmissible_truth(tmp_path, capsys):
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(json.dumps({"nx": 2, "ny": 2, "coeffs": [1.0, 1.5, 0.8, 1.2]}))
    code = run(["pw2d", "recover", "--truth", str(truth_path), "--Lambda", "1.0",
                "--m", "16"])
    assert code == 2
    assert "outside" in capsys.readouterr().err


def test_pw2d_verify_notes_vacuous_blocks(tmp_path):
    # every block is one cell, so no block is checked: the sweep fails, exit 1
    out = tmp_path / "pw"
    assert run(["pw2d", "verify", "--nx", "8", "--ny", "8", "--m", "8", "--out", str(out)]) == 1
    rep = json.loads((out / "pw2d_verify.json").read_text())
    assert rep["passed"] is False
    assert rep["notes"] == (f"vacuous on blocks {list(range(64))}: |f|_H^-1 is 0 there; "
                            "no block was checked")


def test_pw2d_recover_one_cell_per_block_exits_1(tmp_path):
    truth_path = tmp_path / "truth.json"
    truth_path.write_text(json.dumps({"nx": 4, "ny": 4, "coeffs": [1.0, 1.5, 0.8, 1.2] * 4}))
    out = tmp_path / "rec"
    assert run(["pw2d", "recover", "--truth", str(truth_path), "--m", "4",
                "--out", str(out)]) == 1
    rep = json.loads((out / "pw2d_recover.json").read_text())
    assert rep["metrics"]["converged"] is False
    assert "do not determine every block" in rep["notes"]


def test_pw2d_verify_needs_a_trial():
    assert run(["pw2d", "verify", "--m", "16", "--trials", "0"]) == 2


_SMALL_RUNS = {
    "forward": ["forward", "--a", "const:1", "--f", "const:1", "--n", "64"],
    "recover": ["recover", "--du", "linear:1,-2", "--f", "const:2", "--n", "64"],
    "exponents": ["exponents", "--f", "const:1", "--n", "256"],
    "holder": ["holder", "--a", "const:1", "--b", "const:1.5", "--f", "const:1", "--p", "2",
               "--alpha", "1", "--beta", "1", "--n", "256"],
    "dyadic": ["dyadic", "--alpha", "2", "--beta", "0", "--p", "1", "--jmax", "6",
               "--n", "4096"],
    "volterra": ["counterexample", "volterra", "--level", "2", "--n", "512"],
    "inhomogeneous": ["counterexample", "inhomogeneous", "--n", "64"],
    "coarea": ["coarea", "--h", "linear:0,1", "--n", "64", "--t-start", "0.5"],
    "pw2d verify": ["pw2d", "verify", "--m", "8", "--trials", "2", "--seed", "1"],
    "pw2d recover": ["pw2d", "recover", "--truth", "t.json", "--m", "8"],
}


@pytest.mark.parametrize("cmd", sorted(_SMALL_RUNS))
def test_out_spelling_leaves_outputs_byte_identical(cmd, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.json").write_text(json.dumps({"nx": 2, "ny": 2, "coeffs": [1.0, 1.4, 0.9, 1.1]}))
    spellings = {"d1": ["--out=d1"], "d2": ["--out", "d2"], "d3": ["--ou", "d3"],
                 "d4": ["--o", "d4"]}
    for flags in spellings.values():
        assert run(_SMALL_RUNS[cmd] + flags) == 0
    written = [{p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in spellings]
    assert "manifest.json" in written[0]
    assert written[0] == written[1] == written[2] == written[3]


@pytest.mark.parametrize("argv", [
    ["recover", "--du", "linear:1,-2", "--u", "linear:0,1", "--f", "const:2"],
    ["exponents", "--f", "const:1", "--F", "linear:0,2"],
])
def test_data_source_flags_are_exclusive(argv):
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["recover", "--du", "", "--f", "const:2"],
    ["exponents", "--F", ""],
])
def test_empty_data_literal_exit_2(argv, capsys):
    assert run(argv) == 2
    assert "malformed function literal" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["linear:1", "linear:1,2,3"])
def test_linear_literal_needs_two_numbers(literal, capsys):
    assert run(["forward", "--n", "8", "--a", literal, "--f", "const:1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: malformed function literal {literal!r}: expected linear:c0,c1\n"


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_holder_needs_both_exponents_or_neither(flag, capsys):
    code = run(["holder", "--a", "const:1", "--b", "const:1.5", "--f", "const:1", "--p", "2",
                flag, "1", "--n", "256"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--alpha and --beta" in err


@pytest.mark.parametrize("literal, form", [
    ("const:abc", "const:c"),
    ("const:", "const:c"),
    ("const:1,2", "const:c"),
    ("linear:1,abc", "linear:c0,c1"),
])
def test_bad_number_literal_is_named(literal, form, capsys):
    assert run(["forward", "--n", "8", "--a", literal, "--f", "const:1"]) == 2
    err = capsys.readouterr().err
    assert err == f"error: malformed function literal {literal!r}: expected {form}\n"


@pytest.mark.parametrize("alpha, beta", [("1", "0"), ("1", "-0.5"), ("-1", "0.5"), ("nan", "1")])
def test_holder_out_of_range_exponents_exit_2(alpha, beta, tmp_path, capsys):
    # user-given exponents are inputs, not a fitted flat primitive
    out = tmp_path / "hx"
    code = run(["holder", "--a", "const:1", "--b", "const:1.5", "--f", "const:1", "--p", "2",
                "--alpha", alpha, "--beta", beta, "--n", "64", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("exponents", [[], ["--alpha", "1", "--beta", "1"]], ids=["fitted", "given"])
@pytest.mark.parametrize("p", ["nan", "inf"])
def test_holder_p_outside_1_inf_exit_2(p, exponents, tmp_path, capsys):
    # the exponents are stated for p in [1, inf); the error names the p given
    out = tmp_path / "hp"
    code = run(["holder", "--a", "const:1", "--b", "const:1.5", "--f", "const:1", "--p", p,
                *exponents, "--n", "64", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"got {p}" in err
    assert not out.exists()


def test_recover_nan_threshold_exit_2(tmp_path, capsys):
    out = tmp_path / "rx"
    code = run(["recover", "--du", "linear:0.5,-1", "--f", "const:1", "--n", "64",
                "--threshold", "nan", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "threshold must be positive, got nan" in err
    assert not out.exists()


def test_dyadic_zero_gamma_exit_2(tmp_path, capsys):
    # p = inf with beta = 0 gives gamma = 0: no rate to compare, rejected before any solve
    out = tmp_path / "dz"
    code = run(["dyadic", "--alpha", "2", "--beta", "0", "--p", "inf", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "p = inf" in err and "beta_d = 0.0" in err
    assert not out.exists()
    code = run(["dyadic", "--alpha", "2", "--beta", "-0.5", "--p", "inf",
                "--jmax", "8", "--n", str(2**14), "--out", str(out)])
    assert code == 0
    assert json.loads((out / "dyadic.json").read_text())["metrics"]["gamma"] == 0.25



def test_dyadic_alpha_near_half_no_overflow(tmp_path, capsys):
    # at alpha = 0.51 the terms 2^{-alpha k} decay slowly, but the profile
    # stops at the last scale the grid resolves, so 2^k never overflows
    out = tmp_path / "dh"
    argv = ["dyadic", "--alpha", "0.51", "--beta", "0", "--p", "1", "--n", "1024"]
    assert run(argv + ["--jmax", "4", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "usable j values" in err
    assert not out.exists()
    assert run(argv + ["--jmin", "2", "--jmax", "6", "--out", str(out)]) in (0, 1)
    rep = json.loads((out / "dyadic.json").read_text())
    assert rep["inputs"]["j_range"] == [2, 3, 4, 5, 6]
    assert np.all(np.isfinite(rep["curves"]["u_gap_V"]))

@pytest.mark.parametrize("argv, cause", [
    (["exponents", "--f", "const:0"], "F is constant"),
    (["exponents", "--F", "const:2"], "F is constant"),
    (["holder", "--a", "const:1", "--b", "const:1.5", "--f", "const:0", "--p", "2"],
     "F is constant"),
    (["exponents", "--f", "linear:1,-2", "--rho-min", "0"], "--rho-min must be finite and positive"),
    (["exponents", "--f", "linear:1,-2", "--rho-min", "nan"], "--rho-min must be finite and positive"),
    (["exponents", "--f", "linear:1,-2", "--rho-max", "inf"], "--rho-max must be finite and positive"),
    (["exponents", "--f", "linear:1,-2", "--rho-max", "-1"], "--rho-max must be finite and positive"),
])
def test_unfittable_band_input_exit_2(argv, cause, tmp_path, capsys):
    out = tmp_path / "bx"
    assert run(argv + ["--n", "256", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and cause in err
    assert not out.exists()


_TRUTH_ARGV = ["pw2d", "recover", "--m", "8", "--truth"]
_DU_ARGV = ["recover", "--f", "const:1", "--du"]


_MALFORMED_FILES = [
    ("one_field.csv", "x,value\n0,1\n0.5\n1,1\n", _DU_ARGV + ["csv:one_field.csv"]),
    ("three_fields.csv", "x,value\n0,1,9\n0.5,1,9\n1,1,9\n", _DU_ARGV + ["csv:three_fields.csv"]),
    ("three_headers.csv", "x,value,extra\n0,1\n0.5,1\n1,1\n", _DU_ARGV + ["csv:three_headers.csv"]),
    ("empty.csv", "", _DU_ARGV + ["csv:empty.csv"]),
    ("nan.csv", "x,value\n0,1\n0.5,nan\n1,1\n", _DU_ARGV + ["csv:nan.csv"]),
    ("no_interval.json", '{"n": 2, "values": [1, 1, 1]}', _DU_ARGV + ["json:no_interval.json"]),
    ("list.json", "[1, 1, 1]", _DU_ARGV + ["json:list.json"]),
    ("object_values.json", '{"interval": [0, 1], "n": 2, "values": {"a": 1}}',
     _DU_ARGV + ["json:object_values.json"]),
    # the literal's kind picks the parser, not the file's suffix
    ("g.csv", "x,value\n0,0.5\n0.5,0\n1,-0.5\n", _DU_ARGV + ["json:g.csv"]),
    ("no_ny.json", '{"nx": 2, "coeffs": [1.0, 1.2]}', _TRUTH_ARGV + ["no_ny.json"]),
    ("fractional_nx.json", '{"nx": 2.7, "ny": 2, "coeffs": [1.0, 1.4, 0.9, 1.1]}',
     _TRUTH_ARGV + ["fractional_nx.json"]),
]


@pytest.mark.parametrize("name, text, argv", _MALFORMED_FILES,
                         ids=[case[0] for case in _MALFORMED_FILES])
def test_malformed_input_file_exit_2(name, text, argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / name).write_text(text)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ") and name in err


def test_csv_kind_parses_any_suffix(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    du = GridFunction1D.from_callable(lambda x: 0.5 - x, Interval(0.0, 1.0), 64)
    du.to_csv(tmp_path / "g.csv")
    du.to_csv(tmp_path / "g.json")
    for name in ("g.csv", "g.json"):
        assert run(_DU_ARGV + [f"csv:{name}", "--out", name.replace(".", "_")]) == 0
    assert (tmp_path / "g_json" / "recover.json").read_bytes() == \
        (tmp_path / "g_csv" / "recover.json").read_bytes()


def _write_pinned_inputs(root):
    """Input files for the pinned runs; their own bytes are pinned too, so
    this also covers GridFunction1D.to_csv and json_chunks of a grid."""
    from coeffid.report import json_chunks

    iv = Interval(0.0, 1.0)
    du = GridFunction1D.from_callable(lambda x: 0.6 - x + 0.1 * x**3, iv, 128)
    f = GridFunction1D.from_callable(lambda x: 1.0 + 0.25 * x * x, iv, 128)
    u = GridFunction1D.from_callable(lambda x: x * (1 - x) * (1 + 0.2 * x), iv, 64)
    du.to_csv(root / "du.csv")
    f.to_csv(root / "f.csv")
    u.to_csv(root / "u.csv")
    (root / "du.json").write_bytes(b"".join(json_chunks(du.to_json_dict(), {})))
    (root / "f.json").write_bytes(b"".join(json_chunks(f.to_json_dict(), {})))
    x = np.linspace(0.0, 1.0, 3 * 64 + 1)
    flat = np.where(x < 1 / 3, 1.0, 0.0) - np.where(x > 2 / 3, 1.0, 0.0)
    GridFunction1D(iv, flat).to_csv(root / "flat.csv")
    (root / "t.json").write_text(json.dumps({"nx": 2, "ny": 2, "coeffs": [1.0, 1.4, 0.9, 1.1]}))


def _sha16(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


# exit code and sha256 (first 16 hex digits) of every file each small --out
# run writes, taken from the element-by-element renderer (tests/oracles.py).
# The inputs are polynomials, but the values still pass through numpy and
# LAPACK, so a platform whose kernels round differently can move a digest.
_PINNED_RUNS = {
    "forward": ["forward", "--a", "linear:1,0.5", "--f", "const:1.5", "--n", "64"],
    "forward json": ["forward", "--a", "linear:1,0.5", "--f", "const:1.5", "--n", "64",
                     "--format", "json"],
    "forward csv": ["forward", "--a", "linear:1,0.5", "--f", "const:1.5", "--n", "64",
                    "--format", "csv"],
    "recover csv": ["recover", "--du", "csv:du.csv", "--f", "csv:f.csv"],
    "recover csv json": ["recover", "--du", "csv:du.csv", "--f", "csv:f.csv",
                         "--format", "json"],
    "recover csv csv": ["recover", "--du", "csv:du.csv", "--f", "csv:f.csv",
                        "--format", "csv"],
    "recover json": ["recover", "--du", "json:du.json", "--f", "json:f.json"],
    "recover u": ["recover", "--u", "csv:u.csv", "--f", "const:2"],
    "exponents": ["exponents", "--f", "linear:1,-2", "--n", "512"],
    "holder": ["holder", "--a", "const:1", "--b", "const:1.5", "--f", "const:1", "--p", "2",
               "--alpha", "1", "--beta", "1", "--n", "256"],
    "holder fitted": ["holder", "--a", "const:1", "--b", "linear:1,0.5", "--f", "linear:1,-2",
                      "--p", "2", "--n", "512"],
    "holder flat": ["holder", "--a", "const:1", "--b", "const:1.5", "--f", "csv:flat.csv",
                    "--p", "2"],
    "dyadic": ["dyadic", "--alpha", "2", "--beta", "0", "--p", "1", "--jmax", "6",
               "--n", "4096"],
    "volterra": ["counterexample", "volterra", "--level", "2", "--n", "512"],
    "inhomogeneous": ["counterexample", "inhomogeneous", "--n", "64"],
    "coarea": ["coarea", "--h", "csv:du.csv", "--nlevels", "16", "--t-start", "0.5"],
    "pw2d verify": ["pw2d", "verify", "--m", "8", "--trials", "2", "--seed", "1"],
    "pw2d recover": ["pw2d", "recover", "--truth", "t.json", "--m", "8"],
}
_PINNED_INPUTS = {
    "du.csv": "c8854cb58e36d1fe",
    "du.json": "6f69d5157a8eba71",
    "f.csv": "cd4d59aaf52154c1",
    "f.json": "20a3b7ce6cb87318",
    "flat.csv": "48456fc8df40fecb",
    "t.json": "211fdd1ec7129b4c",
    "u.csv": "b4ee0a03a364b857",
}
_PINNED_DIGESTS = {
    "forward": (0, {
        "forward.csv": "8e432dde31c96a2c",
        "forward.json": "2a30db0701cf7185",
        "manifest.json": "17d033641ecde12a",
        "solution.json": "89176099b3aae548",
    }),
    "forward json": (0, {
        "forward.json": "2a30db0701cf7185",
        "manifest.json": "ce4b49ae23e68225",
        "solution.json": "89176099b3aae548",
    }),
    "forward csv": (0, {
        "forward.csv": "8e432dde31c96a2c",
        "manifest.json": "4873d41b385d08f6",
        "solution.json": "89176099b3aae548",
    }),
    "recover csv": (0, {
        "coefficient.json": "6e031514440614aa",
        "manifest.json": "7936eebe920cd30c",
        "recover.csv": "7fb22a5c500d0d12",
        "recover.json": "d0c25697e72a438c",
    }),
    "recover csv json": (0, {
        "coefficient.json": "6e031514440614aa",
        "manifest.json": "bebfa98ded3c1207",
        "recover.json": "d0c25697e72a438c",
    }),
    "recover csv csv": (0, {
        "coefficient.json": "6e031514440614aa",
        "manifest.json": "458f87f08914995a",
        "recover.csv": "7fb22a5c500d0d12",
    }),
    "recover json": (0, {
        "coefficient.json": "6e031514440614aa",
        "manifest.json": "a65afe3236d02841",
        "recover.csv": "7fb22a5c500d0d12",
        "recover.json": "d266376889c28714",
    }),
    "recover u": (0, {
        "coefficient.json": "93df0a7f3bbc3a44",
        "manifest.json": "777c370dcd698d35",
        "recover.csv": "0025c20bab118a79",
        "recover.json": "b05f467784755d83",
    }),
    "exponents": (0, {
        "exponents.csv": "9323bfd349572d26",
        "exponents.json": "3e9025b5c93cf6c3",
        "manifest.json": "6704b9dfac5a0965",
    }),
    "holder": (0, {
        "holder.json": "2ba4e5519d91f07f",
        "manifest.json": "9e2f310583b4fe15",
    }),
    "holder fitted": (0, {
        "holder.json": "9ef2022a9ddd8824",
        "manifest.json": "cc42054bb85e1478",
    }),
    "holder flat": (1, {
        "holder.json": "3d12d4d176920530",
        "manifest.json": "8e3fb474d41fe287",
    }),
    "dyadic": (0, {
        "dyadic.csv": "31fd6b38536cdb51",
        "dyadic.json": "6134a0027fc66ed2",
        "manifest.json": "976395f13d38ba6f",
    }),
    "volterra": (0, {
        "counterexample_volterra.csv": "1be087de11dbe599",
        "counterexample_volterra.json": "9f3ea075f9d41a50",
        "manifest.json": "851e31e19587b488",
    }),
    "inhomogeneous": (0, {
        "counterexample_inhomogeneous.csv": "4a231b024fd26ca4",
        "counterexample_inhomogeneous.json": "d1adc2abcb2f9612",
        "manifest.json": "1d54aa146800be64",
    }),
    "coarea": (0, {
        "coarea.csv": "41140064983ccdc5",
        "coarea.json": "5c472772befcfc76",
        "manifest.json": "77b2726271f45950",
    }),
    "pw2d verify": (0, {
        "manifest.json": "57d2ef3acdd4425b",
        "pw2d_verify.csv": "a647b1f9b4f57220",
        "pw2d_verify.json": "3d494ba3d7e73e7a",
    }),
    "pw2d recover": (0, {
        "manifest.json": "cd531569296a40a0",
        "pw2d_recover.csv": "b1894490f91f5f27",
        "pw2d_recover.json": "4874829648ea87a8",
        "u_meas.json": "f7b96c469c3727bf",
    }),
}


def test_exponents_curves_match_per_cell_oracle(tmp_path, monkeypatch):
    # checks the pinned exponents digests apart from the code that made them:
    # each curve point is the min or max over the M grid of per-cell sums
    from coeffid.forward import primitive

    from oracles import band_measure_per_cell

    monkeypatch.chdir(tmp_path)
    assert run(_PINNED_RUNS["exponents"] + ["--out", "ex"]) == 0
    rep = json.loads((tmp_path / "ex" / "exponents.json").read_text())
    F = primitive(GridFunction1D.from_callable(lambda x: 1.0 - 2.0 * x, Interval(0.0, 1.0), 512))
    fmin, fmax = float(F.values.min()), float(F.values.max())
    meas = np.array([[band_measure_per_cell(F, float(M), r)
                      for M in np.linspace(fmin + r, fmax - r, rep["inputs"]["M_points"])]
                     for r in rep["curves"]["rho"]])
    for key, want in (("inf_measure", meas.min(axis=1)), ("sup_measure", meas.max(axis=1))):
        got = np.array(rep["curves"][key])
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want)), key


def test_output_bytes_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write_pinned_inputs(tmp_path)
    assert {p.name: _sha16(p) for p in tmp_path.iterdir()} == _PINNED_INPUTS
    got = {}
    for case, argv in _PINNED_RUNS.items():
        out = tmp_path / "out" / case.replace(" ", "_")
        code = run(argv + ["--out", str(out)])
        got[case] = (code, {p.name: _sha16(p) for p in out.iterdir()})
    assert got == _PINNED_DIGESTS
