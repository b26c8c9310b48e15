import json
import hashlib

import numpy as np
import pytest

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
    coeff = GridFunction1D.from_json((out / "coefficient.json").read_text())
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
    coeff = GF.from_json((out / "coefficient.json").read_text())
    rep = json.loads((out / "recover.json").read_text())
    masked = np.array(rep["curves"]["masked"], dtype=bool)
    assert np.abs(coeff.values - 1.0)[~masked].max() < 5e-2


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
    spellings = {"d1": ["--out=d1"], "d2": ["--out", "d2"], "d3": ["--ou", "d3"]}
    for flags in spellings.values():
        assert run(_SMALL_RUNS[cmd] + flags) == 0
    written = [{p.name: p.read_bytes() for p in (tmp_path / d).iterdir()} for d in spellings]
    assert "manifest.json" in written[0]
    assert written[0] == written[1] == written[2]


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


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_holder_needs_both_exponents_or_neither(flag, capsys):
    code = run(["holder", "--a", "const:1", "--b", "const:1.5", "--f", "const:1", "--p", "2",
                flag, "1", "--n", "256"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--alpha and --beta" in err


@pytest.mark.parametrize("alpha, beta", [("1", "0"), ("1", "-0.5"), ("-1", "0.5")])
def test_holder_out_of_range_exponents_exit_2(alpha, beta, tmp_path, capsys):
    # user-given exponents are inputs, not a fitted flat primitive
    out = tmp_path / "hx"
    code = run(["holder", "--a", "const:1", "--b", "const:1.5", "--f", "const:1", "--p", "2",
                "--alpha", alpha, "--beta", beta, "--n", "64", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert not out.exists()
