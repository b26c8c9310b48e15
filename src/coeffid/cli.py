"""Command-line entry point.

One executable, eight subcommands. Exit codes: 0 success, 1 a mathematical
verification failed (a bound violated beyond slack, a residual above
tolerance), 2 usage error. All file outputs are byte-reproducible for fixed
flags and seed; a manifest.json with sha256 checksums accompanies every --out
directory.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .counterexamples import inhomogeneous_pair, volterra_pair
from .forward import primitive, solve
from .gmt import coarea_check, good_levels
from .grids import (
    CoefficientBounds,
    GridFunction1D,
    Interval,
    derivative,
    fmt_float,
    read_json,
)
from .inverse import recover
from .pw2d import (
    Partition2D,
    PwConstCoefficient,
    fem_solve,
    field_to_json_dict,
    recover_pw,
    sweep_pw_bound,
)
from .report import ExperimentReport, json_chunks
from .stability import (
    DyadicFamily,
    dyadic_rate,
    fit_exponents,
    holder_exponent,
    verify_holder,
)

__all__ = ["main"]


def _parse_grid_function(literal: str, interval: Interval, n: int) -> GridFunction1D:
    """Inline input literals: const:c, linear:c0,c1 (c0 + c1*x), csv:path,
    json:path."""
    kind, sep, rest = literal.partition(":")
    if not sep:
        raise ValueError(f"malformed function literal {literal!r}: expected kind:args")
    if kind in ("const", "linear"):
        form = "const:c" if kind == "const" else "linear:c0,c1"
        try:
            coeffs = [float(t) for t in rest.split(",")]
        except ValueError:
            coeffs = []
        if len(coeffs) != form.count(",") + 1:
            raise ValueError(f"malformed function literal {literal!r}: expected {form}")
        if kind == "const":
            return GridFunction1D.const(coeffs[0], interval, n)
        c0, c1 = coeffs
        return GridFunction1D.from_callable(lambda x: c0 + c1 * x, interval, n)
    # the kind picks the parser, whatever the file's suffix
    if kind == "csv":
        return GridFunction1D.from_csv(rest)
    if kind == "json":
        return read_json(rest, GridFunction1D.from_json_dict)
    raise ValueError(f"unknown function literal kind {kind!r} (use const/linear/csv/json)")


def _grid_functions(args, *literals) -> list:
    """The 1D literals of a subcommand as grid functions. The first is
    sampled on [--lo, --hi] with --n cells unless it is a file, which brings
    its own grid; every later one is sampled on the first one's grid."""
    first = _parse_grid_function(literals[0], Interval(args.lo, args.hi), args.n)
    return [first] + [_parse_grid_function(lit, first.interval, first.n) for lit in literals[1:]]


def _emit(args, report: ExperimentReport, extra: dict) -> None:
    """Print the report, or write it with the extra {filename: object} files
    as canonical JSON and a manifest of their checksums into --out."""
    if args.out is None:
        print(report.to_json())
        return
    stem = "_".join(filter(None, (args.command, getattr(args, "kind", None))))
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    written = {}
    # files are written chunk by chunk as they are rendered: a JSON file is
    # held only as its pieces
    for name, chunks in report.files(stem, args.fmt, extra):
        digest = hashlib.sha256()
        with open(outdir / name, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
        written[name] = digest.hexdigest()
    # the output location is not an input: dropping it keeps manifests
    # byte-identical across reruns into different directories. A parser that
    # knows only --out drops it in every spelling the real one accepts
    # (--out DIR, --out=DIR, prefixes such as --ou DIR)
    out_only = argparse.ArgumentParser(add_help=False)
    out_only.add_argument("--out")
    manifest = {
        "package": f"coeffid {__version__}",
        "command": stem,
        "argv": out_only.parse_known_args(args.argv)[1],
        "seed": getattr(args, "seed", None),
        "outputs": dict(sorted(written.items())),
    }
    (outdir / "manifest.json").write_bytes(b"".join(json_chunks(manifest, {})))


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (report, {filename: object} extra files)
# ---------------------------------------------------------------------------


def _cmd_forward(args):
    a, f = _grid_functions(args, args.a, args.f)
    sol = solve(a, f)
    rep = ExperimentReport(
        name="forward",
        inputs={"a": args.a, "f": args.f, "n": a.n, "lo": a.interval.lo, "hi": a.interval.hi},
        metrics={
            "Ca": sol.Ca,
            "flux_residual": sol.flux_residual,
            "boundary_residual": sol.boundary_residual,
            "u_mid": float(sol.u.values[a.n // 2]),
        },
        curves={"x": a.x, "u": sol.u.values, "du": sol.du.values, "F": sol.F.values},
        passed=True,
    )
    solution = {"Ca": sol.Ca, "u": sol.u.to_json_dict(), "du": sol.du.to_json_dict(),
                "F": sol.F.to_json_dict()}
    return rep, {"solution.json": solution}


def _cmd_recover(args):
    du, f = _grid_functions(args, args.u if args.du is None else args.du, args.f)
    if args.du is None:
        du = derivative(du)
    bounds = CoefficientBounds(args.lam, args.Lam)
    res = recover(du, f, bounds, args.threshold)
    rep = ExperimentReport(
        name="recover",
        inputs={"f": args.f, "n": du.n, "lambda": bounds.lam, "Lambda": bounds.Lam},
        metrics={
            "C": res.C,
            "threshold": res.threshold,
            "fraction_degenerate": res.fraction_degenerate,
            "n_clamped": res.n_clamped,
        },
        curves={"x": du.x, "a": res.a.values, "masked": res.degenerate_mask.astype(int)},
        passed=True,
        notes=f"zero candidates: {[fmt_float(c) for c in res.candidates[:8]]}",
    )
    return rep, {"coefficient.json": res.a.to_json_dict()}


def _fit_bands(F: GridFunction1D, rho_max=None, rho_min=None, rho_points=10, M_points=32):
    """fit_exponents of F over rho_points band widths, geometric from rho_max
    (default span/4) down to rho_min (default rho_max/512), at M_points
    levels; returns the fit, rho_max and rho_min. A constant F, whose level
    bands cannot be fitted, is rejected."""
    span = float(F.values.max() - F.values.min())
    if not span > 0.0:
        raise ValueError("F is constant: no level bands to fit")
    for flag, rho in (("--rho-min", rho_min), ("--rho-max", rho_max)):
        if rho is not None and not (math.isfinite(rho) and rho > 0.0):
            raise ValueError(f"{flag} must be finite and positive, got {rho}")
    rho_max = span / 4.0 if rho_max is None else rho_max
    rho_min = rho_max / 512.0 if rho_min is None else rho_min
    fit = fit_exponents(F, np.geomspace(rho_max, rho_min, rho_points), M_points)
    return fit, rho_max, rho_min


def _cmd_exponents(args):
    (F,) = _grid_functions(args, args.f if args.F is None else args.F)
    if args.F is None:
        F = primitive(F)
    fit, rho_max, rho_min = _fit_bands(F, args.rho_max, args.rho_min, args.rho_points,
                                       args.M_points)
    rep = ExperimentReport(
        name="exponents",
        inputs={"n": F.n, "rho_min": rho_min, "rho_max": rho_max,
                "rho_points": args.rho_points, "M_points": args.M_points},
        metrics={"alpha": fit.alpha, "beta": fit.beta, "C1": fit.C1, "C2": fit.C2,
                 "residual": fit.residual, "beta_degenerate": fit.beta_degenerate},
        curves={"rho": fit.rho_grid, "inf_measure": fit.inf_curve,
                "sup_measure": fit.sup_curve},
        passed=True,
    )
    return rep, {}


def _cmd_holder(args):
    if (args.alpha is None) != (args.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    if args.alpha is not None:
        holder_exponent(args.p, args.alpha, args.beta)  # raises on out-of-range exponents
    a, b, f = _grid_functions(args, args.a, args.b, args.f)
    alpha, beta, flat = args.alpha, args.beta, False
    if alpha is None:
        fit = _fit_bands(primitive(f))[0]
        alpha, beta, flat = fit.alpha, fit.beta, fit.beta_degenerate
    if flat:
        rep = ExperimentReport(
            name="holder",
            inputs={"p": args.p, "alpha": alpha, "beta": beta},
            passed=False,
            notes="band-measure sup branch does not decay (flat primitive): "
                  "no positive stability exponent exists for this source",
        )
    else:
        rep = verify_holder(a, b, f, args.p, alpha, beta)
    rep.inputs = {"a": args.a, "b": args.b, "f": args.f, **rep.inputs}
    return rep, {}


def _cmd_dyadic(args):
    fam = DyadicFamily(alpha_d=args.alpha, beta_d=args.beta)
    return dyadic_rate(fam, args.p, range(args.jmin, args.jmax + 1), args.n), {}


def _cmd_counterexample(args):
    if args.kind == "volterra":
        pair = volterra_pair(args.level, args.n, args.amp)
        inputs = {"level": args.level, "n": args.n, "amp": args.amp}
    else:
        pair = inhomogeneous_pair(args.n)
        inputs = {"n": args.n}
    rep = ExperimentReport(
        name=f"counterexample_{args.kind}",
        inputs=inputs,
        metrics={"residual_a": pair.residual_a, "residual_b": pair.residual_b,
                 "coeff_gap": pair.coeff_gap},
        curves={"x": pair.a.x, "a": pair.a.values, "b": pair.b.values, "u": pair.u.values,
                "du": pair.du.values, "f": pair.f.values},
        passed=pair.passed,
    )
    return rep, {}


def _cmd_coarea(args):
    (h,) = _grid_functions(args, args.h)
    rep = coarea_check(h, args.nlevels)
    if args.t_start is not None:
        levels = good_levels(h, args.t_start)
        rep.metrics["n_good_levels"] = len(levels)
        rep.notes = f"good levels down to {fmt_float(levels[-1])}"
    return rep, {}


def _cmd_pw2d_verify(args):
    bounds = CoefficientBounds(args.lam, args.Lam)
    return sweep_pw_bound(Partition2D(args.nx, args.ny), 1.0, args.m, bounds, args.trials,
                          args.seed), {}


def _cmd_pw2d_recover(args):
    truth = read_json(args.truth, PwConstCoefficient.from_json_dict)
    bounds = CoefficientBounds(args.lam, args.Lam)
    if not bounds.admits(truth.coeffs):
        raise ValueError(f"truth coefficients outside [{bounds.lam}, {bounds.Lam}]")
    u_meas = fem_solve(truth, 1.0, args.m)
    res = recover_pw(u_meas, 1.0, truth.partition, bounds, args.m)
    errs = np.abs(res.coeff.coeffs - truth.coeffs)
    rep = ExperimentReport(
        name="pw2d_recover",
        inputs={"truth": args.truth, "m": args.m,
                "nx": truth.partition.nx, "ny": truth.partition.ny},
        metrics={"max_abs_error": float(errs.max()), "sweeps": res.sweeps,
                 "objective": res.objective, "converged": res.converged},
        curves={"block": np.arange(truth.partition.n_blocks), "truth": truth.coeffs,
                "recovered": res.coeff.coeffs},
        passed=res.converged,
        notes=res.warning or "",
    )
    return rep, {"u_meas.json": field_to_json_dict(u_meas)}


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, n_default: int | None = None,
                interval: bool = False, bounds: bool = False) -> None:
    """--out and --format everywhere; --n where the handler samples a grid
    (n_default cells unless given); --lo/--hi where it parses 1D literals;
    --lambda/--Lambda where it reads coefficient bounds."""
    if bounds:
        p.add_argument("--lambda", dest="lam", type=float, default=0.5)
        p.add_argument("--Lambda", dest="Lam", type=float, default=2.0)
    if n_default is not None:
        p.add_argument("--n", type=int, default=n_default, help="number of grid cells")
    if interval:
        p.add_argument("--lo", type=float, default=0.0, help="left endpoint")
        p.add_argument("--hi", type=float, default=1.0, help="right endpoint")
    p.add_argument("--out", type=str, default=None, help="output directory")
    p.add_argument("--format", dest="fmt", choices=("json", "csv", "both"), default="both")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="coeffid",
        description="Forward/inverse solvers and stability experiments for "
        "recovering the diffusion coefficient in -(a u')' = f from u.",
    )
    ap.add_argument("--version", action="version", version=f"coeffid {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "forward",
        help="solve -(a u')' = f exactly via the flux identity a u' = C - F",
    )
    p.add_argument("--a", required=True, help="coefficient literal (const:c, linear:c0,c1, csv:path)")
    p.add_argument("--f", required=True, help="source literal")
    _add_common(p, 1024, interval=True)
    p.set_defaults(run=_cmd_forward)

    p = sub.add_parser(
        "recover",
        help="recover a = (C - F)/u' from u' and f, identifying C from a zero of u'",
    )
    data = p.add_mutually_exclusive_group(required=True)
    data.add_argument("--du", help="derivative data literal")
    data.add_argument("--u", help="solution data literal (differentiated first)")
    p.add_argument("--f", required=True, help="source literal")
    p.add_argument("--threshold", type=float, default=None,
                   help="mask |u'| below this (default: sqrt(h) max|u'| / 100)")
    _add_common(p, 1024, interval=True, bounds=True)
    p.set_defaults(run=_cmd_recover)

    p = sub.add_parser(
        "exponents",
        help="fit the two-sided scaling C1 rho^alpha <= inf|K_rho| <= sup|K_rho| <= C2 rho^beta "
        "of the level-band measures of F",
    )
    data = p.add_mutually_exclusive_group(required=True)
    data.add_argument("--f", help="source literal (integrated to F)")
    data.add_argument("--F", help="primitive literal (used directly)")
    p.add_argument("--rho-min", dest="rho_min", type=float, default=None)
    p.add_argument("--rho-max", dest="rho_max", type=float, default=None)
    p.add_argument("--rho-points", dest="rho_points", type=int, default=10)
    p.add_argument("--M-points", dest="M_points", type=int, default=32)
    _add_common(p, 4096, interval=True)
    p.set_defaults(run=_cmd_exponents)

    p = sub.add_parser(
        "holder",
        help="measure both sides of |a-b|_Lp <= C |u'_a-u'_b|_L2^gamma for one pair",
    )
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--alpha", type=float, default=None,
                   help="band-measure growth exponent; give both or neither (then fitted)")
    p.add_argument("--beta", type=float, default=None, help="band-measure flatness exponent")
    _add_common(p, 4096, interval=True)
    p.set_defaults(run=_cmd_holder)

    p = sub.add_parser(
        "dyadic",
        help="measure the rate |a-a_j|_Lp ~ |u-u_j|_V^gamma on the multiscale family, "
        "gamma = (1/p - beta)/(alpha - 1/2 - beta)",
    )
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--jmax", type=int, default=10, help="largest j of the perturbations a_j")
    p.add_argument("--jmin", type=int, default=4, help="smallest j of the perturbations a_j")
    _add_common(p, 2**16)
    p.set_defaults(run=_cmd_dyadic)

    p = sub.add_parser(
        "counterexample",
        help="emit a machine-checked non-identifiability certificate",
    )
    csub = p.add_subparsers(dest="kind", required=True)
    pv = csub.add_parser(
        "volterra",
        help="fat-Cantor-set pair: two coefficients, one solution, source nonzero on every gap",
    )
    pv.add_argument("--level", type=int, default=3)
    pv.add_argument("--amp", type=float, default=0.5)
    _add_common(pv, 2**15)
    pv.set_defaults(run=_cmd_counterexample)
    pi = csub.add_parser(
        "inhomogeneous",
        help="boundary-data pair: -(a u')' = -(b u')' = 1 with a != b",
    )
    _add_common(pi, 1024)
    pi.set_defaults(run=_cmd_counterexample)

    p = sub.add_parser(
        "coarea",
        help="verify TV(h) = integral of the level-set perimeters P({h > t}) dt",
    )
    p.add_argument("--h", required=True, help="profile literal")
    p.add_argument("--nlevels", type=int, default=64)
    p.add_argument("--t-start", dest="t_start", type=float, default=None,
                   help="also scan good levels with P <= 1/(t |ln t|) from here")
    _add_common(p, 4096, interval=True)
    p.set_defaults(run=_cmd_coarea)

    p = sub.add_parser(
        "pw2d",
        help="piecewise-constant coefficients on the unit square",
    )
    psub = p.add_subparsers(dest="kind", required=True)
    pverify = psub.add_parser(
        "verify",
        help="check |a_i-b_i| |f|_{H^-1(D_i)} <= Lam^2 |grad(u_a-u_b)|_{L2(D_i)} per block "
        "on random admissible pairs",
    )
    pverify.add_argument("--nx", type=int, default=2)
    pverify.add_argument("--ny", type=int, default=2)
    pverify.add_argument("--m", type=int, default=64)
    pverify.add_argument("--trials", type=int, default=10)
    pverify.add_argument("--seed", type=int, default=0,
                         help="rng seed for the random pairs (default 0, so reruns match)")
    _add_common(pverify, bounds=True)
    pverify.set_defaults(run=_cmd_pw2d_verify)
    precover = psub.add_parser(
        "recover",
        help="recover per-block constants from a measured field: equation-error start, "
        "then Gauss-Newton steps on the gradient misfit (the report's sweeps counts the steps)",
    )
    precover.add_argument("--truth", required=True, help="json file {nx, ny, coeffs}")
    precover.add_argument("--m", type=int, default=64)
    _add_common(precover, bounds=True)
    precover.set_defaults(run=_cmd_pw2d_recover)

    return ap


# line breaks (those str.splitlines knows) escaped, so a message that echoes
# a path or literal stays on one stderr line
_ESCAPE_BREAKS = {c: repr(chr(c))[1:-1] for c in (0x0a, 0x0b, 0x0c, 0x0d, 0x1c, 0x1d,
                                                   0x1e, 0x85, 0x2028, 0x2029)}


def main(argv=None) -> int:
    ap = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = ap.parse_args(argv, argparse.Namespace(argv=tuple(argv)))
    try:
        # numpy's floating-point warnings would add stderr lines of their
        # own: a value that must be finite is checked and fails in one line
        with np.errstate(all="ignore"):
            rep, extra = args.run(args)
            _emit(args, rep, extra)
    except (ValueError, OSError) as exc:
        print(f"error: {str(exc).translate(_ESCAPE_BREAKS)}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"verification failure: {str(exc).translate(_ESCAPE_BREAKS)}", file=sys.stderr)
        return 1
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
