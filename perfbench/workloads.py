"""The four benchmark workloads.

Each workload makes all of its inputs from its seed in `setup`, hands the
package only those inputs, runs one item per `run(k)` call and checks the
result in `check(k, result)`, which raises `CheckFailed` on a wrong result.
Inputs form a pool that items cycle through; a run stops only at a multiple
of `cycle` items, so every run holds the same mix of item kinds.

Why these four (see BENCHMARK.json for the one-line reasons):

* pw2d_recover: the 2D coordinate-descent recovery loop, with half its
  items on noisy data, so a faster method that loses noise stability fails.
* pw2d_verify: the same FEM layer used as cold one-shot solves at larger m,
  with block H^-1 norms; a recovery speed-up that slows one-shot solves,
  re-assembly or memory shows here.
* study_1d: the 1D vector kernels, the quadratic level-set scan and the
  per-M loop of the exponent fit, with no 2D code at all.
* cli_io: the CLI end to end, where report rendering, CSV I/O and manifest
  hashing dominate; it also guards that reports are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np

BOUNDS = (0.5, 2.0)


class CheckFailed(Exception):
    """An item's result is wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Workload:
    """Base class: `name`, `cycle`, per-mode `SIZES`, and the three hooks."""

    name = ""
    cycle = 1
    SIZES: dict = {}

    def __init__(self, seed: int, small: bool = False):
        self.seed = seed
        self.sizes = dict(self.SIZES["small" if small else "full"])
        self.pkg = None

    def setup(self, pkg) -> None:
        """Make the input pool from the seed, with the package classes of
        `pkg` (a namespace of the coeffid modules)."""
        self.pkg = pkg

    @property
    def pool(self) -> int:
        """Number of distinct inputs the items cycle through."""
        return self.sizes.get("pool", 1)

    def warmup(self) -> range:
        """Items run once during set-up."""
        return range(1)

    def prepare(self, k: int) -> None:
        """Untimed work before item k."""

    def run(self, k: int):
        raise NotImplementedError

    def check(self, k: int, result) -> None:
        raise NotImplementedError

    def digest(self) -> str | None:
        """Digest of the outputs that must repeat byte for byte, if any."""
        return None


class Pw2dRecover(Workload):
    """One item per seeded 2x2-block truth: fem_solve, then recover_pw from
    the exact field and from the field with relative noise, so half the
    recoveries run on noisy data.

    An item holds both recoveries because their costs differ by ~1.6x; with
    one recovery per item the median item time would fall between the two
    clusters and jump from run to run. The truths form a Latin hypercube over
    the pool, and a run holds whole passes over the pool, so every run sees
    the coefficient range evenly and the same truths however fast the code is.
    """

    name = "pw2d_recover"
    SIZES = {
        "full": {"nx": 2, "ny": 2, "m": 16, "noise": 1e-3, "pool": 4},
        "small": {"nx": 2, "ny": 2, "m": 4, "noise": 1e-3, "pool": 2},
    }

    @property
    def cycle(self) -> int:
        # truths differ up to ~2x in cost, so a run stops only after a pass
        return self.pool

    def setup(self, pkg) -> None:
        super().setup(pkg)
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        self.part = pkg.pw2d.Partition2D(s["nx"], s["ny"])
        self.bounds = pkg.grids.CoefficientBounds(*BOUNDS)
        nb, pool = self.part.n_blocks, s["pool"]
        strata = (np.argsort(rng.random((nb, pool)), axis=1) + rng.random((nb, pool))) / pool
        self.truths = [pkg.pw2d.PwConstCoefficient(self.part, 0.6 + 1.3 * strata[:, k])
                       for k in range(pool)]
        self.noise = []
        for _ in range(pool):
            z = rng.standard_normal((s["m"] + 1, s["m"] + 1))
            self.noise.append(s["noise"] * z / np.sqrt(np.mean(z * z)))

    def run(self, k: int):
        pw2d = self.pkg.pw2d
        m = self.sizes["m"]
        u = pw2d.fem_solve(self.truths[k], 1.0, m)
        exact = pw2d.recover_pw(u, 1.0, self.part, self.bounds, m)
        noisy = pw2d.recover_pw(u * (1.0 + self.noise[k]), 1.0, self.part, self.bounds, m)
        return exact, noisy

    def check(self, k: int, result) -> None:
        exact, noisy = result
        truth = self.truths[k].coeffs
        err = float(np.abs(exact.coeff.coeffs - truth).max())
        _require(bool(exact.converged), "exact recovery did not converge")
        _require(err < 1e-3, f"exact recovery error {err:.3e} >= 1e-3")
        err = float(np.abs(noisy.coeff.coeffs - truth).max())
        _require(err <= 1e-2, f"noisy recovery error {err:.3e} > 1e-2")


class Pw2dVerify(Workload):
    """One bound sweep per item: hminus1_norm for every block, then
    verify_pw_bound on random admissible pairs; items cycle through the
    (nx, ny, m) configurations."""

    name = "pw2d_verify"
    cycle = 3
    SIZES = {
        "full": {"configs": [[2, 2, 64], [2, 2, 128], [4, 4, 128]], "trials": 2, "pool": 24},
        "small": {"configs": [[2, 2, 8], [2, 2, 16], [4, 4, 16]], "trials": 2, "pool": 3},
    }

    def setup(self, pkg) -> None:
        super().setup(pkg)
        rng = np.random.default_rng(self.seed)
        configs = self.sizes["configs"]
        self.items = []
        for k in range(self.pool):
            nx, ny, m = configs[k % len(configs)]
            part = pkg.pw2d.Partition2D(nx, ny)
            pairs = [
                tuple(pkg.pw2d.PwConstCoefficient(part, rng.uniform(*BOUNDS, part.n_blocks))
                      for _ in range(2))
                for _ in range(self.sizes["trials"])
            ]
            self.items.append((part, m, pairs))
        self.bounds = pkg.grids.CoefficientBounds(*BOUNDS)

    def warmup(self) -> range:
        # one item per configuration, so every FEM workspace is built in set-up
        return range(len(self.sizes["configs"]))

    def run(self, k: int):
        pw2d = self.pkg.pw2d
        part, m, pairs = self.items[k]
        hm = np.array([pw2d.hminus1_norm(1.0, part, i, m) for i in range(part.n_blocks)])
        reports = [pw2d.verify_pw_bound(a, b, 1.0, m, bounds=self.bounds, block_hminus1=hm)
                   for a, b in pairs]
        return hm, reports

    def check(self, k: int, result) -> None:
        hm, reports = result
        m = self.items[k][1]
        _require(bool(np.all(hm > 0.0)), "a block H^-1 norm is not positive")
        slack = 1.0 + 5.0 / m
        for rep in reports:
            worst = float(np.max(rep.curves["ratio"]))
            _require(worst <= slack, f"bound ratio {worst:.6f} > {slack:.6f} at m={m}")


def _level_perimeter(values: np.ndarray, t: float) -> int:
    """Transversal crossings of level t, nodes on the level dropped."""
    s = np.sign(values - t)
    s = s[s != 0]
    return int(np.count_nonzero(s[:-1] != s[1:]))


DYADIC_TARGETS = [(2.0, 0.0, 1.0), (1.0, 0.0, 1.0), (4.0, 0.0, 2.0)]


class Study1D(Workload):
    """One seeded 1D study per item: solve and recover, an exponent fit, the
    coarea identity with good levels, and one dyadic-rate target."""

    name = "study_1d"
    cycle = 6
    SIZES = {
        "full": {"n_solve": 2**20, "n_fit": 2**14, "n_coarea": [2**13, 2**14],
                 "n_dyadic": 2**16, "j_range": [4, 10], "knots": 32, "pool": 6},
        "small": {"n_solve": 2**10, "n_fit": 2**10, "n_coarea": [2**8, 2**9],
                  "n_dyadic": 2**16, "j_range": [4, 10], "knots": 8, "pool": 6},
    }

    def setup(self, pkg) -> None:
        super().setup(pkg)
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        GF = pkg.grids.GridFunction1D
        unit = pkg.grids.Interval(0.0, 1.0)
        self.bounds = pkg.grids.CoefficientBounds(*BOUNDS)
        x = np.linspace(0.0, 1.0, s["n_solve"] + 1)
        xf = np.linspace(0.0, 1.0, s["n_fit"] + 1)
        target0 = int(rng.integers(len(DYADIC_TARGETS)))
        self.items = []
        for k in range(self.pool):
            ka, kf = rng.integers(1, 5, size=2)
            pa, pf = rng.uniform(0.0, 2.0 * np.pi, size=2)
            a = GF(unit, 1.25 + 0.5 * np.sin(2.0 * np.pi * ka * x + pa))
            f = GF(unit, 1.0 + 0.5 * np.cos(2.0 * np.pi * kf * x + pf))
            # F = integral of sign(x - x0)|x - x0|^q has a critical point of
            # order q + 1, so the sup branch scales with beta = 1/(q + 1)
            q = rng.uniform(0.25, 1.0)
            x0 = rng.uniform(0.3, 0.7)
            F = GF(unit, (np.abs(xf - x0) ** (q + 1.0) - x0 ** (q + 1.0)) / (q + 1.0))
            span = float(F.values.max() - F.values.min())
            rho = np.geomspace(span / 4.0, span / 2048.0, 10)
            # coarea sizes spread evenly over the range, the same in every
            # run, so item times form one cluster rather than two
            lo, hi = s["n_coarea"]
            nc = lo + (hi - lo) * k // (self.pool - 1)
            knots = np.sort(rng.uniform(0.0, 1.0, s["knots"]))
            heights = rng.uniform(0.0, 1.0, s["knots"] + 2)
            xc = np.linspace(0.0, 1.0, nc + 1)
            h = GF(unit, np.interp(xc, np.concatenate(([0.0], knots, [1.0])), heights))
            alpha_d, beta_d, p = DYADIC_TARGETS[(target0 + k) % len(DYADIC_TARGETS)]
            self.items.append({"a": a, "f": f, "F": F, "q": q, "rho": rho, "h": h,
                               "dyadic": (alpha_d, beta_d, p)})

    def run(self, k: int):
        pkg = self.pkg
        it = self.items[k]
        sol = pkg.forward.solve(it["a"], it["f"])
        rec = pkg.inverse.recover(sol.du, it["f"], self.bounds)
        fit = pkg.stability.fit_exponents(it["F"], it["rho"], 32)
        coarea = pkg.gmt.coarea_check(it["h"])
        levels = pkg.gmt.good_levels(it["h"], 0.5)
        alpha_d, beta_d, p = it["dyadic"]
        fam = pkg.stability.DyadicFamily(alpha_d=alpha_d, beta_d=beta_d)
        j0, j1 = self.sizes["j_range"]
        dyadic = pkg.stability.dyadic_rate(fam, p, range(j0, j1 + 1), self.sizes["n_dyadic"])
        return {"rec": rec, "fit": fit, "coarea": coarea, "levels": levels, "dyadic": dyadic}

    def check(self, k: int, result) -> None:
        it = self.items[k]
        a = it["a"].values
        rec = result["rec"]
        good = ~np.asarray(rec.degenerate_mask)
        l1 = float(np.abs(rec.a.values - a)[good].sum()) * it["a"].h
        _require(l1 < 1e-3, f"1D roundtrip unmasked L1 error {l1:.3e} >= 1e-3")

        fit = result["fit"]
        beta = 1.0 / (it["q"] + 1.0)
        _require(np.isfinite(fit.alpha) and abs(fit.beta - beta) < 0.1,
                 f"fitted (alpha, beta) = ({fit.alpha:.3f}, {fit.beta:.3f}), expected beta {beta:.3f}")

        h = it["h"].values
        tv = float(np.abs(np.diff(h)).sum())
        metrics = result["coarea"].metrics
        _require(metrics["rel_error"] < 1e-12, f"coarea rel_error {metrics['rel_error']:.3e}")
        rel = abs(metrics["coarea_integral"] - tv) / tv
        _require(rel < 1e-12, f"coarea integral off the total variation by {rel:.3e}")
        levels = result["levels"]
        _require(len(levels) > 0, "no good level")
        for t in levels:
            per = _level_perimeter(h, t)
            _require(per <= 1.0 / (t * abs(np.log(t))), f"level {t:g} has perimeter {per}")

        dev = result["dyadic"].metrics["rel_deviation"]
        _require(dev <= 0.15, f"dyadic rel_deviation {dev:.3f} > 0.15")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliIO(Workload):
    """In-process CLI runs with --out: write seeded du/f as CSV, recover
    from them, a forward solve and the volterra certificate.

    Paths are relative to the working directory, so the argv recorded in
    each manifest, and with it every output byte, repeats across items,
    processes and traced runs.
    """

    name = "cli_io"
    SIZES = {
        "full": {"n_csv": 2**16, "n_forward": 65536, "n_volterra": 32768},
        "small": {"n_csv": 2**10, "n_forward": 1024, "n_volterra": 512},
    }
    WORKDIR = Path(".perfbench") / "cli_io"
    reference: dict | None = None  # output digests of the first item

    def setup(self, pkg) -> None:
        super().setup(pkg)
        s = self.sizes
        rng = np.random.default_rng(self.seed)
        GF = pkg.grids.GridFunction1D
        unit = pkg.grids.Interval(0.0, 1.0)
        ka, kf = rng.integers(1, 5, size=2)
        pa, pf = rng.uniform(0.0, 2.0 * np.pi, size=2)
        x = np.linspace(0.0, 1.0, s["n_csv"] + 1)
        a = 1.25 + 0.5 * np.sin(2.0 * np.pi * ka * x + pa)
        f = 1.0 + 0.5 * np.cos(2.0 * np.pi * kf * x + pf)
        # du = (C - F)/a, the flux identity with C fixed by u(0) = u(1) = 0
        hx = 1.0 / s["n_csv"]
        F = np.concatenate(([0.0], np.cumsum(0.5 * hx * (f[:-1] + f[1:]))))
        w = 1.0 / a
        w[0] *= 0.5
        w[-1] *= 0.5
        C = float((w * F).sum() / w.sum())
        self.du = GF(unit, (C - F) / a)
        self.f = GF(unit, f)
        c0, c1, c = rng.uniform(1.0, 1.5), rng.uniform(-0.4, 0.4), rng.uniform(0.5, 2.0)
        inp = self.WORKDIR / "in"
        self.out = self.WORKDIR / "out"
        self.paths = {"du": inp / "du.csv", "f": inp / "f.csv"}
        self.argvs = {
            "recover": ["recover", "--du", f"csv:{self.paths['du']}",
                        "--f", f"csv:{self.paths['f']}"],
            "forward": ["forward", "--n", str(s["n_forward"]),
                        "--a", f"linear:{c0!r},{c1!r}", "--f", f"const:{c!r}"],
            "volterra": ["counterexample", "volterra", "--n", str(s["n_volterra"]),
                         "--amp", repr(rng.uniform(0.2, 1.0))],
        }

    def prepare(self, k: int) -> None:
        shutil.rmtree(self.WORKDIR, ignore_errors=True)
        (self.WORKDIR / "in").mkdir(parents=True)

    def run(self, k: int):
        self.du.to_csv(self.paths["du"])
        self.f.to_csv(self.paths["f"])
        main = self.pkg.cli.main
        return {cmd: main(argv + ["--out", str(self.out / cmd)])
                for cmd, argv in self.argvs.items()}

    def check(self, k: int, result) -> None:
        digests = {str(p): _sha256(p) for p in self.paths.values()}
        for cmd, code in result.items():
            _require(code == 0, f"{cmd} exited with code {code}")
            outdir = self.out / cmd
            files = {p.name: _sha256(p) for p in outdir.iterdir()}
            listed = json.loads((outdir / "manifest.json").read_text())["outputs"]
            written = sorted(files.keys() - {"manifest.json"})
            _require(written == sorted(listed), f"{cmd} wrote {written}, manifest lists {sorted(listed)}")
            for name, digest in listed.items():
                _require(files[name] == digest, f"{cmd}/{name} does not match its manifest")
            digests.update({f"{cmd}/{name}": digest for name, digest in files.items()})
        if self.reference is None:
            self.reference = digests
        changed = sorted(name for name in set(digests) | set(self.reference)
                         if digests.get(name) != self.reference.get(name))
        _require(not changed, f"output bytes changed between repeats: {changed}")

    def digest(self) -> str | None:
        if self.reference is None:
            return None
        return hashlib.sha256(json.dumps(self.reference, sort_keys=True).encode()).hexdigest()


WORKLOADS = {w.name: w for w in (Pw2dRecover, Pw2dVerify, Study1D, CliIO)}
