"""Benchmark of the coeffid package: four workloads, end-to-end metrics from
an untraced run and per-layer metrics from a traced one.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

The first form runs one workload in this process and prints, as its last
stdout line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Lines before it
hold the environment header and run details. The second form runs every
workload both ways in child processes and prints every metric by name and
unit, with the end-to-end metric and workload each layer metric should move.

A run imports the package from src/ next to this directory, sets up
SETUP_REPEATS times (fresh import, inputs from the seed, warm-up items) and
reports the median set-up time. It then runs items in a closed loop, one at a
time, checking each result, until the time is up. A traced run spends half the
time untraced, then replays the same items with every public package name
wrapped, so the trace overhead compares identical work. Spans are written to
.perfbench/ when the run ends.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = Path(".perfbench")
LAYERS = ("grids", "forward", "inverse", "stability", "gmt", "counterexamples",
          "pw2d", "report", "cli")
SETUP_REPEATS = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "COEFFID_THREADS")

sys.path.insert(0, str(HERE))
from tracer import Tracer, self_times, write_spans  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

# Counters read off return values, where the work happens.
OBSERVE = {
    "pw2d.recover_pw": lambda r: {"sweeps": r.sweeps},
    "inverse.recover_from_primitive": lambda r: {"masked": r.fraction_degenerate},
    "forward.solve_from_primitive": lambda r: {"nodes": r.u.values.size},
    "report.canonical_json": lambda r: {"bytes": len(r)},
    "report.curves_csv": lambda r: {"bytes": len(r)},
}


def _self(span):
    return lambda st, obs, n: st.get(span, {}).get("self_s", 0.0) / n


def _calls(span):
    return lambda st, obs, n: st.get(span, {}).get("calls", 0) / n


def _per_call(span, key):
    def f(st, obs, n):
        calls = st.get(span, {}).get("calls", 0)
        return obs.get((span, key), 0.0) / calls if calls else 0.0
    return f


def _per_item(pairs):
    return lambda st, obs, n: sum(obs.get(p, 0.0) for p in pairs) / n


def _nodes_per_s(st, obs, n):
    total = st.get("forward.solve_from_primitive", {}).get("total_s", 0.0)
    return obs.get(("forward.solve_from_primitive", "nodes"), 0.0) / total if total else 0.0


def _module_self(module):
    prefix = module + "."
    return lambda st, obs, n: sum(v["self_s"] for k, v in st.items() if k.startswith(prefix)) / n


_REC = "items_per_s on pw2d_recover"
_VER = "items_per_s on pw2d_verify"
_1D = "items_per_s on study_1d"
_CLI = "items_per_s and peak_rss_mb on cli_io"

# (name, unit, better, end-to-end metric and workload it should move, value).
# Times and counts are per measured item unless the unit says otherwise.
LAYER_METRICS = [
    ("pw2d.recover_pw.self_s", "s/item", "lower", _REC, _self("pw2d.recover_pw")),
    ("pw2d.recover_pw.sweeps", "count", "lower", _REC, _per_call("pw2d.recover_pw", "sweeps")),
    ("pw2d.grad_norm_by_block.calls", "calls/item", "lower", _REC, _calls("pw2d.grad_norm_by_block")),
    ("pw2d.fem_solve.calls", "calls/item", "lower", _VER, _calls("pw2d.fem_solve")),
    ("pw2d.fem_solve.self_s", "s/item", "lower", _VER, _self("pw2d.fem_solve")),
    ("pw2d.build_system.self_s", "s/item", "lower", _VER, _self("pw2d.build_system")),
    ("pw2d.hminus1_norm.calls", "calls/item", "lower", _VER, _calls("pw2d.hminus1_norm")),
    ("pw2d.hminus1_norm.self_s", "s/item", "lower", _VER, _self("pw2d.hminus1_norm")),
    ("pw2d.verify_pw_bound.self_s", "s/item", "lower", _VER, _self("pw2d.verify_pw_bound")),
    ("gmt.coarea_check.self_s", "s/item", "lower", _1D, _self("gmt.coarea_check")),
    ("gmt.coarea_integral.self_s", "s/item", "lower", _1D, _self("gmt.coarea_integral")),
    ("gmt.level_perimeter.calls", "calls/item", "lower", _1D, _calls("gmt.level_perimeter")),
    ("gmt.good_levels.self_s", "s/item", "lower", _1D, _self("gmt.good_levels")),
    ("stability.fit_exponents.self_s", "s/item", "lower", _1D, _self("stability.fit_exponents")),
    ("stability.k_rho_measure.calls", "calls/item", "lower", _1D, _calls("stability.k_rho_measure")),
    ("stability.dyadic_rate.self_s", "s/item", "lower", _1D, _self("stability.dyadic_rate")),
    ("forward.solve_from_primitive.self_s", "s/item", "lower", _1D,
     _self("forward.solve_from_primitive")),
    ("forward.nodes_per_s", "1/s", "higher", _1D, _nodes_per_s),
    ("inverse.recover_from_primitive.self_s", "s/item", "lower", _1D,
     _self("inverse.recover_from_primitive")),
    ("inverse.masked_fraction", "frac", "lower", _1D,
     _per_call("inverse.recover_from_primitive", "masked")),
    ("report.canonical_json.calls", "calls/item", "lower", _CLI, _calls("report.canonical_json")),
    ("report.canonical_json.self_s", "s/item", "lower", _CLI, _self("report.canonical_json")),
    ("report.curves_csv.self_s", "s/item", "lower", _CLI, _self("report.curves_csv")),
    ("report.bytes_out", "B/item", "lower", _CLI,
     _per_item([("report.canonical_json", "bytes"), ("report.curves_csv", "bytes")])),
    ("grids.from_csv.self_s", "s/item", "lower", _CLI, _self("grids.from_csv")),
    ("grids.to_csv.self_s", "s/item", "lower", _CLI, _self("grids.to_csv")),
    ("counterexamples.volterra_pair.self_s", "s/item", "lower", _CLI,
     _self("counterexamples.volterra_pair")),
    ("cli.main.self_s", "s/item", "lower", _CLI, _self("cli.main")),
] + [
    (f"{mod}.self_s", "s/item", "lower", "items_per_s wherever the module runs", _module_self(mod))
    for mod in LAYERS
]

END_TO_END = {"items_per_s": "1/s", "item_p50_s": "s", "item_tail_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def load_package() -> SimpleNamespace:
    """Import coeffid afresh from SRC, so every set-up starts with empty
    package caches. Returns a namespace of the layer modules."""
    if not (SRC / "coeffid" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no coeffid package under {SRC}")
    for name in [n for n in sys.modules if n == "coeffid" or n.startswith("coeffid.")]:
        del sys.modules[name]
    # the old modules' caches sit in reference cycles (functions <-> module
    # globals); free them now so peak memory holds one set of caches
    gc.collect()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("coeffid")
    if Path(pkg.__file__).resolve().parent != (SRC / "coeffid").resolve():
        raise SystemExit(f"perfbench: coeffid imported from {pkg.__file__}, not {SRC}")
    mods = {name: importlib.import_module(f"coeffid.{name}") for name in LAYERS}
    return SimpleNamespace(package=pkg, **mods)


def _git_commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:  # no git on this machine
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def tail(times: list) -> tuple:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, 100 * (1 - 10/n); the maximum when fewer than twenty samples
    leave that percentile below the median."""
    pct = 100.0 * (1.0 - 10.0 / len(times))
    if pct < 50.0:
        return max(times), 100.0
    return float(np.percentile(times, pct)), pct


class Runner:
    """Runs items of one workload and counts those whose check failed."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def item(self, k: int) -> float:
        """Run and check item k; return its wall time (run only)."""
        self.wl.prepare(k)
        self.attempted += 1
        t0 = perf_counter()
        try:
            result = self.wl.run(k)
        except Exception as exc:  # an item that raises is a failed item
            elapsed = perf_counter() - t0
            self._fail(k, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = perf_counter() - t0
        try:
            self.wl.check(k, result)
        except CheckFailed as exc:
            self._fail(k, str(exc))
        return elapsed

    def _fail(self, k: int, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(f"item {k}: {message}")

    def loop(self, seconds: float) -> tuple:
        """Closed loop over the pool, a whole cycle at a time, while the next
        cycle, taking as long as the last, would end within `seconds`.
        Returns (indices, times)."""
        wl = self.wl
        order, times = [], []
        start = perf_counter()
        while True:
            t0 = perf_counter()
            for _ in range(wl.cycle):
                k = len(order) % wl.pool
                times.append(self.item(k))
                order.append(k)
            now = perf_counter()
            if now - start + (now - t0) > seconds:
                return order, times


def run_workload(name: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """One benchmark run. Returns the result line under "result" and the
    run details (setup times, tail percentile, spans, ...) beside it."""
    load_package()  # first import pays for numpy/scipy, outside the timed set-ups
    wl = WORKLOADS[name](seed, small)
    runner = Runner(wl)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pkg = load_package()
        wl.setup(pkg)
        for k in wl.warmup():
            runner.item(k)
        setup_times.append(perf_counter() - t0)

    order, times = runner.loop(seconds / 2 if trace else seconds)
    out = {"setup_times": setup_times, "times": times, "digest": wl.digest()}
    if trace:
        tracer = Tracer(OBSERVE)
        modules = [pkg.package] + [getattr(pkg, m) for m in LAYERS]
        traced = []
        tracer.install(modules)
        try:
            for i, k in enumerate(order):
                tracer.item = i
                traced.append(runner.item(k))
        finally:
            tracer.uninstall()
        stats = self_times(tracer.spans)
        n = len(traced)
        metrics = {metric: {"value": fn(stats, tracer.observed, n), "unit": unit}
                   for metric, unit, _, _, fn in LAYER_METRICS}
        metrics["trace_overhead_frac"] = {"value": sum(traced) / sum(times) - 1.0, "unit": "frac"}
        out.update(spans=tracer.spans, traced_times=traced, modules=modules)
    else:
        tail_s, tail_pct = tail(times)
        out["tail_pct"] = tail_pct
        metrics = {
            "items_per_s": len(times) / sum(times),
            "item_p50_s": statistics.median(times),
            "item_tail_s": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setup_times),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}
    out["failures"] = runner.failures
    out["result"] = {"correct": runner.failed == 0, "attempted": runner.attempted,
                     "failed": runner.failed, "metrics": metrics}
    return out


def _run_one(args) -> int:
    if not (SRC / "coeffid" / "__init__.py").is_file():
        print(f"perfbench: no coeffid package under {SRC}", file=sys.stderr)
        return 2
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "seconds": args.seconds, "trace": args.trace,
                      "sizes": WORKLOADS[args.workload].SIZES["full"]}), flush=True)
    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = {"items": len(out["times"]), "item_times": [round(t, 4) for t in out["times"]],
              "setup_times": out["setup_times"],
              "output_digest": out["digest"], "failures": out["failures"]}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        write_spans(out["spans"], path)
        detail.update(spans=len(out["spans"]), span_file=str(path))
    else:
        detail["item_tail_pct"] = out["tail_pct"]
    for line in out["failures"]:
        print(f"perfbench: {args.workload}: {line}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(out["result"]))
    return 0


def _report_all(args) -> int:
    """Run every workload untraced and traced in child processes and print
    every metric by name and unit."""
    moves = {name: m for name, _, _, m, _ in LAYER_METRICS}
    ok = True
    for name in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            runs[trace] = (json.loads(lines[-2])["detail"], json.loads(lines[-1]))
        detail0, res0 = runs[0]
        detail1, res1 = runs[1]
        attempted = res0["attempted"] + res1["attempted"]
        failed = res0["failed"] + res1["failed"]
        print(f"== {name}  attempted {attempted}  failed_fraction {failed / attempted:.4g}"
              f"  items {detail0['items']}  tail percentile {detail0['item_tail_pct']:g}")
        for metric, v in res0["metrics"].items():
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}")
        for metric, v in res1["metrics"].items():
            note = f"  -> {moves[metric]}" if metric in moves else ""
            print(f"  {metric:40s} {v['value']:14.6g} {v['unit']}{note}")
        # within a run, check() already compares every item's bytes, the
        # traced replay's included; this compares the two processes
        if detail0["output_digest"] is not None:
            same = detail0["output_digest"] == detail1["output_digest"]
            print(f"  outputs byte-identical untraced vs traced: {'yes' if same else 'NO'}")
            ok &= same
        ok &= failed == 0
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run and print every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    os.chdir(ROOT)
    if args.all:
        return _report_all(args)
    if args.workload is None:
        ap.error("--workload or --all is required")
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
