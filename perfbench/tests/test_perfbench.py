"""Tests of the benchmark itself, on the small sizes of every workload.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from tracer import Tracer, is_wrapped  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(autouse=True)
def _workdir(tmp_path, monkeypatch):
    # cli_io writes its inputs and outputs under .perfbench/ in the working directory
    monkeypatch.chdir(tmp_path)


def _bindings(modules) -> dict:
    """Every module global and class attribute of the package, by identity."""
    out = {}
    for mod in modules:
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = val
            if isinstance(val, type) and val.__module__.startswith("coeffid"):
                for cattr, raw in vars(val).items():
                    out[(mod.__name__, attr, cattr)] = raw
    return out


def test_tracer_wraps_public_names_and_restores_them():
    pkg = bench.load_package()
    modules = [pkg.package] + [getattr(pkg, m) for m in bench.LAYERS]
    before = _bindings(modules)
    tracer = Tracer()
    tracer.install(modules)
    try:
        # a function is wrapped wherever a package module binds it
        assert is_wrapped(pkg.pw2d.recover_pw)
        assert is_wrapped(pkg.cli.recover_pw)
        assert is_wrapped(pkg.package.recover_pw)
        assert is_wrapped(vars(pkg.grids.GridFunction1D)["from_csv"])
        assert is_wrapped(vars(pkg.report.ExperimentReport)["curves_csv"])
        assert not is_wrapped(pkg.report.fmt_float)
    finally:
        tracer.uninstall()
    after = _bindings(modules)
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_small_traced_run(name):
    out = bench.run_workload(name, seed=3, seconds=0.01, trace=True, small=True)
    res = out["result"]
    assert res["correct"] and res["failed"] == 0, out["failures"]
    assert set(res["metrics"]) == {m[0] for m in bench.LAYER_METRICS} | {"trace_overhead_frac"}
    # warm-ups of every set-up, the untraced items and their traced replay, all checked
    warmups = len(WORKLOADS[name](3, small=True).warmup())
    assert res["attempted"] == bench.SETUP_REPEATS * warmups + 2 * len(out["traced_times"])

    for key, val in _bindings(out["modules"]).items():
        assert not is_wrapped(val), key

    spans = out["spans"]
    assert out["traced_times"]
    for i, wall in enumerate(out["traced_times"]):
        top = sum(t1 - t0 for _, t0, t1, parent, item in spans if item == i and parent == -1)
        assert top >= 0.9 * wall, (i, top, wall)


def test_small_untraced_run_reports_end_to_end_metrics():
    out = bench.run_workload("pw2d_verify", seed=5, seconds=0.01, trace=False, small=True)
    res = out["result"]
    assert res["correct"]
    assert set(res["metrics"]) == set(bench.END_TO_END)
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_wrong_result_is_counted_as_failed(monkeypatch):
    cls = WORKLOADS["study_1d"]
    run = cls.run

    def off_by_one_percent(self, k):
        result = run(self, k)
        rec = result["rec"]
        result["rec"] = dataclasses.replace(rec, a=rec.a * 1.01)
        return result

    monkeypatch.setattr(cls, "run", off_by_one_percent)
    out = bench.run_workload("study_1d", seed=3, seconds=0.01, trace=False, small=True)
    res = out["result"]
    assert not res["correct"]
    assert res["failed"] == res["attempted"] > 0
    assert "L1 error" in out["failures"][0]


def test_raising_item_is_counted_as_failed(monkeypatch):
    def boom(self, k):
        raise RuntimeError("boom")

    monkeypatch.setattr(WORKLOADS["pw2d_verify"], "run", boom)
    res = bench.run_workload("pw2d_verify", seed=3, seconds=0.01, trace=False, small=True)["result"]
    assert res["failed"] == res["attempted"] > 0


def test_changed_output_bytes_are_counted_as_failed(monkeypatch):
    cls = WORKLOADS["cli_io"]
    run = cls.run
    calls = []

    def drifting(self, k):
        calls.append(k)
        if len(calls) > 1:
            self.argvs["forward"][-1] = f"const:{1.0 + len(calls)!r}"
        return run(self, k)

    monkeypatch.setattr(cls, "run", drifting)
    out = bench.run_workload("cli_io", seed=3, seconds=0.01, trace=False, small=True)
    assert out["result"]["failed"] == out["result"]["attempted"] - 1
    assert "changed between repeats" in out["failures"][0]


def test_tail_is_highest_percentile_with_ten_beyond():
    assert bench.tail(list(range(1, 101))) == (pytest.approx(90.1), 90.0)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    layer = {m[0]: m[1] for m in bench.LAYER_METRICS}
    layer["trace_overhead_frac"] = "frac"
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layer


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study_1d", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
