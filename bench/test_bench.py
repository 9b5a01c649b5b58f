"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python3 -m pytest bench``.
"""
import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "simulate-headline": lambda: workloads.SimulateHeadline(trials=300, check_trials=50),
    "analyze-ladder": lambda: workloads.AnalyzeLadder(ladder=((8, 3),), wide=((64, 3.0, 66.0),)),
    "coded-descent": lambda: workloads.CodedDescent(n=6, smax=2, m=60, c=3, iterations=5),
}

# per-layer metrics each workload exercises, so they must read above 0
EXERCISED = {
    "simulate-headline": [
        *(f"simulator.{m}.{s}" for m in ("us_per_trial", "peak_alloc_mb", "sup_distance")
          for s in ("uncoded", "gc-3", "ngc-3")),
    ],
    "analyze-ladder": [
        "latency.curve_s.ngc.n8-s3", "latency.peak_alloc_mb.ngc.n8-s3",
        "latency.curve_s.gc.n64-s8", "latency.curve_s.uncoded-wide",
    ],
    "coded-descent": [
        *(f"{name}.self_s" for name in workloads.DESCENT_HOT),
        *(f"{name}.calls" for name in ("simulator.simulate_ngc_iteration", "codes.decode_row",
                                       "codes.encode_response", "descent.partial_gradient")),
        "codes.decode_row.distinct_sets", "codes.build_ngc_s", "codes.verify_gradient_code_s",
        "codes.verify_nesting_s", "codes.verify.max_residual", "descent.decoded_sigma.0",
    ],
}
EVERY_WORKLOAD = ["cli.self_s", "trace.overhead_ratio", "simulator.seed_collisions",
                  *(f"src_lines.{layer}" for layer in (*workloads.LAYERS, "total"))]


def _run(name, tmp_path, trace):
    return run.run(TINY[name](), seed=3, seconds=0, trace=trace, spec=SPEC, out_dir=tmp_path)


def test_workloads_match_spec():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_emitted(name, tmp_path):
    result = _run(name, tmp_path, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_per_layer_metrics_emitted(name, tmp_path):
    result = _run(name, tmp_path, trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    zero = [k for k in EXERCISED[name] + EVERY_WORKLOAD if not metrics[k]["value"] > 0]
    assert zero == []
    assert metrics["error_rate"]["value"] == 0.0
    assert (tmp_path / f"spans-{name}-seed3-trace1.tsv").stat().st_size > 0


@pytest.mark.parametrize("name, break_it", [
    ("coded-descent", lambda mp: mp.setattr(workloads, "RECOVERY_GATE", -1.0)),
    ("analyze-ladder", lambda mp: mp.setitem(TINY, "analyze-ladder", lambda: workloads.AnalyzeLadder(
        ladder=((8, 3),), wide=((64, 66.0, 3.0),)))),  # t_min > t_max: the command exits 1
])
def test_failed_check_raises_error_rate(name, break_it, tmp_path, monkeypatch):
    break_it(monkeypatch)
    result = _run(name, tmp_path, trace=False)
    assert result["failed"] >= 1 and not result["correct"]
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_dkw_bound_at_headline_trials():
    assert workloads.dkw_bound(20_000) == pytest.approx(0.0138, abs=1e-4)


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    outer, first, second = tracer.spans
    assert first.parent is outer and second.parent is outer
    assert tracer.self_times()[0] == pytest.approx(
        outer.duration - first.duration - second.duration)


def test_peak_allocation_covers_children():
    tracer = tracing.Tracer()
    tracemalloc.start()
    tracer.alloc = True
    try:
        with tracer.span("outer"):
            with tracer.span("inner"):
                block = bytearray(8 * 2**20)
                del block
    finally:
        tracemalloc.stop()
    outer, inner = tracer.spans
    assert inner.peak_bytes >= 8 * 2**20
    assert outer.peak_bytes >= inner.peak_bytes


def test_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "coded-descent", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
