#!/usr/bin/env python3
"""Benchmark of the ngcodes command line, run in-process on one workload.

Run from the repository root:

    python3 bench/run.py --workload simulate-headline --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` next to this directory; nothing is
installed. The run sets up its inputs from ``--seed`` (repeated, reporting
the median), then repeats timed passes of the workload for ``--seconds``
seconds, checking every command's output. ``setup_s`` adds to the median
set-up the median time a fresh interpreter takes to import the library and
the workloads, timed IMPORT_REPS times.

End-to-end times are in reference seconds, which take out the drift of the
host's speed (see ``workloads.calibrate``); a set-up repetition takes the
reference seconds of its commands. Per-layer times are wall seconds.

With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it holds the per-layer metrics, taken from
spans recorded around the library calls (see ``workloads.WRAPPED``). A
per-layer metric of a layer the workload does not exercise reads 0. The last
line of standard output is the result object and the line before it records
the environment; both, and in traced runs every span, are also written under
``.bench_out/``. Exit code 0 means a result was printed, 2 that the run could
not start (for example, no library under ``src/``).
"""
import os

BLAS_THREADS = 1
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(BLAS_THREADS)  # set before numpy loads: no extra threads

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPS = 5
IMPORT_REPS = 9
IMPORT_PROBE = ("import time; start = time.perf_counter(); import ngcodes, workloads; "
                "print(time.perf_counter() - start)")


def environment() -> dict:
    import numpy

    nproc = len(os.sched_getaffinity(0))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc,
        "blas_threads": min(BLAS_THREADS, nproc),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def import_seconds() -> float:
    """Median import time of a fresh interpreter, in reference seconds."""
    import workloads

    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(BENCH)))}
    times, before = [], workloads.calibrate()
    for _ in range(IMPORT_REPS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, check=True, timeout=60)
        after = workloads.calibrate()
        times.append(workloads.to_reference(float(done.stdout), before, after))
        before = after
    return statistics.median(times)


def _seconds(timed: dict) -> float:
    """Command time of one pass, over all its samples."""
    return sum(seconds for samples in timed.values() for _, seconds in samples)


def run(workload, seed: int, seconds: float, trace: bool, spec: dict,
        out_dir: Path = OUT_DIR) -> dict:
    """Set up, run timed passes and checks; return the result object."""
    import tracing
    import workloads

    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=out_dir, prefix="work-")
    tracer = tracing.Tracer() if trace else None
    session = workloads.Session(workdir, seed)

    def tracing_on(on: bool) -> None:
        if on:
            workloads.install(tracer)
        else:
            tracer.unwrap_all()
        session.tracer = tracer if on else None

    try:
        if tracer:
            tracing_on(True)
        setup_times = []
        for rep in range(SETUP_REPS):
            session.phase = ("setup", rep)
            start = session.command_s
            workload.setup(session)
            setup_times.append(session.command_s - start)
        # traced runs alternate untraced and traced passes to measure the overhead
        passes, untraced = [], []
        deadline = perf_counter() + seconds
        while not passes or perf_counter() < deadline:
            if tracer:
                tracing_on(False)
                session.phase = ("untraced", len(passes))
                untraced.append(_seconds(workload.run_pass(session)))
                tracing_on(True)
            session.phase = ("pass", len(passes))
            passes.append(workload.run_pass(session))
        if tracer:
            session.phase = ("alloc", 0)
            tracemalloc.start()
            tracer.alloc = True
            try:
                workload.run_pass(session)
            finally:
                tracer.alloc = False
                tracemalloc.stop()
                tracing_on(False)
        session.phase = ("checks", 0)
        workload.final_checks(session)
        if tracer:
            session.phase = ("probe", 0)
            collisions = workloads.seed_collisions(session)
    finally:
        if tracer:
            tracer.unwrap_all()
        shutil.rmtree(workdir, ignore_errors=True)

    error_rate = session.failed / session.attempted
    if tracer:
        # a per-layer metric of a layer this workload does not exercise reads 0
        values = dict.fromkeys((m["name"] for m in spec["per_layer"]), 0.0)
        values.update(workloads.layer_metrics(tracer))
        values.update(workload.extra_metrics())
        values.update(workloads.src_lines(SRC / "ngcodes"))
        values["simulator.seed_collisions"] = collisions
        values["error_rate"] = error_rate
        values["trace.overhead_ratio"] = (statistics.median(map(_seconds, passes))
                                          / statistics.median(untraced))
        declared = spec["per_layer"]
    else:
        values = {
            "setup_s": import_seconds() + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": 1.0 - error_rate,
        }
        for kind in ("ngc", "fixed"):
            values[f"{kind}_per_s"] = statistics.median(u / sec for p in passes for u, sec in p[kind])
        declared = spec["end_to_end"]

    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in declared}
    stem = f"{workload.name}-seed{seed}-trace{int(trace)}"
    if tracer:
        tracer.write(out_dir / f"spans-{stem}.tsv")
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed, "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds, "passes": passes,
              "calibrations": session.calibrations, "environment": environment(),
              "all_values": values, "result": result}
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1, default=float) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        print("error: --seed and --seconds must be non-negative", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    try:
        import ngcodes
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(ngcodes.__file__).resolve().is_relative_to(SRC):
        print(f"error: ngcodes was imported from {ngcodes.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    result = run(workloads.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace),
                 spec)
    print(json.dumps({"environment": environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
