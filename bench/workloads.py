"""The benchmark's workloads, output checks and per-layer metrics.

Every operation is one ``ngcodes.cli.main`` call made in-process on the
headline cluster. An operation fails when the command exits non-zero or when
its output check fails; ``Session`` counts both.

Workloads (why each exists is recorded in BENCHMARK.json):

* ``simulate-headline`` -- ``simulate`` of uncoded, gc:3 and ngc:3 at n=8;
  the simulator does the work. Checked against ``analyze`` by the DKW bound.
* ``analyze-ladder`` -- ``analyze`` on an (n, s_max) ladder (exponential
  occupancy enumeration) and on wide fixed-tolerance codes (binomial tail).
* ``coded-descent`` -- ``construct`` + ``verify`` as set-up, then ``gd-demo``,
  which drives the simulator one trial at a time together with decoding and
  encoding. ``gd-demo --smax 0`` (uncoded descent) is the fixed-tolerance
  neighbour on the same path.

A timed pass returns ``{"ngc": [(units, seconds), ...], "fixed": [...]}``:
samples of the nested-code work and of the fixed-tolerance (uncoded or gc)
work it timed, with the command time each took.

Command times are in reference seconds. The speed of a shared host drifts by
tens of percent within minutes, so ``calibrate`` (fixed interpreter and numpy
work that no library change touches) runs after every command, and each
command's wall time is scaled by ``CAL_REF_S`` over the mean of the
calibration times just before and just after it: a reference second is the
time in which the calibration takes ``CAL_REF_S``.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import statistics
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

import ngcodes
import ngcodes.cli as cli
import ngcodes.descent as descent

HEADLINE = ["--lambda", "0.5", "--rho", "0.5", "--gamma", "0", "--eps", "0.1", "--pe", "0.05"]
GRID = ["--t-min", "2", "--t-max", "18", "--steps", "100"]
STEPS = 100
DKW_ALPHA = 1e-3        # failure probability of the simulate-vs-analyze check
MONOTONE_SLACK = 1e-12  # the slack LatencyCurve itself allows
RECOVERY_GATE = 1e-6
PROBE_TRIALS = 2000     # seed-collision probe, per seed
LAYERS = ("codes", "latency", "simulator", "descent", "cli")
CAL_REF_S = 0.03        # calibration time that defines a reference second


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _library_caches() -> list:
    """Every memoised function of the library (``functools`` caches)."""
    modules = [m for name, m in sys.modules.items()
               if name.startswith(ngcodes.__name__ + ".") and m is not None]
    return [fn for m in modules for fn in vars(m).values()
            if callable(fn) and hasattr(fn, "cache_clear")]


def calibrate() -> float:
    """Seconds taken by fixed interpreter and numpy work."""
    start = perf_counter()
    total = 0
    for k in range(200_000):
        total += k * k
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((200, 200))
    for _ in range(20):
        np.sort(rng.standard_normal(20_000))
        matrix @ matrix
    return perf_counter() - start


def to_reference(seconds: float, before: float, after: float) -> float:
    """Wall ``seconds`` in reference seconds, between calibrations ``before`` and ``after``."""
    return seconds * 2.0 * CAL_REF_S / (before + after)


class Session:
    """Runs CLI operations in-process and counts attempts and failures.

    Library caches are cleared before each command, so that every command
    pays what it would pay as the first command of a fresh process.
    ``command_s`` sums the reference seconds of every command run.
    """

    def __init__(self, workdir, seed: int):
        self.workdir = Path(workdir)
        self.seed = seed
        self.tracer = None        # set only while spans are being recorded
        self.phase = ("setup", 0)
        self.attempted = 0
        self.failed = 0
        self.command_s = 0.0
        self.calibrations = [calibrate()]
        self._caches = _library_caches()

    def path(self, name: str) -> str:
        return str(self.workdir / name)

    def cli(self, label: str, argv: list[str], check=None) -> float:
        """Run one command; return its time in reference seconds, checks excluded."""
        self.attempted += 1
        for fn in self._caches:
            fn.cache_clear()
        sink = io.StringIO()
        code = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            start = perf_counter()
            try:
                if self.tracer is None:
                    code = cli.main(argv)
                else:
                    self.tracer.tag = (*self.phase, label)
                    with self.tracer.span("cli.main"):
                        code = cli.main(argv)
            except Exception:  # a crash is a failed operation; keep measuring
                traceback.print_exc()
            elapsed = perf_counter() - start
        self.calibrations.append(calibrate())
        elapsed = to_reference(elapsed, *self.calibrations[-2:])
        self.command_s += elapsed
        reason = None if code == 0 else f"exit code {code}: {sink.getvalue().strip()}"
        if reason is None and check is not None:
            try:
                check()
            except (CheckFailed, OSError, ValueError, KeyError) as exc:
                reason = f"check failed: {exc}"
        if reason is not None:
            self.failed += 1
            print(f"operation {label} failed, {reason}", file=sys.stderr)
        return elapsed


def read_curves(path) -> dict[str, list[float]]:
    curves: dict[str, list[float]] = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            curves.setdefault(row["scheme"], []).append(float(row["prob"]))
    return curves


def check_analytic(path, schemes) -> dict[str, list[float]]:
    """Every curve has STEPS points in [0, 1] and never decreases."""
    curves = read_curves(path)
    if sorted(curves) != sorted(schemes):
        raise CheckFailed(f"{path}: schemes {sorted(curves)}, expected {sorted(schemes)}")
    for label, values in curves.items():
        if len(values) != STEPS:
            raise CheckFailed(f"{label}: {len(values)} points, expected {STEPS}")
        if min(values) < 0.0 or max(values) > 1.0:
            raise CheckFailed(f"{label}: value outside [0, 1]")
        if any(b < a - MONOTONE_SLACK for a, b in zip(values, values[1:])):
            raise CheckFailed(f"{label}: curve decreases")
    return curves


def dkw_bound(trials: int) -> float:
    """Dvoretzky-Kiefer-Wolfowitz radius: P(sup gap > radius) <= DKW_ALPHA."""
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * trials))


class Workload:
    """``setup`` makes the inputs, ``run_pass`` runs and times one pass."""

    name = ""

    def final_checks(self, s: Session) -> None:
        """Checks made once, after the timed passes."""

    def extra_metrics(self) -> dict[str, float]:
        """Per-layer figures the workload's own checks measured."""
        return {}


class SimulateHeadline(Workload):
    name = "simulate-headline"

    def __init__(self, trials: int = 10_000, check_trials: int = 500):
        self.trials = trials
        self.check_trials = check_trials
        self.reference: dict[str, list[float]] = {}
        self.sup_distance: dict[str, float] = {}

    def _argv(self, s: Session, schemes: str, trials: int, out: str) -> list[str]:
        return ["simulate", "--schemes", schemes, "--n", "8", "--trials", str(trials),
                "--seed", str(s.seed), *HEADLINE, *GRID, "--out", out]

    def setup(self, s: Session) -> None:
        out = s.path("reference.csv")
        schemes = ("uncoded", "gc:3", "ngc:3")

        def load():
            self.reference = check_analytic(out, schemes)

        s.cli("analyze-reference", ["analyze", "--schemes", ",".join(schemes), "--n", "8",
                                    *HEADLINE, *GRID, "--out", out], load)

    def _check_simulated(self, out: str, schemes) -> None:
        bound = dkw_bound(self.trials)
        curves = read_curves(out)
        if sorted(curves) != sorted(schemes) or not set(schemes) <= set(self.reference):
            raise CheckFailed(f"{out}: schemes {sorted(curves)}, expected {sorted(schemes)}"
                              f" with analytic references {sorted(self.reference)}")
        for label, values in curves.items():
            gap = max(abs(a - b) for a, b in zip(values, self.reference[label], strict=True))
            self.sup_distance[label] = max(gap, self.sup_distance.get(label, 0.0))
            if gap > bound:
                raise CheckFailed(f"{label}: sup distance {gap:.4f} above DKW bound {bound:.4f}")

    def run_pass(self, s: Session) -> dict:
        timed = {}
        for kind, schemes in (("ngc", ("ngc:3",)), ("fixed", ("uncoded", "gc:3"))):
            out = s.path(f"simulate-{kind}.csv")
            seconds = s.cli(f"simulate-{kind}", self._argv(s, ",".join(schemes), self.trials, out),
                            lambda: self._check_simulated(out, schemes))
            timed[kind] = [(len(schemes) * self.trials, seconds)]
        return timed

    def final_checks(self, s: Session) -> None:
        """The same seed gives byte-identical CSVs."""
        outs = [s.path(f"repeat-{i}.csv") for i in range(2)]

        def same():
            for a, b in (outs, [cli._loads_path(out) for out in outs]):
                if Path(a).read_bytes() != Path(b).read_bytes():
                    raise CheckFailed(f"{a} and {b} differ for the same seed")

        for i, out in enumerate(outs):
            s.cli("simulate-repeat", self._argv(s, "uncoded,gc:3,ngc:3", self.check_trials, out),
                  same if i else None)

    def extra_metrics(self) -> dict[str, float]:
        return {f"simulator.sup_distance.{_key(k)}": v for k, v in self.sup_distance.items()}


class AnalyzeLadder(Workload):
    name = "analyze-ladder"
    LADDER = ((8, 3), (10, 4), (12, 5), (14, 6))
    # (n, t_min, t_max): each grid spans the rise of the gc:n/8 curve on the
    # headline cluster. The uncoded curve, at most 0.95**n, stays near 0 there
    # for n >= 256.
    WIDE = ((64, 3.0, 66.0), (256, 6.0, 121.0), (1024, 9.0, 366.0))
    WIDE_REPEATS = 3  # the wide part is short: sample it more often

    def __init__(self, ladder=LADDER, wide=WIDE):
        self.ladder = ladder
        self.wide = wide

    def setup(self, s: Session) -> None:
        self.ops = []
        for n, smax in self.ladder:
            schemes = ("uncoded", f"gc:{smax}", f"ngc:{smax}")
            self.ops.append(("ngc", f"analyze-n{n}-s{smax}", schemes,
                             ["--n", str(n), *GRID]))
        for n, t_min, t_max in self.wide:
            schemes = ("uncoded", f"gc:{n // 8}")
            self.ops.append(("fixed", f"analyze-wide-n{n}", schemes,
                             ["--n", str(n), "--t-min", str(t_min), "--t-max", str(t_max),
                              "--steps", str(STEPS)]))

    def _run_ops(self, s: Session, kind: str) -> tuple[int, float]:
        units, seconds = 0, 0.0
        for op_kind, label, schemes, flags in self.ops:
            if op_kind != kind:
                continue
            out = s.path(f"{label}.csv")
            seconds += s.cli(label, ["analyze", "--schemes", ",".join(schemes), *HEADLINE, *flags,
                                     "--out", out], lambda: check_analytic(out, schemes))
            # the ladder counts its ngc points; the wide part all of its points
            units += STEPS if kind == "ngc" else STEPS * len(schemes)
        return units, seconds

    def run_pass(self, s: Session) -> dict:
        return {"ngc": [self._run_ops(s, "ngc")],
                "fixed": [self._run_ops(s, "fixed") for _ in range(self.WIDE_REPEATS)]}

class CodedDescent(Workload):
    name = "coded-descent"

    def __init__(self, n: int = 12, smax: int = 5, m: int = 4096, c: int = 32, iterations: int = 200):
        self.n, self.smax, self.m, self.c, self.iterations = n, smax, m, c, iterations

    def setup(self, s: Session) -> None:
        code = s.path("code.json")

        def written():
            if not Path(code).is_file():
                raise CheckFailed(f"{code} not written")

        s.cli("construct", ["construct", "--n", str(self.n), "--smax", str(self.smax),
                            "--seed", str(s.seed), "--out", code], written)
        s.cli("verify", ["verify", code])

    def _check_descent(self, out: str, smax: int) -> None:
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != self.iterations:
            raise CheckFailed(f"{out}: {len(rows)} iterations, expected {self.iterations}")
        worst = max(float(r["recovery_error"]) for r in rows)
        if not worst <= RECOVERY_GATE:
            raise CheckFailed(f"recovery error {worst:.3e} above {RECOVERY_GATE:g}")
        sigmas = {int(r["decoded_sigma"]) for r in rows}
        if min(sigmas) < 0 or max(sigmas) > smax:
            raise CheckFailed(f"decoded sigma {sorted(sigmas)} outside [0, {smax}]")

    def run_pass(self, s: Session) -> dict:
        timed = {}
        for kind, label, smax in (("ngc", "gd-coded", self.smax), ("fixed", "gd-uncoded", 0)):
            out = s.path(f"{label}.csv")
            argv = ["gd-demo", "--n", str(self.n), "--smax", str(smax), "--m", str(self.m),
                    "--c", str(self.c), "--iterations", str(self.iterations),
                    "--seed", str(s.seed), *HEADLINE, "--out", out]
            seconds = s.cli(label, argv, lambda: self._check_descent(out, smax))
            timed[kind] = [(self.iterations, seconds)]
        return timed

WORKLOADS = {w.name: w for w in (SimulateHeadline, AnalyzeLadder, CodedDescent)}


def seed_collisions(s: Session) -> int:
    """Pairs among seeds s, s+1, s+2 whose ngc:3 curves are byte-identical."""
    curves = []
    for offset in range(3):
        out = s.path(f"probe-{offset}.csv")
        s.cli("seed-probe", ["simulate", "--schemes", "ngc:3", "--n", "8",
                             "--trials", str(PROBE_TRIALS), "--seed", str(s.seed + offset),
                             *HEADLINE, *GRID, "--out", out])
        curves.append(Path(out).read_bytes() if Path(out).is_file() else None)
    return sum(1 for i in range(3) for j in range(i + 1, 3)
               if curves[i] is not None and curves[i] == curves[j])


def src_lines(src: Path) -> dict[str, float]:
    """Physical source lines per library module, and over the whole package."""
    counts = {p.stem: len(p.read_text().splitlines()) for p in sorted(src.glob("*.py"))}
    out = {f"src_lines.{layer}": counts.get(layer, 0) for layer in LAYERS}
    out["src_lines.total"] = sum(counts.values())
    return out


def _descent_summary(arguments, run):
    sigmas = Counter(r.decoded_sigma for r in run.records)
    return (sum(r.resamples for r in run.records), sigmas,
            max(r.recovery_error for r in run.records))


# (module, attribute, span name, note): functions are wrapped where the CLI
# and the descent loop look them up; spans are named after the defining layer.
WRAPPED = (
    (cli, "run_experiment", "simulator.run_experiment",
     lambda a, r: (a["scheme"].label, a["trials"])),
    (cli, "latency_curve", "latency.latency_curve",
     lambda a, r: (a["scheme"].kind, a["scheme"].tolerance, a["p"].n)),
    (cli, "build_ngc", "codes.build_ngc", None),
    (cli, "run_descent", "descent.run_descent", _descent_summary),
    (cli, "make_dataset", "descent.make_dataset", None),
    (cli, "default_learning_rate", "descent.default_learning_rate", None),
    (cli, "verify_gradient_code", "codes.verify_gradient_code", lambda a, r: r.max_residual),
    (cli, "verify_nesting", "codes.verify_nesting", None),
    (descent, "simulate_ngc_iteration", "simulator.simulate_ngc_iteration", None),
    (descent, "decode_row", "codes.decode_row",
     lambda a, r: (a["code"].sigma, frozenset(a["responsive_set"]))),
    (descent, "encode_response", "codes.encode_response", None),
    (descent, "partial_gradient", "descent.partial_gradient", None),
    (descent, "coded_iteration", "descent.coded_iteration", None),
    (descent, "dataset_loss", "descent.dataset_loss", None),
)

DESCENT_HOT = ("simulator.simulate_ngc_iteration", "codes.decode_row", "codes.encode_response",
               "descent.partial_gradient", "descent.dataset_loss", "descent.coded_iteration")


def install(tracer) -> None:
    for module, attr, name, note in WRAPPED:
        tracer.wrap(module, attr, name, note)


def _key(label: str) -> str:
    return label.replace(":", "-")


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer figures from the spans of one traced run.

    Times are medians over timed passes of each pass's total, except that
    ``latency.curve_s`` is per call (the uncoded-wide figure sums the wide
    sizes). Counts come from the first timed pass, whose input every pass
    repeats. Set-up figures are medians over set-up repetitions; peak
    allocations come from the alloc pass.
    """
    own = tracer.self_times()
    spans = tracer.spans

    def per_rep(phase, select, value):
        sums = defaultdict(float)
        for span in spans:
            if span.tag[0] == phase and select(span):
                sums[span.tag[1]] += value(span)
        return statistics.median(sums.values()) if sums else 0.0

    def first_pass(select):
        chosen = [span for span in spans if span.tag[0] == "pass" and select(span)]
        first = min((span.tag[1] for span in chosen), default=None)
        return [span for span in chosen if span.tag[1] == first]

    def named(name, label=None):
        return lambda span: span.name == name and (label is None or span.tag[2] == label)

    out = {"cli.self_s": per_rep("pass", named("cli.main"), lambda span: own[span.index])}

    def duration(x):
        return x.duration

    def peak_mb(select):
        return max((x.peak_bytes / 2**20 for x in spans if x.tag[0] == "alloc" and select(x)),
                   default=0.0)

    for label in {x.note[0] for x in spans if x.name == "simulator.run_experiment"}:
        select = lambda x, label=label: x.name == "simulator.run_experiment" and x.note[0] == label
        out[f"simulator.us_per_trial.{_key(label)}"] = per_rep(
            "pass", select, lambda x: x.duration / x.note[1] * 1e6)
        out[f"simulator.peak_alloc_mb.{_key(label)}"] = peak_mb(select)
    def per_call(select):
        times = [x.duration for x in spans if x.tag[0] == "pass" and select(x)]
        return statistics.median(times) if times else 0.0

    wide_uncoded = 0.0
    for note in {x.note for x in spans if x.name == "latency.latency_curve"}:
        kind, tol, n = note
        select = lambda x, note=note: x.name == "latency.latency_curve" and x.note == note
        out[f"latency.curve_s.{kind}.n{n}-s{tol}"] = per_call(select)
        out[f"latency.peak_alloc_mb.{kind}.n{n}-s{tol}"] = peak_mb(select)
        if kind == "uncoded":
            wide_uncoded += per_call(lambda x, select=select: select(x)
                                     and x.tag[2].startswith("analyze-wide"))
    out["latency.curve_s.uncoded-wide"] = wide_uncoded

    for name in DESCENT_HOT:
        out[f"{name}.self_s"] = per_rep("pass", named(name, "gd-coded"), lambda x: own[x.index])
        out[f"{name}.calls"] = len(first_pass(named(name, "gd-coded")))
    out["codes.decode_row.distinct_sets"] = len(
        {x.note for x in first_pass(named("codes.decode_row", "gd-coded"))})
    for x in first_pass(named("descent.run_descent", "gd-coded")):
        resamples, sigmas, worst = x.note
        out["descent.resamples"] = resamples
        out["descent.recovery_error_max"] = worst
        out.update({f"descent.decoded_sigma.{k}": v for k, v in sigmas.items()})

    out["codes.build_ngc_s"] = per_rep("setup", named("codes.build_ngc", "construct"), duration)
    for name in ("codes.verify_gradient_code", "codes.verify_nesting"):
        out[f"{name}_s"] = per_rep("setup", named(name, "verify"), duration)
    residuals = [x.note for x in spans if x.tag[0] == "setup" and x.name == "codes.verify_gradient_code"]
    if residuals:
        out["codes.verify.max_residual"] = max(residuals)
    return out
