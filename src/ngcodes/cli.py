"""Command-line front end: construct/verify codes, evaluate and simulate
latency curves, and run the coded gradient-descent demo.

All outputs are CSV with 12-significant-digit floats and are byte-identical
across runs for fixed seeds. Latency curves are emitted over t - gamma (the
communication delay is a fixed offset for every scheme); the analytic and
simulated commands share that convention, so their outputs are directly
comparable. Exit codes: 0 success, 1 invalid parameters, 2 numerical or
construction failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codes import (
    CapExceeded,
    CodeError,
    NumericalFailure,
    VERIFY_CAP,
    build_ngc,
    load_code,
    save_code,
    verify_gradient_code,
    verify_nesting,
)
from .descent import make_dataset, run_descent, default_learning_rate
from .latency import ClusterParams, Scheme, latency_curve, parse_scheme
from .simulator import run_experiment

RECOVERY_GATE = 1e-6

DEFAULTS = {
    "n": 8,
    "smax": 3,
    "sigma": 3,
    "seed": 42,
    "lam": 0.5,
    "rho": 0.5,
    "gamma": 0.0,
    "eps": 0.1,
    "pe": 0.05,
    "trials": 10_000,
    "t_min": 2.0,
    "t_max": 18.0,
    "steps": 100,
    "schemes": "uncoded",
    "tol": 1e-8,
    "cap": VERIFY_CAP,
    "m": 64,
    "c": 8,
    "noise": 0.1,
    "iterations": 200,
}

# config-file keys are flag names; map them onto argparse destinations
_KEY_ALIASES = {"lambda": "lam", "t-min": "t_min", "t-max": "t_max", "gd-iterations": "iterations"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default would sys.exit(2)
        raise _UsageError(message)


def _load_config(path) -> dict:
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("config file must hold a JSON object")
    values = {}
    for key, value in raw.items():
        dest = _KEY_ALIASES.get(key, key.replace("-", "_"))
        values[dest] = value
    return values


def _resolve(args, key):
    """Flag value if given, else config-file value, else built-in default."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in args.config_values:
        return args.config_values[key]
    return DEFAULTS[key]


def _prepare(args):
    args.config_values = _load_config(args.config) if getattr(args, "config", None) else {}


def _cluster_params(args) -> ClusterParams:
    return ClusterParams(
        lam=float(_resolve(args, "lam")),
        rho=float(_resolve(args, "rho")),
        gamma=float(_resolve(args, "gamma")),
        eps=float(_resolve(args, "eps")),
        p_e=float(_resolve(args, "pe")),
        n=int(_resolve(args, "n")),
    )


def _schemes(args) -> tuple[Scheme, ...]:
    raw = _resolve(args, "schemes")
    if isinstance(raw, (list, tuple)):
        names = [str(s) for s in raw]
    else:
        names = [part for part in str(raw).split(",") if part.strip()]
    if not names:
        raise ValueError("at least one scheme is required")
    return tuple(parse_scheme(name) for name in names)


@dataclass(frozen=True)
class ExperimentConfig:
    schemes: tuple[Scheme, ...]
    cluster: ClusterParams
    t_min: float
    t_max: float
    steps: int
    trials: int
    seed: int
    out: str

    def __post_init__(self):
        if not self.t_min < self.t_max:
            raise ValueError(f"need t_min < t_max, got {self.t_min} >= {self.t_max}")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        if self.trials < 1:
            raise ValueError(f"trials must be at least 1, got {self.trials}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @property
    def emitted_grid(self) -> np.ndarray:
        """Grid on the reported axis (t - gamma)."""
        return np.linspace(self.t_min, self.t_max, self.steps)

    @property
    def eval_grid(self) -> np.ndarray:
        """Absolute times at which the CDFs are evaluated."""
        return self.emitted_grid + self.cluster.gamma


def _experiment_config(args) -> ExperimentConfig:
    if args.out is None:
        raise ValueError("--out is required")
    return ExperimentConfig(
        schemes=_schemes(args),
        cluster=_cluster_params(args),
        t_min=float(_resolve(args, "t_min")),
        t_max=float(_resolve(args, "t_max")),
        steps=int(_resolve(args, "steps")),
        trials=int(_resolve(args, "trials")),
        seed=int(_resolve(args, "seed")),
        out=args.out,
    )


def _fmt(x) -> str:
    return format(float(x), ".12g")


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _loads_path(out: str) -> str:
    p = Path(out)
    suffix = p.suffix or ".csv"
    return str(p.with_name(p.stem + "_loads" + suffix))


def cmd_construct(args) -> int:
    _prepare(args)
    n = int(_resolve(args, "n"))
    s_max = int(_resolve(args, "smax"))
    seed = int(_resolve(args, "seed"))
    if args.out is None:
        raise ValueError("--out is required")
    ngc = build_ngc(n, s_max, seed)
    save_code(ngc, args.out)
    print(f"wrote {args.out}: n={n}, s_max={s_max}, seed={seed}, {len(ngc.components)} components")
    for comp in ngc.components:
        sizes = {int(np.count_nonzero(comp.entries[i])) for i in range(n)}
        print(f"  sigma={comp.sigma}: row support size {sorted(sizes)}")
    if n <= VERIFY_CAP:
        ok = all(
            verify_gradient_code(comp, comp.sigma).passed for comp in ngc.components
        )
        nested, violation = verify_nesting(ngc)
        print(f"  verification: components {'ok' if ok else 'FAILED'}, "
              f"nesting {'ok' if nested else f'FAILED at {violation}'}")
        if not (ok and nested):
            raise NumericalFailure("constructed code failed verification")
    else:
        print(f"  verification skipped (n={n} above cap {VERIFY_CAP})")
    return 0


def cmd_verify(args) -> int:
    _prepare(args)
    ngc = load_code(args.path)
    tol = float(_resolve(args, "tol"))
    cap = int(_resolve(args, "cap"))
    all_ok = True
    for comp in ngc.components:
        report = verify_gradient_code(comp, comp.sigma, tol=tol, cap=cap)
        all_ok &= report.passed
        print(
            f"sigma={comp.sigma}: support {'ok' if report.support_ok else 'FAIL'}, "
            f"decodable {'ok' if report.decodable_ok else 'FAIL'}, "
            f"max residual {report.max_residual:.3e}"
        )
    nested, violation = verify_nesting(ngc)
    all_ok &= nested
    print(f"nesting: {'ok' if nested else f'FAIL at (sigma, row) = {violation}'}")
    if not all_ok:
        raise NumericalFailure("code file failed verification")
    print("all checks passed")
    return 0


def cmd_analyze(args) -> int:
    _prepare(args)
    cfg = _experiment_config(args)
    rows = []
    for scheme in cfg.schemes:
        curve = latency_curve(scheme, cfg.eval_grid, cfg.cluster)
        rows.extend(
            (scheme.label, _fmt(t), _fmt(v))
            for t, v in zip(cfg.emitted_grid, curve.values)
        )
    _write_csv(cfg.out, ["scheme", "t", "prob"], rows)
    print(f"wrote {cfg.out}: {len(cfg.schemes)} analytic curves, {cfg.steps} points each")
    return 0


def cmd_simulate(args) -> int:
    _prepare(args)
    cfg = _experiment_config(args)
    rows, load_rows = [], []
    for scheme in cfg.schemes:
        result = run_experiment(scheme, cfg.trials, cfg.seed, cfg.cluster, cfg.eval_grid)
        rows.extend(
            (scheme.label, _fmt(t), _fmt(v))
            for t, v in zip(cfg.emitted_grid, result.curve.values)
        )
        load_rows.append(
            (
                scheme.label,
                _fmt(result.loads.mean_load),
                _fmt(result.loads.p95_load),
                _fmt(result.loads.undecodable_rate),
            )
        )
    loads_out = _loads_path(cfg.out)
    _write_csv(cfg.out, ["scheme", "t", "prob"], rows)
    _write_csv(loads_out, ["scheme", "mean_load", "p95_load", "undecodable_rate"], load_rows)
    print(f"wrote {cfg.out} and {loads_out}: {len(cfg.schemes)} schemes x {cfg.trials} trials")
    return 0


def cmd_gd_demo(args) -> int:
    _prepare(args)
    cluster = _cluster_params(args)
    m = int(_resolve(args, "m"))
    c = int(_resolve(args, "c"))
    noise = float(_resolve(args, "noise"))
    iterations = int(_resolve(args, "iterations"))
    s_max = int(_resolve(args, "smax"))
    seed = int(_resolve(args, "seed"))
    if args.out is None:
        raise ValueError("--out is required")
    dataset = make_dataset(m, c, noise, seed)
    eta_value = args.eta if args.eta is not None else args.config_values.get("eta")
    eta = float(eta_value) if eta_value is not None else default_learning_rate(dataset, iterations)
    ngc = build_ngc(cluster.n, s_max, seed)
    run = run_descent(dataset, ngc, iterations, eta, cluster, seed)
    _write_csv(
        args.out,
        ["iter", "loss", "recovery_error", "decoded_sigma", "latency"],
        [
            (r.iteration, _fmt(r.loss), _fmt(r.recovery_error), r.decoded_sigma, _fmt(r.latency))
            for r in run.records
        ],
    )
    worst = float(np.max([r.recovery_error for r in run.records]))  # nan if any is nan
    print(
        f"wrote {args.out}: {iterations} iterations, eta={eta:.6g}, "
        f"final loss {run.records[-1].loss:.6g}, max recovery error {worst:.3e}"
    )
    if not worst <= RECOVERY_GATE:
        raise NumericalFailure(f"recovery error {worst:.3e} above gate {RECOVERY_GATE:g}")
    return 0


def _add_cluster_flags(sub):
    sub.add_argument("--n", type=int, help="worker count")
    sub.add_argument("--lambda", dest="lam", type=float, help="exponential rate of task times")
    sub.add_argument("--rho", type=float, help="deterministic time per task")
    sub.add_argument("--gamma", type=float, help="communication delay (reported axis is t - gamma)")
    sub.add_argument("--eps", type=float, help="signaling overhead per response")
    sub.add_argument("--pe", type=float, help="worker failure probability")


def _add_grid_flags(sub):
    sub.add_argument("--t-min", dest="t_min", type=float, help="grid start on the t - gamma axis")
    sub.add_argument("--t-max", dest="t_max", type=float, help="grid end on the t - gamma axis")
    sub.add_argument("--steps", type=int, help="number of grid points")


def build_parser() -> _Parser:
    parser = _Parser(prog="ngcodes", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = subs.add_parser("construct", help="build a nested code family and write it to JSON")
    p.add_argument("--n", type=int)
    p.add_argument("--smax", type=int, help="maximum straggler tolerance")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output JSON path")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.set_defaults(func=cmd_construct)

    p = subs.add_parser("verify", help="check all defining properties of a code file")
    p.add_argument("path", help="code JSON written by construct")
    p.add_argument("--tol", type=float, help="decode residual tolerance")
    p.add_argument("--cap", type=int, help="exhaustive verification cap on n")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("analyze", help="write analytic latency CDF curves as CSV")
    p.add_argument("--schemes", help="comma list: uncoded, gc:SIGMA, ngc:SMAX")
    _add_cluster_flags(p)
    _add_grid_flags(p)
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("simulate", help="write empirical latency CDF curves and load stats as CSV")
    p.add_argument("--schemes", help="comma list: uncoded, gc:SIGMA, ngc:SMAX")
    _add_cluster_flags(p)
    _add_grid_flags(p)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path (load stats land next to it as *_loads.csv)")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("gd-demo", help="coded gradient descent on a synthetic regression problem")
    p.add_argument("--m", type=int, help="data rows")
    p.add_argument("--c", type=int, help="feature columns")
    p.add_argument("--noise", type=float, help="label noise level")
    p.add_argument("--iterations", type=int)
    p.add_argument("--eta", type=float, help="learning rate (default: half the stability limit)")
    p.add_argument("--smax", type=int)
    _add_cluster_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.set_defaults(func=cmd_gd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, CapExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
