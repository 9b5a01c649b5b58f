"""Command-line front end: construct/verify codes, evaluate and simulate
latency curves, and run the coded gradient-descent demo.

Every output file is CSV: a header row, then one line per record, fields
joined by commas with no quoting and each line ended by CRLF (as the csv
module writes them), floats as ``%.12g`` and the integer columns (``iter``,
``decoded_sigma``) as integers. Outputs are byte-identical across runs for a fixed
seed, numpy version and BLAS thread count. Latency curves are emitted over t - gamma
(the communication delay is a fixed offset for every scheme); the analytic and
simulated commands share that convention, so their outputs are directly comparable.
Exit codes: 0 success, 1 invalid parameters, 2 numerical or construction
failure.

Each setting is declared once, in ``SETTINGS``, with its flag, type and
default; ``COMMANDS`` names the settings of each subcommand, and the parser is
built from the two, so every setting is a flag and a flag not given takes its
default. A call whose first word names a subcommand parses the words after
it with that subcommand's own parser (prog ``ngcodes <name>``), which gives
the same help, usage errors and parsed settings as that subcommand of the
full parser. The full parser, all five under ``ngcodes``, is built only when
the first word names none, as for the top-level help and its ``command``
errors. ``verify`` reads only its path; ``construct`` prints ``verify``'s
report of the code it wrote, at every n. ``--out`` is required by every
command that writes.
"""
from __future__ import annotations

import argparse
import math
import sys
from itertools import repeat
from pathlib import Path

import numpy as np

from .codes import (
    CodeError,
    NumericalFailure,
    build_ngc,
    code_from_json,
    code_to_json,
    verify_gradient_code,
    verify_nesting,
)
from .descent import make_dataset, run_descent, default_learning_rate
from .latency import ClusterParams, Scheme, latency_curve, parse_scheme
from .simulator import run_experiment

RECOVERY_GATE = 1e-6

# dest -> (flag, type, default, help); a flag without dashes is positional
SETTINGS = {
    "n": ("--n", int, 8, "worker count"),
    "smax": ("--smax", int, 3, "maximum straggler tolerance"),
    "seed": ("--seed", int, 42, "random seed"),
    "lam": ("--lambda", float, 0.5, "exponential rate of task times"),
    "rho": ("--rho", float, 0.5, "deterministic time per task"),
    "gamma": ("--gamma", float, 0.0, "communication delay (reported axis is t - gamma)"),
    "eps": ("--eps", float, 0.1, "signaling overhead per response"),
    "pe": ("--pe", float, 0.05, "worker failure probability"),
    "trials": ("--trials", int, 10_000, "Monte Carlo trials per scheme"),
    "t_min": ("--t-min", float, 2.0, "grid start on the t - gamma axis"),
    "t_max": ("--t-max", float, 18.0, "grid end on the t - gamma axis"),
    "steps": ("--steps", int, 100, "number of grid points"),
    "schemes": ("--schemes", str, "uncoded", "comma list: uncoded, gc:SIGMA, ngc:SMAX"),
    "m": ("--m", int, 64, "data rows"),
    "c": ("--c", int, 8, "feature columns"),
    "noise": ("--noise", float, 0.1, "label noise level"),
    "iterations": ("--iterations", int, 200, "descent iterations"),
    "eta": ("--eta", float, None, "learning rate (default: half the stability limit)"),
    "path": ("path", str, None, "code JSON written by construct"),
    "out": ("--out", str, None, "output path (simulate writes load stats beside it as *_loads.csv)"),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default would sys.exit(2)
        raise _UsageError(message)


def _cluster_params(args) -> ClusterParams:
    return ClusterParams(
        lam=args.lam,
        rho=args.rho,
        gamma=args.gamma,
        eps=args.eps,
        p_e=args.pe,
        n=args.n,
    )


def _schemes(args) -> tuple[Scheme, ...]:
    names = [part for part in args.schemes.split(",") if part.strip()]
    if not names:
        raise ValueError("at least one scheme is required")
    return tuple(parse_scheme(name) for name in names)


def _grid(args) -> np.ndarray:
    """The time grid on the reported axis (t - gamma)."""
    if not math.isfinite(args.t_max - args.t_min):  # nan or inf when a bound is, or when the span overflows
        raise ValueError(f"need finite t_min, t_max and t_max - t_min, got {args.t_min} and {args.t_max}")
    if not args.t_min < args.t_max:
        raise ValueError(f"need t_min < t_max, got {args.t_min} >= {args.t_max}")
    if args.steps < 2:
        raise ValueError(f"steps must be at least 2, got {args.steps}")
    return np.linspace(args.t_min, args.t_max, args.steps)


_CURVE_LINE = "%s,%.12g,%.12g"  # scheme, t, prob


def _write_csv(path, header, line, rows):
    """Write the header row, then ``line % row`` for each row, in one write."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n" + "".join(map((line + "\r\n").__mod__, rows)))


def _loads_path(out: str) -> str:
    p = Path(out)
    suffix = p.suffix or ".csv"
    return str(p.with_name(p.stem + "_loads" + suffix))


def _verify(ngc) -> int:
    """Print ``verify``'s report of ``ngc``: NumericalFailure if a check fails."""
    all_ok = True
    for comp in ngc.components:
        report = verify_gradient_code(comp)
        all_ok &= report.passed
        print(
            f"sigma={comp.sigma}: support {'ok' if report.support_ok else 'FAIL'}, "
            f"decodable {'ok' if report.decodable_ok else 'FAIL'}, "
            f"max residual {report.max_residual:.3e} at stragglers {list(report.worst)}, "
            f"{'exhaustive' if report.exhaustive else 'sampled'}: {report.patterns} patterns"
        )
    nested, violation = verify_nesting(ngc)
    all_ok &= nested
    print(f"nesting: {'ok' if nested else f'FAIL at (sigma, row) = {violation}'}")
    if not all_ok:
        raise NumericalFailure("code file failed verification")
    print("all checks passed")
    return 0


def cmd_construct(args) -> int:
    n, s_max, seed = args.n, args.smax, args.seed
    ngc = build_ngc(n, s_max, seed)
    Path(args.out).write_text(code_to_json(ngc) + "\n")
    print(f"wrote {args.out}: n={n}, s_max={s_max}, seed={seed}, {len(ngc.components)} components")
    return _verify(ngc)


def cmd_verify(args) -> int:
    return _verify(code_from_json(Path(args.path).read_text()))


def cmd_analyze(args) -> int:
    schemes, cluster, grid = _schemes(args), _cluster_params(args), _grid(args)
    ts, rows = grid.tolist(), []
    for scheme in schemes:
        curve = latency_curve(scheme, grid + cluster.gamma, cluster)
        rows += zip(repeat(scheme.label), ts, curve.values.tolist())
    _write_csv(args.out, ["scheme", "t", "prob"], _CURVE_LINE, rows)
    print(f"wrote {args.out}: {len(schemes)} analytic curves, {args.steps} points each")
    return 0


def cmd_simulate(args) -> int:
    schemes, cluster, grid = _schemes(args), _cluster_params(args), _grid(args)
    ts, rows, load_rows = grid.tolist(), [], []
    for scheme in schemes:
        result = run_experiment(scheme, args.trials, args.seed, cluster, grid + cluster.gamma)
        rows += zip(repeat(scheme.label), ts, result.curve.values.tolist())
        load_rows.append((scheme.label, result.mean_load, result.p95_load, result.undecodable / args.trials))
    loads_out = _loads_path(args.out)
    _write_csv(args.out, ["scheme", "t", "prob"], _CURVE_LINE, rows)
    _write_csv(loads_out, ["scheme", "mean_load", "p95_load", "undecodable_rate"], "%s,%.12g,%.12g,%.12g",
               load_rows)
    print(f"wrote {args.out} and {loads_out}: {len(schemes)} schemes x {args.trials} trials")
    return 0


def cmd_gd_demo(args) -> int:
    cluster = _cluster_params(args)
    iterations, seed = args.iterations, args.seed
    dataset = make_dataset(args.m, args.c, args.noise, seed)
    eta = args.eta if args.eta is not None else default_learning_rate(dataset, iterations)
    ngc = build_ngc(cluster.n, args.smax, seed)
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging run fails the gates below instead
        run = run_descent(dataset, ngc, iterations, eta, cluster, seed)
    _write_csv(args.out, ["iter", "loss", "recovery_error", "decoded_sigma", "latency"], "%d,%.12g,%.12g,%d,%.12g",
               [(r.iteration, r.loss, r.recovery_error, r.decoded_sigma, r.latency) for r in run.records])
    worst = float(np.max([r.recovery_error for r in run.records]))  # nan if any is nan
    print(
        f"wrote {args.out}: {iterations} iterations, eta={eta:.6g}, "
        f"final loss {run.records[-1].loss:.6g}, max recovery error {worst:.3e}"
    )
    if not worst <= RECOVERY_GATE:
        raise NumericalFailure(f"recovery error {worst:.3e} above gate {RECOVERY_GATE:g}")
    bad = next((r for r in run.records if not math.isfinite(r.loss)), None)
    if bad is not None:
        raise NumericalFailure(f"loss {bad.loss:g} at iteration {bad.iteration} is not finite")
    return 0


_CLUSTER = ("n", "lam", "rho", "gamma", "eps", "pe")
_GRID = ("t_min", "t_max", "steps")

# name -> (handler, help, settings in help order)
COMMANDS = {
    "construct": (cmd_construct, "build a nested code family and write it to JSON",
                  ("n", "smax", "seed", "out")),
    "verify": (cmd_verify, "check all defining properties of a code file", ("path",)),
    "analyze": (cmd_analyze, "write analytic latency CDF curves as CSV",
                ("schemes", *_CLUSTER, *_GRID, "out")),
    "simulate": (cmd_simulate, "write empirical latency CDF curves and load stats as CSV",
                 ("schemes", *_CLUSTER, *_GRID, "trials", "seed", "out")),
    "gd-demo": (cmd_gd_demo, "coded gradient descent on a synthetic regression problem",
                ("m", "c", "noise", "iterations", "eta", "smax", *_CLUSTER, "seed", "out")),
}


def _add_settings(parser: _Parser, name: str) -> _Parser:
    handler, _, dests = COMMANDS[name]
    for dest in dests:
        flag, kind, default, text = SETTINGS[dest]
        option = {"dest": dest, "required": dest == "out", "default": default} if flag.startswith("--") else {}
        parser.add_argument(flag, type=kind, help=text, **option)
    parser.set_defaults(func=handler, command=name)
    return parser


def build_parser(command=None) -> _Parser:
    """The parser of subcommand ``command`` alone, for the words after its name; else that of all five."""
    if command in COMMANDS:
        return _add_settings(_Parser(prog=f"ngcodes {command}"), command)
    parser = _Parser(prog="ngcodes", description=(
        "Construct and verify nested gradient codes, write analytic and simulated latency CDFs, and run "
        "the coded gradient-descent demo. Outputs are CSV with 12-significant-digit floats; latency curves "
        "are over t - gamma. Exit codes: 0 success, 1 invalid parameters, 2 numerical or construction failure."))
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, text, _) in COMMANDS.items():
        _add_settings(subs.add_parser(name, help=text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in COMMANDS else None  # a call runs one subcommand: parse with its parser
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv[1:] if command else argv)
        return args.func(args)
    except (_UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size such as --steps 10**14 that cannot be allocated
        print(f"error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 1
    except CodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
