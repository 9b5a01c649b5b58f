"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report. The empirical/analytic comparison (criterion 4) runs 100k trials per
scheme, about a second in all.
"""
import itertools
from functools import lru_cache

import numpy as np

from ngcodes.codes import build_ngc, decode_row, verify_nesting
from ngcodes.descent import (
    dataset_loss,
    default_learning_rate,
    make_dataset,
    run_descent,
)
from ngcodes.latency import (
    ClusterParams,
    Scheme,
    latency_curve,
)
from ngcodes.simulator import run_experiment
from reference import ngc_latency_cdf_zero_shift, plain_descent

FIG_PARAMS = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8)
FIG_GRID = np.linspace(2.0, 18.0, 100)
TRIALS = 100_000


def report(number, name, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {name} ({detail})")
    assert ok, f"criterion {number} failed: {name} ({detail})"


@lru_cache(maxsize=None)
def analytic_fig_curve(label):
    from ngcodes.latency import parse_scheme

    return latency_curve(parse_scheme(label), FIG_GRID, FIG_PARAMS).values


@lru_cache(maxsize=None)
def family_grid():
    """Nested families shared by criteria 2 and 3: n = 4..10, 5 seeds each."""
    families = {}
    for n in range(4, 11):
        s_max = min(4, n - 1)
        for seed in range(5):
            families[(n, seed)] = build_ngc(n, s_max, seed)
    return families


def test_criterion_1_asymptote_reproduction():
    value = latency_curve(Scheme("gc", 0), [1e3], FIG_PARAMS).values[0]
    expected = 0.95**8
    gap = abs(value - expected)
    report(1, "uncoded terminal probability", gap <= 1e-4,
           f"analytic {value:.6f} vs (1-p_e)^n {expected:.6f}, gap {gap:.2e}")


def test_criterion_2_exhaustive_code_correctness():
    worst = 0.0
    checked = 0
    for (n, seed), ngc in family_grid().items():
        gradients = np.random.default_rng(seed + 1000).standard_normal((n, 3))
        direct = gradients.sum(axis=0)
        scale = np.abs(direct).max()
        for sigma in range(1, ngc.s_max + 1):
            component = ngc.components[sigma]
            responses = component.dense() @ gradients
            for size in range(sigma + 1):
                for stragglers in itertools.combinations(range(n), size):
                    responsive = sorted(set(range(n)) - set(stragglers))
                    coeff = decode_row(component, responsive)
                    error = np.abs(coeff @ responses - direct).max() / scale
                    worst = max(worst, error)
                    checked += 1
    report(2, "exhaustive straggler-pattern recovery", worst <= 1e-8,
           f"{checked} patterns across n=4..10, worst relative error {worst:.2e}")


def test_criterion_3_nesting_property():
    failures = [key for key, ngc in family_grid().items() if not verify_nesting(ngc)[0]]
    report(3, "nesting of every constructed family", not failures,
           f"{len(family_grid())} families checked, violations: {failures or 'none'}")


def test_criterion_4_analytic_empirical_agreement():
    labels = ["uncoded", "gc:1", "gc:2", "gc:4", "gc:6", "ngc:2", "ngc:4", "ngc:6"]
    from ngcodes.latency import parse_scheme

    gaps = {}
    for label in labels:
        result = run_experiment(parse_scheme(label), TRIALS, 100, FIG_PARAMS, FIG_GRID)
        gaps[label] = float(np.abs(result.curve.values - analytic_fig_curve(label)).max())
    worst = max(gaps.values())
    report(4, "empirical CDFs within 0.01 of analytic", worst <= 0.01,
           ", ".join(f"{k}: {v:.4f}" for k, v in gaps.items()))


def test_criterion_5_ordering_properties():
    quiet = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.0, p_e=0.05, n=8)
    ngc3 = latency_curve(Scheme("ngc", 3), FIG_GRID, quiet).values
    gc3 = latency_curve(Scheme("gc", 3), FIG_GRID, quiet).values
    dominance_margin = float((ngc3 - gc3).min())
    dominates = bool(np.all(ngc3 >= gc3 - 1e-12))

    gap46 = float(np.abs(analytic_fig_curve("ngc:4") - analytic_fig_curve("ngc:6")).max())
    close = gap46 < 0.02
    report(5, "nested dominates fixed at eps=0; ngc:4 and ngc:6 nearly equal",
           dominates and close,
           f"min(ngc3 - gc3) = {dominance_margin:.2e}, max|ngc4 - ngc6| = {gap46:.4f}")


def test_criterion_6_zero_shift_consistency():
    worst = 0.0
    cases = [(4, 1, 0.0), (6, 2, 0.1), (8, 3, 0.05), (8, 4, 0.2)]
    for n, s_max, p_e in cases:
        p = ClusterParams(lam=1.2, rho=0.0, gamma=0.4, eps=0.2, p_e=p_e, n=n)
        ts = np.linspace(0.0, 14.0, 100)
        for t, general in zip(ts, latency_curve(Scheme("ngc", s_max), ts, p).values):
            gap = abs(general - ngc_latency_cdf_zero_shift(t, s_max, p))
            worst = max(worst, gap)
    report(6, "zero-shift evaluator matches general evaluator", worst <= 1e-9,
           f"{len(cases)} configurations x 100 grid points, worst gap {worst:.2e}")


def test_criterion_7_exact_recovery_descent():
    dataset = make_dataset(64, 8, 0.1, seed=9)
    ngc = build_ngc(8, 3, seed=9)
    eta = default_learning_rate(dataset, 200)
    coded = run_descent(dataset, ngc, 200, eta, FIG_PARAMS, seed=9)
    plain = plain_descent(dataset, 200, eta)

    worst_recovery = max(r.recovery_error for r in coded.records)
    theta_star, *_ = np.linalg.lstsq(dataset.data, dataset.labels, rcond=None)
    loss_gap = abs(coded.records[-1].loss - dataset_loss(dataset, theta_star))
    trajectory_gap = max(
        float(np.abs(a - b).max()) for a, b in zip(coded.thetas, plain.thetas)
    )
    ok = worst_recovery < 1e-8 and loss_gap <= 1e-6 and trajectory_gap <= 1e-6
    report(7, "200-iteration coded descent with exact recovery", ok,
           f"max recovery {worst_recovery:.2e}, loss gap {loss_gap:.2e}, "
           f"coded-vs-plain trajectory gap {trajectory_gap:.2e}")


def test_criterion_8_flexible_load():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=8)
    result = run_experiment(Scheme("ngc", 3), TRIALS, 200, p, FIG_GRID)
    mean_load = result.mean_load
    report(8, "mean completed tasks below the fixed-load 4", mean_load < 4.0,
           f"mean load {mean_load:.3f} over {TRIALS} trials")
