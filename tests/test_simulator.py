import math
import tracemalloc

import numpy as np
import pytest

from ngcodes.latency import WAIT_BOUND, ClusterParams, Scheme, gc_latency_cdf, ngc_latency_cdf, task_time_cdf
from ngcodes.simulator import (
    CHUNK_ELEMENTS,
    IterationOutcome,
    _decide,
    _draw,
    _finish_times,
    _percentile,
    _simulate,
    run_experiment,
    simulate_ngc_iteration,
)

FIG_PARAMS = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8)


def dkw_band(trials, confidence=0.99):
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * trials))


def draw_all(rng, p, trials, u_max):
    """The kernel's draw with every task column stored, as (trials, n, u_max)."""
    alive, times = _draw(rng, p, trials, range(1, u_max + 1))
    return alive, np.moveaxis(times, 0, -1)


def one_trial(scheme, seed, p):
    """The kernel on a single trial drawn from default_rng(seed)."""
    latency, sigma, tasks, kappa = _simulate(np.random.default_rng(seed), scheme, p, 1)
    if math.isinf(latency[0]):
        return IterationOutcome(None, None, tasks[0], int(kappa[0]))
    return IterationOutcome(float(latency[0]), int(sigma[0]), tasks[0], int(kappa[0]))


def test_chunk_streams_are_reproducible():
    # chunk c of run_experiment draws from SeedSequence([seed, c])
    scheme, grid = Scheme("ngc", 3), np.linspace(2.0, 18.0, 40)
    chunk = CHUNK_ELEMENTS // (FIG_PARAMS.n * 4)
    latencies = np.concatenate([
        _simulate(np.random.default_rng(np.random.SeedSequence([42, c])), scheme, FIG_PARAMS, chunk)[0]
        for c in range(2)
    ])
    result = run_experiment(scheme, 2 * chunk, 42, FIG_PARAMS, grid)
    expected = np.searchsorted(np.sort(latencies), grid, side="right") / (2 * chunk)
    assert np.array_equal(result.curve.values, expected)
    assert not np.array_equal(latencies[:chunk], latencies[chunk:])


def test_trace_always_fails_at_pe_one():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=1.0, n=4)
    alive, times = draw_all(np.random.default_rng(0), p, 1, 3)
    assert not alive.any() and np.all(np.isinf(times))


def test_trace_reduces_to_deterministic_shift():
    p = ClusterParams(lam=1e9, rho=0.5, gamma=0.2, eps=0.1, p_e=0.0, n=4)
    _, times = draw_all(np.random.default_rng(1), p, 1, 4)
    expected = p.gamma + p.eps + p.rho * np.arange(1, 5)
    assert np.allclose(times[0], expected, atol=1e-5)


def test_trace_is_increasing_and_shift_bounded():
    alive, times = draw_all(np.random.default_rng(2), FIG_PARAMS, 200, 5)
    finish = times[alive]
    assert np.all(np.diff(finish, axis=1) > 0)
    lower = FIG_PARAMS.gamma + FIG_PARAMS.eps + FIG_PARAMS.rho * np.arange(1, 6)
    assert np.all(finish >= lower)


def test_trace_empirical_cdf_matches_analytic():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=4)
    trials = 1_000_000
    _, times = draw_all(np.random.default_rng(3), p, trials // p.n, 1)
    samples = np.sort(times.reshape(-1))
    ts = np.linspace(0.5, 12.0, 60)
    empirical = np.searchsorted(samples, ts, side="right") / trials
    analytic = np.array([task_time_cdf(1, t, p) for t in ts])
    assert np.abs(empirical - analytic).max() <= dkw_band(trials)


def test_ngc_with_zero_tolerance_waits_for_everyone():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=8)
    for seed in range(20):
        outcome = simulate_ngc_iteration(np.random.default_rng(seed), 0, p)
        _, times = draw_all(np.random.default_rng(seed), p, 1, 1)
        assert outcome.latency == pytest.approx(times.max())
        assert outcome.decoded_sigma == 0


def test_ngc_undecodable_when_all_fail():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=1.0, n=8)
    outcome = simulate_ngc_iteration(np.random.default_rng(0), 3, p)
    assert outcome.latency is None and outcome.decoded_sigma is None
    assert outcome.kappa == 8
    assert np.all(outcome.tasks_done == 0)


def test_ngc_quorum_and_no_earlier_layer():
    p = FIG_PARAMS
    s_max = 3
    for seed in range(500):
        outcome = simulate_ngc_iteration(np.random.default_rng(seed), s_max, p)
        if outcome.latency is None:
            assert outcome.kappa > s_max
            continue
        sigma = outcome.decoded_sigma
        assert 0 <= sigma <= s_max
        assert np.sum(outcome.tasks_done >= sigma + 1) >= p.n - sigma
        assert np.all(outcome.tasks_done <= s_max + 1)
        # replay the identical stream to inspect raw finish times
        alive, times = draw_all(np.random.default_rng(seed), p, 1, s_max + 1)
        alive, times = alive[0], times[0]
        for u in range(1, sigma + 1):  # u < sigma + 1
            strictly_before = int(np.sum(alive & (times[:, u - 1] < outcome.latency)))
            assert strictly_before < p.n - u + 1
        for i in range(p.n):
            expected = int(np.searchsorted(times[i], outcome.latency, side="right")) if alive[i] else 0
            assert outcome.tasks_done[i] == expected


def test_gc_fixed_load_and_order_statistic():
    p = FIG_PARAMS
    for seed in range(200):
        outcome = one_trial(Scheme("gc", 3), seed, p)
        alive = outcome.tasks_done > 0
        assert np.all(outcome.tasks_done[alive] == 4)
        if outcome.latency is None:
            assert outcome.kappa > 3
            continue
        replay_alive, times = draw_all(np.random.default_rng(seed), p, 1, 4)
        finals = sorted(times[0, replay_alive[0], -1])
        assert outcome.latency == pytest.approx(finals[p.n - 3 - 1])


def test_gc_and_ngc_agree_at_zero_tolerance():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=8)
    for seed in range(50):
        a = one_trial(Scheme("gc", 0), seed, p)
        b = one_trial(Scheme("ngc", 0), seed, p)
        assert a.latency == pytest.approx(b.latency)


def test_ngc_never_slower_than_gc_on_shared_draws():
    p = FIG_PARAMS
    for seed in range(2000):
        gc_out = one_trial(Scheme("gc", 3), seed, p)
        ngc_out = one_trial(Scheme("ngc", 3), seed, p)
        if gc_out.latency is None:
            assert ngc_out.latency is None
            continue
        assert ngc_out.latency <= gc_out.latency + 1e-12


def test_run_experiment_single_trial_is_step_function():
    grid = np.linspace(2.0, 18.0, 40)
    result = run_experiment(Scheme("ngc", 3), 1, 5, FIG_PARAMS, grid)
    assert set(np.unique(result.curve.values)) <= {0.0, 1.0}
    assert np.all(np.diff(result.curve.values) >= 0.0)


def test_run_experiment_deterministic():
    grid = np.linspace(2.0, 18.0, 25)
    a = run_experiment(Scheme("gc", 2), 500, 9, FIG_PARAMS, grid)
    b = run_experiment(Scheme("gc", 2), 500, 9, FIG_PARAMS, grid)
    assert np.array_equal(a.curve.values, b.curve.values)
    assert a.loads == b.loads


def test_run_experiment_deterministic_across_chunks():
    grid = np.linspace(2.0, 18.0, 25)
    trials = 3 * CHUNK_ELEMENTS // (FIG_PARAMS.n * 4) - 7  # three chunks, the last one short
    a = run_experiment(Scheme("ngc", 3), trials, 9, FIG_PARAMS, grid)
    b = run_experiment(Scheme("ngc", 3), trials, 9, FIG_PARAMS, grid)
    assert a.curve.values.tobytes() == b.curve.values.tobytes()
    assert a.loads == b.loads


def test_distinct_seeds_give_distinct_curves():
    grid = np.linspace(2.0, 18.0, 100)
    curves = [run_experiment(Scheme("ngc", 3), 1000, seed, FIG_PARAMS, grid).curve.values
              for seed in (0, 1, 5)]
    for i in range(3):
        for j in range(i + 1, 3):
            assert not np.array_equal(curves[i], curves[j])


def test_run_experiment_matches_analytic_gc():
    grid = np.linspace(2.0, 18.0, 50)
    trials = 20_000
    result = run_experiment(Scheme("gc", 2), trials, 13, FIG_PARAMS, grid)
    analytic = np.array([gc_latency_cdf(t, 2, FIG_PARAMS) for t in grid])
    assert np.abs(result.curve.values - analytic).max() <= dkw_band(trials)


def test_run_experiment_matches_analytic_ngc():
    grid = np.linspace(2.0, 18.0, 50)
    trials = 20_000
    result = run_experiment(Scheme("ngc", 3), trials, 14, FIG_PARAMS, grid)
    analytic = np.array([ngc_latency_cdf(t, 3, FIG_PARAMS) for t in grid])
    assert np.abs(result.curve.values - analytic).max() <= dkw_band(trials)


def test_empirical_ngc_curve_dominates_empirical_gc_curve():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.0, p_e=0.05, n=8)
    grid = np.linspace(2.0, 18.0, 50)
    ngc = run_experiment(Scheme("ngc", 3), 5000, 31, p, grid)
    gc = run_experiment(Scheme("gc", 3), 5000, 31, p, grid)
    assert np.all(ngc.curve.values >= gc.curve.values - 0.01)


def test_flexible_load_stays_below_fixed_load():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=8)
    grid = np.linspace(2.0, 18.0, 10)
    result = run_experiment(Scheme("ngc", 3), 20_000, 21, p, grid)
    assert 1.0 <= result.loads.mean_load < 4.0
    assert result.loads.undecodable_rate == 0.0


def test_undecodable_rate_matches_binomial_tail():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=8)
    trials = 20_000
    grid = np.linspace(2.0, 18.0, 10)
    result = run_experiment(Scheme("gc", 1), trials, 3, p, grid)
    tail = sum(math.comb(8, k) * 0.3**k * 0.7 ** (8 - k) for k in range(2, 9))
    margin = 4.0 * math.sqrt(tail * (1.0 - tail) / trials)
    assert abs(result.loads.undecodable_rate - tail) <= margin


def test_decode_counts_sum_to_trials():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=8)
    trials = 3 * CHUNK_ELEMENTS // (p.n * 4) - 7  # three chunks, the last one short
    result = run_experiment(Scheme("ngc", 3), trials, 17, p, np.linspace(2.0, 18.0, 10))
    assert len(result.decoded) == 4
    assert sum(result.decoded) + result.undecodable == trials
    assert result.undecodable > 0 and all(count > 0 for count in result.decoded)


def test_decode_counts_match_the_kernel_streams():
    scheme = Scheme("ngc", 3)
    chunk = CHUNK_ELEMENTS // (FIG_PARAMS.n * 4)
    sigma = np.concatenate([
        _simulate(np.random.default_rng(np.random.SeedSequence([42, c])), scheme, FIG_PARAMS, chunk)[1]
        for c in range(2)
    ])
    result = run_experiment(scheme, 2 * chunk, 42, FIG_PARAMS, np.linspace(2.0, 18.0, 10))
    assert result.decoded == tuple(int(np.sum(sigma == s)) for s in range(4))
    assert result.undecodable == int(np.sum(sigma == -1))


def test_fixed_code_without_failures_decodes_every_trial_at_its_sigma():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=8)
    for sigma in (0, 2, 5):
        result = run_experiment(Scheme("gc", sigma), 3000, 4, p, np.linspace(2.0, 18.0, 10))
        assert result.decoded == (0,) * sigma + (3000,)
        assert result.undecodable == 0
    assert run_experiment(Scheme("uncoded"), 500, 4, p, np.linspace(2.0, 18.0, 10)).decoded == (500,)


def test_undecodable_count_matches_undecodable_rate():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=8)
    trials = 20_000
    result = run_experiment(Scheme("gc", 1), trials, 3, p, np.linspace(2.0, 18.0, 10))
    assert result.undecodable > 0
    assert result.undecodable / trials == result.loads.undecodable_rate
    assert result.decoded == (0, trials - result.undecodable)


def test_decision_of_a_stack_equals_the_decision_of_each_row():
    # descent decides all its iterations in one call on rows drawn one at a time
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=8)
    for scheme in (Scheme("ngc", 3), Scheme("gc", 2), Scheme("uncoded")):
        alive, times = _draw(np.random.default_rng(5), p, 300, scheme.layers)
        stacked = _decide(scheme, p, alive, times)
        assert np.any(stacked[1] == -1) and np.any(stacked[1] >= 0)
        for k in range(0, 300, 7):
            alone = _decide(scheme, p, alive[k:k + 1], times[:, k:k + 1])
            for a, b in zip(stacked, alone):
                assert np.array_equal(a[k:k + 1], b)


def test_accepted_cluster_parameters_never_overflow():
    # about the smallest lam the overflow rule admits at n=8: no draw reaches inf
    p = ClusterParams(lam=8 * WAIT_BOUND / 1e308, rho=0.0, gamma=0.0, eps=0.0, p_e=0.0, n=8)
    with np.errstate(over="raise"):
        result = run_experiment(Scheme("gc", 7), 20_000, 1, p, np.linspace(1.0, 2.0, 3))
    assert result.undecodable == 0


def chunk_loads(scheme, trials, seed, p):
    """Per-worker loads (trials, n) and latencies of run_experiment, rebuilt
    from its chunk streams."""
    chunk = max(1, CHUNK_ELEMENTS // (p.n * (scheme.tolerance + 1)))
    parts = [_simulate(np.random.default_rng(np.random.SeedSequence([seed, c])), scheme, p,
                       min(chunk, trials - start))
             for c, start in enumerate(range(0, trials, chunk))]
    return np.concatenate([x[2] for x in parts]), np.concatenate([x[0] for x in parts])


@pytest.mark.parametrize("n, tolerance", [(1, 0), (8, 3), (64, 5)])
@pytest.mark.parametrize("p_e", [0.0, 0.3, 1.0])
def test_load_histogram_statistics_equal_numpy_on_the_full_loads(n, tolerance, p_e):
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=p_e, n=n)
    grid = np.linspace(2.0, 18.0, 10)
    for scheme in (Scheme("uncoded"), Scheme("gc", tolerance), Scheme("ngc", tolerance)):
        chunk = max(1, CHUNK_ELEMENTS // (n * (scheme.tolerance + 1)))
        for trials in (1, 7, chunk + 1, 20_000):
            result = run_experiment(scheme, trials, 3, p, grid)
            loads, latencies = chunk_loads(scheme, trials, 3, p)
            assert result.loads.mean_load == float(np.mean(loads))
            assert result.loads.p95_load == float(np.percentile(loads, 95))
            assert result.loads.undecodable_rate == float(np.mean(np.isinf(latencies)))


def test_histogram_percentile_equals_numpy_percentile():
    rng = np.random.default_rng(8)
    for size in (1, 2, 3, 19, 20, 21, 1000, 20_000):
        for top in (0, 1, 4, 40):
            samples = rng.integers(0, top + 1, size)
            histogram = np.bincount(samples, minlength=top + 1)
            for q in (0, 5, 50, 95, 100):
                assert _percentile(histogram, q) == float(np.percentile(samples, q))


@pytest.mark.parametrize("p_e", [0.0, 0.3, 1.0])
def test_stored_layer_columns_equal_the_cumsum_reference(p_e):
    p = ClusterParams(lam=0.7, rho=0.3, gamma=0.2, eps=0.1, p_e=p_e, n=8)
    for layers in ([1], [4], [1, 2, 3, 4], [2, 5], [3, 4, 9]):
        uniforms = np.random.default_rng(1).random((50, p.n))
        waits = np.random.default_rng(2).standard_exponential((50, p.n, layers[-1]))
        reference = np.cumsum(waits * (1.0 / p.lam), axis=2)
        reference += p.gamma + p.eps + p.rho * np.arange(1, layers[-1] + 1)
        reference[uniforms < p.p_e] = math.inf
        alive, times = _finish_times(p, uniforms, waits.copy(), layers)
        assert np.array_equal(alive, uniforms >= p.p_e)
        assert times.shape == (len(layers), 50, p.n)
        for k, u in enumerate(layers):
            assert times[k].tobytes() == reference[:, :, u - 1].tobytes()


def test_run_experiment_memory_does_not_grow_with_trials_times_workers():
    # a (trials, n) int64 loads array alone would take 41 MB here
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=256)
    tracemalloc.start()
    try:
        run_experiment(Scheme("ngc", 3), 20_000, 7, p, np.linspace(2.0, 18.0, 100))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
