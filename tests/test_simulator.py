import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import ngcodes.simulator as simulator
from ngcodes.cli import main
from ngcodes.latency import WAIT_BOUND, ClusterParams, Scheme, _layer_cdf, latency_curve
from ngcodes.simulator import (
    CHUNK_ELEMENTS,
    _decide,
    _finish_times,
    _percentile,
    run_experiment,
    simulate_ngc_iteration,
)
from reference import kernel_draw, kernel_trials

FIG_PARAMS = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8)


def dkw_band(trials, confidence=0.99):
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * trials))


def draw_all(rng, p, trials, u_max):
    """The kernel's draw with every task column stored, as (trials, n, u_max)."""
    alive, times = kernel_draw(rng, p, trials, range(1, u_max + 1))
    return alive, np.moveaxis(times, 0, -1)


simulate = kernel_trials  # latency, sigma and tasks done of fresh kernel draws


def one_trial(scheme, seed, p):
    """The kernel's (latency, sigma, tasks done) on a single trial drawn from default_rng(seed)."""
    latency, sigma, tasks = simulate(np.random.default_rng(seed), scheme, p, 1)
    return float(latency[0]), int(sigma[0]), tasks[0]


def test_chunk_streams_are_reproducible():
    # chunk c of run_experiment draws from SeedSequence([seed, c])
    scheme, grid = Scheme("ngc", 3), np.linspace(2.0, 18.0, 40)
    chunk = CHUNK_ELEMENTS // (FIG_PARAMS.n * 4)
    latencies = np.concatenate([
        simulate(np.random.default_rng(np.random.SeedSequence([42, c])), scheme, FIG_PARAMS, chunk)[0]
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
    analytic = _layer_cdf(1, ts, p)
    assert np.abs(empirical - analytic).max() <= dkw_band(trials)


def test_ngc_with_zero_tolerance_waits_for_everyone():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=8)
    for seed in range(20):
        latency, sigma, _ = simulate_ngc_iteration(np.random.default_rng(seed), 0, p)
        _, times = draw_all(np.random.default_rng(seed), p, 1, 1)
        assert latency == pytest.approx(times.max())
        assert sigma == 0


def test_ngc_undecodable_when_all_fail():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=1.0, n=8)
    latency, sigma, tasks = simulate_ngc_iteration(np.random.default_rng(0), 3, p)
    assert math.isinf(latency) and sigma == -1
    alive, _ = draw_all(np.random.default_rng(0), p, 1, 4)
    assert p.n - alive.sum() == 8
    assert np.all(tasks == 0)


def test_ngc_quorum_and_no_earlier_layer():
    p = FIG_PARAMS
    s_max = 3
    for seed in range(500):
        latency, sigma, tasks = simulate_ngc_iteration(np.random.default_rng(seed), s_max, p)
        # replay the identical stream to inspect raw failures and finish times
        alive, times = draw_all(np.random.default_rng(seed), p, 1, s_max + 1)
        alive, times = alive[0], times[0]
        if math.isinf(latency):
            assert sigma == -1 and p.n - alive.sum() > s_max
            continue
        assert 0 <= sigma <= s_max
        assert np.sum(tasks >= sigma + 1) >= p.n - sigma
        assert np.all(tasks <= s_max + 1)
        for u in range(1, sigma + 1):  # u < sigma + 1
            strictly_before = int(np.sum(alive & (times[:, u - 1] < latency)))
            assert strictly_before < p.n - u + 1
        for i in range(p.n):
            expected = int(np.searchsorted(times[i], latency, side="right")) if alive[i] else 0
            assert tasks[i] == expected


def test_gc_fixed_load_and_order_statistic():
    p = FIG_PARAMS
    for seed in range(200):
        latency, sigma, tasks = one_trial(Scheme("gc", 3), seed, p)
        alive = tasks > 0
        assert np.all(tasks[alive] == 4)
        replay_alive, times = draw_all(np.random.default_rng(seed), p, 1, 4)
        if math.isinf(latency):
            assert sigma == -1 and p.n - replay_alive.sum() > 3
            continue
        finals = sorted(times[0, replay_alive[0], -1])
        assert latency == pytest.approx(finals[p.n - 3 - 1])


def test_gc_and_ngc_agree_at_zero_tolerance():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=8)
    for seed in range(50):
        a, _, _ = one_trial(Scheme("gc", 0), seed, p)
        b, _, _ = one_trial(Scheme("ngc", 0), seed, p)
        assert a == pytest.approx(b)


def test_ngc_never_slower_than_gc_on_shared_draws():
    p = FIG_PARAMS
    for seed in range(2000):
        gc_latency, _, _ = one_trial(Scheme("gc", 3), seed, p)
        ngc_latency, ngc_sigma, _ = one_trial(Scheme("ngc", 3), seed, p)
        if math.isinf(gc_latency):
            assert math.isinf(ngc_latency) and ngc_sigma == -1
            continue
        assert ngc_latency <= gc_latency + 1e-12


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
    assert (a.mean_load, a.p95_load, a.undecodable) == (b.mean_load, b.p95_load, b.undecodable)


def test_run_experiment_deterministic_across_chunks():
    grid = np.linspace(2.0, 18.0, 25)
    trials = 3 * CHUNK_ELEMENTS // (FIG_PARAMS.n * 4) - 7  # three chunks, the last one short
    a = run_experiment(Scheme("ngc", 3), trials, 9, FIG_PARAMS, grid)
    b = run_experiment(Scheme("ngc", 3), trials, 9, FIG_PARAMS, grid)
    assert a.curve.values.tobytes() == b.curve.values.tobytes()
    assert (a.mean_load, a.p95_load, a.undecodable) == (b.mean_load, b.p95_load, b.undecodable)


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
    analytic = latency_curve(Scheme("gc", 2), grid, FIG_PARAMS).values
    assert np.abs(result.curve.values - analytic).max() <= dkw_band(trials)


def test_run_experiment_matches_analytic_ngc():
    grid = np.linspace(2.0, 18.0, 50)
    trials = 20_000
    result = run_experiment(Scheme("ngc", 3), trials, 14, FIG_PARAMS, grid)
    analytic = latency_curve(Scheme("ngc", 3), grid, FIG_PARAMS).values
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
    assert 1.0 <= result.mean_load < 4.0
    assert result.undecodable == 0


def test_undecodable_rate_matches_binomial_tail():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=8)
    trials = 20_000
    grid = np.linspace(2.0, 18.0, 10)
    result = run_experiment(Scheme("gc", 1), trials, 3, p, grid)
    tail = sum(math.comb(8, k) * 0.3**k * 0.7 ** (8 - k) for k in range(2, 9))
    margin = 4.0 * math.sqrt(tail * (1.0 - tail) / trials)
    assert abs(result.undecodable / trials - tail) <= margin


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
        simulate(np.random.default_rng(np.random.SeedSequence([42, c])), scheme, FIG_PARAMS, chunk)[1]
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


def test_undecodable_count_matches_undecodable_rate(tmp_path):
    # the simulate command's undecodable_rate is the count over the trials
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=8)
    trials = 20_000
    result = run_experiment(Scheme("gc", 1), trials, 3, p, np.linspace(2.0, 18.0, 10))
    assert result.undecodable > 0
    assert result.decoded == (0, trials - result.undecodable)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--schemes", "gc:1", "--pe", "0.3", "--trials", str(trials), "--seed", "3",
                 "--steps", "10", "--out", str(out)]) == 0
    (row,) = (tmp_path / "sim_loads.csv").read_text().splitlines()[1:]
    assert row == "gc:1,%.12g,%.12g,%.12g" % (result.mean_load, result.p95_load, result.undecodable / trials)


def test_decision_of_a_stack_equals_the_decision_of_each_row():
    # a trial's decision does not depend on the other trials of its chunk
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=8)
    for scheme in (Scheme("ngc", 3), Scheme("gc", 2), Scheme("uncoded")):
        _, times = kernel_draw(np.random.default_rng(5), p, 300, scheme.layers)
        order = np.empty_like(times)
        stacked = _decide(scheme, p, times, order)
        assert np.any(stacked[1] == -1) and np.any(stacked[1] >= 0)
        for k in range(0, 300, 7):
            alone = _decide(scheme, p, times[:, k:k + 1], order)
            for a, b in zip(stacked, alone):
                assert np.array_equal(a[k:k + 1], b)


def argmin_decide(scheme, p, times):
    """``_decide`` with an argmin over the layer axis whatever its length: the
    reference for its one-layer shortcut."""
    layers = np.array(scheme.layers)
    order = np.sort(times, axis=2)
    quorum = order[np.arange(layers.size), :, p.n - layers]
    best = np.argmin(quorum, axis=0)
    latency = quorum[best, np.arange(quorum.shape[1])]
    return latency, np.where(np.isinf(latency), -1, layers[best] - 1)


@pytest.mark.parametrize("scheme", [Scheme("uncoded"), Scheme("gc", 0), Scheme("gc", 3),
                                    Scheme("ngc", 0), Scheme("ngc", 3), Scheme("ngc", 7)])
@pytest.mark.parametrize("p_e", [0.0, 0.3, 1.0])
def test_decide_equals_the_argmin_decision_byte_for_byte(scheme, p_e):
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=p_e, n=8)
    _, times = kernel_draw(np.random.default_rng(11), p, 500, scheme.layers)
    coarse = np.round(times)  # monotone, so each worker's times still rise; many ties
    for drawn in (times, coarse):
        got, want = _decide(scheme, p, drawn, np.empty_like(drawn)), argmin_decide(scheme, p, drawn)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if p_e == 1.0:
        assert np.all(got[1] == -1)
    elif scheme.kind == "ngc" and scheme.tolerance > 0:  # ties between layers were decided
        quorum = np.sort(coarse, axis=2)[np.arange(len(scheme.layers)), :, p.n - np.array(scheme.layers)]
        assert np.any(np.sum(quorum == quorum.min(axis=0), axis=0) > 1)


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
    parts = [simulate(np.random.default_rng(np.random.SeedSequence([seed, c])), scheme, p,
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
            assert result.mean_load == float(np.mean(loads))
            assert result.p95_load == float(np.percentile(loads, 95))
            assert result.undecodable / trials == float(np.mean(np.isinf(latencies)))


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
        times = np.empty((len(layers), 50, p.n))
        assert _finish_times(p, uniforms, waits.copy(), layers, times) is times
        assert np.array_equal(np.isfinite(times), np.broadcast_to(uniforms >= p.p_e, times.shape))
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


@pytest.mark.parametrize("n, u", [(8, 4), (12, 1), (12, 6)])
def test_waits_of_a_prefix_of_trials_are_the_prefix_of_a_whole_chunks_waits(n, u):
    # numpy's fill property that lets a chunk stop drawing waits at any trial: after the chunk's uniforms,
    # the waits of k trials are the first k trials of the whole chunk's, drawn with or without ``out``
    chunk = max(1, CHUNK_ELEMENTS // (n * u))

    def after_uniforms():
        rng = np.random.default_rng(np.random.SeedSequence([7, 3]))
        rng.random((chunk, n))
        return rng

    whole = after_uniforms().standard_exponential((chunk, n, u))
    for k in (0, 1, 2, 17, chunk // 2, chunk - 1, chunk):
        into = np.empty((k, n, u))
        after_uniforms().standard_exponential(out=into)
        assert after_uniforms().standard_exponential((k, n, u)).tobytes() == whole[:k].tobytes()
        assert into.tobytes() == whole[:k].tobytes()


@pytest.mark.parametrize("scheme", [Scheme("ngc", 0), Scheme("ngc", 3), Scheme("gc", 2), Scheme("uncoded", 0)])
@pytest.mark.parametrize("p_e", [0.0, 0.05, 0.3, 0.6, 1.0])
@pytest.mark.parametrize("decodable", [1, 5, 300])
def test_a_stream_read_to_a_decodable_quota_is_a_prefix_of_the_whole_chunks(scheme, p_e, decodable, monkeypatch):
    # the trials of a chunk after its last decodable trial read draw no waits, yet decide as in the whole
    # chunk, and their workers fail as there, so each does the tasks it does there
    monkeypatch.setattr(simulator, "CHUNK_ELEMENTS", 2**9)
    p = dataclasses.replace(FIG_PARAMS, p_e=p_e)
    whole = simulator._decided_chunks(scheme, p, 13)
    read = 0
    for chunk, (cut, full) in enumerate(zip(simulator._decided_chunks(scheme, p, 13, decodable=decodable), whole)):
        size = cut[0].size
        for a, b in zip(cut[:2], full):  # latency, sigma
            assert a.dtype == b.dtype and a.tobytes() == b[:size].tobytes()
        drawn = int(np.flatnonzero(cut[1] >= 0)[-1]) + 1 if np.any(cut[1] >= 0) else 0  # trials with waits
        assert cut[2].shape == (len(scheme.layers), size, p.n)
        assert cut[2][:, :drawn].tobytes() == full[2][:, :drawn].tobytes()
        assert np.array_equal(np.isinf(cut[2]), np.isinf(full[2][:, :size]))
        read += int(np.count_nonzero(cut[1] >= 0))
        if chunk == 50:  # a cluster that rarely decodes meets its quota much later
            assert read < decodable
            break
    else:  # the stream ended: at its quota, on a decodable trial
        assert read == decodable and cut[1][-1] >= 0


@pytest.mark.parametrize("first, second", [
    ((Scheme("ngc", 3), 21, math.inf), (Scheme("ngc", 3), 22, math.inf)),
    ((Scheme("ngc", 3), 21, math.inf), (Scheme("gc", 2), 21, math.inf)),
    ((Scheme("ngc", 1), 5, 40), (Scheme("ngc", 1), 5, math.inf)),  # a decodable quota beside a whole reader
])
def test_readers_in_lockstep_give_the_chunks_of_each_read_alone(first, second, monkeypatch):
    # each reader draws into a workspace of its own, so one reader's next chunk leaves the other's be
    monkeypatch.setattr(simulator, "CHUNK_ELEMENTS", 2**9)
    p = dataclasses.replace(FIG_PARAMS, p_e=0.3)

    def reader(scheme, seed, decodable):
        return simulator._decided_chunks(scheme, p, seed, trials=2000, decodable=decodable)

    def alone(args):  # each chunk copied before the reader advances
        return [[a.copy() for a in chunk] for chunk in reader(*args)]

    expected = alone(first), alone(second)
    lockstep = [[], []]
    for chunks in itertools.zip_longest(reader(*first), reader(*second)):
        for got, chunk in zip(lockstep, chunks):  # read both chunks, then advance both readers
            if chunk is not None:
                got.append([a.copy() for a in chunk])
    assert len(expected[0]) >= 3 and len(expected[1]) >= 3
    for got, want in zip(lockstep, expected):
        assert len(got) == len(want)
        for a, b in zip(itertools.chain(*got), itertools.chain(*want)):
            assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def previous_experiment(scheme, trials, seed, p, grid):
    """``run_experiment`` on the kernel as it was before one workspace served every chunk: each chunk draws into
    fresh arrays, its decision gives every worker's tasks done, and the loads are a ``bincount`` of those."""
    layers, u_max = np.array(scheme.layers), scheme.layers[-1]
    chunk = max(1, CHUNK_ELEMENTS // (p.n * u_max))
    latencies, counts, loads = [], np.zeros(u_max + 1, dtype=np.int64), np.zeros(u_max + 1, dtype=np.int64)
    for c, start in enumerate(range(0, trials, chunk)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        uniforms = rng.random((min(chunk, trials - start), p.n))
        waits = np.empty((*uniforms.shape, u_max))
        rng.standard_exponential(out=waits)
        alive = uniforms >= p.p_e
        waits *= 1.0 / p.lam
        shifts = p.gamma + p.eps + p.rho * np.arange(1, u_max + 1)
        running = np.where(alive, waits[:, :, 0], math.inf)
        times = np.empty((layers.size, *alive.shape))
        summed = 1
        for k, u in enumerate(scheme.layers):
            for r in range(summed, u):
                running += waits[:, :, r]
            summed = u
            np.add(running, shifts[u - 1], out=times[k])
        order = np.sort(times, axis=2)
        quorum = order[np.arange(layers.size), :, p.n - layers]
        best = np.argmin(quorum, axis=0)
        latency = quorum[best, np.arange(quorum.shape[1])]
        sigma = np.where(np.isinf(latency), -1, layers[best] - 1)
        if scheme.kind == "ngc":
            tasks = np.zeros(alive.shape, dtype=np.intp)
            for column in times:
                tasks += column <= latency[:, None]
            tasks *= alive
        else:
            tasks = u_max * alive
        latencies.append(latency)
        counts += np.bincount(sigma + 1, minlength=u_max + 1)
        loads += np.bincount(tasks.ravel(), minlength=u_max + 1)
    values = np.searchsorted(np.sort(np.concatenate(latencies)), grid, side="right") / trials
    return (values, int(loads @ np.arange(u_max + 1)) / (trials * p.n), _percentile(loads, 95),
            tuple(counts[1:].tolist()), int(counts[0]))


@pytest.mark.parametrize("scheme, n", [(scheme, n) for n in (1, 8, 64) for scheme in (
    Scheme("uncoded"), Scheme("gc", 0), Scheme("gc", 3), Scheme("ngc", 0), Scheme("ngc", 3), Scheme("ngc", 7))
    if scheme.tolerance < n])
@pytest.mark.parametrize("p_e", [0.0, 0.3, 1.0])
def test_run_experiment_equals_the_fresh_array_kernel_byte_for_byte(scheme, n, p_e):
    # pins the per-layer load counts (an undecodable trial's failed workers do no task) and a short last chunk
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=p_e, n=n)
    grid = np.linspace(2.0, 18.0, 40)
    chunk = max(1, CHUNK_ELEMENTS // (n * scheme.layers[-1]))
    for trials in sorted({1, max(1, chunk - 1), chunk, 2 * chunk + 5}):
        got = run_experiment(scheme, trials, 23, p, grid)
        values, mean_load, p95_load, decoded, undecodable = previous_experiment(scheme, trials, 23, p, grid)
        assert got.curve.values.tobytes() == values.tobytes()
        assert (got.mean_load, got.p95_load, got.decoded, got.undecodable) == (
            mean_load, p95_load, decoded, undecodable)
