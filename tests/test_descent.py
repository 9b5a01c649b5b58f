import dataclasses
import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import ngcodes.codes as codes
import ngcodes.descent as descent
import ngcodes.simulator as simulator
from ngcodes.codes import (
    NumericalFailure,
    build_ngc,
    decode_row,
    encode_response,
)
from ngcodes.descent import (
    Dataset,
    IterationRecord,
    UndecodableIteration,
    coded_iteration,
    dataset_loss,
    make_dataset,
    partial_gradient,
    partition,
    run_descent,
    default_learning_rate,
)
from ngcodes.latency import ClusterParams, Scheme
from ngcodes.simulator import run_experiment
from reference import kernel_trials, plain_descent

FIG_PARAMS = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8)


def block_loss(data, labels, theta):
    residual = data @ theta - labels
    return 0.5 * float(residual @ residual)


def finite_difference_gradient(data, labels, theta, h=1e-6):
    """Oracle: central differences of the block loss."""
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (block_loss(data, labels, plus) - block_loss(data, labels, minus)) / (2 * h)
    return grad


def test_partition_one_row_blocks():
    ds = make_dataset(8, 3, 0.1, seed=0)
    data, labels = partition(ds, 8)
    assert data.shape == (8, 1, 3) and labels.shape == (8, 1)
    assert np.array_equal(data.reshape(-1, 3), ds.data)


def test_partition_pads_with_zero_rows():
    ds = make_dataset(10, 3, 0.1, seed=1)
    data, labels = partition(ds, 8)
    stacked = data.reshape(-1, 3)
    assert stacked.shape == (16, 3)
    assert data.shape == (8, 2, 3)
    assert np.array_equal(stacked[:10], ds.data)
    assert np.all(stacked[10:] == 0.0) and np.all(labels.reshape(-1)[10:] == 0.0)
    # padded rows contribute nothing to the gradient sum
    theta = np.ones(3)
    total = partial_gradient(data, labels, theta).sum(axis=0)
    direct = ds.data.T @ (ds.data @ theta - ds.labels)
    assert np.allclose(total, direct, atol=1e-12)


def test_partial_gradient_closed_form():
    data, labels = partition(Dataset(np.array([[1.0, 0.0]]), np.array([1.0])), 1)
    assert np.array_equal(partial_gradient(data[0], labels[0], np.zeros(2)), np.array([-1.0, 0.0]))
    assert np.array_equal(partial_gradient(data, labels, np.zeros(2)), np.array([[-1.0, 0.0]]))


def test_gradient_sum_vanishes_at_least_squares_solution():
    ds = make_dataset(40, 5, 0.3, seed=2)
    theta_star, *_ = np.linalg.lstsq(ds.data, ds.labels, rcond=None)
    data, labels = partition(ds, 8)
    total = partial_gradient(data, labels, theta_star).sum(axis=0)
    assert np.abs(total).max() <= 1e-8


def test_partial_gradient_matches_finite_differences():
    ds = make_dataset(24, 4, 0.2, seed=3)
    rng = np.random.default_rng(4)
    theta = rng.standard_normal(4)
    data, labels = partition(ds, 8)
    stacked = partial_gradient(data, labels, theta)
    for i in range(8):
        exact = stacked[i]
        approx = finite_difference_gradient(data[i], labels[i], theta)
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(exact - approx).max() / scale <= 1e-5


def test_coded_iteration_identity_component_is_exact():
    ds = make_dataset(32, 4, 0.1, seed=5)
    ngc = build_ngc(8, 3, seed=5)
    data, labels = partition(ds, 8)
    theta = np.zeros(4)
    tasks = np.full(8, 4)
    _, relative_error = coded_iteration(theta, 0.5 / ds.m, ngc, 0, tasks, partial_gradient(data, labels, theta))
    assert relative_error < 1e-12


def test_coded_iteration_recovers_for_every_straggler_triple():
    ds = make_dataset(32, 4, 0.1, seed=6)
    ngc = build_ngc(8, 3, seed=6)
    data, labels = partition(ds, 8)
    theta = np.full(4, 0.3)
    for stragglers in itertools.combinations(range(8), 3):
        tasks = np.full(8, 4)
        tasks[list(stragglers)] = 0
        _, relative_error = coded_iteration(theta, 0.5 / ds.m, ngc, 3, tasks, partial_gradient(data, labels, theta))
        assert relative_error < 1e-8


def test_coded_iteration_rejects_undecodable():
    ds = make_dataset(16, 2, 0.1, seed=7)
    ngc = build_ngc(8, 1, seed=7)
    data, labels = partition(ds, 8)
    theta = np.zeros(2)
    with pytest.raises(UndecodableIteration):
        coded_iteration(theta, 0.5 / ds.m, ngc, -1, np.zeros(8, int), partial_gradient(data, labels, theta))


@pytest.mark.parametrize("shape", [(2, 8), (7,)])
def test_coded_iteration_rejects_tasks_done_of_another_shape(shape):
    ds = make_dataset(16, 2, 0.1, seed=7)
    ngc = build_ngc(8, 1, seed=7)
    theta = np.zeros(2)
    gradients = partial_gradient(*partition(ds, 8), theta)
    with pytest.raises(ValueError, match=re.escape(f"tasks_done must be (8,), got {shape}")):
        coded_iteration(theta, 0.5 / ds.m, ngc, 1, np.full(shape, 2), gradients)


@pytest.mark.parametrize("sigma", [2, 8])
def test_coded_iteration_rejects_a_sigma_above_s_max(sigma):
    ds = make_dataset(16, 2, 0.1, seed=7)
    ngc = build_ngc(8, 1, seed=7)
    theta = np.zeros(2)
    gradients = partial_gradient(*partition(ds, 8), theta)
    with pytest.raises(ValueError, match=re.escape(f"sigma must be in [-1, 1], got {sigma}")):
        coded_iteration(theta, 0.5 / ds.m, ngc, sigma, np.full(8, 3), gradients)


def test_two_coded_steps_follow_plain_gradient_descent():
    ds = make_dataset(32, 4, 0.1, seed=8)
    ngc = build_ngc(8, 3, seed=8)
    eta = 0.1 * ds.m  # eta / m = 0.1
    quiet = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=8)
    coded = run_descent(ds, ngc, 2, eta, quiet, seed=8)
    plain = plain_descent(ds, 2, eta)
    for a, b in zip(coded.thetas, plain.thetas):
        assert np.abs(a - b).max() <= 1e-10


def test_run_descent_rejects_a_cluster_the_code_does_not_fit():
    ngc = codes.NestedGradientCode(seed=0, components=build_ngc(8, 3, 0).components)
    with pytest.raises(ValueError, match="^cluster has n=5 workers but code expects 8$"):
        run_descent(make_dataset(32, 4, 0.1, seed=0), ngc, 2, 1.0, dataclasses.replace(FIG_PARAMS, n=5), seed=0)


def test_run_descent_reaches_least_squares_optimum():
    ds = make_dataset(64, 8, 0.1, seed=9)
    ngc = build_ngc(8, 3, seed=9)
    eta = default_learning_rate(ds, 200)
    run = run_descent(ds, ngc, 200, eta, FIG_PARAMS, seed=9)
    theta_star, *_ = np.linalg.lstsq(ds.data, ds.labels, rcond=None)
    optimum = dataset_loss(ds, theta_star)
    assert abs(run.records[-1].loss - optimum) <= 1e-6
    assert max(r.recovery_error for r in run.records) < 1e-8


def test_run_descent_is_deterministic():
    ds = make_dataset(32, 4, 0.1, seed=10)
    ngc = build_ngc(8, 2, seed=10)
    eta = default_learning_rate(ds, 20)
    a = run_descent(ds, ngc, 20, eta, FIG_PARAMS, seed=10)
    b = run_descent(ds, ngc, 20, eta, FIG_PARAMS, seed=10)
    assert all(np.array_equal(x, y) for x, y in zip(a.thetas, b.thetas))
    assert a.records == b.records


def test_coded_and_plain_loss_sequences_agree():
    ds = make_dataset(48, 6, 0.2, seed=11)
    ngc = build_ngc(8, 3, seed=11)
    eta = default_learning_rate(ds, 100)
    coded = run_descent(ds, ngc, 100, eta, FIG_PARAMS, seed=11)
    plain = plain_descent(ds, 100, eta)
    rel = np.abs(coded.losses - plain.losses) / np.maximum(plain.losses, 1e-30)
    assert rel.max() <= 1e-8


def test_loss_is_nonincreasing_below_stability_threshold():
    ds = make_dataset(64, 8, 0.1, seed=12)
    ngc = build_ngc(8, 2, seed=12)
    run = run_descent(ds, ngc, 50, default_learning_rate(ds, 50), FIG_PARAMS, seed=12)
    losses = np.concatenate([[dataset_loss(ds, np.zeros(8))], run.losses])
    assert np.all(np.diff(losses) <= 1e-12)


def test_undecodable_iterations_are_resampled():
    ds = make_dataset(16, 3, 0.1, seed=13)
    ngc = build_ngc(4, 1, seed=13)
    flaky = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=4)
    run = run_descent(ds, ngc, 30, default_learning_rate(ds, 30), flaky, seed=13)
    assert sum(r.resamples for r in run.records) > 0
    assert max(r.recovery_error for r in run.records) < 1e-8


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset(np.zeros((4, 2)), np.zeros(3))
    with pytest.raises(ValueError):
        partition(make_dataset(8, 2, 0.1, seed=0), 0)


def test_a_worker_with_sigma_plus_one_tasks_holds_every_block_its_row_uses():
    # a worker's first sigma + 1 tasks are its window, so its response forms from those blocks alone
    ds = make_dataset(40, 3, 0.1, seed=14)
    ngc = build_ngc(8, 3, seed=14)
    theta = np.full(3, 0.2)
    gradients = partial_gradient(*partition(ds, 8), theta)
    for sigma in range(1, 4):
        tasks = np.full(8, sigma + 1)
        tasks[sigma] = sigma  # a straggler one task short of the layer
        b = ngc.components[sigma].dense()
        for i in np.flatnonzero(tasks >= sigma + 1):
            held = [gradients[j] if (j - i) % 8 < tasks[i] else None for j in range(8)]
            encode_response(b[i], held)  # MissingGradient if the row reads past the finished tasks
        _, relative_error = coded_iteration(theta, 0.1, ngc, sigma, tasks, gradients)
        assert relative_error < 1e-10


def stream_trials(cluster, s_max, seed):
    """Oracle: the ngc:s_max trials of the simulator's stream rule, one at a
    time, chunk c holding a full chunk drawn from SeedSequence([seed, c])."""
    scheme = Scheme("ngc", s_max)
    chunk = max(1, simulator.CHUNK_ELEMENTS // (cluster.n * (s_max + 1)))
    for c in itertools.count():
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        latency, sigma, tasks = kernel_trials(rng, scheme, cluster, chunk)
        for k in range(chunk):
            yield float(latency[k]), int(sigma[k]), tasks[k]


def oracle_outcomes(cluster, s_max, seed, iterations, max_resamples=1000):
    """Oracle: ((latency, sigma, tasks), resamples) of each iteration, iteration
    t being the (t + 1)-th decodable stream trial and its resamples the
    undecodable trials since the one before. Ends with (None, max_resamples + 1)
    at the first iteration that meets max_resamples + 1 undecodable trials in a row."""
    outcomes, run = [], 0
    for latency, sigma, tasks in stream_trials(cluster, s_max, seed):
        if sigma < 0:
            run += 1
            if run > max_resamples:
                return outcomes + [(None, run)]
            continue
        outcomes.append(((latency, sigma, tasks), run))
        run = 0
        if len(outcomes) == iterations:
            return outcomes


def reference_descent(ds, ngc, iterations, eta, cluster, seed):
    """Oracle: one update per outcome from per-block gradients, a fresh decoding
    row and per-worker responses over each worker's finished window."""
    n = ngc.n
    data, labels = partition(ds, n)
    theta = np.zeros(ds.c)
    thetas, records = [], []
    for (latency, sigma, tasks), _ in oracle_outcomes(cluster, ngc.s_max, seed, iterations):
        component = ngc.components[sigma]
        gradients = [partial_gradient(data[i], labels[i], theta) for i in range(n)]
        responsive = [i for i in range(n) if tasks[i] >= sigma + 1]
        coefficients = decode_row(component, responsive)
        decoded = np.zeros(ds.c)
        for i in responsive:
            available = [None] * n
            for r in range(int(tasks[i])):
                available[(i + r) % n] = gradients[(i + r) % n]
            decoded += coefficients[i] * encode_response(component.dense()[i], available)
        theta = theta - (eta / ds.m) * decoded
        thetas.append(theta)
        records.append((dataset_loss(ds, theta), sigma, latency))
    return thetas, records


def test_run_descent_matches_per_block_reference():
    ds = make_dataset(600, 8, 0.2, seed=15)
    ngc = build_ngc(12, 5, seed=15)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=12)
    eta = default_learning_rate(ds, 50)
    run = run_descent(ds, ngc, 50, eta, cluster, seed=15)
    thetas, records = reference_descent(ds, ngc, 50, eta, cluster, seed=15)
    assert [r.decoded_sigma for r in run.records] == [sigma for _, sigma, _ in records]
    assert [r.latency for r in run.records] == [latency for _, _, latency in records]
    assert len({r.decoded_sigma for r in run.records}) > 1
    losses = np.array([loss for loss, _, _ in records])
    assert np.all(np.abs(run.losses - losses) <= 1e-10 * losses)
    for a, b in zip(run.thetas, thetas):
        assert np.abs(a - b).max() <= 1e-12


def used_workers(n, sigma, tasks):
    """The workers a decoding at sigma uses: the n - sigma smallest responsive ones."""
    return np.flatnonzero(tasks >= sigma + 1)[:n - sigma]


def test_run_descent_solves_each_decoded_iteration_as_given(monkeypatch):
    calls, real = [], descent.decodings

    def counted(code, responsive):
        need = code.n - code.sigma
        calls.append((code.sigma, [frozenset(np.flatnonzero(row)[:need].tolist()) for row in responsive]))
        return real(code, responsive)

    monkeypatch.setattr(descent, "decodings", counted)
    ds = make_dataset(96, 4, 0.1, seed=16)
    ngc = build_ngc(12, 5, seed=16)
    factorisations, real_svd, solved, real_inv = [], codes.np.linalg.svd, [], codes.np.linalg.inv

    def counted_svd(*args, **kwargs):
        factorisations.append(1)
        return real_svd(*args, **kwargs)

    def counted_inv(blocks):
        solved.append(len(blocks))  # one sigma x sigma block per row solved
        return real_inv(blocks)

    monkeypatch.setattr(codes.np.linalg, "svd", counted_svd)
    monkeypatch.setattr(codes.np.linalg, "inv", counted_inv)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=12)
    run = run_descent(ds, ngc, 100, default_learning_rate(ds, 100), cluster, seed=16)
    expected = {}  # sigma -> the used set of each iteration decoded at it, in iteration order
    for (_, sigma, tasks), _ in oracle_outcomes(cluster, ngc.s_max, 16, len(run.records)):
        expected.setdefault(sigma, []).append(frozenset(used_workers(12, sigma, tasks).tolist()))
    assert len(calls) == len({sigma for sigma, _ in calls})  # at most one call per sigma
    assert dict(calls) == expected and sum(map(len, expected.values())) == len(run.records)
    assert any(len(set(sets)) < len(sets) for sets in expected.values())  # a used set repeats
    assert solved == [len(sets) for _, sets in calls]  # each row solved as given, repeats included
    assert len(calls) == len(factorisations) == len(expected)  # one call and one SVD per decoded sigma
    # a fresh run solves and factors its decodings again: the code keeps no factors between runs
    run_descent(ds, ngc, 100, default_learning_rate(ds, 100), cluster, seed=16)
    assert sum(solved) == 2 * len(run.records)
    assert len(calls) == len(factorisations) == 2 * len(expected)


@pytest.mark.parametrize("n, s_max, p_e", [(12, 5, 0.05), (64, 8, 0.02)])
def test_plan_rows_are_each_decoding_times_the_dense_matrix(n, s_max, p_e):
    # the row a B the plan holds has the bits of decode_row's a times the component's dense B,
    # taken as the (k, 1, n) stack the plan once formed itself
    ngc = build_ngc(n, s_max, seed=33)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=p_e, n=n)
    _, sigma, tasks, _ = descent._iteration_trials(cluster, s_max, 33, 150)
    rows = descent._plan(ngc, sigma, tasks)
    assert len(set(sigma.tolist())) > 2
    for s in set(sigma.tolist()):
        ts = np.flatnonzero(sigma == s)
        a = np.array([decode_row(ngc.components[s], np.flatnonzero(tasks[t] >= s + 1)) for t in ts])
        assert np.array_equal(rows[ts], (a[:, None] @ ngc.components[s].dense())[:, 0])


def test_run_descent_memory_does_not_grow_with_the_decoded_sigmas():
    # a dense n x n B held per decoded sigma would add n^2 doubles per sigma: 19 n^2 here
    n = 256
    ds = make_dataset(1024, 4, 0.1, seed=3)
    ngc = build_ngc(n, 24, seed=3)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=n)
    eta = default_learning_rate(ds, 200)
    tracemalloc.start()
    try:
        run = run_descent(ds, ngc, 200, eta, cluster, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len({r.decoded_sigma for r in run.records}) > 10  # 19 with these streams
    assert peak < 10 * 8 * n * n


@pytest.fixture(params=["chunk-rounds", "one-row-rounds"])
def round_rows(request, monkeypatch):
    """Stream chunks of the simulator's size, or of one trial each, so that
    every resample gap spans chunk boundaries."""
    if request.param == "one-row-rounds":
        monkeypatch.setattr(simulator, "CHUNK_ELEMENTS", 1)


@pytest.mark.parametrize("s_max", [0, 3, 5])
@pytest.mark.parametrize("p_e", [0.05, 0.3])
def test_run_descent_draws_the_per_iteration_streams(s_max, p_e, round_rows):
    ds = make_dataset(48, 3, 0.1, seed=17)
    ngc = build_ngc(12, s_max, seed=17)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=p_e, n=12)
    run = run_descent(ds, ngc, 40, default_learning_rate(ds, 40), cluster, seed=17)
    expected = oracle_outcomes(cluster, s_max, 17, 40)
    assert [r.decoded_sigma for r in run.records] == [sigma for (_, sigma, _), _ in expected]
    assert [r.latency for r in run.records] == [latency for (latency, _, _), _ in expected]
    assert [r.resamples for r in run.records] == [a for _, a in expected]
    if p_e == 0.3:
        assert sum(r.resamples for r in run.records) > 0


@pytest.mark.parametrize("s_max", [0, 3, 5])
@pytest.mark.parametrize("p_e", [0.05, 0.3])
def test_run_descent_iterates_the_decodable_trials_of_run_experiment(s_max, p_e):
    # one full chunk of run_experiment holds the first sum(decoded) iterations of a run
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=p_e, n=12)
    chunk = simulator.CHUNK_ELEMENTS // (12 * (s_max + 1))
    result = run_experiment(Scheme("ngc", s_max), chunk, 24, cluster, np.linspace(2.0, 18.0, 10))
    ds = make_dataset(48, 3, 0.1, seed=24)
    run = run_descent(ds, build_ngc(12, s_max, seed=24), sum(result.decoded), 0.1, cluster, seed=24)
    assert Counter(r.decoded_sigma for r in run.records) == {
        sigma: count for sigma, count in enumerate(result.decoded) if count}


def test_a_longer_run_starts_with_the_iterations_of_a_shorter_one():
    ds = make_dataset(48, 3, 0.1, seed=25)
    ngc = build_ngc(8, 1, seed=25)
    flaky = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=8)
    short = run_descent(ds, ngc, 300, 0.1, flaky, seed=25)
    long = run_descent(ds, ngc, 900, 0.1, flaky, seed=25)  # past the first chunk of 2048 trials
    assert long.records[:300] == short.records
    assert all(np.array_equal(a, b) for a, b in zip(long.thetas, short.thetas))


def coded_iteration_loop(ds, ngc, iterations, eta, cluster, seed):
    """Reference: one coded_iteration per oracle outcome, on the block gradients
    of run_descent's Gram form, with the loss of each new theta from
    run_descent's loss pass and the sigma and latency of the outcome."""
    expected = oracle_outcomes(cluster, ngc.s_max, seed, iterations)
    gram, moments = descent._block_moments(*partition(ds, ngc.n))
    theta, step = np.zeros(ds.c), eta / ds.m
    thetas, errors = [], []
    for (_, sigma, tasks), _ in expected:
        gradients = descent._gram_gradients(gram, moments, theta)
        theta, relative_error = coded_iteration(theta, step, ngc, sigma, tasks, gradients)
        thetas.append(theta)
        errors.append(relative_error)
    losses = descent._losses(ds, gram, moments, np.array(thetas)).tolist()
    return thetas, [IterationRecord(t, losses[t], errors[t], sigma, latency, resamples)
                    for t, ((latency, sigma, _), resamples) in enumerate(expected)]


@pytest.mark.parametrize("s_max", [0, 3, 5])
@pytest.mark.parametrize("p_e", [0.05, 0.3])
def test_run_descent_equals_one_coded_iteration_per_outcome(s_max, p_e, round_rows):
    for n, c in ((12, 4), (12, 1), (12, 3), (7, 3)):  # 60 rows split into 7 blocks end in padding
        ds = make_dataset(60, c, 0.2, seed=21)
        ngc = build_ngc(n, s_max, seed=21)
        cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=p_e, n=n)
        eta = default_learning_rate(ds, 40)
        run = run_descent(ds, ngc, 40, eta, cluster, seed=21)
        thetas, records = coded_iteration_loop(ds, ngc, 40, eta, cluster, seed=21)
        assert list(run.records) == records, (n, c)
        assert len(run.thetas) == len(thetas)
        assert all(np.array_equal(a, b) for a, b in zip(run.thetas, thetas)), (n, c)


def raised_by(call):
    """The exception type and message ``call()`` raises; fails if it returns."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


@pytest.fixture
def updates(monkeypatch):
    """Counts block-gradient products, one per update."""
    calls = []
    real = descent._gram_gradients

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(descent, "_gram_gradients", counted)
    return calls


@pytest.mark.parametrize("k", [1, 4, 15])
def test_run_descent_raises_the_first_failed_decoding_before_any_update(k, monkeypatch, updates):
    ds = make_dataset(48, 3, 0.1, seed=23)
    ngc = build_ngc(12, 5, seed=23)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=12)
    patterns = {}  # (sigma, stragglers) of each decoding, in the order the iterations first use them
    for (_, sigma, tasks), _ in oracle_outcomes(cluster, ngc.s_max, 23, 100):
        patterns.setdefault((sigma, tuple(sorted(set(range(12)) - set(used_workers(12, sigma, tasks).tolist())))),
                            len(patterns))
    assert len(patterns) > k
    real = descent.decodings

    def failing_from_pattern_k(code, responsive):
        # a NaN residual for the k-th new pattern, and one of its own for each later one, so that any
        # failure but the first in iteration order shows in the message
        a, ab, residuals = real(code, responsive)
        for i, row in enumerate(responsive):
            used = set(np.flatnonzero(row)[:code.n - code.sigma].tolist())
            index = patterns[code.sigma, tuple(sorted(set(range(code.n)) - used))]
            if index >= k - 1:
                residuals[i] = math.nan if index == k - 1 else 1.0 + index
        return a, ab, residuals

    monkeypatch.setattr(descent, "decodings", failing_from_pattern_k)
    expected = raised_by(lambda: coded_iteration_loop(ds, ngc, 100, 0.1, cluster, seed=23))
    assert expected == (NumericalFailure, "decode residual nan above 1e-08")
    updates.clear()
    assert raised_by(lambda: run_descent(ds, ngc, 100, 0.1, cluster, seed=23)) == expected
    assert updates == []


@pytest.mark.parametrize("max_resamples", [0, 1, 2])
def test_run_descent_gives_up_on_the_first_undecodable_iteration(max_resamples, round_rows, monkeypatch):
    ds = make_dataset(16, 2, 0.1, seed=18)
    ngc = build_ngc(8, 3, seed=18)
    flaky = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=8)
    expected = oracle_outcomes(flaky, 3, 18, 500, max_resamples)
    first = len(expected) - 1
    assert expected[first][0] is None
    assert first > 0  # earlier iterations decode, later ones are still pending
    monkeypatch.setattr(descent, "MAX_RESAMPLES", max_resamples)
    with pytest.raises(UndecodableIteration, match=f"^iteration {first}: .* in {max_resamples} resamples"):
        run_descent(ds, ngc, 500, 0.1, flaky, seed=18)


def test_run_descent_that_never_decodes_draws_few_streams(monkeypatch):
    ds = make_dataset(48, 3, 0.1, seed=19)
    ngc = build_ngc(12, 5, seed=19)
    dead = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=1.0, n=12)
    streams = []
    default_rng = np.random.default_rng

    def counted(seed):
        streams.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    with pytest.raises(UndecodableIteration, match="^iteration 0: no decodable draw in 1000 resamples"):
        run_descent(ds, ngc, 200, 0.1, dead, seed=19)
    # the 1001 undecodable trials of iteration 0 fill a few chunks: not 200 x 1001 streams
    chunk = simulator.CHUNK_ELEMENTS // (12 * 6)
    assert len(streams) <= math.ceil(1001 / chunk)


def test_run_descent_rejects_non_finite_or_non_positive_eta():
    ds = make_dataset(16, 2, 0.1, seed=20)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=4)
    for eta in (0.0, -0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="eta"):
            run_descent(ds, build_ngc(4, 1, seed=20), 5, eta, cluster, seed=20)


def test_make_dataset_rejects_empty_shapes_and_bad_noise():
    for m, c, noise in ((0, 2, 0.1), (4, 0, 0.1), (-1, 2, 0.1), (4, 2, float("nan")),
                        (4, 2, float("inf")), (4, 2, -0.1)):
        with pytest.raises(ValueError):
            make_dataset(m, c, noise, seed=0)
    assert make_dataset(1, 1, 0.0, seed=0).data.shape == (1, 1)


def test_gram_form_block_gradients_match_partial_gradient():
    # c = 8 exceeds the 3 rows of a block, and the last 8 of the 48 partitioned rows are zero padding
    ds = make_dataset(40, 8, 0.2, seed=26)
    data, labels = partition(ds, 16)
    assert data.shape == (16, 3, 8)
    theta = np.random.default_rng(26).standard_normal(8)
    gradients = descent._gram_gradients(*descent._block_moments(data, labels), theta)
    direct = partial_gradient(data, labels, theta)
    # either form rounds within a few c * size ulps of |X_i|^T (|X_i| |theta| + |y_i|)
    bound = (np.abs(data).transpose(0, 2, 1) @ (np.abs(data) @ np.abs(theta) + np.abs(labels))[..., None])[..., 0]
    assert np.all(np.abs(gradients - direct) <= 1e-12 * bound)
    assert np.all(gradients[14:] == 0.0) and np.all(direct[14:] == 0.0)  # blocks of padding alone


def bench_shape_run(iterations, seed=27):
    ds = make_dataset(4096, 32, 0.1, seed=seed)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=12)
    return ds, run_descent(ds, build_ngc(12, 5, seed=seed), iterations, default_learning_rate(ds, 200), cluster,
                           seed=seed)


def test_recorded_losses_are_the_dataset_losses_of_the_thetas():
    ds, run = bench_shape_run(37)
    for record, theta in zip(run.records, run.thetas):
        exact = dataset_loss(ds, theta)
        assert abs(record.loss - exact) <= 1e-12 * exact


def test_a_rows_loss_does_not_depend_on_the_run_length():
    _, short = bench_shape_run(37)
    _, long = bench_shape_run(75)
    assert long.records[:37] == short.records
    assert all(np.array_equal(a, b) for a, b in zip(long.thetas, short.thetas))
    _, one = bench_shape_run(1)  # numpy takes a (1, c) product to another BLAS routine than a (k, c) one
    assert long.records[:1] == one.records


LOSS_SHAPES = {  # name -> (n, s_max, m, c, iterations, p_e, noise)
    "bench": (12, 5, 4096, 32, 200, 0.05, 0.1),
    "5-iterations": (12, 5, 4096, 32, 5, 0.05, 0.1),
    "m64-c8": (8, 3, 64, 8, 200, 0.05, 0.1),
    "m256-c16-n64": (64, 8, 256, 16, 200, 0.05, 0.1),
    "m4096-c16-n64": (64, 8, 4096, 16, 200, 0.05, 0.1),
    "m8-c32-singular": (8, 3, 8, 32, 200, 0.05, 0.1),
    "pe0.3": (12, 5, 4096, 32, 200, 0.3, 0.1),
    "noise0": (12, 5, 4096, 32, 200, 0.05, 0.0),
}


@pytest.mark.parametrize("shape", LOSS_SHAPES.values(), ids=LOSS_SHAPES.keys())
def test_expanded_losses_match_the_direct_dataset_loss(shape):
    n, s_max, m, c, iterations, p_e, noise = shape
    ds = make_dataset(m, c, noise, seed=32)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=p_e, n=n)
    run = run_descent(ds, build_ngc(n, s_max, seed=32), iterations, default_learning_rate(ds, iterations), cluster,
                      seed=32)
    direct = np.array([dataset_loss(ds, theta) for theta in run.thetas])
    start = dataset_loss(ds, np.zeros(c))
    error = np.abs(run.losses - direct)
    assert error.max() <= 1e-13 * start
    above = direct > 1e-6 * start  # the relative error of a loss near the rounding floor says nothing
    assert above.any()
    assert np.all(error[above] <= 1e-12 * direct[above])


@pytest.mark.parametrize("m, c, iterations, eta, noise, seed", [
    (64, 8, 30, 1e300, 0.1, 42), (8, 2, 1, None, 1e300, 3), (64, 8, 30, None, 1e300, 42)],
    ids=["eta1e300", "noise1e300", "noise1e300-m64"])
def test_a_non_finite_loss_is_the_direct_dataset_loss(m, c, iterations, eta, noise, seed):
    # gd-demo runs whose losses overflow. The expansion's inf or nan gives way to the direct form's: at m=64 the
    # expansion reads nan where the direct form reads inf
    ds = make_dataset(m, c, noise, seed=seed)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8)
    with np.errstate(over="ignore", invalid="ignore"):
        run = run_descent(ds, build_ngc(8, 3, seed=seed), iterations, eta or default_learning_rate(ds, iterations),
                          cluster, seed=seed)
        direct = np.array([dataset_loss(ds, theta) for theta in run.thetas])
    assert not np.isfinite(direct).all()
    assert np.array_equal(np.isfinite(run.losses), np.isfinite(direct))
    assert np.array_equal(run.losses[~np.isfinite(direct)], direct[~np.isfinite(direct)], equal_nan=True)


@pytest.mark.parametrize("m, c, n", [
    (48, 3, 12),     # m % n = 0
    (4096, 32, 12),  # 11 whole blocks of 342 rows and one partial block of 334
    (61, 4, 12),     # one partial block of 1 row, then an all-zero block
    (50, 3, 12),     # whole blocks, then two all-zero blocks
    (5, 3, 4),       # two whole blocks, a 1-row block and an all-zero block
    (5, 3, 16),      # m < n: five 1-row blocks, then eleven all-zero blocks
    (60, 16, 7),     # c = 16 exceeds the 9 rows of a block; the last block holds 6
    (7, 2, 1),       # one block
])
def test_moments_from_the_dataset_in_place_equal_the_partitioned_moments(m, c, n):
    ds = make_dataset(m, c, 0.3, seed=m + c + n)
    expected = descent._block_moments(*partition(ds, n))
    for got, want in zip(descent._dataset_moments(ds, n), expected):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def full_chunk_trials(cluster, s_max, seed, iterations, chunks):
    """Oracle: ``_iteration_trials``' columns, read from whole decided chunks with no decodable quota;
    the size of each chunk read is appended to ``chunks``."""
    columns = (np.empty(iterations), np.empty(iterations, int), np.empty((iterations, cluster.n), int),
               np.empty(iterations, int))
    done, run = 0, 0
    for latency, sigma, times in simulator._decided_chunks(Scheme("ngc", s_max), cluster, seed):
        tasks = np.sum(times <= latency[:, None], axis=0)  # an undecodable trial is never read
        chunks.append(sigma.size)
        ok = np.flatnonzero(sigma >= 0)[:iterations - done]
        gaps = np.diff(ok, prepend=-1, append=sigma.size)[:iterations - done] - 1
        gaps[0] += run
        if (gaps > descent.MAX_RESAMPLES).any():
            raise UndecodableIteration(f"iteration {done + int(np.argmax(gaps > descent.MAX_RESAMPLES))}: "
                                       f"no decodable draw in {descent.MAX_RESAMPLES} resamples")
        for column, values in zip(columns, (latency[ok], sigma[ok], tasks[ok], gaps[:ok.size])):
            column[done:done + ok.size] = values
        done, run = done + ok.size, gaps[-1]
        if done == iterations:
            return columns


def raised_or_returned(call):
    try:
        return call()
    except UndecodableIteration as exc:
        return str(exc)


@pytest.mark.parametrize("s_max, p_e, chunk_elements, iterations", [
    *[(s_max, p_e, 2**9, 300) for s_max in (0, 1, 5) for p_e in (0.05, 0.3, 0.6)],
    (0, 0.05, None, 3000), (1, 0.05, None, 3000), (5, 0.3, None, 3000),  # the simulator's own chunk size
])
def test_descent_trials_equal_those_of_whole_decided_chunks(s_max, p_e, chunk_elements, iterations, monkeypatch):
    if chunk_elements:
        monkeypatch.setattr(simulator, "CHUNK_ELEMENTS", chunk_elements)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=p_e, n=12)
    chunks = []
    expected = raised_or_returned(lambda: full_chunk_trials(cluster, s_max, 41, iterations, chunks))
    got = raised_or_returned(lambda: descent._iteration_trials(cluster, s_max, 41, iterations))
    assert len(chunks) >= 3
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str)
        for a, b in zip(got, expected):  # latency, sigma, tasks, resamples
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("s_max", [0, 2, 5])
def test_a_cluster_that_never_decodes_gives_up_as_the_whole_chunk_reader_and_draws_no_waits(s_max, monkeypatch):
    dead = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=1.0, n=12)
    expected = raised_or_returned(lambda: full_chunk_trials(dead, s_max, 19, 200, []))
    assert expected == "iteration 0: no decodable draw in 1000 resamples"
    waits = []
    default_rng = np.random.default_rng

    class Counted:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def random(self, size=None, out=None):
            return self.rng.random(size, out=out)

        def standard_exponential(self, size=None, out=None):
            waits.append(np.size(out) if size is None else math.prod(size))
            return self.rng.standard_exponential(size, out=out)

    monkeypatch.setattr(np.random, "default_rng", Counted)
    assert raised_or_returned(lambda: descent._iteration_trials(dead, s_max, 19, 200)) == expected
    assert waits and sum(waits) == 0
