import itertools

import numpy as np
import pytest

import ngcodes.descent as descent
from ngcodes.codes import (
    EncodingMatrix,
    MissingGradient,
    NestedGradientCode,
    build_ngc,
    decode_row,
    encode_response,
    identity_encoding,
)
from ngcodes.descent import (
    DataBlock,
    Dataset,
    DescentState,
    UndecodableIteration,
    coded_iteration,
    dataset_loss,
    make_dataset,
    partial_gradient,
    partition,
    plain_descent,
    run_descent,
    default_learning_rate,
)
from ngcodes.latency import ClusterParams
from ngcodes.simulator import IterationOutcome, simulate_ngc_iteration

FIG_PARAMS = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8)


def block_loss(block, theta):
    residual = block.data @ theta - block.labels
    return 0.5 * float(residual @ residual)


def finite_difference_gradient(block, theta, h=1e-6):
    """Oracle: central differences of the block loss."""
    grad = np.zeros_like(theta)
    for j in range(theta.size):
        plus, minus = theta.copy(), theta.copy()
        plus[j] += h
        minus[j] -= h
        grad[j] = (block_loss(block, plus) - block_loss(block, minus)) / (2 * h)
    return grad


def outcome_for(tasks_done, sigma, kappa=0, latency=1.0):
    return IterationOutcome(
        latency=latency, decoded_sigma=sigma, tasks_done=np.asarray(tasks_done), kappa=kappa
    )


def test_partition_one_row_blocks():
    ds = make_dataset(8, 3, 0.1, seed=0)
    blocks = partition(ds, 8)
    assert blocks.data.shape == (8, 1, 3) and blocks.labels.shape == (8, 1)
    assert np.array_equal(blocks.data.reshape(-1, 3), ds.data)


def test_partition_pads_with_zero_rows():
    ds = make_dataset(10, 3, 0.1, seed=1)
    blocks = partition(ds, 8)
    stacked = blocks.data.reshape(-1, 3)
    labels = blocks.labels.reshape(-1)
    assert stacked.shape == (16, 3)
    assert blocks.data.shape == (8, 2, 3)
    assert np.array_equal(stacked[:10], ds.data)
    assert np.all(stacked[10:] == 0.0) and np.all(labels[10:] == 0.0)
    # padded rows contribute nothing to the gradient sum
    theta = np.ones(3)
    total = partial_gradient(blocks, theta).sum(axis=0)
    direct = ds.data.T @ (ds.data @ theta - ds.labels)
    assert np.allclose(total, direct, atol=1e-12)


def test_partial_gradient_closed_form():
    blocks = partition(Dataset(np.array([[1.0, 0.0]]), np.array([1.0])), 1)
    block = DataBlock(blocks.data[0], blocks.labels[0])
    assert np.array_equal(partial_gradient(block, np.zeros(2)), np.array([-1.0, 0.0]))
    assert np.array_equal(partial_gradient(blocks, np.zeros(2)), np.array([[-1.0, 0.0]]))


def test_gradient_sum_vanishes_at_least_squares_solution():
    ds = make_dataset(40, 5, 0.3, seed=2)
    theta_star, *_ = np.linalg.lstsq(ds.data, ds.labels, rcond=None)
    blocks = partition(ds, 8)
    total = partial_gradient(blocks, theta_star).sum(axis=0)
    assert np.abs(total).max() <= 1e-8


def test_partial_gradient_matches_finite_differences():
    ds = make_dataset(24, 4, 0.2, seed=3)
    rng = np.random.default_rng(4)
    theta = rng.standard_normal(4)
    blocks = partition(ds, 8)
    stacked = partial_gradient(blocks, theta)
    for i in range(8):
        exact = stacked[i]
        approx = finite_difference_gradient(DataBlock(blocks.data[i], blocks.labels[i]), theta)
        scale = max(1.0, np.abs(exact).max())
        assert np.abs(exact - approx).max() / scale <= 1e-5


def test_coded_iteration_identity_component_is_exact():
    ds = make_dataset(32, 4, 0.1, seed=5)
    ngc = build_ngc(8, 3, seed=5)
    blocks = partition(ds, 8)
    state = DescentState(theta=np.zeros(4), eta=0.5, iteration=0)
    outcome = outcome_for([4, 4, 4, 4, 4, 4, 4, 4], sigma=0)
    _, report = coded_iteration(state, ngc, outcome, partial_gradient(blocks, state.theta), ds.m)
    assert report.relative_error < 1e-12


def test_coded_iteration_recovers_for_every_straggler_triple():
    ds = make_dataset(32, 4, 0.1, seed=6)
    ngc = build_ngc(8, 3, seed=6)
    blocks = partition(ds, 8)
    state = DescentState(theta=np.full(4, 0.3), eta=0.5, iteration=0)
    for stragglers in itertools.combinations(range(8), 3):
        tasks = np.full(8, 4)
        tasks[list(stragglers)] = 0
        outcome = outcome_for(tasks, sigma=3)
        _, report = coded_iteration(state, ngc, outcome, partial_gradient(blocks, state.theta), ds.m)
        assert report.relative_error < 1e-8


def test_coded_iteration_rejects_undecodable():
    ds = make_dataset(16, 2, 0.1, seed=7)
    ngc = build_ngc(8, 1, seed=7)
    blocks = partition(ds, 8)
    state = DescentState(theta=np.zeros(2), eta=0.5, iteration=0)
    outcome = IterationOutcome(latency=None, decoded_sigma=None, tasks_done=np.zeros(8, int), kappa=3)
    with pytest.raises(UndecodableIteration):
        coded_iteration(state, ngc, outcome, partial_gradient(blocks, state.theta), ds.m)


def test_two_coded_steps_follow_plain_gradient_descent():
    ds = make_dataset(32, 4, 0.1, seed=8)
    ngc = build_ngc(8, 3, seed=8)
    eta = 0.1 * ds.m  # eta / m = 0.1
    quiet = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=8)
    coded = run_descent(ds, ngc, 2, eta, quiet, seed=8)
    plain = plain_descent(ds, 2, eta)
    for a, b in zip(coded.thetas, plain.thetas):
        assert np.abs(a - b).max() <= 1e-10


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


def reach_past_window_code():
    """n=4 family whose sigma=1 row 0 uses block 2, two blocks past worker 0's
    own: decodable (rows 0, 1, 2 sum to ones) but needing worker 0's third task."""
    rows = np.array([[1.0, 0.0, 1.0, 0.0],
                     [0.0, 1.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 1.0],
                     [1.0, 0.0, 0.0, 1.0]])
    return NestedGradientCode(n=4, s_max=1, seed=0,
                              components=(identity_encoding(4), EncodingMatrix(rows, sigma=1)))


def test_coded_iteration_rejects_row_past_finished_window():
    ds = make_dataset(16, 3, 0.1, seed=14)
    ngc = reach_past_window_code()
    state = DescentState(theta=np.full(3, 0.2), eta=0.5, iteration=0)
    gradients = partial_gradient(partition(ds, 4), state.theta)
    with pytest.raises(MissingGradient):
        coded_iteration(state, ngc, outcome_for([2, 2, 2, 2], sigma=1), gradients, ds.m)
    # a decoding already solved for this responsive set is checked again
    decoders = {}
    _, report = coded_iteration(state, ngc, outcome_for([3, 2, 2, 2], sigma=1), gradients, ds.m,
                                decoders)
    assert report.relative_error < 1e-12
    with pytest.raises(MissingGradient):
        coded_iteration(state, ngc, outcome_for([2, 2, 2, 2], sigma=1), gradients, ds.m, decoders)


def oracle_outcome(cluster, s_max, seed, iteration, max_resamples=1000):
    """Oracle: iteration t resampled one stream at a time, attempt a drawing from
    SeedSequence([seed, t, a]) through the one-trial simulator. Returns the first
    decodable outcome and its attempt, or None when no attempt decodes."""
    for attempt in range(max_resamples + 1):
        rng = np.random.default_rng(np.random.SeedSequence([seed, iteration, attempt]))
        outcome = simulate_ngc_iteration(rng, s_max, cluster)
        if outcome.decoded_sigma is not None:
            return outcome, attempt
    return None, max_resamples + 1


def reference_descent(ds, ngc, iterations, eta, cluster, seed):
    """Oracle: one update per outcome from per-block gradients, a fresh decoding
    row and per-worker responses over each worker's finished window."""
    n = ngc.n
    blocks = partition(ds, n)
    theta = np.zeros(ds.c)
    thetas, records = [], []
    for t in range(iterations):
        outcome, _ = oracle_outcome(cluster, ngc.s_max, seed, t)
        sigma = outcome.decoded_sigma
        component = ngc.components[sigma]
        gradients = [partial_gradient(DataBlock(blocks.data[i], blocks.labels[i]), theta)
                     for i in range(n)]
        row = decode_row(component, [i for i in range(n) if outcome.tasks_done[i] >= sigma + 1])
        decoded = np.zeros(ds.c)
        for i in sorted(row.responsive_set):
            available = [None] * n
            for r in range(int(outcome.tasks_done[i])):
                available[(i + r) % n] = gradients[(i + r) % n]
            decoded += row.coefficients[i] * encode_response(component.entries[i], available)
        theta = theta - (eta / ds.m) * decoded
        thetas.append(theta)
        records.append((dataset_loss(ds, theta), sigma, float(outcome.latency)))
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


def test_run_descent_decodes_each_responsive_set_once(monkeypatch):
    calls = []

    def counted(code, responsive_set, *args, **kwargs):
        calls.append((code.sigma, frozenset(int(i) for i in responsive_set)))
        return decode_row(code, responsive_set, *args, **kwargs)

    monkeypatch.setattr(descent, "decode_row", counted)
    ds = make_dataset(96, 4, 0.1, seed=16)
    ngc = build_ngc(12, 5, seed=16)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=12)
    run = run_descent(ds, ngc, 100, default_learning_rate(ds, 100), cluster, seed=16)
    keys = set()
    for t, record in enumerate(run.records):
        outcome, _ = oracle_outcome(cluster, ngc.s_max, 16, t)
        sigma = outcome.decoded_sigma
        keys.add((sigma, frozenset(np.flatnonzero(outcome.tasks_done >= sigma + 1).tolist())))
    assert len(calls) == len(set(calls)) == len(keys) < len(run.records)
    assert set(calls) == keys
    # a fresh run solves its decodings again: nothing is kept between runs
    run_descent(ds, ngc, 100, default_learning_rate(ds, 100), cluster, seed=16)
    assert len(calls) == 2 * len(keys)


@pytest.fixture(params=["chunk-rounds", "one-row-rounds"])
def round_rows(request, monkeypatch):
    """Draw rounds of up to a simulator chunk of iterations, or of one each."""
    if request.param == "one-row-rounds":
        monkeypatch.setattr(descent, "CHUNK_ELEMENTS", 1)


@pytest.mark.parametrize("s_max", [0, 3, 5])
@pytest.mark.parametrize("p_e", [0.05, 0.3])
def test_run_descent_draws_the_per_iteration_streams(s_max, p_e, round_rows):
    ds = make_dataset(48, 3, 0.1, seed=17)
    ngc = build_ngc(12, s_max, seed=17)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=p_e, n=12)
    run = run_descent(ds, ngc, 40, default_learning_rate(ds, 40), cluster, seed=17)
    expected = [oracle_outcome(cluster, s_max, 17, t) for t in range(40)]
    assert [r.decoded_sigma for r in run.records] == [o.decoded_sigma for o, _ in expected]
    assert [r.latency for r in run.records] == [o.latency for o, _ in expected]
    assert [r.resamples for r in run.records] == [a for _, a in expected]
    if p_e == 0.3:
        assert sum(r.resamples for r in run.records) > 0


@pytest.mark.parametrize("max_resamples", [0, 1, 2])
def test_run_descent_gives_up_on_the_first_undecodable_iteration(max_resamples, round_rows):
    ds = make_dataset(16, 2, 0.1, seed=18)
    ngc = build_ngc(8, 3, seed=18)
    flaky = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.3, n=8)
    first = next(t for t in range(500) if oracle_outcome(flaky, 3, 18, t, max_resamples)[0] is None)
    assert first > 0  # earlier iterations decode, later ones are still pending
    with pytest.raises(UndecodableIteration, match=f"^iteration {first}: .* in {max_resamples} resamples"):
        run_descent(ds, ngc, 500, 0.1, flaky, seed=18, max_resamples=max_resamples)


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
    # one round over the 200 iterations, then iteration 0 alone: not 200 x 1001 streams
    assert len(streams) <= 200 + 1000


def test_run_descent_rejects_negative_max_resamples():
    ds = make_dataset(16, 2, 0.1, seed=20)
    cluster = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=4)
    with pytest.raises(ValueError, match="max_resamples"):
        run_descent(ds, build_ngc(4, 1, seed=20), 5, 0.1, cluster, seed=20, max_resamples=-1)


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
