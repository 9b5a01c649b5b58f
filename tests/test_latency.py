import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ngcodes.latency import (
    ClusterParams,
    InvalidParams,
    LatencyCurve,
    Scheme,
    _binom_pmf,
    _layer_cdf,
    _stirling_errors,
    latency_curve,
    parse_scheme,
)
from ngcodes.simulator import run_experiment
from reference import _zero_shift_reach, ngc_latency_cdf_zero_shift

FIG_PARAMS = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8)


def mc_latency_cdf(ts, kind, tolerance, p, trials, seed, chunk=100_000):
    """Oracle: vectorized Monte Carlo over worker traces, independent of both
    the analytic evaluators and the per-trial simulator module."""
    rng = np.random.default_rng(seed)
    u_max = tolerance + 1
    hits = np.zeros(len(ts))
    remaining = trials
    while remaining:
        batch = min(chunk, remaining)
        alive = rng.random((batch, p.n)) >= p.p_e
        waits = rng.exponential(1.0 / p.lam, size=(batch, p.n, u_max))
        times = np.cumsum(waits, axis=2) + p.gamma + p.eps + p.rho * np.arange(1, u_max + 1)
        times[~alive] = np.inf
        ordered = np.sort(times, axis=1)
        if kind == "gc":
            latency = ordered[:, p.n - tolerance - 1, u_max - 1]
        else:
            latency = np.full(batch, np.inf)
            for u in range(1, u_max + 1):
                latency = np.minimum(latency, ordered[:, p.n - u, u - 1])
        hits += (latency[:, None] <= ts[None, :]).sum(axis=0)
        remaining -= batch
    return hits / trials


def dkw_band(trials, confidence=0.99):
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * trials))


def exact_cdf(scheme, ts, p):
    """Oracle: brute-force sum over every joint per-worker state, each worker
    failed or done with exactly 0..u_max tasks (u_max meaning all of them),
    of the probability that an allowed layer has its quorum."""
    u_max = scheme.tolerance + 1
    layers = range(1, u_max + 1) if scheme.kind == "ngc" else [u_max]
    reach = [np.ones(len(ts))]
    reach += [_layer_cdf(u, ts, p) for u in range(1, u_max + 1)]
    reach.append(np.zeros(len(ts)))
    # row 0: failed; row 1 + u: alive with exactly u tasks done
    state_prob = np.vstack([np.full(len(ts), p.p_e), -(1.0 - p.p_e) * np.diff(reach, axis=0)])
    states = np.array(list(itertools.product(range(-1, u_max + 1), repeat=p.n)))
    decodable = np.zeros(len(states), dtype=bool)
    for u in layers:
        decodable |= (states >= u).sum(axis=1) >= p.n - u + 1
    prob = np.ones((int(decodable.sum()), len(ts)))
    for worker in range(p.n):
        prob *= state_prob[states[decodable, worker] + 1]
    return prob.sum(axis=0)


def test_task_cdf_zero_at_support_boundary():
    p = ClusterParams(lam=2.0, rho=0.7, gamma=0.3, eps=0.2, p_e=0.0, n=4)
    boundary = p.gamma + p.eps + p.rho
    assert _layer_cdf(1, np.array([boundary]), p)[0] == 0.0
    assert _layer_cdf(1, np.array([boundary - 0.5]), p)[0] == 0.0


def test_task_cdf_exponential_median():
    p = ClusterParams(lam=2.0, rho=0.7, gamma=0.3, eps=0.2, p_e=0.0, n=4)
    t = p.gamma + p.eps + p.rho + math.log(2.0) / p.lam
    assert abs(_layer_cdf(1, np.array([t]), p)[0] - 0.5) < 1e-12


def test_task_cdf_against_sampled_erlang():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=4)
    value = _layer_cdf(3, np.array([10.0]), p)[0]
    assert 0.0 < value < 1.0
    rng = np.random.default_rng(99)
    shift = p.gamma + p.eps + 3 * p.rho
    samples = shift + rng.gamma(shape=3, scale=1.0 / p.lam, size=1_000_000)
    assert abs(value - np.mean(samples <= 10.0)) <= 0.002


def test_task_cdf_decreasing_in_task_count():
    values = [_layer_cdf(u, np.array([6.0]), FIG_PARAMS)[0] for u in range(1, 8)]
    assert all(a >= b for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(0.05, 5.0),
    rho=st.floats(0.0, 2.0),
    gamma=st.floats(0.0, 2.0),
    eps=st.floats(0.0, 1.0),
    u=st.integers(1, 12),
    t=st.floats(-5.0, 60.0),
)
def test_task_cdf_matches_scipy_gamma(lam, rho, gamma, eps, u, t):
    p = ClusterParams(lam=lam, rho=rho, gamma=gamma, eps=eps, p_e=0.0, n=4)
    shift = gamma + eps + u * rho
    expected = scipy.stats.gamma.cdf(t - shift, a=u, scale=1.0 / lam)
    assert abs(_layer_cdf(u, np.array([t]), p)[0] - expected) < 1e-10


def test_task_cdf_keeps_its_digits_deep_in_the_left_tail():
    # taken as 1 - survival, F_256 read 2.8e-14 at t=150 and 0 at t=100 and t=200
    p = ClusterParams(lam=0.5, rho=0.0, gamma=0.0, eps=0.1, p_e=0.05, n=256)
    ts = np.array([100.0, 150.0, 200.0])
    expected = scipy.stats.gamma.cdf(ts - p.eps, a=256, scale=1.0 / p.lam)
    assert np.all(np.abs(_layer_cdf(256, ts, p) / expected - 1.0) < 1e-10)


@settings(max_examples=60, deadline=None)
@given(u=st.integers(1, 1024), fraction=st.floats(0.001, 1.0, exclude_max=True))
def test_task_cdf_below_its_mean_matches_scipy_in_relative_terms(u, fraction):
    # x = lam * (t - shift) below u is where F_u is the small side
    p = ClusterParams(lam=0.5, rho=0.0, gamma=0.0, eps=0.0, p_e=0.0, n=1)
    t = 2.0 * u * fraction
    expected = scipy.stats.gamma.cdf(t, a=u, scale=2.0)
    assume(expected > 1e-300)
    assert abs(_layer_cdf(u, np.array([t]), p)[0] / expected - 1.0) < 1e-10


def binom_pmf(kappa, n, p_e):
    """P(exactly kappa of n workers fail), from the engine's saddle-point binomial."""
    return float(_binom_pmf(n, np.array([kappa]), np.array([p_e]), _stirling_errors(n))[0, 0])


def test_failure_pmf_values():
    assert abs(binom_pmf(0, 8, 0.05) - 0.95**8) < 1e-15
    assert binom_pmf(0, 8, 0.0) == 1.0
    expected = math.comb(8, 3) * 0.05**3 * 0.95**5
    assert abs(binom_pmf(3, 8, 0.05) - expected) < 1e-15
    assert abs(sum(binom_pmf(k, 8, 0.23) for k in range(9)) - 1.0) < 1e-12
    assert abs(binom_pmf(5, 11, 0.3) - scipy.stats.binom.pmf(5, 11, 0.3)) < 1e-12
    for kappa in (55, 275, 550):  # binomial coefficients beyond the float range
        expected = scipy.stats.binom.pmf(kappa, 1100, 0.25)
        assert abs(binom_pmf(kappa, 1100, 0.25) - expected) <= 1e-12 * expected


def test_a_size_per_value_gives_the_bits_of_one_size_at_a_time():
    stirling = _stirling_errors(12)
    p = np.array([0.0, 0.05, 0.5, 1.0])
    sizes = np.array([0, 3, 3, 3, 3, 12, 12, 12])
    j = np.array([0, 0, 1, 2, 3, 0, 7, 12])
    got = _binom_pmf(sizes, j, p, stirling)
    for row, (size, value) in enumerate(zip(sizes.tolist(), j.tolist())):
        assert got[row].tobytes() == _binom_pmf(size, np.array([value]), p, stirling)[0].tobytes(), (size, value)


def test_gc_terminal_probability():
    p_sure = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.0, n=8)
    assert abs(latency_curve(Scheme("gc", 0), [1e3], p_sure).values[0] - 1.0) < 1e-12
    assert abs(latency_curve(Scheme("gc", 0), [1e3], FIG_PARAMS).values[0] - 0.95**8) < 1e-4
    for sigma in (1, 3, 6):
        expected = scipy.stats.binom.cdf(sigma, 8, 0.05)
        assert abs(latency_curve(Scheme("gc", sigma), [1e6], FIG_PARAMS).values[0] - expected) < 1e-12


def test_ngc_terminal_probability():
    for s_max in (1, 3, 6):
        expected = scipy.stats.binom.cdf(s_max, 8, 0.05)
        assert abs(latency_curve(Scheme("ngc", s_max), [1e6], FIG_PARAMS).values[0] - expected) < 1e-12


def test_ngc_with_single_component_equals_gc():
    ts = np.linspace(0.0, 20.0, 41)
    ngc = latency_curve(Scheme("ngc", 0), ts, FIG_PARAMS).values
    assert np.abs(ngc - latency_curve(Scheme("gc", 0), ts, FIG_PARAMS).values).max() < 1e-12


def test_gc_matches_monte_carlo():
    ts = np.linspace(2.0, 18.0, 17)
    emp = mc_latency_cdf(ts, "gc", 3, FIG_PARAMS, trials=200_000, seed=5)
    ana = latency_curve(Scheme("gc", 3), ts, FIG_PARAMS).values
    assert np.abs(ana - emp).max() <= 0.01


def test_ngc_matches_monte_carlo():
    ts = np.linspace(2.0, 18.0, 17)
    emp = mc_latency_cdf(ts, "ngc", 3, FIG_PARAMS, trials=200_000, seed=6)
    ana = latency_curve(Scheme("ngc", 3), ts, FIG_PARAMS).values
    assert np.abs(ana - emp).max() <= 0.01


def test_gamma_is_a_pure_time_shift():
    shifted = ClusterParams(lam=0.5, rho=0.5, gamma=2.0, eps=0.1, p_e=0.05, n=8)
    grid = np.linspace(2.0, 18.0, 50)
    base = latency_curve(Scheme("ngc", 3), grid, FIG_PARAMS).values
    moved = latency_curve(Scheme("ngc", 3), grid + 2.0, shifted).values
    assert np.abs(base - moved).max() <= 1e-12


def test_ngc_matches_monte_carlo_at_larger_n():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=12)
    ts = np.linspace(3.0, 16.0, 8)
    emp = mc_latency_cdf(ts, "ngc", 8, p, trials=100_000, seed=23)
    ana = latency_curve(Scheme("ngc", 8), ts, p).values
    assert np.abs(ana - emp).max() <= 0.01


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_latency_curve_matches_exhaustive_state_sum(n):
    ts = np.array([-1.0, 0.8, 1.5, 3.0, 6.0, 1e6, np.inf])
    schemes = [Scheme("uncoded")] + [Scheme(k, s) for k in ("gc", "ngc") for s in range(n)]
    for scheme, rho, p_e in itertools.product(schemes, (0.0, 0.5), (0.0, 0.3, 1.0)):
        p = ClusterParams(lam=0.8, rho=rho, gamma=0.2, eps=0.1, p_e=p_e, n=n)
        gap = np.abs(latency_curve(scheme, ts, p).values - exact_cdf(scheme, ts, p)).max()
        assert gap <= 1e-12, (scheme.label, rho, p_e, gap)


def test_gc_matches_scipy_binomial_tail_at_large_n():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=1024)
    sigma = 128
    ts = np.linspace(9.0, 366.0, 100)
    q = (1.0 - p.p_e) * _layer_cdf(sigma + 1, ts, p)
    expected = scipy.stats.binom.sf(p.n - sigma - 1, p.n, q)
    assert np.abs(latency_curve(Scheme("gc", sigma), ts, p).values - expected).max() <= 1e-12


def test_ngc_matches_monte_carlo_at_n64():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=64)
    ts = np.linspace(8.0, 40.0, 17)
    trials = 20_000
    emp = mc_latency_cdf(ts, "ngc", 31, p, trials=trials, seed=64, chunk=1_000)
    ana = latency_curve(Scheme("ngc", 31), ts, p).values
    assert np.abs(ana - emp).max() <= dkw_band(trials)


def dense_binom_pmf(size, j, p, stirling):
    """Reference: ``_binom_pmf`` as it stood with a fresh temporary per step."""
    def deviance(x, m):
        d = x - m
        return x * np.log1p(d / m) - d

    col = j[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pmf = (
            stirling[size] - stirling[col] - stirling[size - col]
            - deviance(col, size * p) - deviance(size - col, size * (1.0 - p))
            - 0.5 * np.log(2 * math.pi * col * (size - col) / size)
        )
        log_pmf[j == 0] = size * np.log1p(-p) if size else 0.0
        log_pmf[j == size] = size * np.log(p) if size else 0.0
    return np.exp(log_pmf)


def dense_decode_cdf(reach, layers, p):
    """Reference: the quorum recursion down the layers, as ``_decode_cdf`` stood
    before it walked upward: given N_v at the allowed layer above, the next
    lower one adds Bin(n - N_v, (q_u - q_v) / (1 - q_v)), and every count
    0..n - u evaluates all n - k + 1 binomial terms."""
    n = p.n
    q = (1.0 - p.p_e) * reach
    stirling = _stirling_errors(n)
    decoded = np.zeros(q.shape[1])
    mass = np.ones((1, q.shape[1]))
    above = np.zeros(q.shape[1])
    for u, q_u in zip(reversed(layers), q[::-1]):
        with np.errstate(divide="ignore", invalid="ignore"):
            r = np.clip(np.nan_to_num((q_u - above) / (1.0 - above)), 0.0, 1.0)
        keep = n - u + 1
        lower = np.zeros((keep, q.shape[1]))
        for k in range(mass.shape[0]):
            joint = mass[k] * dense_binom_pmf(n - k, np.arange(n - k + 1), r, stirling)
            lower[k:] += joint[: keep - k]
            decoded += joint[keep - k :].sum(axis=0)
        mass, above = lower, q_u
    return np.clip(decoded, 0.0, 1.0)


def assert_matches_dense(scheme, ts, got, expected, where):
    """uncoded and gc bit for bit; ngc within 1e-13 relative wherever the
    reference is above 1e-300, and bit for bit where it is exactly 0 or 1 at
    t = -1, 1e6 and inf."""
    if scheme.kind != "ngc":
        assert got.tobytes() == expected.tobytes(), where
        return
    big = expected > 1e-300
    gap = np.abs(got - expected)
    assert (gap[big] <= 1e-13 * expected[big]).all(), (where, (gap[big] / expected[big]).max())
    exact = np.isin(ts, [-1.0, 1e6, np.inf]) & np.isin(expected, [0.0, 1.0])
    assert (got[exact] == expected[exact]).all(), where


def bitwise_schemes(n):
    if n <= 14:
        return [Scheme("uncoded")] + [Scheme(k, s) for k in ("gc", "ngc") for s in range(n)]
    if n == 64:
        return [Scheme("gc", 8), Scheme("ngc", 4)]
    return [Scheme("uncoded"), Scheme("gc", n // 8)]


def bitwise_grid(scheme, p):
    """-1, every layer shift, points across the rise of the top layer, 1e6 and inf."""
    shifts = [p.gamma + p.eps + u * p.rho for u in scheme.layers]
    top = p.gamma + p.eps + (scheme.tolerance + 1) * (p.rho + 1.0 / p.lam)
    return np.unique([-1.0, *shifts, *np.linspace(0.25 * top, 1.5 * top, 12), 1e6, np.inf])


@pytest.mark.parametrize("n", [1, 2, 4, 8, 14, 64, 256, 1024])
def test_latency_curve_is_bit_identical_to_the_dense_engine(n):
    for scheme, rho, p_e in itertools.product(bitwise_schemes(n), (0.0, 0.5), (0.0, 0.05, 0.3, 1.0)):
        p = ClusterParams(lam=0.5, rho=rho, gamma=0.2, eps=0.1, p_e=p_e, n=n)
        ts = bitwise_grid(scheme, p)
        reach = np.stack([_layer_cdf(u, ts, p) for u in scheme.layers])
        expected = dense_decode_cdf(reach, scheme.layers, p)
        assert_matches_dense(scheme, ts, latency_curve(scheme, ts, p).values, expected, (scheme.label, rho, p_e))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 14])
def test_zero_shift_route_is_bit_identical_to_the_dense_engine(n):
    for s_max, p_e in itertools.product(range(n), (0.05, 1.0)):
        p = ClusterParams(lam=0.5, rho=0.0, gamma=0.2, eps=0.1, p_e=p_e, n=n)
        ts = np.array([-1.0, p.gamma + p.eps, 2.0, 4.0 * (s_max + 1), 1e6, np.inf])
        got = np.array([ngc_latency_cdf_zero_shift(t, s_max, p) for t in ts])
        expected = np.concatenate([dense_decode_cdf(_zero_shift_reach(np.array([t]), s_max, p),
                                                    list(range(1, s_max + 2)), p) for t in ts])
        assert_matches_dense(Scheme("ngc", s_max), ts, got, expected, (s_max, p_e))


@pytest.mark.parametrize("n, s_max", [(128, 16), (256, 32)])
def test_ngc_matches_the_dense_engine_at_large_n(n, s_max):
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=n)
    scheme = Scheme("ngc", s_max)
    top = p.gamma + p.eps + (s_max + 1) * (p.rho + 1.0 / p.lam)  # the top layer's mean finish time
    ts = np.linspace(0.25 * top, 1.5 * top, 5)  # across the rise, from about 1e-4 to 1 - 1e-6
    reach = np.stack([_layer_cdf(u, ts, p) for u in scheme.layers])
    expected = dense_decode_cdf(reach, scheme.layers, p)
    assert (expected > 1e-300).all()
    assert_matches_dense(scheme, ts, latency_curve(scheme, ts, p).values, expected, (n, s_max))


@pytest.mark.parametrize("budget", ["one term", "two counts"])
@pytest.mark.parametrize("n", [8, 14, 32])
def test_every_block_split_gives_the_bits_of_the_default_split(n, budget, monkeypatch):
    # the benchmark's sizes never reach these splits: one live count per call,
    # and two per call on every layer that has more
    per_call = []  # live counts per call: a size per value holds one distinct size per count

    def recording(size, j, p, stirling):
        per_call.append(len(set(np.atleast_1d(size).tolist())))
        return _binom_pmf(size, j, p, stirling)

    for s_max, p_e in itertools.product(range(n), (0.0, 0.05, 1.0)):
        p = ClusterParams(lam=0.5, rho=0.5, gamma=0.2, eps=0.1, p_e=p_e, n=n)
        scheme = Scheme("ngc", s_max)
        ts = bitwise_grid(scheme, p)
        expected = latency_curve(scheme, ts, p).values
        with monkeypatch.context() as patch:
            patch.setattr("ngcodes.latency._binom_pmf", recording)
            patch.setattr("ngcodes.latency.BLOCK_TERMS", 1 if budget == "one term" else 2 * (s_max + 1) * len(ts))
            assert latency_curve(scheme, ts, p).values.tobytes() == expected.tobytes(), (s_max, p_e)
    assert max(per_call) == (1 if budget == "one term" else 2)


def multinomial_cdf(scheme, ts, p):
    """Oracle: the sum of multinomial weights over the worker levels. Each
    worker sits at a level j = 0..u_max, its tasks done capped at u_max (a
    failed worker at 0), with probability q_j - q_{j+1}, where q_j = (1 - p_e)
    F_j(t), q_0 = 1 and q_{u_max + 1} = 0. Every composition of n into level
    counts is enumerated; those whose N_u (the workers at levels >= u) reach
    the quorum n - u + 1 of some allowed layer are summed, with weights from
    lgamma in log space, 0 log 0 counted as 0, and ``math.fsum``."""
    n, u_max = p.n, scheme.tolerance + 1
    q = [np.ones(len(ts))] + [(1.0 - p.p_e) * _layer_cdf(u, ts, p) for u in range(1, u_max + 1)]
    levels = np.array(q) - np.array(q[1:] + [np.zeros(len(ts))])  # (u_max + 1, grid)
    # N_{u_max} <= ... <= N_1 <= n, one composition each
    reached = np.array(list(itertools.combinations_with_replacement(range(n + 1), u_max)))[:, ::-1]
    bounds = np.hstack([np.full((len(reached), 1), n), reached, np.zeros((len(reached), 1), dtype=int)])
    quorums = np.array([n - u + 1 for u in range(1, u_max + 1)])
    allowed = np.array([u in scheme.layers for u in range(1, u_max + 1)])
    counts = -np.diff(bounds[((reached >= quorums) & allowed).any(axis=1)], axis=1)  # (compositions, u_max + 1)
    log_coef = math.lgamma(n + 1) - np.vectorize(math.lgamma)(counts + 1.0).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_levels = np.where(counts[:, :, None] > 0, counts[:, :, None] * np.log(levels)[None], 0.0)
    weights = np.exp(log_coef[:, None] + log_levels.sum(axis=1))
    return np.array([math.fsum(column) for column in weights.T])


@pytest.mark.parametrize("n, s_max", [(16, 3), (32, 3), (64, 3), (128, 2)])
def test_latency_curve_matches_the_multinomial_oracle(n, s_max):
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=n)
    ts = np.linspace(2.0, 18.0, 9)
    for scheme in (Scheme("ngc", s_max), Scheme("gc", s_max)):
        expected = multinomial_cdf(scheme, ts, p)
        big = expected > 1e-300
        assert big.sum() >= 5, scheme.label
        gap = np.abs(latency_curve(scheme, ts, p).values - expected)
        assert (gap[big] <= 1e-12 * expected[big]).all(), (scheme.label, (gap[big] / expected[big]).max())


def test_latency_curve_memory_stays_bounded_at_large_n():
    # one block budget per call and O(s_max) per grid point take 0.5 MB here; a block
    # budget that traded memory for speed would not fit
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=256)
    tracemalloc.start()
    try:
        latency_curve(Scheme("ngc", 32), np.linspace(10.0, 60.0, 100), p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_zero_shift_requires_rho_zero():
    with pytest.raises(InvalidParams):
        ngc_latency_cdf_zero_shift(5.0, 2, FIG_PARAMS)


def test_zero_shift_zero_before_offset():
    p = ClusterParams(lam=1.0, rho=0.0, gamma=0.4, eps=0.2, p_e=0.0, n=6)
    assert ngc_latency_cdf_zero_shift(p.gamma + p.eps, 2, p) == 0.0
    assert ngc_latency_cdf_zero_shift(0.1, 2, p) == 0.0


def test_zero_shift_matches_general_evaluator():
    for n, s_max, p_e in [(4, 1, 0.0), (6, 2, 0.1), (8, 4, 0.05)]:
        p = ClusterParams(lam=1.3, rho=0.0, gamma=0.4, eps=0.2, p_e=p_e, n=n)
        ts = np.linspace(0.0, 12.0, 100)
        for t, general in zip(ts, latency_curve(Scheme("ngc", s_max), ts, p).values):
            special = ngc_latency_cdf_zero_shift(t, s_max, p)
            assert abs(general - special) <= 1e-9


def test_zero_shift_layers_keep_their_digits_deep_in_the_left_tail():
    # 1 - cumsum of the Poisson terms reads 0, 1.1e-16, 0, 0 for F_32 at t = 1, 2, 4, 8
    p = ClusterParams(lam=0.5, rho=0.0, gamma=0.0, eps=0.1, p_e=0.05, n=64)
    ts = np.array([1.0, 2.0, 4.0, 8.0, 30.0, 64.0, 100.0])
    reach = _zero_shift_reach(ts, 31, p)
    for u in range(1, 33):
        expected = scipy.stats.gamma.cdf(ts - p.eps, a=u, scale=1.0 / p.lam)
        assert np.all(np.abs(reach[u - 1] / expected - 1.0) < 1e-10)


def test_zero_shift_matches_monte_carlo():
    p = ClusterParams(lam=1.0, rho=0.0, gamma=0.4, eps=0.2, p_e=0.0, n=6)
    t = p.gamma + p.eps + 5.0
    value = ngc_latency_cdf_zero_shift(t, 2, p)
    emp = mc_latency_cdf(np.array([t]), "ngc", 2, p, trials=1_000_000, seed=17)[0]
    assert abs(value - emp) <= 0.003


def test_ngc_nondecreasing_in_tolerance_without_signaling():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.0, p_e=0.05, n=8)
    ts = np.linspace(0.5, 20.0, 40)
    previous = np.zeros_like(ts)
    for s_max in range(6):
        current = latency_curve(Scheme("ngc", s_max), ts, p).values
        assert np.all(current >= previous - 1e-12)
        previous = current


def test_ngc_dominates_gc_at_equal_tolerance_without_signaling():
    p = ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.0, p_e=0.05, n=8)
    ts = np.linspace(0.5, 20.0, 80)
    ngc = latency_curve(Scheme("ngc", 3), ts, p).values
    assert np.all(ngc >= latency_curve(Scheme("gc", 3), ts, p).values - 1e-12)


def test_ngc_dominates_gc_with_shared_signaling_cost():
    # signaling charged identically to both schemes keeps the ordering
    ts = np.linspace(0.5, 20.0, 200)
    ngc = latency_curve(Scheme("ngc", 3), ts, FIG_PARAMS).values
    assert np.all(ngc >= latency_curve(Scheme("gc", 3), ts, FIG_PARAMS).values - 1e-12)


def test_curves_monotone_and_bounded():
    grid = np.linspace(0.0, 25.0, 400)
    for scheme in (Scheme("uncoded"), Scheme("gc", 4), Scheme("ngc", 4)):
        curve = latency_curve(scheme, grid, FIG_PARAMS)
        assert np.all(curve.values >= 0.0) and np.all(curve.values <= 1.0)
        assert np.all(np.diff(curve.values) >= -1e-12)


def test_uncoded_curve_reaches_asymptote():
    grid = np.linspace(2.0, 100.0, 50)
    curve = latency_curve(Scheme("uncoded"), grid, FIG_PARAMS)
    assert abs(curve.values[-1] - 0.95**8) <= 1e-4


def test_close_tolerances_have_close_curves():
    grid = np.linspace(2.0, 18.0, 100)
    four = latency_curve(Scheme("ngc", 4), grid, FIG_PARAMS)
    six = latency_curve(Scheme("ngc", 6), grid, FIG_PARAMS)
    assert np.abs(four.values - six.values).max() < 0.02


def test_latency_curve_rejects_bad_grid():
    with pytest.raises(InvalidParams):
        latency_curve(Scheme("uncoded"), np.array([1.0, 1.0, 2.0]), FIG_PARAMS)
    with pytest.raises(InvalidParams):
        latency_curve(Scheme("gc", 9), np.array([1.0, 2.0]), FIG_PARAMS)


@pytest.mark.parametrize("grid", [[], [[1.0, 2.0], [3.0, 4.0]], [1.0, 2.0, 2.0, 3.0],
                                  [1.0, math.nan, 3.0], [math.nan]],
                         ids=["empty", "2-d", "repeated", "nan-inside", "nan"])
def test_analytic_and_simulated_curves_reject_the_same_bad_grids(grid):
    with pytest.raises(InvalidParams):
        latency_curve(Scheme("ngc", 3), grid, FIG_PARAMS)
    with pytest.raises(InvalidParams):
        run_experiment(Scheme("ngc", 3), 10, 0, FIG_PARAMS, grid)
    with pytest.raises(InvalidParams):
        LatencyCurve(grid, np.zeros(np.shape(grid)))


def test_latency_curve_validates_values():
    with pytest.raises(InvalidParams):
        LatencyCurve(np.array([0.0, 1.0]), np.array([0.5, 0.2]))
    with pytest.raises(InvalidParams):
        LatencyCurve(np.array([0.0, 1.0]), np.array([0.5, 1.5]))


def test_scheme_parsing():
    assert parse_scheme("uncoded") == Scheme("uncoded")
    assert parse_scheme("gc:3") == Scheme("gc", 3)
    assert parse_scheme("ngc:6") == Scheme("ngc", 6)
    assert parse_scheme("ngc:6").label == "ngc:6"
    for bad in ("gc", "gc:x", "foo:1", "ngc:-2"):
        with pytest.raises(InvalidParams):
            parse_scheme(bad)


def test_cluster_params_validation():
    with pytest.raises(InvalidParams):
        ClusterParams(lam=0.0, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8)
    with pytest.raises(InvalidParams):
        ClusterParams(lam=0.5, rho=-0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8)
    with pytest.raises(InvalidParams):
        ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=1.05, n=8)
    with pytest.raises(InvalidParams):
        ClusterParams(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=0)
    for field in ("lam", "rho", "gamma", "eps"):
        for value in (math.nan, math.inf):
            fields = dict(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8)
            fields[field] = value
            with pytest.raises(InvalidParams):
                ClusterParams(**fields)
    # finite parameters whose task times overflow
    for overflow in (dict(lam=5e-324), dict(rho=1e308, eps=1e308), dict(rho=1e308),
                     dict(rho=1e307, eps=1.7e308), dict(gamma=1e308, eps=1e308), dict(lam=3e-308)):
        fields = {**dict(lam=0.5, rho=0.5, gamma=0.0, eps=0.1, p_e=0.05, n=8), **overflow}
        with pytest.raises(InvalidParams):
            ClusterParams(**fields)


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(2, 8),
    lam=st.floats(0.1, 3.0),
    rho=st.floats(0.0, 1.5),
    eps=st.floats(0.0, 0.5),
    p_e=st.floats(0.0, 0.4),
    data=st.data(),
)
def test_cdfs_are_proper_on_random_parameters(n, lam, rho, eps, p_e, data):
    p = ClusterParams(lam=lam, rho=rho, gamma=0.0, eps=eps, p_e=p_e, n=n)
    tolerance = data.draw(st.integers(0, n - 1))
    ts = np.linspace(0.0, 30.0, 60)
    gc_vals = latency_curve(Scheme("gc", tolerance), ts, p).values
    ngc_vals = latency_curve(Scheme("ngc", tolerance), ts, p).values
    for values in (gc_vals, ngc_vals):
        assert np.all(values >= 0.0) and np.all(values <= 1.0)
        assert np.all(np.diff(values) >= -1e-12)
