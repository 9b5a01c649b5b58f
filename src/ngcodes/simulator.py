"""Monte Carlo simulation of coded gradient-descent iterations.

One array kernel serves every scheme. Its draw (``_draw``) gives each worker's
failure flag and the standard exponential waits of its tasks for a batch of
trials; ``_finish_times`` turns them into finish times under the
shifted-exponential model (infinite for a failed worker), storing only the
tasks of the layers the scheme may decode at (``Scheme.layers``): one column
for gc and uncoded, every column for ngc. Its decision (``_decide``) takes,
per trial, the earliest moment at which one of those layers has its quorum of
n - u + 1 workers with u tasks done. An infinite latency is exactly "more
workers failed than the scheme tolerates". The decision reads each trial's
finish times alone, so coded descent decides trials drawn from per-iteration
streams in the same call.

Stream contract: ``run_experiment`` splits the trials into chunks of
max(1, 2**15 // (n * u_max)) trials, u_max being the largest layer, and
chunk c draws from ``default_rng(SeedSequence([seed, c]))``. Results are a
function of (scheme, trials, seed, cluster) alone, and distinct seeds give
independent streams. Load statistics come from a histogram of the tasks done,
so ``run_experiment`` holds O(trials + chunk) memory: the latencies and one
chunk of draws.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latency import ClusterParams, InvalidParams, LatencyCurve, Scheme, _check_tolerance

CHUNK_ELEMENTS = 2**15  # finish times drawn per chunk; bounds the kernel's memory


@dataclass(frozen=True)
class IterationOutcome:
    """Result of one simulated iteration.

    ``latency`` and ``decoded_sigma`` are None when more workers failed than
    the scheme tolerates. ``tasks_done`` counts completed tasks per worker at
    the moment the iteration stopped (all assigned tasks when it never could).
    """

    latency: float | None
    decoded_sigma: int | None
    tasks_done: np.ndarray
    kappa: int


def _finish_times(p: ClusterParams, uniforms: np.ndarray, waits: np.ndarray, layers):
    """Alive flags (trials, n) and the finish times of the tasks numbered
    ``layers`` (ascending), layer-major as (len(layers), trials, n), from
    uniforms (trials, n) and standard exponential waits (trials, n,
    layers[-1]); ``waits`` is scaled in place.

    A worker is alive when its uniform is at least p_e; task u ends at
    gamma + eps + u * rho plus the first u waits scaled by 1/lam, and never
    (inf) on a failed worker. One running sum walks the task axis in cumsum's
    order, so each stored time equals the cumsum-based one bit for bit.
    """
    alive = uniforms >= p.p_e
    waits *= 1.0 / p.lam  # equals rng.exponential(1/lam) bit for bit
    shifts = p.gamma + p.eps + p.rho * np.arange(1, waits.shape[2] + 1)
    running = np.where(alive, waits[:, :, 0], math.inf)  # a failed worker's sum stays inf
    times = np.empty((len(layers), *alive.shape))
    summed = 1  # tasks in the running sum
    for k, u in enumerate(layers):
        for r in range(summed, u):
            running += waits[:, :, r]
        summed = u
        np.add(running, shifts[u - 1], out=times[k])
    return alive, times


def _draw(rng: np.random.Generator, p: ClusterParams, trials: int, layers):
    """Alive flags (trials, n) and finish times (len(layers), trials, n) of the
    tasks numbered ``layers``, inf when failed; draws waits for layers[-1] tasks."""
    uniforms = rng.random((trials, p.n))
    return _finish_times(p, uniforms, rng.standard_exponential((trials, p.n, layers[-1])), layers)


def _decide(scheme: Scheme, p: ClusterParams, alive: np.ndarray, times: np.ndarray):
    """Per-trial latency, decoded sigma (-1 if none) and tasks done (trials, n)
    from drawn alive flags and the finish times of ``scheme.layers``.

    The nested scheme stops every worker at the latency, so it counts the tasks
    finished by then; fixed-load schemes count all u_max tasks of every alive
    worker (u_max = the largest layer). Ties between layers go to the smaller
    one. Each trial is decided from its own row alone. The caller checks the
    tolerance against n.
    """
    layers = np.array(scheme.layers)
    order = np.sort(times, axis=2)
    quorum = order[np.arange(layers.size), :, p.n - layers]  # (layers, trials)
    best = np.argmin(quorum, axis=0)
    latency = quorum[best, np.arange(quorum.shape[1])]
    sigma = np.where(np.isinf(latency), -1, layers[best] - 1)
    if scheme.kind == "ngc":
        tasks = np.zeros(alive.shape, dtype=np.intp)
        for column in times:
            tasks += column <= latency[:, None]
        tasks *= alive  # an undecodable trial (latency inf) would count failed workers
    else:
        tasks = int(layers[-1]) * alive
    return latency, sigma, tasks


def _simulate(rng: np.random.Generator, scheme: Scheme, p: ClusterParams, trials: int):
    """``_decide`` on ``trials`` fresh draws from ``rng``, and the failures of each."""
    _check_tolerance(scheme, p)
    alive, times = _draw(rng, p, trials, scheme.layers)
    return *_decide(scheme, p, alive, times), p.n - alive.sum(axis=1)


def simulate_ngc_iteration(rng: np.random.Generator, s_max: int, p: ClusterParams) -> IterationOutcome:
    """One nested-scheme iteration: stop at the first layer reaching quorum.

    Layer u (u = 1..s_max+1) is decodable once n - u + 1 alive workers have
    finished u tasks; the latency is the earliest such moment and the component
    used is sigma = u - 1, ties resolved toward the smaller tolerance.
    """
    latency, sigma, tasks, kappa = _simulate(rng, Scheme("ngc", s_max), p, 1)
    if math.isinf(latency[0]):
        return IterationOutcome(None, None, tasks[0], int(kappa[0]))
    return IterationOutcome(float(latency[0]), int(sigma[0]), tasks[0], int(kappa[0]))


@dataclass(frozen=True)
class LoadStats:
    mean_load: float
    p95_load: float
    undecodable_rate: float


@dataclass(frozen=True)
class ExperimentResult:
    curve: LatencyCurve
    loads: LoadStats
    decoded: tuple[int, ...]  # trials decoded at sigma = 0, 1, ..., tolerance
    undecodable: int          # trials no layer of the scheme could decode


def run_experiment(scheme: Scheme, trials: int, seed: int, p: ClusterParams, grid) -> ExperimentResult:
    """Empirical latency CDF, load statistics and decode counts per sigma over
    independent trials.

    Undecodable trials count as infinite latency (never <= t). Deterministic
    for fixed (seed, trials): chunk c of the trials owns the stream
    ``SeedSequence([seed, c])``.
    """
    if trials < 1:
        raise InvalidParams(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise InvalidParams("seed must be a non-negative integer")
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1 or (ts.size >= 2 and not np.all(np.diff(ts) > 0)):
        raise InvalidParams("grid must be a non-empty strictly increasing 1-d array")

    _check_tolerance(scheme, p)
    u_max = scheme.tolerance + 1
    chunk = max(1, CHUNK_ELEMENTS // (p.n * u_max))
    latencies = np.empty(trials)
    counts = np.zeros(u_max + 1, dtype=np.int64)  # [undecodable, decoded at sigma = 0, 1, ...]
    loads = np.zeros(u_max + 1, dtype=np.int64)   # workers that finished 0, 1, ..., u_max tasks
    for c, start in enumerate(range(0, trials, chunk)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        stop = min(start + chunk, trials)
        latencies[start:stop], sigma, tasks = _decide(scheme, p, *_draw(rng, p, stop - start, scheme.layers))
        counts += np.bincount(sigma + 1, minlength=u_max + 1)
        loads += np.bincount(tasks.ravel(), minlength=u_max + 1)

    ordered = np.sort(latencies)
    values = np.searchsorted(ordered, ts, side="right") / trials
    curve = LatencyCurve(grid=ts, values=values, label=scheme.label)
    stats = LoadStats(
        mean_load=int(loads @ np.arange(u_max + 1)) / (trials * p.n),
        p95_load=_percentile(loads, 95),
        undecodable_rate=int(counts[0]) / trials,
    )
    return ExperimentResult(curve=curve, loads=stats, decoded=tuple(counts[1:].tolist()),
                            undecodable=int(counts[0]))


def _percentile(histogram: np.ndarray, q: float) -> float:
    """``np.percentile(samples, q)`` (numpy's default "linear" rule) of the
    integer samples whose value v occurs ``histogram[v]`` times."""
    cumulative = np.cumsum(histogram)
    h = (int(cumulative[-1]) - 1) * (q / 100)
    below = math.floor(h)
    a, b = np.searchsorted(cumulative, [below, min(below + 1, cumulative[-1] - 1)], side="right")
    g = h - below
    d = int(b - a)
    return float(a + d * g) if g < 0.5 else float(b - d * (1 - g))
