"""Monte Carlo simulation of coded gradient-descent iterations.

One array kernel serves every scheme. Its draw (``_draw``) gives each worker's
failure flag and the standard exponential waits of its tasks for a batch of
trials; ``_finish_times`` turns them into finish times under the
shifted-exponential model (infinite for a failed worker), storing only the
tasks of the layers the scheme may decode at (``Scheme.layers``): one column
for gc and uncoded, every column for ngc. Its decision (``_decide``) takes,
per trial, the earliest moment at which one of those layers has its quorum of
n - u + 1 workers with u tasks done, and gives each trial as (latency, sigma,
tasks done per worker). An infinite latency, with sigma -1, is exactly "more
workers failed than the scheme tolerates".

Stream rule: trials come in chunks of max(1, 2**15 // (n * u_max)) trials,
u_max being the largest layer, and chunk c draws from
``default_rng(SeedSequence([seed, c]))``. This module alone draws:
``run_experiment`` reads the first ``trials`` trials, and coded descent reads
the decodable ngc trials as its iterations. A reader may stop inside a chunk:
its uniforms are still drawn in full, its waits only up to the last trial read
(descent reads no waits of an undecodable trial). Results are a function of
(scheme, trials, seed, cluster) alone, and distinct seeds give independent
streams. ``run_experiment`` returns the curve, the mean and 95th-percentile
tasks done by a worker in a trial, and the trials decoded at each sigma and at
none (a rate is such a count over ``trials``). The loads come from a histogram
of the tasks done, so ``run_experiment`` holds O(trials + chunk) memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latency import ClusterParams, InvalidParams, LatencyCurve, Scheme, _check_grid, _check_tolerance

CHUNK_ELEMENTS = 2**15  # finish times drawn per chunk; bounds the kernel's memory


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


def _draw(rng: np.random.Generator, p: ClusterParams, trials: int, layers, tolerance=0, decodable=math.inf):
    """Alive flags (trials, n) and finish times (len(layers), trials, n) of the tasks numbered ``layers``, inf
    when failed; draws waits for layers[-1] tasks. With ``decodable`` the trials end at the ``decodable``-th
    one with at most ``tolerance`` failed workers, and only those up to it draw waits: the trials after the
    last such one wait 0, which does not change their decision."""
    uniforms, read = rng.random((trials, p.n)), trials
    if decodable < math.inf:
        ok = np.flatnonzero((uniforms < p.p_e).sum(axis=1) <= tolerance)[:decodable]
        read = int(ok[-1]) + 1 if ok.size else 0
        uniforms = uniforms if ok.size < decodable else uniforms[:read]
    waits = np.empty((len(uniforms), p.n, layers[-1]))
    rng.standard_exponential(out=waits[:read])  # numpy's waits of `read` trials begin a whole chunk's
    waits[read:] = 0
    return _finish_times(p, uniforms, waits, layers)


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
    if layers.size == 1:  # gc, uncoded and ngc:0: one layer, nothing to choose
        latency, decoded = quorum[0], layers[0] - 1
    else:
        best = np.argmin(quorum, axis=0)
        latency, decoded = quorum[best, np.arange(quorum.shape[1])], layers[best] - 1
    sigma = np.where(np.isinf(latency), -1, decoded)
    if scheme.kind == "ngc":
        tasks = np.zeros(alive.shape, dtype=np.intp)
        for column in times:
            tasks += column <= latency[:, None]
        tasks *= alive  # an undecodable trial (latency inf) would count failed workers
    else:
        tasks = int(layers[-1]) * alive
    return latency, sigma, tasks


def _decided_chunks(scheme: Scheme, p: ClusterParams, seed: int, trials: float = math.inf, decodable: float = math.inf):
    """``_decide`` on chunk c = 0, 1, ... of the stream rule, ending after
    ``trials`` trials or at the ``decodable``-th that decodes (``_draw``);
    without either the chunks never end."""
    _check_tolerance(scheme, p)
    chunk, c = max(1, CHUNK_ELEMENTS // (p.n * scheme.layers[-1])), 0
    while c * chunk < trials and decodable > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        decided = _decide(scheme, p, *_draw(rng, p, min(chunk, trials - c * chunk), scheme.layers,
                                            scheme.tolerance, decodable))
        decodable -= np.count_nonzero(decided[1] >= 0) if decodable < math.inf else 0
        yield decided
        c += 1


def simulate_ngc_iteration(rng: np.random.Generator, s_max: int, p: ClusterParams) -> tuple[float, int, np.ndarray]:
    """One nested-scheme iteration: stop at the first layer reaching quorum.

    Layer u (u = 1..s_max+1) is decodable once n - u + 1 alive workers have
    finished u tasks; the latency is the earliest such moment and the component
    used is sigma = u - 1, ties resolved toward the smaller tolerance. Returns
    ``_decide``'s row for the trial, (latency, sigma, tasks done per worker):
    (inf, -1, every alive worker's tasks) when more workers failed than s_max.
    """
    scheme = Scheme("ngc", s_max)
    _check_tolerance(scheme, p)
    (latency,), (sigma,), (tasks,) = _decide(scheme, p, *_draw(rng, p, 1, scheme.layers))
    return float(latency), int(sigma), tasks


@dataclass(frozen=True)
class ExperimentResult:
    curve: LatencyCurve
    mean_load: float          # mean tasks done by one worker in one trial
    p95_load: float           # their 95th percentile
    decoded: tuple[int, ...]  # trials decoded at sigma = 0, 1, ..., tolerance
    undecodable: int          # trials no layer of the scheme could decode


def run_experiment(scheme: Scheme, trials: int, seed: int, p: ClusterParams, grid) -> ExperimentResult:
    """Empirical latency CDF, mean and 95th-percentile load, and decode counts
    per sigma and of undecodable trials, over independent trials.

    Undecodable trials count as infinite latency (never <= t). Deterministic
    for fixed (seed, trials): the first ``trials`` trials of the stream rule.
    """
    if trials < 1:
        raise InvalidParams(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise InvalidParams("seed must be a non-negative integer")
    ts = _check_grid(grid)
    _check_tolerance(scheme, p)  # before allocating, as _decided_chunks checks only on its first draw
    u_max = scheme.tolerance + 1
    latencies = np.empty(trials)
    counts = np.zeros(u_max + 1, dtype=np.int64)  # [undecodable, decoded at sigma = 0, 1, ...]
    loads = np.zeros(u_max + 1, dtype=np.int64)   # workers that finished 0, 1, ..., u_max tasks
    start = 0
    for latency, sigma, tasks in _decided_chunks(scheme, p, seed, trials):
        latencies[start:start + latency.size] = latency
        start += latency.size
        counts += np.bincount(sigma + 1, minlength=u_max + 1)
        loads += np.bincount(tasks.ravel(), minlength=u_max + 1)

    ordered = np.sort(latencies)
    values = np.searchsorted(ordered, ts, side="right") / trials
    return ExperimentResult(
        curve=LatencyCurve(grid=ts, values=values),
        mean_load=int(loads @ np.arange(u_max + 1)) / (trials * p.n),
        p95_load=_percentile(loads, 95),
        decoded=tuple(counts[1:].tolist()),
        undecodable=int(counts[0]),
    )


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
