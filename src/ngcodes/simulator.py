"""Monte Carlo simulation of coded gradient-descent iterations.

One array kernel serves every scheme. Its draw (``_draw``) gives each worker's
failure flag and the standard exponential waits of its tasks for a batch of
trials; ``_finish_times`` turns them into finish times under the
shifted-exponential model (infinite for a failed worker), storing only the
tasks of the layers the scheme may decode at (``Scheme.layers``): one column
for gc and uncoded, every column for ngc. Its decision (``_decide``) takes,
per trial, the earliest moment at which one of those layers has its quorum of
n - u + 1 workers with u tasks done, and gives each trial's (latency, sigma).
An infinite latency, with sigma -1, is exactly "more workers failed than the
scheme tolerates". A worker has done the tasks of the layers it finished by
``_stop``.

Stream rule: trials come in chunks of max(1, 2**15 // (n * u_max)) trials,
u_max being the largest layer, and chunk c draws from
``default_rng(SeedSequence([seed, c]))``. This module alone draws:
``_decided_chunks`` yields each chunk's (latency, sigma, finish times),
``run_experiment`` reads the first ``trials`` trials, and coded descent reads
the decodable ngc trials as its iterations. A reader may stop inside a chunk:
its uniforms are still drawn in full, its waits only up to the last trial read
(descent reads no waits of an undecodable trial). Each reader draws and
decides every chunk in one workspace of its own (``_workspace``), so a yielded
chunk's finish times are overwritten by the next chunk: a reader consumes a
chunk before it advances. Its uniforms hold one chunk; its waits and finish
times grow to the most trials a chunk has kept. Results are a function of (scheme, trials, seed,
cluster) alone, and distinct seeds give independent streams.
``run_experiment`` returns the curve, the mean and 95th-percentile tasks done
by a worker in a trial, and the trials decoded at each sigma and at none (a
rate is such a count over ``trials``). The loads come from per-layer counts of
the workers that finished each layer, so ``run_experiment`` holds O(trials +
chunk) memory.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latency import ClusterParams, InvalidParams, LatencyCurve, Scheme, _check_grid, _check_tolerance

CHUNK_ELEMENTS = 2**15  # finish times drawn per chunk; bounds the kernel's memory


def _workspace(p: ClusterParams, layers, trials: int, kept: int = 0):
    """A reader's arrays: uniforms (trials, n) and, for the trials a chunk keeps, waits (kept, n, layers[-1]) and
    the finish times of ``layers`` and their sorted copy, each (len(layers), kept, n). ``_draw`` grows the last
    three to the most trials a chunk has kept, so a reader that stops early in a chunk holds only what it read."""
    shape = (len(layers), kept, p.n)
    return [np.empty((trials, p.n)), np.empty((kept, p.n, layers[-1])), np.empty(shape), np.empty(shape)]


def _finish_times(p: ClusterParams, uniforms: np.ndarray, waits: np.ndarray, layers, times: np.ndarray):
    """Fill ``times`` (len(layers), trials, n) with the finish times of the
    tasks numbered ``layers`` (ascending), layer-major, from uniforms (trials,
    n) and standard exponential waits (trials, n, layers[-1]); ``waits`` is
    scaled in place. Returns ``times``.

    A worker is alive when its uniform is at least p_e; task u ends at
    gamma + eps + u * rho plus the first u waits scaled by 1/lam, and never
    (inf) on a failed worker. One running sum walks the task axis in cumsum's
    order, so each stored time equals the cumsum-based one bit for bit.
    """
    waits *= 1.0 / p.lam  # equals rng.exponential(1/lam) bit for bit
    shifts = p.gamma + p.eps + p.rho * np.arange(1, waits.shape[2] + 1)
    running = np.where(uniforms >= p.p_e, waits[:, :, 0], math.inf)  # a failed worker's sum stays inf
    summed = 1  # tasks in the running sum
    for k, u in enumerate(layers):
        for r in range(summed, u):
            running += waits[:, :, r]
        summed = u
        np.add(running, shifts[u - 1], out=times[k])
    return times


def _draw(rng: np.random.Generator, p: ClusterParams, trials: int, layers, space, tolerance=0, decodable=math.inf):
    """Finish times (len(layers), trials, n) of the tasks numbered ``layers``, inf when failed, drawn into the
    workspace ``space`` (``_workspace``) and returned as a view of it; draws waits for layers[-1] tasks. With
    ``decodable`` the trials end at the ``decodable``-th one with at most ``tolerance`` failed workers, and only
    those up to it draw waits: the trials after the last such one wait 0, which does not change their decision."""
    uniforms, read = rng.random(out=space[0][:trials]), trials
    if decodable < math.inf:
        ok = np.flatnonzero((uniforms < p.p_e).sum(axis=1) <= tolerance)[:decodable]
        read = int(ok[-1]) + 1 if ok.size else 0
        uniforms = uniforms if ok.size < decodable else uniforms[:read]
    if len(space[1]) < len(uniforms):
        space[1:] = _workspace(p, layers, 0, len(uniforms))[1:]
    waits = space[1][:len(uniforms)]
    rng.standard_exponential(out=waits[:read])  # numpy's waits of `read` trials begin a whole chunk's
    waits[read:] = 0
    return _finish_times(p, uniforms, waits, layers, space[2][:, :len(uniforms)])


def _decide(scheme: Scheme, p: ClusterParams, times: np.ndarray, order: np.ndarray):
    """Per-trial latency and decoded sigma (-1 if none) from the finish times of ``scheme.layers``, sorted into
    ``order`` (at least as large). Ties between layers go to the smaller one. Each trial is decided from its own
    row alone. The caller checks the tolerance against n."""
    layers = np.array(scheme.layers)
    order = order[:, :times.shape[1]]
    np.copyto(order, times)
    order.sort(axis=2)
    quorum = order[np.arange(layers.size), :, p.n - layers]  # (layers, trials)
    if layers.size == 1:  # gc, uncoded and ngc:0: one layer, nothing to choose
        latency, decoded = quorum[0], layers[0] - 1
    else:
        best = np.argmin(quorum, axis=0)
        latency, decoded = quorum[best, np.arange(quorum.shape[1])], layers[best] - 1
    return latency, np.where(np.isinf(latency), -1, decoded)


def _stop(scheme: Scheme, latency: np.ndarray):
    """When each trial's workers stop, finite so a failed worker finishes nothing: ngc stops them at the latency
    (never in an undecodable trial), a fixed-load scheme runs every alive worker through its u_max tasks."""
    longest = np.finfo(float).max
    return np.minimum(latency, longest)[:, None] if scheme.kind == "ngc" else longest


def _decided_chunks(scheme: Scheme, p: ClusterParams, seed: int, trials: float = math.inf, decodable: float = math.inf):
    """(latency, sigma, times) of chunk c = 0, 1, ... of the stream rule, drawn and decided in this reader's
    workspace, ending after ``trials`` trials or at the ``decodable``-th that decodes (``_draw``); without
    either the chunks never end."""
    _check_tolerance(scheme, p)
    chunk, c = max(1, CHUNK_ELEMENTS // (p.n * scheme.layers[-1])), 0
    space = _workspace(p, scheme.layers, min(chunk, trials))
    while c * chunk < trials and decodable > 0:
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        times = _draw(rng, p, min(chunk, trials - c * chunk), scheme.layers, space, scheme.tolerance, decodable)
        latency, sigma = _decide(scheme, p, times, space[3])
        decodable -= np.count_nonzero(sigma >= 0) if decodable < math.inf else 0
        yield latency, sigma, times
        c += 1


def simulate_ngc_iteration(rng: np.random.Generator, s_max: int, p: ClusterParams) -> tuple[float, int, np.ndarray]:
    """One nested-scheme iteration: stop at the first layer reaching quorum.

    Layer u (u = 1..s_max+1) is decodable once n - u + 1 alive workers have
    finished u tasks; the latency is the earliest such moment and the component
    used is sigma = u - 1, ties resolved toward the smaller tolerance. Returns
    (latency, sigma, tasks done per worker): (inf, -1, every alive worker's
    tasks) when more workers failed than s_max.
    """
    scheme = Scheme("ngc", s_max)
    _check_tolerance(scheme, p)
    space = _workspace(p, scheme.layers, 1)
    times = _draw(rng, p, 1, scheme.layers, space)
    latency, sigma = _decide(scheme, p, times, space[3])
    return float(latency[0]), int(sigma[0]), np.count_nonzero(times <= _stop(scheme, latency), axis=0)[0]


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
    finished = np.zeros(len(scheme.layers), dtype=np.int64)  # workers that finished each layer's tasks
    start = 0
    for latency, sigma, times in _decided_chunks(scheme, p, seed, trials):
        latencies[start:start + latency.size] = latency
        start += latency.size
        counts += np.bincount(sigma + 1, minlength=u_max + 1)
        stop = _stop(scheme, latency)
        finished += [np.count_nonzero(column <= stop) for column in times]
    loads = np.zeros(u_max + 1, dtype=np.int64)  # workers that finished 0, 1, ..., u_max tasks
    loads[scheme.layers] = finished - np.append(finished[1:], 0)
    loads[0] = trials * p.n - finished[0]

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
