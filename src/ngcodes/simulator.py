"""Monte Carlo simulation of coded gradient-descent iterations.

One array kernel serves every scheme. Its draw (``_draw``) gives each worker's
failure flag and the standard exponential waits of its tasks for a batch of
trials; ``_finish_times`` turns them into finish times under the
shifted-exponential model (infinite for a failed worker); its decision
(``_decide``) takes, per trial, the earliest moment at which a layer the
scheme may decode at (``Scheme.layers``) has its quorum of n - u + 1 workers
with u tasks done. An infinite latency is exactly "more workers failed than
the scheme tolerates". The decision reads each trial's row alone, so coded
descent decides rows drawn from per-iteration streams in the same call.

Stream contract: ``run_experiment`` splits the trials into chunks of
max(1, 2**15 // (n * u_max)) trials, u_max being the largest layer, and
chunk c draws from ``default_rng(SeedSequence([seed, c]))``. Results are a
function of (scheme, trials, seed, cluster) alone, and distinct seeds give
independent streams.
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


def _finish_times(p: ClusterParams, uniforms: np.ndarray, waits: np.ndarray):
    """Alive flags and finish times from uniforms (trials, n) and standard
    exponential waits (trials, n, u_max); the finish times overwrite ``waits``.

    A worker is alive when its uniform is at least p_e; task r ends at
    gamma + eps + r * rho plus the first r waits scaled by 1/lam, and never
    (inf) on a failed worker.
    """
    alive = uniforms >= p.p_e
    waits *= 1.0 / p.lam  # equals rng.exponential(1/lam) bit for bit
    times = np.cumsum(waits, axis=2, out=waits)  # in place: one array of this size at a time
    times += p.gamma + p.eps + p.rho * np.arange(1, waits.shape[2] + 1)
    times[~alive] = math.inf
    return alive, times


def _draw(rng: np.random.Generator, p: ClusterParams, trials: int, u_max: int):
    """Alive flags (trials, n) and finish times (trials, n, u_max), inf when failed."""
    uniforms = rng.random((trials, p.n))
    return _finish_times(p, uniforms, rng.standard_exponential((trials, p.n, u_max)))


def _decide(scheme: Scheme, p: ClusterParams, alive: np.ndarray, times: np.ndarray):
    """Per-trial latency, decoded sigma (-1 if none), tasks done (trials, n),
    failures, from drawn alive flags and finish times (u_max = the largest layer).

    The nested scheme stops every worker at the latency, so it counts the tasks
    finished by then; fixed-load schemes count all u_max tasks of every alive
    worker. Ties between layers go to the smaller one. Each trial is decided
    from its own row alone. The caller checks the tolerance against n.
    """
    layers = np.array(scheme.layers)
    u_max = int(layers[-1])
    order = np.sort(times[:, :, layers - 1], axis=1)
    quorum = order[:, p.n - layers, np.arange(layers.size)]
    best = np.argmin(quorum, axis=1)
    latency = quorum[np.arange(len(quorum)), best]
    sigma = np.where(np.isinf(latency), -1, layers[best] - 1)
    if scheme.kind == "ngc":
        tasks = np.sum(times <= latency[:, None, None], axis=2) * alive
    else:
        tasks = u_max * alive
    return latency, sigma, tasks, p.n - alive.sum(axis=1)


def _simulate(rng: np.random.Generator, scheme: Scheme, p: ClusterParams, trials: int):
    """``_decide`` on ``trials`` fresh draws from ``rng``."""
    _check_tolerance(scheme, p)
    alive, times = _draw(rng, p, trials, scheme.tolerance + 1)
    return _decide(scheme, p, alive, times)


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

    u_max = scheme.tolerance + 1
    chunk = max(1, CHUNK_ELEMENTS // (p.n * u_max))
    latencies = np.empty(trials)
    loads = np.empty((trials, p.n), dtype=np.int64)
    counts = np.zeros(u_max + 1, dtype=np.int64)  # [undecodable, decoded at sigma = 0, 1, ...]
    for c, start in enumerate(range(0, trials, chunk)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, c]))
        stop = min(start + chunk, trials)
        latencies[start:stop], sigma, loads[start:stop], _ = _simulate(rng, scheme, p, stop - start)
        counts += np.bincount(sigma + 1, minlength=u_max + 1)

    ordered = np.sort(latencies)
    values = np.searchsorted(ordered, ts, side="right") / trials
    curve = LatencyCurve(grid=ts, values=values, label=scheme.label)
    stats = LoadStats(
        mean_load=float(loads.mean()),
        p95_load=float(np.percentile(loads.reshape(-1), 95, overwrite_input=True)),
        undecodable_rate=float(np.mean(np.isinf(latencies))),
    )
    return ExperimentResult(curve=curve, loads=stats, decoded=tuple(counts[1:].tolist()),
                            undecodable=int(counts[0]))
