"""Reference implementations that only the tests use as oracles.

``ngc_latency_cdf_zero_shift`` is the rho = 0 nested-scheme CDF in closed
Poisson form (acceptance criterion 6 checks ``latency_curve`` against it),
``plain_descent`` the uncoded gradient-descent trajectory that coded descent
must reproduce, ``csv_bytes`` with ``fmt`` the csv-module writer whose
bytes the command line's CSV files must equal, and ``kernel_trials`` the
simulator kernel's trials with the tasks each worker did, as readers of the
kernel count them.
"""
import copy
import csv
import io
import math

import numpy as np

from ngcodes.descent import Dataset, DescentRun, IterationRecord, dataset_loss
from ngcodes.latency import ClusterParams, InvalidParams, Scheme, _check_tolerance, _decode_cdf
from ngcodes.simulator import _decide, _draw, _workspace


def _zero_shift_reach(ts: np.ndarray, s_bar: int, p: ClusterParams) -> np.ndarray:
    """F_u(t) for u = 1..s_bar+1 in closed Poisson form, valid only for rho = 0.

    With no per-task shift all layers share the offset gamma + eps, and the
    probability of exactly v finished tasks collapses to the Poisson term
    exp(-x) x^v / v! with x = lam * (t - gamma - eps); F_u sums the terms v >= u.
    Below x = u F_u sums its terms down from v = 2 s_bar + 64 (the rest is below
    1e-17 of the sum there); from x = u on it is 1 minus the terms v < u.
    """
    x = p.lam * (ts - (p.gamma + p.eps))
    reach = np.zeros((s_bar + 1, ts.size))
    pos = x > 0
    if not np.any(pos):
        return reach
    xp = np.minimum(x[pos], 1e300)  # t = inf evaluates to 1 instead of NaN
    logx = np.log(xp)
    poisson = np.stack([np.exp(v * logx - math.lgamma(v + 1) - xp) for v in range(2 * s_bar + 65)])
    above = np.cumsum(poisson[::-1], axis=0)[::-1][1:s_bar + 2]  # terms v >= u, u = 1..s_bar+1
    below = np.cumsum(poisson[:s_bar + 1], axis=0)                # terms v < u
    reach[:, pos] = np.where(xp < np.arange(1, s_bar + 2)[:, None], above, 1.0 - below)
    return np.clip(reach, 0.0, 1.0)


def ngc_latency_cdf_zero_shift(t: float, s_max: int, p: ClusterParams) -> float:
    """Specialized nested-scheme CDF for rho = 0; agrees with latency_curve."""
    if p.rho != 0:
        raise InvalidParams(f"zero-shift form requires rho = 0, got rho={p.rho}")
    scheme = Scheme("ngc", s_max)
    _check_tolerance(scheme, p)
    reach = _zero_shift_reach(np.asarray([t], dtype=float), s_max, p)
    return float(_decode_cdf(reach, scheme.layers, p)[0])


def plain_descent(dataset: Dataset, iterations: int, eta: float) -> DescentRun:
    """Uncoded reference trajectory computed from the full gradient directly."""
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    theta = np.zeros(dataset.c)
    thetas, records = [], []
    for t in range(iterations):
        gradient = dataset.data.T @ (dataset.data @ theta - dataset.labels)
        theta = theta - (eta / dataset.m) * gradient
        thetas.append(theta)
        records.append(IterationRecord(t, dataset_loss(dataset, theta), 0.0, 0, 0.0, 0))
    return DescentRun(thetas=tuple(thetas), records=tuple(records))


def fmt(x) -> str:
    """A float field as the command line writes it: 12 significant digits."""
    return format(float(x), ".12g")


def csv_bytes(header, rows) -> bytes:
    """What ``csv.writer`` in its default dialect writes for ``header`` and ``rows``."""
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode()


def kernel_draw(rng, p: ClusterParams, trials: int, layers):
    """The kernel's alive flags (trials, n), replayed from the uniforms its
    draw begins with, and its finish times (len(layers), trials, n) of
    ``trials`` trials drawn from ``rng`` into a fresh workspace."""
    alive = copy.deepcopy(rng).random((trials, p.n)) >= p.p_e
    return alive, _draw(rng, p, trials, layers, _workspace(p, layers, trials))


def tasks_done(scheme: Scheme, alive: np.ndarray, times: np.ndarray, latency: np.ndarray) -> np.ndarray:
    """Tasks done per worker (trials, n): the nested scheme stops every worker
    at the latency and counts the layers it finished by then, a fixed-load
    scheme runs every alive worker through all of its tasks; a failed worker
    does none."""
    if scheme.kind == "ngc":
        return np.sum(times <= latency[:, None], axis=0) * alive
    return scheme.layers[-1] * alive


def kernel_trials(rng, scheme: Scheme, p: ClusterParams, trials: int):
    """Latency, sigma and tasks done (trials, n) of ``trials`` kernel trials
    drawn from ``rng``."""
    alive, times = kernel_draw(rng, p, trials, scheme.layers)
    latency, sigma = _decide(scheme, p, times, np.empty_like(times))
    return latency, sigma, tasks_done(scheme, alive, times, latency)
