"""Coded distributed gradient descent on a synthetic least-squares problem.

The data matrix is split into n contiguous row blocks (zero-padded to a
multiple of n): data (n, size, c), labels (n, size). Each simulated iteration
decides which component code decoded first, reconstructs the full gradient
from the responsive workers' encoded responses, checks it against the directly
summed gradient, and applies the update theta -= step * gradient, step = eta / m.

Stream rule: a run draws nothing itself. Iteration t is the (t + 1)-th
decodable trial of the simulator's ngc:s_max chunk streams, and its resamples
are the undecodable trials since the one before. No trial depends on theta,
so a run reads them all before the first update.

The decodings are resolved for the whole run before the first update too:
each (sigma, responsive set) is solved once, so a run that cannot decode
fails before it starts. A responsive worker at sigma has finished at least
sigma + 1 tasks, which cover its whole window, so every row a decoding uses
can be formed. The update loop then runs only the data products, the decode
and the update. It computes one residual X theta - y per theta, which gives
both the recorded loss and all n block gradients of the next iteration (one
batched product); the responses of the workers a decoding uses are one
product of their encoding rows with those gradients.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeError, NestedGradientCode, decode_row
from .codes import encode_response  # noqa: F401 -- bench/workloads.py traces it under this module
from .latency import ClusterParams, Scheme
from .simulator import _decided_chunks
from .simulator import simulate_ngc_iteration  # noqa: F401 -- bench/workloads.py traces it under this module

_TARGET_GAP = 1e-9  # loss excess left after a default-rate run, relative to its start
MAX_RESAMPLES = 1000  # undecodable trials in a row that an iteration tolerates


class UndecodableIteration(CodeError):
    """No component code could decode the sampled iteration."""


@dataclass(frozen=True)
class Dataset:
    """Rows of features with one label each; squared-error loss throughout."""

    data: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if self.data.ndim != 2 or self.labels.shape != (self.data.shape[0],):
            raise ValueError("data must be (m, c) with labels of length m")

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def c(self) -> int:
        return self.data.shape[1]


def make_dataset(m: int, c: int, noise: float, seed: int) -> Dataset:
    """Gaussian design with labels from a random linear model plus noise."""
    if m < 1 or c < 1:
        raise ValueError(f"need at least one data row and one feature column, got m={m}, c={c}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((m, c))
    truth = rng.standard_normal(c)
    labels = data @ truth + noise * rng.standard_normal(m)
    return Dataset(data=data, labels=labels)


def partition(dataset: Dataset, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split into n contiguous equal blocks, zero-padding the tail if needed.

    The blocks come back as data (n, size, c) and labels (n, size): reshapes
    of the padded arrays, not a copy per block. Block i is (data[i], labels[i]).
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    m = dataset.m
    rows = -(-m // n) * n  # round up to a multiple of n
    data, labels = dataset.data, dataset.labels
    if rows != m:
        data = np.vstack([data, np.zeros((rows - m, dataset.c))])
        labels = np.concatenate([labels, np.zeros(rows - m)])
    return data.reshape(n, rows // n, dataset.c), labels.reshape(n, rows // n)


def _block_gradients(data: np.ndarray, residual: np.ndarray) -> np.ndarray:
    # residual^T X of each block, as one batched product over the leading block axis
    return (residual[..., None, :] @ data)[..., 0, :]


def partial_gradient(data: np.ndarray, labels: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Squared-error gradient summed over a block's rows: (c,) for one block,
    data (size, c) and labels (size,); (n, c) for a stack of blocks, data
    (n, size, c) and labels (n, size)."""
    return _block_gradients(data, data @ theta - labels)


def dataset_loss(dataset: Dataset, theta: np.ndarray) -> float:
    residual = dataset.data @ theta - dataset.labels
    return 0.5 * float(residual @ residual)


def _resolve(ngc: NestedGradientCode, sigma: int, tasks_done: np.ndarray,
             decoders: dict) -> tuple[np.ndarray, np.ndarray]:
    """The decoding at ``sigma``: the rows of B of the responsive workers it uses and their
    decoding coefficients, solved once per (sigma, responsive set) in ``decoders``."""
    responsive = np.flatnonzero(tasks_done >= sigma + 1)
    key = (sigma, tuple(responsive.tolist()))
    if key not in decoders:
        component = ngc.components[sigma]
        coefficients = decode_row(component, responsive)  # NumericalFailure unless within the residual gate
        workers = responsive[:ngc.n - sigma]  # the ones decode_row gives a coefficient
        decoders[key] = component.factors[0][workers], coefficients[workers]
    return decoders[key]


def _decode(decoding: tuple[np.ndarray, np.ndarray], gradients: np.ndarray) -> tuple[np.ndarray, float]:
    """The decoded gradient sum and its relative error against the direct sum."""
    rows, weights = decoding
    decoded = weights @ (rows @ gradients)
    full = gradients.sum(axis=0)
    denom = float(np.abs(full).max()) or 1.0
    return decoded, float(np.abs(decoded - full).max()) / denom


def coded_iteration(
    theta: np.ndarray,
    step: float,
    ngc: NestedGradientCode,
    sigma: int,
    tasks_done: np.ndarray,
    gradients: np.ndarray,
    decoders: dict | None = None,
) -> tuple[np.ndarray, float]:
    """``theta - step * decoded`` for the gradient decoded from one simulated
    iteration, and its relative error against the directly summed gradient.

    ``sigma`` and ``tasks_done`` are the iteration's decoded tolerance and
    tasks finished per worker, as ``simulate_ngc_iteration`` gives them;
    UndecodableIteration when sigma is -1. ``gradients`` holds the n block
    gradients at ``theta``, one row per block. A worker that finished sigma + 1
    tasks holds the gradients of its whole window, so the responses are formed
    with the decoded component's rows and combined with its decoding
    coefficients. ``decoders`` keeps the decoding of each (sigma, responsive
    set) for later calls.
    """
    if sigma < 0:
        raise UndecodableIteration(f"more failures than s_max={ngc.s_max} tolerates")
    if gradients.shape != (ngc.n, theta.size):
        raise ValueError(f"gradients must be ({ngc.n}, {theta.size}), got {gradients.shape}")
    decoding = _resolve(ngc, sigma, tasks_done, {} if decoders is None else decoders)
    decoded, relative_error = _decode(decoding, gradients)
    return theta - step * decoded, relative_error


@dataclass(frozen=True)
class IterationRecord:
    iteration: int
    loss: float
    recovery_error: float
    decoded_sigma: int
    latency: float
    resamples: int


@dataclass(frozen=True)
class DescentRun:
    thetas: tuple[np.ndarray, ...]  # parameter vector after each iteration
    records: tuple[IterationRecord, ...]

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])


def _iteration_trials(cluster: ClusterParams, s_max: int, seed: int, iterations: int):
    """Latency, sigma, tasks done (iterations, n) and resamples of every
    iteration under the stream rule; UndecodableIteration after MAX_RESAMPLES
    + 1 undecodable trials in a row."""
    columns = (np.empty(iterations), np.empty(iterations, int), np.empty((iterations, cluster.n), int),
               np.empty(iterations, int))
    done, run = 0, 0  # run: undecodable trials since the last decodable one
    for latency, sigma, tasks in _decided_chunks(Scheme("ngc", s_max), cluster, seed):
        ok = np.flatnonzero(sigma >= 0)[:iterations - done]
        # the trials before each decodable one, then after the last if iterations are still pending
        gaps = np.diff(ok, prepend=-1, append=sigma.size)[:iterations - done] - 1
        gaps[0] += run
        if (gaps > MAX_RESAMPLES).any():
            raise UndecodableIteration(f"iteration {done + int(np.argmax(gaps > MAX_RESAMPLES))}: "
                                       f"no decodable draw in {MAX_RESAMPLES} resamples")
        for column, values in zip(columns, (latency[ok], sigma[ok], tasks[ok], gaps[:ok.size])):
            column[done:done + ok.size] = values
        done, run = done + ok.size, gaps[-1]
        if done == iterations:
            return columns


def run_descent(
    dataset: Dataset,
    ngc: NestedGradientCode,
    iterations: int,
    eta: float,
    cluster: ClusterParams,
    seed: int,
) -> DescentRun:
    """Run coded gradient descent from theta = 0; deterministic given seed.

    UndecodableIteration names the first iteration with no decodable draw in
    ``MAX_RESAMPLES`` resamples (see the module's stream rule). A decoding
    that fails (NumericalFailure) raises as one ``coded_iteration`` per
    iteration's (sigma, tasks done) would at its first failing iteration, but
    before the first update.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    if cluster.n != ngc.n:
        raise ValueError(f"cluster has n={cluster.n} workers but code expects {ngc.n}")
    latency, sigma, tasks, resamples = _iteration_trials(cluster, ngc.s_max, seed, iterations)
    decoders = {}
    plan = [_resolve(ngc, s, row, decoders) for s, row in zip(sigma.tolist(), tasks)]
    data, labels = partition(dataset, ngc.n)
    step = eta / dataset.m
    theta = np.zeros(dataset.c)
    residual = data @ theta - labels  # one per theta: its loss and the next gradients
    thetas, records = [], []
    for t, decoding in enumerate(plan):
        decoded, relative_error = _decode(decoding, _block_gradients(data, residual))
        theta = theta - step * decoded
        residual = data @ theta - labels
        thetas.append(theta)
        records.append(
            IterationRecord(
                iteration=t,
                loss=0.5 * float(np.vdot(residual, residual)),
                recovery_error=relative_error,
                decoded_sigma=int(sigma[t]),
                latency=float(latency[t]),
                resamples=int(resamples[t]),
            )
        )
    return DescentRun(thetas=tuple(thetas), records=tuple(records))


def default_learning_rate(dataset: Dataset, iterations: int) -> float:
    """Constant learning rate sized for a run of the given length.

    Chosen so the slowest mode shrinks the loss excess to about ``_TARGET_GAP``
    of its starting value by the final iteration, capped at half the
    divergence threshold. Running far past the target buys no accuracy: the
    gradient sum falls to the rounding floor and per-iteration recovery
    ratios stop being meaningful.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    eigenvalues = np.linalg.eigvalsh(dataset.data.T @ dataset.data)
    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    contraction = _TARGET_GAP ** (1.0 / (2 * iterations))
    eta = (1.0 - contraction) * dataset.m / max(lam_min, np.finfo(float).tiny)
    return min(eta, dataset.m / lam_max)
