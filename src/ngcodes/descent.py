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
one ``codes.decodings`` call per decoded sigma takes its iterations' responsive
workers, so a run that cannot decode fails before it starts. A responsive
worker at sigma has finished at least sigma + 1 tasks, which cover its whole
window, so its response B_w g can be formed, and the decoded gradient a (B g)
is (a B) g. The plan holds the row a B that ``decodings`` returns, one per
iteration: (iterations, n).

For least squares a block's gradient X_i^T (X_i theta - y_i) is
G_i theta - b_i, with G_i = X_i^T X_i and b_i = X_i^T y_i fixed for the run.
A run forms them once, from the dataset in place (the one partial block is
padded on its own), so its peak holds one dataset, not two; an iteration then
costs O(n c^2), not O(m c): one batched product gives all n block gradients,
and the iteration's row a B times them gives the decoded sum. The loop keeps
each theta and each iteration's decoded and direct gradient sums. After it,
the recovery errors come from the sums, and the losses 0.5 ||X theta - y||^2
from an exact expansion about the least-squares point: one O(m c) residual
per run, then O(c^2) per theta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import DECODE_TOL, CodeError, NestedGradientCode, NumericalFailure, decodings
from .codes import decode_row  # noqa: F401 -- bench/workloads.py traces it under this module
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
    with np.errstate(over="ignore"):
        labels = data @ truth + noise * rng.standard_normal(m)
    if not np.isfinite(labels).all():
        raise ValueError(f"noise {noise} overflows the labels")
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


def partial_gradient(data: np.ndarray, labels: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Squared-error gradient summed over a block's rows: (c,) for one block,
    data (size, c) and labels (size,); (n, c) for a stack of blocks, data
    (n, size, c) and labels (n, size)."""
    return np.vecmat(data @ theta - labels, data)  # residual^T X of each block


def dataset_loss(dataset: Dataset, theta: np.ndarray) -> float:
    residual = dataset.data @ theta - dataset.labels
    return 0.5 * float(residual @ residual)


def _block_moments(data: np.ndarray, labels: np.ndarray, gram=None, moments=None) -> tuple[np.ndarray, np.ndarray]:
    """X_i^T X_i (n, c, c) and X_i^T y_i (n, c) of each block of ``partition``'s data and labels; into
    ``gram`` and ``moments`` if given."""
    return np.matmul(data.transpose(0, 2, 1), data, out=gram), np.vecmat(labels, data, out=moments)


def _dataset_moments(dataset: Dataset, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``_block_moments(*partition(dataset, n))`` bit for bit, from the dataset in place: the whole blocks
    through a reshaped view, the one partial block zero-padded on its own, the blocks past the end 0."""
    (m, c), size = dataset.data.shape, -(-dataset.m // n)
    whole, rows = m // size, m - m % size
    gram, moments = np.zeros((n, c, c)), np.zeros((n, c))
    _block_moments(dataset.data[:rows].reshape(whole, size, c), dataset.labels[:rows].reshape(whole, size),
                   gram[:whole], moments[:whole])
    if rows < m:
        data, labels = np.zeros((1, size, c)), np.zeros((1, size))
        data[0, :m - rows], labels[0, :m - rows] = dataset.data[rows:], dataset.labels[rows:]
        _block_moments(data, labels, gram[whole:whole + 1], moments[whole:whole + 1])
    return gram, moments


def _gram_gradients(gram: np.ndarray, moments: np.ndarray, theta: np.ndarray, out=None) -> np.ndarray:
    # X_i^T (X_i theta - y_i) = G_i theta - b_i of every block: O(n c^2), whatever the block size; into ``out``
    # (n, c) if given. One gemv of the (n c, c) stack is faster but rounds some rows differently (OpenBLAS, c = 10)
    return np.subtract(np.matvec(gram, theta, out=out), moments, out=out)


def _losses(dataset: Dataset, gram: np.ndarray, moments: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """0.5 ||X theta - y||^2 of each row of ``thetas`` (k, c), by the exact 0.5 ||r0||^2 + d^T (X^T r0 + 0.5 G d):
    d = theta - theta0, theta0 the least-squares solution of G theta0 = b (the sums of ``gram`` and ``moments``)
    and r0 = X theta0 - y. X^T r0 is about 0 and G is positive semidefinite, so nothing cancels. A row's loss
    does not depend on the other rows; one whose expansion is not finite takes ``dataset_loss``'s direct form."""
    G = gram.sum(axis=0)
    theta0 = np.linalg.lstsq(G, moments.sum(axis=0))[0]
    r0, delta = dataset.data @ theta0 - dataset.labels, thetas - theta0
    losses = 0.5 * float(r0 @ r0) + np.einsum("ij,ij->i", delta, r0 @ dataset.data + 0.5 * np.vecmat(delta, G))
    for t in np.flatnonzero(~np.isfinite(losses)):
        losses[t] = dataset_loss(dataset, thetas[t])
    return losses


def _plan(ngc: NestedGradientCode, sigma: np.ndarray, tasks: np.ndarray) -> np.ndarray:
    """Per iteration of ``sigma`` and ``tasks`` (iterations, n), the row a B that ``decodings`` returns for its
    workers with at least sigma + 1 tasks done, from one call per decoded sigma: one (iterations, n) array, each
    row a B of the very a ``decode_row`` gives. NotDecodable as ``decodings`` raises it; NumericalFailure (a
    residual above ``DECODE_TOL``) as ``decode_row`` raises it, for the first iteration that fails.
    """
    rows, failures = np.empty(tasks.shape), []
    for s in sorted(set(sigma.tolist())):
        ts = np.flatnonzero(sigma == s)  # the iterations decoded at s
        _, ab, residual = decodings(ngc.components[s], tasks[ts] >= s + 1)
        if (bad := np.flatnonzero(~(residual <= DECODE_TOL))).size:  # a NaN residual fails too
            failures.append((ts[bad[0]], residual[bad[0]]))  # its first failing iteration
            continue
        rows[ts] = ab
    if failures:
        raise NumericalFailure(f"decode residual {min(failures)[1]:.3e} above {DECODE_TOL:g}")
    return rows


def _recovery_errors(decoded: np.ndarray, full: np.ndarray) -> np.ndarray:
    """Per row, the decoded gradient sum's relative error max|decoded - full| / max|full| against
    the direct sum (over 1 where the direct sum is 0)."""
    denom = np.abs(full).max(axis=1)
    return np.abs(decoded - full).max(axis=1) / np.where(denom == 0, 1.0, denom)


def coded_iteration(
    theta: np.ndarray,
    step: float,
    ngc: NestedGradientCode,
    sigma: int,
    tasks_done: np.ndarray,
    gradients: np.ndarray,
) -> tuple[np.ndarray, float]:
    """``theta - step * decoded`` for the gradient decoded from one simulated
    iteration, and its relative error against the directly summed gradient.

    ``sigma`` and ``tasks_done`` (n,) are the iteration's decoded tolerance and
    tasks finished per worker, as ``simulate_ngc_iteration`` gives them;
    UndecodableIteration when sigma is -1. ``gradients`` holds the n block
    gradients at ``theta``, one row per block. The decoded gradient is the
    iteration's ``_plan`` row a B times ``gradients``: the decoding, update and
    recovery error of one iteration of ``run_descent``, bit for bit.
    """
    if sigma < 0:
        raise UndecodableIteration(f"more failures than s_max={ngc.s_max} tolerates")
    if sigma > ngc.s_max:
        raise ValueError(f"sigma must be in [-1, {ngc.s_max}], got {sigma}")
    if (tasks_done := np.asarray(tasks_done)).shape != (ngc.n,):
        raise ValueError(f"tasks_done must be ({ngc.n},), got {tasks_done.shape}")
    if gradients.shape != (ngc.n, theta.size):
        raise ValueError(f"gradients must be ({ngc.n}, {theta.size}), got {gradients.shape}")
    decoded = _plan(ngc, np.array([sigma]), tasks_done[None])[0] @ gradients
    return theta - step * decoded, float(_recovery_errors(decoded[None], gradients.sum(axis=0)[None])[0])


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
    for latency, sigma, times in _decided_chunks(Scheme("ngc", s_max), cluster, seed, decodable=iterations):
        ok = np.flatnonzero(sigma >= 0)
        tasks = np.count_nonzero(times[:, ok] <= latency[ok, None], axis=0)  # finite latencies: failed count 0
        # the trials before each decodable one, then after the last (none in the stream's last chunk)
        gaps = np.diff(ok, prepend=-1, append=sigma.size) - 1
        gaps[0] += run
        if (gaps > MAX_RESAMPLES).any():
            raise UndecodableIteration(f"iteration {done + int(np.argmax(gaps > MAX_RESAMPLES))}: "
                                       f"no decodable draw in {MAX_RESAMPLES} resamples")
        for column, values in zip(columns, (latency[ok], sigma[ok], tasks, gaps[:-1])):
            column[done:done + ok.size] = values
        done, run = done + ok.size, gaps[-1]
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
    ``MAX_RESAMPLES`` resamples (see the module's stream rule). The plan of
    rows a B (``_plan``) is formed before the first update, so a decoding that
    fails (NumericalFailure) raises as one ``coded_iteration`` per iteration's
    (sigma, tasks done) would at its first failing iteration, but before any
    update. Each iteration's block gradients come from the blocks' Gram
    matrices; the losses and recovery errors are computed after the loop.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    if cluster.n != ngc.n:
        raise ValueError(f"cluster has n={cluster.n} workers but code expects {ngc.n}")
    latency, sigma, tasks, resamples = _iteration_trials(cluster, ngc.s_max, seed, iterations)
    rows = _plan(ngc, sigma, tasks)
    gram, moments = _dataset_moments(dataset, ngc.n)
    step = eta / dataset.m
    theta, gradients = np.zeros(dataset.c), np.empty(moments.shape)
    thetas, decoded, full = (np.empty((iterations, dataset.c)) for _ in range(3))
    for t, row in enumerate(rows):
        _gram_gradients(gram, moments, theta, gradients)
        np.dot(row, gradients, out=decoded[t])
        gradients.sum(axis=0, out=full[t])
        theta = np.subtract(theta, np.multiply(decoded[t], step), out=thetas[t])
    losses, errors = _losses(dataset, gram, moments, thetas).tolist(), _recovery_errors(decoded, full).tolist()
    records = map(IterationRecord, range(iterations), losses, errors, sigma.tolist(), latency.tolist(),
                  resamples.tolist())
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
