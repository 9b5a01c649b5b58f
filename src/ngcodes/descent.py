"""Coded distributed gradient descent on a synthetic least-squares problem.

The data matrix is split into n contiguous row blocks (zero-padded to a
multiple of n), held as one (n, size, c) stack. Each simulated iteration
decides which component code decoded first, reconstructs the full gradient
from the responsive workers' encoded responses, checks it against the directly
summed gradient, and applies the standard update theta -= (eta / m) * gradient.

Stream contract: iteration t, attempt a draws its stragglers from
``default_rng(SeedSequence([seed, t, a]))``, exactly as one
``simulate_ngc_iteration`` trial on that generator would; an undecodable draw
is redrawn with a + 1. No outcome depends on theta, so a run draws them all
before the first update, deciding each round's draws in one simulator kernel
call.

A run computes one residual X theta - y per theta, which gives both the
recorded loss and all n block gradients of the next iteration (one batched
product). The responses of the workers a decoding uses are one product of
their encoding rows with the block gradients, and the decoding of each
(sigma, responsive set) is solved once per run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .codes import CodeError, EncodingMatrix, MissingGradient, NestedGradientCode, decode_row
from .codes import encode_response  # noqa: F401 -- bench/workloads.py traces it under this module
from .latency import ClusterParams, Scheme, _check_tolerance
from .simulator import CHUNK_ELEMENTS, IterationOutcome, _decide, _finish_times
from .simulator import simulate_ngc_iteration  # noqa: F401 -- bench/workloads.py traces it under this module


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


@dataclass(frozen=True)
class DataBlock:
    """Rows of one block, data (size, c) with labels (size,), or of a stack of
    blocks along a leading axis, data (n, size, c) with labels (n, size)."""

    data: np.ndarray
    labels: np.ndarray


def partition(dataset: Dataset, n: int) -> DataBlock:
    """Split into n contiguous equal blocks, zero-padding the tail if needed.

    The blocks come back as one stack: a reshape of the padded data, not a copy
    per block. Block i is ``DataBlock(blocks.data[i], blocks.labels[i])``.
    """
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    m = dataset.m
    rows = -(-m // n) * n  # round up to a multiple of n
    data, labels = dataset.data, dataset.labels
    if rows != m:
        data = np.vstack([data, np.zeros((rows - m, dataset.c))])
        labels = np.concatenate([labels, np.zeros(rows - m)])
    return DataBlock(data.reshape(n, rows // n, dataset.c), labels.reshape(n, rows // n))


def _residual(block: DataBlock, theta: np.ndarray) -> np.ndarray:
    return block.data @ theta - block.labels


def _block_gradients(block: DataBlock, residual: np.ndarray) -> np.ndarray:
    # residual^T X of each block, as one batched product over the leading block axis
    return (residual[..., None, :] @ block.data)[..., 0, :]


def partial_gradient(block: DataBlock, theta: np.ndarray) -> np.ndarray:
    """Squared-error gradient summed over the block's rows: (c,) for one block,
    (n, c) for a stack of blocks."""
    return _block_gradients(block, _residual(block, theta))


def dataset_loss(dataset: Dataset, theta: np.ndarray) -> float:
    residual = dataset.data @ theta - dataset.labels
    return 0.5 * float(residual @ residual)


@dataclass(frozen=True)
class DescentState:
    theta: np.ndarray
    eta: float
    iteration: int


@dataclass(frozen=True)
class RecoveryReport:
    relative_error: float
    decoded_sigma: int
    latency: float
    kappa: int


@dataclass(frozen=True)
class _Decoder:
    """How one (sigma, responsive set) decodes: which workers answer, and how."""

    workers: np.ndarray  # the responsive workers the decoding row uses, ascending
    reach: np.ndarray    # tasks each must have finished to hold its row's blocks
    rows: np.ndarray     # their rows of the component's encoding matrix
    weights: np.ndarray  # their decoding coefficients


def _decoder(component: EncodingMatrix, responsive: np.ndarray) -> _Decoder:
    row = decode_row(component, responsive)  # NumericalFailure unless within the residual gate
    workers = np.array(sorted(row.responsive_set))
    rows = component.entries[workers]
    # task r of worker i computes block (i + r) mod n, so block j needs (j - i) mod n + 1 tasks
    offsets = (np.arange(component.n) - workers[:, None]) % component.n
    reach = np.where(rows != 0, offsets + 1, 0).max(axis=1)
    return _Decoder(workers, reach, rows, row.coefficients[workers])


def coded_iteration(
    state: DescentState,
    ngc: NestedGradientCode,
    outcome: IterationOutcome,
    gradients: np.ndarray,
    m: int,
    decoders: dict | None = None,
) -> tuple[DescentState, RecoveryReport]:
    """Apply one update from the decoded gradient of a simulated iteration.

    ``gradients`` holds the n block gradients at ``state.theta``, one row per
    block. Workers hold gradients for the cyclic block window their completed
    tasks cover; responses are formed with the decoded component's rows and
    combined with its decoding coefficients (MissingGradient if a row reaches
    past its worker's window). The report compares the decoded gradient
    against the directly summed one. ``decoders`` keeps the decoding of each
    (sigma, responsive set) for later calls; ``run_descent`` passes one dict
    per run.
    """
    if outcome.decoded_sigma is None:
        raise UndecodableIteration(f"{outcome.kappa} failures exceed s_max={ngc.s_max}")
    if gradients.shape != (ngc.n, state.theta.size):
        raise ValueError(f"gradients must be ({ngc.n}, {state.theta.size}), got {gradients.shape}")
    sigma = outcome.decoded_sigma
    tasks_done = outcome.tasks_done
    responsive = np.flatnonzero(tasks_done >= sigma + 1)
    decoders = {} if decoders is None else decoders
    key = (sigma, tuple(responsive.tolist()))
    decoder = decoders.get(key)
    if decoder is None:
        decoder = decoders[key] = _decoder(ngc.components[sigma], responsive)

    short = tasks_done[decoder.workers] < decoder.reach
    if short.any():
        k = int(np.argmax(short))
        raise MissingGradient(
            f"worker {decoder.workers[k]} finished {tasks_done[decoder.workers[k]]} tasks, "
            f"but its encoding row needs {decoder.reach[k]}"
        )
    decoded = decoder.weights @ (decoder.rows @ gradients)

    full = gradients.sum(axis=0)
    denom = float(np.abs(full).max()) or 1.0
    report = RecoveryReport(
        relative_error=float(np.abs(decoded - full).max()) / denom,
        decoded_sigma=sigma,
        latency=float(outcome.latency),
        kappa=outcome.kappa,
    )
    new_state = DescentState(
        theta=state.theta - (state.eta / m) * decoded,
        eta=state.eta,
        iteration=state.iteration + 1,
    )
    return new_state, report


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
    def theta(self) -> np.ndarray:
        return self.thetas[-1]

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])


def _decodable_outcomes(cluster: ClusterParams, s_max: int, seed: int, iterations: int,
                        max_resamples: int) -> tuple[list[IterationOutcome], np.ndarray]:
    """The outcome of every iteration and how often it was resampled.

    Each round draws the next attempt of the lowest pending iterations, at most
    a simulator chunk of them, and decides them in one kernel call. A round
    that decodes nothing leaves the lowest pending iteration to resample alone
    until it decodes, so a cluster that never decodes draws about iterations +
    max_resamples streams before the first iteration gives up.
    """
    scheme = Scheme("ngc", s_max)
    _check_tolerance(scheme, cluster)
    u_max = s_max + 1
    chunk = max(1, CHUNK_ELEMENTS // (cluster.n * u_max))
    latency, sigma, kappa = np.empty(iterations), np.empty(iterations, int), np.empty(iterations, int)
    tasks = np.empty((iterations, cluster.n), dtype=int)
    attempts = np.zeros(iterations, dtype=int)
    pending, alone = np.arange(iterations), False
    while pending.size:
        rows = pending[:1] if alone else pending[:chunk]
        if attempts[rows[0]] > max_resamples:  # the lowest pending iteration has drawn the most
            raise UndecodableIteration(
                f"iteration {rows[0]}: no decodable draw in {max_resamples} resamples")
        uniforms, waits = np.empty((rows.size, cluster.n)), np.empty((rows.size, cluster.n, u_max))
        for k, t in enumerate(rows.tolist()):  # in the order of a one-trial simulator._draw
            rng = np.random.default_rng(np.random.SeedSequence([seed, t, int(attempts[t])]))
            rng.random(out=uniforms[k])
            rng.standard_exponential(out=waits[k])
        alive, times = _finish_times(cluster, uniforms, waits, scheme.layers)
        decided = (*_decide(scheme, cluster, alive, times), cluster.n - alive.sum(axis=1))
        ok = decided[1] >= 0
        for out, values in zip((latency, sigma, tasks, kappa), decided):
            out[rows[ok]] = values[ok]
        attempts[rows[~ok]] += 1
        alone = not ok.any()
        if not alone:
            pending = np.concatenate((rows[~ok], pending[rows.size:]))
    outcomes = [IterationOutcome(float(latency[t]), int(sigma[t]), tasks[t], int(kappa[t]))
                for t in range(iterations)]
    return outcomes, attempts


def run_descent(
    dataset: Dataset,
    ngc: NestedGradientCode,
    iterations: int,
    eta: float,
    cluster: ClusterParams,
    seed: int,
    max_resamples: int = 1000,
) -> DescentRun:
    """Run coded gradient descent from theta = 0; deterministic given seed.

    UndecodableIteration names the first iteration with no decodable draw in
    ``max_resamples`` resamples (see the module's stream contract).
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if max_resamples < 0:
        raise ValueError(f"max_resamples must be non-negative, got {max_resamples}")
    if not (math.isfinite(eta) and eta > 0):
        raise ValueError(f"eta must be finite and positive, got {eta}")
    if cluster.n != ngc.n:
        raise ValueError(f"cluster has n={cluster.n} workers but code expects {ngc.n}")
    outcomes, resamples = _decodable_outcomes(cluster, ngc.s_max, seed, iterations, max_resamples)
    blocks = partition(dataset, ngc.n)
    state = DescentState(theta=np.zeros(dataset.c), eta=eta, iteration=0)
    residual = _residual(blocks, state.theta)  # one per theta: its loss and the next gradients
    decoders = {}
    thetas, records = [], []
    for t, outcome in enumerate(outcomes):
        gradients = _block_gradients(blocks, residual)
        state, report = coded_iteration(state, ngc, outcome, gradients, dataset.m, decoders)
        residual = _residual(blocks, state.theta)
        thetas.append(state.theta)
        records.append(
            IterationRecord(
                iteration=t,
                loss=0.5 * float(np.vdot(residual, residual)),
                recovery_error=report.relative_error,
                decoded_sigma=report.decoded_sigma,
                latency=report.latency,
                resamples=int(resamples[t]),
            )
        )
    return DescentRun(thetas=tuple(thetas), records=tuple(records))


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


def default_learning_rate(dataset: Dataset, iterations: int, target_gap: float = 1e-9) -> float:
    """Constant learning rate sized for a run of the given length.

    Chosen so the slowest mode shrinks the loss excess to about ``target_gap``
    of its starting value by the final iteration, capped at half the
    divergence threshold. Running far past the target buys no accuracy: the
    gradient sum falls to the rounding floor and per-iteration recovery
    ratios stop being meaningful.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    eigenvalues = np.linalg.eigvalsh(dataset.data.T @ dataset.data)
    lam_min, lam_max = float(eigenvalues[0]), float(eigenvalues[-1])
    contraction = target_gap ** (1.0 / (2 * iterations))
    eta = (1.0 - contraction) * dataset.m / max(lam_min, np.finfo(float).tiny)
    return min(eta, dataset.m / lam_max)
