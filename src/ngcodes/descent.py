"""Coded distributed gradient descent on a synthetic least-squares problem.

The data matrix is split into n contiguous row blocks (zero-padded to a
multiple of n). Each simulated iteration decides which component code decoded
first, reconstructs the full gradient from the responsive workers' encoded
responses, checks it against the directly summed gradient, and applies the
standard update theta -= (eta / m) * gradient.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import CodeError, NestedGradientCode, decode_row, encode_response
from .latency import ClusterParams
from .simulator import IterationOutcome, simulate_ngc_iteration


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
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((m, c))
    truth = rng.standard_normal(c)
    labels = data @ truth + noise * rng.standard_normal(m)
    return Dataset(data=data, labels=labels)


@dataclass(frozen=True)
class DataBlock:
    index: int
    data: np.ndarray
    labels: np.ndarray


@dataclass(frozen=True)
class GradientBlock:
    index: int
    value: np.ndarray


def partition(dataset: Dataset, n: int) -> tuple[DataBlock, ...]:
    """Split into n contiguous equal blocks, zero-padding the tail if needed."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    m = dataset.m
    rows = -(-m // n) * n  # round up to a multiple of n
    data, labels = dataset.data, dataset.labels
    if rows != m:
        data = np.vstack([data, np.zeros((rows - m, dataset.c))])
        labels = np.concatenate([labels, np.zeros(rows - m)])
    size = rows // n
    return tuple(
        DataBlock(i, data[i * size : (i + 1) * size], labels[i * size : (i + 1) * size])
        for i in range(n)
    )


def partial_gradient(block: DataBlock, theta: np.ndarray) -> GradientBlock:
    """Squared-error gradient summed over the block's rows."""
    residual = block.data @ theta - block.labels
    return GradientBlock(index=block.index, value=block.data.T @ residual)


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


def coded_iteration(
    state: DescentState,
    ngc: NestedGradientCode,
    outcome: IterationOutcome,
    blocks: tuple[DataBlock, ...],
    m: int,
) -> tuple[DescentState, RecoveryReport]:
    """Apply one update from the decoded gradient of a simulated iteration.

    Workers hold gradients for the cyclic block window their completed tasks
    cover; responses are formed with the decoded component's rows and combined
    with its decoding coefficients. The report compares the decoded gradient
    against the directly summed one.
    """
    if outcome.decoded_sigma is None:
        raise UndecodableIteration(f"{outcome.kappa} failures exceed s_max={ngc.s_max}")
    sigma = outcome.decoded_sigma
    component = ngc.components[sigma]
    n = ngc.n
    gradients = [partial_gradient(block, state.theta).value for block in blocks]

    responsive = [i for i in range(n) if outcome.tasks_done[i] >= sigma + 1]
    row = decode_row(component, responsive)
    decoded = np.zeros_like(state.theta)
    for i in sorted(row.responsive_set):
        available = [None] * n
        for r in range(int(outcome.tasks_done[i])):
            j = (i + r) % n
            available[j] = gradients[j]
        decoded += row.coefficients[i] * encode_response(component.entries[i], available)

    full = np.sum(gradients, axis=0)
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


def _decodable_outcome(cluster: ClusterParams, s_max: int, seed: int, iteration: int,
                       max_resamples: int) -> tuple[IterationOutcome, int]:
    # Undecodable draws (kappa > s_max) are resampled with a fresh sub-seed.
    for attempt in range(max_resamples + 1):
        rng = np.random.default_rng(np.random.SeedSequence([seed, iteration, attempt]))
        outcome = simulate_ngc_iteration(rng, s_max, cluster)
        if outcome.decoded_sigma is not None:
            return outcome, attempt
    raise UndecodableIteration(f"iteration {iteration}: no decodable draw in {max_resamples} resamples")


def run_descent(
    dataset: Dataset,
    ngc: NestedGradientCode,
    iterations: int,
    eta: float,
    cluster: ClusterParams,
    seed: int,
    max_resamples: int = 1000,
) -> DescentRun:
    """Run coded gradient descent from theta = 0; deterministic given seed."""
    if iterations < 1:
        raise ValueError(f"iterations must be at least 1, got {iterations}")
    if cluster.n != ngc.n:
        raise ValueError(f"cluster has n={cluster.n} workers but code expects {ngc.n}")
    blocks = partition(dataset, ngc.n)
    state = DescentState(theta=np.zeros(dataset.c), eta=eta, iteration=0)
    thetas, records = [], []
    for t in range(iterations):
        outcome, resamples = _decodable_outcome(cluster, ngc.s_max, seed, t, max_resamples)
        state, report = coded_iteration(state, ngc, outcome, blocks, dataset.m)
        thetas.append(state.theta)
        records.append(
            IterationRecord(
                iteration=t,
                loss=dataset_loss(dataset, state.theta),
                recovery_error=report.relative_error,
                decoded_sigma=report.decoded_sigma,
                latency=report.latency,
                resamples=resamples,
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
