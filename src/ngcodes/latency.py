"""Exact latency distributions under the shifted-exponential worker model.

Each non-failing worker needs gamma + eps + u*rho plus an Erlang(u, lambda)
stochastic part to deliver its u-th response; workers fail outright with
probability p_e. Layer u is decodable once n - u + 1 workers have finished u
tasks: a fixed-tolerance code may only decode at layer sigma + 1 (uncoded is
sigma = 0), the nested scheme at the first of layers 1..s_max + 1.

Every scheme is evaluated by one engine. Failures fold into the per-worker
probability q_u(t) = (1 - p_e) F_u(t) of having finished at least u tasks by
t, so a failed worker is one that never reaches any layer. The quorum counts
N_u (workers with >= u tasks) are nested, and the engine walks the allowed
layers upward from N_0 = n: given N_a at the allowed layer a below, N_u ~
Bin(N_a, q_u / q_a). The mass with N_u > n - u decodes at layer u and leaves
the walk; what leaves, summed over the layers, is the CDF. The counts fall
and the quorums drop by one per layer, so a count N_u <= n - top, top the
highest allowed layer, can never decode and is dropped: only the counts
n - top + 1 .. n - u stay live. With more than s_max failures no layer
reaches its quorum, so no separate sum over failure counts is needed. The
binomials are evaluated in log space in saddle-point form, so nothing
overflows and no precision is lost at large n. A grid point costs O(1) for
uncoded, O(sigma) for gc:sigma and top (top + 1) (top + 2) / 6 = O(s_max^3)
terms for ngc, whatever n. One call evaluates a block of live counts, as many
as fit in BLOCK_TERMS terms at top terms (the most a count has) per count and
grid point, or one count alone; the sums still run count by count in
ascending order. The memory is the block budget per call, plus O(s_max) per
grid point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


WAIT_BOUND = 50.0  # above lam times any exponential wait the simulator can draw
BLOCK_TERMS = 2**13  # binomial terms (value, grid point) per _binom_pmf call; bounds the engine's memory


class InvalidParams(ValueError):
    """Cluster or scheme parameters outside their valid range."""


@dataclass(frozen=True)
class ClusterParams:
    """Stochastic worker model: rate, shifts, signaling, failure probability."""

    lam: float    # exponential rate of the stochastic part, > 0
    rho: float    # deterministic time per task
    gamma: float  # one-off communication delay
    eps: float    # signaling overhead charged per response
    p_e: float    # probability a worker fails for the whole iteration
    n: int        # worker count

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lam, self.rho, self.gamma, self.eps)):
            raise InvalidParams("lam, rho, gamma, eps must be finite")
        if self.lam <= 0:
            raise InvalidParams(f"lam must be positive, got {self.lam}")
        if self.rho < 0 or self.gamma < 0 or self.eps < 0:
            raise InvalidParams("rho, gamma, eps must be non-negative")
        if not 0.0 <= self.p_e <= 1.0:
            raise InvalidParams(f"p_e must lie in [0, 1], got {self.p_e}")
        if self.n < 1:
            raise InvalidParams(f"n must be at least 1, got {self.n}")
        # finite parameters can still overflow the finish times: then a draw is
        # undecodable although no worker failed, which would read as "more workers
        # failed than tolerated". A finish time is at most gamma + eps + n * rho
        # plus n exponential waits, each below 50/lam: numpy's largest standard
        # exponential draw is 7.70 + 53 ln 2, about 44.4. An n too large for a
        # float overflows too.
        try:
            finish = self.gamma + self.eps + self.n * (self.rho + WAIT_BOUND / self.lam)
        except OverflowError:
            finish = math.inf
        if not math.isfinite(finish):
            raise InvalidParams(f"finish times overflow: gamma + eps + n * (rho + {WAIT_BOUND:g}/lam) "
                                f"is not finite at lam={self.lam:g}, n={self.n}")


@dataclass(frozen=True)
class Scheme:
    """A latency scheme: uncoded, gc (fixed sigma) or ngc (max tolerance s_max)."""

    kind: str
    tolerance: int = 0

    def __post_init__(self):
        if self.kind not in ("uncoded", "gc", "ngc"):
            raise InvalidParams(f"unknown scheme kind {self.kind!r}")
        if self.tolerance < 0:
            raise InvalidParams("tolerance must be non-negative")
        if self.kind == "uncoded" and self.tolerance != 0:
            raise InvalidParams("uncoded scheme has no tolerance parameter")

    @property
    def label(self) -> str:
        if self.kind == "uncoded":
            return "uncoded"
        return f"{self.kind}:{self.tolerance}"

    @property
    def layers(self) -> list[int]:
        """The layers u the scheme may decode at, ascending.

        Uncoded decodes only at layer 1, gc:sigma only at sigma + 1 and
        ngc:s_max at any of 1..s_max + 1.
        """
        if self.kind == "ngc":
            return list(range(1, self.tolerance + 2))
        return [self.tolerance + 1]


def parse_scheme(text: str) -> Scheme:
    """Parse 'uncoded', 'gc:SIGMA' or 'ngc:SMAX'."""
    text = text.strip()
    if text == "uncoded":
        return Scheme("uncoded")
    kind, sep, value = text.partition(":")
    if sep and kind in ("gc", "ngc"):
        try:
            return Scheme(kind, int(value))
        except ValueError as exc:
            raise InvalidParams(f"bad scheme tolerance in {text!r}") from exc
    raise InvalidParams(f"cannot parse scheme {text!r}")


@dataclass(frozen=True)
class LatencyCurve:
    """A sampled CDF: P(T <= t) over a non-empty, strictly increasing time grid."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        grid = _check_grid(self.grid)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if values.shape != grid.shape:
            raise InvalidParams("grid and values must be matching 1-d arrays")
        if (values < -1e-12).any() or (values > 1 + 1e-12).any():
            raise InvalidParams("curve values must lie in [0, 1]")
        if values.size >= 2 and (np.diff(values) < -1e-12).any():
            raise InvalidParams("curve values must be nondecreasing")


def _layer_cdf(u: int, ts: np.ndarray, p: ClusterParams) -> np.ndarray:
    """P(worker finishes u tasks by t): shifted Erlang(u, lam), vectorized in t.

    With x = lam * (t - shift), F_u = P(Poisson(x) >= u), summed on its small
    side: below x = u the terms k >= u directly, so the left tail keeps its
    digits; from x = u on, 1 minus the u terms k < u, in log space.
    """
    with np.errstate(over="ignore"):  # an infinite x is right: +inf clamps to 1e300 below (F_u = 1), -inf gives 0
        x = p.lam * (ts - (p.gamma + p.eps + u * p.rho))
    out = np.zeros(ts.shape)
    high = x >= u
    low = (x > 0) ^ high  # 0 < x < u
    if low.any():
        xl = x[low]
        # term k is x / k times term k - 1; once below 1e-17 of term u (within u + 63 terms) no sum changes
        ks = np.arange(u + 1, 2 * u + 64, dtype=float)
        kept = np.count_nonzero(np.multiply.accumulate(xl.max() / ks) > 1e-17)
        rest = np.multiply.accumulate(xl / ks[:kept, None]).sum(axis=0)
        out[low] = np.exp(u * np.log(xl) - math.lgamma(u + 1) - xl + np.log1p(rest))
    if high.any():
        xh = np.minimum(x[high], 1e300)  # t = inf evaluates to 1 instead of NaN
        ks = np.arange(u, dtype=float)
        lgk = np.array([math.lgamma(k + 1) for k in range(u)])
        logterms = ks[:, None] * np.log(xh)[None, :] - lgk[:, None] - xh[None, :]
        top = logterms.max(axis=0)
        out[high] = 1.0 - np.exp(top + np.log(np.exp(logterms - top).sum(axis=0)))
    return np.clip(out, 0.0, 1.0)


_EXACT_STIRLING = np.array([math.lgamma(i + 1) - (i + 0.5) * math.log(i) + i - 0.5 * math.log(2 * math.pi)
                            for i in range(1, 16)])


def _stirling_errors(n: int) -> np.ndarray:
    """log k! - (k + 1/2) log k + k - log sqrt(2 pi) for k = 1..n (entry 0 unused).

    Exact through lgamma for k <= 15, the Stirling series beyond.
    """
    k = np.arange(n + 1, dtype=float)
    k[0] = 1.0
    k2 = 1.0 / (k * k)
    out = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - k2 / 1188) * k2) * k2) * k2) / k
    out[1 : min(n, 15) + 1] = _EXACT_STIRLING[: min(n, 15)]
    return out


def _binom_pmf(size, j: np.ndarray, p: np.ndarray, stirling: np.ndarray) -> np.ndarray:
    """P(Binomial(size, p) = j), shape (len(j), len(p)), in log space.

    ``size`` is either one int for all of ``j``, which then ascends, or an int
    array like ``j`` that gives each value its own size. Interior values use
    the saddle-point form (Loader, "Fast and accurate computation of binomial
    probabilities", 2000): only small Stirling corrections and deviances
    enter, never log-factorials, so the relative error stays near machine
    precision at any size. ``stirling`` is ``_stirling_errors(n)`` for some
    n >= every size.
    """
    col = j[:, None]
    per_value = isinstance(size, np.ndarray)
    sizes = size[:, None] if per_value else size
    # built in place in three (len(j), len(p)) buffers; only an array of sizes
    # allocates two more, the means size * p and size * (1 - p). Each
    # deviance x log(x / m) + m - x is taken as
    # x log1p(d / m) - d with d = x - m, free of cancellation when x is close to m.
    log_pmf, d, dev = (np.empty((len(j), len(p))) for _ in range(3))
    log_pmf[:] = stirling[sizes] - stirling[col] - stirling[sizes - col]
    with np.errstate(divide="ignore", invalid="ignore"):
        for x, m in ((col, sizes * p), (sizes - col, sizes * (1.0 - p))):
            np.subtract(x, m, out=d)
            np.multiply(x, np.log1p(np.divide(d, m, out=dev), out=dev), out=dev)
            log_pmf -= np.subtract(dev, d, out=dev)
        log_pmf -= 0.5 * np.log(2 * math.pi * col * (sizes - col) / sizes)
        # the end points are single powers; 0 * log(0) counts as 0
        if not per_value:  # j ascends, so only its first and last value can be one
            if j[0] == 0:
                log_pmf[0] = size * np.log1p(-p) if size else 0.0
            if j[-1] == size:
                log_pmf[-1] = size * np.log(p) if size else 0.0
        else:
            for end, log_q in ((j == 0, np.log1p(-p)), (j == size, np.log(p))):
                at = size[end, None]
                log_pmf[end] = np.where(at > 0, at * log_q, 0.0)
    return np.exp(log_pmf, out=log_pmf)


def _check_grid(grid) -> np.ndarray:
    """The grid as a float array; InvalidParams unless it is a non-empty,
    strictly increasing 1-d array without NaN."""
    ts = np.asarray(grid, dtype=float)
    if ts.ndim != 1 or ts.size < 1:
        raise InvalidParams("grid must be a non-empty 1-d array")
    if np.isnan(ts).any() or not (np.diff(ts) > 0).all():
        raise InvalidParams("grid must be strictly increasing")
    return ts


def _check_tolerance(scheme: Scheme, p: ClusterParams):
    if scheme.tolerance > p.n - 1:  # Scheme itself rejects negative tolerances
        name = "s_max" if scheme.kind == "ngc" else "sigma"
        raise InvalidParams(f"{name} must lie in [0, n-1], got {scheme.tolerance} with n={p.n}")


def _decode_cdf(reach: np.ndarray, layers: list[int], p: ClusterParams) -> np.ndarray:
    """P(some allowed layer is decodable by t), elementwise over the grid.

    ``layers`` ascends and ``reach[i]`` is F_{layers[i]}(t), shape
    (len(layers), len(grid)). The walk goes up the allowed layers from N_0 = n;
    ``mass[i]`` is P(N_a = counts[i] and no allowed layer <= a decodable) at
    the allowed layer a just passed, so past the first layer the live counts
    are n - top + 1 .. n - a: top - a rows per grid point, at most s_max.
    Live count k costs k - n + top terms per grid point: O(1) for uncoded,
    O(sigma) for gc:sigma and O(s_max^3) over the walk for ngc. Mass that
    reaches a quorum is summed, not subtracted from 1, which keeps small
    probabilities accurate.
    """
    n, top = p.n, layers[-1]
    low = n - top + 1  # a count below this reaches no quorum at any allowed layer
    q = (1.0 - p.p_e) * reach
    stirling = _stirling_errors(n)
    decoded = np.zeros(q.shape[1])
    counts, mass, q_below = range(n, n + 1), np.ones((1, q.shape[1])), np.ones(q.shape[1])  # N_0 = n
    step = max(1, BLOCK_TERMS // (top * q.shape[1]))  # counts per call; no count has more than top values
    for u, q_u in zip(layers, q):
        # a worker that reached the allowed layer below reaches u with probability r (0 if none can)
        r = np.clip(np.divide(q_u, q_below, out=np.zeros_like(q_u), where=q_below > 0), 0.0, 1.0)
        live = n - u + 1 - low  # the counts low .. n - u miss the quorum and stay live
        carried = np.zeros((live, q.shape[1]))
        for first in range(0, len(counts), step):
            ks = counts[first : first + step]
            js = [np.arange(low, k + 1) for k in ks]  # count k evaluates Bin(k, r) at j = low .. k
            if len(ks) == 1:
                joint = _binom_pmf(ks[0], js[0], r, stirling)
            else:
                sizes = np.repeat(ks, [len(j) for j in js])
                joint = _binom_pmf(sizes, np.concatenate(js), r, stirling)
            row = 0
            for m, j in zip(mass[first : first + step], js):  # ascending counts, as the sums require
                rows = joint[row : row + len(j)]
                row += len(j)
                rows *= m
                carried[: len(j)] += rows[:live]
                if len(j) > live:  # only counts above n - u reach the quorum
                    decoded += rows[live:].sum(axis=0)
        counts, mass, q_below = range(low, low + live), carried, q_u
    return np.clip(decoded, 0.0, 1.0)


def latency_curve(scheme: Scheme, grid, p: ClusterParams) -> LatencyCurve:
    """Evaluate the analytic CDF of a scheme over a strictly increasing grid."""
    ts = _check_grid(grid)
    _check_tolerance(scheme, p)
    reach = np.stack([_layer_cdf(u, ts, p) for u in scheme.layers])
    return LatencyCurve(grid=ts, values=_decode_cdf(reach, scheme.layers, p))
