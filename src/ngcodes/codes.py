"""Cyclic gradient codes and their nested families.

A gradient code for n workers and n data blocks assigns block subsets to
workers through an encoding matrix B whose row i is supported on the cyclic
window i, i+1, ..., i+sigma (mod n). Coefficients are chosen so that every row
of B lies in the null space of a random sigma x n matrix H whose rows each sum
to zero. That null space has dimension n - sigma and contains the all-ones
vector, so (generically) any n - sigma rows of B can be combined into the
all-ones row and the sum of all partial gradients is recoverable from any
n - sigma worker responses. A draw of H is kept when its null-space residual
|H B^T|max is at most ``NULLSPACE_TOL``, and redrawn otherwise.

A nested family stacks one such code per tolerance sigma = 0..s_max, all from one builder (at sigma = 0,
H has no rows and each window is the single 1 on block i). The cyclic windows grow by one block per level,
so each worker can serve every level of the family from a single layered task schedule. A component and its
code file hold only the n (sigma + 1) window coefficients. ``decodings`` holds the decoding rule for
``decode_row``, ``verify_gradient_code`` and the descent plan: a row decodes from its n - sigma smallest
responsive workers, and each call solves every row it is given from one SVD of B, keeping nothing on the
code: every a with a B = 1 is a0 + M z, M spanning B's left null space, so a row is one sigma x sigma solve.
``verify_gradient_code`` audits a component at any n on a list of straggler sets bounded by ``VERIFY_BUDGET``.
"""
from __future__ import annotations

import itertools
import json
import math
import operator
from dataclasses import dataclass

import numpy as np

DECODE_TOL = 1e-8
NULLSPACE_TOL = 1e-10
MAX_BUILD_ATTEMPTS = 8
VERIFY_BUDGET = 2**28  # multiply-adds: verify decodes max(n, VERIFY_BUDGET // n^2) straggler sets
VERIFY_CHUNK = 2**24  # floats per decodings call: a set holds about 8 n + 2 sigma^2 (its rows and M blocks)


class CodeError(Exception):
    """Base class for construction and decoding failures."""


class ConstructionFailed(CodeError):
    """No draw within the retry budget kept its rows in null(H) within ``NULLSPACE_TOL``."""


class NotDecodable(CodeError):
    """Too few responsive workers for the requested tolerance."""


class NumericalFailure(CodeError):
    """A decoding solve exceeded the residual tolerance."""


class MissingGradient(CodeError):
    """A worker response references a partial gradient it never computed."""


def cyclic_support(i: int, sigma: int, n: int) -> np.ndarray:
    """Column indices of row i: the window i..i+sigma wrapped mod n."""
    return (i + np.arange(sigma + 1)) % n


@dataclass(frozen=True)
class EncodingMatrix:
    """An n x n encoding matrix held as its cyclic windows: ``windows[i, k]``
    is row i's coefficient of block (i + k) mod n, for k = 0..sigma."""

    windows: np.ndarray

    def __post_init__(self):
        # a NaN has no decoding, and the SVD of a matrix holding one does not converge
        if not (self.windows.ndim == 2 and 1 <= self.windows.shape[1] <= len(self.windows)
                and np.isfinite(self.windows).all()):
            raise ValueError("windows must be a finite (n, sigma + 1) array with sigma in [0, n-1]")

    @property
    def n(self) -> int:
        return self.windows.shape[0]

    @property
    def sigma(self) -> int:
        return self.windows.shape[1] - 1

    def dense(self) -> np.ndarray:
        """The n x n matrix B, each window placed on its blocks and zeros elsewhere."""
        b = np.zeros((self.n, self.n))
        np.put_along_axis(b, cyclic_support(np.arange(self.n)[:, None], self.sigma, self.n), self.windows, axis=1)
        return b


@dataclass(frozen=True)
class NestedGradientCode:
    """Component codes for sigma = 0..s_max with nested row supports; n and s_max are read off them."""

    seed: int
    components: tuple[EncodingMatrix, ...]

    @property
    def n(self) -> int:
        return self.components[0].n

    @property
    def s_max(self) -> int:
        return len(self.components) - 1


def _attempt_cyclic(n: int, sigma: int, rng: np.random.Generator) -> tuple[EncodingMatrix | None, float]:
    """One draw and its null-space residual |H B^T|max; (None, inf) when a row
    system is singular or a coefficient is not finite."""
    h = rng.standard_normal((sigma, n))
    h[:, -1] = -h[:, :-1].sum(axis=1)  # rows sum to zero, so ones lies in null(H)
    # row i puts 1 on block i and solves H[:, tail] x = -H[:, i] over the rest
    # of its window; the n systems are stacked as one (n, sigma, sigma) batch
    blocks = cyclic_support(np.arange(n)[:, None], sigma, n)
    heads, tails = blocks[:, 0], blocks[:, 1:]
    systems = h[:, tails].transpose(1, 0, 2)
    try:
        code = EncodingMatrix(np.hstack([np.ones((n, 1)), np.linalg.solve(systems, -h[:, heads].T[:, :, None])[:, :, 0]]))
    except ValueError:  # a singular system (LinAlgError is a ValueError), or a coefficient that is not finite
        return None, np.inf
    return code, float(np.abs(h @ code.dense().T).max(initial=0.0))  # at sigma = 0 the product is empty


def build_cyclic_encoding(n: int, sigma: int, seed: int) -> EncodingMatrix:
    """Construct one cyclic-support component for tolerance sigma in [0, n-1];
    sigma = 0 gives each worker exactly its own block.

    Deterministic in (n, sigma, seed). A draw is kept when every row lies in
    null(H) within ``NULLSPACE_TOL``; other draws are retried with sub-seeds
    derived from ``seed``; ConstructionFailed after the retry budget.
    """
    if not 0 <= sigma <= n - 1:
        raise ValueError(f"sigma must be in [0, n-1], got sigma={sigma}, n={n}")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    smallest = np.inf
    for attempt in range(MAX_BUILD_ATTEMPTS):
        code, residual = _attempt_cyclic(n, sigma, np.random.default_rng(np.random.SeedSequence([seed, attempt])))
        if residual <= NULLSPACE_TOL:  # a NaN residual fails too
            return code
        smallest = min(smallest, residual)
    raise ConstructionFailed(f"no ({n}, {n}, {sigma}) encoding after {MAX_BUILD_ATTEMPTS} attempts: smallest "
                             f"null-space residual {smallest:.3e} above {NULLSPACE_TOL:g}")


def _component_seed(seed: int, sigma: int) -> int:
    return int(np.random.SeedSequence([seed, sigma]).generate_state(1, np.uint64)[0])


def build_ngc(n: int, s_max: int, seed: int) -> NestedGradientCode:
    """Construct the nested family for tolerances 0..s_max."""
    if not 0 <= s_max <= n - 1:
        raise ValueError(f"s_max must be in [0, n-1], got s_max={s_max}, n={n}")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    return NestedGradientCode(seed, tuple(build_cyclic_encoding(n, sigma, _component_seed(seed, sigma))
                                          for sigma in range(s_max + 1)))


def decodings(code: EncodingMatrix, responsive) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per row of the (k, n) boolean ``responsive``, the decoding a of its n - sigma smallest responsive workers
    (0 on every other worker), its row a B and its residual |a B - 1|max: arrays (k, n), (k, n) and (k,).
    NotDecodable for the first row with fewer than n - sigma responsive workers; ValueError for another shape or dtype.

    Each row is solved as given, all from one SVD of B: each of two passes solves for the rest 1 - a B through the
    pseudo-inverse on the top n - sigma singular values and moves the step along M, the left singular vectors of
    the sigma smallest, to 0 on the row's stragglers. The first pass's 1 B+ is the same for every row, so it is
    taken once. A singular M block's row, or one whose solve overflows (a subnormal B), shows as its residual.
    Every product is taken row by row (``np.vecmat``, ``np.matvec``), so a row's bits are the same alone, in
    ``decode_row``, in ``verify_gradient_code`` and in any batch that holds no exactly singular M block (one sends
    the whole batch to ``pinv``).
    """
    responsive = np.asarray(responsive)
    n, need = code.n, code.n - code.sigma
    if responsive.dtype != bool or responsive.ndim != 2 or responsive.shape[1] != n:
        raise ValueError(f"responsive must be a (k, {n}) boolean array, got {responsive.dtype} {responsive.shape}")
    if (short := responsive.sum(axis=1) < need).any():
        raise NotDecodable(f"{responsive[short.argmax()].sum()} responsive workers, need {need} for sigma={code.sigma}")
    used = responsive & (np.cumsum(responsive, axis=1) <= need)
    stragglers = np.nonzero(~used)[1].reshape(len(used), code.sigma)
    u, s, vt = np.linalg.svd(b := code.dense())
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow ends in a residual no gate passes
        scale = np.divide(1.0, s[:need], out=np.zeros(need), where=s[:need] > 0)  # 0, not 1/0, for a zero value
        pinv, null = (vt[:need].T * scale) @ u[:, :need].T, u[:, need:]
        try:
            inverse = np.linalg.inv(null[stragglers])
        except np.linalg.LinAlgError:
            inverse = np.linalg.pinv(null[stragglers])
        a, rest = np.zeros((len(stragglers), n)), np.ones((1, n))  # rest = 1 - 0 B, one row shared by all
        for _ in range(2):
            step = np.vecmat(rest, pinv)
            step = step - np.vecmat(np.matvec(inverse, np.take_along_axis(step, stragglers, axis=1)), null.T)
            np.put_along_axis(step, stragglers, 0.0, axis=1)
            a += step
            rest = 1.0 - (ab := np.vecmat(a, b))
        return a, ab, np.abs(rest).max(axis=1)


def decode_row(code: EncodingMatrix, responsive_set) -> np.ndarray:
    """Decoding coefficients for one straggler pattern: a length-n vector whose
    combination of the code's rows is the all-ones row.

    ``responsive_set`` may hold more than n - sigma workers; only the n - sigma
    smallest indices get a coefficient, and every other entry is 0. Raises
    NotDecodable when fewer than n - sigma workers responded, NumericalFailure
    when the residual exceeds ``DECODE_TOL``, ValueError for a bad worker index.
    """
    n = code.n
    try:
        workers = list(responsive_set)
        if any(isinstance(w, bool) for w in workers):  # True is not worker 1, as a numpy bool is not
            raise TypeError
        responders = sorted(set(map(operator.index, workers)))
    except TypeError:
        raise ValueError("worker indices must be integers") from None
    if responders and (responders[0] < 0 or responders[-1] >= n):
        raise ValueError(f"worker indices must lie in [0, {n - 1}]")
    a, _, residual = decodings(code, np.isin(np.arange(n), responders)[None])
    if not residual[0] <= DECODE_TOL:  # a NaN residual fails too
        raise NumericalFailure(f"decode residual {residual[0]:.3e} above {DECODE_TOL:g}")
    return a[0]


@dataclass(frozen=True)
class VerificationReport:
    support_ok: bool
    decodable_ok: bool
    max_residual: float
    exhaustive: bool  # every sigma-subset was decoded, not a sample
    patterns: int
    worst: tuple[int, ...]  # the stragglers of max_residual

    @property
    def passed(self) -> bool:
        return self.support_ok and self.decodable_ok


def verify_gradient_code(code: EncodingMatrix) -> VerificationReport:
    """Check the defining properties at the code's tolerance sigma on one deterministic list of straggler sets.

    The list holds max(n, ``VERIFY_BUDGET`` // n^2) sets: every sigma-subset when there are no more (so sigma = 1
    at any n), else the n contiguous sets, then uniform sets drawn from SeedSequence([n, sigma]). ``decodings``
    decodes it in chunks of ``VERIFY_CHUNK`` floats, each set to the residual ``decode_row`` would leave. The
    residual gate is ``DECODE_TOL``. The support is ok when no window holds a zero; a NaN residual counts as
    undecodable.
    """
    n, sigma = code.n, code.sigma
    patterns, rows = max(n, VERIFY_BUDGET // n**2), max(1, VERIFY_CHUNK // (8 * n + 2 * sigma**2))
    exhaustive = math.comb(n, sigma) <= patterns
    if exhaustive:
        subsets = itertools.combinations(range(n), sigma)
        chunks = (np.array(c, dtype=int, ndmin=2) for c in iter(lambda: list(itertools.islice(subsets, rows)), []))
    else:
        rng, drawn = np.random.default_rng(np.random.SeedSequence([n, sigma])), patterns - n
        chunks = itertools.chain(np.split((np.arange(n)[:, None] + np.arange(sigma)) % n, range(rows, n, rows)), (
            rng.random((min(rows, drawn - i), n)).argsort(axis=1)[:, :sigma] for i in range(0, drawn, rows)))
    worst = []  # per chunk: its max residual (the first NaN, if any) and that set's stragglers
    for stragglers in chunks:
        responsive = np.ones((len(stragglers), n), dtype=bool)
        responsive[np.arange(len(stragglers))[:, None], stragglers] = False
        residuals = decodings(code, responsive)[2]
        worst.append((residuals[i := int(np.argmax(residuals))], tuple(np.flatnonzero(~responsive[i]).tolist())))
    max_residual, pattern = worst[int(np.argmax([w[0] for w in worst]))]  # a NaN residual propagates and fails
    return VerificationReport(bool(code.windows.all()), bool(max_residual <= DECODE_TOL), float(max_residual),
                              exhaustive, math.comb(n, sigma) if exhaustive else patterns, pattern)


def verify_nesting(ngc: NestedGradientCode):
    """Check row-support inclusion between adjacent components, window offset
    by window offset (offset k of row i is block (i + k) mod n at every sigma).

    Returns (True, None) when nested, else (False, (sigma, row)) for the first
    violation.
    """
    for sigma, (comp, wider) in enumerate(zip(ngc.components, ngc.components[1:])):
        lost, width = comp.windows != 0, min(comp.sigma, wider.sigma) + 1
        lost[:, :width] &= wider.windows[:, :width] == 0  # an offset past the wider window stays lost
        rows = np.flatnonzero(lost.any(axis=1))
        if rows.size:
            return False, (sigma, int(rows[0]))  # Python ints: the tuple is printed
    return True, None


def encode_response(coeff_row: np.ndarray, partial_gradients) -> np.ndarray:
    """One worker's response: the coefficient-weighted sum of its gradients.

    ``partial_gradients`` is indexed by block; blocks outside the row support
    may be None and are never read. MissingGradient if a support index is None.
    """
    coeff_row = np.asarray(coeff_row, dtype=float)
    support = np.flatnonzero(coeff_row)
    if support.size == 0:
        raise ValueError("coefficient row has empty support")
    out = None
    for j in support:
        g = partial_gradients[j]
        if g is None:
            raise MissingGradient(f"partial gradient {j} not available")
        term = coeff_row[j] * np.asarray(g, dtype=float)
        out = term if out is None else out + term
    return out


def code_to_json(ngc: NestedGradientCode) -> str:
    """Serialize to JSON with row-major windows (exact double round-trip)."""
    return json.dumps({
        "n": ngc.n,
        "s_max": ngc.s_max,
        "seed": ngc.seed,
        "components": [
            {"sigma": comp.sigma, "windows": comp.windows.reshape(-1).tolist()}
            for comp in ngc.components
        ],
    })


def _json_int(value, name: str) -> int:
    """``value`` if it is a JSON integer; a float, a bool or a string is a ValueError."""
    int(value)  # a null, a list, an object or a non-numeric string fails here, with int()'s message
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {json.dumps(value)}")
    return value


def code_from_json(text: str) -> NestedGradientCode:
    """The code of a JSON document; ValueError unless it is an object holding the
    integers n >= 1, s_max in [0, n-1] and seed >= 0 (as build_ngc requires) and
    a list of component objects, each with its integer sigma and n (sigma + 1) windows."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("code file must hold a JSON object")
    if missing := [key for key in ("n", "s_max", "seed", "components") if key not in doc]:
        raise ValueError(f"code file has no {missing[0]!r}")
    try:
        n, s_max, seed = (_json_int(doc[key], key) for key in ("n", "s_max", "seed"))
        if n < 1 or not 0 <= s_max <= n - 1:
            raise ValueError(f"need n >= 1 and s_max in [0, n-1], got n={n}, s_max={s_max}")
        if seed < 0:
            raise ValueError(f"need seed >= 0, got seed={seed}")
        raw = doc["components"]
        if len(raw) != s_max + 1:
            raise ValueError(f"expected {s_max + 1} components, found {len(raw)}")
        components = []
        for sigma, comp in enumerate(raw):
            if not (isinstance(comp, dict) and "sigma" in comp and "windows" in comp):
                raise ValueError(f"component {sigma} is not an object holding sigma and windows")
            if _json_int(comp["sigma"], f"component {sigma} sigma") != sigma:
                raise ValueError(f"component {sigma} labelled sigma={comp['sigma']}")
            values = comp["windows"]
            if not isinstance(values, list) or len(values) != n * (sigma + 1):
                raise ValueError(f"component {sigma}: expected a list of {n * (sigma + 1)} window coefficients")
            if bad := [v for v in values if type(v) not in (int, float)]:  # a bool, a string, a null, a list
                raise ValueError(f"component {sigma}: window coefficients must be numbers, got {json.dumps(bad[0])}")
            components.append(EncodingMatrix(np.array(values, dtype=float).reshape(n, sigma + 1)))
    except (TypeError, OverflowError) as exc:  # a value of the wrong JSON type, or an infinite one
        raise ValueError(f"malformed code file: {exc}") from exc
    return NestedGradientCode(seed, tuple(components))
