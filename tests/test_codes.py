import dataclasses
import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import ngcodes.codes
from ngcodes.cli import main
from ngcodes.codes import (
    ConstructionFailed,
    DECODE_TOL,
    EncodingMatrix,
    MissingGradient,
    NestedGradientCode,
    NotDecodable,
    NumericalFailure,
    build_cyclic_encoding,
    build_ngc,
    code_from_json,
    code_to_json,
    cyclic_support,
    decode_row,
    decodings,
    encode_response,
    verify_gradient_code,
    verify_nesting,
)


def responsive_to(n, stragglers):
    """The (k, n) responsive mask whose row i holds every worker but those of ``stragglers[i]``."""
    mask = np.ones((len(stragglers), n), dtype=bool)
    for row, missing in zip(mask, stragglers):
        row[list(missing)] = False
    return mask


def ones_residual(b, subset):
    """Oracle: least-squares distance from the all-ones row to the span of the
    chosen rows of the dense matrix b, solved through scipy independently of
    the decoding path."""
    rows = b[list(subset)]
    solution, *_ = scipy.linalg.lstsq(rows.T, np.ones(b.shape[0]))
    return float(np.abs(rows.T @ solution - 1.0).max())


def sum_recovery_error(matrix, stragglers, rng):
    """Oracle: decode a straggler pattern and compare the recovered combination
    of encoded responses against the directly summed random gradients."""
    n = matrix.n
    gradients = rng.standard_normal((n, 3))
    responses = matrix.dense() @ gradients
    responsive = sorted(set(range(n)) - set(stragglers))
    coeff = decode_row(matrix, responsive)
    recovered = coeff @ responses
    direct = gradients.sum(axis=0)
    return float(np.abs(recovered - direct).max() / np.abs(direct).max())


def test_cyclic_encoding_rejects_sigma_out_of_range():
    # sigma = n would leave no responder
    for sigma in (-1, 8):
        with pytest.raises(ValueError):
            build_cyclic_encoding(8, sigma, 0)


def test_cyclic_supports_wrap():
    matrix = build_cyclic_encoding(8, 3, seed=1)
    assert set(np.flatnonzero(matrix.dense()[0])) == {0, 1, 2, 3}
    assert set(np.flatnonzero(matrix.dense()[6])) == {6, 7, 0, 1}  # wraps past n


def test_support_exactly_sigma_plus_one():
    for seed in range(3):
        matrix = build_cyclic_encoding(8, 3, seed=seed)
        assert matrix.windows.shape == (8, 4) and matrix.sigma == 3
        for i in range(8):
            support = set(np.flatnonzero(matrix.dense()[i]))
            assert support == set(cyclic_support(i, 3, 8).tolist())
            assert len(support) == 4


def test_every_three_row_subset_recovers_ones():
    matrix = build_cyclic_encoding(4, 1, seed=0)
    for subset in itertools.combinations(range(4), 3):
        assert ones_residual(matrix.dense(), subset) < 1e-9


def test_a_null_space_residual_above_the_tolerance_fails_construction(monkeypatch):
    monkeypatch.setattr(ngcodes.codes, "NULLSPACE_TOL", -1.0)  # no residual is below it
    with pytest.raises(ConstructionFailed) as info:
        build_cyclic_encoding(10, 4, 3)
    smallest = min(ngcodes.codes._attempt_cyclic(10, 4, np.random.default_rng(np.random.SeedSequence([3, attempt])))[1]
                   for attempt in range(ngcodes.codes.MAX_BUILD_ATTEMPTS))
    assert f"smallest null-space residual {smallest:.3e} above -1" in str(info.value)


class FixedDraws:
    """A generator stub whose standard normals are a fixed row, repeated."""

    def __init__(self, row):
        self.row = np.array(row, dtype=float)

    def standard_normal(self, shape):
        return np.resize(self.row, shape)


@pytest.mark.parametrize("row", [[0.0, 0.0, 0.0], [1e300, 1e-300, 0.0]], ids=["singular", "overflowing"])
def test_a_draw_without_finite_coefficients_is_a_failed_attempt(monkeypatch, row):
    # zeros make every row system exactly singular; at n=3, sigma=1 row 0 solves
    # 1e-300 x = -1e300, whose x overflows to -inf
    assert ngcodes.codes._attempt_cyclic(3, 1, FixedDraws(row)) == (None, math.inf)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: FixedDraws(row))
    with pytest.raises(ConstructionFailed, match="smallest null-space residual inf"):
        build_cyclic_encoding(3, 1, 0)


def test_identity_base_component():
    ngc = build_ngc(8, 0, seed=5)
    assert len(ngc.components) == 1
    assert np.array_equal(ngc.components[0].windows, np.ones((8, 1)))
    assert np.array_equal(ngc.components[0].dense(), np.eye(8))
    assert np.allclose(decode_row(ngc.components[0], range(8)), 1.0)


@pytest.mark.parametrize("n", [1, 2, 8, 13, 256])
def test_cyclic_encoding_at_sigma_zero_puts_each_worker_on_its_own_block(n):
    for seed in (0, 7, ngcodes.codes._component_seed(42, 0)):
        assert np.array_equal(build_cyclic_encoding(n, 0, seed).windows, np.ones((n, 1)))


def test_a_family_reads_n_and_s_max_off_its_components():
    built = build_ngc(8, 3, 0)
    assert [field.name for field in dataclasses.fields(NestedGradientCode)] == ["seed", "components"]
    ngc = NestedGradientCode(seed=0, components=built.components)
    assert (ngc.n, ngc.s_max) == (8, 3)
    loaded = code_from_json(code_to_json(ngc))
    assert (loaded.n, loaded.s_max, loaded.seed) == (8, 3, 0)
    assert all(np.array_equal(a.windows, b.windows) for a, b in zip(loaded.components, built.components, strict=True))


def test_full_density_at_max_tolerance():
    ngc = build_ngc(6, 5, seed=1)
    b = ngc.components[5].dense()
    assert all(np.count_nonzero(b[i]) == 6 for i in range(6))


def test_nesting_holds_for_built_families():
    # component sigma depends only on (n, sigma, seed), so the family with
    # s_max = n - 1 contains every smaller family as a prefix
    for n in range(2, 13):
        for seed in range(10):
            ok, violation = verify_nesting(build_ngc(n, n - 1, seed))
            assert ok, f"n={n} seed={seed} violated at {violation}"


def test_nesting_vacuous_for_single_component():
    assert verify_nesting(build_ngc(8, 0, seed=7)) == (True, None)


def test_nesting_violation_reported():
    ngc = build_ngc(8, 2, seed=11)
    shuffled = ngc.__class__(
        seed=11,
        components=(ngc.components[2], ngc.components[1], ngc.components[0]),
    )
    ok, violation = verify_nesting(shuffled)
    assert not ok and violation == (0, 0)
    assert all(type(v) is int for v in violation)  # verify prints the tuple: no np.int64(...)
    # the first violating row of the first violating sigma: rows 5 and 6 of
    # component 2 drop their own block (window offset 0), which component 1 holds
    windows = ngc.components[2].windows.copy()
    windows[[6, 5], 0] = 0.0
    cut = ngc.__class__(seed=11,
                        components=(*ngc.components[:2], EncodingMatrix(windows)))
    assert verify_nesting(cut) == (False, (1, 5))
    # a zero at the last offset of component 2 drops a block component 1 never held: still nested
    windows = ngc.components[2].windows.copy()
    windows[3, 2] = 0.0
    assert verify_nesting(ngc.__class__(seed=11,
                                        components=(*ngc.components[:2], EncodingMatrix(windows)))) == (True, None)


def dense_nesting_violation(ngc):
    """Oracle: the first (sigma, row) whose dense row holds a block that the
    next component's row does not, or None."""
    for sigma, (a, b) in enumerate(zip(ngc.components, ngc.components[1:])):
        for row in range(ngc.n):
            if np.any((a.dense()[row] != 0) & (b.dense()[row] == 0)):
                return sigma, row
    return None


def test_window_nesting_matches_the_dense_masks():
    rng = np.random.default_rng(7)
    ngc = build_ngc(10, 5, seed=4)
    for _ in range(200):
        components = [EncodingMatrix(np.where(rng.random(c.windows.shape) < 0.1, 0.0, c.windows))
                      for c in ngc.components]
        tampered = ngc.__class__(seed=4, components=tuple(components))
        expected = dense_nesting_violation(tampered)
        assert verify_nesting(tampered) == ((True, None) if expected is None else (False, expected))


def test_construction_is_deterministic():
    a = build_ngc(9, 4, seed=123)
    b = build_ngc(9, 4, seed=123)
    for x, y in zip(a.components, b.components):
        assert np.array_equal(x.windows, y.windows)
    c = build_ngc(9, 4, seed=124)
    assert not np.array_equal(a.components[1].windows, c.components[1].windows)


def test_decode_requires_quorum():
    matrix = build_cyclic_encoding(8, 3, seed=2)
    with pytest.raises(NotDecodable):
        decode_row(matrix, {0, 1, 2, 3})


def test_decode_subset_support_and_residual():
    matrix = build_cyclic_encoding(8, 3, seed=2)
    coefficients = decode_row(matrix, {0, 1, 2, 3, 4})
    assert set(np.flatnonzero(coefficients)) <= {0, 1, 2, 3, 4}
    assert np.abs(coefficients @ matrix.dense() - 1.0).max() <= 1e-8


def test_decode_uses_smallest_indices_when_overprovisioned():
    matrix = build_cyclic_encoding(8, 3, seed=2)
    coefficients = decode_row(matrix, range(8))
    assert np.flatnonzero(coefficients).tolist() == [0, 1, 2, 3, 4]


MASK = [True] * 5 + [False] * 3  # a mask of workers 0..4, not the index list {0, 1}


@pytest.mark.parametrize("responsive", [[0.5, 1.9, 2, 3, 4], ["1", "2", "3", "4", "5"], [0, 1, 2, 3, 4.0],
                                        MASK, np.array(MASK), [0, 1, 2, 3, True]])
def test_decode_rejects_worker_indices_that_are_not_integers(responsive):
    # a float, a string or a bool names no worker; it is not truncated or converted to one
    with pytest.raises(ValueError, match="worker indices must be integers"):
        decode_row(build_ngc(8, 3, 1).components[3], responsive)


def test_decode_takes_python_and_numpy_integers_alike():
    code = build_ngc(8, 3, 1).components[3]
    expected = decode_row(code, [0, 1, 2, 3, 4])
    for responsive in (np.arange(5), [np.int32(i) for i in range(5)], {np.int64(4), 3, 2, 1, 0}, range(5)):
        assert np.array_equal(decode_row(code, responsive), expected)


def test_a_decoding_is_of_the_matrix_the_code_holds_now():
    # scaling each row keeps the rows in null(H), so the edited code decodes too, with other coefficients;
    # a decoding kept from before the edit is far from the all-ones row of the edited matrix
    code = build_cyclic_encoding(8, 3, seed=2)
    decode_row(code, range(3, 8))
    code.windows[:] *= np.arange(1.0, 9.0)[:, None]
    b = code.dense()
    assert np.abs(decode_row(code, range(3, 8)) @ b - 1.0).max() <= DECODE_TOL
    a, ab, residuals = decodings(code, responsive_to(8, [[0, 1, 2], [1, 4, 6]]))
    assert np.abs(a @ b - 1.0).max() <= DECODE_TOL and residuals.max() <= DECODE_TOL
    assert np.abs(ab - 1.0).max() <= DECODE_TOL
    report = verify_gradient_code(code)
    assert report.passed and report.max_residual <= DECODE_TOL


def test_verify_identity_passes_at_sigma_zero():
    report = verify_gradient_code(build_cyclic_encoding(6, 0, 0))
    assert report.passed and report.max_residual <= 1e-12


def test_verify_built_code_passes(monkeypatch):
    matrix = build_cyclic_encoding(8, 3, seed=4)
    report = verify_gradient_code(matrix)
    assert report.support_ok and report.decodable_ok

    def nan_residuals(code, responsive):
        return np.zeros(responsive.shape), np.zeros(responsive.shape), np.full(len(responsive), math.nan)

    # a NaN residual compares false against any tolerance: it must not pass
    monkeypatch.setattr(ngcodes.codes, "decodings", nan_residuals)
    report = verify_gradient_code(matrix)
    assert report.support_ok and not report.decodable_ok and not report.passed
    assert math.isnan(report.max_residual)


def test_decodings_at_n128_are_exact_on_the_stragglers_and_within_1e_10():
    n, sigma = 128, 16
    matrix = build_cyclic_encoding(n, sigma, seed=0)
    b = matrix.dense()
    rng = np.random.default_rng(0)
    patterns = [rng.choice(n, sigma, replace=False) for _ in range(20)]
    patterns += [(start + np.arange(sigma)) % n for start in rng.integers(0, n, 20)]
    for stragglers in patterns:
        coefficients = decode_row(matrix, set(range(n)) - set(stragglers.tolist()))
        assert np.all(coefficients[stragglers] == 0.0)
        assert np.abs(coefficients @ b - 1.0).max() <= 1e-10


@pytest.mark.parametrize("n, sigma, seed", [(6, 2, 3), (12, 5, 42), (64, 8, 2)])
def test_straggler_residuals_are_those_of_the_returned_decodings(n, sigma, seed):
    # the residual of the last pass's rest 1 - a B is |a B - 1|max of the returned a, bit for bit,
    # and the returned a B is that product
    matrix = build_cyclic_encoding(n, sigma, seed)
    rng = np.random.default_rng(seed)
    stragglers = np.array([np.sort(rng.choice(n, sigma, replace=False)) for _ in range(20)])
    a, ab, residuals = decodings(matrix, responsive_to(n, stragglers))
    b = matrix.dense()
    assert np.array_equal(residuals, [np.abs(a[i] @ b - 1).max() for i in range(len(a))])
    assert np.array_equal(ab, (a[:, None] @ b)[:, 0]) and np.array_equal(residuals, np.abs(ab - 1).max(axis=1))


@pytest.mark.parametrize("n, s_max, seed", [(12, 5, 42), (64, 8, 2), (128, 16, 7)])
def test_a_stack_of_straggler_patterns_decodes_each_as_alone(n, s_max, seed):
    # every product is taken one pattern at a time, so a pattern's bits do not depend on its batch
    rng = np.random.default_rng(seed)
    for code in build_ngc(n, s_max, seed).components[1:]:
        sigma = code.sigma
        stragglers = np.array([np.sort(rng.choice(n, sigma, replace=False)) for _ in range(10)]
                              + [np.sort((start + np.arange(sigma)) % n) for start in rng.integers(0, n, 10)])
        a, _, residuals = decodings(code, responsive_to(n, stragglers))
        for row, coefficients, residual in zip(stragglers, a, residuals):
            alone, _, alone_residual = decodings(code, responsive_to(n, [row]))
            assert np.array_equal(coefficients, alone[0]) and residual == alone_residual[0]
            assert np.array_equal(coefficients, decode_row(code, set(range(n)) - set(row.tolist())))
        if n == 12 or sigma in (2, 3, s_max):  # exhaustive at n = 12, and up to sigma = 3 (2) at n = 64 (128)
            report = verify_gradient_code(code)
            assert report.max_residual == decodings(code, responsive_to(n, [report.worst]))[2][0]
            assert report.exhaustive == (n == 12 or sigma <= (3 if n == 64 else 2))
            if n == 12:  # the worst of every pattern decoded alone
                assert report.max_residual == max(decodings(code, responsive_to(n, [pattern]))[2][0]
                                                  for pattern in itertools.combinations(range(n), sigma))


@pytest.mark.parametrize("n, sigma, seed", [(12, 5, 42), (64, 8, 2)])
def test_decodings_solves_each_row_as_given_and_gives_it_its_bits_alone(n, sigma, seed, monkeypatch):
    code = build_cyclic_encoding(n, sigma, seed)
    rng = np.random.default_rng(seed)
    base = responsive_to(n, [rng.choice(n, sigma, replace=False) for _ in range(4)])
    wider = base.copy()  # one straggler back: n - sigma + 1 responsive, of which the n - sigma smallest are used
    wider[np.arange(4), [rng.choice(np.flatnonzero(~row)) for row in base]] = True
    last = responsive_to(n, [range(n - sigma, n)])  # the same used set as a row where every worker responded
    batch = np.vstack([base, base[::-1], wider, last, np.ones((1, n), dtype=bool), wider[:2], last])
    used = [frozenset(np.flatnonzero(row)[:n - sigma].tolist()) for row in batch]
    solved, real_inv = [], ngcodes.codes.np.linalg.inv

    def counted_inv(blocks):
        solved.append(len(blocks))
        return real_inv(blocks)

    monkeypatch.setattr(ngcodes.codes.np.linalg, "inv", counted_inv)
    a, ab, residuals = decodings(code, batch)
    assert solved == [len(batch)] and len(set(used)) < len(batch)  # a repeated used set is solved again
    b = code.dense()
    for row, workers, coefficients, product, residual in zip(batch, used, a, ab, residuals):
        alone = decodings(code, row[None])
        assert np.array_equal(coefficients, alone[0][0]) and np.array_equal(product, alone[1][0])
        assert residual == alone[2][0] <= DECODE_TOL
        assert np.array_equal(coefficients, decode_row(code, np.flatnonzero(row)))
        assert not coefficients[sorted(set(range(n)) - workers)].any()
        assert np.array_equal(product, (coefficients[None, None] @ b)[0, 0])


def test_decodings_rejects_a_responsive_array_of_another_shape_or_dtype():
    code = build_cyclic_encoding(6, 2, 0)
    rows = np.ones((3, 6), dtype=bool)
    for bad in (rows.astype(int), rows.astype(float), rows[0], rows[:, :5], np.ones((3, 7), dtype=bool),
                rows[..., None], [[1] * 6]):
        with pytest.raises(ValueError, match=r"^responsive must be a \(k, 6\) boolean array, got "):
            decodings(code, bad)
    rows[1, :3] = rows[2, :2] = False
    with pytest.raises(NotDecodable, match="^3 responsive workers, need 4 for sigma=2$"):  # the first short row
        decodings(code, rows)
    assert [x.shape for x in decodings(code, np.ones((0, 6), dtype=bool))] == [(0, 6), (0, 6), (0,)]


@pytest.mark.parametrize("sigma, seed", [(0, 0), (1, 3), (2, 5), (4, 7), (6, 1)])
def test_verify_above_n12_decodes_every_subset_to_its_residual_alone(sigma, seed):
    code = build_cyclic_encoding(13, sigma, seed)
    residuals = [decodings(code, responsive_to(13, [pattern]))[2][0]
                 for pattern in itertools.combinations(range(13), sigma)]
    report = verify_gradient_code(code)
    assert report.exhaustive and report.patterns == math.comb(13, sigma) == len(residuals)
    assert report.max_residual == max(residuals) <= DECODE_TOL and report.passed
    assert residuals.index(report.max_residual) == list(itertools.combinations(range(13), sigma)).index(report.worst)


@pytest.mark.parametrize("sigma, exhaustive", [(1, True), (12, True), (2, False)])
def test_verify_calls_a_list_of_every_subset_exhaustive_whatever_the_budget(sigma, exhaustive, monkeypatch):
    # 2000 // 13^2 = 11 sets fit the budget, so the list holds the n = 13 contiguous sets: at sigma = 1 and 12
    # they are every sigma-subset, at sigma = 2 a sample of the 78
    monkeypatch.setattr(ngcodes.codes, "VERIFY_BUDGET", 2000)
    code = build_cyclic_encoding(13, sigma, 1)
    contiguous = [tuple(sorted((start + np.arange(sigma)) % 13)) for start in range(13)]
    every = list(itertools.combinations(range(13), sigma))
    assert (set(contiguous) == set(every)) == exhaustive
    sets = every if exhaustive else contiguous  # the list in the order verify decodes it
    residuals = [decodings(code, responsive_to(13, [pattern]))[2][0] for pattern in sets]
    report = verify_gradient_code(code)
    assert report.exhaustive == exhaustive and report.patterns == 13
    assert report.max_residual == max(residuals) <= DECODE_TOL and report.passed
    assert residuals.index(report.max_residual) == sets.index(report.worst)


def test_verify_at_n256_names_a_failing_pair():
    # a known defect of this code (no draw passes the audit at every n yet): the sampled audit finds a pair of
    # stragglers whose decoding misses DECODE_TOL
    code = build_ngc(256, 2, 6).components[2]
    report = verify_gradient_code(code)
    assert not report.exhaustive and report.patterns == 2**28 // 256**2
    assert report.support_ok and not report.decodable_ok and not report.passed and len(report.worst) == 2
    with pytest.raises(NumericalFailure, match="^decode residual .* above 1e-08$"):
        decode_row(code, set(range(256)) - set(report.worst))


@pytest.mark.parametrize("n, sigma", [(13, 4), (64, 5)])
def test_verify_gives_equal_reports_on_two_calls_and_in_smaller_chunks(n, sigma, monkeypatch):
    # the pattern list and each pattern's residual do not depend on how the list is chunked
    code = build_cyclic_encoding(n, sigma, 1)
    report = verify_gradient_code(code)
    assert report == verify_gradient_code(code) and report.exhaustive == (n == 13)
    monkeypatch.setattr(ngcodes.codes, "VERIFY_CHUNK", n * 100)
    assert verify_gradient_code(code) == report


def test_verify_peak_counts_the_sigma_by_sigma_blocks_a_chunk_holds():
    # at n = 256, sigma = 96 the M blocks and their inverses, not the n mask entries, dominate each set: the 4096
    # sets in one call would peak near 560 MiB
    code = build_cyclic_encoding(256, 96, 1)
    tracemalloc.start()
    try:
        report = verify_gradient_code(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.patterns == 4096 and not report.exhaustive
    assert peak < 150 * 2**20


def test_encode_response_identity_row():
    gradients = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
    row = np.array([0.0, 1.0, 0.0])
    assert np.array_equal(encode_response(row, gradients), gradients[1])


def test_encode_response_combination_skips_zero_coefficients():
    row = np.array([1.0, 2.0, 0.0])
    gradients = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), None]  # unread block is absent
    assert np.array_equal(encode_response(row, gradients), np.array([1.0, 2.0]))


def test_encode_response_missing_gradient():
    with pytest.raises(MissingGradient):
        encode_response(np.array([1.0, 2.0, 0.0]), [np.array([1.0]), None, None])


def test_encode_then_decode_recovers_sum():
    matrix = build_cyclic_encoding(8, 3, seed=6)
    rng = np.random.default_rng(0)
    for stragglers in [(), (7,), (1, 4), (0, 3, 6)]:
        assert sum_recovery_error(matrix, stragglers, rng) <= 1e-8


def test_construction_failure_is_reachable(monkeypatch):
    monkeypatch.setattr(ngcodes.codes, "_attempt_cyclic", lambda n, sigma, rng: (None, math.inf))
    with pytest.raises(ConstructionFailed):
        build_cyclic_encoding(8, 3, seed=0)


def per_row_attempt(n, sigma, rng):
    """Oracle: one construction attempt a row at a time. Returns the dense
    matrix, or None when its null-space residual is above the tolerance."""
    h = rng.standard_normal((sigma, n))
    h[:, -1] = -h[:, :-1].sum(axis=1)
    b = np.zeros((n, n))
    for i in range(n):
        head, *tail = cyclic_support(i, sigma, n)
        b[i, head] = 1.0
        b[i, tail] = np.linalg.solve(h[:, tail], -h[:, head])
    return b if np.abs(h @ b.T).max() <= ngcodes.codes.NULLSPACE_TOL else None


def per_row_encoding(n, sigma, seed):
    for attempt in range(ngcodes.codes.MAX_BUILD_ATTEMPTS):
        b = per_row_attempt(n, sigma, np.random.default_rng(np.random.SeedSequence([seed, attempt])))
        if b is not None:
            return b


def test_batched_construction_matches_per_row_solves():
    for n in range(2, 17):
        for sigma in range(1, n):
            for seed in range(3):
                built = build_cyclic_encoding(n, sigma, seed).dense()
                assert built.tobytes() == per_row_encoding(n, sigma, seed).tobytes(), (n, sigma, seed)


def test_serialization_roundtrip_bit_identical(tmp_path):
    ngc = build_ngc(8, 3, seed=42)
    loaded = code_from_json(code_to_json(ngc))
    assert (loaded.n, loaded.s_max, loaded.seed) == (8, 3, 42)
    for a, b in zip(ngc.components, loaded.components):
        assert np.array_equal(a.windows, b.windows)
    # the construct command's file holds the same document and reads back to the same code
    path = tmp_path / "code.json"
    assert main(["construct", "--n", "8", "--smax", "3", "--seed", "42", "--out", str(path)]) == 0
    assert path.read_text() == code_to_json(ngc) + "\n"
    reloaded = code_from_json(path.read_text())
    for a, b in zip(ngc.components, reloaded.components):
        assert np.array_equal(a.windows, b.windows)


def test_deserialization_rejects_bad_documents():
    ngc = build_ngc(4, 1, seed=0)
    import json

    doc = json.loads(code_to_json(ngc))
    doc["components"] = doc["components"][:1]
    with pytest.raises(ValueError):
        code_from_json(json.dumps(doc))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_encoding_matrix_rejects_non_finite_entries(bad):
    windows = np.ones((4, 2))
    windows[1, 1] = bad
    with pytest.raises(ValueError):
        EncodingMatrix(windows)


@pytest.mark.parametrize("shape", [(4,), (4, 0), (4, 5), (2, 2, 2)])
def test_encoding_matrix_rejects_windows_that_are_not_n_by_sigma_plus_one(shape):
    with pytest.raises(ValueError):
        EncodingMatrix(np.ones(shape))


# sha256 of np.stack of the dense components of build_ngc(n, s_max, seed).
# The first four were recorded while components stored their n x n matrices:
# the windows must rebuild those coefficients bit for bit. The last two were
# recorded while construction also screened each row system's condition number:
# (64, 31, 45) holds the one draw of a wide scan that the screen rejected (its
# null-space residual rejects it too), and (256, 32, 2) is the n=256 code whose
# gd-demo run fails its decode gate, so keeping a draw by its residual alone
# must leave both codes as they were
PINNED = {
    (6, 2, 3): "a9b5714bd7091dbed15a8dbfd9a8b111b756c839ace13a8dda3b30af28b1af0c",
    (8, 3, 1): "76ef8c51054f3e2cd3d52cea4cff7b339653afaa5597280c668ce36efa0553dc",
    (12, 5, 42): "aac04b9c6a6195c0ffa85df9f5087a30e3d042cadb7ed95bb266699abd6fb747",
    (64, 8, 2): "1f294ddc759ceb804bc3694fda95a94ce653b894b5d6a32df25990397a1e6ad9",
    (64, 31, 45): "1177a5b18d702e0009e7fdac58ad81f503f7cb747ae94e2c137b6775b9aee6e2",
    (256, 32, 2): "d7908c419a55883fc11a98985b06524e5cf953996b6caf43c4a9686418afd079",
}


@pytest.mark.parametrize("args", list(PINNED), ids=lambda args: "n%d-smax%d-seed%d" % args)
def test_dense_components_reproduce_the_pinned_coefficients(args):
    stacked = np.stack([comp.dense() for comp in build_ngc(*args).components])
    assert hashlib.sha256(stacked.tobytes()).hexdigest() == PINNED[args]


@st.composite
def code_and_stragglers(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    sigma = draw(st.integers(min_value=1, max_value=n - 1))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    count = draw(st.integers(min_value=0, max_value=sigma))
    stragglers = draw(
        st.lists(st.integers(min_value=0, max_value=n - 1), max_size=count, unique=True)
    )
    return n, sigma, seed, tuple(stragglers)


@settings(max_examples=40, deadline=None)
@given(code_and_stragglers())
def test_any_tolerated_straggler_pattern_recovers(case):
    n, sigma, seed, stragglers = case
    matrix = build_cyclic_encoding(n, sigma, seed)
    rng = np.random.default_rng(seed + 1)
    assert sum_recovery_error(matrix, stragglers, rng) <= 1e-8
