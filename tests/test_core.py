import ast
import glob
import importlib
import inspect
import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (gaussian_condition, gaussian_logpdf, kl_divergence_categorical,
                          log_sum_exp, sample_categorical, sample_gaussian)
from latentlab import arm, core, diffusion, mixture, nn, sequential
from latentlab.core import (Gaussian, NumericError, RandomSource, Simplex,
                            category_codes, sample_dirichlet, sigmoid)
from latentlab.irt import item_prob
from latentlab.mixture import GmmParams, LcaParams
from latentlab.sequential import DiscreteEmission, GaussianEmission, HmmParams, LdsParams


def test_log_sum_exp_two_equal_terms():
    assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2), abs=1e-12)


def test_log_sum_exp_single_surviving_term():
    assert log_sum_exp([-np.inf, 3.0]) == pytest.approx(3.0, abs=0)


def test_log_sum_exp_no_overflow():
    # extended-precision oracle: 1000 + log(2) computed symbolically
    assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2), abs=1e-12)


def test_log_sum_exp_all_neg_inf():
    assert log_sum_exp([-np.inf, -np.inf]) == -np.inf


def test_log_sum_exp_empty_errors():
    with pytest.raises(ValueError):
        log_sum_exp([])


@given(st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=12))
def test_log_sum_exp_dominates_max(v):
    res = log_sum_exp(v)
    assert res >= max(v) - 1e-12
    if len(v) == 1:
        assert res == pytest.approx(v[0], abs=1e-12)


def test_gaussian_logpdf_standard_normal_at_mode():
    g = Gaussian([0.0], [[1.0]])
    assert gaussian_logpdf([0.0], g) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)


def test_gaussian_logpdf_at_mean_any_dim():
    rng = np.random.default_rng(0)
    for d in (1, 2, 4):
        A = rng.normal(size=(d, d))
        cov = A @ A.T + d * np.eye(d)
        mean = rng.normal(size=d)
        g = Gaussian(mean, cov)
        expected = -0.5 * (d * math.log(2 * math.pi) + math.log(np.linalg.det(cov)))
        assert gaussian_logpdf(mean, g) == pytest.approx(expected, rel=1e-10)


def test_gaussian_logpdf_matches_dense_inverse_oracle():
    rng = np.random.default_rng(7)
    A = rng.normal(size=(3, 3))
    cov = A @ A.T + 0.5 * np.eye(3)
    mean = rng.normal(size=3)
    x = rng.normal(size=3)
    g = Gaussian(mean, cov)
    diff = x - mean
    brute = -0.5 * (3 * math.log(2 * math.pi) + math.log(np.linalg.det(cov))
                    + diff @ np.linalg.inv(cov) @ diff)
    assert gaussian_logpdf(x, g) == pytest.approx(brute, rel=1e-12)


def test_gaussian_logpdf_d1_integrates_to_one():
    g = Gaussian([0.3], [[2.0]])
    xs = np.linspace(0.3 - 8 * math.sqrt(2), 0.3 + 8 * math.sqrt(2), 20001)
    dens = np.array([math.exp(gaussian_logpdf([x], g)) for x in xs])
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-3)


def test_gaussian_invariants_rejected():
    with pytest.raises(ValueError):
        Gaussian([0.0, 0.0], [[1.0, 0.5], [0.4, 1.0]])    # asymmetric
    with pytest.raises(ValueError):
        Gaussian([0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])    # indefinite


def test_gaussian_condition_independent_blocks():
    cov = np.diag([2.0, 3.0, 4.0])
    g = Gaussian([1.0, -1.0, 0.5], cov)
    cond = gaussian_condition(g, 2, [9.0])
    assert np.allclose(cond.mean, [1.0, -1.0])
    assert np.allclose(cond.cov, np.diag([2.0, 3.0]))


def test_gaussian_condition_bivariate_textbook():
    rho = 0.6
    g = Gaussian([0.0, 0.0], [[1.0, rho], [rho, 1.0]])
    cond = gaussian_condition(g, 1, [1.0])
    assert cond.mean[0] == pytest.approx(rho, abs=1e-12)
    assert cond.cov[0, 0] == pytest.approx(1 - rho ** 2, abs=1e-12)


def test_gaussian_condition_singular_block_errors():
    g = Gaussian([0.0, 0.0], [[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(NumericError):
        gaussian_condition(g, 1, [0.0])


def test_sample_gaussian_monte_carlo_moments():
    rng = RandomSource(11)
    g = Gaussian(np.zeros(2), np.eye(2))
    draws = np.array([sample_gaussian(g, rng) for _ in range(100_000)])
    assert np.all(np.abs(draws.mean(axis=0)) < 0.02)
    assert np.allclose(np.cov(draws.T), np.eye(2), atol=0.03)


def test_sample_gaussian_degenerate_returns_mean():
    g = Gaussian([1.5, -2.0], np.zeros((2, 2)))
    assert np.array_equal(sample_gaussian(g, RandomSource(0)), [1.5, -2.0])


def test_sample_gaussian_seed_determinism():
    g = Gaussian([0.0], [[2.0]])
    a = [sample_gaussian(g, RandomSource(42)) for _ in range(3)]
    b = [sample_gaussian(g, RandomSource(42)) for _ in range(3)]
    # same seed restarts the stream: first draws identical
    assert a[0] == b[0]
    rng1, rng2 = RandomSource(7), RandomSource(7)
    seq1 = [sample_gaussian(g, rng1)[0] for _ in range(5)]
    seq2 = [sample_gaussian(g, rng2)[0] for _ in range(5)]
    assert seq1 == seq2


def test_sample_categorical_point_mass():
    p = Simplex([1.0, 0.0, 0.0])
    rng = RandomSource(3)
    assert all(sample_categorical(p, rng) == 0 for _ in range(100))


def test_sample_categorical_frequencies():
    p = Simplex([0.5, 0.5])
    rng = RandomSource(5)
    draws = np.array([sample_categorical(p, rng) for _ in range(100_000)])
    freq0 = np.mean(draws == 0)
    assert 0.49 <= freq0 <= 0.51


def test_sample_categorical_determinism():
    p = Simplex([0.2, 0.3, 0.5])
    s1 = [sample_categorical(p, RandomSource(9).split(i)) for i in range(10)]
    s2 = [sample_categorical(p, RandomSource(9).split(i)) for i in range(10)]
    assert s1 == s2


def test_sample_dirichlet_mean():
    rng = RandomSource(13)
    draws = np.array([sample_dirichlet([1.0, 1.0, 1.0], rng).probs for _ in range(20_000)])
    assert np.allclose(draws.mean(axis=0), [1 / 3] * 3, atol=0.01)


def test_sample_dirichlet_concentrates():
    rng = RandomSource(17)
    draws = np.array([sample_dirichlet([1e6] * 4, rng).probs for _ in range(50)])
    assert np.allclose(draws, 0.25, atol=0.01)


def test_sample_dirichlet_sums_to_one_and_validates():
    rng = RandomSource(19)
    for _ in range(100):
        s = sample_dirichlet([0.5, 2.0, 7.0], rng)
        assert abs(s.probs.sum() - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        sample_dirichlet([1.0, 0.0], rng)


def test_kl_identical_is_zero():
    assert kl_divergence_categorical(Simplex([0.3, 0.7]), Simplex([0.3, 0.7])) == 0.0


def test_kl_point_mass_vs_uniform():
    val = kl_divergence_categorical(Simplex([1.0, 0.0]), Simplex([0.5, 0.5]))
    assert val == pytest.approx(math.log(2), abs=1e-12)


def test_kl_cross_entropy_minus_entropy():
    rng = np.random.default_rng(23)
    q = rng.dirichlet(np.ones(4))
    p = rng.dirichlet(np.ones(4))
    h_qp = -np.sum(q * np.log(p))
    h_q = -np.sum(q * np.log(q))
    assert kl_divergence_categorical(Simplex(q), Simplex(p)) == pytest.approx(h_qp - h_q, rel=1e-12)


def test_kl_support_violation_flags_inf():
    with pytest.warns(RuntimeWarning):
        assert kl_divergence_categorical(Simplex([0.5, 0.5]), Simplex([1.0, 0.0])) == math.inf


@settings(deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_kl_nonnegative_property(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 6))
    q = rng.dirichlet(np.ones(k))
    p = rng.dirichlet(np.ones(k))
    assert kl_divergence_categorical(Simplex(q), Simplex(p)) >= -1e-12


def test_simplex_validation():
    with pytest.raises(ValueError):
        Simplex([0.5, 0.6])
    with pytest.raises(ValueError):
        Simplex([-0.1, 1.1])


def test_random_source_cross_run_determinism():
    a = RandomSource(123).standard_normal(5)
    b = RandomSource(123).standard_normal(5)
    assert np.array_equal(a, b)
    assert RandomSource(123).algorithm == "philox4x64"
    with pytest.raises(ValueError):
        RandomSource(1, algorithm="mystery")


# Python ints keep an all-int table an int64 array (2**53 + 1 included); one
# float entry makes the table float64, where 2**53 + 1 rounds to 2**53.
CODE_ENTRIES = st.sampled_from([0, 1, 2, 5, -1, -3, 2**53 - 1, 2**53, 2**53 + 1,
                                3.0, -0.0, 0.5, 2.25, -1.5, math.inf, -math.inf, math.nan,
                                2.0**53 - 1, 2.0**53, 1e19, 1e300])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.lists(st.lists(CODE_ENTRIES, min_size=m, max_size=m), min_size=1, max_size=5)))
def test_category_codes_returns_the_codes_or_names_the_first_bad_entry(rows):
    X = np.array(rows)
    with np.errstate(invalid="ignore"):
        valid = (X >= 0) & (X < 2**53) & (np.floor(X) == X)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if valid.all():
            codes, widths = category_codes(X, "codes")
            assert codes.dtype.kind == "i" and codes.shape == X.shape
            assert np.array_equal(codes, X)
            assert widths.tolist() == [int(v) + 1 for v in X.max(axis=0)]
        else:
            with pytest.raises(ValueError) as err:
                category_codes(X, "codes")
            i, j = np.argwhere(~valid)[0]
            assert str(err.value).startswith("codes must be ")
            assert f"row {i}, item {j} holds" in str(err.value)


# -- the shared logistic, row normalizer and covariance rule -------------------------
# In-test copies of the expressions core.sigmoid and the row softmax replaced;
# each must give the bytes the shared function gives. The row softmax is now
# core.normalize_log_rows, the one row normalizer.

def _item_prob_array(z):
    """irt.item_prob's array branch."""
    out = np.empty_like(z, dtype=float)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _token_weights(logits):
    """lda._token_weights, in place."""
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def _arm_sampler_softmax(logits):
    m = logits.max(axis=1, keepdims=True)
    p = np.exp(logits - m)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _posterior_theta_weights(ll):
    ll = ll.copy()
    ll -= ll.max()
    w = np.exp(ll)
    w /= w.sum()
    return w


def _pairwise_tables(lx):
    xi = np.exp(lx - lx.max(axis=(1, 2), keepdims=True))
    xi /= xi.sum(axis=(1, 2), keepdims=True)
    return xi


SOFTMAX_SIZES = [1, 2, 4, 5, 9, 16, 21, 41, 101]


def _logits(seed, shape):
    """Logits of spread 30, with an entry at +800 and one at -800."""
    x = 30.0 * RandomSource(seed).standard_normal(shape)
    x.flat[0], x.flat[-1] = 800.0, -800.0
    return x


def _same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _normalized(rows):
    return core.normalize_log_rows(rows)[0]


@pytest.mark.parametrize("K", SOFTMAX_SIZES + [8, 128, 129])
def test_softmax_rows_gives_the_bytes_of_each_replaced_copy(K):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 7, 300):
            x = _logits(K + n, (n, K))
            assert _same_bytes(_normalized(x), _arm_sampler_softmax(x))
            assert _same_bytes(_normalized(x), _token_weights(x.copy()))
            pairs = _logits(K + n + 1, (n, K, K))
            assert _same_bytes(_normalized(pairs.reshape(-1, K * K)).reshape(pairs.shape),
                               _pairwise_tables(pairs))
        row = _logits(K, K)
        assert _same_bytes(_normalized(row[None])[0], _posterior_theta_weights(row))


@pytest.mark.parametrize("K", SOFTMAX_SIZES)
def test_sigmoid_gives_the_bytes_of_item_prob(K):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (_logits(K, K), _logits(K + 1, (300, K)), _logits(K + 2, (K, 7))[:, ::2]):
            assert _same_bytes(sigmoid(z), _item_prob_array(z))


def test_the_logistic_has_one_home():
    assert nn._sigmoid is sigmoid
    z = _logits(3, (40, 5))
    assert _same_bytes(item_prob(z, 1.0, 0.0), sigmoid(z))


# -- row maxima and row sums in numpy's order ----------------------------------------
# core.row_max and core.row_sums take column passes on many rows of at most
# COLUMN_MAX_TERMS terms, row_sums replaying numpy's pairwise row sum in them;
# elsewhere each is numpy's own call. Either way row_sums must give the bytes of
# numpy's sum over a C-ordered last axis, and row_max numpy's maxima.

def _switch_rows(per_term, K):
    """Row counts on both sides of a switch to column passes at per_term rows
    per term (past the term limit, where numpy's call is taken, as at it)."""
    m = per_term * min(K, core.COLUMN_MAX_TERMS)
    return [1, 5, m - 1, m, m + 77]


# entries whose order shows: zeros of either sign (numpy's sum starts from +0.0),
# infinities (a row with both sums to NaN) and subnormals
SPECIALS = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310]


def _terms(seed, rows, K, specials, share):
    """(rows, K) terms of magnitudes 1e-17 to 1e17, so that a change of order
    moves low bits, with about share of them drawn from specials."""
    g = np.random.default_rng(seed)
    a = g.standard_normal((rows, K)) * np.exp(g.uniform(-40.0, 40.0, (rows, K)))
    special = g.random((rows, K)) < share
    a[special] = g.choice(specials, size=int(special.sum()))
    return a


def _in_rank(a, rank):
    """The (rows, K) terms as one row (rank 1), as they are (rank 2), or as a
    (2, rows, K) view into a longer buffer, as gaussian_logpdf_columns passes
    its blocks (rank 3)."""
    if rank == 1:
        return a[0].copy()
    if rank == 2:
        return a
    buf = np.empty((2, len(a) + 3, a.shape[1]))
    buf[0, :len(a)], buf[1, :len(a)] = a, a[::-1]
    return buf[:, :len(a)]


# numpy adds below 8 terms in turn, 8 to 128 as 8 running sums, and more as two
# halves; half of the draws have at most one term past the column passes' limit
TERMS = st.one_of(st.integers(1, core.COLUMN_MAX_TERMS + 1), st.integers(1, 300))


@settings(max_examples=200, deadline=None)
@given(K=TERMS, side=st.integers(0, 4), rank=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.0, 0.05, 0.5, 1.0]))
def test_row_sums_gives_the_bytes_of_numpys_sum(K, side, rank, seed, share):
    rows = _switch_rows(core.SUM_PASS_ROWS_PER_TERM, K)[side]
    a = _in_rank(_terms(seed, rows, K, SPECIALS, share), rank)
    with np.errstate(invalid="ignore"):
        want = np.ascontiguousarray(a).sum(axis=-1)
        assert _same_bytes(core.row_sums(a), want)


@settings(max_examples=100, deadline=None)
@given(K=TERMS, side=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_row_sums_with_nan_terms(K, side, seed):
    rows = _switch_rows(core.SUM_PASS_ROWS_PER_TERM, K)[side]
    # NaNs of one bit pattern come out as numpy gives them
    a = _terms(seed, rows, K, [np.nan, 0.0, -0.0, 5e-324], 0.1)
    assert _same_bytes(core.row_sums(a), a.sum(axis=-1))
    # inf - inf makes a NaN of other bits, and where two NaNs meet, which one
    # propagates is the compiled loop's choice: the NaNs fall in the same rows
    b = _terms(seed, rows, K, [np.nan, np.inf, -np.inf], 0.3)
    with np.errstate(invalid="ignore"):
        got, want = core.row_sums(b), b.sum(axis=-1)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan) and _same_bytes(got[~nan], want[~nan])


def test_row_sums_of_negative_zeros_are_positive_zeros():
    # numpy adds each row's total to +0.0, so no row sums to -0.0
    for K in range(1, 2 * core.COLUMN_MAX_TERMS):
        for rows in _switch_rows(core.SUM_PASS_ROWS_PER_TERM, K):
            a = np.full((rows, K), -0.0)
            assert _same_bytes(core.row_sums(a), np.zeros(rows)) and _same_bytes(a.sum(axis=-1),
                                                                                 np.zeros(rows))


class _NoNumpyReduction(np.ndarray):
    """An array whose own sum and max methods fail: the helper took numpy's
    call."""

    def sum(self, *args, **kwargs):
        raise AssertionError("numpy's row reduction")

    def max(self, *args, **kwargs):
        raise AssertionError("numpy's row reduction")


def test_row_sums_takes_column_passes_only_on_many_rows_of_a_few_terms():
    for K in range(1, core.COLUMN_MAX_TERMS + 3):
        m = core.SUM_PASS_ROWS_PER_TERM * K
        for rows in (m - 1, m):
            many = 1 < K <= core.COLUMN_MAX_TERMS and rows >= m
            a = np.ones((rows, K)).view(_NoNumpyReduction)
            # a last axis that is not contiguous is numpy's to add in turn
            for mat, columns in ((a, many), (a.reshape(1, rows, K), many),
                                 (np.ones((K, rows)).view(_NoNumpyReduction).T, False)):
                if columns:
                    assert _same_bytes(core.row_sums(mat), np.full(mat.shape[:-1], float(K)))
                else:
                    with pytest.raises(AssertionError, match="numpy's row reduction"):
                        core.row_sums(mat)


def test_row_max_gives_numpys_maxima_in_column_passes_on_many_rows_of_a_few_terms():
    for K in range(1, core.COLUMN_MAX_TERMS + 3):
        m = core.MAX_PASS_ROWS_PER_TERM * K
        for shape in ((K,), (3, K), (m - 1, K), (m, K), (2, m // 2, K)):
            g = np.random.default_rng(K + shape[0])
            # ties, zeros of either sign, rows wholly or partly -inf
            x = g.choice([0.0, -0.0, 1.0, 2.5, -np.inf, -3.0], size=shape)
            want = x.max(axis=-1, keepdims=True)
            got = core.row_max(x)
            assert got.shape == want.shape and np.array_equal(got, want)   # up to zero signs
            if K <= core.COLUMN_MAX_TERMS and x.size >= m * K:
                core.row_max(x.view(_NoNumpyReduction))
            else:
                with pytest.raises(AssertionError, match="numpy's row reduction"):
                    core.row_max(x.view(_NoNumpyReduction))


I2, Z2 = np.eye(2), [0.0, 0.0]
# where -> (the parameters with cov in that field, the field's name)
COVARIANCE_FIELDS = {
    "GmmParams.covs": (lambda cov: GmmParams([1.0], [Z2], [cov]), "covs"),
    "GaussianEmission.covs": (lambda cov: GaussianEmission([Z2], [cov]), "covs"),
    "LdsParams.Q": (lambda cov: LdsParams(I2, I2, cov, I2, Z2, I2), "Q"),
    "LdsParams.R": (lambda cov: LdsParams(I2, I2, I2, cov, Z2, I2), "R"),
    "LdsParams.Sigma0": (lambda cov: LdsParams(I2, I2, I2, I2, Z2, cov), "Sigma0"),
    "Gaussian.cov": (lambda cov: Gaussian(Z2, cov), "cov"),
}


@pytest.mark.parametrize("where", sorted(COVARIANCE_FIELDS))
def test_every_covariance_field_is_square_and_symmetric(where):
    make, name = COVARIANCE_FIELDS[where]
    for bad in ([[1.0, 0.5], [0.4, 1.0]], [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]):
        with pytest.raises(ValueError, match=f"^{name} must be square and symmetric within 1e-10"):
            make(bad)
    near = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
    held = np.reshape(getattr(make(near), name), (2, 2))
    assert _same_bytes(held, 0.5 * (near + near.T))


@pytest.mark.parametrize("where", sorted(COVARIANCE_FIELDS))
def test_every_covariance_field_is_positive_semi_definite(where):
    make, name = COVARIANCE_FIELDS[where]
    shown = f"{name}[0]" if name == "covs" else name
    for bad in ([[1.0, 0.0], [0.0, -1e-3]], [[1.0, 2.0], [2.0, 1.0]],
                [[1.7e308, 0.0], [0.0, -1e300]]):
        with pytest.raises(ValueError, match=f"^{re.escape(shown)} is not positive semi-definite"):
            make(bad)
    # zero variances, a rank-one matrix whose eigenvalue rounds below zero, and
    # variances whose trace overflows are accepted as they are
    for good in ([[0.0, 0.0], [0.0, 0.0]], [[1.0, 1.0], [1.0, 1.0]], [[0.1, 0.3], [0.3, 0.9]],
                 [[1.7e308, 0.0], [0.0, 1.7e308]], [[1.7e308, 1e300], [1e300, 1.0]]):
        held = np.reshape(getattr(make(good), name), (2, 2))
        assert _same_bytes(held, np.array(good))


def test_a_stack_of_covariances_names_the_matrix_that_is_not_positive_semi_definite():
    with pytest.raises(ValueError, match=r"^covs\[2\] is not positive semi-definite: "
                                         r"smallest eigenvalue -0\.5$"):
        GmmParams([0.5, 0.25, 0.25], np.zeros((3, 2)), [I2, I2, [[1.0, 0.0], [0.0, -0.5]]])


def test_chol_psd_names_a_covariance_too_singular_to_factor():
    with pytest.raises(NumericError, match="^covariance too singular to factor"):
        core.chol_psd(np.zeros((2, 2)))


def test_gaussian_noise_draws_as_the_oracle_and_nothing_at_a_zero_covariance():
    cov = np.array([[2.0, 0.6], [0.6, 0.5]])
    rows = core.gaussian_noise(cov, 5, RandomSource(3))
    oracle, g = RandomSource(3), Gaussian(Z2, cov)
    assert np.allclose(rows, [sample_gaussian(g, oracle) for _ in range(5)], rtol=1e-14, atol=0)
    rng = RandomSource(3)
    assert _same_bytes(core.gaussian_noise(np.zeros((2, 2)), 4, rng), np.zeros((4, 2)))
    assert rng.standard_normal() == RandomSource(3).standard_normal()


def _top_levels(tree):
    """(top-level definition or None, node) of every node of a module tree,
    with each method under its class's name."""
    for top in tree.body:
        for node in ast.walk(top):
            yield getattr(top, "name", None), node


def _linalg_homes(*names):
    """(module, attribute, top-level definition) of every use of the named
    attributes in the modules of latentlab."""
    homes = set()
    for path in sorted(glob.glob(os.path.join(os.path.dirname(core.__file__), "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for top, node in _top_levels(tree):
            if isinstance(node, ast.Attribute) and node.attr in names:
                homes.add((os.path.basename(path), node.attr, top))
    return homes


def test_the_covariance_factor_and_psd_test_have_one_home():
    # every covariance is checked by cov_fields and factored by chol_psd; the
    # Kalman filter's per-step innovation factor keeps its own no-jitter policy
    assert _linalg_homes("cholesky", "eigvalsh") == {
        ("core.py", "eigvalsh", "cov_fields"), ("core.py", "cholesky", "chol_psd"),
        ("sequential.py", "cholesky", "_kalman_pass")}


def test_each_failure_has_one_check():
    # one input-error type (ValueError), one count check, one schedule input
    # and one factorization of each innovation covariance; cli.main maps each
    # failure kind to its exit code in three clauses
    src = os.path.dirname(core.__file__)
    classes, names, count_texts, kalman_factors, main_clauses = set(), set(), set(), 0, 0
    for path in sorted(glob.glob(os.path.join(src, "*.py"))):
        module = os.path.basename(path)
        with open(path) as fh:
            tree = ast.parse(fh.read())
        if not module.startswith("__"):     # __main__ would run the command line
            loaded = importlib.import_module(f"latentlab.{module[:-3]}")
            classes |= {name for name, obj in vars(loaded).items()
                        if isinstance(obj, type) and issubclass(obj, BaseException)
                        and obj.__module__ == loaded.__name__}
        for top, node in _top_levels(tree):
            names.add(getattr(node, "id", getattr(node, "attr", getattr(node, "name", None))))
            if isinstance(node, ast.Constant) and "must be >= 1" in str(node.value):
                count_texts.add((module, top))
            if (module, top) == ("sequential.py", "_kalman_pass") \
                    and isinstance(node, ast.Attribute) and node.attr == "cholesky":
                kalman_factors += 1
            if (module, top) == ("cli.py", "main") and isinstance(node, ast.ExceptHandler):
                main_clauses += 1
    assert classes == {"NumericError", "MonotonicityError"}
    assert not names & {"UsageError", "_check_k", "innov_covs"}
    assert count_texts == {("core.py", "check_counts")}
    assert kalman_factors == 1
    # parse_args's SystemExit, then RuntimeWarning, numeric failures, input faults
    assert main_clauses == 4
    assert list(inspect.signature(diffusion.NoiseSchedule).parameters) == ["betas"]


# -- the categorical rule --------------------------------------------------------------
# Every categorical distribution takes the exact log of a probability (log 0 is
# -inf, and an entropy term 0 log 0 is 0 by core.plogp), one row normalizer
# (core.normalize_log_rows) and one inverse-CDF table (core.cdf), which ends at
# exactly 1.0: a draw at u in [0, 1) is the count of its entries <= u.

def _draws(table, u):
    """Draws at the uniforms u from one cdf row, by searchsorted and by the
    count of entries <= u, which must agree."""
    u = np.asarray(u)
    drawn = np.searchsorted(table, u, side="right")
    assert np.array_equal(drawn, np.sum(table <= u[:, None], axis=1))
    return drawn


ENDS = [0.0, np.nextafter(1.0, 0.0)]       # the two ends of [0, 1)
MASSES = st.lists(st.floats(1e-300, 1.0), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(MASSES, MASSES, st.floats(-1e-5, 1e-5), st.floats(0.0, 1.0, exclude_max=True))
def test_cdf_never_draws_a_zero_probability_category(head, tail, slack, u):
    # zeros first, inside and last, in a row that sums to within 1e-5 of 1
    w = np.array([0.0] + head + [0.0, 0.0] + tail + [0.0])
    p = w / w.sum() * (1.0 + slack)
    table = core.cdf(p)
    assert table[-1] == 1.0 and np.all(np.diff(table) >= 0)
    assert np.all(p[_draws(table, ENDS + [u])] > 0)
    if np.cumsum(p)[-1] == 1.0:
        assert _same_bytes(table, np.cumsum(p))
    stack = np.stack([p, p[::-1]])
    assert _same_bytes(core.cdf(stack), np.stack([table, core.cdf(p[::-1])]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 8), min_size=1, max_size=7), st.floats(0.0, 1.0, exclude_max=True))
def test_cdf_of_a_row_that_sums_to_one_keeps_the_bytes_of_its_cumulative_sum(counts, u):
    # multiples of 1/64 that sum to 1, so every partial sum is exact
    p = np.array(counts + [64 - sum(counts)]) / 64.0
    assert _same_bytes(core.cdf(p), np.cumsum(p))
    us = ENDS + [u]
    drawn = _draws(core.cdf(p), us)
    assert np.array_equal(drawn, np.searchsorted(np.cumsum(p), us, "right"))
    assert np.all(p[drawn] > 0)


class _EdgeUniforms(RandomSource):
    """A RandomSource whose every block of uniforms starts at the two ends of
    [0, 1), where a clipped inverse CDF draws a zero-probability category."""

    def uniform(self, shape=None):
        u = super().uniform(shape)
        if shape is not None:
            u.flat[:2] = ENDS[:u.size]
        return u


# rows that sum to 1 - 1e-5, with a zero last, first and inside
ROWS = np.array([[0.5, 0.49999, 0.0], [0.0, 0.5, 0.49999], [0.49999, 0.0, 0.5]])
N_DRAWS = 1_000_000


def _gmm_drawn(rng):
    params = GmmParams(ROWS[0], [[0.0], [1.0], [1000.0]], np.ones((3, 1, 1)))
    X, z = mixture.gmm_sample(params, N_DRAWS, rng)
    return {"component": ROWS[0][z], "far rows": np.where(X[:, 0] > 500, 0.0, 1.0)}


def _lca_drawn(rng):
    params = LcaParams(ROWS[0], (ROWS, ROWS[::-1]))
    X, z = mixture.lca_sample(params, N_DRAWS, rng)
    return {"class": ROWS[0][z], "item 0": ROWS[z, X[:, 0]], "item 1": ROWS[::-1][z, X[:, 1]]}


def _hmm_drawn(rng):
    params = HmmParams(ROWS[0], ROWS, DiscreteEmission(ROWS[::-1]))
    states, obs = sequential.hmm_sample(params, N_DRAWS, rng)
    return {"first state": ROWS[0][states[:1]], "transitions": ROWS[states[:-1], states[1:]],
            "symbols": ROWS[::-1][states, obs]}


def _arm_drawn(rng):
    # a logit 900 below the others: a probability of exactly 0
    D, V = 2, 6
    logits = np.array([-900.0, 0.0, -900.0, 0.0, 0.0, -900.0])
    model = arm.ArModel(D, V, nn.Mlp([np.zeros((D * V + D, V))], [logits], ["identity"]))
    return {"positions": np.exp(logits)[arm.sample(model, N_DRAWS, rng)]}


@pytest.mark.parametrize("sampler", [_gmm_drawn, _lca_drawn, _hmm_drawn, _arm_drawn],
                         ids=["gmm", "lca", "hmm", "arm"])
@pytest.mark.parametrize("source", [RandomSource, _EdgeUniforms], ids=["random", "edges"])
def test_no_sampler_draws_a_zero_probability_category(sampler, source):
    for what, probs in sampler(source(0)).items():
        assert np.count_nonzero(probs == 0) == 0, what


def test_an_entropy_term_of_a_zero_probability_is_zero_without_a_warning():
    p = np.array([[0.0, 0.25, 0.75], [1.0, 0.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        want = [[0.0, 0.25 * np.log(0.25), 0.75 * np.log(0.75)], [0.0, 0.0, 0.0]]
        assert _same_bytes(core.plogp(p), np.array(want))
        assert mixture.lca_to_json(LcaParams([1.0], [[[1.0, 0.0]]]))["weights"] == [1.0]
        assert sequential.hmm_to_json(HmmParams([1.0, 0.0], np.eye(2),
                                                DiscreteEmission(np.eye(2))))["pi"] == [1.0, 0.0]


def _identifiers(node):
    """Every name, attribute, definition, import and string constant in the
    tree under node."""
    return {getattr(n, "id", None) or getattr(n, "attr", None) or getattr(n, "name", None)
            or (n.value if isinstance(n, ast.Constant) else None) for n in ast.walk(node)}


def _functions(tree):
    """(name, identifiers) of each function definition and lambda in tree,
    nested ones included."""
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.Lambda)):
            yield getattr(fn, "name", "<lambda>"), _identifiers(fn)


def test_every_categorical_distribution_has_one_rule():
    # no log floor, one row normalizer, and every draw inverts a cdf table unclipped
    for path in sorted(glob.glob(os.path.join(os.path.dirname(core.__file__), "*.py"))):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        name = os.path.basename(path)
        assert not [n.lineno for n in ast.walk(tree)
                    if isinstance(n, ast.Constant) and n.value == 1e-300], name
        assert "softmax_rows" not in _identifiers(tree), name
        for fn, reads in _functions(tree):
            if reads & {"searchsorted", "bisect_right"}:
                assert "cdf" in reads, (name, fn)
            if "cdf" in reads and fn != "cdf":
                assert not reads & {"clip", "minimum", "min"}, (name, fn)
