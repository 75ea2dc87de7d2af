import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle_utils import (gaussian_condition, gaussian_logpdf, kl_divergence_categorical,
                          log_sum_exp, sample_categorical, sample_gaussian)
from latentlab import nn
from latentlab.core import (Gaussian, NumericError, RandomSource, Simplex,
                            category_codes, sample_dirichlet, sigmoid, softmax_rows)
from latentlab.irt import item_prob
from latentlab.mixture import GmmParams
from latentlab.sequential import GaussianEmission, LdsParams


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


# -- the shared logistic, row softmax and covariance rule ----------------------------
# In-test copies of the expressions core.sigmoid and core.softmax_rows replaced;
# each must give the bytes the shared function gives.

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


@pytest.mark.parametrize("K", SOFTMAX_SIZES)
def test_softmax_rows_gives_the_bytes_of_each_replaced_copy(K):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 7, 300):
            x = _logits(K + n, (n, K))
            assert _same_bytes(softmax_rows(x), _arm_sampler_softmax(x))
            inplace = x.copy()
            assert softmax_rows(inplace, out=inplace) is inplace
            assert _same_bytes(inplace, _token_weights(x.copy()))
            pairs = _logits(K + n + 1, (n, K, K))
            assert _same_bytes(softmax_rows(pairs.reshape(-1, K * K)).reshape(pairs.shape),
                               _pairwise_tables(pairs))
        row = _logits(K, K)
        assert _same_bytes(softmax_rows(row), _posterior_theta_weights(row))


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
