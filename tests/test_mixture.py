import itertools
import math

import numpy as np
import pytest

from oracle_utils import gaussian_logpdf, same_spread, sample_gaussian
from latentlab.core import Gaussian, RandomSource
from latentlab.em import EmConfig
from latentlab.mixture import (GmmParams, LcaParams, Responsibilities,
                               fit_gmm, fit_lca, gmm_e_step, gmm_loglik,
                               gmm_m_step, gmm_sample, lca_e_step, lca_loglik, lca_m_step)


def _random_gmm(seed, K=3, d=2):
    rng = RandomSource(seed)
    w = rng.uniform(K) + 0.2
    w /= w.sum()
    means = 3.0 * rng.standard_normal((K, d))
    covs = np.empty((K, d, d))
    for k in range(K):
        A = rng.standard_normal((d, d))
        covs[k] = A @ A.T + 0.5 * np.eye(d)
    return GmmParams(w, means, covs)


def _linear_domain_loglik(params, X):
    """Brute-force oracle: densities in the linear domain."""
    total = 0.0
    for x in X:
        p = sum(params.weights[k] * math.exp(gaussian_logpdf(x, Gaussian(params.means[k], params.covs[k])))
                for k in range(params.n_components))
        total += math.log(p)
    return total


def _bayes_rule_responsibilities(params, X):
    out = np.empty((len(X), params.n_components))
    for i, x in enumerate(X):
        dens = np.array([params.weights[k] * math.exp(
            gaussian_logpdf(x, Gaussian(params.means[k], params.covs[k])))
            for k in range(params.n_components)])
        out[i] = dens / dens.sum()
    return out


# -- GMM likelihood ------------------------------------------------------------

def test_single_component_equals_gaussian():
    params = GmmParams([1.0], [[0.0, 0.0]], [np.eye(2)])
    X = RandomSource(0).standard_normal((20, 2))
    direct = sum(gaussian_logpdf(x, Gaussian(np.zeros(2), np.eye(2))) for x in X)
    assert gmm_loglik(params, X) == pytest.approx(direct, rel=1e-12)


def test_duplicate_components_collapse():
    X = RandomSource(1).standard_normal((20, 2))
    one = GmmParams([1.0], [[0.5, 0.5]], [np.eye(2)])
    two = GmmParams([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [np.eye(2), np.eye(2)])
    assert gmm_loglik(two, X) == pytest.approx(gmm_loglik(one, X), abs=1e-10)


def test_loglik_matches_linear_oracle():
    params = _random_gmm(2)
    X = RandomSource(3).standard_normal((30, 2))
    assert gmm_loglik(params, X) == pytest.approx(_linear_domain_loglik(params, X), abs=1e-10)


# -- GMM E-step -----------------------------------------------------------------

def test_e_step_single_component():
    params = GmmParams([1.0], [[0.0]], [np.eye(1)])
    resp = gmm_e_step(params, [[0.3], [0.7]])
    assert np.array_equal(resp.gamma, np.ones((2, 1)))


def test_e_step_symmetric_point():
    params = GmmParams([0.5, 0.5], [[-1.0], [1.0]], [np.eye(1), np.eye(1)])
    resp = gmm_e_step(params, [[0.0]])
    assert np.allclose(resp.gamma[0], [0.5, 0.5], atol=1e-12)


def test_e_step_matches_bayes_oracle():
    params = _random_gmm(4)
    X = RandomSource(5).standard_normal((25, 2))
    assert np.allclose(gmm_e_step(params, X).gamma,
                       _bayes_rule_responsibilities(params, X), atol=1e-12)


def test_e_step_rows_are_simplexes():
    params = _random_gmm(6)
    X = 5.0 * RandomSource(7).standard_normal((40, 2))
    gamma = gmm_e_step(params, X).gamma
    assert np.all(gamma >= 0)
    assert np.allclose(gamma.sum(axis=1), 1.0, atol=1e-12)


# -- GMM M-step -----------------------------------------------------------------

def test_m_step_hard_assignments():
    X = np.vstack([RandomSource(8).standard_normal((30, 2)),
                   RandomSource(9).standard_normal((40, 2)) + 10.0])
    gamma = np.zeros((70, 2))
    gamma[:30, 0] = 1.0
    gamma[30:, 1] = 1.0
    params = gmm_m_step(X, Responsibilities(gamma))
    assert np.allclose(params.weights, [30 / 70, 40 / 70], atol=1e-12)
    assert np.allclose(params.means[0], X[:30].mean(axis=0), atol=1e-12)
    assert np.allclose(params.covs[1], np.cov(X[30:].T, bias=True), atol=1e-6)


def test_m_step_uniform_responsibilities():
    X = RandomSource(10).standard_normal((50, 2))
    gamma = np.full((50, 2), 0.5)
    params = gmm_m_step(X, Responsibilities(gamma))
    for k in range(2):
        assert np.allclose(params.means[k], X.mean(axis=0), atol=1e-12)
        assert np.allclose(params.covs[k], np.cov(X.T, bias=True), atol=1e-6)


def test_m_step_matches_weighted_average_oracle():
    X = RandomSource(11).standard_normal((40, 3))
    raw = RandomSource(12).uniform((40, 2)) + 0.1
    gamma = raw / raw.sum(axis=1, keepdims=True)
    params = gmm_m_step(X, Responsibilities(gamma))
    for k in range(2):
        nk = gamma[:, k].sum()
        mean_k = (gamma[:, k, None] * X).sum(axis=0) / nk
        diff = X - mean_k
        cov_k = (gamma[:, k, None] * diff).T @ diff / nk
        assert np.allclose(params.means[k], mean_k, atol=1e-12)
        assert np.allclose(params.covs[k], cov_k, atol=1e-8)


def test_m_step_empty_component_rescue():
    X = RandomSource(13).standard_normal((20, 2))
    gamma = np.zeros((20, 2))
    gamma[:, 0] = 1.0
    result = gmm_m_step(X, Responsibilities(gamma))
    params, events = result
    assert events and "re-seeded" in events[0]
    assert params.n_components == 2


def test_lca_m_step_empty_class_rescue():
    X = np.array([[0, 1], [1, 0], [1, 1], [0, 0]])
    gamma = np.zeros((4, 2))
    gamma[:, 0] = 1.0
    params, events = lca_m_step(X, Responsibilities(gamma))
    assert events == ["class 1 empty; re-seeded at data point 0"]
    assert np.allclose(params.weights, [0.75, 0.25])


def test_m_steps_reseed_two_empty_columns_at_distinct_rows():
    # every row is one-hot, so every row ties for "most ambiguous"; each
    # empty column still needs a row of its own
    gamma = np.zeros((30, 3))
    gamma[:, 0] = 1.0
    X = RandomSource(31).standard_normal((30, 2))
    params, events = gmm_m_step(X, Responsibilities(gamma))
    assert np.all(np.isfinite(params.means))
    assert events == ["component 1 empty; re-seeded at data point 0",
                      "component 2 empty; re-seeded at data point 1"]
    assert np.allclose(params.weights, [28 / 30, 1 / 30, 1 / 30])
    codes = RandomSource(32).integers(0, 3, (30, 4))
    params, events = lca_m_step(codes, Responsibilities(gamma))
    assert events == ["class 1 empty; re-seeded at data point 0",
                      "class 2 empty; re-seeded at data point 1"]
    for table in params.item_probs:
        assert np.allclose(table.sum(axis=1), 1.0)


def test_m_steps_never_empty_a_donor_column():
    # Row 0 is the most ambiguous, but it holds all of column 1, so column 2
    # takes row 1 instead; taking row 0 left column 1 empty and its mean 0/0.
    gamma = np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    params, events = gmm_m_step(np.array([[0.0], [1.0], [2.0]]), Responsibilities(gamma))
    assert events == ["component 2 empty; re-seeded at data point 1"]
    assert np.allclose(params.weights, [1 / 2, 1 / 6, 1 / 3])
    assert np.allclose(params.means[:, 0], [4 / 3, 0.0, 1.0])
    params, events = lca_m_step(np.array([[0], [1], [1]]), Responsibilities(gamma))
    assert events == ["class 2 empty; re-seeded at data point 1"]
    assert np.allclose(params.weights, [1 / 2, 1 / 6, 1 / 3])
    assert all(np.all(np.isfinite(t)) for t in params.item_probs)


def test_m_steps_reject_a_rescue_that_would_empty_a_donor():
    # two empty columns, two rows, and column 0 needs one of them
    gamma = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="no data point can re-seed component 2 without"):
        gmm_m_step(np.array([[0.0], [1.0]]), Responsibilities(gamma))


def test_m_steps_reject_more_empty_columns_than_rows():
    gamma = np.zeros((2, 4))
    gamma[:, 0] = 1.0
    X = RandomSource(33).standard_normal((2, 2))
    with pytest.raises(ValueError, match="3 empty component columns but only 2 data points"):
        gmm_m_step(X, Responsibilities(gamma))
    codes = RandomSource(34).integers(0, 3, (2, 4))
    with pytest.raises(ValueError, match="3 empty class columns but only 2 data points"):
        lca_m_step(codes, Responsibilities(gamma))


# -- fit_gmm ---------------------------------------------------------------------

def test_fit_recovers_separated_clusters():
    rng = RandomSource(14)
    mu1, mu2 = np.array([0.0, 0.0]), np.array([10.0, 0.0])
    X = np.vstack([rng.standard_normal((300, 2)) + mu1,
                   rng.standard_normal((300, 2)) + mu2])
    params, report = fit_gmm(X, 2, EmConfig(seed=14))
    fitted = params.means[np.argsort(params.means[:, 0])]
    assert np.linalg.norm(fitted[0] - mu1) < 0.1
    assert np.linalg.norm(fitted[1] - mu2) < 0.1
    assert report.converged


def test_fit_identical_points():
    X = np.tile([2.0, -1.0], (15, 1))
    params, _report = fit_gmm(X, 1, EmConfig(seed=0))
    assert np.allclose(params.means[0], [2.0, -1.0])
    evals = np.linalg.eigvalsh(params.covs[0])
    assert np.all(evals > 0)          # floored, not singular
    assert np.all(evals < 1e-10)


def test_fit_deterministic_given_seed():
    X = RandomSource(15).standard_normal((60, 2))
    p1, r1 = fit_gmm(X, 2, EmConfig(seed=6))
    p2, r2 = fit_gmm(X, 2, EmConfig(seed=6))
    assert np.array_equal(p1.means, p2.means)
    assert np.array_equal(r1.objective_trace, r2.objective_trace)


def test_label_permutation_invariance():
    params = _random_gmm(16)
    X = RandomSource(17).standard_normal((20, 2))
    perm = [2, 0, 1]
    permuted = GmmParams(params.weights[perm], params.means[perm], params.covs[perm])
    assert gmm_loglik(permuted, X) == pytest.approx(gmm_loglik(params, X), abs=1e-12)
    assert np.allclose(gmm_e_step(permuted, X).gamma,
                       gmm_e_step(params, X).gamma[:, perm], atol=1e-12)


# -- LCA ---------------------------------------------------------------------------

def _random_lca(seed, K=2, J=3, C=2):
    rng = RandomSource(seed)
    w = rng.uniform(K) + 0.3
    w /= w.sum()
    tables = []
    for _ in range(J):
        t = rng.uniform((K, C)) + 0.2
        t /= t.sum(axis=1, keepdims=True)
        tables.append(t)
    return LcaParams(w, tuple(tables))


def test_lca_k1_empirical_frequencies():
    X = np.array([[0, 1], [0, 0], [1, 1], [0, 1]])
    resp = lca_e_step(_random_lca(18, K=1, J=2), X)
    params = lca_m_step(X, resp)
    assert np.allclose(params.item_probs[0][0], [0.75, 0.25], atol=1e-9)
    assert np.allclose(params.item_probs[1][0], [0.25, 0.75], atol=1e-9)


def test_lca_deterministic_pattern_recovery():
    # two classes answer three binary items in complementary deterministic ways
    X = np.vstack([np.tile([0, 0, 0], (40, 1)), np.tile([1, 1, 1], (60, 1))])
    params, report = fit_lca(X, 2, EmConfig(seed=19))
    gamma = lca_e_step(params, X).gamma
    hard = gamma.argmax(axis=1)
    assert len(set(hard[:40])) == 1 and len(set(hard[40:])) == 1
    assert hard[0] != hard[-1]
    assert gamma.max(axis=1).min() > 0.99


def test_lca_single_certain_item():
    params = LcaParams([1.0], (np.array([[1.0]]),))
    X = np.zeros((10, 1), dtype=int)
    assert lca_loglik(params, X) == pytest.approx(0.0, abs=1e-9)


def test_lca_loglik_matches_enumeration_oracle():
    # mixture likelihood over all 2^3 patterns sums to 1, and per-pattern
    # probabilities match exhaustive enumeration
    params = _random_lca(20)
    patterns = np.array(list(itertools.product([0, 1], repeat=3)))
    total = 0.0
    for pat in patterns:
        brute = sum(params.weights[k]
                    * np.prod([params.item_probs[j][k, pat[j]] for j in range(3)])
                    for k in range(2))
        assert lca_loglik(params, pat[None, :]) == pytest.approx(math.log(brute), abs=1e-12)
        total += brute
    assert total == pytest.approx(1.0, abs=1e-12)


def test_lca_e_step_matches_bayes_oracle():
    params = _random_lca(21)
    X = RandomSource(22).integers(0, 2, (30, 3))
    gamma = lca_e_step(params, X).gamma
    for i, x in enumerate(X):
        dens = np.array([params.weights[k]
                         * np.prod([params.item_probs[j][k, x[j]] for j in range(3)])
                         for k in range(2)])
        assert np.allclose(gamma[i], dens / dens.sum(), atol=1e-12)


def test_lca_out_of_range_category():
    params = _random_lca(23)
    X = np.array([[0, 1, 0], [0, 3, 1]])
    with pytest.raises(ValueError, match="item 1"):
        lca_loglik(params, X)


def test_lca_monotone_loglik():
    X = RandomSource(24).integers(0, 2, (80, 4))
    _params, report = fit_lca(X, 3, EmConfig(seed=24))
    assert np.all(np.diff(report.objective_trace) >= -1e-8)


def test_fit_lca_rejects_non_integer_and_negative_codes():
    X = RandomSource(60).integers(0, 3, (40, 3)).astype(float)
    X[5, 1] = 1.7
    with pytest.raises(ValueError, match="integer category codes"):
        fit_lca(X, 2, EmConfig(seed=0))
    X[5, 1] = -1.0
    with pytest.raises(ValueError, match="nonnegative"):
        fit_lca(X, 2, EmConfig(seed=0))


def test_gmm_sample_spreads_as_the_oracle_at_a_tiny_covariance():
    # a fixed jitter of 1e-12 I would give sd 1e-6 for 1e-7
    cov = 1e-14 * np.eye(2)
    X, _z = gmm_sample(GmmParams([1.0], [[1.0, -2.0]], [cov]), 4000, RandomSource(5))
    g, oracle = Gaussian([1.0, -2.0], cov), RandomSource(6)
    assert same_spread(X, [sample_gaussian(g, oracle) for _ in range(4000)])


def test_a_zero_covariance_component_draws_its_mean_and_no_normals():
    params = GmmParams([0.5, 0.5], [[1.0, -2.0], [0.0, 3.0]], [np.zeros((2, 2)), np.eye(2)])
    rng = RandomSource(7)
    X, z = gmm_sample(params, 200, rng)
    assert np.array_equal(X[z == 0], np.tile([1.0, -2.0], (np.sum(z == 0), 1)))
    # the stream gave its uniforms to the components and normals to component 1 only
    ref = RandomSource(7)
    ref.uniform(200)
    assert np.array_equal(X[z == 1], [0.0, 3.0] + ref.standard_normal((np.sum(z == 1), 2)))
    assert rng.standard_normal() == ref.standard_normal()
