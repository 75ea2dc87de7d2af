import math

import numpy as np
import pytest

from oracle_utils import gaussian_condition, same_spread, sample_gaussian
from latentlab.core import Gaussian, RandomSource
from latentlab.em import EmConfig
from latentlab.ppca import (PpcaParams, canonicalize, fit_closed_form, fit_em,
                            marginal_loglik, posterior, reconstruct, sample, sample_joint)


def _random_params(seed, D=3, M=2):
    rng = RandomSource(seed)
    W = rng.standard_normal((D, M))
    mu = rng.standard_normal(D)
    return PpcaParams(W, mu, 0.3)


def _simulate(params, n, seed):
    rng = RandomSource(seed)
    Z = rng.standard_normal((n, params.latent_dim))
    eps = math.sqrt(params.sigma2) * rng.standard_normal((n, params.data_dim))
    return Z @ params.W.T + params.mu + eps


# -- closed form --------------------------------------------------------------

def test_noiseless_subspace_limit():
    rng = RandomSource(0)
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    Z = rng.standard_normal((400, 2))
    X = Z @ basis.T + np.array([5.0, -1.0, 2.0])
    params = fit_closed_form(X, 2)
    assert params.sigma2 == pytest.approx(0.0, abs=1e-12)
    # span(W) equals the planted subspace: residual of projection vanishes
    Q, _ = np.linalg.qr(params.W)
    resid = basis - Q @ (Q.T @ basis)
    assert np.linalg.norm(resid) < 1e-8


def test_isotropic_data_eigen_oracle():
    rng = RandomSource(1)
    X = 1.7 * rng.standard_normal((4000, 4))
    params = fit_closed_form(X, 2)
    evals = np.sort(np.linalg.eigvalsh(np.cov(X.T, bias=True)))
    # fitted noise equals the mean of the two trailing eigenvalues exactly
    assert params.sigma2 == pytest.approx(float(evals[:2].mean()), rel=1e-10)
    assert params.sigma2 == pytest.approx(1.7 ** 2, rel=0.1)
    # column scales shrink toward zero as the spectrum flattens
    assert np.all(np.linalg.norm(params.W, axis=0) ** 2 < 0.2 * params.sigma2)


def test_hand_eigendecomposition_case():
    # covariance diag(4, 1): top eigenpair (4, e1); sigma2 = 1; W = [sqrt(3), 0]
    rng = RandomSource(2)
    Z = rng.standard_normal((200_000, 2))
    X = Z * np.array([2.0, 1.0])
    params = fit_closed_form(X, 1)
    assert params.sigma2 == pytest.approx(1.0, rel=0.02)
    assert abs(params.W[0, 0]) == pytest.approx(math.sqrt(3.0), rel=0.02)
    assert abs(params.W[1, 0]) < 0.05


def test_fit_rejects_bad_shapes():
    X = RandomSource(3).standard_normal((50, 3))
    with pytest.raises(ValueError):
        fit_closed_form(X, 3)
    with pytest.raises(ValueError):
        fit_closed_form(X[:2], 2)


def test_rank_deficient_errors():
    X = np.zeros((30, 3))
    X[:, 0] = RandomSource(4).standard_normal(30)
    with pytest.raises(ValueError):
        fit_closed_form(X, 2)


def test_no_single_eigen_swap_improves():
    X = _simulate(_random_params(5), 800, 55)
    fitted = fit_closed_form(X, 2)
    base = marginal_loglik(fitted, X)
    S = np.cov(X.T, bias=True)
    evals, evecs = np.linalg.eigh(S)
    order = np.argsort(evals)[::-1]
    evals, evecs = evals[order], evecs[:, order]
    # swap a kept eigenpair with the discarded one
    for swap_out in range(2):
        keep = [0, 1]
        keep[swap_out] = 2
        sigma2 = float(np.delete(evals, keep).mean())
        W = evecs[:, keep] * np.sqrt(np.maximum(evals[keep] - sigma2, 0))
        alt = PpcaParams(W, X.mean(axis=0), max(sigma2, 1e-12))
        assert marginal_loglik(alt, X) <= base + 1e-7


# -- posterior / reconstruction ----------------------------------------------

def test_posterior_at_mean_is_zero():
    params = _random_params(6)
    post = posterior(params, params.mu)
    assert np.allclose(post.mean, 0.0, atol=1e-12)


def test_posterior_pca_limit():
    rng = RandomSource(7)
    A = rng.standard_normal((3, 2))
    Q, _ = np.linalg.qr(A)
    params = PpcaParams(Q, np.zeros(3), 0.0)
    x = rng.standard_normal(3)
    post = posterior(params, x)
    assert np.allclose(post.mean, Q.T @ x, atol=1e-12)
    assert np.allclose(post.cov, 0.0, atol=1e-12)


def test_posterior_matches_gaussian_conditioning():
    params = _random_params(8)
    rng = RandomSource(9)
    x = rng.standard_normal(3)
    D, M = 3, 2
    joint_mean = np.concatenate([np.zeros(M), params.mu])
    cov_zz = np.eye(M)
    cov_zx = params.W.T
    cov_xx = params.W @ params.W.T + params.sigma2 * np.eye(D)
    joint_cov = np.block([[cov_zz, cov_zx], [cov_zx.T, cov_xx]])
    cond = gaussian_condition(Gaussian(joint_mean, joint_cov), M, x)
    post = posterior(params, x)
    assert np.allclose(post.mean, cond.mean, atol=1e-10)
    assert np.allclose(post.cov, cond.cov, atol=1e-10)


def test_reconstruct_exact_in_pca_limit():
    rng = RandomSource(10)
    A = rng.standard_normal((4, 2))
    Q, _ = np.linalg.qr(A)
    params = PpcaParams(Q, np.zeros(4), 0.0)
    z = rng.standard_normal(2)
    x = Q @ z                       # in the model subspace
    assert np.allclose(reconstruct(params, x), x, atol=1e-10)


def test_reconstruct_mean_fixed_point():
    params = _random_params(11)
    assert np.allclose(reconstruct(params, params.mu), params.mu, atol=1e-12)


def test_reconstruction_shrinks_with_noise():
    rng = RandomSource(12)
    W = rng.standard_normal((3, 2))
    mu = np.zeros(3)
    x = rng.standard_normal(3)
    r_small = reconstruct(PpcaParams(W, mu, 0.1), x)
    r_large = reconstruct(PpcaParams(W, mu, 1.0), x)
    assert np.linalg.norm(r_large - mu) <= np.linalg.norm(r_small - mu) + 1e-12


# -- sampling ------------------------------------------------------------------

def test_sample_no_signal():
    params = PpcaParams(np.zeros((2, 1)), np.array([3.0, -1.0]), 0.25)
    X = sample(params, 50_000, RandomSource(13))
    assert np.allclose(X.mean(axis=0), [3.0, -1.0], atol=0.02)
    assert np.allclose(np.cov(X.T), 0.25 * np.eye(2), atol=0.02)


def test_sample_prior_covariance():
    params = _random_params(14)
    X = sample(params, 100_000, RandomSource(14))
    target = params.W @ params.W.T + params.sigma2 * np.eye(3)
    emp = np.cov(X.T)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel < 0.03


def test_posterior_samples_concentrate():
    rng = RandomSource(15)
    W = np.linalg.qr(rng.standard_normal((3, 2)))[0]
    x = rng.standard_normal(3)
    params = PpcaParams(W, np.zeros(3), 1e-8)
    draws = sample(params, 200, RandomSource(16), mode="posterior", given=x)
    assert np.allclose(draws.mean(axis=0), reconstruct(params, x), atol=1e-3)


def test_posterior_draws_spread_as_the_oracle_at_a_tiny_noise_variance():
    # a fixed jitter of 1e-15 I would give sd 3.2e-8 for the posterior's 1e-10
    params = PpcaParams([[1.0], [0.0], [0.0]], np.zeros(3), 1e-20)
    x = [1.0, 0.5, -0.5]
    Z = sample_joint(params, 4000, RandomSource(8), mode="posterior", given=x)[1]
    post, oracle = posterior(params, x), RandomSource(9)
    g = Gaussian(post.mean, post.cov)
    assert same_spread(Z, [sample_gaussian(g, oracle) for _ in range(4000)])


def test_posterior_draws_at_zero_noise_are_the_posterior_mean():
    # a zero posterior covariance takes no draw: the stream goes to the noise
    params = PpcaParams([[1.0], [0.5], [0.0]], np.zeros(3), 0.0)
    x = [1.0, 0.5, -0.5]
    rng = RandomSource(10)
    Z = sample_joint(params, 6, rng, mode="posterior", given=x)[1]
    assert np.array_equal(Z, np.tile(posterior(params, x).mean, (6, 1)))
    ref = RandomSource(10)
    ref.standard_normal((6, 3))
    assert rng.standard_normal() == ref.standard_normal()


# -- EM ------------------------------------------------------------------------

def test_em_from_closed_form_is_fixed_point():
    X = _simulate(_random_params(17), 500, 18)
    star = fit_closed_form(X, 2)
    _params, report = fit_em(X, 2, EmConfig(seed=0, max_iters=3), init=star)
    assert report.iters <= 1 or report.converged


def test_em_matches_closed_form():
    X = _simulate(PpcaParams(RandomSource(19).standard_normal((5, 2)),
                             np.zeros(5), 0.2), 500, 20)
    star = fit_closed_form(X, 2)
    fitted, report = fit_em(X, 2, EmConfig(seed=3, rel_tol=1e-12, max_iters=5000))
    assert report.objective_trace[-1] == pytest.approx(marginal_loglik(star, X), abs=1e-4)
    model_cov = lambda p: p.W @ p.W.T + p.sigma2 * np.eye(5)
    assert np.linalg.norm(model_cov(fitted) - model_cov(star)) < 1e-3


def test_rotation_invariance():
    params = _random_params(21)
    X = _simulate(params, 100, 22)
    theta = 0.7
    R = np.array([[math.cos(theta), -math.sin(theta)],
                  [math.sin(theta), math.cos(theta)]])
    rotated = PpcaParams(params.W @ R, params.mu, params.sigma2)
    assert marginal_loglik(rotated, X) == pytest.approx(marginal_loglik(params, X), abs=1e-10)


def test_marginal_matches_monte_carlo_integral():
    # d=1, M=1: integrate p(x|z) p(z) dz by Monte Carlo
    params = PpcaParams([[0.8]], [0.2], 0.3)
    x = np.array([0.9])
    rng = RandomSource(23)
    z = rng.standard_normal(200_000)
    dens = np.exp(-0.5 * (x[0] - (0.8 * z + 0.2)) ** 2 / 0.3) / math.sqrt(2 * math.pi * 0.3)
    mc = math.log(dens.mean())
    assert marginal_loglik(params, x[None, :]) == pytest.approx(mc, abs=1e-2)


def test_canonicalize_deterministic():
    params = _random_params(24)
    canon = canonicalize(params)
    norms = np.linalg.norm(canon.W, axis=0)
    assert np.all(np.diff(norms) <= 1e-12)
    for j in range(canon.W.shape[1]):
        col = canon.W[:, j]
        assert col[np.argmax(np.abs(col))] >= 0
    assert marginal_loglik(canon, _simulate(params, 50, 25)) == pytest.approx(
        marginal_loglik(params, _simulate(params, 50, 25)), abs=1e-10)


def test_posterior_means_and_reconstruct_match_per_row():
    from latentlab.ppca import posterior_means
    params = _random_params(30, D=5, M=2)
    X = _simulate(params, 40, 31)
    means = posterior_means(params, X)
    assert means.shape == (40, 2)
    per_row = np.stack([posterior(params, x).mean for x in X])
    assert np.max(np.abs(means - per_row)) < 1e-12
    Minv = np.linalg.inv(params.W.T @ params.W + params.sigma2 * np.eye(2))
    direct = np.stack([Minv @ params.W.T @ (x - params.mu) for x in X])
    assert np.max(np.abs(means - direct)) < 1e-12
    rec = reconstruct(params, X)
    assert rec.shape == X.shape
    assert np.max(np.abs(rec - np.stack([reconstruct(params, x) for x in X]))) < 1e-12
    with pytest.raises(ValueError):
        posterior_means(params, X[:, :4])
