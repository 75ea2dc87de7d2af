import math

import numpy as np
import pytest

from latentlab.core import RandomSource
from latentlab.em import EmConfig
from latentlab.irt import (IrtParams, default_quadrature, fit_irt, item_prob,
                           marginal_loglik, posterior_theta)


def _simulate(params, n, seed):
    rng = RandomSource(seed)
    theta = rng.standard_normal(n)
    probs = 1.0 / (1.0 + np.exp(-(np.outer(theta, params.a) - params.b)))
    return (rng.uniform(probs.shape) < probs).astype(int), theta


def test_item_prob_half_at_crossing():
    # logit vanishes at theta = b/a
    assert item_prob(1.0 / 2.0, 2.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert item_prob(0.0, 1.0, 0.0) == pytest.approx(0.5, abs=1e-12)


def test_item_prob_scalar_value():
    assert item_prob(1.0, 2.0, 1.0) == pytest.approx(1 / (1 + math.exp(-1.0)), abs=1e-12)


def test_item_prob_monotone():
    thetas = np.linspace(-4, 4, 101)
    vals = item_prob(thetas, 1.3, 0.4)
    assert np.all(np.diff(vals) > 0)
    assert np.all((vals > 0) & (vals < 1))
    # monotone in -b as well
    assert item_prob(0.7, 1.3, -1.0) > item_prob(0.7, 1.3, 1.0)


def test_quadrature_weights_normalized():
    quad = default_quadrature()
    assert quad.weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert len(quad.nodes) == 41
    # integrates low-order moments of N(0,1) essentially exactly
    assert quad.weights @ quad.nodes == pytest.approx(0.0, abs=1e-12)
    assert quad.weights @ quad.nodes ** 2 == pytest.approx(1.0, abs=1e-10)


def test_marginal_flat_item_exact_bernoulli():
    # a -> 0 drops theta: marginal is Bernoulli(sigmoid(-b)) exactly
    quad = default_quadrature()
    b = 0.8
    params = IrtParams([0.0], [b])
    p1 = 1 / (1 + math.exp(b))
    assert marginal_loglik(params, [[1]], quad) == pytest.approx(math.log(p1), abs=1e-12)
    assert marginal_loglik(params, [[0]], quad) == pytest.approx(math.log(1 - p1), abs=1e-12)


def test_marginal_symmetric_item_is_half():
    quad = default_quadrature()
    params = IrtParams([1.0], [0.0])
    assert marginal_loglik(params, [[1]], quad) == pytest.approx(math.log(0.5), abs=1e-10)


def test_marginal_matches_monte_carlo():
    quad = default_quadrature()
    params = IrtParams([1.2, 0.7, 2.0], [0.3, -0.5, 1.0])
    X = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]])
    rng = RandomSource(31)
    thetas = rng.standard_normal(1_000_000)
    p = 1.0 / (1.0 + np.exp(-(np.outer(thetas, params.a) - params.b)))
    for x in X:
        lik = np.prod(np.where(x == 1, p, 1 - p), axis=1)
        mc = math.log(lik.mean())
        assert marginal_loglik(params, x[None, :], quad) == pytest.approx(mc, abs=2e-3)


def test_quadrature_refinement_stable():
    params = IrtParams([1.0, 1.5], [0.2, -0.4])
    X, _ = _simulate(params, 200, 32)
    v41 = marginal_loglik(params, X, default_quadrature(41))
    v82 = marginal_loglik(params, X, default_quadrature(82))
    assert abs(v41 - v82) < 1e-4


def test_posterior_flat_items_recovers_prior():
    quad = default_quadrature()
    params = IrtParams([0.0, 0.0], [0.3, -0.3])
    eap, sd, w = posterior_theta(params, [1, 0], quad)
    assert eap == pytest.approx(0.0, abs=1e-12)
    assert sd == pytest.approx(1.0, abs=1e-6)
    assert np.allclose(w, quad.weights, atol=1e-15)


def test_posterior_complementary_symmetry():
    quad = default_quadrature()
    params = IrtParams([1.0, 1.0], [0.0, 0.0])
    x = np.array([1, 1])
    eap_pos, _, _ = posterior_theta(params, x, quad)
    eap_neg, _, _ = posterior_theta(params, 1 - x, quad)
    assert eap_pos == pytest.approx(-eap_neg, abs=1e-10)
    assert eap_pos > 0


def test_posterior_matches_fine_grid_oracle():
    quad = default_quadrature()
    params = IrtParams([1.1, 0.6, 1.7], [0.2, -0.7, 0.9])
    x = np.array([1, 0, 1])
    grid = np.linspace(-8, 8, 10_001)
    prior = np.exp(-0.5 * grid ** 2) / math.sqrt(2 * math.pi)
    p = 1.0 / (1.0 + np.exp(-(np.outer(grid, params.a) - params.b)))
    lik = np.prod(np.where(x == 1, p, 1 - p), axis=1)
    post = prior * lik
    post /= np.trapezoid(post, grid)
    eap_grid = np.trapezoid(grid * post, grid)
    eap, sd, w = posterior_theta(params, x, quad)
    assert eap == pytest.approx(eap_grid, abs=1e-3)
    assert abs(w.sum() - 1.0) < 1e-12
    assert quad.nodes.min() <= eap <= quad.nodes.max()


def test_posterior_extreme_patterns_finite():
    quad = default_quadrature()
    params = IrtParams([2.0] * 5, [0.0] * 5)
    for pattern in (np.ones(5, dtype=int), np.zeros(5, dtype=int)):
        eap, sd, _ = posterior_theta(params, pattern, quad)
        assert np.isfinite(eap) and np.isfinite(sd)


def test_fit_recovers_parameters():
    true = IrtParams(np.array([0.8, 1.2, 1.6, 1.0, 0.7, 1.4, 2.0, 0.9, 1.1, 1.3]),
                     np.array([-1.0, -0.5, 0.0, 0.3, 0.8, -0.2, 0.5, 1.0, -0.8, 0.1]))
    X, _ = _simulate(true, 2000, 33)
    quad = default_quadrature()
    params, report = fit_irt(X, quad, EmConfig(seed=33, max_iters=200))
    rmse_a = math.sqrt(np.mean((params.a - true.a) ** 2))
    rmse_b = math.sqrt(np.mean((params.b - true.b) ** 2))
    assert rmse_a <= 0.15
    assert rmse_b <= 0.10
    assert np.all(np.diff(report.objective_trace) >= -1e-6)


def test_fit_single_balanced_item():
    # exactly balanced responses: symmetry pins the difficulty at zero
    X = np.concatenate([np.ones(250, dtype=int), np.zeros(250, dtype=int)])[:, None]
    quad = default_quadrature()
    params, _report = fit_irt(X, quad, EmConfig(seed=34, max_iters=100))
    assert abs(params.b[0]) < 1e-6


def test_fit_rejects_constant_item():
    X = np.ones((50, 2), dtype=int)
    X[:, 1] = RandomSource(35).integers(0, 2, 50)
    with pytest.raises(ValueError, match="item 0"):
        fit_irt(X, default_quadrature(), EmConfig(seed=0))


def test_fit_rejects_non_binary_responses():
    X = RandomSource(36).integers(0, 3, (50, 3))
    with pytest.raises(ValueError, match="responses must be binary"):
        fit_irt(X, default_quadrature(), EmConfig(seed=0))


def test_flat_item_factorizes_out():
    quad = default_quadrature()
    with_flat = IrtParams([1.0, 0.0], [0.2, 0.6])
    without = IrtParams([1.0], [0.2])
    x = np.array([[1, 1], [0, 1], [1, 0]])
    const1 = math.log(1 / (1 + math.exp(0.6)))
    const0 = math.log(1 - 1 / (1 + math.exp(0.6)))
    for row in x:
        full = marginal_loglik(with_flat, row[None, :], quad)
        reduced = marginal_loglik(without, row[None, :1], quad)
        expected = reduced + (const1 if row[1] == 1 else const0)
        assert full == pytest.approx(expected, abs=1e-12)
