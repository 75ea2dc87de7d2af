"""Two-parameter logistic item response model with a standard-normal
ability prior. The marginal likelihood integrates ability out by
Gauss-Hermite quadrature; fitting alternates a quadrature E-step with
per-item Newton updates on (log a_j, b_j).

Item response function: P(X_j = 1 | theta) = sigmoid(a_j * theta - b_j).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite_e import hermegauss

from .core import (category_codes, check_counts, log_sum_exp_rows, normalize_log_rows,
                   real_fields, row_sums, sigmoid, softmax_rows)
from .em import EmConfig, run_em

__all__ = ["IrtParams", "QuadratureRule", "item_prob", "marginal_loglik", "loglik_rows",
           "posterior_theta", "posterior_moments", "fit_irt", "default_quadrature",
           "sample"]

DEFAULT_NODES = 41
NEWTON_MAX_STEPS = 25
NEWTON_GRAD_TOL = 1e-10


@dataclass(frozen=True)
class IrtParams:
    """Item discriminations a (J,) and difficulties b (J,).

    Fitted models keep a_j > 0 (identifiability convention); a_j = 0 is
    accepted for evaluation so flat-item limits stay expressible.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        real_fields(self, a=1, b=1)
        if self.a.shape != self.b.shape or not self.a.size:
            raise ValueError("a and b must have one length, at least 1")
        if np.any(self.a < 0):
            raise ValueError("discriminations must be nonnegative")

    @property
    def n_items(self):
        return self.a.shape[0]



@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights integrating against the standard-normal measure."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        real_fields(self, nodes=1, weights=1)
        if self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must be equal-length vectors")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")
        if abs(self.weights.sum() - 1.0) > 1e-10:
            raise ValueError("weights must integrate the constant 1 to 1")


def default_quadrature(n_nodes=DEFAULT_NODES):
    """Gauss-Hermite rule of n_nodes nodes (the quad_nodes setting, at least
    1) rescaled to the N(0, 1) prior measure."""
    check_counts(quad_nodes=n_nodes)
    x, w = hermegauss(n_nodes)
    w = w / math.sqrt(2.0 * math.pi)
    w = w / w.sum()
    return QuadratureRule(x, w)


def item_prob(theta, a_j, b_j):
    """Logistic response probability sigmoid(a_j * theta - b_j)."""
    return sigmoid(a_j * np.asarray(theta, dtype=float) - b_j)


def _check_responses(responses, n_items=None):
    return category_codes(responses, "responses", 2 if n_items is None else [2] * n_items)[0]


def _log_lik_at_nodes(params, X, quad):
    """(N, Q) log p(x_i | theta_q) from the Bernoulli item products, as one
    product: log sigmoid(z) - log(1 - sigmoid(z)) = z, so
    sum_j x_j log p1 + (1 - x_j) log p0 = x . z + sum_j log p0. Its error is
    a few ulps of sum_j |z_j|, absolute: an entry near zero (every response
    near-certain at that node) is not accurate to its own digits."""
    Z = np.outer(quad.nodes, params.a) - params.b          # (Q, J)
    log_p0 = -np.logaddexp(0.0, Z)                         # log(1 - sigmoid(z)) = -softplus(z)
    return X @ Z.T + log_p0.sum(axis=1)                    # (N, Q)


def loglik_rows(params, responses, quad):
    """Quadrature approximation of log integral p(x_i | th) N(th) dth for
    each row x_i of responses."""
    X = _check_responses(responses, params.n_items)
    ll = _log_lik_at_nodes(params, X, quad)
    return log_sum_exp_rows(ll + np.log(quad.weights))


def marginal_loglik(params, responses, quad):
    """Quadrature approximation of sum_i log integral p(x_i | th) N(th) dth."""
    return float(np.sum(loglik_rows(params, responses, quad)))


def sample(params, n, rng):
    """Ancestral draws: an ability per row, then each item's response.
    Returns (binary responses, abilities)."""
    theta = rng.standard_normal(n)
    probs = item_prob(theta[:, None], params.a, params.b)
    return (rng.uniform(probs.shape) < probs).astype(int), theta


def posterior_theta(params, x, quad):
    """Discretized ability posterior for one response vector.

    Returns (eap, sd, node_weights); node_weights is the normalized
    posterior mass over quadrature nodes.
    """
    X = _check_responses(np.atleast_2d(x), params.n_items)
    w = softmax_rows(_log_lik_at_nodes(params, X, quad)[0] + np.log(quad.weights))
    eap = float(w @ quad.nodes)
    var = float(w @ (quad.nodes - eap) ** 2)
    return eap, math.sqrt(max(var, 0.0)), w


def _node_posteriors(params, X, quad):
    """(N, Q) posterior node weights and the total marginal log-likelihood,
    the sum of their log-normalizers (the arithmetic of marginal_loglik)."""
    gamma, lse = normalize_log_rows(_log_lik_at_nodes(params, X, quad) + np.log(quad.weights))
    return gamma, float(np.sum(lse))


def posterior_moments(params, responses, quad):
    """Posterior mean (EAP) and standard deviation of ability for every row
    of responses, from one pass over the quadrature grid: the vectorized
    form of posterior_theta's first two outputs."""
    X = _check_responses(responses, params.n_items)
    gamma, _ = _node_posteriors(params, X, quad)
    eap = gamma @ quad.nodes
    var = row_sums(gamma * (quad.nodes[None, :] - eap[:, None]) ** 2)
    return eap, np.sqrt(np.maximum(var, 0.0))


def _item_objective(c, b, theta, r, n):
    """Expected Bernoulli log-likelihood of one item on the node grid,
    parameterized by c = log(a)."""
    z = math.exp(c) * theta - b
    log_p1 = -np.logaddexp(0.0, -z)
    log_p0 = -np.logaddexp(0.0, z)
    return float(r @ log_p1 + (n - r) @ log_p0)


def _newton_item(theta, r, n, c0, b0):
    """Maximize the per-item expected log-likelihood by damped Newton steps
    in (log a, b)."""
    c, b = c0, b0
    f = _item_objective(c, b, theta, r, n)
    # p = 1 / (1 + exp(-z)) is exactly 0 where exp(-z) overflows (z < -709),
    # as on responses that a threshold in ability separates
    with np.errstate(over="ignore"):
        for _ in range(NEWTON_MAX_STEPS):
            a = math.exp(c)
            z = a * theta - b
            p = 1.0 / (1.0 + np.exp(-z))
            resid = r - n * p
            g_a = float(resid @ theta)
            g_b = -float(resid.sum())
            w = n * p * (1.0 - p)
            h_aa = -float(w @ (theta * theta))
            h_ab = float(w @ theta)
            h_bb = -float(w.sum())
            # chain rule to c = log a
            g_c = a * g_a
            h_cc = a * a * h_aa + a * g_a
            h_cb = a * h_ab
            grad = np.array([g_c, g_b])
            if np.linalg.norm(grad, ord=np.inf) < NEWTON_GRAD_TOL:
                break
            H = np.array([[h_cc, h_cb], [h_cb, h_bb]])
            H -= 1e-10 * np.eye(2)
            try:
                step = np.linalg.solve(H, grad)
            except np.linalg.LinAlgError:
                step = -grad
            t = 1.0
            improved = False
            for _ in range(30):
                c_new, b_new = c - t * step[0], b - t * step[1]
                f_new = _item_objective(c_new, b_new, theta, r, n)
                if f_new >= f:
                    c, b, f = c_new, b_new, f_new
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
    return c, b


def fit_irt(responses, quad, cfg: EmConfig, init=None):
    """EM fit of the 2PL model. The E-step discretizes each person's ability
    posterior on the quadrature grid; the M-step refits every item to the
    expected response counts at the nodes."""
    # as floats once, so neither step's product casts the codes again
    X = _check_responses(responses).astype(float)
    N, J = X.shape
    if N < 2 or J < 1:
        raise ValueError("need at least 2 persons and 1 item")
    col_means = X.mean(axis=0)
    constant = np.where((col_means == 0) | (col_means == 1))[0]
    if constant.size:
        raise ValueError(f"item {constant[0]} has constant responses; parameters unidentifiable")
    if init is None:
        # logit of the observed proportion gives a reasonable difficulty start
        b0 = -np.log(col_means / (1 - col_means))
        init = IrtParams(np.ones(J), b0)

    def e_step(params, data):
        return (params, *_node_posteriors(params, data, quad))

    def m_step(data, posterior):
        prev, gamma, _loglik = posterior
        n_q = gamma.sum(axis=0)                    # expected persons per node
        r = gamma.T @ data                         # (Q, J) expected correct
        a_new = np.empty(J)
        b_new = np.empty(J)
        for j in range(J):
            c0 = math.log(max(prev.a[j], 1e-3))    # warm-start Newton at previous item values
            c, b = _newton_item(quad.nodes, r[:, j], n_q, c0, prev.b[j])
            a_new[j] = math.exp(c)
            b_new[j] = b
        return IrtParams(a_new, b_new)

    def objective(posterior):
        return posterior[2]

    params, report = run_em(e_step, m_step, objective, X, init, cfg,
                            monotonic_slack=1e-6)
    return params, report
