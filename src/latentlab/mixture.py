"""Flat discrete-latent models sharing the responsibility machinery:
Gaussian mixtures over continuous data and latent class analysis over
categorical items. All likelihood work is done in the log domain. The
seeded starts, weighted M-steps, probability floor and empty-component
rescue here are also the HMMs' (sequential.py).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (RandomSource, chol_psd, check_finite, check_simplex_rows, float_list,
                   gaussian_logpdf_columns, integer_codes, log_sum_exp_rows,
                   normalize_log_rows, sample_categorical_many)
from .em import EmConfig, run_em

__all__ = [
    "GmmParams", "LcaParams", "Responsibilities",
    "gmm_loglik", "gmm_loglik_rows", "gmm_e_step", "gmm_m_step", "fit_gmm", "gmm_sample",
    "gmm_to_json", "lca_loglik", "lca_loglik_rows", "lca_e_step", "lca_m_step", "fit_lca",
    "lca_sample", "lca_to_json",
]

EMPTY_COMPONENT_COUNT = 1e-8
PROB_FLOOR = 1e-10


@dataclass(frozen=True)
class GmmParams:
    """Mixture weights (K,), component means (K, d), covariances (K, d, d)."""

    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = check_simplex_rows(np.asarray(self.weights, dtype=float), name="weights")
        means = check_finite(np.atleast_2d(np.asarray(self.means, dtype=float)), "means")
        covs = check_finite(np.asarray(self.covs, dtype=float), "covs")
        K, d = means.shape
        if w.shape != (K,) or covs.shape != (K, d, d):
            raise ValueError("inconsistent GMM parameter shapes")
        for k in range(K):
            chol_psd(covs[k])
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)

    @property
    def n_components(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


def gmm_to_json(params):
    """JSON form with components ordered by the norm of their means."""
    order = np.argsort(np.linalg.norm(params.means, axis=1), kind="stable")
    return {"weights": float_list(params.weights[order]),
            "means": float_list(params.means[order]),
            "covs": float_list(params.covs[order])}



@dataclass(frozen=True)
class LcaParams:
    """Class weights (K,) and per-item conditional category tables.

    item_probs[j] is a (K, C_j) row-stochastic array: row k is the category
    distribution of item j within class k.
    """

    weights: np.ndarray
    item_probs: tuple

    def __post_init__(self):
        w = check_simplex_rows(np.asarray(self.weights, dtype=float), name="weights")
        K = w.shape[0]
        tables = []
        for j, table in enumerate(self.item_probs):
            t = np.asarray(table, dtype=float)
            if t.ndim != 2 or t.shape[0] != K:
                raise ValueError(f"item {j} table must be (K, C_j)")
            check_simplex_rows(t, name=f"item {j} rows")
            tables.append(t)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "item_probs", tuple(tables))

    @property
    def n_classes(self):
        return self.weights.shape[0]

    @property
    def n_items(self):
        return len(self.item_probs)


def lca_to_json(params):
    """JSON form with classes ordered by the entropy of their item tables."""
    stacked = np.concatenate(list(params.item_probs), axis=1)   # (K, sum C_j)
    ent = -np.sum(np.where(stacked > 0, stacked * np.log(stacked), 0.0), axis=1)
    order = np.argsort(ent, kind="stable")
    return {"weights": float_list(params.weights[order]),
            "item_probs": [float_list(t[order]) for t in params.item_probs]}



@dataclass(frozen=True)
class Responsibilities:
    """Posterior component memberships, one simplex row per data point, and
    the total log-likelihood of the data under the parameters that produced
    them (NaN when the rows did not come from an E-step)."""

    gamma: np.ndarray
    loglik: float = math.nan

    def __post_init__(self):
        g = check_simplex_rows(np.atleast_2d(np.asarray(self.gamma, dtype=float)),
                               name="responsibility rows")
        object.__setattr__(self, "gamma", g)


# ---------------------------------------------------------------------------
# Gaussian mixtures

def _gmm_log_joint(params, X):
    """log pi_k + log N(x_i | mu_k, Sigma_k) as an (N, K) array."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    d = X.shape[1]
    if d != params.dim:
        raise ValueError(f"data dim {d} does not match model dim {params.dim}")
    out = gaussian_logpdf_columns(X, params.means, params.covs)
    out += np.log(np.where(params.weights > 0, params.weights, 1e-300))
    return out


def gmm_loglik_rows(params, data):
    """Log-likelihood log sum_k pi_k N(x_i | mu_k, Sigma_k) of each row x_i."""
    return log_sum_exp_rows(_gmm_log_joint(params, data))


def gmm_loglik(params, data):
    """Total log-likelihood sum_i log sum_k pi_k N(x_i | mu_k, Sigma_k)."""
    return float(np.sum(gmm_loglik_rows(params, data)))


def _responsibilities(lj):
    """Normalize an (N, K) log-joint into responsibilities; the row
    normalizers sum to the log-likelihood, as in gmm_loglik/lca_loglik."""
    gamma, lse = normalize_log_rows(lj)
    return Responsibilities(gamma, float(np.sum(lse)))


def _resp_loglik(resp):
    """run_em objective: the log-likelihood the E-step computed."""
    return resp.loglik


def gmm_e_step(params, data):
    """Responsibilities gamma_ik = p(z = k | x_i), computed in the log domain."""
    return _responsibilities(_gmm_log_joint(params, data))


# The component posterior IS the responsibility computation; one code path.
gmm_posterior = gmm_e_step


def _cov_floor(covs, floor):
    """Clamp eigenvalues of each covariance at floor."""
    out = np.empty_like(covs)
    for k in range(covs.shape[0]):
        C = 0.5 * (covs[k] + covs[k].T)
        w, V = np.linalg.eigh(C)
        out[k] = (V * np.maximum(w, floor)) @ V.T
        out[k] = 0.5 * (out[k] + out[k].T)
    return out


def _var_floor(X):
    """Eigenvalue floor of a fitted covariance: 1e-6 of the mean per-column
    variance of X."""
    return 1e-6 * max(float(np.mean(np.var(X, axis=0))), 1e-12)


def _reseed_empty(gamma, what):
    """(gamma, counts, events) with every effectively empty column re-seeded
    at a row of its own: the most ambiguous rows (lowest maximum weight,
    ties by index) go to the empty columns in order. gamma is copied only
    when a column is re-seeded. Raises ValueError when there are more empty
    columns than rows."""
    counts = gamma.sum(axis=0)
    empty = np.where(counts < EMPTY_COMPONENT_COUNT)[0]
    events = []
    if empty.size > gamma.shape[0]:
        raise ValueError(f"{empty.size} empty {what} columns but only "
                         f"{gamma.shape[0]} data points to re-seed them at")
    if empty.size:
        rows = np.argsort(gamma.max(axis=1), kind="stable")
        gamma = gamma.copy()
        for k, i in zip(empty, rows.tolist()):
            gamma[i] = 0.0
            gamma[i, k] = 1.0
            events.append(f"{what} {k} empty; re-seeded at data point {i}")
        counts = gamma.sum(axis=0)
    return gamma, counts, events


def _weighted_gaussians(X, gamma, counts, var_floor):
    """Means (K, d) and covariances (K, d, d) of X under the column weights
    of gamma, whose column sums are counts, floored at var_floor. Two (N, d)
    buffers serve all K components."""
    K, d = gamma.shape[1], X.shape[1]
    means = (gamma.T @ X) / counts[:, None]
    covs = np.empty((K, d, d))
    diff, weighted = np.empty_like(X), np.empty_like(X)
    for k in range(K):
        np.subtract(X, means[k], out=diff)
        np.multiply(gamma[:, k, None], diff, out=weighted)
        covs[k] = weighted.T @ diff / counts[k]
    return means, _cov_floor(covs, var_floor)


def gmm_m_step(data, resp, var_floor=None):
    """Weighted-average parameter updates from responsibilities.

    An effectively empty component is re-seeded at the most ambiguous data
    point (lowest maximum responsibility); the rescue is reported in the
    returned events list as (params, events). var_floor is _var_floor(data),
    which a fit computes once.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    gamma, counts, events = _reseed_empty(resp.gamma, "component")
    if var_floor is None:
        var_floor = _var_floor(X)
    params = GmmParams(counts / counts.sum(),
                       *_weighted_gaussians(X, gamma, counts, var_floor))
    return (params, events) if events else params


def gmm_sample(params, n, rng):
    """Ancestral draws: a component per row, then that component's Gaussian.
    Returns (X, assignments)."""
    z = sample_categorical_many(params.weights, rng, n)
    X = np.empty((n, params.dim))
    for k in range(params.n_components):
        rows = np.where(z == k)[0]
        if rows.size:
            L = np.linalg.cholesky(params.covs[k] + 1e-12 * np.eye(params.dim))
            X[rows] = params.means[k] + rng.standard_normal((rows.size, params.dim)) @ L.T
    return X, z


def _farthest_point_means(X, K, rng):
    """Greedy farthest-point sweep from a seeded start; deterministic."""
    N = X.shape[0]
    first = int(rng.integers(0, N))
    chosen = [first]
    dist = np.sum((X - X[first]) ** 2, axis=1)
    for _ in range(1, K):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.sum((X - X[nxt]) ** 2, axis=1))
    return X[chosen].copy()


def _gaussian_start(X, K, rng, var_floor):
    """Farthest-point means (K, d) and K copies of the pooled covariance of
    X floored at var_floor."""
    d = X.shape[1]
    gcov = _cov_floor(np.cov(X.T, bias=True).reshape(1, d, d), var_floor)
    return _farthest_point_means(X, K, rng), np.repeat(gcov, K, axis=0)


def _perturbed_rows(freq, K, rng):
    """K rows of the floored frequencies freq, each perturbed by seeded
    +-10% noise (which breaks the symmetry of identical rows) and
    normalized."""
    noise = 1.0 + 0.1 * (2.0 * rng.uniform((K, freq.size)) - 1.0)
    rows = np.maximum(freq, PROB_FLOOR)[None, :] * noise
    rows /= rows.sum(axis=1, keepdims=True)
    return rows


def _floored_rows(p):
    """Rows of p clamped at PROB_FLOOR and renormalized."""
    p = np.maximum(p, PROB_FLOOR)
    p /= p.sum(axis=1, keepdims=True)
    return p


def _check_k(K, what):
    if K < 1:
        raise ValueError(f"number of {what} must be >= 1, got {K}")


def fit_gmm(data, K, cfg: EmConfig, init=None):
    """EM fit of a K-component Gaussian mixture; deterministic given cfg.seed."""
    _check_k(K, "components")
    X = np.atleast_2d(np.asarray(data, dtype=float))
    check_finite(X, "data")
    if X.shape[0] < K:
        raise ValueError("need at least K data points")
    floor = _var_floor(X)
    if init is None:
        init = GmmParams(np.full(K, 1.0 / K),
                         *_gaussian_start(X, K, RandomSource(cfg.seed).split(101), floor))

    def m_step(d, resp):
        return gmm_m_step(d, resp, var_floor=floor)

    return run_em(gmm_e_step, m_step, _resp_loglik, X, init, cfg)


# ---------------------------------------------------------------------------
# Latent class analysis

def lca_sample(params, n, rng):
    """Ancestral draws: a class per row, then each item's category given the
    class. Returns (integer codes, assignments)."""
    z = sample_categorical_many(params.weights, rng, n)
    X = np.empty((n, params.n_items), dtype=int)
    for j, table in enumerate(params.item_probs):
        for k in range(params.n_classes):
            rows = np.where(z == k)[0]
            if rows.size:
                X[rows, j] = sample_categorical_many(table[k], rng, rows.size)
    return X, z


def _check_lca_data(params, data):
    X = integer_codes(data, "LCA data")
    if X.shape[1] != params.n_items:
        raise ValueError(f"data has {X.shape[1]} items, model has {params.n_items}")
    for j, table in enumerate(params.item_probs):
        C = table.shape[1]
        bad = np.where((X[:, j] < 0) | (X[:, j] >= C))[0]
        if bad.size:
            raise ValueError(f"item {j} category out of range at row {bad[0]}")
    return X


def _lca_log_joint(params, X):
    """log pi_k + sum_j log p(x_ij | k) as a C-ordered (N, K) array, summed
    class-major with one reused gather buffer. The codes of X are in range
    (_check_lca_data)."""
    N, K = X.shape[0], params.n_classes
    out = np.empty((K, N))
    out[:] = np.log(np.where(params.weights > 0, params.weights, 1e-300))[:, None]
    gathered = np.empty((K, N))
    for j, table in enumerate(params.item_probs):
        logt = np.log(np.where(table > 0, table, 1e-300))
        out += np.take(logt, X[:, j], axis=1, out=gathered, mode="wrap")
    return np.ascontiguousarray(out.T)


def lca_loglik_rows(params, data):
    """Log-likelihood of each row of integer codes."""
    return log_sum_exp_rows(_lca_log_joint(params, _check_lca_data(params, data)))


def lca_loglik(params, data):
    return float(np.sum(lca_loglik_rows(params, data)))


def lca_e_step(params, data):
    X = _check_lca_data(params, data)
    return _responsibilities(_lca_log_joint(params, X))


lca_posterior = lca_e_step


def lca_m_step(data, resp, n_categories=None):
    """Update class weights and per-item category tables from expected counts.

    n_categories fixes each item's table width, which must exceed every
    code of the item (fit_lca checks this once); by default it is inferred
    as max(code)+1 per item. Probabilities are floored at 1e-10 and
    renormalized.
    """
    X = np.atleast_2d(np.asarray(data, dtype=int))
    N, J = X.shape
    if n_categories is None:
        n_categories = X.max(axis=0) + 1
    gamma, counts, events = _reseed_empty(resp.gamma, "class")
    # one buffer holds each item's one-hot rows in turn, as a contiguous (N, C_j) view
    buf = np.empty(N * int(max(n_categories, default=0)))
    tables = []
    for j in range(J):
        C = int(n_categories[j])
        onehot = buf[:N * C].reshape(N, C)
        np.take(np.eye(C), X[:, j], axis=0, out=onehot, mode="wrap")
        tables.append(_floored_rows((gamma.T @ onehot) / counts[:, None]))
    params = LcaParams(counts / counts.sum(), tuple(tables))
    return (params, events) if events else params


def fit_lca(data, K, cfg: EmConfig, n_categories=None, init=None):
    """EM fit of a K-class latent class model over categorical items."""
    _check_k(K, "classes")
    X = integer_codes(data, "LCA data")
    if np.any(X < 0):
        raise ValueError("LCA category codes must be nonnegative")
    N, J = X.shape
    if N < K:
        raise ValueError("need at least K data points")
    if n_categories is None:
        n_categories = [int(X[:, j].max()) + 1 for j in range(J)]
    elif np.any(X.max(axis=0) >= np.asarray(n_categories)):
        raise ValueError("LCA category code out of range")
    if init is None:
        rng = RandomSource(cfg.seed).split(202)
        tables = [_perturbed_rows(np.bincount(X[:, j], minlength=C).astype(float) / N, K, rng)
                  for j, C in enumerate(n_categories)]
        init = LcaParams(np.full(K, 1.0 / K), tuple(tables))

    # checked once: every M-step table is n_categories wide, covering every code
    _check_lca_data(init, X)

    def m_step(d, resp):
        return lca_m_step(d, resp, n_categories=n_categories)

    return run_em(lambda params, codes: _responsibilities(_lca_log_joint(params, codes)),
                  m_step, _resp_loglik, X, init, cfg)
