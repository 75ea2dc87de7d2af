"""Flat discrete-latent models sharing the responsibility machinery:
Gaussian mixtures over continuous data and latent class analysis over
categorical items. All likelihood work is done in the log domain, by
core's categorical rule: the log of a weight or table entry is exact, so a
zero probability is a -inf term, and a data point that no component or
class explains stops an E-step with a NumericError naming it. The
seeded starts, weighted M-steps, probability floor and empty-column rescue
here are also the HMMs' (sequential.py). _reseed_empty is the one rescue
rule of all four families; run_em keeps a rescue only if the objective does
not fall.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (NumericError, RandomSource, category_codes, check_counts, check_finite,
                   check_simplex_rows, cov_fields, gaussian_logpdf_columns, gaussian_noise,
                   json_list, log_sum_exp_rows, normalize_log_rows, plogp, real_array,
                   real_fields, row_sums, sample_categorical_many)
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
        real_fields(self, weights=1, means=2)
        cov_fields(self, covs=3)
        check_simplex_rows(self.weights, name="weights")
        K, d = self.means.shape
        if self.weights.shape != (K,) or self.covs.shape != (K, d, d):
            raise ValueError("inconsistent GMM parameter shapes")

    @property
    def n_components(self):
        return self.means.shape[0]

    @property
    def dim(self):
        return self.means.shape[1]


def gmm_to_json(params):
    """JSON form with components ordered by the norm of their means."""
    order = np.argsort(np.linalg.norm(params.means, axis=1), kind="stable")
    return {name: getattr(params, name)[order].tolist() for name in ("weights", "means", "covs")}



@dataclass(frozen=True)
class LcaParams:
    """Class weights (K,) and per-item conditional category tables.

    item_probs[j] is a (K, C_j) row-stochastic array: row k is the category
    distribution of item j within class k.
    """

    weights: np.ndarray
    item_probs: tuple

    def __post_init__(self):
        real_fields(self, weights=1)
        check_simplex_rows(self.weights, name="weights")
        tables = tuple(real_array(t, f"item_probs[{j}]", 2)
                       for j, t in enumerate(json_list(self.item_probs, "item_probs")))
        for j, t in enumerate(tables):
            if t.shape[0] != self.weights.shape[0]:
                raise ValueError(f"item {j} table must be (K, C_j)")
            check_simplex_rows(t, name=f"item {j} rows")
        object.__setattr__(self, "item_probs", tables)

    @property
    def n_classes(self):
        return self.weights.shape[0]

    @property
    def n_items(self):
        return len(self.item_probs)


def lca_to_json(params):
    """JSON form with classes ordered by the entropy of their item tables."""
    stacked = np.concatenate(list(params.item_probs), axis=1)   # (K, sum C_j)
    ent = -np.sum(plogp(stacked), axis=1)
    order = np.argsort(ent, kind="stable")
    return {"weights": params.weights[order].tolist(),
            "item_probs": [t[order].tolist() for t in params.item_probs]}



@dataclass(frozen=True)
class Responsibilities:
    """Posterior component memberships, one simplex row per data point, and
    the total log-likelihood of the data under the parameters that produced
    them (NaN when the rows did not come from an E-step)."""

    gamma: np.ndarray
    loglik: float = math.nan

    def __post_init__(self):
        real_fields(self, gamma=2)
        check_simplex_rows(self.gamma, name="responsibility rows")


# ---------------------------------------------------------------------------
# Gaussian mixtures

def _gmm_log_joint(params, X):
    """log pi_k + log N(x_i | mu_k, Sigma_k) as an (N, K) array."""
    out = gaussian_logpdf_columns(X, params.means, params.covs)
    with np.errstate(divide="ignore"):
        out += np.log(params.weights)
    return out


def gmm_loglik_rows(params, data):
    """Log-likelihood log sum_k pi_k N(x_i | mu_k, Sigma_k) of each row x_i."""
    return log_sum_exp_rows(_gmm_log_joint(params, data))


def gmm_loglik(params, data):
    """Total log-likelihood sum_i log sum_k pi_k N(x_i | mu_k, Sigma_k)."""
    return float(np.sum(gmm_loglik_rows(params, data)))


def _responsibilities(lj, what="component"):
    """Normalize an (N, K) log-joint into responsibilities; the row
    normalizers sum to the log-likelihood, as in gmm_loglik/lca_loglik. A
    data point that no component (what) explains, a row of all -inf, is a
    NumericError naming it."""
    with np.errstate(invalid="ignore"):
        gamma, lse = normalize_log_rows(lj)
    loglik = float(np.sum(lse))
    bad = [] if math.isfinite(loglik) else np.flatnonzero(lse == -np.inf)
    if len(bad):
        raise NumericError(f"zero-probability data point {bad[0]}: no {what} explains it")
    return Responsibilities(gamma, loglik)


def _resp_loglik(resp):
    """run_em objective: the log-likelihood the E-step computed."""
    return resp.loglik


def gmm_e_step(params, data):
    """Responsibilities gamma_ik = p(z = k | x_i), computed in the log domain."""
    return _responsibilities(_gmm_log_joint(params, data))


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


def _reseed_empty(gamma, what, index=None):
    """(gamma, counts, events) with every effectively empty column re-seeded
    at a row of its own. This is the one rescue rule of every discrete-latent
    EM family. Data point i is row index[i] of gamma (row i by default). The
    empty columns, in order, each take the most ambiguous data point (lowest
    maximum weight, ties by i) whose move leaves every other non-empty
    column at EMPTY_COMPONENT_COUNT or more, so no rescue empties a donor; a
    re-seeded column keeps its one row by the same test. gamma is copied
    only when a column is re-seeded. Raises ValueError when there are more
    empty columns than rows, or when no row can move."""
    least = EMPTY_COMPONENT_COUNT
    counts = gamma.sum(axis=0)
    empty = np.where(counts < least)[0]
    events = []
    if empty.size > gamma.shape[0]:
        raise ValueError(f"{empty.size} empty {what} columns but only "
                         f"{gamma.shape[0]} data points to re-seed them at")
    if empty.size:
        index = np.arange(len(gamma)) if index is None else index
        order = np.argsort(gamma.max(axis=1)[index], kind="stable").tolist()
        gamma, left = gamma.copy(), counts.copy()
        for k in empty:
            exempt = left < least
            i = next((i for i in order if np.all(exempt | (left - gamma[index[i]] >= least))), None)
            if i is None:
                raise ValueError(f"no data point can re-seed {what} {k} without emptying another")
            row = index[i]
            left -= gamma[row]
            gamma[row] = 0.0
            gamma[row, k] = left[k] = 1.0
            events.append(f"{what} {k} empty; re-seeded at data point {i}")
        counts = gamma.sum(axis=0)
    return gamma, counts, events


# Rows per chunk of the scatter sums in _weighted_gaussians. A chunk's two
# (rows, d) work buffers take 256 KiB each at d = 8 and stay in the 4 MiB L2,
# where two (N, d) buffers did not. The chunk size is part of the
# arithmetic: a covariance is the sum of its chunks' products in chunk
# order. It is fixed, so no result depends on ROW_BLOCK_BYTES.
SCATTER_CHUNK_ROWS = 4096


def _weighted_gaussians(X, gamma, counts, var_floor):
    """Means (K, d) and covariances (K, d, d) of X under the column weights
    of gamma, whose column sums are counts, floored at var_floor. Each
    component's scatter is summed over chunks of SCATTER_CHUNK_ROWS rows
    through two chunk-sized buffers, then divided by its count."""
    (N, d), K = X.shape, gamma.shape[1]
    means = (gamma.T @ X) / counts[:, None]
    covs = np.zeros((K, d, d))
    size = min(N, SCATTER_CHUNK_ROWS)
    diff, weighted = np.empty((size, d)), np.empty((size, d))
    for a in range(0, N, SCATTER_CHUNK_ROWS):
        x, g = X[a:a + size], gamma[a:a + size]
        n = len(x)
        for k in range(K):
            np.subtract(x, means[k], out=diff[:n])
            np.multiply(g[:, k, None], diff[:n], out=weighted[:n])
            covs[k] += weighted[:n].T @ diff[:n]
    covs /= counts[:, None, None]
    return means, _cov_floor(covs, var_floor)


def gmm_m_step(data, resp, var_floor=None):
    """Weighted-average parameter updates from responsibilities.

    An effectively empty component is re-seeded by _reseed_empty; the
    rescue is reported in the returned events list as (params, events).
    var_floor is _var_floor(data), which a fit computes once.
    """
    X = np.atleast_2d(np.asarray(data, dtype=float))
    gamma, counts, events = _reseed_empty(resp.gamma, "component")
    if var_floor is None:
        var_floor = _var_floor(X)
    params = GmmParams(counts / counts.sum(),
                       *_weighted_gaussians(X, gamma, counts, var_floor))
    return (params, events) if events else params


def gmm_sample(params, n, rng):
    """Ancestral draws: a component per row, then that component's Gaussian
    (core.gaussian_noise). Returns (X, assignments)."""
    z = sample_categorical_many(params.weights, rng, n)
    X = np.empty((n, params.dim))
    for k in range(params.n_components):
        rows = np.where(z == k)[0]
        if rows.size:
            X[rows] = params.means[k] + gaussian_noise(params.covs[k], rows.size, rng)
    return X, z


def _farthest_point_means(X, K, rng):
    """Greedy farthest-point sweep from a seeded start; deterministic."""
    N = X.shape[0]
    first = int(rng.integers(0, N))
    chosen = [first]
    dist = row_sums((X - X[first]) ** 2)
    for _ in range(1, K):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, row_sums((X - X[nxt]) ** 2))
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


def fit_gmm(data, K, cfg: EmConfig, init=None):
    """EM fit of a K-component Gaussian mixture; deterministic given cfg.seed."""
    check_counts(k=K)
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
    return category_codes(data, "LCA data", [t.shape[1] for t in params.item_probs])[0]


def _lca_log_joint(params, X):
    """log pi_k + sum_j log p(x_ij | k) as a C-ordered (N, K) array, summed
    class-major with one reused gather buffer. The codes of X are in range
    (_check_lca_data)."""
    N, K = X.shape[0], params.n_classes
    out = np.empty((K, N))
    gathered = np.empty((K, N))
    with np.errstate(divide="ignore"):
        out[:] = np.log(params.weights)[:, None]
        for j, table in enumerate(params.item_probs):
            out += np.take(np.log(table), X[:, j], axis=1, out=gathered, mode="wrap")
    return np.ascontiguousarray(out.T)


def lca_loglik_rows(params, data):
    """Log-likelihood of each row of integer codes."""
    return log_sum_exp_rows(_lca_log_joint(params, _check_lca_data(params, data)))


def lca_loglik(params, data):
    return float(np.sum(lca_loglik_rows(params, data)))


def lca_e_step(params, data):
    X = _check_lca_data(params, data)
    return _responsibilities(_lca_log_joint(params, X), "class")


def lca_m_step(data, resp, n_categories=None):
    """Update class weights and per-item category tables from expected counts.

    n_categories fixes each item's table width, which must exceed every
    code of the item; by default it is inferred as max(code)+1 per item.
    Probabilities are floored at 1e-10 and renormalized.
    """
    X, n_categories = category_codes(data, "LCA data", n_categories)
    N, J = X.shape
    gamma, counts, events = _reseed_empty(resp.gamma, "class")
    # one buffer holds each item's one-hot rows in turn, as a contiguous (N, C_j) view
    buf = np.empty(N * int(max(n_categories, default=0)))
    tables = []
    for j in range(J):
        C = int(n_categories[j])
        onehot = buf[:N * C]
        onehot.fill(0.0)
        onehot[np.arange(0, N * C, C) + X[:, j]] = 1.0
        tables.append(_floored_rows((gamma.T @ onehot.reshape(N, C)) / counts[:, None]))
    params = LcaParams(counts / counts.sum(), tuple(tables))
    return (params, events) if events else params


def fit_lca(data, K, cfg: EmConfig, n_categories=None, init=None):
    """EM fit of a K-class latent class model over categorical items."""
    check_counts(k=K)
    X, n_categories = category_codes(data, "LCA data", n_categories)
    N, J = X.shape
    if N < K:
        raise ValueError("need at least K data points")
    # item-major: every per-item gather and scatter below reads a contiguous column
    X = np.asfortranarray(X)
    if init is None:
        rng = RandomSource(cfg.seed).split(202)
        tables = [_perturbed_rows(np.bincount(X[:, j], minlength=C).astype(float) / N, K, rng)
                  for j, C in enumerate(n_categories)]
        init = LcaParams(np.full(K, 1.0 / K), tuple(tables))

    # checked once: every M-step table is n_categories wide, covering every code
    _check_lca_data(init, X)

    def m_step(d, resp):
        return lca_m_step(d, resp, n_categories=n_categories)

    return run_em(lambda params, codes: _responsibilities(_lca_log_joint(params, codes), "class"),
                  m_step, _resp_loglik, X, init, cfg)
