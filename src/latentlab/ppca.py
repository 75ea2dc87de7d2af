"""Probabilistic PCA: closed-form maximum likelihood via eigendecomposition,
exact Gaussian posterior, reconstruction, generative sampling, and an EM
alternative converging to the same optimum.

The model is x = W z + mu + eps with z ~ N(0, I_M) and eps ~ N(0, sigma2 I_D),
so marginally x ~ N(mu, W W^T + sigma2 I). The closed-form fit uses the
standard eigendecomposition solution: sigma2 is the mean of the D-M smallest
covariance eigenvalues and W = U_M (L_M - sigma2 I)^(1/2). EM iterates on the
sample covariance S as well: the data enter it only through S, so after the
one pass that forms S no iteration reads them again.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (RandomSource, check_counts, check_finite, chol_psd, gaussian_logpdf_rows,
                   real_fields)
from .em import EmConfig, run_em

__all__ = ["PpcaParams", "PpcaPosterior", "fit_closed_form", "posterior",
           "posterior_means", "reconstruct", "sample", "sample_joint", "fit_em",
           "marginal_loglik", "loglik_rows", "canonicalize"]

SIGMA2_FLOOR = 1e-12


@dataclass(frozen=True)
class PpcaParams:
    """Loading matrix W (D x M, M >= 1), data mean mu (D,), noise variance sigma2.

    sigma2 = 0 is the degenerate PCA limit and is accepted only so the
    noiseless formulas stay expressible; fitted models keep sigma2 > 0.
    """

    W: np.ndarray
    mu: np.ndarray
    sigma2: float

    def __post_init__(self):
        real_fields(self, W=2, mu=1, sigma2=0)
        if self.W.shape[0] != self.mu.shape[0]:
            raise ValueError("W rows must match mu length")
        check_counts(latent_dim=self.latent_dim)
        if self.W.shape[1] > self.W.shape[0]:
            raise ValueError("latent dimension M must not exceed data dimension D")
        if self.sigma2 < 0:
            raise ValueError("sigma2 must be nonnegative")

    @property
    def data_dim(self):
        return self.W.shape[0]

    @property
    def latent_dim(self):
        return self.W.shape[1]


@dataclass(frozen=True)
class PpcaPosterior:
    """Gaussian posterior over z given one observation.

    mean = Minv W^T (x - mu), cov = sigma2 * Minv with M = W^T W + sigma2 I;
    the covariance does not depend on x.
    """

    mean: np.ndarray
    cov: np.ndarray


def _m_matrix(params):
    M = params.latent_dim
    return params.W.T @ params.W + params.sigma2 * np.eye(M)


def _moments(data, M):
    """(N, mu, S): the row count, sample mean and sample covariance of the
    data both fits start from, after checking them against M (at least 1)."""
    check_counts(latent_dim=M)
    X = np.atleast_2d(np.asarray(data, dtype=float))
    check_finite(X, "data")
    N, D = X.shape
    if M >= D:
        raise ValueError("latent dimension M must be < data dimension D")
    if N <= M:
        raise ValueError("need more data points than latent dimensions")
    mu = X.mean(axis=0)
    Xc = X - mu
    return N, mu, (Xc.T @ Xc) / N


def fit_closed_form(data, M):
    """Maximum likelihood PPCA fit via eigendecomposition of the sample covariance."""
    _N, mu, S = _moments(data, M)
    evals, evecs = np.linalg.eigh(S)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if evals[M - 1] <= 0:
        raise ValueError("sample covariance is rank-deficient: fewer than M positive eigenvalues")
    sigma2 = float(np.mean(evals[M:]))
    sigma2 = max(sigma2, 0.0)
    scale = np.sqrt(np.maximum(evals[:M] - sigma2, 0.0))
    W = evecs[:, :M] * scale
    return canonicalize(PpcaParams(W, mu, sigma2))


def posterior_means(params, X):
    """Posterior means Minv W^T (x - mu) of the rows of X, (N, M), from one
    solve with M for all rows."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != params.data_dim:
        raise ValueError("x has wrong dimension")
    return np.linalg.solve(_m_matrix(params), params.W.T @ (X - params.mu).T).T


def posterior(params, x):
    """Exact Gaussian posterior over the latent code for one observation."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    mean = posterior_means(params, x[None, :])[0]
    cov = params.sigma2 * np.linalg.inv(_m_matrix(params))
    cov = 0.5 * (cov + cov.T)
    return PpcaPosterior(mean, cov)


def reconstruct(params, x):
    """Posterior-mean reconstruction W Minv W^T (x - mu) + mu of one
    observation, or of each row of a matrix."""
    x = np.asarray(x, dtype=float)
    rows = posterior_means(params, x) @ params.W.T + params.mu
    return rows[0] if x.ndim == 1 else rows


def loglik_rows(params, data):
    """Log-likelihood of each row of data under the marginal Gaussian."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    D = params.data_dim
    cov = params.W @ params.W.T + params.sigma2 * np.eye(D)
    return gaussian_logpdf_rows(X, params.mu, cov)


def marginal_loglik(params, data):
    """Total log-likelihood of the rows of data under the marginal Gaussian."""
    return float(np.sum(loglik_rows(params, data)))


def sample(params, n, rng, mode="prior", given=None):
    """Draw n observations, either from the prior or from the posterior of
    a given observation (variations of a known data point)."""
    return sample_joint(params, n, rng, mode, given)[0]


def sample_joint(params, n, rng, mode="prior", given=None):
    """sample's draw with the latent rows it was drawn from: (X, Z)."""
    D, M = params.data_dim, params.latent_dim
    if mode == "prior":
        Z = rng.standard_normal((n, M))
    elif mode == "posterior":
        if given is None:
            raise ValueError("posterior sampling requires a conditioning observation")
        post = posterior(params, given)
        L = np.linalg.cholesky(post.cov + 1e-15 * np.eye(M)) if np.any(post.cov) else np.zeros((M, M))
        Z = post.mean + rng.standard_normal((n, M)) @ L.T
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    noise = np.sqrt(params.sigma2) * rng.standard_normal((n, D))
    return Z @ params.W.T + params.mu + noise, Z


def canonicalize(params):
    """Deterministic representative of the W rotation/sign family: columns
    ordered by norm descending, dominant entry of each column positive."""
    W = params.W.copy()
    norms = np.linalg.norm(W, axis=0)
    order = np.argsort(-norms, kind="stable")
    W = W[:, order]
    for j in range(W.shape[1]):
        col = W[:, j]
        if col.size and col[np.argmax(np.abs(col))] < 0:
            W[:, j] = -col
    return PpcaParams(W, params.mu, params.sigma2)


def _em_init(mu, S, M, rng):
    D = S.shape[0]
    W0 = rng.standard_normal((D, M)) * np.sqrt(0.1)
    total_var = float(np.trace(S)) / D
    return PpcaParams(W0, mu, 0.5 * max(total_var, SIGMA2_FLOOR))


def fit_em(data, M, cfg: EmConfig, init=None):
    """EM fit; the log-likelihood trace is monotone and the optimum matches
    fit_closed_form up to rotation of W.

    mu is the sample mean at every step, so one pass over the data forms the
    sample covariance S and EM iterates on S alone (Tipping & Bishop 1999,
    section 3.2): each iteration costs O(D^3) whatever N is. With the
    posterior map B = Minv W^T, the E-step's sufficient statistics are
    sum_i x_i E[z_i]^T / N = S B^T and sum_i E[z_i z_i^T] / N =
    sigma2 Minv + B S B^T.
    """
    N, mu, S = _moments(data, M)
    D = S.shape[0]

    def e_step(params, S):
        """Posterior map B, shared posterior covariance and the exact
        log-likelihood -N/2 (D log 2pi + logdet C + tr(C^-1 S))."""
        Minv = np.linalg.inv(_m_matrix(params))
        L = chol_psd(params.W @ params.W.T + params.sigma2 * np.eye(D))
        Linv = np.linalg.inv(L)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        loglik = -0.5 * N * (D * math.log(2 * math.pi) + logdet
                             + np.sum((Linv @ S) * Linv))
        return Minv @ params.W.T, params.sigma2 * Minv, float(loglik)

    def m_step(S, post):
        B, cov, _loglik = post
        s_xz = S @ B.T                              # (D, M)
        s_zz = cov + B @ s_xz                       # (M, M)
        W_new = np.linalg.solve(s_zz.T, s_xz.T).T
        resid = np.trace(S) - 2.0 * np.sum(s_xz * W_new) \
            + np.trace(W_new.T @ W_new @ s_zz)
        return PpcaParams(W_new, mu, max(resid / D, SIGMA2_FLOOR))

    def objective(post):
        return post[2]

    if init is None:
        init = _em_init(mu, S, M, RandomSource(cfg.seed))
    params, report = run_em(e_step, m_step, objective, S, init, cfg)
    return canonicalize(params), report
