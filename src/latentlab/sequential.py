"""Time-series latent variable models: discrete and Gaussian-emission hidden
Markov models with exact forward-backward smoothing and Baum-Welch training,
and linear dynamical systems with Kalman filtering/RTS smoothing and EM.

Forward-backward runs in the log domain with per-step log-normalizers.
Multiple training sequences are handled by summing sufficient statistics;
the initial-state distribution pools the t=1 posteriors of all sequences.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (NumericError, RandomSource, check_finite,
                   check_simplex_rows, gaussian_logpdf_rows, log_sum_exp_rows)
from .em import EmConfig, run_em
from .mixture import _check_k, _cov_floor, _farthest_point_means

__all__ = [
    "DiscreteEmission", "GaussianEmission", "HmmParams", "LdsParams",
    "SmoothedMarginals", "GaussianSmoothed",
    "hmm_forward_backward", "hmm_fit", "hmm_sample",
    "kalman_filter", "kalman_smooth", "lds_fit", "lds_sample",
    "canonical_state_order",
]

EMPTY_STATE_COUNT = 1e-8
PROB_FLOOR = 1e-10
RIDGE = 1e-9


@dataclass(frozen=True)
class DiscreteEmission:
    """Per-state categorical distributions over S symbols, as a (K, S) table."""

    probs: np.ndarray

    def __post_init__(self):
        p = check_simplex_rows(np.atleast_2d(np.asarray(self.probs, dtype=float)),
                               name="emission rows")
        object.__setattr__(self, "probs", p)

    @property
    def n_symbols(self):
        return self.probs.shape[1]

    def log_liks(self, obs):
        obs = np.asarray(obs, dtype=int)
        if np.any((obs < 0) | (obs >= self.n_symbols)):
            raise ValueError("observation symbol out of range")
        with np.errstate(divide="ignore"):
            logp = np.log(self.probs)
        return logp[:, obs].T                                  # (T, K)


@dataclass(frozen=True)
class GaussianEmission:
    """Per-state Gaussian emission parameters: means (K, d), covs (K, d, d)."""

    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        means = check_finite(np.atleast_2d(np.asarray(self.means, dtype=float)), "means")
        covs = check_finite(np.asarray(self.covs, dtype=float), "covs")
        K, d = means.shape
        if covs.shape != (K, d, d):
            raise ValueError("covs must be (K, d, d)")
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "covs", covs)

    @property
    def dim(self):
        return self.means.shape[1]

    def log_liks(self, obs):
        X = np.atleast_2d(np.asarray(obs, dtype=float))
        return np.column_stack([gaussian_logpdf_rows(X, m, c)
                                for m, c in zip(self.means, self.covs)])


@dataclass(frozen=True)
class HmmParams:
    """Initial distribution pi (K,), row-stochastic transitions (K, K), and
    either discrete or Gaussian emissions."""

    pi: np.ndarray
    trans: np.ndarray
    emit: object

    def __post_init__(self):
        pi = check_simplex_rows(np.asarray(self.pi, dtype=float), name="pi")
        trans = check_simplex_rows(np.atleast_2d(np.asarray(self.trans, dtype=float)),
                                   name="transition rows")
        K = pi.shape[0]
        if trans.shape != (K, K):
            raise ValueError("transition matrix must be (K, K)")
        if not isinstance(self.emit, (DiscreteEmission, GaussianEmission)):
            raise TypeError("emit must be DiscreteEmission or GaussianEmission")
        n_emit = self.emit.probs.shape[0] if isinstance(self.emit, DiscreteEmission) \
            else self.emit.means.shape[0]
        if n_emit != K:
            raise ValueError("emission parameters do not match state count")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "trans", trans)

    @property
    def n_states(self):
        return self.pi.shape[0]


@dataclass(frozen=True)
class SmoothedMarginals:
    """HMM posteriors given a full sequence: per-step state marginals (T, K),
    pairwise marginals over consecutive states (T-1, K, K), and the sequence
    log-likelihood."""

    states: np.ndarray
    pairwise: np.ndarray
    loglik: float


@dataclass(frozen=True)
class LdsParams:
    """Linear dynamical system: state transition A, observation matrix C,
    process/observation noise covariances Q and R, initial moments mu0/Sigma0."""

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    mu0: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):
        A = check_finite(np.atleast_2d(np.asarray(self.A, dtype=float)), "A")
        C = check_finite(np.atleast_2d(np.asarray(self.C, dtype=float)), "C")
        Q = check_finite(np.atleast_2d(np.asarray(self.Q, dtype=float)), "Q")
        R = check_finite(np.atleast_2d(np.asarray(self.R, dtype=float)), "R")
        mu0 = check_finite(np.atleast_1d(np.asarray(self.mu0, dtype=float)), "mu0")
        S0 = check_finite(np.atleast_2d(np.asarray(self.Sigma0, dtype=float)), "Sigma0")
        dz = A.shape[0]
        dx = C.shape[0]
        if A.shape != (dz, dz) or C.shape != (dx, dz) or Q.shape != (dz, dz) \
                or R.shape != (dx, dx) or mu0.shape != (dz,) or S0.shape != (dz, dz):
            raise ValueError("inconsistent LDS parameter shapes")
        for name, Mx in (("Q", Q), ("R", R), ("Sigma0", S0)):
            if not np.allclose(Mx, Mx.T, atol=1e-10):
                raise ValueError(f"{name} must be symmetric")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "Q", 0.5 * (Q + Q.T))
        object.__setattr__(self, "R", 0.5 * (R + R.T))
        object.__setattr__(self, "mu0", mu0)
        object.__setattr__(self, "Sigma0", 0.5 * (S0 + S0.T))

    @property
    def state_dim(self):
        return self.A.shape[0]

    @property
    def obs_dim(self):
        return self.C.shape[0]


@dataclass(frozen=True)
class GaussianSmoothed:
    """LDS posteriors given a full sequence: smoothed means (T, dz), smoothed
    covariances (T, dz, dz), lag-one cross second moments E[z_t z_{t-1}^T]
    (T-1, dz, dz), and the sequence log-likelihood."""

    means: np.ndarray
    covs: np.ndarray
    lag_one: np.ndarray
    loglik: float


# ---------------------------------------------------------------------------
# Hidden Markov models

def hmm_forward_backward(params, obs):
    """Exact smoothed posteriors and sequence log-likelihood.

    Log-domain alpha/beta recursions with per-step log-normalizers; the
    accumulated normalizers give the log-likelihood.
    """
    logB = params.emit.log_liks(obs)                 # (T, K)
    T, K = logB.shape
    if T == 0:
        raise ValueError("observation sequence is empty")
    with np.errstate(divide="ignore"):
        logA = np.log(params.trans)
        logpi = np.log(params.pi)

    log_alpha = np.empty((T, K))
    log_c = np.empty(T)
    a = logpi + logB[0]
    log_c[0] = _lse(a)
    if log_c[0] == -np.inf:
        raise NumericError("zero-probability sequence: no state explains step 0")
    log_alpha[0] = a - log_c[0]
    # normalized log-alpha entries are <= 0, so exp never overflows and the
    # per-step matmul is the stable lse over previous states
    with np.errstate(divide="ignore"):
        A_lin = params.trans
        for t in range(1, T):
            prev = np.exp(log_alpha[t - 1])
            a = logB[t] + np.log(prev @ A_lin)
            log_c[t] = _lse(a)
            if log_c[t] == -np.inf:
                raise NumericError(f"zero-probability sequence: no path explains step {t}")
            log_alpha[t] = a - log_c[t]
    loglik = float(log_c.sum())

    log_beta = np.zeros((T, K))
    with np.errstate(divide="ignore"):
        for t in range(T - 2, -1, -1):
            nxt = logB[t + 1] + log_beta[t + 1]
            m = nxt.max()
            if m == -np.inf:
                log_beta[t] = -np.inf
            else:
                log_beta[t] = m + np.log(A_lin @ np.exp(nxt - m)) - log_c[t + 1]

    lg = log_alpha + log_beta
    gamma = np.exp(lg - log_sum_exp_rows(lg)[:, None])
    gamma /= gamma.sum(axis=1, keepdims=True)

    lx = (log_alpha[:-1, :, None] + logA[None, :, :]
          + (logB[1:] + log_beta[1:])[:, None, :] - log_c[1:, None, None])
    mx = lx.max(axis=(1, 2), keepdims=True)
    xi = np.exp(lx - mx)
    xi /= xi.sum(axis=(1, 2), keepdims=True)
    return SmoothedMarginals(gamma, xi, loglik)


def _lse(v):
    m = v.max()
    if m == -np.inf:
        return -np.inf
    return float(m + np.log(np.sum(np.exp(v - m))))


def hmm_loglik(params, obs_set):
    return float(sum(hmm_forward_backward(params, obs).loglik for obs in obs_set))


def _hmm_e_step(params, obs_set):
    return [hmm_forward_backward(params, obs) for obs in obs_set]


def _hmm_m_step(obs_set, posteriors, kind, n_symbols=None, cov_floor=None):
    K = posteriors[0].states.shape[1]
    events = []
    pi = sum(p.states[0] for p in posteriors)
    pi = pi / pi.sum()
    trans_num = sum(p.pairwise.sum(axis=0) for p in posteriors)
    row = trans_num.sum(axis=1, keepdims=True)
    empty = np.where(row[:, 0] < EMPTY_STATE_COUNT)[0]
    for k in empty:
        trans_num[k] = 1.0 / K
        row[k] = 1.0
        events.append(f"state {k} saw no transitions; row reset to uniform")
    trans = trans_num / row

    if kind == "discrete":
        counts = np.zeros((K, n_symbols))
        for obs, p in zip(obs_set, posteriors):
            onehot = np.zeros((len(obs), n_symbols))
            onehot[np.arange(len(obs)), np.asarray(obs, dtype=int)] = 1.0
            counts += p.states.T @ onehot
        occ = counts.sum(axis=1, keepdims=True)
        for k in np.where(occ[:, 0] < EMPTY_STATE_COUNT)[0]:
            counts[k] = 1.0
            occ[k] = n_symbols
            events.append(f"state {k} empty; emissions reset to uniform")
        probs = np.maximum(counts / occ, PROB_FLOOR)
        probs /= probs.sum(axis=1, keepdims=True)
        emit = DiscreteEmission(probs)
    else:
        X = np.vstack([np.atleast_2d(np.asarray(o, dtype=float)) for o in obs_set])
        G = np.vstack([p.states for p in posteriors])
        occ = G.sum(axis=0)
        for k in np.where(occ < EMPTY_STATE_COUNT)[0]:
            i = int(np.argmin(G.max(axis=1)))
            G = G.copy()
            G[i] = 0.0
            G[i, k] = 1.0
            events.append(f"state {k} empty; re-seeded at pooled point {i}")
        occ = G.sum(axis=0)
        d = X.shape[1]
        means = (G.T @ X) / occ[:, None]
        covs = np.empty((K, d, d))
        for k in range(K):
            diff = X - means[k]
            covs[k] = (G[:, k, None] * diff).T @ diff / occ[k]
        floor = cov_floor if cov_floor is not None else 1e-6 * max(float(np.mean(np.var(X, axis=0))), 1e-12)
        covs = _cov_floor(covs, floor)
        emit = GaussianEmission(means, covs)
    params = HmmParams(pi, trans, emit)
    return (params, events) if events else params


def hmm_fit(obs_set, K, kind, cfg: EmConfig, n_symbols=None, init=None):
    """Baum-Welch over one or more sequences; deterministic given cfg.seed."""
    if kind not in ("discrete", "gaussian"):
        raise ValueError("kind must be 'discrete' or 'gaussian'")
    _check_k(K, "states")
    obs_set = [np.asarray(o) for o in obs_set]
    if not obs_set or any(len(o) == 0 for o in obs_set):
        raise ValueError("sequences must be non-empty")
    rng = RandomSource(cfg.seed).split(303)
    if kind == "discrete":
        flat = np.concatenate([np.asarray(o, dtype=int) for o in obs_set])
        if n_symbols is None:
            n_symbols = int(flat.max()) + 1
        if init is None:
            freq = np.bincount(flat, minlength=n_symbols).astype(float) / flat.size
            freq = np.maximum(freq, PROB_FLOOR)
            noise = 1.0 + 0.1 * (2.0 * rng.uniform((K, n_symbols)) - 1.0)
            probs = freq[None, :] * noise
            probs /= probs.sum(axis=1, keepdims=True)
            tnoise = 1.0 + 0.1 * (2.0 * rng.uniform((K, K)) - 1.0)
            trans = tnoise / tnoise.sum(axis=1, keepdims=True)
            init = HmmParams(np.full(K, 1.0 / K), trans, DiscreteEmission(probs))
    else:
        X = np.vstack([np.atleast_2d(np.asarray(o, dtype=float)) for o in obs_set])
        if init is None:
            means = _farthest_point_means(X, K, rng)
            d = X.shape[1]
            gcov = np.cov(X.T, bias=True).reshape(d, d)
            gcov = _cov_floor(gcov[None], 1e-6 * max(float(np.mean(np.var(X, axis=0))), 1e-12))[0]
            tnoise = 1.0 + 0.1 * (2.0 * rng.uniform((K, K)) - 1.0)
            trans = tnoise / tnoise.sum(axis=1, keepdims=True)
            init = HmmParams(np.full(K, 1.0 / K), trans,
                             GaussianEmission(means, np.repeat(gcov[None], K, axis=0)))

    def objective(posteriors):
        return float(sum(p.loglik for p in posteriors))

    def m_step(data, posteriors):
        return _hmm_m_step(data, posteriors, kind, n_symbols=n_symbols)

    return run_em(_hmm_e_step, m_step, objective, obs_set, init, cfg)


def hmm_sample(params, T, rng):
    """Ancestral draw of (states, observations) of length T."""
    from .core import sample_categorical, Simplex, sample_gaussian, Gaussian
    states = np.empty(T, dtype=int)
    states[0] = sample_categorical(Simplex(params.pi), rng)
    for t in range(1, T):
        states[t] = sample_categorical(Simplex(params.trans[states[t - 1]]), rng)
    if isinstance(params.emit, DiscreteEmission):
        obs = np.empty(T, dtype=int)
        for t in range(T):
            obs[t] = sample_categorical(Simplex(params.emit.probs[states[t]]), rng)
    else:
        d = params.emit.dim
        obs = np.empty((T, d))
        for t in range(T):
            obs[t] = sample_gaussian(Gaussian(params.emit.means[states[t]],
                                              params.emit.covs[states[t]]), rng)
    return states, obs


def canonical_state_order(params):
    """Deterministic state ordering for serialization: by emission mean norm
    (Gaussian) or emission entropy ascending (discrete)."""
    if isinstance(params.emit, DiscreteEmission):
        p = params.emit.probs
        key = -np.sum(np.where(p > 0, p * np.log(p), 0.0), axis=1)
    else:
        key = np.linalg.norm(params.emit.means, axis=1)
    order = np.argsort(key, kind="stable")
    emit = DiscreteEmission(params.emit.probs[order]) \
        if isinstance(params.emit, DiscreteEmission) \
        else GaussianEmission(params.emit.means[order], params.emit.covs[order])
    return HmmParams(params.pi[order], params.trans[np.ix_(order, order)], emit)


# ---------------------------------------------------------------------------
# Linear dynamical systems

def kalman_filter(params, obs):
    """Forward recursion: filtered moments per step plus the log-likelihood
    accumulated from the innovation Gaussians."""
    X = np.atleast_2d(np.asarray(obs, dtype=float))
    T = X.shape[0]
    if X.shape[1] != params.obs_dim:
        raise ValueError("observation dimension mismatch")
    dz = params.state_dim
    dx = params.obs_dim
    A, C, Q, R = params.A, params.C, params.Q, params.R
    CT, AT = C.T, A.T
    means = np.empty((T, dz))
    covs = np.empty((T, dz, dz))
    pred_means = np.empty((T, dz))
    pred_covs = np.empty((T, dz, dz))
    innovs = np.empty((T, dx))
    innov_covs = np.empty((T, dx, dx))
    m_pred, P_pred = params.mu0, params.Sigma0
    # the loop solves one system per step for the gain; the Cholesky factors
    # behind the log-likelihood are taken in one batched call afterwards
    for t in range(T):
        pred_means[t] = m_pred
        pred_covs[t] = P_pred
        CP = C @ P_pred
        S = CP @ CT + R
        S = innov_covs[t] = 0.5 * (S + S.T)
        innov = innovs[t] = X[t] - C @ m_pred
        try:
            K_gain = np.linalg.solve(S, CP).T
        except np.linalg.LinAlgError:
            raise NumericError(f"singular innovation covariance at step {t}")
        means[t] = m_pred + K_gain @ innov
        P = P_pred - K_gain @ CP
        covs[t] = 0.5 * (P + P.T)
        if t < T - 1:
            m_pred = A @ means[t]
            P_pred = A @ covs[t] @ AT + Q
            P_pred = 0.5 * (P_pred + P_pred.T)
    try:
        L = np.linalg.cholesky(innov_covs)
    except np.linalg.LinAlgError:
        for t in range(T):
            try:
                np.linalg.cholesky(innov_covs[t])
            except np.linalg.LinAlgError:
                raise NumericError(f"singular innovation covariance at step {t}")
        raise
    sol = np.linalg.solve(L, innovs[:, :, None])[:, :, 0]
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    loglik = -0.5 * np.sum(dx * math.log(2 * math.pi) + logdet + np.sum(sol * sol, axis=1))
    return means, covs, pred_means, pred_covs, float(loglik)


def kalman_smooth(params, obs, _filtered=None):
    """RTS backward pass over the filtered moments; also returns the lag-one
    cross second moments needed by the EM M-step."""
    if _filtered is None:
        _filtered = kalman_filter(params, obs)
    means_f, covs_f, pred_means, pred_covs, loglik = _filtered
    T = means_f.shape[0]
    means_s = means_f.copy()
    covs_s = covs_f.copy()
    # the smoother gains J_t = P_t A^T (P_{t+1|t})^{-1} depend on the
    # filtered moments alone, so one batched solve gives all of them
    gains = np.linalg.solve(pred_covs[1:].transpose(0, 2, 1),
                            (covs_f[:-1] @ params.A.T).transpose(0, 2, 1)).transpose(0, 2, 1)
    for t in range(T - 2, -1, -1):
        J = gains[t]
        means_s[t] = means_f[t] + J @ (means_s[t + 1] - pred_means[t + 1])
        P = covs_f[t] + J @ (covs_s[t + 1] - pred_covs[t + 1]) @ J.T
        covs_s[t] = 0.5 * (P + P.T)
    lag_one = (covs_s[1:] @ gains.transpose(0, 2, 1)
               + means_s[1:, :, None] * means_s[:-1, None, :])
    return GaussianSmoothed(means_s, covs_s, lag_one, loglik)


def lds_loglik(params, obs_set):
    return float(sum(kalman_filter(params, obs)[4] for obs in obs_set))


def lds_fit(obs_set, state_dim, cfg: EmConfig, init=None, update_sigma0=None):
    """EM for the linear dynamical system with closed-form least-squares
    M-step (ridge-stabilized normal equations).

    Sigma0 is updated only when at least two sequences are available; with a
    single sequence it is held at its initial value (one observation of z_1
    cannot identify it). Override with update_sigma0.
    """
    obs_set = [np.atleast_2d(np.asarray(o, dtype=float)) for o in obs_set]
    if any(o.shape[0] < 2 for o in obs_set):
        raise ValueError("sequences must have length >= 2")
    dx = obs_set[0].shape[1]
    dz = state_dim
    if update_sigma0 is None:
        update_sigma0 = len(obs_set) >= 2
    if init is None:
        X = np.vstack(obs_set)
        xvar = float(np.mean(np.var(X, axis=0)))
        C0 = np.eye(dx, dz)
        init = LdsParams(0.5 * np.eye(dz), C0,
                         0.1 * max(xvar, 1e-6) * np.eye(dz),
                         0.5 * max(xvar, 1e-6) * np.eye(dx),
                         np.zeros(dz), np.eye(dz))

    # The E-step is the forward pass alone, which gives the log-likelihood;
    # the RTS pass runs in the M-step, so the final E-step does no smoothing.
    def e_step(params, data):
        return params, [kalman_filter(params, obs) for obs in data]

    def objective(posterior):
        return float(sum(f[4] for f in posterior[1]))

    def m_step(data, posterior):
        prev, filtered = posterior
        smoothed = [kalman_smooth(prev, obs, _filtered=f) for obs, f in zip(data, filtered)]
        dz_ = prev.state_dim
        S_tt_first = np.zeros((dz_, dz_))       # sum over t>=2 of E[z_t z_t^T]
        S_t1t1 = np.zeros((dz_, dz_))           # sum over t>=2 of E[z_{t-1} z_{t-1}^T]
        S_t_t1 = np.zeros((dz_, dz_))           # sum over t>=2 of E[z_t z_{t-1}^T]
        S_zz_all = np.zeros((dz_, dz_))         # sum over all t of E[z_t z_t^T]
        S_xz = np.zeros((dx, dz_))
        S_xx = np.zeros((dx, dx))
        n_trans = 0
        n_obs = 0
        mu0_acc = np.zeros(dz_)
        S0_acc = np.zeros((dz_, dz_))
        for obs, sm in zip(data, smoothed):
            T = obs.shape[0]
            Ezz = sm.covs + np.einsum("ti,tj->tij", sm.means, sm.means)
            S_zz_all += Ezz.sum(axis=0)
            S_tt_first += Ezz[1:].sum(axis=0)
            S_t1t1 += Ezz[:-1].sum(axis=0)
            S_t_t1 += sm.lag_one.sum(axis=0)
            S_xz += obs.T @ sm.means
            S_xx += obs.T @ obs
            n_trans += T - 1
            n_obs += T
            mu0_acc += sm.means[0]
            S0_acc += Ezz[0]
        A_new = np.linalg.solve((S_t1t1 + RIDGE * np.eye(dz_)).T, S_t_t1.T).T
        Q_new = (S_tt_first - A_new @ S_t_t1.T - S_t_t1 @ A_new.T
                 + A_new @ S_t1t1 @ A_new.T) / n_trans
        Q_new = 0.5 * (Q_new + Q_new.T) + RIDGE * np.eye(dz_)
        C_new = np.linalg.solve((S_zz_all + RIDGE * np.eye(dz_)).T, S_xz.T).T
        R_new = (S_xx - C_new @ S_xz.T - S_xz @ C_new.T
                 + C_new @ S_zz_all @ C_new.T) / n_obs
        R_new = 0.5 * (R_new + R_new.T) + RIDGE * np.eye(dx)
        n_seq = len(data)
        mu0_new = mu0_acc / n_seq
        if update_sigma0:
            S0_new = S0_acc / n_seq - np.outer(mu0_new, mu0_new)
            S0_new = 0.5 * (S0_new + S0_new.T) + RIDGE * np.eye(dz_)
        else:
            S0_new = prev.Sigma0
        return LdsParams(A_new, C_new, Q_new, R_new, mu0_new, S0_new)

    return run_em(e_step, m_step, objective, obs_set, init, cfg)


def lds_sample(params, T, rng):
    """Ancestral draw of (states, observations) of length T."""
    from .core import Gaussian, sample_gaussian
    dz, dx = params.state_dim, params.obs_dim
    Z = np.empty((T, dz))
    X = np.empty((T, dx))
    Z[0] = sample_gaussian(Gaussian(params.mu0, params.Sigma0), rng)
    for t in range(1, T):
        Z[t] = sample_gaussian(Gaussian(params.A @ Z[t - 1], params.Q), rng)
    for t in range(T):
        X[t] = sample_gaussian(Gaussian(params.C @ Z[t], params.R), rng)
    return Z, X
