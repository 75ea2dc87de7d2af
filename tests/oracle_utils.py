"""Independent oracles shared by the test suite: single-point Gaussian
densities, Gaussian conditioning, one-draw samplers, the categorical KL
divergence, brute-force enumeration, dense-joint conditioning, grid
quadrature, and finite differences. These deliberately avoid the library's
fast paths, and the library itself calls none of them."""
import itertools
import math
import warnings

import numpy as np
from scipy.special import gammaln

from latentlab.core import Gaussian, NumericError, Simplex, chol_psd


def log_sum_exp(v):
    """Stable log(sum(exp(v))) via max-shift; -inf iff all entries are -inf."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        raise ValueError("log_sum_exp of empty vector")
    if np.any(np.isnan(v)) or np.any(v == np.inf):
        raise ValueError("entries must be finite or -inf")
    m = v.max()
    if m == -np.inf:
        return -np.inf
    return float(m + np.log(np.sum(np.exp(v - m))))


def gaussian_logpdf(x, g):
    """Log density of a multivariate normal, via Cholesky."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != g.dim:
        raise ValueError(f"x has dim {x.shape[0]}, Gaussian has dim {g.dim}")
    L = chol_psd(g.cov)
    diff = x - g.mean
    sol = np.linalg.solve(L, diff)
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    d = g.dim
    return float(-0.5 * (d * math.log(2 * math.pi) + logdet + sol @ sol))


def gaussian_condition(joint, n_a, observed_b):
    """Condition a joint Gaussian over (a, b) on b = observed_b.

    n_a declares the size of the leading block a. Returns the conditional
    Gaussian N(mu_a + S_ab S_bb^-1 (b - mu_b), S_aa - S_ab S_bb^-1 S_ba).
    """
    observed_b = np.atleast_1d(np.asarray(observed_b, dtype=float))
    d = joint.dim
    n_b = d - n_a
    if n_a <= 0 or n_b <= 0:
        raise ValueError("both blocks must be non-empty")
    if observed_b.shape[0] != n_b:
        raise ValueError(f"observed_b has dim {observed_b.shape[0]}, expected {n_b}")
    mu_a = joint.mean[:n_a]
    mu_b = joint.mean[n_a:]
    S_aa = joint.cov[:n_a, :n_a]
    S_ab = joint.cov[:n_a, n_a:]
    S_bb = joint.cov[n_a:, n_a:]
    try:
        solved = np.linalg.solve(S_bb, np.column_stack([observed_b - mu_b, S_ab.T]))
    except np.linalg.LinAlgError:
        raise NumericError("conditioning block covariance is singular")
    if not np.all(np.isfinite(solved)):
        raise NumericError("conditioning block covariance is singular")
    mean = mu_a + S_ab @ solved[:, 0]
    cov = S_aa - S_ab @ solved[:, 1:]
    cov = 0.5 * (cov + cov.T)
    # Clamp tiny negative eigenvalues born from cancellation.
    w, V = np.linalg.eigh(cov)
    if w.min() < 0:
        cov = (V * np.maximum(w, 0.0)) @ V.T
        cov = 0.5 * (cov + cov.T)
    return Gaussian(mean, cov)


def sample_gaussian(g, rng):
    """Draw from g as mean + L @ eps with L the (jittered) Cholesky factor."""
    if not np.any(g.cov):
        return g.mean.copy()
    L = chol_psd(g.cov)
    eps = rng.standard_normal(g.dim)
    return g.mean + L @ eps


def same_spread(a, b, z=5.0):
    """True if the sample standard deviations of the columns of the draws a
    and b agree within z Monte Carlo standard errors (sd / sqrt(2 n) each)."""
    sa, sb = np.std(a, axis=0), np.std(b, axis=0)
    se = np.sqrt(sa ** 2 / (2 * len(a)) + sb ** 2 / (2 * len(b)))
    return bool(np.all(np.abs(sa - sb) <= z * se))


def sample_categorical(p, rng):
    """Index i with probability p_i, by inverse CDF on a single uniform."""
    probs = p.probs if isinstance(p, Simplex) else Simplex(np.asarray(p, dtype=float)).probs
    u = rng.uniform()
    return int(np.searchsorted(np.cumsum(probs), u, side="right").clip(0, len(probs) - 1))


def kl_divergence_categorical(q, p):
    """KL(q || p) = sum q log(q/p); +inf (with warning) if supp(q) not in supp(p)."""
    qp = q.probs if isinstance(q, Simplex) else Simplex(np.asarray(q, dtype=float)).probs
    pp = p.probs if isinstance(p, Simplex) else Simplex(np.asarray(p, dtype=float)).probs
    if qp.shape != pp.shape:
        raise ValueError("distributions have different sizes")
    support = qp > 0
    if np.any(pp[support] == 0):
        warnings.warn("support violation: q positive where p is zero; KL is +inf", RuntimeWarning)
        return math.inf
    return float(np.sum(qp[support] * (np.log(qp[support]) - np.log(pp[support]))))


def enumerate_hmm_posteriors(params, obs):
    """Linear-domain path enumeration for discrete-emission chains."""
    K = params.n_states
    T = len(obs)
    B = params.emit.probs
    total = 0.0
    marg = np.zeros((T, K))
    pair = np.zeros((T - 1, K, K))
    for path in itertools.product(range(K), repeat=T):
        p = params.pi[path[0]] * B[path[0], obs[0]]
        for t in range(1, T):
            p *= params.trans[path[t - 1], path[t]] * B[path[t], obs[t]]
        total += p
        for t in range(T):
            marg[t, path[t]] += p
        for t in range(1, T):
            pair[t - 1, path[t - 1], path[t]] += p
    return marg / total, pair / total, math.log(total)


def enumerate_hmm_log_posteriors(params, obs):
    """Path enumeration for discrete-emission chains in the log domain, so
    it stays exact where the linear-domain products underflow: state
    marginals, pairwise marginals and the log-likelihood (-inf when no
    path is possible)."""
    K, T = params.n_states, len(obs)
    with np.errstate(divide="ignore"):
        log_pi, log_A = np.log(params.pi), np.log(params.trans)
        log_B = np.log(params.emit.probs)[:, obs]
    paths = np.array(list(itertools.product(range(K), repeat=T)))
    lp = log_pi[paths[:, 0]] + log_B[paths[:, 0], 0]
    for t in range(1, T):
        lp = lp + log_A[paths[:, t - 1], paths[:, t]] + log_B[paths[:, t], t]
    top = lp.max()
    if top == -np.inf:
        return None, None, -math.inf
    w = np.exp(lp - top)
    total = w.sum()
    marg = np.stack([np.bincount(paths[:, t], weights=w, minlength=K) for t in range(T)])
    pair = np.stack([np.bincount(paths[:, t - 1] * K + paths[:, t], weights=w,
                                 minlength=K * K).reshape(K, K) for t in range(1, T)]) \
        if T > 1 else np.zeros((0, K, K))
    return marg / total, pair / total, top + math.log(total)


def stacked_joint(params, T):
    """Joint Gaussian over (z_1..z_T, x_1..x_T) of a linear dynamical system."""
    dz, dx = params.state_dim, params.obs_dim
    n = T * (dz + dx)
    mean = np.zeros(n)
    cov = np.zeros((n, n))
    z_means = [params.mu0]
    for _ in range(T - 1):
        z_means.append(params.A @ z_means[-1])
    Szz = np.zeros((T, T, dz, dz))
    Szz[0, 0] = params.Sigma0
    for t in range(1, T):
        Szz[t, t] = params.A @ Szz[t - 1, t - 1] @ params.A.T + params.Q
    for s in range(T):
        for t in range(s + 1, T):
            Szz[s, t] = Szz[s, t - 1] @ params.A.T
            Szz[t, s] = Szz[s, t].T
    for t in range(T):
        mean[t * dz:(t + 1) * dz] = z_means[t]
        mean[T * dz + t * dx: T * dz + (t + 1) * dx] = params.C @ z_means[t]
    for s in range(T):
        for t in range(T):
            cov[s * dz:(s + 1) * dz, t * dz:(t + 1) * dz] = Szz[s, t]
            cov[T * dz + s * dx: T * dz + (s + 1) * dx,
                T * dz + t * dx: T * dz + (t + 1) * dx] = \
                params.C @ Szz[s, t] @ params.C.T + (params.R if s == t else 0)
            cov[s * dz:(s + 1) * dz, T * dz + t * dx: T * dz + (t + 1) * dx] = \
                Szz[s, t] @ params.C.T
            cov[T * dz + t * dx: T * dz + (t + 1) * dx, s * dz:(s + 1) * dz] = \
                (Szz[s, t] @ params.C.T).T
    return Gaussian(mean, cov)


def bayes_rule_responsibilities(params, X):
    """Linear-domain GMM posterior over components, point by point."""
    out = np.empty((len(X), params.n_components))
    for i, x in enumerate(X):
        dens = np.array([params.weights[k] * math.exp(
            gaussian_logpdf(x, Gaussian(params.means[k], params.covs[k])))
            for k in range(params.n_components)])
        out[i] = dens / dens.sum()
    return out


def lca_bayes_responsibilities(params, X):
    out = np.empty((len(X), params.n_classes))
    for i, x in enumerate(X):
        dens = np.array([params.weights[k]
                         * np.prod([params.item_probs[j][k, x[j]]
                                    for j in range(params.n_items)])
                         for k in range(params.n_classes)])
        out[i] = dens / dens.sum()
    return out


def _simplex_grid_integral(prior, counts, n_grid):
    """Midpoint-rule Dirichlet-moment integral over the 1- or 2-simplex."""
    V = len(prior)
    logB = gammaln(prior).sum() - gammaln(prior.sum())
    if V == 2:
        t = (np.arange(n_grid) + 0.5) / n_grid
        logf = ((prior[0] + counts[0] - 1) * np.log(t)
                + (prior[1] + counts[1] - 1) * np.log1p(-t)) - logB
        return float(np.exp(logf).mean())
    if V == 3:
        u = (np.arange(n_grid) + 0.5) / n_grid
        U, W = np.meshgrid(u, u, indexing="ij")
        mask = U + W < 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            logf = ((prior[0] + counts[0] - 1) * np.log(U)
                    + (prior[1] + counts[1] - 1) * np.log(W)
                    + (prior[2] + counts[2] - 1) * np.log(1.0 - U - W)) - logB
        return float(np.where(mask, np.exp(logf), 0.0).sum() / n_grid ** 2)
    raise ValueError("grid integrator supports 2- and 3-dimensional simplexes")


def lda_exact_log_pw(hyper, corpus, n_grid_theta=4000, n_grid_phi=700):
    """Exact log p(w) by enumerating token assignments and integrating the
    Dirichlet blocks on simplex grids (cached per count vector)."""
    K, V = hyper.K, hyper.V
    sizes = [len(d) for d in corpus.docs]
    theta_cache = {}
    phi_cache = {}

    def theta_term(counts):
        key = tuple(counts)
        if key not in theta_cache:
            theta_cache[key] = _simplex_grid_integral(hyper.alpha, counts, n_grid_theta)
        return theta_cache[key]

    def phi_term(counts):
        key = tuple(counts)
        if key not in phi_cache:
            phi_cache[key] = _simplex_grid_integral(hyper.beta, counts, n_grid_phi)
        return phi_cache[key]

    total = 0.0
    for flat in itertools.product(range(K), repeat=sum(sizes)):
        pos = 0
        p = 1.0
        topic_counts = np.zeros((K, V))
        for d, n in enumerate(sizes):
            zd = flat[pos:pos + n]
            pos += n
            p *= theta_term(np.bincount(zd, minlength=K))
            for z, w in zip(zd, corpus.docs[d]):
                topic_counts[z, w] += 1
        for k in range(K):
            p *= phi_term(topic_counts[k])
        total += p
    return math.log(total)


def fd_gradients(loss_fn, params, eps=1e-4):
    """Central finite differences of a scalar function of Tensor leaves."""
    grads = []
    for p in params:
        g = np.zeros_like(p.values)
        flat = p.values.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            up = loss_fn()
            flat[i] = old - eps
            dn = loss_fn()
            flat[i] = old
            gflat[i] = (up - dn) / (2 * eps)
        grads.append(g)
    return grads


def max_rel_grad_error(loss_fn, params, backward_fn):
    """Reverse-mode vs finite-difference agreement over every parameter."""
    from latentlab.nn import backward, zero_grad
    zero_grad(params)
    loss = backward_fn()
    backward(loss)
    fd = fd_gradients(lambda: float(loss_fn()), params)
    worst = 0.0
    for p, g in zip(params, fd):
        got = p.grad if p.grad is not None else np.zeros_like(p.values)
        scale = max(np.abs(g).max(), np.abs(got).max(), 1e-8)
        worst = max(worst, float(np.abs(got - g).max() / scale))
    return worst


def fd_logdet(fn, z, eps=1e-6):
    """log |det J| by central differences; permutations make det negative,
    which the change of variables absorbs via the absolute value."""
    d = z.shape[0]
    J = np.empty((d, d))
    for j in range(d):
        up = z.copy()
        up[j] += eps
        dn = z.copy()
        dn[j] -= eps
        J[:, j] = (fn(up) - fn(dn)) / (2 * eps)
    sign, logdet = np.linalg.slogdet(J)
    if sign == 0:
        raise AssertionError("Jacobian is singular")
    return logdet
