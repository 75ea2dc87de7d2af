"""Benchmark-owned input generators and file writers.

Every input is drawn from numpy's PCG64 generator keyed by (workload seed,
stream id) and written with the benchmark's own formatting, never through
latentlab.datasets, so a change to the library cannot change what it is
measured on. Each generator draws one true model and then one sample per
requested size, so a training set and a held-out set share their model.
"""
from __future__ import annotations

import numpy as np


def rng_for(seed, stream):
    """Independent PCG64 stream for one input of one workload seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, stream])))


def _spd(rng, d, scale):
    A = rng.standard_normal((d, d))
    return scale * (A @ A.T / d + 0.5 * np.eye(d))


def gmm_data(rng, sizes, d, k, spread=2.5, cov_scale=1.0):
    """Gaussian mixture with weights away from zero and random SPD covariances."""
    weights = rng.dirichlet(np.full(k, 5.0))
    means = rng.normal(0.0, spread, (k, d))
    chols = [np.linalg.cholesky(_spd(rng, d, cov_scale)) for _ in range(k)]
    out = []
    for n in sizes:
        z = rng.choice(k, n, p=weights)
        eps = rng.standard_normal((n, d))
        X = means[z] + np.einsum("nij,nj->ni", np.asarray(chols)[z], eps)
        out.append(X)
    return out


def ppca_data(rng, sizes, D, M, signal=3.0, sigma2=1.0):
    """Orthonormal loadings of equal norm plus isotropic noise.

    Equal loading norms keep the EM contraction rate near 0.67 on every seed,
    so an EM fit to the c02 tolerance costs about the same on every seed.
    """
    Q, _ = np.linalg.qr(rng.standard_normal((D, M)))
    W = signal * Q
    mu = rng.standard_normal(D)
    return [rng.standard_normal((n, M)) @ W.T + mu
            + np.sqrt(sigma2) * rng.standard_normal((n, D)) for n in sizes]


def _categorical_rows(rng, probs):
    """One draw per row of a (n, C) probability table, by inverse CDF."""
    cum = np.cumsum(probs, axis=1)
    u = rng.random(probs.shape[0])
    return np.minimum((cum < u[:, None]).sum(axis=1), probs.shape[1] - 1)


def lca_data(rng, sizes, J, C, K):
    """Latent classes whose item tables are close perturbations of one base
    table, so EM needs many iterations and the iteration cap always binds."""
    weights = rng.dirichlet(np.full(K, 5.0))
    base = rng.dirichlet(np.full(C, 2.0), J)                          # (J, C)
    tables = base[:, None, :] * np.exp(0.6 * rng.standard_normal((J, K, C)))
    tables /= tables.sum(axis=2, keepdims=True)                       # (J, K, C)
    out = []
    for n in sizes:
        z = rng.choice(K, n, p=weights)
        X = np.empty((n, J), dtype=int)
        for j in range(J):
            X[:, j] = _categorical_rows(rng, tables[j][z])
        out.append(X)
    return out


def irt_data(rng, sizes, J):
    """Binary responses from a 2PL model with standard-normal abilities."""
    a = rng.uniform(0.7, 2.0, J)
    b = np.clip(rng.standard_normal(J), -2.0, 2.0)
    out = []
    for n in sizes:
        theta = rng.standard_normal(n)
        p = 1.0 / (1.0 + np.exp(-(np.outer(theta, a) - b)))
        out.append((rng.random((n, J)) < p).astype(int))
    return out


def ragged_lengths(rng, count, mean_len):
    """Lengths drawn uniformly from [mean_len/2, 3*mean_len/2]."""
    return rng.integers(mean_len // 2, 3 * mean_len // 2 + 1, count)


def _markov_states(rng, pi, trans, T):
    states = np.empty(T, dtype=int)
    states[0] = rng.choice(len(pi), p=pi)
    cum = np.cumsum(trans, axis=1)
    u = rng.random(T)
    for t in range(1, T):
        states[t] = min(int(np.searchsorted(cum[states[t - 1]], u[t], side="right")),
                        len(pi) - 1)
    return states


def _sticky_chain(rng, K):
    trans = 0.7 * np.eye(K) + 0.3 * rng.dirichlet(np.ones(K), K)
    return np.full(K, 1.0 / K), trans / trans.sum(axis=1, keepdims=True)


def hmm_discrete_seqs(rng, length_sets, K, S):
    """Discrete HMM sequences over S symbols, one list per length set.
    Peaked emissions keep EM away from the flat start where it stops early."""
    pi, trans = _sticky_chain(rng, K)
    emit = rng.dirichlet(np.full(S, 0.3), K)
    out = []
    for lengths in length_sets:
        seqs = []
        for T in lengths:
            z = _markov_states(rng, pi, trans, int(T))
            seqs.append(_categorical_rows(rng, emit[z]))
        out.append(seqs)
    return out


def hmm_gaussian_seqs(rng, length_sets, K, d):
    """Gaussian-emission HMM sequences; state means on the unit circle, so
    the states overlap and EM runs to the iteration cap."""
    pi, trans = _sticky_chain(rng, K)
    angles = 2 * np.pi * np.arange(K) / K + rng.uniform(0, 2 * np.pi)
    means = np.zeros((K, d))
    means[:, 0], means[:, 1] = np.cos(angles), np.sin(angles)
    out = []
    for lengths in length_sets:
        seqs = []
        for T in lengths:
            z = _markov_states(rng, pi, trans, int(T))
            seqs.append(means[z] + np.sqrt(0.5) * rng.standard_normal((int(T), d)))
        out.append(seqs)
    return out


def lds_seqs(rng, length_sets, dx):
    """Linear dynamical system with a 2-d state: damped rotation, random
    observation matrix."""
    dz = 2
    theta = rng.uniform(0.1, 0.4)
    A = 0.95 * np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    C = rng.standard_normal((dx, dz))
    q, r = np.sqrt(0.1), np.sqrt(0.5)
    out = []
    for lengths in length_sets:
        seqs = []
        for T in lengths:
            T = int(T)
            Z = np.empty((T, dz))
            Z[0] = rng.standard_normal(dz)
            noise = q * rng.standard_normal((T, dz))
            for t in range(1, T):
                Z[t] = A @ Z[t - 1] + noise[t]
            seqs.append(Z @ C.T + r * rng.standard_normal((T, dx)))
        out.append(seqs)
    return out


def corpus_docs(rng, n_docs, mean_len, V, K):
    """Documents from the LDA generative process with sparse topics."""
    topics = rng.dirichlet(np.full(V, 0.1), K)                       # (K, V)
    cum = np.cumsum(topics, axis=1)
    docs = []
    for n in ragged_lengths(rng, n_docs, mean_len):
        theta = rng.dirichlet(np.full(K, 0.5))
        z = rng.choice(K, int(n), p=theta)
        u = rng.random(int(n))
        w = np.array([np.searchsorted(cum[k], x, side="right") for k, x in zip(z, u)])
        docs.append(np.minimum(w, V - 1))
    return docs


def standardized(X):
    return (X - X.mean(axis=0)) / X.std(axis=0)


def markov_codes(rng, sizes, length, alphabet):
    """Integer sequences of fixed length from a random first-order chain."""
    pi = rng.dirichlet(np.ones(alphabet))
    trans = rng.dirichlet(np.full(alphabet, 0.5), alphabet)
    out = []
    for n in sizes:
        X = np.empty((n, length), dtype=int)
        X[:, 0] = rng.choice(alphabet, n, p=pi)
        for d in range(1, length):
            X[:, d] = _categorical_rows(rng, trans[X[:, d - 1]])
        out.append(X)
    return out


# -- file writers (formats the latentlab CLI reads) ---------------------------

def write_csv(path, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    header = ",".join(f"x{j}" for j in range(X.shape[1]))
    np.savetxt(path, X, fmt="%.17g", delimiter=",", header=header, comments="")


def write_discrete_seq(path, seqs):
    with open(path, "w", newline="\n") as fh:
        for s in seqs:
            fh.write(" ".join(str(int(v)) for v in s) + "\n")


def write_real_seq(path, seqs):
    with open(path, "w", newline="\n") as fh:
        fh.write(f"dx={seqs[0].shape[1]}\n")
        for s in seqs:
            fh.write(" ".join("%.17g" % v for v in np.asarray(s, dtype=float).ravel()) + "\n")
