"""Autoregressive model over fixed-length discrete sequences: the joint
probability factorizes into per-position conditionals, each computed by a
single shared network fed a causally masked one-hot prefix plus a position
indicator. Likelihoods are exact; training uses observed prefixes (teacher
forcing); sampling is ancestral, left to right.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import category_codes
from .nn import Mlp, Tensor, fit_minibatch

__all__ = ["ArModel", "make_ar_model", "log_likelihood", "log_likelihood_batch",
           "train", "sample", "position_logits"]

NEG_INF_SENTINEL = -1e30


@dataclass
class ArModel:
    """cond_net maps a (D*V + D)-dim input (masked one-hot prefix, then a
    one-hot position marker) to V logits for that position. Masking the
    input at and beyond the queried position enforces causality by
    construction."""

    seq_len: int
    alphabet: int
    cond_net: Mlp

    def __post_init__(self):
        if self.cond_net.in_dim != self.seq_len * self.alphabet + self.seq_len:
            raise ValueError("cond_net input dim must be D*V + D")
        if self.cond_net.out_dim != self.alphabet:
            raise ValueError("cond_net output dim must be V")

    def params(self):
        return self.cond_net.params()


def make_ar_model(seq_len, alphabet, rng, hidden=64):
    net = Mlp.create([seq_len * alphabet + seq_len, hidden, alphabet],
                     ["tanh", "identity"], rng)
    return ArModel(seq_len, alphabet, net)


def _check_sequences(model, x):
    return category_codes(x, "ARM sequences", [model.alphabet] * model.seq_len)[0]


def _onehot(X, V):
    N, D = X.shape
    out = np.zeros((N, D, V))
    out[np.arange(N)[:, None], np.arange(D)[None, :], X] = 1.0
    return out


def _masked_inputs(model, X):
    """All (sequence, position) network inputs for teacher forcing, stacked
    into one (N*D, D*V + D) batch: row (i, d) sees x_i with positions >= d
    zeroed, plus the one-hot marker for d."""
    N, D = X.shape
    V = model.alphabet
    oh = _onehot(X, V)
    rows = np.zeros((N, D, D * V + D))
    for d in range(D):
        masked = oh.copy()
        masked[:, d:, :] = 0.0
        rows[:, d, :D * V] = masked.reshape(N, D * V)
        rows[:, d, D * V + d] = 1.0
    return rows.reshape(N * D, D * V + D)


def position_logits(model, prefix, d):
    """Logits for position d given a batch of (possibly partial) sequences;
    entries at positions >= d are ignored by construction."""
    X = category_codes(prefix, "ARM sequences", model.alphabet)[0]
    N, D = X.shape
    V = model.alphabet
    oh = _onehot(X, V)
    oh[:, d:, :] = 0.0
    inp = np.zeros((N, D * V + D))
    inp[:, :D * V] = oh.reshape(N, D * V)
    inp[:, D * V + d] = 1.0
    return model.cond_net.forward(Tensor(inp))


def _loglik_tensor(model, X):
    """(scalar) total log-likelihood of a batch, on the tape."""
    N, D = X.shape
    V = model.alphabet
    inp = Tensor(_masked_inputs(model, X))
    logits = model.cond_net.forward(inp)          # (N*D, V)
    logp = logits.log_softmax(axis=1)
    targets = np.zeros((N * D, V))
    targets[np.arange(N * D), X.reshape(-1)] = 1.0
    return (logp * targets).sum()


def log_likelihood(model, x):
    """Exact log p(x) of one sequence: sum of per-position conditionals.
    Values below the -1e30 sentinel are clamped for report friendliness."""
    X = _check_sequences(model, x)
    if X.shape[0] != 1:
        raise ValueError("log_likelihood takes a single sequence; use log_likelihood_batch")
    ll = float(_loglik_tensor(model, X).values)
    return max(ll, NEG_INF_SENTINEL)


def log_likelihood_batch(model, x):
    X = _check_sequences(model, x)
    N, D = X.shape
    V = model.alphabet
    inp = Tensor(_masked_inputs(model, X))
    logp = model.cond_net.forward(inp).values
    m = logp.max(axis=1, keepdims=True)
    logp = logp - (m + np.log(np.sum(np.exp(logp - m), axis=1, keepdims=True)))
    picked = logp[np.arange(N * D), X.reshape(-1)].reshape(N, D)
    return np.maximum(picked.sum(axis=1), NEG_INF_SENTINEL)


def train(model, data, epochs, batch, rng, lr=1e-3):
    """Teacher-forced ascent on mean log-likelihood; per-epoch means returned."""
    X = _check_sequences(model, data)
    return -fit_minibatch(lambda xb, _r: -(_loglik_tensor(model, xb) * (1.0 / len(xb))),
                          model.params(), X, epochs, batch, rng, lr)


def sample(model, n, rng):
    """Ancestral sampling, one position at a time across the whole batch."""
    D, V = model.seq_len, model.alphabet
    X = np.zeros((n, D), dtype=int)
    for d in range(D):
        logits = position_logits(model, X, d).values
        m = logits.max(axis=1, keepdims=True)
        p = np.exp(logits - m)
        p /= p.sum(axis=1, keepdims=True)
        u = rng.uniform(n)
        X[:, d] = (np.cumsum(p, axis=1) < u[:, None]).sum(axis=1).clip(0, V - 1)
    return X
