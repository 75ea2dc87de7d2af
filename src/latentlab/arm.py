"""Autoregressive model over fixed-length discrete sequences: the joint
probability factorizes into per-position conditionals, each computed by a
single shared network fed a causally masked one-hot prefix plus a position
indicator. Likelihoods are exact; training uses observed prefixes (teacher
forcing); sampling is ancestral, left to right. Scoring and sampling run
the network block by block of sequences (nn.map_rows); the sampler replays
one recording per block shape.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import category_codes, cdf, check_counts, int_fields, normalize_log_rows, row_sums
from .nn import Mlp, Recorder, eager, fit_minibatch, map_rows

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
        int_fields(self, seq_len=0, alphabet=0)
        if self.cond_net.in_dim != self.seq_len * self.alphabet + self.seq_len:
            raise ValueError("cond_net input dim must be D*V + D")
        if self.cond_net.out_dim != self.alphabet:
            raise ValueError("cond_net output dim must be V")

    def params(self):
        return self.cond_net.params()


def make_ar_model(seq_len, alphabet, rng, hidden=64):
    check_counts(seq_len=seq_len, hidden=hidden)
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


def _masked_inputs(model, X, positions=None):
    """Network inputs of the given positions (all D by default) for every
    sequence, stacked sequence-major into one (N*P, D*V + D) batch: row
    (i, d) sees x_i with positions >= d zeroed, plus the one-hot marker
    for d."""
    N, D = X.shape
    V = model.alphabet
    positions = range(D) if positions is None else positions
    oh = _onehot(X, V).reshape(N, D * V)
    rows = np.zeros((N, len(positions), D * V + D))
    for j, d in enumerate(positions):
        rows[:, j, :d * V] = oh[:, :d * V]
        rows[:, j, D * V + d] = 1.0
    return rows.reshape(N * len(positions), D * V + D)


def position_logits(model, prefix, d):
    """Logits for position d given a batch of (possibly partial) sequences;
    entries at positions >= d are ignored by construction."""
    X = category_codes(prefix, "ARM sequences", model.alphabet)[0]
    return model.cond_net.forward(_masked_inputs(model, X, [d]))


def _log_conditionals(model, inputs):
    """(N*D, V) conditional log-probabilities of every position, on the tape,
    from the masked inputs (an array or a Tensor)."""
    return model.cond_net.forward(inputs).log_softmax()


def _loglik_inputs(model, X):
    """(masked inputs, one-hot targets), both (N*D, .), of a batch of codes."""
    N, D = X.shape
    targets = np.zeros((N * D, model.alphabet))
    targets[np.arange(N * D), X.reshape(-1)] = 1.0
    return _masked_inputs(model, X), targets


def _loglik_graph(model, inputs, targets):
    """(scalar) total log-likelihood from the masked inputs and targets."""
    return (_log_conditionals(model, inputs) * targets).sum()


def _loglik_tensor(model, X):
    """(scalar) total log-likelihood of a batch, on the tape."""
    return eager(lambda *t: _loglik_graph(model, *t), _loglik_inputs(model, X))


def log_likelihood(model, x):
    """Exact log p(x) of one sequence: sum of per-position conditionals.
    Values below the -1e30 sentinel are clamped for report friendliness."""
    X = _check_sequences(model, x)
    if X.shape[0] != 1:
        raise ValueError("log_likelihood takes a single sequence; use log_likelihood_batch")
    ll = float(_loglik_tensor(model, X).values)
    return max(ll, NEG_INF_SENTINEL)


def log_likelihood_batch(model, x):
    """Exact log p(x) of each sequence, block by block of whole sequences,
    clamped at the sentinel as log_likelihood is."""
    def block(X):
        N, D = X.shape
        logp = _log_conditionals(model, _masked_inputs(model, X)).values
        picked = logp[np.arange(N * D), X.reshape(-1)].reshape(N, D)
        return np.maximum(row_sums(picked), NEG_INF_SENTINEL)
    return map_rows(block, [_check_sequences(model, x)], model.seq_len * model.cond_net.width)


def train(model, data, epochs, batch, rng, lr=1e-3):
    """Teacher-forced ascent on mean log-likelihood; per-epoch means returned."""
    X = _check_sequences(model, data)

    def loss(inputs, targets):
        n = targets.values.shape[0] // model.seq_len        # sequences in the batch
        return -(_loglik_graph(model, inputs, targets) * (1.0 / n))
    return -fit_minibatch(lambda rows, _r: _loglik_inputs(model, rows), loss,
                          model.params(), X, epochs, batch, rng, lr)


def sample(model, n, rng):
    """Ancestral sampling, one position at a time across the whole batch,
    each position's network replayed block by block of sequences."""
    X = np.zeros((n, model.seq_len), dtype=int)
    logits_of = Recorder(model.cond_net.forward)
    for d in range(model.seq_len):
        logits = map_rows(lambda Xb: logits_of(_masked_inputs(model, Xb, [d])).values, [X],
                          model.cond_net.width)
        u = rng.uniform(n)
        X[:, d] = (cdf(normalize_log_rows(logits)[0]) <= u[:, None]).sum(axis=1)
    return X
