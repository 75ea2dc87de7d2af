"""Latent Dirichlet allocation with mean-field variational inference.

The variational family factorizes over topic-word distributions, per-document
topic proportions, and per-token assignments; the coordinate updates are the
exact maximizers of the bound under that factorization (token weights
proportional to exp of digamma expectations, Dirichlet parameters equal to
prior plus expected counts).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (RandomSource, check_finite, fields_from_json, fields_to_json, float_list,
                   sample_categorical_many, sample_dirichlet)
from .em import EmConfig, run_em

__all__ = ["LdaHyper", "Corpus", "LdaVariational", "generate_corpus", "elbo",
           "fit_lda", "fit_documents", "to_json", "from_json"]


@dataclass(frozen=True)
class LdaHyper:
    """Dirichlet concentrations: alpha (K,) over topics per document, beta
    (V,) over words per topic (a scalar beta is expanded symmetrically)."""

    alpha: np.ndarray
    beta: np.ndarray
    K: int
    V: int

    def __post_init__(self):
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.ndim == 0:
            alpha = np.full(self.K, float(alpha))
        beta = np.asarray(self.beta, dtype=float)
        if beta.ndim == 0:
            beta = np.full(self.V, float(beta))
        check_finite(alpha, "alpha")
        check_finite(beta, "beta")
        if alpha.shape != (self.K,) or beta.shape != (self.V,):
            raise ValueError("alpha must be (K,), beta must be (V,)")
        if np.any(alpha <= 0) or np.any(beta <= 0):
            raise ValueError("concentrations must be positive")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class Corpus:
    """Documents as integer word-index sequences over a vocabulary of size V."""

    docs: tuple
    V: int

    def __post_init__(self):
        docs = []
        for d, doc in enumerate(self.docs):
            w = np.asarray(doc, dtype=int)
            if w.size == 0:
                raise ValueError(f"document {d} is empty")
            if np.any((w < 0) | (w >= self.V)):
                raise ValueError(f"document {d} has word index out of range")
            docs.append(w)
        object.__setattr__(self, "docs", tuple(docs))

    @property
    def n_docs(self):
        return len(self.docs)

    @property
    def n_tokens(self):
        return sum(len(d) for d in self.docs)


@dataclass(frozen=True)
class LdaVariational:
    """doc_topic (D, K): Dirichlet parameters of each q(theta_d);
    topic_word (K, V): Dirichlet parameters of each q(phi_k);
    word_topic: per-document (N_d, K) simplex rows, the token assignments."""

    doc_topic: np.ndarray
    topic_word: np.ndarray
    word_topic: tuple

    def __post_init__(self):
        dt = np.asarray(self.doc_topic, dtype=float)
        tw = np.asarray(self.topic_word, dtype=float)
        if np.any(dt <= 0) or np.any(tw <= 0):
            raise ValueError("Dirichlet parameters must be positive")
        wts = []
        for d, phi in enumerate(self.word_topic):
            p = np.asarray(phi, dtype=float)
            if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0, atol=1e-9):
                raise ValueError(f"token weights of document {d} are not simplex rows")
            wts.append(p)
        object.__setattr__(self, "doc_topic", dt)
        object.__setattr__(self, "topic_word", tw)
        object.__setattr__(self, "word_topic", tuple(wts))


def to_json(model):
    """JSON form of a fitted model, a dict of "hyper", "doc_topic", "topic_word"."""
    return {**fields_to_json(model["hyper"]), "doc_topic": float_list(model["doc_topic"]),
            "topic_word": float_list(model["topic_word"])}


def from_json(obj):
    return {"hyper": fields_from_json(LdaHyper, obj), "doc_topic": np.asarray(obj["doc_topic"]),
            "topic_word": np.asarray(obj["topic_word"])}


def generate_corpus(hyper, doc_lengths, rng):
    """Ancestral draw of a corpus; returns the corpus and the true latents
    (topics, per-document proportions, token assignments) for oracle checks."""
    K, V = hyper.K, hyper.V
    phi = np.stack([sample_dirichlet(hyper.beta, rng).probs for _ in range(K)])
    thetas = []
    zs = []
    docs = []
    for length in doc_lengths:
        theta = sample_dirichlet(hyper.alpha, rng).probs
        z = sample_categorical_many(theta, rng, int(length))
        w = np.array([sample_categorical_many(phi[zk], rng, 1)[0] for zk in z])
        thetas.append(theta)
        zs.append(z)
        docs.append(w)
    corpus = Corpus(tuple(docs), V)
    return corpus, {"topic_word": phi, "doc_topic": np.stack(thetas), "assignments": zs}


def _dirichlet_elog(params):
    """E[log p] rows for Dirichlet parameter rows."""
    from scipy.special import digamma  # loaded here so only LDA pays its import
    params = np.atleast_2d(params)
    return digamma(params) - digamma(params.sum(axis=1, keepdims=True))


def _dirichlet_logpdf_expectation(prior, elog):
    """E_q[log Dir(x; prior)] where elog = E_q[log x], for rows."""
    from scipy.special import gammaln  # loaded here so only LDA pays its import
    prior = np.atleast_2d(prior)
    return (gammaln(prior.sum(axis=1)) - gammaln(prior).sum(axis=1)
            + ((prior - 1.0) * elog).sum(axis=1))


def _entropy_dirichlet(params, elog):
    """-E_q[log q] for Dirichlet rows with precomputed elog."""
    from scipy.special import gammaln  # loaded here so only LDA pays its import
    params = np.atleast_2d(params)
    return -(gammaln(params.sum(axis=1)) - gammaln(params).sum(axis=1)
             + ((params - 1.0) * elog).sum(axis=1))


def elbo(hyper, corpus, var):
    """Evidence lower bound of the mean-field family; analytic in the
    Dirichlet/categorical expectations, bounded above by log p(w)."""
    elog_theta = _dirichlet_elog(var.doc_topic)       # (D, K)
    elog_phi = _dirichlet_elog(var.topic_word)        # (K, V)
    total = float(np.sum(_dirichlet_logpdf_expectation(hyper.beta[None, :].repeat(hyper.K, 0),
                                                       elog_phi)))
    total += float(np.sum(_dirichlet_logpdf_expectation(hyper.alpha[None, :].repeat(corpus.n_docs, 0),
                                                        elog_theta)))
    total += float(np.sum(_entropy_dirichlet(var.topic_word, elog_phi)))
    total += float(np.sum(_entropy_dirichlet(var.doc_topic, elog_theta)))
    for d, (w, phi_d) in enumerate(zip(corpus.docs, var.word_topic)):
        total += float(np.sum(phi_d * elog_theta[d][None, :]))
        total += float(np.sum(phi_d * elog_phi[:, w].T))
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(phi_d > 0, phi_d * np.log(phi_d), 0.0)
        total -= float(np.sum(plogp))
    return total


def _token_update(hyper, corpus, var):
    """Exact coordinate update of the per-token assignment weights."""
    elog_theta = _dirichlet_elog(var.doc_topic)
    elog_phi = _dirichlet_elog(var.topic_word)
    new_wt = []
    for d, w in enumerate(corpus.docs):
        logits = elog_theta[d][None, :] + elog_phi[:, w].T
        logits -= logits.max(axis=1, keepdims=True)
        phi_d = np.exp(logits)
        phi_d /= phi_d.sum(axis=1, keepdims=True)
        new_wt.append(phi_d)
    return LdaVariational(var.doc_topic, var.topic_word, tuple(new_wt))


def _doc_topic(hyper, word_topic):
    """Exact coordinate update of the document Dirichlets."""
    doc_topic = np.empty((len(word_topic), hyper.K))
    for d, phi_d in enumerate(word_topic):
        doc_topic[d] = hyper.alpha + phi_d.sum(axis=0)
    return doc_topic


def _dirichlet_updates(hyper, corpus, var):
    """Exact coordinate updates of the document and topic Dirichlets."""
    topic_word = np.tile(hyper.beta, (hyper.K, 1))
    for w, phi_d in zip(corpus.docs, var.word_topic):
        np.add.at(topic_word.T, w, phi_d)
    return LdaVariational(_doc_topic(hyper, var.word_topic), topic_word, var.word_topic)


def init_variational(hyper, corpus, rng):
    """Seeded symmetric-Dirichlet token weights, then consistent Dirichlets."""
    wt = []
    for w in corpus.docs:
        phi_d = np.stack([sample_dirichlet(np.ones(hyper.K), rng).probs
                          for _ in range(len(w))])
        wt.append(phi_d)
    var = LdaVariational(np.ones((corpus.n_docs, hyper.K)),
                         np.ones((hyper.K, hyper.V)), tuple(wt))
    return _dirichlet_updates(hyper, corpus, var)


def fit_lda(hyper, corpus, cfg: EmConfig, init=None):
    """Coordinate-ascent sweeps (tokens, then documents, then topics) until
    the relative bound change drops below cfg.rel_tol; the bound trace is
    non-decreasing up to 1e-6 slack."""
    if init is None:
        init = init_variational(hyper, corpus, RandomSource(cfg.seed).split(404))

    def m_step(data, scored):
        return _dirichlet_updates(hyper, data, _token_update(hyper, data, scored[0]))

    return _ascend(hyper, corpus, init, m_step, cfg)


def fit_documents(hyper, corpus, topic_word, cfg: EmConfig):
    """Coordinate-ascent sweeps over the token and document factors only, the
    topic Dirichlets held at topic_word (a fitted model's), from uniform
    token weights; stops like fit_lda."""
    word_topic = tuple(np.full((len(w), hyper.K), 1.0 / hyper.K) for w in corpus.docs)
    init = LdaVariational(_doc_topic(hyper, word_topic), topic_word, word_topic)

    def m_step(data, scored):
        var = _token_update(hyper, data, scored[0])
        return LdaVariational(_doc_topic(hyper, var.word_topic), topic_word, var.word_topic)

    return _ascend(hyper, corpus, init, m_step, cfg)


def _ascend(hyper, corpus, init, sweep, cfg):
    # Coordinate ascent has no separate posterior: the "E-step" scores the
    # current variational parameters and one sweep is the "M-step", so the
    # trace holds the bound after each sweep and the last score costs no
    # token update.
    def e_step(var, data):
        return var, elbo(hyper, data, var)

    def objective(scored):
        return scored[1]

    return run_em(e_step, sweep, objective, corpus, init, cfg, monotonic_slack=1e-6)
