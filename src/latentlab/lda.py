"""Latent Dirichlet allocation with mean-field variational inference.

The variational family factorizes over topic-word distributions, per-document
topic proportions, and per-token assignments; the coordinate updates are the
exact maximizers of the bound under that factorization (token weights
proportional to exp of digamma expectations, Dirichlet parameters equal to
prior plus expected counts).

A corpus is held flat: one array of all N tokens plus document offsets. Each
sweep is one pass over an (N_tokens, K) block: the bound gathers the digamma
expectations by each token's document and word into token logits, reduces
their per-token row sums per document, and the token update then normalizes
those same logits row by row (core.normalize_log_rows) into the new weights.
The topic update is one scatter-add over the words. The document sums go document by document over
views into the block, which adds the rows in the same order as a
per-document loop, so fits are bit-identical to one.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (RandomSource, category_codes, cdf, check_counts, int_fields,
                   normalize_log_rows, plogp, real_fields, row_sums, sample_categorical_many,
                   sample_dirichlet)
from .em import EmConfig, run_em

__all__ = ["LdaHyper", "LdaModel", "Corpus", "LdaVariational", "generate_corpus", "elbo",
           "document_elbo", "fit_lda", "fit_documents"]


@dataclass(frozen=True)
class LdaHyper:
    """Dirichlet concentrations: alpha (K,) over topics per document, beta
    (V,) over words per topic (a scalar beta is expanded symmetrically)."""

    alpha: np.ndarray
    beta: np.ndarray
    K: int
    V: int

    def __post_init__(self):
        int_fields(self, K=0, V=0)
        check_counts(K=self.K, V=self.V)
        for name, size in (("alpha", self.K), ("beta", self.V)):
            if np.isscalar(getattr(self, name)):
                object.__setattr__(self, name, np.full(size, getattr(self, name)))
        real_fields(self, alpha=1, beta=1)
        if self.alpha.shape != (self.K,) or self.beta.shape != (self.V,):
            raise ValueError("alpha must be (K,), beta must be (V,)")
        if np.any(self.alpha <= 0) or np.any(self.beta <= 0):
            raise ValueError("concentrations must be positive")


@dataclass(frozen=True)
class LdaModel(LdaHyper):
    """A fitted model: the hyperparameters, and the Dirichlet parameters of
    the fitted document factors doc_topic (D, K) and topics topic_word (K, V)."""

    doc_topic: np.ndarray
    topic_word: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        real_fields(self, doc_topic=2, topic_word=2)
        if self.doc_topic.shape[1] != self.K or self.topic_word.shape != (self.K, self.V) \
                or np.any(self.doc_topic <= 0) or np.any(self.topic_word <= 0):
            raise ValueError("doc_topic (D, K) and topic_word (K, V) must be positive")


@dataclass(frozen=True)
class Corpus:
    """Documents as integer word-index sequences over a vocabulary of size V
    (None: the largest index + 1).

    The tokens are stored flat: words (N_tokens,) in document order, offsets
    (D+1,) with document d at words[offsets[d]:offsets[d+1]], and doc_of
    (N_tokens,) the document of each token. docs holds the documents as
    views into words."""

    docs: tuple
    V: int
    words: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    doc_of: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        docs = [np.asarray(doc) for doc in self.docs]
        lengths = np.array([w.size for w in docs], dtype=int)
        empty = np.flatnonzero(lengths == 0)
        if empty.size:
            raise ValueError(f"document {empty[0]} is empty")
        # the row of a bad word is its token's place in the corpus
        words, (V,) = category_codes(np.concatenate(docs or [np.zeros(0, dtype=int)])[:, None],
                                     "corpus word indices", self.V)
        words = words[:, 0]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        doc_of = np.repeat(np.arange(len(docs)), lengths)
        words.flags.writeable = False      # docs are views into it
        object.__setattr__(self, "V", int(V))
        object.__setattr__(self, "docs", _blocks(words, offsets))
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "doc_of", doc_of)

    @property
    def n_docs(self):
        return len(self.docs)

    @property
    def n_tokens(self):
        return self.words.size


def _blocks(flat, offsets):
    """The per-document views into a flat token array."""
    return tuple(flat[a:b] for a, b in zip(offsets[:-1], offsets[1:]))


@dataclass(frozen=True)
class LdaVariational:
    """doc_topic (D, K): Dirichlet parameters of each q(theta_d);
    topic_word (K, V): Dirichlet parameters of each q(phi_k);
    weights (N_tokens, K): the token assignments, one simplex row per token
    in corpus order; offsets (D+1,): the corpus's document bounds.

    weights may also be given as a sequence of per-document (N_d, K) blocks,
    with offsets left out; word_topic gives the blocks back as views."""

    doc_topic: np.ndarray
    topic_word: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray = None

    def __post_init__(self):
        real_fields(self, doc_topic=2, topic_word=2)
        if np.any(self.doc_topic <= 0) or np.any(self.topic_word <= 0):
            raise ValueError("Dirichlet parameters must be positive")
        wt, offsets = self.weights, self.offsets
        if offsets is None:
            blocks = [np.asarray(b, dtype=float) for b in wt]
            offsets = np.concatenate(([0], np.cumsum([len(b) for b in blocks], dtype=int)))
            wt = np.concatenate(blocks) if blocks else np.zeros((0, self.doc_topic.shape[1]))
        wt = np.asarray(wt, dtype=float)
        simplex = np.all(wt >= 0, axis=1) & np.isclose(row_sums(wt), 1.0, atol=1e-9)
        if not np.all(simplex):
            d = np.count_nonzero(offsets <= np.argmin(simplex)) - 1
            raise ValueError(f"token weights of document {d} are not simplex rows")
        object.__setattr__(self, "weights", wt)
        object.__setattr__(self, "offsets", offsets)

    @property
    def word_topic(self):
        """The per-document (N_d, K) token weights, as views into weights."""
        return _blocks(self.weights, self.offsets)


def generate_corpus(hyper, doc_lengths, rng):
    """Ancestral draw of a corpus; returns the corpus and the true latents
    (topics, per-document proportions, token assignments) for oracle checks."""
    K, V = hyper.K, hyper.V
    phi = np.stack([sample_dirichlet(hyper.beta, rng).probs for _ in range(K)])
    cdf_phi = cdf(phi)
    thetas = []
    zs = []
    docs = []
    for length in doc_lengths:
        theta = sample_dirichlet(hyper.alpha, rng).probs
        z = sample_categorical_many(theta, rng, int(length))
        # one uniform per token, in token order, inverted through its topic's cdf
        u = rng.uniform(len(z))
        w = np.empty(len(z), dtype=int)
        for k in np.unique(z):
            at = z == k
            w[at] = np.searchsorted(cdf_phi[k], u[at], side="right")
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


def _token_logits(corpus, elog_theta, elog_phi):
    """(N_tokens, K) E[log theta_dk] + E[log phi_kw] of each token's document and word."""
    return elog_theta[corpus.doc_of] + np.ascontiguousarray(elog_phi.T)[corpus.words]


def _bound_terms(hyper, corpus, var):
    """The bound split as (topics, docs, logits): the q(phi) prior and
    entropy terms, a float; the (D,) rest of the bound, document by
    document; and the (N_tokens, K) token logits at var, which are the next
    token update's input."""
    elog_theta = _dirichlet_elog(var.doc_topic)       # (D, K)
    elog_phi = _dirichlet_elog(var.topic_word)        # (K, V)
    topics = float(np.sum(_dirichlet_logpdf_expectation(hyper.beta[None, :], elog_phi)
                          - _dirichlet_logpdf_expectation(var.topic_word, elog_phi)))
    docs = (_dirichlet_logpdf_expectation(hyper.alpha[None, :], elog_theta)
            - _dirichlet_logpdf_expectation(var.doc_topic, elog_theta))
    wt = var.weights
    logits = _token_logits(corpus, elog_theta, elog_phi)
    tokens = row_sums(wt * logits - plogp(wt))
    docs += np.bincount(corpus.doc_of, weights=tokens, minlength=corpus.n_docs)
    return topics, docs, logits


def elbo(hyper, corpus, var):
    """Evidence lower bound of the mean-field family; analytic in the
    Dirichlet/categorical expectations, bounded above by log p(w)."""
    topics, docs, _logits = _bound_terms(hyper, corpus, var)
    return topics + float(np.sum(docs))


def document_elbo(hyper, corpus, var):
    """The bound as (D,) per-document values that sum to elbo: each document's
    own terms plus an equal share of the topic terms."""
    topics, docs, _logits = _bound_terms(hyper, corpus, var)
    return docs + topics / corpus.n_docs


def _dirichlet_updates(hyper, corpus, weights, topic_word=None):
    """The variational parameters of the token weights (whose exact
    coordinate update is the token logits normalized row by row), with the
    exact coordinate updates of the document Dirichlets and, unless
    topic_word holds them fixed, of the topic Dirichlets."""
    doc_topic = np.empty((corpus.n_docs, hyper.K))
    for d, wt_d in enumerate(_blocks(weights, corpus.offsets)):
        doc_topic[d] = hyper.alpha + wt_d.sum(axis=0)
    if topic_word is None:
        topic_word = np.tile(hyper.beta, (hyper.K, 1))
        np.add.at(topic_word.T, corpus.words, weights)
    return LdaVariational(doc_topic, topic_word, weights, corpus.offsets)


def init_variational(hyper, corpus, rng):
    """Seeded symmetric-Dirichlet token weights, then consistent Dirichlets.

    One standard-gamma block, normalized row by row as core.sample_dirichlet
    normalizes a single draw, gives the same weights as one draw per token."""
    g = rng.standard_gamma(np.ones((corpus.n_tokens, hyper.K)))
    total = row_sums(g)[:, None]
    underflow = total[:, 0] == 0.0
    g[underflow] = 1.0
    total[underflow] = hyper.K
    wt = g / total
    wt /= row_sums(wt)[:, None]
    return _dirichlet_updates(hyper, corpus, wt)


def fit_lda(hyper, corpus, cfg: EmConfig, init=None):
    """Coordinate-ascent sweeps (tokens, then documents, then topics) until
    the relative bound change drops below cfg.rel_tol; the bound trace is
    non-decreasing up to 1e-6 slack."""
    if init is None:
        init = init_variational(hyper, corpus, RandomSource(cfg.seed).split(404))

    def m_step(data, scored):
        return _dirichlet_updates(hyper, data, normalize_log_rows(scored[1])[0])

    return _ascend(hyper, corpus, init, m_step, cfg)


def fit_documents(hyper, corpus, topic_word, cfg: EmConfig):
    """Coordinate-ascent sweeps over the token and document factors only, the
    topic Dirichlets held at topic_word (a fitted model's), from uniform
    token weights; stops like fit_lda."""
    weights = np.full((corpus.n_tokens, hyper.K), 1.0 / hyper.K)
    init = _dirichlet_updates(hyper, corpus, weights, topic_word)

    def m_step(data, scored):
        return _dirichlet_updates(hyper, data, normalize_log_rows(scored[1])[0], topic_word)

    return _ascend(hyper, corpus, init, m_step, cfg)


def _ascend(hyper, corpus, init, sweep, cfg):
    # Coordinate ascent has no separate posterior: the "E-step" scores the
    # current variational parameters, keeping the token logits it forms, and
    # one sweep is the "M-step", which turns those logits into the new token
    # weights. So the trace holds the bound after each sweep and the last
    # score costs no token update.
    def e_step(var, data):
        topics, docs, logits = _bound_terms(hyper, data, var)
        return topics + float(np.sum(docs)), logits

    def objective(scored):
        return scored[0]

    return run_em(e_step, sweep, objective, corpus, init, cfg, monotonic_slack=1e-6)
