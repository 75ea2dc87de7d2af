import itertools
import math

import numpy as np
import pytest
from scipy.special import digamma, gammaln

from latentlab.core import RandomSource, sample_dirichlet
from latentlab.em import EmConfig, run_em
from latentlab.lda import (Corpus, LdaHyper, LdaVariational, elbo, fit_documents, fit_lda,
                           generate_corpus, init_variational)


# -- exact log p(w) oracles ----------------------------------------------------

def _theta_integral_grid(alpha, counts, n_grid=4000):
    """Midpoint-rule integral of Dir(theta|alpha) * prod_k theta_k^counts_k
    over the 1-simplex (K = 2)."""
    t = (np.arange(n_grid) + 0.5) / n_grid
    logB = gammaln(alpha).sum() - gammaln(alpha.sum())
    integrand = ((alpha[0] + counts[0] - 1) * np.log(t)
                 + (alpha[1] + counts[1] - 1) * np.log1p(-t)) - logB
    return float(np.exp(integrand).mean())


def _phi_integral_grid(beta, counts, n_grid=700):
    """Triangle midpoint rule for V = 3; reduces to the 1-simplex rule for V = 2."""
    V = len(beta)
    if V == 2:
        return _theta_integral_grid(beta, counts)
    u = (np.arange(n_grid) + 0.5) / n_grid
    U, W = np.meshgrid(u, u, indexing="ij")
    mask = U + W < 1.0
    logB = gammaln(beta).sum() - gammaln(beta.sum())
    with np.errstate(divide="ignore", invalid="ignore"):
        logf = ((beta[0] + counts[0] - 1) * np.log(U)
                + (beta[1] + counts[1] - 1) * np.log(W)
                + (beta[2] + counts[2] - 1) * np.log(1.0 - U - W)) - logB
    vals = np.where(mask, np.exp(logf), 0.0)
    return float(vals.sum() / n_grid ** 2)


def _dirichlet_multinomial(prior, counts):
    """Closed-form check on the grid: B(prior + counts) / B(prior)."""
    prior = np.asarray(prior, dtype=float)
    counts = np.asarray(counts, dtype=float)
    return math.exp(gammaln(prior + counts).sum() - gammaln((prior + counts).sum())
                    - gammaln(prior).sum() + gammaln(prior.sum()))


def exact_log_pw(hyper, corpus, integrator="grid"):
    """Enumerate token assignments; integrate theta and phi per assignment."""
    K, V = hyper.K, hyper.V
    sizes = [len(d) for d in corpus.docs]
    total = 0.0
    theta_fn = _theta_integral_grid if integrator == "grid" else \
        (lambda a, c: _dirichlet_multinomial(a, c))
    phi_fn = _phi_integral_grid if integrator == "grid" else \
        (lambda b, c: _dirichlet_multinomial(b, c))
    for flat in itertools.product(range(K), repeat=sum(sizes)):
        z_docs = []
        pos = 0
        for n in sizes:
            z_docs.append(flat[pos:pos + n])
            pos += n
        p = 1.0
        for d, zd in enumerate(z_docs):
            counts = np.bincount(zd, minlength=K)
            p *= theta_fn(hyper.alpha, counts)
        for k in range(K):
            counts = np.zeros(V)
            for zd, doc in zip(z_docs, corpus.docs):
                for z, w in zip(zd, doc):
                    if z == k:
                        counts[w] += 1
            p *= phi_fn(hyper.beta, counts)
        total += p
    return math.log(total)


def test_oracle_grid_matches_closed_form():
    # the grid route only has to be good to the 1e-3 criterion tolerance
    hyper = LdaHyper(np.array([1.5, 2.0]), np.array([1.2, 1.0, 2.0]), 2, 3)
    corpus = Corpus((np.array([0, 2]), np.array([1])), 3)
    grid = exact_log_pw(hyper, corpus, integrator="grid")
    closed = exact_log_pw(hyper, corpus, integrator="closed")
    assert grid == pytest.approx(closed, abs=1e-3)


# -- generative process ---------------------------------------------------------

def test_generate_single_topic():
    hyper = LdaHyper(np.array([1.0]), np.array([2.0, 1.0, 1.0]), 1, 3)
    corpus, latents = generate_corpus(hyper, [4000], RandomSource(0))
    assert all(z == 0 for z in latents["assignments"][0])
    freq = np.bincount(corpus.docs[0], minlength=3) / 4000
    assert np.allclose(freq, latents["topic_word"][0], atol=0.03)


def test_generate_high_alpha_uniform_proportions():
    hyper = LdaHyper(np.full(3, 1e6), np.ones(4), 3, 4)
    _corpus, latents = generate_corpus(hyper, [10, 10], RandomSource(1))
    assert np.allclose(latents["doc_topic"], 1 / 3, atol=0.01)


def test_generate_histograms_match_mixture():
    hyper = LdaHyper(np.array([2.0, 2.0]), np.array([1.0, 1.0, 1.0]), 2, 3)
    corpus, latents = generate_corpus(hyper, [20_000], RandomSource(2))
    mix = latents["doc_topic"][0] @ latents["topic_word"]
    freq = np.bincount(corpus.docs[0], minlength=3) / 20_000
    assert np.allclose(freq, mix, atol=0.02)


# -- ELBO -----------------------------------------------------------------------

def test_elbo_below_exact_marginal():
    hyper = LdaHyper(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 2, 2)
    corpus = Corpus((np.array([0, 1]),), 2)
    log_pw = exact_log_pw(hyper, corpus)
    _var, report = fit_lda(hyper, corpus, EmConfig(seed=3, rel_tol=1e-10, max_iters=300))
    assert report.final_objective <= log_pw + 1e-3


def test_elbo_term_by_term_at_prior():
    # q(theta) = prior, q(phi) = prior, uniform token weights: the Dirichlet
    # KL blocks vanish and only the token terms remain
    hyper = LdaHyper(np.array([2.0, 3.0]), np.array([1.0, 2.0]), 2, 2)
    corpus = Corpus((np.array([0, 1, 1]),), 2)
    D, K, V = 1, 2, 2
    wt = (np.full((3, K), 1.0 / K),)
    var = LdaVariational(np.tile(hyper.alpha, (D, 1)), np.tile(hyper.beta, (K, 1)), wt)
    elog_theta = digamma(hyper.alpha) - digamma(hyper.alpha.sum())
    elog_phi = digamma(np.tile(hyper.beta, (K, 1))) - digamma(hyper.beta.sum())
    expected = 0.0
    for w in corpus.docs[0]:
        expected += np.sum((elog_theta + elog_phi[:, w]) / K) + math.log(K)
    assert elbo(hyper, corpus, var) == pytest.approx(expected, abs=1e-12)


def test_elbo_increases_per_sweep():
    hyper = LdaHyper(np.full(2, 1.0), np.full(3, 1.0), 2, 3)
    corpus, _ = generate_corpus(hyper, [12, 8, 15], RandomSource(4))
    _var, report = fit_lda(hyper, corpus, EmConfig(seed=4, max_iters=50))
    assert np.all(np.diff(report.objective_trace) >= -1e-6)


# -- fit ------------------------------------------------------------------------

def test_fit_recovers_disjoint_topics():
    # two topics over disjoint vocabulary halves
    V, K = 6, 2
    phi = np.array([[0.34, 0.33, 0.33, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.34, 0.33, 0.33]])
    rng = RandomSource(5)
    docs = []
    for d in range(30):
        theta = rng.uniform()
        topic = int(rng.uniform() < 0.5)
        words = []
        for _ in range(40):
            k = topic
            w = int(np.searchsorted(np.cumsum(phi[k]), rng.uniform()))
            words.append(min(w, V - 1))
        docs.append(np.array(words))
    corpus = Corpus(tuple(docs), V)
    hyper = LdaHyper(np.full(K, 1.0), np.full(V, 1.0), K, V)
    var, _report = fit_lda(hyper, corpus, EmConfig(seed=5, max_iters=200))
    topic_probs = var.topic_word / var.topic_word.sum(axis=1, keepdims=True)
    first_half = topic_probs[:, :3].sum(axis=1)
    # one topic concentrates on each half (up to permutation)
    hi, lo = max(first_half), min(first_half)
    assert hi >= 0.9
    assert lo <= 0.1


def test_fit_k1_closed_form():
    hyper = LdaHyper(np.array([1.5]), np.array([0.5, 0.5, 0.5]), 1, 3)
    corpus = Corpus((np.array([0, 1, 1, 2]), np.array([2, 2])), 3)
    var, _report = fit_lda(hyper, corpus, EmConfig(seed=6, max_iters=10))
    counts = np.bincount(np.concatenate(corpus.docs), minlength=3)
    assert np.allclose(var.topic_word[0], hyper.beta + counts, atol=1e-12)


def test_fit_single_word_vocab_constant_after_first_sweep():
    # degenerate vocabulary: no likelihood signal, so the symmetric state is
    # a fixed point and the bound is flat from the first sweep onward
    hyper = LdaHyper(np.array([1.0, 1.0]), np.array([1.0]), 2, 1)
    corpus = Corpus((np.zeros(3, dtype=int), np.zeros(2, dtype=int)), 1)
    # Dirichlet blocks consistent with uniform token weights:
    # doc_topic = alpha + N_d/2, topic_word = beta + (total tokens)/2
    uniform = LdaVariational(np.array([[2.5, 2.5], [2.0, 2.0]]),
                             np.array([[3.5], [3.5]]),
                             tuple(np.full((n, 2), 0.5) for n in (3, 2)))
    _var, report = fit_lda(hyper, corpus, EmConfig(seed=7, max_iters=30), init=uniform)
    trace = report.objective_trace
    assert np.all(np.abs(np.diff(trace)) < 1e-9)


def test_fit_deterministic():
    hyper = LdaHyper(np.full(2, 1.0), np.full(3, 1.0), 2, 3)
    corpus, _ = generate_corpus(hyper, [10, 10], RandomSource(8))
    v1, r1 = fit_lda(hyper, corpus, EmConfig(seed=9, max_iters=20))
    v2, r2 = fit_lda(hyper, corpus, EmConfig(seed=9, max_iters=20))
    assert np.array_equal(v1.topic_word, v2.topic_word)
    assert np.array_equal(r1.objective_trace, r2.objective_trace)


def test_topic_permutation_invariance():
    hyper = LdaHyper(np.full(2, 1.3), np.full(3, 0.8), 2, 3)
    corpus, _ = generate_corpus(hyper, [6, 4], RandomSource(10))
    var = init_variational(hyper, corpus, RandomSource(11))
    base = elbo(hyper, corpus, var)
    perm = [1, 0]
    var_p = LdaVariational(var.doc_topic[:, perm], var.topic_word[perm],
                           tuple(p[:, perm] for p in var.word_topic))
    assert elbo(hyper, corpus, var_p) == pytest.approx(base, abs=1e-10)


def test_variational_invariants_after_sweeps():
    hyper = LdaHyper(np.full(3, 0.7), np.full(4, 0.9), 3, 4)
    corpus, _ = generate_corpus(hyper, [9, 7, 5], RandomSource(12))
    var, _report = fit_lda(hyper, corpus, EmConfig(seed=12, max_iters=25))
    assert np.all(var.doc_topic > 0)
    assert np.all(var.topic_word > 0)
    for phi_d in var.word_topic:
        assert np.all(phi_d >= 0)
        assert np.allclose(phi_d.sum(axis=1), 1.0, atol=1e-12)


def test_corpus_validation():
    with pytest.raises(ValueError):
        Corpus((np.array([], dtype=int),), 3)
    with pytest.raises(ValueError):
        Corpus((np.array([0, 5]),), 3)


def test_hyperparameter_counts_are_at_least_one():
    # before their own check, a zero K or V left empty concentrations behind
    for K, V, name in ((0, 6, "K"), (3, 0, "V")):
        with pytest.raises(ValueError, match=rf"^{name} must be >= 1, got 0$"):
            LdaHyper(0.5, 0.3, K, V)


def test_fit_documents_holds_the_topics_and_ascends():
    hyper = LdaHyper(np.ones(3), np.full(6, 0.5), 3, 6)
    corpus, _ = generate_corpus(hyper, [15] * 10, RandomSource(12))
    fitted, _ = fit_lda(hyper, corpus, EmConfig(max_iters=40, rel_tol=1e-9, seed=2))
    var, report = fit_documents(hyper, corpus, fitted.topic_word,
                                EmConfig(max_iters=200, rel_tol=1e-9))
    assert np.array_equal(var.topic_word, fitted.topic_word)
    assert np.all(np.diff(report.objective_trace) >= -1e-6)
    assert report.final_objective == elbo(hyper, corpus, var)
    # other topics give another bound on the same corpus
    other, _ = fit_documents(hyper, corpus, 3.0 * fitted.topic_word[::-1],
                             EmConfig(max_iters=200, rel_tol=1e-9))
    assert elbo(hyper, corpus, other) != report.final_objective


# -- flat token arrays vs the per-document reference loop ----------------------
# A copy of the per-document, per-token coordinate ascent that the flat
# (N_tokens, K) sweeps replace; the state is the list [doc_topic, topic_word,
# per-document weights] (a list, as run_em reads a returned tuple as
# (params, events)). The flat sweeps must reproduce it bit for bit.

def _ref_elog(params):
    return digamma(params) - digamma(params.sum(axis=1, keepdims=True))


def _ref_dirichlet_term(params, elog):
    """E_q[log Dir(x; params)] for rows, with elog = E_q[log x]."""
    return (gammaln(params.sum(axis=1)) - gammaln(params).sum(axis=1)
            + ((params - 1.0) * elog).sum(axis=1))


def _ref_dirichlet_updates(hyper, docs, wt):
    topic_word = np.tile(hyper.beta, (hyper.K, 1))
    for w, phi_d in zip(docs, wt):
        np.add.at(topic_word.T, w, phi_d)
    return [_ref_doc_topic(hyper, wt), topic_word, wt]


def _ref_doc_topic(hyper, wt):
    return np.stack([hyper.alpha + phi_d.sum(axis=0) for phi_d in wt])


def _ref_init(hyper, docs, rng):
    wt = [np.stack([sample_dirichlet(np.ones(hyper.K), rng).probs for _ in range(len(w))])
          for w in docs]
    return _ref_dirichlet_updates(hyper, docs, wt)


def _ref_token_update(docs, doc_topic, topic_word):
    elog_theta, elog_phi = _ref_elog(doc_topic), _ref_elog(topic_word)
    wt = []
    for d, w in enumerate(docs):
        logits = elog_theta[d][None, :] + elog_phi[:, w].T
        logits -= logits.max(axis=1, keepdims=True)
        phi_d = np.exp(logits)
        phi_d /= phi_d.sum(axis=1, keepdims=True)
        wt.append(phi_d)
    return wt


def _ref_elbo(hyper, docs, state):
    doc_topic, topic_word, wt = state
    elog_theta, elog_phi = _ref_elog(doc_topic), _ref_elog(topic_word)
    total = float(np.sum(_ref_dirichlet_term(np.tile(hyper.beta, (hyper.K, 1)), elog_phi)))
    total += float(np.sum(_ref_dirichlet_term(np.tile(hyper.alpha, (len(docs), 1)),
                                              elog_theta)))
    total -= float(np.sum(_ref_dirichlet_term(topic_word, elog_phi)))
    total -= float(np.sum(_ref_dirichlet_term(doc_topic, elog_theta)))
    for d, (w, phi_d) in enumerate(zip(docs, wt)):
        total += float(np.sum(phi_d * elog_theta[d][None, :]))
        total += float(np.sum(phi_d * elog_phi[:, w].T))
        with np.errstate(divide="ignore", invalid="ignore"):
            total -= float(np.sum(np.where(phi_d > 0, phi_d * np.log(phi_d), 0.0)))
    return total


def _ref_ascend(hyper, docs, init, sweep, cfg):
    return run_em(lambda state, _docs: (state, _ref_elbo(hyper, docs, state)), sweep,
                  lambda scored: scored[1], docs, init, cfg, monotonic_slack=1e-6)


def _assert_same_state(var, state):
    doc_topic, topic_word, wt = state
    assert np.array_equal(var.doc_topic, doc_topic)
    assert np.array_equal(var.topic_word, topic_word)
    assert len(var.word_topic) == len(wt)
    assert all(np.array_equal(a, b) for a, b in zip(var.word_topic, wt))


def _assert_same_report(report, ref_report):
    assert report.iters == ref_report.iters
    assert report.converged == ref_report.converged
    np.testing.assert_allclose(report.objective_trace, ref_report.objective_trace,
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("K, V, lengths, seed", [
    (2, 7, [1, 5, 13], 0),            # a 1-token document
    (3, 40, [9, 1, 30, 2, 17], 1),    # most of the vocabulary unused
    (9, 25, [40, 3, 1, 22], 2),       # K above numpy's 8-way pairwise block
])
def test_flat_sweeps_match_reference_loop(K, V, lengths, seed):
    r = np.random.default_rng(seed)
    docs = [r.integers(0, V // 2, n) for n in lengths]   # words V//2.. never occur
    corpus = Corpus(tuple(docs), V)
    hyper = LdaHyper(np.linspace(0.5, 1.5, K), np.full(V, 0.8), K, V)
    cfg = EmConfig(seed=seed, max_iters=300, rel_tol=1e-12)

    init = init_variational(hyper, corpus, RandomSource(seed))
    ref_init = _ref_init(hyper, docs, RandomSource(seed))
    _assert_same_state(init, ref_init)
    assert elbo(hyper, corpus, init) == pytest.approx(_ref_elbo(hyper, docs, ref_init),
                                                      rel=1e-14, abs=0)

    var, report = fit_lda(hyper, corpus, cfg, init=init)
    ref, ref_report = _ref_ascend(
        hyper, docs, ref_init,
        lambda _docs, scored: _ref_dirichlet_updates(
            hyper, docs, _ref_token_update(docs, *scored[0][:2])), cfg)
    _assert_same_state(var, ref)
    _assert_same_report(report, ref_report)

    topic_word = var.topic_word
    uniform = [np.full((n, K), 1.0 / K) for n in lengths]

    def ref_doc_sweep(_docs, scored):
        wt = _ref_token_update(docs, scored[0][0], topic_word)
        return [_ref_doc_topic(hyper, wt), topic_word, wt]

    held, held_report = fit_documents(hyper, corpus, topic_word, cfg)
    ref_held, ref_held_report = _ref_ascend(
        hyper, docs, [_ref_doc_topic(hyper, uniform), topic_word, uniform], ref_doc_sweep, cfg)
    _assert_same_state(held, ref_held)
    _assert_same_report(held_report, ref_held_report)


@pytest.mark.parametrize("fit", ["fit_lda", "fit_documents"])
def test_each_sweep_forms_the_token_logits_once(monkeypatch, fit):
    from latentlab import lda
    counts = {"_token_logits": 0, "_dirichlet_elog": 0, "LdaVariational": 0}

    def counting(name):
        original = getattr(lda, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return wrapper

    hyper = LdaHyper(np.ones(3), np.full(12, 0.5), 3, 12)
    corpus, _ = generate_corpus(hyper, [8, 1, 20, 5], RandomSource(21))
    cfg = EmConfig(seed=3, max_iters=6, rel_tol=1e-15)
    if fit == "fit_lda":
        init = init_variational(hyper, corpus, RandomSource(22))
        run = lambda: fit_lda(hyper, corpus, cfg, init=init)      # noqa: E731
    else:
        topic_word = 0.5 + RandomSource(22).uniform((3, 12))
        run = lambda: fit_documents(hyper, corpus, topic_word, cfg)   # noqa: E731
    for name in counts:
        monkeypatch.setattr(lda, name, counting(name))
    _var, report = run()
    assert report.iters == 6
    # one bound per sweep and the opening one; one set of parameters per
    # sweep, and for fit_documents the starting one
    sweeps = report.iters + 1
    assert counts == {"_token_logits": sweeps, "_dirichlet_elog": 2 * sweeps,
                      "LdaVariational": report.iters + (fit == "fit_documents")}
