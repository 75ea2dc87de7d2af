"""Lineage oracles: each sequential or latent-trait family reduces, at special
parameters, to the flat model it extends, and the two code paths share no
recursion.

- A Gaussian HMM whose transition rows all equal pi is a GMM on the pooled
  rows; a discrete HMM so made is a one-item LCA.
- An LDS with A = 0, Q = Sigma0 = I, mu0 = 0 and R = sigma2 I is PPCA with
  W = C, mu = 0 and that sigma2, step by step.
- A 2PL IRT model with every a = 0 is a set of independent Bernoulli items.
- An LCA with one class is the product of its item marginals.
- A flow of permutation layers alone is the standard normal.

hypothesis draws the sizes, the ragged lengths and a seed for the
parameters. Each pair agrees within 1e-12 times the largest of 1 and the
magnitudes of both sides; no test pins the bytes of one path to the
other's.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from latentlab import flow, irt, mixture, ppca, sequential

REL = 1e-12
SEEDS = st.integers(0, 2 ** 32 - 1)
LENGTHS = st.lists(st.integers(1, 9), min_size=1, max_size=5)


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    assert got.shape == want.shape
    scale = max(np.max(np.abs(want), initial=0.0), np.max(np.abs(got), initial=0.0), 1.0)
    assert np.max(np.abs(got - want), initial=0.0) <= REL * scale, (got, want)


def simplex(rng, size):
    """Probabilities no smaller than about 0.05 / size, normalized."""
    w = rng.uniform(0.05, 1.0, size)
    return w / w.sum()


def spd(rng, d):
    M = rng.uniform(-1.0, 1.0, (d, d))
    return M @ M.T / d + 0.2 * np.eye(d)


def per_sequence(lengths, row_values):
    """Per-sequence sums of values given per row, sequence after sequence."""
    ends = np.cumsum(lengths)
    return np.array([math.fsum(row_values[e - n:e]) for e, n in zip(ends, lengths)])


@settings(deadline=None, max_examples=40)
@given(SEEDS, st.integers(1, 4), st.integers(1, 3), LENGTHS)
def test_gaussian_hmm_with_rows_equal_to_pi_is_a_gmm_on_the_pooled_rows(seed, K, d, lengths):
    rng = np.random.default_rng(seed)
    pi = simplex(rng, K)
    means = rng.uniform(-3.0, 3.0, (K, d))
    covs = np.stack([spd(rng, d) for _ in range(K)])
    hmm = sequential.HmmParams(pi, np.tile(pi, (K, 1)), sequential.GaussianEmission(means, covs))
    seqs = [rng.standard_normal((n, d)) * 2.0 for n in lengths]
    post = sequential.hmm_infer(hmm, seqs)
    pooled = np.concatenate(seqs)
    gmm = mixture.GmmParams(pi, means, covs)
    assert_close(post.logliks, per_sequence(lengths, mixture.gmm_loglik_rows(gmm, pooled)))
    assert_close(post.pack.unpack(post.gamma), mixture.gmm_e_step(gmm, pooled).gamma)


@settings(deadline=None, max_examples=40)
@given(SEEDS, st.integers(1, 4), st.integers(1, 5), LENGTHS)
def test_discrete_hmm_with_rows_equal_to_pi_is_a_one_item_lca(seed, K, S, lengths):
    rng = np.random.default_rng(seed)
    pi = simplex(rng, K)
    emit = np.stack([simplex(rng, S) for _ in range(K)])
    hmm = sequential.HmmParams(pi, np.tile(pi, (K, 1)), sequential.DiscreteEmission(emit))
    seqs = [rng.integers(0, S, n) for n in lengths]
    post = sequential.hmm_infer(hmm, seqs)
    codes = np.concatenate(seqs)[:, None]
    lca = mixture.LcaParams(pi, (emit,))
    assert_close(post.logliks, per_sequence(lengths, mixture.lca_loglik_rows(lca, codes)))
    assert_close(post.pack.unpack(post.gamma), mixture.lca_e_step(lca, codes).gamma)


@settings(deadline=None, max_examples=40)
@given(SEEDS, st.integers(1, 3), st.integers(0, 3), LENGTHS)
def test_lds_without_dynamics_is_ppca_step_by_step(seed, dz, extra, lengths):
    rng = np.random.default_rng(seed)
    dx = dz + extra                     # PPCA's latent dimension is at most D
    C = rng.uniform(-2.0, 2.0, (dx, dz))
    sigma2 = rng.uniform(0.1, 2.0)
    eye = np.eye(dz)
    lds = sequential.LdsParams(np.zeros((dz, dz)), C, eye, sigma2 * np.eye(dx),
                               np.zeros(dz), eye)
    seqs = [rng.standard_normal((n, dx)) * 2.0 for n in lengths]
    post = sequential.lds_infer(lds, seqs)
    pooled = np.concatenate(seqs)
    pca = ppca.PpcaParams(C, np.zeros(dx), sigma2)
    assert_close(post.logliks, per_sequence(lengths, ppca.loglik_rows(pca, pooled)))
    assert_close(post.pack.unpack(post.means), ppca.posterior_means(pca, pooled))


@settings(deadline=None, max_examples=40)
@given(SEEDS, st.integers(1, 6), st.integers(1, 30), st.sampled_from([5, 11, 41]))
def test_irt_without_discrimination_is_independent_bernoullis(seed, J, N, nodes):
    rng = np.random.default_rng(seed)
    b = rng.uniform(-3.0, 3.0, J)
    X = rng.integers(0, 2, (N, J))
    got = irt.loglik_rows(irt.IrtParams(np.zeros(J), b), X, irt.default_quadrature(nodes))
    p1 = np.array([1.0 / (1.0 + math.exp(bj)) for bj in b])       # P(x = 1) = sigmoid(-b)
    want = [sum(math.log(p1[j] if x[j] else 1.0 - p1[j]) for j in range(J)) for x in X]
    assert_close(got, want)


@settings(deadline=None, max_examples=40)
@given(SEEDS, st.lists(st.integers(1, 5), min_size=1, max_size=5), st.integers(1, 30))
def test_lca_with_one_class_is_the_product_of_its_item_marginals(seed, widths, N):
    rng = np.random.default_rng(seed)
    tables = tuple(simplex(rng, w)[None, :] for w in widths)
    X = np.stack([rng.integers(0, w, N) for w in widths], axis=1)
    params = mixture.LcaParams(np.ones(1), tables)
    want = [sum(math.log(tables[j][0, x[j]]) for j in range(len(widths))) for x in X]
    assert_close(mixture.lca_loglik_rows(params, X), want)
    assert_close(mixture.lca_e_step(params, X).gamma, np.ones((N, 1)))


@settings(deadline=None, max_examples=40)
@given(SEEDS, st.integers(1, 6), st.integers(1, 4), st.integers(1, 30))
def test_a_flow_of_permutations_alone_is_the_standard_normal(seed, d, n_layers, N):
    rng = np.random.default_rng(seed)
    model = flow.FlowModel([flow.PermutationLayer(rng.permutation(d)) for _ in range(n_layers)], d)
    X = rng.standard_normal((N, d)) * 3.0
    want = [-0.5 * d * math.log(2 * math.pi) - 0.5 * sum(v * v for v in x) for x in X]
    assert_close(flow.log_likelihood(model, X), want)
