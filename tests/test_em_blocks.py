"""The mixtures, 2PL IRT and both HMMs share one set of EM building blocks:
posterior normalisation, Gaussian columns, the seeded starts, the weighted
M-steps, the probability floor and the empty-component rescue. This file
holds the per-model code those blocks replaced, copied as it was written
before they were shared, and checks that every fit still matches it bit for
bit: params, objective traces, iteration counts and rescue events.

The flat-EM kernels now run in row blocks with reused buffers. The whole-
array kernels they replaced are copied here too, and compared byte for byte
at the block boundaries.
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from latentlab import core, irt, mixture, sequential
from latentlab.core import RandomSource, chol_psd, log_sum_exp_rows
from latentlab.em import EmConfig, run_em
from latentlab.mixture import (GmmParams, LcaParams, Responsibilities, _cov_floor,
                               _farthest_point_means)
from latentlab.sequential import DiscreteEmission, GaussianEmission, HmmParams

SEEDS = (0, 1, 2)


# ---------------------------------------------------------------------------
# Reference copies

def ref_gaussian_logpdf_rows(X, mean, cov):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    mean = np.asarray(mean, dtype=float)
    L = chol_psd(np.atleast_2d(cov))
    sol = (X - mean) @ np.linalg.inv(L).T
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    d = mean.shape[0]
    quad = np.sum(sol * sol, axis=1)
    return -0.5 * (d * math.log(2 * math.pi) + logdet + quad)


def ref_gaussian_logpdf_columns(X, means, covs):
    out = np.empty((X.shape[0], len(means)))
    for k in range(len(means)):
        out[:, k] = ref_gaussian_logpdf_rows(X, means[k], covs[k])
    return out


def ref_log_sum_exp_rows(mat):
    mat = np.asarray(mat, dtype=float)
    m = mat.max(axis=-1, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = m[..., 0] + np.log(np.sum(np.exp(mat - m), axis=-1))
    return out


def ref_normalize_log_rows(log_rows):
    lse = ref_log_sum_exp_rows(log_rows)
    probs = log_rows - lse[:, None]
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, lse


def ref_lca_log_joint(params, X):
    N = X.shape[0]
    out = np.tile(np.log(np.where(params.weights > 0, params.weights, 1e-300)), (N, 1))
    for j, table in enumerate(params.item_probs):
        logt = np.log(np.where(table > 0, table, 1e-300))
        out += logt[:, X[:, j]].T
    return out


def ref_weighted_gaussians(X, gamma, counts):
    K, d = gamma.shape[1], X.shape[1]
    means = (gamma.T @ X) / counts[:, None]
    covs = np.empty((K, d, d))
    for k in range(K):
        diff = X - means[k]
        covs[k] = (gamma[:, k, None] * diff).T @ diff / counts[k]
    return means, _cov_floor(covs, 1e-6 * max(float(np.mean(np.var(X, axis=0))), 1e-12))


def ref_item_tables(X, gamma, counts, n_categories):
    N = X.shape[0]
    tables = []
    for j, C in enumerate(n_categories):
        onehot = np.zeros((N, C))
        onehot[np.arange(N), X[:, j]] = 1.0
        table = np.maximum((gamma.T @ onehot) / counts[:, None], 1e-10)
        tables.append(table / table.sum(axis=1, keepdims=True))
    return tables


def ref_responsibilities(lj):
    lse = ref_log_sum_exp_rows(lj)
    gamma = np.exp(lj - lse[:, None])
    gamma /= gamma.sum(axis=1, keepdims=True)
    return Responsibilities(gamma, float(np.sum(lse)))


def ref_node_posteriors(params, X, quad):
    ll = irt._log_lik_at_nodes(params, X, quad) + np.log(quad.weights)
    lse = ref_log_sum_exp_rows(ll)
    gamma = np.exp(ll - lse[:, None])
    gamma /= gamma.sum(axis=1, keepdims=True)
    return gamma, float(np.sum(lse))


def ref_gmm_e_step(params, X):
    out = np.empty((X.shape[0], params.n_components))
    log_w = np.log(np.where(params.weights > 0, params.weights, 1e-300))
    for k in range(params.n_components):
        out[:, k] = log_w[k] + ref_gaussian_logpdf_rows(X, params.means[k], params.covs[k])
    return ref_responsibilities(out)


def ref_gmm_m_step(X, resp):
    gamma = resp.gamma.copy()
    N, d = X.shape
    K = gamma.shape[1]
    events = []
    counts = gamma.sum(axis=0)
    for k in np.where(counts < 1e-8)[0]:
        i = int(np.argmin(gamma.max(axis=1)))
        gamma[i] = 0.0
        gamma[i, k] = 1.0
        events.append(f"component {k} empty; re-seeded at data point {i}")
    counts = gamma.sum(axis=0)
    weights = counts / counts.sum()
    means = (gamma.T @ X) / counts[:, None]
    floor = 1e-6 * max(float(np.mean(np.var(X, axis=0))), 1e-12)
    covs = np.empty((K, d, d))
    for k in range(K):
        diff = X - means[k]
        covs[k] = (gamma[:, k, None] * diff).T @ diff / counts[k]
    params = GmmParams(weights, means, _cov_floor(covs, floor))
    return (params, events) if events else params


def ref_fit_gmm(X, K, cfg, init=None):
    if init is None:
        d = X.shape[1]
        rng = RandomSource(cfg.seed).split(101)
        means = _farthest_point_means(X, K, rng)
        gcov = np.cov(X.T, bias=True).reshape(d, d)
        gcov = _cov_floor(gcov[None], 1e-6 * max(float(np.mean(np.var(X, axis=0))), 1e-12))[0]
        init = GmmParams(np.full(K, 1.0 / K), means, np.repeat(gcov[None], K, axis=0))
    return run_em(ref_gmm_e_step, ref_gmm_m_step, lambda r: r.loglik, X, init, cfg)


def ref_lca_m_step(X, resp, n_categories):
    gamma = resp.gamma
    N, J = X.shape
    events = []
    counts = gamma.sum(axis=0)
    if np.any(counts < 1e-8):
        gamma = gamma.copy()
        for k in np.where(counts < 1e-8)[0]:
            i = int(np.argmin(gamma.max(axis=1)))
            gamma[i] = 0.0
            gamma[i, k] = 1.0
            events.append(f"class {k} empty; re-seeded at data point {i}")
        counts = gamma.sum(axis=0)
    weights = counts / counts.sum()
    tables = []
    for j in range(J):
        C = int(n_categories[j])
        onehot = np.zeros((N, C))
        onehot[np.arange(N), X[:, j]] = 1.0
        table = (gamma.T @ onehot) / counts[:, None]
        table = np.maximum(table, 1e-10)
        table /= table.sum(axis=1, keepdims=True)
        tables.append(table)
    params = LcaParams(weights, tuple(tables))
    return (params, events) if events else params


def ref_fit_lca(X, K, cfg, init=None):
    N, J = X.shape
    n_categories = [int(X[:, j].max()) + 1 for j in range(J)]
    if init is None:
        rng = RandomSource(cfg.seed).split(202)
        tables = []
        for j in range(J):
            C = n_categories[j]
            freq = np.bincount(X[:, j], minlength=C).astype(float) / N
            freq = np.maximum(freq, 1e-10)
            noise = 1.0 + 0.1 * (2.0 * rng.uniform((K, C)) - 1.0)
            table = freq[None, :] * noise
            table /= table.sum(axis=1, keepdims=True)
            tables.append(table)
        init = LcaParams(np.full(K, 1.0 / K), tuple(tables))

    def e_step(params, data):
        return ref_responsibilities(ref_lca_log_joint(params, data))

    return run_em(e_step, lambda d, r: ref_lca_m_step(d, r, n_categories),
                  lambda r: r.loglik, X, init, cfg)


def ref_hmm_backward(post):
    counts, starts = post.pack.counts.tolist(), post.pack.starts.tolist()
    log_alpha, log_c = post.log_alpha, post.log_c
    log_beta = np.zeros_like(post.logB)
    logB_c = post.logB - log_c
    AT = post.params.trans.T
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(len(counts) - 2, -1, -1):
            s, q = starts[t], starts[t + 1]
            n = counts[t + 1]
            nxt = logB_c[q:q + n] + log_beta[q:q + n]
            m = nxt.max(1, keepdims=True)
            log_beta[s:s + n] = np.log(np.exp(nxt - m) @ AT) + m
    gamma = log_alpha + log_beta
    gamma -= ref_log_sum_exp_rows(gamma)[:, None]
    np.exp(gamma, out=gamma)
    gamma /= gamma.sum(axis=1, keepdims=True)
    return dataclasses.replace(post, log_beta=log_beta, gamma=gamma)


def ref_hmm_m_step(pack, post, kind, n_symbols):
    post = ref_hmm_backward(post)
    K = post.params.n_states
    gamma = post.gamma
    events = []
    pi = gamma[:pack.counts[0]].sum(axis=0)
    pi = pi / pi.sum()
    trans_num = post.pairwise_sum()
    row = trans_num.sum(axis=1, keepdims=True)
    for k in np.where(row[:, 0] < 1e-8)[0]:
        trans_num[k] = 1.0 / K
        row[k] = 1.0
        events.append(f"state {k} saw no transitions; row reset to uniform")
    trans = trans_num / row
    if kind == "discrete":
        counts = np.stack([np.bincount(pack.data, weights=g, minlength=n_symbols)
                           for g in gamma.T])
        occ = counts.sum(axis=1, keepdims=True)
        for k in np.where(occ[:, 0] < 1e-8)[0]:
            counts[k] = 1.0
            occ[k] = n_symbols
            events.append(f"state {k} empty; emissions reset to uniform")
        probs = np.maximum(counts / occ, 1e-10)
        probs /= probs.sum(axis=1, keepdims=True)
        emit = DiscreteEmission(probs)
    else:
        X = pack.data
        G = gamma
        occ = G.sum(axis=0)
        for k in np.where(occ < 1e-8)[0]:
            i = int(np.argmin(G.max(axis=1)[pack.index]))
            G = G.copy()
            G[pack.index[i]] = 0.0
            G[pack.index[i], k] = 1.0
            events.append(f"state {k} empty; re-seeded at pooled point {i}")
        occ = G.sum(axis=0)
        d = X.shape[1]
        means = (G.T @ X) / occ[:, None]
        covs = np.empty((K, d, d))
        for k in range(K):
            diff = X - means[k]
            covs[k] = (G[:, k, None] * diff).T @ diff / occ[k]
        floor = 1e-6 * max(float(np.mean(np.var(X, axis=0))), 1e-12)
        emit = GaussianEmission(means, _cov_floor(covs, floor))
    params = HmmParams(pi, trans, emit)
    return (params, events) if events else params


def ref_hmm_fit(obs_set, K, kind, cfg, init=None):
    pack = sequential._hmm_pack(kind == "discrete", obs_set)
    rng = RandomSource(cfg.seed).split(303)
    n_symbols = None
    if kind == "discrete":
        flat = pack.data
        n_symbols = int(flat.max()) + 1
        if init is None:
            freq = np.bincount(flat, minlength=n_symbols).astype(float) / flat.size
            freq = np.maximum(freq, 1e-10)
            noise = 1.0 + 0.1 * (2.0 * rng.uniform((K, n_symbols)) - 1.0)
            probs = freq[None, :] * noise
            probs /= probs.sum(axis=1, keepdims=True)
            tnoise = 1.0 + 0.1 * (2.0 * rng.uniform((K, K)) - 1.0)
            trans = tnoise / tnoise.sum(axis=1, keepdims=True)
            init = HmmParams(np.full(K, 1.0 / K), trans, DiscreteEmission(probs))
    elif init is None:
        X = pack.unpack(pack.data)
        means = _farthest_point_means(X, K, rng)
        d = X.shape[1]
        gcov = np.cov(X.T, bias=True).reshape(d, d)
        gcov = _cov_floor(gcov[None], 1e-6 * max(float(np.mean(np.var(X, axis=0))), 1e-12))[0]
        tnoise = 1.0 + 0.1 * (2.0 * rng.uniform((K, K)) - 1.0)
        trans = tnoise / tnoise.sum(axis=1, keepdims=True)
        init = HmmParams(np.full(K, 1.0 / K), trans,
                         GaussianEmission(means, np.repeat(gcov[None], K, axis=0)))
    return run_em(sequential._hmm_forward,
                  lambda p, post: ref_hmm_m_step(p, post, kind, n_symbols),
                  sequential._total_loglik, pack, init, cfg)


# ---------------------------------------------------------------------------
# Exact comparison

def _leaves(obj):
    """Every array and scalar of a params object, depth first."""
    if dataclasses.is_dataclass(obj):
        return [x for f in dataclasses.fields(obj) for x in _leaves(getattr(obj, f.name))]
    if isinstance(obj, (tuple, list)):
        return [x for item in obj for x in _leaves(item)]
    a = np.asarray(obj)
    return [(a.dtype.str, a.shape, a.tobytes())]


def assert_same_fit(got, want):
    (p_got, r_got), (p_want, r_want) = got, want
    assert type(p_got) is type(p_want)
    assert _leaves(p_got) == _leaves(p_want)
    assert r_got.objective_trace.tobytes() == r_want.objective_trace.tobytes()
    assert r_got.iters == r_want.iters
    assert r_got.converged == r_want.converged
    assert r_got.events == r_want.events
    assert np.float64(r_got.final_objective).tobytes() == \
        np.float64(r_want.final_objective).tobytes()


def _blobs(seed, n=(90, 60, 40)):
    g = np.random.default_rng(seed)
    return np.concatenate([g.normal(size=(m, 3)) + 3.0 * c for c, m in enumerate(n)])


def _codes(seed, N=240):
    g = np.random.default_rng(seed)
    z = g.integers(0, 2, N)
    return np.column_stack([(g.uniform(size=N) < 0.2 + 0.6 * z).astype(int),
                            g.integers(0, 3, N) * z, g.integers(0, 4, N),
                            (g.uniform(size=N) < 0.7 - 0.4 * z).astype(int)])


def _ragged(seed, discrete):
    g = np.random.default_rng(seed)
    lengths = g.integers(1, 30, size=9)
    if discrete:
        return [np.minimum(g.integers(0, 3, T) + (np.arange(T) // 4) % 2 * 2, 4) for T in lengths]
    return [g.normal(size=(T, 2)) + 3.0 * ((np.arange(T) // 5) % 2)[:, None] for T in lengths]


def _stuck_hmm(kind):
    """pi = [1, 0] and trans = I: state 1 is never visited."""
    emit = DiscreteEmission(np.full((2, 5), 0.2)) if kind == "discrete" \
        else GaussianEmission(np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    return HmmParams([1.0, 0.0], np.eye(2), emit)


# ---------------------------------------------------------------------------
# Tests

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("K", [1, 3, 4])
def test_gmm_fit_matches_reference(seed, K):
    X = _blobs(seed)
    cfg = EmConfig(max_iters=40, seed=seed)
    assert_same_fit(mixture.fit_gmm(X, K, cfg), ref_fit_gmm(X, K, cfg))


@pytest.mark.parametrize("seed", SEEDS)
def test_gmm_rescue_matches_reference(seed):
    X = _blobs(seed)
    far = GmmParams([0.5, 0.5], [[0.0, 0.0, 0.0], [1e3, 1e3, 1e3]], [np.eye(3)] * 2)
    cfg = EmConfig(max_iters=10, seed=seed)
    got = mixture.fit_gmm(X, 2, cfg, init=far)
    assert got[1].events[0] == "component 1 empty; re-seeded at data point 0"
    assert_same_fit(got, ref_fit_gmm(X, 2, cfg, init=far))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("K", [1, 2, 3])
def test_lca_fit_matches_reference(seed, K):
    X = _codes(seed)
    cfg = EmConfig(max_iters=40, seed=seed)
    assert_same_fit(mixture.fit_lca(X, K, cfg), ref_fit_lca(X, K, cfg))


@pytest.mark.parametrize("seed", SEEDS)
def test_lca_rescue_matches_reference(seed):
    X = _codes(seed)
    tables = tuple(np.full((2, int(c) + 1), 1.0 / (int(c) + 1)) for c in X.max(axis=0))
    init = LcaParams([1.0, 0.0], tables)
    cfg = EmConfig(max_iters=10, seed=seed)
    got = mixture.fit_lca(X, 2, cfg, init=init)
    assert got[1].events[0] == "class 1 empty; re-seeded at data point 0"
    assert_same_fit(got, ref_fit_lca(X, 2, cfg, init=init))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
@pytest.mark.parametrize("K", [1, 3])
def test_hmm_fit_matches_reference(seed, kind, K):
    obs = _ragged(seed, kind == "discrete")
    cfg = EmConfig(max_iters=25, seed=seed)
    assert_same_fit(sequential.hmm_fit(obs, K, kind, cfg), ref_hmm_fit(obs, K, kind, cfg))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
def test_hmm_rescue_matches_reference(seed, kind):
    obs = _ragged(seed, kind == "discrete")
    cfg = EmConfig(max_iters=5, seed=seed)
    got = sequential.hmm_fit(obs, 2, kind, cfg, init=_stuck_hmm(kind))
    assert "state 1 saw no transitions; row reset to uniform" in got[1].events
    assert_same_fit(got, ref_hmm_fit(obs, 2, kind, cfg, init=_stuck_hmm(kind)))


@pytest.mark.parametrize("seed", SEEDS)
def test_m_steps_match_reference_on_an_empty_column(seed):
    g = np.random.default_rng(seed)
    gamma = g.dirichlet(np.ones(3), size=240)
    gamma[:, 1] = 0.0
    gamma /= gamma.sum(axis=1, keepdims=True)
    resp = Responsibilities(gamma)
    X = _blobs(seed, n=(80, 80, 80))
    assert _leaves(mixture.gmm_m_step(X, resp)) == _leaves(ref_gmm_m_step(X, resp))
    C = _codes(seed)
    n_cat = [int(c) + 1 for c in C.max(axis=0)]
    assert _leaves(mixture.lca_m_step(C, resp)) == _leaves(ref_lca_m_step(C, resp, n_cat))


@pytest.mark.parametrize("seed", SEEDS)
def test_posterior_normalisers_match_reference(seed):
    g = np.random.default_rng(seed)
    lj = g.normal(scale=30.0, size=(50, 4))
    lj[3] = -np.inf
    lj[3, 2] = -5.0
    got = mixture._responsibilities(lj)
    want = ref_responsibilities(lj)
    assert got.gamma.tobytes() == want.gamma.tobytes() and got.loglik == want.loglik

    params = irt.IrtParams(g.uniform(0.5, 2.0, 6), g.normal(size=6))
    X = (g.uniform(size=(40, 6)) < 0.5).astype(int)
    quad = irt.default_quadrature(21)
    (gamma, ll), (ref_gamma, ref_ll) = irt._node_posteriors(params, X, quad), \
        ref_node_posteriors(params, X, quad)
    assert gamma.tobytes() == ref_gamma.tobytes() and ll == ref_ll

    hmm = HmmParams([0.5, 0.3, 0.2], g.dirichlet(np.ones(3), size=3),
                    DiscreteEmission(g.dirichlet(np.ones(5), size=3)))
    post = sequential.hmm_infer(hmm, _ragged(seed, True), smooth=False)
    got, want = sequential._hmm_backward(post), ref_hmm_backward(post)
    assert got.gamma.tobytes() == want.gamma.tobytes()
    assert got.log_beta.tobytes() == want.log_beta.tobytes()


def test_gaussian_emission_columns_match_per_state_rows():
    g = np.random.default_rng(5)
    means = g.normal(size=(3, 2))
    covs = np.stack([np.eye(2) * s for s in (0.5, 1.0, 2.0)])
    X = g.normal(size=(30, 2))
    want = np.column_stack([ref_gaussian_logpdf_rows(X, m, c) for m, c in zip(means, covs)])
    assert GaussianEmission(means, covs).log_liks(X).tobytes() == want.tobytes()


def test_explicit_sizes_below_the_data_codes_are_errors():
    # the starts take their row width from the data's frequencies, so a
    # smaller explicit size is rejected before any draw
    cfg = EmConfig(max_iters=2)
    with pytest.raises(ValueError, match="out of range"):
        sequential.hmm_fit([np.array([0, 1, 2, 3])], 2, "discrete", cfg, n_symbols=3)
    with pytest.raises(ValueError, match="out of range"):
        mixture.fit_lca(_codes(0), 2, cfg, n_categories=[2, 2, 3, 2])


# ---------------------------------------------------------------------------
# Row blocks

def _block_rows(row_bytes):
    """Rows of one full block for rows of row_bytes bytes."""
    return max(core.MIN_BLOCK_ROWS, core.ROW_BLOCK_BYTES // row_bytes)


def _boundary_sizes(B):
    """Row counts around the block boundaries: a single row, one block short
    of, at and past its size, the shortest separate tail and one row less
    (which joins the block before it), and two blocks plus a short tail."""
    m = core.MIN_BLOCK_ROWS
    return sorted({1, B - 1, B, B + 1, B + m - 1, B + m, 2 * B + 3})


def _gaussians(g, K, d):
    means = 3.0 * g.normal(size=(K, d))
    A = g.normal(size=(K, d, d))
    return means, A @ A.transpose(0, 2, 1) + 0.5 * np.eye(d)


def test_row_blocks_cover_the_rows_with_no_short_tail():
    m = core.MIN_BLOCK_ROWS
    for row_bytes in (8, 40, 320, 10 ** 9):
        B = _block_rows(row_bytes)
        for n in [0, 1, m - 1] + _boundary_sizes(B):
            blocks = core.row_blocks(n, row_bytes)
            assert [b.start for b in blocks[1:]] == [b.stop for b in blocks[:-1]]
            assert blocks[0].start == 0 and blocks[-1].stop == n
            sizes = [b.stop - b.start for b in blocks]
            assert max(sizes) < B + m and (len(sizes) == 1 or min(sizes) >= m)


@pytest.mark.parametrize("d", [1, 3, 8, 33])
@pytest.mark.parametrize("K", [1, 3, 9])
def test_gaussian_columns_match_per_column_loop_at_block_boundaries(K, d):
    g = np.random.default_rng(100 * K + d)
    means, covs = _gaussians(g, K, d)
    for N in _boundary_sizes(_block_rows(K * d * 8)):
        X = 4.0 * g.normal(size=(N, d))
        got = core.gaussian_logpdf_columns(X, means, covs)
        assert got.tobytes() == ref_gaussian_logpdf_columns(X, means, covs).tobytes(), N
        rows = core.gaussian_logpdf_rows(X, means[-1], covs[-1])
        assert rows.tobytes() == ref_gaussian_logpdf_rows(X, means[-1], covs[-1]).tobytes()


@pytest.mark.parametrize("K", [1, 2, 3, 9, 41])
def test_log_sum_exp_rows_matches_row_max_reference(K):
    g = np.random.default_rng(K)
    mat = g.normal(scale=20.0, size=(300, K))
    # zero maxima of either sign, ties, and rows wholly or partly -inf
    mat[:40] = g.choice([0.0, -0.0, -np.inf, -1.0], size=(40, K))
    mat[40] = -np.inf
    mat[41, :] = 3.0
    got, want = log_sum_exp_rows(mat), ref_log_sum_exp_rows(mat)
    assert got.tobytes() == want.tobytes()
    cube = mat.reshape(3, 100, K)
    assert log_sum_exp_rows(cube).tobytes() == ref_log_sum_exp_rows(cube).tobytes()


@pytest.mark.parametrize("K", [1, 3, 9])
def test_posterior_rows_match_reference_at_block_boundaries(K):
    g = np.random.default_rng(K)
    B = _block_rows(K * 8)
    for N in _boundary_sizes(B):
        lj = g.normal(scale=30.0, size=(N, K))
        # rows wholly -inf (no support) and partly -inf, at block edges
        for i in {0, B - 1, B, N - 1} & set(range(N)):
            lj[i] = -np.inf
            lj[i, i % K] = -700.0 if i % 2 else 5.0
        lj[N // 2] = -np.inf
        with np.errstate(invalid="ignore"):
            got, want = core.normalize_log_rows(lj), ref_normalize_log_rows(lj)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()
        # the log-likelihood sums the whole (N,) lse array at once
        lj[N // 2, 0] = 0.0
        got, want = mixture._responsibilities(lj), ref_responsibilities(lj)
        assert got.gamma.tobytes() == want.gamma.tobytes()
        assert np.float64(got.loglik).tobytes() == np.float64(want.loglik).tobytes()


@pytest.mark.parametrize("d", [1, 3, 8])
@pytest.mark.parametrize("K", [1, 3, 9])
def test_weighted_gaussians_match_reference(K, d):
    g = np.random.default_rng(10 * K + d)
    for N in _boundary_sizes(_block_rows(K * d * 8)):
        X = g.normal(size=(N, d)) + 2.0
        gamma = g.dirichlet(np.ones(K), size=N)
        counts = gamma.sum(axis=0)
        got = mixture._weighted_gaussians(X, gamma, counts, mixture._var_floor(X))
        want = ref_weighted_gaussians(X, gamma, counts)
        assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def _lca_case(g, N, K, n_categories):
    tables = tuple(g.dirichlet(np.ones(C), size=K) for C in n_categories)
    tables[0][:, -1] = 0.0        # a zero probability: a -inf log term
    tables = tuple(t / t.sum(axis=1, keepdims=True) for t in tables)
    params = LcaParams(g.dirichlet(np.ones(K)), tables)
    X = np.column_stack([g.integers(0, C, N) for C in n_categories])
    return params, X


@pytest.mark.parametrize("K", [1, 3, 9])
def test_lca_log_joint_and_tables_match_reference(K):
    g = np.random.default_rng(K)
    n_categories = [2, 5, 3, 7, 1]          # unequal C_j
    for N in _boundary_sizes(_block_rows(K * 8)):
        params, X = _lca_case(g, N, K, n_categories)
        got, want = mixture._lca_log_joint(params, X), ref_lca_log_joint(params, X)
        assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
        resp = mixture.lca_e_step(params, X)
        assert resp.gamma.tobytes() == ref_responsibilities(want).gamma.tobytes()
        counts = resp.gamma.sum(axis=0)
        m = mixture.lca_m_step(X, resp, n_categories=n_categories)
        tables = m[0].item_probs if isinstance(m, tuple) else m.item_probs
        for t, w in zip(tables, ref_item_tables(X, resp.gamma, counts, n_categories)):
            assert t.tobytes() == w.tobytes()


def _count_calls(monkeypatch, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(mixture, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(mixture, name, counting)
    return calls


def test_fits_call_each_traced_step_once_per_phase(monkeypatch):
    # fit_lca's E-step is the log joint and normaliser on codes checked once
    calls = _count_calls(monkeypatch, ["gmm_e_step", "gmm_m_step", "_lca_log_joint",
                                       "lca_m_step"])
    cfg = EmConfig(max_iters=6, seed=0)
    _params, report = mixture.fit_gmm(_blobs(0), 3, cfg)
    _params, lca_report = mixture.fit_lca(_codes(0), 2, cfg)
    assert calls == {"gmm_e_step": report.iters + 1, "gmm_m_step": report.iters,
                     "_lca_log_joint": lca_report.iters + 1, "lca_m_step": lca_report.iters}


@pytest.mark.parametrize("seed", SEEDS)
def test_fit_lca_checks_the_codes_once(monkeypatch, seed):
    X = _codes(seed)
    cfg = EmConfig(max_iters=40, seed=seed)
    calls = _count_calls(monkeypatch, ["_check_lca_data", "lca_e_step"])
    got = mixture.fit_lca(X, 2, cfg)
    assert got[1].iters > 1
    assert calls == {"_check_lca_data": 1, "lca_e_step": 0}
    assert_same_fit(got, ref_fit_lca(X, 2, cfg))
    # the public steps still check every call
    mixture.lca_e_step(got[0], X)
    mixture.lca_loglik_rows(got[0], X)
    assert calls == {"_check_lca_data": 3, "lca_e_step": 1}
    bad = X.copy()
    bad[0, 0] = got[0].item_probs[0].shape[1]
    with pytest.raises(ValueError, match="out of range"):
        mixture.lca_e_step(got[0], bad)


def test_lca_m_step_holds_one_item_one_hot_at_a_time():
    g = np.random.default_rng(0)
    N, J, C = 5000, 40, 5
    X = g.integers(0, C, size=(N, J))
    resp = Responsibilities(g.dirichlet(np.ones(3), size=N))
    all_one_hots = N * J * C * 8          # 8 MB
    tracemalloc.start()
    try:
        mixture.lca_m_step(X, resp, n_categories=[C] * J)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < all_one_hots / 8
