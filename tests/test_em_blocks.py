"""The mixtures, 2PL IRT and both HMMs share one set of EM building blocks:
posterior normalisation, Gaussian columns, the seeded starts, the weighted
M-steps, the probability floor and the empty-component rescue. This file
holds the per-model code those blocks replaced, copied as it was written
before they were shared, and checks every fit against it: the same
iteration counts, convergence flags and rescue events (which name the
re-seeded rows), fitted parameter arrays within 1e-12 of each array's
largest absolute entry, and objective traces and final objectives within
1e-13 relative. The HMM copy still holds the HMM's own empty-state rules;
the HMM now re-seeds by the mixtures' rule instead, so its stuck starts are
checked by that rule's own terms, not against the copy.

The fits are not bit for bit the copies', for two reasons. The posterior
normaliser exponentiates each entry once and divides by the row sums that
its log-normaliser already took, where the copies exponentiate again after
subtracting the log-normaliser; its probabilities agree within 1e-15
absolute. The weighted covariances sum their scatter over fixed chunks of
mixture.SCATTER_CHUNK_ROWS rows, where the copies take one product over all
rows; they agree within the parameter tolerance, and byte for byte on one
chunk. Everything else keeps the copies' bytes: the log-normalisers (and so
every log-likelihood and E-step objective at given parameters),
log_sum_exp_rows, the row softmax, the Gaussian columns, the LCA log joint,
the means, and the LCA item tables given the same responsibilities.

The flat-EM kernels now run in row blocks with reused buffers. The whole-
array kernels they replaced are copied here too, and compared at the block
boundaries, by bytes or by the tolerances above. fit_lca holds its codes
item-major, so the LCA cases run on the same codes in C order, in Fortran
order and as a strided slice.
"""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from latentlab import core, irt, mixture, sequential
from latentlab.core import NumericError, RandomSource, chol_psd, log_sum_exp_rows
from latentlab.em import EmConfig, run_em
from latentlab.mixture import GmmParams, LcaParams, Responsibilities, _cov_floor
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


def ref_farthest_point_means(X, K, rng):
    """Greedy farthest-point sweep from a seeded start; deterministic."""
    N = X.shape[0]
    first = int(rng.integers(0, N))
    chosen = [first]
    dist = np.sum((X - X[first]) ** 2, axis=1)
    for _ in range(1, K):
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.sum((X - X[nxt]) ** 2, axis=1))
    return X[chosen].copy()


def ref_softmax_rows(log_rows):
    out = np.subtract(log_rows, log_rows.max(axis=-1, keepdims=True))
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def ref_normalize_log_rows(log_rows):
    lse = ref_log_sum_exp_rows(log_rows)
    probs = log_rows - lse[:, None]
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=1, keepdims=True)
    return probs, lse


def ref_lca_log_joint(params, X):
    N = X.shape[0]
    with np.errstate(divide="ignore"):
        out = np.tile(np.log(params.weights), (N, 1))
        for j, table in enumerate(params.item_probs):
            out += np.log(table)[:, X[:, j]].T
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
    with np.errstate(divide="ignore"):
        log_w = np.log(params.weights)
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
        means = ref_farthest_point_means(X, K, rng)
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
        means = ref_farthest_point_means(X, K, rng)
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
# Comparison

PROB_ATOL = 1e-15           # posterior probabilities, absolute
PARAM_TOL = 1e-12           # fitted arrays, of each array's largest absolute entry
OBJECTIVE_RTOL = 1e-13      # objective traces and final objectives, relative


def _arrays(obj):
    """Every array and scalar of a params object, depth first."""
    if dataclasses.is_dataclass(obj):
        return [x for f in dataclasses.fields(obj) for x in _arrays(getattr(obj, f.name))]
    if isinstance(obj, (tuple, list)):
        return [x for item in obj for x in _arrays(item)]
    return [np.asarray(obj)]


def _leaves(obj):
    """The dtype, shape and bytes of every array and scalar of obj."""
    return [(a.dtype.str, a.shape, a.tobytes()) for a in _arrays(obj)]


def assert_close_arrays(got, want):
    """Arrays of one dtype and shape, each within PARAM_TOL of its largest
    absolute entry."""
    assert (got.dtype, got.shape) == (want.dtype, want.shape)
    assert np.max(np.abs(got - want), initial=0.0) <= PARAM_TOL * np.max(np.abs(want), initial=0.0)


def assert_close_fit(got, want):
    (p_got, r_got), (p_want, r_want) = got, want
    assert r_got.iters == r_want.iters
    assert r_got.converged == r_want.converged
    assert r_got.events == r_want.events
    assert type(p_got) is type(p_want)
    leaves_got, leaves_want = _arrays(p_got), _arrays(p_want)
    assert len(leaves_got) == len(leaves_want)
    for a, b in zip(leaves_got, leaves_want):
        assert_close_arrays(a, b)
    np.testing.assert_allclose(r_got.objective_trace, r_want.objective_trace,
                               rtol=OBJECTIVE_RTOL, atol=0)
    np.testing.assert_allclose(r_got.final_objective, r_want.final_objective,
                               rtol=OBJECTIVE_RTOL, atol=0)


def assert_close_probs(got, want):
    """Posterior rows within PROB_ATOL, with NaN (a row with no support)
    where want has it, of the same bytes."""
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[nan].tobytes() == want[nan].tobytes()
    assert np.max(np.abs(got[~nan] - want[~nan]), initial=0.0) <= PROB_ATOL


def _blobs(seed, n=(90, 60, 40)):
    g = np.random.default_rng(seed)
    return np.concatenate([g.normal(size=(m, 3)) + 3.0 * c for c, m in enumerate(n)])


def _codes(seed, N=240):
    g = np.random.default_rng(seed)
    z = g.integers(0, 2, N)
    return np.column_stack([(g.uniform(size=N) < 0.2 + 0.6 * z).astype(int),
                            g.integers(0, 3, N) * z, g.integers(0, 4, N),
                            (g.uniform(size=N) < 0.7 - 0.4 * z).astype(int)])


LAYOUTS = ("C", "F", "slice")


def _in_layout(X, layout):
    """X as a C-ordered array, a Fortran-ordered one or a strided slice."""
    if layout == "C":
        out = np.ascontiguousarray(X)
    elif layout == "F":
        out = np.asfortranarray(X)
    else:
        out = np.repeat(X, 2, axis=1)[:, ::2]
    assert np.array_equal(out, X)
    assert layout != "slice" or not (out.flags.c_contiguous or out.flags.f_contiguous)
    return out


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
    assert_close_fit(mixture.fit_gmm(X, K, cfg), ref_fit_gmm(X, K, cfg))


@pytest.mark.parametrize("seed", SEEDS)
def test_gmm_rescue_matches_reference(seed):
    X = _blobs(seed)
    far = GmmParams([0.5, 0.5], [[0.0, 0.0, 0.0], [1e3, 1e3, 1e3]], [np.eye(3)] * 2)
    cfg = EmConfig(max_iters=10, seed=seed)
    got = mixture.fit_gmm(X, 2, cfg, init=far)
    assert got[1].events[0] == "component 1 empty; re-seeded at data point 0"
    assert_close_fit(got, ref_fit_gmm(X, 2, cfg, init=far))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("K", [1, 2, 3])
def test_lca_fit_matches_reference(seed, K):
    X = _codes(seed)
    cfg = EmConfig(max_iters=40, seed=seed)
    want = ref_fit_lca(X, K, cfg)
    for layout in LAYOUTS:
        assert_close_fit(mixture.fit_lca(_in_layout(X, layout), K, cfg), want)


@pytest.mark.parametrize("seed", SEEDS)
def test_lca_rescue_matches_reference(seed):
    X = _codes(seed)
    tables = tuple(np.full((2, int(c) + 1), 1.0 / (int(c) + 1)) for c in X.max(axis=0))
    init = LcaParams([1.0, 0.0], tables)
    cfg = EmConfig(max_iters=10, seed=seed)
    want = ref_fit_lca(X, 2, cfg, init=init)
    for layout in LAYOUTS:
        got = mixture.fit_lca(_in_layout(X, layout), 2, cfg, init=init)
        assert got[1].events[0] == "class 1 empty; re-seeded at data point 0"
        assert_close_fit(got, want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
@pytest.mark.parametrize("K", [1, 3])
def test_hmm_fit_matches_reference(seed, kind, K):
    obs = _ragged(seed, kind == "discrete")
    cfg = EmConfig(max_iters=25, seed=seed)
    assert_close_fit(sequential.hmm_fit(obs, K, kind, cfg), ref_hmm_fit(obs, K, kind, cfg))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
def test_hmm_rescue_matches_reference(seed, kind):
    # The copies' HMM rescue rules (a uniform emission row, a pooled-point
    # loop) are gone: an empty state is re-seeded by the mixtures' rule, so
    # this checks that rule's own terms. Every row is certain in state 0, so
    # every row ties and input point 0 is taken; pi then comes from the
    # re-seeded marginals, so state 1 is reachable.
    obs = _ragged(seed, kind == "discrete")
    cfg = EmConfig(max_iters=5, seed=seed)
    params, report = sequential.hmm_fit(obs, 2, kind, cfg, init=_stuck_hmm(kind))
    assert report.events == ["state 1 empty; re-seeded at data point 0"]
    assert params.pi[1] > 0
    trace = np.concatenate(([sequential.hmm_loglik(_stuck_hmm(kind), obs)],
                            report.objective_trace))
    assert np.all(np.diff(trace) >= -1e-8)
    assert report.final_objective == sequential.hmm_loglik(params, obs)


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
    want = ref_lca_m_step(C, resp, n_cat)
    for layout in LAYOUTS:
        assert _leaves(mixture.lca_m_step(_in_layout(C, layout), resp)) == _leaves(want)


@pytest.mark.parametrize("seed", SEEDS)
def test_posterior_normalisers_match_reference(seed):
    g = np.random.default_rng(seed)
    lj = g.normal(scale=30.0, size=(50, 4))
    lj[3] = -np.inf
    lj[3, 2] = -5.0
    got = mixture._responsibilities(lj)
    want = ref_responsibilities(lj)
    assert_close_probs(got.gamma, want.gamma)
    assert np.float64(got.loglik).tobytes() == np.float64(want.loglik).tobytes()

    params = irt.IrtParams(g.uniform(0.5, 2.0, 6), g.normal(size=6))
    X = (g.uniform(size=(40, 6)) < 0.5).astype(int)
    quad = irt.default_quadrature(21)
    (gamma, ll), (ref_gamma, ref_ll) = irt._node_posteriors(params, X, quad), \
        ref_node_posteriors(params, X, quad)
    assert_close_probs(gamma, ref_gamma)
    assert np.float64(ll).tobytes() == np.float64(ref_ll).tobytes()

    hmm = HmmParams([0.5, 0.3, 0.2], g.dirichlet(np.ones(3), size=3),
                    DiscreteEmission(g.dirichlet(np.ones(5), size=3)))
    post = sequential.hmm_infer(hmm, _ragged(seed, True), smooth=False)
    got, want = sequential._hmm_backward(post), ref_hmm_backward(post)
    assert_close_probs(got.gamma, want.gamma)
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


@pytest.mark.parametrize("K", [1, 2, 3, 9, 41, 8, 16, 128, 129])
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


@pytest.mark.parametrize("K", [1, 3, 9, 8, 16, 41, 128, 129])
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
        assert_close_probs(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        # the log-likelihood sums the whole (N,) lse array at once
        lj[N // 2, 0] = 0.0
        got, want = mixture._responsibilities(lj), ref_responsibilities(lj)
        assert_close_probs(got.gamma, want.gamma)
        assert np.float64(got.loglik).tobytes() == np.float64(want.loglik).tobytes()


def _switch_sizes(B, terms, per_row=1):
    """Row counts on both sides of the switches to column passes of row_max
    and row_sums at terms terms, for blocks of per_row rows of the helpers
    per row, and around the block boundaries for blocks of B rows."""
    switches = {-(-p * terms // per_row) for p in (core.MAX_PASS_ROWS_PER_TERM,
                                                   core.SUM_PASS_ROWS_PER_TERM)}
    return sorted({n + i for n in switches for i in (-1, 0, 1)} | set(_boundary_sizes(B)) - {1})


@pytest.mark.parametrize("K", [2, 5, 8, 12, 15, 16, 41, 128, 129])
def test_row_kernels_match_references_across_the_column_switch(K):
    g = np.random.default_rng(K)
    for N in _switch_sizes(_block_rows(K * 8), K):
        lj = g.normal(scale=30.0, size=(N, K))
        lj[::7, ::2] = -np.inf             # rows partly -inf
        lj[3::11] = g.choice([0.0, -0.0, 1.0], size=(len(lj[3::11]), K))   # ties, signed zeros
        assert log_sum_exp_rows(lj).tobytes() == ref_log_sum_exp_rows(lj).tobytes(), N
        assert core.normalize_log_rows(lj)[0].tobytes() == ref_softmax_rows(lj).tobytes(), N
        lj[5::13] = -np.inf                # rows with no support
        with np.errstate(invalid="ignore"):
            got, want = core.normalize_log_rows(lj), ref_normalize_log_rows(lj)
        assert_close_probs(got[0], want[0])
        assert got[1].tobytes() == want[1].tobytes()
        # the probabilities come from the normaliser's own exponentials, and
        # its log-normalisers are log_sum_exp_rows' bytes
        assert got[1].tobytes() == log_sum_exp_rows(lj).tobytes(), N
        assert np.all(got[1][5::13] == -np.inf) and np.all(np.isnan(got[0][5::13]))


@pytest.mark.parametrize("d", [2, 8, 12, 15, 16])
@pytest.mark.parametrize("K", [1, 3])
def test_gaussian_columns_match_reference_across_the_column_switch(K, d):
    g = np.random.default_rng(10 * K + d)
    means, covs = _gaussians(g, K, d)
    for N in _switch_sizes(_block_rows(K * d * 8), d, per_row=K):
        X = 4.0 * g.normal(size=(N, d))
        got = core.gaussian_logpdf_columns(X, means, covs)
        assert got.tobytes() == ref_gaussian_logpdf_columns(X, means, covs).tobytes(), N


@pytest.mark.parametrize("d", [1, 3, 8, 33])
@pytest.mark.parametrize("K", [1, 3, 5])
def test_farthest_point_means_match_reference(K, d):
    g = np.random.default_rng(10 * K + d)
    for N in _switch_sizes(_block_rows(d * 8), d) + [1]:
        X = 3.0 * g.normal(size=(N, d))
        got = mixture._farthest_point_means(X, K, RandomSource(N).split(101))
        want = ref_farthest_point_means(X, K, RandomSource(N).split(101))
        assert got.tobytes() == want.tobytes(), N


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
        assert got[0].tobytes() == want[0].tobytes()
        assert_close_arrays(got[1], want[1])
        if N <= mixture.SCATTER_CHUNK_ROWS:
            assert got[1].tobytes() == want[1].tobytes()


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
        want = ref_lca_log_joint(params, X)
        # no class emits the last code of item 0: those rows have no support
        kept = X[:, 0] != n_categories[0] - 1
        for layout in LAYOUTS:
            codes = _in_layout(X, layout)
            got = mixture._lca_log_joint(params, codes)
            assert got.flags.c_contiguous and got.tobytes() == want.tobytes()
            if not np.all(kept):
                first = f"^zero-probability data point {np.argmin(kept)}: no class explains it$"
                with pytest.raises(NumericError, match=first):
                    mixture.lca_e_step(params, codes)
            if not np.any(kept):
                continue
            codes = _in_layout(X[kept], layout)
            resp = mixture.lca_e_step(params, codes)
            assert_close_probs(resp.gamma, ref_responsibilities(want[kept]).gamma)
            counts = resp.gamma.sum(axis=0)
            m = mixture.lca_m_step(codes, resp, n_categories=n_categories)
            tables = m[0].item_probs if isinstance(m, tuple) else m.item_probs
            for t, w in zip(tables, ref_item_tables(X[kept], resp.gamma, counts, n_categories)):
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
    assert_close_fit(got, ref_fit_lca(X, 2, cfg))
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


def test_lca_m_step_sets_one_hots_without_an_identity():
    # one code of 20000 among 6 rows: an identity of the item's width would
    # take 3.2 GB, the item's one-hot rows take 0.96 MB
    N, C = 6, 20001
    X = np.zeros((N, 2), dtype=int)
    X[:, 1] = [0, 1, 0, 1, 1, 0]
    X[3, 0] = C - 1
    resp = Responsibilities(np.random.default_rng(1).dirichlet(np.ones(2), size=N))
    tracemalloc.start()
    try:
        got = mixture.lca_m_step(X, resp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * N * C * 8
    want = ref_lca_m_step(X, resp, [C, 2])
    assert _leaves(got) == _leaves(want)
    for layout in LAYOUTS:
        assert _leaves(mixture.lca_m_step(_in_layout(X, layout), resp)) == _leaves(want)

