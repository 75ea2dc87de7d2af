import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_utils import (enumerate_hmm_log_posteriors, enumerate_hmm_posteriors,
                          gaussian_condition, gaussian_logpdf, sample_categorical,
                          sample_gaussian, stacked_joint)
from latentlab import sequential
from latentlab.core import Gaussian, NumericError, RandomSource, Simplex
from latentlab.em import EmConfig
from latentlab.sequential import (DiscreteEmission, GaussianEmission,
                                  HmmParams, LdsParams, SequencePack, hmm_fit,
                                  hmm_forward_backward, hmm_infer, hmm_loglik,
                                  hmm_sample, kalman_filter, kalman_smooth,
                                  lds_fit, lds_infer, lds_loglik, lds_sample,
                                  canonical_state_order)


def _random_hmm(seed, K=3, S=4):
    rng = RandomSource(seed)
    pi = rng.uniform(K) + 0.2
    pi /= pi.sum()
    A = rng.uniform((K, K)) + 0.2
    A /= A.sum(axis=1, keepdims=True)
    B = rng.uniform((K, S)) + 0.2
    B /= B.sum(axis=1, keepdims=True)
    return HmmParams(pi, A, DiscreteEmission(B))


def _enumerate_posteriors(params, obs):
    """Brute-force path enumeration oracle (linear domain)."""
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


# -- forward-backward ------------------------------------------------------------

def test_fb_single_state():
    B = np.array([[0.2, 0.8]])
    params = HmmParams([1.0], [[1.0]], DiscreteEmission(B))
    obs = [0, 1, 1, 0]
    sm = hmm_forward_backward(params, obs)
    assert np.allclose(sm.states, 1.0)
    expected = sum(math.log(B[0, o]) for o in obs)
    assert sm.loglik == pytest.approx(expected, abs=1e-12)


def test_fb_t1_bayes_rule():
    params = HmmParams([0.5, 0.5], np.eye(2),
                       DiscreteEmission([[0.9, 0.1], [0.4, 0.6]]))
    sm = hmm_forward_backward(params, [0])
    post = np.array([0.5 * 0.9, 0.5 * 0.4])
    post /= post.sum()
    assert np.allclose(sm.states[0], post, atol=1e-12)


def test_fb_matches_enumeration():
    params = _random_hmm(0)
    obs = RandomSource(1).integers(0, 4, 6)
    sm = hmm_forward_backward(params, obs)
    marg, pair, ll = _enumerate_posteriors(params, obs)
    assert np.allclose(sm.states, marg, atol=1e-10)
    assert np.allclose(sm.pairwise, pair, atol=1e-10)
    assert sm.loglik == pytest.approx(ll, abs=1e-10)


def test_fb_pairwise_consistency():
    params = _random_hmm(2)
    obs = RandomSource(3).integers(0, 4, 10)
    sm = hmm_forward_backward(params, obs)
    for t in range(len(obs) - 1):
        assert np.allclose(sm.pairwise[t].sum(axis=1), sm.states[t], atol=1e-10)
        assert np.allclose(sm.pairwise[t].sum(axis=0), sm.states[t + 1], atol=1e-10)


def test_fb_impossible_sequence_errors():
    params = HmmParams([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
                       DiscreteEmission([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(NumericError):
        hmm_forward_backward(params, [1])


def test_fb_gaussian_emissions_match_enumeration():
    rng = RandomSource(4)
    means = np.array([[-1.0], [2.0]])
    covs = np.array([[[0.5]], [[1.5]]])
    params = HmmParams([0.6, 0.4], [[0.7, 0.3], [0.2, 0.8]],
                       GaussianEmission(means, covs))
    obs = rng.standard_normal((5, 1))
    sm = hmm_forward_backward(params, obs)
    # enumeration with Gaussian emission densities
    K, T = 2, 5
    dens = np.array([[math.exp(gaussian_logpdf(obs[t], Gaussian(means[k], covs[k])))
                      for k in range(K)] for t in range(T)])
    total = 0.0
    marg = np.zeros((T, K))
    for path in itertools.product(range(K), repeat=T):
        p = params.pi[path[0]] * dens[0, path[0]]
        for t in range(1, T):
            p *= params.trans[path[t - 1], path[t]] * dens[t, path[t]]
        total += p
        for t in range(T):
            marg[t, path[t]] += p
    assert np.allclose(sm.states, marg / total, atol=1e-10)
    assert sm.loglik == pytest.approx(math.log(total), abs=1e-10)


# -- Baum-Welch ---------------------------------------------------------------------

def test_hmm_fit_single_state():
    obs = [np.array([0, 1, 1, 0, 1, 1, 1, 0])]
    params, _report = hmm_fit(obs, 1, "discrete", EmConfig(seed=0))
    assert np.allclose(params.trans, [[1.0]])
    assert np.allclose(params.emit.probs[0], [3 / 8, 5 / 8], atol=1e-9)


def test_hmm_fit_recovers_planted_chain():
    true = HmmParams([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],
                     DiscreteEmission([[0.9, 0.1], [0.1, 0.9]]))
    _states, obs = hmm_sample(true, 2000, RandomSource(5))
    params, report = hmm_fit([obs], 2, "discrete", EmConfig(seed=5, max_iters=300))
    # align states by emission similarity
    if params.emit.probs[0, 0] < params.emit.probs[1, 0]:
        perm = [1, 0]
        A = params.trans[np.ix_(perm, perm)]
    else:
        A = params.trans
    assert np.all(np.abs(A - true.trans) < 0.05)
    assert np.all(np.diff(report.objective_trace) >= -1e-8)


def test_hmm_fit_fixed_point_after_convergence():
    # initialization at the truth converges in a handful of iterations to a
    # nearby optimum, at which one further sweep changes the objective by
    # less than 1e-6
    true = HmmParams([0.5, 0.5], [[0.8, 0.2], [0.3, 0.7]],
                     DiscreteEmission([[0.95, 0.05], [0.1, 0.9]]))
    _states, obs = hmm_sample(true, 1000, RandomSource(6))
    fitted, report = hmm_fit([obs], 2, "discrete",
                             EmConfig(seed=6, rel_tol=1e-12, max_iters=500), init=true)
    assert report.converged
    _fitted2, report2 = hmm_fit([obs], 2, "discrete",
                                EmConfig(seed=6, max_iters=1), init=fitted)
    assert abs(report2.final_objective - report.final_objective) < 1e-6


def test_hmm_fit_gaussian_emissions():
    true = HmmParams([0.5, 0.5], [[0.85, 0.15], [0.1, 0.9]],
                     GaussianEmission([[-3.0], [3.0]], [[[0.5]], [[0.5]]]))
    _states, obs = hmm_sample(true, 1500, RandomSource(7))
    params, report = hmm_fit([obs], 2, "gaussian", EmConfig(seed=7, max_iters=200))
    means = np.sort(params.emit.means[:, 0])
    assert np.allclose(means, [-3.0, 3.0], atol=0.15)
    assert np.all(np.diff(report.objective_trace) >= -1e-8)


@pytest.mark.parametrize("kind, event", [
    ("discrete", "state 1 empty; emissions reset to uniform"),
    ("gaussian", "state 1 empty; re-seeded at pooled point 0"),
])
def test_hmm_fit_reports_empty_state_rescue(kind, event):
    # pi = [1, 0] with trans = I never visits state 1
    if kind == "discrete":
        obs = [np.array([0, 1, 2, 1]), np.array([2, 2, 0])]
        emit = DiscreteEmission(np.full((2, 3), 1.0 / 3.0))
    else:
        rng = RandomSource(3)
        obs = [rng.standard_normal((T, 2)) + 3.0 * ((np.arange(T) // 4) % 2)[:, None]
               for T in (5, 3)]
        emit = GaussianEmission(np.zeros((2, 2)), np.stack([np.eye(2)] * 2))
    init = HmmParams([1.0, 0.0], np.eye(2), emit)
    _params, report = hmm_fit(obs, 2, kind, EmConfig(max_iters=1), init=init)
    assert report.events == ["state 1 saw no transitions; row reset to uniform", event]


def test_hmm_multiple_sequences():
    true = _random_hmm(8, K=2, S=3)
    seqs = [hmm_sample(true, 300, RandomSource(80 + i))[1] for i in range(4)]
    _params, report = hmm_fit(seqs, 2, "discrete", EmConfig(seed=8, max_iters=100))
    assert np.all(np.diff(report.objective_trace) >= -1e-8)


def test_canonical_state_order_discrete():
    params = _random_hmm(9)
    canon = canonical_state_order(params)
    p = canon.emit.probs
    ent = -np.sum(np.where(p > 0, p * np.log(p), 0.0), axis=1)
    assert np.all(np.diff(ent) >= -1e-12)
    obs = RandomSource(10).integers(0, 4, 8)
    assert hmm_forward_backward(canon, obs).loglik == pytest.approx(
        hmm_forward_backward(params, obs).loglik, abs=1e-10)


# -- Kalman filtering/smoothing --------------------------------------------------

def _random_lds(seed, dz=2, dx=2):
    rng = RandomSource(seed)
    A = 0.6 * np.linalg.qr(rng.standard_normal((dz, dz)))[0]
    C = rng.standard_normal((dx, dz))
    Q = 0.3 * np.eye(dz)
    R = 0.2 * np.eye(dx)
    mu0 = rng.standard_normal(dz)
    S0 = 0.7 * np.eye(dz)
    return LdsParams(A, C, Q, R, mu0, S0)


def _stacked_joint(params, T):
    """Joint Gaussian over (z_1..z_T, x_1..x_T) built by linear propagation."""
    dz, dx = params.state_dim, params.obs_dim
    n = T * (dz + dx)
    mean = np.zeros(n)
    cov = np.zeros((n, n))
    # state means and covariances by recursion
    z_means = [params.mu0]
    for _ in range(T - 1):
        z_means.append(params.A @ z_means[-1])
    # Cov(z_s, z_t): forward propagation of the chain covariance
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


def test_filter_uninformative_observations():
    params = _random_lds(11)
    params = LdsParams(params.A, np.zeros((2, 2)), params.Q, params.R,
                       params.mu0, params.Sigma0)
    obs = RandomSource(12).standard_normal((4, 2))
    means, covs, _pm, _pc, ll = kalman_filter(params, obs)
    # prior propagation
    m, P = params.mu0, params.Sigma0
    for t in range(4):
        assert np.allclose(means[t], m, atol=1e-12)
        assert np.allclose(covs[t], P, atol=1e-12)
        m = params.A @ m
        P = params.A @ P @ params.A.T + params.Q
    expected_ll = sum(gaussian_logpdf(x, Gaussian(np.zeros(2), params.R)) for x in obs)
    assert ll == pytest.approx(expected_ll, abs=1e-10)


def test_filter_perfect_observation_limit():
    params = LdsParams(0.9 * np.eye(2), np.eye(2), 0.1 * np.eye(2),
                       1e-14 * np.eye(2), np.zeros(2), np.eye(2))
    obs = RandomSource(13).standard_normal((5, 2))
    means, _covs, _pm, _pc, _ll = kalman_filter(params, obs)
    assert np.allclose(means, obs, atol=1e-6)


def test_filter_matches_stacked_joint():
    params = _random_lds(14)
    T = 5
    _z, obs = lds_sample(params, T, RandomSource(15))
    means, covs, _pm, _pc, ll = kalman_filter(params, obs)
    dz, dx = 2, 2
    for t in range(T):
        sub = _stacked_joint(params, t + 1)
        # condition z_t block on x_{1:t}
        keep = list(range(t * dz, (t + 1) * dz)) + list(range((t + 1) * dz, (t + 1) * (dz + dx)))
        idx = list(range(t * dz, (t + 1) * dz)) + [(t + 1) * dz + j for j in range((t + 1) * dx)]
        sel_mean = sub.mean[idx]
        sel_cov = sub.cov[np.ix_(idx, idx)]
        cond = gaussian_condition(Gaussian(sel_mean, sel_cov), dz, obs[:t + 1].ravel())
        assert np.allclose(means[t], cond.mean, atol=1e-8)
        assert np.allclose(covs[t], cond.cov, atol=1e-8)
    # log-likelihood against the stacked observation marginal
    joint = _stacked_joint(params, T)
    obs_idx = list(range(T * dz, T * (dz + dx)))
    obs_gauss = Gaussian(joint.mean[obs_idx], joint.cov[np.ix_(obs_idx, obs_idx)])
    assert ll == pytest.approx(gaussian_logpdf(obs.ravel(), obs_gauss), abs=1e-8)


def test_smoother_t1_equals_filter():
    params = _random_lds(16)
    obs = RandomSource(17).standard_normal((1, 2))
    means, covs, _pm, _pc, _ll = kalman_filter(params, obs)
    sm = kalman_smooth(params, obs)
    assert np.allclose(sm.means, means, atol=1e-12)
    assert np.allclose(sm.covs, covs, atol=1e-12)


def test_smoother_matches_stacked_joint():
    params = _random_lds(18)
    T = 5
    _z, obs = lds_sample(params, T, RandomSource(19))
    sm = kalman_smooth(params, obs)
    joint = _stacked_joint(params, T)
    dz, dx = 2, 2
    for t in range(T):
        idx = list(range(t * dz, (t + 1) * dz)) + list(range(T * dz, T * (dz + dx)))
        cond = gaussian_condition(Gaussian(joint.mean[idx], joint.cov[np.ix_(idx, idx)]),
                                  dz, obs.ravel())
        assert np.allclose(sm.means[t], cond.mean, atol=1e-8)
        assert np.allclose(sm.covs[t], cond.cov, atol=1e-8)


def test_smoothed_cov_dominated_by_filtered():
    params = _random_lds(20)
    _z, obs = lds_sample(params, 6, RandomSource(21))
    _m, covs_f, _pm, _pc, _ll = kalman_filter(params, obs)
    sm = kalman_smooth(params, obs)
    for t in range(6):
        evals = np.linalg.eigvalsh(covs_f[t] - sm.covs[t])
        assert evals.min() > -1e-10


def test_smoother_prior_marginals_when_blind():
    params = _random_lds(22)
    blind = LdsParams(params.A, np.zeros((2, 2)), params.Q, params.R,
                      params.mu0, params.Sigma0)
    obs = RandomSource(23).standard_normal((4, 2))
    sm = kalman_smooth(blind, obs)
    m, P = blind.mu0, blind.Sigma0
    for t in range(4):
        assert np.allclose(sm.means[t], m, atol=1e-10)
        assert np.allclose(sm.covs[t], P, atol=1e-10)
        m = blind.A @ m
        P = blind.A @ P @ blind.A.T + blind.Q


# -- LDS EM -----------------------------------------------------------------------

def test_lds_fit_recovers_scalar_dynamics():
    true = LdsParams([[0.8]], [[1.0]], [[0.05]], [[0.05]], [0.0], [[1.0]])
    seqs = [lds_sample(true, 400, RandomSource(24 + i))[1] for i in range(3)]
    params, report = lds_fit(seqs, 1, EmConfig(seed=24, max_iters=300))
    assert abs(abs(params.A[0, 0]) - 0.8) < 0.05
    assert np.all(np.diff(report.objective_trace) >= -1e-8)


def test_lds_fit_fixed_point_at_truth():
    # truth is not the finite-sample MLE, but one EM sweep started there
    # never decreases the likelihood and moves it only marginally
    true = LdsParams([[0.7]], [[1.2]], [[0.1]], [[0.2]], [0.5], [[0.4]])
    seqs = [lds_sample(true, 500, RandomSource(26 + i))[1] for i in range(2)]
    ll_true = lds_loglik(true, seqs)
    _fitted, report = lds_fit(seqs, 1, EmConfig(seed=26, max_iters=1), init=true)
    assert report.final_objective >= ll_true - 1e-8
    assert (report.final_objective - ll_true) / abs(ll_true) < 0.01


def test_lds_default_init_smoke():
    # documented quick-fit run: default init (A = 0.5 I, C = I), T = 200,
    # 40 sweeps; EM's tail is slow so convergence is not part of the contract
    true = _random_lds(28)
    _z, obs = lds_sample(true, 200, RandomSource(29))
    import time
    t0 = time.time()
    _params, report = lds_fit([obs], 2, EmConfig(seed=29, max_iters=40))
    assert time.time() - t0 < 1.0
    assert np.all(np.diff(report.objective_trace) >= -1e-8)


def test_lds_single_sequence_holds_sigma0():
    true = _random_lds(30)
    _z, obs = lds_sample(true, 100, RandomSource(31))
    init = _random_lds(32)
    params, _report = lds_fit([obs], 2, EmConfig(seed=32, max_iters=5), init=init)
    assert np.allclose(params.Sigma0, init.Sigma0)
    seqs = [lds_sample(true, 100, RandomSource(33 + i))[1] for i in range(2)]
    params2, _r2 = lds_fit(seqs, 2, EmConfig(seed=33, max_iters=5), init=init)
    assert not np.allclose(params2.Sigma0, init.Sigma0)


def test_lds_fit_rejects_short_sequences():
    with pytest.raises(ValueError):
        lds_fit([np.zeros((1, 2))], 2, EmConfig(seed=0))


# -- packed set-level inference ----------------------------------------------------

def _sequence_rows(post, i):
    """Packed rows of sequence i in time order."""
    offsets = np.concatenate(([0], np.cumsum(post.pack.lengths)))
    return post.pack.index[offsets[i]:offsets[i + 1]]


def _split(pack, packed):
    """A packed array cut into one array per sequence, in input order."""
    return np.split(pack.unpack(packed), np.cumsum(pack.lengths)[:-1])


def test_pack_layout_is_time_major_longest_first():
    pack = SequencePack.build([np.arange(2), np.arange(10, 15), np.arange(20, 23)])
    assert pack.counts.tolist() == [3, 3, 2, 1, 1]
    assert pack.starts.tolist() == [0, 3, 6, 8, 9, 10]
    # step 0 holds the first step of the sequences longest first
    assert pack.data[:3].tolist() == [10, 20, 0]
    assert pack.data[8:].tolist() == [13, 14]
    assert np.array_equal(pack.unpack(pack.data), np.concatenate(
        [np.arange(2), np.arange(10, 15), np.arange(20, 23)]))
    assert [s.tolist() for s in _split(pack, pack.data)] == \
        [[0, 1], [10, 11, 12, 13, 14], [20, 21, 22]]
    assert pack.sums(np.ones(10)).tolist() == [2.0, 5.0, 3.0]
    assert np.array_equal(pack.data[pack.last], [1, 14, 22])
    assert np.array_equal(pack.data[pack.prev] + 1, pack.data[3:])


def test_ragged_hmm_batch_matches_enumeration():
    params = _random_hmm(40, K=3, S=4)
    rng = RandomSource(41)
    lengths = [5, 1, 6, 3, 5, 2]
    seqs = [rng.integers(0, 4, L) for L in lengths]
    post = hmm_infer(params, seqs)
    states = _split(post.pack, post.gamma)
    pairwise = post.pairwise()
    n0 = post.pack.counts[0]
    for i, obs in enumerate(seqs):
        marg, pair, ll = enumerate_hmm_posteriors(params, obs)
        assert np.max(np.abs(states[i] - marg)) < 1e-10
        assert np.max(np.abs(pairwise[_sequence_rows(post, i)[1:] - n0] - pair),
                      initial=0.0) < 1e-10
        assert abs(post.logliks[i] - ll) < 1e-10


def _assert_matches_stacked_joint(params, seqs):
    """Filtered and smoothed moments and log-likelihoods of lds_infer over
    the set seqs, each against conditioning of its dense joint."""
    post = lds_infer(params, seqs)
    dz, dx = params.state_dim, params.obs_dim
    for i, obs in enumerate(seqs):
        T = len(obs)
        rows = _sequence_rows(post, i)
        joint = stacked_joint(params, T)
        for t in range(T):
            idx_f = list(range(t * dz, (t + 1) * dz)) + [T * dz + j for j in range((t + 1) * dx)]
            cond_f = gaussian_condition(Gaussian(joint.mean[idx_f], joint.cov[np.ix_(idx_f, idx_f)]),
                                        dz, obs[:t + 1].ravel())
            assert np.max(np.abs(post.means_f[rows[t]] - cond_f.mean)) < 1e-8
            assert np.max(np.abs(post.covs_f[t] - cond_f.cov)) < 1e-8
            idx_s = list(range(t * dz, (t + 1) * dz)) + list(range(T * dz, T * (dz + dx)))
            cond_s = gaussian_condition(Gaussian(joint.mean[idx_s], joint.cov[np.ix_(idx_s, idx_s)]),
                                        dz, obs.ravel())
            assert np.max(np.abs(post.means[rows[t]] - cond_s.mean)) < 1e-8
            assert np.max(np.abs(post.covs[rows[t]] - cond_s.cov)) < 1e-8
        obs_idx = list(range(T * dz, T * (dz + dx)))
        marginal = Gaussian(joint.mean[obs_idx], joint.cov[np.ix_(obs_idx, obs_idx)])
        assert abs(post.logliks[i] - gaussian_logpdf(obs.ravel(), marginal)) < 1e-8


def test_ragged_lds_batch_matches_stacked_joint():
    params = _random_lds(42)
    rng = RandomSource(43)
    _assert_matches_stacked_joint(params, [lds_sample(params, T, rng)[1] for T in (3, 5, 2)])


@pytest.mark.parametrize("seed", range(3))
def test_lds_with_zero_q_and_sigma0_matches_stacked_joint(seed):
    # every predicted covariance is zero, so the smoother gains come from its
    # pseudo-inverse
    dz, dx = 2 + seed % 2, 2 + seed // 2
    zero = np.zeros((dz, dz))
    params = dataclasses.replace(_random_lds(500 + seed, dz, dx), Q=zero, Sigma0=zero)
    rng = RandomSource(600 + seed)
    _assert_matches_stacked_joint(params, [lds_sample(params, T, rng)[1] for T in (4, 1, 3)])


@pytest.mark.parametrize("seed", range(40))
def test_the_filter_stores_the_predicted_means_it_advanced(seed):
    """The log-likelihood and the RTS pass read pred_means; each step's rows
    must be the bits the filter formed, means_f rows of the step before times
    A^T as one block product (a product over all rows at once rounds apart)."""
    rng = RandomSource(500 + seed)
    dz, dx = (int(v) for v in rng.integers(1, [6, 9]))
    params = _random_lds(seed, dz, dx)
    seqs = [rng.standard_normal((int(T), dx))
            for T in rng.integers(1, 30, int(rng.integers(1, 41)))]
    post = lds_infer(params, seqs, smooth=False)
    counts, starts = post.pack.counts, post.pack.starts
    assert np.array_equal(post.pred_means[:counts[0]],
                          np.broadcast_to(params.mu0, (counts[0], dz)))
    for t in range(len(counts) - 1):
        s, e, n = starts[t], starts[t + 1], counts[t + 1]
        assert post.pred_means[e:e + n].tobytes() == (post.means_f[s:s + n] @ params.A.T).tobytes()


def test_set_e_step_equals_sum_of_single_sequence_calls():
    params = _random_hmm(44, K=3, S=4)
    rng = RandomSource(45)
    seqs = [rng.integers(0, 4, L) for L in (7, 1, 12, 4, 12)]
    post = hmm_infer(params, seqs)
    singles = [hmm_forward_backward(params, o) for o in seqs]
    pair_sum = sum(sm.pairwise.sum(axis=0) for sm in singles if len(sm.pairwise))
    assert np.max(np.abs(post.pairwise_sum() - pair_sum)) < 1e-12
    first = post.gamma[:post.pack.counts[0]].sum(axis=0)
    assert np.max(np.abs(first - sum(sm.states[0] for sm in singles))) < 1e-12
    assert abs(hmm_loglik(params, seqs) - sum(sm.loglik for sm in singles)) < 1e-12

    lparams = _random_lds(46)
    lseqs = [lds_sample(lparams, T, RandomSource(47 + T))[1] for T in (4, 9, 2, 9)]
    lpost = lds_infer(lparams, lseqs)
    smoothed = [kalman_smooth(lparams, o) for o in lseqs]
    assert abs(lds_loglik(lparams, lseqs) - sum(sm.loglik for sm in smoothed)) < 1e-12
    lag_sum = sum(sm.lag_one.sum(axis=0) for sm in smoothed)
    P, M = lpost.covs, lpost.means
    P_step = np.add.reduceat(P, lpost.pack.starts[:-1], axis=0)
    lag_set = (np.einsum("tij,tkj->ik", P_step[1:], lpost.gains)
               + M[lpost.pack.counts[0]:].T @ M[lpost.pack.prev])
    assert np.max(np.abs(lag_set - lag_sum)) < 1e-12


def test_zero_probability_sequence_in_batch_names_index_and_step():
    params = HmmParams([1.0, 0.0], [[1.0, 0.0], [0.0, 1.0]],
                       DiscreteEmission([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5]]))
    seqs = [[0, 1, 0, 1], [1, 1], [0, 0, 1, 2, 0], [1]]
    with pytest.raises(NumericError, match=r"sequence 2\b.*step 3\b"):
        hmm_infer(params, seqs)
    with pytest.raises(NumericError, match=r"sequence 2\b.*step 3\b"):
        hmm_fit(seqs, 2, "discrete", EmConfig(seed=0), init=params)


KERNELS = {"loop": (sequential._forward_loop, sequential._backward_loop),
           "scan": (sequential._forward_scan, sequential._backward_scan)}


def underflow_case():
    """A chain whose likely path runs through a state of prior 1e-300. With
    trans = I there are two paths; the one through state 1 explains the 80
    ones and lies about 1082 nats above the one through state 0."""
    eps = 1e-10
    params = HmmParams([1 - 1e-300, 1e-300], np.eye(2),
                       DiscreteEmission([[1 - eps, eps], [eps, 1 - eps]]))
    obs = np.array([0] * 3 + [1] * 80)
    through_0 = math.log(1 - 1e-300) + 3 * math.log(1 - eps) + 80 * math.log(eps)
    through_1 = math.log(1e-300) + 3 * math.log(eps) + 80 * math.log(1 - eps)
    return params, obs, float(np.logaddexp(through_0, through_1))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_a_state_far_below_the_others_is_kept(kernel):
    params, obs, exact = underflow_case()
    forward, backward = KERNELS[kernel]
    post = backward(forward(params, SequencePack.build([obs])))
    assert abs(exact - (-759.853)) < 1e-3
    assert abs(post.logliks[0] - exact) < 1e-12 * abs(exact)
    assert np.all(np.isfinite(post.gamma)) and np.all(post.gamma >= 0.0)
    assert np.max(np.abs(post.gamma.sum(axis=1) - 1.0)) < 1e-12
    assert np.min(post.gamma[:, 1]) > 1.0 - 1e-12
    assert abs(hmm_forward_backward(params, obs).loglik - exact) < 1e-12 * abs(exact)


def test_baum_welch_through_a_state_far_below_the_others_stays_finite():
    # the first 8 rows' transition normalizers fall below TINY, one of them to 0
    params, obs, exact = underflow_case()
    fitted, report = hmm_fit([obs], 2, "discrete", EmConfig(max_iters=5), init=params)
    trace = report.objective_trace
    assert np.all(np.isfinite(trace)) and trace[0] > exact
    assert np.all(np.diff(trace) >= 0.0)
    assert np.all(np.isfinite(fitted.trans)) and np.all(np.isfinite(fitted.emit.probs))


PROBS = st.sampled_from([0.0, 1e-300, 1e-200, 1e-100, 0.5, 1.0])


@st.composite
def extreme_hmms(draw):
    """K <= 4 states, T <= 8 steps, and probabilities down to 1e-300 and 0."""
    K, S, T = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 8))

    def rows(n, m):
        table = np.array([[draw(PROBS) for _ in range(m)] for _ in range(n)])
        table[np.arange(n), [draw(st.integers(0, m - 1)) for _ in range(n)]] = 1.0
        return table / table.sum(axis=1, keepdims=True)

    params = HmmParams(rows(1, K)[0], rows(K, K), DiscreteEmission(rows(K, S)))
    return params, np.array([draw(st.integers(0, S - 1)) for _ in range(T)])


@settings(deadline=None, max_examples=60)
@given(extreme_hmms())
# the path through state 1 starts 1e-400 below the other, past what a
# float holds, and ends 1e200 above it
@example((HmmParams([1.0, 1e-300], np.eye(2), DiscreteEmission([[1.0, 1e-300], [1e-100, 1.0]])),
          np.array([0, 1, 1])))
# at step 0 the forward message favours state 0 and the backward one state 1,
# each by about 920 nats; state 0 keeps about 0.9 of the posterior
@example((HmmParams([1.0, 1e-300], np.eye(2),
                    DiscreteEmission([[1.0, 1e-300, 1e-100], [5e-101, 0.5, 0.5]])),
          np.array([0, 1, 2])))
def test_extreme_probabilities_give_exact_posteriors_on_both_kernels(case):
    params, obs = case
    log_marg, log_pair, log_ll = enumerate_hmm_log_posteriors(params, obs)
    with np.errstate(all="ignore"):
        try:
            marg, pair, ll = enumerate_hmm_posteriors(params, obs)
        except ValueError:                  # every path's product is 0
            ll = -math.inf
    for forward, backward in KERNELS.values():
        if log_ll == -math.inf:
            with pytest.raises(NumericError, match="zero-probability sequence 0"):
                forward(params, SequencePack.build([obs]))
            continue
        post = backward(forward(params, SequencePack.build([obs])))
        assert np.all(np.isfinite(post.gamma)) and np.all(post.gamma >= 0.0)
        assert np.max(np.abs(post.gamma.sum(axis=1) - 1.0)) < 1e-12
        assert abs(post.logliks[0] - log_ll) < 1e-10 * max(1.0, abs(log_ll))
        assert np.max(np.abs(post.gamma - log_marg)) < 1e-10
        assert np.max(np.abs(post.pairwise() - log_pair), initial=0.0) < 1e-10
        assert np.max(np.abs(post.pairwise_sum() - log_pair.sum(axis=0))) < 1e-10
        # the linear-domain enumeration is exact where its total is a normal float
        if ll > math.log(1e-300):
            assert abs(post.logliks[0] - ll) < 1e-10
            assert np.max(np.abs(post.gamma - marg)) < 1e-10
            assert np.max(np.abs(post.pairwise() - pair), initial=0.0) < 1e-10


@settings(deadline=None, max_examples=30)
@given(st.lists(st.integers(1, 7), min_size=1, max_size=6), st.integers(0, 2**16),
       st.lists(st.tuples(st.integers(0, 1), st.sampled_from([None, 0.0, 1e-300])),
                min_size=2, max_size=2))
def test_packed_kernels_match_single_sequences(lengths, seed, low):
    rng = RandomSource(seed)
    params = _random_hmm(seed, K=2, S=3)
    # one entry per transition row may be 0 or 1e-300, so products fall
    # below TINY on packed blocks that shrink as sequences end
    trans = params.trans.copy()
    for i, (j, p) in enumerate(low):
        if p is not None:
            trans[i, j] = p
    params = HmmParams(params.pi, trans / trans.sum(axis=1, keepdims=True), params.emit)
    seqs = [rng.integers(0, 3, L) for L in lengths]
    post = hmm_infer(params, seqs)
    for i, (obs, states) in enumerate(zip(seqs, _split(post.pack, post.gamma))):
        marg, _pair, ll = enumerate_hmm_posteriors(params, obs)
        assert np.max(np.abs(states - marg)) < 1e-10
        assert abs(post.logliks[i] - ll) < 1e-10
        sm = hmm_forward_backward(params, obs)
        assert np.max(np.abs(states - sm.states)) < 1e-12
        assert np.max(np.abs(post.logliks[i] - sm.loglik)) < 1e-12 * max(1.0, abs(sm.loglik))
    lparams = _random_lds(seed)
    lseqs = [rng.standard_normal((L, 2)) for L in lengths]
    lpost = lds_infer(lparams, lseqs)
    for i, (obs, means, covs) in enumerate(zip(lseqs, _split(lpost.pack, lpost.means),
                                                _split(lpost.pack, lpost.covs))):
        sm = kalman_smooth(lparams, obs)
        assert np.max(np.abs(means - sm.means)) < 1e-12
        assert np.max(np.abs(covs - sm.covs)) < 1e-12
        assert abs(lpost.logliks[i] - sm.loglik) < 1e-12 * max(1.0, abs(sm.loglik))


# -- samplers against the step-by-step draws ----------------------------------------

def _hmm_sample_stepwise(params, T, rng):
    states = np.empty(T, dtype=int)
    states[0] = sample_categorical(Simplex(params.pi), rng)
    for t in range(1, T):
        states[t] = sample_categorical(Simplex(params.trans[states[t - 1]]), rng)
    if isinstance(params.emit, DiscreteEmission):
        obs = np.empty(T, dtype=int)
        for t in range(T):
            obs[t] = sample_categorical(Simplex(params.emit.probs[states[t]]), rng)
    else:
        obs = np.empty((T, params.emit.dim))
        for t in range(T):
            obs[t] = sample_gaussian(Gaussian(params.emit.means[states[t]],
                                              params.emit.covs[states[t]]), rng)
    return states, obs


def _lds_sample_stepwise(params, T, rng):
    Z = np.empty((T, params.state_dim))
    X = np.empty((T, params.obs_dim))
    Z[0] = sample_gaussian(Gaussian(params.mu0, params.Sigma0), rng)
    for t in range(1, T):
        Z[t] = sample_gaussian(Gaussian(params.A @ Z[t - 1], params.Q), rng)
    for t in range(T):
        X[t] = sample_gaussian(Gaussian(params.C @ Z[t], params.R), rng)
    return Z, X


@pytest.mark.parametrize("T", [1, 2, 57])
def test_hmm_sample_matches_stepwise_draws(T):
    gauss = HmmParams([0.3, 0.7, 0.0], [[0.8, 0.2, 0.0], [0.1, 0.6, 0.3], [0.5, 0.0, 0.5]],
                      GaussianEmission([[0.0, 1.0], [2.0, -1.0], [5.0, 5.0]],
                                       [[[1.0, 0.3], [0.3, 0.5]], np.zeros((2, 2)),
                                        [[0.2, 0.0], [0.0, 0.2]]]))
    for params in (_random_hmm(50, K=3, S=5), gauss):
        r_new, r_old = RandomSource(51), RandomSource(51)
        states, obs = hmm_sample(params, T, r_new)
        ref_states, ref_obs = _hmm_sample_stepwise(params, T, r_old)
        assert np.array_equal(states, ref_states)
        if isinstance(params.emit, DiscreteEmission):
            assert np.array_equal(obs, ref_obs)
        else:
            assert np.max(np.abs(obs - ref_obs)) < 1e-12
        assert r_new.uniform() == r_old.uniform()


@pytest.mark.parametrize("T", [1, 2, 40])
def test_lds_sample_matches_stepwise_draws(T):
    base = _random_lds(52, dz=2, dx=3)
    noiseless = LdsParams(base.A, base.C, np.zeros((2, 2)), base.R, base.mu0, np.zeros((2, 2)))
    for params in (base, noiseless):
        r_new, r_old = RandomSource(53), RandomSource(53)
        Z, X = lds_sample(params, T, r_new)
        ref_Z, ref_X = _lds_sample_stepwise(params, T, r_old)
        assert np.max(np.abs(Z - ref_Z)) < 1e-12
        assert np.max(np.abs(X - ref_X)) < 1e-12
        assert r_new.uniform() == r_old.uniform()
