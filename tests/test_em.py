import dataclasses
import math
import re

import numpy as np
import pytest

from latentlab import irt, lda, mixture, ppca
from latentlab import sequential as seq
from latentlab.core import RandomSource
from latentlab.em import EmConfig, MonotonicityError, run_em
from latentlab.mixture import (GmmParams, LcaParams, fit_gmm, fit_lca, gmm_e_step, gmm_loglik,
                               gmm_m_step)


def _blob_data(seed=0, n=200):
    rng = RandomSource(seed)
    return rng.standard_normal((n, 2)) * 0.5 + np.array([1.0, -2.0])


def test_single_component_converges_fast():
    X = _blob_data()
    params, report = fit_gmm(X, 1, EmConfig(seed=0))
    assert report.converged
    assert report.iters <= 2
    assert np.allclose(params.means[0], X.mean(axis=0), atol=1e-10)
    assert np.allclose(params.covs[0], np.cov(X.T, bias=True), atol=1e-6)


def test_two_separated_clusters_monotone_trace():
    rng = RandomSource(1)
    X = np.vstack([rng.standard_normal((150, 2)) + [0, 0],
                   rng.standard_normal((150, 2)) + [10, 0]])
    _params, report = fit_gmm(X, 2, EmConfig(seed=1))
    trace = report.objective_trace
    assert np.all(np.diff(trace) >= -1e-8)
    assert report.converged


def test_infinite_rel_tol_single_iteration():
    X = _blob_data(2)
    cfg = EmConfig(max_iters=100, rel_tol=math.inf, seed=0)
    _params, report = fit_gmm(X, 2, cfg)
    assert report.iters == 1
    assert report.converged


def test_trace_length_equals_iters():
    X = _blob_data(3)
    _params, report = fit_gmm(X, 2, EmConfig(seed=3))
    assert len(report.objective_trace) == report.iters
    assert report.final_objective == report.objective_trace[-1]


def test_report_holds_the_last_relative_change():
    X = _blob_data(3)
    _params, capped = fit_gmm(X, 2, EmConfig(seed=3, max_iters=2, rel_tol=1e-300))
    _params, done = fit_gmm(X, 2, EmConfig(seed=3, rel_tol=1e-6))
    a, b = capped.objective_trace
    assert not capped.converged
    assert capped.rel_change == abs(b - a) / max(1.0, abs(b))
    assert done.converged and done.rel_change < 1e-6


def test_idempotence_at_fixed_point():
    rng = RandomSource(40)
    X = np.vstack([rng.standard_normal((200, 2)), rng.standard_normal((200, 2)) + [8, 0]])
    params, _report = fit_gmm(X, 2, EmConfig(seed=4, rel_tol=1e-13, max_iters=2000))
    obj0 = gmm_loglik(params, X)
    _params2, report2 = fit_gmm(X, 2, EmConfig(seed=4, max_iters=1), init=params)
    assert abs(report2.final_objective - obj0) < 1e-6


def test_monotonicity_violation_raises():
    X = _blob_data(5)

    def bad_m_step(data, resp):
        params = gmm_m_step(data, resp)
        if isinstance(params, tuple):
            params = params[0]
        # corrupt the update so the objective drops
        return type(params)(params.weights, params.means + 5.0, params.covs)

    init, _ = fit_gmm(X, 2, EmConfig(seed=5, max_iters=1))
    with pytest.raises(MonotonicityError) as err:
        run_em(gmm_e_step, bad_m_step, lambda resp: resp.loglik, X, init, EmConfig(seed=5))
    assert err.value.iteration >= 1


def test_config_validation():
    with pytest.raises(ValueError):
        EmConfig(max_iters=0)
    with pytest.raises(ValueError):
        EmConfig(rel_tol=0.0)


def _rescore_cases():
    """(name, fit, rescore) per EM family; fit() -> (params, report)."""
    rng = RandomSource(60)
    Xg = np.vstack([rng.standard_normal((40, 2)), rng.standard_normal((40, 2)) + 4.0])
    Xc = rng.integers(0, 3, (60, 4))
    theta = rng.standard_normal(80)
    a, b = 0.5 + rng.uniform(4), rng.standard_normal(4)
    Xi = (rng.uniform((80, 4)) < 1 / (1 + np.exp(-(np.outer(theta, a) - b)))).astype(int)
    Xi[0], Xi[1] = 1, 0                     # no constant item
    quad = irt.default_quadrature(21)
    Xp = rng.standard_normal((60, 2)) @ rng.standard_normal((2, 4)) \
        + 0.3 * rng.standard_normal((60, 4))
    trans = np.array([[0.8, 0.2], [0.3, 0.7]])
    hmm_true = seq.HmmParams([0.5, 0.5], trans,
                             seq.DiscreteEmission([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
    hs = [seq.hmm_sample(hmm_true, n, rng)[1] for n in (30, 45)]
    ghmm_true = seq.HmmParams([0.5, 0.5], trans,
                              seq.GaussianEmission([[-1.5], [1.5]], [[[0.6]], [[0.6]]]))
    gs = [seq.hmm_sample(ghmm_true, n, rng)[1] for n in (30, 45)]
    lds_true = seq.LdsParams([[0.7]], [[1.0], [0.5]], [[0.2]], 0.3 * np.eye(2), [0.0], [[1.0]])
    ls = [seq.lds_sample(lds_true, n, rng)[1] for n in (25, 35)]
    hyper = lda.LdaHyper(np.full(2, 1.0), np.full(5, 1.0), 2, 5)
    corpus, _ = lda.generate_corpus(hyper, [12, 15, 9], rng)
    cfg = EmConfig(max_iters=15, seed=6)
    cases = [
        ("gmm", lambda: fit_gmm(Xg, 2, cfg), lambda q: mixture.gmm_loglik(q, Xg)),
        ("lca", lambda: fit_lca(Xc, 2, cfg), lambda q: mixture.lca_loglik(q, Xc)),
        ("irt", lambda: irt.fit_irt(Xi, quad, cfg), lambda q: irt.marginal_loglik(q, Xi, quad)),
        ("hmm", lambda: seq.hmm_fit(hs, 2, "discrete", cfg), lambda q: seq.hmm_loglik(q, hs)),
        ("ghmm", lambda: seq.hmm_fit(gs, 2, "gaussian", cfg), lambda q: seq.hmm_loglik(q, gs)),
        ("lds", lambda: seq.lds_fit(ls, 1, cfg), lambda q: seq.lds_loglik(q, ls)),
        ("lda", lambda: lda.fit_lda(hyper, corpus, cfg), lambda q: lda.elbo(hyper, corpus, q)),
        ("ppca", lambda: ppca.fit_em(Xp, 1, cfg), lambda q: ppca.marginal_loglik(q, Xp)),
    ]
    return [pytest.param(*case, id=case[0]) for case in cases]


@pytest.mark.parametrize("name, fit, rescore", _rescore_cases())
def test_final_objective_equals_rescore(name, fit, rescore):
    # The E-step scores the parameters the last M-step returned, with the
    # arithmetic of the family's own scoring function; PPCA scores from the
    # sample covariance instead of a pass over the rows.
    params, report = fit()
    assert report.iters >= 2
    if name == "ppca":
        assert report.final_objective == pytest.approx(rescore(params), rel=1e-9)
    else:
        assert report.final_objective == rescore(params)


def test_gmm_fit_builds_log_joint_once_per_iteration(monkeypatch):
    calls = []
    log_joint = mixture._gmm_log_joint

    def counting(params, X):
        calls.append(1)
        return log_joint(params, X)

    monkeypatch.setattr(mixture, "_gmm_log_joint", counting)
    X = _blob_data(6, n=150)
    _params, report = fit_gmm(X, 2, EmConfig(seed=6, max_iters=7))
    assert report.iters == 7
    assert len(calls) == report.iters + 1


@pytest.mark.parametrize("fit", [
    lambda X, K: fit_gmm(X, K, EmConfig()),
    lambda X, K: fit_lca(X.astype(int), K, EmConfig()),
    lambda X, K: seq.hmm_fit([X[:, 0].astype(int)], K, "discrete", EmConfig()),
], ids=["gmm", "lca", "hmm"])
@pytest.mark.parametrize("K", [0, -1])
def test_component_count_below_one_rejected(fit, K):
    X = np.abs(_blob_data(7, n=20)).round()
    with pytest.raises(ValueError, match=">= 1"):
        fit(X, K)


def test_a_rescue_that_lowers_the_objective_is_refused():
    # from the third iteration on the M-step reports a rescue and returns
    # params that lower the objective: the fit stops at the second
    X = _blob_data(8)
    calls = []

    def m_step(data, resp):
        params = gmm_m_step(data, resp)
        calls.append(params)
        if len(calls) < 3:
            return params
        return type(params)(params.weights, params.means + 5.0, params.covs), ["rescued"]

    init, _ = fit_gmm(X, 2, EmConfig(seed=8, max_iters=1))
    params, report = run_em(gmm_e_step, m_step, lambda resp: resp.loglik, X, init,
                            EmConfig(rel_tol=1e-300))
    assert params is calls[1] and report.iters == 2 and not report.converged
    assert report.final_objective == report.objective_trace[-1] == gmm_loglik(params, X)
    fell = gmm_loglik(m_step(X, gmm_e_step(params, X))[0], X)
    assert report.events == ["rescued", "rescue refused at iteration 3: objective "
                             f"{report.final_objective!r} -> {fell!r}"]
    a, b = report.objective_trace
    assert report.rel_change == abs(b - a) / max(1.0, abs(b))


def test_lca_rescue_that_lowers_the_objective_is_refused():
    # it raised MonotonicityError: -6.9315 -> -7.3540 at iteration 1
    codes = np.array([[1, 1], [1, 0], [0, 1], [1, 0], [0, 1]])
    init = LcaParams([1.0, 0.0], (np.full((2, 2), 0.5),) * 2)
    params, report = fit_lca(codes, 2, EmConfig(), init=init)
    start = mixture.lca_loglik(init, codes)
    fell = mixture.lca_loglik(mixture.lca_m_step(codes, mixture.lca_e_step(init, codes))[0], codes)
    assert fell < start - 0.4
    assert params is init and not report.converged
    assert report.iters == 0 and report.objective_trace.size == 0
    assert report.events == ["class 1 empty; re-seeded at data point 0",
                             f"rescue refused at iteration 1: objective {start!r} -> {fell!r}"]
    assert report.final_objective == mixture.lca_loglik(params, codes) == start


def test_gaussian_hmm_rescue_that_raised_monotonicity_error_is_kept():
    # -17.48 -> -20.58 at iteration 1, when the re-seeded state was unreachable
    obs = [RandomSource(3).standard_normal((5, 2)), RandomSource(4).standard_normal((3, 2))]
    init = seq.HmmParams([1.0, 0.0], np.eye(2),
                         seq.GaussianEmission(np.zeros((2, 2)), np.stack([np.eye(2)] * 2)))
    params, report = seq.hmm_fit(obs, 2, "gaussian", EmConfig(), init=init)
    assert report.events == ["state 1 empty; re-seeded at data point 0"]
    assert report.objective_trace[0] > seq.hmm_loglik(init, obs)
    assert np.all(np.diff(report.objective_trace) >= -1e-8)
    assert report.final_objective == seq.hmm_loglik(params, obs)


# Every event a discrete-latent EM family may report: the one re-seed rule,
# the HMM's guard against a 0/0 transition row, and run_em's refusal.
EVENT = re.compile(r"(component|class|state) \d+ empty; re-seeded at data point \d+"
                   r"|state \d+ saw no transitions; row reset to uniform"
                   r"|rescue refused at iteration \d+: objective \S+ -> \S+")


def _stuck_starts(seed, K):
    """(fit, rescore, init) per discrete-latent family, from a start whose
    weights or pi are [1, 0, ...], with far means, uniform tables and
    trans = I, so every column but the first is empty."""
    rng = RandomSource(seed)
    X = rng.standard_normal((30, 2)) + 4.0 * (rng.uniform(30) < 0.5)[:, None]
    codes = rng.integers(0, 3, (30, 4))
    lengths = rng.integers(1, 9, 4).tolist()
    symbols = [rng.integers(0, 3, T) for T in lengths]
    reals = [rng.standard_normal((T, 2)) + 3.0 * ((np.arange(T) // 3) % 2)[:, None]
             for T in lengths]
    first, eyes = np.eye(K)[0], np.stack([np.eye(2)] * K)
    far = 1e3 * np.arange(K)[:, None] * np.ones(2)
    gmm = GmmParams(first, far, eyes)
    lca = LcaParams(first, (np.full((K, 3), 1 / 3),) * 4)
    hmm = seq.HmmParams(first, np.eye(K), seq.DiscreteEmission(np.full((K, 3), 1 / 3)))
    ghmm = seq.HmmParams(first, np.eye(K), seq.GaussianEmission(far, eyes))
    cfg = EmConfig(max_iters=30, seed=seed)
    return [
        (lambda: fit_gmm(X, K, cfg, init=gmm), lambda q: gmm_loglik(q, X), gmm),
        (lambda: fit_lca(codes, K, cfg, n_categories=[3] * 4, init=lca),
         lambda q: mixture.lca_loglik(q, codes), lca),
        (lambda: seq.hmm_fit(symbols, K, "discrete", cfg, n_symbols=3, init=hmm),
         lambda q: seq.hmm_loglik(q, symbols), hmm),
        (lambda: seq.hmm_fit(reals, K, "gaussian", cfg, init=ghmm),
         lambda q: seq.hmm_loglik(q, reals), ghmm),
    ]


def _arrays(obj):
    if dataclasses.is_dataclass(obj):
        return [a for f in dataclasses.fields(obj) for a in _arrays(getattr(obj, f.name))]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _arrays(item)]
    return [np.asarray(obj)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("K", [2, 3])
@pytest.mark.parametrize("family", range(4), ids=["gmm", "lca", "hmm", "ghmm"])
def test_stuck_starts_end_finite_monotone_and_rescored(family, K, seed):
    fit, rescore, init = _stuck_starts(seed, K)[family]
    params, report = fit()
    assert all(np.all(np.isfinite(a)) for a in _arrays(params))
    trace = np.concatenate(([rescore(init)], report.objective_trace))
    assert np.all(np.diff(trace) >= -1e-8)
    assert report.final_objective == rescore(params)
    assert any("empty; re-seeded" in e for e in report.events)
    for event in report.events:
        assert EVENT.fullmatch(event), event
