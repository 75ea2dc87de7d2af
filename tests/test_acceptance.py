"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s -v` to see the per-criterion
lines; the whole suite targets desk-scale runtime (< 5 minutes on one core).
"""
import functools
import itertools
import math
import time

import numpy as np
import pytest

from oracle_utils import (bayes_rule_responsibilities, enumerate_hmm_posteriors,
                          fd_logdet, gaussian_condition, lca_bayes_responsibilities,
                          lda_exact_log_pw, max_rel_grad_error, stacked_joint)

from latentlab import arm as arm_mod
from latentlab import diffusion as diff_mod
from latentlab import flow as flow_mod
from latentlab import gan as gan_mod
from latentlab import irt as irt_mod
from latentlab import lda as lda_mod
from latentlab import mixture
from latentlab import ppca as ppca_mod
from latentlab import sequential as seq_mod
from latentlab import vae as vae_mod
from latentlab.cli import main as cli_main
from latentlab.core import Gaussian, RandomSource
from latentlab.datasets import SyntheticSpec, generate, write_csv
from latentlab.em import EmConfig
from latentlab.nn import Mlp, Tensor


def criterion(n, description):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"FAIL criterion {n}: {description}")
                raise
            print(f"PASS criterion {n}: {description}")
        return wrapper
    return deco


# ---------------------------------------------------------------------------

@criterion(1, "EM monotonicity across all seven EM families (20 seeded instances each)")
def test_c01_em_monotonicity():
    slack_tight, slack_loose = 1e-8, 1e-6

    for seed in range(20):
        rng = RandomSource(1000 + seed)

        # GMM
        X = np.vstack([rng.standard_normal((30, 2)),
                       rng.standard_normal((30, 2)) + rng.standard_normal(2) * 3])
        _p, rep = mixture.fit_gmm(X, 3, EmConfig(seed=seed, max_iters=60))
        assert np.all(np.diff(rep.objective_trace) >= -slack_tight)

        # LCA
        Xc = rng.integers(0, 3, (80, 4))
        _p, rep = mixture.fit_lca(Xc, 2, EmConfig(seed=seed, max_iters=60))
        assert np.all(np.diff(rep.objective_trace) >= -slack_tight)

        # discrete HMM
        tp = rng.uniform((2, 2)) + 0.3
        tp /= tp.sum(axis=1, keepdims=True)
        ep = rng.uniform((2, 3)) + 0.3
        ep /= ep.sum(axis=1, keepdims=True)
        true = seq_mod.HmmParams([0.5, 0.5], tp, seq_mod.DiscreteEmission(ep))
        _s, obs = seq_mod.hmm_sample(true, 80, rng)
        _p, rep = seq_mod.hmm_fit([obs], 2, "discrete", EmConfig(seed=seed, max_iters=40))
        assert np.all(np.diff(rep.objective_trace) >= -slack_tight)

        # Gaussian HMM
        gtrue = seq_mod.HmmParams([0.5, 0.5], tp,
                                  seq_mod.GaussianEmission([[-1.5], [1.5]],
                                                           [[[0.6]], [[0.6]]]))
        _s, gobs = seq_mod.hmm_sample(gtrue, 80, rng)
        _p, rep = seq_mod.hmm_fit([gobs], 2, "gaussian", EmConfig(seed=seed, max_iters=40))
        assert np.all(np.diff(rep.objective_trace) >= -slack_tight)

        # LDS
        ltrue = seq_mod.LdsParams([[0.7]], [[1.0]], [[0.2]], [[0.3]], [0.0], [[1.0]])
        _z, lobs = seq_mod.lds_sample(ltrue, 40, rng)
        _p, rep = seq_mod.lds_fit([lobs], 1, EmConfig(seed=seed, max_iters=30))
        assert np.all(np.diff(rep.objective_trace) >= -slack_tight)

        # IRT (looser slack: quadrature-approximated objective)
        a = 0.5 + rng.uniform(4)
        b = rng.standard_normal(4)
        theta = rng.standard_normal(100)
        probs = 1 / (1 + np.exp(-(np.outer(theta, a) - b)))
        Xi = (rng.uniform(probs.shape) < probs).astype(int)
        bad = (Xi.mean(axis=0) == 0) | (Xi.mean(axis=0) == 1)
        Xi[0, bad] = 1 - Xi[0, bad]
        _p, rep = irt_mod.fit_irt(Xi, irt_mod.default_quadrature(),
                                  EmConfig(seed=seed, max_iters=30))
        assert np.all(np.diff(rep.objective_trace) >= -slack_loose)

        # LDA (looser slack)
        hyper = lda_mod.LdaHyper(np.full(2, 1.0), np.full(5, 1.0), 2, 5)
        corpus, _ = lda_mod.generate_corpus(hyper, [12, 12, 12, 12], rng)
        _v, rep = lda_mod.fit_lda(hyper, corpus, EmConfig(seed=seed, max_iters=30))
        assert np.all(np.diff(rep.objective_trace) >= -slack_loose)


@criterion(2, "PPCA exactness: EM matches closed form; posterior matches conditioning; "
              "noiseless reconstruction exact")
def test_c02_ppca_exactness():
    for seed in range(10):
        rng = RandomSource(2000 + seed)
        D, M = 4, 2
        W = rng.standard_normal((D, M))
        mu = rng.standard_normal(D)
        sigma2 = 0.1 + 0.4 * rng.uniform()
        Z = rng.standard_normal((400, M))
        X = Z @ W.T + mu + math.sqrt(sigma2) * rng.standard_normal((400, D))
        star = ppca_mod.fit_closed_form(X, M)
        _fit, rep = ppca_mod.fit_em(X, M, EmConfig(seed=seed, rel_tol=1e-12, max_iters=5000))
        ll_star = ppca_mod.marginal_loglik(star, X)
        assert abs(rep.final_objective - ll_star) < 1e-4
        cov_em = _fit.W @ _fit.W.T + _fit.sigma2 * np.eye(D)
        cov_star = star.W @ star.W.T + star.sigma2 * np.eye(D)
        assert np.linalg.norm(cov_em - cov_star) < 1e-3

        # posterior vs generic Gaussian conditioning on the joint (z, x)
        x = X[0]
        joint_mean = np.concatenate([np.zeros(M), star.mu])
        joint_cov = np.block([[np.eye(M), star.W.T],
                              [star.W, star.W @ star.W.T + star.sigma2 * np.eye(D)]])
        cond = gaussian_condition(Gaussian(joint_mean, joint_cov), M, x)
        post = ppca_mod.posterior(star, x)
        assert np.max(np.abs(post.mean - cond.mean)) < 1e-10
        assert np.max(np.abs(post.cov - cond.cov)) < 1e-10

    # sigma2 = 0, orthonormal loading: exact reconstruction of in-subspace points
    rng = RandomSource(2100)
    Q, _ = np.linalg.qr(rng.standard_normal((5, 2)))
    params = ppca_mod.PpcaParams(Q, np.zeros(5), 0.0)
    for _ in range(5):
        x = Q @ rng.standard_normal(2)
        assert np.max(np.abs(ppca_mod.reconstruct(params, x) - x)) < 1e-10


@criterion(3, "sequential oracles: forward-backward equals path enumeration; "
              "Kalman filter/smoother equal stacked-joint conditioning")
def test_c03_sequential_oracles():
    # forward-backward vs enumeration, K <= 3, T <= 6
    for seed, (K, T, S) in enumerate([(2, 4, 2), (3, 6, 4), (3, 5, 3)]):
        rng = RandomSource(3000 + seed)
        pi = rng.uniform(K) + 0.2
        pi /= pi.sum()
        A = rng.uniform((K, K)) + 0.2
        A /= A.sum(axis=1, keepdims=True)
        B = rng.uniform((K, S)) + 0.2
        B /= B.sum(axis=1, keepdims=True)
        params = seq_mod.HmmParams(pi, A, seq_mod.DiscreteEmission(B))
        obs = rng.integers(0, S, T)
        sm = seq_mod.hmm_forward_backward(params, obs)
        marg, pair, ll = enumerate_hmm_posteriors(params, obs)
        assert np.max(np.abs(sm.states - marg)) < 1e-10
        assert np.max(np.abs(sm.pairwise - pair)) < 1e-10
        assert abs(sm.loglik - ll) < 1e-10
        for t in range(T - 1):
            assert np.max(np.abs(sm.pairwise[t].sum(axis=1) - sm.states[t])) < 1e-10
            assert np.max(np.abs(sm.pairwise[t].sum(axis=0) - sm.states[t + 1])) < 1e-10

    # Kalman filter/smoother vs dense-joint conditioning, T <= 5
    for seed in range(3):
        rng = RandomSource(3100 + seed)
        dz = dx = 2
        A = 0.6 * np.linalg.qr(rng.standard_normal((dz, dz)))[0]
        params = seq_mod.LdsParams(A, rng.standard_normal((dx, dz)),
                                   0.3 * np.eye(dz), 0.2 * np.eye(dx),
                                   rng.standard_normal(dz), 0.7 * np.eye(dz))
        T = 5
        _z, obs = seq_mod.lds_sample(params, T, rng)
        means_f, covs_f, _pm, _pc, _ll = seq_mod.kalman_filter(params, obs)
        sm = seq_mod.kalman_smooth(params, obs)
        joint = stacked_joint(params, T)
        for t in range(T):
            idx = list(range(t * dz, (t + 1) * dz)) \
                + [T * dz + j for j in range((t + 1) * dx)]
            cond = gaussian_condition(
                Gaussian(joint.mean[idx], joint.cov[np.ix_(idx, idx)]),
                dz, obs[:t + 1].ravel())
            assert np.max(np.abs(means_f[t] - cond.mean)) < 1e-8
            assert np.max(np.abs(covs_f[t] - cond.cov)) < 1e-8
            idx_s = list(range(t * dz, (t + 1) * dz)) + list(range(T * dz, T * (dz + dx)))
            cond_s = gaussian_condition(
                Gaussian(joint.mean[idx_s], joint.cov[np.ix_(idx_s, idx_s)]),
                dz, obs.ravel())
            assert np.max(np.abs(sm.means[t] - cond_s.mean)) < 1e-8
            assert np.max(np.abs(sm.covs[t] - cond_s.cov)) < 1e-8


@criterion(4, "flat-model oracles: responsibilities match Bayes rule; IRT marginal "
              "matches Monte Carlo and is quadrature-stable")
def test_c04_flat_oracles():
    for seed in range(5):
        rng = RandomSource(4000 + seed)
        K, d = 3, 2
        w = rng.uniform(K) + 0.2
        w /= w.sum()
        means = 3 * rng.standard_normal((K, d))
        covs = np.stack([np.eye(d) * (0.5 + rng.uniform()) for _ in range(K)])
        params = mixture.GmmParams(w, means, covs)
        X = rng.standard_normal((25, d)) * 2
        assert np.max(np.abs(mixture.gmm_e_step(params, X).gamma
                             - bayes_rule_responsibilities(params, X))) < 1e-12

        tables = []
        for _ in range(3):
            t = rng.uniform((2, 2)) + 0.2
            t /= t.sum(axis=1, keepdims=True)
            tables.append(t)
        wl = rng.uniform(2) + 0.3
        wl /= wl.sum()
        lparams = mixture.LcaParams(wl, tuple(tables))
        Xc = rng.integers(0, 2, (25, 3))
        assert np.max(np.abs(mixture.lca_e_step(lparams, Xc).gamma
                             - lca_bayes_responsibilities(lparams, Xc))) < 1e-12

    # IRT marginal vs 10^6-draw Monte Carlo, common random numbers across patterns
    params = irt_mod.IrtParams([1.2, 0.7, 2.0], [0.3, -0.5, 1.0])
    quad = irt_mod.default_quadrature()
    rng = RandomSource(4100)
    thetas = rng.standard_normal(1_000_000)
    p = 1.0 / (1.0 + np.exp(-(np.outer(thetas, params.a) - params.b)))
    for x in (np.array([1, 0, 1]), np.array([0, 0, 0]), np.array([1, 1, 1])):
        lik = np.prod(np.where(x == 1, p, 1 - p), axis=1)
        mc = math.log(lik.mean())
        got = irt_mod.marginal_loglik(params, x[None, :], quad)
        assert abs(got - mc) < 2e-3

    # stability under quadrature doubling
    rngd = RandomSource(4200)
    theta = rngd.standard_normal(300)
    probs = 1 / (1 + np.exp(-(np.outer(theta, params.a) - params.b)))
    X = (rngd.uniform(probs.shape) < probs).astype(int)
    v1 = irt_mod.marginal_loglik(params, X, irt_mod.default_quadrature(41))
    v2 = irt_mod.marginal_loglik(params, X, irt_mod.default_quadrature(82))
    assert abs(v1 - v2) < 1e-4


@criterion(5, "LDA bound: variational objective never exceeds enumerated log p(w); "
              "monotone under sweeps")
def test_c05_lda_bound():
    cases = [
        (lda_mod.LdaHyper(np.array([1.0, 1.0]), np.array([1.0, 1.0]), 2, 2),
         lda_mod.Corpus((np.array([0, 1]),), 2)),
        (lda_mod.LdaHyper(np.array([1.5, 1.0]), np.array([1.0, 2.0, 1.0]), 2, 3),
         lda_mod.Corpus((np.array([0, 2, 1]), np.array([2, 2])), 3)),
        (lda_mod.LdaHyper(np.array([2.0, 1.0]), np.array([1.0, 1.0]), 2, 2),
         lda_mod.Corpus((np.array([0, 0, 1]), np.array([1, 0, 1])), 2)),
    ]
    for seed, (hyper, corpus) in enumerate(cases):
        log_pw = lda_exact_log_pw(hyper, corpus)
        var, rep = lda_mod.fit_lda(hyper, corpus,
                                   EmConfig(seed=seed, rel_tol=1e-10, max_iters=400))
        assert rep.final_objective <= log_pw + 1e-3
        assert lda_mod.elbo(hyper, corpus, var) <= log_pw + 1e-3
        assert np.all(np.diff(rep.objective_trace) >= -1e-6)


@criterion(6, "VAE bound: linear-Gaussian ELBO never exceeds the exact marginal; "
              "analytic KL formula cases exact")
def test_c06_vae_bound():
    rng = RandomSource(6000)
    W = rng.standard_normal((2, 1))
    b = rng.standard_normal(2)
    sigma_dec = 0.4
    encoder = Mlp.create([2, 2], ["identity"], RandomSource(6001))
    decoder = Mlp([Tensor.param(W.T.copy())], [Tensor.param(b.copy())], ["identity"])
    model = vae_mod.VaeModel(encoder, decoder, 1, "gaussian", sigma_dec)
    exact_model = ppca_mod.PpcaParams(W, b, sigma_dec ** 2)
    for seed in range(3):
        x = RandomSource(6002 + seed).standard_normal((1, 2))
        exact = ppca_mod.marginal_loglik(exact_model, x)
        parts = vae_mod.elbo(model, x, RandomSource(6100 + seed), n_samples=10_000)
        elbo_val = float(parts.elbo.values)
        assert float(parts.kl.values) >= 0.0
        assert elbo_val <= exact + 0.05          # Monte-Carlo band

    # KL closed-form cases
    def zero_mlp(dims):
        return Mlp([Tensor.param(np.zeros((a, c))) for a, c in zip(dims[:-1], dims[1:])],
                   [Tensor.param(np.zeros(c)) for c in dims[1:]],
                   ["identity"] * (len(dims) - 1))

    m0 = vae_mod.VaeModel(zero_mlp([1, 2]), zero_mlp([1, 1]), 1, "gaussian", 0.5)
    parts = vae_mod.elbo(m0, np.zeros((1, 1)), RandomSource(6200))
    assert float(parts.kl.values) == 0.0
    enc1 = zero_mlp([1, 2])
    enc1.biases[0].values = np.array([1.0, 0.0])
    m1 = vae_mod.VaeModel(enc1, zero_mlp([1, 1]), 1, "gaussian", 0.5)
    parts = vae_mod.elbo(m1, np.zeros((1, 1)), RandomSource(6201))
    assert float(parts.kl.values) == 0.5


@criterion(7, "flow exactness: round-trip inversion, FD Jacobian log-dets, density "
              "normalization, log-det additivity")
def test_c07_flow_exactness():
    # round-trip < 1e-8 for couplings, permutations, planar stacks
    model_c = flow_mod.make_coupling_stack(4, 4, RandomSource(7000))
    z = RandomSource(7001).standard_normal((30, 4))
    x, _ = flow_mod.forward_with_logdet(model_c, z)
    assert np.max(np.abs(flow_mod.inverse(model_c, x.values) - z)) < 1e-8

    model_p = flow_mod.FlowModel(
        [flow_mod.PlanarLayer.create(2, RandomSource(7002).split(i)) for i in range(4)], 2)
    zp = RandomSource(7003).standard_normal((30, 2))
    xp, _ = flow_mod.forward_with_logdet(model_p, zp)
    assert np.max(np.abs(flow_mod.inverse(model_p, xp.values) - zp)) < 1e-8

    # analytic log-det vs FD Jacobian (d <= 4)
    for model, dim in ((model_c, 4), (model_p, 2)):
        rng = RandomSource(7004)
        for _ in range(3):
            z0 = rng.standard_normal(dim)
            _out, logdet = flow_mod.forward_with_logdet(model, z0[None, :])
            fd = fd_logdet(
                lambda v: flow_mod.forward_with_logdet(model, v[None, :])[0].values[0], z0)
            assert abs(logdet.values[0] - fd) < 1e-5

    # 1-d density normalizes
    model_1d = flow_mod.FlowModel(
        [flow_mod.PlanarLayer.create(1, RandomSource(7005).split(i)) for i in range(3)], 1)
    xs = np.linspace(-10, 10, 4001)
    dens = np.exp(flow_mod.log_likelihood(model_1d, xs[:, None]))
    assert abs(np.trapezoid(dens, xs) - 1.0) < 1e-3

    # log-det additivity across the stack, exact
    zz = RandomSource(7006).standard_normal((10, 4))
    _out, total = flow_mod.forward_with_logdet(model_c, zz)
    acc = np.zeros(10)
    cur = Tensor(zz)
    for layer in model_c.layers:
        cur, ld = layer.forward(cur)
        acc += ld.values
    assert np.max(np.abs(total.values - acc)) < 1e-12


@criterion(8, "diffusion consistency: marginal moments, posterior conditioning, "
              "zero-net loss level, oracle ELBO terms")
def test_c08_diffusion_consistency():
    sched = diff_mod.linear_schedule(T=20, beta_start=1e-3, beta_end=0.1)

    # closed-form marginal vs composed one-step kernels (MC, 2%)
    x0 = np.array([0.7, -1.2])
    t = 15
    n = 100_000
    rng = RandomSource(8000)
    stepwise = np.tile(x0, (n, 1))
    for s in range(1, t + 1):
        bschedule = sched.betas[s - 1]
        stepwise = math.sqrt(1 - bschedule) * stepwise \
            + math.sqrt(bschedule) * rng.standard_normal((n, 2))
    ab = sched.alpha_bar(t)
    assert np.allclose(stepwise.mean(axis=0), math.sqrt(ab) * x0, atol=0.02)
    assert np.allclose(stepwise.var(axis=0), 1 - ab, rtol=0.02)

    # posterior parameters vs Gaussian conditioning (scalar, 1e-12)
    rng = RandomSource(8001)
    for t in (2, 9, 20):
        x0s = float(rng.standard_normal())
        xts = float(rng.standard_normal())
        ab_t, ab_p = sched.alpha_bar(t), sched.alpha_bar(t - 1)
        beta_t = float(sched.betas[t - 1])
        mean = np.array([math.sqrt(ab_p) * x0s, math.sqrt(ab_t) * x0s])
        cross = math.sqrt(1 - beta_t) * (1 - ab_p)
        cov = np.array([[1 - ab_p, cross], [cross, 1 - ab_t]])
        cond = gaussian_condition(Gaussian(mean, cov), 1, [xts])
        mu, bt = diff_mod.posterior_params(sched, np.array([xts]), np.array([x0s]), t)
        assert abs(mu[0] - cond.mean[0]) < 1e-12
        assert abs(bt - cond.cov[0, 0]) < 1e-12

    # loss at the zero net concentrates at d (3-sigma MC band)
    model = diff_mod.make_diffusion(3, RandomSource(8002), T=20, hidden=4)
    for p in model.params():
        p.values[:] = 0.0
    rng = RandomSource(8003)
    vals = [float(diff_mod.loss_simple(model, rng.standard_normal((64, 3)), rng).values)
            for _ in range(50)]
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(np.mean(vals) - 3.0) <= 3 * se

    # ELBO terms vanish at the oracle predictor
    from test_diffusion import OracleEpsNet
    c = np.array([0.9])
    omodel = diff_mod.DiffusionModel(sched, OracleEpsNet(sched, c), 1)
    terms = diff_mod.elbo_terms(omodel, c[None, :], RandomSource(8004))
    assert np.all(terms >= 0.0)
    assert np.max(terms) < 1e-18


@criterion(9, "autoregressive exactness: normalization over all sequences; causality "
              "under perturbation")
def test_c09_autoregressive():
    model = arm_mod.make_ar_model(4, 4, RandomSource(9000))     # V^D = 256
    seqs = np.array(list(itertools.product(range(4), repeat=4)), dtype=int)
    lls = arm_mod.log_likelihood_batch(model, seqs)
    assert abs(np.exp(lls).sum() - 1.0) < 1e-10

    model2 = arm_mod.make_ar_model(5, 3, RandomSource(9001))
    x = RandomSource(9002).integers(0, 3, (1, 5))
    for d in range(5):
        base = arm_mod.position_logits(model2, x, d).values
        for pos in range(d, 5):
            for v in range(3):
                pert = x.copy()
                pert[0, pos] = v
                assert np.array_equal(arm_mod.position_logits(model2, pert, d).values,
                                      base)


@criterion(10, "gradient suite: every differentiable loss matches central finite "
               "differences within 1e-4 relative")
def test_c10_gradient_suite():
    # VAE ELBO
    model = vae_mod.make_vae(2, 1, RandomSource(10_000), hidden=3)

    def vae_loss_tensor():
        return -(vae_mod.elbo(model, x_vae, RandomSource(10_001)).elbo)

    x_vae = RandomSource(10_002).standard_normal((3, 2))
    err = max_rel_grad_error(lambda: float(vae_loss_tensor().values),
                             model.params(), vae_loss_tensor)
    assert err < 1e-4, f"vae elbo grad err {err}"

    # flow log-likelihood (coupling stack)
    fmodel = flow_mod.make_coupling_stack(2, 2, RandomSource(10_010), hidden=3)
    x_flow = RandomSource(10_011).standard_normal((3, 2))

    def flow_loss_tensor():
        return -(flow_mod._loglik_tensor(fmodel, Tensor(x_flow)).mean())

    err = max_rel_grad_error(lambda: float(flow_loss_tensor().values),
                             fmodel.params(), flow_loss_tensor)
    assert err < 1e-4, f"flow loglik grad err {err}"

    # diffusion L_simple
    dmodel = diff_mod.make_diffusion(1, RandomSource(10_020), T=5, hidden=3)
    x_diff = RandomSource(10_021).standard_normal((4, 1))

    def diff_loss_tensor():
        return diff_mod.loss_simple(dmodel, x_diff, RandomSource(10_022))

    err = max_rel_grad_error(lambda: float(diff_loss_tensor().values),
                             dmodel.params(), diff_loss_tensor)
    assert err < 1e-4, f"diffusion loss grad err {err}"

    # AR log-likelihood
    amodel = arm_mod.make_ar_model(2, 2, RandomSource(10_030), hidden=3)
    x_ar = np.array([[0, 1], [1, 0]])

    def ar_loss_tensor():
        return -(arm_mod._loglik_tensor(amodel, x_ar) * 0.5)

    err = max_rel_grad_error(lambda: float(ar_loss_tensor().values),
                             amodel.params(), ar_loss_tensor)
    assert err < 1e-4, f"ar loglik grad err {err}"

    # GAN losses (both networks through the discriminator loss; generator
    # through the non-saturating loss)
    gmodel = gan_mod.make_gan(1, 1, RandomSource(10_040), hidden=3)
    real = RandomSource(10_041).standard_normal((4, 1))
    fake = RandomSource(10_042).standard_normal((4, 1))

    def disc_loss_tensor():
        return gan_mod.disc_loss(gmodel, real, fake)

    err = max_rel_grad_error(lambda: float(disc_loss_tensor().values),
                             gmodel.disc.params(), disc_loss_tensor)
    assert err < 1e-4, f"gan disc grad err {err}"

    z_fixed = RandomSource(10_043).standard_normal((4, 1))

    def gen_loss_tensor():
        fake_t = gmodel.gen.forward(Tensor(z_fixed))
        return gan_mod.gen_loss(gmodel, fake_t)

    err = max_rel_grad_error(lambda: float(gen_loss_tensor().values),
                             gmodel.gen.params(), gen_loss_tensor)
    assert err < 1e-4, f"gan gen grad err {err}"


@criterion(11, "statistical recovery: GMM, HMM, IRT, LDA, diffusion within stated "
               "tolerances in under three minutes")
def test_c11_recovery_suite():
    t_start = time.time()

    # GMM on 10-sigma separated blobs
    X, _, _ = generate(SyntheticSpec("blobs2d", {"separation": 10.0}, n=600, seed=11_000))
    params, _rep = mixture.fit_gmm(X, 2, EmConfig(seed=1))
    fitted = params.means[np.argsort(params.means[:, 0])]
    assert np.linalg.norm(fitted[0] - [0.0, 0.0]) < 0.1
    assert np.linalg.norm(fitted[1] - [10.0, 0.0]) < 0.1

    # HMM transitions at T = 2000
    true = seq_mod.HmmParams([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],
                             seq_mod.DiscreteEmission([[0.9, 0.1], [0.1, 0.9]]))
    _s, obs = seq_mod.hmm_sample(true, 2000, RandomSource(11_001))
    hparams, _rep = seq_mod.hmm_fit([obs], 2, "discrete", EmConfig(seed=2, max_iters=200))
    if hparams.emit.probs[0, 0] < hparams.emit.probs[1, 0]:
        perm = [1, 0]
        A = hparams.trans[np.ix_(perm, perm)]
    else:
        A = hparams.trans
    assert np.max(np.abs(A - true.trans)) < 0.05

    # IRT at N = 2000, J = 10
    a_true = np.array([0.8, 1.2, 1.6, 1.0, 0.7, 1.4, 2.0, 0.9, 1.1, 1.3])
    b_true = np.array([-1.0, -0.5, 0.0, 0.3, 0.8, -0.2, 0.5, 1.0, -0.8, 0.1])
    Xr, _, _ = generate(SyntheticSpec("irt", {"a": a_true, "b": b_true},
                                      n=2000, seed=11_002))
    iparams, _rep = irt_mod.fit_irt(Xr, irt_mod.default_quadrature(),
                                    EmConfig(seed=3, max_iters=200))
    assert math.sqrt(np.mean((iparams.a - a_true) ** 2)) <= 0.15
    assert math.sqrt(np.mean((iparams.b - b_true) ** 2)) <= 0.10

    # LDA planted disjoint topics
    V, K = 6, 2
    phi = np.array([[0.34, 0.33, 0.33, 0.0, 0.0, 0.0],
                    [0.0, 0.0, 0.0, 0.34, 0.33, 0.33]])
    rng = RandomSource(11_003)
    docs = []
    for _ in range(30):
        topic = int(rng.uniform() < 0.5)
        cum = np.cumsum(phi[topic])
        words = np.searchsorted(cum, rng.uniform(40)).clip(0, V - 1)
        docs.append(words)
    corpus = lda_mod.Corpus(tuple(docs), V)
    hyper = lda_mod.LdaHyper(np.full(K, 1.0), np.full(V, 1.0), K, V)
    var, _rep = lda_mod.fit_lda(hyper, corpus, EmConfig(seed=4, max_iters=200))
    topic_probs = var.topic_word / var.topic_word.sum(axis=1, keepdims=True)
    first_half = np.sort(topic_probs[:, :3].sum(axis=1))
    assert first_half[-1] >= 0.9
    assert first_half[0] <= 0.1

    # diffusion on the 1-d bimodal mixture: TV <= 0.15 on 20 bins
    Xd, _, _ = generate(SyntheticSpec("mixture1d",
                                      {"weights": [0.5, 0.5], "means": [-2.0, 2.0],
                                       "sds": [0.5, 0.5]}, n=3000, seed=11_004))
    dmodel = diff_mod.make_diffusion(1, RandomSource(11_005), T=50, hidden=64,
                                     beta_start=0.01, beta_end=0.3)
    diff_mod.train(dmodel, Xd, epochs=300, batch=128, rng=RandomSource(11_006), lr=2e-3)
    S = diff_mod.sample(dmodel, 10_000, RandomSource(11_007))[:, 0]
    edges = np.linspace(-4, 4, 21)
    hist = np.histogram(np.clip(S, -3.999, 3.999), bins=edges)[0] / len(S)

    def mix_cdf(x):
        return 0.5 * (0.5 * (1 + math.erf((x + 2) / (0.5 * math.sqrt(2))))
                      + 0.5 * (1 + math.erf((x - 2) / (0.5 * math.sqrt(2)))))

    target = np.array([mix_cdf(bq) - mix_cdf(aq) for aq, bq in zip(edges[:-1], edges[1:])])
    target /= target.sum()
    tv = 0.5 * np.abs(hist - target).sum()
    assert tv <= 0.15, f"diffusion TV {tv:.3f}"

    elapsed = time.time() - t_start
    assert elapsed < 180, f"recovery suite took {elapsed:.0f}s"


@criterion(12, "CLI determinism: repeated commands with one seed produce "
               "byte-identical outputs")
def test_c12_cli_determinism(tmp_path):
    X, _, _ = generate(SyntheticSpec("blobs2d", {"separation": 10.0}, n=150, seed=12_000))
    data = tmp_path / "blobs.csv"
    write_csv(data, X)
    for cmd_tag, do in (
        ("fit", lambda out: cli_main(["fit", "gmm", "--data", str(data), "--k", "2",
                                      "--seed", "7", "--out", str(out)])),
    ):
        out1 = tmp_path / f"{cmd_tag}1.json"
        out2 = tmp_path / f"{cmd_tag}2.json"
        assert do(out1) == 0
        assert do(out2) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / f"{cmd_tag}1.json.trace.csv").read_bytes() == \
            (tmp_path / f"{cmd_tag}2.json.trace.csv").read_bytes()
    model = tmp_path / "fit1.json"
    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert cli_main(["sample", str(model), "--n", "40", "--seed", "9",
                     "--out", str(s1)]) == 0
    assert cli_main(["sample", str(model), "--n", "40", "--seed", "9",
                     "--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()
    i1, i2 = tmp_path / "i1.csv", tmp_path / "i2.csv"
    assert cli_main(["infer", str(model), "--data", str(data), "--out", str(i1)]) == 0
    assert cli_main(["infer", str(model), "--data", str(data), "--out", str(i2)]) == 0
    assert i1.read_bytes() == i2.read_bytes()
