import math

import numpy as np
import pytest

from oracle_utils import gaussian_condition
from latentlab.core import Gaussian, RandomSource
from latentlab.diffusion import (DiffusionModel, NoiseSchedule, elbo_terms,
                                 linear_schedule, loss_simple, make_diffusion,
                                 posterior_params, q_sample, sample,
                                 time_features, train, TIME_FEATURES)
from latentlab.nn import Tensor


class OracleEpsNet:
    """Duck-typed eps net that recovers the exact forward noise for a known
    point-mass x0; it reads t off the first time feature of the input."""

    def __init__(self, schedule, x0):
        self.schedule = schedule
        self.x0 = np.asarray(x0, dtype=float)
        self.dim = self.x0.shape[0]

    def forward(self, inp):
        vals = inp.values if isinstance(inp, Tensor) else np.asarray(inp)
        x_t = vals[:, :self.dim]
        ts = np.rint(vals[:, self.dim] * self.schedule.T).astype(int)
        ab = self.schedule.alpha_bars[ts - 1][:, None]
        eps = (x_t - np.sqrt(ab) * self.x0) / np.sqrt(1.0 - ab)
        return Tensor(eps)

    def params(self):
        return []


def test_schedule_recurrence_and_validation():
    sched = linear_schedule(T=50)
    assert sched.T == 50
    assert np.all(np.diff(sched.alpha_bars) < 0)
    recon = np.cumprod(1.0 - sched.betas)
    assert np.allclose(sched.alpha_bars, recon, atol=1e-14)
    with pytest.raises(ValueError):
        NoiseSchedule(np.array([0.5, 0.0]))


@pytest.mark.parametrize("betas, step", [([1e-17, 0.1], 0), ([1e-300], 0), ([0.1, 1e-17], 1),
                                         ([1 - 1e-16] * 21, 20)])
def test_a_schedule_whose_alpha_bar_stands_still_or_underflows_is_refused(betas, step):
    # 1 - 1e-17 rounds to 1, so alpha_bar stands still; 21 factors of about
    # 1.1e-16 underflow to 0. Either would make a reverse step divide by 0.
    with pytest.raises(ValueError, match=rf"^betas\[{step}\] = .*: alpha_bar = cumprod"):
        NoiseSchedule(np.array(betas))
    assert NoiseSchedule(np.array(betas[:step] + [0.5])).alpha_bars[-1] > 0


def test_q_sample_noiseless_schedule_limit():
    betas = np.full(10, 1e-12)
    sched = NoiseSchedule(betas)
    x0 = np.array([[1.0, -2.0]])
    x_t, _eps = q_sample(sched, x0, 10, RandomSource(0))
    assert np.allclose(x_t, x0, atol=1e-5)


def test_q_sample_terminal_pure_noise():
    betas = np.full(40, 0.5)
    sched = NoiseSchedule(betas)
    x0 = np.array([[3.0]])
    x_t, eps = q_sample(sched, x0, 40, RandomSource(1))
    assert np.allclose(x_t, eps, atol=1e-4)


def test_q_sample_matches_stepwise_composition():
    # closed-form marginal draw vs sequential application of the one-step kernel
    sched = linear_schedule(T=20, beta_start=1e-3, beta_end=0.1)
    x0 = np.array([0.7, -1.2])
    t = 15
    n = 100_000
    rng = RandomSource(2)
    direct = np.stack([q_sample(sched, x0, t, rng)[0][0] for _ in range(1)])
    draws = math.sqrt(sched.alpha_bar(t)) * x0 + math.sqrt(1 - sched.alpha_bar(t)) \
        * rng.standard_normal((n, 2))
    stepwise = np.tile(x0, (n, 1))
    rng2 = RandomSource(3)
    for s in range(1, t + 1):
        b = sched.betas[s - 1]
        stepwise = math.sqrt(1 - b) * stepwise + math.sqrt(b) * rng2.standard_normal((n, 2))
    assert np.allclose(draws.mean(axis=0), stepwise.mean(axis=0), atol=0.02)
    assert np.allclose(draws.var(axis=0), stepwise.var(axis=0), rtol=0.02)
    # and both match the closed form
    assert np.allclose(stepwise.mean(axis=0), math.sqrt(sched.alpha_bar(t)) * x0, atol=0.02)
    assert np.allclose(stepwise.var(axis=0), 1 - sched.alpha_bar(t), rtol=0.02)


def test_q_sample_rejects_bad_t():
    sched = linear_schedule(T=10)
    with pytest.raises(ValueError):
        q_sample(sched, np.zeros((1, 1)), 0, RandomSource(0))
    with pytest.raises(ValueError):
        q_sample(sched, np.zeros((1, 1)), 11, RandomSource(0))


def test_posterior_params_t1_deterministic():
    sched = linear_schedule(T=10)
    x0 = np.array([0.4])
    x1 = np.array([0.9])
    mu, beta_tilde = posterior_params(sched, x1, x0, 1)
    assert beta_tilde == pytest.approx(0.0, abs=1e-18)
    assert np.allclose(mu, x0, atol=1e-12)


def test_posterior_params_zero_inputs():
    sched = linear_schedule(T=10)
    mu, _bt = posterior_params(sched, np.zeros(3), np.zeros(3), 5)
    assert np.array_equal(mu, np.zeros(3))


def test_posterior_params_matches_gaussian_conditioning():
    # scalar joint of (x_{t-1}, x_t) given x0 via the forward-chain moments
    sched = linear_schedule(T=30, beta_start=5e-3, beta_end=0.08)
    rng = RandomSource(4)
    for t in (2, 7, 30):
        x0 = float(rng.standard_normal())
        x_t = float(rng.standard_normal())
        ab_t = sched.alpha_bar(t)
        ab_p = sched.alpha_bar(t - 1)
        beta_t = float(sched.betas[t - 1])
        mean = np.array([math.sqrt(ab_p) * x0, math.sqrt(ab_t) * x0])
        cross = math.sqrt(1 - beta_t) * (1 - ab_p)
        cov = np.array([[1 - ab_p, cross], [cross, 1 - ab_t]])
        cond = gaussian_condition(Gaussian(mean, cov), 1, [x_t])
        mu, bt = posterior_params(sched, np.array([x_t]), np.array([x0]), t)
        assert mu[0] == pytest.approx(cond.mean[0], abs=1e-12)
        assert bt == pytest.approx(cond.cov[0, 0], abs=1e-12)


def test_loss_simple_zero_net_concentrates_at_dim():
    model = make_diffusion(3, RandomSource(5), T=20, hidden=4)
    for p in model.params():
        p.values[:] = 0.0
    rng = RandomSource(6)
    vals = [float(loss_simple(model, rng.standard_normal((64, 3)), rng).values)
            for _ in range(40)]
    mean = np.mean(vals)
    # E||eps||^2 = d; 3-sigma Monte Carlo band around 3
    se = np.std(vals) / math.sqrt(len(vals))
    assert abs(mean - 3.0) < 3 * se + 0.05


def test_loss_simple_zero_at_oracle():
    sched = linear_schedule(T=15)
    x0 = np.array([0.5, -0.25])
    model = DiffusionModel(sched, OracleEpsNet(sched, x0), 2)
    loss = loss_simple(model, np.tile(x0, (32, 1)), RandomSource(7))
    assert float(loss.values) == pytest.approx(0.0, abs=1e-18)


def test_loss_simple_gradient_fd():
    model = make_diffusion(1, RandomSource(8), T=5, hidden=3)
    X = RandomSource(9).standard_normal((4, 1))
    params = model.params()

    def loss_fn():
        return loss_simple(model, X, RandomSource(10))

    from latentlab.nn import backward, zero_grad
    zero_grad(params)
    loss = loss_fn()
    backward(loss)
    eps = 1e-4
    for p in params:
        flat = p.values.ravel()
        gflat = (p.grad if p.grad is not None else np.zeros_like(p.values)).ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            up = float(loss_fn().values)
            flat[i] = old - eps
            dn = float(loss_fn().values)
            flat[i] = old
            fd = (up - dn) / (2 * eps)
            scale = max(abs(fd), abs(gflat[i]), 1e-8)
            assert abs(fd - gflat[i]) <= 1e-4 * scale


def test_elbo_terms_zero_at_oracle():
    sched = linear_schedule(T=12)
    x0 = np.array([1.1])
    model = DiffusionModel(sched, OracleEpsNet(sched, x0), 1)
    terms = elbo_terms(model, x0[None, :], RandomSource(11))
    assert terms.shape == (12,)
    assert np.allclose(terms, 0.0, atol=1e-18)


def test_elbo_terms_zero_net_closed_form():
    # scalar case with eps_hat = 0: the t-term KL equals |mu_tilde - mu_theta|^2/(2 bt)
    sched = linear_schedule(T=8)
    model = make_diffusion(1, RandomSource(12), T=8, hidden=4)
    for p in model.params():
        p.values[:] = 0.0
    x0 = np.array([[0.8]])
    rng_seed = 13
    terms = elbo_terms(model, x0, RandomSource(rng_seed))
    # independent recomputation with the same draws
    rng = RandomSource(rng_seed)
    for t in range(1, 9):
        x_t, _eps = q_sample(sched, x0, t, rng)
        ab_t = sched.alpha_bar(t)
        ab_p = sched.alpha_bar(t - 1)
        beta_t = float(sched.betas[t - 1])
        x0_hat = x_t / math.sqrt(ab_t)        # eps_hat = 0
        coef0 = math.sqrt(ab_p) * beta_t / (1 - ab_t)
        coeft = math.sqrt(1 - beta_t) * (1 - ab_p) / (1 - ab_t)
        mu_theta = coef0 * x0_hat + coeft * x_t
        mu_tilde, bt = posterior_params(sched, x_t, x0, t)
        if t == 1:
            expected = 0.5 * float(np.sum((mu_tilde - mu_theta) ** 2))
        else:
            expected = float(np.sum((mu_tilde - mu_theta) ** 2)) / (2 * bt)
        assert terms[t - 1] == pytest.approx(expected, rel=1e-12)
    assert np.all(terms >= 0.0)


def test_sample_single_step_perfect_oracle():
    betas = np.array([0.5])
    sched = NoiseSchedule(betas)
    c = np.array([2.5, -1.0])
    model = DiffusionModel(sched, OracleEpsNet(sched, c), 2)
    out = sample(model, 6, RandomSource(14))
    assert np.allclose(out, c, atol=1e-12)


def test_sample_untrained_finite():
    model = make_diffusion(2, RandomSource(15), T=10, hidden=4)
    out = sample(model, 20, RandomSource(16))
    assert out.shape == (20, 2)
    assert np.all(np.isfinite(out))


def test_train_descends_and_deterministic():
    rng = RandomSource(17)
    comp = (rng.uniform(400) < 0.5).astype(int)
    X = (np.where(comp == 0, -1.5, 1.5) + 0.3 * rng.standard_normal(400))[:, None]

    def run():
        model = make_diffusion(1, RandomSource(18), T=20, hidden=16)
        before = float(loss_simple(model, X, RandomSource(99)).values)
        trace = train(model, X, epochs=10, batch=100, rng=RandomSource(19), lr=3e-3)
        after = float(loss_simple(model, X, RandomSource(99)).values)
        return trace, before, after

    (t1, before, after), (t2, _b2, _a2) = run(), run()
    assert np.array_equal(t1, t2)
    assert after < before    # common-random-numbers comparison


def test_train_zero_variance_data_learns_scaling():
    # all-zero data: optimal eps_hat(x_t, t) = x_t / sqrt(1 - ab_t)
    X = np.zeros((200, 1))
    model = make_diffusion(1, RandomSource(20), T=10, hidden=16)
    rng = RandomSource(21)
    init_losses = [float(loss_simple(model, X[:64], rng).values) for _ in range(10)]
    train(model, X, epochs=120, batch=100, rng=RandomSource(22), lr=3e-3)
    final_losses = [float(loss_simple(model, X[:64], rng).values) for _ in range(10)]
    assert np.mean(final_losses) < 0.5 * np.mean(init_losses)


def test_time_features_shape():
    f = time_features(3, 10, 5)
    assert f.shape == (5, TIME_FEATURES)
    assert np.allclose(f[:, 0], 0.3)
