"""Denoising diffusion with a fixed forward noising chain: closed-form
marginals q(x_t | x_0), the tractable conditional posterior
q(x_{t-1} | x_t, x_0), the per-step KL decomposition of the bound,
noise-prediction training, and ancestral sampling.

Conventions: t runs 1..T; alpha_bar_0 = 1 so the t=1 posterior is
deterministic; the reverse variance is fixed to beta_tilde_t (not learned).
The network input is [x_t, t/T, sin(2 pi t/T), cos(2 pi t/T),
sin(4 pi t/T), cos(4 pi t/T)].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import float_list
from .nn import Mlp, Tensor, check_counts, concat, fit_minibatch

__all__ = ["NoiseSchedule", "DiffusionModel", "linear_schedule", "make_diffusion",
           "time_features", "q_sample", "posterior_params", "loss_simple",
           "elbo_terms", "sample", "train", "to_json", "from_json", "TIME_FEATURES"]

TIME_FEATURES = 5


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise variances beta_t in (0,1) and their cumulative products
    alpha_bar_t = prod_s (1 - beta_s), strictly decreasing."""

    betas: np.ndarray
    alpha_bars: np.ndarray

    def __post_init__(self):
        betas = np.asarray(self.betas, dtype=float)
        if np.any(betas <= 0) or np.any(betas >= 1):
            raise ValueError("betas must lie strictly inside (0, 1)")
        ab = np.asarray(self.alpha_bars, dtype=float)
        if ab.shape != betas.shape:
            raise ValueError("alpha_bars must match betas in length")
        expected = np.cumprod(1.0 - betas)
        if not np.allclose(ab, expected, rtol=0, atol=1e-14 * np.maximum(1.0, np.abs(expected)).max()):
            raise ValueError("alpha_bars do not satisfy the cumulative-product recurrence")
        if np.any(np.diff(ab) >= 0):
            raise ValueError("alpha_bars must be strictly decreasing")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", ab)

    @property
    def T(self):
        return self.betas.shape[0]

    def alpha_bar(self, t):
        """alpha_bar_t with the alpha_bar_0 = 1 convention; t in 0..T."""
        if t == 0:
            return 1.0
        return float(self.alpha_bars[t - 1])


def linear_schedule(T=50, beta_start=1e-4, beta_end=0.02):
    betas = np.linspace(beta_start, beta_end, T)
    return NoiseSchedule(betas, np.cumprod(1.0 - betas))


@dataclass
class DiffusionModel:
    """Noise-prediction network over data of dimension dim plus a fixed
    schedule. eps_net maps (dim + TIME_FEATURES) inputs to dim outputs."""

    schedule: NoiseSchedule
    eps_net: Mlp
    dim: int

    def __post_init__(self):
        if hasattr(self.eps_net, "in_dim"):
            if self.eps_net.in_dim != self.dim + TIME_FEATURES:
                raise ValueError("eps_net input dim must be dim + TIME_FEATURES")
            if self.eps_net.out_dim != self.dim:
                raise ValueError("eps_net output dim must equal data dim")

    def params(self):
        return self.eps_net.params()


def to_json(model):
    return {"dim": model.dim, "betas": float_list(model.schedule.betas),
            "eps_net": model.eps_net.to_json()}


def from_json(obj):
    betas = np.asarray(obj["betas"], dtype=float)
    return DiffusionModel(NoiseSchedule(betas, np.cumprod(1.0 - betas)),
                          Mlp.from_json(obj["eps_net"]), int(obj["dim"]))


def make_diffusion(dim, rng, T=50, hidden=64, hidden_layers=2,
                   beta_start=1e-4, beta_end=0.02):
    """Fresh model on a linear schedule. The default beta range follows the
    desk-scale convention; for generation quality pick beta_end so that
    alpha_bar_T is near zero (otherwise q(x_T | x_0) sits far from the
    standard-normal prior the sampler starts from)."""
    check_counts(T=T, hidden=hidden)
    net = Mlp.create([dim + TIME_FEATURES] + [hidden] * hidden_layers + [dim],
                     ["tanh"] * hidden_layers + ["identity"], rng)
    return DiffusionModel(linear_schedule(T, beta_start, beta_end), net, dim)


def time_features(t, T, n_rows=None):
    """Fixed conditioning features for step t (scalar or per-row array)."""
    u = np.asarray(t, dtype=float) / T
    feats = np.stack([u,
                      np.sin(2 * np.pi * u), np.cos(2 * np.pi * u),
                      np.sin(4 * np.pi * u), np.cos(4 * np.pi * u)], axis=-1)
    if feats.ndim == 1 and n_rows is not None:
        feats = np.tile(feats, (n_rows, 1))
    return feats


def q_sample(schedule, x0, t, rng):
    """Draw x_t ~ q(x_t | x_0) = N(sqrt(ab_t) x_0, (1 - ab_t) I); returns the
    noised sample together with the epsilon used (the training target)."""
    if not (1 <= t <= schedule.T):
        raise ValueError(f"t must be in 1..{schedule.T}")
    X0 = np.atleast_2d(np.asarray(x0, dtype=float))
    ab = schedule.alpha_bar(t)
    eps = rng.standard_normal(X0.shape)
    x_t = math.sqrt(ab) * X0 + math.sqrt(1.0 - ab) * eps
    return x_t, eps


def _posterior_coefs(schedule, t):
    """(coef0, coeft, beta_tilde) of q(x_{t-1} | x_t, x_0): the posterior
    mean is coef0 x_0 + coeft x_t and its variance beta_tilde."""
    beta_t = float(schedule.betas[t - 1])
    ab_t = schedule.alpha_bar(t)
    ab_prev = schedule.alpha_bar(t - 1)
    coef0 = math.sqrt(ab_prev) * beta_t / (1.0 - ab_t)
    coeft = math.sqrt(1.0 - beta_t) * (1.0 - ab_prev) / (1.0 - ab_t)
    return coef0, coeft, (1.0 - ab_prev) / (1.0 - ab_t) * beta_t


def posterior_params(schedule, x_t, x0, t):
    """Mean and variance of q(x_{t-1} | x_t, x_0):
    mu = (sqrt(ab_{t-1}) b_t x_0 + sqrt(1-b_t)(1-ab_{t-1}) x_t)/(1-ab_t),
    var = (1-ab_{t-1}) b_t / (1-ab_t)."""
    if not (1 <= t <= schedule.T):
        raise ValueError(f"t must be in 1..{schedule.T}")
    coef0, coeft, beta_tilde = _posterior_coefs(schedule, t)
    mu = coef0 * np.asarray(x0, dtype=float) + coeft * np.asarray(x_t, dtype=float)
    return mu, beta_tilde


def _predict_eps(model, x_t, t):
    """eps_net's output Tensor at an (n, dim) array x_t and a step t (scalar
    or per row)."""
    feats = time_features(t, model.schedule.T, x_t.shape[0])
    return model.eps_net.forward(concat([Tensor(x_t), Tensor(feats)], axis=1))


def _mu_from_eps(schedule, x_t, eps_hat, t):
    """Posterior mean with x_0 replaced by its epsilon-parameterized estimate
    x0_hat = (x_t - sqrt(1-ab_t) eps_hat) / sqrt(ab_t)."""
    coef0, coeft, _ = _posterior_coefs(schedule, t)
    ab_t = schedule.alpha_bar(t)
    x0_hat = (x_t - math.sqrt(1.0 - ab_t) * eps_hat) * (1.0 / math.sqrt(ab_t))
    return x0_hat * coef0 + x_t * coeft


def loss_simple(model, x0_batch, rng):
    """Noise-prediction objective: per-item uniform t, single epsilon,
    squared error summed over coordinates and averaged over the batch."""
    X0 = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    n = X0.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    ts = rng.integers(1, model.schedule.T + 1, n)
    eps = rng.standard_normal((n, model.dim))
    ab = model.schedule.alpha_bars[ts - 1][:, None]
    x_t = np.sqrt(ab) * X0 + np.sqrt(1.0 - ab) * eps
    eps_hat = _predict_eps(model, x_t, ts)
    return ((eps_hat - Tensor(eps)) ** 2).sum() * (1.0 / n)


def elbo_terms(model, x0, rng):
    """Single-draw estimates of the per-step divergences between the
    tractable posterior and the learned reverse transition.

    For t >= 2 each term is |mu_tilde - mu_theta|^2 / (2 beta_tilde_t); the
    deterministic t=1 step contributes 0.5 |x_0 - mu_theta(x_1, 1)|^2.
    """
    X0 = np.atleast_2d(np.asarray(x0, dtype=float))
    terms = []
    for t in range(1, model.schedule.T + 1):
        x_t, _eps = q_sample(model.schedule, X0, t, rng)
        eps_hat = _predict_eps(model, x_t, t).values
        mu_theta = _mu_from_eps(model.schedule, x_t, eps_hat, t)
        mu_tilde, beta_tilde = posterior_params(model.schedule, x_t, X0, t)
        sq = float(np.sum((mu_tilde - mu_theta) ** 2))
        if t == 1:
            terms.append(0.5 * sq)
        else:
            terms.append(sq / (2.0 * beta_tilde))
    return np.asarray(terms)


def sample(model, n, rng):
    """Ancestral reverse chain from x_T ~ N(0, I); the final step adds no noise."""
    x = rng.standard_normal((n, model.dim))
    for t in range(model.schedule.T, 0, -1):
        eps_hat = _predict_eps(model, x, t).values
        mu = _mu_from_eps(model.schedule, x, eps_hat, t)
        if t > 1:
            beta_tilde = _posterior_coefs(model.schedule, t)[2]
            x = mu + math.sqrt(beta_tilde) * rng.standard_normal(x.shape)
        else:
            x = mu
    return x


def train(model, data, epochs, batch, rng, lr=1e-3):
    """Minibatch descent on loss_simple; returns per-epoch mean loss."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    return fit_minibatch(lambda xb, r: loss_simple(model, xb, r), model.params(), X,
                         epochs, batch, rng, lr)
