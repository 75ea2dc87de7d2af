"""Variational autoencoder: Gaussian encoder with diagonal covariance,
decoder likelihood (fixed-variance Gaussian or Bernoulli), reparameterized
single-sample ELBO, minibatch training, and prior sampling.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nn import Mlp, Tensor, _sigmoid, as_batch, check_counts, fit_minibatch

__all__ = ["VaeModel", "ElboParts", "make_vae", "encode", "reparameterize",
           "elbo", "elbo_rows", "train", "sample", "reconstruct"]

SIGMA_MIN = 1e-4
SIGMA_MAX = 1e4
LOGVAR_MIN = 2.0 * math.log(SIGMA_MIN)
LOGVAR_MAX = 2.0 * math.log(SIGMA_MAX)


@dataclass
class VaeModel:
    """Encoder emits (mu, log-variance) stacked along the feature axis;
    decoder maps latents to likelihood parameters."""

    encoder: Mlp
    decoder: Mlp
    latent_dim: int
    likelihood: str = "gaussian"
    sigma_dec: float = 0.1

    def __post_init__(self):
        if self.likelihood not in ("gaussian", "bernoulli"):
            raise ValueError("likelihood must be 'gaussian' or 'bernoulli'")
        if self.encoder.out_dim != 2 * self.latent_dim:
            raise ValueError("encoder output dim must be 2 * latent_dim")
        if self.decoder.in_dim != self.latent_dim:
            raise ValueError("decoder input dim must equal latent_dim")
        if self.likelihood == "gaussian" and self.sigma_dec <= 0:
            raise ValueError("sigma_dec must be positive")

    @property
    def data_dim(self):
        return self.decoder.out_dim

    def params(self):
        return self.encoder.params() + self.decoder.params()


@dataclass
class ElboParts:
    """recon = E_q[log p(x|z)] (single-sample unless n_samples > 1 was used),
    kl = analytic KL(q(z|x) || N(0, I)), elbo = recon - kl. Tensor-valued so
    training and finite-difference checks can reuse the same computation."""

    recon: Tensor
    kl: Tensor
    elbo: Tensor

    def floats(self):
        return (float(self.recon.values), float(self.kl.values), float(self.elbo.values))


def make_vae(data_dim, latent_dim, rng, hidden=64, likelihood="gaussian",
             sigma_dec=0.1, hidden_layers=1):
    """Default architecture: one hidden tanh layer of 64 units on both sides."""
    check_counts(latent_dim=latent_dim, hidden=hidden)
    enc_dims = [data_dim] + [hidden] * hidden_layers + [2 * latent_dim]
    dec_dims = [latent_dim] + [hidden] * hidden_layers + [data_dim]
    acts = ["tanh"] * hidden_layers + ["identity"]
    encoder = Mlp.create(enc_dims, acts, rng.split(1))
    decoder = Mlp.create(dec_dims, acts, rng.split(2))
    return VaeModel(encoder, decoder, latent_dim, likelihood, sigma_dec)


def encode(model, x):
    """Posterior parameters (mu, sigma) for a batch; sigma = exp(logvar/2)
    clamped to [1e-4, 1e4] so the KL term stays finite."""
    h = model.encoder.forward(x)
    d = model.latent_dim
    mu = h[:, :d]
    logvar = h[:, d:].clip(4 * LOGVAR_MIN, 4 * LOGVAR_MAX)   # overflow guard only
    sigma = (logvar * 0.5).exp().clip(SIGMA_MIN, SIGMA_MAX)
    return mu, sigma


def reparameterize(mu, sigma, rng):
    """z = mu + sigma * eps with exogenous eps ~ N(0, I); gradients flow to
    mu and sigma."""
    eps = Tensor(rng.standard_normal(mu.values.shape))
    return mu + sigma * eps


def _recon_loglik(model, x, z):
    """Per-point log p(x|z) for a batch Tensor x."""
    out = model.decoder.forward(z)
    if model.likelihood == "gaussian":
        var = model.sigma_dec ** 2
        sq = (x - out) ** 2
        per_point = sq.sum(axis=1) * (-0.5 / var) \
            + (-0.5 * model.data_dim * math.log(2 * math.pi * var))
    else:
        # logits -> stable Bernoulli log-likelihood
        logits = out
        log_p1 = -((-logits).softplus())
        log_p0 = -(logits.softplus())
        per_point = (x * log_p1 + (1.0 - x) * log_p0).sum(axis=1)
    return per_point


def _elbo_terms(model, x, rng, n_samples):
    """Per-point (sum over n_samples draws of log p(x|z), KL) tensors."""
    xb = as_batch(x)
    mu, sigma = encode(model, xb)
    sigma2 = sigma * sigma
    kl_per_point = (sigma2 + mu * mu - 1.0 - sigma2.log()).sum(axis=1) * 0.5
    recon_acc = None
    for _ in range(n_samples):
        z = reparameterize(mu, sigma, rng)
        r = _recon_loglik(model, xb, z)
        recon_acc = r if recon_acc is None else recon_acc + r
    return recon_acc, kl_per_point


def elbo(model, x, rng, n_samples=1):
    """Reparameterized ELBO for a batch, averaged over points.

    KL is the closed form 0.5 * sum(sigma^2 + mu^2 - 1 - log sigma^2); the
    reconstruction term uses n_samples epsilon draws (1 by default).
    """
    recon_acc, kl_per_point = _elbo_terms(model, x, rng, n_samples)
    recon = recon_acc.mean() * (1.0 / n_samples)
    kl = kl_per_point.mean()
    return ElboParts(recon, kl, recon - kl)


def elbo_rows(model, x, rng, n_samples=1):
    """The ELBO of each point (N,) from the draws elbo() makes with the same
    rng; their mean is elbo(...).elbo."""
    recon_acc, kl_per_point = _elbo_terms(model, x, rng, n_samples)
    return recon_acc.values * (1.0 / n_samples) - kl_per_point.values


def train(model, data, epochs, batch, rng, lr=1e-3):
    """Minibatch ascent on the single-sample ELBO; returns per-epoch means."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    return -fit_minibatch(lambda xb, r: -elbo(model, xb, r).elbo, model.params(), X,
                          epochs, batch, rng, lr)


def sample(model, n, rng, binarize=False):
    """Prior draws pushed through the decoder. Gaussian models add decoder
    noise; Bernoulli models emit probabilities (or binary draws)."""
    out = model.decoder.forward(rng.standard_normal((n, model.latent_dim))).values
    if model.likelihood == "gaussian":
        return out + model.sigma_dec * rng.standard_normal(out.shape)
    probs = _sigmoid(out)
    if binarize:
        return (rng.uniform(probs.shape) < probs).astype(float)
    return probs


def reconstruct(model, x):
    """Deterministic encode -> posterior-mean z -> decode round trip."""
    mu, _sigma = encode(model, x)
    out = model.decoder.forward(mu).values
    if model.likelihood == "bernoulli":
        return _sigmoid(out)
    return out
