"""Variational autoencoder: Gaussian encoder with diagonal covariance,
decoder likelihood (fixed-variance Gaussian or Bernoulli), reparameterized
single-sample ELBO, minibatch training, and prior sampling.

elbo() is one tape over its batch. The per-row functions (elbo_rows, encode,
reconstruct, sample) run the networks block by block of rows (nn.map_rows)
and draw their random numbers in the order elbo() and the one-pass forms do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import check_counts, check_width, int_fields, real_fields, sigmoid
from .nn import Mlp, Tensor, eager, fit_minibatch, map_rows

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
        int_fields(self, latent_dim=0)
        real_fields(self, sigma_dec=0)
        if self.likelihood not in ("gaussian", "bernoulli"):
            raise ValueError("likelihood must be 'gaussian' or 'bernoulli'")
        if self.encoder.out_dim != 2 * self.latent_dim:
            raise ValueError("encoder output dim must be 2 * latent_dim")
        if self.decoder.in_dim != self.latent_dim:
            raise ValueError("decoder input dim must equal latent_dim")
        _check_sigma_dec(self.sigma_dec)

    @property
    def data_dim(self):
        return self.decoder.out_dim

    @property
    def width(self):
        """Floats per row that a block of the encoder and decoder holds."""
        return self.encoder.width + self.decoder.width

    def params(self):
        return self.encoder.params() + self.decoder.params()


def _check_sigma_dec(s):
    if not (math.isfinite(s) and s > 0 and 0 < s * s < math.inf):
        raise ValueError(f"sigma_dec must be positive and finite, and so must its square, "
                         f"got {s}")


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
    _check_sigma_dec(sigma_dec)
    enc_dims = [data_dim] + [hidden] * hidden_layers + [2 * latent_dim]
    dec_dims = [latent_dim] + [hidden] * hidden_layers + [data_dim]
    acts = ["tanh"] * hidden_layers + ["identity"]
    encoder = Mlp.create(enc_dims, acts, rng.split(1))
    decoder = Mlp.create(dec_dims, acts, rng.split(2))
    return VaeModel(encoder, decoder, latent_dim, likelihood, sigma_dec)


def _rows(model, x):
    """x as a 2-D float array of the model's width (core.check_width)."""
    return check_width(np.atleast_2d(np.asarray(x, dtype=float)), model.data_dim)


def _posterior(model, x):
    """Posterior parameter Tensors (mu, sigma) of a batch; sigma =
    exp(logvar/2) clamped to [1e-4, 1e4] so the KL term stays finite."""
    h = model.encoder.forward(x)
    d = model.latent_dim
    mu = h[:, :d]
    logvar = h[:, d:].clip(4 * LOGVAR_MIN, 4 * LOGVAR_MAX)   # overflow guard only
    sigma = (logvar * 0.5).exp().clip(SIGMA_MIN, SIGMA_MAX)
    return mu, sigma


def encode(model, x):
    """Posterior parameters (mu, sigma) of each row of x, as arrays, block by
    block of rows; sigma is clamped as in training."""
    return map_rows(lambda xb: tuple(t.values for t in _posterior(model, xb)),
                    [_rows(model, x)], model.width)


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


def _draw(model, n_rows, rng):
    """One draw of eps ~ N(0, I), (n_rows, latent_dim)."""
    return rng.standard_normal((n_rows, model.latent_dim))


def _elbo_inputs(model, x, rng, n_samples):
    """The batch as a 2-D array, then n_samples draws of eps."""
    X = _rows(model, x)
    return [X] + [_draw(model, X.shape[0], rng) for _ in range(n_samples)]


def _kl(mu, sigma):
    """Per-point KL(N(mu, sigma^2) || N(0, I)) of posterior Tensors."""
    sigma2 = sigma * sigma
    return (sigma2 + mu * mu - 1.0 - sigma2.log()).sum(axis=1) * 0.5


def _elbo_parts(model, x, *eps):
    """ElboParts of a batch Tensor x; z = mu + sigma * eps as in
    reparameterize(), the reconstruction term summed over the eps draws."""
    mu, sigma = _posterior(model, x)
    kl_per_point = _kl(mu, sigma)
    recon_acc = None
    for e in eps:
        r = _recon_loglik(model, x, mu + sigma * e)
        recon_acc = r if recon_acc is None else recon_acc + r
    recon = recon_acc.mean() * (1.0 / len(eps))
    kl = kl_per_point.mean()
    return ElboParts(recon, kl, recon - kl)


def elbo(model, x, rng, n_samples=1):
    """Reparameterized ELBO for a batch, averaged over points.

    KL is the closed form 0.5 * sum(sigma^2 + mu^2 - 1 - log sigma^2); the
    reconstruction term uses n_samples epsilon draws (1 by default).
    """
    return eager(lambda *t: _elbo_parts(model, *t), _elbo_inputs(model, x, rng, n_samples))


def elbo_rows(model, x, rng, n_samples=1):
    """The ELBO of each point (N,) from the draws elbo() makes with the same
    rng; their mean is elbo(...).elbo.

    The posterior and KL of every row come first, block by block of rows.
    Then each draw of eps, in turn, adds its log p(x|z) into every row's sum.
    """
    X = _rows(model, x)

    def posterior_kl(xb):
        mu, sigma = _posterior(model, xb)
        return mu.values, sigma.values, _kl(mu, sigma).values

    def recon(xb, mu, sigma, eps):
        return _recon_loglik(model, Tensor(xb), Tensor(mu) + Tensor(sigma) * Tensor(eps)).values

    def draw_terms():
        return map_rows(recon, [X, mu, sigma, _draw(model, X.shape[0], rng)], model.width)

    mu, sigma, kl = map_rows(posterior_kl, [X], model.width)
    recon_acc = draw_terms()
    for _ in range(n_samples - 1):
        recon_acc += draw_terms()
    return recon_acc * (1.0 / n_samples) - kl


def train(model, data, epochs, batch, rng, lr=1e-3):
    """Minibatch ascent on the single-sample ELBO; returns per-epoch means."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    return -fit_minibatch(lambda rows, r: _elbo_inputs(model, rows, r, 1),
                          lambda x, eps: -_elbo_parts(model, x, eps).elbo,
                          model.params(), X, epochs, batch, rng, lr)


def sample(model, n, rng, binarize=False):
    """Prior draws pushed through the decoder. Gaussian models add decoder
    noise; Bernoulli models emit probabilities (or binary draws)."""
    out = map_rows(lambda z: model.decoder.forward(z).values, [_draw(model, n, rng)],
                   model.decoder.width)
    if model.likelihood == "gaussian":
        return out + model.sigma_dec * rng.standard_normal(out.shape)
    probs = sigmoid(out)
    if binarize:
        return (rng.uniform(probs.shape) < probs).astype(float)
    return probs


def reconstruct(model, x):
    """Deterministic encode -> posterior-mean z -> decode round trip, block
    by block of rows."""
    def block(xb):
        out = model.decoder.forward(_posterior(model, xb)[0]).values
        return sigmoid(out) if model.likelihood == "bernoulli" else out
    return map_rows(block, [_rows(model, x)], model.width)
