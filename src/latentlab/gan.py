"""Toy generative adversarial pair on low-dimensional synthetic data:
a generator pushing Gaussian prior noise into data space and a sigmoid
discriminator, trained by alternating updates.

No likelihood is ever computed for generator samples; evaluation is by
moment matching and histogram distances only. The generator uses the
non-saturating loss by default; the exact minimax form is available via
saturating=True.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import int_fields
from .nn import AdamState, Mlp, Recorder, check_counts, check_lr, descend, map_rows

__all__ = ["GanModel", "make_gan", "disc_loss", "gen_loss", "train", "sample"]

CLAMP = 1e-7


@dataclass
class GanModel:
    """Generator (prior_dim -> data dim) and discriminator (data dim -> 1,
    sigmoid output in (0,1))."""

    gen: Mlp
    disc: Mlp
    prior_dim: int

    def __post_init__(self):
        int_fields(self, prior_dim=0)
        if self.gen.in_dim != self.prior_dim:
            raise ValueError("generator input dim must equal prior_dim")
        if self.gen.out_dim != self.disc.in_dim:
            raise ValueError("generator output dim must match discriminator input dim")
        if self.disc.out_dim != 1:
            raise ValueError("discriminator must emit one probability")
        if self.disc.activations[-1] != "sigmoid":
            raise ValueError("discriminator must end in a sigmoid")

    @property
    def data_dim(self):
        return self.gen.out_dim


def make_gan(data_dim, prior_dim, rng, hidden=32):
    check_counts(latent_dim=prior_dim, hidden=hidden)
    gen = Mlp.create([prior_dim, hidden, data_dim], ["tanh", "identity"], rng.split(1))
    disc = Mlp.create([data_dim, hidden, 1], ["tanh", "sigmoid"], rng.split(2))
    return GanModel(gen, disc, prior_dim)


def _disc_prob(model, batch):
    return model.disc.forward(batch).clip(CLAMP, 1.0 - CLAMP)


def disc_loss(model, real_batch, fake_batch):
    """-(mean log D(real) + mean log(1 - D(fake))), with outputs clamped
    away from {0, 1} before the log."""
    d_real = _disc_prob(model, real_batch)
    d_fake = _disc_prob(model, fake_batch)
    return -(d_real.log().mean() + (1.0 - d_fake).log().mean())


def gen_loss(model, fake_batch, saturating=False):
    """Non-saturating generator loss -mean log D(fake); saturating=True gives
    the raw minimax form +mean log(1 - D(fake))."""
    d_fake = _disc_prob(model, fake_batch)
    if saturating:
        return (1.0 - d_fake).log().mean()
    return -(d_fake.log().mean())


def _prior(model, n, rng):
    return rng.standard_normal((n, model.prior_dim))


def train(model, data, steps, batch, rng, k_disc=1, lr=1e-3, saturating=False):
    """Alternating minimax training: k_disc discriminator updates per
    generator update. Returns (disc_trace, gen_trace)."""
    check_counts(steps=steps, batch=batch, k_disc=k_disc)
    check_lr(lr)
    X = np.atleast_2d(np.asarray(data, dtype=float))
    N = X.shape[0]
    gen_params = model.gen.params()
    disc_params = model.disc.params()
    gen_state = AdamState()
    disc_state = AdamState()
    generate = Recorder(model.gen.forward)        # forward only: a detached fake batch
    disc_step = Recorder(lambda real, fake: disc_loss(model, real, fake))
    gen_step = Recorder(lambda z: gen_loss(model, model.gen.forward(z), saturating=saturating))
    disc_trace = np.empty(steps)
    gen_trace = np.empty(steps)
    for step in range(steps):
        for _ in range(k_disc):
            idx = rng.integers(0, N, batch)
            fake = generate(_prior(model, batch, rng)).values
            dl = disc_step(X[idx], fake)
            descend(dl, disc_params, disc_state, lr,
                    f"discriminator loss diverged at step {step}")
        # the discriminator's gradients from this loss are never read: its
        # next step zeroes them first
        gl = gen_step(_prior(model, batch, rng))
        descend(gl, gen_params, gen_state, lr, f"generator loss diverged at step {step}")
        disc_trace[step] = float(dl.values)
        gen_trace[step] = float(gl.values)
    return disc_trace, gen_trace


def sample(model, n, rng):
    """n generator outputs of prior draws, block by block of rows."""
    return map_rows(lambda z: model.gen.forward(z).values, [_prior(model, n, rng)],
                    model.gen.width)
