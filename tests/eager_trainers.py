"""The deep trainers and step-by-step samplers as they were before training
steps and sampling loops were recorded once and replayed: each builds a
fresh tape on every step. They are copied as written then, with each
library name read from its module when called, so a reference swap that
replaces a loss, a network forward or the Tensor type reaches them.

install(mp, names) puts them in place of the library's versions. The
reference tests run their reference side through them, so that side never
records a program.
"""
import math

import numpy as np

from latentlab import arm, diffusion, flow, gan, nn, vae


def fit_minibatch(loss_fn, params, X, epochs, batch, rng, lr):
    nn.check_counts(epochs=epochs, batch=batch)
    nn.check_lr(lr)
    N = X.shape[0]
    state = nn.AdamState()
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(N)
        losses = []
        for start in range(0, N, batch):
            loss = loss_fn(X[order[start:start + batch]], rng)
            nn.descend(loss, params, state, lr, f"loss diverged at epoch {epoch}")
            losses.append(float(loss.values))
        trace.append(float(np.mean(losses)))
    return np.asarray(trace)


def vae_train(model, data, epochs, batch, rng, lr=1e-3):
    X = np.atleast_2d(np.asarray(data, dtype=float))
    return -fit_minibatch(lambda xb, r: -vae.elbo(model, xb, r).elbo, model.params(), X,
                          epochs, batch, rng, lr)


def flow_fit(model, data, epochs, batch, rng, lr=1e-3):
    if any(isinstance(layer, flow.PlanarLayer) for layer in model.layers):
        raise ValueError(
            "likelihood training requires analytically invertible layers "
            "(coupling/permutation); planar layers support evaluation only")
    X = np.atleast_2d(np.asarray(data, dtype=float))
    return -fit_minibatch(lambda xb, _r: -flow._loglik_tensor(model, xb).mean(),
                          model.params(), X, epochs, batch, rng, lr)


def diffusion_train(model, data, epochs, batch, rng, lr=1e-3):
    X = np.atleast_2d(np.asarray(data, dtype=float))
    return fit_minibatch(lambda xb, r: diffusion.loss_simple(model, xb, r), model.params(), X,
                         epochs, batch, rng, lr)


def diffusion_sample(model, n, rng):
    x = rng.standard_normal((n, model.dim))
    for t in range(model.schedule.T, 0, -1):
        eps_hat = diffusion._predict_eps(model, x, t).values
        mu = diffusion._mu_from_eps(model.schedule, x, eps_hat, t)
        if t > 1:
            beta_tilde = diffusion._posterior_coefs(model.schedule, t)[2]
            x = mu + math.sqrt(beta_tilde) * rng.standard_normal(x.shape)
        else:
            x = mu
    return x


def arm_train(model, data, epochs, batch, rng, lr=1e-3):
    X = arm._check_sequences(model, data)
    return -fit_minibatch(lambda xb, _r: -(arm._loglik_tensor(model, xb) * (1.0 / len(xb))),
                          model.params(), X, epochs, batch, rng, lr)


def arm_sample(model, n, rng):
    D, V = model.seq_len, model.alphabet
    X = np.zeros((n, D), dtype=int)
    for d in range(D):
        logits = arm.position_logits(model, X, d).values
        m = logits.max(axis=1, keepdims=True)
        p = np.exp(logits - m)
        p /= p.sum(axis=1, keepdims=True)
        u = rng.uniform(n)
        X[:, d] = (np.cumsum(p, axis=1) < u[:, None]).sum(axis=1).clip(0, V - 1)
    return X


def gan_train(model, data, steps, batch, rng, k_disc=1, lr=1e-3, saturating=False):
    nn.check_counts(steps=steps, batch=batch, k_disc=k_disc)
    nn.check_lr(lr)
    X = np.atleast_2d(np.asarray(data, dtype=float))
    N = X.shape[0]
    gen_params = model.gen.params()
    disc_params = model.disc.params()
    gen_state = nn.AdamState()
    disc_state = nn.AdamState()
    disc_trace = np.empty(steps)
    gen_trace = np.empty(steps)
    for step in range(steps):
        for _ in range(k_disc):
            idx = rng.integers(0, N, batch)
            fake = gan._gen_forward(model, batch, rng).values   # detached for the disc update
            dl = gan.disc_loss(model, X[idx], fake)
            nn.descend(dl, disc_params, disc_state, lr,
                       f"discriminator loss diverged at step {step}")
        # the discriminator's gradients from this loss are never read: its
        # next step zeroes them first
        gl = gan.gen_loss(model, gan._gen_forward(model, batch, rng), saturating=saturating)
        nn.descend(gl, gen_params, gen_state, lr, f"generator loss diverged at step {step}")
        disc_trace[step] = float(dl.values)
        gen_trace[step] = float(gl.values)
    return disc_trace, gen_trace


# (module, name) -> the copy that stands for it
EAGER = {(vae, "train"): vae_train, (flow, "fit"): flow_fit,
         (diffusion, "train"): diffusion_train, (diffusion, "sample"): diffusion_sample,
         (arm, "train"): arm_train, (arm, "sample"): arm_sample, (gan, "train"): gan_train}


def install(mp, names=None):
    """Replace each (module, name) in names (all of EAGER by default) by its
    copy."""
    for key in EAGER if names is None else names:
        mp.setattr(*key, EAGER[key])


def recordings(fn, *args):
    """(fn(*args), the number of programs nn.Recorder recorded meanwhile)."""
    count = [0]
    record = nn.Recorder._record

    def counting(self, arrays):
        count[0] += 1
        return record(self, arrays)
    nn.Recorder._record = counting
    try:
        return fn(*args), count[0]
    finally:
        nn.Recorder._record = record
