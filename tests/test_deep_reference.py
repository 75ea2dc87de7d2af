"""Each deep-model computation has one implementation: one forward and one
inverse per flow layer over Tensors, a one-pass flow log-likelihood, one ARM
masked-input builder and the log_softmax op, one network input for diffusion,
and one descent step (nn.descend) behind every trainer, GAN's two updates
included. This file holds the code those changes replaced, copied as it was
written before them: the numpy flow inverses beside their tape twins, the
planar inverse's per-row scalar root-finder, the two-pass log-likelihood,
ARM's one-position input builder and hand-written log-softmax, the minibatch
loop and GAN's loop with their own descent steps, the diffusion loss with its
own network input, and Mlp.forward and the samplers with their own Tensor
wrapping. It checks that every deep family trains, scores and samples to the
same bits on both, and that the one-pass flow log-likelihood agrees with the
two-pass one.
"""
import math

import eager_trainers
import numpy as np
import pytest

from latentlab import arm, diffusion, flow, gan, nn, vae
from latentlab.core import RandomSource, category_codes
from latentlab.nn import (AdamState, Mlp, Tensor, adam_step, backward, check_counts, concat,
                          dense, zero_grad)

SEEDS = (0, 1)
FAMILIES = ("vae", "flow", "diffusion", "arm", "gan")


# ---------------------------------------------------------------------------
# Reference copies

def ref_mlp_forward(self, x):
    if not isinstance(x, Tensor):
        x = Tensor(np.atleast_2d(np.asarray(x, dtype=float)))
    if x.values.ndim != 2 or x.values.shape[1] != self.in_dim:
        raise ValueError(f"input shape {x.values.shape} does not match in_dim {self.in_dim}")
    h = x
    for W, b, act in zip(self.weights, self.biases, self.activations):
        h = dense(h, W, b, act)
    return h


def ref_fit_minibatch(loss_fn, params, X, epochs, batch, rng, lr):
    check_counts(epochs=epochs, batch=batch)
    N = X.shape[0]
    state = AdamState()
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(N)
        losses = []
        for start in range(0, N, batch):
            loss = loss_fn(X[order[start:start + batch]], rng)
            if not np.isfinite(loss.values):
                raise FloatingPointError(f"loss diverged at epoch {epoch}")
            zero_grad(params)
            backward(loss)
            state = adam_step(params, [p.grad for p in params], state, lr=lr)
            losses.append(float(loss.values))
        trace.append(float(np.mean(losses)))
    return np.asarray(trace)


# -- flow -------------------------------------------------------------------

def ref_u_hat_np(self):
    w, u = self.w.values, self.u.values
    wu = float(w @ u)
    m = -1.0 + math.log1p(math.exp(-abs(wu))) + max(wu, 0.0)
    return u + (m - wu) * w / float(w @ w)


def ref_planar_inverse(self, x):
    u_hat = ref_u_hat_np(self)
    w = self.w.values
    b = float(self.b.values[0])
    wu = float(w @ u_hat)
    X = np.atleast_2d(x)
    targets = X @ w
    z = np.empty_like(X)
    for i, target in enumerate(targets):
        alpha = _solve_planar_pre(target, wu, b)
        z[i] = X[i] - u_hat * math.tanh(alpha + b)
    return z


PLANAR_ROOT_MAX_ITERS = 100
PLANAR_ROOT_TOL = 1e-12


def _solve_planar_pre(target, wu, b):
    """Root of g(a) = a + wu * tanh(a + b) - target; g is strictly increasing
    because wu > -1."""
    lo = target - abs(wu) - 1.0
    hi = target + abs(wu) + 1.0
    a = 0.5 * (lo + hi)
    for _ in range(PLANAR_ROOT_MAX_ITERS):
        t = math.tanh(a + b)
        g = a + wu * t - target
        if abs(g) < PLANAR_ROOT_TOL:
            return a
        if g > 0:
            hi = a
        else:
            lo = a
        gp = 1.0 + wu * (1.0 - t * t)
        a_newton = a - g / gp
        a = a_newton if lo < a_newton < hi else 0.5 * (lo + hi)
    t = math.tanh(a + b)
    if abs(a + wu * t - target) > 1e-8:
        raise RuntimeError("planar inversion did not converge")
    return a


def ref_scatter_perm(self):
    perm = np.empty(self.dim, dtype=int)
    perm[self.idx_a] = np.arange(self.idx_a.size)
    perm[self.idx_b] = self.idx_a.size + np.arange(self.idx_b.size)
    return perm


def ref_coupling_forward(self, z):
    za = z[:, self.idx_a]
    zb = z[:, self.idx_b]
    s, t = self._s_t(za)
    zb_new = zb * s.exp() + t
    out = concat([za, zb_new], axis=1)[:, ref_scatter_perm(self)]
    logdet = s.sum(axis=1)
    return out, logdet


def ref_coupling_inverse(self, x):
    X = np.atleast_2d(x)
    za = Tensor(X[:, self.idx_a])
    s, t = self._s_t(za)
    zb = (X[:, self.idx_b] - t.values) * np.exp(-s.values)
    z = np.empty_like(X)
    z[:, self.idx_a] = X[:, self.idx_a]
    z[:, self.idx_b] = zb
    return z


def ref_coupling_inverse_tensor(self, x):
    za = x[:, self.idx_a]
    xb = x[:, self.idx_b]
    s, t = self._s_t(za)
    zb = (xb - t) * (-s).exp()
    z = concat([za, zb], axis=1)[:, ref_scatter_perm(self)]
    inv_logdet = -(s.sum(axis=1))
    return z, inv_logdet


def ref_permutation_forward(self, z):
    out = z[:, self.perm]
    return out, Tensor(np.zeros(z.values.shape[0]))


def ref_permutation_inverse(self, x):
    return np.atleast_2d(x)[:, self.inv_perm]


def ref_permutation_inverse_tensor(self, x):
    return x[:, self.inv_perm], Tensor(np.zeros(x.values.shape[0]))


def ref_forward_with_logdet(model, z0):
    z = z0 if isinstance(z0, Tensor) else Tensor(np.atleast_2d(np.asarray(z0, dtype=float)))
    total = Tensor(np.zeros(z.values.shape[0]))
    for layer in model.layers:
        z, ld = layer.forward(z)
        total = total + ld
    return z, total


def ref_inverse(model, x):
    z = np.atleast_2d(np.asarray(x, dtype=float))
    for layer in reversed(model.layers):
        z = layer.inverse(z)
    return z


def ref_base_logpdf(z):
    d = z.shape[1]
    return -0.5 * (d * math.log(2 * math.pi) + np.sum(z * z, axis=1))


def ref_flow_log_likelihood(model, x):
    X = np.atleast_2d(np.asarray(x, dtype=float))
    z0 = ref_inverse(model, X)
    _, logdet = ref_forward_with_logdet(model, Tensor(z0))
    return ref_base_logpdf(z0) - logdet.values


def ref_flow_loglik_tensor(model, x):
    z = x if isinstance(x, Tensor) else Tensor(np.atleast_2d(np.asarray(x, dtype=float)))
    total = Tensor(np.zeros(z.values.shape[0]))
    for layer in reversed(model.layers):
        if not hasattr(layer, "inverse_tensor"):
            raise ValueError(
                "likelihood training requires analytically invertible layers "
                "(coupling/permutation); planar layers support evaluation only")
        z, ld = layer.inverse_tensor(z)
        total = total + ld
    d = z.values.shape[1]
    base = (z * z).sum(axis=1) * (-0.5) + (-0.5 * d * math.log(2 * math.pi))
    return base + total


def ref_flow_fit(model, data, epochs, batch, rng, lr=1e-3):
    X = np.atleast_2d(np.asarray(data, dtype=float))
    return -ref_fit_minibatch(lambda xb, _r: -ref_flow_loglik_tensor(model, Tensor(xb)).mean(),
                              model.params(), X, epochs, batch, rng, lr)


def ref_flow_sample(model, n, rng):
    z0 = rng.standard_normal((n, model.dim))
    x, _ = ref_forward_with_logdet(model, Tensor(z0))
    return x.values


# -- ARM --------------------------------------------------------------------

def ref_masked_inputs(model, X):
    N, D = X.shape
    V = model.alphabet
    oh = arm._onehot(X, V)
    rows = np.zeros((N, D, D * V + D))
    for d in range(D):
        masked = oh.copy()
        masked[:, d:, :] = 0.0
        rows[:, d, :D * V] = masked.reshape(N, D * V)
        rows[:, d, D * V + d] = 1.0
    return rows.reshape(N * D, D * V + D)


def ref_position_logits(model, prefix, d):
    X = category_codes(prefix, "ARM sequences", model.alphabet)[0]
    N, D = X.shape
    V = model.alphabet
    oh = arm._onehot(X, V)
    oh[:, d:, :] = 0.0
    inp = np.zeros((N, D * V + D))
    inp[:, :D * V] = oh.reshape(N, D * V)
    inp[:, D * V + d] = 1.0
    return model.cond_net.forward(Tensor(inp))


def ref_arm_loglik_tensor(model, X):
    N, D = X.shape
    V = model.alphabet
    inp = Tensor(ref_masked_inputs(model, X))
    logits = model.cond_net.forward(inp)
    logp = logits.log_softmax()
    targets = np.zeros((N * D, V))
    targets[np.arange(N * D), X.reshape(-1)] = 1.0
    return (logp * targets).sum()


def ref_arm_log_likelihood_batch(model, x):
    X = arm._check_sequences(model, x)
    N, D = X.shape
    inp = Tensor(ref_masked_inputs(model, X))
    logp = model.cond_net.forward(inp).values
    m = logp.max(axis=1, keepdims=True)
    logp = logp - (m + np.log(np.sum(np.exp(logp - m), axis=1, keepdims=True)))
    picked = logp[np.arange(N * D), X.reshape(-1)].reshape(N, D)
    return np.maximum(picked.sum(axis=1), arm.NEG_INF_SENTINEL)


# -- GAN, diffusion and VAE ----------------------------------------------------

def ref_gen_forward(model, n, rng):
    z = Tensor(rng.standard_normal((n, model.prior_dim)))
    return model.gen.forward(z)


def ref_gan_train(model, data, steps, batch, rng, k_disc=1, lr=1e-3, saturating=False):
    check_counts(steps=steps, batch=batch)
    X = np.atleast_2d(np.asarray(data, dtype=float))
    N = X.shape[0]
    gen_params = model.gen.params()
    disc_params = model.disc.params()
    gen_state = AdamState()
    disc_state = AdamState()
    disc_trace = np.empty(steps)
    gen_trace = np.empty(steps)
    for step in range(steps):
        for _ in range(k_disc):
            idx = rng.integers(0, N, batch)
            fake = ref_gen_forward(model, batch, rng).values
            dl = gan.disc_loss(model, X[idx], fake)
            if not np.isfinite(dl.values):
                raise FloatingPointError(f"discriminator loss diverged at step {step}")
            zero_grad(disc_params)
            backward(dl)
            disc_state = adam_step(disc_params, [p.grad for p in disc_params],
                                   disc_state, lr=lr)
        fake = ref_gen_forward(model, batch, rng)
        gl = gan.gen_loss(model, fake, saturating=saturating)
        if not np.isfinite(gl.values):
            raise FloatingPointError(f"generator loss diverged at step {step}")
        zero_grad(gen_params)
        zero_grad(disc_params)
        backward(gl)
        gen_state = adam_step(gen_params, [p.grad for p in gen_params],
                              gen_state, lr=lr)
        zero_grad(disc_params)
        disc_trace[step] = float(dl.values)
        gen_trace[step] = float(gl.values)
    return disc_trace, gen_trace


def ref_loss_simple(model, x0_batch, rng):
    X0 = np.atleast_2d(np.asarray(x0_batch, dtype=float))
    n = X0.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    ts = rng.integers(1, model.schedule.T + 1, n)
    eps = rng.standard_normal((n, model.dim))
    ab = model.schedule.alpha_bars[ts - 1][:, None]
    x_t = np.sqrt(ab) * X0 + np.sqrt(1.0 - ab) * eps
    inp = concat([Tensor(x_t), Tensor(diffusion.time_features(ts, model.schedule.T))], axis=1)
    eps_hat = model.eps_net.forward(inp)
    return ((eps_hat - Tensor(eps)) ** 2).sum() * (1.0 / n)


def ref_predict_eps(model, x_t_tensor, t, n_rows):
    inp = concat([x_t_tensor, Tensor(diffusion.time_features(t, model.schedule.T, n_rows))],
                 axis=1)
    return model.eps_net.forward(inp)


def ref_elbo_terms(model, x0, rng):
    X0 = np.atleast_2d(np.asarray(x0, dtype=float))
    terms = []
    for t in range(1, model.schedule.T + 1):
        x_t, _eps = diffusion.q_sample(model.schedule, X0, t, rng)
        eps_hat = ref_predict_eps(model, Tensor(x_t), t, X0.shape[0]).values
        mu_theta = diffusion._mu_from_eps(model.schedule, x_t, eps_hat, t)
        mu_tilde, beta_tilde = diffusion.posterior_params(model.schedule, x_t, X0, t)
        sq = float(np.sum((mu_tilde - mu_theta) ** 2))
        if t == 1:
            terms.append(0.5 * sq)
        else:
            terms.append(sq / (2.0 * beta_tilde))
    return np.asarray(terms)


def ref_diffusion_sample(model, n, rng):
    x = rng.standard_normal((n, model.dim))
    for t in range(model.schedule.T, 0, -1):
        eps_hat = ref_predict_eps(model, Tensor(x), t, n).values
        mu = diffusion._mu_from_eps(model.schedule, x, eps_hat, t)
        if t > 1:
            beta_tilde = diffusion._posterior_coefs(model.schedule, t)[2]
            x = mu + math.sqrt(beta_tilde) * rng.standard_normal(x.shape)
        else:
            x = mu
    return x


def ref_vae_sample(model, n, rng, binarize=False):
    Z = Tensor(rng.standard_normal((n, model.latent_dim)))
    out = model.decoder.forward(Z).values
    if model.likelihood == "gaussian":
        return out + model.sigma_dec * rng.standard_normal(out.shape)
    probs = nn._sigmoid(out)
    if binarize:
        return (rng.uniform(probs.shape) < probs).astype(float)
    return probs


def reference_code(mp):
    """Install the reference copies in place of the code they stand for."""
    mp.setattr(Mlp, "forward", ref_mlp_forward)
    eager_trainers.install(mp, [(vae, "train"), (diffusion, "train"), (arm, "train"),
                                (arm, "sample")])
    mp.setattr(flow.PlanarLayer, "inverse", ref_planar_inverse)
    mp.setattr(flow.CouplingLayer, "forward", ref_coupling_forward)
    mp.setattr(flow.CouplingLayer, "inverse", ref_coupling_inverse)
    mp.setattr(flow.CouplingLayer, "inverse_tensor", ref_coupling_inverse_tensor, raising=False)
    mp.setattr(flow.PermutationLayer, "forward", ref_permutation_forward)
    mp.setattr(flow.PermutationLayer, "inverse", ref_permutation_inverse)
    mp.setattr(flow.PermutationLayer, "inverse_tensor", ref_permutation_inverse_tensor,
               raising=False)
    for name, fn in (("forward_with_logdet", ref_forward_with_logdet), ("inverse", ref_inverse),
                     ("log_likelihood", ref_flow_log_likelihood),
                     ("_loglik_tensor", ref_flow_loglik_tensor), ("fit", ref_flow_fit),
                     ("sample", ref_flow_sample)):
        mp.setattr(flow, name, fn)
    mp.setattr(arm, "_masked_inputs", ref_masked_inputs)
    mp.setattr(arm, "position_logits", ref_position_logits)
    mp.setattr(arm, "_loglik_tensor", ref_arm_loglik_tensor)
    mp.setattr(arm, "log_likelihood_batch", ref_arm_log_likelihood_batch)
    mp.setattr(gan, "train", ref_gan_train)
    mp.setattr(diffusion, "loss_simple", ref_loss_simple)
    mp.setattr(diffusion, "elbo_terms", ref_elbo_terms)
    mp.setattr(diffusion, "sample", ref_diffusion_sample)
    mp.setattr(vae, "sample", ref_vae_sample)


# ---------------------------------------------------------------------------
# Families on either code

def _scrambled_coupling(idx_a, idx_b, rng):
    """A coupling layer whose halves are not contiguous, in no sorted order."""
    nets = [Mlp.create([len(idx_a), 6, len(idx_b)], ["tanh", "identity"], rng.split(20 + i))
            for i in range(2)]
    return flow.CouplingLayer(np.array(idx_a), np.array(idx_b), *nets)


def make_model(family, seed):
    rng = RandomSource(seed)
    if family == "vae":
        return vae.make_vae(3, 2, rng, hidden=6, hidden_layers=2)
    if family == "flow":
        return flow.FlowModel(flow.make_coupling_stack(3, 3, rng, hidden=6).layers
                              + [_scrambled_coupling([2, 0], [1], rng)], 3)
    if family == "diffusion":
        return diffusion.make_diffusion(3, rng, T=7, hidden=6)
    if family == "arm":
        return arm.make_ar_model(4, 3, rng, hidden=6)
    return gan.make_gan(3, 2, rng, hidden=6)


def _params(model):
    if isinstance(model, gan.GanModel):
        return model.gen.params() + model.disc.params()
    return model.params()


def _data(family, seed, n=42):
    if family == "arm":
        return RandomSource(seed + 50).integers(0, 3, (n, 4))
    return RandomSource(seed + 50).standard_normal((n, 3))


def train_and_score(family, seed):
    """(training traces, parameters, scores and samples) of one run; 42 rows
    in batches of 8 leave a tail batch of 2."""
    model = make_model(family, seed)
    X = _data(family, seed)
    rng = RandomSource(seed + 100)
    test = _data(family, seed + 7, n=9)
    if family == "vae":
        traces = [vae.train(model, X, 3, 8, rng, lr=0.01)]
        parts = vae.elbo(model, test, RandomSource(seed + 200), n_samples=3)
        scores = [parts.recon.values, parts.kl.values, parts.elbo.values,
                  vae.elbo_rows(model, test, RandomSource(seed + 200), n_samples=3),
                  vae.reconstruct(model, test), vae.sample(model, 20, RandomSource(seed + 300))]
    elif family == "flow":
        traces = [flow.fit(model, X, 3, 8, rng, lr=0.01)]
        x, logdet = flow.forward_with_logdet(model, test)
        scores = [x.values, logdet.values, flow.inverse(model, test),
                  flow.sample(model, 20, RandomSource(seed + 300))]
    elif family == "diffusion":
        traces = [diffusion.train(model, X, 3, 8, rng, lr=0.01)]
        scores = [diffusion.elbo_terms(model, test, RandomSource(seed + 200)),
                  diffusion.sample(model, 20, RandomSource(seed + 300))]
    elif family == "arm":
        traces = [arm.train(model, X, 3, 8, rng, lr=0.01)]
        scores = [arm.log_likelihood_batch(model, test), arm.log_likelihood(model, test[:1])]
        scores += [arm.position_logits(model, test, d).values for d in range(4)]
        scores += [arm.sample(model, 20, RandomSource(seed + 300))]
    else:
        traces = list(gan.train(model, X, 7, 8, rng, k_disc=2, lr=0.01))
        traces += list(gan.train(model, X, 3, 5, rng, saturating=True, lr=0.01))
        scores = [gan.sample(model, 20, RandomSource(seed + 300))]
    return traces, [p.values for p in _params(model)], scores


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def _flows(seed):
    """A trained coupling stack, a stack that starts and ends with a
    permutation and holds a scrambled coupling, and a planar stack."""
    rng = RandomSource(seed)
    trained = flow.make_coupling_stack(4, 4, rng.split(1), hidden=8)
    flow.fit(trained, RandomSource(seed + 1).standard_normal((64, 4)) * [1.0, 2.0, 0.5, 3.0],
             5, 16, rng.split(2), lr=0.02)
    perm = flow.PermutationLayer(np.array([2, 0, 3, 1]))
    couplings = flow.make_coupling_stack(4, 2, rng.split(3), hidden=8).layers
    mixed = flow.FlowModel([perm] + couplings + [_scrambled_coupling([3, 1], [0, 2], rng),
                                                 flow.PermutationLayer(np.array([3, 2, 1, 0]))], 4)
    planar = flow.FlowModel([flow.PlanarLayer.create(4, rng.split(10 + i)) for i in range(3)], 4)
    return trained, mixed, planar


# ---------------------------------------------------------------------------
# Tests

@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_family_matches_reference_code(family, seed):
    traces, params, scores = train_and_score(family, seed)
    with pytest.MonkeyPatch.context() as mp:
        reference_code(mp)
        ref_traces, ref_params, ref_scores = train_and_score(family, seed)
    assert_same_bits(traces, ref_traces)
    assert_same_bits(params, ref_params)
    assert_same_bits(scores, ref_scores)


@pytest.mark.parametrize("seed", SEEDS)
def test_flow_log_likelihood_matches_two_pass(seed):
    X = RandomSource(seed + 20).standard_normal((200, 4)) * 2.0
    trained, mixed, planar = _flows(seed)
    for model in (trained, mixed):
        with pytest.MonkeyPatch.context() as mp:
            reference_code(mp)
            want = flow.log_likelihood(model, X)
            ref_z0 = flow.inverse(model, X)
            ref_x, ref_logdet = flow.forward_with_logdet(model, X)
        got = flow.log_likelihood(model, X)
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
        x, logdet = flow.forward_with_logdet(model, X)
        assert_same_bits([flow.inverse(model, X), x.values, logdet.values],
                         [ref_z0, ref_x.values, ref_logdet.values])
    # the reference planar inverse root-finds to 1e-12 in the pre-activation;
    # the library's bisects it to adjacent floats
    with pytest.MonkeyPatch.context() as mp:
        reference_code(mp)
        ref_ll = flow.log_likelihood(planar, X)
        ref_z0 = flow.inverse(planar, X)
    assert np.allclose(flow.log_likelihood(planar, X), ref_ll, rtol=1e-10, atol=1e-10)
    assert np.allclose(flow.inverse(planar, X), ref_z0, rtol=0, atol=1e-10)


def test_flow_log_likelihood_runs_each_coupling_network_once(monkeypatch):
    trained, mixed, _planar = _flows(3)
    calls = []
    s_t = flow.CouplingLayer._s_t
    monkeypatch.setattr(flow.CouplingLayer, "_s_t",
                        lambda layer, za: calls.append(id(layer)) or s_t(layer, za))
    X = RandomSource(4).standard_normal((10, 4))
    for model in (trained, mixed):
        calls.clear()
        flow.log_likelihood(model, X)
        couplings = [id(layer) for layer in model.layers
                     if isinstance(layer, flow.CouplingLayer)]
        assert calls == couplings[::-1]


def test_reference_code_is_installed():
    with pytest.MonkeyPatch.context() as mp:
        reference_code(mp)
        assert flow.log_likelihood is ref_flow_log_likelihood and gan.train is ref_gan_train
        assert arm._masked_inputs is ref_masked_inputs and vae.train is eager_trainers.vae_train
        assert Mlp.forward is ref_mlp_forward
        for family in FAMILIES:
            assert eager_trainers.recordings(train_and_score, family, 0)[1] == 0
    for family in FAMILIES:
        assert eager_trainers.recordings(train_and_score, family, 0)[1] > 0
    assert flow.log_likelihood is not ref_flow_log_likelihood
    assert not hasattr(flow.CouplingLayer, "inverse_tensor")
    assert nn.fit_minibatch is not ref_fit_minibatch
