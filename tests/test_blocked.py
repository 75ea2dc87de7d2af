"""Deep scoring, inference and sampling run their networks block by block of
rows (nn.map_rows). This file holds the single-pass functions that blocking
replaced, copied as they were written before it, and checks that the blocked
functions give their results with the budget (nn.BLOCK_BYTES) lowered so
that each call splits into four blocks or more, the last rows of N not an
even share. Where every matrix product of every block stays above OpenBLAS's
small-matrix cut (M * N * K > 1e6) the bytes must be equal; below it that
kernel rounds differently, and the results must agree within 1e-12 relative.
A traced-memory test checks that the memory a call holds beyond its inputs,
outputs and random draws stays under a fixed multiple of one block as N
grows eightfold.
"""
import math
import tracemalloc

import numpy as np
import pytest

from latentlab import arm, diffusion, flow, gan, nn, vae
from latentlab.core import RandomSource
from latentlab.nn import Recorder, Tensor

SMALL_KERNEL_MAX = 1_000_000        # M * N * K of the largest product OpenBLAS's small kernel takes


# ---------------------------------------------------------------------------
# Reference copies

def ref_encode(model, x):
    h = model.encoder.forward(x)
    d = model.latent_dim
    mu = h[:, :d]
    logvar = h[:, d:].clip(4 * vae.LOGVAR_MIN, 4 * vae.LOGVAR_MAX)
    sigma = (logvar * 0.5).exp().clip(vae.SIGMA_MIN, vae.SIGMA_MAX)
    return mu, sigma


def ref_elbo_rows(model, x, rng, n_samples=1):
    X = np.atleast_2d(np.asarray(x, dtype=float))
    eps = [rng.standard_normal((X.shape[0], model.latent_dim)) for _ in range(n_samples)]
    x = Tensor(X)
    mu, sigma = ref_encode(model, x)
    sigma2 = sigma * sigma
    kl_per_point = (sigma2 + mu * mu - 1.0 - sigma2.log()).sum(axis=1) * 0.5
    recon_acc = None
    for e in eps:
        r = vae._recon_loglik(model, x, mu + sigma * Tensor(e))
        recon_acc = r if recon_acc is None else recon_acc + r
    return recon_acc.values * (1.0 / n_samples) - kl_per_point.values


def ref_vae_encode(model, x):
    return tuple(t.values for t in ref_encode(model, x))


def ref_reconstruct(model, x):
    mu, _sigma = ref_encode(model, x)
    out = model.decoder.forward(mu).values
    if model.likelihood == "bernoulli":
        return vae.sigmoid(out)
    return out


def ref_vae_sample(model, n, rng, binarize=False):
    out = model.decoder.forward(rng.standard_normal((n, model.latent_dim))).values
    if model.likelihood == "gaussian":
        return out + model.sigma_dec * rng.standard_normal(out.shape)
    probs = vae.sigmoid(out)
    if binarize:
        return (rng.uniform(probs.shape) < probs).astype(float)
    return probs


def ref_flow_log_likelihood(model, x):
    return flow._loglik_tensor(model, x).values


def ref_flow_sample(model, n, rng):
    return flow.forward_with_logdet(model, rng.standard_normal((n, model.dim)))[0].values


def ref_arm_log_likelihood_batch(model, x):
    X = arm._check_sequences(model, x)
    N, D = X.shape
    logp = arm._log_conditionals(model, arm._masked_inputs(model, X)).values
    picked = logp[np.arange(N * D), X.reshape(-1)].reshape(N, D)
    return np.maximum(picked.sum(axis=1), arm.NEG_INF_SENTINEL)


def ref_arm_sample(model, n, rng):
    D, V = model.seq_len, model.alphabet
    X = np.zeros((n, D), dtype=int)
    logits_of = Recorder(model.cond_net.forward)
    for d in range(D):
        logits = logits_of(arm._masked_inputs(model, X, [d])).values
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        u = rng.uniform(n)
        X[:, d] = (np.cumsum(p, axis=1) < u[:, None]).sum(axis=1).clip(0, V - 1)
    return X


def ref_diffusion_sample(model, n, rng):
    x = rng.standard_normal((n, model.dim))
    predict = Recorder(lambda x_t, feats: diffusion._eps_graph(model, x_t, feats))
    for t in range(model.schedule.T, 0, -1):
        eps_hat = predict(x, diffusion.time_features(t, model.schedule.T, n)).values
        mu = diffusion._mu_from_eps(model.schedule, x, eps_hat, t)
        if t > 1:
            beta_tilde = diffusion._posterior_coefs(model.schedule, t)[2]
            x = mu + math.sqrt(beta_tilde) * rng.standard_normal(x.shape)
        else:
            x = mu
    return x


def ref_gan_sample(model, n, rng):
    return model.gen.forward(rng.standard_normal((n, model.prior_dim))).values


# ---------------------------------------------------------------------------
# Cases. Each call has 4R - a few rows for a budget of R rows, so it splits
# into four blocks of at least N // 4 rows; the products are checked against
# the cut at that size.

def _above_cut(mlps, rows):
    return all(rows * W.values.size > SMALL_KERNEL_MAX for mlp in mlps for W in mlp.weights)


def _data(n, d, seed=2):
    return RandomSource(seed).standard_normal((n, d))


def _trained_flow(dim, hidden):
    """A coupling stack after a few steps of training, so that no network
    is at its initial weights."""
    model = flow.make_coupling_stack(dim, 2, RandomSource(4), hidden=hidden)
    flow.fit(model, _data(64, dim, seed=5), 1, 16, RandomSource(6), lr=0.01)
    return model


def cases():
    """name -> (blocked, reference, model, args(), width, budget rows, exact)."""
    out = {}
    for likelihood, (d, latent, hidden, R) in {"gaussian": (64, 16, 64, 1100),
                                               "bernoulli": (6, 2, 5, 70)}.items():
        model = vae.make_vae(d, latent, RandomSource(1), hidden=hidden, likelihood=likelihood)
        X = _data(4 * R - 7, d)
        if likelihood == "bernoulli":
            X = (X > 0).astype(float)
        exact = _above_cut([model.encoder, model.decoder], len(X) // 4)
        for name, fn, ref, args in (
                ("elbo_rows", vae.elbo_rows, ref_elbo_rows,
                 lambda X=X: (X, RandomSource(7), 3)),
                ("encode", vae.encode, ref_vae_encode, lambda X=X: (X,)),
                ("reconstruct", vae.reconstruct, ref_reconstruct, lambda X=X: (X,)),
                ("sample", vae.sample, ref_vae_sample,
                 lambda n=len(X): (n, RandomSource(8), True))):
            width = model.decoder.width if name == "sample" else model.width
            out[f"vae.{name}.{likelihood}"] = (fn, ref, model, args, width, R, exact)
    planar = flow.FlowModel([flow.PlanarLayer.create(3, RandomSource(3).split(i))
                             for i in range(3)], 3)
    for name, model, R in (("coupling", _trained_flow(64, 64), 600),
                           ("coupling-small", _trained_flow(4, 8), 40),
                           ("planar", planar, 30)):
        nets = [net for layer in model.layers if isinstance(layer, flow.CouplingLayer)
                for net in (layer.s_net, layer.t_net)]
        X = _data(4 * R - 5, model.dim) * 1.5
        exact = bool(nets) and _above_cut(nets, len(X) // 4)
        out[f"flow.log_likelihood.{name}"] = (flow.log_likelihood, ref_flow_log_likelihood,
                                              model, lambda X=X: (X,), model.width, R, exact)
        out[f"flow.sample.{name}"] = (flow.sample, ref_flow_sample, model,
                                      lambda n=len(X): (n, RandomSource(9)), model.width, R,
                                      exact)
    for name, (L, V, hidden, R) in {"wide": (16, 4, 64, 250), "small": (5, 3, 6, 9)}.items():
        model = arm.make_ar_model(L, V, RandomSource(10), hidden=hidden)
        codes = RandomSource(11).integers(0, V, (4 * R - 3, L))
        out[f"arm.log_likelihood_batch.{name}"] = (
            arm.log_likelihood_batch, ref_arm_log_likelihood_batch, model, lambda c=codes: (c,),
            L * model.cond_net.width, R, _above_cut([model.cond_net], len(codes) // 4 * L))
        n = 4 * R * L - 3
        out[f"arm.sample.{name}"] = (
            arm.sample, ref_arm_sample, model, lambda n=n: (n, RandomSource(12)),
            model.cond_net.width, R * L, _above_cut([model.cond_net], n // 4))
    model = diffusion.make_diffusion(64, RandomSource(13), T=4, hidden=64)
    out["diffusion.sample"] = (diffusion.sample, ref_diffusion_sample, model,
                               lambda: (4 * 300 - 1, RandomSource(14)), model.eps_net.width,
                               300, _above_cut([model.eps_net], (4 * 300 - 1) // 4))
    model = gan.make_gan(64, 8, RandomSource(15), hidden=64)
    out["gan.sample"] = (gan.sample, ref_gan_sample, model,
                         lambda: (4 * 2000 - 3, RandomSource(16)), model.gen.width, 2000,
                         _above_cut([model.gen], (4 * 2000 - 3) // 4))
    return out


CASES = cases()


@pytest.fixture
def block_counts(monkeypatch):
    """The number of blocks of each map_rows call the deep modules make."""
    counts = []

    def counting(fn, arrays, width):
        calls = [0]

        def block(*rows):
            calls[0] += 1
            return fn(*rows)
        out = nn.map_rows(block, arrays, width)
        counts.append(calls[0])
        return out
    for module in (vae, flow, arm, diffusion, gan):
        monkeypatch.setattr(module, "map_rows", counting)
    return counts


def test_the_cases_cover_both_sides_of_the_cut():
    exact = {name: case[-1] for name, case in CASES.items()}
    assert exact["flow.log_likelihood.coupling"] and exact["arm.log_likelihood_batch.wide"]
    assert exact["vae.elbo_rows.gaussian"] and exact["diffusion.sample"] and exact["gan.sample"]
    assert not exact["vae.encode.bernoulli"] and not exact["flow.sample.planar"]


@pytest.mark.parametrize("name", CASES)
def test_blocked_function_matches_the_single_pass(name, block_counts, monkeypatch):
    fn, ref, model, args, width, rows, exact = CASES[name]
    want = ref(model, *args())
    monkeypatch.setattr(nn, "BLOCK_BYTES", width * 8 * rows)
    got = fn(model, *args())
    assert block_counts and min(block_counts) >= 4
    got, want = (got, want) if isinstance(got, tuple) else ((got,), (want,))
    for a, b in zip(got, want, strict=True):
        assert a.dtype == b.dtype and a.shape == b.shape
        if exact:
            assert a.tobytes() == b.tobytes()
        else:
            assert np.allclose(a, b, rtol=1e-12, atol=0)


def test_map_rows_splits_evenly_and_keeps_one_block_whole(monkeypatch):
    sizes = []

    def double(a, b):
        sizes.append(len(a))
        return a * 2.0, b + 1
    a, b = np.arange(10.0), np.arange(20).reshape(10, 2)
    monkeypatch.setattr(nn, "BLOCK_BYTES", 3 * 8)
    twice, plus = nn.map_rows(double, [a, b], 1)
    assert sizes == [2, 3, 2, 3]
    assert np.array_equal(twice, a * 2.0) and np.array_equal(plus, b + 1)
    assert plus.dtype == b.dtype
    monkeypatch.setattr(nn, "BLOCK_BYTES", 10 * 8)
    one = nn.map_rows(lambda rows: rows, [a], 1)
    assert one is a
    assert nn.map_rows(lambda rows: rows[:, None], [np.zeros(0)], 5).shape == (0, 1)


# ---------------------------------------------------------------------------
# Memory

def _traced_peak(fn):
    """(result, peak traced bytes) of fn()."""
    tracemalloc.start()
    try:
        result = fn()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _memory_case(name):
    """(call(X), data(n) of n rows or n // 6 sequences, width, bytes per row
    of X of the outputs and draws a call holds at once)."""
    if name == "vae.elbo_rows":
        model = vae.make_vae(8, 2, RandomSource(21), hidden=16)
        # mu, sigma, one draw, the KL, the sum and one draw's terms
        return (lambda X: vae.elbo_rows(model, X, RandomSource(20), 4), lambda n: _data(n, 8),
                model.width, 8 * (3 * model.latent_dim + 3))
    if name == "flow.log_likelihood":
        model = flow.make_coupling_stack(8, 3, RandomSource(22), hidden=16)
        return (lambda X: flow.log_likelihood(model, X), lambda n: _data(n, 8), model.width, 8)
    model = arm.make_ar_model(6, 3, RandomSource(23), hidden=16)
    return (lambda X: arm.log_likelihood_batch(model, X),
            lambda n: RandomSource(24).integers(0, 3, (n // 6, 6)), 6 * model.cond_net.width, 8)


@pytest.mark.parametrize("name", ["vae.elbo_rows", "flow.log_likelihood",
                                  "arm.log_likelihood_batch"])
def test_memory_stays_within_a_multiple_of_one_block(name, monkeypatch):
    call, data, width, per_row = _memory_case(name)
    budget = 64 << 10
    monkeypatch.setattr(nn, "BLOCK_BYTES", budget)
    excess = []
    for n in (3000, 24000):
        X = data(n)
        assert len(X) * width * 8 > 2 * budget          # several blocks
        _out, peak = _traced_peak(lambda: call(X))
        excess.append(peak - per_row * len(X))
    assert max(excess) < 4 * budget, excess
