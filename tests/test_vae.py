import math

import numpy as np
import pytest

from latentlab.core import RandomSource
from latentlab.nn import AdamState, Mlp, Tensor, adam_step, backward, zero_grad
from latentlab.ppca import PpcaParams, marginal_loglik, posterior
from latentlab.vae import (VaeModel, elbo, encode, make_vae, reconstruct,
                           reparameterize, sample, train)


def _zero_mlp(dims, acts):
    weights = [Tensor.param(np.zeros((a, b))) for a, b in zip(dims[:-1], dims[1:])]
    biases = [Tensor.param(np.zeros(b)) for b in dims[1:]]
    return Mlp(weights, biases, acts)


def _linear_vae(W_dec, b_dec, sigma_dec, enc_seed=0):
    """Linear encoder/decoder pair: the decoder realizes x = W z + b + noise."""
    D, d = W_dec.shape
    encoder = Mlp.create([D, 2 * d], ["identity"], RandomSource(enc_seed))
    decoder = Mlp([Tensor.param(W_dec.T.copy())], [Tensor.param(b_dec.copy())], ["identity"])
    return VaeModel(encoder, decoder, d, "gaussian", sigma_dec)


# -- encode ----------------------------------------------------------------------

def test_encode_zero_net():
    model = VaeModel(_zero_mlp([3, 4], ["identity"]), _zero_mlp([2, 3], ["identity"]),
                     2, "gaussian", 0.1)
    mu, sigma = encode(model, np.ones((5, 3)))
    assert np.array_equal(mu, np.zeros((5, 2)))
    assert np.array_equal(sigma, np.ones((5, 2)))


def test_encode_deterministic_and_matches_mlp():
    model = make_vae(3, 2, RandomSource(1))
    x = RandomSource(2).standard_normal((4, 3))
    mu1, s1 = encode(model, x)
    mu2, s2 = encode(model, x)
    assert np.array_equal(mu1, mu2)
    raw = model.encoder.forward(Tensor(x)).values
    assert np.allclose(mu1, raw[:, :2], atol=1e-12)
    assert np.allclose(s1, np.clip(np.exp(0.5 * raw[:, 2:]), 1e-4, 1e4), atol=1e-12)


def test_encode_sigma_clamped():
    enc = _zero_mlp([2, 4], ["identity"])
    enc.biases[0].values = np.array([0.0, 0.0, 100.0, -100.0])
    model = VaeModel(enc, _zero_mlp([2, 2], ["identity"]), 2, "gaussian", 0.1)
    _mu, sigma = encode(model, np.zeros((1, 2)))
    assert sigma[0, 0] <= 1e4
    assert sigma[0, 1] >= 1e-4


# -- reparameterize ----------------------------------------------------------------

def test_reparameterize_zero_sigma():
    mu = Tensor(np.array([[1.0, -2.0]]))
    sigma = Tensor(np.zeros((1, 2)))
    z = reparameterize(mu, sigma, RandomSource(3))
    assert np.array_equal(z.values, [[1.0, -2.0]])


def test_reparameterize_monte_carlo_mean():
    mu = Tensor(np.full((100_000, 1), 0.7))
    sigma = Tensor(np.full((100_000, 1), 2.0))
    z = reparameterize(mu, sigma, RandomSource(4))
    se = 2.0 / math.sqrt(100_000)
    assert abs(z.values.mean() - 0.7) < 3 * se


def test_reparameterize_gradient_flows():
    mu = Tensor.param(np.array([[0.5]]))
    sigma = Tensor.param(np.array([[1.2]]))
    rng_seed = 5

    def loss_fn():
        z = reparameterize(mu, sigma, RandomSource(rng_seed))
        return z.sum()

    loss = loss_fn()
    backward(loss)
    assert mu.grad[0, 0] == pytest.approx(1.0, abs=1e-12)
    eps = 1e-4
    for p, expected in ((mu, 1.0),):
        old = p.values[0, 0]
        p.values[0, 0] = old + eps
        up = float(loss_fn().values)
        p.values[0, 0] = old - eps
        dn = float(loss_fn().values)
        p.values[0, 0] = old
        assert (up - dn) / (2 * eps) == pytest.approx(expected, rel=1e-6)


# -- elbo ---------------------------------------------------------------------------

def test_kl_zero_at_prior():
    model = VaeModel(_zero_mlp([2, 4], ["identity"]), _zero_mlp([2, 2], ["identity"]),
                     2, "gaussian", 0.5)
    parts = elbo(model, np.zeros((1, 2)), RandomSource(6))
    assert float(parts.kl.values) == pytest.approx(0.0, abs=1e-12)


def test_kl_formula_mu_one():
    enc = _zero_mlp([1, 2], ["identity"])
    enc.biases[0].values = np.array([1.0, 0.0])    # mu = 1, logvar = 0
    model = VaeModel(enc, _zero_mlp([1, 1], ["identity"]), 1, "gaussian", 0.5)
    parts = elbo(model, np.zeros((1, 1)), RandomSource(7))
    assert float(parts.kl.values) == pytest.approx(0.5, abs=1e-12)


def test_elbo_below_ppca_marginal():
    # linear-Gaussian VAE is exactly the probabilistic-PCA model
    rng = RandomSource(8)
    W = rng.standard_normal((2, 1))
    b = rng.standard_normal(2)
    sigma_dec = 0.4
    model = _linear_vae(W, b, sigma_dec, enc_seed=9)
    ppca = PpcaParams(W, b, sigma_dec ** 2)
    x = rng.standard_normal((1, 2))
    exact = marginal_loglik(ppca, x)
    parts = elbo(model, x, RandomSource(10), n_samples=10_000)
    assert float(parts.elbo.values) <= exact + 0.05   # generous MC band
    assert float(parts.kl.values) >= 0.0


def test_elbo_equals_recon_minus_kl():
    model = make_vae(3, 2, RandomSource(11))
    x = RandomSource(12).standard_normal((6, 3))
    parts = elbo(model, x, RandomSource(13))
    assert float(parts.elbo.values) == pytest.approx(
        float(parts.recon.values) - float(parts.kl.values), abs=1e-12)


# -- training -------------------------------------------------------------------------

def test_train_improves_on_blobs():
    rng = RandomSource(14)
    X = np.vstack([0.3 * rng.standard_normal((150, 2)) + [1.5, 0.0],
                   0.3 * rng.standard_normal((150, 2)) - [1.5, 0.0]])
    model = make_vae(2, 1, RandomSource(15), hidden=16)
    trace = train(model, X, epochs=20, batch=50, rng=RandomSource(16), lr=3e-3)
    assert trace[-1] > trace[0]


def test_train_zero_variance_data():
    X = np.tile([0.7, -0.3], (100, 1))
    model = make_vae(2, 1, RandomSource(17), hidden=8, sigma_dec=0.1)
    train(model, X, epochs=60, batch=25, rng=RandomSource(18), lr=3e-3)
    recon = reconstruct(model, X[:1])
    assert np.linalg.norm(recon - X[0]) < 0.1


def test_train_deterministic():
    X = RandomSource(19).standard_normal((40, 2))

    def run():
        model = make_vae(2, 1, RandomSource(20), hidden=8)
        return train(model, X, epochs=3, batch=10, rng=RandomSource(21))

    assert np.array_equal(run(), run())


def test_encoder_approaches_ppca_posterior():
    # frozen linear decoder at the true generative parameters: training the
    # encoder alone drives the posterior mean toward the exact PPCA posterior
    rng = RandomSource(22)
    W = np.array([[1.0], [-0.5], [0.7]])
    b = np.array([0.2, -0.1, 0.4])
    sigma = 0.3
    ppca = PpcaParams(W, b, sigma ** 2)
    Z = rng.standard_normal((400, 1))
    X = Z @ W.T + b + sigma * rng.standard_normal((400, 3))
    model = _linear_vae(W, b, sigma, enc_seed=23)
    enc_params = model.encoder.params()
    state = AdamState()
    rng_tr = RandomSource(24)
    for epoch in range(300):
        order = rng_tr.permutation(400)
        for start in range(0, 400, 100):
            batch = X[order[start:start + 100]]
            parts = elbo(model, batch, rng_tr)
            zero_grad(enc_params)
            backward(-parts.elbo)
            state = adam_step(enc_params, [p.grad for p in enc_params], state, lr=5e-3)
    mu_enc, _ = encode(model, X)
    target = np.stack([posterior(ppca, x).mean for x in X])
    rmse = math.sqrt(np.mean((mu_enc - target) ** 2))
    assert rmse < 0.1


# -- sampling -------------------------------------------------------------------------

def test_sample_zero_decoder_gaussian():
    dec = _zero_mlp([1, 2], ["identity"])
    dec.biases[0].values = np.array([2.0, -1.0])
    model = VaeModel(_zero_mlp([2, 2], ["identity"]), dec, 1, "gaussian", 0.3)
    X = sample(model, 50_000, RandomSource(25))
    assert np.allclose(X.mean(axis=0), [2.0, -1.0], atol=0.01)
    assert np.allclose(X.std(axis=0), 0.3, atol=0.01)


def test_sample_seed_determinism():
    model = make_vae(2, 1, RandomSource(26))
    a = sample(model, 10, RandomSource(27))
    b = sample(model, 10, RandomSource(27))
    assert np.array_equal(a, b)


def test_sample_trained_mean_near_data_mean():
    rng = RandomSource(28)
    X = 0.4 * rng.standard_normal((300, 2)) + [0.8, -0.2]
    model = make_vae(2, 1, RandomSource(29), hidden=16)
    train(model, X, epochs=40, batch=60, rng=RandomSource(30), lr=3e-3)
    S = sample(model, 4000, RandomSource(31))
    assert np.linalg.norm(S.mean(axis=0) - X.mean(axis=0)) < 0.2


def test_bernoulli_likelihood_path():
    model = make_vae(3, 2, RandomSource(32), likelihood="bernoulli")
    X = (RandomSource(33).uniform((10, 3)) < 0.5).astype(float)
    parts = elbo(model, X, RandomSource(34))
    assert np.isfinite(float(parts.elbo.values))
    probs = sample(model, 5, RandomSource(35))
    assert np.all((probs > 0) & (probs < 1))
    binary = sample(model, 5, RandomSource(36), binarize=True)
    assert set(np.unique(binary)) <= {0.0, 1.0}
