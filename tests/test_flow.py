import math

import numpy as np
import pytest

from latentlab.core import RandomSource
from latentlab.nn import Mlp, Tensor
from latentlab.flow import (CouplingLayer, FlowModel, PermutationLayer,
                            PlanarLayer, fit, forward_with_logdet, inverse,
                            log_likelihood, make_coupling_stack, sample)


def _planar_stack(dim, n_layers, seed):
    rng = RandomSource(seed)
    return FlowModel([PlanarLayer.create(dim, rng.split(i)) for i in range(n_layers)], dim)


def _zero_coupling(dim):
    half = dim // 2
    idx = np.arange(dim)
    zero = lambda i, o: Mlp([Tensor.param(np.zeros((i, 8))), Tensor.param(np.zeros((8, o)))],
                            [Tensor.param(np.zeros(8)), Tensor.param(np.zeros(o))],
                            ["tanh", "identity"])
    return CouplingLayer(idx[:half], idx[half:], zero(half, dim - half), zero(half, dim - half))


def _fd_logdet(fn, z, eps=1e-6):
    """Finite-difference Jacobian determinant of a vector map at one point."""
    d = z.shape[0]
    J = np.empty((d, d))
    for j in range(d):
        up = z.copy()
        up[j] += eps
        dn = z.copy()
        dn[j] -= eps
        J[:, j] = (fn(up) - fn(dn)) / (2 * eps)
    sign, logdet = np.linalg.slogdet(J)
    assert sign > 0
    return logdet


# -- forward / log-det ------------------------------------------------------------

def test_planar_zero_u_identity():
    rng = RandomSource(0)
    layer = PlanarLayer(Tensor.param(np.zeros(3)),
                        Tensor.param(rng.standard_normal(3)),
                        Tensor.param(np.array([0.3])))
    z = rng.standard_normal((4, 3))
    out, logdet = layer.forward(Tensor(z))
    # u = 0 reparameterizes to a fixed bump along w, not the raw zero map;
    # the map is still invertible and its logdet matches the FD oracle
    fd = _fd_logdet(lambda v: layer.forward(Tensor(v[None, :]))[0].values[0], z[0])
    assert logdet.values[0] == pytest.approx(fd, abs=1e-6)


def test_coupling_zero_nets_identity():
    layer = _zero_coupling(4)
    z = RandomSource(1).standard_normal((5, 4))
    out, logdet = layer.forward(Tensor(z))
    assert np.allclose(out.values, z, atol=1e-12)
    assert np.allclose(logdet.values, 0.0, atol=1e-12)


def test_planar_logdet_matches_fd_jacobian():
    model = _planar_stack(2, 1, seed=2)
    layer = model.layers[0]
    rng = RandomSource(3)
    for _ in range(5):
        z = rng.standard_normal(2)
        _out, logdet = layer.forward(Tensor(z[None, :]))
        fd = _fd_logdet(lambda v: layer.forward(Tensor(v[None, :]))[0].values[0], z)
        assert logdet.values[0] == pytest.approx(fd, abs=1e-6)


def test_stack_logdet_matches_fd_jacobian_d4():
    model = make_coupling_stack(4, 3, RandomSource(4))
    rng = RandomSource(5)
    for _ in range(3):
        z = rng.standard_normal(4)
        _out, logdet = forward_with_logdet(model, z[None, :])
        fd = _fd_logdet(lambda v: forward_with_logdet(model, v[None, :])[0].values[0], z)
        assert logdet.values[0] == pytest.approx(fd, abs=1e-5)


def test_logdet_additivity_across_stack():
    model = make_coupling_stack(4, 4, RandomSource(6))
    z = RandomSource(7).standard_normal((6, 4))
    _out, total = forward_with_logdet(model, z)
    acc = np.zeros(6)
    cur = Tensor(z)
    for layer in model.layers:
        cur, ld = layer.forward(cur)
        acc = acc + ld.values
    assert np.allclose(total.values, acc, atol=1e-12)


# -- inversion ----------------------------------------------------------------------

def test_identity_layers_invert_to_input():
    model = FlowModel([_zero_coupling(4), PermutationLayer(np.array([2, 3, 0, 1]))], 4)
    x = RandomSource(8).standard_normal((5, 4))
    fwd, _ = forward_with_logdet(model, x)
    assert np.allclose(inverse(model, fwd.values), x, atol=1e-12)


def test_coupling_stack_round_trip():
    model = make_coupling_stack(4, 4, RandomSource(9))
    z = RandomSource(10).standard_normal((20, 4))
    x, _ = forward_with_logdet(model, z)
    assert np.max(np.abs(inverse(model, x.values) - z)) < 1e-10


def test_planar_stack_round_trip():
    model = _planar_stack(2, 4, seed=11)
    z = RandomSource(12).standard_normal((20, 2))
    x, _ = forward_with_logdet(model, z)
    assert np.max(np.abs(inverse(model, x.values) - z)) < 1e-8


def test_planar_round_trip_d1():
    model = _planar_stack(1, 3, seed=13)
    z = RandomSource(14).standard_normal((10, 1))
    x, _ = forward_with_logdet(model, z)
    assert np.max(np.abs(inverse(model, x.values) - z)) < 1e-8


def test_planar_round_trip_steep_layer():
    # w.u_hat is about 4e6: the pre-activation's bracket is that wide, and
    # the bisection still closes every row on its float-exact root
    d = 4
    layer = PlanarLayer(Tensor.param(1e6 * np.ones(d)), Tensor.param(np.ones(d)),
                        Tensor.param(np.zeros(1)))
    x = 3.0 * RandomSource(40).standard_normal((20000, d))
    z, _ = layer.inverse(Tensor(x))
    assert np.max(np.abs(layer.forward(z)[0].values - x)) < 1e-7


def test_planar_inverse_keeps_nan_and_huge_rows_apart(monkeypatch):
    # the all-zero row's root is exactly 0 (b = 0) and is the first midpoint:
    # it closes at once instead of halving down through every exponent
    model = _planar_stack(3, 3, seed=41)
    x = np.array([[np.nan, 0.0, 1.0], [1e50, -1e50, 0.0], [0.5, 0.2, -0.3], [0.0, 0.0, 0.0]])
    calls = []
    tanh = np.tanh
    monkeypatch.setattr(np, "tanh", lambda v: calls.append(1) or tanh(v))
    z0 = inverse(model, x)
    monkeypatch.undo()
    assert len(calls) <= 3 * 70, len(calls)
    assert np.isnan(z0[0]).all() and np.isfinite(z0[1:]).all() and (z0[3] == 0).all()
    ll = log_likelihood(model, x)
    assert np.isnan(ll[0]) and np.isfinite(ll[1:]).all()


def test_planar_log_det_of_a_degenerate_layer_is_exact():
    # u = w = 1e150 * 1 gives u_hat = u and w.u_hat = 4e300; the root is about
    # sum(x) / 4e150, so z = x - mean(x) and the inverse log-det is -log(4e300)
    d = 4
    layer = PlanarLayer(Tensor.param(1e150 * np.ones(d)), Tensor.param(1e150 * np.ones(d)),
                        Tensor.param(np.zeros(1)))
    x = RandomSource(42).standard_normal((200, d))
    z = x - x.mean(axis=1, keepdims=True)
    z0, logdet = layer.inverse(Tensor(x))
    assert np.allclose(z0.values, z, rtol=0, atol=1e-14)
    assert np.allclose(logdet.values, -math.log(4e300), rtol=1e-14, atol=0)
    want = -0.5 * (z * z).sum(axis=1) - 0.5 * d * math.log(2 * math.pi) - math.log(4e300)
    assert np.allclose(log_likelihood(FlowModel([layer], d), x), want, rtol=1e-13, atol=0)


# -- log-likelihood --------------------------------------------------------------------

def test_identity_flow_standard_normal_density():
    model = FlowModel([_zero_coupling(2)], 2)
    x = RandomSource(15).standard_normal((7, 2))
    expected = -0.5 * (2 * math.log(2 * math.pi) + np.sum(x * x, axis=1))
    assert np.allclose(log_likelihood(model, x), expected, atol=1e-12)


def test_constant_scaling_coupling_closed_form():
    # t net zero, s net constant log 2 on the scaled half: x_b = 2 z_b
    layer = _zero_coupling(2)
    s_const = math.log(2.0)
    raw = 5.0 * math.atanh(s_const / 5.0)
    layer.s_net.biases[-1].values = np.array([raw])
    model = FlowModel([layer], 2)
    x = np.array([[0.4, 1.2]])
    got = log_likelihood(model, x)
    za, zb = x[0, 0], x[0, 1] / 2.0
    expected = (-0.5 * (2 * math.log(2 * math.pi) + za ** 2 + zb ** 2)) - s_const
    assert got[0] == pytest.approx(expected, abs=1e-12)


def test_density_normalizes_d1():
    model = _planar_stack(1, 3, seed=16)
    xs = np.linspace(-10, 10, 4001)
    dens = np.exp(log_likelihood(model, xs[:, None]))
    assert np.trapezoid(dens, xs) == pytest.approx(1.0, abs=1e-3)


def test_loglik_agrees_both_directions():
    # forward bookkeeping at the recovered base point equals the reported density
    model = make_coupling_stack(2, 3, RandomSource(17))
    x = RandomSource(18).standard_normal((5, 2))
    ll = log_likelihood(model, x)
    z0 = inverse(model, x)
    _x2, logdet = forward_with_logdet(model, z0)
    base = -0.5 * (2 * math.log(2 * math.pi) + np.sum(z0 * z0, axis=1))
    assert np.allclose(ll, base - logdet.values, atol=1e-12)


# -- training -----------------------------------------------------------------------

def test_fit_standard_normal_stays_near_entropy():
    # identity-initialized flow on standard-normal data starts at the
    # entropy optimum and training keeps it there within noise
    rng = RandomSource(19)
    X = rng.standard_normal((400, 2))
    model = make_coupling_stack(2, 2, RandomSource(20), hidden=8)
    for layer in model.layers:
        if isinstance(layer, CouplingLayer):
            for net in (layer.s_net, layer.t_net):
                net.weights[-1].values[:] = 0.0
                net.biases[-1].values[:] = 0.0
    trace = fit(model, X, epochs=8, batch=100, rng=RandomSource(21), lr=1e-3)
    target = -0.5 * (math.log(2 * math.pi) + 1.0) * 2
    assert abs(trace[0] - target) < 0.1
    assert abs(trace[-1] - target) < 0.1


def test_fit_bimodal_mixture():
    rng = RandomSource(22)
    n = 600
    comp = (rng.uniform(n) < 0.5).astype(int)
    x1 = np.where(comp == 0, -2.0, 2.0) + 0.5 * rng.standard_normal(n)
    pad = 0.5 * rng.standard_normal(n)        # independent padding coordinate
    X = np.column_stack([x1, pad])
    model = make_coupling_stack(2, 6, RandomSource(23), hidden=32)
    trace = fit(model, X, epochs=300, batch=150, rng=RandomSource(24), lr=5e-3)
    # true differential entropy bound: mean log-density of the generating mixture
    dens1 = 0.5 * (np.exp(-0.5 * ((x1 + 2) / 0.5) ** 2) + np.exp(-0.5 * ((x1 - 2) / 0.5) ** 2)) \
        / math.sqrt(2 * math.pi * 0.25)
    dens2 = np.exp(-0.5 * (pad / 0.5) ** 2) / math.sqrt(2 * math.pi * 0.25)
    target = float(np.mean(np.log(dens1 * dens2)))
    assert abs(trace[-1] - target) <= 0.1


def test_fit_seed_determinism():
    X = RandomSource(25).standard_normal((100, 2))

    def run():
        model = make_coupling_stack(2, 2, RandomSource(26), hidden=8)
        return fit(model, X, epochs=3, batch=25, rng=RandomSource(27))

    assert np.array_equal(run(), run())


def test_fit_rejects_planar_layers():
    model = _planar_stack(2, 2, seed=28)
    X = RandomSource(29).standard_normal((50, 2))
    with pytest.raises(ValueError, match="planar"):
        fit(model, X, epochs=1, batch=25, rng=RandomSource(30))


def test_sample_pushforward_matches_forward():
    model = make_coupling_stack(2, 3, RandomSource(31))
    s = sample(model, 8, RandomSource(32))
    z = RandomSource(32).standard_normal((8, 2))
    x, _ = forward_with_logdet(model, z)
    assert np.allclose(s, x.values, atol=1e-12)


def test_invertibility_condition_enforced():
    # adversarial u chosen against w still yields w.u_hat > -1
    rng = RandomSource(33)
    for i in range(20):
        w = rng.standard_normal(3)
        u = -5.0 * w / (w @ w)      # raw w.u = -5 < -1
        layer = PlanarLayer(Tensor.param(u), Tensor.param(w), Tensor.param(np.zeros(1)))
        u_hat = layer._u_hat().values
        assert w @ u_hat > -1.0
        z = rng.standard_normal((4, 3))
        x, _ = layer.forward(Tensor(z))
        assert np.max(np.abs(layer.inverse(x)[0].values - z)) < 1e-8
