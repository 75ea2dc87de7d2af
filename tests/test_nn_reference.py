"""The nn tape records one node per dense layer, copies the first gradient
contribution instead of adding it to zeros, and runs Adam once over the
flattened parameters. This file holds the code those changes replaced,
copied as it was written before them: the Tensor ops, _accum, the
depth-first backward, the three-op dense layer and the per-tensor Adam loop.
It checks that every deep family trains, scores and samples to the same bits
on both.
"""
import sys

import eager_trainers
import numpy as np
import pytest

from latentlab import arm, diffusion, flow, gan, nn, vae
from latentlab.core import RandomSource
from latentlab.nn import ACTIVATIONS, Mlp, Tensor

SEEDS = (0, 1)
FAMILIES = ("vae", "flow", "diffusion", "arm", "gan")


# ---------------------------------------------------------------------------
# Reference copies

def ref_unbroadcast(grad, shape):
    """Reduce grad (shaped like the broadcast output) back to shape."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class RefTensor:
    """Dense array node on an implicit tape."""

    __slots__ = ("values", "grad", "parents", "_backward", "requires_grad",
                 "_backward_done")

    def __init__(self, values, parents=(), backward=None, requires_grad=False):
        self.values = np.asarray(values, dtype=float)
        self.grad = None
        self.parents = tuple(parents)
        self._backward = backward
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in self.parents)
        self._backward_done = False

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def param(values):
        return RefTensor(values, requires_grad=True)

    @staticmethod
    def const(values):
        return RefTensor(values)

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values)

    def __repr__(self):
        return f"RefTensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ----------------------------------------------
    def _lift(self, other):
        return other if isinstance(other, RefTensor) else RefTensor(np.asarray(other, dtype=float))

    def __add__(self, other):
        other = self._lift(other)
        out = RefTensor(self.values + other.values, (self, other))
        def bw(g):
            if self.requires_grad:
                ref_accum(self, ref_unbroadcast(g, self.values.shape))
            if other.requires_grad:
                ref_accum(other, ref_unbroadcast(g, other.values.shape))
        out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = RefTensor(-self.values, (self,))
        out._backward = lambda g: ref_accum(self, -g) if self.requires_grad else None
        return out

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        out = RefTensor(self.values * other.values, (self, other))
        def bw(g):
            if self.requires_grad:
                ref_accum(self, ref_unbroadcast(g * other.values, self.values.shape))
            if other.requires_grad:
                ref_accum(other, ref_unbroadcast(g * self.values, other.values.shape))
        out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        out = RefTensor(self.values / other.values, (self, other))
        def bw(g):
            if self.requires_grad:
                ref_accum(self, ref_unbroadcast(g / other.values, self.values.shape))
            if other.requires_grad:
                ref_accum(other, ref_unbroadcast(-g * self.values / other.values**2,
                                           other.values.shape))
        out._backward = bw
        return out

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __matmul__(self, other):
        other = self._lift(other)
        a, b = self.values, other.values
        if a.ndim != 2 or b.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")
        out = RefTensor(a @ b, (self, other))
        def bw(g):
            if self.requires_grad:
                ref_accum(self, g @ b.T)
            if other.requires_grad:
                ref_accum(other, a.T @ g)
        out._backward = bw
        return out

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only constant powers are supported")
        out = RefTensor(self.values ** p, (self,))
        def bw(g):
            if self.requires_grad:
                ref_accum(self, g * p * self.values ** (p - 1))
        out._backward = bw
        return out

    def __getitem__(self, key):
        out = RefTensor(self.values[key], (self,))
        def bw(g):
            if self.requires_grad:
                full = np.zeros_like(self.values)
                np.add.at(full, key, g)
                ref_accum(self, full)
        out._backward = bw
        return out

    # -- elementwise functions -------------------------------------------------
    def exp(self):
        vals = np.exp(self.values)
        out = RefTensor(vals, (self,))
        out._backward = (lambda g: ref_accum(self, g * vals)) if self.requires_grad else None
        return out

    def log(self):
        out = RefTensor(np.log(self.values), (self,))
        out._backward = (lambda g: ref_accum(self, g / self.values)) if self.requires_grad else None
        return out

    def tanh(self):
        vals = np.tanh(self.values)
        out = RefTensor(vals, (self,))
        out._backward = (lambda g: ref_accum(self, g * (1.0 - vals * vals))) if self.requires_grad else None
        return out

    def relu(self):
        vals = np.maximum(self.values, 0.0)
        out = RefTensor(vals, (self,))
        out._backward = (lambda g: ref_accum(self, g * (self.values > 0))) if self.requires_grad else None
        return out

    def sigmoid(self):
        vals = np.where(self.values >= 0,
                        1.0 / (1.0 + np.exp(-np.abs(self.values))),
                        np.exp(-np.abs(self.values)) / (1.0 + np.exp(-np.abs(self.values))))
        out = RefTensor(vals, (self,))
        out._backward = (lambda g: ref_accum(self, g * vals * (1.0 - vals))) if self.requires_grad else None
        return out

    def softplus(self):
        vals = np.logaddexp(0.0, self.values)
        out = RefTensor(vals, (self,))
        if self.requires_grad:
            sig = np.where(self.values >= 0,
                           1.0 / (1.0 + np.exp(-np.abs(self.values))),
                           np.exp(-np.abs(self.values)) / (1.0 + np.exp(-np.abs(self.values))))
            out._backward = lambda g: ref_accum(self, g * sig)
        return out

    def abs(self):
        out = RefTensor(np.abs(self.values), (self,))
        out._backward = (lambda g: ref_accum(self, g * np.sign(self.values))) if self.requires_grad else None
        return out

    def clip(self, lo, hi):
        """Clamp values; gradient passes only where unclamped."""
        vals = np.clip(self.values, lo, hi)
        out = RefTensor(vals, (self,))
        if self.requires_grad:
            mask = (self.values > lo) & (self.values < hi)
            out._backward = lambda g: ref_accum(self, g * mask)
        return out

    # -- reductions -------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        out = RefTensor(self.values.sum(axis=axis, keepdims=keepdims), (self,))
        if self.requires_grad:
            def bw(g):
                gg = np.asarray(g)
                if axis is not None and not keepdims:
                    gg = np.expand_dims(gg, axis)
                ref_accum(self, np.broadcast_to(gg, self.values.shape).copy())
            out._backward = bw
        return out

    def mean(self, axis=None, keepdims=False):
        n = self.values.size if axis is None else self.values.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def log_softmax(self, axis=-1):
        m = self.values.max(axis=axis, keepdims=True)
        shifted = self.values - m
        lse = m + np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))
        vals = self.values - lse
        out = RefTensor(vals, (self,))
        if self.requires_grad:
            soft = np.exp(vals)
            out._backward = lambda g: ref_accum(self, g - soft * g.sum(axis=axis, keepdims=True))
        return out

    def reshape(self, *shape):
        out = RefTensor(self.values.reshape(*shape), (self,))
        out._backward = (lambda g: ref_accum(self, g.reshape(self.values.shape))) if self.requires_grad else None
        return out

    def take_columns(self, idx):
        """Gather columns of a 2-D tensor by integer index array."""
        idx = np.asarray(idx, dtype=int)
        out = RefTensor(self.values[:, idx], (self,))
        if self.requires_grad:
            def bw(g):
                full = np.zeros_like(self.values)
                np.add.at(full.T, idx, g.T)
                ref_accum(self, full)
            out._backward = bw
        return out


def ref_accum(t, g):
    if t.grad is None:
        t.grad = np.zeros_like(t.values)
    t.grad += g


def ref_concat(tensors, axis=0):
    vals = np.concatenate([t.values for t in tensors], axis=axis)
    out = RefTensor(vals, tuple(tensors))
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                ref_accum(t, g[tuple(sl)])
    out._backward = bw
    return out


def ref_backward(loss):
    """Populate grads of every tape leaf reachable from the scalar loss."""
    if loss.values.size != 1:
        raise ValueError("backward requires a scalar loss")
    if loss._backward_done:
        raise RuntimeError("backward already called on this loss; rebuild the graph")
    loss._backward_done = True
    topo = []
    visited = set()
    stack = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited or not node.requires_grad:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            stack.append((p, False))
    loss.grad = np.ones_like(loss.values)
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


def ref_zero_grad(params):
    for p in params:
        p.grad = None


def ref_mlp_forward(self, x):
    if not isinstance(x, RefTensor):
        x = RefTensor(np.atleast_2d(np.asarray(x, dtype=float)))
    if x.values.ndim != 2 or x.values.shape[1] != self.in_dim:
        raise ValueError(f"input shape {x.values.shape} does not match in_dim {self.in_dim}")
    h = x
    for W, b, act in zip(self.weights, self.biases, self.activations):
        h = h @ W + b
        if act == "tanh":
            h = h.tanh()
        elif act == "relu":
            h = h.relu()
        elif act == "sigmoid":
            h = h.sigmoid()
        elif act == "softplus":
            h = h.softplus()
    return h


class RefAdamState:
    def __init__(self):
        self.m, self.v, self.t = [], [], 0


def ref_adam_step(params, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    if not state.m:
        state.m = [np.zeros_like(p.values) for p in params]
        state.v = [np.zeros_like(p.values) for p in params]
    state.t += 1
    t = state.t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        if g is None:
            continue
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        p.values = p.values - lr * m_hat / (np.sqrt(v_hat) + eps)
    return state


REFERENCE = {"Tensor": RefTensor, "concat": ref_concat, "backward": ref_backward,
             "zero_grad": ref_zero_grad, "AdamState": RefAdamState,
             "adam_step": ref_adam_step}


def reference_tape(mp):
    """Rebind every latentlab name bound to a replaced nn object to its
    reference copy and Mlp.forward to the three-op layer; the trainers and
    samplers build a fresh tape per step (reference tapes cannot replay)."""
    swap = [(getattr(nn, name), replacement) for name, replacement in REFERENCE.items()]
    for modname, mod in list(sys.modules.items()):
        if modname == "latentlab" or modname.startswith("latentlab."):
            for key, value in list(vars(mod).items()):
                for orig, replacement in swap:
                    if value is orig:
                        mp.setattr(mod, key, replacement)
    mp.setattr(Mlp, "forward", ref_mlp_forward)
    eager_trainers.install(mp)


# ---------------------------------------------------------------------------
# Families on either tape

def _mlps(model):
    if isinstance(model, vae.VaeModel):
        return [model.encoder, model.decoder]
    if isinstance(model, flow.FlowModel):
        return [net for layer in model.layers if isinstance(layer, flow.CouplingLayer)
                for net in (layer.s_net, layer.t_net)]
    if isinstance(model, diffusion.DiffusionModel):
        return [model.eps_net]
    if isinstance(model, arm.ArModel):
        return [model.cond_net]
    return [model.gen, model.disc]


def make_model(family, seed, act):
    """A small model of the family whose hidden layers all use act."""
    rng = RandomSource(seed)
    if family == "vae":
        model = vae.make_vae(3, 1, rng, hidden=5, hidden_layers=2)
    elif family == "flow":
        model = flow.make_coupling_stack(3, 3, rng, hidden=5)
    elif family == "diffusion":
        model = diffusion.make_diffusion(3, rng, T=7, hidden=5)
    elif family == "arm":
        model = arm.make_ar_model(4, 3, rng, hidden=5)
    else:
        model = gan.make_gan(3, 2, rng, hidden=5)
    for net in _mlps(model):
        net.activations[:-1] = [act] * (len(net.activations) - 1)
    return model


def _params(model):
    if isinstance(model, gan.GanModel):
        return model.gen.params() + model.disc.params()
    return model.params()


def _data(family, seed):
    if family == "arm":
        return RandomSource(seed + 50).integers(0, 3, (40, 4))
    return RandomSource(seed + 50).standard_normal((40, 3))


def train_and_score(family, seed, act):
    """(training traces, parameters, scores and samples) of one run."""
    model = make_model(family, seed, act)
    X = _data(family, seed)
    rng = RandomSource(seed + 100)
    if family == "vae":
        traces = [vae.train(model, X, 2, 8, rng, lr=0.01)]
        elbo = vae.elbo(model, X, RandomSource(seed + 200), n_samples=3)
        scores = [elbo.recon.values, elbo.kl.values, elbo.elbo.values,
                  vae.sample(model, 20, RandomSource(seed + 300))]
    elif family == "flow":
        traces = [flow.fit(model, X, 2, 8, rng, lr=0.01)]
        scores = [flow.log_likelihood(model, X), flow.sample(model, 20, RandomSource(seed + 300))]
    elif family == "diffusion":
        traces = [diffusion.train(model, X, 2, 8, rng, lr=0.01)]
        scores = [diffusion.sample(model, 20, RandomSource(seed + 300))]
    elif family == "arm":
        traces = [arm.train(model, X, 2, 8, rng, lr=0.01)]
        scores = [arm.log_likelihood_batch(model, X),
                  arm.sample(model, 20, RandomSource(seed + 300))]
    else:
        traces = list(gan.train(model, X, 6, 8, rng, k_disc=2, lr=0.01))
        scores = [gan.sample(model, 20, RandomSource(seed + 300))]
    return traces, [p.values for p in _params(model)], scores


def one_step_grads(family, seed, act):
    """Gradients of the family's training loss at a fresh model."""
    model = make_model(family, seed, act)
    X = _data(family, seed)
    rng = RandomSource(seed + 100)
    if family == "vae":
        loss = -vae.elbo(model, X, rng).elbo
    elif family == "flow":
        loss = -flow._loglik_tensor(model, nn.Tensor(X)).mean()
    elif family == "diffusion":
        loss = diffusion.loss_simple(model, X, rng)
    elif family == "arm":
        loss = -arm._loglik_tensor(model, X)
    else:
        fake = eager_trainers.gen_forward(model, 8, rng)
        loss = gan.disc_loss(model, X[:8], fake.values) + gan.gen_loss(model, fake)
    params = _params(model)
    nn.zero_grad(params)
    nn.backward(loss)
    return [p.grad for p in params]


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Tests

@pytest.mark.parametrize("act", ACTIVATIONS)
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("family", FAMILIES)
def test_family_matches_reference_tape(family, seed, act):
    traces, params, scores = train_and_score(family, seed, act)
    with pytest.MonkeyPatch.context() as mp:
        reference_tape(mp)
        ref_traces, ref_params, ref_scores = train_and_score(family, seed, act)
    assert_same_bits(traces, ref_traces)
    assert_same_bits(params, ref_params)
    assert_same_bits(scores, ref_scores)


@pytest.mark.parametrize("act", ACTIVATIONS)
@pytest.mark.parametrize("family", FAMILIES)
def test_one_step_gradients_match_reference_tape(family, act):
    # equal values (a zero may differ in sign: the old tape added the first
    # contribution to +0.0)
    grads = one_step_grads(family, 3, act)
    with pytest.MonkeyPatch.context() as mp:
        reference_tape(mp)
        ref_grads = one_step_grads(family, 3, act)
    assert len(grads) == len(ref_grads)
    for g, r in zip(grads, ref_grads):
        assert np.array_equal(g, r)


def test_reference_tape_is_installed():
    with pytest.MonkeyPatch.context() as mp:
        reference_tape(mp)
        model = make_model("flow", 0, "tanh")
        assert isinstance(_params(model)[0], RefTensor)
        assert flow.Tensor is RefTensor and nn.AdamState is RefAdamState
        assert nn.backward is ref_backward and nn.adam_step is ref_adam_step
        for family in FAMILIES:
            assert eager_trainers.recordings(train_and_score, family, 0, "tanh")[1] == 0
    assert flow.Tensor is Tensor
