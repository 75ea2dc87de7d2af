"""Minimal reverse-mode automatic differentiation over dense float64 arrays,
feed-forward networks, and an Adam optimizer.

The op surface is the smallest one the deep generative modules need: affine
layers, elementwise nonlinearities, reductions, log-softmax, column
gather/concat. A Tensor records its parents and a backward closure; calling
backward() on a scalar loss accumulates gradients into every reachable leaf
that has requires_grad set. The first contribution to a gradient is copied,
later ones are added in place, in reverse depth-first order from the loss.

A dense layer act(h @ W + b) is one node (dense(), used by Mlp.forward). Its
backward runs the expressions of the matmul, bias-add and activation ops it
stands for, so a fused layer gives the same bits as the three-op chain.

AdamState holds the first and second moments of all parameters as two flat
vectors. adam_step updates them in one pass over the concatenated gradients
and rebinds each parameter's values to a view of one new flat vector; it
never writes an array a caller or a finished tape may still hold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Tensor", "Mlp", "AdamState", "forward", "backward", "adam_step",
           "concat", "zero_grad", "fit_minibatch", "check_counts"]


def _sigmoid(x):
    """Logistic function; exp(-|x|) is evaluated once and never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# name -> (forward, backward); backward(g, x, y) is the gradient at the input
# x given the output y = forward(x) and the output gradient g. The standalone
# ops and the fused dense node share these expressions, so both give the same
# bits. identity has no node of its own.
_ACTIVATION_FNS = {
    "tanh": (np.tanh, lambda g, x, y: g * (1.0 - y * y)),
    "relu": (lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (x > 0)),
    "identity": (None, None),
    "sigmoid": (_sigmoid, lambda g, x, y: g * y * (1.0 - y)),
    "softplus": (lambda x: np.logaddexp(0.0, x), lambda g, x, y: g * _sigmoid(x)),
}
ACTIVATIONS = tuple(_ACTIVATION_FNS)


def _unbroadcast(grad, shape):
    """Reduce grad (shaped like the broadcast output) back to shape."""
    if grad.shape == tuple(shape):
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and grad.shape[i] != 1:
            grad = grad.sum(axis=i, keepdims=True)
    return grad


class Tensor:
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
        return Tensor(values, requires_grad=True)

    @staticmethod
    def const(values):
        return Tensor(values)

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values)

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ----------------------------------------------
    def _lift(self, other):
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=float))

    def __add__(self, other):
        other = self._lift(other)
        out = Tensor(self.values + other.values, (self, other))
        def bw(g):
            if self.requires_grad:
                _accum(self, _unbroadcast(g, self.values.shape))
            if other.requires_grad:
                _accum(other, _unbroadcast(g, other.values.shape))
        out._backward = bw
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.values, (self,))
        out._backward = lambda g: _accum(self, -g) if self.requires_grad else None
        return out

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        out = Tensor(self.values * other.values, (self, other))
        def bw(g):
            if self.requires_grad:
                _accum(self, _unbroadcast(g * other.values, self.values.shape))
            if other.requires_grad:
                _accum(other, _unbroadcast(g * self.values, other.values.shape))
        out._backward = bw
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        out = Tensor(self.values / other.values, (self, other))
        def bw(g):
            if self.requires_grad:
                _accum(self, _unbroadcast(g / other.values, self.values.shape))
            if other.requires_grad:
                _accum(other, _unbroadcast(-g * self.values / other.values**2,
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
        out = Tensor(a @ b, (self, other))
        def bw(g):
            if self.requires_grad:
                _accum(self, g @ b.T)
            if other.requires_grad:
                _accum(other, a.T @ g)
        out._backward = bw
        return out

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only constant powers are supported")
        out = Tensor(self.values ** p, (self,))
        def bw(g):
            if self.requires_grad:
                _accum(self, g * p * self.values ** (p - 1))
        out._backward = bw
        return out

    def __getitem__(self, key):
        out = Tensor(self.values[key], (self,))
        def bw(g):
            if self.requires_grad:
                full = np.zeros_like(self.values)
                np.add.at(full, key, g)
                _accum(self, full)
        out._backward = bw
        return out

    # -- elementwise functions -------------------------------------------------
    def exp(self):
        vals = np.exp(self.values)
        out = Tensor(vals, (self,))
        out._backward = (lambda g: _accum(self, g * vals)) if self.requires_grad else None
        return out

    def log(self):
        out = Tensor(np.log(self.values), (self,))
        out._backward = (lambda g: _accum(self, g / self.values)) if self.requires_grad else None
        return out

    def _activate(self, name):
        fn, grad_fn = _ACTIVATION_FNS[name]
        vals = fn(self.values)
        out = Tensor(vals, (self,))
        if self.requires_grad:
            out._backward = lambda g: _accum(self, grad_fn(g, self.values, vals))
        return out

    def tanh(self):
        return self._activate("tanh")

    def relu(self):
        return self._activate("relu")

    def sigmoid(self):
        return self._activate("sigmoid")

    def softplus(self):
        return self._activate("softplus")

    def abs(self):
        out = Tensor(np.abs(self.values), (self,))
        out._backward = (lambda g: _accum(self, g * np.sign(self.values))) if self.requires_grad else None
        return out

    def clip(self, lo, hi):
        """Clamp values; gradient passes only where unclamped."""
        vals = np.clip(self.values, lo, hi)
        out = Tensor(vals, (self,))
        if self.requires_grad:
            mask = (self.values > lo) & (self.values < hi)
            out._backward = lambda g: _accum(self, g * mask)
        return out

    # -- reductions -------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.values.sum(axis=axis, keepdims=keepdims), (self,))
        if self.requires_grad:
            def bw(g):
                gg = np.asarray(g)
                if axis is not None and not keepdims:
                    gg = np.expand_dims(gg, axis)
                _accum(self, gg)
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
        out = Tensor(vals, (self,))
        if self.requires_grad:
            soft = np.exp(vals)
            out._backward = lambda g: _accum(self, g - soft * g.sum(axis=axis, keepdims=True))
        return out

    def reshape(self, *shape):
        out = Tensor(self.values.reshape(*shape), (self,))
        out._backward = (lambda g: _accum(self, g.reshape(self.values.shape))) if self.requires_grad else None
        return out

    def take_columns(self, idx):
        """Gather columns of a 2-D tensor by integer index array."""
        idx = np.asarray(idx, dtype=int)
        out = Tensor(self.values[:, idx], (self,))
        if self.requires_grad:
            def bw(g):
                full = np.zeros_like(self.values)
                np.add.at(full.T, idx, g.T)
                _accum(self, full)
            out._backward = bw
        return out


def _accum(t, g):
    """Add g to t.grad. The first contribution is copied, broadcast to t's
    shape: g may be an array another node still reads."""
    if t.grad is None:
        g = np.array(g, dtype=float)
        t.grad = g if g.shape == t.values.shape else np.array(np.broadcast_to(g, t.values.shape))
    else:
        t.grad += g


def dense(h, W, b, activation):
    """act(h @ W + b) for a (batch, in) h, (in, out) W and (out,) b, as one
    tape node. Its backward applies the activation derivative, then forms
    the bias sum, g @ W.T (only when h needs a grad) and h.T @ g."""
    fn, grad_fn = _ACTIVATION_FNS[activation]
    x, w = h.values, W.values
    pre = x @ w + b.values
    vals = pre if fn is None else fn(pre)
    # backward() walks parents last to first; in this order it reaches b, W
    # and h as it did through the bias-add and matmul nodes, so every
    # gradient still sums its contributions in the same order.
    out = Tensor(vals, (h, W, b))
    def bw(g):
        if grad_fn is not None:
            g = grad_fn(g, pre, vals)
        if b.requires_grad:
            _accum(b, _unbroadcast(g, b.values.shape))
        if h.requires_grad:
            _accum(h, g @ w.T)
        if W.requires_grad:
            _accum(W, x.T @ g)
    out._backward = bw
    return out


def concat(tensors, axis=0):
    vals = np.concatenate([t.values for t in tensors], axis=axis)
    out = Tensor(vals, tuple(tensors))
    sizes = [t.values.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)
    def bw(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(lo, hi)
                _accum(t, g[tuple(sl)])
    out._backward = bw
    return out


def backward(loss):
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


def zero_grad(params):
    for p in params:
        p.grad = None


@dataclass
class Mlp:
    """Fully connected network: weights[i] (d_i, d_{i+1}), biases[i] (d_{i+1},),
    one activation name per layer."""

    weights: list
    biases: list
    activations: list

    def __post_init__(self):
        if len(self.weights) != len(self.biases) or len(self.weights) != len(self.activations):
            raise ValueError("weights, biases, activations must align")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for i in range(len(self.weights) - 1):
            if self.weights[i].shape[1] != self.weights[i + 1].shape[0]:
                raise ValueError("consecutive layer dims are incompatible")

    @classmethod
    def create(cls, dims, activations, rng):
        """Glorot-uniform weights, zero biases; deterministic given rng."""
        if len(activations) != len(dims) - 1:
            raise ValueError("need one activation per layer")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = math.sqrt(6.0 / (fan_in + fan_out))
            W = bound * (2.0 * rng.uniform((fan_in, fan_out)) - 1.0)
            weights.append(Tensor.param(W))
            biases.append(Tensor.param(np.zeros(fan_out)))
        return cls(weights, biases, list(activations))

    @property
    def in_dim(self):
        return self.weights[0].shape[0]

    @property
    def out_dim(self):
        return self.weights[-1].shape[1]

    def params(self):
        return list(self.weights) + list(self.biases)

    def to_json(self):
        return {"dims": [self.in_dim] + [w.shape[1] for w in self.weights],
                "activations": list(self.activations),
                "weights": [w.values.tolist() for w in self.weights],
                "biases": [b.values.tolist() for b in self.biases]}

    @classmethod
    def from_json(cls, obj):
        return cls([Tensor.param(np.asarray(w, dtype=float)) for w in obj["weights"]],
                   [Tensor.param(np.asarray(b, dtype=float)) for b in obj["biases"]],
                   list(obj["activations"]))

    def forward(self, x):
        """Apply the layer stack to a (batch, in_dim) tensor."""
        if not isinstance(x, Tensor):
            x = Tensor(np.atleast_2d(np.asarray(x, dtype=float)))
        if x.values.ndim != 2 or x.values.shape[1] != self.in_dim:
            raise ValueError(f"input shape {x.values.shape} does not match in_dim {self.in_dim}")
        h = x
        for W, b, act in zip(self.weights, self.biases, self.activations):
            h = dense(h, W, b, act)
        return h


def forward(mlp, x):
    """Functional alias for Mlp.forward."""
    return mlp.forward(x)


@dataclass
class AdamState:
    """First/second moments of all parameters, flattened and concatenated in
    params order (None before the first step); t counts completed steps."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0


def adam_step(params, grads, state, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """One bias-corrected Adam update of params; returns state.

    The update runs once over the concatenated gradients. Each p.values is
    then rebound to a view of one new flat parameter vector: arrays held
    before the step are never written. A parameter whose gradient is None
    keeps its values and its moments.
    """
    present = [g is not None for g in grads]
    if not any(present):
        state.t += 1
        return state
    theta = np.concatenate([p.values.ravel() for p in params])
    if state.m is None:
        state.m = np.zeros_like(theta)
        state.v = np.zeros_like(theta)
    elif state.m.size != theta.size:
        raise ValueError("parameter sizes changed since the first Adam step")
    state.t += 1
    t = state.t
    if all(present):
        live = slice(None)
    else:
        live = np.repeat(present, [p.values.size for p in params])
    g = np.concatenate([np.ravel(g) for g in grads if g is not None])
    m = state.m[live]
    v = state.v[live]
    if g.size != m.size:
        raise ValueError("gradient sizes do not match the parameters")
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * g * g
    if not all(present):
        state.m[live] = m
        state.v[live] = v
    m_hat = m / (1 - beta1 ** t)
    v_hat = v / (1 - beta2 ** t)
    theta[live] -= lr * m_hat / (np.sqrt(v_hat) + eps)
    start = 0
    for p, g in zip(params, grads):
        size = p.values.size
        if g is not None:
            p.values = theta[start:start + size].reshape(p.values.shape)
        start += size
    return state


def check_counts(**counts):
    """Raise ValueError naming the first count (epochs, steps, batch) below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def fit_minibatch(loss_fn, params, X, epochs, batch, rng, lr):
    """Minibatch Adam descent on loss_fn(rows, rng), a scalar Tensor over a
    batch of rows of X; returns the mean loss of each epoch.

    Each epoch visits the rows in a fresh rng permutation, batch rows at a
    time; a non-finite loss raises FloatingPointError.
    """
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
