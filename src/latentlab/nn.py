"""Minimal reverse-mode automatic differentiation over dense float64 arrays,
feed-forward networks, and an Adam optimizer.

The op surface is the smallest one the deep generative modules need: affine
layers, elementwise nonlinearities, reductions, log-softmax over the last
axis, indexing and concat; columns are gathered by indexing (t[:, idx]),
whose backward adds into the gathered columns by np.add.at. Each op is
written once, as a forward over its parents' current values and a
backward; a Tensor records its parents and both.
Calling backward() on a scalar loss accumulates gradients into every
reachable leaf that has requires_grad set, in reverse depth-first order from
the loss. The first contribution to a node's gradient is copied, broadcast to
the node's shape, into its gradient storage: a fresh array, or, for a
parameter that adam_step has updated, that parameter's slot of its
AdamState's flat gradient vector. Later contributions are added in place; a
gather adds into its parent's gradient by np.add.at. So a parameter's .grad
may be a view that the next backward overwrites: copy it to keep it.

The sigmoid activation is core.sigmoid, the one logistic of the package
(vae and irt evaluate it off the tape). log_softmax follows core's row
rule: its normalizer is core.log_sum_exp_rows and its backward's row sums
are core.row_sums, so it gives the bytes of numpy's last-axis reductions.

A node keeps its values; after backward() it also holds its gradient. An
op's backward reads the values of the node and of its parents, so no op keeps
anything else, with one exception below.

A dense layer act(h @ W + b) is one node (dense(), used by Mlp.forward). It
adds the bias into its own matmul result and applies tanh or relu in place
there, so it holds one array. Only softplus, whose derivative reads the
pre-activation, keeps that too. Its backward runs the expressions of the
matmul, bias-add and activation ops it stands for, so a fused layer gives the
same bits as the three-op chain.

A Recorder runs a graph once per tuple of input shapes and keeps its nodes;
later calls rebind the input leaves and rerun the same forwards, so a
training step builds no new tape and gives the bits an eager step gives.

map_rows runs a function over a large array block by block of rows, so that
scoring, inference and sampling hold one block's tape at a time: a scorer
builds one eager tape per block, and a sampler that loops over steps replays
one recording per block shape.

AdamState holds the values, the gradients and the first and second moments
of its parameters as four flat vectors in params order. After the first
step, backward() leaves each gradient in its slot, and adam_step updates
the moments and a copy of the value vector in one pass without
concatenating anything. It rebinds each parameter's values to a view of the
new vector; it never writes an array a caller or a finished tape may still
hold. descend() is the one training step of every deep trainer: a
finite-loss check, then zero_grad, backward and adam_step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (check_counts, fields_from_json, fields_to_json, json_field, json_list,
                   log_sum_exp_rows, real_array, row_sums, sigmoid as _sigmoid)

__all__ = ["Tensor", "Mlp", "AdamState", "Recorder", "as_batch", "eager", "map_rows",
           "backward", "adam_step", "concat", "zero_grad", "descend",
           "fit_minibatch", "check_lr"]


# name -> (forward, backward); backward(g, x, y) is the gradient at the input
# x given the output y = forward(x) and the output gradient g. The standalone
# ops and the fused dense node share these expressions, so both give the same
# bits. identity has no node of its own. Only softplus's backward reads x;
# relu's reads y > 0, which is x > 0 for every x, signed zeros and NaN included.
_ACTIVATION_FNS = {
    "tanh": (np.tanh, lambda g, x, y: g * (1.0 - y * y)),
    "relu": (lambda x: np.maximum(x, 0.0), lambda g, x, y: g * (y > 0)),
    "identity": (None, None),
    "sigmoid": (_sigmoid, lambda g, x, y: g * y * (1.0 - y)),
    "softplus": (lambda x: np.logaddexp(0.0, x), lambda g, x, y: g * _sigmoid(x)),
}
ACTIVATIONS = tuple(_ACTIVATION_FNS)
# the activations a dense node applies in place, over its own pre-activation
_IN_PLACE = {"tanh": lambda x: np.tanh(x, out=x), "relu": lambda x: np.maximum(x, 0.0, out=x)}
# the other elementwise ops without a parameter, in the same form
_UNARY_FNS = {
    **_ACTIVATION_FNS,
    "neg": (np.negative, lambda g, x, y: -g),
    "exp": (np.exp, lambda g, x, y: g * y),
    "log": (np.log, lambda g, x, y: g / x),
    "abs": (np.abs, lambda g, x, y: g * np.sign(x)),
}
# name -> (forward, grad_a, grad_b) of the broadcasting ops on two operands;
# grad_a(g, a, b) is the gradient at a, shaped like the output, given the
# output gradient g.
_BINARY_FNS = {
    "add": (np.add, lambda g, a, b: g, lambda g, a, b: g),
    "sub": (np.subtract, lambda g, a, b: g, lambda g, a, b: -g),
    "mul": (np.multiply, lambda g, a, b: g * b, lambda g, a, b: g * a),
    "div": (np.divide, lambda g, a, b: g / b, lambda g, a, b: -g * a / b**2),
}


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
    """Dense array node on an implicit tape.

    A leaf holds an array. An op node also holds forward(node), which
    computes its values from its parents' current values and its static
    args alone, and backward(node, g), which passes the output gradient g
    on to the parents. An eager call runs forward once; a Recorder replay
    runs the same forward again, so both give the same bits. Neither
    function is a closure over the node, so a tape holds no reference cycle.
    """

    __slots__ = ("values", "grad", "parents", "requires_grad", "_forward", "_backward",
                 "_args", "_aux", "_order", "_backward_done", "_grad_store")

    def __init__(self, values, parents=(), forward=None, backward=None, args=None,
                 requires_grad=False):
        self.grad = None
        self.parents = parents
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        self._forward = forward
        self._backward = backward
        self._args = args
        self._aux = None             # what forward keeps for backward (softplus dense: x)
        self._order = None           # a recorded loss's backward order
        self._backward_done = False
        self._grad_store = None      # where a first gradient contribution goes (adam_step)
        if forward is None:
            self.values = np.asarray(values, dtype=float)
        else:
            self.values = np.asarray(forward(self))     # a 0-d result stays an array
            if _recording is not None:
                _recording.append(self)

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def param(values):
        return Tensor(values, requires_grad=True)

    @property
    def shape(self):
        return self.values.shape

    def item(self):
        return float(self.values)

    def tolist(self):
        return self.values.tolist()

    def __repr__(self):
        return f"Tensor(shape={self.values.shape}, requires_grad={self.requires_grad})"

    # -- elementwise arithmetic ----------------------------------------------
    def _lift(self, other):
        return other if isinstance(other, Tensor) else Tensor(np.asarray(other, dtype=float))

    def _binary(self, name, other):
        return _op(_binary, _binary_grad, (self, self._lift(other)), _BINARY_FNS[name])

    def __add__(self, other):
        return self._binary("add", other)

    __radd__ = __add__

    def __neg__(self):
        return self._unary("neg")

    def __sub__(self, other):
        return self._binary("sub", other)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        return self._binary("mul", other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary("div", other)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __matmul__(self, other):
        other = self._lift(other)
        if self.values.ndim != 2 or other.values.ndim != 2:
            raise ValueError("matmul supports 2-D operands only")
        return _op(_matmul, _matmul_grad, (self, other))

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only constant powers are supported")
        return _op(_pow, _pow_grad, (self,), p)

    def __getitem__(self, key):
        return _op(_getitem, _getitem_grad, (self,), key)

    # -- elementwise functions -------------------------------------------------
    def _unary(self, name):
        return _op(_unary, _unary_grad, (self,), _UNARY_FNS[name])

    def exp(self):
        return self._unary("exp")

    def log(self):
        return self._unary("log")

    def tanh(self):
        return self._unary("tanh")

    def relu(self):
        return self._unary("relu")

    def sigmoid(self):
        return self._unary("sigmoid")

    def softplus(self):
        return self._unary("softplus")

    def abs(self):
        return self._unary("abs")

    def clip(self, lo, hi):
        """Clamp values; gradient passes only where unclamped."""
        return _op(_clip, _clip_grad, (self,), (lo, hi))

    # -- reductions -------------------------------------------------------------
    def sum(self, axis=None, keepdims=False):
        return _op(_sum, _sum_grad, (self,), (axis, keepdims))

    def mean(self, axis=None, keepdims=False):
        n = self.values.size if axis is None else self.values.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def log_softmax(self):
        """Log-probabilities over the last axis, normalized by
        core.log_sum_exp_rows."""
        return _op(_log_softmax, _log_softmax_grad, (self,))

    def reshape(self, *shape):
        return _op(_reshape, _reshape_grad, (self,), shape)


def _op(forward, backward, parents, args=None):
    """The op node forward(node) computes from parents and args."""
    return Tensor(None, parents, forward, backward, args)


def as_batch(x):
    """x as a 2-D float Tensor (one row for a vector); a Tensor passes through."""
    if isinstance(x, Tensor):
        return x
    return Tensor(np.atleast_2d(np.asarray(x, dtype=float)))


def _accum(t, g):
    """Add g to t.grad. The first contribution is copied, broadcast to t's
    shape, into t's gradient storage (a fresh array unless adam_step bound
    one): g may be an array another node still reads."""
    if t.grad is None:
        t.grad = np.empty(t.values.shape) if t._grad_store is None else t._grad_store
        t.grad[...] = g
    else:
        t.grad += g


# -- ops: forward(node) -> values and backward(node, g) -------------------------
# A backward reads the values it needs from the node and its parents when it
# runs; a unary node is on the backward walk only if its parent needs a grad.

def _binary(n):
    a, b = n.parents
    return n._args[0](a.values, b.values)


def _binary_grad(n, g):
    a, b = n.parents
    for t, grad_fn in zip(n.parents, n._args[1:]):
        if t.requires_grad:
            _accum(t, _unbroadcast(grad_fn(g, a.values, b.values), t.values.shape))


def _matmul(n):
    a, b = n.parents
    return a.values @ b.values


def _matmul_grad(n, g):
    a, b = n.parents
    if a.requires_grad:
        _accum(a, g @ b.values.T)
    if b.requires_grad:
        _accum(b, a.values.T @ g)


def _pow(n):
    return n.parents[0].values ** n._args


def _pow_grad(n, g):
    p = n._args
    _accum(n.parents[0], g * p * n.parents[0].values ** (p - 1))


def _getitem(n):
    return n.parents[0].values[n._args]


def _getitem_grad(n, g):
    parent = n.parents[0]
    if parent.grad is None:
        _accum(parent, 0.0)
    np.add.at(parent.grad, n._args, g)


def _unary(n):
    return n._args[0](n.parents[0].values)


def _unary_grad(n, g):
    _accum(n.parents[0], n._args[1](g, n.parents[0].values, n.values))


def _clip(n):
    lo, hi = n._args
    return np.clip(n.parents[0].values, lo, hi)


def _clip_grad(n, g):
    lo, hi = n._args
    x = n.parents[0].values
    _accum(n.parents[0], g * ((x > lo) & (x < hi)))


def _sum(n):
    axis, keepdims = n._args
    return n.parents[0].values.sum(axis=axis, keepdims=keepdims)


def _sum_grad(n, g):
    axis, keepdims = n._args
    gg = np.asarray(g)
    if axis is not None and not keepdims:
        gg = np.expand_dims(gg, axis)
    _accum(n.parents[0], gg)


def _log_softmax(n):
    x = n.parents[0].values
    return x - log_sum_exp_rows(x)[..., None]


def _log_softmax_grad(n, g):
    _accum(n.parents[0], g - np.exp(n.values) * row_sums(g)[..., None])


def _reshape(n):
    return n.parents[0].values.reshape(*n._args)


def _reshape_grad(n, g):
    _accum(n.parents[0], g.reshape(n.parents[0].values.shape))


def dense(h, W, b, activation):
    """act(h @ W + b) for a (batch, in) h, (in, out) W and (out,) b, as one
    tape node. Its backward applies the activation derivative, then forms
    the bias sum, g @ W.T (only when h needs a grad) and h.T @ g."""
    # backward() walks parents last to first; in this order it reaches b, W
    # and h as it did through the bias-add and matmul nodes, so every
    # gradient still sums its contributions in the same order.
    fn, grad_fn = _ACTIVATION_FNS[activation]
    return _op(_dense, _dense_grad, (h, W, b),
               (_IN_PLACE.get(activation, fn), grad_fn, activation == "softplus"))


def _dense(n):
    """The node's values: the bias added into a fresh matmul result, then the
    activation (in place for tanh and relu)."""
    h, W, b = n.parents
    fn, _grad_fn, keeps_pre = n._args
    pre = h.values @ W.values
    pre += b.values
    if keeps_pre:
        n._aux = pre
    return pre if fn is None else fn(pre)


def _dense_grad(n, g):
    h, W, b = n.parents
    grad_fn = n._args[1]
    if grad_fn is not None:
        g = grad_fn(g, n._aux, n.values)
    if b.requires_grad:
        _accum(b, _unbroadcast(g, b.values.shape))
    if h.requires_grad:
        _accum(h, g @ W.values.T)
    if W.requires_grad:
        _accum(W, h.values.T @ g)


def concat(tensors, axis=0):
    offsets = np.cumsum([0] + [t.values.shape[axis] for t in tensors])
    return _op(_concat, _concat_grad, tuple(tensors), (axis, offsets))


def _concat(n):
    return np.concatenate([t.values for t in n.parents], axis=n._args[0])


def _concat_grad(n, g):
    axis, offsets = n._args
    for t, lo, hi in zip(n.parents, offsets[:-1], offsets[1:]):
        if t.requires_grad:
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])


def _backward_order(loss):
    """The nodes below loss that need a gradient, in the order backward()
    visits them: reverse depth-first post-order from loss."""
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
    return topo[-2::-1]


def backward(loss):
    """Populate grads of every tape leaf reachable from the scalar loss. A
    recorded loss walks its recorded order."""
    if loss.values.size != 1:
        raise ValueError("backward requires a scalar loss")
    if loss._backward_done:
        raise RuntimeError("backward already called on this loss; rebuild the graph")
    loss._backward_done = True
    order = _backward_order(loss) if loss._order is None else loss._order
    loss.grad = np.ones_like(loss.values)
    if loss.requires_grad and loss._backward is not None:
        loss._backward(loss, loss.grad)
    for node in order:
        if node._backward is not None and node.grad is not None:
            node._backward(node, node.grad)


_recording = None       # the node list of the recording in progress


class Recorder:
    """graph(*tensors), recorded once per tuple of input shapes, then replayed.

    Calling the recorder on arrays returns graph's output Tensor for them.
    The first call for a tuple of shapes runs graph on leaf Tensors holding
    the arrays, keeps the nodes it creates in creation order and computes
    the output's backward order. A later call with the same shapes rebinds
    the leaves to the new arrays, clears the nodes' gradients and reruns
    each node's forward in order; backward() on the output then walks the
    recorded order. So each call returns the same output Tensor, holding
    the latest values.

    graph may read parameter Tensors (a replay reads their current values)
    and build constants from the input shapes; anything that depends on the
    data must be one of its inputs, or a replay reuses the recorded value.
    graph must not call a Recorder itself.
    """

    def __init__(self, graph):
        self.graph = graph
        self.programs = {}          # input shapes -> (leaves, nodes, output)

    def __call__(self, *arrays):
        arrays = [np.asarray(a, dtype=float) for a in arrays]
        key = tuple(a.shape for a in arrays)
        program = self.programs.get(key)
        if program is None:
            program = self.programs[key] = self._record(arrays)
            return program[2]
        leaves, nodes, out = program
        # The previous step's arrays are released after the forward, as an
        # eager step releases the previous tape. Page faults follow the
        # allocator's state: in a deep-minibatch benchmark pass, ARM's fit
        # (640 x 64 layers) took 288 minor faults so, as many with the arrays
        # released node by node, and 368 eagerly.
        previous = [(t.values, t.grad, t._aux) for t in leaves + nodes]
        for leaf, a in zip(leaves, arrays):
            leaf.values = a
        for node in nodes:
            node.grad = None
            node.values = np.asarray(node._forward(node))
        del previous
        out._backward_done = False
        return out

    def _record(self, arrays):
        global _recording
        leaves = [Tensor(a) for a in arrays]
        _recording = nodes = []
        try:
            out = self.graph(*leaves)
        finally:
            _recording = None
        out._order = _backward_order(out)
        return leaves, nodes, out


def eager(graph, arrays):
    """graph on fresh leaf Tensors holding arrays: one unrecorded tape."""
    return graph(*[Tensor(a) for a in arrays])


# The bytes one block of map_rows may hold. At N = 1e5 and D = 64 the
# narrowest product of every deep family's blocks stays above OpenBLAS's
# small-matrix cut (M * N * K <= 1e6), whose kernel rounds differently from
# the one a long matrix gets; every deep call of the benchmark is one block.
BLOCK_BYTES = 1 << 24


def map_rows(fn, arrays, width):
    """fn(*arrays) run block by block of rows; the results' rows stacked in
    order (one array, or a tuple of arrays if fn returns a tuple).

    The arrays share their first axis. width is the number of floats per
    row that fn's pass holds at once (its tape). The rows split into the
    fewest blocks of at most BLOCK_BYTES, of sizes that differ by at most one
    row; a single block is fn(*arrays) itself. fn must treat its rows
    independently; each block's results are copied out before the next
    block runs.
    """
    n = len(arrays[0])
    k = min(n, -(-n * width * 8 // BLOCK_BYTES))
    if k <= 1:
        return fn(*arrays)
    outs = None
    for i in range(k):
        rows = slice(n * i // k, n * (i + 1) // k)
        got = fn(*(a[rows] for a in arrays))
        parts = got if isinstance(got, tuple) else (got,)
        if outs is None:
            outs = tuple(np.empty((n,) + p.shape[1:], p.dtype) for p in parts)
        for out, part in zip(outs, parts):
            out[rows] = part
    return outs if isinstance(got, tuple) else outs[0]


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
        self.weights, self.biases = (
            [param(v, f"{name}[{i}]", rank) for i, v in enumerate(json_list(values, name))]
            for name, values, rank in (("weights", self.weights, 2), ("biases", self.biases, 1)))
        if len(self.weights) != len(self.biases) \
                or len(self.weights) != len(json_list(self.activations, "activations")):
            raise ValueError("weights, biases, activations must align")
        for act in self.activations:
            if act not in ACTIVATIONS:
                raise ValueError(f"unknown activation {act!r}")
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if b.shape != (W.shape[1],):
                raise ValueError(f"biases[{i}] has shape {b.shape}, expected ({W.shape[1]},)")
            if i and self.weights[i - 1].shape[1] != W.shape[0]:
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

    @property
    def width(self):
        """Floats per input row that a forward holds: the input and the output
        of every layer."""
        return self.in_dim + sum(W.shape[1] for W in self.weights)

    def params(self):
        return list(self.weights) + list(self.biases)

    def to_json(self):
        return {**fields_to_json(self), "dims": [self.in_dim] + [w.shape[1] for w in self.weights]}

    @classmethod
    def from_json(cls, obj):
        """The network of its to_json form, whose dims must be the widths its
        weights give."""
        mlp, dims = fields_from_json(cls, obj), json_field(obj, "dims", "network")
        widths = [mlp.in_dim] + [w.shape[1] for w in mlp.weights]
        if repr(dims) != repr(widths):      # by repr, neither true nor 2.0 stands for an int
            raise ValueError(f"network dims {dims!r:.40} do not match its weights' {widths}")
        return mlp

    def forward(self, x):
        """Apply the layer stack to a (batch, in_dim) tensor or array."""
        x = as_batch(x)
        if x.values.ndim != 2 or x.values.shape[1] != self.in_dim:
            raise ValueError(f"input shape {x.values.shape} does not match in_dim {self.in_dim}")
        h = x
        for W, b, act in zip(self.weights, self.biases, self.activations):
            h = dense(h, W, b, act)
        return h


def param(value, name, rank):
    """value as a trainable Tensor of real_array(value, name, rank), the
    field rule; a Tensor's values are checked and the Tensor kept."""
    values = real_array(value.values if isinstance(value, Tensor) else value, name, rank)
    return value if isinstance(value, Tensor) else Tensor.param(values)


@dataclass
class AdamState:
    """Flat vectors over all parameters, in params order (None before the
    first step): theta, whose views the parameters' values are; grad, whose
    views their gradient storage is; and the first and second moments m and
    v. t counts completed steps."""

    m: np.ndarray | None = None
    v: np.ndarray | None = None
    t: int = 0
    theta: np.ndarray | None = None
    grad: np.ndarray | None = None


# Adam's moment decay rates and denominator offset (Kingma & Ba's defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def adam_step(params, grads, state, lr=1e-3):
    """One bias-corrected Adam update of params; returns state.

    A gradient that is not its parameter's slot of state.grad (one passed
    from outside, or computed before that slot was bound) is copied into
    the slot, and the slot becomes the parameter's gradient storage, so the
    next backward() writes there. A p.values that is not a view of
    state.theta (rebound by a caller since the last step) is copied in too.
    The update runs once over the flat vectors, on a copy of state.theta;
    each p.values is rebound to a view of that copy, so arrays held before
    the step are never written. A parameter whose gradient is None keeps its
    values and its moments.
    """
    present = [g is not None for g in grads]
    if not any(present):
        state.t += 1
        return state
    sizes = [p.values.size for p in params]
    if state.theta is None:
        state.theta, state.grad, state.m, state.v = (np.zeros(sum(sizes)) for _ in range(4))
    elif state.theta.size != sum(sizes):
        raise ValueError("parameter sizes changed since the first Adam step")
    old, grad = state.theta, state.grad
    theta = old.copy()
    start = 0
    for p, g, size in zip(params, grads, sizes):
        cut = slice(start, start + size)
        start += size
        if p.values.base is not old:
            theta[cut] = p.values.ravel()
        if g is None:
            continue
        store = p._grad_store
        if store is None or store.base is not grad:
            store = p._grad_store = grad[cut].reshape(p.values.shape)
        if g is not store:
            if np.size(g) != size:
                raise ValueError("gradient sizes do not match the parameters")
            grad[cut] = np.ravel(g)
        p.values = theta[cut].reshape(p.values.shape)
    state.t += 1
    t = state.t
    live = slice(None) if all(present) else np.repeat(present, sizes)
    g, m, v = grad[live], state.m[live], state.v[live]
    m *= ADAM_BETA1
    m += (1 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1 - ADAM_BETA2) * g * g
    if not all(present):
        state.m[live] = m
        state.v[live] = v
    m_hat = m / (1 - ADAM_BETA1 ** t)
    v_hat = v / (1 - ADAM_BETA2 ** t)
    theta[live] -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    state.theta = theta
    return state


def check_lr(lr):
    """Raise ValueError unless the learning rate is positive and finite."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"lr must be positive and finite, got {lr}")


def descend(loss, params, state, lr, what):
    """One Adam descent step on a scalar loss Tensor: zero the params'
    gradients, backpropagate, update. A non-finite loss raises
    FloatingPointError(what) before any gradient or parameter changes."""
    if not np.isfinite(loss.values):
        raise FloatingPointError(what)
    zero_grad(params)
    backward(loss)
    adam_step(params, [p.grad for p in params], state, lr=lr)


def fit_minibatch(inputs, graph, params, X, epochs, batch, rng, lr):
    """Minibatch Adam descent on graph(*tensors), a scalar loss over the
    arrays inputs(rows, rng) returns for a batch of rows of X; returns the
    mean loss of each epoch.

    Each epoch visits the rows in a fresh rng permutation, batch rows at a
    time. The step is recorded once per batch shape (a tail batch gets its
    own recording) and replayed; a non-finite loss raises FloatingPointError.
    """
    check_counts(epochs=epochs, batch=batch)
    check_lr(lr)
    N = X.shape[0]
    state = AdamState()
    step = Recorder(graph)
    trace = []
    for epoch in range(epochs):
        order = rng.permutation(N)
        losses = []
        for start in range(0, N, batch):
            loss = step(*inputs(X[order[start:start + batch]], rng))
            descend(loss, params, state, lr, f"loss diverged at epoch {epoch}")
            losses.append(float(loss.values))
        trace.append(float(np.mean(losses)))
    return np.asarray(trace)
