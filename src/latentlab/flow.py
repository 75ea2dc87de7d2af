"""Normalizing flows: exact densities via the change of variables, with
planar layers, affine coupling layers, and fixed permutations.

The generator direction z -> x is "forward". Every layer has one
forward(z) and one inverse(x) over Tensors, each returning the result and
the log-determinant of that direction's Jacobian per row; the two agree up
to sign. Coupling and permutation layers invert analytically and
differentiably; planar layers invert by scalar root-finding into constants,
so flows containing planar layers support evaluation and inversion but not
gradient-based likelihood training.

log_likelihood and sample run the stack block by block of rows
(nn.map_rows), each block on its own eager tape: a planar inverse builds its
constants from the block's data.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (check_counts, check_width, fields_from_json, fields_to_json, int_fields,
                   json_field, json_list)
from .nn import Mlp, Tensor, as_batch, concat, fit_minibatch, map_rows, param

__all__ = ["PlanarLayer", "CouplingLayer", "PermutationLayer", "FlowModel",
           "forward_with_logdet", "inverse", "log_likelihood", "fit",
           "sample", "make_coupling_stack", "to_json", "from_json"]

S_CLAMP = 5.0
PLANAR_ROOT_MAX_ITERS = 100
PLANAR_ROOT_TOL = 1e-12


@dataclass
class PlanarLayer:
    """Residual perturbation z + u_hat * tanh(w.z + b).

    u is reparameterized as u_hat = u + (m(w.u) - w.u) * w / |w|^2 with
    m(a) = -1 + softplus(a), which forces w.u_hat > -1 and hence global
    invertibility.
    """

    u: Tensor
    w: Tensor
    b: Tensor

    def __post_init__(self):
        self.u, self.w, self.b = (param(getattr(self, k), k, 1) for k in ("u", "w", "b"))
        if self.u.shape != self.w.shape or self.b.shape != (1,):
            raise ValueError("a planar layer's u and w must have one length, and b one entry")

    @classmethod
    def create(cls, dim, rng):
        scale = 0.1
        return cls(Tensor.param(scale * rng.standard_normal(dim)),
                   Tensor.param(scale * rng.standard_normal(dim)),
                   Tensor.param(np.zeros(1)))

    @property
    def dim(self):
        return self.u.values.shape[0]

    def params(self):
        return [self.u, self.w, self.b]

    def _u_hat(self):
        wu = (self.w * self.u).sum()
        m = (-1.0) + wu.softplus()
        wnorm2 = (self.w * self.w).sum()
        return self.u + (m - wu) / wnorm2 * self.w

    def forward(self, z):
        u_hat = self._u_hat()
        w_col = self.w.reshape(-1, 1)
        pre = z @ w_col + self.b                      # (N, 1)
        t = pre.tanh()
        out = z + t @ u_hat.reshape(1, -1)
        wu_hat = (self.w * u_hat).sum()
        logdet = (1.0 + (1.0 - t * t) * wu_hat).abs().log().sum(axis=1)
        return out, logdet

    def inverse(self, x):
        """Solve the scalar pre-activation per row, then subtract the bump.
        z and its log-det (minus the forward one at z) are constants: no
        gradient flows through this inverse."""
        u_hat = self._u_hat().values
        w = self.w.values
        b = float(self.b.values[0])
        wu = float(w @ u_hat)
        X = x.values
        z = np.empty_like(X)
        for i, target in enumerate(X @ w):
            alpha = _solve_planar_pre(target, wu, b)
            z[i] = X[i] - u_hat * math.tanh(alpha + b)
        z = Tensor(z)
        return z, Tensor(-self.forward(z)[1].values)


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


@dataclass
class CouplingLayer:
    """Affine coupling: the b-half is scaled and shifted by networks of the
    a-half; the a-half passes through unchanged. s outputs are smoothly
    clamped to |s| <= 5 to keep exp(s) bounded."""

    idx_a: np.ndarray
    idx_b: np.ndarray
    s_net: Mlp
    t_net: Mlp

    @classmethod
    def create(cls, dim, rng, hidden=32):
        idx_a, idx_b = np.arange(dim // 2), np.arange(dim // 2, dim)
        s_net = Mlp.create([len(idx_a), hidden, len(idx_b)], ["tanh", "identity"], rng.split(1))
        t_net = Mlp.create([len(idx_a), hidden, len(idx_b)], ["tanh", "identity"], rng.split(2))
        return cls(idx_a, idx_b, s_net, t_net)

    def __post_init__(self):
        int_fields(self, idx_a=1, idx_b=1)
        order = np.concatenate([self.idx_a, self.idx_b])
        if not np.array_equal(np.sort(order), np.arange(order.size)):
            raise ValueError("coupling mask must partition all dimensions exactly once")
        if any((net.in_dim, net.out_dim) != (self.idx_a.size, self.idx_b.size)
               for net in (self.s_net, self.t_net)):
            raise ValueError("coupling networks must map the a-half to the b-half")
        # columns of [a-half, b-half] in the model's dimension order
        self.scatter = np.argsort(order)

    @property
    def dim(self):
        return self.idx_a.size + self.idx_b.size

    def params(self):
        return self.s_net.params() + self.t_net.params()

    def _s_t(self, za):
        s_raw = self.s_net.forward(za)
        s = (s_raw * (1.0 / S_CLAMP)).tanh() * S_CLAMP
        t = self.t_net.forward(za)
        return s, t

    def forward(self, z):
        za = z[:, self.idx_a]
        zb = z[:, self.idx_b]
        s, t = self._s_t(za)
        zb_new = zb * s.exp() + t
        out = concat([za, zb_new], axis=1)[:, self.scatter]
        logdet = s.sum(axis=1)
        return out, logdet

    def inverse(self, x):
        za = x[:, self.idx_a]
        xb = x[:, self.idx_b]
        s, t = self._s_t(za)
        zb = (xb - t) * (-s).exp()
        z = concat([za, zb], axis=1)[:, self.scatter]
        return z, -(s.sum(axis=1))


@dataclass
class PermutationLayer:
    """Fixed index permutation; volume preserving."""

    perm: np.ndarray

    def __post_init__(self):
        int_fields(self, perm=1)
        self.inv_perm = np.argsort(self.perm)
        if not np.array_equal(self.perm[self.inv_perm], np.arange(self.perm.size)):
            raise ValueError(f"perm must be a permutation of 0..{self.perm.size - 1}")

    @property
    def dim(self):
        return self.perm.size

    def params(self):
        return []

    def forward(self, z):
        return z[:, self.perm], Tensor(np.zeros(z.values.shape[0]))

    def inverse(self, x):
        return x[:, self.inv_perm], Tensor(np.zeros(x.values.shape[0]))


@dataclass
class FlowModel:
    """Ordered layer stack, at least one layer, over a standard-Gaussian base
    of dimension dim."""

    layers: list
    dim: int

    def __post_init__(self):
        int_fields(self, dim=0)
        if not self.layers:
            raise ValueError("a flow needs at least one layer")
        for layer in self.layers:
            if layer.dim != self.dim:
                raise ValueError("all layers must share the model dimension")

    def params(self):
        out = []
        for layer in self.layers:
            out.extend(layer.params())
        return out

    @property
    def width(self):
        """Floats per row that a pass through the stack holds, roughly: the
        row at each layer and each coupling network's forward."""
        nets = [net for layer in self.layers if isinstance(layer, CouplingLayer)
                for net in (layer.s_net, layer.t_net)]
        return len(self.layers) * self.dim + sum(net.width for net in nets)


LAYER_KINDS = {"planar": PlanarLayer, "coupling": CouplingLayer,
               "permutation": PermutationLayer}


def _layer_from_json(obj):
    kind = json_field(obj, "kind", "flow layer")
    if not isinstance(kind, str) or kind not in LAYER_KINDS:
        raise ValueError(f"unknown flow layer kind {kind!r:.40}")
    return fields_from_json(LAYER_KINDS[kind], obj)


def to_json(model):
    kinds = {cls: kind for kind, cls in LAYER_KINDS.items()}
    return {"dim": model.dim, "layers": [{"kind": kinds[type(layer)], **fields_to_json(layer)}
                                         for layer in model.layers]}


def from_json(obj):
    layers = json_list(json_field(obj, "layers", "flow"), "layers")
    return FlowModel([_layer_from_json(lo) for lo in layers], json_field(obj, "dim", "flow"))


def make_coupling_stack(dim, n_layers, rng, hidden=32):
    """Couplings interleaved with roll-by-one permutations.

    The fixed permutation rotates lanes through the transformed half, so the
    halves effectively alternate layer to layer and every coordinate is
    transformed; alternating the mask on top of the roll would undo the
    rotation for dim = 2 and leave one lane untouched.
    """
    check_counts(layers=n_layers, hidden=hidden)
    layers = []
    for i in range(n_layers):
        layers.append(CouplingLayer.create(dim, rng.split(10 + i), hidden=hidden))
        if i < n_layers - 1:
            layers.append(PermutationLayer(np.roll(np.arange(dim), 1)))
    return FlowModel(layers, dim)


def _walk(layers, x, direction):
    """Apply each layer's forward or inverse in turn to x (an array or a
    Tensor); returns the result and the sum of the layers' log-dets. A
    permutation's log-det is zero, so it adds no node to the sum."""
    x = as_batch(x)
    total = None
    for layer in layers:
        x, ld = getattr(layer, direction)(x)
        if not isinstance(layer, PermutationLayer):
            total = ld if total is None else total + ld
    return x, ld if total is None else total     # permutations alone: their zero log-det


def forward_with_logdet(model, z0):
    """Push base samples through the stack; returns (x, sum of log-dets)."""
    return _walk(model.layers, z0, "forward")


def inverse(model, x):
    """Recover z0 by applying layer inverses in reverse order."""
    return _walk(model.layers[::-1], x, "inverse")[0].values


def _loglik_tensor(model, x):
    """log p(x) = log N(z0; 0, I) + sum of inverse log-dets along the
    recovered trajectory, on the tape (differentiable without planar layers)."""
    z, total = _walk(model.layers[::-1], x, "inverse")
    d = z.values.shape[1]
    base = (z * z).sum(axis=1) * (-0.5) + (-0.5 * d * math.log(2 * math.pi))
    return base + total


def log_likelihood(model, x):
    """Exact log-density of each row of x, which must have the model's width,
    from one inverse pass per block of rows."""
    X = check_width(np.atleast_2d(np.asarray(x, dtype=float)), model.dim)
    return map_rows(lambda xb: _loglik_tensor(model, xb).values, [X], model.width)


def fit(model, data, epochs, batch, rng, lr=1e-3):
    """Minibatch maximum likelihood; returns per-epoch mean log-likelihood."""
    if any(isinstance(layer, PlanarLayer) for layer in model.layers):
        raise ValueError(
            "likelihood training requires analytically invertible layers "
            "(coupling/permutation); planar layers support evaluation only")
    X = np.atleast_2d(np.asarray(data, dtype=float))
    return -fit_minibatch(lambda rows, _r: (rows,), lambda x: -_loglik_tensor(model, x).mean(),
                          model.params(), X, epochs, batch, rng, lr)


def sample(model, n, rng):
    """Base draws pushed through the generator direction, block by block of
    rows."""
    return map_rows(lambda z: forward_with_logdet(model, z)[0].values,
                    [rng.standard_normal((n, model.dim))], model.width)
