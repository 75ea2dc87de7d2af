import math
import zlib

import numpy as np
import pytest
from eager_trainers import gen_forward, recordings

from latentlab import nn
from latentlab.core import RandomSource
from latentlab.nn import (ACTIVATIONS, AdamState, Mlp, Tensor, adam_step, backward,
                          concat, dense, zero_grad)


def finite_diff(f, params, eps=1e-4):
    """Central finite differences of a scalar function of Tensor leaves."""
    grads = []
    for p in params:
        g = np.zeros_like(p.values)
        flat = p.values.ravel()
        gflat = g.ravel()
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            up = f()
            flat[i] = old - eps
            dn = f()
            flat[i] = old
            gflat[i] = (up - dn) / (2 * eps)
        grads.append(g)
    return grads


def assert_grads_match(loss_fn, params, rel=1e-4):
    zero_grad(params)
    loss = loss_fn()
    backward(loss)
    fd = finite_diff(lambda: float(loss_fn().values), params)
    for p, g in zip(params, fd):
        got = p.grad if p.grad is not None else np.zeros_like(p.values)
        scale = max(np.abs(g).max(), np.abs(got).max(), 1e-8)
        assert np.allclose(got, g, atol=rel * scale), (got, g)


# -- forward -----------------------------------------------------------------

def test_forward_zero_net_identity_activation():
    mlp = Mlp([Tensor.param(np.zeros((3, 2)))], [Tensor.param(np.zeros(2))], ["identity"])
    out = mlp.forward(np.ones((4, 3)))
    assert np.array_equal(out.values, np.zeros((4, 2)))


def test_forward_single_linear_layer_matmul_oracle():
    rng = RandomSource(0)
    W = rng.standard_normal((3, 2))
    b = rng.standard_normal(2)
    mlp = Mlp([Tensor.param(W)], [Tensor.param(b)], ["identity"])
    X = rng.standard_normal((5, 3))
    assert np.allclose(mlp.forward(X).values, X @ W + b, atol=1e-12)


def test_forward_tanh_at_zero():
    mlp = Mlp([Tensor.param(np.eye(2))], [Tensor.param(np.zeros(2))], ["tanh"])
    x = Tensor(np.zeros((1, 2)))
    out = mlp.forward(x)
    assert np.array_equal(out.values, np.zeros((1, 2)))
    # derivative of tanh at 0 is 1: gradient of sum(out) w.r.t. bias is 1
    loss = out.sum()
    backward(loss)
    assert np.allclose(mlp.biases[0].grad, [1.0, 1.0])


def test_forward_shape_mismatch():
    mlp = Mlp([Tensor.param(np.zeros((3, 2)))], [Tensor.param(np.zeros(2))], ["identity"])
    with pytest.raises(ValueError):
        mlp.forward(np.ones((4, 5)))


# -- backward ----------------------------------------------------------------

def test_backward_sum_gives_ones():
    x = Tensor.param(RandomSource(1).standard_normal((3, 4)))
    loss = x.sum()
    backward(loss)
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_quadratic_analytic_oracle():
    rng = RandomSource(2)
    W = Tensor.param(rng.standard_normal((2, 3)))
    x = rng.standard_normal((1, 2))
    out = Tensor(x) @ W
    loss = (out * out).sum() * 0.5
    backward(loss)
    # grad_W = x^T (x W)
    assert np.allclose(W.grad, x.T @ (x @ W.values), atol=1e-12)


def test_backward_two_layer_net_fd():
    rng = RandomSource(3)
    mlp = Mlp.create([3, 4, 2], ["tanh", "identity"], rng)
    X = rng.standard_normal((5, 3))

    def loss_fn():
        out = mlp.forward(Tensor(X))
        return (out * out).sum()

    assert_grads_match(loss_fn, mlp.params())


def test_backward_twice_errors():
    x = Tensor.param(np.ones(3))
    loss = x.sum()
    backward(loss)
    with pytest.raises(RuntimeError):
        backward(loss)


def test_backward_requires_scalar():
    x = Tensor.param(np.ones(3))
    with pytest.raises(ValueError):
        backward(x * 2.0)


@pytest.mark.parametrize("op", ["tanh", "relu", "sigmoid", "softplus", "exp",
                                "log", "square", "sum", "log_softmax",
                                "affine", "clip", "getitem", "concat",
                                "take_columns", "gather_twice", "abs_", "sub", "rsub"])
def test_gradcheck_each_op(op):
    rng = RandomSource(zlib.crc32(op.encode()))      # the same inputs in every process
    X = rng.standard_normal((3, 4)) * 0.7

    if op == "log":
        X = np.abs(X) + 0.5
    if op == "clip":      # keep away from the kinks at +-0.5
        X = np.where(np.abs(np.abs(X) - 0.5) < 1e-3, X + 0.01, X)
    p = Tensor.param(X.copy())

    def loss_fn():
        t = p
        if op == "tanh":
            out = t.tanh()
        elif op == "relu":
            out = (t + 0.05).relu()      # keep away from the kink
        elif op == "sigmoid":
            out = t.sigmoid()
        elif op == "softplus":
            out = t.softplus()
        elif op == "exp":
            out = t.exp()
        elif op == "log":
            out = t.log()
        elif op == "square":
            out = t ** 2
        elif op == "sum":
            out = t.sum(axis=1)
        elif op == "log_softmax":
            out = t.log_softmax()
        elif op == "affine":
            out = t * 2.5 + 1.0 - t / 3.0
        elif op == "clip":
            out = t.clip(-0.5, 0.5) * t  # mixed to exercise masked grads
        elif op == "getitem":
            out = t[:, 1:3] * 2.0
        elif op == "concat":
            out = concat([t, t * 2.0], axis=1)
        elif op == "take_columns":
            out = t[:, np.array([2, 0, 2, 1])]
        elif op == "gather_twice":      # the second gather adds into t's gradient
            out = concat([t[:, np.array([0, 2, 2])], t[:, np.array([3, 2, 1, 2])]], axis=1)
        elif op == "abs_":
            out = (t + 0.9).abs()
        elif op == "sub":
            out = t - t * t
        elif op == "rsub":
            out = 1.0 - t
        return ((out * out).sum() + out.sum()) * 0.37

    assert_grads_match(loss_fn, [p])


def test_gradcheck_softmax_log_likelihood():
    rng = RandomSource(5)
    logits = Tensor.param(rng.standard_normal((4, 3)))
    targets = np.zeros((4, 3))
    targets[np.arange(4), [0, 2, 1, 2]] = 1.0

    def loss_fn():
        return -(logits.log_softmax() * Tensor(targets)).sum()

    assert_grads_match(loss_fn, [logits])


def test_gradcheck_matmul_broadcast_bias():
    rng = RandomSource(6)
    W = Tensor.param(rng.standard_normal((3, 2)))
    b = Tensor.param(rng.standard_normal(2))
    X = rng.standard_normal((5, 3))

    def loss_fn():
        return ((Tensor(X) @ W + b).tanh() ** 2).sum()

    assert_grads_match(loss_fn, [W, b])


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("act", ACTIVATIONS)
def test_gradcheck_dense_node(act, input_grad):
    rng = RandomSource(40)
    X = rng.standard_normal((5, 3)) * 0.7
    h = Tensor.param(X) if input_grad else Tensor(X)
    W = Tensor.param(rng.standard_normal((3, 4)))
    b = Tensor.param(0.1 * rng.standard_normal(4))

    def loss_fn():
        out = dense(h, W, b, act)
        return ((out * out).sum() + out.sum()) * 0.37

    assert_grads_match(loss_fn, [W, b] + ([h] if input_grad else []))
    if not input_grad:
        assert h.grad is None


# h, W and b hold 0.0 and -0.0, and h entries where each activation
# saturates: tanh and sigmoid round to +-1 and 0, softplus to 0 and to x.
# BLAS sums a row of zero terms to +0.0, so a dense pre-activation is never
# -0.0; relu at -0.0 is checked on the standalone op.
EDGE_INPUTS = np.array([[0.0], [-0.0], [40.0], [-40.0], [800.0], [-800.0], [0.3], [-1e-300]])


def _dense_inputs(act, input_grad):
    """h (8, 2): the edge inputs beside random ones, W (2, 4) and b (4,), the
    bias holding 0.0 and -0.0."""
    rng = RandomSource(zlib.crc32(act.encode()))
    X = np.hstack([EDGE_INPUTS, rng.standard_normal((8, 1))])
    W = np.array([[1.0, -1.0, 0.5, -0.0], [0.0, -0.0, 0.25, -0.75]])
    b = np.array([-0.0, 0.0, -0.0, 0.1])
    h = Tensor.param(X) if input_grad else Tensor(X)
    return h, Tensor.param(W), Tensor.param(b)


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("act", ACTIVATIONS)
def test_dense_node_gives_the_bits_of_the_three_op_chain(act, input_grad):
    results = []
    for fused in (True, False):
        h, W, b = _dense_inputs(act, input_grad)
        if fused:
            out = dense(h, W, b, act)
        else:
            out = h @ W + b
            out = out if act == "identity" else getattr(out, act)()
        weights = RandomSource(7).standard_normal(out.values.shape)
        backward((out * weights).sum())
        results.append([out.values] + [t.grad for t in (W, b, h) if t.requires_grad])
    fused, chain = results
    assert len(fused) == len(chain) == (4 if input_grad else 3)
    for a, c in zip(fused, chain):
        assert a.tobytes() == c.tobytes()


def test_relu_backward_reads_the_sign_of_its_output():
    # y > 0 passes the gradient exactly where x > 0 does: at NaN and at either
    # zero it passes none
    x = Tensor.param(np.array([np.nan, -0.0, 0.0, 1e-300, -1e-300, 2.0, -2.0]))
    backward(x.relu().sum())
    assert np.array_equal(x.grad, (x.values > 0).astype(float))


@pytest.mark.parametrize("act", ACTIVATIONS)
def test_dense_never_writes_a_held_array(act):
    # a square layer: its output could be written into h
    h, W, b = _dense_inputs(act, True)
    W, b = Tensor.param(W.values[:, :2]), Tensor.param(b.values[:2])
    held = [h.values, W.values, b.values]
    saved = [a.copy() for a in held]
    out = dense(h, W, b, act)
    backward(out.sum())
    assert all(out.values is not a for a in held)
    for a, s in zip(held, saved):
        assert a.tobytes() == s.tobytes()


@pytest.mark.parametrize("act", ACTIVATIONS)
def test_a_replay_never_writes_the_previous_steps_arrays(act):
    mlp = Mlp.create([3, 5, 4, 2], [act, act, "identity"], RandomSource(42))
    step = nn.Recorder(_squared_error(mlp))
    rng = RandomSource(43)
    loss = step(rng.standard_normal((6, 3)), rng.standard_normal((6, 2)))
    backward(loss)
    nodes = step.programs[((6, 3), (6, 2))][1]
    held = [loss.values] + [n.values for n in nodes] + [n.grad for n in nodes if n.grad is not None]
    saved = [a.copy() for a in held]
    for _ in range(2):
        assert step(rng.standard_normal((6, 3)), rng.standard_normal((6, 2))) is loss
        backward(loss)
        for a, s in zip(held, saved):
            assert a.tobytes() == s.tobytes()
    assert loss.values is not held[0]


def test_first_gradient_contribution_is_copied():
    # the node of a + b hands one array to both operands; a then gets a
    # second contribution, which must not reach b's gradient
    a = Tensor.param(np.array([1.0, 2.0]))
    b = Tensor.param(np.array([3.0, 4.0]))
    backward((a + b).sum() + (a * 2.0).sum())
    assert np.array_equal(a.grad, [3.0, 3.0])
    assert np.array_equal(b.grad, [1.0, 1.0])


def test_mlp_forward_records_one_node_per_layer():
    mlp = Mlp.create([3, 4, 2], ["tanh", "identity"], RandomSource(41))
    x = Tensor(np.ones((2, 3)))
    out = mlp.forward(x)
    hidden = out.parents[0]
    assert out.parents == (hidden, mlp.weights[1], mlp.biases[1])
    assert hidden.parents == (x, mlp.weights[0], mlp.biases[0])


# -- adam ----------------------------------------------------------------------

def _adam_reference(values, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam on one array, step by step."""
    m = np.zeros_like(values)
    v = np.zeros_like(values)
    for t, g in enumerate(grads, start=1):
        m = m * beta1 + (1 - beta1) * g
        v = v * beta2 + (1 - beta2) * g * g
        values = values - lr * (m / (1 - beta1 ** t)) / (np.sqrt(v / (1 - beta2 ** t)) + eps)
    return values


def test_adam_none_gradient_leaves_param_and_moments():
    a = Tensor.param(np.array([[1.0, -2.0], [0.5, 3.0]]))
    b = Tensor.param(np.array([4.0, -5.0, 6.0]))
    b_before = b.values
    state = AdamState()
    g1, g2 = np.array([[0.3, -0.1], [0.2, 0.4]]), np.array([[-0.5, 0.2], [0.1, 0.0]])
    state = adam_step([a, b], [g1, None], state)
    state = adam_step([a, b], [g2, None], state)
    assert b.values is b_before
    assert np.array_equal(b.values, [4.0, -5.0, 6.0])
    assert np.array_equal(state.m[4:], np.zeros(3)) and np.array_equal(state.v[4:], np.zeros(3))
    assert state.t == 2
    assert np.array_equal(a.values, _adam_reference(np.array([[1.0, -2.0], [0.5, 3.0]]), [g1, g2]))
    # the moments of b start from zero once it gets a gradient
    state = adam_step([a, b], [g1, np.ones(3)], state)
    assert np.array_equal(state.m[4:], np.full(3, 1 - 0.9))


def test_adam_reads_values_reassigned_between_steps():
    p = Tensor.param(np.array([1.0, 2.0]))
    q = Tensor.param(np.array([3.0]))
    state = adam_step([p, q], [np.array([0.5, -0.5]), np.array([1.0])], AdamState(), lr=0.1)
    p.values = np.array([10.0, 20.0])                # as from_json and the tests do
    state = adam_step([p, q], [np.array([0.5, -0.5]), np.array([1.0])], state, lr=0.1)
    # the second step moves the new values by the second Adam step
    one = _adam_reference(np.zeros(2), [np.array([0.5, -0.5])], lr=0.1)
    two = _adam_reference(np.zeros(2), [np.array([0.5, -0.5])] * 2, lr=0.1)
    assert np.allclose(p.values, np.array([10.0, 20.0]) + (two - one), rtol=0, atol=1e-12)
    assert np.array_equal(q.values, _adam_reference(np.array([3.0]), [np.array([1.0])] * 2,
                                                    lr=0.1))


def test_adam_never_writes_a_held_array():
    W = Tensor.param(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor.param(np.array([0.5, -0.5]))
    state = AdamState()
    for _ in range(3):
        held = [W.values, b.values]
        saved = [a.copy() for a in held]
        state = adam_step([W, b], [np.ones((2, 2)), np.ones(2)], state, lr=0.1)
        for p, h, s in zip((W, b), held, saved):
            assert p.values is not h and p.values.shape == h.shape
            assert np.array_equal(h, s)
            assert np.all(p.values < h)


def _storage_loss(W, b, x):
    """A loss whose gradients reach W and b through a dense node, a gather of
    that node, a gather with repeats of W itself and a broadcast (the sum of
    W), so the first contribution to each may come by any of these."""
    h = dense(Tensor(x), W, b, "tanh")
    return ((h[:, np.array([0, 2, 2])] ** 2).sum() + W[:, np.array([1, 1, 3])].sum()
            + W.sum() * 0.1 + (b * b).sum())


def _storage_run(outside, rebind=False, steps=4):
    """Parameters and moments after Adam steps on _storage_loss, with the
    gradients passed as outside copies or left in storage; with rebind, a
    caller adds 1 to W by a new array, and to b in place, between the last
    backward and its step."""
    rng = RandomSource(60)
    W, b = Tensor.param(rng.standard_normal((3, 4))), Tensor.param(rng.standard_normal(4))
    params, state = [W, b], AdamState()
    for step in range(steps):
        zero_grad(params)
        backward(_storage_loss(W, b, rng.standard_normal((5, 3))))
        if step:
            assert all(p.grad.base is state.grad for p in params)
        if rebind and step == steps - 1:
            W.values = W.values + 1.0
            b.values += 1.0
        held = [p.values for p in params]
        saved = [a.copy() for a in held]
        grads = [p.grad.copy() if outside else p.grad for p in params]
        if outside:
            for p in params:
                p.grad[...] = np.nan        # the step must read the arrays passed
        adam_step(params, grads, state, lr=0.05)
        for p, h, s in zip(params, held, saved):         # the previous values stay as they were
            assert p.values is not h and h.tobytes() == s.tobytes()
    return [p.values for p in params] + [state.m, state.v]


def test_adam_gives_the_same_bytes_from_storage_and_from_outside_gradients():
    for a, b in zip(_storage_run(outside=False), _storage_run(outside=True)):
        assert a.tobytes() == b.tobytes()


def test_adam_reads_values_rebound_between_a_backward_and_its_step():
    # the last gradients were taken before the shift, so the last step moves
    # the shifted values as it moves the plain ones
    got, want = _storage_run(outside=False, rebind=True), _storage_run(outside=False)
    for shifted, plain in zip(got[:2], want[:2]):
        assert np.allclose(shifted - plain, 1.0, rtol=0, atol=1e-12)
    for a, b in zip(got[2:], want[2:]):
        assert a.tobytes() == b.tobytes()


def test_two_adam_states_keep_separate_storage():
    # as in the GAN: the generator's loss also reaches the discriminator's
    # gradients, which the discriminator's next step zeroes first
    def run(outside):
        gen = Mlp.create([2, 4, 3], ["tanh", "identity"], RandomSource(61))
        disc = Mlp.create([3, 4, 1], ["relu", "identity"], RandomSource(62))
        states = {"gen": AdamState(), "disc": AdamState()}
        rng = RandomSource(63)
        for _ in range(3):
            for name, net in (("disc", disc), ("gen", gen)):
                fake = gen.forward(rng.standard_normal((5, 2)))
                if name == "disc":
                    fake = Tensor(fake.values)
                loss = (disc.forward(fake) ** 2).mean()
                if name == "disc":
                    loss = loss - disc.forward(rng.standard_normal((5, 3))).mean()
                zero_grad(net.params())
                backward(loss)
                grads = [p.grad.copy() if outside else p.grad for p in net.params()]
                adam_step(net.params(), grads, states[name], lr=0.05)
        return gen, disc, states

    gen, disc, states = run(outside=False)
    assert not np.shares_memory(states["gen"].grad, states["disc"].grad)
    for name, net in (("gen", gen), ("disc", disc)):
        assert all(p._grad_store.base is states[name].grad for p in net.params())
    ref_gen, ref_disc, ref_states = run(outside=True)
    for net, ref in ((gen, ref_gen), (disc, ref_disc)):
        for p, q in zip(net.params(), ref.params()):
            assert p.values.tobytes() == q.values.tobytes()
    for name in states:
        assert states[name].m.tobytes() == ref_states[name].m.tobytes()


def test_adam_rejects_gradients_and_parameters_of_other_sizes():
    p = Tensor.param(np.array([1.0, -2.0]))
    for g in (np.ones(3), np.ones(1)):          # one entry would broadcast into the slot
        with pytest.raises(ValueError, match="gradient sizes"):
            adam_step([p], [g], AdamState())
    state = adam_step([p], [np.ones(2)], AdamState())
    p.values = np.ones(3)
    with pytest.raises(ValueError, match="parameter sizes"):
        adam_step([p], [np.ones(3)], state)


def test_adam_zero_gradient_no_move():
    p = Tensor.param(np.array([1.0, -2.0]))
    state = AdamState()
    state = adam_step([p], [np.zeros(2)], state)
    assert np.array_equal(p.values, [1.0, -2.0])


def test_adam_zero_lr_identity():
    p = Tensor.param(np.array([1.0, -2.0]))
    state = adam_step([p], [np.array([0.3, -0.4])], AdamState(), lr=0.0)
    assert np.array_equal(p.values, [1.0, -2.0])


def test_adam_constant_gradient_step_size():
    # scalar recurrence oracle: with constant gradient the bias-corrected
    # update approaches lr * sign(g), never exceeding lr * (1 + delta)
    p = Tensor.param(np.array([0.0]))
    state = AdamState()
    lr = 1e-2
    prev = p.values.copy()
    for i in range(200):
        state = adam_step([p], [np.array([2.0])], state, lr=lr)
        step = prev - p.values
        assert step[0] <= lr * 1.05
        prev = p.values.copy()
    assert step[0] == pytest.approx(lr, rel=1e-3)


def test_adam_deterministic_trajectory():
    def run():
        rng = RandomSource(7)
        mlp = Mlp.create([2, 3, 1], ["tanh", "identity"], rng)
        X = RandomSource(8).standard_normal((10, 2))
        state = AdamState()
        for _ in range(5):
            out = mlp.forward(Tensor(X))
            loss = (out * out).sum()
            zero_grad(mlp.params())
            backward(loss)
            state = adam_step(mlp.params(), [p.grad for p in mlp.params()], state)
        return [p.values.copy() for p in mlp.params()]

    a, b = run(), run()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_mlp_create_glorot_bounds():
    rng = RandomSource(9)
    mlp = Mlp.create([10, 20], ["identity"], rng)
    bound = math.sqrt(6.0 / 30)
    assert np.all(np.abs(mlp.weights[0].values) <= bound)
    assert np.array_equal(mlp.biases[0].values, np.zeros(20))


def test_mlp_rejects_bad_specs():
    with pytest.raises(ValueError):
        Mlp.create([3, 4], ["tanh", "identity"], RandomSource(0))
    with pytest.raises(ValueError):
        Mlp([Tensor.param(np.zeros((3, 2)))], [Tensor.param(np.zeros(2))], ["mystery"])


def _reference_loop(objective, sign, params, X, epochs, batch, rng, lr):
    """The minibatch loop each deep trainer carried before fit_minibatch:
    the trace holds the per-epoch mean of the objective, and the loss is
    sign * objective."""
    state = AdamState()
    trace = []
    for _epoch in range(epochs):
        order = rng.permutation(X.shape[0])
        values = []
        for start in range(0, X.shape[0], batch):
            obj = objective(X[order[start:start + batch]], rng)
            assert np.isfinite(obj.values)
            loss = -obj if sign < 0 else obj
            zero_grad(params)
            backward(loss)
            state = adam_step(params, [p.grad for p in params], state, lr=lr)
            values.append(float(obj.values))
        trace.append(float(np.mean(values)))
    return np.asarray(trace)


@pytest.mark.parametrize("family", ["vae", "flow", "diffusion", "arm"])
def test_trainers_match_reference_loop(family):
    from latentlab import arm, diffusion, flow, vae
    X = RandomSource(21).standard_normal((23, 3))
    if family == "vae":
        make = lambda: vae.make_vae(3, 1, RandomSource(1), hidden=5)
        train = vae.train
        objective = lambda m: (lambda xb, r: vae.elbo(m, xb, r).elbo)
        sign = -1
    elif family == "flow":
        make = lambda: flow.make_coupling_stack(3, 2, RandomSource(2), hidden=5)
        train = flow.fit
        objective = lambda m: (lambda xb, r: flow._loglik_tensor(m, Tensor(xb)).mean())
        sign = -1
    elif family == "diffusion":
        make = lambda: diffusion.make_diffusion(3, RandomSource(3), T=7, hidden=5)
        train = diffusion.train
        objective = lambda m: (lambda xb, r: diffusion.loss_simple(m, xb, r))
        sign = 1
    else:
        X = RandomSource(22).integers(0, 3, (23, 4))
        make = lambda: arm.make_ar_model(4, 3, RandomSource(4), hidden=5)
        train = arm.train
        objective = lambda m: (lambda xb, r: arm._loglik_tensor(m, xb) * (1.0 / len(xb)))
        sign = -1
    model, ref = make(), make()
    trace = train(model, X, 2, 5, RandomSource(9), lr=0.01)
    ref_trace = _reference_loop(objective(ref), sign, ref.params(), X, 2, 5, RandomSource(9),
                                0.01)
    assert np.array_equal(trace, ref_trace)
    for p, q in zip(model.params(), ref.params()):
        assert np.array_equal(p.values, q.values)


# -- recording and replay --------------------------------------------------------

def _affine_net(seed):
    return Mlp.create([3, 4, 2], ["tanh", "identity"], RandomSource(seed))


def _squared_error(mlp):
    # the target is an input, so nothing of the data is recorded as a constant
    return lambda x, y: ((mlp.forward(x) - y) ** 2).mean()


def test_fit_minibatch_replays_to_the_eager_bits():
    # 10 rows in batches of 4 leave a tail of 2, which records a second program
    X = RandomSource(50).standard_normal((10, 5))
    mlp, ref = _affine_net(51), _affine_net(51)
    trace, count = recordings(nn.fit_minibatch, lambda rows, _r: (rows[:, :3], rows[:, 3:]),
                              _squared_error(mlp), mlp.params(), X, 3, 4, RandomSource(52), 0.05)
    assert count == 2
    objective = lambda rows, _r: _squared_error(ref)(Tensor(rows[:, :3]), Tensor(rows[:, 3:]))
    ref_trace = _reference_loop(objective, 1, ref.params(), X, 3, 4, RandomSource(52), 0.05)
    assert np.array_equal(trace, ref_trace)
    for p, q in zip(mlp.params(), ref.params()):
        assert np.array_equal(p.values, q.values)


def test_recorder_records_each_input_shape_once():
    mlp = _affine_net(53)
    step = nn.Recorder(_squared_error(mlp))
    rng = RandomSource(54)

    def run():
        for n in (4, 4, 3, 4, 3, 6):
            x, y = rng.standard_normal((n, 3)), rng.standard_normal((n, 2))
            loss = step(x, y)
            zero_grad(mlp.params())
            backward(loss)
            got = [loss.values] + [p.grad for p in mlp.params()]
            eager_loss = _squared_error(mlp)(Tensor(x), Tensor(y))
            zero_grad(mlp.params())
            backward(eager_loss)
            want = [eager_loss.values] + [p.grad for p in mlp.params()]
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
            # a parameter update between steps reaches the next replay
            mlp.weights[0].values = mlp.weights[0].values * 0.9

    assert recordings(run)[1] == 3 and len(step.programs) == 3


def test_replayed_output_is_the_recorded_tensor_and_can_step_again():
    mlp = _affine_net(55)
    step = nn.Recorder(_squared_error(mlp))
    x, y = np.ones((2, 3)), np.zeros((2, 2))
    first = step(x, y)
    backward(first)
    with pytest.raises(RuntimeError):
        backward(first)
    assert step(x, y) is first
    backward(first)


def test_finite_loss_check_fires_on_a_replay_before_any_parameter_moves():
    X = RandomSource(56).standard_normal((8, 5))
    mlp = _affine_net(57)
    calls, before = [0], []

    def inputs(rows, _r):
        calls[0] += 1
        if calls[0] == 3:                           # a replayed step
            before.extend(p.values.copy() for p in mlp.params())
            return rows[:, :3], np.full((len(rows), 2), np.inf)
        return rows[:, :3], rows[:, 3:]

    with pytest.raises(FloatingPointError, match="loss diverged at epoch 1"):
        nn.fit_minibatch(inputs, _squared_error(mlp), mlp.params(), X, 3, 4,
                         RandomSource(58), 0.05)
    for p, b in zip(mlp.params(), before):
        assert np.array_equal(p.values, b)


def _eager_losses(family):
    from latentlab import arm, diffusion, flow, gan, vae
    rng = RandomSource(60)
    X = rng.standard_normal((6, 3))
    if family == "vae":
        return [-vae.elbo(vae.make_vae(3, 2, rng, hidden=4), X, rng, n_samples=2).elbo]
    if family == "flow":
        return [-flow._loglik_tensor(flow.make_coupling_stack(3, 2, rng, hidden=4), X).mean()]
    if family == "diffusion":
        return [diffusion.loss_simple(diffusion.make_diffusion(3, rng, T=5, hidden=4), X, rng)]
    if family == "arm":
        model = arm.make_ar_model(4, 3, rng, hidden=4)
        return [-arm._loglik_tensor(model, rng.integers(0, 3, (6, 4)))]
    model = gan.make_gan(3, 2, rng, hidden=4)
    fake = gen_forward(model, 6, rng)
    return [gan.disc_loss(model, X, fake.values), gan.gen_loss(model, fake)]


@pytest.mark.parametrize("family", ["vae", "flow", "diffusion", "arm", "gan"])
def test_eager_tapes_hold_no_reference_cycle(family):
    import gc
    gc.collect()
    gc.disable()
    try:
        losses = _eager_losses(family)
        backward(losses[0])
        del losses
        assert gc.collect() == 0
    finally:
        gc.enable()


def _recorded_nodes(graph, *arrays):
    """The nodes a Recorder records for one call of graph on arrays."""
    step = nn.Recorder(graph)
    out = step(*arrays)
    return next(iter(step.programs.values()))[1], out


def test_a_difference_is_one_recorded_node():
    y = Tensor.param(np.array([1.0, -2.0, 0.5]))
    x = np.array([0.25, 3.0, -1.0])
    for graph, want in ((lambda t: t - y, x - y.values), (lambda t: 1.0 - t, 1.0 - x),
                        (lambda t: y - t, y.values - x)):
        nodes, out = _recorded_nodes(graph, x)
        assert len(nodes) == 1 and np.array_equal(out.values, want)


def test_a_recorded_flow_step_holds_82_nodes(monkeypatch):
    # a permutation's zero log-det adds no node to the sum
    from latentlab import flow
    sizes = []
    record = nn.Recorder._record

    def counting(self, arrays):
        program = record(self, arrays)
        sizes.append(len(program[1]))
        return program
    monkeypatch.setattr(nn.Recorder, "_record", counting)
    model = flow.make_coupling_stack(8, 4, RandomSource(3))
    flow.fit(model, RandomSource(4).standard_normal((64, 8)), 1, 64, RandomSource(5))
    assert sizes == [82]
