"""PPCA-EM iterates on the sample covariance S, the 2PL E-step forms its
node log-likelihoods with one product, and the 2PL M-step solves each
item's 2 x 2 Newton system in closed form. This file holds the code they
replaced, copied as it was written before, and checks that the new code
agrees with it: equal iteration counts and W, sigma2 and objective trace
within 1e-9 relative for PPCA; the node log-likelihoods within 1e-12
relative for IRT; the Newton step within 1e-12 of a linear solve, and IRT
fits with equal iteration counts and a and b within 1e-8 relative. The
Newton solve now also stops once an accepted step leaves (log a, b) as they
are; the closed-form solve from before that stop is copied too, and the
fits must keep its bytes with fewer objective evaluations.

The flat-em sizes are the benchmark's own (perfbench/inputs.py, loaded by
path), at its seeds 0 and 1.
"""
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from latentlab import irt, ppca
from latentlab.core import RandomSource, check_finite, chol_psd
from latentlab.em import EmConfig, run_em
from latentlab.ppca import SIGMA2_FLOOR, PpcaParams

INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


def _load_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Reference copies

def ref_em_init(X, M, rng):
    N, D = X.shape
    W0 = rng.standard_normal((D, M)) * np.sqrt(0.1)
    total_var = float(np.trace(np.cov(X.T, bias=True).reshape(D, D))) / D
    return PpcaParams(W0, X.mean(axis=0), 0.5 * max(total_var, SIGMA2_FLOOR))


def ref_fit_em(data, M, cfg, init=None):
    X = np.atleast_2d(np.asarray(data, dtype=float))
    check_finite(X, "data")
    N, D = X.shape
    mu = X.mean(axis=0)
    Xc = X - mu
    S = (Xc.T @ Xc) / N

    def e_step(params, _data):
        Minv = np.linalg.inv(params.W.T @ params.W + params.sigma2 * np.eye(M))
        Ez = Xc @ (Minv @ params.W.T).T
        Ezz_shared = params.sigma2 * Minv
        L = chol_psd(params.W @ params.W.T + params.sigma2 * np.eye(D))
        Linv = np.linalg.inv(L)
        logdet = 2.0 * np.sum(np.log(np.diag(L)))
        loglik = -0.5 * N * (D * math.log(2 * math.pi) + logdet
                             + np.sum((Linv @ S) * Linv))
        return Ez, Ezz_shared, float(loglik)

    def m_step(_data, post):
        Ez, Ezz_shared, _loglik = post
        sum_xz = Xc.T @ Ez
        sum_zz = N * Ezz_shared + Ez.T @ Ez
        W_new = np.linalg.solve(sum_zz.T, sum_xz.T).T
        resid = np.sum(Xc * Xc) - 2.0 * np.sum(sum_xz * W_new) \
            + np.trace(W_new.T @ W_new @ sum_zz)
        sigma2_new = max(resid / (N * D), SIGMA2_FLOOR)
        return PpcaParams(W_new, mu, sigma2_new)

    if init is None:
        init = ref_em_init(X, M, RandomSource(cfg.seed))
    params, report = run_em(e_step, m_step, lambda post: post[2], X, init, cfg)
    return ppca.canonicalize(params), report


def ref_newton_item_unstopped(theta, r, n, c0, b0):
    c, b = c0, b0
    f = irt._item_objective(c, b, theta, r, n)
    with np.errstate(over="ignore"):
        for _ in range(irt.NEWTON_MAX_STEPS):
            a = math.exp(c)
            z = a * theta - b
            p = 1.0 / (1.0 + np.exp(-z))
            resid = r - n * p
            g_a = float(resid @ theta)
            g_b = -float(resid.sum())
            w = n * p * (1.0 - p)
            h_aa = -float(w @ (theta * theta))
            h_ab = float(w @ theta)
            h_bb = -float(w.sum())
            g_c = a * g_a
            h_cc = a * a * h_aa + a * g_a
            h_cb = a * h_ab
            if abs(g_c) < irt.NEWTON_GRAD_TOL and abs(g_b) < irt.NEWTON_GRAD_TOL:
                break
            step_c, step_b = irt._newton_step(g_c, g_b, h_cc, h_cb, h_bb)
            t = 1.0
            improved = False
            for _ in range(30):
                c_new, b_new = c - t * step_c, b - t * step_b
                f_new = irt._item_objective(c_new, b_new, theta, r, n)
                if f_new >= f:
                    c, b, f = c_new, b_new, f_new
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
    return c, b


def ref_log_lik_at_nodes(params, X, quad):
    Z = np.outer(quad.nodes, params.a) - params.b
    log_p1 = -np.logaddexp(0.0, -Z)
    log_p0 = -np.logaddexp(0.0, Z)
    return X @ log_p1.T + (1 - X) @ log_p0.T


def ref_newton_item(theta, r, n, c0, b0):
    c, b = c0, b0
    f = irt._item_objective(c, b, theta, r, n)
    with np.errstate(over="ignore"):
        for _ in range(irt.NEWTON_MAX_STEPS):
            a = math.exp(c)
            z = a * theta - b
            p = 1.0 / (1.0 + np.exp(-z))
            resid = r - n * p
            g_a = float(resid @ theta)
            g_b = -float(resid.sum())
            w = n * p * (1.0 - p)
            h_aa = -float(w @ (theta * theta))
            h_ab = float(w @ theta)
            h_bb = -float(w.sum())
            g_c = a * g_a
            h_cc = a * a * h_aa + a * g_a
            h_cb = a * h_ab
            grad = np.array([g_c, g_b])
            if np.linalg.norm(grad, ord=np.inf) < irt.NEWTON_GRAD_TOL:
                break
            H = np.array([[h_cc, h_cb], [h_cb, h_bb]])
            H -= 1e-10 * np.eye(2)
            try:
                step = np.linalg.solve(H, grad)
            except np.linalg.LinAlgError:
                step = -grad
            t = 1.0
            improved = False
            for _ in range(30):
                c_new, b_new = c - t * step[0], b - t * step[1]
                f_new = irt._item_objective(c_new, b_new, theta, r, n)
                if f_new >= f:
                    c, b, f = c_new, b_new, f_new
                    improved = True
                    break
                t *= 0.5
            if not improved:
                break
    return c, b


# ---------------------------------------------------------------------------
# Tests

def _c02_data(seed):
    """c02's data (tests/test_acceptance.py) at one of its 10 seeds."""
    rng = RandomSource(2000 + seed)
    D, M = 4, 2
    W = rng.standard_normal((D, M))
    mu = rng.standard_normal(D)
    sigma2 = 0.1 + 0.4 * rng.uniform()
    Z = rng.standard_normal((400, M))
    return Z @ W.T + mu + math.sqrt(sigma2) * rng.standard_normal((400, D)), M


def _flat_em_data(seed):
    """flat-em's PPCA training set at one of its seeds."""
    inputs = _load_inputs()
    (X,) = inputs.ppca_data(inputs.rng_for(seed, 2), (20_000,), 16, 3)
    return X, 3


def _assert_close_fit(got, want):
    (p, rep), (q, ref) = got, want
    assert rep.iters == ref.iters and rep.converged == ref.converged
    np.testing.assert_allclose(p.W, q.W, rtol=1e-9, atol=0)
    np.testing.assert_allclose(p.sigma2, q.sigma2, rtol=1e-9, atol=0)
    np.testing.assert_allclose(rep.objective_trace, ref.objective_trace, rtol=1e-9, atol=0)
    assert p.mu.tobytes() == q.mu.tobytes()


@pytest.mark.parametrize("seed", range(10))
def test_ppca_em_on_s_matches_row_based_reference_on_c02(seed):
    X, M = _c02_data(seed)
    cfg = EmConfig(seed=seed, rel_tol=1e-12, max_iters=5000)
    _assert_close_fit(ppca.fit_em(X, M, cfg), ref_fit_em(X, M, cfg))


@pytest.mark.parametrize("seed", [0, 1])
def test_ppca_em_on_s_matches_row_based_reference_at_flat_em_size(seed):
    X, M = _flat_em_data(seed)
    cfg = EmConfig(seed=seed, rel_tol=1e-12)
    _assert_close_fit(ppca.fit_em(X, M, cfg), ref_fit_em(X, M, cfg))


def test_ppca_em_on_s_matches_row_based_reference_from_a_given_start():
    X, M = _c02_data(3)
    init = PpcaParams(np.arange(8.0).reshape(4, 2) / 7.0, X.mean(axis=0), 2.0)
    cfg = EmConfig(seed=0, rel_tol=1e-12, max_iters=5000)
    _assert_close_fit(ppca.fit_em(X, M, cfg, init=init), ref_fit_em(X, M, cfg, init=init))


def _irt_case(seed, N=300, J=12):
    """Responses and an item set whose a * theta - b spans [-30, 30] on the
    nodes: steep items with difficulties out at +-25 among ordinary ones."""
    g = np.random.default_rng(seed)
    a = np.concatenate([g.uniform(0.3, 2.0, J - 4), [5.0, 5.0, 0.5, 1.0]])
    b = np.concatenate([g.normal(size=J - 4), [-5.0, 5.0, 25.0, -25.0]])
    X = (g.random((N, J)) < 0.5).astype(int)
    return irt.IrtParams(a, b), X


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_irt_one_product_matches_two_products(seed):
    params, X = _irt_case(seed)
    quad = irt.default_quadrature()
    Z = np.outer(quad.nodes, params.a) - params.b
    assert np.abs(Z).max() >= 30.0
    want = ref_log_lik_at_nodes(params, X, quad)
    for data in (X, X.astype(float)):
        np.testing.assert_allclose(irt._log_lik_at_nodes(params, data, quad), want,
                                   rtol=1e-12, atol=0)


def test_irt_one_product_is_exact_up_to_the_rounding_of_its_terms():
    # A row whose every response is near-certain at a node has a node
    # log-likelihood near zero: the sum x . z + sum log p0 of terms as large
    # as |z| cancels there, so the agreement is absolute, within the rounding
    # of those terms (sum_j |z_j| times a few ulps).
    a, b = np.full(4, 6.0), np.full(4, -6.0)
    params = irt.IrtParams(a, b)
    quad = irt.default_quadrature()
    X = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 1, 0]])
    got = irt._log_lik_at_nodes(params, X, quad)
    want = ref_log_lik_at_nodes(params, X, quad)
    Z = np.outer(quad.nodes, a) - b
    scale = np.abs(Z).sum(axis=1) + np.abs(np.logaddexp(0.0, Z)).sum(axis=1)
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * scale)


@pytest.mark.parametrize("seed", range(5))
def test_newton_step_in_closed_form_matches_a_linear_solve(seed):
    # symmetric Hessians of either definiteness with eigenvalues 1 to 100
    # in size, gradients from 1e-3 to 1e3
    g = np.random.default_rng(seed)
    for _ in range(200):
        Q = np.linalg.qr(g.normal(size=(2, 2)))[0]
        H = (Q * g.choice([-1.0, 1.0], 2) * 10.0 ** g.uniform(0, 2, 2)) @ Q.T
        H = 0.5 * (H + H.T)
        grad = g.normal(size=2) * 10.0 ** g.uniform(-3, 3)
        want = np.linalg.solve(H - 1e-10 * np.eye(2), grad)
        got = np.array(irt._newton_step(grad[0], grad[1], H[0, 0], H[0, 1], H[1, 1]))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_newton_step_on_a_singular_hessian_is_the_negative_gradient():
    # after the 1e-10 ridge, a zero matrix and a zero row: exactly singular,
    # where the linear solve raised
    for h_cc, h_cb, h_bb in ((1e-10, 0.0, 1e-10), (1e-10, 0.0, 5.0)):
        H = np.array([[h_cc, h_cb], [h_cb, h_bb]]) - 1e-10 * np.eye(2)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(H, np.ones(2))
        assert irt._newton_step(0.25, -2.0, h_cc, h_cb, h_bb) == (-0.25, 2.0)
    # a determinant that overflows
    assert irt._newton_step(0.25, -2.0, 1e300, 0.0, 1e300) == (-0.25, 2.0)


def _flat_em_irt(seed):
    """flat-em's IRT training set, quadrature and fit settings at one of its
    seeds."""
    inputs = _load_inputs()
    (X,) = inputs.irt_data(inputs.rng_for(seed, 4), (10_000,), 20)
    return X, irt.default_quadrature(41), EmConfig(max_iters=8, rel_tol=1e-7, seed=seed)


@pytest.mark.parametrize("seed", [0, 1])
def test_irt_fit_with_the_closed_form_step_matches_the_linear_solve(seed, monkeypatch):
    # On the same inputs the two Newton solves end within 2e-13 of each
    # other. A solve whose line search can no longer resolve a gain above
    # the objective's rounding stops short of NEWTON_GRAD_TOL (a gradient
    # of up to 2.6e-6 here), at a point that rounding picks, so a few items
    # differ by up to 6.3e-10 relative after flat-em's 8 iterations.
    X, quad, cfg = _flat_em_irt(seed)
    params, rep = irt.fit_irt(X, quad, cfg)
    monkeypatch.setattr(irt, "_newton_item", ref_newton_item)
    want, ref = irt.fit_irt(X, quad, cfg)
    assert rep.iters == ref.iters and rep.converged == ref.converged
    np.testing.assert_allclose(params.a, want.a, rtol=1e-8, atol=0)
    np.testing.assert_allclose(params.b, want.b, rtol=1e-8, atol=0)
    np.testing.assert_allclose(rep.objective_trace, ref.objective_trace, rtol=1e-11, atol=0)


def test_irt_newton_stops_at_a_repeated_state_with_the_same_bytes(monkeypatch):
    # Past an accepted step that leaves (c, b) as they are, every step
    # repeats the same state, so stopping there keeps every byte. Which
    # solves stall depends on the rounding of the fit's products, which
    # varies with the BLAS thread count: at one thread seed 0 has none and
    # seed 1 saves 1317 of 2920 evaluations; at two, 256 of 1296 and 420 of
    # 1987. So the count is checked over both seeds.
    calls = []
    objective = irt._item_objective

    def counted(*args):
        calls.append(1)
        return objective(*args)

    monkeypatch.setattr(irt, "_item_objective", counted)
    stopping, counts = irt._newton_item, []
    for seed in (0, 1):
        X, quad, cfg = _flat_em_irt(seed)
        fits = []
        for newton in (stopping, ref_newton_item_unstopped):
            calls.clear()
            monkeypatch.setattr(irt, "_newton_item", newton)
            fits.append(irt.fit_irt(X, quad, cfg))
            counts.append(len(calls))
        (params, rep), (want, ref) = fits
        assert params.a.tobytes() == want.a.tobytes() and params.b.tobytes() == want.b.tobytes()
        assert rep.objective_trace.tobytes() == ref.objective_trace.tobytes()
        assert rep.iters == ref.iters and rep.converged == ref.converged
    stopped, unstopped = counts[0::2], counts[1::2]
    assert all(a <= b for a, b in zip(stopped, unstopped)) and sum(stopped) < sum(unstopped)
