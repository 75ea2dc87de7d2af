"""`sequential._kalman_pass` stops forming covariances at the first step whose
predicted covariance has the bytes of one of the last CYCLE_WINDOW steps, and
fills the remaining steps from that cycle; `_rts_pass` forms its gains for
the steps before the repeat and gathers them. This file holds both passes as
they were before (every covariance formed at every step) and checks, bit for
bit, every posterior field, the outputs of `kalman_filter` and
`kalman_smooth`, and `lds_fit`'s parameters, trace and iteration count, on
lengths around each model's cycle, on models whose cycle the window misses or
that never repeat, on ragged sets, and on covariances holding -0.0.
"""
import dataclasses
import math

import numpy as np
import pytest

from latentlab import sequential
from latentlab.core import NumericError, RandomSource
from latentlab.em import EmConfig
from latentlab.sequential import LdsParams


# ---------------------------------------------------------------------------
# Reference copies

@dataclasses.dataclass(frozen=True)
class RefPosterior:
    params: LdsParams
    pack: sequential.SequencePack
    means_f: np.ndarray
    covs_f: np.ndarray
    pred_means: np.ndarray
    pred_covs: np.ndarray
    logliks: np.ndarray
    means: np.ndarray = None
    covs: np.ndarray = None
    gains: np.ndarray = None


def ref_kalman_pass(params, pack):
    X = pack.data
    if X.shape[1] != params.obs_dim:
        raise ValueError("observation dimension mismatch")
    counts, starts = pack.counts.tolist(), pack.starts.tolist()
    Tm = len(counts)
    N = X.shape[0]
    dz, dx = params.state_dim, params.obs_dim
    A, C, Q, R = params.A, params.C, params.Q, params.R
    CT, AT = C.T, A.T
    means, pred_means = np.empty((N, dz)), np.empty((N, dz))
    innov = np.empty((N, dx))
    covs = np.empty((Tm, dz, dz))
    pred_covs = np.empty((Tm, dz, dz))
    innov_covs = np.empty((Tm, dx, dx))
    pred_means[:counts[0]] = params.mu0
    P_pred = params.Sigma0
    for t in range(Tm):
        s, e = starts[t], starts[t + 1]
        m_pred = pred_means[s:e]
        pred_covs[t] = P_pred
        CP = C @ P_pred
        # S is symmetric up to rounding; the Cholesky factors below read one triangle
        S = innov_covs[t] = CP @ CT + R
        try:
            gain_T = np.linalg.solve(S, CP)                   # K^T, (dx, dz)
        except np.linalg.LinAlgError:
            raise NumericError(f"singular innovation covariance at step {t}")
        np.subtract(X[s:e], m_pred @ CT, out=innov[s:e])
        means[s:e] = m_pred + innov[s:e] @ gain_T
        P = P_pred - gain_T.T @ CP
        P = covs[t] = 0.5 * (P + P.T)
        if t < Tm - 1:
            pred_means[e:e + counts[t + 1]] = means[s:s + counts[t + 1]] @ AT
            # symmetric up to rounding; it feeds S and the next P, which is
            # symmetrized again
            P_pred = A @ P @ AT + Q
    try:
        L = np.linalg.cholesky(innov_covs)
    except np.linalg.LinAlgError:
        for t in range(Tm):
            try:
                np.linalg.cholesky(innov_covs[t])
            except np.linalg.LinAlgError:
                raise NumericError(f"singular innovation covariance at step {t}")
        raise
    steps = pack.steps
    sol = np.linalg.solve(L[steps], innov[:, :, None])[:, :, 0]
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    row_ll = -0.5 * (dx * math.log(2 * math.pi) + logdet[steps] + np.sum(sol * sol, axis=1))
    return RefPosterior(params, pack, means, covs, pred_means, pred_covs,
                        pack.sums(row_ll))


def ref_rts_pass(filt):
    counts, starts = filt.pack.counts.tolist(), filt.pack.starts.tolist()
    covs_f, pred_covs, pred_means = filt.covs_f, filt.pred_covs, filt.pred_means
    # the smoother gains J_t = P_t A^T (P_{t+1|t})^{-1} depend on t alone,
    # so one batched solve gives all of them
    gains = np.linalg.solve(pred_covs[1:].transpose(0, 2, 1),
                            (covs_f[:-1] @ filt.params.A.T).transpose(0, 2, 1)
                            ).transpose(0, 2, 1)
    gains_T = gains.transpose(0, 2, 1)
    # P_s[t] = P_t + J_t (P_s[t+1] - P_{t+1|t}) J_t^T, split into a part
    # that depends on t alone and one per row
    base = covs_f[:-1] - gains @ pred_covs[1:] @ gains_T
    means = filt.means_f.copy()
    covs = covs_f[filt.pack.steps]
    for t in range(len(counts) - 2, -1, -1):
        s, q = starts[t], starts[t + 1]
        n = counts[t + 1]
        means[s:s + n] += (means[q:q + n] - pred_means[q:q + n]) @ gains_T[t]
        covs[s:s + n] = base[t] + gains[t] @ covs[q:q + n] @ gains_T[t]
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    return dataclasses.replace(filt, means=means, covs=covs, gains=gains)


# ---------------------------------------------------------------------------
# Models and checks

def random_model(seed):
    """A stable LDS of dz 1-4 and dx 1-5 drawn from seed."""
    rng = np.random.default_rng(seed)
    dz, dx = int(rng.integers(1, 5)), int(rng.integers(1, 6))
    A = rng.standard_normal((dz, dz))
    A *= 0.95 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A))))
    C = rng.standard_normal((dx, dz))

    def spd(d):
        M = rng.standard_normal((d, d))
        return M @ M.T / d + 0.1 * np.eye(d)

    return LdsParams(A, C, spd(dz), spd(dx), rng.standard_normal(dz), spd(dz))


# Seeds of random_model whose predicted covariances repeat with periods 1, 2,
# 3 and 8 (the window's largest), and one whose period is 9, which the
# window misses.
CYCLE_SEEDS = [11, 14, 57, 9]
WINDOW_MISS_SEED = 91

# The information filter of a random walk seen through unit noise: the
# predicted variance is 1 / t at step t, so it never repeats.
NEVER_REPEATS = LdsParams([[1.0]], [[1.0]], [[0.0]], [[1.0]], [0.0], [[1.0]])

NEG_ZERO = np.array([[1.0, -0.0], [-0.0, 1.0]])
NEG_ZERO_MODELS = {
    # The predicted variance goes -0.0, then +0.0 for ever: equal as values,
    # but not as bytes.
    "sigma0": LdsParams([[1.0]], [[1.0]], [[0.0]], [[1.0]], [0.0], [[-0.0]]),
    # A = 0, so every later predicted covariance is 0 + Q, whose -0.0
    # off-diagonals become +0.0; Sigma0 = Q keeps its -0.0 entries.
    "q": LdsParams(np.zeros((2, 2)), np.eye(2), NEG_ZERO, np.eye(2), np.zeros(2), NEG_ZERO),
}


def cycle(params, T=400):
    """(onset, period) of the first bitwise repeat of the reference's
    predicted covariances within T steps, over any period; None if none."""
    pred_covs = ref_kalman_pass(params, sequential._lds_pack([np.zeros((T, params.obs_dim))])
                                ).pred_covs
    seen = {}
    for t, P in enumerate(pred_covs):
        if P.tobytes() in seen:
            return seen[P.tobytes()], t - seen[P.tobytes()]
        seen[P.tobytes()] = t
    return None


def around(onset, period):
    """Sequence lengths around a cycle: before, at and after the onset, and
    the first and later steps of the repeat."""
    return sorted({max(1, n) for n in (onset - 1, onset, onset + 1, onset + period,
                                        onset + period + 1, 3 * (onset + period) + 2)})


def observations(params, lengths, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, params.obs_dim)) for n in lengths]


def bits(x):
    """Everything about a value that the comparisons below must keep:
    arrays by shape, dtype and bytes (so -0.0 differs from 0.0), floats by
    their bytes, dataclasses and sequences entry by entry."""
    if dataclasses.is_dataclass(x):
        return {f.name: bits(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, (tuple, list)):
        return [bits(v) for v in x]
    if isinstance(x, np.ndarray) or isinstance(x, float):
        a = np.asarray(x)
        return a.shape, a.dtype.str, a.tobytes()
    return x


def with_reference(fn):
    """fn() run with the reference passes in place of the library's."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequential, "_kalman_pass", ref_kalman_pass)
        mp.setattr(sequential, "_rts_pass", ref_rts_pass)
        return fn()


def assert_same_posteriors(params, obs, smooth=True):
    new = sequential.lds_infer(params, obs, smooth=smooth)
    ref = with_reference(lambda: sequential.lds_infer(params, obs, smooth=smooth))
    for f in dataclasses.fields(RefPosterior):
        if f.name != "pack":
            assert bits(getattr(new, f.name)) == bits(getattr(ref, f.name)), f.name
    if len(obs) == 1:
        for fn in ((sequential.kalman_filter, sequential.kalman_smooth) if smooth
                   else (sequential.kalman_filter,)):
            assert bits(fn(params, obs[0])) == bits(with_reference(lambda: fn(params, obs[0])))


# ---------------------------------------------------------------------------
# Tests

def test_the_models_cover_the_periods_and_the_window():
    periods = [cycle(random_model(seed))[1] for seed in CYCLE_SEEDS]
    assert 1 in periods and 2 in periods and any(2 < p <= sequential.CYCLE_WINDOW
                                                 for p in periods), periods
    assert cycle(random_model(WINDOW_MISS_SEED))[1] > sequential.CYCLE_WINDOW
    assert cycle(NEVER_REPEATS, T=5000) is None


@pytest.mark.parametrize("seed", CYCLE_SEEDS + [WINDOW_MISS_SEED])
def test_single_sequences_around_the_cycle(seed):
    params = random_model(seed)
    for i, n in enumerate(around(*cycle(params))):
        assert_same_posteriors(params, observations(params, [n], seed + i))


@pytest.mark.parametrize("seed", CYCLE_SEEDS + [WINDOW_MISS_SEED])
def test_ragged_sets_end_before_at_and_after_the_onset(seed):
    params = random_model(seed)
    lengths = around(*cycle(params))
    order = np.random.default_rng(seed).permutation(len(lengths))
    obs = observations(params, [lengths[i] for i in order], seed)
    assert_same_posteriors(params, obs)
    assert_same_posteriors(params, obs[:3], smooth=False)


def test_a_model_that_never_repeats_takes_the_full_recursion():
    obs = observations(NEVER_REPEATS, [300, 7, 120], 0)
    assert_same_posteriors(NEVER_REPEATS, obs)
    assert list(sequential.lds_infer(NEVER_REPEATS, obs).cov_steps) == list(range(300))


def test_negative_zeros_are_told_from_positive_ones():
    # a cycle keyed by values would find step 1 equal to step 0 and copy its
    # -0.0 entries forward
    params = NEG_ZERO_MODELS["sigma0"]
    obs = observations(params, [6, 2], 1)
    assert_same_posteriors(params, obs, smooth=False)
    assert_same_posteriors(params, obs[:1], smooth=False)
    params = NEG_ZERO_MODELS["q"]
    obs = observations(params, [6, 4, 1], 2)
    assert_same_posteriors(params, obs)
    assert_same_posteriors(params, obs[:1])
    f = sequential.lds_infer(params, obs)
    assert np.signbit(f.pred_covs[0, 0, 1]) and not np.signbit(f.pred_covs[1:, 0, 1]).any()


@pytest.mark.parametrize("seed", CYCLE_SEEDS + [WINDOW_MISS_SEED])
def test_lds_fit_matches_the_full_recursion(seed):
    true = random_model(seed)
    onset, period = cycle(true)
    rng = RandomSource(seed)
    lengths = [max(2, n) for n in around(onset, period)]
    seqs = [sequential.lds_sample(true, n, rng)[1] for n in lengths]
    for init in (None, true):
        cfg = EmConfig(seed=seed, max_iters=6)
        new = sequential.lds_fit(seqs, true.state_dim, cfg, init=init)
        ref = with_reference(lambda: sequential.lds_fit(seqs, true.state_dim, cfg, init=init))
        assert bits(new[0]) == bits(ref[0])
        assert bits(new[1].objective_trace) == bits(ref[1].objective_trace)
        assert new[1].iters == ref[1].iters


def _count_step_solves(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counting(a, b):
        calls.append(np.ndim(a))
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting)
    return calls


def test_the_filter_solves_for_the_gain_only_until_the_repeat(monkeypatch):
    params = random_model(CYCLE_SEEDS[1])
    onset, period = cycle(params)
    obs = observations(params, [5000], 3)
    calls = _count_step_solves(monkeypatch)
    sequential.lds_infer(params, obs, smooth=False)
    assert 0 < calls.count(2) <= onset + period
    calls.clear()
    sequential.lds_infer(NEVER_REPEATS, observations(NEVER_REPEATS, [5000], 4), smooth=False)
    assert calls.count(2) == 5000
