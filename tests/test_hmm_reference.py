"""The HMM forward-backward kernels against in-test copies of the packed
loop they replaced (_hmm_forward, _hmm_backward and the posterior's
pairwise and pairwise_sum as they were before the exact product and the
parallel-in-time scan).

On ordinary inputs the loop must give the replaced code's bytes, and the
scan must agree with it within 1e-12: relative for log-likelihoods,
absolute for state marginals and the pairwise tables and sums. Both cover
discrete and Gaussian emissions, K from 1 to 16, single sequences whose
lengths straddle every power of two up to 4097, and ragged sets on both
sides of the rule that picks a kernel. Ragged sets whose chains have
exact-zero transitions, which send every loop step through the exact
product, keep the replaced bytes too.
"""
import dataclasses

import numpy as np
import pytest

from latentlab import sequential
from latentlab.core import NumericError, RandomSource, normalize_log_rows
from latentlab.sequential import (DiscreteEmission, GaussianEmission, HmmParams,
                                  HmmSetPosterior, SequencePack)


# ---------------------------------------------------------------------------
# The replaced code

def ref_forward(params, pack):
    logB = params.emit.log_liks(pack.data)
    counts, starts = pack.counts.tolist(), pack.starts.tolist()
    A = params.trans
    log_alpha = np.empty_like(logB)
    log_c = np.empty((logB.shape[0], 1))
    exp, log, lse = np.exp, np.log, np.logaddexp.reduce
    with np.errstate(divide="ignore", invalid="ignore"):
        a = log(params.pi) + logB[:counts[0]]
        for t in range(len(counts)):
            s, e = starts[t], starts[t + 1]
            if t:
                p = starts[t - 1]
                a = logB[s:e] + log(exp(log_alpha[p:p + e - s]) @ A)
            c = log_c[s:e] = lse(a, axis=1, keepdims=True)
            log_alpha[s:e] = a - c
    bad = np.flatnonzero(~np.isfinite(log_c[:, 0]))
    if bad.size:
        r = int(bad[0])
        t = int(np.searchsorted(pack.starts, r, side="right")) - 1
        raise NumericError(f"zero-probability sequence {pack.seq[r]}: "
                           f"no path explains step {t}")
    return HmmSetPosterior(params, pack, logB, log_alpha, log_c, pack.sums(log_c[:, 0]))


def ref_backward(post):
    counts, starts = post.pack.counts.tolist(), post.pack.starts.tolist()
    log_alpha, log_c = post.log_alpha, post.log_c
    log_beta = np.zeros_like(post.logB)
    logB_c = post.logB - log_c
    AT = post.params.trans.T
    exp, log = np.exp, np.log
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(len(counts) - 2, -1, -1):
            s, q = starts[t], starts[t + 1]
            n = counts[t + 1]
            nxt = logB_c[q:q + n] + log_beta[q:q + n]
            m = nxt.max(1, keepdims=True)
            log_beta[s:s + n] = log(exp(nxt - m) @ AT) + m
    gamma, _ = normalize_log_rows(log_alpha + log_beta)
    return dataclasses.replace(post, log_beta=log_beta, gamma=gamma)


def ref_pairwise(post):
    nxt = slice(post.pack.counts[0], None)
    with np.errstate(divide="ignore"):
        logA = np.log(post.params.trans)
    lx = (post.log_alpha[post.pack.prev][:, :, None] + logA[None]
          + (post.logB[nxt] + post.log_beta[nxt])[:, None, :])
    xi = np.exp(lx - lx.max(axis=(1, 2), keepdims=True))
    xi /= xi.sum(axis=(1, 2), keepdims=True)
    return xi


def ref_pairwise_sum(post):
    A = post.params.trans
    nxt = slice(post.pack.counts[0], None)
    w = post.logB[nxt] + post.log_beta[nxt]
    V = np.exp(w - w.max(axis=1, keepdims=True))
    U = np.exp(post.log_alpha[post.pack.prev])
    U /= np.sum((U @ A) * V, axis=1, keepdims=True)
    return A * (U.T @ V)


# ---------------------------------------------------------------------------
# Models, data and comparisons

LENGTHS = [1, 2, 3] + [n for k in range(2, 13) for n in (2 ** k - 1, 2 ** k, 2 ** k + 1)]


def _model(kind, K, seed):
    rng = RandomSource(seed)
    pi = rng.uniform(K) + 0.1
    trans = rng.uniform((K, K)) + 0.05
    if kind == "discrete":
        probs = rng.uniform((K, 5)) + 0.05
        emit = DiscreteEmission(probs / probs.sum(axis=1, keepdims=True))
    else:
        emit = GaussianEmission(3.0 * rng.standard_normal((K, 2)),
                                np.stack([(0.3 + rng.uniform()) * np.eye(2) for _ in range(K)]))
    return HmmParams(pi / pi.sum(), trans / trans.sum(axis=1, keepdims=True), emit)


def _draw(params, lengths, seed):
    rng = RandomSource(seed)
    return [sequential.hmm_sample(params, T, rng)[1] for T in lengths]


def _pack(params, seqs):
    return sequential._hmm_pack(isinstance(params.emit, DiscreteEmission), seqs)


def _loop(params, pack):
    return sequential._backward_loop(sequential._forward_loop(params, pack))


def _scan(params, pack):
    return sequential._backward_scan(sequential._forward_scan(params, pack))


def _rows_of(post, i):
    """The posterior of sequence i of a set, as a set of that one sequence."""
    pack = post.pack
    offset = int(np.sum(pack.lengths[:i]))
    rows = pack.index[offset:offset + pack.lengths[i]]
    single = SequencePack.build([pack.data[rows]])
    return HmmSetPosterior(post.params, single, post.logB[rows], post.log_alpha[rows],
                           post.log_c[rows], post.logliks[i:i + 1],
                           post.log_beta[rows], post.gamma[rows])


def _assert_close(got, want):
    """got agrees with the replaced code's want within 1e-12."""
    rel = np.abs(got.logliks - want.logliks) / np.maximum(1.0, np.abs(want.logliks))
    assert np.max(rel) < 1e-12
    assert np.max(np.abs(got.gamma - want.gamma)) < 1e-12
    assert np.max(np.abs(got.log_alpha - want.log_alpha)) < 1e-12
    assert np.max(np.abs(got.log_c - want.log_c)) < 1e-12 * max(1.0, np.max(np.abs(want.log_c)))
    # backward messages agree up to a constant per row
    beta = np.exp(got.log_beta - got.log_beta.max(axis=1, keepdims=True))
    ref_beta = np.exp(want.log_beta - want.log_beta.max(axis=1, keepdims=True))
    assert np.max(np.abs(beta - ref_beta)) < 1e-12
    assert np.max(np.abs(ref_pairwise(got) - ref_pairwise(want)), initial=0.0) < 1e-12
    assert np.max(np.abs(ref_pairwise_sum(got) - ref_pairwise_sum(want))) < 1e-12


def _assert_same_bytes(got, want):
    for field in ("logB", "log_alpha", "log_c", "logliks", "log_beta", "gamma"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field


# ---------------------------------------------------------------------------
# Tests

def test_posterior_methods_are_the_replaced_code():
    params = _model("discrete", 3, 1)
    post = _loop(params, _pack(params, _draw(params, [6, 1, 9], 2)))
    assert post.pairwise().tobytes() == ref_pairwise(post).tobytes()
    assert post.pairwise_sum().tobytes() == ref_pairwise_sum(post).tobytes()


@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
@pytest.mark.parametrize("K", [1, 2, 3, 4, 8, 16])
def test_kernels_match_replaced_code_on_single_sequences(kind, K):
    params = _model(kind, K, 100 + K)
    seqs = _draw(params, LENGTHS, 200 + K)
    pack = _pack(params, seqs)
    want = ref_backward(ref_forward(params, pack))
    # the loop runs every sequence at once and keeps the replaced bytes
    _assert_same_bytes(_loop(params, pack), want)
    for i, obs in enumerate(seqs):
        got = _scan(params, _pack(params, [obs]))
        _assert_close(got, _rows_of(want, i))


@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
@pytest.mark.parametrize("K, lengths, scan_pays", [
    (4, [300, 120, 257], True),                      # few long sequences
    (3, [64, 1, 2, 33], True),
    (4, [int(n) for n in 20 + np.arange(40) * 7 % 90], False),   # many per step
    (16, [200, 150, 3], False),
])
def test_kernels_match_replaced_code_on_ragged_sets(kind, K, lengths, scan_pays):
    params = _model(kind, K, 300 + K)
    pack = _pack(params, _draw(params, lengths, 400 + K))
    assert sequential._scan_pays(K, pack) == scan_pays
    want = ref_backward(ref_forward(params, pack))
    loop = _loop(params, pack)
    _assert_same_bytes(loop, want)
    _assert_close(_scan(params, pack), want)
    # hmm_infer takes the kernel the rule picks
    chosen = sequential.hmm_infer(params, _draw(params, lengths, 400 + K))
    _assert_close(chosen, want)
    assert sequential.hmm_loglik(params, _draw(params, lengths, 400 + K)) == \
        float(chosen.logliks.sum())


def test_rule_picks_the_scan_for_long_single_sequences_and_the_loop_for_sets():
    def pays(K, lengths):
        return sequential._scan_pays(K, SequencePack.build([np.zeros(T, int) for T in lengths]))
    assert pays(4, [100]) and pays(4, [5000]) and pays(3, [60]) and pays(2, [100_000])
    assert not pays(4, [5])
    assert not pays(4, [200] * 100) and not pays(3, [100] * 30)
    assert not pays(32, [5000]) and not pays(16, [5000] * 4)
    # the scan's K x K stacks stay bounded
    assert not pays(16, [100_000])


# the sequence after the impossible one must not inherit its zero
@pytest.mark.parametrize("lengths", [[4, 2, 5, 3], [200, 3, 150, 40]])
def test_zero_probability_sequence_raises_the_same_message_on_both_kernels(lengths):
    params = HmmParams([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],
                       DiscreteEmission([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]]))
    rng = RandomSource(5)
    seqs = [rng.integers(0, 2, T) for T in lengths]
    seqs[2][-2] = 2                                        # no state emits symbol 2
    pack = _pack(params, seqs)
    messages = []
    for forward in (ref_forward, sequential._forward_loop, sequential._forward_scan):
        with pytest.raises(NumericError) as err:
            forward(params, pack)
        messages.append(str(err.value))
    assert messages[0] == messages[1] == messages[2]
    assert messages[0] == f"zero-probability sequence 2: no path explains step {lengths[2] - 2}"


# chains with exact-zero transitions: (pi, trans)
ZERO_TRANSITIONS = {
    "left-right": ([1.0, 0.0, 0.0, 0.0], [[0.6, 0.4, 0.0, 0.0], [0.0, 0.7, 0.3, 0.0],
                                          [0.0, 0.0, 0.8, 0.2], [0.0, 0.0, 0.0, 1.0]]),
    "identity": ([0.5, 0.5, 0.0], np.eye(3)),          # state 2 is never reached
}


@pytest.mark.parametrize("kind", ["discrete", "gaussian"])
@pytest.mark.parametrize("chain", sorted(ZERO_TRANSITIONS))
def test_loop_keeps_the_replaced_bytes_with_exact_zero_transitions(kind, chain):
    pi, trans = ZERO_TRANSITIONS[chain]
    params = dataclasses.replace(_model(kind, len(pi), 500), pi=pi, trans=trans)
    # short enough that only the structural zeros fall below TINY, where the
    # replaced code is exact too
    pack = _pack(params, _draw(params, [20, 1, 13, 20, 8, 2], 600))
    want = ref_backward(ref_forward(params, pack))
    loop = _loop(params, pack)
    _assert_same_bytes(loop, want)
    assert loop.pairwise_sum().tobytes() == ref_pairwise_sum(want).tobytes()
    assert np.isneginf(loop.log_alpha).any()
    scan = _scan(params, pack)
    assert np.max(np.abs(scan.logliks - want.logliks) / np.abs(want.logliks)) < 1e-12
    assert np.max(np.abs(scan.gamma - want.gamma)) < 1e-12
