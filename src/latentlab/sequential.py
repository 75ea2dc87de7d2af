"""Time-series latent variable models: discrete and Gaussian-emission hidden
Markov models with exact forward-backward smoothing and Baum-Welch training,
and linear dynamical systems with Kalman filtering/RTS smoothing and EM.

Inference runs over a whole set of sequences at once. The set is packed once
into a time-major layout sorted by descending length (SequencePack): step t
is one contiguous block of rows, and the sequences still running at t are a
prefix of that block, so one recursion over t = 0..Tmax-1 advances every
sequence with one array operation per step. The Kalman filter and RTS
smoother form the covariances, gains and log-determinants once per step,
since they depend on the parameters and t alone, and advance the means of
all running sequences together. The Riccati recursion of the covariances
settles into a fixed cycle (Anderson & Moore, "Optimal Filtering", 1979,
ch. 4), and in floating point it often repeats bitwise: once a predicted
covariance has the bytes of any earlier step's, every later covariance, gain
and log-determinant goes through the same operations on the same bytes, so
the filter stops forming them there and gathers the remaining steps from the
cycle; past that step both passes advance only the means. A model that never
repeats takes the full recursion, and keeps one key per step until its end.
hmm_forward_backward, kalman_filter and kalman_smooth run the same kernels on
a set of one sequence.

HMM forward-backward runs in the log domain with one exactness rule for
every product: a product exp(X) @ exp(Y) is formed in the linear domain and
_exact_log recomputes each entry below TINY as a logaddexp over the shared
index, so no state is dropped however improbable. Two kernels use it. The
packed loop advances all running sequences one step at a time in one pass;
only when a transition below K TINY could let an entry fall below TINY does
each step pass its product through _exact_log. The parallel-in-time scan
(Hassan, Sarkka & Garcia-Fernandez, "Temporal Parallelization of Inference
in Hidden Markov Models", IEEE TSP 2021) writes the forward and backward
messages as prefix and suffix products of the per-step matrices
logA + logB_t, in 2 log2(N) vectorised levels of an odd-even scan that
restarts at each sequence and shifts every product by its log-scale. The
scan multiplies K x K matrices where the loop multiplies vectors by one, but
pays no fixed cost per step, so _scan_pays picks the scan for few long
sequences and small K, and the loop for many sequences per step or large K,
by costs measured on both kernels. The Baum-Welch transition sum takes the
exact log of a row's normalizer by the same rule when it falls below TINY.

Baum-Welch and LDS EM read sufficient statistics off the packed rows; the
initial-state distribution pools the t=1 posteriors of all sequences. An HMM
is a mixture whose component follows a Markov chain, so Baum-Welch takes its
seeded start, weighted Gaussian M-step and probability floor from mixture.py.
"""
from __future__ import annotations

import dataclasses
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .core import (Gaussian, NumericError, RandomSource, category_codes, check_finite,
                   check_simplex_rows, chol_psd, cov_fields, fields_from_json, fields_to_json,
                   gaussian_logpdf_columns, json_field, log_sum_exp_rows, normalize_log_rows,
                   real_fields, row_max, softmax_rows)
from .em import EmConfig, run_em
from .mixture import (EMPTY_COMPONENT_COUNT, _check_k, _floored_rows, _gaussian_start,
                      _perturbed_rows, _var_floor, _weighted_gaussians)

__all__ = [
    "DiscreteEmission", "GaussianEmission", "HmmParams", "LdsParams",
    "SmoothedMarginals", "GaussianSmoothed", "SequencePack",
    "HmmSetPosterior", "LdsSetPosterior",
    "hmm_infer", "hmm_forward_backward", "hmm_loglik", "hmm_fit", "hmm_sample",
    "lds_infer", "kalman_filter", "kalman_smooth", "lds_loglik", "lds_fit",
    "lds_sample", "canonical_state_order", "hmm_to_json", "hmm_from_json",
]

RIDGE = 1e-9


@dataclass(frozen=True)
class DiscreteEmission:
    """Per-state categorical distributions over S symbols, as a (K, S) table."""

    probs: np.ndarray

    def __post_init__(self):
        real_fields(self, probs=2)
        check_simplex_rows(self.probs, name="emission rows")

    @property
    def n_symbols(self):
        return self.probs.shape[1]

    def log_liks(self, obs):
        obs = category_codes(np.reshape(obs, (-1, 1)), "observation symbols",
                             self.n_symbols)[0][:, 0]
        with np.errstate(divide="ignore"):
            logp = np.log(self.probs)
        return logp[:, obs].T                                  # (T, K)


@dataclass(frozen=True)
class GaussianEmission:
    """Per-state Gaussian emission parameters: means (K, d), covs (K, d, d)."""

    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        real_fields(self, means=2)
        cov_fields(self, covs=3)
        K, d = self.means.shape
        if self.covs.shape != (K, d, d):
            raise ValueError("covs must be (K, d, d)")

    @property
    def dim(self):
        return self.means.shape[1]

    def log_liks(self, obs):
        return gaussian_logpdf_columns(obs, self.means, self.covs)


@dataclass(frozen=True)
class HmmParams:
    """Initial distribution pi (K,), row-stochastic transitions (K, K), and
    either discrete or Gaussian emissions."""

    pi: np.ndarray
    trans: np.ndarray
    emit: object

    def __post_init__(self):
        real_fields(self, pi=1, trans=2)
        check_simplex_rows(self.pi, name="pi")
        check_simplex_rows(self.trans, name="transition rows")
        K = self.pi.shape[0]
        if self.trans.shape != (K, K):
            raise ValueError("transition matrix must be (K, K)")
        if not isinstance(self.emit, (DiscreteEmission, GaussianEmission)):
            raise TypeError("emit must be DiscreteEmission or GaussianEmission")
        n_emit = self.emit.probs.shape[0] if isinstance(self.emit, DiscreteEmission) \
            else self.emit.means.shape[0]
        if n_emit != K:
            raise ValueError("emission parameters do not match state count")

    @property
    def n_states(self):
        return self.pi.shape[0]


def hmm_to_json(params):
    """JSON form in canonical state order (see canonical_state_order)."""
    params = canonical_state_order(params)
    emit = {"emit": params.emit.probs.tolist()} if isinstance(params.emit, DiscreteEmission) \
        else fields_to_json(params.emit)
    return {"pi": params.pi.tolist(), "trans": params.trans.tolist(), **emit}


def hmm_from_json(obj):
    emit = DiscreteEmission(obj["emit"]) if "emit" in obj \
        else fields_from_json(GaussianEmission, obj)
    return HmmParams(json_field(obj, "pi", "hmm"), json_field(obj, "trans", "hmm"), emit)


@dataclass(frozen=True)
class SmoothedMarginals:
    """HMM posteriors given a full sequence: per-step state marginals (T, K),
    pairwise marginals over consecutive states (T-1, K, K), and the sequence
    log-likelihood."""

    states: np.ndarray
    pairwise: np.ndarray
    loglik: float


@dataclass(frozen=True)
class LdsParams:
    """Linear dynamical system: state transition A, observation matrix C,
    process/observation noise covariances Q and R, initial moments mu0/Sigma0."""

    A: np.ndarray
    C: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    mu0: np.ndarray
    Sigma0: np.ndarray

    def __post_init__(self):
        real_fields(self, A=2, C=2, mu0=1)
        cov_fields(self, Q=2, R=2, Sigma0=2)
        dz, dx = self.A.shape[0], self.C.shape[0]
        if self.A.shape != (dz, dz) or self.C.shape != (dx, dz) or self.Q.shape != (dz, dz) \
                or self.R.shape != (dx, dx) or self.mu0.shape != (dz,) \
                or self.Sigma0.shape != (dz, dz):
            raise ValueError("inconsistent LDS parameter shapes")

    @property
    def state_dim(self):
        return self.A.shape[0]

    @property
    def obs_dim(self):
        return self.C.shape[0]



@dataclass(frozen=True)
class GaussianSmoothed:
    """LDS posteriors given a full sequence: smoothed means (T, dz), smoothed
    covariances (T, dz, dz), lag-one cross second moments E[z_t z_{t-1}^T]
    (T-1, dz, dz), and the sequence log-likelihood."""

    means: np.ndarray
    covs: np.ndarray
    lag_one: np.ndarray
    loglik: float


@dataclass(frozen=True)
class SequencePack:
    """A set of sequences in a time-major layout, longest first.

    Step t occupies rows starts[t] to starts[t+1]-1. Its counts[t] rows are
    the sequences still running at t, in order of decreasing length (ties in
    input order), so the sequences running at t+1 are a prefix of the block
    of t. index maps the rows of the sequences concatenated in input order
    to packed rows; seq holds the input index of each packed row's sequence.
    """

    data: np.ndarray
    lengths: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    index: np.ndarray
    seq: np.ndarray

    @classmethod
    def build(cls, seqs):
        """Pack a list of arrays whose first axis is time."""
        if not seqs or any(len(s) == 0 for s in seqs):
            raise ValueError("sequences must be non-empty")
        lengths = np.array([len(s) for s in seqs])
        n = lengths.size
        rank = np.empty(n, dtype=int)
        rank[np.argsort(-lengths, kind="stable")] = np.arange(n)
        counts = n - np.cumsum(np.bincount(lengths))[:-1]
        starts = np.concatenate(([0], np.cumsum(counts)))
        owner = np.repeat(np.arange(n), lengths)
        step = np.arange(owner.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
        index = starts[step] + rank[owner]
        flat = np.concatenate(seqs)
        data = np.empty_like(flat)
        data[index] = flat
        seq = np.empty_like(owner)
        seq[index] = owner
        return cls(data, lengths, counts, starts, index, seq)

    @property
    def steps(self):
        """The step t of every packed row."""
        return np.repeat(np.arange(self.counts.size), self.counts)

    @property
    def prev(self):
        """The packed row of the previous step, for every row past step 0."""
        return (np.arange(self.counts[0], self.index.size)
                - np.repeat(self.counts[:-1], self.counts[1:]))

    @property
    def last(self):
        """The packed row of each sequence's final step, in input order."""
        return self.index[np.cumsum(self.lengths) - 1]

    def unpack(self, packed):
        """The rows of a packed array in input order, sequence after sequence."""
        return packed[self.index]

    def sums(self, values):
        """Per-sequence sums of one value per packed row, in input order."""
        return np.bincount(self.seq, weights=values, minlength=self.lengths.size)


def _total_loglik(posterior):
    return float(posterior.logliks.sum())


# ---------------------------------------------------------------------------
# Hidden Markov models

@dataclass(frozen=True)
class HmmSetPosterior:
    """Forward-backward over a packed set of sequences.

    Per packed row: emission log-likelihoods logB, normalized forward
    messages log_alpha, step log-normalizers log_c (N, 1), backward messages
    log_beta, each row up to a constant, and state marginals gamma (both
    None after a forward-only pass). Per sequence, in input order: logliks.
    """

    params: HmmParams
    pack: SequencePack
    logB: np.ndarray
    log_alpha: np.ndarray
    log_c: np.ndarray
    logliks: np.ndarray
    log_beta: np.ndarray = None
    gamma: np.ndarray = None

    def pairwise(self):
        """Joint marginals of consecutive states, one (K, K) table per
        packed row past step 0: over (state at the step before, state at
        that row)."""
        nxt = slice(self.pack.counts[0], None)
        with np.errstate(divide="ignore"):
            logA = np.log(self.params.trans)
        lx = (self.log_alpha[self.pack.prev][:, :, None] + logA[None]
              + (self.logB[nxt] + self.log_beta[nxt])[:, None, :])
        return softmax_rows(lx.reshape(-1, logA.size)).reshape(lx.shape)

    def pairwise_sum(self):
        """pairwise() summed over all rows.

        Each table is alpha_{t-1}(i) A_ij B_j(x_t) beta_t(j) up to a per-row
        constant, which its normalization to one removes. The rows whose
        normalizer is at least TINY are summed as one (K, N) @ (N, K)
        product. A row whose normalizer falls below TINY may have lost terms
        to underflow, so its table is normalized by the exact log of the
        normalizer, which takes the row's product exp(log_alpha) @ A through
        _exact_log as a forward step does.
        """
        A = self.params.trans
        nxt = slice(self.pack.counts[0], None)
        w = self.logB[nxt] + self.log_beta[nxt]
        w -= row_max(w)
        U, V = np.exp(self.log_alpha[self.pack.prev]), np.exp(w)
        z = np.sum((U @ A) * V, axis=1, keepdims=True)
        low = z[:, 0] < TINY
        U[low], z[low] = 0.0, 1.0
        U /= z
        total = A * (U.T @ V)
        if low.any():
            X = self.log_alpha[self.pack.prev[low]]
            with np.errstate(divide="ignore"):
                logA = np.log(A)
                lz = log_sum_exp_rows(_exact_log(np.exp(X) @ A, X, logA) + w[low])[:, None, None]
            total += np.exp(X[:, :, None] + logA + w[low, None, :] - lz).sum(axis=0)
        return total


def _hmm_pack(discrete, obs_set):
    if discrete:
        return SequencePack.build([np.asarray(o) for o in obs_set])
    return SequencePack.build([np.atleast_2d(np.asarray(o, dtype=float)) for o in obs_set])


# An entry of a scaled product below TINY may have lost terms to underflow,
# so it is recomputed over the log terms; a term that still flushes to zero
# is then under 1e-40 of the entry.
TINY = 1e-280
LOG_TINY = math.log(TINY)


def _exact_log(P, X, logY):
    """log P for a product P = exp(X) @ exp(logY) over the last two axes
    formed in the linear domain, exact at every entry.

    Each entry of P below TINY may have lost terms to underflow, so its log
    is recomputed as a logaddexp over the shared index; an entry with no
    nonzero term gives -inf, as log(0) does. The caller ignores numpy's
    divide warnings.
    """
    out = np.log(P)
    if P.size and P.min() < TINY:
        at = np.nonzero(P < TINY)
        Yt = np.swapaxes(logY, -1, -2)
        out[at] = np.logaddexp.reduce(X[at[:-1]] + Yt[at[:-2] + at[-1:]], axis=-1)
    return out


def _log_rows(L):
    """The rows of L shifted to a log-sum of 0; a row of -inf stays -inf."""
    lse = log_sum_exp_rows(L)
    return L - np.where(np.isfinite(lse), lse, 0.0)[:, None]


def _combine(X, Y, restart):
    """X @ Y in the log semiring for stacks of matrices whose entries are at
    most about 0, or Y's leading rows where a segment restarts at Y.

    Each product is shifted by the log of its sum, so its entries stay at
    most 0 and its largest within log K^2 of 0 at any length. Where the sum
    itself falls below TINY, the shift is the largest exact entry instead.
    """
    P = np.exp(X) @ np.exp(Y)
    Z = _exact_log(P, X, Y)
    size = P.shape[1] * P.shape[2]
    shift = np.log(P.reshape(-1, size) @ np.ones(size))
    low = shift < LOG_TINY
    if low.any():
        shift[low] = Z[low].reshape(-1, size).max(axis=1, initial=-1e300)
    Z -= shift[:, None, None]
    if restart.any():
        Z[restart] = Y[restart, :Z.shape[1]]
    return Z


def _prefix_scan(E, start):
    """Row 0 of each inclusive log-semiring prefix product over a stack of
    (K, K) matrices, restarting at every element where start is set.

    Each segment starts with a matrix of identical rows, so every prefix
    has identical rows and row 0 stands for it. Odd-even (work-efficient)
    scan: combine neighbouring pairs, scan the pairs, then extend each odd
    prefix by the next even element: about n matrix and n row products in
    2 log2(n) vectorised levels.
    """
    n = len(E)
    if n == 1:
        return E[:, 0]
    h = n // 2
    rows = _prefix_scan(_combine(E[0:2 * h:2], E[1:2 * h:2], start[1:2 * h:2]),
                        start[0:2 * h:2] | start[1:2 * h:2])
    out = np.empty(E.shape[:2])
    out[0] = E[0, 0]
    out[1::2] = rows
    out[2::2] = _combine(rows[:(n - 1) // 2, None], E[2::2], start[2::2])[:, 0]
    return out


def _forward_result(params, pack, logB, log_alpha, log_c):
    """The forward posterior, or an error naming the first sequence and step
    that no path explains (a step normalizer of -inf)."""
    bad = np.flatnonzero(~np.isfinite(log_c[:, 0]))
    if bad.size:
        r = int(bad[0])
        t = int(np.searchsorted(pack.starts, r, side="right")) - 1
        raise NumericError(f"zero-probability sequence {pack.seq[r]}: "
                           f"no path explains step {t}")
    return HmmSetPosterior(params, pack, logB, log_alpha, log_c, pack.sums(log_c[:, 0]))


def _forward_loop(params, pack):
    """Forward recursion over the packed rows, one step at a time.

    Each step's product is exp(log_alpha) @ A. A normalized message holds a
    state of probability at least 1/K, so each product is at least min(A) / K:
    only a transition below K TINY can make an entry fall below TINY, and
    then each step passes its product through _exact_log.
    """
    logB = params.emit.log_liks(pack.data)               # (N, K)
    counts, starts = pack.counts.tolist(), pack.starts.tolist()
    A = params.trans
    exact = A.min() < A.shape[0] * TINY
    log_alpha = np.empty_like(logB)
    log_c = np.empty((logB.shape[0], 1))
    # normalized log-alpha entries are <= 0, so exp never overflows. A row
    # with no possible state gets a normalizer of -inf, which is reported
    # after the loop.
    exp, log, lse = np.exp, np.log, np.logaddexp.reduce
    with np.errstate(divide="ignore", invalid="ignore"):
        logA = log(A)
        a = log(params.pi) + logB[:counts[0]]
        for t in range(len(counts)):
            s, e = starts[t], starts[t + 1]
            if t:
                p = starts[t - 1]
                X = log_alpha[p:p + e - s]
                P = exp(X) @ A
                a = logB[s:e] + (_exact_log(P, X, logA) if exact else log(P))
            c = log_c[s:e] = lse(a, axis=1, keepdims=True)
            log_alpha[s:e] = a - c
    return _forward_result(params, pack, logB, log_alpha, log_c)


def _backward_loop(post):
    """Backward recursion and state marginals over a forward pass, one step
    at a time. Each step's product is at least min(A), since the shifted
    message peaks at 0: only a transition below TINY makes each step pass
    its product through _exact_log."""
    counts, starts = post.pack.counts.tolist(), post.pack.starts.tolist()
    log_alpha, log_c = post.log_alpha, post.log_c
    log_beta = np.zeros_like(post.logB)
    logB_c = post.logB - log_c
    AT = post.params.trans.T
    exact = AT.min() < TINY
    exp, log = np.exp, np.log
    with np.errstate(divide="ignore", invalid="ignore"):
        logAT = log(AT)
        for t in range(len(counts) - 2, -1, -1):
            s, q = starts[t], starts[t + 1]
            n = counts[t + 1]
            nxt = logB_c[q:q + n] + log_beta[q:q + n]
            m = nxt.max(1, keepdims=True)
            X = nxt - m
            P = exp(X) @ AT
            log_beta[s:s + n] = (_exact_log(P, X, logAT) if exact else log(P)) + m
    gamma, _ = normalize_log_rows(log_alpha + log_beta)
    return dataclasses.replace(post, log_beta=log_beta, gamma=gamma)


def _forward_scan(params, pack):
    """Forward messages of every sequence as prefix products over time.

    Row r of sequence s contributes logA + logB_r, and s's first row the
    matrix whose rows are all log pi + logB; row 0 of each prefix product
    is then alpha up to a constant. One exact forward step from those
    messages, vectorised over all rows, gives the normalized messages and
    the step normalizers.
    """
    logB = params.emit.log_liks(pack.data)
    L = _log_rows(logB[pack.index])                        # input order
    first = np.zeros(len(L), dtype=bool)
    first[np.cumsum(pack.lengths) - pack.lengths] = True
    with np.errstate(divide="ignore", invalid="ignore"):
        log_pi, logA = np.log(params.pi), np.log(params.trans)
        E = logA + L[:, None, :]
        E[first] = (log_pi + L[first])[:, None, :]
        F = np.empty_like(logB)
        F[pack.index] = _prefix_scan(E, first)
        F = _log_rows(F)
        n0 = pack.counts[0]
        a = np.empty_like(logB)
        a[:n0] = log_pi + logB[:n0]
        X = F[pack.prev]
        a[n0:] = logB[n0:] + _exact_log(np.exp(X) @ np.exp(logA), X, logA)
        log_c = log_sum_exp_rows(a)[:, None]
        log_alpha = a - log_c
    return _forward_result(params, pack, logB, log_alpha, log_c)


def _backward_scan(post):
    """Backward messages and state marginals as suffix products over time.

    beta_r is the product of the matrices logA + logB of the rows after r
    in its sequence, applied to ones. The suffix products are the prefix
    products of the transposed matrices in reverse order, each restarting
    at a sequence's last row, whose matrix is all zeros (ones in the linear
    domain); row 0 of each is beta up to a constant.
    """
    pack = post.pack
    L = _log_rows(post.logB[pack.index])
    last = np.zeros(len(L), dtype=bool)
    last[np.cumsum(pack.lengths) - 1] = True
    with np.errstate(divide="ignore"):
        logAT = np.log(post.params.trans.T)
        E = np.empty((L.shape[0],) + logAT.shape)
        E[:-1] = logAT + L[1:, :, None]
        E[last] = 0.0
        log_beta = np.empty_like(L)
        log_beta[pack.index] = _prefix_scan(E[::-1], last[::-1])[::-1]
    gamma, _ = normalize_log_rows(post.log_alpha + log_beta)
    return dataclasses.replace(post, log_beta=log_beta, gamma=gamma)


# Forward-backward costs in microseconds, fitted to both kernels over K in
# {2, 4, 8, 16, 32}, Tmax in {50, 200, 1000, 5000} and 1 to 100 sequences on
# one core with one BLAS thread: the loop pays per step and per row and
# state, the scan a fixed cost and per row and state pair.
LOOP_STEP_US, LOOP_ROW_US, LOOP_ROW_STATE_US = 14.7, 0.29, 0.095
SCAN_FIXED_US, SCAN_ROW_US, SCAN_ROW_PAIR_US = 640.0, 0.90, 0.034
# The scan holds a few stacks of N K x K matrices; past this many entries
# in one stack the loop runs whatever the cost.
SCAN_MAX_ENTRIES = 1 << 22


def _scan_pays(K, pack):
    """Whether the scan is the cheaper kernel for K states and a pack of
    N rows over Tmax steps."""
    N, T = pack.index.size, pack.counts.size
    loop = LOOP_STEP_US * T + N * (LOOP_ROW_US + LOOP_ROW_STATE_US * K)
    scan = SCAN_FIXED_US + N * (SCAN_ROW_US + SCAN_ROW_PAIR_US * K * K)
    return scan < loop and N * K * K <= SCAN_MAX_ENTRIES


def _hmm_forward(params, pack):
    """Forward pass over every sequence of a pack, by the cheaper kernel."""
    kernel = _forward_scan if _scan_pays(params.n_states, pack) else _forward_loop
    return kernel(params, pack)


def _hmm_backward(post):
    """Backward pass and state marginals, by the cheaper kernel."""
    kernel = _backward_scan if _scan_pays(post.params.n_states, post.pack) else _backward_loop
    return kernel(post)


def hmm_infer(params, obs_set, smooth=True):
    """Forward-backward over a whole set of sequences at once.

    Returns an HmmSetPosterior; pack.unpack(gamma) gives the state marginals
    of all steps in input order. smooth=False runs the forward pass alone,
    which is all the per-sequence log-likelihoods need.
    """
    post = _hmm_forward(params, _hmm_pack(isinstance(params.emit, DiscreteEmission), obs_set))
    return _hmm_backward(post) if smooth else post


def hmm_forward_backward(params, obs):
    """Exact smoothed posteriors and log-likelihood of one sequence."""
    post = hmm_infer(params, [obs])
    return SmoothedMarginals(post.gamma, post.pairwise(), float(post.logliks[0]))


def hmm_loglik(params, obs_set):
    return _total_loglik(hmm_infer(params, obs_set, smooth=False))


def _hmm_m_step(pack, post, kind, n_symbols=None):
    post = _hmm_backward(post)
    K = post.params.n_states
    gamma = post.gamma
    events = []
    pi = gamma[:pack.counts[0]].sum(axis=0)
    pi = pi / pi.sum()
    trans_num = post.pairwise_sum()
    row = trans_num.sum(axis=1, keepdims=True)
    for k in np.where(row[:, 0] < EMPTY_COMPONENT_COUNT)[0]:
        trans_num[k] = 1.0 / K
        row[k] = 1.0
        events.append(f"state {k} saw no transitions; row reset to uniform")
    trans = trans_num / row

    if kind == "discrete":
        counts = np.stack([np.bincount(pack.data, weights=g, minlength=n_symbols)
                           for g in gamma.T])
        occ = counts.sum(axis=1, keepdims=True)
        for k in np.where(occ[:, 0] < EMPTY_COMPONENT_COUNT)[0]:
            counts[k] = 1.0
            occ[k] = n_symbols
            events.append(f"state {k} empty; emissions reset to uniform")
        emit = DiscreteEmission(_floored_rows(counts / occ))
    else:
        G = gamma
        occ = G.sum(axis=0)
        for k in np.where(occ < EMPTY_COMPONENT_COUNT)[0]:
            i = int(np.argmin(G.max(axis=1)[pack.index]))    # input-order point
            G = G.copy()
            G[pack.index[i]] = 0.0
            G[pack.index[i], k] = 1.0
            events.append(f"state {k} empty; re-seeded at pooled point {i}")
        emit = GaussianEmission(*_weighted_gaussians(pack.data, G, G.sum(axis=0),
                                                     _var_floor(pack.data)))
    params = HmmParams(pi, trans, emit)
    return (params, events) if events else params


def hmm_fit(obs_set, K, kind, cfg: EmConfig, n_symbols=None, init=None):
    """Baum-Welch over one or more sequences; deterministic given cfg.seed."""
    if kind not in ("discrete", "gaussian"):
        raise ValueError("kind must be 'discrete' or 'gaussian'")
    _check_k(K, "states")
    pack = _hmm_pack(kind == "discrete", obs_set)
    rng = RandomSource(cfg.seed).split(303)
    if kind == "discrete":
        codes, (n_symbols,) = category_codes(pack.data[:, None], "observation symbols", n_symbols)
        pack = dataclasses.replace(pack, data=codes[:, 0])
        if init is None:
            freq = np.bincount(pack.data, minlength=n_symbols).astype(float) / pack.data.size
            emit = DiscreteEmission(_perturbed_rows(freq, K, rng))
    elif init is None:
        # input order for the seeded start
        X = pack.unpack(pack.data)
        emit = GaussianEmission(*_gaussian_start(X, K, rng, _var_floor(X)))
    if init is None:
        # the transitions draw from the stream after the emissions
        init = HmmParams(np.full(K, 1.0 / K), _perturbed_rows(np.ones(K), K, rng), emit)

    # The E-step is the forward pass alone, which gives the log-likelihood;
    # the backward pass runs in the M-step, so the final E-step skips it.
    def m_step(data, post):
        return _hmm_m_step(data, post, kind, n_symbols=n_symbols)

    return run_em(_hmm_forward, m_step, _total_loglik, pack, init, cfg)


def hmm_sample(params, T, rng):
    """Ancestral draw of (states, observations) of length T.

    The stream gives T uniforms to the state chain, then T uniforms to the
    symbols, or one standard normal vector to each step whose state has a
    nonzero covariance: the draws of a step-by-step sampler, made in blocks.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    K = params.n_states
    u = rng.uniform(T).tolist()
    cum = np.cumsum(params.trans, axis=1).tolist()
    s = min(bisect_right(np.cumsum(params.pi).tolist(), u[0]), K - 1)
    path = [s]
    for x in u[1:]:
        s = min(bisect_right(cum[s], x), K - 1)
        path.append(s)
    states = np.array(path)
    if isinstance(params.emit, DiscreteEmission):
        cum_emit = np.cumsum(params.emit.probs, axis=1)
        v = rng.uniform(T)
        obs = np.minimum(np.sum(cum_emit[states] <= v[:, None], axis=1),
                         params.emit.n_symbols - 1)
        return states, obs
    d = params.emit.dim
    chol = np.zeros((K, d, d))
    noisy = np.zeros(K, dtype=bool)
    for k in np.unique(states):
        g = Gaussian(params.emit.means[k], params.emit.covs[k])
        if np.any(g.cov):
            noisy[k] = True
            chol[k] = chol_psd(g.cov)
    obs = params.emit.means[states]
    drawn = noisy[states]
    eps = rng.standard_normal((int(drawn.sum()), d))
    obs[drawn] += (chol[states[drawn]] @ eps[:, :, None])[:, :, 0]
    return states, obs


def canonical_state_order(params):
    """Deterministic state ordering for serialization: by emission mean norm
    (Gaussian) or emission entropy ascending (discrete)."""
    if isinstance(params.emit, DiscreteEmission):
        p = params.emit.probs
        key = -np.sum(np.where(p > 0, p * np.log(p), 0.0), axis=1)
    else:
        key = np.linalg.norm(params.emit.means, axis=1)
    order = np.argsort(key, kind="stable")
    emit = type(params.emit)(*(a[order] for a in vars(params.emit).values()))
    return HmmParams(params.pi[order], params.trans[np.ix_(order, order)], emit)


# ---------------------------------------------------------------------------
# Linear dynamical systems

@dataclass(frozen=True)
class LdsSetPosterior:
    """Kalman filter, and optionally RTS smoother, over a packed set.

    Per packed row: filtered means means_f and predicted means pred_means.
    Per step, shared by all sequences: filtered and predicted covariances
    covs_f and pred_covs (Tmax, dz, dz), and cov_steps (Tmax,), the step
    each step's covariances repeat (itself before the first repeat). Per
    sequence, in input order: logliks. After smoothing: smoothed means
    (N, dz) and covs (N, dz, dz) per row, and the smoother gains
    (Tmax-1, dz, dz) per step.
    """

    params: LdsParams
    pack: SequencePack
    means_f: np.ndarray
    covs_f: np.ndarray
    pred_means: np.ndarray
    pred_covs: np.ndarray
    logliks: np.ndarray
    cov_steps: np.ndarray
    means: np.ndarray = None
    covs: np.ndarray = None
    gains: np.ndarray = None


def _lds_pack(obs_set):
    return SequencePack.build([np.atleast_2d(np.asarray(o, dtype=float)) for o in obs_set])


def _kalman_pass(params, pack):
    """Kalman filter over every sequence of a pack.

    The covariances, the gain and the innovation covariance depend on the
    parameters and t alone, so a first loop forms each once per step, and a
    second advances the means of all running sequences together with the
    three products of a step. The covariance loop stops at the first step
    whose predicted covariance has the bytes of any earlier step's: the
    Riccati recursion from there on repeats that cycle exactly, so one
    index array (cov_steps) fills the remaining steps from it. The Cholesky
    factors and log-determinants behind the log-likelihood are taken in one
    batched call over the steps before the repeat, each row's innovation is
    whitened by the factor of its step, and the RTS pass reads the same rows
    and cycle.
    """
    X = pack.data
    if X.shape[1] != params.obs_dim:
        raise ValueError("observation dimension mismatch")
    counts, starts = pack.counts.tolist(), pack.starts.tolist()
    Tm = len(counts)
    N = X.shape[0]
    dz, dx = params.state_dim, params.obs_dim
    A, C, Q, R = params.A, params.C, params.Q, params.R
    CT, AT = C.T, A.T
    covs = np.empty((Tm, dz, dz))
    pred_covs = np.empty((Tm, dz, dz))
    innov_covs = np.empty((Tm, dx, dx))
    gains_T = np.empty((Tm, dx, dz))                          # K^T per step
    cov_steps = np.arange(Tm)
    n_cov = Tm
    # step of each earlier predicted covariance, by bytes: -0.0 == 0.0, but
    # later products can tell them apart
    seen = {}
    for t in range(Tm):
        # symmetric up to rounding; it feeds S and the next P, which is
        # symmetrized again
        P_pred = A @ P @ AT + Q if t else params.Sigma0
        key = P_pred.tobytes()
        if key in seen:
            s, n_cov = seen[key], t
            cov_steps[t:] = s + (cov_steps[t:] - s) % (t - s)
            for a in (pred_covs, covs, gains_T):
                a[t:] = a[cov_steps[t:]]
            break
        seen[key] = t
        pred_covs[t] = P_pred
        CP = C @ P_pred
        # S is symmetric up to rounding; the Cholesky factors below read one triangle
        S = innov_covs[t] = CP @ CT + R
        try:
            gain_T = gains_T[t] = np.linalg.solve(S, CP)
        except np.linalg.LinAlgError:
            raise NumericError(f"singular innovation covariance at step {t}")
        P = P_pred - gain_T.T @ CP
        P = covs[t] = 0.5 * (P + P.T)
    means, pred_means = np.empty((N, dz)), np.empty((N, dz))
    innov = np.empty((N, dx))
    pred_means[:counts[0]] = params.mu0
    for t in range(Tm):
        s, e = starts[t], starts[t + 1]
        m_pred = pred_means[s:e]
        v, m = innov[s:e], means[s:e]
        np.subtract(X[s:e], np.matmul(m_pred, CT, out=v), out=v)
        np.add(m_pred, np.matmul(v, gains_T[t], out=m), out=m)
        if t < Tm - 1:
            n = counts[t + 1]
            np.matmul(means[s:s + n], AT, out=pred_means[e:e + n])
    try:
        L = np.linalg.cholesky(innov_covs[:n_cov])
    except np.linalg.LinAlgError:
        for t in range(n_cov):
            try:
                np.linalg.cholesky(innov_covs[t])
            except np.linalg.LinAlgError:
                raise NumericError(f"singular innovation covariance at step {t}")
        raise
    steps = cov_steps[pack.steps]
    sol = np.linalg.solve(L[steps], innov[:, :, None])[:, :, 0]
    logdet = 2.0 * np.sum(np.log(np.diagonal(L, axis1=1, axis2=2)), axis=1)
    row_ll = -0.5 * (dx * math.log(2 * math.pi) + logdet[steps] + np.sum(sol * sol, axis=1))
    return LdsSetPosterior(params, pack, means, covs, pred_means, pred_covs,
                           pack.sums(row_ll), cov_steps)


def _rts_pass(filt):
    """RTS backward pass over a filtered set. The smoother gains and the
    part of each smoothed covariance that depends on t alone are formed for
    the steps before the filter's covariance cycle repeats and gathered by
    step through cov_steps; the smoothed covariances are per row, since they
    depend on each sequence's length."""
    counts, starts = filt.pack.counts.tolist(), filt.pack.starts.tolist()
    covs_f, pred_covs, pred_means = filt.covs_f, filt.pred_covs, filt.pred_means
    # the smoother gains J_t = P_t A^T (P_{t+1|t})^{-1} depend on t alone,
    # so one batched solve gives all of them up to the repeat
    n_cov = min(int(filt.cov_steps.max()) + 1, len(counts) - 1)
    cyc = filt.cov_steps[:-1]
    P_next_T = pred_covs[1:n_cov + 1].transpose(0, 2, 1)
    AP = (covs_f[:n_cov] @ filt.params.A.T).transpose(0, 2, 1)
    try:
        gains = np.linalg.solve(P_next_T, AP)
    except np.linalg.LinAlgError:
        # a singular P_{t+1|t} (zero Q and Sigma0 along some direction):
        # range(A P_t) lies in range(P_{t+1|t}), so its pseudo-inverse gives
        # a gain that the smoothed moments accept
        gains = np.linalg.pinv(P_next_T) @ AP
    gains = gains[cyc].transpose(0, 2, 1)
    gains_T = gains.transpose(0, 2, 1)
    # P_s[t] = P_t + J_t (P_s[t+1] - P_{t+1|t}) J_t^T, split into a part
    # that depends on t alone and one per row
    base = (covs_f[:n_cov] - gains[:n_cov] @ pred_covs[1:n_cov + 1] @ gains_T[:n_cov])[cyc]
    means = filt.means_f.copy()
    covs = covs_f[filt.pack.steps]
    for t in range(len(counts) - 2, -1, -1):
        s, q = starts[t], starts[t + 1]
        n = counts[t + 1]
        means[s:s + n] += (means[q:q + n] - pred_means[q:q + n]) @ gains_T[t]
        covs[s:s + n] = base[t] + gains[t] @ covs[q:q + n] @ gains_T[t]
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    return dataclasses.replace(filt, means=means, covs=covs, gains=gains)


def lds_infer(params, obs_set, smooth=True):
    """Kalman filtering and RTS smoothing over a whole set of sequences.

    Returns an LdsSetPosterior; pack.unpack(means) gives the smoothed means
    of all steps in input order. smooth=False runs the filter alone, which
    is all the per-sequence log-likelihoods need.
    """
    filt = _kalman_pass(params, _lds_pack(obs_set))
    return _rts_pass(filt) if smooth else filt


def kalman_filter(params, obs):
    """Forward recursion over one sequence: filtered means and covariances,
    predicted means and covariances, and the log-likelihood accumulated from
    the innovation Gaussians."""
    f = lds_infer(params, [obs], smooth=False)
    return f.means_f, f.covs_f, f.pred_means, f.pred_covs, float(f.logliks[0])


def kalman_smooth(params, obs):
    """RTS-smoothed posteriors of one sequence, with the lag-one cross
    second moments needed by the EM M-step."""
    sm = lds_infer(params, [obs])
    lag_one = (sm.covs[1:] @ sm.gains.transpose(0, 2, 1)
               + sm.means[1:, :, None] * sm.means[:-1, None, :])
    return GaussianSmoothed(sm.means, sm.covs, lag_one, float(sm.logliks[0]))


def lds_loglik(params, obs_set):
    return _total_loglik(lds_infer(params, obs_set, smooth=False))


def lds_fit(obs_set, state_dim, cfg: EmConfig, init=None):
    """EM for the linear dynamical system with closed-form least-squares
    M-step (ridge-stabilized normal equations).

    Sigma0 is updated only when at least two sequences are available; with a
    single sequence it is held at its initial value (one observation of z_1
    cannot identify it).
    """
    pack = _lds_pack(obs_set)
    if np.any(pack.lengths < 2):
        raise ValueError("sequences must have length >= 2")
    X = pack.data
    N, dx = X.shape
    n_seq = pack.lengths.size
    if init is None:
        xvar = float(np.mean(np.var(X, axis=0)))
        C0 = np.eye(dx, state_dim)
        init = LdsParams(0.5 * np.eye(state_dim), C0,
                         0.1 * max(xvar, 1e-6) * np.eye(state_dim),
                         0.5 * max(xvar, 1e-6) * np.eye(dx),
                         np.zeros(state_dim), np.eye(state_dim))
    S_xx = X.T @ X
    first, nxt = slice(0, n_seq), slice(n_seq, None)
    prev_rows, last_rows = pack.prev, pack.last

    # The E-step is the filter alone, which gives the log-likelihood; the
    # RTS pass runs in the M-step, so the final E-step does no smoothing.
    def m_step(_pack, filt):
        sm = _rts_pass(filt)
        M, P = sm.means, sm.covs
        dz = M.shape[1]
        P_step = np.add.reduceat(P, pack.starts[:-1], axis=0)    # per-step sums
        S_zz_all = P_step.sum(axis=0) + M.T @ M                   # E[z_t z_t^T], all t
        S0_acc = P_step[0] + M[first].T @ M[first]                # first steps
        S_last = P[last_rows].sum(axis=0) + M[last_rows].T @ M[last_rows]
        S_tt_first = S_zz_all - S0_acc                            # t >= 2
        S_t1t1 = S_zz_all - S_last                                # t <= T-1
        S_t_t1 = (np.einsum("tij,tkj->ik", P_step[1:], sm.gains)  # E[z_t z_{t-1}^T]
                  + M[nxt].T @ M[prev_rows])
        S_xz = X.T @ M
        n_trans = N - n_seq
        A_new = np.linalg.solve((S_t1t1 + RIDGE * np.eye(dz)).T, S_t_t1.T).T
        Q_new = (S_tt_first - A_new @ S_t_t1.T - S_t_t1 @ A_new.T
                 + A_new @ S_t1t1 @ A_new.T) / n_trans
        Q_new = 0.5 * (Q_new + Q_new.T) + RIDGE * np.eye(dz)
        C_new = np.linalg.solve((S_zz_all + RIDGE * np.eye(dz)).T, S_xz.T).T
        R_new = (S_xx - C_new @ S_xz.T - S_xz @ C_new.T
                 + C_new @ S_zz_all @ C_new.T) / N
        R_new = 0.5 * (R_new + R_new.T) + RIDGE * np.eye(dx)
        mu0_new = M[first].sum(axis=0) / n_seq
        if n_seq >= 2:
            S0_new = S0_acc / n_seq - np.outer(mu0_new, mu0_new)
            S0_new = 0.5 * (S0_new + S0_new.T) + RIDGE * np.eye(dz)
        else:
            S0_new = filt.params.Sigma0
        return LdsParams(A_new, C_new, Q_new, R_new, mu0_new, S0_new)

    return run_em(_kalman_pass, m_step, _total_loglik, pack, init, cfg)


def lds_sample(params, T, rng):
    """Ancestral draw of (states, observations) of length T.

    The stream gives one standard normal vector to z_1, then T-1 to the
    process noise, then T to the observation noise, with no draws for an
    all-zero covariance: the draws of a step-by-step sampler, made in blocks.
    """
    if T < 1:
        raise ValueError("T must be >= 1")
    dz, dx = params.state_dim, params.obs_dim

    def noise(cov, n, d):
        g = Gaussian(np.zeros(d), cov)
        if not np.any(g.cov):
            return np.zeros((n, d))
        return rng.standard_normal((n, d)) @ chol_psd(g.cov).T

    Z = np.empty((T, dz))
    Z[0] = params.mu0 + noise(params.Sigma0, 1, dz)[0]
    if T > 1:
        W = noise(params.Q, T - 1, dz)
        A = params.A
        for t in range(1, T):
            Z[t] = A @ Z[t - 1] + W[t - 1]
    X = Z @ params.C.T + noise(params.R, T, dx)
    return check_finite(Z, "sampled states"), check_finite(X, "sampled observations")
