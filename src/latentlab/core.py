"""Shared numerical primitives: distributions, log-domain utilities, and a
seedable deterministic random source.

All matrices are dense, row-major float64 numpy arrays. Log-domain is the
default for mixture/sequential computations. The independent oracles that
judge the models (Gaussian conditioning, single-point densities and draws,
enumeration) live outside the library, in tests/oracle_utils.py.

Every parameter class converts and checks its fields by one field rule:
real_fields for reals, int_fields for integers, and cov_fields for
covariances, reals whose last two axes are also square and symmetric within
np.allclose(M, M^T, atol=1e-10), stored as their symmetric part. The
logistic (sigmoid) and the max-shifted row softmax (softmax_rows) live here
too, one definition each for every module.

Every max and sum over a short last axis on many rows goes through one
reduction rule: row_max and row_sums give numpy's bytes, as whole-column
passes on many rows of at most COLUMN_MAX_TERMS terms and as numpy's own
call otherwise; "many" is a measured number of rows per term. A max is
exact, and row_sums replays numpy's pairwise order in its passes. The
tape's log-softmax (nn) takes its normalizer from log_sum_exp_rows and its
backward's sums from row_sums, so it follows the same rule.
"""
from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field, fields

import numpy as np

RNG_ALGORITHM = "philox4x64"

__all__ = [
    "RNG_ALGORITHM",
    "Gaussian",
    "Simplex",
    "RandomSource",
    "softmax_rows",
    "sigmoid",
    "sample_dirichlet",
    "chol_psd",
    "check_finite",
    "category_codes",
    "fields_to_json",
    "fields_from_json",
]


class NumericError(ValueError):
    """Raised when a numerical precondition fails (singular/non-PSD input)."""


def check_finite(a, name="array"):
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} contains non-finite entries")
    return a


def is_int(value):
    """True for an integer: an int or a numpy integer, never a bool (nor 2.7)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _holds_bool(items):
    """True if the list or tuple items holds a bool at any depth."""
    return any(isinstance(v, bool) or isinstance(v, (list, tuple)) and _holds_bool(v)
               for v in items)


def _array(value, name, rank, kinds, what):
    """value as an array of at most rank axes and a dtype kind in kinds (an
    empty list passes), with leading axes added up to rank as np.atleast_1d
    and np.atleast_2d add them; else a ValueError naming the field. A bool
    inside a list is refused too, where np.asarray would read it as 0 or 1;
    an array input takes no pass for it."""
    try:
        a = np.asarray(value)
        ok = a.ndim <= rank and (a.dtype.kind in kinds or 0 == a.size < a.ndim) \
            and not (isinstance(value, (list, tuple)) and _holds_bool(value))
    except ValueError:      # a ragged list
        ok = False
    if not ok:
        raise ValueError(f"{name} must be {what}, got {value!r:.40}")
    return a.reshape((1,) * (rank - a.ndim) + a.shape)


def real_array(value, name, rank):
    """The field rule for reals: value as a finite float64 array of at most
    rank axes (leading axes added up to rank); a float64 array is not
    copied. A JSON object, string, null or bool, a ragged list, more axes and
    a NaN or an infinity are each a ValueError naming the field."""
    what = "a number" if rank == 0 else f"an array of numbers of rank at most {rank}"
    return check_finite(_array(value, name, rank, "iuf", what), name)


def real_fields(obj, **ranks):
    """Store each named field of the dataclass obj as real_array(value, name,
    rank), a rank-0 field as a float."""
    for name, rank in ranks.items():
        a = real_array(getattr(obj, name), name, rank)
        object.__setattr__(obj, name, a if rank else float(a))


def cov_fields(obj, **ranks):
    """The field rule for covariances: each named field of the dataclass obj
    by the rule for reals, with square last two axes that are symmetric
    within np.allclose(M, M^T, atol=1e-10), stored as its symmetric part
    M / 2 + M^T / 2, which does not overflow for any finite M. A field that
    fails is a ValueError naming it; each class keeps its own
    positive-definiteness policy."""
    for name, rank in ranks.items():
        M = real_array(getattr(obj, name), name, rank)
        MT = np.swapaxes(M, -1, -2)
        if M.shape[-1] != M.shape[-2] or not np.allclose(M, MT, atol=1e-10):
            raise ValueError(f"{name} must be square and symmetric within 1e-10, "
                             f"got shape {M.shape}")
        object.__setattr__(obj, name, 0.5 * M + 0.5 * MT)


def int_fields(obj, **ranks):
    """The field rule for integers: store each named field of the dataclass
    obj as an int (rank 0) or an int vector (rank 1) by the rule for reals,
    with integer entries: a bool or a 2.7 is a ValueError naming the field."""
    for name, rank in ranks.items():
        what = "a list of integers" if rank else "an integer"
        a = _array(getattr(obj, name), name, rank, "iu", what)
        object.__setattr__(obj, name, a.astype(int) if rank else int(a))


def check_counts(**counts):
    """Raise ValueError naming the first count (epochs, batch, hidden,
    latent_dim, quad_nodes, ...) below 1."""
    for name, value in counts.items():
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")


def json_list(value, name):
    """value, if it is a non-empty list (or tuple); else a ValueError naming
    the field."""
    if not isinstance(value, (list, tuple)) or not value:
        raise ValueError(f"{name} must be a non-empty list, got {value!r:.40}")
    return value


def json_field(obj, name, what):
    """The value of key name of the JSON object obj (what names obj); obj not
    an object, or without the key, is a ValueError naming both."""
    if not isinstance(obj, dict) or name not in obj:
        raise ValueError(f"{what} must be a JSON object with a field {name!r}, got {obj!r:.40}")
    return obj[name]


# Every integer below 2**53 is exact in a float64, so a code read as a float
# is the one the file holds and its cast to int neither warns nor wraps.
CODE_LIMIT = 2 ** 53


def category_codes(data, name, widths=None):
    """(codes, widths): a table of category codes, one row per observation
    and one item per column, as an int array, and each item's table width.

    A code is an integer in [0, width), and below CODE_LIMIT. widths is one
    width for every item or a list of one per item; by default each item's
    largest code + 1. Floats are checked before the cast to int, and an int
    array comes back without a copy. A bad code is a ValueError naming the
    first bad entry's row and item (0-based).
    """
    X = np.atleast_2d(np.asarray(data))
    if np.ndim(widths) and len(widths) != X.shape[1]:
        raise ValueError(f"{name}: {X.shape[1]} items, expected {len(widths)}")
    if X.dtype.kind not in "iu":
        X = np.asarray(X, dtype=float)
    floats = X.dtype.kind == "f"
    # In the unsigned view of an int array a negative code wraps to
    # 2**(bits-1) or more, above every nonnegative value of its type.
    values = X if floats else X.view(f"u{X.dtype.itemsize}")
    limit = CODE_LIMIT if floats else min(CODE_LIMIT, int(np.iinfo(X.dtype).max) + 1)
    bound = np.clip(limit if widths is None else widths, 0, limit).astype(values.dtype)
    top = values.max(axis=0, initial=0)
    codes = X
    ok = np.all(top < bound) and (not floats or X.min(initial=0.0) >= 0)   # False at NaN
    if ok and floats:
        codes = X.astype(np.intp)           # exact: every entry is in [0, 2**53)
        ok = np.array_equal(codes, X)       # False at a fraction
    if not ok:
        with np.errstate(invalid="ignore"):
            bad = (values >= bound) | (np.floor(X) != X) | (X < 0) if floats else values >= bound
        i, j = np.argwhere(bad)[0]
        v, w = X[i, j].item(), int(np.broadcast_to(bound, top.shape)[j])
        rule = ("integer category codes" if not (math.isfinite(v) and v == int(v))
                else "nonnegative" if v < 0 else "binary" if w == 2 else "category codes")
        where = f"row {i}, item {j} holds {v!r}" + (f", out of range [0, {w})" if v >= w else "")
        raise ValueError(f"{name} must be {rule}: {where}")
    return codes, np.broadcast_to(top + 1 if widths is None else widths, top.shape).astype(np.intp)


def fields_to_json(obj):
    """JSON form of a dataclass, field by field: a value with a to_json()
    method (a network) through it, arrays (and Tensors) as nested lists, the
    items of a list or tuple each so, other values as they are."""
    return {f.name: _to_json(getattr(obj, f.name)) for f in fields(obj)}


def _to_json(value):
    if hasattr(value, "to_json"):
        return value.to_json()
    if hasattr(value, "tolist"):
        return value.tolist()
    return [_to_json(v) for v in value] if isinstance(value, (list, tuple)) else value


def fields_from_json(cls, obj):
    """The dataclass cls from its fields_to_json form. Each field's JSON value
    goes to cls as it is, and cls converts and checks it by the field rules;
    a field typed as a class with a from_json (a network) decodes through it."""
    hints = typing.get_type_hints(cls)
    values = {f.name: json_field(obj, f.name, cls.__name__) for f in fields(cls) if f.init}
    return cls(**{k: getattr(hints[k], "from_json", lambda v: v)(v) for k, v in values.items()})


def chol_psd(cov):
    """Cholesky factor of a symmetric PSD matrix.

    Tries a plain factorization first; on failure adds 1e-9*trace/d to the
    diagonal once and retries. Raises NumericError if still not PSD.
    """
    cov = np.asarray(cov, dtype=float)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    d = cov.shape[0]
    jitter = 1e-9 * np.trace(cov) / d
    try:
        return np.linalg.cholesky(cov + jitter * np.eye(d))
    except np.linalg.LinAlgError:
        raise NumericError("covariance not positive semi-definite after jitter")


@dataclass(frozen=True)
class Gaussian:
    """Multivariate normal with dense mean and covariance."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        real_fields(self, mean=1)
        cov_fields(self, cov=2)
        cov, d = self.cov, self.mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"cov shape {cov.shape} does not match mean length {d}")
        # PSD check: smallest eigenvalue may only be negative at roundoff scale.
        w = np.linalg.eigvalsh(cov)
        scale = max(1.0, float(np.trace(cov)) / d if d else 1.0)
        if w.min() < -1e-8 * scale:
            raise ValueError("cov is not positive semi-definite")

    @property
    def dim(self):
        return self.mean.shape[0]


@dataclass(frozen=True)
class Simplex:
    """Probability vector: nonnegative entries summing to one."""

    probs: np.ndarray

    def __post_init__(self):
        real_fields(self, probs=1)        # an empty vector sums to 0
        if np.any(self.probs < 0):
            raise ValueError("probs has negative entries")
        if abs(self.probs.sum() - 1.0) > 1e-12:
            raise ValueError(f"probs sum to {self.probs.sum()!r}, not 1 within 1e-12")

    def __len__(self):
        return self.probs.shape[0]


def check_simplex_rows(mat, atol=1e-9, name="rows"):
    """Raise ValueError unless each row of mat, a finite float array, is a
    simplex: no entry below -atol, and a sum within atol + 1e-5 of 1 (the
    tolerance of np.allclose). The sums are one product with a vector of
    ones (a sum over a short last axis loops once per row), and their range
    is checked by reductions that allocate nothing."""
    if mat.min(initial=0.0) < -atol:
        raise ValueError(f"{name} contain negative entries")
    tol, sums = atol + 1e-5, mat @ np.ones(mat.shape[-1])
    if np.min(sums, initial=1.0) < 1.0 - tol or np.max(sums, initial=1.0) > 1.0 + tol:
        raise ValueError(f"{name} do not sum to 1")


@dataclass
class RandomSource:
    """Deterministic counter-based random stream.

    Identical (seed, algorithm) produces identical draws across runs and
    platforms. The stream is stateful and must be exclusively owned by its
    caller; use split() to derive independent substreams deterministically.
    """

    seed: int
    algorithm: str = RNG_ALGORITHM
    salt: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.algorithm != RNG_ALGORITHM:
            raise ValueError(f"unknown rng algorithm {self.algorithm!r}")
        seed = int(self.seed)
        if seed < 0 or seed >= 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")
        key = np.array([seed, int(self.salt)], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))

    def split(self, salt):
        """Independent stream keyed by (seed, salt); stateless derivation."""
        return RandomSource(self.seed, self.algorithm, salt=int(salt))

    def standard_normal(self, shape=None):
        return self._gen.standard_normal() if shape is None else self._gen.standard_normal(shape)

    def uniform(self, shape=None):
        return self._gen.random() if shape is None else self._gen.random(shape)

    def integers(self, low, high, shape=None):
        return self._gen.integers(low, high) if shape is None else self._gen.integers(low, high, shape)

    def standard_gamma(self, alpha):
        return self._gen.standard_gamma(alpha)

    def permutation(self, n):
        return self._gen.permutation(n)


# When row_max and row_sums take column passes, from timings on a 2-vCPU x86
# host (numpy 2.4); no result depends on these values. A pass costs one numpy
# call per term, where numpy's own reduction loops once per row, so the
# passes pay from some rows per term on. From 16 terms on they lose even on
# a cached block: a max over 41 terms took 85 us against numpy's 83 on 1598
# rows, over 64 terms 143 against 81 on 1024; a replay of the 8 running sums
# that numpy's sum keeps from 16 terms on took 120 us against 65 at 41.
COLUMN_MAX_TERMS = 15
# Per term, the max passes were faster than numpy's max from 8-31 rows at 2 to
# 16 terms, and the sum passes, which also fold and write an output, from
# 37-64 rows at 2 to 15 terms; below these many rows per term, numpy's own
# call is taken.
MAX_PASS_ROWS_PER_TERM = 32
SUM_PASS_ROWS_PER_TERM = 64


def row_max(mat):
    """Maxima over the last axis of an (..., K) array, kept as an (..., 1)
    axis: mat.max(axis=-1, keepdims=True) up to the sign of a zero maximum.
    A maximum is exact, so on MAX_PASS_ROWS_PER_TERM rows per term or more,
    of at most COLUMN_MAX_TERMS terms, it is taken by one elementwise pass
    per column, where numpy runs a separate inner loop for every row. Its
    sibling row_sums gives the sums over the last axis."""
    K = mat.shape[-1]
    if K > COLUMN_MAX_TERMS or mat.size < MAX_PASS_ROWS_PER_TERM * K * K:
        return mat.max(axis=-1, keepdims=True)
    m = mat[..., :1].copy()
    for k in range(1, K):
        np.maximum(m, mat[..., k:k + 1], out=m)
    return m


def row_sums(mat):
    """Sums over the last axis of a float64 (..., K) array: the bytes of
    mat.sum(axis=-1).

    numpy sums each row pairwise (Higham 1993). Below 8 terms it adds them
    in turn; from 8 to 15 it adds ((a0 + a1) + (a2 + a3)) + ((a4 + a5) +
    (a6 + a7)), then the rest in turn; the total is added to +0.0. On
    SUM_PASS_ROWS_PER_TERM rows per term or more, of 2 to COLUMN_MAX_TERMS
    terms on a contiguous last axis, this replays that order as whole-column
    passes,
    which run at vector speed where numpy runs one short loop per row; else
    it is numpy's own call. (Where two NaNs of different bits meet, which
    one propagates is up to the compiled loop.)
    """
    K = mat.shape[-1]
    if (not 1 < K <= COLUMN_MAX_TERMS or mat.size < SUM_PASS_ROWS_PER_TERM * K * K
            or mat.dtype != np.float64 or mat.strides[-1] != mat.itemsize):
        return mat.sum(axis=-1)
    cols = mat.transpose(-1, *range(mat.ndim - 1))
    if K < 8:
        total, rest = cols[0] + 0.0, cols[1:]
    else:
        pairs = np.add(cols[0:8:2], cols[1:8:2], out=np.empty((4,) + mat.shape[:-1]))
        quads = pairs[0::2] + pairs[1::2]
        total, rest = quads[0] + quads[1], cols[8:]
        total += 0.0        # an all -0.0 row sums to +0.0
    for col in rest:
        total += col
    return total


# Bytes of one work buffer of the row-blocked kernels below; the buffers of
# a block stay in a core's share of the 4 MiB L2. Every operation inside a
# block is row-local, so no result depends on this value.
ROW_BLOCK_BYTES = 1 << 19
# OpenBLAS multiplies matrices of a few rows with other kernels (gemv for one
# row, a small-matrix kernel for some dozens of rows at d >= 32) that round
# differently from the ones a long matrix gets; no block is shorter.
MIN_BLOCK_ROWS = 64


def row_blocks(n_rows, row_bytes):
    """Slices that cover range(n_rows) in blocks of ROW_BLOCK_BYTES //
    row_bytes rows (at least MIN_BLOCK_ROWS); a shorter tail joins the block
    before it."""
    size = max(MIN_BLOCK_ROWS, ROW_BLOCK_BYTES // max(row_bytes, 1))
    starts = list(range(0, n_rows, size)) or [0]
    if len(starts) > 1 and n_rows - starts[-1] < MIN_BLOCK_ROWS:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n_rows])]


def _log_sum_exp_block(x, e, out):
    """The log-sum-exp of each row of the (n, K) block x, into out; e is an
    (n, K) work buffer."""
    m = row_max(x)
    m[~np.isfinite(m)] = 0.0
    np.subtract(x, m, out=e)
    np.exp(e, out=e)
    with np.errstate(divide="ignore"):
        np.add(m[:, 0], np.log(row_sums(e)), out=out)


def log_sum_exp_rows(mat):
    """Row-wise log-sum-exp over the last axis of an (..., K) array, read as
    C-ordered rows (log-domain workhorse). Runs block by block of rows
    through one work buffer.

    Rows of all -inf yield -inf; +inf and NaN are the caller's bug.
    """
    mat = np.asarray(mat, dtype=float)
    rows = mat.reshape(-1, mat.shape[-1])
    out = np.empty(len(rows))
    # An input that fits one block skips row_blocks and its slices: 2-3 us a
    # call, measured as 1.6-1.9% of seq-ragged score_s, whose per-sequence
    # HMM scores make 180 such calls a pass (alternating pairs, 2-vCPU x86).
    if rows.nbytes <= ROW_BLOCK_BYTES:
        _log_sum_exp_block(rows, np.empty_like(rows), out)
    else:
        blocks = row_blocks(len(rows), rows.shape[1] * 8)
        buf = np.empty((max(b.stop - b.start for b in blocks), rows.shape[1]))
        for b in blocks:
            _log_sum_exp_block(rows[b], buf[:b.stop - b.start], out[b])
    return out.reshape(mat.shape[:-1])


def normalize_log_rows(log_rows):
    """Row-normalized probabilities of an (N, K) array of log-weights, and
    each row's log-normalizer: the posterior over K discrete values. Runs
    block by block of rows, so each block's passes stay in cache."""
    N, K = log_rows.shape
    probs = np.empty((N, K))
    lse = np.empty(N)
    for rows in row_blocks(N, K * 8):
        x, p = log_rows[rows], probs[rows]
        _log_sum_exp_block(x, p, lse[rows])
        np.subtract(x, lse[rows, None], out=p)
        np.exp(p, out=p)
        p /= row_sums(p)[:, None]
    return probs, lse


def softmax_rows(log_rows, out=None):
    """exp(log_rows) normalized over the last axis, the last-axis maximum
    subtracted first so no entry overflows; out=log_rows works in place."""
    out = np.subtract(log_rows, row_max(log_rows), out=out)
    np.exp(out, out=out)
    out /= row_sums(out)[..., None]
    return out


def sigmoid(x):
    """Logistic function; exp(-|x|) is evaluated once and never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def gaussian_logpdf_rows(X, mean, cov):
    """Log-densities of the rows of X under one Gaussian (mean, cov)."""
    return gaussian_logpdf_columns(X, np.asarray(mean, dtype=float)[None],
                                   np.atleast_2d(cov)[None])[:, 0]


def gaussian_logpdf_columns(X, means, covs):
    """(N, K) log-densities of the rows of X under K Gaussians.

    Block by block of rows, the K centred blocks X_b - mu_k go through one
    batched matmul with the transposed inverses of the d x d Cholesky
    factors (np.linalg.solve would LU-factorize each triangular factor
    again), then are squared in place and summed over d by row_sums; two
    (K, B, d) buffers serve every block.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    means = np.asarray(means, dtype=float)
    (N, d), K = X.shape, len(means)
    inv_t = np.empty((K, d, d))
    const = np.empty(K)
    for k in range(K):
        L = chol_psd(np.atleast_2d(covs[k]))
        inv_t[k] = np.linalg.inv(L)
        const[k] = d * math.log(2 * math.pi) + 2.0 * np.sum(np.log(np.diag(L)))
    inv_t = inv_t.transpose(0, 2, 1)
    out = np.empty((N, K))
    blocks = row_blocks(N, K * d * 8)
    rows = max(b.stop - b.start for b in blocks)
    diff, sol = np.empty((K, rows, d)), np.empty((K, rows, d))
    for b in blocks:
        n = b.stop - b.start
        np.subtract(X[b], means[:, None, :], out=diff[:, :n])
        np.matmul(diff[:, :n], inv_t, out=sol[:, :n])
        np.multiply(sol[:, :n], sol[:, :n], out=sol[:, :n])
        quad = row_sums(sol[:, :n])
        quad += const[:, None]
        quad *= -0.5
        out[b] = quad.T
    return out


def sample_categorical_many(probs, rng, n):
    """n iid categorical draws from one probability vector."""
    cum = np.cumsum(np.asarray(probs, dtype=float))
    u = rng.uniform(n)
    return np.searchsorted(cum, u, side="right").clip(0, len(cum) - 1)


def sample_dirichlet(alpha, rng):
    """Dirichlet draw via normalized standard-gamma variates."""
    alpha = np.asarray(alpha, dtype=float)
    if np.any(alpha <= 0):
        raise ValueError("dirichlet parameters must be positive")
    g = rng.standard_gamma(alpha)
    total = g.sum()
    if total == 0.0:
        # All-underflow corner (enormous concentration deficits); fall back to uniform.
        g = np.ones_like(alpha)
        total = g.sum()
    p = g / total
    # renormalize exactly so downstream Simplex validation never trips
    p = p / p.sum()
    return Simplex(p)
