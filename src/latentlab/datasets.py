"""Synthetic data with known ground truth (the oracles behind recovery
tests), the input kinds families read and write, and model file I/O.

KINDS gives each input kind's reader (with the checks every command applies
to its --data file), writer, and the spec field that sizes a draw (n for a
matrix or codes, lengths for the rest). matrix: a CSV with a header row and
17-significant-digit values, at least one data row. codes: a matrix of
category codes. seq: one sequence of symbols per line. real_seq: a "dx=<d>"
header line (d a positive integer), then one sequence of flattened rows per
line. Real entries must be finite and at most MAX_ABS in magnitude. corpus:
one document of word indices per line. Codes, symbols and word indices
follow core.category_codes. Model files are versioned JSON carrying the RNG
algorithm id; every number in them is finite. A model file's params, and a
synth spec's params and seed, go as they are to the constructors of the
parameters that hold them, which apply one field rule (core.real_fields,
core.int_fields, and core.cov_fields for a covariance, which must also be
square, symmetric within 1e-10 and positive semi-definite): a missing or
malformed field is a ValueError, exit 2 at the command line, with one line
naming it.
"""
from __future__ import annotations

import json
import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

import latentlab as pkg
from .core import (RNG_ALGORITHM, NumericError, RandomSource, category_codes,
                   check_simplex_rows, fields_from_json, int_fields, is_int, real_array,
                   row_blocks, sample_categorical_many)
from . import families

__all__ = ["SyntheticSpec", "generate", "KINDS", "SYNTHETIC_FAMILIES", "MAX_ABS",
           "UsageError", "read_matrix", "read_codes", "read_csv", "write_csv", "read_seq",
           "write_seq", "read_corpus", "write_corpus", "write_model",
           "read_model", "read_json_object", "MODEL_SCHEMA"]

MODEL_SCHEMA = "latentlab-model-v1"
FMT = "%.17g"
# ASCII separators that np.loadtxt strips around a number and float() rejects.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
# The largest magnitude of a real input entry: every real-valued family fits
# and scores data up to it at its default flags without overflow.
MAX_ABS = 1e50


class UsageError(Exception):
    """Input that breaks the command-line contract: exit code 2."""


# An input kind: read(path, family, width) -> checked data (width: the table
# width of codes or word indices, or None for the largest + 1), write(path,
# data), and the spec field sizing a draw.
Kind = namedtuple("Kind", "read write size")


def read_matrix(path):
    """A CSV of finite reals of magnitude at most MAX_ABS, with at least one
    data row."""
    X = read_csv(path)
    if X.size == 0:
        raise UsageError(f"{path}: no data rows")
    bad = np.flatnonzero(~np.all(np.isfinite(X), axis=1))
    if bad.size:
        raise UsageError(f"{path}: data row {bad[0] + 1} holds a non-finite value")
    _check_magnitude(path, X, "data row")
    return X


def read_codes(path, family, width=None):
    """A matrix (read_matrix) of category codes, as an int array; a usage
    error calls the rows by the family's noun."""
    X = read_matrix(path)
    try:
        return category_codes(X, f"{path}: {families.FAMILIES[family].noun}", width)[0]
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_magnitude(path, X, row):
    big = np.argwhere(np.abs(X) > MAX_ABS)
    if big.size:
        i, j = big[0]
        raise UsageError(f"{path}: {row} {i + 1}, column {j + 1}: magnitude above "
                         f"MAX_ABS = {MAX_ABS:g}")


def _read_discrete_seqs(path, family, _width):
    seqs, dx = read_seq(path)
    if dx is not None:
        raise UsageError(f"{family} requires a discrete sequence file")
    return seqs


def _read_real_seqs(path, family, _width):
    seqs, dx = read_seq(path)
    if dx is None:
        raise UsageError(f"{family} requires a continuous sequence file (dx= header)")
    if not all(np.all(np.isfinite(s)) for s in seqs):
        raise UsageError(f"{path}: sequences must be finite")
    for i, s in enumerate(seqs):
        _check_magnitude(path, s, f"sequence {i + 1}, row")
    return seqs


# Entries call the module's functions by name, so a rebound read_csv or
# write_csv (a tracer, a test fake) sees every call.
KINDS = {
    "matrix": Kind(lambda path, _family, _width: read_matrix(path),
                   lambda path, X: write_csv(path, X), "n"),
    "codes": Kind(read_codes, lambda path, X: write_csv(path, X), "n"),
    "seq": Kind(_read_discrete_seqs, lambda path, seqs: write_seq(path, seqs), "lengths"),
    "real_seq": Kind(_read_real_seqs,
                     lambda path, seqs: write_seq(path, seqs, dx=seqs[0].shape[1]), "lengths"),
    "corpus": Kind(lambda path, _family, width: read_corpus(path, V=width),
                   lambda path, corpus: write_corpus(path, corpus), "lengths"),
}

# The input kind of each family generate draws: the families with an
# ancestral draw, LDA from its hyperparameters, and two synth-only ones.
SYNTHETIC_FAMILIES = {**{name: rec.input for name, rec in families.FAMILIES.items()
                         if rec.sample_latents or name == "lda"},
                      "mixture1d": "matrix", "blobs2d": "matrix"}


@dataclass(frozen=True)
class SyntheticSpec:
    """Family name, family-specific true parameters, sizes, and a seed. The
    size field of the family's kind must be nonzero."""

    family: str
    params: dict
    n: int = 0
    lengths: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in SYNTHETIC_FAMILIES:
            raise ValueError(f"unknown family {self.family!r:.40}")
        if not isinstance(self.params, dict):
            raise ValueError("spec params must be a JSON object")
        if not is_int(self.n) or self.n < 0:
            raise ValueError(f"spec n must be an integer >= 0, got {self.n!r}")
        int_fields(self, seed=0)
        if not isinstance(self.lengths, (list, tuple)) \
                or not all(is_int(v) and v >= 1 for v in self.lengths):
            raise ValueError(f"spec lengths must be a list of integers >= 1, "
                             f"got {self.lengths!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "lengths", tuple(int(v) for v in self.lengths))
        size = KINDS[SYNTHETIC_FAMILIES[self.family]].size
        if not getattr(self, size):
            raise ValueError(f"spec {size} must be set for family {self.family!r} to draw "
                             f"at least one row or sequence, got {getattr(self, size)!r}")


def generate(spec):
    """Exact ancestral sampling for the named family; returns
    (data, true_latents, true_params). Deterministic given spec.seed. The
    params of a model family other than lda take its model-file JSON form,
    and its record's sample_latents draws the data. Every field follows the
    field rule of the parameters it sets (core.real_fields, core.int_fields)."""
    rng = RandomSource(spec.seed)
    family, p = spec.family, spec.params
    if family == "lda":
        hyper = fields_from_json(pkg.lda.LdaHyper, p)
        corpus, latents = pkg.lda.generate_corpus(hyper, spec.lengths, rng)
        return corpus, latents, hyper
    if family == "mixture1d":
        weights, means, sds = (real_array(p.get(k, d), k, 1) for k, d in (
            ("weights", [0.5, 0.5]), ("means", [-2.0, 2.0]), ("sds", [0.5, 0.5])))
        if not weights.shape == means.shape == sds.shape:
            raise ValueError("mixture1d weights, means and sds must have one length")
        check_simplex_rows(weights, name="weights")
        if np.any(sds < 0):
            raise ValueError("sds must be nonnegative")
        z = sample_categorical_many(weights, rng, spec.n)
        X = (means[z] + sds[z] * rng.standard_normal(spec.n))[:, None]
        return X, {"assignments": z}, {"weights": weights, "means": means, "sds": sds}
    if family == "blobs2d":
        sep = float(real_array(p.get("separation", 10.0), "separation", 0))
        family, p = "gmm", {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [sep, 0.0]],
                            "covs": [np.eye(2), np.eye(2)]}
    record = families.FAMILIES[family]
    params = record.from_json(p)
    data, latents = record.sample_latents(params, getattr(spec, KINDS[record.input].size), rng)
    return data, latents, params


# ---------------------------------------------------------------------------
# CSV and sequence I/O

def write_csv(path, data, header=None):
    """A header row, then one row of 17-significant-digit values per row of
    data, formatted and written block by block of rows (core.row_blocks), so
    the text and Python floats of one block are held at a time."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    cols = header or [f"x{j}" for j in range(d)]
    row = ",".join([FMT] * d) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for b in row_blocks(n, X.itemsize * d):
            fh.write((row * (b.stop - b.start)) % tuple(X[b].ravel().tolist()))


def _read_text(path):
    with open(path, "r", newline="") as fh:
        return fh.read()


def _lines(text, path):
    """The non-blank lines of the text of the file at path, any newline
    convention; a file with none is an error."""
    lines = [ln for ln in text.replace("\r\n", "\n").replace("\r", "\n").split("\n") if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    return lines


def read_csv(path):
    """The data rows of a CSV under a header row, as an (n, width) float array
    ((0,) when there are none). numpy's C parser reads a well-formed file; any
    other goes through the line parser, which names the line at fault. The
    file's text is dropped once split into lines."""
    raw = _read_text(path)
    lines = _lines(raw, path)
    # loadtxt reads the data rows: the text after the header line
    head = raw.find(lines[0]) + len(lines[0])
    spaced = any(raw.find(c, head) >= 0 for c in _LOADTXT_ONLY_SPACE)
    del raw
    width = len(lines[0].split(","))
    data = lines[1:]
    if data and not spaced:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                X = np.loadtxt(data, delimiter=",", comments=None, ndmin=2)
            if X.shape[1] == width:
                return X
        except (ValueError, Warning):
            pass    # the line parser below names the line at fault
    rows = []
    for lineno, line in enumerate(data, start=2):
        parts = line.split(",")
        if len(parts) != width:
            raise ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(parts)}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed number")
    return np.asarray(rows, dtype=float)


def write_seq(path, sequences, dx=None):
    """Discrete sequences: space-separated ints, one sequence per line.
    Continuous sequences: a 'dx=<d>' header line then flattened rows."""
    lines = []
    if dx is not None:
        lines.append(f"dx={int(dx)}")
        for s in sequences:
            lines.append(" ".join(FMT % v for v in np.asarray(s, dtype=float).ravel()))
    else:
        for s in sequences:
            lines.append(" ".join(str(int(v)) for v in np.asarray(s, dtype=int)))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_seq(path):
    """Returns (sequences, dx) where dx is None for discrete files, whose
    symbols are category codes; the row of a bad symbol is its place on the
    line."""
    lines = _lines(_read_text(path), path)
    dx = None
    start = 0
    if lines[0].startswith("dx="):
        head = lines[0][3:].strip()
        dx = int(head) if head.isdecimal() and len(head) <= 18 else 0
        if dx < 1:
            raise ValueError(f"{path}: line 1: dx= must be a positive integer of at most "
                             f"18 digits, got {head!r}")
        start = 1
    seqs = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        try:
            if dx is None:
                symbols = np.array(line.split(), dtype=float)[:, None]
                seqs.append(category_codes(symbols, "symbols")[0][:, 0])
            else:
                flat = np.array([float(v) for v in line.split()], dtype=float)
                if flat.size % dx:
                    raise ValueError("row length not divisible by dx")
                seqs.append(flat.reshape(-1, dx))
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}")
    return seqs, dx


def write_corpus(path, corpus):
    with open(path, "w", newline="\n") as fh:
        for doc in corpus.docs:
            fh.write(" ".join(str(int(w)) for w in doc) + "\n")


def read_corpus(path, V=None):
    """A corpus of word indices below V (by default the largest + 1)."""
    docs = []
    for lineno, line in enumerate(_lines(_read_text(path), path), start=1):
        try:
            words = np.array(line.split(), dtype=float)[:, None]
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed word index")
        # the row of a bad index is its place on the line
        docs.append(category_codes(words, f"{path}: line {lineno}: word indices", V)[0][:, 0])
    return pkg.lda.Corpus(tuple(docs), V)


# ---------------------------------------------------------------------------
# Model files: versioned JSON; each family's record gives its parameters'
# canonical JSON form

def _family(family, verb):
    if family not in families.FAMILIES:
        raise ValueError(f"cannot {verb} family {family!r}")
    return families.FAMILIES[family]


def write_model(path, family, params, config=None):
    """The model file of params; one holding a NaN or an infinity raises
    NumericError and writes nothing."""
    doc = {"schema": MODEL_SCHEMA, "family": family,
           "rng_algorithm": RNG_ALGORITHM,
           "params": _family(family, "serialize").to_json(params),
           "config": config or {}}
    try:
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=False)
    except ValueError:
        raise NumericError(f"{path}: the {family} model holds a non-finite number; "
                           "no model file written") from None
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def read_json_object(path):
    """The JSON object a file holds; anything else is a ValueError naming the file."""
    with open(path, "r") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def read_model(path):
    doc = read_json_object(path)
    if doc.get("schema") != MODEL_SCHEMA:
        raise ValueError(f"{path}: unknown model schema {doc.get('schema')!r}")
    family, params, config = doc.get("family"), doc.get("params"), doc.get("config", {})
    if not isinstance(family, str):
        raise ValueError(f"{path}: no family name")
    if not isinstance(params, dict) or not isinstance(config, dict):
        raise ValueError(f"{path}: params and config must be JSON objects")
    return family, _family(family, "load").from_json(params), config
