"""Synthetic data generators with known ground truth (the oracles behind
recovery tests) and dataset/model file I/O.

Formats: CSV with a header row and 17-significant-digit values; sequence
files with one sequence per line (continuous files start with a "dx=<d>"
header); corpus files with one document of whitespace-separated word indices
per line; versioned JSON model files carrying the RNG algorithm id.
"""
from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

import latentlab as pkg
from .core import RNG_ALGORITHM, RandomSource, sample_categorical_many
from . import families

__all__ = ["SyntheticSpec", "generate", "read_csv", "write_csv", "read_seq",
           "write_seq", "read_corpus", "write_corpus", "write_model",
           "read_model", "read_json_object", "MODEL_SCHEMA"]

MODEL_SCHEMA = "latentlab-model-v1"
FMT = "%.17g"
# ASCII separators that np.loadtxt strips around a number and float() rejects.
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"

SYNTHETIC_FAMILIES = ("ppca", "gmm", "lca", "irt", "lda", "hmm", "ghmm", "lds",
                      "mixture1d", "blobs2d")


@dataclass(frozen=True)
class SyntheticSpec:
    """Family name, family-specific true parameters, sizes, and a seed."""

    family: str
    params: dict
    n: int = 0
    lengths: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.family not in SYNTHETIC_FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not isinstance(self.params, dict):
            raise ValueError("spec params must be a JSON object")
        if not _is_int(self.n) or self.n < 0:
            raise ValueError(f"spec n must be an integer >= 0, got {self.n!r}")
        if not isinstance(self.lengths, (list, tuple)) \
                or not all(_is_int(v) and v >= 1 for v in self.lengths):
            raise ValueError(f"spec lengths must be a list of integers >= 1, "
                             f"got {self.lengths!r}")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "lengths", tuple(int(v) for v in self.lengths))


def _is_int(value):
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def generate(spec):
    """Exact ancestral sampling for the named family; returns
    (data, true_latents, true_params). Deterministic given spec.seed. The
    params of a model family other than lda take its model-file JSON form."""
    rng = RandomSource(spec.seed)
    fam = spec.family
    p = spec.params
    if fam == "lda":
        hyper = pkg.lda.LdaHyper(np.asarray(p["alpha"], dtype=float),
                                 np.asarray(p["beta"], dtype=float),
                                 int(p["K"]), int(p["V"]))
        corpus, latents = pkg.lda.generate_corpus(hyper, spec.lengths, rng)
        return corpus, latents, hyper
    if fam == "blobs2d":
        sep = float(p.get("separation", 10.0))
        fam, p = "gmm", {"weights": [0.5, 0.5], "means": [[0.0, 0.0], [sep, 0.0]],
                         "covs": [np.eye(2), np.eye(2)]}
    if fam in families.FAMILIES:
        params = families.FAMILIES[fam].from_json(p)
    if fam == "ppca":
        Z = rng.standard_normal((spec.n, params.latent_dim))
        X = Z @ params.W.T + params.mu \
            + np.sqrt(params.sigma2) * rng.standard_normal((spec.n, params.data_dim))
        return X, {"latents": Z}, params
    if fam == "gmm":
        X, z = pkg.mixture.gmm_sample(params, spec.n, rng)
        return X, {"assignments": z}, params
    if fam == "lca":
        X, z = pkg.mixture.lca_sample(params, spec.n, rng)
        return X, {"assignments": z}, params
    if fam == "irt":
        X, theta = pkg.irt.sample(params, spec.n, rng)
        return X, {"abilities": theta}, params
    if fam in ("hmm", "ghmm", "lds"):
        sample = pkg.sequential.lds_sample if fam == "lds" else pkg.sequential.hmm_sample
        paths, seqs = [], []
        for T in spec.lengths:
            states, obs = sample(params, T, rng)
            paths.append(states)
            seqs.append(obs)
        return seqs, {"states": paths}, params
    if fam == "mixture1d":
        weights = np.asarray(p.get("weights", [0.5, 0.5]), dtype=float)
        means = np.asarray(p.get("means", [-2.0, 2.0]), dtype=float)
        sds = np.asarray(p.get("sds", [0.5, 0.5]), dtype=float)
        z = sample_categorical_many(weights, rng, spec.n)
        X = (means[z] + sds[z] * rng.standard_normal(spec.n))[:, None]
        return X, {"assignments": z}, {"weights": weights, "means": means, "sds": sds}
    raise ValueError(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# CSV and sequence I/O

def write_csv(path, data, header=None):
    """A header row, then one row of 17-significant-digit values per row of data."""
    X = np.atleast_2d(np.asarray(data, dtype=float))
    n, d = X.shape
    cols = header or [f"x{j}" for j in range(d)]
    row = ",".join([FMT] * d) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(cols) + "\n" + (row * n) % tuple(X.ravel().tolist()))


def _lines(path):
    """The non-blank lines of a text file, any newline convention; a file
    with none is an error."""
    with open(path, "r", newline="") as fh:
        raw = fh.read()
    lines = [ln for ln in raw.replace("\r\n", "\n").replace("\r", "\n").split("\n") if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty file")
    return lines


def read_csv(path):
    """The data rows of a CSV under a header row, as an (n, width) float array
    ((0,) when there are none). numpy's C parser reads a well-formed file; any
    other goes through the line parser, which names the line at fault."""
    lines = _lines(path)
    width = len(lines[0].split(","))
    data = lines[1:]
    text = "\n".join(data)
    if data and not any(c in text for c in _LOADTXT_ONLY_SPACE):
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
    """Returns (sequences, dx) where dx is None for discrete files."""
    lines = _lines(path)
    dx = None
    start = 0
    if lines[0].startswith("dx="):
        dx = int(lines[0][3:])
        start = 1
    seqs = []
    for lineno, line in enumerate(lines[start:], start=start + 1):
        try:
            if dx is None:
                seqs.append(np.array([int(v) for v in line.split()], dtype=int))
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
    docs = []
    for lineno, line in enumerate(_lines(path), start=1):
        try:
            docs.append(np.array([int(v) for v in line.split()], dtype=int))
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: malformed word index")
    if V is None:
        V = int(max(d.max() for d in docs)) + 1
    return pkg.lda.Corpus(tuple(docs), V)


# ---------------------------------------------------------------------------
# Model files: versioned JSON; each family's record gives its parameters'
# canonical JSON form

def _family(family, verb):
    if family not in families.FAMILIES:
        raise ValueError(f"cannot {verb} family {family!r}")
    return families.FAMILIES[family]


def write_model(path, family, params, config=None):
    doc = {"schema": MODEL_SCHEMA, "family": family,
           "rng_algorithm": RNG_ALGORITHM,
           "params": _family(family, "serialize").to_json(params),
           "config": config or {}}
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


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
