"""`datasets.generate` draws each model family through its record's
`sample_latents`, and `synth` writes through the input-kind table. This file
holds the per-family ladders they replaced, copied as they were written
before, and checks that every synthetic family draws the same data, latents
and true parameters byte for byte, and that `synth` writes the same bytes
for one family of each input kind.
"""
import dataclasses
import json

import numpy as np
import pytest

import latentlab as pkg
from latentlab import datasets, families
from latentlab.cli import main
from latentlab.core import RandomSource, sample_categorical_many

# ---------------------------------------------------------------------------
# Reference copies


def ref_generate(spec):
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


def ref_synth(spec, out):
    data, _latents, _true = ref_generate(spec)
    kind = families.FAMILIES[spec.family].input if spec.family in families.FAMILIES \
        else "matrix"
    if kind == "corpus":
        datasets.write_corpus(out, data)
    elif kind == "matrix":
        datasets.write_csv(out, np.asarray(data, dtype=float))
    else:
        datasets.write_seq(out, data, dx=data[0].shape[1] if kind == "real_seq" else None)


# ---------------------------------------------------------------------------

SPECS = {
    "ppca": ({"W": [[1.0, 0.5], [0.2, -0.3], [0.0, 1.0]], "mu": [1.0, -1.0, 0.5],
              "sigma2": 0.3}, {"n": 40}),
    "gmm": ({"weights": [0.3, 0.7], "means": [[0.0, 0.0], [3.0, 1.0]],
             "covs": [[[1.0, 0.2], [0.2, 0.5]], [[0.4, 0.0], [0.0, 2.0]]]}, {"n": 40}),
    "lca": ({"weights": [0.4, 0.6],
             "item_probs": [[[0.2, 0.8], [0.7, 0.3]],
                            [[0.1, 0.3, 0.6], [0.5, 0.25, 0.25]]]}, {"n": 40}),
    "irt": ({"a": [0.8, 1.5, 1.0], "b": [-0.5, 0.0, 0.7]}, {"n": 40}),
    "lda": ({"alpha": [0.5, 0.5, 0.5], "beta": [0.3] * 6, "K": 3, "V": 6},
            {"lengths": [5, 9, 1, 7]}),
    "hmm": ({"pi": [0.6, 0.4], "trans": [[0.8, 0.2], [0.3, 0.7]],
             "emit": [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]}, {"lengths": [6, 1, 12]}),
    "ghmm": ({"pi": [0.6, 0.4], "trans": [[0.8, 0.2], [0.3, 0.7]],
              "means": [[0.0, 1.0], [2.0, -1.0]],
              "covs": [[[1.0, 0.3], [0.3, 0.5]], [[0.2, 0.0], [0.0, 0.0]]]},
             {"lengths": [6, 1, 12]}),
    "lds": ({"A": [[0.9, 0.1], [0.0, 0.8]], "C": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
             "Q": [[0.1, 0.0], [0.0, 0.2]], "R": [[0.3, 0.0, 0.0], [0.0, 0.2, 0.0],
                                                  [0.0, 0.0, 0.1]],
             "mu0": [0.0, 1.0], "Sigma0": [[1.0, 0.0], [0.0, 1.0]]},
            {"lengths": [5, 1, 8]}),
    "mixture1d": ({"weights": [0.2, 0.8], "means": [-1.0, 3.0], "sds": [0.5, 2.0]},
                  {"n": 30}),
    "blobs2d": ({"separation": 4.0}, {"n": 30}),
}


def _spec(family, seed):
    params, sizes = SPECS[family]
    return datasets.SyntheticSpec(family, params, seed=seed, **sizes)


def assert_same(got, want):
    """Equal type, structure and bytes, all the way down."""
    assert type(got) is type(want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    elif dataclasses.is_dataclass(want):
        for f in dataclasses.fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name))
    elif isinstance(want, dict):
        assert list(got) == list(want)
        for key in want:
            assert_same(got[key], want[key])
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert_same(a, b)
    else:
        assert got == want


def test_specs_cover_every_synthetic_family():
    assert set(SPECS) == set(datasets.SYNTHETIC_FAMILIES)


@pytest.mark.parametrize("seed", [0, 17])
@pytest.mark.parametrize("family", sorted(SPECS))
def test_generate_matches_reference(family, seed):
    spec = _spec(family, seed)
    assert_same(datasets.generate(spec), ref_generate(spec))


@pytest.mark.parametrize("family", ["gmm", "hmm", "lds", "lda"])
def test_synth_files_match_reference(tmp_path, family):
    spec = _spec(family, 3)
    doc = {"family": family, "params": spec.params, "n": spec.n,
           "lengths": list(spec.lengths), "seed": spec.seed}
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    assert main(["synth", str(tmp_path / "spec.json"), "--out", str(tmp_path / "got")]) == 0
    ref_synth(spec, tmp_path / "want")
    assert (tmp_path / "got").read_bytes() == (tmp_path / "want").read_bytes()
