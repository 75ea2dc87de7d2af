import json

import numpy as np
import pytest

from latentlab.cli import main
from latentlab.core import RandomSource
from latentlab.datasets import (KINDS, SYNTHETIC_FAMILIES, SyntheticSpec, generate,
                                read_corpus, read_csv, read_model, read_seq, write_corpus,
                                write_csv, write_model, write_seq)
from latentlab.families import FAMILIES
from latentlab.mixture import GmmParams
from latentlab.ppca import PpcaParams
from latentlab.sequential import DiscreteEmission, HmmParams, LdsParams
from test_generate_reference import SPECS


def test_gmm_single_component_mean(tmp_path):
    spec = SyntheticSpec("gmm", {"weights": [1.0], "means": [[2.0, -1.0]],
                                 "covs": [np.eye(2).tolist()]}, n=20_000, seed=0)
    X, latents, params = generate(spec)
    assert np.allclose(X.mean(axis=0), [2.0, -1.0], atol=0.03)
    assert set(latents["assignments"]) == {0}


def test_hmm_identity_transition_constant_path():
    spec = SyntheticSpec("hmm", {"pi": [0.0, 1.0], "trans": np.eye(2).tolist(),
                                 "emit": [[0.5, 0.5], [0.1, 0.9]]},
                         lengths=(50,), seed=1)
    _seqs, latents, _params = generate(spec)
    assert set(latents["states"][0]) == {1}


def test_lds_autocorrelation():
    spec = SyntheticSpec("lds", {"A": [[0.9]], "C": [[1.0]], "Q": [[0.19]],
                                 "R": [[1e-6]], "mu0": [0.0], "Sigma0": [[1.0]]},
                         lengths=(20_000,), seed=2)
    _seqs, latents, _params = generate(spec)
    z = latents["states"][0][:, 0]
    lag1 = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert abs(lag1 - 0.9) < 0.02


def test_generate_deterministic():
    spec = SyntheticSpec("blobs2d", {"separation": 8.0}, n=50, seed=3)
    X1, _, _ = generate(spec)
    X2, _, _ = generate(spec)
    assert np.array_equal(X1, X2)


def test_every_family_reads_a_kind_in_the_table():
    assert {rec.input for rec in FAMILIES.values()} <= set(KINDS)
    assert set(SYNTHETIC_FAMILIES.values()) <= set(KINDS)
    for name, kind in SYNTHETIC_FAMILIES.items():
        assert name not in FAMILIES or FAMILIES[name].input == kind


@pytest.mark.parametrize("family", sorted(SYNTHETIC_FAMILIES))
def test_synth_output_reads_back_as_generated(tmp_path, family):
    params, sizes = SPECS[family]
    doc = dict(family=family, params=params, seed=5, **sizes)
    (tmp_path / "spec.json").write_text(json.dumps(doc))
    out = str(tmp_path / "synth.out")
    assert main(["synth", str(tmp_path / "spec.json"), "--out", out]) == 0
    drawn, _latents, _true = generate(SyntheticSpec(**doc))
    back = KINDS[SYNTHETIC_FAMILIES[family]].read(out, family, None)
    if family == "lda":
        drawn, back = drawn.docs, back.docs
    if isinstance(drawn, np.ndarray):
        drawn, back = [drawn], [back]
    assert len(back) == len(drawn)
    for got, want in zip(back, drawn):
        assert np.array_equal(got, want) and got.shape == want.shape


def test_generate_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        SyntheticSpec("mystery", {}, n=10)


def test_csv_round_trip_bitwise(tmp_path):
    X = RandomSource(4).standard_normal((20, 3)) * np.pi
    path = tmp_path / "data.csv"
    write_csv(path, X)
    back = read_csv(path)
    assert np.array_equal(back, X)


def test_csv_crlf_and_lf_parse_identically(tmp_path):
    X = RandomSource(5).standard_normal((5, 2))
    p1 = tmp_path / "lf.csv"
    write_csv(p1, X)
    raw = open(p1).read()
    p2 = tmp_path / "crlf.csv"
    with open(p2, "w", newline="") as fh:
        fh.write(raw.replace("\n", "\r\n"))
    assert np.array_equal(read_csv(p1), read_csv(p2))


def test_csv_malformed_line_number(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x0,x1\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_csv(p)


def test_seq_round_trip_discrete(tmp_path):
    seqs = [np.array([0, 1, 2, 1]), np.array([2, 2])]
    p = tmp_path / "seq.txt"
    write_seq(p, seqs)
    back, dx = read_seq(p)
    assert dx is None
    assert all(np.array_equal(a, b) for a, b in zip(seqs, back))


def test_seq_round_trip_continuous(tmp_path):
    seqs = [RandomSource(6).standard_normal((4, 2)), RandomSource(7).standard_normal((2, 2))]
    p = tmp_path / "seq.txt"
    write_seq(p, seqs, dx=2)
    back, dx = read_seq(p)
    assert dx == 2
    assert all(np.array_equal(a, b) for a, b in zip(seqs, back))


def test_corpus_round_trip(tmp_path):
    from latentlab.lda import Corpus
    corpus = Corpus((np.array([0, 3, 1]), np.array([2])), 4)
    p = tmp_path / "corpus.txt"
    write_corpus(p, corpus)
    back = read_corpus(p, V=4)
    assert all(np.array_equal(a, b) for a, b in zip(corpus.docs, back.docs))


def test_model_round_trip_ppca(tmp_path):
    rng = RandomSource(8)
    params = PpcaParams(rng.standard_normal((4, 2)), rng.standard_normal(4), 0.37)
    p = tmp_path / "model.json"
    write_model(p, "ppca", params, {"seed": 1})
    family, loaded, config = read_model(p)
    assert family == "ppca"
    assert config == {"seed": 1}
    # canonicalized on write: identical marginal covariance
    cov_a = params.W @ params.W.T + params.sigma2 * np.eye(4)
    cov_b = loaded.W @ loaded.W.T + loaded.sigma2 * np.eye(4)
    assert np.allclose(cov_a, cov_b, atol=1e-12)
    # second write is byte-identical (canonical ordering)
    p2 = tmp_path / "model2.json"
    write_model(p2, "ppca", loaded, {"seed": 1})
    assert p.read_bytes() == p2.read_bytes()


def test_model_round_trip_gmm_canonical_order(tmp_path):
    params = GmmParams([0.3, 0.7], [[5.0, 0.0], [0.0, 0.0]],
                       [np.eye(2).tolist(), np.eye(2).tolist()])
    p = tmp_path / "m.json"
    write_model(p, "gmm", params)
    _fam, loaded, _cfg = read_model(p)
    norms = np.linalg.norm(loaded.means, axis=1)
    assert np.all(np.diff(norms) >= 0)


def test_model_round_trip_hmm(tmp_path):
    params = HmmParams([0.4, 0.6], [[0.9, 0.1], [0.3, 0.7]],
                       DiscreteEmission([[0.8, 0.2], [0.5, 0.5]]))
    p = tmp_path / "m.json"
    write_model(p, "hmm", params)
    fam, loaded, _cfg = read_model(p)
    assert fam == "hmm"
    assert np.allclose(loaded.trans.sum(axis=1), 1.0)


def test_model_round_trip_lds(tmp_path):
    params = LdsParams([[0.5]], [[1.0]], [[0.1]], [[0.2]], [0.0], [[1.0]])
    p = tmp_path / "m.json"
    write_model(p, "lds", params)
    _fam, loaded, _cfg = read_model(p)
    assert np.array_equal(loaded.A, params.A)
    assert np.array_equal(loaded.R, params.R)


def test_model_round_trip_deep_families(tmp_path):
    from latentlab.vae import make_vae, sample as vae_sample
    from latentlab.flow import make_coupling_stack, log_likelihood
    from latentlab.diffusion import make_diffusion, sample as diff_sample
    from latentlab.arm import make_ar_model, log_likelihood_batch
    from latentlab.gan import make_gan, sample as gan_sample

    vae = make_vae(3, 1, RandomSource(9))
    p = tmp_path / "vae.json"
    write_model(p, "vae", vae)
    _f, vae2, _c = read_model(p)
    assert np.array_equal(vae_sample(vae, 5, RandomSource(1)),
                          vae_sample(vae2, 5, RandomSource(1)))

    flow = make_coupling_stack(2, 3, RandomSource(10))
    p = tmp_path / "flow.json"
    write_model(p, "flow", flow)
    _f, flow2, _c = read_model(p)
    X = RandomSource(11).standard_normal((4, 2))
    assert np.array_equal(log_likelihood(flow, X), log_likelihood(flow2, X))

    diff = make_diffusion(1, RandomSource(12), T=10)
    p = tmp_path / "diff.json"
    write_model(p, "diffusion", diff)
    _f, diff2, _c = read_model(p)
    assert np.array_equal(diff_sample(diff, 4, RandomSource(2)),
                          diff_sample(diff2, 4, RandomSource(2)))

    ar = make_ar_model(3, 2, RandomSource(13))
    p = tmp_path / "ar.json"
    write_model(p, "arm", ar)
    _f, ar2, _c = read_model(p)
    seqs = np.array([[0, 1, 0], [1, 1, 1]])
    assert np.array_equal(log_likelihood_batch(ar, seqs), log_likelihood_batch(ar2, seqs))

    gan = make_gan(1, 2, RandomSource(14))
    p = tmp_path / "gan.json"
    write_model(p, "gan", gan)
    _f, gan2, _c = read_model(p)
    assert np.array_equal(gan_sample(gan, 5, RandomSource(3)),
                          gan_sample(gan2, 5, RandomSource(3)))


def test_model_schema_check(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"schema": "other", "family": "gmm", "params": {}}')
    with pytest.raises(ValueError, match="schema"):
        read_model(p)


def _round_trip(tmp_path, family, params):
    """Write, read and write again: both files must be byte-identical."""
    a, b = tmp_path / f"{family}_a.json", tmp_path / f"{family}_b.json"
    write_model(a, family, params, {"seed": 2})
    fam, loaded, config = read_model(a)
    assert fam == family and config == {"seed": 2}
    write_model(b, family, loaded, {"seed": 2})
    assert a.read_bytes() == b.read_bytes()
    return loaded


def test_model_round_trip_lca(tmp_path):
    from latentlab.mixture import LcaParams, lca_loglik
    params = LcaParams([0.3, 0.7], ([[0.2, 0.8], [0.9, 0.1]],
                                    [[0.1, 0.3, 0.6], [0.5, 0.25, 0.25]]))
    loaded = _round_trip(tmp_path, "lca", params)
    X = np.array([[0, 2], [1, 0], [1, 1]])
    assert lca_loglik(loaded, X) == pytest.approx(lca_loglik(params, X), rel=1e-15)


def test_model_round_trip_irt(tmp_path):
    from latentlab.irt import IrtParams
    params = IrtParams([0.8, 1.5, 0.0], [-0.5, 0.25, 1.0])
    loaded = _round_trip(tmp_path, "irt", params)
    assert np.array_equal(loaded.a, params.a) and np.array_equal(loaded.b, params.b)


def test_model_round_trip_lda(tmp_path):
    from latentlab.lda import LdaHyper
    model = {"hyper": LdaHyper(np.array([0.5, 1.5]), np.full(4, 0.1), 2, 4),
             "doc_topic": np.array([[1.5, 2.0], [3.25, 0.5], [1.0, 1.0]]),
             "topic_word": np.array([[1.0, 2.0, 3.0, 0.5], [0.25, 4.0, 1.0, 2.0]])}
    loaded = _round_trip(tmp_path, "lda", model)
    assert loaded.keys() == model.keys()
    for name in ("doc_topic", "topic_word"):
        assert np.array_equal(loaded[name], model[name])
    for name in ("alpha", "beta", "K", "V"):
        assert np.array_equal(getattr(loaded["hyper"], name), getattr(model["hyper"], name))


def test_model_round_trip_ghmm(tmp_path):
    from latentlab.sequential import GaussianEmission, hmm_loglik
    params = HmmParams([0.4, 0.6], [[0.9, 0.1], [0.3, 0.7]],
                       GaussianEmission([[3.0, 0.0], [0.0, 1.0]],
                                        [np.eye(2), [[2.0, 0.5], [0.5, 1.0]]]))
    loaded = _round_trip(tmp_path, "ghmm", params)
    obs = np.array([[0.1, 0.9], [2.5, -0.2], [0.0, 1.4]])
    assert hmm_loglik(loaded, [obs]) == pytest.approx(hmm_loglik(params, [obs]), rel=1e-14)
