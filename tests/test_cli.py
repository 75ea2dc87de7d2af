import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import latentlab
from latentlab import cli, datasets, irt
from latentlab.cli import main
from latentlab.core import RandomSource
from latentlab.datasets import (SyntheticSpec, generate, read_csv, write_csv,
                                write_seq, write_corpus, read_model)
from latentlab.em import FitReport
from latentlab.mixture import gmm_loglik


@pytest.fixture
def blobs_csv(tmp_path):
    spec = SyntheticSpec("blobs2d", {"separation": 10.0}, n=200, seed=7)
    X, _, _ = generate(spec)
    path = tmp_path / "blobs.csv"
    write_csv(path, X)
    return path, X


def test_fit_gmm_deterministic_outputs(tmp_path, blobs_csv):
    data, _X = blobs_csv
    out1 = tmp_path / "m1.json"
    out2 = tmp_path / "m2.json"
    args = ["fit", "gmm", "--data", str(data), "--k", "2", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    t1 = (tmp_path / "m1.json.trace.csv").read_bytes()
    t2 = (tmp_path / "m2.json.trace.csv").read_bytes()
    assert t1 == t2
    # trace objective column is non-decreasing
    rows = [line.split(",") for line in t1.decode().strip().split("\n")[1:]]
    objs = [float(r[1]) for r in rows]
    assert all(b >= a - 1e-8 for a, b in zip(objs, objs[1:]))


def test_eval_dominates_truth_on_training_data(tmp_path, blobs_csv):
    data, X = blobs_csv
    out = tmp_path / "m.json"
    assert main(["fit", "gmm", "--data", str(data), "--k", "2", "--seed", "3",
                 "--out", str(out)]) == 0
    _fam, fitted, _cfg = read_model(out)
    from latentlab.mixture import GmmParams
    truth = GmmParams([0.5, 0.5], [[0.0, 0.0], [10.0, 0.0]],
                      [np.eye(2).tolist(), np.eye(2).tolist()])
    assert gmm_loglik(fitted, X) >= gmm_loglik(truth, X) - 1e-6 * X.shape[0]


def test_eval_prints_per_point_and_total(tmp_path, blobs_csv, capsys):
    data, X = blobs_csv
    out = tmp_path / "m.json"
    main(["fit", "gmm", "--data", str(data), "--k", "2", "--seed", "3", "--out", str(out)])
    assert main(["eval", str(out), "--data", str(data)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == X.shape[0] + 1
    assert lines[-1].startswith("total ")
    total = float(lines[-1].split()[1])
    assert total == pytest.approx(sum(float(v) for v in lines[:-1]), rel=1e-12)


def test_infer_ppca_centered_row_is_zero(tmp_path):
    rng = RandomSource(11)
    W = rng.standard_normal((3, 2))
    Z = rng.standard_normal((300, 2))
    X = Z @ W.T + 0.1 * rng.standard_normal((300, 3))
    data = tmp_path / "x.csv"
    write_csv(data, X)
    model = tmp_path / "ppca.json"
    assert main(["fit", "ppca", "--data", str(data), "--latent-dim", "2",
                 "--seed", "5", "--out", str(model)]) == 0
    probe = tmp_path / "probe.csv"
    write_csv(probe, X.mean(axis=0)[None, :])
    out = tmp_path / "z.csv"
    assert main(["infer", str(model), "--data", str(probe), "--out", str(out)]) == 0
    z = read_csv(out)
    assert np.allclose(z, 0.0, atol=1e-10)


def test_reconstruct_ppca(tmp_path):
    rng = RandomSource(12)
    X = rng.standard_normal((100, 3))
    data = tmp_path / "x.csv"
    write_csv(data, X)
    model = tmp_path / "m.json"
    main(["fit", "ppca", "--data", str(data), "--latent-dim", "1", "--seed", "1",
          "--out", str(model)])
    out = tmp_path / "r.csv"
    assert main(["reconstruct", str(model), "--data", str(data), "--out", str(out)]) == 0
    assert read_csv(out).shape == X.shape


def test_sample_command_determinism(tmp_path, blobs_csv):
    data, _X = blobs_csv
    model = tmp_path / "m.json"
    main(["fit", "gmm", "--data", str(data), "--k", "2", "--seed", "3", "--out", str(model)])
    s1 = tmp_path / "s1.csv"
    s2 = tmp_path / "s2.csv"
    assert main(["sample", str(model), "--n", "50", "--seed", "9", "--out", str(s1)]) == 0
    assert main(["sample", str(model), "--n", "50", "--seed", "9", "--out", str(s2)]) == 0
    assert s1.read_bytes() == s2.read_bytes()


def test_synth_command(tmp_path):
    spec = {"family": "blobs2d", "params": {"separation": 6.0}, "n": 30, "seed": 4}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "synth.csv"
    assert main(["synth", str(spec_path), "--out", str(out)]) == 0
    assert read_csv(out).shape == (30, 2)


def test_usage_errors_exit_2(tmp_path):
    assert main(["fit", "gmm", "--data", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "m.json")]) == 2
    assert main(["fit", "mystery", "--data", "x", "--out", "y"]) == 2
    assert main([]) == 2


def test_numeric_failure_exit_1(tmp_path):
    # two identical rows cannot support a 2-component fit with K > N
    data = tmp_path / "tiny.csv"
    write_csv(data, np.zeros((1, 2)))
    rc = main(["fit", "gmm", "--data", str(data), "--k", "2", "--seed", "0",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2          # validation error: fewer points than components


def test_config_file_with_flag_override(tmp_path, blobs_csv):
    data, _X = blobs_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 2, "seed": 3}))
    out = tmp_path / "m.json"
    assert main(["fit", "gmm", "--data", str(data), "--out", str(out),
                 "--config", str(cfg)]) == 0
    _fam, _params, config = read_model(out)
    assert config["k"] == 2
    assert config["seed"] == 3
    # explicit flag wins over the config value
    out2 = tmp_path / "m2.json"
    assert main(["fit", "gmm", "--data", str(data), "--out", str(out2),
                 "--config", str(cfg), "--seed", "4"]) == 0
    _fam, _params, config2 = read_model(out2)
    assert config2["seed"] == 4


def test_config_rejects_unknown_keys(tmp_path, blobs_csv):
    data, _X = blobs_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery_key": 1}))
    assert main(["fit", "gmm", "--data", str(data), "--out", str(tmp_path / "m.json"),
                 "--config", str(cfg)]) == 2


def test_arm_config_rejects_seq_len(tmp_path, capsys):
    # an ARM model's sequence length is its data's width; no flag sets it
    data, cfg = tmp_path / "codes.csv", tmp_path / "cfg.json"
    write_csv(data, RandomSource(16).integers(0, 3, (30, 4)).astype(float))
    cfg.write_text(json.dumps({"seq_len": 4}))
    out = tmp_path / "m.json"
    assert main(["fit", "arm", "--data", str(data), "--out", str(out), "--epochs", "1",
                 "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == "latentlab: unknown config keys: seq_len\n"
    assert not out.exists()


def test_abbreviated_flag_overrides_config(tmp_path, blobs_csv):
    data, _X = blobs_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_iters": 3, "seed": 3}))
    out = tmp_path / "m.json"
    assert main(["fit", "gmm", "--data", str(data), "--out", str(out),
                 "--config", str(cfg), "--max", "7"]) == 0
    _fam, _params, config = read_model(out)
    assert config["max_iters"] == 7 and config["seed"] == 3


@pytest.mark.parametrize("config", [{"k": "x"}, {"k": 2.5}, {"max_iters": None},
                                    {"rel_tol": "a"}])
def test_config_values_take_their_flag_type(config, tmp_path, blobs_csv, capsys):
    data, _X = blobs_csv
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "m.json"
    capsys.readouterr()
    assert main(["fit", "gmm", "--data", str(data), "--out", str(out),
                 "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    key = next(iter(config))
    assert "Traceback" not in err and err.startswith(f"latentlab: config key {key!r}")
    assert not out.exists()


def test_synth_rejects_bad_sizes_naming_the_field(tmp_path, capsys):
    hmm = {"pi": [0.5, 0.5], "trans": [[0.9, 0.1], [0.1, 0.9]],
           "emit": [[0.5, 0.5], [0.1, 0.9]]}
    cases = [({"family": "blobs2d", "n": "x"}, "n"), ({"family": "blobs2d", "n": 2.5}, "n"),
             ({"family": "blobs2d", "n": -3}, "n"),
             ({"family": "hmm", "params": hmm, "lengths": 5}, "lengths"),
             ({"family": "hmm", "params": hmm, "lengths": [4, 0]}, "lengths")]
    spec = tmp_path / "spec.json"
    out = tmp_path / "out.csv"
    for doc, field in cases:
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["synth", str(spec), "--out", str(out)]) == 2, doc
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith(f"latentlab: spec {field} must be")
    assert not out.exists()


def test_synth_rejects_specs_that_draw_nothing(tmp_path, capsys):
    hmm = {"pi": [0.5, 0.5], "trans": [[0.9, 0.1], [0.1, 0.9]],
           "emit": [[0.5, 0.5], [0.1, 0.9]]}
    lds = {"A": [[0.9]], "C": [[1.0]], "Q": [[0.19]], "R": [[0.1]], "mu0": [0.0],
           "Sigma0": [[1.0]]}
    gmm = {"weights": [1.0], "means": [[0.0]], "covs": [[[1.0]]]}
    lda = {"alpha": [1.0, 1.0], "beta": [1.0] * 4, "K": 2, "V": 4}
    cases = [({"family": "lds", "params": lds}, "lengths"),
             ({"family": "hmm", "params": hmm}, "lengths"),
             ({"family": "gmm", "params": gmm, "n": 0}, "n"),
             ({"family": "lda", "params": lda}, "lengths")]
    spec = tmp_path / "spec.json"
    out = tmp_path / "out.txt"
    for doc, field in cases:
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["synth", str(spec), "--out", str(out)]) == 2, doc
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.startswith(f"latentlab: spec {field} must be")
    assert not out.exists()


def test_entries_above_the_magnitude_bound_are_usage_errors(tmp_path):
    X = RandomSource(3).standard_normal((50, 2))
    X[6, 1] = 1e200
    matrix = tmp_path / "big.csv"
    write_csv(matrix, X)
    seqs = tmp_path / "big.seq"
    write_seq(seqs, [X[20:], X[:20]], dx=2)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(latentlab.__file__)))
    for family, data, where in (("gmm", matrix, f"{matrix}: data row 7, column 2"),
                                ("lds", seqs, f"{seqs}: sequence 2, row 7, column 2")):
        proc = subprocess.run([sys.executable, "-m", "latentlab", "fit", family, "--data",
                               str(data), "--out", str(tmp_path / "m.json")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, family
        assert proc.stderr.startswith(f"latentlab: {where}: magnitude above"), proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "m.json").exists()
    X[6, 1] = -datasets.MAX_ABS
    write_csv(matrix, X)
    assert datasets.read_matrix(str(matrix)).tobytes() == X.tobytes()


def test_hmm_cli_round_trip(tmp_path):
    spec = SyntheticSpec("hmm", {"pi": [0.5, 0.5],
                                 "trans": [[0.9, 0.1], [0.2, 0.8]],
                                 "emit": [[0.9, 0.1], [0.1, 0.9]]},
                         lengths=(300,), seed=5)
    seqs, _, _ = generate(spec)
    data = tmp_path / "seq.txt"
    write_seq(data, seqs)
    model = tmp_path / "hmm.json"
    assert main(["fit", "hmm", "--data", str(data), "--k", "2", "--seed", "2",
                 "--out", str(model)]) == 0
    out = tmp_path / "post.csv"
    assert main(["infer", str(model), "--data", str(data), "--out", str(out)]) == 0
    post = read_csv(out)
    assert post.shape == (300, 2)
    assert np.allclose(post.sum(axis=1), 1.0, atol=1e-9)


def test_lda_cli(tmp_path):
    from latentlab.lda import LdaHyper, generate_corpus
    hyper = LdaHyper(np.full(2, 1.0), np.full(5, 1.0), 2, 5)
    corpus, _ = generate_corpus(hyper, [20] * 6, RandomSource(6))
    data = tmp_path / "corpus.txt"
    write_corpus(data, corpus)
    model = tmp_path / "lda.json"
    assert main(["fit", "lda", "--data", str(data), "--k", "2", "--vocab", "5",
                 "--seed", "3", "--max-iters", "30", "--out", str(model)]) == 0
    fam, params, _cfg = read_model(model)
    assert fam == "lda"
    assert params.topic_word.shape == (2, 5)


def test_blank_corpus_is_usage_error(tmp_path, capsys):
    from latentlab.lda import LdaHyper, generate_corpus
    corpus, _ = generate_corpus(LdaHyper(np.ones(2), np.ones(4), 2, 4), [10] * 4,
                                RandomSource(6))
    data = tmp_path / "corpus.txt"
    write_corpus(data, corpus)
    model = tmp_path / "lda.json"
    assert main(["fit", "lda", "--data", str(data), "--k", "2", "--vocab", "4",
                 "--max-iters", "5", "--out", str(model)]) == 0
    blank = tmp_path / "blank.txt"
    blank.write_text("\n  \n\t\n")
    empty_model = tmp_path / "empty.json"
    capsys.readouterr()
    for argv in (["fit", "lda", "--data", str(blank), "--vocab", "4", "--out", str(empty_model)],
                 ["eval", str(model), "--data", str(blank)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "empty file" in err and "Traceback" not in err
    assert not empty_model.exists()
    assert not (tmp_path / "empty.json.trace.csv").exists()


def test_numeric_failure_exit_code_1(tmp_path):
    # an LDS with C = 0 and R = 0 has an exactly singular innovation
    # covariance: eval must fail numerically with exit code 1
    from latentlab.datasets import write_model, write_seq
    from latentlab.sequential import LdsParams
    bad = LdsParams([[0.9]], [[0.0]], [[0.1]], [[0.0]], [0.0], [[1.0]])
    model = tmp_path / "bad.json"
    write_model(model, "lds", bad)
    data = tmp_path / "obs.txt"
    write_seq(data, [np.ones((5, 1))], dx=1)
    assert main(["eval", str(model), "--data", str(data)]) == 1


def test_fit_k_zero_is_usage_error_without_traceback(tmp_path, blobs_csv):
    data, _X = blobs_csv
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(latentlab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "latentlab", "fit", "gmm", "--data", str(data),
                           "--k", "0", "--out", str(tmp_path / "m.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert ">= 1" in proc.stderr


# a well-formed data file of each input kind a --k family reads
K_DATA = {"gmm": "x0,x1\n0,1\n2,3\n", "lca": "x0,x1\n0,1\n1,0\n", "lda": "0 1 2\n2 1\n",
          "hmm": "0 1 0 1\n", "ghmm": "dx=1\n0.1 0.5 0.2\n"}


@pytest.mark.parametrize("family", sorted(K_DATA))
def test_fit_k_zero_is_one_count_error(family, tmp_path, capsys):
    # LDA's field is K, the others' k
    data, out = tmp_path / "data", tmp_path / "m.json"
    data.write_text(K_DATA[family])
    assert main(["fit", family, "--data", str(data), "--k", "0", "--out", str(out)]) == 2
    name = "K" if family == "lda" else "k"
    assert capsys.readouterr() == ("", f"latentlab: {name} must be >= 1, got 0\n")
    assert not out.exists()


@pytest.fixture
def irt_fit_21(tmp_path):
    spec = SyntheticSpec("irt", {"a": [0.8, 1.5, 1.0, 2.0, 0.6],
                                 "b": [-0.5, 0.0, 0.7, 0.2, -1.0]}, n=300, seed=8)
    X, _, _ = generate(spec)
    data = tmp_path / "irt.csv"
    write_csv(data, X)
    model = tmp_path / "irt.json"
    assert main(["fit", "irt", "--data", str(data), "--quad-nodes", "21", "--max-iters", "20",
                 "--seed", "1", "--out", str(model)]) == 0
    _fam, params, config = read_model(model)
    assert config["quad_nodes"] == 21
    return data, model, params, np.asarray(X)


def test_irt_eval_uses_recorded_quadrature(irt_fit_21, capsys):
    data, model, params, X = irt_fit_21
    capsys.readouterr()
    assert main(["eval", str(model), "--data", str(data)]) == 0
    total = float(capsys.readouterr().out.strip().split("\n")[-1].split()[1])
    assert total == pytest.approx(irt.marginal_loglik(params, X, irt.default_quadrature(21)),
                                  rel=1e-12)
    assert total != pytest.approx(irt.marginal_loglik(params, X, irt.default_quadrature()),
                                  rel=1e-12)


def test_irt_infer_matches_per_row_posterior(irt_fit_21, tmp_path):
    data, model, params, X = irt_fit_21
    out = tmp_path / "theta.csv"
    assert main(["infer", str(model), "--data", str(data), "--out", str(out)]) == 0
    rows = read_csv(out)
    quad = irt.default_quadrature(21)
    expected = np.array([irt.posterior_theta(params, x, quad)[:2] for x in X])
    assert rows.shape == (X.shape[0], 2)
    assert np.allclose(rows, expected, rtol=0, atol=1e-12)


def test_irt_infer_rejects_non_binary(irt_fit_21, tmp_path, capsys):
    _data, model, _params, X = irt_fit_21
    bad = tmp_path / "bad.csv"
    write_csv(bad, np.where(X == 1, 2, X))
    assert main(["infer", str(model), "--data", str(bad), "--out", str(tmp_path / "o.csv")]) == 2
    assert "responses must be binary" in capsys.readouterr().err


def test_lca_non_integer_codes_are_usage_errors_without_traceback(tmp_path):
    X = RandomSource(12).integers(0, 3, (60, 4)).astype(float)
    good = tmp_path / "lca.csv"
    write_csv(good, X)
    model = tmp_path / "lca.json"
    assert main(["fit", "lca", "--data", str(good), "--k", "2", "--max-iters", "5",
                 "--out", str(model)]) == 0
    X[7, 2] = 1.7
    bad = tmp_path / "bad.csv"
    write_csv(bad, X)
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(latentlab.__file__)))
    for argv in (["fit", "lca", "--data", str(bad), "--k", "2", "--out", str(tmp_path / "m.json")],
                 ["eval", str(model), "--data", str(bad)],
                 ["infer", str(model), "--data", str(bad), "--out", str(tmp_path / "i.csv")]):
        proc = subprocess.run([sys.executable, "-m", "latentlab"] + argv,
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2, argv
        assert "Traceback" not in proc.stderr
        assert "integer category codes" in proc.stderr
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("family", ["hmm", "ghmm", "lds"])
def test_sequence_eval_and_infer_match_per_sequence_calls(family, tmp_path, capsys):
    from latentlab import sequential as seq
    rng = RandomSource(13)
    lengths = (9, 3, 14, 1 if family != "lds" else 2, 14)
    if family == "hmm":
        true = seq.HmmParams([0.6, 0.4], [[0.8, 0.2], [0.3, 0.7]],
                             seq.DiscreteEmission([[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]))
        seqs = [seq.hmm_sample(true, T, rng)[1] for T in lengths]
        write_seq(tmp_path / "s.seq", seqs)
    elif family == "ghmm":
        true = seq.HmmParams([0.6, 0.4], [[0.8, 0.2], [0.3, 0.7]],
                             seq.GaussianEmission([[-1.0, 0.0], [1.5, 1.0]],
                                                  [np.eye(2), 0.5 * np.eye(2)]))
        seqs = [seq.hmm_sample(true, T, rng)[1] for T in lengths]
        write_seq(tmp_path / "s.seq", seqs, dx=2)
    else:
        true = seq.LdsParams([[0.8, 0.1], [0.0, 0.7]], [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
                             0.2 * np.eye(2), 0.3 * np.eye(3), [0.0, 0.0], np.eye(2))
        seqs = [seq.lds_sample(true, T, rng)[1] for T in lengths]
        write_seq(tmp_path / "s.seq", seqs, dx=3)
    data, model = str(tmp_path / "s.seq"), str(tmp_path / "m.json")
    flags = ["--latent-dim", "2"] if family == "lds" else ["--k", "2"]
    assert main(["fit", family, "--data", data, "--max-iters", "5", "--out", model] + flags) == 0
    _fam, params, _cfg = read_model(model)
    capsys.readouterr()
    assert main(["eval", model, "--data", data]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == len(seqs) + 1 and lines[-1].startswith("total ")
    out = tmp_path / "infer.csv"
    assert main(["infer", model, "--data", data, "--out", str(out)]) == 0
    rows = read_csv(out)
    if family == "lds":
        ref_ll = [seq.kalman_filter(params, s)[4] for s in seqs]
        ref_rows = np.vstack([seq.kalman_smooth(params, s).means for s in seqs])
    else:
        singles = [seq.hmm_forward_backward(params, s) for s in seqs]
        ref_ll = [sm.loglik for sm in singles]
        ref_rows = np.vstack([sm.states for sm in singles])
    for line, ll in zip(lines, ref_ll):
        assert abs(float(line) - ll) < 1e-12 * max(1.0, abs(ll))
    assert rows.shape == ref_rows.shape == (sum(lengths), 2)
    assert np.max(np.abs(rows - ref_rows)) < 1e-12


@pytest.mark.parametrize("family", ["hmm", "lds"])
def test_sample_zero_length_sequence_is_usage_error(family, tmp_path):
    from latentlab import sequential as seq
    if family == "hmm":
        seqs = [seq.hmm_sample(seq.HmmParams([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],
                                             seq.DiscreteEmission([[0.8, 0.2], [0.3, 0.7]])),
                               40, RandomSource(14))[1]]
        write_seq(tmp_path / "s.seq", seqs)
        fit = ["fit", "hmm", "--k", "2"]
    else:
        seqs = [seq.lds_sample(seq.LdsParams([[0.8]], [[1.0]], [[0.2]], [[0.3]], [0.0], [[1.0]]),
                               40, RandomSource(14))[1]]
        write_seq(tmp_path / "s.seq", seqs, dx=1)
        fit = ["fit", "lds", "--latent-dim", "1"]
    model = str(tmp_path / "m.json")
    assert main(fit + ["--data", str(tmp_path / "s.seq"), "--max-iters", "3", "--out", model]) == 0
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(latentlab.__file__)))
    proc = subprocess.run([sys.executable, "-m", "latentlab", "sample", model, "--n", "0",
                           "--out", str(tmp_path / "x.csv")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr


@pytest.fixture
def real_csv(tmp_path):
    path = tmp_path / "real.csv"
    write_csv(path, RandomSource(15).standard_normal((30, 2)))
    return path


DEEP_FAMILIES = ["vae", "flow", "diffusion", "arm", "gan"]
BAD_VALUES = ["0", "-3", "nan", "inf", "-inf"]
# a decoder scale whose square underflows to 0 or overflows
BAD_SIGMA_DEC = ["1e-300", "1e200"]


@pytest.mark.parametrize("value, family", [(v, f) for v in BAD_VALUES for f in DEEP_FAMILIES]
                         + [(v, "vae") for v in BAD_SIGMA_DEC])
def test_deep_fit_rejects_bad_sizes(family, value, tmp_path, real_csv, capsys):
    data = real_csv
    if family == "arm":
        data = tmp_path / "codes.csv"
        write_csv(data, RandomSource(16).integers(0, 3, (30, 4)).astype(float))
    count_flag = "--steps" if family == "gan" else "--epochs"
    size_flags = {"vae": ["--latent-dim"], "flow": ["--layers"], "diffusion": ["--T"],
                  "arm": [], "gan": ["--latent-dim"]}[family]
    count_flags = ["--batch", count_flag, "--hidden"] + size_flags
    flags = (count_flags if value in ("0", "-3") else []) \
        + (["--lr"] if value in BAD_VALUES else []) + (["--sigma-dec"] if family == "vae" else [])
    for flag in flags:
        out = tmp_path / f"{family}{flag}.json"
        assert main(["fit", family, "--data", str(data), "--out", str(out), "--epochs", "1",
                     "--steps", "2", "--hidden", "4", f"{flag}={value}"]) == 2
        err = capsys.readouterr().err
        if flag == "--lr":
            assert err == f"latentlab: lr must be positive and finite, got {float(value)}\n"
        elif flag == "--sigma-dec":
            assert err == (f"latentlab: sigma_dec must be positive and finite, and so must "
                           f"its square, got {float(value)}\n")
        else:
            name = flag.lstrip("-").replace("-", "_")
            assert err == f"latentlab: {name} must be >= 1, got {value}\n"
        assert not out.exists()
        assert not (tmp_path / f"{family}{flag}.json.trace.csv").exists()


@pytest.mark.parametrize("family", ["vae", "flow", "diffusion", "arm", "gan"])
def test_fit_writes_no_model_holding_nan(family, tmp_path, real_csv, capsys, monkeypatch):
    # a trainer that leaves a NaN parameter behind: the fit is refused at
    # the model writer, with exit 1 and no file
    import latentlab
    data = real_csv
    if family == "arm":
        data = tmp_path / "codes.csv"
        write_csv(data, RandomSource(16).integers(0, 3, (30, 4)).astype(float))
    module = getattr(latentlab, family)
    trainer = "fit" if family == "flow" else "train"
    real_train = getattr(module, trainer)

    def poisoned(model, *args, **kwargs):
        trace = real_train(model, *args, **kwargs)
        params = model.gen.params() if family == "gan" else model.params()
        params[0].values = np.full_like(params[0].values, np.nan)
        return trace
    monkeypatch.setattr(module, trainer, poisoned)
    out = tmp_path / "m.json"
    assert main(["fit", family, "--data", str(data), "--out", str(out), "--epochs", "1",
                 "--steps", "2", "--hidden", "4"]) == 1
    err = capsys.readouterr().err
    assert err == (f"latentlab: numeric failure: {out}: the {family} model holds a "
                   "non-finite number; no model file written\n")
    assert not out.exists()
    assert not (tmp_path / "m.json.trace.csv").exists()


@pytest.mark.parametrize("error, text", [(ZeroDivisionError, "float division by zero"),
                                         (OverflowError, "math range error")])
def test_an_arithmetic_error_is_one_numeric_failure(error, text, tmp_path, capsys, monkeypatch):
    # Python float arithmetic raises where numpy would warn
    def fail(*_args):
        raise error(text)
    monkeypatch.setattr(latentlab.mixture, "gmm_loglik_rows", fail)
    data = tmp_path / "x.csv"
    write_csv(data, np.zeros((3, 2)))
    model = os.path.join(os.path.dirname(__file__), "fixtures", "models", "gmm.json")
    assert main(["eval", model, "--data", str(data)]) == 1
    assert capsys.readouterr() == ("", f"latentlab: numeric failure: {text}\n")


def test_arm_non_integer_codes_are_usage_errors(tmp_path, capsys):
    X = RandomSource(17).integers(0, 3, (40, 4)).astype(float)
    good = tmp_path / "codes.csv"
    write_csv(good, X)
    model = tmp_path / "arm.json"
    assert main(["fit", "arm", "--data", str(good), "--epochs", "1", "--hidden", "4",
                 "--out", str(model)]) == 0
    X[5, 1] = 1.7
    bad = tmp_path / "bad.csv"
    write_csv(bad, X)
    capsys.readouterr()
    for argv in (["fit", "arm", "--data", str(bad), "--epochs", "1",
                  "--out", str(tmp_path / "m.json")],
                 ["eval", str(model), "--data", str(bad)]):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "ARM sequences must be integer category codes" in err
    assert not (tmp_path / "m.json").exists()


def test_eval_rejects_non_finite_data(tmp_path, real_csv, capsys):
    X = read_csv(real_csv)
    X[3, 1] = np.nan
    bad = tmp_path / "nan.csv"
    write_csv(bad, X)
    fits = {"gmm": ["--k", "2"], "ppca": ["--latent-dim", "1"],
            "vae": ["--epochs", "1", "--hidden", "4"], "flow": ["--epochs", "1", "--hidden", "4"]}
    for family, flags in fits.items():
        model = tmp_path / f"{family}.json"
        assert main(["fit", family, "--data", str(real_csv), "--out", str(model)] + flags) == 0
        capsys.readouterr()
        assert main(["eval", str(model), "--data", str(bad)]) == 2, family
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "data row 4 holds a non-finite value" in captured.err
        assert "nan" not in captured.out


def test_undefined_commands_are_usage_errors(tmp_path, capsys):
    from latentlab import flow, gan
    from latentlab.datasets import write_model
    from latentlab.lda import LdaModel
    from latentlab.mixture import GmmParams
    models = {
        "gmm": GmmParams([0.5, 0.5], [[0.0, 0.0], [3.0, 0.0]], [np.eye(2), np.eye(2)]),
        "flow": flow.make_coupling_stack(2, 2, RandomSource(1), hidden=4),
        "gan": gan.make_gan(2, 1, RandomSource(2), hidden=4),
        "lda": LdaModel(np.ones(2), np.ones(3), 2, 3, np.ones((1, 2)), np.ones((2, 3))),
    }
    for family, params in models.items():
        write_model(tmp_path / f"{family}.json", family, params)
    data = tmp_path / "x.csv"
    write_csv(data, np.zeros((3, 2)))
    out = str(tmp_path / "out.csv")
    cases = [(["reconstruct", "gmm.json", "--data", str(data), "--out", out],
              "reconstruct supports ppca and vae, not 'gmm'"),
             (["infer", "flow.json", "--data", str(data), "--out", out],
              "infer is not defined for family 'flow'"),
             (["eval", "gan.json", "--data", str(data)], "eval is not defined for family 'gan'"),
             (["sample", "lda.json", "--n", "3", "--out", out], "cannot sample family 'lda'")]
    for argv, message in cases:
        argv[1] = str(tmp_path / argv[1])
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert "Traceback" not in err and message in err
    assert not os.path.exists(out)


def test_fit_config_holds_only_the_family_flags(tmp_path, real_csv):
    expected = {"gmm": {"k", "max_iters", "rel_tol"},
                "vae": {"latent_dim", "likelihood", "sigma_dec", "hidden", "epochs", "batch",
                        "lr"}}
    for family, flags in expected.items():
        model = tmp_path / f"{family}.json"
        assert main(["fit", family, "--data", str(real_csv), "--epochs", "1", "--seed", "4",
                     "--out", str(model)]) == 0
        _fam, _params, config = read_model(model)
        assert set(config) == {"family", "seed"} | flags
        assert config["family"] == family and config["seed"] == 4


def test_cli_process_loads_no_scipy_until_lda(tmp_path, blobs_csv):
    from latentlab.lda import LdaHyper, generate_corpus
    data, _X = blobs_csv
    corpus, _ = generate_corpus(LdaHyper(np.ones(2), np.ones(5), 2, 5), [10] * 4,
                                RandomSource(6))
    write_corpus(tmp_path / "corpus.txt", corpus)
    script = """
import sys
import latentlab
from latentlab.cli import main
data, tmp = sys.argv[1:]
assert main(["fit", "gmm", "--data", data, "--k", "2", "--out", tmp + "/gmm.json"]) == 0
assert main(["eval", tmp + "/gmm.json", "--data", data]) == 0
assert main(["sample", tmp + "/gmm.json", "--n", "5", "--out", tmp + "/s.csv"]) == 0
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
assert not loaded, loaded
loaded = sorted(m.partition(".")[2] for m in sys.modules if m.startswith("latentlab."))
assert loaded == ["cli", "core", "datasets", "em", "families", "mixture"], loaded
assert main(["fit", "lda", "--data", tmp + "/corpus.txt", "--k", "2", "--vocab", "5",
             "--max-iters", "5", "--out", tmp + "/lda.json"]) == 0
assert "latentlab.lda" in sys.modules
"""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(latentlab.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, str(data), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert read_model(tmp_path / "lda.json")[0] == "lda"


def _fit_every_sampler(tmp_path):
    """A small fitted model file of each family that has a sampler."""
    from latentlab.families import FAMILIES
    rng = RandomSource(5)
    write_csv(tmp_path / "x.csv", rng.standard_normal((40, 2)))
    write_csv(tmp_path / "b.csv", (rng.uniform((40, 3)) < 0.5).astype(float))
    write_seq(tmp_path / "d.seq", [np.array([0, 1, 1, 0, 1] * 4)])
    write_seq(tmp_path / "r.seq", [rng.standard_normal((20, 2))], dx=2)
    data = {"lca": "b.csv", "irt": "b.csv", "arm": "b.csv", "hmm": "d.seq",
            "ghmm": "r.seq", "lds": "r.seq"}
    flags = ["--k", "2", "--latent-dim", "1", "--max-iters", "3", "--epochs", "1",
             "--hidden", "4", "--steps", "2", "--T", "5"]
    models = {}
    for family, record in FAMILIES.items():
        if record.sample is None:
            continue
        models[family] = tmp_path / f"{family}.json"
        assert main(["fit", family, "--data", str(tmp_path / data.get(family, "x.csv")),
                     "--out", str(models[family])] + flags) == 0, family
    return models


def test_posterior_sampling_only_where_the_family_defines_it(tmp_path, capsys):
    models = _fit_every_sampler(tmp_path)
    assert len(models) == 12
    given = str(tmp_path / "x.csv")
    for family, model in models.items():
        out = tmp_path / f"{family}_post.csv"
        capsys.readouterr()
        rc = main(["sample", str(model), "--from", "posterior", "--given", given,
                   "--n", "3", "--out", str(out)])
        err = capsys.readouterr().err
        if family == "ppca":
            assert rc == 0 and read_csv(out).shape == (3, 2)
        else:
            assert rc == 2, family
            assert f"posterior sampling is not defined for family {family!r}" in err
            assert "Traceback" not in err and not out.exists()


def test_lda_eval_reads_the_model_topics(tmp_path, capsys):
    from latentlab.lda import LdaHyper, generate_corpus
    hyper = LdaHyper(np.ones(2), np.ones(5), 2, 5)
    corpus, _ = generate_corpus(hyper, [12] * 8, RandomSource(6))
    data = tmp_path / "corpus.txt"
    write_corpus(data, corpus)
    model = tmp_path / "lda.json"
    assert main(["fit", "lda", "--data", str(data), "--k", "2", "--vocab", "5",
                 "--max-iters", "30", "--out", str(model)]) == 0
    doc = json.loads(model.read_text())
    doc["params"]["topic_word"] = (3.0 * np.asarray(doc["params"]["topic_word"])[::-1]).tolist()
    perturbed = tmp_path / "lda_perturbed.json"
    perturbed.write_text(json.dumps(doc))
    totals = []
    for path in (model, perturbed):
        capsys.readouterr()
        assert main(["eval", str(path), "--data", str(data)]) == 0
        totals.append(float(capsys.readouterr().out.strip().split("\n")[-1].split()[1]))
    assert np.all(np.isfinite(totals))
    assert totals[0] != totals[1]


def test_lda_eval_prints_one_bound_per_document(tmp_path, capsys):
    from latentlab import lda
    from latentlab.em import EmConfig
    hyper = lda.LdaHyper(np.ones(2), np.ones(5), 2, 5)
    corpus, _ = lda.generate_corpus(hyper, [12, 1, 30, 7, 12], RandomSource(6))
    data = tmp_path / "corpus.txt"
    write_corpus(data, corpus)
    model = tmp_path / "lda.json"
    assert main(["fit", "lda", "--data", str(data), "--k", "2", "--vocab", "5",
                 "--max-iters", "30", "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", str(model), "--data", str(data)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    values = np.array([float(v) for v in lines[:-1]])
    total = float(lines[-1].split()[1])
    assert values.shape == (corpus.n_docs,)
    assert total == values.sum()
    # the same sweeps as eval: the document factors fitted under the model's topics
    _fam, fitted, _cfg = read_model(model)
    var, _report = lda.fit_documents(fitted, corpus, fitted.topic_word,
                                     EmConfig(max_iters=200, rel_tol=1e-6))
    assert total == pytest.approx(lda.elbo(fitted, corpus, var), rel=1e-9)


def test_vae_eval_prints_per_point_elbo(tmp_path, real_csv, capsys):
    from latentlab import vae
    model = tmp_path / "vae.json"
    assert main(["fit", "vae", "--data", str(real_csv), "--epochs", "2", "--hidden", "4",
                 "--out", str(model)]) == 0
    capsys.readouterr()
    assert main(["eval", str(model), "--data", str(real_csv), "--seed", "5"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    X = read_csv(real_csv)
    values = np.array([float(v) for v in lines[:-1]])
    assert values.shape == (X.shape[0],)
    assert float(lines[-1].split()[1]) == pytest.approx(values.sum(), rel=1e-12)
    _fam, fitted, _cfg = read_model(model)
    expected = float(vae.elbo(fitted, X, RandomSource(5), n_samples=16).elbo.values)
    assert values.mean() == pytest.approx(expected, rel=1e-12)


def test_fit_reports_max_iters_and_rescues_on_stderr(tmp_path, blobs_csv, capsys):
    data, _X = blobs_csv
    capped, converged = tmp_path / "capped.json", tmp_path / "converged.json"
    assert main(["fit", "gmm", "--data", str(data), "--k", "2", "--max-iters", "3",
                 "--out", str(capped)]) == 0
    err = capsys.readouterr().err.strip().split("\n")
    assert len(err) == 1
    assert err[0].startswith("latentlab: fit gmm: stopped at --max-iters after 3 iterations "
                             "without converging (last relative change ")
    assert len((tmp_path / "capped.json.trace.csv").read_text().strip().split("\n")) == 4
    assert main(["fit", "gmm", "--data", str(data), "--k", "2", "--out", str(converged)]) == 0
    assert capsys.readouterr().err == ""
    # one-step sequences have no transitions: every state's row is reset
    one = tmp_path / "one.seq"
    write_seq(one, [np.array([1]), np.array([0])])
    assert main(["fit", "hmm", "--data", str(one), "--k", "2",
                 "--out", str(tmp_path / "hmm.json")]) == 0
    err = capsys.readouterr().err
    for k in range(2):
        assert f"latentlab: fit hmm: state {k} saw no transitions; row reset to uniform" in err


def test_fit_hmm_with_more_states_than_steps_is_a_usage_error(tmp_path, capsys):
    data = tmp_path / "short.seq"
    write_seq(data, [np.array([0, 1, 2])])
    assert main(["fit", "hmm", "--data", str(data), "--k", "5",
                 "--out", str(tmp_path / "hmm.json")]) == 2
    assert capsys.readouterr().err == "latentlab: need at least K data points\n"
    assert not (tmp_path / "hmm.json").exists()


def test_a_refused_rescue_is_not_reported_as_max_iters(capsys):
    refused = "rescue refused at iteration 3: objective -6.9 -> -7.3"
    report = FitReport(np.array([-8.0, -6.9]), False, 2, -6.9, ["class 1 empty; re-seeded at "
                                                                "data point 0", refused])
    cli._report_fit("lca", report, 500)
    assert capsys.readouterr().err == ("latentlab: fit lca: class 1 empty; re-seeded at data "
                                       f"point 0\nlatentlab: fit lca: {refused}\n")


@pytest.mark.parametrize("which", ["data", "config", "model", "out"])
def test_directory_paths_are_usage_errors(which, tmp_path, real_csv, capsys):
    model = tmp_path / "gmm.json"
    assert main(["fit", "gmm", "--data", str(real_csv), "--out", str(model)]) == 0
    folder = tmp_path / "folder"
    folder.mkdir()
    out = tmp_path / "out.json"
    argv = {"data": ["fit", "gmm", "--data", str(folder), "--out", str(out)],
            "config": ["fit", "gmm", "--data", str(real_csv), "--config", str(folder),
                       "--out", str(out)],
            "model": ["infer", str(folder), "--data", str(real_csv), "--out", str(out)],
            "out": ["fit", "gmm", "--data", str(real_csv), "--out", str(folder)]}[which]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("latentlab: ") and err.count("\n") == 1 and str(folder) in err
    assert not out.exists() and not list(folder.iterdir())
    assert not (tmp_path / "out.json.trace.csv").exists()
    assert not (tmp_path / "folder.trace.csv").exists()


def test_json_files_must_hold_an_object(tmp_path, real_csv, capsys):
    model = tmp_path / "params_list.json"
    model.write_text(json.dumps({"schema": "latentlab-model-v1", "family": "gmm",
                                 "params": [1], "config": {}}))
    files = {"model_list.json": "[]", "config_list.json": "[1, 2]",
             "spec_str.json": '"x"', "spec_list.json": "[]"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = str(tmp_path / "out.csv")
    cases = [
        ["eval", str(tmp_path / "model_list.json"), "--data", str(real_csv)],
        ["fit", "gmm", "--data", str(real_csv), "--out", out,
         "--config", str(tmp_path / "config_list.json")],
        ["synth", str(tmp_path / "spec_str.json"), "--out", out],
        ["synth", str(tmp_path / "spec_list.json"), "--out", out],
        ["infer", str(model), "--data", str(real_csv), "--out", out],
    ]
    for argv in cases:
        capsys.readouterr()
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        path = argv[-1] if "--config" in argv else argv[1]
        assert "Traceback" not in err and err.startswith(f"latentlab: {path}: "), err
    assert not os.path.exists(out)


def _run_cli(argv, cwd):
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(latentlab.__file__)))
    return subprocess.run([sys.executable, "-m", "latentlab"] + argv, capture_output=True,
                          text=True, env=env, timeout=120, cwd=cwd)


def _write_probe_file(path, value):
    """A small lca/arm, hmm, lda or lds input, by file name, with one entry
    (or the dx= header) set to value (the text it is written as)."""
    if path.name == "codes.csv":
        X = RandomSource(40).integers(0, 2, (20, 4)).astype(float)
        X[7, 2] = float(value)
        write_csv(path, X)
    else:
        path.write_text({"symbols.seq": f"0 1 2 1\n2 {value} 0\n",
                         "corpus.txt": f"0 1 2\n3 {value} 1\n",
                         "real.seq": f"dx={value}\n0.5 1.5 2.5 3.5\n"}[path.name])


# (--data file, the value written into it, extra flags, exit code, what stderr holds)
BOUNDARY_PROBES = {
    "lca code 1e19": ("codes.csv", "1e19", ["lca"], 2,
                      "codes.csv: LCA data must be category codes: row 7, item 2 holds 1e+19"),
    "arm code 1e19": ("codes.csv", "1e19", ["arm", "--epochs", "1"], 2,
                      "codes.csv: ARM sequences must be category codes: row 7, item 2"),
    "hmm negative symbol": ("symbols.seq", "-1", ["hmm"], 2,
                            "symbols.seq: line 2: symbols must be nonnegative"),
    "hmm symbol 10^30": ("symbols.seq", "1" + "0" * 30, ["hmm"], 2,
                         "symbols.seq: line 2: symbols must be category codes"),
    "lda word 10^30": ("corpus.txt", "1" + "0" * 30, ["lda"], 2,
                       "corpus.txt: line 2: word indices must be category codes"),
    # more states than observed steps
    "hmm --k 1e15": ("symbols.seq", "1", ["hmm", "--k", "1000000000000000"], 2,
                     "need at least K data points"),
    # each first allocation exceeds 1 PiB, so it fails at once on any host
    "lca code 1e15": ("codes.csv", "1000000000000000", ["lca"], 1, "Unable to allocate"),
    "arm code 1e15": ("codes.csv", "1000000000000000", ["arm", "--epochs", "1"], 1,
                      "Unable to allocate"),
    "hmm symbol 1e15": ("symbols.seq", "1000000000000000", ["hmm"], 1,
                        "Unable to allocate"),
    "lda word 1e15": ("corpus.txt", "1000000000000000", ["lda"], 1, "Unable to allocate"),
    "lda --vocab 1e15": ("corpus.txt", "4", ["lda", "--vocab", "1000000000000000"], 1,
                         "Unable to allocate"),
    "vae --hidden 1e15": ("codes.csv", "1", ["vae", "--hidden", "1000000000000000"], 1,
                          "Unable to allocate"),
    "lds dx=0": ("real.seq", "0", ["lds"], 2,
                 "real.seq: line 1: dx= must be a positive integer of at most 18 digits, "
                 "got '0'"),
    "lds dx=abc": ("real.seq", "abc", ["lds"], 2,
                   "real.seq: line 1: dx= must be a positive integer of at most 18 digits, "
                   "got 'abc'"),
    "lds dx=-1": ("real.seq", "-1", ["lds"], 2,
                  "real.seq: line 1: dx= must be a positive integer of at most 18 digits, "
                  "got '-1'"),
    "lds dx=10^19": ("real.seq", "1" + "0" * 19, ["lds"], 2,
                     "real.seq: line 1: dx= must be a positive integer of at most 18 digits"),
}


@pytest.mark.parametrize("probe", sorted(BOUNDARY_PROBES))
def test_code_and_size_probes_end_in_one_line(probe, tmp_path):
    data, value, flags, code, message = BOUNDARY_PROBES[probe]
    _write_probe_file(tmp_path / data, value)
    proc = _run_cli(["fit"] + flags[:1] + ["--data", data, "--out", "m.json"] + flags[1:],
                    tmp_path)
    assert proc.returncode == code, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("latentlab: "), proc.stderr
    assert message in lines[0]
    assert not (tmp_path / "m.json").exists()


def test_sampling_extreme_logits_prints_nothing_on_stderr(tmp_path):
    from latentlab import vae
    from latentlab.datasets import write_model
    write_model(tmp_path / "irt.json", "irt", irt.IrtParams([1000.0, 1.0], [0.0, 0.0]))
    model = vae.make_vae(2, 1, RandomSource(3), hidden=4, likelihood="bernoulli")
    for p in model.decoder.params():
        p.values *= 1e4
    write_model(tmp_path / "vae.json", "vae", model)
    write_csv(tmp_path / "x.csv", RandomSource(4).standard_normal((20, 2)))
    for argv in (["sample", "irt.json", "--n", "200", "--out", "s.csv"],
                 ["sample", "vae.json", "--n", "200", "--out", "s.csv"],
                 ["reconstruct", "vae.json", "--data", "x.csv", "--out", "r.csv"]):
        proc = _run_cli(argv, tmp_path)
        assert proc.returncode == 0 and proc.stderr == "", (argv, proc.stderr)


def test_hmm_state_far_below_the_others_is_kept_by_infer_and_eval(tmp_path, capsys):
    # a path through a state of prior 1e-300 that the data favour by about
    # 1082 nats: the whole posterior sits on that state
    from latentlab import sequential as seq
    from latentlab.datasets import write_model
    eps = 1e-10
    params = seq.HmmParams([1 - 1e-300, 1e-300], np.eye(2),
                           seq.DiscreteEmission([[1 - eps, eps], [eps, 1 - eps]]))
    obs = np.array([0] * 3 + [1] * 80)
    write_model(tmp_path / "m.json", "hmm", params)
    write_seq(tmp_path / "s.seq", [obs])
    model, data, out = str(tmp_path / "m.json"), str(tmp_path / "s.seq"), tmp_path / "g.csv"
    assert main(["infer", model, "--data", data, "--out", str(out)]) == 0
    gamma = read_csv(out)
    assert gamma.shape == (83, 2) and np.all(np.isfinite(gamma)) and np.all(gamma >= 0.0)
    assert np.max(np.abs(gamma.sum(axis=1) - 1.0)) < 1e-12
    capsys.readouterr()
    assert main(["eval", model, "--data", data]) == 0
    total = float(capsys.readouterr().out.strip().split("\n")[-1].split()[1])
    assert total == seq.hmm_loglik(params, [obs])
    assert abs(total - -759.8530806960) < 1e-9


def _numeric_failure_or_finite(proc, out, output):
    """An exit-0 run wrote only finite numbers; any other run is one numeric
    failure line naming the output, with nothing written. Neither shows a
    numpy warning."""
    assert "RuntimeWarning" not in proc.stderr and "Traceback" not in proc.stderr
    if proc.returncode == 0:
        values = read_csv(out) if out is not None else \
            np.array([float(line.split()[-1]) for line in proc.stdout.splitlines()])
        assert values.size and np.all(np.isfinite(values))
        return 0
    lines = proc.stderr.splitlines()
    assert proc.returncode == 1 and len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"latentlab: numeric failure: {output}: ")
    assert out is None or not out.exists()
    return 1


@pytest.mark.parametrize("family, sample_code, eval_code", [
    ("flow", 1, 1), ("vae", 0, 1), ("diffusion", 1, None)])
def test_outputs_of_a_wrecked_model_are_finite_or_a_numeric_failure(family, sample_code,
                                                                      eval_code, tmp_path):
    # one Adam step of size 1e300 leaves weights near 1e300
    write_csv(tmp_path / "d.csv", RandomSource(15).standard_normal((30, 2)))
    fit = _run_cli(["fit", family, "--data", "d.csv", "--out", "m.json", "--lr", "1e300",
                    "--epochs", "1", "--hidden", "4"], tmp_path)
    assert fit.returncode == 0, fit.stderr
    proc = _run_cli(["sample", "m.json", "--n", "20", "--out", "s.csv"], tmp_path)
    assert _numeric_failure_or_finite(proc, tmp_path / "s.csv", "s.csv") == sample_code
    if eval_code is not None:
        proc = _run_cli(["eval", "m.json", "--data", "d.csv"], tmp_path)
        assert _numeric_failure_or_finite(proc, None, "eval of m.json") == eval_code
        assert proc.returncode != 0 or "inf" not in proc.stdout


def test_non_finite_results_are_a_numeric_failure_and_write_nothing(tmp_path, blobs_csv,
                                                                    monkeypatch, capsys):
    from dataclasses import replace
    from latentlab.families import FAMILIES
    data, _X = blobs_csv
    model = str(tmp_path / "m.json")
    assert main(["fit", "gmm", "--data", str(data), "--k", "2", "--out", model]) == 0
    record = FAMILIES["gmm"]
    monkeypatch.setitem(FAMILIES, "gmm", replace(
        record, loglik=lambda p, X, c, s: np.where(np.arange(len(X)) == 3, -np.inf, 0.0),
        infer=lambda p, X, c: (np.full((len(X), 2), np.nan), ["a", "b"])))
    capsys.readouterr()
    assert main(["eval", model, "--data", str(data)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"latentlab: numeric failure: eval of {model}: the output holds "
                            "a non-finite number; nothing written\n")
    out = tmp_path / "i.csv"
    assert main(["infer", model, "--data", str(data), "--out", str(out)]) == 1
    assert not out.exists()
    assert f"latentlab: numeric failure: {out}: " in capsys.readouterr().err


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400"])
def test_ppca_model_with_a_non_finite_sigma2_is_a_usage_error(tmp_path, capsys, value):
    data = tmp_path / "x.csv"
    write_csv(data, RandomSource(12).standard_normal((40, 3)))
    model = tmp_path / "m.json"
    assert main(["fit", "ppca", "--data", str(data), "--latent-dim", "1",
                 "--out", str(model)]) == 0
    text, n = re.subn(r'"sigma2": [^,}\s]+', f'"sigma2": {value}', model.read_text())
    assert n == 1
    model.write_text(text)
    out = tmp_path / "out.csv"
    for argv in (["eval", str(model), "--data", str(data)],
                 ["reconstruct", str(model), "--data", str(data), "--out", str(out)],
                 ["sample", str(model), "--n", "5", "--out", str(out)]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "latentlab: sigma2 contains non-finite entries\n"
        assert not out.exists()


def test_synth_specs_follow_the_field_rule(tmp_path, capsys):
    gmm = {"weights": [0.5, 0.5], "means": [[0.0], [3.0]], "covs": {}}
    lda = {"alpha": [1.0, 1.0], "beta": [1.0] * 4, "K": 2.7, "V": 4}
    cases = [({"family": "blobs2d", "n": 5, "seed": 1.5}, "seed must be an integer"),
             ({"family": "blobs2d", "n": 5, "seed": "x"}, "seed must be an integer"),
             ({"family": "mixture1d", "n": 5, "params": {"weights": [0.5, 0.5], "means": [1.0]}},
              "mixture1d weights, means and sds must have one length"),
             ({"family": "mixture1d", "n": 5,
               "params": {"weights": [2, -1], "means": [0, 100], "sds": [1, 1]}},
              "weights contain negative entries"),
             ({"family": "mixture1d", "n": 5, "params": {"sds": [-1, 1]}},
              "sds must be nonnegative"),
             ({"family": "blobs2d", "n": 5, "params": {"separation": [1]}},
              "separation must be a number"),
             ({"family": "lda", "lengths": [3], "params": lda}, "K must be an integer"),
             ({"family": "gmm", "n": 5, "params": gmm}, "covs must be an array of numbers"),
             ({"family": "gmm", "n": 5, "params": {**gmm, "covs": [[[1.0, 5.0], [0.0, 1.0]]] * 2,
                                                   "means": [[0.0, 0.0], [3.0, 0.0]]}},
              "covs must be square and symmetric within 1e-10")]
    spec = tmp_path / "spec.json"
    out = tmp_path / "out.csv"
    for doc, message in cases:
        spec.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["synth", str(spec), "--out", str(out)]) == 2, doc
        err = capsys.readouterr().err
        assert err.startswith(f"latentlab: {message}") and err.count("\n") == 1, err
    assert not out.exists()


def _edited_model(tmp_path, model, edit):
    """A copy of the model file with edit(doc) applied."""
    doc = json.loads(model.read_text())
    edit(doc)
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    return path


def _set(path, value):
    """An edit that sets the model's doc[path] to value."""
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


def test_flow_and_network_fields_are_checked(tmp_path, capsys):
    from latentlab import flow
    from latentlab.datasets import write_model
    model = tmp_path / "flow.json"
    write_model(model, "flow", flow.make_coupling_stack(3, 2, RandomSource(1), hidden=4))
    assert json.loads(model.read_text())["params"]["layers"][1]["kind"] == "permutation"
    s_net = ("params", "layers", 0, "s_net")
    cases = [(_set(("params", "layers", 1, "perm"), [0, 0, 0]),
              "perm must be a permutation of 0..2"),
             (_set(("params", "layers", 1, "kind"), "shuffle"),
              "unknown flow layer kind 'shuffle'"),
             (_set(s_net + ("biases",), [[1], [2, 3]]), "biases[0] has shape (1,), expected (4,)"),
             (_set(s_net + ("dims",), [1, 5, 2]),
              "network dims [1, 5, 2] do not match its weights' [1, 4, 2]")]
    out = tmp_path / "out.csv"
    for edit, message in cases:
        path = _edited_model(tmp_path, model, edit)
        capsys.readouterr()
        assert main(["sample", str(path), "--n", "3", "--out", str(out)]) == 2, message
        assert capsys.readouterr().err == f"latentlab: {message}\n"
        assert not out.exists()


@pytest.mark.parametrize("value", [41.5, True, [41]])
def test_model_config_values_take_their_fit_flag_type(value, tmp_path, capsys):
    data = tmp_path / "x.csv"
    write_csv(data, (RandomSource(3).uniform((30, 4)) < 0.5).astype(float))
    model = tmp_path / "irt.json"
    assert main(["fit", "irt", "--data", str(data), "--max-iters", "5", "--out", str(model)]) == 0
    path = _edited_model(tmp_path, model, _set(("config", "quad_nodes"), value))
    capsys.readouterr()
    assert main(["eval", str(path), "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"latentlab: {path}: config key 'quad_nodes': invalid value "
                            f"{value!r} for --quad-nodes\n")


@pytest.mark.parametrize("command", ["eval", "infer", "sample", "reconstruct"])
def test_a_model_command_builds_the_parser_once(command, tmp_path, monkeypatch):
    data = tmp_path / "x.csv"
    write_csv(data, RandomSource(4).standard_normal((20, 3)))
    model = tmp_path / "m.json"
    assert main(["fit", "ppca", "--data", str(data), "--out", str(model)]) == 0
    built = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or build())
    argv = [command, str(model)] + (["--n", "3"] if command == "sample" else
                                    ["--data", str(data)])
    if command != "eval":
        argv += ["--out", str(tmp_path / "out.csv")]
    assert main(argv) == 0
    assert len(built) == 1


def _lds_data(tmp_path):
    from latentlab import sequential as seq
    data = tmp_path / "s.seq"
    write_seq(data, [seq.lds_sample(seq.LdsParams([[0.8]], [[1.0]], [[0.2]], [[0.3]], [0.0],
                                                  [[1.0]]), 40, RandomSource(14))[1]], dx=1)
    return data


@pytest.mark.parametrize("value", ["0", "-3"])
def test_lds_fit_needs_a_state(value, tmp_path, capsys):
    out = tmp_path / "m.json"
    assert main(["fit", "lds", "--data", str(_lds_data(tmp_path)), "--latent-dim", value,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"latentlab: latent_dim must be >= 1, got {value}\n"
    assert not out.exists() and not (tmp_path / "m.json.trace.csv").exists()


@pytest.mark.parametrize("command", ["eval", "infer", "sample"])
def test_an_lds_model_without_a_state_is_refused(command, tmp_path, capsys):
    # the file a fit with --latent-dim 0 wrote before the fit refused it; its
    # (0, 0) matrices read back as (1, 0)
    model = tmp_path / "lds0.json"
    model.write_text(json.dumps({
        "config": {"family": "lds", "latent_dim": 0, "max_iters": 500, "rel_tol": None,
                   "seed": 0},
        "family": "lds", "params": {"A": [], "C": [[]], "Q": [], "R": [[0.9]], "Sigma0": [],
                                    "mu0": []},
        "rng_algorithm": "philox4x64", "schema": "latentlab-model-v1"}))
    out = tmp_path / "out.seq"
    argv = [command, str(model)] + (["--n", "3"] if command == "sample" else
                                    ["--data", str(_lds_data(tmp_path))])
    assert main(argv + ([] if command == "eval" else ["--out", str(out)])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "latentlab: latent_dim must be >= 1, got 0\n"
    assert not out.exists()


def test_irt_quadrature_needs_a_node(tmp_path, capsys):
    data = tmp_path / "x.csv"
    write_csv(data, (RandomSource(3).uniform((30, 4)) < 0.5).astype(float))
    model = tmp_path / "irt.json"
    assert main(["fit", "irt", "--data", str(data), "--quad-nodes", "0", "--out",
                 str(model)]) == 2
    assert capsys.readouterr().err == "latentlab: quad_nodes must be >= 1, got 0\n"
    assert not model.exists()
    assert main(["fit", "irt", "--data", str(data), "--max-iters", "5", "--out", str(model)]) == 0
    path = _edited_model(tmp_path, model, _set(("config", "quad_nodes"), -3))
    out = tmp_path / "theta.csv"
    for argv in (["eval", str(path), "--data", str(data)],
                 ["infer", str(path), "--data", str(data), "--out", str(out)]):
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "latentlab: quad_nodes must be >= 1, got -3\n"
    assert not out.exists()


def _separable_responses(path, seed=0):
    """Responses X_ij = [theta_i > t_j] of N = 200 sorted standard-normal
    abilities and J = 5 sorted thresholds: every item is separated by a
    threshold in ability, so the fitted slopes grow until exp(-z) overflows."""
    rng = np.random.default_rng(seed)
    theta, t = np.sort(rng.standard_normal(200)), np.sort(rng.standard_normal(5))
    write_csv(path, (theta[:, None] > t[None, :]).astype(float))
    return path


def test_irt_fits_separable_responses(tmp_path, capsys):
    data, model = _separable_responses(tmp_path / "sep.csv"), tmp_path / "irt.json"
    assert main(["fit", "irt", "--data", str(data), "--max-iters", "500",
                 "--out", str(model)]) == 0
    assert capsys.readouterr().err == ""
    trace = read_csv(str(model) + ".trace.csv")
    assert np.all(np.isfinite(trace)) and np.all(np.diff(trace[:, 1]) >= -1e-8)
    assert main(["eval", str(model), "--data", str(data)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 201 and np.all(np.isfinite([float(v) for v in lines[:-1]]))


def _em_family_data(tmp_path):
    """A small input file of each EM family's kind, by family."""
    rng = RandomSource(8)
    write_csv(tmp_path / "x.csv", rng.standard_normal((40, 3)))
    write_csv(tmp_path / "b.csv", (rng.uniform((40, 3)) < 0.5).astype(float))
    write_seq(tmp_path / "d.seq", [np.array([0, 1, 1, 0, 1] * 4)])
    write_seq(tmp_path / "r.seq", [rng.standard_normal((20, 2))], dx=2)
    (tmp_path / "c.txt").write_text("0 1 2 1\n2 3 3 0 1\n")
    files = {"ppca": "x.csv", "gmm": "x.csv", "lca": "b.csv", "irt": "b.csv", "lda": "c.txt",
             "hmm": "d.seq", "ghmm": "r.seq", "lds": "r.seq"}
    return {family: tmp_path / name for family, name in files.items()}


EM_FAMILIES = ["ppca", "gmm", "lca", "irt", "lda", "hmm", "ghmm", "lds"]


@pytest.mark.parametrize("family", EM_FAMILIES)
def test_em_fit_refuses_rel_tol_zero(family, tmp_path, capsys):
    from latentlab.families import EM_FLAGS, FAMILIES
    assert [f for f, rec in FAMILIES.items() if set(EM_FLAGS) <= set(rec.flags)] == EM_FAMILIES
    model = tmp_path / "m.json"
    assert main(["fit", family, "--data", str(_em_family_data(tmp_path)[family]),
                 "--rel-tol", "0", "--out", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "latentlab: rel_tol must be positive\n"
    assert not model.exists() and not (tmp_path / "m.json.trace.csv").exists()


@pytest.mark.parametrize("value", ["0", "-1"])
def test_ppca_fit_needs_a_latent_dimension(value, tmp_path, real_csv, capsys):
    model = tmp_path / "m.json"
    assert main(["fit", "ppca", "--data", str(real_csv), "--latent-dim", value,
                 "--out", str(model)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"latentlab: latent_dim must be >= 1, got {value}\n"
    assert not model.exists() and not (tmp_path / "m.json.trace.csv").exists()


@pytest.mark.parametrize("command", ["eval", "infer", "sample", "reconstruct"])
def test_a_ppca_model_without_a_latent_dimension_is_refused(command, tmp_path, real_csv,
                                                              capsys):
    # the file a fit with --latent-dim 0 wrote before the fit refused it
    model = tmp_path / "ppca0.json"
    model.write_text(json.dumps({
        "config": {"family": "ppca", "latent_dim": 0, "max_iters": 500, "rel_tol": None,
                   "seed": 0},
        "family": "ppca", "params": {"W": [[], []], "mu": [0.1, -0.2], "sigma2": 0.9},
        "rng_algorithm": "philox4x64", "schema": "latentlab-model-v1"}))
    out = tmp_path / "out.csv"
    argv = [command, str(model)] + (["--n", "3"] if command == "sample" else
                                    ["--data", str(real_csv)])
    assert main(argv + ([] if command == "eval" else ["--out", str(out)])) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "latentlab: latent_dim must be >= 1, got 0\n"
    assert not out.exists()
