"""Model files at the command line: every parameter field decodes through its
Params constructor, so a malformed field is one usage-error line naming it,
and every family's file rewrites to the same bytes.

tests/fixtures/models holds one model per family, fitted by the CLI of an
earlier release with fit_models below (the data of SPECS, the flags of
FIT_FLAGS). The scan replaces one params field at a time, at any depth, with
each value of MUTATIONS and runs the command that reads the model in
process; each must exit 2 with one stderr line. The hypothesis test draws a
path at any depth, list entries included, and a value from the same
grammar; it must end in exit 0, 1 or 2, and exit 0 only with finite output.
A third test draws the same way into the synth specs of
test_generate_reference.
"""
import contextlib
import io
import json
import math
import os
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from latentlab.cli import main
from latentlab.datasets import read_model, read_seq, write_csv, write_model, write_seq
from latentlab.sequential import lds_infer
from test_generate_reference import SPECS as SYNTH_SPECS

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "models")
FAMILIES = ("ppca", "gmm", "lca", "irt", "lda", "hmm", "ghmm", "lds",
            "vae", "flow", "diffusion", "arm", "gan")
# synth specs of the data each family is fitted on and evaluated against
SPECS = {
    "matrix": {"family": "blobs2d", "params": {"separation": 4.0}, "n": 30, "seed": 1},
    "codes": {"family": "lca", "n": 40, "seed": 2,
              "params": {"weights": [0.4, 0.6],
                         "item_probs": [[[0.2, 0.8], [0.7, 0.3]],
                                        [[0.1, 0.3, 0.6], [0.5, 0.25, 0.25]]]}},
    "responses": {"family": "irt", "n": 40, "seed": 3,
                  "params": {"a": [0.8, 1.5, 1.0], "b": [-0.5, 0.0, 0.7]}},
    "corpus": {"family": "lda", "lengths": [5, 9, 2, 7], "seed": 4,
               "params": {"alpha": [0.5, 0.5, 0.5], "beta": [0.3] * 6, "K": 3, "V": 6}},
    "seq": {"family": "hmm", "lengths": [6, 2, 12], "seed": 5,
            "params": {"pi": [0.6, 0.4], "trans": [[0.8, 0.2], [0.3, 0.7]],
                       "emit": [[0.7, 0.2, 0.1], [0.1, 0.3, 0.6]]}},
    "real_seq": {"family": "ghmm", "lengths": [6, 2, 12], "seed": 6,
                 "params": {"pi": [0.6, 0.4], "trans": [[0.8, 0.2], [0.3, 0.7]],
                            "means": [[0.0, 1.0], [2.0, -1.0]],
                            "covs": [[[1.0, 0.3], [0.3, 0.5]], [[0.2, 0.0], [0.0, 0.1]]]}},
    "lds_seq": {"family": "lds", "lengths": [5, 3, 8], "seed": 7,
                "params": {"A": [[0.9, 0.1], [0.0, 0.8]],
                           "C": [[1.0, 0.0], [0.5, 1.0], [0.0, 1.0]],
                           "Q": [[0.1, 0.0], [0.0, 0.2]],
                           "R": [[0.3, 0.0, 0.0], [0.0, 0.2, 0.0], [0.0, 0.0, 0.1]],
                           "mu0": [0.0, 1.0], "Sigma0": [[1.0, 0.0], [0.0, 1.0]]}},
}
DATA = {"ppca": "matrix", "gmm": "matrix", "vae": "matrix", "flow": "matrix",
        "diffusion": "matrix", "gan": "matrix", "lca": "codes", "arm": "codes",
        "irt": "responses", "lda": "corpus", "hmm": "seq", "ghmm": "real_seq",
        "lds": "lds_seq"}
EM = ["--max-iters", "20"]
FIT_FLAGS = {"ppca": EM, "gmm": EM, "lca": EM, "irt": EM + ["--quad-nodes", "11"],
             "lda": EM + ["--k", "3"], "hmm": EM, "ghmm": EM, "lds": EM + ["--latent-dim", "2"],
             "vae": ["--epochs", "1", "--hidden", "3"],
             "flow": ["--epochs", "1", "--hidden", "3", "--layers", "2"],
             "diffusion": ["--epochs", "1", "--hidden", "3", "--T", "5"],
             "arm": ["--epochs", "1", "--hidden", "3"], "gan": ["--steps", "2", "--hidden", "3"]}
# diffusion and gan define no eval; their models are read by sample
SAMPLED = ("diffusion", "gan")
BIG = "__1e400__"        # written as the JSON number 1e400, which reads as inf
MUTATIONS = [{}, "s", True, None, [[1], [2, 3]], [], BIG]


def _run(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write_data(directory):
    """The data file of each SPECS entry, drawn by synth; {name: path}."""
    paths = {}
    for name, spec in SPECS.items():
        spec_path = os.path.join(directory, f"{name}.spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        paths[name] = os.path.join(directory, f"{name}.data")
        assert _run(["synth", spec_path, "--out", paths[name]])[0] == 0
    return paths


def fit_models(directory, data):
    """Fit every family through the CLI into directory/<family>.json."""
    for family in FAMILIES:
        out = os.path.join(directory, f"{family}.json")
        code, _out, err = _run(["fit", family, "--data", data[DATA[family]], "--out", out]
                               + FIT_FLAGS[family])
        assert code == 0, err


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    return write_data(str(tmp_path_factory.mktemp("data")))


def _command(family, model, data_files, workdir):
    """The command that reads the model: eval, or sample for SAMPLED."""
    if family in SAMPLED:
        return ["sample", model, "--n", "3", "--out", os.path.join(workdir, "out.csv")]
    return ["eval", model, "--data", data_files[DATA[family]]]


def _paths(node, prefix=()):
    """Every key path into the params, at any depth: dict keys, and the
    entries of lists of objects (flow layers)."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield prefix + (key,)
            yield from _paths(node[key], prefix + (key,))
    elif isinstance(node, list) and node and all(isinstance(v, dict) for v in node):
        for i, v in enumerate(node):
            yield from _paths(v, prefix + (i,))


def _mutated(doc, path, value):
    """The JSON text of doc with doc[path] set to value."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(doc).replace(f'"{BIG}"', "1e400")


def _load(family):
    with open(os.path.join(FIXTURES, f"{family}.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("family", FAMILIES)
def test_every_malformed_field_is_one_usage_error(family, data_files, tmp_path):
    doc = _load(family)
    model = str(tmp_path / "m.json")
    argv = _command(family, model, data_files, str(tmp_path))
    paths = list(_paths(doc["params"]))
    assert paths
    for path in paths:
        for value in MUTATIONS:
            with open(model, "w") as fh:
                fh.write(_mutated(doc, ("params",) + path, value))
            code, out, err = _run(argv)
            assert (code, err.count("\n")) == (2, 1), (path, value, err)
            assert err.startswith("latentlab: ") and "Traceback" not in err
            assert out == ""


@pytest.mark.parametrize("family", FAMILIES)
def test_a_negative_sample_count_is_one_usage_error(family, tmp_path):
    out = tmp_path / "out.csv"
    code, stdout, err = _run(["sample", os.path.join(FIXTURES, f"{family}.json"), "--n", "-1",
                              "--out", str(out)])
    assert (code, stdout, err) == (2, "", "latentlab: n must be >= 0, got -1\n")
    assert not out.exists()


def test_a_bool_inside_a_numeric_array_is_one_usage_error(data_files, tmp_path):
    doc = _load("ppca")
    model = str(tmp_path / "m.json")
    with open(model, "w") as fh:
        fh.write(_mutated(doc, ("params", "mu"), [True] + doc["params"]["mu"][1:]))
    code, out, err = _run(_command("ppca", model, data_files, str(tmp_path)))
    assert (code, out, err.count("\n")) == (2, "", 1), err
    assert err.startswith("latentlab: mu must be "), err


# every covariance field of the committed fixtures, and one off-diagonal entry
COVARIANCES = [("gmm", "covs", (0, 0, 1)), ("ghmm", "covs", (1, 1, 0)),
               ("lds", "Q", (0, 1)), ("lds", "R", (2, 0)), ("lds", "Sigma0", (1, 0))]


@pytest.mark.parametrize("family, name, entry", COVARIANCES,
                         ids=[f"{family}.{name}" for family, name, _ in COVARIANCES])
def test_an_asymmetric_covariance_is_one_usage_error(family, name, entry, data_files, tmp_path):
    doc = _load(family)
    node = doc["params"][name]
    for i in entry[:-1]:
        node = node[i]
    node[entry[-1]] += 5.0
    model = str(tmp_path / "m.json")
    with open(model, "w") as fh:
        json.dump(doc, fh)
    out = str(tmp_path / "out.csv")
    for argv in (["eval", model, "--data", data_files[DATA[family]]],
                 ["sample", model, "--n", "3", "--out", out]):
        code, stdout, err = _run(argv)
        assert (code, stdout) == (2, ""), (argv, err)
        assert err == (f"latentlab: {name} must be square and symmetric within 1e-10, "
                       f"got shape {np.shape(doc['params'][name])}\n")
    assert not os.path.exists(out)


def _matrix(doc, entry):
    """The matrix of the params field entry[0] (a list of lists) that holds
    the off-diagonal pair entry[-2:]."""
    node = doc["params"]
    for i in entry[:-2]:
        node = node[i]
    return node


@pytest.mark.parametrize("family, name, entry", COVARIANCES,
                         ids=[f"{family}.{name}" for family, name, _ in COVARIANCES])
def test_an_indefinite_covariance_is_one_usage_error(family, name, entry, data_files, tmp_path):
    doc = _load(family)
    M, (i, j) = _matrix(doc, (name,) + entry), entry[-2:]
    M[i][j] = M[j][i] = math.sqrt(M[i][i] * M[j][j]) + 1.0     # a minor of negative determinant
    shown = f"{name}[{entry[0]}]" if name == "covs" else name
    model, spec, out = (str(tmp_path / f) for f in ("m.json", "spec.json", "out.csv"))
    with open(model, "w") as fh:
        json.dump(doc, fh)
    with open(spec, "w") as fh:
        json.dump({"family": family, "params": doc["params"],
                   **({"n": 5} if family == "gmm" else {"lengths": [4]})}, fh)
    data = data_files[DATA[family]]
    for argv in (["eval", model, "--data", data], ["infer", model, "--data", data, "--out", out],
                 ["sample", model, "--n", "3", "--out", out], ["synth", spec, "--out", out]):
        code, stdout, err = _run(argv)
        assert (code, stdout, err.count("\n")) == (2, "", 1), (argv, err)
        assert err.startswith(f"latentlab: {shown} is not positive semi-definite: "), err
    assert not os.path.exists(out)


@pytest.mark.parametrize("family, name, entry", COVARIANCES,
                         ids=[f"{family}.{name}" for family, name, _ in COVARIANCES])
def test_a_zero_covariance_is_accepted(family, name, entry, data_files, tmp_path):
    doc = _load(family)
    M = _matrix(doc, (name,) + entry)
    M[:] = np.zeros((len(M), len(M))).tolist()
    _runs_to_finite_output(doc, "sample", data_files[DATA[family]], str(tmp_path))
    if family != "lds":     # a Gaussian density needs a covariance it can factor
        code, stdout, err = _run(["eval", str(tmp_path / "m.json"),
                                  "--data", data_files[DATA[family]]])
        assert (code, stdout) == (1, ""), err
        assert err == ("latentlab: numeric failure: covariance too singular to factor, "
                       "even after jitter\n")


# the width of each fixture of a Gaussian density, a flow or a VAE
WIDTHS = {"ppca": 2, "gmm": 2, "ghmm": 2, "lds": 3, "flow": 2, "vae": 2}


@pytest.mark.parametrize("family", sorted(WIDTHS))
def test_data_of_the_wrong_width_is_one_usage_error(family, tmp_path):
    model = os.path.join(FIXTURES, f"{family}.json")
    d, data, out = WIDTHS[family], str(tmp_path / "data"), str(tmp_path / "out.csv")
    for width in (d - 1, d + 1):
        rows = np.arange(4.0 * width).reshape(4, width) / 10
        if DATA[family] == "matrix":
            write_csv(data, rows)
        else:
            write_seq(data, [rows], dx=width)
        argvs = [["eval", model, "--data", data]]
        if family != "flow":
            argvs.append(["infer", model, "--data", data, "--out", out])
        if family in ("ppca", "vae"):
            argvs.append(["reconstruct", model, "--data", data, "--out", out])
        for argv in argvs:
            assert _run(argv) == (2, "", f"latentlab: data dim {width} does not match "
                                         f"model dim {d}\n"), argv
    assert not os.path.exists(out)


@pytest.mark.parametrize("family", ["gmm", "ghmm"])
def test_a_variance_near_the_float_maximum_is_stored_without_overflow(family, data_files,
                                                                      tmp_path):
    # M + M^T overflows at this entry; M / 2 + M^T / 2 does not
    doc = _load(family)
    doc["params"]["covs"][0][0][0] = 1.7e308
    model = str(tmp_path / "m.json")
    with open(model, "w") as fh:
        json.dump(doc, fh)
    code, out, err = _run(["eval", model, "--data", data_files[DATA[family]]])
    assert (code, err) == (0, ""), err
    total = out.splitlines()[-1]
    assert total.startswith("total ") and np.isfinite(float(total.split()[1]))
    params = read_model(model)[1]
    covs = params.covs if family == "gmm" else params.emit.covs
    assert covs[0, 0, 0] == 1.7e308


def _runs_to_finite_output(doc, command, data, workdir):
    """Write the model doc and run command on it (eval, or infer or sample
    into out.csv): exit 0, no stderr, and only finite numbers out."""
    model, out = os.path.join(workdir, "m.json"), os.path.join(workdir, "out.csv")
    with open(model, "w") as fh:
        json.dump(doc, fh)
    argv = {"eval": ["eval", model, "--data", data],
            "infer": ["infer", model, "--data", data, "--out", out],
            "sample": ["sample", model, "--n", "50", "--out", out]}[command]
    code, stdout, err = _run(argv)
    assert (code, err) == (0, ""), (command, err)
    values = np.array([float(line.split()[-1]) for line in stdout.splitlines()]) \
        if command == "eval" else np.loadtxt(out, delimiter=",", skiprows=1)
    assert values.size and np.all(np.isfinite(values)), command


# One variance of each Gaussian fixture at 1.7e308, near the float maximum:
# valid models, whose samples reach about 1e154. An LDS with such a state
# variance has an innovation covariance C P C^T + R that is singular in
# float64 (R is below its rounding), so eval and infer exit 1 at a numeric
# failure: a known open case.
SINGULAR_INNOVATION = pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="C P C^T + R is singular in float64: exit 1, numeric failure")
HUGE_VARIANCES = [("gmm", ("covs", 0, 0, 0)), ("ghmm", ("covs", 0, 0, 0)),
                  ("lds", ("R", 0, 0)), ("lds", ("Q", 0, 0)), ("lds", ("Sigma0", 0, 0))]


@pytest.mark.parametrize("family, entry, command", [
    pytest.param(family, entry, command, id=f"{family}.{entry[0]}-{command}",
                 marks=[SINGULAR_INNOVATION] if entry[0] in ("Q", "Sigma0")
                 and command != "sample" else [])
    for family, entry in HUGE_VARIANCES for command in ("eval", "infer", "sample")])
def test_a_variance_near_the_float_maximum_runs_to_finite_output(family, entry, command,
                                                                 data_files, tmp_path):
    doc = _load(family)
    node = doc["params"]
    for i in entry[:-1]:
        node = node[i]
    node[entry[-1]] = 1.7e308
    _runs_to_finite_output(doc, command, data_files[DATA[family]], str(tmp_path))


@pytest.mark.parametrize("command", ["eval", "infer", "sample"])
def test_an_hmm_state_of_prior_1e_300_that_never_leaves_runs_to_finite_output(
        command, data_files, tmp_path):
    doc = _load("hmm")
    doc["params"]["pi"] = [1 - 1e-300, 1e-300]
    doc["params"]["trans"] = [[1.0, 0.0], [0.0, 1.0]]
    _runs_to_finite_output(doc, command, data_files["seq"], str(tmp_path))


def _model_with(family, params, workdir):
    """The path of the family's fixture with its params replaced."""
    doc = _load(family)
    doc["params"] = params
    model = os.path.join(workdir, "m.json")
    with open(model, "w") as fh:
        json.dump(doc, fh)
    return model


def test_a_component_of_weight_zero_takes_no_point(tmp_path):
    # its log-weight is -inf, not a floor of log(1e-300) = -690.8
    model = _model_with("gmm", {"weights": [1.0, 0.0], "means": [[0.0], [1000.0]],
                                "covs": [[[1.0]], [[1.0]]]}, str(tmp_path))
    data, out = str(tmp_path / "x.csv"), str(tmp_path / "gamma.csv")
    write_csv(data, np.array([[1000.0]]))
    logpdf = "-500000.91893853323"         # log N(1000 | 0, 1)
    assert _run(["eval", model, "--data", data]) == (0, f"{logpdf}\ntotal {logpdf}\n", "")
    assert _run(["infer", model, "--data", data, "--out", out])[0] == 0
    assert np.array_equal(np.loadtxt(out, delimiter=",", skiprows=1), [1.0, 0.0])


def test_a_code_that_no_class_emits_is_one_numeric_failure(tmp_path):
    model = _model_with("lca", {"weights": [0.5, 0.5], "item_probs": [[[1.0, 0.0], [1.0, 0.0]]]},
                        str(tmp_path))
    data, out = str(tmp_path / "codes.csv"), str(tmp_path / "gamma.csv")
    write_csv(data, np.array([[0], [1]]))
    code, stdout, err = _run(["eval", model, "--data", data])
    assert (code, stdout) == (1, "") and err.startswith("latentlab: numeric failure: ")
    assert err.count("\n") == 1 and err.endswith("the output holds a non-finite number; "
                                                  "nothing written\n")
    assert _run(["infer", model, "--data", data, "--out", out]) == (
        1, "", "latentlab: numeric failure: zero-probability data point 1: no class explains it\n")
    assert not os.path.exists(out)


# each row sums to 1 - 1e-5, within check_simplex_rows' tolerance, its last entry 0
SHORT_ROW = [0.5, 0.49999, 0.0]


@pytest.mark.parametrize("family", ["gmm", "hmm"])
def test_a_category_of_probability_zero_is_never_sampled(family, tmp_path):
    # the GMM's third component lies at 1000, and only the HMM's third state emits symbol 2
    params = ({"weights": SHORT_ROW, "means": [[0.0], [1.0], [1000.0]], "covs": [[[1.0]]] * 3}
              if family == "gmm" else {"pi": SHORT_ROW, "trans": [SHORT_ROW] * 3,
                                       "emit": np.eye(3).tolist()})
    model, out = _model_with(family, params, str(tmp_path)), str(tmp_path / "x.csv")
    assert _run(["sample", model, "--n", "1000000", "--out", out]) == (0, "", "")
    x = np.loadtxt(out, delimiter=",", skiprows=1)
    assert x.shape == (1000000,) and np.count_nonzero(x > 1.5 if family == "hmm" else x > 500) == 0


def test_infer_of_a_noise_free_lds_smooths_to_its_filtered_means(data_files, tmp_path):
    # Q = Sigma0 = 0 fixes every state, so every predicted covariance is
    # zero: the smoother must take its gains without inverting them
    doc = _load("lds")
    zero = np.zeros_like(doc["params"]["Q"]).tolist()
    doc["params"]["Q"] = doc["params"]["Sigma0"] = zero
    model, out = str(tmp_path / "m.json"), str(tmp_path / "z.csv")
    with open(model, "w") as fh:
        json.dump(doc, fh)
    code, _stdout, err = _run(["infer", model, "--data", data_files["lds_seq"], "--out", out])
    assert (code, err) == (0, ""), err
    filt = lds_infer(read_model(model)[1], read_seq(data_files["lds_seq"])[0], smooth=False)
    assert np.array_equal(np.loadtxt(out, delimiter=",", skiprows=1),
                          filt.pack.unpack(filt.means_f))


def _any_path(draw, node):
    """A path drawn into node at any depth: one step at least, then each
    further step into a dict key or a list entry, or a stop."""
    path = ()
    while isinstance(node, (dict, list)) and node and (not path or draw(st.booleans())):
        key = draw(st.sampled_from(sorted(node) if isinstance(node, dict)
                                   else range(len(node))))
        path, node = path + (key,), node[key]
    return path


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.data())
def test_a_field_at_any_depth_keeps_the_cli_contract(data_files, tmp_path_factory, drawn):
    family = drawn.draw(st.sampled_from(FAMILIES))
    doc = _load(family)
    path = ("params",) + _any_path(drawn.draw, doc["params"])
    value = drawn.draw(st.sampled_from(MUTATIONS))
    workdir = str(tmp_path_factory.mktemp("fuzz"))
    model = os.path.join(workdir, "m.json")
    with open(model, "w") as fh:
        fh.write(_mutated(doc, path, value))
    argv = _command(family, model, data_files, workdir)
    code, out, err = _run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    if code == 0:
        if family in SAMPLED:
            values = np.loadtxt(os.path.join(workdir, "out.csv"), delimiter=",", skiprows=1)
        else:
            values = np.array([float(line.split()[-1]) for line in out.splitlines()])
        assert values.size and np.all(np.isfinite(values))
    else:
        assert err.count("\n") == 1 and err.startswith("latentlab: ")


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(st.data())
def test_a_synth_spec_field_at_any_depth_keeps_the_cli_contract(tmp_path_factory, drawn):
    family = drawn.draw(st.sampled_from(sorted(SYNTH_SPECS)))
    params, sizes = SYNTH_SPECS[family]
    doc = {"family": family, "params": params, **sizes, "seed": 3}
    path = _any_path(drawn.draw, doc)
    value = drawn.draw(st.sampled_from(MUTATIONS))
    workdir = str(tmp_path_factory.mktemp("synth"))
    spec, out = os.path.join(workdir, "spec.json"), os.path.join(workdir, "out.txt")
    with open(spec, "w") as fh:
        fh.write(_mutated(doc, path, value))
    code, _out, err = _run(["synth", spec, "--out", out])
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "RuntimeWarning" not in err
    if code == 0:
        with open(out) as fh:       # a header ("x0,x1" or "dx=2"), then numbers
            values = [float(v) for v in re.split(r"[,\s]+", fh.read()) if v and v[0] not in "xd"]
        assert values and np.all(np.isfinite(values))
    else:
        assert err.count("\n") == 1 and err.startswith("latentlab: ")


@pytest.fixture(scope="module")
def fitted(tmp_path_factory, data_files):
    directory = str(tmp_path_factory.mktemp("fitted"))
    fit_models(directory, data_files)
    return directory


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("source", ["fixture", "fitted"])
def test_model_file_rewrites_to_the_same_bytes(family, source, fitted, tmp_path):
    path = os.path.join(FIXTURES if source == "fixture" else fitted, f"{family}.json")
    fam, params, config = read_model(path)
    assert fam == family
    again = tmp_path / "again.json"
    write_model(again, fam, params, config)
    with open(path, "rb") as fh:
        assert again.read_bytes() == fh.read()
