"""The command line at its boundary: hypothesis writes small data files from
a grammar of well-formed and malformed lines and draws the numeric fit
flags, and every family's fit, eval and infer run through cli.main on them.

The grammar holds blank and ragged lines, dx= headers in any file,
non-numbers, 1e308, NaN and infinities, and negative and fractional codes.
Numeric flags take 0, negatives, 1e-300, 1e300, nan and inf. Only the flags
that size the work (epochs, steps, iterations, hidden units, diffusion
steps) are held to small values. Whatever the input, a command exits 0, 1
or 2; a failure prints one stderr line (below argparse's usage line where
argparse refuses a flag), no traceback, and writes no output; and every
number a successful command writes is finite.
"""
import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from latentlab.cli import main
from latentlab.families import FAMILIES

# well-formed cells: category codes, and moderate reals for the real kinds
CODES = st.sampled_from(["0", "1", "2"])
REAL_CELLS = st.one_of(CODES, st.floats(-5, 5, allow_nan=False).map(repr))
ODD_CELLS = st.sampled_from(["1e308", "-1e308", "nan", "inf", "-inf", "abc", "", "-1", "0.5",
                             "-0", "1e-300", "2.0", " 1", "0x1", "1,5"])
DX_HEADERS = st.sampled_from(["dx=1", "dx=2", "dx=0", "dx=-1", "dx=x", "dx=1.5", "dx="])


def values(good, odd):
    """A flag's value: left out (4 in 8), a good one (3 in 8) or an odd one."""
    return st.integers(0, 7).flatmap(
        lambda i: st.none() if i < 4 else st.sampled_from(good if i < 7 else odd or good))


# the flags that size the work (WORK) stay small; argparse refuses a non-integer
# for an int flag
WORK = values(["1", "2", "3"], ["0", "-1", "1e300", "nan", "1.5"])
SIZES = values(["1", "2", "3"], ["0", "-1", "-5", "4", "7", "1e300", "inf", "1e-300"])
REALS = values(["0.001", "0.01", "0.5", "1", "2"],
               ["0", "-0", "-1", "1e-300", "1e300", "nan", "inf", "-inf"])
FLAG_VALUES = {"epochs": WORK, "steps": WORK, "max_iters": WORK, "hidden": WORK, "T": WORK,
               "k": SIZES, "latent_dim": SIZES, "batch": SIZES, "quad_nodes": SIZES,
               "vocab": SIZES, "alphabet": SIZES, "layers": SIZES, "lr": REALS,
               "rel_tol": REALS, "alpha": REALS, "beta": REALS, "sigma_dec": REALS,
               "likelihood": values(["gaussian", "bernoulli"], [])}


@st.composite
def lines(draw, width, cells, sep, ragged):
    """Data lines of width cells, with blank lines among them; ragged ones
    may have a cell more or less."""
    out = []
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 9)) == 0:
            out.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        n = width + (draw(st.sampled_from([-1, 0, 0, 1])) if ragged else 0)
        out.append(sep.join(draw(cells) for _ in range(max(n, 0))))
    return out


@st.composite
def data_files(draw, kind):
    """The text of an input file of the kind: well-formed, or drawn from the
    whole grammar."""
    good = CODES if kind in ("codes", "seq", "corpus") else REAL_CELLS
    odd = not draw(st.booleans())
    cells = st.one_of(good, good, ODD_CELLS) if odd else good
    width = draw(st.integers(1, 3))
    head = [draw(DX_HEADERS)] if odd and draw(st.integers(0, 3)) == 0 else []
    if kind in ("matrix", "codes"):
        head = head or [",".join(f"x{j}" for j in range(width))]
        body = draw(lines(width, cells, ",", odd))
    elif kind == "real_seq":
        head = head or [f"dx={width}"]
        body = draw(lines(width * draw(st.integers(1, 4)), cells, " ", odd))
    else:
        body = draw(lines(draw(st.integers(1, 6)), cells, " ", True))
    return "\n".join(head + body) + draw(st.sampled_from(["\n", "", "\r\n"]))


@st.composite
def cases(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    record = FAMILIES[family]
    flags = {flag: draw(FLAG_VALUES[flag]) for flag in record.flags}
    return family, draw(data_files(record.input)), {f: v for f, v in flags.items() if v}


def _separable_responses():
    rng = np.random.default_rng(0)
    theta, t = np.sort(rng.standard_normal(200)), np.sort(rng.standard_normal(5))
    rows = (theta[:, None] > t[None, :]).astype(int)
    return "x0,x1,x2,x3,x4\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)


BLOBS = "x0,x1,x2\n" + "".join(f"{i % 3 - 1.5 * (i % 2)},{(i * 7) % 5 / 2},{i / 10 - 1}\n"
                               for i in range(30))


def _run(argv):
    """(exit code, stdout, stderr) of cli.main(argv)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _finite_rows(text, sep=","):
    """The rows under the header of a written CSV: each as wide as the
    header, which names at least one column, and every number finite."""
    header, *rows = text.split("\n")[:-1]
    assert header and all(header.split(sep)), header
    for row in rows:
        values = [float(v) for v in row.split(sep)]
        assert len(values) == len(header.split(sep)) and all(map(math.isfinite, values)), row


def _refuse(constant):
    raise AssertionError(f"{constant} in the model file")


def _check(code, out, err, written):
    assert code in (0, 1, 2), code
    assert "Traceback" not in err and "Warning" not in err, err
    if code:
        # argparse refuses a flag's value below its usage line
        message = err.split("\n")[-2] if err.startswith("usage: ") else err
        assert err.endswith("\n") and message.count("\n") <= 1, err
        assert message.startswith(("latentlab: ", "latentlab fit: error: ")), err
        assert out == "" and not any(os.path.exists(p) for p in written), written
    else:
        assert all(line.startswith("latentlab: fit ") for line in err.splitlines()), err


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(cases())
@example(("irt", _separable_responses(), {"max_iters": "500"}))
@example(("gmm", BLOBS, {"rel_tol": "0"}))
@example(("ppca", BLOBS, {"latent_dim": "0"}))
def test_fit_eval_and_infer_hold_the_exit_contract(case):
    family, text, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        data, model, inferred = (os.path.join(tmp, name) for name in ("data", "m.json", "i.csv"))
        with open(data, "w", newline="") as fh:
            fh.write(text)
        argv = ["fit", family, "--data", data, "--out", model]
        for flag, value in flags.items():
            argv.append(f"--{flag.replace('_', '-')}={value}")
        code, out, err = _run(argv)
        _check(code, out, err, [model, model + ".trace.csv"])
        if code:
            return
        with open(model) as fh:
            json.load(fh, parse_constant=_refuse)
        with open(model + ".trace.csv") as fh:
            _finite_rows(fh.read())
        code, out, err = _run(["eval", model, "--data", data])
        _check(code, out, err, [])
        if code == 0:
            assert all(math.isfinite(float(line.split()[-1])) for line in out.splitlines())
        code, out, err = _run(["infer", model, "--data", data, "--out", inferred])
        _check(code, out, err, [inferred])
        if code == 0:
            with open(inferred) as fh:
                _finite_rows(fh.read())
