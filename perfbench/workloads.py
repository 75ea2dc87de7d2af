"""The four benchmark workloads: inputs, jobs and per-job correctness checks.

A workload is a list of jobs run in order; one execution of the list is a
pass. A job's run() is the timed part. Its collect() reads back what it wrote
and its check() verifies the output; both are untimed. A failed check raises
CheckError and counts as a failed job without stopping the pass.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np

from latentlab import (arm, cli, diffusion, flow, gan, irt, lda, mixture, ppca,
                       sequential, vae)
from latentlab.core import RandomSource
from latentlab.em import EmConfig

import inputs

# Sizes used by each workload; recorded beside every result. Iteration caps
# sit below the iteration count at which each fit converges on every seed
# tried, so a pass does the same work on every seed.
SIZES = {
    "flat-em": {
        "gmm": {"N": 100_000, "d": 8, "K": 5, "max_iters": 3, "held_out": 100_000},
        "ppca": {"N": 20_000, "D": 16, "M": 3, "rel_tol": 1e-12, "held_out": 20_000},
        "lca": {"N": 20_000, "items": 20, "categories": 3, "K": 3, "max_iters": 15,
                "held_out": 20_000},
        "irt": {"N": 10_000, "items": 20, "quad_nodes": 41, "max_iters": 8,
                "held_out": 10_000},
    },
    "seq-ragged": {
        "hmm": {"sequences": 100, "mean_len": 200, "K": 4, "symbols": 6, "max_iters": 2,
                "held_out_sequences": 30},
        "ghmm": {"sequences": 30, "mean_len": 100, "K": 3, "d": 2, "max_iters": 5,
                 "held_out_sequences": 15},
        "lds": {"sequences": 20, "mean_len": 100, "dx": 4, "dz": 2, "max_iters": 4,
                "held_out_sequences": 10, "sample_T": 2_000},
        "lda": {"docs": 100, "mean_len": 60, "V": 500, "K": 5, "max_iters": 10},
    },
    "deep-minibatch": {
        "real": {"N": 5_000, "d": 8, "held_out": 1_000},
        "arm": {"N": 5_000, "length": 10, "alphabet": 4, "held_out": 1_000},
        "epochs": 2, "batch": 64, "gan_steps": 160, "sample_n": 1_000,
        "diffusion_T": 50, "flow_layers": 4,
    },
    "cli-session": {
        "rows": 4_000, "gmm": {"d": 8, "K": 5, "max_iters": 3},
        "ppca": {"D": 16, "M": 3, "max_iters": 20},
        "lca": {"items": 20, "categories": 3, "K": 3, "max_iters": 10},
        "irt": {"items": 20, "max_iters": 5},
        "vae": {"latent_dim": 2, "epochs": 1},
        "hmm": {"T": 5_000, "K": 4, "symbols": 6, "max_iters": 2},
        "lds": {"T": 1_000, "dx": 4, "dz": 2, "max_iters": 2},
    },
}

# Objective slack run_em grants each family; c01 uses the same values.
EM_SLACK = 1e-8
LOOSE_SLACK = 1e-6      # irt and lda
# c02: PPCA-EM run to rel_tol 1e-12 must match the closed form this closely.
C02_LOGLIK_TOL = 1e-4
C02_COV_TOL = 1e-3


class CheckError(Exception):
    """A job's output failed a correctness check."""


@dataclass
class Job:
    name: str
    kind: str                    # "fit", "score" or "other"
    run: object                  # run(ctx) -> result; the timed part
    check: object                # check(result, ctx) -> None; raises CheckError
    collect: object = None       # collect(result) -> result; reads back files


@dataclass
class Workload:
    name: str
    jobs: list
    sizes: dict
    cli: bool = False


@dataclass
class PassContext:
    """State of one pass: collected results of earlier jobs, and for
    cli-session whether argv runs in this process through cli.main."""

    results: dict = field(default_factory=dict)
    inproc: bool = False


# -- digests ---------------------------------------------------------------------

def digest(obj):
    """sha256 over a canonical byte form of a job's output."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


def _feed(h, obj):
    if isinstance(obj, bytes):
        h.update(obj)
    elif isinstance(obj, str):
        h.update(obj.encode())
    elif obj is None or isinstance(obj, bool):
        h.update(repr(obj).encode())
    elif isinstance(obj, (int, float, np.number, np.ndarray)):
        a = np.ascontiguousarray(obj)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            _feed(h, key)
            _feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif dataclasses.is_dataclass(obj):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _feed(h, getattr(obj, f.name))
    elif isinstance(getattr(obj, "values", None), np.ndarray):     # nn.Tensor
        _feed(h, obj.values)
    else:
        raise TypeError(f"cannot digest {type(obj).__name__}")


# -- checks ------------------------------------------------------------------------

def expect(cond, msg):
    if not cond:
        raise CheckError(msg)


def finite(what, *arrays):
    for a in arrays:
        expect(np.all(np.isfinite(np.asarray(a, dtype=float))), f"{what}: non-finite values")


def simplex_rows(what, rows, n_rows):
    rows = np.asarray(rows, dtype=float)
    expect(rows.ndim == 2 and rows.shape[0] == n_rows, f"{what}: expected {n_rows} rows")
    expect(np.all(rows >= -1e-12), f"{what}: negative probabilities")
    expect(np.allclose(rows.sum(axis=1), 1.0, atol=1e-9), f"{what}: rows do not sum to 1")


def close(what, a, b, rel=1e-9):
    expect(math.isclose(a, b, rel_tol=rel, abs_tol=rel), f"{what}: {a!r} != {b!r}")


def check_em(report, rescored, slack):
    """Finite trace, non-decreasing within run_em's slack, and a final
    objective equal to a fresh re-score of the returned parameters."""
    trace = np.asarray(report.objective_trace)
    expect(trace.size == report.iters >= 1, "trace length differs from iteration count")
    finite("objective trace", trace)
    expect(np.all(np.diff(trace) >= -slack), "objective trace decreases beyond slack")
    close("final objective vs re-score", report.final_objective, rescored)


def em_check(rescore, slack=EM_SLACK):
    """Check of an EM fit job that returns (params, report)."""
    def check(res, ctx):
        params, rep = res
        _params_finite(params)
        check_em(rep, rescore(params), slack)
    return check


def _params_finite(obj):
    finite("parameters", *_arrays(obj))


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _arrays(getattr(obj, f.name))
    elif isinstance(getattr(obj, "values", None), np.ndarray):
        yield obj.values


# -- flat-em -------------------------------------------------------------------------

def flat_em(seed, workdir):
    s = SIZES["flat-em"]
    g, p, c, r = s["gmm"], s["ppca"], s["lca"], s["irt"]
    Xg, Xg_test = inputs.gmm_data(inputs.rng_for(seed, 1), (g["N"], g["held_out"]),
                                  g["d"], g["K"])
    Xp, Xp_test = inputs.ppca_data(inputs.rng_for(seed, 2), (p["N"], p["held_out"]),
                                   p["D"], p["M"])
    Xl, Xl_test = inputs.lca_data(inputs.rng_for(seed, 3), (c["N"], c["held_out"]),
                                  c["items"], c["categories"], c["K"])
    Xi, Xi_test = inputs.irt_data(inputs.rng_for(seed, 4), (r["N"], r["held_out"]),
                                  r["items"])
    quad = irt.default_quadrature(r["quad_nodes"])

    def cfg(max_iters=500, rel_tol=1e-7):
        return EmConfig(max_iters=max_iters, rel_tol=rel_tol, seed=seed)

    def check_ppca_closed(star, ctx):
        em_params, em_rep = ctx.results["ppca.fit_em"]
        _params_finite(star)
        D = p["D"]
        ll_star = ppca.marginal_loglik(star, Xp)
        expect(abs(em_rep.final_objective - ll_star) < C02_LOGLIK_TOL,
               f"PPCA-EM loglik {em_rep.final_objective!r} vs closed form {ll_star!r}")
        cov_em = em_params.W @ em_params.W.T + em_params.sigma2 * np.eye(D)
        cov_star = star.W @ star.W.T + star.sigma2 * np.eye(D)
        expect(np.linalg.norm(cov_em - cov_star) < C02_COV_TOL,
               "PPCA-EM covariance differs from the closed form")

    def check_loglik(value, ctx):
        finite("held-out log-likelihood", value)

    jobs = [
        Job("gmm.fit", "fit", lambda ctx: mixture.fit_gmm(Xg, g["K"], cfg(g["max_iters"])),
            em_check(lambda q: mixture.gmm_loglik(q, Xg))),
        Job("ppca.fit_em", "fit", lambda ctx: ppca.fit_em(Xp, p["M"], cfg(rel_tol=p["rel_tol"],
                                                                           max_iters=5000)),
            em_check(lambda q: ppca.marginal_loglik(q, Xp))),
        Job("ppca.fit_closed_form", "fit", lambda ctx: ppca.fit_closed_form(Xp, p["M"]),
            check_ppca_closed),
        Job("lca.fit", "fit", lambda ctx: mixture.fit_lca(Xl, c["K"], cfg(c["max_iters"])),
            em_check(lambda q: mixture.lca_loglik(q, Xl))),
        Job("irt.fit", "fit", lambda ctx: irt.fit_irt(Xi, quad, cfg(r["max_iters"])),
            em_check(lambda q: irt.marginal_loglik(q, Xi, quad), LOOSE_SLACK)),
        Job("gmm.loglik", "score",
            lambda ctx: mixture.gmm_loglik(ctx.results["gmm.fit"][0], Xg_test), check_loglik),
        Job("gmm.posterior", "score",
            lambda ctx: mixture.gmm_e_step(ctx.results["gmm.fit"][0], Xg_test).gamma,
            lambda res, ctx: simplex_rows("gmm posterior", res, g["held_out"])),
        Job("ppca.loglik", "score",
            lambda ctx: ppca.marginal_loglik(ctx.results["ppca.fit_em"][0], Xp_test),
            check_loglik),
        Job("lca.loglik", "score",
            lambda ctx: mixture.lca_loglik(ctx.results["lca.fit"][0], Xl_test), check_loglik),
        Job("lca.posterior", "score",
            lambda ctx: mixture.lca_e_step(ctx.results["lca.fit"][0], Xl_test).gamma,
            lambda res, ctx: simplex_rows("lca posterior", res, c["held_out"])),
        Job("irt.loglik", "score",
            lambda ctx: irt.marginal_loglik(ctx.results["irt.fit"][0], Xi_test, quad),
            check_loglik),
    ]
    return Workload("flat-em", jobs, s)


# -- seq-ragged ----------------------------------------------------------------------

def seq_ragged(seed, workdir):
    s = SIZES["seq-ragged"]
    h, gh, l, d = s["hmm"], s["ghmm"], s["lds"], s["lda"]

    def length_sets(stream, spec):
        rng = inputs.rng_for(seed, stream)
        return [inputs.ragged_lengths(rng, spec["sequences"], spec["mean_len"]),
                inputs.ragged_lengths(rng, spec["held_out_sequences"], spec["mean_len"])]

    hs, hs_test = inputs.hmm_discrete_seqs(inputs.rng_for(seed, 11), length_sets(21, h),
                                           h["K"], h["symbols"])
    gs, gs_test = inputs.hmm_gaussian_seqs(inputs.rng_for(seed, 12), length_sets(22, gh),
                                           gh["K"], gh["d"])
    ls, ls_test = inputs.lds_seqs(inputs.rng_for(seed, 13), length_sets(23, l), l["dx"])
    docs = inputs.corpus_docs(inputs.rng_for(seed, 14), d["docs"], d["mean_len"], d["V"],
                              d["K"])
    corpus = lda.Corpus(tuple(docs), d["V"])
    hyper = lda.LdaHyper(1.0, 1.0, d["K"], d["V"])       # the CLI's default concentrations
    recorded = dict(s, tokens=int(sum(len(doc) for doc in docs)),
                    steps={"hmm": int(sum(map(len, hs))), "ghmm": int(sum(map(len, gs))),
                           "lds": int(sum(map(len, ls)))})

    def cfg(max_iters, rel_tol=1e-7):
        return EmConfig(max_iters=max_iters, rel_tol=rel_tol, seed=seed)

    def fb_logliks(name, seqs):
        return lambda ctx: np.array([sequential.hmm_forward_backward(ctx.results[name][0], o).loglik
                                     for o in seqs])

    def check_scores(upper=None):
        def check(res, ctx):
            finite("held-out log-likelihoods", res)
            if upper is not None:
                expect(np.all(res <= upper), "discrete log-likelihood above 0")
        return check

    def smooth(ctx):
        params = ctx.results["lds.fit"][0]
        return [sequential.kalman_smooth(params, o) for o in ls_test]

    def check_smooth(res, ctx):
        for sm, o in zip(res, ls_test):
            expect(sm.means.shape == (len(o), l["dz"]), "smoothed means have the wrong shape")
            finite("smoothed moments", sm.means, sm.covs, sm.loglik)

    def check_lds_sample(res, ctx):
        Z, X = res
        expect(Z.shape == (l["sample_T"], l["dz"]) and X.shape == (l["sample_T"], l["dx"]),
               "sampled sequence has the wrong shape")
        finite("sampled sequence", Z, X)

    jobs = [
        Job("hmm.fit", "fit",
            lambda ctx: sequential.hmm_fit(hs, h["K"], "discrete", cfg(h["max_iters"]),
                                           n_symbols=h["symbols"]),
            em_check(lambda q: sequential.hmm_loglik(q, hs))),
        Job("ghmm.fit", "fit",
            lambda ctx: sequential.hmm_fit(gs, gh["K"], "gaussian", cfg(gh["max_iters"])),
            em_check(lambda q: sequential.hmm_loglik(q, gs))),
        Job("lds.fit", "fit", lambda ctx: sequential.lds_fit(ls, l["dz"], cfg(l["max_iters"])),
            em_check(lambda q: sequential.lds_loglik(q, ls))),
        Job("lda.fit", "fit",
            lambda ctx: lda.fit_lda(hyper, corpus, cfg(d["max_iters"], rel_tol=1e-6)),
            em_check(lambda q: lda.elbo(hyper, corpus, q), LOOSE_SLACK)),
        Job("hmm.score", "score", fb_logliks("hmm.fit", hs_test), check_scores(upper=0.0)),
        Job("ghmm.score", "score", fb_logliks("ghmm.fit", gs_test), check_scores()),
        Job("lds.smooth", "score", smooth, check_smooth),
        Job("lds.sample", "score",
            lambda ctx: sequential.lds_sample(ctx.results["lds.fit"][0], l["sample_T"],
                                              RandomSource(seed).split(1)),
            check_lds_sample),
    ]
    return Workload("seq-ragged", jobs, recorded)


# -- deep-minibatch --------------------------------------------------------------------

def deep_minibatch(seed, workdir):
    s = SIZES["deep-minibatch"]
    rs, ra = s["real"], s["arm"]
    X, X_test = (inputs.standardized(x) for x in
                 inputs.gmm_data(inputs.rng_for(seed, 31), (rs["N"], rs["held_out"]),
                                 rs["d"], 4, spread=1.5, cov_scale=0.3))
    A, A_test = inputs.markov_codes(inputs.rng_for(seed, 32), (ra["N"], ra["held_out"]),
                                    ra["length"], ra["alphabet"])
    epochs, batch, n = s["epochs"], s["batch"], s["sample_n"]

    def src(salt):
        return RandomSource(seed).split(salt)

    def train(make, fit):
        def run(ctx):
            model = make()
            return model, fit(model)
        return run

    def check_train(res, ctx):
        model, trace = res
        for t in (trace if isinstance(trace, tuple) else (trace,)):
            expect(len(t) > 0, "empty training trace")
            finite("training trace", t)
        _params_finite(model)

    def check_rows(width, lo=None, hi=None):
        def check(res, ctx):
            res = np.asarray(res)
            expect(res.shape == (n, width), f"samples have shape {res.shape}")
            finite("samples", res)
            if lo is not None:
                expect(res.min() >= lo and res.max() <= hi, "sampled symbol out of range")
        return check

    def check_values(res, ctx):
        finite("held-out scores", res)

    d = rs["d"]
    jobs = [
        Job("vae.train", "fit", train(lambda: vae.make_vae(d, 2, src(1)),
                                      lambda m: vae.train(m, X, epochs, batch, src(2))),
            check_train),
        Job("flow.fit", "fit",
            train(lambda: flow.make_coupling_stack(d, s["flow_layers"], src(3)),
                  lambda m: flow.fit(m, X, epochs, batch, src(4))), check_train),
        Job("diffusion.train", "fit",
            train(lambda: diffusion.make_diffusion(d, src(5), T=s["diffusion_T"]),
                  lambda m: diffusion.train(m, X, epochs, batch, src(6))), check_train),
        Job("arm.train", "fit",
            train(lambda: arm.make_ar_model(ra["length"], ra["alphabet"], src(7)),
                  lambda m: arm.train(m, A, epochs, batch, src(8))), check_train),
        Job("gan.train", "fit",
            train(lambda: gan.make_gan(d, 2, src(9)),
                  lambda m: gan.train(m, X, s["gan_steps"], batch, src(10))), check_train),
        Job("vae.sample", "score", lambda ctx: vae.sample(ctx.results["vae.train"][0], n, src(11)),
            check_rows(d)),
        Job("vae.elbo", "score",
            lambda ctx: vae.elbo(ctx.results["vae.train"][0], X_test, src(12),
                                 n_samples=16).elbo.values,
            check_values),
        Job("flow.sample", "score",
            lambda ctx: flow.sample(ctx.results["flow.fit"][0], n, src(13)), check_rows(d)),
        Job("flow.loglik", "score",
            lambda ctx: flow.log_likelihood(ctx.results["flow.fit"][0], X_test), check_values),
        Job("diffusion.sample", "score",
            lambda ctx: diffusion.sample(ctx.results["diffusion.train"][0], n, src(14)),
            check_rows(d)),
        Job("arm.sample", "score", lambda ctx: arm.sample(ctx.results["arm.train"][0], n, src(15)),
            check_rows(ra["length"], 0, ra["alphabet"] - 1)),
        Job("arm.loglik", "score",
            lambda ctx: arm.log_likelihood_batch(ctx.results["arm.train"][0], A_test),
            check_values),
        Job("gan.sample", "score", lambda ctx: gan.sample(ctx.results["gan.train"][0], n, src(16)),
            check_rows(d)),
    ]
    return Workload("deep-minibatch", jobs, s)


# -- cli-session ---------------------------------------------------------------------

@dataclass
class CliRun:
    """What one command wrote: its stdout, and the files collect() read back."""

    stdout: str
    files: dict = field(default_factory=dict)


def run_argv(argv, inproc):
    """One latentlab command, as a child process or through cli.main here.
    A nonzero exit code fails the job."""
    if inproc:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        stdout, stderr = out.getvalue(), err.getvalue()
    else:
        proc = subprocess.run([sys.executable, "-m", "latentlab", *argv],
                              capture_output=True, text=True, timeout=150)
        code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    expect(code == 0, f"exit code {code}: {stderr.strip()[-300:]}")
    return CliRun(stdout)


def _read_file(path):
    with open(path, "rb") as fh:
        return fh.read()


def _read_csv(blob):
    return np.loadtxt(io.BytesIO(blob), delimiter=",", skiprows=1, ndmin=2)


def _trace_values(blob):
    lines = blob.decode().split("\n")
    expect(lines[0] == "iter,objective", "trace file lacks its header")
    return np.array([float(ln.split(",")[1]) for ln in lines[1:] if ln])


def _eval_lines(stdout):
    lines = [ln for ln in stdout.split("\n") if ln]
    expect(len(lines) >= 2 and lines[-1].startswith("total "), "eval output lacks a total")
    values = np.array([float(v) for v in lines[:-1]])
    total = float(lines[-1].split()[1])
    finite("eval values", values, total)
    close("eval total vs sum of lines", total, float(np.sum(values)), rel=1e-12)
    return total


def cli_session(seed, workdir):
    s = SIZES["cli-session"]
    N = s["rows"]
    g, p, c, r, h, l = s["gmm"], s["ppca"], s["lca"], s["irt"], s["hmm"], s["lds"]

    def path(name):
        return os.path.join(workdir, name)

    # Inputs, written with the benchmark's own writers.
    Xg, Xg_test = inputs.gmm_data(inputs.rng_for(seed, 41), (N, N), g["d"], g["K"])
    inputs.write_csv(path("gmm.csv"), Xg)
    inputs.write_csv(path("gmm_test.csv"), Xg_test)
    (Xp,) = inputs.ppca_data(inputs.rng_for(seed, 42), (N,), p["D"], p["M"])
    inputs.write_csv(path("ppca.csv"), Xp)
    (Xl,) = inputs.lca_data(inputs.rng_for(seed, 43), (N,), c["items"], c["categories"], c["K"])
    inputs.write_csv(path("lca.csv"), Xl)
    (Xi,) = inputs.irt_data(inputs.rng_for(seed, 44), (N,), r["items"])
    inputs.write_csv(path("irt.csv"), Xi)
    ((hseq,),) = inputs.hmm_discrete_seqs(inputs.rng_for(seed, 45), [[h["T"]]], h["K"],
                                           h["symbols"])
    inputs.write_discrete_seq(path("hmm.seq"), [hseq])
    ((lseq,),) = inputs.lds_seqs(inputs.rng_for(seed, 46), [[l["T"]]], l["dx"])
    inputs.write_real_seq(path("lds.seq"), [lseq])
    spec_rng = inputs.rng_for(seed, 47)
    spec = {"family": "gmm", "n": N, "seed": seed,
            "params": {"weights": spec_rng.dirichlet(np.full(3, 5.0)).tolist(),
                       "means": spec_rng.normal(0, 3, (3, 2)).tolist(),
                       "covs": [np.eye(2).tolist()] * 3}}
    with open(path("spec.json"), "w") as fh:
        json.dump(spec, fh)

    jobs = []

    def add(kind, argv, outputs=(), check=None):
        full = [a if not a.startswith("@") else path(a[1:]) for a in argv] + ["--seed", str(seed)]
        files = [path(o) for o in outputs]

        def collect(res):
            res.files = {os.path.basename(f): _read_file(f) for f in files if os.path.exists(f)}
            return res

        def full_check(res, ctx):
            for name in map(os.path.basename, files):
                expect(name in res.files, f"{name} was not written")
            if check is not None:
                check(res, ctx)

        jobs.append(Job(_cli_name(argv), kind, lambda ctx: run_argv(full, ctx.inproc),
                        full_check, collect))

    def fitted(family, slack=EM_SLACK, monotone=True):
        def check(res, ctx):
            doc = json.loads(res.files[f"{family}.json"])
            expect(doc.get("schema") == "latentlab-model-v1" and doc.get("family") == family,
                   "model file has the wrong schema or family")
            finite("model parameters", np.fromiter(_json_numbers(doc["params"]), float))
            trace = _trace_values(res.files[f"{family}.json.trace.csv"])
            expect(trace.size >= 1, "empty trace")
            finite("trace", trace)
            if monotone:
                expect(np.all(np.diff(trace) >= -slack), "trace decreases beyond slack")
        return check

    def rows(out, n, width=None, simplex=False):
        def check(res, ctx):
            X = _read_csv(res.files[out])
            expect(X.shape[0] == n, f"{out}: {X.shape[0]} rows, expected {n}")
            if width is not None:
                expect(X.shape[1] == width, f"{out}: {X.shape[1]} columns, expected {width}")
            finite(out, X)
            if simplex:
                simplex_rows(out, X, n)
        return check

    def eval_matches_fit(fit_job):
        def check(res, ctx):
            total = _eval_lines(res.stdout)
            family = fit_job.split()[1]
            last = _trace_values(ctx.results[fit_job].files[f"{family}.json.trace.csv"])[-1]
            close("eval total on the training data vs final trace value", total, last)
        return check

    add("other", ["synth", "@spec.json", "--out", "@synth.csv"], ["synth.csv"],
        rows("synth.csv", N, 2))
    add("fit", ["fit", "gmm", "--data", "@gmm.csv", "--k", str(g["K"]),
                "--max-iters", str(g["max_iters"]), "--out", "@gmm.json"],
        ["gmm.json", "gmm.json.trace.csv"], fitted("gmm"))
    add("score", ["eval", "@gmm.json", "--data", "@gmm.csv"], (), eval_matches_fit("fit gmm"))
    add("score", ["infer", "@gmm.json", "--data", "@gmm_test.csv", "--out", "@gmm_infer.csv"],
        ["gmm_infer.csv"], rows("gmm_infer.csv", N, g["K"], simplex=True))
    add("fit", ["fit", "ppca", "--data", "@ppca.csv", "--latent-dim", str(p["M"]),
                "--max-iters", str(p["max_iters"]), "--out", "@ppca.json"],
        ["ppca.json", "ppca.json.trace.csv"], fitted("ppca"))
    add("score", ["reconstruct", "@ppca.json", "--data", "@ppca.csv", "--out", "@ppca_rec.csv"],
        ["ppca_rec.csv"], rows("ppca_rec.csv", N, p["D"]))
    add("fit", ["fit", "lca", "--data", "@lca.csv", "--k", str(c["K"]),
                "--max-iters", str(c["max_iters"]), "--out", "@lca.json"],
        ["lca.json", "lca.json.trace.csv"], fitted("lca"))
    add("score", ["infer", "@lca.json", "--data", "@lca.csv", "--out", "@lca_infer.csv"],
        ["lca_infer.csv"], rows("lca_infer.csv", N, c["K"], simplex=True))
    add("fit", ["fit", "irt", "--data", "@irt.csv", "--max-iters", str(r["max_iters"]),
                "--out", "@irt.json"],
        ["irt.json", "irt.json.trace.csv"], fitted("irt", slack=LOOSE_SLACK))
    add("score", ["infer", "@irt.json", "--data", "@irt.csv", "--out", "@irt_infer.csv"],
        ["irt_infer.csv"], rows("irt_infer.csv", N, 2))
    add("fit", ["fit", "vae", "--data", "@gmm.csv", "--latent-dim", str(s["vae"]["latent_dim"]),
                "--epochs", str(s["vae"]["epochs"]), "--out", "@vae.json"],
        ["vae.json", "vae.json.trace.csv"], fitted("vae", monotone=False))
    add("fit", ["fit", "hmm", "--data", "@hmm.seq", "--k", str(h["K"]),
                "--max-iters", str(h["max_iters"]), "--out", "@hmm.json"],
        ["hmm.json", "hmm.json.trace.csv"], fitted("hmm"))
    add("score", ["sample", "@hmm.json", "--n", str(h["T"]), "--out", "@hmm_sample.csv"],
        ["hmm_sample.csv"], rows("hmm_sample.csv", h["T"], 1))
    add("fit", ["fit", "lds", "--data", "@lds.seq", "--latent-dim", str(l["dz"]),
                "--max-iters", str(l["max_iters"]), "--out", "@lds.json"],
        ["lds.json", "lds.json.trace.csv"], fitted("lds"))
    return Workload("cli-session", jobs, s, cli=True)


def _cli_name(argv):
    """Job name: the command, then the family or model file, e.g. 'infer gmm'."""
    target = argv[1].lstrip("@")
    return f"{argv[0]} {target.split('.')[0]}"


def _json_numbers(obj):
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield obj
    elif isinstance(obj, list):
        for item in obj:
            yield from _json_numbers(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from _json_numbers(item)


WORKLOADS = {"flat-em": flat_em, "seq-ragged": seq_ragged,
             "deep-minibatch": deep_minibatch, "cli-session": cli_session}
