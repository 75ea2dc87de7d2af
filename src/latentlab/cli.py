"""Command-line front end: fit / sample / eval / infer / reconstruct / synth
across every model family, emitting plot-ready trace files.

Every command is a pure function of (config, input files, seed): repeated
runs with the same seed produce byte-identical outputs. Exit codes: 0 on
success, 2 on usage errors, 1 on numeric failures. Flags override values
from an optional JSON --config file. LATENTLAB_THREADS caps the worker
count modules may use for data-parallel E-steps (default: available cores).
"""
from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import arm as arm_mod
from . import datasets
from . import diffusion as diff_mod
from . import flow as flow_mod
from . import gan as gan_mod
from . import irt as irt_mod
from . import lda as lda_mod
from . import mixture
from . import ppca as ppca_mod
from . import sequential as seq_mod
from . import vae as vae_mod
from .core import NumericError, RandomSource
from .em import EmConfig, MonotonicityError

__all__ = ["main", "console_main", "worker_count"]

FIT_FAMILIES = ("ppca", "gmm", "lca", "irt", "lda", "hmm", "ghmm", "lds",
                "vae", "flow", "diffusion", "arm", "gan")
FMT = "%.17g"


def worker_count():
    """Worker cap for data-parallel E-steps (LATENTLAB_THREADS, default cores)."""
    cores = os.cpu_count() or 1
    raw = os.environ.get("LATENTLAB_THREADS")
    if raw is None:
        return cores
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"LATENTLAB_THREADS must be an integer, got {raw!r}")
    return max(1, min(n, cores))


class UsageError(Exception):
    pass


def _build_parser():
    top = argparse.ArgumentParser(prog="latentlab", add_help=True)
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--config", type=str, default=None,
                       help="JSON file of defaults; flags override")

    fit = sub.add_parser("fit", help="fit a model family to a dataset")
    fit.add_argument("family", choices=FIT_FAMILIES)
    fit.add_argument("--data", required=True)
    fit.add_argument("--out", required=True)
    fit.add_argument("--k", type=int, default=2, help="components / classes / states / topics")
    fit.add_argument("--latent-dim", type=int, default=1)
    fit.add_argument("--T", type=int, default=50, help="diffusion steps")
    fit.add_argument("--epochs", type=int, default=50)
    fit.add_argument("--batch", type=int, default=64)
    fit.add_argument("--steps", type=int, default=500, help="GAN training steps")
    fit.add_argument("--hidden", type=int, default=64)
    fit.add_argument("--lr", type=float, default=1e-3)
    fit.add_argument("--max-iters", type=int, default=500)
    fit.add_argument("--rel-tol", type=float, default=None)
    fit.add_argument("--alpha", type=float, default=1.0, help="LDA document concentration")
    fit.add_argument("--beta", type=float, default=1.0, help="LDA topic concentration")
    fit.add_argument("--vocab", type=int, default=None, help="LDA vocabulary size")
    fit.add_argument("--quad-nodes", type=int, default=41)
    fit.add_argument("--likelihood", choices=("gaussian", "bernoulli"), default="gaussian")
    fit.add_argument("--sigma-dec", type=float, default=0.1)
    fit.add_argument("--seq-len", type=int, default=None, help="ARM sequence length")
    fit.add_argument("--alphabet", type=int, default=None, help="ARM alphabet size")
    fit.add_argument("--layers", type=int, default=4, help="flow coupling layers")
    add_common(fit)

    smp = sub.add_parser("sample", help="draw new data from a fitted model")
    smp.add_argument("model")
    smp.add_argument("--n", type=int, required=True)
    smp.add_argument("--out", required=True)
    smp.add_argument("--from", dest="mode", choices=("prior", "posterior"), default="prior")
    smp.add_argument("--given", type=str, default=None,
                     help="CSV of conditioning observations (posterior mode)")
    add_common(smp)

    ev = sub.add_parser("eval", help="log-likelihood (or bound) per point and total")
    ev.add_argument("model")
    ev.add_argument("--data", required=True)
    add_common(ev)

    inf = sub.add_parser("infer", help="posterior summaries per data point")
    inf.add_argument("model")
    inf.add_argument("--data", required=True)
    inf.add_argument("--out", required=True)
    add_common(inf)

    rec = sub.add_parser("reconstruct", help="posterior-mean reconstructions")
    rec.add_argument("model")
    rec.add_argument("--data", required=True)
    rec.add_argument("--out", required=True)
    add_common(rec)

    syn = sub.add_parser("synth", help="generate a synthetic dataset from a spec")
    syn.add_argument("spec")
    syn.add_argument("--out", required=True)
    add_common(syn)
    return top


def _apply_config(args, argv):
    if getattr(args, "config", None):
        with open(args.config) as fh:
            defaults = json.load(fh)
        unknown = [k for k in defaults if not hasattr(args, k.replace("-", "_"))]
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        explicit = {a.split("=")[0].lstrip("-").replace("-", "_")
                    for a in argv if a.startswith("--")}
        for key, value in defaults.items():
            attr = key.replace("-", "_")
            if attr not in explicit:
                setattr(args, attr, value)
    return args


def _em_cfg(args, default_rel_tol=1e-7):
    rel = args.rel_tol if getattr(args, "rel_tol", None) else default_rel_tol
    return EmConfig(max_iters=args.max_iters, rel_tol=rel, seed=args.seed)


def _write_trace(out_path, trace):
    lines = ["iter,objective"]
    for i, v in enumerate(np.asarray(trace, dtype=float), start=1):
        lines.append(f"{i}," + FMT % v)
    with open(out_path + ".trace.csv", "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _load_matrix(path):
    return datasets.read_csv(path)


def _cmd_fit(args):
    fam = args.family
    seed = args.seed
    if fam in ("hmm", "ghmm", "lds"):
        seqs, dx = datasets.read_seq(args.data)
        if fam != "hmm" and dx is None:
            raise UsageError(f"{fam} requires a continuous sequence file (dx= header)")
        if fam == "hmm" and dx is not None:
            raise UsageError("hmm requires a discrete sequence file")
        cfg = _em_cfg(args)
        if fam == "hmm":
            params, report = seq_mod.hmm_fit(seqs, args.k, "discrete", cfg)
            datasets.write_model(args.out, "hmm", params, _fit_config(args))
        elif fam == "ghmm":
            params, report = seq_mod.hmm_fit(seqs, args.k, "gaussian", cfg)
            datasets.write_model(args.out, "ghmm", params, _fit_config(args))
        else:
            params, report = seq_mod.lds_fit(seqs, args.latent_dim, cfg)
            datasets.write_model(args.out, "lds", params, _fit_config(args))
        _write_trace(args.out, report.objective_trace)
        return 0
    if fam == "lda":
        corpus = datasets.read_corpus(args.data, V=args.vocab)
        hyper = lda_mod.LdaHyper(args.alpha, args.beta, args.k, corpus.V)
        cfg = _em_cfg(args, default_rel_tol=1e-6)
        var, report = lda_mod.fit_lda(hyper, corpus, cfg)
        datasets.write_model(args.out, "lda", (var, hyper), _fit_config(args))
        _write_trace(args.out, report.objective_trace)
        return 0

    X = _load_matrix(args.data)
    rng = RandomSource(seed)
    if fam == "ppca":
        cfg = _em_cfg(args)
        params, report = ppca_mod.fit_em(X, args.latent_dim, cfg)
        datasets.write_model(args.out, "ppca", params, _fit_config(args))
        _write_trace(args.out, report.objective_trace)
    elif fam == "gmm":
        cfg = _em_cfg(args)
        params, report = mixture.fit_gmm(X, args.k, cfg)
        datasets.write_model(args.out, "gmm", params, _fit_config(args))
        _write_trace(args.out, report.objective_trace)
    elif fam == "lca":
        cfg = _em_cfg(args)
        params, report = mixture.fit_lca(X, args.k, cfg)
        datasets.write_model(args.out, "lca", params, _fit_config(args))
        _write_trace(args.out, report.objective_trace)
    elif fam == "irt":
        cfg = _em_cfg(args)
        quad = irt_mod.default_quadrature(args.quad_nodes)
        params, report = irt_mod.fit_irt(X, quad, cfg)
        datasets.write_model(args.out, "irt", params, _fit_config(args))
        _write_trace(args.out, report.objective_trace)
    elif fam == "vae":
        model = vae_mod.make_vae(X.shape[1], args.latent_dim, rng, hidden=args.hidden,
                                 likelihood=args.likelihood, sigma_dec=args.sigma_dec)
        trace = vae_mod.train(model, X, args.epochs, args.batch, rng.split(7), lr=args.lr)
        datasets.write_model(args.out, "vae", model, _fit_config(args))
        _write_trace(args.out, trace)
    elif fam == "flow":
        model = flow_mod.make_coupling_stack(X.shape[1], args.layers, rng, hidden=args.hidden)
        trace = flow_mod.fit(model, X, args.epochs, args.batch, rng.split(7), lr=args.lr)
        datasets.write_model(args.out, "flow", model, _fit_config(args))
        _write_trace(args.out, trace)
    elif fam == "diffusion":
        model = diff_mod.make_diffusion(X.shape[1], rng, T=args.T, hidden=args.hidden)
        trace = diff_mod.train(model, X, args.epochs, args.batch, rng.split(7), lr=args.lr)
        datasets.write_model(args.out, "diffusion", model, _fit_config(args))
        _write_trace(args.out, trace)
    elif fam == "arm":
        Xi = X.astype(int)
        seq_len = args.seq_len or Xi.shape[1]
        alphabet = args.alphabet or int(Xi.max()) + 1
        model = arm_mod.make_ar_model(seq_len, alphabet, rng, hidden=args.hidden)
        trace = arm_mod.train(model, Xi, args.epochs, args.batch, rng.split(7), lr=args.lr)
        datasets.write_model(args.out, "arm", model, _fit_config(args))
        _write_trace(args.out, trace)
    elif fam == "gan":
        model = gan_mod.make_gan(X.shape[1], args.latent_dim, rng, hidden=args.hidden)
        disc_trace, _gen_trace = gan_mod.train(model, X, args.steps, args.batch,
                                               rng.split(7), lr=args.lr)
        datasets.write_model(args.out, "gan", model, _fit_config(args))
        _write_trace(args.out, disc_trace)
    else:
        raise UsageError(f"cannot fit family {fam!r}")
    return 0


def _fit_config(args):
    keep = ("family", "seed", "k", "latent_dim", "T", "epochs", "batch", "steps",
            "hidden", "lr", "max_iters", "alpha", "beta", "quad_nodes",
            "likelihood", "sigma_dec", "layers")
    return {k: getattr(args, k) for k in keep if hasattr(args, k)}


def _cmd_sample(args):
    family, params, _config = datasets.read_model(args.model)
    rng = RandomSource(args.seed)
    n = args.n
    if family == "ppca":
        if args.mode == "posterior":
            if not args.given:
                raise UsageError("posterior sampling requires --given")
            given = _load_matrix(args.given)
            X = ppca_mod.sample(params, n, rng, mode="posterior", given=given[0])
        else:
            X = ppca_mod.sample(params, n, rng)
    elif family == "gmm":
        spec = datasets.SyntheticSpec("gmm", {"weights": params.weights,
                                              "means": params.means,
                                              "covs": params.covs}, n=n, seed=args.seed)
        X, _, _ = datasets.generate(spec)
    elif family == "lca":
        spec = datasets.SyntheticSpec("lca", {"weights": params.weights,
                                              "item_probs": params.item_probs},
                                      n=n, seed=args.seed)
        X, _, _ = datasets.generate(spec)
    elif family == "irt":
        spec = datasets.SyntheticSpec("irt", {"a": params.a, "b": params.b},
                                      n=n, seed=args.seed)
        X, _, _ = datasets.generate(spec)
    elif family in ("hmm", "ghmm"):
        _states, obs = seq_mod.hmm_sample(params, n, rng)
        X = np.atleast_2d(obs) if family == "ghmm" else np.asarray(obs, dtype=float)[:, None]
    elif family == "lds":
        _z, X = seq_mod.lds_sample(params, n, rng)
    elif family == "vae":
        X = vae_mod.sample(params, n, rng)
    elif family == "flow":
        X = flow_mod.sample(params, n, rng)
    elif family == "diffusion":
        X = diff_mod.sample(params, n, rng)
    elif family == "arm":
        X = arm_mod.sample(params, n, rng).astype(float)
    elif family == "gan":
        X = gan_mod.sample(params, n, rng)
    else:
        raise UsageError(f"cannot sample family {family!r}")
    datasets.write_csv(args.out, X)
    return 0


def _model_quadrature(config):
    """The quadrature an IRT model was fitted with (older files: the default)."""
    return irt_mod.default_quadrature(int(config.get("quad_nodes", irt_mod.DEFAULT_NODES)))


def _per_point_loglik(family, params, config, args):
    if family == "ppca":
        X = _load_matrix(args.data)
        cov = params.W @ params.W.T + params.sigma2 * np.eye(params.data_dim)
        from .core import gaussian_logpdf_rows
        return gaussian_logpdf_rows(X, params.mu, cov)
    if family == "gmm":
        X = _load_matrix(args.data)
        from .core import log_sum_exp_rows
        return log_sum_exp_rows(mixture._gmm_log_joint(params, X))
    if family == "lca":
        X = _load_matrix(args.data)
        from .core import log_sum_exp_rows
        return log_sum_exp_rows(mixture._lca_log_joint(params, mixture._check_lca_data(params, X)))
    if family == "irt":
        X = irt_mod._check_responses(_load_matrix(args.data), params.n_items)
        quad = _model_quadrature(config)
        from .core import log_sum_exp_rows
        ll = irt_mod._log_lik_at_nodes(params, X, quad)
        return log_sum_exp_rows(ll + np.log(quad.weights))
    if family == "lda":
        corpus = datasets.read_corpus(args.data, V=params["hyper"].V)
        var, _report = lda_mod.fit_lda(params["hyper"], corpus,
                                       EmConfig(max_iters=200, rel_tol=1e-6, seed=args.seed),
                                       init=None)
        return np.array([lda_mod.elbo(params["hyper"], corpus, var)])
    if family in ("hmm", "ghmm"):
        seqs, _dx = datasets.read_seq(args.data)
        return seq_mod.hmm_infer(params, seqs, smooth=False).logliks
    if family == "lds":
        seqs, _dx = datasets.read_seq(args.data)
        return seq_mod.lds_infer(params, seqs, smooth=False).logliks
    if family == "vae":
        X = _load_matrix(args.data)
        rng = RandomSource(args.seed)
        parts = vae_mod.elbo(params, X, rng, n_samples=16)
        return np.array([float(parts.elbo.values)])
    if family == "flow":
        X = _load_matrix(args.data)
        return flow_mod.log_likelihood(params, X)
    if family == "arm":
        X = _load_matrix(args.data).astype(int)
        return arm_mod.log_likelihood_batch(params, X)
    raise UsageError(f"eval is not defined for family {family!r}")


def _cmd_eval(args):
    family, params, config = datasets.read_model(args.model)
    lls = _per_point_loglik(family, params, config, args)
    for v in lls:
        print(FMT % v)
    print("total " + FMT % float(np.sum(lls)))
    return 0


def _cmd_infer(args):
    family, params, config = datasets.read_model(args.model)
    if family == "ppca":
        X = _load_matrix(args.data)
        rows = ppca_mod.posterior_means(params, X)
        datasets.write_csv(args.out, rows, header=[f"z{j}" for j in range(rows.shape[1])])
    elif family == "gmm":
        X = _load_matrix(args.data)
        rows = mixture.gmm_e_step(params, X).gamma
        datasets.write_csv(args.out, rows, header=[f"gamma{j}" for j in range(rows.shape[1])])
    elif family == "lca":
        X = _load_matrix(args.data)
        rows = mixture.lca_e_step(params, X).gamma
        datasets.write_csv(args.out, rows, header=[f"gamma{j}" for j in range(rows.shape[1])])
    elif family == "irt":
        X = _load_matrix(args.data)
        rows = np.column_stack(irt_mod.posterior_moments(params, X, _model_quadrature(config)))
        datasets.write_csv(args.out, rows, header=["eap", "sd"])
    elif family in ("hmm", "ghmm"):
        seqs, _dx = datasets.read_seq(args.data)
        post = seq_mod.hmm_infer(params, seqs)
        rows = post.pack.unpack(post.gamma)
        datasets.write_csv(args.out, rows, header=[f"p{j}" for j in range(rows.shape[1])])
    elif family == "lds":
        seqs, _dx = datasets.read_seq(args.data)
        post = seq_mod.lds_infer(params, seqs)
        rows = post.pack.unpack(post.means)
        datasets.write_csv(args.out, rows, header=[f"z{j}" for j in range(rows.shape[1])])
    elif family == "vae":
        X = _load_matrix(args.data)
        mu, _sigma = vae_mod.encode(params, X)
        datasets.write_csv(args.out, mu.values,
                           header=[f"z{j}" for j in range(mu.values.shape[1])])
    else:
        raise UsageError(f"infer is not defined for family {family!r}")
    return 0


def _cmd_reconstruct(args):
    family, params, _config = datasets.read_model(args.model)
    X = _load_matrix(args.data)
    if family == "ppca":
        rows = ppca_mod.reconstruct(params, X)
    elif family == "vae":
        rows = vae_mod.reconstruct(params, X)
    else:
        raise UsageError(f"reconstruct supports ppca and vae, not {family!r}")
    datasets.write_csv(args.out, rows)
    return 0


def _cmd_synth(args):
    with open(args.spec) as fh:
        doc = json.load(fh)
    spec = datasets.SyntheticSpec(doc["family"], doc.get("params", {}),
                                  n=doc.get("n", 0),
                                  lengths=tuple(doc.get("lengths", ())),
                                  seed=doc.get("seed", args.seed))
    data, _latents, _true = datasets.generate(spec)
    if spec.family == "lda":
        datasets.write_corpus(args.out, data)
    elif spec.family in ("hmm",):
        datasets.write_seq(args.out, data)
    elif spec.family in ("ghmm", "lds"):
        datasets.write_seq(args.out, data, dx=data[0].shape[1])
    else:
        datasets.write_csv(args.out, np.asarray(data, dtype=float))
    return 0


COMMANDS = {"fit": _cmd_fit, "sample": _cmd_sample, "eval": _cmd_eval,
            "infer": _cmd_infer, "reconstruct": _cmd_reconstruct,
            "synth": _cmd_synth}


def main(argv=None):
    """Entry point returning an exit code (0 ok, 2 usage, 1 numeric failure)."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args = _apply_config(args, argv)
        return COMMANDS[args.command](args)
    except (NumericError, MonotonicityError, FloatingPointError,
            np.linalg.LinAlgError) as exc:
        print(f"latentlab: numeric failure: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"latentlab: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"latentlab: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"latentlab: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"latentlab: numeric failure: {exc}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())
