"""The model families behind the command line, one record each.

A record names the family's input kind, the fit flags its fit reads (a
model's config keeps exactly these), the function behind each command it
supports (None where a command is undefined) and its parameters' JSON form.
Records name their model module through the package (`pkg.mixture.fit_gmm`)
and look it up at call time. So a command imports only its own family's
module, and a tool that rebinds module attributes (a tracer, a test fake)
sees every call.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

import latentlab as pkg
from .core import RandomSource, category_codes, fields_from_json, fields_to_json
from .em import EmConfig

__all__ = ["Family", "FAMILIES"]

EM_FLAGS = ("max_iters", "rel_tol")
TRAIN_FLAGS = ("hidden", "epochs", "batch", "lr")


@dataclass(frozen=True)
class Family:
    """input: "matrix" (a CSV of finite reals), "codes" (a CSV of category
    codes), "seq" (discrete sequences), "real_seq" (continuous sequences) or
    "corpus"; noun: what a usage error calls the rows of a codes file.

    fit(data, args, rng) -> (params, trace, report), where report is the EM
    FitReport or None for a trained family; sample(params, n, rng) -> prior
    rows; sample_posterior(params, n, rng, given) -> rows drawn given the
    conditioning row given; loglik(params, data, config, seed) -> per-point values;
    infer(params, data, config) -> (rows, header); reconstruct(params, X) -> rows;
    sample_latents(params, size, rng) -> (data, {name: true latents}) is the
    ancestral draw of the joint, of size n rows or a list of sequence lengths
    (the input kind's size field in datasets.KINDS).
    """

    input: str
    flags: tuple
    to_json: Callable
    from_json: Callable
    fit: Callable
    sample: Optional[Callable] = None
    sample_posterior: Optional[Callable] = None
    loglik: Optional[Callable] = None
    infer: Optional[Callable] = None
    reconstruct: Optional[Callable] = None
    sample_latents: Optional[Callable] = None
    noun: str = "data"


def _em_cfg(args, default_rel_tol=1e-7):
    return EmConfig(max_iters=args.max_iters, rel_tol=args.rel_tol or default_rel_tol,
                    seed=args.seed)


def _em_fit(fitted):
    params, report = fitted
    return params, report.objective_trace, report


def _named(name, drawn):
    """A sampler's (data, latents) as (data, {name: latents})."""
    data, latents = drawn
    return data, {name: latents}


def _sequences(sample, params, lengths, rng):
    """One draw per length from sample(params, T, rng) -> (states, obs), as
    (sequences, {"states": paths})."""
    drawn = [sample(params, T, rng) for T in lengths]
    return [obs for _path, obs in drawn], {"states": [path for path, _obs in drawn]}


def _columns(prefix, rows):
    return rows, [f"{prefix}{j}" for j in range(rows.shape[1])]


def _quadrature(config):
    """The quadrature an IRT model was fitted with (older files: the default)."""
    return pkg.irt.default_quadrature(config.get("quad_nodes", pkg.irt.DEFAULT_NODES))


def _fit_lda(corpus, args, _rng):
    hyper = pkg.lda.LdaHyper(args.alpha, args.beta, args.k, corpus.V)
    var, report = pkg.lda.fit_lda(hyper, corpus, _em_cfg(args, default_rel_tol=1e-6))
    model = pkg.lda.LdaModel(**vars(hyper), doc_topic=var.doc_topic, topic_word=var.topic_word)
    return model, report.objective_trace, report


def _lda_loglik(model, corpus, _config, _seed):
    """The bound of each document under the model's fitted topics, the topic
    terms split evenly across the documents."""
    corpus = pkg.lda.Corpus(corpus.docs, model.V)
    var, _report = pkg.lda.fit_documents(model, corpus, model.topic_word,
                                         EmConfig(max_iters=200, rel_tol=1e-6))
    return pkg.lda.document_elbo(model, corpus, var)


def _hmm_infer(params, seqs, _config):
    post = pkg.sequential.hmm_infer(params, seqs)
    return _columns("p", post.pack.unpack(post.gamma))


def _lds_infer(params, seqs, _config):
    post = pkg.sequential.lds_infer(params, seqs)
    return _columns("z", post.pack.unpack(post.means))


def _fit_vae(X, args, rng):
    model = pkg.vae.make_vae(X.shape[1], args.latent_dim, rng, hidden=args.hidden,
                             likelihood=args.likelihood, sigma_dec=args.sigma_dec)
    return model, pkg.vae.train(model, X, args.epochs, args.batch, rng.split(7), lr=args.lr), None


def _fit_flow(X, args, rng):
    model = pkg.flow.make_coupling_stack(X.shape[1], args.layers, rng, hidden=args.hidden)
    return model, pkg.flow.fit(model, X, args.epochs, args.batch, rng.split(7), lr=args.lr), None


def _fit_diffusion(X, args, rng):
    model = pkg.diffusion.make_diffusion(X.shape[1], rng, T=args.T, hidden=args.hidden)
    return model, pkg.diffusion.train(model, X, args.epochs, args.batch, rng.split(7),
                                      lr=args.lr), None


def _fit_arm(X, args, rng):
    X, widths = category_codes(X, "ARM sequences", args.alphabet)
    seq_len = X.shape[1] if args.seq_len is None else args.seq_len
    model = pkg.arm.make_ar_model(seq_len, int(widths.max()), rng, hidden=args.hidden)
    return model, pkg.arm.train(model, X, args.epochs, args.batch, rng.split(7), lr=args.lr), None


def _fit_gan(X, args, rng):
    model = pkg.gan.make_gan(X.shape[1], args.latent_dim, rng, hidden=args.hidden)
    disc_trace, _gen_trace = pkg.gan.train(model, X, args.steps, args.batch, rng.split(7),
                                           lr=args.lr)
    return model, disc_trace, None


_HMM = Family(
    "seq", ("k",) + EM_FLAGS,
    to_json=lambda p: pkg.sequential.hmm_to_json(p),
    from_json=lambda o: pkg.sequential.hmm_from_json(o),
    fit=lambda S, a, _r: _em_fit(pkg.sequential.hmm_fit(S, a.k, "discrete", _em_cfg(a))),
    sample=lambda p, n, rng: np.asarray(pkg.sequential.hmm_sample(p, n, rng)[1],
                                        dtype=float)[:, None],
    loglik=lambda p, S, _c, _s: pkg.sequential.hmm_infer(p, S, smooth=False).logliks,
    infer=_hmm_infer,
    sample_latents=lambda p, L, rng: _sequences(pkg.sequential.hmm_sample, p, L, rng))

FAMILIES = {
    "ppca": Family(
        "matrix", ("latent_dim",) + EM_FLAGS,
        to_json=lambda p: fields_to_json(pkg.ppca.canonicalize(p)),
        from_json=lambda o: fields_from_json(pkg.ppca.PpcaParams, o),
        fit=lambda X, a, _r: _em_fit(pkg.ppca.fit_em(X, a.latent_dim, _em_cfg(a))),
        sample=lambda p, n, rng: pkg.ppca.sample(p, n, rng),
        sample_posterior=lambda p, n, rng, given: pkg.ppca.sample(p, n, rng, mode="posterior",
                                                                  given=given),
        loglik=lambda p, X, _c, _s: pkg.ppca.loglik_rows(p, X),
        infer=lambda p, X, _c: _columns("z", pkg.ppca.posterior_means(p, X)),
        reconstruct=lambda p, X: pkg.ppca.reconstruct(p, X),
        sample_latents=lambda p, n, rng: _named("latents", pkg.ppca.sample_joint(p, n, rng))),
    "gmm": Family(
        "matrix", ("k",) + EM_FLAGS,
        to_json=lambda p: pkg.mixture.gmm_to_json(p),
        from_json=lambda o: fields_from_json(pkg.mixture.GmmParams, o),
        fit=lambda X, a, _r: _em_fit(pkg.mixture.fit_gmm(X, a.k, _em_cfg(a))),
        sample=lambda p, n, rng: pkg.mixture.gmm_sample(p, n, rng)[0],
        loglik=lambda p, X, _c, _s: pkg.mixture.gmm_loglik_rows(p, X),
        infer=lambda p, X, _c: _columns("gamma", pkg.mixture.gmm_e_step(p, X).gamma),
        sample_latents=lambda p, n, rng: _named("assignments", pkg.mixture.gmm_sample(p, n, rng))),
    "lca": Family(
        "codes", ("k",) + EM_FLAGS,
        to_json=lambda p: pkg.mixture.lca_to_json(p),
        from_json=lambda o: fields_from_json(pkg.mixture.LcaParams, o),
        fit=lambda X, a, _r: _em_fit(pkg.mixture.fit_lca(X, a.k, _em_cfg(a))),
        sample=lambda p, n, rng: pkg.mixture.lca_sample(p, n, rng)[0],
        loglik=lambda p, X, _c, _s: pkg.mixture.lca_loglik_rows(p, X),
        infer=lambda p, X, _c: _columns("gamma", pkg.mixture.lca_e_step(p, X).gamma),
        sample_latents=lambda p, n, rng: _named("assignments", pkg.mixture.lca_sample(p, n, rng)),
        noun="LCA data"),
    "irt": Family(
        "codes", ("quad_nodes",) + EM_FLAGS,
        to_json=fields_to_json, from_json=lambda o: fields_from_json(pkg.irt.IrtParams, o),
        fit=lambda X, a, _r: _em_fit(
            pkg.irt.fit_irt(X, pkg.irt.default_quadrature(a.quad_nodes), _em_cfg(a))),
        sample=lambda p, n, rng: pkg.irt.sample(p, n, rng)[0],
        loglik=lambda p, X, c, _s: pkg.irt.loglik_rows(p, X, _quadrature(c)),
        infer=lambda p, X, c: (np.column_stack(pkg.irt.posterior_moments(p, X, _quadrature(c))),
                               ["eap", "sd"]),
        sample_latents=lambda p, n, rng: _named("abilities", pkg.irt.sample(p, n, rng)),
        noun="responses"),
    "lda": Family(
        "corpus", ("k", "alpha", "beta", "vocab") + EM_FLAGS,
        to_json=fields_to_json, from_json=lambda o: fields_from_json(pkg.lda.LdaModel, o),
        fit=_fit_lda, loglik=_lda_loglik),
    "hmm": _HMM,
    "ghmm": replace(
        _HMM, input="real_seq",
        fit=lambda S, a, _r: _em_fit(pkg.sequential.hmm_fit(S, a.k, "gaussian", _em_cfg(a))),
        sample=lambda p, n, rng: np.atleast_2d(pkg.sequential.hmm_sample(p, n, rng)[1])),
    "lds": Family(
        "real_seq", ("latent_dim",) + EM_FLAGS,
        to_json=fields_to_json,
        from_json=lambda o: fields_from_json(pkg.sequential.LdsParams, o),
        fit=lambda S, a, _r: _em_fit(pkg.sequential.lds_fit(S, a.latent_dim, _em_cfg(a))),
        sample=lambda p, n, rng: pkg.sequential.lds_sample(p, n, rng)[1],
        loglik=lambda p, S, _c, _s: pkg.sequential.lds_infer(p, S, smooth=False).logliks,
        infer=_lds_infer,
        sample_latents=lambda p, L, rng: _sequences(pkg.sequential.lds_sample, p, L, rng)),
    "vae": Family(
        "matrix", ("latent_dim", "likelihood", "sigma_dec") + TRAIN_FLAGS,
        to_json=fields_to_json,
        from_json=lambda o: fields_from_json(pkg.vae.VaeModel, o),
        fit=_fit_vae,
        sample=lambda m, n, rng: pkg.vae.sample(m, n, rng),
        loglik=lambda m, X, _c, seed: pkg.vae.elbo_rows(m, X, RandomSource(seed), n_samples=16),
        infer=lambda m, X, _c: _columns("z", pkg.vae.encode(m, X)[0]),
        reconstruct=lambda m, X: pkg.vae.reconstruct(m, X)),
    "flow": Family(
        "matrix", ("layers",) + TRAIN_FLAGS,
        to_json=lambda m: pkg.flow.to_json(m), from_json=lambda o: pkg.flow.from_json(o),
        fit=_fit_flow,
        sample=lambda m, n, rng: pkg.flow.sample(m, n, rng),
        loglik=lambda m, X, _c, _s: pkg.flow.log_likelihood(m, X)),
    "diffusion": Family(
        "matrix", ("T",) + TRAIN_FLAGS,
        to_json=lambda m: pkg.diffusion.to_json(m),
        from_json=lambda o: pkg.diffusion.from_json(o),
        fit=_fit_diffusion,
        sample=lambda m, n, rng: pkg.diffusion.sample(m, n, rng)),
    "arm": Family(
        "codes", ("seq_len", "alphabet") + TRAIN_FLAGS,
        to_json=fields_to_json,
        from_json=lambda o: fields_from_json(pkg.arm.ArModel, o),
        fit=_fit_arm,
        sample=lambda m, n, rng: pkg.arm.sample(m, n, rng).astype(float),
        loglik=lambda m, X, _c, _s: pkg.arm.log_likelihood_batch(m, X),
        noun="ARM sequences"),
    "gan": Family(
        "matrix", ("latent_dim", "hidden", "steps", "batch", "lr"),
        to_json=fields_to_json,
        from_json=lambda o: fields_from_json(pkg.gan.GanModel, o),
        fit=_fit_gan,
        sample=lambda m, n, rng: pkg.gan.sample(m, n, rng)),
}
