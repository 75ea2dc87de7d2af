"""Command-line front end: fit / sample / eval / infer / reconstruct / synth
across every model family, emitting plot-ready trace files.

Every command is a pure function of (config, input files, seed): repeated
runs with the same seed produce byte-identical outputs. Exit codes: 0 on
success, 2 on usage errors, 1 on numeric failures. A command whose output
would hold a NaN or an infinity, or inside which numpy warns of an overflow
or an invalid value, is a numeric failure and writes nothing. Flags
override values from an optional JSON --config file. What each family
reads and which commands it supports is its record in families.FAMILIES.
"""
from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from . import datasets
from .core import NumericError, RandomSource
from .datasets import UsageError
from .em import MonotonicityError
from .families import FAMILIES

__all__ = ["main", "console_main"]

FIT_FAMILIES = tuple(FAMILIES)
# Usage error for a command a family does not define, by record field.
UNDEFINED = {
    "sample": "cannot sample family {!r}",
    "sample_posterior": "posterior sampling is not defined for family {!r}",
    "loglik": "eval is not defined for family {!r}",
    "infer": "infer is not defined for family {!r}",
    "reconstruct": "reconstruct supports "
                   + " and ".join(f for f, rec in FAMILIES.items() if rec.reconstruct)
                   + ", not {!r}",
}


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
    # the model commands read a model file's config as fit reads these flags
    top.set_defaults(fit_flags=_flags(fit))
    return top, sub.choices


def _config_value(action, key, value, where=""):
    """A --config value converted and checked as the flag's argument would
    be: through its type, then against its choices. null stands for a flag
    whose default is unset. A usage error names the key, after where."""
    if value is None and action.default is None:
        return None
    try:
        if not isinstance(value, (str, int, float)):
            raise ValueError
        converted = (action.type or str)(str(value))
        if action.choices is not None and converted not in action.choices:
            raise ValueError
    except ValueError:
        raise UsageError(f"{where}config key {key!r}: invalid value {value!r} for "
                         f"{action.option_strings[0]}") from None
    return converted


def _flags(command_parser):
    """The command's flag actions by destination."""
    return {a.dest: a for a in command_parser._actions if a.option_strings and a.dest != "help"}


def _apply_config(command_parser, args, argv):
    """args with the --config file's values for every flag not given in argv."""
    if getattr(args, "config", None):
        defaults = datasets.read_json_object(args.config)
        flags = _flags(command_parser)
        unknown = [k for k in defaults if k.replace("-", "_") not in flags]
        if unknown:
            raise UsageError(f"unknown config keys: {', '.join(sorted(unknown))}")
        given = {a.split("=")[0] for a in argv if a.startswith("--") and a != "--"}
        for key, value in defaults.items():
            action = flags[key.replace("-", "_")]
            # argparse also takes a flag's unique prefix (--max for --max-iters)
            if not any(opt.startswith(g) for g in given for opt in action.option_strings):
                setattr(args, action.dest, _config_value(action, key, value))
    return args


def _finite(output, values):
    """values as a float array, or a NumericError naming the output if any
    of them is not finite."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise NumericError(f"{output}: the output holds a non-finite number; nothing written")
    return values


def _read_data(family, args):
    """The --data file of a command, read as the family's input kind; a fit's
    --vocab or --alphabet, where the family reads it, sets the table width."""
    record = FAMILIES[family]
    width = next((getattr(args, f, None) for f in ("vocab", "alphabet") if f in record.flags), None)
    return datasets.KINDS[record.input].read(args.data, family, width)


def _model_command(args, field):
    """The family, params and config of the --model file, and the family's
    function for a command (a usage error if the family does not define it).
    The config's fit-flag values are converted and checked as --config
    values of fit are."""
    family, params, config = datasets.read_model(args.model)
    fn = getattr(FAMILIES[family], field)
    if fn is None:
        raise UsageError(UNDEFINED[field].format(family))
    flags = args.fit_flags
    config = {key: _config_value(flags[key], key, value, f"{args.model}: ") if key in flags
              else value for key, value in config.items()}
    return family, fn, params, config


def _report_fit(family, report):
    """One stderr line per rescue event, and one if the fit hit --max-iters."""
    for event in report.events:
        print(f"latentlab: fit {family}: {event}", file=sys.stderr)
    if not report.converged:
        print(f"latentlab: fit {family}: stopped at --max-iters after {report.iters} "
              f"iterations without converging (last relative change {report.rel_change:.3g})",
              file=sys.stderr)


def _cmd_fit(args):
    record = FAMILIES[args.family]
    params, trace, report = record.fit(_read_data(args.family, args), args,
                                       RandomSource(args.seed))
    config = {"family": args.family, "seed": args.seed}
    config.update((flag, getattr(args, flag)) for flag in record.flags)
    trace = _finite(args.out + ".trace.csv", trace)
    datasets.write_model(args.out, args.family, params, config)
    datasets.write_csv(args.out + ".trace.csv",
                       np.column_stack([np.arange(1, len(trace) + 1), trace]),
                       header=["iter", "objective"])
    if report is not None:
        _report_fit(args.family, report)
    return 0


def _cmd_sample(args):
    if args.n < 0:
        raise UsageError(f"n must be >= 0, got {args.n}")
    posterior = args.mode == "posterior"
    _family, sample, params, _config = _model_command(
        args, "sample_posterior" if posterior else "sample")
    given = ()
    if posterior:
        if not args.given:
            raise UsageError("posterior sampling requires --given")
        given = (datasets.read_matrix(args.given)[0],)
    drawn = sample(params, args.n, RandomSource(args.seed), *given)
    datasets.write_csv(args.out, _finite(args.out, drawn))
    return 0


def _cmd_eval(args):
    family, loglik, params, config = _model_command(args, "loglik")
    lls = _finite(_output(args), loglik(params, _read_data(family, args), config, args.seed))
    total = _finite(_output(args), np.sum(lls))
    for v in lls:
        print(datasets.FMT % v)
    print("total " + datasets.FMT % total)
    return 0


def _cmd_infer(args):
    family, infer, params, config = _model_command(args, "infer")
    rows, header = infer(params, _read_data(family, args), config)
    datasets.write_csv(args.out, _finite(args.out, rows), header=header)
    return 0


def _cmd_reconstruct(args):
    family, reconstruct, params, _config = _model_command(args, "reconstruct")
    datasets.write_csv(args.out, _finite(args.out, reconstruct(params, _read_data(family, args))))
    return 0


def _cmd_synth(args):
    doc = datasets.read_json_object(args.spec)
    spec = datasets.SyntheticSpec(doc.get("family"), doc.get("params", {}),
                                  n=doc.get("n", 0),
                                  lengths=doc.get("lengths", ()),
                                  seed=doc.get("seed", args.seed))
    data, _latents, _true = datasets.generate(spec)
    if datasets.SYNTHETIC_FAMILIES[spec.family] in ("matrix", "real_seq"):
        _finite(args.out, np.concatenate([np.ravel(part) for part in data]))
    datasets.KINDS[datasets.SYNTHETIC_FAMILIES[spec.family]].write(args.out, data)
    return 0


def _output(args):
    """What a command writes: its --out file, or eval's standard output."""
    return getattr(args, "out", None) or f"eval of {args.model}"


COMMANDS = {"fit": _cmd_fit, "sample": _cmd_sample, "eval": _cmd_eval,
            "infer": _cmd_infer, "reconstruct": _cmd_reconstruct,
            "synth": _cmd_synth}


def main(argv=None):
    """Entry point returning an exit code (0 ok, 2 usage, 1 numeric failure)."""
    if argv is None:
        argv = sys.argv[1:]
    parser, command_parsers = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        args = _apply_config(command_parsers[args.command], args, argv)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return COMMANDS[args.command](args)
    except RuntimeWarning as exc:
        print(f"latentlab: numeric failure: {_output(args)}: {exc}; nothing written",
              file=sys.stderr)
        return 1
    except (NumericError, MonotonicityError, FloatingPointError, MemoryError,
            np.linalg.LinAlgError) as exc:
        print(f"latentlab: numeric failure: {exc}", file=sys.stderr)
        return 1
    except UsageError as exc:
        print(f"latentlab: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"latentlab: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"latentlab: numeric failure: {exc}", file=sys.stderr)
        return 1


def console_main():
    raise SystemExit(main())
