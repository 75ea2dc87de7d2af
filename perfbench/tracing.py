"""Per-layer tracing from outside the program.

A Tracer installs wrappers from the benchmark's own files; nothing under src/
is edited. Modules bind names with `from .core import chol_psd`, so install()
replaces a traced function wherever any latentlab module binds it. The
wrapper for run_em also wraps the e_step, m_step and objective callables it
receives, which gives every EM family phase times. The __post_init__ of each
validated parameter type is timed as core.validate, and Tensor constructions
are counted as nn.tape_nodes.

Spans record name, start, end, parent span and job index. They stay in
memory until the run ends and are reduced to per-layer metrics by reduce().
"""
from __future__ import annotations

import os
import sys
from collections import Counter
from time import perf_counter

import latentlab
from latentlab import em, nn

# module -> traced functions; a span is named "<module>.<function>".
TRACED = {
    "core": ("chol_psd", "log_sum_exp_rows"),
    "mixture": ("fit_gmm", "fit_lca", "gmm_e_step", "gmm_m_step", "gmm_loglik",
                "lca_e_step", "lca_m_step", "lca_loglik"),
    "ppca": ("fit_em", "fit_closed_form", "marginal_loglik", "posterior", "reconstruct",
             "sample"),
    "irt": ("fit_irt", "marginal_loglik", "posterior_theta"),
    "lda": ("fit_lda", "init_variational", "elbo"),
    "sequential": ("hmm_fit", "lds_fit", "hmm_forward_backward", "kalman_filter",
                   "kalman_smooth", "hmm_sample", "lds_sample"),
    "nn": ("backward", "adam_step", "zero_grad"),
    "vae": ("train", "sample"),
    "flow": ("fit", "sample", "log_likelihood"),
    "diffusion": ("train", "sample"),
    "arm": ("train", "sample", "log_likelihood_batch"),
    "gan": ("train", "sample"),
    "datasets": ("read_csv", "write_csv", "read_seq", "read_model", "write_model", "generate"),
    "cli": ("main",),
}
# Parameter types whose __post_init__ validation is timed as core.validate.
VALIDATED = {
    "mixture": ("GmmParams", "LcaParams", "Responsibilities"),
    "ppca": ("PpcaParams",),
    "irt": ("IrtParams",),
    "sequential": ("HmmParams", "LdsParams"),
    "core": ("Simplex", "Gaussian"),
}
TRAINERS = ("vae.train", "flow.fit", "diffusion.train", "arm.train", "gan.train")
NN_STEP_PARTS = ("nn.backward", "nn.adam_step", "nn.zero_grad")
EM_PHASES = ("em.e_step", "em.m_step", "em.objective")

NAME, START, END, PARENT = range(4)      # fields of a span record


class Tracer:
    """Span recorder for one traced pass; install() before, uninstall() after."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, job index]
        self.job = -1
        self.counts = Counter()
        self._stack = []
        self._tape = [0]
        self._undo = []

    def wrap(self, name, fn, on_exit=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job]
            spans.append(rec)
            stack.append(idx)
            rec[START] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                if on_exit is not None:
                    on_exit(args)
        return traced

    def run_job(self, index, fn, *args):
        """Run one benchmark job under a root span named "job"."""
        self.job = index
        return self.wrap("job", fn)(*args)

    # -- installation -----------------------------------------------------------

    def _rebind(self, orig, replacement):
        """Replace orig wherever a latentlab module binds it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "latentlab" or modname.startswith("latentlab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, orig))

    def _set_attr(self, owner, key, replacement):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, replacement)

    def install(self):
        counts = self.counts
        for modname, names in TRACED.items():
            mod = getattr(latentlab, modname)
            for fname in names:
                orig = getattr(mod, fname)
                on_exit = None
                if modname == "datasets" and fname.startswith(("read_", "write_")):
                    key = "datasets.bytes_read" if fname.startswith("read_") \
                        else "datasets.bytes_written"
                    on_exit = _byte_counter(counts, key)
                self._rebind(orig, self.wrap(f"{modname}.{fname}", orig, on_exit))
        self._rebind(em.run_em, self.wrap("em.driver", self._em_driver(em.run_em)))
        for modname, classes in VALIDATED.items():
            mod = getattr(latentlab, modname)
            for cname in classes:
                cls = getattr(mod, cname)
                self._set_attr(cls, "__post_init__",
                               self.wrap("core.validate", cls.__post_init__))
        tape, orig_init = self._tape, nn.Tensor.__init__

        def counting_init(tensor, *args, **kwargs):
            tape[0] += 1
            orig_init(tensor, *args, **kwargs)
        self._set_attr(nn.Tensor, "__init__", counting_init)

    def uninstall(self):
        while self._undo:
            owner, key, orig = self._undo.pop()
            setattr(owner, key, orig)

    def _em_driver(self, run_em):
        wrap, counts = self.wrap, self.counts

        def driver(e_step, m_step, objective, *args, **kwargs):
            params, report = run_em(wrap("em.e_step", e_step), wrap("em.m_step", m_step),
                                    wrap("em.objective", objective), *args, **kwargs)
            counts["em.iters"] += report.iters
            return params, report
        return driver

    # -- reduction ----------------------------------------------------------------

    def reduce(self):
        """Per-layer metrics of this pass.

        X.s is the time inside spans named X, counting nested spans of the
        same name once; X.self_s subtracts the time of direct child spans;
        X.calls counts spans.
        """
        spans = self.spans
        n = len(spans)
        child_time = [0.0] * n
        for rec in spans:
            if rec[PARENT] >= 0:
                child_time[rec[PARENT]] += rec[END] - rec[START]
        total, self_s, calls = Counter(), Counter(), Counter()
        inside_trainer = Counter()
        for i, rec in enumerate(spans):
            name, dur = rec[NAME], rec[END] - rec[START]
            calls[name] += 1
            self_s[name] += dur - child_time[i]
            ancestors = set()
            p = rec[PARENT]
            while p >= 0:
                ancestors.add(spans[p][NAME])
                p = spans[p][PARENT]
            if name not in ancestors:
                total[name] += dur
                if name in NN_STEP_PARTS and ancestors.intersection(TRAINERS):
                    inside_trainer[name] += dur
        out = {}
        for name in calls:
            if name == "job":
                continue
            out[f"{name}.s"] = total[name]
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        iters = self.counts["em.iters"]
        phase_s = sum(total[p] for p in EM_PHASES)
        out.update({
            "em.iters": iters,
            "em.iter_s": phase_s / iters if iters else 0.0,
            "nn.steps": calls["nn.adam_step"],
            "nn.tape_nodes": self._tape[0],
            "nn.forward.s": sum(total[t] for t in TRAINERS) - sum(inside_trainer.values()),
            "cli.commands": calls["cli.main"],
            "datasets.bytes_read": self.counts["datasets.bytes_read"],
            "datasets.bytes_written": self.counts["datasets.bytes_written"],
        })
        return out


def _byte_counter(counts, key):
    def on_exit(args):
        if args and isinstance(args[0], (str, os.PathLike)) and os.path.exists(args[0]):
            counts[key] += os.path.getsize(args[0])
    return on_exit

