"""Run one workload in a fresh process and write its result file.

run.py starts this process with the BLAS thread variables pinned to 1 and
src/ on PYTHONPATH. It sets up the workload's inputs, then repeats passes
over the workload's jobs until --seconds have been spent, checks every
output and writes a JSON result. Plain passes give the end-to-end metrics;
with --trace 1, traced passes alternate with plain ones and give the
per-layer metrics. For cli-session, plain passes run each command as a child
process, and a traced run adds in-process passes through cli.main(argv).
Time metrics are in reference seconds (see calibration.py).
"""
from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from statistics import median


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True, help="scratch directory for input and output files")
    ap.add_argument("--result", required=True, help="where to write the JSON result")
    ap.add_argument("--spans", default=None, help="where to write traced spans (gzip JSON)")
    ap.add_argument("--t0", type=float, required=True,
                    help="time.time() at which the parent started this process")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up the inputs, record the setup time and exit")
    return ap.parse_args(argv)


def main(argv=None):
    args = _parse(argv)
    import workloads    # imports numpy and latentlab, part of the measured setup
    os.makedirs(args.workdir, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.time() - args.t0
    result = {"workload": args.workload, "seed": args.seed, "setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(wl, args.seconds, args.trace, args.spans))
        result.update(sizes=wl.sizes, env=environment())
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


def _modes(wl, trace):
    primary = "child" if wl.cli else "plain"
    if not trace:
        return [primary]
    return ["child", "plain", "traced"] if wl.cli else ["plain", "traced"]


def measure(wl, seconds, trace, spans_path):
    import tracing
    from calibration import Calibration
    from workloads import CheckError, PassContext, digest

    modes = _modes(wl, trace)
    times = {m: {job.name: [] for job in wl.jobs} for m in modes}
    pass_totals = {m: [] for m in modes}
    reference = {}                # job name -> digest of its first checked output
    failures = []
    attempted = 0
    traced, span_passes = [], []
    cal = Calibration()

    def run_pass(mode):
        nonlocal attempted
        tracer = tracing.Tracer() if mode == "traced" else None
        ctx = PassContext(inproc=mode != "child")
        total, complete = 0.0, True
        if tracer:
            tracer.install()
        try:
            for i, job in enumerate(wl.jobs):
                cal.sample()
                attempted += 1
                try:
                    t0 = time.perf_counter()
                    res = tracer.run_job(i, job.run, ctx) if tracer else job.run(ctx)
                    dt = time.perf_counter() - t0
                    if job.collect is not None:
                        res = job.collect(res)
                    d = digest(res)
                    if job.name not in reference:
                        job.check(res, ctx)
                        reference[job.name] = d
                    elif d != reference[job.name]:
                        raise CheckError("output differs from the first checked run")
                    ctx.results[job.name] = res
                    times[mode][job.name].append(dt)
                    total += dt
                except Exception as exc:     # a failed job is counted, not fatal
                    complete = False
                    failures.append({"job": job.name, "mode": mode,
                                     "error": f"{type(exc).__name__}: {exc}"[:500],
                                     "traceback": traceback.format_exc()[-2000:]})
        finally:
            if tracer:
                tracer.uninstall()
        if complete:
            pass_totals[mode].append(total)
        if tracer:
            traced.append(tracer.reduce())
            span_passes.append(tracer.spans)

    start = time.perf_counter()
    cycle_s = []
    while not cycle_s or time.perf_counter() - start + median(cycle_s) <= seconds:
        c0 = time.perf_counter()
        for mode in modes:
            run_pass(mode)
        cycle_s.append(time.perf_counter() - c0)

    # A job's time is its median over the passes; a workload's times are
    # sums of these medians over its jobs, in reference seconds.
    primary = modes[0]
    med = {name: median(ts) for name, ts in times[primary].items() if ts}
    kinds = {job.name: job.kind for job in wl.jobs}
    raw = {"wall_s": sum(med.values()),
           "fit_s": sum(t for n, t in med.items() if kinds[n] == "fit"),
           "score_s": sum(t for n, t in med.items() if kinds[n] == "score")}
    factor = cal.factor()
    usage = resource.RUSAGE_CHILDREN if wl.cli else resource.RUSAGE_SELF
    metrics = {name: t * factor for name, t in raw.items()}
    metrics.update(peak_rss_mb=resource.getrusage(usage).ru_maxrss / 1024.0,
                   error_rate=len(failures) / attempted)
    out = {"attempted": attempted, "failed": len(failures), "failures": failures,
           "passes": {m: len(pass_totals[m]) for m in modes},
           "measured_s": time.perf_counter() - start,
           "jobs": {job.name: {"kind": job.kind, "median_s": med.get(job.name),
                               "times_s": times[primary][job.name]} for job in wl.jobs},
           "digests": reference, "end_to_end": metrics, "raw_s": raw,
           "calibration": {"median_s": median(cal.samples), "factor": factor,
                           "samples": len(cal.samples)}}
    if trace:
        out["per_layer"] = _per_layer(wl, traced, times, pass_totals)
        if spans_path:
            _write_spans(spans_path, wl, span_passes)
    return out


def _per_layer(wl, traced, times, pass_totals):
    keys = set().union(*traced) if traced else set()
    layer = {k: median(p.get(k, 0) for p in traced) for k in sorted(keys)}
    if pass_totals["traced"] and pass_totals["plain"]:
        layer["trace.overhead_s"] = median(pass_totals["traced"]) - median(pass_totals["plain"])
    if wl.cli:
        startup = [median(times["child"][n]) - median(times["plain"][n])
                   for n in times["child"] if times["child"][n] and times["plain"][n]]
        layer["cli.startup_s"] = median(startup) if startup else 0.0
    return layer


def _write_spans(path, wl, span_passes):
    doc = {"fields": ["name", "start", "end", "parent", "job"],
           "jobs": [job.name for job in wl.jobs], "passes": span_passes}
    with gzip.open(path, "wt", compresslevel=1) as fh:
        json.dump(doc, fh)


def environment():
    """Machine, toolchain, thread settings and code identity of this result."""
    import numpy
    import scipy
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    try:
        top, head = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                                   capture_output=True, text=True, timeout=10).stdout.split()
        if os.path.samefile(top, root):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit, "source_sha256": _source_digest(os.path.join(root, "src")),
    }


def _source_digest(src):
    import hashlib
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(src)):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
