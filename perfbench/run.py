"""latentlab benchmark entry point.

One workload, printing the result as one JSON line (the last line of stdout):

    python3 perfbench/run.py --workload flat-em --seed 0 --seconds 27 --trace 0

Every workload, printing each metric by name with its unit, exiting 1 if any
job fails its correctness check (--trace 1 prints the per-layer metrics):

    python3 perfbench/run.py --all [--seed 0] [--seconds 27] [--trace 0]

Determinism self-check: two traced runs of every workload must give identical
per-job output digests and identical count metrics:

    python3 perfbench/run.py --selfcheck [--seed 0]

Each workload runs in a fresh worker process with OPENBLAS_NUM_THREADS,
OMP_NUM_THREADS and MKL_NUM_THREADS set to 1. setup_s is the median over
SETUP_PROBES set-up-only workers plus the measuring worker. Times are in
reference seconds: raw times scaled by the host-speed factor that the
measuring worker calibrated (calibration.py). Full results (raw per-job
times, digests, sizes, environment) go to .perfbench_out/.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
WORKLOADS = ("flat-em", "seq-ragged", "deep-minibatch", "cli-session")
SETUP_PROBES = 2
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def _env():
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                                                 else []))
    return env


def _worker(name, seed, seconds, trace, tag, extra=(), timeout=None):
    """Start one worker process, wait for it and return its result."""
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(WORK_DIR, f"{tag}.{os.getpid()}")
    result = os.path.join(OUT_DIR, f"{tag}.worker.json")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--workdir", workdir, "--result", result, "--t0", repr(time.time()), *extra]
    timeout = timeout or seconds + 120
    try:
        proc = subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker exceeded {timeout} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{name}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}")
    with open(result) as fh:
        out = json.load(fh)
    os.remove(result)
    return out


def measure(name, seed, seconds, trace):
    """Run one workload: setup probes, then the measuring worker."""
    tag = f"{name}.seed{seed}.trace{trace}"
    setup = [_worker(name, seed, 0, 0, f"{tag}.probe{i}", ["--setup-only"], timeout=60)["setup_s"]
             for i in range(SETUP_PROBES)]
    spans = os.path.join(OUT_DIR, f"{tag}.spans.json.gz")
    res = _worker(name, seed, seconds, trace, tag, ["--spans", spans] if trace else [])
    setup.append(res.pop("setup_s"))
    res["setup_samples_s"] = setup
    res["end_to_end"]["setup_s"] = median(setup) * res["calibration"]["factor"]
    res.update(seconds=seconds, trace=trace)
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w") as fh:
        json.dump(res, fh, indent=1, sort_keys=True)
    return res


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def contract_line(spec, res, trace):
    """The result object of one run: every end-to-end metric (--trace 0) or
    every per-layer metric (--trace 1). A layer a workload does not use
    reports 0."""
    if trace:
        metrics = {m["name"]: {"value": res["per_layer"].get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        metrics = {m["name"]: {"value": res["end_to_end"][m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def is_count(metric):
    """Metrics that are exact counts and must repeat exactly between runs."""
    return metric.endswith(".calls") or metric in (
        "em.iters", "nn.steps", "nn.tape_nodes", "cli.commands",
        "datasets.bytes_read", "datasets.bytes_written")


def run_all(spec, seed, seconds, trace):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    units.update(error_rate="ratio")
    bad = False
    for name in WORKLOADS:
        res = measure(name, seed, seconds, trace)
        line = contract_line(spec, res, trace)
        if not trace:
            line["metrics"]["error_rate"] = {"value": res["end_to_end"]["error_rate"],
                                             "unit": "ratio"}
        print(f"== {name} (seed {seed}, {res['attempted']} jobs, {res['failed']} failed)")
        for metric, m in line["metrics"].items():
            print(f"{name:15s} {metric:34s} {m['value']:.6g} {units[metric]}")
        for f in res["failures"]:
            print(f"{name:15s} FAILED {f['job']} [{f['mode']}]: {f['error']}")
        bad |= res["failed"] > 0
    return 1 if bad else 0


def selfcheck(seed, seconds):
    bad = False
    for name in WORKLOADS:
        a, b = (_worker(name, seed, seconds, 1, f"{name}.selfcheck{i}") for i in (1, 2))
        diffs = [j for j in sorted(set(a["digests"]) | set(b["digests"]))
                 if a["digests"].get(j) != b["digests"].get(j)]
        counts = sorted(k for k in set(a["per_layer"]) | set(b["per_layer"]) if is_count(k))
        cdiffs = [k for k in counts if a["per_layer"].get(k) != b["per_layer"].get(k)]
        failed = a["failed"] + b["failed"]
        ok = not (diffs or cdiffs or failed)
        print(f"{name:15s} {'ok' if ok else 'MISMATCH'}: {len(a['digests'])} job digests, "
              f"{len(counts)} counts compared; {failed} failed jobs")
        for j in diffs:
            print(f"{name:15s}   digest differs: {j}")
        for k in cdiffs:
            print(f"{name:15s}   count differs: {k} {a['per_layer'].get(k)} vs "
                  f"{b['per_layer'].get(k)}")
        bad |= not ok
    return 1 if bad else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description="latentlab benchmark")
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true", help="run every workload and print a table")
    ap.add_argument("--selfcheck", action="store_true", help="determinism self-check")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "latentlab", "__init__.py")):
        print("perfbench: no latentlab sources under src/; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    try:
        if args.selfcheck:
            return selfcheck(args.seed, min(seconds, 2))
        if args.all:
            return run_all(spec, args.seed, seconds, args.trace)
        if not args.workload:
            ap.error("give --workload, --all or --selfcheck")
        res = measure(args.workload, args.seed, seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(contract_line(spec, res, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
