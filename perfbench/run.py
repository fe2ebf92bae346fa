#!/usr/bin/env python3
"""tensortract benchmark: closed-loop workloads, one client, one process.

    python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the root of a checkout; the program is imported from ``src/`` (pure
Python, nothing to build).  The seed makes every input; a run executes
round(seconds / PASS_SECONDS[workload]) passes (at least one) over the same
job list, so the job count, and with it the tail percentile, is the same
before and after a change.  Each job is timed on its own, and its latency
is the lower quartile of its times over the passes; its output is checked
after the passes.

``--trace 0`` prints the end-to-end metrics: jobs_per_s, job_p50_ms,
job_tail_ms (the highest percentile with at least ten samples beyond it),
setup_s (median over SETUP_SAMPLES fresh processes that import tensortract,
build the inputs and warm up), peak_rss_mb (for cli, the largest CLI
process) and pass_frac (1 - fail_frac).  ``--trace 1`` runs one untraced and
then one traced pass, wrapping the layers' public functions with spans from
``spans.py``, and prints the per-layer metrics with the tracing overhead.
The last line of standard output is the JSON result; the line before it is
a report with the environment, the percentile used and any failures.
``--workload all`` prints a table of every workload's metrics instead.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("spectral", "counting", "cli")
# Divides --seconds into a pass count (at 20 s: spectral 2, counting 12,
# cli 1), so that all runs of the workloads fit the time a benchmark may take
# on the reference 2-core machine.  A constant, so that the number of jobs in
# a run never depends on the speed of the machine or of the program.
PASS_SECONDS = {"spectral": 10.0, "counting": 1.7, "cli": 20.0}
SETUP_SAMPLES = 5
TAIL_BEYOND = 10
WORKER_TIMEOUT_S = 170
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread: the closed loop then runs on one core.  On the 2-core
# reference machine a second thread did not speed up the m=500 eigensolves
# (spectral's median job) and made spectral's median and tail less steady
# from seed to seed (see perfbench/README.md).
BLAS_THREADS = 1
# glibc serves a large allocation from fresh pages (mmap) only until the
# first one is freed; it then raises the threshold and reuses heap memory
# for the rest of the process.  The cache placement of those pages, fixed
# for the whole run, then moved spectral's median job by up to 30 % between
# runs.  A fixed threshold gives every large array fresh pages.
MALLOC_MMAP_THRESHOLD = 128 * 1024
LIMITS = ("shared machine; no CPU pinning, no frequency control, other tenants may "
          "run; timings are medians of one run, compare runs of one machine only")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", choices=("setup", "measure"), help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    """Cap BLAS threads at BLAS_THREADS, fix glibc's mmap threshold and the
    hash seed (sources of process-to-process variation) and put the
    checkout's sources first."""
    env = dict(os.environ)
    for var in BLAS_THREAD_VARS:
        env[var] = str(min(BLAS_THREADS, nproc()))
    env["MALLOC_MMAP_THRESHOLD_"] = str(MALLOC_MMAP_THRESHOLD)
    env["PYTHONHASHSEED"] = "0"
    # byte-compile as an installed package would, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


# ---------------------------------------------------------------------------
# worker: set up, run the passes, check
# ---------------------------------------------------------------------------

def run_pass(jobs, tracer=None):
    """Run every job once, timing each call alone.  An exception is recorded
    as that job's failure; the loop goes on."""
    outputs, errors, latencies = {}, {}, []
    gc.collect()
    start = time.perf_counter()
    for job in jobs:
        sid = tracer.begin("job." + job.key[0]) if tracer else None
        t0 = time.perf_counter()
        try:
            outputs[job.key] = job.call()
        except Exception as exc:
            outputs[job.key] = None
            errors[job.key] = repr(exc)
        latencies.append(time.perf_counter() - t0)
        if tracer:
            tracer.end(sid)
    return outputs, errors, latencies, time.perf_counter() - start


def check_pass(jobs, outputs, errors) -> list[tuple]:
    """(key, message) per failed job: it raised, or its output failed its check."""
    failures = []
    for job in jobs:
        if job.key in errors:
            failures.append((job.key, f"raised {errors[job.key]}"))
            continue
        try:
            job.check(outputs[job.key], outputs)
        except Exception as exc:
            failures.append((job.key, repr(exc)))
    return failures


def lower_quartile(xs) -> float:
    """The lower quartile, inclusive method; one sample is its own."""
    return xs[0] if len(xs) == 1 else statistics.quantiles(xs, n=4, method="inclusive")[0]


def tail(latencies) -> tuple[float, float]:
    """(value, percentile) of the highest percentile that still has at
    least TAIL_BEYOND samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples cannot have {TAIL_BEYOND} beyond a percentile")
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def threads_now() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    return 0


def environment() -> dict:
    import mpmath
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "mpmath": mpmath.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_thread_cap": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "process_threads": threads_now(), "nproc": nproc(), "cpu": cpu,
        "limits": LIMITS,
    }


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def timed_run(args, jobs):
    """The passes of a --trace 0 run: (metrics, failures, attempted, report)."""
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))
    results = [run_pass(jobs) for _ in range(passes)]
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    failures = [f for outputs, errors, _, _ in results for f in check_pass(jobs, outputs, errors)]
    attempted = len(jobs) * passes
    # A job's latency is the lower quartile of its times over the passes,
    # and the pass time the sum of these.  On the reference machine the
    # speed of a core flips between two modes, 1.5x apart, every few to
    # some 25 seconds, so a whole run can miss the fast mode: over 14
    # counting runs, the fastest time per job spread jobs_per_s by 0.15 and
    # the tail by 0.25 (IQR / median), the lower quartile by 0.12 and 0.10.
    latencies = [lower_quartile([r[2][i] for r in results]) for i in range(len(jobs))]
    pass_s = sum(latencies)
    tail_s, tail_pct = tail(latencies)
    metrics = {
        "jobs_per_s": (len(jobs) / pass_s, "1/s"),
        "job_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "job_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "pass_frac": (1.0 - len(failures) / attempted, "fraction"),
    }
    report = {"passes": passes, "jobs_per_pass": len(jobs), "samples": len(latencies),
              "tail_percentile": tail_pct, "pass_walls_s": [r[3] for r in results],
              "fail_frac": len(failures) / attempted}
    return metrics, failures, attempted, report


def traced_run(args, jobs, build, build_s):
    """One untraced pass, then set-up and one pass again with every layer
    wrapped in spans: (metrics, failures, attempted, report)."""
    from spans import Tracer, instrument_layers, per_layer_metrics

    plain = run_pass(jobs)
    tracer = Tracer()
    instrument_layers(tracer)
    t0 = time.perf_counter()
    traced_jobs = tracer.call("bench.setup", build, args.seed, tracer)
    traced_build_s = time.perf_counter() - t0
    traced = run_pass(traced_jobs, tracer)
    tracer.active = False
    failures = (check_pass(jobs, plain[0], plain[1])
                + check_pass(traced_jobs, traced[0], traced[1]))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl")
    untraced_s, traced_s = build_s + plain[3], traced_build_s + traced[3]
    metrics = per_layer_metrics(tracer, {
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.traced_wall_s": (traced_s, "s"),
        "trace.untraced_wall_s": (untraced_s, "s"),
        "src.lines": (src_lines(), "lines"),
    })
    return metrics, failures, len(jobs) + len(traced_jobs), {"passes": 1, "jobs_per_pass": len(jobs)}


def worker(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    build = workloads.WORKLOADS[args.workload]
    t0 = time.perf_counter()
    jobs = build(args.seed)
    build_s = time.perf_counter() - t0
    print("ready", flush=True)
    if args.worker == "setup":
        return 0
    if args.trace:
        metrics, failures, attempted, report = traced_run(args, jobs, build, build_s)
    else:
        metrics, failures, attempted, report = timed_run(args, jobs)
    report.update({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "build_s": build_s,
                   "failures": [f"{key}: {msg}" for key, msg in failures[:20]],
                   "environment": environment()})
    print(json.dumps({"report": report}))
    print(json.dumps({"attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0


# ---------------------------------------------------------------------------
# orchestrator: fresh processes for set-up samples and the measured run
# ---------------------------------------------------------------------------

def spawn(args, role: str):
    """Start a worker; return it with its set-up time (spawn to 'ready')."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--worker", role]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"{role} worker failed during set-up")
    return proc, setup_s


def measure(args) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup_s = spawn(args, "setup")
            if proc.wait(timeout=WORKER_TIMEOUT_S) != 0:
                raise RuntimeError("set-up worker failed")
            setups.append(setup_s)
    proc, setup_s = spawn(args, "measure")
    setups.append(setup_s)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"measure worker exited with {proc.returncode}")
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        report["setup_samples_s"] = setups
    return {"report": report,
            "result": {"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics}}


def print_table(args) -> None:
    print(f"{'workload':<10} {'metric':<14} {'value':>14}  unit")
    for name in WORKLOADS:
        args.workload = name
        run = measure(args)
        metrics = dict(run["result"]["metrics"])
        report = run["report"]
        metrics["fail_frac"] = {"value": report["fail_frac"], "unit": "fraction"}
        for metric, entry in metrics.items():
            print(f"{name:<10} {metric:<14} {entry['value']:>14.6g}  {entry['unit']}")
        print(f"{name:<10} (tail = p{report['tail_percentile']:.2f} of "
              f"{report['samples']} jobs; {report['passes']} pass(es))")


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "tensortract" / "__init__.py").is_file():
        print(f"error: no tensortract sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    try:
        if args.workload == "all":
            print_table(args)
            return 0
        run = measure(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for tmp in (ROOT / ".bench_out").glob("cli-*"):
            shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"report": run["report"]}))
    print(json.dumps(run["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
