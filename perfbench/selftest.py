#!/usr/bin/env python3
"""Self-test of the benchmark's checks: a wrong result counts as failed.

    python3 perfbench/selftest.py

For one cheap job of each workload (seed 0) it runs the real job, then runs
three jobs through the benchmark's own ``run_pass`` and ``check_pass``: one
returning the true output, one returning a deliberately corrupted copy and
one that raises.  The first must pass and the other two must be counted as
failed.  The cli job's outputs are made up, so no CLI process is started.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def _raise():
    raise RuntimeError("deliberate failure")


def pick(name: str, jobs):
    """(job, true output, corrupted output) for one cheap job."""
    if name == "spectral":
        job = next(j for j in jobs if j.key[0] == "nystrom" and j.key[2] == 500)
        out = job.call()
        return job, out, dataclasses.replace(out, values=out.values * 1.05)
    if name == "counting":
        job = next(j for j in jobs if j.key[0] == "count" and j.key[-1] == 1)
        out = job.call()
        return job, out, dataclasses.replace(out, count=out.count + 1)
    job = next(j for j in jobs if j.key[2] == "reproduce")
    return job, (0, b"[PASS] ...\n41/41 checks passed\n"), (0, b"[FAIL] ...\n40/41 checks passed\n")


def main() -> int:
    bad = 0
    for name, build in workloads.WORKLOADS.items():
        job, good, wrong = pick(name, build(workloads.DEFAULT_SEED))
        cases = [("true output", good, False), ("corrupted output", wrong, True),
                 ("exception", None, True)]
        jobs = [workloads.Job(job.key + (label,), (lambda o=out: o) if out is not None else _raise,
                              job.check)
                for label, out, _ in cases]
        outputs, errors, _, _ = run.run_pass(jobs)
        failed = {key for key, _ in run.check_pass(jobs, outputs, errors)}
        for (label, _, should_fail), case in zip(cases, jobs):
            counted = case.key in failed
            ok = counted == should_fail
            bad += not ok
            print(f"{'ok  ' if ok else 'BAD '} {name:<9} {label:<16} "
                  f"{'counted as failed' if counted else 'passed'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
