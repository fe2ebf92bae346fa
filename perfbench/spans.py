"""In-memory spans and work counters for the traced benchmark run.

Spans are recorded only by benchmark code: ``instrument`` replaces a public
function of the program, in every ``tensortract`` module namespace that binds
it, with a wrapper that opens a span around the original call.  Nothing in
``src/`` is changed.  Spans are kept in memory (name, start, end, parent) and
written out once, when the run ends.  numpy and tensortract are imported
inside the functions, so that the shim's ``cli.import`` span covers them.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [id, name, start, end, parent]
        self.counters: dict[str, float] = defaultdict(int)
        self.active = True   # off while the benchmark checks outputs
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][3] = time.perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        if self.active:
            self.counters[name] += amount

    def call(self, name: str, fn, *args, **kwargs):
        if not self.active:
            return fn(*args, **kwargs)
        sid = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(sid)

    def adopt(self, spans: list, counters: dict) -> None:
        """Append spans recorded by a child process under the open span.

        Both processes read CLOCK_MONOTONIC through ``time.perf_counter``, so
        the child's timestamps nest inside the parent's span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        for sid, name, start, end, par in spans:
            self.spans.append([base + sid, name, start, end,
                               parent if par is None else base + par])
        for name, amount in counters.items():
            self.counters[name] += amount

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def layer_times(spans: list) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time, and self time (the span's duration
    minus the time covered by its direct children; spans of one process
    nest, so direct children never overlap)."""
    child_time = defaultdict(float)
    for _, _, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _ in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - child_time[sid]
    return out


def instrument(tracer: Tracer, module, attr: str, name, before=None, after=None) -> None:
    """Wrap ``module.attr`` so every call opens a span.

    ``name`` is a span name or a function of the call's arguments returning
    one; ``before(*args, **kwargs)`` records work counts from the inputs and
    ``after(result)`` counts from the output, both outside the span.  Every
    ``tensortract`` module that imported the same function object gets the
    wrapper too, so calls between layers are seen.
    A function that a later version of the program no longer has is skipped.
    """
    orig = getattr(module, attr, None)
    if orig is None:
        return

    @functools.wraps(orig)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        label = name(*args, **kwargs) if callable(name) else name
        result = tracer.call(label, orig, *args, **kwargs)
        if after is not None:
            after(result)
        return result

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "tensortract" and getattr(mod, attr, None) is orig:
            setattr(mod, attr, wrapper)


def _clausen_path(spec) -> bool:
    """Korobov with 2 alpha not in {2, 4, 6} has no Bernoulli closed form and
    takes the series (Clausen) path."""
    return spec.family == "korobov" and float(spec.alpha) not in (1.0, 2.0, 3.0)


def _exchangeable(problem, target) -> bool:
    """Every permutation of the points is a symmetry of the problem and the
    target, so one n-subset stands for all: identity-like operator, equal
    Gram matrices with one diagonal and one off-diagonal value, and a target
    that is the operator or has a constant representer."""
    import numpy as np

    G, m = problem.gram_F, problem.m
    off = G[~np.eye(m, dtype=bool)]
    if (problem.k != m or not np.array_equal(problem.gram_G, G)
            or np.ptp(np.diag(G)) != 0 or (off.size and np.ptp(off) != 0)
            or not np.array_equal(problem.operator_S, problem.operator_S[0, 0] * np.eye(m))):
        return False
    if isinstance(target, str):
        return True
    return bool(np.ptp(target.representer) == 0)


def instrument_layers(tracer: Tracer) -> None:
    """Open spans around the public functions of every layer, and record the
    work counts that the inputs determine ("computed", not measured)."""
    import numpy as np
    from tensortract import complexity, eigensolve, nystrom, reduction, spectra

    def gram_name(spec, points):
        return "spectra.gram_matrix." + ("clausen" if _clausen_path(spec) else "closed_form")

    def gram_work(spec, points):
        if _clausen_path(spec):
            x = np.asarray(points, dtype=float)
            tracer.count("spectra.clausen_gaps", np.unique(np.abs(x[:, None] - x[None, :])).size)

    def nystrom_work(spec, grid, count):
        tracer.count("nystrom.flops_computed", 4.0 / 3.0 * len(grid) ** 3)

    def count_name(eigs, query):
        lam = eigs.values
        tied = len(lam) > 1 and lam[1] >= lam[0] * (1.0 - spectra.REL_TIE)
        return "complexity.count." + ("tied" if tied else "untied")

    def count_result(result):
        if result.saturated:
            tracer.count("complexity.count.saturated")
        else:
            tracer.count("complexity.counted_tuples", result.count)

    def subsets(problem, target, n):
        n = min(max(n, 0), problem.m)
        tracer.count("reduction.subsets_searched",
                     1 if _exchangeable(problem, target) else math.comb(problem.m, n))

    instrument(tracer, spectra, "gram_matrix", gram_name, gram_work)
    instrument(tracer, eigensolve, "family_eigenvalues", "eigensolve.family_eigenvalues")
    instrument(tracer, nystrom, "nystrom_spectrum",
               lambda spec, grid, count: f"nystrom.nystrom_spectrum.m{len(grid)}", nystrom_work)
    instrument(tracer, nystrom, "richardson_refine", "nystrom.richardson_refine")
    instrument(tracer, complexity, "count_info_complexity_all", count_name, after=count_result)
    instrument(tracer, complexity, "brute_force_count", "complexity.brute_force_count")
    instrument(tracer, complexity, "en_all", "complexity.en_all")
    instrument(tracer, reduction, "minimal_error_std", "reduction.minimal_error_std", subsets)
    instrument(tracer, reduction, "fixed_info_radius", "reduction.fixed_info_radius")
    instrument(tracer, reduction, "verify_domination", "reduction.verify_domination")
    instrument(tracer, reduction, "verify_e0_characterization",
               "reduction.verify_e0_characterization")
    acceptance = sys.modules.get("tensortract.acceptance")
    criteria = getattr(acceptance, "CRITERIA", {})
    for cid, fn in list(criteria.items()):
        name = f"acceptance.c{int(cid):02d}"
        criteria[cid] = functools.partial(tracer.call, name, fn)


CRITERIA_IDS = range(1, 14)
CLI_SUBCOMMANDS = ("eigs", "oracle-eigs", "complexity", "classify", "density",
                   "verify-reduction", "reproduce")


def per_layer_metrics(tracer: Tracer, extra: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, by name, as (value, unit).  Self times, total
    times and calls are summed over all spans whose name is the prefix or
    starts with the prefix and a dot; a criterion's total time is its whole
    share of ``reproduce``; ``extra`` holds the run-level entries (tracing
    overhead, source lines)."""
    times = layer_times(tracer.spans)

    def total(prefix, field):
        return sum(row[field] for name, row in times.items()
                   if name == prefix or name.startswith(prefix + "."))

    def self_s(prefix):
        return total(prefix, "self_s"), "s"

    def total_s(prefix):
        return total(prefix, "total_s"), "s"

    def calls(prefix):
        return total(prefix, "calls"), "count"

    def counter(name, unit="count"):
        return tracer.counters.get(name, 0), unit

    out = {
        "spectra.gram_matrix.calls": calls("spectra.gram_matrix"),
        "spectra.gram_matrix.self_s": self_s("spectra.gram_matrix"),
        "spectra.gram_matrix.clausen_s": self_s("spectra.gram_matrix.clausen"),
        "spectra.gram_matrix.closed_form_s": self_s("spectra.gram_matrix.closed_form"),
        "spectra.clausen_gaps": counter("spectra.clausen_gaps"),
        "eigensolve.family_eigenvalues.calls": calls("eigensolve.family_eigenvalues"),
        "eigensolve.family_eigenvalues.self_s": self_s("eigensolve.family_eigenvalues"),
        "nystrom.nystrom_spectrum.calls": calls("nystrom.nystrom_spectrum"),
        "nystrom.nystrom_spectrum.self_s": self_s("nystrom.nystrom_spectrum"),
    }
    for m in (500, 1000, 2000):
        out[f"nystrom.nystrom_spectrum.m{m}.self_s"] = self_s(f"nystrom.nystrom_spectrum.m{m}")
    out.update({
        "nystrom.richardson_refine.calls": calls("nystrom.richardson_refine"),
        "nystrom.richardson_refine.self_s": self_s("nystrom.richardson_refine"),
        "nystrom.flops_computed": counter("nystrom.flops_computed", "flop"),
        "complexity.count.calls": calls("complexity.count"),
        "complexity.count.untied.self_s": self_s("complexity.count.untied"),
        "complexity.count.tied.self_s": self_s("complexity.count.tied"),
        "complexity.counted_tuples": counter("complexity.counted_tuples"),
        "complexity.count.saturated": counter("complexity.count.saturated"),
        "complexity.en_all.calls": calls("complexity.en_all"),
        "complexity.en_all.self_s": self_s("complexity.en_all"),
        "complexity.brute_force_count.self_s": self_s("complexity.brute_force_count"),
        "reduction.minimal_error_std.calls": calls("reduction.minimal_error_std"),
        "reduction.minimal_error_std.self_s": self_s("reduction.minimal_error_std"),
        "reduction.fixed_info_radius.calls": calls("reduction.fixed_info_radius"),
        "reduction.fixed_info_radius.self_s": self_s("reduction.fixed_info_radius"),
        "reduction.subsets_searched": counter("reduction.subsets_searched"),
        "reduction.verify_e0_characterization.self_s": self_s("reduction.verify_e0_characterization"),
        "reduction.verify_domination.self_s": self_s("reduction.verify_domination"),
    })
    for cid in CRITERIA_IDS:
        out[f"acceptance.c{cid:02d}.total_s"] = total_s(f"acceptance.c{cid:02d}")
    out["cli.calls"] = calls("cli.process")
    out["cli.startup_s"] = self_s("cli.process")
    out["cli.import_s"] = self_s("cli.import")
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main.{sub}.self_s"] = self_s(f"cli.main.{sub}")
    out["cli.stdout_bytes"] = counter("cli.stdout_bytes", "bytes")
    out["bench.job.self_s"] = self_s("job")
    out["trace.spans"] = (len(tracer.spans), "count")
    out.update(extra)
    return out
