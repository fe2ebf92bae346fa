"""The benchmark workloads: jobs generated from a seed, and their checks.

A workload's ``build(seed)`` makes the inputs through the program's public
functions, runs a small warm-up and returns the job list of one pass.  The
seed chooses instance data (parameters, random problems, ranks); the sizes
that set a job's cost are fixed, so every seed gives a pass of the same
cost.  The job order is fixed too: the order of large allocations sets the
allocator's history, and with it the peak resident memory.  Each job's
``check(output, outputs)`` runs outside the timed region and raises
``CheckFailed``; ``outputs`` maps every job key of the same pass to its
output, for checks that compare jobs (monotone chains, pairs).
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.special

from tensortract import complexity, eigensolve, nystrom, spectra

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
COUNTING_TABLE = HERE / "counting_seed0.json"
DEFAULT_SEED = 0


class CheckFailed(Exception):
    pass


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    key: tuple
    call: Callable[[], object]
    check: Callable[[object, dict], None]


# ---------------------------------------------------------------------------
# spectral: kernels, Gram assembly, Nystrom eigensolves
# ---------------------------------------------------------------------------

# Copies per grid size of the five-family set in one pass (59 jobs).  The
# median job falls inside the 35 m=500 eigensolves, and the tail (11th
# largest) inside the 15 m=1000 ones, below the five m=2000 eigensolves, the
# refinement and the three Clausen Grams.  Neither falls on the edge between
# two cost classes, and the tail stays on LAPACK work, which the load of a
# shared machine moves less than the pure-Python mpmath series.
SPECTRAL_COPIES = {500: 7, 1000: 3, 2000: 1}
SPECTRAL_SIZES = (500, 1000, 2000)
CLAUSEN_ALPHAS = (0.75, 1.25, 1.75)   # 2 alpha not even: the mpmath Clausen path
CLAUSEN_M = 10


def brownian_min_eigenvalues(count: int) -> np.ndarray:
    """min(x, y) on [0, 1]: lambda_j = ((j - 1/2) pi)^-2."""
    return ((np.arange(1, count + 1) - 0.5) * math.pi) ** -2.0


def analytic_eigenvalues(spec, count: int) -> np.ndarray:
    """Reference spectrum for every family the workload uses.  The anchored
    kernel with a in {0, 1} is the min kernel, up to a reflection of [0, 1]."""
    if spec.family == "brownian-min":
        return brownian_min_eigenvalues(count)
    if spec.family == "sobolev-distance":
        spec = spectra.KernelSpec("sobolev-min")
    return eigensolve.family_eigenvalues(spec, count).values


def korobov_circulant_eigenvalues(alpha: float, beta: float, m: int) -> np.ndarray:
    """Exact eigenvalues of the Korobov Gram matrix on the m-point midpoint
    grid.  That matrix is circulant, and aliasing sums the Fourier
    coefficients into Hurwitz zeta values (scipy, independent of mpmath)."""
    s = 2.0 * alpha
    q = np.arange(1, m) / m
    rest = beta * m ** (1.0 - s) * (scipy.special.zeta(s, q) + scipy.special.zeta(s, 1.0 - q))
    top = m + 2.0 * beta * m ** (1.0 - s) * scipy.special.zeta(s)
    return np.sort(np.concatenate([[top], rest]))


# The reference values are computed inside each check, so neither set-up
# nor a traced run pays for them.

def _check_nystrom(spec, m, count):
    tol = 1e-3 * (2000.0 / m) ** 2   # criterion 2's 1e-3 at m=2000, scaled as m^-2

    def check(out, outputs):
        ref = analytic_eigenvalues(spec, count)
        got = np.asarray(out.values)
        expect(got.shape == ref.shape, f"{spec.label()} m={m}: {got.size} values")
        rel = float(np.max(np.abs(got - ref) / ref))
        expect(rel <= tol, f"{spec.label()} m={m}: relative error {rel:.3g} > {tol:.3g}")
    return check


def _check_refined(spec, count):
    def check(out, outputs):
        ref = analytic_eigenvalues(spec, count)
        got = np.asarray(out.eigensequence.values)
        err = float(np.max(np.abs(got - ref)))
        expect(err <= 1e-5, f"refined {spec.label()}: error {err:.3g} > 1e-5")
    return check


def _check_clausen(alpha, beta, m):
    def check(out, outputs):
        ref = korobov_circulant_eigenvalues(alpha, beta, m)
        gram = np.asarray(out)
        expect(gram.shape == (m, m), f"gram shape {gram.shape}")
        expect(np.array_equal(gram, gram.T), "gram not exactly symmetric")
        err = float(np.max(np.abs(np.linalg.eigvalsh(gram) - ref)))
        expect(err <= 1e-10 * ref[-1], f"korobov alpha={alpha}: eigenvalue error {err:.3g}")
    return check


def _spectral_specs(rng) -> list:
    """One instance of each of the five families."""
    KernelSpec = spectra.KernelSpec
    return [
        KernelSpec("sobolev-min"),
        KernelSpec("sobolev-cosh"),
        KernelSpec("korobov", alpha=float(rng.choice([1.0, 2.0, 3.0])),
                   beta=float(rng.uniform(0.2, 0.9))),
        KernelSpec("sobolev-distance", a=float(rng.choice([0.0, 1.0]))),
        KernelSpec("brownian-min"),
    ]


def build_spectral(seed: int, tracer=None) -> list[Job]:
    rng = np.random.default_rng(seed)
    jobs = []
    for m in SPECTRAL_SIZES:
        grid = nystrom.midpoint_grid(m)
        for copy in range(SPECTRAL_COPIES[m]):
            for spec in _spectral_specs(rng):
                jobs.append(Job(("nystrom", spec.label(), m, copy),
                                lambda spec=spec, grid=grid: nystrom.nystrom_spectrum(spec, grid, 5),
                                _check_nystrom(spec, m, 5)))
    refine_spec = spectra.KernelSpec("sobolev-min")
    jobs.append(Job(("refine", refine_spec.label()),
                    lambda: nystrom.richardson_refine(refine_spec, 2, SPECTRAL_SIZES),
                    _check_refined(refine_spec, 2)))
    clausen_nodes = nystrom.midpoint_grid(CLAUSEN_M).nodes
    for i, alpha in enumerate(CLAUSEN_ALPHAS):
        spec = spectra.KernelSpec("korobov", alpha=alpha, beta=float(rng.uniform(0.2, 0.9)))
        jobs.append(Job(("clausen", spec.label(), i),
                        lambda spec=spec: spectra.gram_matrix(spec, clausen_nodes),
                        _check_clausen(alpha, spec.beta, CLAUSEN_M)))
    # warm-up: LAPACK, every kernel branch, and mpmath's first Clausen call
    for spec in _spectral_specs(rng):
        nystrom.nystrom_spectrum(spec, nystrom.midpoint_grid(50), 5)
    nystrom.richardson_refine(refine_spec, 2, (20, 40))
    spectra.gram_matrix(spectra.KernelSpec("korobov", alpha=0.75, beta=0.5), [0.25, 0.75])
    return jobs


# ---------------------------------------------------------------------------
# counting: n(eps, S_d), rank enumeration, classification
# ---------------------------------------------------------------------------

UNTIED_CHAINS = 72
UNTIED_DS = (1, 2, 3, 4, 6, 8, 12, 16)
UNTIED_EPS = (0.1, 0.2, 0.3, 0.5)
# The tied chain (Korobov beta=1, eps=0.5) steps d by 5 from 100 to 150
# and ends at 200: its eleven d <= 150 jobs are the largest but one, so the
# tail (11th largest) is a tied large-d query.  The near-tied chains stay
# far below them in cost.
TIED_EPS = 0.5
TIED_DS = tuple(range(100, 151, 5)) + (200,)
NEAR_TIED_CHAINS = {0.1: (8, 16, 32), 0.3: (8, 16, 32, 64, 128, 200)}
EN_CHAINS = 12
CLASSIFY_JOBS = 48


def _load_table() -> dict:
    with open(COUNTING_TABLE) as fh:
        return json.load(fh)


def _check_count(eigs, eps, d, chain_prev, tied, table):
    def check(out, outputs):
        if d <= 4:
            brute = complexity.brute_force_count(eigs, complexity.ComplexityQuery(eps=eps, d=d))
            expect(out.count == brute.count, f"d={d} eps={eps}: {out.count} != brute force {brute.count}")
        if chain_prev is not None:
            prev = outputs.get(chain_prev)
            expect(prev is not None and out.count >= prev.count,
                   f"d={d} eps={eps}: count decreased along d")
        if tied:
            expect(out.saturated or out.count >= 2 ** d, f"tied d={d}: count {out.count} < 2^d")
        if table is not None:
            expect(out.count == table, f"d={d} eps={eps}: count {out.count} != recorded {table}")
    return check


def _check_en(eigs, d, n, chain_prev):
    lam = np.asarray(eigs.values)

    def check(out, outputs):
        if chain_prev is not None:
            prev = outputs.get(chain_prev)
            expect(prev is not None and out <= prev * (1.0 + 1e-12),
                   f"en_all d={d}: e_n increased along n")
        if (n + 1) ** d <= 2 * 10 ** 6:
            # the n+1 largest products only use indices <= n+1 in each factor
            top = lam[:n + 1]
            prods = top
            for _ in range(d - 1):
                prods = (prods[:, None] * top[None, :]).ravel()
            ref = math.sqrt(np.partition(prods, prods.size - n - 1)[prods.size - n - 1])
            expect(abs(out - ref) <= 1e-12 * ref, f"en_all d={d} n={n}: {out} != {ref}")
    return check


def _check_classify(lam1, lam2, decay, goodcase):
    def check(out, outputs):
        if lam2 >= lam1 * (1.0 - spectra.REL_TIE):
            expect(out.classification_all == "curse" and out.classification_std == "curse",
                   "tied top eigenvalue must give the curse")
            return
        t_star = max(2.0 / decay, 2.0 / math.log(lam1 / lam2))
        expect(out.classification_all == "qpt-not-pt", out.classification_all)
        expect(abs(out.qpt_exponent - t_star) <= 1e-12 * t_star, "wrong QPT exponent")
        expect(out.classification_std == ("curse" if goodcase else "unknown"),
               out.classification_std)
    return check


def build_counting(seed: int, tracer=None) -> list[Job]:
    table = _load_table()["counts"] if seed == DEFAULT_SEED else None
    return _counting_jobs(seed, table)


def _counting_jobs(seed: int, table: dict | None) -> list[Job]:
    rng = np.random.default_rng(seed)
    KernelSpec = spectra.KernelSpec

    def eigs(spec, count):
        return eigensolve.family_eigenvalues(spec, count)

    untied = [("sobolev-min", eigs(KernelSpec("sobolev-min"), 2000), True),
              ("sobolev-cosh", eigs(KernelSpec("sobolev-cosh"), 2000), None)]
    for _ in range(UNTIED_CHAINS // 3):
        spec = KernelSpec("korobov", alpha=float(rng.uniform(0.8, 2.5)),
                          beta=float(rng.uniform(0.05, 0.8)))
        untied.append((spec.label(), eigs(spec, 2000), None))
    tied = eigs(KernelSpec("korobov", alpha=1.0, beta=1.0), 400)
    near = eigs(KernelSpec("korobov", alpha=0.75, beta=0.9), 4000)

    jobs = []

    def count_chain(label, spectrum, eps, ds, is_tied):
        prev = None
        for d in ds:
            key = ("count", label, eps, d)
            recorded = None if table is None else table["|".join(map(str, key[1:]))]
            jobs.append(Job(key,
                            lambda s=spectrum, q=complexity.ComplexityQuery(eps=eps, d=d):
                                complexity.count_info_complexity_all(s, q),
                            _check_count(spectrum, eps, d, prev, is_tied, recorded)))
            prev = key

    for c in range(UNTIED_CHAINS):
        # a third each: sobolev-min, sobolev-cosh, a korobov spectrum of its own
        label, spectrum, _ = untied[c % 3 if c % 3 < 2 else 2 + c // 3]
        eps = UNTIED_EPS[(c // 3) % len(UNTIED_EPS)]
        count_chain(f"{label}#{c}", spectrum, eps, UNTIED_DS, False)
    count_chain("korobov-tied", tied, TIED_EPS, TIED_DS, True)
    for eps, ds in NEAR_TIED_CHAINS.items():
        count_chain("korobov-near-tied", near, eps, ds, False)

    for c in range(EN_CHAINS):
        label, spectrum, _ = untied[c % len(untied)]
        d = (2, 3, 4, 6)[c % 4]
        prev = None
        for n in sorted(int(v) for v in rng.choice(np.arange(1, 400), size=8, replace=False)):
            key = ("en_all", label, c, d, n)
            jobs.append(Job(key, lambda s=spectrum, d=d, n=n: complexity.en_all(s, d, n),
                            _check_en(spectrum, d, n, prev)))
            prev = key

    cases = untied + [("korobov-tied", tied, None), ("korobov-near-tied", near, None)]
    for c in range(CLASSIFY_JOBS):
        label, spectrum, goodcase = cases[int(rng.integers(len(cases)))]
        lam1, lam2 = (float(v) for v in spectrum.values[:2])
        decay = float(spectrum.exact_decay)
        jobs.append(Job(("classify", label, c),
                        lambda a=lam1, b=lam2, dec=decay, g=goodcase: complexity.classify(a, b, dec, g),
                        _check_classify(lam1, lam2, decay, goodcase)))

    # warm-up
    for _, spectrum, _ in untied[:2]:
        complexity.count_info_complexity_all(spectrum, complexity.ComplexityQuery(eps=0.1, d=4))
        complexity.en_all(spectrum, 3, 10)
    return jobs


def record_counting_table() -> None:
    """Write the counts of the default seed's counting jobs.  Run it only on
    a commit whose counts are known to be right (the seed commit's were
    cross-checked by brute force and by criterion 5), from the checkout root:

        PYTHONPATH=src:perfbench python3 -c \
            "import workloads; workloads.record_counting_table()"
    """
    jobs = [job for job in _counting_jobs(DEFAULT_SEED, None) if job.key[0] == "count"]
    counts = {"|".join(map(str, job.key[1:])): job.call().count for job in jobs}
    with open(COUNTING_TABLE, "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "counts": counts}, fh, indent=0, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# cli: the real entry point, one subprocess at a time
# ---------------------------------------------------------------------------

CLI_TIMEOUT_S = 120
PASSED_LINE = re.compile(r"^(\d+)/(\d+) checks passed$", re.MULTILINE)


def _check_cli(reproduce: bool):
    def check(out, outputs):
        code, stdout = out
        expect(code == 0, f"exit code {code}")
        expect(stdout, "no output")
        if reproduce:
            found = PASSED_LINE.findall(stdout.decode())
            expect(found and found[-1][0] == found[-1][1], "reproduce: not every check passed")
    return check


# Rounds of the eleven small calls in one pass.  With two, the 23 jobs put
# both the median and the tail (the 13th smallest) among the cold starts of
# small calls; with one, the tail would be the 2nd-fastest of 12 calls, which
# flips between the host's fast and slow start-up modes from run to run.
# Twice the calls in one pass cost what one round in two passes did.
CLI_SMALL_ROUNDS = 2


def _cli_small_calls(rng, workdir: Path) -> list[list[str]]:
    def family():
        name = str(rng.choice(["sobolev-min", "sobolev-cosh", "korobov"]))
        if name == "korobov":
            return ["--family", name, "--alpha", str(rng.choice([1, 2])),
                    "--beta", f"{rng.uniform(0.2, 0.8):.3f}"]
        return ["--family", name]

    return [
        ["eigs", *family(), "--count", str(rng.integers(5, 20))],
        ["eigs", *family(), "--count", str(rng.integers(5, 20)), "--format", "json"],
        ["oracle-eigs", *family(), "--grid-size", "400", "--count", "5"],
        ["oracle-eigs", *family(), "--count", "2", "--refine", "100,200,400"],
        ["complexity", "--family", "korobov", "--alpha", f"{rng.uniform(1.0, 2.0):.3f}",
         "--beta", f"{rng.uniform(0.1, 0.6):.3f}", "--d", str(rng.integers(2, 9)),
         "--eps", str(rng.choice([0.1, 0.2, 0.3]))],
        ["complexity", "--family", "sobolev-min", "--d", str(rng.integers(2, 17)),
         "--eps", str(rng.choice([0.05, 0.1, 0.2]))],
        ["classify", *family(), "--format", "json"],
        ["classify", *family()],
        ["density", "--samples", str(rng.integers(65, 1025)), "--out", str(workdir / "density")],
        ["oracle-eigs", "--family", "sobolev-distance", "--anchor", f"{rng.uniform(0.0, 1.0):.3f}",
         "--grid-size", "400", "--count", "5"],
        # At its default --seed.  Drawn seeds fail on about 2.5 % of them:
        # the 80-step power iteration of verify_e0_characterization can stop
        # 7e-5 short of the top eigenspace, against a tolerance of 1e-6.
        ["verify-reduction", "--problems", "10", "--trials", "2", "--samples", "5"],
    ]


def cli_argvs(rng, workdir: Path) -> list[list[str]]:
    argvs = [["reproduce"]]
    for _ in range(CLI_SMALL_ROUNDS):
        argvs += _cli_small_calls(rng, workdir)
    return argvs


class CliRunner:
    """Runs one ``python -m tensortract.cli`` process and returns (exit code,
    stdout).  With a tracer it runs ``cli_shim.py`` instead, which records
    spans inside the child, and adopts them under a ``cli.process`` span."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.workdir = ROOT / ".bench_out" / f"cli-{os.getpid()}"

    def __call__(self, argv: list[str]):
        self.workdir.mkdir(parents=True, exist_ok=True)
        if self.tracer is None:
            proc = self._run([sys.executable, "-m", "tensortract.cli", *argv])
            return proc.returncode, proc.stdout
        spans_file = self.workdir / "spans.json"
        spans_file.unlink(missing_ok=True)
        sid = self.tracer.begin("cli.process")
        try:
            proc = self._run([sys.executable, str(HERE / "cli_shim.py"), str(spans_file), *argv])
            with open(spans_file) as fh:
                child = json.load(fh)
            self.tracer.adopt(child["spans"], child["counters"])
        finally:
            self.tracer.end(sid)
        self.tracer.count("cli.stdout_bytes", len(proc.stdout))
        return proc.returncode, proc.stdout

    def _run(self, cmd):
        # the environment, with src/ on PYTHONPATH, is the one run.py set
        return subprocess.run(cmd, cwd=self.workdir, capture_output=True, timeout=CLI_TIMEOUT_S)


def build_cli(seed: int, tracer=None) -> list[Job]:
    import tensortract.cli  # noqa: F401  (warm-up: the import every CLI process pays)

    runner = CliRunner(tracer)
    rng = np.random.default_rng(seed)
    return [Job(("cli", i, argv[0]), lambda argv=argv: runner(argv), _check_cli(argv[0] == "reproduce"))
            for i, argv in enumerate(cli_argvs(rng, runner.workdir))]


WORKLOADS = {"spectral": build_spectral, "counting": build_counting, "cli": build_cli}
