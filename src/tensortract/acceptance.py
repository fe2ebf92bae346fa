"""Reproduction suite: one pass/fail row per headline number or property.

Each criterion recomputes its quantities from scratch through the public
modules and compares against either a fixed reference constant, an
independently derived value, or an exact combinatorial oracle.  A criterion
takes no argument and returns its checks as plain tuples
``(description, expected, computed, tolerance)``.  The tolerance is a float
(pass when |computed - expected| <= tolerance, all three taken as floats),
``"exact"`` (pass when computed == expected) or ``">="`` (pass when
computed >= expected).  `run_all` alone turns checks into report rows.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .cli import density_profile, density_svg
from .complexity import (ComplexityQuery, brute_force_count,
                         check_goodcase_sobolev_min, classify,
                         count_info_complexity_all, estimate_decay, qpt_exponent)
from .eigensolve import family_eigenpair, family_eigenvalues
from .errors import ParameterError
from .nystrom import midpoint_grid, nystrom_solver, nystrom_spectrum, richardson_refine
from .reduction import (piecewise_constant_instance, cube_mean_functional,
                        minimal_error_std, random_problem,
                        random_problem_with_multiplicity, verify_domination,
                        verify_e0_characterization)
from .spectra import Eigenpair, KernelSpec, gram_matrix, kernel_eval

# Published reference digits (truncated decimals, hence the loose tolerances).
LAMBDA1_MIN_KERNEL = 1.35103388
LAMBDA2_MIN_KERNEL = 0.08521617
LAMBDA2_COSH = 0.091999668
RATIO_BASE = 1.01327541   # lambda_1 / (4/3), from the digits above

_MIN = KernelSpec("sobolev-min")
_COSH = KernelSpec("sobolev-cosh")


@dataclass
class CriterionRow:
    criterion_id: str
    description: str
    expected: object
    computed: object
    tolerance: object
    passed: bool
    seconds: float   # wall time of the whole criterion


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def c01_min_kernel_eigenvalues():
    lam = family_eigenvalues(_MIN, 2).values
    return [("sobolev-min lambda_1 = alpha_1^-2", LAMBDA1_MIN_KERNEL, lam[0], 1e-7),
            ("sobolev-min lambda_2 = alpha_2^-2", LAMBDA2_MIN_KERNEL, lam[1], 1e-7)]


def c02_oracle_agreement():
    checks = []
    specs = [_MIN, _COSH, KernelSpec("korobov", alpha=1.0, beta=0.5)]
    grid = midpoint_grid(2000)
    for spec in specs:
        analytic = family_eigenvalues(spec, 5).values
        numeric = nystrom_spectrum(spec, grid, 5).values
        rel = float(np.max(np.abs(numeric - analytic) / analytic))
        checks.append((f"oracle vs analytic, first 5 ({spec.label()})", 0.0, rel, 1e-3))
    refined = richardson_refine(_MIN, 2, [500, 1000, 2000])
    lam = family_eigenvalues(_MIN, 2).values
    checks.append(("richardson-refined sobolev-min lambda_1",
                   lam[0], refined.eigensequence.values[0], 1e-5))
    checks.append(("richardson-refined sobolev-min lambda_2",
                   lam[1], refined.eigensequence.values[1], 1e-5))
    gate = richardson_refine(_COSH, 3, [500, 1000, 2000])
    checks.append(("cosh rule gate: refined lambda_3 vs 1/(1+4 pi^2)",
                   1.0 / (1.0 + 4.0 * math.pi ** 2), gate.eigensequence.values[2], 1e-5))
    # at m = 16000 and 32000 the O(m^-4) term left after refinement is far below 1e-10
    for spec in specs[:2]:
        refined = richardson_refine(spec, 3, [16000, 32000]).eigensequence.values
        analytic = family_eigenvalues(spec, 3).values
        rel = float(np.max(np.abs(refined - analytic) / analytic))
        checks.append((f"richardson [16000, 32000] vs analytic, first 3 ({spec.label()})",
                       0.0, rel, 1e-10))
    return checks


def c03_cosh_lambda2():
    return [("cosh-kernel lambda_2 = 1/(1+pi^2)", LAMBDA2_COSH,
             family_eigenvalues(_COSH, 2).values[1], 1e-9)]


def c04_qpt_exponent():
    lam = family_eigenvalues(_MIN, 2).values
    checks = [("sobolev-min QPT exponent t* = 1", 1.0, qpt_exponent(lam[0], lam[1], 2.0), 0.0)]
    for alpha, beta in [(1.0, math.exp(-1.0)), (2.0, 0.5), (0.75, 0.9),
                        (1.5, 0.1), (1.0, 0.25)]:
        expected = max(1.0 / alpha, 2.0 / math.log(1.0 / beta))
        computed = qpt_exponent(1.0, beta, 2.0 * alpha)
        checks.append((f"korobov t* (alpha={alpha:g}, beta={beta:g})", expected, computed, 1e-12))
    return checks


def _counting_cases(n_cases=102, seed=20260808):
    rng = np.random.default_rng(seed)
    sob = family_eigenvalues(_MIN, 60)
    cosh = family_eigenvalues(_COSH, 60)
    eps_grid = np.round(np.arange(1, 10) * 0.1, 1)
    for i in range(n_cases):
        which = i % 3
        if which == 0:
            eigs = sob
        elif which == 1:
            eigs = cosh
        else:
            alpha = float(rng.uniform(0.8, 2.5))
            beta = 1.0 if rng.random() < 0.2 else float(rng.uniform(0.05, 1.0))
            eigs = family_eigenvalues(KernelSpec("korobov", alpha=alpha, beta=beta), 140)
        d = int(rng.integers(1, 5))
        eps = float(rng.choice(eps_grid))
        yield eigs, ComplexityQuery(eps=eps, d=d)


def c05_counting_equivalence():
    mismatches = 0
    cases = 0
    for eigs, query in _counting_cases():
        cases += 1
        fast = count_info_complexity_all(eigs, query)
        slow = brute_force_count(eigs, query)
        if fast.count != slow.count:
            mismatches += 1
    return [("randomized counting cases run", 100, cases, ">="),
            ("weight-classes vs direct-enum mismatches", 0, mismatches, "exact")]


def c06_curse_lower_bound():
    eigs = family_eigenvalues(KernelSpec("korobov", alpha=1.0, beta=1.0), 64)
    worst_ratio = math.inf
    for d in range(1, 13):
        for eps in (0.1, 0.5, 0.9):
            res = count_info_complexity_all(eigs, ComplexityQuery(eps=eps, d=d))
            worst_ratio = min(worst_ratio, res.count / 2 ** d)
    return [("korobov beta=1: count / 2^d over d<=12, eps in {.1,.5,.9}", 1.0, worst_ratio, ">=")]


def c07_piecewise_model_closed_form():
    worst_func = 0.0
    worst_op = 0.0
    for d in range(1, 5):
        problem = piecewise_constant_instance(d)
        functional = cube_mean_functional(problem)
        m = 2 ** d
        for n in range(m + 1):
            err, subset = minimal_error_std(problem, functional, n)
            target = math.sqrt(1.0 - n / m)
            worst_func = max(worst_func, abs(err - target))
            if len(set(subset)) != n:
                worst_func = math.inf
        for n in range(m):
            err, _ = minimal_error_std(problem, "operator", n)
            worst_op = max(worst_op, abs(err - 1.0))
        err, _ = minimal_error_std(problem, "operator", m)
        worst_op = max(worst_op, abs(err))
    return [("mean functional: max |e_n - sqrt(1 - n 2^-d)|, d<=4", 0.0, worst_func, 1e-12),
            ("operator: max |e_n - 1| for n < 2^d (and e_{2^d} = 0), d<=4", 0.0, worst_op, 1e-12)]


def c08_domination():
    rng = np.random.default_rng(731)
    violations = 0
    worst_excess = -math.inf
    for i in range(100):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        n = int(rng.integers(0, 3))
        problem = random_problem(seed=1000 + i, m=m, k=k)
        g = rng.standard_normal(k)
        g /= math.sqrt(float(g @ problem.gram_G @ g))
        report = verify_domination(problem, g, n=n, trials=3, seed=2000 + i)
        worst_excess = max(worst_excess, report.max_pointwise_excess,
                           report.e_n_functional - report.e_n_operator)
        if not report.passed:
            violations += 1
    return [("domination counterexamples over 100 random problems", 0, violations, "exact"),
            ("largest signed excess of e_n(I_g) over e_n(S)", 0.0, max(worst_excess, 0.0), 1e-12)]


def c09_e0_characterization():
    failures = 0
    worst_distance = 0.0
    plan = [1] * 7 + [2] * 7 + [4] * 6
    rng = np.random.default_rng(947)
    for i, mult in enumerate(plan):
        m = int(rng.integers(max(mult, 4), 9))
        problem = random_problem_with_multiplicity(seed=3000 + i, m=m, multiplicity=mult)
        report = verify_e0_characterization(problem, samples=30, seed=4000 + i)
        if not report.passed or report.multiplicity != mult:
            failures += 1
        worst_distance = max(worst_distance, report.max_achiever_distance)
    return [("characterization failures over 20 instances (mult 1, 2, 4)", 0, failures, "exact"),
            ("largest G-distance of a maximizer from the predicted set", 0.0, worst_distance, 1e-6)]


# 20-point Gauss-Legendre rule on [-1, 1], exact for polynomials of degree up to
# 39: the reprs of numpy's leggauss(20), which is exactly symmetric about 0, so
# only its positive half is written out (importing numpy.polynomial costs 4 ms)
_GL_HALF_NODES = [0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
                  0.5108670019508271, 0.636053680726515, 0.7463319064601508,
                  0.8391169718222188, 0.912234428251326, 0.9639719272779138, 0.993128599185095]
_GL_HALF_WEIGHTS = [0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
                    0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
                    0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
                    0.017614007139150893]
_GL_NODES = [-t for t in _GL_HALF_NODES[::-1]] + _GL_HALF_NODES
_GL_WEIGHTS = _GL_HALF_WEIGHTS[::-1] + _GL_HALF_WEIGHTS


def _gauss_legendre(f, a, b):
    half = 0.5 * (b - a)
    return half * math.fsum(w * f(a + half * (t + 1.0)) for t, w in zip(_GL_NODES, _GL_WEIGHTS))


def c10_initial_error_ratio():
    def inner(x):
        # split the inner integral at the diagonal kink of the kernel, where
        # it is a polynomial on either side
        return sum(_gauss_legendre(lambda y: kernel_eval(_MIN, x, y), a, b)
                   for a, b in ((0.0, x), (x, 1.0)))

    return [("e0(INT_1)^2 = integral of the kernel = 4/3", 4.0 / 3.0,
             _gauss_legendre(inner, 0.0, 1.0), 1e-8),
            ("initial-error ratio base lambda_1/(4/3)", RATIO_BASE,
             family_eigenvalues(_MIN, 1).values[0] / (4.0 / 3.0), 1e-6)]


def c11_density_figure():
    xs, ys, integral = density_profile(513)
    direction = 1.0 if ys[-1] > ys[0] else -1.0  # brute-force sign oracle
    monotone = bool(np.all(direction * np.diff(ys) > 0.0))
    again_xs, again_ys, _ = density_profile(513)
    identical = density_svg(xs, ys) == density_svg(again_xs, again_ys)
    return [("density unit mass: int g_1^2 over [0,1]", 1.0, integral, 1e-6),
            ("density strictly monotone (direction from sign oracle)", True, monotone, "exact"),
            ("density SVG byte-identical across runs", True, identical, "exact")]


def c12_decay_estimation():
    checks = [("decay estimate, sobolev-min (window 20..200)", 2.0,
               estimate_decay(family_eigenvalues(_MIN, 200), (20, 200)), 0.05)]
    for alpha in (0.75, 1.0, 1.5):
        eigs = family_eigenvalues(KernelSpec("korobov", alpha=alpha, beta=0.5), 220)
        checks.append((f"decay estimate, korobov alpha={alpha:g}", 2.0 * alpha,
                       estimate_decay(eigs, (20, 200)), 0.05))
    return checks


def c13_goodcase_and_classification():
    eta1 = family_eigenpair(_MIN, 1)
    checks = [("goodcase holds for the cosine eigenfunction", True,
               bool(check_goodcase_sobolev_min(eta1)), "exact")]
    for t in (0.0, 0.25, 0.5, 1.0, 0.6135):   # 0.6135 lies between the grid points
        section = Eigenpair(value=1.0,
                            func=lambda x, t=t: 0.7 * (1.0 + np.minimum(np.asarray(x, dtype=float), t)))
        checks.append((f"goodcase rejected for the kernel section at t={t:g}", True,
                       not check_goodcase_sobolev_min(section), "exact"))
    lam = family_eigenvalues(_MIN, 2).values
    report = classify(float(lam[0]), float(lam[1]), 2.0, goodcase=True)
    return checks + [
        ("linear-class classification", "qpt-not-pt", report.classification_all, "exact"),
        ("classification QPT exponent", 1.0, report.qpt_exponent, 0.0),
        ("standard-class classification", "curse", report.classification_std, "exact"),
    ]


def c14_solvers_match_dense_eigvalsh():
    # every closed-form Nystrom solver against numpy's dense eigvalsh of the
    # kernel's own weighted Gram, at every count of a 64-point grid; the
    # largest difference is taken relative to lambda_1
    grid = midpoint_grid(64)
    specs = [_MIN, _COSH, KernelSpec("brownian-min"),
             *(KernelSpec("sobolev-distance", a=a) for a in (0.0, 0.3, 0.5)),
             KernelSpec("korobov", alpha=1.0, beta=0.5)]
    checks = []
    for spec in specs:
        dense = np.linalg.eigvalsh(gram_matrix(spec, grid.nodes) / 64)[::-1]
        solved = nystrom_spectrum(spec, grid, 64).values
        checks.append((f"{nystrom_solver(spec)} vs dense eigvalsh, m=64 ({spec.label()})",
                       0.0, np.max(np.abs(solved - dense)) / dense[0], 1e-12))
    return checks


CRITERIA = {
    "1": c01_min_kernel_eigenvalues,
    "2": c02_oracle_agreement,
    "3": c03_cosh_lambda2,
    "4": c04_qpt_exponent,
    "5": c05_counting_equivalence,
    "6": c06_curse_lower_bound,
    "7": c07_piecewise_model_closed_form,
    "8": c08_domination,
    "9": c09_e0_characterization,
    "10": c10_initial_error_ratio,
    "11": c11_density_figure,
    "12": c12_decay_estimation,
    "13": c13_goodcase_and_classification,
    "14": c14_solvers_match_dense_eigvalsh,
}


def run_all(only=None) -> list[CriterionRow]:
    """Run the criteria in ``only`` (all by default) and judge each check."""
    unknown = set(only or ()) - set(CRITERIA)
    if unknown:
        raise ParameterError(f"unknown criterion ids: {sorted(unknown)}")
    rows: list[CriterionRow] = []
    for cid, criterion in CRITERIA.items():
        if only is not None and cid not in only:
            continue
        start = time.perf_counter()
        checks = criterion()
        seconds = time.perf_counter() - start
        for description, expected, computed, tol in checks:
            if tol == "exact":
                passed = computed == expected
            elif tol == ">=":
                passed = computed >= expected
            else:
                expected, computed, tol = float(expected), float(computed), float(tol)
                passed = abs(computed - expected) <= tol
            rows.append(CriterionRow(cid, description, expected, computed, tol, passed, seconds))
    return rows
