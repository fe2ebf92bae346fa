import math

import mpmath
import numpy as np
import pytest
import scipy.integrate

from tensortract import (KernelSpec, NumericError, ParameterError, family_eigenpair,
                         family_eigenpairs, family_eigenvalues, kernel_eval)
from tensortract.eigensolve import _ALPHA1_ABOVE, _min_kernel_roots

MIN = KernelSpec("sobolev-min")
COSH = KernelSpec("sobolev-cosh")

# frozen by an independent 200-iteration bisection of cot x - x
ALPHA1 = 0.8603335890193797
LAMBDA1 = 1.3510338868783787
LAMBDA2 = 0.08521617165090602

# Bisection width before the final Newton polish.
_BISECT_ATOL = 1e-13
# Offset keeping the bracket away from the cot singularities at multiples of pi.
_BRACKET_PAD = 1e-9


def _cot_minus_x(x: float) -> float:
    return math.cos(x) / math.sin(x) - x


def solve_cot_root(j: int) -> float:
    """Oracle for `_min_kernel_roots`: root alpha_j of cot x = x strictly inside
    ((j-1) pi, j pi), one scalar at a time.

    Bisection (unconditionally convergent on the bracket: cot x - x falls
    from +inf to -inf across each interval) down to 1e-13, then two Newton
    steps to restore full double precision.
    """
    lo = (j - 1) * math.pi + _BRACKET_PAD
    hi = j * math.pi - _BRACKET_PAD
    if not (_cot_minus_x(lo) > 0.0 > _cot_minus_x(hi)):
        raise NumericError(f"cot-root bracket lost its sign change for j={j}")
    while hi - lo > _BISECT_ATOL:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # interval already at ulp resolution
        if _cot_minus_x(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    for _ in range(2):
        s = math.sin(x)
        x -= (math.cos(x) / s - x) / (-1.0 / (s * s) - 1.0)
    return x


def _ulps(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.abs(a - b) / np.spacing(np.maximum(np.abs(a), np.abs(b)))


def test_first_roots_frozen():
    assert solve_cot_root(1) == pytest.approx(ALPHA1, abs=1e-12)
    assert solve_cot_root(1) ** -2 == pytest.approx(LAMBDA1, abs=1e-12)
    assert solve_cot_root(2) ** -2 == pytest.approx(LAMBDA2, abs=1e-12)


def test_leading_eigenvalues_match_reference_digits():
    assert solve_cot_root(1) ** -2 == pytest.approx(1.35103388, abs=1e-7)
    assert solve_cot_root(2) ** -2 == pytest.approx(0.08521617, abs=1e-7)


def test_root_residual_and_interlacing():
    # the residual condition number at the root is 2 + alpha_j^2, so a
    # half-ulp-accurate root at j = 50 cannot push the raw residual below
    # ~3e-10; assert the flat 1e-10 where it is representable and the
    # condition-scaled half-ulp bound everywhere
    eps = np.finfo(float).eps
    for j in range(1, 51):
        a = solve_cot_root(j)
        assert (j - 1) * math.pi < a < j * math.pi
        residual = abs(math.cos(a) / math.sin(a) - a)
        if j <= 25:
            assert residual < 1e-10
        assert residual < 4.0 * eps * a * (2.0 + a * a)


def test_roots_monotone():
    roots = [solve_cot_root(j) for j in range(1, 30)]
    assert all(b > a for a, b in zip(roots, roots[1:]))


def test_vectorized_roots_match_the_scalar_solver():
    # the largest distances over j <= 2 * 10^4 are 2 ulps in alpha_j and 4 in lambda_j
    roots = np.array([solve_cot_root(j) for j in range(1, 20001)])
    assert _ulps(_min_kernel_roots(20000), roots).max() <= 2.0
    lam = family_eigenvalues(MIN, 20000).values
    assert _ulps(lam, roots ** -2).max() <= 5.0
    assert np.max(np.abs(lam - roots ** -2) * roots ** 2) <= 1e-15


@pytest.mark.parametrize("j", [1, 2, 3, 10, 1000, 2 ** 16])
def test_vectorized_roots_match_mpmath(j):
    got = family_eigenvalues(MIN, j).values[-1]
    with mpmath.workdps(40):
        c, tiny = (j - 1) * mpmath.pi, mpmath.mpf("1e-30")
        y = mpmath.findroot(lambda y: y - mpmath.atan(1 / (c + y)),
                            (tiny, mpmath.pi / 2 - tiny), solver="anderson")
        ref = (c + y) ** -2
        assert abs(float((got - ref) / ref)) <= 1e-15


def test_invalid_root_index():
    for family in ("sobolev-min", "sobolev-cosh"):
        for j in (0, -1, 1.0):
            with pytest.raises(ParameterError):
                family_eigenpair(KernelSpec(family), j)
    with pytest.raises(ParameterError):
        family_eigenpair(KernelSpec("korobov", alpha=1.0, beta=0.5), 0)


def test_alpha1_bound_rounds_the_root_up():
    with mpmath.workdps(40):
        root = mpmath.findroot(lambda x: mpmath.cot(x) - x, 0.86)
        assert _ALPHA1_ABOVE > root
    assert _ALPHA1_ABOVE == np.nextafter(_min_kernel_roots(1)[0], 1.0)


def _constants(spec, j):
    """alpha_j and beta_j, row j of the table."""
    params = family_eigenpairs(spec, j)[1]
    return params["alpha"][-1], params["beta"][-1]


def _min_derivative(j, x):
    # eta_j = beta cos(alpha x - alpha)
    a, b = _constants(MIN, j)
    return -b * a * np.sin(a * x - a)


def _sobolev_min_inner(i, j, nodes=8193):
    x = np.linspace(0.0, 1.0, nodes)
    return float(family_eigenpair(MIN, i).func(0.0) * family_eigenpair(MIN, j).func(0.0)
                 + scipy.integrate.simpson(_min_derivative(i, x) * _min_derivative(j, x), x=x))


def test_min_kernel_eigenfunction_unit_norm():
    for j in (1, 2, 3):
        assert _sobolev_min_inner(j, j) == pytest.approx(1.0, abs=1e-9)
    # the table's trig-free beta_j against the norm's own formula
    _, params = family_eigenpairs(MIN, 20000)
    a = params["alpha"]
    beta = (np.cos(a) ** 2 + 0.5 * a * (a - 0.5 * np.sin(2.0 * a))) ** -0.5
    assert _ulps(params["beta"], beta).max() <= 3.0


def test_min_kernel_orthonormality():
    for i in range(1, 6):
        for j in range(i + 1, 6):
            assert abs(_sobolev_min_inner(i, j)) < 1e-7


def test_min_kernel_large_j_asymptotics():
    # lambda_j approaches 1/(pi^2 j^2) from above since alpha_j sits just
    # past (j-1) pi; at j = 50 the product is 1.0411..., tending to 1
    prod50 = (solve_cot_root(50) ** -2) * math.pi ** 2 * 50 ** 2
    assert prod50 == pytest.approx(1.041144950995839, abs=1e-9)
    assert 1.0 < prod50 < 1.05
    prod500 = (solve_cot_root(500) ** -2) * math.pi ** 2 * 500 ** 2
    assert 1.0 < prod500 < prod50


def test_min_kernel_eigenrelation_against_integral_operator():
    # int K(x, y) eta_j(y) dy = lambda_j eta_j(x); split at the kink y = x
    spec = MIN
    for j in (1, 2, 3):
        p = family_eigenpair(spec, j)
        for x in np.linspace(0.025, 0.975, 20):
            left = np.linspace(0.0, x, 2001)
            right = np.linspace(x, 1.0, 2001)
            val = (scipy.integrate.simpson(
                       [kernel_eval(spec, x, y) for y in left] * p.func(left), x=left)
                   + scipy.integrate.simpson(
                       [kernel_eval(spec, x, y) for y in right] * p.func(right), x=right))
            assert val == pytest.approx(p.value * float(p.func(x)), abs=1e-6)


def test_cosh_eigenvalues_closed_form():
    seq = family_eigenvalues(COSH, 3)
    assert seq.values[0] == 1.0
    assert seq.values[1] == pytest.approx(0.09199966835037524, abs=1e-12)
    assert seq.values[2] == pytest.approx(1.0 / (1.0 + 4.0 * math.pi ** 2), abs=1e-15)
    assert seq.exact_decay == 2.0


def _cosh_derivative(j, x):
    # eta_j = beta cos(alpha x), alpha = (j - 1) pi
    a, b = _constants(COSH, j)
    return -b * a * np.sin(a * x)


def _cosh_inner(i, j, nodes=8193):
    x = np.linspace(0.0, 1.0, nodes)
    values = family_eigenpair(COSH, i).func(x) * family_eigenpair(COSH, j).func(x)
    return float(scipy.integrate.simpson(values, x=x)
                 + scipy.integrate.simpson(_cosh_derivative(i, x) * _cosh_derivative(j, x), x=x))


def test_cosh_eigenfunctions_orthonormal():
    for i in range(1, 5):
        assert _cosh_inner(i, i) == pytest.approx(1.0, abs=1e-8)
        for j in range(i + 1, 5):
            assert abs(_cosh_inner(i, j)) < 1e-8


def test_korobov_spectrum_layout():
    seq = family_eigenvalues(KernelSpec("korobov", alpha=1.0, beta=0.5), 5)
    assert seq.values[0] == 1.0
    assert seq.values[1] == seq.values[2] == 0.5
    assert seq.values[3] == seq.values[4] == 0.125
    assert seq.exact_decay == 2.0
    # matches a brute-force sort of the generating rule
    raw = sorted([1.0] + [0.5 * k ** -2.0 for k in range(1, 4) for _ in range(2)],
                 reverse=True)
    np.testing.assert_allclose(
        family_eigenvalues(KernelSpec("korobov", alpha=1.0, beta=0.5), 7).values, raw)


def test_korobov_beta_one_top_tie():
    seq = family_eigenvalues(KernelSpec("korobov", alpha=1.0, beta=1.0), 4)
    assert seq.values[0] == seq.values[1] == seq.values[2] == 1.0


def test_invalid_korobov_parameters():
    for alpha, beta in ((0.4, 0.5), (1.0, 0.0),
                        (math.inf, 0.5)):   # k^-inf would give 1, beta, beta, 0, ...
        with pytest.raises(ParameterError):
            family_eigenvalues(KernelSpec("korobov", alpha=alpha, beta=beta), 3)


ANALYTIC_SPECS = [KernelSpec("sobolev-min"), KernelSpec("sobolev-cosh"),
                  KernelSpec("korobov", alpha=1.0, beta=0.5),
                  KernelSpec("korobov", alpha=0.75, beta=1.0)]


@pytest.mark.parametrize("spec", ANALYTIC_SPECS, ids=lambda s: s.label())
def test_every_reader_takes_the_one_table(spec):
    values, params = family_eigenpairs(spec, 9)
    assert values.shape == (9,) and all(col.shape == (9,) for col in params.values())
    assert np.array_equal(family_eigenvalues(spec, 9).values, values)
    for j in range(1, 10):
        assert family_eigenpair(spec, j).value == values[j - 1]


def test_eigenfunctions_at_hand_worked_points():
    # eta_j worked out by hand from the closed forms; sobolev-min's eta_j is
    # checked against the integral operator in the min-kernel tests
    x = [0.0, 0.125, 0.25, 0.5, 1.0]
    r = math.sqrt(0.5)
    korobov = KernelSpec("korobov", alpha=1.0, beta=0.5)   # lambda_2..5 = 1/2, 1/2, 1/8, 1/8
    for j, want in ((1, [1.0, 1.0, 1.0, 1.0, 1.0]),
                    (2, [1.0, r, 0.0, -1.0, 1.0]),         # cos(2 pi x)
                    (3, [0.0, r, 1.0, 0.0, 0.0]),          # sin(2 pi x)
                    (4, [0.5, 0.0, -0.5, 0.5, 0.5]),       # cos(4 pi x) / 2
                    (5, [0.0, 0.5, 0.0, 0.0, 0.0])):       # sin(4 pi x) / 2
        np.testing.assert_allclose(family_eigenpair(korobov, j)(x), want, rtol=0.0, atol=1e-15)
    cosh = KernelSpec("sobolev-cosh")
    beta2 = math.sqrt(2.0 / (1.0 + math.pi ** 2))         # eta_2 = beta_2 cos(pi x)
    np.testing.assert_allclose(family_eigenpair(cosh, 1)(x), 1.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(family_eigenpair(cosh, 2)(x),
                               [beta2, beta2 * 0.9238795325112867, beta2 * r, 0.0, -beta2],
                               rtol=0.0, atol=1e-15)


def test_table_rows_do_not_depend_on_the_count():
    for spec in ANALYTIC_SPECS:
        long_values, long_params = family_eigenpairs(spec, 1000)
        for count in (1, 2, 7, 64, 999):
            values, params = family_eigenpairs(spec, count)
            assert np.array_equal(values, long_values[:count]), (spec.label(), count)
            for key, col in params.items():
                assert np.array_equal(col, long_params[key][:count])


def test_korobov_eigenpairs_solve_the_integral_equation():
    # int K(x, y) eta_j(y) dy = lambda_j eta_j(x); on a periodic integrand the
    # trapezoid rule on 400 nodes errs only by the kernel's harmonics past 390,
    # which sum to below 1e-10 at alpha = 2
    spec = KernelSpec("korobov", alpha=2.0, beta=0.5)
    y = np.arange(400) / 400
    pairs = [family_eigenpair(spec, j) for j in range(1, 8)]
    assert family_eigenpairs(spec, 7)[1]["harmonic"].tolist() == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
    for p in pairs:
        for x in (0.0, 0.1, 0.37, 0.9):
            kernel = np.array([kernel_eval(spec, x, t) for t in y])
            assert np.mean(kernel * p.func(y)) == pytest.approx(p.value * float(p(x)), abs=1e-10)
        # ||eta_j||^2 in L2 is lambda_j and the pairs are L2-orthogonal
        gram = [np.mean(p.func(y) * q.func(y)) for q in pairs]
        np.testing.assert_allclose(gram, [p.value if q is p else 0.0 for q in pairs], atol=1e-14)
