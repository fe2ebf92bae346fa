import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from tensortract import (DomainError, EigenSequence, KernelSpec,
                         ParameterError, gram_matrix, kernel_eval)
from tensortract.spectra import FAMILIES, _korobov_series, _zeta_ladder

MIN = KernelSpec("sobolev-min")
COSH = KernelSpec("sobolev-cosh")
KOR = KernelSpec("korobov", alpha=1.0, beta=0.5)

ALL_CONTINUOUS = [
    MIN,
    COSH,
    KOR,
    KernelSpec("korobov", alpha=0.8, beta=0.3),
    KernelSpec("sobolev-distance", a=0.4),
    KernelSpec("brownian-min"),
]


def test_min_kernel_values():
    assert kernel_eval(MIN, 0.3, 0.7) == 1.3
    assert kernel_eval(MIN, 0.0, 0.0) == 1.0
    assert kernel_eval(MIN, 1.0, 1.0) == 2.0


def test_cosh_kernel_at_origin():
    # coth(1), evaluated independently
    assert kernel_eval(COSH, 0.0, 0.0) == pytest.approx(1.3130352854993312, abs=1e-14)


def test_korobov_closed_form_matches_direct_sum():
    direct = sum(math.cos(2 * math.pi * k * 0.37) / k ** 2 for k in range(1, 400000))
    assert kernel_eval(KOR, 0.37, 0.0) == pytest.approx(1.0 + 2 * 0.5 * direct, abs=1e-9)


def test_korobov_clausen_path_matches_direct_sum():
    spec = KernelSpec("korobov", alpha=0.8, beta=0.3)
    direct = sum(math.cos(2 * math.pi * k * 0.21) / k ** 1.6 for k in range(1, 400000))
    # the truncated tail of k^-1.6 still contributes ~1e-3; compare loosely in
    # absolute terms but tightly against a tail-corrected value
    tail = 400000 ** -0.6 / 0.6
    got = kernel_eval(spec, 0.21, 0.0)
    assert abs(got - (1.0 + 0.6 * direct)) < 0.6 * tail


def test_korobov_invalid_parameters():
    with pytest.raises(ParameterError):
        KernelSpec("korobov", alpha=0.5, beta=0.5)
    with pytest.raises(ParameterError):
        KernelSpec("korobov", alpha=1.0, beta=0.0)
    with pytest.raises(ParameterError):
        KernelSpec("korobov", alpha=1.0, beta=1.5)


@pytest.mark.parametrize("field", ["alpha", "beta", "a"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected(field, bad):
    params = {"korobov": dict(alpha=1.0, beta=0.5), "sobolev-distance": dict(a=0.5)}
    for family in FAMILIES:
        with pytest.raises(ParameterError):
            KernelSpec(family, **{**params.get(family, {}), field: bad})


@settings(max_examples=300, deadline=None)
@given(family=st.sampled_from(FAMILIES + ("discrete",)),
       alpha=st.none() | st.floats(allow_nan=True, allow_infinity=True),
       beta=st.none() | st.floats(allow_nan=True, allow_infinity=True),
       a=st.none() | st.floats(allow_nan=True, allow_infinity=True))
def test_kernel_spec_validator_property(family, alpha, beta, a):
    # either rejected with ParameterError, or every documented constraint holds
    try:
        spec = KernelSpec(family, alpha=alpha, beta=beta, a=a)
    except ParameterError:
        return
    assert spec.family in FAMILIES
    assert all(v is None or math.isfinite(v) for v in (alpha, beta, a))
    if family == "korobov":
        assert alpha > 0.5 and 0.0 < beta <= 1.0
    if family == "sobolev-distance":
        assert 0.0 <= a <= 1.0
    assert math.isfinite(kernel_eval(spec, 0.25, 0.5))


# 2 alpha odd, near odd (both sides of the merged-pole window), even beyond
# the Bernoulli table, and large enough that Gamma(2 alpha) overflows
ORACLE_ALPHAS = [0.51, 0.6, 0.75, 1.25, 1.5, 1.5 + 1e-9, 1.5 - 1e-9, 1.5 + 1e-6,
                 1.5 - 1e-6, 1.5 + 5e-4, 1.5 - 5e-4, 1.5 + 2e-3, 1.5 - 2e-3,
                 2.5 - 6e-4, 3.5, 4.0, 5.0, 10.25, 40.5, 100.0]
ORACLE_THETAS = np.concatenate([[0.0, 1e-12, 1e-6, 0.25, 0.5, 1.0 - 1e-9, 1.0],
                                np.random.default_rng(7).uniform(0.0, 1.0, 3)])


def _korobov_series_mpmath(s, theta):
    t = mpmath.mpf(float(theta))
    t = min(t, 1 - t)   # fold first: 1 - t is exact, 2 pi t near 2 pi is not
    if t == 0:
        return mpmath.zeta(s)
    return mpmath.polylog(s, mpmath.expjpi(2 * t)).real


def test_korobov_series_matches_mpmath_oracle():
    worst = 0.0
    for alpha in ORACLE_ALPHAS:
        got = _korobov_series(ORACLE_THETAS, alpha)
        with mpmath.workdps(40):
            s = 2 * mpmath.mpf(alpha)
            ref = np.array([float(_korobov_series_mpmath(s, t)) for t in ORACLE_THETAS])
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= 1e-11


# 2 alpha = 2n + 1 -+ 5e-4 for every odd order below 40 that keeps alpha > 1/2: the merged
# pole at each n reads psi^(k)(2n + 1) from its closed form.  The thetas are mu = 0, tiny
# mu, mu = pi (the largest series terms) and one interior point
POLE_ALPHAS = [(2 * n + 1 + d) / 2 for n in range(20) for d in (-5e-4, 5e-4) if 2 * n + 1 + d > 1]
POLE_THETAS = np.array([0.0, 1e-12, 1e-6, 0.1, 0.5])


def test_korobov_series_merged_pole_matches_mpmath_at_every_odd_order():
    worst = 0.0
    for alpha in POLE_ALPHAS:
        got = _korobov_series(POLE_THETAS, alpha)
        with mpmath.workdps(40):
            s = 2 * mpmath.mpf(alpha)
            ref = np.array([float(_korobov_series_mpmath(s, t)) for t in POLE_THETAS])
        worst = max(worst, float(np.max(np.abs(got - ref))))
    assert worst <= 1e-11


# s across the series' range (1, 40): random, just off the even and odd orders, and even,
# so that the ladder z = s - 2j meets (0, 1) near both ends, z = 0 and the trivial zeros
ZETA_S = np.concatenate([np.random.default_rng(11).uniform(1.0, 40.0, 60),
                         [1.02, 1.5 + 1e-9, 2.0001, 2.5, 2.9999, 3.0001, 3.5, 4.0, 8.0, 10.25,
                          21.0 - 1e-6, 38.0, 39.9]])


def test_zeta_ladder_matches_mpmath_at_least_as_well_as_scipy():
    # each zeta(s - 2j) enters the series as the coefficient of mu^2j / (2j)!: weigh the
    # error of each by pi^2j / (2j)!, its size at mu = pi, against the sum of the terms there
    j = np.arange(32)
    weights = np.array([math.pi ** (2 * k) / math.factorial(2 * k) for k in j])
    worst, worst_scipy = 0.0, 0.0
    for s in ZETA_S:
        z = s - 2.0 * j
        with mpmath.workdps(40):
            ref = np.array([float(mpmath.zeta(mpmath.mpf(float(x)))) for x in z])
        got = _zeta_ladder(float(s))
        total = np.sum(np.abs(ref) * weights)
        worst = max(worst, float(np.max(np.abs(got - ref) * weights)) / total)
        worst_scipy = max(worst_scipy,
                          float(np.max(np.abs(scipy.special.zeta(z) - ref) * weights)) / total)
        np.testing.assert_array_equal(got == 0.0, ref == 0.0)   # exactly the trivial zeros
        if s == int(s) and s % 2 == 0:
            assert got[int(s) // 2] == -0.5   # zeta(0)
    assert worst <= worst_scipy


def test_sobolev_distance_reduces_to_min_at_zero_anchor():
    spec = KernelSpec("sobolev-distance", a=0.0)
    for x, y in [(0.1, 0.9), (0.5, 0.5), (0.0, 1.0)]:
        assert kernel_eval(spec, x, y) == pytest.approx(kernel_eval(MIN, x, y), abs=1e-15)


def test_out_of_domain_rejected():
    with pytest.raises(DomainError):
        kernel_eval(MIN, -0.1, 0.5)
    with pytest.raises(DomainError):
        kernel_eval(MIN, 0.5, 1.5)
    with pytest.raises(DomainError):
        gram_matrix(MIN, [0.5, math.nan])


@settings(max_examples=40, deadline=None)
@given(x=st.floats(0.0, 1.0), y=st.floats(0.0, 1.0))
def test_kernel_symmetry(x, y):
    for spec in ALL_CONTINUOUS[:4]:
        assert kernel_eval(spec, x, y) == kernel_eval(spec, y, x)


def test_positive_semidefinite_on_random_point_sets():
    rng = np.random.default_rng(42)
    for spec in ALL_CONTINUOUS:
        for _ in range(20):
            pts = np.sort(rng.uniform(0.0, 1.0, size=rng.integers(2, 13)))
            gram = gram_matrix(spec, pts)
            ev = np.linalg.eigvalsh(gram)
            assert ev[0] >= -1e-10 * max(ev[-1], 1.0), spec.label()


def test_gram_matrix_matches_scalar_eval():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 1.0, 6)
    for spec in ALL_CONTINUOUS:
        gram = gram_matrix(spec, pts)
        for i, x in enumerate(pts):
            for j, y in enumerate(pts):
                assert gram[i, j] == pytest.approx(kernel_eval(spec, x, y), abs=1e-12)


def test_eigen_sequence_invariants():
    seq = EigenSequence(np.array([2.0, 1.0, 1.0, 0.0]))
    assert len(seq) == 4
    with pytest.raises(ParameterError):
        EigenSequence(np.array([0.0, 0.0]))          # zero leading eigenvalue
    with pytest.raises(ParameterError):
        EigenSequence(np.array([1.0, 2.0]))          # increasing
    with pytest.raises(ParameterError):
        EigenSequence(np.array([1.0, -0.5]))         # negative


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_eigen_sequence_rejects_non_finite(bad):
    # NaN fails every comparison, so the ordering checks alone let it through
    with pytest.raises(ParameterError):
        EigenSequence([1.0, bad, 0.1])
    with pytest.raises(ParameterError):
        EigenSequence([bad, 0.5])


def test_eigen_sequence_equality_does_not_raise():
    a = EigenSequence([1.0, 0.5])
    assert a == a
    assert isinstance(a == EigenSequence([1.0, 0.5]), bool)
    assert a != "not a sequence"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8))
def test_eigen_sequence_validator_property(values):
    # either rejected with ParameterError, or every documented invariant holds
    try:
        seq = EigenSequence(values)
    except ParameterError:
        return
    vals = seq.values
    assert np.all(np.isfinite(vals))
    assert vals[0] > 0.0
    assert np.all(vals >= 0.0)
    assert np.all(np.diff(vals) <= 0.0)


def _reference_validate(values):
    """The full-scan EigenSequence validation, one numpy reduction per
    invariant in the documented order: the oracle for the short-cut one."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or vals.size == 0:
        raise ParameterError("eigenvalue list must be a nonempty vector")
    if not np.all(np.isfinite(vals)):
        raise ParameterError("eigenvalues must be finite")
    if not vals[0] > 0.0:
        raise ParameterError("leading eigenvalue must be positive")
    if np.any(vals < 0.0):
        raise ParameterError("eigenvalues must be nonnegative")
    if np.any(np.diff(vals) > 0.0):
        raise ParameterError("eigenvalues must be nonincreasing")


def _verdict(validate, values):
    try:
        validate(values)
    except ParameterError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1.0, 0.5, -0.5]),
                          st.floats(-2.0, 2.0)), max_size=6))
def test_eigen_sequence_validator_matches_the_full_scan(values):
    # NaN, infinities, negatives, zeros, ties and rises: the same verdict and message
    assert _verdict(EigenSequence, values) == _verdict(_reference_validate, values)


@pytest.mark.parametrize("alpha", [2.0, 3.0])
def test_korobov_higher_even_orders_match_direct_sum(alpha):
    spec = KernelSpec("korobov", alpha=alpha, beta=0.7)
    for theta in (0.0, 0.13, 0.5, 0.86):
        direct = sum(math.cos(2 * math.pi * k * theta) / k ** (2 * alpha)
                     for k in range(1, 3000))
        assert kernel_eval(spec, theta, 0.0) == pytest.approx(
            1.0 + 1.4 * direct, abs=1e-9)
