import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from tensortract import (KernelSpec, NumericError, ParameterError, family_eigenvalues,
                         midpoint_grid, nystrom_spectrum, richardson_refine)
from tensortract import nystrom
from tensortract.eigensolve import _FLOAT_ROOTS, _NEWTON_STEPS, _min_kernel_roots
from tensortract.nystrom import nystrom_solver
from tensortract.spectra import _kernel, gram_matrix

MIN = KernelSpec("sobolev-min")
COSH = KernelSpec("sobolev-cosh")
KOR = KernelSpec("korobov", alpha=1.0, beta=0.5)   # 2 alpha = 2: the aliased solver
KOR_FFT = KernelSpec("korobov", alpha=0.75, beta=0.5)   # the circulant-fft solver
BROWNIAN = KernelSpec("brownian-min")
HALF = KernelSpec("sobolev-distance", a=0.5)   # an interior anchor: the anchored solver


def weighted_kernel_matrix(spec, grid):
    """The dense oracle's matrix d G d with the scalar d = sqrt(1/m): exactly
    symmetric, as the Gram matrix G is."""
    d = math.sqrt(1.0 / len(grid))
    return d * gram_matrix(spec, grid.nodes) * d


def test_midpoint_grid_shape():
    grid = midpoint_grid(8)
    assert len(grid) == 8 and [f.name for f in dataclasses.fields(grid)] == ["m"]
    assert grid.nodes.tolist() == [(i + 0.5) / 8 for i in range(8)]


@pytest.mark.parametrize("m", [0, -3, 2.5, 4.0, "4", None, 2 ** 53 + 1, 10 ** 30])
def test_midpoint_grid_size_is_a_positive_integer(m):
    with pytest.raises(ParameterError):
        midpoint_grid(m)


def test_count_exceeds_grid():
    with pytest.raises(ParameterError):
        nystrom_spectrum(MIN, midpoint_grid(4), 5)


def test_weighted_matrix_exactly_symmetric():
    # the dense oracle relies on this without checking it
    specs = [MIN, COSH, KOR, KernelSpec("korobov", alpha=0.75, beta=0.5), KernelSpec("brownian-min")]
    specs += [KernelSpec("sobolev-distance", a=a) for a in (0.0, 0.3, 0.5, 1.0)]
    for spec in specs:
        for m in (1, 7, 64, 501):
            M = weighted_kernel_matrix(spec, midpoint_grid(m))
            assert M.shape == (m, m) and np.array_equal(M, M.T), (spec.label(), m)


@pytest.mark.parametrize("spec, count", [(MIN, 5), (COSH, 5), (KOR, 5)])
def test_oracle_matches_analytic_rules(spec, count):
    analytic = family_eigenvalues(spec, count).values
    numeric = nystrom_spectrum(spec, midpoint_grid(500), count).values
    np.testing.assert_allclose(numeric, analytic, rtol=5e-4)


def test_korobov_oracle_at_512():
    numeric = nystrom_spectrum(KOR, midpoint_grid(512), 5).values
    np.testing.assert_allclose(numeric, [1.0, 0.5, 0.5, 0.125, 0.125], rtol=1e-3)
    # the circulant Gram's eigenvalues k and m - k come out as exact ties
    assert numeric[1] == numeric[2] and numeric[3] == numeric[4]


def test_monotone_convergence_in_grid_size():
    for spec in (MIN, COSH, KOR):
        analytic = family_eigenvalues(spec, 3).values
        spectra = {m: nystrom_spectrum(spec, midpoint_grid(m), 3).values
                   for m in (125, 250, 500, 1000)}
        for j in range(3):
            diffs = [abs(spectra[m][j] - spectra[2 * m][j]) for m in (125, 250, 500)]
            assert diffs[0] > diffs[1] > diffs[2], (spec.label(), j, diffs)
        np.testing.assert_allclose(spectra[1000], analytic, rtol=1e-4)


def test_richardson_refine_cancels_leading_error():
    refined = richardson_refine(MIN, 2, [100, 200, 400])
    analytic = family_eigenvalues(MIN, 2).values
    np.testing.assert_allclose(refined.eigensequence.values, analytic, atol=1e-6)
    assert np.all(refined.error_estimates > 0.0)
    # the extrapolated error must be far below the raw m = 400 error
    raw = nystrom_spectrum(MIN, midpoint_grid(400), 2).values
    assert abs(refined.eigensequence.values[0] - analytic[0]) < 0.01 * abs(raw[0] - analytic[0])


def test_richardson_coarse_pair():
    refined = richardson_refine(MIN, 1, [10, 20])
    assert refined.error_estimates[0] > 0.0


def test_richardson_validation():
    with pytest.raises(ParameterError):
        richardson_refine(MIN, 1, [100])
    with pytest.raises(ParameterError):
        richardson_refine(MIN, 1, [200, 100])
    with pytest.raises(ParameterError):
        richardson_refine(MIN, 50, [10, 20])
    with pytest.raises(ParameterError):   # 5 exceeds the coarser solved size
        richardson_refine(MIN, 5, [3, 4, 200])


@pytest.mark.parametrize("sizes", [[100.7, 200.9], [100, 200.0], [3.5, 100, 200], ["100", "200"]])
def test_richardson_sizes_are_integers(sizes):
    with pytest.raises(ParameterError, match="grid sizes must be integers"):
        richardson_refine(MIN, 1, sizes)


def test_richardson_takes_numpy_integer_sizes():
    a = richardson_refine(MIN, 2, np.array([100, 200]))
    b = richardson_refine(MIN, 2, [100, 200])
    assert a.eigensequence.values.tobytes() == b.eigensequence.values.tobytes()


def test_richardson_checks_count_against_the_solved_sizes_only():
    # only 100 and 200 are solved: the unsolved size 3 limits nothing
    a = richardson_refine(MIN, 5, [3, 100, 200])
    b = richardson_refine(MIN, 5, [100, 200])
    assert a.eigensequence.values.tobytes() == b.eigensequence.values.tobytes()
    assert a.error_estimates.tobytes() == b.error_estimates.tobytes()


def test_oracle_on_brownian_min_matches_classical_spectrum():
    # eigenvalues of the integral operator with kernel min(x, y) are
    # 1 / (pi^2 (j - 1/2)^2), a classical closed form independent of any
    # analytic rule in this package
    spec = KernelSpec("brownian-min")
    numeric = nystrom_spectrum(spec, midpoint_grid(600), 4).values
    import math
    classical = [1.0 / (math.pi * (j - 0.5)) ** 2 for j in range(1, 5)]
    np.testing.assert_allclose(numeric, classical, rtol=1e-4)


def test_oracle_distance_kernel_anchor_zero_equals_min_kernel():
    a = nystrom_spectrum(KernelSpec("sobolev-distance", a=0.0), midpoint_grid(300), 3).values
    b = nystrom_spectrum(MIN, midpoint_grid(300), 3).values
    np.testing.assert_allclose(a, b, rtol=1e-12)


# ---------------------------------------------------------------------------
# structured solvers against the dense oracle
# ---------------------------------------------------------------------------

ALL_FAMILIES = [MIN, COSH, KOR, KOR_FFT,
                KernelSpec("sobolev-distance", a=0.3), HALF, KernelSpec("sobolev-distance", a=1.0),
                KernelSpec("brownian-min")]


SIZES = [2, 3, 7, 64, 500]


def _counts(choice, m):
    """Counts to solve for on a grid of size m.  ``endpoints``: the two at each
    end of 1..m; ``midpoint``: the middle of 1..m; ``random``: five drawn
    uniformly from 1..m."""
    if choice == "endpoints":
        counts = {1, 2, m - 1, m}
    elif choice == "midpoint":
        counts = {(1 + m) // 2}
    else:
        counts = set(np.random.default_rng(m).integers(1, m + 1, 5).tolist())
    return sorted(counts & set(range(1, m + 1)))


@pytest.mark.parametrize("choice", ["midpoint", "endpoints", "random"])
@pytest.mark.parametrize("m", SIZES)
@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=lambda s: s.label())
def test_every_solver_matches_dense_eigvalsh(spec, m, choice):
    grid = midpoint_grid(m)
    dense = scipy.linalg.eigvalsh(weighted_kernel_matrix(spec, grid))[::-1]
    for count in _counts(choice, m):
        got = nystrom_spectrum(spec, grid, count).values
        err = np.max(np.abs(got - np.maximum(dense[:count], 0.0)))
        assert err <= 1e-12 * dense[0], (count, nystrom_solver(spec), err)


def test_solver_choice():
    fixed = {"korobov": "circulant-fft", "sobolev-cosh": "dct", "brownian-min": "dst",
             "sobolev-min": "secular"}
    specs = ALL_FAMILIES + [KernelSpec("sobolev-distance", a=a) for a in (0.0, 1e-12, 1 - 1e-12)]
    for spec in specs:
        if spec.a in (0.0, 1.0):   # the anchors at the ends have the sobolev-min Gram
            want = "secular"
        elif spec == KOR:
            want = "aliased"
        else:
            want = fixed.get(spec.family, "anchored")
        assert nystrom_solver(spec) == want, spec.label()
    # so the dense test above reaches every solver
    assert {nystrom_solver(spec) for spec in ALL_FAMILIES} == set(nystrom._SOLVERS)
    # the Bernoulli orders 2 alpha = 2, 4, 6 of the korobov series, and no other
    for alpha in (1.0, 2.0, 3.0, 3 + 1e-14):
        assert nystrom_solver(KernelSpec("korobov", alpha=alpha, beta=0.5)) == "aliased", alpha
    for alpha in (1.5, 4.0, 2 + 1e-12):
        assert nystrom_solver(KernelSpec("korobov", alpha=alpha, beta=0.5)) == "circulant-fft", alpha


@pytest.mark.parametrize("m", SIZES + [10 ** 6])
def test_korobov_is_circulant_fft_at_every_count(m):
    grid = midpoint_grid(m)
    for spec, solver in ((KOR, "aliased"), (KOR_FFT, "circulant-fft")):
        assert nystrom_solver(spec) == solver
        full = nystrom_spectrum(spec, grid, m).values
        for count in sorted({1, 2, 5, m // 6, m - 1, m} & set(range(1, m + 1))):
            # each count reads a prefix of the whole spectrum
            got = nystrom_spectrum(spec, grid, count).values
            assert got.tobytes() == full[:count].tobytes(), (solver, count)


KOROBOV_BERNOULLI = [KernelSpec("korobov", alpha=n, beta=b)
                     for n in (1.0, 2.0, 3.0) for b in (0.05, 0.5, 0.9, 1.0)]


@pytest.mark.parametrize("spec", KOROBOV_BERNOULLI, ids=lambda s: s.label())
def test_aliased_matches_the_fft_and_dense_eigvalsh(spec):
    # the closed form against the FFT of a Gram row and a dense solve, at
    # every count; at m = 2 and beta >= 0.9, mu_1 exceeds mu_0 (alpha = 1:
    # 2.22 against 1.74 at beta = 0.9)
    for m in list(range(1, 41)) + [500]:
        grid = midpoint_grid(m)
        fft = nystrom._circulant_eigenvalues(spec, grid, m)
        dense = scipy.linalg.eigvalsh(weighted_kernel_matrix(spec, grid))[::-1]
        for count in range(1, m + 1) if m <= 40 else (1, 2, 5, 6, 250, 499, 500):
            got = nystrom._aliased_eigenvalues(spec, grid, count)
            assert np.max(np.abs(got - fft[:count])) <= 1e-12 * fft[0], (m, count)
            assert np.max(np.abs(got - dense[:count])) <= 1e-12 * dense[0], (m, count)


@pytest.mark.parametrize("m", [1, 2, 7, 64, 501])
def test_reflection_identities_reproduce_the_weighted_gram(m):
    # cosh: K = [f(x - y) + f(x + y)] / 2, f(t) = K(min(t, 2 - t), 0);
    # brownian-min: K = [g(x - y) - g(x + y)] / 2, g(t) = K(1, 1) - 2 K(|t|/2, |t|/2)
    x = midpoint_grid(m).nodes
    diff, total = np.abs(x[:, None] - x[None, :]), x[:, None] + x[None, :]

    def f(t):
        return _kernel(COSH, np.minimum(t, 2.0 - t), 0.0)

    def g(t):
        return _kernel(BROWNIAN, 1.0, 1.0) - 2.0 * _kernel(BROWNIAN, t / 2, t / 2)

    for spec, folded in ((COSH, f(diff) + f(total)), (BROWNIAN, g(diff) - g(total))):
        M = weighted_kernel_matrix(spec, midpoint_grid(m))
        assert np.max(np.abs(0.5 * folded / m - M)) <= 4 * np.finfo(float).eps * np.max(M), spec


def _trigonometric_fft(spec, m):
    """All m eigenvalues of the weighted sobolev-cosh or brownian-min Gram
    from the real DFT of one periodic symbol c sampled at n/m, in bin order.

    On the midpoint rule x_i - x_j = (i - j)/m and x_i + x_j = (i + j + 1)/m,
    so a Gram matrix c(x - y) +- c(x + y) is Toeplitz +- Hankel: the circulant
    of c(n/m) over one period, folded onto the vectors symmetric about the
    grid's ends (Strang, The Discrete Cosine Transform, SIAM Review 41, 1999):

    sobolev-cosh  K = [c(x - y) + c(x + y)] / 2 with c(t) = K(min(t, 2 - t), 0)
                  even and 2-periodic: bins 0 .. m - 1 of the 2m samples.
    brownian-min  K = [c(x - y) - c(x + y)] / 2 with c(t) = K(1, 1) - 2 K(t/2, t/2)
                  on [0, 2) and c(t + 2) = -c(t), so 4-periodic: the odd
                  bins 1 .. 2m - 1 of the 4m samples.
    """
    n = np.arange(2 * m)
    if spec.family == "sobolev-cosh":
        c = _kernel(spec, np.minimum(n, 2 * m - n) / m, 0.0)
        return np.fft.rfft(c).real[:m] / (2 * m)
    half_t = n / (2 * m)
    c = _kernel(spec, 1.0, 1.0) - 2.0 * _kernel(spec, half_t, half_t)
    return np.fft.rfft(np.concatenate([c, -c])).real[1:2 * m:2] / (4 * m)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([COSH, BROWNIAN]), st.data())
def test_trigonometric_ffts_match_dense_eigvalsh(spec, data):
    # the closed-form dct and dst solvers, and the FFT oracle behind them
    m = data.draw(st.integers(1, 600))
    count = data.draw(st.integers(1, m))
    grid = midpoint_grid(m)
    dense = scipy.linalg.eigvalsh(weighted_kernel_matrix(spec, grid))[::-1]
    got = nystrom_spectrum(spec, grid, count).values
    assert np.max(np.abs(got - dense[:count])) <= 1e-12 * dense[0]
    fft = np.sort(_trigonometric_fft(spec, m))[::-1]
    assert np.max(np.abs(fft - dense)) <= 1e-12 * dense[0]


@pytest.mark.parametrize("m", [10 ** 5, 10 ** 6])
def test_trigonometric_ffts_match_closed_forms(m):
    # the midpoint Gram's own eigenvalues, where no dense solve fits; both
    # spectra fall with the bin, so the FFT's bin order is the solvers' order
    for spec in (BROWNIAN, COSH):
        exact = _trigonometric_fft(spec, m)
        got = nystrom_spectrum(spec, midpoint_grid(m), m).values
        assert np.max(np.abs(got - exact)) <= 1e-15 * exact[0], spec


KOROBOV_ORDERS = [KernelSpec("korobov", alpha=n, beta=0.5) for n in (1.0, 2.0, 3.0)]


@pytest.mark.parametrize("spec", [COSH, BROWNIAN] + KOROBOV_ORDERS, ids=lambda s: s.label())
def test_closed_forms_at_a_petascale_grid_are_the_analytic_rules(spec):
    # the O(m^-2) quadrature error at m = 10^15 is far below double precision
    got = nystrom_spectrum(spec, midpoint_grid(10 ** 15), 5).values
    j = np.arange(1, 6)
    if spec.family == "korobov":
        analytic = family_eigenvalues(spec, 5).values
    elif spec == COSH:
        analytic = 1.0 / (1.0 + (np.pi * (j - 1)) ** 2)
    else:
        analytic = 1.0 / (np.pi * (j - 0.5)) ** 2
    np.testing.assert_allclose(got, analytic, rtol=1e-12)


@pytest.mark.parametrize("spec", [COSH, BROWNIAN, MIN, KernelSpec("sobolev-distance", a=0.3)]
                         + KOROBOV_ORDERS, ids=lambda s: s.label())
def test_closed_form_solvers_allocate_no_grid_sized_array(spec):
    grid = midpoint_grid(10 ** 6)   # an m-sized float array alone takes 8 MB
    tracemalloc.start()
    try:
        nystrom_spectrum(spec, grid, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20


@pytest.mark.parametrize("count", [2.5, np.float64(3.0), 0])
@pytest.mark.parametrize("solve", [
    lambda count: family_eigenvalues(MIN, count),
    lambda count: family_eigenvalues(COSH, count),
    lambda count: family_eigenvalues(KOR, count),
    lambda count: nystrom_spectrum(COSH, midpoint_grid(10), count),
    lambda count: richardson_refine(MIN, count, [10, 20]),
], ids=["sobolev-min", "sobolev-cosh", "korobov", "nystrom", "richardson"])
def test_count_is_a_positive_integer(solve, count):
    with pytest.raises(ParameterError, match="count must be an integer >= 1"):
        solve(count)


@pytest.mark.parametrize("spec, m", [(HALF, 2000), (KOR, 2000), (HALF, 20), (MIN, 2000),
                                     (KernelSpec("sobolev-distance", a=0.3), 10 ** 6)])
def test_repeated_solves_are_bitwise_equal(spec, m):
    grid = midpoint_grid(m)   # anchored, aliased, anchored, secular, anchored
    a = nystrom_spectrum(spec, grid, 5).values
    b = nystrom_spectrum(spec, grid, 5).values
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", [MIN, COSH, KernelSpec("brownian-min"), KOR],
                         ids=lambda s: s.label())
def test_large_grid_matches_analytic_rules(spec):
    m = 10 ** 5
    if spec.family == "brownian-min":
        analytic = 1.0 / (np.pi * (np.arange(1, 6) - 0.5)) ** 2
    else:
        analytic = family_eigenvalues(spec, 5).values
    numeric = nystrom_spectrum(spec, midpoint_grid(m), 5).values
    np.testing.assert_allclose(numeric, analytic, rtol=1e-3 * (2000 / m) ** 2)


# ---------------------------------------------------------------------------
# the secular solver for the 1 + min(x, y) Gram
# ---------------------------------------------------------------------------

END_ANCHORS = [MIN, KernelSpec("sobolev-distance", a=0.0), KernelSpec("sobolev-distance", a=1.0)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(END_ANCHORS), st.data())
def test_secular_matches_dense_eigvalsh(spec, data):
    m = data.draw(st.integers(1, 600))
    count = data.draw(st.integers(1, m))
    grid = midpoint_grid(m)
    assert nystrom_solver(spec) == "secular"
    dense = scipy.linalg.eigvalsh(weighted_kernel_matrix(spec, grid))[::-1]
    got = nystrom_spectrum(spec, grid, count).values
    assert np.max(np.abs(got - dense[:count])) <= 1e-12 * dense[0]


def _min_kernel_roots_newton(count, m, steps=12):
    """The roots of `eigensolve._min_kernel_roots` by `steps` Newton steps on
    y = alpha - (j - 1) pi from arctan(1 / ((j - 1) pi + 0.8)), 0.86 for j = 1."""
    c = np.arange(count) * math.pi
    y = np.arctan(1.0 / (c + 0.8))
    y[0] = 0.86
    for _ in range(steps):
        a = c + y
        if m is None:
            h, dh = a, 1.0
        else:
            t = np.tan(a / (2 * m))
            h, dh = 2 * m * t, 1.0 + t * t
        y -= (y - np.arctan(1.0 / h)) / (1.0 + dh / (1.0 + h * h))
    return c + y


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.none(), st.integers(1, 200), st.integers(1, 10 ** 15)), st.data())
def test_min_kernel_roots_match_twelve_newton_steps(m, data):
    count = data.draw(st.integers(1, min(m or 2000, 2000)))
    got = _min_kernel_roots(count, m)
    want = _min_kernel_roots_newton(count, m)
    assert np.max(np.abs(got - want) / want) <= 5e-16


def _min_kernel_roots_vector(count, m):
    """Every root of `eigensolve._min_kernel_roots` in one numpy vector: the
    same starts, fixed-point pass and Newton steps, with numpy's tan and
    arctan on every root, root 1 included."""
    c = np.arange(count) * math.pi

    def h(y):   # h and h' at alpha = c + y
        if m is None:
            return c + y, 1.0
        t = np.tan((c + y) / (2 * m))
        return 2 * m * t, 1.0 + t * t

    y = np.arctan(1.0 / (c + 0.8))
    y[0] = 0.8603 if m is None else 0.8603 - 0.0192 / m / m
    y = np.arctan(1.0 / h(y)[0])
    for _ in range(_NEWTON_STEPS):
        hy, dh = h(y)
        y -= (y - np.arctan(1.0 / hy)) / (1.0 + dh / (1.0 + hy * hy))
    return c + y


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.none(), st.integers(1, 200), st.integers(1, 10 ** 15)), st.data())
def test_float_roots_match_the_vector_solve(m, data):
    # numpy's tan and arctan may differ from libm's in the last bit, so the
    # float roots may move by 1 ulp; the vector roots are the same operations
    # on the same numbers, and a short list is a prefix of a long one
    top = min(m or 2000, 2000)
    n = data.draw(st.one_of(st.integers(1, min(top, _FLOAT_ROOTS)), st.integers(1, top)))
    got, want = _min_kernel_roots(n, m), _min_kernel_roots_vector(n, m)
    head = min(n, _FLOAT_ROOTS)
    assert np.array_equal(got[head:], want[head:])
    assert np.all(np.abs(got[:head] - want[:head]) <= np.spacing(want[:head]))
    if top > _FLOAT_ROOTS:
        k = data.draw(st.integers(1, _FLOAT_ROOTS))
        longer = _min_kernel_roots(data.draw(st.integers(_FLOAT_ROOTS + 1, top)), m)
        assert np.array_equal(_min_kernel_roots(k, m), longer[:k])


def _secular_eigenvalue_mpmath(m, j):
    """lambda_j of the m-point 1 + min(x, y) Gram at 40 digits: the root of
    2m tan(alpha / 2m) tan alpha = 1 in ((j - 1) pi, (j - 1/2) pi), found by
    a bracketing solver on y = alpha - (j - 1) pi."""
    with mpmath.workdps(40):
        c, tiny = (j - 1) * mpmath.pi, mpmath.mpf("1e-30")
        y = mpmath.findroot(lambda y: y - mpmath.atan(1 / (2 * m * mpmath.tan((c + y) / (2 * m)))),
                            (tiny, mpmath.pi / 2 - tiny), solver="anderson")
        return 1 / (2 * m * mpmath.sin((c + y) / (2 * m))) ** 2


@pytest.mark.parametrize("m", [1, 2, 7, 500, 2000, 10 ** 5, 10 ** 6])
def test_secular_roots_match_mpmath(m):
    got = nystrom_spectrum(MIN, midpoint_grid(m), m).values
    for j in sorted({1, 2, 3, max(m // 2, 1), max(m - 1, 1), m} & set(range(1, m + 1))):
        ref = _secular_eigenvalue_mpmath(m, j)
        assert abs(float((got[j - 1] - ref) / ref)) <= 1e-15, j


# ---------------------------------------------------------------------------
# the anchored solver for an interior anchor
# ---------------------------------------------------------------------------

@st.composite
def _anchored_inputs(draw):
    """A grid, a count and an anchor: drawn uniformly, on a cell edge k/m, on
    a node (k + 1/2)/m, or inside the first or the last cell."""
    m = draw(st.integers(1, 600))
    inside = st.floats(0.0, 1.0, exclude_max=True)
    a = draw(st.one_of(st.floats(0.0, 1.0),
                       st.builds(lambda k: k / m, st.integers(0, m)),
                       st.builds(lambda k: (k + 0.5) / m, st.integers(0, m - 1)),
                       st.builds(lambda t: t / m, inside),
                       st.builds(lambda t: 1.0 - t / m, inside)))
    return KernelSpec("sobolev-distance", a=a), midpoint_grid(m), draw(st.integers(1, m))


@settings(max_examples=100, deadline=None)
@given(_anchored_inputs())
def test_anchored_matches_dense_eigvalsh(inputs):
    spec, grid, count = inputs
    dense = scipy.linalg.eigvalsh(weighted_kernel_matrix(spec, grid))[::-1]
    got = nystrom_spectrum(spec, grid, count).values
    assert np.max(np.abs(got - dense[:count])) <= 1e-12 * dense[0]


@pytest.mark.parametrize("m", [1, 2, 7, 500, 2000, 10 ** 6])
def test_anchored_matches_secular_at_the_end_anchors(m):
    # nystrom_spectrum sends a = 0 and 1 to secular; the two solvers check each other
    grid = midpoint_grid(m)
    want = nystrom_spectrum(MIN, grid, min(m, 50)).values
    for a in (0.0, 1.0):
        got = nystrom._anchored_eigenvalues(KernelSpec("sobolev-distance", a=a), grid, len(want))
        assert np.max(np.abs(got - want)) <= 1e-12 * want[0], a


def _continuum_eigenvalue_mpmath(a, j):
    """lambda_j = omega_j^-2 of the sobolev-distance integral operator at 40
    digits: -lambda f'' = f on either side of a with f'(0) = f'(1) = 0 and
    f(a) = f'(a+) - f'(a-) give omega sin omega = cos(omega a) cos(omega (1 - a)),
    whose root omega_j lies in [(j - 1) pi, (j - 1/2) pi]."""
    with mpmath.workdps(40):
        a = mpmath.mpf(a)
        lo = (j - 1) * mpmath.pi - mpmath.mpf("1e-30")   # the root can sit on (j - 1) pi
        hi = (j - mpmath.mpf(0.5)) * mpmath.pi
        omega = mpmath.findroot(lambda w: w * mpmath.sin(w) - mpmath.cos(w * a) * mpmath.cos(w * (1 - a)),
                                (lo, hi), solver="anderson")
        return omega ** -2


@pytest.mark.parametrize("a", [0.25, 0.3, 0.5, 0.7137])
def test_anchored_tends_to_the_continuum_rule(a):
    # each anchor lies on a cell edge at m = 10^9, where the O(m^-2) error is below rounding
    got = nystrom_spectrum(KernelSpec("sobolev-distance", a=a), midpoint_grid(10 ** 9), 5).values
    want = np.array([float(_continuum_eigenvalue_mpmath(a, j)) for j in range(1, 6)])
    assert np.max(np.abs(got - want)) <= 1e-12 * want[0]


def _safeguarded_anchored_eigenvalues(a, m, count):
    """Oracle for the fixed-step anchored solve: Newton on the same phi from
    the bracket midpoints, shrinking each bracket [(j - 1) pi/m, (j - 1/2) pi/m]
    to the iterate by the sign of phi and bisecting when a step leaves it,
    until every step is at most 1e-15 theta."""
    p = min(max(math.ceil(a * m - 0.5), 0), m)
    n, e = 2 * p - m, a - p / m
    j = np.arange(count)
    lo, hi = j * (math.pi / m), (j + 0.5) * (math.pi / m)
    sign = 1.0 - 2.0 * (j % 2)
    theta = 0.5 * (lo + hi)
    for _ in range(60):
        t = np.tan(0.5 * theta)
        h, dh = 2 * m * t, m * (1.0 + t * t)
        g, dg = e * h, e * dh
        cs, ss = np.cos(m * theta), np.sin(m * theta)
        cr, sr = np.cos(n * theta), np.sin(n * theta)
        phi = 0.5 * (cs + cr + g * g * (cs - cr)) - h * ss - g * sr
        dphi = (g * dg * (cs - cr) - 0.5 * (m * ss + n * sr + g * g * (m * ss - n * sr))
                - dh * ss - m * h * cs - dg * sr - n * g * cr)
        right = sign * phi >= 0.0
        lo, hi = np.where(right, theta, lo), np.where(right, hi, theta)
        step = theta - phi / dphi
        step = np.where((lo <= step) & (step <= hi), step, 0.5 * (lo + hi))
        done = np.abs(step - theta) <= 1e-15 * theta
        theta = step
        if done.all():
            return (2.0 * m * np.sin(0.5 * theta)) ** -2
    raise AssertionError("the safeguarded oracle did not settle")


@pytest.mark.parametrize("m", [1, 2, 3, 4, 7, 16, 101, 1000, 3000, 10 ** 6, 10 ** 9,
                               2 ** 50, 10 ** 15, 2 ** 53])
def test_anchored_matches_the_safeguarded_oracle(m):
    # anchors near 0 and 1, on cell edges k/m (roots on their brackets' left
    # ends), on nodes and drawn; full spectra up to m = 3000
    rng = np.random.default_rng(m)
    anchors = {1e-300, 1e-12, 0.5 / m, 1 / m, 0.25, 0.3, 0.5, 0.7137, 1 - 1 / m,
               1 - 0.5 / m, 1 - 1e-12, 1 - 2 ** -53}
    anchors |= {k / m for k in range(0, m + 1, max(1, m // 7))}
    anchors |= {(k + 0.5) / m for k in range(0, m, max(1, m // 7))}
    anchors |= set(rng.uniform(0.0, 1.0, 5).tolist())
    count = m if m <= 3000 else 50
    for a in sorted(x for x in anchors if 0.0 < x < 1.0):
        got = nystrom._anchored_eigenvalues(KernelSpec("sobolev-distance", a=a),
                                            midpoint_grid(m), count)
        want = _safeguarded_anchored_eigenvalues(a, m, count)
        assert np.max(np.abs(got - want) / want) <= 4e-15, a


def test_anchored_step_cap_is_a_numeric_error(monkeypatch):
    monkeypatch.setattr(nystrom, "_ANCHORED_STEPS", 1)
    with pytest.raises(NumericError, match="Newton steps"):
        nystrom_spectrum(HALF, midpoint_grid(100), 5)


def test_anchored_root_outside_its_bracket_is_a_numeric_error(monkeypatch):
    # a start one bracket to the right settles on the next root, in its bracket, not this one's
    arcsin = np.arcsin
    monkeypatch.setattr(np, "arcsin", lambda x: arcsin(x) + math.pi)
    with pytest.raises(NumericError, match="Newton steps"):
        nystrom_spectrum(HALF, midpoint_grid(100), 5)


@pytest.mark.parametrize("alpha", [0.75, 1.0, 2.0])
def test_richardson_refine_takes_the_korobov_order(alpha):
    # the korobov midpoint error is O(m^-2 alpha): extrapolating with the
    # order 2 leaves most of it at alpha = 0.75 and adds to it at alpha = 2
    spec = KernelSpec("korobov", alpha=alpha, beta=0.9)
    exact = family_eigenvalues(spec, 3).values
    raw = nystrom_spectrum(spec, midpoint_grid(2000), 3).values
    refined = richardson_refine(spec, 3, [1000, 2000]).eigensequence.values
    assert np.max(np.abs(refined - exact)) <= 1e-2 * np.max(np.abs(raw - exact))


@pytest.mark.parametrize("a", [0.3, 0.7137])
def test_richardson_error_estimate_bounds_the_anchored_error(a):
    """Off the cell edges the estimate |lambda(m2) - lambda(m1)| still bounds
    the error, though extrapolation sharpens only when a m has the same
    fractional part at both sizes: at [4000, 8000], a = 0.3 goes from 2.5e-9
    raw to 2.2e-16, but a = 0.7137 goes from 1.3e-9 to 2.2e-9."""
    spec = KernelSpec("sobolev-distance", a=a)
    want = np.array([float(_continuum_eigenvalue_mpmath(a, j)) for j in range(1, 4)])
    for sizes in ([1000, 2000], [4000, 8000]):
        refined = richardson_refine(spec, 3, sizes)
        error = np.abs(refined.eigensequence.values - want)
        assert np.all(error <= refined.error_estimates), sizes
        if a == 0.3:
            assert np.max(error) <= 1e-13
