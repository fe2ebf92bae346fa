import heapq
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from tensortract import (ComplexityQuery, Eigenpair, EigenSequence, KernelSpec,
                         NumericError, ParameterError, ResourceLimitError, TruncationError,
                         brute_force_count, check_goodcase_sobolev_min,
                         classify, count_info_complexity_all, en_all,
                         estimate_decay, family_eigenpair, family_eigenvalues,
                         qpt_exponent)
from tensortract import complexity
from tensortract.complexity import _effective_budget, _participating_weights
from tensortract.spectra import REL_TIE

MIN = KernelSpec("sobolev-min")
COSH = KernelSpec("sobolev-cosh")
KOR = family_eigenvalues(KernelSpec("korobov", alpha=1.0, beta=0.5), 40)
KOR_TIE = family_eigenvalues(KernelSpec("korobov", alpha=1.0, beta=1.0), 40)
SOB = family_eigenvalues(MIN, 40)


def count(eigs, eps, d):
    return count_info_complexity_all(eigs, ComplexityQuery(eps=eps, d=d)).count


def test_univariate_korobov_example():
    # eigenvalues 1, .5, .5, .125, ...; eps^2 = 0.36 keeps the first three
    assert count(KOR, 0.6, 1) == 3


def test_rank_one_problem_needs_single_functional():
    eigs = EigenSequence(np.array([1.0, 0.0, 0.0]))
    for d in (1, 2, 5):
        for eps in (0.01, 0.5, 0.9):
            assert count(eigs, eps, d) == 1


def test_top_tie_gives_exponential_count():
    for d in range(1, 10):
        for eps in (0.1, 0.5, 0.9):
            assert count(KOR_TIE, eps, d) >= 2 ** d


def test_weight_classes_match_brute_force_on_selected_cases():
    cases = [(SOB, 0.25, 2), (SOB, 0.1, 3), (KOR, 0.35, 3), (KOR_TIE, 0.45, 4),
             (family_eigenvalues(COSH, 40), 0.2, 2)]
    for eigs, eps, d in cases:
        q = ComplexityQuery(eps=eps, d=d)
        fast = count_info_complexity_all(eigs, q)
        slow = brute_force_count(eigs, q)
        assert fast.count == slow.count
        assert fast.method == "weight-classes"
        assert slow.method == "direct-enum"


def test_sobolev_min_d2_quarter_eps():
    q = ComplexityQuery(eps=0.25, d=2)
    assert count_info_complexity_all(SOB, q).count == brute_force_count(SOB, q).count == 3


def test_randomized_equivalence_quick():
    rng = np.random.default_rng(5)
    for _ in range(15):
        alpha = float(rng.uniform(0.8, 2.2))
        beta = float(rng.uniform(0.1, 1.0))
        eigs = family_eigenvalues(KernelSpec("korobov", alpha=alpha, beta=beta), 120)
        q = ComplexityQuery(eps=float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9])),
                            d=int(rng.integers(1, 5)))
        assert count_info_complexity_all(eigs, q).count == brute_force_count(eigs, q).count


def tie_split_count(w, d, budget):
    """The counting kernel before weight classes: split over the r indices of
    weight zero, n = sum_k C(d, k) r^(d-k) c_k, with c_k the ordered k-tuples
    over the positive weights, enumerated index by index.  Unclamped; an
    oracle for d <= 40."""
    r = int(np.count_nonzero(w == 0.0))
    v = w[r:].tolist()
    k_max = min(d, math.ceil(budget / v[0])) if v else 0
    comb = math.comb
    total = 0
    for k in range(k_max + 1):
        c_k = 0
        stack = [(0, k, budget, 1)]  # next index, slots left, residual, multiplicity
        while stack:
            start, slots, residual, mult = stack.pop()
            if slots == 0:
                c_k += mult
                continue
            for j in range(start, len(v)):
                if v[j] * slots >= residual:
                    break
                for t in range(1, slots + 1):
                    stack.append((j + 1, slots - t, residual - t * v[j],
                                  mult * comb(slots, t)))
        total += comb(d, k) * r ** (d - k) * c_k
    return total


def tie_split_oracle(eigs, eps, d):
    budget = _effective_budget(eps)
    return tie_split_count(_participating_weights(eigs, budget), d, budget)


def tied_spectra(max_rest):
    """Finite spectra whose top eigenvalue has exact multiplicity 1-4,
    followed by up to six smaller eigenvalues (at most max_rest times the
    top; near ties cost the d <= 40 oracle about d^(r+1)), up to two
    zeros, and the 0 that ends every finite spectrum."""
    return st.builds(
        lambda r, rest, zeros, scale: EigenSequence(
            scale * np.array([1.0] * r + sorted(rest, reverse=True) + [0.0] * zeros + [0.0])),
        st.integers(1, 4), st.lists(st.floats(0.01, max_rest), max_size=6),
        st.integers(0, 2), st.sampled_from([1.0, 0.37, 2.5]))


KOROBOV_SPECTRA = st.builds(
    lambda a, b: family_eigenvalues(KernelSpec("korobov", alpha=a, beta=b), 120),
    st.floats(0.8, 2.2), st.floats(0.1, 1.0))


@settings(max_examples=80, deadline=None)
@given(st.one_of(tied_spectra(1.0 - 1e-6), KOROBOV_SPECTRA), st.floats(0.1, 0.9),
       st.integers(1, 4))
def test_count_matches_brute_force_property(eigs, eps, d):
    q = ComplexityQuery(eps=eps, d=d)
    assert count_info_complexity_all(eigs, q).count == brute_force_count(eigs, q).count


@settings(max_examples=80, deadline=None)
@given(st.one_of(tied_spectra(0.6), KOROBOV_SPECTRA), st.floats(0.1, 0.9),
       st.integers(1, 40))
def test_count_matches_tie_split_property(eigs, eps, d):
    expected = tie_split_oracle(eigs, eps, d)
    res = count_info_complexity_all(eigs, ComplexityQuery(eps=eps, d=d))
    assert res.saturated == (expected > 2 ** 63 - 1)
    assert res.count == min(expected, 2 ** 63 - 1)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=7), st.floats(0.1, 0.9),
       st.integers(1, 4))
def test_trailing_zero_ends_a_finite_spectrum_property(positive, eps, d):
    positive = sorted(positive, reverse=True)
    r = len(positive)
    eigs = EigenSequence(np.array(positive + [0.0]))
    q = ComplexityQuery(eps=eps, d=d)
    n_eps = count_info_complexity_all(eigs, q).count
    assert n_eps == brute_force_count(eigs, q).count
    # the r^d positive products are the only nonzero ones
    assert en_all(eigs, d, r ** d - 1) == pytest.approx(positive[-1] ** (d / 2), rel=1e-12)
    for n in (r ** d, r ** d + 1, 10 * r ** d):
        assert en_all(eigs, d, n) == 0.0
    # without its 0 the list only resolves the count when its last value
    # already lies outside the budget
    cut = EigenSequence(np.array(positive))
    w = np.log(cut.values[0]) - np.log(cut.values)
    if w[-1] < _effective_budget(eps):
        with pytest.raises(TruncationError):
            count_info_complexity_all(cut, q)
    else:
        assert count_info_complexity_all(cut, q).count == n_eps
    with pytest.raises(TruncationError):
        en_all(cut, d, r ** d)


LARGE_D_SPECS = st.one_of(
    st.sampled_from([MIN, COSH]),
    st.builds(lambda a, b: KernelSpec("korobov", alpha=a, beta=b),
              st.floats(0.6, 2.5), st.floats(0.05, 0.95)))


@settings(max_examples=40, deadline=None)
@given(LARGE_D_SPECS, st.integers(1, 200), st.floats(0.05, 3.0))
def test_count_brackets_eps_under_en_all_at_large_d(spec, d, slots):
    # eps lets about `slots` factors below lambda_1 into a counted product;
    # the count n must satisfy e_n <= eps e_0 < e_(n-1), within REL_TIE
    eigs = family_eigenvalues(spec, 2 ** 12)
    w2 = math.log(eigs.values[0] / eigs.values[1])
    eps = math.exp(-0.5 * slots * w2)
    assume(eps < 1.0 - 1e-9)
    n = count(eigs, eps, d)
    assume(n < 10 ** 6)
    e0 = en_all(eigs, d, 0)
    assert en_all(eigs, d, n) <= eps * e0 * (1.0 + REL_TIE)
    if n:
        assert en_all(eigs, d, n - 1) > eps * e0 * (1.0 - REL_TIE)


def test_korobov_pairs_match_tie_split():
    eigs = family_eigenvalues(KernelSpec("korobov", alpha=0.75, beta=0.9), 2 ** 14)
    assert count(eigs, 0.01, 6) == tie_split_oracle(eigs, 0.01, 6)


def test_near_ties_hit_the_multiset_guard(monkeypatch):
    eigs = EigenSequence(np.array([1.0, 1.0 - 1e-9, 1.0 - 2e-9, 0.5, 0.0]))
    assert count(eigs, 0.1, 10) == tie_split_oracle(eigs, 0.1, 10)
    monkeypatch.setattr(complexity, "_MULTISET_GUARD", 100)
    with pytest.raises(ResourceLimitError):
        count(eigs, 0.1, 10)


def test_the_last_slot_is_one_lookup(monkeypatch):
    # at d = 1 the count is a single stack pop, so a list longer than the guard
    # still counts: here 2 050 042 participating indices
    monkeypatch.setattr(complexity, "_MULTISET_GUARD", 1)
    res = count_info_complexity_all(family_eigenvalues(COSH, 2 ** 21),
                                    ComplexityQuery(eps=1.5527e-07, d=1))
    assert res.count == res.truncation_index == 2050042


def test_count_leaves_recursion_limit_alone(monkeypatch):
    def refuse(limit):
        raise AssertionError("counting changed the process-wide recursion limit")

    limit = sys.getrecursionlimit()
    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    assert count(KOR, 0.1, 200) > 0
    assert count(KOR_TIE, 0.1, 2000) == 2 ** 63 - 1
    assert sys.getrecursionlimit() == limit


def test_triple_top_tie_counts_three_to_the_d():
    eigs = EigenSequence(np.array([1.0, 1.0, 1.0, 1e-300, 0.0]))
    for d in (1, 2, 7, 39):
        assert count(eigs, 0.5, d) == 3 ** d
    # 3^39 < 2^63 - 1 < 3^40; a d of 10^9 saturates without building 3^d
    for d in (40, 10 ** 4, 10 ** 9):
        res = count_info_complexity_all(eigs, ComplexityQuery(eps=0.5, d=d))
        assert res.saturated
        assert res.count == 2 ** 63 - 1


def test_near_tie_is_not_a_tie():
    # weight w = 1.00005e-4 against a budget of 2.001e-3: at most 20 of the
    # 40 positions may take the second index
    eigs = EigenSequence(np.array([1.0, 1.0 - 1e-4, 0.0]))
    expected = sum(math.comb(40, k) for k in range(21))
    assert count(eigs, 0.999, 40) == expected < 2 ** 40


def test_monotone_in_eps_and_d():
    for eigs in (SOB, KOR, family_eigenvalues(COSH, 40)):
        counts = [count(eigs, eps, 2) for eps in (0.1, 0.3, 0.5, 0.7, 0.9)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))
        by_d = [count(eigs, 0.3, d) for d in (1, 2, 3, 4)]
        assert all(a <= b for a, b in zip(by_d, by_d[1:]))


def test_tie_policy_counts_full_multiplicity():
    # at d = 2 the product level 0.5 carries multiplicity 4: (1,2),(1,3),(2,1),(3,1)
    lo = count(KOR, math.sqrt(0.5 - 1e-6), 2)
    hi = count(KOR, math.sqrt(0.5 + 1e-6), 2)
    assert lo - hi == 4
    assert hi == 1


def test_exact_tie_excluded():
    # eps^2 lambda_1 lands exactly on an eigenvalue: the <= in the definition
    # (tie tolerance) excludes it
    eigs = family_eigenvalues(KernelSpec("korobov", alpha=1.0, beta=0.25), 20)
    assert count(eigs, 0.5, 1) == 1


def test_saturation_flag():
    eigs = EigenSequence(np.array([1.0, 1.0, 0.0]))
    res = count_info_complexity_all(eigs, ComplexityQuery(eps=0.5, d=70))
    assert res.saturated
    assert res.count == 2 ** 63 - 1


def test_std_class_flagged_as_lower_bound():
    res = count_info_complexity_all(KOR, ComplexityQuery(eps=0.5, d=2, info_class="std"))
    assert res.lower_bound_only
    assert res.count == count(KOR, 0.5, 2)


def test_truncation_error_on_short_list():
    short = family_eigenvalues(MIN, 3)
    with pytest.raises(TruncationError):
        count_info_complexity_all(short, ComplexityQuery(eps=0.01, d=2))


def test_brute_force_guards():
    with pytest.raises(ResourceLimitError):
        brute_force_count(SOB, ComplexityQuery(eps=0.5, d=5))
    wide = EigenSequence(np.append(np.ones(200), 0.0))
    with pytest.raises(ResourceLimitError):
        brute_force_count(wide, ComplexityQuery(eps=0.5, d=4))


def test_query_validation():
    with pytest.raises(ParameterError):
        ComplexityQuery(eps=0.0, d=1)
    with pytest.raises(ParameterError):
        ComplexityQuery(eps=1.0, d=1)
    with pytest.raises(ParameterError):
        ComplexityQuery(eps=0.5, d=0)
    with pytest.raises(ParameterError):
        ComplexityQuery(eps=0.5, d=1, info_class="weird")


@pytest.mark.parametrize("d", [2.5, 2.0, "2", None])
def test_query_rejects_non_integer_d(d):
    with pytest.raises(ParameterError):
        ComplexityQuery(eps=0.5, d=d)


def test_query_accepts_numpy_integer_d():
    q = ComplexityQuery(eps=0.5, d=np.int64(2))
    assert type(q.d) is int
    assert count_info_complexity_all(KOR, q).count == count(KOR, 0.5, 2)


# ---------------------------------------------------------------------------
# decay, exponent, classification
# ---------------------------------------------------------------------------

def test_decay_exact_power_law():
    eigs = EigenSequence(np.arange(1, 201, dtype=float) ** -2.0)
    assert estimate_decay(eigs, (10, 100)) == pytest.approx(2.0, abs=1e-9)


def test_decay_analytic_families():
    assert estimate_decay(family_eigenvalues(MIN, 200), (20, 200)) == pytest.approx(2.0, abs=0.05)
    korobov = family_eigenvalues(KernelSpec("korobov", alpha=1.5, beta=0.5), 220)
    assert estimate_decay(korobov, (10, 200)) == pytest.approx(3.0, abs=0.05)


def test_decay_window_validation():
    eigs = EigenSequence(np.arange(1, 51, dtype=float) ** -1.0)
    with pytest.raises(ParameterError):
        estimate_decay(eigs, (40, 45))      # too short
    with pytest.raises(ParameterError):
        estimate_decay(eigs, (10, 60))      # beyond the sequence
    withzero = EigenSequence(np.concatenate([np.arange(1, 30.0) ** -1, [0.0] * 21]))
    with pytest.raises(ParameterError):
        estimate_decay(withzero, (20, 40))  # zero eigenvalue inside


def test_qpt_exponent_values():
    lam = family_eigenvalues(MIN, 2).values
    assert qpt_exponent(lam[0], lam[1], 2.0) == 1.0
    assert 2.0 / math.log(lam[0] / lam[1]) == pytest.approx(0.7237, abs=1e-3)
    assert qpt_exponent(1.0, 0.0, 2.0) == 0.0
    assert qpt_exponent(1.0, math.exp(-1.0), 2.0) == pytest.approx(2.0, abs=1e-12)


def test_qpt_exponent_validation():
    with pytest.raises(ParameterError):
        qpt_exponent(1.0, 1.0, 2.0)
    with pytest.raises(ParameterError):
        qpt_exponent(1.0, 0.5, 0.0)
    with pytest.raises(ParameterError):
        qpt_exponent(0.0, 0.0, 2.0)


def test_goodcase_checker():
    assert check_goodcase_sobolev_min(family_eigenpair(MIN, 1)) is True

    def section(t, a=0.7):
        return Eigenpair(value=1.0,
                         func=lambda x: a * (1.0 + np.minimum(np.asarray(x, float), t)))

    for t in (0.0, 0.25, 0.5, 1.0):
        assert check_goodcase_sobolev_min(section(t)) is False
    norm = 1.0 / math.sqrt(1.0 + 0.5 + 0.5 ** 3 / 3.0)
    normalized = Eigenpair(value=1.0,
                           func=lambda x: norm * (1.0 + np.minimum(np.asarray(x, float), 0.5)))
    assert check_goodcase_sobolev_min(normalized) is False
    constant = Eigenpair(value=1.0,
                         func=lambda x: np.ones_like(np.asarray(x, float)))
    assert check_goodcase_sobolev_min(constant) is False


_XS = np.linspace(0.0, 1.0, 1001)


def _tol(vals):
    # the check's tolerance: 1e-9 of max |eta| on the grid
    return 1e-9 * np.max(np.abs(vals))


def _sweep_deviations(xs, vals, ts):
    # the full oracle: one section model per candidate t, then its worst deviation
    models = vals[0] * (1.0 + np.minimum(xs[None, :], ts[:, None]))
    return np.max(np.abs(models - vals[None, :]), axis=1)


def _assert_check_matches_sweep(func):
    # the verdict of the sweep over every grid t; NaN deviations reject nothing
    vals = func(_XS)
    want = bool(np.all(_sweep_deviations(_XS, vals, _XS) > _tol(vals)))
    assert check_goodcase_sobolev_min(Eigenpair(value=1.0, func=func)) is want
    return want


def _section(t, a=0.7):
    return lambda x: a * (1.0 + np.minimum(x, t))


@pytest.mark.parametrize("j", range(1, 8))
def test_goodcase_scan_matches_sweep_on_eigenfunctions(j):
    assert _assert_check_matches_sweep(family_eigenpair(MIN, j).func) is True


@pytest.mark.parametrize("t", [0.0, _XS[1], 0.25, _XS[500], 0.613, 0.61349, 1.0])
def test_goodcase_scan_matches_sweep_on_kernel_sections(t):
    if t in _XS:
        assert _assert_check_matches_sweep(_section(t)) is False
    else:  # the sweep tries grid t only and misses the section
        vals = _section(t)(_XS)
        assert np.all(_sweep_deviations(_XS, vals, _XS) > _tol(vals))
        assert check_goodcase_sobolev_min(Eigenpair(value=1.0, func=_section(t))) is False


@pytest.mark.parametrize("t", [0.0005, 1.0 / 3.0, 0.6135, 0.61349, 0.999999])
@pytest.mark.parametrize("a", [0.7, -1.3, 1e-3, 5.0])
def test_goodcase_rejects_kernel_sections_between_grid_points(t, a):
    assert check_goodcase_sobolev_min(Eigenpair(value=1.0, func=_section(t, a))) is False


_SCALES = [1e-12, 1e-9, 1.0, 1e6]


@pytest.mark.parametrize("c", _SCALES)
def test_goodcase_verdict_does_not_depend_on_scale(c):
    eta1 = family_eigenpair(MIN, 1).func
    assert check_goodcase_sobolev_min(Eigenpair(value=1.0, func=lambda x: c * eta1(x)))
    for t in (0.0, 0.25, 0.5, 1.0, 0.6135):   # the criterion-13 sections
        scaled = Eigenpair(value=1.0, func=lambda x, t=t: c * _section(t)(x))
        assert check_goodcase_sobolev_min(scaled) is False


def test_goodcase_scan_matches_sweep_on_constant_and_nan():
    assert _assert_check_matches_sweep(np.ones_like) is False
    assert _assert_check_matches_sweep(np.zeros_like) is False
    assert _assert_check_matches_sweep(lambda x: x) is True   # a = 0 forces the zero section
    for nan_at in (0.0, 0.4, 1.0):
        assert _assert_check_matches_sweep(lambda x: np.where(x == nan_at, np.nan, 1.0 + x)) is False
    assert _assert_check_matches_sweep(lambda x: np.where(x > 0.4, np.nan, 1.0)) is False


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6), st.sampled_from(_SCALES))
# tau = 1e-9 max |eta|: 0.999 tau from the off-grid forced section at t = 1e-9,
# over tau from every grid section
@example([1.0, 1e-9], 1.0)
# 1.39 tau from the forced section at t = 5e-10, 0.89 tau from the grid section at t = 0
@example([1.0, -4e-9, 4.5e-9], 1.0)
@example([1.0, -4e-9, 4.5e-9], 1e-12)
def test_goodcase_scan_matches_sweep_on_polynomials(coeffs, scale):
    # eta within delta of the section at t_j is within 2 delta of the forced one,
    # as |a| |t - t_j| = |eta(1) - a (1 + t_j)| <= delta, and the tolerance tau
    # depends on eta alone: so the check certifies only what the sweep
    # certifies at tau / 2, and it rejects only where the forced section lies
    # within tau
    coeffs = [scale * c for c in coeffs]
    vals = np.polynomial.polynomial.polyval(_XS, coeffs)
    eta = Eigenpair(value=1.0, func=lambda x: np.polynomial.polynomial.polyval(x, coeffs))
    if check_goodcase_sobolev_min(eta):
        assert np.all(_sweep_deviations(_XS, vals, _XS) > 0.5 * _tol(vals))
    else:
        with np.errstate(all="ignore"):
            forced = np.clip(vals[-1] / vals[0] - 1.0, 0.0, 1.0) if vals[0] else 0.0
        assert not _sweep_deviations(_XS, vals, np.array([forced]))[0] > _tol(vals)


def test_goodcase_check_memory_is_linear_in_the_grid():
    eta1 = family_eigenpair(MIN, 1)
    check_goodcase_sobolev_min(eta1)  # warm caches outside the traced call
    tracemalloc.start()
    try:
        assert check_goodcase_sobolev_min(eta1) is True
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20  # the 1001 x 1001 sweep needs about 24 MB


def test_classify_min_kernel():
    lam = family_eigenvalues(MIN, 2).values
    rep = classify(lam[0], lam[1], 2.0, goodcase=True)
    assert rep.classification_all == "qpt-not-pt"
    assert rep.qpt_exponent == 1.0
    assert rep.classification_std == "curse"


def test_classify_tie_is_curse():
    rep = classify(1.0, 1.0, 2.0)
    assert rep.classification_all == "curse"
    assert rep.classification_std == "curse"
    # ties within REL_TIE count
    rep = classify(1.0, 1.0 - 1e-13, 2.0)
    assert rep.classification_all == "curse"


def test_classify_trivial_functional():
    rep = classify(2.0, 0.0, 5.0)
    assert rep.classification_all == "qpt-trivial-functional"
    assert rep.qpt_exponent == 0.0
    assert rep.classification_std == "unknown"
    assert classify(2.0, 0.0, 5.0, goodcase=False).classification_std == "trivial"
    assert classify(2.0, 0.0, 5.0, goodcase=True).classification_std == "curse"


def test_classify_no_decay():
    rep = classify(1.0, 0.5, 0.0)
    assert rep.classification_all == "not-qpt"
    assert rep.qpt_exponent is None


def test_classify_scale_invariance():
    lam = family_eigenvalues(MIN, 2).values
    base = classify(lam[0], lam[1], 2.0, goodcase=True)
    for c in (1e-3, 7.0, 1e4):
        scaled = classify(c * lam[0], c * lam[1], 2.0, goodcase=True)
        assert scaled.classification_all == base.classification_all
        assert scaled.classification_std == base.classification_std
        assert scaled.qpt_exponent == pytest.approx(base.qpt_exponent, rel=1e-12)


def test_classify_validation():
    with pytest.raises(ParameterError):
        classify(1.0, 2.0, 1.0)
    with pytest.raises(ParameterError):
        classify(0.0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# en_all and initial errors
# ---------------------------------------------------------------------------

def test_en_all_initial_error():
    for d in (1, 2, 4):
        assert en_all(SOB, d, 0) == SOB.values[0] ** (0.5 * d)
        assert en_all(KOR, d, 0) == 1.0
    assert en_all(SOB, 4, 0) == pytest.approx(1.3510338868783787 ** 2, abs=1e-12)


def test_en_all_tied_top_products():
    # nine degree-2 products equal one when beta = 1, so e_n = 1 up to n = 8
    for n in (1, 3, 8):
        assert en_all(KOR_TIE, 2, n) == pytest.approx(1.0, abs=1e-12)
    assert en_all(KOR_TIE, 2, 9) < 1.0


def test_en_all_nonincreasing_and_matches_counting():
    vals = [en_all(KOR, 2, n) for n in range(12)]
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    # consistency: counting at eps slightly above e_n/e_0 must need <= n terms
    e0 = en_all(KOR, 2, 0)
    for n in (1, 4, 9):
        eps = vals[n] / e0 * (1.0 + 1e-9)
        assert count(KOR, eps, 2) <= n


def test_en_all_exhaustive_zero_tail():
    eigs = EigenSequence(np.array([1.0, 0.5, 0.0]))
    assert en_all(eigs, 1, 2) == 0.0
    assert en_all(eigs, 1, 7) == 0.0
    assert en_all(eigs, 2, 3) == pytest.approx(0.5, abs=1e-15)


def test_en_all_truncation_guard():
    short = family_eigenvalues(MIN, 3)
    with pytest.raises(TruncationError):
        en_all(short, 2, 40)


def heap_en_all(eigs, d, n):
    """Oracle for en_all: best-first enumeration of nondecreasing index
    d-tuples by total weight, each popped tuple standing for its
    multinomial number of orderings."""
    lam = eigs.values
    with np.errstate(divide="ignore"):
        w = np.log(lam[0]) - np.log(lam)
    start = (0,) * d
    heap, seen, cumulative = [(0.0, start)], {start}, 0
    while heap:
        s, tup = heapq.heappop(heap)
        if not math.isfinite(s):
            return 0.0
        mult = math.factorial(d)
        for idx in set(tup):
            mult //= math.factorial(tup.count(idx))
        cumulative += mult
        if cumulative >= n + 1:
            return math.sqrt(math.exp(d * math.log(lam[0]) - s))
        for pos in range(d):
            j = tup[pos]
            if j + 1 < len(lam) and (pos + 1 == d or j + 1 <= tup[pos + 1]):
                child = tup[:pos] + (j + 1,) + tup[pos + 1:]
                if child not in seen:
                    seen.add(child)
                    heapq.heappush(heap, (s + w[j + 1] - w[j], child))
    raise AssertionError("the oracle ran out of tuples")


def brute_force_products(values, d):
    """All len(values)^d products, largest first."""
    prods = np.ones(1)
    for _ in range(d):
        prods = (prods[:, None] * values[None, :]).ravel()
    return np.sort(prods)[::-1]


@st.composite
def finite_spectra(draw):
    """Nonincreasing lists of 1-6 values with exact ties, near ties
    (1 - 1e-13) and, for some, trailing zeros."""
    vals = []
    for v in sorted(draw(st.lists(st.floats(0.05, 1.0), min_size=1, max_size=5)), reverse=True):
        vals.append(v)
        tie = draw(st.sampled_from(["none", "exact", "near"]))
        if tie != "none":
            vals.append(v if tie == "exact" else v * (1.0 - 1e-13))
    vals = sorted(vals, reverse=True)[:6] + [0.0] * draw(st.integers(0, 2))
    return EigenSequence(np.array(vals))


@settings(max_examples=150, deadline=None)
@given(finite_spectra(), st.integers(1, 4), st.data())
def test_en_all_matches_brute_force_property(eigs, d, data):
    lam = eigs.values
    n = data.draw(st.integers(0, len(lam) ** d + 2))
    prods = brute_force_products(lam, d)
    expected = math.sqrt(prods[n]) if n < prods.size else 0.0
    complete = lam[-1] == 0.0
    # a list without its 0 is resolvable when it has n + 1 values, or when
    # its rank-(n+1) product ties or beats every unseen one
    if complete or len(lam) > n or (n < prods.size
                                    and prods[n] * (1.0 + 1e-12) >= lam[-1] * lam[0] ** (d - 1)):
        assert en_all(eigs, d, n) == pytest.approx(expected, rel=1e-13, abs=0.0)


@settings(max_examples=150, deadline=None)
@given(finite_spectra(), st.integers(1, 4), st.data())
def test_en_all_truncation_verdict_property(eigs, d, data):
    lam = eigs.values[eigs.values > 0.0]  # without its zeros the list is cut
    cut = EigenSequence(lam)
    n = data.draw(st.integers(1, len(lam) ** d + 2))
    prods = brute_force_products(lam, d)
    refused = len(lam) <= n and (
        n >= prods.size or prods[n] * (1.0 + 1e-12) < lam[-1] * lam[0] ** (d - 1))
    if refused:
        with pytest.raises(TruncationError):
            en_all(cut, d, n)
    else:
        assert en_all(cut, d, n) == pytest.approx(math.sqrt(prods[n]), rel=1e-13)


@pytest.mark.parametrize("d", [50, 200, 1000])
def test_en_all_matches_heap_at_large_d(d):
    spectra = [family_eigenvalues(COSH, 80)]
    spectra += [family_eigenvalues(KernelSpec("korobov", alpha=alpha, beta=beta), 80)
                for alpha, beta in ((1.0, 0.5), (0.75, 0.9), (2.0, 0.05))]
    spectra.append(KOR_TIE)
    for eigs in spectra:
        assert eigs.values[0] == 1.0
        for n in (0, 1, 2, 17, 33, 60):
            assert en_all(eigs, d, n) == pytest.approx(heap_en_all(eigs, d, n), rel=1e-12)


def test_en_all_resolves_lists_that_hold_the_rank():
    # n + 1 values always resolve e_n; the heap refused each of these
    cosh = family_eigenvalues(COSH, 10)
    assert en_all(cosh, 1, 9) == pytest.approx(math.sqrt(cosh.values[9]), rel=1e-15)
    assert en_all(EigenSequence(np.ones(200)), 2, 9) == 1.0
    # nine degree-2 products of three unit values, and no unseen one is larger
    assert en_all(family_eigenvalues(KernelSpec("korobov", alpha=1.0, beta=1.0), 3), 2, 8) == 1.0


def test_en_all_past_the_double_range():
    eigs = family_eigenvalues(MIN, 10)   # lambda_1^2500 overflows
    for n in (0, 1):
        with pytest.raises(NumericError, match="d=5000"):
            en_all(eigs, 5000, n)
    assert en_all(eigs, 4000, 1) < en_all(eigs, 4000, 0) < math.inf


@pytest.mark.parametrize("n", [0, 1])
def test_en_all_underflow_is_a_numeric_error(n):
    # 0.5^1500 is positive but below the smallest double: 0.0 would read as
    # "past the last positive product"
    with pytest.raises(NumericError, match="d=3000"):
        en_all(EigenSequence(np.array([0.5, 0.25])), 3000, n)


def test_en_all_keeps_small_normal_answers():
    assert en_all(EigenSequence(np.array([0.5, 0.25])), 2000, 1) == pytest.approx(
        math.sqrt(0.5 ** 1999 * 0.25), rel=1e-12)


def test_en_all_zero_tail_is_zero_past_the_last_positive_product():
    # the one positive product 0.5^3000 underflows; every later one is exactly 0
    eigs = EigenSequence(np.array([0.5, 0.0]))
    assert en_all(eigs, 3000, 1) == en_all(eigs, 3000, 5) == 0.0
    with pytest.raises(NumericError, match="d=3000"):
        en_all(eigs, 3000, 0)


def test_en_all_rank_guard_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            en_all(SOB, 3, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16
