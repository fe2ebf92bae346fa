"""Information complexity and tractability for d-fold tensor products.

For the class of arbitrary linear functionals, n(eps, S_d) equals the number
of product eigenvalues lambda_{j_1} ... lambda_{j_d} exceeding
eps^2 lambda_1^d.  Counting runs in log space over weights
w_j = ln(lambda_1 / lambda_j) and enumerates multisets over classes of equal
weights ("weight-classes", see _multiset_count), so counts stay exact (Python
integers) and free of underflow for every d.
"""

from __future__ import annotations

import heapq
import math
import operator
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceLimitError, TruncationError
from .eigensolve import solve_cot_root
from .spectra import REL_TIE, Eigenpair, EigenSequence

COUNT_SATURATION = 2 ** 63 - 1

# Tuples with products <= threshold within this relative tolerance count as
# *not* exceeding, which makes exact algebraic ties (korobov beta = 1) robust
# in floating point.
_TIE = REL_TIE

_BRUTE_MAX_TUPLES = 10 ** 8
_BRUTE_CHUNK = 2 * 10 ** 7
_HEAP_MAX_POPS = 10 ** 6
_MULTISET_GUARD = 2 * 10 ** 6
_GOODCASE_GRID = 1001
_GOODCASE_RTOL = 1e-9    # relative to max |eta_1| on the grid


@dataclass(frozen=True)
class ComplexityQuery:
    """(eps, d, information class) for n(eps, S_d, Lambda)."""

    eps: float
    d: int
    info_class: str = "all"

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ParameterError(f"eps must lie strictly inside (0, 1), got {self.eps}")
        if self.eps > 1.0 - 1e-9:
            raise ParameterError("eps this close to 1 is not resolvable at double precision")
        try:
            object.__setattr__(self, "d", operator.index(self.d))
        except TypeError:
            raise ParameterError(f"d must be an integer, got {self.d!r}") from None
        if self.d < 1:
            raise ParameterError(f"d must be >= 1, got {self.d}")
        if self.info_class not in ("all", "std"):
            raise ParameterError(f"info_class must be 'all' or 'std', got {self.info_class!r}")


@dataclass
class ComplexityResult:
    """Exact n(eps, S_d, Lambda^all); for the standard class the same number
    is only a lower bound and is flagged as such."""

    count: int
    truncation_index: int
    tie_tolerance: float
    method: str
    saturated: bool = False
    lower_bound_only: bool = False


@dataclass
class TractabilityReport:
    """Classification outcome with the supporting quantities."""

    lambda1: float
    lambda2: float
    decay: float
    qpt_exponent: float | None
    classification_all: str   # curse | qpt-not-pt | qpt-trivial-functional | not-qpt
    classification_std: str   # curse | unknown | trivial
    goodcase_holds: bool | None


def _effective_budget(eps: float) -> float:
    return 2.0 * math.log(1.0 / eps) - math.log1p(_TIE)


def _participating_weights(eigs: EigenSequence, budget: float) -> np.ndarray:
    """Log weights w_j = ln(lambda_1 / lambda_j) of the indices that can occur
    in a counted tuple (those with w_j < budget).  A trailing 0 has w = inf
    and ends the list."""
    lam = eigs.values
    with np.errstate(divide="ignore"):
        w = np.log(lam[0]) - np.log(lam)
    if w[-1] < budget:
        raise TruncationError(
            "univariate eigenvalue list too short: its tail can still "
            "contribute counted tuples; supply more eigenvalues")
    trunc = int(np.searchsorted(w, budget, side="left"))
    return w[:trunc]


def _multiset_count(w: np.ndarray, d: int, budget: float) -> int:
    """Number of ordered d-tuples with total weight strictly below budget,
    clamped at COUNT_SATURATION + 1.

    Equal weights form a class (v_j, mu_j); a tied top eigenvalue is the class
    of weight 0.  Every multiset of t_j indices from class j adds its
    d! / prod t_j! orderings times prod mu_j^(t_j) choices of members.  The
    multisets are enumerated with an explicit stack, taking t indices from one
    class at a time, t = slots down to 1, until filling the slots left from
    the next class would already reach the residual budget.
    """
    # w is ascending, so the classes are too; the infinite sentinel ends every scan
    classes = list(Counter(w.tolist()).items()) + [(math.inf, 0)]
    cap = COUNT_SATURATION + 1
    comb = math.comb
    total = 0
    pops = 0
    stack = [(0, d, budget, 1)]  # next class, slots left, residual, tuples
    while stack:
        pops += 1
        if pops > _MULTISET_GUARD:
            raise ResourceLimitError("multiset enumeration guard exceeded; near-tied "
                                     "eigenvalues make this count too costly")
        start, slots, residual, tuples = stack.pop()
        if slots == 0:
            total = min(total + tuples, cap)
            continue
        for j in range(start, len(classes)):
            v, mu = classes[j]
            if v * slots >= residual:
                break
            for t in range(slots, 0, -1):
                rest = residual - t * v
                if t < slots and classes[j + 1][0] * (slots - t) >= rest:
                    break
                stack.append((j + 1, slots - t, rest,
                              min(tuples * comb(slots, t) * mu ** min(t, 64), cap)))
    return total


def count_info_complexity_all(eigs: EigenSequence, query: ComplexityQuery) -> ComplexityResult:
    """Exact n(eps, S_d, Lambda^all) = #{(j_1..j_d) : prod lambda > eps^2 lambda_1^d}.

    For info_class 'std' the same count is returned flagged as a lower bound
    (standard information can never beat arbitrary linear information).
    """
    budget = _effective_budget(query.eps)
    w = _participating_weights(eigs, budget)
    count = _multiset_count(w, query.d, budget)
    saturated = count > COUNT_SATURATION
    return ComplexityResult(
        count=COUNT_SATURATION if saturated else count,
        truncation_index=len(w),
        tie_tolerance=_TIE,
        method="weight-classes",
        saturated=saturated,
        lower_bound_only=(query.info_class == "std"),
    )


def brute_force_count(eigs: EigenSequence, query: ComplexityQuery) -> ComplexityResult:
    """Oracle for count_info_complexity_all: literally enumerate every
    d-tuple of participating indices and compare products directly."""
    if query.d > 4:
        raise ResourceLimitError("brute force is guarded to d <= 4")
    lam = eigs.values
    threshold = query.eps ** 2 * lam[0] ** query.d * (1.0 + _TIE)
    cutoff = lam[0] * query.eps ** 2 * (1.0 + _TIE)
    if lam[-1] > cutoff:
        raise TruncationError("univariate eigenvalue list too short for brute force")
    part = lam[lam > cutoff]
    L = len(part)
    if L ** query.d > _BRUTE_MAX_TUPLES:
        raise ResourceLimitError(f"{L}^{query.d} tuples exceed the enumeration guard")

    prods = part.copy()
    for _ in range(query.d - 2):
        prods = (prods[:, None] * part[None, :]).ravel()
    if query.d == 1:
        count = int(np.count_nonzero(prods > threshold))
    else:
        # count the final level chunkwise instead of materializing L^d products
        count = 0
        n_chunks = max(1, int(prods.size * L / _BRUTE_CHUNK))
        for chunk in np.array_split(prods, n_chunks):
            count += int(np.count_nonzero(chunk[:, None] * part[None, :] > threshold))
    return ComplexityResult(count=count, truncation_index=L, tie_tolerance=_TIE,
                            method="direct-enum",
                            lower_bound_only=(query.info_class == "std"))


def estimate_decay(eigs: EigenSequence, window: tuple[int, int] = (20, 200)) -> float:
    """Least-squares slope of ln(lambda_n) against ln(n) over the 1-based
    inclusive index window; returns the negated slope.

    Callers must prefer eigs.exact_decay when present; this estimator exists
    to sanity-check analytic decay claims.
    """
    lo, hi = int(window[0]), int(window[1])
    if lo < 1 or hi > len(eigs) or hi - lo + 1 < 8:
        raise ParameterError(f"window {window} invalid for a sequence of length {len(eigs)}")
    lam = eigs.values[lo - 1:hi]
    if np.any(lam <= 0.0):
        raise ParameterError("window contains a zero eigenvalue")
    n = np.arange(lo, hi + 1, dtype=float)
    slope = np.polyfit(np.log(n), np.log(lam), 1)[0]
    return float(-slope)


def qpt_exponent(lambda1: float, lambda2: float, decay: float) -> float:
    """Quasi-polynomial tractability exponent t* = max(2/decay, 2/ln(l1/l2)),
    with t* = 0 in the trivial-functional case lambda2 = 0."""
    if not lambda1 > 0.0:
        raise ParameterError("lambda1 must be positive")
    if not 0.0 <= lambda2 < lambda1:
        raise ParameterError("need 0 <= lambda2 < lambda1 (curse regime otherwise)")
    if lambda2 == 0.0:
        return 0.0
    if not decay > 0.0:
        raise ParameterError("decay must be positive when lambda2 > 0")
    return max(2.0 / decay, 2.0 / math.log(lambda1 / lambda2))


def check_goodcase_sobolev_min(eta1: Eigenpair) -> bool:
    """True iff eta_1 is NOT of the form a (1 + min(., t)) for any a and t in [0, 1].

    The end values force the section: a = eta_1(0), and eta_1(1) = a (1 + t)
    gives t = eta_1(1) / a - 1, clipped to [0, 1] (with a = 0 the section is
    zero for every t).  The condition holds when eta_1 deviates from that one
    section by more than 1e-9 max |eta_1| somewhere on a grid of 1001 points,
    so scaling eta_1 leaves the verdict unchanged.  A NaN value, or
    eta_1 = 0, gives False.
    """
    xs = np.linspace(0.0, 1.0, _GOODCASE_GRID)
    vals = eta1(xs)
    a = vals[0]
    with np.errstate(over="ignore"):   # a tiny a: t clips to 1
        t = np.clip(vals[-1] / a - 1.0, 0.0, 1.0) if a != 0.0 else 0.0
    deviation = np.max(np.abs(a * (1.0 + np.minimum(xs, t)) - vals))
    return bool(deviation > _GOODCASE_RTOL * np.max(np.abs(vals)))


def classify(lambda1: float, lambda2: float, decay: float,
             goodcase: bool | None = None) -> TractabilityReport:
    """Apply the tractability decision table.

    lambda2 = lambda1 (within REL_TIE): curse for both classes.  Otherwise
    the linear class is QPT iff decay > 0 (exponent from qpt_exponent, never
    PT while lambda2 > 0), and the standard class is cursed exactly when the
    goodcase condition is known to hold; a failed or unavailable goodcase
    yields 'unknown' (or 'trivial' when the problem is itself a functional).
    Unproven conjectures are never emitted as classifications.
    """
    if not lambda1 > 0.0:
        raise ParameterError("lambda1 must be positive")
    if lambda2 > lambda1 or lambda2 < 0.0:
        raise ParameterError("need 0 <= lambda2 <= lambda1")

    if lambda2 >= lambda1 * (1.0 - REL_TIE):
        return TractabilityReport(lambda1, lambda2, decay, None,
                                  classification_all="curse",
                                  classification_std="curse",
                                  goodcase_holds=goodcase)

    if goodcase is True:
        std = "curse"
    elif goodcase is False and lambda2 == 0.0:
        std = "trivial"
    else:
        std = "unknown"

    if lambda2 == 0.0:
        return TractabilityReport(lambda1, lambda2, decay, 0.0,
                                  classification_all="qpt-trivial-functional",
                                  classification_std=std,
                                  goodcase_holds=goodcase)
    if decay > 0.0:
        t_star = qpt_exponent(lambda1, lambda2, decay)
        return TractabilityReport(lambda1, lambda2, decay, t_star,
                                  classification_all="qpt-not-pt",
                                  classification_std=std,
                                  goodcase_holds=goodcase)
    return TractabilityReport(lambda1, lambda2, decay, None,
                              classification_all="not-qpt",
                              classification_std=std,
                              goodcase_holds=goodcase)


def en_all(eigs: EigenSequence, d: int, n: int) -> float:
    """n-th minimal error for arbitrary linear information: the square root
    of the (n+1)-th largest product eigenvalue.  n = 0 gives lambda_1^(d/2),
    and past the last positive product of a list that ends in 0 it is 0.
    """
    if d < 1:
        raise ParameterError("d must be >= 1")
    if n < 0:
        raise ParameterError("n must be >= 0")
    lam = eigs.values
    if n == 0:
        return float(lam[0] ** (0.5 * d))

    with np.errstate(divide="ignore"):
        w = np.log(lam[0]) - np.log(lam)
    L = len(lam)
    log_lam1 = math.log(lam[0])
    factorial = math.factorial

    # best-first enumeration of nondecreasing index tuples by total weight
    start = tuple([0] * d)
    heap = [(0.0, start)]
    seen = {start}
    cumulative = 0
    pops = 0
    value = None
    while heap:
        pops += 1
        if pops > _HEAP_MAX_POPS:
            raise ResourceLimitError("rank enumeration guard exceeded; n too large")
        s, tup = heapq.heappop(heap)
        if not math.isfinite(s):
            value = 0.0  # only zero-product tuples remain
            break
        mult = factorial(d)
        for idx in set(tup):
            mult //= factorial(tup.count(idx))
        cumulative += mult
        if cumulative >= n + 1:
            value = math.exp(d * log_lam1 - s)
            break
        for pos in range(d):
            j = tup[pos]
            if j + 1 >= L:
                continue
            if pos + 1 < d and j + 1 > tup[pos + 1]:
                continue
            child = tup[:pos] + (j + 1,) + tup[pos + 1:]
            if child not in seen:
                seen.add(child)
                heapq.heappush(heap, (s + w[j + 1] - w[j], child))

    if value is None:
        raise TruncationError("eigenvalue list exhausted before rank n+1; "
                              "supply more eigenvalues")
    if value == 0.0:
        return 0.0
    if value <= lam[-1] * lam[0] ** (d - 1):
        raise TruncationError("rank n+1 not resolvable at this truncation: "
                              "unseen eigenvalues could still displace it")
    return math.sqrt(value)


@dataclass(frozen=True)
class InitialErrorComparison:
    """Initial errors of integration and approximation on the min-kernel
    Sobolev space, and their ratio base (lambda_1 / (4/3))^(d/2)."""

    e0_integration: float
    e0_approximation: float
    ratio: float


def initial_error_ratio_integration(d: int) -> InitialErrorComparison:
    """e0(INT_d) = (4/3)^(d/2) against e0(APP_d) = lambda_1^(d/2) for the
    min-kernel Sobolev family."""
    if d < 1:
        raise ParameterError("d must be >= 1")
    lam1 = solve_cot_root(1) ** -2
    return InitialErrorComparison(
        e0_integration=(4.0 / 3.0) ** (0.5 * d),
        e0_approximation=lam1 ** (0.5 * d),
        ratio=(lam1 / (4.0 / 3.0)) ** (0.5 * d),
    )
