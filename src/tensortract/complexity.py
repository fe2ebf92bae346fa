"""Information complexity and tractability for d-fold tensor products.

For the class of arbitrary linear functionals, n(eps, S_d) equals the number
of product eigenvalues lambda_{j_1} ... lambda_{j_d} exceeding
eps^2 lambda_1^d.  Counting runs in log space over weights
w_j = ln(lambda_1 / lambda_j) and enumerates multisets over classes of equal
weights ("weight-classes", see _multiset_count), so counts stay exact (Python
integers) and free of underflow for every d.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ResourceLimitError, TruncationError
from .spectra import REL_TIE, Eigenpair, EigenSequence

COUNT_SATURATION = 2 ** 63 - 1
_BRUTE_MAX_TUPLES = 10 ** 8
_BRUTE_CHUNK = 2 * 10 ** 7
_EN_MAX_RANK = 10 ** 6
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
    # a product above the threshold by less than REL_TIE (relative) does not exceed
    # it, which keeps exact algebraic ties (korobov beta = 1) stable in floating point
    return 2.0 * math.log(1.0 / eps) - math.log1p(REL_TIE)


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
    the next class would already reach the residual budget.  One bisection
    counts the last slot's choices: the indices from the next class on below the residual.
    """
    # w ascends: class j is w[first[j]:first[j + 1]], and the infinite sentinel ends every scan
    first = [0] + (np.flatnonzero(np.diff(w)) + 1).tolist() + [len(w)]
    values = w[first[:-1]].tolist() + [math.inf]
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
        if slots <= 1:   # the last slot's choices, or a full tuple
            if slots:
                tuples *= first[bisect_left(values, residual, start)] - first[start]
            total = min(total + tuples, cap)
            continue
        for j in range(start, len(values)):
            v = values[j]
            if v * slots >= residual:
                break
            mu = first[j + 1] - first[j]
            for t in range(slots, 0, -1):
                rest = residual - t * v
                if t < slots and values[j + 1] * (slots - t) >= rest:
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
        tie_tolerance=REL_TIE,
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
    threshold = query.eps ** 2 * lam[0] ** query.d * (1.0 + REL_TIE)
    cutoff = lam[0] * query.eps ** 2 * (1.0 + REL_TIE)
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
    return ComplexityResult(count=count, truncation_index=L, tie_tolerance=REL_TIE,
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
        return TractabilityReport(lambda1, lambda2, decay, None, classification_all="curse",
                                  classification_std="curse", goodcase_holds=goodcase)
    if goodcase is True:
        std = "curse"
    elif goodcase is False and lambda2 == 0.0:
        std = "trivial"
    else:
        std = "unknown"
    if lambda2 == 0.0:
        linear, t_star = "qpt-trivial-functional", 0.0
    elif decay > 0.0:
        linear, t_star = "qpt-not-pt", qpt_exponent(lambda1, lambda2, decay)
    else:
        linear, t_star = "not-qpt", None
    return TractabilityReport(lambda1, lambda2, decay, t_star, classification_all=linear,
                              classification_std=std, goodcase_holds=goodcase)


def _smallest_sums(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """The k smallest sums a_i + b_j of two ascending arrays, ascending
    (all of them when there are fewer).  Only pairs with (i + 1)(j + 1) <= k
    can be needed: every other pair has at least k pairs below and left of
    it that are no larger (Frederickson & Johnson, JCSS 24, 1982).  Rows
    i < sqrt(k) and columns j < sqrt(k) cover those pairs once each."""
    r = math.isqrt(k)
    sums = np.concatenate([a[i] + b[:k // (i + 1)] for i in range(min(r, len(a)))]
                          + [a[r:k // (j + 1)] + b[j] for j in range(min(r, len(b)))])
    if sums.size > k:
        sums.partition(k - 1)
    return np.sort(sums[:k])


def _smallest_fold_sums(w: np.ndarray, d: int, k: int) -> np.ndarray:
    """The k smallest sums of d entries of w, by binary powering in d."""
    if d == 1:
        return w
    half = _smallest_fold_sums(w, d // 2, k)
    sums = _smallest_sums(half, half, k)
    return _smallest_sums(sums, w, k) if d % 2 else sums


def en_all(eigs: EigenSequence, d: int, n: int) -> float:
    """n-th minimal error for arbitrary linear information: the square root
    of the (n+1)-th largest product eigenvalue, lambda_1^(d/2) exp(-s/2)
    with s the (n+1)-th smallest sum of d weights w_j = ln(lambda_1 /
    lambda_j).  Only the first n + 1 values can occur, so a list that long
    always resolves e_n.  A shorter list that does not end in 0 raises
    TruncationError when it has fewer than n + 1 products, or when its last
    product lambda_L lambda_1^(d-1) exceeds the answer by more than REL_TIE.
    Past the last positive product of a list that ends in 0, e_n is 0; an
    e_n that overflows or underflows a double raises NumericError.
    """
    d, n = operator.index(d), operator.index(n)
    if d < 1:
        raise ParameterError("d must be >= 1")
    if n < 0:
        raise ParameterError("n must be >= 0")
    k = n + 1
    if k > _EN_MAX_RANK:
        raise ResourceLimitError(f"rank {k} exceeds the rank enumeration guard {_EN_MAX_RANK}")
    lam = eigs.values
    with np.errstate(divide="ignore"):
        w = np.log(lam[0]) - np.log(lam[:k])
    sums = _smallest_fold_sums(w, d, k)
    s_k = sums[n] if len(sums) == k else math.inf
    if lam[-1] == 0.0 and s_k == math.inf:
        return 0.0
    if len(lam) < k and s_k > w[-1] + math.log1p(REL_TIE):
        raise TruncationError(f"rank {k} needs more eigenvalues: unseen ones could displace it")
    try:
        e_n = float(lam[0]) ** (0.5 * d) if n == 0 else math.exp(0.5 * (d * math.log(lam[0]) - s_k))
    except OverflowError:
        e_n = math.inf
    if e_n == 0.0 or e_n == math.inf:   # a positive product always has a positive root
        raise NumericError(f"e_n lies outside the double range at d={d}")
    return e_n
