"""Shared domain types and univariate kernel evaluation.

Every supported reproducing kernel lives on [0, 1] and every operation in
this module is a pure function of immutable inputs, so unrestricted
data-parallel use is safe.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ParameterError

REL_TIE = 1e-12   # relative tolerance for eigenvalue tie decisions

FAMILIES = (
    "sobolev-min",
    "sobolev-cosh",
    "korobov",
    "sobolev-distance",
    "brownian-min",
)


@dataclass(frozen=True)
class KernelSpec:
    """A univariate kernel family together with its parameters.

    Every given parameter is finite; ``korobov`` requires ``alpha > 1/2`` and
    ``beta`` in (0, 1]; ``sobolev-distance`` requires an anchor ``a`` in [0, 1].
    No other family takes ``alpha``, ``beta`` or ``a``.
    """

    family: str
    alpha: float | None = None
    beta: float | None = None
    a: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown kernel family {self.family!r}")
        if not all(v is None or math.isfinite(v) for v in (self.alpha, self.beta, self.a)):
            raise ParameterError(f"kernel parameters must be finite, got {self}")
        if self.family != "korobov" and (self.alpha is not None or self.beta is not None):
            raise ParameterError(f"only korobov takes alpha and beta, got {self}")
        if self.family != "sobolev-distance" and self.a is not None:
            raise ParameterError(f"only sobolev-distance takes the anchor a, got {self}")
        if self.family == "korobov":
            if self.alpha is None or self.beta is None:
                raise ParameterError("korobov needs alpha and beta")
            if not self.alpha > 0.5:
                raise ParameterError(f"korobov alpha must exceed 1/2, got {self.alpha}")
            if not 0.0 < self.beta <= 1.0:
                raise ParameterError(f"korobov beta must lie in (0, 1], got {self.beta}")
        if self.family == "sobolev-distance":
            if self.a is None or not 0.0 <= self.a <= 1.0:
                raise ParameterError(f"sobolev-distance anchor must lie in [0, 1], got {self.a}")

    def label(self) -> str:
        if self.family == "korobov":
            return f"korobov(alpha={self.alpha:g}, beta={self.beta:g})"
        if self.family == "sobolev-distance":
            return f"sobolev-distance(a={self.a:g})"
        return self.family


@dataclass(frozen=True, eq=False)
class EigenSequence:
    """Ordered eigenvalues lambda_1 >= lambda_2 >= ... >= 0 of W = S*S.

    A list that ends in 0 is a complete finite spectrum: every later
    eigenvalue is 0 too.  Otherwise the values are the true leading
    eigenvalues of an infinite sequence, and a query that its unseen tail
    could affect raises TruncationError.
    """

    values: np.ndarray
    exact_decay: float | None = None

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        # one pass accepts a valid list: NaN, +-inf, a negative value and a
        # rise all fail it; the checks below only pick the error message
        if (vals.ndim == 1 and vals.size and 0.0 < vals[0] < math.inf and vals[-1] >= 0.0
                and (vals[:-1] >= vals[1:]).all()):
            return
        if vals.ndim != 1 or vals.size == 0:
            raise ParameterError("eigenvalue list must be a nonempty vector")
        if not np.isfinite(vals).all():
            raise ParameterError("eigenvalues must be finite")
        if not vals[0] > 0.0:
            raise ParameterError("leading eigenvalue must be positive")
        if (vals < 0.0).any():
            raise ParameterError("eigenvalues must be nonnegative")
        raise ParameterError("eigenvalues must be nonincreasing")   # all that is left

    def __len__(self) -> int:
        return self.values.size


@dataclass(eq=False)
class Eigenpair:
    """One eigenpair (lambda_j, eta_j) with a pointwise-exact eigenfunction.

    ``func`` evaluates eta_j on [0, 1] (vectorized).
    """

    value: float
    func: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x):
        return self.func(np.asarray(x, dtype=float))


def _check_count(count) -> None:
    """Raise ParameterError unless count is an integer >= 1."""
    if not isinstance(count, numbers.Integral) or count < 1:
        raise ParameterError(f"count must be an integer >= 1, got {count!r}")


def _unit_points(points) -> np.ndarray:
    x = np.asarray(points, dtype=float)
    if not np.all((x >= 0.0) & (x <= 1.0)):
        raise DomainError("points outside [0, 1]")
    return x


# ---------------------------------------------------------------------------
# Korobov cosine series  sum_{k>=1} cos(2 pi k theta) / k^(2 alpha)
# ---------------------------------------------------------------------------

# For 2*alpha an even integer 2n the series is a Bernoulli polynomial:
#   sum_k cos(2 pi k t)/k^(2n) = (-1)^(n+1) (2 pi)^(2n) B_2n({t}) / (2 (2n)!)
_B_EVEN = {
    1: (lambda t: t * t - t + 1.0 / 6.0),
    2: (lambda t: ((t - 2.0) * t + 1.0) * t * t - 1.0 / 30.0),
    3: (lambda t: (((t - 3.0) * t + 2.5) * t * t - 0.5) * t * t + 1.0 / 42.0),
}


def _bernoulli_order(alpha: float) -> int | None:
    """n where 2 alpha is one of the even orders 2n of `_B_EVEN`, else None."""
    n = int(round(alpha))
    return n if abs(alpha - n) < 1e-13 and n in _B_EVEN else None


# Otherwise, with s = 2 alpha and mu = 2 pi min(t, 1 - t) in [0, pi], it is
#   A(s) mu^(s-1) + sum_j zeta(s-2j) (-1)^j mu^2j / (2j)!,  A(s) = pi / (2 Gamma(s) cos(pi s/2)),
# whose terms fall like (mu / 2 pi)^2j <= 4^-j: 32 of them reach double precision.  From
# s = 40 on, Gamma(s) nears overflow and 4^-s < 1e-24: three terms of the series are exact.
# (-1)^j / (2j)!, each rounded once from the exact rational:
_SIGNED_INV_FACTORIALS = np.array([(-1) ** j / math.factorial(2 * j) for j in range(32)])
# zeta(1 + d) - 1/d = sum_k (-1)^k gamma_k d^k / k!, gamma_k the Stieltjes constants,
# highest power first as np.polyval takes it:
_ZETA1_REGULAR = (-0.00034230573671722433, -0.004845181596436159,
                  0.07281584548367671, 0.5772156649015329)


def _korobov_series(theta, alpha: float):
    """sum_{k>=1} cos(2 pi k theta) / k^(2 alpha), elementwise over theta."""
    t = np.asarray(theta, dtype=float) % 1.0
    n = _bernoulli_order(alpha)
    if n is not None:
        coeff = (-1.0) ** (n + 1) * (2.0 * math.pi) ** (2 * n) / (2.0 * math.factorial(2 * n))
        return coeff * _B_EVEN[n](t)
    mu = 2.0 * math.pi * np.minimum(t, 1.0 - t)
    s = 2.0 * alpha
    if s >= 40.0:
        return np.cos(mu) + np.cos(2.0 * mu) * 2.0 ** -s + np.cos(3.0 * mu) * 3.0 ** -s
    # 240-270 ms cold by -X importtime (scipy 1.17, 2-core Xeon): kept out of start-up
    from scipy.special import polygamma, zeta

    coeffs = zeta(s - 2.0 * np.arange(32)) * _SIGNED_INV_FACTORIALS
    r = int(round(s))
    d = s - r   # exact, so cos(pi s/2) below keeps its digits near an odd s
    if r % 2 == 0 or abs(d) >= 1e-3:
        half = 0.5 * math.pi * d
        cos_half = (-1.0) ** (r // 2) * (math.cos(half) if r % 2 == 0 else -math.sin(half))
        lead = math.pi / (2.0 * math.gamma(s) * cos_half)
        return lead * mu ** (s - 1.0) + np.polyval(coeffs[::-1], mu * mu)
    # Near s = 2n + 1 the lead term and the j = n term both have a 1/d pole.
    # Their sum is (-1)^n mu^2n / (2n)! times [zeta(1 + d) - 1/d] - (mu^d F(d) - 1) / d,
    # with F(d) = (pi d/2) / sin(pi d/2) * (2n)! / Gamma(2n + 1 + d).  The first
    # bracket and log F are Taylor series in d; expm1 keeps the second exact.
    n = r // 2
    coeffs[n] = 0.0
    # log F: log(x / sin x) at x = pi d/2 minus the Taylor series of log Gamma
    log_f = [0.0] + [-float(polygamma(k - 1, 2 * n + 1)) / math.factorial(k) for k in range(1, 5)]
    log_f[2] += math.pi ** 2 / 24.0
    log_f[4] += math.pi ** 4 / 2880.0
    with np.errstate(divide="ignore", invalid="ignore"):
        log_mu = np.log(mu)
        pole = np.expm1(d * log_mu + np.polyval(log_f[::-1], d)) / d if d else log_mu + log_f[1]
        bracket = np.polyval(_ZETA1_REGULAR, d) - pole
        # mu = 0 leaves the bracket infinite only where mu^2n vanishes (n >= 1)
        term = np.where(mu == 0.0, 0.0, mu ** (2 * n) * bracket) if n else bracket
    return (-1.0) ** n / math.factorial(2 * n) * term + np.polyval(coeffs[::-1], mu * mu)


def min_max_factors(spec: KernelSpec):
    """Generators (u, v) with K_1(x, y) = u(min(x, y)) v(max(x, y)), or None
    for korobov, whose kernel depends on |x - y| instead.

    u / v is strictly increasing for every family here, so a Gram matrix on
    distinct points where u > 0 is an oscillation matrix with simple
    eigenvalues (Gantmacher-Krein).
    """
    if spec.family == "sobolev-min":
        return (lambda t: 1.0 + t), (lambda t: 1.0)
    if spec.family == "brownian-min":
        return (lambda t: t), (lambda t: 1.0)
    if spec.family == "sobolev-cosh":
        return np.cosh, (lambda t: np.cosh(1.0 - t) / math.sinh(1.0))
    if spec.family == "sobolev-distance":
        a = spec.a
        return (lambda t: 1.0 + np.maximum(t - a, 0.0)), (lambda t: 1.0 + np.maximum(a - t, 0.0))
    return None


def _kernel(spec: KernelSpec, x, y):
    """K_1(x, y), broadcast over array arguments."""
    factors = min_max_factors(spec)
    if factors is not None:
        u, v = factors
        return u(np.minimum(x, y)) * v(np.maximum(x, y))
    return 1.0 + 2.0 * spec.beta * _korobov_series(np.abs(x - y), spec.alpha)


def kernel_eval(spec: KernelSpec, x: float, y: float) -> float:
    """Evaluate the univariate kernel K_1(x, y).

    Symmetric in (x, y) and positive semidefinite on any finite point set.
    Raises DomainError for arguments outside the kernel's domain.
    """
    x, y = _unit_points([x, y])
    return float(_kernel(spec, x, y))


def gram_matrix(spec: KernelSpec, points: Sequence[float]) -> np.ndarray:
    """Assemble the exactly-symmetric kernel Gram matrix on a point set."""
    x = _unit_points(points)
    return _kernel(spec, x[:, None], x[None, :])
