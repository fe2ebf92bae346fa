"""Shared domain types and univariate kernel evaluation.

Every supported reproducing kernel lives on [0, 1] and every operation in
this module is a pure function of immutable inputs, so unrestricted
data-parallel use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import mpmath
import numpy as np

from .errors import DomainError, ParameterError

# Centralized tolerance conventions.
REL_TIE = 1e-12   # relative tolerance for eigenvalue tie decisions
QUAD_TOL = 1e-8   # default quadrature acceptance tolerance

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

    ``korobov`` requires ``alpha > 1/2`` and ``beta`` in (0, 1];
    ``sobolev-distance`` requires an anchor ``a`` in [0, 1].
    """

    family: str
    alpha: float | None = None
    beta: float | None = None
    a: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterError(f"unknown kernel family {self.family!r}")
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

    ``is_exhaustive`` marks finite-dimensional problems whose full spectrum
    (including trailing zeros) is listed; otherwise the values are the true
    leading eigenvalues of an infinite sequence.
    """

    values: np.ndarray
    source: str = "numeric"
    exact_decay: float | None = None
    is_exhaustive: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ParameterError("eigenvalue list must be a nonempty vector")
        if not np.all(np.isfinite(vals)):
            raise ParameterError("eigenvalues must be finite")
        if self.source not in ("analytic-rule", "numeric", "user-supplied"):
            raise ParameterError(f"unknown source tag {self.source!r}")
        if not vals[0] > 0.0:
            raise ParameterError("leading eigenvalue must be positive")
        if np.any(vals < 0.0):
            raise ParameterError("eigenvalues must be nonnegative")
        if np.any(np.diff(vals) > 0.0):
            raise ParameterError("eigenvalues must be nonincreasing")

    def __len__(self) -> int:
        return self.values.size


@dataclass(eq=False)
class Eigenpair:
    """One eigenpair (lambda_j, eta_j) with a pointwise-exact eigenfunction.

    ``func`` evaluates eta_j on [0, 1] (vectorized); ``dfunc`` its derivative.
    ``params`` carries the family-specific closed-form constants so that
    downstream checks can work with exact parameters instead of samples.
    """

    index: int
    value: float
    params: dict = field(default_factory=dict)
    func: Callable[[np.ndarray], np.ndarray] | None = None
    dfunc: Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, x):
        if self.func is None:
            raise ParameterError("eigenpair carries no eigenfunction")
        return self.func(np.asarray(x, dtype=float))


def _check_unit_interval(v: float, name: str) -> float:
    v = float(v)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"{name}={v} outside [0, 1]")
    return v


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


def _bernoulli_index(alpha: float) -> int | None:
    n = int(round(alpha))
    if abs(alpha - n) < 1e-13 and n in _B_EVEN:
        return n
    return None


def _korobov_series_bernoulli(theta, n: int):
    t = theta - np.floor(theta)
    sign = -1.0 if n % 2 == 0 else 1.0
    coeff = sign * (2.0 * math.pi) ** (2 * n) / (2.0 * math.factorial(2 * n))
    return coeff * _B_EVEN[n](t)


def _korobov_series_clausen(theta: float, alpha: float) -> float:
    t = theta - math.floor(theta)
    return float(mpmath.clcos(2.0 * alpha, 2.0 * mpmath.pi * t))


def _korobov_series(theta: float, alpha: float) -> float:
    n = _bernoulli_index(alpha)
    if n is not None:
        return float(_korobov_series_bernoulli(theta, n))
    return _korobov_series_clausen(theta, alpha)


def kernel_eval(spec: KernelSpec, x: float, y: float) -> float:
    """Evaluate the univariate kernel K_1(x, y).

    Symmetric in (x, y) and positive semidefinite on any finite point set.
    Raises DomainError for arguments outside the kernel's domain.
    """
    x = _check_unit_interval(x, "x")
    y = _check_unit_interval(y, "y")
    if spec.family == "sobolev-min":
        return 1.0 + min(x, y)
    if spec.family == "brownian-min":
        return min(x, y)
    if spec.family == "sobolev-distance":
        a = spec.a
        return 1.0 + 0.5 * (abs(x - a) + abs(y - a) - abs(x - y))
    if spec.family == "sobolev-cosh":
        return math.cosh(1.0 - max(x, y)) * math.cosh(min(x, y)) / math.sinh(1.0)
    # korobov
    return 1.0 + 2.0 * spec.beta * _korobov_series(abs(x - y), spec.alpha)


def gram_matrix(spec: KernelSpec, points: Sequence[float]) -> np.ndarray:
    """Assemble the exactly-symmetric kernel Gram matrix on a point set."""
    x = np.asarray(points, dtype=float)
    if np.any((x < 0.0) | (x > 1.0)):
        raise DomainError("points outside [0, 1]")
    X, Y = x[:, None], x[None, :]
    if spec.family == "sobolev-min":
        return 1.0 + np.minimum(X, Y)
    if spec.family == "brownian-min":
        return np.minimum(X, Y)
    if spec.family == "sobolev-distance":
        a = spec.a
        return 1.0 + 0.5 * (np.abs(X - a) + np.abs(Y - a) - np.abs(X - Y))
    if spec.family == "sobolev-cosh":
        return np.cosh(1.0 - np.maximum(X, Y)) * np.cosh(np.minimum(X, Y)) / math.sinh(1.0)

    # korobov: the series depends on |x - y| only, so evaluate once per
    # distinct gap (the slow Clausen path is memoized over unique gaps)
    T = np.abs(X - Y)
    n = _bernoulli_index(spec.alpha)
    if n is not None:
        return 1.0 + 2.0 * spec.beta * _korobov_series_bernoulli(T, n)
    uniq, inverse = np.unique(T, return_inverse=True)
    vals = np.array([_korobov_series_clausen(t, spec.alpha) for t in uniq])
    return 1.0 + 2.0 * spec.beta * vals[inverse].reshape(T.shape)
