"""Analytic eigenpairs and eigenvalue sequences for the kernel families.

The min-kernel Sobolev space gets its eigenvalues from the transcendental
equation cot x = x (one root per interval ((j-1) pi, j pi)); the cosh-kernel
Sobolev space follows the Neumann-cosine rule 1 / (1 + pi^2 (j-1)^2); the
korobov family has the fully explicit spectrum {1} + {beta k^(-2 alpha),
each twice}.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericError, ParameterError
from .spectra import Eigenpair, EigenSequence, KernelSpec, _check_count

# The families with an analytic eigenvalue and eigenpair rule.
ANALYTIC_FAMILIES = ("sobolev-min", "sobolev-cosh", "korobov")

# Bisection width before the final Newton polish.
_BISECT_ATOL = 1e-13
# Offset keeping the bracket away from the cot singularities at multiples of pi.
_BRACKET_PAD = 1e-9
# Newton steps of `_min_kernel_roots` after its fixed-point pass: two agree with
# twelve to 2.7e-16 relative at every m from 1 to 199, at 10^3 to 10^15 and for
# the continuum.
_NEWTON_STEPS = 2


def _cot_minus_x(x: float) -> float:
    return math.cos(x) / math.sin(x) - x


def solve_cot_root(j: int) -> float:
    """Root alpha_j of cot x = x strictly inside ((j-1) pi, j pi).

    Bisection (unconditionally convergent on the bracket: cot x - x falls
    from +inf to -inf across each interval) down to 1e-13, then two Newton
    steps to restore full double precision.
    """
    if j < 1:
        raise ParameterError(f"root index must be >= 1, got {j}")
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


def _min_kernel_roots(count: int, m: int | None = None) -> np.ndarray:
    """The roots alpha_1 < ... < alpha_count of h(alpha) tan alpha = 1, with
    h(alpha) = 2m tan(alpha / 2m) on the m-point midpoint grid and, for m None,
    its limit h(alpha) = alpha, which is cot alpha = alpha.

    The m-point equation holds the eigenvalues of the weighted sobolev-min
    Gram M = (J + B) / m, J all ones and B_ij = min(x_i, x_j), as
    lambda = 1 / (4 m^2 sin^2(alpha / 2m)).  The DST-IV diagonalizes B / m
    with d_k = 1 / (4 m^2 sin^2 theta_k), theta_k = (2k + 1) pi / 4m (Strang,
    The Discrete Cosine Transform, SIAM Review 41, 1999), and J / m = w w^T,
    w = 1 / sqrt(m), has components zeta_k^2 = 2 d_k in that basis.  So M is
    a rank-one update of a known spectrum, and lambda solves the secular
    equation 1 = sum_k zeta_k^2 / (lambda - d_k) (Golub, Some Modified Matrix
    Eigenvalue Problems, SIAM Review 15, 1973).  With lambda written as
    above, d_k / (lambda - d_k) = (1 - cos phi) / (cos phi - cos 2 theta_k)
    for phi = alpha / m; the cos 2 theta_k are the zeros of the Chebyshev T_m,
    so sum_k 1 / (cos phi - cos 2 theta_k) = T_m' / T_m = m tan(m phi) / sin phi,
    and the secular equation becomes 2m tan(alpha / 2m) tan alpha = 1.

    tan alpha > 0 at a root, so root j lies in ((j - 1) pi, (j - 1/2) pi), and
    y = alpha - (j - 1) pi in (0, pi/2) is the fixed point of
    y = arctan(1 / h((j - 1) pi + y)), whose residual has slope
    1 + h' / (1 + h^2) in (1, 2].  From y = arctan(1 / ((j - 1) pi + 0.8)),
    and for j = 1 from 0.8603 - 0.0192 / m^2, within 3.4e-5 of root 1 at
    every m, one fixed-point pass and `_NEWTON_STEPS` Newton steps solve all
    roots at once in O(count); no count may exceed m.
    """
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


def sobolev_min_eigenpair(j: int) -> Eigenpair:
    """Eigenpair of the min-kernel Sobolev space: lambda_j = alpha_j^(-2).

    The eigenfunction eta_j(x) = beta_j cos(alpha_j x - alpha_j) has unit
    norm for ||f||^2 = f(0)^2 + int f'(x)^2 dx, which forces
    beta_j = (cos^2 alpha_j + (alpha_j / 2)(alpha_j - sin(2 alpha_j) / 2))^(-1/2).
    """
    a = solve_cot_root(j)
    b = (math.cos(a) ** 2 + 0.5 * a * (a - 0.5 * math.sin(2.0 * a))) ** -0.5

    def eta(x, a=a, b=b):
        return b * np.cos(a * np.asarray(x, dtype=float) - a)

    return Eigenpair(index=j, value=a ** -2, params={"alpha": a, "beta": b}, func=eta)


def sobolev_min_eigenvalues(count: int) -> EigenSequence:
    _check_count(count)
    return EigenSequence(_min_kernel_roots(count) ** -2, source="analytic-rule", exact_decay=2.0)


def sobolev_cosh_eigenpair(j: int) -> Eigenpair:
    """Eigenpair for the cosh-kernel Sobolev space (norm int f^2 + int f'^2).

    eta_j(x) = beta_j cos((j-1) pi x) with lambda_j = 1 / (1 + pi^2 (j-1)^2).
    """
    if j < 1:
        raise ParameterError("index must be >= 1")
    mu = (math.pi * (j - 1)) ** 2
    lam = 1.0 / (1.0 + mu)
    b = 1.0 if j == 1 else math.sqrt(2.0 * lam)
    freq = math.pi * (j - 1)

    def eta(x, f=freq, b=b):
        return b * np.cos(f * np.asarray(x, dtype=float))

    return Eigenpair(index=j, value=lam, params={"alpha": freq, "beta": b}, func=eta)


def sobolev_cosh_eigenvalues(count: int) -> EigenSequence:
    """{1, 1/(1+pi^2), 1/(1+4 pi^2), ...}; certified against the quadrature
    oracle before being relied on (see the nystrom module tests)."""
    _check_count(count)
    j = np.arange(count, dtype=float)
    vals = 1.0 / (1.0 + (math.pi * j) ** 2)
    return EigenSequence(vals, source="analytic-rule", exact_decay=2.0)


def korobov_eigenvalues(alpha: float, beta: float, count: int) -> EigenSequence:
    """{1} followed by beta * k^(-2 alpha), each with multiplicity 2."""
    _check_count(count)
    KernelSpec("korobov", alpha=alpha, beta=beta)   # validates alpha and beta
    kmax = (count + 1) // 2
    pairs = beta * np.arange(1, kmax + 1, dtype=float) ** (-2.0 * alpha)
    vals = np.sort(np.concatenate([[1.0], np.repeat(pairs, 2)]))[::-1][:count]
    return EigenSequence(vals, source="analytic-rule", exact_decay=2.0 * alpha)


def _korobov_eigenpair(alpha: float, beta: float, j: int) -> Eigenpair:
    if j == 1:
        return Eigenpair(index=1, value=1.0, params={"harmonic": 0.0},
                         func=lambda x: np.ones_like(np.asarray(x, dtype=float)))
    k = j // 2
    lam = beta * k ** (-2.0 * alpha)
    scale = math.sqrt(2.0 * beta) * k ** (-alpha)
    w = 2.0 * math.pi * k
    wave = np.cos if j % 2 == 0 else np.sin
    return Eigenpair(index=j, value=lam, params={"harmonic": float(k)},
                     func=lambda x: scale * wave(w * np.asarray(x, dtype=float)))


def family_eigenvalues(spec: KernelSpec, count: int) -> EigenSequence:
    if spec.family == "sobolev-min":
        return sobolev_min_eigenvalues(count)
    if spec.family == "sobolev-cosh":
        return sobolev_cosh_eigenvalues(count)
    if spec.family == "korobov":
        return korobov_eigenvalues(spec.alpha, spec.beta, count)
    raise ParameterError(f"no analytic eigenvalue rule for family {spec.family!r}")


def family_exact_decay(spec: KernelSpec) -> float:
    """The exact decay p, lambda_j ~ j^-p: 2 alpha for korobov, 2 for the rest."""
    return 2.0 * spec.alpha if spec.family == "korobov" else 2.0


def family_eigenpair(spec: KernelSpec, j: int) -> Eigenpair:
    if spec.family == "sobolev-min":
        return sobolev_min_eigenpair(j)
    if spec.family == "sobolev-cosh":
        return sobolev_cosh_eigenpair(j)
    if spec.family == "korobov":
        return _korobov_eigenpair(spec.alpha, spec.beta, j)
    raise ParameterError(f"no analytic eigenpair rule for family {spec.family!r}")
