"""Analytic eigenpairs and eigenvalue sequences for the kernel families.

`family_eigenpairs` holds every family's eigenvalues and eigenfunction
constants as one table of arrays, and every other function here reads it.
The min-kernel Sobolev space gets its eigenvalues from the transcendental
equation cot x = x (root j in ((j-1) pi, (j-1/2) pi)); the cosh-kernel
Sobolev space follows the Neumann-cosine rule 1 / (1 + pi^2 (j-1)^2); the
korobov family has the fully explicit spectrum {1} + {beta k^(-2 alpha),
each twice}.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError
from .spectra import Eigenpair, EigenSequence, KernelSpec, _check_count

# The families with an analytic eigenvalue and eigenpair rule.
ANALYTIC_FAMILIES = ("sobolev-min", "sobolev-cosh", "korobov")

# Newton steps of `_min_kernel_roots` after its fixed-point pass: two agree with
# twelve to 2.7e-16 relative at every m from 1 to 199, at 10^3 to 10^15 and for
# the continuum.
_NEWTON_STEPS = 2
# Roots `_min_kernel_roots` solves one by one in floats, 2.3 us each against 45 us a vector
# pass (m = 500, one thread); any longer count pays them too, so they stop at classify's 8.
_FLOAT_ROOTS = 8
# alpha_1 = 0.86033358901937976..., rounded up: bounds the sobolev-min count
# above lambda_1 eps^2 before any root is solved
_ALPHA1_ABOVE = 0.8603335890193798


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
    every m, one fixed-point pass and `_NEWTON_STEPS` Newton steps solve root
    j in Python floats if j <= `_FLOAT_ROOTS`, else in one numpy vector with
    the rest, so its bits depend on (j, m) alone; no count may exceed m.
    """
    def iterate(c, y, tan, atan):   # on y = alpha - c, for floats or arrays
        for step in range(_NEWTON_STEPS + 1):   # a fixed-point pass, then Newton
            if m is None:
                hy, dh = c + y, 1.0
            else:   # h and h' at alpha = c + y
                t = tan((c + y) / (2 * m))
                hy, dh = 2 * m * t, 1.0 + t * t
            fixed = atan(1.0 / hy)
            if step:
                y -= (y - fixed) / (1.0 + dh / (1.0 + hy * hy))
            else:
                y = fixed   # a new array, so -= leaves the caller's start alone
        return y

    roots = np.empty(count)
    for j in range(min(count, _FLOAT_ROOTS)):
        c = j * math.pi
        y = math.atan(1.0 / (c + 0.8)) if j else 0.8603 if m is None else 0.8603 - 0.0192 / m / m
        roots[j] = c + iterate(c, y, math.tan, math.atan)
    if count > _FLOAT_ROOTS:
        c = np.arange(_FLOAT_ROOTS, count) * math.pi
        y = iterate(c, np.arctan(1.0 / (c + 0.8)), np.tan, np.arctan)
        np.add(c, y, out=roots[_FLOAT_ROOTS:])
    return roots


def family_eigenpairs(spec: KernelSpec, count: int) -> tuple[np.ndarray, dict]:
    """lambda_1 >= ... >= lambda_count of an analytic family and the constants
    of each eigenfunction eta_j, as arrays of length count:
    - sobolev-min: lambda_j = alpha_j^-2, alpha_j the j-th root of cot x = x,
      and eta_j(x) = beta_j cos(alpha_j x - alpha_j), whose unit norm for
      ||f||^2 = f(0)^2 + int f'^2 forces
      beta_j^-2 = cos^2 alpha_j + (alpha_j / 2)(alpha_j - sin(2 alpha_j) / 2);
      at a root cos^2 alpha = alpha^2 / (1 + alpha^2) and
      sin 2 alpha = 2 alpha / (1 + alpha^2), so that is
      alpha_j^2 (2 + alpha_j^2) / (2 (1 + alpha_j^2));
    - sobolev-cosh (norm int f^2 + int f'^2): alpha_j = (j - 1) pi,
      lambda_j = 1 / (1 + alpha_j^2) and eta_j(x) = beta_j cos(alpha_j x),
      beta_j = sqrt(2 lambda_j), beta_1 = 1;
    - korobov: harmonic k = floor(j / 2), lambda_1 = 1 and eta_1 = 1, then
      lambda_j = beta k^(-2 alpha) and eta_j(x) = sqrt(2 lambda_j) cos(2 pi k x)
      for even j, sin(2 pi k x) for odd j.
    """
    _check_count(count)
    if spec.family == "sobolev-min":
        a = _min_kernel_roots(count)
        a2 = a * a
        return a ** -2, {"alpha": a, "beta": np.sqrt(2.0 * (1.0 + a2) / (a2 * (2.0 + a2)))}
    if spec.family == "sobolev-cosh":
        freq = math.pi * np.arange(count, dtype=float)
        lam = 1.0 / (1.0 + freq ** 2)
        beta = np.sqrt(2.0 * lam)
        beta[0] = 1.0
        return lam, {"alpha": freq, "beta": beta}
    if spec.family == "korobov":
        k = np.repeat(np.arange(1, (count + 1) // 2 + 1, dtype=float), 2)
        lam = np.concatenate([[1.0], spec.beta * k ** (-2.0 * spec.alpha)])[:count]
        return lam, {"harmonic": np.concatenate([[0.0], k])[:count]}
    raise ParameterError(f"no analytic eigenpair rule for family {spec.family!r}")


def family_eigenvalues(spec: KernelSpec, count: int) -> EigenSequence:
    return EigenSequence(family_eigenpairs(spec, count)[0], exact_decay=family_exact_decay(spec))


def family_exact_decay(spec: KernelSpec) -> float:
    """The exact decay p, lambda_j ~ j^-p: 2 alpha for korobov, 2 for the rest."""
    return 2.0 * spec.alpha if spec.family == "korobov" else 2.0


def family_eigenpair(spec: KernelSpec, j: int) -> Eigenpair:
    """Row j of `family_eigenpairs` together with its eigenfunction eta_j."""
    values, params = family_eigenpairs(spec, j)
    lam = float(values[-1])
    consts = {key: float(col[-1]) for key, col in params.items()}
    if spec.family == "korobov":
        w = 2.0 * math.pi * consts["harmonic"]
        scale = math.sqrt(2.0 * lam) if j > 1 else 1.0
        wave = np.sin if j % 2 and j > 1 else np.cos

        def eta(x):
            return scale * wave(w * np.asarray(x, dtype=float))
    else:
        a, b = consts["alpha"], consts["beta"]
        shift = a if spec.family == "sobolev-min" else 0.0

        def eta(x):
            return b * np.cos(a * np.asarray(x, dtype=float) - shift)

    return Eigenpair(value=lam, func=eta)


def family_count_bound(spec: KernelSpec, eps: float) -> float:
    """An upper bound on #{j : lambda_j > lambda_1 eps^2}, from each family's
    closed form and with no root solved; inf past the range of a double:
    - sobolev-min: lambda_j > lambda_1 eps^2 means alpha_j < alpha_1 / eps,
      and alpha_j > (j - 1) pi;
    - sobolev-cosh: (j - 1)^2 pi^2 < 1 / eps^2 - 1;
    - korobov: lambda_1 = 1, and twice each k < (beta / eps^2)^(1 / 2 alpha).
    """
    with np.errstate(over="ignore"):
        if spec.family == "sobolev-min":
            return float(np.floor(_ALPHA1_ABOVE / (math.pi * eps))) + 1.0
        if spec.family == "sobolev-cosh":
            return float(np.floor(math.sqrt(1.0 / eps / eps - 1.0) / math.pi)) + 1.0
        if spec.family == "korobov":
            k = np.exp((math.log(spec.beta) - 2.0 * math.log(eps)) / (2.0 * spec.alpha))
            return 2.0 * float(np.floor(k)) + 1.0
    raise ParameterError(f"no analytic eigenvalue rule for family {spec.family!r}")

