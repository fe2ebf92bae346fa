"""Quadrature discretization of the kernel integral operator.

This is the independent numerical oracle for every analytic eigenvalue rule.
Its one grid is the composite midpoint rule, nodes x_i = (i + 1/2)/m each
with the weight 1/m, so a grid is its size m.  The eigenvalues of
M_ij = K(x_i, x_j) / m converge to the spectrum of the integral operator
with kernel K, the nonzero spectrum of W = S*S for L2 approximation, at
O(m^-2 alpha) for korobov and O(m^-2) for the other families, and
Richardson extrapolation sharpens them.

`nystrom_spectrum` picks its eigensolver, all numpy, from the kernel alone
(see `nystrom_solver`):

    korobov, 2 alpha in {2, 4, 6}    aliased
    korobov, other alpha             circulant-fft
    sobolev-cosh                     dct
    brownian-min                     dst
    sobolev-min                      secular
    sobolev-distance, a in {0, 1}    secular
    sobolev-distance, 0 < a < 1      anchored

`circulant-fft` reads all m eigenvalues off one real FFT.  `aliased`
evaluates the korobov spectrum's closed form where its aliasing sum is a
polynomial in csc^2 (see `_aliased_eigenvalues`), `dct` and `dst` the closed
forms of the sobolev-cosh and brownian-min spectra (see `_dct_eigenvalues`
and `_dst_eigenvalues`), `secular` solves the closed-form
characteristic equation of the 1 + min(x, y) Gram (see
`eigensolve._min_kernel_roots`), and `anchored` that of the two pinned
blocks an interior anchor splits the grid into, by a fixed number of Newton
steps from the continuum rule's roots (see `_anchored_eigenvalues`);
these five take O(count), with no m-sized array.  Each solver returns its
top `count` eigenvalues, largest first and nonnegative.  The anchors a = 0 and 1
have the 1 + min(x, y) Gram up to a reflection of the grid.  The tests
hold every solver to a dense eigensolve of the Gram matrix.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .eigensolve import _min_kernel_roots, family_exact_decay
from .errors import NumericError, ParameterError
from .spectra import EigenSequence, KernelSpec, _bernoulli_order, _check_count, _kernel

# Newton steps of `_anchored_eigenvalues`: on m = 1 to 10^15 and every anchor tried the
# last is below 2.5e-16 theta after 5, but up to 1.2e-9 theta (m = 3, a = 1/2) after 4
_ANCHORED_STEPS = 5


@dataclass(frozen=True)
class QuadratureGrid:
    """The composite midpoint rule with m <= 2^53 cells on [0, 1], so m is exact as a float."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, numbers.Integral) or not 1 <= self.m <= 2 ** 53:
            raise ParameterError(f"grid size must be an integer in [1, 2^53], got {self.m!r}")

    @cached_property   # computed once: repeated solves on one grid reuse it
    def nodes(self) -> np.ndarray:
        """The cell midpoints (i + 1/2) / m, increasing."""
        return (np.arange(self.m) + 0.5) / self.m

    def __len__(self) -> int:
        return self.m


midpoint_grid = QuadratureGrid   # the constructor every caller uses


_FAMILY_SOLVERS = {"sobolev-cosh": "dct", "brownian-min": "dst", "sobolev-min": "secular"}

# zeta(2n) / pi^(2n) at the orders 2n = 2, 4, 6 of `_aliased_eigenvalues`
_ZETA_OVER_PI = {1: 1.0 / 6.0, 2: 1.0 / 90.0, 3: 1.0 / 945.0}


def nystrom_solver(spec: KernelSpec) -> str:
    """The eigensolver `nystrom_spectrum` uses for this kernel, as tabled in
    the module docstring.  Each serves every grid size and count."""
    if spec.family == "korobov":
        return "circulant-fft" if _bernoulli_order(spec.alpha) is None else "aliased"
    if spec.family in _FAMILY_SOLVERS:
        return _FAMILY_SOLVERS[spec.family]
    return "secular" if spec.a in (0.0, 1.0) else "anchored"


def _circulant_eigenvalues(spec: KernelSpec, grid: QuadratureGrid, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of the korobov d K d, d = sqrt(1/m),
    largest first.  On the midpoint rule x_i - x_j = (i - j)/m, so K = c(x - y)
    with c even and 1-periodic is circulant: its eigenvalues are the real DFT
    of the first Gram row, and mirroring that pairs bin k with bin m - k
    exactly.  The bins come unordered, and rounding may leave the smallest
    O(eps) below 0, which is clamped; a larger negative value is an error."""
    m = len(grid)
    half = np.fft.rfft(_kernel(spec, grid.nodes[0], grid.nodes)).real / m
    vals = np.sort(np.concatenate([half, half[1:(m + 1) // 2]]))[::-1][:count]
    if vals[-1] < -1e-10 * max(vals[0], 0.0):
        raise NumericError("kernel matrix has significantly negative eigenvalues")
    return np.maximum(vals, 0.0)


def _aliased_eigenvalues(spec: KernelSpec, grid: QuadratureGrid, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of the korobov d K d, d = sqrt(1/m), for
    2 alpha = 2n in {2, 4, 6}, largest first, in O(count).

    K(x, y) = sum_k c_k exp(2 pi i k (x - y)) over all integers k, with c_0 = 1
    and c_k = beta |k|^(-2n).  On the midpoint rule the Gram is circulant, and
    bin k of its DFT sums the coefficients aliased onto it (Trefethen &
    Weideman, The Exponentially Convergent Trapezoidal Rule, SIAM Review 56,
    2014): mu_k = sum_(l = k mod m) c_l.  So
        mu_0 = 1 + 2 beta m^(-2n) zeta(2n),
        mu_k = mu_(m-k) = beta m^(-2n) S(k/m),  S(q) = sum_l (l + q)^(-2n),
    and the partial fractions of S(q) are polynomials P_n in c = csc^2(pi q):
    pi^2 csc^2(pi q) for n = 1, and, differentiating twice, then twice again,
        S = pi^(2n) P_n(c),  P_1 = c,  P_2 = c^2 - 2c/3,  P_3 = c^3 - c^2 + 2c/15.
    With u = (pi/m)^2 and r = u c = ((pi/m) / sin(pi k/m))^2, which lies in
    [u, pi^2/4] and so cannot overflow at any m,
        mu_k = beta r,  beta r (r - 2u/3),  beta r (r (r - u) + 2u^2/15).
    P_n rises with c >= 1, so mu_k falls for 1 <= k <= m/2: the top `count`
    are among mu_0 and the first `count` of the bins 1, m - 1, 2, m - 2, ...
    mu_1 can exceed mu_0 (beta = 0.9, n = 1, m = 2), so these are sorted.
    """
    m, n = len(grid), _bernoulli_order(spec.alpha)
    u = (math.pi / m) ** 2
    # k = 1, 1, 2, 2, ... for the bins 1, m - 1, 2, m - 2, ..., of which there are m - 1
    k = np.arange(2, min(count, m - 1) + 2) // 2
    r = (math.pi / m / np.sin(k * (math.pi / m))) ** 2
    if n == 1:
        p = r
    elif n == 2:
        p = r * (r - u * (2.0 / 3.0))
    else:
        p = r * (r * (r - u) + u * u * (2.0 / 15.0))
    top = 1.0 + 2.0 * spec.beta * u ** n * _ZETA_OVER_PI[n]
    return np.sort(np.concatenate(([top], spec.beta * p)))[::-1][:count]


def _dct_eigenvalues(spec: KernelSpec, grid: QuadratureGrid, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of d K d, d = sqrt(1/m), for
    sobolev-cosh, largest first, in O(count).

    On the midpoint rule x_i - x_j = (i - j)/m and x_i + x_j = (i + j + 1)/m,
    so the sobolev-cosh and brownian-min Grams are Toeplitz +- Hankel,
    K = [c(x - y) +- c(x + y)] / 2: the circulant of c(n/m) folded onto the
    vectors symmetric about the grid's ends, which the DCT-II and DST-IV
    diagonalize (Strang, The Discrete Cosine Transform, SIAM Review 41, 1999).
    Both spectra fall with k, so the top `count` are k = 0 .. count - 1.

    Here c(t) = cosh(1 - |t|) / sinh 1, 2-periodic, and lambda_k is bin k of
    the DFT of c_n = c(n/m), n = 0 .. 2m - 1, over 2m.
    c_(n+1) + c_(n-1) = 2 cosh(1/m) c_n at every n but n = 0 (mod 2m), where
    the left side falls short by 2 sinh(1/m); so the DFT is
    sinh(1/m) / (cosh(1/m) - cos(pi k / m)), and
    cosh a - cos b = 2 sinh^2(a/2) + 2 sin^2(b/2) gives
        lambda_k = sinh(1/m) / (4m (sinh^2(1/2m) + sin^2(pi k / 2m)))
    with no cancellation.  As m grows it tends to 1 / (1 + pi^2 k^2), the
    analytic rule.
    """
    m = len(grid)
    sin_half = np.sin(np.arange(count) * (math.pi / (2 * m)))
    return math.sinh(1.0 / m) / (4.0 * m * (math.sinh(0.5 / m) ** 2 + sin_half * sin_half))


def _dst_eigenvalues(spec: KernelSpec, grid: QuadratureGrid, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of d K d, d = sqrt(1/m), for
    brownian-min, K = min(x, y), largest first, in O(count): the DST-IV
    symbol (see `_dct_eigenvalues`)
        lambda_k = 1 / (4 m^2 sin^2((2k + 1) pi / 4m)),  k = 0 .. count - 1.
    """
    m = len(grid)
    return (2.0 * m * np.sin((2 * np.arange(count) + 1) * (math.pi / (4 * m)))) ** -2


def _secular_eigenvalues(spec: KernelSpec, grid: QuadratureGrid, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of the weighted 1 + min(x, y) Gram,
    1 / (4 m^2 sin^2(alpha_j / 2m)) with alpha_j the roots of
    2m tan(alpha / 2m) tan alpha = 1 (see `eigensolve._min_kernel_roots`).

    sobolev-distance has this Gram at a = 0, where its generators are
    sobolev-min's, and at a = 1, where K(x, y) = 2 - max(x, y) is sobolev-min's
    kernel at (1 - x, 1 - y): the midpoint grid maps onto itself under
    x -> 1 - x, so the Gram is sobolev-min's with rows and columns reversed."""
    m = len(grid)
    return (2.0 * m * np.sin(_min_kernel_roots(count, m) / (2 * m))) ** -2


def _anchored_eigenvalues(spec: KernelSpec, grid: QuadratureGrid, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of d K d, d = sqrt(1/m), for
    sobolev-distance with 0 < a < 1, largest first, in O(count).

    K = 1 + B with B(x, y) = min(|x - a|, |y - a|) for x and y on one side of
    a and 0 across it.  The p nodes below a and the q = m - p others (a node
    at a among them) lie at the distances t_k = (k + 1/2)/m + e below a and
    (k + 1/2)/m - e above it, k = 0, 1, ... outwards, e = a - p/m in
    [-1/2m, 1/2m].  On a side of n nodes sum_l min(t_k, t_l) z_l has the first
    differences sum_(l>k) z_l / m, so with lambda = 1 / (4 m^2 sin^2(theta/2))
    an eigenvector of M = (J + B)/m obeys w_(k+1) + w_(k-1) = 2 cos(theta) w_k
    on the side and w_n = w_(n-1) past its free end: w_k = A cos((n - k - 1/2) theta),
    summing to A sin(n theta) / (2 sin(theta/2)).  The rows of the two nodes
    nearest a, lambda w_0 = (sum_grid v + t_0 sum_side w) / m, then read,
    multiplied by 4 m^2 sin^2(theta/2) / cos(theta/2),
        E_q A_q = h sin(p theta) A_p,   E_p A_p = h sin(q theta) A_q,
        E_p = cos(p theta) - h (1 + e) sin(p theta),
        E_q = cos(q theta) - h (1 - e) sin(q theta),   h = 2m tan(theta/2),
    so lambda is an eigenvalue iff phi = E_p E_q - h^2 sin(p theta) sin(q theta)
    is 0.  An empty side drops out, its sine being 0, and at a = 0 or 1 this
    is `secular`'s 2m tan(theta/2) tan(m theta) = 1.

    With g = h e, s = m theta and r = (p - q) theta,
        phi = (1 + g^2)/2 cos s - h sin s + (1 - g^2)/2 cos r - g sin r,
    whose last two terms are at most (1 + g^2)/2 in size.  At
    theta = (j - 1) pi/m, where sin s = 0, (-1)^(j-1) phi >= 0.  At
    (j - 1/2) pi/m, where cos s = 0, (-1)^(j-1) phi < 0, since there
    tan(theta/2) lies in [tan(pi/4m), cot(pi/4m)] and |g| <= tan(theta/2),
    so h > (1 + g^2)/2.  Each of these m disjoint brackets thus holds a root,
    and the m x m Gram leaves room for no more: root j, lambda_j, is the one
    in [(j - 1) pi/m, (j - 1/2) pi/m], and at anchors such as 1/4 or 1/2 it
    can sit on the left end.  Root j starts at theta = ((j - 1) pi + y)/m, from one
    fixed-point pass at omega = (j - 1) pi + 1/((j - 1) pi + 1) on the continuum rule
    omega sin omega = (cos omega + cos((2a - 1) omega))/2, phi's limit at theta = omega/m:
        y = atan2(1/2, omega) + asin((-1)^(j-1) cos((2a - 1) omega) / (2 hypot(omega, 1/2))).
    `_ANCHORED_STEPS` Newton steps follow; a last step above 1e-15 theta, or a
    root that far outside its bracket, raises NumericError.
    """
    m = len(grid)
    p = min(max(math.ceil(spec.a * m - 0.5), 0), m)
    n, e = 2 * p - m, spec.a - p / m
    j = np.arange(count)   # root j + 1
    omega = j * math.pi + 1.0 / (j * math.pi + 1.0)
    rhs = (1 - 2 * (j % 2)) * np.cos((2 * spec.a - 1) * omega) / (2 * np.hypot(omega, 0.5))
    theta = (j * math.pi + np.arctan2(0.5, omega) + np.arcsin(rhs)) / m
    for _ in range(_ANCHORED_STEPS):
        t = np.tan(0.5 * theta)
        h, dh = 2 * m * t, m * (1.0 + t * t)
        g, dg = e * h, e * dh
        cs, ss = np.cos(m * theta), np.sin(m * theta)
        cr, sr = np.cos(n * theta), np.sin(n * theta)
        phi = 0.5 * (cs + cr + g * g * (cs - cr)) - h * ss - g * sr
        dphi = (g * dg * (cs - cr) - 0.5 * (m * ss + n * sr + g * g * (m * ss - n * sr))
                - dh * ss - m * h * cs - dg * sr - n * g * cr)
        step = phi / dphi
        theta = theta - step
    outside = np.abs(theta - (j + 0.25) * (math.pi / m)) - 0.25 * math.pi / m
    if not np.all(np.maximum(np.abs(step), outside) <= 1e-15 * theta):   # NaN fails too
        raise NumericError(f"anchored eigensolve did not settle in {_ANCHORED_STEPS} Newton steps")
    return (2.0 * m * np.sin(0.5 * theta)) ** -2


# every name `nystrom_solver` returns, and its solver
_SOLVERS = {"circulant-fft": _circulant_eigenvalues, "aliased": _aliased_eigenvalues,
            "dct": _dct_eigenvalues, "dst": _dst_eigenvalues,
            "secular": _secular_eigenvalues, "anchored": _anchored_eigenvalues}


def nystrom_spectrum(spec: KernelSpec, grid: QuadratureGrid, count: int) -> EigenSequence:
    """The `count` largest eigenvalues of the discretized integral operator."""
    _check_count(count)
    if count > len(grid):
        raise ParameterError(f"count {count} exceeds grid size {len(grid)}")
    return EigenSequence(_SOLVERS[nystrom_solver(spec)](spec, grid, count))


@dataclass(frozen=True)
class RefinedSpectrum:
    """Richardson-extrapolated eigenvalues plus |lambda(m2) - lambda(m1)|, the raw difference of
    the two finest grids: 2e4 to 6e6 times the refined values' error on grids of 100 to 2000."""

    eigensequence: EigenSequence
    error_estimates: np.ndarray


def richardson_refine(spec: KernelSpec, count: int, sizes: Sequence[int]) -> RefinedSpectrum:
    """Extrapolate the midpoint-rule spectrum to grid size infinity.

    The midpoint eigenvalue error is O(m^-r), r = `family_exact_decay(spec)`:
    it is the spectrum's tail aliased onto the grid, which falls like
    lambda_m ~ m^-r, so r = 2 alpha for korobov and 2 for the rest.  With the
    two finest sizes m1 < m2 the leading term cancels in
    lambda* = lambda(m2) + (lambda(m2) - lambda(m1)) / ((m2/m1)^r - 1).
    Only m1 and m2 are solved: count must not exceed m1, whatever the
    sizes before it.
    """
    sizes = list(sizes)
    if not all(isinstance(s, numbers.Integral) for s in sizes):
        raise ParameterError(f"grid sizes must be integers, got {sizes!r}")
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ParameterError("need at least two strictly increasing grid sizes")
    coarse, fine = (nystrom_spectrum(spec, midpoint_grid(m), count).values for m in sizes[-2:])
    ratio = sizes[-1] / sizes[-2]
    extrap = fine + (fine - coarse) / (ratio ** family_exact_decay(spec) - 1.0)
    err = np.abs(fine - coarse)
    order = np.argsort(extrap)[::-1]
    seq = EigenSequence(np.maximum(extrap[order], 0.0))
    return RefinedSpectrum(eigensequence=seq, error_estimates=err[order])
