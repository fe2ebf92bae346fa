"""Quadrature discretization of the kernel integral operator.

This is the independent numerical oracle for every analytic eigenvalue rule.
Its one grid is the composite midpoint rule, nodes x_i = (i + 1/2)/m each
with the weight 1/m, so a grid is its size m.  The eigenvalues of
M_ij = K(x_i, x_j) / m converge at O(m^-2) to the spectrum of the integral
operator with kernel K, the nonzero spectrum of W = S*S for L2
approximation, and Richardson extrapolation sharpens them.

`nystrom_spectrum` picks its eigensolver, all numpy, from family, m and
count alone (see `nystrom_solver`):

    korobov                          any count      circulant-fft
    sobolev-cosh                     any count      dct
    brownian-min                     any count      dst
    sobolev-min                      any count      secular
    sobolev-distance, a in {0, 1}    any count      secular
    sobolev-distance, 0 < a < 1      count <= m/6   lanczos
    sobolev-distance, 0 < a < 1      count > m/6    dense eigvalsh

`circulant-fft` reads all m eigenvalues off one real FFT.  `dct` and `dst`
evaluate the closed forms of the sobolev-cosh and brownian-min spectra (see
`_trigonometric_eigenvalues`), and `secular` solves the closed-form
characteristic equation of the 1 + min(x, y) Gram (see
`eigensolve._min_kernel_roots`); these three take O(count), with no m-sized
array.  The anchors a = 0 and 1 have the 1 + min(x, y) Gram up to a
reflection of the grid.  Dense `eigvalsh` is the oracle every other solver
is tested against.

Lanczos stops once each of the `count` top Ritz values has an error bound
of at most eps theta_max: r^2 / delta (Kato-Temple), with r the residual
bound and delta the gap to the neighbouring Ritz values less their own r,
or r itself where delta <= r.  It checks after 2 count + 5 steps and then
every 5 steps, and at the latest stops at m steps, where it is exact.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .eigensolve import _min_kernel_roots
from .errors import NumericError, ParameterError
from .spectra import EigenSequence, KernelSpec, _check_count, _kernel, gram_matrix, min_max_factors

# Lanczos keeps a basis of about 2 count + 5 rows and orthogonalizes every
# step against it twice, so past count = m/6 dense eigvalsh can win
# (sobolev-min, 2-core Xeon, one BLAS thread, Lanczos against dense, ranges
# of 7 runs, 3 at m = 2000: at m/6 13-17 against 19-20 ms at m = 500, 76-94
# against 104-128 ms at m = 1000, 811-835 against 849-861 ms at m = 2000; at
# m/5 Lanczos ties at m = 500 but takes 141-155 against 112-123 ms at 1000
# and 1108-1182 against 866-881 ms at 2000).
_LANCZOS_MAX_SHARE = 1 / 6
_LANCZOS_CHECK = 5   # steps between Lanczos convergence checks, the first after 2 count + 5


@dataclass(frozen=True)
class QuadratureGrid:
    """The composite midpoint rule with m cells on [0, 1]."""

    m: int

    def __post_init__(self):
        if not isinstance(self.m, numbers.Integral) or self.m < 1:
            raise ParameterError(f"grid size must be an integer >= 1, got {self.m!r}")

    @cached_property   # computed once: repeated solves on one grid reuse it
    def nodes(self) -> np.ndarray:
        """The cell midpoints (i + 1/2) / m, increasing."""
        return (np.arange(self.m) + 0.5) / self.m

    @property
    def weight(self) -> float:
        """The weight 1/m of every node."""
        return 1.0 / self.m

    def __len__(self) -> int:
        return self.m


midpoint_grid = QuadratureGrid   # the constructor every caller uses


def weighted_kernel_matrix(spec: KernelSpec, grid: QuadratureGrid) -> np.ndarray:
    """d G d with the scalar d = sqrt(1/m): exactly symmetric, as the Gram
    matrix G is."""
    d = math.sqrt(grid.weight)
    return d * gram_matrix(spec, grid.nodes) * d


_FAMILY_SOLVERS = {"korobov": "circulant-fft", "sobolev-cosh": "dct", "brownian-min": "dst"}


def nystrom_solver(spec: KernelSpec, grid: QuadratureGrid, count: int) -> str:
    """The eigensolver `nystrom_spectrum` uses for these inputs, as tabled in
    the module docstring.  Every Gram but an interior anchor's has a solver
    that serves every count; an interior anchor has simple eigenvalues,
    which Lanczos finds up to m/6."""
    if spec.family in _FAMILY_SOLVERS:
        return _FAMILY_SOLVERS[spec.family]
    if spec.family == "sobolev-min" or spec.a in (0.0, 1.0):
        return "secular"
    return "lanczos" if count <= _LANCZOS_MAX_SHARE * len(grid) else "dense"


def _circulant_eigenvalues(spec: KernelSpec, grid: QuadratureGrid) -> np.ndarray:
    """All m eigenvalues of the korobov d K d, d = sqrt(1/m).  On the midpoint
    rule x_i - x_j = (i - j)/m, so K = c(x - y) with c even and 1-periodic is
    circulant: its eigenvalues are the real DFT of the first Gram row, and
    mirroring that pairs bin k with bin m - k exactly."""
    m = len(grid)
    half = np.fft.rfft(_kernel(spec, grid.nodes[0], grid.nodes)).real / m
    return np.concatenate([half, half[1:(m + 1) // 2]])


def _trigonometric_eigenvalues(spec: KernelSpec, grid: QuadratureGrid, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of d K d, d = sqrt(1/m), for
    sobolev-cosh and brownian-min, largest first, in O(count).

    On the midpoint rule x_i - x_j = (i - j)/m and x_i + x_j = (i + j + 1)/m,
    so both Grams are Toeplitz +- Hankel, K = [c(x - y) +- c(x + y)] / 2: the
    circulant of c(n/m) folded onto the vectors symmetric about the grid's
    ends, which the DCT-II and DST-IV diagonalize (Strang, The Discrete
    Cosine Transform, SIAM Review 41, 1999).  Both spectra fall with k, so
    the top `count` are k = 0 .. count - 1.

    brownian-min  K = min(x, y), the DST-IV symbol:
                  lambda_k = 1 / (4 m^2 sin^2((2k + 1) pi / 4m)).
    sobolev-cosh  c(t) = cosh(1 - |t|) / sinh 1, 2-periodic, and lambda_k is
                  bin k of the DFT of c_n = c(n/m), n = 0 .. 2m - 1, over 2m.
                  c_(n+1) + c_(n-1) = 2 cosh(1/m) c_n at every n but n = 0
                  (mod 2m), where the left side falls short by 2 sinh(1/m);
                  so the DFT is sinh(1/m) / (cosh(1/m) - cos(pi k / m)), and
                  cosh a - cos b = 2 sinh^2(a/2) + 2 sin^2(b/2) gives
                  lambda_k = sinh(1/m) / (4m (sinh^2(1/2m) + sin^2(pi k / 2m)))
                  with no cancellation.  As m grows it tends to
                  1 / (1 + pi^2 k^2), the analytic rule.
    """
    m, k = len(grid), np.arange(count)
    if spec.family == "brownian-min":
        return (2.0 * m * np.sin((2 * k + 1) * (math.pi / (4 * m)))) ** -2
    sin_half = np.sin(k * (math.pi / (2 * m)))
    return math.sinh(1.0 / m) / (4.0 * m * (math.sinh(0.5 / m) ** 2 + sin_half * sin_half))


def _secular_eigenvalues(grid: QuadratureGrid, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of the weighted 1 + min(x, y) Gram,
    1 / (4 m^2 sin^2(alpha_j / 2m)) with alpha_j the roots of
    2m tan(alpha / 2m) tan alpha = 1 (see `eigensolve._min_kernel_roots`).

    sobolev-distance has this Gram at a = 0, where its generators are
    sobolev-min's, and at a = 1, where K(x, y) = 2 - max(x, y) is sobolev-min's
    kernel at (1 - x, 1 - y): the midpoint grid maps onto itself under
    x -> 1 - x, so the Gram is sobolev-min's with rows and columns reversed."""
    m = len(grid)
    return (2.0 * m * np.sin(_min_kernel_roots(count, m) / (2 * m))) ** -2


def _min_max_matvec(gather, weights, z, out):
    """out = d K d z for K_ij = u_min(i,j) v_max(i,j) on increasing nodes,
    (K z)_i = v_i sum_{j<=i} u_j z_j + u_i sum_{j>i} v_j z_j.

    Row 0 of weights[0] * z[gather] holds d u_i z_i and row 1 holds d v_j z_j
    from j = m - 1 down to 1 after a zero, so one cumsum gives the head sums
    and, read backwards, the tail sums; weights[1] then applies d v_i and
    d u_i, the latter reversed to match."""
    sums = weights[0] * z[gather]
    np.cumsum(sums, axis=1, out=sums)
    sums *= weights[1]
    np.add(sums[0], sums[1, ::-1], out=out)


def _lanczos_eigenvalues(spec: KernelSpec, grid: QuadratureGrid, count: int) -> np.ndarray:
    """The `count` largest eigenvalues of d K d, d = sqrt(1/m), by Lanczos
    with full reorthogonalization on the matrix-free `_min_max_matvec`.

    A Ritz value theta_i of the k-step tridiagonal T = S diag(theta) S^T lies
    within r_i = beta_k |S[-1, i]| of an eigenvalue, and within r_i^2 / delta_i
    if no other eigenvalue lies within delta_i of theta_i (Kato-Temple;
    Parlett, The Symmetric Eigenvalue Problem, 10.2 and ch. 13).  delta_i is
    estimated as the distance to the neighbouring Ritz values less their own
    r; where that is <= r_i the bound stays r_i.  The iteration stops once
    the bound is at most eps theta_max for all `count` top values, checked
    after 2 count + 5 steps and then every `_LANCZOS_CHECK` steps, or at
    k = m, where the Krylov space is exhausted and the values are exact."""
    u, v = min_max_factors(spec)
    m, nodes = len(grid), grid.nodes
    du, dv = (np.full(m, math.sqrt(grid.weight)) * f(nodes) for f in (u, v))
    gather = np.arange(m) * np.array([[1], [-1]]) % m   # rows i and (m - i) mod m
    weights = np.array([[du, dv[gather[1]]], [dv, du[::-1]]])
    weights[0, 1, 0] = 0.0

    eps = np.finfo(float).eps
    first = 2 * count + _LANCZOS_CHECK   # steps before the first check
    # fixed, so the output is reproducible, and not reflection-symmetric: on the
    # midpoint grid ones is orthogonal to every odd eigenvector at anchor a = 0.5
    start = np.cos(np.arange(m)) + 0.5
    basis = np.empty((min(m, first) + 1, m))   # step k writes row k + 1
    basis[0] = start / math.sqrt(start @ start)
    alpha, beta = np.zeros(m), np.zeros(m)
    k = 0   # Lanczos steps taken
    while True:
        if k + 1 == len(basis):   # full: double it
            basis = np.concatenate([basis, np.empty((min(m + 1, 2 * len(basis)) - len(basis), m))])
        q, w = basis[:k + 1], basis[k + 1]
        _min_max_matvec(gather, weights, basis[k], w)
        h = q @ w   # classical Gram-Schmidt twice
        w -= h @ q
        scale = math.sqrt(h @ h)   # the breakdown scale: |K q_k| less beta_k
        alpha[k] = h[k]
        h = q @ w
        w -= h @ q
        alpha[k] += h[k]
        beta[k] = math.sqrt(w @ w)
        k += 1
        if k == m or (k >= first and (k - first) % _LANCZOS_CHECK == 0):
            theta, s = np.linalg.eigh(np.diag(alpha[:k]) + np.diag(beta[:k - 1], -1), UPLO="L")
            r = beta[k - 1] * np.abs(s[-1])
            gaps = np.diff(theta)
            delta = np.full(k, np.inf)
            delta[1:] = gaps - r[:-1]
            delta[:-1] = np.minimum(delta[:-1], gaps - r[1:])
            bound = np.divide(r * r, delta, out=r, where=delta > r)
            if k == m or np.all(bound[-count:] <= eps * theta[-1]):
                return theta[-count:]
        if beta[k - 1] <= eps * scale:
            raise NumericError(f"Lanczos broke down after {k} of {m} steps")
        w /= beta[k - 1]


def nystrom_spectrum(spec: KernelSpec, grid: QuadratureGrid, count: int) -> EigenSequence:
    """The `count` largest eigenvalues of the discretized integral operator."""
    _check_count(count)
    if count > len(grid):
        raise ParameterError(f"count {count} exceeds grid size {len(grid)}")
    solver = nystrom_solver(spec, grid, count)
    if solver == "circulant-fft":
        vals = _circulant_eigenvalues(spec, grid)
    elif solver in ("dct", "dst"):
        vals = _trigonometric_eigenvalues(spec, grid, count)
    elif solver == "secular":
        vals = _secular_eigenvalues(grid, count)
    elif solver == "lanczos":
        vals = _lanczos_eigenvalues(spec, grid, count)
    else:
        try:
            vals = np.linalg.eigvalsh(weighted_kernel_matrix(spec, grid))
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise NumericError(f"eigendecomposition failed: {exc}") from exc
    vals = np.sort(vals)[::-1][:count]
    # a PSD kernel may produce O(eps)-negative eigenvalues at the bottom
    if vals[-1] < -1e-10 * max(vals[0], 0.0):
        raise NumericError("kernel matrix has significantly negative eigenvalues")
    return EigenSequence(np.maximum(vals, 0.0), source="numeric")


@dataclass(frozen=True)
class RefinedSpectrum:
    """Richardson-extrapolated eigenvalues plus a per-eigenvalue error
    estimate (the difference of the two finest grid levels)."""

    eigensequence: EigenSequence
    error_estimates: np.ndarray


def richardson_refine(spec: KernelSpec, count: int, sizes: Sequence[int]) -> RefinedSpectrum:
    """Extrapolate the midpoint-rule spectrum to grid size infinity.

    The midpoint eigenvalue error is O(m^-2), so with the two finest sizes
    m1 < m2 the leading term cancels in
    lambda* = lambda(m2) + (lambda(m2) - lambda(m1)) / ((m2/m1)^2 - 1).
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
    extrap = fine + (fine - coarse) / (ratio ** 2 - 1.0)
    err = np.abs(fine - coarse)
    order = np.argsort(extrap)[::-1]
    seq = EigenSequence(np.maximum(extrap[order], 0.0), source="numeric")
    return RefinedSpectrum(eigensequence=seq, error_estimates=err[order])
