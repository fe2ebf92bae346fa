"""Quadrature discretization of the kernel integral operator.

This is the independent numerical oracle for every analytic eigenvalue rule:
the eigenvalues of the symmetrically weighted kernel matrix
M_ij = sqrt(w_i w_j) K(x_i, x_j) converge to the spectrum of the integral
operator with kernel K, which coincides with the nonzero spectrum of W = S*S
for L2 approximation.  The composite midpoint rule keeps weights positive,
avoids endpoint evaluation, and converges at O(m^-2), which Richardson
extrapolation then sharpens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import NumericError, ParameterError
from .spectra import EigenSequence, KernelSpec, gram_matrix


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes in [0, 1] with positive weights summing to one."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        if nodes.ndim != 1 or nodes.shape != weights.shape or nodes.size == 0:
            raise ParameterError("nodes and weights must be matching nonempty vectors")
        if np.any(np.diff(nodes) <= 0.0):
            raise ParameterError("nodes must be strictly increasing")
        if np.any(weights <= 0.0):
            raise ParameterError("weights must be positive")
        if abs(math.fsum(weights) - 1.0) > 1e-14:
            raise ParameterError("weights must sum to 1")

    def __len__(self) -> int:
        return self.nodes.size


def midpoint_grid(m: int) -> QuadratureGrid:
    """Composite midpoint rule with m cells on [0, 1]."""
    if m < 1:
        raise ParameterError("grid size must be >= 1")
    return QuadratureGrid((np.arange(m) + 0.5) / m, np.full(m, 1.0 / m))


def weighted_kernel_matrix(spec: KernelSpec, grid: QuadratureGrid) -> np.ndarray:
    M = np.sqrt(grid.weights)[:, None] * gram_matrix(spec, grid.nodes) * np.sqrt(grid.weights)[None, :]
    asym = np.max(np.abs(M - M.T))
    if asym > 1e-15 * max(1.0, np.max(np.abs(M))):
        raise NumericError(f"weighted kernel matrix asymmetric by {asym:g}")
    return M


def nystrom_spectrum(spec: KernelSpec, grid: QuadratureGrid, count: int) -> EigenSequence:
    """The `count` largest eigenvalues of the discretized integral operator."""
    if count < 1:
        raise ParameterError("count must be >= 1")
    if count > len(grid):
        raise ParameterError(f"count {count} exceeds grid size {len(grid)}")
    M = weighted_kernel_matrix(spec, grid)
    try:
        vals = scipy.linalg.eigvalsh(M)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    vals = vals[::-1][:count].copy()
    # a PSD kernel may produce O(eps)-negative eigenvalues at the bottom
    floor = -1e-10 * max(vals[0], 0.0)
    if np.any(vals < floor):
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
    """
    sizes = [int(s) for s in sizes]
    if len(sizes) < 2 or any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ParameterError("need at least two strictly increasing grid sizes")
    if count > sizes[0]:
        raise ParameterError("count exceeds the coarsest grid size")
    coarse, fine = (nystrom_spectrum(spec, midpoint_grid(m), count).values for m in sizes[-2:])
    ratio = sizes[-1] / sizes[-2]
    extrap = fine + (fine - coarse) / (ratio ** 2 - 1.0)
    err = np.abs(fine - coarse)
    order = np.argsort(extrap)[::-1]
    seq = EigenSequence(np.maximum(extrap[order], 0.0), source="numeric")
    return RefinedSpectrum(eigensequence=seq, error_estimates=err[order])
