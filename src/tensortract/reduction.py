"""Exact minimal-error computations on finite-dimensional RKHS models.

A DiscreteProblem models F = span{K(., p_i)} over m domain points through its
kernel Gram matrix: a coefficient vector c represents f = sum_i c_i K(., p_i),
so function values are (gram_F @ c), the F inner product is c' gram_F c~, and
the operator S maps coefficients to G coordinates with inner product gram_G.
On such models the minimal worst-case error of algorithms using n function
values is exactly computable: for fixed sample points it is the norm of the
target restricted to the F-orthogonal complement of the sampled kernel
sections, and the infimum over point sets is an exhaustive search.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import NumericError, ParameterError, ResourceLimitError
from .spectra import REL_TIE

_SPD_RTOL = 1e-12
_SUBSET_GUARD = 10 ** 6
_DOMINATION_TOL = 1e-12
# The converse of the e0 characterization needs the top eigenspace of SS*
# this far (relative) from the next eigenvalue: closer, rounding can turn the
# computed eigenspace past the 1e-6 achiever tolerance (Davis & Kahan, The
# rotation of eigenvectors by a perturbation III, SIAM J. Numer. Anal. 7, 1970).
_MIN_REL_GAP = 1e-6


@dataclass(frozen=True, eq=False)
class DiscreteProblem:
    """Finite-dimensional RKHS problem (gram_F, operator_S, gram_G)."""

    gram_F: np.ndarray
    operator_S: np.ndarray
    gram_G: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gram_F", np.asarray(self.gram_F, dtype=float))
        object.__setattr__(self, "operator_S",
                           np.atleast_2d(np.asarray(self.operator_S, dtype=float)))
        object.__setattr__(self, "gram_G", np.asarray(self.gram_G, dtype=float))
        m = self.gram_F.shape[0]
        k = self.gram_G.shape[0]
        if self.gram_F.shape != (m, m) or self.gram_G.shape != (k, k):
            raise ParameterError("gram matrices must be square")
        if self.operator_S.shape != (k, m):
            raise ParameterError(f"operator must be {k}x{m}, got {self.operator_S.shape}")
        for name in ("gram_F", "operator_S", "gram_G"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ParameterError(f"{name} has a non-finite entry")
        for name, mat in (("gram_F", self.gram_F), ("gram_G", self.gram_G)):
            if np.max(np.abs(mat - mat.T)) > 1e-12 * max(1.0, np.max(np.abs(mat))):
                raise ParameterError(f"{name} must be symmetric")
            ev = np.linalg.eigvalsh(mat)
            if ev[0] <= _SPD_RTOL * ev[-1]:
                raise ParameterError(f"{name} must be positive definite")

    @property
    def m(self) -> int:
        return self.gram_F.shape[0]

    @property
    def k(self) -> int:
        return self.gram_G.shape[0]

    def point_indices(self, points: Sequence) -> list[int]:
        """The sample points, checked to be distinct integer indices into 0..m-1."""
        idx = [int(p) for p in points if isinstance(p, (int, np.integer)) and 0 <= p < self.m]
        if len(idx) != len(points) or len(set(idx)) != len(idx):
            raise ParameterError(f"sample points must be distinct indices in [0, {self.m}), "
                                 f"got {points!r}")
        return idx


@dataclass
class Functional:
    """I_g f = <f, S*g>_F for a unit-norm g, held via its F-representer."""

    representer: np.ndarray


def _operator_quadratic_form(problem: DiscreteProblem) -> np.ndarray:
    S, M = problem.operator_S, problem.gram_G
    return S.T @ M @ S


def top_eigenpair(problem: DiscreteProblem) -> tuple[float, np.ndarray, int]:
    """(lambda_1, eta_1, multiplicity) of W = S*S via the generalized
    symmetric eigenproblem (S' gram_G S) c = lambda gram_F c."""
    lam, vecs = _eigenspace(problem)
    mult = int(np.count_nonzero(lam >= lam[-1] * (1.0 - REL_TIE)))
    return float(lam[-1]), vecs[:, -1].copy(), mult


def _generalized_eigh(A: np.ndarray, B: np.ndarray, vectors: bool = True):
    """Ascending eigenvalues of the symmetric pencil A v = lambda B v, B
    positive definite, and with ``vectors`` the B-orthonormal eigenvectors.

    Cholesky reduction, as LAPACK's sygv does it: with B = L L', the pencil
    has the spectrum of the symmetric C = L^-1 A L^-T, and an orthonormal
    eigenvector y of C gives v = L^-T y with v' B v = y' y.
    """
    try:
        L = np.linalg.cholesky(B)
        C = np.linalg.solve(L, np.linalg.solve(L, A).T)
        C = 0.5 * (C + C.T)
        if not vectors:
            return np.linalg.eigvalsh(C)
        lam, Y = np.linalg.eigh(C)
        return lam, np.linalg.solve(L.T, Y)
    except np.linalg.LinAlgError as exc:  # pragma: no cover
        raise NumericError(f"generalized eigensolver failed: {exc}") from exc


def _eigenspace(problem: DiscreteProblem) -> tuple[np.ndarray, np.ndarray]:
    lam, vecs = _generalized_eigh(_operator_quadratic_form(problem), problem.gram_F)
    if not lam[-1] > 0.0:
        raise ParameterError("operator is zero: W has no positive eigenvalue")
    return lam, vecs


def build_Ig(problem: DiscreteProblem, g: np.ndarray) -> Functional:
    """The linear functional I_g f = <f, S*g>_F = <Sf, g>_G for unit g.

    g within 1e-6 of unit G-norm is renormalized; anything farther is
    rejected.  The representer solves gram_F r = S' gram_G g.
    """
    g = np.asarray(g, dtype=float).reshape(-1)
    if g.shape != (problem.k,):
        raise ParameterError(f"g must have {problem.k} coordinates")
    nrm = math.sqrt(float(g @ problem.gram_G @ g))
    if abs(nrm - 1.0) > 1e-6:
        raise ParameterError(f"g must have unit G-norm, got {nrm!r}")
    g = g / nrm
    r = np.linalg.solve(problem.gram_F, problem.operator_S.T @ (problem.gram_G @ g))
    return Functional(representer=r)


def fixed_info_radius(problem: DiscreteProblem, target, points: Sequence = ()) -> float:
    """Worst-case error of the optimal algorithm for fixed sample points:
    sup{ ||target f|| : ||f||_F <= 1, f(p) = 0 for all sampled p }.

    ``points`` are indices into 0..m-1; ``target`` is the string 'operator'
    (meaning S itself) or a Functional.
    """
    idx = problem.point_indices(points)
    if not (isinstance(target, Functional) or (isinstance(target, str) and target == "operator")):
        raise ParameterError("target must be 'operator' or a Functional")
    if len(idx) == problem.m:
        return 0.0  # only f = 0 vanishes at every domain point
    # The F-orthogonal projector onto the annihilator of the sampled kernel
    # sections is Pi = I - E_P gram_F[P,P]^-1 gram_F[P,:], because in
    # coefficients the section at p_i is the unit vector e_i.  Its columns in
    # P vanish, so the columns N = Pi[:, Q] outside P are a basis of the
    # annihilator, and Pi c = N c_Q.
    G = problem.gram_F
    rest = [i for i in range(problem.m) if i not in idx]
    N = np.eye(problem.m)[:, rest]
    if idx:
        try:
            L = np.linalg.cholesky(G[np.ix_(idx, idx)])
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"sampled kernel sections are not independent: {exc}") from exc
        N[idx, :] = -np.linalg.solve(L.T, np.linalg.solve(L, G[np.ix_(idx, rest)]))
    if isinstance(target, Functional):
        v = N @ target.representer[rest]
        return math.sqrt(max(float(v @ G @ v), 0.0))
    # sup of c' Pi' A Pi c / c' G c: for fixed c_Q the denominator is least at
    # c = N c_Q, so the top eigenvalue of (N' A N, N' G N) is the same number
    top = _generalized_eigh(N.T @ _operator_quadratic_form(problem) @ N, N.T @ G @ N,
                            vectors=False)[-1]
    return math.sqrt(max(float(top), 0.0))


def _fully_exchangeable(problem: DiscreteProblem, target) -> bool:
    """True when every permutation of the domain points leaves the radius
    unchanged, so all n-subsets of sample points are equivalent.  The radius
    reads only gram_F and the target (S' gram_G S for the operator, the
    representer for a functional); every permutation fixes a matrix with one
    diagonal and one off-diagonal value."""
    off = ~np.eye(problem.m, dtype=bool)

    def fixed(A):
        return bool(np.all(np.diagonal(A) == A[0, 0]) and np.all(A[off] == A[-1, 0]))

    if not fixed(problem.gram_F):
        return False
    if isinstance(target, Functional):
        r = target.representer
        return bool(np.all(r == r[0]))
    return target == "operator" and fixed(_operator_quadratic_form(problem))


def minimal_error_std(problem: DiscreteProblem, target, n: int) -> tuple[float, tuple]:
    """Exact n-th minimal error for standard information: the smallest
    fixed_info_radius over all n-subsets of the domain points, with one
    minimizing subset as a tuple of indices.

    On fully exchangeable problems every subset is equivalent, so a single
    representative is evaluated; otherwise the search is exhaustive and
    guarded at C(m, n) <= 1e6 subsets.
    """
    if n < 0:
        raise ParameterError("n must be >= 0")
    m = problem.m
    if n > m:
        n = m  # extra evaluations beyond dim(F) cannot help
    if n == 0:
        return fixed_info_radius(problem, target, ()), ()
    if _fully_exchangeable(problem, target):
        subset = tuple(range(n))
        return fixed_info_radius(problem, target, subset), subset
    if math.comb(m, n) > _SUBSET_GUARD:
        raise ResourceLimitError(f"C({m},{n}) subsets exceed the search guard")
    best, best_subset = math.inf, ()
    for subset in itertools.combinations(range(m), n):
        r = fixed_info_radius(problem, target, subset)
        if r < best:
            best, best_subset = r, subset
    return best, best_subset


# ---------------------------------------------------------------------------
# Verification drivers
# ---------------------------------------------------------------------------

@dataclass
class DominationReport:
    """Outcome of checking e_n(I_g) <= e_n(S) exactly, plus the pointwise
    algorithm-transfer inequality |I_g f - B_n f| <= ||Sf - A_n f||_G on
    random trials."""

    e_n_functional: float
    e_n_operator: float
    max_pointwise_excess: float
    trials: int
    counterexample: dict | None
    passed: bool


def verify_domination(problem: DiscreteProblem, g: np.ndarray, n: int,
                      trials: int, seed: int = 0) -> DominationReport:
    """Check that the functional I_g is never harder than S at level n.

    (a) minimal_error_std(I_g, n) <= minimal_error_std(S, n) + 1e-12, both by
    exhaustive search; (b) for random linear algorithms A_n f = sum f(t_j) S f_j
    and random unit-ball f, the transferred algorithm
    B_n f = sum f(t_j) <f_j, S*g>_F satisfies
    |I_g f - B_n f| <= ||Sf - A_n f||_G + 1e-12.
    """
    n = min(n, problem.m)  # at most m distinct sample points, as in minimal_error_std
    func = build_Ig(problem, g)
    e_func, _ = minimal_error_std(problem, func, n)
    e_op, _ = minimal_error_std(problem, "operator", n)
    counterexample = None
    if e_func > e_op + _DOMINATION_TOL:
        counterexample = {"kind": "exact", "e_n_functional": e_func, "e_n_operator": e_op}

    rng = np.random.default_rng(seed)
    G, A = problem.gram_F, _operator_quadratic_form(problem)
    Gr = G @ func.representer
    max_excess = -math.inf
    for _ in range(trials):
        idx = rng.choice(problem.m, size=n, replace=False) if n else np.array([], dtype=int)
        fjs = rng.standard_normal((n, problem.m))
        f = rng.standard_normal(problem.m)
        f /= math.sqrt(float(f @ G @ f))
        values = (G @ f)[idx]
        resid = f - values @ fjs if n else f
        lhs = abs(float(resid @ Gr))
        rhs = math.sqrt(max(float(resid @ A @ resid), 0.0))
        max_excess = max(max_excess, lhs - rhs)
        if lhs > rhs + _DOMINATION_TOL and counterexample is None:
            counterexample = {"kind": "pointwise", "lhs": lhs, "rhs": rhs,
                              "points": idx.tolist()}
    return DominationReport(e_n_functional=e_func, e_n_operator=e_op,
                            max_pointwise_excess=max_excess, trials=trials,
                            counterexample=counterexample,
                            passed=counterexample is None)


def _g_norms(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Norms of the columns of X under the inner product with Gram M."""
    return np.sqrt(np.maximum((X * (M @ X)).sum(axis=0), 0.0))


def _dominant_projection(P: np.ndarray, M: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The limit of power iteration on P, normalized in the G norm (Gram M),
    from every column of g: the G-orthogonal projection of the column onto
    the top eigenspace of P, scaled to unit G norm (Golub & Van Loan, Matrix
    Computations, 4th ed., sec. 8.2).  A column with no component there
    turns to NaN.

    P is self-adjoint in the G inner product, so the pencil (M P, M) has
    its spectrum with M-orthonormal eigenvectors.  Raises NumericError when
    the next eigenvalue lies within _MIN_REL_GAP of the top one.
    """
    mu, U = _generalized_eigh(M @ P, M)
    top = mu >= mu[-1] * (1.0 - REL_TIE)
    if np.any(mu[~top] > mu[-1] * (1.0 - _MIN_REL_GAP)):
        raise NumericError("top eigenvalues of SS* nearly tied: their relative gap is "
                           f"below {_MIN_REL_GAP:g}, too small to resolve the top eigenspace")
    proj = U[:, top] @ (U[:, top].T @ (M @ g))
    with np.errstate(divide="ignore", invalid="ignore"):
        return proj / _g_norms(proj, M)


@dataclass
class CharacterizationReport:
    """Outcome of verifying that unit g attains e0(I_g) = e0(S) exactly on
    {lambda_1^(-1/2) S eta : eta unit, in the top eigenspace}.
    forward_max_defect: the largest of | ||g||_G - 1 | and | ||S*g||_F / sqrt(lambda_1) - 1 |
    over that whole set.  achievers: the random starts whose limit attains sqrt(lambda_1)
    to a relative 1e-8; max_achiever_distance: their largest G-distance from the set.
    strict_gap_margin: sqrt(0.64 lambda_1 + 0.36 lambda_next) + 1e-9 sqrt(lambda_1) less
    a bound on ||S*g||_F over every g = 0.8 v + 0.6 h, v unit in the set's span and h
    unit and G-orthogonal to it; inf when the span fills G."""

    lambda1: float
    multiplicity: int
    forward_max_defect: float
    achievers: int
    max_achiever_distance: float
    strict_gap_margin: float
    passed: bool


def verify_e0_characterization(problem: DiscreteProblem, samples: int,
                               seed: int = 0) -> CharacterizationReport:
    """Check the characterization with M = gram_G, P = SS* in G coordinates
    and V = S eta_i / sqrt(lambda_1), a G-orthonormal basis of the set's span.
    Forward: the extreme eigenvalues of V'MV and V'MPV against 1 and lambda_1,
    to 1e-10 (relative for V'MPV).
    Converse: ``samples`` random unit g, each taken straight to its
    power-iteration limit on SS* (`_dominant_projection`, from an eigensolve
    of SS* in G coordinates, apart from the F-side eigensolve that defines the
    set); every one attaining sqrt(lambda_1) must lie within 1e-6 of the set.
    Strict gap: with Q a G-orthonormal basis of V's complement, a and b the
    largest eigenvalues of V'MPV and Q'MPQ and c = ||V'MPQ||_2, the bound
    ||S*g||^2 <= 0.64 a + 0.36 b + 0.96 c must not exceed 0.64 lambda_1 + 0.36 lambda_next.
    """
    if samples < 1:
        raise ParameterError("need at least one search sample")
    lam_all, vecs = _eigenspace(problem)
    lam1 = float(lam_all[-1])
    # F-orthonormal basis of the eigenspace of the largest eigenvalue
    basis = vecs[:, lam_all >= lam1 * (1.0 - REL_TIE)]
    mult = basis.shape[1]
    # tolerances on norms of S*g are relative to sqrt(lambda_1): S's scale sets no verdict
    root = math.sqrt(lam1)
    S, M = problem.operator_S, problem.gram_G
    V = (S @ basis) / root
    # SS* in G coordinates: S* g has F coordinates gram_F^-1 S' M g
    P = S @ np.linalg.solve(problem.gram_F, S.T @ M)
    MP = M @ P
    top = np.linalg.eigvalsh(V.T @ MP @ V)
    # the extremes of ||g||_G and ||S*g||_F over the set
    norms, s_star = np.sqrt(np.linalg.eigvalsh(V.T @ M @ V)), np.sqrt(top)
    forward_defect = float(np.max(np.abs(np.concatenate([norms - 1.0, s_star / root - 1.0]))))

    # converse: random starts, one per column, taken to the power-iteration limit
    rng = np.random.default_rng(seed)
    g = _dominant_projection(P, M, rng.standard_normal((samples, problem.k)).T)

    # ||S*g||_F^2 = g' M P g; NaN columns compare False and drop out
    s_star_norms = np.sqrt(np.maximum((g * (M @ (P @ g))).sum(axis=0), 0.0))
    found = g[:, s_star_norms >= root * (1.0 - 1e-8)]
    achievers = found.shape[1]
    max_dist = 0.0
    if achievers:
        proj = V @ (V.T @ (M @ found))
        pn = _g_norms(proj, M)
        if np.any(pn == 0.0):
            max_dist = math.inf
        else:
            max_dist = float(np.max(_g_norms(found - proj / pn, M)))

    # strict inequality for g with a component outside S(top eigenspace)
    strict_margin = math.inf
    if mult < problem.k:
        # columns Euclidean-orthogonal to MV are G-orthogonal to V
        N = np.linalg.qr(M @ V, mode="complete")[0][:, mult:]
        Q = N @ np.linalg.inv(np.linalg.cholesky(N.T @ M @ N)).T
        cross = np.linalg.norm(V.T @ MP @ Q, 2)
        sup = 0.64 * top[-1] + 0.36 * np.linalg.eigvalsh(Q.T @ MP @ Q)[-1] + 0.96 * cross
        lam_next = lam_all[-(mult + 1)] if mult < len(lam_all) else 0.0
        bound = lam1 * (1.0 - (1.0 - lam_next / lam1) * 0.36)
        strict_margin = math.sqrt(bound) + 1e-9 * root - math.sqrt(max(float(sup), 0.0))

    passed = (forward_defect <= 1e-10 and achievers > 0 and max_dist <= 1e-6
              and strict_margin >= 0.0)
    return CharacterizationReport(lambda1=lam1, multiplicity=mult,
                                  forward_max_defect=forward_defect,
                                  achievers=achievers,
                                  max_achiever_distance=max_dist,
                                  strict_gap_margin=strict_margin,
                                  passed=passed)


# ---------------------------------------------------------------------------
# Instances
# ---------------------------------------------------------------------------

def piecewise_constant_instance(d: int) -> DiscreteProblem:
    """Identity operator on piecewise-constant functions over the 2^d
    sub-cubes of the unit cube, under the L2 norm.

    Domain point i is a representative of sub-cube i; the kernel Gram is
    2^d I so that function values reproduce, and S is the identity, making
    every eigenvalue of W equal to one.
    """
    if d < 1:
        raise ParameterError("d must be >= 1")
    if d > 12:
        raise ResourceLimitError("2^d domain points with d > 12 exceed the model guard")
    m = 2 ** d
    gram = (2.0 ** d) * np.eye(m)
    return DiscreteProblem(gram_F=gram, operator_S=np.eye(m), gram_G=gram.copy())


def cube_mean_functional(problem: DiscreteProblem) -> Functional:
    """I_g for g identically one: the mean of f over the unit cube."""
    m = problem.m
    return build_Ig(problem, np.full(m, 1.0 / m))


def random_problem(seed: int, m: int, k: int) -> DiscreteProblem:
    """Well-conditioned reproducible instance: gram matrices A'A + 0.1 I from
    seeded standard-normal A, and a standard-normal operator."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    B = rng.standard_normal((k, k))
    return DiscreteProblem(gram_F=A.T @ A + 0.1 * np.eye(m),
                           operator_S=rng.standard_normal((k, m)),
                           gram_G=B.T @ B + 0.1 * np.eye(k))


def random_problem_with_multiplicity(seed: int, m: int, multiplicity: int,
                                     gap: float = 0.5) -> DiscreteProblem:
    """Instance with a prescribed top-eigenvalue multiplicity.

    Synthesized spectrally: W gets eigenvalues [1]*multiplicity followed by a
    geometric tail below 1 - gap, realized through S = Lambda^(1/2) Q' L' with
    Euclidean gram_G.
    """
    if not 1 <= multiplicity <= m:
        raise ParameterError("need 1 <= multiplicity <= m")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, m))
    G = A.T @ A + 0.1 * np.eye(m)
    L = np.linalg.cholesky(G)
    Q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    tail = (1.0 - gap) * 0.7 ** np.arange(m - multiplicity)
    lam = np.concatenate([np.ones(multiplicity), tail])
    S = np.sqrt(lam)[:, None] * (Q.T @ L.T)
    return DiscreteProblem(gram_F=G, operator_S=S, gram_G=np.eye(m))


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

def load_problem(path) -> DiscreteProblem:
    """Read a problem file: plain text, first line 'm k', then gram_F (m x m),
    operator_S (k x m) and gram_G (k x k), row-major, whitespace-separated."""
    try:
        with open(path, encoding="utf-8") as fh:
            tokens = fh.read().split()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"problem file {path} is not UTF-8 text: {exc}") from None
    if len(tokens) < 2:
        raise ParameterError("problem file too short")
    try:
        m, k = int(tokens[0]), int(tokens[1])
        vals = np.array([float(t) for t in tokens[2:]])
    except ValueError as exc:
        raise ParameterError(f"malformed problem file: {exc}") from None
    if m < 1 or k < 1:
        raise ParameterError(f"problem file sizes must be positive, got m={m}, k={k}")
    need = 2 + m * m + k * m + k * k
    if len(tokens) != need:
        raise ParameterError(f"problem file has {len(tokens)} tokens, expected {need}")
    gram_F = vals[:m * m].reshape(m, m)
    S = vals[m * m:m * m + k * m].reshape(k, m)
    gram_G = vals[m * m + k * m:].reshape(k, k)
    return DiscreteProblem(gram_F=gram_F, operator_S=S, gram_G=gram_G)
