import itertools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from tensortract import (DiscreteProblem, Functional, NumericError,
                         ParameterError, ResourceLimitError,
                         build_Ig, piecewise_constant_instance, cube_mean_functional,
                         fixed_info_radius, load_problem, minimal_error_std,
                         random_problem, random_problem_with_multiplicity,
                         top_eigenpair, verify_domination, verify_e0_characterization)
from tensortract import reduction
from tensortract.reduction import _generalized_eigh
from tensortract.spectra import REL_TIE

# step rule of the per-sample power-iteration oracle
_POWER_STEP_TOL = 1e-13
_POWER_MAX_ITERS = 50_000


def e0_functional(problem, functional):
    """Initial error of I_g: the F-norm of its representer S*g."""
    r = functional.representer
    return math.sqrt(max(float(r @ problem.gram_F @ r), 0.0))


def subcube_indicator_functional(problem, corner_index=0):
    """I_g for the scaled indicator of one sub-cube: I_g f = 2^(-d/2) f(corner)."""
    g = np.zeros(problem.m)
    g[corner_index] = 1.0 / math.sqrt(problem.m)
    return build_Ig(problem, g)


def test_scalar_problem_top_eigenvalue():
    p = DiscreteProblem(gram_F=[[1.0]], operator_S=[[0.5]], gram_G=[[1.0]])
    lam1, eta1, mult = top_eigenpair(p)
    assert lam1 == pytest.approx(0.25, abs=1e-15)
    assert mult == 1
    assert abs(eta1[0]) == pytest.approx(1.0, abs=1e-12)


def test_piecewise_model_spectrum():
    for d in (1, 2, 3):
        p = piecewise_constant_instance(d)
        lam1, eta1, mult = top_eigenpair(p)
        assert lam1 == pytest.approx(1.0, abs=1e-12)
        assert mult == 2 ** d
        assert float(eta1 @ p.gram_F @ eta1) == pytest.approx(1.0, abs=1e-12)


def test_piecewise_model_guard():
    with pytest.raises(ResourceLimitError):
        piecewise_constant_instance(13)


def test_top_eigenpair_matches_dense_oracle():
    p = random_problem(seed=11, m=5, k=4)
    lam1, eta1, _ = top_eigenpair(p)
    # independent route: standard eigendecomposition of G^-1 S' M S
    W = np.linalg.solve(p.gram_F, p.operator_S.T @ p.gram_G @ p.operator_S)
    oracle = np.max(np.real(np.linalg.eigvals(W)))
    assert lam1 == pytest.approx(oracle, abs=1e-10)
    assert float(eta1 @ p.gram_F @ eta1) == pytest.approx(1.0, abs=1e-12)


def test_build_Ig_matching_g_attains_initial_error():
    for seed in (0, 1, 2):
        p = random_problem(seed=seed, m=5, k=3)
        lam1, eta1, _ = top_eigenpair(p)
        g = (p.operator_S @ eta1) / math.sqrt(lam1)
        func = build_Ig(p, g)
        assert e0_functional(p, func) == pytest.approx(math.sqrt(lam1), abs=1e-10)


def test_build_Ig_identity_of_pairings():
    p = random_problem(seed=4, m=6, k=3)
    rng = np.random.default_rng(0)
    g = rng.standard_normal(3)
    g /= math.sqrt(float(g @ p.gram_G @ g))
    func = build_Ig(p, g)
    for _ in range(5):
        f = rng.standard_normal(6)
        via_F = float(f @ p.gram_F @ func.representer)
        via_G = float((p.operator_S @ f) @ p.gram_G @ g)
        assert via_F == pytest.approx(via_G, abs=1e-10)


def test_build_Ig_norm_policy():
    p = random_problem(seed=4, m=4, k=2)
    g = np.array([1.0, 0.0])
    nrm = math.sqrt(float(g @ p.gram_G @ g))
    build_Ig(p, g / nrm * (1.0 + 5e-7))   # renormalized silently
    with pytest.raises(ParameterError):
        build_Ig(p, g)                     # far from unit norm


def test_build_Ig_annihilated_g():
    # k exceeds rank(S): any unit g with S' M g = 0 has zero representer
    p = DiscreteProblem(gram_F=np.eye(2), operator_S=[[1.0, 0.0], [0.0, 0.0]],
                        gram_G=np.eye(2))
    func = build_Ig(p, [0.0, 1.0])
    assert e0_functional(p, func) == 0.0
    assert np.allclose(func.representer, 0.0)


def test_subcube_indicator_functional_is_point_evaluation():
    d = 2
    p = piecewise_constant_instance(d)
    func = subcube_indicator_functional(p, corner_index=0)
    rng = np.random.default_rng(7)
    for _ in range(5):
        coeffs = rng.standard_normal(4)
        value = float(coeffs @ p.gram_F @ func.representer)
        f_at_corner = float((p.gram_F @ coeffs)[0])
        assert value == pytest.approx(2.0 ** (-d / 2) * f_at_corner, abs=1e-12)
    # one sample at the corner solves it exactly
    err, _ = minimal_error_std(p, func, 1)
    assert err == pytest.approx(0.0, abs=1e-12)


def test_fixed_info_radius_basics():
    p = DiscreteProblem(gram_F=[[2.0]], operator_S=[[1.0]], gram_G=[[1.0]])
    assert fixed_info_radius(p, "operator", (0,)) == 0.0

    p2 = piecewise_constant_instance(2)
    lam1, _, _ = top_eigenpair(p2)
    assert fixed_info_radius(p2, "operator", ()) == pytest.approx(math.sqrt(lam1), abs=1e-10)
    for subset in [(0,), (0, 1, 2)]:
        assert fixed_info_radius(p2, "operator", subset) == pytest.approx(1.0, abs=1e-12)
    func = cube_mean_functional(p2)
    for n in (1, 2, 3):
        assert fixed_info_radius(p2, func, tuple(range(n))) == pytest.approx(
            math.sqrt(1.0 - n / 4.0), abs=1e-12)


def test_fixed_info_radius_monotone_under_more_points():
    p = random_problem(seed=9, m=6, k=3)
    rng = np.random.default_rng(2)
    func = build_Ig(p, _unit_g(p, rng))
    for target in ("operator", func):
        order = rng.permutation(6)
        radii = [fixed_info_radius(p, target, tuple(order[:n])) for n in range(7)]
        assert all(a >= b - 1e-10 for a, b in zip(radii, radii[1:]))


def _null_space_radius(problem, target, points):
    """Independent route to the radius: an orthonormal basis Z of the null
    space of gram_F[P,:] (the coefficients of the functions vanishing at P)."""
    G = problem.gram_F
    idx = problem.point_indices(points)
    Z = scipy.linalg.null_space(G[idx, :]) if idx else np.eye(problem.m)
    if Z.shape[1] == 0:
        return 0.0
    GZ = Z.T @ G @ Z
    if isinstance(target, Functional):
        b = Z.T @ G @ target.representer
        return math.sqrt(float(b @ np.linalg.solve(GZ, b)))
    A = problem.operator_S.T @ problem.gram_G @ problem.operator_S
    return math.sqrt(max(float(scipy.linalg.eigvalsh(Z.T @ A @ Z, GZ)[-1]), 0.0))


def test_fixed_info_radius_matches_null_space_oracle():
    rng = np.random.default_rng(2024)
    cases = 0
    for seed in range(60):
        m = int(rng.integers(1, 10))
        k = int(rng.integers(1, 5))
        p = random_problem(seed=seed, m=m, k=k)
        func = build_Ig(p, _unit_g(p, rng))
        for n in sorted({0, m, int(rng.integers(0, m + 1)), int(rng.integers(0, m + 1))}):
            subset = tuple(rng.choice(m, size=n, replace=False).tolist())
            for target in ("operator", func):
                fast = fixed_info_radius(p, target, subset)
                slow = _null_space_radius(p, target, subset)
                assert fast == pytest.approx(slow, rel=1e-12, abs=0.0), (seed, subset, target)
                cases += 1
    assert cases >= 200


def test_fixed_info_radius_rejects_unknown_target():
    p = random_problem(seed=1, m=3, k=2)
    with pytest.raises(ParameterError):
        fixed_info_radius(p, "functional", ())


def test_fixed_info_radius_rejects_duplicates():
    p = piecewise_constant_instance(1)
    with pytest.raises(ParameterError):
        fixed_info_radius(p, "operator", (0, 0))


@pytest.mark.parametrize("points", [(0.0,), (1.5,), (-1,), (3,), (4,), (1, 2, 1), ("0",),
                                    (None,)])
def test_point_indices_refuses_anything_but_distinct_indices(points):
    p = random_problem(seed=1, m=3, k=2)
    with pytest.raises(ParameterError, match="distinct indices"):
        p.point_indices(points)
    with pytest.raises(ParameterError):
        fixed_info_radius(p, "operator", points)


def _unit_g(problem, rng):
    g = rng.standard_normal(problem.k)
    return g / math.sqrt(float(g @ problem.gram_G @ g))


def test_minimal_error_std_piecewise_closed_form():
    p = piecewise_constant_instance(2)
    func = cube_mean_functional(p)
    err, pts = minimal_error_std(p, func, 1)
    assert err == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert pts == (0,)   # exchangeable: the first indices represent every subset
    assert minimal_error_std(p, "operator", 3)[0] == pytest.approx(1.0, abs=1e-12)
    assert minimal_error_std(p, "operator", 4)[0] == pytest.approx(0.0, abs=1e-12)
    assert minimal_error_std(p, func, 4)[0] == pytest.approx(0.0, abs=1e-12)


def test_minimal_error_exhaustive_matches_symmetric_shortcut():
    # the generic search on a small asymmetric problem agrees with direct
    # enumeration over all subsets
    p = random_problem(seed=21, m=5, k=3)
    rng = np.random.default_rng(3)
    func = build_Ig(p, _unit_g(p, rng))
    for n in (1, 2):
        err, subset = minimal_error_std(p, func, n)
        brute = min(fixed_info_radius(p, func, s)
                    for s in itertools.combinations(range(p.m), n))
        assert err == pytest.approx(brute, abs=1e-14)
        assert subset in itertools.combinations(range(p.m), n)
        assert fixed_info_radius(p, func, subset) == err
    # the exchangeable shortcut evaluates one subset; it agrees with the
    # enumeration too, also where k != m, gram_G != gram_F and S is not s I
    cube = piecewise_constant_instance(3)
    m, J = 5, np.ones((5, 5))
    coupled = DiscreteProblem(gram_F=np.eye(m) + 0.5 * J, operator_S=2.0 * np.eye(m) + J,
                              gram_G=np.eye(m))
    for p, target in [(cube, "operator"), (cube, cube_mean_functional(cube)),
                      (coupled, "operator")]:
        for n in range(1, p.m + 1):
            assert reduction._fully_exchangeable(p, target)
            brute = min(fixed_info_radius(p, target, s)
                        for s in itertools.combinations(range(p.m), n))
            assert minimal_error_std(p, target, n)[0] == pytest.approx(brute, abs=1e-14)
    # the same gram_F with a target that tells the points apart: no shortcut
    graded = DiscreteProblem(gram_F=coupled.gram_F, operator_S=np.diag(np.arange(1.0, m + 1)),
                             gram_G=np.eye(m))
    assert not reduction._fully_exchangeable(graded, "operator")
    assert not reduction._fully_exchangeable(graded, build_Ig(graded, np.eye(m)[0]))
    # and a target that cannot tell the points apart on a gram_F that can
    tilted = np.eye(m)
    tilted[0, 1] = tilted[1, 0] = 0.3
    for gram_F in (np.diag(np.arange(1.0, m + 1)), tilted):
        p = DiscreteProblem(gram_F=gram_F, operator_S=np.eye(m), gram_G=np.eye(m))
        assert not reduction._fully_exchangeable(p, "operator")


def test_minimal_error_std_and_verify_domination_clamp_n_beyond_m():
    # n samples of m = 2 distinct points are 2 samples: every function vanishing
    # at both is zero, so both minimal errors are exactly 0
    p = random_problem(seed=3, m=2, k=2)
    g = _unit_g(p, np.random.default_rng(0))
    for n in (3, 4, 10):
        assert minimal_error_std(p, "operator", n) == (0.0, (0, 1))
        assert minimal_error_std(p, build_Ig(p, g), n) == (0.0, (0, 1))
        report = verify_domination(p, g, n=n, trials=2, seed=0)
        assert report.passed, report.counterexample
        assert report.e_n_functional == report.e_n_operator == 0.0


def test_minimal_error_guard():
    p = random_problem(seed=0, m=30, k=2)
    with pytest.raises(ResourceLimitError):
        minimal_error_std(p, "operator", 15)


def test_verify_domination_piecewise_model():
    p = piecewise_constant_instance(2)
    report = verify_domination(p, np.full(4, 0.25), n=1, trials=5, seed=0)
    assert report.passed
    assert report.e_n_functional == pytest.approx(math.sqrt(3.0) / 2.0, abs=1e-12)
    assert report.e_n_operator == pytest.approx(1.0, abs=1e-12)


def test_verify_domination_randomized():
    rng = np.random.default_rng(77)
    for i in range(20):
        m = int(rng.integers(2, 7))
        k = int(rng.integers(1, 5))
        p = random_problem(seed=500 + i, m=m, k=k)
        report = verify_domination(p, _unit_g(p, rng), n=int(rng.integers(0, 3)),
                                   trials=3, seed=i)
        assert report.passed, report.counterexample


def test_verify_e0_characterization_multiplicities():
    for seed, mult in [(3, 1), (4, 2), (5, 4)]:
        p = random_problem_with_multiplicity(seed=seed, m=6, multiplicity=mult)
        report = verify_e0_characterization(p, samples=25, seed=seed)
        assert report.multiplicity == mult
        assert report.passed, report
        assert report.achievers > 0
        assert report.max_achiever_distance <= 1e-6
        assert report.strict_gap_margin >= 0.0


def test_verify_e0_characterization_near_tie_raises():
    # lambda_2 / lambda_1 = 1 - 1e-7 is no tie, but too close to resolve the
    # top eigenspace: the check must fail loudly instead of giving a verdict
    p = random_problem_with_multiplicity(seed=1, m=4, multiplicity=1, gap=1e-7)
    with pytest.raises(NumericError, match="nearly tied"):
        verify_e0_characterization(p, samples=1, seed=0)


@pytest.mark.parametrize("gap", [1e-3, 1e-5])
def test_verify_e0_characterization_resolves_small_gaps(gap):
    # power iteration from one start needs some 24 000 steps at gap 1e-3 and
    # does not settle in 50 000 at 1e-5; one eigensolve resolves both
    p = random_problem_with_multiplicity(seed=1, m=4, multiplicity=1, gap=gap)
    report = verify_e0_characterization(p, samples=5, seed=0)
    assert report.multiplicity == 1 and report.passed, report
    assert report.achievers == 5


def _per_sample_power_iteration(P, M, g):
    """Oracle for the closed-form limit: power iteration, one loop per start column."""
    g = g / np.sqrt(np.sum(g * (M @ g), axis=0))
    for j in range(g.shape[1]):
        x = g[:, j]
        for _ in range(_POWER_MAX_ITERS):
            h = P @ x
            nrm = math.sqrt(max(float(h @ M @ h), 0.0))
            if nrm == 0.0:
                h = np.full_like(x, np.nan)  # annihilated: never an achiever
                break
            h /= nrm
            step, x = h - x, h
            if float(step @ M @ step) < _POWER_STEP_TOL ** 2:
                break
        else:
            raise NumericError("power iteration did not settle")
        g[:, j] = h
    return g


def _characterization_cases():
    # criterion 9's instances, then random problems as verify-reduction draws them
    rng = np.random.default_rng(947)
    for i, mult in enumerate([1] * 7 + [2] * 7 + [4] * 6):
        m = int(rng.integers(max(mult, 4), 9))
        yield random_problem_with_multiplicity(seed=3000 + i, m=m, multiplicity=mult), 30, 4000 + i
    rng = np.random.default_rng(11)
    for i in range(300):
        m, k = int(rng.integers(2, 9)), int(rng.integers(1, 6))
        yield random_problem(seed=700 + i, m=m, k=k), 5, i


def test_closed_form_limit_matches_per_sample_oracle(monkeypatch):
    cases = list(_characterization_cases())
    closed = [verify_e0_characterization(p, samples=s, seed=seed) for p, s, seed in cases]
    monkeypatch.setattr(reduction, "_dominant_projection", _per_sample_power_iteration)
    for (p, s, seed), got in zip(cases, closed):
        want = verify_e0_characterization(p, samples=s, seed=seed)
        assert (got.passed, got.achievers, got.multiplicity, got.forward_max_defect,
                got.strict_gap_margin) == \
            (want.passed, want.achievers, want.multiplicity, want.forward_max_defect,
             want.strict_gap_margin)
        assert abs(got.max_achiever_distance - want.max_achiever_distance) <= 1e-10


def _sampled_forward_and_strict(problem, seed, draws=10):
    """Oracle for the closed-form forward and strict-gap checks: the largest
    forward defect over ``draws`` random g of the characterized set, and the
    least strict-gap margin over ``draws`` random g = 0.8 v + 0.6 h."""
    lam_all, vecs = reduction._eigenspace(problem)
    lam1 = float(lam_all[-1])
    basis = vecs[:, lam_all >= lam1 * (1.0 - REL_TIE)]
    mult = basis.shape[1]
    S, M = problem.operator_S, problem.gram_G
    V = (S @ basis) / math.sqrt(lam1)
    P = S @ np.linalg.solve(problem.gram_F, S.T @ M)
    rng = np.random.default_rng(seed)

    def s_star_norm(g):
        return math.sqrt(max(float(g @ M @ (P @ g)), 0.0))

    forward = 0.0
    for _ in range(draws):
        z = rng.standard_normal(mult)
        g = V @ (z / np.linalg.norm(z))
        forward = max(forward, abs(math.sqrt(float(g @ M @ g)) - 1.0),
                      abs(s_star_norm(g) / math.sqrt(lam1) - 1.0))
    margin = math.inf
    lam_next = lam_all[-(mult + 1)] if mult < len(lam_all) else 0.0
    for _ in range(draws):
        h = rng.standard_normal(problem.k)
        h -= V @ (V.T @ (M @ h))
        hn = math.sqrt(max(float(h @ M @ h), 0.0))
        if hn < 1e-8:
            continue   # S(top eigenspace) already fills G
        z = rng.standard_normal(mult)
        g = 0.8 * V @ (z / np.linalg.norm(z)) + 0.6 * h / hn
        g /= math.sqrt(float(g @ M @ g))
        bound = lam1 * (1.0 - (1.0 - lam_next / lam1) * 0.36)
        margin = min(margin, math.sqrt(bound) + 1e-9 * math.sqrt(lam1) - s_star_norm(g))
    return forward, margin


def test_closed_form_checks_bound_the_sampled_ones():
    # over every g at once, the forward defect is at least and the strict-gap
    # margin at most what any sample finds, up to rounding in P = SS*, which
    # reached 2.1e-14 sqrt(lambda_1) here (cond gram_F = 120); the verdicts agree
    for p, s, seed in _characterization_cases():
        report = verify_e0_characterization(p, samples=s, seed=seed)
        forward, margin = _sampled_forward_and_strict(p, seed)
        assert report.forward_max_defect >= forward - 1e-15
        assert report.strict_gap_margin <= margin + 1e-13 * max(1.0, math.sqrt(report.lambda1))
        assert report.passed == (forward <= 1e-10 and margin >= 0.0 and report.achievers > 0
                                 and report.max_achiever_distance <= 1e-6)


def _scaled(problem, scale):
    return DiscreteProblem(gram_F=problem.gram_F, operator_S=problem.operator_S * scale,
                           gram_G=problem.gram_G)


@pytest.mark.parametrize("mult", [1, 2])
def test_a_planted_wrong_eigenspace_fails_the_characterization(monkeypatch, mult):
    # turn the top eigenvector 1e-4 towards the first one below the top
    # eigenspace: the forward and the strict-gap checks each see it, and at
    # multiplicity 2 the forward check sees it only in the least norm.  With S
    # scaled by 1e-8, sqrt(lambda_1) is 1e-8 and an absolute strict-gap slack
    # of 1e-9 would hide it
    base = random_problem_with_multiplicity(seed=8, m=6, multiplicity=mult)
    problems = [_scaled(base, scale) for scale in (1.0, 1e-8)]
    assert all(verify_e0_characterization(p, samples=5).passed for p in problems)
    eigenspace = reduction._eigenspace

    def turned(problem):
        lam, vecs = eigenspace(problem)
        vecs = vecs.copy()
        vecs[:, -1] = math.cos(1e-4) * vecs[:, -1] + math.sin(1e-4) * vecs[:, -mult - 1]
        return lam, vecs

    monkeypatch.setattr(reduction, "_eigenspace", turned)
    for p in problems:
        report = verify_e0_characterization(p, samples=5)
        assert not report.passed
        assert report.forward_max_defect > 1e-10 and report.strict_gap_margin < 0.0


def test_characterization_verdict_ignores_the_scale_of_S():
    # sqrt(lambda_1) scales with S, and so does every tolerance on a norm of S*g
    for i in range(100):
        p = random_problem(seed=900 + i, m=5, k=3)
        verdicts = {verify_e0_characterization(_scaled(p, scale), samples=20).passed
                    for scale in (1e-8, 1.0, 1e5, 1e8)}
        assert verdicts == {True}, i


def test_piecewise_model_any_unit_g_attains_e0():
    p = piecewise_constant_instance(2)
    assert e0_functional(p, cube_mean_functional(p)) == pytest.approx(1.0, abs=1e-12)
    assert e0_functional(p, subcube_indicator_functional(p)) == pytest.approx(1.0, abs=1e-12)
    report = verify_e0_characterization(p, samples=10, seed=0)
    assert report.passed


def write_problem(problem, path):
    """The problem file format: first line 'm k', then gram_F, operator_S and
    gram_G row-major, 17 significant digits so that every value round-trips."""
    rows = [row for mat in (problem.gram_F, problem.operator_S, problem.gram_G) for row in mat]
    path.write_text(f"{problem.m} {problem.k}\n"
                    + "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in rows))


def test_problem_file_round_trip(tmp_path):
    p = random_problem(seed=13, m=4, k=3)
    path = tmp_path / "problem.txt"
    write_problem(p, path)
    q = load_problem(path)
    np.testing.assert_array_equal(p.gram_F, q.gram_F)
    np.testing.assert_array_equal(p.operator_S, q.operator_S)
    np.testing.assert_array_equal(p.gram_G, q.gram_G)


def test_problem_file_validation(tmp_path):
    path = tmp_path / "broken.txt"
    for text in ("2 1\n1.0 0.0\n", "2 1\n1 0 0 x\n0.5 0.5\n1\n",
                 "2.5 1\n1 0 0 1\n0.5 0.5\n1\n", "0 1\n1\n"):
        path.write_text(text)
        with pytest.raises(ParameterError):
            load_problem(path)
    path.write_text("2 1\n1 0 0 1\nnan 0.5\n1\n")
    with pytest.raises(ParameterError, match="operator_S has a non-finite entry"):
        load_problem(path)


def test_problem_validation():
    with pytest.raises(ParameterError):
        DiscreteProblem(gram_F=[[1.0, 0.9], [0.9, 1.0]], operator_S=[[1.0]],
                        gram_G=[[1.0]])
    with pytest.raises(ParameterError):
        DiscreteProblem(gram_F=[[1.0, 2.0], [0.5, 1.0]],
                        operator_S=[[1.0, 0.0]], gram_G=[[1.0]])
    with pytest.raises(ParameterError):
        DiscreteProblem(gram_F=[[1.0, 1.0], [1.0, 1.0]],
                        operator_S=[[1.0, 0.0]], gram_G=[[1.0]])
    for bad in (np.inf, np.nan):
        with pytest.raises(ParameterError, match="gram_G has a non-finite entry"):
            DiscreteProblem(gram_F=np.eye(2), operator_S=[[1.0, 0.0]], gram_G=[[bad]])


def test_problem_is_immutable():
    import dataclasses
    p = random_problem(seed=1, m=3, k=2)
    names = [field.name for field in dataclasses.fields(p)]
    assert names == ["gram_F", "operator_S", "gram_G"]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(p, name, getattr(p, name))
    assert (p.m, p.k) == (3, 2)


def test_piecewise_model_d1_norm_is_the_two_point_average():
    # ||f||^2 = (f(0)^2 + f(1)^2)/2 for piecewise constants on two cells:
    # with kernel Gram 2 I, coefficients c have values v = 2 c and
    # c' G c = (v_0^2 + v_1^2)/2
    p = piecewise_constant_instance(1)
    rng = np.random.default_rng(0)
    for _ in range(5):
        c = rng.standard_normal(2)
        v = p.gram_F @ c
        assert float(c @ p.gram_F @ c) == pytest.approx((v[0] ** 2 + v[1] ** 2) / 2, abs=1e-12)


def test_sampling_a_point_determines_its_kernel_section_functional():
    # the functional f -> f(p) (representer = the kernel section at p) has
    # zero radius once p itself is sampled: the reproducing property in action
    from tensortract import Functional
    p = random_problem(seed=6, m=5, k=3)
    for i in range(p.m):
        e = np.zeros(5)
        e[i] = 1.0
        section = Functional(representer=e)
        assert fixed_info_radius(p, section, (i,)) == pytest.approx(0.0, abs=1e-10)
        assert fixed_info_radius(p, section, ()) > 0.1


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
def test_generalized_eigh_matches_scipy_property(n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n))
    A = X + X.T
    Y = rng.standard_normal((n, n))
    B = Y.T @ Y + n * np.eye(n)
    lam, V = _generalized_eigh(A, B)
    oracle = scipy.linalg.eigh(A, B, eigvals_only=True)
    scale = np.max(np.abs(oracle))
    for got in (lam, _generalized_eigh(A, B, vectors=False)):
        assert np.max(np.abs(got - oracle)) <= 1e-12 * scale
    assert np.max(np.abs(V.T @ B @ V - np.eye(n))) <= 1e-12
