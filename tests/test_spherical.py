"""Spherical eigenproblem, boundary conditions, and the p-quotient minimizer."""

import math

import numpy as np
import pytest
import scipy.linalg as sla

import hardycone.hp as hp
import hardycone.spherical as spherical
from hardycone.params import (
    DIRICHLET,
    NATURAL,
    AdmissibilityError,
    AngularDomain,
    ConeSpec,
    HardyParams,
    bc_for_cone,
    closed_form_constant,
    cone_admissible,
    hardy_exponent,
)
from hardycone.quadrature import _gauss_jacobi, composite_rule
from hardycone.spherical import (
    ConvergenceError,
    DiscretizedFunction,
    assemble_p2,
    graded_mesh,
    minimize_rayleigh_p,
    smallest_eigenpair,
    solve_M,
)

HALF_PI = math.pi / 2


def matvec(matrix, v):
    """Product of a symmetric tridiagonal (diag, off) pair with a vector."""
    diag, off = matrix
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def dense(matrix):
    diag, off = matrix
    return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)


def tridiagonal_form(A):
    """Symmetric tridiagonal (diag, off) pair with the spectrum of the symmetric matrix A."""
    T = sla.hessenberg(A)
    return np.diag(T).copy(), np.diag(T, 1).copy()


def identity(n):
    return np.ones(n), np.zeros(n - 1)


def clustered_pair(seed, gap, n=40):
    """Tridiagonal form of Q diag(1, 1 + gap, uniform(2, 10)...) Q^T for a random orthogonal Q."""
    rng = np.random.default_rng(seed)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.concatenate([[1.0, 1.0 + gap], rng.uniform(2.0, 10.0, n - 2)])
    return tridiagonal_form(Q @ np.diag(eigs) @ Q.T)


def random_spd(rng, n):
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + n * np.eye(n)


def bordered_step(K, grad_d, den, g):
    """Minus the Newton step from a dense solve of [K, grad D; grad D^T, 0] (d, mu) = (-D grad Q, 0)."""
    n = K.shape[0]
    bordered = np.zeros((n + 1, n + 1))
    bordered[:n, :n] = K
    bordered[:n, n] = bordered[n, :n] = grad_d
    return -np.linalg.solve(bordered, np.concatenate([-den * g, [0.0]]))[:n]


def newton_step(disc, matrix, g, den, grad_d, negatives=None):
    """_descend's step: disc.solve of [D grad Q, grad D] through _bordered_step, with solve's count unless given."""
    solved = disc.solve(matrix, np.stack([den * g, grad_d], axis=1))
    if solved is None:
        return None
    return spherical._bordered_step(solved[0], grad_d, solved[1] if negatives is None else negatives)


def dense_hp(disc, elements):
    """The dense matrix that hp element matrices assemble to."""
    n = disc.layout.size
    A = np.zeros((n, n))
    for dofs, element in zip(disc.layout.dofs, elements):
        A[np.ix_(dofs, dofs)] += element
    return A


def sigma0_reference(d: int, k: int, a: float, b: float) -> float:
    """(d-k)(2-(k+a))^+ + H^2 for p = 2."""
    H = hardy_exponent(HardyParams(d, k, 2.0, a, b)).H
    return (d - k) * max(2.0 - (k + a), 0.0) + H * H


class TestBcForCone:
    def test_complement_sigma0_dirichlet(self):
        dom = bc_for_cone(HardyParams(3, 1, 2.0, 0.0, 0.0), ConeSpec.complement_sigma0())
        assert (dom.bc1, dom.bc2) == (NATURAL, DIRICHLET)
        assert (dom.theta1, dom.theta2) == (0.0, HALF_PI)

    def test_superdegenerate_puncture_invisible(self):
        dom = bc_for_cone(HardyParams(3, 1, 2.0, 1.5, 0.0), ConeSpec.complement_sigma0())
        assert dom.bc2 is NATURAL

    def test_full_and_punctured_natural(self):
        for cone in (ConeSpec.full_space(), ConeSpec.punctured_space()):
            dom = bc_for_cone(HardyParams(4, 2, 2.0, 0.5, 0.0), cone)
            assert (dom.bc1, dom.bc2) == (NATURAL, NATURAL)

    def test_half_space(self):
        dom = bc_for_cone(HardyParams(4, 1, 2.0, 0.0, 0.0), ConeSpec.half_space())
        assert (dom.bc1, dom.bc2) == (NATURAL, DIRICHLET)
        dom = bc_for_cone(HardyParams(4, 1, 3.0, 2.5, 0.0), ConeSpec.half_space())
        assert dom.bc2 is NATURAL  # a >= p - 1

    def test_band_conditions(self):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        dom = bc_for_cone(params, ConeSpec.band(0.3, 1.2))
        assert (dom.bc1, dom.bc2) == (DIRICHLET, DIRICHLET)
        dom = bc_for_cone(params, ConeSpec.band(0.0, 1.2))
        assert (dom.bc1, dom.bc2) == (NATURAL, DIRICHLET)
        dom = bc_for_cone(params, ConeSpec.band(0.3, HALF_PI))
        assert (dom.bc1, dom.bc2) == (DIRICHLET, DIRICHLET)
        dom = bc_for_cone(HardyParams(3, 1, 2.0, 1.5, 0.0), ConeSpec.band(0.3, HALF_PI))
        assert dom.bc2 is NATURAL

    def test_inadmissible_cone_rejected(self):
        with pytest.raises(AdmissibilityError):
            bc_for_cone(HardyParams(3, 1, 2.0, -1.5, 0.0), ConeSpec.complement_sigma0())


class TestGradedMesh:
    def test_endpoints_and_monotonicity(self):
        mesh = graded_mesh(0.0, HALF_PI, 256, 2.0)
        assert mesh[0] == 0.0 and mesh[-1] == HALF_PI
        assert np.all(np.diff(mesh) > 0)
        # clustered toward pi/2
        assert mesh[-1] - mesh[-2] < (mesh[1] - mesh[0]) / 100

    def test_uniform_away_from_singular_end(self):
        mesh = graded_mesh(0.2, 1.0, 64, 2.0)
        assert np.allclose(np.diff(mesh), (1.0 - 0.2) / 64)

    def test_extreme_grading_keeps_nodes_distinct(self):
        mesh = graded_mesh(0.0, HALF_PI, 4096, 50.0)
        assert np.all(np.diff(mesh) > 0)

    @pytest.mark.parametrize("n", [1024, 2048, 8192])
    def test_cap_scales_with_the_span_to_pi_2(self, n):
        # the cap on [0, pi/2] is 32.2 / ln n; a band 0.07 wide at pi/2 takes a smaller
        # one, so its last element stays wide enough for a Gauss rule
        assert spherical.grading_cap(0.0, n) == 32.2 / math.log(n)
        params = HardyParams(3, 1, 2.0, 0.5, 0.0)  # s = 1/2 asks for gamma = 4.8
        domain = AngularDomain(1.5, HALF_PI, DIRICHLET, DIRICHLET)
        _, _, mesh = assemble_p2(params, domain, n)
        assert mesh[-1] - mesh[-2] >= 32 * math.ulp(HALF_PI)
        result = solve_M(HardyParams(3, 1, 1.5, 0.2, 0.0), ConeSpec.band(1.5, HALF_PI), mesh_size=n)
        assert result.M == pytest.approx(250.1760, rel=1e-5)


class TestAssembleP2:
    def test_constants_in_stiffness_kernel(self):
        params = HardyParams(3, 1, 2.0, 0.5, 0.0)
        dom = AngularDomain(0.0, HALF_PI, NATURAL, NATURAL)
        S, M, mesh = assemble_p2(params, dom, 64)
        ones = np.ones(S[0].size)
        assert np.abs(matvec(S, ones)).max() < 1e-14 * np.abs(S[0]).max()
        assert S[0].size == mesh.size

    def test_dirichlet_elimination(self):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        dom = AngularDomain(0.0, HALF_PI, NATURAL, DIRICHLET)
        S, M, mesh = assemble_p2(params, dom, 64)
        assert S[0].size == M[0].size == mesh.size - 1
        dom = AngularDomain(0.3, 1.2, DIRICHLET, DIRICHLET)
        S, M, mesh = assemble_p2(params, dom, 64)
        assert S[0].size == M[0].size == mesh.size - 2

    def test_symmetric_and_mass_positive(self):
        params = HardyParams(4, 2, 2.0, -0.5, 0.0)
        dom = AngularDomain(0.0, HALF_PI, NATURAL, DIRICHLET)
        S, M, _ = assemble_p2(params, dom, 32)
        # symmetric by construction: one off-diagonal of length n - 1 per matrix
        for diag, off in (S, M):
            assert off.shape == (diag.size - 1,)
        assert np.all(sla.eigvalsh(dense(M)) > 0)

    def test_hemisphere_eigenvalue_refines_to_two(self):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        dom = AngularDomain(0.0, HALF_PI, NATURAL, DIRICHLET)
        errs = []
        for n in (64, 128, 256):
            S, M, _ = assemble_p2(params, dom, n)
            lam, _ = smallest_eigenpair(S, M)
            errs.append(abs(lam - 2.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 2e-5

    def test_weighted_eigenvalue_known_value(self):
        # d=3, k=1, a=0.5: lambda_1 = (d-1)(2-(1+a)) = 1
        params = HardyParams(3, 1, 2.0, 0.5, 0.0)
        dom = bc_for_cone(params, ConeSpec.complement_sigma0())
        S, M, _ = assemble_p2(params, dom, 512)
        lam, _ = smallest_eigenpair(S, M)
        assert lam == pytest.approx(1.0, rel=2e-5)

    def test_small_mesh_rejected(self):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            assemble_p2(params, AngularDomain(0.0, HALF_PI, NATURAL, DIRICHLET), 8)

    def test_non_integrable_weight_rejected(self):
        params = HardyParams(3, 1, 2.0, -1.2, 0.0)
        with pytest.raises(ValueError):
            assemble_p2(params, AngularDomain(0.0, HALF_PI, NATURAL, DIRICHLET), 64)


class TestSmallestEigenpair:
    def test_identical_matrices(self):
        A = identity(5)
        lam, v = smallest_eigenpair(A, A)
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_pair(self):
        S = (np.array([1.0, 4.0]), np.zeros(1))
        M = identity(2)
        lam, v = smallest_eigenpair(S, M)
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert abs(v[0]) == pytest.approx(1.0, abs=1e-10)
        assert abs(v[1]) < 1e-10

    def test_random_pair_against_dense_oracle(self):
        rng = np.random.default_rng(17)
        n = 50
        S = tridiagonal_form(random_spd(rng, n))
        M = tridiagonal_form(random_spd(rng, n))
        lam, v = smallest_eigenpair(S, M)
        oracle = sla.eigh(dense(S), dense(M), eigvals_only=True, subset_by_index=[0, 0])[0]
        assert lam == pytest.approx(oracle, rel=1e-10)

    def test_eigenvector_residual_and_sign(self):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        dom = AngularDomain(0.0, HALF_PI, NATURAL, DIRICHLET)
        S, M, _ = assemble_p2(params, dom, 128)
        lam, v = smallest_eigenpair(S, M)
        r = matvec(S, v) - lam * matvec(M, v)
        assert np.linalg.norm(r) <= 1e-9 * np.linalg.norm(matvec(M, v)) / np.linalg.norm(v) * len(v)
        assert matvec(M, v).sum() > 0  # nonnegative weighted mean

    def test_clustered_pair_converges_to_smallest(self):
        # the bracket must not close on the second eigenvalue
        lam, _ = smallest_eigenpair(clustered_pair(5, 1e-3), identity(40))
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_pair_fails_honestly(self):
        # a relative gap of 1e-6: the value is lambda_1, not one between the
        # clustered eigenvalues
        lam, _ = smallest_eigenpair(clustered_pair(5, 1e-6), identity(40))
        assert lam == pytest.approx(1.0, abs=1e-12)

    def test_spectrum_below_bracket_rejected(self):
        # the bracket starts at -1: below it the count is already nonzero
        with pytest.raises(ValueError):
            smallest_eigenpair((np.array([-2.0, 1.0]), np.zeros(1)), identity(2))

    @pytest.mark.parametrize("seed", range(20))
    def test_clustered_pair_resolved_by_inertia(self, seed):
        # the inertia counts see the spectrum only, so no start vector's
        # weights on the two clustered eigenvectors can stall the bracket
        lam, v = smallest_eigenpair(clustered_pair(seed, 1e-6), identity(40))
        assert lam == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite(v).all() and v.sum() > 0


def diagonally_dominant(rng, n):
    off = rng.standard_normal(n - 1)
    diag = 1.0 + rng.uniform(0.0, 1.0, n)
    diag[:-1] += np.abs(off)
    diag[1:] += np.abs(off)
    return diag * rng.choice([-1.0, 1.0]), off


def test_element_sums_match_numpy_row_sums():
    # the P1 sums over each element's 4 rule nodes; bit-identical reports rely on it
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8192, 4)) * 10.0 ** rng.integers(-8, 8, (8192, 4))
    assert np.array_equal(spherical._element_sums(a), a.sum(axis=1))


class TestCyclicReduction:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 8191])
    def test_solve_residual(self, n):
        rng = np.random.default_rng(n)
        A = diagonally_dominant(rng, n)
        factor = spherical._CyclicReduction(*A)
        b = rng.standard_normal((n, 3))
        x = factor.solve(b)
        for j in range(3):
            r = matvec(A, x[:, j]) - b[:, j]
            assert np.linalg.norm(r) <= 1e-14 * np.linalg.norm(b[:, j])
        assert np.array_equal(factor.solve(b[:, 1]), x[:, 1])

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 8191])
    def test_single_rhs_matches_one_column(self, n):
        rng = np.random.default_rng(100 + n)
        factor = spherical._CyclicReduction(*diagonally_dominant(rng, n))
        b = rng.standard_normal(n)
        x = factor.solve(b)
        assert x.shape == (n,)
        assert np.array_equal(x, factor.solve(b[:, None])[:, 0])

    @pytest.mark.parametrize("n", [1, 2, 5, 16, 33])
    def test_negative_count_matches_dense_spectrum(self, n):
        rng = np.random.default_rng(40 + n)
        diag, off = rng.uniform(-2.0, 2.0, n), rng.uniform(0.5, 1.0, n - 1)
        eigs = np.linalg.eigvalsh(dense((diag, off)))
        shifts = np.concatenate([[eigs[0] - 1.0], 0.5 * (eigs[:-1] + eigs[1:]), [eigs[-1] + 1.0]])
        for count, mu in enumerate(shifts):
            assert spherical._CyclicReduction(diag - mu, off).negative_count() == count

    @pytest.mark.parametrize(
        "d, k, a, cone",
        [
            (3, 1, 0.0, ConeSpec.complement_sigma0()),
            (3, 1, 0.9, ConeSpec.complement_sigma0()),
            (6, 3, -1.2, ConeSpec.complement_sigma0()),
            (5, 2, -0.1, ConeSpec.complement_sigma0()),
            (4, 1, 0.3, ConeSpec.half_space()),
            (3, 1, 0.5, ConeSpec.band(0.3, 1.2)),
            (4, 2, -0.5, ConeSpec.band(0.3, HALF_PI)),
        ],
        ids=lambda x: x.describe() if isinstance(x, ConeSpec) else str(x),
    )
    def test_inertia_brackets_discrete_eigenvalue(self, d, k, a, cone):
        # k+a < 2, so lambda_1 > 0: S - mu M has no negative eigenvalue just
        # below it and one just above; a dense eigh(S, M) is no oracle on these
        # graded meshes, whose element widths span many decades
        params = HardyParams(d, k, 2.0, a, 0.0)
        for n in (256, 512, 2048, 8192):
            S, M, _ = assemble_p2(params, bc_for_cone(params, cone), n)
            lam, _ = smallest_eigenpair(S, M)
            counts = [
                spherical._CyclicReduction(S[0] - mu * M[0], S[1] - mu * M[1]).negative_count()
                for mu in (lam * (1 - 1e-6), lam * (1 + 1e-6))
            ]
            assert counts == [0, 1]

    def test_zero_pivot_raises(self):
        with pytest.raises(np.linalg.LinAlgError):
            spherical._CyclicReduction(np.array([0.0, 1.0, 1.0]), np.array([1.0, 1.0]))

    def test_newton_direction_none_on_zero_pivot(self):
        params = HardyParams(3, 1, 1.5, 0.3, 0.0)
        problem = spherical._SphericalProblem.of(params, bc_for_cone(params, ConeSpec.complement_sigma0()))
        disc = spherical._Discretization.graded(problem, 64)
        v = disc.normalize(np.cos(disc.mesh))
        _, g, (diag, off), den, grad_d, _ = disc.newton_system(v)
        assert newton_step(disc, (diag, off), g, den, grad_d) is not None
        singular = diag.copy()
        singular[0] = 0.0  # first free node (natural end): a zero pivot at the first level
        assert newton_step(disc, (singular, off), g, den, grad_d) is None


class TestSolveM:
    def test_complement_sigma0_classical(self):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        result = solve_M(params, ConeSpec.complement_sigma0(), 512)
        assert result.M == pytest.approx(2.25, rel=1e-5)
        assert result.lam == pytest.approx(2.0, rel=2e-5)
        assert result.M == result.lam + 0.25

    @pytest.mark.parametrize("p", [2.0, 1.5])
    def test_one_rule_build_per_solve(self, monkeypatch, p):
        rule_builds = []

        def counting_rule(*args, **kwargs):
            rule_builds.append(args)
            return composite_rule(*args, **kwargs)

        monkeypatch.setattr(spherical, "composite_rule", counting_rule)
        # on a band p = 2 is hp, whose per-element Gauss rules are no composite
        # rule, and p != 2 is P1, which builds one
        cone = ConeSpec.band(0.1, 1.0)
        result = solve_M(HardyParams(3, 1, p, 0.3, 0.0), cone, 64)
        p1 = p != 2.0
        assert type(result.minimizer.disc) is (spherical._Discretization if p1 else hp._HpDiscretization)
        assert len(rule_builds) == int(p1)

    def test_punctured_constant_minimizer(self):
        params = HardyParams(4, 2, 2.0, 0.7, -0.3)
        result = solve_M(params, ConeSpec.punctured_space(), 128)
        habs = hardy_exponent(params).H_abs_p
        assert result.M == pytest.approx(habs, abs=1e-12)
        vals = result.minimizer.values
        assert (vals.max() - vals.min()) <= 1e-8 * vals.max()

    def test_k2_reduction_weight_reproduces_formula(self):
        # numerical experiment for k >= 2: the reduction-consistent weight
        # reproduces (d-k)(2-(k+a)) + H^2; agreement here is a measured fact,
        # asserted loosely as a regression guard
        params = HardyParams(4, 2, 2.0, -0.5, 0.0)
        result = solve_M(params, ConeSpec.complement_sigma0(), 512)
        assert result.M == pytest.approx(1.5625, rel=5e-3)

    def test_b_flip_invariance(self):
        params = HardyParams(4, 1, 2.0, 0.3, 0.6)
        b_flip = 2 * (params.d + params.a - params.p) - params.b
        flipped = HardyParams(4, 1, 2.0, 0.3, b_flip)
        r1 = solve_M(params, ConeSpec.complement_sigma0(), 128)
        r2 = solve_M(flipped, ConeSpec.complement_sigma0(), 128)
        assert abs(r1.M - r2.M) <= 1e-10 * abs(r1.M)

    def test_domain_monotonicity_of_nested_bands(self):
        params = HardyParams(3, 1, 2.0, 0.3, 0.0)
        inner = solve_M(params, ConeSpec.band(0.5, 1.1), 128)
        outer = solve_M(params, ConeSpec.band(0.4, 1.3), 128)
        assert inner.M >= outer.M - 1e-8

    def test_strict_gap_for_bands(self):
        params = HardyParams(3, 1, 2.0, 0.3, 0.0)
        habs = hardy_exponent(params).H_abs_p
        result = solve_M(params, ConeSpec.band(0.4, 1.3), 128)
        assert result.M - habs > 1e-3

    def test_lower_bound_and_interior_positivity(self):
        params = HardyParams(5, 2, 2.0, -0.4, 1.0)
        result = solve_M(params, ConeSpec.complement_sigma0(), 256)
        habs = hardy_exponent(params).H_abs_p
        assert result.M >= habs - 1e-8
        assert result.minimizer.values[1:-1].min() > 0

    def test_superdegenerate_dirichlet_collapses_to_natural(self):
        params = HardyParams(3, 1, 2.0, 1.5, 0.0)
        natural = solve_M(params, ConeSpec.complement_sigma0(), 128)
        H2 = hardy_exponent(params).H ** 2
        assert natural.M == pytest.approx(H2, abs=1e-12)
        gaps = []
        for n in (256, 512, 1024):
            dom = AngularDomain(0.0, HALF_PI, NATURAL, DIRICHLET)
            S, M, _ = assemble_p2(params, dom, n)
            lam, _ = smallest_eigenpair(S, M)
            gaps.append(lam)
        assert gaps[0] > gaps[1] > gaps[2]
        assert gaps[2] < 5e-2

    def test_inadmissible_raises(self):
        with pytest.raises(AdmissibilityError):
            solve_M(HardyParams(3, 1, 2.0, -2.0, 0.0), ConeSpec.punctured_space(), 64)

    @pytest.mark.parametrize("cell, cone", [
        ((3, 1, 2.0, 0.0, 0.0), ConeSpec.band(0.3, 1.2)),
        ((3, 1, 2.0, 0.99, 0.0), ConeSpec.complement_sigma0()),
        ((6, 3, 2.0, -1.2, 0.0), ConeSpec.complement_sigma0()),
        ((3, 1, 1.5, 0.4, 0.0), ConeSpec.complement_sigma0()),
        ((3, 1, 3.0, 1.9, 0.0), ConeSpec.complement_sigma0()),
        ((3, 2, 3.0, 0.8, 0.0), ConeSpec.complement_sigma0()),
    ])
    def test_rule_order_error_far_below_discretization_error(self, monkeypatch, cell, cone):
        # the default 4-point panels against 8-point ones on the same mesh: the
        # rule's share of the error in M must be negligible next to the mesh's.
        # P1 throughout: solve_M is spectral at p = 2
        params = HardyParams(*cell)
        domain = bc_for_cone(params, cone)

        def p1_M(mesh_size):
            if params.p == 2:
                return p1_reference(params, domain, mesh_size)
            return minimize_rayleigh_p(params, domain, mesh_size).M

        coarse = p1_M(1024)
        fine = p1_M(4096)
        monkeypatch.setattr(spherical, "composite_rule", lambda weight, mesh: composite_rule(weight, mesh, 8))
        eight_point = p1_M(1024)
        assert abs(eight_point - coarse) <= 1e-2 * abs(coarse - fine)

    def test_random_admissible_configurations_solve(self):
        # robustness sweep: every admissible draw solves and respects the
        # pointwise lower bound M >= |H|^p
        rng = np.random.default_rng(101)
        solved = 0
        while solved < 30:
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, d))
            p = float(rng.choice([1.5, 2.0, 3.0]))
            a = float(rng.uniform(-k + 0.1, 2.5))
            b = float(rng.uniform(-1.5, 1.5))
            params = HardyParams(d, k, p, a, b)
            cone = [
                ConeSpec.punctured_space(),
                ConeSpec.complement_sigma0(),
                ConeSpec.band(0.3, 1.2),
            ][int(rng.integers(0, 3))]
            if not cone_admissible(params, cone).cone_admissible:
                continue
            solved += 1
            result = solve_M(params, cone, 64)
            habs = hardy_exponent(params).H_abs_p
            assert result.M >= habs - 1e-8
            assert np.isfinite(result.residual)


    @pytest.mark.parametrize("cell, cone, most_bytes", [
        ((3, 1, 3.0, 0.3, 0.0), ConeSpec.band(0.3, 1.2), 263_000),  # P1: 541,713 bytes with the hess E terms kept
        ((3, 1, 3.0, 0.0, 0.0), ConeSpec.complement_sigma0(), 181_000),  # hp: 197,047 bytes with the hess E terms kept
    ], ids=["P1", "hp"])
    def test_minimizer_holds_no_newton_scratch(self, cell, cone, most_bytes):
        # the last descent pass's hess E terms left with the callable its
        # newton_system returned: the solve's discretization pickles to the
        # bytes of one built afresh
        import pickle

        result = solve_M(HardyParams(*cell), cone, 2048)
        disc = result.minimizer.disc
        if type(disc) is hp._HpDiscretization:
            fresh = hp._HpDiscretization(disc.problem, disc.layout.layers, disc.layout.degree)
        else:
            fresh = spherical._Discretization.graded(disc.problem, 2048)
        assert vars(disc).keys() == vars(fresh).keys()
        assert pickle.dumps(disc) == pickle.dumps(fresh)
        assert len(pickle.dumps(result.minimizer)) <= most_bytes


class TestClosedEigenSigma0:
    """lambda_1 = (d-k)(2-(k+a)) on the complement of {y=0}, p = 2, read off the closed form M - H^2."""

    @staticmethod
    def lam1(params):
        closed = closed_form_constant(params, ConeSpec.complement_sigma0())
        return closed.value - hardy_exponent(params).H ** 2

    def test_unweighted_case(self):
        assert self.lam1(HardyParams(3, 1, 2.0, 0.0, 0.0)) == pytest.approx(2.0, abs=1e-15)

    def test_near_degenerate_value(self):
        assert self.lam1(HardyParams(2, 1, 2.0, 0.9, 0.0)) == pytest.approx(0.1, rel=1e-12)

    def test_vanishes_at_superdegenerate_threshold(self):
        for eps in (1e-2, 1e-4, 1e-6):
            lam1 = self.lam1(HardyParams(3, 1, 2.0, 1.0 - eps, 0.0))
            assert lam1 == pytest.approx(2 * eps, rel=1e-9)

    def test_eigensolver_agreement(self):
        params = HardyParams(4, 1, 2.0, 0.3, 0.0)
        result = solve_M(params, ConeSpec.complement_sigma0(), 512)
        assert result.lam == pytest.approx(self.lam1(params), rel=1e-4)

    def test_preconditions(self):
        # the formula needs p = 2 (no closed form otherwise) and k+a < 2 (lambda_1 = 0 from there on)
        assert closed_form_constant(HardyParams(3, 1, 3.0, 0.0, 0.0), ConeSpec.complement_sigma0()) is None
        assert self.lam1(HardyParams(3, 1, 2.0, 1.0, 0.0)) == 0.0  # k + a = 2


class TestMinimizeRayleighP:
    def test_p2_agrees_with_eigen_path(self, monkeypatch):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        cone = ConeSpec.complement_sigma0()
        dom = bc_for_cone(params, cone)
        lam, _ = smallest_eigenpair(*assemble_p2(params, dom, 128)[:2])
        monkeypatch.setattr(spherical, "_cosine_profile", lambda problem, mesh: 1.0 + 0.5 * np.cos(3.0 * mesh) ** 2)
        monkeypatch.setattr(spherical, "DESCENT_TOL", 1e-12)
        monkeypatch.setattr(spherical, "DESCENT_GRAD_TOL", 1e-8)
        desc = minimize_rayleigh_p(params, dom, 128)
        assert desc.M == pytest.approx(lam + hardy_exponent(params).H ** 2, rel=1e-8)
        assert desc.lam == pytest.approx(lam, rel=1e-6)

    def test_natural_natural_constant_minimizer_p3(self):
        # k + a = 3 >= p = 3: natural condition, M = |H|^p = (2/3)^3
        params = HardyParams(3, 1, 3.0, 2.0, 0.0)
        result = solve_M(params, ConeSpec.complement_sigma0(), 96)
        assert result.M == pytest.approx((2.0 / 3.0) ** 3, rel=1e-10)
        vals = result.minimizer.values
        assert (vals.max() - vals.min()) <= 1e-6 * vals.max()
        assert result.lam is None

    def test_p_not_2_strict_gap_band(self):
        params = HardyParams(3, 1, 1.5, 0.3, 0.0)
        result = solve_M(params, ConeSpec.band(0.4, 1.2), 96)
        habs = hardy_exponent(params).H_abs_p
        assert result.M > habs + 1e-3

    def test_degenerate_init_rejected(self):
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        problem = spherical._SphericalProblem.of(params, bc_for_cone(params, ConeSpec.complement_sigma0()))
        disc = spherical._Discretization.graded(problem, 64)
        with pytest.raises(ValueError):
            disc.normalize(np.zeros(disc.mesh.size))

    def test_pointwise_lower_bound(self):
        params = HardyParams(4, 1, 3.0, 0.5, 0.0)
        result = solve_M(params, ConeSpec.half_space(), 96)
        habs = hardy_exponent(params).H_abs_p
        assert result.M >= habs - 1e-8

    @pytest.mark.parametrize("bc2", [DIRICHLET, NATURAL], ids=["dirichlet", "natural"])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_newton_hessian_is_exact(self, p, bc2):
        # K = hess E - Q hess D times a free direction x equals the central
        # difference of grad E - Q grad D at fixed Q; x = v * r keeps the
        # profile positive, so |phi|^p stays smooth along the difference
        params = HardyParams(3, 1, p, 0.3, 0.0)
        problem = spherical._SphericalProblem.of(params, AngularDomain(0.0, HALF_PI, NATURAL, bc2))
        disc = spherical._Discretization.graded(problem, 64)
        mesh = disc.mesh
        v = disc.normalize(np.cos(mesh) * (1.0 + 0.3 * np.sin(3.0 * mesh)) + (0.2 if bc2 is NATURAL else 0.0))
        q, _, (diag, off), _, _, _ = disc.newton_system(v)
        assert q == disc.value(v)
        lo, hi = disc.free.start, disc.free.stop

        def lagrangian_grad(u):  # grad E - q grad D = D grad Q(u) + (Q(u) - q) grad D
            q_u, g, _, den, grad_d, _ = disc.newton_system(u)
            return (den * g + (q_u - q) * grad_d)[lo:hi]

        x = np.zeros(mesh.size)
        x[lo:hi] = np.random.default_rng(7).standard_normal(hi - lo) * v[lo:hi]
        kx = diag * x
        kx[:-1] += off * x[1:]
        kx[1:] += off * x[:-1]
        eps = 1e-6
        fd = (lagrangian_grad(v + eps * x) - lagrangian_grad(v - eps * x)) / (2 * eps)
        assert np.linalg.norm(fd - kx[lo:hi]) <= 1e-6 * np.linalg.norm(kx[lo:hi])

    def test_one_newton_system_pass_per_iterate(self, monkeypatch):
        # the start is read by normalize, each iterate stepped from (the
        # start too) by one newton_system pass, each line-search trial by
        # normalize and value: one evaluation of the fields each; the
        # converged iterate takes no pass
        calls = {"fields": 0, "value": 0}
        fields, value = spherical._Discretization.fields, spherical._Discretization.value

        def counting(name, method):
            def counted(self, v):
                calls[name] += 1
                return method(self, v)
            return counted

        monkeypatch.setattr(spherical._Discretization, "fields", counting("fields", fields))
        monkeypatch.setattr(spherical._Discretization, "value", counting("value", value))
        params = HardyParams(3, 1, 3.0, 0.0, 0.0)
        result = minimize_rayleigh_p(params, bc_for_cone(params, ConeSpec.complement_sigma0()), 512)
        assert calls["fields"] == 1 + result.iterations + 2 * calls["value"]

    def test_newton_converges_on_degenerate_energy(self, monkeypatch):
        # at p = 1.5 the density e2^(p/2-1) degenerates toward the Dirichlet
        # end, where the weighted-H1 gradient step needed ~14,000 iterations
        params = HardyParams(3, 1, 1.5, 0.3, 0.0)
        cone = ConeSpec.complement_sigma0()
        result = minimize_rayleigh_p(params, bc_for_cone(params, cone), 256)
        monkeypatch.setattr(spherical, "DESCENT_TOL", 1e-13)
        monkeypatch.setattr(spherical, "DESCENT_GRAD_TOL", 1e-10)
        tight = minimize_rayleigh_p(params, bc_for_cone(params, cone), 256)
        assert result.iterations <= 20
        assert result.M == pytest.approx(tight.M, rel=1e-12)

    def test_cosine_start_where_p2_eigenfunction_ignores_dirichlet_node(self):
        # k+a = 2.5 >= 2: the p = 2 eigenfunction ignores the Dirichlet node at
        # pi/2 (p-quotient ~2e6), and a descent from it stalls at Q ~ 2.58
        params = HardyParams(3, 2, 3.0, 0.5, 0.5)
        result = minimize_rayleigh_p(params, bc_for_cone(params, ConeSpec.complement_sigma0()), 256)
        assert result.iterations <= 20
        assert result.M == pytest.approx(0.0720, rel=1e-3)

    def test_boundary_layer_start_on_band_to_pi_half(self, monkeypatch):
        # 2 <= k+a < p with a Dirichlet end at pi/2: the start cos^s theta with
        # s = (p - (k+a)) / (p - 1) = 0.25; a start without the boundary layer
        # rejects every Newton step and runs out of descent steps
        monkeypatch.setattr(spherical, "MAX_DESCENT_ITER", 500)
        result = solve_M(HardyParams(3, 2, 3.0, 0.5, 0.0), ConeSpec.band(0.3, HALF_PI), 256)
        assert result.iterations <= 20
        assert result.M == pytest.approx(7.529736, rel=1e-6)

    def test_stuck_line_search_raises(self, monkeypatch):
        # every line-search trial rejected on the first step, far from
        # convergence: that must not be reported as a converged quotient
        monkeypatch.setattr(spherical._Discretization, "value", lambda self, v: math.inf)
        params = HardyParams(3, 1, 3.0, 0.0, 0.0)
        with pytest.raises(ConvergenceError) as info:
            minimize_rayleigh_p(params, bc_for_cone(params, ConeSpec.complement_sigma0()), 256)
        assert info.value.residual > spherical.DESCENT_GRAD_TOL

    def test_indefinite_newton_system_falls_back_to_hess_e(self, monkeypatch):
        # p = 6: K = hess E - Q hess D is indefinite after the first step; the
        # bordered step in the hess E metric converges, with no p = 2 matrices
        def no_p2(self):
            raise AssertionError("the descent assembled the p = 2 matrices")

        monkeypatch.setattr(spherical._Discretization, "p2_matrices", no_p2)
        monkeypatch.setattr(spherical, "MAX_DESCENT_ITER", 100)
        params = HardyParams(3, 1, 6.0, 1.5, 0.5)
        result = minimize_rayleigh_p(params, bc_for_cone(params, ConeSpec.complement_sigma0()), 512)
        assert result.iterations <= 20
        assert result.M == pytest.approx(0.4572015270, rel=5e-5)  # hp reference; P1's own error at mesh 512

    def test_creeping_band_descent_takes_hess_e_steps(self):
        # (5,1,6,-0.5,0.5) on band:0.3:1.2: K is positive definite on {grad D}-perp
        # only near the minimum; Newton steps taken before that crept for 214 steps
        params = HardyParams(5, 1, 6.0, -0.5, 0.5)
        result = minimize_rayleigh_p(params, bc_for_cone(params, ConeSpec.band(0.3, 1.2)), 2048)
        assert result.iterations <= 80
        assert result.M == pytest.approx(731.157482133704, rel=1e-12)

    def test_newton_direction_rejects_wrong_inertia(self):
        # the bordered system must have exactly one negative eigenvalue: -K at a
        # converged iterate is nonsingular, but has every other eigenvalue negative
        params = HardyParams(3, 1, 3.0, 0.0, 0.0)
        problem = spherical._SphericalProblem.of(params, bc_for_cone(params, ConeSpec.complement_sigma0()))
        disc = spherical._Discretization.graded(problem, 64)
        v = minimize_rayleigh_p(params, problem.domain, 64).minimizer.values
        _, g, (diag, off), den, grad_d, _ = disc.newton_system(v)
        assert newton_step(disc, (diag, off), g, den, grad_d) is not None
        assert newton_step(disc, (-diag, -off), g, den, grad_d) is None

    @pytest.mark.parametrize("cell, cone, metrics", [
        ((3, 1, 3.0, 0.0, 0.0), ConeSpec.complement_sigma0(), ("K", "hess_e")),
        ((3, 1, 1.5, 0.3, 0.0), ConeSpec.complement_sigma0(), ("K", "hess_e")),
        ((3, 1, 1.5, 0.3, 0.0), ConeSpec.band(0.3, 1.2), ("K", "hess_e")),
        ((4, 2, 6.0, 0.5, 0.5), ConeSpec.complement_sigma0(), ("hess_e",)),  # K's step is rejected there
    ])
    def test_step_matches_dense_bordered_solve(self, cell, cone, metrics):
        # the tridiagonal solve on the free nodes against a dense solve of the
        # bordered system with the Dirichlet rows and columns removed
        params = HardyParams(*cell)
        problem = spherical._SphericalProblem.of(params, bc_for_cone(params, cone))
        disc = spherical._Discretization.graded(problem, 64)
        v = disc.normalize(spherical._cosine_profile(problem, disc.mesh))
        _, g, K, den, grad_d, hess_e = disc.newton_system(v)
        lo, hi = disc.free.start, disc.free.stop
        for metric in metrics:
            diag, off = K if metric == "K" else hess_e()
            step = newton_step(disc, (diag, off), g, den, grad_d, None if metric == "K" else 0)
            reference = bordered_step(dense((diag, off))[lo:hi, lo:hi], grad_d[lo:hi], den, g[lo:hi])
            assert np.linalg.norm(step[lo:hi] - reference) <= 1e-10 * np.linalg.norm(reference)
            assert not step[:lo].any() and not step[hi:].any()

    def test_failed_hess_e_step_raises(self, monkeypatch):
        monkeypatch.setattr(spherical._Discretization, "solve", lambda self, matrix, rhs: None)
        params = HardyParams(3, 1, 3.0, 0.0, 0.0)
        with pytest.raises(ConvergenceError, match="hess E"):
            minimize_rayleigh_p(params, bc_for_cone(params, ConeSpec.complement_sigma0()), 256)

    def test_hess_e_step_takes_no_inertia_test(self, monkeypatch):
        # with 3 added to every count, K's step is refused at each iterate, and the
        # hess E step, positive semidefinite whatever the count says, is taken
        solve, matrices = spherical._Discretization.solve, []

        def miscounted(self, matrix, rhs):
            matrices.append(matrix)
            solved = solve(self, matrix, rhs)
            return None if solved is None else (solved[0], solved[1] + 3)

        monkeypatch.setattr(spherical._Discretization, "solve", miscounted)
        params = HardyParams(3, 1, 3.0, 0.0, 0.0)
        result = minimize_rayleigh_p(params, bc_for_cone(params, ConeSpec.complement_sigma0()), 256)
        assert len(matrices) == 2 * result.iterations
        assert result.M == pytest.approx(2.1726116518314718, rel=1e-9)  # the unmiscounted descent's M

    def test_stationary_start_ends_the_descent(self):
        # k+a = 2 >= p: natural at pi/2, and the constant start is the
        # minimizer, with grad Q exactly 0 and Q = H^p = 1
        params = HardyParams(3, 2, 1.5, 0.0, 0.0)
        result = minimize_rayleigh_p(params, bc_for_cone(params, ConeSpec.complement_sigma0()), 256)
        assert result.M == 1.0 and result.iterations == 1 and result.residual == 0.0

    @pytest.mark.parametrize("cell, cone", [
        ((3, 1, 1.5, 0.3, 0.0), ConeSpec.complement_sigma0()),
        ((3, 2, 3.0, 0.5, 0.0), ConeSpec.complement_sigma0()),
        ((3, 2, 3.0, 0.5, 0.0), ConeSpec.band(0.3, HALF_PI)),
        ((3, 1, 2.0, 0.9, 0.0), ConeSpec.complement_sigma0()),
    ])
    def test_one_boundary_layer_exponent(self, cell, cone):
        # the start profile, the mesh grading and the exact profile all use
        # the problem's s = (p - (k+a)) / (p - 1) at a Dirichlet end pi/2
        params = HardyParams(*cell)
        domain = bc_for_cone(params, cone)
        assert domain.bc2 is DIRICHLET and domain.theta2 == HALF_PI
        problem = spherical._SphericalProblem.of(params, domain)
        s = (params.p - (params.k + params.a)) / (params.p - 1.0)
        assert problem.s == s
        mesh = spherical._solve_mesh(problem, 256)
        sines = np.sin(mesh - domain.theta1) if domain.bc1 is DIRICHLET else 1.0
        assert np.array_equal(spherical._cosine_profile(problem, mesh), np.cos(mesh) ** s * sines)
        cap = spherical.grading_cap(domain.theta1, 256)
        assert spherical._auto_gamma(problem, 256) == min(max(2.0, 2.4 / s), cap)
        if params.p == 2 and domain.theta1 == 0.0:
            # the exact profile's node in closed form: the mean of its Gauss-Jacobi weight in t = cos 2 theta
            dk = params.d - params.k
            cos2, sin2 = s / (dk + s), dk / (dk + s)
            t, _ = _gauss_jacobi(1, (dk - 2) / 2, (params.k + params.a - 2) / 2 + s - 1.0)
            assert cos2 == pytest.approx((1.0 + t[0]) / 2, rel=4e-16)
            exact = spherical._ExactProfile(problem)
            assert np.array_equal(exact.phi, [math.sqrt(cos2) ** s])
            assert np.array_equal(exact.dphi, [-s * math.sqrt(sin2) * math.sqrt(cos2) ** (s - 1.0)])


P2_GRID = dict(d=range(3, 7), k=(1, 2, 3), a=(-1.2, -0.5, 0.0, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0, 1.5, 2.5),
               b=(0.0, 0.5))
FULL_SECTION_CONES = [ConeSpec.full_space(), ConeSpec.punctured_space(), ConeSpec.complement_sigma0(),
                      ConeSpec.half_space()]


def admissible_p2_cells(cone):
    for d in P2_GRID["d"]:
        for k in P2_GRID["k"]:
            for a in P2_GRID["a"]:
                for b in P2_GRID["b"]:
                    if k >= d or (cone.kind.value == "half-space" and k != 1):
                        continue
                    params = HardyParams(d, k, 2.0, a, b)
                    if cone_admissible(params, cone).cone_admissible:
                        yield params


class TestFactoredEigensolve:
    """p = 2 on [0, pi/2]: the exact profile cos^s theta, in the one-node rule that integrates its sums exactly.

    The class and test names keep those of the factored Legendre basis the
    exact profile replaced; hp._hp_solve is the solver oracle here.
    """

    @pytest.mark.parametrize("cone", FULL_SECTION_CONES, ids=lambda cone: cone.describe())
    def test_every_cell_matches_closed_form(self, cone):
        cells = list(admissible_p2_cells(cone))
        assert len(cells) >= 80
        for params in cells:
            result = solve_M(params, cone, 64)
            reference = closed_form_constant(params, cone).value
            problem = spherical._SphericalProblem.of(params, bc_for_cone(params, cone))
            assert result.M == problem.exact_quotient() == result.lam + hardy_exponent(params).H ** 2
            assert result.iterations == 0 and result.residual == 0.0
            # hp minimizes the quotient and meets the closed form: relative, or
            # absolute where the closed form is 0 (H = 0 with lambda_1 = 0)
            M = hp._hp_solve(problem, 64).M
            for value in (result.M, M):
                assert abs(value - reference) <= 1e-12 * max(abs(reference), 1e-3), (params, value)

    @pytest.mark.parametrize("cell, s", [
        ((3, 1, 2.0, 0.9, 0.0), 0.1),  # Dirichlet: exponent -(k+a)/2 at t = -1
        ((6, 3, 2.0, -1.2, 0.0), 0.2),
        ((5, 2, 2.0, 1.5, 0.0), 0.0),  # natural
        ((3, 1, 2.0, 0.3, 0.0), 0.0),  # natural with k+a < 2 (full space)
    ])
    def test_rule_exact_for_the_basis(self, cell, s):
        # the one node integrates E and D of the profile exactly: against the
        # weight, cos^s theta and its derivative give Beta integrals,
        # int_0^(pi/2) cos^(2x-1) sin^(2y-1) = B(x, y) / 2
        def beta(x, y):
            return math.exp(math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)) / 2

        params = HardyParams(*cell)
        domain = AngularDomain(0.0, HALF_PI, NATURAL, DIRICHLET if s > 0 else NATURAL)
        problem = spherical._SphericalProblem.of(params, domain)
        assert problem.s == pytest.approx(s, abs=1e-15)
        s, ka, dk = problem.s, problem.ka, problem.dk
        exact = spherical._ExactProfile(problem)
        phi, dphi = exact.fields(np.ones(1))
        mass = beta(ka / 2 + s, dk / 2)
        assert exact.mass(phi) == pytest.approx(mass, rel=1e-13)
        for G in (0.0, 0.7):
            energy = G**2 * mass + (s**2 * beta(ka / 2 + s - 1.0, dk / 2 + 1.0) if s > 0 else 0.0)
            assert exact.energy(phi, dphi, G**2)[1] == pytest.approx(energy, rel=1e-13, abs=1e-300)
        assert exact.value(np.ones(1)) == pytest.approx(problem.exact_quotient(), rel=1e-15)

    def test_minimizer_is_the_factored_profile_on_the_graded_mesh(self):
        params = HardyParams(3, 1, 2.0, 0.9, 0.0)
        cone = ConeSpec.complement_sigma0()
        domain = bc_for_cone(params, cone)
        Phi = solve_M(params, cone, 2048).minimizer
        assert isinstance(Phi, DiscretizedFunction)
        assert np.array_equal(Phi.mesh, spherical._solve_mesh(spherical._SphericalProblem.of(params, domain), 2048))
        assert Phi.values[-1] == 0.0 and Phi.values[:-1].min() > 0.0  # Dirichlet at pi/2
        # the ground state is cos^s theta with s = 2 - (k+a) = 0.1, at coefficient 1
        s = spherical._SphericalProblem.of(params, domain).s
        assert s == pytest.approx(0.1, rel=1e-14)
        assert np.array_equal(Phi.values, np.sin(HALF_PI - Phi.mesh) ** s)  # cos, cancellation-free
        disc = Phi.disc
        assert type(disc) is spherical._ExactProfile and disc.problem.domain == domain
        assert np.array_equal(Phi.coefficients, [1.0])

    def test_bands_are_factored_and_p_not_2_stays_on_p1(self):
        # the exact profile keeps [0, pi/2]: p = 2 bands are hp, p != 2 bands P1
        params = HardyParams(3, 1, 2.0, 0.3, 0.0)
        band = solve_M(params, ConeSpec.band(0.3, HALF_PI), 256)
        problem = spherical._SphericalProblem.of(params, bc_for_cone(params, ConeSpec.band(0.3, HALF_PI)))
        assert type(band.minimizer.disc) is hp._HpDiscretization and band.minimizer.disc.problem == problem
        assert band.M == hp._hp_solve(problem, 256).M and band.lam == band.M - problem.H2
        descent = solve_M(HardyParams(3, 1, 1.5, 0.3, 0.0), ConeSpec.band(0.3, HALF_PI), 256)
        assert type(descent.minimizer.disc) is spherical._Discretization and descent.lam is None


BAND_CELLS = [(3, 1, 2.0, 0.0, 0.0), (4, 2, 2.0, 0.5, 0.0), (5, 1, 2.0, -0.5, 0.5), (3, 2, 2.0, 0.5, 0.0),
              (3, 1, 2.0, 0.9, 0.0)]
# interior bands, band:0.0:theta, and band:theta:pi/2, where the cells with
# k+a < 2 have a Dirichlet end at pi/2 and those with k+a >= 2 a natural one
FACTORED_BANDS = [ConeSpec.band(0.3, 1.2), ConeSpec.band(0.25, 1.0), ConeSpec.band(0.5, 1.1),
                  ConeSpec.band(0.0, 1.0), ConeSpec.band(0.0, 0.5), ConeSpec.band(0.3, HALF_PI),
                  ConeSpec.band(0.6, HALF_PI)]


# p = 2 band references (ROADMAP item 1): a dense hp solve with 24-point rules, (L, q) up
# to (12, 16), each changed by <= 3e-15 relative between its last two levels
P2_BAND_REFERENCES = [
    ((3, 1, 2.0, 0.0, 0.0), ConeSpec.band(0.1, 1.0), 10.8931222025949),
    ((3, 1, 2.0, 0.9, 0.0), ConeSpec.band(0.01, 1.5), 2.63113301051354),
    ((4, 2, 2.0, 0.5, 0.0), ConeSpec.band(0.05, 0.3), 147.102037344225),
    ((3, 1, 2.0, 0.9, 0.5), ConeSpec.band(0.1, HALF_PI), 1.77879213010787),
    ((5, 2, 2.0, -0.1, 0.0), ConeSpec.band(0.1, HALF_PI), 2.75494295780094),
]


def p1_reference(params, domain, mesh_size=16384):
    """M of the P1 eigenproblem (smallest_eigenpair) on the graded mesh of mesh_size elements."""
    lam, _ = smallest_eigenpair(*assemble_p2(params, domain, mesh_size)[:2])
    return lam + hardy_exponent(params).H ** 2


class TestFactoredBands:
    """p = 2 on bands: hp elements, pinned to 0 at interior Dirichlet ends (the factored basis keeps [0, pi/2])."""

    @pytest.mark.parametrize("cone", FACTORED_BANDS, ids=lambda cone: cone.describe())
    def test_every_cell_factored_self_converged_and_below_p1(self, cone):
        for cell in BAND_CELLS:
            params = HardyParams(*cell)
            domain = bc_for_cone(params, cone)
            problem = spherical._SphericalProblem.of(params, domain)
            result = solve_M(params, cone, 256)
            Phi = result.minimizer
            assert type(Phi.disc) is hp._HpDiscretization and Phi.disc.problem == problem, cell
            assert result.residual <= hp.HP_TOL * result.M and result.lam == result.M - problem.H2
            # one level finer again, from the minimizer prolonged, moves M by less than HP_TOL
            layout = Phi.disc.layout
            finer = hp._HpDiscretization(problem, layout.layers + 2, layout.degree + 2)
            v = finer.layout.prolong(layout, Phi.coefficients)
            M_finer = spherical._descend(finer, v, hp.HP_DESCENT_TOL, hp.HP_MAX_ITER, try_small_steps=False)[0]
            assert abs(M_finer - result.M) <= hp.HP_TOL * result.M, cell
            # both are Ritz values: the converged hp one lies below P1's
            assert result.M <= p1_reference(params, domain) * (1.0 + 1e-12), cell
            assert Phi.values.min() >= 0.0
            assert (Phi.values[0] == 0.0) == (domain.bc1 is DIRICHLET)
            assert (Phi.values[-1] == 0.0) == (domain.bc2 is DIRICHLET)

    @pytest.mark.parametrize("cell, cone", [
        ((3, 1, 2.0, 0.0, 0.0), ConeSpec.band(0.3, 1.2)),
        ((4, 2, 2.0, 0.5, 0.0), ConeSpec.band(0.2, 1.0)),
    ], ids=["band:0.3:1.2", "band:0.2:1.0"])
    def test_agrees_with_p1_where_p1_is_accurate(self, cell, cone):
        params = HardyParams(*cell)
        result = solve_M(params, cone, 64)  # the mesh only samples a spectral minimizer
        assert abs(result.M - p1_reference(params, bc_for_cone(params, cone))) <= 1e-7

    def test_interior_end_near_a_pole_falls_back_to_descent(self):
        # the factored basis failed its N -> 2N check here and fell back to P1,
        # 3.9e-7 off at mesh 2048; hp meets the reference, below P1
        params = HardyParams(3, 1, 2.0, 0.0, 0.0)
        cone = ConeSpec.band(0.1, 1.0)
        result = solve_M(params, cone, 512)
        assert type(result.minimizer.disc) is hp._HpDiscretization
        assert result.M == pytest.approx(10.8931222025949, rel=1e-11)
        assert result.M < p1_reference(params, bc_for_cone(params, cone), 512)

    @pytest.mark.parametrize("cell, cone, reference", P2_BAND_REFERENCES,
                             ids=[f"{cell}-{cone.describe()}" for cell, cone, _ in P2_BAND_REFERENCES])
    def test_reference_values(self, cell, cone, reference):
        # the factored check failed on each and P1 printed them 4.5e-6 to 9.9e-3 off at mesh 512
        result = solve_M(HardyParams(*cell), cone, 512)
        assert type(result.minimizer.disc) is hp._HpDiscretization
        assert result.M == pytest.approx(reference, rel=1e-11)
        assert result.residual <= hp.HP_TOL * result.M


class TestLazyFactoredSamples:
    """A spectral minimizer samples itself on its graded mesh only when mesh or values is read."""

    # the factored basis on [0, pi/2], hp on a band
    CELLS = [((3, 1, 2.0, 0.9, 0.0), ConeSpec.complement_sigma0(), spherical._ExactProfile),
             ((4, 2, 2.0, 0.5, 0.0), ConeSpec.band(0.3, 1.2), hp._HpDiscretization)]

    @pytest.mark.parametrize("cell, cone, kind", CELLS, ids=["complement-sigma0", "band:0.3:1.2"])
    def test_no_mesh_built_until_read(self, monkeypatch, cell, cone, kind):
        calls = []
        real = spherical.graded_mesh
        monkeypatch.setattr(spherical, "graded_mesh", lambda *args: calls.append(args) or real(*args))
        params = HardyParams(*cell)
        Phi = solve_M(params, cone, 2048).minimizer
        assert type(Phi.disc) is kind and calls == []
        values = Phi.values
        assert len(calls) == 1 and Phi.mesh is Phi.mesh and Phi.values is values
        problem = spherical._SphericalProblem.of(params, bc_for_cone(params, cone))
        assert np.array_equal(Phi.mesh, spherical._solve_mesh(problem, 2048))
        assert np.array_equal(values, Phi.disc.sample(Phi.coefficients, Phi.mesh))

    @pytest.mark.parametrize("cell, cone, kind", CELLS, ids=["complement-sigma0", "band:0.3:1.2"])
    def test_pickle_keeps_the_samples(self, cell, cone, kind):
        import pickle

        params = HardyParams(*cell)
        unread = solve_M(params, cone, 512).minimizer
        read = solve_M(params, cone, 512).minimizer
        assert read.values.size == 513  # sampled before pickling
        for Phi in (pickle.loads(pickle.dumps(unread)), pickle.loads(pickle.dumps(read))):
            assert type(Phi.disc) is kind and Phi.disc.problem == read.disc.problem
            assert np.array_equal(Phi.coefficients, read.coefficients)
            assert np.array_equal(Phi.mesh, read.mesh) and np.array_equal(Phi.values, read.values)

    def test_mesh_size_checked_without_a_mesh(self):
        params = HardyParams(3, 1, 2.0, 0.5, 0.0)
        with pytest.raises(ValueError, match="mesh_size"):
            solve_M(params, ConeSpec.complement_sigma0(), mesh_size=8)


# p != 2 references (ROADMAP item 1): an hp prototype at L = q = 10-14, spread <= 3e-10 over
# grading ratios 0.1-0.25 and 12 or 40 extra quadrature points; the four descent-workload cells
# to 13 digits, the others as cited there
HP_REFERENCES = [
    ((3, 1, 3.0, 0.0, 0.0), 2.1725999599461, 1e-10),
    ((3, 1, 3.0, 0.3, 0.0), 1.6433143719776, 1e-10),
    ((3, 1, 1.5, 0.0, 0.0), 2.4734248910809, 1e-10),
    ((3, 1, 1.5, 0.3, 0.0), 2.1468684609198, 1e-10),
    ((3, 2, 3.0, 0.8, 0.0), 0.03315013244761, 1e-9),
    ((3, 1, 3.0, 1.9, 0.0), 0.2629440157, 1e-8),
    ((3, 1, 6.0, 3.5, 0.0), 0.0092131558163, 1e-8),
    ((5, 2, 6.0, 1.5, 0.0), 0.19790166525, 1e-8),
    ((3, 1, 6.0, 1.5, 0.5), 0.4572015270, 1e-8),
]


class TestHpSolve:
    """p != 2 on [0, pi/2]: phi = cos^s theta * g, g piecewise polynomial on a geometrically graded mesh."""

    @pytest.mark.parametrize("cell, reference, rel", HP_REFERENCES, ids=[str(c) for c, _, _ in HP_REFERENCES])
    def test_reference_values(self, cell, reference, rel):
        result = solve_M(HardyParams(*cell), ConeSpec.complement_sigma0(), 512)
        assert type(result.minimizer.disc) is hp._HpDiscretization and result.lam is None
        assert result.M == pytest.approx(reference, rel=rel)
        assert result.residual <= hp.HP_TOL * result.M

    @pytest.mark.parametrize("cell, cone", [
        ((3, 1, 2.0, 0.5, 0.0), ConeSpec.complement_sigma0()),
        ((3, 2, 2.0, -0.1, 0.0), ConeSpec.complement_sigma0()),
        ((4, 1, 2.0, 0.9, 0.5), ConeSpec.half_space()),
        ((5, 2, 2.0, 0.5, 0.0), ConeSpec.full_space()),
        ((4, 2, 1.5, -0.5, 0.5), ConeSpec.complement_sigma0()),  # superdegenerate: natural pi/2, M = 1
    ])
    def test_closed_forms(self, cell, cone):
        # solve_M answers these cells from the exact profile, but their closed forms check hp's basis and rules
        params = HardyParams(*cell)
        problem = spherical._SphericalProblem.of(params, bc_for_cone(params, cone))
        M = hp._hp_solve(problem, 64).M
        assert M == pytest.approx(closed_form_constant(params, cone).value, rel=1e-13)

    def test_same_M_at_every_mesh(self):
        # mesh_size only sets where the minimizer samples itself
        params = HardyParams(3, 1, 1.5, 0.3, 0.0)
        coarse, fine = (solve_M(params, ConeSpec.complement_sigma0(), n) for n in (512, 1024))
        assert coarse.M == fine.M and coarse.iterations == fine.iterations
        assert fine.minimizer.values.size == 1025

    def test_failed_check_lands_on_p1(self, monkeypatch):
        # with the (L, q) -> (L+2, q+2) check forced to fail, the cell gets the P1
        # descent's M, bit for bit the value the P1 descent gave before hp existed
        monkeypatch.setattr(hp, "HP_TOL", -1.0)
        result = solve_M(HardyParams(3, 1, 3.0, 0.0, 0.0), ConeSpec.complement_sigma0(), 256)
        assert type(result.minimizer.disc) is spherical._Discretization
        assert result.M == 2.1726116518314718 and result.iterations == 8

    def test_near_miss_goes_one_level_deeper(self):
        # (5, 9) -> (7, 11) changes M by 1.5e-10 relative, just past HP_TOL;
        # (7, 11) -> (9, 13) by 3.9e-13, so the cell stays on hp.  P1 printed
        # 2.11e-6 at mesh 256, 21% off.  Every Newton step passes the bordered
        # system's inertia rule: 29 steps, where taking any finite step took 42
        params = HardyParams(3, 2, 8.0, 5.0, 0.0)
        result = solve_M(params, ConeSpec.complement_sigma0(), 256)
        layout = result.minimizer.disc.layout
        assert type(result.minimizer.disc) is hp._HpDiscretization
        assert (layout.layers, layout.degree) == (hp.HP_LAYERS + 4, hp.HP_DEGREE + 4)
        assert result.M == pytest.approx(1.75084359027e-06, rel=1e-10)
        assert result.iterations <= 32
        assert result.residual <= hp.HP_TOL * result.M

    def test_stuck_hp_descent_lands_on_p1(self, monkeypatch):
        monkeypatch.setattr(hp._HpDiscretization, "value", lambda self, v: math.inf)
        params = HardyParams(3, 1, 3.0, 0.3, 0.0)
        result = solve_M(params, ConeSpec.complement_sigma0(), 256)
        assert result.M == minimize_rayleigh_p(params, bc_for_cone(params, ConeSpec.complement_sigma0()), 256).M

    @pytest.mark.parametrize("b", [0.0, 0.5])
    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 6.0])
    @pytest.mark.parametrize("d, k", [(3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (5, 2)])
    def test_natural_large_a_cells_stay_on_hp(self, d, k, p, b):
        # both ends natural at a = 40: the profile is constant and M = |H|^p, which solve_M
        # takes from the exact profile.  hp's descent starts at the minimizer, where hess E's
        # negative count is rounding (the check level's weights reach 5.5e-151), and takes
        # hess E's step whatever that count
        params = HardyParams(d, k, p, 40.0, b)
        problem = spherical._SphericalProblem.of(params, bc_for_cone(params, ConeSpec.complement_sigma0()))
        assert problem.exact_profile == "constant-profile"
        result = hp._hp_solve(problem, 256)
        assert type(result.minimizer.disc) is hp._HpDiscretization
        exact = hardy_exponent(params).H_abs_p
        assert abs(result.M - exact) <= 1e-15 * exact

    @staticmethod
    def converged_system():
        """The hp discretization of (3,1,3,0,0) on the complement of sigma_0 and its Newton terms at the minimizer."""
        params = HardyParams(3, 1, 3.0, 0.0, 0.0)
        result = solve_M(params, ConeSpec.complement_sigma0(), 64)
        disc = result.minimizer.disc
        return disc, disc.newton_system(result.minimizer.coefficients)

    def test_newton_direction_rejects_wrong_inertia(self):
        # as for P1: -K at a converged iterate is nonsingular, but every bubble
        # block of it is negative definite
        disc, (_, g, K, den, grad_d, _) = self.converged_system()
        assert newton_step(disc, K, g, den, grad_d) is not None
        assert newton_step(disc, -K, g, den, grad_d) is None

    @pytest.mark.parametrize("element", [0, 3, -1])
    def test_newton_direction_counts_bubble_block_inertia(self, element):
        # hess E with one bubble block's smallest eigenvalue made large and
        # negative: the vertex Schur complement stays positive definite and
        # grad D^T K^-1 grad D > 0, so only the block's count shows that the
        # bordered matrix has two negative eigenvalues
        disc, (_, g, _, den, grad_d, hess_e) = self.converged_system()
        hessian = hess_e().copy()
        assert newton_step(disc, hessian, g, den, grad_d) is not None
        lam, U = np.linalg.eigh(hessian[element, 2:, 2:])
        lam[0] = -1e3 * lam[-1]
        hessian[element, 2:, 2:] = (U * lam) @ U.T
        K = dense_hp(disc, hessian)
        assert (np.linalg.eigvalsh(K) < 0).sum() == 1 and grad_d @ np.linalg.solve(K, grad_d) > 0
        assert newton_step(disc, hessian, g, den, grad_d) is None

    @pytest.mark.parametrize("entry", [(3, 3), (0, 0), (0, 3)], ids=["bubble", "vertex", "coupling"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_newton_direction_none_on_non_finite_element(self, bad, entry):
        # eigvalsh raises LinAlgError on some non-finite blocks, and returns nan on others
        disc, (_, g, K, den, grad_d, _) = self.converged_system()
        K = K.copy()
        K[2][entry] = bad
        assert newton_step(disc, K, g, den, grad_d) is None

    @pytest.mark.parametrize("cell, metrics", [
        ((3, 1, 3.0, 0.0, 0.0), ("K", "hess_e")),
        ((3, 1, 1.5, 0.3, 0.0), ("K", "hess_e")),
        ((4, 2, 6.0, 0.5, 0.5), ("hess_e",)),  # K's step is rejected there
    ])
    def test_step_matches_dense_bordered_solve(self, cell, metrics):
        # static condensation and back substitution against a dense solve of the bordered system
        params = HardyParams(*cell)
        problem = spherical._SphericalProblem.of(params, bc_for_cone(params, ConeSpec.complement_sigma0()))
        disc = hp._HpDiscretization(problem, hp.HP_LAYERS, hp.HP_DEGREE)
        _, g, K, den, grad_d, hess_e = disc.newton_system(disc.normalize(disc.start()))
        for metric in metrics:
            hessian = K if metric == "K" else hess_e()
            step = newton_step(disc, hessian, g, den, grad_d, None if metric == "K" else 0)
            reference = bordered_step(dense_hp(disc, hessian), grad_d, den, g)
            assert np.linalg.norm(step - reference) <= 1e-10 * np.linalg.norm(reference)

    def test_prolongation_is_exact(self):
        # on [0, pi/2] (half-width pi/4) and on the band [0.3, 1.2]
        for m in (math.pi / 4, (1.2 - 0.3) / 2):
            coarse = hp._HpLayout.of(3, 5, m)
            fine = hp._HpLayout.of(5, 7, m)
            v = np.random.default_rng(3).standard_normal(coarse.size)
            w = fine.prolong(coarse, v)
            side = np.repeat([1.0, -1.0], 200)
            t = np.concatenate([np.geomspace(1e-6, m, 200)] * 2)
            assert np.allclose(fine.g(w, side, t), coarse.g(v, side, t), rtol=0.0, atol=1e-12)

    def test_minimizer_is_integrated_in_its_own_rules(self):
        params = HardyParams(3, 1, 3.0, 0.3, 0.0)
        result = solve_M(params, ConeSpec.complement_sigma0(), 256)
        Phi = result.minimizer
        disc = Phi.disc
        assert disc.value(Phi.coefficients) == pytest.approx(result.M, rel=1e-14)
        assert disc.sum_fields(Phi.coefficients)[2] == pytest.approx(1.0, rel=1e-14)
        # its samples: positive inside, 0 at the Dirichlet end pi/2
        values = Phi.values
        assert values[-1] == 0.0 and values[:-1].min() > 0.0

    def test_pickle_keeps_the_profile(self):
        import pickle

        result = solve_M(HardyParams(3, 1, 1.5, 0.3, 0.0), ConeSpec.complement_sigma0(), 256)
        Phi = pickle.loads(pickle.dumps(result.minimizer))
        assert type(Phi.disc) is hp._HpDiscretization and Phi.disc.layout[:2] == result.minimizer.disc.layout[:2]
        assert np.array_equal(Phi.coefficients, result.minimizer.coefficients)
        assert np.array_equal(Phi.values, result.minimizer.values)

    def test_hess_e_fallback_takes_no_extra_pass(self, monkeypatch):
        # P1 on (3,1,6,1.5,0.5): K is indefinite after the first step, and the
        # hess E step is formed from the pass the loop holds (the callable
        # newton_system returns), so every evaluation of the fields is the
        # start's normalization, one newton_system pass per accepted
        # iterate, or a line-search trial.  A step is accepted when its
        # trial (an argument of value) becomes the iterate (an argument of
        # newton_system); the last iteration either accepts its step or
        # stops at the line-search floor.
        calls = {"fields": 0, "value": 0, "newton_system": 0, "hess_e": 0}
        seen = {"value": [], "newton_system": []}

        def count_hess_e(hess_e):
            def counted():
                calls["hess_e"] += 1
                return hess_e()
            return counted

        for name in ("fields", "value", "newton_system"):
            method = getattr(spherical._Discretization, name)

            def counted(self, *args, _name=name, _method=method):
                calls[_name] += 1
                if _name in seen:
                    seen[_name].append(args[0])
                out = _method(self, *args)
                return (*out[:-1], count_hess_e(out[-1])) if _name == "newton_system" else out

            monkeypatch.setattr(spherical._Discretization, name, counted)
        params = HardyParams(3, 1, 6.0, 1.5, 0.5)
        result = minimize_rayleigh_p(params, bc_for_cone(params, ConeSpec.complement_sigma0()), 512)
        trials, iterates = seen["value"], seen["newton_system"]
        accepted = sum(any(t is v for v in iterates) for t in trials)
        stopped_at_floor = trials[-1] is not iterates[-1]
        assert result.M == 0.45721634005744805  # bit for bit the value before the fallback reused the pass
        assert calls["hess_e"] >= 1
        assert calls["newton_system"] == 1 + accepted
        assert accepted == result.iterations - stopped_at_floor
        assert calls["fields"] == 1 + calls["newton_system"] + 2 * calls["value"]
