"""Minimization of the weighted quotient on the spherical cross-section.

For an axisymmetric cone the sharp constant equals the minimum over angular
profiles phi(theta) of

    Q(phi) = int w ((phi')^2 + H^2 phi^2)^(p/2) dtheta / int w |phi|^p dtheta,

w(theta) = cos^(k+a-1) sin^(d-k-1).  For p = 2 this is the eigenvalue problem

    -(w phi')' = lambda w phi,      M = lambda_1 + H^2.

On the cross-section [0, pi/2] the extremal profile is known wherever the
constant is (params._SphericalProblem.exact_profile).  There M is its
quotient and nothing is solved; the minimizer holds the profile in the one
Gauss-Jacobi node that integrates its sums exactly (_ExactProfile).

For p != 2 on [0, pi/2] with a Dirichlet pi/2, and for p = 2 on a band, the
quotient is minimized in hp spectral elements, phi = cos^s theta * g with g
piecewise polynomial on a mesh graded geometrically toward both ends (the
hp module, imported only for such a solve), and accepted when a solve on a
finer nested mesh agrees to 1e-10, or on a near miss when a third, finer
again, agrees with the second.  Where a check fails (a few [0, pi/2] cells
with tiny M or p near 1), and for p != 2 on every band, the profile is
discretized with piecewise-linear finite elements on a mesh graded toward
the singular end theta = pi/2.
Both p != 2 discretizations are minimized by one descent (_descend):
Newton steps on the surface {int w |phi|^p = const}.  A discretization
only solves (solve: two right-hand sides and the matrix's negative
eigenvalue count, from one factorization); _descend forms the step
(_bordered_step) and takes K's only where [K, grad D; grad D^T, 0] has one
negative eigenvalue.  With P1 elements K = hess E - Q hess D is
tridiagonal.  Where K's step fails, the step with hess E replaces it, with
no inertia test: E is convex, so hess E is positive semidefinite.  The P1
descent starts from cos^s theta; a stuck one raises ConvergenceError.  Its residual is the relative step decrement
sqrt(grad Q . d) / Q of the last step.  At p = 2, assemble_p2 and
smallest_eigenpair (bisection on the inertia of S - mu M) give the P1
reference value.

The private solvers take the cell's 1-D problem as one
params._SphericalProblem (re-exported here, with MIN_MESH_SIZE,
ConvergenceError and SpectralResult): the cross-section and endpoint
conditions that params.bc_for_cone gives, and s, the one boundary-layer
exponent at pi/2.  Its graded mesh comes from _solve_mesh, graded by
_auto_gamma to match s.  Every solve returns a _Minimizer, which holds the
discretization the solve accepted; the certifier integrates the profile
there, and nothing samples it on the graded mesh until its values are read.

Every P1 matrix is symmetric tridiagonal and is kept as a (diag, off) pair
of numpy arrays.  One kernel solves all of them: odd-even cyclic reduction,
vectorized over each level, which factors once, solves many right-hand sides
and counts negative eigenvalues from its pivots (Sylvester inertia);
_solve_free applies it to the free rows, for P1 and hp alike.  Dot
products and norms are fixed-order numpy sums, never BLAS calls, so
reports come out byte-identical at one and two BLAS threads.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .params import (
    DIRICHLET,
    HALF_PI,
    MIN_MESH_SIZE,
    AngularDomain,
    ConeSpec,
    ConvergenceError,
    HardyParams,
    SpectralResult,
    _SphericalProblem,
    bc_for_cone,
)
from .quadrature import AngularWeight, QuadratureRule, composite_rule

MAX_DESCENT_ITER = 100_000  # descent steps before ConvergenceError
DESCENT_TOL = 1e-9  # relative decrease of Q per descent step at convergence
DESCENT_GRAD_TOL = 1e-6  # relative step decrement sqrt(grad Q . d) / Q at convergence

Tridiagonal = tuple[np.ndarray, np.ndarray]  # symmetric: (diagonal, off-diagonal)


@dataclass(frozen=True, eq=False)
class DiscretizedFunction:
    """Piecewise-linear function given by nodal values on an increasing mesh."""

    mesh: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "mesh", np.asarray(self.mesh, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.mesh.ndim != 1 or self.mesh.shape != self.values.shape:
            raise ValueError("mesh and values must be matching 1-D arrays")
        if np.any(np.diff(self.mesh) <= 0):
            raise ValueError("mesh must be strictly increasing")


class _Minimizer(DiscretizedFunction):
    """A solve's minimizer: the discretization its solve accepted, and the profile's coefficients in it.

    disc is the exact profile's one-node rule (_ExactProfile, coefficient
    1), the accepted hp level or the P1 _Discretization (coefficients: its
    nodal values).  mesh (the
    graded mesh of mesh_size elements that a P1 solve uses) and values
    (disc.sample there) are computed when first read; a pickle carries
    whichever has been read.  A plain subclass: one more dataclass would
    cost every process about a millisecond of import time.
    """

    def __init__(self, disc: _RuleSums, coefficients: np.ndarray, mesh_size: int):
        object.__setattr__(self, "disc", disc)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "mesh_size", mesh_size)

    @cached_property
    def mesh(self) -> np.ndarray:
        return _solve_mesh(self.disc.problem, self.mesh_size)

    @cached_property
    def values(self) -> np.ndarray:
        return self.disc.sample(self.coefficients, self.mesh)


def grading_cap(theta1: float, n: int) -> float:
    """Largest usable grading exponent on [theta1, pi/2]: keeps the last element above ~64 ulp of pi/2.

    That element is (pi/2 - theta1) n^(-gamma) wide, so a narrower span takes a smaller cap.
    """
    return (32.2 + math.log((HALF_PI - theta1) / HALF_PI)) / math.log(n)


def graded_mesh(theta1: float, theta2: float, n: int, gamma: float = 2.0) -> np.ndarray:
    """Mesh of n elements, clustered toward theta2 = pi/2 as (1 - j/n)^gamma.

    Away from the singular end (theta2 < pi/2) the mesh is uniform.
    """
    if n < 2:
        raise ValueError("need at least 2 elements")
    j = np.arange(n + 1) / n
    if theta2 == HALF_PI:
        gamma = min(gamma, grading_cap(theta1, n))
        mesh = HALF_PI - (HALF_PI - theta1) * (1.0 - j) ** gamma
    else:
        mesh = theta1 + (theta2 - theta1) * j
    mesh[0], mesh[-1] = theta1, theta2  # the ends exactly, where a Dirichlet sample is 0
    return mesh


def _auto_gamma(problem: _SphericalProblem, n: int) -> float:
    """Grading matched to the boundary-layer exponent s at pi/2.

    The minimizer behaves like u^s, u = pi/2 - theta, so the mesh exponent
    scales like 1/s for s < 1; without a boundary layer (s = 0) the mesh is
    graded as for a smooth profile.
    """
    s = problem.s
    return 2.0 if s == 0.0 else min(max(2.0, 2.4 / s), grading_cap(problem.domain.theta1, n))


def _require_mesh_size(mesh_size: int) -> None:
    if mesh_size < MIN_MESH_SIZE:
        raise ValueError(f"mesh_size must be at least {MIN_MESH_SIZE}")


def _solve_mesh(problem: _SphericalProblem, mesh_size: int) -> np.ndarray:
    """The graded mesh of mesh_size elements that a solve of the problem discretizes on."""
    _require_mesh_size(mesh_size)
    domain = problem.domain
    return graded_mesh(domain.theta1, domain.theta2, mesh_size, _auto_gamma(problem, mesh_size))


def _element_sums(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=1) of an (n_elements, nq) array, added column by column.

    The same left-to-right sums as numpy's for nq < 8, at about a ninth of
    the cost at nq = 4: numpy reduces each short row in its own inner loop.
    """
    total = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        total += a[:, j]
    return total


def _scatter(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Vertex vector from each element's contributions to its left and right vertex."""
    out = np.zeros(left.size + 1)
    out[:-1] += left
    out[1:] += right
    return out


def _positive_power(x: np.ndarray, exponent: float) -> np.ndarray:
    """x^exponent where x > 0, else 0, for x >= 0: the energy density's and |phi|'s powers in the Newton terms."""
    with np.errstate(divide="ignore"):  # 0^exponent is inf for exponent < 0, and not taken
        return np.where(x > 0.0, x**exponent, 0.0)


def _bordered_step(x: np.ndarray, grad_d: np.ndarray, negatives: int) -> np.ndarray | None:
    """Minus the Newton step of Q on {D = const} from the columns x1, x2 of K^-1 [D grad Q, grad D], or None.

    x1 - (grad D . x1 / grad D . x2) x2 = -d solves [K, grad D; grad D^T, 0]
    (d, mu) = (-D grad Q, 0).  By Haynsworth's inertia additivity that matrix
    has K's `negatives` negative eigenvalues, plus one where the curvature
    grad D . x2 >= 0.  None unless it has one (K positive definite on
    {grad D}-perp, so the step leads to a minimum; _descend passes 0 for the
    positive semidefinite hess E), and where the step is not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        curvature = (grad_d * x[:, 1]).sum()
        if negatives + (curvature >= 0.0) != 1:
            return None
        step = x[:, 0] - (grad_d * x[:, 0]).sum() / curvature * x[:, 1]
    return step if np.all(np.isfinite(step)) else None


def _matvec(matrix: Tridiagonal, v: np.ndarray) -> np.ndarray:
    diag, off = matrix
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


class _CyclicReduction:
    """Odd-even cyclic reduction of a symmetric tridiagonal matrix (diag, off).

    Each level eliminates the even-indexed unknowns, which are uncoupled from
    one another, and leaves a tridiagonal Schur complement on the odd ones;
    every step is vectorized over the level.  This is a block LDL^T
    factorization of a symmetric permutation of the matrix, so its pivots
    carry the inertia.  Unpivoted: a zero or non-finite pivot raises
    np.linalg.LinAlgError, which cannot happen for a positive definite matrix
    but can for an indefinite one.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray):
        diag = np.asarray(diag, dtype=float)
        off = np.asarray(off, dtype=float)
        if diag.ndim != 1 or off.shape != (max(diag.size - 1, 0),):
            raise ValueError("need a diagonal of length n and an off-diagonal of length n - 1")
        self.size = diag.size
        # per level: pivots, couplings of each kept unknown to its left and
        # right eliminated neighbour, and those couplings over the pivots
        self.levels: list[tuple[np.ndarray, ...]] = []
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while diag.size:
                pivots, left, right = diag[0::2], off[0::2], off[1::2]
                n_kept, n_right = left.size, right.size
                left_mult = left / pivots[:n_kept]
                right_mult = right / pivots[1 : n_right + 1]
                self.levels.append((pivots, left, right, left_mult, right_mult))
                kept = diag[1::2] - left * left_mult
                kept[:n_right] -= right * right_mult
                off = -right_mult[: n_kept - 1] * left[1:n_kept]
                diag = kept
        self.pivots = np.concatenate([level[0] for level in self.levels] or [np.ones(0)])
        if not np.all(np.isfinite(self.pivots) & (self.pivots != 0.0)):
            raise np.linalg.LinAlgError("tridiagonal factorization met a zero or non-finite pivot")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solution for a right-hand side of shape (n,) or (n, k)."""
        b = np.asarray(rhs, dtype=float)
        if b.ndim not in (1, 2) or b.shape[0] != self.size:
            raise ValueError(f"need a right-hand side of shape ({self.size},) or ({self.size}, k)")
        # per-level coefficients scale rows: as they are for one right-hand
        # side, as columns for several
        rows = (slice(None),) if b.ndim == 1 else (slice(None), None)
        eliminated = []
        for _, left, right, left_mult, right_mult in self.levels:
            b_even = b[0::2]
            b = b[1::2] - left_mult[rows] * b_even[: left.size]
            b[: right.size] -= right_mult[rows] * b_even[1 : right.size + 1]
            eliminated.append(b_even)
        x = b
        for (pivots, left, right, _, _), b_even in zip(reversed(self.levels), reversed(eliminated)):
            x_even = b_even.copy()
            x_even[: left.size] -= left[rows] * x
            x_even[1 : right.size + 1] -= right[rows] * x[: right.size]
            x_even /= pivots[rows]
            full = np.empty((x_even.shape[0] + x.shape[0],) + x.shape[1:])
            full[0::2] = x_even
            full[1::2] = x
            x = full
        return x

    def negative_count(self) -> int:
        """Number of negative eigenvalues of the matrix (Sylvester's law of inertia)."""
        return int((self.pivots < 0.0).sum())


def _solve_free(matrix: Tridiagonal, free: slice, rhs: np.ndarray) -> tuple[np.ndarray, int] | None:
    """matrix^-1 rhs on the free rows (0 elsewhere), their negative count (_CyclicReduction), or None at a bad pivot."""
    lo, hi = free.start, free.stop
    try:
        factor = _CyclicReduction(matrix[0][lo:hi], matrix[1][lo : hi - 1])
    except np.linalg.LinAlgError:
        return None
    x = np.zeros(rhs.shape)
    x[lo:hi] = factor.solve(rhs[lo:hi])
    return x, factor.negative_count()


def smallest_eigenpair(stiffness: Tridiagonal, mass: Tridiagonal) -> tuple[float, np.ndarray]:
    """Smallest generalized eigenvalue of (stiffness, mass) and its eigenvector: the P1 reference.

    Both matrices are symmetric tridiagonal, given as (diag, off) pairs of
    numpy arrays of lengths n and n - 1, with mass positive definite and
    lambda_1 > -1.  lambda_1 is found by bisection on inertia (Barth, Martin
    and Wilkinson, Numer. Math. 9 (1967) 386-393): S - mu M has no negative
    eigenvalue for mu < lambda_1 and at least one above it, and
    _CyclicReduction counts them.  The bracket starts at [-1, Rayleigh
    quotient of the all-ones vector] and is halved until its ends are
    adjacent floats; a zero pivot at mu means mu is an eigenvalue and closes
    the bracket from above.  Its upper end is returned.  Three solves with
    the factorization at the lower end, within an ulp of lambda_1, give the
    eigenvector, M-normalized with nonnegative weighted mean.
    """
    S = tuple(np.asarray(a, dtype=float) for a in stiffness)
    M = tuple(np.asarray(a, dtype=float) for a in mass)
    (s_diag, s_off), (m_diag, m_off) = S, M
    if m_diag.shape != s_diag.shape or m_off.shape != s_off.shape:
        raise ValueError("stiffness and mass must be tridiagonal matrices of equal size")

    def shifted(mu: float) -> _CyclicReduction:
        return _CyclicReduction(s_diag - mu * m_diag, s_off - mu * m_off)

    lo, lower = -1.0, shifted(-1.0)
    if lower.negative_count():
        raise ValueError("need a smallest eigenvalue above -1")
    v = np.ones(s_diag.size)
    hi = float(_matvec(S, v).sum() / _matvec(M, v).sum())
    while lo < (mu := 0.5 * (lo + hi)) < hi:
        try:
            factor = shifted(mu)
        except np.linalg.LinAlgError:  # a zero pivot: mu is an eigenvalue
            hi = mu
            continue
        if factor.negative_count():
            hi = mu
        else:
            lo, lower = mu, factor
    for _ in range(3):
        v = lower.solve(_matvec(M, v))
        v /= math.sqrt((v * _matvec(M, v)).sum())
    if _matvec(M, v).sum() < 0:
        v = -v
    return hi, v


class _RuleSums:
    """The quotient's integrals as weighted sums over the nodes of a rule.

    A discretization of a problem sets the rule weights w (the angular
    weight folded in), and supplies fields(v): phi and phi' at the nodes
    for its coefficient vector v, and sample(v, theta): the profile at the
    angles theta.  value(v) gives the quotient E/D at H^2, and
    udelta_sums(v, Gs) E and its G-derivative at each G, and D, for the
    certifier; both read sum_fields(v), which a discretization whose E and
    D need different fields and rules (hp._HpDiscretization) overrides.
    """

    w: np.ndarray

    def __init__(self, problem: _SphericalProblem):
        self.problem = problem
        self.p, self.H2 = problem.p, problem.H2

    def fields(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def energy(self, phi: np.ndarray, dphi: np.ndarray, H2: float) -> tuple[np.ndarray, float]:
        """Density e2 = phi'^2 + H2 phi^2 at the nodes and E = int w e2^(p/2)."""
        e2 = dphi**2 + H2 * phi**2
        return e2, (self.w * e2 ** (self.p / 2)).sum()

    def energy_and_slope(self, phi: np.ndarray, dphi: np.ndarray, G: float) -> tuple[float, float]:
        """E = int w e2^(p/2) and dE/dG = p G int w e2^(p/2-1) phi^2 at H = G.

        Nodes with e2 = 0 add 0 to dE/dG, their limit for p > 1 (phi = 0
        there unless G = 0), where e2^(p/2-1) itself is inf for p < 2.
        """
        e2, energy = self.energy(phi, dphi, G**2)
        return energy, self.p * G * (self.w * _positive_power(e2, self.p / 2 - 1.0) * phi**2).sum()

    def mass(self, phi: np.ndarray) -> float:
        """D = int w |phi|^p."""
        return (self.w * np.abs(phi) ** self.p).sum()

    def sum_fields(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """phi and phi' at E's nodes, and D, for the coefficients v."""
        phi, dphi = self.fields(v)
        return phi, dphi, self.mass(phi)

    def udelta_sums(self, v: np.ndarray, Gs: tuple[float, ...]) -> tuple[list[tuple[float, float]], float]:
        """(E, dE/dG) at H = G for each G of Gs (see energy_and_slope), and D, for the coefficients v.

        E is value()'s sum at H^2 = G^2, bit for bit; the slopes take one more
        reduction each, which the descent's value() never pays.
        """
        phi, dphi, mass = self.sum_fields(v)
        return [self.energy_and_slope(phi, dphi, G) for G in Gs], mass

    def value(self, v: np.ndarray) -> float:
        """The quotient E/D, E = int w (phi'^2 + H^2 phi^2)^(p/2), for the coefficients v."""
        phi, dphi, mass = self.sum_fields(v)
        return self.energy(phi, dphi, self.H2)[1] / mass


class _ExactProfile(_RuleSums):
    """The extremal profile phi = c cos^s theta on [0, pi/2], in one Gauss-Jacobi node (_SphericalProblem.exact_node).

    Its u_delta sums, at the coefficient 1 that solve_M gives it, are the problem's
    (_SphericalProblem.udelta_sums), so the certifier and the command line, which
    solves nothing, give the same bits.
    """

    def __init__(self, problem: _SphericalProblem):
        super().__init__(problem)
        self.w, self.phi, self.dphi = (np.array([value]) for value in problem.exact_node)

    def fields(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi and phi' at the rule's node for the coefficient c (shape (1,))."""
        return self.phi * c, self.dphi * c

    def udelta_sums(self, c: np.ndarray, Gs: tuple[float, ...]) -> tuple[list[tuple[float, float]], float]:
        return self.problem.udelta_sums(Gs)

    def sample(self, c: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """The profile at the angles theta, exactly 0 at a Dirichlet pi/2 (s > 0)."""
        return c * np.sin(HALF_PI - theta) ** self.problem.s


class _Discretization(_RuleSums):
    """P1 elements on a mesh, with per-element quadrature.

    Holds the mesh, one composite rule reshaped to (n_elements, nq), the
    shape values n1, n2 at its nodes and the free nodes (not the Dirichlet
    ends of problem.domain).  The p = 2 matrices, the discrete quotient
    Q(phi), the descent's Newton system (newton_system: Q, its analytic
    nodal gradient and Hessian terms in one pass) and the certifier's
    u_delta sums are all sums over these nodes and weights.
    """

    def __init__(self, problem: _SphericalProblem, mesh: np.ndarray, rule: QuadratureRule):
        super().__init__(problem)
        theta_q = rule.nodes.reshape(mesh.size - 1, -1)
        self.mesh = mesh
        self.h = h = np.diff(mesh)
        self.n1 = (mesh[1:, None] - theta_q) / h[:, None]
        self.n2 = (theta_q - mesh[:-1, None]) / h[:, None]
        self.w = rule.weights.reshape(theta_q.shape)
        domain = problem.domain
        self.free = slice(1 if domain.bc1 is DIRICHLET else 0,
                          mesh.size - 1 if domain.bc2 is DIRICHLET else mesh.size)
        self.mask = np.zeros(mesh.size)
        self.mask[self.free] = 1.0

    @classmethod
    def graded(cls, problem: _SphericalProblem, mesh_size: int) -> "_Discretization":
        """The discretization of one solve, on its graded mesh of mesh_size elements."""
        mesh = _solve_mesh(problem, mesh_size)
        # composite_rule reads only the weight's exponents, not its prefactor
        rule = composite_rule(AngularWeight(problem.ka - 1.0, problem.dk - 1.0, 1.0), mesh)
        return cls(problem, mesh, rule)

    def sample(self, v: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """The piecewise-linear profile of nodal values v at the angles theta: v itself at the nodes."""
        return np.interp(theta, self.mesh, v)

    def p2_matrices(self) -> tuple[Tridiagonal, Tridiagonal]:
        """Stiffness int w phi_i' phi_j' and mass int w phi_i phi_j on the free nodes, as (diag, off)."""
        w = self.w
        stiff = _element_sums(w) / self.h**2
        stiff_diag = _scatter(stiff, stiff)
        mass_diag = _scatter(_element_sums(w * self.n1 * self.n1), _element_sums(w * self.n2 * self.n2))
        mass_off = _element_sums(w * self.n1 * self.n2)
        lo, hi = self.free.start, self.free.stop
        return (stiff_diag[lo:hi], -stiff[lo : hi - 1]), (mass_diag[lo:hi], mass_off[lo : hi - 1])

    def fields(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi and phi' at the rule's nodes, as (n_elements, nq), for nodal values v."""
        phi = v[:-1, None] * self.n1 + v[1:, None] * self.n2
        dphi = np.broadcast_to(((v[1:] - v[:-1]) / self.h)[:, None], phi.shape)
        return phi, dphi

    def newton_system(
        self, v: np.ndarray
    ) -> tuple[float, np.ndarray, Tridiagonal, float, np.ndarray, Callable[[], Tridiagonal]]:
        """Q, grad Q, K = hess E - Q hess D, D, grad D and hess E at v, from one pass over the rule.

        grad Q and grad D are nodal, grad Q zero at Dirichlet nodes; K is
        tridiagonal over all nodes.  Each element couples its two nodes only.
        With the gradients taken in its nodal values (v_L, v_R) at each rule
        node, de2 = (-2 phi'/h + 2 H^2 phi n1, 2 phi'/h + 2 H^2 phi n2),
        dphi' = (-1/h, 1/h) and dphi = (n1, n2), its entries are the weighted
        sums of
            grad E:  p e2^(p/2-1) (phi' dphi' + H^2 phi dphi),
            grad D:  p |phi|^(p-1) sign(phi) dphi,
            hess E:  (p/2)(p/2-1) e2^(p/2-2) de2 de2^T
                     + p e2^(p/2-1) (dphi' dphi'^T + H^2 dphi dphi^T),
            hess D:  p(p-1) |phi|^(p-2) dphi dphi^T,
        and grad Q = (grad E - Q grad D) / D.  hess E is a callable that
        forms it on demand from the pass's terms: the same sums as K with its
        hess D term dropped, bit for bit the K of a pass at multiplier 0.
        """
        p, H2, w, n1, n2 = self.p, self.H2, self.w, self.n1, self.n2
        phi, dphi = self.fields(v)
        e2, num = self.energy(phi, dphi, H2)
        den = self.mass(phi)
        q = num / den
        e_pow1 = _positive_power(e2, p / 2 - 1.0)
        e_pow2 = _positive_power(e2, p / 2 - 2.0)
        phi_pow1 = np.where(phi != 0.0, np.abs(phi) ** (p - 1.0) * np.sign(phi), 0.0)
        phi_pow2 = _positive_power(np.abs(phi), p - 2.0)
        c_curv = w * p * e_pow1
        c_phi = c_curv * H2 * phi
        c_dphi = _element_sums(c_curv * dphi) / self.h
        grad_e = _scatter(_element_sums(c_phi * n1) - c_dphi, _element_sums(c_phi * n2) + c_dphi)
        c_den = w * p * phi_pow1
        grad_d = _scatter(_element_sums(c_den * n1), _element_sums(c_den * n2))

        dphi_h = dphi / self.h[:, None]
        de2_l = -2.0 * dphi_h + 2.0 * H2 * phi * n1
        de2_r = 2.0 * dphi_h + 2.0 * H2 * phi * n2
        c_outer = w * (p / 2) * (p / 2 - 1.0) * e_pow2
        c_grad = _element_sums(c_curv) / self.h**2
        c_value_e = c_curv * H2
        hessian = self._hessian(c_outer, de2_l, de2_r, c_value_e - q * w * p * (p - 1.0) * phi_pow2, c_grad)
        hess_e = partial(self._hessian, c_outer, de2_l, de2_r, c_value_e, c_grad)
        return q, (grad_e - q * grad_d) / den * self.mask, hessian, den, grad_d, hess_e

    def _hessian(self, c_outer, de2_l, de2_r, c_value, c_grad) -> Tridiagonal:
        """The tridiagonal sum of c_outer de2 de2^T + c_value dphi dphi^T + c_grad dphi' dphi'^T h^2 over the rule."""
        n1, n2 = self.n1, self.n2
        k_ll = _element_sums(c_outer * de2_l * de2_l + c_value * n1 * n1) + c_grad
        k_rr = _element_sums(c_outer * de2_r * de2_r + c_value * n2 * n2) + c_grad
        k_lr = _element_sums(c_outer * de2_l * de2_r + c_value * n1 * n2) - c_grad
        return _scatter(k_ll, k_rr), k_lr

    def solve(self, matrix: Tridiagonal, rhs: np.ndarray) -> tuple[np.ndarray, int] | None:
        """matrix^-1 rhs (n x 2), 0 at Dirichlet nodes, and the free block's negative count, or None (_solve_free)."""
        return _solve_free(matrix, self.free, rhs)

    def normalize(self, v: np.ndarray) -> np.ndarray:
        """Project to the nonnegative cone, apply Dirichlet data, unit p-norm."""
        v = np.abs(v) * self.mask
        den = self.mass(self.fields(v)[0])
        if den <= 0.0 or not np.isfinite(den):
            raise ValueError("degenerate profile: zero after Dirichlet projection")
        return v / den ** (1.0 / self.p)


def assemble_p2(
    params: HardyParams, domain: AngularDomain, mesh_size: int
) -> tuple[Tridiagonal, Tridiagonal, np.ndarray]:
    """P1 finite-element matrices of the weighted eigenproblem: the P1 reference's input.

    Returns (stiffness, mass, mesh) with stiffness[i,j] = int w phi_i' phi_j',
    mass[i,j] = int w phi_i phi_j on the graded mesh of mesh_size elements,
    each a symmetric tridiagonal (diag, off) pair; Dirichlet endpoint
    rows/columns are eliminated, so the matrices act on the free nodes of the
    returned mesh.
    """
    disc = _Discretization.graded(_SphericalProblem.of(params, domain), mesh_size)
    return (*disc.p2_matrices(), disc.mesh)


def _cosine_profile(problem: _SphericalProblem, mesh: np.ndarray) -> np.ndarray:
    """cos^s theta, times sin(theta - theta1) at a Dirichlet theta1 and, for s = 0, sin(theta2 - theta)."""
    s, domain = problem.s, problem.domain
    v = np.cos(mesh) ** s
    if domain.bc1 is DIRICHLET:
        v = v * np.sin(mesh - domain.theta1)
    if domain.bc2 is DIRICHLET and s == 0.0:
        v = v * np.sin(domain.theta2 - mesh)
    return v


def _descend(
    disc: _Discretization, v: np.ndarray, tol: float, max_iter: int,
    try_small_steps: bool = True,
) -> tuple[float, np.ndarray, int, float]:
    """Newton descent of the discrete quotient on the surface {D = const}: Q, iterate, steps, decrement.

    disc is a _Discretization (P1) or an hp._HpDiscretization.  One pass
    over the rule per iterate stepped from (disc.newton_system) gives Q,
    grad Q and the Hessian terms; disc.solve gives K^-1 [D grad Q, grad D]
    and K's negative-eigenvalue count, and _bordered_step the Newton step of
    Q on D = const.  A line-search trial costs Q alone.  If that step is
    singular, non-finite, has the wrong inertia or is not a descent
    direction, the step with hess E (a callable from the same pass) is
    taken, with the count 0: E is convex, so
    grad Q . d = d^T hess E d / D > 0 wherever grad Q != 0, and a failed one
    raises ConvergenceError.  grad Q exactly 0 ends the descent.
    Backtracking line search from a full step; disc.normalize brings each
    trial back to unit weighted p-norm.  Stops right after the line search,
    with no pass at the accepted trial (disc.value gave its Q, the same sum),
    when the relative decrease of Q drops below tol and the relative step
    decrement sqrt(grad Q . d) / Q below DESCENT_GRAD_TOL.  A failed line
    search stops it too if the decrement is below DESCENT_GRAD_TOL or a full
    step would lower Q by less than tol; otherwise it raises
    ConvergenceError, as do max_iter steps.  Without try_small_steps such a
    step is not tried: the descent stops before its line search, which at
    Q's rounding floor would halve the step 60 times.
    """
    v = disc.normalize(v)
    q, g, hessian, den, grad_d, hess_e = disc.newton_system(v)
    decrement = math.inf
    for iterations in range(1, max_iter + 1):
        rhs = np.stack([den * g, grad_d], axis=1)
        solved = disc.solve(hessian, rhs)
        direction = None if solved is None else _bordered_step(solved[0], grad_d, solved[1])
        slope = (g * direction).sum() if direction is not None else math.nan
        if not slope > 0.0:
            if not g.any():  # stationary: nothing to descend
                decrement = 0.0
                break
            solved = disc.solve(hess_e(), rhs)  # positive semidefinite: any negative count is rounding
            direction = None if solved is None else _bordered_step(solved[0], grad_d, 0)
            slope = (g * direction).sum() if direction is not None else math.nan
            if not slope > 0.0:
                raise ConvergenceError("quotient descent: the hess E step failed", residual=decrement)
        decrement = math.sqrt(slope) / max(abs(q), 1e-300)
        if not try_small_steps and slope < tol * abs(q) and decrement < DESCENT_GRAD_TOL:
            break
        eta = 1.0
        for _ in range(60):
            trial = disc.normalize(v - eta * direction)
            q_trial = disc.value(trial)
            if q_trial < q - 1e-4 * eta * slope:
                break
            eta *= 0.5
        else:
            if decrement < DESCENT_GRAD_TOL or slope < tol * abs(q):  # Q at its (rounding) floor
                break
            raise ConvergenceError(f"quotient descent stuck (relative decrement {decrement:.3e})",
                                   residual=decrement)
        rel_dec = (q - q_trial) / max(abs(q), 1e-300)
        v, q = trial, q_trial
        if rel_dec < tol and decrement < DESCENT_GRAD_TOL:
            break
        q, g, hessian, den, grad_d, hess_e = disc.newton_system(v)
    else:
        raise ConvergenceError(
            f"quotient descent did not converge in {max_iter} iterations "
            f"(last relative decrement {decrement:.3e})",
            residual=decrement,
        )
    return q, v, iterations, decrement


def minimize_rayleigh_p(params: HardyParams, domain: AngularDomain, mesh_size: int) -> SpectralResult:
    """Minimize the discrete P1 quotient by Newton steps on the surface {D = const} (see _descend).

    With P1 elements the Hessians of E and D are tridiagonal, so each step
    is one tridiagonal solve with two right-hand sides (_solve_free).
    Iterates are clamped to the nonnegative cone before they are renormalized.  The tolerance is
    DESCENT_TOL, at most MAX_DESCENT_ITER steps are taken, and the last
    relative step decrement sqrt(grad Q . d) / Q is the returned residual.
    The start is _cosine_profile.  The mesh has mesh_size elements, graded
    toward pi/2, and the minimizer holds that discretization and its nodal
    values.
    """
    problem = _SphericalProblem.of(params, domain)
    disc = _Discretization.graded(problem, mesh_size)
    q, v, iterations, decrement = _descend(disc, _cosine_profile(problem, disc.mesh), DESCENT_TOL, MAX_DESCENT_ITER)
    return SpectralResult._of(problem, q, _Minimizer(disc, v, mesh_size), iterations, decrement)


def solve_M(
    params: HardyParams,
    cone: ConeSpec,
    mesh_size: int = 512,
) -> SpectralResult:
    """Spherical minimum M of the cone: the exact profile where it is known, hp or P1 otherwise.

    Where _SphericalProblem.exact_profile names the extremal profile (on
    [0, pi/2]: a natural pi/2, or a Dirichlet pi/2 at p = 2) the result is
    SpectralResult.exact, and the minimizer holds that profile at
    coefficient 1 in its one-node rule (_ExactProfile).  Otherwise the quotient is minimized in
    hp elements (_hp_solve) for p != 2 on [0, pi/2] and p = 2 on a band.
    mesh_size then only sets the mesh the minimizer is sampled on, when its
    mesh or values are first read.  Where hp fails its check, and on every
    band for p != 2, the quotient is minimized with P1 elements on a mesh of
    mesh_size elements graded toward pi/2 (minimize_rayleigh_p).
    """
    domain = bc_for_cone(params, cone)
    problem = _SphericalProblem.of(params, domain)
    _require_mesh_size(mesh_size)
    if problem.exact_profile is not None:
        return SpectralResult.exact(problem, _Minimizer(_ExactProfile(problem), np.ones(1), mesh_size))
    if params.p == 2 or (domain.theta1, domain.theta2) == (0.0, HALF_PI):
        from .hp import _hp_solve  # an exact or P1-only process never pays to compile hp

        try:
            return _hp_solve(problem, mesh_size)
        except ConvergenceError:
            pass
    return minimize_rayleigh_p(params, domain, mesh_size)
