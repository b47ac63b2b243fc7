"""Minimization of the weighted quotient on the spherical cross-section.

For an axisymmetric cone the sharp constant equals the minimum over angular
profiles phi(theta) of

    Q(phi) = int w ((phi')^2 + H^2 phi^2)^(p/2) dtheta / int w |phi|^p dtheta,

w(theta) = cos^(k+a-1) sin^(d-k-1).  For p = 2 this is the eigenvalue problem

    -(w phi')' = lambda w phi,      M = lambda_1 + H^2.

At p = 2 it is solved spectrally on every cross-section [theta1, theta2]:
phi = cos^s theta * l(x) * g(x), with x the affine image of t = cos 2 theta
on [-1, 1], g a Legendre series, l vanishing at an interior Dirichlet end,
and s the boundary-layer exponent 2 - (k+a) at a Dirichlet end pi/2 (0
otherwise).  In x the weight w dtheta is a Jacobi weight at an end that
reaches a pole and smooth at an interior one; a Gauss-Jacobi rule whose
exponents absorb the pole powers integrates the stiffness and mass of the
basis, exactly on [0, pi/2].  The dense generalized eigenproblem is solved
at N = 4, 8, ... basis functions until consecutive eigenvalues agree (Guo,
Shen and Wang, Appl. Numer. Math. 59 (2009); Shen, Tang and Wang, Spectral
Methods (2011), ch. 3).  The minimizer keeps the Legendre coefficients;
its samples on the graded mesh of the requested size are computed when they
are first read, which no closed-form comparison and no spectral certificate
needs.

For p != 2 on the cross-section [0, pi/2] the quotient is minimized in hp
spectral elements, phi = cos^s theta * g with g piecewise polynomial on a
mesh graded geometrically toward both ends (the hp module, imported only
for such a solve), and accepted when a solve on a finer nested mesh
agrees to 1e-10, or on a near miss when a third, finer again, agrees with
the second.  Where a check fails (factored: bands with an interior end
near a pole; hp: a few cells with tiny M or p near 1), and for
p != 2 on every band, the profile is discretized with piecewise-linear
finite elements on a mesh graded toward the singular end theta = pi/2.
Both p != 2 discretizations are minimized by one descent (_descend):
Newton steps on the surface {int w |phi|^p = const}.  With P1 elements
the Hessians of the two integrals are tridiagonal, so each step is one
tridiagonal solve with two right-hand sides; where that step is singular,
the bordered matrix has other than one negative eigenvalue (counted from
the same factorization) or the step is not a descent direction, the same
system with hess E (positive semidefinite: E is convex) in place of
hess E - Q hess D gives it, formed from the pass the step already made.
The P1 descent starts from cos^s theta; a stuck one raises
ConvergenceError.  Its residual is the relative step decrement
sqrt(grad Q . d) / Q of the last step.  At p = 2,
assemble_p2 and smallest_eigenpair (bisection on the inertia of S - mu M)
give the P1 reference value.

The private solvers take the cell's 1-D problem as one _SphericalProblem,
whose s is the one boundary-layer exponent at pi/2.  Its graded mesh comes
from _solve_mesh, graded by _auto_gamma to match s.

Every P1 matrix is symmetric tridiagonal and is kept as a (diag, off) pair
of numpy arrays.  One kernel solves all of them: odd-even cyclic reduction,
vectorized over each level, which factors once, solves many right-hand sides
and counts negative eigenvalues from its pivots (Sylvester inertia).  Dot
products and norms are fixed-order numpy sums, never BLAS calls, and the
spectral matrices and their products are formed by einsum, which sums in a
fixed order without BLAS; only the dense Cholesky, inverse and eigh of at
most 64 x 64 matrices go to LAPACK.  Reports come out byte-identical at one
and two BLAS threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .params import (
    ConeKind,
    ConeSpec,
    HardyParams,
    hardy_exponent,
    require_admissible,
)
from .quadrature import AngularWeight, QuadratureRule, _gauss_jacobi, composite_rule

HALF_PI = math.pi / 2
MIN_MESH_SIZE = 16  # fewest elements a solve accepts
MAX_DESCENT_ITER = 100_000  # descent steps before ConvergenceError
DESCENT_TOL = 1e-9  # relative decrease of Q per descent step at convergence
DESCENT_GRAD_TOL = 1e-6  # relative step decrement sqrt(grad Q . d) / Q at convergence
FACTORED_MAX_SIZE = 64  # largest spectral basis before ConvergenceError
FACTORED_TOL = 1e-12  # agreement of consecutive spectral eigenvalues

Tridiagonal = tuple[np.ndarray, np.ndarray]  # symmetric: (diagonal, off-diagonal)


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; carries the last residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class BoundaryCondition(str, Enum):
    DIRICHLET = "dirichlet"
    NATURAL = "natural"


DIRICHLET = BoundaryCondition.DIRICHLET
NATURAL = BoundaryCondition.NATURAL


@dataclass(frozen=True)
class AngularDomain:
    """A polar-angle interval with an endpoint condition at each end.

    Natural (no-flux) conditions are imposed weakly and mark coordinate poles
    interior to the cone; Dirichlet marks genuine cross-section boundary.
    """

    theta1: float
    theta2: float
    bc1: BoundaryCondition
    bc2: BoundaryCondition

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta1 < self.theta2 <= HALF_PI):
            raise ValueError(f"need 0 <= theta1 < theta2 <= pi/2, got ({self.theta1}, {self.theta2})")


class _SphericalProblem(NamedTuple):
    """p, k+a, d-k, H^2 and the cross-section: all a solve reads, so equal problems solve alike.

    A NamedTuple hashes by value, and costs no dataclass import time.
    """

    p: float
    ka: float
    dk: int
    H2: float
    domain: AngularDomain

    @classmethod
    def of(cls, params: HardyParams, domain: AngularDomain) -> "_SphericalProblem":
        return cls(params.p, params.k + params.a, params.d - params.k, hardy_exponent(params).H ** 2, domain)

    @property
    def s(self) -> float:
        """Boundary-layer exponent: phi ~ cos^s theta, s = (p - (k+a)) / (p - 1), at a Dirichlet pi/2; else 0."""
        if self.domain.theta2 != HALF_PI or self.domain.bc2 is not DIRICHLET:
            return 0.0
        return (self.p - self.ka) / (self.p - 1.0)


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


class _SpectralFunction(DiscretizedFunction):
    """A profile held as its problem, which fixes s, and its coefficients in a spectral basis.

    The certifier integrates the profile in that basis, with the rule of
    discretization().  mesh (the graded mesh of mesh_size elements that a
    P1 solve would use) and values (the profile at its nodes, from sample)
    serve interpolation and plotting, and each is computed when first read,
    so a solve whose minimizer is never sampled builds neither; a pickle
    carries whichever has been read.  Plain subclasses: creating one more
    dataclass would cost every process about a millisecond of import time.
    """

    def __init__(self, problem: _SphericalProblem, coefficients: np.ndarray, mesh_size: int):
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "mesh_size", mesh_size)

    def discretization(self) -> _RuleSums:
        raise NotImplementedError

    def sample(self, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    @cached_property
    def mesh(self) -> np.ndarray:
        return _solve_mesh(self.problem, self.mesh_size)

    @cached_property
    def values(self) -> np.ndarray:
        return self.sample(self.mesh)


class _FactoredFunction(_SpectralFunction):
    """A factored profile (see _FactoredDiscretization): Legendre coefficients."""

    def discretization(self) -> _FactoredDiscretization:
        return _FactoredDiscretization(self.problem, self.coefficients.size)

    def sample(self, theta: np.ndarray) -> np.ndarray:
        return _factored_sample(self.problem, self.coefficients, theta)


@dataclass(frozen=True, eq=False)
class SpectralResult:
    """Computed spherical minimum M, eigenvalue (p = 2), and minimizer.

    iterations and residual describe the solve.  After a spectral solve
    (p = 2) they are the number of dense eigensolves and the difference of
    the last two eigenvalues (basis size N against N/2); after an hp solve
    (p != 2 on [0, pi/2]) the Newton iterations of its two or three
    descents and the change of M between the last two.  After either, the
    minimizer samples itself on its mesh when its mesh or values are first
    read.  After a P1 descent (minimize_rayleigh_p: p != 2 on a band, or
    where the spectral or hp check failed), they are the descent steps and
    the relative step decrement sqrt(grad Q . d) / Q of the last step.
    """

    M: float
    lam: float | None
    minimizer: DiscretizedFunction
    iterations: int
    residual: float


def bc_for_cone(params: HardyParams, cone: ConeSpec) -> AngularDomain:
    """Endpoint conditions of the cross-section of an admissible cone.

    theta = pi/2 is Dirichlet where {y = 0} was removed, except in the
    superdegenerate regime k+a >= p where the removed set has zero weighted
    p-capacity and the natural condition takes over.
    """
    superdeg = require_admissible(params, cone).superdegenerate
    kind = cone.kind
    if kind in (ConeKind.FULL_SPACE, ConeKind.PUNCTURED_SPACE):
        return AngularDomain(0.0, HALF_PI, NATURAL, NATURAL)
    if kind in (ConeKind.COMPLEMENT_SIGMA0, ConeKind.HALF_SPACE):
        bc2 = NATURAL if superdeg else DIRICHLET
        return AngularDomain(0.0, HALF_PI, NATURAL, bc2)
    bc1 = NATURAL if cone.theta1 == 0.0 else DIRICHLET
    if cone.theta2 == HALF_PI:
        bc2 = NATURAL if superdeg else DIRICHLET
    else:
        bc2 = DIRICHLET
    return AngularDomain(cone.theta1, cone.theta2, bc1, bc2)


def grading_cap(n: int) -> float:
    """Largest usable grading exponent: keeps the last element above ~64 ulp of pi/2."""
    return 32.2 / math.log(n)


def graded_mesh(theta1: float, theta2: float, n: int, gamma: float = 2.0) -> np.ndarray:
    """Mesh of n elements, clustered toward theta2 = pi/2 as (1 - j/n)^gamma.

    Away from the singular end (theta2 < pi/2) the mesh is uniform.
    """
    if n < 2:
        raise ValueError("need at least 2 elements")
    j = np.arange(n + 1) / n
    if theta2 == HALF_PI:
        gamma = min(gamma, grading_cap(n))
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
    return 2.0 if s == 0.0 else min(max(2.0, 2.4 / s), grading_cap(n))


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

    A discretization sets the rule weights w (the angular weight folded in),
    p and H2, and supplies fields(v): phi and phi' at the nodes for its
    coefficient vector v.  value(v) gives the quotient E/D at H^2, and
    udelta_sums(v, Gs) E and its G-derivative at each G, and D, for the
    certifier; both read sum_fields(v), which a discretization whose E and
    D need different fields and rules (hp._HpDiscretization) overrides.
    """

    w: np.ndarray
    p: float
    H2: float

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
        with np.errstate(divide="ignore"):
            e_pow1 = np.where(e2 > 0.0, e2 ** (self.p / 2 - 1.0), 0.0)
        return energy, self.p * G * (self.w * e_pow1 * phi**2).sum()

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


def _legendre(t: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """P_j(t) and P_j'(t) for j < size, as (t.size, size) arrays, by the three-term recurrences."""
    P = np.empty((t.size, size))
    dP = np.empty_like(P)
    P[:, 0], dP[:, 0] = 1.0, 0.0
    if size > 1:
        P[:, 1], dP[:, 1] = t, 1.0
    for j in range(1, size - 1):
        P[:, j + 1] = ((2 * j + 1) * t * P[:, j] - j * P[:, j - 1]) / (j + 1)
        dP[:, j + 1] = dP[:, j - 1] + (2 * j + 1) * P[:, j]
    return P, dP


def _legendre_series(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_j c_j P_j(t) by Clenshaw's recurrence.

    On a fine sampling mesh this costs a few array operations per term,
    where forming every P_j(t) as _legendre does costs several times more.
    """
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for j in range(c.size - 1, 0, -1):
        b1, b2 = c[j] + (2 * j + 1) / (j + 1) * t * b1 - (j + 1) / (j + 2) * b2, b1
    return c[0] + t * b1 - 0.5 * b2


class _FactoredDiscretization(_RuleSums):
    """phi = cos^s theta * l(x) * sum_j c_j P_j(x), j < size, on the cross-section [theta1, theta2].

    x maps t = cos 2 theta affinely from [cos 2 theta2, cos 2 theta1] onto
    [-1, 1], t = cos 2 theta2 + (1 + x) h; l(x) has a factor 1 + x at a
    Dirichlet theta2 < pi/2 and 1 - x at a Dirichlet theta1 > 0.  With
    A = (d-k-2)/2 and B = (k+a-2)/2, w dtheta = ((1+t)/2)^B ((1-t)/2)^A h dx / 4
    and phi' = -sin theta cos^(s-1) theta (s l g + 2 (1+t) (l g)' / h).
    1 + t = lo + (1 + x) h and 1 - t = hi + (1 - x) h, where lo = 2 cos^2
    theta2 and hi = 2 sin^2 theta1 are exactly 0 at a pole: neither cancels.
    The rule is Gauss-Jacobi in x, with exponent A at x = 1 where theta1 = 0
    and, where theta2 = pi/2, B + s - 1 = -(k+a)/2 at x = -1 if s = 2 - (k+a)
    > 0, else B; an interior end gets exponent 0.  w holds the rule's weights
    with the rest of the angular weight and h folded in, so sums over the
    nodes are integrals in theta, as in the P1 discretization.  On [0, pi/2]
    (h = 1, l = 1) the mass and stiffness integrands are polynomials of
    degree at most 2 size - 1 against the rule's weight, which size points
    integrate exactly.  An interior end leaves a smooth but not polynomial
    weight, and the rule has 2 size points (with size points an
    interior-Dirichlet mass matrix can be singular).  The nodes are interior
    to (-1, 1), so cos theta > 0 there even when s = 0.
    """

    def __init__(self, problem: _SphericalProblem, size: int):
        s = problem.s
        lo, hi, h, (e2, e1) = _section_coordinates(problem.domain)
        alpha_w = (problem.dk - 2) / 2
        beta_w = (problem.ka - 2) / 2
        alpha = 0.0 if hi else alpha_w
        beta = 0.0 if lo else (beta_w + s - 1.0 if s > 0 else beta_w)
        x, wx = _gauss_jacobi(2 * size if lo or hi else size, alpha, beta)
        one_plus_t = lo + (1.0 + x) * h
        one_minus_t = hi + (1.0 - x) * h
        self.w = (wx * (2.0 ** -(alpha_w + beta_w) / 4 * h ** (1.0 + alpha + beta))
                  * one_plus_t ** (beta_w - beta) * one_minus_t ** (alpha_w - alpha))
        cos = np.sqrt(one_plus_t / 2)
        sin = np.sqrt(one_minus_t / 2)
        ell = ((1.0 + x) ** e2 * (1.0 - x) ** e1)[:, None]
        dell = (e2 * (1.0 - x) ** e1 - e1 * (1.0 + x) ** e2)[:, None]
        P, dP = _legendre(x, size)
        self.basis = cos[:, None] ** s * (ell * P)
        self.dbasis = -(sin * cos ** (s - 1.0))[:, None] * (
            s * (ell * P) + 2.0 * (one_plus_t / h)[:, None] * (dell * P + ell * dP))
        self.p = problem.p
        self.H2 = problem.H2

    def fields(self, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi and phi' at the rule's nodes for the Legendre coefficients c."""
        return (self.basis * c).sum(axis=1), (self.dbasis * c).sum(axis=1)

    def p2_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense stiffness int w phi_i' phi_j' and mass int w phi_i phi_j of the basis."""
        w = self.w[:, None]
        # einsum without optimize sums in a fixed order, with no BLAS call
        return (np.einsum("qi,qj->ij", w * self.dbasis, self.dbasis),
                np.einsum("qi,qj->ij", w * self.basis, self.basis))


def _section_coordinates(domain: AngularDomain) -> tuple[float, float, float, tuple[int, int]]:
    """lo = 1 + t at theta2 and hi = 1 - t at theta1 (exactly 0 at a pole), h, and l's exponents of 1 + x and 1 - x.

    See _FactoredDiscretization: t = cos 2 theta2 + (1 + x) h on the cross-section.
    """
    lo = 0.0 if domain.theta2 == HALF_PI else 2.0 * math.cos(domain.theta2) ** 2
    hi = 2.0 * math.sin(domain.theta1) ** 2
    h = math.sin(domain.theta2 + domain.theta1) * math.sin(domain.theta2 - domain.theta1)
    ends = (int(lo > 0.0 and domain.bc2 is DIRICHLET), int(hi > 0.0 and domain.bc1 is DIRICHLET))
    return lo, hi, h, ends


def _factored_sample(problem: _SphericalProblem, c: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The factored profile with Legendre coefficients c at the angles theta, exactly 0 at a Dirichlet end."""
    domain = problem.domain
    lo, hi, h, (e2, e1) = _section_coordinates(domain)
    cos_s = np.sin(HALF_PI - theta) ** problem.s  # 0 at pi/2 when s > 0
    if not (lo or hi):
        return cos_s * _legendre_series(c, np.cos(2.0 * theta))
    # 1 + x and 1 - x as products of sines, which vanish at theta2 and theta1
    plus = 2.0 * np.sin(domain.theta2 - theta) * np.sin(domain.theta2 + theta) / h
    minus = 2.0 * np.sin(theta - domain.theta1) * np.sin(theta + domain.theta1) / h
    return cos_s * plus**e2 * minus**e1 * _legendre_series(c, 0.5 * (plus - minus))


def _dense_ground_state(stiffness: np.ndarray, mass: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of the dense pencil (stiffness, mass) and its eigenvector.

    Cholesky M = L L^T turns the pencil into the symmetric L^-1 S L^-T,
    whose eigenpairs eigh returns.  The eigenvector c has c^T M c = 1 and
    its first entry of M c (the profile's weighted mean against the first,
    positive, basis function) is positive.
    """
    L_inv = np.linalg.inv(np.linalg.cholesky(mass))
    # products by einsum: fixed-order sums, no BLAS call
    reduced = np.einsum("ik,lk->il", np.einsum("ij,jk->ik", L_inv, stiffness), L_inv)
    lam, vectors = np.linalg.eigh(reduced)
    c = np.einsum("ji,j->i", L_inv, vectors[:, 0])
    if (mass[0] * c).sum() < 0:
        c = -c
    return float(lam[0]), c


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
        theta_q = rule.nodes.reshape(mesh.size - 1, -1)
        self.mesh = mesh
        self.h = h = np.diff(mesh)
        self.n1 = (mesh[1:, None] - theta_q) / h[:, None]
        self.n2 = (theta_q - mesh[:-1, None]) / h[:, None]
        self.w = rule.weights.reshape(theta_q.shape)
        self.p = problem.p
        self.H2 = problem.H2
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

    def expand_free(self, v: np.ndarray) -> np.ndarray:
        """Nodal values from the free-node values v, zero at Dirichlet nodes."""
        full = np.zeros(self.mesh.size)
        full[self.free] = v
        return full

    def _scatter(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """Nodal vector from each element's contributions to its left and right node."""
        out = np.zeros(self.mesh.size)
        out[:-1] += left
        out[1:] += right
        return out

    def p2_matrices(self) -> tuple[Tridiagonal, Tridiagonal]:
        """Stiffness int w phi_i' phi_j' and mass int w phi_i phi_j on the free nodes, as (diag, off)."""
        w = self.w
        stiff = _element_sums(w) / self.h**2
        stiff_diag = self._scatter(stiff, stiff)
        mass_diag = self._scatter(_element_sums(w * self.n1 * self.n1), _element_sums(w * self.n2 * self.n2))
        mass_off = _element_sums(w * self.n1 * self.n2)
        lo, hi = self.free.start, self.free.stop
        return (stiff_diag[lo:hi], -stiff[lo : hi - 1]), (mass_diag[lo:hi], mass_off[lo : hi - 1])

    def fields(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """phi and phi' at the rule's nodes, as (n_elements, nq), for nodal values v."""
        phi = v[:-1, None] * self.n1 + v[1:, None] * self.n2
        dphi = np.broadcast_to(((v[1:] - v[:-1]) / self.h)[:, None], phi.shape)
        return phi, dphi

    def newton_system(self, v: np.ndarray) -> tuple[float, np.ndarray, Tridiagonal, float, np.ndarray]:
        """Q, grad Q, K = hess E - Q hess D, D and grad D at v, from one pass over the rule.

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
        and grad Q = (grad E - Q grad D) / D.  The pass keeps the terms of
        hess E, which hess_e forms on demand.
        """
        p, H2, w, n1, n2 = self.p, self.H2, self.w, self.n1, self.n2
        phi, dphi = self.fields(v)
        e2, num = self.energy(phi, dphi, H2)
        den = self.mass(phi)
        q = num / den
        with np.errstate(divide="ignore", invalid="ignore"):
            e_pow1 = np.where(e2 > 0.0, e2 ** (p / 2 - 1.0), 0.0)
            e_pow2 = np.where(e2 > 0.0, e2 ** (p / 2 - 2.0), 0.0)
            phi_pow1 = np.where(phi != 0.0, np.abs(phi) ** (p - 1.0) * np.sign(phi), 0.0)
            phi_pow2 = np.where(phi != 0.0, np.abs(phi) ** (p - 2.0), 0.0)
        c_curv = w * p * e_pow1
        c_phi = c_curv * H2 * phi
        c_dphi = _element_sums(c_curv * dphi) / self.h
        grad_e = self._scatter(_element_sums(c_phi * n1) - c_dphi, _element_sums(c_phi * n2) + c_dphi)
        c_den = w * p * phi_pow1
        grad_d = self._scatter(_element_sums(c_den * n1), _element_sums(c_den * n2))

        dphi_h = dphi / self.h[:, None]
        de2_l = -2.0 * dphi_h + 2.0 * H2 * phi * n1
        de2_r = 2.0 * dphi_h + 2.0 * H2 * phi * n2
        c_outer = w * (p / 2) * (p / 2 - 1.0) * e_pow2
        c_grad = _element_sums(c_curv) / self.h**2
        c_value_e = c_curv * H2
        self._hess_e_terms = (c_outer, de2_l, de2_r, c_value_e, c_grad)
        hessian = self._hessian(c_outer, de2_l, de2_r, c_value_e - q * w * p * (p - 1.0) * phi_pow2, c_grad)
        return q, (grad_e - q * grad_d) / den * self.mask, hessian, den, grad_d

    def _hessian(self, c_outer, de2_l, de2_r, c_value, c_grad) -> Tridiagonal:
        """The tridiagonal sum of c_outer de2 de2^T + c_value dphi dphi^T + c_grad dphi' dphi'^T h^2 over the rule."""
        n1, n2 = self.n1, self.n2
        k_ll = _element_sums(c_outer * de2_l * de2_l + c_value * n1 * n1) + c_grad
        k_rr = _element_sums(c_outer * de2_r * de2_r + c_value * n2 * n2) + c_grad
        k_lr = _element_sums(c_outer * de2_l * de2_r + c_value * n1 * n2) - c_grad
        return self._scatter(k_ll, k_rr), k_lr

    def hess_e(self) -> Tridiagonal:
        """hess E at the iterate of the last newton_system pass, from the terms that pass kept.

        The same sums as K with its hess D term dropped: bit for bit the K
        of a pass at multiplier 0, whose hess D term is 0.0 times a finite
        array.
        """
        return self._hessian(*self._hess_e_terms)

    def newton_direction(
        self, g: np.ndarray, hessian: Tridiagonal, den: float, grad_d: np.ndarray
    ) -> np.ndarray | None:
        """Minus the Newton step of Q on the surface {D = const}, or None, from newton_system's terms.

        Solves the bordered system [K, grad D; grad D^T, 0] (d, mu) = (-D grad Q, 0)
        on the free nodes by one tridiagonal factorization of K with two
        right-hand sides, K x1 = D grad Q and K x2 = grad D, and returns
        x1 - (grad D . x1 / grad D . x2) x2 = -d.  None when the factorization
        meets a zero or non-finite pivot (K is indefinite away from the
        minimum), the step is not finite, or the bordered matrix has other
        than one negative eigenvalue, so that K is not positive definite on
        {grad D}-perp and the step need not lead to a minimum: by
        Haynsworth's inertia additivity that count is K's, from the
        factorization's pivots, plus one where grad D . x2 >= 0.
        """
        lo, hi = self.free.start, self.free.stop
        diag, off = hessian
        grad_d = grad_d[lo:hi]
        rhs = np.stack([den * g[lo:hi], grad_d], axis=1)
        try:
            factor = _CyclicReduction(diag[lo:hi], off[lo : hi - 1])
        except np.linalg.LinAlgError:
            return None
        x = factor.solve(rhs)
        curvature = (grad_d * x[:, 1]).sum()
        if factor.negative_count() + (curvature >= 0.0) != 1:
            return None
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            step = x[:, 0] - (grad_d * x[:, 0]).sum() / curvature * x[:, 1]
        if not np.all(np.isfinite(step)):
            return None
        return self.expand_free(step)

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

    disc is a _Discretization (P1) or an hp._HpDiscretization.  One pass over the rule per accepted iterate (disc.newton_system) gives
    Q, grad Q and the Hessian terms, and the step solves the bordered
    Newton system of E - Q D restricted to D = const
    (disc.newton_direction); a line-search trial costs Q alone.  If that
    step is singular, non-finite or not a descent direction (or, for P1,
    the bordered system's inertia is wrong), the step with
    hess E (disc.hess_e, from the same pass) is taken: E is convex, so
    grad Q . d = d^T hess E d / D > 0 wherever grad Q != 0, and a failed one
    raises ConvergenceError.  grad Q exactly 0 ends the descent.
    Backtracking line search from a full step; disc.normalize brings each
    trial back to unit weighted p-norm.  Stops when the relative decrease of
    Q over an iteration drops below tol and the relative step decrement
    sqrt(grad Q . d) / Q below DESCENT_GRAD_TOL.  A failed line search stops
    it too if the decrement is below DESCENT_GRAD_TOL or a full step would
    lower Q by less than tol; otherwise it raises ConvergenceError, as do
    max_iter steps.  Without try_small_steps such a step is not tried: the
    descent stops before its line search, which at Q's rounding floor would
    halve the step 60 times.
    """
    v = disc.normalize(v)
    q, g, hessian, den, grad_d = disc.newton_system(v)
    decrement = math.inf
    for iterations in range(1, max_iter + 1):
        direction = disc.newton_direction(g, hessian, den, grad_d)
        slope = (g * direction).sum() if direction is not None else math.nan
        if not slope > 0.0:
            if not g.any():  # stationary: nothing to descend
                decrement = 0.0
                break
            direction = disc.newton_direction(g, disc.hess_e(), den, grad_d)
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
        v = trial
        q, g, hessian, den, grad_d = disc.newton_system(v)
        if rel_dec < tol and decrement < DESCENT_GRAD_TOL:
            break
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
    is one tridiagonal solve with two right-hand sides
    (_Discretization.newton_direction).  Iterates are clamped to the
    nonnegative cone before they are renormalized.  The tolerance is
    DESCENT_TOL, at most MAX_DESCENT_ITER steps are taken, and the last
    relative step decrement sqrt(grad Q . d) / Q is the returned residual.
    The start is _cosine_profile.  The mesh has mesh_size elements, graded
    toward pi/2.
    """
    problem = _SphericalProblem.of(params, domain)
    disc = _Discretization.graded(problem, mesh_size)
    q, v, iterations, decrement = _descend(disc, _cosine_profile(problem, disc.mesh), DESCENT_TOL, MAX_DESCENT_ITER)
    lam = q - problem.H2 if problem.p == 2 else None
    return SpectralResult(
        M=q,
        lam=lam,
        minimizer=DiscretizedFunction(disc.mesh, v),
        iterations=iterations,
        residual=decrement,
    )


def _factored_eigensolve(problem: _SphericalProblem, mesh_size: int) -> SpectralResult:
    """The p = 2 solve in the factored spectral basis (see _FactoredDiscretization).

    Dense solves at N = 4, 8, ... basis functions stop once two consecutive
    eigenvalues agree to FACTORED_TOL relative (absolute below |lambda| = 1,
    where lambda_1 = 0 leaves nothing to be relative to); past
    FACTORED_MAX_SIZE the solve raises ConvergenceError.  The minimizer has
    unit weighted 2-norm; mesh_size (checked here) sets the graded mesh it
    samples itself on when first read, the one a P1 solve would use.
    """
    _require_mesh_size(mesh_size)
    previous, residual, size, solves = None, math.inf, 4, 0
    while size <= FACTORED_MAX_SIZE:
        disc = _FactoredDiscretization(problem, size)
        lam, c = _dense_ground_state(*disc.p2_matrices())
        solves += 1
        if previous is not None:
            residual = abs(lam - previous)
            if residual <= FACTORED_TOL * max(abs(lam), 1.0):
                break
        previous, size = lam, 2 * size
    else:
        raise ConvergenceError(
            f"spectral eigenvalues did not agree to {FACTORED_TOL:g} by N = {FACTORED_MAX_SIZE}",
            residual=residual,
        )
    return SpectralResult(
        M=lam + problem.H2,
        lam=lam,
        minimizer=_FactoredFunction(problem, c, mesh_size),
        iterations=solves,
        residual=residual,
    )


def solve_M(
    params: HardyParams,
    cone: ConeSpec,
    mesh_size: int = 512,
) -> SpectralResult:
    """Spherical minimum M of the cone: factored eigensolve for p = 2, hp descent on [0, pi/2], P1 otherwise.

    At p = 2 the eigenproblem is solved in the factored spectral basis on
    every cross-section.  For p != 2 on the cross-section [0, pi/2] (the
    full and punctured space, the complement of sigma_0 and the half
    space) the quotient is minimized in hp elements (_hp_solve).  mesh_size
    then only sets the mesh the minimizer is sampled on, when its mesh or
    values are first read.  Where the factored solve fails its N -> 2N
    check by N = FACTORED_MAX_SIZE (bands with an interior end near a
    pole), where the hp solve fails its checks, and on every band for
    p != 2, the quotient is minimized with P1 elements on a mesh of
    mesh_size elements graded toward pi/2 (minimize_rayleigh_p).
    """
    domain = bc_for_cone(params, cone)
    problem = _SphericalProblem.of(params, domain)
    try:
        if params.p == 2:
            return _factored_eigensolve(problem, mesh_size)
        if domain.theta1 == 0.0 and domain.theta2 == HALF_PI:
            from .hp import _hp_solve  # only a p != 2 solve on [0, pi/2] pays to compile hp

            return _hp_solve(problem, mesh_size)
    except ConvergenceError:
        pass
    return minimize_rayleigh_p(params, domain, mesh_size)
