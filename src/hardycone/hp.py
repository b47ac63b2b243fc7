"""The quotient on a cross-section in hp spectral elements: p != 2 on [0, pi/2], p = 2 on a band.

The profile is phi = cos^s theta * g: the boundary-layer factor at a
Dirichlet end pi/2 (s = (p - (k+a)) / (p - 1), else 0) times a continuous
g that is a polynomial of degree q on each element, in hats and
integrated-Legendre bubbles.  The mesh of [theta1, theta2] has L elements
per half, their sizes shrinking geometrically by HP_RATIO toward theta = 0,
where the p-Laplacian degenerates (phi' = 0 there), toward pi/2, where g is
not smooth even with cos^s factored out, and toward an interior end, where
g is pinned to 0 and a pole's singularity lies just beyond: the geometric
hp meshes of Babuska and Guo (Adv. Eng. Softw. 15 (1992) 159-174), which
converge exponentially at point singularities.  Per-element Gauss rules
absorb the weight's powers at a pole, and the half toward theta2 is held
in the distance from it, so cos theta = sin u keeps full relative accuracy
at the nodes next to pi/2, where cos of a stored theta would not.

The quotient is minimized by the descent P1 uses (spherical._descend):
Newton steps on {D = const} under its inertia rule for K, with the hess E
step as fallback.  Each solve condenses every element's bubbles onto the
vertices, whose tridiagonal Schur complement P1's routine solves
(spherical._solve_free); only the (q - 1) x (q - 1) bubble blocks go to
LAPACK, so results do not depend on the BLAS thread count.  _hp_solve
checks the solve against one on two more layers of degree two more,
warm-started from it (the meshes nest), and on a near miss checks that one
against a third, two layers and two degrees finer again.  spherical.solve_M
imports this module only for such a solve.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .params import DIRICHLET, HALF_PI, AngularDomain
from .quadrature import _gauss_jacobi
from .spherical import (
    ConvergenceError,
    SpectralResult,
    _descend,
    _Minimizer,
    _positive_power,
    _RuleSums,
    _scatter,
    _solve_free,
    _SphericalProblem,
)

HP_LAYERS = 5  # elements graded toward each end in the first hp solve
HP_DEGREE = 9  # their polynomial degree; each check solve takes two more of each
HP_LEVELS = 3  # hp solves at most: the first, its check and, on a near miss, one more
HP_RATIO = 0.3  # ratio of consecutive element sizes toward an end
HP_POINTS = 16  # Gauss points per element, in every hp solve
HP_TOL = 1e-10  # relative change of M from one hp solve to its check solve
HP_DESCENT_TOL = 1e-12  # relative decrease of Q per hp descent step at convergence
HP_MAX_ITER = 100  # hp descent steps before ConvergenceError


def _hp_vertices(layers: int, m: float) -> np.ndarray:
    """Distances of one side's vertices from its end: 0, m sigma^(L-1), ..., m sigma, m (m: half the section's width).

    The mesh of L layers holds those of fewer: the first vertex past 0 is the
    only one a layer more adds.
    """
    return np.array([0.0] + [m * HP_RATIO ** (layers - 1 - j) for j in range(layers)])


def _hp_shapes(x: np.ndarray, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The element's shape functions and their x-derivatives at x, as (x.size, degree + 1) arrays.

    Column 0 is the hat (1 - x)/2 of the left vertex, column 1 the hat
    (1 + x)/2 of the right one, and column j >= 2 the bubble
    (P_j - P_(j-2)) / sqrt(2 (2j - 1)), whose derivative is
    sqrt((2j - 1) / 2) P_(j-1); P_j by the three-term recurrence.
    """
    P = np.empty((degree + 1, x.size))
    P[0], P[1] = 1.0, x
    for j in range(2, degree + 1):
        np.multiply(x, P[j - 1], out=P[j])
        P[j] *= (2 * j - 1) / j
        P[j] -= (j - 1) / j * P[j - 2]
    j = np.arange(2, degree + 1)[:, None]
    shapes = np.empty((x.size, degree + 1))
    slopes = np.empty_like(shapes)
    shapes[:, 0], shapes[:, 1] = (1.0 - x) / 2, (1.0 + x) / 2
    slopes[:, 0], slopes[:, 1] = -0.5, 0.5
    shapes[:, 2:] = ((P[2:] - P[:-2]) / np.sqrt(2.0 * (2 * j - 1))).T
    slopes[:, 2:] = (np.sqrt((2 * j - 1) / 2.0) * P[1:-1]).T
    return shapes, slopes


class _HpLayout(NamedTuple):
    """The hp mesh of L layers per side and degree q on a section of width 2 m, elements in increasing theta.

    Elements 0..L-1 lie on the theta side, [theta1, theta1 + m], elements
    L..2L-1 on the u side, [theta2 - m, theta2], held in their distance
    from theta2; lo and h are each element's distance range from its
    side's end, and side is +1 (theta) or -1 (u): the distance is
    lo + (1 + side x) h / 2 at the local coordinate x in [-1, 1], which
    increases with theta either way.  Unknowns: the 2L + 1 vertex values
    of g, then the q - 1 bubble coefficients of each element; dofs maps
    each element's shape functions to them.
    """

    layers: int
    degree: int
    m: float
    lo: np.ndarray
    h: np.ndarray
    side: np.ndarray
    dofs: np.ndarray

    @classmethod
    def of(cls, layers: int, degree: int, m: float) -> "_HpLayout":
        vertices = _hp_vertices(layers, m)
        lo, h = vertices[:-1], np.diff(vertices)
        n_el = 2 * layers
        dofs = np.empty((n_el, degree + 1), dtype=np.intp)
        dofs[:, 0] = np.arange(n_el)
        dofs[:, 1] = np.arange(1, n_el + 1)
        dofs[:, 2:] = n_el + 1 + np.arange(n_el * (degree - 1)).reshape(n_el, degree - 1)
        side = np.repeat([1.0, -1.0], layers)
        return cls(layers, degree, m, np.concatenate([lo, lo[::-1]]), np.concatenate([h, h[::-1]]), side, dofs)

    @property
    def size(self) -> int:
        return self.dofs[-1, -1] + 1

    def g(self, v: np.ndarray, side: np.ndarray, t: np.ndarray) -> np.ndarray:
        """g with the coefficients v at the points at distance t from the end of their side (+1 or -1).

        As _HpDiscretization._fields does, the hats enter as
        v_L + (v_R - v_L)(1 + x)/2, so a constant g comes out exactly.
        """
        L = self.layers
        j = np.clip(np.searchsorted(self.lo[:L], t, side="right") - 1, 0, L - 1)
        element = np.where(side > 0, j, 2 * L - 1 - j)
        x = side * (2.0 * (t - self.lo[element]) / self.h[element] - 1.0)
        coefficients = v[self.dofs[element]]
        coefficients[:, 1] -= coefficients[:, 0]
        shapes = _hp_shapes(x, self.degree)[0]
        shapes[:, 0] = 1.0
        return (shapes * coefficients).sum(axis=1)

    def prolong(self, coarse: "_HpLayout", v: np.ndarray) -> np.ndarray:
        """The coefficients on this (nested, finer) layout of the g that v gives on the coarse one.

        Vertex values are g at the vertices.  The bubbles are hierarchical,
        so an element the coarse layout has too keeps its coarse bubbles
        (and zeros above them); one that splits a coarse end element gets
        its bubbles fitted to g, less its hats, at q - 1 interior Chebyshev
        points, exactly, since the coarse space lies in this one.
        """
        L, q = self.layers, self.degree
        # with k more layers, element j > k of a side is the coarse element j - k,
        # and elements 0..k split the coarse end element
        k = L - coarse.layers
        j = np.arange(k + 1, L)
        split = np.concatenate([np.arange(k + 1), np.arange(2 * L - 1 - k, 2 * L)])
        x = np.cos(np.pi * np.arange(q - 1, 0, -1) / q)
        vertices = _hp_vertices(L, self.m)
        t = self.lo[split, None] + (1.0 + self.side[split, None] * x) * self.h[split, None] / 2
        values = coarse.g(v, np.concatenate([np.repeat([1.0, -1.0], [L + 1, L]), np.repeat(self.side[split], q - 1)]),
                          np.concatenate([vertices, vertices[-2::-1], t.ravel()]))
        out = np.zeros(self.size)
        out[: 2 * L + 1] = values[: 2 * L + 1]
        bubbles = out[2 * L + 1 :].reshape(2 * L, q - 1)
        kept = np.concatenate([j - k, 2 * coarse.layers - 1 - (j - k)])
        bubbles[np.concatenate([j, 2 * L - 1 - j]), : coarse.degree - 1] = v[coarse.dofs[kept, 2:]]
        shapes = _hp_shapes(x, q)[0]
        values = values[2 * L + 1 :].reshape(t.shape)
        values -= out[split, None] + (out[split + 1] - out[split])[:, None] * shapes[:, 1]
        bubbles[split] = np.linalg.solve(shapes[:, 2:], values.T).T
        return out


def _pinned_ends(domain: AngularDomain) -> tuple[bool, bool]:
    """Whether g is pinned to 0 at theta1 and at theta2: at a Dirichlet end inside (0, pi/2)."""
    return domain.bc1 is DIRICHLET and domain.theta1 > 0.0, domain.bc2 is DIRICHLET and domain.theta2 < HALF_PI


class _HpDiscretization(_RuleSums):
    """phi = cos^s theta * g on [theta1, theta2]: g continuous, a polynomial of degree q on each element of _HpLayout.

    With phi' = cos^(s-1) theta * psi, psi = cos theta g' - s sin theta g and
    chi = cos theta g (for s = 0: psi = g', chi = g), the quotient's
    integrals are
        E = int w_E (psi^2 + H^2 chi^2)^(p/2),   w_E = cos^(k+a-1+(s-1)p) sin^(d-k-1),
        D = int w_D |g|^p,                        w_D = cos^(k+a-1+sp) sin^(d-k-1),
    (for s = 0, w_E = w_D = w).  Each element has its own Gauss rule of
    HP_POINTS points: Gauss-Legendre inside and at an interior end,
    Gauss-Jacobi with exponent d-k-1 at theta = 0 and, at pi/2, with w_E's
    and w_D's exponent of cos theta = sin u, so E and D are sums over two
    rules that differ at that element only.  Those exponents are > -1
    wherever pi/2 is Dirichlet (k+a < p).  Nodes on the u side carry their
    distance from theta2, so no node near pi/2 loses relative accuracy to
    cancellation.  At an interior Dirichlet end g is pinned to 0 as P1 pins
    its end node (free, mask).  The fields psi, chi (on E's rule) and g (on
    D's) are two-operand einsums over each element's shape functions, the
    element matrices of hess E and hess D two more.
    """

    def __init__(self, problem: _SphericalProblem, layers: int, degree: int):
        super().__init__(problem)
        domain = problem.domain
        self.layout = layout = _HpLayout.of(layers, degree, (domain.theta2 - domain.theta1) / 2)
        # as P1's free nodes: g is 0 at a pinned end, where grad Q and grad D are masked
        pinned1, pinned2 = _pinned_ends(domain)
        self.free = slice(int(pinned1), 2 * layers + 1 - int(pinned2))
        self.mask = np.ones(layout.size)
        self.mask[: self.free.start] = self.mask[self.free.stop : 2 * layers + 1] = 0.0
        s, p, dk = problem.s, problem.p, problem.dk
        exp_d = problem.ka - 1.0 + s * p
        exp_e = exp_d - p if s > 0 else exp_d
        n = HP_POINTS
        # the four node sets: Gauss-Legendre inside and at an interior end, Gauss-Jacobi at
        # theta = 0 (theta^(d-k-1)) and at pi/2 (u^exp_e for E, u^exp_d for D)
        gauss = _gauss_jacobi(n, 0.0, 0.0)
        poles = domain.theta1 == 0.0, domain.theta2 == HALF_PI
        rules = [gauss, _gauss_jacobi(n, 0.0, dk - 1.0) if poles[0] else gauss,
                 *((_gauss_jacobi(n, exp_e, 0.0), _gauss_jacobi(n, exp_d, 0.0)) if poles[1] else (gauss, gauss))]
        x_sets = np.stack([x for x, _ in rules])
        shapes, slopes = (a.reshape(4, n, -1).transpose(0, 2, 1) for a in _hp_shapes(x_sets.ravel(), degree))
        rows_e = np.zeros(2 * layers, dtype=np.intp)  # each element's node set, for E and for D
        rows_e[0], rows_e[-1] = 1, 2
        rows_d = rows_e.copy()
        rows_d[-1] = 3
        # as (element, shape function, node): each contraction runs along the last axis
        self.w, c, sin = self._weights(layout, domain, x_sets[rows_e], np.stack([w for _, w in rules])[rows_e],
                                       exp_e, dk)
        if exp_d == exp_e:
            self.w_mass = self.w
        else:  # D's rule differs from E's at pi/2 only
            self.w_mass = self.w * c ** (exp_d - exp_e)
            self.w_mass[-1] = self._end_weights(layout, rules[3], exp_d, dk)
        shapes_e, slopes_e = shapes[rows_e], slopes[rows_e] * (2.0 / layout.h)[:, None, None]
        if s > 0:
            psi = c[:, None] * slopes_e - s * sin[:, None] * shapes_e
            chi = c[:, None] * shapes_e
        else:
            psi, chi = slopes_e, shapes_e
        self.energy_shapes = np.concatenate([psi, chi], axis=2)
        self.swapped_shapes = np.concatenate([chi, psi], axis=2)
        self.mass_shapes = shapes[rows_d]
        # _fields reads v in the local basis 1, (1 + x)/2, bubbles, with coefficients
        # v_L, v_R - v_L, ...: g' = (v_R - v_L)/h + ..., where v_L (-1/h) + v_R (1/h)
        # would lose every digit of a nearly constant g on a small element
        energy_fields = self.energy_shapes.copy()
        energy_fields[:, 0] = np.concatenate([-s * sin, c] if s > 0 else [np.zeros_like(c), np.ones_like(c)], axis=1)
        mass_fields = self.mass_shapes.copy()
        mass_fields[:, 0] = 1.0
        self.fields_shapes = np.concatenate([energy_fields, mass_fields], axis=2)

    @staticmethod
    def _weights(layout: _HpLayout, domain: AngularDomain, x: np.ndarray, wx: np.ndarray, exp_cos: float,
                 dk: int) -> tuple[np.ndarray, ...]:
        """Weights of int cos^exp_cos sin^(d-k-1) dtheta at each element's nodes x (Gauss weights wx), and cos, sin there.

        At a distance t from its side's end a node lies at theta = theta1 + t
        or at u = pi/2 - theta = u0 + t, u0 = pi/2 - theta2.  An end
        element's rule at a pole absorbed the power of t from theta = 0
        (exponent d-k-1) or from pi/2 (exp_cos); the rest of the weight is a
        power of sin t / t there.
        """
        half = (layout.h / 2)[:, None]
        t = layout.lo[:, None] + (1.0 + layout.side[:, None] * x) * half
        theta_side = (layout.side > 0)[:, None]
        angle = np.where(theta_side, domain.theta1, HALF_PI - domain.theta2) + t
        c = np.where(theta_side, np.cos(angle), np.sin(angle))
        sin = np.where(theta_side, np.sin(angle), np.cos(angle))
        w = wx * half * c**exp_cos * sin ** (dk - 1.0)
        if domain.theta1 == 0.0:
            w[0] = wx[0] * half[0] ** dk * c[0] ** exp_cos * (sin[0] / t[0]) ** (dk - 1.0)
        if domain.theta2 == HALF_PI:
            w[-1] = _HpDiscretization._end_weights(layout, (x[-1], wx[-1]), exp_cos, dk)
        return w, c, sin

    @staticmethod
    def _end_weights(layout: _HpLayout, rule: tuple[np.ndarray, np.ndarray], exp_cos: float, dk: int) -> np.ndarray:
        """_weights at the element at pi/2, whose rule absorbed u^exp_cos."""
        x, wx = rule
        half = layout.h[-1] / 2
        u = (1.0 - x) * half
        return wx * half ** (exp_cos + 1.0) * (np.sin(u) / u) ** exp_cos * np.cos(u) ** (dk - 1.0)

    def start(self) -> np.ndarray:
        """Vertex values 1 times sin of the distance to each pinned end, bubbles 0: phi = cos^s theta on [0, pi/2]."""
        layout = self.layout
        vertices = _hp_vertices(layout.layers, layout.m)
        # each vertex's distance from theta1; reversed, from theta2, exactly 0 at theta2
        sines = np.sin(np.concatenate([vertices, 2.0 * layout.m - vertices[-2::-1]]))
        pinned1, pinned2 = _pinned_ends(self.problem.domain)
        v = np.zeros(layout.size)
        v[: sines.size] = sines ** int(pinned1) * sines[::-1] ** int(pinned2)
        return v

    def sample(self, v: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """The profile of the coefficients v at the angles theta."""
        domain = self.problem.domain
        side = np.where(theta <= domain.theta1 + self.layout.m, 1.0, -1.0)
        g = self.layout.g(v, side, np.where(side > 0, theta - domain.theta1, domain.theta2 - theta))
        # exactly 0 at a pinned end, where the bubbles at x = +-1 leave rounding
        pinned1, pinned2 = _pinned_ends(domain)
        g[(theta == domain.theta1) & pinned1 | (theta == domain.theta2) & pinned2] = 0.0
        return np.sin(HALF_PI - theta) ** self.problem.s * g  # exactly 0 at pi/2 when s > 0

    def _fields(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """psi and chi at E's nodes and g at D's, each as (element, node)."""
        coefficients = v[self.layout.dofs]
        coefficients[:, 1] -= coefficients[:, 0]
        fields = np.einsum("ei,eiq->eq", coefficients, self.fields_shapes)
        n = fields.shape[1] // 3
        return fields[:, :n], fields[:, n : 2 * n], fields[:, 2 * n :]

    def sum_fields(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """chi and psi at E's nodes, which E reads as phi and phi', and D = int w_D |g|^p."""
        psi, chi, g = self._fields(v)
        return chi, psi, (self.w_mass * np.abs(g) ** self.p).sum()

    def normalize(self, v: np.ndarray) -> np.ndarray:
        """v, 0 at a pinned end, scaled to unit weighted p-norm, D = 1."""
        v = v * self.mask
        den = self.sum_fields(v)[2]
        if den <= 0.0 or not np.isfinite(den):  # solve_M then falls back to P1
            raise ConvergenceError("hp descent: degenerate profile, zero weighted p-norm", residual=math.inf)
        return v / den ** (1.0 / self.p)

    @staticmethod
    def _assemble(per_element: np.ndarray) -> np.ndarray:
        """Coefficient vector from each element's entries for its shape functions: vertices, then bubbles."""
        return np.concatenate([_scatter(per_element[:, 0], per_element[:, 1]), per_element[:, 2:].ravel()])

    def newton_system(
        self, v: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray, float, np.ndarray, Callable[[], np.ndarray]]:
        """Q, grad Q, K = hess E - Q hess D (element by element), D, grad D and hess E at v, from one pass.

        The terms are _Discretization.newton_system's with (phi', phi) replaced by (psi, chi) in E, whose
        density e2 = psi^2 + H^2 chi^2 has the gradient 2 (psi A + H^2 chi C) for the shape-function
        columns A of psi and C of chi; D reads g.  hess E's element matrices come back as a callable.
        """
        p, H2 = self.p, self.H2
        psi, chi, g = self._fields(v)
        e2, num = self.energy(chi, psi, H2)
        abs_g = np.abs(g)
        den = (self.w_mass * abs_g**p).sum()
        q = num / den
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # an inf K has no Newton step
            e_pow1 = _positive_power(e2, p / 2 - 1.0)
            e_pow2 = _positive_power(e2, p / 2 - 2.0)
            g_pow2 = _positive_power(abs_g, p - 2.0)
        c_curv = self.w * p * e_pow1
        c_outer = self.w * (p * (p - 2.0)) * e_pow2  # 4 (p/2)(p/2 - 1): de2 = 2 (psi A + H^2 chi C)
        # hess E = sum over nodes of A (a_A A + x C)^T + C (x A + a_C C)^T
        weighted = self.energy_shapes * np.concatenate(
            [c_outer * psi**2 + c_curv, c_outer * (H2 * chi) ** 2 + c_curv * H2], axis=1)[:, None]
        if H2:
            cross = c_outer * H2 * psi * chi
            weighted += self.swapped_shapes * np.concatenate([cross, cross], axis=1)[:, None]
        hess_e = np.einsum("eiq,ejq->eij", self.energy_shapes, weighted)
        grad_e = np.einsum("eiq,eq->ei", self.energy_shapes, np.concatenate([c_curv * psi, c_curv * H2 * chi], axis=1))
        c_den = self.w_mass * p * g_pow2
        grad_d = self._assemble(np.einsum("eiq,eq->ei", self.mass_shapes, c_den * g)) * self.mask
        hess_d = np.einsum("eiq,ejq->eij", self.mass_shapes, ((p - 1.0) * c_den)[:, None] * self.mass_shapes)
        return (q, (self._assemble(grad_e) - q * grad_d) / den * self.mask, hess_e - q * hess_d, den, grad_d,
                lambda: hess_e)

    def solve(self, matrix: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int] | None:
        """matrix^-1 rhs (n x 2), 0 at a pinned end, and matrix's negative-eigenvalue count, or None.

        matrix holds the element matrices.  Static condensation: each
        element's bubbles are eliminated by one batched LAPACK solve of its
        (q - 1) x (q - 1) block, which leaves a tridiagonal Schur complement
        on the vertices, solved on the free ones (spherical._solve_free); the
        bubbles follow by back substitution.  The count is the blocks'
        (eigvalsh) plus the Schur complement's.  None where a factorization
        is singular or a block is not finite.
        """
        n_el = matrix.shape[0]
        blocks = matrix[:, 2:, 2:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                # per element: Kbb's eigenvalues and Kbb^-1 [Kbv, rhs_b]
                eigenvalues = np.linalg.eigvalsh(blocks)
                eliminated = np.linalg.solve(
                    blocks, np.concatenate([matrix[:, 2:, :2], rhs[n_el + 1 :].reshape(n_el, -1, 2)], axis=2))
            except np.linalg.LinAlgError:
                return None
            coupled = np.einsum("eib,ebk->eik", matrix[:, :2, 2:], eliminated)
            schur = matrix[:, :2, :2] - coupled[:, :, :2]
            rhs_v = rhs[: n_el + 1].copy()
            rhs_v[:-1] -= coupled[:, 0, 2:]
            rhs_v[1:] -= coupled[:, 1, 2:]
            solved = _solve_free((_scatter(schur[:, 0, 0], schur[:, 1, 1]), 0.5 * (schur[:, 0, 1] + schur[:, 1, 0])),
                                 self.free, rhs_v)
            if solved is None or not np.all(np.isfinite(eigenvalues)):  # eigvalsh raises on some non-finite blocks
                return None
            x_v, negatives = solved
            x_b = eliminated[:, :, 2:] - np.einsum("ebj,ejk->ebk", eliminated[:, :, :2],
                                                   np.stack([x_v[:-1], x_v[1:]], axis=1))
        return np.concatenate([x_v, x_b.reshape(-1, 2)]), int((eigenvalues < 0.0).sum()) + negatives


def _hp_solve(problem: _SphericalProblem, mesh_size: int) -> SpectralResult:
    """A solve in hp elements (see _HpDiscretization), checked by a finer solve: p != 2 on [0, pi/2], p = 2 on a band.

    The descent (_descend, tolerance HP_DESCENT_TOL, at most HP_MAX_ITER
    steps) runs from start() on HP_LAYERS layers of degree HP_DEGREE, then
    from that minimizer, prolonged exactly, on two more layers of degree
    two more: the meshes nest.  The solve is accepted when M is within
    HP_TOL relative of the level before.  On a near miss the same step is
    taken once more, from the second level to a third, up to HP_LEVELS
    levels in all: small-M cells at large p whose first check misses by a
    few 1e-10 change by a few 1e-13 at the second.  M is the accepted
    level's; past HP_LEVELS the solve raises ConvergenceError, and solve_M
    falls back to P1.  iterations counts the steps of every descent, and
    residual is the change of M between the last two levels.  The minimizer
    holds the accepted level's discretization; mesh_size (solve_M checks it)
    sets the graded mesh it samples itself on when first read, as P1's.
    """
    disc = _HpDiscretization(problem, HP_LAYERS, HP_DEGREE)
    m, v, steps, _ = _descend(disc, disc.start(), HP_DESCENT_TOL, HP_MAX_ITER, try_small_steps=False)
    for level in range(1, HP_LEVELS):
        coarse, m_coarse = disc, m
        disc = _HpDiscretization(problem, HP_LAYERS + 2 * level, HP_DEGREE + 2 * level)
        m, v, more_steps, _ = _descend(disc, disc.layout.prolong(coarse.layout, v), HP_DESCENT_TOL, HP_MAX_ITER,
                                       try_small_steps=False)
        steps += more_steps
        residual = abs(m - m_coarse)
        if residual <= HP_TOL * abs(m):
            break
    else:
        raise ConvergenceError(f"hp solves differ by {residual:.3e} in M", residual=residual)
    return SpectralResult._of(problem, m, _Minimizer(disc, v, mesh_size), steps, residual)
