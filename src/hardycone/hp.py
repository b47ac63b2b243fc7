"""p != 2 on the cross-section [0, pi/2] in hp spectral elements.

The profile is phi = cos^s theta * g: the boundary-layer factor at a
Dirichlet end pi/2 (s = (p - (k+a)) / (p - 1), else 0) times a continuous
g that is a polynomial of degree q on each element, in hats and
integrated-Legendre bubbles.  The mesh has L elements per side of pi/4,
their sizes shrinking geometrically by HP_RATIO toward theta = 0, where the
p-Laplacian degenerates (phi' = 0 there), and toward pi/2, where g is not
smooth even with cos^s factored out: the geometric hp meshes of Babuska and
Guo (Adv. Eng. Softw. 15 (1992) 159-174), which converge exponentially at
point singularities.  Per-element Gauss rules absorb the weight's end
powers, and vertices on the pi/2 side are held in u = pi/2 - theta, so
cos theta = sin u keeps full relative accuracy at the nodes next to pi/2,
where cos of a stored theta would not.

The quotient is minimized by the descent P1 uses (spherical._descend):
Newton steps on {D = const}, with the hess E step as fallback.  The element
matrices of hess E and hess D come from two-operand einsums, and each
step condenses every element's bubbles onto the vertices, whose Schur
complement is tridiagonal (spherical._CyclicReduction); only the
(q - 1) x (q - 1) bubble blocks go to LAPACK, so results do not depend on
the BLAS thread count.  _hp_solve checks the solve against one on two more
layers of degree two more, warm-started from it (the meshes nest), and on
a near miss checks that one against a third, two layers and two degrees
finer again.

spherical.solve_M imports this module only for such a solve, so a p = 2
process never compiles it.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .quadrature import _gauss_jacobi
from .spherical import (
    HALF_PI,
    ConvergenceError,
    SpectralResult,
    _CyclicReduction,
    _descend,
    _require_mesh_size,
    _RuleSums,
    _SpectralFunction,
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


def _hp_vertices(layers: int) -> np.ndarray:
    """Distances of one side's vertices from its singular end: 0, m sigma^(L-1), ..., m sigma, m (m = pi/4).

    The mesh of L layers holds those of fewer: the first vertex past 0 is the
    only one a layer more adds.
    """
    m = math.pi / 4
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
    """The hp mesh of L layers per side and degree q, elements in increasing theta.

    Elements 0..L-1 lie on the theta side, [0, pi/4], elements L..2L-1 on
    the u side, [pi/4, pi/2], held in u = pi/2 - theta; lo and h are each
    element's distance range from its side's singular end, and side is +1
    (theta) or -1 (u): the distance is lo + (1 + side x) h / 2 at the local
    coordinate x in [-1, 1], which increases with theta either way.
    Unknowns: the 2L + 1 vertex values of g, then the q - 1 bubble
    coefficients of each element; dofs maps each element's shape functions
    to them.
    """

    layers: int
    degree: int
    lo: np.ndarray
    h: np.ndarray
    side: np.ndarray
    dofs: np.ndarray

    @classmethod
    def of(cls, layers: int, degree: int) -> "_HpLayout":
        vertices = _hp_vertices(layers)
        lo, h = vertices[:-1], np.diff(vertices)
        n_el = 2 * layers
        dofs = np.empty((n_el, degree + 1), dtype=np.intp)
        dofs[:, 0] = np.arange(n_el)
        dofs[:, 1] = np.arange(1, n_el + 1)
        dofs[:, 2:] = n_el + 1 + np.arange(n_el * (degree - 1)).reshape(n_el, degree - 1)
        side = np.repeat([1.0, -1.0], layers)
        return cls(layers, degree, np.concatenate([lo, lo[::-1]]), np.concatenate([h, h[::-1]]), side, dofs)

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
        vertices = _hp_vertices(L)
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


class _HpDiscretization(_RuleSums):
    """phi = cos^s theta * g on [0, pi/2]: g continuous, a polynomial of degree q on each element of _HpLayout.

    With phi' = cos^(s-1) theta * psi, psi = cos theta g' - s sin theta g and
    chi = cos theta g (for s = 0: psi = g', chi = g), the quotient's
    integrals are
        E = int w_E (psi^2 + H^2 chi^2)^(p/2),   w_E = cos^(k+a-1+(s-1)p) sin^(d-k-1),
        D = int w_D |g|^p,                        w_D = cos^(k+a-1+sp) sin^(d-k-1),
    (for s = 0, w_E = w_D = w).  Each element has its own Gauss rule of
    HP_POINTS points: Gauss-Legendre inside, Gauss-Jacobi with
    exponent d-k-1 at theta = 0 and, at pi/2, with w_E's and w_D's exponent
    of cos theta = sin u, so E and D are sums over two rules that differ at
    that element only.  Those exponents are > -1 wherever pi/2 is Dirichlet
    (k+a < p).  Nodes on the u side carry u, and cos theta = sin u there, so
    no node near pi/2 loses relative accuracy to cancellation.  The fields
    psi, chi (on E's rule) and g (on D's) are two-operand einsums over each
    element's shape functions, the element matrices of hess E and hess D two
    more, and newton_direction eliminates each element's bubbles so that
    only (q - 1) x (q - 1) blocks go to LAPACK and the vertex system is
    tridiagonal.
    """

    def __init__(self, problem: _SphericalProblem, layers: int, degree: int):
        self.layout = layout = _HpLayout.of(layers, degree)
        s, p, dk = problem.s, problem.p, problem.dk
        exp_d = problem.ka - 1.0 + s * p
        exp_e = exp_d - p if s > 0 else exp_d
        self.p, self.H2 = p, problem.H2
        n = HP_POINTS
        # the four node sets: Gauss-Legendre inside, Gauss-Jacobi at theta = 0 (theta^(d-k-1))
        # and at pi/2 (u^exp_e for E, u^exp_d for D)
        rules = [_gauss_jacobi(n, 0.0, 0.0), _gauss_jacobi(n, 0.0, dk - 1.0),
                 _gauss_jacobi(n, exp_e, 0.0), _gauss_jacobi(n, exp_d, 0.0)]
        x_sets = np.stack([x for x, _ in rules])
        shapes, slopes = (a.reshape(4, n, -1).transpose(0, 2, 1) for a in _hp_shapes(x_sets.ravel(), degree))
        rows_e = np.zeros(2 * layers, dtype=np.intp)  # each element's node set, for E and for D
        rows_e[0], rows_e[-1] = 1, 2
        rows_d = rows_e.copy()
        rows_d[-1] = 3
        # as (element, shape function, node): each contraction runs along the last axis
        self.w, c, sin = self._weights(layout, x_sets[rows_e], np.stack([w for _, w in rules])[rows_e], exp_e, dk)
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
    def _weights(layout: _HpLayout, x: np.ndarray, wx: np.ndarray, exp_cos: float, dk: int) -> tuple[np.ndarray, ...]:
        """Weights of int cos^exp_cos sin^(d-k-1) dtheta at each element's nodes x (Gauss weights wx), and cos, sin there.

        The end elements' rules absorbed the power of the distance t from
        theta = 0 (exponent d-k-1) and from pi/2 (exp_cos); the rest of the
        weight is a power of sin t / t there.
        """
        half = (layout.h / 2)[:, None]
        t = layout.lo[:, None] + (1.0 + layout.side[:, None] * x) * half
        theta_side = (layout.side > 0)[:, None]
        c = np.where(theta_side, np.cos(t), np.sin(t))
        sin = np.where(theta_side, np.sin(t), np.cos(t))
        w = wx * half * c**exp_cos * sin ** (dk - 1.0)
        w[0] = wx[0] * half[0] ** dk * c[0] ** exp_cos * (sin[0] / t[0]) ** (dk - 1.0)
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
        """g = 1: phi = cos^s theta."""
        v = np.zeros(self.layout.size)
        v[: self.layout.dofs.shape[0] + 1] = 1.0
        return v

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
        """v scaled to unit weighted p-norm, D = 1."""
        den = self.sum_fields(v)[2]
        if den <= 0.0 or not np.isfinite(den):  # solve_M then falls back to P1
            raise ConvergenceError("hp descent: degenerate profile, zero weighted p-norm", residual=math.inf)
        return v / den ** (1.0 / self.p)

    def _assemble(self, per_element: np.ndarray) -> np.ndarray:
        """Coefficient vector from each element's entries for its shape functions."""
        n_el = per_element.shape[0]
        out = np.zeros(self.layout.size)
        out[:n_el] += per_element[:, 0]
        out[1 : n_el + 1] += per_element[:, 1]
        out[n_el + 1 :] = per_element[:, 2:].ravel()
        return out

    def newton_system(self, v: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, float, np.ndarray]:
        """Q, grad Q, K = hess E - Q hess D (element by element), D and grad D at v, from one pass.

        The terms are _Discretization.newton_system's with (phi', phi) replaced by (psi, chi) in E, whose
        density e2 = psi^2 + H^2 chi^2 has the gradient 2 (psi A + H^2 chi C) for the shape-function
        columns A of psi and C of chi; D reads g.  The element matrices of hess E are kept for hess_e.
        """
        p, H2 = self.p, self.H2
        psi, chi, g = self._fields(v)
        e2 = psi**2 + H2 * chi**2
        num = (self.w * e2 ** (p / 2)).sum()
        abs_g = np.abs(g)
        den = (self.w_mass * abs_g**p).sum()
        q = num / den
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # an inf K has no Newton step
            e_pow1 = np.where(e2 > 0.0, e2 ** (p / 2 - 1.0), 0.0)
            e_pow2 = np.where(e2 > 0.0, e2 ** (p / 2 - 2.0), 0.0)
            g_pow2 = np.where(g != 0.0, abs_g ** (p - 2.0), 0.0)
        c_curv = self.w * p * e_pow1
        c_outer = self.w * (p * (p - 2.0)) * e_pow2  # 4 (p/2)(p/2 - 1): de2 = 2 (psi A + H^2 chi C)
        # hess E = sum over nodes of A (a_A A + x C)^T + C (x A + a_C C)^T
        weighted = self.energy_shapes * np.concatenate(
            [c_outer * psi**2 + c_curv, c_outer * (H2 * chi) ** 2 + c_curv * H2], axis=1)[:, None]
        if H2:
            cross = c_outer * H2 * psi * chi
            weighted += self.swapped_shapes * np.concatenate([cross, cross], axis=1)[:, None]
        self._hess_e = np.einsum("eiq,ejq->eij", self.energy_shapes, weighted)
        grad_e = np.einsum("eiq,eq->ei", self.energy_shapes, np.concatenate([c_curv * psi, c_curv * H2 * chi], axis=1))
        c_den = self.w_mass * p * g_pow2
        grad_d = self._assemble(np.einsum("eiq,eq->ei", self.mass_shapes, c_den * g))
        hess_d = np.einsum("eiq,ejq->eij", self.mass_shapes, ((p - 1.0) * c_den)[:, None] * self.mass_shapes)
        return q, (self._assemble(grad_e) - q * grad_d) / den, self._hess_e - q * hess_d, den, grad_d

    def hess_e(self) -> np.ndarray:
        """hess E's element matrices at the iterate of the last newton_system pass."""
        return self._hess_e

    def newton_direction(
        self, g: np.ndarray, hessian: np.ndarray, den: float, grad_d: np.ndarray
    ) -> np.ndarray | None:
        """Minus the Newton step of Q on {D = const}, or None: _Discretization.newton_direction's solve for hp.

        K x1 = D grad Q and K x2 = grad D are solved by static condensation:
        each element's bubbles are eliminated by one batched LAPACK solve of
        its (q - 1) x (q - 1) block, which leaves a tridiagonal Schur
        complement on the vertices for _CyclicReduction; the bubbles follow
        by back substitution.  None where a factorization is singular or the
        step is not finite.
        """
        n_el = hessian.shape[0]
        rhs = np.stack([den * g, grad_d], axis=1)
        k_vb = hessian[:, :2, 2:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            try:
                # per element: Kbb^-1 [Kbv, rhs_b]
                eliminated = np.linalg.solve(
                    hessian[:, 2:, 2:],
                    np.concatenate([hessian[:, 2:, :2], rhs[n_el + 1 :].reshape(n_el, -1, 2)], axis=2))
            except np.linalg.LinAlgError:
                return None
            coupled = np.einsum("eib,ebk->eik", k_vb, eliminated)
            schur = hessian[:, :2, :2] - coupled[:, :, :2]
            reduced = coupled[:, :, 2:]
            diag = np.zeros(n_el + 1)
            diag[:-1] += schur[:, 0, 0]
            diag[1:] += schur[:, 1, 1]
            rhs_v = rhs[: n_el + 1].copy()
            rhs_v[:-1] -= reduced[:, 0]
            rhs_v[1:] -= reduced[:, 1]
            try:
                x_v = _CyclicReduction(diag, 0.5 * (schur[:, 0, 1] + schur[:, 1, 0])).solve(rhs_v)
            except np.linalg.LinAlgError:
                return None
            x_b = eliminated[:, :, 2:] - np.einsum("ebj,ejk->ebk", eliminated[:, :, :2],
                                                   np.stack([x_v[:-1], x_v[1:]], axis=1))
            x = np.concatenate([x_v, x_b.reshape(-1, 2)])
            step = x[:, 0] - (grad_d * x[:, 0]).sum() / (grad_d * x[:, 1]).sum() * x[:, 1]
        if not np.all(np.isfinite(step)):
            return None
        return step


class _HpFunction(_SpectralFunction):
    """An hp profile (see _HpDiscretization) on the layout of `layers` layers and degree `degree`."""

    def __init__(self, problem: _SphericalProblem, coefficients: np.ndarray, mesh_size: int,
                 layers: int, degree: int):
        super().__init__(problem, coefficients, mesh_size)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "degree", degree)

    def discretization(self) -> _HpDiscretization:
        return _HpDiscretization(self.problem, self.layers, self.degree)

    def sample(self, theta: np.ndarray) -> np.ndarray:
        side = np.where(theta <= math.pi / 4, 1.0, -1.0)
        g = _HpLayout.of(self.layers, self.degree).g(self.coefficients, side,
                                                     np.where(side > 0, theta, HALF_PI - theta))
        return np.sin(HALF_PI - theta) ** self.problem.s * g  # exactly 0 at pi/2 when s > 0


def _hp_solve(problem: _SphericalProblem, mesh_size: int) -> SpectralResult:
    """A p != 2 solve on [0, pi/2] in hp elements (see _HpDiscretization), checked by a finer solve.

    The descent (_descend, tolerance HP_DESCENT_TOL, at most HP_MAX_ITER
    steps) runs from g = 1 on HP_LAYERS layers of degree HP_DEGREE, then
    from that minimizer, prolonged exactly, on two more layers of degree
    two more: the meshes nest.  The solve is accepted when M is within
    HP_TOL relative of the level before.  On a near miss the same step is
    taken once more, from the second level to a third, up to HP_LEVELS
    levels in all: small-M cells at large p whose first check misses by a
    few 1e-10 change by a few 1e-13 at the second.  M is the accepted
    level's; past HP_LEVELS the solve raises ConvergenceError, and solve_M
    falls back to P1.  iterations counts the steps of every descent, and
    residual is the change of M between the last two levels.  mesh_size
    (checked here) sets the graded mesh the minimizer samples itself on
    when first read, the one a P1 solve would use.
    """
    _require_mesh_size(mesh_size)
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
    return SpectralResult(
        M=m,
        lam=None,
        minimizer=_HpFunction(problem, v, mesh_size, disc.layout.layers, disc.layout.degree),
        iterations=steps,
        residual=residual,
    )
