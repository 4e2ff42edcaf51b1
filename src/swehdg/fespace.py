"""Elementwise orthonormal polynomial bases, quadrature, and dof maps.

Volume spaces are spanned by scaled monomials orthonormalized on each
physical element, so element mass matrices are the identity and the
semidiscrete system needs no mass solves.  Facet spaces carry an
orthonormal Legendre basis per facet; periodic slave facets alias the
dofs of their master and evaluate through the stored translation.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy.special import roots_jacobi, roots_legendre


_MAX_DEGREE = 40      # of the quadrature rules
MAX_K = 6             # largest polynomial degree of the spaces


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on the reference triangle or unit segment."""
    points: np.ndarray
    weights: np.ndarray
    degree: int


def quadrature(domain, degree):
    """Rule exact for polynomials of total degree ``degree``.

    Segment rules live on [0, 1]; triangle rules on the reference
    triangle with vertices (0,0), (1,0), (0,1), built as a Duffy product
    of Gauss-Legendre in the collapsed direction and Gauss-Jacobi(1, 0)
    in the other, which keeps the point count at ceil((d+1)/2)^2.
    """
    if degree < 0 or degree > _MAX_DEGREE:
        raise ValueError(f"unsupported quadrature degree {degree}")
    n = max(1, math.ceil((degree + 1) / 2))
    if domain == "segment":
        x, w = roots_legendre(n)
        return QuadratureRule(0.5 * (x + 1.0), 0.5 * w, degree)
    if domain == "triangle":
        xi, wxi = roots_legendre(n)
        xi = 0.5 * (xi + 1.0)
        wxi = 0.5 * wxi
        xj, wj = roots_jacobi(n, 1.0, 0.0)
        eta = 0.5 * (xj + 1.0)
        weta = 0.25 * wj
        pts = np.empty((n * n, 2))
        pts[:, 0] = np.outer(1.0 - eta, xi).ravel()
        pts[:, 1] = np.repeat(eta, n)
        wts = np.outer(weta, wxi).ravel()
        return QuadratureRule(pts, wts, degree)
    raise ValueError(f"unknown quadrature domain {domain!r}")


def element_quadrature(mesh, degree):
    """The triangle rule of exactness ``degree`` mapped onto every element:
    points (ne, nq, 2) and weights (ne, nq)."""
    rule = quadrature("triangle", degree)
    verts = mesh.nodes[mesh.elements]
    v0 = verts[:, 0]
    e1 = verts[:, 1] - v0
    e2 = verts[:, 2] - v0
    points = (v0[:, None, :]
              + rule.points[None, :, 0, None] * e1[:, None, :]
              + rule.points[None, :, 1, None] * e2[:, None, :])
    weights = rule.weights[None, :] * (2.0 * mesh.element_areas)[:, None]
    return points, weights


def _monomial_exponents(k):
    exps = [(a, d - a) for d in range(k + 1) for a in range(d, -1, -1)]
    return np.array([e[0] for e in exps]), np.array([e[1] for e in exps])


def _derivative_matrices(aexp, bexp):
    m = len(aexp)
    index = {(a, b): j for j, (a, b) in enumerate(zip(aexp, bexp))}
    dx = np.zeros((m, m))
    dy = np.zeros((m, m))
    for j, (a, b) in enumerate(zip(aexp, bexp)):
        if a > 0:
            dx[j, index[(a - 1, b)]] = a
        if b > 0:
            dy[j, index[(a, b - 1)]] = b
    return dx, dy


class ScalarSpace:
    """Discontinuous piecewise polynomials of degree k on a triangle mesh.

    The basis is orthonormal in the element L2 inner product (scaled
    monomials put through two rounds of Cholesky orthonormalization).
    Dofs are blocked per element: global dof = element * dim_local + i,
    with local functions ordered by total degree.

    Parameters
    ----------
    mesh : Mesh
    k : int
        Polynomial degree, 0 to 6.  Volume integrals use the triangle rule
        of exactness 2k + 3.
    """

    def __init__(self, mesh, k):
        if not 0 <= k <= MAX_K:
            raise ValueError(f"degree k must be between 0 and {MAX_K}")
        self.mesh = mesh
        self.k = k
        self.aexp, self.bexp = _monomial_exponents(k)
        self.dim_local = len(self.aexp)
        self.ndof = mesh.num_elements * self.dim_local

        self.qpoints, self.qweights = element_quadrature(mesh, 2 * k + 3)

        verts = mesh.nodes[mesh.elements]
        self.centers = verts.mean(axis=1)
        self.scales = np.linalg.norm(verts - self.centers[:, None, :], axis=2).max(axis=1)

        dxm, dym = _derivative_matrices(self.aexp, self.bexp)
        mono = self._monomials(np.arange(mesh.num_elements), self.qpoints)
        gram = np.einsum("eqi,eqj,eq->eij", mono, mono, self.qweights)
        coeff = _inv_lower(np.linalg.cholesky(gram))
        vals = np.einsum("eij,eqj->eqi", coeff, mono)
        gram = np.einsum("eqi,eqj,eq->eij", vals, vals, self.qweights)
        coeff = _inv_lower(np.linalg.cholesky(gram)) @ coeff
        self.coeff = coeff
        self.coeff_dx = coeff @ dxm
        self.coeff_dy = coeff @ dym
        self.tab = np.einsum("eij,eqj->eqi", coeff, mono)
        inv_s = 1.0 / self.scales[:, None, None]
        self.tab_dx = np.einsum("eij,eqj->eqi", self.coeff_dx, mono) * inv_s
        self.tab_dy = np.einsum("eij,eqj->eqi", self.coeff_dy, mono) * inv_s

    def _monomials(self, elems, pts):
        rel = (pts - self.centers[elems][:, None, :]) / self.scales[elems][:, None, None]
        # powers[..., d, :] = rel ** d by cumulative products, d <= k
        powers = np.repeat(rel[..., None, :], self.k + 1, axis=-2)
        powers[..., 0, :] = 1.0
        np.cumprod(powers, axis=-2, out=powers)
        return powers[..., self.aexp, 0] * powers[..., self.bexp, 1]

    def batch_values(self, elems, pts):
        """Basis values on many elements at once: (n, q, 2) points for
        element ids ``elems`` give an (n, q, dim_local) array."""
        mono = self._monomials(elems, pts)
        return np.einsum("eij,eqj->eqi", self.coeff[elems], mono)

    def project(self, func):
        """L2 projection of ``func(x, y)``; exact for degree <= k data."""
        vals = func(self.qpoints[..., 0], self.qpoints[..., 1])
        vals = np.broadcast_to(vals, self.qweights.shape)
        coeffs = np.einsum("eq,eq,eqi->ei", vals, self.qweights, self.tab)
        return GridFunction(self, coeffs.ravel())


class VectorSpace:
    """Two stacked copies of a ScalarSpace.

    Per element the x block precedes the y block:
    global dof = element * 2 * m + component * m + i.
    """

    def __init__(self, scalar):
        self.scalar = scalar
        self.mesh = scalar.mesh
        self.k = scalar.k
        self.dim_local = 2 * scalar.dim_local
        self.ndof = 2 * scalar.ndof

    def project(self, func):
        """L2 projection of a vector field given as func(x, y) -> (z1, z2)."""
        s = self.scalar
        z1, z2 = func(s.qpoints[..., 0], s.qpoints[..., 1])
        coeffs = np.stack([
            np.einsum("eq,eq,eqi->ei", np.broadcast_to(z1, s.qweights.shape), s.qweights, s.tab),
            np.einsum("eq,eq,eqi->ei", np.broadcast_to(z2, s.qweights.shape), s.qweights, s.tab),
        ], axis=1)
        return GridFunction(self, coeffs.ravel())


class TraceSpace:
    """Single-valued polynomial traces of degree k on the facet skeleton.

    Every facet carries an orthonormal Legendre basis in the arclength
    parameter running from its smaller to its larger node id.  Periodic
    slave facets own no dofs: their rows in the tabulated arrays hold the
    master's basis evaluated through the periodic translation, so facet
    integrals on either side of a paired boundary hit the same dofs.
    """

    def __init__(self, mesh, k):
        if not 0 <= k <= MAX_K:
            raise ValueError(f"degree k must be between 0 and {MAX_K}")
        self.mesh = mesh
        self.k = k
        self.dim_local = k + 1

        nf = mesh.num_facets
        # a periodic slave, shifted onto its master, reads the master's dofs
        owned = ~mesh.periodic_shift.any(axis=1)
        self.owned = np.flatnonzero(owned)
        self.owner = np.where(owned, np.arange(nf), mesh.facet_pair)
        self.owner_row = (np.cumsum(owned) - 1)[self.owner]
        self.ndof = len(self.owned) * self.dim_local

        rule = quadrature("segment", 2 * k + 3)
        a = mesh.nodes[mesh.facet_nodes[:, 0]]
        b = mesh.nodes[mesh.facet_nodes[:, 1]]
        t = rule.points
        self.qpoints = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
        self.qweights = rule.weights[None, :] * mesh.facet_lengths[:, None]
        self.tvals = self._tabulate(np.arange(nf), self.qpoints)

    def _tabulate(self, facets, pts):
        """Owner basis values at physical points lying on the facets."""
        mesh = self.mesh
        own = self.owner[facets]
        shifted = pts + mesh.periodic_shift[facets][:, None, :]
        a = mesh.nodes[mesh.facet_nodes[own, 0]]
        b = mesh.nodes[mesh.facet_nodes[own, 1]]
        length = mesh.facet_lengths[own]
        d = (b - a) / length[:, None]
        s = np.einsum("fqd,fd->fq", shifted - a[:, None, :], d) / length[:, None]
        scale = np.sqrt((2.0 * np.arange(self.dim_local) + 1.0)[None, :] / length[:, None])
        vander = legvander(2.0 * s - 1.0, self.k)
        return vander * scale[:, None, :]


class TangentialTraceSpace(TraceSpace):
    """Facet vector fields parallel to the facet tangent.

    Scalar coefficients per owned facet multiply the owner facet's unit
    tangent, so members have zero normal component on every facet and a
    single value (hence zero tangential jump) on interior facets by
    construction.
    """

    def __init__(self, mesh, k):
        super().__init__(mesh, k)
        self.tangent = mesh.facet_tangents[self.owner]


class GridFunction:
    """Coefficient vector bound to a space."""

    def __init__(self, space, coeffs=None):
        self.space = space
        if coeffs is None:
            coeffs = np.zeros(space.ndof)
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape != (space.ndof,):
            raise ValueError("coefficient vector length does not match the space")
        self.coeffs = coeffs


@dataclass
class SpaceSet:
    """The spaces of one discretization, all on the same mesh and degree."""
    scalar: ScalarSpace
    vector: VectorSpace
    trace: TraceSpace
    tangential: TangentialTraceSpace = None

    @property
    def mesh(self):
        return self.scalar.mesh

    @property
    def k(self):
        return self.scalar.k


def build_spaces(mesh, k, tangential=False):
    """Scalar, vector, and trace spaces sharing one set of tabulations."""
    scalar = ScalarSpace(mesh, k)
    spaces = SpaceSet(scalar, VectorSpace(scalar), TraceSpace(mesh, k))
    if tangential:
        spaces.tangential = TangentialTraceSpace(mesh, k)
    return spaces


def _inv_lower(lower):
    """Batched inverse of lower-triangular factors."""
    n = lower.shape[-1]
    eye = np.broadcast_to(np.eye(n), lower.shape).copy()
    return np.linalg.solve(lower, eye)
