"""Quadrature exactness, orthonormality, projections, trace spaces."""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi, roots_legendre

from swehdg.fespace import (
    MAX_K,
    ScalarSpace,
    TraceSpace,
    VectorSpace,
    _gauss_jacobi_10,
    quadrature,
)
from swehdg.mesh import generate_rect_with_hole, generate_uniform_square, pair_periodic

from helpers import (
    dofs_of_facet,
    facet_values,
    periodic_pairs,
    point_div,
    point_grad,
    point_rot,
    point_value,
    scalar_values,
    tangential_vectors,
    trace_values,
)


def _tri_monomial_integral(a, b):
    # over the reference triangle: a! b! / (a + b + 2)!
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def test_quadrature_basics():
    tri = quadrature("triangle", 1)
    assert tri.weights.sum() == pytest.approx(0.5, abs=1e-15)
    seg = quadrature("segment", 5)
    assert np.dot(seg.weights, seg.points ** 5) == pytest.approx(1.0 / 6.0, abs=1e-14)
    with pytest.raises(ValueError):
        quadrature("triangle", 99)
    with pytest.raises(ValueError):
        quadrature("cube", 2)


@pytest.mark.parametrize("n", range(1, 22))
def test_gauss_rules_match_scipy_and_are_exact(n):
    # the rules of every degree quadrature() builds (n = 1..21 points), with
    # scipy.special as the oracle; each is exact on [-1, 1] up to degree 2n - 1
    def moment(j):              # of x^j over [-1, 1]
        return (1 - (-1) ** (j + 1)) / (j + 1)

    for (x, w), (x_ref, w_ref), exact in (
            (leggauss(n), roots_legendre(n), moment),
            (_gauss_jacobi_10(n), roots_jacobi(n, 1.0, 0.0), lambda j: moment(j) - moment(j + 1))):
        assert np.max(np.abs(x - x_ref)) <= 1e-14
        assert np.max(np.abs(w - w_ref)) <= 1e-14
        for j in range(2 * n):
            assert np.dot(w, x ** j) == pytest.approx(exact(j), abs=1e-14)


@pytest.mark.parametrize("degree", range(0, 41))
def test_triangle_quadrature_monomial_exactness(degree):
    rule = quadrature("triangle", degree)
    x, y = rule.points[:, 0], rule.points[:, 1]
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.dot(rule.weights, x ** a * y ** b)
            exact = _tri_monomial_integral(a, b)
            assert val == pytest.approx(exact, rel=1e-13, abs=1e-15)


def test_k0_basis_is_inverse_sqrt_area():
    mesh = generate_uniform_square(1)
    sp = ScalarSpace(mesh, 0)
    area = mesh.element_areas[0]
    val = sp.batch_values(np.array([0]), mesh.nodes[mesh.elements[0]].mean(0)[None, None])
    assert val[0, 0, 0] == pytest.approx(1.0 / np.sqrt(area), rel=1e-13)


@pytest.mark.parametrize("k", range(MAX_K + 1))
def test_monomials_match_integer_powers(k):
    # the power tables by cumulative products against x^a y^b taken with
    # integer powers, at the quadrature points and at points outside the
    # element, to a few units of rounding of the largest value
    mesh = generate_rect_with_hole((-2.0, 2.0, -2.0, 2.0), (0.0, 0.0), 0.5, 0.5)
    sp = ScalarSpace(mesh, k)
    elems = np.arange(mesh.num_elements)
    rng = np.random.default_rng(k)
    for pts in (sp.qpoints, rng.uniform(-2.0, 2.0, (mesh.num_elements, 5, 2))):
        rel = (pts - sp.centers[:, None, :]) / sp.scales[:, None, None]
        ref = rel[..., 0:1] ** sp.aexp * rel[..., 1:2] ** sp.bexp
        got = sp._monomials(elems, pts)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 8 * np.finfo(float).eps * max(1.0, np.abs(ref).max())


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_gram_identity(k):
    mesh = generate_rect_with_hole((-2.0, 2.0, -2.0, 2.0), (0.0, 0.0), 0.5, 0.5)
    sp = ScalarSpace(mesh, k)
    gram = np.einsum("eqi,eqj,eq->eij", sp.tab, sp.tab, sp.qweights)
    dev = np.abs(gram - np.eye(sp.dim_local)).max()
    assert dev <= 1e-12


def test_basis_spans_monomials():
    mesh = generate_uniform_square(1)
    k = 3
    sp = ScalarSpace(mesh, k)
    rng = np.random.default_rng(7)
    for a in range(k + 1):
        for b in range(k + 1 - a):
            coeffs = sp.project(lambda x, y, a=a, b=b: x ** a * y ** b)
            pts = rng.random((20, 2))
            for x, y in pts:
                assert point_value(sp, coeffs, x, y) == pytest.approx(x ** a * y ** b, abs=1e-10)


def test_project_zero():
    mesh = generate_uniform_square(1)
    sp = ScalarSpace(mesh, 2)
    coeffs = sp.project(lambda x, y: 0.0 * x)
    assert coeffs.shape == (sp.ndof,) and np.all(coeffs == 0.0)


def test_projection_convergence_ratio():
    # L2 error of the k=3 projection should shrink ~h^4
    errs = []
    for levels in (3, 4):
        mesh = generate_uniform_square(levels)
        sp = ScalarSpace(mesh, 3)
        coeffs = sp.project(lambda x, y: np.cos(np.pi * x) * np.cos(np.pi * y))
        exact = np.cos(np.pi * sp.qpoints[..., 0]) * np.cos(np.pi * sp.qpoints[..., 1])
        diff = scalar_values(sp, coeffs) - exact
        errs.append(np.sqrt(np.sum(sp.qweights * diff ** 2)))
    ratio = errs[0] / errs[1]
    assert 14.0 <= ratio <= 18.0


def test_vector_projection_and_rot():
    mesh = generate_uniform_square(2)
    vec = VectorSpace(ScalarSpace(mesh, 2))
    coeffs = vec.project(lambda x, y: (-0.5 * y, 0.5 * x))
    rng = np.random.default_rng(3)
    for x, y in rng.random((5, 2)):
        assert point_rot(vec, coeffs, x, y) == pytest.approx(1.0, abs=1e-12)
        assert point_div(vec, coeffs, x, y) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(point_value(vec, coeffs, x, y), [-0.5 * y, 0.5 * x], atol=1e-12)
    const = vec.project(lambda x, y: (1.0 + 0.0 * x, 2.0 + 0.0 * y))
    assert point_rot(vec, const, 0.3, 0.4) == pytest.approx(0.0, abs=1e-12)


def test_eval_grad_matches_finite_differences():
    mesh = generate_uniform_square(2)
    sp = ScalarSpace(mesh, 3)
    coeffs = sp.project(lambda x, y: np.sin(x) * np.cos(y) + x * y ** 2)
    rng = np.random.default_rng(11)
    eps = 1e-6
    for x, y in 0.25 + 0.5 * rng.random((10, 2)):
        g = point_grad(sp, coeffs, x, y)
        fd = np.array([
            point_value(sp, coeffs, x + eps, y) - point_value(sp, coeffs, x - eps, y),
            point_value(sp, coeffs, x, y + eps) - point_value(sp, coeffs, x, y - eps),
        ]) / (2 * eps)
        assert np.allclose(g, fd, atol=1e-5)
    gconst = sp.project(lambda x, y: 3.0 + 0.0 * x)
    assert np.allclose(point_grad(sp, gconst, 0.5, 0.5), 0.0, atol=1e-12)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_trace_orthonormality(k):
    mesh = pair_periodic(generate_uniform_square(2), "both")
    tr = TraceSpace(mesh, k)
    gram = np.einsum("fqi,fqj,fq->fij", tr.tvals, tr.tvals, tr.qweights)
    assert np.abs(gram - np.eye(k + 1)).max() <= 1e-12


def test_trace_compatibility_with_element_basis():
    # the facet restriction of an element basis function is reproduced
    # exactly by its facet-basis expansion
    mesh = generate_uniform_square(1)
    k = 3
    sp = ScalarSpace(mesh, k)
    tr = TraceSpace(mesh, k)
    for f in (0, 5, mesh.num_facets - 1):
        e = mesh.facet_left[f]
        pts = tr.qpoints[f]
        w = tr.qweights[f]
        phi = sp.batch_values(np.array([e]), pts[None])[0]     # (nq, m)
        ell = tr.tvals[f]                                      # (nq, k+1)
        coef = np.einsum("q,qi,qj->ij", w, phi, ell)
        recon = ell @ coef.T
        assert np.abs(recon - phi).max() <= 1e-12


def test_periodic_trace_single_valued():
    mesh = pair_periodic(generate_uniform_square(2), "both")
    k = 2
    tr = TraceSpace(mesh, k)
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(tr.ndof)
    for fm, fs in periodic_pairs(mesh):
        vs = trace_values(tr, coeffs, np.array([fs]))[0]
        pts_on_master = tr.qpoints[fs] + mesh.periodic_shift[fs]
        vm = facet_values(tr, fm, pts_on_master) @ coeffs[dofs_of_facet(tr, fm)]
        assert np.allclose(vs, vm, atol=1e-12)


def test_tangential_trace_normal_free():
    # the init solve's tangential flux trace is a trace field times the
    # unit tangent of the facet owning its dofs: a periodic slave takes
    # its master's tangent, which is parallel to its own
    mesh = pair_periodic(generate_uniform_square(2), "x")
    tr = TraceSpace(mesh, 2)
    rng = np.random.default_rng(9)
    coeffs = rng.standard_normal(tr.ndof)
    vec = tangential_vectors(tr, coeffs)
    ndot = np.einsum("fqd,fd->fq", vec, mesh.facet_normals)
    assert np.abs(ndot).max() == 0.0
    tdot = np.einsum("fqd,fd->fq", vec, mesh.facet_tangents)
    assert np.abs(np.abs(tdot) - np.abs(trace_values(tr, coeffs))).max() <= 1e-13


def test_project_reproduces_linear_field():
    mesh = generate_uniform_square(1)
    sp = ScalarSpace(mesh, 1)
    coeffs = sp.project(lambda x, y: 2.0 * x - y)
    assert point_value(sp, coeffs, 0.3, 0.7) == pytest.approx(2.0 * 0.3 - 0.7, abs=1e-12)
