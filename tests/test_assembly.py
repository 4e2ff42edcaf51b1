"""Assembled blocks: oracle entries, symmetries, adjoint identities."""

import numpy as np
import pytest

from swehdg.assembly import PhysicalParams, assemble_all, assemble_bathymetry_load
from swehdg.fespace import build_spaces
from swehdg.mesh import Mesh, generate_uniform_square, pair_periodic

from helpers import div_values, dofs_of_facet, trace_values

REF_TRI = Mesh([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [[0, 1, 2]])


def _assembled(mesh, k, **params):
    spaces = build_spaces(mesh, k)
    return assemble_all(mesh, spaces, PhysicalParams(**params)), spaces


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(phi=0.0)
    with pytest.raises(ValueError):
        PhysicalParams(tau=-1.0)
    with pytest.raises(ValueError):
        PhysicalParams(alpha=0.0)
    p = PhysicalParams(f0=0.5, beta=2.0, y_mid=1.0)
    assert p.coriolis(3.0, 2.0) == pytest.approx(0.5 + 2.0, abs=1e-15)
    assert p.rotating
    assert not PhysicalParams().rotating


def test_zero_coriolis_gives_zero_matrix():
    mats, _ = _assembled(generate_uniform_square(1), 2)
    assert abs(mats.coriolis).max() == 0.0
    assert mats.coriolis.nnz == 0


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_pairings_are_canonical_without_stored_zeros(k):
    # on the doubly periodic level-1 mesh several element facets fold onto
    # the same trace dofs, so the blocks overlap
    mats, _ = _assembled(pair_periodic(generate_uniform_square(1), "both"), k,
                         f0=0.3, beta=0.2)
    for name in ("div_pair", "flux_pair", "stab_local", "stab_mixed", "stab_trace",
                 "coriolis"):
        mat = getattr(mats, name)
        assert mat.format == "csr", name
        assert all(np.all(np.diff(mat.indices[a:b]) > 0)
                   for a, b in zip(mat.indptr[:-1], mat.indptr[1:])), name
        assert np.all(mat.data != 0.0), name


@pytest.mark.parametrize("kw", [dict(f0=0.7), dict(f0=0.3, beta=1.5, y_mid=0.5)])
def test_coriolis_antisymmetric(kw):
    mats, _ = _assembled(generate_uniform_square(2), 2, **kw)
    asym = mats.coriolis + mats.coriolis.T
    assert abs(asym).max() == 0.0
    assert abs(mats.coriolis).max() > 0.0


def test_single_element_k0_stab_is_perimeter_over_area():
    mats, _ = _assembled(REF_TRI, 0)
    perimeter = 2.0 + np.sqrt(2.0)
    area = 0.5
    assert mats.stab_local.toarray() == pytest.approx(
        np.array([[perimeter / area]]), rel=1e-13)


def test_flux_pair_reference_entry():
    # bottom facet of the reference triangle, k = 0: the stored normal is
    # (0, -1), the element basis is sqrt(2), the trace basis 1, so the
    # y-component row holds -sqrt(2) and the x row 0
    mats, spaces = _assembled(REF_TRI, 0)
    mesh = REF_TRI
    bottom = next(f for f in range(mesh.num_facets)
                  if np.allclose(mesh.nodes[mesh.facet_nodes[f]][:, 1], 0.0))
    col = spaces.trace.owner_row[bottom]
    flux = mats.flux_pair.toarray()
    assert flux[1, col] == pytest.approx(-np.sqrt(2.0), rel=1e-13)
    assert flux[0, col] == pytest.approx(0.0, abs=1e-14)


def test_div_pair_adjoint_identity():
    mesh = generate_uniform_square(2)
    mats, spaces = _assembled(mesh, 2)
    rng = np.random.default_rng(42)
    for _ in range(3):
        p = rng.standard_normal(spaces.scalar.ndof)
        z = rng.standard_normal(spaces.vector.ndof)
        lhs = z @ (mats.div_pair @ p)
        integrand = spaces.scalar.values(p) * div_values(spaces.vector, z)
        rhs = np.sum(spaces.scalar.qweights * integrand)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_flux_pair_adjoint_identity():
    mesh = pair_periodic(generate_uniform_square(2), "x")
    mats, spaces = _assembled(mesh, 1)
    sc, tr = spaces.scalar, spaces.trace
    rng = np.random.default_rng(1)
    z = rng.standard_normal(spaces.vector.ndof)
    eta = rng.standard_normal(tr.ndof)
    lhs = z @ (mats.flux_pair @ eta)
    # recompute by summing facet quadrature element by element
    rhs = 0.0
    zc = spaces.vector.reshape(z)
    for e in range(mesh.num_elements):
        for lf in range(3):
            f = mesh.element_facets[e, lf]
            vals = sc.batch_values(np.array([e]), tr.qpoints[f][None])[0]
            zq = np.einsum("qi,ci->qc", vals, zc[e])
            zdotn = zq @ mats.normals_signed[e, lf]
            etaq = trace_values(tr, eta, np.array([f]))[0]
            rhs += np.sum(tr.qweights[f] * etaq * zdotn)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_stab_symmetry_and_trace_spd():
    mesh = generate_uniform_square(3)          # 128 elements
    mats, spaces = _assembled(mesh, 1, tau=1.0)
    assert abs(mats.stab_local - mats.stab_local.T).max() == 0.0
    assert abs(mats.stab_trace - mats.stab_trace.T).max() == 0.0
    eigs = np.linalg.eigvalsh(mats.stab_trace.toarray())
    assert eigs.min() > 0.0


def test_stab_trace_counts_facet_sides():
    tau = 0.7
    mesh = pair_periodic(generate_uniform_square(1), "both")
    mats, spaces = _assembled(mesh, 1, tau=tau)
    g = mats.stab_trace.toarray()
    assert np.abs(g - np.diag(np.diag(g))).max() <= 1e-14
    # fully periodic: every owned facet is seen from two element sides
    assert np.allclose(np.diag(g), 2.0 * tau, atol=1e-13)

    wall = generate_uniform_square(1)
    mats_w, spaces_w = _assembled(wall, 1, tau=tau)
    gw = np.diag(mats_w.stab_trace.toarray())
    for f in range(wall.num_facets):
        expected = tau if wall.facet_right[f] < 0 else 2.0 * tau
        for d in dofs_of_facet(spaces_w.trace, f):
            assert gw[d] == pytest.approx(expected, rel=1e-13)


def test_bathymetry_load_constant_is_zero():
    spaces = build_spaces(generate_uniform_square(1), 2)
    load = assemble_bathymetry_load(spaces, lambda x, y: 0.0 * x + 5.0, phi=2.0)
    assert np.abs(load).max() == 0.0


def test_bathymetry_load_linear_profile():
    mesh = generate_uniform_square(1)
    spaces = build_spaces(mesh, 0)
    load = assemble_bathymetry_load(spaces, lambda x, y: x, phi=1.0)
    per_elem = load.reshape(mesh.num_elements, 2)
    assert np.allclose(per_elem[:, 0], np.sqrt(mesh.element_areas), rtol=1e-9)
    assert np.abs(per_elem[:, 1]).max() <= 1e-9

    exact = assemble_bathymetry_load(spaces, lambda x, y: x, phi=1.0,
                                     grad=lambda x, y: (1.0 + 0.0 * x, 0.0 * y))
    assert np.allclose(load, exact, atol=1e-9)
    assert np.allclose(exact.reshape(-1, 2)[:, 0], np.sqrt(mesh.element_areas), rtol=1e-13)
