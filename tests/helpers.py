"""Point evaluation and other helpers that only the tests need.

The package evaluates fields at quadrature points only; these helpers
locate single points, evaluate fields and their derivatives there, and
read facet-level trace data for checks written point by point.  The
diagonally implicit steppers never form the element-local unknowns of a
stage; :func:`stage_solution` and :func:`stage_loop` rebuild them for
checks of the stage equations.
"""

import numpy as np

from swehdg.fespace import VectorSpace
from swehdg.swe import PhiuIntegrator


def locate(mesh, x, y):
    """Index of the first element containing the point (x, y)."""
    p = np.array([x, y])
    verts = mesh.nodes[mesh.elements]
    v0, v1, v2 = verts[:, 0], verts[:, 1], verts[:, 2]
    d = p - v0
    e1 = v1 - v0
    e2 = v2 - v0
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    lam1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    lam2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    ok = (lam1 >= -1e-12) & (lam2 >= -1e-12) & (lam1 + lam2 <= 1.0 + 1e-12)
    hits = np.where(ok)[0]
    if len(hits) == 0:
        raise ValueError(f"point ({x}, {y}) lies outside the mesh")
    return int(hits[0])


def _element_coeffs(gf, e):
    if isinstance(gf.space, VectorSpace):
        return gf.space.reshape(gf.coeffs)[e]
    m = gf.space.dim_local
    return gf.coeffs[e * m:(e + 1) * m]


def batch_grads(scalar, elems, pts):
    """Basis gradients of a ScalarSpace, returned as a pair of
    (n, q, dim_local) arrays."""
    mono = scalar._monomials(elems, pts)
    inv_s = 1.0 / scalar.scales[elems][:, None, None]
    gx = np.einsum("eij,eqj->eqi", scalar.coeff_dx[elems], mono) * inv_s
    gy = np.einsum("eij,eqj->eqi", scalar.coeff_dy[elems], mono) * inv_s
    return gx, gy


def point_value(gf, x, y):
    """Field value at a point (scalar, or length-2 array)."""
    e = locate(gf.space.mesh, x, y)
    pts = np.array([[[x, y]]])
    if isinstance(gf.space, VectorSpace):
        basis = gf.space.scalar.batch_values(np.array([e]), pts)[0, 0]
        return _element_coeffs(gf, e) @ basis
    basis = gf.space.batch_values(np.array([e]), pts)[0, 0]
    return float(_element_coeffs(gf, e) @ basis)


def point_grad(gf, x, y):
    """Gradient of a scalar field at a point."""
    e = locate(gf.space.mesh, x, y)
    gx, gy = batch_grads(gf.space, np.array([e]), np.array([[[x, y]]]))
    c = _element_coeffs(gf, e)
    return np.array([float(c @ gx[0, 0]), float(c @ gy[0, 0])])


def point_div(gf, x, y):
    """Divergence of a vector field at a point."""
    e = locate(gf.space.mesh, x, y)
    gx, gy = batch_grads(gf.space.scalar, np.array([e]), np.array([[[x, y]]]))
    c = _element_coeffs(gf, e)
    return float(c[0] @ gx[0, 0] + c[1] @ gy[0, 0])


def point_rot(gf, x, y):
    """rot z = dz2/dx - dz1/dy of a vector field at a point."""
    e = locate(gf.space.mesh, x, y)
    gx, gy = batch_grads(gf.space.scalar, np.array([e]), np.array([[[x, y]]]))
    c = _element_coeffs(gf, e)
    return float(c[1] @ gx[0, 0] - c[0] @ gy[0, 0])


def div_values(vector, coeffs):
    """Divergence of a vector field at the volume quadrature points."""
    u = vector.reshape(coeffs)
    return (np.einsum("eqi,ei->eq", vector.scalar.tab_dx, u[:, 0])
            + np.einsum("eqi,ei->eq", vector.scalar.tab_dy, u[:, 1]))


def facet_values(trace, facet, pts):
    """Basis values of ``facet``'s dofs at points on that facet."""
    return trace._tabulate(np.array([facet]), pts[None])[0]


def dofs_of_facet(trace, facet):
    r = trace.owner_row[facet]
    return r * trace.dim_local + np.arange(trace.dim_local)


def tangential_vectors(tangential, coeffs, facets=None):
    """Vector values of a tangential trace field at the facet quadrature
    points, (nf, nq, 2)."""
    if facets is None:
        facets = np.arange(tangential.mesh.num_facets)
    scal = tangential.values(coeffs, facets)
    return scal[..., None] * tangential.tangent[facets][:, None, :]


def loop_polygon_area(mesh, loop):
    """Signed area enclosed by a closed boundary loop."""
    facets, signs = loop
    pts = np.array([
        mesh.nodes[mesh.facet_nodes[f, 0 if s == 1 else 1]]
        for f, s in zip(facets, signs)
    ])
    nxt = np.roll(pts, -1, axis=0)
    return 0.5 * float(np.sum(pts[:, 0] * nxt[:, 1] - pts[:, 1] * nxt[:, 0]))


def phiu_trace_mismatch(run, q, qhat):
    """Stabilized norm of the height-trace jump driving the dissipation."""
    m = run.matrices
    return (q @ (m.stab_local @ q) - 2.0 * q @ (m.stab_mixed @ qhat)
            + qhat @ (m.stab_trace @ qhat))


def iterate_steps(stepper, y0, nsteps):
    """Yield (step index, state) after each of nsteps steps."""
    y = y0
    for n in range(1, nsteps + 1):
        y = stepper.step(y)
        yield n, y


def _stage_layout(stepper):
    """(rows, cols, forcing, split) of a diagonally implicit stepper: the
    element rows of the state, the trace columns of each element, the
    forcing of the state, and the width of the first local field."""
    if isinstance(stepper, PhiuIntegrator):
        run = stepper.run
        m = run.matrices
        ne, nq = m.wdofs.shape
        nw = m.div_pair.shape[1]
        rows = np.concatenate([m.wdofs, nw + m.vdofs.reshape(ne, -1)], axis=1)
        return rows, m.trace_cols, np.concatenate([np.zeros(nw), run.forcing]), nq
    system = stepper.system
    m = system.matrices
    vdofs = m.vdofs.reshape(m.wdofs.shape[0], -1)
    rows = np.concatenate([vdofs, system.nv + vdofs], axis=1)
    forcing = np.concatenate([np.zeros(system.nv), system.forcing])
    return rows, m.trace_cols, forcing, vdofs.shape[1]


def stage_solution(stepper, delta, acc):
    """The two local fields and the trace of the stage with scale delta
    whose explicit part is acc: (velocity, height, trace) for the flux
    scheme, (height, velocity, trace) for the height scheme.  The trace
    comes from the stepper's composed operators and factor, the local
    fields element by element as A_e^-1 (f_e - B_e t[cols[e]])."""
    R, _, _, r0, _ = stepper._stages[delta]
    t = stepper.trace_factors[delta].solve(R @ acc + r0)
    rows, cols, forcing, split = _stage_layout(stepper)
    local, from_trace, _ = stepper._stage_blocks(delta)
    lf = stepper._stage_maps()[0]
    data = (acc + delta * forcing)[rows][..., None]
    if lf is not None:
        data = lf @ data
    data -= from_trace @ t[cols][..., None]
    x = np.linalg.solve(local, data)[..., 0]
    return x[:, :split].reshape(-1), x[:, split:].reshape(-1), t


def stage_loop(stepper, y):
    """One step of a diagonally implicit stepper from y, run midpoint
    substep by substep with the same arithmetic as its ``step``, and the
    :func:`stage_solution` of every substep."""
    stages = []
    for h in stepper.dt * stepper.tableau.b:
        delta = 0.5 * h
        stages.append(stage_solution(stepper, delta, y))
        _, K, Kt, _, k0 = stepper._stages[delta]
        y = y + h * (K @ y + Kt @ stages[-1][2] + k0)
    return y, stages
