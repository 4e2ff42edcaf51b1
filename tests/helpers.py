"""Point evaluation and other helpers that only the tests need.

The package evaluates fields at quadrature points only to build
functionals once; these helpers evaluate fields at every volume
quadrature point, locate single points, evaluate fields and their
derivatives there, and read facet-level trace data for checks written
point by point.  :func:`quadrature_conserved_quantities` is the record
of :func:`swehdg.diagnostics.conserved_quantities` integrated at the
quadrature points, and :func:`quadrature_l2_errors` the errors of
:func:`swehdg.diagnostics.l2_errors` evaluated at every point of the
elevated rule.  The diagonally implicit steppers never form the
element-local unknowns of a stage; :func:`stage_solution` and
:func:`stage_loop` rebuild them for checks of the stage equations, and
:func:`slope_form_step` steps the flux scheme through the whole stage
slope.  :func:`straight_schur` is the oracle of the trace Schur
complements that :func:`swehdg.elliptic.condense` scatters.
"""

from functools import partial

import numpy as np
from scipy import sparse

from swehdg.assembly import _pairing
from swehdg.diagnostics import QuantityRecord, _energy_parts, _height_state
from swehdg.elliptic import condense, factor_trace
from swehdg.fespace import VectorSpace, element_quadrature
from swehdg.integrators import ButcherTableau
from swehdg.swe import PhiuIntegrator


def scalar_values(space, coeffs):
    """Field values of a ScalarSpace at the volume quadrature points, (ne, nq)."""
    u = np.asarray(coeffs).reshape(space.mesh.num_elements, space.dim_local)
    return np.einsum("eqi,ei->eq", space.tab, u)


def vector_blocks(vector, coeffs):
    """(ne, 2, m) view of a VectorSpace coefficient vector."""
    return np.asarray(coeffs).reshape(vector.mesh.num_elements, 2, vector.scalar.dim_local)


def vector_values(vector, coeffs):
    """Field values of a VectorSpace at the volume quadrature points, (ne, nq, 2)."""
    return np.einsum("eqi,eci->eqc", vector.scalar.tab, vector_blocks(vector, coeffs))


def rot_values(vector, coeffs):
    """rot z = dz2/dx - dz1/dy at the volume quadrature points."""
    u = vector_blocks(vector, coeffs)
    return (np.einsum("eqi,ei->eq", vector.scalar.tab_dx, u[:, 1])
            - np.einsum("eqi,ei->eq", vector.scalar.tab_dy, u[:, 0]))


def quadrature_conserved_quantities(run, y, t=0.0):
    """Every monitored functional of one flux-scheme state, integrated at
    the volume quadrature points of the spaces: the oracle of the
    precomputed functionals of ``conserved_quantities``."""
    p, phat, u, _ = _height_state(run, y)
    params = run.spec.params
    big_phi = params.phi
    sc = run.spaces.scalar
    vec = run.spaces.vector

    wts = sc.qweights
    xq = sc.qpoints[..., 0]
    yq = sc.qpoints[..., 1]
    phi_q = scalar_values(sc, p)
    u_q = vector_values(vec, u)
    rot_q = rot_values(vec, u)
    f_q = params.coriolis(xq, yq)

    kinetic, potential, trace_term, bath = _energy_parts(run, p, phat, u)
    vort = float(np.sum(wts * rot_q))

    return QuantityRecord(
        t=float(t),
        mass=float(np.sum(wts * phi_q)),
        energy_H2h=kinetic + potential + trace_term,
        kinetic=float(kinetic),
        potential=float(potential),
        trace_term=float(trace_term),
        momentum_x=float(big_phi * np.sum(wts * u_q[..., 0])),
        momentum_y=float(big_phi * np.sum(wts * u_q[..., 1])),
        angular_momentum=float(big_phi * np.sum(
            wts * (yq * u_q[..., 0] - xq * u_q[..., 1]))),
        vorticity=vort,
        potential_vorticity=float(big_phi * vort - np.sum(wts * f_q * phi_q)),
        potential_enstrophy=float(big_phi * np.sum(wts * rot_q ** 2)),
        bathymetry_term=bath,
    )


def quadrature_error(spaces, coeffs, exact):
    """L2 error of a scalar or vector field against ``exact(x, y)`` (a
    value or a pair), at the rule exact to degree 2k + 4."""
    sc = spaces.scalar
    ne = sc.mesh.num_elements
    points, weights = element_quadrature(sc.mesh, 2 * sc.k + 4)
    tab = sc.batch_values(np.arange(ne), points)
    vals = np.einsum("eqi,eci->ceq", tab, np.asarray(coeffs).reshape(ne, -1, sc.dim_local))
    ref = np.reshape(exact(points[..., 0], points[..., 1]), vals.shape)
    return float(np.sqrt(np.sum(weights * (vals - ref) ** 2)))


def quadrature_l2_errors(run, y, solution, t):
    """Errors of the recovered height, velocity and flux against the
    closed form at time t, evaluated at every point of the elevated rule:
    the oracle of :func:`swehdg.diagnostics.l2_errors`."""
    p, _, u, w = _height_state(run, y)
    s_phi, s_u, s_w = solution.factors(t)

    def flow(factor):
        return lambda x, y: [factor * v for v in solution.flow(x, y)]

    return {
        "phi": quadrature_error(run.spaces, p, lambda x, y: s_phi * solution.height(x, y)),
        "u": quadrature_error(run.spaces, u, flow(s_u)),
        "w": quadrature_error(run.spaces, w, flow(s_w)),
    }


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


def _element_coeffs(space, coeffs, e):
    if isinstance(space, VectorSpace):
        return vector_blocks(space, coeffs)[e]
    m = space.dim_local
    return coeffs[e * m:(e + 1) * m]


def batch_grads(scalar, elems, pts):
    """Basis gradients of a ScalarSpace, returned as a pair of
    (n, q, dim_local) arrays."""
    mono = scalar._monomials(elems, pts)
    inv_s = 1.0 / scalar.scales[elems][:, None, None]
    gx = np.einsum("eij,eqj->eqi", scalar.coeff_dx[elems], mono) * inv_s
    gy = np.einsum("eij,eqj->eqi", scalar.coeff_dy[elems], mono) * inv_s
    return gx, gy


def point_value(space, coeffs, x, y):
    """Value of the field with ``coeffs`` in ``space`` at a point (scalar,
    or length-2 array)."""
    e = locate(space.mesh, x, y)
    pts = np.array([[[x, y]]])
    if isinstance(space, VectorSpace):
        basis = space.scalar.batch_values(np.array([e]), pts)[0, 0]
        return _element_coeffs(space, coeffs, e) @ basis
    basis = space.batch_values(np.array([e]), pts)[0, 0]
    return float(_element_coeffs(space, coeffs, e) @ basis)


def point_grad(space, coeffs, x, y):
    """Gradient of a scalar field at a point."""
    e = locate(space.mesh, x, y)
    gx, gy = batch_grads(space, np.array([e]), np.array([[[x, y]]]))
    c = _element_coeffs(space, coeffs, e)
    return np.array([float(c @ gx[0, 0]), float(c @ gy[0, 0])])


def point_div(space, coeffs, x, y):
    """Divergence of a vector field at a point."""
    e = locate(space.mesh, x, y)
    gx, gy = batch_grads(space.scalar, np.array([e]), np.array([[[x, y]]]))
    c = _element_coeffs(space, coeffs, e)
    return float(c[0] @ gx[0, 0] + c[1] @ gy[0, 0])


def point_rot(space, coeffs, x, y):
    """rot z = dz2/dx - dz1/dy of a vector field at a point."""
    e = locate(space.mesh, x, y)
    gx, gy = batch_grads(space.scalar, np.array([e]), np.array([[[x, y]]]))
    c = _element_coeffs(space, coeffs, e)
    return float(c[1] @ gx[0, 0] - c[0] @ gy[0, 0])


def div_values(vector, coeffs):
    """Divergence of a vector field at the volume quadrature points."""
    u = vector_blocks(vector, coeffs)
    return (np.einsum("eqi,ei->eq", vector.scalar.tab_dx, u[:, 0])
            + np.einsum("eqi,ei->eq", vector.scalar.tab_dy, u[:, 1]))


def facet_values(trace, facet, pts):
    """Basis values of ``facet``'s dofs at points on that facet."""
    return trace._tabulate(np.array([facet]), pts[None])[0]


def dofs_of_facet(trace, facet):
    r = trace.owner_row[facet]
    return r * trace.dim_local + np.arange(trace.dim_local)


def trace_values(trace, coeffs, facets=None):
    """Trace field values at the facet quadrature points, (nf, nq)."""
    if facets is None:
        facets = np.arange(trace.mesh.num_facets)
    c = np.asarray(coeffs).reshape(-1, trace.dim_local)[trace.owner_row[facets]]
    return np.einsum("fqj,fj->fq", trace.tvals[facets], c)


def tangential_vectors(trace, coeffs, facets=None):
    """Vector values at the facet quadrature points, (nf, nq, 2), of the
    tangential flux trace of the init solve: the trace field with
    ``coeffs`` times the unit tangent of the facet owning its dofs."""
    if facets is None:
        facets = np.arange(trace.mesh.num_facets)
    scal = trace_values(trace, coeffs, facets)
    return scal[..., None] * trace.mesh.facet_tangents[trace.owner[facets]][:, None, :]


def flux_pairing(mats):
    """The flux pairing F, <eta_m, z_k . n> over element boundaries
    (vector x trace), scattered from its element blocks ``flux_blocks``."""
    return _pairing(mats.flux_blocks, mats.vector_rows, mats.trace_cols,
                    (mats.vdofs.size, mats.stab_trace.shape[0]))


def periodic_pairs(mesh):
    """(master, slave) facet id pairs of a periodic mesh, (n, 2)."""
    # a master has a partner and no shift, its slave the shift onto it
    masters = np.flatnonzero((mesh.facet_pair >= 0) & ~mesh.periodic_shift.any(axis=1))
    return np.stack([masters, mesh.facet_pair[masters]], axis=1)


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
        nw = m.wdofs.size
        rows = np.concatenate([m.wdofs, nw + m.vector_rows], axis=1)
        return rows, m.trace_cols, np.concatenate([np.zeros(nw), run.forcing]), m.wdofs.shape[1]
    system = stepper.system
    m = system.matrices
    vdofs = m.vector_rows
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
        t = stages[-1][2]
        y = stepper._advance(y, h, K @ y + Kt @ t + k0, t)
    return y, stages


def stage_slope(stepper, delta, acc):
    """The slope L Y + F of the substep with scale delta whose explicit
    part is acc, from the stepper's composed output z: z itself for the
    height scheme; for the flux scheme, whose z is the substep velocity
    U, (phi U, (U - u) / delta) with u the velocity of acc."""
    R, K, Kt, r0, k0 = stepper._stages[delta]
    t = stepper.trace_factors[delta].solve(R @ acc + r0)
    out = K @ acc + Kt @ t + k0
    if isinstance(stepper, PhiuIntegrator):
        return out
    system = stepper.system
    return np.concatenate([system.phi * out, (out - system.split(acc)[1]) / delta])


def uw_slope_maps(system):
    """Element blocks (Lf, Lg, Kx, Kt) of the flux-scheme substep with
    the whole slope (phi u, D p - F p_hat + Cor u) as its output: local
    data (r_u, -D^T r_w) and trace data F^T r_w over (w_e, u_e), output
    over (w_e, u_e) from (u_e, p_e) and the trace."""
    m = system.matrices
    div, flux = m.div_blocks, m.flux_blocks
    ne, nu, nm = div.shape
    lf = np.zeros((ne, nu + nm, 2 * nu))
    lf[:, :nu, nu:] = np.eye(nu)
    lf[:, nu:, :nu] = -div.transpose(0, 2, 1)
    lg = np.zeros((ne, flux.shape[2], 2 * nu))
    lg[:, :, :nu] = flux.transpose(0, 2, 1)
    kx = np.zeros((ne, 2 * nu, nu + nm))
    kx[:, :nu, :nu] = system.phi * np.eye(nu)
    kx[:, nu:, :nu] = m.coriolis_blocks
    kx[:, nu:, nu:] = div
    kt = np.zeros((ne, 2 * nu, flux.shape[2]))
    kt[:, nu:] = -flux
    return lf, lg, kx, kt


def slope_form(stepper):
    """{delta: (lu, R, K, Kt, r0, k0)} of a flux-scheme stepper composed
    onto the slope by :func:`uw_slope_maps`, each scale factored afresh,
    so that a substep is t = lu.solve(R y + r0), y <- y + h (K y + Kt t + k0)."""
    rows, cols, forcing, _ = _stage_layout(stepper)
    m = stepper.system.matrices
    forms = {}
    for delta in stepper.trace_factors:
        schur, (R, K, Kt) = condense(partial(stepper._stage_blocks, delta), m.stab_trace, cols,
                                     compose=(partial(uw_slope_maps, stepper.system), rows, rows,
                                              (forcing.size,) * 2))
        forms[delta] = (factor_trace(schur), R, K, Kt, R @ (delta * forcing),
                        K @ (delta * forcing) + forcing)
    return forms


def slope_form_step(stepper, y, forms=None):
    """One step of a flux-scheme stepper in the slope form of
    :func:`slope_form`."""
    forms = slope_form(stepper) if forms is None else forms
    for h in stepper.dt * stepper.tableau.b:
        lu, R, K, Kt, r0, k0 = forms[0.5 * h]
        t = lu.solve(R @ y + r0)
        y = y + h * (K @ y + Kt @ t + k0)
    return y


def midpoint_composition(weights):
    """Diagonally implicit tableau of midpoint substeps of lengths dt b_i:
    a_ij = b_j below the diagonal and a_ii = b_i / 2, which is symplectic
    for any weights and of order 2 for symmetric weights summing to 1."""
    b = np.asarray(weights, dtype=float)
    a = np.tril(np.tile(b, (b.size, 1)), -1) + 0.5 * np.diag(b)
    return ButcherTableau(a=a, b=b, c=a.sum(axis=1), declared_order=2)


# nonnegative compositions that the height scheme accepts: two substeps
# of one scale, and four substeps of two scales
SUBSTEP_WEIGHTS = {2: [0.5, 0.5], 4: [0.125, 0.375, 0.375, 0.125]}


def straight_schur(trace, coupling, cols):
    """T - sum_e coupling_e scattered straight into CSR, as
    :func:`swehdg.elliptic.condense` once did by hand: a row holds T's
    entries, then those of the block rows at that row in element order,
    and the duplicates are summed with no zero dropped."""
    nt, c = trace.shape[0], cols.shape[1]
    trace, flat = trace.tocsr(), cols.reshape(-1)
    before = c * np.concatenate([[0], np.cumsum(np.bincount(flat, minlength=nt))])
    indptr = trace.indptr + before
    data, columns = np.empty(indptr[-1]), np.empty(indptr[-1], dtype=trace.indices.dtype)
    at = np.arange(trace.nnz) + np.repeat(before[:-1], np.diff(trace.indptr))
    data[at], columns[at] = trace.data, trace.indices
    order = np.argsort(flat, kind="stable")
    at = np.empty_like(flat)
    at[order] = trace.indptr[1:][flat[order]] + c * np.arange(flat.size)
    at = at.reshape(-1, c)
    for i in range(c):
        data[at + i], columns[at + i] = -coupling[:, :, i], cols[:, i, None]
    schur = sparse.csr_matrix((data, columns, indptr), shape=(nt, nt))
    schur.sum_duplicates()
    return schur
