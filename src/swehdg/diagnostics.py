"""Physical functionals, error norms, and convergence-order estimates.

All integrals use the quadrature owned by the spaces, so the reported
quantities are exact functionals of the discrete fields.  Error norms
against closed-form solutions use an elevated rule (degree 2k + 4) on
the same basis.

The runs measured are flux-scheme runs, whose height is recovered from
the flux; the dissipative scheme has its own :func:`~swehdg.swe.phiu_energy`.

Note on the recorded vorticity columns: the vorticity value is the raw
global integral of the elementwise rotation, which starts near zero for
irrotational initial data.  The potential vorticity integral subtracts
the rotation-height pairing; recovered heights are mean-free, so the
integral itself oscillates near zero.
"""

from dataclasses import dataclass

import numpy as np

from .fespace import element_quadrature


@dataclass
class QuantityRecord:
    """Snapshot of the conserved and monitored functionals at one time."""
    t: float
    mass: float
    energy_H2h: float
    kinetic: float
    potential: float
    trace_term: float
    momentum_x: float
    momentum_y: float
    angular_momentum: float
    vorticity: float
    potential_vorticity: float
    potential_enstrophy: float
    bathymetry_term: float = 0.0

    @property
    def total_energy(self):
        """Energy including the bathymetry pairing; this is the quantity
        the conserving stepper holds flat when a bed profile is present."""
        return self.energy_H2h + self.bathymetry_term


def _height_state(run, y):
    """Height (volume, trace), velocity and flux coefficients of a
    flux-scheme state; the height is recovered from the flux."""
    w, u = run.system.split(y)
    p, phat = run.recovery.recover(w)
    return p, phat, u, w


def _energy_parts(run, p, phat, u):
    """Kinetic, potential, trace and bathymetry parts of the energy, the
    quantity the conserving stepper holds flat; their sum, in this order,
    is the energy."""
    m = run.matrices
    kinetic = 0.5 * run.spec.params.phi * (u @ u)
    potential = 0.5 * (p @ p)
    trace_term = 0.5 * (p @ (m.stab_local @ p)
                        - 2.0 * p @ (m.stab_mixed @ phat)
                        + phat @ (m.stab_trace @ phat))
    bath = 0.0 if run.bathymetry_coeffs is None else float(run.bathymetry_coeffs @ p)
    return kinetic, potential, trace_term, bath


def total_energy(run, y):
    """Energy of one state snapshot, bathymetry pairing included; equal
    to ``conserved_quantities(run, y).total_energy`` without evaluating
    the other functionals."""
    p, phat, u, _ = _height_state(run, y)
    kinetic, potential, trace_term, bath = _energy_parts(run, p, phat, u)
    return kinetic + potential + trace_term + bath


def conserved_quantities(run, y, t=0.0):
    """Evaluate every monitored functional for one state snapshot."""
    p, phat, u, _ = _height_state(run, y)
    params = run.spec.params
    big_phi = params.phi
    sc = run.spaces.scalar
    vec = run.spaces.vector

    wts = sc.qweights
    xq = sc.qpoints[..., 0]
    yq = sc.qpoints[..., 1]
    phi_q = sc.values(p)
    u_q = vec.values(u)
    rot_q = vec.rot_values(u)
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


class ErrorQuadrature:
    """Elevated-degree quadrature (exact to degree 2k + 4) bound to the
    spaces of one run, for L2 errors against closed-form fields."""

    def __init__(self, spaces):
        sc = spaces.scalar
        mesh = sc.mesh
        self.points, self.weights = element_quadrature(mesh, 2 * sc.k + 4)
        self.tab = sc.batch_values(np.arange(mesh.num_elements), self.points)
        self.dim_local = sc.dim_local
        self.num_elements = mesh.num_elements

    def scalar_error(self, coeffs, exact):
        vals = np.einsum("eqi,ei->eq", self.tab,
                         np.asarray(coeffs).reshape(self.num_elements, -1))
        gap = vals - exact(self.points[..., 0], self.points[..., 1])
        return float(np.sqrt(np.sum(self.weights * gap ** 2)))

    def vector_error(self, coeffs, exact):
        u = np.asarray(coeffs).reshape(self.num_elements, 2, self.dim_local)
        v1 = np.einsum("eqi,ei->eq", self.tab, u[:, 0])
        v2 = np.einsum("eqi,ei->eq", self.tab, u[:, 1])
        e1, e2 = exact(self.points[..., 0], self.points[..., 1])
        gap = (v1 - e1) ** 2 + (v2 - e2) ** 2
        return float(np.sqrt(np.sum(self.weights * gap)))


def l2_errors(run, y, solution, t, quad=None):
    """L2 errors of the recovered height, velocity, and flux against the
    closed-form fields at time t.  Returns a dict keyed phi/u/w."""
    if quad is None:
        quad = ErrorQuadrature(run.spaces)
    p, _, u, w = _height_state(run, y)
    return {
        "phi": quad.scalar_error(p, solution.phi_at(t)),
        "u": quad.vector_error(u, solution.u_at(t)),
        "w": quad.vector_error(w, solution.w_at(t)),
    }


def init_errors(spaces, sol, solution, quad=None):
    """L2 errors of the stationary init fields (rotation, flux, height)
    against the closed forms at time 0; the exact rotation is zero."""
    if quad is None:
        quad = ErrorQuadrature(spaces)
    return {
        "sigma": quad.scalar_error(sol.sigma.coeffs,
                                   lambda x, y: np.zeros_like(x)),
        "w": quad.vector_error(sol.w.coeffs, solution.w_at(0.0)),
        "phi": quad.scalar_error(sol.phi.coeffs, solution.phi_at(0.0)),
    }


def eoc(errors, hs):
    """Estimated orders of convergence between consecutive rows.

    Element i compares rows i and i+1; non-positive errors give nan
    markers instead of raising.
    """
    errors = np.asarray(errors, dtype=float)
    hs = np.asarray(hs, dtype=float)
    if errors.shape != hs.shape:
        raise ValueError("errors and hs must have matching length")
    out = np.full(max(len(errors) - 1, 0), np.nan)
    for i in range(1, len(errors)):
        if errors[i - 1] > 0.0 and errors[i] > 0.0:
            out[i - 1] = (np.log(errors[i - 1] / errors[i])
                          / np.log(hs[i - 1] / hs[i]))
    return out
