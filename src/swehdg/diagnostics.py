"""Physical functionals, error norms, and convergence-order estimates.

The records read no quadrature points: every monitored functional but
the energy is linear in the coefficients or, for the potential
enstrophy, a sum of element-local squares, so :class:`RecordFunctionals`
integrates the basis once per run with the quadrature owned by the
spaces, and a record is a few dot products.  The reported quantities
are exact functionals of the discrete fields.  Error norms against
closed-form solutions use an elevated rule (degree 2k + 4) on the same
basis, evaluated at every call.

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


@dataclass
class RecordFunctionals:
    """The functionals of a record that are linear in the coefficients,
    as vectors, and the rotation table of the potential enstrophy.

    ``height`` holds the integrals of the height basis functions and of
    f times them (rows: mass, f-weighted height), ``velocity`` those of
    the velocity basis functions (rows: the x and y momenta before the
    factor phi, the angular momentum y u_1 - x u_2 before that factor,
    and the vorticity rot u = du_2/dx - du_1/dy).  ``rotation`` (ne, m, 2m)
    maps an element's velocity coefficients onto those of its rotation
    in the orthonormal element basis: the rotation has degree k - 1, so
    the enstrophy integral of an element is the squared norm of that
    image.
    """
    height: np.ndarray
    velocity: np.ndarray
    rotation: np.ndarray

    @classmethod
    def of_run(cls, run):
        sc = run.spaces.scalar
        xq, yq = sc.qpoints[..., 0], sc.qpoints[..., 1]

        def integrals(tab, factor=1.0):
            # (ne, m): factor times each tabulated basis function, integrated
            return np.einsum("eq,eqi->ei", sc.qweights * factor, tab)

        def vector(first, second):
            return np.stack([first, second], axis=1).reshape(-1)

        plain = integrals(sc.tab)
        zero = np.zeros_like(plain)
        f_q = run.spec.params.coriolis(xq, yq)
        m = run.matrices
        return cls(
            height=np.stack([plain.reshape(-1), integrals(sc.tab, f_q).reshape(-1)]),
            velocity=np.stack([vector(plain, zero), vector(zero, plain),
                               vector(integrals(sc.tab, yq), -integrals(sc.tab, xq)),
                               vector(-integrals(sc.tab_dy), integrals(sc.tab_dx))]),
            rotation=np.concatenate([-m.vol_dy.transpose(0, 2, 1),
                                     m.vol_dx.transpose(0, 2, 1)], axis=2),
        )


def conserved_quantities(run, y, t=0.0):
    """Evaluate every monitored functional for one state snapshot, from
    the run's :class:`RecordFunctionals` (built at its first record)."""
    p, phat, u, _ = _height_state(run, y)
    big_phi = run.spec.params.phi
    funcs = run.functionals
    mass, f_height = funcs.height @ p
    momentum_x, momentum_y, angular, vort = funcs.velocity @ u
    rot = np.einsum("eij,ej->ei", funcs.rotation, u.reshape(len(funcs.rotation), -1))

    kinetic, potential, trace_term, bath = _energy_parts(run, p, phat, u)

    return QuantityRecord(
        t=float(t),
        mass=float(mass),
        energy_H2h=kinetic + potential + trace_term,
        kinetic=float(kinetic),
        potential=float(potential),
        trace_term=float(trace_term),
        momentum_x=float(big_phi * momentum_x),
        momentum_y=float(big_phi * momentum_y),
        angular_momentum=float(big_phi * angular),
        vorticity=float(vort),
        potential_vorticity=float(big_phi * vort - f_height),
        potential_enstrophy=float(big_phi * np.sum(rot ** 2)),
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
