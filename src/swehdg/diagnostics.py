"""Physical functionals, error norms, and convergence-order estimates.

The records read no quadrature points: every monitored functional but
the energy is linear in the coefficients or, for the potential
enstrophy, a sum of element-local squares, so :class:`RecordFunctionals`
integrates the basis once per run with the quadrature owned by the
spaces, and a record is a few dot products.  The reported quantities
are exact functionals of the discrete fields.  The error norms read no
quadrature points either: :class:`ErrorNorms` projects the closed form's
fixed profiles once per run, so an error is a norm of coefficients.

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


class ErrorNorms:
    """L2 errors of one run against a closed form that is time factors
    times fixed profiles (:class:`~swehdg.swe.ManufacturedSolution`), from
    one projection of each profile at the rule exact to degree 2k + 4.
    The basis is orthonormal under that rule, so the rule norm of v_h - s v
    is sqrt(|c_h - s c_v|^2 + s^2 r_v), with c_v the profile's coefficients
    and r_v the squared rule norm of what they miss."""

    def __init__(self, spaces, solution):
        sc = spaces.scalar
        points, weights = element_quadrature(sc.mesh, 2 * sc.k + 4)
        tab = sc.batch_values(np.arange(sc.mesh.num_elements), points)
        x, y = points[..., 0], points[..., 1]
        self.factors = solution.factors
        # name -> (c_v in the element layout of the spaces, r_v)
        self.profiles = {}
        for name, vals in (("height", [solution.height(x, y)]), ("flow", solution.flow(x, y))):
            vals = np.asarray(vals)
            coeffs = np.einsum("eq,ceq,eqi->eci", weights, vals, tab)
            missed = np.sum(weights * (vals - np.einsum("eqi,eci->ceq", tab, coeffs)) ** 2)
            self.profiles[name] = (coeffs.reshape(-1), float(missed))

    def error(self, coeffs, profile, factor):
        """Rule norm of a discrete field minus factor times a profile."""
        proj, missed = self.profiles[profile]
        gap = coeffs - factor * proj
        return float(np.sqrt(gap @ gap + factor * factor * missed))


def l2_errors(run, y, norms, t):
    """L2 errors of the recovered height, velocity, and flux against the
    closed-form fields at time t, from the run's :class:`ErrorNorms`.
    Returns a dict keyed phi/u/w."""
    p, _, u, w = _height_state(run, y)
    s_phi, s_u, s_w = norms.factors(t)
    return {"phi": norms.error(p, "height", s_phi), "u": norms.error(u, "flow", s_u),
            "w": norms.error(w, "flow", s_w)}


def init_errors(sol, norms):
    """L2 errors of the stationary init fields (rotation, flux, height)
    against the closed forms at time 0; the exact rotation is zero."""
    s_phi, _, s_w = norms.factors(0.0)
    return {"sigma": norms.error(sol.sigma.coeffs, "height", 0.0),
            "w": norms.error(sol.w.coeffs, "flow", s_w),
            "phi": norms.error(sol.phi.coeffs, "height", s_phi)}


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
