"""Problem presets and runnable systems for both scheme variants.

A problem binds a mesh, physical parameters, initial data, and an
optional bathymetry profile.  Two semidiscrete systems can be built from
it: the energy-conserving flux scheme stepped by the symplectic
integrators, and the dissipative height scheme whose stages eliminate the
element-local (height, velocity) unknowns and solve a factored system on
the trace dofs.  Its stepper, :class:`PhiuIntegrator`, runs on the same
diagonally implicit driver as the flux scheme's,
:class:`~swehdg.integrators.DirkIntegrator`.  The flux scheme's
bathymetry forcing, :func:`hamiltonian_load`, is the transpose of the
height recovery, so the bed pairs with the height the energy uses.
"""

from dataclasses import dataclass, replace

import numpy as np

from .assembly import PhysicalParams, assemble_all, assemble_bathymetry_load
from .elliptic import InitState, PhiRecovery, initialize_state
from .fespace import SpaceSet, build_spaces
from .integrators import DirkIntegrator, SemidiscreteSystem
from .mesh import Mesh

_SQRT2 = np.sqrt(2.0)


class ManufacturedSolution:
    """Closed-form standing wave on the unit square: a separable cosine
    height profile oscillating at the fundamental wall-mode frequency,
    with matching velocity and flux fields."""

    frequency = _SQRT2 * np.pi

    def phi(self, x, y, t):
        return np.cos(np.pi * x) * np.cos(np.pi * y) * np.cos(self.frequency * t)

    def grad_phi(self, x, y, t):
        factor = np.pi * np.cos(self.frequency * t)
        return (-factor * np.sin(np.pi * x) * np.cos(np.pi * y),
                -factor * np.cos(np.pi * x) * np.sin(np.pi * y))

    def u(self, x, y, t):
        factor = np.sin(self.frequency * t) / _SQRT2
        return (factor * np.sin(np.pi * x) * np.cos(np.pi * y),
                factor * np.cos(np.pi * x) * np.sin(np.pi * y))

    def w(self, x, y, t):
        factor = -np.cos(self.frequency * t) / (2.0 * np.pi)
        return (factor * np.sin(np.pi * x) * np.cos(np.pi * y),
                factor * np.cos(np.pi * x) * np.sin(np.pi * y))

    def phi_at(self, t):
        return lambda x, y: self.phi(x, y, t)

    def grad_phi_at(self, t):
        return lambda x, y: self.grad_phi(x, y, t)

    def u_at(self, t):
        return lambda x, y: self.u(x, y, t)

    def w_at(self, t):
        return lambda x, y: self.w(x, y, t)


def _bump(x):
    return np.exp(-0.5 * (x + 5.0) ** 2)


def _moving_bump_phi(x, y):
    return 1.0 + _bump(x) + 0.0 * y


def _moving_bump_grad(x, y):
    return -(x + 5.0) * _bump(x) + 0.0 * y, 0.0 * y


def _moving_bump_u(x, y):
    return _bump(x) + 0.0 * y, 0.0 * y


def _pulse_phi(x, y):
    return 10.0 * np.exp(-2.0 * y ** 2) * np.exp(-2.0 * (x + 5.0) ** 2)


def _pulse_grad(x, y):
    p = _pulse_phi(x, y)
    return -4.0 * (x + 5.0) * p, -4.0 * y * p


def _mound(a, b):
    return np.exp(-2.0 * a ** 2) * np.exp(-2.0 * b ** 2)


def _shelf_bathymetry(x, y):
    # flat shelf with three mounds, active only on the x >= 0 half; the
    # jump at x = 0 is intended and should align with mesh lines
    mounds = _mound(x - 5.0, y) + _mound(x - 5.0, y - 3.0) + _mound(x - 5.0, y + 3.0)
    return np.where(x >= 0.0, -1.1 + 0.6 * mounds, 0.0)


def _shelf_bathymetry_grad(x, y):
    gx = -4.0 * (x - 5.0) * (_mound(x - 5.0, y) + _mound(x - 5.0, y - 3.0)
                             + _mound(x - 5.0, y + 3.0))
    gy = -4.0 * (y * _mound(x - 5.0, y) + (y - 3.0) * _mound(x - 5.0, y - 3.0)
                 + (y + 3.0) * _mound(x - 5.0, y + 3.0))
    active = x >= 0.0
    return np.where(active, 0.6 * gx, 0.0), np.where(active, 0.6 * gy, 0.0)


@dataclass(frozen=True)
class Preset:
    """Named initial data plus the physical parameters it assumes."""
    name: str
    params: PhysicalParams
    phi0: object = None
    u0: object = None
    grad_phi0: object = None
    bathymetry: object = None
    grad_bathymetry: object = None
    manufactured: ManufacturedSolution = None


def get_preset(name):
    """Problem presets: standing_wave (unit square, closed form),
    moving_bump (periodic box with a wall column), gaussian_pulse
    (channel with a mounded shelf)."""
    key = name.strip().lower()
    if key == "standing_wave":
        ms = ManufacturedSolution()
        return Preset(name=key, params=PhysicalParams(),
                      phi0=ms.phi_at(0.0), u0=ms.u_at(0.0),
                      grad_phi0=ms.grad_phi_at(0.0), manufactured=ms)
    if key == "moving_bump":
        return Preset(name=key, params=PhysicalParams(f0=0.5),
                      phi0=_moving_bump_phi, u0=_moving_bump_u,
                      grad_phi0=_moving_bump_grad)
    if key == "gaussian_pulse":
        return Preset(name=key, params=PhysicalParams(f0=0.1),
                      phi0=_pulse_phi, u0=None, grad_phi0=_pulse_grad,
                      bathymetry=_shelf_bathymetry,
                      grad_bathymetry=_shelf_bathymetry_grad)
    raise ValueError(f"unknown preset {name!r}")


@dataclass
class ProblemSpec:
    """Everything needed to build one problem."""
    mesh: Mesh
    degree: int
    params: PhysicalParams
    phi0: object = None
    u0: object = None
    grad_phi0: object = None
    bathymetry: object = None
    grad_bathymetry: object = None


def make_problem(preset_name, mesh, degree, **param_overrides):
    """ProblemSpec from a preset, with optional parameter overrides
    (tau=..., alpha=..., f0=..., and so on)."""
    preset = get_preset(preset_name)
    params = replace(preset.params, **param_overrides) if param_overrides \
        else preset.params
    return ProblemSpec(mesh=mesh, degree=degree, params=params,
                       phi0=preset.phi0, u0=preset.u0,
                       grad_phi0=preset.grad_phi0,
                       bathymetry=preset.bathymetry,
                       grad_bathymetry=preset.grad_bathymetry)


def step_count(final_time, dt):
    """Step count landing exactly on the final time; the matching step
    is returned alongside (a near-multiple rescales dt imperceptibly)."""
    if final_time <= 0.0 or dt <= 0.0:
        return 0, dt
    n = max(1, int(round(final_time / dt)))
    return n, final_time / n


@dataclass
class UwRun:
    """Runnable flux-scheme problem: system plus initial coefficients."""
    spec: ProblemSpec
    spaces: SpaceSet
    system: SemidiscreteSystem
    y0: np.ndarray
    init: InitState
    bathymetry_coeffs: np.ndarray = None

    @property
    def matrices(self):
        return self.system.matrices

    @property
    def recovery(self):
        return self.system.recovery

    @property
    def mesh(self):
        return self.spec.mesh


def hamiltonian_load(recovery, bath_coeffs):
    """Velocity forcing induced by a bathymetry profile: minus the
    transpose of the height map of ``recovery.recover`` applied to its
    coefficients b.  The forcing is then minus the gradient in the flux
    of the pairing b . p(w) of the bed with the recovered height, the
    same height the energy uses, so the stepped system stays exactly
    Hamiltonian at the discrete level."""
    return -recovery.recover_transpose(bath_coeffs)


def build_uw_system(spec):
    """Assemble the operators and initial state of the conserving scheme."""
    spaces = build_spaces(spec.mesh, spec.degree, tangential=True)
    matrices = assemble_all(spec.mesh, spaces, spec.params)
    state = initialize_state(spec.mesh, spaces, spec.phi0, spec.u0,
                             spec.params, grad_phi0=spec.grad_phi0,
                             matrices=matrices)
    recovery = PhiRecovery(matrices)
    bath = None
    forcing = None
    if spec.bathymetry is not None:
        bath = spaces.scalar.project(spec.bathymetry).coeffs
        forcing = hamiltonian_load(recovery, bath)
    system = SemidiscreteSystem(matrices=matrices, recovery=recovery,
                                forcing=forcing)
    y0 = np.concatenate([state.w.coeffs, state.u.coeffs])
    return UwRun(spec=spec, spaces=spaces, system=system, y0=y0,
                 init=state, bathymetry_coeffs=bath)


@dataclass
class PhiuRun:
    """Runnable dissipative-scheme problem (primal height unknown)."""
    spec: ProblemSpec
    spaces: SpaceSet
    matrices: object
    forcing: np.ndarray
    y0: np.ndarray

    @property
    def mesh(self):
        return self.spec.mesh


def build_phiu_system(spec, spaces=None, matrices=None):
    """Assemble the dissipative height scheme; the state is the pair of
    height and velocity coefficients, initialized by direct projection."""
    if spaces is None:
        spaces = build_spaces(spec.mesh, spec.degree)
    if matrices is None:
        matrices = assemble_all(spec.mesh, spaces, spec.params)
    nw = spaces.scalar.ndof
    nv = spaces.vector.ndof
    q0 = spaces.scalar.project(spec.phi0).coeffs if spec.phi0 is not None \
        else np.zeros(nw)
    u0 = spaces.vector.project(spec.u0).coeffs if spec.u0 is not None \
        else np.zeros(nv)
    forcing = np.zeros(nv)
    if spec.bathymetry is not None:
        load = assemble_bathymetry_load(spaces, spec.bathymetry,
                                        spec.params.phi,
                                        grad=spec.grad_bathymetry)
        forcing = -load / spec.params.phi
    return PhiuRun(spec=spec, spaces=spaces, matrices=matrices,
                   forcing=forcing, y0=np.concatenate([q0, u0]))


def phiu_energy(run, y):
    """Quadratic energy of the dissipative scheme."""
    nw = run.spaces.scalar.ndof
    q, u = y[:nw], y[nw:]
    return 0.5 * (q @ q) + 0.5 * run.spec.params.phi * (u @ u)


def phiu_stage_blocks(matrices, phi, delta):
    """Element blocks (A_e, B_e, C_e) of the height-scheme stage with stage
    scale delta, for :class:`~swehdg.elliptic.CondensedSolver`; the trace
    block is -S_t.

    The stage system in (height q, velocity u, trace q_hat) reads

        (I + delta S_l) q + delta phi D^T u - delta S_m q_hat = r_q
        -delta D q + (I - delta Cor) u + delta F q_hat        = r_u
        S_m^T q + phi F^T u - S_t q_hat                       = 0

    with D = div_pair, F = flux_pair, Cor = coriolis and the S blocks the
    stabilization; (q, u) are the element-local unknowns, ordered
    (q_e, u_e) per element.  Scaling the u rows of a local block by phi
    makes its symmetric part diag(I + delta S_l,e, phi I), positive
    definite for delta >= 0; a negative scale (the middle stage of
    sdirk4) needs no such guarantee and is caught by the solver's
    singular-block check instead.
    """
    mats = matrices
    div, flux, mixed = mats.div_blocks, mats.flux_blocks, mats.stab_mixed_blocks
    ne, nu, m = div.shape
    local = np.empty((ne, m + nu, m + nu))
    local[:, :m, :m] = np.eye(m) + delta * mats.stab_local_blocks
    local[:, :m, m:] = delta * phi * div.transpose(0, 2, 1)
    local[:, m:, :m] = -delta * div
    local[:, m:, m:] = np.eye(nu) - delta * mats.coriolis_blocks
    from_trace = np.concatenate([-delta * mixed, delta * flux], axis=1)
    to_trace = np.concatenate([mixed.transpose(0, 2, 1),
                               phi * flux.transpose(0, 2, 1)], axis=2)
    return local, from_trace, to_trace


class PhiuIntegrator(DirkIntegrator):
    """Diagonally implicit stepper for the dissipative scheme.

    Each stage eliminates the height and velocity element by element (see
    :func:`phiu_stage_blocks`) and solves a factored system on the trace
    dofs, over the stage unknowns (height, velocity, trace).  The trace
    equation is enforced at every stage, so the per-step energy drop
    equals the stabilized jump norm of the stage values exactly when the
    midpoint tableau is used.
    """

    def __init__(self, run, tableau, dt):
        self.run = run
        m = run.matrices
        ne = m.wdofs.shape[0]
        nw = m.div_pair.shape[1]
        super().__init__(tableau, dt, -m.stab_trace, m.trace_cols,
                         np.concatenate([m.wdofs, nw + m.vdofs.reshape(ne, -1)], axis=1),
                         np.concatenate([np.zeros(nw), run.forcing]))

    def _stage_blocks(self, delta):
        return phiu_stage_blocks(self.run.matrices, self.run.spec.params.phi, delta)

    def _stage_maps(self):
        # local data (r_q, r_u), no trace data; slope
        # (-phi D^T u - S_l q + S_m q_hat, D q - F q_hat + Cor u), all over
        # (q_e, u_e)
        m = self.run.matrices
        phi = self.run.spec.params.phi
        div = m.div_blocks
        ne, nu, nq = div.shape
        kx = np.empty((ne, nq + nu, nq + nu))
        kx[:, :nq, :nq] = -m.stab_local_blocks
        kx[:, :nq, nq:] = -phi * div.transpose(0, 2, 1)
        kx[:, nq:, :nq] = div
        kx[:, nq:, nq:] = m.coriolis_blocks
        kt = np.concatenate([m.stab_mixed_blocks, -m.flux_blocks], axis=1)
        return None, None, kx, kt
