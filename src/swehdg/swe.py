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
from functools import cached_property

import numpy as np

from .assembly import PhysicalParams, assemble_all, assemble_bathymetry_load
from .diagnostics import RecordFunctionals
from .elliptic import InitSolution, PhiRecovery, initialize_state
from .fespace import SpaceSet, build_spaces
from .integrators import DirkIntegrator, SemidiscreteSystem
from .mesh import Mesh

_SQRT2 = np.sqrt(2.0)


class ManufacturedSolution:
    """Closed-form standing wave on the unit square at the fundamental
    wall-mode frequency w, as time factors times two fixed profiles:
    phi = cos(wt) P, u = sin(wt) / sqrt(2) U and w = -cos(wt) / (2 pi) U,
    with P = cos(pi x) cos(pi y) (``height``) and U = -grad P / pi (``flow``)."""

    frequency = _SQRT2 * np.pi

    def height(self, x, y):
        return np.cos(np.pi * x) * np.cos(np.pi * y)

    def flow(self, x, y):
        return np.sin(np.pi * x) * np.cos(np.pi * y), np.cos(np.pi * x) * np.sin(np.pi * y)

    def factors(self, t):
        """Time factors of the height, the velocity and the flux at t."""
        c = np.cos(self.frequency * t)
        return c, np.sin(self.frequency * t) / _SQRT2, -c / (2.0 * np.pi)


def _standing_wave_grad(x, y):
    return (-np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
            -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y))


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
    """Initial data plus the physical parameters it assumes."""
    params: PhysicalParams
    phi0: object = None
    u0: object = None
    grad_phi0: object = None
    bathymetry: object = None
    grad_bathymetry: object = None
    manufactured: ManufacturedSolution = None


def _standing_wave():
    # u vanishes at t = 0
    ms = ManufacturedSolution()
    return Preset(params=PhysicalParams(), phi0=ms.height, grad_phi0=_standing_wave_grad,
                  manufactured=ms)


# every preset: name -> builder of a fresh Preset
PRESETS = {
    # unit square, closed form
    "standing_wave": _standing_wave,
    # periodic box with a wall column
    "moving_bump": lambda: Preset(params=PhysicalParams(f0=0.5), phi0=_moving_bump_phi,
                                  u0=_moving_bump_u, grad_phi0=_moving_bump_grad),
    # channel with a mounded shelf
    "gaussian_pulse": lambda: Preset(params=PhysicalParams(f0=0.1), phi0=_pulse_phi,
                                     grad_phi0=_pulse_grad, bathymetry=_shelf_bathymetry,
                                     grad_bathymetry=_shelf_bathymetry_grad),
}


def get_preset(name):
    """A fresh copy of the preset named ``name`` in ``PRESETS``, without
    regard to case."""
    build = PRESETS.get(name.strip().lower())
    if build is None:
        raise ValueError(f"unknown preset {name!r}")
    return build()


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
    init: InitSolution
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

    @cached_property
    def functionals(self):
        """The record functionals of this run, built at first use."""
        return RecordFunctionals.of_run(self)


def hamiltonian_load(recovery, bath_coeffs):
    """Velocity forcing induced by a bathymetry profile: minus the
    transpose of the height map of ``recovery.recover`` applied to its
    coefficients b.  The forcing is then minus the gradient in the flux
    of the pairing b . p(w) of the bed with the recovered height, the
    same height the energy uses, so the stepped system stays exactly
    Hamiltonian at the discrete level."""
    return -recovery.recover_transpose(bath_coeffs)


def build_uw_system(spec):
    """Assemble the operators and initial state of the conserving scheme:
    the one builder of every flux run.  Its recovery builds nothing until
    read, so a sweep of init solves condenses no recovery."""
    spaces = build_spaces(spec.mesh, spec.degree, tangential=True)
    matrices = assemble_all(spec.mesh, spaces, spec.params)
    state = initialize_state(spec.mesh, spaces, spec.phi0, spec.u0,
                             spec.params, grad_phi0=spec.grad_phi0,
                             matrices=matrices)
    # the init system holds the recovery equations at its flux, so its
    # height trace is the recovered trace of the initial flux
    recovery = PhiRecovery(matrices, known=(state.w.coeffs, state.init.phi_hat.coeffs))
    bath = None
    forcing = None
    if spec.bathymetry is not None:
        bath = spaces.scalar.project(spec.bathymetry).coeffs
        forcing = hamiltonian_load(recovery, bath)
    system = SemidiscreteSystem(matrices=matrices, recovery=recovery,
                                forcing=forcing)
    y0 = np.concatenate([state.w.coeffs, state.u.coeffs])
    return UwRun(spec=spec, spaces=spaces, system=system, y0=y0,
                 init=state.init, bathymetry_coeffs=bath)


@dataclass
class PhiuRun:
    """Runnable dissipative-scheme problem (primal height unknown)."""
    spec: ProblemSpec
    spaces: SpaceSet
    matrices: object
    forcing: np.ndarray
    y0: np.ndarray


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
        if spec.grad_bathymetry is None:
            raise ValueError("the height scheme needs grad_bathymetry, the gradient "
                             "of the bathymetry profile")
        load = assemble_bathymetry_load(spaces, spec.grad_bathymetry, spec.params.phi)
        forcing = -load / spec.params.phi
    return PhiuRun(spec=spec, spaces=spaces, matrices=matrices,
                   forcing=forcing, y0=np.concatenate([q0, u0]))


def phiu_energy(run, y):
    """Quadratic energy of the dissipative scheme."""
    nw = run.spaces.scalar.ndof
    q, u = y[:nw], y[nw:]
    return 0.5 * (q @ q) + 0.5 * run.spec.params.phi * (u @ u)


def phiu_slope_blocks(matrices, phi):
    """Element blocks (Kx, Kt) of the height scheme's slope, its one
    definition: with D = div_pair, F = flux_pair, Cor = coriolis and the
    S blocks the stabilization,

        q' = -S_l q - phi D^T u + S_m q_hat,    u' = D q + Cor u - F q_hat,

    over the element-local unknowns (q_e, u_e) and the trace dofs of the
    element's facets, closed by S_m^T q + phi F^T u - S_t q_hat = 0.
    """
    div = matrices.div_blocks
    ne, nu, nq = div.shape
    kx = np.empty((ne, nq + nu, nq + nu))
    kx[:, :nq, :nq] = -matrices.stab_local_blocks
    kx[:, :nq, nq:] = -phi * div.transpose(0, 2, 1)
    kx[:, nq:, :nq] = div
    kx[:, nq:, nq:] = matrices.coriolis_blocks
    kt = np.concatenate([matrices.stab_mixed_blocks, -matrices.flux_blocks], axis=1)
    return kx, kt


def phiu_stage_blocks(matrices, phi, delta):
    """Element blocks (A_e, B_e, C_e) of the height-scheme stage with stage
    scale delta, for :func:`~swehdg.elliptic.condense`; the trace
    block is -S_t.  The stage X = r + delta (Kx X + Kt q_hat), with the
    slope blocks of :func:`phiu_slope_blocks`, gives A_e = I - delta Kx_e,
    B_e = -delta Kt_e, and the trace equation C_e = [S_m,e^T, phi F_e^T].
    Scaling the u rows of A_e by phi makes its symmetric part
    diag(I + delta S_l,e, phi I), positive definite for delta >= 0, the
    only scales :class:`PhiuIntegrator` builds.
    """
    kx, kt = phiu_slope_blocks(matrices, phi)
    to_trace = np.concatenate([matrices.stab_mixed_blocks.transpose(0, 2, 1),
                               phi * matrices.flux_blocks.transpose(0, 2, 1)], axis=2)
    return np.eye(kx.shape[1]) - delta * kx, -delta * kt, to_trace


class PhiuIntegrator(DirkIntegrator):
    """Diagonally implicit stepper for the dissipative scheme.

    Each stage eliminates the height and velocity element by element (see
    :func:`phiu_stage_blocks`) and solves a factored system on the trace
    dofs, over the stage unknowns (height, velocity, trace).  The trace
    equation is enforced at every stage, so the per-step energy drop
    equals the stabilized jump norm of the stage values exactly when the
    midpoint tableau is used.  The output of a substep is its slope, and
    the substep moves y to y + h slope: both local fields feed the slope
    through the dense A_e^-1, so an output onto the substep solution
    would not be smaller.

    A tableau with a negative weight b is refused (ValueError): the pole
    z = 2 / b of its midpoint substep's factor (1 + b z / 2) / (1 - b z / 2)
    then lies on the negative real axis, among the eigenvalues dt lambda of
    this dissipative scheme, where a step amplifies instead of damping.
    """

    def __init__(self, run, tableau, dt):
        for i, b in enumerate(tableau.b, start=1):
            if b < 0.0:
                raise ValueError(
                    f"the height scheme needs nonnegative weights: weight b_{i} = {b:.6g} "
                    f"puts the pole of its midpoint substep at z = 2/b = {2.0 / b:.6g}, "
                    "on the negative real axis")
        self.run = run
        m = run.matrices
        ne = m.wdofs.shape[0]
        nw = m.wdofs.size
        rows = np.concatenate([m.wdofs, nw + m.vdofs.reshape(ne, -1)], axis=1)
        forcing = np.concatenate([np.zeros(nw), run.forcing])
        super().__init__(tableau, dt, -m.stab_trace, m.trace_cols, rows, forcing,
                         rows, forcing)

    def _stage_blocks(self, delta):
        return phiu_stage_blocks(self.run.matrices, self.run.spec.params.phi, delta)

    def _stage_maps(self):
        # the state is the local data, there is no trace data; the output
        # is the slope, whose constant term is the forcing
        return (None, None, *phiu_slope_blocks(self.run.matrices, self.run.spec.params.phi))

    def _advance(self, y, h, slope, t):
        del t  # the height scheme keeps no recovery
        return y + h * slope
