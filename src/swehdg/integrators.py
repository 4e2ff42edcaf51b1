"""Symplectic Runge-Kutta stepping for the semidiscrete wave system.

The semidiscrete dynamics is the affine linear system

    d(flux)/dt     = phi * velocity
    d(velocity)/dt = -(wave operator) flux + (rotation) velocity + forcing

where the wave operator is the condensed SPD map applied by
:class:`~swehdg.elliptic.PhiRecovery`.  Two stepper families are provided:
diagonally implicit compositions of the midpoint rule, whose stages
eliminate every element-local unknown and solve only a factored system on
the trace dofs, and explicit partitioned schemes that alternate flux and
velocity updates, with at most one wave-operator application per stage
(none for a stage whose velocity slope has weight zero everywhere).

:class:`DirkIntegrator` is the one diagonally implicit driver; the flux
and height schemes supply only element blocks: those of their stage
system, and those that map the state onto the stage data and the stage
solution onto the slope.  It composes them once per stage scale, so a
stage is one sparse product, one trace LU solve and two sparse
products, and the element-local stage unknowns are never formed.  The
explicit steppers are refused on rotating problems.
"""

from dataclasses import dataclass

import numpy as np

from .assembly import SystemMatrices
from .elliptic import CondensedSolver, PhiRecovery

_ROWSUM_TOL = 1e-14
_SYMPLECTIC_TOL = 1e-14

# orders of the explicit partitioned schemes, seprk1 to seprk6
EXPLICIT_ORDERS = (1, 2, 3, 4, 6)


@dataclass
class ButcherTableau:
    """Coefficients of a diagonally implicit Runge-Kutta scheme."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    declared_order: int
    symplectic: bool = True

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        s = self.b.size
        if self.a.shape != (s, s) or self.c.shape != (s,):
            raise ValueError("tableau arrays have inconsistent shapes")
        if np.abs(np.triu(self.a, 1)).max(initial=0.0) != 0.0:
            raise ValueError("stage matrix must be lower triangular")
        if np.abs(self.c - self.a.sum(axis=1)).max() > _ROWSUM_TOL:
            raise ValueError("stage abscissae must equal the row sums")
        if self.symplectic and check_symplectic(self) > _SYMPLECTIC_TOL:
            raise ValueError("tableau violates the symplectic condition")

    @property
    def stages(self):
        return self.b.size


@dataclass
class PartitionedTableau:
    """Coefficients of an explicit partitioned Runge-Kutta scheme.

    The flux updates use (a, b, c) with the diagonal included; the
    velocity updates use the strictly lower (a_hat, b_hat, c_hat), so
    the stage recursion never needs an implicit solve.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    a_hat: np.ndarray
    b_hat: np.ndarray
    c_hat: np.ndarray
    declared_order: int
    symplectic: bool = True

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.asarray(self.b, dtype=float)
        self.c = np.asarray(self.c, dtype=float)
        self.a_hat = np.atleast_2d(np.asarray(self.a_hat, dtype=float))
        self.b_hat = np.asarray(self.b_hat, dtype=float)
        self.c_hat = np.asarray(self.c_hat, dtype=float)
        s = self.b.size
        shapes_ok = (self.a.shape == (s, s) and self.a_hat.shape == (s, s)
                     and self.b_hat.shape == (s,) and self.c.shape == (s,)
                     and self.c_hat.shape == (s,))
        if not shapes_ok:
            raise ValueError("tableau arrays have inconsistent shapes")
        if np.abs(np.triu(self.a, 1)).max(initial=0.0) != 0.0:
            raise ValueError("flux stage matrix must be lower triangular")
        if np.abs(np.triu(self.a_hat, 0)).max(initial=0.0) != 0.0:
            raise ValueError("velocity stage matrix must be strictly lower")
        if np.abs(self.c - self.a.sum(axis=1)).max() > _ROWSUM_TOL:
            raise ValueError("stage abscissae must equal the row sums")
        if np.abs(self.c_hat - self.a_hat.sum(axis=1)).max() > _ROWSUM_TOL:
            raise ValueError("stage abscissae must equal the row sums")
        if self.symplectic and check_symplectic(self) > _SYMPLECTIC_TOL:
            raise ValueError("tableau violates the symplectic condition")

    @property
    def stages(self):
        return self.b.size


def check_symplectic(tableau):
    """Residual of the algebraic condition for exact preservation of the
    canonical two-form by the scheme; returns the max over stage pairs."""
    b = tableau.b
    if isinstance(tableau, PartitionedTableau):
        bh = tableau.b_hat
        res = (b[:, None] * tableau.a_hat + bh[None, :] * tableau.a.T
               - np.outer(b, bh))
    else:
        res = b[:, None] * tableau.a + b[None, :] * tableau.a.T - np.outer(b, b)
    return float(np.abs(res).max())


def make_sdirk(order):
    """Diagonally implicit symplectic tableau of the given order.

    Order 2 is the implicit midpoint rule; order 4 composes three
    midpoint substeps with triple-jump weights.  Both satisfy the
    symplectic condition identically.
    """
    if order == 2:
        b = np.array([1.0])
    elif order == 4:
        gamma = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
        b = np.array([gamma, 1.0 - 2.0 * gamma, gamma])
    else:
        raise ValueError(f"unsupported implicit order {order}; use 2 or 4")
    s = b.size
    a = np.tril(np.tile(b, (s, 1)), -1) + 0.5 * np.diag(b)
    return ButcherTableau(a=a, b=b, c=a.sum(axis=1), declared_order=order)


# substep fractions of leapfrog compositions; each list of fractions g
# yields flux weights (g1/2, (g1+g2)/2, ..., gM/2) and velocity weights
# (g1, ..., gM, 0)
_Y1 = -1.17767998417887
_Y2 = 0.235573213359357
_Y3 = 0.784513610477560
_LEAPFROG_FRACTIONS = {
    2: [1.0],
    4: None,  # filled below from the cube-root weight
    6: [_Y3, _Y2, _Y1, 1.0 - 2.0 * (_Y1 + _Y2 + _Y3), _Y1, _Y2, _Y3],
}
_THETA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_LEAPFROG_FRACTIONS[4] = [_THETA, 1.0 - 2.0 * _THETA, _THETA]


def _weights_from_fractions(fractions):
    g = np.asarray(fractions, dtype=float)
    b = np.empty(g.size + 1)
    b[0] = 0.5 * g[0]
    b[1:-1] = 0.5 * (g[:-1] + g[1:])
    b[-1] = 0.5 * g[-1]
    bh = np.concatenate([g, [0.0]])
    return b, bh


def make_seprk(order):
    """Explicit partitioned symplectic tableau of the given order.

    Orders 2, 4 and 6 are leapfrog compositions; order 1 is the
    one-stage flux-first splitting and order 3 the classical three-stage
    scheme with flux weights (7/24, 3/4, -1/24).
    """
    if order not in EXPLICIT_ORDERS:
        raise ValueError(f"unsupported explicit order {order}; use one of "
                         + ", ".join(map(str, EXPLICIT_ORDERS)))
    if order == 1:
        b = np.array([1.0])
        bh = np.array([1.0])
    elif order == 3:
        b = np.array([7.0 / 24.0, 3.0 / 4.0, -1.0 / 24.0])
        bh = np.array([2.0 / 3.0, -2.0 / 3.0, 1.0])
    else:
        b, bh = _weights_from_fractions(_LEAPFROG_FRACTIONS[order])
    s = b.size
    a = np.tril(np.tile(b, (s, 1)))
    a_hat = np.tril(np.tile(bh, (s, 1)), -1)
    return PartitionedTableau(a=a, b=b, c=a.sum(axis=1),
                              a_hat=a_hat, b_hat=bh, c_hat=a_hat.sum(axis=1),
                              declared_order=order)


@dataclass
class SemidiscreteSystem:
    """Affine right-hand side for the state y = [flux; velocity]."""

    matrices: SystemMatrices
    recovery: PhiRecovery
    forcing: np.ndarray | None = None

    def __post_init__(self):
        nv = self.matrices.div_pair.shape[0]
        if self.forcing is None:
            self.forcing = np.zeros(nv)
        self.forcing = np.asarray(self.forcing, dtype=float)
        if self.forcing.shape != (nv,):
            raise ValueError("forcing length does not match the velocity space")

    @property
    def nv(self):
        return self.matrices.div_pair.shape[0]

    @property
    def phi(self):
        return self.matrices.params.phi

    def split(self, y):
        nv = self.nv
        return y[:nv], y[nv:]

    def flux_slope(self, u):
        return self.phi * u

    def velocity_slope(self, w, u):
        return self.matrices.coriolis @ u + self.forcing - self.recovery.apply(w)

    def rhs(self, y):
        w, u = self.split(y)
        return np.concatenate([self.flux_slope(u), self.velocity_slope(w, u)])


def uw_stage_blocks(matrices, phi, delta):
    """Element blocks (A_e, B_e, C_e) of the flux-scheme stage with stage
    scale delta, for :class:`~swehdg.elliptic.CondensedSolver`.

    The stage system in (flux w, velocity u, height p, trace p_hat) reads

        w - delta phi u                              = r_w
        (I - delta Cor) u - delta D p + delta F p_hat = r_u
        D^T w + (I + S_l) p - S_m p_hat              = 0
        -F^T w - S_m^T p + S_t p_hat                 = 0

    with D = div_pair, F = flux_pair, Cor = coriolis and the S blocks the
    stabilization.  Substituting w = r_w + delta phi u leaves (u, p) as
    the element-local unknowns, with the blocks

        A_e = [[I - delta Cor_e, -delta D_e], [delta phi D_e^T, I + S_l,e]]

    against the trace unknown p_hat.  Every A_e is invertible for any
    real delta: scaling its p rows by 1/phi makes its symmetric part
    diag(I, (I + S_l,e) / phi), because Cor_e is antisymmetric and the
    off-diagonal blocks cancel, and that part is positive definite.  The
    local unknowns are ordered (u_e, p_e) per element, and the data of
    the local rows is (r_u, -D^T r_w) and of the trace rows F^T r_w.
    """
    mats = matrices
    div, flux, mixed = mats.div_blocks, mats.flux_blocks, mats.stab_mixed_blocks
    ne, nu, m = div.shape
    local = np.empty((ne, nu + m, nu + m))
    local[:, :nu, :nu] = np.eye(nu) - delta * mats.coriolis_blocks
    local[:, :nu, nu:] = -delta * div
    local[:, nu:, :nu] = delta * phi * div.transpose(0, 2, 1)
    local[:, nu:, nu:] = np.eye(m) + mats.stab_local_blocks
    from_trace = np.concatenate([delta * flux, -mixed], axis=1)
    to_trace = np.concatenate([-delta * phi * flux.transpose(0, 2, 1),
                               -mixed.transpose(0, 2, 1)], axis=2)
    return local, from_trace, to_trace


class DirkIntegrator:
    """Fixed-step diagonally implicit stepper, shared by the flux scheme
    (:class:`SdirkIntegrator`) and the height scheme
    (:class:`~swehdg.swe.PhiuIntegrator`).

    Both schemes step an affine system y' = L y + F.  Stage i of scale
    delta = dt a_ii solves Y = acc + delta (L Y + F) from
    acc = y + dt sum_{j<i} a_ij k_j and takes the slope k_i = L Y + F:
    the unforced stage from acc + delta F, plus F.  The unforced stage
    data and slope are linear in acc and in the stage solution, element
    by element, so :meth:`CondensedSolver.compose` folds them around the
    local elimination once per distinct stage scale, and a stage is

        t = lu.solve(R acc + r0),    k_i = K acc + Kt t + k0

    with r0 = R (delta F) and k0 = K (delta F) + F: one sparse product
    into the trace, one trace LU solve and two sparse products out.  The
    ``SuperLU`` objects are kept in ``trace_factors``, keyed by scale.

    A scheme passes the trace block and columns of its stage system, the
    element rows of the state (``rows``, the same for the stage data and
    the slope) and F, and supplies:

    - ``_stage_blocks(delta)``: the blocks (A_e, B_e, C_e) of the stage
      system, over the element-local unknowns;
    - ``_stage_maps()``: the element blocks (Lf, Lg, Kx, Kt) that map acc
      onto the local and trace data of the unforced stage and its
      solution onto the slope (Lf None: the identity, Lg None: no trace
      data); they do not depend on the scale.
    """

    def __init__(self, tableau, dt, trace, cols, rows, forcing):
        self.tableau = tableau
        self.dt = float(dt)
        self.trace_factors = {}
        self._stages = {}
        for delta in self.dt * tableau.a.diagonal():
            if delta in self._stages:
                continue
            try:
                solver = CondensedSolver(*self._stage_blocks(delta), trace, cols)
            except RuntimeError as exc:
                raise RuntimeError(
                    f"stage factorization failed for stage scale {delta}: {exc}") from exc
            # the maps are rebuilt per scale: held across the next
            # factorization they would raise the peak memory of the build
            R, K, Kt = solver.compose(*self._stage_maps(), rows, rows, (forcing.size,) * 2)
            self.trace_factors[delta] = solver.lu
            self._stages[delta] = (R, K, Kt, R @ (delta * forcing),
                                   K @ (delta * forcing) + forcing)

    def step(self, y):
        tab, dt = self.tableau, self.dt
        slopes = np.empty((tab.stages, y.size))
        for i in range(tab.stages):
            acc = y + np.dot(dt * tab.a[i, :i], slopes[:i]) if i else y
            delta = dt * tab.a[i, i]
            R, K, Kt, r0, k0 = self._stages[delta]
            t = self.trace_factors[delta].solve(R @ acc + r0)
            np.add(K @ acc, Kt @ t, out=slopes[i])
            slopes[i] += k0
        return y + np.dot(dt * tab.b, slopes)


class SdirkIntegrator(DirkIntegrator):
    """Diagonally implicit stepper for the flux scheme.

    Each stage eliminates the flux exactly and the velocity and height
    element by element (see :func:`uw_stage_blocks`), so the trace system
    has the sparsity of the recovery Schur complement.
    """

    def __init__(self, system, tableau, dt):
        self.system = system
        m = system.matrices
        ne = m.wdofs.shape[0]
        vdofs = m.vdofs.reshape(ne, -1)
        super().__init__(tableau, dt, m.stab_trace, m.trace_cols,
                         np.concatenate([vdofs, system.nv + vdofs], axis=1),
                         np.concatenate([np.zeros(system.nv), system.forcing]))

    def _stage_blocks(self, delta):
        return uw_stage_blocks(self.system.matrices, self.system.phi, delta)

    def _stage_maps(self):
        # local data (r_u, -D^T r_w), trace data F^T r_w; slope
        # (phi u, D p - F p_hat + Cor u), all over (w_e, u_e)
        sysm = self.system
        m = sysm.matrices
        div, flux = m.div_blocks, m.flux_blocks
        ne, nu, nm = div.shape
        lf = np.zeros((ne, nu + nm, 2 * nu))
        lf[:, :nu, nu:] = np.eye(nu)
        lf[:, nu:, :nu] = -div.transpose(0, 2, 1)
        lg = np.zeros((ne, flux.shape[2], 2 * nu))
        lg[:, :, :nu] = flux.transpose(0, 2, 1)
        kx = np.zeros((ne, 2 * nu, nu + nm))
        kx[:, :nu, :nu] = sysm.phi * np.eye(nu)
        kx[:, nu:, :nu] = m.coriolis_blocks
        kx[:, nu:, nu:] = div
        kt = np.zeros((ne, 2 * nu, flux.shape[2]))
        kt[:, nu:] = -flux
        return lf, lg, kx, kt


class SeprkIntegrator:
    """Fixed-step explicit partitioned stepper.

    The stage recursion alternates flux slopes (phi times the staged
    velocity) and velocity slopes (wave operator on the staged flux plus
    rotation and forcing).  A velocity slope costs one wave-operator
    application; it is skipped for a stage whose column of the velocity
    coefficients is zero (b_hat[i] and a_hat[i+1:, i] all zero), since it
    would only ever be multiplied by zero.  The leapfrog compositions end
    with such a stage, so seprk2/4/6 apply the operator 1/3/7 times per
    step.

    The rotation term is evaluated explicitly at the staged velocity, so
    the composition retains its declared order only when rotation is
    absent (with rotation it drops to first order); :func:`make_integrator`
    refuses it on rotating problems.
    """

    def __init__(self, system, tableau, dt):
        self.system = system
        self.tableau = tableau
        self.dt = float(dt)
        weights = np.vstack([tableau.a_hat, tableau.b_hat])
        self._live = np.any(weights != 0.0, axis=0)

    def step(self, y):
        sysm = self.system
        tab = self.tableau
        dt = self.dt
        w0, u0 = sysm.split(y)
        flux_slopes = np.empty((tab.stages, w0.size))
        vel_slopes = np.zeros((tab.stages, w0.size))
        for i in range(tab.stages):
            u_stage = u0 + dt * (tab.a_hat[i, :i] @ vel_slopes[:i])
            flux_slopes[i] = sysm.phi * u_stage
            if self._live[i]:
                w_stage = w0 + dt * (tab.a[i, :i + 1] @ flux_slopes[:i + 1])
                vel_slopes[i] = sysm.velocity_slope(w_stage, u_stage)
        w1 = w0 + dt * (tab.b @ flux_slopes)
        u1 = u0 + dt * (tab.b_hat @ vel_slopes)
        return np.concatenate([w1, u1])


_IMPLICIT_NAMES = {"midpoint": 2, "sdirk2": 2, "sdirk4": 4}


def make_integrator(name, system, dt):
    """Stepper factory keyed by the scheme names used in config files:
    midpoint, sdirk2, sdirk4, or seprkN with N in EXPLICIT_ORDERS.  The
    explicit seprkN steppers are refused (ValueError) when the system
    rotates, since they would fall to first order there."""
    key = name.strip().lower()
    if key in _IMPLICIT_NAMES:
        return SdirkIntegrator(system, make_sdirk(_IMPLICIT_NAMES[key]), dt)
    if key.startswith("seprk"):
        try:
            order = int(key[len("seprk"):])
        except ValueError:
            raise ValueError(f"unknown integrator {name!r}") from None
        tableau = make_seprk(order)
        if system.matrices.params.rotating:
            raise ValueError(
                f"explicit integrator {name!r} drops to first order with "
                "rotation (f0 or beta nonzero); use midpoint, sdirk2 or sdirk4")
        return SeprkIntegrator(system, tableau, dt)
    raise ValueError(f"unknown integrator {name!r}")
