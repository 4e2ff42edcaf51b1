"""Symplectic Runge-Kutta stepping for the semidiscrete wave system.

The semidiscrete dynamics is the affine linear system

    d(flux)/dt     = phi * velocity
    d(velocity)/dt = -(wave operator) flux + (rotation) velocity + forcing

where the wave operator is the condensed SPD map applied by
:class:`~swehdg.elliptic.PhiRecovery`.  On a symplectic tableau the
symplectic condition fixes everything but the weights, so each stepper
walks the composition its weights define (Hairer, Lubich & Wanner,
Geometric Numerical Integration, ch. VI): :class:`DirkIntegrator` a chain
of implicit-midpoint substeps, each of which eliminates every
element-local unknown and solves only a factored system on the trace
dofs, and :class:`SeprkIntegrator` a chain of flux drifts and velocity
kicks, one wave-operator application per kick of nonzero weight.  The
flux and height schemes supply :class:`DirkIntegrator` only element
blocks, which it composes once per substep scale.  The explicit steppers
are refused on rotating problems.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .assembly import SystemMatrices
from .elliptic import PhiRecovery, condense, factor_trace

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
    if order not in (2, 4):
        raise ValueError(f"unsupported implicit order {order}; use 2 or 4")
    b = np.array(_LEAPFROG_FRACTIONS[order])
    s = b.size
    a = np.tril(np.tile(b, (s, 1)), -1) + 0.5 * np.diag(b)
    return ButcherTableau(a=a, b=b, c=a.sum(axis=1), declared_order=order)


# substep fractions of compositions; each list of fractions g yields the
# leapfrog flux weights (g1/2, (g1+g2)/2, ..., gM/2) and velocity weights
# (g1, ..., gM, 0), and those of orders 2 and 4 (the triple jump) are the
# midpoint substep weights of make_sdirk
_THETA = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_Y1 = -1.17767998417887
_Y2 = 0.235573213359357
_Y3 = 0.784513610477560
_LEAPFROG_FRACTIONS = {
    2: [1.0],
    4: [_THETA, 1.0 - 2.0 * _THETA, _THETA],
    6: [_Y3, _Y2, _Y1, 1.0 - 2.0 * (_Y1 + _Y2 + _Y3), _Y1, _Y2, _Y3],
}


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
        nv = self.nv
        if self.forcing is None:
            self.forcing = np.zeros(nv)
        self.forcing = np.asarray(self.forcing, dtype=float)
        if self.forcing.shape != (nv,):
            raise ValueError("forcing length does not match the velocity space")

    @property
    def nv(self):
        return self.matrices.vdofs.size

    @property
    def phi(self):
        return self.matrices.params.phi

    def split(self, y):
        nv = self.nv
        return y[:nv], y[nv:]

    def velocity_slope(self, w, u):
        """Cor u + forcing - (wave operator) w, as a new array; the
        rotation product is skipped on a nonrotating problem, where
        Cor is an empty matrix."""
        forcing = self.forcing
        if self.matrices.params.rotating:
            forcing = self.matrices.coriolis @ u + forcing
        return forcing - self.recovery.apply(w)

    def rhs(self, y):
        w, u = self.split(y)
        return np.concatenate([self.phi * u, self.velocity_slope(w, u)])


def uw_stage_blocks(matrices, phi, delta):
    """Element blocks (A_e, B_e, C_e) of the flux-scheme stage with stage
    scale delta, for :func:`~swehdg.elliptic.condense`.

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


def _require_symplectic(tableau):
    if not tableau.symplectic:
        raise ValueError("the steppers need a tableau built with symplectic=True")


class DirkIntegrator:
    """Fixed-step diagonally implicit stepper, shared by the flux scheme
    (:class:`SdirkIntegrator`) and the height scheme
    (:class:`~swehdg.swe.PhiuIntegrator`).

    Both schemes step an affine system y' = L y + F.  The symplectic
    condition b_i a_ij + b_j a_ji = b_i b_j gives a_ij = b_j (j < i) and
    a_ii = b_i / 2 on every stage of nonzero weight, and a stage of zero
    weight feeds no such stage nor the result.  So the step is a chain of
    midpoint substeps of length h = dt b_i, each solving
    Y = y + (h/2) (L Y + F) and moving y to y + h (L Y + F) = 2 Y - y.
    Each scheme reads one output z of the substep, linear in its solution
    and the forcing, and advances the state from z alone.  The unforced
    substep data and the output are linear in y and in the substep
    solution, element by element, so :func:`~swehdg.elliptic.condense`
    folds them around the local elimination once per distinct scale
    delta = h/2, in the same batched solve that forms the trace system,
    and a substep is

        t = lu.solve(R y + r0),    z = K y + Kt t + k0,    y <- advance(y, h, z, t)

    with r0 = R (delta F) and k0 = K (delta F) + z0, z0 the output's
    constant term: one sparse product into the trace, one trace LU solve
    and two sparse products out.  Each scale is condensed in one call,
    which builds the element blocks and maps itself, drops each after its
    last read and returns only the trace Schur complement and the
    composed operators, so no block or map is alive while they are
    scattered or the trace system is factored.  The factors,
    :class:`~swehdg.elliptic.TraceFactor` objects that hold SuperLU's LU
    of the transposed trace system and solve with the trace system by its
    transposed solve, are kept in ``trace_factors``, keyed by scale.  A tableau built with
    ``symplectic=False`` is refused (ValueError).

    A scheme passes the trace block and columns of its substep system,
    the element rows of the state (``rows``) and of the output
    (``out_rows``), F and z0, and supplies:

    - ``_stage_blocks(delta)``: the blocks (A_e, B_e, C_e) of the substep
      system, over the element-local unknowns;
    - ``_stage_maps()``: the element blocks (Lf, Lg, Kx, Kt) that map y
      onto the local and trace data of the unforced substep and its
      solution onto the output (Lf None: the identity, Lg None: no trace
      data, Kt None: no trace part); they do not depend on the scale;
    - ``_advance(y, h, z, t)``: the state after the substep of length h
      from y whose output is z and whose trace solution is t; a scheme
      may read t (the flux scheme carries the recovered trace with it) or
      ignore it.
    """

    def __init__(self, tableau, dt, trace, cols, rows, forcing, out_rows, out_const):
        _require_symplectic(tableau)
        self.tableau = tableau
        self.dt = float(dt)
        self.trace_factors = {}
        self._stages = {}
        shape = (out_const.size, forcing.size)
        for delta in 0.5 * self.dt * tableau.b:
            if delta in self._stages:
                continue
            try:
                schur, (R, K, Kt) = condense(partial(self._stage_blocks, delta), trace, cols,
                                             compose=(self._stage_maps, rows, out_rows, shape))
                self.trace_factors[delta] = factor_trace(schur)
            except RuntimeError as exc:
                raise RuntimeError(
                    f"stage factorization failed for stage scale {delta}: {exc}") from exc
            del schur
            self._stages[delta] = (R, K, Kt, R @ (delta * forcing),
                                   K @ (delta * forcing) + out_const)

    def step(self, y):
        for h in self.dt * self.tableau.b:
            R, K, Kt, r0, k0 = self._stages[0.5 * h]
            t = self.trace_factors[0.5 * h].solve(R @ y + r0)
            y = self._advance(y, h, K @ y + Kt @ t + k0, t)
        return y


class SdirkIntegrator(DirkIntegrator):
    """Diagonally implicit stepper for the flux scheme.

    Each stage eliminates the flux exactly and the velocity and height
    element by element (see :func:`uw_stage_blocks`), so the trace system
    has the sparsity of the recovery Schur complement.  The output of a
    substep is its velocity U alone: the flux row of the substep gives
    W = w + (h/2) phi U, so the substep moves the state to
    (w + h phi U, 2 U - u).  The last two rows of the substep system are
    the recovery equations at W, so its trace solution t is p_hat(W), and
    the substep hands it to :meth:`~swehdg.elliptic.PhiRecovery.carry`.
    """

    def __init__(self, system, tableau, dt):
        self.system = system
        m = system.matrices
        ne = m.wdofs.shape[0]
        vdofs = m.vdofs.reshape(ne, -1)
        super().__init__(tableau, dt, m.stab_trace, m.trace_cols,
                         np.concatenate([vdofs, system.nv + vdofs], axis=1),
                         np.concatenate([np.zeros(system.nv), system.forcing]),
                         vdofs, np.zeros(system.nv))

    def _stage_blocks(self, delta):
        return uw_stage_blocks(self.system.matrices, self.system.phi, delta)

    def _stage_maps(self):
        # local data (r_u, -D^T r_w), trace data F^T r_w, both over
        # (w_e, u_e); output u_e from (u_e, p_e)
        m = self.system.matrices
        div, flux = m.div_blocks, m.flux_blocks
        ne, nu, nm = div.shape
        lf = np.zeros((ne, nu + nm, 2 * nu))
        lf[:, :nu, nu:] = np.eye(nu)
        lf[:, nu:, :nu] = -div.transpose(0, 2, 1)
        lg = np.zeros((ne, flux.shape[2], 2 * nu))
        lg[:, :, :nu] = flux.transpose(0, 2, 1)
        kx = np.zeros((ne, nu, nu + nm))
        kx[:, :, :nu] = np.eye(nu)
        return lf, lg, kx, None

    def _advance(self, y, h, velocity, t):
        w, u = self.system.split(y)
        w_next = w + (h * self.system.phi) * velocity
        self.system.recovery.carry(w, w_next, t)
        return np.concatenate([w_next, 2.0 * velocity - u])


class SeprkIntegrator:
    """Fixed-step explicit partitioned stepper.

    The symplectic condition b_i a_hat_ij + b_hat_j a_ji = b_i b_hat_j
    gives a_ij = b_j (j <= i) and a_hat_ij = b_hat_j (j < i) wherever the
    weight it divides by is nonzero, and the stages it leaves free feed
    nothing the step returns.  So the step is a chain of drift-kick
    pairs: the flux drifts by dt b_i phi u, then the velocity is kicked
    by dt b_hat_i times its slope at the drifted flux.  A kick costs one
    wave-operator application and is skipped when b_hat_i is zero; the
    leapfrog compositions end with such a pair, so seprk2/4/6 apply the
    operator 1/3/7 times per step.  seprk1 and seprk3 end on a kick at
    the final flux, whose trace solve the recovery keeps, so a record
    after their step makes no trace solve.  The build factors the
    recovery and forms its wave operator
    (:meth:`~swehdg.elliptic.PhiRecovery.prepare_apply`), so the first
    step does no build work, and the step applies the held operators as
    they are (no per-step transpose, which would copy a BSR).  The step
    drifts and kicks one copy of the state in place.  A tableau built
    with ``symplectic=False`` is refused (ValueError).

    The rotation term is evaluated explicitly in each kick, so the
    composition retains its declared order only when rotation is absent
    (with rotation it drops to first order); :func:`make_integrator`
    refuses it on rotating problems.
    """

    def __init__(self, system, tableau, dt):
        _require_symplectic(tableau)
        self.system = system
        self.tableau = tableau
        self.dt = float(dt)
        system.recovery.prepare_apply()

    def step(self, y):
        """The state one step after y, which is left unchanged: the drifts
        and kicks update one copy of it in place."""
        sysm, dt = self.system, self.dt
        y = np.array(y, dtype=float)
        w, u = sysm.split(y)
        for b, b_hat in zip(self.tableau.b, self.tableau.b_hat):
            w += (dt * b * sysm.phi) * u
            if b_hat:
                u += (dt * b_hat) * sysm.velocity_slope(w, u)
        return y


_IMPLICIT_NAMES = {"midpoint": 2, "sdirk2": 2, "sdirk4": 4}
# every scheme name make_integrator accepts, matched without regard to case
SCHEME_NAMES = (*_IMPLICIT_NAMES, *(f"seprk{order}" for order in EXPLICIT_ORDERS))


def make_integrator(name, system, dt):
    """Stepper factory keyed by the scheme names used in config files,
    ``SCHEME_NAMES``.  The explicit seprkN steppers are refused
    (ValueError) when the system rotates, since they would fall to first
    order there."""
    key = name.strip().lower()
    if key not in SCHEME_NAMES:
        order = key[len("seprk"):]
        if key.startswith("seprk") and order.isdigit():
            make_seprk(int(order))  # its error names the orders the family has
        raise ValueError(f"unknown integrator {name!r}; use one of "
                         + ", ".join(SCHEME_NAMES))
    if key in _IMPLICIT_NAMES:
        return SdirkIntegrator(system, make_sdirk(_IMPLICIT_NAMES[key]), dt)
    if system.matrices.params.rotating:
        raise ValueError(
            f"explicit integrator {name!r} drops to first order with "
            "rotation (f0 or beta nonzero); use midpoint, sdirk2 or sdirk4")
    return SeprkIntegrator(system, make_seprk(int(key[len("seprk"):])), dt)
