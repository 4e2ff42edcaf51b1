"""Tableau checks and stepper behavior on small systems."""

from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from swehdg.assembly import PhysicalParams, assemble_all
from swehdg.diagnostics import total_energy
from swehdg.elliptic import PhiRecovery, initialize_state
from swehdg.fespace import build_spaces
from swehdg.integrators import (
    EXPLICIT_ORDERS,
    SCHEME_NAMES,
    ButcherTableau,
    PartitionedTableau,
    SdirkIntegrator,
    SemidiscreteSystem,
    SeprkIntegrator,
    check_symplectic,
    make_integrator,
    make_sdirk,
    make_seprk,
)
from swehdg.mesh import generate_uniform_rect, generate_uniform_square
from swehdg.swe import (
    PhiuIntegrator,
    build_phiu_system,
    build_uw_system,
    hamiltonian_load,
    make_problem,
    phiu_energy,
)

from helpers import SUBSTEP_WEIGHTS, midpoint_composition, stage_slope


def test_symplectic_residual_examples():
    assert check_symplectic(make_sdirk(2)) == 0.0
    euler = ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0], declared_order=1,
                           symplectic=False)
    assert check_symplectic(euler) == pytest.approx(1.0)
    assert check_symplectic(make_sdirk(4)) <= 1e-15
    for order in (1, 2, 3, 4, 6):
        assert check_symplectic(make_seprk(order)) <= 1e-15


def test_tableau_validation():
    with pytest.raises(ValueError):
        ButcherTableau(a=[[0.5]], b=[1.0], c=[0.3], declared_order=2)
    with pytest.raises(ValueError):
        ButcherTableau(a=[[0.0, 1.0], [0.0, 0.0]], b=[0.5, 0.5], c=[1.0, 0.0],
                       declared_order=1, symplectic=False)
    with pytest.raises(ValueError):
        ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0], declared_order=1)
    good = make_seprk(2)
    with pytest.raises(ValueError):
        PartitionedTableau(a=good.a, b=good.b, c=good.c, a_hat=good.a,
                           b_hat=good.b_hat, c_hat=good.a.sum(axis=1),
                           declared_order=2)


def test_make_sdirk_values():
    mid = make_sdirk(2)
    assert mid.a.tolist() == [[0.5]] and mid.b.tolist() == [1.0]
    tab = make_sdirk(4)
    gamma = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
    assert gamma == pytest.approx(1.351207191959658, abs=1e-14)
    assert tab.b.tolist() == pytest.approx([gamma, 1 - 2 * gamma, gamma])
    assert abs(tab.b.sum() - 1.0) <= 1e-15
    assert np.allclose(tab.a.diagonal(), tab.b / 2)
    with pytest.raises(ValueError):
        make_sdirk(3)


def test_make_seprk_values():
    one = make_seprk(1)
    assert one.a.tolist() == [[1.0]] and one.b_hat.tolist() == [1.0]
    two = make_seprk(2)
    assert two.b.tolist() == [0.5, 0.5] and two.b_hat.tolist() == [1.0, 0.0]
    three = make_seprk(3)
    assert three.b.tolist() == pytest.approx([7 / 24, 3 / 4, -1 / 24])
    assert three.b_hat.tolist() == pytest.approx([2 / 3, -2 / 3, 1.0])
    for order, stages in [(1, 1), (2, 2), (3, 3), (4, 4), (6, 8)]:
        tab = make_seprk(order)
        assert tab.stages == stages
        assert abs(tab.b.sum() - 1.0) <= 1e-13
        assert abs(tab.b_hat.sum() - 1.0) <= 1e-13
    with pytest.raises(ValueError):
        make_seprk(5)


def _prk_oscillator_error(tab, dt, T=1.0):
    # hand-rolled stage recursion on q' = p, p' = -q as an independent
    # check of the coefficient construction
    q, p = 1.0, 0.3
    for _ in range(int(round(T / dt))):
        ks = np.zeros(tab.stages)
        ls = np.zeros(tab.stages)
        for i in range(tab.stages):
            pst = p + dt * (tab.a_hat[i, :i] @ ls[:i])
            ks[i] = pst
            qst = q + dt * (tab.a[i, :i + 1] @ ks[:i + 1])
            ls[i] = -qst
        q = q + dt * (tab.b @ ks)
        p = p + dt * (tab.b_hat @ ls)
    qe = np.cos(T) + 0.3 * np.sin(T)
    pe = -np.sin(T) + 0.3 * np.cos(T)
    return float(np.hypot(q - qe, p - pe))


def _dirk_oscillator_error(tab, dt, T=1.0):
    mat = np.array([[0.0, 1.0], [-1.0, 0.0]])
    y = np.array([1.0, 0.3])
    eye = np.eye(2)
    for _ in range(int(round(T / dt))):
        ks = np.zeros((tab.stages, 2))
        for i in range(tab.stages):
            acc = y + dt * (tab.a[i, :i] @ ks[:i])
            ks[i] = np.linalg.solve(eye - dt * tab.a[i, i] * mat, mat @ acc)
        y = y + dt * (tab.b @ ks)
    exact = expm(T * mat) @ np.array([1.0, 0.3])
    return float(np.linalg.norm(y - exact))


@pytest.mark.parametrize("order,dt", [(1, 1e-2), (2, 1e-2), (3, 1e-2),
                                      (4, 2e-2), (6, 5e-2)])
def test_seprk_oscillator_order(order, dt):
    tab = make_seprk(order)
    ratio = (_prk_oscillator_error(tab, dt)
             / _prk_oscillator_error(tab, dt / 2))
    assert np.log2(ratio) == pytest.approx(order, abs=0.25)


@pytest.mark.parametrize("order,dt", [(2, 1e-2), (4, 4e-2)])
def test_sdirk_oscillator_order(order, dt):
    tab = make_sdirk(order)
    ratio = (_dirk_oscillator_error(tab, dt)
             / _dirk_oscillator_error(tab, dt / 2))
    assert np.log2(ratio) == pytest.approx(order, abs=0.2)


def _make_system(mesh, k, forcing=None, **kw):
    spaces = build_spaces(mesh, k)
    params = PhysicalParams(**kw)
    mats = assemble_all(spaces, params)
    system = SemidiscreteSystem(matrices=mats, recovery=PhiRecovery(mats),
                                forcing=forcing)
    return spaces, system


def _standing_wave_state(levels, k, **kw):
    mesh = generate_uniform_square(levels)
    spaces = build_spaces(mesh, k)
    params = PhysicalParams(**kw)
    mats = assemble_all(spaces, params)
    state = initialize_state(
        mats, grad_phi0=lambda x, y: (-np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
                                      -np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)))
    system = SemidiscreteSystem(matrices=mats, recovery=PhiRecovery(mats))
    y0 = np.concatenate([state.init.w, state.u])
    return system, y0


def _energy(system, y):
    m = system.matrices
    w, u = system.split(y)
    p, phat = system.recovery.recover(w)
    pot = (p @ p + p @ (m.stab_local @ p) - 2.0 * p @ (m.stab_mixed @ phat)
           + phat @ (m.stab_trace @ phat))
    return 0.5 * system.phi * (u @ u) + 0.5 * pot


def test_step_dt_zero_is_identity():
    mesh = generate_uniform_square(1)
    _, system = _make_system(mesh, 1, f0=0.4)
    rng = np.random.default_rng(3)
    y = rng.standard_normal(2 * system.nv)
    assert np.array_equal(SdirkIntegrator(system, make_sdirk(4), 0.0).step(y), y)
    assert np.array_equal(SeprkIntegrator(system, make_seprk(3), 0.0).step(y), y)


def test_zero_state_stays_zero():
    mesh = generate_uniform_square(1)
    _, system = _make_system(mesh, 1)
    y = np.zeros(2 * system.nv)
    stepper = SeprkIntegrator(system, make_seprk(4), 1e-2)
    for _ in range(5):
        y = stepper.step(y)
    assert np.abs(y).max() == 0.0


def test_midpoint_conserves_energy_with_rotation():
    system, y = _standing_wave_state(2, 1, f0=0.7)
    h0 = _energy(system, y)
    stepper = SdirkIntegrator(system, make_sdirk(2), 1e-2)
    worst = 0.0
    for _ in range(50):
        y = stepper.step(y)
        worst = max(worst, abs(_energy(system, y) - h0))
    assert worst <= 1e-12 * abs(h0)


def _dense_operator(system):
    n = 2 * system.nv
    cols = [system.rhs(col) - np.concatenate(
        [np.zeros(system.nv), system.forcing]) for col in np.eye(n)]
    return np.column_stack(cols)


def test_sdirk4_matches_dense_exponential():
    mesh = generate_uniform_rect(1, 1)
    _, system = _make_system(mesh, 1, f0=0.3)
    rng = np.random.default_rng(11)
    y0 = rng.standard_normal(2 * system.nv)
    mat = _dense_operator(system)
    exact = expm(0.1 * mat) @ y0
    stepper = SdirkIntegrator(system, make_sdirk(4), 1e-3)
    y = y0.copy()
    for _ in range(100):
        y = stepper.step(y)
    assert np.linalg.norm(y - exact) <= 1e-9


def test_seprk_drops_to_first_order_with_rotation():
    # the explicit recursion stages the rotation term at the partially
    # updated velocity, which costs the composition its formal order;
    # make_integrator therefore refuses it on rotating problems
    mesh = generate_uniform_rect(1, 1)
    _, system = _make_system(mesh, 1, f0=0.3)
    rng = np.random.default_rng(12)
    y0 = rng.standard_normal(2 * system.nv)
    mat = _dense_operator(system)
    exact = expm(0.1 * mat) @ y0
    errs = []
    for dt in (2e-3, 1e-3):
        stepper = SeprkIntegrator(system, make_seprk(4), dt)
        y = y0.copy()
        for _ in range(int(round(0.1 / dt))):
            y = stepper.step(y)
        errs.append(np.linalg.norm(y - exact))
    assert np.log2(errs[0] / errs[1]) == pytest.approx(1.0, abs=0.2)


def test_seprk3_refinement_on_standing_wave():
    system, y0 = _standing_wave_state(2, 1)
    mat = _dense_operator(system)
    horizon = 0.2
    exact = expm(horizon * mat) @ y0
    errs = []
    for dt in (2e-3, 1e-3):
        stepper = SeprkIntegrator(system, make_seprk(3), dt)
        y = y0.copy()
        for _ in range(int(round(horizon / dt))):
            y = stepper.step(y)
        errs.append(np.linalg.norm(y - exact))
    assert 6.5 <= errs[0] / errs[1] <= 9.5


def _augmented_reference(system, forcing, y0, horizon):
    # augmented generator integrates the constant forcing exactly even
    # though the homogeneous operator is singular
    n = 2 * system.nv
    mat = _dense_operator(system)
    aug = np.zeros((n + 1, n + 1))
    aug[:n, :n] = mat
    aug[:n, n] = np.concatenate([np.zeros(system.nv), forcing])
    return (expm(horizon * aug) @ np.concatenate([y0, [1.0]]))[:n]


@pytest.mark.parametrize("explicit,f0", [(False, 0.2), (True, 0.0)])
def test_affine_forcing_against_augmented_exponential(explicit, f0):
    mesh = generate_uniform_rect(1, 1)
    spaces = build_spaces(mesh, 1)
    rng = np.random.default_rng(7)
    forcing = rng.standard_normal(spaces.vector.ndof)
    _, system = _make_system(mesh, 1, forcing=forcing, f0=f0)
    y0 = rng.standard_normal(2 * system.nv)
    exact = _augmented_reference(system, forcing, y0, 0.05)

    if explicit:
        stepper = SeprkIntegrator(system, make_seprk(4), 5e-4)
    else:
        stepper = SdirkIntegrator(system, make_sdirk(4), 5e-4)
    y = y0.copy()
    for _ in range(100):
        y = stepper.step(y)
    assert np.linalg.norm(y - exact) <= 1e-8 * max(1.0, np.linalg.norm(exact))


# the problem features of the order matrix: parameter overrides and load
ORDER_FEATURES = {
    "still": ({}, None),
    "f-plane": ({"f0": 0.3}, None),
    "beta-plane": ({"f0": 0.3, "beta": 0.2}, None),
    "bathymetry": ({}, "bathymetry"),
    "forcing": ({}, "forcing"),
}
# the height scheme's steppers, by the order of their make_sdirk tableau
HEIGHT_SCHEMES = {"height-midpoint": 2, "height-sdirk4": 4}
# allowed distance of the measured order from the declared one, fixed
# before any order was measured
ORDER_SLACK = 0.3


def _bed(x, y):
    return 0.3 * np.cos(x + 2.0 * y)


def _bed_grad(x, y):
    return -0.3 * np.sin(x + 2.0 * y), -0.6 * np.sin(x + 2.0 * y)


def _march(stepper, y, horizon):
    for _ in range(int(round(horizon / stepper.dt))):
        y = stepper.step(y)
    return y


@pytest.mark.parametrize("feature", ORDER_FEATURES)
@pytest.mark.parametrize("scheme", SCHEME_NAMES + tuple(HEIGHT_SCHEMES))
def test_order_matrix(scheme, feature):
    # every stepper reaches its declared order on every problem feature it
    # accepts, and refuses the others: the flux scheme measured against
    # the exponential of its augmented generator, the height scheme by
    # Richardson over three dts
    mesh = generate_uniform_rect(1, 1)
    params, load = ORDER_FEATURES[feature]
    rng = np.random.default_rng(9)
    horizon, dts = 0.5, (0.025, 0.0125, 0.00625)
    height = scheme in HEIGHT_SCHEMES
    if height:
        spec = make_problem("standing_wave", mesh, 1, **params)
        if load == "bathymetry":
            spec = replace(spec, bathymetry=_bed, grad_bathymetry=_bed_grad)
        run = build_phiu_system(spec)
        if load == "forcing":
            run.forcing = rng.standard_normal(run.forcing.size)
        tableau = make_sdirk(HEIGHT_SCHEMES[scheme])
        refusal = "nonnegative weights" if np.any(tableau.b < 0.0) else None
        y0 = rng.standard_normal(run.y0.size)

        def build(dt):
            return PhiuIntegrator(run, tableau, dt)
    else:
        spaces, system = _make_system(mesh, 1, **params)
        if load == "bathymetry":
            system.forcing = hamiltonian_load(system.recovery,
                                              spaces.scalar.project(_bed))
        if load == "forcing":
            system.forcing = rng.standard_normal(system.nv)
        refusal = ("drops to first order with rotation"
                   if scheme.startswith("seprk") and system.matrices.params.rotating else None)
        y0 = rng.standard_normal(2 * system.nv)

        def build(dt):
            return make_integrator(scheme, system, dt)
    if refusal:
        with pytest.raises(ValueError, match=refusal):
            build(dts[0])
        return
    steppers = [build(dt) for dt in (dts if height else dts[:2])]
    ys = [_march(stepper, y0, horizon) for stepper in steppers]
    if height:
        errs = [np.linalg.norm(ys[0] - ys[1]), np.linalg.norm(ys[1] - ys[2])]
    else:
        exact = _augmented_reference(system, system.forcing, y0, horizon)
        errs = [np.linalg.norm(y - exact) for y in ys]
    assert np.log2(errs[0] / errs[1]) == pytest.approx(steppers[0].tableau.declared_order,
                                                       abs=ORDER_SLACK)


def test_make_integrator_names():
    mesh = generate_uniform_square(1)
    _, system = _make_system(mesh, 1)
    assert isinstance(make_integrator("midpoint", system, 1e-2), SdirkIntegrator)
    assert make_integrator("sdirk4", system, 1e-2).tableau.declared_order == 4
    assert make_integrator("seprk6", system, 1e-2).tableau.stages == 8
    with pytest.raises(ValueError):
        make_integrator("seprk5", system, 1e-2)
    with pytest.raises(ValueError):
        make_integrator("rk4", system, 1e-2)
    with pytest.raises(ValueError):
        make_integrator("seprkx", system, 1e-2)


def test_make_integrator_accepts_exactly_the_scheme_names():
    mesh = generate_uniform_square(1)
    _, system = _make_system(mesh, 1)
    assert SCHEME_NAMES == ("midpoint", "sdirk2", "sdirk4", "seprk1", "seprk2",
                            "seprk3", "seprk4", "seprk6")
    for name in SCHEME_NAMES:
        stepper = make_integrator(f" {name.upper()} ", system, 1e-2)
        assert isinstance(stepper, SeprkIntegrator if "seprk" in name else SdirkIntegrator)
    for name in ("seprk04", "seprk+4", "sdirk", "midpoint2", ""):
        with pytest.raises(ValueError, match="unknown integrator"):
            make_integrator(name, system, 1e-2)


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _stage_recursion_dirk_step(stepper, y):
    # the general diagonally implicit recursion over stage slopes, each
    # stage solved with the stepper's own condensed operators
    tab, dt = stepper.tableau, stepper.dt
    slopes = np.empty((tab.stages, y.size))
    for i in range(tab.stages):
        acc = y + dt * (tab.a[i, :i] @ slopes[:i])
        slopes[i] = stage_slope(stepper, dt * tab.a[i, i], acc)
    return y + dt * (tab.b @ slopes)


def _every_stage_seprk_step(stepper, y):
    # the stage recursion with every velocity slope evaluated
    sysm, tab, dt = stepper.system, stepper.tableau, stepper.dt
    w0, u0 = sysm.split(y)
    flux_slopes = np.empty((tab.stages, w0.size))
    vel_slopes = np.empty((tab.stages, w0.size))
    for i in range(tab.stages):
        u_stage = u0 + dt * (tab.a_hat[i, :i] @ vel_slopes[:i])
        flux_slopes[i] = sysm.phi * u_stage
        w_stage = w0 + dt * (tab.a[i, :i + 1] @ flux_slopes[:i + 1])
        vel_slopes[i] = sysm.velocity_slope(w_stage, u_stage)
    return np.concatenate([w0 + dt * (tab.b @ flux_slopes),
                           u0 + dt * (tab.b_hat @ vel_slopes)])


@pytest.mark.parametrize("order,applies", [(1, 1), (2, 1), (3, 3), (4, 3), (6, 7)])
def test_seprk_skips_zero_weight_velocity_stages(order, applies):
    mesh = generate_uniform_square(1)
    rng = np.random.default_rng(20 + order)
    spaces, system = _make_system(mesh, 1, f0=0.4)
    system.forcing = rng.standard_normal(system.nv)
    stepper = SeprkIntegrator(system, make_seprk(order), 0.05)
    assert np.count_nonzero(stepper.tableau.b_hat) == applies

    calls = []
    real_apply = system.recovery.apply

    def counting_apply(w):
        calls.append(1)
        return real_apply(w)

    system.recovery.apply = counting_apply
    y = rng.standard_normal(2 * system.nv)
    for _ in range(3):
        calls.clear()
        y_next = stepper.step(y)
        assert len(calls) == applies
        assert _rel(y_next, _every_stage_seprk_step(stepper, y)) <= 1e-13
        y = y_next


@pytest.mark.parametrize("rotation", [{"f0": 0.3}, {"beta": 0.2}])
def test_make_integrator_refuses_explicit_steppers_with_rotation(rotation):
    mesh = generate_uniform_square(1)
    _, system = _make_system(mesh, 1, **rotation)
    for order in (1, 2, 3, 4, 6):
        with pytest.raises(ValueError, match="drops to first order with rotation"):
            make_integrator(f"seprk{order}", system, 1e-2)
    for name in ("midpoint", "sdirk2", "sdirk4"):
        assert isinstance(make_integrator(name, system, 1e-2), SdirkIntegrator)
    with pytest.raises(ValueError, match="unsupported explicit order"):
        make_integrator("seprk5", system, 1e-2)


def _composition_cases():
    mesh = generate_uniform_square(2)
    rng = np.random.default_rng(31)
    _, system = _make_system(mesh, 1, f0=0.3)
    system.forcing = rng.standard_normal(system.nv)
    yield (SdirkIntegrator(system, make_sdirk(4), 0.05), _stage_recursion_dirk_step,
           rng.standard_normal(2 * system.nv))
    run = build_phiu_system(make_problem("moving_bump", mesh, 1))
    run.forcing = rng.standard_normal(run.spaces.vector.ndof)
    yield (PhiuIntegrator(run, midpoint_composition(SUBSTEP_WEIGHTS[4]), 0.05),
           _stage_recursion_dirk_step,
           rng.standard_normal(run.y0.size))
    _, system = _make_system(mesh, 1)
    system.forcing = rng.standard_normal(system.nv)
    for order in EXPLICIT_ORDERS:
        yield (SeprkIntegrator(system, make_seprk(order), 0.02), _every_stage_seprk_step,
               rng.standard_normal(2 * system.nv))


def test_composition_step_matches_the_stage_recursion():
    # every shipped tableau is symplectic, so walking its substeps gives
    # the general stage recursion up to rounding
    for stepper, oracle, y in _composition_cases():
        for _ in range(3):
            y_next = stepper.step(y)
            assert _rel(y_next, oracle(stepper, y)) <= 1e-13
            y = y_next


def test_steppers_refuse_a_non_symplectic_tableau():
    mesh = generate_uniform_square(1)
    _, system = _make_system(mesh, 1)
    euler = ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0], declared_order=1,
                           symplectic=False)
    explicit_euler = PartitionedTableau(a=[[0.0]], b=[1.0], c=[0.0], a_hat=[[0.0]],
                                        b_hat=[1.0], c_hat=[0.0], declared_order=1,
                                        symplectic=False)
    run = build_phiu_system(make_problem("standing_wave", mesh, 1))
    for build in (lambda: SdirkIntegrator(system, euler, 0.1),
                  lambda: PhiuIntegrator(run, euler, 0.1),
                  lambda: SeprkIntegrator(system, explicit_euler, 0.1)):
        with pytest.raises(ValueError, match="symplectic=True"):
            build()


class _CountingSchur:
    """Stands in for a recovery's trace factor and counts its solves."""

    def __init__(self, lu):
        self.lu = lu
        self.solves = 0

    def solve(self, rhs, trans="N"):
        self.solves += 1
        return self.lu.solve(rhs, trans=trans)


def _counted(recovery):
    recovery.schur = _CountingSchur(recovery.factor())
    return recovery.schur


def _small_wave_run():
    return build_uw_system(make_problem("standing_wave", generate_uniform_square(2), 1))


# largest max-norm distance, relative to the fresh trace, of the trace
# carried across implicit substeps from a fresh solve; fixed before the
# drift was measured
CARRIED_TRACE_RTOL = 1e-10


@pytest.mark.parametrize("name", ["midpoint", "sdirk4"])
def test_carried_trace_matches_a_fresh_solve(name):
    # gaussian_pulse rotates (f0) and is forced by its bed; after 400
    # steps the trace a record reads, carried as 2 t - p_hat(w) from the
    # initial record, still agrees with a trace solve of the same flux
    mesh = generate_uniform_rect(6, 2, bounds=(-20.0, 10.0, -5.0, 5.0))
    run = build_uw_system(make_problem("gaussian_pulse", mesh, 1))
    rec, split = run.recovery, run.system.split
    stepper = make_integrator(name, run.system, 0.1)
    rec.recover(split(run.y0)[0])
    schur = _counted(rec)
    y, worst = run.y0, 0.0
    for _ in range(400):
        y = stepper.step(y)
        w = split(y)[0]
        fresh = schur.lu.solve(rec._G @ w)
        worst = max(worst, np.abs(rec.recover(w)[1] - fresh).max() / np.abs(fresh).max())
    assert schur.solves == 0
    assert worst <= CARRIED_TRACE_RTOL


@pytest.mark.parametrize("name", ["midpoint", "sdirk2", "sdirk4", "seprk1", "seprk3"])
def test_records_after_a_flux_step_make_no_trace_solve(name):
    # the loop of compare_dissipative: the energy at t = 0 and after every
    # step; the first record reads the trace the init solve seeded, and
    # an implicit run makes no recovery solve at all
    run = _small_wave_run()
    schur = _counted(run.recovery)
    stepper = make_integrator(name, run.system, 0.01)
    total_energy(run, run.y0)
    assert schur.solves == 0
    y = run.y0
    for _ in range(20):
        y = stepper.step(y)
        before = schur.solves
        total_energy(run, y)
        assert schur.solves == before
    if not name.startswith("seprk"):
        assert schur.solves == 0


def test_a_flux_the_stepper_did_not_produce_is_solved_afresh():
    run = _small_wave_run()
    # a recovery without the init solve's seed
    rec, split = PhiRecovery(run.matrices), run.system.split
    schur = _counted(rec)
    stepper = make_integrator("midpoint", replace(run.system, recovery=rec), 0.01)
    # a run that never recovered its initial flux has nothing to carry
    y = stepper.step(run.y0)
    rec.recover(split(y)[0])
    assert schur.solves == 1
    # a stepped flux changed by its caller
    y = stepper.step(y)
    w = split(y)[0].copy()
    w[0] += 1e-3
    phat = rec.recover(w)[1]
    assert schur.solves == 2
    assert np.array_equal(phat, schur.lu.solve(rec._G @ w))
    # the recovery keeps a copy: a caller's array changed in place is
    # not taken for the flux it held before
    w[1] += 1e-3
    rec.recover(w)
    assert schur.solves == 3
    # nor does a step from a flux other than the stored one carry a trace
    rec.recover(split(stepper.step(y))[0])
    assert schur.solves == 4


def test_a_returned_trace_is_read_only():
    run = _small_wave_run()
    rec, split = run.recovery, run.system.split
    stepper = make_integrator("midpoint", run.system, 0.01)
    fresh = rec.recover(split(run.y0)[0])[1]
    carried = rec.recover(split(stepper.step(run.y0))[0])[1]
    for phat in (fresh, carried):
        with pytest.raises(ValueError, match="read-only"):
            phat[0] = 1.0


@pytest.mark.parametrize("name", ["seprk2", "seprk4", "midpoint"])
def test_only_an_explicit_stepper_builds_the_wave_operator(name):
    # an explicit stepper applies the operator every step, so its build
    # factors the recovery and forms H and Mw; an implicit one needs none
    run = _small_wave_run()
    rec = run.recovery
    assert rec.schur is None and rec._wave is None
    make_integrator(name, run.system, 0.01)
    if name.startswith("seprk"):
        assert rec.schur is not None and rec._wave is not None
        assert rec.prepare_apply() is rec._wave
    else:
        assert rec.schur is None and rec._wave is None


def test_implicit_runs_beside_the_height_scheme_build_no_unread_pairing():
    # the loop of compare_dissipative: neither scheme's stages nor the
    # records read D or the rotation as sparse pairings, and an
    # implicit run without bathymetry never applies the recovery
    uw = build_uw_system(make_problem("standing_wave", generate_uniform_square(3), 1))
    phiu = build_phiu_system(uw.spec, matrices=uw.matrices)
    runs = [(make_integrator("midpoint", uw.system, 0.01), uw.y0),
            (PhiuIntegrator(phiu, make_sdirk(2), 0.01), phiu.y0)]
    total_energy(uw, uw.y0)
    for _ in range(20):
        runs = [(stepper, stepper.step(y)) for stepper, y in runs]
        total_energy(uw, runs[0][1])
        phiu_energy(phiu, runs[1][1])
    assert not {"div_pair", "coriolis"} & set(vars(uw.matrices))
    assert uw.recovery.schur is None and uw.recovery._wave is None


@pytest.mark.parametrize("order", [1, 3])
def test_recover_after_a_step_ending_on_a_kick_is_the_fresh_solve(order):
    run = _small_wave_run()
    rec = run.recovery
    stepper = make_integrator(f"seprk{order}", run.system, 0.01)
    w = run.system.split(stepper.step(stepper.step(run.y0)))[0]
    schur = _counted(rec)
    p, phat = rec.recover(w)
    assert schur.solves == 0
    fresh = schur.lu.solve(rec._G @ w)
    assert np.array_equal(phat, fresh)
    assert np.array_equal(p, rec._Pw @ w + rec._Pt @ fresh)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_wave_operator_is_symmetric_by_construction(k):
    # H is the transpose of the held G entry for entry, so the operator
    # H S^-1 G + Mw is symmetric up to the rounding of the trace solve
    run = build_uw_system(make_problem("standing_wave", generate_uniform_square(2), k))
    rec = run.recovery
    H, _ = rec.prepare_apply()
    assert H.format == rec._G.format
    assert np.array_equal(H.toarray(), rec._G.T.toarray())
    rng = np.random.default_rng(700 + k)
    x, y = rng.standard_normal((2, run.system.nv))
    ax, ay = rec.apply(x), rec.apply(y)
    assert abs(x @ ay - y @ ax) <= 1e-14 * np.linalg.norm(x) * np.linalg.norm(ay)


@pytest.mark.parametrize("order", EXPLICIT_ORDERS)
def test_explicit_step_leaves_its_argument_and_matches_the_allocating_step(order):
    # the drifts and kicks run in place on one copy of the state; the
    # result is that of the same composition on fresh arrays, bit for bit
    run = build_uw_system(make_problem("standing_wave", generate_uniform_square(2), 2))
    system, dt = run.system, 0.01
    stepper = make_integrator(f"seprk{order}", system, dt)
    y = np.random.default_rng(800 + order).standard_normal(run.y0.size)
    kept = y.copy()
    got = stepper.step(y)
    assert np.array_equal(y, kept)
    w, u = system.split(y)
    for b, b_hat in zip(stepper.tableau.b, stepper.tableau.b_hat):
        w = w + (dt * b * system.phi) * u
        if b_hat:
            u = u + (dt * b_hat) * (system.forcing - system.recovery.apply(w))
    assert np.array_equal(got, np.concatenate([w, u]))


@pytest.mark.parametrize("scheme", ["uw", "phiu"])
def test_implicit_step_leaves_its_argument(scheme):
    run = build_uw_system(make_problem("moving_bump", generate_uniform_square(2), 2))
    if scheme == "uw":
        stepper = make_integrator("sdirk4", run.system, 0.01)
    else:
        run = build_phiu_system(run.spec, matrices=run.matrices)
        stepper = PhiuIntegrator(run, make_sdirk(2), 0.01)
    y = np.random.default_rng(900).standard_normal(run.y0.size)
    kept = y.copy()
    stepper.step(y)
    assert np.array_equal(y, kept)
