"""Tests for problem presets, system builders, and the dissipative stepper."""

import numpy as np
import pytest

from swehdg.assembly import PhysicalParams, assemble_bathymetry_load
from swehdg.fespace import TraceSpace, build_spaces
from swehdg.integrators import make_integrator, make_sdirk
from swehdg.mesh import (
    generate_rect_with_hole,
    generate_uniform_rect,
    generate_uniform_square,
    pair_periodic,
)
from swehdg.swe import (
    ManufacturedSolution,
    PhiuIntegrator,
    ProblemSpec,
    build_phiu_system,
    build_uw_system,
    get_preset,
    hamiltonian_load,
    make_problem,
    phiu_energy,
    step_count,
)

from helpers import flux_pairing, iterate_steps, phiu_trace_mismatch, stage_loop

_CSTEP = 1e-30


def _uw_energy(run, y):
    """Quadratic invariant of the flux scheme, shifted by the bathymetry
    pairing when the problem has one."""
    w, u = run.system.split(y)
    p, phat = run.recovery.recover(w)
    m = run.matrices
    pot = (p @ p + p @ (m.stab_local @ p)
           - 2.0 * p @ (m.stab_mixed @ phat) + phat @ (m.stab_trace @ phat))
    total = 0.5 * pot + 0.5 * run.spec.params.phi * (u @ u)
    if run.bathymetry_coeffs is not None:
        total += run.bathymetry_coeffs @ p
    return total


def test_manufactured_solution_satisfies_field_relations():
    ms = ManufacturedSolution()
    mesh = generate_uniform_square(2)
    sc = build_spaces(mesh, 2).scalar
    x, y = sc.qpoints[..., 0], sc.qpoints[..., 1]
    wts = sc.qweights
    flow1, flow2 = ms.flow(x, y)
    for t in (0.0, 0.3):
        s_phi, s_u, s_w = ms.factors(t)
        # complex-step derivatives are exact to roundoff
        w1x = s_w * np.imag(ms.flow(x + 1j * _CSTEP, y)[0]) / _CSTEP
        w2y = s_w * np.imag(ms.flow(x, y + 1j * _CSTEP)[1]) / _CSTEP
        div_gap = -(w1x + w2y) - s_phi * ms.height(x, y)
        assert np.sqrt(np.sum(wts * div_gap ** 2)) <= 1e-12

        # dw/dt = u, at phi = 1
        ds_w = np.imag(ms.factors(t + 1j * _CSTEP)[2]) / _CSTEP
        gap = (ds_w - s_u) ** 2 * (flow1 ** 2 + flow2 ** 2)
        assert np.sqrt(np.sum(wts * gap)) <= 1e-12

    # the flow profile is -grad P / pi, and the preset's gradient is grad P
    gx_ref = np.imag(ms.height(x + 1j * _CSTEP, y)) / _CSTEP
    gy_ref = np.imag(ms.height(x, y + 1j * _CSTEP)) / _CSTEP
    gx, gy = get_preset("standing_wave").grad_phi0(x, y)
    for got in ((gx, gy), (-np.pi * flow1, -np.pi * flow2)):
        assert np.max(np.abs(got[0] - gx_ref)) <= 1e-12
        assert np.max(np.abs(got[1] - gy_ref)) <= 1e-12


def test_exact_state_projection_values():
    mesh = generate_uniform_square(2)
    spaces = build_spaces(mesh, 2)
    ms = ManufacturedSolution()
    flow = np.linalg.norm(spaces.vector.project(ms.flow))
    s_phi, s_u, s_w = ms.factors(0.0)
    assert get_preset("standing_wave").u0 is None and s_u == 0.0 and s_phi == 1.0
    assert np.linalg.norm(spaces.scalar.project(ms.height)) > 0.1
    assert abs(s_w) * flow > 0.01
    assert ms.height(0.5, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert abs(ms.factors(0.3)[1]) * flow > 0.01


def test_preset_parameters_and_profiles():
    sw = get_preset("standing_wave")
    assert sw.params.f0 == 0.0 and sw.params.tau == 1.0
    assert sw.bathymetry is None and sw.manufactured is not None

    mb = get_preset("moving_bump")
    assert mb.params.f0 == 0.5
    assert mb.phi0(-5.0, 2.0) == pytest.approx(2.0)
    assert mb.u0(-5.0, 0.0)[0] == pytest.approx(1.0)
    assert mb.u0(-5.0, 0.0)[1] == 0.0

    gp = get_preset("gaussian_pulse")
    assert gp.params.f0 == 0.1
    assert gp.phi0(-5.0, 0.0) == pytest.approx(10.0)
    assert gp.bathymetry(5.0, 0.0) == pytest.approx(-0.5, abs=1e-7)
    assert gp.bathymetry(-1.0, 0.0) == 0.0
    assert gp.bathymetry(0.0, 0.0) == pytest.approx(-1.1, abs=1e-7)
    gx, gy = gp.grad_bathymetry(-1.0, 0.0)
    assert gx == 0.0 and gy == 0.0

    # analytic mound gradients agree with complex-step values on x > 0
    xs = np.array([0.5, 3.0, 5.0, 7.5])
    ys = np.array([-3.5, -1.0, 0.5, 4.0])
    gx, gy = gp.grad_bathymetry(xs, ys)
    gx_ref = np.imag(gp.bathymetry(xs + 1j * _CSTEP, ys)) / _CSTEP
    gy_ref = np.imag(gp.bathymetry(xs, ys + 1j * _CSTEP)) / _CSTEP
    assert np.allclose(gx, gx_ref, atol=1e-12)
    assert np.allclose(gy, gy_ref, atol=1e-12)

    with pytest.raises(ValueError):
        get_preset("tsunami")


def test_make_problem_applies_overrides():
    mesh = generate_uniform_square(1)
    spec = make_problem("standing_wave", mesh, 2, tau=2.5)
    assert spec.params.tau == 2.5
    assert spec.params.f0 == 0.0
    assert spec.degree == 2
    plain = make_problem("moving_bump", mesh, 1)
    assert plain.params.f0 == 0.5


def test_step_count_lands_on_final_time():
    assert step_count(0.5, 0.1) == (5, pytest.approx(0.1))
    n, dt = step_count(1.0, 0.3)
    assert n == 3 and dt == pytest.approx(1.0 / 3.0)
    n, dt = step_count(0.5, 0.1001)
    assert n == 5 and dt == pytest.approx(0.1)
    assert step_count(0.0, 0.1) == (0, 0.1)


def test_build_uw_standing_wave_has_no_rotation_or_forcing():
    mesh = generate_uniform_square(2)
    spec = make_problem("standing_wave", mesh, 1)
    run = build_uw_system(spec)
    assert abs(run.matrices.coriolis).sum() == 0.0
    assert np.all(run.system.forcing == 0.0)
    assert run.bathymetry_coeffs is None
    nv = run.system.nv
    assert run.y0.shape == (2 * nv,)
    assert np.linalg.norm(run.y0) > 0.0


def test_build_uw_tabulates_one_trace_space(monkeypatch):
    # the init solve's flux trace reads its tangents from the mesh, so a
    # flux run tabulates the trace basis once
    built = []
    tabulate = TraceSpace.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        tabulate(self, *args, **kwargs)

    monkeypatch.setattr(TraceSpace, "__init__", counted)
    mesh = pair_periodic(generate_rect_with_hole((0.0, 3.0, 0.0, 3.0), (1.5, 1.5), 0.6, 1.2),
                         "both")
    run = build_uw_system(make_problem("moving_bump", mesh, 1))
    assert run.init.residual <= 1e-12
    assert built == [TraceSpace]


def test_build_uw_empty_data_gives_zero_state():
    mesh = generate_uniform_square(2)
    spec = ProblemSpec(mesh=mesh, degree=1, params=PhysicalParams())
    run = build_uw_system(spec)
    assert np.all(run.y0 == 0.0)
    stepper = make_integrator("midpoint", run.system, 0.05)
    y = run.y0
    for _ in range(3):
        y = stepper.step(y)
    assert np.all(y == 0.0)


def test_uw_midpoint_holds_energy_with_rotation():
    mesh = generate_uniform_square(2)
    spec = make_problem("standing_wave", mesh, 1, f0=0.7)
    run = build_uw_system(spec)
    stepper = make_integrator("midpoint", run.system, 0.02)
    h0 = _uw_energy(run, run.y0)
    worst = 0.0
    for _, y in iterate_steps(stepper, run.y0, 30):
        worst = max(worst, abs(_uw_energy(run, y) - h0))
    assert worst <= 1e-12 * abs(h0)


def test_phiu_zero_state_stays_zero():
    mesh = generate_uniform_square(2)
    spec = ProblemSpec(mesh=mesh, degree=1, params=PhysicalParams())
    run = build_phiu_system(spec)
    assert np.all(run.y0 == 0.0)
    stepper = PhiuIntegrator(run, make_sdirk(2), 0.05)
    y = run.y0
    for _ in range(3):
        y = stepper.step(y)
    assert np.all(y == 0.0)


def test_phiu_midpoint_dissipation_identity():
    mesh = generate_uniform_square(2)
    spec = make_problem("standing_wave", mesh, 1)
    run = build_phiu_system(spec)
    dt = 0.02
    stepper = PhiuIntegrator(run, make_sdirk(2), dt)
    m = run.matrices
    phi = run.spec.params.phi
    nw = run.spaces.scalar.ndof
    y = run.y0
    e_prev = phiu_energy(run, y)
    scale = max(1.0, e_prev)
    total_drop = 0.0
    for _ in range(25):
        y_new, stages = stage_loop(stepper, y)
        q_s, u_s, qhat_s = stages[0]
        # trace row enforces the numerical-flux continuity at the stage
        res = m.stab_mixed.T @ q_s + phi * (flux_pairing(m).T @ u_s) \
            - m.stab_trace @ qhat_s
        assert np.linalg.norm(res) <= 1e-10 * max(1.0, np.linalg.norm(q_s))
        e_new = phiu_energy(run, y_new)
        mm = phiu_trace_mismatch(run, q_s, qhat_s)
        assert mm >= 0.0
        assert abs((e_new - e_prev) + dt * mm) <= 1e-11 * scale
        assert e_new <= e_prev + 1e-13 * scale
        total_drop += e_prev - e_new
        y, e_prev = y_new, e_new
    assert total_drop > 1e-8


def test_phiu_dissipation_scales_with_stabilization():
    mesh = generate_uniform_square(2)

    def drop(tau):
        spec = make_problem("standing_wave", mesh, 1, tau=tau)
        run = build_phiu_system(spec)
        stepper = PhiuIntegrator(run, make_sdirk(2), 0.02)
        e0 = phiu_energy(run, run.y0)
        y = run.y0
        for _ in range(20):
            y = stepper.step(y)
        return e0 - phiu_energy(run, y)

    strong = drop(1.0)
    weak = drop(1e-8)
    assert strong > 0.0
    assert 0.0 <= weak <= 1e-6 * strong


def test_phiu_refuses_a_negative_weight():
    # sdirk4's middle weight b_2 = 1 - 2 theta puts the pole of its
    # midpoint substep at z = 2 / b_2 on the negative real axis
    mesh = generate_uniform_square(2)
    run = build_phiu_system(make_problem("standing_wave", mesh, 1))
    tableau = make_sdirk(4)
    b = tableau.b[1]
    assert b < 0.0
    with pytest.raises(ValueError, match=rf"weight b_2 = {b:.6g} .* z = 2/b = {2.0 / b:.6g}"):
        PhiuIntegrator(run, tableau, 0.02)


def test_chain_load_equals_quadrature_load_for_polynomial_bathymetry():
    mesh = generate_uniform_square(2)
    spaces = build_spaces(mesh, 2)
    params = PhysicalParams(phi=1.5, tau=0.9)
    from swehdg.assembly import assemble_all
    from swehdg.elliptic import PhiRecovery
    mats = assemble_all(mesh, spaces, params)
    recovery = PhiRecovery(mats)

    def bath(x, y):
        return 0.3 + x - 2.0 * y + 0.5 * x * y

    def bath_grad(x, y):
        return 1.0 + 0.5 * y, -2.0 + 0.5 * x

    coeffs = spaces.scalar.project(bath)
    chain = hamiltonian_load(recovery, coeffs)
    quad = -assemble_bathymetry_load(spaces, bath_grad, params.phi) / params.phi
    scale = np.linalg.norm(quad)
    assert np.linalg.norm(chain - quad) <= 1e-11 * scale


def test_chain_load_converges_to_quadrature_load():
    def bath(x, y):
        return np.exp(-4.0 * ((x - 0.4) ** 2 + (y - 0.6) ** 2))

    def bath_grad(x, y):
        b = bath(x, y)
        return -8.0 * (x - 0.4) * b, -8.0 * (y - 0.6) * b

    from swehdg.assembly import assemble_all
    from swehdg.elliptic import PhiRecovery
    rel = []
    for level in (2, 3, 4):
        mesh = generate_uniform_square(level)
        spaces = build_spaces(mesh, 2)
        mats = assemble_all(mesh, spaces, PhysicalParams())
        recovery = PhiRecovery(mats)
        coeffs = spaces.scalar.project(bath)
        chain = hamiltonian_load(recovery, coeffs)
        quad = -assemble_bathymetry_load(spaces, bath_grad, 1.0)
        rel.append(np.linalg.norm(chain - quad) / np.linalg.norm(quad))
    # the gap contracts at the projection rate of the gradient
    assert rel[0] / rel[1] >= 3.0
    assert rel[1] / rel[2] >= 3.0
    assert rel[2] <= 5e-3


def test_phiu_refuses_a_bathymetry_without_its_gradient():
    spec = make_problem("gaussian_pulse", generate_uniform_square(1), 1)
    spec.grad_bathymetry = None
    with pytest.raises(ValueError, match="grad_bathymetry"):
        build_phiu_system(spec)


def test_uw_bathymetry_shifted_energy_is_conserved():
    mesh = generate_uniform_rect(12, 4, bounds=(-20.0, 10.0, -5.0, 5.0))
    spec = make_problem("gaussian_pulse", mesh, 1)
    run = build_uw_system(spec)
    assert run.bathymetry_coeffs is not None
    assert np.linalg.norm(run.system.forcing) > 0.0

    stepper = make_integrator("midpoint", run.system, 0.1)
    h0 = _uw_energy(run, run.y0)
    m = run.matrices

    def minus_variant(y):
        w, u = run.system.split(y)
        p, phat = run.recovery.recover(w)
        pot = (p @ p + p @ (m.stab_local @ p)
               - 2.0 * p @ (m.stab_mixed @ phat)
               + phat @ (m.stab_trace @ phat))
        return (0.5 * pot + 0.5 * run.spec.params.phi * (u @ u)
                - run.bathymetry_coeffs @ p)

    minus0 = minus_variant(run.y0)
    worst = 0.0
    worst_minus = 0.0
    for _, y in iterate_steps(stepper, run.y0, 50):
        worst = max(worst, abs(_uw_energy(run, y) - h0))
        worst_minus = max(worst_minus, abs(minus_variant(y) - minus0))
    assert worst <= 1e-9 * abs(h0)
    # the opposite pairing sign is not an invariant of the flow
    assert worst_minus > 1e3 * worst

