"""Acceptance gate: one test per shipped guarantee, each printing a
single PASS/FAIL line with the measured numbers (run with -s to see the
lines for passing tests)."""

import time

import numpy as np
import pytest
from scipy.linalg import expm

from swehdg.assembly import PhysicalParams, assemble_all
from swehdg.cli import RunConfig, _convergence_task
from swehdg.diagnostics import conserved_quantities, eoc
from swehdg.elliptic import PhiRecovery, initialize_state
from swehdg.fespace import build_spaces
from swehdg.integrators import (
    ButcherTableau,
    SdirkIntegrator,
    SemidiscreteSystem,
    SeprkIntegrator,
    check_symplectic,
    make_integrator,
    make_sdirk,
    make_seprk,
)
from swehdg.mesh import (
    generate_rect_with_hole,
    generate_uniform_rect,
    generate_uniform_square,
    pair_periodic,
)
from swehdg.swe import (
    PhiuIntegrator,
    build_phiu_system,
    build_uw_system,
    make_problem,
    phiu_energy,
)


def _verdict(num, name, ok, detail):
    line = f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}  ({detail})"
    print(line)
    assert ok, line


# frozen reference errors for the same uniform mesh family, k = 1
# stationary init, keyed by h: (sigma, w, phi)
REF_INIT_K1 = {
    0.5: (2.09e-02, 8.28e-02, 7.75e-02),
    0.25: (5.16e-03, 2.15e-02, 2.05e-02),
    0.125: (1.11e-03, 5.65e-03, 5.17e-03),
    0.0625: (2.50e-04, 1.45e-03, 1.29e-03),
    0.03125: (5.91e-05, 3.67e-04, 3.21e-04),
}

# frozen reference errors for the full scheme at k = 2, keyed by h:
# (phi, u, w); those are final-time numbers while ours track the
# max over time, hence the factor-3 acceptance band
REF_SWEEP_K2 = {
    0.5: (2.10e-02, 8.07e-02, 1.11e-02),
    0.25: (2.08e-03, 1.63e-02, 8.80e-04),
    0.125: (1.84e-04, 3.30e-03, 1.53e-04),
    0.0625: (2.62e-05, 3.53e-04, 4.88e-05),
    0.03125: (2.72e-06, 2.28e-05, 3.63e-06),
}


def test_criterion_1_init_convergence():
    t0 = time.time()
    cfg = RunConfig(preset="standing_wave")
    hs, errs = [], {"sigma": [], "w": [], "phi": []}
    for level in range(1, 6):
        h, e = _convergence_task(cfg, 1, level, with_time=False)
        hs.append(h)
        for key in errs:
            errs[key].append(e[key])
    elapsed = time.time() - t0

    finest = {key: eoc(errs[key], hs)[-1] for key in errs}
    orders_ok = all(1.85 <= finest[key] <= 2.2 for key in errs)
    worst_ratio = 0.0
    for i, h in enumerate(hs):
        ref = REF_INIT_K1[h]
        for j, key in enumerate(("sigma", "w", "phi")):
            worst_ratio = max(worst_ratio, errs[key][i] / ref[j],
                              ref[j] / errs[key][i])
    _verdict(1, "stationary init convergence",
             orders_ok and worst_ratio <= 2.0 and elapsed <= 60.0,
             f"eoc sigma/w/phi = {finest['sigma']:.2f}/{finest['w']:.2f}/"
             f"{finest['phi']:.2f}, worst reference ratio {worst_ratio:.2f}, "
             f"{elapsed:.1f}s")


def test_criterion_2_scheme_convergence():
    t0 = time.time()
    cfg = RunConfig(preset="standing_wave", final_time=0.5,
                    integrator="seprk4", dt_scale=0.1 / 3.0)
    hs, errs = [], {"phi": [], "u": [], "w": []}
    for level in range(1, 6):
        h, e = _convergence_task(cfg, 2, level, with_time=True)
        hs.append(h)
        for key in errs:
            errs[key].append(e[key])
    elapsed = time.time() - t0

    finest = {key: eoc(errs[key], hs)[-1] for key in errs}
    orders_ok = all(finest[key] >= 2.7 for key in errs)
    worst_ratio = 0.0
    for i, h in enumerate(hs):
        ref = REF_SWEEP_K2[h]
        for j, key in enumerate(("phi", "u", "w")):
            worst_ratio = max(worst_ratio, errs[key][i] / ref[j],
                              ref[j] / errs[key][i])
    _verdict(2, "full scheme convergence",
             orders_ok and worst_ratio <= 3.0 and elapsed <= 300.0,
             f"eoc phi/u/w = {finest['phi']:.2f}/{finest['u']:.2f}/"
             f"{finest['w']:.2f}, worst reference ratio {worst_ratio:.2f}, "
             f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def exp2_history():
    t0 = time.time()
    mesh = pair_periodic(
        generate_rect_with_hole((-10.0, 10.0, -10.0, 10.0), (3.0, 0.0),
                                1.0, 1.0), "both")
    spec = make_problem("moving_bump", mesh, 2)
    run = build_uw_system(spec)
    stepper = make_integrator("midpoint", run.system, 0.05)
    records = [conserved_quantities(run, run.y0, 0.0)]
    y = run.y0
    for n in range(1, 1001):
        y = stepper.step(y)
        records.append(conserved_quantities(run, y, n * 0.05))
    area = float(mesh.element_areas.sum())
    return records, area, time.time() - t0


@pytest.fixture(scope="module")
def exp3_history():
    mesh = generate_uniform_rect(60, 20, bounds=(-20.0, 10.0, -5.0, 5.0))
    spec = make_problem("gaussian_pulse", mesh, 1)
    run = build_uw_system(spec)
    stepper = make_integrator("midpoint", run.system, 0.025)
    records = [conserved_quantities(run, run.y0, 0.0)]
    y = run.y0
    for n in range(1, 201):
        y = stepper.step(y)
        records.append(conserved_quantities(run, y, n * 0.025))
    area = float(mesh.element_areas.sum())
    return records, area


def test_criterion_3_energy_conservation(exp2_history):
    records, _, elapsed = exp2_history
    e0 = records[0].total_energy
    dev = max(abs(r.total_energy - e0) for r in records) / abs(e0)
    _verdict(3, "long-run energy conservation",
             dev <= 1e-10 and len(records) > 1000 and elapsed <= 120.0,
             f"max rel energy deviation {dev:.2e} over {len(records) - 1} "
             f"midpoint steps, {elapsed:.1f}s")


def test_criterion_4_mass_identity(exp2_history, exp3_history):
    worst = 0.0
    for records, area in (exp2_history[:2], exp3_history):
        scale = np.sqrt(area) * max(np.sqrt(2.0 * r.potential)
                                    for r in records)
        worst = max(worst, max(abs(r.mass) for r in records) / scale)
    _verdict(4, "mass identity on both long runs", worst <= 1e-10,
             f"worst scaled |(height, 1)| = {worst:.2e} over every "
             f"recorded step")


def test_criterion_5_dissipativity_split():
    mesh = generate_uniform_square(2)
    spec = make_problem("standing_wave", mesh, 1)
    uw = build_uw_system(spec)
    phiu = build_phiu_system(spec)
    dt = 1e-3
    uw_stepper = make_integrator("midpoint", uw.system, dt)
    phiu_stepper = PhiuIntegrator(phiu, make_sdirk(2), dt)

    uw_energy = [conserved_quantities(uw, uw.y0, 0.0).total_energy]
    phiu_trace = [phiu_energy(phiu, phiu.y0)]
    y1, y2 = uw.y0, phiu.y0
    for _ in range(500):
        y1 = uw_stepper.step(y1)
        y2 = phiu_stepper.step(y2)
        uw_energy.append(conserved_quantities(uw, y1, 0.0).total_energy)
        phiu_trace.append(phiu_energy(phiu, y2))
    uw_energy = np.array(uw_energy)
    phiu_trace = np.array(phiu_trace)

    flat = np.abs(uw_energy - uw_energy[0]).max() / uw_energy[0]
    diffs = np.diff(phiu_trace)
    _verdict(5, "dissipative vs conserving head-to-head",
             flat <= 1e-10 and bool(np.all(diffs <= 0.0)),
             f"conserving drift {flat:.2e}, dissipative scheme "
             f"nonincreasing at all 500 steps "
             f"(total drop {phiu_trace[0] - phiu_trace[-1]:.2e})")


def test_criterion_6_tableau_residuals():
    shipped = [make_sdirk(2), make_sdirk(4)] + [make_seprk(n)
                                                for n in (1, 2, 3, 4, 6)]
    worst = max(check_symplectic(tab) for tab in shipped)
    euler = ButcherTableau(a=[[0.0]], b=[1.0], c=[0.0], declared_order=1,
                           symplectic=False)
    control = check_symplectic(euler)
    _verdict(6, "tableau symplecticity residuals",
             worst <= 1e-14 and 0.9 <= control <= 1.1,
             f"worst shipped residual {worst:.1e}, forward Euler control "
             f"{control:.2f}")


def _dense_wave_operator(mats):
    stab_l = mats.stab_local.toarray()
    stab_m = mats.stab_mixed.toarray()
    stab_t = mats.stab_trace.toarray()
    nw = stab_l.shape[0]
    block = np.block([[np.eye(nw) + stab_l, -stab_m],
                      [-stab_m.T, stab_t]])
    pair = np.hstack([-mats.div_pair.toarray(), mats.flux_pair.toarray()])
    return pair @ np.linalg.solve(block, pair.T)


def test_criterion_7_oracle_equivalence():
    worst_rel = worst_sym = worst_eig = 0.0
    for nx, ny, k in ((1, 1, 0), (1, 1, 1), (2, 1, 0), (2, 1, 1), (1, 2, 1)):
        mesh = generate_uniform_rect(nx, ny)
        spaces = build_spaces(mesh, k)
        mats = assemble_all(mesh, spaces, PhysicalParams(tau=0.8))
        rec = PhiRecovery(mats)
        dense = _dense_wave_operator(mats)
        applied = np.column_stack([rec.apply(col)
                                   for col in np.eye(spaces.vector.ndof)])
        scale = np.abs(dense).max()
        worst_rel = max(worst_rel, np.abs(applied - dense).max() / scale)
        worst_sym = max(worst_sym, np.abs(dense - dense.T).max() / scale)
        eig_min = np.linalg.eigvalsh(0.5 * (dense + dense.T)).min() / scale
        worst_eig = min(worst_eig, eig_min)

    orders = {}
    rng = np.random.default_rng(11)
    for name, f0, cls, tab in (
            ("sdirk4", 0.3, SdirkIntegrator, make_sdirk(4)),
            ("seprk4", 0.0, SeprkIntegrator, make_seprk(4))):
        mesh = generate_uniform_rect(1, 1)
        spaces = build_spaces(mesh, 1)
        mats = assemble_all(mesh, spaces, PhysicalParams(f0=f0))
        system = SemidiscreteSystem(matrices=mats, recovery=PhiRecovery(mats))
        y0 = rng.standard_normal(2 * system.nv)
        gen = np.column_stack([system.rhs(col)
                               for col in np.eye(2 * system.nv)])
        exact = expm(0.1 * gen) @ y0
        errors = []
        for dt in (2e-3, 1e-3):
            y = y0.copy()
            stepper = cls(system, tab, dt)
            for _ in range(int(round(0.1 / dt))):
                y = stepper.step(y)
            errors.append(np.linalg.norm(y - exact))
        orders[name] = np.log2(errors[0] / errors[1])

    orders_ok = all(3.6 <= orders[n] <= 4.4 for n in orders)
    _verdict(7, "dense oracle equivalence",
             worst_rel <= 1e-11 and worst_sym <= 1e-11
             and worst_eig >= -1e-11 and orders_ok,
             f"condensed operator rel err {worst_rel:.1e}, asym "
             f"{worst_sym:.1e}, min eig {worst_eig:.1e}; observed orders "
             f"sdirk4 {orders['sdirk4']:.2f}, seprk4 {orders['seprk4']:.2f}")


def test_criterion_8_init_well_posedness():
    from swehdg.swe import get_preset

    wave = get_preset("standing_wave")
    bump = get_preset("moving_bump")
    pulse = get_preset("gaussian_pulse")
    cases = [
        (generate_uniform_square(1), wave),
        (generate_uniform_square(2), wave),
        (generate_uniform_square(3), wave),
        (generate_uniform_rect(3, 2), wave),
        (pair_periodic(generate_uniform_square(2), "both"), wave),
        (generate_uniform_rect(6, 2, bounds=(-20.0, 10.0, -5.0, 5.0)), pulse),
        (pair_periodic(generate_rect_with_hole(
            (-10.0, 10.0, -10.0, 10.0), (3.0, 0.0), 1.0, 2.0), "both"), bump),
    ]
    worst = 0.0
    for mesh, preset in cases:
        spaces = build_spaces(mesh, 1, tangential=True)
        state = initialize_state(mesh, spaces, preset.phi0, preset.u0,
                                 preset.params, grad_phi0=preset.grad_phi0)
        worst = max(worst, state.init.residual)

    mesh = generate_uniform_square(2)
    spaces = build_spaces(mesh, 1, tangential=True)
    zero = initialize_state(
        mesh, spaces, lambda x, y: np.zeros_like(x),
        lambda x, y: (np.zeros_like(x), np.zeros_like(x)),
        PhysicalParams(),
        grad_phi0=lambda x, y: (np.zeros_like(x), np.zeros_like(x)))
    zero_norm = max(np.abs(zero.init.sigma.coeffs).max(),
                    np.abs(zero.init.w.coeffs).max(),
                    np.abs(zero.init.phi.coeffs).max())
    _verdict(8, "init solve well-posedness",
             worst <= 1e-10 and zero_norm <= 1e-12,
             f"worst residual {worst:.2e} over {len(cases)} meshes, "
             f"zero-data solution norm {zero_norm:.1e}")


def _uw_energy_series(run, stepper, nsteps):
    m = run.matrices
    series = np.empty(nsteps + 1)
    y = run.y0

    def energy(state):
        w, u = run.system.split(state)
        p, phat = run.recovery.recover(w)
        trace = (p @ (m.stab_local @ p) - 2.0 * p @ (m.stab_mixed @ phat)
                 + phat @ (m.stab_trace @ phat))
        return 0.5 * (u @ u) + 0.5 * (p @ p + trace)

    series[0] = energy(y)
    for n in range(1, nsteps + 1):
        y = stepper.step(y)
        series[n] = energy(y)
    return series


def test_criterion_9_explicit_no_drift():
    mesh = generate_uniform_square(2)
    spec = make_problem("standing_wave", mesh, 1)
    run = build_uw_system(spec)
    nsteps = 10_000
    amps, slopes = [], []
    for dt in (2e-3, 1e-3):
        stepper = make_integrator("seprk3", run.system, dt)
        series = _uw_energy_series(run, stepper, nsteps)
        rel = (series - series[0]) / series[0]
        slopes.append(abs(np.polyfit(np.arange(nsteps + 1), rel, 1)[0]))
        amps.append(np.abs(rel).max())
    ratio = amps[0] / amps[1]
    _verdict(9, "explicit stepper no-drift scaling",
             max(slopes) <= 1e-12 and 6.0 <= ratio <= 10.0,
             f"energy slope {max(slopes):.2e}/step over {nsteps} steps, "
             f"amplitude ratio on dt halving {ratio:.2f}")
