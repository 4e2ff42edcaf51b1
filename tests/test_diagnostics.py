"""Tests for the physical functionals, error norms, and order estimates."""

import numpy as np
import pytest

from swehdg.assembly import PhysicalParams
from swehdg.diagnostics import (
    ErrorQuadrature,
    conserved_quantities,
    eoc,
    init_errors,
    l2_errors,
    total_energy,
)
from swehdg.fespace import build_spaces
from swehdg.integrators import make_integrator
from swehdg.mesh import (
    generate_rect_with_hole,
    generate_uniform_rect,
    generate_uniform_square,
    pair_periodic,
)
from swehdg.swe import (
    ManufacturedSolution,
    ProblemSpec,
    build_uw_system,
    make_problem,
)

from helpers import iterate_steps

_RECORD_FIELDS = (
    "mass", "energy_H2h", "kinetic", "potential", "trace_term",
    "momentum_x", "momentum_y", "angular_momentum", "vorticity",
    "potential_vorticity", "potential_enstrophy", "bathymetry_term",
)


def test_zero_state_record_is_all_zero():
    mesh = generate_uniform_square(2)
    spec = ProblemSpec(mesh=mesh, degree=1, params=PhysicalParams(f0=0.3))
    run = build_uw_system(spec)
    rec = conserved_quantities(run, run.y0, 1.5)
    assert rec.t == 1.5
    for name in _RECORD_FIELDS:
        assert getattr(rec, name) == 0.0
    assert rec.total_energy == 0.0


def test_record_energy_split_is_consistent():
    mesh = generate_uniform_square(2)
    run = build_uw_system(make_problem("standing_wave", mesh, 2))
    stepper = make_integrator("midpoint", run.system, 0.03)
    y = stepper.step(run.y0)
    rec = conserved_quantities(run, y, 0.03)
    scale = max(1.0, abs(rec.energy_H2h))
    gap = rec.energy_H2h - (rec.kinetic + rec.potential + rec.trace_term)
    assert abs(gap) <= 1e-13 * scale
    assert rec.kinetic >= 0.0 and rec.potential >= 0.0
    assert rec.trace_term >= 0.0
    assert rec.potential_enstrophy >= 0.0

    # the quadratic form of the condensed operator carries the same
    # potential and trace parts
    w, _ = run.system.split(y)
    form = 0.5 * (w @ run.recovery.apply(w))
    assert abs(form - (rec.potential + rec.trace_term)) <= 1e-12 * scale


@pytest.mark.parametrize("preset,mesh", [
    ("standing_wave", generate_uniform_square(2)),
    ("gaussian_pulse", generate_uniform_rect(6, 2, bounds=(-20.0, 10.0, -5.0, 5.0))),
])
def test_total_energy_equals_record_energy(preset, mesh):
    run = build_uw_system(make_problem(preset, mesh, 1))
    assert (run.bathymetry_coeffs is not None) == (preset == "gaussian_pulse")
    stepper = make_integrator("midpoint", run.system, 0.03)
    y = run.y0
    for _ in range(3):
        rec = conserved_quantities(run, y)
        assert total_energy(run, y) == rec.total_energy
        if run.bathymetry_coeffs is not None:
            assert rec.bathymetry_term != 0.0
        y = stepper.step(y)


@pytest.mark.parametrize("degree,level,tol", [(1, 3, 4e-4), (2, 3, 1e-6)])
def test_standing_wave_potential_matches_analytic_integral(degree, level, tol):
    mesh = generate_uniform_square(level)
    run = build_uw_system(make_problem("standing_wave", mesh, degree))
    rec = conserved_quantities(run, run.y0, 0.0)
    assert rec.kinetic == 0.0
    assert abs(rec.potential - 0.125) <= tol
    assert abs(rec.mass) <= 1e-12


def test_mass_and_energy_invariants_under_midpoint():
    mesh = generate_uniform_square(2)
    run = build_uw_system(make_problem("standing_wave", mesh, 1, f0=0.4))
    stepper = make_integrator("midpoint", run.system, 0.02)
    rec0 = conserved_quantities(run, run.y0, 0.0)
    e0 = rec0.energy_H2h
    for n, y in iterate_steps(stepper, run.y0, 30):
        rec = conserved_quantities(run, y, 0.02 * n)
        height_norm = np.sqrt(2.0 * rec.potential)
        assert abs(rec.mass) <= 1e-11 * max(height_norm, 1e-3)
        assert abs(rec.energy_H2h - e0) <= 1e-10 * abs(e0)


def test_moving_bump_vorticity_oscillates_and_shrinks():
    datums = []
    for target_h in (2.0, 1.4, 1.0):
        mesh = pair_periodic(generate_rect_with_hole(
            (-10.0, 10.0, -10.0, 10.0), (3.0, 0.0), 1.0, target_h), "both")
        run = build_uw_system(make_problem("moving_bump", mesh, 2))
        dt = 0.05 * target_h
        stepper = make_integrator("midpoint", run.system, dt)
        rec0 = conserved_quantities(run, run.y0, 0.0)
        worst_v = abs(rec0.vorticity)
        worst_pv = abs(rec0.potential_vorticity)
        height_norm = np.sqrt(2.0 * rec0.potential)
        nsteps = int(round(2.5 / dt))
        for n, y in iterate_steps(stepper, run.y0, nsteps):
            rec = conserved_quantities(run, y, dt * n)
            worst_v = max(worst_v, abs(rec.vorticity))
            worst_pv = max(worst_pv, abs(rec.potential_vorticity))
            assert abs(rec.mass) <= 1e-11 * height_norm
            assert abs(rec.energy_H2h - rec0.energy_H2h) \
                <= 1e-10 * rec0.energy_H2h
        datums.append((worst_v, worst_pv))
    vs = [d[0] for d in datums]
    pvs = [d[1] for d in datums]
    assert vs[0] > vs[1] > vs[2]
    assert pvs[0] > pvs[1] > pvs[2]
    assert vs[2] <= 2e-2 and pvs[2] <= 2e-2


def test_l2_errors_shrink_at_projection_rate():
    ms = ManufacturedSolution()
    errs = []
    for level in (2, 3):
        mesh = generate_uniform_square(level)
        run = build_uw_system(make_problem("standing_wave", mesh, 1))
        vec = run.spaces.vector
        y = np.concatenate([vec.project(ms.w_at(0.3)).coeffs,
                            vec.project(ms.u_at(0.3)).coeffs])
        errs.append(l2_errors(run, y, ms, 0.3))
    for key in ("phi", "u", "w"):
        assert errs[0][key] / errs[1][key] >= 3.0


def test_error_quadrature_exactness_floor():
    mesh = generate_uniform_square(2)
    spaces = build_spaces(mesh, 2)
    quad = ErrorQuadrature(spaces)

    def poly(x, y):
        return 1.0 - 2.0 * x + 0.5 * y + x * y - y ** 2

    coeffs = spaces.scalar.project(poly).coeffs
    assert quad.scalar_error(coeffs, poly) <= 1e-13

    def vec(x, y):
        return x - y, 2.0 * x * y

    vcoeffs = spaces.vector.project(vec).coeffs
    assert quad.vector_error(vcoeffs, vec) <= 1e-13


def test_init_errors_against_reference_row():
    ms = ManufacturedSolution()
    mesh = generate_uniform_square(2)
    run = build_uw_system(make_problem("standing_wave", mesh, 1))
    errs = init_errors(run.spaces, run.init.init, ms)
    expected = {"sigma": 5.16e-3, "w": 2.15e-2, "phi": 2.05e-2}
    for key, ref in expected.items():
        assert errs[key] <= 2.0 * ref
        assert errs[key] >= ref / 2.0


def test_eoc_reference_values():
    assert eoc([1.0, 0.25], [1.0, 0.5]) == pytest.approx([2.0])
    assert eoc([1.0, 1.0], [1.0, 0.5]) == pytest.approx([0.0])
    table_pair = eoc([4.85e-4, 6.77e-5], [0.25, 0.125])
    assert table_pair[0] == pytest.approx(2.84, abs=0.01)


def test_eoc_markers_and_validation():
    vals = eoc([1.0, 0.0, 2.0], [1.0, 0.5, 0.25])
    assert np.isnan(vals[0]) and np.isnan(vals[1])
    assert eoc([3.0], [1.0]).size == 0
    with pytest.raises(ValueError):
        eoc([1.0, 2.0], [1.0])
