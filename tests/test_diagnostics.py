"""Tests for the physical functionals, error norms, and order estimates."""

import numpy as np
import pytest

from swehdg.assembly import PhysicalParams
from swehdg.diagnostics import (
    ErrorNorms,
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

from helpers import iterate_steps, quadrature_conserved_quantities, quadrature_l2_errors

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


# each linear functional against 1e-12 times its Cauchy-Schwarz bound on
# the domain (the bound carries f, x and y at their largest), the
# enstrophy to 1e-12 relative, and the energy parts, which both compute
# the same way, exactly
_ORACLE_RTOL = 1e-12


def _oracle_runs():
    holed = pair_periodic(generate_rect_with_hole(
        (-10.0, 10.0, -10.0, 10.0), (3.0, 0.0), 1.0, 2.0), "both")
    yield build_uw_system(make_problem("standing_wave", generate_uniform_square(2), 2))
    yield build_uw_system(make_problem("moving_bump", holed, 2, beta=0.05))
    yield build_uw_system(make_problem(
        "gaussian_pulse", generate_uniform_rect(6, 2, bounds=(-20.0, 10.0, -5.0, 5.0)), 1))


def _cauchy_schwarz_bounds(run, y, rec):
    sc = run.spaces.scalar
    params = run.spec.params
    w, u = run.system.split(y)
    p = run.recovery.recover(w)[0]
    root_area = np.sqrt(sc.qweights.sum())
    reach = np.abs(sc.qpoints).max()
    f_max = np.abs(params.coriolis(sc.qpoints[..., 0], sc.qpoints[..., 1])).max()
    height, velocity = root_area * np.linalg.norm(p), root_area * np.linalg.norm(u)
    rotation = root_area * np.sqrt(rec.potential_enstrophy / params.phi)
    return {"mass": height, "momentum_x": params.phi * velocity,
            "momentum_y": params.phi * velocity,
            "angular_momentum": 2.0 * reach * params.phi * velocity,
            "vorticity": rotation,
            "potential_vorticity": params.phi * rotation + f_max * height}


def test_record_matches_the_quadrature_oracle():
    for run in _oracle_runs():
        stepper = make_integrator("midpoint", run.system, 0.05)
        for n, y in iterate_steps(stepper, run.y0, 4):
            rec = conserved_quantities(run, y, 0.05 * n)
            ref = quadrature_conserved_quantities(run, y, 0.05 * n)
            bounds = _cauchy_schwarz_bounds(run, y, ref)
            assert rec.t == ref.t
            for name in _RECORD_FIELDS:
                got, want = getattr(rec, name), getattr(ref, name)
                if name in bounds:
                    assert abs(got - want) <= _ORACLE_RTOL * bounds[name], name
                elif name == "potential_enstrophy":
                    assert abs(got - want) <= _ORACLE_RTOL * want, name
                else:
                    assert got == want, name
        assert run.functionals is run.functionals


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


def _projected_state(run, ms, t):
    """Flux and velocity of the closed form at time t, projected."""
    _, s_u, s_w = ms.factors(t)
    flow = run.spaces.vector.project(ms.flow).coeffs
    return np.concatenate([s_w * flow, s_u * flow])


def test_l2_errors_shrink_at_projection_rate():
    ms = ManufacturedSolution()
    errs = []
    for level in (2, 3):
        mesh = generate_uniform_square(level)
        run = build_uw_system(make_problem("standing_wave", mesh, 1))
        errs.append(l2_errors(run, _projected_state(run, ms, 0.3),
                              ErrorNorms(run.spaces, ms), 0.3))
    for key in ("phi", "u", "w"):
        assert errs[0][key] / errs[1][key] >= 3.0


# quarter period, where the height and flux factors cos(wt) are ~6e-17
_QUARTER = np.pi / (2.0 * ManufacturedSolution.frequency)


@pytest.mark.parametrize("k", [0, 1, 2, 3])
@pytest.mark.parametrize("level", [2, 3])
def test_l2_errors_match_the_quadrature_oracle(k, level):
    # tolerance fixed before measuring: the coefficient norms differ
    # from point evaluation by rounding alone
    ms = ManufacturedSolution()
    run = build_uw_system(make_problem("standing_wave", generate_uniform_square(level), k))
    norms = ErrorNorms(run.spaces, ms)
    for t in (0.0, 0.1, _QUARTER, 0.5):
        for y in (run.y0, _projected_state(run, ms, t)):
            got = l2_errors(run, y, norms, t)
            ref = quadrature_l2_errors(run, y, ms, t)
            for key in ("phi", "u", "w"):
                assert got[key] == pytest.approx(ref[key], rel=1e-8, abs=1e-300)


class _PolynomialSolution(ManufacturedSolution):
    """Profiles of degree 2, which the k = 2 basis holds exactly."""

    def height(self, x, y):
        return 1.0 - 2.0 * x + 0.5 * y + x * y - y ** 2

    def flow(self, x, y):
        return x - y, 2.0 * x * y


def test_error_norms_of_polynomial_profiles_miss_nothing():
    spaces = build_spaces(generate_uniform_square(2), 2)
    ms = _PolynomialSolution()
    norms = ErrorNorms(spaces, ms)
    assert 0.0 <= norms.profiles["height"][1] <= 1e-26
    assert 0.0 <= norms.profiles["flow"][1] <= 1e-26
    coeffs = spaces.scalar.project(ms.height).coeffs
    vcoeffs = spaces.vector.project(ms.flow).coeffs
    for factor in (1.0, -0.3):
        assert norms.error(factor * coeffs, "height", factor) <= 1e-13
        assert norms.error(factor * vcoeffs, "flow", factor) <= 1e-13


class _CountingSolution(ManufacturedSolution):
    def __init__(self):
        self.calls = {"height": 0, "flow": 0}

    def height(self, x, y):
        self.calls["height"] += 1
        return super().height(x, y)

    def flow(self, x, y):
        self.calls["flow"] += 1
        return super().flow(x, y)


def test_profiles_are_evaluated_only_at_build():
    ms = _CountingSolution()
    run = build_uw_system(make_problem("standing_wave", generate_uniform_square(2), 1))
    norms = ErrorNorms(run.spaces, ms)
    assert ms.calls == {"height": 1, "flow": 1}
    stepper = make_integrator("seprk3", run.system, 0.02)
    for n, y in iterate_steps(stepper, run.y0, 5):
        l2_errors(run, y, norms, 0.02 * n)
    init_errors(run.init, norms)
    assert ms.calls == {"height": 1, "flow": 1}


def test_init_errors_against_reference_row():
    ms = ManufacturedSolution()
    mesh = generate_uniform_square(2)
    run = build_uw_system(make_problem("standing_wave", mesh, 1))
    errs = init_errors(run.init, ErrorNorms(run.spaces, ms))
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
