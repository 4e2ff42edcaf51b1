"""End-to-end checks of the batch front end on small configs."""

import configparser
import dataclasses
import errno
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from swehdg import cli, diagnostics, elliptic, integrators, swe
from swehdg.cli import RunConfig, RunFailure, _explicit_name, _pick_dt, load_config, main
from swehdg.mesh import generate_uniform_square, pair_periodic, save_mesh


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _rows(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


INIT_SWEEP = """
[problem]
preset = standing_wave
degrees = 1

[mesh]
kind = uniform_square
levels = 2, 3
"""

TIME_SWEEP = INIT_SWEEP + """
[time]
final_time = 0.5
"""


def test_converge_init_schema_and_orders(tmp_path):
    cfg = _write(tmp_path, "c.ini", INIT_SWEEP)
    assert main(["converge_init", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "init_convergence.csv")
    assert header == ["k", "h", "err_sigma", "eoc_sigma", "err_w", "eoc_w",
                      "err_phi", "eoc_phi"]
    assert len(rows) == 2
    assert rows[0][3] == rows[0][5] == rows[0][7] == ""
    assert float(rows[0][1]) == 0.25
    for col in (3, 5, 7):
        assert 1.6 <= float(rows[1][col]) <= 2.4
    for col in (2, 4, 6):
        assert float(rows[1][col]) < float(rows[0][col])


def test_converge_init_condenses_no_recovery(tmp_path, monkeypatch):
    # the sweep reads only the init solve: every condensation it makes is
    # the init's (local data passed as rhs), none the recovery's, and its
    # CSV is the one a recovery condensed at build gives
    cfg = _write(tmp_path, "c.ini", INIT_SWEEP)

    def eager(*args, **kwargs):
        recovery = elliptic.PhiRecovery(*args, **kwargs)
        recovery.factor()
        return recovery

    with monkeypatch.context() as patch:
        patch.setattr(swe, "PhiRecovery", eager)
        assert main(["converge_init", "--config", cfg, "--out", str(tmp_path / "eager")]) == 0
    calls = []
    real = elliptic.condense

    def spy(*args, **kwargs):
        calls.append(kwargs)
        return real(*args, **kwargs)

    monkeypatch.setattr(elliptic, "condense", spy)
    assert main(["converge_init", "--config", cfg, "--out", str(tmp_path / "lazy")]) == 0
    assert len(calls) == 2          # one init solve per level
    assert all(call.get("rhs") is not None and call.get("compose") is None for call in calls)
    assert ((tmp_path / "lazy" / "init_convergence.csv").read_bytes()
            == (tmp_path / "eager" / "init_convergence.csv").read_bytes())


def test_converge_init_residual_names_the_run(tmp_path, capsys, monkeypatch):
    real = elliptic._solve_once

    def inaccurate(*args):
        x, t, _ = real(*args)
        return x, t, 1.0

    monkeypatch.setattr(elliptic, "_solve_once", inaccurate)
    cfg = _write(tmp_path, "c.ini", INIT_SWEEP)
    assert main(["converge_init", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert ("init residual 1.000e+00 out of bounds for k=1, h=0.25, preset standing_wave"
            in capsys.readouterr().err)
    assert not (tmp_path / "init_convergence.csv").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command, text", [("converge_init", INIT_SWEEP),
                                           ("converge", TIME_SWEEP)])
def test_sweep_refuses_a_preset_without_closed_form(tmp_path, capsys, monkeypatch,
                                                    command, text, threads):
    # refused once, before any entry builds a run
    built = []
    monkeypatch.setattr(cli, "build_uw_system", lambda spec: built.append(spec))
    cfg = _write(tmp_path, "c.ini", text.replace("standing_wave", "moving_bump"))
    assert main([command, "--config", cfg, "--out", str(tmp_path), "--threads", threads]) == 1
    assert "preset moving_bump has no closed-form solution" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    assert built == []


def test_converge_schema_and_orders(tmp_path):
    cfg = _write(tmp_path, "c.ini", TIME_SWEEP)
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "convergence.csv")
    assert header == ["k", "h", "err_phi", "eoc_phi", "err_u", "eoc_u",
                      "err_w", "eoc_w"]
    assert len(rows) == 2
    assert 1.6 <= float(rows[1][3]) <= 2.5
    assert 1.6 <= float(rows[1][7]) <= 2.4


def test_converge_final_time_zero_takes_no_step(tmp_path):
    # final_time = 0 takes no step, as dt = 0 does; only a sweep without
    # final_time runs to its default t = 0.5
    csv = {}
    for name, key in (("zero", "final_time = 0"), ("no_dt", "dt = 0"), ("absent", ""),
                      ("half", "final_time = 0.5")):
        cfg = _write(tmp_path, f"{name}.ini",
                     INIT_SWEEP.replace("2, 3", "1, 2") + f"\n[time]\n{key}\n")
        assert main(["converge", "--config", cfg, "--out", str(tmp_path / name)]) == 0
        csv[name] = (tmp_path / name / "convergence.csv").read_bytes()
    assert csv["zero"] == csv["no_dt"]
    assert csv["absent"] == csv["half"]
    assert csv["zero"] != csv["half"]


def test_single_level_leaves_eoc_empty(tmp_path):
    cfg = _write(tmp_path, "c.ini", INIT_SWEEP.replace("2, 3", "2"))
    assert main(["converge_init", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = _rows(tmp_path / "init_convergence.csv")
    assert len(rows) == 1
    assert rows[0][3] == rows[0][5] == rows[0][7] == ""


def test_rerun_is_byte_identical(tmp_path):
    cfg = _write(tmp_path, "c.ini", INIT_SWEEP)
    for sub in ("a", "b"):
        assert main(["converge_init", "--config", cfg,
                     "--out", str(tmp_path / sub)]) == 0
    first = (tmp_path / "a" / "init_convergence.csv").read_bytes()
    second = (tmp_path / "b" / "init_convergence.csv").read_bytes()
    assert first == second


def test_threads_match_serial_bytes(tmp_path):
    cfg = _write(tmp_path, "c.ini", TIME_SWEEP.replace(
        "degrees = 1", "degrees = 0, 1"))
    assert main(["converge", "--config", cfg,
                 "--out", str(tmp_path / "serial")]) == 0
    assert main(["converge", "--config", cfg, "--out", str(tmp_path / "par"),
                 "--threads", "3"]) == 0
    serial = (tmp_path / "serial" / "convergence.csv").read_bytes()
    parallel = (tmp_path / "par" / "convergence.csv").read_bytes()
    assert serial == parallel


def test_threaded_sweep_submits_the_largest_entries_first(tmp_path, monkeypatch):
    # the pool gets the (k, level) entries in decreasing (level, k) order,
    # and the CSV is still the serial sweep's
    submitted = []

    class Recording(cli.ThreadPoolExecutor):
        def map(self, fn, tasks):
            tasks = list(tasks)
            submitted.extend(tasks)
            return super().map(fn, tasks)

    cfg = _write(tmp_path, "c.ini", INIT_SWEEP.replace("degrees = 1", "degrees = 0, 1"))
    assert main(["converge_init", "--config", cfg, "--out", str(tmp_path / "serial")]) == 0
    monkeypatch.setattr(cli, "ThreadPoolExecutor", Recording)
    assert main(["converge_init", "--config", cfg, "--out", str(tmp_path / "par"),
                 "--threads", "2"]) == 0
    assert submitted == [(1, 3), (0, 3), (1, 2), (0, 2)]
    assert ((tmp_path / "par" / "init_convergence.csv").read_bytes()
            == (tmp_path / "serial" / "init_convergence.csv").read_bytes())


def test_run_with_zero_dt_writes_single_row(tmp_path):
    cfg = _write(tmp_path, "c.ini", """
[problem]
preset = standing_wave
degree = 1

[mesh]
kind = uniform_square
level = 2

[time]
final_time = 1.0
dt = 0
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    header, rows = _rows(tmp_path / "timeseries.csv")
    assert header[:5] == ["time", "mass", "energy", "kinetic", "potential"]
    assert header[5:] == ["trace_term", "momentum1", "momentum2",
                          "angular_momentum", "vorticity",
                          "potential_vorticity", "potential_enstrophy"]
    assert len(rows) == 1
    assert float(rows[0][0]) == 0.0


PULSE_RUN = """
[problem]
preset = gaussian_pulse
degree = 1

[mesh]
kind = uniform_rect
nx = 12
ny = 4
bounds = -20, 10, -5, 5

[time]
final_time = 0.3
dt = 0.05

[output]
basename = pulse
cadence = 2
fields = true
"""


def test_run_bathymetry_energy_flat_and_snapshots(tmp_path):
    cfg = _write(tmp_path, "c.ini", PULSE_RUN)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = np.genfromtxt(tmp_path / "pulse.csv", delimiter=",", names=True)
    energy = data["energy"]
    assert len(energy) == 4
    assert np.abs(energy - energy[0]).max() <= 1e-10 * abs(energy[0])
    assert np.abs(data["mass"]).max() <= 1e-12 * abs(energy[0])

    first = (tmp_path / "pulse_0000.vtk").read_text().splitlines()
    assert first[0].startswith("# vtk DataFile")
    assert "DATASET UNSTRUCTURED_GRID" in first
    npoints = int(next(l for l in first if l.startswith("POINTS")).split()[1])
    assert npoints == 13 * 5
    start = first.index("LOOKUP_TABLE default") + 1
    heights = np.array([float(v) for v in first[start:start + npoints]])
    assert heights.max() > 1.0
    speed_at = first.index("SCALARS speed double 1") + 2
    speeds = np.array([float(v) for v in first[speed_at:speed_at + npoints]])
    assert np.abs(speeds).max() <= 1e-12
    assert (tmp_path / "pulse_0006.vtk").exists()


COMPARE = """
[problem]
preset = standing_wave
degree = 1
tau = {tau}

[mesh]
kind = uniform_square
level = 2

[time]
final_time = {T}
dt = 0.001
"""


def test_compare_dissipative_columns(tmp_path):
    cfg = _write(tmp_path, "c.ini", COMPARE.format(tau=1.0, T=0.05))
    assert main(["compare_dissipative", "--config", cfg,
                 "--out", str(tmp_path)]) == 0
    data = np.genfromtxt(tmp_path / "energy_compare.csv", delimiter=",",
                         names=True)
    uw = data["energy_conserving"]
    pu = data["energy_dissipative"]
    assert len(uw) == 51
    assert np.abs(uw - uw[0]).max() <= 1e-10 * uw[0]
    assert np.all(np.diff(pu) < 0.0)


def test_compare_dissipation_scales_with_tau(tmp_path):
    drops = {}
    for tau in (1.0, 1e-8):
        cfg = _write(tmp_path, f"c{tau}.ini", COMPARE.format(tau=tau, T=0.02))
        out = tmp_path / f"out{tau}"
        assert main(["compare_dissipative", "--config", cfg,
                     "--out", str(out)]) == 0
        data = np.genfromtxt(out / "energy_compare.csv", delimiter=",",
                             names=True)
        pu = data["energy_dissipative"]
        drops[tau] = pu[0] - pu[-1]
    ratio = drops[1e-8] / drops[1.0]
    assert 1e-9 <= ratio <= 1e-7


def test_compare_singular_init_block_names_the_run(tmp_path, capsys, monkeypatch):
    real = elliptic._init_blocks

    def singular(*args):
        local, from_trace = real(*args)
        local[3] = 0.0
        return local, from_trace

    monkeypatch.setattr(elliptic, "_init_blocks", singular)
    cfg = _write(tmp_path, "c.ini", COMPARE.format(tau=1.0, T=0.01))
    assert main(["compare_dissipative", "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    assert ("init solve failed for k=1, h=0.25, preset standing_wave: "
            "init solve factorization failed: "
            "local block of element 3 is singular") in capsys.readouterr().err
    assert not (tmp_path / "energy_compare.csv").exists()


def test_compare_never_factors_the_recovery(tmp_path, monkeypatch):
    # the implicit flux run reads its t = 0 trace from the init solve and
    # carries it across every substep: no recovery solve, no factor
    runs, solves = [], []

    def build(spec):
        run = swe.build_uw_system(spec)
        solve = run.recovery._solve

        def counted(w):
            solves.append(w)
            return solve(w)

        run.recovery._solve = counted
        runs.append(run)
        return run

    monkeypatch.setattr(cli, "build_uw_system", build)
    cfg = _write(tmp_path, "c.ini", COMPARE.format(tau=1.0, T=0.02))
    assert main(["compare_dissipative", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(runs) == 1 and runs[0].recovery.schur is None
    assert not solves


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_compare_conserving_blow_up_names_the_step(tmp_path, capsys):
    text = COMPARE.format(tau=1.0, T=200.0).replace("dt = 0.001", "dt = 1.0")
    cfg = _write(tmp_path, "c.ini", text + "integrator = seprk4\n")
    assert main(["compare_dissipative", "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "conserving solution blew up for k=1, h=0.25, preset standing_wave at step " in err
    assert not (tmp_path / "energy_compare.csv").exists()


def test_compare_dissipative_blow_up_names_the_step(tmp_path, capsys, monkeypatch):
    class Poisoned(cli.PhiuIntegrator):
        calls = 0

        def step(self, y):
            self.calls += 1
            y = super().step(y)
            if self.calls == 3:
                y[0] = np.nan
            return y

    monkeypatch.setattr(cli, "PhiuIntegrator", Poisoned)
    cfg = _write(tmp_path, "c.ini", COMPARE.format(tau=1.0, T=0.01))
    assert main(["compare_dissipative", "--config", cfg,
                 "--out", str(tmp_path)]) == 1
    assert ("dissipative solution blew up for k=1, h=0.25, preset standing_wave at step 3"
            in capsys.readouterr().err)


POISONED_RUN = """
[problem]
preset = standing_wave
degree = 1

[mesh]
kind = uniform_square
levels = 2

[time]
final_time = 0.2
dt = 0.01
integrator = midpoint

[output]
cadence = 10
fields = true
snapshot_every = 1
"""


@pytest.mark.parametrize("subcommand", ["run", "converge"])
def test_blow_up_between_records_names_its_step(tmp_path, capsys, monkeypatch, subcommand):
    real = cli.make_integrator

    def poisoned(*args):
        stepper = real(*args)
        step, calls = stepper.step, []

        def poisoned_step(y):
            calls.append(1)
            y = step(y)
            if len(calls) == 3:
                y[0] = np.nan
            return y

        stepper.step = poisoned_step
        return stepper

    monkeypatch.setattr(cli, "make_integrator", poisoned)
    cfg = _write(tmp_path, "c.ini", POISONED_RUN)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert ("solution blew up for k=1, h=0.25, preset standing_wave at step 3"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))
    if subcommand == "run":
        # no snapshot is written from the non-finite state
        assert (tmp_path / "timeseries_0002.vtk").exists()
        assert not (tmp_path / "timeseries_0003.vtk").exists()


@pytest.mark.parametrize("text,message", [
    ("[mesh]\nlevel = -1\n", "levels must be at least 1"),
    ("[problem]\ndegree = 9\n", "degree k must be between 0 and 6"),
    ("[mesh]\nkind = uniform_rect\nnx = 0\n", "need at least one cell per direction"),
    ("[mesh]\nkind = rect_hole\nradius = -1\n", "radius and target_h must be positive"),
    ("[problem]\ntau = -1\n", "stabilization tau must be positive"),
    ("[mesh]\nbounds = 1, 0, 0, 1\n", "degenerate bounds"),
])
def test_out_of_range_values_name_the_file(tmp_path, capsys, text, message):
    # the file, the section and key with the value, and the reason
    cfg = _write(tmp_path, "bad.ini", text)
    section, *_, setting = text.split("\n")[:-1]
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert (f"swehdg: {cfg}: {section} {setting} is out of range: {message}"
            in capsys.readouterr().err)


def test_hole_clearance_reaching_a_box_corner_names_the_file(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", "[problem]\npreset = moving_bump\n[mesh]\nkind = rect_hole\n"
                 "center = 0.5, 0.5\nradius = 0.34\ntarget_h = 0.5\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert (f"swehdg: {cfg}: the hole's clearance 0.715 (radius + 0.75 h) reaches the box "
            "corner (0, 0)" in capsys.readouterr().err)


def test_hole_clearance_reaching_a_periodic_side_names_the_node(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", "[problem]\npreset = moving_bump\n[mesh]\nkind = rect_hole\n"
                 "bounds = -2, 2, -2, 2\ncenter = 1.2, 0\nradius = 0.5\ntarget_h = 0.4\n"
                 "periodic = both\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert (f"swehdg: {cfg}: periodic pairing along x failed: 10 facets on the low side, "
            "9 on the high side; the high side has no node at y = 0"
            in capsys.readouterr().err)


def test_choices_ignore_case(tmp_path):
    # a mesh file, paired in both directions, with the standing wave
    mesh_file = tmp_path / "square.msh"
    mesh_file.write_text("ndim=2 nnodes=4 nelems=2 nfacets_tagged=0\n"
                         "0 0\n1 0\n1 1\n0 1\n0 1 2\n0 2 3\n")
    cfg = _write(tmp_path, "c.ini", "[problem]\npreset = Standing_Wave\n"
                 f"[mesh]\nkind = FILE\npath = {mesh_file}\nperiodic = Both\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    mesh = cli.build_mesh(load_config(cfg))
    assert mesh.num_elements == 2 and mesh.periodic_x and mesh.periodic_y


@pytest.mark.parametrize("periodic", ["none", "x"])
def test_saved_periodic_mesh_runs_with_fewer_pairs(tmp_path, periodic):
    # a saved mesh holds no pairs: the config pairs its facets, or not
    mesh_file = tmp_path / "paired.msh"
    save_mesh(pair_periodic(generate_uniform_square(2), "both"), mesh_file)
    cfg = _write(tmp_path, "paired.ini", "[problem]\npreset = standing_wave\n"
                 f"[mesh]\nkind = file\npath = {mesh_file}\nperiodic = {periodic}\n"
                 "[time]\nfinal_time = 0.1\ndt = 0.05\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("facet", ["0", "0 9 wall"])
def test_malformed_mesh_file_names_it(tmp_path, capsys, facet):
    mesh_file = tmp_path / "bad.msh"
    save_mesh(generate_uniform_square(1), mesh_file)
    lines = mesh_file.read_text().splitlines()
    lines[-1] = facet
    mesh_file.write_text("\n".join(lines) + "\n")
    cfg = _write(tmp_path, "c.ini", "[problem]\npreset = standing_wave\n"
                 f"[mesh]\nkind = file\npath = {mesh_file}\n"
                 "[time]\nfinal_time = 0.1\ndt = 0.05\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert f"{mesh_file}:{len(lines)}: " in capsys.readouterr().err


def test_unknown_preset_fails_cleanly(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", "[problem]\npreset = tidal_flat\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "tidal_flat" in capsys.readouterr().err


def test_missing_config_fails(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini"),
                 "--out", str(tmp_path)]) == 1


def test_sweep_without_levels_fails(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", """
[problem]
preset = standing_wave
degrees = 1

[mesh]
kind = uniform_square
""")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "levels" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_unstable_run_failure_names_the_case(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", """
[problem]
preset = standing_wave
degrees = 1

[mesh]
kind = uniform_square
levels = 3

[time]
final_time = 5000.0
dt = 10.0
integrator = seprk4
""")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "k=1" in err and "h=0.125" in err


def test_explicit_order_names():
    # the lowest explicit order >= k + 2, for every degree the spaces accept
    for k, name in enumerate(["seprk2", "seprk3", "seprk4", "seprk6", "seprk6"]):
        assert _explicit_name(k) == name
    for k in (5, 6):
        with pytest.raises(RunFailure, match=rf"order {k + 2} for k={k}; set \[time\] integrator"):
            _explicit_name(k)


def test_sweep_degree_without_explicit_scheme_is_refused(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", """
[problem]
preset = standing_wave
degrees = 5

[mesh]
kind = uniform_square
levels = 1
""")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "k=5" in err and "[time] integrator" in err


def test_dt_precedence():
    sweep, single = cli._COMMANDS["converge"], cli._COMMANDS["run"]
    assert _pick_dt(RunConfig(dt=0.3), 1, 0.5, sweep) == 0.3
    assert _pick_dt(RunConfig(dt=0.0), 1, 0.5, sweep) == 0.0
    assert _pick_dt(RunConfig(dt_scale=0.1), 1, 0.5, sweep) == pytest.approx(0.05)
    assert _pick_dt(RunConfig(), 1, 0.5, sweep) == pytest.approx(0.025)
    assert _pick_dt(RunConfig(), 1, 0.5, single) == pytest.approx(0.025)
    assert _pick_dt(RunConfig(), 3, 0.5, single) == pytest.approx(0.025)


def test_shipped_configs_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    names = sorted(p.name for p in root.glob("*.ini"))
    assert len(names) >= 5
    for name in names:
        cfg = load_config(root / name)
        assert cfg.preset in ("standing_wave", "moving_bump", "gaussian_pulse")


def _failing_factor(schur):
    raise RuntimeError("trace factorization failed: forced")


STAGE_RUN = """
[problem]
preset = standing_wave
degree = 1

[mesh]
kind = uniform_square
level = 2

[time]
final_time = 0.01
dt = 0.005
integrator = {integrator}
"""


@pytest.mark.parametrize("subcommand,text", [
    ("run", STAGE_RUN.format(integrator="midpoint")),
    ("converge", TIME_SWEEP.replace("levels = 2, 3", "levels = 2")
     + "integrator = sdirk4\n"),
    ("compare_dissipative", STAGE_RUN.format(integrator="midpoint")),
    # the flux stepper is explicit, so the primal stepper's build fails
    ("compare_dissipative", STAGE_RUN.format(integrator="seprk4")),
])
def test_stepper_setup_failure_names_the_run(tmp_path, capsys, monkeypatch,
                                             subcommand, text):
    # the recovery factors through the elliptic module's own name; only
    # the stage builds fail
    monkeypatch.setattr(integrators, "factor_trace", _failing_factor)
    cfg = _write(tmp_path, "c.ini", text)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert ("stepper setup failed for k=1, h=0.25, preset standing_wave: "
            "stage factorization failed "
            "for stage scale ") in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


ROTATING_RUN = """
[problem]
preset = moving_bump
degree = 1

[mesh]
kind = uniform_square
level = 2

[time]
final_time = 0.01
dt = 0.005
integrator = {integrator}
"""


@pytest.mark.parametrize("subcommand", ["run", "compare_dissipative"])
def test_explicit_integrator_on_rotating_preset_is_refused(tmp_path, capsys, subcommand):
    cfg = _write(tmp_path, "c.ini", ROTATING_RUN.format(integrator="seprk4"))
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "integrator refused for k=1, h=0.25, preset moving_bump: " in err
    assert "'seprk4' drops to first order with rotation" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("text,message", [
    ("[problem]\ndegre = 3\n", "unknown key 'degre' in [problem]; did you mean degree?"),
    ("[time]\nintegrater = seprk4\n",
     "unknown key 'integrater' in [time]; did you mean integrator?"),
    ("[problm]\npreset = standing_wave\n", "unknown section [problm]; did you mean problem?"),
    ("[mesh]\ncolour = red\n", "unknown key 'colour' in [mesh]"),
    ("[solver]\nkind = lu\n", "unknown section [solver]"),
    ("[DEFAULT]\ndegree = 2\n[problem]\npreset = standing_wave\n", "[DEFAULT]"),
    ("[problem]\ndegree = 1\ndegrees = 1, 2\n",
     "[problem] sets both degree and degrees; keep one"),
    ("[time]\ndt = 0.1\ndt_scale = 0.05\n", "[time] sets both dt and dt_scale; keep one"),
    ("[problem]\ndegrees =\n", "[problem] degrees must be a list of integers, got ''"),
    ("[mesh]\nlevels = ,\n", "[mesh] levels must be a list of integers, got ','"),
    ("[time]\nfinal_time = -1.0\n",
     "[time] final_time = -1.0 is out of range: must be >= 0"),
    ("[time]\ndt = -0.01\n", "[time] dt = -0.01 is out of range: must be >= 0"),
    ("[time]\ndt_scale = -0.05\n", "[time] dt_scale = -0.05 is out of range: must be >= 0"),
    ("[time]\ndt = nan\n", "[time] dt = nan is out of range: must be >= 0"),
    ("[problem]\ndegree =\n", "[problem] degree must be an integer, got ''"),
    ("[mesh]\nlevel = two\n", "[mesh] level must be an integer, got 'two'"),
    ("[problem]\ndegrees = 1, x\n", "[problem] degrees must be a list of integers, got '1, x'"),
    ("[time]\ndt = fast\n", "[time] dt must be a number, got 'fast'"),
    ("[output]\nfields = maybe\n", "[output] fields must be true or false, got 'maybe'"),
    ("[output]\ncadence = -3\n", "[output] cadence = -3 is out of range: must be >= 0"),
    ("[output]\nsnapshot_every = -1\n",
     "[output] snapshot_every = -1 is out of range: must be >= 0"),
    ("[mesh]\nbounds = 0, 1\n", "[mesh] bounds must be 4 numbers, got '0, 1'"),
    ("[mesh]\nbounds = 0, 1, 0, 1, 2\n", "[mesh] bounds must be 4 numbers, got '0, 1, 0, 1, 2'"),
    ("[mesh]\nkind = rect_hole\ncenter = 3\n", "[mesh] center must be 2 numbers, got '3'"),
    # no step is taken (dt = 0, or the default final_time = 0), so only
    # the loader can refuse the name
    ("[time]\nfinal_time = 1.0\ndt = 0\nintegrator = midpiont\n",
     "[time] integrator must be one of midpoint, sdirk2, sdirk4, seprk1, seprk2, "
     "seprk3, seprk4, seprk6, got 'midpiont'"),
    ("[time]\nintegrator = seprk9\n", "[time] integrator must be one of midpoint, "
     "sdirk2, sdirk4, seprk1, seprk2, seprk3, seprk4, seprk6, got 'seprk9'"),
    ("[mesh]\nkind = uniform\n", "[mesh] kind must be one of uniform_square, uniform_rect, "
     "rect_hole, file, got 'uniform'"),
    ("[mesh]\nperiodic = xy\n", "[mesh] periodic must be one of none, x, y, both, got 'xy'"),
    ("[problem]\npreset = tidal_flat\n", "[problem] preset must be one of standing_wave, "
     "moving_bump, gaussian_pulse, got 'tidal_flat'"),
    ("[mesh]\nkind = file\n", "[mesh] kind = file needs [mesh] path"),
    ("[mesh]\nkind = file\npath = missing.msh\n",
     "[mesh] path must be an existing file, got 'missing.msh'"),
    ("[output]\ncadence = 1\ncadence = 2\n",
     "option 'cadence' in section 'output' already exists"),
    ("[mesh]\nlevel = 1\n[mesh]\nnx = 2\n", "section 'mesh' already exists"),
    ("cadence = 1\n", "File contains no section headers"),
])
def test_config_typos_and_conflicts_are_errors(tmp_path, capsys, text, message):
    cfg = _write(tmp_path, "c.ini", text)
    with pytest.raises(cli.RunFailure) as info:
        load_config(cfg)
    assert message in str(info.value)
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[problem]\ndegree =\n", "[output]\nfields = maybe\n",
                                  "[output]\ncadence = -3\n", "[mesh]\nkind = uniform\n",
                                  "[mesh]\nperiodic = xy\n", "[problem]\npreset = tidal_flat\n",
                                  "[mesh]\nkind = file\n"])
def test_bad_values_name_the_file(tmp_path, text):
    cfg = _write(tmp_path, "bad.ini", text)
    with pytest.raises(cli.RunFailure, match=f"^{re.escape(cfg)}: "):
        load_config(cfg)


def test_percent_in_a_value_is_literal(tmp_path):
    cfg = _write(tmp_path, "c.ini", "[output]\nbasename = run%1\n")
    assert load_config(cfg).basename == "run%1"


@pytest.mark.parametrize("integrator", ["MidPoint", "SEPRK4", ""])
def test_integrator_name_ignores_case_and_empty_keeps_default(tmp_path, integrator):
    cfg = _write(tmp_path, "c.ini", f"[time]\nintegrator = {integrator}\n")
    assert load_config(cfg).integrator == integrator
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0


ROUND_TRIP = """
[problem]
preset = moving_bump
{degree}
tau = 0.5
alpha = 2.5
f0 = 0.25
beta = 0.125
y_mid = 1.5
phi = 3.0

[mesh]
kind = rect_hole
{level}
nx = 3
ny = 5
bounds = -1, 2, -3, 4
center = 0.5, -0.5
radius = 0.25
target_h = 0.125
periodic = x
path = {path}

[time]
final_time = 2.5
{step}
integrator = sdirk4

[output]
basename = record
cadence = 7
fields = true
snapshot_every = 9
"""


@pytest.mark.parametrize("degree,step,varied,left_out", [
    ("degrees = 2, 3", "dt = 0.01", {"degrees": (2, 3), "levels": (1, 2), "dt": 0.01},
     {("problem", "degree"), ("mesh", "level"), ("time", "dt_scale")}),
    ("degree = 3", "dt_scale = 0.2", {"degrees": (3,), "levels": (4,), "dt_scale": 0.2},
     {("problem", "degrees"), ("mesh", "levels"), ("time", "dt")}),
])
def test_every_config_key_lands_on_its_field(tmp_path, degree, step, varied, left_out):
    # degree/degrees, level/levels and dt/dt_scale exclude each other, so
    # each case sets one of each pair and every other key of the table
    level = "level = 4" if ("mesh", "levels") in left_out else "levels = 1, 2"
    mesh_file = tmp_path / "mesh.txt"
    mesh_file.write_text("")
    cfg = _write(tmp_path, "c.ini", ROUND_TRIP.format(degree=degree, level=level,
                                                      step=step, path=mesh_file))
    parser = configparser.ConfigParser()
    parser.read(cfg)
    written = {(section, key) for section in parser.sections() for key in parser[section]}
    table = {(section, key) for section, keys in cli._CONFIG.items() for key in keys}
    assert table - written == left_out and written <= table

    expected = RunConfig(
        preset="moving_bump",
        overrides={"tau": 0.5, "alpha": 2.5, "f0": 0.25, "beta": 0.125,
                   "y_mid": 1.5, "phi": 3.0},
        mesh_kind="rect_hole", nx=3, ny=5,
        bounds=(-1.0, 2.0, -3.0, 4.0), center=(0.5, -0.5), radius=0.25,
        target_h=0.125, periodic="x", mesh_path=str(mesh_file),
        final_time=2.5, integrator="sdirk4",
        basename="record", cadence=7, fields=True, snapshot_every=9, **varied)
    assert load_config(cfg) == expected
    # every value differs from its default, so none can land by accident
    default = RunConfig()
    for f in dataclasses.fields(RunConfig):
        same = getattr(expected, f.name) == getattr(default, f.name)
        assert same == (f.name in {"dt", "dt_scale"} - varied.keys())


def test_compare_dissipative_assembles_once(tmp_path, monkeypatch):
    # the primal scheme reuses the flux run's spaces and operators
    calls = []
    real = swe.assemble_all

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(swe, "assemble_all", counted)
    cfg = _write(tmp_path, "c.ini", STAGE_RUN.format(integrator="midpoint"))
    assert main(["compare_dissipative", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


def test_run_builds_its_functionals_and_vtk_frame_once(tmp_path, monkeypatch):
    built = []
    for owner in (diagnostics.RecordFunctionals, cli.VtkFrame):
        def counted(cls, run, real=owner.of_run):
            built.append(cls.__name__)
            return real(run)

        monkeypatch.setattr(owner, "of_run", classmethod(counted))
    cfg = _write(tmp_path, "c.ini", PULSE_RUN + "snapshot_every = 3\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert sorted(built) == ["RecordFunctionals", "VtkFrame"]
    assert len(_rows(tmp_path / "pulse.csv")[1]) == 4
    assert sorted(p.name for p in tmp_path.glob("*.vtk")) == [
        "pulse_0000.vtk", "pulse_0003.vtk", "pulse_0006.vtk"]


@pytest.mark.parametrize("subcommand,text", [
    ("compare_dissipative", STAGE_RUN.format(integrator="midpoint")),
    ("converge", TIME_SWEEP.replace("levels = 2, 3", "levels = 2")),
])
def test_energy_and_error_commands_build_no_record_functionals(tmp_path, monkeypatch,
                                                              subcommand, text):
    def refuse(cls, run):
        raise AssertionError("record functionals built")

    monkeypatch.setattr(diagnostics.RecordFunctionals, "of_run", classmethod(refuse))
    cfg = _write(tmp_path, "c.ini", text)
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 0


def test_unknown_key_without_close_match_has_no_suggestion(tmp_path):
    cfg = _write(tmp_path, "c.ini", "[output]\nzzz = 1\n")
    with pytest.raises(cli.RunFailure, match="unknown key 'zzz' in") as info:
        load_config(cfg)
    assert "did you mean" not in str(info.value)


def test_benchmark_configs_parse(tmp_path):
    import importlib.util
    import pathlib
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name, workload in workloads.WORKLOADS.items():
        for seed in (1, 2, 3):
            cfg = load_config(_write(tmp_path, f"{name}{seed}.ini", workload.config(seed)))
            assert cfg.preset in ("standing_wave", "moving_bump")


ONE_RUN = """
[problem]
preset = standing_wave
degrees = {degrees}

[mesh]
kind = uniform_square
level = 2

[time]
final_time = 0.02
dt = 0.01
"""


@pytest.mark.parametrize("subcommand", ["run", "compare_dissipative"])
def test_single_run_commands_refuse_more_than_one_degree(tmp_path, capsys, subcommand):
    # each runs RunConfig.degree alone, so a second degree would be dropped
    cfg = _write(tmp_path, "c.ini", ONE_RUN.format(degrees="1, 2"))
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert (f"swehdg: {cfg}: [problem] degrees lists 2 degrees, but {subcommand} runs one"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))
    cfg = _write(tmp_path, "c.ini", ONE_RUN.format(degrees="2"))
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(list(tmp_path.glob("*.csv"))) == 1


def test_run_honours_a_one_entry_levels(tmp_path):
    # levels = 3 is level = 3: 8 x 8 cells, 81 nodes in the VTK frame
    cfg = _write(tmp_path, "c.ini", "[mesh]\nlevels = 3\n[output]\nfields = true\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "POINTS 81 double" in (tmp_path / "timeseries_0000.vtk").read_text()


@pytest.mark.parametrize("subcommand", ["run", "compare_dissipative"])
def test_single_run_commands_refuse_more_than_one_level(tmp_path, capsys, subcommand):
    cfg = _write(tmp_path, "c.ini", ONE_RUN.format(degrees="1").replace("level = 2",
                                                                      "levels = 2, 3"))
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert (f"swehdg: {cfg}: [mesh] levels lists 2 levels, but {subcommand} runs one; "
            "set [mesh] level" in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))


def test_level_with_levels_is_refused(tmp_path, capsys):
    cfg = _write(tmp_path, "c.ini", "[mesh]\nlevel = 4\nlevels = 1, 2\n")
    assert main(["converge", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert "[mesh] sets both level and levels; keep one" in capsys.readouterr().err


def test_sweep_with_one_level_key_runs_that_level(tmp_path):
    cfg = _write(tmp_path, "c.ini", INIT_SWEEP.replace("levels = 2, 3", "level = 3"))
    assert main(["converge_init", "--config", cfg, "--out", str(tmp_path)]) == 0
    _, rows = _rows(tmp_path / "init_convergence.csv")
    assert [row[1] for row in rows] == [f"{0.125:.12e}"]


def test_compare_dissipative_honours_cadence_and_fields(tmp_path):
    # 12 steps recorded at 0, 5, 10 and the last; snapshots at 0 and 12
    cfg = _write(tmp_path, "c.ini", COMPARE.format(tau=1.0, T=0.012)
                 + "[output]\ncadence = 5\nfields = true\n")
    assert main(["compare_dissipative", "--config", cfg, "--out", str(tmp_path)]) == 0
    data = np.genfromtxt(tmp_path / "energy_compare.csv", delimiter=",", names=True)
    assert data["time"] == pytest.approx([0.0, 0.005, 0.01, 0.012])
    assert sorted(p.name for p in tmp_path.glob("*.vtk")) == [
        "energy_compare_0000.vtk", "energy_compare_0012.vtk"]


@pytest.mark.parametrize("subcommand", ["run", "compare_dissipative", "converge"])
def test_refused_integrator_fails_without_a_step(tmp_path, capsys, subcommand):
    # every command builds its stepper before its first record
    cfg = _write(tmp_path, "c.ini", "[problem]\nf0 = 0.3\n[mesh]\nlevel = 2\n"
                 "[time]\nfinal_time = 0\nintegrator = seprk4\n")
    assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 1
    assert ("integrator refused for k=1, h=0.25, preset standing_wave: "
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))


def test_unknown_log_level_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SWEHDG_LOG", "verbose")
    cfg = _write(tmp_path, "c.ini", "[mesh]\nlevel = 1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == (
        "swehdg: SWEHDG_LOG=verbose is not a log level; "
        "use DEBUG, INFO, WARNING, ERROR or CRITICAL\n")
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("threads", ["0", "-3", "two"])
def test_threads_below_one_are_refused(tmp_path, capsys, threads):
    cfg = _write(tmp_path, "c.ini", INIT_SWEEP)
    with pytest.raises(SystemExit) as info:
        main(["converge_init", "--config", cfg, "--out", str(tmp_path),
              "--threads", threads])
    assert info.value.code == 2
    assert (f"argument --threads: must be an integer of at least 1, got {threads!r}"
            in capsys.readouterr().err)
    assert not list(tmp_path.glob("*.csv"))


def _no_work(*args):
    raise AssertionError("the run started")


@pytest.mark.parametrize("subcommand", ["run", "converge_init"])
def test_basename_in_a_missing_directory_fails_before_any_work(tmp_path, capsys, monkeypatch,
                                                              subcommand):
    cfg = _write(tmp_path, "c.ini", "[mesh]\nlevel = 1\n[output]\nbasename = sub/run\n")
    out = tmp_path / "out"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_flux_run", _no_work)
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"swehdg: {out / 'sub'}: {os.strerror(errno.ENOENT)}\n")
    assert not out.exists()
    (out / "sub").mkdir(parents=True)
    assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
    assert (out / "sub" / "run.csv").exists()


def test_out_naming_a_file_fails_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "_flux_run", _no_work)
    cfg = _write(tmp_path, "c.ini", "[mesh]\nlevel = 1\n")
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", "--config", cfg, "--out", str(taken)]) == 1
    assert capsys.readouterr().err == f"swehdg: {taken}: {os.strerror(errno.EEXIST)}\n"
    assert taken.read_text() == ""


_PEAK = ("import sys; from swehdg.cli import main; rc = main(sys.argv[1:]); "
         "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')))")


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc" or not Path("/proc/self/status").exists(),
                    reason="reads glibc's peak resident memory from /proc")
def test_sweep_peaks_at_its_larger_entry(tmp_path):
    # a sweep holds nothing from one entry to the next, so its peak
    # resident memory (VmHWM, in a fresh process) is that of its larger
    # entry run alone; the bound, fixed before measuring, allows 2 MB.
    # With glibc's dynamic mmap threshold the second entry's arrays came
    # from heap the first had freed: 89.3 against 85.1 MB for this sweep
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).parents[1]),
                                           os.environ.get("PYTHONPATH", "")]))

    def peak_mb(levels):
        cfg = _write(tmp_path, "c.ini", INIT_SWEEP.replace("degrees = 1", "degrees = 2")
                     .replace("levels = 2, 3", f"levels = {levels}"))
        proc = subprocess.run([sys.executable, "-c", _PEAK, "converge_init", "--config", cfg,
                               "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, check=True)
        return int(proc.stdout.split()[-2]) / 1024

    sweep, alone = peak_mb("3, 4"), peak_mb("4")
    assert sweep <= alone + 2.0, f"sweep {sweep:.1f} MB, its level-4 entry alone {alone:.1f} MB"
