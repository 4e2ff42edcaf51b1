"""Batch front end: config-driven pipelines with CSV and VTK output.

Subcommands
-----------
converge_init
    Stationary-solve convergence sweep; writes
    ``k,h,err_sigma,eoc_sigma,err_w,eoc_w,err_phi,eoc_phi``.
converge
    Full time-dependent convergence sweep; writes
    ``k,h,err_phi,eoc_phi,err_u,eoc_u,err_w,eoc_w`` with the error per
    row being the maximum over all recorded steps.
run
    Single simulation; writes the time series
    ``time,mass,energy,kinetic,potential,trace_term,momentum1,momentum2,
    angular_momentum,vorticity,potential_vorticity,potential_enstrophy``
    (the energy column includes the bathymetry pairing when the problem
    has a bed profile, so it is the quantity the stepper conserves) and
    optional VTK legacy snapshots of the height and speed fields.
compare_dissipative
    Runs the same problem through the conserving and the dissipative
    schemes; writes ``time,energy_conserving,energy_dissipative``.

Configs are INI files with [problem], [mesh], [time], [output] sections,
whose keys ``_CONFIG`` declares with the reader that judges each value;
missing keys fall back to the defaults in ``RunConfig``.  The loader
refuses, naming the file, the section and the key: an unknown section or
key, a conflicting pair of keys, ``kind = file`` without a ``path``, a
value of the wrong type (a ``bounds`` of other than 4 numbers, a
``center`` of other than 2, an empty ``degrees`` or ``levels``), a name
that is not one of its key's choices (``preset``, ``kind``, ``periodic``,
``integrator``, without regard to case), a ``path`` that is not an
existing file, and a value out of its key's range (``level = -1``, a
negative or nan ``final_time``, ``dt``, ``dt_scale``, ``cadence`` or
``snapshot_every``).  An explicit seprk integrator on a rotating problem
and a ``converge`` degree k without ``[time] integrator`` for which no
explicit scheme reaches order k + 2 are refused naming the run.  A value
refused only where it is used (a hole outside the rectangle, a malformed
mesh file) is reported after the config path, and a blow-up at the step
where the solution turned non-finite.  The ``SWEHDG_LOG`` environment
variable sets the log level.  Identical configs produce byte-identical
CSV files.
"""

import argparse
import configparser
import difflib
import logging
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import (
    ErrorQuadrature,
    conserved_quantities,
    eoc,
    init_errors,
    l2_errors,
    total_energy,
)
from .fespace import MAX_K
from .integrators import EXPLICIT_ORDERS, SCHEME_NAMES, make_integrator, make_sdirk
from .mesh import (
    PERIODIC_AXES,
    generate_rect_with_hole,
    generate_uniform_rect,
    generate_uniform_square,
    load_mesh,
    pair_periodic,
)
from .swe import (
    PRESETS,
    PhiuIntegrator,
    build_phiu_system,
    build_uw_system,
    get_preset,
    make_problem,
    phiu_energy,
    step_count,
)

log = logging.getLogger("swehdg")

_INIT_RESIDUAL_LIMIT = 1e-10


class RunFailure(Exception):
    """A pipeline step failed; the message names the offending run."""


@dataclass
class RunConfig:
    """Parsed experiment configuration; ``_CONFIG`` maps each config key
    onto its field, and a key left out keeps the default here."""
    preset: str = "standing_wave"
    degrees: tuple = (1,)
    overrides: dict = field(default_factory=dict)
    mesh_kind: str = "uniform_square"
    levels: tuple = ()
    level: int = 2
    nx: int = 1
    ny: int = 1
    bounds: tuple = (0.0, 1.0, 0.0, 1.0)
    center: tuple = (0.0, 0.0)
    radius: float = 1.0
    target_h: float = 1.0
    periodic: str = "none"
    mesh_path: str = ""
    final_time: float = 0.0
    dt: float = None
    dt_scale: float = None
    integrator: str = ""
    basename: str = ""
    cadence: int = 0
    fields: bool = False
    snapshot_every: int = 0

    @property
    def degree(self):
        return self.degrees[0]


def _floats(text):
    return tuple(float(v) for v in text.replace(",", " ").split())


def _ints(text):
    values = tuple(int(v) for v in text.replace(",", " ").split())
    if not values:
        raise ValueError(text)
    return values


def _boolean(text):
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(text) from None


def _single_int(text):
    return (int(text),)


def _file(text):
    if not Path(text).is_file():
        raise ValueError(text)
    return text


def _numbers(count):
    """Reader of exactly ``count`` numbers."""
    def read(text):
        values = _floats(text)
        if len(values) != count:
            raise ValueError(text)
        return values
    return read


_POINT, _BOX = _numbers(2), _numbers(4)
_KINDS = {int: "an integer", float: "a number", _boolean: "true or false",
          _single_int: "an integer", _ints: "a list of integers",
          _POINT: "2 numbers", _BOX: "4 numbers", _file: "an existing file"}


def _one_of(names, empty=False):
    """Reader of one of ``names``, without regard to case, kept as
    written; with ``empty``, an empty value (the command default) too."""
    def read(text):
        if text.lower() not in names and not (empty and not text):
            raise ValueError(text)
        return text
    _KINDS[read] = "one of " + ", ".join(names)
    return read


class _OutOfRange(ValueError):
    """A value of the right kind that its key does not allow."""


def _within(read, allowed, reason):
    """``read``, refusing a value for which ``allowed`` is false with
    ``reason``, in the words of the builder that would refuse it later
    where there is one."""
    def checked(text):
        value = read(text)
        if not allowed(value):
            raise _OutOfRange(reason)
        return value
    _KINDS[checked] = _KINDS[read]
    return checked


# every mesh kind: name -> mesh of (cfg, level)
_MESH_KINDS = {
    "uniform_square": lambda cfg, level: generate_uniform_square(level, bounds=cfg.bounds),
    "uniform_rect": lambda cfg, level: generate_uniform_rect(cfg.nx, cfg.ny, bounds=cfg.bounds),
    "rect_hole": lambda cfg, level: generate_rect_with_hole(cfg.bounds, cfg.center,
                                                            cfg.radius, cfg.target_h),
    "file": lambda cfg, level: load_mesh(cfg.mesh_path),
}

_DEGREES = (lambda ks: all(0 <= k <= MAX_K for k in ks),
            f"degree k must be between 0 and {MAX_K}")
_LEVEL = _within(int, lambda n: n >= 1, "levels must be at least 1")
_CELLS = _within(int, lambda n: n >= 1, "need at least one cell per direction")
_SIZE = _within(float, lambda v: v > 0.0, "radius and target_h must be positive")
_TIME = _within(float, lambda v: v >= 0.0, "must be >= 0")  # false for nan
_COUNT = _within(int, lambda n: n >= 0, "must be >= 0")

# every config key: section -> key -> (RunConfig field, reader); the
# parameter overrides go into RunConfig.overrides under their own key
_CONFIG = {
    "problem": {"preset": ("preset", _one_of(PRESETS)),
                "degree": ("degrees", _within(_single_int, *_DEGREES)),
                "degrees": ("degrees", _within(_ints, *_DEGREES)),
                **{key: ("overrides", _within(float, lambda v: v > 0.0,  # false for nan
                                              f"{what} {key} must be positive"))
                   for key, what in (("tau", "stabilization"), ("alpha", "stabilization"),
                                     ("phi", "mean geopotential"))},
                **dict.fromkeys(("f0", "beta", "y_mid"), ("overrides", float))},
    "mesh": {"kind": ("mesh_kind", _one_of(_MESH_KINDS)),
             "levels": ("levels", _within(_ints, lambda ns: all(n >= 1 for n in ns),
                                          "levels must be at least 1")),
             "level": ("level", _LEVEL), "nx": ("nx", _CELLS), "ny": ("ny", _CELLS),
             "bounds": ("bounds", _within(_BOX, lambda b: b[0] < b[1] and b[2] < b[3],
                                          "degenerate bounds")),
             "center": ("center", _POINT), "radius": ("radius", _SIZE),
             "target_h": ("target_h", _SIZE),
             "periodic": ("periodic", _one_of(("none", *PERIODIC_AXES), empty=True)),
             "path": ("mesh_path", _file)},
    "time": {"final_time": ("final_time", _TIME), "dt": ("dt", _TIME),
             "dt_scale": ("dt_scale", _TIME),
             "integrator": ("integrator", _one_of(SCHEME_NAMES, empty=True))},
    "output": {"basename": ("basename", str), "cadence": ("cadence", _COUNT),
               "fields": ("fields", _boolean),
               "snapshot_every": ("snapshot_every", _COUNT)},
}
_CONFIG_CONFLICTS = (("problem", "degree", "degrees"), ("time", "dt", "dt_scale"))


def _did_you_mean(word, choices):
    close = difflib.get_close_matches(word, choices, n=1)
    return f"; did you mean {close[0]}?" if close else ""


def _check_config_keys(parser, path):
    """Reject unknown sections and keys, naming the closest known one,
    conflicting pairs of keys, and a mesh file kind without its path."""
    if parser.defaults():
        raise RunFailure(f"{path}: keys in [DEFAULT] are not supported")
    for section in parser.sections():
        known = _CONFIG.get(section)
        if known is None:
            raise RunFailure(f"{path}: unknown section [{section}]"
                             + _did_you_mean(section, _CONFIG))
        for key in parser[section]:
            if key not in known:
                raise RunFailure(f"{path}: unknown key {key!r} in [{section}]"
                                 + _did_you_mean(key, known))
    for section, first, second in _CONFIG_CONFLICTS:
        if parser.has_option(section, first) and parser.has_option(section, second):
            raise RunFailure(f"{path}: [{section}] sets both {first} and {second}; "
                             "keep one")
    kind = parser.get("mesh", "kind", fallback="")
    if kind.lower() == "file" and not parser.has_option("mesh", "path"):
        raise RunFailure(f"{path}: [mesh] kind = {kind} needs [mesh] path")


def load_config(path):
    """Read one INI config file into a RunConfig."""
    # values are taken literally: a '%' is not an interpolation
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None)
    try:
        found = parser.read(path)
    except configparser.Error as exc:
        raise RunFailure(f"{path}: {exc}") from None
    if not found:
        raise RunFailure(f"config file not found or unreadable: {path}")
    _check_config_keys(parser, path)
    values, overrides = {}, {}
    for section in parser.sections():
        for key, text in parser[section].items():
            name, read = _CONFIG[section][key]
            try:
                value = read(text)
            except _OutOfRange as exc:
                raise RunFailure(f"{path}: [{section}] {key} = {text} is out of range: "
                                 f"{exc}") from None
            except ValueError:
                raise RunFailure(f"{path}: [{section}] {key} must be {_KINDS[read]}, "
                                 f"got {text!r}") from None
            if name == "overrides":
                overrides[key] = value
            else:
                values[name] = value
    return RunConfig(overrides=overrides, **values)


def build_mesh(cfg, level=None):
    """Mesh for one run; level overrides the config for sweep entries."""
    mesh = _MESH_KINDS[cfg.mesh_kind.lower()](cfg, cfg.level if level is None else level)
    periodic = cfg.periodic.lower()
    if periodic in PERIODIC_AXES:
        mesh = pair_periodic(mesh, periodic)
    return mesh


def _pick_dt(cfg, degree, h, long_run=False):
    """Explicit dt wins (zero means no stepping), then dt_scale * h, then
    the command default: 0.05 h for single runs, 0.1/(k+1) h for sweeps."""
    if cfg.dt is not None:
        return cfg.dt
    if cfg.dt_scale is not None:
        return cfg.dt_scale * h
    if long_run:
        return 0.05 * h
    return 0.1 / (degree + 1) * h


def _explicit_name(degree):
    """Default sweep integrator for degree k: the explicit scheme of the
    lowest order >= k + 2, or a RunFailure when none reaches it."""
    orders = [order for order in EXPLICIT_ORDERS if order >= degree + 2]
    if not orders:
        raise RunFailure(f"no explicit integrator reaches order {degree + 2} for "
                         f"k={degree}; set [time] integrator")
    return f"seprk{orders[0]}"


def _build_stepper(label, preset, factory, *args):
    """factory(*args), with a failed stage factorization or a refused
    integrator (an explicit one on a rotating problem) turned into a
    RunFailure naming the run."""
    try:
        return factory(*args)
    except RuntimeError as exc:
        raise RunFailure(f"stepper setup failed for {label}: {exc}") from exc
    except ValueError as exc:
        raise RunFailure(f"integrator refused for {label}, preset {preset}: {exc}") from exc


def _flux_run(cfg, degree, level=None):
    """(label, spec, run) of the flux scheme on the config's mesh, with a
    failed init solve or an init residual out of bounds turned into a
    RunFailure naming the run."""
    mesh = build_mesh(cfg, level)
    label = f"k={degree}, h={mesh.h_nominal:g}"
    spec = make_problem(cfg.preset, mesh, degree, **cfg.overrides)
    try:
        run = build_uw_system(spec)
    except RuntimeError as exc:
        raise RunFailure(f"init solve failed for {label}: {exc}") from exc
    residual = run.init.init.residual
    if not np.isfinite(residual) or residual > _INIT_RESIDUAL_LIMIT:
        raise RunFailure(f"init residual {residual:.3e} out of bounds for {label}")
    return label, spec, run


def _march(label, nsteps, *runs):
    """Advance every ``(name, stepper, y0)`` of ``runs`` side by side,
    yielding ``(n, states)`` after step n; a state that turns non-finite
    raises a RunFailure naming the scheme, the run and the step."""
    states = [y0 for _, _, y0 in runs]
    for n in range(1, nsteps + 1):
        for i, (name, stepper, _) in enumerate(runs):
            # looked up on every call: perfbench/tracing.py replaces an
            # instance's step until its first call
            states[i] = stepper.step(states[i])
            if not np.all(np.isfinite(states[i])):
                raise RunFailure(f"{name} solution blew up for {label} at step {n}")
        yield n, states


def _fmt(value):
    return f"{value:.12e}"


def _eoc_cell(value):
    if value is None or not np.isfinite(value):
        return "" if value is None else "nan"
    return f"{value:.2f}"


def _write_csv(path, header, rows):
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(row) + "\n"
    path.write_text(text)
    log.info("wrote %s (%d rows)", path, len(rows))


def _vertex_average(mesh, values_per_element_vertex):
    """Average elementwise vertex samples into nodal values."""
    out = np.zeros(len(mesh.nodes))
    counts = np.zeros(len(mesh.nodes))
    np.add.at(out, mesh.elements.ravel(), values_per_element_vertex.ravel())
    np.add.at(counts, mesh.elements.ravel(), 1.0)
    return out / np.maximum(counts, 1.0)


def write_vtk_snapshot(path, run, y):
    """VTK legacy ASCII snapshot of the recovered height and the speed,
    vertex-averaged; purely for external visualization."""
    mesh = run.mesh
    sc = run.spaces.scalar
    ne = mesh.num_elements
    tab = sc.batch_values(np.arange(ne), mesh.nodes[mesh.elements])

    w, u = run.system.split(y)
    p, _ = run.recovery.recover(w)
    phi_v = np.einsum("eqi,ei->eq", tab, p.reshape(ne, -1))
    uu = np.asarray(u).reshape(ne, 2, -1)
    u1 = np.einsum("eqi,ei->eq", tab, uu[:, 0])
    u2 = np.einsum("eqi,ei->eq", tab, uu[:, 1])
    speed_v = np.hypot(u1, u2)

    lines = ["# vtk DataFile Version 3.0", "swehdg fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {len(mesh.nodes)} double"]
    lines.extend(f"{x:.12e} {y_:.12e} 0.0" for x, y_ in mesh.nodes)
    lines.append(f"CELLS {ne} {4 * ne}")
    lines.extend("3 " + " ".join(str(v) for v in tri)
                 for tri in mesh.elements)
    lines.append(f"CELL_TYPES {ne}")
    lines.extend("5" for _ in range(ne))
    lines.append(f"POINT_DATA {len(mesh.nodes)}")
    for name, arr in (("height", _vertex_average(mesh, phi_v)),
                      ("speed", _vertex_average(mesh, speed_v))):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(f"{v:.12e}" for v in arr)
    Path(path).write_text("\n".join(lines) + "\n")
    log.info("wrote %s", path)


def _convergence_task(cfg, degree, level, with_time):
    """One sweep entry: returns (h, error dict).  Raises RunFailure with
    the (k, h) identity on any solver problem."""
    ms = get_preset(cfg.preset).manufactured
    if ms is None:
        raise RunFailure(f"preset {cfg.preset} has no closed-form solution")
    label, spec, run = _flux_run(cfg, degree, level)
    h = spec.mesh.h_nominal
    quad = ErrorQuadrature(run.spaces)
    if not with_time:
        return h, init_errors(run.spaces, run.init.init, ms, quad=quad)

    final_time = cfg.final_time if cfg.final_time > 0.0 else 0.5
    nsteps, dt = step_count(final_time, _pick_dt(cfg, degree, h))
    name = cfg.integrator or _explicit_name(degree)
    stepper = _build_stepper(label, cfg.preset, make_integrator, name, run.system, dt)
    cadence = cfg.cadence if cfg.cadence > 0 else 1
    worst = l2_errors(run, run.y0, ms, 0.0, quad=quad)
    for n, (y,) in _march(label, nsteps, (name, stepper, run.y0)):
        if n % cadence == 0 or n == nsteps:
            errs = l2_errors(run, y, ms, n * dt, quad=quad)
            for key, val in errs.items():
                worst[key] = max(worst[key], val)
    return h, worst


# with_time -> (default basename, the fields whose errors the sweep writes)
_SWEEPS = {False: ("init_convergence", ("sigma", "w", "phi")),
           True: ("convergence", ("phi", "u", "w"))}


def _sweep(cfg, out_dir, threads, with_time):
    if not cfg.levels:
        raise RunFailure("convergence sweeps need [mesh] levels")
    if cfg.mesh_kind.lower() != "uniform_square":
        raise RunFailure("convergence sweeps run on uniform_square meshes")
    tasks = [(k, level) for k in cfg.degrees for level in cfg.levels]

    def work(task):
        return _convergence_task(cfg, task[0], task[1], with_time)

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = dict(zip(tasks, pool.map(work, tasks)))
    else:
        results = {task: work(task) for task in tasks}

    base, keys = _SWEEPS[with_time]
    header = ["k", "h"] + [f"{col}_{key}" for key in keys for col in ("err", "eoc")]
    rows = []
    for k in cfg.degrees:
        hs = [results[(k, level)][0] for level in cfg.levels]
        errs = {key: [results[(k, level)][1][key] for level in cfg.levels]
                for key in keys}
        orders = {key: eoc(errs[key], hs) for key in keys}
        for i, level in enumerate(cfg.levels):
            row = [str(k), _fmt(hs[i])]
            for key in keys:
                row.append(_fmt(errs[key][i]))
                row.append("" if i == 0 else _eoc_cell(orders[key][i - 1]))
            rows.append(row)
    _write_csv(out_dir / f"{cfg.basename or base}.csv", header, rows)


_SERIES_HEADER = ["time", "mass", "energy", "kinetic", "potential",
                  "trace_term", "momentum1", "momentum2", "angular_momentum",
                  "vorticity", "potential_vorticity", "potential_enstrophy"]


def _series_row(rec):
    return [_fmt(v) for v in (
        rec.t, rec.mass, rec.total_energy, rec.kinetic, rec.potential,
        rec.trace_term, rec.momentum_x, rec.momentum_y,
        rec.angular_momentum, rec.vorticity, rec.potential_vorticity,
        rec.potential_enstrophy)]


def cmd_run(cfg, out_dir, threads):
    del threads
    label, spec, run = _flux_run(cfg, cfg.degree)
    nsteps, dt = step_count(cfg.final_time, _pick_dt(cfg, cfg.degree, spec.mesh.h_nominal,
                                                     long_run=True))
    cadence = cfg.cadence if cfg.cadence > 0 else 10
    name = cfg.integrator or "midpoint"
    rows = [_series_row(conserved_quantities(run, run.y0, 0.0))]

    base = cfg.basename or "timeseries"
    if cfg.fields:
        write_vtk_snapshot(out_dir / f"{base}_0000.vtk", run, run.y0)

    if nsteps > 0:
        stepper = _build_stepper(label, cfg.preset, make_integrator, name, run.system, dt)
        for n, (y,) in _march(label, nsteps, (name, stepper, run.y0)):
            if n % cadence == 0 or n == nsteps:
                rows.append(_series_row(conserved_quantities(run, y, n * dt)))
            if cfg.fields and ((cfg.snapshot_every > 0
                                and n % cfg.snapshot_every == 0)
                               or n == nsteps):
                write_vtk_snapshot(out_dir / f"{base}_{n:04d}.vtk", run, y)

    _write_csv(out_dir / f"{base}.csv", _SERIES_HEADER, rows)


def cmd_compare_dissipative(cfg, out_dir, threads):
    del threads
    label, spec, uw = _flux_run(cfg, cfg.degree)
    phiu = build_phiu_system(spec, spaces=uw.spaces, matrices=uw.matrices)

    nsteps, dt = step_count(cfg.final_time, _pick_dt(cfg, cfg.degree, spec.mesh.h_nominal,
                                                     long_run=True))
    uw_stepper = _build_stepper(label, cfg.preset, make_integrator,
                                cfg.integrator or "midpoint", uw.system, dt)
    phiu_stepper = _build_stepper(label, cfg.preset, PhiuIntegrator, phiu,
                                  make_sdirk(2), dt)

    rows = [[_fmt(0.0), _fmt(total_energy(uw, uw.y0)), _fmt(phiu_energy(phiu, phiu.y0))]]
    for n, (y_uw, y_phiu) in _march(label, nsteps, ("conserving", uw_stepper, uw.y0),
                                    ("dissipative", phiu_stepper, phiu.y0)):
        rows.append([_fmt(n * dt), _fmt(total_energy(uw, y_uw)),
                     _fmt(phiu_energy(phiu, y_phiu))])
    base = cfg.basename or "energy_compare"
    _write_csv(out_dir / f"{base}.csv",
               ["time", "energy_conserving", "energy_dissipative"], rows)


_COMMANDS = {
    "converge_init": partial(_sweep, with_time=False),
    "converge": partial(_sweep, with_time=True),
    "run": cmd_run,
    "compare_dissipative": cmd_compare_dissipative,
}


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="swehdg",
        description="Structure-preserving solver pipelines for the "
                    "linearized rotating shallow water equations.")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default="swehdg_out", help="output directory")
    parser.add_argument("--threads", type=int, default=1,
                        help="parallel (k, h) runs in convergence sweeps")
    args = parser.parse_args(argv)

    logging.basicConfig(level=os.environ.get("SWEHDG_LOG", "WARNING").upper())

    try:
        cfg = load_config(args.config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.subcommand](cfg, out_dir, max(args.threads, 1))
    except RunFailure as exc:
        print(f"swehdg: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # a value the loader let through but the code it reaches refuses
        print(f"swehdg: {args.config}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
