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
    has a bed profile, so it is the quantity the stepper conserves).
compare_dissipative
    ``run`` with the dissipative scheme stepped beside the conserving
    one; writes ``time,energy_conserving,energy_dissipative``.

Both single-run commands record at step 0, every ``cadence`` steps and
the last, and with ``fields`` write VTK snapshots of the flux run's height
and speed at step 0, every ``snapshot_every`` steps and the last.  What
each command does where its config is silent is one row of ``_COMMANDS``.

Configs are INI files with [problem], [mesh], [time], [output] sections,
whose keys ``_CONFIG`` declares with the reader that judges each value;
missing keys fall back to the defaults in ``RunConfig``.  ``level`` is
the one-entry form of ``levels``, as ``degree`` is of ``degrees``.  The
loader refuses, naming the file, the section and the key, an unknown
section or key, a conflicting pair of keys, ``kind = file`` without an
existing ``path``, and a value of the wrong type, out of its key's
choices (without regard to case) or out of its range (``level = -1``, a
nan ``dt``).  ``run`` and ``compare_dissipative`` refuse, naming the file
and the key, more than one degree or level.  An explicit seprk integrator
on a rotating problem and a ``converge`` degree k without ``[time]
integrator`` for which no explicit scheme reaches order k + 2 are
refused naming the run, whether or not a step is taken.  A value refused
only where it is used (a hole outside the rectangle, a malformed mesh
file) is reported after the config path, and a blow-up at the step where
the solution turned non-finite.  An output location that cannot be
written (``--out`` naming a file, a ``basename`` in a missing directory)
is refused before any work, naming the path and the reason.
``SWEHDG_LOG`` sets the log level.  Identical configs produce
byte-identical CSV files.  Under glibc, ``main`` fixes the mmap
threshold before any work, so that a run's peak memory is its live data.
"""

import argparse
import configparser
import ctypes
import difflib
import errno
import logging
import os
import sys
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .diagnostics import (
    ErrorNorms,
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

# glibc's mallopt(3) parameter M_MMAP_THRESHOLD, and the value main fixes
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD = 2 << 20


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
    nx: int = 1
    ny: int = 1
    bounds: tuple = (0.0, 1.0, 0.0, 1.0)
    center: tuple = (0.0, 0.0)
    radius: float = 1.0
    target_h: float = 1.0
    periodic: str = "none"
    mesh_path: str = ""
    final_time: float = None
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
_LEVELS = (lambda ns: all(n >= 1 for n in ns), "levels must be at least 1")
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
             "level": ("levels", _within(_single_int, *_LEVELS)),
             "levels": ("levels", _within(_ints, *_LEVELS)),
             "nx": ("nx", _CELLS), "ny": ("ny", _CELLS),
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
_CONFIG_CONFLICTS = (("problem", "degree", "degrees"), ("mesh", "level", "levels"),
                     ("time", "dt", "dt_scale"))


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
    """Mesh for one run; ``level`` refines a uniform_square mesh, other kinds ignore it."""
    mesh = _MESH_KINDS[cfg.mesh_kind.lower()](cfg, level)
    periodic = cfg.periodic.lower()
    if periodic in PERIODIC_AXES:
        mesh = pair_periodic(mesh, periodic)
    return mesh


def _pick_dt(cfg, degree, h, command):
    """Explicit dt wins (zero means no stepping), then dt_scale * h, then
    the command's default scale for degree k times h."""
    if cfg.dt is not None:
        return cfg.dt
    return (command.dt_scale(degree) if cfg.dt_scale is None else cfg.dt_scale) * h


def _explicit_name(degree):
    """Default sweep integrator for degree k: the explicit scheme of the
    lowest order >= k + 2, or a RunFailure when none reaches it."""
    orders = [order for order in EXPLICIT_ORDERS if order >= degree + 2]
    if not orders:
        raise RunFailure(f"no explicit integrator reaches order {degree + 2} for "
                         f"k={degree}; set [time] integrator")
    return f"seprk{orders[0]}"


def _build_stepper(label, factory, *args):
    """factory(*args), with a failed stage factorization or a refused
    integrator (an explicit one on a rotating problem) turned into a
    RunFailure naming the run."""
    try:
        return factory(*args)
    except RuntimeError as exc:
        raise RunFailure(f"stepper setup failed for {label}: {exc}") from exc
    except ValueError as exc:
        raise RunFailure(f"integrator refused for {label}: {exc}") from exc


def _flux_run(cfg, degree, level):
    """(label, run) of the flux scheme on the config's mesh, for
    every command, with a failed init solve or an init residual out of
    bounds turned into a RunFailure naming the run; the label names k, h
    and the preset."""
    mesh = build_mesh(cfg, level)
    label = f"k={degree}, h={mesh.h_nominal:g}, preset {cfg.preset}"
    spec = make_problem(cfg.preset, mesh, degree, **cfg.overrides)
    try:
        run = build_uw_system(spec)
    except RuntimeError as exc:
        raise RunFailure(f"init solve failed for {label}: {exc}") from exc
    residual = run.init.residual
    if not np.isfinite(residual) or residual > _INIT_RESIDUAL_LIMIT:
        raise RunFailure(f"init residual {residual:.3e} out of bounds for {label}")
    return label, run


def _flux_stepper(cfg, command, label, run):
    """(name, stepper, nsteps, dt, cadence) of a flux run under ``command``'s
    defaults; every command builds its steppers before its first record."""
    k, h = run.spec.degree, run.spec.mesh.h_nominal
    final_time = command.final_time if cfg.final_time is None else cfg.final_time
    nsteps, dt = step_count(final_time, _pick_dt(cfg, k, h, command))
    name = cfg.integrator or command.integrator(k)
    stepper = _build_stepper(label, make_integrator, name, run.system, dt)
    return name, stepper, nsteps, dt, cfg.cadence or command.cadence


def _march(label, nsteps, *runs):
    """Advance every ``(name, stepper, y0)`` of ``runs`` side by side,
    yielding ``(n, states)`` at n = 0 and after each step n; a state that
    turns non-finite raises a RunFailure naming the scheme, the run and
    the step."""
    states = [y0 for _, _, y0 in runs]
    yield 0, states
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
    path.write_text("".join(",".join(row) + "\n" for row in (header, *rows)))
    log.info("wrote %s (%d rows)", path, len(rows))


@dataclass
class VtkFrame:
    """What every VTK snapshot of one run shares: the element basis at the
    element vertices, the text before the point data, the node of each
    element vertex, and the number of elements at each node (at least 1)."""
    tab: np.ndarray
    head: str
    vertices: np.ndarray
    counts: np.ndarray

    @classmethod
    def of_run(cls, run):
        mesh = run.mesh
        ne = mesh.num_elements
        tab = run.spaces.scalar.batch_values(np.arange(ne), mesh.nodes[mesh.elements])
        lines = ["# vtk DataFile Version 3.0", "swehdg fields", "ASCII",
                 "DATASET UNSTRUCTURED_GRID",
                 f"POINTS {len(mesh.nodes)} double"]
        lines.extend(f"{x:.12e} {y:.12e} 0.0" for x, y in mesh.nodes.tolist())
        lines.append(f"CELLS {ne} {4 * ne}")
        lines.extend("3 " + " ".join(str(v) for v in tri)
                     for tri in mesh.elements.tolist())
        lines.append(f"CELL_TYPES {ne}")
        lines.extend("5" for _ in range(ne))
        lines.append(f"POINT_DATA {len(mesh.nodes)}")
        vertices = mesh.elements.ravel()
        counts = np.bincount(vertices, minlength=len(mesh.nodes))
        return cls(tab, "\n".join(lines) + "\n", vertices, np.maximum(counts, 1.0))

    def vertex_average(self, values_per_element_vertex):
        """Average elementwise vertex samples into nodal values."""
        return np.bincount(self.vertices, weights=values_per_element_vertex.ravel(),
                           minlength=len(self.counts)) / self.counts


def write_vtk_snapshot(path, run, y, frame):
    """VTK legacy ASCII snapshot of the recovered height and the speed,
    vertex-averaged, with the run's :class:`VtkFrame`; purely for
    external visualization."""
    ne = run.mesh.num_elements
    tab = frame.tab

    w, u = run.system.split(y)
    p, _ = run.recovery.recover(w)
    phi_v = np.einsum("eqi,ei->eq", tab, p.reshape(ne, -1))
    uu = np.asarray(u).reshape(ne, 2, -1)
    u1 = np.einsum("eqi,ei->eq", tab, uu[:, 0])
    u2 = np.einsum("eqi,ei->eq", tab, uu[:, 1])
    speed_v = np.hypot(u1, u2)

    lines = []
    for name, arr in (("height", frame.vertex_average(phi_v)),
                      ("speed", frame.vertex_average(speed_v))):
        lines.append(f"SCALARS {name} double 1")
        lines.append("LOOKUP_TABLE default")
        lines.extend(map("{:.12e}".format, arr.tolist()))
    Path(path).write_text(frame.head + "\n".join(lines) + "\n")
    log.info("wrote %s", path)


def _convergence_task(cfg, degree, level, with_time):
    """One sweep entry: returns (h, error dict).  Raises RunFailure with
    the (k, h) identity on any solver problem."""
    label, run = _flux_run(cfg, degree, level)
    h = run.spec.mesh.h_nominal
    norms = ErrorNorms(run.spaces, run.spec.manufactured)
    if not with_time:
        return h, init_errors(run.init, norms)

    name, stepper, nsteps, dt, cadence = _flux_stepper(cfg, _COMMANDS["converge"], label, run)
    worst = {}
    for n, (y,) in _march(label, nsteps, (name, stepper, run.y0)):
        if n % cadence == 0 or n == nsteps:
            for key, val in l2_errors(run, y, norms, n * dt).items():
                worst[key] = max(worst.get(key, val), val)
    return h, worst


def _sweep(cfg, out_dir, threads, command, with_time):
    if not cfg.levels:
        raise RunFailure("convergence sweeps need [mesh] levels")
    if cfg.mesh_kind.lower() != "uniform_square":
        raise RunFailure("convergence sweeps run on uniform_square meshes")
    if get_preset(cfg.preset).manufactured is None:
        raise RunFailure(f"preset {cfg.preset} has no closed-form solution")
    tasks = [(k, level) for k in cfg.degrees for level in cfg.levels]

    def work(task):
        return _convergence_task(cfg, task[0], task[1], with_time)

    if threads > 1:
        # longest first: the cost of an entry grows with its level, then
        # its degree, so the pool does not end on the largest one alone
        order = sorted(tasks, key=lambda task: (task[1], task[0]), reverse=True)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = dict(zip(order, pool.map(work, order)))
    else:
        results = {task: work(task) for task in tasks}

    keys = ("phi", "u", "w") if with_time else ("sigma", "w", "phi")
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
    _write_csv(out_dir / f"{cfg.basename or command.basename}.csv", header, rows)


# the columns of the run CSV: (header, QuantityRecord attribute)
_SERIES = (("time", "t"), ("mass", "mass"), ("energy", "total_energy"),
           ("kinetic", "kinetic"), ("potential", "potential"),
           ("trace_term", "trace_term"), ("momentum1", "momentum_x"),
           ("momentum2", "momentum_y"), ("angular_momentum", "angular_momentum"),
           ("vorticity", "vorticity"), ("potential_vorticity", "potential_vorticity"),
           ("potential_enstrophy", "potential_enstrophy"))


def _single_run(cfg, out_dir, threads, command, dissipative=False):
    """The flux run alone, recorded by its conserved quantities (``run``),
    or with the dissipative scheme stepped beside it, recorded by the two
    energies (``compare_dissipative``)."""
    del threads
    label, run = _flux_run(cfg, cfg.degree, (cfg.levels or (command.level,))[0])
    name, stepper, nsteps, dt, cadence = _flux_stepper(cfg, command, label, run)
    if dissipative:
        phiu = build_phiu_system(run.spec, matrices=run.matrices)
        phiu_stepper = _build_stepper(label, PhiuIntegrator, phiu, make_sdirk(2), dt)
        runs = (("conserving", stepper, run.y0), ("dissipative", phiu_stepper, phiu.y0))
        header = ["time", "energy_conserving", "energy_dissipative"]

        def record(t, y, y_phiu):
            return [_fmt(t), _fmt(total_energy(run, y)), _fmt(phiu_energy(phiu, y_phiu))]
    else:
        runs = ((name, stepper, run.y0),)
        header = [column for column, _ in _SERIES]

        def record(t, y):
            rec = conserved_quantities(run, y, t)
            return [_fmt(getattr(rec, attr)) for _, attr in _SERIES]

    base = cfg.basename or command.basename
    rows, frame = [], VtkFrame.of_run(run) if cfg.fields else None
    for n, states in _march(label, nsteps, *runs):
        if n % cadence == 0 or n == nsteps:
            rows.append(record(n * dt, *states))
        if cfg.fields and (n in (0, nsteps)
                           or cfg.snapshot_every > 0 and n % cfg.snapshot_every == 0):
            write_vtk_snapshot(out_dir / f"{base}_{n:04d}.vtk", run, states[0], frame)
    _write_csv(out_dir / f"{base}.csv", header, rows)


# each command's pipeline(cfg, out_dir, threads, command) and defaults: the
# basename, final_time, dt / h and integrator of degree k, the cadence for
# cadence = 0, and the level of a single run, or None for a sweep of every
# degree and level it lists; converge_init takes no step
Command = namedtuple("Command", "pipeline basename final_time dt_scale integrator cadence level")
_COMMANDS = {
    "converge_init": Command(partial(_sweep, with_time=False), "init_convergence",
                             None, None, None, None, None),
    "converge": Command(partial(_sweep, with_time=True), "convergence",
                        0.5, lambda k: 0.1 / (k + 1), _explicit_name, 1, None),
    "run": Command(_single_run, "timeseries",
                   0.0, lambda k: 0.05, lambda k: "midpoint", 10, 2),
    "compare_dissipative": Command(partial(_single_run, dissipative=True), "energy_compare",
                                   0.0, lambda k: 0.05, lambda k: "midpoint", 1, 2),
}


def _fix_mmap_threshold():
    """Fix glibc's mmap threshold at ``_MMAP_THRESHOLD``; with another C
    library, do nothing.

    By default glibc raises the threshold to the size of every mmapped
    block that is freed (up to 32 MiB), so later blocks of that size come
    from the heap, and freed heap below its top stays resident: a run's
    peak then holds earlier phases' freed arrays beside its live data.
    A fixed threshold turns that adjustment off (mallopt(3)), and every
    block of at least 2 MiB is mapped and given back when freed.  The
    value follows a rule fixed before measuring: of 512 KiB, 1 MiB and
    2 MiB, the one with the lowest peak on the benchmark's holed-box
    midpoint run, where a value within 0.5 MB of a larger one yields to
    it (fewer mappings).  Their medians over three seeds read 96.0, 95.9
    and 96.2 MB on a 2-core Intel Xeon."""
    try:
        libc = ctypes.CDLL(None)
    except (OSError, TypeError):
        return
    if hasattr(libc, "gnu_get_libc_version"):
        libc.mallopt.argtypes, libc.mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


def _output_dir(out, base):
    """The output directory ``out``, created if missing, once the files
    ``base`` names can be written there; an OSError names the path that
    cannot be used, before any work is done."""
    out_dir = Path(out)
    where = (out_dir / base).parent
    if where != out_dir and not where.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(where))
    out_dir.mkdir(parents=True, exist_ok=True)
    if not os.access(where, os.W_OK | os.X_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(where))
    return out_dir


def _count(text):
    """``--threads``: an integer of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be an integer of at least 1, got {text!r}")
    return int(text)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="swehdg",
        description="Structure-preserving solver pipelines for the "
                    "linearized rotating shallow water equations.")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI config file")
    parser.add_argument("--out", default="swehdg_out", help="output directory")
    parser.add_argument("--threads", type=_count, default=1,
                        help="parallel (k, h) runs in convergence sweeps")
    args = parser.parse_args(argv)
    command = _COMMANDS[args.subcommand]
    _fix_mmap_threshold()

    try:
        level = os.environ.get("SWEHDG_LOG", "WARNING")
        if not isinstance(logging.getLevelName(level.upper()), int):
            raise RunFailure(f"SWEHDG_LOG={level} is not a log level; use DEBUG, INFO, "
                             "WARNING, ERROR or CRITICAL")
        logging.basicConfig(level=level.upper())
        cfg = load_config(args.config)
        for section, key, values in (("problem", "degree", cfg.degrees),
                                     ("mesh", "level", cfg.levels)):
            if command.level is not None and len(values) > 1:  # a single run
                raise RunFailure(f"{args.config}: [{section}] {key}s lists {len(values)} "
                                 f"{key}s, but {args.subcommand} runs one; "
                                 f"set [{section}] {key}")
        out_dir = _output_dir(args.out, cfg.basename or command.basename)
        command.pipeline(cfg, out_dir, args.threads, command)
    except RunFailure as exc:
        print(f"swehdg: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # a path that cannot be used, named with the reason
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"swehdg: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # a value the loader let through but the code it reaches refuses
        print(f"swehdg: {args.config}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
