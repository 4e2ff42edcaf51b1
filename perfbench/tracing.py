"""Span tracer put around swehdg's public functions from outside the package.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for none).  Span names are ``<layer>.<function>``, where
the layer is the swehdg module that defines the function.  Spans stay in
memory until the run ends; nothing under ``src/`` is modified.

Each wrapper is installed in the namespace where the caller looks the name
up: ``swehdg.cli`` binds the pipeline builders at import, ``swehdg.swe``
binds the space, assembly, init and recovery builders, and the stepper and
recovery objects are reached through the instances those calls return.
"""

import statistics
import time

import numpy as np
from scipy import sparse

# (module attribute in the namespace, span name); one table per namespace
CLI_HOOKS = (
    ("load_config", "cli.load_config"),
    ("generate_uniform_square", "mesh.generate_uniform_square"),
    ("generate_uniform_rect", "mesh.generate_uniform_rect"),
    ("generate_rect_with_hole", "mesh.generate_rect_with_hole"),
    ("load_mesh", "mesh.load_mesh"),
    ("pair_periodic", "mesh.pair_periodic"),
    ("build_uw_system", "swe.build_uw_system"),
    ("build_phiu_system", "swe.build_phiu_system"),
    ("PhiuIntegrator", "swe.PhiuIntegrator"),
    ("make_integrator", "integrators.make_integrator"),
    ("conserved_quantities", "diagnostics.conserved_quantities"),
    ("l2_errors", "diagnostics.l2_errors"),
    ("write_vtk_snapshot", "cli.write_vtk_snapshot"),
)
SWE_HOOKS = (
    ("build_spaces", "fespace.build_spaces"),
    ("assemble_all", "assembly.assemble_all"),
    ("initialize_state", "elliptic.initialize_state"),
    ("PhiRecovery", "elliptic.PhiRecovery"),
)
ELLIPTIC_HOOKS = (
    ("solve_vector_laplacian", "elliptic.solve_vector_laplacian"),
)
RECOVERY_METHODS = ("recover", "apply")
LAYERS = ("mesh", "fespace", "assembly", "elliptic", "integrators", "swe",
          "diagnostics", "cli")
ROOT_SPAN = "cli.main"


class Tracer:
    """Spans of one process, plus the returned objects and counts the
    per-layer metrics are read from after the run."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []
        self.meshes = []
        self.spaces = []
        self.matrices = []
        self.residuals = []
        self.recoveries = []
        self.steppers = []
        self.phiu_steppers = []

    def wrap(self, name, fn, after=None):
        """Callable that records one span per call of ``fn``; ``after``
        sees the return value once the span is closed."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            try:
                out = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(out)
            return out

        return traced

    def _hook(self, namespace, attr, name, after=None):
        fn = getattr(namespace, attr, None)
        if fn is None:
            self.missing.append(f"{namespace.__name__}.{attr}")
            return
        setattr(namespace, attr, self.wrap(name, fn, after))

    def install(self, cli, swe, elliptic):
        """Wrap every traced name where swehdg looks it up."""
        after = {
            "make_integrator": self._on_stepper,
            "PhiuIntegrator": self._on_phiu_stepper,
            "build_spaces": self.spaces.append,
            "assemble_all": self.matrices.append,
            "PhiRecovery": self._on_recovery,
            "solve_vector_laplacian": self._on_init_solution,
        }
        for namespace, table in ((cli, CLI_HOOKS), (swe, SWE_HOOKS),
                                 (elliptic, ELLIPTIC_HOOKS)):
            for attr, name in table:
                hook = self.meshes.append if name.startswith("mesh.") else None
                self._hook(namespace, attr, name, after.get(attr, hook))

    def _on_stepper(self, stepper):
        stepper.step = self.wrap("integrators.step", stepper.step)
        self.steppers.append(stepper)

    def _on_phiu_stepper(self, stepper):
        stepper.step = self.wrap("swe.phiu_step", stepper.step)
        self.phiu_steppers.append(stepper)

    def _on_recovery(self, recovery):
        # apply() reaches recover() through the instance, so both spans nest
        for method in RECOVERY_METHODS:
            setattr(recovery, method,
                    self.wrap(f"elliptic.{method}", getattr(recovery, method)))
        self.recoveries.append(recovery)

    def _on_init_solution(self, solution):
        self.residuals.append(float(solution.residual))


def install_first_step_clock(cli, stamps):
    """Untraced runs: append the time of the first step call of each
    stepper built through ``swehdg.cli`` to ``stamps``; each stepper's
    own ``step`` is restored after that call."""

    def clocked(factory):
        def build(*args, **kwargs):
            stepper = factory(*args, **kwargs)

            def first_step(y):
                stamps.append(time.perf_counter())
                del stepper.step
                return stepper.step(y)

            stepper.step = first_step
            return stepper

        return build

    for attr in ("make_integrator", "PhiuIntegrator"):
        setattr(cli, attr, clocked(getattr(cli, attr)))


def lu_fill(factor):
    """``L.nnz + U.nnz`` of a SuperLU object, or None when ``factor`` is
    not one (for instance after a refactor removed it)."""
    lower, upper = getattr(factor, "L", None), getattr(factor, "U", None)
    if lower is None or upper is None or not callable(getattr(factor, "solve", None)):
        return None
    return int(lower.nnz + upper.nnz)


def held_factor_fill(holder):
    """Summed fill of the SuperLU objects a stepper holds in its instance
    attributes, directly or inside a dict, list or tuple; None if it
    holds none."""
    found = []
    for value in vars(holder).values():
        items = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (list, tuple)) else (value,))
        found.extend(f for f in map(lu_fill, items) if f is not None)
    return sum(found) if found else None


def _fill(objects, reader, label, absent):
    """Summed fill over ``objects``; each one ``reader`` finds no factor
    in is named in ``absent`` and counts as 0."""
    total = 0
    for obj in objects:
        fill = reader(obj)
        if fill is None:
            absent.append(f"{label} ({type(obj).__name__})")
        else:
            total += fill
    return total


def _median_ms(durations):
    return 1e3 * statistics.median(durations) if durations else 0.0


def summarize(tracer, wall):
    """Per-layer metrics of one traced run whose ``swehdg.cli.main`` call
    took ``wall`` seconds, timed outside the tracer, and the list of fill
    counts that could not be read (reported as absent, counted as 0)."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    layer_of = [name.split(".", 1)[0] for name, *_ in spans]

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - child_time[i]

    def named(name):
        return [i for i, s in enumerate(spans) if s[0] == name]

    def total(name):
        return sum(dur(i) for i in named(name))

    root = named(ROOT_SPAN)[0]
    recovery_names = {f"elliptic.{m}" for m in RECOVERY_METHODS}
    recovery = [i for i, s in enumerate(spans) if s[0] in recovery_names
                and (s[3] < 0 or spans[s[3]][0] not in recovery_names)]
    steps = named("integrators.step")
    step_ids = set(steps)
    recovery_in_steps = sum(1 for i in recovery if spans[i][3] in step_ids)
    step_durations = [dur(i) for i in steps]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in range(len(spans)):
        if i != root:
            layer_self[layer_of[i]] += self_time(i)
    unattributed = self_time(root)

    last_mesh = tracer.meshes[-1] if tracer.meshes else None
    absent = []
    metrics = {
        "mesh.build_s": sum(total(n) for _, n in CLI_HOOKS if n.startswith("mesh.")),
        "mesh.elements": last_mesh.num_elements if last_mesh else 0,
        "mesh.facets": last_mesh.num_facets if last_mesh else 0,
        "fespace.build_s": total("fespace.build_spaces"),
        "fespace.scalar_ndof": max((s.scalar.ndof for s in tracer.spaces), default=0),
        "fespace.trace_ndof": max((s.trace.ndof for s in tracer.spaces), default=0),
        "assembly.assemble_s": total("assembly.assemble_all"),
        "assembly.nnz": sum(int(v.nnz) for m in tracer.matrices
                            for v in vars(m).values() if sparse.issparse(v)),
        "elliptic.init_solve_s": total("elliptic.solve_vector_laplacian"),
        "elliptic.init_residual": max(tracer.residuals, default=0.0),
        "elliptic.recovery_factor_s": total("elliptic.PhiRecovery"),
        "elliptic.recovery_fill": _fill(
            tracer.recoveries, lambda r: lu_fill(getattr(r, "schur", None)),
            "elliptic.recovery_fill", absent),
        "elliptic.recovery_solve_ms": _median_ms([dur(i) for i in recovery]),
        "elliptic.recovery_calls": len(recovery),
        "elliptic.recovery_calls_per_step": recovery_in_steps / len(steps) if steps else 0.0,
        "integrators.stepper_build_s": total("integrators.make_integrator"),
        "integrators.stage_fill": _fill(tracer.steppers, held_factor_fill,
                                        "integrators.stage_fill", absent),
        "integrators.step_ms": _median_ms(step_durations),
        "integrators.step_ms_p90": (1e3 * float(np.percentile(step_durations, 90))
                                    if steps else 0.0),
        "integrators.step_self_ms": _median_ms([self_time(i) for i in steps]),
        "integrators.steps": len(steps),
        "swe.build_uw_s": total("swe.build_uw_system"),
        "swe.build_phiu_s": total("swe.build_phiu_system"),
        "swe.phiu_factor_s": total("swe.PhiuIntegrator"),
        "swe.phiu_fill": _fill(tracer.phiu_steppers, held_factor_fill,
                               "swe.phiu_fill", absent),
        "swe.phiu_step_ms": _median_ms([dur(i) for i in named("swe.phiu_step")]),
        "diagnostics.conserved_ms": _median_ms(
            [dur(i) for i in named("diagnostics.conserved_quantities")]),
        "diagnostics.conserved_calls": len(named("diagnostics.conserved_quantities")),
        "diagnostics.l2_errors_ms": _median_ms([dur(i) for i in named("diagnostics.l2_errors")]),
        "diagnostics.l2_errors_calls": len(named("diagnostics.l2_errors")),
        "cli.load_config_s": total("cli.load_config"),
        "cli.vtk_ms": _median_ms([dur(i) for i in named("cli.write_vtk_snapshot")]),
    }
    for layer, value in layer_self.items():
        metrics[f"{layer}.self_s"] = value
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = unattributed
    metrics["trace.closure_gap"] = (sum(layer_self.values()) + unattributed) / wall - 1.0
    return metrics, absent
