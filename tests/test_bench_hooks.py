"""The names the benchmark tracer in ``perfbench/tracing.py`` hooks and
reads: they must keep resolving, or a traced run silently loses spans and
fill counts.  The tracer module is executed from its source, read only
(no bytecode is written next to it)."""

import types
from pathlib import Path

import numpy as np
import pytest

from swehdg import cli, elliptic, swe
from swehdg.elliptic import PhiRecovery
from swehdg.integrators import SemidiscreteSystem, make_integrator, make_sdirk
from swehdg.mesh import generate_uniform_square, pair_periodic
from swehdg.swe import PhiuIntegrator, build_phiu_system, make_problem

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def run():
    mesh = pair_periodic(generate_uniform_square(2), "both")
    return build_phiu_system(make_problem("moving_bump", mesh, 1))


def test_hooked_names_resolve(tracing):
    for namespace, table in ((cli, tracing.CLI_HOOKS), (swe, tracing.SWE_HOOKS),
                             (elliptic, tracing.ELLIPTIC_HOOKS)):
        for attr, _ in table:
            assert callable(getattr(namespace, attr, None)), f"{namespace.__name__}.{attr}"


def test_recovery_has_traced_methods_and_factor(tracing, run):
    # the recovery factors at its first trace solve; until then the
    # tracer reads its fill as absent
    rec = PhiRecovery(run.matrices)
    for method in tracing.RECOVERY_METHODS:
        assert callable(getattr(rec, method))
    assert tracing.lu_fill(rec.schur) is None
    rec.recover(np.ones(run.matrices.div_pair.shape[0]))
    assert tracing.lu_fill(rec.schur) > 0


@pytest.fixture(scope="module")
def still_run():
    # the explicit steppers are refused on rotating problems
    mesh = pair_periodic(generate_uniform_square(2), "both")
    return build_phiu_system(make_problem("moving_bump", mesh, 1, f0=0.0))


@pytest.mark.parametrize("name", ["midpoint", "sdirk4", "seprk4"])
def test_integrator_step_on_class(run, still_run, name):
    # the first-step clock sets and then deletes an instance attribute
    mats = (still_run if name.startswith("seprk") else run).matrices
    system = SemidiscreteSystem(matrices=mats, recovery=PhiRecovery(mats))
    stepper = make_integrator(name, system, 0.05)
    assert "step" not in vars(stepper)
    assert callable(getattr(type(stepper), "step", None))


def test_phiu_step_on_class(run):
    stepper = PhiuIntegrator(run, make_sdirk(2), 0.05)
    assert "step" not in vars(stepper)
    assert callable(getattr(type(stepper), "step", None))


@pytest.mark.parametrize("order", [2, 4])
def test_trace_factors_hold_the_fill(tracing, run, order):
    system = SemidiscreteSystem(matrices=run.matrices, recovery=PhiRecovery(run.matrices))
    steppers = [make_integrator(f"sdirk{order}", system, 0.05)]
    if order == 2:      # the height scheme refuses sdirk4's negative weight
        steppers.append(PhiuIntegrator(run, make_sdirk(order), 0.05))
    for stepper in steppers:
        fills = [tracing.lu_fill(f) for f in stepper.trace_factors.values()]
        assert fills and None not in fills
        assert tracing.held_factor_fill(stepper) == sum(fills)
