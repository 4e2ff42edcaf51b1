"""The first-step clock of ``perfbench/tracing.py`` around whole CLI runs:
it must stamp each stepper's first step once and leave the output
unchanged.  The clock replaces a stepper's ``step`` until its first call,
so a run loop that bound ``step`` once would fail here.  The tracer module
is executed from its source, read only (no bytecode is written next to
it)."""

import types
from pathlib import Path

import pytest

from swehdg import cli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

RUN = """
[problem]
preset = standing_wave
degree{s} = 1

[mesh]
kind = uniform_square
level{s} = 2{more}

[time]
final_time = 0.02
dt = 0.005
"""


@pytest.fixture(scope="module")
def tracing():
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


@pytest.mark.parametrize("subcommand,text,csv,steppers", [
    ("run", RUN.format(s="", more=""), "timeseries.csv", 1),
    ("converge", RUN.format(s="s", more=", 3"), "convergence.csv", 2),
    ("compare_dissipative", RUN.format(s="", more=""), "energy_compare.csv", 2),
], ids=["run", "converge", "compare_dissipative"])
def test_clock_stamps_each_stepper_and_keeps_the_csv(tmp_path, monkeypatch, tracing,
                                                    subcommand, text, csv, steppers):
    cfg = tmp_path / "c.ini"
    cfg.write_text(text)
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "plain")]) == 0

    built = []
    for attr in ("make_integrator", "PhiuIntegrator"):
        def counted(*args, _build=getattr(cli, attr), **kwargs):
            built.append(_build(*args, **kwargs))
            return built[-1]
        # also restores the factories the clock wraps after the test
        monkeypatch.setattr(cli, attr, counted)
    stamps = []
    tracing.install_first_step_clock(cli, stamps)
    assert cli.main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "clocked")]) == 0

    assert len(built) == steppers
    assert len(stamps) == steppers
    assert all("step" not in vars(stepper) for stepper in built)
    assert ((tmp_path / "clocked" / csv).read_bytes()
            == (tmp_path / "plain" / csv).read_bytes())
