"""The benchmark's workloads: the config each one runs and the checks its
CSV output must pass.

Each config is derived from a shipped one in ``configs/`` and shrunk so a
repetition takes a few seconds.  Steps are given as an explicit ``dt`` equal
to the command default, so the step count is known without counting calls.
References and tolerances live in ``references.json``.
"""

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

REFERENCES = json.loads((Path(__file__).parent / "references.json").read_text())


@dataclass
class Workload:
    name: str
    subcommand: str
    basename: str
    final_time: float
    dt: float
    cadence: int = 1

    @property
    def steps(self):
        # same rounding as swehdg.swe.step_count
        return max(1, int(round(self.final_time / self.dt)))

    def config(self, seed):
        raise NotImplementedError

    def expected_rows(self):
        raise NotImplementedError

    def checks(self, rows, refs):
        raise NotImplementedError


class BumpMidpoint(Workload):
    """Holed periodic box, moving_bump preset, k = 2, implicit midpoint."""

    bounds = (-10.0, 10.0, -10.0, 10.0)
    radius = 1.0

    def centre(self, seed):
        # a jitter of +-0.05 keeps 792 elements and the init and stage LU
        # fill within about 2%; +-0.5 moved the fill, and so the set-up
        # and step times, by up to 8%
        rng = random.Random(seed)
        return 3.0 + rng.uniform(-0.05, 0.05), rng.uniform(-0.05, 0.05)

    def config(self, seed):
        cx, cy = self.centre(seed)
        return f"""\
[problem]
preset = moving_bump
degree = 2

[mesh]
kind = rect_hole
bounds = {", ".join(map(repr, self.bounds))}
center = {cx!r}, {cy!r}
radius = {self.radius!r}
target_h = 1.0
periodic = both

[time]
final_time = {self.final_time!r}
dt = {self.dt!r}
integrator = midpoint

[output]
basename = {self.basename}
cadence = {self.cadence}
fields = true
snapshot_every = 100
"""

    def expected_rows(self):
        n = self.steps
        return 1 + sum(1 for i in range(1, n + 1) if i % self.cadence == 0 or i == n)

    def checks(self, rows, refs):
        energy = [float(r["energy"]) for r in rows]
        mass = [float(r["mass"]) for r in rows]
        potential = [float(r["potential"]) for r in rows]
        drift = max(abs(e - energy[0]) for e in energy) / abs(energy[0])
        # criterion 4's scale: sqrt(area) * max L2 norm of the height
        x0, x1, y0, y1 = self.bounds
        area = (x1 - x0) * (y1 - y0) - math.pi * self.radius ** 2
        scale = math.sqrt(area) * max(math.sqrt(2.0 * p) for p in potential)
        mass_dev = max(abs(m) for m in mass) / scale
        return [
            ("energy_drift", drift <= refs["energy_drift_max"],
             f"max relative energy drift {drift:.2e} <= {refs['energy_drift_max']:g}"),
            ("mass", mass_dev <= refs["mass_scaled_max"],
             f"max scaled |mass| {mass_dev:.2e} <= {refs['mass_scaled_max']:g}"),
        ]


class WaveSeprk4(Workload):
    """Standing wave convergence entry, unit square level 5, k = 2, seprk4."""

    def config(self, seed):
        del seed  # deterministic workload; the seed is only recorded
        return f"""\
[problem]
preset = standing_wave
degrees = 2

[mesh]
kind = uniform_square
levels = 5

[time]
final_time = {self.final_time!r}
dt = {self.dt!r}
integrator = seprk4

[output]
basename = {self.basename}
cadence = {self.cadence}
"""

    def expected_rows(self):
        return 1

    def errors(self, rows):
        return float(rows[0]["err_phi"]), float(rows[0]["err_u"])

    def checks(self, rows, refs):
        out = []
        for key, value in zip(("err_phi", "err_u"), self.errors(rows)):
            ref = refs[key]
            ok = abs(value - ref) <= refs["rtol"] * ref
            out.append((key, ok, f"{key} {value:.12e} vs reference {ref:.12e} "
                                 f"(rtol {refs['rtol']:g})"))
        return out


class ComparePrimal(Workload):
    """Standing wave, unit square level 5, k = 1: flux-scheme midpoint next
    to the primal sdirk2 stepper."""

    def config(self, seed):
        del seed  # deterministic workload; the seed is only recorded
        return f"""\
[problem]
preset = standing_wave
degree = 1

[mesh]
kind = uniform_square
level = 5

[time]
final_time = {self.final_time!r}
dt = {self.dt!r}

[output]
basename = {self.basename}
"""

    def expected_rows(self):
        return self.steps + 1

    def checks(self, rows, refs):
        flux = [float(r["energy_conserving"]) for r in rows]
        primal = [float(r["energy_dissipative"]) for r in rows]
        drift = max(abs(e - flux[0]) for e in flux) / abs(flux[0])
        rise = max(b - a for a, b in zip(primal, primal[1:]))
        return [
            ("flux_energy_flat", drift <= refs["flux_energy_drift_max"],
             f"flux-scheme relative energy drift {drift:.2e} "
             f"<= {refs['flux_energy_drift_max']:g}"),
            ("primal_energy_nonincreasing", rise <= 0.0,
             f"largest step-to-step primal energy change {rise:.2e} <= 0"),
        ]


WORKLOADS = {
    w.name: w for w in (
        # target_h 1.0 instead of the shipped 0.5; dt = 0.05 h as in dt_scale
        BumpMidpoint("bump_midpoint", "run", "bump", final_time=10.0,
                     dt=0.05, cadence=10),
        # the converge default dt = 0.1 / (k + 1) * h with h = 1/32
        WaveSeprk4("wave_seprk4", "converge", "wave", final_time=0.3125,
                   dt=0.1 / 3.0 / 32.0, cadence=25),
        # the compare_dissipative default dt = 0.05 h with h = 1/32
        ComparePrimal("compare_primal", "compare_dissipative", "compare",
                      final_time=0.3125, dt=0.05 / 32.0),
    )
}


def read_csv(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def check_output(workload, rows):
    """Run every check on the rows of one CSV: (name, passed, detail)
    triples."""
    expected = workload.expected_rows()
    out = [("row_count", len(rows) == expected,
            f"{len(rows)} rows, expected {expected}")]
    values = [v for r in rows for v in r.values() if v != ""]
    finite = all(math.isfinite(float(v)) for v in values)
    out.append(("finite", finite, f"all {len(values)} values finite"))
    if rows and finite:
        out.extend(workload.checks(rows, REFERENCES[workload.name]))
    return out
