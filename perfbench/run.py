"""Benchmark of swehdg's CLI pipelines, end to end and by layer.

Run from the repository root:

    python3 perfbench/run.py --workload bump_midpoint --seed 1 --seconds 40 --trace 0

Each repetition is a fresh single-threaded process (``child.py``) that calls
``swehdg.cli.main`` once on a config generated from the workload and seed;
repetitions run one at a time while the next one fits in ``--seconds`` (at
least three untraced, or one untraced and one traced).  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json (medians over repetitions);
``--trace 1`` interleaves untraced and traced repetitions and reports the
per-layer metrics.  Every repetition's CSV is checked (see workloads.py).
The report lists every metric with its unit and every check; the last line
is one JSON object with keys correct, attempted, failed and metrics.
Scratch files go to ``.perfbench_work/`` in the repository root.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, check_output, read_csv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0        # a run must end well within 180 s
MIN_CHILD_S = 5.0         # no repetition is started with less time left
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}
_STDERR_TAIL = 800
# printed but not in the JSON result: they exist only on wave_seprk4, where
# the standing wave has a closed form
REPORT_ONLY_UNITS = {"err_phi": "L2", "err_u": "L2"}


def child_env():
    env = dict(os.environ)
    env.update(CHILD_THREADS)
    env["SWEHDG_LOG"] = "WARNING"
    return env


def run_child(workload, cfg_path, rep_dir, traced, timeout):
    """One repetition; returns the child's result dict with ``checks``,
    output sizes, and ``failure`` (None when the repetition passed)."""
    rep_dir.mkdir(parents=True)
    result_path = rep_dir / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path),
           "--trace", "1" if traced else "0", "--",
           workload.subcommand, "--config", str(cfg_path), "--out", str(rep_dir),
           "--threads", "1"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "checks": [], "failure": f"timed out after {timeout:.0f} s"}
    if proc.returncode != 0 or not result_path.exists():
        return {"traced": traced, "checks": [],
                "failure": f"child exited {proc.returncode}: {proc.stderr[-_STDERR_TAIL:]}"}

    res = json.loads(result_path.read_text())
    res["traced"] = traced
    failure = None
    if Path(res["package"]) != (ROOT / "src" / "swehdg").resolve():
        failure = f"imported swehdg from {res['package']}, not from src/"
    elif res["rc"] != 0:
        failure = res.get("error") or (f"swehdg.cli.main returned {res['rc']}: "
                                       f"{proc.stderr[-_STDERR_TAIL:]}")
    elif not traced and res["setup_s"] is None:
        failure = "no time step was taken"

    csv_path = rep_dir / f"{workload.basename}.csv"
    if csv_path.exists():
        rows = read_csv(csv_path)
        res["checks"] = check_output(workload, rows)
        if hasattr(workload, "errors") and all(ok for _, ok, _ in res["checks"]):
            res["err_phi"], res["err_u"] = workload.errors(rows)
    else:
        res["checks"] = [("csv", False, f"{csv_path.name} was not written")]
    res["csv_bytes"] = csv_path.stat().st_size if csv_path.exists() else 0
    res["vtk_bytes"] = sum(p.stat().st_size for p in rep_dir.glob("*.vtk"))
    failed_checks = [name for name, ok, _ in res["checks"] if not ok]
    if failure is None and failed_checks:
        failure = "failed checks: " + ", ".join(failed_checks)
    res["failure"] = failure
    if failure is None and not traced:
        res["ms_per_step"] = 1e3 * (res["wall_s"] - res["setup_s"]) / workload.steps
    return res


def repeat(workload, cfg_path, work_dir, seconds, trace, started):
    """Run repetitions one at a time for ``seconds`` (see module doc)."""
    reps = []
    longest = 0.0
    min_reps = 2 if trace else 3
    t0 = time.perf_counter()
    while True:
        now = time.perf_counter()
        remaining = DEADLINE_S - (now - started)
        if len(reps) >= min_reps and now - t0 + longest > seconds:
            break
        if remaining < MIN_CHILD_S:
            break
        # traced repetitions in the order U T T U U T ..., so a slow drift of
        # the machine's speed does not bias the traced/untraced ratio
        traced = bool(trace) and len(reps) % 4 in (1, 2)
        res = run_child(workload, cfg_path, work_dir / f"rep{len(reps):02d}", traced,
                        timeout=remaining)
        longest = max(longest, time.perf_counter() - now)
        reps.append(res)
    return reps


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def environment(reps):
    commit = "absent (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=5)
            commit = proc.stdout.strip() if proc.returncode == 0 else commit
        except (OSError, subprocess.TimeoutExpired):
            commit = "absent (git not available)"
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "commit": commit, "child_threads": CHILD_THREADS}
    env.update(next((r["env"] for r in reps if "env" in r), {}))
    return env


def end_to_end(good):
    names = ("wall_s", "setup_s", "ms_per_step", "peak_rss_mb", *REPORT_ONLY_UNITS)
    return {name: [r[name] for r in good] for name in names if name in good[0]}


def per_layer(good_traced, good_untraced):
    names = good_traced[0]["layers"].keys()
    values = {n: statistics.median(r["layers"][n] for r in good_traced) for n in names}
    values["cli.csv_bytes"] = statistics.median(r["csv_bytes"] for r in good_traced)
    values["cli.vtk_bytes"] = statistics.median(r["vtk_bytes"] for r in good_traced)
    untraced = statistics.median(r["wall_s"] for r in good_untraced)
    values["trace.untraced_wall_s"] = untraced
    values["trace.overhead_frac"] = values["trace.wall_s"] / untraced - 1.0
    return values


def print_layer_metric(name, unit, value, note, prefix=""):
    shown = value if isinstance(value, int) else f"{value:.6g}"
    where = f"  ({prefix}moves {note['moves']}; {note['where']})" if note else ""
    print(f"{name} [{unit}]: {shown}{where}")


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "swehdg" / "cli.py").is_file():
        print(f"perfbench: no swehdg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((HERE / "layers.json").read_text())
    workload = WORKLOADS[args.workload]

    work_dir = WORK / workload.name
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    cfg_path = work_dir / "config.ini"
    cfg_path.write_text(workload.config(args.seed))

    reps = repeat(workload, cfg_path, work_dir, args.seconds, args.trace, started)
    env = environment(reps)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}, "
          f"{len(reps)} repetitions, {workload.steps} steps each")
    if hasattr(workload, "centre"):
        print("hole centre (%.6f, %.6f)" % workload.centre(args.seed))
    for key, value in env.items():
        print(f"env {key}: {value}")
    for i, res in enumerate(reps):
        kind = "traced" if res["traced"] else "untraced"
        timing = (f"wall {res['wall_s']:.3f} s, peak {res['peak_rss_mb']:.0f} MB"
                  if "wall_s" in res else "no timing")
        print(f"repetition {i} ({kind}): {timing}")
        for name, ok, detail in res["checks"]:
            print(f"  check {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        if res["failure"]:
            print(f"  FAILED: {res['failure']}")

    good = [r for r in reps if r["failure"] is None]
    good_untraced = [r for r in good if not r["traced"]]
    good_traced = [r for r in good if r["traced"]]
    failed = len(reps) - len(good)
    print(f"metric failed_frac [1]: {failed / max(len(reps), 1):.3f} "
          f"({failed} of {len(reps)} repetitions)")

    metrics = {}
    if args.trace == 0:
        wanted = spec["end_to_end"]
        units = {e["name"]: e["unit"] for e in wanted} | REPORT_ONLY_UNITS
        values = {}
        if good_untraced:
            for name, samples in end_to_end(good_untraced).items():
                q1, med, q3 = quartiles(samples)
                values[name] = med
                print(f"metric {name} [{units[name]}]: median {med:.6g}, q1 {q1:.6g}, "
                      f"q3 {q3:.6g}, n {len(samples)}")
    else:
        wanted = spec["per_layer"]
        values = per_layer(good_traced, good_untraced) if good_traced and good_untraced else {}
        for name in sorted({a for r in good_traced for a in r.get("absent", [])}):
            print(f"fill absent: {name} holds no SuperLU factorization; counted as 0")
        for res in good_traced:
            for hook in res.get("missing_hooks", []):
                print(f"trace hook missing: {hook}")
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        # with no passing repetition there is nothing to report
        value = values[name] if values else 0.0
        if isinstance(value, float) and value.is_integer() and unit == "count":
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
        print_layer_metric(name, unit, value, layer_map["metrics"].get(name))
    if args.trace == 1 and values:
        for name, note in layer_map["report_only"].items():
            print_layer_metric(name, note["unit"], values[name], note,
                               "" if values[name] else "not called on this workload; ")

    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "repetitions": reps, "metrics": metrics}
    (WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(json.dumps({"correct": failed == 0 and bool(good), "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
