"""Collate benchmark results of a parent and a change checkout into one file.

Each checkout holds the records that ``perfbench/run.py --trace 0`` left in
its ``.perfbench_work/results/``, one per workload and seed.  A record's
value of an end-to-end metric is the median over its repetitions; this
script takes those values as the samples of one side and writes, for every
workload and every end-to-end metric of ``BENCHMARK.json``, the median,
quartiles and sample count of each side, plus the number of seeds at which
the change did better than the parent.  The environment records of both
sides (interpreter, library and BLAS versions, CPU count, commit) are kept
alongside, and ``missing`` names each workload and side that gave no
samples, and why.

Run from the repository root:

    python3 tools/collate_bench.py --parent ../parent --change . --out BENCH_1.json
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def read_side(checkout):
    """{workload: {seed: record}} of the untraced records of a checkout.

    Records that name more than one commit (``env.commit``) are refused
    (SystemExit naming each commit and its files): they are left from
    runs of other code, and would be mixed into one side."""
    records, files = {}, {}
    for path in sorted(Path(checkout, ".perfbench_work", "results").glob("*-trace0.json")):
        record = json.loads(path.read_text())
        records.setdefault(record["workload"], {})[record["seed"]] = record
        files.setdefault(str(record["env"].get("commit")), []).append(path.name)
    if len(files) > 1:
        raise SystemExit(f"collate_bench: {checkout} holds records of {len(files)} commits: "
                         + "; ".join(f"{commit} ({', '.join(names)})"
                                     for commit, names in sorted(files.items())))
    return records


def summary(samples):
    if len(samples) < 2:
        q1 = q3 = samples[0]
    else:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples)}


def _passed(record):
    return any(rep["failure"] is None for rep in record["repetitions"])


def collate(parent, change, metrics):
    """The BENCH record of two sides read by :func:`read_side`; ``metrics``
    are the end-to-end entries of BENCHMARK.json.  A workload recorded on
    one side only, or none of whose records on a side has a passing
    repetition, is named in ``missing`` with its side and the reason."""
    out = {"env": {}, "workloads": {}, "missing": []}
    for side, records in (("parent", parent), ("change", change)):
        first = next((r for runs in records.values() for r in runs.values()), None)
        out["env"][side] = first["env"] if first else None
    for workload in sorted(set(parent) | set(change)):
        for side, records in (("parent", parent), ("change", change)):
            if workload not in records:
                reason = "no record"
            elif not any(map(_passed, records[workload].values())):
                reason = "no passing repetition"
            else:
                continue
            out["missing"].append({"workload": workload, "side": side, "reason": reason})
    for workload in sorted(set(parent) & set(change)):
        entry = {}
        for metric in metrics:
            name = metric["name"]
            values = {}
            for side, records in (("parent", parent), ("change", change)):
                # a record none of whose repetitions passed reports no value
                values[side] = {seed: r["metrics"][name]["value"]
                                for seed, r in records[workload].items()
                                if name in r["metrics"] and _passed(r)}
            if not values["parent"] or not values["change"]:
                continue
            seeds = sorted(set(values["parent"]) & set(values["change"]))
            sign = 1.0 if metric["better"] == "lower" else -1.0
            better = sum(sign * (values["change"][s] - values["parent"][s]) < 0.0
                         for s in seeds)
            entry[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "parent": summary(list(values["parent"].values())),
                "change": summary(list(values["change"].values())),
                "change_better_at_seeds": f"{better} of {len(seeds)}",
            }
        out["workloads"][workload] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--out", required=True,
                        help="file to write; the committed BENCH_<n>.json are never a default")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    record = collate(read_side(args.parent), read_side(args.change), metrics)
    if not record["workloads"]:
        print("collate_bench: no workload has records on both sides", file=sys.stderr)
        return 1
    Path(args.out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
