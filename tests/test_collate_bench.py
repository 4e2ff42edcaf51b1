"""The benchmark collation script on hand-made result records."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "collate_bench.py"


def _tool():
    spec = importlib.util.spec_from_file_location("_collate_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _records(checkout, workload, values, passed=True):
    results = checkout / ".perfbench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    for seed, value in enumerate(values, start=1):
        record = {"workload": workload, "seed": seed, "env": {"commit": checkout.name},
                  "repetitions": [{"failure": None if passed else "failed checks"}],
                  "metrics": {"wall_s": {"value": value, "unit": "s"},
                              "ms_per_step": {"value": 2.0 * value, "unit": "ms"}}}
        (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(record))


def test_collate_writes_both_sides_per_workload_and_metric(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _records(parent, "bump", [1.0, 2.0, 3.0, 4.0])
    _records(change, "bump", [0.5, 1.0, 3.5, 2.0])
    _records(parent, "wave", [1.0])
    _records(change, "wave", [1.0], passed=False)
    _records(change, "only_change", [1.0])
    out = tmp_path / "BENCH_1.json"
    assert _tool().main(["--parent", str(parent), "--change", str(change),
                         "--out", str(out)]) == 0
    bench = json.loads(out.read_text())
    assert bench["env"] == {"parent": {"commit": "parent"}, "change": {"commit": "change"}}
    assert sorted(bench["workloads"]) == ["bump", "wave"]
    assert bench["workloads"]["wave"] == {}
    wall = bench["workloads"]["bump"]["wall_s"]
    assert wall["parent"] == {"median": 2.5, "q1": 1.25, "q3": 3.75, "n": 4}
    assert wall["change"]["median"] == 1.5 and wall["change"]["n"] == 4
    assert wall["change_better_at_seeds"] == "3 of 4"
    assert wall["unit"] == "s" and wall["better"] == "lower"
    assert set(bench["workloads"]["bump"]) == {"wall_s", "ms_per_step"}
    # a workload dropped from the comparison is named, with its side and why
    assert bench["missing"] == [
        {"workload": "only_change", "side": "parent", "reason": "no record"},
        {"workload": "wave", "side": "change", "reason": "no passing repetition"}]


def test_collate_refuses_a_side_of_two_commits(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _records(parent, "bump", [1.0, 2.0])
    _records(change, "bump", [1.0, 2.0])
    # a record left by a run of other code
    stale = change / ".perfbench_work" / "results" / "bump-seed2-trace0.json"
    record = json.loads(stale.read_text())
    record["env"]["commit"] = "older"
    stale.write_text(json.dumps(record))
    out = tmp_path / "b.json"
    with pytest.raises(SystemExit) as info:
        _tool().main(["--parent", str(parent), "--change", str(change), "--out", str(out)])
    assert str(info.value) == (f"collate_bench: {change} holds records of 2 commits: "
                               "change (bump-seed1-trace0.json); "
                               "older (bump-seed2-trace0.json)")
    assert not out.exists()


def test_collate_refuses_when_no_workload_has_both_sides(tmp_path, capsys):
    _records(tmp_path / "parent", "bump", [1.0])
    assert _tool().main(["--parent", str(tmp_path / "parent"),
                         "--change", str(tmp_path / "empty"),
                         "--out", str(tmp_path / "b.json")]) == 1
    assert "no workload" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_collate_needs_an_out_file(tmp_path, capsys):
    # without --out nothing is written, a committed BENCH file included
    _records(tmp_path / "parent", "bump", [1.0])
    _records(tmp_path / "change", "bump", [1.0])
    tool = _tool()
    before = {path: path.read_bytes() for path in tool.ROOT.glob("BENCH_*.json")}
    with pytest.raises(SystemExit) as info:
        tool.main(["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")])
    assert info.value.code == 2
    assert "--out" in capsys.readouterr().err
    assert {path: path.read_bytes() for path in tool.ROOT.glob("BENCH_*.json")} == before
