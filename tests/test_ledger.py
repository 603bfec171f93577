"""Schema of the perf ledger: every BENCH_*.json at the repository root.

A BENCH file backs a speed claim with the raw result of every benchmark run on
both sides (parent and change) and the summary taken from them.  The checks
here are structural: names, units and sample counts as BENCHMARK.json defines
them, and each summary figure equal to what its runs give.  They set no
timing bounds.
"""

import json
import pathlib
import statistics

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in BENCHMARK["end_to_end"]}
PER_LAYER = {m["name"]: m for m in BENCHMARK["per_layer"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
LEDGER = sorted(ROOT.glob("BENCH_*.json"))
SIDES = ("parent", "change")


def _check_run(run, workload, trace):
    """One result file of perfbench/run.py: its context line and last stdout line."""
    context, result = run["context"], run["result"]
    assert context["workload"] == workload
    assert context["trace"] == trace
    assert isinstance(context["seed"], int)
    assert context["machine"]["nproc"] >= 1
    for key in ("python", "numpy", "commit"):
        assert isinstance(context[key], str) and context[key]
    assert context["samples"]["repetitions"] >= 1
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"]
    names = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == names[name]["unit"], name
        assert isinstance(metric["value"], (int, float)), name


def _quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _check_summary(summary, runs, workload):
    """The runs of both sides, and the summary taken from them.

    The summary holds the median and quartiles of each side's runs and the
    number of pairs (parent run i, change run i) in which the change is better.
    """
    assert set(runs) == set(SIDES)
    pairs = len(runs["parent"])
    assert pairs >= 2 and len(runs["change"]) == pairs
    for side in SIDES:
        for run in runs[side]:
            _check_run(run, workload, trace=0)
    assert set(summary) == set(END_TO_END)
    for name, entry in summary.items():
        assert entry["unit"] == END_TO_END[name]["unit"], name
        assert entry["better"] == END_TO_END[name]["better"], name
        assert entry["pairs"] == pairs, name
        values = {
            side: [run["result"]["metrics"][name]["value"] for run in runs[side]]
            for side in SIDES
        }
        for side in SIDES:
            assert entry[side] == _quartiles(values[side]), (name, side)
        if entry["better"] == "lower":
            wins = sum(c < p for p, c in zip(values["parent"], values["change"]))
        else:
            wins = sum(c > p for p, c in zip(values["parent"], values["change"]))
        assert entry["change_better_in_pairs"] == wins, name


def test_ledger_is_not_empty():
    assert LEDGER


@pytest.mark.parametrize("path", LEDGER, ids=lambda p: p.name)
def test_bench_file_schema(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["label"] == path.stem[len("BENCH_"):]
    for key in ("claim", "command", "conditions"):
        assert isinstance(doc[key], str) and doc[key], key
    workload = doc["workload"]
    assert workload in WORKLOADS
    _check_summary(doc["summary"], doc["runs"], workload)

    for traced in doc.get("trace", []):
        assert isinstance(traced["command"], str) and traced["command"]
        for side in SIDES:
            _check_run(traced[side], workload, trace=1)

    # optional: the other workloads, run to show that they did not regress
    for name, other in doc.get("other_workloads", {}).items():
        assert name in WORKLOADS and name != workload
        assert isinstance(other["command"], str) and other["command"]
        _check_summary(other["summary"], other["runs"], name)

    # optional: per-operation costs of the workload by side, microseconds per
    # step and child CPU seconds; "how" says how they were taken
    if "op_us_per_step" in doc:
        assert isinstance(doc["op_us_per_step"]["how"], str)
    for key in ("op_us_per_step", "op_child_cpu_s"):
        if key in doc:
            ops = doc[key]
            assert set(ops["parent"]) == set(ops["change"]) and ops["parent"], key
            for side in SIDES:
                for label, value in ops[side].items():
                    assert isinstance(value, (int, float)) and value > 0, (key, side, label)
