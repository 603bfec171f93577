"""Self-test of the benchmark: BENCHMARK.json schema, layer map, smoke pass.

    python3 perfbench/run.py --selftest

The schema check applies the limits the benchmark file must meet.  The
smoke pass runs every workload once at a twentieth of its step counts,
untraced and traced, through the same code as a real run, and checks that
each prints every metric of BENCHMARK.json; it then runs the conformance
pass and checks the two known stock-setting defects show up in it.
"""

from __future__ import annotations

import fnmatch
import json
import math
import os
import re

import run
import workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
RUN_BUDGET_S = 3420
PER_RUN_OVERHEAD_S = 6  # interpreter start, the untimed warm-up probe and the last repetition's overrun


def check_schema(spec: dict, size: int) -> list[str]:
    errors = []

    def need(cond: bool, msg: str) -> None:
        if not cond:
            errors.append(msg)

    need(size <= 64 * 1024, "BENCHMARK.json exceeds 64 KiB")
    need(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        f"top-level keys {sorted(spec)}",
    )
    paths = spec.get("paths", [])
    need(1 <= len(paths) <= 16, "paths must list 1 to 16 directories")
    for p in paths:
        need(bool(PATH.match(p)) and not p.startswith("/") and ".." not in p.split("/"), f"bad path {p!r}")
        full = os.path.join(run.ROOT, p)
        need(os.path.isdir(full), f"path {p!r} is not a directory")
        for dirpath, _, files in os.walk(full):
            for f in files:
                need(not os.path.islink(os.path.join(dirpath, f)), f"{f} is a link")
    command = spec.get("command", [])
    need(1 <= len(command) <= 32, "command must have 1 to 32 strings")
    for arg in command:
        need(isinstance(arg, str) and len(arg) <= 200, f"bad command string {arg!r}")
        need(not arg.startswith("/") and ".." not in arg.split("/"), f"command leaves the repo: {arg!r}")
        if "/" in arg and os.path.exists(os.path.join(run.ROOT, arg)):
            need(any(arg == p or arg.startswith(p.rstrip("/") + "/") for p in paths), f"{arg!r} outside paths")
    seconds = spec.get("run_seconds")
    need(isinstance(seconds, int) and 1 <= seconds <= 60, "run_seconds must be a whole number in 1..60")
    wl = spec.get("workloads", [])
    need(2 <= len(wl) <= 8, "2 to 8 workloads")
    for w in wl:
        need(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        need(len(w.get("why", "")) <= 200 and "\n" not in w.get("why", ""), f"why of {w.get('name')}")
    need([w.get("name") for w in wl] == list(workloads.WORKLOADS), "workloads differ from workloads.py")
    if isinstance(seconds, int):
        runs = 4 + 22 * len(wl)
        need(runs * (seconds + PER_RUN_OVERHEAD_S) <= RUN_BUDGET_S, f"{runs} runs exceed the time budget")
    e2e, pl = spec.get("end_to_end", []), spec.get("per_layer", [])
    need(1 <= len(e2e) <= 16, "1 to 16 end-to-end metrics")
    need(1 <= len(pl) <= 128, "1 to 128 per-layer metrics")
    for m in e2e:
        need(set(m) == {"name", "unit", "better", "bound"}, f"end-to-end keys {sorted(m)}")
        need(isinstance(m.get("bound"), (int, float)) and 0 < m["bound"] <= 0.25, f"bound of {m.get('name')}")
    for m in pl:
        need(set(m) == {"name", "unit", "better"}, f"per-layer keys {sorted(m)}")
    names = [w.get("name", "") for w in wl] + [m.get("name", "") for m in e2e + pl]
    need(len(names) == len(set(names)), "names must be unique")
    for n in names:
        need(bool(NAME.match(n)), f"bad name {n!r}")
    for m in e2e + pl:
        need(bool(UNIT.match(m.get("unit", ""))), f"bad unit of {m.get('name')}")
        need(m.get("better") in ("higher", "lower"), f"better of {m.get('name')}")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    need(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
        "setup_s must be an end-to-end metric in s, lower is better",
    )
    if setup and all("bound" in m for m in e2e):
        need(setup[0]["bound"] == max(m["bound"] for m in e2e), "setup_s must have the largest bound")
    return errors


def check_layer_map(spec: dict, layer_map: dict) -> list[str]:
    errors = []
    e2e = {m["name"] for m in spec["end_to_end"]}
    wl = {w["name"] for w in spec["workloads"]}
    if set(layer_map["end_to_end"]) != e2e:
        errors.append("metrics.json end_to_end differs from BENCHMARK.json")
    if set(layer_map["workloads"]) != wl:
        errors.append("metrics.json workloads differ from BENCHMARK.json")
    entries = layer_map["per_layer"]
    for m in spec["per_layer"]:
        hits = [e for e in entries if fnmatch.fnmatchcase(m["name"], e["match"])]
        if len(hits) != 1:
            errors.append(f"{m['name']} matches {len(hits)} entries of metrics.json")
    for e in entries:
        if not any(fnmatch.fnmatchcase(m["name"], e["match"]) for m in spec["per_layer"]):
            errors.append(f"metrics.json entry {e['match']} matches no metric")
        if not set(e["moves"]) <= e2e or not set(e["on"]) <= wl:
            errors.append(f"metrics.json entry {e['match']} names unknown metrics or workloads")
    return errors


def check_result(result: dict, wanted: list[dict], label: str) -> list[str]:
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"{label}: result keys {sorted(result)}"]
    if result["correct"] is not True:
        errors.append(f"{label}: not correct")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        errors.append(f"{label}: attempted {result['attempted']}")
    if [m["name"] for m in wanted] != list(result["metrics"]):
        errors.append(f"{label}: metric names differ from BENCHMARK.json")
    for name, v in result["metrics"].items():
        if set(v) != {"value", "unit"} or not math.isfinite(v["value"]):
            errors.append(f"{label}: bad value for {name}: {v}")
    return errors


def smoke(spec: dict) -> list[str]:
    errors = []
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            label = f"{workload} trace={int(trace)}"
            result, _ = run.benchmark(workload, 1, 0, trace, scale=0.05, probes=1, min_reps=1)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            errors += check_result(result, wanted, label)
            if not trace and any(v["value"] <= 0 for v in result["metrics"].values()):
                errors.append(f"{label}: an end-to-end metric reads 0")
    result, _ = run.benchmark("flat_run", 0, 0, False, scale=0.2, probes=1, min_reps=1)
    if result["failed"] != 1:
        errors.append(f"flat_run at seed 0: {result['failed']} failed operations, expected 1")
    report = run.conformance()
    if len(report["pairs"]) != 31:
        errors.append(f"conformance covers {len(report['pairs'])} pairs, expected 31")
    for pair in ("kepler.implicit_euler", "pendulum_embedded.explicit_euler"):
        if pair not in report["failing"]:
            errors.append(f"conformance does not report {pair} as failing")
    if report["changed"] or report["missing_from_reference"]:
        errors.append(f"conformance bytes differ from the reference: {report['changed']}")
    return errors


def main() -> int:
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(run.HERE, "metrics.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    errors = check_schema(spec, os.path.getsize(path))
    errors += check_layer_map(spec, layer_map)
    if not errors:
        errors += smoke(spec)
    for e in errors:
        print(f"selftest: {e}")
    print("selftest: ok" if not errors else f"selftest: {len(errors)} problem(s)")
    return 0 if not errors else 1
