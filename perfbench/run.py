#!/usr/bin/env python3
"""geomint benchmark: the real ``geomint run`` / ``geomint compare`` commands,
one child process per operation, one operation at a time.

    python3 perfbench/run.py --workload rot_run --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --seed 1           # every workload in turn
    python3 perfbench/run.py --conformance      # 31-pair CSV SHA-256 pass, seed 0
    python3 perfbench/run.py --selftest         # schema check and smoke pass

Run it from the root of a checkout; geomint is imported from ``src/`` there.
With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics, taken from a traced run that alternates
with an untraced one so that the tracing overhead is measured too.  Every
operation's output is checked (see ``checks.py``).  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it records the machine, the versions, the commit, the seed and
the sample counts, which also go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import threading
import time
import warnings
from dataclasses import dataclass
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
TAG = str(os.getpid())  # names this run's scratch files, so concurrent runs cannot mix them
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")
GOLDEN = os.path.join(HERE, "conformance_seed0.json")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

CHILD_TIMEOUT_S = 150
SETUP_PROBES_PER_REP = 3
# Wall and CPU seconds of reference.py on the machine the end-to-end timings
# are scaled to: its typical figures on the 2-vCPU VM the benchmark was tuned
# on (see end_to_end).
REF_NOMINAL_WALL_S = 0.45
REF_NOMINAL_CPU_S = 0.55
MIN_REPS = 3
MIN_TRACED_REPS = 2
CONFORMANCE_STEPS = 250


@dataclass
class OpResult:
    label: str
    wall_s: float
    cpu_s: float
    rss_mb: float
    rc: int
    steps: int
    csv_bytes: int
    failed: bool
    wrong: bool
    problems: list[str]


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


ENV = _child_env()


def spawn(argv: list[str], tag: str) -> tuple[float, float, float, int, str, str]:
    """Run one child to completion: wall s, CPU s, peak RSS MB, exit code, stdout, stderr."""
    out_path = os.path.join(OUT, f"{tag}-{TAG}.out")
    err_path = os.path.join(OUT, f"{tag}-{TAG}.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    cpu = usage.ru_utime + usage.ru_stime
    return wall, cpu, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr


def cli_argv(op: workloads.Op, csv_path: str) -> list[str]:
    spec = op.spec
    if spec.kind == "run":
        argv = [
            "run", "--scenario", spec.scenario, "--integrator", spec.integrators[0],
            "--steps", str(spec.steps), "--out", csv_path,
        ]
        for key, value in sorted(op.params.items()):
            argv += ["--param", f"{key}={workloads.format_param(value)}"]
        return argv
    return [
        "compare", "--scenario", spec.scenario,
        "--integrators", ",".join(spec.integrators), "--steps", str(spec.steps),
    ]


def op_command(op: workloads.Op, csv_path: str, trace_path: str | None) -> list[str]:
    prefix = [sys.executable, CHILD]
    if trace_path is not None:
        prefix += ["--trace", trace_path]
    if op.spec.kind == "compare" and op.params:
        spec = op.spec
        return prefix + [
            "compare", spec.scenario, ",".join(spec.integrators), str(spec.steps),
            json.dumps(op.params),
        ]
    if trace_path is not None:
        return prefix + ["cli"] + cli_argv(op, csv_path)
    return [sys.executable, "-m", "geomint.cli"] + cli_argv(op, csv_path)


def run_op(op: workloads.Op, trace_path: str | None = None) -> OpResult:
    """Run one operation in a child process and check its output."""
    csv_path = os.path.join(OUT, f"op-{TAG}.csv")
    if os.path.exists(csv_path):
        os.remove(csv_path)
    wall, cpu, rss, rc, stdout, stderr = spawn(op_command(op, csv_path, trace_path), "op")
    spec = op.spec
    steps = csv_bytes = 0
    if rc == 0:
        if spec.kind == "run":
            try:
                with open(csv_path, encoding="utf-8") as fh:
                    text = fh.read()
                csv_bytes = len(text.encode("utf-8"))
                problems = checks.check_run_csv(op, text)
            except (OSError, ValueError) as exc:
                problems = [f"unreadable CSV: {exc}"]
            steps = spec.steps
        else:
            try:
                problems = checks.check_compare_table(op, stdout)
            except ValueError as exc:
                problems = [f"unreadable table: {exc}"]
            steps = spec.steps * len(spec.integrators)
        wrong = bool(problems)
    else:
        last = stderr.strip().splitlines()[-1:] or [""]
        problems = [f"exit code {rc}: {last[0]}"]
        known_step = workloads.KNOWN_FAILURES.get((op.label, rc))
        failed_at = re.search(r"integrator failed at step (\d+):", stderr)
        wrong = not (
            known_step is not None
            and failed_at is not None
            and int(failed_at.group(1)) == known_step
            and not os.path.exists(csv_path)
        )
    if os.path.exists(csv_path):
        os.remove(csv_path)
    return OpResult(op.label, wall, cpu, rss, rc, steps, csv_bytes, bool(problems), wrong, problems)


def setup_probe(op: workloads.Op) -> float:
    """Wall time of a fresh process doing the import, argparse and config validation."""
    csv_path = os.path.join(OUT, f"probe-{TAG}.csv")
    wall, _, _, rc, _, stderr = spawn([sys.executable, CHILD, "setup"] + cli_argv(op, csv_path), "probe")
    if rc != 0 or os.path.exists(csv_path):
        raise RuntimeError(f"setup probe failed with exit code {rc}: {stderr.strip()}")
    return wall


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of one run of the fixed reference child."""
    wall, cpu, _, rc, _, stderr = spawn([sys.executable, REFERENCE], "ref")
    if rc != 0:
        raise RuntimeError(f"reference run failed with exit code {rc}: {stderr.strip()}")
    return wall, cpu


def _median(values) -> float:
    return float(statistics.median(values))


def _trimmed_mean(values) -> float:
    """Mean without the lowest and the highest value, once there are five."""
    values = sorted(values)
    if len(values) >= 5:
        values = values[1:-1]
    return float(statistics.fmean(values))


@dataclass
class Measurement:
    setup_s: list[float]
    ref: list[tuple[float, float]]  # wall and CPU s of the reference runs
    reps: list[list[OpResult]]
    traced: list[list[OpResult]]
    layer_reps: list[dict]
    kernel_ns: dict

    def all_ops(self) -> list[OpResult]:
        return [r for rep in self.reps + self.traced for r in rep]


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    probes: int = SETUP_PROBES_PER_REP,
    min_reps: int | None = None,
) -> Measurement:
    """Repeat the workload for about ``seconds`` (at least ``min_reps`` times).

    Set-up probes run before every repetition, so that they sample the same
    stretch of time as the operations.  Untraced, a reference run comes at
    the start and at the end of every repetition.
    """
    if min_reps is None:
        min_reps = MIN_TRACED_REPS if trace else MIN_REPS
    m = Measurement([], [], [], [], [], {})
    setup_probe(workloads.make_ops(workload, seed, 0, scale)[0])  # untimed: fills the bytecode cache
    start = time.perf_counter()
    durations = []
    rep = 0
    while True:
        t_rep = time.perf_counter()
        ops = workloads.make_ops(workload, seed, rep, scale)
        if not trace:
            m.ref.append(reference())
            m.setup_s += [setup_probe(ops[0]) for _ in range(probes)]
        modes = (False,) if not trace else ((False, True) if rep % 2 == 0 else (True, False))
        for traced in modes:
            results, paths = [], []
            for i, op in enumerate(ops):
                path = os.path.join(OUT, f"trace-{workload}-{i}.json") if traced else None
                results.append(run_op(op, path))
                paths.append(path)
            if traced:
                m.traced.append(results)
                m.layer_reps.append(
                    layers.repetition_metrics([(p, r.csv_bytes) for p, r in zip(paths, results)])
                )
            else:
                m.reps.append(results)
        if not trace:
            m.ref.append(reference())
        durations.append(time.perf_counter() - t_rep)
        rep += 1
        if rep >= min_reps and time.perf_counter() - start + _median(durations) > seconds:
            break
    if trace:
        _, _, _, rc, stdout, stderr = spawn([sys.executable, CHILD, "kernels", str(seed)], "kernels")
        if rc != 0:
            raise RuntimeError(f"kernel timing failed: {stderr.strip()}")
        m.kernel_ns = json.loads(stdout)
    return m


def _per_op_median(reps: list[list[OpResult]], attr: str) -> float:
    return sum(_median(getattr(rep[i], attr) for rep in reps) for i in range(len(reps[0])))


def _per_op_mean(reps: list[list[OpResult]], attr: str) -> float:
    return sum(_trimmed_mean(getattr(rep[i], attr) for rep in reps) for i in range(len(reps[0])))


def end_to_end(m: Measurement, scaled: bool = True) -> dict[str, float]:
    """End-to-end metrics; timings are scaled to the nominal machine speed.

    The host's speed drifts by tens of percent over minutes, so every wall
    time (operations and set-up probes) is multiplied by the nominal over the
    mean wall time of the run's reference runs, and every CPU time by the
    nominal over their mean CPU time.  The reference never imports geomint,
    so a change to the program moves the scaled figures as much as the raw
    ones.  ``scaled=False`` gives the raw figures, kept in the context record.

    Within a run the host's speed also swings by up to half, in episodes of a
    second or two, so that a sample is either fast or slow.  Operation times
    are therefore averaged over the repetitions (a trimmed mean, see
    ``_trimmed_mean``) rather than taken as a median, which would jump
    between the two; the reference times likewise.
    """
    fw = REF_NOMINAL_WALL_S / _trimmed_mean(r[0] for r in m.ref) if scaled else 1.0
    fc = REF_NOMINAL_CPU_S / _trimmed_mean(r[1] for r in m.ref) if scaled else 1.0
    wall = fw * _per_op_mean(m.reps, "wall_s")
    cpu = fc * _per_op_mean(m.reps, "cpu_s")
    steps = _per_op_median(m.reps, "steps")
    ops = [r for rep in m.reps for r in rep]
    return {
        "wall_s": wall,
        "steps_per_s": steps / wall,
        "cpu_us_per_step": cpu / max(steps, 1) * 1e6,
        "peak_rss_mb": _median(max(r.rss_mb for r in rep) for rep in m.reps),
        "setup_s": fw * _median(m.setup_s),
        "ok_frac": sum(not r.failed for r in ops) / len(ops),
    }


def per_layer(m: Measurement) -> dict[str, float]:
    out = {key: _median(rep[key] for rep in m.layer_reps) for key in m.layer_reps[0]}
    out.update(layers.kernel_metrics(m.kernel_ns))
    untraced = _per_op_median(m.reps, "wall_s")
    out["trace.overhead_pct"] = 100.0 * (_per_op_median(m.traced, "wall_s") - untraced) / untraced
    return out


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def context(workload: str, seed: int, seconds: float, trace: bool, m: Measurement) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": {
            "platform": platform.platform(),
            "arch": platform.machine(),
            "cpu": _cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
        },
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "commit": _git_commit(),
        "samples": {
            "repetitions": len(m.reps),
            "traced_repetitions": len(m.traced),
            "setup_probes": len(m.setup_s),
            "reference_runs": len(m.ref),
            "operations_per_repetition": len(m.reps[0]),
        },
        "reference": {
            "nominal_wall_s": REF_NOMINAL_WALL_S,
            "nominal_cpu_s": REF_NOMINAL_CPU_S,
            "wall_s": [r[0] for r in m.ref],
            "cpu_s": [r[1] for r in m.ref],
        },
        "setup_s": m.setup_s,
        "raw_end_to_end": end_to_end(m, scaled=False) if not trace else None,
        "operations": [
            {
                "label": r.label,
                "wall_s": [rep[i].wall_s for rep in m.reps],
                "cpu_s": [rep[i].cpu_s for rep in m.reps],
                "rss_mb": [rep[i].rss_mb for rep in m.reps],
                "steps": r.steps,
                "problems": sorted({p for rep in m.reps + m.traced for p in rep[i].problems}),
            }
            for i, r in enumerate(m.reps[0])
        ],
    }


def benchmark(workload: str, seed: int, seconds: float, trace: bool, **smoke) -> tuple[dict, dict]:
    """Measure one workload; returns the result object and its context record.

    ``smoke`` passes the self-test's reduced scale on to ``measure``.
    """
    spec = load_spec()
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    m = measure(workload, seed, seconds, trace, **smoke)
    values = per_layer(m) if trace else end_to_end(m)
    missing = [x["name"] for x in wanted if x["name"] not in values]
    extra = sorted(set(values) - {x["name"] for x in wanted})
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    ops = m.all_ops()
    for r in ops:
        if r.problems:
            kind = "WRONG" if r.wrong else "failed"
            print(f"{kind}: {r.label}: {'; '.join(r.problems)}", file=sys.stderr)
    result = {
        "correct": not any(r.wrong for r in ops),
        "attempted": len(ops),
        "failed": sum(r.failed for r in ops),
        "metrics": {x["name"]: {"value": values[x["name"]], "unit": x["unit"]} for x in wanted},
    }
    ctx = context(workload, seed, seconds, trace, m)
    with open(os.path.join(OUT, f"result-{workload}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump({"context": ctx, "result": result}, fh, indent=1)
    return result, ctx


def conformance() -> dict:
    """Every admissible pair at seed 0 and a fixed step count, in-process and untimed."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from geomint import bench
    from geomint.errors import IntegratorFailure

    golden = {}
    if os.path.exists(GOLDEN):
        with open(GOLDEN, encoding="utf-8") as fh:
            golden = json.load(fh)
    csv_path = os.path.join(OUT, f"conformance-{TAG}.csv")
    pairs = {}
    for scenario in bench.SCENARIOS:
        for integrator in bench.COMPAT[scenario]:
            key = f"{scenario}.{integrator}"
            op = workloads.Op(workloads.OpSpec("run", scenario, (integrator,), CONFORMANCE_STEPS), {})
            config = bench.default_config(scenario, integrator, steps=CONFORMANCE_STEPS)
            try:
                with warnings.catch_warnings():
                    # overflow on the way to a non-finite row; the check below reports it
                    warnings.simplefilter("ignore", RuntimeWarning)
                    records = bench.run_scenario(config)
            except IntegratorFailure as exc:
                pairs[key] = {"sha256": None, "problems": [str(exc)]}
                continue
            bench.write_csv(records, csv_path)
            with open(csv_path, "rb") as fh:
                data = fh.read()
            os.remove(csv_path)
            pairs[key] = {
                "sha256": hashlib.sha256(data).hexdigest(),
                "problems": checks.check_run_csv(op, data.decode("utf-8")),
            }
    return {
        "steps": CONFORMANCE_STEPS,
        "pairs": pairs,
        "failing": sorted(k for k, v in pairs.items() if v["problems"]),
        "changed": sorted(k for k, v in pairs.items() if golden.get(k, v["sha256"]) != v["sha256"]),
        "missing_from_reference": sorted(k for k in pairs if k not in golden),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=list(workloads.WORKLOADS), help="default: every workload in turn"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--conformance", action="store_true", help="31-pair SHA-256 pass at seed 0")
    parser.add_argument("--selftest", action="store_true", help="schema check and smoke pass")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "geomint", "cli.py")):
        print(f"error: no geomint sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    try:
        return _dispatch(args)
    finally:
        # the traces of the last traced repetition stay; the children's output goes
        for name in os.listdir(OUT):
            if name.endswith((f"-{TAG}.out", f"-{TAG}.err", f"-{TAG}.csv")):
                os.remove(os.path.join(OUT, name))


def _dispatch(args) -> int:
    if args.selftest:
        import selftest

        return selftest.main()
    if args.conformance:
        report = conformance()
        print(json.dumps(report, indent=1))
        return 1 if report["changed"] or report["missing_from_reference"] else 0
    if args.workload is not None:
        result, ctx = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"context": ctx}))
        print(json.dumps(result))
        return 0
    ok = True
    for workload in workloads.WORKLOADS:
        result, ctx = benchmark(workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps({"context": ctx}))
        print(json.dumps({"workload": workload, **result}))
        ok = ok and result["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
