"""Launcher for the benchmark's child processes.

    child.py [--trace PATH] cli ARGV...
        run ``geomint.cli.main(ARGV)``, optionally traced into PATH
    child.py [--trace PATH] compare SCENARIO INTEGRATORS STEPS PARAMS_JSON
        print ``bench.compare`` over configs built with seeded parameters
        (``geomint compare`` has no ``--param`` flag)
    child.py setup ARGV...
        run ``geomint.cli.main(ARGV)`` up to the point where the config is
        validated, then exit at once
    child.py kernels SEED
        print ns per call of the so3 kernels on seeded inputs, as JSON

geomint is imported from ``src/`` of the checkout this file lives in.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _import_geomint():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import geomint

    if not os.path.abspath(geomint.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"geomint imported from {geomint.__file__}, not from this checkout")


def _compare(scenario: str, integrators: str, steps: str, params_json: str) -> int:
    import json

    from geomint import bench

    params = {k: tuple(v) if isinstance(v, list) else v for k, v in json.loads(params_json).items()}
    configs = [
        bench.default_config(scenario, name, steps=int(steps), params=params)
        for name in integrators.split(",")
    ]
    print(bench.compare(configs))
    return 0


def _setup(argv: list[str]) -> int:
    from geomint import bench, cli

    def stop(*args, **kwargs):
        # the config is validated once the command asks for its first run
        sys.stdout.flush()
        os._exit(0)

    bench.run_scenario = stop
    bench.compare = stop
    return cli.main(argv)


def _kernels(seed: int) -> int:
    import json
    import random
    import time

    from geomint import so3

    rng = random.Random(f"perfbench:kernels:{seed}")

    def vec(scale: float):
        return tuple(rng.uniform(-scale, scale) for _ in range(3))

    n = 64
    small = [vec(0.05) for _ in range(n)]  # dt * Omega-sized arguments
    unit = [vec(1.0) for _ in range(n)]
    rots = [so3._exp_matrix(vec(1.0)) for _ in range(n)]
    systems = [
        tuple(tuple((3.0 if i == j else 0.0) + rng.uniform(-1.0, 1.0) for j in range(3)) for i in range(3))
        for _ in range(n)
    ]
    cases = {
        "exp_so3": (so3.exp_so3, [(v,) for v in small]),
        "cay_so3": (so3.cay_so3, [(v,) for v in small]),
        "dexp_dual_matrix": (so3.dexp_dual_matrix, [(v,) for v in small]),
        "dcay_dual_matrix": (so3.dcay_dual_matrix, [(v,) for v in small]),
        "solve3": (so3.solve3, list(zip(systems, unit))),
        "mat_mul": (so3.mat_mul, list(zip(rots, rots[1:] + rots[:1]))),
        "cross": (so3.cross, list(zip(unit, small))),
    }
    clock = time.perf_counter_ns
    out = {}
    for name, (fn, inputs) in cases.items():
        samples = []
        for _ in range(7):
            t0 = clock()
            for _ in range(40):
                for args in inputs:
                    fn(*args)
            samples.append((clock() - t0) / (40 * len(inputs)))
        samples.sort()
        out[name] = samples[len(samples) // 2]
    print(json.dumps(out))
    return 0


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    _import_geomint()
    mode, rest = argv[0], argv[1:]
    if mode == "setup":
        return _setup(rest)
    if mode == "kernels":
        return _kernels(int(rest[0]))
    tracer = None
    if trace_path is not None:
        from tracer import Tracer

        tracer = Tracer(op_id=f"{os.path.basename(trace_path)}:{os.getpid()}")
        tracer.install()
    try:
        if mode == "cli":
            from geomint import cli

            return cli.main(rest)
        if mode == "compare":
            run = _compare if tracer is None else tracer.timed("child.compare", _compare)
            return run(*rest)
        raise SystemExit(f"unknown mode {mode!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
