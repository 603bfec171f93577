"""Per-layer metrics from the spans of traced operations.

A layer's figure is taken at the boundary where the traced wrapper sits (see
``tracer.py``); self time is a span's duration minus the part its direct
child spans cover.  A layer that a workload never calls reads 0.
"""

from __future__ import annotations

import json

from tracer import INTEGRATOR_STEPS, ODECORE_STEPS

STEP_SPANS = {f"integrators.{n}" for n in INTEGRATOR_STEPS} | {f"odecore.{n}" for n in ODECORE_STEPS}
NEWTON_SPANS = ("odecore.newton_solve", "integrators.newton_solve")
HEAVYTOP_STEPS = ("integrators.heavytop_exp_step", "integrators.heavytop_cay_step")

# (scenario, integrator) pairs whose step time is reported, across all workloads
STEP_PAIRS = (
    ("rigidbody", "lp_exp"),
    ("rigidbody", "lp_cayley"),
    ("rigidbody", "lp_exp_right"),
    ("rigidbody", "quat_rk4"),
    ("rigidbody", "rkmk4"),
    ("heavytop", "lp_exp"),
    ("heavytop", "lp_cayley"),
    ("heavytop", "quat_rk4"),
    ("heavytop", "rkmk4"),
    ("quadrotor_hover", "lp_exp"),
    ("kepler", "theta_family"),
)
# pairs whose Newton updates (calls of integrators.solve3) per step are reported;
# heavy-top steps iterate for omega by fixed point and never call solve3, so
# their solves show in heavytop_fallbacks and their step time instead
NEWTON_PAIRS = (
    ("rigidbody", "lp_exp"),
    ("rigidbody", "lp_cayley"),
    ("quadrotor_hover", "lp_exp"),
)
KERNELS = ("exp_so3", "cay_so3", "dexp_dual_matrix", "dcay_dual_matrix", "solve3", "mat_mul", "cross")


class _Totals:
    """Sums over the traced operations of one repetition."""

    def __init__(self):
        self.setup_ns: list[int] = []
        self.steps = 0
        self.record_ns = 0
        self.step_ns: dict[tuple, int] = {}
        self.step_count: dict[tuple, int] = {}
        self.solve3: dict[tuple, int] = {}
        self.observer_ns = 0
        self.rotation_ns = 0
        self.ortho_ns = 0
        self.ortho_calls = 0
        self.write_ns = 0
        self.write_records = 0
        self.csv_bytes = 0
        self.drift_ns = 0
        self.drift_calls = 0
        self.newton_ns = 0
        self.newton_calls = 0
        self.residual_evals = 0
        self.newton_failures = 0
        self.fallbacks = 0

    def add(self, trace: dict, csv_bytes: int) -> None:
        contexts = [tuple(c) for c in trace["contexts"]]
        spans = trace["spans"]
        name_of = {s[0]: s[2] for s in spans}
        child_ns: dict[int, int] = {}
        for sid, parent, name, t0, t1, ctx, ok, extra in spans:
            if name in STEP_SPANS or name == "mechanics.observer":
                child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
        roots = [s for s in spans if s[1] == 0]
        work = [s[3] for s in spans if s[2] in ("bench.run_scenario", "bench.compare")]
        if roots:
            root = roots[0]
            self.setup_ns.append((min(work) if work else root[4]) - root[3])
        for sid, parent, name, t0, t1, ctx, ok, extra in spans:
            dur = t1 - t0
            pair = contexts[ctx] if ctx >= 0 else None
            if name == "bench.run_scenario":
                self.record_ns += dur - child_ns.get(sid, 0)
            elif name in STEP_SPANS:
                self.steps += 1
                self.step_ns[pair] = self.step_ns.get(pair, 0) + dur
                self.step_count[pair] = self.step_count.get(pair, 0) + 1
            elif name == "mechanics.observer":
                self.observer_ns += dur
            elif name == "so3.rotation_check":
                self.rotation_ns += dur
            elif name == "mechanics.orthogonality_defect":
                self.ortho_ns += dur
                self.ortho_calls += 1
            elif name == "bench.write_csv":
                self.write_ns += dur
                self.write_records += extra
            elif name == "bench.summarize_drift":
                self.drift_ns += dur
                self.drift_calls += 1
            elif name in NEWTON_SPANS:
                self.newton_ns += dur
                self.newton_calls += 1
                self.residual_evals += extra
                self.newton_failures += 1 - ok
                if name == "integrators.newton_solve" and name_of.get(parent) in HEAVYTOP_STEPS:
                    self.fallbacks += 1
        for ctx, calls in trace["solve3_calls"].items():
            ctx = int(ctx)
            if ctx >= 0:
                pair = contexts[ctx]
                self.solve3[pair] = self.solve3.get(pair, 0) + calls
        self.csv_bytes += csv_bytes

    def metrics(self) -> dict[str, float]:
        def ratio(num, den, scale=1.0):
            return num / den * scale if den else 0.0

        steps = self.steps
        out = {
            "cli.setup_ms": ratio(sum(self.setup_ns), len(self.setup_ns), 1e-6),
            "bench.record_us_per_step": ratio(self.record_ns, steps, 1e-3),
            "bench.write_csv_us_per_record": ratio(self.write_ns, self.write_records, 1e-3),
            "bench.csv_bytes_per_record": ratio(self.csv_bytes, self.write_records),
            "bench.summarize_drift_ms": ratio(self.drift_ns, self.drift_calls, 1e-6),
            "integrators.heavytop_fallbacks": float(self.fallbacks),
            "odecore.newton_calls_per_step": ratio(self.newton_calls, steps),
            "odecore.residual_evals_per_call": ratio(self.residual_evals, self.newton_calls),
            "odecore.newton_us_per_step": ratio(self.newton_ns, steps, 1e-3),
            "odecore.newton_failures": float(self.newton_failures),
            "so3.rotation_check_us_per_step": ratio(self.rotation_ns, steps, 1e-3),
            "mechanics.observer_us_per_record": ratio(self.observer_ns, steps, 1e-3),
            "mechanics.orthodefect_us_per_record": ratio(self.ortho_ns, self.ortho_calls, 1e-3),
        }
        for pair in STEP_PAIRS:
            out["integrators.step_us.%s.%s" % pair] = ratio(
                self.step_ns.get(pair, 0), self.step_count.get(pair, 0), 1e-3
            )
        for pair in NEWTON_PAIRS:
            out["integrators.newton_updates_per_step.%s.%s" % pair] = ratio(
                self.solve3.get(pair, 0), self.step_count.get(pair, 0)
            )
        return out


def repetition_metrics(traced: list[tuple[str, int]]) -> dict[str, float]:
    """Layer metrics of one traced repetition: (trace path, CSV bytes) per operation."""
    totals = _Totals()
    for path, csv_bytes in traced:
        with open(path, encoding="utf-8") as fh:
            totals.add(json.load(fh), csv_bytes)
    return totals.metrics()


def kernel_metrics(kernel_ns: dict[str, float]) -> dict[str, float]:
    return {f"so3.kernel_ns.{name}": float(kernel_ns[name]) for name in KERNELS}
