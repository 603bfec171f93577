"""Timing and counting wrappers installed on geomint's public module attributes.

The program is not changed: a child process imports geomint, replaces a
fixed set of public attributes of ``geomint.cli``, ``bench``,
``integrators``, ``odecore``, ``so3`` and ``mechanics`` with wrappers, and
then runs ``geomint.cli.main``.  The code under test looks these attributes
up at call time, so the wrappers see every call the command makes.

A span is ``(id, parent, name, start_ns, end_ns, context, ok, extra)``.
``context`` indexes the (scenario, integrator) of the ``run_scenario`` call
the span ran under (-1 outside one), ``ok`` is 0 when the call raised, and
``extra`` carries a count: residual evaluations for a Newton solve, records
for a CSV write.  Spans stay in memory and are written out once, by
``dump``, when the operation ends.  One child runs one operation, so every
span of a trace file shares that operation's id.
"""

from __future__ import annotations

import functools
import itertools
import json
import time

# public step functions, by module, that the scenario runners call once per step
INTEGRATOR_STEPS = (
    "lie_poisson_left_step",
    "lie_poisson_right_step",
    "heavytop_exp_step",
    "heavytop_cay_step",
    "quadrotor_step",
    "quat_rk4_step",
    "rkmk4_step",
    "cotangent_theta_step",
)
ODECORE_STEPS = (
    "explicit_euler_step",
    "implicit_euler_step",
    "symplectic_euler_a_step",
    "symplectic_euler_b_step",
    "rk_step",
    "prk_step",
)
# observer factories return the per-record closure; the others are called per record
OBSERVER_FACTORIES = (
    "ho_energy",
    "kepler_energy",
    "kepler_angmom",
    "pendulum_embedded_energy",
    "rigidbody_energy",
    "heavytop_energy",
)
OBSERVERS = ("cylinder_defect", "rigidbody_casimir", "heavytop_casimirs")


class Tracer:
    """In-memory span recorder for one operation."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[tuple] = []
        self.stack = [0]
        self.ids = itertools.count(1)
        self.contexts: list[tuple[str, str]] = []
        self.ctx = -1
        self.solve3_calls: dict[int, int] = {}

    def timed(self, name: str, fn, count_arg=None):
        """Wrap fn in a span; count_arg(args) gives the span's extra count."""
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            ok = 0
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                ok = 1
                return out
            finally:
                t1 = clock()
                stack.pop()
                extra = count_arg(args) if count_arg is not None else 0
                spans.append((sid, parent, name, t0, t1, tracer.ctx, ok, extra))

        return wrapper

    def newton(self, name: str, fn):
        """Span around a Newton solve that also counts residual evaluations."""
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def wrapper(residual, *args, **kwargs):
            evals = [0]

            def counted(x):
                evals[0] += 1
                return residual(x)

            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            ok = 0
            t0 = clock()
            try:
                out = fn(counted, *args, **kwargs)
                ok = 1
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, tracer.ctx, ok, evals[0]))

        return wrapper

    def scenario(self, fn):
        """Span around bench.run_scenario that sets the (scenario, integrator) context."""
        inner = self.timed("bench.run_scenario", fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(config, *args, **kwargs):
            outer = tracer.ctx
            tracer.contexts.append((config.scenario, config.integrator))
            tracer.ctx = len(tracer.contexts) - 1
            try:
                return inner(config, *args, **kwargs)
            finally:
                tracer.ctx = outer

        return wrapper

    def count_solve3(self, fn):
        """Count calls of integrators.solve3 per context."""
        calls = self.solve3_calls
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[tracer.ctx] = calls.get(tracer.ctx, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def observer_factory(self, fn):
        timed = self.timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return timed("mechanics.observer", fn(*args, **kwargs))

        return wrapper

    def install(self) -> None:
        """Replace the traced public attributes of the geomint modules."""
        from geomint import bench, cli, integrators, mechanics, odecore, so3

        for name in INTEGRATOR_STEPS:
            setattr(integrators, name, self.timed(f"integrators.{name}", getattr(integrators, name)))
        for name in ODECORE_STEPS:
            setattr(odecore, name, self.timed(f"odecore.{name}", getattr(odecore, name)))
        integrators.solve3 = self.count_solve3(integrators.solve3)
        integrators.newton_solve = self.newton("integrators.newton_solve", integrators.newton_solve)
        odecore.newton_solve = self.newton("odecore.newton_solve", odecore.newton_solve)
        so3.Rotation.__post_init__ = self.timed("so3.rotation_check", so3.Rotation.__post_init__)
        for name in OBSERVER_FACTORIES:
            setattr(mechanics, name, self.observer_factory(getattr(mechanics, name)))
        for name in OBSERVERS:
            setattr(mechanics, name, self.timed("mechanics.observer", getattr(mechanics, name)))
        mechanics.orthogonality_defect = self.timed(
            "mechanics.orthogonality_defect", mechanics.orthogonality_defect
        )
        bench.parse_config = self.timed("bench.parse_config", bench.parse_config)
        bench.run_scenario = self.scenario(bench.run_scenario)
        bench.write_csv = self.timed("bench.write_csv", bench.write_csv, lambda args: len(args[0]))
        bench.summarize_drift = self.timed("bench.summarize_drift", bench.summarize_drift)
        bench.compare = self.timed("bench.compare", bench.compare)
        cli.main = self.timed("cli.main", cli.main)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "op": self.op_id,
                    "contexts": self.contexts,
                    "solve3_calls": {str(k): v for k, v in self.solve3_calls.items()},
                    "spans": self.spans,
                },
                fh,
            )
