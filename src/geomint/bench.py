"""Scenario configs, trajectory runners, CSV emission, and drift summaries.

A scenario pairs a model from the zoo with an admissible integrator and the
run parameters (dt, steps, theta, model constants).  A run yields exactly
``steps`` records; record k carries the state and invariant columns after k
iterations, at time k*dt.  The column schema is fixed per scenario and the
rigid-body one is

    step,t,R11,R12,R13,R21,R22,R23,R31,R32,R33,Pi1,Pi2,Pi3,energy,casimir

Runs are deterministic: identical configs produce bitwise identical CSV.
CSV numbers are written with 17 significant digits so parsing them back
recovers the doubles exactly.
"""

from __future__ import annotations

import math
import numbers
import time
from typing import Iterator, Sequence

from . import integrators as gi
from . import mechanics as mech
from . import odecore as ode
from .errors import (
    GeomintError,
    IncompatiblePair,
    IntegratorFailure,
    ParseError,
    UnknownColumn,
    UnknownKey,
)
from .geometry import cayley_retraction, exp_retraction
from .so3 import Rotation, Vec3, norm
from .value import Value, store

FLAT_SCENARIOS = ("harmonic", "kepler", "pendulum_embedded")
GROUP_SCENARIOS = ("rigidbody", "heavytop", "quadrotor_hover")
SCENARIOS = FLAT_SCENARIOS + GROUP_SCENARIOS

FLAT_INTEGRATORS = (
    "explicit_euler",
    "implicit_euler",
    "sympl_euler_a",
    "sympl_euler_b",
    "stormer_verlet",
    "rk2",
    "rk4",
    "theta_family",
)
GROUP_INTEGRATORS = ("lp_exp", "lp_cayley", "lp_exp_right", "quat_rk4", "rkmk4")
INTEGRATORS = FLAT_INTEGRATORS + GROUP_INTEGRATORS

# scenario -> admissible integrators
COMPAT: dict[str, tuple[str, ...]] = {
    "harmonic": FLAT_INTEGRATORS,
    "kepler": FLAT_INTEGRATORS,
    # no (q, p) split on the embedded pendulum state, so the split-variable
    # schemes stay off the menu
    "pendulum_embedded": ("explicit_euler", "implicit_euler", "rk2", "rk4"),
    "rigidbody": GROUP_INTEGRATORS,
    "heavytop": ("lp_exp", "lp_cayley", "quat_rk4", "rkmk4"),
    "quadrotor_hover": ("lp_exp", "lp_cayley"),
}

# scenario defaults mirror the benchmark figures of record
_DEFAULTS: dict[str, dict] = {
    "harmonic": {
        "dt": 0.1,
        "steps": 50,
        "params": {"k": 1.0, "m": 1.0, "q0": 1.0, "v0": 0.0},
    },
    "kepler": {
        "dt": 0.01,
        "steps": 3000,
        "params": {"mu": 1.0, "x0": (1.0, 0.0, 0.0, 0.5)},
    },
    "pendulum_embedded": {
        "dt": 0.1,
        "steps": 1000,
        "params": {"ml2": 1.0, "mgl": 1.0, "theta0": 1.0, "p0": 0.0, "project": 0.0},
    },
    "rigidbody": {
        "dt": 0.01,
        "steps": 180000,
        "params": {"I1": 1.0, "I2": 10.0, "I3": 100.0, "Pi0": (1.0, 1.0, 1.0)},
    },
    "heavytop": {
        "dt": 0.01,
        "steps": 180000,
        "params": {
            "I1": 1.0,
            "I2": 10.0,
            "I3": 100.0,
            "Pi0": (1.0, 1.0, 1.0),
            "Gamma0": (0.0, 0.0, 1.0),
            "m": 1.0,
            "g": 9.81,
            "chi": (0.0, 0.0, 1.0),
        },
    },
    "quadrotor_hover": {
        "dt": 0.01,
        "steps": 180000,
        "params": {
            "I1": 1.0,
            "I2": 10.0,
            "I3": 100.0,
            "m": 1.0,
            "g": 9.81,
            "Pi0": (0.0, 0.0, 1.0),
            "q0": (0.0, 0.0, 1.0),
            "p0": (0.0, 0.0, 0.0),
            "F": None,  # defaults to m*g (hover thrust)
            "M": (0.0, 0.0, 0.0),
        },
    },
}

_COLUMNS: dict[str, tuple[str, ...]] = {
    "harmonic": ("step", "t", "q", "v", "energy"),
    "kepler": ("step", "t", "rx", "ry", "vx", "vy", "energy", "angmom"),
    "pendulum_embedded": ("step", "t", "x", "y", "z", "energy", "cylinder_defect"),
    "rigidbody": (
        "step", "t",
        "R11", "R12", "R13", "R21", "R22", "R23", "R31", "R32", "R33",
        "Pi1", "Pi2", "Pi3", "energy", "casimir",
    ),
    "heavytop": (
        "step", "t",
        "R11", "R12", "R13", "R21", "R22", "R23", "R31", "R32", "R33",
        "x1", "x2", "x3", "Pi1", "Pi2", "Pi3", "Gamma1", "Gamma2", "Gamma3",
        "energy", "pi_gamma", "gamma_norm2",
    ),
    "quadrotor_hover": (
        "step", "t",
        "R11", "R12", "R13", "R21", "R22", "R23", "R31", "R32", "R33",
        "Pi1", "Pi2", "Pi3", "q1", "q2", "q3", "p1", "p2", "p3", "casimir",
    ),
}


class TrajectoryRecord(Value):
    """One row of a run: step index, time, then the scenario's columns."""

    __slots__ = _fields = ("step", "t", "values", "columns")
    _hidden = ("columns",)

    def __init__(self, step: int, t: float, values: tuple[float, ...], columns: tuple[str, ...]):
        store(self, "step", step)
        store(self, "t", t)
        store(self, "values", values)
        store(self, "columns", columns)

    def value(self, column: str) -> float:
        try:
            idx = self.columns.index(column)
        except ValueError:
            raise UnknownColumn(column) from None
        if idx == 0:
            return float(self.step)
        if idx == 1:
            return self.t
        return self.values[idx - 2]


class ScenarioConfig(Value):
    """Validated run description: scenario, integrator, dt, steps, theta, params.

    ``dt`` and ``steps`` default to the scenario's.  ``theta`` is taken by
    theta_family alone, where it defaults to 0.5; any other integrator keeps
    None and rejects a given theta.  ``params`` holds every model parameter of
    the scenario: the given ones over the scenario's defaults.
    """

    __slots__ = _fields = ("scenario", "integrator", "dt", "steps", "theta", "params")

    def __init__(
        self,
        scenario: str,
        integrator: str,
        dt: float | None = None,
        steps: int | None = None,
        theta: float | None = None,
        params: dict | None = None,
    ):
        if scenario not in SCENARIOS:
            raise UnknownKey(f"unknown scenario {scenario!r}")
        if integrator not in INTEGRATORS:
            raise UnknownKey(f"unknown integrator {integrator!r}")
        if integrator not in COMPAT[scenario]:
            raise IncompatiblePair(scenario, integrator)
        base = _DEFAULTS[scenario]
        dt = base["dt"] if dt is None else dt
        steps = base["steps"] if steps is None else steps
        if integrator == "theta_family":
            theta = _number("theta", 0.5 if theta is None else theta)
            if not 0.0 <= theta <= 1.0:
                raise ValueError("theta must lie in [0, 1]")
        elif theta is not None:
            raise ValueError(f"theta applies to theta_family only, not {integrator}")
        dt = _number("dt", dt)
        if not (math.isfinite(dt) and dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {dt!r}")
        if isinstance(steps, bool) or not isinstance(steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {steps!r}")
        if steps < 1:
            raise ValueError("steps must be at least 1")
        merged = dict(base["params"])
        for key, value in (params or {}).items():
            if key not in merged:
                raise UnknownKey(f"unknown key {key!r} for scenario {scenario!r}")
            if key == "project" and isinstance(value, bool):
                value = float(value)
            _check_param(key, merged[key], value)
            merged[key] = value
        store(self, "scenario", scenario)
        store(self, "integrator", integrator)
        store(self, "dt", dt)
        store(self, "steps", steps)
        store(self, "theta", theta)
        store(self, "params", merged)


def _number(key: str, value) -> float:
    """value as a float; a list or a word from a config file raises ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _check_param(key: str, default, value) -> None:
    """Reject a model parameter that is not finite or not shaped like its default."""
    if isinstance(default, tuple):
        if not isinstance(value, (tuple, list)):
            raise ValueError(f"{key} expects {len(default)} components, got {value!r}")
        if len(value) != len(default):
            raise ValueError(
                f"{key} expects {len(default)} components, got {len(value)}"
            )
        items = value
    else:
        # a None default (quadrotor thrust F) means "derive it"; None stays allowed
        items = () if default is None and value is None else (value,)
    for item in items:
        if isinstance(item, bool) or not isinstance(item, numbers.Real):
            raise ValueError(f"{key} must be numeric, got {value!r}")
        if not math.isfinite(item):
            raise ValueError(f"{key} must be finite, got {value!r}")
    # a switch, so any other number would read as on
    if key == "project" and value not in (0.0, 1.0):
        raise ValueError(f"project must be 0 or 1, got {value!r}")


# the name the CLI and scripts build a stock config by
default_config = ScenarioConfig


# --- config file parsing ----------------------------------------------------------

def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        return tuple(float(part) for part in text.split(","))
    lowered = text.lower()
    if lowered in ("true", "false"):
        # a switch word; only project takes one, and any other key rejects a bool
        return lowered == "true"
    try:
        return float(text)
    except ValueError:
        return text


def parse_config(
    path: str | None = None, overrides: dict | None = None
) -> ScenarioConfig:
    """Build a config from a flat ``key = value`` file and/or CLI overrides.

    The file is UTF-8 with ``#`` comments; CLI overrides win over file
    values.  Raises ParseError for malformed lines, UnknownKey for keys the
    scenario does not define, IncompatiblePair for inadmissible pairs.
    """
    raw: dict[str, object] = {}
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                stripped = line.split("#", 1)[0].strip()
                if not stripped:
                    continue
                if "=" not in stripped:
                    raise ParseError(line_no, line.rstrip("\n"))
                key, _, value = stripped.partition("=")
                key = key.strip()
                if not key:
                    raise ParseError(line_no, line.rstrip("\n"))
                try:
                    raw[key] = _parse_value(value)
                except ValueError:
                    # a number list with an empty or non-numeric entry
                    raise ParseError(line_no, line.rstrip("\n")) from None
    if overrides:
        raw.update(overrides)

    if "scenario" not in raw:
        raise UnknownKey("config must define 'scenario'")
    if "integrator" not in raw:
        raise UnknownKey("config must define 'integrator'")
    scenario = str(raw.pop("scenario"))
    integrator = str(raw.pop("integrator"))
    run = {key: raw.pop(key) for key in ("dt", "steps", "theta") if key in raw}
    steps = run.get("steps")
    if isinstance(steps, float) and steps.is_integer():
        # a file value parses as a float; only whole finite ones are step counts
        run["steps"] = int(steps)
    return ScenarioConfig(scenario, integrator, params=raw, **run)


# --- runners -------------------------------------------------------------------------

def _flat_stepper(config: ScenarioConfig, f, f1, f2):
    """One-step closure x -> x' for the flat integrators.

    No constructor checks a flat state, so the step raises ValueError, naming
    the state, when x' has an entry that is not finite.
    """
    import numpy as np

    name = config.integrator
    dt = config.dt
    if name == "explicit_euler":
        advance = lambda x: ode.explicit_euler_step(f, x, dt)
    elif name == "implicit_euler":
        advance = lambda x: ode.implicit_euler_step(f, x, dt)
    elif name in ("rk2", "rk4"):
        tab = ode.rk2_midpoint_tableau() if name == "rk2" else ode.rk4_tableau()
        advance = lambda x: ode.rk_step(tab, f, x, dt)
    else:
        # split-variable schemes: state is the concatenation (q, p)
        if name == "sympl_euler_a":
            pair = lambda q, p: ode.symplectic_euler_a_step(f1, f2, q, p, dt)
        elif name == "sympl_euler_b":
            pair = lambda q, p: ode.symplectic_euler_b_step(f1, f2, q, p, dt)
        elif name == "stormer_verlet":
            ptab = ode.stormer_verlet_tableau()
            pair = lambda q, p: ode.prk_step(ptab, f1, f2, q, p, dt)
        elif name == "theta_family":
            theta = config.theta
            pair = lambda q, p: gi.cotangent_theta_step(f1, f2, q, p, dt, theta)
        else:
            raise IncompatiblePair(config.scenario, name)

        def advance(x):
            half = x.size // 2
            qn, pn = pair(x[:half], x[half:])
            return np.concatenate([qn, pn])

    def step(x):
        x = advance(x)
        if not all(map(math.isfinite, x.tolist())):
            raise ValueError(f"state {x.tolist()} has non-finite entries")
        return x

    return step


# A setup returns (initial state, step, row): step maps a state to the next one
# and row maps a state to the record's value columns.

def _setup_harmonic(config: ScenarioConfig):
    import numpy as np

    p = config.params
    hp = mech.HarmonicOscillatorParams(k=p["k"], m=p["m"])
    f = mech.ho_vectorfield(hp)
    f1, f2 = mech.ho_split_fields(hp)
    energy = mech.ho_energy(hp)
    step = _flat_stepper(config, f, f1, f2)
    x = np.array([p["q0"], p["v0"]], dtype=float)
    return x, step, lambda x: (x[0], x[1], energy(x[0], x[1]))


def _setup_kepler(config: ScenarioConfig):
    import numpy as np

    p = config.params
    kp = mech.KeplerParams(mu=p["mu"])
    f = mech.kepler_vectorfield(kp)
    f1, f2 = mech.kepler_split_fields(kp)
    energy = mech.kepler_energy(kp)
    angmom = mech.kepler_angmom(kp)
    step = _flat_stepper(config, f, f1, f2)
    x = np.asarray(p["x0"], dtype=float)
    return x, step, lambda x: (x[0], x[1], x[2], x[3], energy(x), angmom(x))


def _setup_pendulum(config: ScenarioConfig):
    import numpy as np

    p = config.params
    pp = mech.PendulumParams(ml2=p["ml2"], mgl=p["mgl"])
    f = mech.pendulum_embedded_vf(pp)
    energy = mech.pendulum_embedded_energy(pp)
    step = _flat_stepper(config, f, None, None)
    if p["project"]:
        free = step
        step = lambda x: np.array(mech.project_to_cylinder(*free(x)))

    def row(x):
        return (x[0], x[1], x[2], energy(x), mech.cylinder_defect(x[0], x[1]))

    theta0 = p["theta0"]
    return np.array([math.cos(theta0), math.sin(theta0), p["p0"]]), step, row


def _inertia_from(p: dict):
    return ((p["I1"], 0.0, 0.0), (0.0, p["I2"], 0.0), (0.0, 0.0, p["I3"]))


def _rot_row(r: Rotation) -> tuple[float, ...]:
    m = r.m
    return (
        m[0][0], m[0][1], m[0][2],
        m[1][0], m[1][1], m[1][2],
        m[2][0], m[2][1], m[2][2],
    )


def _setup_rigidbody(config: ScenarioConfig):
    p = config.params
    params = mech.RigidBodyParams(_inertia_from(p))
    energy = mech.rigidbody_energy(params)
    name = config.integrator
    dt = config.dt
    r = Rotation.identity()
    pi: Vec3 = tuple(p["Pi0"])  # type: ignore[assignment]
    body_of = lambda r, pi: pi
    ret = cayley_retraction() if name == "lp_cayley" else exp_retraction()

    if name in ("lp_exp", "lp_cayley"):
        step = lambda s: gi.lie_poisson_left_step(params, ret, s[0], s[1], dt)
    elif name == "lp_exp_right":
        step = lambda s: gi.lie_poisson_right_step(params, ret, s[0], s[1], dt)
        pi = r.apply(pi)  # spatial momentum carried by the right-lift scheme
        body_of = lambda r, pi: r.apply_transpose(pi)
    else:
        stepper = gi.quat_rk4_step if name == "quat_rk4" else gi.rkmk4_step

        def step(s):
            out = stepper(params, gi.RigidBodyState(R=s[0], Pi=s[1]), dt)
            return out.R, out.Pi

    def row(s):
        body = body_of(*s)
        return _rot_row(s[0]) + body + (energy(body), mech.rigidbody_casimir(body))

    return (r, pi), step, row


def _setup_heavytop(config: ScenarioConfig):
    p = config.params
    params = mech.HeavyTopParams(
        inertia=_inertia_from(p), m=p["m"], g=p["g"], chi=tuple(p["chi"])
    )
    energy = mech.heavytop_energy(params)
    stepper = {
        "lp_exp": gi.heavytop_exp_step,
        "lp_cayley": gi.heavytop_cay_step,
        "quat_rk4": gi.quat_rk4_step,
        "rkmk4": gi.rkmk4_step,
    }[config.integrator]
    dt = config.dt
    gamma0: Vec3 = tuple(p["Gamma0"])  # type: ignore[assignment]
    # the Lie-Poisson steps need |Gamma| = 1; a run of any scheme checks it here
    if abs(norm(gamma0) - 1.0) > 1e-9:
        raise ValueError(f"Gamma0 = {gamma0} must have norm 1 to within 1e-9")
    state = gi.HeavyTopState(
        R=Rotation.identity(),
        x=(0.0, 0.0, 0.0),
        Pi=tuple(p["Pi0"]),  # type: ignore[arg-type]
        Gamma=gamma0,
    )

    def row(s):
        pg, g2 = mech.heavytop_casimirs(s.Pi, s.Gamma)
        return _rot_row(s.R) + s.x + s.Pi + s.Gamma + (energy(s.Pi, s.Gamma), pg, g2)

    return state, lambda s: stepper(params, s, dt), row


def _setup_quadrotor(config: ScenarioConfig):
    p = config.params
    params = mech.QuadrotorParams(inertia=_inertia_from(p), m=p["m"], g=p["g"])
    dt = config.dt
    thrust = p["F"] if p["F"] is not None else params.m * params.g
    u = gi.QuadrotorInput(M=tuple(p["M"]), F=float(thrust))  # type: ignore[arg-type]
    ret = cayley_retraction() if config.integrator == "lp_cayley" else exp_retraction()
    state = gi.QuadrotorState(
        R=Rotation.identity(),
        Pi=tuple(p["Pi0"]),  # type: ignore[arg-type]
        q=tuple(p["q0"]),  # type: ignore[arg-type]
        p=tuple(p["p0"]),  # type: ignore[arg-type]
    )

    def row(s):
        return _rot_row(s.R) + s.Pi + s.q + s.p + (mech.rigidbody_casimir(s.Pi),)

    return state, lambda s: gi.quadrotor_step(params, s, u, dt, ret), row


_SETUPS = {
    "harmonic": _setup_harmonic,
    "kepler": _setup_kepler,
    "pendulum_embedded": _setup_pendulum,
    "rigidbody": _setup_rigidbody,
    "heavytop": _setup_heavytop,
    "quadrotor_hover": _setup_quadrotor,
}


def iter_scenario(config: ScenarioConfig) -> Iterator[TrajectoryRecord]:
    """Lazily yield the ``steps`` records of a run.

    The scenario's setup runs before the first step, and its errors propagate
    as they are; a GeomintError, ArithmeticError or ValueError raised by step
    k or its record is wrapped as IntegratorFailure(k).
    """
    state, step, row = _SETUPS[config.scenario](config)
    cols = _COLUMNS[config.scenario]
    dt = config.dt
    for k in range(1, config.steps + 1):
        try:
            state = step(state)
            values = row(state)
        except (GeomintError, ArithmeticError, ValueError) as exc:
            raise IntegratorFailure(k, exc) from exc
        yield TrajectoryRecord(k, k * dt, values, cols)


def run_scenario(config: ScenarioConfig) -> list[TrajectoryRecord]:
    """Run a scenario to completion and return all records."""
    return list(iter_scenario(config))


def scenario_columns(scenario: str) -> tuple[str, ...]:
    if scenario not in _COLUMNS:
        raise UnknownKey(f"unknown scenario {scenario!r}")
    return _COLUMNS[scenario]


# --- CSV ----------------------------------------------------------------------------

def write_csv(records: Sequence[TrajectoryRecord], path: str) -> None:
    """Write records with a header row; 17 significant digits per number."""
    if not records:
        raise ValueError("no records to write")
    cols = records[0].columns
    row = "%d" + ",%.17g" * (len(cols) - 1) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(cols) + "\n")
        for rec in records:
            fh.write(row % ((rec.step, rec.t) + tuple(rec.values)))


def read_csv(path: str) -> list[TrajectoryRecord]:
    """Parse a file written by write_csv back into records."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        cols = tuple(header.split(","))
        records = []
        for line in fh:
            parts = line.rstrip("\n").split(",")
            records.append(
                TrajectoryRecord(
                    int(parts[0]),
                    float(parts[1]),
                    tuple(float(x) for x in parts[2:]),
                    cols,
                )
            )
    return records


# --- drift statistics ------------------------------------------------------------------

class DriftSummary(Value):
    """Initial/final values, max absolute deviation, least-squares slope vs time."""

    __slots__ = _fields = ("initial", "final", "max_abs_dev", "linear_slope")

    def __init__(self, initial: float, final: float, max_abs_dev: float, linear_slope: float):
        store(self, "initial", initial)
        store(self, "final", final)
        store(self, "max_abs_dev", max_abs_dev)
        store(self, "linear_slope", linear_slope)


def summarize_drift(records: Sequence[TrajectoryRecord], column: str) -> DriftSummary:
    """Deviation statistics of one invariant column over a run.

    The slope is the least-squares fit of the column against time, in column
    units per second.  Raises ValueError for fewer than two records and
    UnknownColumn when the records lack the column.
    """
    if len(records) < 2:
        raise ValueError("need at least two records")
    cols = records[0].columns
    # step and t live outside rec.values; indexing them would read a value column
    if column not in cols[2:]:
        raise UnknownColumn(column)
    import numpy as np

    idx = cols.index(column) - 2
    times = np.fromiter((rec.t for rec in records), dtype=float, count=len(records))
    values = np.fromiter(
        (rec.values[idx] for rec in records), dtype=float, count=len(records)
    )
    t_centered = times - times.mean()
    denom = float(t_centered @ t_centered)
    slope = float(t_centered @ (values - values.mean()) / denom) if denom > 0 else 0.0
    return DriftSummary(
        initial=float(values[0]),
        final=float(values[-1]),
        max_abs_dev=float(np.max(np.abs(values - values[0]))),
        linear_slope=slope,
    )


# --- comparison table ---------------------------------------------------------------------

_INVARIANT_COLUMNS = {
    "harmonic": ("energy",),
    "kepler": ("energy", "angmom"),
    "pendulum_embedded": ("energy", "cylinder_defect"),
    "rigidbody": ("energy", "casimir"),
    "heavytop": ("energy", "pi_gamma", "gamma_norm2"),
    "quadrotor_hover": ("casimir",),
}


def _compare_row(config: ScenarioConfig) -> list[str]:
    """Run one config and return its table row: the integrator, each invariant's
    max deviation, the max orthogonality defect (group scenarios) and wall ms.

    One pass over the run keeps a running maximum per cell and no records.  A
    NaN deviation stays NaN, as ``np.max`` reports it.
    """
    cols = _COLUMNS[config.scenario]
    idx = [cols.index(name) - 2 for name in _INVARIANT_COLUMNS[config.scenario]]
    group = config.scenario in GROUP_SCENARIOS  # their values lead with R11 ... R33
    worst, ortho, initial = [0.0] * len(idx), 0.0, None
    start = time.perf_counter()
    for rec in iter_scenario(config):
        v = rec.values
        if initial is None:
            initial = [v[i] for i in idx]
        for j, i in enumerate(idx):
            dev = abs(v[i] - initial[j])
            if dev > worst[j] or dev != dev:
                worst[j] = dev
        if group:
            ortho = max(ortho, mech.orthogonality_defect((v[0:3], v[3:6], v[6:9])))
    wall_ms = (time.perf_counter() - start) * 1e3
    row = [config.integrator] + ["%.3e" % dev for dev in worst]
    if group:
        row.append("%.3e" % ortho)
    return row + ["%.1f" % wall_ms]


def _rows_in_workers(fn, items: Sequence) -> list[list[str]]:
    """``fn(item)``, a list of strings, for each item, from forked workers, one
    per usable CPU, in the order of ``items``.

    Workers take item indices from a pipe in order and send each row back as
    one tab-joined line, shorter than PIPE_BUF so that lines never mix; the
    strings hold no tab or newline.  Every worker is reaped before the items
    without a row, whose worker raised or died, run again here in order, so a
    failure raises as in a serial loop: runs are deterministic.
    """
    import os

    jobs_r, jobs_w = os.pipe()
    os.write(jobs_w, b"".join(i.to_bytes(4, "little") for i in range(len(items))))
    os.close(jobs_w)
    rows_r, rows_w = os.pipe()
    rows: list[list[str] | None] = [None] * len(items)
    pids = []
    try:
        with open(rows_r, "rb") as out:
            with open(jobs_r, "rb", 0), open(rows_w, "wb", 0):
                for _ in range(min(len(items), len(os.sched_getaffinity(0)))):
                    pid = os.fork()
                    if pid == 0:
                        try:
                            while job := os.read(jobs_r, 4):
                                i = int.from_bytes(job, "little")
                                line = "\t".join([str(i), *fn(items[i])])
                                os.write(rows_w, (line + "\n").encode())
                        finally:
                            os._exit(0)  # never back into the caller's code
                    pids.append(pid)
            for line in out.read().decode().splitlines():
                i, *row = line.split("\t")
                rows[int(i)] = row
    finally:
        for pid in pids:
            os.waitpid(pid, 0)
    return [fn(item) if row is None else row for row, item in zip(rows, items)]


def compare(configs: Sequence[ScenarioConfig]) -> str:
    """Run several integrators on one scenario; return a fixed-width table.

    Columns: per-invariant max absolute deviation, max orthogonality defect
    (group scenarios), and the wall time of the run and its columns in
    milliseconds.  A config with fewer than two steps raises ValueError before
    any run.  The runs go to ``_rows_in_workers``; rows keep the order of
    ``configs``, and a failing run raises as in a serial loop.
    """
    if not configs:
        raise ValueError("no configs to compare")
    scenario = configs[0].scenario
    if any(c.scenario != scenario for c in configs):
        raise ValueError("compare requires a single shared scenario")
    if any(c.steps < 2 for c in configs):
        raise ValueError("need at least two records")

    invariants = _INVARIANT_COLUMNS[scenario]
    headers = ["integrator"] + [f"max|d {name}|" for name in invariants]
    if scenario in GROUP_SCENARIOS:
        headers.append("max orthodefect")
    headers.append("wall ms")

    rows = _rows_in_workers(_compare_row, configs)
    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    lines.extend(
        "  ".join(r[i].ljust(widths[i]) for i in range(len(headers))) for r in rows
    )
    return "\n".join(lines)
