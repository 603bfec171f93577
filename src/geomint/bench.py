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
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from . import integrators as gi
from . import mechanics as mech
from . import odecore as ode
from .errors import (
    GeomintError,
    IncompatiblePair,
    IntegratorFailure,
    ParseError,
    SingularOrigin,
    UnknownColumn,
    UnknownKey,
)
from .geometry import CAYLEY_TAG, EXP_TAG, cayley_retraction, exp_retraction
from .so3 import Rotation, Vec3

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


@dataclass(frozen=True)
class TrajectoryRecord:
    """One row of a run: step index, time, then the scenario's columns."""

    step: int
    t: float
    values: tuple[float, ...]
    columns: tuple[str, ...] = field(repr=False)

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


@dataclass(frozen=True)
class ScenarioConfig:
    """Validated run description: scenario, integrator, dt, steps, theta, params."""

    scenario: str
    integrator: str
    dt: float
    steps: int
    theta: float = 0.5
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise UnknownKey(f"unknown scenario {self.scenario!r}")
        if self.integrator not in INTEGRATORS:
            raise UnknownKey(f"unknown integrator {self.integrator!r}")
        if self.integrator not in COMPAT[self.scenario]:
            raise IncompatiblePair(self.scenario, self.integrator)
        for key in ("dt", "theta"):
            value = getattr(self, key)
            # a list or a word from a config file lands here too
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{key} must be a number, got {value!r}")
            object.__setattr__(self, key, float(value))
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValueError(f"dt must be positive and finite, got {self.dt!r}")
        if isinstance(self.steps, bool) or not isinstance(self.steps, numbers.Integral):
            raise ValueError(f"steps must be an integer, got {self.steps!r}")
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError("theta must lie in [0, 1]")
        merged = dict(_DEFAULTS[self.scenario]["params"])
        for key, value in self.params.items():
            if key not in merged:
                raise UnknownKey(f"unknown key {key!r} for scenario {self.scenario!r}")
            _check_param(key, merged[key], value)
            merged[key] = value
        object.__setattr__(self, "params", merged)


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


def default_config(scenario: str, integrator: str, **overrides) -> ScenarioConfig:
    """Config with the scenario's stock dt/steps/params; overrides win."""
    if scenario not in SCENARIOS:
        raise UnknownKey(f"unknown scenario {scenario!r}")
    base = _DEFAULTS[scenario]
    kwargs = {
        "dt": overrides.pop("dt", base["dt"]),
        "steps": overrides.pop("steps", base["steps"]),
        "theta": overrides.pop("theta", 0.5),
        "params": overrides.pop("params", {}),
    }
    if overrides:
        raise UnknownKey(f"unknown option(s) {sorted(overrides)}")
    return ScenarioConfig(scenario=scenario, integrator=integrator, **kwargs)


# --- config file parsing ----------------------------------------------------------

def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        return tuple(float(part) for part in text.split(","))
    lowered = text.lower()
    if lowered in ("true", "false"):
        return 1.0 if lowered == "true" else 0.0
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
                raw[key] = _parse_value(value)
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
    return default_config(scenario, integrator, params=raw, **run)


# --- runners -------------------------------------------------------------------------

def _flat_stepper(config: ScenarioConfig, f, f1, f2):
    """One-step closure x -> x' for the flat integrators."""
    import numpy as np

    name = config.integrator
    dt = config.dt
    if name == "explicit_euler":
        return lambda x: ode.explicit_euler_step(f, x, dt)
    if name == "implicit_euler":
        return lambda x: ode.implicit_euler_step(f, x, dt)
    if name == "rk2":
        tab = ode.rk2_midpoint_tableau()
        return lambda x: ode.rk_step(tab, f, x, dt)
    if name == "rk4":
        tab = ode.rk4_tableau()
        return lambda x: ode.rk_step(tab, f, x, dt)

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

    def step(x):
        half = x.size // 2
        qn, pn = pair(x[:half], x[half:])
        return np.concatenate([qn, pn])

    return step


def _iter_harmonic(config: ScenarioConfig) -> Iterator[TrajectoryRecord]:
    import numpy as np

    p = config.params
    hp = mech.HarmonicOscillatorParams(k=p["k"], m=p["m"])
    f = mech.ho_vectorfield(hp)
    energy = mech.ho_energy(hp)
    ratio = hp.k / hp.m

    def f1(q, v):
        return v

    def f2(q, v):
        return -ratio * q

    step = _flat_stepper(config, f, f1, f2)
    cols = _COLUMNS["harmonic"]
    x = np.array([p["q0"], p["v0"]], dtype=float)
    for k in range(1, config.steps + 1):
        x = step(x)
        yield TrajectoryRecord(k, k * config.dt, (x[0], x[1], energy(x[0], x[1])), cols)


def _iter_kepler(config: ScenarioConfig) -> Iterator[TrajectoryRecord]:
    import numpy as np

    p = config.params
    kp = mech.KeplerParams(mu=p["mu"])
    f = mech.kepler_vectorfield(kp)
    energy = mech.kepler_energy(kp)
    angmom = mech.kepler_angmom(kp)

    mu = kp.mu

    def f1(q, v):
        return v

    def f2(q, v):
        # numpy's two-term dot rounds like fma(q1, q1, q0 q0), so it stays on numpy
        r2 = float(q.dot(q))
        r3 = r2 * math.sqrt(r2)
        # zero at r = 0, and also where |r|^3 underflows (|r| below about 1e-108)
        if r3 == 0.0:
            raise SingularOrigin("Kepler state at r = 0")
        return -mu / r3 * q

    step = _flat_stepper(config, f, f1, f2)
    cols = _COLUMNS["kepler"]
    x = np.asarray(p["x0"], dtype=float)
    for k in range(1, config.steps + 1):
        x = step(x)
        yield TrajectoryRecord(
            k, k * config.dt, (x[0], x[1], x[2], x[3], energy(x), angmom(x)), cols
        )


def _iter_pendulum(config: ScenarioConfig) -> Iterator[TrajectoryRecord]:
    import numpy as np

    p = config.params
    pp = mech.PendulumParams(ml2=p["ml2"], mgl=p["mgl"])
    f = mech.pendulum_embedded_vf(pp)
    energy = mech.pendulum_embedded_energy(pp)
    project = bool(p["project"])
    step = _flat_stepper(config, f, None, None)
    cols = _COLUMNS["pendulum_embedded"]
    theta0, p0 = p["theta0"], p["p0"]
    x = np.array([math.cos(theta0), math.sin(theta0), p0])
    for k in range(1, config.steps + 1):
        x = step(x)
        if project:
            x = np.array(mech.project_to_cylinder(x[0], x[1], x[2]))
        yield TrajectoryRecord(
            k,
            k * config.dt,
            (x[0], x[1], x[2], energy(x), mech.cylinder_defect(x[0], x[1])),
            cols,
        )


def _inertia_from(p: dict):
    return ((p["I1"], 0.0, 0.0), (0.0, p["I2"], 0.0), (0.0, 0.0, p["I3"]))


def _rot_row(r: Rotation) -> tuple[float, ...]:
    m = r.m
    return (
        m[0][0], m[0][1], m[0][2],
        m[1][0], m[1][1], m[1][2],
        m[2][0], m[2][1], m[2][2],
    )


def _iter_rigidbody(config: ScenarioConfig) -> Iterator[TrajectoryRecord]:
    p = config.params
    params = mech.RigidBodyParams(_inertia_from(p))
    energy = mech.rigidbody_energy(params)
    cols = _COLUMNS["rigidbody"]
    name = config.integrator
    dt = config.dt
    pi0: Vec3 = tuple(p["Pi0"])  # type: ignore[assignment]
    r = Rotation.identity()

    if name in ("lp_exp", "lp_cayley"):
        ret = exp_retraction() if name == "lp_exp" else cayley_retraction()

        def step(r, pi):
            return gi.lie_poisson_left_step(params, ret, r, pi, dt)

        pi = pi0
        body_of = lambda r, pi: pi
    elif name == "lp_exp_right":
        ret = exp_retraction()

        def step(r, pi):
            return gi.lie_poisson_right_step(params, ret, r, pi, dt)

        pi = r.apply(pi0)  # spatial momentum carried by the right-lift scheme
        body_of = lambda r, pi: r.apply_transpose(pi)
    else:
        stepper = gi.quat_rk4_step if name == "quat_rk4" else gi.rkmk4_step

        def step(r, pi):
            out = stepper(params, gi.RigidBodyState(R=r, Pi=pi), dt)
            return out.R, out.Pi

        pi = pi0
        body_of = lambda r, pi: pi

    for k in range(1, config.steps + 1):
        r, pi = step(r, pi)
        body = body_of(r, pi)
        yield TrajectoryRecord(
            k,
            k * dt,
            _rot_row(r) + body + (energy(body), mech.rigidbody_casimir(body)),
            cols,
        )


def _iter_heavytop(config: ScenarioConfig) -> Iterator[TrajectoryRecord]:
    p = config.params
    params = mech.HeavyTopParams(
        inertia=_inertia_from(p), m=p["m"], g=p["g"], chi=tuple(p["chi"])
    )
    energy = mech.heavytop_energy(params)
    cols = _COLUMNS["heavytop"]
    name = config.integrator
    dt = config.dt
    state = gi.HeavyTopState(
        R=Rotation.identity(),
        x=(0.0, 0.0, 0.0),
        Pi=tuple(p["Pi0"]),  # type: ignore[arg-type]
        Gamma=tuple(p["Gamma0"]),  # type: ignore[arg-type]
    )
    if name == "lp_exp":
        step = lambda s: gi.heavytop_exp_step(params, s, dt)
    elif name == "lp_cayley":
        step = lambda s: gi.heavytop_cay_step(params, s, dt)
    elif name == "quat_rk4":
        step = lambda s: gi.quat_rk4_step(params, s, dt)
    else:
        step = lambda s: gi.rkmk4_step(params, s, dt)

    for k in range(1, config.steps + 1):
        state = step(state)
        pg, g2 = mech.heavytop_casimirs(state.Pi, state.Gamma)
        yield TrajectoryRecord(
            k,
            k * dt,
            _rot_row(state.R)
            + state.x
            + state.Pi
            + state.Gamma
            + (energy(state.Pi, state.Gamma), pg, g2),
            cols,
        )


def _iter_quadrotor(config: ScenarioConfig) -> Iterator[TrajectoryRecord]:
    p = config.params
    params = mech.QuadrotorParams(inertia=_inertia_from(p), m=p["m"], g=p["g"])
    cols = _COLUMNS["quadrotor_hover"]
    dt = config.dt
    thrust = p["F"] if p["F"] is not None else params.m * params.g
    u = gi.QuadrotorInput(M=tuple(p["M"]), F=float(thrust))  # type: ignore[arg-type]
    tag = EXP_TAG if config.integrator == "lp_exp" else CAYLEY_TAG
    state = gi.QuadrotorState(
        R=Rotation.identity(),
        Pi=tuple(p["Pi0"]),  # type: ignore[arg-type]
        q=tuple(p["q0"]),  # type: ignore[arg-type]
        p=tuple(p["p0"]),  # type: ignore[arg-type]
    )
    for k in range(1, config.steps + 1):
        state = gi.quadrotor_step(params, state, u, dt, tag=tag)
        yield TrajectoryRecord(
            k,
            k * dt,
            _rot_row(state.R)
            + state.Pi
            + state.q
            + state.p
            + (mech.rigidbody_casimir(state.Pi),),
            cols,
        )


_RUNNERS = {
    "harmonic": _iter_harmonic,
    "kepler": _iter_kepler,
    "pendulum_embedded": _iter_pendulum,
    "rigidbody": _iter_rigidbody,
    "heavytop": _iter_heavytop,
    "quadrotor_hover": _iter_quadrotor,
}


def iter_scenario(config: ScenarioConfig) -> Iterator[TrajectoryRecord]:
    """Lazily yield the ``steps`` records of a run; wraps step failures."""
    iterator = _RUNNERS[config.scenario](config)
    k = 1
    while True:
        try:
            record = next(iterator)
        except StopIteration:
            return
        except GeomintError as exc:
            raise IntegratorFailure(k, exc) from exc
        yield record
        k = record.step + 1


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

@dataclass(frozen=True)
class DriftSummary:
    """Initial/final values, max absolute deviation, least-squares slope vs time."""

    initial: float
    final: float
    max_abs_dev: float
    linear_slope: float


def _max_abs_dev(records: Sequence[TrajectoryRecord], column: str) -> float:
    """max |v - v0| over one value column, in pure Python.

    Equals ``float(np.max(np.abs(v - v[0])))`` bit for bit, so it returns
    NaN when any deviation is NaN.  Raises ValueError for fewer than two
    records and UnknownColumn when the records lack the column.
    """
    if len(records) < 2:
        raise ValueError("need at least two records")
    cols = records[0].columns
    # step and t live outside rec.values; indexing them would read a value column
    if column not in cols[2:]:
        raise UnknownColumn(column)
    idx = cols.index(column) - 2
    initial = records[0].values[idx]
    worst = 0.0
    for rec in records:
        dev = abs(rec.values[idx] - initial)
        if dev != dev:
            return float(dev)
        if dev > worst:
            worst = dev
    return float(worst)


def summarize_drift(records: Sequence[TrajectoryRecord], column: str) -> DriftSummary:
    """Deviation statistics of one invariant column over a run.

    The slope is the least-squares fit of the column against time, in column
    units per second.  Raises UnknownColumn when the records lack the column.
    """
    max_abs_dev = _max_abs_dev(records, column)
    import numpy as np

    idx = records[0].columns.index(column) - 2
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
        max_abs_dev=max_abs_dev,
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


def _max_orthodefect(records: Sequence[TrajectoryRecord]) -> float | None:
    cols = records[0].columns
    if "R11" not in cols:
        return None
    base = cols.index("R11") - 2
    worst = 0.0
    for rec in records:
        v = rec.values
        m = (
            (v[base], v[base + 1], v[base + 2]),
            (v[base + 3], v[base + 4], v[base + 5]),
            (v[base + 6], v[base + 7], v[base + 8]),
        )
        worst = max(worst, mech.orthogonality_defect(m))
    return worst


def compare(configs: Sequence[ScenarioConfig]) -> str:
    """Run several integrators on one scenario; return a fixed-width table.

    Columns: per-invariant max absolute deviation, max orthogonality defect
    (group scenarios), and wall time in milliseconds.  Runs are independent
    and may execute in any order.
    """
    if not configs:
        raise ValueError("no configs to compare")
    scenario = configs[0].scenario
    if any(c.scenario != scenario for c in configs):
        raise ValueError("compare requires a single shared scenario")

    invariants = _INVARIANT_COLUMNS[scenario]
    headers = ["integrator"] + [f"max|d {name}|" for name in invariants]
    group = scenario in GROUP_SCENARIOS
    if group:
        headers.append("max orthodefect")
    headers.append("wall ms")

    rows = []
    for config in configs:
        start = time.perf_counter()
        records = run_scenario(config)
        wall_ms = (time.perf_counter() - start) * 1e3
        row = [config.integrator]
        for name in invariants:
            row.append("%.3e" % _max_abs_dev(records, name))
        if group:
            defect = _max_orthodefect(records)
            row.append("%.3e" % defect if defect is not None else "-")
        row.append("%.1f" % wall_ms)
        rows.append(row)

    widths = [max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    lines.extend(
        "  ".join(r[i].ljust(widths[i]) for i in range(len(headers))) for r in rows
    )
    return "\n".join(lines)
