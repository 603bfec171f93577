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

import itertools
import math
import numbers
import os
import struct
import time
from typing import Iterable, Iterator, Sequence

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
        base = _SCENARIO_TABLE[scenario]
        if integrator not in base["integrators"]:
            raise IncompatiblePair(scenario, integrator)
        dt = base["dt"] if dt is None else dt
        steps = base["steps"] if steps is None else steps
        if integrator == "theta_family":
            theta = _number("theta", 0.5 if theta is None else theta)
            if not 0.0 <= theta <= 1.0:
                raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
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
        switches = base.get("switches", ())
        for key, value in (params or {}).items():
            if key not in merged:
                raise UnknownKey(f"unknown key {key!r} for scenario {scenario!r}")
            if key in switches and isinstance(value, bool):
                value = float(value)
            _check_param(key, merged[key], value, key in switches)
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


def _check_param(key: str, default, value, switch: bool) -> None:
    """Reject a non-finite parameter, one shaped unlike its default, or a switch not 0 or 1."""
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
    if switch and value not in (0.0, 1.0):
        raise ValueError(f"{key} must be 0 or 1, got {value!r}")


# the name the CLI and scripts build a stock config by
default_config = ScenarioConfig


# --- config file parsing ----------------------------------------------------------

def _parse_value(text: str):
    text = text.strip()
    if "," in text:
        return tuple(float(part) for part in text.split(","))
    lowered = text.lower()
    if lowered in ("true", "false"):
        # a switch word; only a switch takes one, and any other key rejects a bool
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
    values.  Raises ParseError for malformed lines and for a key the file
    gives twice, UnknownKey for keys the scenario does not define,
    IncompatiblePair for inadmissible pairs.
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
                if key in raw:
                    raise ParseError(line_no, line.rstrip("\n"), f"key {key!r} given again in")
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
        else:  # theta_family; ScenarioConfig has rejected every other name
            theta = config.theta
            pair = lambda q, p: gi.cotangent_theta_step(f1, f2, q, p, dt, theta)

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


_ROT_COLUMNS = ("R11", "R12", "R13", "R21", "R22", "R23", "R31", "R32", "R33")


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
    thrust = p["F"]
    if thrust is None:
        thrust = params.m * params.g
        if not math.isfinite(thrust):
            raise ValueError(
                f"F = m*g must be finite, got m = {params.m!r}, g = {params.g!r}"
            )
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


# --- the scenario table ------------------------------------------------------------

_FLAT_INTEGRATORS = (
    "explicit_euler", "implicit_euler", "sympl_euler_a", "sympl_euler_b",
    "stormer_verlet", "rk2", "rk4", "theta_family",
)

# One entry per scenario: admissible integrators, default dt and steps (the
# benchmark figures of record), model parameters with their defaults, the
# "switches" among them (0 or 1 only), value columns after step,t, the invariant
# columns compare reports and the setup.  Values from R11 ... R33 on carry an attitude.
_SCENARIO_TABLE: dict[str, dict] = {
    "harmonic": {
        "integrators": _FLAT_INTEGRATORS,
        "dt": 0.1, "steps": 50,
        "params": {"k": 1.0, "m": 1.0, "q0": 1.0, "v0": 0.0},
        "columns": ("q", "v", "energy"),
        "invariants": ("energy",),
        "setup": _setup_harmonic,
    },
    "kepler": {
        "integrators": _FLAT_INTEGRATORS,
        "dt": 0.01, "steps": 3000,
        "params": {"mu": 1.0, "x0": (1.0, 0.0, 0.0, 0.5)},
        "columns": ("rx", "ry", "vx", "vy", "energy", "angmom"),
        "invariants": ("energy", "angmom"),
        "setup": _setup_kepler,
    },
    "pendulum_embedded": {
        # no (q, p) split on the embedded pendulum state, so the split-variable
        # schemes stay off the menu
        "integrators": ("explicit_euler", "implicit_euler", "rk2", "rk4"),
        "dt": 0.1, "steps": 1000,
        "params": {"ml2": 1.0, "mgl": 1.0, "theta0": 1.0, "p0": 0.0, "project": 0.0},
        "switches": ("project",),
        "columns": ("x", "y", "z", "energy", "cylinder_defect"),
        "invariants": ("energy", "cylinder_defect"),
        "setup": _setup_pendulum,
    },
    "rigidbody": {
        "integrators": ("lp_exp", "lp_cayley", "lp_exp_right", "quat_rk4", "rkmk4"),
        "dt": 0.01, "steps": 180000,
        "params": {"I1": 1.0, "I2": 10.0, "I3": 100.0, "Pi0": (1.0, 1.0, 1.0)},
        "columns": _ROT_COLUMNS + ("Pi1", "Pi2", "Pi3", "energy", "casimir"),
        "invariants": ("energy", "casimir"),
        "setup": _setup_rigidbody,
    },
    "heavytop": {
        "integrators": ("lp_exp", "lp_cayley", "quat_rk4", "rkmk4"),
        "dt": 0.01, "steps": 180000,
        "params": {
            "I1": 1.0, "I2": 10.0, "I3": 100.0, "Pi0": (1.0, 1.0, 1.0),
            "Gamma0": (0.0, 0.0, 1.0), "m": 1.0, "g": 9.81, "chi": (0.0, 0.0, 1.0),
        },
        "columns": _ROT_COLUMNS + (
            "x1", "x2", "x3", "Pi1", "Pi2", "Pi3", "Gamma1", "Gamma2", "Gamma3",
            "energy", "pi_gamma", "gamma_norm2",
        ),
        "invariants": ("energy", "pi_gamma", "gamma_norm2"),
        "setup": _setup_heavytop,
    },
    "quadrotor_hover": {
        "integrators": ("lp_exp", "lp_cayley"),
        "dt": 0.01, "steps": 180000,
        "params": {
            "I1": 1.0, "I2": 10.0, "I3": 100.0, "m": 1.0, "g": 9.81,
            "Pi0": (0.0, 0.0, 1.0), "q0": (0.0, 0.0, 1.0), "p0": (0.0, 0.0, 0.0),
            "F": None,  # defaults to m*g (hover thrust)
            "M": (0.0, 0.0, 0.0),
        },
        "columns": _ROT_COLUMNS + (
            "Pi1", "Pi2", "Pi3", "q1", "q2", "q3", "p1", "p2", "p3", "casimir",
        ),
        "invariants": ("casimir",),
        "setup": _setup_quadrotor,
    },
}

SCENARIOS = tuple(_SCENARIO_TABLE)
# scenario -> admissible integrators
COMPAT: dict[str, tuple[str, ...]] = {
    name: entry["integrators"] for name, entry in _SCENARIO_TABLE.items()
}
INTEGRATORS = tuple(dict.fromkeys(name for names in COMPAT.values() for name in names))


def iter_scenario(config: ScenarioConfig) -> Iterator[TrajectoryRecord]:
    """Lazily yield the ``steps`` records of a run.

    The scenario's setup runs before the first step, and its errors propagate
    as they are; a GeomintError, ArithmeticError or ValueError raised by step
    k or its record is wrapped as IntegratorFailure(k).
    """
    entry = _SCENARIO_TABLE[config.scenario]
    state, step, row = entry["setup"](config)
    cols = ("step", "t") + entry["columns"]
    dt = config.dt
    for k in range(1, config.steps + 1):
        try:
            state = step(state)
            values = row(state)
        except (GeomintError, ArithmeticError, ValueError) as exc:
            raise IntegratorFailure(k, exc) from exc
        yield TrajectoryRecord(k, k * dt, values, cols)


def run_scenario(
    config: ScenarioConfig, out: str | None = None
) -> list[TrajectoryRecord] | int:
    """Run a scenario to completion.

    With ``out`` None, return the list of all records.  Given a path ``out``,
    stream the records into a CSV there as ``write_csv`` writes it, keep none
    of them, and return how many were written; a run that fails leaves no
    file behind and any file already at ``out`` as it was.
    """
    if out is None:
        return list(iter_scenario(config))
    return _stream_csv(iter_scenario(config), out)


def scenario_columns(scenario: str) -> tuple[str, ...]:
    if scenario not in _SCENARIO_TABLE:
        raise UnknownKey(f"unknown scenario {scenario!r}")
    return ("step", "t") + _SCENARIO_TABLE[scenario]["columns"]


# --- CSV ----------------------------------------------------------------------------

def write_csv(records: Sequence[TrajectoryRecord], path: str) -> None:
    """Write records with a header row; 17 significant digits per number.

    The file appears at ``path`` only once it is complete (see
    ``_stream_csv``); raises ValueError for no records.
    """
    _stream_csv(records, path)


# the pipe's buffer on Linux; the stepping process sends records in batches of it
_PIPE_BYTES = 65536


def _stream_csv(records: Iterable[TrajectoryRecord], path: str) -> int:
    """Write records to a CSV at ``path`` as they arrive; return their count.

    A forked writer formats the rows while this process makes the next
    records, which it packs as binary rows into a pipe.  The writer writes a
    temporary file beside ``path``, created before the first record is asked
    for, with the umask applied as for ``open``; the file replaces ``path``
    once the writer has closed it.  If the records raise or the writer fails,
    the temporary file is removed, a file already at ``path`` stays as it
    was, and the error raises here: a failed writer as an OSError naming
    ``path``.  The writer is reaped either way.
    """
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    pid = count = 0
    try:
        records = iter(records)
        first = next(records, None)
        if first is None:
            raise ValueError("no records to write")
        # a row packed: the step, then t and the values as doubles
        packed = struct.Struct("<q" + "d" * (len(first.columns) - 1))
        rows_r, rows_w = os.pipe()
        broken = False
        try:
            with open(rows_w, "wb", _PIPE_BYTES) as pipe:
                try:
                    pid = os.fork()
                    if pid == 0:
                        _write_rows(fd, rows_r, rows_w, first.columns, packed)
                finally:
                    os.close(rows_r)
                write, pack = pipe.write, packed.pack
                for count, rec in enumerate(itertools.chain((first,), records), 1):
                    write(pack(rec.step, rec.t, *rec.values))
        except BrokenPipeError:
            broken = True  # the writer left before the last row
        status, pid = os.waitpid(pid, 0)[1], 0
        if status or broken:
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise OSError(f"the CSV writer for {path} {how}; no CSV was written")
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        if pid:
            os.waitpid(pid, 0)
        raise
    finally:
        os.close(fd)
    return count


def _write_rows(
    fd: int, rows_r: int, rows_w: int, cols: tuple[str, ...], packed: struct.Struct
) -> None:
    """The writer process of ``_stream_csv``: the header, then each row
    ``packed`` read from the pipe ``rows_r``, formatted into the file ``fd``.

    It never returns: it leaves through ``os._exit``, with status 0 only once
    the file is closed.
    """
    status = 1
    try:
        os.close(rows_w)
        row = "%d" + ",%.17g" * (len(cols) - 1) + "\n"
        batch = _PIPE_BYTES // packed.size * packed.size
        with open(rows_r, "rb") as rows, open(fd, "wb") as out:
            out.write((",".join(cols) + "\n").encode())
            while chunk := rows.read(batch):
                out.write("".join([row % values for values in packed.iter_unpack(chunk)]).encode())
        status = 0
    except Exception as exc:
        os.write(2, f"error: CSV writer: {exc}\n".encode())
    finally:
        os._exit(status)


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

def _compare_row(config: ScenarioConfig) -> list[str]:
    """Run one config and return its table row: the integrator, each invariant's
    max deviation, the max orthogonality defect (group scenarios) and wall ms.

    One pass over the run keeps a running maximum per cell and no records.  A
    NaN deviation stays NaN, as ``np.max`` reports it.
    """
    entry = _SCENARIO_TABLE[config.scenario]
    idx = [entry["columns"].index(name) for name in entry["invariants"]]
    group = entry["columns"][:9] == _ROT_COLUMNS
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

    entry = _SCENARIO_TABLE[scenario]
    headers = ["integrator"] + [f"max|d {name}|" for name in entry["invariants"]]
    if entry["columns"][:9] == _ROT_COLUMNS:
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
