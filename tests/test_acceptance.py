"""Acceptance suite: the benchmark properties at their stated tolerances.

One test per criterion; each prints a single PASS/FAIL line (run pytest with
-s to see them live).  The long rotational runs stream their trajectories so
the whole suite stays within desk-scale memory, and the ten independent runs
of criteria 4-6 share one call of compare's forked workers.
"""

import math

import numpy as np
import pytest

from geomint import bench, selfcheck
from geomint import mechanics as mech
from geomint.bench import default_config, iter_scenario, run_scenario, summarize_drift
from geomint.geometry import exp_retraction
from geomint.integrators import (
    QuadrotorInput,
    QuadrotorState,
    lie_poisson_left_step,
    quadrotor_step,
)
from geomint.mechanics import QuadrotorParams, RigidBodyParams
from geomint.so3 import Rotation


def _report(criterion: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {criterion}")
    assert not failures, f"{criterion}: " + "; ".join(failures)


def _ls_slope(times, values):
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    tc = t - t.mean()
    denom = float(tc @ tc)
    return float(tc @ (v - v.mean()) / denom) if denom > 0.0 else 0.0


# --- criterion 1: harmonic oscillator -----------------------------------------------

def test_criterion_1_harmonic_oscillator():
    failures = []
    e0 = 0.5

    energies = {}
    for name in ("explicit_euler", "implicit_euler", "sympl_euler_a", "sympl_euler_b"):
        records = run_scenario(default_config("harmonic", name))
        assert len(records) == 50
        energies[name] = [e0] + [r.value("energy") for r in records]

    ex = energies["explicit_euler"]
    if not all(b > a for a, b in zip(ex, ex[1:])):
        failures.append("explicit Euler energy not strictly increasing")
    im = energies["implicit_euler"]
    if not all(b < a for a, b in zip(im, im[1:])):
        failures.append("implicit Euler energy not strictly decreasing")

    for name in ("sympl_euler_a", "sympl_euler_b"):
        devs = [e - e0 for e in energies[name][1:]]
        if max(abs(d) for d in devs) > 0.06 * e0:
            failures.append(f"{name} energy leaves the 6% band")
        crossings = sum(1 for a, b in zip(devs, devs[1:]) if a * b < 0)
        if crossings < 1:
            failures.append(f"{name} energy shows a monotone trend")

    _report("criterion 1: harmonic oscillator energy behavior", failures)


# --- criterion 2: Kepler ---------------------------------------------------------------

def test_criterion_2_kepler():
    failures = []
    records = run_scenario(default_config("kepler", "stormer_verlet"))
    l0 = 0.5
    e0 = 0.5 * 0.25 - 1.0  # energy of x0 = (1, 0, 0, 0.5)
    if max(abs(r.value("angmom") - l0) for r in records) > 1e-12:
        failures.append("Stormer-Verlet angular momentum deviates beyond 1e-12")

    devs = np.array([r.value("energy") - e0 for r in records])
    times = np.array([r.t for r in records])
    if np.max(np.abs(devs)) > 0.05:
        failures.append("Stormer-Verlet energy oscillation not bounded by 0.05")

    # secular (per-orbit) slope: raw per-record fits alias the perihelion
    # spikes, so the drift is measured on the phase-matched aphelion samples
    radii = np.array([math.hypot(r.value("rx"), r.value("ry")) for r in records])
    aph = [
        i
        for i in range(1, len(records) - 1)
        if radii[i] > radii[i - 1] and radii[i] > radii[i + 1]
    ]
    if len(aph) < 5:
        failures.append("too few orbits to measure the secular energy slope")
    else:
        slope = _ls_slope(times[aph], devs[aph])
        if abs(slope) >= 1e-9:
            failures.append(
                f"Stormer-Verlet secular energy slope {slope:.3e} >= 1e-9 per unit time"
            )

    rk2 = run_scenario(default_config("kepler", "rk2"))
    full = summarize_drift(rk2, "energy").linear_slope
    first = summarize_drift(rk2[: len(rk2) // 2], "energy").linear_slope
    second = summarize_drift(rk2[len(rk2) // 2 :], "energy").linear_slope
    if abs(full) < 1e-6:
        failures.append("RK2 energy slope not significantly nonzero")
    if not (math.copysign(1.0, first) == math.copysign(1.0, second) == math.copysign(1.0, full)):
        failures.append("RK2 energy slope sign not consistent across the run")

    _report("criterion 2: Kepler angular momentum and energy drift", failures)


# --- criterion 3: embedded pendulum -------------------------------------------------------

def test_criterion_3_embedded_pendulum():
    failures = []
    raw = run_scenario(default_config("pendulum_embedded", "rk2"))
    if max(r.value("cylinder_defect") for r in raw) <= 1e-3:
        failures.append("unprojected RK2 cylinder defect stays below 1e-3")

    projected = run_scenario(
        default_config("pendulum_embedded", "rk2", params={"project": 1.0})
    )
    if max(r.value("cylinder_defect") for r in projected) > 1e-15:
        failures.append("projected trajectory leaves the cylinder beyond 1e-15")

    slope = summarize_drift(projected, "energy").linear_slope
    if abs(slope) < 1e-6:
        failures.append("projected RK2 energy slope vanishes; expected drift")

    _report("criterion 3: embedded pendulum projection and energy drift", failures)


# --- criteria 4-6: long runs ----------------------------------------------------------------
#
# The independent runs of criteria 4-6 go through compare's forked workers, one
# per usable CPU, in one call.  A run returns its figures by name; they travel
# as repr strings, which float() reads back exactly, and each criterion
# applies its bounds to its own runs.

def _figures_in_workers(fn, items):
    """fn(item), a dict of figures, for each item in order, from forked workers."""

    def row(item):
        return [text for key, value in fn(item).items() for text in (key, repr(float(value)))]

    return [
        {key: float(text) for key, text in zip(r[::2], r[1::2])}
        for r in bench._rows_in_workers(row, items)
    ]


# (criterion, run), longest first so that the workers finish together: run
# alone on a 2-vCPU VM they take from 9.1 s (heavy-top lp_exp) down to 3.3 s
# (the hover run)
_LONG_RUNS = (
    (5, "lp_exp"), (6, "decoupled"), (4, "quat_rk4"), (5, "lp_cayley"), (4, "rkmk4"),
    (5, "rkmk4"), (4, "lp_exp"), (5, "quat_rk4"), (4, "lp_cayley"), (6, "hover"),
)


@pytest.fixture(scope="module")
def long_runs():
    """Figures of each run in _LONG_RUNS, keyed by (criterion, run), from one pool call."""
    figures = {
        4: _rigid_body_figures,
        5: _heavy_top_figures,
        6: lambda run: _hover_figures() if run == "hover" else _decoupled_figures(),
    }
    rows = _figures_in_workers(lambda item: figures[item[0]](item[1]), _LONG_RUNS)
    return dict(zip(_LONG_RUNS, rows))


def _stream_group_run(scenario, integrator, columns):
    """Stream one 180000-step run; return times and the tracked columns."""
    config = default_config(scenario, integrator)
    cols = bench.scenario_columns(scenario)
    base = cols.index("R11") - 2
    tracked = {name: np.empty(config.steps) for name in columns}
    ortho = 0.0
    times = np.empty(config.steps)
    k = 0
    for rec in iter_scenario(config):
        times[k] = rec.t
        for name in columns:
            tracked[name][k] = rec.value(name)
        v = rec.values
        m = (
            (v[base], v[base + 1], v[base + 2]),
            (v[base + 3], v[base + 4], v[base + 5]),
            (v[base + 6], v[base + 7], v[base + 8]),
        )
        ortho = max(ortho, mech.orthogonality_defect(m))
        k += 1
    return times, tracked, ortho


def _half_slopes(times, values):
    """Least-squares slopes over the first half, the second half and the whole run."""
    half = len(times) // 2
    return (
        _ls_slope(times[:half], values[:half]),
        _ls_slope(times[half:], values[half:]),
        _ls_slope(times, values),
    )


CASIMIR_CONTRAST = 1e3  # baseline leak over the geometric schemes' worst


def _casimir_leak_failures(name, run, dev_yardstick, slope_yardstick):
    """Baseline clause of criterion 4: a secular Casimir leak far above roundoff.

    RK4 is not Poisson, so |Pi|^2 leaks by truncation error: the final
    deviation and the least-squares slope (per unit time) must both stand at
    least CASIMIR_CONTRAST times above the geometric schemes' worst, and the
    slope must keep its sign over each half of the run and the whole of it.
    """
    failures = []
    final_dev = run["cas_final_dev"]
    if final_dev < CASIMIR_CONTRAST * dev_yardstick:
        failures.append(
            f"{name} final Casimir deviation {final_dev:.3e} is "
            f"{final_dev / dev_yardstick:.3g}x the geometric worst "
            f"{dev_yardstick:.3e}, below {CASIMIR_CONTRAST:.0e}x"
        )
    first, second, full = run["cas_slope_first"], run["cas_slope_second"], run["cas_slope"]
    if not (math.copysign(1.0, first) == math.copysign(1.0, second) == math.copysign(1.0, full)):
        failures.append(
            f"{name} Casimir slope sign not consistent across the run "
            f"(first half {first:.3e}, second half {second:.3e}, whole {full:.3e})"
        )
    if abs(full) < CASIMIR_CONTRAST * slope_yardstick:
        failures.append(
            f"{name} Casimir slope {full:.3e} per unit time is "
            f"{abs(full) / slope_yardstick:.3g}x the geometric worst "
            f"{slope_yardstick:.3e}, below {CASIMIR_CONTRAST:.0e}x"
        )
    return failures


def _rigid_body_figures(name):
    """Casimir, energy and orthogonality figures of one stock rigid-body run."""
    times, cols, ortho = _stream_group_run("rigidbody", name, ("energy", "casimir"))
    casimir = cols["casimir"]
    first, second, full = _half_slopes(times, casimir)
    return {
        "cas_dev": np.max(np.abs(casimir - 3.0)),
        "cas_final_dev": abs(casimir[-1] - 3.0),
        "cas_slope_first": first,
        "cas_slope_second": second,
        "cas_slope": full,
        "span": times[-1] - times[0],
        "ortho": ortho,
        "e_dev": np.max(np.abs(cols["energy"] - 0.555)),  # energy of Pi0 = (1,1,1)
        "e_slope": _ls_slope(times, cols["energy"]),
    }


def test_criterion_4_rigid_body(long_runs):
    failures = []
    dt = 0.01
    runs = {name: long_runs[4, name] for name in ("lp_exp", "lp_cayley", "quat_rk4", "rkmk4")}
    # geometric yardsticks for the baseline clause, floored at one ulp of
    # C = 3 (over the run's length, for the slope) so they never read 0
    cas_yardstick = math.ulp(3.0)
    slope_yardstick = 0.0

    for name in ("lp_exp", "lp_cayley"):
        run = runs[name]
        cas_dev = run["cas_dev"]
        cas_yardstick = max(cas_yardstick, cas_dev)
        slope_yardstick = max(
            slope_yardstick,
            abs(run["cas_slope_first"]),
            abs(run["cas_slope_second"]),
            abs(run["cas_slope"]),
            math.ulp(3.0) / run["span"],
        )
        if cas_dev > 1e-9:
            failures.append(f"{name} Casimir deviation {cas_dev:.3e} > 1e-9")
        if run["ortho"] > 1e-9:
            failures.append(f"{name} orthogonality defect {run['ortho']:.3e} > 1e-9")
        if run["e_dev"] > 1e-3:
            failures.append(f"{name} energy band {run['e_dev']:.3e} wider than 1e-3")
        slope_per_step = dt * run["e_slope"]
        if abs(slope_per_step) > 1e-10:
            failures.append(
                f"{name} energy slope {slope_per_step:.3e} per step > 1e-10"
            )

    for name in ("quat_rk4", "rkmk4"):
        failures += _casimir_leak_failures(name, runs[name], cas_yardstick, slope_yardstick)

    _report("criterion 4: rigid body Casimir/energy contrast", failures)


def _heavy_top_figures(name):
    """|Gamma|^2 deviation and Pi.Gamma slope (per unit time) of one stock heavy-top run."""
    times, cols, _ = _stream_group_run("heavytop", name, ("pi_gamma", "gamma_norm2"))
    return {
        "g_dev": np.max(np.abs(cols["gamma_norm2"] - 1.0)),
        "pg_slope": _ls_slope(times, cols["pi_gamma"]),
    }


def test_criterion_5_heavy_top(long_runs):
    failures = []
    dt = 0.01
    runs = {name: long_runs[5, name] for name in ("lp_exp", "lp_cayley", "quat_rk4", "rkmk4")}

    for name in ("lp_exp", "lp_cayley"):
        g_dev = runs[name]["g_dev"]
        if g_dev > 1e-10:
            failures.append(f"{name} |Gamma|^2 deviation {g_dev:.3e} > 1e-10")
        slope_per_step = dt * runs[name]["pg_slope"]
        if abs(slope_per_step) > 1e-9:
            failures.append(
                f"{name} Pi.Gamma slope {slope_per_step:.3e} per step > 1e-9"
            )

    for name in ("quat_rk4", "rkmk4"):
        g_dev = runs[name]["g_dev"]
        slope_per_step = dt * runs[name]["pg_slope"]
        if g_dev <= 1e-10 and abs(slope_per_step) <= 1e-9:
            failures.append(
                f"{name} violates neither bound "
                f"(|Gamma|^2 dev {g_dev:.3e}, slope {slope_per_step:.3e})"
            )

    _report("criterion 5: heavy top Casimir contrast", failures)


def _hover_figures():
    """Worst position and momentum deviation of the stock hover run."""
    worst_q = 0.0
    worst_p = 0.0
    target = (0.0, 0.0, 1.0)
    for rec in iter_scenario(default_config("quadrotor_hover", "lp_exp")):
        worst_q = max(
            worst_q,
            abs(rec.value("q1") - target[0]),
            abs(rec.value("q2") - target[1]),
            abs(rec.value("q3") - target[2]),
        )
        worst_p = max(
            worst_p, abs(rec.value("p1")), abs(rec.value("p2")), abs(rec.value("p3"))
        )
    return {"worst_q": worst_q, "worst_p": worst_p}


def _decoupled_figures():
    """First step at which the decoupled quadrotor leaves the free rigid body, or 0.

    With M = 0, F = 0 and g = 0 the rotation must retrace lp_exp bitwise.
    """
    params = QuadrotorParams(
        inertia=((1.0, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 100.0)),
        m=1.0,
        g=0.0,
    )
    rb_params = RigidBodyParams.from_diag(1.0, 10.0, 100.0)
    u = QuadrotorInput(M=(0.0, 0.0, 0.0), F=0.0)
    state = QuadrotorState(
        R=Rotation.identity(), Pi=(1.0, 1.0, 1.0), q=(0.0, 0.0, 1.0), p=(0.0, 0.0, 0.0)
    )
    ret = exp_retraction()
    r, pi = state.R, state.Pi
    for k in range(180000):
        state = quadrotor_step(params, state, u, 0.01)
        r, pi = lie_poisson_left_step(rb_params, ret, r, pi, 0.01)
        if state.R.m != r.m or state.Pi != pi:
            return {"mismatch": k + 1}
    return {"mismatch": 0}


def test_criterion_6_quadrotor_hover(long_runs):
    failures = []
    hover, decoupled = long_runs[6, "hover"], long_runs[6, "decoupled"]
    if hover["worst_q"] > 1e-10:
        failures.append(f"hover position deviates by {hover['worst_q']:.3e} > 1e-10")
    if hover["worst_p"] > 1e-10:
        failures.append(f"hover momentum deviates by {hover['worst_p']:.3e} > 1e-10")
    if decoupled["mismatch"]:
        failures.append(
            f"decoupled rotation diverges from lp_exp at step {int(decoupled['mismatch'])}"
        )

    _report("criterion 6: quadrotor hover exactness and decoupled limit", failures)


# --- criterion 7: oracle suites ------------------------------------------------------------------

def test_criterion_7_oracle_suites():
    # the oracles are defined once, in selfcheck; each failing check is named
    failures = [name for name, check in selfcheck.CHECKS if not check()]
    _report("criterion 7: oracle suites", failures)
