"""Geometric integrator tests: scheme relations, Casimirs, step-map structure, global orders.

TestGlobalOrder pins every scheme's order of convergence against the test's
own RK4 of the continuous equations, or the harmonic oscillator's closed form.
"""

import functools
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geomint import bench, integrators, odecore, so3
from geomint.errors import (
    GeomintError,
    NoConvergence,
    NotRotation,
    OutOfChart,
    SingularJacobian,
    SingularOrigin,
)
from geomint.geometry import (
    CAYLEY_TAG,
    EXP_TAG,
    TrivializedRetraction,
    cayley_retraction,
    exp_retraction,
    flat_discretize_inverse,
    triv_disc_inverse_left,
    triv_disc_inverse_right,
)
from geomint.integrators import (
    HeavyTopState,
    QuadrotorInput,
    QuadrotorState,
    RigidBodyState,
    cotangent_theta_step,
    heavytop_cay_step,
    heavytop_exp_step,
    implicit_disc_step,
    lie_poisson_left_step,
    lie_poisson_right_step,
    quadrotor_step,
    quat_rk4_step,
    rkmk4_step,
    _heavytop_eval,
    _solve_body_omega,
    _solve_heavytop_omega,
)
from geomint.mechanics import (
    HarmonicOscillatorParams,
    HeavyTopParams,
    KeplerParams,
    PendulumParams,
    QuadrotorParams,
    RigidBodyParams,
    _self_dot,
    heavytop_casimirs,
    ho_split_fields,
    ho_vectorfield,
    kepler_split_fields,
    kepler_vectorfield,
    pendulum_embedded_vf,
    rigidbody_energy,
)
from geomint.odecore import (
    FD_STEP,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    ButcherTableau,
    PartitionedTableau,
    implicit_euler_step,
    implicit_euler_tableau,
    newton_solve,
    prk_step,
    rk_step,
    stormer_verlet_tableau,
    symplectic_euler_a_step,
    symplectic_euler_b_step,
    symplectic_euler_tableau,
)
from geomint.so3 import (
    Q_mat,
    Rotation,
    cross,
    dot,
    exp_so3,
    mat_T_vec,
    mat_vec,
    norm,
    solve3,
    vec_add,
    vec_scale,
    vec_sub,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
PARAMS = RigidBodyParams.from_diag(1.0, 10.0, 100.0)
HT_PARAMS = HeavyTopParams(
    inertia=((1.0, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 100.0)),
    m=1.0,
    g=9.81,
    chi=(0.0, 0.0, 1.0),
)
EXP = exp_retraction()
CAY = cayley_retraction()


def _ho_field(x):
    return np.stack([x[..., 1], -x[..., 0]], axis=-1)


def _f1(q, p):
    return np.asarray(p, dtype=float)


def _f2(q, p):
    return -np.asarray(q, dtype=float)


def _vec_err(a, b):
    return max(abs(a[i] - b[i]) for i in range(3))


def _mat_err(a, b):
    return max(abs(a[i][j] - b[i][j]) for i in range(3) for j in range(3))


class TestImplicitDiscStep:
    def test_theta_half_is_midpoint(self):
        h = 0.1
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        expected = np.linalg.solve(np.eye(2) - h / 2.0 * a, np.eye(2) + h / 2.0 * a)
        cols = []
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            cols.append(implicit_disc_step(_ho_field, e, h, 0.5))
        s = np.column_stack(cols)
        assert np.max(np.abs(s - expected)) < 1e-12


class TestCotangentThetaStep:
    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_symplectic_one_step_matrix(self, theta):
        h = 0.1
        cols = []
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            q, p = cotangent_theta_step(_f1, _f2, e[:1], e[1:], h, theta)
            cols.append(np.concatenate([q, p]))
        s = np.column_stack(cols)
        assert np.max(np.abs(s.T @ J2 @ s - J2)) < 1e-12


# each flat step and its adjoint (HLW II.3) on the Kepler problem: a step by h
# with one and a step by -h with the other solve the same equations, so the
# pair retraces its start; theta = 1/2 and Stormer-Verlet are their own adjoints
_KEPLER = KeplerParams(mu=1.0)


def _disc(theta):
    f = kepler_vectorfield(_KEPLER)
    return lambda x, h: implicit_disc_step(f, x, h, theta)


def _lift(theta):
    f1, f2 = kepler_split_fields(_KEPLER)
    return lambda x, h: np.concatenate(cotangent_theta_step(f1, f2, x[:2], x[2:], h, theta))


def _verlet(x, h):
    f1, f2 = kepler_split_fields(_KEPLER)
    return np.concatenate(prk_step(stormer_verlet_tableau(), f1, f2, x[:2], x[2:], h))


_ADJOINT_PAIRS = {
    "euler": (_disc(0.0), _disc(1.0)),
    "theta_0.3": (_disc(0.3), _disc(0.7)),
    "midpoint": (_disc(0.5),) * 2,
    "symplectic_euler": (_lift(0.0), _lift(1.0)),
    "lift_0.3": (_lift(0.3), _lift(0.7)),
    "lift_midpoint": (_lift(0.5),) * 2,
    "stormer_verlet": (_verlet,) * 2,
}


class TestAdjointSteps:
    @pytest.mark.parametrize("pair", sorted(_ADJOINT_PAIRS))
    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(0.5, 2.0), st.floats(-math.pi, math.pi),
        st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.05, 0.05),
    )
    def test_adjoint_step_retraces(self, pair, r, angle, px, py, h):
        step, adjoint = _ADJOINT_PAIRS[pair]
        x = np.array([r * math.cos(angle), r * math.sin(angle), px, py])
        back = adjoint(step(x, h), -h)
        # each solve stops at a residual under NEWTON_TOL, which the inverse of
        # I - h f' (norm under 5 for r >= 1/2 and |h| <= 0.05) can magnify
        assert np.max(np.abs(back - x)) < 10 * NEWTON_TOL


class TestLiePoissonLeft:
    def test_principal_axis_equilibrium(self):
        ret = exp_retraction()
        r = Rotation.identity()
        pi = (2.5, 0.0, 0.0)
        r2, pi2 = lie_poisson_left_step(PARAMS, ret, r, pi, 0.3)
        assert _vec_err(pi2, pi) < 1e-15
        # attitude advanced by a rotation about the same axis
        axis = so3.log_so3(r2)
        assert abs(axis[1]) < 1e-12 and abs(axis[2]) < 1e-12
        assert axis[0] > 0.0

    def test_raises_on_hopeless_newton(self):
        # stock inertia and steps far outside the well-posed range: the solve
        # of either retraction runs out of iterations, and names where it stopped
        for ret, dt, pi, note in (
            (EXP, 10.0, (0.6140538365871127, -1.075555113026388, 1.9948919873750555), "5.80651"),
            (CAY, 50.0, (0.1743003613977674, -1.2411370181124546, 2.7856030658969004), "2.09444"),
        ):
            with pytest.raises(NoConvergence) as info:
                lie_poisson_left_step(PARAMS, ret, Rotation.identity(), pi, dt)
            assert str(info.value).startswith("no convergence after 50 iterations")
            assert str(info.value).endswith(f" at |dt*Omega| = {note}")

    def test_root_outside_the_exp_chart_is_rejected(self):
        # Newton converges, but to |dt*Omega| past pi, where exp does not invert
        with pytest.raises(OutOfChart) as info:
            _solve_body_omega(PARAMS, (1.0, 1.0, 1.0), 50.0, EXP)
        assert str(info.value) == (
            "exp step |dt*Omega| = 49.9687 >= pi = 3.14159; "
            "the root lies outside the retraction's chart"
        )

    @pytest.mark.parametrize(
        "ret, pi", [(EXP, (0.0, -0.0, 1.0)), (CAY, (-0.0, 2.0, 0.0))], ids=["exp", "cayley"]
    )
    def test_signed_zero_momentum_gives_positive_zero_rates(self, ret, pi):
        # the Jacobian keeps its products with 0.0, so a -0.0 in Pi leaves +0.0 in Omega
        omega = _solve_body_omega(PARAMS, pi, 0.01, ret)
        for p, w in zip(pi, omega):
            if p == 0.0:
                assert w == 0.0 and math.copysign(1.0, w) == 1.0


class TestLiePoissonRight:
    def test_spatial_momentum_bitwise_constant(self):
        ret = exp_retraction()
        r = exp_so3((0.1, 0.2, -0.3))
        mu = (0.7, -0.4, 1.1)
        r2, mu2 = lie_poisson_right_step(PARAMS, ret, r, mu, 0.05)
        assert mu2 == mu

    def test_principal_axis(self):
        ret = exp_retraction()
        r = Rotation.identity()
        mu = (2.5, 0.0, 0.0)  # spatial = body at identity
        r2, mu2 = lie_poisson_right_step(PARAMS, ret, r, mu, 0.3)
        axis = so3.log_so3(r2)
        assert abs(axis[1]) < 1e-12 and abs(axis[2]) < 1e-12


class TestRigidBodySteps:
    def test_spherical_body_preserves_momentum_norm(self):
        params = RigidBodyParams.from_diag(1.0, 1.0, 1.0)
        r, pi = Rotation.identity(), (0.3, -0.5, 0.8)
        r2, pi2 = lie_poisson_left_step(params, EXP, r, pi, 0.2)
        assert abs(norm(pi2) - norm(pi)) < 1e-13
        # isotropic case: Pi x Omega = 0, so Pi is exactly fixed
        assert _vec_err(pi2, pi) < 1e-13

    def test_tiny_step_omega_is_inertia_inverse_pi(self):
        dt = 1e-8
        pi = (1.0, 1.0, 1.0)
        r2, pi2 = lie_poisson_left_step(PARAMS, EXP, Rotation.identity(), pi, dt)
        xi = so3.log_so3(r2)
        omega = vec_scale(xi, 1.0 / dt)
        expected = mat_vec(PARAMS.inertia_inv, pi)
        rel = max(
            abs(omega[i] - expected[i]) / max(abs(expected[i]), 1e-30)
            for i in range(3)
        )
        assert rel < 1e-6

    def test_energy_band_no_secular_slope(self):
        energy = rigidbody_energy(PARAMS)
        r, pi = Rotation.identity(), (1.0, 1.0, 1.0)
        e0 = energy(pi)
        n = 10000
        devs = np.empty(n)
        for k in range(n):
            r, pi = lie_poisson_left_step(PARAMS, EXP, r, pi, 0.01)
            devs[k] = energy(pi) - e0
        assert np.max(np.abs(devs)) < 1e-4
        t = 0.01 * np.arange(1, n + 1)
        tc = t - t.mean()
        slope_per_step = 0.01 * float(tc @ (devs - devs.mean()) / (tc @ tc))
        assert abs(slope_per_step) < 1e-10


def _rk4_reference(params, n):
    """n classical RK4 steps to T = 1 of the continuous equations, on plain floats.

    The state is (R row by row, Pi, Gamma, q, p), 21 floats from R = I, for
    R_dot = R hat(Omega), Pi_dot = Pi x Omega + m g Gamma x chi + M,
    Gamma_dot = Gamma x Omega, q_dot = p / m and p_dot = F R e3 - m g e3, with
    Omega = I^-1 Pi for the diagonal inertia (I1, I2, I3).  ``params`` are a
    scenario's model parameters: the rigid body has no chi, M, F, m or g, the
    heavy top no M or F, and the quadrotor no chi, so each term is off where
    its scenario lacks it.
    """
    inertia = (params["I1"], params["I2"], params["I3"])
    m, g = params.get("m", 1.0), params.get("g", 0.0)
    chi = params.get("chi", (0.0, 0.0, 0.0))
    moment = params.get("M", (0.0, 0.0, 0.0))
    thrust = params.get("F", 0.0)
    thrust = m * g if thrust is None else thrust  # None is the hover thrust
    torque = [m * g * c for c in chi]
    h = 1.0 / n

    def field(y):
        pi, gamma, p = y[9:12], y[12:15], y[18:21]
        w = [pi[i] / inertia[i] for i in range(3)]
        r_dot = []
        for i in range(3):
            a, b, c = y[3 * i : 3 * i + 3]
            r_dot += [b * w[2] - c * w[1], c * w[0] - a * w[2], a * w[1] - b * w[0]]
        pi_dot = [
            pi[1] * w[2] - pi[2] * w[1] + gamma[1] * torque[2] - gamma[2] * torque[1] + moment[0],
            pi[2] * w[0] - pi[0] * w[2] + gamma[2] * torque[0] - gamma[0] * torque[2] + moment[1],
            pi[0] * w[1] - pi[1] * w[0] + gamma[0] * torque[1] - gamma[1] * torque[0] + moment[2],
        ]
        gamma_dot = [
            gamma[1] * w[2] - gamma[2] * w[1],
            gamma[2] * w[0] - gamma[0] * w[2],
            gamma[0] * w[1] - gamma[1] * w[0],
        ]
        p_dot = [thrust * y[2], thrust * y[5], thrust * y[8] - m * g]
        return r_dot + pi_dot + gamma_dot + [x / m for x in p] + p_dot

    y = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0]
    for name in ("Pi0", "Gamma0", "q0", "p0"):
        y += params.get(name, (0.0, 0.0, 0.0))
    for _ in range(n):
        k1 = field(y)
        k2 = field([a + 0.5 * h * b for a, b in zip(y, k1)])
        k3 = field([a + 0.5 * h * b for a, b in zip(y, k2)])
        k4 = field([a + h * b for a, b in zip(y, k3)])
        y = [a + h / 6.0 * (b + 2.0 * c + 2.0 * d + e) for a, b, c, d, e in zip(y, k1, k2, k3, k4)]
    return y


# model parameters over each scenario's stock ones: the heavy top starts tilted,
# so gravity acts from the first step, and the quadrotor leaves hover
_ORDER_PARAMS = {
    "rigidbody": {},
    "heavytop": {"Gamma0": (0.6, 0.0, 0.8), "chi": (0.3, -0.2, 1.0)},
    "quadrotor_hover": {
        "Pi0": (1.0, 0.5, -0.3), "p0": (0.1, 0.0, 0.0), "M": (0.2, -0.1, 0.3), "F": 12.0,
    },
    "harmonic": {},
}
# a component's columns; "state" is the flat scenarios' whole state
_ORDER_COLUMNS = {
    "attitude": tuple(f"R{i}{j}" for i in "123" for j in "123"),
    **{name: (f"{name}1", f"{name}2", f"{name}3") for name in ("Pi", "Gamma", "q", "p")},
    "state": ("q", "v"),
}
_FREE_BODY = {"attitude": 2, "Pi": 2}
_HEAVY_TOP = {"attitude": 2, "Pi": 2, "Gamma": 2}
_QUADROTOR = {"attitude": 1, "Pi": 1, "q": 1, "p": 1}
# (scenario, integrator) -> the global order of each component
_ORDERS = {
    ("rigidbody", "lp_exp"): _FREE_BODY,
    ("rigidbody", "lp_cayley"): _FREE_BODY,
    ("rigidbody", "lp_exp_right"): _FREE_BODY,
    ("rigidbody", "quat_rk4"): {"attitude": 4, "Pi": 4},
    ("rigidbody", "rkmk4"): {"attitude": 4, "Pi": 4},
    ("heavytop", "lp_exp"): _HEAVY_TOP,
    ("heavytop", "lp_cayley"): _HEAVY_TOP,
    ("heavytop", "quat_rk4"): {"attitude": 4, "Pi": 4, "Gamma": 4},
    ("heavytop", "rkmk4"): {"attitude": 4, "Pi": 4, "Gamma": 4},
    ("quadrotor_hover", "lp_exp"): _QUADROTOR,
    ("quadrotor_hover", "lp_cayley"): _QUADROTOR,
    ("harmonic", "explicit_euler"): {"state": 1},
    ("harmonic", "implicit_euler"): {"state": 1},
    ("harmonic", "sympl_euler_a"): {"state": 1},
    ("harmonic", "sympl_euler_b"): {"state": 1},
    ("harmonic", "stormer_verlet"): {"state": 2},
    ("harmonic", "rk2"): {"state": 2},
    ("harmonic", "rk4"): {"state": 4},
    ("harmonic", "theta_family"): {"state": 2},  # theta = 1/2
}
_RKMK4_FRAME = pytest.mark.xfail(
    strict=True,
    reason="rkmk4 applies dexpinv at u where its left-translated attitude needs it "
    "at -u, so the attitude is second order (ROADMAP item 13)",
)
_ORDER_CASES = [
    pytest.param(
        scenario, integrator, component, order, id=f"{scenario}-{integrator}-{component}",
        marks=[_RKMK4_FRAME] if (integrator, component) == ("rkmk4", "attitude") else [],
    )
    for (scenario, integrator), orders in _ORDERS.items()
    for component, order in orders.items()
]


@functools.lru_cache(maxsize=None)
def _order_reference(scenario):
    """Column -> value at T = 1: the harmonic closed form, or RK4 at h = 2.5e-4."""
    p = bench.ScenarioConfig(
        scenario, bench.COMPAT[scenario][0], params=_ORDER_PARAMS[scenario]
    ).params
    if scenario == "harmonic":
        w = math.sqrt(p["k"] / p["m"])
        c, s = math.cos(w), math.sin(w)
        return {"q": p["q0"] * c + p["v0"] / w * s, "v": p["v0"] * c - p["q0"] * w * s}
    names = [x for c in ("attitude", "Pi", "Gamma", "q", "p") for x in _ORDER_COLUMNS[c]]
    return dict(zip(names, _rk4_reference(p, 4000)))


@functools.lru_cache(maxsize=None)
def _order_errors(scenario, integrator):
    """Component -> its max-norm errors at T = 1 after each of TestGlobalOrder.STEPS."""
    ref = _order_reference(scenario)
    errors = {component: [] for component in _ORDERS[scenario, integrator]}
    for n in TestGlobalOrder.STEPS:
        config = bench.ScenarioConfig(
            scenario, integrator, dt=1.0 / n, steps=n, params=_ORDER_PARAMS[scenario]
        )
        *_, last = bench.iter_scenario(config)
        for component, errs in errors.items():
            errs.append(max(abs(last.value(c) - ref[c]) for c in _ORDER_COLUMNS[component]))
    return errors


class TestGlobalOrder:
    """Each scheme converges to the continuous equations at its order.

    Every admissible pair of the rotational scenarios and every flat scheme on
    the harmonic oscillator runs to T = 1 at n = 50, 100 and 200 steps, from
    _ORDER_PARAMS, against _rk4_reference at h = 2.5e-4 (the rotational
    scenarios) or the closed form (harmonic).  The reference's own error, read
    against a run at half its step, is 6e-15 for the rigid body and at most
    4e-13 for the others; the smallest scheme errors at n = 200 are 5e-13
    (rigid-body quat_rk4 attitude) and 4e-9 (heavy-top quat_rk4 attitude).
    The observed order of a component is log2 of its error ratio between
    consecutive n.  Measured before the band was set, every order lies within
    0.063 of its table entry: 0.977-1.062 for order 1 (the quadrotor with
    Cayley at both ends), 1.990-2.001 for order 2 (heavy-top Cayley Pi at the
    low end) and 3.979-4.009 for order 4 (heavy-top quat_rk4 Pi and rigid-body
    quat_rk4 attitude).  So the band is the table's order +- 0.1: a
    scheme one order off, or one with a wrong sign or frame that does not
    converge, falls out of it.  rkmk4's attitude reads 2.00 and is a strict
    xfail until its frame is fixed.
    """

    STEPS = (50, 100, 200)

    @pytest.mark.parametrize("scenario, integrator, component, order", _ORDER_CASES)
    def test_observed_order(self, scenario, integrator, component, order):
        errors = _order_errors(scenario, integrator)[component]
        observed = [math.log2(coarse / fine) for coarse, fine in zip(errors, errors[1:])]
        assert all(abs(x - order) < 0.1 for x in observed), (observed, errors)

    def test_every_scheme_has_an_order(self):
        # every pair of a scenario with an attitude, and every flat integrator
        # on the harmonic oscillator: a new scheme comes with its order
        group = [s for s in bench.SCENARIOS if bench.scenario_columns(s)[2] == "R11"]
        pairs = {(s, i) for s in group for i in bench.COMPAT[s]}
        flat = {i for s in bench.SCENARIOS if s not in group for i in bench.COMPAT[s]}
        assert set(_ORDERS) == pairs | {("harmonic", i) for i in flat}


class TestHeavyTop:
    STATE = HeavyTopState(
        R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=(1.0, 1.0, 1.0),
        Gamma=(0.0, 0.0, 1.0),
    )

    def test_chi_zero_reduces_to_rigid_body(self):
        params = HeavyTopParams(
            inertia=HT_PARAMS.inertia, m=1.0, g=9.81, chi=(0.0, 0.0, 0.0)
        )
        s = heavytop_exp_step(params, self.STATE, 0.01)
        r2, pi2 = lie_poisson_left_step(PARAMS, EXP, self.STATE.R, self.STATE.Pi, 0.01)
        assert _vec_err(s.Pi, pi2) < 1e-14
        assert _mat_err(s.R.m, r2.m) < 1e-14
        assert s.x == (0.0, 0.0, 0.0)
        # the advected vector rides the inverse step rotation
        expected_gamma = mat_T_vec(
            so3.mat_mul(so3.mat_transpose(self.STATE.R.m), s.R.m),
            self.STATE.Gamma,
        )
        assert _vec_err(s.Gamma, expected_gamma) < 1e-13
        s = heavytop_cay_step(params, self.STATE, 0.01)
        r2, pi2 = lie_poisson_left_step(PARAMS, CAY, self.STATE.R, self.STATE.Pi, 0.01)
        assert _vec_err(s.Pi, pi2) < 1e-14
        assert _mat_err(s.R.m, r2.m) < 1e-14

    def test_sleeping_top_is_exact_equilibrium(self):
        state = HeavyTopState(
            R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=(0.0, 0.0, 2.5),
            Gamma=(0.0, 0.0, 1.0),
        )
        s = heavytop_exp_step(HT_PARAMS, state, 0.01)
        assert _vec_err(s.Pi, state.Pi) < 1e-12
        assert _vec_err(s.Gamma, state.Gamma) < 1e-12

    def test_casimirs_per_step(self):
        s = self.STATE
        pg0, _ = heavytop_casimirs(s.Pi, s.Gamma)
        for _ in range(100):
            s = heavytop_exp_step(HT_PARAMS, s, 0.01)
            pg, g2 = heavytop_casimirs(s.Pi, s.Gamma)
            assert abs(pg - pg0) < 1e-10
            assert abs(g2 - 1.0) < 1e-12

    def test_cayley_gamma_norm(self):
        s = self.STATE
        for _ in range(100):
            s = heavytop_cay_step(HT_PARAMS, s, 0.01)
            assert abs(dot(s.Gamma, s.Gamma) - 1.0) < 1e-12

    def test_gamma_norm_validated(self):
        # the state only checks finiteness (the RK4 baselines let |Gamma| drift);
        # the Lie-Poisson steps need |Gamma| = 1 and check it on their output
        s = HeavyTopState(
            R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=(1.0, 0.0, 0.0),
            Gamma=(0.0, 0.0, 1.5),
        )
        assert s.Gamma == (0.0, 0.0, 1.5)
        for step in (heavytop_exp_step, heavytop_cay_step):
            with pytest.raises(ValueError, match=r"\|Gamma\| = 1\.5"):
                step(HT_PARAMS, s, 0.01)

    def test_stiff_gravity_fails_loudly(self):
        # an impulse far outside the local solvability domain must raise, not
        # return garbage
        stiff = HeavyTopParams(
            inertia=HT_PARAMS.inertia, m=1.0, g=1.0e8, chi=(0.3, 0.2, 1.0)
        )
        with pytest.raises(NoConvergence):
            heavytop_exp_step(stiff, self.STATE, 0.01)

    @pytest.mark.parametrize(
        "tag, pi, gamma, dt, chi, g",
        [
            (
                EXP_TAG,
                (1.689299986661668, -1.883979086865541, -0.1375093824875786),
                (0.7197123596120295, 0.2418342229846744, 0.650792077406512),
                0.15318174345318752,
                (0.725360967782188, 0.8855806966970898, 1.327350851331151),
                205.7254237224255,
            ),
            (CAYLEY_TAG, (1.0, 1.0, 1.0), (0.6, 0.0, 0.8), 0.2, (0.5, -0.5, 0.7), 300.0),
        ],
        ids=["exp", "cayley"],
    )
    def test_stiff_solve_falls_back_to_newton(self, monkeypatch, tag, pi, gamma, dt, chi, g):
        # the fixed-point iteration runs out of its budget, and Newton on the
        # same residual finds the root inside the chart
        calls = []

        def counted(residual, x0):
            calls.append(x0)
            return newton_solve(residual, x0)

        monkeypatch.setattr(integrators, "newton_solve", counted)
        params = HeavyTopParams(inertia=HT_PARAMS.inertia, m=1.0, g=g, chi=chi)
        z = vec_scale(params.chi, dt * params.m * params.g)
        ret = TrivializedRetraction(tag)
        omega, _, _, _ = _solve_heavytop_omega(params, pi, gamma, dt, z, ret)
        assert len(calls) == 1
        res = _heavytop_eval(params.inertia, pi, gamma, omega, dt, z, ret)[0]
        assert max(abs(r) for r in res) <= NEWTON_TOL
        assert norm(vec_scale(omega, dt)) < 2.5

    def test_newton_fallback_returns_floats(self):
        # the fallback's root leaves numpy as floats, so no numpy scalar rides
        # in the attitude into the later steps of a run
        params = HeavyTopParams(inertia=HT_PARAMS.inertia, m=1.0, g=300.0, chi=(0.5, -0.5, 0.7))
        state = HeavyTopState(
            R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=(1.0, 1.0, 1.0), Gamma=(0.6, 0.0, 0.8)
        )
        new = heavytop_cay_step(params, state, 0.2)
        for value in (*(v for row in new.R.m for v in row), *new.x, *new.Pi, *new.Gamma):
            assert type(value) is float


class TestQuadrotor:
    Q_PARAMS = QuadrotorParams(
        inertia=((1.0, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 100.0)),
        m=1.0,
        g=9.81,
    )

    def test_hover_is_static(self):
        u = QuadrotorInput(M=(0.0, 0.0, 0.0), F=self.Q_PARAMS.m * self.Q_PARAMS.g)
        s = QuadrotorState(
            R=Rotation.identity(), Pi=(0.0, 0.0, 1.0), q=(0.0, 0.0, 1.0),
            p=(0.0, 0.0, 0.0),
        )
        for _ in range(50):
            s = quadrotor_step(self.Q_PARAMS, s, u, 0.01)
        assert s.q == (0.0, 0.0, 1.0)
        assert s.p == (0.0, 0.0, 0.0)

    def test_decoupled_limit_matches_rigid_body(self):
        params = QuadrotorParams(inertia=self.Q_PARAMS.inertia, m=1.0, g=0.0)
        u = QuadrotorInput(M=(0.0, 0.0, 0.0), F=0.0)
        s = QuadrotorState(
            R=Rotation.identity(), Pi=(1.0, 1.0, 1.0), q=(0.0, 0.0, 1.0),
            p=(0.5, 0.0, 0.0),
        )
        r, pi = s.R, s.Pi
        for k in range(20):
            s = quadrotor_step(params, s, u, 0.01)
            r, pi = lie_poisson_left_step(PARAMS, EXP, r, pi, 0.01)
            assert s.R.m == r.m and s.Pi == pi
        # free drift of the translation
        assert _vec_err(s.q, (0.0 + 20 * 0.01 * 0.5, 0.0, 1.0)) < 1e-14
        assert s.p == (0.5, 0.0, 0.0)

    def test_decoupled_limit_matches_cayley_rigid_body(self):
        # criterion 6's decoupled limit, with the Cayley retraction
        params = QuadrotorParams(inertia=self.Q_PARAMS.inertia, m=1.0, g=0.0)
        u = QuadrotorInput(M=(0.0, 0.0, 0.0), F=0.0)
        s = QuadrotorState(
            R=Rotation.identity(), Pi=(1.0, 1.0, 1.0), q=(0.0, 0.0, 1.0),
            p=(0.0, 0.0, 0.0),
        )
        r, pi = s.R, s.Pi
        for _ in range(2000):
            s = quadrotor_step(params, s, u, 0.01, CAY)
            r, pi = lie_poisson_left_step(PARAMS, CAY, r, pi, 0.01)
            assert s.R.m == r.m and s.Pi == pi
        # the retraction argument is honoured: exp takes a different step
        s_exp = quadrotor_step(params, s, u, 0.01, EXP)
        assert s_exp.Pi != quadrotor_step(params, s, u, 0.01, CAY).Pi

    def test_moment_breaks_casimir(self):
        u = QuadrotorInput(M=(0.2, -0.1, 0.3), F=5.0)
        s = QuadrotorState(
            R=Rotation.identity(), Pi=(1.0, 1.0, 1.0), q=(0.0, 0.0, 1.0),
            p=(0.0, 0.0, 0.0),
        )
        s2 = quadrotor_step(self.Q_PARAMS, s, u, 0.01)
        assert abs(norm(s2.Pi) - norm(s.Pi)) > 1e-6


class TestBaselines:
    def test_quat_rk4_attitude_orthogonal(self):
        state = RigidBodyState(R=Rotation.identity(), Pi=(1.0, 1.0, 1.0))
        for _ in range(50):
            state = quat_rk4_step(PARAMS, state, 0.01)
        assert so3.orthogonality_defect_mat(state.R.m) <= 1e-12

    def test_rkmk4_spherical_geodesic_exact(self):
        params = RigidBodyParams.from_diag(2.0, 2.0, 2.0)
        pi = (0.6, -0.8, 1.0)
        state = RigidBodyState(R=Rotation.identity(), Pi=pi)
        out = rkmk4_step(params, state, 0.5)
        omega = mat_vec(params.inertia_inv, pi)
        exact = exp_so3(vec_scale(omega, 0.5))
        assert _mat_err(out.R.m, exact.m) < 1e-13
        assert _vec_err(out.Pi, pi) < 1e-13

    def test_rkmk4_group_constraint(self):
        state = RigidBodyState(R=Rotation.identity(), Pi=(1.0, 1.0, 1.0))
        for _ in range(50):
            state = rkmk4_step(PARAMS, state, 0.01)
            assert so3.orthogonality_defect_mat(state.R.m) <= 1e-12

    def test_heavy_top_baselines_move_gamma_norm(self):
        state = HeavyTopState(
            R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=(1.0, 1.0, 1.0),
            Gamma=(0.0, 0.0, 1.0),
        )
        s = state
        for _ in range(2000):
            s = quat_rk4_step(HT_PARAMS, s, 0.01)
        assert abs(dot(s.Gamma, s.Gamma) - 1.0) > 1e-12
        s = state
        for _ in range(2000):
            s = rkmk4_step(HT_PARAMS, s, 0.01)
        assert abs(dot(s.Gamma, s.Gamma) - 1.0) > 1e-12


_component = st.floats(-5.0, 5.0)
_vectors = st.tuples(_component, _component, _component)


@st.composite
def _inertias(draw):
    """Symmetric positive definite inertia: positive diagonal, small coupling."""
    diag = [draw(st.floats(1.0, 100.0)) for _ in range(3)]
    off = [draw(st.floats(-0.3, 0.3)) for _ in range(3)]
    m01 = off[0] * math.sqrt(diag[0] * diag[1])
    m02 = off[1] * math.sqrt(diag[0] * diag[2])
    m12 = off[2] * math.sqrt(diag[1] * diag[2])
    return ((diag[0], m01, m02), (m01, diag[1], m12), (m02, m12, diag[2]))


@st.composite
def _unit_vectors(draw):
    v = draw(_vectors)
    n = norm(v)
    assume(n > 1e-3)
    return (v[0] / n, v[1] / n, v[2] / n)


_STOCK_INERTIA = ((1.0, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 100.0))


# steps that keep |dt*Omega| under about 1.1 for every drawn body and momentum,
# and the longer ones among them, over which a drawn body moves
_chart_steps = st.floats(1e-3, 0.05)
_moving_steps = st.floats(0.01, 0.05)
_retractions = pytest.mark.parametrize(
    "ret", [EXP, CAY], ids=["exp", "cayley"]
)


# the stock body from a fixed start, at the stock momentum
_STOCK_LEFT_RIGHT = (
    _STOCK_INERTIA, (-0.23795862000845713, -0.5385616273790497, -0.6679265513717296),
    (1.0, 1.0, 1.0),
)


class TestRandomBodies:
    """The structure each scheme keeps on any body, not only the stock one:
    random symmetric positive definite inertia, momenta and steps inside the chart."""

    @_retractions
    @settings(max_examples=60, deadline=None)
    @given(_inertias(), _vectors, _chart_steps)
    @example(_STOCK_INERTIA, (1.0, 1.0, 1.0), 0.01)
    @example(_STOCK_INERTIA, (0.557707193831535, -1.8999569791093323, -0.899882726523523), 0.05)
    def test_casimir_is_exact(self, ret, inertia, pi0, dt):
        assume(norm(pi0) > 1e-3)
        params = RigidBodyParams(inertia)
        r, pi = Rotation.identity(), pi0
        for _ in range(20):
            r, pi = lie_poisson_left_step(params, ret, r, pi, dt)
        assert abs(norm(pi) - norm(pi0)) <= 1e-13 * norm(pi0)

    @_retractions
    @settings(max_examples=40, deadline=None)
    @given(_inertias(), _vectors, _vectors, _chart_steps)
    @example(*_STOCK_LEFT_RIGHT, 0.02)
    @example(*_STOCK_LEFT_RIGHT, 0.01)
    def test_left_and_right_runs_agree(self, ret, inertia, xi0, pi0, dt):
        # the right scheme carries the spatial momentum; transported back to
        # the body frame it retraces the left run
        params = RigidBodyParams(inertia)
        r0 = exp_so3(xi0)
        rl, pil = r0, pi0
        rr, mu = r0, r0.apply(pi0)
        for _ in range(10):
            rl, pil = lie_poisson_left_step(params, ret, rl, pil, dt)
            rr, mu = lie_poisson_right_step(params, ret, rr, mu, dt)
        assert _mat_err(rl.m, rr.m) < 1e-13
        assert _vec_err(pil, rr.apply_transpose(mu)) <= 1e-13 * max(norm(pi0), 1.0)

    @_retractions
    @settings(max_examples=60, deadline=None)
    @given(_inertias(), _vectors, _vectors, _chart_steps)
    def test_step_back_retraces(self, ret, inertia, xi0, pi0, dt):
        # the scheme is symmetric: a step by -dt undoes a step by dt
        params = RigidBodyParams(inertia)
        r0 = exp_so3(xi0)
        r1, pi1 = lie_poisson_left_step(params, ret, r0, pi0, dt)
        r2, pi2 = lie_poisson_left_step(params, ret, r1, pi1, -dt)
        assert _mat_err(r2.m, r0.m) < 1e-13
        assert _vec_err(pi2, pi0) <= 1e-13 * max(norm(pi0), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(_inertias(), _vectors, _moving_steps)
    def test_exp_and_cayley_agree_to_second_order(self, inertia, pi0, dt):
        # both steps are second order, so over the time dt their runs part by
        # C h^2: halving the step h quarters the gap
        params = RigidBodyParams(inertia)

        def gap(n):
            ends = []
            for ret in (EXP, CAY):
                r, pi = Rotation.identity(), pi0
                for _ in range(n):
                    r, pi = lie_poisson_left_step(params, ret, r, pi, dt / n)
                ends.append((r, pi))
            (r_exp, pi_exp), (r_cay, pi_cay) = ends
            return max(_mat_err(r_exp.m, r_cay.m), _vec_err(pi_exp, pi_cay))

        coarse, fine = gap(4), gap(8)
        # a gap well above the roundoff of the runs
        assume(coarse > 1e-11 * max(norm(pi0), 1.0))
        assert abs(math.log2(coarse / fine) - 2.0) <= 0.1

    @_retractions
    @settings(max_examples=40, deadline=None)
    @given(
        _inertias(), _vectors, _unit_vectors(), _chart_steps,
        st.tuples(*[st.floats(-1.5, 1.5)] * 3), st.floats(0.1, 30.0),
    )
    def test_heavytop_casimirs_are_exact(self, ret, inertia, pi0, gamma0, dt, chi, g):
        params = HeavyTopParams(inertia=inertia, m=1.0, g=g, chi=chi)
        step = heavytop_exp_step if ret is EXP else heavytop_cay_step
        run = [HeavyTopState(R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=pi0, Gamma=gamma0)]
        for _ in range(20):
            run.append(step(params, run[-1], dt))
        pg0, _ = heavytop_casimirs(pi0, gamma0)
        scale = max(max(norm(s.Pi) for s in run), 1.0)
        for s in run[1:]:
            pg, g2 = heavytop_casimirs(s.Pi, s.Gamma)
            assert abs(pg - pg0) <= 1e-13 * scale
            assert abs(g2 - 1.0) <= 1e-13

    @_retractions
    @settings(max_examples=40, deadline=None)
    @given(
        _inertias(), _vectors, _vectors, _unit_vectors(), _chart_steps,
        st.tuples(*[st.floats(-1.5, 1.5)] * 3), st.floats(0.1, 30.0),
    )
    def test_heavytop_step_back_retraces(self, ret, inertia, xi0, pi0, gamma0, dt, chi, g):
        params = HeavyTopParams(inertia=inertia, m=1.0, g=g, chi=chi)
        step = heavytop_exp_step if ret is EXP else heavytop_cay_step
        state = HeavyTopState(R=exp_so3(xi0), x=(0.0, 0.0, 0.0), Pi=pi0, Gamma=gamma0)
        back = step(params, step(params, state, dt), -dt)
        scale = max(norm(pi0), 1.0)
        assert _mat_err(back.R.m, state.R.m) < 1e-12
        assert _vec_err(back.x, state.x) < 1e-12
        assert _vec_err(back.Pi, state.Pi) <= 1e-12 * scale
        assert _vec_err(back.Gamma, state.Gamma) < 1e-12


# --- the step maps themselves: Poisson and symplectic (HLW VI and VII.4) -----------
#
# Central differences of a step map at h = 0.2, with a difference step of 1e-5.
# Their floor is the difference error and the Newton tolerance, not roundoff, so
# each check is a contrast of the structure-preserving schemes against the RK4
# schemes, which keep neither structure, in the same test.

_MAP_STEP = 0.2
_MAP_FD = 1e-5


def _fd_jacobian(phi, x, dirs=None):
    """Central-difference derivatives of phi at the float vector x along the
    unit vectors dirs, by default the coordinate axes (the Jacobian)."""
    cols = []
    for e in (np.eye(x.size) if dirs is None else dirs) * _MAP_FD:
        cols.append((np.asarray(phi(x + e)) - np.asarray(phi(x - e))) / (2.0 * _MAP_FD))
    return np.column_stack(cols)


def _poisson_defect(pi_map, pi):
    """max|D Phi hat(Pi) D Phi^T - hat(Phi(Pi))|: zero for a Poisson map of the
    rigid-body bracket {F, G}(Pi) = -Pi . (grad F x grad G)."""
    d = _fd_jacobian(pi_map, pi)
    return np.max(np.abs(d @ np.array(so3.hat(pi)) @ d.T - np.array(so3.hat(pi_map(pi)))))


def _heavytop_bracket(z):
    """B(Pi, Gamma) = [[hat(Pi), hat(Gamma)], [hat(Gamma), 0]], the heavy top's
    Lie-Poisson tensor on se(3)*, in the sign of the rigid-body bracket above."""
    p, g = np.array(so3.hat(z[:3])), np.array(so3.hat(z[3:]))
    return np.block([[p, g], [g, np.zeros((3, 3))]])


def _leaf_poisson_defect(z_map, z):
    """max|D Phi B(z) D Phi^T - B(Phi(z))| with D Phi taken along the leaf only.

    The Lie-Poisson heavy-top steps reject a |Gamma| more than 1e-9 off 1, so
    the differences run along an orthonormal basis U of the range of B(z), the
    tangent space of the symplectic leaf (a step of 1e-5 leaves it by 5e-11).
    B is skew, so B = U U^T B U U^T and D Phi B D Phi^T = (D Phi U)(U^T B U)(D Phi U)^T.
    """
    b = _heavytop_bracket(z)
    u = np.linalg.svd(b)[0][:, :4]
    d = _fd_jacobian(z_map, z, u.T)
    return np.max(np.abs(d @ (u.T @ b @ u) @ d.T - _heavytop_bracket(z_map(z))))


def _symplectic_defect(scheme, x):
    """max|D Phi^T J D Phi - J| of Phi = scheme(., h) for the canonical J on (q, p)."""
    n = x.size // 2
    j = np.block([[np.zeros((n, n)), np.eye(n)], [-np.eye(n), np.zeros((n, n))]])
    d = _fd_jacobian(lambda y: scheme(y, _MAP_STEP), x)
    return np.max(np.abs(d.T @ j @ d - j))


def _left_pi_map(ret):
    return lambda pi: lie_poisson_left_step(
        PARAMS, ret, Rotation.identity(), tuple(pi.tolist()), _MAP_STEP
    )[1]


# the right step carries the spatial momentum mu = R Pi; its body momentum map
# Pi -> R'^T mu, from an attitude away from the identity, passes through both
# of its frame changes
_MAP_ATTITUDE = exp_so3((-0.08, 0.76, -0.94))


def _right_pi_map(ret):
    def pi_map(pi):
        mu = mat_vec(_MAP_ATTITUDE.m, tuple(pi.tolist()))
        r_new, mu_new = lie_poisson_right_step(PARAMS, ret, _MAP_ATTITUDE, mu, _MAP_STEP)
        return mat_T_vec(r_new.m, mu_new)
    return pi_map


def _baseline_pi_map(step):
    return lambda pi: step(
        PARAMS, RigidBodyState(R=Rotation.identity(), Pi=tuple(pi.tolist())), _MAP_STEP
    ).Pi


def _heavytop_map(step):
    def z_map(z):
        state = HeavyTopState(
            R=Rotation.identity(), x=(0.0, 0.0, 0.0),
            Pi=tuple(z[:3].tolist()), Gamma=tuple(z[3:].tolist()),
        )
        out = step(HT_PARAMS, state, _MAP_STEP)
        return np.array(out.Pi + out.Gamma)
    return z_map


def _sympl_euler(step):
    f1, f2 = kepler_split_fields(_KEPLER)
    return lambda x, h: np.concatenate(step(f1, f2, x[:2], x[2:], h))


def _rk4(x, h):
    return rk_step(odecore.rk4_tableau(), kepler_vectorfield(_KEPLER), x, h)


_POISSON_PI = np.array([1.0, 1.0, 1.0])
_POISSON_STEPS = {
    "lp_left_exp": _left_pi_map(EXP),
    "lp_left_cayley": _left_pi_map(CAY),
    "lp_right_exp": _right_pi_map(EXP),
    "lp_right_cayley": _right_pi_map(CAY),
}
# a tilted vertical, so that gravity's torque Gamma x chi acts from the first step
_LEAF_Z = np.array([1.0, 1.0, 1.0, 0.6, 0.0, 0.8])
_LEAF_STEPS = {"lp_exp": heavytop_exp_step, "lp_cayley": heavytop_cay_step}
_RK4_CONTROLS = {"quat_rk4": quat_rk4_step, "rkmk4": rkmk4_step}
_KEPLER_X = np.array([1.0, 0.0, 0.0, 0.5])
_SYMPLECTIC_STEPS = {
    "stormer_verlet": _verlet,
    "sympl_euler_a": _sympl_euler(symplectic_euler_a_step),
    "sympl_euler_b": _sympl_euler(symplectic_euler_b_step),
    "lift_0.3": _lift(0.3),
    "lift_midpoint": _lift(0.5),
    "midpoint": _disc(0.5),
}


class TestStructureMaps:
    """Each geometric step map keeps the structure itself, not only its invariants.

    A map can keep every Casimir and still not be Poisson (an explicit
    Omega = I^-1 Pi in the left step does), so these check the derivative.
    Each case asserts that its scheme's defect is at least 1e3 times below the
    best of the RK4 controls, with no absolute bound."""

    @pytest.mark.parametrize("name", sorted(_POISSON_STEPS))
    def test_lie_poisson_steps_are_poisson_maps(self, name):
        kept = _poisson_defect(_POISSON_STEPS[name], _POISSON_PI)
        controls = {
            control: _poisson_defect(_baseline_pi_map(step), _POISSON_PI)
            for control, step in _RK4_CONTROLS.items()
        }
        assert 1e3 * kept <= min(controls.values()), (kept, controls)

    @pytest.mark.parametrize("name", sorted(_LEAF_STEPS))
    def test_heavytop_steps_are_poisson_on_the_leaf(self, name):
        kept = _leaf_poisson_defect(_heavytop_map(_LEAF_STEPS[name]), _LEAF_Z)
        controls = {
            control: _leaf_poisson_defect(_heavytop_map(step), _LEAF_Z)
            for control, step in _RK4_CONTROLS.items()
        }
        assert 1e3 * kept <= min(controls.values()), (kept, controls)

    @pytest.mark.parametrize("name", sorted(_SYMPLECTIC_STEPS))
    def test_flat_symplectic_steps_are_symplectic_maps(self, name):
        kept = _symplectic_defect(_SYMPLECTIC_STEPS[name], _KEPLER_X)
        control = _symplectic_defect(_rk4, _KEPLER_X)
        assert 1e3 * kept <= control, (kept, control)


# a baseline's own failure when its RK4 stages turn nan, kept as the context of
# the error that names the quantity at fault
_NAN_STAGES = {
    "quat_rk4": (quat_rk4_step, NotRotation, "rotation matrix has non-finite entries"),
    "rkmk4": (
        rkmk4_step, OutOfChart,
        "rkmk4 increment |u| = inf >= 2*pi = 6.28319; the dexpinv kernel is singular there",
    ),
}


class TestBaselineFailures:
    """The ways an RK4 baseline step fails, each naming its cause."""

    @staticmethod
    def _start(heavy, pi, gamma=None, chi=None, g=9.81):
        if heavy:
            params = HeavyTopParams(inertia=_STOCK_INERTIA, m=1.0, g=g, chi=chi)
            state = HeavyTopState(R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=pi, Gamma=gamma)
        else:
            params = RigidBodyParams(_STOCK_INERTIA)
            state = RigidBodyState(R=Rotation.identity(), Pi=pi)
        return params, state

    def test_rkmk4_out_of_chart(self):
        # Omega = (10, 0, 0): the last stage reaches |u| = dt |Omega| = 10 >= 2 pi
        params, state = self._start(False, (10.0, 0.0, 0.0))
        with pytest.raises(OutOfChart) as info:
            rkmk4_step(params, state, 1.0)
        assert str(info.value) == (
            "rkmk4 increment |u| = 10 >= 2*pi = 6.28319; the dexpinv kernel is singular there"
        )

    @pytest.mark.parametrize("name", sorted(_NAN_STAGES))
    @pytest.mark.parametrize("heavy", [False, True])
    def test_overflowing_pi_fails_as_before(self, name, heavy):
        # the step names Pi in place of the attitude check or the |u| = inf its
        # nan stages set off, and keeps that error
        params, state = self._start(heavy, (1e200, 1e200, 1e200), (0.0, 0.0, 1.0), (0.0, 0.0, 1.0))
        step, cause_type, cause = _NAN_STAGES[name]
        with pytest.raises(ValueError) as info:
            step(params, state, 0.01)
        assert str(info.value) == (
            "Pi = (1e+200, 1e+200, 1e+200) overflowed in the RK4 stages to (nan, nan, nan)"
        )
        assert type(info.value.__context__) is cause_type
        assert str(info.value.__context__) == cause

    @pytest.mark.parametrize("name", sorted(_NAN_STAGES))
    @pytest.mark.parametrize("heavy", [False, True])
    def test_overflowing_attitude_names_the_rate(self, name, heavy):
        # a spin about a principal axis (with Gamma and chi along it) keeps Pi
        # finite while the attitude stages overflow: the step names dt |Omega|
        # in place of the attitude check or the |u| = inf, and keeps that error
        params, state = self._start(heavy, (1e160, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        step, cause_type, cause = _NAN_STAGES[name]
        with pytest.raises(ValueError) as info:
            step(params, state, 0.01)
        assert str(info.value) == (
            f"{name}: the step's |dt*Omega| = 1e+158 overflowed the attitude in its RK4 stages"
        )
        assert type(info.value.__context__) is cause_type
        assert str(info.value.__context__) == cause

    def test_heavy_top_momentum_overflows_at_step_142(self):
        # a heavy top that tumbles away under quat_rk4: Pi grows to 1e108 by
        # step 141, and step 142's stages overflow it
        params, state = self._start(
            True, (1.0, 0.0, 0.0), (0.7071067811865476, 0.7071067811865476, 0.0),
            (1.0, 1.5, 0.0), g=18.0,
        )
        for _ in range(141):
            state = quat_rk4_step(params, state, 0.09375)
        with pytest.raises(ValueError) as info:
            quat_rk4_step(params, state, 0.09375)
        assert str(info.value) == (
            "Pi = (7.811090361817075e+106, 1.1977695138448705e+108, 1.4063289660991321e+107) "
            "overflowed in the RK4 stages to (nan, nan, nan)"
        )
        assert type(info.value.__context__) is NotRotation


# --- bitwise oracles for the flat steps --------------------------------------------
#
# The references below are the numpy-composed forms of newton_solve and of the
# flat step residuals, kept here verbatim: they evaluate one point per residual
# call, and are the suite's one reference for newton_solve.  The library
# evaluates each Jacobian's 2n points as one stack, on numpy columns; every row
# must take the same IEEE operations in the same order, so every Newton
# iterate, and so the outcome, agrees bit for bit.

def _bits(value):
    """Bit patterns of every float in a nested tuple or array; tells -0.0 from 0.0."""
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return (value.shape, value.dtype.str, value.tobytes())
    return struct.pack("<d", value)


def _outcome(fn, *args):
    """('ok', bits of the result) or ('raised', exception type, message)."""
    try:
        out = fn(*args)
    except GeomintError as exc:
        return ("raised", type(exc), str(exc))
    return ("ok", _bits(out))


def _newton_solve_reference(residual, x0):
    x = np.array(x0, dtype=float)
    n = x.size
    h = FD_STEP
    r = np.asarray(residual(x), dtype=float)
    for _ in range(NEWTON_MAX_ITER):
        if np.max(np.abs(r)) <= NEWTON_TOL:
            return x
        jac = np.empty((n, n))
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            jac[:, i] = (
                np.asarray(residual(x + e), dtype=float)
                - np.asarray(residual(x - e), dtype=float)
            ) / (2.0 * h)
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc), tuple(x.tolist())) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step", tuple(x.tolist()))
        x = x - step
        r = np.asarray(residual(x), dtype=float)
    if np.max(np.abs(r)) <= NEWTON_TOL:
        return x
    raise NoConvergence(NEWTON_MAX_ITER, float(np.max(np.abs(r))))


def _implicit_euler_reference(f, x, h):
    x = np.asarray(x, dtype=float)

    def residual(y):
        return y - x - h * np.asarray(f(y), dtype=float)

    return _newton_solve_reference(residual, x)


def _symplectic_euler_a_reference(f1, f2, q, v, h):
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)

    def residual(w):
        return w - v - h * np.asarray(f2(q, w), dtype=float)

    v_new = _newton_solve_reference(residual, v)
    q_new = q + h * np.asarray(f1(q, v_new), dtype=float)
    return q_new, v_new


def _symplectic_euler_b_reference(f1, f2, q, v, h):
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)

    def residual(w):
        return w - q - h * np.asarray(f1(w, v), dtype=float)

    q_new = _newton_solve_reference(residual, q)
    v_new = v + h * np.asarray(f2(q_new, v), dtype=float)
    return q_new, v_new


def _prk_reference(ptab, f1, f2, q, p, h):
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    s = ptab.stages
    n = q.size
    a, b, ah, bh = ptab.a, ptab.b, ptab.a_hat, ptab.b_hat

    def residual(flat):
        k = flat[: s * n].reshape(s, n)
        l = flat[s * n :].reshape(s, n)
        out = np.empty(2 * s * n)
        for i in range(s):
            qi = q + h * (a[i] @ k)
            pi = p + h * (ah[i] @ l)
            out[i * n : (i + 1) * n] = k[i] - np.asarray(f1(qi, pi), dtype=float)
            out[(s + i) * n : (s + i + 1) * n] = l[i] - np.asarray(
                f2(qi, pi), dtype=float
            )
        return out

    guess = np.concatenate(
        [np.tile(np.asarray(f1(q, p), dtype=float), s),
         np.tile(np.asarray(f2(q, p), dtype=float), s)]
    )
    sol = _newton_solve_reference(residual, guess)
    k = sol[: s * n].reshape(s, n)
    l = sol[s * n :].reshape(s, n)
    return q + h * (b @ k), p + h * (bh @ l)


def _rk_reference(tab, f, x, h):
    x = np.asarray(x, dtype=float)
    s = tab.stages
    n = x.size
    a, b = tab.a, tab.b

    def residual(flat):
        k = flat.reshape(s, n)
        out = np.empty_like(k)
        for i in range(s):
            out[i] = k[i] - np.asarray(f(x + h * (a[i] @ k)), dtype=float)
        return out.ravel()

    guess = np.tile(np.asarray(f(x), dtype=float), s)
    k = _newton_solve_reference(residual, guess).reshape(s, n)
    return x + h * (b @ k)


def _implicit_disc_reference(f, x, h, theta):
    x = np.asarray(x, dtype=float)
    if theta == 0.0:
        return x + h * np.asarray(f(x), dtype=float)

    def residual(y):
        mid = (1.0 - theta) * x + theta * y
        return y - x - h * np.asarray(f(mid), dtype=float)

    return _newton_solve_reference(residual, x)


def _cotangent_theta_reference(f1, f2, q, p, h, theta):
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if theta == 0.0:
        return _symplectic_euler_a_reference(f1, f2, q, p, h)
    if theta == 1.0:
        return _symplectic_euler_b_reference(f1, f2, q, p, h)

    n = q.size

    def residual(flat):
        qn, pn = flat[:n], flat[n:]
        qm = (1.0 - theta) * q + theta * qn
        pm = theta * p + (1.0 - theta) * pn
        return np.concatenate(
            [
                qn - q - h * np.asarray(f1(qm, pm), dtype=float),
                pn - p - h * np.asarray(f2(qm, pm), dtype=float),
            ]
        )

    sol = _newton_solve_reference(residual, np.concatenate([q, p]))
    return sol[:n], sol[n:]


def _kepler_split_reference(mu):
    """The Kepler split field in its numpy-composed form.

    Like the library's Kepler fields it raises where |r|^3 underflows to zero,
    rather than returning an infinite force.
    """

    def f1(q, v):
        return np.asarray(v, dtype=float)

    def f2(q, v):
        q = np.asarray(q, dtype=float)
        r2 = q @ q
        r3 = r2 * math.sqrt(r2)
        if r3 == 0.0:
            raise SingularOrigin("Kepler state at r = 0")
        return -mu / r3 * q

    return f1, f2


def _ho_split(ratio):
    return _f1, lambda q, v: -ratio * np.asarray(q, dtype=float)


# math.sin on each entry: np.sin need not round alike on a stack and on a row
_sin = np.frompyfunc(math.sin, 1, 1)


def _pendulum_split(q, v):
    return -np.asarray(_sin(q), dtype=float)


def _abs_force(q, v):
    """Force of the potential |q|; it tells -0.0 from 0.0 in every stage point."""
    return -np.copysign(1.0, np.asarray(q, dtype=float))


def _abs_field(x):
    return np.stack([x[..., 1], -np.copysign(1.0, x[..., 0])], axis=-1)


# Zeros of both signs, and no subnormals: numpy's gemv fuses each multiply-add,
# so a subnormal slope times 1/2 may round differently from the stage sums of
# odecore.prk_step; a run's slopes would have to fall below 2.2e-308.
_coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0, allow_subnormal=False))
_h = st.one_of(st.sampled_from([0.0, -0.0, 0.01]), st.floats(-0.5, 0.5, allow_subnormal=False))
_theta = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0, allow_subnormal=False))
_positive = st.floats(0.1, 10.0)
# any finite float, and magnitudes whose squares overflow or underflow
_magnitude = st.one_of(
    _coord,
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10.0, 10.0), st.integers(-170, 160)),
)
# (library fields, per-point reference fields): the library's Kepler split
# field against its numpy-composed form, the others written on numpy already
_split_fields = st.one_of(
    st.builds(lambda r: (_ho_split(r),) * 2, _positive),
    st.builds(
        lambda mu: (kepler_split_fields(KeplerParams(mu=mu)), _kepler_split_reference(mu)),
        _positive,
    ),
    st.just(((_f1, _pendulum_split),) * 2),
    st.just(((_f1, _abs_force),) * 2),
)


@st.composite
def _split_states(draw):
    """(q, p) pairs of one or two dimensions."""
    n = draw(st.sampled_from([1, 2]))
    q = np.array(draw(st.lists(_coord, min_size=n, max_size=n)))
    p = np.array(draw(st.lists(_coord, min_size=n, max_size=n)))
    return q, p


# (field, state dimension) pairs of the library's flat fields, and |q|
_full_fields = st.one_of(
    st.tuples(st.builds(lambda k: ho_vectorfield(HarmonicOscillatorParams(k=k)), _positive), st.just(2)),
    st.tuples(st.builds(lambda mu: kepler_vectorfield(KeplerParams(mu=mu)), _positive), st.just(4)),
    st.tuples(st.just(pendulum_embedded_vf(PendulumParams(ml2=2.0, mgl=0.5))), st.just(3)),
    st.tuples(st.just(_abs_field), st.just(2)),
)


@st.composite
def _full_states(draw):
    f, n = draw(_full_fields)
    return f, np.array(draw(st.lists(_coord, min_size=n, max_size=n)))


# implicit Euler, the implicit midpoint rule and the two-stage Gauss rule, whose
# coefficients make inexact products
_IMPLICIT_TABLEAUX = (
    implicit_euler_tableau(),
    ButcherTableau(a=[[0.5]], b=[1.0]),
    ButcherTableau(
        a=[[0.25, 0.25 - math.sqrt(3.0) / 6.0], [0.25 + math.sqrt(3.0) / 6.0, 0.25]],
        b=[0.5, 0.5],
    ),
)


# rows repeat in a different pattern in a and a_hat, so each stage must still
# get its own pair of rows
_REPEATED_ROWS = PartitionedTableau(
    a=[[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]],
    b=[0.5, 0.0, 0.5],
    a_hat=[[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.5, 0.0, 0.0]],
    b_hat=[0.5, 0.0, 0.5],
)

# the stock Kepler fields and state, then with signed zeros that reach row 0 of
# the first Newton call
_KEPLER_FIELDS = (kepler_split_fields(KeplerParams(mu=1.0)), _kepler_split_reference(1.0))
_KEPLER_STOCK = (np.array([1.0, 0.0]), np.array([0.0, 0.5]))
_KEPLER_SIGNED_ZEROS = (np.array([1.0, -0.0]), np.array([-0.0, 0.5]))
_PENDULUM = pendulum_embedded_vf(PendulumParams())


# draws near the origin or with large steps overflow on the way to a failed solve
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFlatOracles:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_coord, min_size=1, max_size=4),
        st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
    )
    @example([3.0], [0.0, 0.0, 0.0, 0.0])
    # overflow to a non-finite Newton step
    @example([1e155, 1.0], [1.0, 0.0, 0.0, 0.0])
    def test_newton_solve_bitwise(self, x0, c):
        # coupled, nonlinear, with a root only for some draws; the copysign
        # term tells -0.0 from 0.0 in the neighbouring unknown.  It maps each
        # row of a stack as it maps a single point.
        def residual(x):
            n = x.shape[-1]
            prev = np.roll(x, 1, axis=-1)
            return (
                x * x * c[0] + prev * c[1] - _sin(x).astype(float) * c[2] - c[3] + 0.5 * n
                + 1e-3 * np.copysign(1.0, prev)
            )

        new = _outcome(newton_solve, residual, np.array(x0))
        ref = _outcome(_newton_solve_reference, residual, np.array(x0))
        assert new == ref

    def test_kepler_stormer_verlet_stacks(self, monkeypatch):
        # one stock Kepler Stormer-Verlet step: a solve with k updates calls the
        # residual k + 1 times, each on the 2n + 1 rows x, x + [hI; -hI], where
        # x runs through the reference's iterates bit for bit
        calls, points = [], []
        solve = odecore.newton_solve

        def recording(residual, x0):
            def recorded(stack):
                calls.append(np.array(stack))
                return residual(stack)

            def one_point(x):
                points.append(np.array(x))
                return residual(x[None])[0]

            _newton_solve_reference(one_point, x0)
            return solve(recorded, x0)

        monkeypatch.setattr(odecore, "newton_solve", recording)
        config = bench.default_config("kepler", "stormer_verlet")
        x0 = np.asarray(config.params["x0"], dtype=float)
        f1, f2 = kepler_split_fields(KeplerParams(mu=config.params["mu"]))
        prk_step(stormer_verlet_tableau(), f1, f2, x0[:2], x0[2:], config.dt)

        n = 8  # two stages of k and of l in the plane
        # the reference evaluates each iterate, then its 2n difference points
        iterates = points[:: 2 * n + 1]
        shifts = np.concatenate([FD_STEP * np.eye(n), -FD_STEP * np.eye(n)])
        updates = len(iterates) - 1
        assert updates >= 1
        assert [c.shape for c in calls] == [(2 * n + 1, n)] * (updates + 1)
        for call, x in zip(calls, iterates):
            assert call[0].tobytes() == x.tobytes()
            assert call[1:].tobytes() == (x + shifts).tobytes()

    def test_signed_zero_reaches_row_zero(self):
        # x + (-0.0) keeps -0.0; a +0.0 offset row would hand the residual +0.0
        rows = []

        def residual(stack):
            rows.append(np.array(stack[0]))
            return stack * stack * stack + stack - np.array([0.0, 2.0])

        x0 = np.array([-0.0, 1.0])
        out = newton_solve(residual, x0)
        assert np.signbit(rows[0][0]) and rows[0].tobytes() == x0.tobytes()
        assert out.tobytes() == _newton_solve_reference(residual, x0).tobytes()

    def test_raise_at_accepted_difference_points(self):
        # a root within FD_STEP of where the residual raises is still returned,
        # as the reference returns it; away from the root the error stands
        def residual(stack):
            if np.any(np.all(stack == 0.0, axis=-1)):
                raise SingularOrigin("Kepler state at r = 0")
            return stack - np.array([0.0, 1e-7])

        x0 = np.array([0.0, 1e-7])
        assert newton_solve(residual, x0).tobytes() == x0.tobytes()
        assert _newton_solve_reference(residual, x0).tobytes() == x0.tobytes()
        with pytest.raises(SingularOrigin):
            newton_solve(residual, np.array([1e-7, 0.0]))
        # a Kepler implicit Euler step of length 0 next to the origin
        f = kepler_vectorfield(KeplerParams(mu=1.0))
        x = np.array([0.0, 1e-7, 0.0, 0.0])
        assert implicit_euler_step(f, x, 0.0).tobytes() == x.tobytes()

    def test_kepler_implicit_euler_fails_at_step_133(self):
        # the stock run's known failure: steps 1..132 match the reference bit
        # for bit, and step 133 fails alike, residual norm included
        f = kepler_vectorfield(KeplerParams(mu=1.0))
        x = np.array([1.0, 0.0, 0.0, 0.5])
        for _ in range(132):
            x_new = implicit_euler_step(f, x, 0.01)
            assert _bits(x_new) == _bits(_implicit_euler_reference(f, x, 0.01))
            x = x_new
        message = "no convergence after 50 iterations (residual inf-norm 1.486e+01)"
        failure = ("raised", NoConvergence, message)
        assert _outcome(implicit_euler_step, f, x, 0.01) == failure
        assert _outcome(_implicit_euler_reference, f, x, 0.01) == failure

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[_magnitude] * 4), min_size=1, max_size=8), _positive)
    @example([(0.0, -0.0, 1.0, 2.0), (1.0, 0.5, -0.0, 0.0)], 1.0)
    def test_split_fields_rows_bitwise(self, rows, mu):
        # the library's split fields on a stack, against the per-point references
        x = np.array(rows)
        q, v = x[:, :2], x[:, 2:]
        pairs = (
            (ho_split_fields(HarmonicOscillatorParams(k=mu, m=1.0)), _ho_split(mu)),
            (kepler_split_fields(KeplerParams(mu=mu)), _kepler_split_reference(mu)),
        )
        for fields, references in pairs:
            for field, reference in zip(fields, references):
                refs = [_outcome(reference, a, b) for a, b in zip(q, v)]
                raised = [r for r in refs if r[0] == "raised"]
                if raised:
                    # one singular row fails the whole stack, with the same cause
                    assert _outcome(field, q, v) == raised[0]
                    continue
                expected = np.array([np.asarray(reference(a, b), dtype=float) for a, b in zip(q, v)])
                assert _outcome(field, q, v) == ("ok", _bits(expected))
                # a stack of stage points, as prk_step passes, maps the same rows
                assert _outcome(field, q[:, None], v[:, None]) == ("ok", _bits(expected[:, None]))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_magnitude, _magnitude), min_size=1, max_size=8))
    @example([(1.3e154, 1.3e154), (1e-162, -3e-162), (2.2e-308, 0.0)])
    def test_kepler_r2_matches_dot(self, rows):
        # the split Kepler force takes |r|^2 from _self_dot, which must round
        # as q.dot(q) does on every row, near overflow and underflow included,
        # on a single point, a stack, and the strided stage points prk_step passes
        q = np.array(rows)
        with np.errstate(over="ignore"):
            expected = np.array([row.dot(row) for row in q])
            for row, value in zip(q, expected):
                assert _bits(_self_dot(row)) == _bits(np.array([value]))
            assert _bits(_self_dot(q)) == _bits(expected[:, None])
            assert _bits(_self_dot(q[:, None])) == _bits(expected[:, None, None])
            stages = np.stack([q, -q, q], axis=1)[:, 1:]
            assert _bits(_self_dot(stages)) == _bits(np.stack([expected, expected], 1)[..., None])

    @settings(max_examples=300, deadline=None)
    @given(_split_fields, _split_states(), _h)
    @example(_KEPLER_FIELDS, _KEPLER_STOCK, 0.01)
    @example(_KEPLER_FIELDS, _KEPLER_SIGNED_ZEROS, 0.01)
    def test_prk_bitwise(self, fields, state, h):
        (f1, f2), (g1, g2) = fields
        q, p = state
        for tab in (stormer_verlet_tableau(), symplectic_euler_tableau(), _REPEATED_ROWS):
            new = _outcome(prk_step, tab, f1, f2, q, p, h)
            ref = _outcome(_prk_reference, tab, g1, g2, q, p, h)
            assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(_split_fields, _split_states(), _h)
    @example(_KEPLER_FIELDS, _KEPLER_STOCK, 0.01)
    @example(_KEPLER_FIELDS, _KEPLER_SIGNED_ZEROS, 0.01)
    def test_symplectic_euler_bitwise(self, fields, state, h):
        (f1, f2), (g1, g2) = fields
        q, p = state
        for step, reference in (
            (symplectic_euler_a_step, _symplectic_euler_a_reference),
            (symplectic_euler_b_step, _symplectic_euler_b_reference),
        ):
            new = _outcome(step, f1, f2, q, p, h)
            ref = _outcome(reference, g1, g2, q, p, h)
            assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(_split_fields, _split_states(), _h, _theta)
    @example(_KEPLER_FIELDS, _KEPLER_STOCK, 0.01, 0.5)
    @example(_KEPLER_FIELDS, _KEPLER_SIGNED_ZEROS, 0.01, 0.5)
    def test_cotangent_theta_bitwise(self, fields, state, h, theta):
        (f1, f2), (g1, g2) = fields
        q, p = state
        new = _outcome(cotangent_theta_step, f1, f2, q, p, h, theta)
        ref = _outcome(_cotangent_theta_reference, g1, g2, q, p, h, theta)
        assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(_full_states(), _h, _theta)
    # the stock embedded pendulum, and a state with signed zeros
    @example((_PENDULUM, np.array([math.cos(1.0), math.sin(1.0), 0.0])), 0.1, 0.5)
    @example((_PENDULUM, np.array([1.0, -0.0, -0.0])), 0.1, 0.5)
    def test_implicit_steps_bitwise(self, field_state, h, theta):
        f, x = field_state
        new = _outcome(implicit_euler_step, f, x, h)
        ref = _outcome(_implicit_euler_reference, f, x, h)
        assert new == ref
        new = _outcome(implicit_disc_step, f, x, h, theta)
        ref = _outcome(_implicit_disc_reference, f, x, h, theta)
        assert new == ref
        for tab in _IMPLICIT_TABLEAUX:
            new = _outcome(rk_step, tab, f, x, h)
            ref = _outcome(_rk_reference, tab, f, x, h)
            assert new == ref

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
    def test_scalar_fields_on_one_dimensional_states(self, theta):
        # a field may return one value per point, without the last axis, for
        # a one-dimensional state, as numpy broadcasts it
        def f1(q, p):
            return p[..., 0]

        def f2(q, p):
            return -2.0 * q[..., 0]

        def f(x):
            return -2.0 * x[..., 0]

        q, p, h = np.array([0.7]), np.array([-0.2]), 0.1
        for step, reference, args in (
            (rk_step, _rk_reference, (_IMPLICIT_TABLEAUX[-1], f, q, h)),
            (prk_step, _prk_reference, (stormer_verlet_tableau(), f1, f2, q, p, h)),
            (symplectic_euler_a_step, _symplectic_euler_a_reference, (f1, f2, q, p, h)),
            (symplectic_euler_b_step, _symplectic_euler_b_reference, (f1, f2, q, p, h)),
            (cotangent_theta_step, _cotangent_theta_reference, (f1, f2, q, p, h, theta)),
            (implicit_euler_step, _implicit_euler_reference, (f, q, h)),
            (implicit_disc_step, _implicit_disc_reference, (f, q, h, theta)),
        ):
            new = _outcome(step, *args)
            assert new[0] == "ok"
            assert new == _outcome(reference, *args)

    @pytest.mark.parametrize("theta", [0.3, 0.5])
    def test_single_point_fields_rejected(self, theta):
        # fields written for one point read the first row of a stack; unchecked,
        # it broadcast to every row and gave a wrong Jacobian.  (Symplectic
        # Euler A/B, and the theta family at 0 and 1, pass one argument as a
        # single point, where a single row of values is legitimate.)
        def f1(q, p):
            return p[0]

        def f2(q, p):
            return -2.0 * q[0]

        def f(x):
            return -2.0 * x[0]

        q, p, h = np.array([0.7]), np.array([-0.2]), 0.1
        for step, args in (
            (rk_step, (_IMPLICIT_TABLEAUX[-1], f, q, h)),
            (prk_step, (stormer_verlet_tableau(), f1, f2, q, p, h)),
            (cotangent_theta_step, (f1, f2, q, p, h, theta)),
            (implicit_euler_step, (f, q, h)),
            (implicit_disc_step, (f, q, h, theta)),
        ):
            with pytest.raises(ValueError, match=r"fields map an \(m, n\) stack"):
                step(*args)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["stormer_verlet", "theta_family", "sympl_euler_a", "sympl_euler_b"]),
        st.tuples(_coord, _coord, _coord, _coord),
        _positive,
        st.floats(1e-3, 0.1),
        _theta,
    )
    # step 1 lands on r = 0: bench's energy observer raises there, the
    # reference's field at step 2, and both must name the state
    @example("theta_family", (0.0, 0.1, 0.0, 0.0), 0.1, 0.1, 0.0)
    def test_kepler_runs_bitwise(self, integrator, x0, mu, dt, theta):
        # bench's own split fields and stepper glue against the references;
        # theta_family alone takes theta
        config = bench.default_config(
            "kepler", integrator, dt=dt, steps=5,
            theta=theta if integrator == "theta_family" else None,
            params={"mu": mu, "x0": x0},
        )
        f1, f2 = _kepler_split_reference(mu)
        step = {
            "stormer_verlet": lambda q, p: _prk_reference(
                stormer_verlet_tableau(), f1, f2, q, p, dt
            ),
            "theta_family": lambda q, p: _cotangent_theta_reference(
                f1, f2, q, p, dt, theta
            ),
            "sympl_euler_a": lambda q, p: _symplectic_euler_a_reference(
                f1, f2, q, p, dt
            ),
            "sympl_euler_b": lambda q, p: _symplectic_euler_b_reference(
                f1, f2, q, p, dt
            ),
        }[integrator]

        def reference_run():
            x = np.asarray(x0, dtype=float)
            rows = []
            for _ in range(config.steps):
                q, p = step(x[:2], x[2:])
                x = np.concatenate([q, p])
                rows.append(x)
            return tuple(rows)

        def run():
            return tuple(np.array(rec.values[:4]) for rec in bench.run_scenario(config))

        ref = _outcome(reference_run)
        new = _outcome(run)
        if ref[0] == "raised":
            # bench reports the step the integrator failed at, with the same cause
            assert new[0] == "raised" and str(ref[2]) in new[2]
        else:
            assert new == ref


# --- the discretization maps as a whole-scheme oracle -------------------------------------
#
# Each stock Lie-group step, mapped back through the inverse of the
# discretization that induced it, gives (xi, nu) on the algebra side and the
# momentum difference dmu.  Each generator yields, per step: xi; the momentum
# that the scheme's relation sets equal to I xi / dt, built on nu; the same
# momentum built from step k's state instead of step k + 1's; and the residual
# of the scheme's relation for dmu.  Each runs the stock body unless given
# another one.

_ORACLE_STEPS = 1000
_ORACLE_DT = 0.01
_QUAD_FORCED = QuadrotorInput(M=(0.2, -0.1, 0.3), F=12.0)


def _lp_left_relations(ret, dt, steps, r=Rotation.identity(), pi=(1.0, 1.0, 1.0), params=PARAMS):
    # xi = dt I^-1 nu and dmu = 0
    for _ in range(steps):
        r_new, pi_new = lie_poisson_left_step(params, ret, r, pi, dt)
        (_, nu), (xi, dmu) = triv_disc_inverse_left(r, pi, r_new, pi_new, ret)
        yield xi, nu, mat_vec(ret.dual_matrix(xi), pi), dmu
        r, pi = r_new, pi_new


def _lp_right_relations(ret, dt, steps, r=Rotation.identity(), pi=(1.0, 1.0, 1.0), params=PARAMS):
    # xi = dt I^-1 nu, with nu built on the body momentum R'^T mu', and dmu = 0
    mu = r.apply(pi)
    for _ in range(steps):
        r_new, mu_new = lie_poisson_right_step(params, ret, r, mu, dt)
        (_, nu), (xi, dmu) = triv_disc_inverse_right(r, mu, r_new, mu_new, ret)
        yield xi, nu, mat_vec(ret.dual_matrix(xi), r.apply_transpose(mu)), dmu
        r, mu = r_new, mu_new


def _heavytop_relations(
    ret, dt, steps, r=Rotation.identity(), pi=(1.0, 1.0, 1.0), params=HT_PARAMS,
    gamma=(0.0, 0.0, 1.0),
):
    # exp: xi = dt I^-1 (nu + Q(xi, z) Gamma'); Cayley: xi = dt I^-1 dual(xi)
    # (Pi' + z x Gamma' / 2); both: dmu = Gamma x d, where x' - x = R d
    step = heavytop_exp_step if ret.tag == EXP_TAG else heavytop_cay_step
    z = vec_scale(params.chi, dt * params.m * params.g)

    def coupling(xi, gamma):
        if ret.tag == EXP_TAG:
            return mat_vec(Q_mat(xi, z), gamma)
        return mat_vec(ret.dual_matrix(xi), vec_scale(cross(z, gamma), 0.5))

    state = HeavyTopState(R=r, x=(0.0, 0.0, 0.0), Pi=pi, Gamma=gamma)
    for _ in range(steps):
        new = step(params, state, dt)
        (_, nu), (xi, dmu) = triv_disc_inverse_left(state.R, state.Pi, new.R, new.Pi, ret)
        stale = vec_add(mat_vec(ret.dual_matrix(xi), state.Pi), coupling(xi, state.Gamma))
        d = mat_T_vec(state.R.m, vec_sub(new.x, state.x))
        yield xi, vec_add(nu, coupling(xi, new.Gamma)), stale, vec_sub(dmu, cross(state.Gamma, d))
        state = new


def _quadrotor_relations(ret, dt, steps):
    # xi = dt I^-1 dual(xi) (Pi' - dt M) and dmu = dt W M, W = R^T R'
    params = QuadrotorParams(inertia=PARAMS.inertia)
    impulse = vec_scale(_QUAD_FORCED.M, dt)
    state = QuadrotorState(
        R=Rotation.identity(), Pi=(0.3, -0.2, 1.0), q=(0.0, 0.0, 1.0), p=(0.0, 0.0, 0.0)
    )
    for _ in range(steps):
        new = quadrotor_step(params, state, _QUAD_FORCED, dt, ret)
        (_, nu), (xi, dmu) = triv_disc_inverse_left(state.R, state.Pi, new.R, new.Pi, ret)
        dual = ret.dual_matrix(xi)
        w = so3.mat_mul(so3.mat_transpose(state.R.m), new.R.m)
        yield (
            xi,
            vec_sub(nu, mat_vec(dual, impulse)),
            mat_vec(dual, vec_sub(state.Pi, impulse)),
            vec_sub(dmu, mat_vec(w, impulse)),
        )
        state = new


# a random start attitude and body momentum, stepped at five times the stock dt
_RANDOM_START = (exp_so3((-0.08, 0.76, -0.94)), (-0.87, 1.85, 0.66))

# relations, tag, dt, start, bound on xi - dt I^-1 momentum, bound on the dmu
# residual.  Over these 1 000 steps the worst xi misfit was 9.9e-15, and the
# worst dmu residual 5.8e-15 (left), 0 (right), 4.2e-14 (heavy top) and 1.3e-14
# (quadrotor); step k's momentum misses xi by 1.4e-5, 9.9e-4 and 3.1e-5.  From
# the random start the worst xi misfit was 2.2e-16, the worst dmu residual
# 9.1e-15 (left) and 0 (right), and step k's momentum misses by 4.8e-4.
_ORACLE_CASES = [
    (_lp_left_relations, EXP_TAG, _ORACLE_DT, (), 5e-14, 5e-14),
    (_lp_left_relations, CAYLEY_TAG, _ORACLE_DT, (), 5e-14, 5e-14),
    (_lp_right_relations, EXP_TAG, _ORACLE_DT, (), 5e-14, 0.0),
    (_lp_right_relations, CAYLEY_TAG, _ORACLE_DT, (), 5e-14, 0.0),
    (_heavytop_relations, EXP_TAG, _ORACLE_DT, (), 5e-14, 5e-13),
    (_heavytop_relations, CAYLEY_TAG, _ORACLE_DT, (), 5e-14, 5e-13),
    (_quadrotor_relations, EXP_TAG, _ORACLE_DT, (), 5e-14, 1e-12),
    (_quadrotor_relations, CAYLEY_TAG, _ORACLE_DT, (), 5e-14, 1e-12),
    (_lp_left_relations, EXP_TAG, 0.05, _RANDOM_START, 5e-14, 5e-14),
    (_lp_left_relations, CAYLEY_TAG, 0.05, _RANDOM_START, 5e-14, 5e-14),
    (_lp_right_relations, EXP_TAG, 0.05, _RANDOM_START, 5e-14, 0.0),
    (_lp_right_relations, CAYLEY_TAG, 0.05, _RANDOM_START, 5e-14, 0.0),
]


_EPS = np.finfo(float).eps


def _xi_misfit(params, dt, xi, momentum):
    return _vec_err(xi, vec_scale(mat_vec(params.inertia_inv, momentum), dt))


_COUPLED_RELATIONS = {
    "lp_left": _lp_left_relations,
    "lp_right": _lp_right_relations,
    "heavytop": _heavytop_relations,
}


class TestDiscretizationOracle:
    @pytest.mark.parametrize(
        ("relations", "tag", "dt", "start", "xi_bound", "dmu_bound"),
        _ORACLE_CASES,
        ids=[
            f"{case[0].__name__[1:-10]}-{case[1]}" + ("-random" if case[3] else "")
            for case in _ORACLE_CASES
        ],
    )
    def test_stock_steps_keep_the_discrete_momentum_relations(
        self, relations, tag, dt, start, xi_bound, dmu_bound
    ):
        worst_xi = worst_stale = worst_dmu = 0.0
        for xi, momentum, stale, dmu_residual in relations(
            TrivializedRetraction(tag), dt, _ORACLE_STEPS, *start
        ):
            worst_xi = max(worst_xi, _xi_misfit(PARAMS, dt, xi, momentum))
            worst_stale = max(worst_stale, _xi_misfit(PARAMS, dt, xi, stale))
            worst_dmu = max(worst_dmu, max(abs(c) for c in dmu_residual))
        assert worst_xi <= xi_bound
        assert worst_dmu <= dmu_bound
        # step k's momentum misses by about 1e-5, so the bound has teeth
        assert worst_stale > 1e6 * xi_bound

    @pytest.mark.parametrize("name", list(_COUPLED_RELATIONS))
    @_retractions
    @settings(max_examples=25, deadline=None)
    @given(
        _inertias(), _vectors, _vectors, _unit_vectors(), _moving_steps,
        st.tuples(*[st.floats(-1.5, 1.5)] * 3), st.floats(0.1, 30.0),
    )
    def test_coupled_bodies_keep_the_discrete_momentum_relations(
        self, name, ret, inertia, xi0, pi0, gamma0, dt, chi, g
    ):
        # the same relations on random coupled bodies, from a random start
        if name == "heavytop":
            params = HeavyTopParams(inertia=inertia, m=1.0, g=g, chi=chi)
            extra = {"gamma": gamma0}
            torque, z = vec_scale(cross(gamma0, chi), g), vec_scale(chi, dt * g)
        else:
            params = RigidBodyParams(inertia)
            extra = {}
            torque = z = (0.0, 0.0, 0.0)
        inv_norm = max(sum(abs(v) for v in row) for row in params.inertia_inv)
        # step k's momentum misses xi by about dt^2 |I^-1 dPi/dt|; the control
        # below needs a body that moves
        rate = vec_add(cross(pi0, mat_vec(params.inertia_inv, pi0)), torque)
        assume(dt * dt * norm(mat_vec(params.inertia_inv, rate)) > 1e-9)

        worst_stale = 0.0
        for xi, momentum, stale, dmu_residual in _COUPLED_RELATIONS[name](
            ret, dt, 5, exp_so3(xi0), pi0, params=params, **extra
        ):
            # the Newton tolerance through dt I^-1, and a few roundoffs of the terms
            size = max(abs(c) for c in momentum)
            scale = 1.0 + max(abs(c) for c in xi) + dt * inv_norm * size
            xi_bound = dt * inv_norm * NEWTON_TOL + 16.0 * _EPS * scale
            assert _xi_misfit(params, dt, xi, momentum) <= xi_bound
            assert max(abs(c) for c in dmu_residual) <= 32.0 * _EPS * (1.0 + size + norm(z))
            worst_stale = max(worst_stale, _xi_misfit(params, dt, xi, stale) / xi_bound)
        assert worst_stale > 1e3

    @_retractions
    @settings(max_examples=40, deadline=None)
    @given(_inertias(), _vectors, _chart_steps)
    def test_newton_updates_use_the_relations_jacobian(self, ret, inertia, pi, dt):
        # record each Newton update of the left step's solve as (Jacobian,
        # residual, step), then walk its iterates from I^-1 Pi: each residual
        # is the relation at the iterate, and each Jacobian its derivative
        params = RigidBodyParams(inertia)
        updates = []

        def recording(jac, rhs):
            step = solve3(jac, rhs)
            updates.append((jac, rhs, step))
            return step

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(integrators, "solve3", recording)
            root = _solve_body_omega(params, pi, dt, ret)

        def relation(omega):
            # dual(y) tau(y)^T Pi - I Omega at y = dt Omega, from the retraction's own maps
            y = vec_scale(omega, dt)
            momentum = mat_vec(ret.dual_matrix(y), mat_T_vec(ret.tau_matrix(y), pi))
            return vec_sub(momentum, mat_vec(inertia, omega))

        size = max(abs(v) for row in inertia for v in row)
        jac_bound = 1e-9 * (size + dt * max(abs(c) for c in pi))
        omega = mat_vec(params.inertia_inv, pi)
        for jac, res, step in updates:
            scale = max(abs(c) for c in pi) + size * max(abs(c) for c in omega)
            assert _vec_err(res, relation(omega)) <= 8.0 * _EPS * scale
            # central differences; their error is far below jac_bound
            h = 1e-5 * (1.0 + max(abs(c) for c in omega))
            for j in range(3):
                e = tuple(h if k == j else 0.0 for k in range(3))
                diff = vec_sub(relation(vec_add(omega, e)), relation(vec_sub(omega, e)))
                assert max(abs(jac[i][j] - diff[i] / (2.0 * h)) for i in range(3)) <= jac_bound
            omega = vec_sub(omega, step)
        assert omega == root


# --- the flat discretization map as a whole-scheme oracle ---------------------------------
#
# The theta map x' = x + h f((1-theta) x + theta x') says that the inverse of
# the flat discretization map at weight theta takes the step (x, x') to the
# midpoint and v = x' - x = h f(midpoint).  Its cotangent lift weights q by
# theta and p by 1 - theta.  Each generator yields, per step, the misfit
# |v - h f(mid)| at the scheme's weight, the roundoff scale of its terms, and
# the misfit at a wrong weight, which is O(h^2).

def _stock_flat(scenario):
    """Stock dt, step count, initial state, full field and split fields of a flat scenario."""
    config = bench.default_config(scenario, "implicit_euler")
    p = config.params
    if scenario == "harmonic":
        params = HarmonicOscillatorParams(k=p["k"], m=p["m"])
        x0 = np.array([p["q0"], p["v0"]])
        fields = ho_vectorfield(params), ho_split_fields(params)
    else:
        params = KeplerParams(mu=p["mu"])
        x0 = np.array(p["x0"])
        fields = kepler_vectorfield(params), kepler_split_fields(params)
    return config.dt, config.steps, x0, fields


def _wrong_weight(theta):
    return theta + 0.25 if theta < 0.75 else theta - 0.25


def _theta_map_misfits(f, x, h, theta, steps):
    wrong = _wrong_weight(theta)
    for _ in range(steps):
        x_new = implicit_disc_step(f, x, h, theta)
        mid, v = flat_discretize_inverse(x, x_new, theta)
        hf = h * f(mid)
        scale = np.max(np.abs(x)) + np.max(np.abs(x_new)) + np.max(np.abs(hf))
        mid_wrong, _ = flat_discretize_inverse(x, x_new, wrong)
        yield (
            np.max(np.abs(v - hf)),
            scale,
            np.max(np.abs(v - h * f(mid_wrong))),
        )
        x = x_new


def _cotangent_misfits(f1, f2, x, h, theta, steps):
    wrong = _wrong_weight(theta)
    n = x.size // 2
    q, p = x[:n], x[n:]

    def misfit(q, q_new, p, p_new, weight):
        qm, v_q = flat_discretize_inverse(q, q_new, weight)
        pm, v_p = flat_discretize_inverse(p, p_new, 1.0 - weight)
        hf1, hf2 = h * f1(qm, pm), h * f2(qm, pm)
        terms = (q, q_new, p, p_new, hf1, hf2)
        scale = sum(np.max(np.abs(t)) for t in terms)
        return max(np.max(np.abs(v_q - hf1)), np.max(np.abs(v_p - hf2))), scale

    for _ in range(steps):
        q_new, p_new = cotangent_theta_step(f1, f2, q, p, h, theta)
        miss, scale = misfit(q, q_new, p, p_new, theta)
        yield miss, scale, misfit(q, q_new, p, p_new, wrong)[0]
        q, p = q_new, p_new


# Kepler implicit Euler (theta = 1) fails its Newton solve at step 133, so it
# runs the 132 steps before that; every other case runs its stock step count.
_FLAT_ORACLE_CASES = [
    (scenario, family, theta)
    for scenario in ("harmonic", "kepler")
    for family, thetas in (("theta_map", (0.0, 0.5, 1.0)), ("cotangent", (0.0, 0.25, 0.5, 1.0)))
    for theta in thetas
]


class TestFlatDiscretizationOracle:
    @pytest.mark.parametrize(
        ("scenario", "family", "theta"),
        _FLAT_ORACLE_CASES,
        ids=[f"{s}-{f}-{t}" for s, f, t in _FLAT_ORACLE_CASES],
    )
    def test_stock_steps_invert_to_h_times_the_field(self, scenario, family, theta):
        dt, steps, x0, (f, (f1, f2)) = _stock_flat(scenario)
        if family == "theta_map":
            if scenario == "kepler" and theta == 1.0:
                steps = 132
            misfits = _theta_map_misfits(f, x0, dt, theta, steps)
        else:
            misfits = _cotangent_misfits(f1, f2, x0, dt, theta, steps)
        worst_wrong = 0.0
        for miss, scale, wrong_miss in misfits:
            # the Newton tolerance (1e-12) plus a few roundoffs of the terms
            assert miss <= 1e-12 + 4.0 * _EPS * scale
            worst_wrong = max(worst_wrong, wrong_miss)
        # a midpoint at the wrong weight misses by O(h^2), so the bound has teeth
        assert worst_wrong > 1e6 * 1e-12



# --- the discrete Euler-Poincare recurrence (Lagrangian side) ------------------------------
#
# Marsden, Pekarsky & Shkoller, "Discrete Euler-Poincare and Lie-Poisson
# equations" (Nonlinearity, 1999).  With y = dt Omega, the left logarithmic
# derivative L(y) of tau and Pi = L(y)^-1 I Omega, the body velocities of a
# left-trivialized rigid-body run satisfy
#
#     L(y_{k+1})^-1 I Omega_{k+1} = tau(y_k)^T L(y_k)^-1 I Omega_k.
#
# The kernels below are written on plain floats from these definitions and
# share no code with geomint.so3, geomint.integrators or geomint.odecore.

def _ep_hat2(y, v):
    """(hat(y) v, hat(y)^2 v)."""
    w1 = (y[1] * v[2] - y[2] * v[1], y[2] * v[0] - y[0] * v[2], y[0] * v[1] - y[1] * v[0])
    w2 = (y[1] * w1[2] - y[2] * w1[1], y[2] * w1[0] - y[0] * w1[2], y[0] * w1[1] - y[1] * w1[0])
    return w1, w2


def _ep_dlog_inv(y, tag, v):
    """L(y)^-1 v = s v + hat(y) v / 2 + c hat(y)^2 v.

    For exp, L(y) = I - a hat(y) + b hat(y)^2 with a = (1 - cos t) / t^2 and
    b = (t - sin t) / t^3 (t = |y|), whose inverse has s = 1 and c = 1/t^2 -
    (1 + cos t) / (2 t sin t); for Cayley, L(y) = (I - hat(y)/2) / (1 + t^2/4)
    and s = 1 + t^2/4, c = 1/4.
    """
    t2 = y[0] * y[0] + y[1] * y[1] + y[2] * y[2]
    if tag == CAYLEY_TAG:
        s, c = 1.0 + 0.25 * t2, 0.25
    elif t2 < 1e-8:
        s, c = 1.0, 1.0 / 12.0
    else:
        t = math.sqrt(t2)
        s, c = 1.0, 1.0 / t2 - (1.0 + math.cos(t)) / (2.0 * t * math.sin(t))
    w1, w2 = _ep_hat2(y, v)
    return tuple(s * v[i] + 0.5 * w1[i] + c * w2[i] for i in range(3))


def _ep_tau_t(y, tag, v):
    """tau(y)^T v = tau(-y) v: Rodrigues for exp, cay(y/2) for Cayley."""
    t2 = y[0] * y[0] + y[1] * y[1] + y[2] * y[2]
    if tag == CAYLEY_TAG:
        s = 1.0 / (1.0 + 0.25 * t2)
        a, b = s, 0.5 * s
    else:
        t = math.sqrt(t2)
        a = math.sin(t) / t if t > 0.0 else 1.0
        b = (1.0 - math.cos(t)) / t2 if t > 0.0 else 0.5
    w1, w2 = _ep_hat2(y, v)
    return tuple(v[i] - a * w1[i] + b * w2[i] for i in range(3))


def _ep_solve(m, r):
    """m^-1 r by Cramer's rule."""
    (a, b, c), (d, e, f), (g, h, i) = m
    det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    return (
        ((e * i - f * h) * r[0] + (c * h - b * i) * r[1] + (b * f - c * e) * r[2]) / det,
        ((f * g - d * i) * r[0] + (a * i - c * g) * r[1] + (c * d - a * f) * r[2]) / det,
        ((d * h - e * g) * r[0] + (b * g - a * h) * r[1] + (a * e - b * d) * r[2]) / det,
    )


def _ep_momentum(inertia, omega, dt, tag):
    """Pi = L(dt Omega)^-1 I Omega."""
    i_omega = tuple(sum(inertia[i][j] * omega[j] for j in range(3)) for i in range(3))
    return _ep_dlog_inv(tuple(dt * w for w in omega), tag, i_omega)


def _ep_velocity(inertia, mu, guess, dt, tag):
    """Omega with L(dt Omega)^-1 I Omega = mu: Newton with a forward-difference Jacobian."""
    omega = guess
    for _ in range(20):
        res = tuple(a - b for a, b in zip(_ep_momentum(inertia, omega, dt, tag), mu))
        h = 1e-7 * (1.0 + max(abs(w) for w in omega))
        cols = [
            tuple(
                (a - b - r) / h
                for a, b, r in zip(
                    _ep_momentum(inertia, tuple(w + h * c for w, c in zip(omega, e)), dt, tag),
                    mu,
                    res,
                )
            )
            for e in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        ]
        step = _ep_solve(tuple(zip(*cols)), res)
        omega = tuple(w - s for w, s in zip(omega, step))
        # the difference Jacobian is good to about 1e-7, so an update this small
        # leaves an error at roundoff
        if max(abs(s) for s in step) <= 1e-10:
            return omega
    raise AssertionError("Euler-Poincare Newton did not converge")


def _ep_run(inertia, pi0, dt, tag, steps, transport=_ep_tau_t):
    """Pi_k = L(dt Omega_k)^-1 I Omega_k along the recurrence, k = 1 .. steps."""
    omega = _ep_velocity(inertia, pi0, pi0, dt, tag)
    pi = _ep_momentum(inertia, omega, dt, tag)
    previous = omega
    for _ in range(steps):
        mu = transport(tuple(dt * w for w in omega), tag, pi)
        # start Newton from the linear extrapolation of the last two velocities
        guess = tuple(2.0 * w - v for w, v in zip(omega, previous))
        previous, omega = omega, _ep_velocity(inertia, mu, guess, dt, tag)
        pi = _ep_momentum(inertia, omega, dt, tag)
        yield pi


def _ep_tau_wrong(y, tag, v):
    """tau(y) v, the transport with the wrong direction."""
    return _ep_tau_t(tuple(-c for c in y), tag, v)


class TestEulerPoincareRecurrence:
    @pytest.mark.parametrize("tag", [EXP_TAG, CAYLEY_TAG])
    def test_recurrence_retraces_the_lie_poisson_momenta(self, tag):
        config = bench.default_config("rigidbody", "lp_exp")
        dt, pi0 = config.dt, config.params["Pi0"]
        ret = TrivializedRetraction(tag)
        r, pi = Rotation.identity(), pi0
        worst = 0.0
        for pi_ep in _ep_run(PARAMS.inertia, pi0, dt, tag, _ORACLE_STEPS):
            r, pi = lie_poisson_left_step(PARAMS, ret, r, pi, dt)
            worst = max(worst, _vec_err(pi_ep, pi))
        assert worst <= 1e-12
        # transport by tau(y) instead of tau(y)^T leaves the Lie-Poisson run
        # at once, so the bound has teeth
        wrong = _ep_run(PARAMS.inertia, pi0, dt, tag, 1, transport=_ep_tau_wrong)
        first = lie_poisson_left_step(PARAMS, ret, Rotation.identity(), pi0, dt)[1]
        assert _vec_err(next(wrong), first) > 1e6 * 1e-12


# --- the forced quadrotor's discrete balance laws ------------------------------------------
#
# Over one step the spatial angular momentum R Pi changes by the impulse of the
# body moment M taken in the new attitude, R'Pi' - R Pi = dt R'M, and the
# linear momentum by the impulse of the thrust along the old attitude's body
# axis e3 and of gravity, p' - p = dt (F R e3 - m g e3).  ``frame`` picks the
# attitude that the law applies M or F through; the right one is R' for M
# and R for F.

_QUAD_STOCK = QuadrotorParams(inertia=PARAMS.inertia)


def _angular_balance(state, new, u, dt, frame):
    """|R'Pi' - R Pi - dt frame M|_inf and its bound 1e-13 (1 + |Pi| + dt |M|)."""
    change = vec_sub(new.R.apply(new.Pi), state.R.apply(state.Pi))
    miss = _vec_err(change, vec_scale(frame.apply(u.M), dt))
    return miss, 1e-13 * (1.0 + norm(state.Pi) + dt * norm(u.M))


def _linear_balance(state, new, u, dt, frame):
    """|p' - p - dt (F frame e3 - m g e3)|_inf and its bound 1e-13 (1 + |p| + dt (F + m g))."""
    mg = _QUAD_STOCK.m * _QUAD_STOCK.g
    force = vec_sub(vec_scale(frame.apply((0.0, 0.0, 1.0)), u.F), (0.0, 0.0, mg))
    miss = _vec_err(vec_sub(new.p, state.p), vec_scale(force, dt))
    return miss, 1e-13 * (1.0 + norm(state.p) + dt * (u.F + mg))


def _forced_run(pi0, u, dt, ret, steps=200):
    state = QuadrotorState(R=Rotation.identity(), Pi=pi0, q=(0.0, 0.0, 1.0), p=(0.0, 0.0, 0.0))
    for _ in range(steps):
        new = quadrotor_step(_QUAD_STOCK, state, u, dt, ret)
        yield state, new
        state = new


_unit_box = st.floats(-1.0, 1.0)


class TestQuadrotorBalanceLaws:
    @settings(max_examples=40, deadline=None)
    @given(
        st.tuples(_unit_box, _unit_box, _unit_box),
        st.floats(0.0, 30.0),
        st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        st.floats(1e-3, 0.05),
    )
    def test_each_step_keeps_both_balance_laws(self, moment, thrust, pi0, dt):
        u = QuadrotorInput(M=moment, F=thrust)
        for ret in (EXP, CAY):
            for state, new in _forced_run(pi0, u, dt, ret):
                miss, bound = _angular_balance(state, new, u, dt, new.R)
                assert miss <= bound
                miss, bound = _linear_balance(state, new, u, dt, state.R)
                assert miss <= bound

    def test_the_wrong_frame_breaks_the_bounds(self):
        # M applied through R, or F through R', misses by far more than the bound
        dt = 0.05
        for ret in (EXP, CAY):
            worst_angular = worst_linear = 0.0
            for state, new in _forced_run((0.3, -0.2, 1.0), _QUAD_FORCED, dt, ret):
                miss, bound = _angular_balance(state, new, _QUAD_FORCED, dt, state.R)
                worst_angular = max(worst_angular, miss / bound)
                miss, bound = _linear_balance(state, new, _QUAD_FORCED, dt, new.R)
                worst_linear = max(worst_linear, miss / bound)
            assert worst_angular > 1e3 and worst_linear > 1e3
