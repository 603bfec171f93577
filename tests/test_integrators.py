"""Geometric integrator tests: scheme relations, Casimirs, consistency orders.

The order tests use self-referential Richardson comparisons: the reference
trajectory is the same scheme at a hundred-fold smaller step, so first-order
one-step errors must shrink by a factor of about four when the step halves.
"""

import math
import random
import struct

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from geomint import bench, so3
from geomint.errors import GeomintError, NoConvergence, SingularJacobian, SingularOrigin
from geomint.geometry import CAYLEY_TAG, EXP_TAG, cayley_retraction, exp_retraction
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
    _check_exp_chart,
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
    heavytop_casimirs,
    ho_vectorfield,
    kepler_vectorfield,
    pendulum_embedded_vf,
    rigidbody_energy,
)
from geomint.odecore import (
    DEFAULT_NEWTON,
    FD_STEP,
    NewtonSettings,
    implicit_euler_step,
    newton_solve,
    prk_step,
    stormer_verlet_tableau,
    symplectic_euler_a_step,
    symplectic_euler_b_step,
    symplectic_euler_tableau,
)
from geomint.so3 import (
    Rotation,
    _coeff_a,
    _coeff_b,
    _coeff_da,
    _coeff_db,
    _sinc,
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
    return np.array([x[1], -x[0]])


def _f1(q, p):
    return np.asarray(p, dtype=float)


def _f2(q, p):
    return -np.asarray(q, dtype=float)


def _rand_vec(rng, scale=1.0):
    return tuple(rng.uniform(-scale, scale) for _ in range(3))


def _vec_err(a, b):
    return max(abs(a[i] - b[i]) for i in range(3))


def _mat_err(a, b):
    return max(abs(a[i][j] - b[i][j]) for i in range(3) for j in range(3))


class TestImplicitDiscStep:
    def test_theta_zero_is_explicit_euler(self):
        x = np.array([1.0, 0.0])
        out = implicit_disc_step(_ho_field, x, 0.1, 0.0)
        assert np.array_equal(out, x + 0.1 * _ho_field(x))

    def test_theta_one_is_implicit_euler(self):
        x = np.array([1.0, 0.0])
        out = implicit_disc_step(_ho_field, x, 0.1, 1.0)
        expected = np.array([1.0, -0.1]) / 1.01
        assert np.max(np.abs(out - expected)) < 1e-11

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
    def test_endpoints_delegate_exactly(self):
        q, p = np.array([1.0]), np.array([0.2])
        qa, pa = symplectic_euler_a_step(_f1, _f2, q, p, 0.1)
        q0, p0 = cotangent_theta_step(_f1, _f2, q, p, 0.1, 0.0)
        assert np.array_equal(qa, q0) and np.array_equal(pa, p0)
        qb, pb = symplectic_euler_b_step(_f1, _f2, q, p, 0.1)
        q1, p1 = cotangent_theta_step(_f1, _f2, q, p, 0.1, 1.0)
        assert np.array_equal(qb, q1) and np.array_equal(pb, p1)

    @pytest.mark.parametrize("theta", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_symplectic_one_step_matrix(self, theta):
        h = 0.1
        cols = []
        for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
            q, p = cotangent_theta_step(_f1, _f2, e[:1], e[1:], h, theta)
            cols.append(np.concatenate([q, p]))
        s = np.column_stack(cols)
        assert np.max(np.abs(s.T @ J2 @ s - J2)) < 1e-12


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

    def test_small_step_consistency(self):
        ret = exp_retraction()
        r = exp_so3((0.2, -0.1, 0.4))
        pi = (1.0, 1.0, 1.0)
        for dt in (1e-3, 1e-4):
            r2, pi2 = lie_poisson_left_step(PARAMS, ret, r, pi, dt)
            assert _mat_err(r2.m, r.m) < 3.0 * dt
            assert _vec_err(pi2, pi) < 3.0 * dt

    def test_momentum_norm_is_casimir(self):
        for ret in (exp_retraction(), cayley_retraction()):
            r, pi = Rotation.identity(), (1.0, 1.0, 1.0)
            r, pi = lie_poisson_left_step(PARAMS, ret, r, pi, 0.01)
            assert abs(norm(pi) - math.sqrt(3.0)) < 1e-12

    def test_scheme_relations_resubstitute(self):
        # R' = R tau(dt Omega), dual(dt Omega) Pi' = I Omega, Pi' = tau^T Pi
        rng = random.Random(40)
        for ret in (exp_retraction(), cayley_retraction()):
            r = exp_so3(_rand_vec(rng))
            pi = _rand_vec(rng, 2.0)
            dt = 0.05
            r2, pi2 = lie_poisson_left_step(PARAMS, ret, r, pi, dt)
            xi = ret.tau_inv(Rotation(so3.mat_mul(so3.mat_transpose(r.m), r2.m)))
            omega = vec_scale(xi, 1.0 / dt)
            # transport line
            w = ret.tau(xi)
            assert _vec_err(pi2, mat_T_vec(w.m, pi)) < 1e-12
            # momentum relation
            nu = mat_vec(ret.dual_matrix(xi), pi2)
            i_omega = mat_vec(PARAMS.inertia, omega)
            assert _vec_err(nu, i_omega) < 5e-11

    def test_raises_on_hopeless_newton(self):
        from geomint.odecore import NewtonSettings

        with pytest.raises(NoConvergence):
            lie_poisson_left_step(
                PARAMS,
                exp_retraction(),
                Rotation.identity(),
                (1.0, 1.0, 1.0),
                0.01,
                NewtonSettings(tol=1e-30, max_iter=3),
            )


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

    def test_left_right_agreement(self):
        # the right scheme carries the spatial momentum; transported back to
        # the body frame it retraces the left trajectory
        ret = exp_retraction()
        rng = random.Random(41)
        r0 = exp_so3(_rand_vec(rng))
        pi0 = (1.0, 1.0, 1.0)
        for dt in (0.02, 0.01):
            rl, pil = r0, pi0
            rr, mur = r0, r0.apply(pi0)
            for _ in range(10):
                rl, pil = lie_poisson_left_step(PARAMS, ret, rl, pil, dt)
                rr, mur = lie_poisson_right_step(PARAMS, ret, rr, mur, dt)
            assert _mat_err(rl.m, rr.m) < 1e-11
            assert _vec_err(pil, rr.apply_transpose(mur)) < 1e-11


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

    def test_cayley_momentum_norm(self):
        rng = random.Random(42)
        for _ in range(10):
            pi = _rand_vec(rng, 2.0)
            r2, pi2 = lie_poisson_left_step(PARAMS, CAY, Rotation.identity(), pi, 0.05)
            assert abs(norm(pi2) - norm(pi)) < 1e-12

    def test_exp_cay_agree_to_second_order(self):
        rng = random.Random(43)
        for _ in range(5):
            r = exp_so3(_rand_vec(rng))
            pi = _rand_vec(rng, 2.0)
            d1 = _step_difference(r, pi, 0.02)
            d2 = _step_difference(r, pi, 0.01)
            assert d1 / d2 > 3.0  # at least O(t^2): factor 4 when halving


def _step_difference(r, pi, dt):
    _, pe = lie_poisson_left_step(PARAMS, EXP, r, pi, dt)
    _, pc = lie_poisson_left_step(PARAMS, CAY, r, pi, dt)
    return max(_vec_err(pe, pc), 1e-30)


def _self_richardson(step_fn, dt):
    """One-step errors at dt and dt/2, each against a 100-substep reference."""
    e1 = _state_dist(step_fn(dt, 1), step_fn(dt / 100.0, 100))
    e2 = _state_dist(step_fn(dt / 2.0, 1), step_fn(dt / 200.0, 100))
    return e1, e2


def _state_dist(a, b):
    out = 0.0
    for x, y in zip(a, b):
        if isinstance(x, tuple):
            out = max(out, max(abs(x[i] - y[i]) for i in range(len(x))))
        else:
            out = max(out, _mat_err(x.m, y.m))
    return out


class TestConsistencyOrder:
    """One-step error O(t^2) against a 100-substep self-reference.

    Halving t must shrink the one-step error by at least a factor of four
    (within 20 percent).  Several of the free-body steps are locally
    superconvergent and shrink by eight instead, so the band is two-sided at
    [4 * 0.8, 8 * 1.2].
    """

    DT = 0.01

    def _check(self, step_fn):
        e1, e2 = _self_richardson(step_fn, self.DT)
        ratio = e1 / e2
        assert 4.0 * 0.8 < ratio < 8.0 * 1.2

    def test_rigidbody_exp(self):
        r0, pi0 = exp_so3((0.3, 0.1, -0.2)), (1.0, 1.0, 1.0)

        def run(dt, n):
            r, pi = r0, pi0
            for _ in range(n):
                r, pi = lie_poisson_left_step(PARAMS, EXP, r, pi, dt)
            return (r, pi)

        self._check(run)

    def test_rigidbody_cay(self):
        r0, pi0 = exp_so3((0.3, 0.1, -0.2)), (1.0, 1.0, 1.0)

        def run(dt, n):
            r, pi = r0, pi0
            for _ in range(n):
                r, pi = lie_poisson_left_step(PARAMS, CAY, r, pi, dt)
            return (r, pi)

        self._check(run)

    def test_lie_poisson_right(self):
        r0 = exp_so3((0.3, 0.1, -0.2))
        mu0 = r0.apply((1.0, 1.0, 1.0))

        def run(dt, n):
            r, mu = r0, mu0
            for _ in range(n):
                r, mu = lie_poisson_right_step(PARAMS, exp_retraction(), r, mu, dt)
            return (r, r.apply_transpose(mu))

        self._check(run)

    def test_heavytop_exp(self):
        s0 = HeavyTopState(
            R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=(1.0, 1.0, 1.0),
            Gamma=(0.0, 0.0, 1.0),
        )

        def run(dt, n):
            s = s0
            for _ in range(n):
                s = heavytop_exp_step(HT_PARAMS, s, dt)
            return (s.R, s.Pi, s.Gamma)

        self._check(run)

    def test_heavytop_cay(self):
        s0 = HeavyTopState(
            R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=(1.0, 1.0, 1.0),
            Gamma=(0.0, 0.0, 1.0),
        )

        def run(dt, n):
            s = s0
            for _ in range(n):
                s = heavytop_cay_step(HT_PARAMS, s, dt)
            return (s.R, s.Pi, s.Gamma)

        self._check(run)

    def test_quadrotor(self):
        params = QuadrotorParams(
            inertia=((1.0, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 100.0)),
            m=2.0,
            g=9.81,
        )
        u = QuadrotorInput(M=(0.1, -0.05, 0.02), F=10.0)
        s0 = QuadrotorState(
            R=exp_so3((0.1, 0.0, 0.2)), Pi=(1.0, 0.5, -0.3), q=(0.0, 0.0, 1.0),
            p=(0.1, 0.0, 0.0),
        )

        def run(dt, n):
            s = s0
            for _ in range(n):
                s = quadrotor_step(params, s, u, dt)
            return (s.R, s.Pi, s.q, s.p)

        self._check(run)


class TestContinuousLimits:
    """The one-step maps are tangent to the governing equations of motion.

    These checks pin the sign conventions: the body momentum obeys
    Pi_dot = Pi x Omega (+ m g Gamma x chi), the advected vertical obeys
    Gamma_dot = Gamma x Omega, and the attitude obeys R_dot = R hat(Omega).
    """

    def test_rigid_body_tangent_field(self):
        r0 = exp_so3((0.3, -0.2, 0.5))
        pi0 = (1.0, 0.7, -0.4)
        dt = 1e-6
        r1, pi1 = lie_poisson_left_step(PARAMS, EXP, r0, pi0, dt)
        omega = mat_vec(PARAMS.inertia_inv, pi0)
        pi_dot_fd = vec_scale(so3.vec_sub(pi1, pi0), 1.0 / dt)
        pi_dot = so3.cross(pi0, omega)
        assert _vec_err(pi_dot_fd, pi_dot) < 1e-4
        xi = so3.log_so3(Rotation(so3.mat_mul(so3.mat_transpose(r0.m), r1.m)))
        assert _vec_err(vec_scale(xi, 1.0 / dt), omega) < 1e-4

    def test_heavy_top_tangent_field(self):
        state = HeavyTopState(
            R=exp_so3((0.1, 0.2, -0.3)), x=(0.0, 0.0, 0.0), Pi=(1.0, 1.0, 1.0),
            Gamma=(0.0, 0.0, 1.0),
        )
        dt = 1e-6
        out = heavytop_exp_step(HT_PARAMS, state, dt)
        omega = mat_vec(HT_PARAMS.inertia_inv, state.Pi)
        mgchi = vec_scale(HT_PARAMS.chi, HT_PARAMS.m * HT_PARAMS.g)
        pi_dot = so3.vec_add(
            so3.cross(state.Pi, omega), so3.cross(state.Gamma, mgchi)
        )
        pi_dot_fd = vec_scale(so3.vec_sub(out.Pi, state.Pi), 1.0 / dt)
        assert _vec_err(pi_dot_fd, pi_dot) < 1e-4
        gamma_dot_fd = vec_scale(so3.vec_sub(out.Gamma, state.Gamma), 1.0 / dt)
        assert _vec_err(gamma_dot_fd, so3.cross(state.Gamma, omega)) < 1e-4

    def test_heavy_top_matches_independent_reference(self):
        # fine-step RK4 as an unrelated reference integration of the same
        # equations; the geometric scheme must land within its O(dt) error
        state = HeavyTopState(
            R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=(1.0, 1.0, 1.0),
            Gamma=(0.0, 0.0, 1.0),
        )
        horizon = 0.1
        ref = state
        for _ in range(1000):
            ref = quat_rk4_step(HT_PARAMS, ref, horizon / 1000.0)
        geo = state
        for _ in range(100):
            geo = heavytop_exp_step(HT_PARAMS, geo, horizon / 100.0)
        assert _vec_err(geo.Pi, ref.Pi) < 5e-3
        assert _vec_err(geo.Gamma, ref.Gamma) < 5e-3
        assert _mat_err(geo.R.m, ref.R.m) < 5e-3


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

    def test_exp_cay_agree_to_second_order(self):
        s1 = heavytop_exp_step(HT_PARAMS, self.STATE, 0.02)
        s2 = heavytop_cay_step(HT_PARAMS, self.STATE, 0.02)
        d1 = _vec_err(s1.Pi, s2.Pi)
        s1 = heavytop_exp_step(HT_PARAMS, self.STATE, 0.01)
        s2 = heavytop_cay_step(HT_PARAMS, self.STATE, 0.01)
        d2 = _vec_err(s1.Pi, s2.Pi)
        assert d1 / d2 > 3.0

    def test_gamma_norm_validated(self):
        with pytest.raises(ValueError):
            HeavyTopState(
                R=Rotation.identity(), x=(0.0, 0.0, 0.0), Pi=(1.0, 0.0, 0.0),
                Gamma=(0.0, 0.0, 1.5),
            )

    def test_stiff_gravity_fails_loudly(self):
        # an impulse far outside the local solvability domain must raise, not
        # return garbage
        stiff = HeavyTopParams(
            inertia=HT_PARAMS.inertia, m=1.0, g=1.0e8, chi=(0.3, 0.2, 1.0)
        )
        with pytest.raises(NoConvergence):
            heavytop_exp_step(stiff, self.STATE, 0.01)


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

    def test_quat_rk4_local_order_five(self):
        state = RigidBodyState(R=exp_so3((0.2, -0.4, 0.1)), Pi=(1.0, 1.0, 1.0))

        def run(dt, n):
            s = state
            for _ in range(n):
                s = quat_rk4_step(PARAMS, s, dt)
            return s

        ref = run(0.04 / 100.0, 100)
        e1 = _vec_err(run(0.04, 1).Pi, ref.Pi)
        e2 = _vec_err(run(0.02, 2).Pi, ref.Pi)
        # local error O(t^5) -> global over fixed horizon O(t^4): factor 16
        assert e1 / e2 > 10.0

    def test_quat_rk4_casimir_drifts(self):
        state = RigidBodyState(R=Rotation.identity(), Pi=(1.0, 1.0, 1.0))
        for _ in range(5000):
            state = quat_rk4_step(PARAMS, state, 0.01)
        assert abs(dot(state.Pi, state.Pi) - 3.0) > 1e-12

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

    def test_rkmk4_casimir_drifts(self):
        state = RigidBodyState(R=Rotation.identity(), Pi=(1.0, 1.0, 1.0))
        for _ in range(5000):
            state = rkmk4_step(PARAMS, state, 0.01)
        assert abs(dot(state.Pi, state.Pi) - 3.0) > 1e-12

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


# --- bitwise oracles for the written-out rotational kernels -----------------------
#
# The references below are the helper-composed forms of the kernels (so3.cross,
# vec_add, vec_scale, mat_vec), kept here verbatim.  The kernels in
# integrators must perform the same IEEE operations in the same order, so the
# outputs agree bit for bit, signs of zeros included.

def _solve_body_omega_reference(params, pi, dt, tag, settings):
    inertia = params.inertia
    omega = mat_vec(params.inertia_inv, pi)
    tol = settings.tol
    exp_tag = tag == EXP_TAG

    for _ in range(settings.max_iter):
        y = (dt * omega[0], dt * omega[1], dt * omega[2])
        w1 = cross(y, pi)  # hat(y) Pi
        w2 = cross(y, w1)  # hat(y)^2 Pi
        if exp_tag:
            theta = norm(y)
            a = _coeff_a(theta)
            b = _coeff_b(theta)
            da = _coeff_da(theta)
            db = _coeff_db(theta)
            lhs = (
                pi[0] - a * w1[0] + b * w2[0],
                pi[1] - a * w1[1] + b * w2[1],
                pi[2] - a * w1[2] + b * w2[2],
            )
        else:
            c = 1.0 / (1.0 + 0.25 * dot(y, y))
            lhs = (
                c * (pi[0] - 0.5 * w1[0]),
                c * (pi[1] - 0.5 * w1[1]),
                c * (pi[2] - 0.5 * w1[2]),
            )
        i_omega = mat_vec(inertia, omega)
        res = (lhs[0] - i_omega[0], lhs[1] - i_omega[1], lhs[2] - i_omega[2])
        if max(abs(res[0]), abs(res[1]), abs(res[2])) <= tol:
            if exp_tag:
                _check_exp_chart(theta)
            return omega

        cols = []
        for j in range(3):
            e: list[float] = [0.0, 0.0, 0.0]
            e[j] = 1.0
            ej = (e[0], e[1], e[2])
            ejp = cross(ej, pi)
            if exp_tag:
                yej = y[j]
                dcol = vec_add(
                    vec_sub(
                        vec_scale(vec_add(cross(y, ejp), cross(ej, w1)), b),
                        vec_scale(ejp, a),
                    ),
                    vec_add(
                        vec_scale(w1, -da * yej), vec_scale(w2, db * yej)
                    ),
                )
            else:
                p1 = (
                    pi[0] - 0.5 * w1[0],
                    pi[1] - 0.5 * w1[1],
                    pi[2] - 0.5 * w1[2],
                )
                dcol = vec_sub(
                    vec_scale(p1, -0.5 * c * c * y[j]), vec_scale(ejp, 0.5 * c)
                )
            cols.append(
                (
                    dt * dcol[0] - inertia[0][j],
                    dt * dcol[1] - inertia[1][j],
                    dt * dcol[2] - inertia[2][j],
                )
            )
        jac = (
            (cols[0][0], cols[1][0], cols[2][0]),
            (cols[0][1], cols[1][1], cols[2][1]),
            (cols[0][2], cols[1][2], cols[2][2]),
        )
        step = solve3(jac, res)
        omega = (omega[0] - step[0], omega[1] - step[1], omega[2] - step[2])

    raise NoConvergence(settings.max_iter, max(abs(r) for r in res))


def _heavytop_eval_reference(inertia, pi, gamma, omega, dt, z, tag):
    y = (dt * omega[0], dt * omega[1], dt * omega[2])
    theta = norm(y)

    if tag == EXP_TAG:
        a = _coeff_a(theta)
        b = _coeff_b(theta)
        s = _sinc(theta)
        yz = cross(y, z)
        yyz = cross(y, yz)
        d = (z[0] + a * yz[0] + b * yyz[0],
             z[1] + a * yz[1] + b * yyz[1],
             z[2] + a * yz[2] + b * yyz[2])
        lifted = vec_add(pi, cross(gamma, d))
        c1 = cross(y, lifted)
        c2 = cross(y, c1)
        pi_new = (lifted[0] - s * c1[0] + a * c2[0],
                  lifted[1] - s * c1[1] + a * c2[1],
                  lifted[2] - s * c1[2] + a * c2[2])
        g1 = cross(y, gamma)
        g2 = cross(y, g1)
        gamma_new = (gamma[0] - s * g1[0] + a * g2[0],
                     gamma[1] - s * g1[1] + a * g2[1],
                     gamma[2] - s * g1[2] + a * g2[2])
        p1 = cross(y, pi_new)
        p2 = cross(y, p1)
        jp = (pi_new[0] + a * p1[0] + b * p2[0],
              pi_new[1] + a * p1[1] + b * p2[1],
              pi_new[2] + a * p1[2] + b * p2[2])
        da = _coeff_da(theta)
        db = _coeff_db(theta)
        ydz = dot(y, z)
        zv = cross(z, gamma_new)
        yv = cross(y, gamma_new)
        qv = vec_add(
            vec_add(vec_scale(zv, a),
                    vec_scale(vec_add(cross(y, zv), cross(z, yv)), b)),
            vec_add(vec_scale(yv, da * ydz),
                    vec_scale(cross(y, yv), db * ydz)),
        )
        lhs = vec_add(jp, qv)
    else:
        w = (0.5 * y[0], 0.5 * y[1], 0.5 * y[2])
        c2w = 1.0 / (1.0 + dot(w, w))
        wz = cross(w, z)
        wdz = dot(w, z)
        d = (c2w * (z[0] + wz[0] + wdz * w[0]),
             c2w * (z[1] + wz[1] + wdz * w[1]),
             c2w * (z[2] + wz[2] + wdz * w[2]))
        lifted = vec_add(pi, cross(gamma, d))
        lv = cross(w, lifted)
        lvv = cross(w, lv)
        pi_new = (lifted[0] - 2.0 * c2w * (lv[0] - lvv[0]),
                  lifted[1] - 2.0 * c2w * (lv[1] - lvv[1]),
                  lifted[2] - 2.0 * c2w * (lv[2] - lvv[2]))
        gv = cross(w, gamma)
        gvv = cross(w, gv)
        gamma_new = (gamma[0] - 2.0 * c2w * (gv[0] - gvv[0]),
                     gamma[1] - 2.0 * c2w * (gv[1] - gvv[1]),
                     gamma[2] - 2.0 * c2w * (gv[2] - gvv[2]))
        inner = vec_add(pi_new, vec_scale(cross(z, gamma_new), 0.5))
        wi = cross(w, inner)
        lhs = (c2w * (inner[0] + wi[0]),
               c2w * (inner[1] + wi[1]),
               c2w * (inner[2] + wi[2]))

    i_omega = mat_vec(inertia, omega)
    return vec_sub(lhs, i_omega), d, pi_new, gamma_new


def _solve_heavytop_omega_reference(params, pi, gamma, dt, z, tag, settings):
    inertia = params.inertia
    inv = params.inertia_inv
    omega = mat_vec(inv, pi)
    tol = settings.tol
    fp_budget = max(12, settings.max_iter // 2)
    for _ in range(fp_budget):
        res, d, pi_new, gamma_new = _heavytop_eval_reference(
            inertia, pi, gamma, omega, dt, z, tag
        )
        if max(abs(res[0]), abs(res[1]), abs(res[2])) <= tol:
            return omega, d, pi_new, gamma_new
        omega = vec_add(omega, mat_vec(inv, res))

    def residual(arr):
        r, _, _, _ = _heavytop_eval_reference(
            inertia, pi, gamma, (arr[0], arr[1], arr[2]), dt, z, tag
        )
        return np.array(r)

    sol = newton_solve(residual, np.array(omega), settings)
    omega = (sol[0], sol[1], sol[2])
    _, d, pi_new, gamma_new = _heavytop_eval_reference(
        inertia, pi, gamma, omega, dt, z, tag
    )
    return omega, d, pi_new, gamma_new


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


_component = st.floats(-5.0, 5.0)
_vectors = st.tuples(_component, _component, _component)
_tags = st.sampled_from([EXP_TAG, CAYLEY_TAG])
# steps well inside the chart, and steps that leave it (or stall the solve)
_steps = st.one_of(st.floats(1e-4, 0.2), st.floats(0.2, 60.0))
_settings = st.sampled_from([DEFAULT_NEWTON, NewtonSettings(max_iter=2)])


@st.composite
def _inertias(draw, scales=(1.0,)):
    """Symmetric positive definite inertia: positive diagonal, small coupling.

    At the scale 3e-5 the Newton Jacobian dt K - I can fall under the 1e-14
    determinant guard of solve3, which draws SingularMatrix.
    """
    scale = draw(st.sampled_from(scales))
    diag = [scale * draw(st.floats(1.0, 100.0)) for _ in range(3)]
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


class TestKernelOracles:
    @settings(max_examples=300, deadline=None)
    @given(_inertias(scales=(1.0, 3e-5)), _vectors, _steps, _tags, _settings)
    # each way out of the solve, and signed zeros in Pi
    @example(_STOCK_INERTIA, (1.0, 1.0, 1.0), 50.0, EXP_TAG, DEFAULT_NEWTON)
    @example(_STOCK_INERTIA, (1.0, 1.0, 1.0), 0.5, CAYLEY_TAG, NewtonSettings(max_iter=2))
    @example(
        ((2e-5, 0.0, 0.0), (0.0, 3e-5, 0.0), (0.0, 0.0, 4e-5)),
        (1.0, 1.0, 1.0), 5e-5, EXP_TAG, DEFAULT_NEWTON,
    )
    @example(_STOCK_INERTIA, (0.0, -0.0, 1.0), 0.01, EXP_TAG, DEFAULT_NEWTON)
    @example(_STOCK_INERTIA, (-0.0, 2.0, 0.0), 0.01, CAYLEY_TAG, DEFAULT_NEWTON)
    def test_solve_body_omega_bitwise(self, inertia, pi, dt, tag, newton):
        params = RigidBodyParams(inertia)
        new = _outcome(_solve_body_omega, params, pi, dt, tag, newton)
        ref = _outcome(_solve_body_omega_reference, params, pi, dt, tag, newton)
        assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(
        _inertias(), _vectors, _unit_vectors(), _vectors, _steps,
        st.tuples(*[st.floats(-1.5, 1.5)] * 3), st.floats(0.1, 300.0), _tags,
    )
    def test_heavytop_eval_bitwise(self, inertia, pi, gamma, omega, dt, chi, g, tag):
        z = vec_scale(chi, dt * g)
        new = _heavytop_eval(inertia, pi, gamma, omega, dt, z, tag)
        ref = _heavytop_eval_reference(inertia, pi, gamma, omega, dt, z, tag)
        assert new == ref
        assert _bits(new) == _bits(ref)

    @settings(max_examples=150, deadline=None)
    @given(
        _inertias(), _vectors, _unit_vectors(), st.floats(1e-3, 0.2),
        st.tuples(*[st.floats(-1.5, 1.5)] * 3), st.floats(0.1, 300.0), _tags,
    )
    # stiff enough for the Newton fallback
    @example(
        _STOCK_INERTIA, (1.0, 1.0, 1.0), (0.6, 0.0, 0.8), 0.2, (0.5, -0.5, 0.7),
        300.0, CAYLEY_TAG,
    )
    def test_solve_heavytop_omega_bitwise(self, inertia, pi, gamma, dt, chi, g, tag):
        params = HeavyTopParams(inertia=inertia, m=1.0, g=g, chi=chi)
        z = vec_scale(params.chi, dt * params.m * params.g)
        args = (params, pi, gamma, dt, z, tag, DEFAULT_NEWTON)
        new = _outcome(_solve_heavytop_omega, *args)
        ref = _outcome(_solve_heavytop_omega_reference, *args)
        assert new == ref


# --- bitwise oracles for the flat steps --------------------------------------------
#
# The references below are the numpy-composed forms of newton_solve and of the
# flat step residuals, kept here verbatim.  The library forms compute on
# Python floats; they must perform the same IEEE operations in the same order,
# so every Newton iterate, and so the outcome, agrees bit for bit.

def _newton_solve_reference(residual, x0, settings=DEFAULT_NEWTON):
    x = np.array(x0, dtype=float)
    n = x.size
    h = FD_STEP
    r = np.asarray(residual(x), dtype=float)
    for _ in range(settings.max_iter):
        if np.max(np.abs(r)) <= settings.tol:
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
            raise SingularJacobian(str(exc)) from exc
        if not np.all(np.isfinite(step)):
            raise SingularJacobian("non-finite Newton step")
        x = x - step
        r = np.asarray(residual(x), dtype=float)
    if np.max(np.abs(r)) <= settings.tol:
        return x
    raise NoConvergence(settings.max_iter, float(np.max(np.abs(r))))


def _implicit_euler_reference(f, x, h, settings):
    x = np.asarray(x, dtype=float)

    def residual(y):
        return y - x - h * np.asarray(f(y), dtype=float)

    return _newton_solve_reference(residual, x, settings)


def _symplectic_euler_a_reference(f1, f2, q, v, h, settings):
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)

    def residual(w):
        return w - v - h * np.asarray(f2(q, w), dtype=float)

    v_new = _newton_solve_reference(residual, v, settings)
    q_new = q + h * np.asarray(f1(q, v_new), dtype=float)
    return q_new, v_new


def _symplectic_euler_b_reference(f1, f2, q, v, h, settings):
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)

    def residual(w):
        return w - q - h * np.asarray(f1(w, v), dtype=float)

    q_new = _newton_solve_reference(residual, q, settings)
    v_new = v + h * np.asarray(f2(q_new, v), dtype=float)
    return q_new, v_new


def _prk_reference(ptab, f1, f2, q, p, h, settings):
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
    sol = _newton_solve_reference(residual, guess, settings)
    k = sol[: s * n].reshape(s, n)
    l = sol[s * n :].reshape(s, n)
    return q + h * (b @ k), p + h * (bh @ l)


def _implicit_disc_reference(f, x, h, theta, settings):
    x = np.asarray(x, dtype=float)
    if theta == 0.0:
        return x + h * np.asarray(f(x), dtype=float)

    def residual(y):
        mid = (1.0 - theta) * x + theta * y
        return y - x - h * np.asarray(f(mid), dtype=float)

    return _newton_solve_reference(residual, x, settings)


def _cotangent_theta_reference(f1, f2, q, p, h, theta, settings):
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if theta == 0.0:
        return _symplectic_euler_a_reference(f1, f2, q, p, h, settings)
    if theta == 1.0:
        return _symplectic_euler_b_reference(f1, f2, q, p, h, settings)

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

    sol = _newton_solve_reference(residual, np.concatenate([q, p]), settings)
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


def _pendulum_split(q, v):
    return -np.sin(np.asarray(q, dtype=float))


def _abs_force(q, v):
    """Force of the potential |q|; it tells -0.0 from 0.0 in every stage point."""
    return -np.copysign(1.0, np.asarray(q, dtype=float))


def _abs_field(x):
    return np.array([x[1], -math.copysign(1.0, x[0])])


# Zeros of both signs, and no subnormals: numpy's gemv fuses each multiply-add,
# so a subnormal slope times 1/2 may round differently from the float sum (see
# odecore._stage_point); a run's slopes would have to fall below 2.2e-308.
_coord = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-3.0, 3.0, allow_subnormal=False))
_h = st.one_of(st.sampled_from([0.0, -0.0, 0.01]), st.floats(-0.5, 0.5, allow_subnormal=False))
_theta = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0, allow_subnormal=False))
_positive = st.floats(0.1, 10.0)
_split_fields = st.one_of(
    st.builds(_ho_split, _positive),
    st.builds(_kepler_split_reference, _positive),
    st.just((_f1, _pendulum_split)),
    st.just((_f1, _abs_force)),
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


# draws near the origin or with large steps overflow on the way to a failed solve
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFlatOracles:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(_coord, min_size=1, max_size=4),
        st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        _settings,
    )
    @example([3.0], [0.0, 0.0, 0.0, 0.0], DEFAULT_NEWTON)
    # overflow to a non-finite Newton step
    @example([1e155, 1.0], [1.0, 0.0, 0.0, 0.0], DEFAULT_NEWTON)
    def test_newton_solve_bitwise(self, x0, c, newton):
        # coupled, nonlinear, with a root only for some draws; the copysign
        # term tells -0.0 from 0.0 in the neighbouring unknown
        def residual(x):
            n = x.size
            return (
                x * x * c[0] + np.roll(x, 1) * c[1] - np.sin(x) * c[2] - c[3] + 0.5 * n
                + 1e-3 * np.copysign(1.0, np.roll(x, 1))
            )

        new = _outcome(newton_solve, residual, np.array(x0), newton)
        ref = _outcome(_newton_solve_reference, residual, np.array(x0), newton)
        assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(_split_fields, _split_states(), _h, _settings)
    # the Kepler force at the stock state, with signed zeros in q and p
    @example(_kepler_split_reference(1.0), (np.array([1.0, -0.0]), np.array([-0.0, 0.5])), 0.01, DEFAULT_NEWTON)
    def test_prk_bitwise(self, fields, state, h, newton):
        f1, f2 = fields
        q, p = state
        for tab in (stormer_verlet_tableau(), symplectic_euler_tableau()):
            new = _outcome(prk_step, tab, f1, f2, q, p, h, newton)
            ref = _outcome(_prk_reference, tab, f1, f2, q, p, h, newton)
            assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(_split_fields, _split_states(), _h, _settings)
    def test_symplectic_euler_bitwise(self, fields, state, h, newton):
        f1, f2 = fields
        q, p = state
        for step, reference in (
            (symplectic_euler_a_step, _symplectic_euler_a_reference),
            (symplectic_euler_b_step, _symplectic_euler_b_reference),
        ):
            new = _outcome(step, f1, f2, q, p, h, newton)
            ref = _outcome(reference, f1, f2, q, p, h, newton)
            assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(_split_fields, _split_states(), _h, _theta, _settings)
    def test_cotangent_theta_bitwise(self, fields, state, h, theta, newton):
        f1, f2 = fields
        q, p = state
        new = _outcome(cotangent_theta_step, f1, f2, q, p, h, theta, newton)
        ref = _outcome(_cotangent_theta_reference, f1, f2, q, p, h, theta, newton)
        assert new == ref

    @settings(max_examples=300, deadline=None)
    @given(_full_states(), _h, _theta, _settings)
    def test_implicit_steps_bitwise(self, field_state, h, theta, newton):
        f, x = field_state
        new = _outcome(implicit_euler_step, f, x, h, newton)
        ref = _outcome(_implicit_euler_reference, f, x, h, newton)
        assert new == ref
        new = _outcome(implicit_disc_step, f, x, h, theta, newton)
        ref = _outcome(_implicit_disc_reference, f, x, h, theta, newton)
        assert new == ref

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.0])
    def test_scalar_fields_on_one_dimensional_states(self, theta):
        # a field may return a scalar for a one-dimensional state, as numpy broadcasts it
        def f1(q, p):
            return p[0]

        def f2(q, p):
            return -2.0 * q[0]

        def f(x):
            return -2.0 * x[0]

        q, p, h = np.array([0.7]), np.array([-0.2]), 0.1
        for step, reference, args in (
            (prk_step, _prk_reference, (stormer_verlet_tableau(), f1, f2, q, p, h)),
            (symplectic_euler_a_step, _symplectic_euler_a_reference, (f1, f2, q, p, h)),
            (symplectic_euler_b_step, _symplectic_euler_b_reference, (f1, f2, q, p, h)),
            (cotangent_theta_step, _cotangent_theta_reference, (f1, f2, q, p, h, theta)),
            (implicit_euler_step, _implicit_euler_reference, (f, q, h)),
            (implicit_disc_step, _implicit_disc_reference, (f, q, h, theta)),
        ):
            new = _outcome(step, *args, DEFAULT_NEWTON)
            assert new[0] == "ok"
            assert new == _outcome(reference, *args, DEFAULT_NEWTON)

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["stormer_verlet", "theta_family", "sympl_euler_a", "sympl_euler_b"]),
        st.tuples(_coord, _coord, _coord, _coord),
        _positive,
        st.floats(1e-3, 0.1),
        _theta,
    )
    def test_kepler_runs_bitwise(self, integrator, x0, mu, dt, theta):
        # bench's own split fields and stepper glue against the references
        config = bench.default_config(
            "kepler", integrator, dt=dt, steps=5, theta=theta, params={"mu": mu, "x0": x0}
        )
        f1, f2 = _kepler_split_reference(mu)
        step = {
            "stormer_verlet": lambda q, p: _prk_reference(
                stormer_verlet_tableau(), f1, f2, q, p, dt, DEFAULT_NEWTON
            ),
            "theta_family": lambda q, p: _cotangent_theta_reference(
                f1, f2, q, p, dt, theta, DEFAULT_NEWTON
            ),
            "sympl_euler_a": lambda q, p: _symplectic_euler_a_reference(
                f1, f2, q, p, dt, DEFAULT_NEWTON
            ),
            "sympl_euler_b": lambda q, p: _symplectic_euler_b_reference(
                f1, f2, q, p, dt, DEFAULT_NEWTON
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
