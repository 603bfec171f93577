"""Classical integrator tests: update matrices, tableaux, Newton, checkers.

Reference values come from the closed-form harmonic-oscillator update
matrices and from polynomial arithmetic (the degree-4 Taylor value for RK4).
"""

import numpy as np
import pytest

from geomint import odecore as ode
from geomint.errors import NoConvergence, SingularJacobian
from geomint.odecore import (
    ButcherTableau,
    NewtonSettings,
    PartitionedTableau,
    check_order_conditions,
    check_symplectic_prk,
    explicit_euler_step,
    implicit_euler_step,
    newton_solve,
    prk_step,
    rk_step,
    symplectic_euler_a_step,
    symplectic_euler_b_step,
)

J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _ho_field(x):
    """Harmonic oscillator with k/m = 1."""
    return np.array([x[1], -x[0]])


def _f1(q, v):
    return np.asarray(v, dtype=float)


def _f2(q, v):
    return -np.asarray(q, dtype=float)


def _one_step_matrix(stepper, h):
    """Assemble the linear one-step matrix column by column."""
    cols = []
    for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
        cols.append(stepper(e, h))
    return np.column_stack(cols)


def _split_stepper(step):
    def inner(x, h):
        q, v = step(_f1, _f2, x[:1], x[1:], h)
        return np.concatenate([q, v])

    return inner


class TestNewton:
    def test_affine_one_iteration(self):
        calls = []

        def residual(x):
            calls.append(1)
            return x - 2.0

        out = newton_solve(residual, np.array([0.0]))
        assert abs(float(out[0]) - 2.0) < 1e-12
        # essentially one Newton iteration: a finite-difference Jacobian costs
        # two evaluations, plus the entry/exit residuals and one fd-roundoff
        # polish step at most
        assert len(calls) <= 8

    def test_quadratic(self):
        out = newton_solve(lambda x: x * x - 4.0, np.array([3.0]))
        assert abs(float(out[0]) - 2.0) < 1e-12

    def test_flat_residual_singular(self):
        with pytest.raises(SingularJacobian):
            newton_solve(lambda x: np.array([1.0]), np.array([0.0]))

    def test_no_real_root(self):
        with pytest.raises(NoConvergence):
            newton_solve(
                lambda x: x * x + 1.0,
                np.array([0.5]),
                NewtonSettings(tol=1e-12, max_iter=10),
            )

    def test_settings_validation(self):
        for kwargs in (
            {"tol": 0.0},
            {"tol": -1e-12},
            # nan fails every solve; inf returns the initial guess unsolved
            {"tol": float("nan")},
            {"tol": float("inf")},
            {"max_iter": 0},
            {"max_iter": 2.5},
            {"max_iter": True},
        ):
            with pytest.raises(ValueError):
                NewtonSettings(**kwargs)


class TestEulerSteps:
    def test_explicit_example(self):
        out = explicit_euler_step(_ho_field, np.array([1.0, 0.0]), 0.1)
        assert np.array_equal(out, [1.0, -0.1])

    def test_explicit_zero_field(self):
        x = np.array([0.3, -0.4])
        assert np.array_equal(explicit_euler_step(lambda y: 0.0 * y, x, 0.1), x)

    def test_explicit_linear_is_matrix(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rng = np.random.default_rng(0)
        x = rng.standard_normal(2)
        h = 0.1
        out = explicit_euler_step(lambda y: a @ y, x, h)
        assert np.array_equal(out, (np.eye(2) + h * a) @ x)

    def test_implicit_example(self):
        # closed form: (I - hA)^-1 x0 = (1, -h)/(1 + h^2) for x0 = (1, 0)
        out = implicit_euler_step(_ho_field, np.array([1.0, 0.0]), 0.1)
        expected = np.array([1.0, -0.1]) / 1.01
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_implicit_zero_field(self):
        x = np.array([2.0, 5.0])
        out = implicit_euler_step(lambda y: 0.0 * y, x, 0.1)
        assert np.max(np.abs(out - x)) < 1e-15

    def test_implicit_stiff(self):
        lam = -1.0e3
        h = 0.1
        out = implicit_euler_step(lambda y: lam * y, np.array([1.0]), h)
        # closed form x/(1 - h lam)
        assert abs(float(out[0]) - 1.0 / (1.0 - h * lam)) < 1e-12
        residual = out - 1.0 - h * lam * out
        assert np.max(np.abs(residual)) <= 1e-12


class TestSymplecticEuler:
    def test_a_matrix(self):
        h = 0.1
        s = _one_step_matrix(_split_stepper(symplectic_euler_a_step), h)
        expected = np.array([[1.0 - h * h, h], [-h, 1.0]])
        assert np.max(np.abs(s - expected)) < 1e-12

    def test_b_matrix(self):
        h = 0.1
        s = _one_step_matrix(_split_stepper(symplectic_euler_b_step), h)
        expected = np.array([[1.0, h], [-h, 1.0 - h * h]])
        assert np.max(np.abs(s - expected)) < 1e-12

    def test_zero_fields_identity(self):
        zero = lambda q, v: 0.0 * np.asarray(q, dtype=float)
        for step in (symplectic_euler_a_step, symplectic_euler_b_step):
            q, v = step(zero, zero, np.array([1.0]), np.array([2.0]), 0.1)
            assert float(q[0]) == 1.0 and float(v[0]) == 2.0

    def test_unit_determinant_and_symplectic(self):
        h = 0.1
        for step in (symplectic_euler_a_step, symplectic_euler_b_step):
            s = _one_step_matrix(_split_stepper(step), h)
            assert abs(np.linalg.det(s) - 1.0) < 1e-14
            assert np.max(np.abs(s.T @ J2 @ s - J2)) < 1e-12


class TestRungeKutta:
    def test_explicit_flag(self):
        for tab in (ode.explicit_euler_tableau(), ode.rk2_midpoint_tableau(), ode.rk4_tableau()):
            assert tab.is_explicit()
        midpoint = ButcherTableau(a=[[0.5]], b=[1.0])
        for tab in (ode.implicit_euler_tableau(), midpoint):
            assert not tab.is_explicit()
        # the flag is computed once, so the stage matrix cannot change under it
        with pytest.raises(ValueError):
            midpoint.a[0, 0] = 0.0

    def test_s1_explicit_matches_euler_bitwise(self):
        tab = ode.explicit_euler_tableau()
        x = np.array([0.37, -1.2])
        a = rk_step(tab, _ho_field, x, 0.1)
        b = explicit_euler_step(_ho_field, x, 0.1)
        assert np.array_equal(a, b)

    def test_s1_implicit_matches_euler(self):
        tab = ode.implicit_euler_tableau()
        x = np.array([1.0, 0.0])
        a = rk_step(tab, _ho_field, x, 0.1)
        b = implicit_euler_step(_ho_field, x, 0.1)
        assert np.max(np.abs(a - b)) < 1e-11

    def test_rk4_taylor_value(self):
        # exp growth: degree-4 Taylor polynomial of e^h at h = 0.1
        h = 0.1
        expected = 1.0 + h + h**2 / 2.0 + h**3 / 6.0 + h**4 / 24.0
        out = rk_step(ode.rk4_tableau(), lambda x: x, np.array([1.0]), h)
        assert abs(float(out[0]) - expected) < 1e-9
        assert abs(expected - 1.1051708333333332) < 1e-16

    def test_implicit_midpoint_matrix(self):
        tab = ButcherTableau(a=[[0.5]], b=[1.0])
        h = 0.1
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        s = _one_step_matrix(lambda x, hh: rk_step(tab, _ho_field, x, hh), h)
        expected = np.linalg.solve(np.eye(2) - h / 2.0 * a, np.eye(2) + h / 2.0 * a)
        assert np.max(np.abs(s - expected)) < 1e-12


class TestPartitionedRungeKutta:
    def test_s1_tableau_is_symplectic_euler(self):
        ptab = ode.symplectic_euler_tableau()
        q, v = np.array([1.0]), np.array([0.0])
        qn, vn = prk_step(ptab, _f1, _f2, q, v, 0.1)
        qa, va = symplectic_euler_a_step(_f1, _f2, q, v, 0.1)
        assert abs(float(qn[0]) - float(qa[0])) < 1e-12
        assert abs(float(vn[0]) - float(va[0])) < 1e-12

    def test_stormer_verlet_is_leapfrog(self):
        # kick-drift-kick on the oscillator
        h = 0.1
        q, v = np.array([1.0]), np.array([0.3])
        vh = v + 0.5 * h * _f2(q, v)
        qn = q + h * vh
        vn = vh + 0.5 * h * _f2(qn, vh)
        q2, v2 = prk_step(ode.stormer_verlet_tableau(), _f1, _f2, q, v, h)
        assert abs(float(q2[0]) - float(qn[0])) < 1e-12
        assert abs(float(v2[0]) - float(vn[0])) < 1e-12

    def test_one_zero_row_variant_matches_on_separable(self):
        # the variant with a = [[0,0],[1,0]] is the same map on separable
        # systems, though it fails the symplecticity coefficient test
        variant = PartitionedTableau(
            a=[[0.0, 0.0], [1.0, 0.0]],
            b=[0.5, 0.5],
            a_hat=[[0.5, 0.0], [0.5, 0.0]],
            b_hat=[0.5, 0.5],
        )
        q, v = np.array([1.0]), np.array([0.3])
        a1 = prk_step(ode.stormer_verlet_tableau(), _f1, _f2, q, v, 0.1)
        a2 = prk_step(variant, _f1, _f2, q, v, 0.1)
        assert abs(float(a1[0][0]) - float(a2[0][0])) < 1e-12
        assert abs(float(a1[1][0]) - float(a2[1][0])) < 1e-12
        assert not check_symplectic_prk(variant)

    def test_zero_fields_identity(self):
        zero = lambda q, v: 0.0 * np.asarray(q, dtype=float)
        q, v = prk_step(
            ode.stormer_verlet_tableau(), zero, zero, np.array([1.0]), np.array([2.0]), 0.1
        )
        assert abs(float(q[0]) - 1.0) < 1e-15 and abs(float(v[0]) - 2.0) < 1e-15

    def test_stormer_verlet_symplectic_matrix(self):
        h = 0.1
        ptab = ode.stormer_verlet_tableau()

        def step(x, hh):
            q, v = prk_step(ptab, _f1, _f2, x[:1], x[1:], hh)
            return np.concatenate([q, v])

        s = _one_step_matrix(step, h)
        assert np.max(np.abs(s.T @ J2 @ s - J2)) < 1e-12


class TestCheckers:
    def test_explicit_euler_orders(self):
        tab = ode.explicit_euler_tableau()
        assert check_order_conditions(tab, 1)
        assert not check_order_conditions(tab, 2)

    def test_rk4_orders(self):
        tab = ode.rk4_tableau()
        for order in (1, 2, 3):
            assert check_order_conditions(tab, order)

    def test_weight_sum_failure(self):
        tab = ButcherTableau(a=[[0.0, 0.0], [0.5, 0.0]], b=[0.4, 0.4])
        assert not check_order_conditions(tab, 1)

    def test_order_out_of_range(self):
        with pytest.raises(ValueError):
            check_order_conditions(ode.rk4_tableau(), 4)

    def test_symplectic_euler_tableau_accepted(self):
        assert check_symplectic_prk(ode.symplectic_euler_tableau())

    def test_stormer_verlet_accepted(self):
        assert check_symplectic_prk(ode.stormer_verlet_tableau())

    def test_double_midpoint_rejected(self):
        mp = ode.rk2_midpoint_tableau()
        both = PartitionedTableau(a=mp.a, b=mp.b, a_hat=mp.a, b_hat=mp.b)
        assert not check_symplectic_prk(both)


class TestClosedFormMatrices:
    """One-step maps of the oscillator against the closed-form update matrices."""

    def test_explicit_euler_matrix_and_det(self):
        h = 0.1
        s = _one_step_matrix(
            lambda x, hh: explicit_euler_step(_ho_field, x, hh), h
        )
        expected = np.array([[1.0, h], [-h, 1.0]])
        assert np.max(np.abs(s - expected)) < 1e-12
        assert abs(np.linalg.det(s) - (1.0 + h * h)) < 1e-12

    def test_implicit_euler_matrix_and_det(self):
        h = 0.1
        s = _one_step_matrix(
            lambda x, hh: implicit_euler_step(_ho_field, x, hh), h
        )
        expected = np.array([[1.0, h], [-h, 1.0]]) / (1.0 + h * h)
        assert np.max(np.abs(s - expected)) < 1e-12
        assert abs(np.linalg.det(s) - 1.0 / (1.0 + h * h)) < 1e-12

    def test_tableau_validation(self):
        with pytest.raises(ValueError):
            ButcherTableau(a=[[0.0, 0.0]], b=[1.0])
        with pytest.raises(ValueError):
            ButcherTableau(a=[[0.0]], b=[1.0, 0.0])
        with pytest.raises(ValueError):
            PartitionedTableau(a=[[0.0]], b=[1.0], a_hat=[[0.0, 0.0], [0.0, 0.0]], b_hat=[1.0])
