"""Retraction / discretization map tests, flat and trivialized."""

import math
import random

import numpy as np
import pytest

from geomint import geometry as geo
from geomint import so3
from geomint.errors import DimMismatch, OutOfChart
from geomint.geometry import (
    LocalSecondOrderPoint,
    alpha_local,
    alpha_local_inverse,
    beta_local,
    beta_local_inverse,
    canonical_flip,
    cayley_retraction,
    exp_retraction,
    flat_discretize,
    flat_discretize_inverse,
    triv_disc_inverse_left,
    triv_disc_inverse_right,
    triv_discretize,
    triv_discretize_inverse,
)
from geomint.integrators import lie_poisson_left_step, lie_poisson_right_step
from geomint.mechanics import RigidBodyParams
from geomint.so3 import Rotation, exp_so3, log_so3, mat_vec, vec_scale


def _rand_vec(rng, scale=1.0):
    return tuple(rng.uniform(-scale, scale) for _ in range(3))


class TestFlatDiscretize:
    def test_theta_zero_keeps_first_point(self):
        a, b = flat_discretize([1.0, 0.0], [2.0, 2.0], 0.0)
        assert np.array_equal(a, [1.0, 0.0]) and np.array_equal(b, [3.0, 2.0])

    def test_theta_one_keeps_second_point(self):
        a, b = flat_discretize([1.0, 0.0], [2.0, 2.0], 1.0)
        assert np.array_equal(a, [-1.0, -2.0]) and np.array_equal(b, [1.0, 0.0])

    def test_zero_velocity_collapses(self):
        for theta in (0.0, 0.3, 1.0):
            a, b = flat_discretize([2.0, -1.0], [0.0, 0.0], theta)
            assert np.array_equal(a, [2.0, -1.0]) and np.array_equal(b, [2.0, -1.0])

    def test_inverse_example(self):
        x, v = flat_discretize_inverse([1.0, 0.0], [3.0, 2.0], 0.0)
        assert np.array_equal(x, [1.0, 0.0]) and np.array_equal(v, [2.0, 2.0])

    def test_inverse_of_equal_points(self):
        x, v = flat_discretize_inverse([0.5, 0.5], [0.5, 0.5], 0.7)
        assert np.array_equal(x, [0.5, 0.5]) and np.array_equal(v, [0.0, 0.0])

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = rng.standard_normal(5)
            v = rng.standard_normal(5)
            theta = rng.uniform(0.0, 1.0)
            a, b = flat_discretize(x, v, theta)
            x2, v2 = flat_discretize_inverse(a, b, theta)
            assert np.max(np.abs(x2 - x)) < 1e-15
            assert np.max(np.abs(v2 - v)) < 1e-15
            a2, b2 = flat_discretize(x2, v2, theta)
            assert np.max(np.abs(a2 - a)) < 1e-15
            assert np.max(np.abs(b2 - b)) < 1e-15

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            flat_discretize(np.zeros(2), np.zeros(3), 0.5)
        with pytest.raises(DimMismatch):
            flat_discretize_inverse(np.zeros(2), np.zeros(3), 0.5)

    def test_first_order_difference_fd(self):
        # (D2): d/dt [D2 - D1](x, t v) at 0 equals v
        rng = np.random.default_rng(2)
        h = 1e-5
        for theta in (0.0, 0.25, 0.5, 1.0):
            x, v = rng.standard_normal(3), rng.standard_normal(3)
            ap, bp = flat_discretize(x, h * v, theta)
            am, bm = flat_discretize(x, -h * v, theta)
            fd = ((bp - ap) - (bm - am)) / (2.0 * h)
            assert np.max(np.abs(fd - v)) < 1e-6


class TestTrivializedRetraction:
    def test_tags(self):
        assert exp_retraction().tag == "exp"
        assert cayley_retraction().tag == "cayley"

    @pytest.mark.parametrize("tag", ["EXP", "", "bogus"])
    def test_unknown_tag_raises(self, tag):
        # an unknown tag raises rather than fall through to one of the two schemes
        with pytest.raises(ValueError, match=f"retraction tag {tag!r}"):
            geo.TrivializedRetraction(tag)

    def test_tau_at_zero(self):
        for ret in (exp_retraction(), cayley_retraction()):
            assert ret.tau((0.0, 0.0, 0.0)).m == so3.IDENTITY3

    def test_round_trip_near_zero(self):
        rng = random.Random(21)
        for ret in (exp_retraction(), cayley_retraction()):
            for _ in range(20):
                xi = _rand_vec(rng, 0.8)
                back = ret.tau_inv(ret.tau(xi))
                assert max(abs(back[i] - xi[i]) for i in range(3)) < 1e-10

    def test_first_order_tangency_fd(self):
        # both retractions are tangent to xi at t = 0 (the Cayley one through
        # its half-argument scaling)
        rng = random.Random(22)
        h = 1e-5
        for ret in (exp_retraction(), cayley_retraction()):
            for _ in range(10):
                xi = _rand_vec(rng, 1.0)
                rp = ret.tau(vec_scale(xi, h))
                rm = ret.tau(vec_scale(xi, -h))
                diff = so3.mat_mul(so3.mat_transpose(rm.m), rp.m)
                fd = vec_scale(log_so3(Rotation(diff)), 0.5 / h)
                assert max(abs(fd[i] - xi[i]) for i in range(3)) < 1e-6

    def test_dlog_matrix_matches_finite_differences(self):
        # fd = tau(xi)^-1 d/de tau(xi + e eta) is dlog(xi) eta; the dual map
        # pairs with it, <dual(xi) mu, eta> = <mu, fd>, for every basis mu
        rng = random.Random(33)
        h = 1e-5
        for ret in (exp_retraction(), cayley_retraction()):
            for _ in range(10):
                xi = _rand_vec(rng, 1.2)
                eta = _rand_vec(rng, 1.0)
                rp = ret.tau(so3.vec_add(xi, vec_scale(eta, h)))
                rm = ret.tau(so3.vec_sub(xi, vec_scale(eta, h)))
                diff = tuple(
                    tuple((rp.m[i][j] - rm.m[i][j]) / (2.0 * h) for j in range(3))
                    for i in range(3)
                )
                fd = so3._vee_unchecked(
                    so3.mat_mul(so3.mat_transpose(ret.tau(xi).m), diff)
                )
                dual = ret.dual_matrix(xi)
                for mu in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
                    lhs = so3.dot(so3.mat_vec(dual, mu), eta)
                    assert abs(lhs - so3.dot(mu, fd)) < 1e-6


class TestTrivDiscretize:
    def test_zero_velocity(self):
        rng = random.Random(23)
        g = exp_so3(_rand_vec(rng))
        for s in (0.0, 0.4, 1.0):
            a, b = triv_discretize(g, (0.0, 0.0, 0.0), s, exp_retraction())
            assert a.m == g.m and b.m == g.m

    def test_s_zero_from_identity(self):
        xi = (0.2, -0.1, 0.4)
        a, b = triv_discretize(Rotation.identity(), xi, 0.0, exp_retraction())
        assert a.m == so3.IDENTITY3
        assert b.m == exp_so3(xi).m

    def test_s_one(self):
        rng = random.Random(24)
        g = exp_so3(_rand_vec(rng))
        xi = (0.3, 0.2, -0.1)
        a, b = triv_discretize(g, xi, 1.0, exp_retraction())
        expected = so3.mat_mul(g.m, exp_so3(vec_scale(xi, -1.0)).m)
        assert so3.frobenius_norm(
            so3.mat_add(a.m, so3.mat_scale(expected, -1.0))
        ) < 1e-15
        assert b.m == g.m

    def test_first_order_difference_fd(self):
        # trivialized (TD2): the relative-rotation log recovers xi
        rng = random.Random(25)
        h = 1e-5
        for ret in (exp_retraction(), cayley_retraction()):
            for s in (0.0, 0.5, 1.0):
                g = exp_so3(_rand_vec(rng))
                xi = _rand_vec(rng, 1.0)
                ap, bp = triv_discretize(g, vec_scale(xi, h), s, ret)
                am, bm = triv_discretize(g, vec_scale(xi, -h), s, ret)
                dp = log_so3(Rotation(so3.mat_mul(so3.mat_transpose(ap.m), bp.m)))
                dm = log_so3(Rotation(so3.mat_mul(so3.mat_transpose(am.m), bm.m)))
                fd = vec_scale(so3.vec_sub(dp, dm), 0.5 / h)
                assert max(abs(fd[i] - xi[i]) for i in range(3)) < 1e-6

    def test_local_inverse_round_trip(self):
        rng = random.Random(26)
        for ret in (exp_retraction(), cayley_retraction()):
            for s in (0.0, 0.3, 0.8, 1.0):
                for _ in range(10):
                    g = exp_so3(_rand_vec(rng))
                    xi = _rand_vec(rng, 0.5 / math.sqrt(3.0))
                    a, b = triv_discretize(g, xi, s, ret)
                    g2, xi2 = triv_discretize_inverse(a, b, s, ret)
                    assert max(abs(xi2[i] - xi[i]) for i in range(3)) < 1e-10
                    assert so3.frobenius_norm(
                        so3.mat_add(g2.m, so3.mat_scale(g.m, -1.0))
                    ) < 1e-10

    @pytest.mark.parametrize("s", [0.3, 0.5, 0.8, 1.0])
    def test_inverse_closed_form(self, monkeypatch, s):
        # both retractions invert without a solve, to roundoff
        from geomint import odecore

        def no_solve(*args, **kwargs):
            raise AssertionError("triv_discretize_inverse ran a Newton solve")

        monkeypatch.setattr(odecore, "newton_solve", no_solve)
        rng = random.Random(28)
        for ret in (exp_retraction(), cayley_retraction()):
            for _ in range(20):
                g = exp_so3(_rand_vec(rng))
                xi = _rand_vec(rng, 0.5 / math.sqrt(3.0))
                a, b = triv_discretize(g, xi, s, ret)
                g2, xi2 = triv_discretize_inverse(a, b, s, ret)
                assert max(abs(xi2[i] - xi[i]) for i in range(3)) <= 1e-14
                assert max(
                    abs(g2.m[i][j] - g.m[i][j]) for i in range(3) for j in range(3)
                ) <= 1e-14

    def test_inverse_out_of_chart(self):
        # a pi relative rotation sits outside the exp chart
        g1 = Rotation.identity()
        g2 = exp_so3((math.pi, 0.0, 0.0))
        with pytest.raises(OutOfChart):
            triv_discretize_inverse(g1, g2, 0.0, exp_retraction())


class TestCotangentLiftInverse:
    def test_zero_step(self):
        rng = random.Random(27)
        g = exp_so3(_rand_vec(rng))
        mu = (0.4, -1.0, 0.2)
        for ret in (exp_retraction(), cayley_retraction()):
            (base_g, nu), (xi, dmu) = triv_disc_inverse_left(g, mu, g, mu, ret)
            assert base_g.m == g.m
            # g^T g is the identity up to roundoff only
            assert max(abs(c) for c in xi) < 1e-15
            assert max(abs(c) for c in dmu) < 1e-15
            # dual transport at xi ~ 0 is the identity on mu
            assert max(abs(nu[i] - mu[i]) for i in range(3)) < 1e-14

    def test_xi_is_relative_log_for_exp(self):
        rng = random.Random(28)
        for _ in range(10):
            g1 = exp_so3(_rand_vec(rng))
            g2 = exp_so3(_rand_vec(rng))
            (_, _), (xi, _) = triv_disc_inverse_left(
                g1, (1.0, 0.0, 0.0), g2, (0.0, 1.0, 0.0), exp_retraction()
            )
            expected = log_so3(
                Rotation(so3.mat_mul(so3.mat_transpose(g1.m), g2.m))
            )
            assert max(abs(xi[i] - expected[i]) for i in range(3)) < 1e-12

    def test_left_composition_recovers_scheme(self):
        # feed a Lie-Poisson step through the inverse: the fiber momentum
        # difference vanishes and the transported covector equals I Omega
        params = RigidBodyParams.from_diag(1.0, 10.0, 100.0)
        dt = 0.05
        rng = random.Random(29)
        for ret in (exp_retraction(), cayley_retraction()):
            r = exp_so3(_rand_vec(rng))
            pi = (1.0, 1.0, 1.0)
            r2, pi2 = lie_poisson_left_step(params, ret, r, pi, dt)
            (base_g, nu), (xi, dmu) = triv_disc_inverse_left(r, pi, r2, pi2, ret)
            assert base_g.m == r.m
            assert max(abs(d) for d in dmu) < 5e-12
            omega = vec_scale(xi, 1.0 / dt)
            i_omega = mat_vec(params.inertia, omega)
            assert max(abs(nu[i] - i_omega[i]) for i in range(3)) < 5e-12

    def test_out_of_chart(self):
        g1 = Rotation.identity()
        g2 = exp_so3((math.pi, 0.0, 0.0))
        mu = (1.0, 0.0, 0.0)
        with pytest.raises(OutOfChart):
            triv_disc_inverse_left(g1, mu, g2, mu, exp_retraction())
        with pytest.raises(OutOfChart):
            triv_disc_inverse_right(g1, mu, g2, mu, cayley_retraction())

    def test_right_zero_step(self):
        rng = random.Random(30)
        g = exp_so3(_rand_vec(rng))
        mu = (0.4, -1.0, 0.2)
        (_, _), (xi, dmu) = triv_disc_inverse_right(g, mu, g, mu, exp_retraction())
        assert max(abs(c) for c in xi) < 1e-15
        assert dmu == (0.0, 0.0, 0.0)

    def test_right_momentum_difference_is_plain(self):
        rng = random.Random(31)
        for _ in range(10):
            g1, g2 = exp_so3(_rand_vec(rng)), exp_so3(_rand_vec(rng))
            mu1, mu2 = _rand_vec(rng), _rand_vec(rng)
            (_, _), (_, dmu) = triv_disc_inverse_right(
                g1, mu1, g2, mu2, exp_retraction()
            )
            assert dmu == so3.vec_sub(mu2, mu1)

    def test_right_composition_recovers_scheme(self):
        params = RigidBodyParams.from_diag(1.0, 10.0, 100.0)
        dt = 0.05
        ret = exp_retraction()
        r = exp_so3((0.3, -0.2, 0.5))
        mu = r.apply((1.0, 1.0, 1.0))  # spatial momentum
        r2, mu2 = lie_poisson_right_step(params, ret, r, mu, dt)
        (_, nu), (xi, dmu) = triv_disc_inverse_right(r, mu, r2, mu2, ret)
        assert dmu == (0.0, 0.0, 0.0)
        omega = vec_scale(xi, 1.0 / dt)
        i_omega = mat_vec(params.inertia, omega)
        assert max(abs(nu[i] - i_omega[i]) for i in range(3)) < 5e-12


class TestLocalSecondOrderMaps:
    def _point(self, seed=0):
        rng = np.random.default_rng(seed)
        return LocalSecondOrderPoint(*(rng.standard_normal(4) for _ in range(4)))

    def test_flip_swaps_middle_slots(self):
        q, a, b, c = (np.array([v]) for v in (1.0, 2.0, 3.0, 4.0))
        out = canonical_flip(LocalSecondOrderPoint(q, a, b, c))
        assert [x[0] for x in out.as_tuple()] == [1.0, 3.0, 2.0, 4.0]

    def test_flip_is_involution(self):
        pt = self._point(1)
        out = canonical_flip(canonical_flip(pt))
        for a, b in zip(pt.as_tuple(), out.as_tuple()):
            assert np.array_equal(a, b)

    def test_flip_fixed_points(self):
        rng = np.random.default_rng(2)
        q, s, c = rng.standard_normal((3, 4))
        fixed = LocalSecondOrderPoint(q, s, s, c)
        out = canonical_flip(fixed)
        for a, b in zip(fixed.as_tuple(), out.as_tuple()):
            assert np.array_equal(a, b)
        moving = self._point(3)
        out = canonical_flip(moving)
        assert not np.array_equal(out.p_or_v, moving.p_or_v)

    def test_alpha_permutation(self):
        q, p, v, f = (np.array([x]) for x in (1.0, 2.0, 3.0, 4.0))
        out = alpha_local(LocalSecondOrderPoint(q, p, v, f))
        assert [x[0] for x in out.as_tuple()] == [1.0, 3.0, 4.0, 2.0]

    def test_alpha_inverse(self):
        pt = self._point(4)
        out = alpha_local_inverse(alpha_local(pt))
        for a, b in zip(pt.as_tuple(), out.as_tuple()):
            assert np.array_equal(a, b)
        out = alpha_local(alpha_local_inverse(pt))
        for a, b in zip(pt.as_tuple(), out.as_tuple()):
            assert np.array_equal(a, b)

    def test_beta_signed_permutation(self):
        q, p, v, f = (np.array([x]) for x in (1.0, 2.0, 3.0, 4.0))
        out = beta_local(LocalSecondOrderPoint(q, p, v, f))
        assert [x[0] for x in out.as_tuple()] == [1.0, 2.0, 4.0, -3.0]

    def test_beta_twice_flips_signs(self):
        pt = self._point(5)
        out = beta_local(beta_local(pt))
        assert np.array_equal(out.qdot, -pt.qdot)
        assert np.array_equal(out.pdot_or_vdot, -pt.pdot_or_vdot)

    def test_beta_inverse(self):
        pt = self._point(6)
        out = beta_local_inverse(beta_local(pt))
        for a, b in zip(pt.as_tuple(), out.as_tuple()):
            assert np.array_equal(a, b)

    def test_beta_yields_canonical_equations(self):
        # beta of a differential tuple (q, p, dH/dq, dH/dp) puts
        # (dH/dp, -dH/dq) in the velocity slots: the canonical right-hand side
        rng = np.random.default_rng(7)
        q, p = rng.standard_normal((2, 3))
        dh_dq, dh_dp = rng.standard_normal((2, 3))
        out = beta_local(LocalSecondOrderPoint(q, p, dh_dq, dh_dp))
        assert np.array_equal(out.qdot, dh_dp)
        assert np.array_equal(out.pdot_or_vdot, -dh_dq)

    def test_alpha_pairing_bookkeeping(self):
        # <alpha(Lambda), V> = d/dt <lambda(t), v(t)> with kappa applied to V:
        # for Lambda = (q, p, qd, pd) and V = (q, v, dq, dv) at matched base,
        # both sides reduce to pd . dq + p . dv
        rng = np.random.default_rng(8)
        q = rng.standard_normal(3)
        p, qd, pd = rng.standard_normal((3, 3))
        dq, dv = rng.standard_normal((2, 3))
        lam = LocalSecondOrderPoint(q, p, qd, pd)
        vel = LocalSecondOrderPoint(q, qd, dq, dv)  # base (q, qd) matches alpha(lam)
        alpha_lam = alpha_local(lam)
        lhs = alpha_lam.qdot @ dq + alpha_lam.pdot_or_vdot @ dv
        flipped = canonical_flip(vel)
        rhs = pd @ flipped.p_or_v + p @ flipped.pdot_or_vdot
        assert abs(lhs - rhs) < 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            LocalSecondOrderPoint(
                np.zeros(3), np.zeros(3), np.zeros(2), np.zeros(3)
            )
