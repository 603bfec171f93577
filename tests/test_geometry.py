"""Retraction and discretization-map inverse tests, flat and trivialized."""

import math
import random

import numpy as np
import pytest

from geomint import geometry as geo
from geomint import so3
from geomint.errors import DimMismatch, OutOfChart
from geomint.geometry import (
    cayley_retraction,
    exp_retraction,
    flat_discretize_inverse,
    triv_disc_inverse_left,
    triv_disc_inverse_right,
)
from geomint.so3 import Rotation, exp_so3, log_so3, vec_scale


def _rand_vec(rng, scale=1.0):
    return tuple(rng.uniform(-scale, scale) for _ in range(3))


def _flat_discretize(x, v, theta):
    """D(x, v) = (x - theta v, x + (1 - theta) v), the map the inverse undoes."""
    return x - theta * v, x + (1.0 - theta) * v


class TestFlatDiscretize:
    def test_theta_zero_keeps_first_point(self):
        x, v = flat_discretize_inverse([-1.0, 2.0], [1.0, 0.0], 0.0)
        assert np.array_equal(x, [-1.0, 2.0]) and np.array_equal(v, [2.0, -2.0])

    def test_theta_one_keeps_second_point(self):
        x, v = flat_discretize_inverse([-1.0, 2.0], [1.0, 0.0], 1.0)
        assert np.array_equal(x, [1.0, 0.0]) and np.array_equal(v, [2.0, -2.0])

    def test_inverse_example(self):
        x, v = flat_discretize_inverse([1.0, 0.0], [3.0, 2.0], 0.0)
        assert np.array_equal(x, [1.0, 0.0]) and np.array_equal(v, [2.0, 2.0])

    def test_inverse_of_equal_points(self):
        # D(x, 0) = (x, x) for every theta, so (x, x) maps back to (x, 0)
        for theta in (0.0, 0.3, 0.7, 1.0):
            x, v = flat_discretize_inverse([0.5, -1.0], [0.5, -1.0], theta)
            assert np.array_equal(x, [0.5, -1.0]) and np.array_equal(v, [0.0, 0.0])

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            x = rng.standard_normal(5)
            v = rng.standard_normal(5)
            theta = rng.uniform(0.0, 1.0)
            a, b = _flat_discretize(x, v, theta)
            x2, v2 = flat_discretize_inverse(a, b, theta)
            assert np.max(np.abs(x2 - x)) < 1e-15
            assert np.max(np.abs(v2 - v)) < 1e-15

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            flat_discretize_inverse(np.zeros(2), np.zeros(3), 0.5)


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
            assert ret.tau_matrix((0.0, 0.0, 0.0)) == so3.IDENTITY3

    def test_round_trip_near_zero(self):
        rng = random.Random(21)
        for ret in (exp_retraction(), cayley_retraction()):
            for _ in range(20):
                xi = _rand_vec(rng, 0.8)
                back = ret.tau_inv(Rotation(ret.tau_matrix(xi)))
                assert max(abs(back[i] - xi[i]) for i in range(3)) < 1e-10

    def test_first_order_tangency_fd(self):
        # both retractions are tangent to xi at t = 0 (the Cayley one through
        # its half-argument scaling)
        rng = random.Random(22)
        h = 1e-5
        for ret in (exp_retraction(), cayley_retraction()):
            for _ in range(10):
                xi = _rand_vec(rng, 1.0)
                rp = ret.tau_matrix(vec_scale(xi, h))
                rm = ret.tau_matrix(vec_scale(xi, -h))
                diff = so3.mat_mul(so3.mat_transpose(rm), rp)
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
                rp = ret.tau_matrix(so3.vec_add(xi, vec_scale(eta, h)))
                rm = ret.tau_matrix(so3.vec_sub(xi, vec_scale(eta, h)))
                diff = tuple(
                    tuple((rp[i][j] - rm[i][j]) / (2.0 * h) for j in range(3))
                    for i in range(3)
                )
                fd = so3._vee_unchecked(
                    so3.mat_mul(so3.mat_transpose(ret.tau_matrix(xi)), diff)
                )
                dual = ret.dual_matrix(xi)
                for mu in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)):
                    lhs = so3.dot(so3.mat_vec(dual, mu), eta)
                    assert abs(lhs - so3.dot(mu, fd)) < 1e-6


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

    def test_left_inverse_round_trip(self):
        # g' = g tau(xi) maps back to the base point g and to xi, in closed form
        rng = random.Random(26)
        mu = (0.0, 0.0, 1.0)
        for ret in (exp_retraction(), cayley_retraction()):
            for _ in range(10):
                g = exp_so3(_rand_vec(rng))
                xi = _rand_vec(rng, 0.5 / math.sqrt(3.0))
                g2 = Rotation(so3.mat_mul(g.m, ret.tau_matrix(xi)))
                (base_g, _), (xi2, _) = triv_disc_inverse_left(g, mu, g2, mu, ret)
                assert base_g is g
                assert max(abs(xi2[i] - xi[i]) for i in range(3)) < 1e-14

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
