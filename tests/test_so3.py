"""Rotation-group primitive tests: closed forms against independent oracles.

The oracles here are deliberately dumb: truncated matrix power series for the
exponential, central finite differences for logarithmic derivatives, a
truncated 4x4 series for the SE(3) translation block, and exact rational
arithmetic for the orthogonality defect.
"""

import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomint import so3
from geomint.errors import NearPiRotation, NotSkew, SingularCayley, SingularMatrix
from geomint.so3 import (
    Q_mat,
    Rotation,
    cay_inv_so3,
    cay_so3,
    cross,
    dcay_dual_matrix,
    dexp_dual_matrix,
    dot,
    exp_so3,
    hat,
    log_so3,
    mat_mul,
    mat_vec,
    solve3,
    vee,
    vec_add,
    vec_scale,
    vec_sub,
)


def _rand_vec(rng, scale=1.0):
    return tuple(rng.uniform(-scale, scale) for _ in range(3))


def _series_exp(v, terms=40):
    """Truncated power series of exp(hat(v)) as a numpy matrix."""
    m = np.array(hat(v))
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ m / k
        out = out + term
    return out


class TestHatVee:
    def test_hat_e1(self):
        assert hat((1.0, 0.0, 0.0)) == (
            (0.0, 0.0, 0.0),
            (0.0, 0.0, -1.0),
            (0.0, 1.0, 0.0),
        )

    def test_hat_zero(self):
        assert hat((0.0, 0.0, 0.0)) == ((0.0,) * 3,) * 3

    def test_hat_is_cross(self):
        v, w = (1.0, 2.0, 3.0), (4.0, 5.0, 6.0)
        assert mat_vec(hat(v), w) == (-3.0, 6.0, -3.0)
        rng = random.Random(3)
        for _ in range(20):
            v, w = _rand_vec(rng), _rand_vec(rng)
            assert mat_vec(hat(v), w) == cross(v, w)

    def test_vee_inverts_hat(self):
        rng = random.Random(4)
        for _ in range(20):
            v = _rand_vec(rng)
            assert vee(hat(v)) == v

    def test_vee_zero(self):
        assert vee(((0.0,) * 3,) * 3) == (0.0, 0.0, 0.0)

    def test_vee_rejects_symmetric(self):
        with pytest.raises(NotSkew):
            vee(((0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 0.0)))


class TestExpLog:
    def test_exp_zero_is_identity(self):
        assert exp_so3((0.0, 0.0, 0.0)).m == so3.IDENTITY3

    def test_exp_quarter_turn(self):
        r = exp_so3((0.0, 0.0, math.pi / 2.0))
        expected = _series_exp((0.0, 0.0, math.pi / 2.0))
        assert np.max(np.abs(np.array(r.m) - expected)) < 1e-12
        # closed form of the quarter turn
        assert abs(r.m[0][1] + 1.0) < 1e-12 and abs(r.m[1][0] - 1.0) < 1e-12
        assert abs(r.m[2][2] - 1.0) < 1e-15

    def test_exp_tiny_matches_quadratic_taylor(self):
        v = (0.0, 0.0, 1e-9)
        h = np.array(hat(v))
        taylor = np.eye(3) + h + h @ h / 2.0
        assert np.max(np.abs(np.array(exp_so3(v).m) - taylor)) < 1e-18

    def test_exp_group_invariants(self):
        rng = random.Random(5)
        for _ in range(50):
            v = _rand_vec(rng, 3.0)
            m = exp_so3(v).m
            assert so3.orthogonality_defect_mat(m) <= 1e-12
            assert abs(so3.mat_det(m) - 1.0) <= 1e-12

    def test_exp_negation_is_inverse(self):
        rng = random.Random(6)
        for _ in range(20):
            v = _rand_vec(rng, 2.0)
            prod = mat_mul(exp_so3(v).m, exp_so3(vec_scale(v, -1.0)).m)
            assert np.linalg.norm(np.array(prod) - np.eye(3)) < 1e-14

    def test_log_identity(self):
        assert log_so3(Rotation.identity()) == (0.0, 0.0, 0.0)

    def test_log_round_trip_example(self):
        v = (0.1, -0.2, 0.3)
        back = log_so3(exp_so3(v))
        assert max(abs(back[i] - v[i]) for i in range(3)) < 1e-12

    def test_log_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(50):
            v = _rand_vec(rng, 1.7)  # |v| < pi
            back = log_so3(exp_so3(v))
            assert max(abs(back[i] - v[i]) for i in range(3)) < 1e-10
            # and exp(log(R)) = R
            r = exp_so3(v)
            again = exp_so3(log_so3(r))
            assert np.linalg.norm(np.array(r.m) - np.array(again.m)) < 1e-10

    def test_log_near_pi_raises(self):
        with pytest.raises(NearPiRotation):
            log_so3(exp_so3((0.0, 0.0, math.pi)))


class TestCayley:
    def test_cay_zero(self):
        assert cay_so3((0.0, 0.0, 0.0)).m == so3.IDENTITY3

    def test_cay_angle_is_two_atan(self):
        # symbolic 3x3 inversion gives a z-rotation by 2 atan(a)
        for a in (0.1, 0.5, 1.0, 3.0):
            r = cay_so3((0.0, 0.0, a))
            ang = 2.0 * math.atan(a)
            assert abs(r.m[0][0] - math.cos(ang)) < 1e-14
            assert abs(r.m[1][0] - math.sin(ang)) < 1e-14
            assert abs(r.m[2][2] - 1.0) < 1e-15

    def test_cay_matches_explicit_inverse(self):
        rng = random.Random(8)
        for _ in range(20):
            v = _rand_vec(rng, 1.5)
            lhs = np.linalg.solve(
                np.eye(3) - np.array(hat(v)), np.eye(3) + np.array(hat(v))
            )
            assert np.max(np.abs(np.array(cay_so3(v).m) - lhs)) < 1e-13

    def test_cay_group_invariants(self):
        rng = random.Random(9)
        for _ in range(50):
            v = _rand_vec(rng, 3.0)
            m = cay_so3(v).m
            assert so3.orthogonality_defect_mat(m) <= 1e-12
            assert abs(so3.mat_det(m) - 1.0) <= 1e-12

    def test_cay_round_trip(self):
        v = (0.3, 0.1, -0.2)
        back = cay_inv_so3(cay_so3(v))
        assert max(abs(back[i] - v[i]) for i in range(3)) < 1e-12
        rng = random.Random(10)
        for _ in range(30):
            v = _rand_vec(rng, 2.0)
            back = cay_inv_so3(cay_so3(v))
            assert max(abs(back[i] - v[i]) for i in range(3)) < 1e-10

    def test_cay_inv_identity(self):
        assert cay_inv_so3(Rotation.identity()) == (0.0, 0.0, 0.0)

    def test_cay_inv_pi_rotation_raises(self):
        with pytest.raises(SingularCayley):
            cay_inv_so3(exp_so3((math.pi, 0.0, 0.0)))


class TestLogDerivativeDuals:
    """The duals at the origin and in the limit.  Their pairing <dual(y) mu, eta> =
    <mu, dL tau(y)(eta)> against finite differences is selfcheck's (criterion 7)."""

    def test_dexp_dual_at_zero(self):
        assert dexp_dual_matrix((0.0, 0.0, 0.0)) == so3.IDENTITY3

    def test_dexp_hat_coefficient_limit(self):
        # the hat(y) coefficient tends to 1/2
        assert abs(so3._coeff_a(1e-6) - 0.5) < 1e-12
        assert abs(so3._coeff_a(0.0) - 0.5) < 1e-15

    def test_dcay_dual_at_zero(self):
        mat, s = dcay_dual_matrix((0.0, 0.0, 0.0))
        assert mat == so3.IDENTITY3
        assert s == 0.5

    def test_dcay_pair_at_unit_z(self):
        # dual pair at y = e3; the hat(y) term carries the +1 sign (the
        # untransposed derivative carries -1, which the pairing oracle rejects)
        mat, s = dcay_dual_matrix((0.0, 0.0, 1.0))
        assert s == 1.0
        assert mat == ((1.0, -1.0, 0.0), (1.0, 1.0, 0.0), (0.0, 0.0, 1.0))


class TestSE3Blocks:
    def test_j_at_zero(self):
        assert dexp_dual_matrix((0.0, 0.0, 0.0)) == so3.IDENTITY3

    def test_j_hat_coefficient_limit_is_half(self):
        # the series oracle pins the half-angle normalization: a(0) = 1/2,
        # not the doubled variant with limit 1
        theta = 1e-7
        a = so3._coeff_a(theta)
        assert abs(a - 0.5) < 1e-13

    def test_j_matches_se3_exponential_series(self):
        rng = random.Random(13)
        for _ in range(25):
            y = _rand_vec(rng, 2.5)
            v = _rand_vec(rng, 2.0)
            m = np.zeros((4, 4))
            m[:3, :3] = np.array(hat(y))
            m[:3, 3] = v
            out = np.eye(4)
            term = np.eye(4)
            for k in range(1, 40):
                term = term @ m / k
                out = out + term
            jv = mat_vec(dexp_dual_matrix(y), v)
            assert max(abs(out[i, 3] - jv[i]) for i in range(3)) < 1e-8

    def test_q_zero_in_z(self):
        y = (0.4, -0.2, 0.9)
        assert Q_mat(y, (0.0, 0.0, 0.0)) == ((0.0,) * 3,) * 3

    def test_q_linear_in_z(self):
        rng = random.Random(14)
        for _ in range(20):
            y = _rand_vec(rng, 2.0)
            z1, z2 = _rand_vec(rng), _rand_vec(rng)
            q1 = np.array(Q_mat(y, z1))
            q2 = np.array(Q_mat(y, z2))
            q12 = np.array(Q_mat(y, vec_add(z1, z2)))
            assert np.max(np.abs(q12 - q1 - q2)) < 1e-12

    def test_q_is_directional_derivative_of_j(self):
        rng = random.Random(15)
        h = 1e-5
        for _ in range(25):
            y = _rand_vec(rng, 2.0)
            z = _rand_vec(rng, 2.0)
            jp = np.array(dexp_dual_matrix(vec_add(y, vec_scale(z, h))))
            jm = np.array(dexp_dual_matrix(vec_sub(y, vec_scale(z, h))))
            fd = (jp - jm) / (2.0 * h)
            assert np.max(np.abs(fd - np.array(Q_mat(y, z)))) < 1e-6


class TestBranchContinuity:
    """Closed-form and Taylor branches agree at matrix level near thresholds."""

    @pytest.mark.parametrize("theta", [0.9e-4, 1.1e-4])
    def test_ab_kernels(self, theta):
        y = (theta, 0.0, 0.0)
        t2 = theta * theta
        a_taylor = 0.5 - t2 / 24.0 + t2 * t2 / 720.0
        b_taylor = 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
        s = math.sin(0.5 * theta)
        a_closed = 2.0 * s * s / t2
        b_closed = (theta - math.sin(theta)) / theta ** 3
        for a, b in ((a_taylor, b_taylor), (a_closed, b_closed)):
            ref = np.array(so3._abc_matrix(y, a, b))
            got = np.array(dexp_dual_matrix(y))
            rel = np.linalg.norm(ref - got) / np.linalg.norm(ref)
            assert rel < 1e-10

    @pytest.mark.parametrize("theta", [0.45, 0.55])
    def test_q_kernels(self, theta):
        y = (theta, 0.0, 0.0)
        z = (0.3, -0.7, 0.2)
        t2 = theta * theta
        da_taylor = -1.0 / 12.0 + t2 / 180.0 - t2 * t2 / 6720.0 \
            + t2 ** 3 / 453600.0 - t2 ** 4 / 47900160.0
        db_taylor = -1.0 / 60.0 + t2 / 1260.0 - t2 * t2 / 60480.0 \
            + t2 ** 3 / 4989600.0 - t2 ** 4 / 622702080.0
        da_closed = (theta * math.sin(theta) + 2.0 * math.cos(theta) - 2.0) / theta ** 4
        db_closed = (3.0 * math.sin(theta) - theta * math.cos(theta) - 2.0 * theta) / theta ** 5
        a = so3._coeff_a(theta)
        b = so3._coeff_b(theta)
        got = np.array(Q_mat(y, z))
        for da, db in ((da_taylor, db_taylor), (da_closed, db_closed)):
            yz = dot(y, z)
            hy, hz = np.array(hat(y)), np.array(hat(z))
            ref = a * hz + b * (hy @ hz + hz @ hy) + da * yz * hy + db * yz * (hy @ hy)
            rel = np.linalg.norm(ref - got) / np.linalg.norm(ref)
            assert rel < 1e-10


class TestLinearSolve:
    def test_solve3_random(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal(3)
            x = solve3(tuple(map(tuple, a)), tuple(b))
            assert np.max(np.abs(a @ np.array(x) - b)) < 1e-10

    def test_solve3_singular_guard(self):
        singular = ((1.0, 2.0, 3.0), (2.0, 4.0, 6.0), (0.0, 0.0, 1.0))
        with pytest.raises(SingularMatrix):
            solve3(singular, (1.0, 1.0, 1.0))

    def test_guard_is_relative_to_row_norms(self):
        # |det| = 1e-15 < 1e-14, but the matrix is a multiple of the identity
        small = ((1e-5, 0.0, 0.0), (0.0, 1e-5, 0.0), (0.0, 0.0, 1e-5))
        assert solve3(small, (1e-5, 2e-5, 3e-5)) == (1.0, 2.0, 3.0)
        assert abs(so3.mat_inv(small)[0][0] - 1e5) < 1e-9
        # nearly parallel rows stay singular at any scale; so does the zero matrix
        a = 1.0 - 1e-15
        near = ((1.0, a, 0.0), (a, 1.0, 0.0), (0.0, 0.0, 1.0))
        zero = ((0.0, 0.0, 0.0),) * 3
        for m in (near, zero, so3.mat_scale(near, 1e-5)):
            with pytest.raises(SingularMatrix):
                solve3(m, (1.0, 1.0, 1.0))
            with pytest.raises(SingularMatrix):
                so3.mat_inv(m)


class TestRotationType:
    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonality defect 1.414e-06 exceeds"):
            Rotation(((1.0, 0.0, 0.0), (0.0, 1.0, 1e-6), (0.0, 0.0, 1.0)))
        # finite entries whose Gram terms overflow are reported as a defect
        with pytest.raises(ValueError, match="orthogonality defect inf exceeds"):
            Rotation(((1e200, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))

    def test_rejects_reflection(self):
        with pytest.raises(ValueError, match="determinant"):
            Rotation(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)))

    def test_rejects_non_finite(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                Rotation(((bad, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
            with pytest.raises(ValueError, match="non-finite"):
                Rotation(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, bad, 1.0)))


_entries = st.one_of(
    st.floats(-2.0, 2.0), st.floats(allow_nan=True, allow_infinity=True)
)
_rows = st.tuples(_entries, _entries, _entries)


@st.composite
def _near_rotations(draw):
    """exp of a drawn rotation vector, each entry nudged by up to 1e-9."""
    v = tuple(draw(st.floats(-3.0, 3.0)) for _ in range(3))
    m = so3._exp_matrix(v)
    return tuple(
        tuple(x + draw(st.floats(-1e-9, 1e-9)) for x in row) for row in m
    )


_EPS = sys.float_info.epsilon


def _exact_defect_squared(m):
    """||m^T m - I||_F^2 in exact rational arithmetic."""
    f = [[Fraction(x) for x in row] for row in m]
    total = Fraction(0)
    for i in range(3):
        for j in range(3):
            g = f[0][i] * f[0][j] + f[1][i] * f[1][j] + f[2][i] * f[2][j] - (i == j)
            total += g * g
    return total


class TestOrthogonalityDefect:
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(st.tuples(_rows, _rows, _rows), _near_rotations()))
    def test_matches_exact_frobenius_norm(self, m):
        new = so3.orthogonality_defect_mat(m)
        if not all(math.isfinite(x) for row in m for x in row):
            assert not math.isfinite(new)
            return
        exact = _exact_defect_squared(m)
        if not math.isfinite(new):
            # only a true defect whose square leaves the float range overflows
            assert exact > 1e308
            return
        # each Gram entry rounds to within a few eps of the sum of its terms'
        # magnitudes, |m|^T |m| + I; the squares, the sum and the root add a few
        # eps of the defect itself
        terms = math.hypot(*(
            abs(m[0][i] * m[0][j]) + abs(m[1][i] * m[1][j]) + abs(m[2][i] * m[2][j]) + (i == j)
            for i in range(3)
            for j in range(3)
        ))
        defect = math.sqrt(exact)
        assert abs(new - defect) <= 4.0 * _EPS * (terms + defect)
