"""Model-zoo tests: vector fields, invariant observers, constraint monitors."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from geomint import mechanics as mech
from geomint.errors import DegenerateProjection, SingularOrigin
from geomint.mechanics import (
    HarmonicOscillatorParams,
    HeavyTopParams,
    KeplerParams,
    PendulumParams,
    QuadrotorParams,
    RigidBodyParams,
    heavytop_casimirs,
    heavytop_energy,
    ho_energy,
    ho_vectorfield,
    kepler_angmom,
    kepler_energy,
    kepler_vectorfield,
    orthogonality_defect,
    pendulum_embedded_vf,
    pendulum_vf,
    project_to_cylinder,
    rigidbody_casimir,
    rigidbody_energy,
)
from geomint.so3 import exp_so3


def _fd_gradient(fn, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return grad


class TestHarmonicOscillator:
    def test_field_example(self):
        f = ho_vectorfield(HarmonicOscillatorParams(k=1.0, m=1.0))
        assert np.array_equal(f(np.array([1.0, 0.0])), [0.0, -1.0])

    def test_equilibrium(self):
        f = ho_vectorfield(HarmonicOscillatorParams())
        assert np.array_equal(f(np.zeros(2)), [0.0, 0.0])

    def test_linearity(self):
        f = ho_vectorfield(HarmonicOscillatorParams(k=2.0, m=0.5))
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 2))
        a, b = 1.7, -0.3
        assert np.max(np.abs(f(a * x + b * y) - a * f(x) - b * f(y))) < 1e-15

    def test_energy_examples(self):
        e = ho_energy(HarmonicOscillatorParams(k=1.0, m=1.0))
        assert e(1.0, 0.0) == 0.5
        assert e(0.0, 0.0) == 0.0

    def test_energy_constant_on_exact_flow(self):
        # closed-form rotation flow of the oscillator
        params = HarmonicOscillatorParams(k=1.0, m=1.0)
        e = ho_energy(params)
        q0, v0 = 1.0, 0.0
        e0 = e(q0, v0)
        for t in np.linspace(0.0, 10.0, 50):
            q = math.cos(t) * q0 + math.sin(t) * v0
            v = -math.sin(t) * q0 + math.cos(t) * v0
            assert abs(e(q, v) - e0) < 1e-12

    def test_params_validation(self):
        with pytest.raises(ValueError):
            HarmonicOscillatorParams(k=-1.0)


class TestKepler:
    def test_circular_orbit_acceleration(self):
        f = kepler_vectorfield(KeplerParams(mu=1.0))
        out = f(np.array([1.0, 0.0, 0.0, 1.0]))
        assert np.array_equal(out, [0.0, 1.0, -1.0, 0.0])

    def test_unit_circle_acceleration_norm(self):
        f = kepler_vectorfield(KeplerParams(mu=1.0))
        for phi in np.linspace(0.0, 2.0 * math.pi, 9):
            x = np.array([math.cos(phi), math.sin(phi), 0.0, 0.0])
            acc = f(x)[2:]
            assert abs(np.hypot(acc[0], acc[1]) - 1.0) < 1e-14

    def test_singular_origin(self):
        f = kepler_vectorfield(KeplerParams())
        with pytest.raises(SingularOrigin):
            f(np.array([0.0, 0.0, 1.0, 1.0]))
        # |r|^3 underflows to zero: a singular origin too, not an infinite force
        with pytest.raises(SingularOrigin):
            f(np.array([1e-110, -1e-110, 1.0, 1.0]))
        with pytest.raises(SingularOrigin):
            kepler_energy(KeplerParams())(np.array([0.0, 0.0, 1.0, 1.0]))

    def test_energy_angmom_values(self):
        kp = KeplerParams(mu=1.0)
        e, l = kepler_energy(kp), kepler_angmom(kp)
        x = np.array([1.0, 0.0, 0.0, 0.5])
        assert abs(e(x) + 0.875) < 1e-15
        assert l(x) == 0.5
        circ = np.array([1.0, 0.0, 0.0, 1.0])
        assert abs(e(circ) + 0.5) < 1e-15
        assert l(circ) == 1.0

    def test_angmom_sign_flip(self):
        l = kepler_angmom(KeplerParams())
        x = np.array([1.0, 0.3, -0.2, 0.5])
        flipped = np.array([1.0, 0.3, 0.2, -0.5])
        assert l(flipped) == -l(x)

    def test_energy_derivative_along_field(self):
        kp = KeplerParams(mu=1.0)
        f, e = kepler_vectorfield(kp), kepler_energy(kp)
        x = np.array([0.8, 0.4, -0.3, 0.6])
        assert abs(_fd_gradient(e, x) @ f(x)) < 1e-6


class TestPendulum:
    def test_equilibrium(self):
        f = pendulum_vf(PendulumParams())
        assert np.array_equal(f(np.zeros(2)), [0.0, 0.0])

    def test_horizontal(self):
        f = pendulum_vf(PendulumParams(ml2=1.0, mgl=1.0))
        out = f(np.array([math.pi / 2.0, 0.0]))
        assert abs(out[0]) < 1e-15 and abs(out[1] + 1.0) < 1e-15

    def test_hamiltonian_gradient_structure(self):
        params = PendulumParams(ml2=1.3, mgl=0.7)
        f = pendulum_vf(params)
        energy = mech.pendulum_energy(params)
        x = np.array([0.9, -0.4])
        grad = _fd_gradient(lambda y: energy(y[0], y[1]), x)
        field = f(x)
        assert abs(field[0] - grad[1]) < 1e-6
        assert abs(field[1] + grad[0]) < 1e-6

    def test_embedded_equilibrium_image(self):
        f = pendulum_embedded_vf(PendulumParams())
        assert np.array_equal(f(np.array([1.0, 0.0, 0.0])), [0.0, 0.0, 0.0])

    def test_embedded_pushforward_consistency(self):
        params = PendulumParams(ml2=1.0, mgl=1.0)
        f = pendulum_vf(params)
        fe = pendulum_embedded_vf(params)
        for theta, p in ((0.3, 0.7), (2.2, -0.4), (-1.0, 1.5)):
            td, pd = f(np.array([theta, p]))
            # chain rule: d/dt (cos, sin, p) = (-sin * td, cos * td, pd)
            expected = np.array(
                [-math.sin(theta) * td, math.cos(theta) * td, pd]
            )
            got = fe(np.array([math.cos(theta), math.sin(theta), p]))
            assert np.max(np.abs(got - expected)) < 1e-12

    def test_embedded_tangency(self):
        # x(-yz) + y(xz) = 0 is an algebraic identity; float evaluation of the
        # two triple products can differ by one ulp, nothing more
        f = pendulum_embedded_vf(PendulumParams(ml2=2.0, mgl=0.5))
        rng = np.random.default_rng(1)
        for _ in range(10):
            s = rng.standard_normal(3)
            out = f(s)
            assert abs(s[0] * out[0] + s[1] * out[1]) < 1e-15

    def test_projection(self):
        assert project_to_cylinder(2.0, 0.0, 5.0) == (1.0, 0.0, 5.0)
        x, y, z = project_to_cylinder(math.cos(0.7), math.sin(0.7), 1.2)
        assert abs(x - math.cos(0.7)) < 1e-15
        assert abs(y - math.sin(0.7)) < 1e-15
        with pytest.raises(DegenerateProjection):
            project_to_cylinder(0.0, 0.0, 1.0)


class TestPoissonBracket:
    def test_antisymmetry_by_finite_differences(self):
        # {F, G} = grad(F)^T J grad(G) on flat phase space
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        rng = np.random.default_rng(2)
        coeffs_f = rng.standard_normal(6)
        coeffs_g = rng.standard_normal(6)

        def poly(c):
            return lambda z: (
                c[0] + c[1] * z[0] + c[2] * z[1] + c[3] * z[0] * z[1]
                + c[4] * z[0] ** 2 + c[5] * z[1] ** 2
            )

        F, G = poly(coeffs_f), poly(coeffs_g)
        for _ in range(10):
            z = rng.standard_normal(2)
            fg = _fd_gradient(F, z) @ j @ _fd_gradient(G, z)
            gf = _fd_gradient(G, z) @ j @ _fd_gradient(F, z)
            assert abs(fg + gf) < 1e-6


class TestRotationalObservers:
    def test_rigidbody_energy_value(self):
        params = RigidBodyParams.from_diag(1.0, 10.0, 100.0)
        e = rigidbody_energy(params)
        assert abs(e((1.0, 1.0, 1.0)) - 0.555) < 1e-15

    def test_zero_momentum(self):
        params = RigidBodyParams.from_diag(1.0, 2.0, 3.0)
        assert rigidbody_energy(params)((0.0, 0.0, 0.0)) == 0.0
        assert rigidbody_casimir((0.0, 0.0, 0.0)) == 0.0

    def test_casimir_value(self):
        assert rigidbody_casimir((1.0, 1.0, 1.0)) == 3.0

    def test_heavytop_energy(self):
        params = HeavyTopParams(
            inertia=((1.0, 0.0, 0.0), (0.0, 10.0, 0.0), (0.0, 0.0, 100.0)),
            m=2.0,
            g=9.81,
            chi=(0.0, 0.0, 0.5),
        )
        e = heavytop_energy(params)
        # gamma orthogonal to chi kills the potential term
        assert abs(e((1.0, 1.0, 1.0), (1.0, 0.0, 0.0)) - 0.555) < 1e-15
        # aligned gamma adds m g chi3
        expected = 0.555 + 2.0 * 9.81 * 0.5
        assert abs(e((1.0, 1.0, 1.0), (0.0, 0.0, 1.0)) - expected) < 1e-12

    def test_heavytop_casimirs(self):
        assert heavytop_casimirs((1.0, 1.0, 1.0), (0.0, 0.0, 1.0)) == (1.0, 1.0)

    def test_inertia_validation(self):
        with pytest.raises(ValueError):
            RigidBodyParams(((1.0, 0.1, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))
        with pytest.raises(ValueError):
            RigidBodyParams.from_diag(1.0, -2.0, 3.0)
        with pytest.raises(ValueError):
            HeavyTopParams(
                inertia=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
                m=-1.0,
            )
        with pytest.raises(ValueError):
            QuadrotorParams(
                inertia=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
                g=-9.81,
            )


class TestOrthogonalityDefect:
    def test_identity(self):
        assert orthogonality_defect(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))) == 0.0

    def test_rotations_are_clean(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = exp_so3(tuple(rng.uniform(-3, 3, size=3)))
            assert orthogonality_defect(r.m) <= 1e-12

    def test_rank_one_perturbation_scale(self):
        # I + eps v v^T with |v v^T|_F = 1 has defect ~ 2 eps
        eps = 1e-3
        v = np.array([1.0, 2.0, -1.0])
        s = np.outer(v, v) / (v @ v)
        m = np.eye(3) + eps * s
        defect = orthogonality_defect(tuple(map(tuple, m)))
        assert abs(defect - 2.0 * eps) < 0.2 * 2.0 * eps


class TestEnergyAlongFields:
    """dE/dt = 0 along every field paired with its energy observer."""

    def test_harmonic(self):
        params = HarmonicOscillatorParams(k=1.3, m=0.8)
        f = ho_vectorfield(params)
        e = ho_energy(params)
        x = np.array([0.6, -0.9])
        grad = _fd_gradient(lambda y: e(y[0], y[1]), x)
        assert abs(grad @ f(x)) < 1e-6

    def test_pendulum_embedded(self):
        params = PendulumParams(ml2=1.0, mgl=1.0)
        f = pendulum_embedded_vf(params)
        e = mech.pendulum_embedded_energy(params)
        s = np.array([math.cos(0.8), math.sin(0.8), 0.4])
        grad = _fd_gradient(e, s)
        assert abs(grad @ f(s)) < 1e-6


# --- bitwise oracles for the flat fields ------------------------------------------
#
# The numpy-indexed forms below are the references; the library fields read
# the state into Python floats and must return the same bits.

def _ho_reference(params):
    ratio = params.k / params.m
    return lambda x: np.array([x[1], -ratio * x[0]])


def _kepler_reference(params):
    mu = params.mu

    def f(x):
        r2 = x[0] * x[0] + x[1] * x[1]
        if r2 == 0.0:
            raise SingularOrigin("Kepler state at r = 0")
        coeff = -mu / (r2 * math.sqrt(r2))
        return np.array([x[2], x[3], coeff * x[0], coeff * x[1]])

    return f


def _pendulum_reference(params):
    return lambda x: np.array([x[1] / params.ml2, -params.mgl * math.sin(x[0])])


def _pendulum_embedded_reference(params):
    return lambda s: np.array(
        [-s[1] * s[2] / params.ml2, s[0] * s[2] / params.ml2, -params.mgl * s[1]]
    )


_coord = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),
)
_positive = st.floats(1e-3, 1e3)


def _same_bits(new, ref):
    return new.shape == ref.shape and new.dtype == ref.dtype and new.tobytes() == ref.tobytes()


# the references overflow on the large draws, as the fields do
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestFlatFieldOracles:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coord, min_size=2, max_size=2), _positive, _positive)
    def test_ho_and_pendulum_bitwise(self, xs, a, b):
        x = np.array(xs)
        ho = HarmonicOscillatorParams(k=a, m=b)
        assert _same_bits(ho_vectorfield(ho)(x), _ho_reference(ho)(x))
        pp = PendulumParams(ml2=a, mgl=b)
        assert _same_bits(pendulum_vf(pp)(x), _pendulum_reference(pp)(x))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coord, min_size=3, max_size=3), _positive, _positive)
    def test_pendulum_embedded_bitwise(self, xs, a, b):
        x = np.array(xs)
        pp = PendulumParams(ml2=a, mgl=b)
        assert _same_bits(pendulum_embedded_vf(pp)(x), _pendulum_embedded_reference(pp)(x))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coord, min_size=4, max_size=4), _positive)
    def test_kepler_bitwise(self, xs, mu):
        x = np.array(xs)
        r2 = xs[0] * xs[0] + xs[1] * xs[1]
        # where |r|^3 underflows the reference returns an infinite force and
        # the library raises SingularOrigin (test_singular_origin)
        assume(r2 == 0.0 or r2 * math.sqrt(r2) != 0.0)
        kp = KeplerParams(mu=mu)
        if r2 == 0.0:
            for f in (kepler_vectorfield(kp), _kepler_reference(kp)):
                with pytest.raises(SingularOrigin):
                    f(x)
            return
        assert _same_bits(kepler_vectorfield(kp)(x), _kepler_reference(kp)(x))
