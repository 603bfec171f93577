"""Model zoo: benchmark vector fields and their invariant observers.

Flat models (harmonic oscillator, planar Kepler, and the planar pendulum
embedded in R^3 on its cylinder) are expressed as numpy vector fields on a
stack of states along the last axis, as odecore.VectorField describes; the
rotational models (free rigid body, heavy top) expose energy and Casimir
observers over plain 3-tuples.

Kepler runs in the planar reduced form: the two-body problem collapses to
r'' = -mu r/|r|^3 with mu = G(m1 + m2) after splitting off the uniformly
moving center of mass, and conservation of angular momentum confines the
orbit to a plane, so the state is (r, rdot) in R^4.
"""

from __future__ import annotations

import math
from typing import Callable

from . import so3
from .errors import DegenerateProjection, SingularMatrix, SingularOrigin
from .so3 import Mat3, Vec3
from .value import Value, finite, store


# --- harmonic oscillator --------------------------------------------------------

class HarmonicOscillatorParams(Value):
    """Spring constant k (N/m) and mass m (kg)."""

    __slots__ = _fields = ("k", "m")

    def __init__(self, k: float = 1.0, m: float = 1.0):
        if finite("k", k) <= 0.0 or finite("m", m) <= 0.0:
            raise ValueError("k and m must be positive")
        store(self, "k", k)
        store(self, "m", m)


def ho_vectorfield(params: HarmonicOscillatorParams) -> Callable[[np.ndarray], np.ndarray]:
    """State (q, v) maps to (v, -k q / m)."""
    import numpy as np

    ratio = params.k / params.m

    def f(x: np.ndarray) -> np.ndarray:
        xt = x.T
        return np.array([xt[1], -ratio * xt[0]]).T

    return f


def ho_split_fields(params: HarmonicOscillatorParams) -> tuple[Callable, Callable]:
    """The split form (f1, f2): q' = f1(q, v) = v, v' = f2(q, v) = -k q / m."""
    ratio = params.k / params.m

    def f1(q, v):
        return v

    def f2(q, v):
        return -ratio * q

    return f1, f2


def ho_energy(params: HarmonicOscillatorParams) -> Callable[[float, float], float]:
    """Total energy E = m v^2 / 2 + k q^2 / 2."""

    def energy(q: float, v: float) -> float:
        return 0.5 * params.m * v * v + 0.5 * params.k * q * q

    return energy


# --- Kepler ----------------------------------------------------------------------

class KeplerParams(Value):
    """Effective gravitational parameter mu = G(m1 + m2) (m^3/s^2)."""

    __slots__ = _fields = ("mu",)

    def __init__(self, mu: float = 1.0):
        if finite("mu", mu) <= 0.0:
            raise ValueError("mu must be positive")
        store(self, "mu", mu)


def kepler_vectorfield(params: KeplerParams) -> Callable[[np.ndarray], np.ndarray]:
    """State (rx, ry, vx, vy) maps to (vx, vy, -mu r / |r|^3)."""
    import numpy as np

    mu = params.mu

    def f(x: np.ndarray) -> np.ndarray:
        # columns by index: on a single point, cheaper than unpacking x.T
        xt = x.T
        rx, ry = xt[0], xt[1]
        r2 = rx * rx + ry * ry
        r3 = r2 * np.sqrt(r2)
        # zero at r = 0, and also where |r|^3 underflows (|r| below about 1e-108)
        if np.count_nonzero(r3) < r3.size:
            raise SingularOrigin("Kepler state at r = 0")
        coeff = -mu / r3
        return np.array([xt[2], xt[3], coeff * rx, coeff * ry]).T

    return f


def _self_dot(q: np.ndarray) -> np.ndarray:
    """q . q for each point along the last axis, with shape (..., 1).

    The batched product q^T q makes one BLAS dot per point, as q.dot(q) does,
    so both round alike (for two terms like fma(q1, q1, q0 q0)); the plain sum
    q0 q0 + q1 q1 differs at roundoff.
    """
    return (q[..., None, :] @ q[..., :, None])[..., 0]


def kepler_split_fields(params: KeplerParams) -> tuple[Callable, Callable]:
    """The split form (f1, f2): r' = f1(r, v) = v, v' = f2(r, v) = -mu r / |r|^3.

    |r|^2 comes from _self_dot, which rounds like r.dot(r) and so differs at
    roundoff from kepler_vectorfield's rx rx + ry ry.
    """
    import numpy as np

    mu = params.mu

    def f1(q, v):
        return v

    def f2(q, v):
        r2 = _self_dot(q)
        r3 = r2 * np.sqrt(r2)
        # zero at r = 0, and also where |r|^3 underflows
        if np.count_nonzero(r3) < r3.size:
            raise SingularOrigin("Kepler state at r = 0")
        return -mu / r3 * q

    return f1, f2


def kepler_energy(params: KeplerParams) -> Callable[[np.ndarray], float]:
    """Reduced one-body energy E = |rdot|^2 / 2 - mu / |r|."""
    mu = params.mu

    def energy(x: np.ndarray) -> float:
        r = math.hypot(x[0], x[1])
        if r == 0.0:
            raise SingularOrigin("Kepler state at r = 0: energy undefined")
        return 0.5 * (x[2] * x[2] + x[3] * x[3]) - mu / r

    return energy


def kepler_angmom(params: KeplerParams) -> Callable[[np.ndarray], float]:
    """Scalar planar angular momentum L = rx vy - ry vx."""

    def angmom(x: np.ndarray) -> float:
        return x[0] * x[3] - x[1] * x[2]

    return angmom


# --- planar pendulum ---------------------------------------------------------------

class PendulumParams(Value):
    """ml2 = m l^2 (kg m^2) and mgl = m g l (N m)."""

    __slots__ = _fields = ("ml2", "mgl")

    def __init__(self, ml2: float = 1.0, mgl: float = 1.0):
        if finite("ml2", ml2) <= 0.0 or finite("mgl", mgl) <= 0.0:
            raise ValueError("ml2 and mgl must be positive")
        store(self, "ml2", ml2)
        store(self, "mgl", mgl)


def pendulum_embedded_vf(params: PendulumParams) -> Callable[[np.ndarray], np.ndarray]:
    """Pushforward to R^3 of the cylinder dynamics under (cos t, sin t, p).

    (x, y, z) -> (-y z / ml2, x z / ml2, -mgl y); the (x, y) components stay
    tangent to the cylinder since x(-yz) + y(xz) = 0 identically.
    """
    import numpy as np

    ml2, mgl = params.ml2, params.mgl

    def f(s: np.ndarray) -> np.ndarray:
        st = s.T
        x, y, z = st[0], st[1], st[2]
        return np.array([-y * z / ml2, x * z / ml2, -mgl * y]).T

    return f


def pendulum_embedded_energy(params: PendulumParams) -> Callable[[np.ndarray], float]:
    """Energy along the embedding: z^2 / (2 ml2) - mgl x."""

    def energy(s: np.ndarray) -> float:
        return 0.5 * s[2] * s[2] / params.ml2 - params.mgl * s[0]

    return energy


def project_to_cylinder(x: float, y: float, z: float) -> tuple[float, float, float]:
    """Radial projection onto x^2 + y^2 = 1, leaving z untouched."""
    r = math.hypot(x, y)
    if r < 1e-150:
        raise DegenerateProjection("point on the cylinder axis")
    return x / r, y / r, z


def cylinder_defect(x: float, y: float) -> float:
    """|x^2 + y^2 - 1|, the constraint violation of the embedded trajectory."""
    return abs(x * x + y * y - 1.0)


# --- rotational model parameters ------------------------------------------------------

def _validated_inertia(inertia) -> tuple[Mat3, Mat3]:
    """Check symmetry and positive pivots, return (inertia, inverse)."""
    mat = so3.as_mat3(inertia)
    if not so3.mat_is_finite(mat):
        raise ValueError("inertia matrix has non-finite entries")
    asym = max(
        abs(mat[0][1] - mat[1][0]),
        abs(mat[0][2] - mat[2][0]),
        abs(mat[1][2] - mat[2][1]),
    )
    if asym > 1e-12:
        raise ValueError(f"inertia asymmetry {asym:.3e} exceeds 1e-12")
    # Sylvester pivots: positive leading principal minors
    d1 = mat[0][0]
    d2 = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
    d3 = so3.mat_det(mat)
    if d1 <= 0.0 or d2 <= 0.0 or d3 <= 0.0:
        raise ValueError("inertia matrix is not positive definite")
    try:
        inv = so3.mat_inv(mat)
    except SingularMatrix as exc:
        raise ValueError(f"inertia matrix {mat} cannot be inverted: {exc}") from exc
    # positive minors can still be subnormal, and 1/det then overflows
    if not so3.mat_is_finite(inv):
        raise ValueError(f"inertia matrix {mat} cannot be inverted: its inverse is not finite")
    return mat, inv


class RigidBodyParams(Value):
    """Body inertia matrix (kg m^2), symmetric positive definite; its inverse is inertia_inv."""

    __slots__ = ("inertia", "inertia_inv")
    _fields = ("inertia",)

    def __init__(self, inertia: Mat3):
        mat, inv = _validated_inertia(inertia)
        store(self, "inertia", mat)
        store(self, "inertia_inv", inv)

    @staticmethod
    def from_diag(i1: float, i2: float, i3: float) -> "RigidBodyParams":
        return RigidBodyParams(
            ((i1, 0.0, 0.0), (0.0, i2, 0.0), (0.0, 0.0, i3))
        )


class HeavyTopParams(Value):
    """Inertia, mass m (kg), gravity g (m/s^2), pivot-to-center offset chi (m)."""

    __slots__ = ("inertia", "m", "g", "chi", "inertia_inv")
    _fields = ("inertia", "m", "g", "chi")

    def __init__(self, inertia: Mat3, m: float = 1.0, g: float = 9.81, chi: Vec3 = (0.0, 0.0, 1.0)):
        mat, inv = _validated_inertia(inertia)
        chi = so3.as_vec3(chi)
        if finite("m", m) <= 0.0 or finite("g", g) <= 0.0:
            raise ValueError("m and g must be positive")
        if not so3.vec_is_finite(chi):
            raise ValueError("chi has non-finite entries")
        store(self, "inertia", mat)
        store(self, "m", m)
        store(self, "g", g)
        store(self, "chi", chi)
        store(self, "inertia_inv", inv)


class QuadrotorParams(Value):
    """Inertia, total mass m (kg), gravity g (m/s^2).

    g = 0 is admitted so the free-drift limit (decoupled rotation plus
    ballistic translation) can be exercised directly.
    """

    __slots__ = ("inertia", "m", "g", "inertia_inv")
    _fields = ("inertia", "m", "g")

    def __init__(self, inertia: Mat3, m: float = 1.0, g: float = 9.81):
        mat, inv = _validated_inertia(inertia)
        if finite("m", m) <= 0.0 or finite("g", g) < 0.0:
            raise ValueError("m must be positive and g nonnegative")
        store(self, "inertia", mat)
        store(self, "m", m)
        store(self, "g", g)
        store(self, "inertia_inv", inv)


# --- rigid body and heavy top observers ----------------------------------------------

def rigidbody_energy(params: RigidBodyParams) -> Callable[[Vec3], float]:
    """Kinetic energy Pi . I^-1 Pi / 2."""
    inv = params.inertia_inv

    def energy(pi: Vec3) -> float:
        return 0.5 * so3.dot(pi, so3.mat_vec(inv, pi))

    return energy


def rigidbody_casimir(pi: Vec3) -> float:
    """|Pi|^2, constant on coadjoint orbits."""
    return so3.dot(pi, pi)


def heavytop_energy(params: HeavyTopParams) -> Callable[[Vec3, Vec3], float]:
    """Pi . I^-1 Pi / 2 + m g Gamma . chi."""
    inv = params.inertia_inv
    mg = params.m * params.g
    chi = params.chi

    def energy(pi: Vec3, gamma: Vec3) -> float:
        return 0.5 * so3.dot(pi, so3.mat_vec(inv, pi)) + mg * so3.dot(gamma, chi)

    return energy


def heavytop_casimirs(pi: Vec3, gamma: Vec3) -> tuple[float, float]:
    """(Pi . Gamma, |Gamma|^2): vertical momentum and advected-vector norm."""
    return so3.dot(pi, gamma), so3.dot(gamma, gamma)


def orthogonality_defect(m: Mat3) -> float:
    """||R^T R - I||_F, the group-constraint monitor for rotation trajectories."""
    return so3.orthogonality_defect_mat(m)
