"""Model zoo: benchmark vector fields and their invariant observers.

Flat models (harmonic oscillator, planar Kepler, planar pendulum and its
cylinder embedding) are expressed as numpy vector fields; the rotational
models (free rigid body, heavy top) expose energy and Casimir observers over
plain 3-tuples.

Kepler runs in the planar reduced form: the two-body problem collapses to
r'' = -mu r/|r|^3 with mu = G(m1 + m2) after splitting off the uniformly
moving center of mass, and conservation of angular momentum confines the
orbit to a plane, so the state is (r, rdot) in R^4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from . import so3
from .errors import DegenerateProjection, SingularOrigin
from .so3 import Mat3, Vec3


# --- harmonic oscillator --------------------------------------------------------

@dataclass(frozen=True)
class HarmonicOscillatorParams:
    """Spring constant k (N/m) and mass m (kg)."""

    k: float = 1.0
    m: float = 1.0

    def __post_init__(self):
        if self.k <= 0.0 or self.m <= 0.0:
            raise ValueError("k and m must be positive")


def ho_vectorfield(params: HarmonicOscillatorParams) -> Callable[[np.ndarray], np.ndarray]:
    """State (q, v) maps to (v, -k q / m)."""
    import numpy as np

    ratio = params.k / params.m

    def f(x: np.ndarray) -> np.ndarray:
        q, v = x.tolist()
        return np.array([v, -ratio * q])

    return f


def ho_energy(params: HarmonicOscillatorParams) -> Callable[[float, float], float]:
    """Total energy E = m v^2 / 2 + k q^2 / 2."""

    def energy(q: float, v: float) -> float:
        return 0.5 * params.m * v * v + 0.5 * params.k * q * q

    return energy


# --- Kepler ----------------------------------------------------------------------

@dataclass(frozen=True)
class KeplerParams:
    """Effective gravitational parameter mu = G(m1 + m2) (m^3/s^2)."""

    mu: float = 1.0

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("mu must be positive")


def kepler_vectorfield(params: KeplerParams) -> Callable[[np.ndarray], np.ndarray]:
    """State (rx, ry, vx, vy) maps to (vx, vy, -mu r / |r|^3)."""
    import numpy as np

    mu = params.mu

    def f(x: np.ndarray) -> np.ndarray:
        rx, ry, vx, vy = x.tolist()
        r2 = rx * rx + ry * ry
        r3 = r2 * math.sqrt(r2)
        # zero at r = 0, and also where |r|^3 underflows (|r| below about 1e-108)
        if r3 == 0.0:
            raise SingularOrigin("Kepler state at r = 0")
        coeff = -mu / r3
        return np.array([vx, vy, coeff * rx, coeff * ry])

    return f


def kepler_energy(params: KeplerParams) -> Callable[[np.ndarray], float]:
    """Reduced one-body energy E = |rdot|^2 / 2 - mu / |r|."""
    mu = params.mu

    def energy(x: np.ndarray) -> float:
        r = math.hypot(x[0], x[1])
        if r == 0.0:
            raise SingularOrigin("Kepler energy at r = 0")
        return 0.5 * (x[2] * x[2] + x[3] * x[3]) - mu / r

    return energy


def kepler_angmom(params: KeplerParams) -> Callable[[np.ndarray], float]:
    """Scalar planar angular momentum L = rx vy - ry vx."""

    def angmom(x: np.ndarray) -> float:
        return x[0] * x[3] - x[1] * x[2]

    return angmom


# --- planar pendulum ---------------------------------------------------------------

@dataclass(frozen=True)
class PendulumParams:
    """ml2 = m l^2 (kg m^2) and mgl = m g l (N m)."""

    ml2: float = 1.0
    mgl: float = 1.0

    def __post_init__(self):
        if self.ml2 <= 0.0 or self.mgl <= 0.0:
            raise ValueError("ml2 and mgl must be positive")


def pendulum_vf(params: PendulumParams) -> Callable[[np.ndarray], np.ndarray]:
    """Canonical form (theta, p) -> (p/ml2, -mgl sin theta)."""
    import numpy as np

    ml2, mgl = params.ml2, params.mgl

    def f(x: np.ndarray) -> np.ndarray:
        theta, p = x.tolist()
        return np.array([p / ml2, -mgl * math.sin(theta)])

    return f


def pendulum_energy(params: PendulumParams) -> Callable[[float, float], float]:
    """H = p^2 / (2 ml2) - mgl cos theta."""

    def energy(theta: float, p: float) -> float:
        return 0.5 * p * p / params.ml2 - params.mgl * math.cos(theta)

    return energy


def pendulum_embedded_vf(params: PendulumParams) -> Callable[[np.ndarray], np.ndarray]:
    """Pushforward to R^3 of the cylinder dynamics under (cos t, sin t, p).

    (x, y, z) -> (-y z / ml2, x z / ml2, -mgl y); the (x, y) components stay
    tangent to the cylinder since x(-yz) + y(xz) = 0 identically.
    """
    import numpy as np

    ml2, mgl = params.ml2, params.mgl

    def f(s: np.ndarray) -> np.ndarray:
        x, y, z = s.tolist()
        return np.array([-y * z / ml2, x * z / ml2, -mgl * y])

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
    return mat, so3.mat_inv(mat)


@dataclass(frozen=True)
class RigidBodyParams:
    """Body inertia matrix (kg m^2), symmetric positive definite."""

    inertia: Mat3

    def __post_init__(self):
        mat, inv = _validated_inertia(self.inertia)
        object.__setattr__(self, "inertia", mat)
        object.__setattr__(self, "inertia_inv", inv)

    @staticmethod
    def from_diag(i1: float, i2: float, i3: float) -> "RigidBodyParams":
        return RigidBodyParams(
            ((i1, 0.0, 0.0), (0.0, i2, 0.0), (0.0, 0.0, i3))
        )


@dataclass(frozen=True)
class HeavyTopParams:
    """Inertia, mass m (kg), gravity g (m/s^2), pivot-to-center offset chi (m)."""

    inertia: Mat3
    m: float = 1.0
    g: float = 9.81
    chi: Vec3 = (0.0, 0.0, 1.0)

    def __post_init__(self):
        mat, inv = _validated_inertia(self.inertia)
        object.__setattr__(self, "inertia", mat)
        object.__setattr__(self, "inertia_inv", inv)
        object.__setattr__(self, "chi", so3.as_vec3(self.chi))
        if self.m <= 0.0 or self.g <= 0.0:
            raise ValueError("m and g must be positive")
        if not so3.vec_is_finite(self.chi):
            raise ValueError("chi has non-finite entries")


@dataclass(frozen=True)
class QuadrotorParams:
    """Inertia, total mass m (kg), gravity g (m/s^2).

    g = 0 is admitted so the free-drift limit (decoupled rotation plus
    ballistic translation) can be exercised directly.
    """

    inertia: Mat3
    m: float = 1.0
    g: float = 9.81

    def __post_init__(self):
        mat, inv = _validated_inertia(self.inertia)
        object.__setattr__(self, "inertia", mat)
        object.__setattr__(self, "inertia_inv", inv)
        if self.m <= 0.0 or self.g < 0.0:
            raise ValueError("m must be positive and g nonnegative")


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
