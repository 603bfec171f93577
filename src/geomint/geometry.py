"""Retraction and discretization maps, flat and left-trivialized.

A retraction sends (x, v) in TM to a nearby point with R(x, 0) = x and
d/dt|_0 R(x, tv) = v.  A discretization map produces an ordered pair

    D(x, v) = (R(x, -theta v), R(x, (1-theta) v)),   theta in [0, 1],

so that D(x, 0) = (x, x) and the first-order difference of the two legs
recovers v.  On a Lie group the same construction runs through a local
diffeomorphism tau from the algebra to the group,

    D^L(g, xi) = (g tau(-s xi), g tau((1-s) xi)),    s in [0, 1].

A TrivializedRetraction is one of two values, named by its tag: the matrix
exponential ("exp") or the scaled Cayley transform tau(xi) = cay_so3(xi/2)
("cayley"); any other tag raises ValueError.  tau (as a raw matrix in
tau_matrix, checked in tau), tau_inv and the dual matrix are its methods.
The Lie-Poisson and quadrotor steps and their kernels take one of the two
values, and the two heavy-top steps bind one each.  The half argument
makes the Cayley retraction first-order tangent (cay_so3 itself rotates by
2*atan|v|, so the unscaled map would double every velocity at the origin and
the induced integrators would run at 4x speed).  Its inverse is 2*cay_inv_so3.

Both discretization maps invert in closed form, the trivialized one because
its two legs turn about the same axis xi.

The module also houses the local-coordinate second-order maps: the canonical
flip (q, qdot, dq, dqdot) -> (q, dq, qdot, dqdot) on TTQ and the bundle
isomorphisms alpha: TT*Q -> T*TQ and beta: TT*Q -> T*T*Q, whose coordinate
forms are pure (signed) permutations.
"""

from __future__ import annotations

import math

from . import so3
from .errors import DimMismatch, GeomintError, OutOfChart
from .so3 import Mat3, Rotation, Vec3
from .value import Value, store

EXP_TAG = "exp"
CAYLEY_TAG = "cayley"


# --- retractions -------------------------------------------------------------

class TrivializedRetraction(Value):
    """Local diffeomorphism tau: R^3 -> SO(3), named by its tag.

    ``tag`` is ``"exp"`` for the matrix exponential or ``"cayley"`` for the
    scaled Cayley transform; any other tag raises ValueError.  tau(0) = I and
    tau is first-order tangent, so left translation R^L(g, xi) = g tau(xi) is
    a left-trivialized retraction.  ``tau_matrix`` is the one definition of
    tau, as the raw Mat3 that the integrator kernels compose further; ``tau``
    wraps it in the checked Rotation.
    """

    __slots__ = _fields = ("tag",)

    def __init__(self, tag: str):
        if tag not in (EXP_TAG, CAYLEY_TAG):
            raise ValueError(f"retraction tag {tag!r} is neither 'exp' nor 'cayley'")
        store(self, "tag", tag)

    def tau_matrix(self, xi: Vec3) -> Mat3:
        if self.tag == EXP_TAG:
            return so3._exp_matrix(xi)
        return so3._cay_matrix(so3.vec_scale(xi, 0.5))

    def tau(self, xi: Vec3) -> Rotation:
        return Rotation(self.tau_matrix(xi))

    def tau_inv(self, r: Rotation) -> Vec3:
        if self.tag == EXP_TAG:
            return so3.log_so3(r)
        return so3.vec_scale(so3.cay_inv_so3(r), 2.0)

    def dual_matrix(self, xi: Vec3) -> Mat3:
        """Matrix of the dual of the left logarithmic derivative at xi."""
        if self.tag == EXP_TAG:
            return so3.dexp_dual_matrix(xi)
        half = so3.vec_scale(xi, 0.5)
        mat, s = so3.dcay_dual_matrix(half)
        # dual of tau(xi) = cay(xi/2) picks up the chain-rule factor 1/2
        return so3.mat_scale(mat, 0.5 / s)


def exp_retraction() -> TrivializedRetraction:
    return TrivializedRetraction(EXP_TAG)


def cayley_retraction() -> TrivializedRetraction:
    return TrivializedRetraction(CAYLEY_TAG)


# --- flat discretization maps -------------------------------------------------

def flat_discretize(x, v, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """D(x, v) = (x - theta v, x + (1 - theta) v)."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    if x.shape != v.shape:
        raise DimMismatch(f"shapes {x.shape} and {v.shape} differ")
    return x - theta * v, x + (1.0 - theta) * v


def flat_discretize_inverse(a, b, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form inverse: v = b - a and x = (1 - theta) a + theta b."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimMismatch(f"shapes {a.shape} and {b.shape} differ")
    return (1.0 - theta) * a + theta * b, b - a


# --- trivialized discretization maps ------------------------------------------

def triv_discretize(
    g: Rotation, xi: Vec3, s: float, ret: TrivializedRetraction
) -> tuple[Rotation, Rotation]:
    """D^L(g, xi) = (g tau(-s xi), g tau((1-s) xi))."""
    first = g.multiply(ret.tau(so3.vec_scale(xi, -s)))
    second = g.multiply(ret.tau(so3.vec_scale(xi, 1.0 - s)))
    return first, second


def _relative_chart(
    g1: Rotation, g2: Rotation, ret: TrivializedRetraction
) -> tuple[Mat3, Vec3]:
    """The relative rotation w = g1^-1 g2 and tau_inv(w); OutOfChart off the chart."""
    w = so3.mat_mul(so3.mat_transpose(g1.m), g2.m)
    try:
        return w, ret.tau_inv(Rotation(w))
    except GeomintError as exc:
        raise OutOfChart(str(exc)) from exc


def triv_discretize_inverse(
    g1: Rotation, g2: Rotation, s: float, ret: TrivializedRetraction
) -> tuple[Rotation, Vec3]:
    """Recover (g, xi) from the pair (g tau(-s xi), g tau((1-s) xi)), in closed form.

    M = g1^-1 g2 = tau(s xi) tau((1-s) xi) turns about xi; v = tau_inv(M).  For
    exp, xi = v.  For Cayley (tau(y) turns by 2 atan(|y|/2)) the half-angle
    tangents give |v| = |xi| / (1 - s(1-s)|xi|^2/4), whose root with
    s(1-s)|xi|^2 < 4 is xi = 2 v / (1 + sqrt(1 + s(1-s)|v|^2)).  Raises
    OutOfChart when M leaves the injectivity domain of tau_inv.
    """
    _, xi = _relative_chart(g1, g2, ret)
    if ret.tag == CAYLEY_TAG:
        root = math.sqrt(1.0 + s * (1.0 - s) * so3.dot(xi, xi))
        xi = so3.vec_scale(xi, 2.0 / (1.0 + root))
    # g = D1 tau(-s xi)^-1, and tau(-v)^-1 = tau(v) for these retractions
    g = g1.multiply(ret.tau(so3.vec_scale(xi, s)))
    return g, xi


def triv_disc_inverse_left(
    g_k: Rotation,
    mu_k: Vec3,
    g_k1: Rotation,
    mu_k1: Vec3,
    ret: TrivializedRetraction,
) -> tuple[tuple[Rotation, Vec3], tuple[Vec3, Vec3]]:
    """Inverse of the left cotangent-lifted discretization (s = 0 family).

    Returns ((g_k, nu), (xi, dmu)) where xi = tau_inv(g_k^-1 g_{k+1}),
    nu is the dual logarithmic-derivative transport of mu_{k+1}, and
    dmu = Ad*_{(g_k^-1 g_{k+1})^-1}(mu_{k+1}) - mu_k.
    """
    w, xi = _relative_chart(g_k, g_k1, ret)
    nu = so3.mat_vec(ret.dual_matrix(xi), mu_k1)
    # Ad*_{W^-1}(mu') = (W^-1)^T mu' = W mu'
    dmu = so3.vec_sub(so3.mat_vec(w, mu_k1), mu_k)
    return (g_k, nu), (xi, dmu)


def triv_disc_inverse_right(
    g_k: Rotation,
    mu_k: Vec3,
    g_k1: Rotation,
    mu_k1: Vec3,
    ret: TrivializedRetraction,
) -> tuple[tuple[Rotation, Vec3], tuple[Vec3, Vec3]]:
    """Inverse of the right cotangent-lifted discretization (s = 0 family).

    The momentum difference is plain mu_{k+1} - mu_k and the transported
    covector is the dual derivative applied to Ad*_{g_{k+1}}(mu_{k+1}).
    """
    _, xi = _relative_chart(g_k, g_k1, ret)
    nu = so3.mat_vec(ret.dual_matrix(xi), g_k1.apply_transpose(mu_k1))
    dmu = so3.vec_sub(mu_k1, mu_k)
    return (g_k, nu), (xi, dmu)


# --- local second-order maps ---------------------------------------------------

class LocalSecondOrderPoint(Value):
    """Coordinate tuple on an iterated (co)tangent bundle.

    Slots read (q, p_or_v, qdot, pdot_or_vdot); all four share one dimension.
    """

    __slots__ = _fields = ("q", "p_or_v", "qdot", "pdot_or_vdot")

    def __init__(
        self, q: np.ndarray, p_or_v: np.ndarray, qdot: np.ndarray, pdot_or_vdot: np.ndarray
    ):
        import numpy as np

        arrays = [np.asarray(a, dtype=float) for a in (q, p_or_v, qdot, pdot_or_vdot)]
        n = arrays[0].shape
        if any(a.shape != n for a in arrays):
            raise DimMismatch("all four slots must share one dimension")
        for name, array in zip(self._fields, arrays):
            store(self, name, array)

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return self.q, self.p_or_v, self.qdot, self.pdot_or_vdot


def canonical_flip(p: LocalSecondOrderPoint) -> LocalSecondOrderPoint:
    """(q, qdot, dq, dqdot) -> (q, dq, qdot, dqdot); an involution on TTQ."""
    return LocalSecondOrderPoint(p.q, p.qdot, p.p_or_v, p.pdot_or_vdot)


def alpha_local(p: LocalSecondOrderPoint) -> LocalSecondOrderPoint:
    """(q, p, qdot, pdot) -> (q, qdot, pdot, p), the TT*Q -> T*TQ isomorphism."""
    return LocalSecondOrderPoint(p.q, p.qdot, p.pdot_or_vdot, p.p_or_v)


def alpha_local_inverse(p: LocalSecondOrderPoint) -> LocalSecondOrderPoint:
    return LocalSecondOrderPoint(p.q, p.pdot_or_vdot, p.p_or_v, p.qdot)


def beta_local(p: LocalSecondOrderPoint) -> LocalSecondOrderPoint:
    """(q, p, qdot, pdot) -> (q, p, pdot, -qdot), the TT*Q -> T*T*Q map.

    Applied to a differential tuple (q, p, dH/dq, dH/dp) the last two slots
    become (dH/dp, -dH/dq): the canonical equations' right-hand side.
    """
    return LocalSecondOrderPoint(p.q, p.p_or_v, p.pdot_or_vdot, -p.qdot)


def beta_local_inverse(p: LocalSecondOrderPoint) -> LocalSecondOrderPoint:
    return LocalSecondOrderPoint(p.q, p.p_or_v, -p.pdot_or_vdot, p.qdot)
