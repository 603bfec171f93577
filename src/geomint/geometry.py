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
("cayley"); any other tag raises ValueError.  tau (as a raw matrix,
tau_matrix), tau_inv and the dual matrix are its methods.  The Lie-Poisson
and quadrotor steps and their kernels take one of the two values, and the
two heavy-top steps bind one each.  The half argument makes the Cayley
retraction first-order tangent (cay_so3 itself rotates by 2*atan|v|, so the
unscaled map would double every velocity at the origin and the induced
integrators would run at 4x speed).  Its inverse is 2*cay_inv_so3.

The module defines the inverse maps only, each in closed form: an inverse
takes one step of an integrator back to the (x, v), or the (g, xi) and
momenta, that induced it, and so checks the whole scheme.
"""

from __future__ import annotations

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
    tau, as the raw Mat3 that the integrator kernels compose further.
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

def flat_discretize_inverse(a, b, theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form inverse: v = b - a and x = (1 - theta) a + theta b."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimMismatch(f"shapes {a.shape} and {b.shape} differ")
    return (1.0 - theta) * a + theta * b, b - a


# --- trivialized discretization maps ------------------------------------------

def _relative_chart(
    g1: Rotation, g2: Rotation, ret: TrivializedRetraction
) -> tuple[Mat3, Vec3]:
    """The relative rotation w = g1^-1 g2 and tau_inv(w); OutOfChart off the chart."""
    w = so3.mat_mul(so3.mat_transpose(g1.m), g2.m)
    try:
        return w, ret.tau_inv(Rotation(w))
    except GeomintError as exc:
        raise OutOfChart(str(exc)) from exc


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
