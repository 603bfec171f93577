"""Geometric integrators built from discretization maps.

Flat side
---------
``implicit_disc_step`` (defined in odecore) is the one-parameter family

    x' = x + h f((1-theta) x + theta x'),

explicit Euler at theta = 0, implicit Euler at theta = 1, the implicit
midpoint rule at theta = 1/2.  ``cotangent_theta_step`` is its cotangent
lift on (q, p),

    q' = q + h f1((1-theta) q + theta q', theta p + (1-theta) p')
    p' = p + h f2((1-theta) q + theta q', theta p + (1-theta) p'),

a symplectic map for every theta; the opposite weighting of q and p comes
from the twisted product structure of the lift.  Both share odecore's solve
of x' = x + h g(c + w x').  The lift's endpoints are the symplectic Euler
A/B schemes and are delegated to them verbatim.

Lie-Poisson side
----------------
One step of the left-lifted scheme with retraction tau and step dt solves,
for the body velocity Omega,

    R_{k+1}  = R_k tau(dt Omega)
    dual(dt Omega) . Pi_{k+1} = I Omega            (momentum relation)
    Pi_{k+1} = tau(dt Omega)^T Pi_k                (coadjoint transport)

where dual is the transpose of tau's left logarithmic derivative.  Because
dual(y) tau(y)^T equals the left logarithmic-derivative matrix itself, the
three relations collapse to a single 3-vector root-finding problem

    dlog(dt Omega) . Pi_k - I Omega = 0,

solved by Newton with an analytic Jacobian.  The transport is by the
transpose (inverse) step rotation, which is what first-order consistency
with Pi_dot = Pi x Omega demands; |Pi| is conserved to machine precision
because the transport is orthogonal.  The right-lifted variant advances the
same relation with Pi_body = R^T mu and returns the spatial momentum mu
bitwise unchanged.

The heavy-top scheme is the same construction on the semidirect product of
rotations and translations, with the advected vertical Gamma and auxiliary
translation x.  Its transports

    Gamma' = E^T Gamma,   Pi' = E^T (Pi + Gamma x d),   d = trans(tau(xi))

conserve Pi . Gamma and |Gamma|^2 exactly, and the momentum relation gains
the coupling block Q (the directional derivative of the translation block).

The quadrotor step reuses the free Lie-Poisson rotational step, adds the
body-moment impulse dt*M, and advances the translation by symplectic Euler:
p' = p + dt (-m g e3 + F R e3), q' = q + dt p'/m.

Baselines
---------
``quat_rk4_step`` integrates the unit-quaternion kinematics with classical
RK4 and renormalizes; ``rkmk4_step`` is the Munthe-Kaas variant that solves
u_dot = dexpinv_u(Omega) in the algebra and reconstructs with the
exponential.  Neither is Poisson; both leak the Casimirs over long runs,
which is exactly what they are here to demonstrate.
"""

from __future__ import annotations

import math

from . import so3
from .errors import GeomintError, NoConvergence, NotRotation, OutOfChart, SingularJacobian
from .geometry import EXP_TAG, TrivializedRetraction, cayley_retraction, exp_retraction
from .mechanics import HeavyTopParams, QuadrotorParams, RigidBodyParams
from .odecore import (
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    SplitField,
    _row_values,
    _theta_solve,
    implicit_disc_step,
    newton_solve,
    symplectic_euler_a_step,
    symplectic_euler_b_step,
)
from .so3 import (
    Rotation,
    Vec3,
    _coeff_a,
    _coeff_b,
    _coeff_da,
    _coeff_db,
    _sinc,
    mat_T_vec,
    mat_vec,
    norm,
    solve3,
    vec_add,
    vec_scale,
)
from .value import Value, finite, store

__all__ = [
    "RigidBodyState",
    "HeavyTopState",
    "QuadrotorState",
    "QuadrotorInput",
    "RigidBodyParams",
    "HeavyTopParams",
    "QuadrotorParams",
    "implicit_disc_step",
    "cotangent_theta_step",
    "lie_poisson_left_step",
    "lie_poisson_right_step",
    "heavytop_exp_step",
    "heavytop_cay_step",
    "quadrotor_step",
    "quat_rk4_step",
    "rkmk4_step",
]


# --- state types -----------------------------------------------------------------

def _finite_vec(name: str, value) -> Vec3:
    """value as a Vec3; ValueError naming the field if an entry is not finite."""
    value = so3.as_vec3(value)
    if not so3.vec_is_finite(value):
        raise ValueError(f"{name} has non-finite entries")
    return value


class RigidBodyState(Value):
    """Attitude R and body angular momentum Pi (kg m^2/s)."""

    __slots__ = _fields = ("R", "Pi")

    def __init__(self, R: Rotation, Pi: Vec3):
        store(self, "R", R)
        store(self, "Pi", _finite_vec("Pi", Pi))


class HeavyTopState(Value):
    """Attitude R, auxiliary translation x, momentum Pi, advected vertical Gamma.

    Any finite |Gamma| is a state (the RK4 baselines let it drift); the
    Lie-Poisson heavy-top steps check |Gamma| = 1 on the state they return.
    """

    __slots__ = _fields = ("R", "x", "Pi", "Gamma")

    def __init__(self, R: Rotation, x: Vec3, Pi: Vec3, Gamma: Vec3):
        store(self, "R", R)
        store(self, "x", _finite_vec("x", x))
        store(self, "Pi", _finite_vec("Pi", Pi))
        store(self, "Gamma", _finite_vec("Gamma", Gamma))


class QuadrotorState(Value):
    """Attitude R, body angular momentum Pi, position q (m), linear momentum p."""

    __slots__ = _fields = ("R", "Pi", "q", "p")

    def __init__(self, R: Rotation, Pi: Vec3, q: Vec3, p: Vec3):
        store(self, "R", R)
        store(self, "Pi", _finite_vec("Pi", Pi))
        store(self, "q", _finite_vec("q", q))
        store(self, "p", _finite_vec("p", p))


class QuadrotorInput(Value):
    """Net body moment M (N m) and total thrust F (N)."""

    __slots__ = _fields = ("M", "F")

    def __init__(self, M: Vec3 = (0.0, 0.0, 0.0), F: float = 0.0):
        store(self, "M", _finite_vec("M", M))
        store(self, "F", finite("F", F))


# --- flat discretization-map integrators --------------------------------------------

def cotangent_theta_step(
    f1: SplitField,
    f2: SplitField,
    q: np.ndarray,
    p: np.ndarray,
    h: float,
    theta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Symplectic theta-family step on (q, p); endpoints are symplectic Euler A/B."""
    import numpy as np

    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if theta == 0.0:
        return symplectic_euler_a_step(f1, f2, q, p, h)
    if theta == 1.0:
        return symplectic_euler_b_step(f1, f2, q, p, h)

    n = q.size

    def g(mid: np.ndarray) -> np.ndarray:
        qm, pm = mid[:, :n], mid[:, n:]
        out = np.empty_like(mid)
        out[:, :n] = _row_values(f1(qm, pm), qm)
        out[:, n:] = _row_values(f2(qm, pm), pm)
        return out

    # the midpoint is fixed + weights * (q', p'), fixed = ((1 - theta) q, theta p)
    fixed = np.concatenate([(1.0 - theta) * q, theta * p])
    weights = np.array([theta] * n + [1.0 - theta] * n)
    sol = _theta_solve(g, np.concatenate([q, p]), h, fixed, weights)
    return sol[:n], sol[n:]


# --- shared rotational kernels --------------------------------------------------------

def _check_exp_chart(theta: float) -> None:
    """A converged exp root with |dt Omega| >= pi lies outside the chart; reject it."""
    if theta >= math.pi:
        raise OutOfChart(
            f"exp step |dt*Omega| = {theta:.6g} >= pi = {math.pi:.6g}; "
            "the root lies outside the retraction's chart"
        )


def _name_iterate(exc: Exception, dt: float, omega: Vec3, params, pi: Vec3) -> None:
    """Append |dt*Omega| of the iterate a failed solve stopped at to exc's message,
    and that of the first iterate I^-1 Pi when the last one is not finite.

    A SingularJacobian keeps only its reason, since |dt*Omega| names its iterate."""
    y = math.hypot(*vec_scale(omega, dt))
    note = f" at |dt*Omega| = {y:.6g}"
    if not math.isfinite(y):
        y0 = math.hypot(*vec_scale(mat_vec(params.inertia_inv, pi), dt))
        note += f" (first iterate {y0:.6g})"
    base = exc.reason if isinstance(exc, SingularJacobian) else exc
    exc.args = (f"{base}{note}",)


def _solve_body_omega(params, pi: Vec3, dt: float, ret: TrivializedRetraction) -> Vec3:
    """Body velocity Omega from dlog(dt Omega) . Pi = I Omega.

    Newton iteration with the analytic Jacobian; initial guess I^-1 Pi.  The
    residual and the Jacobian columns are written out on float locals.  The
    products with the unit vectors e_j keep their factors 0.0 and 1.0, since
    dropping them can flip the sign of a zero.  A failed solve names the
    |dt*Omega| of the iterate it stopped at.
    """
    p0, p1, p2 = pi
    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = params.inertia
    (v00, v01, v02), (v10, v11, v12), (v20, v21, v22) = params.inertia_inv
    o0 = v00 * p0 + v01 * p1 + v02 * p2
    o1 = v10 * p0 + v11 * p1 + v12 * p2
    o2 = v20 * p0 + v21 * p1 + v22 * p2
    exp_tag = ret.tag == EXP_TAG
    # e_j x Pi, fixed over the iteration
    ep00 = 0.0 * p2 - 0.0 * p1
    ep01 = 0.0 * p0 - 1.0 * p2
    ep02 = 1.0 * p1 - 0.0 * p0
    ep10 = 1.0 * p2 - 0.0 * p1
    ep11 = 0.0 * p0 - 0.0 * p2
    ep12 = 0.0 * p1 - 1.0 * p0
    ep20 = 0.0 * p2 - 1.0 * p1
    ep21 = 1.0 * p0 - 0.0 * p2
    ep22 = 0.0 * p1 - 0.0 * p0

    try:
        for _ in range(NEWTON_MAX_ITER):
            y0 = dt * o0
            y1 = dt * o1
            y2 = dt * o2
            # w1 = hat(y) Pi, w2 = hat(y)^2 Pi
            w10 = y1 * p2 - y2 * p1
            w11 = y2 * p0 - y0 * p2
            w12 = y0 * p1 - y1 * p0
            w20 = y1 * w12 - y2 * w11
            w21 = y2 * w10 - y0 * w12
            w22 = y0 * w11 - y1 * w10
            if exp_tag:
                theta = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2)
                a = _coeff_a(theta)
                b = _coeff_b(theta)
                l0 = p0 - a * w10 + b * w20
                l1 = p1 - a * w11 + b * w21
                l2 = p2 - a * w12 + b * w22
            else:
                # normalized Cayley: dlog(y) = (I - hat(y/2)) / (1 + |y|^2/4)
                c = 1.0 / (1.0 + 0.25 * (y0 * y0 + y1 * y1 + y2 * y2))
                h0 = p0 - 0.5 * w10
                h1 = p1 - 0.5 * w11
                h2 = p2 - 0.5 * w12
                l0 = c * h0
                l1 = c * h1
                l2 = c * h2
            r0 = l0 - (i00 * o0 + i01 * o1 + i02 * o2)
            r1 = l1 - (i10 * o0 + i11 * o1 + i12 * o2)
            r2 = l2 - (i20 * o0 + i21 * o1 + i22 * o2)
            if max(abs(r0), abs(r1), abs(r2)) <= NEWTON_TOL:
                break

            # k<j><i>: component i of the derivative of dlog(y) Pi along y_j
            if exp_tag:
                # b (y x (e_j x Pi) + e_j x w1) - a (e_j x Pi) + y_j (-da w1 + db w2)
                da = _coeff_da(theta)
                db = _coeff_db(theta)
                ew00 = 0.0 * w12 - 0.0 * w11
                ew01 = 0.0 * w10 - 1.0 * w12
                ew02 = 1.0 * w11 - 0.0 * w10
                ew10 = 1.0 * w12 - 0.0 * w11
                ew11 = 0.0 * w10 - 0.0 * w12
                ew12 = 0.0 * w11 - 1.0 * w10
                ew20 = 0.0 * w12 - 1.0 * w11
                ew21 = 1.0 * w10 - 0.0 * w12
                ew22 = 0.0 * w11 - 0.0 * w10
                sa0 = -da * y0
                sa1 = -da * y1
                sa2 = -da * y2
                sb0 = db * y0
                sb1 = db * y1
                sb2 = db * y2
                k00 = b * (y1 * ep02 - y2 * ep01 + ew00) - a * ep00 + (sa0 * w10 + sb0 * w20)
                k01 = b * (y2 * ep00 - y0 * ep02 + ew01) - a * ep01 + (sa0 * w11 + sb0 * w21)
                k02 = b * (y0 * ep01 - y1 * ep00 + ew02) - a * ep02 + (sa0 * w12 + sb0 * w22)
                k10 = b * (y1 * ep12 - y2 * ep11 + ew10) - a * ep10 + (sa1 * w10 + sb1 * w20)
                k11 = b * (y2 * ep10 - y0 * ep12 + ew11) - a * ep11 + (sa1 * w11 + sb1 * w21)
                k12 = b * (y0 * ep11 - y1 * ep10 + ew12) - a * ep12 + (sa1 * w12 + sb1 * w22)
                k20 = b * (y1 * ep22 - y2 * ep21 + ew20) - a * ep20 + (sa2 * w10 + sb2 * w20)
                k21 = b * (y2 * ep20 - y0 * ep22 + ew21) - a * ep21 + (sa2 * w11 + sb2 * w21)
                k22 = b * (y0 * ep21 - y1 * ep20 + ew22) - a * ep22 + (sa2 * w12 + sb2 * w22)
            else:
                # -c^2 y_j (Pi - hat(y) Pi / 2) / 2 - c (e_j x Pi) / 2
                hc = 0.5 * c
                s0 = -0.5 * c * c * y0
                s1 = -0.5 * c * c * y1
                s2 = -0.5 * c * c * y2
                k00 = s0 * h0 - hc * ep00
                k01 = s0 * h1 - hc * ep01
                k02 = s0 * h2 - hc * ep02
                k10 = s1 * h0 - hc * ep10
                k11 = s1 * h1 - hc * ep11
                k12 = s1 * h2 - hc * ep12
                k20 = s2 * h0 - hc * ep20
                k21 = s2 * h1 - hc * ep21
                k22 = s2 * h2 - hc * ep22
            jac = (
                (dt * k00 - i00, dt * k10 - i01, dt * k20 - i02),
                (dt * k01 - i10, dt * k11 - i11, dt * k21 - i12),
                (dt * k02 - i20, dt * k12 - i21, dt * k22 - i22),
            )
            step = solve3(jac, (r0, r1, r2))
            o0 = o0 - step[0]
            o1 = o1 - step[1]
            o2 = o2 - step[2]
        else:
            raise NoConvergence(NEWTON_MAX_ITER, max(abs(r0), abs(r1), abs(r2)))
    except (GeomintError, ArithmeticError, ValueError) as exc:
        _name_iterate(exc, dt, (o0, o1, o2), params, pi)
        raise
    if exp_tag:
        _check_exp_chart(theta)
    return (o0, o1, o2)


def _lp_left_core(params, r_mat, pi: Vec3, dt: float, ret: TrivializedRetraction):
    """Shared rotational step; returns (R'_mat, Pi')."""
    w = ret.tau_matrix(vec_scale(_solve_body_omega(params, pi, dt, ret), dt))
    return so3.mat_mul(r_mat, w), mat_T_vec(w, pi)


# --- Lie-Poisson steps ------------------------------------------------------------------

def lie_poisson_left_step(
    params: RigidBodyParams,
    ret: TrivializedRetraction,
    R: Rotation,
    Pi: Vec3,
    dt: float,
) -> tuple[Rotation, Vec3]:
    """Left-lifted Lie-Poisson step for the free rigid body.

    Solves the momentum relation for Omega, then R' = R tau(dt Omega) and
    Pi' = tau(dt Omega)^T Pi.  |Pi'| = |Pi| holds to machine precision.
    """
    pi = so3.as_vec3(Pi)
    r_new, pi_new = _lp_left_core(params, R.m, pi, dt, ret)
    return Rotation(r_new), pi_new


def lie_poisson_right_step(
    params: RigidBodyParams,
    ret: TrivializedRetraction,
    R: Rotation,
    Pi: Vec3,
    dt: float,
) -> tuple[Rotation, Vec3]:
    """Right-lifted variant: Pi is the spatial momentum, returned unchanged.

    The body momentum R^T Pi enters the same momentum relation, so left and
    right variants trace the same attitude trajectory up to roundoff.
    """
    pi_spatial = so3.as_vec3(Pi)
    pi_body = mat_T_vec(R.m, pi_spatial)
    r_new, _ = _lp_left_core(params, R.m, pi_body, dt, ret)
    return Rotation(r_new), pi_spatial


# --- heavy top ---------------------------------------------------------------------------

# fixed-point iterations of the heavy-top solve before its Newton fallback
HEAVYTOP_FP_BUDGET = 25
_EXP = exp_retraction()
_CAYLEY = cayley_retraction()


def _heavytop_eval(
    inertia,
    pi: Vec3,
    gamma: Vec3,
    omega: Vec3,
    dt: float,
    z: Vec3,
    ret: TrivializedRetraction,
) -> tuple[Vec3, Vec3, Vec3, Vec3]:
    """Residual plus translation leg and transported momenta for one guess.

    Scalar kernels are evaluated once per call; the residual is the momentum
    relation of the semidirect-product scheme minus I Omega.  Written out on
    float locals; each cross product is spelled u1 v2 - u2 v1, u2 v0 - u0 v2,
    u0 v1 - u1 v0.
    """
    p0, p1, p2 = pi
    g0, g1, g2 = gamma
    o0, o1, o2 = omega
    z0, z1, z2 = z
    y0 = dt * o0
    y1 = dt * o1
    y2 = dt * o2

    if ret.tag == EXP_TAG:
        theta = math.sqrt(y0 * y0 + y1 * y1 + y2 * y2)
        a = _coeff_a(theta)
        b = _coeff_b(theta)
        s = _sinc(theta)
        # translation block d = J(y) z
        t0 = y1 * z2 - y2 * z1
        t1 = y2 * z0 - y0 * z2
        t2 = y0 * z1 - y1 * z0
        d0 = z0 + a * t0 + b * (y1 * t2 - y2 * t1)
        d1 = z1 + a * t1 + b * (y2 * t0 - y0 * t2)
        d2 = z2 + a * t2 + b * (y0 * t1 - y1 * t0)
        # lifted momentum Pi + Gamma x d
        q0 = p0 + (g1 * d2 - g2 * d1)
        q1 = p1 + (g2 * d0 - g0 * d2)
        q2 = p2 + (g0 * d1 - g1 * d0)
        # exp(-hat(y)) transports
        t0 = y1 * q2 - y2 * q1
        t1 = y2 * q0 - y0 * q2
        t2 = y0 * q1 - y1 * q0
        n0 = q0 - s * t0 + a * (y1 * t2 - y2 * t1)
        n1 = q1 - s * t1 + a * (y2 * t0 - y0 * t2)
        n2 = q2 - s * t2 + a * (y0 * t1 - y1 * t0)
        t0 = y1 * g2 - y2 * g1
        t1 = y2 * g0 - y0 * g2
        t2 = y0 * g1 - y1 * g0
        e0 = g0 - s * t0 + a * (y1 * t2 - y2 * t1)
        e1 = g1 - s * t1 + a * (y2 * t0 - y0 * t2)
        e2 = g2 - s * t2 + a * (y0 * t1 - y1 * t0)
        # momentum relation: J(y) Pi' + Q(y, z) Gamma' = I Omega
        t0 = y1 * n2 - y2 * n1
        t1 = y2 * n0 - y0 * n2
        t2 = y0 * n1 - y1 * n0
        j0 = n0 + a * t0 + b * (y1 * t2 - y2 * t1)
        j1 = n1 + a * t1 + b * (y2 * t0 - y0 * t2)
        j2 = n2 + a * t2 + b * (y0 * t1 - y1 * t0)
        da = _coeff_da(theta)
        db = _coeff_db(theta)
        ydz = y0 * z0 + y1 * z1 + y2 * z2
        sa = da * ydz
        sb = db * ydz
        # zv = z x Gamma', yv = y x Gamma'
        zv0 = z1 * e2 - z2 * e1
        zv1 = z2 * e0 - z0 * e2
        zv2 = z0 * e1 - z1 * e0
        yv0 = y1 * e2 - y2 * e1
        yv1 = y2 * e0 - y0 * e2
        yv2 = y0 * e1 - y1 * e0
        # Q Gamma' = a zv + b (y x zv + z x yv) + sa yv + sb y x yv
        l0 = j0 + (
            a * zv0
            + b * ((y1 * zv2 - y2 * zv1) + (z1 * yv2 - z2 * yv1))
            + (sa * yv0 + sb * (y1 * yv2 - y2 * yv1))
        )
        l1 = j1 + (
            a * zv1
            + b * ((y2 * zv0 - y0 * zv2) + (z2 * yv0 - z0 * yv2))
            + (sa * yv1 + sb * (y2 * yv0 - y0 * yv2))
        )
        l2 = j2 + (
            a * zv2
            + b * ((y0 * zv1 - y1 * zv0) + (z0 * yv1 - z1 * yv0))
            + (sa * yv2 + sb * (y0 * yv1 - y1 * yv0))
        )
    else:
        # normalized Cayley: w = y/2 throughout
        w0 = 0.5 * y0
        w1 = 0.5 * y1
        w2 = 0.5 * y2
        c = 1.0 / (1.0 + (w0 * w0 + w1 * w1 + w2 * w2))
        c2 = 2.0 * c
        wdz = w0 * z0 + w1 * z1 + w2 * z2
        # translation block d = (I - hat(w))^-1 z
        d0 = c * (z0 + (w1 * z2 - w2 * z1) + wdz * w0)
        d1 = c * (z1 + (w2 * z0 - w0 * z2) + wdz * w1)
        d2 = c * (z2 + (w0 * z1 - w1 * z0) + wdz * w2)
        # lifted momentum Pi + Gamma x d
        q0 = p0 + (g1 * d2 - g2 * d1)
        q1 = p1 + (g2 * d0 - g0 * d2)
        q2 = p2 + (g0 * d1 - g1 * d0)
        # Cay(hat(w))^T v = v - 2 c (w x v - w x (w x v))
        t0 = w1 * q2 - w2 * q1
        t1 = w2 * q0 - w0 * q2
        t2 = w0 * q1 - w1 * q0
        n0 = q0 - c2 * (t0 - (w1 * t2 - w2 * t1))
        n1 = q1 - c2 * (t1 - (w2 * t0 - w0 * t2))
        n2 = q2 - c2 * (t2 - (w0 * t1 - w1 * t0))
        t0 = w1 * g2 - w2 * g1
        t1 = w2 * g0 - w0 * g2
        t2 = w0 * g1 - w1 * g0
        e0 = g0 - c2 * (t0 - (w1 * t2 - w2 * t1))
        e1 = g1 - c2 * (t1 - (w2 * t0 - w0 * t2))
        e2 = g2 - c2 * (t2 - (w0 * t1 - w1 * t0))
        # momentum relation: c (I + hat(w)) (Pi' + z x Gamma'/2) = I Omega
        h0 = n0 + 0.5 * (z1 * e2 - z2 * e1)
        h1 = n1 + 0.5 * (z2 * e0 - z0 * e2)
        h2 = n2 + 0.5 * (z0 * e1 - z1 * e0)
        l0 = c * (h0 + (w1 * h2 - w2 * h1))
        l1 = c * (h1 + (w2 * h0 - w0 * h2))
        l2 = c * (h2 + (w0 * h1 - w1 * h0))

    (i00, i01, i02), (i10, i11, i12), (i20, i21, i22) = inertia
    res = (
        l0 - (i00 * o0 + i01 * o1 + i02 * o2),
        l1 - (i10 * o0 + i11 * o1 + i12 * o2),
        l2 - (i20 * o0 + i21 * o1 + i22 * o2),
    )
    return res, (d0, d1, d2), (n0, n1, n2), (e0, e1, e2)


def _solve_heavytop_omega(
    params: HeavyTopParams,
    pi: Vec3,
    gamma: Vec3,
    dt: float,
    z: Vec3,
    ret: TrivializedRetraction,
) -> tuple[Vec3, Vec3, Vec3, Vec3]:
    """Fixed-point iteration with a finite-difference Newton fallback.

    Returns (Omega, d, Pi', Gamma') from the evaluation at the converged Omega.
    A failure names the |dt*Omega| of the iterate it stopped at (the fixed-point
    one, or for a failed fallback the Newton one), then the gravity impulse
    |dt*m*g*chi|, which no iterate shows.
    """
    inertia = params.inertia
    (v00, v01, v02), (v10, v11, v12), (v20, v21, v22) = params.inertia_inv
    omega = mat_vec(params.inertia_inv, pi)
    try:
        for _ in range(HEAVYTOP_FP_BUDGET):
            res, d, pi_new, gamma_new = _heavytop_eval(inertia, pi, gamma, omega, dt, z, ret)
            r0, r1, r2 = res
            if max(abs(r0), abs(r1), abs(r2)) <= NEWTON_TOL:
                return omega, d, pi_new, gamma_new
            # Omega + I^-1 res
            omega = (
                omega[0] + (v00 * r0 + v01 * r1 + v02 * r2),
                omega[1] + (v10 * r0 + v11 * r1 + v12 * r2),
                omega[2] + (v20 * r0 + v21 * r1 + v22 * r2),
            )

        # stiff parameters: fall back to Newton on the same residual
        import numpy as np

        def residual(stack: np.ndarray) -> np.ndarray:
            return np.array([
                _heavytop_eval(inertia, pi, gamma, (row[0], row[1], row[2]), dt, z, ret)[0]
                for row in stack
            ])

        sol = newton_solve(residual, np.array(omega))
        omega = (float(sol[0]), float(sol[1]), float(sol[2]))
        _, d, pi_new, gamma_new = _heavytop_eval(inertia, pi, gamma, omega, dt, z, ret)
    except (GeomintError, ArithmeticError, ValueError) as exc:
        _name_iterate(exc, dt, getattr(exc, "iterate", None) or omega, params, pi)
        exc.args = (f"{exc.args[0]}; gravity impulse |dt*m*g*chi| = {math.hypot(*z):.6g}",)
        raise
    return omega, d, pi_new, gamma_new


def _heavytop_step(
    params: HeavyTopParams,
    state: HeavyTopState,
    dt: float,
    ret: TrivializedRetraction,
) -> HeavyTopState:
    pi, gamma = state.Pi, state.Gamma
    z = vec_scale(params.chi, dt * params.m * params.g)
    omega, d, pi_new, gamma_new = _solve_heavytop_omega(params, pi, gamma, dt, z, ret)
    y = vec_scale(omega, dt)
    if ret.tag == EXP_TAG:
        _check_exp_chart(norm(y))
    r_new = so3.mat_mul(state.R.m, ret.tau_matrix(y))
    x_new = vec_add(state.x, mat_vec(state.R.m, d))
    out = HeavyTopState(R=Rotation(r_new), x=x_new, Pi=pi_new, Gamma=gamma_new)
    # the transports conserve |Gamma|, so this also checks the input's |Gamma| = 1
    gn = norm(gamma_new)
    if abs(gn - 1.0) > 1e-9:
        raise ValueError(f"|Gamma| = {gn!r} not within 1e-9 of 1")
    return out


def heavytop_exp_step(
    params: HeavyTopParams,
    state: HeavyTopState,
    dt: float,
) -> HeavyTopState:
    """Exponential-map heavy-top step on the semidirect product.

    Conserves Pi . Gamma and |Gamma|^2 exactly (orthogonal transports with a
    Gamma-orthogonal momentum shift); with chi = 0 it reduces to the free
    rigid-body exponential step plus x' = x.  Raises ValueError unless
    |Gamma| = 1 to within 1e-9.
    """
    return _heavytop_step(params, state, dt, _EXP)


def heavytop_cay_step(
    params: HeavyTopParams,
    state: HeavyTopState,
    dt: float,
) -> HeavyTopState:
    """Cayley-map heavy-top step; both Casimirs are conserved exactly, |Gamma| = 1."""
    return _heavytop_step(params, state, dt, _CAYLEY)


# --- quadrotor ----------------------------------------------------------------------------

def quadrotor_step(
    params: QuadrotorParams,
    state: QuadrotorState,
    u: QuadrotorInput,
    dt: float,
    ret: TrivializedRetraction = exp_retraction(),
) -> QuadrotorState:
    """Forced rigid-body rotation plus symplectic-Euler translation.

    The rotational block is exactly the free left Lie-Poisson step with the
    retraction ``ret`` (bitwise, for M = 0) followed by the moment impulse
    Pi' += dt M.  The translation uses p' = p + dt (-m g e3 + F R e3) and
    q' = q + dt p'/m.
    """
    r_new, pi_new = _lp_left_core(params, state.R.m, state.Pi, dt, ret)
    if u.M != (0.0, 0.0, 0.0):
        pi_new = vec_add(pi_new, vec_scale(u.M, dt))

    r_mat = state.R.m
    thrust = (u.F * r_mat[0][2], u.F * r_mat[1][2], u.F * r_mat[2][2])
    mg = params.m * params.g
    p = state.p
    p_new = (
        p[0] + dt * thrust[0],
        p[1] + dt * thrust[1],
        p[2] + dt * (thrust[2] - mg),
    )
    inv_m = dt / params.m
    q = state.q
    q_new = (q[0] + inv_m * p_new[0], q[1] + inv_m * p_new[1], q[2] + inv_m * p_new[2])
    return QuadrotorState(R=Rotation(r_new), Pi=pi_new, q=q_new, p=p_new)


# --- quaternion RK4 baseline -----------------------------------------------------------------

def _quat_from_mat(m) -> tuple[float, float, float, float]:
    """Unit quaternion (w, x, y, z) from a rotation matrix (Shepperd)."""
    tr = m[0][0] + m[1][1] + m[2][2]
    if tr > 0.0:
        s = math.sqrt(tr + 1.0) * 2.0
        return (
            0.25 * s,
            (m[2][1] - m[1][2]) / s,
            (m[0][2] - m[2][0]) / s,
            (m[1][0] - m[0][1]) / s,
        )
    if m[0][0] >= m[1][1] and m[0][0] >= m[2][2]:
        s = math.sqrt(1.0 + m[0][0] - m[1][1] - m[2][2]) * 2.0
        return (
            (m[2][1] - m[1][2]) / s,
            0.25 * s,
            (m[0][1] + m[1][0]) / s,
            (m[0][2] + m[2][0]) / s,
        )
    if m[1][1] >= m[2][2]:
        s = math.sqrt(1.0 + m[1][1] - m[0][0] - m[2][2]) * 2.0
        return (
            (m[0][2] - m[2][0]) / s,
            (m[0][1] + m[1][0]) / s,
            0.25 * s,
            (m[1][2] + m[2][1]) / s,
        )
    s = math.sqrt(1.0 + m[2][2] - m[0][0] - m[1][1]) * 2.0
    return (
        (m[1][0] - m[0][1]) / s,
        (m[0][2] + m[2][0]) / s,
        (m[1][2] + m[2][1]) / s,
        0.25 * s,
    )


def _mat_from_quat(q: tuple[float, float, float, float]):
    w, x, y, z = q
    return (
        (
            1.0 - 2.0 * (y * y + z * z),
            2.0 * (x * y - w * z),
            2.0 * (x * z + w * y),
        ),
        (
            2.0 * (x * y + w * z),
            1.0 - 2.0 * (x * x + z * z),
            2.0 * (y * z - w * x),
        ),
        (
            2.0 * (x * z - w * y),
            2.0 * (y * z + w * x),
            1.0 - 2.0 * (x * x + y * y),
        ),
    )


def _quat_kinematics(q, omega: Vec3):
    """q_dot = q * (0, omega) / 2 for body angular velocity omega."""
    w, x, y, z = q
    ox, oy, oz = omega
    return (
        0.5 * (-x * ox - y * oy - z * oz),
        0.5 * (w * ox + y * oz - z * oy),
        0.5 * (w * oy + z * ox - x * oz),
        0.5 * (w * oz + x * oy - y * ox),
    )


def _rk4_baseline(name: str, params, state, a0, rate, dt: float) -> list[float]:
    """Classical RK4 on one flat float sequence, the one stage loop of both baselines.

    The sequence is the attitude coordinates ``a0`` with a_dot = rate(a, Omega),
    then Pi, then Gamma for a HeavyTopState; the momenta follow Euler's
    equations, with gravity and the advected vertical for the heavy top.  The
    derivative is written out on float locals in the operation order of
    so3.mat_vec, cross and vec_add.  Returns the advanced sequence; ``name``
    is the integrator's, for the failure message of ``_blame_stages``.
    """
    (v00, v01, v02), (v10, v11, v12), (v20, v21, v22) = params.inertia_inv
    na = len(a0)
    heavy = isinstance(state, HeavyTopState)
    if heavy:
        f0, f1, f2 = vec_scale(params.chi, params.m * params.g)
        y0 = [*a0, *state.Pi, *state.Gamma]
    else:
        y0 = [*a0, *state.Pi]

    def derivative(y):
        p0, p1, p2 = y[na:na + 3]
        o0 = v00 * p0 + v01 * p1 + v02 * p2
        o1 = v10 * p0 + v11 * p1 + v12 * p2
        o2 = v20 * p0 + v21 * p1 + v22 * p2
        # Pi x Omega
        d0 = p1 * o2 - p2 * o1
        d1 = p2 * o0 - p0 * o2
        d2 = p0 * o1 - p1 * o0
        try:
            k = rate(y[:na], (o0, o1, o2))
        except OutOfChart:
            _blame_stages(name, y[:na], y[na:na + 3], params, state, dt)
            raise
        if not heavy:
            return (*k, d0, d1, d2)
        g0, g1, g2 = y[na + 3:]
        # Pi x Omega + Gamma x (m g chi), then Gamma x Omega
        return (*k, d0 + (g1 * f2 - g2 * f1), d1 + (g2 * f0 - g0 * f2), d2 + (g0 * f1 - g1 * f0),
                g1 * o2 - g2 * o1, g2 * o0 - g0 * o2, g0 * o1 - g1 * o0)

    h = 0.5 * dt
    k1 = derivative(y0)
    k2 = derivative([y + h * k for y, k in zip(y0, k1)])
    k3 = derivative([y + h * k for y, k in zip(y0, k2)])
    k4 = derivative([y + dt * k for y, k in zip(y0, k3)])
    w = dt / 6.0
    return [y + w * (a + 2.0 * b + 2.0 * c + d) for y, a, b, c, d in zip(y0, k1, k2, k3, k4)]


def _blame_stages(name: str, attitude, stage_pi, params, state, dt: float) -> None:
    """On a baseline step's failure path: raise ValueError naming Pi if the RK4
    stages overflowed it, else the step's rate if they overflowed the attitude."""
    if not so3.vec_is_finite(stage_pi):
        raise ValueError(f"Pi = {state.Pi} overflowed in the RK4 stages to {tuple(stage_pi)}")
    if not math.isfinite(math.sqrt(sum(a * a for a in attitude))):
        rate = dt * math.hypot(*mat_vec(params.inertia_inv, state.Pi))  # hypot: no overflow
        raise ValueError(
            f"{name}: the step's |dt*Omega| = {rate:.6g} overflowed the attitude in its RK4 stages"
        )


def _baseline_state(state, r_new: Rotation, momenta):
    """State of the input's type from the new attitude and the flat RK4 momenta."""
    if isinstance(state, HeavyTopState):
        return HeavyTopState(R=r_new, x=state.x, Pi=momenta[:3], Gamma=momenta[3:])
    return RigidBodyState(R=r_new, Pi=momenta)


def quat_rk4_step(params, state, dt: float):
    """Classical RK4 on quaternion attitude plus momenta, renormalized.

    Accepts a RigidBodyState with RigidBodyParams or a HeavyTopState with
    HeavyTopParams.  The quaternion leads the sequence that ``_rk4_baseline``
    advances and is renormalized after the step, so the returned attitude is
    orthogonal by construction; the momenta follow the plain RK4 stages and
    their Casimirs drift over long runs.
    """
    y = _rk4_baseline("quat_rk4", params, state, _quat_from_mat(state.R.m), _quat_kinematics, dt)
    q = y[:4]
    qn = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    q = (q[0] / qn, q[1] / qn, q[2] / qn, q[3] / qn)
    try:
        r_new = Rotation(_mat_from_quat(q))
    except NotRotation:
        _blame_stages("quat_rk4", y[:4], y[4:7], params, state, dt)
        raise
    return _baseline_state(state, r_new, y[4:])


# --- Runge-Kutta-Munthe-Kaas baseline ----------------------------------------------------------

def _dexpinv_apply(u: Vec3, k: Vec3) -> Vec3:
    """dexpinv_u(k) = k - [u,k]/2 + c2(|u|) [u,[u,k]] with the cot kernel.

    The kernel is valid only for |u| < 2 pi; outside that ball (or for a
    non-finite u) raises OutOfChart.  Written out on float locals in the
    operation order of so3.norm and cross.
    """
    (u0, u1, u2), (k0, k1, k2) = u, k
    theta = math.sqrt(u0 * u0 + u1 * u1 + u2 * u2)
    if not theta < 2.0 * math.pi:
        raise OutOfChart(
            f"rkmk4 increment |u| = {theta:.6g} >= 2*pi = {2.0 * math.pi:.6g}; "
            "the dexpinv kernel is singular there"
        )
    if theta < 0.1:
        t2 = theta * theta
        c2 = 1.0 / 12.0 + t2 / 720.0 + t2 * t2 / 30240.0 + t2 * t2 * t2 / 1209600.0
    else:
        half = 0.5 * theta
        c2 = (1.0 - half * math.cos(half) / math.sin(half)) / (theta * theta)
    # [u,k] = u x k, and [u,[u,k]] = u x (u x k)
    x0 = u1 * k2 - u2 * k1
    x1 = u2 * k0 - u0 * k2
    x2 = u0 * k1 - u1 * k0
    return (
        k0 - 0.5 * x0 + c2 * (u1 * x2 - u2 * x1),
        k1 - 0.5 * x1 + c2 * (u2 * x0 - u0 * x2),
        k2 - 0.5 * x2 + c2 * (u0 * x1 - u1 * x0),
    )


def rkmk4_step(params, state, dt: float):
    """Runge-Kutta-Munthe-Kaas step: RK4 in the algebra, exp reconstruction.

    Solves u_dot = dexpinv_u(Omega), u(0) = 0 leading the sequence that
    ``_rk4_baseline`` advances, and maps back with R' = R exp(hat(u)); a stage
    at |u| >= 2 pi raises OutOfChart.  The group constraint holds to roundoff,
    energy and Casimirs do not.  Measured orders: 4 for the momenta, 2 for the
    attitude, whose left reconstruction needs dexpinv at -u (ROADMAP item 13).
    """
    y = _rk4_baseline("rkmk4", params, state, (0.0, 0.0, 0.0), _dexpinv_apply, dt)
    r_new = Rotation(so3.mat_mul(state.R.m, so3._exp_matrix(y[:3])))
    return _baseline_state(state, r_new, y[3:])
