"""Fast invariant self-tests behind the ``geomint check`` subcommand.

Each check prints one PASS/FAIL line; the suite returns a nonzero exit code
if anything fails.  These are the same oracles the test suite runs, sized to
finish in well under a second.
"""

from __future__ import annotations

import random

import numpy as np

from . import odecore as ode
from . import so3
from .integrators import cotangent_theta_step
from .so3 import (
    cay_inv_so3,
    cay_so3,
    dcay_dual_matrix,
    dexp_dual_matrix,
    dot,
    exp_so3,
    log_so3,
    mat_mul,
    mat_transpose,
    mat_vec,
    vec_add,
    vec_scale,
    vec_sub,
)


def _fd_dlog(tau_matrix, y, eta, h=1e-5):
    """Left logarithmic derivative of a matrix map by central differences."""
    yp = tau_matrix(vec_add(y, vec_scale(eta, h)))
    ym = tau_matrix(vec_sub(y, vec_scale(eta, h)))
    diff = tuple(
        tuple((yp[i][j] - ym[i][j]) / (2.0 * h) for j in range(3)) for i in range(3)
    )
    return so3._vee_unchecked(mat_mul(mat_transpose(tau_matrix(y)), diff))


def _check_dual_pairings() -> bool:
    rng = random.Random(1234)
    for _ in range(30):
        y = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        mu = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        eta = tuple(rng.uniform(-2.0, 2.0) for _ in range(3))
        lhs = dot(mat_vec(dexp_dual_matrix(y), mu), eta)
        rhs = dot(mu, _fd_dlog(so3._exp_matrix, y, eta))
        if abs(lhs - rhs) > 1e-6:
            return False
        mat, s = dcay_dual_matrix(y)
        lhs = dot(vec_scale(mat_vec(mat, mu), 1.0 / s), eta)
        rhs = dot(mu, _fd_dlog(so3._cay_matrix, y, eta))
        if abs(lhs - rhs) > 1e-6:
            return False
    return True


def _check_round_trips() -> bool:
    rng = random.Random(99)
    for _ in range(50):
        v = tuple(rng.uniform(-1.5, 1.5) for _ in range(3))
        back = log_so3(exp_so3(v))
        if max(abs(back[i] - v[i]) for i in range(3)) > 1e-10:
            return False
        back = cay_inv_so3(cay_so3(v))
        if max(abs(back[i] - v[i]) for i in range(3)) > 1e-10:
            return False
    return True


def _check_theta_endpoints() -> bool:
    f1 = lambda q, v: np.asarray(v, dtype=float)
    f2 = lambda q, v: -np.asarray(q, dtype=float)
    q = np.array([1.0])
    p = np.array([0.4])
    qa, pa = ode.symplectic_euler_a_step(f1, f2, q, p, 0.1)
    q0, p0 = cotangent_theta_step(f1, f2, q, p, 0.1, 0.0)
    qb, pb = ode.symplectic_euler_b_step(f1, f2, q, p, 0.1)
    q1, p1 = cotangent_theta_step(f1, f2, q, p, 0.1, 1.0)
    return (
        float(qa[0]) == float(q0[0])
        and float(pa[0]) == float(p0[0])
        and float(qb[0]) == float(q1[0])
        and float(pb[0]) == float(p1[0])
    )


def _check_order_conditions() -> bool:
    euler = ode.explicit_euler_tableau()
    rk4 = ode.rk4_tableau()
    bad = ode.ButcherTableau(a=[[0.0, 0.0], [0.5, 0.0]], b=[0.4, 0.4])
    return (
        ode.check_order_conditions(euler, 1)
        and not ode.check_order_conditions(euler, 2)
        and all(ode.check_order_conditions(rk4, k) for k in (1, 2, 3))
        and not ode.check_order_conditions(bad, 1)
    )


def _check_symplectic_prk() -> bool:
    good_a = ode.symplectic_euler_tableau()
    good_b = ode.stormer_verlet_tableau()
    midpoint = ode.rk2_midpoint_tableau()
    bad = ode.PartitionedTableau(
        a=midpoint.a, b=midpoint.b, a_hat=midpoint.a, b_hat=midpoint.b
    )
    return (
        ode.check_symplectic_prk(good_a)
        and ode.check_symplectic_prk(good_b)
        and not ode.check_symplectic_prk(bad)
    )


CHECKS = [
    ("dexp/dcay dual pairing vs finite differences", _check_dual_pairings),
    ("exp/log and cay round trips", _check_round_trips),
    ("theta-family endpoints equal symplectic Euler A/B", _check_theta_endpoints),
    ("order-condition checker accept/reject", _check_order_conditions),
    ("symplectic-PRK checker accept/reject", _check_symplectic_prk),
]


def run_checks() -> int:
    failures = 0
    for name, check in CHECKS:
        try:
            ok = check()
        except Exception as exc:  # a crashed check is a failed check
            ok = False
            name = f"{name} ({exc})"
        print(f"[{'PASS' if ok else 'FAIL'}] {name}")
        if not ok:
            failures += 1
    return 1 if failures else 0
