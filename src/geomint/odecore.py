"""Classical one-step integrators on flat state spaces.

Euler variants, symplectic Euler A/B, Runge-Kutta with Butcher tableaux,
partitioned Runge-Kutta (including Stormer-Verlet), order-condition and
symplectic-coefficient checkers, and the Newton solver used by every
implicit relation in the library.

For the harmonic oscillator with k/m = lambda^2 the one-step maps are linear
and reproduce the familiar update matrices:

    explicit Euler   [[1, h], [-h k/m, 1]]            det = 1 + h^2 k/m
    implicit Euler   (I - hA)^-1                      det = 1/(1 + h^2 k/m)
    symplectic A     [[1 - h^2 k/m, h], [-h k/m, 1]]  det = 1
    symplectic B     [[1, h], [-h k/m, 1 - h^2 k/m]]  det = 1

The symplectic variants satisfy S^T J S = J with J = [[0, 1], [-1, 0]].
Implicit stage systems are solved as one stacked Newton system rather than
stage-by-stage sweeps; symplectic Euler A/B are implemented directly because
the direct form is explicit for separable systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import NoConvergence, SingularJacobian

# numpy is imported inside the functions that use it, so that importing geomint
# never loads it; hence the string annotations
VectorField = Callable[["np.ndarray"], "np.ndarray"]
SplitField = Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]


# the stopping rule of every implicit relation in the library: residual
# inf-norm at most NEWTON_TOL within NEWTON_MAX_ITER iterations
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# step of the central-difference Jacobian in newton_solve
FD_STEP = 1e-7


@dataclass(frozen=True)
class ButcherTableau:
    """Runge-Kutta coefficients (a_ij, b_i); square a, len(b) stages."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        import numpy as np

        a = np.atleast_2d(np.array(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"stage matrix must be square, got {a.shape}")
        if b.shape != (a.shape[0],):
            raise ValueError("len(b) must equal the stage count")
        # a is a read-only copy, so the explicit flag computed here stays true
        a.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_explicit", bool(np.all(np.triu(a) == 0.0)))

    @property
    def stages(self) -> int:
        return len(self.b)

    def is_explicit(self) -> bool:
        return self._explicit


@dataclass(frozen=True)
class PartitionedTableau:
    """Coefficient pair (a, b) for q-stages and (a_hat, b_hat) for p-stages."""

    a: np.ndarray
    b: np.ndarray
    a_hat: np.ndarray
    b_hat: np.ndarray

    def __post_init__(self):
        import numpy as np

        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        ah = np.atleast_2d(np.asarray(self.a_hat, dtype=float))
        bh = np.atleast_1d(np.asarray(self.b_hat, dtype=float))
        s = len(b)
        if a.shape != (s, s) or ah.shape != (s, s) or bh.shape != (s,):
            raise ValueError("inconsistent partitioned tableau dimensions")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a_hat", ah)
        object.__setattr__(self, "b_hat", bh)

    @property
    def stages(self) -> int:
        return len(self.b)


# --- stock tableaux -----------------------------------------------------------

def explicit_euler_tableau() -> ButcherTableau:
    return ButcherTableau(a=[[0.0]], b=[1.0])


def implicit_euler_tableau() -> ButcherTableau:
    return ButcherTableau(a=[[1.0]], b=[1.0])


def rk2_midpoint_tableau() -> ButcherTableau:
    return ButcherTableau(a=[[0.0, 0.0], [0.5, 0.0]], b=[0.0, 1.0])


def rk4_tableau() -> ButcherTableau:
    return ButcherTableau(
        a=[
            [0.0, 0.0, 0.0, 0.0],
            [0.5, 0.0, 0.0, 0.0],
            [0.0, 0.5, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
        ],
        b=[1.0 / 6.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 6.0],
    )


def symplectic_euler_tableau() -> PartitionedTableau:
    return PartitionedTableau(a=[[0.0]], b=[1.0], a_hat=[[1.0]], b_hat=[1.0])


def stormer_verlet_tableau() -> PartitionedTableau:
    """The Stormer-Verlet pair: trapezoidal q-stages, half-step p-stages.

    This a-matrix (row two = (1/2, 1/2)) is the one satisfying the
    symplecticity conditions; the variant with row two = (1, 0) produces the
    same step on separable systems but fails the coefficient test.
    """
    return PartitionedTableau(
        a=[[0.0, 0.0], [0.5, 0.5]],
        b=[0.5, 0.5],
        a_hat=[[0.5, 0.0], [0.5, 0.0]],
        b_hat=[0.5, 0.5],
    )


# --- Newton solver -------------------------------------------------------------

def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
) -> np.ndarray:
    """Root of residual(x) = 0 by Newton with a central-difference Jacobian.

    Raises NoConvergence when the inf-norm stays above NEWTON_TOL after
    NEWTON_MAX_ITER iterations, SingularJacobian when the finite-difference
    Jacobian cannot be inverted.
    """
    import numpy as np

    x = np.array(x0, dtype=float)
    n = x.size
    h = FD_STEP
    tol = NEWTON_TOL
    # rows x + h e_i, then x - h e_i; the -0.0 off the diagonal of -hI keeps
    # each point bitwise equal to x - h e_i, signed zeros included
    shift = h * np.eye(n)
    shifts = np.concatenate([shift, -shift])
    r = np.asarray(residual(x), dtype=float)
    for _ in range(NEWTON_MAX_ITER):
        # false for a nan entry, as the inf-norm test would be
        if all(abs(v) <= tol for v in r.tolist()):
            return x
        vals = np.array([residual(pt) for pt in x + shifts], dtype=float)
        jac = ((vals[:n] - vals[n:]) / (2.0 * h)).T
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not all(map(math.isfinite, step.tolist())):
            raise SingularJacobian("non-finite Newton step")
        x = x - step
        r = np.asarray(residual(x), dtype=float)
    if all(abs(v) <= tol for v in r.tolist()):
        return x
    raise NoConvergence(NEWTON_MAX_ITER, float(np.max(np.abs(r))))


# --- Euler family ---------------------------------------------------------------

def explicit_euler_step(f: VectorField, x: np.ndarray, h: float) -> np.ndarray:
    """x + h f(x)."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    return x + h * np.asarray(f(x), dtype=float)


def implicit_euler_step(
    f: VectorField,
    x: np.ndarray,
    h: float,
) -> np.ndarray:
    """Solve x' = x + h f(x') by Newton from the initial guess x."""
    import numpy as np

    x = np.asarray(x, dtype=float)
    xs = x.tolist()

    def residual(y: np.ndarray) -> np.ndarray:
        # raveled, since a field may return a scalar on a one-dimensional state
        fy = np.asarray(f(y), dtype=float).ravel().tolist()
        return np.array([a - b - h * c for a, b, c in zip(y.tolist(), xs, fy)])

    return newton_solve(residual, x)


def symplectic_euler_a_step(
    f1: SplitField,
    f2: SplitField,
    q: np.ndarray,
    v: np.ndarray,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """q' = q + h f1(q, v'), v' = v + h f2(q, v').

    The v-equation is implicit in v' alone (a single Newton pass, explicit
    whenever f2 drops its v-dependence); q' then follows explicitly.
    """
    import numpy as np

    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    vs = v.tolist()

    def residual(w: np.ndarray) -> np.ndarray:
        g = np.asarray(f2(q, w), dtype=float).ravel().tolist()
        return np.array([a - b - h * c for a, b, c in zip(w.tolist(), vs, g)])

    v_new = newton_solve(residual, v)
    q_new = q + h * np.asarray(f1(q, v_new), dtype=float)
    return q_new, v_new


def symplectic_euler_b_step(
    f1: SplitField,
    f2: SplitField,
    q: np.ndarray,
    v: np.ndarray,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """q' = q + h f1(q', v), v' = v + h f2(q', v); mirror image of variant A."""
    import numpy as np

    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=float)
    qs = q.tolist()

    def residual(w: np.ndarray) -> np.ndarray:
        g = np.asarray(f1(w, v), dtype=float).ravel().tolist()
        return np.array([a - b - h * c for a, b, c in zip(w.tolist(), qs, g)])

    q_new = newton_solve(residual, q)
    v_new = v + h * np.asarray(f2(q_new, v), dtype=float)
    return q_new, v_new


# --- Runge-Kutta -----------------------------------------------------------------

def rk_step(
    tab: ButcherTableau,
    f: VectorField,
    x: np.ndarray,
    h: float,
) -> np.ndarray:
    """One s-stage Runge-Kutta step x' = x + h sum b_i k_i.

    Strictly lower-triangular tableaux run explicitly; otherwise all stage
    slopes are solved as a single stacked Newton system.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    s = tab.stages
    n = x.size
    a, b = tab.a, tab.b

    if tab.is_explicit():
        k = np.empty((s, n))
        for i in range(s):
            xi = x + h * (a[i, :i] @ k[:i]) if i else x
            k[i] = np.asarray(f(xi), dtype=float)
        return x + h * (b @ k)

    def residual(flat: np.ndarray) -> np.ndarray:
        k = flat.reshape(s, n)
        out = np.empty_like(k)
        for i in range(s):
            out[i] = k[i] - np.asarray(f(x + h * (a[i] @ k)), dtype=float)
        return out.ravel()

    guess = np.tile(np.asarray(f(x), dtype=float), s)
    k = newton_solve(residual, guess).reshape(s, n)
    return x + h * (b @ k)


def prk_step(
    ptab: PartitionedTableau,
    f1: SplitField,
    f2: SplitField,
    q: np.ndarray,
    p: np.ndarray,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Partitioned Runge-Kutta step with tableaux (a, b) for q, (a_hat, b_hat) for p.

    Stage slopes k_i = f1(Q_i, P_i) and l_i = f2(Q_i, P_i) with
    Q_i = q + h sum_j a_ij k_j and P_i = p + h sum_j a_hat_ij l_j are solved
    jointly by one stacked Newton iteration.
    """
    import numpy as np

    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    s = ptab.stages
    n = q.size
    sn = s * n
    qs, ps = q.tolist(), p.tolist()
    rows, rows_hat = ptab.a.tolist(), ptab.a_hat.tolist()
    # one stage point per distinct row: rows may repeat, as Stormer-Verlet's two
    # a_hat rows do.  Rows equal up to the sign of a zero give the same point,
    # since a stage sum starts at +0.0 and so never becomes -0.0.
    q_rows = list(dict.fromkeys(map(tuple, rows)))
    p_rows = list(dict.fromkeys(map(tuple, rows_hat)))
    stages = [
        (q_rows.index(tuple(row)), p_rows.index(tuple(row_hat)))
        for row, row_hat in zip(rows, rows_hat)
    ]
    # where slope j of k, and of l, starts in the flat unknown (k_1..k_s, l_1..l_s)
    k_starts = [j * n for j in range(s)]
    l_starts = [sn + j * n for j in range(s)]

    def residual(flat: np.ndarray) -> np.ndarray:
        v = flat.tolist()
        qpts = [np.array(_stage_point(qs, h, row, v, k_starts)) for row in q_rows]
        ppts = [np.array(_stage_point(ps, h, row, v, l_starts)) for row in p_rows]
        fk, fl = [], []
        for i, j in stages:
            fk.append(f1(qpts[i], ppts[j]))
            fl.append(f2(qpts[i], ppts[j]))
        return flat - np.concatenate(fk + fl, axis=None, dtype=float)

    guess = np.array(
        np.asarray(f1(q, p), dtype=float).ravel().tolist() * s
        + np.asarray(f2(q, p), dtype=float).ravel().tolist() * s
    )
    sol = newton_solve(residual, guess)
    k = sol[:sn].reshape(s, n)
    l = sol[sn:].reshape(s, n)
    return q + h * (ptab.b @ k), p + h * (ptab.b_hat @ l)


def _stage_point(x: list, h: float, row: list, v: list, starts: list) -> list:
    """x + h sum_j row[j] k_j on floats, where k_j[m] is v[starts[j] + m].

    Each sum starts at +0.0 and adds the products in stage order, as numpy's
    gemv does for row @ k.  The two agree bit for bit when every product is
    exact (coefficients such as 0, 1/2 and 1, slopes not subnormal) and there
    are at most three stages; otherwise they may differ at roundoff.
    """
    out = []
    for m, xm in enumerate(x):
        acc = 0.0
        for c, start in zip(row, starts):
            acc += c * v[start + m]
        out.append(xm + h * acc)
    return out


# --- coefficient checkers ---------------------------------------------------------

def check_order_conditions(tab: ButcherTableau, order: int) -> bool:
    """True when the tableau meets every order condition up to the given order.

    Order 1: sum b = 1.  Order 2: sum_i b_i (sum_j a_ij) = 1/2.  Order 3:
    sum_i b_i (sum_j a_ij)^2 = 1/3 and sum_ij b_i a_ij (sum_k a_jk) = 1/6.
    Conditions beyond order 3 are out of scope.
    """
    if order not in (1, 2, 3):
        raise ValueError("order must be 1, 2 or 3")
    a, b = tab.a, tab.b
    c = a.sum(axis=1)
    tol = 1e-12
    if abs(b.sum() - 1.0) > tol:
        return False
    if order >= 2 and abs(b @ c - 0.5) > tol:
        return False
    if order >= 3:
        if abs(b @ (c * c) - 1.0 / 3.0) > tol:
            return False
        if abs(b @ (a @ c) - 1.0 / 6.0) > tol:
            return False
    return True


def check_symplectic_prk(ptab: PartitionedTableau) -> bool:
    """Check b_i a_hat_ij + b_hat_j a_ji - b_i b_hat_j = 0 and b = b_hat."""
    import numpy as np

    a, b, ah, bh = ptab.a, ptab.b, ptab.a_hat, ptab.b_hat
    tol = 1e-12
    if np.max(np.abs(b - bh)) > tol:
        return False
    # element (i, j): b_i a_hat_ij + b_hat_j a_ji - b_i b_hat_j
    coupling = b[:, None] * ah + a.T * bh[None, :] - np.outer(b, bh)
    return bool(np.max(np.abs(coupling)) <= tol)
