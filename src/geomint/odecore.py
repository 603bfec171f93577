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
Explicit and implicit Euler are the theta map at theta = 0 and 1, and
symplectic Euler B is variant A with q and p swapped.  Implicit stage systems
are solved as one stacked Newton system rather than stage-by-stage sweeps.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

from .errors import GeomintError, NoConvergence, SingularJacobian
from .value import Value, store

# numpy is imported inside the functions that use it, so that importing geomint
# never loads it; hence the string annotations.  A field takes a stack of points
# along the last axis: an (m, n) array, one point per row, maps to the (m, n)
# array of its values, a single point of shape (n,) to shape (n,), and further
# leading axes pass through.  Fields broadcast like numpy ufuncs, so a split
# field may pair a single q with a stack of v; for n = 1 it may return one value
# per point, without the last axis.  Handed only stacks, a field must return one
# row per point: the implicit schemes raise ValueError on other leading axes,
# which a field written for a single point (one that reads x[0]) gives.
VectorField = Callable[["np.ndarray"], "np.ndarray"]
SplitField = Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]


# the stopping rule of every implicit relation in the library: residual
# inf-norm at most NEWTON_TOL within NEWTON_MAX_ITER iterations
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50
# step of the central-difference Jacobian in newton_solve
FD_STEP = 1e-7


class _Coefficients(Value):
    """A Value over coefficient arrays: == compares them entry by entry.

    Unhashable on purpose: == calls 0.0 and -0.0 equal, which a hash of the
    array bytes would not.
    """

    __slots__ = ()
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return all(
                a.shape == b.shape and bool((a == b).all())
                for a, b in zip(self._astuple(), other._astuple())
            )
        return NotImplemented


class ButcherTableau(_Coefficients):
    """Runge-Kutta coefficients (a_ij, b_i); square a, len(b) stages."""

    __slots__ = ("a", "b", "_explicit")
    _fields = ("a", "b")

    def __init__(self, a: np.ndarray, b: np.ndarray):
        import numpy as np

        a = np.atleast_2d(np.array(a, dtype=float))
        b = np.atleast_1d(np.asarray(b, dtype=float))
        if a.shape[0] != a.shape[1]:
            raise ValueError(f"stage matrix must be square, got {a.shape}")
        if b.shape != (a.shape[0],):
            raise ValueError("len(b) must equal the stage count")
        # a is a read-only copy, so the explicit flag computed here stays true
        a.flags.writeable = False
        store(self, "a", a)
        store(self, "b", b)
        store(self, "_explicit", bool(np.all(np.triu(a) == 0.0)))

    @property
    def stages(self) -> int:
        return len(self.b)

    def is_explicit(self) -> bool:
        return self._explicit


class PartitionedTableau(_Coefficients):
    """Coefficient pair (a, b) for q-stages and (a_hat, b_hat) for p-stages."""

    __slots__ = ("a", "b", "a_hat", "b_hat", "_columns")
    _fields = ("a", "b", "a_hat", "b_hat")

    def __init__(self, a: np.ndarray, b: np.ndarray, a_hat: np.ndarray, b_hat: np.ndarray):
        import numpy as np

        a = np.atleast_2d(np.array(a, dtype=float))
        b = np.atleast_1d(np.array(b, dtype=float))
        ah = np.atleast_2d(np.array(a_hat, dtype=float))
        bh = np.atleast_1d(np.array(b_hat, dtype=float))
        s = len(b)
        if a.shape != (s, s) or ah.shape != (s, s) or bh.shape != (s,):
            raise ValueError("inconsistent partitioned tableau dimensions")
        # column j of a and of a_hat, shaped (2, s, 1) against prk_step's slopes
        # (m, 2, 1, n); all arrays are read-only copies, so the columns stay true
        columns = tuple(np.array([a[:, j], ah[:, j]])[:, :, None] for j in range(s))
        for arr in (a, b, ah, bh, *columns):
            arr.flags.writeable = False
        store(self, "a", a)
        store(self, "b", b)
        store(self, "a_hat", ah)
        store(self, "b_hat", bh)
        store(self, "_columns", columns)

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

    The residual maps an (m, n) stack of points, one point per row, to the
    (m, n) stack of their residuals.  Each iteration calls it once, on the
    2n + 1 rows x, x + h e_1 .. x + h e_n, x - h e_1 .. x - h e_n: row 0 gives
    the convergence test and the other 2n the whole Jacobian.  A solve that
    converges after k updates makes k + 1 calls; one that does not makes a
    last single-row call at its final iterate for the reported residual.

    The difference points of the accepted iterate are evaluated too and their
    values discarded.  When the stacked call raises a GeomintError or an
    ArithmeticError, x alone is evaluated: a root is returned, so a residual
    that raises within FD_STEP of its root does not fail the solve, and
    otherwise the exception propagates.  A ValueError, as from a field that
    maps a stack to one row, always propagates.

    Raises NoConvergence when the inf-norm stays above NEWTON_TOL after
    NEWTON_MAX_ITER iterations, SingularJacobian when the finite-difference
    Jacobian cannot be inverted.
    """
    import numpy as np

    x = np.array(x0, dtype=float)
    n = x.size
    offsets = _newton_offsets(n)
    tol = NEWTON_TOL
    for _ in range(NEWTON_MAX_ITER):
        try:
            vals = np.asarray(residual(x + offsets), dtype=float)
        except (GeomintError, ArithmeticError):
            r = np.asarray(residual(x[None]), dtype=float)[0]
            if all(abs(v) <= tol for v in r.tolist()):
                return x
            raise
        r = vals[0]
        # false for a nan entry, as the inf-norm test would be
        if all(abs(v) <= tol for v in r.tolist()):
            return x
        jac = ((vals[1:n + 1] - vals[n + 1:]) / (2.0 * FD_STEP)).T
        try:
            step = np.linalg.solve(jac, r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(str(exc)) from exc
        if not all(map(math.isfinite, step.tolist())):
            raise SingularJacobian("non-finite Newton step")
        x = x - step
    r = np.asarray(residual(x[None]), dtype=float)[0]
    if all(abs(v) <= tol for v in r.tolist()):
        return x
    raise NoConvergence(NEWTON_MAX_ITER, float(np.max(np.abs(r))))


@functools.lru_cache(maxsize=32)
def _newton_offsets(n: int) -> np.ndarray:
    """The read-only (2n + 1, n) rows [-0.0; hI; -hI] that newton_solve adds to x.

    Row 0 is -0.0, which leaves every entry of x bitwise as it is, -0.0
    included (+0.0 would turn it into +0.0); the -0.0 off the diagonal of -hI
    keeps each point bitwise equal to x - h e_i.  Built once per n.
    """
    import numpy as np

    shift = FD_STEP * np.eye(n)
    offsets = np.concatenate([np.full((1, n), -0.0), shift, -shift])
    offsets.flags.writeable = False
    return offsets


def _values(values, stack: np.ndarray) -> np.ndarray:
    """A field's values on a stack of points, as an array that broadcasts to it.

    On one-dimensional states a field may return one value per point, without
    the last axis, which gets it back here.  Other values pass as they are, so
    a field that ignores a stacked argument may return a single point.
    """
    import numpy as np

    values = np.asarray(values, dtype=float)
    if stack.shape[-1] == 1 and values.ndim < stack.ndim:
        return values[..., None]
    return values


def _row_values(values, stack: np.ndarray) -> np.ndarray:
    """_values for a field whose every argument is the stack: one row per point.

    A field written for a single point (say one that reads x[0]) maps a stack
    to its first row, which would broadcast to every point and give a wrong
    Jacobian without a word; it is rejected here.  Where one argument of a
    split field is a single point (symplectic Euler), a single row of values
    is legitimate and _values applies instead.
    """
    values = _values(values, stack)
    if values.shape[:-1] != stack.shape[:-1]:
        raise ValueError(
            f"a field mapped a stack of shape {stack.shape} to values of shape "
            f"{values.shape}; fields map an (m, n) stack of points to (m, n) values"
        )
    return values


# --- the theta map and the Euler family ------------------------------------------

def _theta_solve(g, x: np.ndarray, h: float, c, w) -> np.ndarray:
    """Root x' of x' = x + h g(c + w x') by Newton from x; g gives one row per point.

    Shared by the theta map and its cotangent lift, integrators.cotangent_theta_step.
    """

    def residual(y: np.ndarray) -> np.ndarray:
        return y - x - h * g(c + w * y)

    return newton_solve(residual, x)


def implicit_disc_step(f: VectorField, x: np.ndarray, h: float, theta: float) -> np.ndarray:
    """One step of x' = x + h f((1-theta) x + theta x'), Newton from the guess x.

    Explicit Euler (x + h f(x), no solve) at theta = 0, implicit Euler at 1,
    the implicit midpoint rule at 1/2.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    if theta == 0.0:
        return x + h * np.asarray(f(x), dtype=float)
    return _theta_solve(
        lambda mid: _row_values(f(mid), mid), x, h, (1.0 - theta) * x, theta
    )


def explicit_euler_step(f: VectorField, x: np.ndarray, h: float) -> np.ndarray:
    """x + h f(x): the theta map at theta = 0."""
    return implicit_disc_step(f, x, h, 0.0)


def implicit_euler_step(f: VectorField, x: np.ndarray, h: float) -> np.ndarray:
    """Solve x' = x + h f(x') by Newton from x: the theta map at theta = 1."""
    return implicit_disc_step(f, x, h, 1.0)


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

    def residual(w: np.ndarray) -> np.ndarray:
        return w - v - h * _values(f2(q, w), w)

    v_new = newton_solve(residual, v)
    q_new = q + h * np.asarray(f1(q, v_new), dtype=float)
    return q_new, v_new


# B's route to A, which a wrapper installed on the public name does not see
_symplectic_euler_a = symplectic_euler_a_step


def symplectic_euler_b_step(
    f1: SplitField,
    f2: SplitField,
    q: np.ndarray,
    v: np.ndarray,
    h: float,
) -> tuple[np.ndarray, np.ndarray]:
    """q' = q + h f1(q', v), v' = v + h f2(q', v): A with (q, f1), (v, f2) swapped."""
    return _symplectic_euler_a(
        lambda v, q: f2(q, v), lambda v, q: f1(q, v), v, q, h
    )[::-1]


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
        # one (s, n) block of slopes per row; a[i] @ k sums each row's block
        k = flat.reshape(-1, s, n)
        g = np.empty_like(k)
        for i in range(s):
            xi = x + h * (a[i] @ k)
            g[:, i] = _row_values(f(xi), xi)
        return flat - g.reshape(flat.shape)

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
    origin = np.array([q, p])[:, None]

    def residual(flat: np.ndarray) -> np.ndarray:
        # each row is (k_1..k_s, l_1..l_s); slopes[:, 0] holds the k, slopes[:, 1] the l
        slopes = flat.reshape(-1, 2, s, n)
        # every stage point of q and of p at once: each sum starts at +0.0 and adds
        # the products in stage order, as numpy's gemv does for row @ k.  The two
        # agree bit for bit when every product is exact (coefficients such as 0,
        # 1/2 and 1, slopes not subnormal) and there are at most three stages.
        acc = 0.0
        for j, c in enumerate(ptab._columns):
            acc = acc + c * slopes[:, :, None, j]
        points = origin + h * acc
        qs, ps = points[:, 0], points[:, 1]
        g = np.empty_like(slopes)
        g[:, 0] = _row_values(f1(qs, ps), qs)
        g[:, 1] = _row_values(f2(qs, ps), ps)
        return flat - g.reshape(flat.shape)

    guess = np.array(
        np.asarray(f1(q, p), dtype=float).ravel().tolist() * s
        + np.asarray(f2(q, p), dtype=float).ravel().tolist() * s
    )
    sol = newton_solve(residual, guess)
    k = sol[:sn].reshape(s, n)
    l = sol[sn:].reshape(s, n)
    return q + h * (ptab.b @ k), p + h * (ptab.b_hat @ l)


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
