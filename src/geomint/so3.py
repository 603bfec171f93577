"""Closed-form primitives on SO(3), its Lie algebra, and the SE(3) blocks.

Conventions
-----------
* Vec3 is a plain ``(x, y, z)`` tuple of floats; Mat3 is a row-major tuple of
  three row tuples.  All operations are pure functions over these immutable
  values, so everything here is trivially thread-safe.
* Rotations act by right multiplication in the integrators: one step maps
  ``R`` to ``R @ tau(t*hat(Omega))``.
* ``hat`` satisfies ``hat(x) @ y == cross(x, y)``; ``vee`` inverts it.  The
  pairing between momenta and algebra vectors is the ordinary dot product, so
  the dual of a linear map on R^3 is its matrix transpose.

Logarithmic derivatives
-----------------------
With ``theta = |y|`` and the scalar kernels

    a(theta) = (1 - cos theta) / theta^2        (limit 1/2)
    b(theta) = (theta - sin theta) / theta^3    (limit 1/6)

the left logarithmic derivative of the exponential map is the matrix
``I - a*hat(y) + b*hat(y)^2`` and its dual (transpose) is

    dexp_dual_matrix(y) = I + a*hat(y) + b*hat(y)^2,

which coincides with the translation block of the SE(3) matrix
exponential.  Both facts are enforced in the test suite by finite-difference
dual-pairing and series oracles.  Note the sign of the ``hat(y)`` term: the
dual carries ``+a``, the left logarithmic derivative itself carries ``-a``.
Formula collections sometimes quote the untransposed matrix (or an
unnormalized half-angle kernel with limit 1 instead of 1/2) in the dual's
place; the finite-difference oracle singles out the versions used here.
Likewise the Cayley dual pair is ``(I + hat(y), (1 + |y|^2)/2)``, i.e. the
dual map is ``(I + hat(y)) / s(y)``.

Numerical notes
---------------
* ``a`` is evaluated as ``2*sin(theta/2)^2 / theta^2`` to avoid the
  ``1 - cos`` cancellation; ``a`` and ``b`` switch to 4th-order Taylor
  expansions below ``theta < 1e-4``.  The error of ``b``'s closed form near
  the threshold is damped by the ``theta^2`` scale of its matrix term.
* The Q-matrix kernels ``a'(theta)/theta`` and ``b'(theta)/theta`` cancel
  catastrophically in their naive closed forms, so they use Taylor series up
  to theta^8 below ``theta < 0.5`` and the closed forms above.
* 3x3 linear solves use the explicit adjugate: fixed size, no external
  dependency.  The singular guard is |det| < 1e-14 both absolutely and
  relative to the product of the row norms (Hadamard's bound on |det|).
"""

from __future__ import annotations

import math
from .errors import NearPiRotation, NotRotation, NotSkew, SingularCayley, SingularMatrix
from .value import Value, store

Vec3 = tuple[float, float, float]
Mat3 = tuple[Vec3, Vec3, Vec3]

IDENTITY3: Mat3 = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))

SMALL_ANGLE = 1e-4  # Taylor threshold for the a/b kernels
_Q_SERIES_ANGLE = 0.5  # Taylor threshold for the a'/theta, b'/theta kernels
_DET_GUARD = 1e-14


# --- tuple-level linear algebra -------------------------------------------

def as_vec3(v) -> Vec3:
    x, y, z = v
    return (float(x), float(y), float(z))


def as_mat3(m) -> Mat3:
    r0, r1, r2 = m
    return (as_vec3(r0), as_vec3(r1), as_vec3(r2))


def vec_add(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def vec_sub(u: Vec3, v: Vec3) -> Vec3:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def vec_scale(u: Vec3, c: float) -> Vec3:
    return (c * u[0], c * u[1], c * u[2])


def dot(u: Vec3, v: Vec3) -> float:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross(u: Vec3, v: Vec3) -> Vec3:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def norm(u: Vec3) -> float:
    return math.sqrt(u[0] * u[0] + u[1] * u[1] + u[2] * u[2])


def vec_is_finite(u: Vec3) -> bool:
    return math.isfinite(u[0]) and math.isfinite(u[1]) and math.isfinite(u[2])


def mat_vec(m: Mat3, v: Vec3) -> Vec3:
    return (
        m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
        m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
        m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
    )


def mat_T_vec(m: Mat3, v: Vec3) -> Vec3:
    """m^T v without building the transpose."""
    return (
        m[0][0] * v[0] + m[1][0] * v[1] + m[2][0] * v[2],
        m[0][1] * v[0] + m[1][1] * v[1] + m[2][1] * v[2],
        m[0][2] * v[0] + m[1][2] * v[1] + m[2][2] * v[2],
    )


def mat_mul(p: Mat3, q: Mat3) -> Mat3:
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = p
    (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = q
    return (
        (
            p00 * q00 + p01 * q10 + p02 * q20,
            p00 * q01 + p01 * q11 + p02 * q21,
            p00 * q02 + p01 * q12 + p02 * q22,
        ),
        (
            p10 * q00 + p11 * q10 + p12 * q20,
            p10 * q01 + p11 * q11 + p12 * q21,
            p10 * q02 + p11 * q12 + p12 * q22,
        ),
        (
            p20 * q00 + p21 * q10 + p22 * q20,
            p20 * q01 + p21 * q11 + p22 * q21,
            p20 * q02 + p21 * q12 + p22 * q22,
        ),
    )


def mat_transpose(m: Mat3) -> Mat3:
    return (
        (m[0][0], m[1][0], m[2][0]),
        (m[0][1], m[1][1], m[2][1]),
        (m[0][2], m[1][2], m[2][2]),
    )


def mat_add(p: Mat3, q: Mat3) -> Mat3:
    return tuple(
        (p[i][0] + q[i][0], p[i][1] + q[i][1], p[i][2] + q[i][2]) for i in range(3)
    )  # type: ignore[return-value]


def mat_scale(m: Mat3, c: float) -> Mat3:
    return tuple((c * m[i][0], c * m[i][1], c * m[i][2]) for i in range(3))  # type: ignore[return-value]


def mat_is_finite(m: Mat3) -> bool:
    return all(math.isfinite(m[i][j]) for i in range(3) for j in range(3))


def mat_det(m: Mat3) -> float:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _below_hadamard(m: Mat3, det: float) -> bool:
    """|det| <= 1e-14 times Hadamard's bound; tested only once |det| < 1e-14 trips."""
    return abs(det) <= _DET_GUARD * norm(m[0]) * norm(m[1]) * norm(m[2])


def solve3(m: Mat3, rhs: Vec3) -> Vec3:
    """Solve m x = rhs by the adjugate; raises SingularMatrix if m is near singular."""
    det = mat_det(m)
    if abs(det) < _DET_GUARD and _below_hadamard(m, det):
        raise SingularMatrix(f"3x3 solve with |det| = {abs(det):.3e}")
    inv_det = 1.0 / det
    c00 = m[1][1] * m[2][2] - m[1][2] * m[2][1]
    c01 = m[0][2] * m[2][1] - m[0][1] * m[2][2]
    c02 = m[0][1] * m[1][2] - m[0][2] * m[1][1]
    c10 = m[1][2] * m[2][0] - m[1][0] * m[2][2]
    c11 = m[0][0] * m[2][2] - m[0][2] * m[2][0]
    c12 = m[0][2] * m[1][0] - m[0][0] * m[1][2]
    c20 = m[1][0] * m[2][1] - m[1][1] * m[2][0]
    c21 = m[0][1] * m[2][0] - m[0][0] * m[2][1]
    c22 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return (
        (c00 * rhs[0] + c01 * rhs[1] + c02 * rhs[2]) * inv_det,
        (c10 * rhs[0] + c11 * rhs[1] + c12 * rhs[2]) * inv_det,
        (c20 * rhs[0] + c21 * rhs[1] + c22 * rhs[2]) * inv_det,
    )


def mat_inv(m: Mat3) -> Mat3:
    """m^-1, column j solved for e_j; raises SingularMatrix as solve3 does."""
    return tuple(zip(*(solve3(m, e) for e in IDENTITY3)))


# --- scalar kernels with small-angle fallbacks -----------------------------

def _sinc(theta: float) -> float:
    """sin(theta)/theta."""
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return 1.0 - t2 / 6.0 + t2 * t2 / 120.0
    return math.sin(theta) / theta


def _coeff_a(theta: float) -> float:
    """(1 - cos theta)/theta^2 via the half-angle form; limit 1/2."""
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return 0.5 - t2 / 24.0 + t2 * t2 / 720.0
    s = math.sin(0.5 * theta)
    return 2.0 * s * s / (theta * theta)


def _coeff_b(theta: float) -> float:
    """(theta - sin theta)/theta^3; limit 1/6."""
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return 1.0 / 6.0 - t2 / 120.0 + t2 * t2 / 5040.0
    return (theta - math.sin(theta)) / (theta ** 3)


def _coeff_da(theta: float) -> float:
    """a'(theta)/theta = (theta sin theta + 2 cos theta - 2)/theta^4; limit -1/12."""
    if theta < _Q_SERIES_ANGLE:
        t2 = theta * theta
        return (
            -1.0 / 12.0
            + t2 / 180.0
            - t2 * t2 / 6720.0
            + t2 * t2 * t2 / 453600.0
            - t2 * t2 * t2 * t2 / 47900160.0
        )
    t4 = theta ** 4
    return (theta * math.sin(theta) + 2.0 * math.cos(theta) - 2.0) / t4


def _coeff_db(theta: float) -> float:
    """b'(theta)/theta = (3 sin theta - theta cos theta - 2 theta)/theta^5; limit -1/60."""
    if theta < _Q_SERIES_ANGLE:
        t2 = theta * theta
        return (
            -1.0 / 60.0
            + t2 / 1260.0
            - t2 * t2 / 60480.0
            + t2 * t2 * t2 / 4989600.0
            - t2 * t2 * t2 * t2 / 622702080.0
        )
    t5 = theta ** 5
    return (3.0 * math.sin(theta) - theta * math.cos(theta) - 2.0 * theta) / t5


def _log_coeff(theta: float) -> float:
    """theta/(2 sin theta); limit 1/2."""
    if theta < SMALL_ANGLE:
        t2 = theta * theta
        return 0.5 + t2 / 12.0 + 7.0 * t2 * t2 / 720.0
    return theta / (2.0 * math.sin(theta))


# --- hat / vee --------------------------------------------------------------

def hat(v: Vec3) -> Mat3:
    """Skew matrix of v: hat(v) @ w = cross(v, w)."""
    x, y, z = v
    return ((0.0, -z, y), (z, 0.0, -x), (-y, x, 0.0))


def vee(m: Mat3) -> Vec3:
    """Inverse of hat; raises NotSkew if ||m + m^T||_F > 1e-9."""
    defect = math.sqrt(
        (m[0][0] + m[0][0]) ** 2
        + (m[1][1] + m[1][1]) ** 2
        + (m[2][2] + m[2][2]) ** 2
        + 2.0 * (m[0][1] + m[1][0]) ** 2
        + 2.0 * (m[0][2] + m[2][0]) ** 2
        + 2.0 * (m[1][2] + m[2][1]) ** 2
    )
    if defect > 1e-9:
        raise NotSkew(f"skew defect {defect:.3e}")
    return _vee_unchecked(m)


def _vee_unchecked(m: Mat3) -> Vec3:
    # averaged extraction keeps vee(hat(v)) == v exact and tolerates rounding
    return (
        0.5 * (m[2][1] - m[1][2]),
        0.5 * (m[0][2] - m[2][0]),
        0.5 * (m[1][0] - m[0][1]),
    )


# --- exponential, logarithm, Cayley ----------------------------------------

def _exp_matrix(v: Vec3) -> Mat3:
    """Rodrigues form I + sinc(theta) hat(v) + a(theta) hat(v)^2."""
    x, y, z = v
    theta = math.sqrt(x * x + y * y + z * z)
    s = _sinc(theta)
    a = _coeff_a(theta)
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    return (
        (1.0 - a * (yy + zz), a * xy - s * z, a * xz + s * y),
        (a * xy + s * z, 1.0 - a * (xx + zz), a * yz - s * x),
        (a * xz - s * y, a * yz + s * x, 1.0 - a * (xx + yy)),
    )


def exp_so3(v: Vec3) -> "Rotation":
    """Matrix exponential of hat(v), Rodrigues closed form."""
    return Rotation(_exp_matrix(v))


def log_so3(r: "Rotation | Mat3") -> Vec3:
    """Rotation vector with |log| < pi; raises NearPiRotation near angle pi.

    Requires trace(R) > -1 + 1e-9, i.e. the rotation angle bounded away from
    the branch cut at pi.
    """
    m = r.m if isinstance(r, Rotation) else r
    tr = m[0][0] + m[1][1] + m[2][2]
    if tr <= -1.0 + 1e-9:
        raise NearPiRotation(f"trace {tr:.12f} too close to -1")
    c = max(-1.0, min(1.0, 0.5 * (tr - 1.0)))
    theta = math.acos(c)
    k = _log_coeff(theta)
    return (
        k * (m[2][1] - m[1][2]),
        k * (m[0][2] - m[2][0]),
        k * (m[1][0] - m[0][1]),
    )


def _cay_matrix(v: Vec3) -> Mat3:
    """(I - hat(v))^-1 (I + hat(v)) = I + 2 (hat(v) + hat(v)^2)/(1 + |v|^2)."""
    x, y, z = v
    c = 2.0 / (1.0 + x * x + y * y + z * z)
    xx, yy, zz = x * x, y * y, z * z
    xy, xz, yz = x * y, x * z, y * z
    return (
        (1.0 - c * (yy + zz), c * (xy - z), c * (xz + y)),
        (c * (xy + z), 1.0 - c * (xx + zz), c * (yz - x)),
        (c * (xz - y), c * (yz + x), 1.0 - c * (xx + yy)),
    )


def cay_so3(v: Vec3) -> "Rotation":
    """Cayley transform (I - hat(v))^-1 (I + hat(v)).

    Rotates about v by the angle 2*atan(|v|); cay_so3(0) is the identity.
    """
    return Rotation(_cay_matrix(v))


def cay_inv_so3(r: "Rotation | Mat3") -> Vec3:
    """Inverse Cayley transform; raises SingularCayley for a pi component.

    Uses v = vee(R - R^T)/(1 + trace R), valid whenever det(I + R) != 0.
    """
    m = r.m if isinstance(r, Rotation) else r
    denom = 1.0 + m[0][0] + m[1][1] + m[2][2]
    if abs(denom) < 1e-9:
        raise SingularCayley(f"1 + trace(R) = {denom:.3e}")
    s = 1.0 / denom
    return (
        s * (m[2][1] - m[1][2]),
        s * (m[0][2] - m[2][0]),
        s * (m[1][0] - m[0][1]),
    )


# --- logarithmic-derivative duals and SE(3) blocks ---------------------------

def _abc_matrix(y: Vec3, a: float, b: float) -> Mat3:
    """I + a*hat(y) + b*hat(y)^2 assembled componentwise."""
    x, yy_, z = y
    xx, yy, zz = x * x, yy_ * yy_, z * z
    xy, xz, yz = x * yy_, x * z, yy_ * z
    return (
        (1.0 - b * (yy + zz), b * xy - a * z, b * xz + a * yy_),
        (b * xy + a * z, 1.0 - b * (xx + zz), b * yz - a * x),
        (b * xz - a * yy_, b * yz + a * x, 1.0 - b * (xx + yy)),
    )


def dexp_dual_matrix(y: Vec3) -> Mat3:
    """Dual (transpose) of the left logarithmic derivative of exp_so3.

    Returns I + a(theta) hat(y) + b(theta) hat(y)^2 with theta = |y|; the
    hat(y) coefficient tends to 1/2 as y -> 0.  Satisfies the pairing
    <dexp_dual_matrix(y) @ mu, eta> = <mu, dL_exp(y)(eta)> where dL_exp is the
    left logarithmic derivative (the matrix with the -a sign).  It is also
    the translation block of the SE(3) matrix exponential: exp of the 4x4
    twist ((hat(y), z), 0) has translation dexp_dual_matrix(y) @ z.
    """
    theta = norm(y)
    return _abc_matrix(y, _coeff_a(theta), _coeff_b(theta))


def dcay_dual_matrix(y: Vec3) -> tuple[Mat3, float]:
    """Dual pair (I + hat(y), s(y)) of the Cayley left logarithmic derivative.

    The dual map itself is (I + hat(y))/s(y) with s(y) = (1 + |y|^2)/2, so a
    momentum relation d*(mu) = nu reads (I + hat(y)) mu = s(y) nu.  The left
    logarithmic derivative is (I - hat(y))/s(y); as with dexp_dual_matrix the
    dual flips the sign of the hat(y) term.
    """
    x, yy_, z = y
    s = 0.5 * (1.0 + x * x + yy_ * yy_ + z * z)
    mat = (
        (1.0, -z, yy_),
        (z, 1.0, -x),
        (-yy_, x, 1.0),
    )
    return mat, s


def Q_mat(y: Vec3, z: Vec3) -> Mat3:
    """Directional derivative of dexp_dual_matrix at y in direction z, linear in z.

    Q(y, z) = a hat(z) + b (hat(y)hat(z) + hat(z)hat(y))
              + (a'/theta) (y.z) hat(y) + (b'/theta) (y.z) hat(y)^2.
    """
    theta = norm(y)
    a = _coeff_a(theta)
    b = _coeff_b(theta)
    da = _coeff_da(theta)
    db = _coeff_db(theta)
    yz = dot(y, z)
    hy = hat(y)
    hz = hat(z)
    anti = mat_add(mat_mul(hy, hz), mat_mul(hz, hy))
    out = mat_add(mat_scale(hz, a), mat_scale(anti, b))
    out = mat_add(out, mat_scale(hy, da * yz))
    out = mat_add(out, mat_scale(mat_mul(hy, hy), db * yz))
    return out


# --- the group element type -----------------------------------------------

class Rotation(Value):
    """Element of SO(3), constructor-checked.

    Requires ||m^T m - I||_F <= 1e-9 and |det(m) - 1| <= 1e-9; integrator
    steps return Rotations that satisfy these bounds without any
    reorthogonalization pass.  The check is ``__post_init__``, looked up on
    the class, so that a profiler can wrap it.
    """

    __slots__ = _fields = ("m",)

    def __init__(self, m: Mat3):
        store(self, "m", m)
        self.__post_init__()

    def __post_init__(self):
        m = self.m
        defect = orthogonality_defect_mat(m)
        # a non-finite entry makes a diagonal Gram term inf or nan, so the
        # finiteness scan runs only on matrices that already failed
        if not defect <= 1e-9:
            if not mat_is_finite(m):
                raise NotRotation("rotation matrix has non-finite entries")
            raise NotRotation(f"orthogonality defect {defect:.3e} exceeds 1e-9")
        det = mat_det(m)
        if abs(det - 1.0) > 1e-9:
            raise NotRotation(f"determinant {det!r} not within 1e-9 of 1")

    @staticmethod
    def identity() -> "Rotation":
        return Rotation(IDENTITY3)

    def apply(self, v: Vec3) -> Vec3:
        return mat_vec(self.m, v)

    def apply_transpose(self, v: Vec3) -> Vec3:
        return mat_T_vec(self.m, v)


def orthogonality_defect_mat(m: Mat3) -> float:
    """||m^T m - I||_F, computed without allocating the product."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = m
    # Gram entries of the upper triangle; the diagonal ones less 1
    g00 = m00 * m00 + m10 * m10 + m20 * m20 - 1.0
    g01 = m00 * m01 + m10 * m11 + m20 * m21
    g02 = m00 * m02 + m10 * m12 + m20 * m22
    g11 = m01 * m01 + m11 * m11 + m21 * m21 - 1.0
    g12 = m01 * m02 + m11 * m12 + m21 * m22
    g22 = m02 * m02 + m12 * m12 + m22 * m22 - 1.0
    total = (
        g00 * g00
        + 2.0 * g01 * g01
        + 2.0 * g02 * g02
        + g11 * g11
        + 2.0 * g12 * g12
        + g22 * g22
    )
    return math.sqrt(total)
