"""Structure-preserving numerical integration on flat spaces and SO(3)/SE(3).

The package splits into:

* :mod:`geomint.so3` -- closed-form rotation-group primitives (hat/vee,
  exp/log, Cayley, logarithmic-derivative duals and the rotation type).
* :mod:`geomint.geometry` -- the two trivialized retractions and the
  closed-form inverses of the flat and left-trivialized discretization maps.
* :mod:`geomint.odecore` -- classical one-step methods: Euler variants,
  symplectic Euler, (partitioned) Runge-Kutta, coefficient checkers, Newton.
* :mod:`geomint.integrators` -- the geometric schemes: the flat theta
  family, its cotangent lift, Lie-Poisson steps on SO(3), the heavy top on
  SE(3), the quadrotor, and the two non-structure-preserving baselines.
* :mod:`geomint.mechanics` -- benchmark models and invariant observers.
* :mod:`geomint.bench` / :mod:`geomint.cli` -- scenario harness and CLI.
"""

from .errors import (
    DegenerateProjection,
    DimMismatch,
    GeomintError,
    IncompatiblePair,
    IntegratorFailure,
    NearPiRotation,
    NoConvergence,
    NotRotation,
    NotSkew,
    OutOfChart,
    ParseError,
    SingularCayley,
    SingularJacobian,
    SingularMatrix,
    SingularOrigin,
    UnknownColumn,
    UnknownKey,
)
from .geometry import (
    TrivializedRetraction,
    cayley_retraction,
    exp_retraction,
    flat_discretize_inverse,
    triv_disc_inverse_left,
    triv_disc_inverse_right,
)
from .integrators import (
    HeavyTopState,
    QuadrotorInput,
    QuadrotorState,
    RigidBodyState,
    cotangent_theta_step,
    heavytop_cay_step,
    heavytop_exp_step,
    implicit_disc_step,
    lie_poisson_left_step,
    lie_poisson_right_step,
    quadrotor_step,
    quat_rk4_step,
    rkmk4_step,
)
from .mechanics import (
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
    project_to_cylinder,
    rigidbody_casimir,
    rigidbody_energy,
)
from .odecore import (
    ButcherTableau,
    PartitionedTableau,
    check_order_conditions,
    check_symplectic_prk,
    explicit_euler_step,
    implicit_euler_step,
    newton_solve,
    prk_step,
    rk_step,
    symplectic_euler_a_step,
    symplectic_euler_b_step,
)
from .so3 import (
    Q_mat,
    Rotation,
    cay_inv_so3,
    cay_so3,
    dcay_dual_matrix,
    dexp_dual_matrix,
    exp_so3,
    hat,
    log_so3,
    vee,
)

__version__ = "0.1.0"
