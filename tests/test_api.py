"""The public surface of geomint: every name that ``import geomint`` binds.

The list is written out, so a name added to the package or removed from it
shows up in the diff of this file.
"""

import os
import pathlib
import subprocess
import sys

SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")

PUBLIC = [
    "ButcherTableau", "DegenerateProjection", "DimMismatch", "GeomintError",
    "HarmonicOscillatorParams", "HeavyTopParams", "HeavyTopState", "IncompatiblePair",
    "IntegratorFailure", "KeplerParams", "NearPiRotation", "NoConvergence",
    "NotRotation", "NotSkew", "OutOfChart", "ParseError", "PartitionedTableau",
    "PendulumParams", "Q_mat", "QuadrotorInput", "QuadrotorParams", "QuadrotorState",
    "RigidBodyParams", "RigidBodyState", "Rotation", "SingularCayley",
    "SingularJacobian", "SingularMatrix", "SingularOrigin", "TrivializedRetraction",
    "UnknownColumn", "UnknownKey", "cay_inv_so3", "cay_so3", "cayley_retraction",
    "check_order_conditions", "check_symplectic_prk", "cotangent_theta_step",
    "dcay_dual_matrix", "dexp_dual_matrix", "errors", "exp_retraction", "exp_so3",
    "explicit_euler_step", "flat_discretize_inverse", "geometry", "hat",
    "heavytop_casimirs", "heavytop_cay_step", "heavytop_energy", "heavytop_exp_step",
    "ho_energy", "ho_vectorfield", "implicit_disc_step", "implicit_euler_step",
    "integrators", "kepler_angmom", "kepler_energy", "kepler_vectorfield",
    "lie_poisson_left_step", "lie_poisson_right_step", "log_so3", "mechanics",
    "newton_solve", "odecore", "orthogonality_defect", "pendulum_embedded_vf",
    "prk_step", "project_to_cylinder", "quadrotor_step", "quat_rk4_step",
    "rigidbody_casimir", "rigidbody_energy", "rk_step", "rkmk4_step", "so3",
    "symplectic_euler_a_step", "symplectic_euler_b_step", "triv_disc_inverse_left",
    "triv_disc_inverse_right", "value", "vee",
]


def test_public_names():
    # a fresh process: an in-process import would also list the submodules
    # (bench, cli, selfcheck) that other tests happen to have imported
    script = "import geomint; print(*sorted(n for n in dir(geomint) if not n.startswith('_')))"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout.split() == PUBLIC
