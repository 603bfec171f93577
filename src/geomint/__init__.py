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

Each name is imported from the module that defines it; the package itself
binds none and loads no module.
"""

__version__ = "0.1.0"
