"""Exception types raised across the library.

Everything derives from GeomintError so callers can catch broadly; the CLI
maps config problems to exit code 1 and integrator failures to exit code 2.
"""

from __future__ import annotations


class GeomintError(Exception):
    """Base class for all library errors."""


class NotSkew(GeomintError):
    """Matrix handed to vee() is not skew-symmetric."""


class NearPiRotation(GeomintError):
    """Rotation angle too close to pi for the logarithm branch."""


class SingularCayley(GeomintError):
    """Rotation with a pi component; the inverse Cayley map is undefined."""


class SingularMatrix(GeomintError):
    """3x3 solve with |det| below 1e-14, absolutely and relative to its row norms."""


class NotRotation(GeomintError, ValueError):
    """Matrix fails the Rotation check: non-finite, non-orthogonal or det != 1."""


class OutOfChart(GeomintError):
    """Group displacement left the injectivity domain of the retraction."""


class DimMismatch(GeomintError):
    """Vector arguments of unequal dimension."""


class NoConvergence(GeomintError):
    """Newton iteration failed to reach tolerance; ``iterate`` is where it stopped, if known."""

    def __init__(self, iterations: int, residual: float, iterate=None):
        self.iterations = iterations
        self.residual = residual
        self.iterate = iterate
        super().__init__(
            f"no convergence after {iterations} iterations "
            f"(residual inf-norm {residual:.3e})"
        )


class SingularJacobian(GeomintError):
    """Finite-difference Jacobian is singular at the current iterate, ``iterate``.

    ``reason`` is the cause alone; the message names the iterate, if known.
    """

    def __init__(self, reason: str, iterate=None):
        self.reason = reason
        self.iterate = iterate
        if iterate is not None:
            reason += " at x = (" + ", ".join(f"{v:.6g}" for v in iterate) + ")"
        super().__init__(reason)


class SingularOrigin(GeomintError):
    """Kepler state at the collision singularity r = 0."""


class DegenerateProjection(GeomintError):
    """Point on the cylinder axis; radial projection undefined."""


class ParseError(GeomintError):
    """Malformed line in a config file, or one that repeats a key."""

    def __init__(self, line_no: int, text: str, reason: str = "cannot parse"):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {reason} {text!r}")


class UnknownKey(GeomintError):
    """Config key not recognized for the scenario."""


class IncompatiblePair(GeomintError):
    """Integrator not admissible for the scenario."""

    def __init__(self, scenario: str, integrator: str):
        self.scenario = scenario
        self.integrator = integrator
        super().__init__(f"integrator {integrator!r} cannot run scenario {scenario!r}")


class IntegratorFailure(GeomintError):
    """A step failed mid-run; carries the step index and the cause."""

    def __init__(self, step: int, cause: Exception):
        self.step = step
        self.cause = cause
        # a cause from outside the library is named by its type
        name = "" if isinstance(cause, GeomintError) else f"{type(cause).__name__}: "
        super().__init__(f"integrator failed at step {step}: {name}{cause}")


class UnknownColumn(GeomintError):
    """Requested column not present in the trajectory records."""
