"""Error taxonomy shared by the solvers.

Input validation raises plain ValueError; everything that fails *during* a
numerically well-posed computation derives from SolverError so the CLI can
map it to its own exit code.
"""


class SolverError(RuntimeError):
    """A solver failed to produce a result for admissible inputs."""


class BracketError(SolverError):
    """No root bracket: no sign change found, or none within float range."""


class ConvergenceError(SolverError):
    """An iteration exhausted its budget without meeting its tolerance."""


class IntegrationError(SolverError):
    """Adaptive ODE integration broke down before the end of the interval."""

    def __init__(self, message: str, last_radius: float | None = None):
        super().__init__(message)
        self.last_radius = last_radius
