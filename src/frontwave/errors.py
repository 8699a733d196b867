"""Exception types shared across the solver."""


class FrontwaveError(Exception):
    """Base class for all solver-specific errors."""


class ConfigurationError(FrontwaveError):
    """Invalid configuration: bad field values, inconsistent grid, or an
    advection cell number too large for the discretization."""


class LinearSolverError(FrontwaveError):
    """The sparse linear solve failed or left too large a residual."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NonConvergenceError(FrontwaveError):
    """An iteration (front Newton solve, fixed-point sweep, or continuation)
    exhausted its budget without meeting its tolerance.

    Attributes:
        iterations: number of iterations performed before giving up.
        residual: last convergence measure observed.
        history: recent per-iteration measures, useful for spotting cycles.
    """

    def __init__(self, message, iterations=None, residual=None, history=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.history = tuple(history) if history is not None else ()
