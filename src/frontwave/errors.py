"""Exception types shared across the solver."""


class FrontwaveError(Exception):
    """Base class for all solver-specific errors.

    Each type says what its failure means: ``exit_code`` is the command-line
    exit status and ``verdict`` the ``sweep.csv`` entry of a row that raised
    it.  The base class is a numerical failure.
    """

    exit_code = 2
    verdict = "numerical-failure"


class ConfigurationError(FrontwaveError):
    """Invalid configuration: bad field values, inconsistent grid, or an
    advection cell number too large for the discretization."""

    exit_code = 1
    verdict = "configuration-error"


class LinearSolverError(FrontwaveError):
    """A temperature solve failed: its trace factorization failed, or its
    rows failed the 1e-12 backward-error check."""

    verdict = "linear-solver-failure"

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

    verdict = "non-convergence"

    def __init__(self, message, iterations=None, residual=None, history=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.history = tuple(history) if history is not None else ()
