"""Exception types shared across the solver."""


class FrontwaveError(Exception):
    """Base class for all solver-specific errors.

    Each type says what its failure means: ``exit_code`` is the command-line
    exit status and ``verdict`` the ``sweep.csv`` entry of a row that raised
    it.  The base class is a numerical failure.  Every type takes the same
    arguments, so the coupler can re-raise one as its own type, naming the
    stage and sweep.  ``iterations`` counts the iterations made, ``residual``
    is the last convergence measure or failing check, and ``history`` holds
    recent per-iteration measures (a tuple, or ``None``).
    """

    exit_code = 2
    verdict = "numerical-failure"

    def __init__(self, message, iterations=None, residual=None, history=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.history = tuple(history) if history is not None else None


class ConfigurationError(FrontwaveError):
    """Invalid configuration: bad field values, inconsistent grid, an
    advection cell number too large for the discretization, or a strip
    whose field cannot be allocated."""

    exit_code = 1
    verdict = "configuration-error"


class LinearSolverError(FrontwaveError):
    """A temperature solve failed: a cyclic-reduction step or its trace
    factorization met a singular matrix, or its solvent or its 16 front rows
    failed their 1e-12 check (``residual`` holds the failing value)."""

    verdict = "linear-solver-failure"


class NonConvergenceError(FrontwaveError):
    """An iteration (front Newton solve, fixed-point sweep, or continuation)
    exhausted its budget without meeting its tolerance."""

    verdict = "non-convergence"
