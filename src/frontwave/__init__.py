"""Traveling-wave solver for free-boundary flame fronts in striated media."""

from .config import config_from_dict, load_config
from .coupler import (
    SolverConfig,
    StageRecord,
    TravelingWave,
    build_forcing,
    resolve_grid,
    solve_at_truncation,
    solve_traveling_wave,
)
from .diagnostics import CheckResult, DiagnosticsReport, run_all
from .errors import (
    ConfigurationError,
    FrontwaveError,
    LinearSolverError,
    NonConvergenceError,
)
from .io import (
    load_wave,
    read_columns,
    read_field,
    write_failure_manifest,
    write_rows_csv,
    write_solution,
)
from .front import (
    Forcing,
    FrontProfile,
    compute_speed,
    front_derivatives,
    front_residual,
    relax_front,
)
from .kinetics import (
    ArrheniusKinetics,
    CombustionRate,
    ConstantKinetics,
    KineticsModel,
    PiecewiseConstantRate,
    SmoothRate,
    TabulatedKinetics,
    TruncatedKinetics,
    truncate_kinetics,
)
from .temperature import (
    StripGrid,
    TemperatureField,
    assemble_system,
    gradient_energy,
    solve_temperature,
)

__version__ = "0.1.0"
