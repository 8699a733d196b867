"""Outer solver: couples the front solve to the temperature field.

The traveling wave is a fixed point of the loop

    trace -> forcing H = R(y) * K(trace) -> front (speed, profile) ->
    temperature field -> trace,

iterated undamped.  Because the reaction rate may vanish in the cold limit,
the loop runs on a floored rate law ``max(K, 1/n)`` and doubles ``n`` until
the floor no longer binds along the front and the speed stops moving between
stages.  A stage whose sweeps diverge or run out of budget is not retried: it
raises ``NonConvergenceError`` with its sweep history.

The wave quotes the last stage's fixed point (profile, trace, field).  No
sweep follows it: only the forcing is rebuilt from that trace and the speed
from that forcing, so the speed identity holds exactly.

A stage whose floor ``1/n`` lies above ``K(1)`` is not solved: its law is the
constant ``1/n`` on the whole unit interval, so it would solve only the
geometry of ``R / n``.  It still uses up one slot of the stage budget.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import ClassVar, NamedTuple, Optional

import numpy as np

from . import diagnostics as _diagnostics
from .errors import ConfigurationError, FrontwaveError, NonConvergenceError
from .front import (
    Forcing,
    FrontProfile,
    check_cell_count,
    compute_speed,
    front_residual,
    relax_front,
)
from .kinetics import (
    CombustionRate,
    KineticsModel,
    PiecewiseConstantRate,
    truncate_kinetics,
)
from .temperature import StripGrid, TemperatureField, solve_temperature

__all__ = [
    "SolverConfig",
    "StageRecord",
    "ResidualNorms",
    "TravelingWave",
    "resolve_grid",
    "build_forcing",
    "solve_at_truncation",
    "solve_traveling_wave",
]

logger = logging.getLogger("frontwave")

_EDGE_ALIGN_TOL = 1e-9

# Continuation budgets: the first truncation ``n``, the sweeps per stage and
# the stages per solve.
_FIRST_TRUNCATION = 1
_MAX_SWEEPS = 200
_MAX_STAGES = 24


@dataclass(frozen=True)
class SolverConfig:
    """Everything needed to set up and run the coupled solver.

    ``nx`` and ``depth`` may be left unset, in which case the strip is sized
    from the kinetics: ``depth`` spans the cold tail of the slowest admissible
    wave and ``depth / nx`` is the solve's ``hx``, fine enough in X that the
    fastest truncation stage keeps a centered-scheme advection cell number.
    """

    kinetics: KineticsModel
    rate: CombustionRate
    ny: int = 64
    nx: Optional[int] = None
    depth: Optional[float] = None
    outer_tol: float = 1e-6
    run_diagnostics: bool = True

    def __post_init__(self):
        if not isinstance(self.kinetics, KineticsModel):
            raise ConfigurationError("kinetics must be a KineticsModel")
        if not isinstance(self.rate, CombustionRate):
            raise ConfigurationError("rate must be a CombustionRate")
        check_cell_count(self.ny, error=ConfigurationError)
        if self.nx is not None and (
            not isinstance(self.nx, (int, np.integer)) or self.nx < 16
        ):
            raise ConfigurationError("nx must be an integer >= 16 when given")
        if self.depth is not None and not (
            np.isfinite(self.depth) and self.depth > 0.0
        ):
            raise ConfigurationError("depth must be positive when given")
        if not (np.isfinite(self.outer_tol) and self.outer_tol > 0.0):
            raise ConfigurationError("outer_tol must be positive")


class _PicardState(NamedTuple):
    """One iterate of the outer fixed-point loop."""

    speed: float
    psi: FrontProfile
    theta: np.ndarray
    field: Optional[TemperatureField]


@dataclass(frozen=True)
class StageRecord:
    """Summary of one truncation stage of the continuation."""

    truncation: int
    speed: float
    sweeps: int
    last_update: float
    floor_inactive: bool
    speed_gap: float


@dataclass(frozen=True)
class ResidualNorms:
    """Convergence measures quoted with a finished wave.  ``front`` is taken
    against the forcing rebuilt from the final trace, so it can exceed the
    front Newton tolerance by about the last sweep's update."""

    front: float
    outer: float
    trace_deviation: float


@dataclass(frozen=True, eq=False)
class TravelingWave:
    """A converged traveling wave with its audit trail."""

    # A solve that does not converge raises; no unconverged wave is built.
    converged: ClassVar[bool] = True

    speed: float
    psi: FrontProfile
    theta: np.ndarray
    forcing: Forcing
    field: TemperatureField
    kinetics: KineticsModel
    rate: CombustionRate
    stop_reason: str
    history: tuple
    residuals: ResidualNorms
    report: Optional["_diagnostics.DiagnosticsReport"] = None

    def __post_init__(self):
        arr = np.asarray(self.theta, dtype=float).copy()
        arr.flags.writeable = False
        object.__setattr__(self, "theta", arr)

    @property
    def grid(self) -> StripGrid:
        return self.field.grid

    @property
    def final_truncation(self) -> int:
        return self.history[-1].truncation

    @property
    def floor_inactive(self) -> bool:
        return self.history[-1].floor_inactive

    @property
    def final_kinetics(self) -> KineticsModel:
        """The floored law ``max(K, 1/n)`` of the stage the wave quotes."""
        return truncate_kinetics(self.kinetics, self.final_truncation)


def _stage_speed_cap(config: SolverConfig) -> float:
    _, r_hi = config.rate.bounds
    return r_hi * max(config.kinetics.supremum, 1.0 / _FIRST_TRUNCATION)


def resolve_grid(config: SolverConfig) -> StripGrid:
    """Materialize the strip grid, sizing unset dimensions from the models.

    Raises:
        ConfigurationError: when the kinetics admit no propagation, the
            strip is too large to build, a piecewise rate's edges fall off
            the transverse grid, or the requested X resolution cannot carry
            the fastest stage.
    """
    r_lo, _ = config.rate.bounds
    integral = config.kinetics.unit_integral()
    speed_floor = r_lo * integral
    if speed_floor <= 0.0:
        raise ConfigurationError(
            "kinetics integral over the unit interval vanishes; no wave exists"
        )
    depth = config.depth if config.depth is not None else 10.0 / speed_floor
    cap = _stage_speed_cap(config)
    if config.nx is not None:
        nx = int(config.nx)
    else:
        nx = max(512.0, 32.0 * np.ceil(0.6 * cap * depth / 32.0))
    if (nx + 1) * config.ny > np.iinfo(np.intp).max or not np.isfinite(depth):
        raise ConfigurationError(
            f"the strip of {nx:.3g} x {config.ny} cells and depth {depth:.3g} "
            "cannot be built; give grid nx and depth"
        )
    grid = StripGrid(nx=int(nx), ny=config.ny, depth=depth)
    if cap * grid.hx > 2.0:
        raise ConfigurationError(
            f"advection cell number {cap * grid.hx:.3g} exceeds 2 at the "
            "fastest truncation stage; increase nx"
        )
    if isinstance(config.rate, PiecewiseConstantRate):
        for edge in config.rate.edges:
            if abs(edge * grid.ny - round(edge * grid.ny)) > _EDGE_ALIGN_TOL:
                raise ConfigurationError(
                    f"striation edge {edge} does not sit on the transverse grid"
                )
    return grid


def build_forcing(kinetics: KineticsModel, rate: CombustionRate, theta) -> Forcing:
    """Forcing ``H_j = R(y_j) * K(theta_j)`` at the transverse nodes.

    Tiny negative trace values (linear-solver noise) are clipped; anything
    below ``-1e-10`` is a numerical failure of the solve.
    """
    arr = np.asarray(theta, dtype=float)
    if arr.min() < 0.0:
        if arr.min() < -1e-10:
            raise FrontwaveError("trace temperatures are significantly negative")
        arr = np.maximum(arr, 0.0)
    nodes = np.arange(arr.size) / arr.size
    return Forcing(rate.evaluate(nodes) * kinetics.evaluate(arr))


def _picard_step(
    state: _PicardState,
    kinetics: KineticsModel,
    rate: CombustionRate,
    grid: StripGrid,
) -> _PicardState:
    """One sweep of the outer loop."""
    forcing = build_forcing(kinetics, rate, state.theta)
    speed, psi = relax_front(forcing, state.psi)
    field = solve_temperature(psi, speed, grid)
    return _PicardState(speed=speed, psi=psi, theta=field.trace, field=field)


def _initial_state(config: SolverConfig, grid: StripGrid) -> _PicardState:
    """Flat front, uniform hot trace, and the a-priori speed cap."""
    return _PicardState(
        speed=_stage_speed_cap(config),
        psi=FrontProfile(np.zeros(grid.ny)),
        theta=np.ones(grid.ny),
        field=None,
    )


def solve_at_truncation(
    config: SolverConfig,
    n: int,
    grid: Optional[StripGrid] = None,
    start: Optional[_PicardState] = None,
):
    """Iterate the outer loop to a fixed point for the floor-``1/n`` law.

    Returns:
        Tuple ``(state, updates)`` where ``updates`` lists the per-sweep
        convergence measure ``max|dpsi| + |dc|``, one entry per sweep.

    Raises:
        NonConvergenceError: on a non-finite update or an exhausted budget,
            naming the stage ``n``; the error's history carries the recent
            ``(speed, update)`` pairs so a limit cycle's candidates are all
            visible.  A failed front Newton solve is re-raised naming the
            stage and sweep, with the front solve's own iterations, residual
            and history.
    """
    kinetics = truncate_kinetics(config.kinetics, n)
    rate = config.rate
    if grid is None:
        grid = resolve_grid(config)
    state = start if start is not None else _initial_state(config, grid)
    updates = []
    speeds = []
    for sweep in range(1, _MAX_SWEEPS + 1):
        try:
            new = _picard_step(state, kinetics, rate, grid)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"stage n={n}, sweep {sweep}: {exc}",
                iterations=exc.iterations,
                residual=exc.residual,
                history=exc.history,
            ) from exc
        delta = float(
            np.max(np.abs(new.psi.values - state.psi.values))
            + abs(new.speed - state.speed)
        )
        updates.append(delta)
        speeds.append(new.speed)
        logger.debug(
            "stage n=%d sweep %d: speed %.12g, update %.3g", n, sweep, new.speed, delta
        )
        state = new
        if not np.isfinite(delta):
            break
        if delta < config.outer_tol:
            return state, updates
    failure = "exhausted its sweep budget" if np.isfinite(delta) else "diverged"
    raise NonConvergenceError(
        f"stage n={n}: outer iteration {failure}",
        iterations=len(updates),
        residual=updates[-1],
        history=list(zip(speeds[-8:], updates[-8:])),
    )


def _floor_inactive(base: KineticsModel, theta, n: int) -> bool:
    """Whether the untruncated rate is at least ``1/n`` everywhere on the trace."""
    return bool(np.min(base.evaluate(np.maximum(theta, 0.0))) >= 1.0 / n)


def solve_traveling_wave(config: SolverConfig) -> TravelingWave:
    """Run the full truncation continuation and return the last stage's
    fixed point, its forcing and speed re-anchored on its trace.

    Raises:
        ConfigurationError: for inconsistent setup (via grid resolution).
        NonConvergenceError: if a stage's outer loop or front solve fails
            (neither is retried), or the stage budget runs out before the
            speed settles.
    """
    grid = resolve_grid(config)
    base = config.kinetics
    rate = config.rate
    state = _initial_state(config, grid)
    n = _FIRST_TRUNCATION
    prev_speed = None
    history = []

    k_hot = float(base.evaluate(1.0))
    for _ in range(_MAX_STAGES):
        if k_hot < 1.0 / n:
            # The floor lies above K on all of [0, 1] (K is nondecreasing).
            n *= 2
            continue
        state, updates = solve_at_truncation(config, n, grid=grid, start=state)
        floor_inactive = _floor_inactive(base, state.theta, n)
        gap = (
            abs(state.speed - prev_speed) if prev_speed is not None else np.inf
        )
        history.append(
            StageRecord(
                truncation=n,
                speed=state.speed,
                sweeps=len(updates),
                last_update=updates[-1],
                floor_inactive=floor_inactive,
                speed_gap=gap,
            )
        )
        logger.info(
            "stage n=%d: speed %.12g after %d sweeps (floor inactive: %s)",
            n,
            state.speed,
            len(updates),
            floor_inactive,
        )

        if base.evaluate(0.0) >= 1.0 / n:
            # The floor changes nothing anywhere, so this stage already
            # solved the untruncated problem.
            stop_reason = "truncation is a no-op for this rate law"
            break
        if gap < config.outer_tol:
            stop_reason = (
                "stage speeds settled; floor inactive along the front"
                if floor_inactive
                else "stage speeds settled with the floor still active"
            )
            break
        prev_speed = state.speed
        n *= 2
    else:
        raise NonConvergenceError(
            "continuation exhausted its stage budget before the speed settled; last "
            f"stage tried n={n // 2}, floor 1/n = {2.0 / n:.3g}, K(1) = {k_hot:.3g}",
            iterations=_MAX_STAGES,
            residual=history[-1].speed_gap if history else None,
            history=[rec.speed for rec in history][-8:],
        )

    forcing = build_forcing(truncate_kinetics(base, n), rate, state.theta)
    speed = compute_speed(forcing, state.psi)
    front_res = float(np.max(np.abs(front_residual(state.psi, speed, forcing))))
    residuals = ResidualNorms(
        front=front_res,
        outer=history[-1].last_update,
        trace_deviation=abs(float(np.mean(state.theta)) - 1.0),
    )
    wave = TravelingWave(
        speed=speed,
        psi=state.psi,
        theta=state.theta,
        forcing=forcing,
        field=state.field,
        kinetics=base,
        rate=rate,
        stop_reason=stop_reason,
        history=tuple(history),
        residuals=residuals,
    )
    if config.run_diagnostics:
        wave = replace(wave, report=_diagnostics.run_all(wave))
    return wave
