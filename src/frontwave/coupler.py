"""Outer solver: couples the front solve to the temperature field.

The traveling wave is a fixed point of the loop

    trace -> forcing H = R(y) * K(trace) -> front (speed, profile) ->
    temperature field -> trace,

iterated undamped.  Because the reaction rate may vanish in the cold limit,
the loop runs on floored rate laws ``max(K, 1/n)``, n = 1, 2, 4, ..., 2**23.
Only a stage whose floor is inactive along the front ends the continuation,
when the truncation is a no-op or its speed is within ``outer_tol`` of the
last stage's: a stage whose floor binds solves ``max(K, 1/n)``, not ``K``.  A
stage whose sweeps diverge or run out of budget is not retried: it raises
``NonConvergenceError`` with its sweep history.

The wave quotes the last stage's fixed point (profile, trace, field).  No
sweep follows it: only the speed is rebuilt from the wave's own forcing, so
the speed identity holds exactly.  The wave derives that forcing, its
residual norms and why the continuation stopped from its state.

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
    "TravelingWave",
    "resolve_grid",
    "build_forcing",
    "solve_at_truncation",
    "solve_traveling_wave",
]

logger = logging.getLogger("frontwave")

_EDGE_ALIGN_TOL = 1e-9

# Continuation budgets: the sweeps per stage and the stages per solve.
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


@dataclass(frozen=True, eq=False)
class TravelingWave:
    """A converged traveling wave with its audit trail."""

    # A solve that does not converge raises; no unconverged wave is built.
    converged: ClassVar[bool] = True

    speed: float
    psi: FrontProfile
    theta: np.ndarray
    field: TemperatureField
    kinetics: KineticsModel
    rate: CombustionRate
    history: tuple
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
    def stop_reason(self) -> str:
        """Why the continuation stopped, by the stage loop's tests in order."""
        if self.kinetics.evaluate(0.0) >= 1.0 / self.final_truncation:
            return "truncation is a no-op for this rate law"
        return "stage speeds settled; floor inactive along the front"

    @property
    def final_kinetics(self) -> KineticsModel:
        """The floored law ``max(K, 1/n)`` of the stage the wave quotes."""
        return truncate_kinetics(self.kinetics, self.final_truncation)

    @property
    def forcing(self) -> Forcing:
        """The final law's forcing on the quoted trace."""
        return build_forcing(self.final_kinetics, self.rate, self.theta)

    @property
    def residuals(self) -> dict:
        """Convergence measures quoted with the wave.  ``front`` is taken
        against the final trace's forcing, which the last front solve did not
        see, so it can exceed the Newton tolerance by the last update."""
        residual = front_residual(self.psi, self.speed, self.forcing)
        return {
            "front": float(np.max(np.abs(residual))),
            "outer": self.history[-1].last_update,
            "trace_deviation": abs(float(np.mean(self.theta)) - 1.0),
        }


def _stage_speed_cap(config: SolverConfig) -> float:
    _, r_hi = config.rate.bounds
    return r_hi * max(config.kinetics.supremum, 1.0)


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
            visible.
        FrontwaveError: any error of a sweep, re-raised as its own type with
            its attributes, naming the stage and sweep; a field that cannot be
            allocated becomes a ``ConfigurationError``.
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
        except MemoryError as exc:
            raise ConfigurationError(
                f"stage n={n}, sweep {sweep}: the {grid.nx + 1} x {grid.ny} field "
                "cannot be allocated; give grid nx and depth"
            ) from exc
        except FrontwaveError as exc:
            raise type(exc)(
                f"stage n={n}, sweep {sweep}: {exc}",
                exc.iterations, exc.residual, exc.history,
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


def solve_traveling_wave(config: SolverConfig) -> TravelingWave:
    """Run the full truncation continuation and return the last stage's
    fixed point, its speed re-anchored on its trace.

    Raises:
        ConfigurationError: for inconsistent setup (via grid resolution).
        NonConvergenceError: if a stage's outer loop or front solve fails
            (neither is retried), or the stage budget runs out before a stage
            settles with its floor inactive.
    """
    grid = resolve_grid(config)
    base = config.kinetics
    state = _initial_state(config, grid)
    history = []

    k_hot = float(base.evaluate(1.0))
    for n in (2**k for k in range(_MAX_STAGES)):
        if k_hot < 1.0 / n:
            # The floor lies above K on all of [0, 1] (K is nondecreasing).
            continue
        state, updates = solve_at_truncation(config, n, grid=grid, start=state)
        # The floor is inactive when K is at least 1/n everywhere on the trace.
        k_min = float(np.min(base.evaluate(np.maximum(state.theta, 0.0))))
        floor_inactive = k_min >= 1.0 / n
        gap = abs(state.speed - history[-1].speed) if history else np.inf
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
            "stage n=%d: speed %.12g after %d sweeps, min theta %.6g, "
            "floor margin n*min K(theta) %.6g (floor inactive: %s)",
            n,
            state.speed,
            len(updates),
            float(np.min(state.theta)),
            n * k_min,
            floor_inactive,
        )

        # Either the floor changes nothing anywhere, so this stage already
        # solved the untruncated problem, or the stage settled above it.
        if base.evaluate(0.0) >= 1.0 / n or (
            floor_inactive and gap < config.outer_tol
        ):
            break
    else:
        raise NonConvergenceError(
            "continuation exhausted its stage budget before a stage settled with "
            f"its floor inactive; last stage tried n={n}, floor 1/n = "
            f"{1.0 / n:.3g}, K(1) = {k_hot:.3g}",
            iterations=_MAX_STAGES,
            residual=history[-1].speed_gap if history else None,
            history=[rec.speed for rec in history][-8:],
        )

    wave = TravelingWave(
        speed=state.speed,
        psi=state.psi,
        theta=state.theta,
        field=state.field,
        kinetics=base,
        rate=config.rate,
        history=tuple(history),
    )
    wave = replace(wave, speed=compute_speed(wave.forcing, wave.psi))
    if config.run_diagnostics:
        wave = replace(wave, report=_diagnostics.run_all(wave))
    return wave
