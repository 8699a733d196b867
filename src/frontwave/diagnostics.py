"""A-posteriori sanity checks on a converged traveling wave.

Each check tests a structural property the continuous problem guarantees --
speed bounds, conserved trace integral, qualitative monotonicity, a Jensen
inequality for the reacted mass, a nonnegative field under a pointwise
exponential barrier, an energy identity, and a curvature cap -- with
explicit slack for discretization error.  The speed, Jensen and curvature
slacks shrink with their bound once it falls below one, so they stay checks
on slow waves.  A failing check flags a wave that should not be trusted,
however converged the iteration counters look.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .front import front_derivatives
from .kinetics import PiecewiseConstantRate
from .temperature import gradient_energy

__all__ = [
    "CheckResult",
    "DiagnosticsReport",
    "run_all",
    "check_speed_lower",
    "check_speed_upper",
    "check_trace_integral",
    "check_trace_positivity",
    "check_jensen_bound",
    "check_monotone_minima",
    "check_field_nonnegative",
    "check_max_principle",
    "check_energy_identity",
    "check_curvature_cap",
]

SPEED_SLACK = 1e-3
TRACE_INTEGRAL_TOL = 5e-3
JENSEN_SLACK = 1e-3
MONOTONE_SLACK = 1e-8
BARRIER_SLACK = 1e-6
NEGATIVE_FIELD_SLACK = 1e-12
ENERGY_FACTOR = 1.05
CURVATURE_SLACK = 1e-3


@dataclass(frozen=True)
class CheckResult:
    """Outcome of a single structural check."""

    name: str
    statement: str
    passed: bool
    measured: float
    bound: float
    tolerance: float


@dataclass(frozen=True)
class DiagnosticsReport:
    """Bundle of check results for one wave."""

    checks: tuple

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def as_dict(self):
        return {
            "passed": self.passed,
            "checks": [asdict(check) for check in self.checks],
        }

    def summary(self) -> str:
        lines = []
        for check in self.checks:
            status = "PASS" if check.passed else "FAIL"
            lines.append(
                f"{status} {check.name}: measured {check.measured:.6g} "
                f"against bound {check.bound:.6g} "
                f"(tolerance {check.tolerance:.3g})"
            )
        verdict = "all checks passed" if self.passed else "CHECKS FAILED"
        lines.append(verdict)
        return "\n".join(lines)


def _scaled(slack: float, bound: float) -> float:
    """``slack * min(1, |bound|)``: absolute for bounds of order one or more,
    relative below, so a check against a small bound is not vacuous."""
    return float(slack * min(1.0, abs(bound)))


def _clipped_theta(wave) -> np.ndarray:
    return np.maximum(np.asarray(wave.theta, dtype=float), 0.0)


def check_speed_lower(wave) -> CheckResult:
    """Speed is at least the slowest burning rate times the reacted mass."""
    r_lo, _ = wave.rate.bounds
    bound = r_lo * wave.final_kinetics.unit_integral()
    slack = _scaled(SPEED_SLACK, bound)
    return CheckResult(
        name="speed_lower",
        statement="speed >= min(R) * integral of the floored rate law",
        passed=wave.speed >= bound - slack,
        measured=float(wave.speed),
        bound=float(bound),
        tolerance=slack,
    )


def check_speed_upper(wave) -> CheckResult:
    """Speed cannot exceed the fastest burning rate times the rate cap."""
    _, r_hi = wave.rate.bounds
    bound = r_hi * wave.final_kinetics.supremum
    slack = _scaled(SPEED_SLACK, bound)
    return CheckResult(
        name="speed_upper",
        statement="speed <= max(R) * supremum of the floored rate law",
        passed=wave.speed <= bound + slack,
        measured=float(wave.speed),
        bound=float(bound),
        tolerance=slack,
    )


def check_trace_integral(wave) -> CheckResult:
    """The front-line temperature averages to one over a period."""
    mean = float(np.mean(wave.theta))
    return CheckResult(
        name="trace_integral",
        statement="mean of theta over the period equals 1",
        passed=abs(mean - 1.0) <= TRACE_INTEGRAL_TOL,
        measured=mean,
        bound=1.0,
        tolerance=TRACE_INTEGRAL_TOL,
    )


def check_trace_positivity(wave) -> CheckResult:
    """The front line stays strictly warm."""
    minimum = float(np.min(wave.theta))
    return CheckResult(
        name="trace_positivity",
        statement="min of theta over the period is strictly positive",
        passed=minimum > 0.0,
        measured=minimum,
        bound=0.0,
        tolerance=0.0,
    )


def check_jensen_bound(wave) -> CheckResult:
    """Jensen-type bound: mean reaction on the front beats the unit integral."""
    kin = wave.final_kinetics
    mean_rate = float(np.mean(kin.evaluate(_clipped_theta(wave))))
    bound = kin.unit_integral()
    slack = _scaled(JENSEN_SLACK, bound)
    return CheckResult(
        name="jensen_bound",
        statement="mean of K(theta) >= integral of K over the unit interval",
        passed=mean_rate >= bound - slack,
        measured=mean_rate,
        bound=float(bound),
        tolerance=slack,
    )


def check_monotone_minima(wave) -> CheckResult:
    """Transverse minima of the field grow toward the front line."""
    minima = np.min(wave.field.values, axis=1)
    worst = float(np.max(minima[:-1] - minima[1:]))
    return CheckResult(
        name="monotone_minima",
        statement="row-wise minima of the field are nondecreasing in X",
        passed=worst <= MONOTONE_SLACK,
        measured=worst,
        bound=0.0,
        tolerance=MONOTONE_SLACK,
    )


def check_field_nonnegative(wave) -> CheckResult:
    """The field stays nonnegative."""
    lowest = float(np.min(wave.field.values))
    return CheckResult(
        name="field_nonnegative",
        statement="field >= 0 at every node",
        passed=lowest >= -NEGATIVE_FIELD_SLACK,
        measured=lowest,
        bound=0.0,
        tolerance=NEGATIVE_FIELD_SLACK,
    )


def check_max_principle(wave) -> CheckResult:
    """The field stays below the exponential barrier."""
    grid = wave.field.grid
    barrier = np.exp(
        wave.speed * (grid.x_nodes[:, None] + wave.psi.values[None, :])
    )
    excess = float(np.max(wave.field.values - barrier))
    return CheckResult(
        name="max_principle",
        statement="field <= exp(speed * (X + psi)) at every node",
        passed=excess <= BARRIER_SLACK,
        measured=excess,
        bound=0.0,
        tolerance=BARRIER_SLACK,
    )


def check_energy_identity(wave) -> CheckResult:
    """Dirichlet energy matches the boundary flux it must equal."""
    energy = gradient_energy(wave.field, wave.psi)
    bound = ENERGY_FACTOR * wave.speed
    return CheckResult(
        name="energy_identity",
        statement="gradient energy <= 1.05 * speed",
        passed=energy <= bound,
        measured=float(energy),
        bound=float(bound),
        tolerance=ENERGY_FACTOR - 1.0,
    )


def check_curvature_cap(wave) -> CheckResult:
    """Front curvature is capped by twice the speed ceiling.

    Nodes within two cells of a striation edge are excluded: the profile has
    a genuine curvature kink there and the centered second difference is not
    a faithful sample of it.
    """
    slope, second = front_derivatives(wave.psi)
    ny = slope.size
    _, r_hi = wave.rate.bounds
    cap = 2.0 * r_hi * wave.final_kinetics.supremum
    allowed = cap * (1.0 + slope * slope) ** 1.5
    excess = np.abs(second) - allowed
    mask = np.ones(ny, dtype=bool)
    if isinstance(wave.rate, PiecewiseConstantRate):
        nodes = np.arange(ny)
        for edge in wave.rate.edges:
            center = int(round(edge * ny)) % ny
            dist = np.abs((nodes - center + ny // 2) % ny - ny // 2)
            mask &= dist > 2
    worst = float(np.max(excess[mask])) if mask.any() else 0.0
    slack = _scaled(CURVATURE_SLACK, cap)
    return CheckResult(
        name="curvature_cap",
        statement=(
            "|psi_yy| <= 2 * max(R) * sup(K) * (1 + psi_y^2)^(3/2) away "
            "from striation edges"
        ),
        passed=worst <= slack,
        measured=worst,
        bound=0.0,
        tolerance=slack,
    )


_ALL_CHECKS = (
    check_speed_lower,
    check_speed_upper,
    check_trace_integral,
    check_trace_positivity,
    check_jensen_bound,
    check_monotone_minima,
    check_field_nonnegative,
    check_max_principle,
    check_energy_identity,
    check_curvature_cap,
)


def run_all(wave) -> DiagnosticsReport:
    """Run every structural check against a wave."""
    return DiagnosticsReport(checks=tuple(check(wave) for check in _ALL_CHECKS))
