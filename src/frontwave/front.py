"""Front geometry and the free-boundary Newton solver.

The front is a periodic graph ``x = psi(y)`` over the unit cell.  A traveling
front with speed ``c`` under a forcing ``H(y)`` (burning rate times reaction
rate at the front temperature) balances curvature against normal propagation:

    curvature(psi) + c - H(y) * sqrt(1 + psi_y^2) = 0,

where the mean of ``H * sqrt(1 + psi_y^2)`` pins down ``c`` because the
curvature term integrates to zero over a period.  The equation does not see a
constant shift of ``psi``, so the Newton solver holds ``psi[0]`` and each step
is one tridiagonal banded solve.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .errors import NonConvergenceError

__all__ = [
    "FrontProfile",
    "Forcing",
    "front_derivatives",
    "compute_speed",
    "front_residual",
    "relax_front",
]


# Stopping tolerance and caps per front solve; a converging solve takes a
# handful of full steps.
_FRONT_TOL = 1e-8
_MAX_NEWTON_STEPS = 50
_MAX_HALVINGS = 30


def check_cell_count(n, name: str = "ny", error=ValueError) -> int:
    """Return ``n`` as an int if it is a power of two >= 8; raise otherwise."""
    if not isinstance(n, (int, np.integer)) or n < 8 or (n & (n - 1)) != 0:
        raise error(f"{name} must be a power of two >= 8")
    return int(n)


def _periodic_values(obj, name: str, nonnegative=True) -> np.ndarray:
    arr = np.asarray(getattr(obj, "values", obj), dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional")
    check_cell_count(arr.size, "transverse node count")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    if nonnegative and np.any(arr < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    return arr


@dataclass(frozen=True, eq=False)
class FrontProfile:
    """Front offsets at the transverse nodes ``y_j = j / n``."""

    values: np.ndarray

    def __post_init__(self):
        arr = _periodic_values(self.values, "front profile").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def ny(self) -> int:
        return self.values.size


@dataclass(frozen=True, eq=False)
class Forcing:
    """Normal propagation strength ``H(y_j)`` sampled at the nodes."""

    values: np.ndarray

    def __post_init__(self):
        arr = _periodic_values(self.values, "forcing").copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)


def _roll(arr: np.ndarray, shift: int) -> np.ndarray:
    """``np.roll(arr, shift)`` of a 1-D array by two slices, for
    ``0 < |shift| < arr.size``; on ny-vectors ``np.roll``'s generic setup
    costs several times the copy."""
    return np.concatenate((arr[-shift:], arr[:-shift]))


def _stencil(arr: np.ndarray):
    """Periodic differences at spacing ``h = 1/n``, shared by every front
    operator: ``(forward slope, centered slope, centered second difference,
    conservative curvature)``.  The curvature differences the turning angles
    ``arctan`` of the forward slopes, so its period mean telescopes to zero and
    the front solve can drive the residual to round-off."""
    h = 1.0 / arr.size
    up = _roll(arr, -1)
    down = _roll(arr, 1)
    dplus = (up - arr) / h
    angle = np.arctan(dplus)
    slope = (up - down) / (2.0 * h)
    second = (up - 2.0 * arr + down) / (h * h)
    return dplus, slope, second, (angle - _roll(angle, 1)) / h


def front_derivatives(psi):
    """Centered periodic first and second differences of the profile.

    Returns:
        Tuple ``(slope, second)`` of ndarrays at the nodes.
    """
    arr = _periodic_values(psi, "front profile", nonnegative=False)
    _, slope, second, _ = _stencil(arr)
    return slope, second


def compute_speed(forcing, psi) -> float:
    """Propagation speed selected by the forcing on a given profile.

    The speed is the periodic average of ``H * sqrt(1 + psi_y^2)``; the
    uniform-grid mean is the exact trapezoid rule here.
    """
    H = _periodic_values(forcing, "forcing")
    arr = _periodic_values(psi, "front profile", nonnegative=False)
    if H.size != arr.size:
        raise ValueError("forcing and front profile sizes differ")
    slope = _stencil(arr)[1]
    return float(np.mean(H * np.sqrt(1.0 + slope * slope)))


def front_residual(psi, speed: float, forcing) -> np.ndarray:
    """Pointwise imbalance of the traveling-front equation."""
    H = _periodic_values(forcing, "forcing")
    arr = _periodic_values(psi, "front profile", nonnegative=False)
    if H.size != arr.size:
        raise ValueError("forcing and front profile sizes differ")
    _, slope, _, curv = _stencil(arr)
    return curv + speed - H * np.sqrt(1.0 + slope * slope)


def _newton_step(H, equations, dplus, slope, arc):
    """Newton step ``(dpsi, dc)`` with ``dpsi[0] = 0``.  Nodes 1..n-1 form one
    tridiagonal block (``band``, in ``solve_banded``'s layout), solved for the
    residual and the ``c`` column; node 0's row, wrapping to 1 and n-1, fixes ``dc``."""
    h = 1.0 / H.size
    flux = 1.0 / ((1.0 + dplus * dplus) * h * h)
    flux_down = _roll(flux, 1)
    arc_term = H * slope / (2.0 * h * arc)
    up, down = flux - arc_term, flux_down + arc_term
    band = np.stack([up[:-1], -(flux + flux_down)[1:], _roll(down, -2)[:-1]])
    rhs = np.column_stack([-equations[1:], np.ones(H.size - 1)])
    sol = linalg.solve_banded((1, 1), band, rhs)
    wrap = up[0] * sol[0] + down[0] * sol[-1]
    dc = (-equations[0] - wrap[0]) / (1.0 - wrap[1])
    return np.append(0.0, sol[:, 0] - dc * sol[:, 1]), dc


def relax_front(forcing, initial=None):
    """Solve the traveling-front balance for a frozen forcing.

    Damped Newton on unknowns ``(psi, c)`` with ``psi[0]`` held, equations
    the front residual at the nodes; each step is one tridiagonal banded
    solve.  A step is halved until the norm of the equations decreases; the
    solve stops when ``max|curvature + mean(H * arc) - H * arc| < 1e-8``.

    Args:
        forcing: ``Forcing`` (or array) of nonnegative strengths.
        initial: optional warm-start profile; defaults to a flat front.

    Returns:
        Tuple ``(speed, profile)`` with the profile min-normalized and the
        speed recomputed on the returned profile, so the pair satisfies the
        speed identity exactly.

    Raises:
        NonConvergenceError: if the residual fails to drop below tolerance
            within the step budget, no step length decreases it, or the
            equations are not finite.
    """
    H = _periodic_values(forcing, "forcing")
    psi = np.zeros_like(H)
    if initial is not None:
        psi = _periodic_values(initial, "front profile")
    if psi.size != H.size:
        raise ValueError("forcing and front profile sizes differ")

    def evaluate(psi, c=None):
        """Equations, stopping residual and step inputs at ``(psi, c)``."""
        dplus, slope, _, curv = _stencil(psi)
        arc = np.sqrt(1.0 + slope * slope)
        with np.errstate(over="ignore", invalid="ignore"):
            push = H * arc
            speed = float(np.mean(push))
            c = speed if c is None else c
            equations = curv + c - push
            residual = float(np.max(np.abs(curv + speed - push)))
        return psi, c, equations, residual, (dplus, slope, arc)

    psi, c, equations, residual, diffs = evaluate(psi)
    history = [residual]
    # Non-finite equations (an overflowing forcing) take no step.
    while _FRONT_TOL <= residual < np.inf and len(history) <= _MAX_NEWTON_STEPS:
        try:
            dpsi, dc = _newton_step(H, equations, *diffs)
        except np.linalg.LinAlgError:
            break  # singular: reported below like a step that cannot decrease
        if not np.all(np.isfinite(dpsi)):
            break  # a non-finite step ends the same way
        norm = np.linalg.norm(equations)
        for halving in range(_MAX_HALVINGS):
            lam = 0.5**halving
            trial = evaluate(psi + lam * dpsi, c + lam * dc)
            if np.linalg.norm(trial[2]) <= (1.0 - 1e-4 * lam) * norm:
                break
        else:
            break  # no step length decreases the equations
        psi, c, equations, residual, diffs = trial
        history.append(residual)
    if not residual < _FRONT_TOL:
        raise NonConvergenceError(
            "front Newton solve did not reach tolerance",
            iterations=len(history) - 1,
            residual=residual,
            history=history[-8:],
        )

    profile = FrontProfile(psi - psi.min())
    return compute_speed(H, profile), profile
