"""Temperature field behind the front, solved on a mapped periodic strip.

The half-plane ahead of the front is straightened by the shear map
``X = x - psi(y)``, turning the advection-diffusion problem into a strip
problem on ``[-depth, 0] x [0, 1)`` with y-periodicity:

    (c + psi_yy) v_X - (1 + psi_y^2) v_XX + 2 psi_y v_XY - v_YY = 0,

with ``v = 0`` at the cold end ``X = -depth`` and the flux condition
``(1 + psi_y^2) v_X - psi_y v_Y = c`` on the front line ``X = 0``.

Discretization: centered second-order differences on the nine-point stencil
in the interior.  The flux row eliminates a ghost line through the boundary
condition, with the centered difference de-biased by the leading-order
growth factor of the near-boundary profile; this keeps the discrete trace
slightly below its continuum value instead of above, so maximum-principle
style bounds survive discretization.

The operator is block-tridiagonal in X with periodic bands in Y: each node
line couples to itself and its X-neighbours through bands that wrap around
in Y (three-point in the interior, five-point on the flux row).  It is
assembled from ``kron(X-offset, Y-band)`` terms in coordinate form, whose
entries are concatenated and converted to CSC once.

Only the warm part of the strip is solved.  Behind a front moving at speed
``c`` the temperature decays like ``e^{cX}``, so beyond ``X = -30/c`` it is
below ``e^{-30} ~ 9e-14``, under the ``1e-12`` backward-error target of the
solve.  Each solve therefore factors only the rows within that reach of the
front (at least 16, at most ``nx``), with the grid's own ``hx`` and the
Dirichlet end moved to the last of them; the rows beyond it are exact zeros.
``depth`` is the envelope for the slowest wave the grid must carry.  The
discrete tail decays at the rate ``c`` once the front is resolved in Y; a
steep front on a coarse Y grid decays more slowly (a 0.3 cosine at
``ny = 8``: about ``e^{0.82 cX}``, a truncation error near 2e-11).
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from .errors import ConfigurationError, LinearSolverError
from .front import FrontProfile, check_cell_count, front_derivatives

__all__ = [
    "StripGrid",
    "TemperatureField",
    "assemble_system",
    "solve_temperature",
    "gradient_energy",
]

_RESIDUAL_TOL = 1e-12
# Decay exponent c*|X| at which the solved part of the strip ends:
# e^{-30} ~ 9e-14 lies below _RESIDUAL_TOL.
_WARM_DECAY = 30.0
# Columns per panel of SuperLU's supernodal factorization (see
# solve_temperature for the scan behind the value).
_PANEL_SIZE = 6

logger = logging.getLogger("frontwave")


@dataclass(frozen=True)
class StripGrid:
    """Uniform tensor grid on the mapped strip ``[-depth, 0] x [0, 1)``.

    ``nx`` counts cells in the X direction (nodes ``0..nx`` with node ``nx``
    on the front line); ``ny`` counts periodic transverse nodes.
    """

    nx: int
    ny: int
    depth: float

    def __post_init__(self):
        if not isinstance(self.nx, (int, np.integer)) or self.nx < 16:
            raise ValueError("nx must be an integer >= 16")
        object.__setattr__(self, "ny", check_cell_count(self.ny))
        if not (np.isfinite(self.depth) and self.depth > 0.0):
            raise ValueError("depth must be positive and finite")
        object.__setattr__(self, "nx", int(self.nx))
        object.__setattr__(self, "depth", float(self.depth))

    @property
    def hx(self) -> float:
        return self.depth / self.nx

    @property
    def hy(self) -> float:
        return 1.0 / self.ny

    @property
    def x_nodes(self) -> np.ndarray:
        return -self.depth + np.arange(self.nx + 1) * self.hx

    @property
    def y_nodes(self) -> np.ndarray:
        return np.arange(self.ny) / self.ny


@dataclass(frozen=True, eq=False)
class TemperatureField:
    """Solved temperature on the strip; row ``i`` sits at ``x_nodes[i]``.

    Only shape and finiteness are enforced here; qualitative bounds on the
    values are the business of the diagnostics suite.
    """

    grid: StripGrid
    values: np.ndarray
    speed: float

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        if arr.shape != (self.grid.nx + 1, self.grid.ny):
            raise ValueError("field shape does not match the grid")
        if not np.all(np.isfinite(arr)):
            raise ValueError("field values must be finite")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)
        if not (np.isfinite(self.speed) and self.speed > 0.0):
            raise ValueError("speed must be positive and finite")

    @property
    def trace(self) -> np.ndarray:
        """Temperature along the front line ``X = 0``."""
        return self.values[-1]


def periodic_band(n: int, legs) -> sparse.coo_matrix:
    """``n x n`` band that wraps around: row ``j`` holds ``coeffs[j]`` in
    column ``(j + shift) mod n`` for each ``(shift, coeffs)`` leg."""
    rows = np.arange(n)
    cols = np.concatenate([(rows + shift) % n for shift, _ in legs])
    data = np.concatenate([np.broadcast_to(coeffs, n) for _, coeffs in legs])
    return sparse.coo_matrix((data, (np.tile(rows, len(legs)), cols)), shape=(n, n))


def assemble_system(psi: FrontProfile, c: float, grid: StripGrid):
    """Build the sparse (CSC) operator and right-hand side for the strip problem.

    Unknowns are the nodes ``i = 1..nx`` (the cold-end Dirichlet row is
    eliminated), numbered row-major as ``(i - 1) * ny + j``.

    Raises:
        ValueError: on dimension mismatch or a nonpositive speed.
        ConfigurationError: if the advection cell number ``c * hx`` exceeds 2,
            for which the centered scheme loses its sign structure.
    """
    if psi.ny != grid.ny:
        raise ValueError("front profile size does not match the grid")
    if not (np.isfinite(c) and c > 0.0):
        raise ValueError("speed must be positive and finite")
    hx, hy = grid.hx, grid.hy
    if c * hx > 2.0:
        raise ConfigurationError(
            f"advection cell number c*hx = {c * hx:.3g} exceeds 2; refine nx"
        )

    nx, ny = grid.nx, grid.ny
    slope, second = front_derivatives(psi)
    d = 1.0 + slope * slope
    a = c + second

    w = a / (2.0 * hx) - d / (hx * hx)
    uu = -a / (2.0 * hx) - d / (hx * hx)
    diag = 2.0 * d / (hx * hx) + 2.0 / (hy * hy)
    m4 = slope / (2.0 * hx * hy)
    gamma = 1.0 + (a * hx / d) ** 2 / 6.0
    beta = 2.0 * hx * gamma / d

    lap_y = -1.0 / (hy * hy)
    # Interior rows i = 1..nx-1, one Y-band per X-offset; eye() drops the
    # leg of row 1 that reaches the Dirichlet row i = 0.  kron is asked for
    # COO: by default it returns BSR, whose dense blocks store zeros.
    blocks = [
        (0, sparse.kron(sparse.eye(nx - 1, nx, k), periodic_band(ny, legs), "coo"))
        for k, legs in (
            (0, [(0, diag), (1, lap_y), (-1, lap_y)]),
            (1, [(0, w), (1, m4), (-1, -m4)]),
            (-1, [(0, uu), (1, -m4), (-1, m4)]),
        )
    ]

    # Flux row i = nx: ghost line eliminated through the de-biased centered
    # flux; the ghost values of the y-neighbors enter through the mixed term
    # and widen the row to j +/- 2.
    mix = beta * slope / (2.0 * hy)
    mix_up, mix_down = np.roll(mix, -1), np.roll(mix, 1)
    flux_band = periodic_band(ny, [
        (0, diag - m4 * (mix_up + mix_down)),
        (1, lap_y + w * mix),
        (-1, lap_y - w * mix),
        (2, m4 * mix_up),
        (-2, m4 * mix_down),
    ])
    back = sparse.diags(-2.0 * d / (hx * hx))
    flux_start = (nx - 1) * ny
    blocks += [
        (flux_start, sparse.kron(sparse.eye(1, nx, nx - 1), flux_band, "coo")),
        (flux_start, sparse.kron(sparse.eye(1, nx, nx - 2), back, "coo")),
    ]

    # One conversion for all terms; the mixed legs of a flat or locally flat
    # front are exact zeros and are not stored.
    row, col, data = (
        np.concatenate(parts)
        for parts in zip(*((b.row + start, b.col, b.data) for start, b in blocks))
    )
    matrix = sparse.csc_matrix((data, (row, col)), shape=(nx * ny, nx * ny))
    matrix.eliminate_zeros()

    rhs = np.zeros(nx * ny)
    beta_dy = np.roll(beta, -1) - np.roll(beta, 1)
    rhs[flux_start:] = -c * (w * beta + m4 * beta_dy)
    return matrix, rhs


def _norm(vector: np.ndarray) -> float:
    """Euclidean norm as the root of a pairwise sum of squares."""
    return math.sqrt(float(np.sum(np.square(vector))))


def _backward_error(matrix, solution, rhs) -> float:
    """Normwise backward error ``|r| / |(|A||x| + |b|)|`` of ``x`` as a
    solution of ``A x = b``, with residual ``r = b - A x``.

    Measured against the operator-and-solution scale rather than ``|b|``
    alone: the rhs carries only the boundary forcing while the rows scale
    like ``1/h^2``, so a plain ``|r|/|b|`` quotient has a double-precision
    floor above 1e-12 on fine grids even for a perfectly solved system.

    The norms are pairwise ``np.sum`` reductions, not ``np.linalg.norm``:
    that is ``sqrt(dot(x, x))``, and numpy's OpenBLAS runs ``ddot`` on
    several threads once a vector has more than 10,000 entries (a strip
    with 157 or more rows at ny = 64).  Its idle worker thread then
    busy-waits on a second core, the one a solve on another thread (a
    ``sweep --jobs 2`` row) needs.
    """
    error = _norm(rhs - matrix @ solution)
    scale = _norm(abs(matrix) @ np.abs(solution) + np.abs(rhs))
    return error / scale if scale else error


def solve_temperature(psi: FrontProfile, c: float, grid: StripGrid) -> TemperatureField:
    """Solve the strip problem for a frozen front profile and speed.

    Only the warm part of the strip is solved: the ``ceil(30 / (c * hx))``
    rows nearest the front (at least 16, at most ``nx``), where the
    ``e^{cX}`` tail is still above ``e^{-30} ~ 9e-14``.  The Dirichlet end
    sits at ``X = -rows * hx`` and the rows beyond it are exact zeros of the
    returned full-grid field; when ``rows == nx`` this is the whole strip.

    Factors the warm operator once by sparse LU with partial pivoting, solves
    once, and checks the normwise backward error of that one solution against
    ``1e-12``; no correction step follows.  LU with partial pivoting is
    backward stable while its growth factor stays small, and on every input
    measured the solution's backward error was at most about ``1e-16``.

    The columns are ordered by minimum degree on the pattern of ``A + A^T``:
    the nine-point strip operator is structurally symmetric apart from the
    flux row, so this ordering fits it and fills about half as much as the
    default COLAMD, which orders for ``A^T A``.  SuperLU works on panels of
    6 columns in place of its default width: a factor-only scan of every
    matrix the ``flat``, ``striated`` and ``sweep`` benchmark workloads
    factor, and of a 311x128 warm strip, over panel widths 2 to 16, found 6
    faster than the default on all four in each of three runs (by 6-23%).
    The panel width changes neither the column ordering nor the fill; only
    the order of the arithmetic moves, by about 1e-13 in the speed.

    Raises:
        ValueError: on a nonpositive or nonfinite speed.
        LinearSolverError: if factorization fails, or the backward error of
            the solution is above ``1e-12`` or not a number; the error's
            ``residual`` is that backward error.
    """
    if not (np.isfinite(c) and c > 0.0):
        raise ValueError("speed must be positive and finite")
    # c * depth <= 30 means the tail reaches the cold end: solve every row.
    # Otherwise c * hx > 30 / nx, so the quotient is finite and below nx.
    cells = _WARM_DECAY / (c * grid.hx) if c * grid.depth > _WARM_DECAY else grid.nx
    rows = min(grid.nx, max(16, math.ceil(cells)))
    warm = grid if rows == grid.nx else StripGrid(rows, grid.ny, rows * grid.hx)

    matrix, rhs = assemble_system(psi, c, warm)
    try:
        lu = sparse_linalg.splu(
            matrix, permc_spec="MMD_AT_PLUS_A", panel_size=_PANEL_SIZE
        )
    except RuntimeError as exc:
        raise LinearSolverError(f"sparse factorization failed: {exc}") from exc

    solution = lu.solve(rhs)
    relative = _backward_error(matrix, solution, rhs)
    logger.debug(
        "temperature solve: %d of %d rows at c=%.6g, backward error %.3e",
        rows, grid.nx, c, relative,
    )
    if not relative <= _RESIDUAL_TOL:
        raise LinearSolverError(
            "linear solve failed to reach the residual target "
            f"(backward error {relative:.3e})",
            residual=relative,
        )

    values = np.zeros((grid.nx + 1, grid.ny))
    values[grid.nx - rows + 1 :] = solution.reshape(rows, grid.ny)
    return TemperatureField(grid=grid, values=values, speed=float(c))


def gradient_energy(field: TemperatureField, psi: FrontProfile) -> float:
    """Dirichlet energy of the field in the sheared metric of the strip.

    Gradients are formed at X-midpoints (exact differences in X, averaged
    centered differences in Y), which keeps the quadrature second-order
    without touching values outside the strip.
    """
    if psi.ny != field.grid.ny:
        raise ValueError("front profile size does not match the grid")
    hx, hy = field.grid.hx, field.grid.hy
    v = field.values
    slope, _ = front_derivatives(psi)
    v_x = (v[1:] - v[:-1]) / hx
    v_y_nodes = (np.roll(v, -1, axis=1) - np.roll(v, 1, axis=1)) / (2.0 * hy)
    v_y = 0.5 * (v_y_nodes[1:] + v_y_nodes[:-1])
    integrand = (1.0 + slope * slope) * v_x * v_x - 2.0 * slope * v_x * v_y + v_y * v_y
    return float(np.sum(integrand) * hx * hy)
