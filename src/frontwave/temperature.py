"""Temperature field behind the front, solved on a mapped semi-infinite strip.

The half-plane ahead of the front is straightened by the shear map
``X = x - psi(y)``, turning the advection-diffusion problem into a problem
on the strip ``X < 0``, ``0 <= y < 1`` with y-periodicity:

    (c + psi_yy) v_X - (1 + psi_y^2) v_XX + 2 psi_y v_XY - v_YY = 0,

with ``v`` decaying as ``X -> -inf`` and the flux condition
``(1 + psi_y^2) v_X - psi_y v_Y = c`` on the front line ``X = 0``.

Discretization: centered second-order differences on the nine-point stencil
in the interior.  The flux row eliminates a ghost line through the boundary
condition, with the centered difference de-biased by the leading-order
growth factor of the near-boundary profile; this keeps the discrete trace
slightly below its continuum value instead of above, so maximum-principle
style bounds survive discretization.

The operator is block-tridiagonal in X with periodic bands in Y: each node
line couples to itself and its X-neighbours through bands that wrap around
in Y (three-point in the interior, five-point on the flux row).  Interior
lines all hold the same bands, so the solve needs one ``ny x ny`` solvent
``G`` (``solve_temperature``), and the rows behind the trace are its images
under powers of ``G``, built by doubling; ``depth`` sets only ``hx`` and the
rows shown.
``assemble_system`` builds the operator of a finite strip with ``v = 0`` at
its cold end by repeating each band's nonzeros over the block rows it
occupies; each solve checks its 16 front rows against it and its solvent
against the ``ny x ny`` bands.
"""
from __future__ import annotations

import ctypes
import logging
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.sparse import linalg as sparse_linalg

from .errors import ConfigurationError, LinearSolverError
from .front import FrontProfile, _roll, _stencil, check_cell_count, front_derivatives

__all__ = [
    "StripGrid",
    "TemperatureField",
    "assemble_system",
    "solve_temperature",
    "gradient_energy",
]

_RESIDUAL_TOL = 1e-12
# The tail behind the front ends at the first row below this share of the trace.
_TAIL_CUT = 1e-14
# Fewest rows a tail holds, and the rows of the near-front check's strip. The
# solvent check already covers every interior row, so the strip is there for
# the flux row, and its assembly keeps the ``temperature.assemble`` span; 16 is
# the smallest strip ``StripGrid`` accepts. ROADMAP item 2 replaces the strip
# with the ny x ny residual of the trace system ``(F + B G) v = r``.
_MIN_ROWS = 16
# Thread-count symbols of numpy's (``@``) and scipy's (``linalg``) OpenBLAS.
_OPENBLAS = (
    ("numpy", "scipy_openblas_%s_num_threads64_"),
    ("scipy", "scipy_openblas_%s_num_threads"),
)

logger = logging.getLogger("frontwave")


def _openblas_controls() -> list:
    """``(get, set)`` thread-count functions of each bundled OpenBLAS found."""
    controls, states = [], []
    for package, symbol in _OPENBLAS:
        libs = Path(sys.modules[package].__file__).parents[1] / f"{package}.libs"
        try:
            lib = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*.so"))))
            get, set_threads = getattr(lib, symbol % "get"), getattr(lib, symbol % "set")
            get.argtypes, get.restype = [], ctypes.c_int
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            controls.append((get, set_threads))
            states.append(f"{package} pinned")
        except (StopIteration, OSError, AttributeError):
            states.append(f"{package} unpinned")
    logger.debug("BLAS thread pin: %s", ", ".join(states))
    return controls


class _BlasPin:
    """Holds every bundled OpenBLAS at one thread while any solve runs: on
    ``ny x ny`` blocks a worker thread costs more than it gains, and its
    busy-wait takes the core of a concurrent ``sweep`` row.  The counts are
    process-wide, so the first solve in saves and sets them and the last one
    out restores them.  The symbols are looked up on the first solve."""

    def __init__(self):
        self.lock, self.controls, self.active, self.saved = threading.Lock(), None, 0, []

    def __enter__(self):
        with self.lock:
            if self.controls is None:
                self.controls = _openblas_controls()
            if not self.active:
                self.saved = [get() for get, _ in self.controls]
                for _, set_threads in self.controls:
                    set_threads(1)
            self.active += 1

    def __exit__(self, *exc_info):
        with self.lock:
            self.active -= 1
            if not self.active:
                for (_, set_threads), count in zip(self.controls, self.saved):
                    set_threads(count)


_BLAS_PIN = _BlasPin()


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


def _periodic_band(legs) -> np.ndarray:
    """Dense band that wraps around: row ``j`` holds ``coeffs[j]`` in column
    ``(j + shift) mod n`` for each ``(shift, coeffs)`` leg."""
    rows = np.arange(len(legs[0][1]))
    band = np.zeros((rows.size, rows.size))
    for shift, coeffs in legs:
        band[rows, (rows + shift) % rows.size] += coeffs
    return band


def _strip_bands(psi: FrontProfile, c: float, grid: StripGrid):
    """Dense ``ny x ny`` Y-bands of the strip operator, ``bands[k]`` at X-offset
    ``k`` of an interior line, then the flux row's band, back-leg diagonal and
    right-hand side: one stencil for both solvers.  Raises as ``assemble_system``."""
    if psi.ny != grid.ny:
        raise ValueError("front profile size does not match the grid")
    if not (np.isfinite(c) and c > 0.0):
        raise ValueError("speed must be positive and finite")
    hx, hy = grid.hx, grid.hy
    if c * hx > 2.0:
        raise ConfigurationError(
            f"advection cell number c*hx = {c * hx:.3g} exceeds 2; refine nx"
        )

    _, slope, second, _ = _stencil(psi.values)
    d = 1.0 + slope * slope
    a = c + second

    w = a / (2.0 * hx) - d / (hx * hx)
    uu = -a / (2.0 * hx) - d / (hx * hx)
    diag = 2.0 * d / (hx * hx) + 2.0 / (hy * hy)
    m4 = slope / (2.0 * hx * hy)
    beta = 2.0 * hx * (1.0 + (a * hx / d) ** 2 / 6.0) / d

    lap_y = np.full(grid.ny, -1.0 / (hy * hy))
    bands = {
        0: _periodic_band([(0, diag), (1, lap_y), (-1, lap_y)]),
        1: _periodic_band([(0, w), (1, m4), (-1, -m4)]),
        -1: _periodic_band([(0, uu), (1, -m4), (-1, m4)]),
    }
    # Flux row: ghost line eliminated through the de-biased centered flux;
    # the ghost values of the y-neighbors enter through the mixed term and
    # widen the row to j +/- 2.
    mix = beta * slope / (2.0 * hy)
    mix_up, mix_down = _roll(mix, -1), _roll(mix, 1)
    flux = _periodic_band([
        (0, diag - m4 * (mix_up + mix_down)),
        (1, lap_y + w * mix),
        (-1, lap_y - w * mix),
        (2, m4 * mix_up),
        (-2, m4 * mix_down),
    ])
    beta_dy = _roll(beta, -1) - _roll(beta, 1)
    return bands, flux, -2.0 * d / (hx * hx), -c * (w * beta + m4 * beta_dy)


def assemble_system(psi: FrontProfile, c: float, grid: StripGrid):
    """Build the sparse (CSC) operator and right-hand side for the strip
    problem with ``v = 0`` at the cold end ``X = -depth``.

    Unknowns are the nodes ``i = 1..nx`` (the cold-end Dirichlet row is
    eliminated), numbered row-major as ``(i - 1) * ny + j``.

    Raises:
        ValueError: on dimension mismatch or a nonpositive speed.
        ConfigurationError: if the advection cell number ``c * hx`` exceeds 2,
            for which the centered scheme loses its sign structure.
    """
    bands, flux, back, flux_rhs = _strip_bands(psi, c, grid)
    nx, ny = grid.nx, grid.ny
    # (band, X-offset, block rows) per term; block row r holds node i = r + 1.
    # The interior rows 0..nx-2 hold one band per offset, less the leg of row
    # 0 into the Dirichlet line, and the flux row nx-1 holds the flux band and
    # the back leg.  Each band's nonzeros repeat over its block rows, so no
    # zero is stored, such as the mixed legs of a flat front.
    terms = [(band, k, np.arange(max(-k, 0), nx - 1)) for k, band in bands.items()]
    flux_line = np.array([nx - 1])
    terms += [(flux, 0, flux_line), (np.diag(back), -1, flux_line)]
    parts = []
    for band, k, blocks in terms:
        band_row, band_col = np.nonzero(band)
        starts = blocks[:, None] * ny
        parts.append((
            (starts + band_row).ravel(),
            (starts + k * ny + band_col).ravel(),
            np.tile(band[band_row, band_col], len(blocks)),
        ))
    row, col, data = (np.concatenate(part) for part in zip(*parts))
    # One conversion for all terms.
    matrix = sparse.csc_matrix((data, (row, col)), shape=(nx * ny, nx * ny))

    rhs = np.zeros(nx * ny)
    rhs[(nx - 1) * ny :] = flux_rhs
    return matrix, rhs


def _backward_error(matrix, solution, rhs) -> float:
    """Normwise backward error ``|r| / |(|A||x| + |b|)|`` of ``x`` as a
    solution of ``A x = b``, with residual ``r = b - A x``.

    Measured against the operator-and-solution scale rather than ``|b|``
    alone: the rhs carries only the boundary forcing while the rows scale
    like ``1/h^2``, so a plain ``|r|/|b|`` quotient has a double-precision
    floor above 1e-12 on fine grids even for a perfectly solved system.
    """
    error = np.linalg.norm(rhs - matrix @ solution)
    scale = np.linalg.norm(abs(matrix) @ np.abs(solution) + np.abs(rhs))
    return float(error / scale if scale else error)


def _solvent(W: np.ndarray, D: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Minimal solvent ``G`` of ``W + D G + U G^2 = 0`` by shifted cyclic
    reduction (Bini & Meini, Numer. Algorithms 51, 2009; He, Meini & Rhee,
    SIAM J. Matrix Anal. Appl. 23, 2001); each step inverts ``A1`` with
    numpy, which releases the interpreter lock.

    ``W + D + U`` is the periodic y-Laplacian for every front (the mixed legs
    cancel), so the pencil ``W + D z + U z^2`` has the root ``z = 1`` with
    the constant vector, and plain reduction would converge only at rate
    ``rho(G) ~ e^{-c hx}``.  Since ``1^T`` annihilates the Laplacian, the
    flux ``1^T (W v_{i+1} - U v_i)`` is the same on every line of a solution
    and zero on decaying ones, so ``1^T W = 1^T U G``; ``G`` therefore also
    solves the shifted equation with ``D + 1 1^T W / ny`` and
    ``U - 1 1^T U / ny``, whose root ``z = 1`` has moved to infinity; its
    next root, about ``e^{2 pi hx}`` from the first transverse mode, sets
    the rate.  The reduction stops once ``A0`` or ``A2`` is below ``1e-15``
    of ``A1``.  One closing step ``G = -(D + U G)^{-1} W`` on the
    unshifted bands damps the rounding left in the slowest mode, to which
    the trace is most sensitive.  A ``G`` left inexact at the step cap fails
    the solve's solvent check."""
    A0, A1, A2 = W, D + W.mean(axis=0), U - U.mean(axis=0)
    hat = A1
    # About log2(35 / ((c + 2 pi) hx)) steps, 6 at hx = 40/512 whatever c is.
    for _ in range(64):
        if min(np.max(np.abs(A0)), np.max(np.abs(A2))) <= 1e-15 * np.max(np.abs(A1)):
            break
        inverse = np.linalg.inv(A1)
        K0, K2 = inverse @ A0, inverse @ A2
        A2K0 = A2 @ K0
        A1 = A1 - A0 @ K2 - A2K0
        hat = hat - A2K0
        A0, A2 = -A0 @ K0, -A2 @ K2
    G = -np.linalg.solve(hat, W)
    return -np.linalg.solve(D + U @ G, W)


def _solvent_residual(W, D, U, G) -> float:
    """Normwise backward error ``|R| / (|W| + |D||G| + |U||G^2|)`` of ``G`` as
    a solvent, ``R = W + D G + U G^2``, in Frobenius norms (Higham & Kim,
    IMA J. Numer. Anal. 20, 2000)."""
    G2 = G @ G
    norm = np.linalg.norm
    scale = norm(W) + norm(D) * norm(G) + norm(U) * norm(G2)
    return float(norm(W + D @ G + U @ G2) / scale)


def solve_temperature(psi: FrontProfile, c: float, grid: StripGrid) -> TemperatureField:
    """Solve the semi-infinite strip problem for a frozen front and speed.

    Every interior line holds the Y-bands ``U, D, W`` at X-offsets -1, 0, +1,
    so the decaying solutions are ``v_{i-1} = G v_i``, ``G`` the minimal
    solvent of ``W + D G + U G^2 = 0`` (``rho(G) ~ e^{-c hx}``), found by
    shifted cyclic reduction, whose step count does not grow as ``c`` falls
    (``_solvent``).
    The trace solves the ``ny x ny`` flux system ``(F + B G) v = r`` (one
    sparse LU, one solve); the rows behind it are ``G v, G^2 v, ...``, built
    by doubling in one ``(nx + 1) x ny`` buffer: rows ``k..2k-1`` are rows
    ``0..k-1`` times ``(G^k)^T``, written in place, ``G^k`` by squaring, and
    only the new rows are tested against the cut.  The tail ends at the first
    row at index 15 or more whose max is below ``1e-14`` of the trace's (so
    at least 16 rows), or at ``nx + 1`` rows, and the rows beyond are zeros.
    ``depth`` sets only ``hx``: when the tail is longer than the grid,
    ``values[0]`` holds its continuation.

    Two checks, each bounded by ``1e-12``, both inside the BLAS pin; no
    correction step follows.  The solvent check bounds the relative residual
    ``R = W + D G + U G^2``: interior row ``k`` behind the trace has residual
    ``R v_{k-1}``, so it covers every deep row at once.  The near-front check
    is the normwise backward error of the flux row and the 15 rows behind it
    against ``assemble_system`` over those 16 rows, with the far leg
    ``U G v_15`` moved into the right-hand side.

    Raises:
        ValueError: on a nonpositive or nonfinite speed.
        ConfigurationError: if ``c * hx`` exceeds 2, before any factorization.
        LinearSolverError: if a reduction step or factorization fails, or
            either check is above ``1e-12`` or not a number (the solvent
            check is tested first); the error's ``residual`` is the failing
            value and its message names the check.
    """
    bands, flux, back, flux_rhs = _strip_bands(psi, c, grid)
    U, D, W = bands[-1], bands[0], bands[1]
    with _BLAS_PIN:
        try:
            G = _solvent(W, D, U)
            lu = sparse_linalg.splu(sparse.csc_matrix(flux + back[:, None] * G))
        except np.linalg.LinAlgError as exc:
            raise LinearSolverError(f"cyclic reduction failed: {exc}") from exc
        except RuntimeError as exc:
            raise LinearSolverError(f"sparse factorization failed: {exc}") from exc
        # Double into one buffer until a new row from index 15 on is below
        # the cut or the grid is full.
        tail = np.empty((grid.nx + 1, grid.ny))
        tail[0] = lu.solve(flux_rhs)
        cut = _TAIL_CUT * np.max(np.abs(tail[0]))
        rows, power, above = 1, G, np.ones(0, bool)
        while rows <= grid.nx and above.all():
            new = min(rows, grid.nx + 1 - rows)
            np.matmul(tail[:new], power.T, out=tail[rows : rows + new])
            power = power @ power
            first = max(rows, _MIN_ROWS - 1)
            above = np.abs(tail[first : rows + new]).max(axis=1) >= cut
            rows += new
        if not above.all():
            rows = first + 1 + np.argmin(above)
        tail[rows:] = 0.0
        values = tail[::-1]
        solvent = _solvent_residual(W, D, U, G)
        strip = StripGrid(_MIN_ROWS, grid.ny, _MIN_ROWS * grid.hx)
        matrix, rhs = assemble_system(psi, c, strip)
        rhs[: grid.ny] -= U @ (G @ tail[_MIN_ROWS - 1])
        near = _backward_error(matrix, values[-_MIN_ROWS:].ravel(), rhs)
    logger.debug(
        "temperature solve: %d of %d rows at c=%.6g, backward error %.3e (%d rows), "
        "solvent residual %.3e",
        rows, grid.nx + 1, c, near, _MIN_ROWS, solvent,
    )
    for name, value, what in (
        ("solvent", solvent, "relative residual of W + D G + U G^2"),
        ("near-front", near, f"backward error over the {_MIN_ROWS} front rows"),
    ):
        if not value <= _RESIDUAL_TOL:
            raise LinearSolverError(
                f"temperature solve failed its {name} check: {what} is {value:.3e}",
                residual=value,
            )
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
