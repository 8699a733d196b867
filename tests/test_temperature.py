"""Mapped-strip advection-diffusion solve and its exact-solution checks."""
import logging
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import splu

import frontwave.temperature as temperature
from frontwave import (
    ArrheniusKinetics,
    ConfigurationError,
    FrontProfile,
    LinearSolverError,
    PiecewiseConstantRate,
    SolverConfig,
    StripGrid,
    TemperatureField,
    assemble_system,
    front_derivatives,
    gradient_energy,
    solve_temperature,
    solve_traveling_wave,
)


def flat_profile(ny):
    return FrontProfile(np.zeros(ny))


def exact_flat_field(grid, speed):
    return np.exp(speed * np.add.outer(grid.x_nodes, np.zeros(grid.ny)))


def test_grid_layout():
    grid = StripGrid(nx=16, ny=8, depth=4.0)
    assert grid.hx == 0.25
    assert grid.hy == 0.125
    assert grid.x_nodes[0] == -4.0
    assert grid.x_nodes[-1] == 0.0
    assert grid.x_nodes.size == 17
    assert np.allclose(np.diff(grid.x_nodes), 0.25)
    assert grid.y_nodes.size == 8


def test_grid_validation():
    with pytest.raises(ValueError):
        StripGrid(nx=8, ny=8, depth=4.0)  # nx too small
    with pytest.raises(ValueError):
        StripGrid(nx=16, ny=12, depth=4.0)  # ny not a power of two
    with pytest.raises(ValueError):
        StripGrid(nx=16, ny=8, depth=0.0)


def test_field_validation():
    grid = StripGrid(nx=16, ny=8, depth=4.0)
    good = np.zeros((17, 8))
    TemperatureField(grid=grid, values=good, speed=1.0)
    with pytest.raises(ValueError):
        TemperatureField(grid=grid, values=np.zeros((16, 8)), speed=1.0)
    with pytest.raises(ValueError):
        TemperatureField(grid=grid, values=good, speed=0.0)
    bad = good.copy()
    bad[3, 3] = np.inf
    with pytest.raises(ValueError):
        TemperatureField(grid=grid, values=bad, speed=1.0)


def test_assembly_rejects_peclet_violation():
    grid = StripGrid(nx=512, ny=8, depth=40.0)
    with pytest.raises(ConfigurationError):
        assemble_system(flat_profile(8), 30.0, grid)
    with pytest.raises(ConfigurationError):
        solve_temperature(flat_profile(8), 30.0, grid)


def test_flat_assembly_has_no_mixed_coupling():
    grid = StripGrid(nx=32, ny=8, depth=8.0)
    matrix, _ = assemble_system(flat_profile(8), 1.0, grid)
    dense = matrix.toarray()
    ny = 8

    def index(i, j):
        return (i - 1) * ny + j

    # corner (diagonal-neighbor) couplings only arise from the mixed
    # derivative, which vanishes for a flat front
    for i in (2, 15, 31):
        for j in range(ny):
            for di, dj in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                ii = i + di
                if not (1 <= ii <= 32):
                    continue
                assert dense[index(i, j), index(ii, (j + dj) % ny)] == 0.0

    # nor are they stored: exactly the 5-point pattern, less the Dirichlet
    # leg of the first row block and the X+1 leg of the flux row
    per_row = np.diff(matrix.tocsr().indptr).reshape(32, ny)
    assert np.all(per_row[[0, -1]] == 4) and np.all(per_row[1:-1] == 5)
    assert matrix.nnz == 5 * 32 * ny - 2 * ny


def dense_strip_system(psi, c, grid):
    """Plain-loop reference: the nine-point stencil at every node
    ``i = 1..nx``, with ``v = 0`` at ``i = 0`` and the ghost node ``i = nx + 1``
    eliminated through the de-biased flux condition
    ``g_j = v[nx-1, j] + beta_j * (c + psi_y v_Y)``."""
    nx, ny, hx, hy = grid.nx, grid.ny, grid.hx, grid.hy
    slope, second = front_derivatives(psi)
    matrix = np.zeros((nx * ny, nx * ny))
    rhs = np.zeros(nx * ny)

    def col(i, j):
        return (i - 1) * ny + j % ny

    for i in range(1, nx + 1):
        for j in range(ny):
            d, a, m4 = 1.0 + slope[j] ** 2, c + second[j], slope[j] / (2 * hx * hy)
            stencil = {
                (0, 0): 2 * d / hx**2 + 2 / hy**2,
                (0, 1): -1 / hy**2,
                (0, -1): -1 / hy**2,
                (1, 0): a / (2 * hx) - d / hx**2,
                (-1, 0): -a / (2 * hx) - d / hx**2,
                (1, 1): m4,
                (1, -1): -m4,
                (-1, 1): -m4,
                (-1, -1): m4,
            }
            row = col(i, j)
            for (di, dj), coeff in stencil.items():
                ii, jj = i + di, j + dj
                if ii == 0:
                    continue
                if ii <= nx:
                    matrix[row, col(ii, jj)] += coeff
                    continue
                k = jj % ny
                dk, ak = 1.0 + slope[k] ** 2, c + second[k]
                beta = 2 * hx * (1 + (ak * hx / dk) ** 2 / 6) / dk
                matrix[row, col(nx - 1, k)] += coeff
                matrix[row, col(nx, k + 1)] += coeff * beta * slope[k] / (2 * hy)
                matrix[row, col(nx, k - 1)] -= coeff * beta * slope[k] / (2 * hy)
                rhs[row] -= coeff * beta * c
    return matrix, rhs


def test_curved_assembly_matches_plain_loop_reference():
    ny = 8
    y = np.arange(ny) / ny
    psi = FrontProfile(
        0.3 * (1.0 - np.cos(2.0 * np.pi * y)) + 0.1 * (1.0 + np.sin(4.0 * np.pi * y))
    )
    grid = StripGrid(nx=16, ny=ny, depth=4.0)
    matrix, rhs = assemble_system(psi, 0.7, grid)
    reference, reference_rhs = dense_strip_system(psi, 0.7, grid)
    # the flux row reaches j +/- 2 through the ghost values of its neighbors
    flux_row = reference[(grid.nx - 1) * ny + 3]
    assert np.count_nonzero(flux_row[-ny:]) == 5
    scale = np.max(np.abs(reference))
    np.testing.assert_allclose(matrix.toarray(), reference, rtol=0, atol=1e-13 * scale)
    np.testing.assert_allclose(rhs, reference_rhs, rtol=1e-13, atol=0)


def cosine_front(ny, amplitude=0.3):
    return FrontProfile(amplitude * (1.0 - np.cos(2.0 * np.pi * np.arange(ny) / ny)))


def deep_strip_rows(psi, c, grid):
    """Sparse reference for the semi-infinite strip: ``assemble_system`` and
    one ``splu`` solve on a Dirichlet strip with the grid's ``hx``, at least
    ``nx + 1`` rows deep and deep enough that ``e^{-c depth} < 1e-16``.
    Returns its rows, the trace last."""
    rows = max(grid.nx + 1, math.ceil(40.0 / (c * grid.hx)))
    deep = StripGrid(nx=rows, ny=grid.ny, depth=rows * grid.hx)
    matrix, rhs = assemble_system(psi, c, deep)
    # Bound at import, so a test that patches the solve's splu leaves it be.
    return splu(matrix).solve(rhs).reshape(rows, grid.ny)


def recording_splu(monkeypatch):
    """Record the shape of every matrix the solve factors."""
    factored = []

    def record(matrix, **options):
        factored.append(matrix.shape)
        return splu(matrix, **options)

    monkeypatch.setattr(temperature.sparse_linalg, "splu", record)
    return factored


def test_curved_solve_matches_dense_solve(monkeypatch):
    """Every row matches the deep-strip reference, and the one sparse LU is
    the ``ny x ny`` trace system."""
    factored = recording_splu(monkeypatch)
    cases = [
        # c * depth = 4: the tail is longer than the grid, and values[0]
        # holds its continuation, not a Dirichlet zero.
        (StripGrid(nx=32, ny=8, depth=8.0), cosine_front(8)),
        # The tail falls below 1e-14 of the trace long before the cold end.
        (StripGrid(nx=256, ny=8, depth=160.0), cosine_front(8, 0.05)),
    ]
    fields = []
    for grid, psi in cases:
        factored.clear()
        fields.append(solve_temperature(psi, 0.5, grid))
        reference = deep_strip_rows(psi, 0.5, grid)[-(grid.nx + 1) :]
        error = np.max(np.abs(fields[-1].values - reference))
        assert error <= 1e-12 * np.max(np.abs(reference))
        assert factored == [(8, 8)]
    assert np.all(fields[0].values[0] > 0.0)
    assert np.all(fields[1].values[:150] == 0.0)


def test_coarse_steep_front_trace_matches_deep_strip():
    """A 0.3 cosine at ny = 8 has a discrete tail decaying like e^{0.82 cX}:
    a strip cut where e^{cX} reaches e^{-30} put 1.2e-10 into its trace."""
    grid = StripGrid(nx=256, ny=8, depth=160.0)
    psi = cosine_front(8)
    field = solve_temperature(psi, 0.5, grid)
    reference = deep_strip_rows(psi, 0.5, grid)
    assert np.max(np.abs(field.trace - reference[-1])) <= 1e-12


@pytest.mark.parametrize("speed", [0.0, -1.0, np.nan, np.inf])
def test_solve_rejects_nonpositive_or_nonfinite_speed(speed):
    grid = StripGrid(nx=64, ny=8, depth=10.0)
    with pytest.raises(ValueError, match="speed must be positive and finite"):
        solve_temperature(flat_profile(8), speed, grid)


def test_curved_assembly_is_canonical_csc_without_stored_zeros():
    grid = StripGrid(nx=32, ny=8, depth=8.0)
    matrix, _ = assemble_system(cosine_front(8), 0.5, grid)
    assert matrix.format == "csc"
    assert matrix.has_canonical_format
    assert np.all(matrix.data != 0)


def test_nonfinite_linear_solve_is_linear_solver_error(monkeypatch):
    class NanLU:
        def solve(self, rhs):
            return np.full_like(rhs, np.nan)

    monkeypatch.setattr(temperature.sparse_linalg, "splu", lambda matrix, **options: NanLU())
    grid = StripGrid(nx=64, ny=8, depth=10.0)
    with pytest.raises(LinearSolverError) as info:
        solve_temperature(flat_profile(8), 1.0, grid)
    assert info.value.exit_code == 2


def test_backward_error_matches_linalg_norm_reference():
    rng = np.random.default_rng(7)
    n = 2000
    matrix = (
        sparse.random(n, n, density=2e-3, random_state=rng, format="csc")
        + sparse.eye(n, format="csc")
    )
    solution = rng.standard_normal(n)
    rhs = rng.standard_normal(n)
    error = temperature._backward_error(matrix, solution, rhs)
    reference = np.linalg.norm(rhs - matrix @ solution) / np.linalg.norm(
        abs(matrix) @ np.abs(solution) + np.abs(rhs)
    )
    assert error == pytest.approx(reference, rel=1e-14, abs=0.0)
    # A zero scale means |A||x| = 0 and b = 0, hence r = 0: no 0/0.
    zero = np.zeros(n)
    assert temperature._backward_error(matrix, zero, zero) == 0.0


def solve_log_fields(caplog):
    """Rows, near-front backward error and solvent residual from the
    per-solve log lines."""
    pattern = re.compile(
        r"temperature solve: (\d+) of \d+ rows at c=\S+, "
        r"backward error (\S+) \(16 rows\), solvent residual (\S+)"
    )
    matches = (pattern.fullmatch(r.getMessage()) for r in caplog.records)
    return [(int(m[1]), float(m[2]), float(m[3])) for m in matches if m]


def front_strip(psi, c, grid):
    """``assemble_system`` over the flux row and the 15 rows behind it."""
    return assemble_system(psi, c, StripGrid(16, grid.ny, 16 * grid.hx))


def recording_checks(monkeypatch, libs=()):
    """Record what each check sees: for the near-front check the thread
    counts of ``libs``, the matrix, solution and rhs; for the solvent check
    the thread counts and the value."""
    near, solvent = [], []
    backward_error = temperature._backward_error
    solvent_residual = temperature._solvent_residual

    def record_near(matrix, solution, rhs):
        near.append(([lib.threads for lib in libs], matrix, solution, rhs))
        return backward_error(matrix, solution, rhs)

    def record_solvent(*blocks):
        solvent.append(([lib.threads for lib in libs], solvent_residual(*blocks)))
        return solvent[-1][1]

    monkeypatch.setattr(temperature, "_backward_error", record_near)
    monkeypatch.setattr(temperature, "_solvent_residual", record_solvent)
    return near, solvent


def test_large_warm_strip_checks_its_rows_inside_the_blas_pin(monkeypatch, caplog):
    """Both checks run while every OpenBLAS copy is held at one thread, and
    the near-front check covers 16 rows whatever the tail length: a tail of
    about 190 rows, and one longer than the grid. The values do not depend on
    the thread count: each grid is first solved under the real pin."""
    cases = [
        (StripGrid(nx=256, ny=64, depth=80.0), cosine_front(64, 0.05)),
        (StripGrid(nx=64, ny=8, depth=10.0), cosine_front(8)),
    ]
    references = [solve_temperature(psi, 0.5, grid) for grid, psi in cases]
    libs = fake_openblas(monkeypatch)
    near, solvent = recording_checks(monkeypatch, libs)
    tails = []
    for (grid, psi), reference in zip(cases, references):
        near.clear()
        solvent.clear()
        caplog.clear()
        # The tail ends at the first deep-strip row below 1e-14 of the trace,
        # or at the grid's last row.
        deep = deep_strip_rows(psi, 0.5, grid)[::-1]
        below = np.max(np.abs(deep), axis=1) < 1e-14 * np.max(np.abs(deep[0]))
        with caplog.at_level(logging.DEBUG, logger="frontwave"):
            field = solve_temperature(psi, 0.5, grid)
        assert np.array_equal(field.values, reference.values)
        [(rows, error, residual)] = solve_log_fields(caplog)
        assert rows == 1 + np.argmax(np.append(below[: grid.nx], True))
        tails.append(rows)
        [(threads, matrix, solution, _)] = near
        assert threads == [1, 1] and solution.size == 16 * grid.ny
        assert np.array_equal(solution, field.values[-16:].ravel())
        strip, _ = front_strip(psi, 0.5, grid)
        assert matrix.shape == strip.shape and abs(matrix - strip).max() == 0.0
        [(threads, value)] = solvent
        assert threads == [1, 1] and value == pytest.approx(residual, rel=1e-3)
        assert [lib.threads for lib in libs] == [2, 3]
        assert error <= 1e-12 and residual <= 1e-12
        error = np.max(np.abs(field.values[::-1] - deep[: grid.nx + 1]))
        assert error <= 1e-12 * np.max(np.abs(deep))
    assert tails[0] * 64 > 10_000 and tails[1] == 65


def test_tail_at_the_row_floor_passes_both_checks(monkeypatch, caplog):
    """At c hx = 1.6 the tail falls below 1e-14 of the trace within 16 rows,
    so the checked strip is the whole tail, and its far leg is ``G v_15``."""
    grid = StripGrid(nx=64, ny=8, depth=128.0)
    psi = cosine_front(8, 0.01)
    near, _ = recording_checks(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="frontwave"):
        field = solve_temperature(psi, 0.8, grid)
    [(rows, error, residual)] = solve_log_fields(caplog)
    assert rows == 16 and error <= 1e-12 and residual <= 1e-12
    assert np.all(field.values[:-16] == 0.0)
    [(_, matrix, _, _)] = near
    assert abs(matrix - front_strip(psi, 0.8, grid)[0]).max() == 0.0
    reference = deep_strip_rows(psi, 0.8, grid)
    assert np.max(np.abs(field.values - reference)) <= 1e-12 * np.max(np.abs(reference))


def test_deep_tail_of_b4_wave_checks_only_its_16_front_rows(monkeypatch, caplog):
    """Arrhenius B = 4 on its auto 5632 x 64 grid returns more than 1500 rows
    per solve, and every near-front check still assembles 16 rows."""
    assembled = []
    assemble = temperature.assemble_system

    def record(psi, c, grid):
        assembled.append(grid.nx)
        return assemble(psi, c, grid)

    monkeypatch.setattr(temperature, "assemble_system", record)
    config = SolverConfig(
        kinetics=ArrheniusKinetics(prefactor=1.0, activation=4.0),
        rate=PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5)),
        ny=64,
        run_diagnostics=False,
    )
    with caplog.at_level(logging.DEBUG, logger="frontwave"):
        wave = solve_traveling_wave(config)
    logged = solve_log_fields(caplog)
    assert wave.grid.nx == 5632
    assert max(rows for rows, _, _ in logged) > 1500
    assert assembled == [16] * len(logged)
    assert all(error <= 1e-12 and residual <= 1e-12 for _, error, residual in logged)


class CountingLU:
    """An LU whose solves are counted."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


def perturbed_splu(monkeypatch, relative):
    """Make the solve factor its operator with every entry perturbed."""
    factored = []
    splu = temperature.sparse_linalg.splu
    rng = np.random.default_rng(3)

    def stub(matrix, **options):
        perturbed = matrix.copy()
        perturbed.data *= 1.0 + relative * rng.standard_normal(matrix.nnz)
        factored.append(CountingLU(splu(perturbed, **options)))
        return factored[-1]

    monkeypatch.setattr(temperature.sparse_linalg, "splu", stub)
    return factored


def test_inexact_factorization_is_linear_solver_error_after_one_solve(
    monkeypatch, caplog
):
    """A trace factorization off by 1e-6 is not corrected by further solves:
    the front rows built from the first solution are checked, and they fail."""
    grid = StripGrid(nx=64, ny=8, depth=10.0)
    psi = cosine_front(8)
    factored = perturbed_splu(monkeypatch, 1e-6)
    backward_error = temperature._backward_error
    near, solvent = recording_checks(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="frontwave"):
        with pytest.raises(LinearSolverError) as info:
            solve_temperature(psi, 1.0, grid)
    assert info.value.exit_code == 2
    assert len(factored) == 1 and factored[0].solves == 1
    [(rows, error, residual)] = solve_log_fields(caplog)
    [(_, matrix, solution, rhs)] = near
    # The tail is longer than the strip, so every grid row is returned; the
    # near-front check covers the 16 front rows against their sparse operator.
    assert rows == grid.nx + 1 and solution.size == 16 * grid.ny
    strip, _ = front_strip(psi, 1.0, grid)
    assert abs(matrix - strip).max() == 0.0
    # The rows are off the deep-strip reference by about the perturbation.
    offset = np.max(np.abs(solution[-grid.ny :] - deep_strip_rows(psi, 1.0, grid)[-1]))
    assert 1e-9 < offset < 1e-4
    # The solvent is exact; the error carries the near-front backward error.
    [(_, value)] = solvent
    assert value == pytest.approx(residual, rel=1e-3) and value <= 1e-12
    assert info.value.residual == backward_error(matrix, solution, rhs) > 1e-12
    assert error == pytest.approx(info.value.residual, rel=1e-3)
    assert "near-front check" in str(info.value)


def test_inexact_solvent_is_linear_solver_error_of_the_solvent_check(
    monkeypatch, caplog
):
    """A solvent off by 1e-10 fails the solvent check, which names itself and
    carries its residual."""
    solvent = temperature._solvent
    rng = np.random.default_rng(5)

    def perturbed(*bands):
        G = solvent(*bands)
        return G * (1.0 + 1e-10 * rng.standard_normal(G.shape))

    monkeypatch.setattr(temperature, "_solvent", perturbed)
    _, residuals = recording_checks(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="frontwave"):
        with pytest.raises(LinearSolverError) as info:
            solve_temperature(cosine_front(8), 0.5, PIN_GRID)
    assert info.value.exit_code == 2
    [(_, residual)] = residuals
    assert info.value.residual == residual > 1e-12
    assert "solvent check" in str(info.value)
    [(_, _, logged)] = solve_log_fields(caplog)
    assert logged == pytest.approx(residual, rel=1e-3)


class FakeOpenBLAS:
    """Thread-count functions of a stand-in OpenBLAS copy."""

    def __init__(self, threads):
        self.threads, self.requests = threads, []

    def get(self):
        return self.threads

    def set(self, threads):
        self.requests.append(threads)
        self.threads = threads


def fake_openblas(monkeypatch):
    """Two stand-in copies, at 2 and 3 threads, in place of the real ones."""
    libs = [FakeOpenBLAS(2), FakeOpenBLAS(3)]
    monkeypatch.setattr(
        temperature._BLAS_PIN, "controls", [(lib.get, lib.set) for lib in libs]
    )
    return libs


def threads_in_dense_steps(monkeypatch, libs, barrier=None):
    """Record the copies' thread counts as each solve enters its dense steps;
    with a barrier, hold every solve there until all have arrived."""
    seen = []
    solvent = temperature._solvent

    def record(*bands):
        seen.append([lib.threads for lib in libs])
        if barrier is not None:
            barrier.wait(timeout=30)
        return solvent(*bands)

    monkeypatch.setattr(temperature, "_solvent", record)
    return seen


PIN_GRID = StripGrid(nx=64, ny=8, depth=10.0)


def test_solve_pins_blas_to_one_thread_and_restores(monkeypatch):
    libs = fake_openblas(monkeypatch)
    seen = threads_in_dense_steps(monkeypatch, libs)
    solve_temperature(cosine_front(8), 0.5, PIN_GRID)
    assert seen == [[1, 1]]
    assert [lib.requests for lib in libs] == [[1, 2], [1, 3]]
    assert [lib.threads for lib in libs] == [2, 3]


def test_overlapping_solves_restore_thread_counts_when_the_last_exits(monkeypatch):
    libs = fake_openblas(monkeypatch)
    seen = threads_in_dense_steps(monkeypatch, libs, threading.Barrier(2))
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = [
            pool.submit(solve_temperature, cosine_front(8), c, PIN_GRID) for c in (0.5, 0.7)
        ]
        for run in runs:
            run.result()
    assert seen == [[1, 1], [1, 1]]
    # Pinned by the first solve in, restored by the last one out.
    assert [lib.requests for lib in libs] == [[1, 2], [1, 3]]
    assert [lib.threads for lib in libs] == [2, 3]
    assert temperature._BLAS_PIN.active == 0


def test_pin_under_thread_stress_pins_every_section_and_restores_once(monkeypatch):
    """Short pinned sections on more threads than cores, with a short switch
    interval: a lost update of the count would let a section run unpinned
    or restore twice."""
    libs = fake_openblas(monkeypatch)
    unpinned = []
    start = threading.Barrier(6)

    def sections():
        start.wait(timeout=30)
        for _ in range(2000):
            with temperature._BLAS_PIN:
                if [lib.threads for lib in libs] != [1, 1]:
                    unpinned.append([lib.threads for lib in libs])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            for run in [pool.submit(sections) for _ in range(6)]:
                run.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert unpinned == []
    assert temperature._BLAS_PIN.active == 0
    # Each pin is followed by exactly one restore to the saved count.
    for lib, count in zip(libs, (2, 3)):
        assert lib.threads == count
        assert lib.requests == [1, count] * (len(lib.requests) // 2)


def test_missing_openblas_symbols_solve_unpinned_with_one_debug_line(
    monkeypatch, caplog
):
    monkeypatch.setattr(temperature._BLAS_PIN, "controls", None)
    monkeypatch.setattr(
        temperature, "_OPENBLAS",
        (("numpy", "no_such_%s_threads"), ("scipy", "no_such_%s_threads")),
    )
    with caplog.at_level(logging.DEBUG, logger="frontwave"):
        first = solve_temperature(cosine_front(8), 0.5, PIN_GRID)
        second = solve_temperature(cosine_front(8), 0.5, PIN_GRID)
    lines = [r.getMessage() for r in caplog.records if "BLAS" in r.getMessage()]
    assert lines == ["BLAS thread pin: numpy unpinned, scipy unpinned"]
    assert temperature._BLAS_PIN.controls == []
    assert np.array_equal(first.values, second.values)


def test_bundled_openblas_thread_counts_are_restored(monkeypatch, caplog):
    """The real lookup, whatever it finds, logs once and leaves every
    thread count it pinned as it was."""
    monkeypatch.setattr(temperature._BLAS_PIN, "controls", None)
    with caplog.at_level(logging.DEBUG, logger="frontwave"):
        solve_temperature(cosine_front(8), 0.5, PIN_GRID)
        controls = temperature._BLAS_PIN.controls
        before = [get() for get, _ in controls]
        solve_temperature(cosine_front(8), 0.5, PIN_GRID)
    assert [get() for get, _ in controls] == before
    lines = [r.getMessage() for r in caplog.records if "BLAS" in r.getMessage()]
    assert len(lines) == 1
    assert lines[0].count("pinned") == 2 and len(controls) == lines[0].count(" pinned")


def test_flat_solution_is_transverse_invariant():
    grid = StripGrid(nx=64, ny=16, depth=10.0)
    field = solve_temperature(flat_profile(16), 1.0, grid)
    spread = field.values.max(axis=1) - field.values.min(axis=1)
    assert np.max(spread) <= 1e-12


def test_operator_annihilates_constants_at_interior_nodes():
    ny = 16
    y = np.arange(ny) / ny
    psi = FrontProfile(0.1 * (1.0 - np.cos(2.0 * np.pi * y)))
    grid = StripGrid(nx=64, ny=ny, depth=10.0)
    matrix, _ = assemble_system(psi, 0.7, grid)
    ones = np.ones(64 * ny)
    action = (matrix @ ones).reshape(64, ny)
    # rows whose stencil touches neither boundary: the first row block sees
    # the eliminated far-field node, the last one the flux condition
    assert np.max(np.abs(action[1:-1, :])) <= 1e-9


def test_flat_exact_solution_has_second_order_residual():
    """Inserting e^{cX} into the assembled system leaves an O(h^2) defect."""
    residuals = []
    for nx in (512, 1024):
        grid = StripGrid(nx=nx, ny=8, depth=40.0)
        matrix, rhs = assemble_system(flat_profile(8), 1.0, grid)
        exact = exact_flat_field(grid, 1.0)[1:, :].reshape(-1)
        residuals.append(np.max(np.abs(matrix @ exact - rhs)))
    assert residuals[0] <= 0.12 * (40.0 / 512) ** 2
    assert 3.0 <= residuals[0] / residuals[1] <= 5.0


@pytest.mark.xfail(
    strict=True,
    reason="second-order advection dispersion floors the flat-field error "
    "near c^2 h^2/12 = 5e-4 at this resolution; a 1e-4 match is not "
    "attainable without raising the scheme order, which would break the "
    "observed-order acceptance window",
)
def test_flat_solve_matches_exponential_to_1e4():
    grid = StripGrid(nx=512, ny=8, depth=40.0)
    field = solve_temperature(flat_profile(8), 1.0, grid)
    error = np.abs(field.values - exact_flat_field(grid, 1.0))
    assert np.max(error) <= 1e-4
    assert np.max(np.abs(field.trace - 1.0)) <= 1e-4


def test_flat_solve_matches_exponential_at_measured_floor():
    grid = StripGrid(nx=512, ny=8, depth=40.0)
    field = solve_temperature(flat_profile(8), 1.0, grid)
    error = np.abs(field.values - exact_flat_field(grid, 1.0))
    assert np.max(error) <= 8e-4
    assert np.max(np.abs(field.trace - 1.0)) <= 8e-4


def test_flat_solve_trace_integral_at_reference_speed():
    speed = 0.3678794
    grid = StripGrid(nx=512, ny=8, depth=40.0)
    field = solve_temperature(flat_profile(8), speed, grid)
    integral = np.mean(field.trace)
    assert integral == pytest.approx(1.0, abs=1e-4)


def test_trace_deviation_shrinks_under_refinement():
    speed = np.exp(-1.0)
    deviations = []
    for nx in (256, 512):
        grid = StripGrid(nx=nx, ny=8, depth=40.0)
        field = solve_temperature(flat_profile(8), speed, grid)
        deviations.append(np.max(np.abs(field.trace - 1.0)))
    assert deviations[0] / deviations[1] >= 3.0


def test_solution_stays_below_exponential_envelope_flat():
    speed = np.exp(-1.0)
    grid = StripGrid(nx=512, ny=8, depth=40.0)
    field = solve_temperature(flat_profile(8), speed, grid)
    envelope = exact_flat_field(grid, speed)
    assert np.max(field.values - envelope) <= 1e-6
    assert np.min(field.values) >= -1e-12


def test_wavy_solve_keeps_comparison_structure():
    """Nonnegativity and monotone column minima hold for any graph front."""
    ny = 32
    y = np.arange(ny) / ny
    psi = FrontProfile(0.3 * (1.0 - np.cos(2.0 * np.pi * y)))
    grid = StripGrid(nx=256, ny=ny, depth=30.0)
    field = solve_temperature(psi, 0.5, grid)
    assert np.min(field.values) >= -1e-12
    minima = field.values.min(axis=1)
    assert np.max(minima[:-1] - minima[1:]) <= 1e-8


def test_far_field_rows_are_negligible():
    speed = np.exp(-1.0)
    grid = StripGrid(nx=512, ny=8, depth=40.0)
    field = solve_temperature(flat_profile(8), speed, grid)
    assert np.max(np.abs(field.values[0])) <= 10.0 * np.exp(-speed * grid.depth)
    assert np.max(np.abs(field.values[1])) <= 10.0 * np.exp(
        -speed * (grid.depth - grid.hx)
    )


def test_trace_accessors_agree():
    grid = StripGrid(nx=64, ny=8, depth=10.0)
    field = solve_temperature(flat_profile(8), 1.0, grid)
    assert np.array_equal(field.trace, field.values[-1])
    assert field.trace.size == 8


def test_solve_is_deterministic():
    ny = 16
    y = np.arange(ny) / ny
    psi = FrontProfile(0.2 * (1.0 - np.cos(2.0 * np.pi * y)))
    grid = StripGrid(nx=128, ny=ny, depth=20.0)
    first = solve_temperature(psi, 0.6, grid)
    second = solve_temperature(psi, 0.6, grid)
    assert np.array_equal(first.values, second.values)


def test_gradient_energy_of_flat_field():
    grid = StripGrid(nx=512, ny=8, depth=40.0)
    field = solve_temperature(flat_profile(8), 1.0, grid)
    energy = gradient_energy(field, flat_profile(8))
    assert energy == pytest.approx(0.5, abs=1e-3)


def test_gradient_energy_of_zero_field():
    grid = StripGrid(nx=16, ny=8, depth=4.0)
    field = TemperatureField(grid=grid, values=np.zeros((17, 8)), speed=1.0)
    assert gradient_energy(field, flat_profile(8)) == 0.0
