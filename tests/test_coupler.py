"""Outer fixed-point loop, truncation continuation, and the full solve."""
import logging
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from frontwave import (
    ArrheniusKinetics,
    ConfigurationError,
    ConstantKinetics,
    FrontwaveError,
    NonConvergenceError,
    PiecewiseConstantRate,
    SmoothRate,
    SolverConfig,
    build_forcing,
    compute_speed,
    front_residual,
    resolve_grid,
    solve_at_truncation,
    solve_traveling_wave,
    truncate_kinetics,
)
import frontwave.coupler as coupler
from frontwave.coupler import _picard_step, _PicardState


def flat_like(**overrides):
    base = dict(
        kinetics=ArrheniusKinetics(prefactor=1.0, activation=1.0),
        rate=SmoothRate(mean=1.0),
        ny=16,
        nx=512,
        depth=40.0,
    )
    base.update(overrides)
    return SolverConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigurationError):
        flat_like(outer_tol=0.0)
    with pytest.raises(ConfigurationError):
        flat_like(ny=24)
    with pytest.raises(ConfigurationError):
        flat_like(nx=8)


def test_resolve_grid_passthrough_and_auto():
    explicit = resolve_grid(flat_like())
    assert (explicit.nx, explicit.ny, explicit.depth) == (512, 16, 40.0)

    auto = resolve_grid(flat_like(nx=None, depth=None))
    expected_depth = 10.0 / oracles.ARRHENIUS_UNIT_INTEGRAL_FROZEN[1.0]
    assert auto.depth == pytest.approx(expected_depth, rel=1e-9)
    assert auto.nx >= 512
    assert auto.nx % 32 == 0
    # the fastest continuation stage must stay inside the advection guard
    assert 1.0 * auto.hx <= 2.0


def test_resolve_grid_rejects_peclet_violation():
    config = flat_like(kinetics=ConstantKinetics(30.0))
    with pytest.raises(ConfigurationError):
        resolve_grid(config)


def test_resolve_grid_rejects_misaligned_striation():
    config = flat_like(
        rate=PiecewiseConstantRate(edges=(0.0, 1.0 / 3.0), values=(1.0, 2.0))
    )
    with pytest.raises(ConfigurationError):
        resolve_grid(config)


def test_build_forcing_matches_pointwise_product():
    kinetics = ArrheniusKinetics(1.0, 1.0)
    rate = PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5))
    theta = np.linspace(0.4, 1.2, 16)
    forcing = build_forcing(kinetics, rate, theta)
    y = np.arange(16) / 16
    assert np.array_equal(
        forcing.values, rate.evaluate(y) * kinetics.evaluate(theta)
    )


def test_build_forcing_clips_solver_noise_but_rejects_negative_trace():
    kinetics = ConstantKinetics(1.0)
    rate = SmoothRate(mean=1.0)
    noisy = np.full(16, 0.5)
    noisy[3] = -1e-12
    forcing = build_forcing(kinetics, rate, noisy)
    assert forcing.values[3] == 1.0
    bad = np.full(16, 0.5)
    bad[3] = -1e-6
    with pytest.raises(FrontwaveError) as info:
        build_forcing(kinetics, rate, bad)
    assert info.value.exit_code == 2


def test_picard_fixed_point_invariance(flat_wave, flat_config):
    kinetics = truncate_kinetics(flat_config.kinetics, flat_wave.final_truncation)
    state = _PicardState(
        speed=flat_wave.speed,
        psi=flat_wave.psi,
        theta=flat_wave.theta,
        field=flat_wave.field,
    )
    out = _picard_step(state, kinetics, flat_config.rate, flat_wave.grid)
    assert abs(out.speed - state.speed) <= 1e-8
    assert np.max(np.abs(out.psi.values - state.psi.values)) <= 1e-8
    assert np.max(np.abs(out.theta - state.theta)) <= 1e-8


def count_sweep_solves(monkeypatch):
    """Wrap the front and temperature solves the coupler calls with counters."""
    calls = {"relax_front": 0, "solve_temperature": 0}

    def counted(name):
        real = getattr(coupler, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(coupler, name, wrapper)

    counted("relax_front")
    counted("solve_temperature")
    return calls


def test_picard_step_skips_an_already_solved_forcing(monkeypatch):
    config = flat_like(
        rate=PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5)),
        nx=None,
        depth=None,
    )
    grid = resolve_grid(config)
    # At n = 1 the floor binds everywhere, so the forcing is the rate itself
    # and the stage ends on a sweep that repeats a solved forcing.
    kinetics = truncate_kinetics(config.kinetics, 1)
    state, _, _ = solve_at_truncation(config, 1, grid=grid)
    assert state.forcing is not None
    assert np.array_equal(
        state.forcing.values, build_forcing(kinetics, config.rate, state.theta).values
    )
    calls = count_sweep_solves(monkeypatch)

    assert _picard_step(state, kinetics, config.rate, grid) is state
    assert calls == {"relax_front": 0, "solve_temperature": 0}

    # The sweep the skip stands in for gives back the same state, bit for bit.
    full = _picard_step(state._replace(forcing=None), kinetics, config.rate, grid)
    assert calls == {"relax_front": 1, "solve_temperature": 1}
    assert full.speed == state.speed
    assert np.array_equal(full.psi.values, state.psi.values)
    assert np.array_equal(full.theta, state.theta)
    assert np.array_equal(full.forcing.values, state.forcing.values)


def test_skipped_sweeps_still_count_and_are_logged(monkeypatch, caplog):
    calls = count_sweep_solves(monkeypatch)
    with caplog.at_level(logging.DEBUG, logger="frontwave"):
        wave = solve_traveling_wave(flat_like(run_diagnostics=False))
    sweep_lines = [
        r.getMessage() for r in caplog.records if ", update " in r.getMessage()
    ]
    skipped = [line for line in sweep_lines if "sweep skipped" in line]
    stages = [(rec.truncation, rec.sweeps) for rec in wave.history]
    assert stages == [(1, 1), (2, 2), (4, 3), (8, 1)]
    assert len(sweep_lines) == sum(sweeps for _, sweeps in stages)
    # The second sweep of n = 2 repeats the forcing R/2 of the first.
    assert skipped == [
        f"stage n=2 sweep 2: speed {wave.history[1].speed:.12g}, update 0 "
        "(forcing already solved; sweep skipped)"
    ]
    # One front and one temperature solve per sweep, none for the skipped
    # sweep, and none after the last stage.
    assert calls["relax_front"] == calls["solve_temperature"] == 7 - 1


def test_undamped_iteration_converges_quickly_for_uniform_rate():
    config = flat_like()
    state, sweeps, updates = solve_at_truncation(config, 64)
    assert sweeps <= 50
    assert state.speed == pytest.approx(math.exp(-1.0), abs=5e-4)
    assert len(updates) == sweeps


def test_floor_dominated_stage_is_pure_geometry():
    config = flat_like(rate=SmoothRate(mean=0.8))
    state, _, _ = solve_at_truncation(config, 1)
    # floor 1 dominates the sub-unit law, so the forcing is the rate itself
    assert state.speed == pytest.approx(0.8, abs=1e-10)
    assert np.max(np.abs(state.psi.values)) <= 1e-10


def test_deep_truncation_recovers_base_law():
    config = flat_like()
    state, _, _ = solve_at_truncation(config, 1024)
    assert state.speed == pytest.approx(math.exp(-1.0), abs=5e-4)


def test_warm_start_reaches_the_same_fixed_point():
    config = flat_like()
    grid = resolve_grid(config)
    cold, cold_sweeps, _ = solve_at_truncation(config, 64, grid=grid)
    warm, warm_sweeps, _ = solve_at_truncation(config, 128, grid=grid, start=cold)
    assert warm.speed == pytest.approx(cold.speed, abs=1e-6)
    assert warm_sweeps <= cold_sweeps


def test_solve_at_truncation_reports_nonconvergence_history(monkeypatch):
    monkeypatch.setattr(coupler, "_MAX_SWEEPS", 1)
    config = flat_like(
        rate=PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5)),
        nx=None,
        depth=None,
    )
    with pytest.raises(NonConvergenceError) as excinfo:
        solve_at_truncation(config, 4)
    err = excinfo.value
    assert err.iterations == 1
    assert len(err.history) == 1
    speed, update = err.history[0]
    assert np.isfinite(speed) and np.isfinite(update)


def test_stage_retries_neither_outer_nor_front_failures(monkeypatch):
    striated = dict(
        rate=PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5)),
        nx=None,
        depth=None,
    )
    stage_calls = []
    real_stage = coupler.solve_at_truncation

    def counting_stage(config, n, **kwargs):
        stage_calls.append(n)
        return real_stage(config, n, **kwargs)

    monkeypatch.setattr(coupler, "solve_at_truncation", counting_stage)
    monkeypatch.setattr(coupler, "_MAX_SWEEPS", 1)
    with pytest.raises(NonConvergenceError, match="exhausted") as excinfo:
        solve_traveling_wave(flat_like(**striated))
    assert stage_calls == [1]
    err = excinfo.value
    assert "stage n=1" in str(err)
    assert err.iterations == 1
    assert len(err.history) == 1

    front_calls = []

    def failing_front(*args, **kwargs):
        front_calls.append(args)
        raise NonConvergenceError("front solve failed", iterations=3)

    stage_calls.clear()
    monkeypatch.setattr(coupler, "relax_front", failing_front)
    with pytest.raises(NonConvergenceError, match="front solve failed"):
        solve_traveling_wave(flat_like(**striated))
    assert len(front_calls) == 1
    assert stage_calls == [1]


def test_flat_wave_matches_closed_form(flat_wave):
    assert flat_wave.speed == pytest.approx(math.exp(-1.0), abs=5e-4)
    assert np.max(np.abs(flat_wave.psi.values)) <= 1e-6
    assert np.max(np.abs(flat_wave.theta - 1.0)) <= 1e-3
    assert flat_wave.converged


def test_constant_kinetics_stops_without_truncation():
    config = flat_like(kinetics=ConstantKinetics(2.0), nx=None, depth=None)
    wave = solve_traveling_wave(config)
    assert wave.final_truncation == 1
    assert len(wave.history) == 1
    assert wave.floor_inactive
    assert "no-op" in wave.stop_reason
    assert wave.speed == pytest.approx(2.0, abs=1e-8)


def test_stage_history_brackets_and_doubling(striated_wave):
    base = ArrheniusKinetics(1.0, 1.0)
    r_lo, r_hi = 0.5, 1.5
    previous_n = 0
    for record in striated_wave.history:
        n = record.truncation
        assert n == 1 if previous_n == 0 else n == 2 * previous_n
        previous_n = n
        lower = r_lo * truncate_kinetics(base, n).unit_integral()
        upper = r_hi * max(base.supremum, 1.0 / n)
        assert record.speed >= lower - 1e-3
        assert record.speed <= upper + 1e-3
        assert record.sweeps >= 1


def test_final_stage_certifies_continuation(striated_wave):
    last = striated_wave.history[-1]
    assert last.floor_inactive
    assert last.speed_gap <= 1e-4
    assert striated_wave.floor_inactive
    assert striated_wave.converged


def test_self_consistency_at_convergence(striated_wave):
    wave = striated_wave
    kinetics = truncate_kinetics(wave.kinetics, wave.final_truncation)
    y = wave.psi.nodes
    rebuilt = wave.rate.evaluate(y) * kinetics.evaluate(wave.theta)
    assert np.max(np.abs(wave.forcing.values - rebuilt)) <= 1e-8
    residual = front_residual(wave.psi, wave.speed, wave.forcing)
    assert np.max(np.abs(residual)) <= 1e-6
    assert wave.residuals.front <= 1e-6
    assert wave.residuals.trace_deviation == pytest.approx(
        abs(np.mean(wave.theta) - 1.0), abs=1e-15
    )


def test_wave_quotes_the_last_stage_state(striated_wave, striated_config, monkeypatch):
    wave = striated_wave
    kinetics = truncate_kinetics(wave.kinetics, wave.final_truncation)
    rebuilt = build_forcing(kinetics, wave.rate, wave.theta)
    assert np.array_equal(wave.forcing.values, rebuilt.values)
    assert wave.speed == compute_speed(wave.forcing, wave.psi)
    assert wave.floor_inactive == wave.history[-1].floor_inactive

    # Record, in order, what each stage and each temperature solve returns.
    events = []
    for name in ("solve_at_truncation", "solve_temperature"):
        real = getattr(coupler, name)

        def wrapper(*args, _real=real, _name=name, **kwargs):
            result = _real(*args, **kwargs)
            events.append((_name, result))
            return result

        monkeypatch.setattr(coupler, name, wrapper)
    again = solve_traveling_wave(replace(striated_config, run_diagnostics=False))
    assert again.speed == wave.speed
    assert np.array_equal(again.field.values, wave.field.values)
    # Nothing is solved after the last stage, whose field is the quoted one.
    (last_event, (state, _, _)) = events[-1]
    assert last_event == "solve_at_truncation"
    fields = [result for name, result in events if name == "solve_temperature"]
    assert again.field is state.field is fields[-1]
    assert again.psi is state.psi


def test_striated_speed_within_analytic_bracket(striated_wave):
    lower = 0.5 * oracles.ARRHENIUS_UNIT_INTEGRAL_FROZEN[1.0]
    assert striated_wave.speed >= lower - 1e-3
    assert striated_wave.speed <= 1.5 + 1e-3


def test_determinism_across_repeat_solves():
    config = flat_like(
        rate=PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5)),
        nx=None,
        depth=None,
    )
    first = solve_traveling_wave(config)
    second = solve_traveling_wave(config)
    assert abs(first.speed - second.speed) <= 1e-10
    assert np.max(np.abs(first.psi.values - second.psi.values)) <= 1e-10
    assert len(first.history) == len(second.history)


def test_grid_stability_on_acceptance_cases(flat_wave, striated_wave, striated_config):
    doubled_flat = solve_traveling_wave(
        flat_like(ny=128, nx=1024, depth=40.0, run_diagnostics=False)
    )
    assert abs(doubled_flat.speed - flat_wave.speed) <= 1e-3

    grid = striated_wave.grid
    doubled_striated = solve_traveling_wave(
        SolverConfig(
            kinetics=striated_config.kinetics,
            rate=striated_config.rate,
            ny=grid.ny * 2,
            nx=grid.nx * 2,
            depth=grid.depth,
            run_diagnostics=False,
        )
    )
    assert abs(doubled_striated.speed - striated_wave.speed) <= 1e-3


@pytest.mark.parametrize(
    "activation, ny, nx", [(4.0, 64, 5632), (1.0, 128, 512)], ids=["B4", "ny128"]
)
def test_striated_harder_grids_pass_every_diagnostic(activation, ny, nx):
    """Arrhenius B = 4 (c about 0.018, auto grid 5632 x 64) and the default
    medium at ny = 128 pass every check at the standing tolerances."""
    wave = solve_traveling_wave(
        SolverConfig(
            kinetics=ArrheniusKinetics(prefactor=1.0, activation=activation),
            rate=PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5)),
            ny=ny,
        )
    )
    assert (wave.grid.nx, wave.grid.ny) == (nx, ny)
    failed = [check.name for check in wave.report.checks if not check.passed]
    assert failed == []


def test_wave_report_attached_only_when_requested(flat_wave):
    assert flat_wave.report is not None
    silent = solve_traveling_wave(flat_like(run_diagnostics=False))
    assert silent.report is None
