"""Outer fixed-point loop, truncation continuation, and the full solve."""
import logging
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import oracles
from frontwave import (
    ArrheniusKinetics,
    ConfigurationError,
    ConstantKinetics,
    FrontProfile,
    FrontwaveError,
    NonConvergenceError,
    PiecewiseConstantRate,
    SmoothRate,
    SolverConfig,
    StripGrid,
    TabulatedKinetics,
    TemperatureField,
    TravelingWave,
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


def test_sweep_on_an_already_solved_forcing_returns_a_bit_identical_state(
    monkeypatch,
):
    config = flat_like(
        rate=PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5)),
        nx=None,
        depth=None,
    )
    grid = resolve_grid(config)
    # At n = 1 the floor binds everywhere, so the forcing is the rate itself
    # and every sweep of the stage solves the same forcing again.
    kinetics = truncate_kinetics(config.kinetics, 1)
    state, updates = solve_at_truncation(config, 1, grid=grid)
    assert updates[-1] == 0.0
    calls = count_sweep_solves(monkeypatch)

    # The sweep runs both solves and gives back the same state, bit for bit,
    # so no sweep needs to be skipped.
    again = _picard_step(state, kinetics, config.rate, grid)
    assert calls == {"relax_front": 1, "solve_temperature": 1}
    assert again.speed == state.speed
    assert np.array_equal(again.psi.values, state.psi.values)
    assert np.array_equal(again.theta, state.theta)
    assert np.array_equal(again.field.values, state.field.values)


def test_every_sweep_solves_once_and_repeats_no_forcing(monkeypatch, caplog):
    calls = count_sweep_solves(monkeypatch)
    forcings = []
    counted_front = coupler.relax_front

    def recording_front(forcing, *args, **kwargs):
        forcings.append(forcing.values)
        return counted_front(forcing, *args, **kwargs)

    monkeypatch.setattr(coupler, "relax_front", recording_front)
    config = flat_like(
        rate=PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5)),
        nx=None,
        depth=None,
        run_diagnostics=False,
    )
    with caplog.at_level(logging.DEBUG, logger="frontwave"):
        wave = solve_traveling_wave(config)
    messages = [r.getMessage() for r in caplog.records]
    sweep_lines = [line for line in messages if ", update " in line]
    stages = [(rec.truncation, rec.sweeps) for rec in wave.history]
    # K(1) = e^-1 lies below the floors 1 and 1/2, so n = 1 and 2 are not solved.
    assert stages == [(4, 3), (8, 1)]
    assert len(sweep_lines) == sum(sweeps for _, sweeps in stages)
    assert not any("skipped" in line for line in messages)
    # One front and one temperature solve per sweep, none after the last stage.
    assert calls["relax_front"] == calls["solve_temperature"] == len(sweep_lines)
    assert not any(np.array_equal(a, b) for a, b in zip(forcings, forcings[1:]))


class _StageReached(Exception):
    pass


@pytest.mark.parametrize(
    "kinetics, first",
    [
        (ArrheniusKinetics(prefactor=1.0, activation=1.0), 4),
        (ArrheniusKinetics(prefactor=1.0, activation=4.0), 64),
        (ConstantKinetics(0.5), 2),
        (ConstantKinetics(2.0), 1),
        (TabulatedKinetics(((0.0, 0.0), (0.5, 0.1), (1.0, 1.0))), 1),
    ],
    ids=["arrhenius-B1", "arrhenius-B4", "constant-0.5", "constant-2", "tabulated"],
)
def test_first_solved_stage_is_the_first_floor_at_most_k_of_one(
    monkeypatch, kinetics, first
):
    """Stages whose floor ``1/n`` lies strictly above ``K(1)`` are not solved;
    a floor equal to ``K(1)`` is."""
    stages = []

    def first_stage(config, n, **kwargs):
        stages.append(n)
        raise _StageReached

    monkeypatch.setattr(coupler, "solve_at_truncation", first_stage)
    with pytest.raises(_StageReached):
        solve_traveling_wave(flat_like(kinetics=kinetics))
    assert stages == [first]


def test_undamped_iteration_converges_quickly_for_uniform_rate():
    config = flat_like()
    state, updates = solve_at_truncation(config, 64)
    assert len(updates) <= 50
    assert state.speed == pytest.approx(math.exp(-1.0), abs=5e-4)
    assert updates[-1] < config.outer_tol <= min(updates[:-1], default=np.inf)


def test_floor_dominated_stage_is_pure_geometry():
    config = flat_like(rate=SmoothRate(mean=0.8))
    state, _ = solve_at_truncation(config, 1)
    # floor 1 dominates the sub-unit law, so the forcing is the rate itself
    assert state.speed == pytest.approx(0.8, abs=1e-10)
    assert np.max(np.abs(state.psi.values)) <= 1e-10


def test_deep_truncation_recovers_base_law():
    config = flat_like()
    state, _ = solve_at_truncation(config, 1024)
    assert state.speed == pytest.approx(math.exp(-1.0), abs=5e-4)


def test_warm_start_reaches_the_same_fixed_point():
    config = flat_like()
    grid = resolve_grid(config)
    cold, cold_updates = solve_at_truncation(config, 64, grid=grid)
    warm, warm_updates = solve_at_truncation(config, 128, grid=grid, start=cold)
    assert warm.speed == pytest.approx(cold.speed, abs=1e-6)
    assert len(warm_updates) <= len(cold_updates)


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


def test_non_finite_sweep_update_is_a_diverged_stage(monkeypatch):
    real_step = coupler._picard_step
    sweeps = []

    def overflow_on_second_sweep(state, *args):
        sweeps.append(state)
        new = real_step(state, *args)
        return new._replace(speed=math.nan) if len(sweeps) == 2 else new

    monkeypatch.setattr(coupler, "_picard_step", overflow_on_second_sweep)
    with pytest.raises(NonConvergenceError) as excinfo:
        solve_at_truncation(flat_like(), 4)
    err = excinfo.value
    assert str(err) == "stage n=4: outer iteration diverged"
    assert len(sweeps) == 2
    assert err.iterations == 2
    assert math.isnan(err.residual)
    assert np.isfinite(err.history[0][1]) and math.isnan(err.history[1][0])


@pytest.mark.xfail(
    strict=True,
    raises=NonConvergenceError,
    reason="ROADMAP item 4: this strong-feedback front exists, but the front "
    "Newton solve sticks on sweep 2 of stage n=1",
)
def test_strong_feedback_wave_converges_and_passes_its_checks():
    config = flat_like(
        kinetics=ArrheniusKinetics(prefactor=300.0, activation=3.0),
        rate=PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5)),
        ny=32,
        nx=None,
        depth=None,
    )
    assert solve_traveling_wave(config).report.passed


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
    assert stage_calls == [4]
    err = excinfo.value
    assert "stage n=4" in str(err)
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
    assert stage_calls == [4]


def test_settled_stages_whose_floor_binds_do_not_stop_the_continuation(
    monkeypatch,
):
    # The stand-in returns one speed at every stage.  Its trace touches zero,
    # where K(0) = 0 < 1/n, until stage n=16, whose trace is uniformly hot.
    stage_calls = []

    def settled_stage(config, n, grid=None, start=None):
        stage_calls.append(n)
        theta = np.ones(config.ny)
        if n < 16:
            theta[0] = 0.0
        state = _PicardState(
            speed=0.25, psi=FrontProfile(np.zeros(config.ny)), theta=theta,
            field=None,
        )
        return state, [0.0]

    monkeypatch.setattr(coupler, "solve_at_truncation", settled_stage)
    wave = solve_traveling_wave(flat_like(run_diagnostics=False))
    assert stage_calls == [4, 8, 16]
    assert [rec.floor_inactive for rec in wave.history] == [False, False, True]
    assert [rec.speed_gap for rec in wave.history][1:] == [0.0, 0.0]
    assert wave.stop_reason == "stage speeds settled; floor inactive along the front"


def test_flat_wave_matches_closed_form(flat_wave):
    assert flat_wave.speed == pytest.approx(math.exp(-1.0), abs=5e-4)
    assert np.max(np.abs(flat_wave.psi.values)) <= 1e-6
    assert np.max(np.abs(flat_wave.theta - 1.0)) <= 1e-3
    assert flat_wave.converged


@pytest.mark.parametrize("activation", [10.0, 12.0, 14.0])
def test_slow_flat_waves_burn_at_their_closed_form_speed(activation):
    """Arrhenius B = 10 to 14 in a uniform medium burns at ``e^{-B}``, 4.5e-5
    down to 8.3e-7, on an explicit grid whose ``c hx`` is below 1e-5: each
    speed is within 1e-6 of it and every check passes."""
    wave = solve_traveling_wave(
        flat_like(kinetics=ArrheniusKinetics(prefactor=1.0, activation=activation),
                  ny=8, nx=256)
    )
    assert abs(wave.speed / math.exp(-activation) - 1.0) <= 1e-6
    assert wave.report.passed


def test_constant_kinetics_stops_without_truncation():
    config = flat_like(kinetics=ConstantKinetics(2.0), nx=None, depth=None)
    wave = solve_traveling_wave(config)
    assert wave.final_truncation == 1
    assert len(wave.history) == 1
    assert wave.floor_inactive
    assert "no-op" in wave.stop_reason
    assert wave.speed == pytest.approx(2.0, abs=1e-8)


def test_stop_reason_is_derived_from_the_kinetics_and_last_stage():
    """K(0) = 2 makes the first stage's floor a no-op; an Arrhenius law with
    the same K(1) vanishes at 0, so the same stage stopped by settling."""
    config = flat_like(kinetics=ConstantKinetics(2.0), nx=None, depth=None,
                       run_diagnostics=False)
    wave = solve_traveling_wave(config)
    assert wave.stop_reason == "truncation is a no-op for this rate law"
    moved = replace(wave, kinetics=ArrheniusKinetics(2.0, 1.0))
    assert moved.final_truncation == 1
    assert moved.stop_reason == "stage speeds settled; floor inactive along the front"


def test_stage_history_brackets_and_doubling(striated_wave):
    base = ArrheniusKinetics(1.0, 1.0)
    r_lo, r_hi = 0.5, 1.5
    # The first stage solved is the first whose floor is at most K(1).
    first = striated_wave.history[0].truncation
    assert 2.0 / first > base.evaluate(1.0) >= 1.0 / first
    for k, record in enumerate(striated_wave.history):
        n = record.truncation
        assert n == first * 2**k
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
    y = wave.grid.y_nodes
    rebuilt = wave.rate.evaluate(y) * kinetics.evaluate(wave.theta)
    assert np.max(np.abs(wave.forcing.values - rebuilt)) <= 1e-8
    residual = front_residual(wave.psi, wave.speed, wave.forcing)
    assert np.max(np.abs(residual)) <= 1e-6
    assert wave.residuals["front"] <= 1e-6
    assert wave.residuals["trace_deviation"] == pytest.approx(
        abs(np.mean(wave.theta) - 1.0), abs=1e-15
    )


def test_wave_derives_its_forcing_and_residuals_from_its_trace(striated_wave):
    theta = 1.1 * striated_wave.theta
    moved = replace(striated_wave, theta=theta)
    rebuilt = build_forcing(moved.final_kinetics, moved.rate, theta)
    assert np.array_equal(moved.forcing.values, rebuilt.values)
    assert not np.array_equal(moved.forcing.values, striated_wave.forcing.values)
    assert moved.residuals["trace_deviation"] == abs(float(np.mean(theta)) - 1.0)
    residual = front_residual(moved.psi, moved.speed, rebuilt)
    assert moved.residuals["front"] == float(np.max(np.abs(residual)))
    assert moved.residuals["outer"] == moved.history[-1].last_update


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
    (last_event, (state, _)) = events[-1]
    assert last_event == "solve_at_truncation"
    fields = [result for name, result in events if name == "solve_temperature"]
    assert again.field is state.field is fields[-1]
    assert again.psi is state.psi
    # A stage's record counts one sweep per update the stage returned.
    stages = [result for name, result in events if name == "solve_at_truncation"]
    assert [len(updates) for _, updates in stages] == [
        rec.sweeps for rec in again.history
    ]


def test_wave_derives_its_stage_facts_and_grid(flat_wave):
    names = {f.name for f in fields(TravelingWave)}
    assert not names & {
        "grid", "final_truncation", "floor_inactive", "converged",
        "forcing", "residuals", "stop_reason",
    }
    last = flat_wave.history[-1]
    assert flat_wave.final_truncation == last.truncation
    assert flat_wave.floor_inactive == last.floor_inactive
    assert TravelingWave.converged and flat_wave.converged
    floored = truncate_kinetics(flat_wave.kinetics, last.truncation)
    theta = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(
        flat_wave.final_kinetics.evaluate(theta), floored.evaluate(theta)
    )

    # The grid is the field's: replacing the field moves it.
    grid = StripGrid(nx=32, ny=flat_wave.grid.ny, depth=7.0)
    field = TemperatureField(
        grid=grid, values=np.zeros((33, grid.ny)), speed=flat_wave.speed
    )
    moved = replace(flat_wave, field=field)
    assert moved.grid is grid and flat_wave.grid is flat_wave.field.grid
    with pytest.raises(TypeError):
        replace(flat_wave, grid=grid)
    with pytest.raises(TypeError):
        TravelingWave(
            **{name: getattr(flat_wave, name) for name in names}, grid=grid
        )


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
