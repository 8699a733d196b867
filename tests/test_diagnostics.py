"""Structural checks: positive runs on both reference waves, plus the
synthetic corruptions that prove each check can actually fail."""
import dataclasses
import json

import numpy as np
import pytest

import oracles
from frontwave import (
    FrontProfile,
    SmoothRate,
    TemperatureField,
    run_all,
    truncate_kinetics,
)
from frontwave.diagnostics import (
    CURVATURE_SLACK,
    JENSEN_SLACK,
    SPEED_SLACK,
    check_curvature_cap,
    check_energy_identity,
    check_field_nonnegative,
    check_jensen_bound,
    check_max_principle,
    check_monotone_minima,
    check_speed_lower,
    check_speed_upper,
    check_trace_integral,
    check_trace_positivity,
)

EXPECTED_CHECKS = {
    "speed_lower",
    "speed_upper",
    "trace_integral",
    "trace_positivity",
    "jensen_bound",
    "monotone_minima",
    "field_nonnegative",
    "max_principle",
    "energy_identity",
    "curvature_cap",
}


def with_field_values(wave, values):
    field = TemperatureField(grid=wave.field.grid, values=values, speed=wave.field.speed)
    return dataclasses.replace(wave, field=field)


def test_all_checks_pass_on_flat_wave(flat_wave):
    report = run_all(flat_wave)
    assert report.passed
    assert {check.name for check in report.checks} == EXPECTED_CHECKS
    assert len(report.checks) == len(EXPECTED_CHECKS)


def test_all_checks_pass_on_striated_wave(striated_wave):
    report = run_all(striated_wave)
    assert report.passed


def test_flat_trace_deviation_is_tight(flat_wave):
    report = run_all(flat_wave)
    trace_check = next(c for c in report.checks if c.name == "trace_integral")
    assert abs(trace_check.measured - 1.0) <= 1e-4


def test_speed_lower_uses_floored_integral(flat_wave):
    check = check_speed_lower(flat_wave)
    assert check.passed
    # the bound quotes the final floored law, which integrates to at least
    # the raw-law integral
    assert check.bound >= oracles.ARRHENIUS_UNIT_INTEGRAL_FROZEN[1.0] - 1e-12
    expected = truncate_kinetics(
        flat_wave.kinetics, flat_wave.final_truncation
    ).unit_integral()
    assert check.bound == pytest.approx(expected, abs=1e-12)


def test_flat_energy_sits_at_half_speed(flat_wave):
    check = check_energy_identity(flat_wave)
    assert check.passed
    assert check.measured == pytest.approx(flat_wave.speed / 2.0, abs=1e-3)


def test_halved_speed_fails_lower_bound(flat_wave):
    corrupt = dataclasses.replace(flat_wave, speed=flat_wave.speed / 2.0)
    assert not check_speed_lower(corrupt).passed
    assert not run_all(corrupt).passed


def test_speed_just_under_a_small_lower_bound_fails(flat_wave):
    # A burning rate of 1e-3 puts the lower bound below the absolute slack
    # 1e-3, which would let any positive speed pass; the slack scales with
    # the bound instead.
    slow = dataclasses.replace(flat_wave, rate=SmoothRate(mean=1e-3))
    bound = check_speed_lower(slow).bound
    assert bound < 1e-3
    assert not check_speed_lower(dataclasses.replace(slow, speed=0.99 * bound)).passed


def test_slacks_scale_with_bounds_below_one(flat_wave):
    lower = check_speed_lower(flat_wave)
    upper = check_speed_upper(flat_wave)
    jensen = check_jensen_bound(flat_wave)
    assert lower.bound < 1.0 and jensen.bound < 1.0 and upper.bound == 1.0
    assert lower.tolerance == SPEED_SLACK * lower.bound
    assert upper.tolerance == SPEED_SLACK
    assert jensen.tolerance == JENSEN_SLACK * jensen.bound
    # The curvature cap 2 * max(R) * sup K is 2 here, so its slack is whole.
    assert check_curvature_cap(flat_wave).tolerance == CURVATURE_SLACK


def test_doubled_cap_speed_fails_upper_bound(flat_wave):
    corrupt = dataclasses.replace(flat_wave, speed=2.0)  # 2 * R_M * sup K
    assert not check_speed_upper(corrupt).passed


def test_scaled_trace_fails_integral_check(flat_wave):
    corrupt = dataclasses.replace(flat_wave, theta=flat_wave.theta * 1.1)
    assert not check_trace_integral(corrupt).passed
    assert not run_all(corrupt).passed


def test_cold_trace_fails_jensen_check(flat_wave):
    corrupt = dataclasses.replace(flat_wave, theta=np.full_like(flat_wave.theta, 0.01))
    assert not check_jensen_bound(corrupt).passed


def test_zero_trace_fails_positivity_check(flat_wave):
    corrupt = dataclasses.replace(flat_wave, theta=np.zeros_like(flat_wave.theta))
    assert not check_trace_positivity(corrupt).passed


def test_interior_dip_fails_monotone_check(flat_wave):
    values = flat_wave.field.values.copy()
    row = values.shape[0] - 10
    # the dip must beat the exponential growth between adjacent rows (~2e-2)
    values[row, :] -= 0.1
    corrupt = with_field_values(flat_wave, values)
    assert not check_monotone_minima(corrupt).passed


def test_node_above_barrier_fails_max_principle(flat_wave):
    values = flat_wave.field.values.copy()
    grid = flat_wave.field.grid
    row = values.shape[0] - 2
    values[row, 3] = 2.0 * np.exp(flat_wave.speed * grid.x_nodes[row])
    corrupt = with_field_values(flat_wave, values)
    assert not check_max_principle(corrupt).passed


def test_negative_node_fails_field_nonnegative(flat_wave):
    """A negative node fails the nonnegativity side, which reports it; the
    barrier side still holds."""
    values = flat_wave.field.values.copy()
    values[5, 0] = -1e-6
    corrupt = with_field_values(flat_wave, values)
    check = check_field_nonnegative(corrupt)
    assert not check.passed
    assert check.measured == -1e-6
    assert check_max_principle(corrupt).passed
    assert not run_all(corrupt).passed


def test_doubled_field_fails_energy_check(flat_wave):
    corrupt = with_field_values(flat_wave, 2.0 * flat_wave.field.values)
    assert not check_energy_identity(corrupt).passed


def test_spiked_front_fails_curvature_check(flat_wave):
    psi = flat_wave.psi.values.copy()
    psi[5] += 0.05
    corrupt = dataclasses.replace(flat_wave, psi=FrontProfile(psi))
    assert not check_curvature_cap(corrupt).passed
    assert not run_all(corrupt).passed


def test_striated_curvature_check_excludes_edges(striated_wave):
    check = check_curvature_cap(striated_wave)
    assert check.passed
    # the interior margin should be genuinely negative, not borderline
    assert check.measured < 0.0


CHECK_KEYS = ["name", "statement", "passed", "measured", "bound", "tolerance"]


def test_report_serializes_and_summarizes(flat_wave, striated_wave):
    report = run_all(flat_wave)
    payload = report.as_dict()
    text = json.dumps(payload)
    assert isinstance(json.loads(text), dict)
    assert payload["passed"] is True
    by_name = {entry["name"]: entry for entry in payload["checks"]}
    assert set(by_name) == EXPECTED_CHECKS
    for entry in by_name.values():
        assert entry["passed"] is True
        assert "statement" in entry

    summary = report.summary()
    assert "PASS" in summary
    assert "all checks passed" in summary

    failing = dataclasses.replace(flat_wave, theta=flat_wave.theta * 1.1)
    bad_summary = run_all(failing).summary()
    assert "FAIL" in bad_summary
    assert "trace_integral" in bad_summary

    for wave in (flat_wave, striated_wave, failing):
        for entry in run_all(wave).as_dict()["checks"]:
            assert list(entry) == CHECK_KEYS
            assert entry["passed"] is True or entry["passed"] is False
            for key in ("measured", "bound", "tolerance"):
                assert type(entry[key]) is float, (entry["name"], key)


def test_report_is_deterministic(flat_wave):
    first = run_all(flat_wave).as_dict()
    second = run_all(flat_wave).as_dict()
    assert first == second
