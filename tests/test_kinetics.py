"""Rate laws and combustion-rate profiles: values, bounds, and integrals."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, optimize

import frontwave
import oracles
from frontwave import (
    ArrheniusKinetics,
    ConstantKinetics,
    PiecewiseConstantRate,
    SmoothRate,
    TabulatedKinetics,
    TruncatedKinetics,
    truncate_kinetics,
)


def test_arrhenius_reference_values():
    model = ArrheniusKinetics(prefactor=1.0, activation=1.0)
    assert model.evaluate(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)
    assert model.evaluate(0.0) == 0.0


def test_arrhenius_stays_below_supremum():
    model = ArrheniusKinetics(prefactor=2.0, activation=0.5)
    u = np.linspace(0.0, 50.0, 1001)
    values = model.evaluate(u)
    assert np.all(values < model.supremum)
    assert model.supremum == 2.0


def test_constant_law_ignores_temperature():
    model = ConstantKinetics(value=0.5)
    assert model.evaluate(7.3) == 0.5
    assert model.evaluate(0.0) == 0.5
    assert model.supremum == 0.5


@pytest.mark.parametrize("truncated", [False, True], ids=["bare", "truncated"])
@pytest.mark.parametrize(
    "law",
    [
        ArrheniusKinetics(prefactor=1.0, activation=1.0),
        ConstantKinetics(value=0.5),
        TabulatedKinetics(points=((0.0, 0.0), (0.5, 1.0))),
    ],
    ids=["arrhenius", "constant", "tabulated"],
)
def test_evaluate_rejects_negative_and_non_finite_temperature(law, truncated):
    model = truncate_kinetics(law, 4) if truncated else law
    with pytest.raises(ValueError):
        model.evaluate(-0.1)
    with pytest.raises(ValueError):
        model.evaluate(np.array([0.5, -2.0]))
    with pytest.raises(ValueError):
        model.evaluate(np.nan)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ArrheniusKinetics(prefactor=0.0, activation=1.0)
    with pytest.raises(ValueError):
        ArrheniusKinetics(prefactor=1.0, activation=-1.0)
    with pytest.raises(ValueError):
        ConstantKinetics(value=0.0)


def test_tabulated_interpolation_and_extrapolation():
    model = TabulatedKinetics(points=((0.0, 0.0), (0.5, 1.0)))
    assert model.evaluate(0.25) == pytest.approx(0.5)
    assert model.evaluate(2.0) == 1.0  # constant continuation to the right
    assert model.supremum == 1.0
    assert model.unit_integral() == pytest.approx(0.25 + 0.5, abs=1e-14)


def test_tabulated_rejects_bad_tables():
    with pytest.raises(ValueError):
        TabulatedKinetics(points=((0.0, 1.0),))
    with pytest.raises(ValueError):
        TabulatedKinetics(points=((0.5, 0.0), (0.2, 1.0)))  # u not increasing
    with pytest.raises(ValueError):
        TabulatedKinetics(points=((0.0, 1.0), (1.0, 0.5)))  # values decreasing
    with pytest.raises(ValueError):
        TabulatedKinetics(points=((-0.5, 0.0), (1.0, 1.0)))  # negative u
    with pytest.raises(ValueError):
        TabulatedKinetics(points=((0.0, 0.0), (1.0, 0.0)))  # identically zero


def test_truncation_floor_versus_base():
    model = truncate_kinetics(ArrheniusKinetics(1.0, 1.0), 10)
    assert model.evaluate(0.1) == pytest.approx(0.1, abs=1e-15)
    assert model.evaluate(1.0) == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_truncation_noop_when_floor_below_constant():
    model = truncate_kinetics(ConstantKinetics(2.0), 1)
    assert model.evaluate(0.0) == 2.0
    assert model.evaluate(123.0) == 2.0


def test_truncation_rejects_bad_index():
    base = ConstantKinetics(1.0)
    with pytest.raises(ValueError):
        truncate_kinetics(base, 0)
    with pytest.raises(ValueError):
        truncate_kinetics(base, 1.5)
    with pytest.raises(ValueError):
        truncate_kinetics(base, True)


def test_retruncation_collapses_to_dominant_floor():
    base = ArrheniusKinetics(1.0, 1.0)
    twice = truncate_kinetics(truncate_kinetics(base, 2), 8)
    assert isinstance(twice, TruncatedKinetics)
    assert isinstance(twice.base, ArrheniusKinetics)
    assert twice.floor == 0.5  # floor max(1/2, 1/8)
    u = np.linspace(0.0, 2.0, 101)
    direct = truncate_kinetics(base, 2).evaluate(u)
    assert np.array_equal(twice.evaluate(u), direct)


def test_unit_integral_constant_is_exact():
    assert ConstantKinetics(0.7).unit_integral() == pytest.approx(0.7, abs=1e-14)


def test_unit_integral_arrhenius_matches_quadrature_oracle():
    for activation, frozen in oracles.ARRHENIUS_UNIT_INTEGRAL_FROZEN.items():
        assert oracles.arrhenius_unit_integral(activation) == pytest.approx(
            frozen, abs=1e-13
        )
        model = ArrheniusKinetics(prefactor=1.0, activation=activation)
        assert model.unit_integral() == pytest.approx(frozen, abs=1e-14)


def test_unit_integral_saturated_truncation():
    model = truncate_kinetics(ArrheniusKinetics(1.0, 1.0), 1)
    assert model.unit_integral() == pytest.approx(1.0, abs=1e-12)


def test_unit_integral_truncated_matches_crossing_oracle():
    base = ArrheniusKinetics(1.0, 1.0)
    for n, frozen in oracles.TRUNCATED_UNIT_INTEGRAL_FROZEN.items():
        assert oracles.truncated_unit_integral(n) == pytest.approx(frozen, abs=1e-12)
        assert truncate_kinetics(base, n).unit_integral() == pytest.approx(
            frozen, abs=1e-14
        )


def _quadrature_floored_integral(model, floor):
    """Adaptive quadrature of max(K, floor), split where it is not smooth."""
    cuts = [0.0, 1.0]
    if isinstance(model, TabulatedKinetics):
        cuts += [u for u, _ in model.points]
    if model.evaluate(0.0) < floor < model.evaluate(1.0):
        cuts.append(optimize.brentq(
            lambda u: model.evaluate(u) - floor, 0.0, 1.0, xtol=1e-15
        ))
    cuts = np.unique(np.clip(cuts, 0.0, 1.0))
    return sum(
        integrate.quad(
            lambda u: max(model.evaluate(u), floor), a, b, epsabs=1e-15, epsrel=1e-13
        )[0]
        for a, b in zip(cuts[:-1], cuts[1:])
    )


def _random_step_table(rng):
    """Tabulated law on integer levels, so flat segments are common."""
    count = int(rng.integers(2, 7))
    knots = np.sort(rng.choice(np.arange(1, 40), size=count, replace=False)) / 20.0
    if rng.uniform() < 0.3:
        knots[0] = 0.0
    values = np.sort(rng.integers(0, 4, size=count)).astype(float)
    values[-1] = max(values[-1], 1.0)
    return TabulatedKinetics(points=tuple(zip(knots, values)))


def test_floored_integral_matches_split_quadrature_random_laws():
    rng = np.random.default_rng(20261018)
    laws = [oracles.random_kinetics(rng) for _ in range(60)]
    laws += [_random_step_table(rng) for _ in range(40)]
    for model in laws:
        low, high = model.evaluate(0.0), model.evaluate(1.0)
        floors = [0.0, high, model.supremum, 1.5 * model.supremum]
        floors += list(rng.uniform(low, high, size=3))
        if isinstance(model, TabulatedKinetics):
            floors += [k for _, k in model.points]
        for floor in floors:
            expected = _quadrature_floored_integral(model, floor)
            assert model.floored_integral(floor) == pytest.approx(
                expected, rel=1e-10, abs=1e-13
            ), (model, floor)
        n = int(rng.integers(1, 64))
        assert truncate_kinetics(model, n).unit_integral() == pytest.approx(
            _quadrature_floored_integral(model, 1.0 / n), rel=1e-10, abs=1e-13
        )


def test_floored_integral_of_table_with_flat_segment_at_the_floor():
    model = TabulatedKinetics(points=((0.0, 0.0), (0.2, 1.0), (0.6, 1.0), (0.8, 3.0)))
    # max(K, 1) is 1 up to u = 0.6, then rises linearly to 3 at u = 0.8.
    assert model.floored_integral(1.0) == pytest.approx(0.6 + 0.4 + 0.6, abs=1e-15)
    assert model.floored_integral(3.0) == 3.0
    assert model.floored_integral(0.0) == pytest.approx(0.1 + 0.4 + 0.4 + 0.6, abs=1e-15)


def test_import_loads_no_quadrature_or_root_finder():
    path = [str(Path(frontwave.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (
        "import frontwave, sys; "
        "print([m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert proc.stdout.strip() == "[]"


def test_piecewise_rate_lookup_and_periodicity():
    rate = PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5))
    assert rate.evaluate(0.25) == 0.5
    assert rate.evaluate(1.75) == 1.5
    assert rate.evaluate(-0.25) == 1.5
    assert rate.bounds == (0.5, 1.5)


def test_piecewise_rate_right_continuous_at_edges():
    rate = PiecewiseConstantRate(edges=(0.0, 0.5), values=(0.5, 1.5))
    assert rate.evaluate(0.0) == 0.5
    assert rate.evaluate(0.5) == 1.5
    assert rate.evaluate(1.0) == 0.5


def test_piecewise_rate_rejects_bad_layers():
    with pytest.raises(ValueError):
        PiecewiseConstantRate(edges=(0.1, 0.5), values=(1.0, 2.0))  # must start at 0
    with pytest.raises(ValueError):
        PiecewiseConstantRate(edges=(0.0, 0.5, 0.4), values=(1.0, 2.0, 3.0))
    with pytest.raises(ValueError):
        PiecewiseConstantRate(edges=(0.0, 1.0), values=(1.0, 2.0))  # edge >= 1
    with pytest.raises(ValueError):
        PiecewiseConstantRate(edges=(0.0, 0.5), values=(1.0, 0.0))  # nonpositive
    with pytest.raises(ValueError):
        PiecewiseConstantRate(edges=(0.0,), values=(1.0, 2.0))  # length mismatch


def test_smooth_rate_series_and_bounds():
    rate = SmoothRate(mean=1.0, cosine=(0.3,))
    assert rate.evaluate(0.0) == pytest.approx(1.3, abs=1e-12)
    lo, hi = rate.bounds
    assert lo == pytest.approx(0.7, abs=1e-6)
    assert hi == pytest.approx(1.3, abs=1e-6)

    flat = SmoothRate(mean=1.0)
    assert flat.bounds == (1.0, 1.0)
    assert flat.evaluate(0.123) == 1.0


def test_smooth_rate_rejects_sign_changing_profile():
    with pytest.raises(ValueError):
        SmoothRate(mean=1.0, cosine=(1.5,))


def test_rate_respects_declared_bounds_on_random_points():
    rng = np.random.default_rng(20260815)
    rates = [
        PiecewiseConstantRate(edges=(0.0, 0.25, 0.75), values=(2.0, 0.5, 1.0)),
        SmoothRate(mean=1.0, cosine=(0.2, 0.1), sine=(0.15,)),
    ]
    y = rng.uniform(-5.0, 5.0, size=10_000)
    for rate in rates:
        lo, hi = rate.bounds
        values = np.array([rate.evaluate(float(point)) for point in y])
        assert np.all(values >= lo - 1e-12)
        assert np.all(values <= hi + 1e-12)


def test_monotone_in_temperature_random_models():
    rng = np.random.default_rng(42)
    for _ in range(200):
        model = oracles.random_kinetics(rng)
        u = np.sort(rng.uniform(0.0, 3.0, size=2))
        assert model.evaluate(u[0]) <= model.evaluate(u[1]) + 1e-15


def test_truncation_ordering_random_models():
    rng = np.random.default_rng(7)
    u = np.linspace(0.0, 3.0, 301)
    for _ in range(100):
        base = oracles.random_kinetics(rng)
        n = int(rng.integers(1, 64))
        low = truncate_kinetics(base, n).evaluate(u)
        high = truncate_kinetics(base, 2 * n).evaluate(u)
        raw = base.evaluate(u)
        assert np.all(low >= high - 1e-15)
        assert np.all(high >= raw - 1e-15)
        saturated = raw >= 1.0 / n
        assert np.allclose(low[saturated], raw[saturated])
        assert np.allclose(high[saturated], raw[saturated])


def test_truncated_integral_decreases_to_base_integral():
    base = ArrheniusKinetics(1.0, 1.0)
    target = base.unit_integral()
    previous = np.inf
    n = 1
    while n <= 1024:
        value = truncate_kinetics(base, n).unit_integral()
        assert value <= previous + 1e-12
        assert value >= target - 1e-12
        assert value - target <= 1.0 / n
        previous = value
        n *= 2
