"""Front geometry operators and the Newton front solver."""
import numpy as np
import pytest
from scipy import linalg
from scipy.sparse import linalg as sparse_linalg

import oracles
from frontwave import (
    Forcing,
    FrontProfile,
    NonConvergenceError,
    compute_speed,
    curvature_term,
    front_derivatives,
    front_residual,
    normalize_front,
    relax_front,
)
import frontwave.front as front
from frontwave.front import _newton_step, _stencil

TWO_PI = 2.0 * np.pi


def nodes(n):
    return np.arange(n) / n


@pytest.fixture
def newton_solves(monkeypatch):
    """Records the size of each banded solve, one per Newton step."""
    calls = []
    solve = linalg.solve_banded

    def counting(l_and_u, band, rhs, **kwargs):
        calls.append(band.shape[1])
        return solve(l_and_u, band, rhs, **kwargs)

    monkeypatch.setattr(linalg, "solve_banded", counting)
    return calls


def test_profile_validation():
    with pytest.raises(ValueError):
        FrontProfile(np.zeros(12))  # not a power of two
    with pytest.raises(ValueError):
        FrontProfile(np.zeros(4))  # too small
    with pytest.raises(ValueError):
        FrontProfile(np.full(16, np.nan))
    with pytest.raises(ValueError):
        FrontProfile(np.full(16, -1.0))
    with pytest.raises(ValueError):
        Forcing(np.full(16, -0.5))


def test_profile_is_readonly():
    profile = FrontProfile(np.zeros(16))
    with pytest.raises(ValueError):
        profile.values[0] = 1.0


def test_derivatives_of_flat_profile_vanish():
    slope, second = front_derivatives(FrontProfile(np.zeros(32)))
    assert np.array_equal(slope, np.zeros(32))
    assert np.array_equal(second, np.zeros(32))


def test_derivatives_of_cosine_profile():
    y = nodes(256)
    profile = FrontProfile(1.0 - np.cos(TWO_PI * y))
    slope, second = front_derivatives(profile)
    assert np.max(np.abs(slope - TWO_PI * np.sin(TWO_PI * y))) <= 1e-3
    # The second difference carries the same relative accuracy; its absolute
    # scale is 4*pi^2, so compare relative to that.
    second_exact = TWO_PI**2 * np.cos(TWO_PI * y)
    assert np.max(np.abs(second - second_exact)) / TWO_PI**2 <= 1e-3


def test_derivatives_are_odd_under_sign_flip():
    y = nodes(64)
    plus = front_derivatives(np.sin(TWO_PI * y))
    minus = front_derivatives(-np.sin(TWO_PI * y))
    assert np.array_equal(plus[0], -minus[0])
    assert np.array_equal(plus[1], -minus[1])


def test_curvature_of_flat_profile_vanishes():
    assert np.array_equal(curvature_term(FrontProfile(np.zeros(16))), np.zeros(16))


def test_curvature_mean_vanishes_identically():
    y = nodes(256)
    curv = curvature_term(np.sin(TWO_PI * y) / TWO_PI)
    assert abs(np.mean(curv)) <= 1e-8
    # conservative form: the telescoping sum is zero to round-off, h^2 aside
    assert abs(np.mean(curv)) <= 1e-13


def test_curvature_mean_small_on_random_smooth_profiles():
    rng = np.random.default_rng(3)
    for n in (64, 128, 256):
        y = nodes(n)
        psi = np.zeros(n)
        for k in range(1, 4):
            psi += rng.uniform(-0.3, 0.3) * np.cos(TWO_PI * k * y)
            psi += rng.uniform(-0.3, 0.3) * np.sin(TWO_PI * k * y)
        assert abs(np.mean(curvature_term(psi - psi.min()))) <= 1e-13


def test_curvature_value_at_trough():
    n = 2048
    y = nodes(n)
    curv = curvature_term(FrontProfile(1.0 - np.cos(TWO_PI * y)))
    assert curv[0] == pytest.approx(TWO_PI**2, abs=1e-2)


def test_speed_of_flat_profile_is_mean_forcing():
    assert compute_speed(Forcing(np.full(32, 2.0)), FrontProfile(np.zeros(32))) == 2.0
    assert compute_speed(Forcing(np.zeros(32)), np.ones(32)) == 0.0


def test_speed_includes_arclength_factor():
    y = nodes(256)
    profile = FrontProfile(1.0 + np.sin(TWO_PI * y) / TWO_PI)
    speed = compute_speed(Forcing(np.ones(256)), profile)
    assert speed == pytest.approx(oracles.COSINE_ARCLENGTH_FROZEN, abs=1e-4)
    assert oracles.cosine_arclength() == pytest.approx(
        oracles.COSINE_ARCLENGTH_FROZEN, abs=1e-13
    )


def test_speed_rejects_size_mismatch():
    with pytest.raises(ValueError):
        compute_speed(Forcing(np.ones(32)), FrontProfile(np.zeros(64)))
    with pytest.raises(ValueError):
        front_residual(FrontProfile(np.zeros(64)), 1.0, Forcing(np.ones(32)))


def test_speed_monotone_in_forcing():
    rng = np.random.default_rng(11)
    y = nodes(64)
    psi = FrontProfile(0.2 * (1.0 - np.cos(TWO_PI * y)))
    for _ in range(50):
        low = rng.uniform(0.0, 2.0, size=64)
        high = low + rng.uniform(0.0, 1.0, size=64)
        assert compute_speed(Forcing(low), psi) <= compute_speed(Forcing(high), psi)


def test_residual_of_flat_solution_vanishes():
    residual = front_residual(FrontProfile(np.zeros(32)), 0.7, Forcing(np.full(32, 0.7)))
    assert np.array_equal(residual, np.zeros(32))


def test_residual_sign_convention():
    residual = front_residual(FrontProfile(np.zeros(32)), 2.0, Forcing(np.ones(32)))
    assert np.array_equal(residual, np.ones(32))


def test_normalize_shifts_minimum_to_zero():
    out = normalize_front(FrontProfile(np.full(16, 3.0)))
    assert np.array_equal(out.values, np.zeros(16))

    y = nodes(64)
    out = normalize_front(1.0 + np.sin(TWO_PI * y))
    assert out.values.min() == 0.0

    again = normalize_front(out)
    assert np.array_equal(again.values, out.values)


def test_relax_constant_forcing_gives_flat_front():
    y = nodes(64)
    start = FrontProfile(0.3 * (1.0 - np.cos(TWO_PI * y)))
    speed, psi = relax_front(Forcing(np.full(64, 0.5)), initial=start)
    assert speed == pytest.approx(0.5, abs=1e-10)
    assert np.max(np.abs(psi.values)) <= 10.0 * 1e-8


def test_relax_zero_forcing_flattens_by_curvature_flow():
    y = nodes(64)
    start = FrontProfile(0.5 * (1.0 - np.cos(TWO_PI * y)))
    speed, psi = relax_front(Forcing(np.zeros(64)), initial=start)
    assert speed == 0.0
    assert np.max(np.abs(psi.values)) <= 1e-8


def test_relax_matches_shooting_oracle_on_cosine_forcing():
    def forcing_fn(y):
        return 1.0 + 0.5 * np.cos(TWO_PI * np.asarray(y))

    oracle_speed, oracle_profile = oracles.shooting_front(forcing_fn, speed_guess=1.05)
    speed_errors, profile_errors = [], []
    for n in (64, 128, 256):
        y = nodes(n)
        speed, psi = relax_front(Forcing(forcing_fn(y)))
        speed_errors.append(abs(speed - oracle_speed))
        profile_errors.append(np.max(np.abs(psi.values - oracle_profile(y))))
    assert speed_errors[0] <= 1e-5
    assert profile_errors[1] <= 1e-4
    # second order: each doubling of ny cuts both errors about fourfold
    for errors in (speed_errors, profile_errors):
        for coarse, fine in zip(errors, errors[1:]):
            assert 3.5 <= coarse / fine <= 4.5


def test_newton_jacobian_matches_finite_differences():
    """The step holds ``psi[0]`` and solves the Newton system whose matrix is
    the derivative of the front equations ``curvature + c - H * arc`` with
    respect to ``(psi[1:], c)``, here taken by central differences."""
    n = 16
    y = nodes(n)
    H = 1.0 + 0.5 * np.cos(TWO_PI * y)

    def equations(x):
        psi, c = x[:n], x[n]
        slope, _ = front_derivatives(psi)
        return curvature_term(psi) + c - H * np.sqrt(1.0 + slope * slope)

    psi = 0.2 * np.cos(TWO_PI * y) + 0.05 * np.sin(2.0 * TWO_PI * y)
    x, eps = np.append(psi, 0.9), 1e-6
    fd = np.column_stack([
        (equations(x + eps * e) - equations(x - eps * e)) / (2.0 * eps)
        for e in np.eye(n + 1)[1:]
    ])
    dplus, slope, _, _ = _stencil(psi)
    rhs = equations(x)
    dpsi, dc = _newton_step(H, rhs, dplus, slope, np.sqrt(1.0 + slope * slope))
    assert dpsi[0] == 0.0
    np.testing.assert_allclose(
        fd @ np.append(dpsi[1:], dc), -rhs, rtol=0.0, atol=1e-7 * np.max(np.abs(rhs))
    )


def test_relax_converges_in_few_newton_steps(newton_solves):
    for n in (64, 256):
        y = nodes(n)
        newton_solves.clear()
        relax_front(Forcing(1.0 + 0.5 * np.cos(TWO_PI * y)))
        assert newton_solves == [n - 1] * len(newton_solves)
        assert 1 <= len(newton_solves) <= 4


def test_relax_warm_start_from_converged_profile_takes_no_steps(newton_solves):
    y = nodes(64)
    forcing = Forcing(0.37 * np.where(y < 0.5, 0.5, 1.5))
    speed, psi = relax_front(forcing)
    assert len(newton_solves) >= 1
    newton_solves.clear()
    speed_again, psi_again = relax_front(forcing, initial=psi)
    assert newton_solves == []
    assert speed_again == speed
    assert np.array_equal(psi_again.values, psi.values)


def test_relax_takes_no_sparse_or_dense_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the front Newton step is one banded solve")

    for owner, name in ((sparse_linalg, "spsolve"), (sparse_linalg, "splu"),
                        (np.linalg, "solve")):
        monkeypatch.setattr(owner, name, refuse)
    forcing = Forcing(1.0 + 0.5 * np.cos(TWO_PI * nodes(256)))
    speed, psi = relax_front(forcing)
    residual = front_residual(psi, speed, forcing)
    assert np.max(np.abs(residual)) <= 10.0 * front._FRONT_TOL


@pytest.mark.parametrize("failure", ["singular", "non-finite"])
def test_relax_failed_step_is_nonconvergence_with_history(monkeypatch, failure):
    def failing(l_and_u, band, rhs, **kwargs):
        if failure == "singular":
            raise np.linalg.LinAlgError("singular matrix")
        return np.full(rhs.shape, np.nan)

    monkeypatch.setattr(linalg, "solve_banded", failing)
    with pytest.raises(NonConvergenceError) as excinfo:
        relax_front(Forcing(1.0 + 0.5 * np.cos(TWO_PI * nodes(64))))
    err = excinfo.value
    assert err.iterations == 0
    assert err.history == (err.residual,)
    assert err.residual > front._FRONT_TOL


@pytest.mark.parametrize("profile", ["flat", "tilted"])
def test_relax_overflowing_equations_are_nonconvergence(profile):
    # Finite forcing whose front mean overflows: on a flat start the residual
    # is inf, on a tilted one inf - inf = nan.  Neither reaches a banded solve,
    # and neither raises numpy's overflow or invalid-value warning (pytest
    # turns a warning into a failure here).
    y = nodes(8)
    initial = None if profile == "flat" else FrontProfile(1.0 + np.sin(TWO_PI * y))
    with pytest.raises(NonConvergenceError) as excinfo:
        relax_front(Forcing(np.full(8, 1.5e308)), initial)
    err = excinfo.value
    assert err.iterations == 0
    assert not np.isfinite(err.residual)


def test_relax_overflowing_layered_forcing_is_nonconvergence_without_warning():
    # The forcing of Arrhenius prefactor 1e308 on rates 0.5/1.5 at a unit
    # trace: every value is finite and only the mean over the front overflows.
    forcing = Forcing(np.array([0.5] * 4 + [1.5] * 4) * 1e308 * np.exp(-1.0))
    with pytest.raises(NonConvergenceError) as excinfo:
        relax_front(forcing)
    assert excinfo.value.iterations == 0
    assert excinfo.value.residual == np.inf


def test_relax_output_satisfies_speed_identity_and_residual_bound():
    y = nodes(64)
    forcing = Forcing(1.0 + 0.5 * np.cos(TWO_PI * y))
    speed, psi = relax_front(forcing)
    assert abs(speed - compute_speed(forcing, psi)) <= 1e-12
    residual = front_residual(psi, speed, forcing)
    assert np.max(np.abs(residual)) <= 10.0 * front._FRONT_TOL


def test_relax_shift_equivariance():
    n, shift = 64, 37
    y = nodes(n)
    forcing = 1.0 + 0.5 * np.cos(TWO_PI * y)
    speed_a, psi_a = relax_front(Forcing(forcing))
    speed_b, psi_b = relax_front(Forcing(np.roll(forcing, shift)))
    assert speed_b == pytest.approx(speed_a, abs=1e-10)
    assert np.max(np.abs(psi_b.values - np.roll(psi_a.values, shift))) <= 1e-6


def test_relax_reports_nonconvergence_with_history(monkeypatch):
    y = nodes(64)
    forcing = Forcing(1.0 + 0.5 * np.cos(TWO_PI * y))
    # below the round-off floor of the residual, so no step can reach it
    monkeypatch.setattr(front, "_FRONT_TOL", 1e-300)
    with pytest.raises(NonConvergenceError) as excinfo:
        relax_front(forcing)
    err = excinfo.value
    assert err.iterations >= 1
    assert err.residual > 0.0
    assert 0 < len(err.history) <= 8
    assert err.history[-1] == err.residual
    assert err.residual <= 1e-10
