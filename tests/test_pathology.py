"""The sin(log) counterexample: exact surface algebra and verdict checks."""

import numpy as np
import pytest

from pathcalc import (
    DomainError,
    GridPath,
    OSCILLATING,
    check_direction,
    constant_direction,
    constant_path,
    constraint_direction,
    counterexample_functional,
    expansion_check,
    expansion_rate,
    gamma_star,
    mean_functional,
    path_mean,
    probe_non_anticipative,
    ramp_battery,
    ramp_path,
    running_mean,
    sin_log,
    sin_log_prime,
    surface_functional,
    surface_value,
)
from pathcalc.rng import substream


def test_sin_log_basics():
    assert sin_log(0.0) == 0.0
    assert sin_log(1e-301) == 0.0  # below the guard
    assert sin_log(1.0) == 0.0     # log 1 = 0
    y = np.array([-2.0, -1e-320, 0.0, 0.5, 3.0])
    out = sin_log(y)
    assert np.all(np.abs(out) <= np.abs(y))
    assert out[1] == 0.0 and out[2] == 0.0


def test_sin_log_prime_at_one():
    assert sin_log_prime(1.0) == 1.0
    assert sin_log_prime(0.0) == 0.0


def test_ramp_is_on_the_surface_exactly():
    r = ramp_path(1.0, 1.0, n=1025)
    # mean over [0, t] of the identity is t/2, all dyadic, so the gap is 0.0
    assert np.all(surface_value(r.times, r) == 0.0)


def test_shifted_ramp_gap_is_exact_quarter():
    shifted = ramp_path(1.0, 1.0, n=1025, offset=0.25)
    ts = shifted.times[1:]
    assert np.all(surface_value(ts, shifted) == -0.25)


def test_counterexample_is_bounded_by_path_sup():
    F = counterexample_functional()
    gen = substream(17, 0)
    for _ in range(20):
        inner = np.sort(gen.uniform(0.01, 0.99, 10))
        times = np.concatenate([[0.0], inner, [1.0]])
        values = gen.uniform(-2.0, 2.0, size=(len(times), 1))
        x = GridPath(times, values)
        t = float(gen.uniform(0.0, 1.0))
        assert abs(F.eval(t, x)) <= 3.0 * np.abs(values).max() + 1e-12


def test_surface_pieces_are_non_anticipative():
    for F in (mean_functional(), surface_functional(),
              counterexample_functional()):
        assert probe_non_anticipative(F, samples=50).passed


def test_one_dimensional_only():
    r2 = ramp_path([1.0, 1.0], 1.0, n=65)
    with pytest.raises(DomainError):
        surface_value(0.5, r2)
    for F in mean_functional(), surface_functional():
        with pytest.raises(DomainError):
            F.eval(0.5, r2)


def test_path_mean_is_the_running_mean_per_time():
    x = ramp_path(1.0, 1.0, n=33, offset=3.0)
    ts = np.array([0.0, 0.25, 1.0])
    want = running_mean(ts, x)[:, 0]
    assert path_mean(ts, x).tobytes() == want.tobytes()
    # a float time still gives a one-element array
    assert path_mean(0.25, x).shape == (1,)
    assert surface_value(0.0, x).tobytes() == np.array([-3.0]).tobytes()
    assert path_mean(0.0, x)[0] == 3.0


# ---------------------------------------------------------------------------
# expansion rates


def test_expansion_rate_closed_forms_on_ramp():
    r = ramp_path(1.0, 1.0, n=1025)
    # horizontal: -2 (x - mean) / t = -1 on the ramp, exactly
    assert expansion_rate(None, 0.5, r) == -1.0
    assert expansion_rate(constant_direction([2.0]), 0.5, r) == 1.0
    # gamma* reproduces the subtracted term bitwise, so alpha is exactly 0
    assert expansion_rate(gamma_star(0.25), 0.5, r) == 0.0
    with pytest.raises(DomainError):
        expansion_rate(None, 0.0, r)


def test_expansion_check_on_a_constant_path_fits_no_slope():
    # the surface gap of a constant path is 0 at every rung, as its rate
    # is, which leaves no rung above 1e-13 to fit an order to
    chk = expansion_check(0.5, constant_path(1.0))
    assert chk.alpha == 0.0 and chk.alpha_hat == 0.0
    assert chk.verdict == "converged" and chk.ok
    assert np.isnan(chk.slope)


def test_expansion_check_matches_stopped_ramp_closed_form():
    # Phi(t0 + eta) on the stopped ramp is -t0 eta / (t0 + eta), so the
    # rate ladder must equal -t0 / (t0 + eta) at the realized float gaps
    t0 = 0.5
    r = ramp_path(1.0, 1.0, n=1025)
    chk = expansion_check(t0, r)
    etas = chk.report.etas
    eta_eff = np.minimum(t0 + etas, 1.0) - t0
    oracle = -t0 / (t0 + eta_eff)
    # Phi is computed from O(1) quantities, so dividing its ~1e-16 rounding
    # by eta lets the quotient drift like c/eta at the small rungs
    assert np.all(np.abs(chk.report.quotients - oracle)
                  <= 1e-12 + 2e-15 / eta_eff)
    assert chk.alpha == -1.0
    assert chk.ok
    assert abs(chk.alpha_hat - (-1.0)) <= 1e-3
    assert abs(chk.slope - 1.0) <= 0.2


def test_direction_fields_enforce_time_floor():
    fld = constraint_direction(0.25)
    star = gamma_star(0.25)
    r = ramp_path(1.0, 1.0, n=65)
    with pytest.raises(DomainError):
        fld.eval(0.1, r)
    with pytest.raises(DomainError):
        star.eval(0.1, r)
    with pytest.raises(DomainError):
        constraint_direction(0.0)
    with pytest.raises(DomainError):
        gamma_star(-1.0)
    assert fld.lipschitz_K == 8.0
    assert star.lipschitz_K == 16.0


def test_direction_fields_take_an_empty_time_array():
    r = ramp_path(1.0, 1.0, n=65)
    for field in constraint_direction(0.25), gamma_star(0.25):
        assert field.eval_many(np.array([]), r).shape == (0, 1)
        with pytest.raises(DomainError):
            field.eval_many(np.array([0.1, 0.5]), r)


def test_constraint_direction_value_on_ramp():
    r = ramp_path(1.0, 1.0, n=1025)
    # 2 * mean / t = 1 on the ramp
    assert constraint_direction(0.25).eval(0.5, r)[0] == 1.0
    assert gamma_star(0.25).eval(0.5, r)[0] == 1.0


def test_check_direction_off_surface_regular():
    shifted = ramp_path(1.0, 1.0, n=1025, offset=0.25)
    dc = check_direction(constant_direction([2.0]), 0.5, shifted)
    assert not dc.on_surface
    assert dc.expected == "converged"
    assert dc.alpha == 1.0
    assert dc.reference == sin_log_prime(-0.25)
    assert dc.ok


# ---------------------------------------------------------------------------
# the full battery


@pytest.fixture(scope="module")
def battery():
    return ramp_battery()


def test_battery_spatial_quotients_ride_sin_log(battery):
    oracle = np.sin(np.log(battery.spatial.etas))
    err = np.abs(battery.spatial.quotients - oracle).max()
    assert err <= 1e-12
    assert battery.spatial_max_err <= 1e-12
    assert battery.spatial.verdict == OSCILLATING


def test_battery_horizontal_oscillates(battery):
    assert battery.horizontal.verdict == OSCILLATING
    assert battery.horizontal.alternations >= 3


def test_battery_tangent_directions_converge_to_zero(battery):
    assert battery.constraint.ok
    assert abs(battery.constraint.report.estimate) <= 1e-3
    assert battery.star_on.ok
    assert abs(battery.star_on.report.estimate) <= 1e-3
    assert battery.star_off.ok
    assert abs(battery.star_off.report.estimate) <= 1e-3
    assert battery.star_off.phi0 == -0.25


def test_battery_rogue_direction_oscillates(battery):
    assert battery.rogue.report.label == "d_gamma[sinlog_gap|const(2.0)]@0.5"
    assert battery.rogue.expected == OSCILLATING
    assert battery.rogue.ok
    assert battery.rogue.alpha == 1.0


def test_battery_expansion_rate(battery):
    assert battery.expansion.alpha == -1.0
    assert abs(battery.expansion.alpha_hat + 1.0) <= 1e-3
    assert battery.expansion.ok


def test_battery_passes(battery):
    assert battery.passed


def test_battery_argument_validation():
    with pytest.raises(DomainError):
        ramp_battery(t0=0.0)
    with pytest.raises(DomainError):
        ramp_battery(t0=1.5)
