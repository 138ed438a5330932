"""Flow solver against closed forms and its own first-order oracle."""

import numpy as np
import pytest

from pathcalc import (
    ConfigError,
    DomainError,
    FlowIterationError,
    LINEAR,
    NumericalError,
    SplicedPath,
    StoppedPath,
    constant_direction,
    constant_path,
    eval_direction,
    euler_flow,
    ramp_path,
    running_avg_direction,
    solve_flow,
    stop,
    zero_direction,
)
from pathcalc.functionals import DirectionField

from conftest import GRID_FAULTS, bad_grid, grid_error

# I_0(2 sqrt(0.5)): exact value of the running-average flow from w = 1 at
# t = 0.5 (power series sum t^k / (k!)^2); np.i0 reproduces this float
BESSEL_AT_HALF = 1.5660829297563506


def test_exponential_growth():
    w = constant_path(1.0)
    sol = solve_flow(w, 0.0, eval_direction(1), until=1.0, substep=1e-4)
    assert abs(sol.path.eval(1.0)[0] - np.e) <= 1e-6


def test_zero_direction_returns_stopped_path():
    w = constant_path(1.0)
    sol = solve_flow(w, 0.25, zero_direction(1), until=1.0, substep=1e-2)
    assert isinstance(sol.path, StoppedPath)
    assert sol.path.base is w
    ts = np.linspace(0.0, 1.0, 41)
    assert np.array_equal(sol.path.eval(ts), stop(w, 0.25).eval(ts))


def _avg_flow_euler_oracle(t_end, dt):
    # brute-force first-order march of y' = avg(y), kept deliberately away
    # from the package machinery
    n = int(round(t_end / dt))
    y, integral = 1.0, 0.0
    for k in range(n):
        t = k * dt
        avg = integral / t if t > 0 else y
        integral += dt * y
        y += dt * avg
    return y


def test_running_average_flow_matches_bessel():
    w = constant_path(1.0)
    sol = solve_flow(w, 0.0, running_avg_direction(1), until=0.5,
                     substep=2.0 ** -12)
    got = sol.path.eval(0.5)[0]
    assert abs(got - BESSEL_AT_HALF) <= 1e-6
    assert abs(got - np.i0(2.0 * np.sqrt(0.5))) <= 1e-6
    oracle = _avg_flow_euler_oracle(0.5, 1e-5)
    assert abs(got - oracle) <= 5e-5


def test_constant_direction_is_exact_linear_extension():
    w = constant_path(1.0)
    sol = solve_flow(w, 0.25, constant_direction([2.0]), until=0.75,
                     substep=2.0 ** -6)
    expect = 1.0 + 2.0 * (sol.grid - 0.25)
    assert np.array_equal(sol.values[:, 0], expect)
    eul = euler_flow(w, 0.25, constant_direction([2.0]), until=0.75,
                     substep=2.0 ** -6)
    assert np.array_equal(eul.values, sol.values)


def test_two_dimensional_flow():
    w = constant_path([1.0, 2.0])
    sol = solve_flow(w, 0.0, eval_direction(2), until=1.0, substep=2.0 ** -10)
    end = sol.path.eval(1.0)
    assert abs(end[0] - np.e) <= 1e-6
    assert abs(end[1] - 2.0 * np.e) <= 2e-6


def test_orders_of_accuracy():
    # y' = y from y(0) = 1: euler is first order, the trapezoid fixed
    # point second order
    w = constant_path(1.0)
    errs_p, errs_e = [], []
    for substep in (2.0 ** -6, 2.0 ** -7):
        sol = solve_flow(w, 0.0, eval_direction(1), until=1.0,
                         substep=substep, picard_tol=1e-13)
        eul = euler_flow(w, 0.0, eval_direction(1), until=1.0,
                         substep=substep)
        errs_p.append(abs(sol.path.eval(1.0)[0] - np.e))
        errs_e.append(abs(eul.path.eval(1.0)[0] - np.e))
    order_p = np.log2(errs_p[0] / errs_p[1])
    order_e = np.log2(errs_e[0] / errs_e[1])
    assert 1.7 <= order_p <= 2.3
    assert 0.8 <= order_e <= 1.2
    assert errs_p[1] < errs_e[1]


def test_semigroup_property():
    w = constant_path(1.0)
    gamma = eval_direction(1)
    direct = solve_flow(w, 0.0, gamma, until=1.0, substep=2.0 ** -10)
    first = solve_flow(w, 0.0, gamma, until=0.4, substep=2.0 ** -10)
    second = solve_flow(first.path, 0.4, gamma, until=1.0, substep=2.0 ** -10)
    gap = abs(second.path.eval(1.0)[0] - direct.path.eval(1.0)[0])
    assert gap <= 1e-8


def test_residual_within_reported_tolerance():
    w = constant_path(1.0)
    sol = solve_flow(w, 0.0, eval_direction(1), until=1.0, substep=2.0 ** -8)
    assert float(sol.residual().max()) <= sol.tol_residual
    # one time gives one float, which raised numpy's IndexError
    assert sol.residual(0.5) == sol.residual([0.5])[0]


def test_start_equals_until_is_stop():
    w = constant_path(3.0)
    sol = solve_flow(w, 0.5, eval_direction(1), until=0.5)
    assert sol.path.eval(1.0)[0] == 3.0
    assert len(sol.grid) == 1


@pytest.mark.parametrize("substep", [1e-300, 2.0 ** -25])
def test_grid_of_more_than_2_24_steps_is_rejected_before_allocating(substep):
    w = constant_path(1.0)
    with pytest.raises(ConfigError, match="2\\*\\*24"):
        solve_flow(w, 0.0, eval_direction(1), substep=substep)
    big = constant_path(1.0, horizon=1e308)
    with pytest.raises(ConfigError, match="2\\*\\*24"):
        solve_flow(big, 0.0, eval_direction(1), substep=1.0)


def test_substep_must_fit_contraction_window():
    w = constant_path(1.0)
    with pytest.raises(ConfigError):
        solve_flow(w, 0.0, eval_direction(1), until=1.0, substep=0.25,
                   window=1e-3)


def test_dishonest_lipschitz_constant_detected():
    w = constant_path(1.0)
    liar = DirectionField(lambda t, x: 50.0 * x.eval(t), 1, 0.1,
                          label="liar",
                          fn_many=lambda ts, x: 50.0 * x.eval(ts))
    with pytest.raises(FlowIterationError) as exc:
        solve_flow(w, 0.0, liar, until=1.0, substep=2.0 ** -4, max_iters=40)
    assert exc.value.last_iterate is not None
    assert exc.value.sup_change > 0


def test_max_iters_enforced():
    w = constant_path(1.0)
    with pytest.raises(FlowIterationError):
        solve_flow(w, 0.0, eval_direction(1), until=1.0, substep=2.0 ** -6,
                   picard_tol=1e-15, max_iters=1)


def test_argument_validation():
    w = constant_path(1.0)
    gamma = eval_direction(1)
    with pytest.raises(DomainError):
        solve_flow(w, -0.1, gamma)
    with pytest.raises(DomainError):
        solve_flow(w, 0.5, gamma, until=0.25)
    with pytest.raises(DomainError):
        solve_flow(w, 0.0, eval_direction(2))
    with pytest.raises(ConfigError):
        solve_flow(w, 0.0, gamma, substep=-1.0)
    with pytest.raises(DomainError):
        solve_flow(w, 0.0, gamma, grid=np.array([0.1, 0.5]))
    with pytest.raises(ConfigError, match="max_iters must be at least 1"):
        solve_flow(w, 0.0, gamma, max_iters=0)
    with pytest.raises(ConfigError, match="max_iters must be a whole number"):
        solve_flow(w, 0.0, gamma, max_iters=2.5)
    with pytest.raises(DomainError):
        sol = solve_flow(w, 0.0, gamma, until=0.5)
        sol.residual(np.array([0.9]))
    # NaN passed the range check, text and a second axis reached numpy
    for ts, message in [
            ([np.nan], r"ts must lie in \[0\.0, 0\.5\], not nan"),
            ([0.25, 0.9], r"ts must lie in \[0\.0, 0\.5\], not 0\.9"),
            (["a"], r"ts must be an array of real times, not \['a'\]"),
            ([[0.5]], r"ts must be one time or a 1-d array of times, not "
                      r"of shape \(1, 1\)")]:
        with pytest.raises(DomainError, match=f"^{message}$"):
            sol.residual(ts)
    for kw, error, message in _ONE_NODE_FAULTS:
        with pytest.raises(error, match=f"^{message}$"):
            solve_flow(ramp_path(1.0), 0.5, gamma, until=0.5, **kw)
    # a span too short for its steps repeats a node of the grid built
    with pytest.raises(DomainError, match="^seg_times must be strictly "
                                          "increasing, not 0.5 then 0.5$"):
        solve_flow(ramp_path(1.0), 0.5, gamma, until=0.5 + 1e-15)


# a flow from s to s reads substep and grid as a longer flow does: each
# returned a solution of one node
_ONE_NODE_FAULTS = [
    (dict(substep=-1.0), ConfigError, r"substep must be positive, finite "
     r"and give at most 2\*\*24 steps, not -1\.0"),
    (dict(substep="abc"), ConfigError,
     r"substep must be positive and finite, not 'abc'"),
    (dict(substep=-1.0, grid=[0.0, "a"]), DomainError,
     r"grid must be an array of real times, not \[0\.0, 'a'\]"),
    (dict(grid=[0.5, 0.5]), DomainError,
     r"grid: horizon must be positive, not 0\.0"),
]


@pytest.mark.parametrize("solver", [solve_flow, euler_flow])
@pytest.mark.parametrize("fault", GRID_FAULTS)
def test_explicit_grid_of_the_wrong_shape_is_a_domain_error(solver, fault):
    # the shape is checked before the endpoints, which numpy cannot compare
    # on a 2-d grid and cannot index on an empty one; a NaN or an infinite
    # time is named for itself
    with pytest.raises(DomainError, match=grid_error(fault, "grid")):
        solver(constant_path(1.0), 0.0, eval_direction(1),
               grid=bad_grid(fault, 0.0, 1.0))


@pytest.mark.parametrize("solver", [solve_flow, euler_flow])
def test_explicit_grid_that_does_not_rise_is_a_domain_error(solver):
    grid = np.array([0.0, 0.5, 0.5, 1.0])
    with pytest.raises(DomainError, match="strictly increasing"):
        solver(constant_path(1.0), 0.0, eval_direction(1), grid=grid)


@pytest.mark.parametrize("solver", [solve_flow, euler_flow])
def test_infinite_substep_is_rejected(solver):
    # it would otherwise give a grid of one step over the whole span
    with pytest.raises(ConfigError, match="substep must be positive, finite"):
        solver(constant_path(1.0), 0.0, eval_direction(1), substep=np.inf)


@pytest.mark.parametrize("solver, option", [
    (solve_flow, "substep"), (euler_flow, "substep"), (solve_flow, "window")])
@pytest.mark.parametrize("bad", ["a", [0.5], np.ones(2)],
                         ids=["text", "list", "array"])
def test_a_step_option_that_is_no_real_is_refused_by_name(solver, option, bad):
    # each raised TypeError, or numpy's ValueError for the array, from its
    # range check
    with pytest.raises(ConfigError, match=rf"^{option} must be positive and "
                                          r"finite, not "):
        solver(ramp_path(1.0, 1.0, n=65), 0.5, eval_direction(1),
               **{option: bad})


def test_a_window_keeps_its_rule_for_numbers():
    x = ramp_path(1.0, 1.0, n=65)
    for window in (0.0, -1.0, np.nan):
        with pytest.raises(ConfigError, match="^window must be positive$"):
            solve_flow(x, 0.5, eval_direction(1), window=window)
    # an infinite window caps nothing beyond the contraction window
    got = solve_flow(x, 0.5, eval_direction(1), window=np.inf)
    want = solve_flow(x, 0.5, eval_direction(1))
    assert got.values.tobytes() == want.values.tobytes()


def test_grid_whose_span_times_steps_overflows_is_rejected():
    w = constant_path(1.0, horizon=1e308)
    with pytest.raises(ConfigError, match="span 1e\\+308 times 1024 steps"):
        solve_flow(w, 0.0, eval_direction(1))
    # just below the overflow the grid is built as before
    w = constant_path(1.0, horizon=1e308 / 1024)
    sol = euler_flow(w, 0.0, zero_direction(1))
    span = 1e308 / 1024
    assert sol.grid.tobytes() == np.concatenate(
        [span * np.arange(1024) / 1024, [span]]).tobytes()


@pytest.mark.parametrize("option", ["picard_tol", "window"])
def test_nan_options_are_rejected(option):
    w = constant_path(1.0)
    with pytest.raises(ConfigError, match=option):
        solve_flow(w, 0.0, eval_direction(1), **{option: np.nan})


def test_infinite_picard_tol_is_rejected():
    # it would stop each window after one sweep, far from the fixed point
    with pytest.raises(ConfigError, match="picard_tol .* not inf"):
        solve_flow(ramp_path(), 0.2, eval_direction(1), picard_tol=np.inf)


_SPAN_ERRORS = {
    (-0.1, 0.5): r"^s must be a time in \[0, 1\.0\], not -0\.1$",
    (0.5, 0.25): r"^until must be at least s=0\.5, not 0\.25$",
    (0.5, 1.5): r"^until must be a time in \[0, 1\.0\], not 1\.5$",
}


@pytest.mark.parametrize("solver", [solve_flow, euler_flow])
@pytest.mark.parametrize("s, until", sorted(_SPAN_ERRORS))
def test_both_solvers_check_the_span_alike(solver, s, until):
    with pytest.raises(DomainError, match=_SPAN_ERRORS[s, until]):
        solver(constant_path(1.0), s, eval_direction(1), until=until)


def test_euler_flow_zero_field_is_stop():
    w = constant_path(2.0)
    sol = euler_flow(w, 0.5, zero_direction(1), until=1.0, substep=0.125)
    assert isinstance(sol.path, StoppedPath)


def test_euler_flow_argument_validation():
    w = constant_path(1.0)
    for (s, until), named in _SPAN_ERRORS.items():
        with pytest.raises(DomainError, match=named):
            euler_flow(w, s, eval_direction(1), until=until)
    with pytest.raises(DomainError, match=r"^gamma must be a functional of "
                                          r"shape \(1,\), not \(2,\)$"):
        euler_flow(w, 0.0, eval_direction(2))
    for kw, error, message in _ONE_NODE_FAULTS:
        with pytest.raises(error, match=f"^{message}$"):
            euler_flow(ramp_path(1.0), 0.5, eval_direction(1), until=0.5, **kw)


def test_euler_flow_start_equals_until_is_stop():
    ramp = ramp_path(1.0, 1.0, n=65)
    sol = euler_flow(ramp, 0.5, eval_direction(1), until=0.5)
    assert isinstance(sol.path, StoppedPath)
    assert sol.path.eval(1.0)[0] == 0.5
    assert sol.grid.tolist() == [0.5]
    assert sol.values.tolist() == [[0.5]]
    assert sol.iterations == []
    # the general route's rule, as for every other Euler solution
    assert sol.quadrature == "left"


def test_euler_flow_residual_uses_left_rectangles():
    # the residual of an euler solution integrates the field with the
    # solver's own left-point rule, so it vanishes up to rounding
    ramp = ramp_path(1.0, 1.0, n=65)
    sol = euler_flow(ramp, 0.25, running_avg_direction(1), substep=1e-3)
    assert sol.quadrature == "left"
    res = sol.residual()
    assert res.shape == sol.grid.shape
    assert res.max() <= sol.tol_residual
    assert sol.residual([0.25, 0.5, 1.0]).max() <= sol.tol_residual


# ---------------------------------------------------------------------------
# euler_flow is one left-point step per grid cell


def _euler_reference(w, s, gamma, grid):
    """Each step reads the field on w spliced with the values so far, built
    by the public constructor: values[j + 1] = values[j] + dt * gamma."""
    values = np.empty((len(grid), w.dim))
    values[0] = w.eval(s)
    for j in range(len(grid) - 1):
        head = SplicedPath(w, s, grid[:j + 1], values[:j + 1], LINEAR)
        values[j + 1] = values[j] + (grid[j + 1] - grid[j]) \
            * gamma.eval(grid[j], head)
    return values


def _damped(dim):
    # a field without fn_many, so it is read one time at a time
    return DirectionField(lambda t, x: 0.5 * x.eval(t)
                          - x.integral_prefix(t), dim, 1.5)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("make_field", [
    eval_direction, running_avg_direction,
    lambda d: constant_direction([0.5, -0.25][:d]), _damped,
], ids=["eval", "running_avg", "constant", "without_fn_many"])
def test_euler_flow_matches_a_per_step_reference(make_field, dim):
    gamma = make_field(dim)
    w = ramp_path([1.0, -0.5][:dim], 1.0, n=9, offset=[0.25, 1.0][:dim])
    for s, grid in ((0.0, None), (0.3, np.array([0.3, 0.35, 0.6, 0.61, 1.0]))):
        sol = euler_flow(w, s, gamma, substep=1 / 16, grid=grid)
        assert np.array_equal(sol.values,
                              _euler_reference(w, s, gamma, sol.grid))
        assert np.array_equal(sol.path.eval(sol.grid), sol.values)


def test_an_euler_flow_that_overflows_is_a_numerical_error():
    # it returned [1e100, inf, inf, ...]; the first grid time at which the
    # flow is not finite is named
    def squared(ts, x):         # 1e200 * x(t)**2 overflows from 1e100
        return 1e200 * x.eval(ts) ** 2

    field = DirectionField(squared, 1, 1.0, fn_many=squared)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match=r"^the Euler flow is not "
                                                 r"finite, first at grid "
                                                 r"time 0\.125$"):
            euler_flow(constant_path(1e100), 0.0, field, substep=0.125)
