"""SDE simulation, Monte Carlo values and backward-equation residuals."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    ConfigError,
    DirectionField,
    DomainError,
    FlowIterationError,
    GridPath,
    MCEstimate,
    NumericalError,
    SDESpec,
    SplicedPath,
    benchmark,
    brownian_path,
    builtin,
    constant_direction,
    constant_functional,
    constant_matrix_field,
    constant_path,
    estimate_f,
    fk_residual,
    martingale_check,
    numerical_derivatives,
    rng,
    simulate_sde,
    solve_flow,
    stop,
)
from pathcalc.functionals import Functional, FunctionalWithDerivatives, \
    MatrixFunctional, VectorFunctional
from pathcalc.paths import LINEAR, splice_view

from conftest import GRID_FAULTS, bad_grid, grid_error


def _drift_only(mu):
    return SDESpec(constant_direction([mu]), constant_matrix_field([[0.0]]),
                   constant_functional(0.0), builtin("eval"), horizon=1.0)


def test_zero_coefficients_freeze_the_path():
    spec = _drift_only(0.0)
    x0 = constant_path(1.0)
    p = simulate_sde(spec, 0.5, x0, n_steps=64, seed=0)
    ts = np.linspace(0.0, 1.0, 33)
    assert np.all(p.eval(ts) == 1.0)


def test_pure_drift_is_exact_on_dyadic_grid():
    spec = _drift_only(1.0)
    x0 = constant_path(1.0)
    p = simulate_sde(spec, 0.5, x0, n_steps=64, seed=3)
    # dt = 2^-7: X picks up exactly (t - 1/2) with no rounding
    grid = np.linspace(0.5, 1.0, 65)
    assert np.array_equal(p.eval(grid)[:, 0], 1.0 + (grid - 0.5))
    assert p.eval(1.0)[0] == 1.5
    # history untouched
    assert np.all(p.eval(np.linspace(0.0, 0.4375, 8)) == 1.0)


def test_brownian_variance_matches_remaining_time():
    spec, _ = benchmark("gauss_square")
    x0 = constant_path(1.0)
    t = 0.25
    finals = np.empty(10000)
    for i in range(10000):
        p = simulate_sde(spec, t, x0, n_steps=64, seed=11, index=i)
        finals[i] = p.eval(1.0)[0]
    var = float(np.var(finals - 1.0, ddof=1))
    assert abs(var - (1.0 - t)) <= 0.05 * (1.0 - t)


def test_sequential_route_matches_constant_route_statistically():
    # same SDE, one with coded constants, one hiding them behind lambdas
    from pathcalc.functionals import MatrixFunctional, VectorFunctional
    fast = _drift_only(0.5)
    slow = SDESpec(
        VectorFunctional(lambda t, x: np.array([0.5]), 1),
        MatrixFunctional(lambda t, x: np.array([[0.0]]), (1, 1)),
        constant_functional(0.0), builtin("eval"), horizon=1.0)
    assert fast.has_constant_coeffs
    assert not slow.has_constant_coeffs
    x0 = constant_path(1.0)
    a = simulate_sde(fast, 0.5, x0, n_steps=32, seed=5)
    b = simulate_sde(slow, 0.5, x0, n_steps=32, seed=5)
    assert np.allclose(a.eval(np.linspace(0.5, 1, 33)),
                       b.eval(np.linspace(0.5, 1, 33)), rtol=1e-12)


def test_simulate_argument_validation():
    spec = _drift_only(0.0)
    x0 = constant_path(1.0)
    assert simulate_sde(spec, 1.0, x0) is x0
    with pytest.raises(DomainError):
        simulate_sde(spec, 1.5, x0)
    with pytest.raises(DomainError):
        simulate_sde(spec, 0.5, constant_path(1.0, horizon=2.0))
    with pytest.raises(DomainError):
        simulate_sde(spec, 0.5, constant_path([1.0, 2.0]))
    with pytest.raises(ConfigError):
        simulate_sde(spec, 0.5, x0, n_steps=0)
    with pytest.raises(ConfigError):
        simulate_sde(spec, 0.5, x0, grid=np.array([0.6, 1.0]))


@pytest.mark.parametrize("fault", GRID_FAULTS)
def test_simulate_rejects_a_grid_of_the_wrong_shape(fault):
    # the shape is checked before the endpoints, which numpy cannot compare
    # on a 2-d grid and cannot index on an empty one; a NaN or an infinite
    # time is named for itself
    with pytest.raises(ConfigError, match=grid_error(fault, "grid")):
        simulate_sde(_drift_only(0.0), 0.5, constant_path(1.0),
                     grid=bad_grid(fault, 0.5, 1.0))
    with pytest.raises(DomainError):
        SDESpec(constant_direction([0.0, 0.0]), constant_matrix_field([[1.0]]),
                constant_functional(0.0), builtin("eval"))


# ---------------------------------------------------------------------------
# Monte Carlo values


def test_deterministic_estimate_is_exact():
    spec = _drift_only(1.0)
    x0 = constant_path(1.0)
    # 2048 identical samples: pairwise mean is exact, spread exactly zero
    est = estimate_f(spec, 0.5, x0, n_paths=2048, n_steps=64, seed=0)
    assert est.value == 1.5
    assert est.stderr == 0.0


def test_constant_discount_is_exact():
    spec, f = benchmark("discount_const")
    x0 = constant_path(1.0)
    est = estimate_f(spec, 0.5, x0, n_paths=2048, n_steps=16, seed=0)
    assert est.value == np.exp(-0.25 * 0.5)
    assert est.stderr == 0.0
    assert f.eval(0.5, x0) == np.exp(-0.25 * 0.5)


def test_estimate_at_horizon_is_payoff():
    spec, _ = benchmark("gauss_square")
    x0 = constant_path(2.0)
    est = estimate_f(spec, 1.0, x0)
    assert est.value == 4.0
    assert est.stderr == 0.0
    assert est.n_paths == 0


def test_gauss_square_estimate_within_three_stderr():
    spec, f = benchmark("gauss_square")
    x0 = constant_path(1.0)
    est = estimate_f(spec, 0.5, x0, n_paths=2000, n_steps=64, seed=2)
    assert est.stderr > 0
    assert est.within(f.eval(0.5, x0), k=3.0)


def test_mc_estimate_within_helper():
    est = MCEstimate(1.0, 0.1, 100)
    assert est.within(1.25)
    assert not est.within(1.5)


def test_estimate_argument_validation():
    spec = _drift_only(0.0)
    with pytest.raises(ConfigError):
        estimate_f(spec, 0.5, constant_path(1.0), n_paths=0)


def test_one_path_estimate_has_no_error_bar():
    spec, f = benchmark("gauss_square")
    x0 = constant_path(1.0)
    est = estimate_f(spec, 0.5, x0, n_paths=1, n_steps=16, seed=0)
    # the value is the first path's, as in any larger estimate
    two = estimate_f(spec, 0.5, x0, n_paths=2, n_steps=16, seed=0)
    assert np.isfinite(est.value)
    assert np.isnan(est.stderr)
    assert est.n_paths == 1
    assert not est.within(est.value)
    assert not est.within(f.eval(0.5, x0))
    assert np.isfinite(two.stderr)


def _wide_noise():
    # the payoffs stay finite, their squared deviations overflow
    return SDESpec(constant_direction([0.0]), constant_matrix_field([[1e160]]),
                   constant_functional(0.0), builtin("eval"))


@pytest.mark.parametrize("make_spec, horizon", [
    (lambda: benchmark("gauss_square", horizon=1e308)[0], 1e308),
    (_wide_noise, 1.0),
], ids=["value_overflows", "stderr_overflows"])
def test_an_overflow_is_no_estimate(make_spec, horizon):
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="not finite"):
            estimate_f(make_spec(), 0.5, constant_path(1.0, horizon=horizon),
                       n_paths=8)
        # one path has no error bar to overflow
        one = estimate_f(_wide_noise(), 0.5, constant_path(1.0), n_paths=1)
    assert np.isfinite(one.value) and np.isnan(one.stderr)


def test_a_path_that_overflows_fails_numerically():
    # guard: the splices of computed values that solve_flow and the
    # simulation build are not checked for finite values, so an overflow
    # stays a numerical failure, not a domain error
    def squared(ts, x):         # 1e200 * x(t)**2 overflows from 1e100
        return 1e200 * x.eval(ts) ** 2

    field = DirectionField(squared, 1, 1.0, fn_many=squared)
    spec = SDESpec(field, constant_matrix_field([[1.0]]),
                   constant_functional(0.0), builtin("eval"))
    x = constant_path(1e100)
    with np.errstate(all="ignore"):
        with pytest.raises(FlowIterationError) as failed:
            solve_flow(x, 0.0, field)
        with pytest.raises(NumericalError, match="not finite"):
            estimate_f(spec, 0.0, x, n_paths=4, n_steps=8)
    assert isinstance(failed.value.last_iterate, SplicedPath)


# ---------------------------------------------------------------------------
# backward-equation residuals


@pytest.mark.parametrize("name", ["gauss_square", "drifted_linear",
                                  "discount_const"])
def test_benchmark_residuals_are_exactly_zero(name):
    spec, f = benchmark(name)
    histories = [constant_path(1.0), constant_path(-0.75),
                 brownian_path(7, 3, n_exp=8)]
    for x in histories:
        for t in (0.125, 0.5, 0.875):
            assert fk_residual(f, spec, t, x) == 0.0


def test_unknown_benchmark():
    with pytest.raises(DomainError):
        benchmark("heat_kernel")


def test_wrong_candidate_has_nonzero_residual():
    spec, _ = benchmark("gauss_square")
    wrong = builtin("square")  # forgets the remaining-time term
    r = fk_residual(wrong, spec, 0.5, constant_path(1.0))
    assert r == 1.0  # 0 + 0 - 0 + (1/2) * 2 * 1


def test_residual_with_ladder_derivatives():
    spec, f = benchmark("gauss_square")
    f_num = numerical_derivatives(f, dim=1)
    r = fk_residual(f_num, spec, 0.5, constant_path(1.0))
    assert abs(r) <= 1e-2


def test_residual_requires_derivatives():
    spec, _ = benchmark("gauss_square")
    bare = Functional(lambda t, x: 0.0, label="bare")
    with pytest.raises(DomainError):
        fk_residual(bare, spec, 0.5, constant_path(1.0))


# ---------------------------------------------------------------------------
# martingale checks


def test_martingale_exact_zero_without_noise():
    spec = _drift_only(0.5)
    f = benchmark("drifted_linear")[1]
    t_grid = np.linspace(0.25, 1.0, 25)
    rep = martingale_check(spec, f, t_grid, 1.0, n_paths=16, seed=0)
    assert rep.passed
    assert np.all(rep.means == 0.0)
    assert np.all(rep.stderrs == 0.0)
    assert rep.worst_z == 0.0


def test_martingale_accepts_true_value_function():
    spec, f = benchmark("gauss_square")
    t_grid = np.linspace(0.0, 1.0, 17)
    rep = martingale_check(spec, f, t_grid, 1.0, n_paths=2000, seed=4)
    assert rep.passed


def test_martingale_flags_corrupted_candidate():
    spec, _ = benchmark("gauss_square")
    wrong = builtin("square")
    t_grid = np.linspace(0.0, 1.0, 17)
    rep = martingale_check(spec, wrong, t_grid, 1.0, n_paths=4000, seed=4)
    assert not rep.passed
    assert rep.worst_z > 3.0


def test_martingale_discount_enters_the_statistic():
    spec, _ = benchmark("discount_const")
    flat = constant_functional(1.0)
    t_grid = np.linspace(0.0, 1.0, 9)
    rep = martingale_check(spec, flat, t_grid, 1.0, n_paths=64, seed=1)
    # discounted constant decays deterministically: zero spread, biased mean
    assert not rep.passed
    assert rep.worst_z == np.inf
    assert np.all(rep.means < 0.0)


def test_martingale_validation():
    spec, f = benchmark("gauss_square")
    with pytest.raises(ConfigError):
        martingale_check(spec, f, np.linspace(0, 1, 5), 1.0, n_paths=1)
    with pytest.raises(DomainError):
        martingale_check(spec, f, np.array([0.5]), 1.0)
    with pytest.raises(DomainError):
        martingale_check(spec, f, np.array([0.5, 1.5]), 1.0)


@pytest.mark.parametrize("fault", GRID_FAULTS)
def test_martingale_check_rejects_a_bad_t_grid(fault):
    spec, f = benchmark("gauss_square")
    with pytest.raises(DomainError, match=grid_error(fault, "t_grid")):
        martingale_check(spec, f, bad_grid(fault, 0.0, 1.0), 1.0, n_paths=4)


def test_martingale_check_names_a_grid_start_before_zero():
    spec, f = benchmark("gauss_square")
    with pytest.raises(DomainError, match=r"^t_grid\[0\] must be a time in "
                                          r"\[0, 1\.0\], not -0\.5$"):
        martingale_check(spec, f, [-0.5, 0.0, 1.0], 1.0, n_paths=4)


def test_martingale_check_rejects_a_grid_past_the_horizon():
    # a grid ending within rounding of the horizon is not let through to
    # fail later, in the simulation, under another name
    spec, f = benchmark("gauss_square")
    with pytest.raises(DomainError, match=r"^t_grid\[-1\] must be a time "
                                          r"in \[0, 1\.0\], not "
                                          r"1\.0000000000001$"):
        martingale_check(spec, f, np.array([0.0, 0.5, 1.0 + 1e-13]), 1.0,
                         n_paths=4)


@pytest.mark.parametrize("horizon", [np.nan, np.inf])
def test_spec_rejects_a_horizon_that_is_not_finite(horizon):
    with pytest.raises(DomainError, match="positive and finite"):
        SDESpec(constant_direction([0.0]), constant_matrix_field([[1.0]]),
                constant_functional(0.0), builtin("eval"), horizon=horizon)


# ---------------------------------------------------------------------------
# block simulation: every row is the one-path result, bit for bit


def _three_noise_spec():
    sig = [[1.0, 0.3, -0.2], [0.1, 0.7, 0.4]]
    return SDESpec(constant_direction([0.1, -0.2]), constant_matrix_field(sig),
                   constant_functional(0.0), builtin("eval"))


def _path_dependent_spec():
    from pathcalc.functionals import MatrixFunctional, VectorFunctional
    return SDESpec(
        VectorFunctional(lambda t, x: -x.integral_prefix(t) / max(t, 0.1), 1),
        MatrixFunctional(lambda t, x: np.array(
            [[1.0, 0.2 * x.running_max_prefix(t)[0]]]), (1, 2)),
        constant_functional(0.0), builtin("eval"))


@pytest.mark.parametrize("make_spec, x0", [
    (lambda: benchmark("drifted_linear")[0], constant_path(0.5)),
    (_three_noise_spec, constant_path([0.5, -1.0])),
    (_path_dependent_spec, brownian_path(4, 0, n_exp=6)),
])
def test_simulate_sde_equals_its_row_of_a_block(make_spec, x0):
    from pathcalc.fk import _simulate_block
    spec = make_spec()
    grid = np.linspace(0.25, 1.0, 13)
    block = _simulate_block(spec, grid, x0, 6, 3, 5)
    assert block.shape == (5, 13, spec.dim)
    assert not block.flags.writeable
    for r in range(5):
        p = simulate_sde(spec, 0.25, x0, n_steps=12, seed=6, index=3 + r)
        assert np.array_equal(p.seg.values, block[r])
        assert np.array_equal(p.eval(grid), block[r])


# (benchmark, t, value hex, stderr hex) at 600 paths, which span three blocks
PINNED = [
    ("gauss_square", "0x1.3c21f1a466331p+0", "0x1.022c15d7b2c4cp-4"),
    ("drifted_linear", "0x1.143094b42c50cp+0", "0x1.1fd45e5f234b4p-5"),
    ("discount_const", "0x1.a876812c0877ep-1", "0x1.4eb74ec8cc556p-57"),
]


@pytest.mark.parametrize("name, value, stderr", PINNED)
def test_closed_form_estimates_are_pinned_bitwise(name, value, stderr):
    spec, _ = benchmark(name)
    est = estimate_f(spec, 0.25, constant_path(0.7), n_paths=600, n_steps=64,
                     seed=3)
    assert (est.value.hex(), est.stderr.hex()) == (value, stderr)


def test_path_dependent_rate_estimate_is_pinned_bitwise():
    # the discount is integrated along each path, row by row
    spec = SDESpec(constant_direction([0.2]), constant_matrix_field([[0.8]]),
                   Functional(lambda t, x: 0.1 + 0.05 * x.eval(t)[0],
                              fn_many=lambda ts, x:
                              0.1 + 0.05 * x.eval(ts)[:, 0]),
                   builtin("eval"))
    est = estimate_f(spec, 0.4, constant_path(0.3), n_paths=600, n_steps=5,
                     seed=11)
    assert est.value.hex() == "0x1.8ff961f307c9ap-2"
    assert est.stderr.hex() == "0x1.8266c85c7ba78p-6"


def test_martingale_check_equals_the_one_path_route():
    # a constant rate, so the discount is computed once for all paths
    noise, f = benchmark("gauss_square")
    spec = SDESpec(noise.drift, noise.sigma, constant_functional(0.25),
                   noise.payoff)
    t_grid = np.linspace(0.0, 1.0, 5)
    x0 = constant_path(0.4)
    rep = martingale_check(spec, f, t_grid, x0, n_paths=300, seed=9)
    disc = np.exp(-0.25 * np.array([0.0, 0.25, 0.5, 0.75, 1.0]))
    H = np.array([disc * f.eval_many(t_grid, simulate_sde(
        spec, 0.0, x0, seed=9, index=i, grid=t_grid)) for i in range(300)])
    D = np.diff(H, axis=1)
    assert np.array_equal(rep.means, D.mean(axis=0))
    assert np.array_equal(rep.stderrs, D.std(axis=0, ddof=1) / np.sqrt(300))


@pytest.mark.parametrize("n_steps", [0, -3])
def test_estimate_rejects_fewer_than_one_step(n_steps):
    spec, _ = benchmark("gauss_square")
    with pytest.raises(ConfigError):
        estimate_f(spec, 0.5, constant_path(1.0), n_paths=4, n_steps=n_steps)


@pytest.mark.parametrize("block_nodes", [1, 40])
def test_estimates_do_not_depend_on_the_block_size(block_nodes, monkeypatch):
    from pathcalc import fk
    cases = [(benchmark("gauss_square")[0], constant_path(0.7)),
             (_path_dependent_spec(), brownian_path(4, 0, n_exp=6))]
    before = [estimate_f(spec, 0.5, x, n_paths=30, n_steps=8, seed=2)
              for spec, x in cases]
    monkeypatch.setattr(fk, "_BLOCK_NODES", block_nodes)
    after = [estimate_f(spec, 0.5, x, n_paths=30, n_steps=8, seed=2)
             for spec, x in cases]
    assert before == after


_GAUSS, _GAUSS_F = benchmark("gauss_square")


@pytest.mark.parametrize("call, name", [
    (lambda x: estimate_f(_GAUSS, 0.0, x, n_paths=2.5), "n_paths"),
    (lambda x: martingale_check(_GAUSS, _GAUSS_F, [0.0, 0.5, 1.0], x,
                                n_paths=2.5), "n_paths"),
    (lambda x: estimate_f(_GAUSS, 0.0, x, n_paths=4, n_steps=np.inf),
     "n_steps"),
    (lambda x: estimate_f(_GAUSS, 0.0, x, n_paths=4, n_steps=2.5), "n_steps"),
    (lambda x: simulate_sde(_GAUSS, 0.0, x, n_steps=1.5), "n_steps"),
], ids=["estimate_f_fractional_paths", "martingale_fractional_paths",
        "estimate_f_infinite_steps", "estimate_f_fractional_steps",
        "simulate_sde_fractional_steps"])
def test_bad_simulation_sizes_are_config_errors_naming_them(call, name):
    with pytest.raises(ConfigError, match=f"^{name} must be a whole number"):
        call(constant_path(0.0))


def test_a_constant_body_runs_the_per_step_route():
    # the drift returns 5.0 at every (t, x) but is built directly, so it is
    # not marked constant: each step reads it, and the value is the drift's
    drift = VectorFunctional(lambda t, x: np.array([5.0]), 1)
    spec = SDESpec(drift, constant_matrix_field([[0.0]]),
                   constant_functional(0.0), builtin("eval"))
    assert drift.constant_value is None and not spec.has_constant_coeffs
    est = estimate_f(spec, 0.0, constant_path(0.0), n_paths=2, n_steps=4)
    assert est.value == 5.0


@pytest.mark.parametrize("k", [np.inf, np.nan, 0.0, -1.0])
def test_k_must_be_positive_and_finite(k):
    # an infinite k passed the wrong candidate and any estimate
    wrong = builtin("square")
    with pytest.raises(ConfigError, match="^k must be positive and finite"):
        martingale_check(_GAUSS, wrong, [0.0, 0.5, 1.0], 0.0, n_paths=8,
                         k=k)
    with pytest.raises(ConfigError, match="^k must be positive and finite"):
        MCEstimate(0.0, 1.0, 10).within(100.0, k=k)


# ---------------------------------------------------------------------------
# the block's Euler recursion against one path at a time


def _reference_block(spec, grid, x, seed, first, count):
    """The block as a loop over its rows, each stepped on its own live
    view: row[j + 1] = row[j] + (dt[j] * a + sig @ row_dw[j])."""
    n = len(grid) - 1
    dt = np.diff(grid)
    dw = rng.normal_block(seed, first, count, (n, spec.noise_dim))
    dw *= np.sqrt(dt)[:, None]
    values = np.empty((count, n + 1, spec.dim))
    values[:, 0] = x.eval(grid[0])
    drift, sigma = spec.drift.constant_value, spec.sigma.constant_value
    for row, row_dw in zip(values, dw):
        live = splice_view(x, grid[0], grid, row, LINEAR)
        for j, s in enumerate(grid[:-1]):
            live.seg.fill(j + 1)
            a = spec.drift.eval(s, live) if drift is None else drift
            sig = spec.sigma.eval(s, live) if sigma is None else sigma
            row[j + 1] = row[j] + (dt[j] * a + sig @ row_dw[j])
    return values


def _coefficient(kind, body, value):
    """A drift or sigma of value's shape, (d,) or (d, m), whose body
    broadcasts over a family (fn is fn_many), is read row by row, or which
    is the constant value."""
    if kind == "constant":
        return constant_direction(value) if value.ndim == 1 \
            else constant_matrix_field(value)
    many = body if kind == "broadcast" else None
    if value.ndim == 1:
        return VectorFunctional(body, len(value), fn_many=many)
    return MatrixFunctional(body, value.shape, fn_many=many)


@st.composite
def _blocks(draw):
    kinds = st.sampled_from(["broadcast", "rows", "constant"])
    drift_kind, sigma_kind = draw(st.tuples(kinds, kinds).filter(
        lambda k: k != ("constant", "constant")))
    d, m = draw(st.integers(1, 2)), draw(st.integers(1, 3))
    reals = st.floats(-1.0, 1.0)
    mix = np.array(draw(st.lists(reals, min_size=d * m, max_size=d * m)))
    mix = mix.reshape(d, m)
    pull = draw(reals)

    def drift(ts, x):
        t = np.maximum(ts, 0.1)[..., None]
        return pull * x.integral_prefix(ts) / t + 0.5 * x.eval(ts)

    def sigma(ts, x):
        return mix + 0.2 * x.running_max_prefix(ts)[..., :, None]

    spec = SDESpec(_coefficient(drift_kind, drift, mix[:, 0]),
                   _coefficient(sigma_kind, sigma, mix),
                   constant_functional(0.0), builtin("eval", dim=d))
    x = brownian_path(draw(st.integers(0, 3)), 0, n_exp=6) if d == 1 \
        else GridPath([0.0, 0.3, 1.0], [[0.2, -0.1], [0.5, 0.4], [0.1, 0.3]])
    t0 = draw(st.sampled_from([0.0, 0.25, 0.5]))
    grid = np.linspace(t0, 1.0, draw(st.integers(1, 16)) + 1)
    return spec, grid, x, draw(st.integers(0, 5)), draw(st.integers(1, 30))


@settings(max_examples=60, deadline=None)
@given(_blocks(), st.integers(0, 2 ** 32 - 1))
def test_a_block_steps_as_its_rows_step_one_at_a_time(block, seed):
    # guard: the block steps all its rows as one family through
    # flow.euler_steps, one coefficient read per step, and every row is
    # the per-row loop's bit for bit, whether a coefficient broadcasts,
    # reads rows or is constant
    from pathcalc.fk import _simulate_block
    spec, grid, x, first, count = block
    got = _simulate_block(spec, grid, x, seed, first, count)
    assert np.array_equal(got, _reference_block(spec, grid, x, seed, first,
                                                count))


# ---------------------------------------------------------------------------
# a functional of the wrong shape, and a path that overflows


def _eval_spec(**fields):
    kw = dict(drift=constant_direction([0.0]),
              sigma=constant_matrix_field([[1.0]]),
              rate=constant_functional(0.0), payoff=builtin("eval"))
    kw.update(fields)
    return SDESpec(**kw)


def _pair(ts, x):
    return np.stack([x.eval(ts)[..., 0], np.full(np.shape(ts), 5.0)], -1)


@pytest.mark.parametrize("field, value, want, shape", [
    ("payoff", VectorFunctional(_pair, 2, fn_many=_pair), r"\(\)", r"\(2,\)"),
    ("rate", constant_direction([0.1, 0.2]), r"\(\)", r"\(2,\)"),
    ("sigma", VectorFunctional(_pair, 2, fn_many=_pair), r"\(1, \*\)",
     r"\(2,\)"),
    ("drift", constant_matrix_field([[0.0]]), r"\(\*,\)", r"\(1, 1\)"),
    ("sigma", constant_matrix_field([[1.0], [1.0]]), r"\(1, \*\)",
     r"\(2, 1\)"),
], ids=["vector_payoff", "vector_rate", "vector_sigma", "matrix_drift",
        "sigma_rows"])
def test_a_spec_refuses_a_functional_of_the_wrong_shape(field, value, want,
                                                        shape):
    # a vector payoff was averaged over its entries (2.51 for [x_T, 5.0]),
    # a vector rate raised TypeError and a vector sigma IndexError; sigma's
    # rows must match the drift
    with pytest.raises(DomainError, match=f"^{field} must be a functional "
                                          f"of shape {want}, not {shape}$"):
        _eval_spec(**{field: value})


def test_martingale_check_refuses_a_candidate_that_is_not_real():
    # numpy raised its broadcast ValueError
    spec, _ = benchmark("gauss_square")
    with pytest.raises(DomainError, match=r"^f must be a functional of shape "
                                          r"\(\), not \(2,\)$"):
        martingale_check(spec, VectorFunctional(_pair, 2, fn_many=_pair),
                         [0.0, 0.5, 1.0], 1.0, n_paths=4)


def _candidate(**fields):
    # a real candidate on 1-d paths, with some derivatives swapped out
    kw = dict(partial_t=constant_functional(0.0),
              grad=constant_direction([0.0]),
              hess=constant_matrix_field([[0.0]]))
    kw.update(fields)
    return FunctionalWithDerivatives(lambda t, x: 0.0, label="swapped", **kw)


def _vector_candidate():
    # a (2,) candidate that carries real-shaped derivatives
    f = constant_direction([1.0, 2.0])
    f.partial_t = constant_functional(0.0)
    f.grad = constant_direction([0.0])
    f.hess = constant_matrix_field([[0.0]])
    return f


@pytest.mark.parametrize("make, named", [
    (lambda: builtin("square", dim=2), r"f\.grad .* \(1,\), not \(2,\)$"),
    (lambda: _candidate(hess=constant_matrix_field(np.zeros((2, 2)))),
     r"f\.hess .* \(1, 1\), not \(2, 2\)$"),
    (lambda: _candidate(partial_t=constant_direction([0.0, 0.0])),
     r"f\.partial_t .* \(\), not \(2,\)$"),
    (lambda: _candidate(grad=constant_matrix_field([[0.0]])),
     r"f\.grad .* \(1,\), not \(1, 1\)$"),
    (_vector_candidate, r"f must be a functional of shape \(\), not \(2,\)$"),
], ids=["two_dim_candidate", "wide_hess", "vector_partial_t", "matrix_grad",
        "vector_candidate"])
def test_fk_residual_refuses_a_candidate_of_the_wrong_shape(make, named):
    # numpy raised its matmul ValueError, or a vector time derivative gave
    # an array where a float was due
    spec, _ = benchmark("gauss_square")
    with pytest.raises(DomainError, match=f"^{named}"):
        fk_residual(make(), spec, 0.5, constant_path(1.0))


def _squared_spec():
    def squared(ts, x):         # 1e200 * x(t)**2 overflows from 1e100
        return 1e200 * x.eval(ts) ** 2

    return _eval_spec(drift=DirectionField(squared, 1, 1.0, fn_many=squared))


@pytest.mark.parametrize("call, first", [
    (lambda: simulate_sde(_squared_spec(), 0.0, constant_path(1e100),
                          n_steps=8), r"0\.125"),
    # 1e308 + k * 1.25e307 passes the largest float at the seventh step
    (lambda: simulate_sde(_eval_spec(drift=constant_direction([1e308])), 0.0,
                          constant_path(1e308), n_steps=8), r"0\.875"),
    (lambda: martingale_check(_squared_spec(), builtin("eval"),
                              np.linspace(0.0, 1.0, 9), 1e100, n_paths=4),
     r"0\.125"),
], ids=["simulate_sde", "simulate_sde_constant_route", "martingale_check"])
def test_a_simulated_path_that_overflows_is_a_numerical_error(call, first):
    # each returned inf, or a report with worst_z NaN; the first grid time
    # at which the path is not finite is named
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match=r"^a simulated path is not "
                                                 r"finite, first at grid "
                                                 rf"time {first}$"):
            call()
