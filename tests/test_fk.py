"""SDE simulation, Monte Carlo values and backward-equation residuals."""

import numpy as np
import pytest

from pathcalc import (
    ConfigError,
    DomainError,
    MCEstimate,
    NumericalError,
    SDESpec,
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
    simulate_sde,
    stop,
)
from pathcalc.functionals import Functional


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


@pytest.mark.parametrize("grid", [
    np.array([[0.5, 0.75, 1.0]]), np.array([[0.5], [1.0]]), np.array([]),
    np.array([0.5]), np.float64(0.5)],
    ids=["row", "column", "empty", "one_time", "scalar"])
def test_simulate_rejects_a_grid_of_the_wrong_shape(grid):
    # checked before the endpoints, which numpy cannot compare on a 2-d
    # grid and cannot index on an empty one
    with pytest.raises(ConfigError, match="1-d array of at least 2 times"):
        simulate_sde(_drift_only(0.0), 0.5, constant_path(1.0), grid=grid)
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
