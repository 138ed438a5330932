"""Catalog functionals, coded derivatives and the randomized probes."""

import numpy as np
import pytest

from pathcalc import (
    ConfigError,
    DomainError,
    Functional,
    FunctionalWithDerivatives,
    VectorFunctional,
    builtin,
    check_hessian_symmetry,
    constant_functional,
    constant_direction,
    eval_direction,
    probe_boundedness,
    probe_lipschitz,
    probe_non_anticipative,
    ramp_path,
)
from pathcalc.functionals import CATALOG, DirectionField, product_functional


@pytest.fixture
def ramp():
    return ramp_path(1.0, 1.0, n=1025)


def test_catalog_values_on_ramp(ramp):
    t = 0.5
    assert builtin("eval").eval(t, ramp) == 0.5
    assert builtin("square").eval(t, ramp) == 0.25
    assert builtin("integral").eval(t, ramp) == 0.125
    assert builtin("running_avg").eval(t, ramp) == 0.25
    assert builtin("running_max").eval(t, ramp) == 0.5
    assert builtin("exp_eval").eval(t, ramp) == np.exp(0.5)


def test_running_avg_at_zero_is_initial_value():
    p = ramp_path(1.0, 1.0, n=33, offset=3.0)
    assert builtin("running_avg").eval(0.0, p) == 3.0


def test_product_on_two_dim_ramp():
    p = ramp_path([1.0, 2.0], 1.0, n=129)
    F = builtin("product")
    assert F.eval(0.5, p) == 0.5 * 1.0
    assert np.array_equal(F.grad_vector(0.5, p), np.array([1.0, 0.5]))
    assert np.array_equal(F.hess_matrix(0.5, p),
                          np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_square_coded_derivatives(ramp):
    F = builtin("square")
    assert F.partial_t.eval(0.5, ramp) == 0.0
    assert F.grad_vector(0.5, ramp)[0] == 1.0
    assert F.hess_matrix(0.5, ramp)[0, 0] == 2.0


def test_eval_many_matches_pointwise_loop(ramp):
    ts = np.linspace(0.0, 1.0, 37)
    for name in sorted(CATALOG):
        F = builtin(name)
        many = F.eval_many(ts, ramp)
        loop = np.array([F.eval(t, ramp) for t in ts])
        assert np.array_equal(many, loop), name


@pytest.mark.parametrize("axis, dim", [(1, 1), (2, 2), (-1, 1), (0, 0)])
def test_builtin_rejects_an_axis_outside_the_dimension(axis, dim):
    with pytest.raises(DomainError):
        builtin("eval", axis=axis, dim=dim)


def test_builtin_unknown_name():
    with pytest.raises(DomainError):
        builtin("cube")


def test_grad_absent_for_running_max(ramp):
    F = builtin("running_max")
    with pytest.raises(DomainError):
        F.grad_vector(0.5, ramp)
    with pytest.raises(DomainError):
        check_hessian_symmetry(F)


def test_constant_functional_flags():
    c = constant_functional(3.5)
    assert c.constant_value == 3.5
    assert c.eval(0.1, None) == 3.5


def test_vector_functional_shape_check():
    V = VectorFunctional(lambda t, x: np.array([1.0, 2.0]), 3, label="bad")
    with pytest.raises(DomainError):
        V.eval(0.0, None)


def test_direction_field_rejects_negative_constant():
    with pytest.raises(DomainError):
        DirectionField(lambda t, x: np.array([0.0]), 1, -1.0)


# ---------------------------------------------------------------------------
# probes


@pytest.mark.parametrize("name", sorted(CATALOG))
def test_catalog_is_non_anticipative(name):
    rep = probe_non_anticipative(builtin(name), samples=60, seed=3)
    assert rep.passed, rep


def test_product_is_non_anticipative():
    rep = probe_non_anticipative(product_functional(), dim=2, samples=60)
    assert rep.passed


def test_peeking_functional_is_flagged():
    peek = Functional(lambda t, x: x.eval(x.horizon)[0], label="peek")
    rep = probe_non_anticipative(peek, samples=60, seed=3)
    assert not rep.passed
    assert rep.metric > 0
    assert rep.failures


def test_boundedness_of_eval():
    rep = probe_boundedness(builtin("eval"), 1.0, samples=40)
    assert rep.passed
    assert rep.metric <= 1.0


def test_boundedness_flags_blowup_at_horizon():
    F = Functional(lambda t, x: np.divide(1.0, 1.0 - t),
                   fn_many=lambda ts, x: np.divide(1.0, 1.0 - ts),
                   label="inv_remaining")
    rep = probe_boundedness(F, 1.0, samples=20)
    assert not rep.passed
    assert not np.isfinite(rep.metric)


def test_lipschitz_probe_accepts_honest_constant():
    rep = probe_lipschitz(eval_direction(1), samples=80)
    assert rep.passed
    assert rep.metric <= 1.0 + 1e-9


def test_lipschitz_probe_rejects_understated_constant():
    cheat = DirectionField(lambda t, x: 3.0 * x.eval(t), 1, 1.0,
                           label="triple")
    rep = probe_lipschitz(cheat, samples=80)
    assert not rep.passed
    assert rep.metric > 1.0


def test_lipschitz_probe_constant_field_is_zero():
    rep = probe_lipschitz(constant_direction([2.0, -1.0]), samples=40)
    assert rep.passed
    assert rep.metric == 0.0


def test_hessian_symmetry_pass_and_fail():
    assert check_hessian_symmetry(product_functional(), dim=2).passed
    lopsided = FunctionalWithDerivatives(
        lambda t, x: 0.0, label="lopsided",
        partial_t=constant_functional(0.0),
        grad=[constant_functional(0.0), constant_functional(0.0)],
        hess=[[constant_functional(0.0), constant_functional(1.0)],
              [constant_functional(0.0), constant_functional(0.0)]])
    assert not check_hessian_symmetry(lopsided, dim=2).passed


@pytest.mark.parametrize("probe", [
    lambda **kw: probe_non_anticipative(builtin("eval"), **kw),
    lambda **kw: probe_boundedness(builtin("eval"), 1.0, **kw),
    lambda **kw: probe_lipschitz(eval_direction(1), **kw),
    lambda **kw: check_hessian_symmetry(builtin("square"), **kw),
], ids=["non_anticipative", "boundedness", "lipschitz", "hessian_symmetry"])
@pytest.mark.parametrize("kw", [{"samples": 0}, {"samples": -3}, {"dim": 0}],
                         ids=["no_samples", "negative_samples", "no_dim"])
def test_probes_reject_degenerate_configurations(probe, kw):
    with pytest.raises(ConfigError):
        probe(**kw)


@pytest.mark.parametrize("box", [0.0, -1.0, np.nan, np.inf])
def test_boundedness_rejects_a_bad_box(box):
    with pytest.raises(ConfigError):
        probe_boundedness(builtin("eval"), box, samples=4)
