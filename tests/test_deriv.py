"""Quotient-ladder derivatives: verdicts, exact cases, the decomposition."""

import collections
import dataclasses
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pathcalc import (
    CADLAG,
    CATALOG,
    CONVERGED,
    ConfigError,
    DirectionField,
    DomainError,
    INCONCLUSIVE,
    IllConditionedError,
    LINEAR,
    NonDifferentiableError,
    OSCILLATING,
    GridPath,
    QuotientLadder,
    SPACE_LADDER,
    VectorFunctional,
    brownian_path,
    bump,
    builtin,
    check_direction,
    constant_direction,
    d_gamma,
    d_horizontal,
    d_space,
    euler_flow,
    eval_direction,
    expansion_check,
    gamma_star,
    horizontal_from_gamma,
    judge,
    numerical_derivatives,
    probe_lipschitz,
    ramp_path,
    recover_gradient,
    relation_residual,
    require_converged,
    running_avg_direction,
    solve_flow,
    stop,
    surface_value,
    zero_direction,
)
from pathcalc import deriv, errors, paths
from pathcalc.deriv import HESS_LADDER, TIME_LADDER, _hess_entry, \
    ladder_flow_grid, time_study
from pathcalc.pathology import counterexample_functional


def _steps(ladder=None):
    return (ladder or QuotientLadder()).steps()


# ---------------------------------------------------------------------------
# the verdict machinery


def test_judge_converged_with_exact_richardson():
    lad = QuotientLadder()
    etas = lad.steps()
    rep = judge(etas, 2.0 + etas, lad.ratio)
    assert rep.verdict == CONVERGED
    # quotients 2 + eta: first-order Richardson recovers the limit exactly
    assert rep.estimate == 2.0
    assert rep.converged


def test_judge_oscillating_on_sin_log():
    lad = QuotientLadder()
    etas = lad.steps()
    rep = judge(etas, np.sin(np.log(etas)), lad.ratio)
    assert rep.verdict == OSCILLATING
    assert rep.alternations >= 3
    assert np.isnan(rep.estimate)


def test_judge_inconclusive_on_monotone_drift():
    lad = QuotientLadder()
    etas = lad.steps()
    rep = judge(etas, np.log(etas), lad.ratio)
    assert rep.verdict == INCONCLUSIVE
    assert rep.alternations == 0


def test_judge_inconclusive_on_nonfinite():
    lad = QuotientLadder()
    etas = lad.steps()
    q = 1.0 / etas
    q[-1] = np.inf
    rep = judge(etas, q, lad.ratio)
    assert rep.verdict == INCONCLUSIVE
    q[-1] = np.nan
    assert judge(etas, q, lad.ratio).verdict == INCONCLUSIVE


def test_judge_scale_aware_tolerance():
    # spread of 5e-3 around a level of 1000 is converged, around 0 it is not
    lad = QuotientLadder()
    etas = lad.steps()
    wobble = 5e-3 * np.cos(np.arange(lad.count))
    assert judge(etas, 1000.0 + wobble, lad.ratio).verdict == CONVERGED
    assert judge(etas, wobble, lad.ratio).verdict != CONVERGED


@pytest.mark.parametrize("etas, quotients", [
    ([1e-2], [1.0]), ([], []), (0.5 ** np.arange(5), np.ones(5)),
    (0.5 ** np.arange(6), [1.0, 1.0]), (0.5 ** np.arange(6), np.ones(7)),
    (np.ones((6, 2)), np.ones((6, 2))),
], ids=["one_rung", "empty", "five_rungs", "six_etas_two_quotients",
        "six_etas_seven_quotients", "two_columns"])
def test_judge_refuses_a_ladder_it_cannot_judge(etas, quotients):
    # one rung was judged converged with estimate NaN, an empty ladder
    # raised numpy's ValueError, and lengths went unchecked
    with pytest.raises(ConfigError, match=r"^judge needs one quotient per "
                                          r"eta, at least 6, not "):
        judge(etas, quotients, 0.5)


@pytest.mark.parametrize("etas, quotients, message", [
    (["a"] * 6, [1.0] * 6,
     "etas must be reals, not ['a', 'a', 'a', 'a', 'a', 'a']"),
    ([np.nan] * 6, [1.0] * 6, "etas must be positive and finite, not nan"),
    (-(0.5 ** np.arange(6)), [1.0] * 6,
     "etas must be positive and finite, not -1.0"),
    ([1.0, 0.5, 0.25, 0.125, 0.0625, np.inf], [1.0] * 6,
     "etas must be positive and finite, not inf"),
    (0.5 ** np.arange(6), ["a"] * 6,
     "quotients must be reals, not ['a', 'a', 'a', 'a', 'a', 'a']"),
], ids=["text_etas", "nan_etas", "negative_etas", "infinite_eta",
        "text_quotients"])
def test_judge_reads_its_ladder_through_the_rules(etas, quotients, message):
    # text raised a builtin ValueError, and NaN or negative etas were
    # judged converged
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        judge(etas, quotients, 0.5)


@pytest.mark.parametrize("make, message", [
    (lambda: QuotientLadder(ratio="a"),
     "must be positive and finite, not 'a'"),
    (lambda: QuotientLadder(ratio=None),
     "must be positive and finite, not None"),
    (lambda: judge(np.arange(1, 7.0), np.zeros(6), None),
     "must be positive and finite, not None"),
    (lambda: judge(np.arange(1, 7.0), np.zeros(6), 1.0),
     "must lie in (0, 1), not 1.0"),
    (lambda: judge(np.arange(1, 7.0), np.zeros(6), 2.0),
     "must lie in (0, 1), not 2.0"),
    (lambda: judge(np.arange(1, 7.0), np.zeros(6), 0.0),
     "must be positive and finite, not 0.0"),
    (lambda: judge(np.arange(1, 7.0), np.zeros(6), np.nan),
     "must be positive and finite, not nan"),
], ids=["ladder_text", "ladder_none", "judge_none", "judge_one", "judge_two",
        "judge_zero", "judge_nan"])
def test_a_ratio_goes_through_its_rule(make, message):
    # the ladder's comparison and judge's Richardson step raised TypeError,
    # and judge reported converged with estimate NaN for a ratio of 1, after
    # a RuntimeWarning, or a finite estimate for 0, 2 and NaN alike
    with pytest.raises(ConfigError, match=f"^ratio {re.escape(message)}$"):
        make()


def _ladder_readers():
    F, g = builtin("eval"), eval_direction(1)
    return {
        "d_gamma": lambda x, lad: d_gamma(F, g, 0.5, x, ladder=lad),
        "d_horizontal": lambda x, lad: d_horizontal(F, 0.5, x, ladder=lad),
        "d_space": lambda x, lad: d_space(F, 0, 0.5, x, ladder=lad),
        "relation_residual": lambda x, lad: relation_residual(
            F, g, 0.5, x, ladder=lad),
        "recover_gradient": lambda x, lad: recover_gradient(
            F, [g], 0.5, x, ladder=lad),
        "horizontal_from_gamma": lambda x, lad: horizontal_from_gamma(
            F, g, 0.25, x, 0.125, ladder=lad),
    }


@pytest.mark.parametrize("study", sorted(_ladder_readers()))
def test_a_ladder_must_be_a_quotient_ladder(study):
    # each raised AttributeError for the ladder's steps or eta0
    with pytest.raises(ConfigError, match=r"^ladder must be a QuotientLadder, "
                                          r"not 'a'$"):
        _ladder_readers()[study](ramp_path(1.0, 1.0, n=65), "a")


def test_ladder_validation():
    with pytest.raises(ConfigError):
        QuotientLadder(eta0=0.0)
    with pytest.raises(ConfigError):
        QuotientLadder(ratio=1.0)
    with pytest.raises(ConfigError):
        QuotientLadder(count=3)
    for count in (20.5, np.nan):
        with pytest.raises(ConfigError, match="count must be a whole number"):
            QuotientLadder(count=count)
    assert QuotientLadder(count=20.0).count == 20
    # the last step underflows to 0; rejected before any step is allocated
    with pytest.raises(ConfigError, match="underflows"):
        QuotientLadder(count=10 ** 9)
    with pytest.raises(ConfigError, match="underflows"):
        QuotientLadder(eta0=2.0 ** -7, count=1069)
    assert QuotientLadder(eta0=2.0 ** -7, count=1068).steps()[-1] > 0


def test_require_converged_raises_with_name():
    lad = QuotientLadder()
    etas = lad.steps()
    rep = judge(etas, np.sin(np.log(etas)), lad.ratio)
    with pytest.raises(NonDifferentiableError) as exc:
        require_converged(rep, "d_gamma")
    assert exc.value.which == "d_gamma"
    assert exc.value.report is rep


def test_ladder_flow_grid_pins_ladder_points():
    etas = QuotientLadder().steps()
    grid = ladder_flow_grid(0.5, etas)
    assert grid[0] == 0.5
    assert np.all(np.diff(grid) > 0)
    for e in etas:
        assert 0.5 + e in grid


def _linspace_ladder_grid(t, etas, refine):
    # one np.linspace per gap, each ladder point pinned
    pts = np.sort(t + np.asarray(etas, dtype=float))
    parts = [np.array([t])]
    lo = t
    for p in pts:
        seg = np.linspace(lo, p, refine + 1)[1:]
        seg[-1] = p
        parts.append(seg)
        lo = p
    return np.concatenate(parts)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.0, 1.0), st.floats(1e-6, 1.0), st.floats(0.05, 0.95),
       st.integers(1, 30), st.integers(1, 20))
def test_ladder_flow_grid_equals_linspace_per_gap(t, eta0, ratio, count,
                                                  refine):
    etas = eta0 * ratio ** np.arange(count)
    want = _linspace_ladder_grid(t, etas, refine)
    if not np.all(np.diff(want) > 0):
        with pytest.raises(ConfigError):
            ladder_flow_grid(t, etas, refine)
        return
    assert ladder_flow_grid(t, etas, refine).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the three derivative studies


def test_space_central_exact_on_square():
    # dyadic data: ((x+h)^2 - (x-h)^2) / 2h is exactly 2x for every rung
    rep = d_space(builtin("square"), 0, 0.5, ramp_path(1.0, 1.0, n=1025))
    assert np.all(rep.quotients == 1.0)
    assert rep.estimate == 1.0
    assert rep.spread_tail == 0.0


def test_space_forward_square_richardson_exact():
    rep = d_space(builtin("square"), 0, 0.5, ramp_path(1.0, 1.0, n=1025),
                  scheme="forward")
    # forward quotients are 2x + h; the ladder is dyadic so Richardson
    # cancels the h term without rounding
    assert np.array_equal(rep.quotients, 1.0 + rep.etas)
    assert rep.estimate == 1.0


def test_space_of_integral_is_zero():
    rep = d_space(builtin("integral"), 0, 0.5, ramp_path(1.0, 1.0, n=129))
    assert np.all(rep.quotients == 0.0)
    assert rep.estimate == 0.0


@pytest.mark.parametrize("mode, t", [(LINEAR, 0.0), (CADLAG, 0.0),
                                     (CADLAG, 0.5)])
def test_space_of_running_max_where_the_bump_sets_the_max(mode, t):
    # the bumped path never holds x(t) itself, so the running max at t is
    # x(t) + h for bumps of either sign: the path stays below x(t) before t
    rep = d_space(builtin("running_max"), 0, t,
                  ramp_path(1.0, 1.0, n=17, interp_mode=mode))
    assert rep.verdict == CONVERGED
    assert rep.estimate == 1.0


@pytest.mark.parametrize("scheme, t, verdict", [
    ("central", 0.5, INCONCLUSIVE), ("forward", 0.5, CONVERGED),
    ("central", 0.0, CONVERGED), ("forward", 0.0, CONVERGED)])
def test_space_of_running_max_at_a_kink_is_not_converged(scheme, t, verdict):
    # at t > 0 the linear ramp's max so far is x(t) itself: a bump up
    # raises it by h, a bump down leaves it at the sup before t.  The
    # one-sided derivatives are 1 and 0, and the central quotients sit at
    # their mean 1/2.  At t = 0 both bumps set the max.
    rep = d_space(builtin("running_max"), 0, t, ramp_path(1.0, 1.0, n=17),
                  scheme=scheme)
    assert rep.verdict == verdict
    if verdict == CONVERGED:
        assert abs(rep.estimate - 1.0) <= 1e-8
    else:
        assert np.isnan(rep.estimate)
        assert np.all(np.abs(rep.quotients - 0.5) <= 1e-8)


def test_space_argument_checks():
    r = ramp_path(1.0, 1.0, n=65)
    with pytest.raises(DomainError):
        d_space(builtin("eval"), 2, 0.5, r)
    with pytest.raises(ConfigError):
        d_space(builtin("eval"), 0, 0.5, r, scheme="sideways")


_WRONG_SHAPES = {
    "gamma": (lambda x, V: d_gamma(V, eval_direction(1), 0.5, x), "F", "()",
              "(2,)"),
    "horizontal": (lambda x, V: d_horizontal(V, 0.5, x), "F", "()", "(2,)"),
    "space": (lambda x, V: d_space(V, 0, 0.5, x), "F", "()", "(2,)"),
    "relation": (lambda x, V: relation_residual(V, eval_direction(1), 0.5, x),
                 "F", "()", "(2,)"),
    "recover_field": (lambda x, V: recover_gradient(builtin("eval"), [V],
                                                    0.5, x),
                      "fields[0]", "(1,)", "(2,)"),
}


@pytest.mark.parametrize("call, name, want", [
    (lambda x: recover_gradient(builtin("eval"), [None], 0.5, x),
     "fields[0]", "(1,)"),
    (lambda x: euler_flow(x, 0.5, None), "gamma", "(1,)"),
], ids=["recover_field", "euler_flow"])
def test_none_for_a_functional_is_refused_by_name(call, name, want):
    # reading None's shape raised AttributeError
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must be a "
                       f"functional of shape {re.escape(want)}, not None$"):
        call(ramp_path(1.0, 1.0, n=65))


@pytest.mark.parametrize("study", sorted(_WRONG_SHAPES))
def test_studies_refuse_a_functional_of_the_wrong_shape(study):
    # a (2,) F raised numpy's broadcast or reshape ValueError, and a (2,)
    # field on a 1-d path failed only in its flow solve, after the
    # condition number of a (1, 2) matrix and the horizontal study
    call, name, want, got = _WRONG_SHAPES[study]
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must be a "
                       f"functional of shape {re.escape(want)}, not "
                       f"{re.escape(got)}$"):
        call(ramp_path(1.0, 1.0, n=65), constant_direction([1.0, 2.0]))


def _vector_field():
    def value(ts, x):
        return x.eval(ts)

    return VectorFunctional(value, 1, label="eval", fn_many=value)


_LIPSCHITZ_READERS = {
    "solve_flow": (lambda x, g: solve_flow(x, 0.5, g), "gamma"),
    "d_gamma": (lambda x, g: d_gamma(builtin("eval"), g, 0.5, x), "gamma"),
    "relation": (lambda x, g: relation_residual(builtin("eval"), g, 0.5, x),
                 "gamma"),
    "recover_gradient": (lambda x, g: recover_gradient(
        builtin("eval"), [g], 0.5, x), "gamma"),
    "horizontal_from_gamma": (lambda x, g: horizontal_from_gamma(
        builtin("eval"), g, 0.25, x, 0.125), "gamma"),
    "probe_lipschitz": (lambda x, g: probe_lipschitz(g, samples=2), "field"),
    "check_direction": (lambda x, g: check_direction(g, 0.5, x), "gamma"),
}


# recover_gradient reads its fields' shapes first
@pytest.mark.parametrize("reader, field", [
    (reader, field) for reader in sorted(_LIPSCHITZ_READERS)
    for field in ("none", "vector")
    if (reader, field) != ("recover_gradient", "none")])
def test_a_direction_whose_constant_is_read_must_be_a_field(reader, field):
    # a (1,) VectorFunctional raised AttributeError for lipschitz_K, and
    # None one for whichever attribute was read first
    call, name = _LIPSCHITZ_READERS[reader]
    g = _vector_field() if field == "vector" else None
    with pytest.raises(DomainError, match=rf"^{name} must be a "
                       rf"DirectionField, not {re.escape(repr(g))}$"):
        call(ramp_path(1.0, 1.0, n=65), g)


def test_euler_flow_takes_any_vector_functional():
    # it never reads a Lipschitz constant
    x = ramp_path(1.0, 1.0, n=65)
    want = euler_flow(x, 0.5, eval_direction(1), substep=0.125)
    got = euler_flow(x, 0.5, _vector_field(), substep=0.125)
    assert got.values.tobytes() == want.values.tobytes()


def test_zero_direction_study_equals_horizontal_bitwise():
    x = brownian_path(11, 0, n_exp=10)
    F = builtin("exp_eval")
    rg = d_gamma(F, zero_direction(1), 0.5, x)
    rh = d_horizontal(F, 0.5, x)
    assert np.array_equal(rg.quotients, rh.quotients)
    assert rg.verdict == rh.verdict
    assert rg.estimate == rh.estimate


def test_horizontal_of_integral_is_current_value():
    r = ramp_path(1.0, 1.0, n=1025)
    rep = d_horizontal(builtin("integral"), 0.5, r)
    # frozen extension adds exactly x(t) * eta to the integral
    assert np.all(rep.quotients == 0.5)
    assert rep.estimate == 0.5


def test_gamma_of_integral_estimates_current_value():
    x = brownian_path(3, 1, n_exp=10)
    want = x.eval(0.5)[0]
    for gamma in (eval_direction(1), running_avg_direction(1)):
        rep = d_gamma(builtin("integral"), gamma, 0.5, x)
        assert rep.converged
        assert abs(rep.estimate - want) <= 1e-6


def test_gamma_ladder_needs_room():
    r = ramp_path(1.0, 1.0, n=65)
    with pytest.raises(DomainError):
        d_gamma(builtin("eval"), eval_direction(1), 0.995, r)


def _eval_field(K):
    # the eval direction declared with Lipschitz constant K
    ev = eval_direction(1)
    return DirectionField(ev.eval, 1, K, label=f"eval(K={K:g})",
                          fn_many=ev.eval_many)


@pytest.mark.parametrize("K", [801.0, 1e4])
def test_gamma_ladder_grid_fits_a_narrow_contraction_window(K):
    # K > 800 gives a window 1/(2K) below the default grid's 0.000625 gap
    x = ramp_path(1.0, 1.0, n=1025)
    ref = d_gamma(builtin("square"), _eval_field(800.0), 0.5, x)
    rep = d_gamma(builtin("square"), _eval_field(K), 0.5, x)
    assert ref.converged and rep.converged
    assert abs(rep.estimate - ref.estimate) <= ref.conv_tol


def test_gamma_ladder_grid_past_the_step_cap_names_the_constant():
    x = ramp_path(1.0, 1.0, n=65)
    with pytest.raises(ConfigError, match="Lipschitz constant 1e\\+12"):
        d_gamma(builtin("square"), _eval_field(1e12), 0.5, x)


@pytest.mark.parametrize("t0", [0.005265, 0.001])
def test_expansion_check_along_gamma_star_near_the_time_floor(t0):
    # gamma_star(t0 / 2) declares K = 8 / t0
    rep = expansion_check(t0, ramp_path(1.0, 1.0, n=1025), gamma_star(t0 / 2))
    assert rep.ok


@pytest.mark.parametrize("study", ["gamma", "horizontal"])
def test_time_ladder_below_the_resolution_at_t_is_rejected(study):
    # 0.5 + 1e-2 * 0.5**69 == 0.5: the smallest quotient would divide by 0
    r = ramp_path(1.0, 1.0, n=65)
    lad = QuotientLadder(count=70)
    with pytest.raises(DomainError, match="smallest step"):
        if study == "gamma":
            d_gamma(builtin("eval"), eval_direction(1), 0.5, r, ladder=lad)
        else:
            d_horizontal(builtin("eval"), 0.5, r, ladder=lad)


@pytest.mark.parametrize("scheme", ["central", "forward"])
def test_bump_below_the_resolution_of_the_held_value_is_rejected(scheme):
    # x(0.5) + 1e-2 * 0.5**69 == x(0.5): every rung would read 0, not 1
    r = ramp_path(1.0, 1.0, n=65)
    lad = QuotientLadder(count=70)
    with pytest.raises(DomainError, match="does not move"):
        d_space(builtin("square"), 0, 0.5, r, ladder=lad, scheme=scheme)
    # only the bumped axis counts: a held 0 on the other axis is no excuse
    x = GridPath([0.0, 1.0], [[0.0, 1.0], [0.0, 1.0]])
    with pytest.raises(DomainError, match="does not move"):
        d_space(builtin("eval", axis=1, dim=2), 1, 0.5, x, ladder=lad,
                scheme=scheme)
    assert d_space(builtin("eval", dim=2), 0, 0.5, x, ladder=lad,
                   scheme=scheme).estimate == 1.0


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("study", ["gamma", "horizontal", "space"])
def test_non_finite_base_time_is_named(study, t):
    r = ramp_path(1.0, 1.0, n=65)
    F = builtin("eval")
    # the study's own check, or for d_space the stop, names the value
    with pytest.raises(DomainError, match=rf"[ =]{re.escape(str(t))}( |$)"):
        if study == "gamma":
            d_gamma(F, eval_direction(1), t, r)
        elif study == "horizontal":
            d_horizontal(F, t, r)
        else:
            d_space(F, 0, t, r)


# ---------------------------------------------------------------------------
# the derivative relation and gradient recovery


def test_relation_eval_constant_direction_is_tight():
    x = brownian_path(1, 4, n_exp=10)
    rel = relation_residual(builtin("eval"), constant_direction([0.7]),
                            0.5, x)
    assert abs(rel.residual) <= 1e-8
    assert abs(rel.gradient[0] - 1.0) <= 1e-12


def test_relation_square_flow_direction():
    x = brownian_path(2, 5, n_exp=10)
    rel = relation_residual(builtin("square"), eval_direction(1), 0.5, x)
    assert abs(rel.residual) <= 1e-4


def test_relation_names_failing_derivative():
    r = ramp_path(1.0, 1.0, n=1025)
    with pytest.raises(NonDifferentiableError) as exc:
        relation_residual(counterexample_functional(),
                          constant_direction([2.0]), 0.5, r)
    assert exc.value.which == "d_gamma"


def test_recover_gradient_scalar_canonical():
    x = brownian_path(4, 2, n_exp=10)
    rec = recover_gradient(builtin("eval"), [constant_direction([1.0])],
                           0.5, x)
    assert abs(rec.gradient[0] - 1.0) <= 1e-6
    assert rec.cond == 1.0


def test_recover_gradient_product_two_dim():
    x = brownian_path(8, 0, n_exp=10, dim=2)
    want = x.eval(0.5)[::-1]
    canonical = [constant_direction([1.0, 0.0]),
                 constant_direction([0.0, 1.0])]
    rec = recover_gradient(builtin("product"), canonical, 0.5, x)
    assert np.abs(rec.gradient - want).max() <= 1e-6
    mixed = [constant_direction([1.0, 0.5]), constant_direction([-0.25, 1.0])]
    rec2 = recover_gradient(builtin("product"), mixed, 0.5, x)
    assert np.abs(rec2.gradient - want).max() <= 1e-6


def test_recover_gradient_rejects_singular_system():
    x = brownian_path(4, 2, n_exp=10, dim=2)
    nearly = [constant_direction([1.0, 1.0]),
              constant_direction([1.0, 1.0 + 1e-12])]
    with pytest.raises(IllConditionedError) as exc:
        recover_gradient(builtin("product"), nearly, 0.5, x)
    assert exc.value.cond > 1e8
    with pytest.raises(DomainError):
        recover_gradient(builtin("product"), nearly[:1], 0.5, x)
    # a NaN cap accepted any conditioning
    with pytest.raises(ConfigError, match="cond_max .* not nan"):
        recover_gradient(builtin("product"), nearly, 0.5, x, cond_max=np.nan)


def test_horizontal_average_reconstructs_time_derivative():
    r = ramp_path(1.0, 1.0, n=1025)
    gamma = constant_direction([1.0])
    # integral functional: DF = x(t), the gamma part of the integrand is 0
    avg = horizontal_from_gamma(builtin("integral"), gamma, 0.4, r, 0.2)
    ref = d_horizontal(builtin("integral"), 0.4, r).estimate
    assert abs(avg.value - 0.4) <= 1e-6
    assert abs(avg.value - ref) <= 1e-6
    # square functional: DF = 0 and the two integrand parts cancel
    avg2 = horizontal_from_gamma(builtin("square"), gamma, 0.4, r, 0.2)
    assert abs(avg2.value) <= 1e-6
    with pytest.raises(DomainError):
        horizontal_from_gamma(builtin("square"), gamma, 0.4, r, -0.1)
    with pytest.raises(DomainError, match="t \\+ h \\+ eta0 <= horizon"):
        horizontal_from_gamma(builtin("square"), gamma, 0.9, r, 0.1)


# ---------------------------------------------------------------------------
# ladder-backed derivative bundles


def test_numerical_derivatives_of_square():
    F = numerical_derivatives(builtin("square"), dim=1)
    r = ramp_path(1.0, 1.0, n=1025)
    assert abs(F.partial_t.eval(0.5, r)) <= 1e-8
    assert F.grad.eval(0.5, r)[0] == 1.0
    assert abs(F.hess.eval(0.5, r)[0, 0] - 2.0) <= 1e-9


def test_numerical_derivatives_cross_term():
    F = numerical_derivatives(builtin("product"), dim=2)
    x = ramp_path([1.0, 2.0], 1.0, n=129)
    h = F.hess.eval(0.5, x)
    assert abs(h[0, 1] - 1.0) <= 1e-9
    assert abs(h[1, 0] - 1.0) <= 1e-9
    assert abs(h[0, 0]) <= 1e-9


class _PublicOnly:
    """A functional seen only through its public methods."""

    def __init__(self, F):
        self.label = F.label
        self.eval = F.eval
        self.eval_many = F.eval_many


def test_numerical_derivatives_use_public_methods_only():
    F = builtin("square")
    N = numerical_derivatives(_PublicOnly(F), dim=1)
    r = ramp_path(1.0, 1.0, n=1025)
    ts = np.linspace(0.0, 1.0, 9)
    assert N.eval(0.5, r) == F.eval(0.5, r)
    assert N.eval_many(ts, r).tobytes() == F.eval_many(ts, r).tobytes()
    assert N.grad.eval(0.5, r)[0] == 1.0


def test_numerical_derivatives_refuses_running_max():
    with pytest.raises(DomainError):
        numerical_derivatives(builtin("running_max"))


def test_numerical_gradient_has_one_entry_per_path_coordinate():
    # a dim below the path's used to return a truncated gradient
    F = numerical_derivatives(builtin("product"), dim=1)
    x = ramp_path([1.0, 2.0], 1.0, n=129)
    with pytest.raises(DomainError):
        F.grad.eval(0.5, x)


def test_d_space_axis_is_a_whole_number():
    with pytest.raises(ConfigError, match="^axis must be a whole number"):
        d_space(builtin("square"), 0.5, 0.5, ramp_path(1.0, 1.0, n=129))


def _per_rung_bump_quotients(F, i, t, x, scheme):
    # the spatial ladder with x bumped afresh on every rung
    e = np.zeros(x.dim)
    base = F.eval(t, stop(x, t))
    quotients = []
    for h in SPACE_LADDER.steps():
        e[i] = h
        up = F.eval(t, bump(x, t, e))
        if scheme == "forward":
            quotients.append((up - base) / h)
        else:
            e[i] = -h
            quotients.append((up - F.eval(t, bump(x, t, e))) / (2.0 * h))
    return np.array(quotients)


@pytest.mark.parametrize("where", ["inside", "stopped_earlier", "horizon"])
@pytest.mark.parametrize("scheme", ["central", "forward"])
def test_d_space_equals_per_rung_bumps_bitwise(where, scheme):
    gen = np.random.default_rng(11)
    times = np.concatenate([[0.0], np.sort(gen.uniform(0.0, 1.0, 30)), [1.0]])
    x = GridPath(times, gen.normal(size=(32, 2)))
    t = {"inside": 0.4, "stopped_earlier": 0.7, "horizon": 1.0}[where]
    if where == "stopped_earlier":
        x = stop(x, 0.3)
    for name in ("product", "integral", "running_max", "square"):
        F = builtin(name, axis=1, dim=2) if name != "product" \
            else builtin(name)
        for i in range(2):
            got = d_space(F, i, t, x, scheme=scheme).quotients
            want = _per_rung_bump_quotients(F, i, t, x, scheme)
            assert got.tobytes() == want.tobytes(), (name, i)


# ---------------------------------------------------------------------------
# the two studies against the hand-written ladders they replaced


def _ref_space(F, i, t, x, scheme):
    # d_space: stop once, bump on every rung
    xt = stop(x, t)
    hs = SPACE_LADDER.steps()
    e = np.zeros(x.dim)
    quotients = np.empty(len(hs))
    base = F.eval(t, xt) if scheme == "forward" else None
    for k, h in enumerate(hs):
        e[i] = h
        up = F.eval(t, bump(xt, t, e))
        if scheme == "forward":
            quotients[k] = (up - base) / h
        else:
            e[i] = -h
            down = F.eval(t, bump(xt, t, e))
            quotients[k] = (up - down) / (2.0 * h)
        e[i] = 0.0
    return quotients


def _ref_hessian(F, i, j, t, x):
    # numerical_derivatives: the diagonal and off-diagonal stencils
    xt = stop(x, t)
    f0 = F.eval(t, xt)
    hs = HESS_LADDER.steps()
    qs = np.empty(len(hs))
    for k, h in enumerate(hs):
        ei = np.zeros(x.dim)
        ej = np.zeros(x.dim)
        ei[i] = h
        ej[j] = h
        if i == j:
            up = F.eval(t, bump(xt, t, ei))
            dn = F.eval(t, bump(xt, t, -ei))
            qs[k] = (up - 2.0 * f0 + dn) / (h * h)
        else:
            pp = F.eval(t, bump(xt, t, ei + ej))
            pm = F.eval(t, bump(xt, t, ei - ej))
            mp = F.eval(t, bump(xt, t, ej - ei))
            mm = F.eval(t, bump(xt, t, -ei - ej))
            qs[k] = (pp - pm - mp + mm) / (4.0 * h * h)
    return qs


def _ref_gap_rates(t0, x, gamma):
    # expansion_check: the surface-gap rate ladder, frozen or along a flow
    etas = QuotientLadder().steps()
    if gamma is None:
        path = stop(x, t0)
    else:
        grid = ladder_flow_grid(t0, etas, max(8, int(np.ceil(
            2.0 * gamma.lipschitz_K * (etas[0] - etas[1]) / (1 + 1e-9)))))
        grid[-1] = min(grid[-1], x.horizon)
        path = solve_flow(x, t0, gamma, until=grid[-1], grid=grid).path
    phi0 = surface_value(t0, path)[0]
    times = np.minimum(t0 + etas, path.horizon)
    vals = surface_value(times[::-1], path)[::-1]
    return (vals - phi0) / (times - t0)


@st.composite
def _study_inputs(draw, dims=(1, 2)):
    """A random grid path in either mode with a base time inside it."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.sampled_from(dims))
    inner = np.sort(gen.uniform(0.0, 1.0, draw(st.integers(0, 30))))
    times = np.unique(np.concatenate([[0.0], inner, [1.0]]))
    values = 0.5 + np.cumsum(gen.normal(0.0, 0.25, (len(times), dim)), 0)
    x = GridPath(times, values, draw(st.sampled_from([LINEAR, CADLAG])))
    t = draw(st.sampled_from([float(gen.uniform(0.1, 0.9)), 1.0,
                              *times[1:-1]]))
    return x, t


def _catalog(dim):
    funcs = [CATALOG[name](axis=dim - 1, dim=dim) for name in sorted(CATALOG)]
    return funcs + ([builtin("product")] if dim == 2 else [])


@settings(max_examples=40, deadline=None)
@given(_study_inputs())
def test_bump_study_equals_the_reference_loops_bitwise(inputs):
    x, t = inputs
    for F in _catalog(x.dim):
        for i in range(x.dim):
            for scheme in ("central", "forward"):
                got = d_space(F, i, t, x, scheme=scheme).quotients
                want = _ref_space(F, i, t, x, scheme)
                assert got.tobytes() == want.tobytes(), (F.label, i, scheme)
        if F.grad is None:
            continue
        # entry by entry, so that the entries after one that does not
        # converge are checked too
        for i in range(x.dim):
            for j in range(x.dim):
                want = judge(HESS_LADDER.steps(), _ref_hessian(F, i, j, t, x),
                             HESS_LADDER.ratio)
                try:
                    got = _hess_entry(F, i, j, t, x)
                except NonDifferentiableError as exc:
                    assert not want.converged
                    assert exc.report.quotients.tobytes() \
                        == want.quotients.tobytes(), (F.label, i, j)
                else:
                    assert want.converged and got == want.estimate, \
                        (F.label, i, j)


@settings(max_examples=30, deadline=None)
@given(_study_inputs(dims=(1,)),
       st.sampled_from([None, "const", "gamma_star"]))
@example((GridPath([0.0, 0.005265, 1.0], [[0.5], [0.6], [0.2]]), 0.005265),
         "gamma_star")
def test_time_study_equals_the_reference_gap_rate_loop_bitwise(inputs, kind):
    x, t = inputs
    if t + QuotientLadder().eta0 > x.horizon:
        t = 0.5
    gamma = {None: None, "const": constant_direction([0.3]),
             "gamma_star": gamma_star(t / 2)}[kind]
    got = expansion_check(t, x, gamma=gamma).report.quotients
    assert got.tobytes() == _ref_gap_rates(t, x, gamma).tobytes()


@pytest.mark.parametrize("dim", [1, 2])
def test_relation_residual_stops_its_path_once(dim, monkeypatch):
    # x_t once, passed to every study, and one bump family per d_space; the
    # studies each stopped x again, and so did the direction's value.  Every
    # stopped view is held by _hold, the constructor's and the stops' alike
    built = []
    hold = paths.StoppedPath._hold

    def counting(self, *args, **kwargs):
        built.append(args)
        return hold(self, *args, **kwargs)

    gen = np.random.default_rng(dim)
    times = np.concatenate([[0.0], np.sort(gen.uniform(0.05, 0.95, 12)),
                            [1.0]])
    x = GridPath(times, 0.5 + gen.normal(0.0, 0.25, (len(times), dim)))
    F = builtin("eval") if dim == 1 else builtin("product")
    monkeypatch.setattr(paths.StoppedPath, "_hold", counting)
    rel = relation_residual(F, constant_direction([0.7] * dim), 0.5, x)
    assert abs(rel.residual) <= 1e-4
    assert len(built) <= 1 + dim


def _same_report(got, want):
    """Two reports equal field by field, numbers bit for bit."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, str):
            assert a == b, f.name
        else:
            assert np.asarray(a, dtype=float).tobytes() \
                == np.asarray(b, dtype=float).tobytes(), f.name


def _first_failure(reports):
    return next(r for r in reports if not r.converged)


_DIRECTIONS = {"constant": lambda d: constant_direction([0.7] * d),
               "eval": eval_direction, "running_avg": running_avg_direction}


@settings(max_examples=25, deadline=None)
@given(_study_inputs(), st.sampled_from(sorted(_DIRECTIONS)))
def test_composite_studies_equal_their_studies_on_the_unstopped_path(
        inputs, kind):
    # relation_residual and recover_gradient stop x once and pass x_t to
    # every study; each study called on x alone must give the same report
    x, t = inputs
    if t + QuotientLadder().eta0 > x.horizon:
        t = 0.5
    gamma = _DIRECTIONS[kind](x.dim)
    fields = [gamma] + [constant_direction(e) for e in np.eye(x.dim)[1:]]
    for F in _catalog(x.dim):
        rg, rh = d_gamma(F, gamma, t, x), d_horizontal(F, t, x)
        spaces = [d_space(F, i, t, x) for i in range(x.dim)]
        try:
            rel = relation_residual(F, gamma, t, x)
        except NonDifferentiableError as exc:
            _same_report(exc.report, _first_failure([rg, rh, *spaces]))
        else:
            for got, want in zip([rel.gamma_report, rel.horizontal_report,
                                  *rel.space_reports], [rg, rh, *spaces]):
                _same_report(got, want)
            grad = np.array([r.estimate for r in spaces])
            gvec = gamma.eval(t, stop(x, t))
            assert rel.gradient.tobytes() == grad.tobytes()
            assert rel.direction_value.tobytes() == gvec.tobytes()
            assert rel.residual == rg.estimate - rh.estimate \
                - float(grad @ gvec)
        studies = [rh] + [d_gamma(F, f, t, x) for f in fields]
        try:
            rec = recover_gradient(F, fields, t, x)
        except IllConditionedError:
            continue
        except NonDifferentiableError as exc:
            _same_report(exc.report, _first_failure(studies))
        else:
            for got, want in zip([rec.horizontal_report, *rec.gamma_reports],
                                 studies):
                _same_report(got, want)


# ---------------------------------------------------------------------------
# the verdicts against the catalog's coded derivatives

# largest error of a converged study relative to max(1, |coded|): 10,800
# studies of the catalog on 300 random paths read at most 2.0e-8 (99th
# percentile 5.0e-9); the bound is set once, about 50 times above that
ORACLE_REL = 1e-6


@settings(max_examples=60, deadline=None)
@given(_study_inputs(), st.integers(2, 14))
def test_a_converged_study_agrees_with_the_coded_derivative(inputs, k):
    # the documented guarantee: a converged estimate lies within conv_tol of
    # the derivative, here the catalog's coded one, and within ORACLE_REL
    x, t = inputs
    if t + QuotientLadder().eta0 > x.horizon:
        t = 0.5
    xt = stop(x, t)
    directions = [f(x.dim) for f in (*_DIRECTIONS.values(), zero_direction)]
    for F in _catalog(x.dim):
        if F.grad is None:
            continue
        pt, grad = F.partial_t.eval(t, x), F.grad.eval(t, x)
        studies = [(d_horizontal(F, t, x), pt)]
        studies += [(d_space(F, i, t, x), grad[i]) for i in range(x.dim)]
        studies += [(d_gamma(F, g, t, x), pt + grad @ g.eval(t, xt))
                    for g in directions]
        for rep, want in studies:
            if rep.converged:
                err = abs(rep.estimate - want)
                assert err <= rep.conv_tol, (rep.label, want)
                assert err <= ORACLE_REL * max(1.0, abs(want)), \
                    (rep.label, want)
    # where no derivative exists no study converges: the running max of a
    # rising linear path at any t > 0, a kink, and the counterexample along
    # its designed direction, at the dyadic times k / 16
    kink = d_space(builtin("running_max"), 0, k / 16, ramp_path(1.0, n=65))
    rogue = d_gamma(counterexample_functional(), constant_direction([2.0]),
                    k / 16, ramp_path(1.0, n=1025))
    assert not kink.converged and not rogue.converged


# ---------------------------------------------------------------------------
# each argument checked once, where it enters the library


def _counted_rules(monkeypatch):
    """Counts of the calls of every errors.require_* rule, require_path,
    require_field, require_ladder and _study_point, each wrapped in every
    pathcalc module namespace that holds it."""
    counts = collections.Counter()
    names = [n for n in vars(errors) if n.startswith("require_")] \
        + ["require_path", "require_field", "require_ladder", "_study_point"]
    modules = [m for k, m in sys.modules.items()
               if k.startswith("pathcalc.") and m is not None]
    for name in names:
        rule = next(vars(m)[name] for m in modules if name in vars(m))

        def counted(*args, _name=name, _rule=rule, **kwargs):
            counts[_name] += 1
            return _rule(*args, **kwargs)

        for m in modules:
            if vars(m).get(name) is rule:
                monkeypatch.setattr(m, name, counted)
    return counts


# rule calls of one call before each argument was checked once, and the
# bound pinned from the measurement after: relation_residual 65 -> 11,
# d_gamma 32 -> 8, solve_flow 13 -> 6
@pytest.mark.parametrize("call, bound", [
    (lambda x, F, g: relation_residual(F, g, 0.5, x), 11),
    (lambda x, F, g: d_gamma(F, g, 0.5, x), 8),
    (lambda x, F, g: solve_flow(x, 0.5, g), 6),
], ids=["relation_residual", "d_gamma", "solve_flow"])
def test_an_entry_checks_each_argument_once(call, bound, monkeypatch):
    # the studies, the flow set-up and the stops each checked again what
    # the entry before them had checked or built
    args = ramp_path(1.0, n=65), builtin("square"), eval_direction(1)
    call(*args)
    counts = _counted_rules(monkeypatch)
    call(*args)
    assert sum(counts.values()) <= bound, dict(counts)


def test_a_time_study_solves_its_flow_without_a_rule_call(monkeypatch):
    # the study hands the solver the point it checked and the grid it built
    xt = stop(ramp_path(1.0, n=65), 0.5)
    counts = _counted_rules(monkeypatch)
    solve, inside = deriv.picard_flow, []

    def watched(*args, **kwargs):
        before = sum(counts.values())
        out = solve(*args, **kwargs)
        inside.append(sum(counts.values()) - before)
        return out

    monkeypatch.setattr(deriv, "picard_flow", watched)
    rep = time_study(builtin("square"), 0.5, xt, eval_direction(1),
                     TIME_LADDER)
    assert rep.converged and inside == [0]


def test_a_time_study_keeps_the_flow_checks_of_its_clipped_grid():
    # the last ladder point may pass the horizon by its 1e-12 slack, and the
    # grid node clipped to the horizon may then meet the node before it; a
    # study at the horizon itself flows nowhere and reads x_t
    x, lad = ramp_path(1.0, n=65), QuotientLadder(eta0=1e-13, count=6)
    with pytest.raises(DomainError, match="^grid must be strictly "
                                          "increasing, not 1.0000000000000"):
        d_gamma(builtin("square"), eval_direction(1), 1 - 0.5e-13, x, lad)
    with np.errstate(divide="ignore", invalid="ignore"):   # 0 / 0 rungs
        got = d_gamma(builtin("square"), eval_direction(1), 1.0, x, lad)
        want = d_horizontal(builtin("square"), 1.0, x, lad)
    assert got.quotients.tobytes() == want.quotients.tobytes()
