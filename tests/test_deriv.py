"""Quotient-ladder derivatives: verdicts, exact cases, the decomposition."""

import re

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
    brownian_path,
    bump,
    builtin,
    constant_direction,
    d_gamma,
    d_horizontal,
    d_space,
    eval_direction,
    expansion_check,
    gamma_star,
    horizontal_from_gamma,
    judge,
    numerical_derivatives,
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
from pathcalc.deriv import HESS_LADDER, _hess_entry, ladder_flow_grid
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


def test_judge_scale_aware_tolerance():
    # spread of 5e-3 around a level of 1000 is converged, around 0 it is not
    lad = QuotientLadder()
    etas = lad.steps()
    wobble = 5e-3 * np.cos(np.arange(lad.count))
    assert judge(etas, 1000.0 + wobble, lad.ratio).verdict == CONVERGED
    assert judge(etas, wobble, lad.ratio).verdict != CONVERGED


def test_ladder_validation():
    with pytest.raises(ConfigError):
        QuotientLadder(eta0=0.0)
    with pytest.raises(ConfigError):
        QuotientLadder(ratio=1.0)
    with pytest.raises(ConfigError):
        QuotientLadder(count=3)
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
