"""Catalog functionals, coded derivatives and the randomized probes."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    CADLAG,
    LINEAR,
    ConfigError,
    DomainError,
    Functional,
    FunctionalWithDerivatives,
    GridPath,
    MatrixFunctional,
    ProbeReport,
    VectorFunctional,
    benchmark,
    builtin,
    bump,
    constant_functional,
    constant_direction,
    constant_matrix_field,
    constant_path,
    constraint_direction,
    counterexample_functional,
    eval_direction,
    eval_functional,
    gamma_star,
    mean_functional,
    numerical_derivatives,
    probe_boundedness,
    probe_lipschitz,
    probe_non_anticipative,
    ramp_path,
    running_avg_direction,
    running_max_functional,
    stop,
    surface_functional,
    zero_direction,
)
from pathcalc.functionals import CATALOG, DirectionField, \
    _random_path, _with_pinned_future, product_functional, \
    require_derivatives


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
    assert np.array_equal(F.grad.eval(0.5, p), np.array([1.0, 0.5]))
    assert np.array_equal(F.hess.eval(0.5, p),
                          np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_square_coded_derivatives(ramp):
    F = builtin("square")
    assert F.partial_t.eval(0.5, ramp) == 0.0
    assert F.grad.eval(0.5, ramp)[0] == 1.0
    assert F.hess.eval(0.5, ramp)[0, 0] == 2.0


# ---------------------------------------------------------------------------
# one body per functional: eval at ts[k] is eval_many(ts)[k], bit for bit


def _with_derivatives(F):
    """F and every coded derivative hanging off it."""
    found = [F] + [getattr(F, name, None)
                   for name in ("partial_t", "grad", "hess")]
    return [G for G in found if G is not None]


def _built_ins(dim):
    """Every built-in functional and field that takes a dim-d path."""
    out = []
    for name in sorted(CATALOG):
        for axis in range(dim):
            out.extend(_with_derivatives(builtin(name, axis=axis, dim=dim)))
    out += [zero_direction(dim), constant_direction([0.7, -0.0][:dim]),
            eval_direction(dim), running_avg_direction(dim)]
    if dim == 2:
        out.extend(_with_derivatives(builtin("product", dim=2)))
    else:
        out += [mean_functional(), surface_functional(),
                counterexample_functional()]
        for name in ("gauss_square", "drifted_linear", "discount_const"):
            spec, f = benchmark(name)
            out.extend(_with_derivatives(f))
            out += [spec.drift, spec.rate, spec.payoff]
    return out


@st.composite
def paths_and_times(draw):
    """A random grid path in either mode, as is or stopped or bumped at a
    cut, with sorted query times that include 0, the cut and the horizon."""
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dim = draw(st.integers(1, 2))
    horizon = draw(st.sampled_from([0.5, 1.0, 3.0]))
    inner = np.sort(gen.uniform(0.0, horizon, draw(st.integers(0, 12))))
    times = np.unique(np.concatenate([[0.0], inner, [horizon]]))
    values = gen.normal(scale=draw(st.sampled_from([0.1, 1.0, 30.0])),
                        size=(len(times), dim))
    x = GridPath(times, values, draw(st.sampled_from([LINEAR, CADLAG])))
    cut = float(draw(st.sampled_from([0.0, horizon, *times, *inner / 2])))
    kind = draw(st.sampled_from(["grid", "stop", "bump"]))
    if kind == "stop":
        x = stop(x, cut)
    elif kind == "bump":
        x = bump(x, cut, gen.normal(size=dim))
    ts = np.unique(np.concatenate(
        [[0.0, cut, horizon], times, gen.uniform(0.0, horizon, 8)]))
    return x, ts


def _assert_routes_agree(F, x, ts):
    many = F.eval_many(ts, x)
    assert len(many) == len(ts), F.label
    for t, row in zip(ts, many):
        one = np.asarray(F.eval(t, x), dtype=float)
        assert one.tobytes() == row.tobytes(), (F.label, t, one, row)


@settings(max_examples=60, deadline=None)
@given(paths_and_times())
def test_eval_many_matches_pointwise_loop(case):
    x, ts = case
    t_floor = 1e-3
    for F in _built_ins(x.dim):
        _assert_routes_agree(F, x, ts)
    if x.dim == 1:
        late = ts[ts >= t_floor]
        for field in constraint_direction(t_floor), gamma_star(t_floor):
            _assert_routes_agree(field, x, late)


def _entry_lists(name, a, d):
    """The catalog's derivatives as they were once built: grad as a list of
    d real functionals and hess as a d x d list of lists of them."""
    def body(fn):
        return Functional(fn, fn_many=fn)

    grad = [constant_functional(0.0) for _ in range(d)]
    hess = [[constant_functional(0.0) for _ in range(d)] for _ in range(d)]
    if name == "product":
        grad = [eval_functional(1, 2), eval_functional(0, 2)]
        hess[0][1] = hess[1][0] = constant_functional(1.0)
    elif name == "eval":
        grad[a] = constant_functional(1.0)
    elif name == "square":
        grad[a] = body(lambda ts, x: 2.0 * x.eval(ts)[..., a])
        hess[a][a] = constant_functional(2.0)
    elif name == "exp_eval":
        grad[a] = hess[a][a] = body(lambda ts, x: np.exp(x.eval(ts)[..., a]))
    return grad, hess


@settings(max_examples=60, deadline=None)
@given(paths_and_times())
def test_shaped_derivatives_equal_the_entry_lists_bitwise(case):
    x, ts = case
    d = x.dim
    names = [(name, a) for name in sorted(CATALOG) for a in range(d)]
    for name, a in names + ([("product", 0)] if d == 2 else []):
        F = builtin(name, axis=a, dim=d)
        if name == "running_max":
            assert F.grad is None and F.hess is None
            continue
        grad, hess = _entry_lists(name, a, d)
        want = (np.stack([g.eval_many(ts, x) for g in grad], axis=1),
                np.stack([np.stack([h.eval_many(ts, x) for h in row], axis=1)
                          for row in hess], axis=1))
        zero = (np.array([g.constant_value == 0.0 for g in grad]),
                np.array([[h.constant_value == 0.0 for h in row]
                          for row in hess]))
        for got, ref, off in zip((F.grad.eval_many(ts, x),
                                  F.hess.eval_many(ts, x)), want, zero):
            assert got.shape == ref.shape, F.label
            assert got.tobytes() == ref.tobytes(), F.label
            # every entry off the axis is exactly +0.0, not -0.0
            off = got[:, off]
            assert not off.any() and not np.signbit(off).any(), F.label


def test_square_routes_agree_where_pow_is_off_by_one_ulp():
    # libm pow rounds this square up by one ulp; v * v is correctly rounded
    p = constant_path(float.fromhex("-0x1.93d6220ea40a6p-4"))
    F = builtin("square")
    want = float.fromhex("0x1.3e85f12b86bd7p-7")
    assert F.eval(0.5, p) == want
    assert F.eval_many([0.5], p)[0] == want


@pytest.mark.parametrize("axis, dim", [(1, 1), (2, 2), (-1, 1), (0, 0)])
def test_builtin_rejects_an_axis_outside_the_dimension(axis, dim):
    with pytest.raises(DomainError):
        builtin("eval", axis=axis, dim=dim)


@pytest.mark.parametrize("dim", [1, 3])
def test_product_needs_two_dimensions(dim):
    with pytest.raises(DomainError):
        builtin("product", dim=dim)
    assert builtin("product", dim=2).label == builtin("product").label


@pytest.mark.parametrize("axis", [1, 7, -1])
def test_product_takes_no_axis(axis):
    with pytest.raises(DomainError, match="no axis"):
        builtin("product", axis=axis, dim=2)


def test_constant_direction_label_prints_floats():
    assert constant_direction([2.0]).label == "const(2.0)"
    assert constant_direction([0.5, -1.0]).label == "const(0.5,-1.0)"
    assert zero_direction(2).label == "zero"


def test_builtin_unknown_name():
    with pytest.raises(DomainError):
        builtin("cube")


def test_grad_absent_for_running_max(ramp):
    F = builtin("running_max")
    assert F.grad is None and F.hess is None
    with pytest.raises(DomainError):
        require_derivatives("F", F, 1)


def test_require_derivatives_checks_the_set_by_name_and_dimension():
    F = builtin("square")
    assert require_derivatives("F", F, 1) is F
    with pytest.raises(DomainError, match=r"^f\.grad must be a functional "
                                          r"of shape \(2,\), not \(1,\)$"):
        require_derivatives("f", F, 2)
    with pytest.raises(DomainError, match="lacks partial_t"):
        require_derivatives("f", None, 1)


def test_constant_functional_flags():
    c = constant_functional(3.5)
    assert c.constant_value == 3.5
    assert c.eval(0.1, None) == 3.5
    v = constant_direction([1.0, 2.0])
    assert v.constant_value.tolist() == [1.0, 2.0]
    assert v.eval(0.1, None).tolist() == [1.0, 2.0]
    m = constant_matrix_field([[1.0]])
    assert m.constant_value.tolist() == [[1.0]]
    assert m.eval(0.1, None).tolist() == [[1.0]]


@pytest.mark.parametrize("make", [
    lambda **kw: Functional(lambda t, x: 5.0, **kw),
    lambda **kw: VectorFunctional(lambda t, x: [5.0], 1, **kw),
    lambda **kw: DirectionField(lambda t, x: [5.0], 1, 0.0, **kw),
    lambda **kw: MatrixFunctional(lambda t, x: [[5.0]], (1, 1), **kw),
    lambda **kw: FunctionalWithDerivatives(lambda t, x: 5.0, **kw),
], ids=["functional", "vector", "direction", "matrix", "with_derivatives"])
def test_constant_value_is_no_constructor_keyword(make):
    # only the constant constructors mark a functional as constant; a body
    # that returns one value is not marked, and the fast routes skip it
    assert make().constant_value is None
    with pytest.raises(TypeError):
        make(constant_value=5.0)


def test_vector_functional_shape_check():
    V = VectorFunctional(lambda t, x: np.array([1.0, 2.0]), 3, label="bad")
    with pytest.raises(DomainError):
        V.eval(0.0, None)


def test_direction_field_rejects_negative_constant():
    with pytest.raises(DomainError):
        DirectionField(lambda t, x: np.array([0.0]), 1, -1.0)


@pytest.mark.parametrize("K", [np.nan, np.inf])
def test_direction_field_rejects_a_non_finite_constant(K):
    # a NaN K read as no window cap in solve_flow, an infinite one passed
    # every Lipschitz probe
    with pytest.raises(DomainError, match=f"lipschitz_K .* not {K}$"):
        DirectionField(lambda t, x: x.eval(t), 1, K)


@pytest.mark.parametrize("axis", [0.5, np.nan])
def test_builtin_axis_is_a_whole_number(axis):
    with pytest.raises(ConfigError, match="^axis must be a whole number"):
        builtin("square", axis=axis)


def _fn(t, x):
    return 0.0


@pytest.mark.parametrize("call, error, match", [
    (lambda: VectorFunctional(_fn, 1.5), ConfigError,
     "^dim_out must be a whole number, not 1.5$"),
    (lambda: VectorFunctional(_fn, np.nan), ConfigError,
     "^dim_out must be a whole number, not nan$"),
    (lambda: VectorFunctional(_fn, 0), ConfigError,
     "^dim_out must be at least 1, not 0$"),
    (lambda: VectorFunctional(_fn, -1), ConfigError,
     "^dim_out must be at least 1, not -1$"),
    (lambda: MatrixFunctional(_fn, (1.5, 1)), ConfigError,
     r"^shape\[0\] must be a whole number"),
    (lambda: MatrixFunctional(_fn, (1, 0)), ConfigError,
     r"^shape\[1\] must be at least 1"),
    (lambda: eval_direction(2.7), ConfigError,
     "^dim must be a whole number, not 2.7$"),
    (lambda: running_avg_direction(2.7), ConfigError,
     "^dim must be a whole number, not 2.7$"),
    (lambda: builtin("eval", dim=1.5), ConfigError,
     "^dim must be a whole number"),
    (lambda: zero_direction(0), ConfigError, "^dim must be at least 1"),
    (lambda: numerical_derivatives(builtin("eval"), dim=1.5), ConfigError,
     "^dim must be a whole number"),
    (lambda: constant_path(1.0, dim=1.5), ConfigError,
     "^dim must be a whole number"),
    (lambda: constant_path([1.0, 2.0], dim=3), DomainError,
     "^value must hold 1 or 3 entries, not 2$"),
    (lambda: constant_path([1.0, 2.0], dim=0), ConfigError,
     "^dim must be at least 1, not 0$"),
    (lambda: eval_functional(axis=1, dim=1), DomainError,
     "^axis 1 outside dimension 1$"),
    (lambda: running_max_functional(axis=2, dim=2), DomainError,
     "^axis 2 outside dimension 2$"),
], ids=["vector_fractional", "vector_nan", "vector_zero", "vector_negative",
        "matrix_fractional", "matrix_zero", "eval_direction_fractional",
        "running_avg_direction_fractional",
        "builtin_fractional_dim", "zero_direction_zero",
        "numerical_derivatives_fractional", "constant_path_fractional",
        "constant_path_too_few_entries", "constant_path_zero_dim",
        "catalog_axis_outside", "running_max_axis_outside"])
def test_functional_sizes_are_errors_naming_them(call, error, match):
    # each was cut by int() or passed through: a (1,) shape for 1.5, a (0,)
    # or (-1,) shape, or a builtin TypeError or ValueError
    with pytest.raises(error, match=match):
        call()


# ---------------------------------------------------------------------------
# one functional type: every value is read in the declared shape


def test_shape_is_declared_by_the_kind_of_value():
    assert Functional(lambda t, x: 0.0).shape == ()
    assert eval_direction(3).shape == (3,)
    assert eval_direction(3).dim_out == 3
    assert constant_matrix_field([[1.0, 2.0]]).shape == (1, 2)
    for F in (eval_direction(1), constant_matrix_field([[1.0]])):
        assert isinstance(F, Functional)


def test_a_wrong_sized_fn_many_result_is_rejected_by_name():
    F = Functional(lambda t, x: 1.0, label="short",
                   fn_many=lambda ts, x: np.zeros(3))
    with pytest.raises(DomainError,
                       match=r"short: expected a value of shape \(2,\), "
                             r"got \(3,\)"):
        F.eval_many([0.1, 0.2], ramp_path(1.0, 1.0, n=5))


def test_an_empty_time_array_gives_no_values():
    x = ramp_path([1.0, 2.0], 1.0, n=5)
    cases = [
        (Functional(lambda t, x: x.eval(t)[0]), (0,)),
        (VectorFunctional(lambda t, x: x.eval(t), 2), (0, 2)),
        (MatrixFunctional(lambda t, x: np.outer(x.eval(t), x.eval(t)),
                          (2, 2)), (0, 2, 2)),
        (eval_direction(2), (0, 2)),
    ]
    for F, shape in cases:
        assert F.eval_many(np.array([]), x).shape == shape, F


def test_a_value_with_the_declared_entries_reads_in_the_declared_shape():
    x = ramp_path(1.0, 1.0, n=5)
    # a (1,) value is the scalar, not a bare TypeError or a DeprecationWarning
    F = Functional(lambda t, x: x.eval(t), label="coordinate")
    assert F.eval(0.5, x) == 0.5
    assert type(F.eval(0.5, x)) is float
    assert F.eval_many([0.25, 0.5], x).tolist() == [0.25, 0.5]
    V = VectorFunctional(lambda t, x: np.array([[1.0], [2.0]]), 2)
    assert V.eval(0.0, None).tolist() == [1.0, 2.0]


def test_a_matrix_value_must_have_its_exact_shape():
    M = MatrixFunctional(lambda t, x: np.array([1.0, 2.0]), (1, 2),
                         label="flat")
    with pytest.raises(DomainError, match=r"flat: expected a value of "
                                          r"shape \(1, 2\), got \(2,\)"):
        M.eval(0.0, None)
    x = ramp_path(1.0, 1.0, n=5)
    sig = constant_matrix_field([[0.5, 2.0]])
    assert sig.eval_many([0.0, 1.0], x).tolist() == [[[0.5, 2.0]]] * 2


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


@pytest.mark.parametrize("probe", [
    lambda: probe_non_anticipative(Functional(lambda t, x: np.nan),
                                   samples=5),
    lambda: probe_boundedness(Functional(lambda t, x: np.nan), 1.0,
                              samples=5),
    lambda: probe_lipschitz(
        DirectionField(lambda t, x: np.array([np.nan]), 1, 0.0), samples=5),
], ids=["non_anticipative", "boundedness", "lipschitz"])
def test_a_probe_that_meets_nan_fails(probe):
    rep = probe()
    assert not rep.passed
    assert rep.metric == np.inf


@pytest.mark.parametrize("F, dim, looks_ahead", [
    (builtin("square"), 1, False),
    (eval_direction(2), 2, False),
    (builtin("product").grad, 2, False),
    (builtin("product").hess, 2, False),
    (builtin("exp_eval", dim=2).hess, 2, False),
    (VectorFunctional(lambda t, x: x.eval(x.horizon), 2, label="lookahead"),
     2, True),
], ids=["scalar", "direction", "product_grad", "product_hess",
        "exp_eval_hess", "lookahead_vector"])
def test_every_probe_reads_every_shape(F, dim, looks_ahead):
    rep = probe_non_anticipative(F, dim=dim, samples=20)
    assert rep.passed is not looks_ahead
    if looks_ahead:
        assert 0.0 < rep.metric < np.inf
        assert rep.failures
        assert all(type(d) is float and d > 0.0 for _, _, d in rep.failures)
    assert probe_boundedness(F, 1.0, dim=dim, samples=20).passed


def test_reprs_name_the_label_and_the_outcome():
    assert repr(builtin("square")) == "<FunctionalWithDerivatives square[0]>"
    assert repr(Functional(lambda t, x: 0.0)) == "<Functional anonymous>"
    rep = probe_non_anticipative(builtin("eval"), samples=2)
    assert repr(rep) == ("<ProbeReport non_anticipative[eval[0]]: pass "
                         "metric=0 samples=2>")
    assert repr(ProbeReport("lookahead", False, 1.5, 3)) \
        == "<ProbeReport lookahead: FAIL metric=1.5 samples=3>"


def test_boundedness_of_a_vector_functional_names_a_time():
    # the worst entry is looked up per time, not in the flattened values
    rep = probe_boundedness(eval_direction(2), 1.0, dim=2, samples=20)
    assert rep.passed
    assert 0.0 < rep.metric <= 1.0
    assert 0.0 <= rep.failures[0][1] <= 1.0


@pytest.mark.parametrize("make", [
    lambda v: constant_functional(v),
    lambda v: constant_direction([1.0, v]),
    lambda v: constant_matrix_field([[1.0], [v]]),
], ids=["functional", "direction", "matrix_field"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_a_constant_must_be_finite(make, value):
    with pytest.raises(DomainError,
                       match=f"a constant must be finite, not {value}$"):
        make(value)


@pytest.mark.parametrize("probe", [
    lambda **kw: probe_non_anticipative(builtin("eval"), **kw),
    lambda **kw: probe_boundedness(builtin("eval"), 1.0, **kw),
    # the paths of a Lipschitz probe take the dimension of its field
    lambda dim=1, **kw: probe_lipschitz(eval_direction(dim), **kw),
], ids=["non_anticipative", "boundedness", "lipschitz"])
@pytest.mark.parametrize("kw", [
    {"samples": 0}, {"samples": -3}, {"dim": 0}, {"horizon": -1.0},
    {"horizon": 0.0}, {"horizon": np.nan}, {"horizon": np.inf},
    {"samples": 2.5}, {"samples": np.nan}, {"dim": 1.5},
], ids=["no_samples", "negative_samples", "no_dim", "negative_horizon",
        "zero_horizon", "nan_horizon", "inf_horizon", "fractional_samples",
        "nan_samples", "fractional_dim"])
def test_probes_reject_degenerate_configurations(probe, kw):
    with pytest.raises(ConfigError):
        probe(**kw)


@pytest.mark.parametrize("box", [0.0, -1.0, np.nan, np.inf, 1e308])
def test_boundedness_rejects_a_bad_box(box):
    with pytest.raises(ConfigError):
        probe_boundedness(builtin("eval"), box, samples=4)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1), dim=st.integers(1, 3),
       mode=st.sampled_from([LINEAR, CADLAG]),
       horizon=st.floats(0.0, 1.7e308, exclude_min=True),
       box=st.none() | st.floats(1e-300, 8e307), on_knot=st.booleans())
def test_probe_grids_pass_the_grid_path_checks(seed, dim, mode, horizon, box,
                                              on_knot):
    # the probes build these paths with grid_view, which checks nothing
    gen = np.random.default_rng(seed)
    path = _random_path(gen, dim, horizon, mode, box=box)
    if on_knot:
        t = float(path.times[gen.integers(len(path.times))])
    else:
        t = float(gen.uniform(0.0, horizon * 0.999))
    for g in (path, *_with_pinned_future(path, t, gen)):
        checked = GridPath(g.times, g.values, g.interp_mode)
        assert checked.times.tobytes() == g.times.tobytes()
        assert checked.values.tobytes() == g.values.tobytes()
        assert (checked.dim, checked.horizon, checked.interp_mode) \
            == (g.dim, g.horizon, g.interp_mode)
        assert not (g.times.flags.writeable or g.values.flags.writeable)
