"""Partition sums: quadratic covariation, functional updates, two integral
conventions, and the dyadic Brownian corpus."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pathcalc import (
    CADLAG,
    ConfigError,
    DomainError,
    FunctionalWithDerivatives,
    GridMismatchError,
    GridPath,
    LINEAR,
    VectorFunctional,
    brownian_path,
    builtin,
    constant_direction,
    constant_functional,
    constant_matrix_field,
    dyadic_subsample,
    ito_residual,
    midpoint_sum,
    quadratic_covariation,
    ramp_path,
    snap_partition,
    stratonovich_integral,
)
from pathcalc import concat, rng
from pathcalc.rng import substream

from conftest import GRID_FAULTS, bad_grid, counted_rules, grid_error


def _square_integrand():
    return VectorFunctional(lambda t, x: x.eval(t) ** 2, 1, label="x^2",
                            fn_many=lambda ts, x: x.eval(ts) ** 2)


def _random_path(gen, n_lo=8, n_hi=60, dim=1, mode=LINEAR):
    n = int(gen.integers(n_lo, n_hi))
    inner = np.sort(gen.uniform(0.0, 1.0, n))
    times = np.unique(np.concatenate([[0.0], inner, [1.0]]))
    values = gen.normal(size=(len(times), dim))
    return GridPath(times, values, mode)


def _random_subpartition(gen, path):
    n = len(path.times)
    keep = np.sort(gen.choice(np.arange(1, n - 1),
                              size=int(gen.integers(1, n - 1)),
                              replace=False))
    idx = np.concatenate([[0], keep, [n - 1]])
    return path.times[idx]


# ---------------------------------------------------------------------------
# partitions and snapping


def test_snap_identity_on_exact_subset():
    p = brownian_path(9, 0, n_exp=10)
    times = dyadic_subsample(p, 6, n_exp=10)
    snapped, values = snap_partition(times, p)
    assert np.array_equal(snapped, times)
    assert np.array_equal(values, p.values[:: 2 ** 4])


def test_snap_moves_to_nearest_knot():
    p = GridPath([0.0, 0.5, 1.0], [[0.0], [2.0], [1.0]])
    snapped, values = snap_partition(np.array([0.0, 0.26, 1.0]), p)
    assert np.array_equal(snapped, np.array([0.0, 0.5, 1.0]))
    assert values[1, 0] == 2.0


def test_snap_rejects_partition_finer_than_grid():
    p = GridPath([0.0, 0.5, 1.0], [[0.0], [2.0], [1.0]])
    with pytest.raises(GridMismatchError):
        snap_partition(np.array([0.0, 0.26, 0.3, 1.0]), p)


def test_snap_rejects_a_time_past_a_short_last_cell():
    # a partition may end up to 1e-12 past the horizon, further than half
    # a last cell of 2**-50
    p = GridPath([0.0, 1.0 - 2.0 ** -50, 1.0], [[0.0], [2.0], [1.0]])
    with pytest.raises(GridMismatchError, match="beyond half the local cell"):
        snap_partition(np.array([0.0, 1.0 + 1e-13]), p)


def test_snap_input_validation():
    p = constant_path_1()
    with pytest.raises(DomainError):
        snap_partition(np.array([0.5, 0.25]), p)
    with pytest.raises(DomainError):
        snap_partition(np.array([0.0, 1.5]), p)


@pytest.mark.parametrize("fault", GRID_FAULTS)
def test_snap_partition_rejects_a_bad_grid(fault):
    with pytest.raises(DomainError, match=grid_error(fault, "times")):
        snap_partition(bad_grid(fault, 0.0, 1.0), constant_path_1())


def constant_path_1():
    return GridPath([0.0, 0.5, 1.0], [[1.0], [1.0], [1.0]])


# ---------------------------------------------------------------------------
# quadratic covariation


def test_qv_of_sampled_identity_is_exact():
    # x(t) = t on the level-n dyadic grid: every increment is 2^-n T, so
    # the bracket at T is exactly 2^-n T^2 in floating point
    x = ramp_path(1.0, 1.0, n=2 ** 12 + 1)
    times = dyadic_subsample(x, 10, n_exp=12)
    qv = quadratic_covariation(x, times)
    assert qv.final()[0, 0] == 2.0 ** -10
    y = ramp_path(1.0, 2.0, n=2 ** 10 + 1)
    times2 = dyadic_subsample(y, 8, n_exp=10)
    assert quadratic_covariation(y, times2).final()[0, 0] == 2.0 ** -8 * 4.0


def test_qv_running_matrices_structure():
    x = brownian_path(21, 0, n_exp=8, dim=2)
    times = dyadic_subsample(x, 5, n_exp=8)
    qv = quadratic_covariation(x, times)
    assert len(qv) == len(times)
    assert np.all(qv.matrices[0] == 0.0)
    assert qv.dim == 2
    # outer products commute entrywise, so symmetry is bitwise
    assert np.array_equal(qv.final(), qv.final().T)
    assert qv.min_eigenvalue() >= -1e-12
    dx = np.diff(x.values[:: 2 ** 3], axis=0)
    assert np.allclose(qv.final(), dx.T @ dx, rtol=1e-12, atol=1e-15)
    assert np.array_equal(qv.component(0, 1), qv.matrices[:, 0, 1])
    # -1 read the last component, and 2 raised numpy's IndexError
    for i, j in [(-1, -1), (2, 0), (0, 2)]:
        with pytest.raises(DomainError, match=rf"^component \({i}, {j}\) "
                           "outside dimension 2$"):
            qv.component(i, j)
    with pytest.raises(ConfigError, match="^i must be a whole number, "
                       "not 0.5$"):
        qv.component(0.5, 0)


def test_qv_brownian_near_horizon_value():
    vals = []
    for i in range(20):
        p = brownian_path(42, i, n_exp=12)
        times = dyadic_subsample(p, 10, n_exp=12)
        vals.append(quadratic_covariation(p, times).final()[0, 0])
    assert abs(np.median(vals) - 1.0) < 0.1


# ---------------------------------------------------------------------------
# partition integrals and the functional update


def test_left_point_integral_of_gradient_on_ramp():
    # sum 2 x(t_j) dx over x(t) = t is exactly 1 - mesh on dyadic grids
    x = ramp_path(1.0, 1.0, n=2 ** 10 + 1)
    G = VectorFunctional(lambda t, x_: 2.0 * x_.eval(t), 1,
                         fn_many=lambda ts, x_: 2.0 * x_.eval(ts))
    for level in (4, 7, 10):
        times = dyadic_subsample(x, level, n_exp=10)
        mesh = 2.0 ** -level
        got = stratonovich_integral(G, x, times).ito
        assert got == 1.0 - mesh


def test_ito_residual_exact_zero_on_dyadic_data():
    # dyadic times and values: the quadratic update telescopes with no
    # rounding at all
    gen = substream(33, 0)
    times = np.arange(65) / 64.0
    values = gen.integers(-512, 512, size=(65, 1)) / 1024.0
    x = GridPath(times, values, LINEAR)
    dec = ito_residual(builtin("square"), x, times[::4])
    assert dec.residual == 0.0


@pytest.mark.parametrize("name,dim", [("eval", 1), ("square", 1),
                                      ("product", 2)])
def test_ito_residual_vanishes_for_quadratics(name, dim):
    gen = substream(7, 0)
    F = builtin(name, dim=dim)
    for k in range(25):
        mode = LINEAR if k % 2 else CADLAG
        x = _random_path(gen, dim=dim, mode=mode)
        times = _random_subpartition(gen, x)
        dec = ito_residual(F, x, times)
        assert abs(dec.residual) <= 1e-12 * dec.scale


def test_ito_residual_integral_functional_tracks_mesh():
    # the integral functional is not a pointwise polynomial: left-point
    # time rectangles leave an O(mesh) defect that refines away
    x = brownian_path(5, 3, n_exp=12)
    F = builtin("integral")
    res = []
    for level in (4, 8, 12):
        times = dyadic_subsample(x, level, n_exp=12)
        res.append(abs(ito_residual(F, x, times).residual))
    assert res[2] < res[0]
    assert res[2] <= 1e-3


def test_ito_residual_exp_functional_shrinks():
    x = brownian_path(42, 0, n_exp=12)
    F = builtin("exp_eval")
    r6 = abs(ito_residual(F, x, dyadic_subsample(x, 6, n_exp=12)).residual)
    r12 = abs(ito_residual(F, x, dyadic_subsample(x, 12, n_exp=12)).residual)
    assert r12 < r6


def test_ito_residual_requires_full_derivatives():
    x = brownian_path(0, 0, n_exp=6)
    with pytest.raises(DomainError):
        ito_residual(builtin("running_max"), x,
                     dyadic_subsample(x, 3, n_exp=6))


# rule calls of one partition sum, pinned at their count when first
# measured: the path, the functional's shapes (four for a derivative set),
# the partition as a grid and its times; the same at every dyadic level
@pytest.mark.parametrize("call, bound", [
    (lambda F, G, x, times: ito_residual(F, x, times), 7),
    (lambda F, G, x, times: stratonovich_integral(G, x, times), 4),
    (lambda F, G, x, times: quadratic_covariation(x, times), 3),
], ids=["ito_residual", "stratonovich_integral", "quadratic_covariation"])
def test_a_partition_sum_checks_as_often_at_every_level(call, bound,
                                                        monkeypatch):
    x = brownian_path(3, 0, n_exp=8)
    F, G = builtin("square"), _square_integrand()
    levels = [dyadic_subsample(x, level) for level in range(9)]
    counts = counted_rules(monkeypatch)
    per_level = []
    for times in levels:
        before = sum(counts.values())
        call(F, G, x, times)
        per_level.append(sum(counts.values()) - before)
    assert len(set(per_level)) == 1 and per_level[0] <= bound, dict(counts)


# ---------------------------------------------------------------------------
# Stratonovich sums


def test_bracket_bridge_is_bitwise():
    p = brownian_path(42, 1, n_exp=12)
    G = _square_integrand()
    for level in range(4, 13):
        r = stratonovich_integral(G, p, dyadic_subsample(p, level, n_exp=12))
        assert r.value == r.ito + 0.5 * r.covariation


def test_midpoint_sum_is_an_independent_match():
    p = brownian_path(42, 2, n_exp=12)
    G = _square_integrand()
    times = dyadic_subsample(p, 10, n_exp=12)
    r = stratonovich_integral(G, p, times)
    m = midpoint_sum(G, p, times)
    assert abs(r.value - m) <= 1e-12 * max(1.0, abs(m))


def test_constant_integrand_collapses_to_left_sum():
    p = brownian_path(42, 3, n_exp=10)
    times = dyadic_subsample(p, 8, n_exp=10)
    G = constant_direction([2.0])
    r = stratonovich_integral(G, p, times)
    assert r.covariation == 0.0
    assert r.value == r.ito
    # the midpoint of a constant is the constant, so the two sums are one
    assert r.ito == midpoint_sum(G, p, times)


def test_stratonovich_rejects_an_integrand_of_another_dimension():
    p = brownian_path(42, 3, n_exp=6)
    with pytest.raises(DomainError, match=r"^G must be a functional of shape "
                                          r"\(1,\), not \(2,\)$"):
        stratonovich_integral(constant_direction([1.0, 2.0]), p,
                              dyadic_subsample(p, 4, n_exp=6))


def _lopsided_hess():
    # a (1,) gradient with a (2, 2) Hessian
    return FunctionalWithDerivatives(
        lambda t, x: 0.0, label="lopsided", partial_t=constant_functional(0.0),
        grad=constant_direction([0.0]),
        hess=constant_matrix_field(np.zeros((2, 2))))


def _vector_partial_t():
    # a (2,) time derivative beside a (1,) gradient and a (1, 1) Hessian
    return FunctionalWithDerivatives(
        lambda t, x: 0.0, label="vector_pt",
        partial_t=constant_direction([0.0, 0.0]),
        grad=constant_direction([0.0]), hess=constant_matrix_field([[0.0]]))


def _vector_with_derivatives():
    # a (2,) functional that carries a full set of real-shaped derivatives
    F = constant_direction([1.0, 2.0])
    F.partial_t = constant_functional(0.0)
    F.grad = constant_direction([0.0])
    F.hess = constant_matrix_field([[0.0]])
    return F


_SHAPE_CASES = {
    "midpoint_one_on_two": (midpoint_sum, lambda: constant_direction([1.0]),
                            2, "G must be a functional of shape (2,), not "
                               "(1,)"),
    "midpoint_three_on_two": (midpoint_sum,
                              lambda: constant_direction([1.0, 2.0, 3.0]), 2,
                              "G must be a functional of shape (2,), not "
                              "(3,)"),
    "stratonovich_scalar": (stratonovich_integral, lambda: builtin("square"),
                            1, "G must be a functional of shape (1,), not ()"),
    "midpoint_scalar": (midpoint_sum, lambda: builtin("square"), 1,
                        "G must be a functional of shape (1,), not ()"),
    "stratonovich_matrix": (stratonovich_integral,
                            lambda: constant_matrix_field([[1.0]]), 1,
                            "G must be a functional of shape (1,), not "
                            "(1, 1)"),
    "midpoint_matrix": (midpoint_sum, lambda: constant_matrix_field([[1.0]]),
                        1, "G must be a functional of shape (1,), not (1, 1)"),
    "ito_two_on_one": (ito_residual, lambda: builtin("eval", dim=2), 1,
                       "F.grad must be a functional of shape (1,), not (2,)"),
    "ito_one_on_two": (ito_residual, lambda: builtin("eval"), 2,
                       "F.grad must be a functional of shape (2,), not (1,)"),
    "ito_hess": (ito_residual, _lopsided_hess, 1,
                 "F.hess must be a functional of shape (1, 1), not (2, 2)"),
    "ito_vector_partial_t": (ito_residual, _vector_partial_t, 1,
                             "F.partial_t must be a functional of shape (), "
                             "not (2,)"),
    "ito_vector": (ito_residual, _vector_with_derivatives, 1,
                   "F must be a functional of shape (), not (2,)"),
}


@pytest.mark.parametrize("case", sorted(_SHAPE_CASES))
def test_partition_sums_check_declared_shapes_before_they_evaluate(case):
    # an integrand must be (d,), a gradient (d,) and a Hessian (d, d) for a
    # d-dimensional path, and the functional and its time derivative reals;
    # a mismatch is one DomainError, never a numpy or builtin error or a sum
    # over the first components only
    sum_, make, dim, named = _SHAPE_CASES[case]
    p = brownian_path(42, 3, n_exp=6, dim=dim)
    with pytest.raises(DomainError, match=f"^{re.escape(named)}$"):
        sum_(make(), p, dyadic_subsample(p, 4, n_exp=6))


def test_chain_rule_for_cubes():
    # int x^2 o dx = (x(1)^3 - x(0)^3) / 3 in the midpoint convention
    errs = []
    for i in range(10):
        p = brownian_path(42, i, n_exp=12)
        times = dyadic_subsample(p, 12, n_exp=12)
        r = stratonovich_integral(_square_integrand(), p, times)
        exact = (p.eval(1.0)[0] ** 3 - p.eval(0.0)[0] ** 3) / 3.0
        errs.append(abs(r.value - exact))
    assert np.median(errs) <= 1e-2


def test_chain_rule_error_refines():
    p = brownian_path(42, 4, n_exp=14)
    exact = (p.eval(1.0)[0] ** 3) / 3.0
    errs = [abs(stratonovich_integral(_square_integrand(), p,
                                      dyadic_subsample(p, lvl, n_exp=14)).value
                - exact) for lvl in (6, 10, 14)]
    assert errs[2] < errs[0]


# ---------------------------------------------------------------------------
# the Brownian corpus


def test_brownian_path_is_reproducible():
    a = brownian_path(1, 2, n_exp=8)
    b = brownian_path(1, 2, n_exp=8)
    assert np.array_equal(a.values, b.values)
    assert a.eval(0.0)[0] == 0.0
    assert a.horizon == 1.0


def test_brownian_increment_variance():
    p = brownian_path(10, 0, n_exp=14)
    inc = np.diff(p.values[:, 0])
    var = inc.var() * 2 ** 14
    assert abs(var - 1.0) < 0.05


@pytest.mark.parametrize("n_exp, dim", [(25, 1), (-1, 1), (16, 0), (16, -1),
                                        (16, 2 ** 8 + 1)])
def test_brownian_path_size_is_checked_before_drawing(n_exp, dim,
                                                      monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew normals before the size check")

    monkeypatch.setattr(rng, "normals", no_draw)
    with pytest.raises(ConfigError, match="2\\*\\*24"):
        brownian_path(0, 0, n_exp=n_exp, dim=dim)


@pytest.mark.parametrize("index, match", [
    (-1, "^index must be at least 0, not -1$"),
    (0.5, "^index must be a whole number, not 0.5$"),
    # refused by the substream draw, in a message that named no parameter
    (2 ** 128, rf"^index must be in \[0, 2\*\*128\), got {2 ** 128}$"),
], ids=["negative", "fractional", "past_the_last_substream"])
def test_brownian_path_refuses_a_bad_index_by_its_name(index, match):
    with pytest.raises(ConfigError, match=match):
        brownian_path(0, index, n_exp=4)


@pytest.mark.parametrize("horizon", [1.0, 0.3, 1e-300, 1e308, 1e-310])
@pytest.mark.parametrize("dim", [1, 2])
def test_brownian_path_is_the_checked_construction_bit_for_bit(horizon, dim):
    # 1e-310 gives a subnormal step whose grid still rises strictly
    for n_exp in range(17):
        n = 2 ** n_exp
        p = brownian_path(7, 3, n_exp=n_exp, horizon=horizon, dim=dim)
        z = rng.normals(7, 3, (n, dim)) * np.sqrt(horizon / n)
        want = GridPath(np.linspace(0.0, horizon, n + 1),
                        np.vstack([np.zeros(dim), np.cumsum(z, axis=0)]),
                        LINEAR)
        assert p.times.tobytes() == want.times.tobytes()
        assert p.values.tobytes() == want.values.tobytes()
        assert (p.interp_mode, p.horizon, p.dim) \
            == (LINEAR, want.horizon, dim)
        assert not p.times.flags.writeable
        assert not p.values.flags.writeable


@pytest.mark.parametrize("horizon, n_exp", [
    (1e-320, 16), (5e-324, 16), (5e-324, 1), (0.0, 4), (-1.0, 4),
    (float("nan"), 4), (float("inf"), 4)])
def test_brownian_path_rejects_a_horizon_without_a_rising_grid(
        horizon, n_exp, monkeypatch):
    def no_draw(*args):
        raise AssertionError("drew normals before the horizon check")

    monkeypatch.setattr(rng, "normals", no_draw)
    with pytest.raises(ConfigError) as err:
        brownian_path(0, 0, n_exp=n_exp, horizon=horizon)
    # a horizon that is no positive finite real fails the rule every
    # horizon goes through; a subnormal one fails its own grid check
    if 0.0 < horizon < np.inf:
        assert str(err.value) == (f"horizon={horizon!r} with n_exp={n_exp} "
                                  "gives no strictly rising grid of "
                                  "2**n_exp steps")
    else:
        assert str(err.value) == ("horizon must be positive and finite, "
                                  f"not {horizon}")


def _snap_by_search(times, path):
    """snap_partition with a left binary search for each time's first knot
    at or after it, as it was written before grid paths located by their
    segment."""
    knots = np.asarray(path.knots())
    pos = np.clip(np.searchsorted(knots, times), 1, len(knots) - 1)
    left = knots[pos - 1]
    right = knots[pos]
    idx = np.where(times - left <= right - times, pos - 1, pos)
    snapped = knots[idx]
    disp = np.abs(snapped - times)
    cell = right - left
    bad = disp > 0.5 * cell
    if np.any(bad):
        k = int(np.argmax(bad))
        raise GridMismatchError(
            f"time {times[k]!r} snaps {disp[k]:g} away, beyond half the "
            f"local cell {cell[k]:g}")
    if np.any(np.diff(idx) <= 0):
        k = int(np.argmax(np.diff(idx) <= 0))
        raise GridMismatchError(
            f"times {times[k]!r} and {times[k + 1]!r} snap to one knot "
            f"{snapped[k]!r}; partition finer than the path grid")
    return snapped, path.eval(snapped)


def _snap_outcome(snap, times, path):
    try:
        snapped, values = snap(times, path)
    except GridMismatchError as e:
        return str(e)
    return snapped.tobytes(), values.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["brownian", "linspace", "random", "spliced",
                        "short_last_cell"]),
       st.sampled_from(["subset", "jittered", "random", "past_the_end"]),
       st.integers(2, 1500), st.integers(0, 2 ** 32 - 1))
def test_snap_partition_matches_the_left_binary_search(kind, partition, m,
                                                       seed):
    gen = np.random.default_rng(seed)
    if kind == "brownian":
        path = brownian_path(seed % 97, 0, n_exp=11)
    elif kind == "linspace":
        path = GridPath(np.linspace(0.0, 0.3, 1700), gen.normal(size=1700))
    elif kind == "random":
        times = np.unique(np.concatenate([[0.0, 1.0], gen.random(1500)]))
        path = GridPath(times, gen.normal(size=len(times)), CADLAG)
    elif kind == "spliced":
        path = concat(ramp_path(1.0, n=900), 0.4, ramp_path(-2.0, n=1100))
    else:
        # a last cell of 1e-13: a time 1e-12 past the horizon is off-grid
        times = np.append(np.linspace(0.0, 1.0 - 1e-13, 1600), 1.0)
        path = GridPath(times, gen.normal(size=1601))
    knots = np.asarray(path.knots())
    m = min(m, len(knots))
    times = np.sort(gen.choice(knots, m, replace=False))
    if partition == "jittered":
        # up to 0.4 of the narrower cell beside each knot
        gaps = np.diff(knots)
        j = np.searchsorted(knots, times)
        near = np.minimum(gaps[np.maximum(j - 1, 0)],
                          gaps[np.minimum(j, len(gaps) - 1)])
        times = np.clip(times + gen.uniform(-0.4, 0.4, m) * near, 0.0,
                        path.horizon)
    elif partition == "random":
        times = np.unique(gen.uniform(0.0, path.horizon, m))
    elif partition == "past_the_end":
        times = np.append(times[times < path.horizon],
                          path.horizon * (1 + 1e-12))
    times = np.unique(np.append(times, [0.0]))
    if len(times) < 2:
        return
    assert _snap_outcome(snap_partition, times, path) \
        == _snap_outcome(_snap_by_search, times, path)


def test_brownian_dim_two_shape():
    p = brownian_path(0, 0, n_exp=6, dim=2)
    assert p.values.shape == (65, 2)


def test_dyadic_subsample_levels():
    p = brownian_path(0, 1, n_exp=8)
    assert np.array_equal(dyadic_subsample(p, 0, n_exp=8),
                          np.array([0.0, 1.0]))
    t8 = dyadic_subsample(p, 8, n_exp=8)
    assert np.array_equal(t8, p.times)
    t5 = dyadic_subsample(p, 5, n_exp=8)
    assert np.all(np.isin(t5, p.times))
    with pytest.raises(DomainError):
        dyadic_subsample(p, 9, n_exp=8)
    odd = GridPath(np.linspace(0, 1, 1000), np.zeros((1000, 1)))
    with pytest.raises(GridMismatchError):
        dyadic_subsample(odd, 3)


@pytest.mark.parametrize("call, error, message", [
    (lambda p: dyadic_subsample(p, 2.5), ConfigError,
     "level must be a whole number, not 2.5"),
    (lambda p: dyadic_subsample(p, np.nan), ConfigError,
     "level must be a whole number, not nan"),
    (lambda p: dyadic_subsample(p, 2, n_exp="a"), ConfigError,
     "n_exp must be a whole number, not 'a'"),
    (lambda p: dyadic_subsample(p, 2, n_exp=2.5), ConfigError,
     "n_exp must be a whole number, not 2.5"),
    (lambda p: dyadic_subsample(None, 2), DomainError,
     "path must be a path, not None"),
], ids=["fractional_level", "nan_level", "text_n_exp", "fractional_n_exp",
        "no_path"])
def test_dyadic_subsample_reads_its_arguments_by_their_rules(call, error,
                                                            message):
    # n_exp='a' raised TypeError, n_exp=2.5 a GridMismatchError naming
    # 2**2.5 + 1 knots, and a path of None an AttributeError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(ramp_path(1.0, 1.0, n=17))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 31), st.integers(2, 6))
def test_snap_roundtrip_property(index, level):
    # any dyadic sublevel of a dyadic path snaps to itself
    p = brownian_path(123, index, n_exp=6)
    times = dyadic_subsample(p, level, n_exp=6)
    snapped, _ = snap_partition(times, p)
    assert np.array_equal(snapped, times)
